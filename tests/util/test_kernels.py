"""Kernel-mode dispatch: the environment is read once, at import."""

import os
import subprocess
import sys

import pytest

from repro.util import kernels
from repro.util.kernels import (ENV_VAR, SCALAR, VECTORIZED, force_kernel_mode,
                                kernel_mode, scalar_kernels)


def test_environment_is_not_consulted_after_import(monkeypatch):
    ambient = kernel_mode()
    flipped = "0" if ambient == SCALAR else "1"
    monkeypatch.setenv(ENV_VAR, flipped)
    assert kernel_mode() == ambient
    monkeypatch.delenv(ENV_VAR)
    assert kernel_mode() == ambient


def test_force_kernel_mode_nests_and_restores():
    ambient = kernel_mode()
    with force_kernel_mode(SCALAR):
        assert scalar_kernels()
        with force_kernel_mode(VECTORIZED):
            assert kernel_mode() == VECTORIZED
        assert kernel_mode() == SCALAR
    assert kernel_mode() == ambient
    with pytest.raises(ValueError):
        with force_kernel_mode("fast"):
            pass


@pytest.mark.parametrize("value,expected", [
    (None, VECTORIZED), ("", VECTORIZED), ("0", VECTORIZED), (" Off ", VECTORIZED),
    ("1", SCALAR), ("yes", SCALAR),
], ids=["unset", "empty", "zero", "off-padded", "one", "yes"])
def test_variable_set_before_start_selects_the_mode(value, expected):
    env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
    if value is not None:
        env[ENV_VAR] = value
    # Load the one file: the mode must not depend on the rest of the package.
    code = ("import runpy, sys; "
            "print(runpy.run_path(sys.argv[1])['kernel_mode']())")
    out = subprocess.run(
        [sys.executable, "-c", code, kernels.__file__],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == expected
