"""Guards for the one twin registry (:mod:`repro.algorithms.reference`).

Production keeps one path per kernel; the twins are reachable only
through the registry and :func:`~repro.algorithms.reference.twins`.
These tests pin that shape: production never imports the package or
grows a run-time kernel switch again, every row pairs two distinct
callables, ``twins()`` rebinds every site and puts it back (also after
an exception), and no module holds a swapped kernel under a name the
registry does not list — a by-name import would silently dodge the swap.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.algorithms.reference import REGISTRY, twins

SRC = Path(repro.__file__).resolve().parent
#: The only production-tree files allowed to reach the twins.
ALLOWED = ("algorithms/reference/", "bench/regress.py")
SWITCH = re.compile(r"scalar_kernels|kernel_mode|REPRO_SCALAR_KERNELS")
SITED = [row for row in REGISTRY.values() if row.sites]


def _production_sources():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith(ALLOWED):
            yield rel, path.read_text()


def _imports_reference(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "repro.algorithms.reference"
               or n.startswith("repro.algorithms.reference.") for n in names):
            return True
    return False


def test_production_never_reaches_the_twins_or_a_switch():
    offenders = []
    for rel, text in _production_sources():
        if _imports_reference(ast.parse(text)):
            offenders.append(f"{rel}: imports repro.algorithms.reference")
        if SWITCH.search(text):
            offenders.append(f"{rel}: mentions a kernel-mode switch")
    assert offenders == []


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_row_pairs_two_distinct_callables(name):
    row = REGISTRY[name]
    assert row.name == name
    assert callable(row.production) and callable(row.twin)
    assert row.production is not row.twin


@pytest.mark.parametrize("name", sorted(row.name for row in SITED))
def test_sites_hold_production_outside_twins(name):
    row = REGISTRY[name]
    for owner, attr in row.sites:
        assert getattr(owner, attr) is row.production, (owner, attr)


def test_twins_rebinds_every_site_and_restores_it():
    with twins():
        for row in SITED:
            for owner, attr in row.sites:
                assert getattr(owner, attr) is row.twin, (row.name, attr)
    for row in SITED:
        for owner, attr in row.sites:
            assert getattr(owner, attr) is row.production, (row.name, attr)


def test_twins_restores_after_an_exception():
    with pytest.raises(RuntimeError, match="inside"):
        with twins():
            raise RuntimeError("inside")
    for row in SITED:
        for owner, attr in row.sites:
            assert getattr(owner, attr) is row.production, (row.name, attr)


def _every_repro_module():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def test_no_module_holds_a_sited_kernel_under_an_unlisted_name():
    """Module globals and class attributes across ``repro.*``: each
    binding of a production kernel that ``twins()`` swaps must be one
    of that row's sites."""
    listed = {id(row.production): row for row in SITED}
    stray = []
    for module in _every_repro_module():
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for owner in owners:
            for attr, value in vars(owner).items():
                row = listed.get(id(value))
                if row is not None and (owner, attr) not in row.sites:
                    stray.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert stray == []
