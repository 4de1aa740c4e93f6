"""``benchmarks/regress.py``: every report is collected and gated
before any file is written, so the files are regenerated all together
or not at all."""

from __future__ import annotations

import importlib.util

import pytest

from repro.bench import regress
from tests.bench.reports import REPO_ROOT


def _script_main():
    spec = importlib.util.spec_from_file_location(
        "regress_script", REPO_ROOT / "benchmarks" / "regress.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture
def two_reports(monkeypatch, tmp_path):
    """Swap the table for two rows writing to ``tmp_path``; the second
    row's headline is the argument, its floor 1.0."""
    def install(second: float):
        bands = {"": regress.Section({"x": (1.0, None)})}
        monkeypatch.setattr(regress, "REPORTS", {
            "a": regress.Report(str(tmp_path / "A.json"),
                                lambda: {"headlines": {"x": 2.0}}, bands),
            "b": regress.Report(str(tmp_path / "B.json"),
                                lambda: {"headlines": {"x": second}}, bands),
        })
        return [tmp_path / "A.json", tmp_path / "B.json"]
    return install


def test_a_failing_report_leaves_every_file_alone(two_reports):
    paths = two_reports(0.5)
    assert _script_main()([]) == 1
    assert not any(path.exists() for path in paths)


def test_passing_reports_are_all_written(two_reports):
    paths = two_reports(1.5)
    assert _script_main()(["--check"]) == 0
    assert not any(path.exists() for path in paths)
    assert _script_main()([]) == 0
    assert [regress.load_report(path)["headlines"]["x"] for path in paths] \
        == [2.0, 1.5]
