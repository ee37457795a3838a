"""Smoke runs of the demos that evaluate the fixed-area series."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_exact_enumeration.py", "06_finite_size_scaling.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demo 01 writes its table to the working directory
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert "Q_m" in out
    assert "tail" not in out
