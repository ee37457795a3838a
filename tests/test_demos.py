"""Smoke runs of the demos."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _run(name, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)  # demos 01, 03 and 04 write their tables to the working directory
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["01_exact_enumeration.py", "06_finite_size_scaling.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    out = _run(name, tmp_path, monkeypatch, capsys)
    assert "Q_m" in out
    assert "tail" not in out


@pytest.mark.parametrize("name, expected", [
    ("02_generating_function_routes.py", "t_inf = 0.62410958"),
    ("03_phase_boundary.py", " 0.9900   0.27469805 "),  # t_infinity through the phase-boundary scan
    ("04_uniform_airy.py", "max relative deviation on [0.02, 0.23]: 0.00094"),
    ("05_tricritical_scaling.py", "s = -2, j_max =  40: |error| = 5.72e-03"),  # criterion 09
])
def test_series_demo_runs(name, expected, tmp_path, monkeypatch, capsys):
    assert expected in _run(name, tmp_path, monkeypatch, capsys)
