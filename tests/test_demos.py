"""The demos run end to end in-process, their own asserts included."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name,expected",
    [
        ("01_kernel_profiles.py", "level  0: 0.5203"),
        ("02_toy_regression.py", "XOR-translated problem, max |prediction change|: 0.00e+00"),
        ("03_quotients_and_orbits.py", "11 isomorphism classes under all 24 relabelings"),
        ("04_monte_carlo_projection.py", "full-group projection is constant on orbits"),
        ("05_molecule_experiment.py", "within-type permutation group of order 1296"),
    ],
)
def test_orbit_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
