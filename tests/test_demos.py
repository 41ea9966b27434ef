"""The demos and README's Python examples run end to end in-process, their own asserts included."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


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


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
