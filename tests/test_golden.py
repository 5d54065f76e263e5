"""Byte-for-byte golden CSVs from small seeded CLI cells.

The files under tests/golden/ were written by the commands below; any
refactor of the engine must reproduce them exactly, RNG draw order included.
To regenerate after an intended output change, run the same commands with
--out (or --out-dir) pointed at tests/golden/ and say why in CHANGES.md.
"""

from pathlib import Path

import pytest

from negsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "run_L16_boundary.csv": [
        "run", "--L", "16", "--p", "0.1", "--samples", "4", "--seed", "5",
        "--observables-every", "1",
    ],
    "run_L12_random2.csv": [
        "run", "--L", "12", "--p", "0.15", "--samples", "4", "--seed", "6",
        "--schedule", "random_sites(2)",
    ],
    "sweep_2x2.csv": [
        "sweep", "--L", "8,12", "--p", "0.1,0.2", "--samples", "4", "--seed", "11",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_cell_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_fig3_desk_histogram_matches_golden(tmp_path):
    # keep_final_state + length_distribution on the runner's final states
    args = ["reproduce", "--figure", "fig3", "--scale", "desk", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    name = "fig3_desk_histogram.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
