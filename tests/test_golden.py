"""Byte-for-byte golden CSVs from small seeded CLI cells.

The files under tests/golden/ were written by the commands below; any
refactor of the engine must reproduce them exactly, RNG draw order included.
To regenerate after an intended output change, run the same commands with
--out (or --out-dir) pointed at tests/golden/ and say why in CHANGES.md.
synthetic_sweep.csv is an input, not an output: the exact-scaling sweep CSV
that test_cli.write_synthetic_sweep_csv writes, read by the fit and collapse
cases.
"""

from pathlib import Path

import pytest

import negsim.analysis
from negsim.circuit import CircuitConfig, run_trajectory, write_trajectory_csv
from negsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SYNTHETIC = str(GOLDEN / "synthetic_sweep.csv")

CASES = {
    "run_L16_boundary.csv": [
        "run", "--L", "16", "--p", "0.1", "--samples", "4", "--seed", "5",
        "--observables-every", "1",
    ],
    "run_L12_random2.csv": [
        "run", "--L", "12", "--p", "0.15", "--samples", "4", "--seed", "6",
        "--schedule", "random_sites(2)",
    ],
    # about 12 random outcomes per layer: the runner's batched outcome draw
    "run_L48_p03.csv": [
        "run", "--L", "48", "--p", "0.3", "--samples", "2", "--seed", "7",
    ],
    "sweep_2x2.csv": [
        "sweep", "--L", "8,12", "--p", "0.1,0.2", "--samples", "4", "--seed", "11",
    ],
    "fit_synthetic_I.csv": [
        "fit", "--in", SYNTHETIC, "--observable", "I", "--p", "0.1",
    ],
    "collapse_synthetic_I.csv": ["collapse", "--in", SYNTHETIC],
    "polymer_w4_8_16.csv": [
        "polymer", "--widths", "4,8,16", "--p", "0.3", "--samples", "20", "--seed", "2",
    ],
}

# tiny stand-ins for the desk scales, so the figure recipes run in seconds
TINY_FIGURES = {
    "fig1b": dict(L=[4, 6], p=[0.1, 0.2], samples=2),
    "fig1b_inset": dict(L=[4, 6, 8], p=[0.1], samples=2),
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


@pytest.mark.parametrize("figure", sorted(TINY_FIGURES))
def test_tiny_figure_matches_golden(figure, tmp_path, monkeypatch):
    # golden names carry "tiny" where the written files say "desk"
    monkeypatch.setitem(negsim.analysis._FIG_SCALES[figure], "desk", TINY_FIGURES[figure])
    args = ["reproduce", "--figure", figure, "--seed", "1", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    written = sorted(tmp_path.iterdir())
    assert written
    for path in written:
        golden = GOLDEN / path.name.replace("_desk_", "_tiny_")
        assert path.read_bytes() == golden.read_bytes()


def test_trajectory_csv_matches_golden(tmp_path):
    cfg = CircuitConfig(L=8, p=0.2, T=12, seed=3, dephasing_schedule="random_sites(1)",
                        observables_every=3)
    out = tmp_path / "trajectories_L8.csv"
    write_trajectory_csv([run_trajectory(cfg, i) for i in range(2)], cfg, out)
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


# The same files from the numpy path, with the compiled row kernel off.


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_cell_matches_golden_on_numpy_path(name, tmp_path, numpy_path):
    test_cli_cell_matches_golden(name, tmp_path)


def test_fig3_desk_histogram_on_numpy_path(tmp_path, numpy_path):
    test_fig3_desk_histogram_matches_golden(tmp_path)


@pytest.mark.parametrize("figure", sorted(TINY_FIGURES))
def test_tiny_figure_on_numpy_path(figure, tmp_path, monkeypatch, numpy_path):
    test_tiny_figure_matches_golden(figure, tmp_path, monkeypatch)


def test_trajectory_csv_on_numpy_path(tmp_path, numpy_path):
    test_trajectory_csv_matches_golden(tmp_path)
