"""Command-line interface: argument handling, outputs, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negsim.analysis
import negsim.oracle
import negsim.polymer
from negsim.cli import main


def write_synthetic_sweep_csv(path, p_c=0.16, nu=0.94):
    """Sweep-format CSV drawn from an exact scaling form (collapsible)."""
    rng = np.random.default_rng(0)
    lines = ["# synthetic", "L,p,observable,late_mean,late_stderr,samples,stationary"]
    for L in (40, 80, 120, 160):
        for p in np.linspace(0.10, 0.245, 7):
            x = (p - p_c) * L ** (1.0 / nu)
            y = 1.0 / (1.0 + np.exp(x / 8.0)) + rng.normal(0, 0.003)
            lines.append(f"{L},{p:.9g},I,{y:.9g},0.003,100,1")
    path.write_text("\n".join(lines) + "\n")


def test_run_writes_summary_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main([
        "run", "--L", "6", "--p", "0.2", "--T", "8", "--seed", "3",
        "--samples", "2", "--out", str(out),
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "L,p,t,observable,mean,stderr,samples"
    assert len(lines) > 2


def test_run_config_file_merge(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"L": 6, "p": 0.5, "T": 4, "samples": 2}))
    out = tmp_path / "run.csv"
    code = main(["run", "--config", str(cfg_file), "--p", "0.1", "--out", str(out)])
    assert code == 0
    header = out.read_text().split("\n")[0]
    merged = json.loads(header.split("config=", 1)[1])
    assert merged["p"] == 0.1  # flag overrides the file
    assert merged["L"] == 6


def test_run_rejects_bad_config(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main([
        "run", "--L", "6", "--p", "0.2", "--schedule", "bogus", "--out", str(out),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    for schedule in ("random_sites(3", "random_sites:3)"):
        assert main(["run", "--L", "6", "--p", "0.2", "--schedule", schedule, "--out", str(out)]) == 2
        assert "unknown dephasing schedule" in capsys.readouterr().err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps([1, 2, 3]))
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2


SWEEP_HEADER = "L,p,observable,late_mean,late_stderr,samples,stationary"
BAD_INPUTS = {
    "sweep_unknown_key": (
        "cfg.json", json.dumps({"L_values": [4], "p_values": [0.1], "banana": 1}),
        ["sweep", "--config", "{path}", "--out", "{out}"],
    ),
    "sweep_repeated_L": (
        "cfg.json", json.dumps({"L_values": [4, 4], "p_values": [0.1], "samples": 2, "T": 4}),
        ["sweep", "--config", "{path}", "--out", "{out}"],
    ),
    "sweep_repeated_p": ("cfg.json", "", ["sweep", "--L", "4", "--p", "0.1,0.10", "--out", "{out}"]),
    "run_string_L": (
        "cfg.json", json.dumps({"L": "16", "p": 0.1}),
        ["run", "--config", "{path}", "--out", "{out}"],
    ),
    "run_L_past_int16": (
        "cfg.json", json.dumps({"L": 32768, "p": 0.1}),
        ["run", "--config", "{path}", "--out", "{out}"],
    ),
    "sweep_negative_seed": ("cfg.json", "", ["sweep", "--L", "4", "--p", "0.1", "--seed", "-1",
                                             "--out", "{out}"]),
    "run_negative_seed": (
        "cfg.json", json.dumps({"L": 8, "p": 0.1, "seed": -1}),
        ["run", "--config", "{path}", "--out", "{out}"],
    ),
    "fit_missing_column": (
        "sweep.csv", "L,p,observable,late_mean,samples,stationary\n4,0.1,E,0.5,3,1\n",
        ["fit", "--in", "{path}", "--p", "0.1"],
    ),
    "fit_short_row": (
        "sweep.csv", f"{SWEEP_HEADER}\n4,0.1,E,0.5,0.1,3,1\n6,0.1,E,0.5\n",
        ["fit", "--in", "{path}", "--p", "0.1"],
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_or_csv_exits_2(case, tmp_path, capsys):
    filename, text, argv = BAD_INPUTS[case]
    path = tmp_path / filename
    path.write_text(text)
    fill = {"path": str(path), "out": str(tmp_path / "out.csv")}
    assert main([arg.format(**fill) for arg in argv]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["run", "--L", "6", "--p", "0.2"])  # no --out
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_sweep_and_fit_pipeline(tmp_path, capsys):
    sweep_out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--L", "4,6,8", "--p", "0.1,0.2", "--T", "8", "--seed", "5",
        "--samples", "3", "--out", str(sweep_out),
    ])
    assert code == 0
    capsys.readouterr()

    code = main(["fit", "--in", str(sweep_out), "--observable", "E", "--p", "0.1"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "c1,c2,r_squared,preferred_model"
    c1, c2, r2, model = out[1].split(",")
    float(c1), float(c2), float(r2)
    assert model in ("cuberoot", "linear", "log")

    # too few sizes at the requested p
    code = main(["fit", "--in", str(sweep_out), "--p", "0.9"])
    assert code == 2


def test_sweep_verbose_logs_each_cell_to_stderr(tmp_path):
    # a fresh interpreter, so the logging set-up is the command's own
    src = str(Path(negsim.analysis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "negsim.cli", "sweep", "--L", "4,6", "--p", "0.1",
         "--T", "4", "--samples", "1", "--verbose", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    cells = [line for line in proc.stderr.splitlines() if line.startswith("cell ")]
    assert [line.split(" L=")[0] for line in cells] == ["cell 1/2", "cell 2/2"]
    assert "cell" not in proc.stdout


def test_python_dash_m_negsim_returns_the_exit_code(tmp_path):
    src = str(Path(negsim.analysis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = [sys.executable, "-m", "negsim", "run", "--p", "0.2", "--T", "4", "--seed", "1",
           "--samples", "1"]
    out = tmp_path / "run.csv"
    ok = subprocess.run(run + ["--L", "4", "--out", str(out)], capture_output=True, text=True,
                        env=env)
    assert ok.returncode == 0, ok.stderr
    assert out.read_text().startswith("# config_hash=")
    bad = subprocess.run(run + ["--L", "3", "--out", str(tmp_path / "bad.csv")],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2
    assert "error: L must be even" in bad.stderr


def test_fit_missing_file_exits_2(tmp_path, capsys):
    assert main(["fit", "--in", str(tmp_path / "nope.csv"), "--p", "0.1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_collapse_on_synthetic_sweep(tmp_path, capsys):
    sweep = tmp_path / "synth.csv"
    write_synthetic_sweep_csv(sweep)
    out = tmp_path / "collapse.csv"
    code = main(["collapse", "--in", str(sweep), "--observable", "I", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "p_c,nu,objective"
    p_c, nu, _ = (float(v) for v in lines[1].split(","))
    assert abs(p_c - 0.16) < 0.02
    assert abs(nu - 0.94) < 0.15


def test_polymer_command(tmp_path, capsys):
    out = tmp_path / "kpz.csv"
    code = main([
        "polymer", "--widths", "4,8,16", "--p", "0.3", "--samples", "20",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("L,mean_energy,var_energy,samples")
    assert "# fit:" in text

    code = main(["polymer", "--widths", "4,8", "--p", "0.0", "--samples", "2"])
    assert code == 0
    assert "# degenerate" in capsys.readouterr().out
    # a width whose samples share one energy has no variance fit
    code = main(["polymer", "--widths", "16,32", "--p", "0.3", "--samples", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "# degenerate: zero sample variance at widths [16]" in out and "# fit" not in out

    assert main(["polymer", "--widths", "3,8", "--p", "0.3"]) == 2
    assert main(["polymer", "--widths", "16", "--p", "0.3", "--samples", "5"]) == 2
    assert main(["polymer", "--widths", "8,16", "--p", "0.3", "--samples", "1"]) == 2
    assert main(["polymer", "--widths", "8,16", "--p", "1.5"]) == 2


def test_permcheck_command(capsys):
    code = main(["permcheck", "--n", "4", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "|C| = 3 (expect k(n-1) = 3)" in out
    assert "D witness" in out
    assert "|D| = 2 (expect kn/2 = 2)" in out

    assert main(["permcheck", "--n", "3", "--k", "1"]) == 2  # odd n


def test_permcheck_no_witness_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(negsim.polymer, "find_intermediate_D", lambda n, k: None)
    code = main(["permcheck", "--n", "4", "--k", "1"])
    assert code == 3
    assert "no D witness" in capsys.readouterr().out


def test_oracle_check_command(capsys):
    code = main(["oracle-check", "--circuits", "5", "--L", "3", "--depth", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle check passed" in out
    assert "5 circuits" in out


def test_oracle_check_mismatch_exits_3(monkeypatch, capsys):
    def forced_failure(**kwargs):
        return negsim.oracle.OracleReport(
            circuits=1, comparisons=1, max_entropy_dev=1.0,
            max_negativity_dev=1.0, max_mupurity_dev=1.0,
            failures=["forced for the exit-code test"],
        )

    monkeypatch.setattr(negsim.oracle, "oracle_check_suite", forced_failure)
    code = main(["oracle-check", "--circuits", "1"])
    assert code == 3
    assert "MISMATCH" in capsys.readouterr().err


def test_reproduce_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        negsim.analysis._FIG_SCALES["fig1b"], "desk",
        dict(L=[4, 6], p=[0.1], samples=2),
    )
    code = main([
        "reproduce", "--figure", "fig1b", "--scale", "desk",
        "--seed", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "fig1b_desk_curves.csv").exists()
    assert main(["reproduce", "--figure", "fig9", "--out-dir", str(tmp_path)]) == 2


def test_console_script_installed():
    """The declared `negsim` entry point starts and prints the command list.

    The entry point named under `[project.scripts]` runs in a child
    interpreter, the way pip's generated wrapper runs it, so the test checks
    the declaration and `main` without needing the package installed; the
    child imports the same `negsim` package as this test. Wherever an
    installed `negsim` script is on PATH, it is run with the same assertions.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["negsim"]
    module, _, func = entry.partition(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'negsim'; sys.exit({func}())"
    )
    src = str(Path(negsim.analysis.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    runs = [([sys.executable, "-c", wrapper, "--help"], env)]
    exe = shutil.which("negsim")
    if exe is not None:
        runs.append(([exe, "--help"], None))
    for command, command_env in runs:
        proc = subprocess.run(command, capture_output=True, text=True, env=command_env)
        assert proc.returncode == 0, (command, proc.stderr)
        assert "oracle-check" in proc.stdout, command
