"""Fits, finite-size collapse, sweep bookkeeping, and figure pipelines."""

import concurrent.futures
import logging
import re

import numpy as np
import pytest

import negsim.analysis
from negsim.analysis import (
    Curve,
    SweepResult,
    SweepSpec,
    _cell_seed,
    _FIG_SCALES,
    collapse_objective,
    optimize_collapse,
    power_law_fit,
    read_sweep_csv,
    reproduce_figure,
    run_sweep,
    scaling_model_comparison,
    sweep_rows_to_curves,
    write_sweep_csv,
)


def synthetic_collapse_curves(p_c, nu, sizes, ps, noise, seed, width=8.0):
    """Data drawn from an exact scaling form plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    curves = []
    for L in sizes:
        x = (np.asarray(ps) - p_c) * L ** (1.0 / nu)
        y = 1.0 / (1.0 + np.exp(x / width))
        err = np.full(y.size, max(noise, 1e-3))
        curves.append(
            Curve(L=L, p=np.asarray(ps), y=y + rng.normal(0, noise, y.size), stderr=err)
        )
    return curves


# -- power-law fits ----------------------------------------------------------------


@pytest.mark.parametrize("c1,c2", [(0.779, -1.307), (1.670, -2.134)])
def test_power_law_fit_exact_recovery(c1, c2):
    L = np.array([40.0, 80.0, 120.0, 160.0])
    points = [(l, c1 * np.cbrt(l) + c2, 0.01) for l in L]
    got_c1, got_c2, r2 = power_law_fit(points)
    assert abs(got_c1 - c1) < 1e-9
    assert abs(got_c2 - c2) < 1e-9
    assert abs(r2 - 1.0) < 1e-12


def test_power_law_fit_constant_data():
    points = [(l, 3.5, 0.0) for l in (10.0, 20.0, 40.0, 80.0)]
    c1, c2, r2 = power_law_fit(points)
    assert abs(c1) < 1e-9
    assert abs(c2 - 3.5) < 1e-9


def test_power_law_fit_needs_three_points():
    with pytest.raises(ValueError):
        power_law_fit([(10.0, 1.0, 0.1), (20.0, 2.0, 0.1)])


def test_model_comparison_prefers_generating_model():
    L = np.array([20.0, 40.0, 80.0, 160.0, 320.0])
    rng = np.random.default_rng(0)
    forms = {
        "cuberoot": 0.8 * np.cbrt(L) - 1.3,
        "linear": 0.05 * L + 0.4,
        "log": 0.9 * np.log(L) + 0.2,
    }
    for name, y in forms.items():
        pts = [(l, v + rng.normal(0, 1e-4), 1e-4) for l, v in zip(L, y)]
        cmp = scaling_model_comparison(pts)
        assert cmp.preferred == name
        assert getattr(cmp, f"r2_{name}") > 0.999


# -- collapse -----------------------------------------------------------------------


def test_curve_sorting_and_validation():
    c = Curve(L=8, p=np.array([0.3, 0.1, 0.2]), y=np.array([3.0, 1.0, 2.0]),
              stderr=np.array([0.3, 0.1, 0.2]))
    assert c.p.tolist() == [0.1, 0.2, 0.3]
    assert c.y.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        Curve(L=8, p=np.array([0.1]), y=np.array([1.0]), stderr=np.array([0.1]))
    with pytest.raises(ValueError):
        Curve(L=8, p=np.array([0.1, 0.1]), y=np.array([1.0, 2.0]),
              stderr=np.array([0.1, 0.1]))


def test_collapse_objective_degenerate_cases():
    ps = np.linspace(0.1, 0.3, 5)
    single = synthetic_collapse_curves(0.2, 1.0, [32], ps, 0.0, 1)
    assert collapse_objective(single, 0.2, 1.0) == 0.0
    curves = synthetic_collapse_curves(0.2, 1.0, [16, 32], ps, 0.0, 1)
    with pytest.raises(ValueError):
        collapse_objective(curves, 0.5, 1.0)  # p_c outside the data range
    with pytest.raises(ValueError):
        collapse_objective(curves, 0.2, 0.0)


def test_collapse_objective_invariant_under_reordering():
    ps = np.linspace(0.10, 0.245, 7)
    curves = synthetic_collapse_curves(0.16, 0.94, [40, 80, 120], ps, 0.003, 2)
    cost = collapse_objective(curves, 0.16, 0.94)
    assert collapse_objective(curves[::-1], 0.16, 0.94) == pytest.approx(cost, rel=1e-12)
    shuffled = [
        Curve(L=c.L, p=c.p[::-1], y=c.y[::-1], stderr=c.stderr[::-1]) for c in curves
    ]
    assert collapse_objective(shuffled, 0.16, 0.94) == pytest.approx(cost, rel=1e-12)


def test_collapse_objective_zero_on_perfect_data():
    # noiseless scaling data lies exactly on one master curve
    ps = np.linspace(0.10, 0.245, 9)
    curves = synthetic_collapse_curves(0.16, 1.0, [40, 80, 160], ps, 0.0, 3)
    at_truth = collapse_objective(curves, 0.16, 1.0)
    assert at_truth < 0.2  # only the piecewise-linear interpolation residual
    assert collapse_objective(curves, 0.20, 1.6) > 1000 * at_truth


def test_optimize_collapse_recovers_synthetic_parameters():
    ps = np.linspace(0.10, 0.245, 7)
    curves = synthetic_collapse_curves(0.16, 0.94, [40, 80, 120, 160], ps, 0.004, 5)
    fit = optimize_collapse(curves)
    assert abs(fit.p_c - 0.16) < 0.01
    assert abs(fit.nu - 0.94) < 0.10
    at_opt = collapse_objective(curves, fit.p_c, fit.nu)
    for dp, dnu in ((0.03, 0.0), (-0.03, 0.0), (0.0, 0.6), (0.0, -0.35)):
        worse = collapse_objective(curves, fit.p_c + dp, max(fit.nu + dnu, 0.2))
        assert worse > at_opt
    assert len(fit.trace) >= 25 * 16


def test_nelder_mead_takes_scipys_steps():
    pytest.importorskip("scipy")
    from scipy.optimize import minimize

    rng = np.random.default_rng(5)
    options = {"xatol": 1e-5, "fatol": 1e-10, "maxiter": 400}
    for trial in range(80):
        a, c = rng.normal(size=3), rng.normal(size=2)
        lo = rng.uniform(-1, 0, 2)
        hi = lo + rng.uniform(0.5, 3, 2)
        funcs = [
            lambda v: (a[0] - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,  # Rosenbrock
            lambda v: np.inf if np.any(v < lo) or np.any(v > hi) else float(np.sum((v - c) ** 2)),
            lambda v: float(np.abs(v - c).sum() + np.sin(a[1] * v[0])),
            lambda v: float(np.cos(a[0] * v[0]) + a[1] * v[1] ** 2 + abs(a[2]) * v[0] ** 4),
        ]
        x0 = rng.normal(size=2) if trial % 5 else np.array([0.0, rng.normal()])
        for f in funcs:
            with np.errstate(invalid="ignore"):  # inf - inf in the stopping test
                want = minimize(f, x0=x0, method="Nelder-Mead", options=options)
                x, fun = negsim.analysis._nelder_mead(f, x0, **options)
            assert np.array_equal(x, want.x) and fun == want.fun, trial


def test_optimize_collapse_input_guards():
    ps = np.linspace(0.1, 0.3, 5)
    two = synthetic_collapse_curves(0.2, 1.0, [16, 32], ps, 0.0, 1)
    with pytest.raises(ValueError):
        optimize_collapse(two)
    dup = synthetic_collapse_curves(0.2, 1.0, [16, 32, 32], ps, 0.0, 1)
    with pytest.raises(ValueError):
        optimize_collapse(dup)


def test_optimize_collapse_rejects_non_straddling_data():
    # transition above the swept window: the optimum pins to the edge
    ps = np.linspace(0.10, 0.245, 7)
    for seed in (6, 7, 8):
        bad = synthetic_collapse_curves(0.27, 0.94, [40, 80, 120, 160], ps, 0.004, seed)
        with pytest.raises(ValueError, match="straddle"):
            optimize_collapse(bad)


# -- sweeps -------------------------------------------------------------------------


def test_cell_seed_distinct_and_stable():
    seeds = {
        _cell_seed(7, L, p) for L in (16, 32, 64, 128) for p in (0.0, 0.1, 0.15, 0.2)
    }
    assert len(seeds) == 16
    assert _cell_seed(7, 16, 0.1) == _cell_seed(7, 16, 0.1)
    assert _cell_seed(8, 16, 0.1) != _cell_seed(7, 16, 0.1)
    assert all(0 <= s < 2**63 for s in seeds)


def test_sweep_spec_configs():
    spec = SweepSpec(L_values=[4, 6], p_values=[0.1, 0.2], seed=3, samples=5, T=8)
    cfgs = spec.configs()
    assert len(cfgs) == 4
    assert {(c.L, c.p) for c in cfgs} == {(4, 0.1), (4, 0.2), (6, 0.1), (6, 0.2)}
    assert len({c.seed for c in cfgs}) == 4  # per-cell seeds
    assert all(c.samples == 5 and c.T == 8 for c in cfgs)
    with pytest.raises(ValueError):
        SweepSpec(L_values=[], p_values=[0.1])
    with pytest.raises(ValueError, match="L must be even"):
        SweepSpec(L_values=[4, 5], p_values=[0.1])  # cells are checked up front
    with pytest.raises(ValueError, match="schedule"):
        SweepSpec(L_values=[4], p_values=[0.1], dephasing_schedule="bogus")
    with pytest.raises(ValueError, match="seed must be >= 0"):  # as CircuitConfig says
        SweepSpec(L_values=[4], p_values=[0.1], seed=-1)


def test_sweep_spec_rejects_repeated_cells():
    # a repeated value ran the same cell twice under one seed and wrote it
    # twice; p values are keyed by their 9-digit form, so 0.1 + 1e-12 is 0.1
    for L_values, p_values in [([4, 4], [0.1]), ([4, 6], [0.1, 0.2, 0.1]),
                               ([4], [0.1, 0.1 + 1e-12])]:
        with pytest.raises(ValueError, match="must not repeat|must differ"):
            SweepSpec(L_values=L_values, p_values=p_values, samples=2, T=4)
    assert len(SweepSpec(L_values=[4], p_values=[0.1, 0.1 + 1e-8], samples=2, T=4).configs()) == 2


@pytest.mark.parametrize("key,value", [
    ("L_values", [4, 6.0]), ("p_values", [0.1, "0.2"]), ("L_values", 4), ("seed", 1.5),
    ("samples", 2.5), ("T", 4.0), ("observables_every", 2.5),
])
def test_sweep_spec_rejects_wrong_types_at_construction(key, value):
    with pytest.raises(ValueError, match=rf"^{key}(\[\d+\])? must be"):
        SweepSpec(**{"L_values": [4], "p_values": [0.1], key: value})


def test_run_sweep_logs_one_line_per_cell(caplog):
    spec = SweepSpec(L_values=[4, 6], p_values=[0.1, 0.2], seed=1, samples=1, T=4)
    with caplog.at_level(logging.INFO, logger="negsim.analysis"):
        run_sweep(spec)
    records = [r for r in caplog.records if r.name == "negsim.analysis"]
    assert len(records) == 4
    assert records[0].getMessage().startswith("cell 1/4 L=4 p=0.1:")
    assert all(r.levelno == logging.INFO for r in records)
    etas = [re.search(r"elapsed [0-9.]+ s, eta ([0-9.]+) s\)$", r.getMessage()) for r in records]
    assert all(etas)
    assert float(etas[-1].group(1)) == 0.0


def test_run_sweep_and_csv_round_trip(tmp_path):
    spec = SweepSpec(
        L_values=[4, 6], p_values=[0.1, 0.3], seed=11, samples=3, T=8,
        observables_every=2,
    )
    result = run_sweep(spec)
    assert len(result.cells) == 4
    cell = result.cell(6, 0.3)
    assert cell.samples == 3
    with pytest.raises(KeyError):
        result.cell(8, 0.1)
    pts = result.fit_points("E", 0.1)
    assert [p[0] for p in pts] == [4, 6]

    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    text = path.read_text()
    assert text.startswith("# config_hash=")
    rows = read_sweep_csv(path)
    assert len(rows) == 4 * 6  # cells x observables
    by_key = {(r["L"], r["p"], r["observable"]): r for r in rows}
    for c in result.cells:
        for name, value in c.late_mean.items():
            row = by_key[(c.L, c.p, name)]
            assert row["late_mean"] == pytest.approx(value, rel=1e-8, abs=1e-8)
            assert row["stationary"] == c.stationary

    curves = sweep_rows_to_curves(rows, "E")
    assert [c.L for c in curves] == [4, 6]
    assert curves[0].p.tolist() == [0.1, 0.3]


def test_sweep_csv_header_ignores_sequence_type(tmp_path):
    headers = set()
    for L_values, p_values in (
        ([8, 12], [0.1, 0.2]),
        ((8, 12), (0.1, 0.2)),
        (np.array([8, 12]), np.array([0.1, 0.2])),
    ):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(SweepResult(SweepSpec(L_values, p_values, seed=11, samples=4), []), path)
        headers.add(path.read_text().split("\n")[0])
    assert headers == {
        '# config_hash=3b54cadac500 config={"L_values": [8, 12], "T": null, '
        '"dephasing_schedule": "boundary_even_steps", "observables_every": 1, '
        '"p_values": [0.1, 0.2], "samples": 4, "seed": 11}'
    }


def test_read_sweep_csv_names_file_and_line(tmp_path):
    path = tmp_path / "sweep.csv"
    header = "L,p,observable,late_mean,late_stderr,samples,stationary"
    path.write_text(f"# comment\n{header}\n4,0.1,E,0.5,0.1,3,1\n4,0.2,E,0.5\n")
    with pytest.raises(ValueError, match=f"{path}:4: 4 fields, header has 7"):
        read_sweep_csv(path)
    path.write_text(f"{header}\n4,0.1,E,half,0.1,3,1\n")
    with pytest.raises(ValueError, match=f"{path}:2: could not convert"):
        read_sweep_csv(path)
    path.write_text("L,p,observable,late_mean\n")
    with pytest.raises(ValueError, match=r":1: header lacks columns \['late_stderr'"):
        read_sweep_csv(path)


def test_sweep_result_curves_match_cells():
    spec = SweepSpec(L_values=[4], p_values=[0.1, 0.2, 0.4], seed=2, samples=2, T=6)
    result = run_sweep(spec)
    (curve,) = result.curves("I")
    assert curve.p.tolist() == [0.1, 0.2, 0.4]
    assert curve.y[0] == result.cell(4, 0.1).late_mean["I"]


# -- figure pipelines ----------------------------------------------------------------


def test_reproduce_figure_rejects_unknown_names(tmp_path):
    with pytest.raises(ValueError):
        reproduce_figure("fig9", out_dir=tmp_path)
    with pytest.raises(ValueError):
        reproduce_figure("fig1b", scale="huge", out_dir=tmp_path)


def test_reproduce_scaling_figures_tiny(tmp_path, monkeypatch):
    monkeypatch.setitem(
        _FIG_SCALES["fig1b"], "desk", dict(L=[4, 6], p=[0.1, 0.2], samples=2)
    )
    monkeypatch.setitem(
        _FIG_SCALES["fig1b_inset"], "desk", dict(L=[4, 6, 8], p=[0.1], samples=2)
    )
    paths = reproduce_figure("fig1b", scale="desk", out_dir=str(tmp_path), seed=1)
    assert len(paths) == 1
    lines = open(paths[0]).read().strip().split("\n")
    assert lines[0].startswith("# figure=fig1b scale=desk")
    assert lines[1] == "L,p,mean_E,stderr_E"
    assert len(lines) == 2 + 4

    paths = reproduce_figure("fig1b_inset", scale="desk", out_dir=str(tmp_path), seed=1)
    names = {p.split("/")[-1] for p in paths}
    assert names == {"fig1b_inset_desk_curves.csv", "fig1b_inset_desk_fit.csv"}
    fit_lines = open(sorted(paths)[1]).read().strip().split("\n")
    assert fit_lines[1] == "c1,c2,r_squared"
    assert len(fit_lines[2].split(",")) == 3


@pytest.fixture
def pools(monkeypatch):
    """The process pools negsim.analysis starts, in order."""
    started = []

    def counting_pool(*args, **kwargs):
        pool = real(*args, **kwargs)
        started.append(pool)
        return pool

    # negsim imports the pool class only where a pool starts
    real = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    return started


def test_run_sweep_starts_one_pool_for_all_cells(pools):
    spec = SweepSpec(L_values=[4, 6], p_values=[0.1, 0.3], seed=5, samples=4, T=8)
    parallel = run_sweep(spec, threads=2)
    assert len(pools) == 1
    serial = run_sweep(spec)
    assert len(pools) == 1
    assert [c.late_mean for c in parallel.cells] == [c.late_mean for c in serial.cells]
    assert [c.late_stderr for c in parallel.cells] == [c.late_stderr for c in serial.cells]


def test_reproduce_fig3_uses_threads(tmp_path, monkeypatch, pools):
    monkeypatch.setitem(_FIG_SCALES["fig3"], "desk", dict(L=8, samples=4))
    (serial,) = reproduce_figure("fig3", out_dir=str(tmp_path / "serial"), seed=4)
    assert pools == []
    (parallel,) = reproduce_figure("fig3", out_dir=str(tmp_path / "parallel"), seed=4, threads=2)
    assert len(pools) == 1
    assert open(parallel).read() == open(serial).read()


def test_reproduce_fig3_tiny(tmp_path, monkeypatch):
    monkeypatch.setitem(_FIG_SCALES["fig3"], "desk", dict(L=8, samples=2))
    (path,) = reproduce_figure("fig3", scale="desk", out_dir=str(tmp_path), seed=4)
    lines = open(path).read().strip().split("\n")
    assert lines[1] == "series,length,mean_count"
    series = {row.split(",")[0] for row in lines[2:]}
    assert series == {"with_baths", "without_baths"}
    for row in lines[2:]:
        _, length, count = row.split(",")
        assert 1 <= int(length) <= 8
        assert float(count) > 0
