"""Permutation algebra, directed-polymer DP, and domain-wall free energies."""

import itertools
import warnings

import numpy as np
import pytest

from negsim import polymer
from negsim.channels import make_rng
from negsim.polymer import (
    SAMPLE_CHUNK,
    PathQuery,
    Permutation,
    PolymerLattice,
    block_cyclic,
    cayley_distance,
    domain_wall_negativity,
    enumerate_path_energies,
    find_intermediate_D,
    kpz_scan,
    min_path_energy,
)


def random_permutation(r, rng):
    perm = np.arange(r)
    rng.shuffle(perm)
    return Permutation(tuple(int(v) for v in perm))


# -- permutations ---------------------------------------------------------------


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert p.compose(q).mapping == (1, 0, 2)  # p after q
    assert p.inverse().compose(p) == Permutation.identity(3)
    assert p.num_cycles() == 1
    assert Permutation.identity(4).num_cycles() == 4
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        p.compose(Permutation.identity(4))


def test_cayley_distance_is_a_left_invariant_metric():
    rng = make_rng(5)
    perms = [random_permutation(6, rng) for _ in range(12)]
    ident = Permutation.identity(6)
    for a in perms:
        assert cayley_distance(a, a) == 0
        assert cayley_distance(a, ident) == cayley_distance(ident, a)
    for a, b in itertools.combinations(perms, 2):
        d = cayley_distance(a, b)
        assert d == cayley_distance(b, a)
        assert d >= 1
        g = perms[0]
        assert cayley_distance(g.compose(a), g.compose(b)) == d
    for a, b, c in itertools.combinations(perms, 3):
        assert cayley_distance(a, c) <= cayley_distance(a, b) + cayley_distance(b, c)


def test_cayley_distance_counts_transpositions_exhaustively():
    # minimal transposition count via BFS agrees on all of S_4
    ident = Permutation.identity(4)
    swaps = [
        Permutation(tuple(j if j not in (i1, i2) else (i2 if j == i1 else i1) for j in range(4)))
        for i1, i2 in itertools.combinations(range(4), 2)
    ]
    depth = {ident.mapping: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for s in swaps:
                q = p.compose(s)
                if q.mapping not in depth:
                    depth[q.mapping] = depth[p.mapping] + 1
                    nxt.append(q)
        frontier = nxt
    for mapping, d in depth.items():
        assert cayley_distance(ident, Permutation(mapping)) == d


def test_block_cyclic_structure():
    c = block_cyclic(3, 2)
    assert c.mapping == (1, 2, 0, 4, 5, 3, 6)  # two 3-cycles plus a fixed point
    cbar = block_cyclic(3, 2, inverse=True)
    assert c.compose(cbar) == Permutation.identity(7)
    ident = Permutation.identity(7)
    assert cayley_distance(ident, c) == 2 * (3 - 1)  # k (n - 1)
    with pytest.raises(ValueError):
        block_cyclic(0, 1)


@pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (4, 2), (6, 1), (6, 2), (8, 1)])
def test_cyclic_boundary_distances_even_n(n, k):
    # C^-1 Cbar = C^-2 blockwise; for even n each squared n-cycle splits into
    # two (n/2)-cycles, giving |C^-1 Cbar| = k (n - 2)
    c = block_cyclic(n, k)
    cbar = block_cyclic(n, k, inverse=True)
    ident = Permutation.identity(n * k + 1)
    assert cayley_distance(ident, c) == k * (n - 1)
    assert cayley_distance(ident, cbar) == k * (n - 1)
    assert cayley_distance(c, cbar) == k * (n - 2)


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (6, 1)])
def test_intermediate_element_witness(n, k):
    d = find_intermediate_D(n, k)
    assert d is not None
    c = block_cyclic(n, k)
    cbar = block_cyclic(n, k, inverse=True)
    ident = Permutation.identity(n * k + 1)
    assert cayley_distance(ident, d) == k * n // 2
    assert cayley_distance(c, d) == k * (n // 2 - 1)
    assert cayley_distance(cbar, d) == k * (n // 2 - 1)
    # D sits on a geodesic between the two boundary elements
    assert cayley_distance(c, d) + cayley_distance(d, cbar) == cayley_distance(c, cbar)


def test_intermediate_element_degenerate_and_guards():
    # n = 2: C and Cbar coincide and D = C satisfies the length constraints
    d = find_intermediate_D(2, 2)
    assert d == block_cyclic(2, 2)
    with pytest.raises(ValueError):
        find_intermediate_D(3, 1)
    with pytest.raises(ValueError):
        find_intermediate_D(10, 1)


# -- polymer DP -------------------------------------------------------------------


def test_lattice_sampling_and_validation():
    lat = PolymerLattice.sample(8, 0.3, 42)
    assert lat.measured.shape == (8, 5, 2)
    assert lat.height == 4
    again = PolymerLattice.sample(8, 0.3, 42)
    assert np.array_equal(lat.measured, again.measured)
    with pytest.raises(ValueError):
        PolymerLattice.sample(8, 1.5, 0)
    with pytest.raises(ValueError):
        PolymerLattice(4, 2, np.zeros((4, 2, 2), dtype=bool), 0.1)
    # ints and uint8 ones are no "measured" flags: they gave energies -4 and 1016
    for measured in (np.zeros((4, 3, 2), dtype=int), np.ones((4, 3, 2), dtype=np.uint8)):
        with pytest.raises(ValueError):
            PolymerLattice(4, 2, measured, 0.1)


@pytest.mark.parametrize("chunk", [SAMPLE_CHUNK, 7])
@pytest.mark.parametrize(
    "width, height, p",
    [(8, 4, 0.3), (300, 7, 0.1), (256, 255, 0.5), (512, 255, 0.0), (1000, 600, 0.1), (40, 61, 1.0)],
)
def test_chunked_sampler_matches_one_shot_draw(numpy_path, monkeypatch, chunk, width, height, p):
    # (256, 255) and (512, 255) draw exactly one and two full chunks of
    # 2^17 doubles, (1000, 600) nine and a part; with chunk 7 all are uneven.
    # The row kernel would draw these PCG64 bonds without chunks.
    monkeypatch.setattr(polymer, "SAMPLE_CHUNK", chunk)
    rng, ref = make_rng(width), make_rng(width)
    lat = PolymerLattice.sample(width, p, rng, height=height)
    assert np.array_equal(lat.measured, ref.random((width, height + 1, 2)) < p)
    assert rng.random() == ref.random()


def test_integer_inputs_are_checked_at_construction():
    # these constructed, then failed in the DPs (TypeError, ctypes'
    # ArgumentError) or, for False, meant 0
    for args in [(0, 4.0), (0.0, 4), (False, 4), (0, True), (np.bool_(False), 4), ("0", 4)]:
        with pytest.raises(ValueError, match="must be an integer"):
            PathQuery(*args)
    assert PathQuery(np.int64(0), np.int32(4)).span == 4
    measured = np.zeros((8, 5, 2), dtype=bool)
    for width, height in [(8.0, 4), (8, 4.0), (True, 4), (8, np.bool_(True))]:
        with pytest.raises(ValueError, match="must be an integer"):
            PolymerLattice(width, height, measured, 0.1)
    # sample checks before it allocates or draws: a rejected call leaves rng
    rng = make_rng(0)
    before = rng.bit_generator.state
    for width, height in [(8.0, None), (8, 4.0), (True, None), (8, False), ("8", None),
                          (0, None), (8, -1)]:
        with pytest.raises(ValueError, match="must be an integer|bad lattice dimensions"):
            PolymerLattice.sample(width, 0.1, rng, height=height)
    assert rng.bit_generator.state == before
    assert PolymerLattice.sample(np.int64(8), 0.1, rng, height=np.int32(2)).measured.shape == (8, 3, 2)


def test_bool_p_is_not_a_probability(both_paths):
    # True compared as 1: an all-measured lattice with lat.p = True, and a
    # scan that answered the degenerate p = 1 case; the constructor took
    # these, and 5.0, without a check
    rng = make_rng(0)
    before = rng.bit_generator.state
    measured = np.zeros((8, 5, 2), dtype=bool)
    for p in (True, False, np.bool_(True), np.bool_(False), -0.1, 1.5, 5.0, float("nan")):
        with pytest.raises(ValueError, match="p must be a number"):
            PolymerLattice.sample(8, p, rng)
        with pytest.raises(ValueError, match="p must be a number"):
            kpz_scan([8, 16], p, 3, rng)
        with pytest.raises(ValueError, match="p must be a number"):
            PolymerLattice(8, 4, measured, p)
    assert rng.bit_generator.state == before
    for p in (0, 1, np.float32(0.5), np.int64(1)):
        assert PolymerLattice.sample(8, p, rng).p == p
        assert PolymerLattice(8, 4, measured, p).p == p


def test_query_validation():
    lat = PolymerLattice.sample(8, 0.2, 1)
    with pytest.raises(ValueError):
        PathQuery(3, 3)
    with pytest.raises(ValueError):
        min_path_energy(lat, PathQuery(0, 3))  # odd span
    with pytest.raises(ValueError):
        min_path_energy(lat, PathQuery(0, 10))  # out of range


def test_clean_lattice_energy_equals_span():
    lat = PolymerLattice.sample(12, 0.0, 3)
    for span in (2, 6, 12):
        energy, path = min_path_energy(lat, PathQuery(0, span))
        assert energy == span
        assert path[0] == (0, 0) and path[-1] == (span, 0)


def test_fully_measured_lattice_is_free():
    lat = PolymerLattice.sample(12, 1.0, 3)
    energy, _ = min_path_energy(lat, PathQuery(0, 12))
    assert energy == 0.0


def test_dp_matches_exhaustive_enumeration():
    rng = make_rng(17)
    for trial in range(40):
        width = int(rng.integers(2, 13)) * 2 // 2
        width += width % 2  # keep spans even
        p = float(rng.random())
        lat = PolymerLattice.sample(width, p, rng)
        q = PathQuery(0, width)
        energies = enumerate_path_energies(lat, q)
        best, path = min_path_energy(lat, q)
        assert best == min(energies)
        # returned path is feasible and reproduces the reported energy
        cost = 0.0
        for (x0, y0), (x1, y1) in zip(path, path[1:]):
            assert x1 == x0 + 1 and abs(y1 - y0) == 1 and y1 <= 0
            step = 0 if y1 < y0 else 1
            cost += 0.0 if lat.measured[x0, -y0, step] else 1.0
        assert cost == best


def optimal_depth_sequences(lat, q):
    """Every depth sequence of a least-energy path, by exhaustive search."""
    best, found = None, []

    def walk(x, depths, cost):
        nonlocal best, found
        d = depths[-1]
        if x == q.x_end:
            if d == 0 and (best is None or cost <= best):
                found = found + [depths] if cost == best else [depths]
                best = cost
            return
        for step, nd in ((0, d + 1), (1, d - 1)):
            if 0 <= nd <= min(lat.height, q.x_end - x - 1):
                walk(x + 1, depths + [nd], cost + (0 if lat.measured[x, d, step] else 1))

    walk(q.x_start, [0], 0)
    return best, found


@pytest.mark.parametrize("width", [2, 7, 12])
def test_path_dp_matches_enumeration_and_forward_dp_on_sub_spans(both_paths, width):
    # every height from 0 (no path) up, every sub-span: the energy equals the
    # exhaustive minimum and _min_energy's, the path is the lexicographically
    # smallest optimal depth sequence, and infeasible queries fail alike
    rng = make_rng(300 + width)
    for height in range(width // 2 + 2):
        lat = PolymerLattice.sample(width, float(rng.choice([0.0, 1.0, rng.random()])), rng,
                                    height=height)
        for a in range(width):
            for b in range(a + 1, width + 1):
                q = PathQuery(a, b)
                best, optimal = optimal_depth_sequences(lat, q)
                if best is None:
                    for dp in (min_path_energy, polymer._min_energy):
                        with pytest.raises(ValueError):
                            dp(lat, q)
                    continue
                energy, path = min_path_energy(lat, q)
                assert energy == best == min(enumerate_path_energies(lat, q))
                assert energy == polymer._min_energy(lat, q)
                assert [x for x, _ in path] == list(range(a, b + 1))
                assert [-y for _, y in path] == min(optimal)


def test_tie_break_prefers_shallow_then_left():
    # no measured bonds: every path costs span, and the winner must hug y = 0
    lat = PolymerLattice.sample(6, 0.0, 0)
    _, path = min_path_energy(lat, PathQuery(0, 6))
    assert path == [(0, 0), (1, -1), (2, 0), (3, -1), (4, 0), (5, -1), (6, 0)]


def test_energy_unit_scaling():
    lat = PolymerLattice.sample(6, 0.0, 0, energy_unit=np.log(2.0))
    energy, _ = min_path_energy(lat, PathQuery(0, 6))
    assert abs(energy - 6 * np.log(2.0)) < 1e-12


def test_height_cap_forbids_long_spans():
    lat = PolymerLattice.sample(8, 0.5, 2, height=1)
    energy, _ = min_path_energy(lat, PathQuery(0, 2))
    assert energy >= 0.0
    with pytest.raises(ValueError):
        # span 8 needs depth up to 4 for some paths, but depth 1 still admits
        # zig-zag paths, so this must not raise; use height 0 to forbid all
        min_path_energy(PolymerLattice.sample(8, 0.5, 2, height=0), PathQuery(0, 2))


# -- domain walls -----------------------------------------------------------------


def test_domain_wall_nonnegative_and_zero_on_clean_lattice():
    clean = PolymerLattice.sample(16, 0.0, 9)
    res = domain_wall_negativity(clean)
    assert res.negativity == 0.0  # E_A + E_B = E_AB exactly at p = 0
    rng = make_rng(23)
    for trial in range(60):
        lat = PolymerLattice.sample(16, float(rng.uniform(0.05, 0.9)), rng)
        res = domain_wall_negativity(lat)
        assert res.negativity >= 0.0
        assert res.mi_analogue == 2.0 * res.negativity


def test_domain_wall_brute_force_equality():
    rng = make_rng(31)
    for trial in range(25):
        lat = PolymerLattice.sample(8, 0.4, rng)
        res = domain_wall_negativity(lat)
        e_a = min(enumerate_path_energies(lat, PathQuery(0, 4)))
        e_b = min(enumerate_path_energies(lat, PathQuery(4, 8)))
        e_ab = min(enumerate_path_energies(lat, PathQuery(0, 8)))
        assert res.energies == (e_a, e_b, e_ab)
        assert res.negativity == 0.5 * (e_a + e_b - e_ab)


def test_domain_wall_geometric_lengths_vanish():
    lat = PolymerLattice.sample(12, 0.5, 7)
    res = domain_wall_negativity(lat, lengths="geometric")
    assert res.negativity == 0.0
    assert res.energies == (6.0, 6.0, 12.0)
    with pytest.raises(ValueError):
        domain_wall_negativity(lat, lengths="typo")


def test_domain_wall_split_validation():
    lat = PolymerLattice.sample(10, 0.3, 1)
    with pytest.raises(ValueError):
        domain_wall_negativity(lat)  # width % 4 != 0
    res = domain_wall_negativity(lat, halves=((0, 4), (4, 10)))
    assert res.negativity >= 0.0
    with pytest.raises(ValueError):
        domain_wall_negativity(lat, halves=((0, 4), (6, 10)))


# -- KPZ ----------------------------------------------------------------------------


def test_kpz_scan_degenerate_limits():
    clean = kpz_scan([4, 8, 16], 0.0, samples=5, rng=1)
    assert clean.degenerate is not None
    assert np.array_equal(clean.mean_energy, [4.0, 8.0, 16.0])
    assert not clean.var_energy.any()
    free = kpz_scan([4, 8, 16], 1.0, samples=5, rng=1)
    assert free.degenerate is not None
    assert not free.mean_energy.any()


def test_kpz_scan_enforces_the_exact_law(monkeypatch):
    # an explicit raise, which python -O keeps
    monkeypatch.setattr(polymer, "_min_energy", lambda lat, q: q.span - 2)
    with pytest.raises(AssertionError, match="exact law"):
        kpz_scan([4, 8], 0.0, samples=2, rng=1)
    monkeypatch.setattr(polymer, "_min_energy", lambda lat, q: 1)
    with pytest.raises(AssertionError, match="exact law"):
        kpz_scan([4, 8], 1.0, samples=2, rng=1)


def test_kpz_scan_validation():
    with pytest.raises(ValueError):
        kpz_scan([3, 8], 0.1, samples=2, rng=0)
    with pytest.raises(ValueError):
        kpz_scan([], 0.1, samples=2, rng=0)
    # no variance from one sample, no two-parameter fit to one width
    for widths, samples in (([8, 16, 32], 1), ([8, 16, 32], 0), ([16], 5), ([8, 8, 16], 3)):
        with pytest.raises(ValueError):
            kpz_scan(widths, 0.3, samples=samples, rng=3)
    # an int64 cast would cut these to a scan of widths [4, 8] or 2 samples
    for widths, samples in (([4.5, 8], 4), ([8.0, 16], 4), ([8, 16], 2.5), ([8, 16], np.float64(4))):
        with pytest.raises(ValueError, match="must be an integer"):
            kpz_scan(widths, 0.3, samples=samples, rng=1)


def test_kpz_scan_zero_variance_width_leaves_the_variance_fit_out():
    # both width-16 samples of this seed have energy 8: log(0) gave a NaN
    # slope, r2_var = 1.0 and three RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = kpz_scan([16, 32], 0.3, 2, 1)
    assert scan.var_energy[0] == 0 and scan.var_energy[1] > 0
    assert scan.degenerate is not None and "[16]" in scan.degenerate
    assert scan.two_beta is None and scan.var_amplitude is None and scan.r2_var is None
    assert scan.s0 is not None and scan.s1 is not None and scan.r2_mean is not None


def test_kpz_scan_fits_small():
    scan = kpz_scan([8, 16, 32, 64], 0.1, samples=30, rng=make_rng(3))
    assert scan.s0 > 0.0
    assert scan.r2_mean >= scan.r2_mean_linear
    assert scan.two_beta is not None
    assert (scan.mean_energy[1:] > scan.mean_energy[:-1]).all()


# The tests of _min_energy's callers again with the compiled row kernel off,
# which runs its numpy DP.


def test_domain_wall_nonnegative_on_numpy_path(numpy_path):
    test_domain_wall_nonnegative_and_zero_on_clean_lattice()


def test_domain_wall_brute_force_on_numpy_path(numpy_path):
    test_domain_wall_brute_force_equality()


def test_domain_wall_split_validation_on_numpy_path(numpy_path):
    test_domain_wall_split_validation()


def test_kpz_scan_degenerate_limits_on_numpy_path(numpy_path):
    test_kpz_scan_degenerate_limits()


def test_kpz_scan_fits_small_on_numpy_path(numpy_path):
    test_kpz_scan_fits_small()


def test_disorder_statistics_match_bernoulli():
    # bond ensemble sanity: measured fraction within 5 sigma, bonds uncorrelated
    lat = PolymerLattice.sample(200, 0.3, 11, height=100)
    flat = lat.measured.ravel().astype(np.float64)
    n = flat.size
    assert abs(flat.mean() - 0.3) < 5.0 * np.sqrt(0.3 * 0.7 / n)
    pair = (flat[:-1] * flat[1:]).mean()
    assert abs(pair - 0.09) < 5.0 * np.sqrt(0.09 * (1 - 0.09) / n)
