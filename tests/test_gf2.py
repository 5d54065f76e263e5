"""GF(2) kernel checks against brute-force row-space enumeration."""

import numpy as np

from negsim.gf2 import (
    bits_to_int_rows,
    in_rowspan,
    parity_matmul,
    rank_int_rows,
    solve_int_rows,
)


def brute_rowspan(rows):
    span = set()
    for mask in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= row
        span.add(acc)
    return span


def test_rank_matches_rowspan_size():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_rows = int(rng.integers(0, 9))
        width = int(rng.integers(1, 12))
        rows = [int(rng.integers(0, 1 << width)) for _ in range(n_rows)]
        rank = rank_int_rows(rows)
        assert 1 << rank == len(brute_rowspan(rows))


def test_rank_edge_cases():
    assert rank_int_rows([]) == 0
    assert rank_int_rows([0, 0]) == 0
    assert rank_int_rows([1, 2, 3]) == 2  # third row is the sum of the first two


def test_solve_returns_exact_combination():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n_rows = int(rng.integers(1, 10))
        width = int(rng.integers(1, 16))
        rows = [int(rng.integers(0, 1 << width)) for _ in range(n_rows)]
        combo_true = int(rng.integers(0, 1 << n_rows))
        target = 0
        for i in range(n_rows):
            if (combo_true >> i) & 1:
                target ^= rows[i]
        combo = solve_int_rows(rows, target)
        assert combo is not None
        acc = 0
        for i in range(n_rows):
            if (combo >> i) & 1:
                acc ^= rows[i]
        assert acc == target


def test_solve_detects_outside_span():
    rows = [0b0011, 0b0110]
    span = brute_rowspan(rows)
    for target in range(16):
        combo = solve_int_rows(rows, target)
        if target in span:
            assert combo is not None
        else:
            assert combo is None
        assert in_rowspan(rows, target) == (target in span)


def test_bits_to_int_rows_round_trip():
    rng = np.random.default_rng(2)
    bits = (rng.integers(0, 2, size=(7, 19))).astype(np.uint8)
    ints = bits_to_int_rows(bits)
    for r in range(7):
        for c in range(19):
            assert (ints[r] >> c) & 1 == bits[r, c]


def test_bits_to_int_rows_degenerate_shapes():
    assert bits_to_int_rows(np.zeros((3, 0), dtype=np.uint8)) == [0, 0, 0]
    assert bits_to_int_rows(np.array([1, 0, 1], dtype=np.uint8)) == [0b101]


def test_parity_matmul_matches_integer_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, k, n = rng.integers(1, 40, size=3)
        a = rng.integers(0, 2, size=(m, k)).astype(np.uint8)
        b = rng.integers(0, 2, size=(k, n)).astype(np.uint8)
        expect = (a.astype(np.int64) @ b.astype(np.int64)) % 2
        got = parity_matmul(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expect.astype(np.uint8))
