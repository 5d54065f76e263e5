"""Effective statistical-mechanics model: permutation domain walls and the
directed polymer in measurement disorder.

Permutations carry the domain-wall algebra (Cayley metric, block-cyclic
boundary elements, the intermediate element behind the negativity-to-entropy
crossover). The polymer side is a directed path on a tilted half-plane
lattice: one x-step per column, y -> y +- 1, y <= 0, pinned to y = 0 at both
endpoints. Unmeasured bonds cost one unit, measured bonds are free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import rowkernel
from .channels import _check_integers, _check_probability, make_rng

__all__ = [
    "Permutation",
    "cayley_distance",
    "block_cyclic",
    "find_intermediate_D",
    "PolymerLattice",
    "PathQuery",
    "min_path_energy",
    "enumerate_path_energies",
    "DomainWallResult",
    "domain_wall_negativity",
    "KpzScan",
    "kpz_scan",
]


# -- permutation algebra -------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """One-line form: element i maps to mapping[i] (0-based)."""

    mapping: Tuple[int, ...]

    def __post_init__(self):
        r = len(self.mapping)
        if sorted(self.mapping) != list(range(r)):
            raise ValueError("mapping is not a bijection")

    @property
    def size(self) -> int:
        return len(self.mapping)

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(tuple(range(r)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.mapping[j] for j in other.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    def num_cycles(self) -> int:
        seen = [False] * self.size
        cycles = 0
        for i in range(self.size):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.mapping[j]
        return cycles


def cayley_distance(a: Permutation, b: Permutation) -> int:
    """Minimal transposition count |a^-1 b| = r - #cycles(a^-1 b)."""
    if a.size != b.size:
        raise ValueError("size mismatch")
    return a.size - a.inverse().compose(b).num_cycles()


def block_cyclic(n: int, k: int, inverse: bool = False) -> Permutation:
    """k blocks of an n-cycle plus one fixed point, on r = nk + 1 elements."""
    if n < 1 or k < 1:
        raise ValueError("need n, k >= 1")
    mapping = list(range(n * k + 1))
    for block in range(k):
        base = block * n
        for j in range(n):
            step = -1 if inverse else 1
            mapping[base + j] = base + (j + step) % n
    return Permutation(tuple(mapping))


def _weight(p: Permutation) -> int:
    return p.size - p.num_cycles()


def find_intermediate_D(n: int, k: int) -> Optional[Permutation]:
    """Search for D with |C^-1 D| = |Cbar^-1 D| = k(n/2 - 1) and |D| = kn/2.

    Such a D sits on geodesics from both cyclic boundary elements and halves
    the wall tension. Exhaustive over S_r for r <= 7; for r in {8, 9} the
    search is restricted to block-preserving candidates (each block permuted
    within itself), which is where any witness lives since the criteria are
    block-local.
    """
    if n % 2:
        raise ValueError("n must be even")
    r = n * k + 1
    if r > 9:
        raise ValueError("brute-force bound is r <= 9")
    c = block_cyclic(n, k)
    cbar = block_cyclic(n, k, inverse=True)
    want_side = k * (n // 2 - 1)
    want_d = k * n // 2
    c_inv, cbar_inv = c.inverse(), cbar.inverse()

    def good(d: Permutation) -> bool:
        return (
            _weight(d) == want_d
            and _weight(c_inv.compose(d)) == want_side
            and _weight(cbar_inv.compose(d)) == want_side
        )

    if r <= 7:
        for perm in itertools.permutations(range(r)):
            d = Permutation(perm)
            if good(d):
                return d
        return None

    fixed = r - 1
    for parts in itertools.product(itertools.permutations(range(n)), repeat=k):
        mapping = list(range(r))
        for block, part in enumerate(parts):
            base = block * n
            for j, image in enumerate(part):
                mapping[base + j] = base + image
        mapping[fixed] = fixed
        d = Permutation(tuple(mapping))
        if good(d):
            return d
    return None


# -- polymer lattice -----------------------------------------------------------

SAMPLE_CHUNK = 1 << 17  # doubles per draw in PolymerLattice.sample (1 MB)


def _check_dimensions(width, height) -> None:
    _check_integers(width=width, height=height)
    if width < 1 or height < 0:
        raise ValueError("bad lattice dimensions")


@dataclass
class PolymerLattice:
    """Quenched bond disorder on the tilted half-plane lattice.

    measured[x, d, s] is the bond leaving column x at depth d (= -y), going
    down to depth d+1 (s = 0) or up to depth d-1 (s = 1). A pinned lattice
    holds only the bonds a path from (0, 0) to (width, 0) can visit (see
    sample), and answers only queries from even columns.
    """

    width: int
    height: int
    measured: np.ndarray
    p: float
    energy_unit: float = 1.0
    pinned: bool = False

    def __post_init__(self):
        _check_dimensions(self.width, self.height)
        _check_probability(p=self.p)
        if self.measured.shape != (self.width, self.height + 1, 2):
            raise ValueError("measured array shape mismatch")
        if self.measured.dtype != np.bool_:
            raise ValueError("measured must be a bool array")

    @classmethod
    def sample(
        cls,
        width: int,
        p: float,
        rng,
        height: Optional[int] = None,
        energy_unit: float = 1.0,
        *,
        pinned: bool = False,
    ) -> "PolymerLattice":
        """I.i.d. Bernoulli(p) bonds; rng may be a Generator or a seed.

        The bonds are rng.random((width, height + 1, 2)) < p: the same
        doubles in the same order, and the same state of rng afterwards, on
        either path. With pinned, only the bonds a path from (0, 0) to
        (width, 0) can visit are kept, bond (x, d, s) with d <= min(x,
        width - x, height) and d = x mod 2, each as the full draw makes it;
        every other bond is False, and rng still ends in the full draw's
        state. Every PathQuery with an even x_start then has the full
        lattice's energy and path, kpz_scan's (0, width) and
        domain_wall_negativity's halves among them.

        When the row kernel is built and rng runs on numpy's PCG64
        (make_rng's and default_rng's bit generator), the kernel steps
        PCG64 itself and writes each bond without making its double
        (rowkernel.draw_bonds); pinned, it draws only each column's
        reachable prefix, at the column's parity, and jumps PCG64 over the
        rest. A lattice of 2^20 bonds or more is drawn in groups of whole
        columns (of bonds when not pinned) on up to one thread per core (at
        most 8), each started from its exact PCG64 state by jump-ahead,
        with the same bits, and no thread outlives the call. On a CPU with
        AVX-512 the kernel draws 16 PCG64 lanes at a time, again with the
        same bits. Every other bit generator, and a build without a
        compiler, draws the doubles in chunks of SAMPLE_CHUNK, so that no
        full-size float array exists, and pinned then clears the other
        bonds with one mask. p and the dimensions are checked before
        anything is drawn; a bool p, and one that is not a number, is
        rejected.
        """
        _check_probability(p=p)
        _check_dimensions(width, 0 if height is None else height)
        if not isinstance(rng, np.random.Generator):
            rng = make_rng(rng)
        if height is None:
            height = width // 2
        measured = np.empty((width, height + 1, 2), dtype=bool)
        if rowkernel.LIB is not None and type(rng.bit_generator) is np.random.PCG64:
            rowkernel.draw_bonds(rng, p, measured, pinned)
        else:
            flat = measured.reshape(-1)
            buf = np.empty(min(SAMPLE_CHUNK, flat.size))
            for start in range(0, flat.size, SAMPLE_CHUNK):
                chunk = buf[: flat.size - start]
                rng.random(out=chunk)
                np.less(chunk, p, out=flat[start : start + chunk.size])
            if pinned:
                x, d = np.arange(width)[:, None], np.arange(height + 1)
                measured &= ((d <= np.minimum(x, width - x)) & ((d & 1) == (x & 1)))[:, :, None]
        return cls(width, height, measured, p, energy_unit, pinned)


@dataclass(frozen=True)
class PathQuery:
    """Endpoints on the top boundary (y = 0)."""

    x_start: int
    x_end: int

    def __post_init__(self):
        _check_integers(x_start=self.x_start, x_end=self.x_end)
        if self.x_start >= self.x_end:
            raise ValueError("need x_start < x_end")

    @property
    def span(self) -> int:
        return self.x_end - self.x_start


def _check_query(lat: PolymerLattice, q: PathQuery) -> None:
    if q.x_start < 0 or q.x_end > lat.width:
        raise ValueError("query columns out of range")
    if q.span % 2:
        raise ValueError("odd span: no directed path returns to y = 0")
    if lat.pinned and q.x_start % 2:
        raise ValueError("a pinned lattice lacks the bonds of paths from odd columns")


# Unreachable states in the integer DP tables; INF + span stays in int32.
_INF = 1 << 30


def _suffix_dp(lat: PolymerLattice, q: PathQuery) -> Tuple[int, np.ndarray]:
    """The ground-state DP in numpy, right to left: the energy in bond units
    (-1 when no path exists) and up, where up[i, d] says whether the optimal
    step out of (x_start + i, -d) goes up (an up-down tie goes up)."""
    m = lat.measured
    h, span = lat.height, q.span
    # Going left from i = span - 1: down[d] and climb[d] are the minimal costs
    # from (x_start + i, -d) to the end point through a down and an up step,
    # nxt[d] the smaller one (the cost from column i + 1 before the update).
    # up holds the steps, so the path needs no (span + 1, h + 1) int32 cost
    # table: 8 MB of bools in place of 34 MB at width 4096.
    nxt = np.full(h + 1, _INF, dtype=np.int32)
    nxt[0] = 0
    down, climb = np.full(h + 1, _INF, dtype=np.int32), np.full(h + 1, _INF, dtype=np.int32)
    up = np.empty((span, h + 1), dtype=bool)
    for i in range(span - 1, -1, -1):
        x = q.x_start + i
        np.add(~m[x, :-1, 0], nxt[1:], out=down[:-1])
        np.add(~m[x, 1:, 1], nxt[:-1], out=climb[1:])
        np.less_equal(climb, down, out=up[i])
        np.minimum(climb, down, out=nxt)
    return (int(nxt[0]) if nxt[0] < _INF else -1), up


def _min_energy(lat: PolymerLattice, q: PathQuery) -> int:
    """Ground-state energy only (in bond units, before energy_unit scaling):
    the row kernel's left-to-right DP (rowkernel.polymer_energy), or without
    a compiler the energy of _suffix_dp, which min_path_energy also runs."""
    _check_query(lat, q)
    energy = _suffix_dp(lat, q)[0] if rowkernel.LIB is None else rowkernel.polymer_energy(lat, q)
    if energy < 0:
        raise ValueError("no feasible path (height too small for this span)")
    return energy


def min_path_energy(
    lat: PolymerLattice, q: PathQuery
) -> Tuple[float, List[Tuple[int, int]]]:
    """Ground-state energy and one optimal path as [(x, y), ...], from
    _suffix_dp with or without the row kernel.

    Ties are broken toward smaller |y| and earlier (leftward) positions
    first: the returned path has the lexicographically smallest depth
    sequence among all optima.
    """
    _check_query(lat, q)
    energy, up = _suffix_dp(lat, q)
    if energy < 0:
        raise ValueError("no feasible path (height too small for this span)")
    path = [(q.x_start, 0)]
    d = 0
    for i in range(q.span):
        d = d - 1 if up[i, d] else d + 1
        path.append((q.x_start + i + 1, -d))
    return float(energy) * lat.energy_unit, path


def enumerate_path_energies(lat: PolymerLattice, q: PathQuery) -> List[float]:
    """Energies of every directed path (exhaustive; span <= 16 guard)."""
    _check_query(lat, q)
    if q.span > 16:
        raise ValueError("enumeration guard: span <= 16")
    out: List[float] = []

    def walk(x: int, d: int, acc: int):
        if x == q.x_end:
            if d == 0:
                out.append(acc * lat.energy_unit)
            return
        remaining = q.x_end - x - 1
        for step, nd in ((0, d + 1), (1, d - 1)):
            if nd < 0 or nd > lat.height or nd > remaining:
                continue
            walk(x + 1, nd, acc + (0 if lat.measured[x, d, step] else 1))

    walk(q.x_start, 0, 0)
    return out


# -- domain walls ---------------------------------------------------------------


class DomainWallResult(NamedTuple):
    negativity: float
    mi_analogue: float
    energies: Tuple[float, float, float]  # (E_A, E_B, E_AB)


def domain_wall_negativity(
    lat: PolymerLattice,
    halves: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
    lengths: str = "energetic",
) -> DomainWallResult:
    """(1/2)[E_A + E_B - E_AB] for adjacent top-boundary spans A and B.

    The default split is the two half-chains, which needs width % 4 == 0 so
    each span is even. lengths="geometric" swaps wall energies for bare
    x-spans (identically zero negativity; kept for comparison).
    """
    if halves is None:
        if lat.width % 4:
            raise ValueError("default halves need width divisible by 4")
        half = lat.width // 2
        halves = ((0, half), (half, lat.width))
    (a0, a1), (b0, b1) = halves
    if a1 != b0 or a0 != 0 or b1 != lat.width:
        raise ValueError("spans must be adjacent and cover the top boundary")
    queries = (PathQuery(a0, a1), PathQuery(b0, b1), PathQuery(a0, b1))
    if lengths == "geometric":
        energies = tuple(float(q.span) * lat.energy_unit for q in queries)
    elif lengths == "energetic":
        energies = tuple(float(_min_energy(lat, q)) * lat.energy_unit for q in queries)
    else:
        raise ValueError("lengths must be 'energetic' or 'geometric'")
    e_a, e_b, e_ab = energies
    mi = e_a + e_b - e_ab
    return DomainWallResult(0.5 * mi, mi, energies)


# -- KPZ scaling -----------------------------------------------------------------


@dataclass
class KpzScan:
    widths: np.ndarray
    mean_energy: np.ndarray
    var_energy: np.ndarray
    samples: int
    p: float
    degenerate: Optional[str] = None
    s0: Optional[float] = None
    s1: Optional[float] = None
    two_beta: Optional[float] = None
    var_amplitude: Optional[float] = None
    r2_mean: Optional[float] = None
    r2_mean_linear: Optional[float] = None
    r2_var: Optional[float] = None


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def kpz_scan(widths: Sequence[int], p: float, samples: int, rng) -> KpzScan:
    """Disorder-averaged polymer energy vs width, with KPZ fits.

    Each sample is PolymerLattice.sample(w, p, rng, pinned=True): only the
    bonds a path pinned at (0, 0) and (w, 0) can visit are drawn, with the
    energies, and the state of rng, of the full draw.

    Mean energy is fit to s0*L + s1*L^(1/3); the variance to A*L^(2beta) in
    log-log form. At p = 0 or p = 1 the energy law is exact (E = L resp. 0)
    with zero variance, so no fit is attempted. When some width's samples
    all share one energy, its variance is 0 and has no logarithm: the mean
    is still fit, the variance fit is left None and degenerate names the
    widths.
    """
    if not isinstance(rng, np.random.Generator):
        rng = make_rng(rng)
    widths = list(widths)
    _check_integers(samples=samples, **{f"widths[{i}]": w for i, w in enumerate(widths)})
    widths_arr = np.asarray(sorted(widths), dtype=np.int64)
    if widths_arr.size == 0 or widths_arr[0] < 2:
        raise ValueError("need widths >= 2")
    if np.any(widths_arr % 2):
        raise ValueError("widths must be even (paths return to y = 0)")
    if widths_arr.size < 2 or np.any(np.diff(widths_arr) == 0):
        raise ValueError("need at least two distinct widths, none repeated")
    if samples < 2:
        raise ValueError("need samples >= 2 for a variance")

    if p in (0.0, 1.0):
        exact = widths_arr.astype(float) if p == 0.0 else np.zeros(widths_arr.size)
        for w in widths_arr:  # one sample per width confirms the exact law
            lat = PolymerLattice.sample(int(w), p, rng, pinned=True)
            energy = _min_energy(lat, PathQuery(0, int(w)))
            if energy != (w if p == 0.0 else 0):
                raise AssertionError(f"p={p}: width {w} has energy {energy}, not the exact law")
        label = "p=0: E(L) = L, var 0" if p == 0.0 else "p=1: E(L) = 0, var 0"
        return KpzScan(
            widths_arr, exact, np.zeros(widths_arr.size), samples, p, degenerate=label
        )

    means, variances = [], []
    for w in widths_arr:
        energies = np.empty(samples, dtype=np.float64)
        for s in range(samples):
            lat = PolymerLattice.sample(int(w), p, rng, pinned=True)
            energies[s] = _min_energy(lat, PathQuery(0, int(w)))
        means.append(energies.mean())
        variances.append(energies.var(ddof=1))
    mean_arr = np.asarray(means)
    var_arr = np.asarray(variances)

    design = np.column_stack([widths_arr, np.cbrt(widths_arr)])
    coef, *_ = np.linalg.lstsq(design, mean_arr, rcond=None)
    s0, s1 = float(coef[0]), float(coef[1])
    r2_mean = _r_squared(mean_arr, design @ coef)
    lin_coef, *_ = np.linalg.lstsq(design[:, :1], mean_arr, rcond=None)
    r2_lin = _r_squared(mean_arr, design[:, :1] @ lin_coef)

    scan = KpzScan(
        widths_arr, mean_arr, var_arr, samples, p,
        s0=s0, s1=s1, r2_mean=r2_mean, r2_mean_linear=r2_lin,
    )
    flat = widths_arr[var_arr == 0]
    if flat.size:
        scan.degenerate = f"zero sample variance at widths {flat.tolist()}: no variance fit"
        return scan
    log_design = np.column_stack([np.log(widths_arr), np.ones(widths_arr.size)])
    log_coef, *_ = np.linalg.lstsq(log_design, np.log(var_arr), rcond=None)
    scan.two_beta = float(log_coef[0])
    scan.var_amplitude = float(np.exp(log_coef[1]))
    scan.r2_var = _r_squared(np.log(var_arr), log_design @ log_coef)
    return scan
