"""Dense density-matrix oracle for small systems (L <= 8).

Implements the negativity definitions directly on the density operator:
partial transpose, trace-norm log-negativity, Renyi negativities, replica
permutation traces, channels, and Haar-random Page checks. Everything here is
independent of the stabilizer engine so it can serve as ground truth.

Basis convention: bit i of a computational-basis index is site i, matching
the PauliString mask convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channels import CliffordGate, Rng, make_rng, sample_two_qubit_clifford
from .pauli import PauliString, phase_product
from .stabilizer import StabilizerState

__all__ = [
    "DenseState",
    "pauli_matrix",
    "clifford_unitary",
    "partial_transpose",
    "log_negativity",
    "renyi_negativity",
    "RenyiNegativity",
    "replica_trace_identity_check",
    "page_negativity_check",
    "haar_unitary",
    "oracle_check_suite",
    "dense_split_negativity",
    "replay_trajectory",
    "OracleReport",
]

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (site i = index bit i)."""
    m = np.array([[1.0 + 0j]])
    for site in range(p.num_qubits):
        bits = ((p.x_mask >> site) & 1, (p.z_mask >> site) & 1)
        m = np.kron(_SINGLE[bits], m)
    return p.sign * m


def clifford_unitary(gate: CliffordGate) -> np.ndarray:
    """4x4 unitary with U P U^dag = image(P), fixed up to global phase.

    U|00> is the joint +1 eigenvector of the Z images; the other columns are
    reached by applying the X images.
    """
    img_x1, img_z1, img_x2, img_z2 = (pauli_matrix(g) for g in gate.images)
    eye = np.eye(4)
    projector = (eye + img_z1) @ (eye + img_z2) / 4.0
    col = np.argmax(np.linalg.norm(projector, axis=0))
    psi00 = projector[:, col]
    psi00 = psi00 / np.linalg.norm(psi00)
    u = np.zeros((4, 4), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            vec = psi00
            if a:
                vec = img_x1 @ vec
            if b:
                vec = img_x2 @ vec
            u[:, a + 2 * b] = vec
    return u


class RenyiNegativity(NamedTuple):
    value: float
    normalized: bool


@dataclass
class DenseState:
    """Exact density operator on L <= 8 sites."""

    num_qubits: int
    rho: np.ndarray

    MAX_QUBITS = 8

    def __post_init__(self):
        if not 1 <= self.num_qubits <= self.MAX_QUBITS:
            raise ValueError("dense oracle supports 1..8 sites")
        dim = 1 << self.num_qubits
        if self.rho.shape != (dim, dim):
            raise ValueError("density matrix shape does not match L")

    # -- constructors ------------------------------------------------------

    @classmethod
    def product_state(cls, L: int) -> "DenseState":
        dim = 1 << L
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(L, rho)

    @classmethod
    def from_state_vector(cls, psi: np.ndarray) -> "DenseState":
        psi = np.asarray(psi, dtype=complex)
        L = int(np.log2(psi.size))
        psi = psi / np.linalg.norm(psi)
        return cls(L, np.outer(psi, psi.conj()))

    @classmethod
    def from_stabilizer(cls, state: StabilizerState) -> "DenseState":
        """rho = 2^-L sum over the full signed group (2^k elements)."""
        L = state.num_qubits
        gens = state.generators
        dim = 1 << L
        rho = np.zeros((dim, dim), dtype=complex)
        for combo in range(1 << len(gens)):
            acc = PauliString.identity(L)
            k_total = 0
            c, row = combo, 0
            while c:
                if c & 1:
                    acc, dk = phase_product(acc, gens[row])
                    k_total = (k_total + dk) % 4
                c >>= 1
                row += 1
            assert k_total % 2 == 0, "group element must be Hermitian"
            sign = 1.0 if k_total == 0 else -1.0
            rho += sign * pauli_matrix(acc)
        return cls(L, rho / dim)

    # -- bookkeeping ---------------------------------------------------------

    def check(self, atol: float = 1e-10) -> Optional[str]:
        if np.abs(self.rho - self.rho.conj().T).max() > atol:
            return "not Hermitian"
        if abs(self.rho.trace() - 1.0) > 1e-12:
            return "trace differs from 1"
        if np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2).min() < -1e-10:
            return "negative eigenvalue"
        return None

    def purity(self) -> float:
        return float(np.real(np.trace(self.rho @ self.rho)))

    def copy(self) -> "DenseState":
        return DenseState(self.num_qubits, self.rho.copy())

    # -- reduced states and entropies ---------------------------------------

    def partial_trace(self, keep: Sequence[int]) -> np.ndarray:
        L = self.num_qubits
        keep = sorted(keep)
        traced = [s for s in range(L) if s not in keep]
        tensor = self.rho.reshape([2] * (2 * L))
        for site in traced:
            # axes recomputed against the current (shrinking) tensor
            ln = tensor.ndim // 2
            live = [s for s in range(L) if s in keep or s > site]
            pos = ln - 1 - sorted(live + [site]).index(site)
            tensor = np.trace(tensor, axis1=pos, axis2=pos + ln)
        dim = 1 << len(keep)
        return tensor.reshape(dim, dim)

    def entropy(self, region: Sequence[int]) -> float:
        """Von Neumann entropy of the reduced state, in bits."""
        region = sorted(region)
        if len(region) == self.num_qubits:
            reduced = self.rho
        else:
            reduced = self.partial_trace(region)
        eigs = np.linalg.eigvalsh((reduced + reduced.conj().T) / 2)
        eigs = eigs[eigs > 1e-14]
        return float(-(eigs * np.log2(eigs)).sum())

    def mutual_information(self, region_a: Sequence[int], region_b: Sequence[int]) -> float:
        joint = sorted(list(region_a) + list(region_b))
        return self.entropy(region_a) + self.entropy(region_b) - self.entropy(joint)

    # -- channels ------------------------------------------------------------

    def apply_gate(self, gate: CliffordGate, i: int, j: int) -> "DenseState":
        u = _embed_two_site(clifford_unitary(gate), i, j, self.num_qubits)
        return DenseState(self.num_qubits, u @ self.rho @ u.conj().T)

    def z_projector(self, site: int, outcome: int) -> np.ndarray:
        dim = 1 << self.num_qubits
        idx = np.arange(dim)
        bit = (idx >> site) & 1
        want = 0 if outcome > 0 else 1
        return np.diag((bit == want).astype(complex))

    def project_z(self, site: int, outcome: int) -> Tuple[float, "DenseState"]:
        proj = self.z_projector(site, outcome)
        prob = float(np.real(np.trace(proj @ self.rho)))
        if prob < 1e-12:
            raise ValueError("projecting onto a zero-probability outcome")
        rho = proj @ self.rho @ proj / prob
        return prob, DenseState(self.num_qubits, rho)

    def measure_z(self, site: int, rng: Rng) -> Tuple[int, "DenseState"]:
        prob_plus = float(np.real(np.trace(self.z_projector(site, 1) @ self.rho)))
        outcome = 1 if rng.random() < prob_plus else -1
        _, state = self.project_z(site, outcome)
        return outcome, state

    def dephase_site(self, site: int) -> "DenseState":
        p0 = self.z_projector(site, 1)
        p1 = self.z_projector(site, -1)
        return DenseState(self.num_qubits, p0 @ self.rho @ p0 + p1 @ self.rho @ p1)


def _embed_two_site(u: np.ndarray, i: int, j: int, L: int) -> np.ndarray:
    """Lift a two-site unitary (qubit order: i is bit 0, j is bit 1) to L sites."""
    dim = 1 << L
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        b = ((col >> i) & 1) | (((col >> j) & 1) << 1)
        stripped = col & ~((1 << i) | (1 << j))
        for a in range(4):
            row = stripped | ((a & 1) << i) | (((a >> 1) & 1) << j)
            if u[a, b] != 0:
                full[row, col] = u[a, b]
    return full


# -- negativities --------------------------------------------------------------


def partial_transpose(state: DenseState, region_b: Sequence[int]) -> np.ndarray:
    L = state.num_qubits
    tensor = state.rho.reshape([2] * (2 * L))
    for site in region_b:
        tensor = np.swapaxes(tensor, L - 1 - site, 2 * L - 1 - site)
    dim = 1 << L
    return tensor.reshape(dim, dim)


def _pt_eigenvalues(state: DenseState, region_b: Sequence[int]) -> np.ndarray:
    pt = partial_transpose(state, region_b)
    return np.linalg.eigvalsh((pt + pt.conj().T) / 2)


def log_negativity(state: DenseState, region_b: Sequence[int]) -> float:
    """E = log2 of the trace norm of the partial transpose."""
    return float(np.log2(np.abs(_pt_eigenvalues(state, region_b)).sum()))


def negativity_sum(state: DenseState, region_b: Sequence[int]) -> float:
    """N = sum of |negative eigenvalues| of the partial transpose."""
    eigs = _pt_eigenvalues(state, region_b)
    return float(-eigs[eigs < 0].sum())


def renyi_negativity(state: DenseState, region_b: Sequence[int], n: int) -> RenyiNegativity:
    """b_n log2(tr[(rho^T_B)^n] / tr rho^n); n = 2 is returned unnormalized.

    b_n = 1/(1-n) for odd n and 1/(2-n) for even n != 2; at n = 2 the
    prefactor is singular, so the raw log-ratio (identically 0, since the
    partial transpose preserves the Frobenius norm) is returned with
    normalized=False.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    pt_eigs = _pt_eigenvalues(state, region_b)
    rho_eigs = np.linalg.eigvalsh((state.rho + state.rho.conj().T) / 2)
    ratio = float((pt_eigs**n).sum() / (rho_eigs**n).sum())
    log_ratio = float(np.log2(ratio))
    if n == 2:
        return RenyiNegativity(log_ratio, False)
    b = 1.0 / (1 - n) if n % 2 else 1.0 / (2 - n)
    return RenyiNegativity(b * log_ratio, True)


def replica_trace_identity_check(
    state: DenseState, region_b: Sequence[int], n: int, atol: float = 1e-9
) -> bool:
    """Verify tr[(rho^T_B)^n] against the replica permutation trace.

    The right side is Tr[(C_A x C_B-bar) rho^(x n)], evaluated without
    building the replicated operator: for basis tuples (t_1..t_n), the bra of
    replica a takes its A-bits from t_(a-1) and its B-bits from t_(a+1).
    """
    L = state.num_qubits
    if L > 3 or n > 4:
        raise ValueError("size guard: L <= 3 and n <= 4")
    if n < 1:
        raise ValueError("need n >= 1")
    pt = partial_transpose(state, region_b)
    lhs = complex(np.trace(np.linalg.matrix_power(pt, n)))

    b_mask = 0
    for site in region_b:
        b_mask |= 1 << site
    a_mask = ((1 << L) - 1) ^ b_mask
    dim = 1 << L
    rhs = 0.0 + 0.0j
    for flat in range(dim**n):
        t = [(flat // dim**alpha) % dim for alpha in range(n)]
        term = 1.0 + 0.0j
        for alpha in range(n):
            bra = (t[(alpha - 1) % n] & a_mask) | (t[(alpha + 1) % n] & b_mask)
            term *= state.rho[bra, t[alpha]]
            if term == 0:
                break
        rhs += term
    return abs(lhs - rhs) <= atol


# -- Haar / Page ---------------------------------------------------------------


def haar_unitary(dim: int, rng: Rng) -> np.ndarray:
    """QR of a complex Gaussian matrix with the phase fix on R's diagonal."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases[None, :]


def page_negativity_check(
    L_A: int, L_B: int, L_C: int, trials: int, rng: Rng
) -> float:
    """Mean E_{A:B} over Haar-random pure states on A u B u C, C traced out."""
    L = L_A + L_B + L_C
    if L > DenseState.MAX_QUBITS:
        raise ValueError("total size exceeds the dense-oracle limit")
    sites_a = list(range(L_A))
    sites_b = list(range(L_A, L_A + L_B))
    values = []
    for _ in range(trials):
        psi = haar_unitary(1 << L, rng)[:, 0]
        state = DenseState.from_state_vector(psi)
        if L_C:
            reduced = state.partial_trace(sites_a + sites_b)
            state = DenseState(L_A + L_B, reduced)
        values.append(log_negativity(state, list(range(L_A, L_A + L_B))))
    return float(np.mean(values))


# -- stabilizer cross-validation ----------------------------------------------


@dataclass
class OracleReport:
    """Largest stabilizer-vs-dense deviations and the failures past tolerance.

    In both oracle_check_suite and replay_trajectory, max_entropy_dev covers
    S_A, S_B, S_AB and I, and max_mupurity_dev is the log2-purity deviation.
    """

    circuits: int
    comparisons: int
    max_entropy_dev: float
    max_negativity_dev: float
    max_mupurity_dev: float
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_split(L: int, rng: Rng) -> Tuple[list, list]:
    """Disjoint non-empty A, B with C = the rest possibly non-empty."""
    while True:
        labels = rng.integers(3, size=L)  # 0 -> A, 1 -> B, 2 -> C
        a = [s for s in range(L) if labels[s] == 0]
        b = [s for s in range(L) if labels[s] == 1]
        if a and b:
            return a, b


def dense_split_negativity(
    state: DenseState, region_a: Sequence[int], region_b: Sequence[int]
) -> float:
    """E_{A:B} of rho_AB, the state with the rest of the chain traced out."""
    joint = sorted(list(region_a) + list(region_b))
    if len(joint) < state.num_qubits:
        state = DenseState(len(joint), state.partial_trace(joint))
    return log_negativity(state, [joint.index(s) for s in region_b])


def oracle_check_suite(
    seed: int = 7, circuits: int = 500, L: int = 4, depth: int = 8, p_measure: float = 0.3
) -> OracleReport:
    """Run random mixed circuits on both engines and compare all observables.

    Each layer applies brickwork random Cliffords, measures each site's Z
    with probability p_measure (the dense side is projected onto the
    stabilizer side's outcome, with a Born-probability consistency check),
    and dephases one random site. Entropies, negativity of the halves and of
    a random split A:B whose complement C may be non-empty, mutual
    information and purity are compared after every layer. The splits come
    from a second stream, so the circuits are the same for any split draws.
    """
    from . import entanglement  # local import to avoid a cycle
    from .channels import apply_clifford, dephase, measure_pauli
    from .stabilizer import product_state

    rng = make_rng(seed)
    split_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    half, rest = list(range(L // 2)), list(range(L // 2, L))
    bp = entanglement.Bipartition(half, rest)
    max_s = max_e = max_p = 0.0
    failures = []
    comparisons = 0
    for circuit in range(circuits):
        stab = product_state(L)
        dense = DenseState.product_state(L)
        for layer in range(1, depth + 1):
            start = 0 if layer % 2 else 1
            for i in range(start, L - 1, 2):
                gate = sample_two_qubit_clifford(rng)
                stab = apply_clifford(stab, gate, i, i + 1)
                dense = dense.apply_gate(gate, i, i + 1)
            for site in range(L):
                if rng.random() < p_measure:
                    h = PauliString.from_ops(L, {site: "Z"})
                    outcome, stab = measure_pauli(stab, h, rng)
                    prob, dense = dense.project_z(site, outcome)
                    if min(abs(prob - 1.0), abs(prob - 0.5)) > 1e-9:
                        failures.append(
                            f"circuit {circuit} layer {layer}: Born probability {prob}"
                        )
            site = int(rng.integers(L))
            stab = dephase(stab, site)
            dense = dense.dephase_site(site)

            comparisons += 1
            dev = _record_deviations(
                entanglement.record_observables(stab, bp, layer), dense, half, rest
            )
            split_a, split_b = _random_split(L, split_rng)
            e_split = entanglement.negativity(stab, entanglement.Bipartition(split_a, split_b))
            dev_s = max(dev["S_A"], dev["S_B"], dev["S_AB"], dev["I"])
            dev_e = max(dev["E"], abs(e_split - dense_split_negativity(dense, split_a, split_b)))
            dev_p = dev["purity_log2"]
            max_s, max_e, max_p = max(max_s, dev_s), max(max_e, dev_e), max(max_p, dev_p)
            if dev_s > 1e-9 or dev_e > 1e-9 or dev_p > 1e-9:
                failures.append(
                    f"circuit {circuit} layer {layer}: devs S={dev_s} E={dev_e} purity={dev_p}"
                )
    return OracleReport(circuits, comparisons, max_s, max_e, max_p, failures)


def _dense_values(dense: DenseState, half: list, rest: list) -> Tuple[float, ...]:
    """The ObservableRecord fields of a dense state, A = half and B = rest."""
    s_a, s_b, s_ab = dense.entropy(half), dense.entropy(rest), dense.entropy(half + rest)
    e = log_negativity(dense, rest)
    return s_a, s_b, s_ab, e, s_a + s_b - s_ab, float(np.log2(dense.purity()))


def _record_deviations(rec, dense: DenseState, half: list, rest: list) -> Dict[str, float]:
    """|stabilizer - dense| for each ObservableRecord field of rec."""
    want = _dense_values(dense, half, rest)
    return {name: abs(a - b) for name, a, b in zip(rec.FIELDS, rec.values(), want)}


def replay_trajectory(cfg, trajectory_index: int = 0, atol: float = 1e-9) -> OracleReport:
    """Check run_trajectory itself against the dense engine (L <= 8).

    Runs the trajectory, then walks its layer generator (circuit._layer_ops)
    with a DenseState on a fresh copy of its RNG stream, drawing one outcome
    bit exactly when the dense Born probability is 1/2 (the runner's cases (b)
    and (c)) and none when it is certain (case (a)). It draws each bit with a
    scalar call as it measures the site; the runner draws a layer's bits after
    its measurements, which leaves the stream in the same state. Every
    recorded field is compared at every recorded time, and the final k
    against the dense purity. The report counts one circuit and one
    comparison per record.
    """
    from .channels import _gate_from_class, _uniform_outcome, trajectory_rng
    from .circuit import _layer_ops, run_trajectory

    L = cfg.L
    if L > DenseState.MAX_QUBITS:
        raise ValueError("replay needs L <= 8 for the dense engine")
    result = run_trajectory(cfg, trajectory_index, keep_final_state=True)
    rng = trajectory_rng(cfg.seed, trajectory_index)
    half, rest = list(range(L // 2)), list(range(L // 2, L))
    dense = DenseState.product_state(L)
    failures: list = []
    max_s = max_e = max_p = 0.0
    records = iter(result.records)
    for t, kind, arg in _layer_ops(cfg, rng):
        if kind == "gates":
            for i, sym, signs in zip(*(a.tolist() for a in arg)):
                dense = dense.apply_gate(_gate_from_class(sym, signs), i, i + 1)
        elif kind == "measure":
            for site in arg:
                prob_up = float(np.real(np.trace(dense.z_projector(site, 1) @ dense.rho)))
                if abs(prob_up - 0.5) < atol:
                    outcome = _uniform_outcome(rng)
                elif min(prob_up, 1.0 - prob_up) < atol:
                    outcome = 1 if prob_up > 0.5 else -1
                else:
                    failures.append(f"t={t} site {site}: Born probability {prob_up}")
                    return OracleReport(1, 0, max_s, max_e, max_p, failures)
                _, dense = dense.project_z(site, outcome)
        elif kind == "dephase":
            dense = dense.dephase_site(arg)
        else:
            rec = next(records)
            dev = _record_deviations(rec, dense, half, rest)
            max_s = max(max_s, dev["S_A"], dev["S_B"], dev["S_AB"], dev["I"])
            max_e, max_p = max(max_e, dev["E"]), max(max_p, dev["purity_log2"])
            bad = [name for name, d in dev.items() if d > atol]
            if rec.time != t or bad:
                want = dict(zip(rec.FIELDS, _dense_values(dense, half, rest)))
                pairs = {name: (getattr(rec, name), want[name]) for name in bad}
                failures.append(f"t={t} (record t={rec.time}): runner vs dense {pairs}")
    k_dense = L + float(np.log2(dense.purity()))
    if abs(result.final_state.num_generators - k_dense) > atol:
        failures.append(f"final k {result.final_state.num_generators} vs dense {k_dense}")
    return OracleReport(1, len(result.records), max_s, max_e, max_p, failures)
