"""Mixed-state stabilizer simulation of open monitored circuits, with the
dense-matrix oracle, directed-polymer effective model, and scaling analysis
used to study measurement-induced negativity transitions."""

import importlib
from types import ModuleType

from .pauli import PauliString, commutes, multiply, phase_product, restrict, support_interval
from .stabilizer import (
    StabilizerState,
    canonicalize,
    clipped_endpoint_counts,
    product_state,
    purity,
    validate,
)
from .channels import (
    CliffordGate,
    apply_clifford,
    cnot_gate,
    dephase,
    hadamard_on_first,
    make_rng,
    measure_pauli,
    sample_two_qubit_clifford,
    swap_gate,
    symplectic_group_order,
    symplectic_matrix,
    trajectory_rng,
)
from .entanglement import (
    Bipartition,
    ObservableRecord,
    entropy,
    length_distribution,
    mutual_information,
    negativity,
    purity_log2,
    record_observables,
    window_mass,
)
from .circuit import (
    CircuitConfig,
    MonteCarloResult,
    TrajectoryResult,
    monte_carlo,
    run_trajectory,
    write_summary_csv,
    write_trajectory_csv,
)

# oracle, polymer and analysis load on first use of one of their names
# (PEP 562), so that `import negsim` pays for none of them.
_LAZY = {
    "oracle": (
        "DenseState",
        "clifford_unitary",
        "haar_unitary",
        "log_negativity",
        "oracle_check_suite",
        "page_negativity_check",
        "partial_transpose",
        "pauli_matrix",
        "renyi_negativity",
        "replica_trace_identity_check",
    ),
    "polymer": (
        "Permutation",
        "PathQuery",
        "PolymerLattice",
        "block_cyclic",
        "cayley_distance",
        "domain_wall_negativity",
        "enumerate_path_energies",
        "find_intermediate_D",
        "kpz_scan",
        "min_path_energy",
    ),
    "analysis": (
        "CollapseFit",
        "Curve",
        "SweepSpec",
        "collapse_objective",
        "optimize_collapse",
        "power_law_fit",
        "reproduce_figure",
        "run_sweep",
        "scaling_model_comparison",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, ModuleType)
] + list(_HOME)


def __getattr__(name):
    """A lazy module, or a name from one, imported on first access."""
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
