"""The compiled row kernel under the unsigned runner, the GF(2) ranks and
the polymer DP.

rowkernel.c makes, on the column-packed tableau of negsim.stabilizer, the
same row operations as the numpy code it stands in for, so both leave
bit-identical tableaux. It serves these calls, each behind one dispatch line:
`channels._measure_z_inplace`, `_apply_tables_inplace` and
`_dephase_inplace` on unsigned states, and the ranks of
`entanglement.entropy` and `negativity` and the X block of
`StabilizerState._x` on any state (neither reads a sign).
It also holds the ground-state DP of `polymer._min_energy`, which reads the
bool bond lattice and returns the same integer energy as the numpy DP.

On first import the source is compiled with `cc -O3 -shared -fPIC` into
`__pycache__/rowkernel-<hash>.so` beside this file (or `~/.cache/negsim/` when
that folder is not writable), named by the hash of the source and flags; a
later import loads that file without running the compiler. The build writes
a temporary file and renames it into place, so concurrent imports cannot
see half a library. Without a compiler LIB is None and every caller runs
its numpy path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("rowkernel.c")
FLAGS = ("-O3", "-shared", "-fPIC")  # -O3 vectorizes the column loops
CACHE_DIRS = (SOURCE.parent / "__pycache__", Path.home() / ".cache" / "negsim")


def library_name(source: bytes) -> str:
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), platform.machine().encode()]))
    return f"rowkernel-{key.hexdigest()[:16]}.so"


def _compile(path: Path) -> bool:
    """Build SOURCE into path via a temporary file; False without a compiler."""
    import subprocess  # only a cold cache pays for importing it

    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE)], capture_output=True, text=True)
        if proc.returncode != 0:
            warnings.warn(f"row kernel did not compile; using numpy:\n{proc.stderr}", RuntimeWarning)
            return False
        os.replace(tmp, path)
        return True
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> Optional[ctypes.CDLL]:
    """The kernel from the first of CACHE_DIRS that has or can build it, else None."""
    try:
        name = library_name(SOURCE.read_bytes())
    except OSError:
        return None
    for folder in CACHE_DIRS:
        path = folder / name
        if path.is_file() or _compile(path):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                continue
    return None


LIB = load()
if LIB is not None:  # one call per lattice or per k x L block: declared types cost little there
    LIB.polymer_energy.argtypes = (ctypes.c_void_p,) + (ctypes.c_int,) * 4
    LIB.stabilizer_x.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_void_p)

# The tableau functions are called without declared argument types, which
# halves ctypes' per-call cost: every argument is a Python int (C int), a
# bytes object (a pointer to its data) or the tableau's c_void_p. The
# tableau last passed in keeps its c_void_p here, because reading
# ndarray.ctypes.data costs microseconds and the runner passes the same
# array every call.
_last = (None, None)


def _address(state) -> ctypes.c_void_p:
    global _last
    cols = state._cols
    held, address = _last
    if held is not cols:
        n = 2 * state.num_qubits
        if cols.dtype != np.uint64 or not cols.flags.c_contiguous or cols.shape != (-(-n // 64), n):
            raise ValueError("the tableau must be a C-contiguous (ceil(2L/64), 2L) uint64 array")
        address = ctypes.c_void_p(cols.ctypes.data)
        _last = (cols, address)
    return address


def _mask(state) -> bytes:
    return state._stab.to_bytes(8 * ((state.num_qubits + 63) >> 6), "little")


def _checked(code: int) -> int:
    """A kernel return value; -2 means a site out of range, and the kernel
    changed nothing."""
    if code == -2:
        raise ValueError("site out of range for the state")
    return code


def measure_z(state, site: int) -> bool:
    """Z_site measured in place; True when the outcome is random (b, c)."""
    L = state.num_qubits
    code = _checked(LIB.measure_z(_address(state), L, _mask(state), int(site)))
    if code >= L:
        state._stab |= 1 << (code - L)
    return code >= 0


def dephase(state, column: int) -> None:
    p = _checked(LIB.dephase(_address(state), state.num_qubits, _mask(state), int(column)))
    if p >= 0:
        state._stab &= ~(1 << p)


def apply_gates(state, maps, cols_i, cols_j) -> None:
    cols_i = np.asarray(cols_i, dtype=np.int64)
    cols_j = np.asarray(cols_j, dtype=np.int64)
    maps = np.asarray(maps, dtype=np.uint64)
    if maps.shape != (cols_i.size, 4, 4) or cols_j.shape != cols_i.shape:
        raise ValueError("need one (4, 4) map and one site pair per gate")
    _checked(LIB.apply_gates(
        _address(state), state.num_qubits, maps.tobytes(),
        cols_i.tobytes(), cols_j.tobytes(), cols_i.size,
    ))


def stabilizer_x(state) -> np.ndarray:
    """(k, L) uint8 0/1 X bits of the stabilizer rows, rows in order."""
    L = state.num_qubits
    out = np.empty((state.num_generators, L), dtype=np.uint8)
    LIB.stabilizer_x(_address(state), L, _mask(state), out.ctypes.data)
    return out


def _rank(fn, state, sites) -> int:
    """sites: int64 site indices, or their bytes as entanglement caches them."""
    raw = sites if type(sites) is bytes else np.asarray(sites, dtype=np.int64).tobytes()
    rank = _checked(fn(_address(state), state.num_qubits, _mask(state), raw, len(raw) >> 3))
    if rank < 0:
        raise MemoryError("row kernel could not allocate its rank buffers")
    return rank


def region_rank(state, sites) -> int:
    """Rank of the stabilizer rows restricted to the X and Z columns of sites."""
    return _rank(LIB.region_rank, state, sites)


def negativity_rank(state, sites) -> int:
    """Rank of the anticommutation form of the stabilizer rows on sites."""
    return _rank(LIB.negativity_rank, state, sites)


def polymer_energy(lat, q) -> int:
    """Ground-state energy of a path from (q.x_start, 0) to (q.x_end, 0) on
    the polymer lattice lat, in bond units; -1 when no path exists."""
    m = lat.measured
    if m.dtype != np.bool_ or not m.flags.c_contiguous or m.shape != (lat.width, lat.height + 1, 2):
        raise ValueError("the lattice must be a C-contiguous (width, height + 1, 2) bool array")
    energy = LIB.polymer_energy(m.ctypes.data, lat.width, lat.height, q.x_start, q.x_end)
    if energy == -2:
        raise ValueError("query columns out of range")
    if energy == -3:
        raise MemoryError("row kernel could not allocate its polymer buffer")
    return energy
