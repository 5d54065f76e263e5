"""The compiled row kernel under the unsigned runner, the GF(2) ranks and
the polymer DP.

rowkernel.c makes, on the column-packed tableau of negsim.stabilizer, the
same row operations as the numpy code it stands in for, so both leave
bit-identical tableaux. It serves these calls, each behind one dispatch line:
- `circuit.run_trajectory`, a whole trajectory in one `run_trajectory` call:
  the draws, gates, measurements and dephasing of `circuit._layer_ops`, in
  its order, and every record of the half cut as int16 (S_A, S_B, S_AB, 2E)
  from the same ranks as `record_ranks`;
- `channels._apply_layer`, the one tableau update of the reference loop, on
  unsigned states: pending dephasing columns, a brickwork layer's gates (as
  class indices into `channels._class_tables()`) and the layer's Z
  measurements for its flushes, and the dephasing columns of
  `entanglement._observables`' trace-out;
- `entanglement._ranks`, the three GF(2) ranks behind every entropy,
  negativity and record, in one `record_ranks` call on any state (no rank
  reads a sign): one elimination over the stabilizer rows, B's columns
  first, counts both entropy ranks and leaves the I cross generators, over
  which the negativity rank is taken (rowkernel.c's cut_ranks);
- `circuit._layer_ops`' draws: `draw_layer` (a layer's gate classes, sign
  bits and measured sites) and `draw_sites` (the sites of
  `random_sites(m)`), and `apply_layer`'s outcome bits. They, and
  `run_trajectory`, draw through numpy's `bitgen_t` interface from the
  trajectory's own Generator, with numpy's algorithms, so they give the
  Generator calls' values and leave its bit generator in the same state;
  each call holds the bit generator's lock;
- `stabilizer.canonicalize` on unsigned states (`canonicalize`, on a copy):
  the row-int code's two sweeps with the same row operations in the same
  order, on the stabilizer and destabilizer rows copied into row bitsets,
  so both give the same bits; signed states keep the row-int code.
It also holds the ground-state DP of `polymer._min_energy`, which reads the
bool bond lattice and returns the same integer energy as the numpy DP, and
`draw_bonds`, which draws that lattice for `PolymerLattice.sample` when the
Generator runs on numpy's PCG64: the kernel steps PCG64 from the 128-bit
state and increment read from `rng.bit_generator.state`, writes each bond as
`rng.random() < p` makes it, and the state after the last draw is written
back, under the bit generator's lock; the bonds and the state are numpy's.
Pinned (`PolymerLattice.sample(..., pinned=True)`, as `kpz_scan` draws), it
draws only the bonds a path from (0, 0) to (width, 0) can visit, each
column's reachable prefix at the column's parity, and jumps PCG64 over the
rest of the column. A large lattice is drawn in groups of whole columns on
up to THREADS pthreads (the cores this process may run on, at most 8), each
group from its exact PCG64 state by jump-ahead; the bits do not depend on
the thread count, and no thread outlives the call, so processes forked
later inherit none. On a CPU with AVX-512 the bonds are drawn 16 PCG64
lanes at a time, with the same bits.

On first import the source is compiled with `cc -O3 -shared -fPIC -pthread` into
`__pycache__/rowkernel-<hash>.so` beside this file (or `~/.cache/negsim/` when
that folder is not writable), named by the hash of the source and flags; a
later import loads that file without running the compiler. The build writes
a temporary file and renames it into place, so concurrent imports cannot
see half a library. A build in the package's own folder removes the older
`rowkernel-*.so` files there; the shared `~/.cache/negsim/` is never
cleaned, since checkouts of other revisions load from it. Without a compiler LIB is None and every caller runs
its numpy path.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import struct
import tempfile
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

SOURCE = Path(__file__).with_name("rowkernel.c")
FLAGS = ("-O3", "-shared", "-fPIC", "-pthread")  # -O3 vectorizes the column loops
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


def _remove_older_builds(path: Path) -> None:
    """Delete the other rowkernel-*.so files in path's folder. A process that
    has one loaded keeps its mapping, and a file that cannot go stays."""
    for old in path.parent.glob("rowkernel-*.so"):
        if old != path:
            try:
                old.unlink()
            except OSError:
                pass


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the argument types of the calls made once per lattice or
    trajectory, where they cost little: draw_bonds' count and threshold
    exceed a C int."""
    lib.polymer_energy.argtypes = (ctypes.c_void_p,) + (ctypes.c_int,) * 4
    lib.run_trajectory.argtypes = (
        (ctypes.c_void_p, ctypes.c_int) + (ctypes.c_void_p,) * 3
        + (ctypes.c_int, ctypes.c_double) + (ctypes.c_int,) * 3 + (ctypes.c_void_p,)
    )
    lib.draw_bonds.argtypes = (
        (ctypes.c_void_p, ctypes.c_uint64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int)
        + (ctypes.c_void_p, ctypes.c_int)
    )
    lib.draw_bonds.restype = None
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The kernel from the first of CACHE_DIRS that has or can build it, else None."""
    try:
        name = library_name(SOURCE.read_bytes())
    except OSError:
        return None
    for folder in CACHE_DIRS:
        path = folder / name
        if not path.is_file():
            if not _compile(path):
                continue
            if folder == CACHE_DIRS[0]:
                _remove_older_builds(path)
        try:
            return _declare(ctypes.CDLL(str(path)))
        except OSError:
            continue
    return None


LIB = load()

# The tableau and draw functions are called without declared argument
# types, which halves ctypes' per-call cost: every argument is a Python int
# (C int), a bytes object or ctypes buffer (a pointer to its data), a
# c_void_p, a c_double or None (a NULL pointer). The
# tableau last passed in keeps its c_void_p here, because reading
# ndarray.ctypes.data costs microseconds and the runner passes the same
# array every call; so does the gate class table of apply_layer, and so do
# the bitgen_t pointer and lock of the bit generator last drawn from.
_last = (None, None)
_tables = (None, None)
_gen = (None, None, None)
_NO_LOCK = nullcontext()


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


def _tables_address(tables) -> ctypes.c_void_p:
    global _tables
    held, address = _tables
    if held is not tables:
        if tables.dtype != np.uint64 or not tables.flags.c_contiguous or tables.shape != (720, 4, 4):
            raise ValueError("the gate class table must be a C-contiguous (720, 4, 4) uint64 array")
        address = ctypes.c_void_p(tables.ctypes.data)
        _tables = (tables, address)
    return address


def _bitgen(rng):
    """The bitgen_t pointer and the lock of rng's bit generator."""
    global _gen
    bits, held = rng.bit_generator, _gen  # one read: another thread may swap _gen
    if held[0] is not bits:
        held = _gen = (bits, bits.ctypes.bit_generator, bits.lock)
    return held[1], held[2]


def _mask(state) -> bytes:
    return state._stab.to_bytes(8 * ((state.num_qubits + 63) >> 6), "little")


_INT64 = np.dtype(np.int64)


def _int64s(values) -> bytes:
    """values as int64 bytes: bytes pass through, an array goes through
    numpy and a sequence of ints through struct (the faster one for lists).
    A float or bool array, or a float or bool in a sequence, raises
    ValueError."""
    if type(values) is bytes:
        return values
    if type(values) is np.ndarray:
        if values.dtype is _INT64:
            return values.tobytes()
        if values.dtype.kind not in "iu":
            raise ValueError(f"sites must be integers, got a {values.dtype} array")
        return values.astype(np.int64).tobytes()
    if any(type(v) is bool for v in values):  # struct packs True as 1
        raise ValueError("sites must be integers, got a bool")
    try:
        return struct.pack(f"{len(values)}q", *values) if values else b""
    except struct.error as exc:
        raise ValueError(f"sites must be 64-bit integers ({exc})") from None


def _checked(code: int) -> int:
    """A kernel return value; -2 means a site, column, gate class or
    stabilizer pair out of range, and the kernel changed nothing."""
    if code == -2:
        raise ValueError("site, column, gate class or stabilizer pair out of range for the state")
    return code


def apply_layer(state, tables, columns, gate_sites, classes, sites, rng=None) -> int:
    """Dephase the tableau columns, apply gate g with the map tables[classes[g]]
    on the sites (gate_sites[g], gate_sites[g] + 1), then measure Z on sites,
    all in place and in that order; returns the number of random outcomes.
    With a Generator rng it then draws their bits from it, as
    rng.integers(2, size=n) does. tables is channels._class_tables()."""
    L = state.num_qubits
    cols, gates, kinds, meas = _int64s(columns), _int64s(gate_sites), _int64s(classes), _int64s(sites)
    if len(kinds) != len(gates):
        raise ValueError("need one gate class per gate")
    mask = ctypes.create_string_buffer(_mask(state), 8 * ((L + 63) >> 6))
    bitgen, lock = _bitgen(rng) if rng is not None else (None, _NO_LOCK)
    with lock:
        n = _checked(LIB.apply_layer(
            _address(state), L, mask, _tables_address(tables), cols, len(cols) >> 3,
            gates, kinds, len(gates) >> 3, meas, len(meas) >> 3, bitgen,
        ))
    state._stab = int.from_bytes(mask.raw, "little")
    return n


def run_trajectory(state, tables, rng, T: int, p: float, every: int, m: int, stride: int) -> np.ndarray:
    """T layers of circuit._layer_ops on the unsigned state, in place, with
    every draw from rng in that generator's order, in one call: the
    boundary sites dephased every `every` layers, or m sites drawn per
    layer when every is 0. Returns the (n, 4) int16 records (S_A, S_B,
    S_AB, 2E) of the half cut, every stride layers and at T. tables is
    channels._class_tables()."""
    L = state.num_qubits
    out = np.empty((-(-T // stride) if T > 0 and stride > 0 else 0, 4), dtype=np.int16)
    mask = ctypes.create_string_buffer(_mask(state), 8 * ((L + 63) >> 6))
    bitgen, lock = _bitgen(rng)
    with lock:
        code = _checked(LIB.run_trajectory(
            _address(state), L, mask, _tables_address(tables), bitgen, T, p, every, m, stride,
            out.ctypes.data,
        ))
    state._stab = int.from_bytes(mask.raw, "little")
    if code < 0:
        raise MemoryError("row kernel could not allocate its trajectory buffers")
    return out


def canonicalize(state):
    """stabilizer.canonicalize of an unsigned state, on a copy: the kernel
    makes the row-int code's row operations in its order, so both give the
    same bits."""
    out = state.copy()
    if _checked(LIB.canonicalize(_address(out), out.num_qubits, _mask(out))) < 0:
        raise MemoryError("row kernel could not allocate its row buffers")
    return out


def draw_layer(rng, n: int, L: int, p: float):
    """(rng.integers(720, size=n), rng.integers(16, size=n), the sites of
    rng.random(L) < p as a list), drawn in that order and the last only when
    p > 0. The two arrays are fresh for every call."""
    buf = (ctypes.c_int64 * (2 * n + L))()
    bitgen, lock = _bitgen(rng)
    with lock:
        count = LIB.draw_layer(bitgen, n, L, ctypes.c_double(p), buf)
    drawn = np.frombuffer(buf, np.int64, 2 * n)
    return drawn[:n], drawn[n:], buf[2 * n : 2 * n + count]


def draw_sites(rng, L: int, m: int) -> list:
    """sorted(rng.choice(L, size=m, replace=False)), for L <= 10000 or
    m <= L // 50, where numpy draws it with Floyd's algorithm."""
    if not 0 <= m <= L:
        raise ValueError("cannot draw more distinct sites than the chain has")
    buf = (ctypes.c_int64 * m)()
    bitgen, lock = _bitgen(rng)
    with lock:
        LIB.draw_sites(bitgen, L, m, buf)
    return buf[:]


def record_ranks(state, region, rest) -> Tuple[int, int, int]:
    """For disjoint site sets A (region) and B (rest), int64 sites or their
    bytes as entanglement caches them: (rank of the stabilizer rows on B's X
    and Z columns, the same on A's, rank of the anticommutation form of the
    rows on A) from one elimination. The first two hold for any A and B;
    the third once the sites outside A u B are traced out, since it is
    taken over the generators that are neither local to A nor to B."""
    a, b = _int64s(region), _int64s(rest)
    out = (ctypes.c_int * 3)()
    code = _checked(LIB.record_ranks(
        _address(state), state.num_qubits, _mask(state), a, len(a) >> 3, b, len(b) >> 3, out
    ))
    if code < 0:
        raise MemoryError("row kernel could not allocate its rank buffers")
    return out[0], out[1], out[2]


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


_WORD = (1 << 64) - 1
# the threads draw_bonds may draw on: the cores this process may run on, read
# once; rowkernel.c caps them at 8 and at one per 2^19 bonds
THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def draw_bonds(rng, p: float, out: np.ndarray, pinned: bool = False) -> None:
    """out[...] = rng.random(out.shape) < p for a Generator on numpy's PCG64:
    the same bonds, and the bit generator left in the same state. The kernel
    steps PCG64 from the 128-bit state and increment of
    rng.bit_generator.state, and the state after the last draw is written
    back under the bit generator's lock; has_uint32 and uinteger, which
    random() neither reads nor writes, stay as they were.

    With pinned, out is a (width, height + 1, 2) polymer lattice and only
    the bonds (x, d, s) with d <= min(x, width - x, height) and d = x mod 2,
    those a path from (0, 0) to (width, 0) can visit, are drawn, each from
    its place in the full draw's stream; the others are False, and the bit
    generator still ends where the full draw leaves it. Column x draws the
    first 2 (min(x, width - x, height) + 1) bonds and jumps the LCG over
    the rest of the column.

    A lattice of at least 2^20 bonds is split into groups of whole columns
    (single bonds when not pinned) spanning at least 2^19 bonds, one per
    thread up to THREADS and at most 8, each started from its exact PCG64
    state by jump-ahead (as PCG64.advance), so the bonds do not depend on
    the thread count; every thread is joined before the call returns. A GCC
    build on x86-64 draws 16 bonds per step on a CPU with AVX-512
    (rowkernel.c's draw_lanes), 16 in a row, or pinned the 16 of one
    parity among 32, and elsewhere one LCG step at a time; the bits are
    the same."""
    bits = rng.bit_generator
    if type(bits) is not np.random.PCG64:
        raise ValueError(f"draw_bonds steps numpy's PCG64, not {type(bits).__name__}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if out.dtype != np.bool_ or not out.flags.c_contiguous:
        raise ValueError("the bonds must be a C-contiguous bool array")
    if pinned and (out.ndim != 3 or out.shape[2] != 2 or out.size == 0):
        raise ValueError("a pinned draw needs a (width, height + 1, 2) lattice")
    width, column = (out.shape[0], 2 * out.shape[1]) if pinned else (out.size, 1)
    threshold = math.ceil(float(p) * 2.0**53)  # in float64 whatever p's numpy type
    with bits.lock:
        full = bits.state
        state, inc = full["state"]["state"], full["state"]["inc"]
        words = (ctypes.c_uint64 * 4)(state >> 64, state & _WORD, inc >> 64, inc & _WORD)
        LIB.draw_bonds(words, threshold, width, column, int(pinned), out.ctypes.data, THREADS)
        full["state"]["state"] = words[0] << 64 | words[1]
        bits.state = full
