"""Gate-level intermediate representation and exact unitary evaluation.

Wire convention matches pauli.to_matrix: qubit 1 is the most significant
factor, basis index = integer value of the bit string, controls trigger on
the up spin (bit 1) unless a polarity says otherwise. Ancilla wires follow
the data wires, so wire indices run 1..n_qubits+n_ancillas.

Gate kinds: RX, RY, RZ, H, X, APHASE (diag(1, e^{-i eps})), CNOT, SWAP,
TOFFOLI, CRK (diag(1,1,1,e^{i 2 pi/2^k})), CPHASE, XX (exp(+i chi X@X)),
CRX, MCX/MCRX with per-control polarities, and GPHASE (scalar e^{i phi} on
no wire, used to keep decompositions exactly equal to their targets).
Wires, parameters and amplitudes are read by the one number rule in _read.py.

unitary and apply share one evaluator. Gates whose matrix has one nonzero per
column (the permutations X, CNOT, SWAP, TOFFOLI, MCX and the phases RZ,
APHASE, CPHASE, CRK, GPHASE, found by inspecting the gate table) only relabel
and phase basis states: a run of them composes into one source map, out[j] =
phase[j] * psi[src[j]], applied to the amplitudes as a single gather, so
permutation circuits stay exactly 0/1. A gate on one or two wires gets its map
from the dense kernel, its 0/1 pattern applied to the basis indices; a
Toffoli is the multi-control with both controls up, and it and MCX flip the
target bit of the indices whose controls match. Every other gate acts on one
or two wires, as one strided matmul or one 4 x 4 GEMM over a transposed view,
or is an MCRX, which acts by its 2 x 2 target block on the indices whose
controls match, never as its 2^(m+1)-square matrix. One forward pass cuts the
gates into runs on at most two wires, each ended by a gate on a third wire or
by a Toffoli or multi-control, which stands alone. A run that holds at least
three dense gates and a monomial one (a lowered CNOT or SWAP, say) is fused:
its 2 x 2 or 4 x 4 product is built once and applied in one pass over the
block instead of one pass per gate.

A circuit holds each distinct gate once, in a table in first-use order, and
one integer code per occurrence. Synthesized circuits repeat a few gates many
times (a Trotter circuit is N copies of one step), so every per-gate job is
done once per table entry and then mapped over the codes: validation, the
evaluator's matrices and source maps, and the text format. The repeated block
that unitary raises to a power is a period of the codes; the power is taken
when the block's dense gates, repeated, cost more than the squarings. A run of
monomial gates is one gather and is priced at nothing, so a block of them
alone is never squared.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, isqrt

import numpy as np

from ._config import check_qubit_count
from ._read import complex_array, integers, reals

__all__ = [
    "Gate",
    "Circuit",
    "gate_conventions",
    "unitary",
    "apply",
    "ancilla_ground_block",
    "circuit_to_text",
    "circuit_from_text",
]

@dataclass(frozen=True, init=False)
class Gate:
    """One gate: kind, wires in listed order (controls first), real parameters.

    For MCX/MCRX the last wire is the target and polarities holds one bit per
    control (1 = trigger on up, 0 = trigger on down).
    """

    kind: str
    qubits: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    polarities: tuple[int, ...] = ()

    def __init__(self, kind: str, qubits=(), params=(), polarities=()) -> None:
        if kind not in _GATES:
            raise ValueError(f"unknown gate kind {kind!r}")
        qubits = integers(qubits, "wire indices must be integers")
        params = reals(params, "gate parameters must be real numbers")
        polarities = integers(polarities, "polarities must be 0 or 1", bits=True)
        n_wires, n_params, _ = _GATES[kind]
        if n_wires is None:
            if len(qubits) < 2:
                raise ValueError(f"{kind} needs at least one control and a target")
            if len(polarities) != len(qubits) - 1:
                raise ValueError("one polarity bit per control is required")
            if set(polarities) - {0, 1}:
                raise ValueError("polarities must be 0 or 1")
        else:
            if len(qubits) != n_wires:
                raise ValueError(f"{kind} acts on {n_wires} wires")
            if polarities:
                raise ValueError(f"{kind} takes no polarities")
        if len(params) != n_params:
            raise ValueError(f"{kind} takes {n_params} parameter(s)")
        if len(set(qubits)) != len(qubits):
            raise ValueError("gate wires must be distinct")
        if any(q < 1 for q in qubits):
            raise ValueError("wire indices are 1-based")
        if not all(map(isfinite, params)):
            raise ValueError("gate parameters must be finite")
        if kind == "CRK":
            k = params[0]
            if k != int(k) or k < 1:
                raise ValueError("CRK order k must be a positive integer (at least 1)")
        self.__dict__.update(
            kind=kind, qubits=qubits, params=params, polarities=polarities,
            _hash=hash((kind, qubits, params, polarities)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # no stored hash: string hashes differ between processes
        return Gate, (self.kind, self.qubits, self.params, self.polarities)

    @classmethod
    def _unchecked(cls, kind: str, qubits: tuple, params: tuple, polarities: tuple = ()) -> Gate:
        """The gate of fields that already passed __init__ (int and float
        tuples), such as a valid gate's moved onto other distinct wires; the
        checks are not run again."""
        g = object.__new__(cls)
        g.__dict__.update(
            kind=kind, qubits=qubits, params=params, polarities=polarities,
            _hash=hash((kind, qubits, params, polarities)),
        )
        return g


class _Table:
    """Distinct gates in first-use order; a gate's code is its place in the list."""

    def __init__(self) -> None:
        self.gates: list[Gate] = []
        self._codes: dict = {}
        self._built: dict = {}

    def code(self, g: Gate) -> int:
        # -0.0 == 0.0 with one hash, but the two print and lower differently,
        # so a gate holding a zero is keyed together with its parameters' repr
        code = self._codes.setdefault((g, repr(g.params)) if 0.0 in g.params else g, len(self.gates))
        if code == len(self.gates):
            self.gates.append(g)
        return code

    def make(self, *args) -> int:
        """The code of Gate(*args), built on first use only; raw arguments cannot
        tell -0.0 from 0.0, so a gate holding a zero is built each time."""
        code = self._built.get(args)
        if code is None:
            g = Gate(*args)
            code = self.code(g)
            if 0.0 not in g.params:
                self._built[args] = code
        return code


@dataclass(frozen=True, init=False)
class Circuit:
    """Ordered gate list over n_qubits data wires plus n_ancillas ancilla wires.

    Held as table, the distinct gates in first-use order, and codes, one index
    into table per occurrence; gates is the occurrences themselves, read from
    those two. Circuit(n, a, gates) interns its gates; equality, hashing and
    dataclasses.replace go by (n_qubits, n_ancillas, gates).
    """

    n_qubits: int
    n_ancillas: int = 0
    gates: tuple[Gate, ...]  # a field for equality, repr and replace; see below

    def __init__(self, n_qubits: int, n_ancillas: int = 0, gates: Iterable[Gate] = ()) -> None:
        gates = tuple(gates)
        table = _Table()
        self._fill(n_qubits, n_ancillas, table.gates, [table.code(g) for g in gates])
        self.__dict__["gates"] = gates

    @classmethod
    def _from_codes(cls, n_qubits: int, n_ancillas: int, table, codes) -> Circuit:
        """The circuit of table[k] for each k in codes, table holding distinct
        gates in first-use order (as a _Table builds them)."""
        c = cls.__new__(cls)
        c._fill(n_qubits, n_ancillas, table, codes)
        return c

    def _fill(self, n_qubits: int, n_ancillas: int, table, codes) -> None:
        n_qubits, n_ancillas = integers((n_qubits, n_ancillas), "wire counts must be integers")
        w = n_qubits + n_ancillas
        if n_qubits < 0 or n_ancillas < 0:
            raise ValueError("wire counts must be nonnegative")
        if w < 1:
            raise ValueError("circuit needs at least one wire")
        for g in table:
            if any(q > w for q in g.qubits):
                raise ValueError(f"gate {g.kind} touches wire beyond {w}")
        self.__dict__.update(
            n_qubits=n_qubits, n_ancillas=n_ancillas, table=tuple(table), codes=tuple(codes)
        )

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(map(self.table.__getitem__, self.codes))

    @property
    def n_wires(self) -> int:
        return self.n_qubits + self.n_ancillas


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])


_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_XXOP = np.kron(_X, _X)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[6:, 6:] = _X


def _aphase(eps: float) -> np.ndarray:
    return np.diag([1.0, np.exp(-1j * eps)])


def _cphase(phi: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])


def _crk(k: float) -> np.ndarray:
    return _cphase(2.0 * np.pi * 2.0**-k)  # a huge k underflows to the identity


def _xx(chi: float) -> np.ndarray:
    return np.cos(chi) * np.eye(4) + 1j * np.sin(chi) * _XXOP


def _crx(theta: float) -> np.ndarray:
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = _rx(theta)
    return u


def _gphase(phi: float) -> np.ndarray:
    return np.array([[np.exp(1j * phi)]])


# kind -> (wires, params, matrix). None wires = any number of controls before
# the target, and the matrix is then the target block. A matrix is an array
# or a builder taking the gate's one parameter; GPHASE acts on no wire and
# its 1 x 1 matrix is the scalar e^{i phi}.
_GATES: dict[str, tuple[int | None, int, object]] = {
    "RX": (1, 1, _rx),
    "RY": (1, 1, _ry),
    "RZ": (1, 1, _rz),
    "H": (1, 0, _H),
    "X": (1, 0, _X),
    "APHASE": (1, 1, _aphase),
    "CNOT": (2, 0, _CNOT),
    "SWAP": (2, 0, _SWAP),
    "XX": (2, 1, _xx),
    "CPHASE": (2, 1, _cphase),
    "CRK": (2, 1, _crk),
    "CRX": (2, 1, _crx),
    "TOFFOLI": (3, 0, _TOFFOLI),
    "MCX": (None, 0, _X),
    "MCRX": (None, 1, _rx),
    "GPHASE": (0, 1, _gphase),
}


def _is_monomial(mat) -> bool:
    """One nonzero per column, judged at a generic parameter for builders."""
    if callable(mat):
        mat = mat(0.618)
    return bool(np.all(np.count_nonzero(mat, axis=0) == 1))


# Kinds that only relabel basis states and phase them: _run composes these
# as source maps instead of multiplying matrices. A multi-control gate is
# monomial exactly when its target block is.
_MONOMIAL = frozenset(kind for kind, (_, _, mat) in _GATES.items() if _is_monomial(mat))

# Kinds on more than two wires or on any number of them: they stand alone in _plan.
_WIDE = frozenset(kind for kind, (n_wires, _, _) in _GATES.items() if n_wires is None or n_wires > 2)


def gate_conventions() -> dict[str, object]:
    """Defining matrices (index order down=0, up=1); single source of truth.

    Fixed gates map to arrays, parametrized gates to callables. R_a(theta) =
    exp(-i theta sigma_a / 2) with Z = diag(-1, +1); A_eps = diag(1, e^{-i eps});
    T_k = diag(1, e^{i 2 pi / 2^k}); XX(chi) = exp(+i chi X@X).
    """
    out: dict[str, object] = {
        "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
        "Z": np.diag([-1.0 + 0j, 1.0 + 0j]),
        "T": lambda k: np.diag([1.0, np.exp(2j * np.pi * 2.0**-k)]),
    }
    for kind, (n_wires, _, mat) in _GATES.items():
        if n_wires:  # multi-controls have no fixed-size matrix; GPHASE acts on no wire
            out[kind] = mat.copy() if isinstance(mat, np.ndarray) else mat
    return out


def _gate_matrix(g: Gate) -> np.ndarray:
    """The gate's matrix; for MCX/MCRX the 2 x 2 block on the target."""
    mat = _GATES[g.kind][2]
    return mat(*g.params) if callable(mat) else mat


def _index_map(qubits: tuple[int, ...], mat: np.ndarray, w: int):
    """(src, phase): the monomial matrix on one wire, or two in increasing
    order, maps the amplitudes psi of a w-wire register to out[j] = phase[j] *
    psi[src[j]]; phase is None when every factor is 1. Both come from _dense:
    the matrix's 0/1 pattern applied to the column of basis indices, and the
    matrix applied to a column of ones, exact since each row has one nonzero."""
    src = _dense(np.arange(1 << w, dtype=float)[:, None], qubits, (mat != 0).astype(float))
    phase = None if (mat[mat != 0] == 1).all() else _dense(np.ones((1 << w, 1)), qubits, mat)[:, 0]
    return src[:, 0].astype(np.intp), phase


def _gather(psi: np.ndarray, src: np.ndarray, phase: np.ndarray | None) -> np.ndarray:
    """out[j] = phase[j] * psi[src[j]] for every row j, as one gather."""
    out = np.take(psi, src, axis=0)
    if phase is not None:
        out *= phase[:, None]
    return out


def _ascending(qubits: tuple[int, ...], mat: np.ndarray):
    """(qubits, mat) of the same gate with its wires in increasing order: a
    gate on (q2, q1) is the transposed-index form of its matrix on (q1, q2)."""
    if len(qubits) == 2 and qubits[0] > qubits[1]:
        return qubits[::-1], mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return qubits, mat


def _dense(psi: np.ndarray, qubits: tuple[int, ...], mat: np.ndarray) -> np.ndarray:
    """Multiply the matrix into one wire, or two in increasing order, of a (2^w, batch) block."""
    if len(qubits) == 1:
        t = psi.reshape(1 << (qubits[0] - 1), 2, -1)
        # matmul makes one BLAS call per index of the axis left out of the
        # 2 x n core, so leave out the shorter of the outer two: for a state
        # vector and a wire near the end of the register that is the last.
        core = (1, 2) if t.shape[0] <= t.shape[2] else (1, 0)
        return np.matmul(mat, t, axes=[(0, 1), core, core]).reshape(psi.shape)
    # One GEMM over the pair's four index values; besides psi, at most two
    # block-sized arrays live at once (the transposed copy and the product,
    # then the product and the result).
    a, b = qubits
    t = psi.reshape(1 << (a - 1), 2, 1 << (b - a - 1), 2, -1).transpose(1, 3, 0, 2, 4)
    shape = t.shape
    t = mat @ t.reshape(4, -1)
    return t.reshape(shape).transpose(2, 0, 3, 1, 4).reshape(psi.shape)


def _prepare(g: Gate, mat: np.ndarray, w: int):
    """What _run needs of one gate with matrix mat (see _gate_matrix) on w wires:
    a monomial gate's source map (src, phase) (see _index_map), any other gate
    a function that applies it to a block. GPHASE keeps every index in place
    and scales it by its one scalar.

    A multi-control, and a Toffoli as the multi-control with both controls up,
    acts on the basis indices whose controls match. MCX and the Toffoli flip
    the target bit of those indices; MCRX is its target block on the
    sub-register they form: in increasing order, they run over the other
    wires' bits with the target in its place among them.
    """
    if not g.qubits:
        return np.arange(1 << w), (None if mat[0, 0] == 1 else np.full(1 << w, mat[0, 0]))
    if g.kind not in _WIDE:
        qubits, mat = _ascending(g.qubits, mat)
        if g.kind in _MONOMIAL:
            return _index_map(qubits, mat, w)
        return lambda psi: _dense(psi, qubits, mat)
    controls, target = g.qubits[:-1], g.qubits[-1]
    mask = sum(1 << (w - q) for q in controls)
    want = sum(pol << (w - q) for q, pol in zip(controls, g.polarities or (1, 1)))
    idx = np.arange(1 << w)
    on = idx[(idx & mask) == want]
    if g.kind in _MONOMIAL:
        idx[on] ^= 1 << (w - target)
        return idx, None
    local = (target - sum(q < target for q in controls),)

    def on_matching(psi):
        out = psi.copy()
        out[on] = _dense(psi[on], local, mat)
        return out

    return on_matching


def _fused(gates: list[Gate], mats: list[np.ndarray], wires: tuple[int, ...]) -> np.ndarray:
    """The product of a run of gates with these matrices, first gate rightmost,
    on wires (one, or two in increasing order): 2 x 2 or 4 x 4."""
    u = np.eye(1 << len(wires), dtype=complex)
    for g, mat in zip(gates, mats):
        if not g.qubits:  # GPHASE, a 1 x 1 scalar
            u = mat * u
        elif len(g.qubits) == len(wires):
            u = _ascending(g.qubits, mat)[1] @ u
        elif g.qubits[0] == wires[0]:  # the first of two wires: mat (x) I
            u = (mat @ u.reshape(2, 8)).reshape(4, 4)
        else:  # the second: I (x) mat
            u = (mat @ u.reshape(2, 2, 4)).reshape(4, 4)
    return u


def _plan(table, codes) -> list:
    """The steps by which _run evaluates codes over table.

    A step is a code, whose gate is applied alone, or a fused run: (its codes,
    its wires in increasing order), applied as one matrix. One forward pass
    cuts the codes into runs: each run's wires are a bitmask, and a run ends
    where the next gate's wires would bring it to a third wire. GPHASE, on no
    wire, fits anywhere; a gate of _WIDE never fits and stands alone. A run is
    fused when it holds at least three dense gates (one 4 x 4 pass costs about
    two to three one-wire passes) and a monomial gate, whose source map and
    gather fusing saves; otherwise its codes are applied one by one.
    """
    dense = [g.kind not in _MONOMIAL for g in table] + [False]
    # three bits (wire "0" is never used) keep a wide gate out of every run
    masks = [0b111 if g.kind in _WIDE else sum(1 << q for q in g.qubits) for g in table] + [0b111]
    steps: list = []
    start = mask = held = 0
    for i, k in enumerate((*codes, len(table))):  # the extra wide code ends the last run
        if (mask | masks[k]).bit_count() > 2:
            run = codes[start:i]
            if held >= 3 and len(run) > held:
                steps.append((run, tuple(q for q in range(mask.bit_length()) if mask >> q & 1)))
            else:
                steps.extend(run)
            start = i
            mask = held = 0
        mask |= masks[k]
        held += dense[k]
    return steps


def _run(c: Circuit, block: np.ndarray, codes=None) -> np.ndarray:
    """Apply the circuit's gates (or those of codes, default c.codes) to a
    (2^w, batch) amplitude block, by the steps of _plan.

    Each distinct gate's matrix is built once, on first use (_gate_matrix),
    and each distinct step is prepared once, on first use: a gate applied
    alone by _prepare, a fused run as the kernel of its product. Monomial
    gates extend one pending source map by a gather each, src = src[perm]
    and phase = phase[perm] * factor; the block is gathered through it
    (_gather) once per run of them, before the next kernel and at the end.
    """
    w, table = c.n_wires, c.table
    mats = [None] * len(table)
    prepared: dict = {}

    def matrix(k: int) -> np.ndarray:
        if mats[k] is None:
            mats[k] = _gate_matrix(table[k])
        return mats[k]

    def prepare(step):
        if not isinstance(step, tuple):
            return _prepare(table[step], matrix(step), w)
        run, wires = step
        mat = _fused([table[k] for k in run], [matrix(k) for k in run], wires)
        return lambda psi: _dense(psi, wires, mat)

    psi = block
    src = phase = None
    for step in _plan(table, c.codes if codes is None else codes):
        prep = prepared.get(step)
        if prep is None:
            prep = prepared[step] = prepare(step)
        if callable(prep):
            if src is not None:
                psi, src = _gather(psi, src, phase), None
            psi = prep(psi)
        elif src is None:
            src, phase = prep
        else:
            perm, factor = prep
            src, phase = src[perm], None if phase is None else phase[perm]
            if factor is not None:
                phase = factor if phase is None else phase * factor
    return psi if src is None else _gather(psi, src, phase)


def _period(codes: tuple[int, ...]) -> int:
    """The shortest p with codes == codes[:p] * (len(codes) // p); 0 for no codes."""
    n = len(codes)
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    for p in small + [n // k for k in reversed(small)]:
        if codes[p % n] == codes[0] and codes[:p] * (n // p) == codes:
            return p
    return 0


# About how many dense (non-monomial) gates, applied to the identity, one
# 2^w x 2^w matmul costs, by w, priced as one-wire gates alone: a dense gate
# on two wires or a multi-control costs more, a run of monomial gates is one
# gather and is priced at nothing (one BLAS thread, 2-core x86 host); beyond
# the table it doubles per wire.
_MATMUL_IN_GATES = (0.5,) * 6 + (2.6, 4.8, 9.0, 20.0, 40.0, 40.0)


def _power_pays(p: int, reps: int, w: int) -> bool:
    """Whether p dense gates plus at most 2 bit_length(reps) matmuls beat reps * p."""
    last = len(_MATMUL_IN_GATES) - 1
    ratio = _MATMUL_IN_GATES[min(w, last)] * 2.0 ** max(0, w - last)
    return (reps - 1) * p > 2 * reps.bit_length() * ratio


def unitary(c: Circuit) -> np.ndarray:
    """Exact 2^(n+a) x 2^(n+a) product of the gate matrices, in order.

    Codes made of one block repeated reps times are evaluated as the block's
    unitary raised to the power reps, when the block's dense gates, reps
    times over, cost more than the squarings (see _power_pays).
    """
    check_qubit_count(c.n_wires, "circuit unitary")
    dim = 1 << c.n_wires
    codes, table = c.codes, c.table
    p = _period(codes)
    block, reps = codes[:p], len(codes) // p if p else 1
    if reps > 1:
        dense = sum(table[k].kind not in _MONOMIAL for k in block)
        if not _power_pays(dense, reps, c.n_wires):
            block, reps = codes, 1
    return np.linalg.matrix_power(_run(c, np.eye(dim, dtype=complex), block), reps)


def apply(c: Circuit, state):
    """Apply the circuit to a state vector (ndarray or an object with .amps)."""
    amps = complex_array(getattr(state, "amps", state), "amplitudes")
    dim = 1 << c.n_wires
    if amps.shape != (dim,):
        raise ValueError(f"state dimension {amps.shape} does not match {dim} amplitudes")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    out = _run(c, amps.reshape(dim, 1)).reshape(dim)
    if hasattr(state, "amps"):
        # rounding over a long circuit can move the norm past a state's 1e-12
        # input check, so the result is made without running that check again
        result = object.__new__(type(state))
        object.__setattr__(result, "amps", out)
        return result
    return out


def ancilla_ground_block(u: np.ndarray, n_ancillas: int) -> np.ndarray:
    """Sub-matrix of a full-register unitary over the ancillas-down sector.

    Ancillas are the trailing (least significant) wires; the block is unitary
    exactly when the circuit returns grounded ancillas to ground with no
    amplitude leakage.
    """
    if n_ancillas == 0:
        return np.asarray(u)
    u = np.asarray(u)
    step = 1 << n_ancillas
    return u[::step, ::step]


def _format_num(x: float) -> str:
    return f"{x:.17g}"


def _gate_line(g: Gate) -> str:
    parts = [g.kind]
    if g.kind in ("MCX", "MCRX"):
        for q, pol in zip(g.qubits, g.polarities):
            parts.append(("+" if pol else "-") + f"q{q}")
        parts.append(f"q{g.qubits[-1]}")
    else:
        parts.extend(f"q{q}" for q in g.qubits)
    parts.extend(_format_num(p) for p in g.params)
    return " ".join(parts)


def circuit_to_text(c: Circuit) -> str:
    """One gate per line after a 'QUBITS n ANCILLAS a' header; round trips bit-exactly.

    Each distinct gate is formatted once.
    """
    lines = [_gate_line(g) for g in c.table]
    header = f"QUBITS {c.n_qubits} ANCILLAS {c.n_ancillas}"
    return "\n".join([header, *map(lines.__getitem__, c.codes)]) + "\n"


def _parse_gate(ln: str) -> Gate:
    tokens = ln.split()
    kind = tokens[0]
    qubits: list[int] = []
    polarities: list[int] = []
    signed: list[bool] = []
    params: list[float] = []
    for tok in tokens[1:]:
        if tok.startswith(("+q", "-q")):
            polarities.append(1 if tok[0] == "+" else 0)
            qubits.append(int(tok[2:]))
            signed.append(True)
        elif tok.startswith("q"):
            qubits.append(int(tok[1:]))
            signed.append(False)
        else:
            params.append(float(tok))
    if kind in ("MCX", "MCRX") and signed != [True] * (len(signed) - 1) + [False]:
        raise ValueError(f"{kind} needs a +q/-q polarity on every control and none on the target")
    return Gate(kind, tuple(qubits), tuple(params), tuple(polarities))


def circuit_from_text(text: str) -> Circuit:
    """Parse the textual circuit format.

    MCX/MCRX need a +q/-q polarity on every control and none on the target;
    other kinds take plain q wires. Each distinct line is parsed and its gate
    validated once.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty circuit text")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "QUBITS" or header[2] != "ANCILLAS":
        raise ValueError("circuit text must start with 'QUBITS n ANCILLAS a'")
    n, a = int(header[1]), int(header[3])
    table = _Table()
    line_codes = dict.fromkeys(lines[1:])
    for ln in line_codes:
        line_codes[ln] = table.code(_parse_gate(ln))
    return Circuit._from_codes(n, a, table.gates, map(line_codes.__getitem__, lines[1:]))
