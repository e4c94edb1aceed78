"""Gate-level intermediate representation and exact unitary evaluation.

Wire convention matches pauli.to_matrix: qubit 1 is the most significant
factor, basis index = integer value of the bit string, controls trigger on
the up spin (bit 1) unless a polarity says otherwise. Ancilla wires follow
the data wires, so wire indices run 1..n_qubits+n_ancillas.

Gate kinds: RX, RY, RZ, H, X, APHASE (diag(1, e^{-i eps})), CNOT, SWAP,
TOFFOLI, CRK (diag(1,1,1,e^{i 2 pi/2^k})), CPHASE, XX (exp(+i chi X@X)),
CRX, MCX/MCRX with per-control polarities, and GPHASE (scalar e^{i phi},
used to keep decompositions exactly equal to their targets).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._config import check_qubit_count

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

@dataclass(frozen=True)
class Gate:
    """One gate: kind, wires in listed order (controls first), real parameters.

    For MCX/MCRX the last wire is the target and polarities holds one bit per
    control (1 = trigger on up, 0 = trigger on down).
    """

    kind: str
    qubits: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    polarities: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "polarities", tuple(int(b) for b in self.polarities))
        n_wires, n_params, _ = _GATES[self.kind]
        if n_wires is None:
            if len(self.qubits) < 2:
                raise ValueError(f"{self.kind} needs at least one control and a target")
            if len(self.polarities) != len(self.qubits) - 1:
                raise ValueError("one polarity bit per control is required")
            if set(self.polarities) - {0, 1}:
                raise ValueError("polarities must be 0 or 1")
        else:
            if len(self.qubits) != n_wires:
                raise ValueError(f"{self.kind} acts on {n_wires} wires")
            if self.polarities:
                raise ValueError(f"{self.kind} takes no polarities")
        if len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_params} parameter(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate wires must be distinct")
        if any(q < 1 for q in self.qubits):
            raise ValueError("wire indices are 1-based")
        if any(not np.isfinite(p) for p in self.params):
            raise ValueError("gate parameters must be finite")
        if self.kind == "CRK":
            k = self.params[0]
            if k != int(k) or k < 1:
                raise ValueError("CRK order k must be a positive integer")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over n_qubits data wires plus n_ancillas ancilla wires."""

    n_qubits: int
    n_ancillas: int = 0
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_qubits < 0 or self.n_ancillas < 0:
            raise ValueError("wire counts must be nonnegative")
        if self.n_qubits + self.n_ancillas < 1:
            raise ValueError("circuit needs at least one wire")
        object.__setattr__(self, "gates", tuple(self.gates))
        w = self.n_wires
        for g in self.gates:
            if any(q > w for q in g.qubits):
                raise ValueError(f"gate {g.kind} touches wire beyond {w}")

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


def _multicontrol(polarities: tuple[int, ...], core: np.ndarray) -> np.ndarray:
    m = len(polarities)
    dim = 1 << (m + 1)
    u = np.eye(dim, dtype=complex)
    offset = 0
    for i, pol in enumerate(polarities):
        offset |= pol << (m - i)
    block = slice(offset, offset + 2)
    u[block, block] = core
    return u


# kind -> (wires, params, matrix). None wires = any number of controls before
# the target, and the matrix is then the target block. A matrix is an array
# or a builder taking the gate's one parameter; GPHASE is applied by _run.
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
    "GPHASE": (0, 1, None),
}


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
        if n_wires:  # multi-controls and GPHASE have no fixed-size matrix
            out[kind] = mat.copy() if isinstance(mat, np.ndarray) else mat
    return out


def _gate_matrix(g: Gate) -> np.ndarray:
    n_wires, _, mat = _GATES[g.kind]
    if callable(mat):
        mat = mat(*g.params)
    return mat if n_wires is not None else _multicontrol(g.polarities, mat)


def _run(c: Circuit, block: np.ndarray) -> np.ndarray:
    """Apply the circuit to a (2^w, batch) amplitude block, gate by gate."""
    w = c.n_wires
    batch = block.shape[1]
    psi = block
    for g in c.gates:
        if g.kind == "GPHASE":
            psi = psi * np.exp(1j * g.params[0])
            continue
        mat = _gate_matrix(g)
        k = len(g.qubits)
        src = [q - 1 for q in g.qubits]
        t = psi.reshape([2] * w + [batch])
        t = np.moveaxis(t, src, range(k))
        t = mat @ t.reshape(1 << k, -1)
        t = t.reshape([2] * k + [2] * (w - k) + [batch])
        t = np.moveaxis(t, range(k), src)
        psi = t.reshape(1 << w, batch)
    return psi


def _repeated_block(gates: tuple[Gate, ...]) -> tuple[tuple[Gate, ...], int]:
    """(block, reps) with block * reps == gates and the block as short as possible."""
    n = len(gates)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and gates[p] == gates[0] and gates[:p] * (n // p) == gates:
            return gates[:p], n // p
    return gates, 1


# About how many gate applications on the identity one 2^w x 2^w matmul costs,
# by w (one BLAS thread, 2-core x86 host); beyond the table it doubles per wire.
_MATMUL_IN_GATES = (0.5,) * 6 + (2.6, 3.6, 6.2, 13.4, 20.6, 20.6)


def _power_pays(p: int, reps: int, w: int) -> bool:
    """Whether p gates plus at most 2 bit_length(reps) matmuls beat reps * p gates."""
    last = len(_MATMUL_IN_GATES) - 1
    ratio = _MATMUL_IN_GATES[min(w, last)] * 2.0 ** max(0, w - last)
    return (reps - 1) * p > 2 * reps.bit_length() * ratio


def unitary(c: Circuit) -> np.ndarray:
    """Exact 2^(n+a) x 2^(n+a) product of the gate matrices, in order.

    A gate tuple made of one block repeated reps times is evaluated as the
    block's unitary raised to the power reps, when the counts say the
    squarings cost less than the gates.
    """
    check_qubit_count(c.n_wires, "circuit unitary")
    dim = 1 << c.n_wires
    block, reps = _repeated_block(c.gates)
    if not _power_pays(len(block), reps, c.n_wires):
        block, reps = c.gates, 1
    u = _run(replace(c, gates=block) if reps > 1 else c, np.eye(dim, dtype=complex))
    return np.linalg.matrix_power(u, reps)


def apply(c: Circuit, state):
    """Apply the circuit to a state vector (ndarray or an object with .amps)."""
    amps = np.asarray(getattr(state, "amps", state), dtype=complex)
    dim = 1 << c.n_wires
    if amps.shape != (dim,):
        raise ValueError(f"state dimension {amps.shape} does not match {dim} amplitudes")
    out = _run(c, amps.reshape(dim, 1)).reshape(dim)
    if hasattr(state, "amps"):
        return type(state)(out)
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


def circuit_to_text(c: Circuit) -> str:
    """One gate per line after a 'QUBITS n ANCILLAS a' header; round trips bit-exactly."""
    lines = [f"QUBITS {c.n_qubits} ANCILLAS {c.n_ancillas}"]
    for g in c.gates:
        parts = [g.kind]
        if g.kind in ("MCX", "MCRX"):
            for q, pol in zip(g.qubits, g.polarities):
                parts.append(("+" if pol else "-") + f"q{q}")
            parts.append(f"q{g.qubits[-1]}")
        else:
            parts.extend(f"q{q}" for q in g.qubits)
        parts.extend(_format_num(p) for p in g.params)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Parse the textual circuit format.

    MCX/MCRX need a +q/-q polarity on every control and none on the target;
    other kinds take plain q wires.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty circuit text")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "QUBITS" or header[2] != "ANCILLAS":
        raise ValueError("circuit text must start with 'QUBITS n ANCILLAS a'")
    n, a = int(header[1]), int(header[3])
    gates = []
    for ln in lines[1:]:
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
        gates.append(Gate(kind, tuple(qubits), tuple(params), tuple(polarities)))
    return Circuit(n, a, tuple(gates))
