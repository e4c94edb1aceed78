"""Decompositions of named gates into the fundamental set {RX, RZ, XX}.

Each constructor returns a Circuit whose unitary equals the target gate
exactly (a trailing GPHASE absorbs the decomposition's global phase, so the
equality is entrywise, not just projective). The angle sequences were solved
numerically against dense oracles; see DEVIATIONS.md for where they differ
from commonly tabulated forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .circuit import Circuit, Gate, _integers, _reals

__all__ = [
    "FundamentalPulse",
    "euler_decompose",
    "decompose_cnot",
    "decompose_toffoli",
    "decompose_controlled_rx",
    "decompose_cphase",
    "decompose_controlled_rk",
    "decompose_swap",
    "expand_multicontrol",
]

_PI = np.pi


@dataclass(frozen=True)
class FundamentalPulse:
    """Piecewise-constant activation of one Hamiltonian term.

    term is "eps" (Z on one qubit), "delta" (X on one qubit), or "vperp"
    (XX on a pair); strength is the term's coefficient while on; duration
    is the on-time.
    """

    term: str
    qubits: tuple[int, ...]
    strength: float
    duration: float

    def __post_init__(self) -> None:
        if self.term not in ("eps", "delta", "vperp"):
            raise ValueError(f"unknown pulse term {self.term!r}")
        n_wires = 2 if self.term == "vperp" else 1
        object.__setattr__(self, "qubits", _integers(self.qubits, "pulse wire indices must be integers"))
        if len(self.qubits) != n_wires:
            raise ValueError(f"{self.term} pulse acts on {n_wires} qubit(s)")
        if any(q < 1 for q in self.qubits):
            raise ValueError("pulse wire indices are 1-based")
        if len(set(self.qubits)) != n_wires:
            raise ValueError("pulse wires must be distinct")
        _reals((self.strength, self.duration), "pulse strength and duration must be real numbers")
        if not isfinite(self.strength):
            raise ValueError("pulse strength must be finite")
        if not isfinite(self.duration) or self.duration < 0:
            raise ValueError("pulse duration must be nonnegative")


def _wrap_pi(x: float) -> float:
    """Reduce an angle to the canonical range (-pi, pi]."""
    y = x % (2.0 * _PI)
    if y > _PI:
        y -= 2.0 * _PI
    return y


def _wrap_z_angle(x: float) -> tuple[float, int]:
    """Wrap a Z-rotation angle to (-pi, pi], tracking the sign of RZ.

    RZ is 4 pi periodic: each 2 pi shift flips the overall sign, which the
    caller must absorb into the global phase.
    """
    y = _wrap_pi(x)
    k = round((x - y) / (2.0 * _PI))
    return y, k % 2


def euler_decompose(u: np.ndarray) -> tuple[float, float, float, float]:
    """Split a 2x2 unitary as e^{i alpha} RZ(theta) RX(gamma) RZ(xi).

    Returns (alpha, theta, gamma, xi) with theta, xi in (-pi, pi] and
    gamma in [0, 2 pi).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("input must be a 2x2 matrix")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10:
        raise ValueError("input matrix is not unitary")
    alpha = float(np.angle(np.linalg.det(u)) / 2.0)
    su = np.exp(-1j * alpha) * u
    a, b = su[0, 0], su[0, 1]
    gamma = 2.0 * float(np.arctan2(abs(b), abs(a)))
    if abs(a) < 1e-12:
        theta, flip = _wrap_z_angle(2.0 * (float(np.angle(b)) + _PI / 2.0))
        return alpha + flip * _PI, theta, _PI, 0.0
    if abs(b) < 1e-12:
        theta, flip = _wrap_z_angle(2.0 * float(np.angle(a)))
        return alpha + flip * _PI, theta, 0.0, 0.0
    ssum = 2.0 * float(np.angle(a))
    sdif = 2.0 * (float(np.angle(b)) + _PI / 2.0)
    theta, flip_t = _wrap_z_angle((ssum + sdif) / 2.0)
    xi, flip_x = _wrap_z_angle((ssum - sdif) / 2.0)
    return alpha + ((flip_t + flip_x) % 2) * _PI, theta, gamma, xi


def _both(kind: str, angle: float) -> list[Gate]:
    """The one-wire gate kind(angle) on wire 1, then on wire 2."""
    return [Gate(kind, (1,), (angle,)), Gate(kind, (2,), (angle,))]


def decompose_cnot() -> Circuit:
    """CNOT (control q1, target q2) from single-qubit pulses and one XX(pi/4)."""
    gates = (
        Gate("RZ", (1,), (_PI / 2,)),
        Gate("RX", (1,), (-_PI / 2,)),
        Gate("RZ", (1,), (-_PI / 2,)),
        Gate("XX", (1, 2), (_PI / 4,)),
        Gate("RZ", (1,), (_PI / 2,)),
        Gate("RX", (1,), (_PI / 2,)),
        Gate("RX", (2,), (-_PI / 2,)),
        Gate("GPHASE", (), (-_PI / 4,)),
    )
    return Circuit(2, 0, gates)


def decompose_cphase(phi: float) -> Circuit:
    """Controlled phase diag(1,1,1,e^{i phi}) via one XX(phi/4) pulse.

    The single-qubit frames conjugate XX into ZZ; together with the trailing
    Z rotations and the GPHASE this reproduces the controlled phase exactly
    for every angle.
    """
    phi = float(phi)
    chi = phi / 4.0
    gates = _both("RZ", _PI / 2) + _both("RX", _PI / 2) + _both("RZ", -_PI / 2)
    gates.append(Gate("XX", (1, 2), (chi,)))
    gates += _both("RZ", _PI / 2) + _both("RX", -_PI / 2) + _both("RZ", -(_PI / 2.0 + phi / 2.0))
    gates.append(Gate("GPHASE", (), (chi,)))
    return Circuit(2, 0, tuple(gates))


def decompose_controlled_rk(k: int) -> Circuit:
    """Controlled-T_k (phase e^{i 2 pi / 2^k} on up-up) via one XX(pi/2^{k+1})."""
    k = Gate("CRK", (1, 2), (k,)).params[0]  # the gate owns the rule for its order
    return decompose_cphase(2.0 * _PI * 2.0**-k)


def decompose_swap() -> Circuit:
    """SWAP from three XX(pi/4) blocks with interleaved single-qubit pulses."""
    gates = _both("RZ", _PI / 2) + _both("RX", _PI / 2) + _both("RZ", -_PI / 2)
    gates.append(Gate("XX", (1, 2), (_PI / 4,)))
    gates += _both("RZ", _PI / 2) + _both("RX", -_PI / 2)
    gates.append(Gate("XX", (1, 2), (_PI / 4,)))
    gates += _both("RZ", -_PI / 2)
    gates.append(Gate("XX", (1, 2), (_PI / 4,)))
    gates.append(Gate("GPHASE", (), (-_PI / 4,)))
    return Circuit(2, 0, tuple(gates))


def decompose_controlled_rx(eps: float) -> Circuit:
    """Controlled-RX(2 eps) (control q1) from RY/RZ rotations and two CNOTs."""
    eps = float(eps)
    gates = (
        Gate("RZ", (2,), (_PI / 2,)),
        Gate("CNOT", (1, 2)),
        Gate("RY", (2,), (-eps,)),
        Gate("CNOT", (1, 2)),
        Gate("RY", (2,), (eps,)),
        Gate("RZ", (2,), (-_PI / 2,)),
    )
    return Circuit(2, 0, gates)


def _controlled_sqrt_x(control: int, target: int, dagger: bool) -> list[Gate]:
    """Controlled V (V^2 = X, V = e^{i pi/4} RX(pi/2)) over {RY, RZ, CNOT, APHASE}."""
    s = -1.0 if dagger else 1.0
    return [
        Gate("RY", (target,), (_PI / 2,)),
        Gate("CNOT", (control, target)),
        Gate("RZ", (target,), (s * _PI / 4,)),
        Gate("CNOT", (control, target)),
        Gate("RZ", (target,), (-s * _PI / 4,)),
        Gate("RY", (target,), (-_PI / 2,)),
        Gate("APHASE", (control,), (-s * _PI / 4,)),
    ]


def decompose_toffoli() -> Circuit:
    """Toffoli (controls q1 q2, target q3) via controlled square roots of X.

    Uses only {RY, RZ, CNOT, APHASE}; equals the 8x8 Toffoli matrix exactly
    (no leftover global phase).
    """
    gates: list[Gate] = []
    gates += _controlled_sqrt_x(2, 3, dagger=False)
    gates.append(Gate("CNOT", (1, 2)))
    gates += _controlled_sqrt_x(2, 3, dagger=True)
    gates.append(Gate("CNOT", (1, 2)))
    gates += _controlled_sqrt_x(1, 3, dagger=False)
    return Circuit(3, 0, tuple(gates))


def expand_multicontrol(g: Gate, n_qubits: int) -> Circuit:
    """Rewrite an MCX/MCRX gate as a Toffoli ladder over m-1 fresh ancillas.

    The ladder folds the AND of the (polarity-adjusted) controls into the
    last ancilla, applies the singly-controlled target operation from there,
    then uncomputes; ancillas start and end exactly down. With one control
    the ladder is empty and the target operation is controlled by it
    directly (CNOT or CRX); two-control MCX is a plain Toffoli, which needs
    no ancilla.
    """
    if g.kind not in ("MCX", "MCRX"):
        raise ValueError("only MCX and MCRX gates can be expanded")
    if any(q > n_qubits for q in g.qubits):
        raise ValueError("gate wires exceed the data register")
    controls = g.qubits[:-1]
    target = g.qubits[-1]
    m = len(controls)
    flips = [Gate("X", (c,)) for c, pol in zip(controls, g.polarities) if pol == 0]
    if m == 2 and g.kind == "MCX":
        gates = flips + [Gate("TOFFOLI", (controls[0], controls[1], target))] + flips[::-1]
        return Circuit(n_qubits, 0, tuple(gates))

    anc = [n_qubits + i + 1 for i in range(m - 1)]
    ladder = [Gate("TOFFOLI", (controls[0], controls[1], anc[0]))] if anc else []
    for i in range(2, m):
        ladder.append(Gate("TOFFOLI", (controls[i], anc[i - 2], anc[i - 1])))
    wire = (anc or controls)[-1]  # holds the AND of the controls
    core = Gate("CNOT", (wire, target)) if g.kind == "MCX" else Gate("CRX", (wire, target), g.params)
    gates = flips + ladder + [core] + ladder[::-1] + flips[::-1]
    return Circuit(n_qubits, len(anc), tuple(gates))
