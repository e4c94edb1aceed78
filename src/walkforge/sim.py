"""Dense state vectors, exact propagators, and unitary comparison.

Everything here is an oracle-grade reference: matrices are built densely and
exponentiated by exact eigendecomposition, never by splitting formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import check_matrix_dimension, max_qubits
from ._read import complex_array, integers, reals
from .walkgraph import WalkGraph, walk_matrix

__all__ = [
    "StateVector",
    "basis_state",
    "evolve_walk",
    "exact_propagator",
    "fidelity",
    "unitary_distance",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over basis states 0..dim-1."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = complex_array(self.amps, "amplitudes")
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("amplitudes must form a nonempty vector")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN and inf fail too
            raise ValueError(f"state norm {norm} is not 1 within {_NORM_TOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size


def basis_state(dim: int, index: int) -> StateVector:
    """The basis state |index> of a dim-dimensional space; dim is at most
    4^max_qubits(), the entry count of the largest dense matrix the cap allows."""
    dim, index = integers((dim, index), "dimension and index must be integers")
    cap = 4 ** max_qubits()
    if dim > cap:
        raise ValueError(f"state dimension {dim} above the dense cap {cap}")
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def exact_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) by exact eigendecomposition; the oracle all tests compare to.

    h must be a finite Hermitian matrix and t a finite time."""
    shape = np.shape(h)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    check_matrix_dimension(shape[0])
    h = complex_array(h, "matrix")
    (t,) = reals((t,), "evolution time must be a real number")
    if not abs(t) < math.inf:  # NaN fails too
        raise ValueError(f"evolution time {t} is not finite")
    scale = np.max(np.abs(h))
    if not scale < math.inf:
        raise ValueError("matrix entries must be finite")
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, scale):
        raise ValueError("matrix is not hermitian")
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def evolve_walk(g: WalkGraph, psi: StateVector, t: float) -> StateVector:
    """Evolve node amplitudes under the walk generator for time t."""
    h = walk_matrix(g)
    if psi.dim != g.n_nodes:
        raise ValueError("state dimension does not match the node count")
    return StateVector(exact_propagator(h, t) @ psi.amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.dim != b.dim:
        raise ValueError("states live in different dimensions")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# Phase search. A few entries T have their largest residual minimised in closed
# form; every entry is then checked at that phase, and the largest ones above
# T's minimum join T. T's minimum bounds the distance below, so the search ends
# once a checked phase comes within _PHASE_TOL of it, or when no entry is above
# it, or when T holds _FEW entries.
_PHASE_TOL = 1e-16
_FEW = 16
_JOIN = 2


def _minimax(w: list[complex], z: list[complex], theta: float, half: float) -> tuple[float, float, complex]:
    """The minimum of max_k |w_k - (e^{i gamma} - 1) z_k| over |gamma - theta| <= half
    (half <= pi), with its gamma and e^{i gamma} - 1.

    The minimum lies at an end, at a stationary point of one entry, or where two
    entries cross. With gamma = theta + psi and t = tan(psi / 2), each squared
    entry times 1 + t^2 is A t^2 + B t + C, where A = |w' + 2z'|^2,
    B = 4 Im(conj(w') z') and C = |w'|^2 for the residual w' and the term z' at
    theta; none of these cancels at small distances. An entry is stationary
    where B t^2 - 2 (A - C) t - B = 0, with A - C = 4 (Re(conj(w') z') + |z'|^2),
    and two entries cross where their quadratics agree.
    """
    e1 = complex(-2.0 * math.sin(0.5 * theta) ** 2, math.sin(theta))  # e^{i theta} - 1
    coef, quads = [], []
    for wk, zk in zip(w, z):
        zc, wc = (1.0 + e1) * zk, wk - e1 * zk
        x = wc.conjugate() * zc
        a_c, b, c = 4.0 * (x.real + abs(zc) ** 2), 4.0 * x.imag, abs(wc) ** 2
        coef.append((c + a_c, b, c))
        quads.append((b, -2.0 * a_c, -b))
    quads += [(a - a2, b - b2, c - c2) for i, (a, b, c) in enumerate(coef) for a2, b2, c2 in coef[i + 1 :]]
    end = math.tan(0.5 * half)
    ts = [-end, end]
    for a, b, c in quads:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            # both roots, q / a and c / q; a root at infinity is the end psi = pi
            ts += [num / den for num, den in ((q, a), (c, q)) if abs(num) <= end * abs(den) and den != 0.0]
    h, t = min((max((a * t + b) * t + c for a, b, c in coef) / (1.0 + t * t), t) for t in ts)
    psi = 2.0 * math.atan(t)
    # e^{i gamma} - 1 from e^{i theta} and e^{i psi}, so that psi keeps the bits
    # that theta + psi rounds away
    d = e1 + (1.0 + e1) * complex(-2.0 * math.sin(0.5 * psi) ** 2, math.sin(psi))
    return math.sqrt(max(h, 0.0)), theta + psi, d


def _distance_and_phase(u: np.ndarray, v: np.ndarray) -> tuple[float, float, int]:
    """unitary_distance together with the global phase in [-pi, pi] that attains
    it and the flat index of the largest entry of |u - e^{i phase} v| there.

    Where the minimum is a plateau, the phase is one minimiser of several."""
    u = complex_array(u, "first matrix")
    v = complex_array(v, "second matrix")
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("inputs must be square matrices of equal shape")
    dim = u.shape[0]
    eye = np.eye(dim)
    for name, m in (("first", u), ("second", v)):
        if not np.max(np.abs(m.conj().T @ m - eye)) <= 1e-9 * dim:  # NaN fails too
            raise ValueError(f"{name} matrix is not unitary")
    # arg tr(v^dagger u) is exact when u and v agree up to a phase. Phases are
    # offsets gamma from phi0, and the residual there is w - (e^{i gamma} - 1) z.
    phi0 = float(np.angle(np.vdot(v, u)))
    z = (np.exp(1j * phi0) * v).ravel()
    w = u.ravel() - z
    r = np.abs(w)
    worst = int(r.argmax())
    best, gamma = float(r[worst]), 0.0
    au, az = np.abs(u.ravel()), np.abs(z)
    # No phase gets below the modulus gap max ||u_k| - |v_k||.
    gap = float(np.abs(au - az).max())
    if best - gap <= _PHASE_TOL:
        return best, phi0, worst
    # |u_k - e^{i phi} v_k|^2 = (|u_k| - |v_k|)^2 + 4 p_k sin^2((phi - theta_k) / 2)
    # with p_k = |u_k v_k| and theta_k = arg(u_k conj(v_k)), so a phase that beats
    # best lies within 2 asin(best / 2 sqrt(p)) of theta at the largest p. When
    # p = 0 or best >= 2 sqrt(p) the bracket is the whole circle.
    k = int((au * az).argmax())
    p = u.flat[k] * z[k].conjugate()
    theta, root_p = math.atan2(p.imag, p.real), math.sqrt(au[k] * az[k])
    half = 2.0 * math.asin(best / (2.0 * root_p)) if best < 2.0 * root_p else math.pi
    # Start from the largest entry that rises with gamma at phi0 and the largest
    # that falls: the minimum is often where they cross.
    rising = w.real * z.imag > w.imag * z.real  # Im(conj(w) z) > 0
    few = [int((r * rising).argmax()), int((r * ~rising).argmax())]
    join = min(_JOIN, r.size)
    while True:
        low, cand, d = _minimax(w[few].tolist(), z[few].tolist(), theta, half)
        r = np.abs(w - d * z)
        top = int(r.argmax())
        if r[top] < best:
            best, gamma, worst = float(r[top]), cand, top
        if best - max(low, gap) <= _PHASE_TOL or len(few) >= _FEW:
            break
        r[few] = 0.0
        over = np.argpartition(r, -join)[-join:]
        over = over[r[over] > low]
        if over.size == 0:
            break
        few += over.tolist()
    return best, math.remainder(phi0 + gamma, 2.0 * math.pi), worst


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over a global phase of the max-abs entrywise difference u - e^{i phi} v.

    Both matrices are checked for unitarity first, so a distance near zero
    certifies equality up to a physically irrelevant phase. The result never
    exceeds the distance at phi = arg tr(v^dagger u) and is never below the
    modulus gap max ||u| - |v||.
    """
    return _distance_and_phase(u, v)[0]
