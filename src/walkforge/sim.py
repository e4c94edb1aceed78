"""Dense state vectors, exact propagators, and unitary comparison.

Everything here is an oracle-grade reference: matrices are built densely and
exponentiated by exact eigendecomposition, never by splitting formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import check_matrix_dimension, max_qubits
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
        amps = np.asarray(self.amps, dtype=complex)
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
    h = np.asarray(h, dtype=complex)
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


# Phase search: the points of a 721-point grid on the circle that fall in the
# bracket, when it is wider than the +-0.02 refinement window, then
# golden-section refinement down to 1e-15 rad.
_GRID_STEP = 2.0 * math.pi / 720
_REFINE_HALF_WIDTH = 0.02
_PHASE_RESOLUTION = 1e-15
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _distance_and_phase(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """unitary_distance together with the global phase in [-pi, pi] that attains it."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("inputs must be square matrices of equal shape")
    dim = u.shape[0]
    eye = np.eye(dim)
    for name, m in (("first", u), ("second", v)):
        if not np.max(np.abs(m.conj().T @ m - eye)) <= 1e-9 * dim:  # NaN fails too
            raise ValueError(f"{name} matrix is not unitary")

    def dist(phi: float) -> float:
        return float(np.max(np.abs(u - np.exp(1j * phi) * v)))

    # arg tr(v^dagger u) is exact when u and v agree up to a phase.
    phi0 = float(np.angle(np.vdot(v, u)))
    best = (dist(phi0), phi0)
    # |u_k - e^{i phi} v_k|^2 = (|u_k| - |v_k|)^2 + 4 p_k sin^2((phi - theta_k) / 2)
    # with p_k = |u_k v_k| and theta_k = arg(u_k conj(v_k)), so a phase that beats
    # best lies within 2 asin(best / 2 sqrt(p)) of theta at the largest p. When
    # p = 0 or best >= 2 sqrt(p) the bracket is the whole circle.
    prod = (u * v.conj()).ravel()
    k = int(np.argmax(np.abs(prod)))
    theta, root_p = float(np.angle(prod[k])), math.sqrt(abs(prod[k]))
    if best[0] < 2.0 * root_p:
        half = 2.0 * math.asin(best[0] / (2.0 * root_p))
        lo, hi = theta - half, theta + half
    else:
        half, lo, hi = math.pi, -math.pi, math.pi
    if half > _REFINE_HALF_WIDTH:
        grid = np.arange(math.ceil(lo / _GRID_STEP), math.floor(hi / _GRID_STEP) + 1) * _GRID_STEP
        vals = [dist(p) for p in grid]
        i = int(np.argmin(vals))
        best = min(best, (vals[i], float(grid[i])))
        lo, hi = best[1] - _REFINE_HALF_WIDTH, best[1] + _REFINE_HALF_WIDTH
    # Golden-section search; f is piecewise smooth in phi and unimodal near its minimum.
    width = max(hi - lo, _PHASE_RESOLUTION)
    steps = math.ceil(math.log(width / _PHASE_RESOLUTION) / -math.log(_INV_GOLDEN))
    a, b = lo, hi
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = dist(c), dist(d)
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = dist(d)
    dev, phi = min(best, (fc, c), (fd, d))
    return dev, math.remainder(phi, 2.0 * math.pi)


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over a global phase of the max-abs entrywise difference u - e^{i phi} v.

    Both matrices are checked for unitarity first, so a distance near zero
    certifies equality up to a physically irrelevant phase. The result never
    exceeds the distance at phi = arg tr(v^dagger u) and is never below the
    modulus gap max ||u| - |v||.
    """
    return _distance_and_phase(u, v)[0]
