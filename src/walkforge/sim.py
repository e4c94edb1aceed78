"""Dense state vectors, exact propagators, and unitary comparison.

Everything here is an oracle-grade reference: matrices are built densely and
exponentiated by exact eigendecomposition, never by splitting formulas.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import max_qubits
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
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1 within {_NORM_TOL}")
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size


def basis_state(dim: int, index: int) -> StateVector:
    """The computational basis state |index> in a dim-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def exact_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) by exact eigendecomposition; the oracle all tests compare to."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    cap = 1 << max_qubits()
    if h.shape[0] > cap:
        raise ValueError(f"matrix dimension {h.shape[0]} above the dense cap {cap}")
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
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


def _phase_distance(u: np.ndarray, v: np.ndarray, phi: float) -> float:
    return float(np.max(np.abs(u - np.exp(1j * phi) * v)))


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over a global phase of the max-abs entrywise difference u - e^{i phi} v.

    Both matrices are checked for unitarity first, so a distance near zero
    certifies equality up to a physically irrelevant phase.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("inputs must be square matrices of equal shape")
    dim = u.shape[0]
    eye = np.eye(dim)
    for name, m in (("first", u), ("second", v)):
        if np.max(np.abs(m.conj().T @ m - eye)) > 1e-9 * dim:
            raise ValueError(f"{name} matrix is not unitary")
    # Seed the phase from the largest entry of v, then refine by ternary search
    # around the best of a coarse scan; the objective is piecewise smooth in phi.
    flat = np.argmax(np.abs(v))
    i, j = divmod(int(flat), dim)
    guesses = [float(np.angle(u[i, j]) - np.angle(v[i, j]))]
    coarse = np.linspace(-np.pi, np.pi, 721)
    vals = [_phase_distance(u, v, p) for p in coarse]
    guesses.append(float(coarse[int(np.argmin(vals))]))
    best = min(_phase_distance(u, v, p) for p in guesses)
    center = min(guesses, key=lambda p: _phase_distance(u, v, p))
    lo, hi = center - 0.02, center + 0.02
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if _phase_distance(u, v, m1) <= _phase_distance(u, v, m2):
            hi = m2
        else:
            lo = m1
    best = min(best, _phase_distance(u, v, (lo + hi) / 2))
    return best
