"""Inverse mappings from qubit Hamiltonians back to walk graphs.

static_to_walk inverts a fixed coupling template (single-qubit Z/X terms,
Z_iX_j cross terms, X_iX_j and Z_iZ_j pair terms) in closed form; the sign
conventions are pinned by requiring walk_matrix(result) to equal the dense
matrix of the input exactly. matrix_to_walk does the same job numerically
for any Hamiltonian whose dense matrix is real symmetric. pulse_to_walk_edges
reads one pulse as the template with only its coupling on. Template arrays
are read as finite reals by the one number rule in _read.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import check_qubit_count
from ._read import integers, real_array
from .encode import _index_labels
from .gatelib import FundamentalPulse
from .pauli import PauliHamiltonian, PauliString, _from_masks, to_matrix
from .walkgraph import WalkGraph

__all__ = [
    "StaticQubitHamiltonian",
    "static_to_pauli",
    "static_to_walk",
    "matrix_to_walk",
    "pulse_to_walk_edges",
]

_EDGE_TOL = 1e-14


@dataclass(frozen=True)
class StaticQubitHamiltonian:
    """Always-on qubit couplings: H = sum_a (-eps_a Z_a - delta_a X_a)
    + sum_{a != b} chi_ab Z_a X_b + sum_{a<b} (-vperp_ab X_a X_b + vpar_ab Z_a Z_b).

    chi is a full matrix (row = Z qubit, column = X qubit); vperp and vpar
    are symmetric; all diagonals must be zero.
    """

    n_qubits: int
    eps: np.ndarray
    delta: np.ndarray
    chi: np.ndarray
    vperp: np.ndarray
    vpar: np.ndarray

    def __post_init__(self) -> None:
        (n,) = integers((self.n_qubits,), "qubit count must be an integer")
        if n < 1:
            raise ValueError("need at least one qubit")
        object.__setattr__(self, "n_qubits", n)
        for name in ("eps", "delta"):
            v = real_array(getattr(self, name), name)
            if v.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            object.__setattr__(self, name, v)
        for name in ("chi", "vperp", "vpar"):
            m = real_array(getattr(self, name), name)
            if m.shape != (n, n):
                raise ValueError(f"{name} must have shape ({n}, {n})")
            if np.any(np.diag(m) != 0.0):
                raise ValueError(f"{name} diagonal must be zero")
            if name != "chi" and np.max(np.abs(m - m.T)) > 0.0:
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, m)


def static_to_pauli(h: StaticQubitHamiltonian) -> PauliHamiltonian:
    """Expand the coupling template into explicit Pauli terms."""
    n = h.n_qubits
    bit = [1 << (n - 1 - a) for a in range(n)]  # qubit a + 1's mask bit
    terms: list[tuple[complex, PauliString]] = []
    for a in range(n):
        if h.eps[a] != 0.0:
            terms.append((-h.eps[a], _from_masks(n, 0, bit[a])))  # Z_a
        if h.delta[a] != 0.0:
            terms.append((-h.delta[a], _from_masks(n, bit[a], 0)))  # X_a
    for a in range(n):
        for b in range(n):
            if a != b and h.chi[a, b] != 0.0:
                terms.append((h.chi[a, b], _from_masks(n, bit[b], bit[a])))  # Z_a X_b
    for a in range(n):
        for b in range(a + 1, n):
            if h.vperp[a, b] != 0.0:
                terms.append((-h.vperp[a, b], _from_masks(n, bit[a] | bit[b], 0)))  # X_a X_b
            if h.vpar[a, b] != 0.0:
                terms.append((h.vpar[a, b], _from_masks(n, 0, bit[a] | bit[b])))  # Z_a Z_b
    return PauliHamiltonian(n, tuple(terms))


def static_to_walk(h: StaticQubitHamiltonian) -> WalkGraph:
    """Closed-form walk graph on 2^N nodes (bit-string labels, up = 1).

    Node energies: eps_j = sum_a (-1)^{j_a} eps_a + sum_{a<b} (-1)^{j_a+j_b}
    vpar_ab. Single-bit-flip edge at qubit a: Delta_a + sum_{c != a}
    (-1)^{j_c} chi_ca; double-flip edge at qubits a<b: vperp_ab.
    """
    n = h.n_qubits
    check_qubit_count(n, "static decode")
    dim = 1 << n
    nodes = np.arange(dim)[:, None]
    bit = 1 << np.arange(n - 1, -1, -1)  # qubit a's bit in a node index
    signs = np.where(nodes & bit, -1.0, 1.0)  # (-1)^{j_a} per node and qubit
    a, b = np.triu_indices(n, 1)
    # one column per flip: the n single flips (chi's zero diagonal drops c = a),
    # then the pairs a < b in row-major order
    flips = np.concatenate([bit, bit[a] | bit[b]])
    with np.errstate(over="ignore", invalid="ignore"):  # _from_arrays refuses what overflows
        onsite = signs @ h.eps + (signs[:, a] * signs[:, b]) @ h.vpar[a, b]
        weights = np.hstack([h.delta + signs @ h.chi, np.broadcast_to(h.vperp[a, b], (dim, a.size))])
    targets = nodes ^ flips
    j, k = np.nonzero((targets > nodes) & (np.abs(weights) > _EDGE_TOL))
    return WalkGraph._from_arrays(dim, j, targets[j, k], weights[j, k], onsite, _index_labels(dim))


def matrix_to_walk(h: PauliHamiltonian) -> WalkGraph:
    """Read a walk graph off the dense matrix: energies from the diagonal,
    hop amplitudes as the negated off-diagonal elements."""
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below refuse what overflows
        mat = to_matrix(h)  # checks the dense cap before it allocates
        peak = float(np.max(np.abs(mat)))  # nan or inf if any entry is
        if not np.isfinite(peak):
            raise ValueError("matrix entries must be finite; the coefficients overflow")
        scale = max(1.0, peak)
        # Real coefficients realize an exactly Hermitian matrix: each x-mask's
        # transform gives out[k, k ^ x] the conjugate of out[k ^ x, k] bit for bit
        # (up to the sign of zero), so only complex ones need the dense scan.
        if any(c.imag for c, _ in h.terms) and np.max(np.abs(mat - mat.T.conj())) > 1e-12 * scale:
            raise ValueError("matrix is not hermitian")
    if np.max(np.abs(mat.imag)) > 1e-12 * scale:
        raise ValueError("not a stoquastic-form walk; complex amplitudes unsupported")
    real = mat.real
    dim = real.shape[0]
    rows, cols = np.nonzero(np.triu(np.abs(real) > _EDGE_TOL * scale, 1))  # row-major: (j, i), j < i
    return WalkGraph._from_arrays(dim, rows, cols, -real[rows, cols], real.diagonal(), _index_labels(dim))


def pulse_to_walk_edges(pulse: FundamentalPulse, n_qubits: int) -> WalkGraph:
    """The walk a pulse runs for pulse.duration: the static template with the
    pulse's one coupling on, so a delta or vperp pulse hops with amplitude
    strength. A pulse's eps term is +strength Z and the template's -eps Z, so
    an eps pulse sets eps_k = -strength."""
    (n_qubits,) = integers((n_qubits,), "qubit count must be an integer")
    if max(pulse.qubits) > n_qubits:
        raise ValueError("pulse wires exceed the register")
    n, k = n_qubits, tuple(q - 1 for q in pulse.qubits)
    on = {"eps": np.zeros(n), "delta": np.zeros(n), "vperp": np.zeros((n, n))}
    value = -pulse.strength if pulse.term == "eps" else pulse.strength
    on[pulse.term][k] = on[pulse.term][k[::-1]] = value  # vperp is symmetric
    return static_to_walk(StaticQubitHamiltonian(n, chi=np.zeros((n, n)), vpar=np.zeros((n, n)), **on))
