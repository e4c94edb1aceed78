"""XY chains, their free-fermion reduction, excitation-sector walk graphs,
and the column collapse onto a weighted line.

Spin-up counts are conserved by the XY Hamiltonian, so each sector with a
fixed number of up spins is itself a quantum walk on a smaller graph; the
functions here build those graphs so the dense Pauli matrix never has to be
formed for spectra.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .circuit import _integers
from .decode import _real_array
from .pauli import PauliHamiltonian, PauliString, _from_masks
from .walkgraph import WalkGraph, build_line, walk_matrix

__all__ = [
    "XYChain",
    "JordanWignerResult",
    "xy_hamiltonian",
    "jordan_wigner_walk",
    "excitation_graph",
    "distance_layers",
    "collapse_defect",
    "collapse_to_line",
]

_CLOSURE_TOL = 1e-10


@dataclass(frozen=True)
class XYChain:
    """Open chain of n_sites spins with XY couplings j and transverse field h.

    j is a single number (uniform) or one value per bond (n_sites - 1 of them).
    """

    n_sites: int
    j: tuple[float, ...]
    h: float = 0.0

    def __post_init__(self) -> None:
        (n,) = _integers((self.n_sites,), "site count must be an integer")
        if n < 2:
            raise ValueError("chain needs at least two sites")
        object.__setattr__(self, "n_sites", n)
        j = _real_array(self.j, "couplings")
        if j.shape not in ((), (n - 1,)):
            raise ValueError(f"need {n - 1} bond couplings")
        object.__setattr__(self, "j", tuple(np.broadcast_to(j, (n - 1,)).tolist()))
        h = _real_array(self.h, "field")
        if h.shape:
            raise ValueError("field must be one number")
        object.__setattr__(self, "h", float(h))


def xy_hamiltonian(c: XYChain) -> PauliHamiltonian:
    """sum_i -(J_i/2)(X_i X_{i+1} + Y_i Y_{i+1}) + (h/2) sum_i Z_i."""
    n = c.n_sites
    terms: list[tuple[complex, PauliString]] = []
    for i, j_bond in enumerate(c.j):
        bond = 3 << (n - 2 - i)  # sites i and i + 1
        terms.append((-j_bond / 2.0, _from_masks(n, bond, 0)))  # X X
        terms.append((-j_bond / 2.0, _from_masks(n, bond, bond)))  # Y Y
    if c.h != 0.0:
        for i in range(n):
            terms.append((c.h / 2.0, _from_masks(n, 0, 1 << (n - 1 - i))))  # Z_i
    return PauliHamiltonian(n, tuple(terms))


@dataclass(frozen=True)
class JordanWignerResult:
    """Free-particle walk equivalent to the XY chain, plus the constant
    energy offset (n_sites * h / 2) kept out of the graph."""

    graph: WalkGraph
    offset: float


def jordan_wigner_walk(c: XYChain) -> JordanWignerResult:
    """Reduce the chain to a single particle hopping on an n_sites path.

    Hop amplitudes are the bond couplings; every node carries onsite -h.
    The walk spectrum plus the recorded offset equals the XY spectrum on the
    sector with exactly one down spin.
    """
    return JordanWignerResult(build_line(c.n_sites, c.j, -c.h), c.n_sites * c.h / 2.0)


def _sector_labels(n_sites: int, n_exc: int) -> tuple[tuple[str, ...], dict[str, int]]:
    labels = []
    for ups in combinations(range(n_sites), n_exc):
        chars = ["0"] * n_sites
        for u in ups:
            chars[u] = "1"
        labels.append("".join(chars))
    return tuple(labels), {s: k for k, s in enumerate(labels)}


def excitation_graph(c: XYChain, n_exc: int) -> WalkGraph:
    """Walk graph of the sector with n_exc up spins.

    Nodes are the C(N, n_exc) spin strings (all-left-ups first), edges join
    states related by one adjacent up/down swap with the bond coupling as
    hop amplitude, and every node carries the sector's field energy
    (h/2)(2 n_exc - N).
    """
    n = c.n_sites
    if not 0 < n_exc < n:
        raise ValueError("excitation count must be between 1 and n_sites - 1")
    labels, index = _sector_labels(n, n_exc)
    edges = []
    for k, s in enumerate(labels):
        for bond in range(n - 1):
            if s[bond] == "1" and s[bond + 1] == "0":
                swapped = s[:bond] + "01" + s[bond + 2 :]
                edges.append((k, index[swapped], c.j[bond]))
    onsite = (c.h / 2.0 * (2 * n_exc - n),) * len(labels)
    return WalkGraph(len(labels), tuple(edges), onsite, labels)


def distance_layers(g: WalkGraph, start: int) -> tuple[tuple[int, ...], ...]:
    """Nodes grouped by graph distance from start (breadth-first)."""
    if not 0 <= start < g.n_nodes:
        raise ValueError("start node out of range")
    adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
    for i, j, _ in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = [-1] * g.n_nodes
    dist[start] = 0
    frontier = [start]
    layers = [tuple(frontier)]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        if nxt:
            layers.append(tuple(sorted(nxt)))
        frontier = nxt
    if any(d < 0 for d in dist):
        raise ValueError("graph is not connected from the start node")
    return tuple(layers)


def _project(g: WalkGraph, start: int) -> tuple:
    """The walk matrix h, the distance layers from start, the basis p of their
    normalized uniform superpositions (one column each), and m = p.T h p."""
    h = walk_matrix(g)
    layers = distance_layers(g, start)
    p = np.zeros((g.n_nodes, len(layers)))
    for k, layer in enumerate(layers):
        p[list(layer), k] = 1.0 / np.sqrt(len(layer))
    return h, layers, p, p.T @ h @ p


def _defect(h: np.ndarray, p: np.ndarray, m: np.ndarray) -> float:
    return float(np.max(np.abs(h @ p - p @ m)))


def _line(m: np.ndarray) -> WalkGraph:
    n_cols = m.shape[0]
    edges = tuple(
        (k, k + 1, float(-m[k, k + 1]))
        for k in range(n_cols - 1)
        if abs(m[k, k + 1]) > 0.0
    )
    onsite = tuple(float(m[k, k]) for k in range(n_cols))
    return WalkGraph(n_cols, edges, onsite)


def collapse_defect(g: WalkGraph, start: int) -> float:
    """How far the column decomposition is from exactly closed.

    Zero means evolving inside the column subspace is exact; the value is the
    largest amplitude the walk generator pushes out of that subspace.
    """
    h, _, p, m = _project(g, start)
    return _defect(h, p, m)


def collapse_to_line(g: WalkGraph, start: int, strict: bool = False) -> WalkGraph:
    """Project the walk onto uniform superpositions over distance layers.

    Returns the weighted path whose node k is the normalized column-k state.
    The projection is always well defined; it reproduces the full dynamics
    exactly only when the decomposition is closed (collapse_defect ~ 0).
    With strict=True a non-closed decomposition raises instead.
    """
    h, _, p, m = _project(g, start)
    if strict and _defect(h, p, m) > _CLOSURE_TOL:
        raise ValueError("graph is not column-collapsible from this start node")
    return _line(m)
