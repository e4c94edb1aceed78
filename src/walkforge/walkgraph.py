"""Weighted graphs for continuous-time quantum walks, plus standard builders.

A walk graph stores a real hopping amplitude delta per edge and a real
on-site energy per node. Its Hamiltonian matrix carries -delta on the
off-diagonal and the on-site energies on the diagonal, so all energies are
dimensionless and evolution is exp(-iHt).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WalkGraph",
    "Hyperlattice",
    "walk_matrix",
    "build_line",
    "build_cycle",
    "build_hypercube",
    "band_energy",
    "build_hyperlattice_graph",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True)
class WalkGraph:
    """Undirected weighted graph: nodes 0..n_nodes-1, edges (i, j, delta)."""

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    onsite: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        if len(self.onsite) != self.n_nodes:
            raise ValueError("onsite energies must have one entry per node")
        canon = []
        seen = set()
        for i, j, delta in self.edges:
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError("edge endpoint out of range")
            if i == j:
                raise ValueError("self-loops are not allowed; use onsite energies")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            canon.append((a, b, float(delta)))
        onsite = tuple(float(e) for e in self.onsite)
        if not all(map(math.isfinite, [d for _, _, d in canon] + list(onsite))):
            raise ValueError("hop amplitudes and onsite energies must be finite")
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "onsite", onsite)
        if self.labels is not None:
            if len(self.labels) != self.n_nodes:
                raise ValueError("labels must have one entry per node")
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))


@dataclass(frozen=True)
class Hyperlattice:
    """Uniform nearest-neighbor lattice: L^d nodes, hopping delta0 on every bond."""

    dimension: int
    side: int
    delta0: float = 1.0
    boundary: str = "open"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.side < 1:
            raise ValueError("side length must be positive")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")


def walk_matrix(g: WalkGraph) -> np.ndarray:
    """Dense walk Hamiltonian: H[i, j] = -delta_ij off-diagonal, onsite on the diagonal."""
    h = np.zeros((g.n_nodes, g.n_nodes))
    for i, j, delta in g.edges:
        h[i, j] = -delta
        h[j, i] = -delta
    for j, eps in enumerate(g.onsite):
        h[j, j] = eps
    return h


def _per_edge(deltas, n_edges: int) -> list[float]:
    if np.isscalar(deltas):
        return [float(deltas)] * n_edges
    out = [float(d) for d in deltas]
    if len(out) != n_edges:
        raise ValueError(f"expected {n_edges} edge amplitudes, got {len(out)}")
    return out


def _per_node(eps, n_nodes: int) -> list[float]:
    if eps is None:
        return [0.0] * n_nodes
    if np.isscalar(eps):
        return [float(eps)] * n_nodes
    out = [float(e) for e in eps]
    if len(out) != n_nodes:
        raise ValueError(f"expected {n_nodes} onsite energies, got {len(out)}")
    return out


def build_line(n: int, deltas=1.0, eps=None) -> WalkGraph:
    """Path graph on n nodes with per-edge amplitudes and per-node energies."""
    if n < 1:
        raise ValueError("line needs at least one node")
    ds = _per_edge(deltas, n - 1)
    edges = tuple((k, k + 1, ds[k]) for k in range(n - 1))
    return WalkGraph(n, edges, tuple(_per_node(eps, n)))


def build_cycle(n: int, deltas=1.0, eps=None) -> WalkGraph:
    """Cycle graph on n >= 3 nodes; edge k joins nodes k and (k+1) mod n."""
    if n < 3:
        raise ValueError("cycle needs at least three nodes")
    ds = _per_edge(deltas, n)
    edges = tuple((k, (k + 1) % n, ds[k]) for k in range(n))
    return WalkGraph(n, edges, tuple(_per_node(eps, n)))


def build_hypercube(m: int, delta0: float = 1.0) -> WalkGraph:
    """m-dimensional hypercube: 2^m nodes labeled by m-bit strings, uniform delta0.

    Nodes i and j are joined exactly when their labels differ in one bit.
    """
    if m < 1:
        raise ValueError("hypercube dimension must be at least 1")
    n = 2**m
    edges = []
    for i in range(n):
        for b in range(m):
            j = i ^ (1 << b)
            if j > i:
                edges.append((i, j, float(delta0)))
    labels = tuple(format(i, f"0{m}b") for i in range(n))
    return WalkGraph(n, tuple(edges), (0.0,) * n, labels)


def band_energy(h: Hyperlattice, p) -> float:
    """Dispersion 2*delta0*sum(cos(p_mu)) at quasi-momentum p (lattice constant 1).

    The walk matrix of the periodic lattice has eigenvalues of the opposite
    sign, -band_energy(p), at p_mu = 2*pi*k/L; tests state this explicitly.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.shape != (h.dimension,):
        raise ValueError(f"momentum must have {h.dimension} components")
    if np.any(np.abs(p) > np.pi + 1e-12):
        raise ValueError("momentum components must lie in [-pi, pi]")
    return float(2.0 * h.delta0 * np.sum(np.cos(p)))


def build_hyperlattice_graph(h: Hyperlattice) -> WalkGraph:
    """Nearest-neighbor grid on L^d nodes; axis 0 is the most significant index digit.

    Periodic boundaries add the wrap-around bond per axis; the degenerate
    L = 2 wrap duplicates an existing bond and is dropped (one edge per pair).
    """
    n = h.side**h.dimension
    strides = [h.side ** (h.dimension - 1 - ax) for ax in range(h.dimension)]
    edges = []
    seen = set()
    for node in range(n):
        for ax in range(h.dimension):
            coord = (node // strides[ax]) % h.side
            if coord + 1 < h.side:
                nb = node + strides[ax]
            elif h.boundary == "periodic" and h.side > 1:
                nb = node - (h.side - 1) * strides[ax]
            else:
                continue
            pair = (min(node, nb), max(node, nb))
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                edges.append((pair[0], pair[1], float(h.delta0)))
    return WalkGraph(n, tuple(edges), (0.0,) * n)


_JSON_FIELDS = {"n", "onsite", "edges", "labels"}


def graph_to_json(g: WalkGraph) -> str:
    """Serialize to the fixed JSON schema {"n", "onsite", "edges", "labels"?}."""
    doc: dict = {
        "n": g.n_nodes,
        "onsite": list(g.onsite),
        "edges": [[i, j, d] for i, j, d in g.edges],
    }
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return json.dumps(doc)


def _is_number(x, kinds: tuple = (int, float)) -> bool:
    """A JSON number of the given kinds; booleans are not numbers."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _is_edge(e) -> bool:
    """[i, j, delta] with integer endpoints and a numeric hop."""
    return (
        isinstance(e, list)
        and len(e) == 3
        and _is_number(e[0], int)
        and _is_number(e[1], int)
        and _is_number(e[2])
    )


def graph_from_json(text: str) -> WalkGraph:
    """Parse the JSON graph format; unknown fields and mistyped values are rejected.

    ``n`` and edge endpoints must be JSON integers, hops and on-site energies
    JSON numbers (booleans are neither), and ``labels`` a list of strings.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("graph json must be an object")
    unknown = set(doc) - _JSON_FIELDS
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    for key in ("n", "onsite", "edges"):
        if key not in doc:
            raise ValueError(f"graph json missing field '{key}'")
    n, onsite, edges = doc["n"], doc["onsite"], doc["edges"]
    if not _is_number(n, int):
        raise ValueError("graph json 'n' must be an integer")
    if not (isinstance(onsite, list) and all(map(_is_number, onsite))):
        raise ValueError("graph json 'onsite' must be a list of numbers")
    if not (isinstance(edges, list) and all(map(_is_edge, edges))):
        raise ValueError("graph json 'edges' must be a list of [i, j, delta] with integer i, j")
    labels = doc.get("labels")
    if "labels" in doc and not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ValueError("graph json 'labels' must be a list of strings")
    try:
        return WalkGraph(n, tuple(map(tuple, edges)), tuple(onsite), None if labels is None else tuple(labels))
    except OverflowError as exc:
        raise ValueError(f"malformed graph json: {exc}") from None
