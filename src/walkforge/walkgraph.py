"""Weighted graphs for continuous-time quantum walks, plus standard builders.

A walk graph stores a real hopping amplitude delta per edge and a real
on-site energy per node. Its Hamiltonian matrix carries -delta on the
off-diagonal and the on-site energies on the diagonal, so all energies are
dimensionless and evolution is exp(-iHt). Numbers from callers and from
JSON alike are read by the one number rule in _read.py.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._config import check_matrix_dimension
from ._read import integers, is_integer, is_real, reals

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
        (n_nodes,) = integers((self.n_nodes,), "node count must be an integer")
        if n_nodes < 1:
            raise ValueError("graph needs at least one node")
        object.__setattr__(self, "n_nodes", n_nodes)
        if len(self.onsite) != self.n_nodes:
            raise ValueError("onsite energies must have one entry per node")
        message = "hop amplitudes and onsite energies must be real numbers"
        canon = []
        seen = set()
        for i, j, delta in self.edges:
            if type(i) is not int or type(j) is not int:  # numpy ints would wrap in mask arithmetic
                i, j = integers((i, j), "edge endpoints must be integers")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError("edge endpoint out of range")
            if i == j:
                raise ValueError("self-loops are not allowed; use onsite energies")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            if type(delta) is not float:
                (delta,) = reals((delta,), message)
            canon.append((a, b, delta))
        onsite = reals(self.onsite, message)
        if not all(map(math.isfinite, [d for _, _, d in canon] + list(onsite))):
            raise ValueError("hop amplitudes and onsite energies must be finite")
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "onsite", onsite)
        if self.labels is not None:
            if len(self.labels) != self.n_nodes:
                raise ValueError("labels must have one entry per node")
            if not all(isinstance(s, str) for s in self.labels):
                raise ValueError("labels must be strings")
            object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def _from_arrays(cls, n_nodes: int, rows, cols, hops, onsite, labels) -> "WalkGraph":
        """A graph from index and value arrays whose pairs rows[k] < cols[k] <
        n_nodes each occur once; only the values' finiteness is checked."""
        if not (np.isfinite(hops).all() and np.isfinite(onsite).all()):
            raise ValueError("hop amplitudes and onsite energies must be finite")
        g = object.__new__(cls)
        object.__setattr__(g, "n_nodes", n_nodes)
        object.__setattr__(g, "edges", tuple(zip(rows.tolist(), cols.tolist(), hops.tolist())))
        object.__setattr__(g, "onsite", tuple(onsite.tolist()))
        object.__setattr__(g, "labels", labels)
        return g


@dataclass(frozen=True)
class Hyperlattice:
    """Uniform nearest-neighbor lattice: L^d nodes, hopping delta0 on every bond."""

    dimension: int
    side: int
    delta0: float = 1.0
    boundary: str = "open"

    def __post_init__(self) -> None:
        dimension, side = integers((self.dimension, self.side), "dimension and side length must be integers")
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if side < 1:
            raise ValueError("side length must be positive")
        (delta0,) = reals((self.delta0,), "delta0 must be a real number")
        if not math.isfinite(delta0):
            raise ValueError("delta0 must be finite")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "delta0", delta0)


def walk_matrix(g: WalkGraph) -> np.ndarray:
    """Dense walk Hamiltonian: H[i, j] = -delta_ij off-diagonal, onsite on the diagonal."""
    check_matrix_dimension(g.n_nodes)
    h = np.zeros((g.n_nodes, g.n_nodes))
    for i, j, delta in g.edges:
        h[i, j] = -delta
        h[j, i] = -delta
    for j, eps in enumerate(g.onsite):
        h[j, j] = eps
    return h


def _per_item(value, count: int, what: str) -> tuple[float, ...]:
    """A real number repeated count times, or exactly count of them."""
    out = reals(value, f"{what} must be real numbers", count)
    if len(out) != count:
        raise ValueError(f"expected {count} {what}, got {len(out)}")
    return out


def build_line(n: int, deltas=1.0, eps=None) -> WalkGraph:
    """Path graph on n nodes with per-edge amplitudes and per-node energies."""
    (n,) = integers((n,), "node count must be an integer")
    if n < 1:
        raise ValueError("line needs at least one node")
    ds = _per_item(deltas, n - 1, "edge amplitudes")
    edges = tuple((k, k + 1, ds[k]) for k in range(n - 1))
    return WalkGraph(n, edges, _per_item(0.0 if eps is None else eps, n, "onsite energies"))


def build_cycle(n: int, deltas=1.0, eps=None) -> WalkGraph:
    """Cycle graph on n >= 3 nodes; edge k joins nodes k and (k+1) mod n."""
    (n,) = integers((n,), "node count must be an integer")
    if n < 3:
        raise ValueError("cycle needs at least three nodes")
    ds = _per_item(deltas, n, "edge amplitudes")
    edges = tuple((k, (k + 1) % n, ds[k]) for k in range(n))
    return WalkGraph(n, edges, _per_item(0.0 if eps is None else eps, n, "onsite energies"))


def build_hypercube(m: int, delta0: float = 1.0) -> WalkGraph:
    """m-dimensional hypercube: 2^m nodes labeled by m-bit strings, uniform delta0.

    Nodes i and j are joined exactly when their labels differ in one bit.
    """
    (m,) = integers((m,), "hypercube dimension must be an integer")
    if m < 1:
        raise ValueError("hypercube dimension must be at least 1")
    (delta0,) = reals((delta0,), "delta0 must be a real number")
    n = 2**m
    edges = []
    for i in range(n):
        for b in range(m):
            j = i ^ (1 << b)
            if j > i:
                edges.append((i, j, delta0))
    labels = tuple(format(i, f"0{m}b") for i in range(n))
    return WalkGraph(n, tuple(edges), (0.0,) * n, labels)


def band_energy(h: Hyperlattice, p) -> float:
    """Dispersion 2*delta0*sum(cos(p_mu)) at quasi-momentum p (lattice constant 1).

    The walk matrix of the periodic lattice has eigenvalues of the opposite
    sign, -band_energy(p), at p_mu = 2*pi*k/L; tests state this explicitly.
    """
    p = np.array(reals(p, "momentum components must be real numbers", 1))
    if p.shape != (h.dimension,):
        raise ValueError(f"momentum must have {h.dimension} components")
    if not np.all(np.abs(p) <= np.pi + 1e-12):  # NaN fails too
        raise ValueError("momentum components must lie in [-pi, pi]")
    return float(2.0 * h.delta0 * np.sum(np.cos(p)))


def build_hyperlattice_graph(h: Hyperlattice) -> WalkGraph:
    """Nearest-neighbor grid on L^d nodes; axis 0 is the most significant index digit.

    Periodic boundaries add the wrap-around bond per axis when L > 2: at
    L = 2 it would repeat the forward bond and at L = 1 join a node to itself,
    so those periodic lattices equal their open ones.
    """
    n = h.side**h.dimension
    strides = [h.side ** (h.dimension - 1 - ax) for ax in range(h.dimension)]
    edges = []
    for node in range(n):
        for stride in strides:
            if (node // stride) % h.side + 1 < h.side:
                edges.append((node, node + stride, h.delta0))
            elif h.boundary == "periodic" and h.side > 2:
                edges.append((node - (h.side - 1) * stride, node, h.delta0))
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


def _is_edge(e) -> bool:
    """[i, j, delta] with integer endpoints and a numeric hop."""
    return (
        isinstance(e, list)
        and len(e) == 3
        and is_integer(e[0])
        and is_integer(e[1])
        and is_real(e[2])
    )


def _json_document(text: str, what: str):
    """json.loads, with input nested too deeply for the decoder refused as ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def graph_from_json(text: str) -> WalkGraph:
    """Parse the JSON graph format; unknown fields and mistyped values are rejected.

    ``n`` and edge endpoints must be JSON integers, hops and on-site energies
    JSON numbers (booleans are neither), and ``labels`` a list of strings.
    """
    doc = _json_document(text, "graph json")
    if not isinstance(doc, dict):
        raise ValueError("graph json must be an object")
    unknown = set(doc) - _JSON_FIELDS
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    for key in ("n", "onsite", "edges"):
        if key not in doc:
            raise ValueError(f"graph json missing field '{key}'")
    n, onsite, edges = doc["n"], doc["onsite"], doc["edges"]
    if not is_integer(n):
        raise ValueError("graph json 'n' must be an integer")
    if not (isinstance(onsite, list) and all(map(is_real, onsite))):
        raise ValueError("graph json 'onsite' must be a list of numbers")
    if not (isinstance(edges, list) and all(map(_is_edge, edges))):
        raise ValueError("graph json 'edges' must be a list of [i, j, delta] with integer i, j")
    labels = doc.get("labels")
    if "labels" in doc and not (isinstance(labels, list) and all(isinstance(s, str) for s in labels)):
        raise ValueError("graph json 'labels' must be a list of strings")
    return WalkGraph(n, tuple(map(tuple, edges)), tuple(onsite), None if labels is None else tuple(labels))
