"""Graph builders, dense walk matrices, band energies, and JSON round trips."""
from __future__ import annotations

import math

import numpy as np
import pytest

from walkforge import (
    Hyperlattice,
    WalkGraph,
    band_energy,
    build_cycle,
    build_hypercube,
    build_hyperlattice_graph,
    build_line,
    graph_from_json,
    graph_to_json,
    walk_matrix,
)

rng = np.random.default_rng(20260815)


def test_walk_matrix_two_nodes():
    """A single unit hop puts -1 on both off-diagonal entries."""
    g = WalkGraph(2, ((0, 1, 1.0),), (0.0, 0.0))
    np.testing.assert_allclose(walk_matrix(g), [[0.0, -1.0], [-1.0, 0.0]])


def test_walk_matrix_single_node():
    """A lone node carries only its onsite energy."""
    g = WalkGraph(1, (), (3.0,))
    np.testing.assert_allclose(walk_matrix(g), [[3.0]])


def test_walk_matrix_exactly_symmetric():
    """Off-diagonal entries are bitwise equal under transposition."""
    edges = tuple(
        (i, j, float(rng.normal()))
        for i in range(6)
        for j in range(i + 1, 6)
        if rng.random() < 0.6
    )
    g = WalkGraph(6, edges, tuple(rng.normal(size=6)))
    h = walk_matrix(g)
    assert np.array_equal(h, h.T)


def test_walk_graph_rejects_duplicate_edges():
    """The same node pair may appear only once, in either order."""
    with pytest.raises(ValueError, match="duplicate edge"):
        WalkGraph(3, ((0, 1, 1.0), (1, 0, 2.0)), (0.0, 0.0, 0.0))


def test_walk_graph_rejects_self_loops():
    """Diagonal weight belongs in the onsite energies, not in an edge."""
    with pytest.raises(ValueError, match="self-loops"):
        WalkGraph(2, ((1, 1, 1.0),), (0.0, 0.0))


def test_walk_graph_rejects_bad_endpoint():
    """Edge endpoints must index existing nodes."""
    with pytest.raises(ValueError, match="out of range"):
        WalkGraph(2, ((0, 2, 1.0),), (0.0, 0.0))


def test_walk_graph_canonicalizes_edge_order():
    """Edges are stored with the smaller endpoint first."""
    g = WalkGraph(3, ((2, 0, 1.5),), (0.0, 0.0, 0.0))
    assert g.edges == ((0, 2, 1.5),)


def test_build_line_shape():
    """A line has n-1 edges chaining consecutive nodes."""
    g = build_line(4)
    assert g.n_nodes == 4
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    assert g.onsite == (0.0, 0.0, 0.0, 0.0)


def test_build_line_collapsed_chain_weights():
    """Per-edge amplitudes land on the matching bonds."""
    deltas = (1.0, math.sqrt(2.0), 4.0 / math.sqrt(6.0), 5.0 / 3.0, 2.0)
    g = build_line(6, deltas=deltas)
    np.testing.assert_allclose([e[2] for e in g.edges], deltas)


def test_build_line_rejects_wrong_delta_count():
    """A line on n nodes needs exactly n-1 amplitudes."""
    with pytest.raises(ValueError, match="expected 3 edge amplitudes"):
        build_line(4, deltas=(1.0, 2.0))


def test_build_cycle_degrees():
    """Every cycle node touches exactly two edges."""
    g = build_cycle(4)
    degree = [0, 0, 0, 0]
    for a, b, _ in g.edges:
        degree[a] += 1
        degree[b] += 1
    assert degree == [2, 2, 2, 2]


def test_build_cycle_rejects_small_n():
    """Cycles below three nodes would duplicate an edge."""
    with pytest.raises(ValueError, match="at least three"):
        build_cycle(2)


def test_build_hypercube_one_dimension():
    """The 1-cube is the 2-node path."""
    g = build_hypercube(1)
    assert g.n_nodes == 2
    assert g.edges == ((0, 1, 1.0),)


def test_build_hypercube_cube_shape():
    """The 3-cube has 8 nodes, 12 edges, and uniform degree 3."""
    g = build_hypercube(3)
    assert g.n_nodes == 8
    assert len(g.edges) == 12
    degree = [0] * 8
    for a, b, _ in g.edges:
        degree[a] += 1
        degree[b] += 1
    assert degree == [3] * 8
    assert g.labels == ("000", "001", "010", "011", "100", "101", "110", "111")


def test_build_hypercube_edges_flip_one_bit():
    """Neighbors differ in exactly one label bit."""
    g = build_hypercube(4)
    for a, b, _ in g.edges:
        assert bin(a ^ b).count("1") == 1


def test_hypercube_spectrum_binomial():
    """Eigenvalues are -delta0*(m-2k) with multiplicity C(m, k)."""
    m, delta0 = 4, 0.7
    vals = np.linalg.eigvalsh(walk_matrix(build_hypercube(m, delta0)))
    want = np.sort(
        np.concatenate(
            [np.full(math.comb(m, k), -delta0 * (m - 2 * k)) for k in range(m + 1)]
        )
    )
    np.testing.assert_allclose(vals, want, atol=1e-12)


def test_hypercube_rejects_zero_dimension():
    """The hypercube needs at least one axis."""
    with pytest.raises(ValueError, match="at least 1"):
        build_hypercube(0)


@pytest.mark.parametrize(
    "dim, side, delta0, p, want",
    [
        (2, 3, 1.0, (0.0, 0.0), 4.0),
        (1, 3, 1.0, (math.pi,), -2.0),
        (3, 3, 0.5, (math.pi / 2, math.pi / 3, math.pi), -0.5),
    ],
)
def test_band_energy_values(dim, side, delta0, p, want):
    """The dispersion is 2*delta0 times the summed cosines."""
    h = Hyperlattice(dim, side, delta0)
    np.testing.assert_allclose(band_energy(h, p), want, atol=1e-14)


def test_band_energy_rejects_wrong_dimension():
    """Momentum must have one component per lattice axis."""
    with pytest.raises(ValueError, match="must have 2 components"):
        band_energy(Hyperlattice(2, 3), (0.0,))


def test_band_energy_rejects_out_of_zone():
    """Momentum components live in the first zone [-pi, pi]."""
    with pytest.raises(ValueError, match="must lie in"):
        band_energy(Hyperlattice(1, 3), (4.0,))


def test_hyperlattice_periodic_ring():
    """A periodic 1-d lattice of side 4 is the 4-cycle."""
    g = build_hyperlattice_graph(Hyperlattice(1, 4, boundary="periodic"))
    assert g.n_nodes == 4
    assert sorted(e[:2] for e in g.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_hyperlattice_open_grid_edge_count():
    """An open LxL grid has 2*L*(L-1) bonds."""
    g = build_hyperlattice_graph(Hyperlattice(2, 3, boundary="open"))
    assert g.n_nodes == 9
    assert len(g.edges) == 12


def test_hyperlattice_spectrum_matches_band():
    """Periodic ring eigenvalues equal minus the band energy on the momentum grid."""
    side = 8
    h = Hyperlattice(1, side, boundary="periodic")
    vals = np.sort(np.linalg.eigvalsh(walk_matrix(build_hyperlattice_graph(h))))
    momenta = [2.0 * math.pi * k / side for k in range(side)]
    momenta = [p - 2.0 * math.pi if p > math.pi else p for p in momenta]
    want = np.sort([-band_energy(h, (p,)) for p in momenta])
    np.testing.assert_allclose(vals, want, atol=1e-12)


def test_hyperlattice_rejects_bad_boundary():
    """Boundary must be either open or periodic."""
    with pytest.raises(ValueError, match="boundary"):
        Hyperlattice(1, 4, boundary="twisted")


def test_graph_json_round_trip():
    """Serialization round-trips nodes, edges, onsite terms, and labels bit-exactly."""
    g = WalkGraph(
        3,
        ((0, 1, 0.25), (1, 2, -1.75)),
        (0.5, 0.0, -0.125),
        labels=("00", "01", "10"),
    )
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back == g
    assert graph_to_json(back) == text


def test_graph_json_full_precision_round_trip():
    """Irrational weights survive the 17-digit text form exactly."""
    g = build_line(5, deltas=tuple(rng.normal(size=4)), eps=tuple(rng.normal(size=5)))
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_rejects_unknown_fields():
    """Extra JSON keys are an error, not silently dropped."""
    with pytest.raises(ValueError, match="unknown graph fields"):
        graph_from_json('{"n": 1, "onsite": [0.0], "edges": [], "extra": 1}')


def test_graph_json_rejects_missing_fields():
    """Every required JSON key must be present."""
    with pytest.raises(ValueError, match="missing field"):
        graph_from_json('{"n": 1, "onsite": [0.0]}')


def test_graph_json_accepts_integer_numbers():
    """JSON integers are numbers, so integral hops and energies parse."""
    g = graph_from_json('{"n": 2, "onsite": [0, 1], "edges": [[1, 0, 2]]}')
    assert g == WalkGraph(2, ((0, 1, 2.0),), (0.0, 1.0))


@pytest.mark.parametrize(
    "field, value",
    [("n", "2.0"), ("n", "true"), ("onsite", "[0, true]"), ("onsite", '"01"'), ("edges", "[[0.0, 1, 1]]"),
     ("edges", "[[0, 1, null]]"), ("labels", '["0", 1]'), ("labels", '"01"')],
)
def test_graph_json_rejects_mistyped_values(field, value):
    """Non-integer counts and endpoints, non-numeric weights and non-string labels are refused."""
    doc = {"n": "2", "onsite": "[0, 0]", "edges": "[[0, 1, 1]]", field: value}
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
    with pytest.raises(ValueError, match=f"'{field}' must be"):
        graph_from_json(text)


@pytest.mark.parametrize(
    "edges, onsite",
    [(((0, 1, math.nan),), (0.0, 0.0)), ((), (0.0, math.inf)), (((0, 1, -math.inf),), (0.0, 0.0))],
)
def test_walk_graph_rejects_non_finite(edges, onsite):
    """NaN or infinite hops and onsite energies are refused on construction."""
    with pytest.raises(ValueError, match="must be finite"):
        WalkGraph(2, edges, onsite)
