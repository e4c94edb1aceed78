"""Graph builders, dense walk matrices, band energies, and JSON round trips."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from walkforge import (
    Hyperlattice,
    WalkGraph,
    XYChain,
    band_energy,
    build_cycle,
    build_hypercube,
    build_hyperlattice_graph,
    build_line,
    circuit_to_text,
    decompose_cphase,
    decompose_swap,
    encode_single_excitation,
    excitation_graph,
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


@pytest.mark.parametrize("edge", [(0, True, 0.5), (False, 1, 0.5), (0, np.bool_(True), 0.5), (0, 1.0, 1.0), (0.0, 2, 1.0)])
def test_walk_graph_refuses_boolean_and_float_endpoints(edge):
    """True is not node 1 and 1.0 is not an index: walk_matrix and the encoders
    would read such an edge differently, so it is refused on construction."""
    with pytest.raises(ValueError, match="edge endpoints must be integers"):
        WalkGraph(3, (edge,), (0.0, 0.0, 0.0))


def test_walk_graph_stores_numpy_integer_endpoints_as_ints():
    """numpy integers are node indices, stored as Python ints: a uint8 endpoint
    kept as such wraps in the single-excitation masks and fails graph_to_json."""
    g = WalkGraph(10, ((np.int64(9), np.uint8(0), 0.5),), (0.0,) * 10)
    assert g.edges == ((0, 9, 0.5),) and all(type(i) is int for i in g.edges[0][:2])
    assert encode_single_excitation(g) == encode_single_excitation(WalkGraph(10, ((0, 9, 0.5),), (0.0,) * 10))
    assert graph_from_json(graph_to_json(g)) == g


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


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("side", [1, 2])
def test_hyperlattice_periodic_without_a_wrap_is_open(d, side):
    """At side 1 the wrap bond would be a self-loop and at side 2 a repeat of
    the forward bond, so those periodic lattices equal their open ones."""
    periodic = build_hyperlattice_graph(Hyperlattice(d, side, 0.7, "periodic"))
    assert periodic == build_hyperlattice_graph(Hyperlattice(d, side, 0.7, "open"))


def test_builder_outputs_are_pinned():
    """Lattice, line and cycle JSON, excitation graphs and the CPHASE and SWAP
    decomposition text match their recorded sha256 byte for byte."""
    parts = []
    for d in (1, 2, 3):
        for side in (1, 2, 3, 4):
            for boundary in ("open", "periodic"):
                parts.append(graph_to_json(build_hyperlattice_graph(Hyperlattice(d, side, 0.7, boundary))))
    for n in range(1, 7):
        parts.append(graph_to_json(build_line(n)))
        parts.append(graph_to_json(build_line(n, [0.5 * k for k in range(n - 1)], -0.2)))
    for n in range(3, 7):
        parts.append(graph_to_json(build_cycle(n, 0.8, [0.1 * k for k in range(n)])))
    for n in range(2, 8):
        chain = XYChain(n, tuple(0.3 + 0.1 * k for k in range(n - 1)), 0.4)
        parts += [graph_to_json(excitation_graph(chain, k)) for k in range(1, n)]
    for phi in (0.0, -0.0, 0.37, -2.5):
        parts.append(circuit_to_text(decompose_cphase(phi)))
    parts.append(circuit_to_text(decompose_swap()))
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    assert digest == "999d0b2d3cdf9d8cb8ca616894ce8df206aebc1964668ebcee583736b259c7ee"


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


@pytest.mark.parametrize(
    "edges, onsite",
    [(((0, 1, "1.5"),), (0.0, 0.0)), (((0, 1, True),), (0.0, 0.0)), ((), ("1", 0.0)), ((), (0.0, np.bool_(False)))],
)
def test_walkgraph_refuses_values_that_are_not_real_numbers(edges, onsite):
    """Hops and onsite energies must be real numbers: strings and booleans are
    refused, not coerced."""
    with pytest.raises(ValueError, match="hop amplitudes and onsite energies must be real numbers"):
        WalkGraph(2, edges, onsite)


def test_walkgraph_refuses_labels_that_are_not_strings():
    with pytest.raises(ValueError, match="labels must be strings"):
        WalkGraph(2, (), (0.0, 0.0), (0, 1))


def test_walkgraph_takes_integer_and_numpy_real_values():
    g = WalkGraph(2, ((0, 1, 2),), (np.float64(0.5), np.int64(1)))
    assert g.edges == ((0, 1, 2.0),) and g.onsite == (0.5, 1.0)
    assert all(type(v) is float for v in (g.edges[0][2], *g.onsite))


def test_walkgraph_refuses_a_hop_beyond_the_float_range():
    """An integer hop too large for a float is refused, not an OverflowError."""
    with pytest.raises(ValueError, match="must be real numbers within the float range"):
        WalkGraph(2, ((0, 1, 10**400),), (0.0, 0.0))


@pytest.mark.parametrize("n", [True, "2", 2.0, None])
def test_walkgraph_refuses_a_node_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="node count must be an integer"):
        WalkGraph(n, (), (0.0, 0.0))


def test_walkgraph_stores_a_numpy_node_count_as_an_int():
    g = WalkGraph(np.int64(2), (), (0.0, 0.0))
    assert type(g.n_nodes) is int and g.n_nodes == 2


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: build_line(3, deltas="12"), "edge amplitudes must be real numbers"),
        (lambda: build_line(3, deltas=True), "edge amplitudes must be real numbers"),
        (lambda: build_line(3, deltas=[1.0, np.bool_(True)]), "edge amplitudes must be real numbers"),
        (lambda: build_line(3, deltas=np.array([[1.0], [2.0]])), "edge amplitudes must be real numbers"),
        (lambda: build_line(2.0), "node count must be an integer"),
        (lambda: build_cycle(3, eps="0.5"), "onsite energies must be real numbers"),
        (lambda: build_cycle(True), "node count must be an integer"),
        (lambda: build_hypercube(2, "1.5"), "delta0 must be a real number"),
        (lambda: build_hypercube(2.0), "hypercube dimension must be an integer"),
        (lambda: Hyperlattice(1, 3, delta0="1.5"), "delta0 must be a real number"),
        (lambda: Hyperlattice(1, 3, delta0=math.nan), "delta0 must be finite"),
        (lambda: Hyperlattice(2.5, 3), "dimension and side length must be integers"),
        (lambda: Hyperlattice(True, 3), "dimension and side length must be integers"),
        (lambda: Hyperlattice(2, "3"), "dimension and side length must be integers"),
        (lambda: band_energy(Hyperlattice(1, 3), ["0.5"]), "momentum components must be real numbers"),
        (lambda: band_energy(Hyperlattice(1, 3), "0.5"), "momentum components must be real numbers"),
    ],
    ids=[
        "line-str-deltas", "line-bool-deltas", "line-numpy-bool-delta", "line-2d-deltas", "line-float-n",
        "cycle-str-eps", "cycle-bool-n", "hypercube-str-delta0", "hypercube-float-m", "lattice-str-delta0",
        "lattice-nan-delta0", "lattice-float-dimension", "lattice-bool-dimension", "lattice-str-side",
        "band-str-list", "band-str",
    ],
)
def test_builders_refuse_what_they_used_to_coerce(build, match):
    """Counts must be integers and amplitudes real numbers: strings, booleans
    and floats where a count belongs are refused with ValueError, not read."""
    with pytest.raises(ValueError, match=match):
        build()


def test_builders_take_numpy_numbers_and_arrays():
    """NumPy scalars and arrays are read as the numbers they hold."""
    deltas = np.array([0.5, -1.25, 2.0])
    assert build_cycle(np.int64(3), deltas=deltas, eps=np.float64(0.1)) == build_cycle(3, [0.5, -1.25, 2.0], 0.1)
    assert build_line(2, np.array(0.5)) == build_line(2, 0.5)
    assert build_line(3, deltas=np.array([1, 2])).edges == ((0, 1, 1.0), (1, 2, 2.0))
    lat = Hyperlattice(np.int64(2), np.int64(3), np.float64(0.75))
    assert (type(lat.dimension), type(lat.side), type(lat.delta0)) == (int, int, float)
    assert band_energy(lat, np.array([0.5, 1.0])) == band_energy(lat, [0.5, 1.0])
    assert band_energy(Hyperlattice(1, 3), np.float64(0.5)) == band_energy(Hyperlattice(1, 3), [0.5])
    assert build_hypercube(np.int64(2), np.int64(1)) == build_hypercube(2, 1.0)
