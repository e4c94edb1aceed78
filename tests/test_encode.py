"""Walk-to-qubit encodings checked against dense matrix restrictions."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from walkforge import (
    Hyperlattice,
    PauliString,
    WalkGraph,
    build_cycle,
    build_hypercube,
    build_hyperlattice_graph,
    build_line,
    encode_binary,
    encode_single_excitation,
    gray_labels,
    hyperlattice_qubit_hamiltonian,
    line_position,
    line_qubit_hamiltonian,
    to_matrix,
    walk_matrix,
)
from walkforge.encode import _index_labels

rng = np.random.default_rng(8128)


def _single_excitation_block(g: WalkGraph) -> np.ndarray:
    """Restrict the dense encoding to the one-up-qubit subspace, node order."""
    n = g.n_nodes
    dense = to_matrix(encode_single_excitation(g))
    idx = [1 << (n - 1 - j) for j in range(n)]
    return dense[np.ix_(idx, idx)]


def _random_graph(n: int) -> WalkGraph:
    edges = tuple(
        (i, j, float(rng.normal()))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    )
    return WalkGraph(n, edges, tuple(rng.normal(size=n)))


def test_single_excitation_two_nodes():
    """A unit hop becomes -(X1 X2 + Y1 Y2)/2."""
    h = encode_single_excitation(build_line(2))
    assert h.terms == (
        (-0.5, PauliString(2, "XX")),
        (-0.5, PauliString(2, "YY")),
    )
    np.testing.assert_allclose(_single_excitation_block(build_line(2)), [[0, -1], [-1, 0]], atol=1e-14)


def test_single_excitation_single_node():
    """A lone onsite energy becomes eps (I + Z)/2."""
    h = encode_single_excitation(WalkGraph(1, (), (5.0,)))
    assert h.terms == (
        (2.5, PauliString(1, "I")),
        (2.5, PauliString(1, "Z")),
    )


def test_single_excitation_triangle():
    """The triangle's restricted block is minus its adjacency matrix."""
    block = _single_excitation_block(build_cycle(3))
    want = -np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    np.testing.assert_allclose(block, want, atol=1e-13)


def test_single_excitation_random_graphs():
    """Random weighted graphs restrict exactly to their walk matrices."""
    for n in (2, 4, 7):
        g = _random_graph(n)
        np.testing.assert_allclose(_single_excitation_block(g), walk_matrix(g), atol=1e-12)


def test_encode_binary_two_node_path():
    """Labels down/up make the 2-node hop a single -delta X."""
    g = WalkGraph(2, ((0, 1, 0.75),), (0.0, 0.0), labels=("0", "1"))
    h = encode_binary(g)
    assert h.terms == ((-0.75, PauliString(1, "X")),)


def test_encode_binary_hypercube_merges_to_single_x():
    """The cube under canonical labels merges to one X per qubit."""
    h = encode_binary(build_hypercube(3, delta0=0.5))
    assert h.terms == (
        (-0.5, PauliString(3, "IIX")),
        (-0.5, PauliString(3, "IXI")),
        (-0.5, PauliString(3, "XII")),
    )


_ONE_QUBIT = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, 1.0j], [-1.0j, 0.0]]),
    "Z": np.diag([-1.0, 1.0]),
}


def _trace_coefficients(e: np.ndarray, m: int) -> dict[str, complex]:
    """tr(P E) / 2^m over all 4^m Kronecker-built strings P, qubit 1 leftmost."""
    out = {}
    for letters in itertools.product("IXYZ", repeat=m):
        p = np.eye(1)
        for letter in letters:
            p = np.kron(p, _ONE_QUBIT[letter])
        out["".join(letters)] = np.trace(p @ e) / 2**m
    return out


def _label_sets(n: int, m: int) -> list[tuple[tuple[str, ...], tuple[str, ...] | None]]:
    """Index labels (none given), random sparse m-bit labels, and Gray labels when n = 2^m."""
    width = max(1, (n - 1).bit_length())
    sparse = tuple(format(int(k), f"0{m}b") for k in rng.choice(2**m, size=n, replace=False))
    sets = [(tuple(format(j, f"0{width}b") for j in range(n)), None), (sparse, sparse)]
    if n == 2**m:
        sets.append((gray_labels(m), gray_labels(m)))
    return sets


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (6, 4), (11, 4), (16, 4)])
def test_encode_binary_matches_trace_oracle(n, m):
    """Every coefficient is tr(P E) / 2^m of the walk matrix E embedded at the labels."""
    for labels, given in _label_sets(n, m):
        g = _random_graph(n)
        w = len(labels[0])
        idx = [int(s, 2) for s in labels]
        e = np.zeros((2**w, 2**w))
        e[np.ix_(idx, idx)] = walk_matrix(g)
        want = {k: c for k, c in _trace_coefficients(e, w).items() if abs(c) > 1e-14}
        got = {s.letters: c for c, s in encode_binary(g, given).terms}
        assert set(got) == set(want)
        tol = 1e-15 * max(1.0, float(np.max(np.abs(e))))
        assert max(abs(got[k] - want[k]) for k in want) <= tol


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_encode_binary_hypercube_is_exact(m):
    """The m-cube merges to exactly m single-X strings of coefficient exactly -delta."""
    for delta in rng.normal(size=5):
        h = encode_binary(build_hypercube(m, float(delta)))
        assert len(h.terms) == m
        assert all(c == -delta and s.letters.count("X") == 1 for c, s in h.terms)


def test_encode_binary_embeds_walk_matrix():
    """The dense form holds walk_matrix at labeled indices and zero elsewhere."""
    g = _random_graph(3)
    h = encode_binary(g)
    dense = to_matrix(h)
    idx = [0, 1, 2]
    np.testing.assert_allclose(dense[np.ix_(idx, idx)], walk_matrix(g), atol=1e-12)
    np.testing.assert_allclose(dense[3, :], 0.0, atol=1e-12)
    np.testing.assert_allclose(dense[:, 3], 0.0, atol=1e-12)


def test_encode_binary_respects_explicit_labels():
    """A custom labeling moves nodes to the requested basis indices."""
    g = WalkGraph(2, ((0, 1, 1.0),), (0.3, -0.4))
    dense = to_matrix(encode_binary(g, ("10", "01")))
    np.testing.assert_allclose(dense[np.ix_([2, 1], [2, 1])], walk_matrix(g), atol=1e-12)
    np.testing.assert_allclose(dense[0, 0], 0.0, atol=1e-12)


def test_index_labels_are_the_binary_expansions():
    """The array-built index labels equal format(j, '0mb') on the fewest bits, at least one."""
    for n in range(1, 1101):
        m = max(1, (n - 1).bit_length())
        assert _index_labels(n) == tuple(format(j, f"0{m}b") for j in range(n))


@pytest.mark.parametrize(
    "graph",
    [WalkGraph(1, (), (0.4,)), build_line(2, 0.7, [0.1, -0.3]), build_cycle(5, 1.1, 0.2)]
    + [_random_graph(n) for n in (3, 8, 13)],
)
def test_encode_binary_of_an_unlabeled_graph_uses_the_index_labels(graph):
    """Node j of an unlabeled graph sits at basis state j, as with explicit index labels."""
    labels = _index_labels(graph.n_nodes)
    want = encode_binary(graph, labels)
    assert encode_binary(graph) == want
    assert encode_binary(WalkGraph(graph.n_nodes, graph.edges, graph.onsite, labels)) == want


def test_encode_binary_rejects_duplicate_labels():
    """Two nodes cannot share a bit string."""
    g = WalkGraph(2, ((0, 1, 1.0),), (0.0, 0.0))
    with pytest.raises(ValueError, match="duplicate labels"):
        encode_binary(g, ("1", "1"))


def test_encode_binary_rejects_an_empty_label():
    """An empty label is refused as a bit string, before it is read as a basis index."""
    g = WalkGraph(1, (), (0.0,), ("",))
    with pytest.raises(ValueError, match="label must be a nonempty bit string"):
        encode_binary(g)


@pytest.mark.parametrize("labels", [(10, 11), (b"0", b"1"), ("0", 1)])
def test_encode_binary_refuses_labels_that_are_not_strings(labels):
    """A label is a bit string as given; nothing is read through str()."""
    g = WalkGraph(2, ((0, 1, 1.0),), (0.0, 0.0))
    with pytest.raises(ValueError, match="label must be a nonempty bit string"):
        encode_binary(g, labels)
    with pytest.raises(ValueError, match="input must be a nonempty bit string"):
        line_position(labels[1])


def test_encode_binary_rejects_wrong_label_count():
    """Every node needs exactly one label."""
    g = WalkGraph(3, (), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="one label per node"):
        encode_binary(g, ("00", "01"))


@pytest.mark.parametrize("n_qubits", [2.0, True, "2"])
def test_gray_labels_refuse_a_qubit_count_that_is_not_an_integer(n_qubits):
    with pytest.raises(ValueError, match="qubit count must be an integer"):
        gray_labels(n_qubits)


def test_gray_labels_adjacent_strings_differ_one_bit():
    """Consecutive labels differ in exactly one position."""
    for n in (1, 2, 3, 5):
        labels = gray_labels(n)
        assert len(labels) == 1 << n
        assert len(set(labels)) == 1 << n
        for a, b in zip(labels, labels[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1


def test_line_position_origin_and_small_cases():
    """All-down maps to position 1; the 2-qubit order is down-down, down-up, up-up, up-down."""
    assert line_position("000") == 1
    assert [line_position(x) for x in ("00", "01", "11", "10")] == [1, 2, 3, 4]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_line_position_bijection(n):
    """The map is a bijection onto 1..2^n and inverts gray_labels."""
    labels = gray_labels(n)
    positions = [line_position(x) for x in labels]
    assert positions == list(range(1, (1 << n) + 1))


def test_line_position_neighbors_differ_one_bit():
    """Strings at adjacent positions differ in exactly one bit."""
    n = 4
    strings = sorted((format(v, f"0{n}b") for v in range(1 << n)), key=line_position)
    for a, b in zip(strings, strings[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_line_position_rejects_bad_input():
    """Only nonempty 0/1 strings are positions."""
    with pytest.raises(ValueError, match="nonempty bit string"):
        line_position("")
    with pytest.raises(ValueError, match="nonempty bit string"):
        line_position("012")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_line_qubit_hamiltonian_matches_path(n):
    """The N-qubit line Hamiltonian equals the 2^N-node path in the line labeling."""
    h = line_qubit_hamiltonian(n)
    g = build_line(1 << n)
    labels = gray_labels(n)
    idx = [int(l, 2) for l in labels]
    np.testing.assert_allclose(to_matrix(h)[np.ix_(idx, idx)], walk_matrix(g), atol=1e-12)


def test_line_qubit_hamiltonian_single_qubit():
    """One qubit reduces to -delta0 X."""
    h = line_qubit_hamiltonian(1, deltas=0.8)
    assert h.terms == ((-0.8, PauliString(1, "X")),)


def test_line_qubit_hamiltonian_nonuniform():
    """Per-bond amplitudes and onsite energies carry through exactly."""
    deltas = tuple(rng.normal(size=3))
    eps = tuple(rng.normal(size=4))
    h = line_qubit_hamiltonian(2, deltas=deltas, eps=eps)
    g = build_line(4, deltas=deltas, eps=eps)
    idx = [int(l, 2) for l in gray_labels(2)]
    np.testing.assert_allclose(to_matrix(h)[np.ix_(idx, idx)], walk_matrix(g), atol=1e-12)


def test_hyperlattice_hamiltonian_single_axis():
    """One axis reduces to the line Hamiltonian."""
    a = hyperlattice_qubit_hamiltonian(1, 2)
    b = line_qubit_hamiltonian(2)
    assert a == b


def test_hyperlattice_hamiltonian_two_single_qubit_axes():
    """Two 1-qubit axes give -delta0 (X1 + X2) with the Kronecker-sum spectrum."""
    h = hyperlattice_qubit_hamiltonian(2, 1)
    assert h.terms == (
        (-1.0, PauliString(2, "IX")),
        (-1.0, PauliString(2, "XI")),
    )
    vals = np.sort(np.linalg.eigvalsh(to_matrix(h)))
    np.testing.assert_allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_hyperlattice_hamiltonian_matches_grid():
    """The 2-axis, 2-qubit Hamiltonian is the 4x4 open grid under product labels."""
    h = hyperlattice_qubit_hamiltonian(2, 2)
    grid = build_hyperlattice_graph(Hyperlattice(2, 4, boundary="open"))
    gl = gray_labels(2)
    perm = [int(gl[r] + gl[c], 2) for r in range(4) for c in range(4)]
    dense = to_matrix(h)[np.ix_(perm, perm)]
    np.testing.assert_allclose(dense, walk_matrix(grid), atol=1e-12)


def test_hyperlattice_hamiltonian_rejects_no_axes():
    """At least one axis is required."""
    with pytest.raises(ValueError, match="at least one axis"):
        hyperlattice_qubit_hamiltonian(0, 2)


def _kron_sum(blocks: list[np.ndarray]) -> np.ndarray:
    """sum_ax I x ... x blocks[ax] x ... x I, axis 0 the most significant factor."""
    dims = [b.shape[0] for b in blocks]
    out = 0
    for ax, b in enumerate(blocks):
        left, right = int(np.prod(dims[:ax])), int(np.prod(dims[ax + 1:]))
        out = out + np.kron(np.kron(np.eye(left), b), np.eye(right))
    return out


@pytest.mark.parametrize(
    "d, n, kwargs",
    [(2, 1, {"eps": [-1.0, 1.0]}), (3, 2, {"deltas": [0.5, 1.0, 1.5]}), (3, 2, {"deltas": (1, 1, 1)})],
)
def test_hyperlattice_hamiltonian_refuses_a_list_with_two_readings(d, n, kwargs):
    """A flat list of d numbers that is also one number per node or bond of an
    axis was read as one value per axis without a word; it is refused, and
    either reading is one list per axis."""
    ((what, value),) = kwargs.items()
    with pytest.raises(ValueError, match=f"{what} of {d} numbers reads both as one value per axis"):
        hyperlattice_qubit_hamiltonian(d, n, **kwargs)
    per_axis = hyperlattice_qubit_hamiltonian(d, n, **{what: [[v] * len(value) for v in value]})
    along = hyperlattice_qubit_hamiltonian(d, n, **{what: [list(value)] * d})
    lines = [to_matrix(line_qubit_hamiltonian(n, **{what: v})) for v in value]
    np.testing.assert_allclose(to_matrix(per_axis), _kron_sum(lines), atol=1e-12)
    along_line = to_matrix(line_qubit_hamiltonian(n, **{what: list(value)}))
    np.testing.assert_allclose(to_matrix(along), _kron_sum([along_line] * d), atol=1e-12)


def test_hyperlattice_hamiltonian_single_axis_list_has_one_reading():
    """With one axis a list of one bond is the same under both readings."""
    assert hyperlattice_qubit_hamiltonian(1, 1, deltas=[0.7]) == line_qubit_hamiltonian(1, deltas=0.7)
