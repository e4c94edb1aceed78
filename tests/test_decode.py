"""Qubit-to-walk inverse mappings against dense matrix-element oracles."""
from __future__ import annotations

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    PauliHamiltonian,
    PauliString,
    StaticQubitHamiltonian,
    WalkGraph,
    XYChain,
    build_qft_circuit,
    circuit_to_pulses,
    encode_binary,
    exact_propagator,
    excitation_graph,
    graph_to_json,
    hamiltonian_from_text,
    matrix_to_walk,
    pulse_to_walk_edges,
    replay_pulses,
    static_to_pauli,
    static_to_walk,
    to_matrix,
    uniform_strengths,
    walk_matrix,
)

rng = np.random.default_rng(65537)


def _random_static(n: int) -> StaticQubitHamiltonian:
    chi = rng.normal(size=(n, n))
    np.fill_diagonal(chi, 0.0)
    vperp = rng.normal(size=(n, n))
    vperp = vperp + vperp.T
    np.fill_diagonal(vperp, 0.0)
    vpar = rng.normal(size=(n, n))
    vpar = vpar + vpar.T
    np.fill_diagonal(vpar, 0.0)
    return StaticQubitHamiltonian(
        n, rng.normal(size=n), rng.normal(size=n), chi, vperp, vpar
    )


def test_static_to_pauli_single_qubit():
    """One qubit carries just -eps Z - delta X."""
    h = StaticQubitHamiltonian(
        1,
        np.array([0.3]),
        np.array([0.7]),
        np.zeros((1, 1)),
        np.zeros((1, 1)),
        np.zeros((1, 1)),
    )
    assert static_to_pauli(h).terms == (
        (-0.7, PauliString(1, "X")),
        (-0.3, PauliString(1, "Z")),
    )


def test_static_to_pauli_pair_terms():
    """Cross couplings produce ZX, XX, and ZZ strings with the right signs."""
    chi = np.array([[0.0, 0.25], [0.0, 0.0]])
    vperp = np.array([[0.0, 0.5], [0.5, 0.0]])
    vpar = np.array([[0.0, -0.75], [-0.75, 0.0]])
    h = StaticQubitHamiltonian(2, np.zeros(2), np.zeros(2), chi, vperp, vpar)
    assert static_to_pauli(h).terms == (
        (-0.5, PauliString(2, "XX")),
        (0.25, PauliString(2, "ZX")),
        (-0.75, PauliString(2, "ZZ")),
    )


def test_static_to_walk_matches_dense_oracle():
    """The closed-form graph equals the dense Pauli matrix entrywise."""
    for _ in range(20):
        n = int(rng.integers(1, 7))
        h = _random_static(n)
        g = static_to_walk(h)
        assert g.n_nodes == 1 << n
        np.testing.assert_allclose(
            walk_matrix(g), to_matrix(static_to_pauli(h)).real, atol=1e-12
        )


def test_static_to_walk_three_qubit_edge_pattern():
    """The |000>-|100> amplitude is delta_1 plus the two spectator chi terms."""
    h = _random_static(3)
    g = static_to_walk(h)
    weights = {(a, b): w for a, b, w in g.edges}
    want = h.delta[0] + h.chi[1, 0] + h.chi[2, 0]
    np.testing.assert_allclose(weights[(0, 4)], want, atol=1e-12)


def _static_to_walk_by_node(h: StaticQubitHamiltonian):
    """The closed form walked node by node: (edges, onsite) in the documented order."""
    n = h.n_qubits
    signs = [[1.0 - 2.0 * (j >> (n - 1 - a) & 1) for a in range(n)] for j in range(1 << n)]
    edges, onsite = [], []
    for j, s in enumerate(signs):
        e = sum(s[a] * h.eps[a] for a in range(n))
        onsite.append(e + sum(s[a] * s[b] * h.vpar[a, b] for a in range(n) for b in range(a + 1, n)))
        for a in range(n):
            w = h.delta[a] + sum(s[c] * h.chi[c, a] for c in range(n) if c != a)
            if j ^ (1 << (n - 1 - a)) > j and abs(w) > 1e-14:
                edges.append((j, j ^ (1 << (n - 1 - a)), w))
        for a in range(n):
            for b in range(a + 1, n):
                i = j ^ (1 << (n - 1 - a)) ^ (1 << (n - 1 - b))
                if i > j and abs(h.vperp[a, b]) > 1e-14:
                    edges.append((j, i, h.vperp[a, b]))
    return edges, onsite


@pytest.mark.parametrize("n", range(1, 9))
def test_static_to_walk_matches_the_node_by_node_closed_form(n):
    """Same edge keys in the same order as the per-node closed form, and the
    same weights and energies to rounding, with some couplings switched off."""
    local = np.random.default_rng(1000 + n)
    chi, vperp, vpar = (local.normal(size=(n, n)) for _ in range(3))
    vperp, vpar = vperp + vperp.T, vpar + vpar.T
    vperp[:, n // 2] = vperp[n // 2, :] = 0.0
    delta = local.normal(size=n)
    delta[0], chi[:, 0] = 0.0, 0.0  # no single-flip edges on qubit 1
    for m in (chi, vperp, vpar):
        np.fill_diagonal(m, 0.0)
    h = StaticQubitHamiltonian(n, local.normal(size=n), delta, chi, vperp, vpar)
    g = static_to_walk(h)
    edges, onsite = _static_to_walk_by_node(h)
    assert [e[:2] for e in g.edges] == [e[:2] for e in edges]
    tol = 1e-14 * max(1.0, float(np.max(np.abs(walk_matrix(g)))))
    np.testing.assert_allclose([e[2] for e in g.edges], [e[2] for e in edges], rtol=0, atol=tol)
    np.testing.assert_allclose(g.onsite, onsite, rtol=0, atol=tol)


def test_static_to_walk_labels_are_bit_strings():
    """Node labels spell the basis configurations."""
    g = static_to_walk(_random_static(2))
    assert g.labels == ("00", "01", "10", "11")


def test_static_validation():
    """Shapes, zero diagonals, and symmetry are all enforced."""
    ok = np.zeros((2, 2))
    with pytest.raises(ValueError, match="must have shape \\(2,\\)"):
        StaticQubitHamiltonian(2, np.zeros(3), np.zeros(2), ok, ok, ok)
    bad_diag = np.eye(2)
    with pytest.raises(ValueError, match="diagonal must be zero"):
        StaticQubitHamiltonian(2, np.zeros(2), np.zeros(2), bad_diag, ok, ok)
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="must be symmetric"):
        StaticQubitHamiltonian(2, np.zeros(2), np.zeros(2), ok, asym, ok)


def test_matrix_to_walk_roundtrips_binary_encoding():
    """Encoding a graph and decoding its matrix returns the same weights."""
    n = 8
    edges = tuple(
        (i, j, float(rng.normal()))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    )
    g = WalkGraph(n, edges, tuple(rng.normal(size=n)))
    back = matrix_to_walk(encode_binary(g))
    np.testing.assert_allclose(walk_matrix(back), walk_matrix(g), atol=1e-12)


def test_matrix_to_walk_reads_conventions():
    """Diagonal entries become onsite energies; off-diagonals flip sign."""
    h = PauliHamiltonian(
        1, ((0.5, PauliString(1, "Z")), (-0.25, PauliString(1, "X")))
    )
    g = matrix_to_walk(h)
    np.testing.assert_allclose(g.onsite, (-0.5, 0.5), atol=1e-14)
    assert len(g.edges) == 1
    np.testing.assert_allclose(g.edges[0][2], 0.25, atol=1e-14)


def _scan_edges(mat: np.ndarray) -> tuple[list[tuple[int, int, float]], list[float], float]:
    """Entry-by-entry reading of a dense walk matrix, upper triangle row by row."""
    real = mat.real
    scale = max(1.0, float(np.max(np.abs(mat))))
    edges = []
    for j in range(real.shape[0]):
        for i in range(j + 1, real.shape[0]):
            if abs(real[j, i]) > 1e-12 * scale:
                edges.append((j, i, float(-real[j, i])))
    return edges, [float(real[j, j]) for j in range(real.shape[0])], scale


def _random_graph(n: int, p: float) -> WalkGraph:
    edges = tuple((i, j, float(rng.normal())) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
    return WalkGraph(n, edges, tuple(rng.normal(size=n)))


@pytest.mark.parametrize(
    "graph",
    [_random_graph(n, p) for n, p in ((5, 0.5), (12, 0.3), (20, 0.6), (32, 0.1))]
    + [excitation_graph(XYChain(6, tuple(rng.uniform(0.5, 1.5, size=5)), 0.3), 3)]
    + [excitation_graph(XYChain(7, 1.0, 0.0), k) for k in (2, 3)],
)
def test_matrix_to_walk_matches_the_entry_scan(graph):
    """The vectorized read keeps the entry-by-entry edge order, pairs and values."""
    h = encode_binary(graph)
    want_edges, want_onsite, scale = _scan_edges(to_matrix(h))
    g = matrix_to_walk(h)
    assert [(j, i) for j, i, _ in g.edges] == [(j, i) for j, i, _ in want_edges]
    np.testing.assert_allclose([w for *_, w in g.edges], [w for *_, w in want_edges], rtol=0, atol=1e-15 * scale)
    np.testing.assert_allclose(g.onsite, want_onsite, rtol=0, atol=1e-15 * scale)
    m = h.m_qubits
    assert g.labels == tuple(format(j, f"0{m}b") for j in range(1 << m))


def test_matrix_to_walk_rejects_complex_amplitudes():
    """A Y term leaves the stoquastic form and is refused."""
    h = PauliHamiltonian(1, ((1.0, PauliString(1, "Y")),))
    with pytest.raises(ValueError, match="not a stoquastic-form walk"):
        matrix_to_walk(h)


def test_matrix_to_walk_rejects_non_hermitian():
    """Complex coefficients on plain strings are not a Hamiltonian."""
    h = PauliHamiltonian(1, ((1j, PauliString(1, "X")),))
    with pytest.raises(ValueError, match="not hermitian"):
        matrix_to_walk(h)


def _hop_with_xy(imag: float) -> PauliHamiltonian:
    """A hop on two qubits plus an XY term with an imaginary coefficient, which
    adds a real antisymmetric part of size 2 * imag."""
    return PauliHamiltonian(2, ((-0.5, PauliString(2, "XX")), (-0.5, PauliString(2, "YY")), (imag * 1j, PauliString(2, "XY"))))


def test_matrix_to_walk_rejects_a_small_antisymmetric_part():
    """An imaginary coefficient still runs the dense check: 1e-6 is refused."""
    with pytest.raises(ValueError, match="matrix is not hermitian"):
        matrix_to_walk(_hop_with_xy(1e-6))


def test_matrix_to_walk_accepts_an_antisymmetric_part_within_the_tolerance():
    """A 1e-13j XY term passes the dense 1e-12 check, though is_hermitian()
    refuses it, and decodes to the graph read off the dense matrix."""
    h = _hop_with_xy(1e-13)
    assert not h.is_hermitian()
    mat = to_matrix(h).real
    g = matrix_to_walk(h)
    rows, cols = np.nonzero(np.triu(np.abs(mat) > 1e-14, 1))
    assert g.edges == tuple((int(r), int(c), float(-mat[r, c])) for r, c in zip(rows, cols))
    assert g.onsite == (0.0,) * 4
    assert abs(dict(((j, i), w) for j, i, w in g.edges)[1, 2] - 1.0) <= 3e-13


def test_real_coefficients_realize_an_exactly_hermitian_matrix():
    """The premise of matrix_to_walk's skipped scan: with real coefficients,
    strings with odd Y counts included, to_matrix equals its conjugate
    transpose bit for bit, for coefficients over 40 orders of magnitude."""
    local = np.random.default_rng(2718)
    for _ in range(40):
        m = int(local.integers(1, 6))
        terms = tuple(
            (float(local.normal() * 10.0 ** local.integers(-20, 20)), PauliString(m, "".join(local.choice(list("IXYZ"), m))))
            for _ in range(int(local.integers(1, 4**m + 1)))
        )
        mat = to_matrix(PauliHamiltonian(m, terms))
        assert np.array_equal(mat, mat.conj().T)


def test_pulse_edges_single_x():
    """A delta pulse on qubit 1 of 3 hops between every index pair differing
    in that bit, with amplitude strength, and adds no energies."""
    out = pulse_to_walk_edges(FundamentalPulse("delta", (1,), 0.4, 1.0), 3)
    assert out.n_nodes == 8
    assert out.edges == ((0, 4, 0.4), (1, 5, 0.4), (2, 6, 0.4), (3, 7, 0.4))
    assert out.onsite == (0.0,) * 8


def test_pulse_edges_xx_pair():
    """A vperp pulse flips two bits at once, pairing complementary indices."""
    out = pulse_to_walk_edges(FundamentalPulse("vperp", (2, 3), 0.1, 1.0), 3)
    assert out.edges == ((0, 3, 0.1), (1, 2, 0.1), (4, 7, 0.1), (5, 6, 0.1))
    assert out.onsite == (0.0,) * 8


def test_pulse_edges_z_drive():
    """An eps pulse produces no hops: its +strength Z puts +strength on the
    nodes with the bit up and -strength on the others."""
    out = pulse_to_walk_edges(FundamentalPulse("eps", (2,), 0.2, 1.0), 3)
    assert out.edges == ()
    assert [j for j, e in enumerate(out.onsite) if e == 0.2] == [2, 3, 6, 7]
    assert [j for j, e in enumerate(out.onsite) if e == -0.2] == [0, 1, 4, 5]


def test_pulse_edges_rejects_unsupported_kind():
    """Only the fundamental drive kinds map to walk moves: a gate reaches
    pulse_to_walk_edges through circuit_to_pulses, which refuses other kinds."""
    c = Circuit(2, 0, (Gate("H", (1,)),))
    with pytest.raises(ValueError, match="outside the fundamental set"):
        circuit_to_pulses(c, uniform_strengths(2))


def test_pulse_edges_rejects_wire_overflow():
    """The pulse must fit in the declared register."""
    with pytest.raises(ValueError, match="exceed the register"):
        pulse_to_walk_edges(FundamentalPulse("delta", (3,), 1.0, 0.1), 2)
    with pytest.raises(ValueError, match="exceed the register"):
        pulse_to_walk_edges(FundamentalPulse("vperp", (1, 4), 1.0, 0.1), 3)


_PULSES = (
    FundamentalPulse("eps", (2,), 0.7, 0.37),
    FundamentalPulse("delta", (1,), 1.3, 0.41),
    FundamentalPulse("vperp", (1, 3), 0.6, 0.9),
)


@pytest.mark.parametrize("pulse", _PULSES, ids=lambda p: p.term)
def test_pulse_walk_propagator_matches_replay(pulse):
    """Each pulse term's walk, run for the pulse's duration, is its replayed propagator."""
    g = pulse_to_walk_edges(pulse, 3)
    got = exact_propagator(walk_matrix(g), pulse.duration)
    assert np.max(np.abs(got - replay_pulses((pulse,), 3))) <= 1e-12


@pytest.mark.parametrize(
    "pulse, text",
    list(zip(_PULSES, ("QUBITS 3\n0.7 * Z2", "QUBITS 3\n-1.3 * X1", "QUBITS 3\n-0.6 * X1 X3"))),
    ids=[p.term for p in _PULSES],
)
def test_pulse_walk_encodes_to_the_pulse_term(pulse, text):
    """Binary encoding of a pulse's walk gives back the pulse's own Pauli term:
    eps +strength Z, delta -strength X, vperp -strength XX."""
    got = encode_binary(pulse_to_walk_edges(pulse, 3))
    want = hamiltonian_from_text(text)
    assert [s for _, s in got.terms] == [s for _, s in want.terms]
    assert np.allclose([c for c, _ in got.terms], [c for c, _ in want.terms], rtol=0.0, atol=1e-15)


def test_qft_schedule_walk_product_matches_replay():
    """The fundamental QFT(3) schedule, read pulse by pulse as walks, multiplies
    out to the replayed schedule."""
    pulses = circuit_to_pulses(build_qft_circuit(3, "fundamental"), uniform_strengths(3))
    u = np.eye(8, dtype=complex)
    for p in pulses:
        u = exact_propagator(walk_matrix(pulse_to_walk_edges(p, 3)), p.duration) @ u
    assert len(pulses) == 63
    assert np.max(np.abs(u - replay_pulses(pulses, 3))) <= 1e-12


@pytest.mark.parametrize("field", ["eps", "delta", "chi", "vperp", "vpar"])
def test_static_rejects_non_finite(field):
    """A NaN anywhere in the template is refused, not decoded to NaN energies."""
    arrays = {"eps": np.zeros(2), "delta": np.zeros(2)}
    arrays.update({name: np.zeros((2, 2)) for name in ("chi", "vperp", "vpar")})
    arrays[field].flat[1] = np.nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        StaticQubitHamiltonian(2, **arrays)


@pytest.mark.parametrize(
    "n, field, value, match",
    [
        (1.7, "eps", np.zeros(1), "qubit count must be an integer"),
        (True, "eps", np.zeros(1), "qubit count must be an integer"),
        (1, "eps", np.array(["3"]), "eps must hold real numbers"),
        (1, "delta", np.array([False]), "delta must hold real numbers"),
        (1, "chi", np.array([[0j]]), "chi must hold real numbers"),
        (1, "vpar", [[None]], "vpar must hold real numbers"),
    ],
)
def test_static_refuses_to_coerce(n, field, value, match):
    """Strings, booleans, complex numbers and non-integer counts are refused, not converted."""
    arrays = {"eps": np.zeros(1), "delta": np.zeros(1)}
    arrays.update({name: np.zeros((1, 1)) for name in ("chi", "vperp", "vpar")})
    arrays[field] = value
    with pytest.raises(ValueError, match=match):
        StaticQubitHamiltonian(n, **arrays)


@pytest.mark.parametrize(
    "field, value",
    [
        ("eps", [1, True]),
        ("delta", [0.5, False]),
        ("chi", [[0, 1], [False, 0]]),
        ("vperp", [[0.0, np.True_], [1.0, 0.0]]),
        ("vpar", [np.zeros(2), [True, 0]]),
    ],
)
def test_static_refuses_a_boolean_among_numbers(field, value):
    """A boolean inside a list of numbers is refused like an all-boolean list,
    not read as 0 or 1."""
    arrays = {"eps": [0.0, 0.0], "delta": [0.0, 0.0]}
    arrays.update({name: [[0.0, 0.0], [0.0, 0.0]] for name in ("chi", "vperp", "vpar")})
    arrays[field] = value
    with pytest.raises(ValueError, match=f"{field} must hold real numbers"):
        StaticQubitHamiltonian(2, **arrays)


def test_static_accepts_integer_entries():
    """Integer entries are numbers and still decode."""
    h = StaticQubitHamiltonian(1, [2], [0], [[0]], [[0]], [[0]])
    assert h.eps.dtype == float and h.eps[0] == 2.0


def test_matrix_to_walk_refuses_above_the_cap_before_allocating(monkeypatch):
    """A 20-qubit Hamiltonian (a 16 TiB dense matrix) is refused by to_matrix's
    cap check before anything dense is allocated."""
    monkeypatch.delenv("WALKFORGE_MAX_QUBITS", raising=False)
    h = PauliHamiltonian(20, ((1.0, PauliString(20, "X" + "I" * 19)),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense pauli matrix needs 20 qubits, above the dense cap of 14"):
            matrix_to_walk(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _template(n: int, local: np.random.Generator) -> StaticQubitHamiltonian:
    """A random template on n qubits with some couplings switched off."""
    chi, vperp, vpar = (local.normal(size=(n, n)) * (local.random((n, n)) < 0.7) for _ in range(3))
    vperp, vpar = vperp + vperp.T, vpar + vpar.T
    for m in (chi, vperp, vpar):
        np.fill_diagonal(m, 0.0)
    return StaticQubitHamiltonian(n, local.normal(size=n), local.normal(size=n), chi, vperp, vpar)


def _real_pauli_sum(m: int, k: int, local: np.random.Generator) -> PauliHamiltonian:
    """k real terms on m qubits whose strings hold an even number of Y letters."""
    terms = []
    for _ in range(k):
        letters = local.choice(list("IXZY"), size=m)
        if (letters == "Y").sum() % 2:
            letters[np.flatnonzero(letters == "Y")[0]] = "X"
        terms.append((float(local.normal()), PauliString(m, "".join(letters))))
    return PauliHamiltonian(m, tuple(terms))


_DECODED = [static_to_walk(_template(n, np.random.default_rng(300 + n))) for n in range(1, 9)] + [
    matrix_to_walk(_real_pauli_sum(m, k, np.random.default_rng(400 + m))) for m, k in ((1, 2), (3, 6), (5, 20), (7, 40))
]


@pytest.mark.parametrize("g", _DECODED, ids=lambda g: f"n{g.n_nodes}")
def test_decoded_graphs_equal_their_checked_construction(g):
    """A decoder builds its graph from arrays without the per-edge checks; the
    result equals, hashes and serializes as the checked constructor's, and
    holds Python ints and floats."""
    checked = WalkGraph(g.n_nodes, g.edges, g.onsite, g.labels)
    assert g == checked and hash(g) == hash(checked)
    assert graph_to_json(g) == graph_to_json(checked)
    assert all(type(i) is int and type(j) is int and type(d) is float for i, j, d in g.edges)
    assert all(type(e) is float for e in g.onsite) and all(type(s) is str for s in g.labels)


def test_decoded_graphs_are_pinned():
    """One static template and one matrix_to_walk result serialize to their recorded sha256."""
    static = graph_to_json(static_to_walk(_template(5, np.random.default_rng(2021))))
    matrix = graph_to_json(matrix_to_walk(_real_pauli_sum(4, 12, np.random.default_rng(2022))))
    assert hashlib.sha256(static.encode()).hexdigest() == "3d5adaf692d4069a980b34c699bcdce6627c9291039a82678c135a0106f4b347"
    assert hashlib.sha256(matrix.encode()).hexdigest() == "b71cf945d764e73dea239d085332e2f6c90e65de30e3e4aa3add261dbc12b04d"


@pytest.mark.parametrize(
    "field, value",
    [("eps", [1e308, 1e308]), ("delta", [1e308, 0.0])],
    ids=["onsite", "hop"],
)
def test_static_to_walk_refuses_an_overflowing_template(field, value):
    """Finite template entries whose sums overflow are refused with the graph's
    finiteness message: the onsite energy of node 00, or the qubit-1 flip
    delta_1 + chi_21."""
    arrays = {"eps": np.zeros(2), "delta": np.zeros(2), "chi": np.zeros((2, 2))}
    arrays[field] = np.array(value)
    if field == "delta":
        arrays["chi"][1, 0] = 1e308
    h = StaticQubitHamiltonian(2, vperp=np.zeros((2, 2)), vpar=np.zeros((2, 2)), **arrays)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="hop amplitudes and onsite energies must be finite"):
        static_to_walk(h)


def test_matrix_to_walk_refuses_an_overflowing_matrix():
    """Two finite 1.5e308 terms sum to inf in the dense matrix; the matrix is
    refused rather than read with an infinite edge threshold that drops every
    edge, the finite IX hop among them."""
    h = PauliHamiltonian(2, ((1.5e308, PauliString(2, "XI")), (1.5e308, PauliString(2, "XZ")), (1.0, PauliString(2, "IX"))))
    with np.errstate(over="ignore"):
        assert np.isinf(to_matrix(h)).any()
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            matrix_to_walk(h)


def test_decoders_refuse_overflow_without_a_warning():
    """With warnings as errors both decoders raise their ValueError; numpy's
    overflow warnings used to escape first as RuntimeWarning."""
    z = np.zeros((2, 2))
    static = StaticQubitHamiltonian(2, [1e308, 1e308], [0.0, 0.0], z, z, z)
    h = PauliHamiltonian(2, ((1.5e308, PauliString(2, "XI")), (1.5e308, PauliString(2, "XZ")), (1.0, PauliString(2, "IX"))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hop amplitudes and onsite energies must be finite"):
            static_to_walk(static)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            matrix_to_walk(h)


def test_static_record_names_a_ragged_field():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="chi is ragged"):
        StaticQubitHamiltonian(2, [0.0, 0.0], [0.0, 0.0], [[0, 1], [0]], z, z)
