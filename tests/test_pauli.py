"""Pauli string algebra, dense realization, and the text serialization."""
from __future__ import annotations

import copy
import itertools
import pickle

import numpy as np
import pytest

from walkforge import (
    PauliHamiltonian,
    PauliString,
    WalkGraph,
    build_cycle,
    build_hypercube,
    encode_binary,
    hamiltonian_from_text,
    hamiltonian_to_text,
    hop_string,
    multiply,
    projector_string,
    to_matrix,
    walk_matrix,
)
from walkforge.pauli import _from_masks, _symmetric_decomposition, _walsh_hadamard

rng = np.random.default_rng(31415)

_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_Z = np.array([[-1.0, 0.0], [0.0, 1.0]])
_ONE_QUBIT = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _dense(s: PauliString) -> np.ndarray:
    """Kronecker-product oracle with qubit 1 as the leftmost factor."""
    out = np.array([[s.phase]])
    for letter in s.letters:
        out = np.kron(out, _ONE_QUBIT[letter])
    return out


def test_pauli_string_validation():
    """Letters, register size, and phase are all checked."""
    with pytest.raises(ValueError, match="length must equal"):
        PauliString(2, "X")
    with pytest.raises(ValueError, match="letters must come from"):
        PauliString(1, "Q")
    with pytest.raises(ValueError, match="phase must be one of"):
        PauliString(1, "X", phase=2.0)


def test_pauli_string_support():
    """Support lists the 1-based qubits carrying a non-identity letter."""
    assert PauliString(4, "IXIZ").support == (2, 4)
    assert PauliString(3, "III").support == ()


@pytest.mark.parametrize("a", ["I", "X", "Y", "Z"])
@pytest.mark.parametrize("b", ["I", "X", "Y", "Z"])
def test_multiply_single_qubit_table(a, b):
    """Products reproduce the dense single-qubit multiplication table."""
    prod = multiply(PauliString(1, a), PauliString(1, b))
    np.testing.assert_allclose(_dense(prod), _ONE_QUBIT[a] @ _ONE_QUBIT[b], atol=1e-15)


def test_multiply_tracks_phases():
    """X*Y = iZ, and phases compose across qubits."""
    assert multiply(PauliString(1, "X"), PauliString(1, "Y")) == PauliString(1, "Z", 1j)
    prod = multiply(PauliString(2, "XZ"), PauliString(2, "YY"))
    assert prod.letters == "ZX"
    assert prod.phase == 1.0


def test_multiply_random_strings_against_dense():
    """Random multi-qubit products agree with the matrix oracle."""
    for _ in range(25):
        m = int(rng.integers(1, 5))
        a = PauliString(m, "".join(rng.choice(list("IXYZ"), size=m)))
        b = PauliString(m, "".join(rng.choice(list("IXYZ"), size=m)))
        np.testing.assert_allclose(_dense(multiply(a, b)), _dense(a) @ _dense(b), atol=1e-15)


def test_multiply_rejects_size_mismatch():
    """Strings on different registers cannot be multiplied."""
    with pytest.raises(ValueError, match="different register sizes"):
        multiply(PauliString(1, "X"), PauliString(2, "XX"))


def test_hamiltonian_merges_duplicate_terms():
    """Equal letter patterns collapse into a single summed coefficient."""
    h = PauliHamiltonian(
        2, ((1.0, PauliString(2, "XI")), (0.5, PauliString(2, "XI")))
    )
    assert h.terms == ((1.5, PauliString(2, "XI")),)


def test_hamiltonian_drops_vanishing_terms():
    """Cancelling coefficients disappear from the canonical form."""
    h = PauliHamiltonian(
        1, ((1.0, PauliString(1, "Z")), (-1.0, PauliString(1, "Z")))
    )
    assert h.terms == ()


def test_hamiltonian_absorbs_string_phases():
    """A phased string folds its phase into the coefficient."""
    h = PauliHamiltonian(1, ((2.0, PauliString(1, "Y", -1j)),))
    assert h.terms == ((-2.0j, PauliString(1, "Y")),)


def test_hamiltonian_addition_and_scaling():
    """Sums merge term lists; scaling multiplies every coefficient."""
    a = PauliHamiltonian(1, ((1.0, PauliString(1, "X")),))
    b = PauliHamiltonian(1, ((0.25, PauliString(1, "X")), (1.0, PauliString(1, "Z"))))
    total = (a + b).scaled(2.0)
    assert total.terms == (
        (2.5, PauliString(1, "X")),
        (2.0, PauliString(1, "Z")),
    )


def test_hamiltonian_hermiticity_flag():
    """Real coefficients on plain strings make the operator hermitian."""
    real = PauliHamiltonian(1, ((0.5, PauliString(1, "Y")),))
    assert real.is_hermitian()
    imag = PauliHamiltonian(1, ((0.5j, PauliString(1, "Y")),))
    assert not imag.is_hermitian()


def test_to_matrix_against_kron_oracle():
    """Dense realization equals the summed Kronecker products."""
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n_terms = int(rng.integers(1, 5))
        terms = tuple(
            (complex(rng.normal()), PauliString(m, "".join(rng.choice(list("IXYZ"), size=m))))
            for _ in range(n_terms)
        )
        h = PauliHamiltonian(m, terms)
        want = sum(coeff * _dense(s) for coeff, s in terms)
        np.testing.assert_allclose(to_matrix(h), want, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_to_matrix_shared_x_masks_against_kron_oracle(m):
    """Many strings per X/Y mask, complex coefficients, every string phase and
    the identity string: the per-mask transform equals the summed Kronecker
    products."""
    every = ["".join(p) for p in itertools.product("IXYZ", repeat=m)]
    for n_terms in (len(every) // 4 + 1, len(every)):
        letters = ["I" * m] + list(rng.choice(every, size=n_terms, replace=False))
        terms = tuple(
            (complex(rng.normal(), rng.normal()), PauliString(m, l, complex(rng.choice([1, -1, 1j, -1j]))))
            for l in letters
        )
        want = sum(coeff * _dense(s) for coeff, s in terms)
        np.testing.assert_allclose(to_matrix(PauliHamiltonian(m, terms)), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_to_matrix_one_term_per_x_mask_is_exact(m):
    """Hypercube hops, one string per X mask, are realized bit for bit."""
    g = build_hypercube(m, 0.37)
    got = to_matrix(encode_binary(g))
    assert np.array_equal(got, walk_matrix(g))
    assert np.all(got[got != 0] == -0.37)


def test_to_matrix_refuses_above_the_dense_cap(monkeypatch):
    """The dense realization obeys the qubit cap."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    assert to_matrix(PauliHamiltonian(2, ((1.0, PauliString(2, "XZ")),))).shape == (4, 4)
    with pytest.raises(ValueError, match="dense pauli matrix needs 3 qubits, above the dense cap of 2"):
        to_matrix(PauliHamiltonian(3, ((1.0, PauliString(3, "XZY")),)))


def test_hamiltonian_reuses_unphased_strings():
    """Canonical terms keep the caller's phase-1 string; phased ones are rebuilt."""
    plain = PauliString(2, "XZ")
    phased = PauliString(2, "ZY", -1j)
    h = PauliHamiltonian(2, ((0.5, plain), (2.0, phased)))
    assert h.terms[0][1] is plain
    assert h.terms[1] == (-2j, PauliString(2, "ZY"))
    assert h.terms[1][1].phase == 1
    merged = PauliHamiltonian(2, ((1.0, PauliString(2, "XX", -1)), (3.0, PauliString(2, "XX"))))
    assert merged.terms == ((2.0, PauliString(2, "XX")),)


def test_projector_string_dense():
    """projector_string('10') is the rank-1 projector onto basis index 2."""
    p = to_matrix(projector_string("10"))
    want = np.zeros((4, 4))
    want[2, 2] = 1.0
    np.testing.assert_allclose(p, want, atol=1e-15)


def test_projector_string_all_down():
    """The all-down label projects onto basis index 0."""
    p = to_matrix(projector_string("00"))
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    np.testing.assert_allclose(p, want, atol=1e-15)


def test_hop_string_dense():
    """hop_string('10','01') holds exactly the symmetric pair of matrix units."""
    h = to_matrix(hop_string("10", "01"))
    want = np.zeros((4, 4))
    want[2, 1] = want[1, 2] = 1.0
    np.testing.assert_allclose(h, want, atol=1e-14)


def test_hop_string_random_labels():
    """Random label pairs reproduce |z><w| + |w><z| in the dense oracle."""
    for _ in range(10):
        m = int(rng.integers(1, 5))
        z = w = ""
        while z == w:
            z = "".join(rng.choice(["0", "1"], size=m))
            w = "".join(rng.choice(["0", "1"], size=m))
        h = to_matrix(hop_string(z, w))
        want = np.zeros((1 << m, 1 << m))
        want[int(z, 2), int(w, 2)] = want[int(w, 2), int(z, 2)] = 1.0
        np.testing.assert_allclose(h, want, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_decomposition_round_trips(m):
    """to_matrix of the decomposition reproduces random sparse real-symmetric matrices."""
    dim = 1 << m
    for density in (0.1, 0.3, 1.0):
        a = np.triu(np.where(rng.random((dim, dim)) < density, rng.normal(size=(dim, dim)), 0.0))
        a = a + np.triu(a, 1).T
        rows, cols = np.nonzero(a)
        h = _symmetric_decomposition(m, [(int(r), int(c), a[r, c]) for r, c in zip(rows, cols)])
        assert h.is_hermitian(0.0)
        assert np.max(np.abs(to_matrix(h) - a), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(a)))


def test_decomposition_refuses_above_twice_the_dense_cap(monkeypatch):
    """The 2^m working vector is bounded like a state: m at most twice the cap."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    assert len(projector_string("1010").terms) == 16
    with pytest.raises(ValueError, match="pauli decomposition on 5 qubits above twice the dense cap of 2"):
        hop_string("10101", "00000")


def test_hop_string_rejects_equal_labels():
    """Hops need two distinct configurations."""
    with pytest.raises(ValueError, match="labels must differ"):
        hop_string("01", "01")


def test_hop_string_rejects_bad_characters():
    """Labels are bit strings over 0/1 only."""
    with pytest.raises(ValueError, match="only '0' \\(down\\) and '1' \\(up\\)"):
        hop_string("0x", "01")


def test_text_round_trip():
    """Text serialization reproduces the Hamiltonian and the text bit-exactly."""
    h = PauliHamiltonian(
        3,
        (
            (0.123456789012345, PauliString(3, "XIZ")),
            (-2.5, PauliString(3, "III")),
            (1e-3, PauliString(3, "YYI")),
        ),
    )
    text = hamiltonian_to_text(h)
    back = hamiltonian_from_text(text)
    assert back == h
    assert hamiltonian_to_text(back) == text


def test_text_keeps_tiny_imaginary_part():
    """An imaginary part below the merge tolerance is still written and read back."""
    h = PauliHamiltonian(1, ((1 + 1e-15j, PauliString(1, "X")),))
    back = hamiltonian_from_text(hamiltonian_to_text(h))
    assert back == h
    assert back.terms[0][0].imag == 1e-15


def test_text_identity_term_spelled_i():
    """The all-identity term serializes as a lone I token."""
    h = PauliHamiltonian(2, ((1.5, PauliString(2, "II")),))
    assert "1.5 * I" in hamiltonian_to_text(h)


def test_text_rejects_missing_header():
    """Pauli text must start with the QUBITS header."""
    with pytest.raises(ValueError, match="QUBITS"):
        hamiltonian_from_text("1.0 * X1")


def test_text_header_bound_is_twice_the_dense_cap(monkeypatch):
    """A QUBITS header above twice the cap is refused; up to it, text parses."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    assert hamiltonian_from_text("QUBITS 4\n1 * X4\n").m_qubits == 4
    with pytest.raises(ValueError, match="pauli text on 5 qubits above twice the dense cap of 2"):
        hamiltonian_from_text("QUBITS 5\n1 * X1\n")


def test_text_header_bound_checked_before_terms():
    """A huge header is refused before any term line is read."""
    with pytest.raises(ValueError, match="pauli text on 10000000000 qubits"):
        hamiltonian_from_text("QUBITS 10000000000\nnot a term\n")


def test_text_rejects_malformed_term():
    """Term lines must follow the coefficient * letters grammar."""
    with pytest.raises(ValueError, match="malformed pauli term"):
        hamiltonian_from_text("QUBITS 2\n1.0 + X1")


@pytest.mark.parametrize("coeff", ["nan", "inf", "(1-infj)"])
def test_text_rejects_non_finite_coefficient(coeff):
    """A non-finite coefficient is an error, not a silently dropped term."""
    with pytest.raises(ValueError, match="must be finite"):
        hamiltonian_from_text(f"QUBITS 2\n{coeff} * X1\n")


@pytest.mark.parametrize("term", ["1 * X1 X1", "1 * X1 Z1", "1 * Z2 Y1 X2"])
def test_text_rejects_repeated_qubit(term):
    """A term naming one qubit twice is ambiguous and refused."""
    with pytest.raises(ValueError, match="appears twice"):
        hamiltonian_from_text(f"QUBITS 2\n{term}\n")


def _masks_by_hand(letters: str) -> tuple[int, int]:
    """X/Y and Z/Y masks of a letter string, qubit 1 the high bit."""
    x = sum(1 << (len(letters) - 1 - q) for q, l in enumerate(letters) if l in "XY")
    z = sum(1 << (len(letters) - 1 - q) for q, l in enumerate(letters) if l in "ZY")
    return x, z


def test_strings_from_letters_and_from_masks_are_one_record():
    """Letters and masks build equal, equally hashed strings that survive
    pickling and copying; a string equals no plain tuple."""
    for _ in range(50):
        m = int(rng.integers(1, 40))
        letters = "".join(rng.choice(list("IXYZ"), size=m))
        phase = complex(rng.choice([1, -1, 1j, -1j]))
        a = PauliString(m, letters, phase)
        b = _from_masks(m, *_masks_by_hand(letters), phase)
        assert (a.m_qubits, a.x, a.z, a.phase) == (m, *_masks_by_hand(letters), phase)
        assert a == b and hash(a) == hash(b) and not a != b
        assert b.letters == letters
        assert b.support == tuple(q + 1 for q, l in enumerate(letters) if l != "I")
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is PauliString and twin == a and twin.letters == letters
    assert PauliString(2, "XI") != PauliString(2, "XI", -1)
    assert PauliString(2, "XI") != tuple(PauliString(2, "XI"))
    assert tuple(PauliString(2, "XI")) != PauliString(2, "XI")
    with pytest.raises(AttributeError):
        PauliString(2, "XI").x = 0


def test_pauli_string_repr_names_the_letters():
    assert repr(PauliString(3, "XIY", -1j)) == "PauliString(m_qubits=3, letters='XIY', phase=(-0-1j))"


def _near_misses(m: int, base: str) -> set[str]:
    """base with one letter replaced, at the first and last qubits and on
    both sides of the 31-bit chunk edges (counted from the last qubit), so
    that the order is decided there."""
    bits = (0, 1, 29, 30, 31, 32, 60, 61, 62, 63, m - 2, m - 1)
    positions = {m - 1 - b for b in bits if 0 <= b < m}
    return {base[:p] + l + base[p + 1 :] for p in positions for l in "IXYZ"}


@pytest.mark.parametrize("m", [3, 28, 40, 70])
def test_canonical_order_is_the_letter_order(m, monkeypatch):
    """Terms sort exactly as their letter strings, past one uint64 of digits
    (40) and past 64-bit masks (70), and survive the text round trip."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", str(max(14, (m + 1) // 2)))
    local = np.random.default_rng(m)
    letters = {"".join(local.choice(list("IXYZ"), size=m)) for _ in range(200)}
    letters |= _near_misses(m, min(letters)) | {"I" * m, "Z" * m}
    h = PauliHamiltonian(m, tuple((float(local.normal()) + 2.0, PauliString(m, l)) for l in letters))
    assert [s.letters for _, s in h.terms] == sorted(letters)
    assert hamiltonian_from_text(hamiltonian_to_text(h)) == h


def _per_mask_decomposition(m: int, entries) -> list[tuple[str, complex]]:
    """The decomposition one x-mask at a time with one vector each, as
    (letters, coefficient) in letter order."""
    dim = 1 << m
    by_mask: dict[int, list] = {}
    for row, col, value in entries:
        by_mask.setdefault(row ^ col, []).append((row, value))
    terms = {}
    for x, items in by_mask.items():
        d = np.zeros(dim)
        for row, value in items:
            d[row] += value
        _walsh_hadamard(d, m)
        for z in np.flatnonzero(d).tolist():
            n_y = bin(x & z).count("1")
            if n_y % 2 == 0:
                c = (-1.0 if (n_y // 2 + bin(z).count("1")) % 2 else 1.0) * d[z] / dim
                if abs(c) > 1e-14:
                    terms["".join("IXZY"[(x >> b & 1) | (z >> b & 1) << 1] for b in range(m - 1, -1, -1))] = complex(c)
    return sorted(terms.items())


@pytest.mark.parametrize("cap", [None, "3", "7"])
def test_batched_decomposition_equals_one_transform_per_mask(cap, monkeypatch):
    """Blocks of one row (cap 3), two rows (cap 7) or all rows (the default
    cap) give the per-mask coefficients bit for bit, term for term."""
    if cap is not None:
        monkeypatch.setenv("WALKFORGE_MAX_QUBITS", cap)
    m, dim = 6, 64
    for density in (0.05, 0.3):
        a = np.triu(np.where(rng.random((dim, dim)) < density, rng.normal(size=(dim, dim)), 0.0))
        a = a + np.triu(a, 1).T
        entries = [(int(r), int(c), a[r, c]) for r, c in zip(*np.nonzero(a))]
        h = _symmetric_decomposition(m, entries)
        assert [(s.letters, c) for c, s in h.terms] == _per_mask_decomposition(m, entries)


def test_decomposition_refuses_an_overflowing_coefficient():
    """A sum past the float range is an error, not an infinite coefficient."""
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        _symmetric_decomposition(1, [(0, 0, 1.7e308), (1, 1, 1.7e308)])


def _text_by_letters(h: PauliHamiltonian) -> str:
    """The Pauli text format written from the letters view: one 'X3' token
    per non-identity letter."""
    lines = [f"QUBITS {h.m_qubits}"]
    for c, s in h.terms:
        coeff = f"{c.real:.17g}" if c.imag == 0 else f"({c.real:.17g}{c.imag:+.17g}j)"
        tokens = [f"{l}{q}" for q, l in enumerate(s.letters, 1) if l != "I"]
        lines.append(f"{coeff} * {' '.join(tokens) or 'I'}")
    return "\n".join(lines) + "\n"


def _sparse_labels_graph(n: int, m: int) -> WalkGraph:
    local = np.random.default_rng(12)
    edges = tuple((i, j, float(local.uniform(0.5, 1.5))) for i in range(n) for j in range(i + 1, n) if local.random() < 0.5)
    labels = tuple(format(int(v), f"0{m}b") for v in local.choice(1 << m, n, replace=False))
    return WalkGraph(n, edges, tuple(local.uniform(-1.0, 1.0, n)), labels)


@pytest.mark.parametrize(
    "graph",
    [
        build_cycle(256),
        WalkGraph(20, tuple((i, j, float(rng.normal())) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.4), tuple(rng.normal(size=20))),
        _sparse_labels_graph(6, 12),
    ],
    ids=["cycle256", "random20", "sparse12"],
)
def test_text_matches_a_letter_formatter(graph):
    """Text written from masks equals text written from letters, byte for byte."""
    h = encode_binary(graph)
    assert hamiltonian_to_text(h) == _text_by_letters(h)


def test_text_matches_a_letter_formatter_on_complex_terms():
    """Several text pieces per term (13 qubits), complex coefficients and the identity."""
    m = 13
    terms = tuple(
        (complex(rng.normal(), rng.normal() * (k % 2)), PauliString(m, "".join(rng.choice(list("IXYZ"), size=m))))
        for k in range(200)
    ) + ((0.5, PauliString(m, "I" * m)),)
    h = PauliHamiltonian(m, terms)
    assert hamiltonian_to_text(h) == _text_by_letters(h)


@pytest.mark.parametrize(
    "text",
    [
        "QUBITS 2 3\n1 * X1\n",
        "QUBITS +2\n1 * X1\n",
        "QUBITS 2_0\n1 * X1\n",
        "QUBITS \u0662\n1 * X1\n",
        "QUBITS  2\n1 * X1\n",
        "qubits 2\n1 * X1\n",
        "QUBITS 2\n1 * X+1\n",
        "QUBITS 12\n1 * X1_0\n",
        "QUBITS 2\n1 * X\u0661\n",
        "QUBITS 2\n1 * X\n",
        "QUBITS 2\n1 * x1\n",
        "QUBITS 2\n1 * X0\n",
        "QUBITS 2\n1 * X3\n",
    ],
)
def test_text_rejects_what_the_writer_never_writes(text):
    """The header is exactly 'QUBITS <ASCII digits>' and a qubit index is
    ASCII digits in range: no sign, underscore or non-ASCII digit."""
    with pytest.raises(ValueError):
        hamiltonian_from_text(text)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: PauliString(1.0, "X"), "qubit count must be an integer", id="string-count-float"),
        pytest.param(lambda: PauliString(True, "X"), "qubit count must be an integer", id="string-count-boolean"),
        pytest.param(lambda: PauliString(1, "X", "1"), "phase must be one of", id="string-phase-string"),
        pytest.param(lambda: PauliString(1, "X", True), "phase must be one of", id="string-phase-boolean"),
        pytest.param(lambda: PauliHamiltonian(1.0, ()), "qubit count must be an integer", id="hamiltonian-count-float"),
        pytest.param(
            lambda: PauliHamiltonian(1, (("0.5", PauliString(1, "X")),)), "coefficients must be numbers", id="coefficient-string"
        ),
        pytest.param(
            lambda: PauliHamiltonian(1, ((True, PauliString(1, "X")),)), "coefficients must be numbers", id="coefficient-boolean"
        ),
    ],
)
def test_pauli_records_refuse_counts_phases_and_coefficients_of_the_wrong_type(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pauli_records_take_numpy_numbers():
    s = PauliString(np.int64(1), "X", np.complex128(-1))
    assert s == PauliString(1, "X", -1) and type(s.m_qubits) is int
    h = PauliHamiltonian(np.int64(1), ((np.float32(0.5), s), (2, PauliString(1, "Z"))))
    assert h.m_qubits == 1 and [c for c, _ in h.terms] == [-0.5, 2]
