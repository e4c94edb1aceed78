"""Pauli string algebra, dense realization, and the text serialization."""
from __future__ import annotations

import numpy as np
import pytest

from walkforge import (
    PauliHamiltonian,
    PauliString,
    hamiltonian_from_text,
    hamiltonian_to_text,
    hop_string,
    multiply,
    projector_string,
    to_matrix,
)

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
