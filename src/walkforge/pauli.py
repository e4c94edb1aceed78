"""Pauli-string algebra for multi-qubit Hamiltonians and their dense realization.

Conventions, fixed package-wide: qubit 1 is the leftmost (most significant)
Kronecker factor, the up spin is bit 1 with tau^z|up> = +|up>, and a basis
index is the integer value of the bit string (index 0 = all-down). In that
index order Z = diag(-1, +1). Raising/lowering and projectors are derived:
tau^+- = (X +- iY)/2, P_up = (I+Z)/2, P_down = (I-Z)/2.
"""
from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from ._config import check_qubit_count

__all__ = [
    "PauliString",
    "PauliHamiltonian",
    "to_matrix",
    "multiply",
    "projector_string",
    "hop_string",
    "hamiltonian_to_text",
    "hamiltonian_from_text",
]

_LETTERS = frozenset("IXYZ")
_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)
MERGE_TOL = 1e-14

# single-qubit products: (a, b) -> (phase, letter) with a*b = phase*letter
_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {}
for _l in "IXYZ":
    _PRODUCT[("I", _l)] = (1 + 0j, _l)
    _PRODUCT[(_l, "I")] = (1 + 0j, _l)
    _PRODUCT[(_l, _l)] = (1 + 0j, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _b)] = (1j, _c)
    _PRODUCT[(_b, _a)] = (-1j, _c)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of I/X/Y/Z letters with a unit phase from {1, -1, i, -i}."""

    m_qubits: int
    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self) -> None:
        if self.m_qubits < 1:
            raise ValueError("pauli string needs at least one qubit")
        if len(self.letters) != self.m_qubits:
            raise ValueError("letters length must equal m_qubits")
        if set(self.letters) - _LETTERS:
            raise ValueError("letters must come from I, X, Y, Z")
        object.__setattr__(self, "phase", complex(self.phase))
        if self.phase not in _PHASES:
            raise ValueError("phase must be one of 1, -1, i, -i")

    @property
    def support(self) -> tuple[int, ...]:
        """1-indexed qubits carrying a non-identity letter."""
        return tuple(q + 1 for q, l in enumerate(self.letters) if l != "I")


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b with tracked phase, e.g. X*Y = iZ."""
    if a.m_qubits != b.m_qubits:
        raise ValueError("pauli strings act on different register sizes")
    phase = a.phase * b.phase
    letters = []
    for la, lb in zip(a.letters, b.letters):
        ph, lc = _PRODUCT[(la, lb)]
        phase *= ph
        letters.append(lc)
    return PauliString(a.m_qubits, "".join(letters), phase)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted sum of Pauli strings, canonicalized on construction.

    Canonicalization folds string phases into coefficients, merges duplicate
    letter patterns and drops coefficients below 1e-14. The operator is
    Hermitian exactly when all canonical coefficients are real.
    """

    m_qubits: int
    terms: tuple[tuple[complex, PauliString], ...]

    def __post_init__(self) -> None:
        if self.m_qubits < 1:
            raise ValueError("hamiltonian needs at least one qubit")
        merged: dict[str, complex] = {}
        for coeff, string in self.terms:
            if string.m_qubits != self.m_qubits:
                raise ValueError("term size does not match hamiltonian size")
            merged[string.letters] = merged.get(string.letters, 0j) + complex(coeff) * string.phase
        if not all(map(cmath.isfinite, merged.values())):
            raise ValueError("pauli coefficients must be finite")
        canon = tuple(
            (c, PauliString(self.m_qubits, letters))
            for letters, c in sorted(merged.items())
            if abs(c) > MERGE_TOL
        )
        object.__setattr__(self, "terms", canon)

    def __add__(self, other: "PauliHamiltonian") -> "PauliHamiltonian":
        if self.m_qubits != other.m_qubits:
            raise ValueError("hamiltonians act on different register sizes")
        return PauliHamiltonian(self.m_qubits, self.terms + other.terms)

    def scaled(self, factor: complex) -> "PauliHamiltonian":
        return PauliHamiltonian(self.m_qubits, tuple((factor * c, s) for c, s in self.terms))

    def is_hermitian(self, tol: float = MERGE_TOL) -> bool:
        return all(abs(c.imag) <= tol for c, _ in self.terms)


def to_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^m x 2^m realization under the package basis conventions."""
    m = h.m_qubits
    check_qubit_count(m, "dense pauli matrix")
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for coeff, string in h.terms:
        xmask = 0
        vals = np.full(dim, coeff * string.phase)
        for q, letter in enumerate(string.letters):
            bit = (cols >> (m - 1 - q)) & 1
            if letter == "X":
                xmask |= 1 << (m - 1 - q)
            elif letter == "Y":
                xmask |= 1 << (m - 1 - q)
                vals = vals * np.where(bit == 1, 1j, -1j)
            elif letter == "Z":
                vals = vals * np.where(bit == 1, 1.0, -1.0)
        out[cols ^ xmask, cols] += vals
    return out


def _check_bits(bits: str, name: str) -> str:
    if not bits:
        raise ValueError(f"{name} must be a nonempty bit string")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"{name} must contain only '0' (down) and '1' (up)")
    return bits


def projector_string(bits: str) -> PauliHamiltonian:
    """Projector |bits><bits| expanded into 2^M Pauli-Z strings of weight 2^-M."""
    bits = _check_bits(bits, "projector label")
    m = len(bits)
    options = []
    for b in bits:
        sign = 0.5 if b == "1" else -0.5
        options.append((("I", 0.5), ("Z", sign)))
    terms = []
    for combo in itertools.product(*options):
        letters = "".join(l for l, _ in combo)
        coeff = 1.0
        for _, c in combo:
            coeff *= c
        terms.append((complex(coeff), PauliString(m, letters)))
    return PauliHamiltonian(m, tuple(terms))


def hop_string(z: str, w: str) -> PauliHamiltonian:
    """Hermitian hop |z><w| + |w><z| expanded into Pauli strings.

    Positions where the bit values agree contribute projector factors; the
    flipped positions contribute X/Y products in which only even numbers of Y
    letters survive, with signs set by the i-bookkeeping of tau^+- factors.
    """
    z = _check_bits(z, "hop label")
    w = _check_bits(w, "hop label")
    if len(z) != len(w):
        raise ValueError("hop labels must have equal length")
    if z == w:
        raise ValueError("hop labels must differ; use projector_string for z == w")
    m = len(z)
    options = []
    for bz, bw in zip(z, w):
        if bz == bw:
            sign = 0.5 if bz == "1" else -0.5
            options.append((("I", 0.5 + 0j), ("Z", complex(sign))))
        else:
            # factor of |z_a><w_a|: tau^+ = (X + iY)/2 if z_a is up, else tau^-
            ysign = 0.5j if bz == "1" else -0.5j
            options.append((("X", 0.5 + 0j), ("Y", ysign)))
    terms = []
    for combo in itertools.product(*options):
        letters = "".join(l for l, _ in combo)
        coeff = 1 + 0j
        for _, c in combo:
            coeff *= c
        # adding the conjugate transpose doubles the real part on each string
        real = 2.0 * coeff.real
        if abs(real) > MERGE_TOL:
            terms.append((complex(real), PauliString(m, letters)))
    return PauliHamiltonian(m, tuple(terms))


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        return f"{c.real:.17g}"
    return f"({c.real:.17g}{c.imag:+.17g}j)"


def _format_string(s: PauliString) -> str:
    parts = [f"{l}{q + 1}" for q, l in enumerate(s.letters) if l != "I"]
    return " ".join(parts) if parts else "I"


def hamiltonian_to_text(h: PauliHamiltonian) -> str:
    """One term per line: 'coeff * X1 Z3' with identity letters omitted."""
    lines = [f"QUBITS {h.m_qubits}"]
    for coeff, string in h.terms:
        lines.append(f"{_format_coeff(coeff)} * {_format_string(string)}")
    return "\n".join(lines) + "\n"


def hamiltonian_from_text(text: str) -> PauliHamiltonian:
    """Parse the text form produced by hamiltonian_to_text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("QUBITS "):
        raise ValueError("pauli text must start with a 'QUBITS m' header")
    m = int(lines[0].split()[1])
    terms = []
    for ln in lines[1:]:
        if "*" not in ln:
            raise ValueError(f"malformed pauli term line: {ln!r}")
        coeff_part, _, letters_part = ln.partition("*")
        coeff = complex(coeff_part.strip())
        letters = ["I"] * m
        for token in letters_part.split():
            if token == "I":
                continue
            letter, qubit = token[0], int(token[1:])
            if letter not in "XYZ" or not (1 <= qubit <= m):
                raise ValueError(f"malformed pauli token: {token!r}")
            if letters[qubit - 1] != "I":
                raise ValueError(f"qubit {qubit} appears twice in pauli term {ln!r}")
            letters[qubit - 1] = letter
        terms.append((coeff, PauliString(m, "".join(letters))))
    return PauliHamiltonian(m, tuple(terms))
