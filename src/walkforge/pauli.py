"""Pauli-string algebra for multi-qubit Hamiltonians and their dense realization.

Conventions, fixed package-wide: qubit 1 is the leftmost (most significant)
Kronecker factor, the up spin is bit 1 with tau^z|up> = +|up>, and a basis
index is the integer value of the bit string (index 0 = all-down). In that
index order Z = diag(-1, +1) and Y = iXZ; the projectors are P_up = (I+Z)/2
and P_down = (I-Z)/2.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._config import check_qubit_count, max_qubits

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
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)  # i^n at index n
_X_BITS = str.maketrans("IXYZ", "0110")  # letters -> X/Y mask digits
_Z_BITS = str.maketrans("IXYZ", "0011")  # letters -> Z/Y mask digits
MERGE_TOL = 1e-14

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


def _masks(letters: str) -> tuple[int, int]:
    """X/Y mask and Z/Y mask of a letter string, qubit 1 the high bit."""
    return int(letters.translate(_X_BITS), 2), int(letters.translate(_Z_BITS), 2)


def _letters(m: int, x: int, z: int) -> str:
    """The m letters with X/Y mask x and Z/Y mask z; inverse of _masks."""
    return "".join("IXZY"[(x >> b & 1) | (z >> b & 1) << 1] for b in range(m)[::-1])


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b with tracked phase, e.g. X*Y = iZ.

    With Y = iXZ a string with masks (x, z) is i^{|x & z|} X^x Z^z, and
    Z^za X^xb = (-1)^{|za & xb|} X^xb Z^za, so the product has masks
    (xa ^ xb, za ^ zb) and the phase follows from the popcounts.
    """
    if a.m_qubits != b.m_qubits:
        raise ValueError("pauli strings act on different register sizes")
    xa, za = _masks(a.letters)
    xb, zb = _masks(b.letters)
    x, z = xa ^ xb, za ^ zb
    turns = (xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
    turns -= (x & z).bit_count()
    phase = a.phase * b.phase * _PHASES[turns % 4]
    return PauliString(a.m_qubits, _letters(a.m_qubits, x, z), phase)


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
        unphased: dict[str, PauliString] = {}  # caller strings reusable as canonical
        for coeff, string in self.terms:
            if string.m_qubits != self.m_qubits:
                raise ValueError("term size does not match hamiltonian size")
            merged[string.letters] = merged.get(string.letters, 0j) + complex(coeff) * string.phase
            if string.phase == 1:
                unphased[string.letters] = string
        if not all(map(cmath.isfinite, merged.values())):
            raise ValueError("pauli coefficients must be finite")
        canon = tuple(
            (c, unphased[letters] if letters in unphased else PauliString(self.m_qubits, letters))
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
    """Dense 2^m x 2^m realization under the package basis conventions.

    The inverse of `_symmetric_decomposition`: the canonical (phase 1) term
    c with X/Y mask x and Z/Y mask z (qubit 1 the high bit) maps |k> to
    a[z] (-1)^{|z & k|} |k ^ x>, a[z] = c i^{|x & z|} (-1)^{|z|}, so per x-mask
    the column values d[k] = sum_z a[z] (-1)^{|z & k|} are one Walsh-Hadamard
    transform, written to out[k ^ x, k]. One 2^m vector is live at a time.
    """
    m = h.m_qubits
    check_qubit_count(m, "dense pauli matrix")
    dim = 1 << m
    by_mask: dict[int, list[tuple[int, complex]]] = {}
    for coeff, string in h.terms:
        x, z = _masks(string.letters)
        quarter_turns = (x & z).bit_count() + 2 * z.bit_count()
        by_mask.setdefault(x, []).append((z, coeff * _PHASES[quarter_turns % 4]))
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for x, items in by_mask.items():
        d = np.zeros(dim, dtype=complex)
        zs, values = zip(*items)
        d[list(zs)] = values
        _walsh_hadamard(d, m)
        out[cols ^ x, cols] = d
    return out


def _walsh_hadamard(d: np.ndarray, m: int) -> None:
    """In place over the 2^m vector d: d[z] <- sum_k (-1)^{|z & k|} d[k]."""
    for b in range(m):
        pairs = d.reshape(-1, 2, 1 << b)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]


def _check_bits(bits: str, name: str) -> str:
    if not bits:
        raise ValueError(f"{name} must be a nonempty bit string")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"{name} must contain only '0' (down) and '1' (up)")
    return bits


def _check_width(m: int, what: str) -> None:
    """Bound a register that is never realized densely by twice the dense cap,
    the widest state vector the cap allows."""
    cap = max_qubits()
    if m > 2 * cap:
        raise ValueError(f"{what} on {m} qubits above twice the dense cap of {cap}")


def _symmetric_decomposition(m: int, entries: list[tuple[int, int, float]]) -> PauliHamiltonian:
    """Pauli coefficients tr(P A) / 2^m of the real symmetric 2^m x 2^m matrix A
    with nonzero entries (row, col, value), both triangles listed.

    The string with X/Y mask x and Z/Y mask z (qubit 1 the high bit) maps |k>
    to i^{n_Y} (-1)^{|z| + |z & k|} |k ^ x>, n_Y = |x & z|, so per x-mask the
    coefficients are a Walsh-Hadamard transform of d[k] = A[k, k ^ x];
    symmetry makes the odd-n_Y ones vanish. The 2^m vector d bounds m to
    twice the dense cap.
    """
    _check_width(m, "pauli decomposition")
    dim = 1 << m
    by_mask: dict[int, list[tuple[int, float]]] = {}
    for row, col, value in entries:
        by_mask.setdefault(row ^ col, []).append((row, value))
    terms = []
    for x, items in by_mask.items():
        d = np.zeros(dim)
        for row, value in items:
            d[row] += value
        _walsh_hadamard(d, m)
        for z in np.flatnonzero(d).tolist():
            n_y = (x & z).bit_count()
            if n_y % 2 == 0:
                sign = -1.0 if (n_y // 2 + z.bit_count()) % 2 else 1.0
                terms.append((sign * d[z] / dim, PauliString(m, _letters(m, x, z))))
    return PauliHamiltonian(m, tuple(terms))


def projector_string(bits: str) -> PauliHamiltonian:
    """Projector |bits><bits| decomposed into its 2^M I/Z strings of weight +-2^-M."""
    bits = _check_bits(bits, "projector label")
    k = int(bits, 2)
    return _symmetric_decomposition(len(bits), [(k, k, 1.0)])


def hop_string(z: str, w: str) -> PauliHamiltonian:
    """Hermitian hop |z><w| + |w><z| decomposed into Pauli strings of weight
    +-2^{1-M}: X or Y (an even number of Y) where z and w differ, I or Z elsewhere."""
    z = _check_bits(z, "hop label")
    w = _check_bits(w, "hop label")
    if len(z) != len(w):
        raise ValueError("hop labels must have equal length")
    if z == w:
        raise ValueError("hop labels must differ; use projector_string for z == w")
    a, b = int(z, 2), int(w, 2)
    return _symmetric_decomposition(len(z), [(a, b, 1.0), (b, a, 1.0)])


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
    _check_width(m, "pauli text")
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
