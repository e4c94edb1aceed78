"""Pauli-string algebra for multi-qubit Hamiltonians and their dense realization.

Conventions, fixed package-wide: qubit 1 is the leftmost (most significant)
Kronecker factor, the up spin is bit 1 with tau^z|up> = +|up>, and a basis
index is the integer value of the bit string (index 0 = all-down). In that
index order Z = diag(-1, +1) and Y = iXZ; the projectors are P_up = (I+Z)/2
and P_down = (I-Z)/2.

A string is stored as two bitmasks with qubit 1 the high bit: x marks its X
and Y letters, z its Z and Y letters, so the string is i^{|x & z|} X^x Z^z.
Every layer reads and writes the masks; `letters` is a view for people. The
binary decomposition and the dense realization each run one Walsh-Hadamard
transform per call over one row per x-mask, in blocks of at most
2^max_qubits() entries.
"""
from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from ._config import check_qubit_count, check_width, max_qubits
from ._read import integers, is_number

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
_MASK_LETTER = "IXZY"  # letter of x bit + 2 * z bit
MERGE_TOL = 1e-14


class PauliString(tuple):
    """Tensor product of I/X/Y/Z letters with a unit phase from {1, -1, i, -i}.

    An immutable (m_qubits, x, z, phase) record: x is the X/Y mask and z the
    Z/Y mask, qubit 1 the high bit. Equality, hashing, pickling and copying
    go by that record.
    """

    __slots__ = ()

    def __new__(cls, m_qubits: int, letters: str, phase: complex = 1 + 0j) -> "PauliString":
        (m_qubits,) = integers((m_qubits,), "qubit count must be an integer")
        if m_qubits < 1:
            raise ValueError("pauli string needs at least one qubit")
        if len(letters) != m_qubits:
            raise ValueError("letters length must equal m_qubits")
        if set(letters) - _LETTERS:
            raise ValueError("letters must come from I, X, Y, Z")
        phase = complex(phase) if is_number(phase) else None
        if phase not in _PHASES:
            raise ValueError("phase must be one of 1, -1, i, -i")
        x, z = int(letters.translate(_X_BITS), 2), int(letters.translate(_Z_BITS), 2)
        return tuple.__new__(cls, (m_qubits, x, z, phase))

    m_qubits = property(itemgetter(0))
    x = property(itemgetter(1), doc="X/Y mask, qubit 1 the high bit.")
    z = property(itemgetter(2), doc="Z/Y mask, qubit 1 the high bit.")
    phase = property(itemgetter(3))

    @property
    def letters(self) -> str:
        m, x, z, _ = self
        return "".join(_MASK_LETTER[(x >> b & 1) | (z >> b & 1) << 1] for b in range(m - 1, -1, -1))

    @property
    def support(self) -> tuple[int, ...]:
        """1-indexed qubits carrying a non-identity letter."""
        m, x, z, _ = self
        on = x | z
        return tuple(q for q in range(1, m + 1) if on >> (m - q) & 1)

    def __eq__(self, other: object) -> bool:
        return type(other) is PauliString and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __reduce__(self) -> tuple:
        return _from_masks, tuple(self)

    def __repr__(self) -> str:
        return f"PauliString(m_qubits={self[0]!r}, letters={self.letters!r}, phase={self[3]!r})"


def _from_masks(m: int, x: int, z: int, phase: complex = 1 + 0j) -> PauliString:
    """The string with masks x, z on m qubits, unchecked: for the library's own producers."""
    return tuple.__new__(PauliString, (m, x, z, phase))


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b with tracked phase, e.g. X*Y = iZ.

    With Y = iXZ a string with masks (x, z) is i^{|x & z|} X^x Z^z, and
    Z^za X^xb = (-1)^{|za & xb|} X^xb Z^za, so the product has masks
    (xa ^ xb, za ^ zb) and the phase follows from the popcounts.
    """
    m, xa, za, pa = a
    mb, xb, zb, pb = b
    if m != mb:
        raise ValueError("pauli strings act on different register sizes")
    x, z = xa ^ xb, za ^ zb
    turns = (xa & za).bit_count() + (xb & zb).bit_count() + 2 * (za & xb).bit_count()
    turns -= (x & z).bit_count()
    return _from_masks(m, x, z, pa * pb * _PHASES[turns % 4])


_SPREAD = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def _spread(v: np.ndarray) -> np.ndarray:
    """Bit j of each int64 entry (all below 2^31) moved to bit 2j."""
    for shift, keep in _SPREAD:
        v = (v | v << shift) & keep
    return v


def _mask_array(masks, m: int) -> np.ndarray:
    """Masks of an m-qubit register as int64, or as Python ints in an object
    array past 63 qubits."""
    return np.asarray(masks, dtype=np.int64 if m < 64 else object)


def _canonical_order(m: int, x, z) -> np.ndarray:
    """Indices that sort the mask pairs (x[k], z[k]) as their letter strings sort.

    Per qubit, from qubit 1 down, the digit 2z + (x ^ z) ranks I < X < Y < Z,
    so the order is that of the base-4 numbers these digits spell. One int64
    holds 31 digits; wider registers compare 31-qubit chunks, highest first.
    """
    x, z = _mask_array(x, m), _mask_array(z, m)
    keys = []
    for shift in range(0, m, 31):  # lowest chunk first: lexsort's last key leads
        xc = (x >> shift & 0x7FFFFFFF).astype(np.int64)
        zc = (z >> shift & 0x7FFFFFFF).astype(np.int64)
        keys.append(_spread(zc) << 1 | _spread(xc ^ zc))
    return np.lexsort(keys)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Weighted sum of Pauli strings, canonicalized on construction.

    Canonicalization folds string phases into coefficients, merges duplicate
    letter patterns, drops coefficients below 1e-14 and sorts the terms by
    their letters. The operator is Hermitian exactly when all canonical
    coefficients are real.
    """

    m_qubits: int
    terms: tuple[tuple[complex, PauliString], ...]

    def __post_init__(self) -> None:
        (m,) = integers((self.m_qubits,), "qubit count must be an integer")
        if m < 1:
            raise ValueError("hamiltonian needs at least one qubit")
        object.__setattr__(self, "m_qubits", m)
        if not {complex, float}.issuperset(map(type, map(itemgetter(0), self.terms))):  # the common case, at C speed
            if not all(is_number(c) for c, _ in self.terms):
                raise ValueError("pauli coefficients must be numbers")
        merged: dict[tuple[int, int], complex] = {}
        unphased: dict[tuple[int, int], PauliString] = {}  # caller strings reusable as canonical
        for coeff, string in self.terms:
            size, x, z, phase = string
            if size != m:
                raise ValueError("term size does not match hamiltonian size")
            key = (x, z)
            merged[key] = merged.get(key, 0j) + complex(coeff) * phase
            if phase == 1:
                unphased[key] = string
        if not all(map(cmath.isfinite, merged.values())):
            raise ValueError("pauli coefficients must be finite")
        keys = [key for key, c in merged.items() if abs(c) > MERGE_TOL]
        order = _canonical_order(m, [x for x, _ in keys], [z for _, z in keys]).tolist()
        canon = tuple(
            (merged[key], unphased[key] if key in unphased else _from_masks(m, *key))
            for key in map(keys.__getitem__, order)
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _canonical(cls, m: int, terms: tuple[tuple[complex, PauliString], ...]) -> "PauliHamiltonian":
        """A hamiltonian whose phase-1 terms are already merged, finite, above
        the tolerance and in canonical order."""
        h = object.__new__(cls)
        object.__setattr__(h, "m_qubits", m)
        object.__setattr__(h, "terms", terms)
        return h

    def __add__(self, other: "PauliHamiltonian") -> "PauliHamiltonian":
        if self.m_qubits != other.m_qubits:
            raise ValueError("hamiltonians act on different register sizes")
        return PauliHamiltonian(self.m_qubits, self.terms + other.terms)

    def scaled(self, factor: complex) -> "PauliHamiltonian":
        return PauliHamiltonian(self.m_qubits, tuple((factor * c, s) for c, s in self.terms))

    def is_hermitian(self, tol: float = MERGE_TOL) -> bool:
        return all(abs(c.imag) <= tol for c, _ in self.terms)


def _mask_blocks(m: int, x: np.ndarray):
    """Blocks of the transform array that has one 2^m row per distinct x-mask.

    A block holds at most 2^max_qubits() entries, and one row at least. Yields
    (the block's masks, the row of each item in the block, the items' indices
    into x).
    """
    order = np.lexsort([x])
    x = x[order]
    first = np.ones(len(x), dtype=bool)  # the first item of each mask
    first[1:] = x[1:] != x[:-1]
    row = np.cumsum(first) - 1
    masks = x[first]
    step = max(1, (1 << max_qubits()) >> m)
    bounds = np.append(np.flatnonzero(first)[::step], len(x)).tolist()
    for k, lo in enumerate(range(0, len(masks), step)):
        items = slice(bounds[k], bounds[k + 1])
        yield masks[lo : lo + step], row[items] - lo, order[items]


def to_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^m x 2^m realization under the package basis conventions.

    The inverse of `_symmetric_decomposition`: the canonical (phase 1) term
    c with X/Y mask x and Z/Y mask z maps |k> to a[z] (-1)^{|z & k|} |k ^ x>,
    a[z] = c i^{|x & z|} (-1)^{|z|}, so per x-mask the column values
    d[k] = sum_z a[z] (-1)^{|z & k|} are one Walsh-Hadamard transform of a
    row, written to out[k ^ x, k].
    """
    m = h.m_qubits
    check_qubit_count(m, "dense pauli matrix")
    dim = 1 << m
    x = np.array([s.x for _, s in h.terms], dtype=np.int64)
    z = np.array([s.z for _, s in h.terms], dtype=np.int64)
    quarter_turns = (np.bitwise_count(x & z) + 2 * np.bitwise_count(z)) % 4  # uint8: at most 3 * 63
    values = np.array([c for c, _ in h.terms], dtype=complex) * np.array(_PHASES)[quarter_turns]
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for masks, rows, items in _mask_blocks(m, x):
        d = np.zeros((len(masks), dim), dtype=complex)
        d[rows, z[items]] = values[items]
        _walsh_hadamard(d, m)
        out[masks[:, None] ^ cols, cols] = d
    return out


def _walsh_hadamard(d: np.ndarray, m: int) -> None:
    """In place over each 2^m row of d: d[z] <- sum_k (-1)^{|z & k|} d[k]."""
    for b in range(m):
        pairs = d.reshape(-1, 2, 1 << b)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]


def _check_bits(bits: str, name: str) -> str:
    if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"{name} must be a nonempty bit string of only '0' (down) and '1' (up)")
    return bits


def _symmetric_decomposition(m: int, entries: list[tuple[int, int, float]]) -> PauliHamiltonian:
    """Pauli coefficients tr(P A) / 2^m of the real symmetric 2^m x 2^m matrix A
    with nonzero entries (row, col, value), each listed once, both triangles.

    The string with X/Y mask x and Z/Y mask z (qubit 1 the high bit) maps |k>
    to i^{n_Y} (-1)^{|z| + |z & k|} |k ^ x>, n_Y = |x & z|, so per x-mask the
    coefficients are a Walsh-Hadamard transform of the row d[k] = A[k, k ^ x];
    symmetry makes the odd-n_Y ones vanish. A 2^m row bounds m to twice the
    dense cap.
    """
    check_width(m, "pauli decomposition")
    if not entries:
        return PauliHamiltonian(m, ())
    dim = 1 << m
    rows, cols, values = zip(*entries)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    values = np.array(values, dtype=float)
    found = []
    for masks, block_rows, items in _mask_blocks(m, rows ^ cols):
        d = np.zeros((len(masks), dim))
        d[block_rows, rows[items]] = values[items]
        _walsh_hadamard(d, m)
        r, z = np.nonzero(d)
        found.append((masks[r], z, d[r, z]))
    x, z, c = (np.concatenate(parts) for parts in zip(*found))
    n_y = np.bitwise_count(x & z)
    even = n_y % 2 == 0
    x, z, c, n_y = x[even], z[even], c[even], n_y[even]
    c = np.where((n_y // 2 + np.bitwise_count(z)) % 2 == 1, -c, c) / dim
    if not np.all(np.isfinite(c)):
        raise ValueError("pauli coefficients must be finite")
    keep = np.abs(c) > MERGE_TOL
    x, z, c = x[keep], z[keep], c[keep]
    order = _canonical_order(m, x, z)
    strings = map(_from_masks, repeat(m), x[order].tolist(), z[order].tolist())
    return PauliHamiltonian._canonical(m, tuple(zip(map(complex, c[order].tolist()), strings)))


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


_TEXT_BLOCK = 4096  # terms spelled per numpy pass of hamiltonian_to_text


def hamiltonian_to_text(h: PauliHamiltonian) -> str:
    """One term per line: 'coeff * X1 Z3' with identity letters omitted.

    Each term is first spelled as one character per qubit: code point
    32 + 4 (q - 1) + (x bit + 2 z bit) for qubit q. One str.translate then
    turns that word into the term's tokens.
    """
    m = h.m_qubits
    tokens = {32 + 4 * q + k: f"{_MASK_LETTER[k]}{q + 1} " if k else "" for q in range(m) for k in range(4)}
    shifts = np.arange(m - 1, -1, -1)
    lines = [f"QUBITS {m}"]
    for lo in range(0, len(h.terms), _TEXT_BLOCK):
        block = h.terms[lo : lo + _TEXT_BLOCK]
        x = _mask_array([s.x for _, s in block], m)[:, None] >> shifts & 1
        z = _mask_array([s.z for _, s in block], m)[:, None] >> shifts & 1
        chars = (x | z << 1) + (32 + 4 * np.arange(m))
        words = np.ascontiguousarray(chars, dtype=np.uint32).view(f"U{m}").ravel().tolist()
        for (coeff, _), word in zip(block, words):
            lines.append(f"{_format_coeff(coeff)} * {word.translate(tokens)[:-1] or 'I'}")
    return "\n".join(lines) + "\n"


_HEADER = re.compile(r"QUBITS ([0-9]+)")


class _Tokens(dict):
    """(qubit, qubit bit, x bit, z bit) of a term token such as 'Y3' on an
    m-qubit register, checked on first use."""

    def __init__(self, m: int) -> None:
        self.m = m

    def __missing__(self, token: str) -> tuple[int, int, int, int]:
        letter, digits = token[0], token[1:]
        if letter not in "XYZ" or not (digits.isascii() and digits.isdigit()) or not 1 <= int(digits) <= self.m:
            raise ValueError(f"malformed pauli token: {token!r}")
        q = int(digits)
        bit = 1 << (self.m - q)
        self[token] = found = (q, bit, bit * (letter != "Z"), bit * (letter != "X"))
        return found


def hamiltonian_from_text(text: str) -> PauliHamiltonian:
    """Parse the text form produced by hamiltonian_to_text."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = _HEADER.fullmatch(lines[0]) if lines else None
    if header is None:
        raise ValueError("pauli text must start with a 'QUBITS m' header")
    m = int(header[1])
    check_width(m, "pauli text")
    tokens = _Tokens(m)
    terms = []
    for ln in lines[1:]:
        if "*" not in ln:
            raise ValueError(f"malformed pauli term line: {ln!r}")
        coeff_part, _, letters_part = ln.partition("*")
        coeff = complex(coeff_part.strip())
        seen = x = z = 0
        for token in letters_part.split():
            if token == "I":
                continue
            q, bit, x_bit, z_bit = tokens[token]
            if seen & bit:
                raise ValueError(f"qubit {q} appears twice in pauli term {ln!r}")
            seen |= bit
            x |= x_bit
            z |= z_bit
        terms.append((coeff, _from_masks(m, x, z)))
    return PauliHamiltonian(m, tuple(terms))
