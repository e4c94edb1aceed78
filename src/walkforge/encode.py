"""Forward mappings from walk graphs to qubit Hamiltonians.

Two encodings: one qubit per node (the walk lives in the single-up-spin
subspace) and a binary encoding where node labels are bit strings over
ceil(log2 n) qubits: encode_binary(g, labels) takes one label per node,
else the graph's own, else node j at basis state j. Coefficients are
normalized so the encoded matrix equals walk_matrix exactly on the
embedded subspace; that equality is the contract every test checks.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ._read import integers
from .pauli import PauliHamiltonian, PauliString, _check_bits, _from_masks, _symmetric_decomposition
from .walkgraph import WalkGraph, _per_item, build_line

__all__ = [
    "encode_single_excitation",
    "encode_binary",
    "gray_labels",
    "line_position",
    "line_qubit_hamiltonian",
    "hyperlattice_qubit_hamiltonian",
]


def _check_labels(labels: Sequence[str], n_nodes: int) -> int:
    if len(labels) != n_nodes:
        raise ValueError("need exactly one label per node")
    widths = {len(_check_bits(s, "label")) for s in labels}
    if len(widths) != 1:
        raise ValueError("labels must be equal-length bit strings")
    if len(set(labels)) != n_nodes:
        raise ValueError("duplicate labels")
    return widths.pop()


def _index_width(n_nodes: int) -> int:
    """Bits of the binary expansions of 0..n_nodes-1, at least one."""
    return max(1, (n_nodes - 1).bit_length())


def _bit_strings(values: np.ndarray, m: int) -> tuple[str, ...]:
    """The binary expansion of each value, on m bits, high bit first."""
    bits = values[:, None] >> np.arange(m - 1, -1, -1) & 1
    return tuple((bits + 48).astype(np.uint32).view(f"U{m}")[:, 0].tolist())  # 48, 49: '0', '1'


def _index_labels(n_nodes: int) -> tuple[str, ...]:
    """Binary expansions of 0..n_nodes-1, on _index_width(n_nodes) bits."""
    return _bit_strings(np.arange(n_nodes), _index_width(n_nodes))


def _gray_node_labels(n_nodes: int) -> tuple[str, ...]:
    m = n_nodes.bit_length() - 1
    if 2**m != n_nodes:
        raise ValueError("gray labeling needs a power-of-two node count")
    return gray_labels(m)


def _binary_index(g: WalkGraph, labels: Sequence[str] | None = None) -> tuple[int, Sequence[int]]:
    """Register width and each node's basis state in the binary scheme: from
    labels, else the graph's, else node j at state j."""
    labels = g.labels if labels is None else labels
    if labels is None:
        return _index_width(g.n_nodes), range(g.n_nodes)
    return _check_labels(labels, g.n_nodes), [int(s, 2) for s in labels]


def encode_single_excitation(g: WalkGraph) -> PauliHamiltonian:
    """One qubit per node: hops become -(Delta/2)(XX+YY), energies (eps/2)(I+Z).

    Restricted to the states with exactly one qubit up (node j = qubit j+1 up),
    the matrix equals walk_matrix(g) exactly.
    """
    m = g.n_nodes
    terms: list[tuple[complex, PauliString]] = []
    for i, j, delta in g.edges:
        pair = 1 << (m - 1 - i) | 1 << (m - 1 - j)
        terms.append((-delta / 2.0, _from_masks(m, pair, 0)))  # X_i X_j
        terms.append((-delta / 2.0, _from_masks(m, pair, pair)))  # Y_i Y_j
    for j, eps in enumerate(g.onsite):
        if eps == 0.0:
            continue
        terms.append((eps / 2.0, _from_masks(m, 0, 0)))
        terms.append((eps / 2.0, _from_masks(m, 0, 1 << (m - 1 - j))))  # Z_j
    return PauliHamiltonian(m, tuple(terms))


def encode_binary(g: WalkGraph, labels: Sequence[str] | None = None) -> PauliHamiltonian:
    """Binary encoding: the Pauli decomposition of walk_matrix(g) embedded with
    node j at basis state |labels[j]>, labels being distinct equal-length bit
    strings (default: the graph's, else node j at state j). Unlabeled basis
    states are exactly decoupled (zero rows)."""
    m, index = _binary_index(g, labels)
    entries = [(index[j], index[j], eps) for j, eps in enumerate(g.onsite) if eps != 0.0]
    for i, j, delta in g.edges:
        entries += [(index[i], index[j], -delta), (index[j], index[i], -delta)]
    return _symmetric_decomposition(m, entries)


def gray_labels(n_qubits: int) -> tuple[str, ...]:
    """Bit-string labels for line positions 1..2^N; neighbors differ in one bit."""
    (n_qubits,) = integers((n_qubits,), "qubit count must be an integer")
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    p = np.arange(2**n_qubits)
    return _bit_strings(p ^ p >> 1, n_qubits)


def line_position(x: str) -> int:
    """Position 1..2^N of a bit string on the relabeled line (prefix-XOR map)."""
    _check_bits(x, "input")
    acc = 0
    pos = 0
    for c in x:
        acc ^= int(c)
        pos = (pos << 1) | acc
    return pos + 1


def _per_axis(value, count: int, length: int, what: str) -> list[np.ndarray]:
    """One array of length real numbers per axis, from None (zeros), one number
    for every entry, one entry per axis (a number, or length numbers) or one
    flat list of length numbers for every axis; each entry is read as the
    graph builders read theirs (walkgraph._per_item)."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if value is None or isinstance(value, str) or not isinstance(value, Iterable):
        return [np.array(_per_item(0.0 if value is None else value, length, what)) for _ in range(count)]
    value = list(value)
    flat = not any(isinstance(v, Iterable) for v in value)
    if flat and len(value) == count == length > 1:
        raise ValueError(
            f"{what} of {count} numbers reads both as one value per axis and as "
            f"{length} values along every axis; give one list per axis"
        )
    if len(value) == count and (flat or all(isinstance(v, Iterable) for v in value)):
        return [np.array(_per_item(v, length, what)) for v in value]
    if flat and len(value) == length:
        return [np.array(_per_item(value, length, what)) for _ in range(count)]
    raise ValueError(f"{what} must broadcast to {count} axes of length {length}")


def line_qubit_hamiltonian(n_qubits: int, deltas=1.0, eps=None) -> PauliHamiltonian:
    """Walk on a 2^N-node path, binary-encoded with the prefix-XOR labeling.

    With uniform hopping the result merges to the single-X-per-bit cascade
    (X on the flipping qubit, up/down projectors on the qubits before it).
    """
    (n_qubits,) = integers((n_qubits,), "qubit count must be an integer")
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    n_nodes = 2**n_qubits
    g = build_line(n_nodes, deltas=deltas, eps=eps)
    return encode_binary(g, gray_labels(n_qubits))


def hyperlattice_qubit_hamiltonian(
    d: int, n_qubits_per_axis: int, deltas=1.0, eps=None
) -> PauliHamiltonian:
    """Kronecker sum of d independent line walks on disjoint qubit blocks.

    Axis 0 owns qubits 1..N (most significant), axis 1 the next N, and so on;
    there are no cross-axis terms.
    """
    d, n = integers((d, n_qubits_per_axis), "axis and qubit counts must be integers")
    if d < 1:
        raise ValueError("need at least one axis")
    if n < 1:
        raise ValueError("need at least one qubit per axis")
    n_nodes = 2**n
    delta_ax = _per_axis(deltas, d, n_nodes - 1, "deltas")
    eps_ax = _per_axis(eps, d, n_nodes, "eps")
    m_total = d * n
    terms: list[tuple[complex, PauliString]] = []
    for ax in range(d):
        h_line = line_qubit_hamiltonian(n, deltas=delta_ax[ax], eps=eps_ax[ax])
        shift = m_total - (ax + 1) * n  # the axis block's lowest bit
        for c, (_, x, z, phase) in h_line.terms:
            terms.append((c, _from_masks(m_total, x << shift, z << shift, phase)))
    return PauliHamiltonian(m_total, tuple(terms))
