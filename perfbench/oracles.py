"""Dense references for every walkforge mapping the benchmark exercises.

Everything here is built from numpy kron, eigh, outer products and index
arithmetic on the documented conventions (qubit 1 is the most significant
bit, up = bit 1, Z = diag(-1, +1), Y = [[0, i], [-i, 0]] so that XY = iZ).
Nothing calls the walkforge function whose output it checks, so a wrong
output cannot be reproduced by its own reference.

Each ``check_*`` function returns a list of mismatch descriptions; an empty
list means the output agrees with the reference within the stated tolerance.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, product

import numpy as np

# Tolerances, fixed before any measurement.
TROTTER_TOL = 1e-9  # Trotter block vs dense product, up to a global phase
LEAK_TOL = 1e-15  # amplitude that leaves the ancilla-ground sector, exact ladders
LOWERED_LEAK_TOL = 1e-12  # the same after lowering to rotations, which round at the ulp level
REPLAY_TOL = 1e-8  # pulse replay vs the target, up to a global phase
DECODE_TOL = 1e-12  # decoded and encoded matrices, entrywise
GATE_TOL = 1e-9  # gate circuits vs their targets, up to a global phase
PROPAGATOR_TOL = 1e-9  # exact propagator vs an independent eigh propagator
DISTANCE_SLACK = 1e-12  # reported phase-minimized distance vs its bounds

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "Z": np.diag([-1.0 + 0j, 1.0 + 0j]),
}
P_DOWN = np.diag([1.0 + 0j, 0.0])
P_UP = np.diag([0.0, 1.0 + 0j])


def kron_all(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a letter string, qubit 1 the leftmost factor."""
    return kron_all([PAULI[c] for c in letters])


def hamiltonian_matrix(m: int, terms) -> np.ndarray:
    """Dense sum of (coefficient, letters) pairs over m qubits."""
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for coeff, letters in terms:
        out += coeff * pauli_matrix(letters)
    return out


def pauli_exp(letters: str, angle: float) -> np.ndarray:
    """exp(-i angle P) = cos(angle) I - i sin(angle) P, exact because P^2 = I."""
    p = pauli_matrix(letters)
    return np.cos(angle) * np.eye(p.shape[0]) - 1j * np.sin(angle) * p


def embedded_walk(n_wires: int, labels, edges, onsite) -> np.ndarray:
    """Walk matrix (H[j,j] = eps_j, H[i,j] = -delta_ij) placed at label indices."""
    idx = [int(s, 2) for s in labels]
    out = np.zeros((1 << n_wires, 1 << n_wires))
    for i, j, delta in edges:
        out[idx[i], idx[j]] = -delta
        out[idx[j], idx[i]] = -delta
    for j, eps in enumerate(onsite):
        out[idx[j], idx[j]] = eps
    return out


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h by eigh."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def trotter_product(m: int, terms, t: float, n_steps: int) -> np.ndarray:
    """First-order product: each step applies the ordered terms, first term first.

    terms is a list of (real coefficient, letters) in application order.
    """
    delta = t / n_steps
    step = np.eye(1 << m, dtype=complex)
    for coeff, letters in terms:
        step = pauli_exp(letters, coeff * delta) @ step
    return np.linalg.matrix_power(step, n_steps)


def diagonal_first(terms):
    """Order (coefficient, letters) pairs as documented for TrotterPlan:
    Z/I-only strings first, then by support, then by letters."""

    def key(item):
        letters = item[1]
        support = tuple(q + 1 for q, c in enumerate(letters) if c != "I")
        return (0 if set(letters) <= {"I", "Z"} else 1, support, letters)

    return sorted(terms, key=key)


def controlled(n_wires: int, controls, polarities, target: int, core: np.ndarray) -> np.ndarray:
    """I + (product of control projectors) (core - I) on target, over n_wires wires.

    Wires are 1-based; polarity 1 triggers on up, 0 on down.
    """
    factors = [I2] * n_wires
    for c, pol in zip(controls, polarities):
        factors[c - 1] = P_UP if pol else P_DOWN
    factors[target - 1] = core - I2
    return np.eye(1 << n_wires, dtype=complex) + kron_all(factors)


def rx(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * PAULI["X"]


def cphase(phi: float) -> np.ndarray:
    return np.eye(4, dtype=complex) + (np.exp(1j * phi) - 1.0) * np.kron(P_UP, P_UP)


def named_gate(kind: str, param: float = 0.0) -> np.ndarray:
    """Targets of the gatelib decompositions, from projectors and kron."""
    x = PAULI["X"]
    if kind == "cnot":
        return controlled(2, (1,), (1,), 2, x)
    if kind == "toffoli":
        return controlled(3, (1, 2), (1, 1), 3, x)
    if kind == "swap":
        return 0.5 * sum(pauli_matrix(p + p) for p in "IXYZ")
    if kind == "crk":
        return cphase(2.0 * np.pi / 2.0**param)
    if kind == "cphase":
        return cphase(param)
    if kind == "crx":
        return controlled(2, (1,), (1,), 2, rx(param))
    raise ValueError(f"no reference for {kind!r}")


def dft(n: int) -> np.ndarray:
    """F_jk = exp(2 pi i j k / 2^n) / 2^(n/2)."""
    dim = 1 << n
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def xy_terms(n: int, bonds, h: float):
    """XY chain sum_i -(J_i/2)(X_i X_i+1 + Y_i Y_i+1) + (h/2) sum_i Z_i as
    (coefficient, letters) pairs."""
    terms = [(-j / 2.0, "I" * i + p + p + "I" * (n - i - 2)) for i, j in enumerate(bonds) for p in "XY"]
    return terms + [(h / 2.0, "I" * i + "Z" + "I" * (n - i - 1)) for i in range(n)]


def sector_labels(n: int, n_up: int) -> set[str]:
    return {"".join("1" if q in ups else "0" for q in range(n)) for ups in combinations(range(n), n_up)}


def static_matrix(n: int, eps, delta, chi, vperp, vpar) -> np.ndarray:
    """Dense always-on template sum_a(-eps_a Z_a - delta_a X_a)
    + sum_{a != b} chi_ab Z_a X_b + sum_{a<b}(-vperp_ab X_a X_b + vpar_ab Z_a Z_b)."""

    def word(pairs):
        letters = ["I"] * n
        for q, c in pairs:
            letters[q] = c
        return "".join(letters)

    terms = []
    for a in range(n):
        terms += [(-eps[a], word([(a, "Z")])), (-delta[a], word([(a, "X")]))]
        for b in range(n):
            if a != b:
                terms.append((chi[a][b], word([(a, "Z"), (b, "X")])))
            if a < b:
                terms.append((-vperp[a][b], word([(a, "X"), (b, "X")])))
                terms.append((vpar[a][b], word([(a, "Z"), (b, "Z")])))
    return hamiltonian_matrix(n, terms)


def pauli_columns(m: int, terms, cols) -> np.ndarray:
    """Columns cols of the dense sum of (coefficient, letters) pairs.

    Built from each letter's action on a basis state (X flips the bit,
    Y flips it with phase +i from up and -i from down, Z signs it), so a
    few columns of a wide register cost no 2^m x 2^m matrix.
    """
    cols = np.asarray(cols)
    out = np.zeros((1 << m, cols.size), dtype=complex)
    at = np.arange(cols.size)
    for coeff, letters in terms:
        rows = cols.copy()
        amp = np.full(cols.size, complex(coeff))
        for q, c in enumerate(letters):
            if c == "I":
                continue
            bit = (cols >> (m - 1 - q)) & 1
            if c in "XY":
                rows = rows ^ (1 << (m - 1 - q))
            if c == "Y":
                amp = amp * np.where(bit == 1, 1j, -1j)
            elif c == "Z":
                amp = amp * np.where(bit == 1, 1.0, -1.0)
        out[rows, at] += amp  # XOR by a mask is a bijection: no repeated index
    return out


def pauli_decompose(h: np.ndarray, m: int):
    """(coefficient, letters) pairs with c_P = tr(P h) / 2^m, over all 4^m strings."""
    terms = []
    for word in product("IXYZ", repeat=m):
        letters = "".join(word)
        c = np.trace(pauli_matrix(letters) @ h) / (1 << m)
        if abs(c) > 1e-14:
            terms.append((complex(c), letters))
    return terms


def single_excitation_block(m: int, terms):
    """Action of sum c P on the one-up states (node j = qubit j+1 up).

    Returns (block, leak): the node-by-node matrix and the largest amplitude
    sent from a one-up state to any other state.
    """
    cols = np.array([1 << (m - 1 - j) for j in range(m)])
    out = pauli_columns(m, terms, cols)
    rest = np.ones(1 << m, dtype=bool)
    rest[cols] = False
    return out[cols], float(np.max(np.abs(out[rest])))


def parse_pauli_text(text: str):
    """(m, [(coefficient, letters)]) from the 'QUBITS m' / 'c * X1 Z3' format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    m = int(lines[0][1])
    terms = []
    for tokens in lines[1:]:
        letters = ["I"] * m
        for tok in tokens[2:]:
            if tok != "I":
                letters[int(tok[1:]) - 1] = tok[0]
        terms.append((complex(tokens[0]), "".join(letters)))
    return m, terms


def layer_projection(n_nodes: int, edges, start: int):
    """Layers by breadth-first distance and the column projector onto them."""
    adj = [[] for _ in range(n_nodes)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = {start: 0}
    order = [start]
    for v in order:
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    n_layers = max(dist.values()) + 1
    p = np.zeros((n_nodes, n_layers))
    for k in range(n_layers):
        members = [v for v, d in dist.items() if d == k]
        p[members, k] = 1.0 / np.sqrt(len(members))
    return p


# --- comparisons ---------------------------------------------------------


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max |u - e^{i phi} v| at phi = arg tr(v^dagger u): an upper bound on the
    phase-minimized distance, and equal to it when u and v agree up to phase."""
    overlap = np.vdot(v, u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def modulus_gap(u: np.ndarray, v: np.ndarray) -> float:
    """max ||u| - |v||: a lower bound on the phase-minimized distance."""
    return float(np.max(np.abs(np.abs(u) - np.abs(v))))


def check_close(what: str, got, want, tol: float, up_to_phase: bool = False) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    dev = phase_aligned_distance(got, want) if up_to_phase else float(np.max(np.abs(got - want)))
    if not dev <= tol:
        return [f"{what}: deviation {dev:.3e} above {tol:.0e}"]
    return []


def check_distance(what: str, reported: float, u, v) -> list[str]:
    """A reported phase-minimized distance must lie between the modulus gap
    and the phase-aligned distance of the same pair."""
    lo = modulus_gap(u, v) - DISTANCE_SLACK
    hi = phase_aligned_distance(u, v) + DISTANCE_SLACK
    if not lo <= reported <= hi:
        return [f"{what}: reported distance {reported:.3e} outside [{lo:.3e}, {hi:.3e}]"]
    return []


def check_leak(what: str, full: np.ndarray, n_ancillas: int, tol: float = LEAK_TOL) -> list[str]:
    """Amplitude from ancilla-down columns into rows with any ancilla up.

    Ladders of permutation gates (TOFFOLI, CNOT, X) restore ancillas exactly,
    so the default tolerance is 1e-15; pass LOWERED_LEAK_TOL for circuits
    lowered to RX/RZ/XX rotations.
    """
    if n_ancillas == 0:
        return []
    step = 1 << n_ancillas
    cols = full[:, ::step]
    rows = np.ones(full.shape[0], dtype=bool)
    rows[::step] = False
    leak = float(np.max(np.abs(cols[rows]))) if rows.any() else 0.0
    if not leak <= tol:
        return [f"{what}: ancilla leak {leak:.3e} above {tol:.0e}"]
    return []


def check_text_round_trip(what: str, original, parsed) -> list[str]:
    """Bit-exact equality of two PauliHamiltonians' canonical terms."""
    if parsed.m_qubits != original.m_qubits or len(parsed.terms) != len(original.terms):
        return [f"{what}: round trip changed the size"]
    for (c0, s0), (c1, s1) in zip(original.terms, parsed.terms):
        if s0.letters != s1.letters or complex(c0) != complex(c1):
            return [f"{what}: round trip changed term {s0.letters}"]
    return []


def replay_pulses(n_wires: int, pulses, psi: np.ndarray) -> np.ndarray:
    """Apply pulses (term, qubits, strength, duration) to the columns of psi,
    earliest pulse first.

    Generators follow the pulse convention: eps -> +s Z, delta -> -s X,
    vperp -> -s X X; each pulse is exp(-i c d P) = cos(c d) - i sin(c d) P,
    applied by index arithmetic, so no register-sized matrix is formed.
    """
    idx = np.arange(1 << n_wires)
    psi = np.asarray(psi, dtype=complex)
    shape = (-1,) + (1,) * (psi.ndim - 1)
    for term, qubits, strength, duration in pulses:
        mask = sum(1 << (n_wires - q) for q in qubits)
        if term == "eps":
            coeff = strength
            p_psi = np.where(idx & mask, 1.0, -1.0).reshape(shape) * psi
        else:
            coeff = -strength
            p_psi = psi[idx ^ mask]
        angle = coeff * duration
        psi = np.cos(angle) * psi - 1j * np.sin(angle) * p_psi
    return psi
