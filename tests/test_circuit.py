"""Gate IR validation, dense unitaries, state application, and circuit text."""
from __future__ import annotations

import math

import numpy as np
import pytest

from walkforge import (
    Circuit,
    Gate,
    StateVector,
    TrotterPlan,
    ancilla_ground_block,
    apply,
    basis_state,
    build_cycle,
    build_hypercube,
    build_line,
    circuit_from_text,
    circuit_to_text,
    encode_binary,
    expand_multicontrol,
    gate_conventions,
    trotterize,
    unitary,
)
from walkforge.circuit import _MONOMIAL, _applications, _power_pays, _repeated_block, _run

rng = np.random.default_rng(271828)


def _single(kind: str, *params: float) -> np.ndarray:
    """Unitary of a one-wire circuit holding a single gate."""
    return unitary(Circuit(1, 0, (Gate(kind, (1,), tuple(params)),)))


def _pair(kind: str, *params: float) -> np.ndarray:
    """Unitary of a two-wire circuit holding a single gate on (1, 2)."""
    return unitary(Circuit(2, 0, (Gate(kind, (1, 2), tuple(params)),)))


def test_rx_matrix():
    """RX follows the cos/sin convention with -i off-diagonals."""
    theta = 0.813
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    np.testing.assert_allclose(_single("RX", theta), [[c, -1j * s], [-1j * s, c]], atol=1e-15)


def test_ry_matrix():
    """RY rotates within the real plane, upper-right entry positive."""
    theta = 1.234
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    np.testing.assert_allclose(_single("RY", theta), [[c, s], [-s, c]], atol=1e-15)


def test_rz_matrix():
    """RZ puts e^{+i theta/2} on the down-spin (index 0) entry."""
    theta = -0.61
    want = np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
    np.testing.assert_allclose(_single("RZ", theta), want, atol=1e-15)


def test_hadamard_and_x_matrices():
    """H and X are the usual real matrices."""
    np.testing.assert_allclose(_single("H"), np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(_single("X"), [[0, 1], [1, 0]], atol=1e-15)


def test_aphase_matrix():
    """APHASE leaves down alone and phases up by e^{-i eps}."""
    eps = 0.37
    np.testing.assert_allclose(_single("APHASE", eps), np.diag([1.0, np.exp(-1j * eps)]), atol=1e-15)


def test_gphase_matrix():
    """GPHASE multiplies the whole register by e^{i phi}."""
    u = unitary(Circuit(2, 0, (Gate("GPHASE", (), (0.45,)),)))
    np.testing.assert_allclose(u, np.exp(0.45j) * np.eye(4), atol=1e-15)


def test_cnot_matrix():
    """CNOT flips the target exactly on the up-control block."""
    want = np.eye(4)[[0, 1, 3, 2]]
    np.testing.assert_allclose(_pair("CNOT"), want, atol=1e-15)


def test_swap_matrix():
    """SWAP exchanges the two middle basis states."""
    want = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(_pair("SWAP"), want, atol=1e-15)


def test_xx_matrix():
    """XX(chi) equals cos(chi) I + i sin(chi) X@X."""
    chi = 0.79
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    want = math.cos(chi) * np.eye(4) + 1j * math.sin(chi) * xx
    np.testing.assert_allclose(_pair("XX", chi), want, atol=1e-15)


def test_cphase_matrix():
    """CPHASE phases only the both-up state."""
    phi = 1.1
    np.testing.assert_allclose(_pair("CPHASE", phi), np.diag([1, 1, 1, np.exp(1j * phi)]), atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_crk_matrix(k):
    """CRK applies the 2 pi / 2^k phase on the both-up state."""
    want = np.diag([1, 1, 1, np.exp(2j * np.pi / 2**k)])
    np.testing.assert_allclose(_pair("CRK", k), want, atol=1e-15)


def test_crx_matrix():
    """CRX applies an RX block on the up-control subspace."""
    theta = 0.52
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = [[c, -1j * s], [-1j * s, c]]
    np.testing.assert_allclose(_pair("CRX", theta), want, atol=1e-15)


def test_toffoli_matrix():
    """TOFFOLI swaps only the two states with both controls up."""
    u = unitary(Circuit(3, 0, (Gate("TOFFOLI", (1, 2, 3)),)))
    want = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_gate_placement_on_second_wire():
    """A gate on qubit 2 acts as identity tensor the gate matrix."""
    theta = 0.3
    u = unitary(Circuit(2, 0, (Gate("RX", (2,), (theta,)),)))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    want = np.kron(np.eye(2), [[c, -1j * s], [-1j * s, c]])
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_cnot_reversed_wires():
    """Control on qubit 2 and target on qubit 1 permutes 01 <-> 11."""
    u = unitary(Circuit(2, 0, (Gate("CNOT", (2, 1)),)))
    want = np.eye(4)[[0, 3, 2, 1]]
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_mcx_mixed_polarity_block():
    """MCX +q1 -q2 flips the target exactly when q1 is up and q2 is down."""
    g = Gate("MCX", (1, 2, 3), (), (1, 0))
    u = unitary(Circuit(3, 0, (g,)))
    want = np.eye(8)[[0, 1, 2, 3, 5, 4, 6, 7]]
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_mcrx_polarized_block():
    """MCRX rotates the target only on the selected control pattern."""
    theta = 0.9
    g = Gate("MCRX", (1, 2, 3), (theta,), (0, 1))
    u = unitary(Circuit(3, 0, (g,)))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    want = np.eye(8, dtype=complex)
    want[np.ix_([2, 3], [2, 3])] = [[c, -1j * s], [-1j * s, c]]
    np.testing.assert_allclose(u, want, atol=1e-15)


def test_unitary_composes_in_gate_order():
    """Later gates multiply from the left."""
    c = Circuit(1, 0, (Gate("H", (1,)), Gate("RZ", (1,), (0.7,))))
    want = _single("RZ", 0.7) @ _single("H")
    np.testing.assert_allclose(unitary(c), want, atol=1e-15)


def test_apply_matches_unitary():
    """Applying to a random state equals multiplying by the dense unitary."""
    c = Circuit(
        3,
        0,
        (
            Gate("H", (1,)),
            Gate("CNOT", (1, 2)),
            Gate("RZ", (3,), (0.4,)),
            Gate("TOFFOLI", (1, 2, 3)),
            Gate("XX", (2, 3), (0.21,)),
        ),
    )
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    out = apply(c, StateVector(amps))
    np.testing.assert_allclose(out.amps, unitary(c) @ amps, atol=1e-13)


def test_apply_accepts_plain_arrays():
    """A raw amplitude array works the same as a StateVector."""
    c = Circuit(1, 0, (Gate("H", (1,)),))
    out = apply(c, basis_state(2, 0))
    np.testing.assert_allclose(out.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_ancilla_ground_block_selects_stride():
    """The block keeps rows and columns whose ancillas all sit at down."""
    u = np.arange(16, dtype=float).reshape(4, 4)
    np.testing.assert_allclose(ancilla_ground_block(u, 1), [[0, 2], [8, 10]])
    np.testing.assert_allclose(ancilla_ground_block(u, 0), u)


def test_gate_validation_errors():
    """Bad kinds, wire counts, polarities, and parameters are rejected."""
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("CZ", (1, 2))
    with pytest.raises(ValueError, match="acts on 2 wires"):
        Gate("CNOT", (1, 2, 3))
    with pytest.raises(ValueError, match="takes 1 parameter"):
        Gate("RX", (1,))
    with pytest.raises(ValueError, match="takes no polarities"):
        Gate("CNOT", (1, 2), (), (1,))
    with pytest.raises(ValueError, match="one polarity bit per control"):
        Gate("MCX", (1, 2, 3), (), (1,))
    with pytest.raises(ValueError, match="polarities must be 0 or 1"):
        Gate("MCX", (1, 2), (), (2,))
    with pytest.raises(ValueError, match="wires must be distinct"):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError, match="1-based"):
        Gate("RX", (0,), (0.1,))
    with pytest.raises(ValueError, match="must be finite"):
        Gate("RX", (1,), (math.inf,))
    with pytest.raises(ValueError, match="positive integer"):
        Gate("CRK", (1, 2), (1.5,))


def test_circuit_validation_errors():
    """Circuits check wire budgets against their gates."""
    with pytest.raises(ValueError, match="at least one wire"):
        Circuit(0, 0, ())
    with pytest.raises(ValueError, match="touches wire beyond 2"):
        Circuit(2, 0, (Gate("RX", (3,), (0.1,)),))


def test_apply_rejects_wrong_dimension():
    """State length must match the wire count."""
    c = Circuit(2, 0, (Gate("H", (1,)),))
    with pytest.raises(ValueError, match="does not match"):
        apply(c, basis_state(2, 0))


def test_circuit_text_round_trip():
    """Text serialization reproduces the circuit and the text bit-exactly."""
    c = Circuit(
        2,
        1,
        (
            Gate("H", (1,)),
            Gate("RZ", (2,), (0.12345678901234567,)),
            Gate("MCX", (1, 2, 3), (), (1, 0)),
            Gate("MCRX", (2, 1, 3), (0.25,), (0, 1)),
            Gate("GPHASE", (), (-0.75,)),
            Gate("CRK", (1, 2), (3,)),
        ),
    )
    text = circuit_to_text(c)
    back = circuit_from_text(text)
    assert back == c
    assert circuit_to_text(back) == text


def test_circuit_text_header_and_polarity_tokens():
    """The header names both wire counts; controls carry +/- signs."""
    c = Circuit(2, 1, (Gate("MCX", (1, 2, 3), (), (1, 0)),))
    text = circuit_to_text(c)
    lines = text.splitlines()
    assert lines[0] == "QUBITS 2 ANCILLAS 1"
    assert lines[1] == "MCX +q1 -q2 q3"


def test_circuit_text_rejects_bad_header():
    """Circuit text must start with the wire-count header."""
    with pytest.raises(ValueError, match="must start with"):
        circuit_from_text("H q1\n")
    with pytest.raises(ValueError, match="empty circuit text"):
        circuit_from_text("")


@pytest.mark.parametrize(
    "text, match",
    [
        ("MCX q1 +q2", "polarity on every control"),
        ("MCX +q1 +q2", "none on the target"),
        ("MCRX +q1 q2 -q3 0.5", "polarity on every control"),
        ("MCX q1", "at least one control"),
        ("CNOT +q1 q2", "takes no polarities"),
    ],
)
def test_circuit_text_polarities_by_position(text, match):
    """Every multi-control control carries a sign, the target none; other kinds none at all."""
    with pytest.raises(ValueError, match=match):
        circuit_from_text(f"QUBITS 3 ANCILLAS 0\n{text}\n")


def test_crk_huge_order_is_the_identity():
    """2 pi 2^-k underflows to a zero phase instead of overflowing 2^k."""
    c = circuit_from_text("QUBITS 2 ANCILLAS 0\nCRK q1 q2 1e300\n")
    assert np.array_equal(unitary(c), np.eye(4))


def _trotter_circuits():
    onsite = (0.3, -0.2, 0.1, 0.5, 0.0, 0.7)
    cases = [
        ("cycle5", build_cycle(5), (2, 16)),
        ("line6-onsite", build_line(6, eps=onsite), (5,)),
        ("hypercube3", build_hypercube(3), (9,)),
        ("cycle12", build_cycle(12), (3,)),
    ]
    for name, g, step_counts in cases:
        for steps in step_counts:
            c = trotterize(encode_binary(g), 0.9, TrotterPlan(steps))
            yield pytest.param(c, steps, id=f"{name}-{steps}")


@pytest.mark.parametrize("c, steps", _trotter_circuits())
def test_trotter_unitary_matches_gate_by_gate(c, steps):
    """The step raised to the power N equals the product of all N steps' gates,
    and entries between the ancilla-down and ancilla-up sectors stay exact zeros."""
    block, reps = _repeated_block(c.gates)
    assert reps % steps == 0 and _power_pays(len(block), reps, c.n_wires)
    u = unitary(c)
    want = _run(c, np.eye(1 << c.n_wires, dtype=complex))
    assert np.max(np.abs(u - want)) <= 1e-12
    if c.n_ancillas:
        assert np.count_nonzero(u[1::2, ::2]) == 0 and np.count_nonzero(u[::2, 1::2]) == 0


def test_trotter_circuits_include_global_phases():
    """On-site energies give an identity term, so the repeated step holds GPHASE gates."""
    c = trotterize(encode_binary(build_line(6, eps=(0.3, -0.2, 0.1, 0.5, 0.0, 0.7))), 0.9, TrotterPlan(4))
    assert c.n_ancillas == 1 and any(g.kind == "GPHASE" for g in c.gates)


def test_aperiodic_unitary_is_bit_identical():
    """A circuit with no repeated block takes the gate-by-gate path unchanged."""
    gates = tuple(Gate("RX", (q % 3 + 1,), (0.1 * q,)) for q in range(40)) + (Gate("CNOT", (1, 3)),)
    c = Circuit(3, 0, gates)
    assert _repeated_block(c.gates) == (c.gates, 1)
    assert np.array_equal(unitary(c), _run(c, np.eye(8, dtype=complex)))


def test_repeated_block_is_the_shortest_period():
    """The block is the shortest prefix whose repetition is the whole tuple."""
    a, b, d = Gate("X", (1,)), Gate("H", (1,)), Gate("RZ", (1,), (0.5,))
    assert _repeated_block((a, b) * 3) == ((a, b), 3)
    assert _repeated_block((a,) * 4) == ((a,), 4)
    assert _repeated_block((a, b, a, b, a, b, a, b)) == ((a, b), 4)
    assert _repeated_block((a, b, a, d)) == ((a, b, a, d), 1)
    assert _repeated_block((a, b, a)) == ((a, b, a), 1)
    assert _repeated_block(()) == ((), 1)


def test_power_rule_counts():
    """Decided on counts alone: no matrix of any size is built here."""
    assert not _power_pays(1, 2, 12)  # X q1; X q1 on 12 wires: two gates, not a 4096^3 matmul
    assert not _power_pays(1, 2, 40)
    assert not any(_power_pays(p, 1, w) for p in (1, 10**6) for w in range(20))
    assert _power_pays(935, 10, 7)  # one cycle(64) Trotter step, ten steps
    assert _power_pays(116, 2, 4)
    assert not _power_pays(2, 2, 2)


def test_a_run_of_monomial_gates_is_one_application(monkeypatch):
    """The power rule prices a run of permutation and phase gates as one pass,
    so an all-monomial repeated circuit is one gather, not a matrix power."""
    x, h, cnot, rz = Gate("X", (1,)), Gate("H", (1,)), Gate("CNOT", (1, 2)), Gate("RZ", (2,), (0.3,))
    assert _applications((x, cnot, h, rz, h, cnot, rz)) == 5
    assert _applications(()) == 0
    powers = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda u, n: powers.append(n) or matrix_power(u, n))
    c = Circuit(3, 0, (x, cnot, rz) * 16)
    assert np.array_equal(unitary(c), _run(c, np.eye(8, dtype=complex)))
    c = Circuit(3, 0, (x, h, cnot) * 16)
    unitary(c)
    assert powers == [1, 16]


_KIND_WIRES = {
    "RX": 1, "RY": 1, "RZ": 1, "H": 1, "X": 1, "APHASE": 1, "CNOT": 2, "SWAP": 2, "XX": 2,
    "CPHASE": 2, "CRK": 2, "CRX": 2, "TOFFOLI": 3, "MCX": None, "MCRX": None, "GPHASE": 0,
}
_SPECIAL = (Gate("RX", (1,), (math.pi,)), Gate("RZ", (1,), (0.0,)), Gate("CRK", (1, 2), (2000.0,)))


def _random_gate(kind: str, w: int, gen) -> Gate:
    """A gate of this kind on random distinct wires in random order."""
    n = _KIND_WIRES[kind]
    n = int(gen.integers(2, w + 1)) if n is None else n
    wires = tuple(int(q) + 1 for q in gen.permutation(w)[:n])
    polarities = tuple(int(b) for b in gen.integers(0, 2, n - 1)) if kind in ("MCX", "MCRX") else ()
    if kind == "CRK":
        params = (float(gen.integers(1, 12)),)
    elif kind in ("H", "X", "CNOT", "SWAP", "TOFFOLI", "MCX"):
        params = ()
    else:
        params = (float(gen.uniform(-7.0, 7.0)),)
    return Gate(kind, wires, params, polarities)


def _oracle_gate(g: Gate, w: int) -> np.ndarray:
    """Full-register matrix of one gate, entry by entry from gate_conventions()."""
    if g.kind == "GPHASE":
        return np.exp(1j * g.params[0]) * np.eye(1 << w)
    conv = gate_conventions()
    if g.kind in ("MCX", "MCRX"):
        m = len(g.polarities)
        local = np.eye(2 << m, dtype=complex)
        on = sum(b << (m - i) for i, b in enumerate(g.polarities))
        local[on:on + 2, on:on + 2] = conv["X"] if g.kind == "MCX" else conv["RX"](*g.params)
    else:
        local = conv[g.kind](*g.params) if g.params else conv[g.kind]
    k = len(g.qubits)
    full = np.zeros((1 << w, 1 << w), dtype=complex)
    for j in range(1 << w):
        col = 0
        for q in g.qubits:
            col = (col << 1) | ((j >> (w - q)) & 1)
        for row in range(1 << k):
            i = j
            for b, q in enumerate(g.qubits):
                bit = (row >> (k - 1 - b)) & 1
                i = (i & ~(1 << (w - q))) | (bit << (w - q))
            full[i, j] = local[row, col]
    return full


def _random_circuits():
    gen = np.random.default_rng(314159)
    kinds = list(_KIND_WIRES)
    for case in range(8):
        w = 3 + case % 3
        picks = kinds + list(gen.choice(kinds, 8))  # every kind in every circuit
        gates = [_random_gate(k, w, gen) for k in gen.permutation(picks)]
        gates[2:2] = _SPECIAL
        reps = 3 if case % 2 else 1  # odd cases repeat their block, so unitary may square up
        yield pytest.param(Circuit(w, 0, tuple(gates) * reps), id=f"w{w}-x{reps}-{case}")


@pytest.mark.parametrize("c", _random_circuits())
def test_unitary_and_apply_match_an_index_loop_oracle(c):
    """All 16 kinds, random wire orders and polarities, RX(pi), RZ(0) and an
    underflowing CRK: unitary matches a product of gate_conventions() matrices
    placed by explicit index loops, and apply matches unitary times the state."""
    want = np.eye(1 << c.n_wires, dtype=complex)
    for g in c.gates:
        want = _oracle_gate(g, c.n_wires) @ want
    u = unitary(c)
    assert np.max(np.abs(u - want)) <= 1e-13
    psi = rng.normal(size=1 << c.n_wires) + 1j * rng.normal(size=1 << c.n_wires)
    assert np.max(np.abs(apply(c, psi) - u @ psi)) <= 1e-13


def test_monomial_kinds_are_derived_from_the_gate_table():
    """Exactly the kinds with one nonzero per column compose as index maps."""
    assert _MONOMIAL == {"X", "CNOT", "SWAP", "TOFFOLI", "MCX", "RZ", "APHASE", "CPHASE", "CRK", "GPHASE"}


def test_mcx_ladder_unitary_is_an_exact_permutation():
    """The 4-control ladder evaluates to a 0/1 permutation matrix with no
    ancilla leak at all, and its ground block is the MCX itself."""
    g = Gate("MCX", (1, 2, 3, 4, 5), (), (1, 0, 1, 1))
    c = expand_multicontrol(g, 5)
    u = unitary(c)
    perm = np.abs(u).argmax(axis=0)
    assert sorted(perm) == list(range(len(u)))
    assert np.array_equal(u, np.eye(len(u))[perm].T)
    stride = 1 << c.n_ancillas
    outside = np.ones(len(u), dtype=bool)
    outside[::stride] = False
    assert np.max(np.abs(u[outside][:, ::stride])) == 0.0
    block = ancilla_ground_block(u, c.n_ancillas)
    want = np.eye(32)
    want[[0b10110, 0b10111]] = want[[0b10111, 0b10110]]
    assert np.array_equal(block, want)
