"""Gate IR validation, dense unitaries, state application, and circuit text."""
from __future__ import annotations

import math
import pickle
import re
import tracemalloc
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, replace

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
    build_qft_circuit,
    circuit_from_text,
    circuit_to_text,
    encode_binary,
    expand_multicontrol,
    gate_conventions,
    to_fundamental,
    trotterize,
    unitary,
)
from walkforge.circuit import (
    _MONOMIAL,
    _Table,
    _dense,
    _gate_matrix,
    _period,
    _plan,
    _power_pays,
    _run,
)

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


def test_apply_returns_a_state_after_a_long_circuit():
    """The 53,030 gates of ten Trotter steps on cycle(256) round the norm by
    more than StateVector's 1e-12 input check; apply still returns the state,
    with the amplitudes it gives a plain array."""
    c = trotterize(encode_binary(build_cycle(256)), 1.0, TrotterPlan(10))
    psi = basis_state(1 << c.n_wires, 0)
    out = apply(c, psi)
    assert len(c.codes) == 53030
    assert isinstance(out, StateVector)
    assert np.array_equal(out.amps, apply(c, psi.amps))


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
    p = _period(c.codes)
    reps = len(c.codes) // p
    dense = sum(c.table[k].kind not in _MONOMIAL for k in c.codes[:p])
    assert reps % steps == 0 and _power_pays(dense, reps, c.n_wires)
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
    assert _period(c.codes) == len(c.codes)
    assert np.array_equal(unitary(c), _run(c, np.eye(8, dtype=complex)))


def test_repeated_block_is_the_shortest_period():
    """The block is the shortest prefix whose repetition is the whole tuple."""
    a, b, d = Gate("X", (1,)), Gate("H", (1,)), Gate("RZ", (1,), (0.5,))

    def period(gates):
        return _period(Circuit(1, 0, gates).codes)

    assert period((a, b) * 3) == 2
    assert period((a,) * 4) == 1
    assert period((a, b, a, b, a, b, a, b)) == 2
    assert period((a, b, a, d)) == 4
    assert period((a, b, a)) == 3
    assert period(()) == 0


def test_power_rule_counts():
    """Decided on counts alone: no matrix of any size is built here."""
    assert not _power_pays(1, 2, 12)  # X q1; X q1 on 12 wires: two gates, not a 4096^3 matmul
    assert not _power_pays(1, 2, 40)
    assert not any(_power_pays(p, 1, w) for p in (1, 10**6) for w in range(20))
    assert _power_pays(935, 10, 7)  # one cycle(64) Trotter step, ten steps
    assert _power_pays(116, 2, 4)
    assert not _power_pays(2, 2, 2)
    assert _power_pays(2, 4, 2)  # two dense gates on two wires, four times: the closest benchmark case
    assert not any(_power_pays(0, reps, w) for reps in (2, 16, 10**6) for w in range(20))


def test_a_run_of_monomial_gates_is_one_application(monkeypatch):
    """A run of permutation and phase gates is one step each and no fused run,
    and the power rule prices it at nothing, so an all-monomial repeated
    circuit is one gather, not a matrix power."""
    x, h, cnot, rz = Gate("X", (1,)), Gate("H", (1,)), Gate("CNOT", (1, 2)), Gate("RZ", (2,), (0.3,))
    c = Circuit(2, 0, (x, cnot, h, rz, h, cnot, rz))
    assert _plan(c.table, c.codes) == list(c.codes)
    assert _plan(c.table, ()) == []
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


def _fused_runs(c: Circuit) -> int:
    """Fused runs in the plan of the circuit's codes."""
    return sum(isinstance(step, tuple) for step in _plan(c.table, c.codes))


def _lowered_circuits():
    """to_fundamental of two-wire gates on both wire orders and of a Toffoli, on
    random wires of 3-5, the lowered QFT on 3-5 qubits, a run of named dense
    gates with CRX on both orders of its pair, and one-control MCX and MCRX
    between dense gates on the same two wires."""
    gen = np.random.default_rng(57721)
    for kind in ("CNOT", "SWAP", "CRK", "CPHASE", "CRX", "TOFFOLI"):
        w = int(gen.integers(3, 6))
        g, h = _random_gate(kind, w, gen), _random_gate(kind, w, gen)
        if kind != "TOFFOLI":
            h = Gate(kind, g.qubits[::-1], h.params)  # the same pair in the other order
        yield pytest.param(to_fundamental(Circuit(w, 0, (g, h))), id=f"{kind}-w{w}")
    for n in (3, 4, 5):
        yield pytest.param(build_qft_circuit(n, "fundamental"), id=f"qft{n}")
    crx = [Gate("CRX", w, (t,)) for w, t in (((4, 2), 0.9), ((2, 4), -1.3))]
    named = (Gate("RX", (4,), (0.4,)), crx[0], Gate("RZ", (2,), (0.8,)), crx[1], Gate("H", (4,)), Gate("XX", (4, 2), (0.6,)))
    yield pytest.param(Circuit(4, 0, named), id="crx-both-orders")
    rx, xx = Gate("RX", (3,), (0.5,)), Gate("XX", (1, 3), (0.7,))
    lowered_cnot = tuple(to_fundamental(Circuit(3, 0, (Gate("CNOT", (3, 1)),))).gates)
    one_control = (
        rx, xx, Gate("MCX", (3, 1), (), (0,)), Gate("RX", (1,), (-0.2,)), xx,
        Gate("MCRX", (1, 3), (1.1,), (1,)), *lowered_cnot, rx,
    )
    yield pytest.param(Circuit(3, 0, one_control), id="one-control-mcx-mcrx")


@pytest.mark.parametrize("c", _lowered_circuits())
def test_fused_runs_match_the_index_loop_oracle(c):
    """Lowered gates fuse into two-wire runs, and unitary and apply still match the
    product of the gates' matrices placed by explicit index loops."""
    assert _fused_runs(c) > 0
    want = np.eye(1 << c.n_wires, dtype=complex)
    for g in c.gates:
        want = _oracle_gate(g, c.n_wires) @ want
    u = unitary(c)
    assert np.max(np.abs(u - want)) <= 1e-12
    psi = rng.normal(size=1 << c.n_wires) + 1j * rng.normal(size=1 << c.n_wires)
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(apply(c, psi) - want @ psi)) <= 1e-12


@pytest.mark.parametrize("wires", [(2, 4), (5, 1)])
def test_a_lowered_cnot_is_one_two_wire_pass(wires, monkeypatch):
    """The lowered CNOT holds four dense gates on its two wires; apply makes one
    4 x 4 pass over the state for them, on the wires in increasing order."""
    c = to_fundamental(Circuit(5, 0, (Gate("CNOT", wires),)))
    assert sum(g.kind not in _MONOMIAL for g in c.gates) == 4
    calls = []
    monkeypatch.setattr(
        "walkforge.circuit._dense", lambda psi, qubits, mat: calls.append((qubits, mat.shape)) or _dense(psi, qubits, mat)
    )
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    got = apply(c, psi)
    assert calls == [(tuple(sorted(wires)), (4, 4))]
    want = apply(Circuit(5, 0, (Gate("CNOT", wires),)), psi)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(psi))


def test_a_run_of_two_dense_gates_runs_gate_by_gate():
    """A two-wire run with only two dense gates is not fused: unitary and apply
    equal, bit for bit, the gates applied one at a time."""
    gates = (Gate("RX", (1,), (0.3,)), Gate("X", (3,)), Gate("XX", (3, 1), (0.7,)), Gate("CNOT", (1, 3)))
    c = Circuit(3, 0, gates)
    assert _fused_runs(c) == 0
    want = np.eye(8, dtype=complex)
    for g in gates:
        want = _run(Circuit(3, 0, (g,)), want)
    assert np.array_equal(unitary(c), want)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    col = psi.reshape(8, 1)
    for g in gates:
        col = _run(Circuit(3, 0, (g,)), col)
    assert np.array_equal(apply(c, psi), col.reshape(8))


def test_plan_cuts_runs_at_a_third_wire_or_a_wide_gate():
    """One forward cut: a run keeps the monomial gates at both of its ends,
    takes GPHASE anywhere, and ends before a third wire, a Toffoli or a
    multi-control, even one with a single control on the run's two wires; a
    run of fewer than three dense gates, or of dense gates alone, runs gate by
    gate, and a run on one wire fuses to a 2 x 2."""
    rx = [Gate("RX", (q,), (0.1 * q,)) for q in (1, 2, 3)]
    rz, ph = Gate("RZ", (2,), (0.5,)), Gate("GPHASE", (), (0.2,))
    xx, cnot, cnot31 = Gate("XX", (2, 1), (0.3,)), Gate("CNOT", (1, 2)), Gate("CNOT", (3, 1))
    tof, mcx = Gate("TOFFOLI", (1, 2, 3)), Gate("MCX", (1, 2), (), (1,))
    mcrx, rz1 = Gate("MCRX", (2, 1), (0.4,), (0,)), Gate("RZ", (1,), (0.6,))
    gates = (
        rz, cnot, rx[0], ph, xx, rx[1], cnot,  # fused on (1, 2)
        rx[2], ph, cnot31, rx[0],  # a third wire starts a run; two dense gates
        tof, rx[0], xx, rx[1],  # three dense gates and no monomial one
        mcx, rx[0], rz1, rx[0], ph, rx[0],  # fused on (1,)
        mcrx,
    )
    c = Circuit(3, 0, gates)
    steps = [
        (tuple(c.table[k] for k in s[0]), s[1]) if isinstance(s, tuple) else c.table[s]
        for s in _plan(c.table, c.codes)
    ]
    assert steps == [
        (gates[:7], (1, 2)),
        rx[2], ph, cnot31, rx[0],
        tof, rx[0], xx, rx[1],
        mcx, (gates[16:21], (1,)),
        mcrx,
    ]


def test_dense_gates_alone_are_not_fused():
    """Three dense gates and no monomial one run gate by gate on any block:
    unitary equals, bit for bit, the gates applied one at a time."""
    gates = (Gate("RX", (2,), (0.3,)), Gate("RX", (5,), (0.4,)), Gate("XX", (5, 2), (0.5,)))
    for c in (Circuit(5, 0, gates), Circuit(6, 0, gates)):  # a 32 x 32 and a 64 x 64 unitary
        assert _plan(c.table, c.codes) == list(c.codes)
        want = np.eye(1 << c.n_wires, dtype=complex)
        for g in gates:
            want = _run(Circuit(c.n_wires, 0, (g,)), want)
        assert np.array_equal(unitary(c), want)


class _CountedCodes(Sequence):
    """Codes that count every element read: one per index, one per element of
    a slice, and one per element iterated (Sequence iterates by index). A
    tuple subclass would be unpacked and iterated without any of these calls."""

    def __init__(self, codes):
        self._codes = tuple(codes)
        self.reads = 0

    def __len__(self):
        return len(self._codes)

    def __getitem__(self, key):
        got = self._codes[key]
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


@pytest.mark.parametrize("tail", [(), (Gate("RZ", (1,), (0.2,)), Gate("RX", (1,), (0.7,)))])
def test_planning_is_linear_in_the_codes(tail):
    """A long stretch of dense gates on two wires, whose runs are never fused,
    is planned with a bounded number of reads per code (each start once, each
    window end once), not one rescan of the stretch per start."""
    dense = [Gate("RX", (1,), (0.1,)), Gate("RX", (2,), (0.2,)), Gate("XX", (1, 2), (0.3,))]
    c = Circuit(2, 0, tuple(dense * 1000) + tail)
    codes = _CountedCodes(c.codes)
    steps = _plan(c.table, codes)
    assert 0 < codes.reads <= 3 * len(codes)
    assert _plan(c.table, c.codes) == steps
    # with a monomial gate at the end, one run takes the whole stretch
    assert steps == ([(c.codes, (1, 2))] if tail else list(c.codes))


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


def _trotter16() -> Circuit:
    """A binary cycle(16) Trotter circuit: 4 copies of one step, with one ancilla."""
    return trotterize(encode_binary(build_cycle(16)), 0.9, TrotterPlan(4))


def test_each_distinct_gate_matrix_is_built_once_per_call(monkeypatch):
    """apply builds one matrix per distinct gate, however often it occurs."""
    c = _trotter16()
    assert len(set(c.gates)) < len(c.gates)
    calls = []
    monkeypatch.setattr("walkforge.circuit._gate_matrix", lambda g: calls.append(g) or _gate_matrix(g))
    psi = rng.normal(size=1 << c.n_wires) + 1j * rng.normal(size=1 << c.n_wires)
    apply(c, psi)
    assert len(calls) == len(set(calls)) == len(set(c.gates))


@pytest.mark.parametrize("kind", ["MCX", "MCRX"])
def test_ten_controls_apply_without_the_full_gate_matrix(kind):
    """A 10-control gate on 11 wires acts on a 32 KiB state in well under 4 MB
    (its 2^11-square matrix alone would be 64 MB) and matches a loop over the
    amplitudes whose controls match."""
    gen = np.random.default_rng(11)
    w = 11
    wires = tuple(int(q) + 1 for q in gen.permutation(w))
    pols = tuple(int(b) for b in gen.integers(0, 2, w - 1))
    g = Gate(kind, wires, (0.7,) if kind == "MCRX" else (), pols)
    c = Circuit(w, 0, (g,))
    psi = gen.normal(size=1 << w) + 1j * gen.normal(size=1 << w)
    tracemalloc.start()
    try:
        got = apply(c, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    conv = gate_conventions()
    core = conv["X"] if kind == "MCX" else conv["RX"](0.7)
    bit = {q: 1 << (w - q) for q in wires}
    want = psi.copy()
    for j in range(1 << w):
        if all(bool(j & bit[q]) == bool(p) for q, p in zip(wires, pols)) and not j & bit[wires[-1]]:
            up = j | bit[wires[-1]]
            want[j] = core[0, 0] * psi[j] + core[0, 1] * psi[up]
            want[up] = core[1, 0] * psi[j] + core[1, 1] * psi[up]
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.count_nonzero(got != psi) == 2  # the one pair whose controls match


@pytest.mark.parametrize("c", [_trotter16(), Circuit(3, 1, (Gate("RZ", (1,), (0.0,)), Gate("RZ", (1,), (-0.0,))) * 3)])
def test_circuit_text_equals_the_gate_by_gate_text(c):
    """Formatting and parsing each distinct gate or line once gives the text and
    gates of one-gate circuits, a signed zero included."""
    header = f"QUBITS {c.n_qubits} ANCILLAS {c.n_ancillas}\n"
    lines = [circuit_to_text(Circuit(c.n_qubits, c.n_ancillas, (g,)))[len(header):] for g in c.gates]
    text = circuit_to_text(c)
    assert text == header + "".join(lines)
    parsed = circuit_from_text(text)
    assert repr(parsed) == repr(Circuit(c.n_qubits, c.n_ancillas, tuple(
        circuit_from_text(header + ln).gates[0] for ln in lines
    )))


def test_circuit_text_reports_the_first_bad_line_after_repeats():
    """Lines that repeat are parsed once, and the first bad line still raises."""
    good = "RZ q1 0.5\nCNOT q1 q2\n" * 200
    with pytest.raises(ValueError, match="unknown gate kind 'FOO'"):
        circuit_from_text("QUBITS 2 ANCILLAS 0\n" + good + "FOO q1\nRZ q1 nan\n" + good)
    with pytest.raises(ValueError, match="must be finite"):
        circuit_from_text("QUBITS 2 ANCILLAS 0\n" + good + "RZ q1 nan\n" + good)


def test_gate_hash_survives_a_pickle_round_trip():
    """The hash is computed once per gate and rebuilt, not stored, on unpickling;
    a zero of either sign still makes equal gates."""
    g = Gate("MCRX", (3, 1, 2), (0.25,), (1, 0))
    data = pickle.dumps(g)
    assert b"_hash" not in data
    back = pickle.loads(data)
    assert back == g and hash(back) == hash(g)
    assert Gate("RZ", (1,), (0.0,)) == Gate("RZ", (1,), (-0.0,))
    assert hash(Gate("RZ", (1,), (0.0,))) == hash(Gate("RZ", (1,), (-0.0,)))


def test_signed_zeros_get_separate_table_entries():
    """RZ(0.0) and RZ(-0.0) are equal gates with two codes, and each prints as itself."""
    pos, neg = Gate("RZ", (1,), (0.0,)), Gate("RZ", (1,), (-0.0,))
    c = Circuit(1, 0, (pos, neg, pos, neg))
    assert c.table == (pos, neg) and c.codes == (0, 1, 0, 1)
    assert [repr(g) for g in c.table] == [repr(pos), repr(neg)]
    assert circuit_to_text(c) == "QUBITS 1 ANCILLAS 0\nRZ q1 0\nRZ q1 -0\nRZ q1 0\nRZ q1 -0\n"
    assert circuit_from_text(circuit_to_text(c)).codes == (0, 1, 0, 1)
    assert c == Circuit(1, 0, (pos,) * 4)  # equality goes by the gates


def test_table_make_builds_each_gate_once_and_keeps_zeros_apart():
    t = _Table()
    assert t.make("RZ", (1,), (0.5,)) == t.make("RZ", (1,), (0.5,)) == 0
    assert t.make("RZ", (1,), (0.0,)) == 1 and t.make("RZ", (1,), (-0.0,)) == 2
    assert t.make("RZ", (1,), (0.0,)) == 1
    assert t.code(Gate("RZ", (1,), (0.5,))) == 0
    assert [repr(g.params) for g in t.gates] == ["(0.5,)", "(0.0,)", "(-0.0,)"]


def test_replace_reinterns_its_gates():
    """dataclasses.replace builds the table afresh and still checks every wire."""
    c = _trotter16()
    k = next(i for i, g in enumerate(c.gates) if g.kind == "RZ")
    flipped = replace(c.gates[k], params=(-c.gates[k].params[0],))
    gates = c.gates[:k] + (flipped,) + c.gates[k + 1:]
    d = replace(c, gates=gates)
    assert d.gates == gates and d.table == tuple(dict.fromkeys(gates))
    assert d.codes == tuple(d.table.index(g) for g in gates)
    with pytest.raises(ValueError, match="beyond"):
        replace(c, gates=c.gates + (Gate("H", (c.n_wires + 1,)),))


def test_trotterize_constructor_and_text_build_the_same_circuit():
    """Fresh gate objects and the parsed text intern to trotterize's own table and codes."""
    c = trotterize(encode_binary(build_line(6, eps=(0.3, -0.2, 0.1, 0.5, 0.0, 0.7))), 0.9, TrotterPlan(5))
    fresh = Circuit(c.n_qubits, c.n_ancillas, tuple(Gate(g.kind, g.qubits, g.params, g.polarities) for g in c.gates))
    parsed = circuit_from_text(circuit_to_text(c))
    assert c == fresh == parsed
    assert c.table == fresh.table == parsed.table and len(c.table) < len(c.codes)
    assert c.codes == fresh.codes == parsed.codes


def _brute_force_period(codes: tuple[int, ...]) -> int:
    n = len(codes)
    return next((p for p in range(1, n + 1) if n % p == 0 and all(codes[i] == codes[i % p] for i in range(n))), 0)


def test_period_matches_a_brute_force_search():
    """Random code sequences, periodic ones among them, and ones that repeat a
    code or a prefix without repeating as a whole."""
    gen = np.random.default_rng(8128)
    cases = [(), (0,), (0, 1, 0), (0, 1, 0, 2), (0, 1, 0, 1, 0), (0, 0, 1, 0, 0, 1, 0, 0), (0, 1) * 5 + (0,)]
    for _ in range(400):
        block = tuple(int(k) for k in gen.integers(0, int(gen.integers(1, 4)), int(gen.integers(1, 7))))
        codes = block * int(gen.integers(1, 6))
        if gen.random() < 0.5 and codes:
            i = int(gen.integers(len(codes)))
            codes = codes[:i] + (int(gen.integers(0, 3)),) + codes[i + 1:]
        cases.append(codes)
    for codes in cases:
        assert _period(codes) == _brute_force_period(codes), codes


@pytest.mark.parametrize(
    "args, message",
    [
        (("CZ", (1, 2)), "unknown gate kind 'CZ'"),
        (("CNOT", (1, 2, 3)), "CNOT acts on 2 wires"),
        (("MCX", (1,)), "MCX needs at least one control and a target"),
        (("MCX", (1, 2, 3), (), (1,)), "one polarity bit per control is required"),
        (("MCX", (1, 1), (), (2,)), "polarities must be 0 or 1"),
        (("CNOT", (1, 2), (), (1,)), "CNOT takes no polarities"),
        (("RX", (1,)), "RX takes 1 parameter(s)"),
        (("CNOT", (0, 0), (1.0,)), "CNOT takes 0 parameter(s)"),
        (("CNOT", (1, 1)), "gate wires must be distinct"),
        (("CRK", (1, 1), (2.5,)), "gate wires must be distinct"),
        (("RX", (0,), (0.1,)), "wire indices are 1-based"),
        (("RX", (0,), (math.nan,)), "wire indices are 1-based"),
        (("RX", (1,), (math.nan,)), "gate parameters must be finite"),
        (("RX", (1,), (math.inf,)), "gate parameters must be finite"),
        (("RZ", (1,), (-math.inf,)), "gate parameters must be finite"),
        (("CRK", (1, 2), (0,)), "CRK order k must be a positive integer"),
        (("CRK", (1, 2), (2.5,)), "CRK order k must be a positive integer"),
    ],
)
def test_gate_refusals_keep_their_order_and_messages(args, message):
    """Each bad gate is refused by the first check it fails, in the order
    kind, wires and polarities, parameter count, distinct wires, 1-based
    wires, finite parameters, CRK order."""
    with pytest.raises(ValueError, match=re.escape(message)):
        Gate(*args)


def test_gate_record_behaviour():
    """Keywords, field conversion, replace (which checks again), repr,
    equality and hashing, and pickling of a checked gate."""
    g = Gate(kind="MCRX", qubits=[3, 1, 2], params=[np.float64(0.25)], polarities=(True, 0))
    assert (g.qubits, g.params, g.polarities) == ((3, 1, 2), (0.25,), (1, 0))
    assert type(g.params[0]) is float and type(g.polarities[0]) is int
    assert repr(g) == "Gate(kind='MCRX', qubits=(3, 1, 2), params=(0.25,), polarities=(1, 0))"
    moved = replace(g, qubits=(4, 1, 2))
    assert moved == Gate("MCRX", (4, 1, 2), (0.25,), (1, 0)) and moved != g
    assert hash(moved) == hash(Gate("MCRX", (4, 1, 2), (0.25,), (1, 0)))
    with pytest.raises(ValueError, match="1-based"):
        replace(g, qubits=(0, 1, 2))
    with pytest.raises(FrozenInstanceError):
        g.kind = "MCX"
    back = pickle.loads(pickle.dumps(moved))
    assert back == moved and hash(back) == hash(moved) and repr(back) == repr(moved)
    assert Gate._unchecked("RX", (1,), (0.3,)) == Gate("RX", (1,), (0.3,))
    assert hash(Gate._unchecked("RX", (1,), (0.3,))) == hash(Gate("RX", (1,), (0.3,)))


@pytest.mark.parametrize(
    "args, message",
    [
        (("CNOT", (1.9, 2.2)), "wire indices must be integers"),
        (("CNOT", (1.0, 2)), "wire indices must be integers"),
        (("CNOT", (True, 2)), "wire indices must be integers"),
        (("RX", (np.bool_(True),), (0.1,)), "wire indices must be integers"),
        (("MCX", (1, 2, 3), (), (True, 1.0)), "polarities must be 0 or 1"),
        (("MCX", (1, 2), (), (0.5,)), "polarities must be 0 or 1"),
    ],
)
def test_gate_refuses_non_integer_wires_and_polarities(args, message):
    """Floats were truncated (wires (1.9, 2.2) became (1, 2), polarity 0.5
    became 0) and boolean wires read as 1."""
    with pytest.raises(ValueError, match=message):
        Gate(*args)


def test_gate_takes_numpy_integers_and_boolean_polarities():
    g = Gate("MCX", (np.int64(3), np.uint8(1), 2), (), (np.True_, np.int32(0)))
    assert g == Gate("MCX", (3, 1, 2), (), (1, 0))
    assert all(type(v) is int for v in g.qubits + g.polarities)


@pytest.mark.parametrize("param", ["0.5", True, np.bool_(True), 1j])
def test_gate_refuses_parameters_that_are_not_real_numbers(param):
    """A string, a boolean or a complex is not an angle: it is refused, not
    coerced with float()."""
    with pytest.raises(ValueError, match="gate parameters must be real numbers"):
        Gate("RX", (1,), (param,))


def test_gate_refuses_an_integer_parameter_beyond_the_float_range():
    """An int too large for a float is refused with ValueError, not OverflowError."""
    with pytest.raises(ValueError, match="gate parameters must be real numbers within the float range"):
        Gate("RX", (1,), (10**400,))


def test_gate_takes_integer_and_numpy_real_parameters():
    """Ints and numpy reals are stored as plain floats."""
    for param in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        g = Gate("RX", (1,), (param,))
        assert g.params == (2.0,) and type(g.params[0]) is float
    assert Gate("CRK", (1, 2), (3,)) == Gate("CRK", (1, 2), (3.0,))
