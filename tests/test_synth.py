"""Trotterization, Pauli-evolution blocks, circuit lowering, pulses, and QFT."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    PauliHamiltonian,
    PauliString,
    PulseStrengths,
    Schedule,
    TrotterPlan,
    ancilla_ground_block,
    apply,
    basis_state,
    build_cycle,
    build_line,
    build_qft_circuit,
    circuit_to_pulses,
    circuit_to_text,
    encode_binary,
    exact_propagator,
    expand_to_basic,
    gray_labels,
    line_qubit_hamiltonian,
    pulses_from_csv,
    pulses_to_csv,
    qft_reference,
    replay_pulses,
    synth_line_walk_step,
    synth_onsite,
    synth_pauli_evolution,
    time_sliced,
    to_fundamental,
    to_matrix,
    trotterize,
    unitary,
    unitary_distance,
    uniform_strengths,
    walk_matrix,
)
from walkforge import synth
from walkforge.synth import _TEMPLATES, _ordered_terms

rng = np.random.default_rng(1729)

_BASIC_KINDS = {"RX", "RY", "RZ", "H", "X", "APHASE", "CNOT", "XX", "GPHASE"}
_FUNDAMENTAL_KINDS = {"RX", "RZ", "XX", "GPHASE"}

_P_UP = np.diag([0.0, 1.0])
_P_DOWN = np.diag([1.0, 0.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])


def _kron(*mats: np.ndarray) -> np.ndarray:
    out = np.eye(1)
    for m in mats:
        out = np.kron(out, m)
    return out


def _string_propagator(s: PauliString, theta: float) -> np.ndarray:
    h = to_matrix(PauliHamiltonian(s.m_qubits, ((1.0, s),)))
    return exact_propagator(h, theta)


def _block(c: Circuit) -> np.ndarray:
    return ancilla_ground_block(unitary(c), c.n_ancillas)


def test_exact_propagator_zero_time():
    """No time, no motion."""
    h = rng.normal(size=(4, 4))
    h = h + h.T
    np.testing.assert_allclose(exact_propagator(h, 0.0), np.eye(4), atol=1e-13)


def test_exact_propagator_diagonal():
    """Diagonal Hamiltonians exponentiate entrywise to e^{-i e t}."""
    h = np.diag([0.5, -1.0])
    got = exact_propagator(h, 2.0)
    np.testing.assert_allclose(got, np.diag([np.exp(-1j), np.exp(2j)]), atol=1e-13)


def test_exact_propagator_rejects_non_square():
    """Only square matrices exponentiate."""
    with pytest.raises(ValueError, match="square"):
        exact_propagator(np.ones((2, 3)), 1.0)


def test_exact_propagator_rejects_non_hermitian():
    """The generator must be Hermitian."""
    with pytest.raises(ValueError, match="not hermitian"):
        exact_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_exact_propagator_rejects_a_non_finite_time(t):
    """exp(-i h t) at a non-finite t was a NaN matrix; now it is refused."""
    with pytest.raises(ValueError, match="not finite"):
        exact_propagator(np.eye(2), t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_exact_propagator_rejects_non_finite_entries(bad):
    """The Hermitian test was false for NaN, so a NaN generator passed; NaN and inf
    entries, on or off the diagonal, are now refused."""
    for h in (np.diag([bad, 1.0]), np.array([[0.0, bad], [bad, 0.0]])):
        with pytest.raises(ValueError, match="must be finite"):
            exact_propagator(h, 1.0)


def test_trotter_plan_validation():
    """Step counts start at one; orderings are named."""
    with pytest.raises(ValueError, match="at least 1"):
        TrotterPlan(0)
    with pytest.raises(ValueError, match="unknown term ordering"):
        TrotterPlan(4, ordering="random")


def test_schedule_validation():
    """Schedules need segments with positive durations."""
    with pytest.raises(ValueError, match="no segments"):
        Schedule(())
    h = PauliHamiltonian(1, ((1.0, PauliString(1, "Z")),))
    with pytest.raises(ValueError, match="must be positive"):
        Schedule(((0.0, h),))


def test_trotterize_commuting_terms_exact():
    """Mutually commuting Z terms synthesize the exact propagator in one step."""
    h = PauliHamiltonian(
        2,
        (
            (0.3, PauliString(2, "ZI")),
            (0.7, PauliString(2, "IZ")),
            (0.2, PauliString(2, "ZZ")),
        ),
    )
    c = trotterize(h, 1.3, TrotterPlan(1))
    assert c.n_ancillas == 1
    np.testing.assert_allclose(_block(c), exact_propagator(to_matrix(h), 1.3), atol=1e-12)


def test_trotterize_xx_terms_need_no_ancilla():
    """Bare XX couplings synthesize as native pulses."""
    h = PauliHamiltonian(2, ((0.4, PauliString(2, "XX")),))
    c = trotterize(h, 0.9, TrotterPlan(2))
    assert c.n_ancillas == 0
    np.testing.assert_allclose(unitary(c), exact_propagator(to_matrix(h), 0.9), atol=1e-12)


def test_trotterize_error_halves_with_steps():
    """First-order splitting error scales inversely with the step count."""
    h = PauliHamiltonian(1, ((1.0, PauliString(1, "X")), (1.0, PauliString(1, "Z"))))
    exact = exact_propagator(to_matrix(h), 1.0)
    errs = []
    for n_steps in (4, 8, 16):
        c = trotterize(h, 1.0, TrotterPlan(n_steps))
        errs.append(unitary_distance(_block(c), exact))
    assert 0.4 < errs[1] / errs[0] < 0.6
    assert 0.4 < errs[2] / errs[1] < 0.6


def test_trotterize_triangle_walk_fidelity():
    """64 steps of the encoded triangle reach the exact walk to high fidelity."""
    g = build_cycle(3)
    h = encode_binary(g)
    n_steps, t = 64, 0.5
    c = trotterize(h, t / n_steps, TrotterPlan(1))
    step = _block(c)
    u = np.linalg.matrix_power(step, n_steps)
    exact = exact_propagator(walk_matrix(g), t)
    fid = abs(np.vdot(exact[:, 0], u[:3, 0])) ** 2
    assert 0.99999 < fid <= 1.0 + 1e-12


def test_trotterize_diagonal_first_ordering():
    """diagonal-first runs Z-only terms before the rest; given keeps storage order."""
    h = PauliHamiltonian(
        2, ((0.5, PauliString(2, "XI")), (0.25, PauliString(2, "ZI")))
    )
    first = trotterize(h, 1.0, TrotterPlan(1)).gates[0]
    assert first.kind == "RZ"
    stored = trotterize(h, 1.0, TrotterPlan(1, ordering="given")).gates[0]
    assert stored.kind == "RX"


def test_diagonal_first_order_matches_the_letter_sort():
    """The mask-based order equals the documented one on letters: Z/I-only
    strings first, then by support, then by letters."""
    local = np.random.default_rng(4242)
    for _ in range(30):
        m = int(local.integers(1, 6))
        terms = tuple(
            (float(local.normal()), PauliString(m, "".join(local.choice(list("IXYZ"), m))))
            for _ in range(int(local.integers(1, 40)))
        )
        h = PauliHamiltonian(m, terms)
        want = sorted(h.terms, key=lambda t: (not set(t[1].letters) <= {"I", "Z"}, t[1].support, t[1].letters))
        assert [s for _, s in _ordered_terms(h, "diagonal-first")] == [s for _, s in want]


@pytest.mark.parametrize(
    "plan, digest",
    [
        (TrotterPlan(4), "1936d9e7dd1bd21bc61b05e7e2f2288cc7c34d3e10bac285064e2ac56da5bb3d"),
        (TrotterPlan(2, "given"), "bb05b5f6bc9a0321b943b7d88b3786a6ce490598474b716ed33629427cdbfdf8"),
    ],
)
def test_cycle16_trotter_circuit_text_is_pinned(plan, digest):
    """The weighted cycle(16) Trotter circuit text, term order and gates
    included, matches its recorded sha256 byte for byte."""
    h = encode_binary(build_cycle(16, 0.8, [0.1 * k for k in range(16)]))
    text = circuit_to_text(trotterize(h, 0.9, plan))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_trotterize_rejects_complex_coefficients():
    """Non-real terms have no Hermitian exponential."""
    h = PauliHamiltonian(1, ((0.5j, PauliString(1, "X")),))
    with pytest.raises(ValueError, match="complex coefficient"):
        trotterize(h, 1.0, TrotterPlan(1))


def test_time_sliced_single_segment_matches_trotterize():
    """One segment reduces to a plain trotterization."""
    h = PauliHamiltonian(1, ((0.8, PauliString(1, "X")),))
    sched = Schedule(((0.7, h),))
    assert time_sliced(sched, TrotterPlan(3)) == trotterize(h, 0.7, TrotterPlan(3))


def test_time_sliced_piecewise_constant_exact():
    """Commuting segments compose into the product of exact propagators."""
    h1 = PauliHamiltonian(1, ((0.6, PauliString(1, "Z")),))
    h2 = PauliHamiltonian(1, ((-0.9, PauliString(1, "Z")),))
    sched = Schedule(((0.5, h1), (1.5, h2)))
    c = time_sliced(sched, TrotterPlan(1))
    want = exact_propagator(to_matrix(h2), 1.5) @ exact_propagator(to_matrix(h1), 0.5)
    np.testing.assert_allclose(_block(c), want, atol=1e-12)


def test_time_sliced_accepts_walk_graph_segments():
    """A WalkGraph segment is binary encoded before splitting."""
    g = build_line(2)
    sched = Schedule(((0.4, g),))
    c = time_sliced(sched, TrotterPlan(8))
    want = exact_propagator(walk_matrix(g), 0.4)
    assert unitary_distance(_block(c), want) < 1e-2


def test_time_sliced_equals_its_segments_joined_by_hand():
    """Three segments, one of them needing no ancilla: the same gates and the
    same circuit text as the three Trotter circuits concatenated."""
    z_only = PauliHamiltonian(2, ((0.4, PauliString(2, "ZI")), (-0.3, PauliString(2, "IZ"))))
    segments = ((0.3, encode_binary(build_line(4))), (0.5, z_only), (0.2, build_cycle(4)))
    plans = (TrotterPlan(3), TrotterPlan(2), TrotterPlan(4))
    got = time_sliced(Schedule(segments), plans)
    pieces = [trotterize(h if isinstance(h, PauliHamiltonian) else encode_binary(h), d, p)
              for (d, h), p in zip(segments, plans)]
    assert [p.n_ancillas for p in pieces] == [1, 0, 0]
    joined = Circuit(2, 1, tuple(g for p in pieces for g in p.gates))
    assert got.gates == joined.gates and got.table == joined.table
    assert circuit_to_text(got) == circuit_to_text(joined)


def test_time_sliced_rejects_plan_mismatch():
    """Per-segment plans must cover every segment."""
    h = PauliHamiltonian(1, ((1.0, PauliString(1, "Z")),))
    sched = Schedule(((1.0, h), (1.0, h)))
    with pytest.raises(ValueError, match="one plan per segment"):
        time_sliced(sched, (TrotterPlan(1),))


def test_synth_onsite_phases_one_node():
    """The block is the identity with e^{-i eps} at the labeled index."""
    eps = 0.83
    c = synth_onsite("110", eps)
    want = np.eye(8, dtype=complex)
    want[6, 6] = np.exp(-1j * eps)
    np.testing.assert_allclose(_block(c), want, atol=1e-12)


def test_synth_onsite_rejects_bad_label():
    """Only nonempty 0/1 labels address a node."""
    with pytest.raises(ValueError, match="nonempty bit string"):
        synth_onsite("", 1.0)
    with pytest.raises(ValueError, match="nonempty bit string"):
        synth_onsite("012", 1.0)


def test_pauli_evolution_all_z():
    """A ZZZ rotation through the parity ladder is exact."""
    s = PauliString(3, "ZZZ")
    theta = 0.45
    c = synth_pauli_evolution(s, theta)
    np.testing.assert_allclose(_block(c), _string_propagator(s, theta), atol=1e-12)


def test_pauli_evolution_mixed_letters():
    """Basis changes handle X and Y letters exactly."""
    s = PauliString(3, "XYX")
    theta = -0.58
    c = synth_pauli_evolution(s, theta)
    np.testing.assert_allclose(_block(c), _string_propagator(s, theta), atol=1e-12)


def test_pauli_evolution_projector_controls():
    """Projector dressing applies the rotation only on the selected pattern."""
    theta = 0.37
    s = PauliString(6, "IIIXYX")
    c = synth_pauli_evolution(s, theta, controls=((1, 1), (2, 0), (3, 1)))
    h_eff = _kron(_P_UP, _P_DOWN, _P_UP, _X, _Y, _X)
    want = exact_propagator(h_eff, theta)
    np.testing.assert_allclose(_block(c), want, atol=1e-12)


def test_pauli_evolution_leaves_ancilla_grounded():
    """No amplitude escapes the ancilla-down sector."""
    c = synth_pauli_evolution(PauliString(2, "ZY"), 0.6)
    u = unitary(c)
    ground = np.arange(0, u.shape[0], 2)
    outside = np.ones(u.shape[0], dtype=bool)
    outside[ground] = False
    assert np.abs(u[np.ix_(outside, ground)]).max() < 1e-12


def test_pauli_evolution_validation():
    """Phases, empty support, and control overlap are rejected."""
    with pytest.raises(ValueError, match="no phase factor"):
        synth_pauli_evolution(PauliString(1, "X", 1j), 0.1)
    with pytest.raises(ValueError, match="empty support"):
        synth_pauli_evolution(PauliString(2, "II"), 0.1)
    with pytest.raises(ValueError, match="disjoint from the string support"):
        synth_pauli_evolution(PauliString(2, "XI"), 0.1, controls=((1, 1),))
    with pytest.raises(ValueError, match="controls out of range"):
        synth_pauli_evolution(PauliString(2, "XI"), 0.1, controls=((3, 1),))


def test_line_walk_step_single_qubit():
    """The 2-node line step is one bare X rotation."""
    c = synth_line_walk_step(1, 0.25)
    assert c.gates == (Gate("RX", (1,), (-0.5,)),)


def test_line_walk_step_expand_matches_compact():
    """The expanded cascade equals the multi-controlled form exactly."""
    eps = 0.11
    compact = synth_line_walk_step(3, eps, expand=False)
    expanded = synth_line_walk_step(3, eps, expand=True)
    np.testing.assert_allclose(
        _block(expanded), ancilla_ground_block(unitary(compact), compact.n_ancillas), atol=1e-13
    )


def test_line_walk_step_first_order_convergence():
    """Repeated steps approach the exact 8-node line propagator at rate 1/N."""
    h = to_matrix(line_qubit_hamiltonian(3))
    exact = exact_propagator(h, 1.0)
    errs = {}
    for n_steps in (16, 32):
        c = synth_line_walk_step(3, 1.0 / n_steps)
        u = np.linalg.matrix_power(_block(c), n_steps)
        errs[n_steps] = unitary_distance(u, exact)
    assert 0.4 < errs[32] / errs[16] < 0.7


def test_cycle_walk_step_converges_to_ring():
    """The cycle variant converges to the 8-node ring propagator."""
    labels = gray_labels(3)
    g = build_cycle(8)
    h = to_matrix(encode_binary(g, labels))
    exact = exact_propagator(h, 1.0)
    n_steps = 64
    c = synth_line_walk_step(3, 1.0 / n_steps, cycle=True)
    u = np.linalg.matrix_power(_block(c), n_steps)
    assert unitary_distance(u, exact) < 0.01


def test_line_walk_step_validation():
    """Qubit counts are checked for both line and cycle."""
    with pytest.raises(ValueError, match="at least one qubit"):
        synth_line_walk_step(0, 0.1)
    with pytest.raises(ValueError, match="cycle needs at least two"):
        synth_line_walk_step(1, 0.1, cycle=True)


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "dfcc0ab92183fd6bb016318417af8169259830af3eb495a622920ec15cd36adb"),
        (2, "617a909e1799acfe72390996f3660b0ab02f32e1a7cbc304f4f8b4f0721c2e3e"),
        (3, "6f0381368cf9528fec1747c447494cdbfa08b8c5470ff75418f08ed2718a8988"),
        (4, "7e03b73e6df0a9d5a2ab0a8317dff5370472a56bd3f69f3029eba2fbf02ccb7f"),
        (5, "6095a5c1cf6b5f797d3d30030967d6a9b11c3c19a2d6950ef5005382db441e78"),
        (6, "912418c57b62f9a1c43c92330656952c754c57523933cb0554a70ad7be10b51e"),
    ],
)
def test_expanded_line_step_text_is_pinned(n, digest):
    """The expanded line and cycle steps, zero angles of both signs included,
    match their recorded sha256 byte for byte."""
    cycles = (False, True) if n >= 2 else (False,)
    text = "".join(
        circuit_to_text(synth_line_walk_step(n, eps, cycle=cycle, expand=True))
        for cycle in cycles
        for eps in (0.1, 0.0, -0.0)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_expand_to_basic_kinds_and_block():
    """Lowering to one- and two-qubit gates preserves the data block."""
    c = synth_line_walk_step(3, 0.2, expand=False)
    low = expand_to_basic(c)
    assert {g.kind for g in low.gates} <= _BASIC_KINDS
    np.testing.assert_allclose(
        _block(low), ancilla_ground_block(unitary(c), c.n_ancillas), atol=1e-12
    )


def test_to_fundamental_kinds_and_block():
    """Lowering to the native set preserves the data block."""
    c = Circuit(
        2,
        0,
        (
            Gate("H", (1,)),
            Gate("CNOT", (1, 2)),
            Gate("RY", (2,), (0.3,)),
            Gate("APHASE", (1,), (0.7,)),
            Gate("X", (2,)),
        ),
    )
    low = to_fundamental(c)
    assert {g.kind for g in low.gates} <= _FUNDAMENTAL_KINDS
    np.testing.assert_allclose(unitary(low), unitary(c), atol=1e-12)


def test_to_fundamental_handles_swap_and_toffoli():
    """Composite permutation gates lower exactly through their decompositions."""
    c = Circuit(3, 0, (Gate("TOFFOLI", (1, 2, 3)), Gate("SWAP", (2, 3))))
    low = to_fundamental(c)
    assert {g.kind for g in low.gates} <= _FUNDAMENTAL_KINDS
    np.testing.assert_allclose(unitary(low), unitary(c), atol=1e-12)


@pytest.mark.parametrize("lower, kinds", [(expand_to_basic, _BASIC_KINDS), (to_fundamental, _FUNDAMENTAL_KINDS)])
@pytest.mark.parametrize(
    "gate",
    [
        Gate("CPHASE", (3, 1), (0.83,)),
        Gate("CRK", (2, 3), (3.0,)),
        Gate("CRX", (3, 2), (-1.3,)),
        Gate("MCX", (1, 3, 4, 2), (), (0, 1, 0)),
        Gate("MCRX", (4, 2, 1, 3), (0.61,), (1, 0, 1)),
        Gate("MCRX", (2, 4), (-0.4,), (0,)),
    ],
)
def test_lowering_controlled_gates(lower, kinds, gate):
    """Controlled phases and rotations lower exactly, ancillas returned to ground."""
    c = Circuit(4, 0, (gate,))
    low = lower(c)
    assert {g.kind for g in low.gates} <= kinds
    assert low.n_qubits == 4 and low.n_ancillas == max(0, len(gate.qubits) - 2)
    np.testing.assert_allclose(_block(low), unitary(c), atol=1e-12)


def test_pulse_x_rotation_duration():
    """RX(pi) maps to one negative-wrapped pulse of duration pi/2 at unit strength."""
    c = Circuit(1, 0, (Gate("RX", (1,), (math.pi,)),))
    pulses = circuit_to_pulses(c, uniform_strengths(1))
    assert len(pulses) == 1
    assert pulses[0].term == "delta"
    np.testing.assert_allclose(pulses[0].duration, math.pi / 2, atol=1e-14)


def test_pulse_z_rotation_duration():
    """Negative RZ angles wrap by 2 pi to keep durations positive."""
    c = Circuit(1, 0, (Gate("RZ", (1,), (-math.pi / 2,)),))
    pulses = circuit_to_pulses(c, uniform_strengths(1))
    assert len(pulses) == 1
    assert pulses[0].term == "eps"
    np.testing.assert_allclose(pulses[0].duration, 3 * math.pi / 4, atol=1e-14)


@pytest.mark.parametrize(
    "fields, match",
    [
        ((["1"], ["1"], [["0"]]), "eps must hold real numbers"),
        (([True], [1.0], [[0.0]]), "eps must hold real numbers"),
        (([1.0], [1.0, False], [[0.0]]), "delta must hold real numbers"),
        (([1.0], [1.0], [[1j]]), "vperp must hold real numbers"),
        (([math.nan], [1.0], [[0.0]]), "eps must be finite"),
        (([1.0], [math.inf], [[0.0]]), "delta must be finite"),
        (([1.0, 1.0], [1.0, 1.0], [[0.0, math.nan], [math.nan, 0.0]]), "vperp must be finite"),
        (([1.0], [1.0], [[10**400]]), "vperp holds a number beyond the float range"),
    ],
)
def test_pulse_strengths_refuse_what_is_not_a_finite_real(fields, match):
    """Strings, booleans and complex values are refused, not coerced, and so
    are non-finite strengths; a NaN pair is no longer read as symmetric."""
    with pytest.raises(ValueError, match=match):
        PulseStrengths(*fields)


def test_pulse_strengths_take_numpy_float_arrays_and_integer_lists():
    eps, delta, vperp = np.array([0.5, 2.0]), np.array([1.0, 1.5]), np.array([[0.0, 0.75], [0.75, 0.0]])
    s = PulseStrengths(eps, delta, vperp)
    assert all(np.array_equal(a, b) and a.dtype == float for a, b in ((s.eps, eps), (s.delta, delta), (s.vperp, vperp)))
    s = PulseStrengths([1, 2], [3, 4], [[0, 1], [1, 0]])
    assert s.eps.dtype == float and s.vperp.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "value, match",
    [
        ("1.5", "strength must be a real number"),
        (True, "strength must be a real number"),
        (math.nan, "eps must be finite"),
        (10**400, "strength must be a real number within the float range"),
    ],
    ids=["string", "boolean", "nan", "huge-int"],
)
def test_uniform_strengths_refuse_what_is_not_a_finite_real(value, match):
    with pytest.raises(ValueError, match=match):
        uniform_strengths(2, value)


@pytest.mark.parametrize(
    "kind, angle", [("RX", 7.0), ("RZ", -7.0), ("XX", -7.0), ("RX", 40.0), ("RZ", 1e6)]
)
def test_pulse_angles_reduce_modulo_two_pi(kind, angle):
    """Angles needing more than one 2 pi shift compile to nonnegative durations
    that replay to the gate up to phase. Reducing modulo the float 2 pi is off
    by (number of wraps) * (2 pi - fl(2 pi)), about 2e-11 for 1e6 but below the
    angle's own resolution, so the bound grows to one ulp of the angle."""
    gate = Gate(kind, (1, 2) if kind == "XX" else (2,), (angle,))
    c = Circuit(2, 0, (gate,))
    strengths = uniform_strengths(2, 0.7)
    pulses = circuit_to_pulses(c, strengths)
    assert len(pulses) == 1 and pulses[0].duration >= 0.0
    assert pulses[0].strength * pulses[0].duration < 2.0 * math.pi
    tol = max(1e-12, float(np.spacing(angle)))
    assert unitary_distance(replay_pulses(pulses, 2), unitary(c)) <= tol


@pytest.mark.parametrize("kind, angle", [("RZ", 1e6), ("RX", -1e6), ("XX", 1e5)])
def test_large_angles_replay_to_rounding(kind, angle):
    """Beyond one turn the turns come off against a two-part 2 pi, so even
    150,000 of them leave the replay within 1e-12 of the gate."""
    gate = Gate(kind, (1, 2) if kind == "XX" else (2,), (angle,))
    c = Circuit(2, 0, (gate,))
    pulses = circuit_to_pulses(c, uniform_strengths(2, 0.7))
    assert len(pulses) == 1 and 0.0 <= pulses[0].duration
    assert unitary_distance(replay_pulses(pulses, 2), unitary(c)) <= 1e-12


def test_durations_within_one_turn_reduce_modulo_the_float_two_pi():
    """Inside (-2 pi, 2 pi) a duration is (sign * angle mod fl(2 pi)) / (divisor * strength), bit for bit."""
    angles = [0.3, -0.3, 6.28, -6.28, math.nextafter(2 * math.pi, 0.0), -math.nextafter(2 * math.pi, 0.0), 1e-300]
    s = uniform_strengths(2, 0.7)
    for a in angles:
        for kind, sign, divisor in (("RX", -1.0, 2.0), ("RZ", 1.0, 2.0), ("XX", 1.0, 1.0)):
            c = Circuit(2, 0, (Gate(kind, (1, 2) if kind == "XX" else (1,), (a,)),))
            (p,) = circuit_to_pulses(c, s)
            assert p.duration == ((sign * a) % (2.0 * math.pi)) / (divisor * 0.7)


def test_pulse_replay_cnot():
    """The pulse schedule of the lowered CNOT replays to CNOT up to phase."""
    from walkforge import decompose_cnot

    c = decompose_cnot()
    pulses = circuit_to_pulses(c, uniform_strengths(2))
    assert len(pulses) == 7
    assert all(p.duration >= 0.0 for p in pulses)
    rep = replay_pulses(pulses, 2)
    assert unitary_distance(rep, np.eye(4)[[0, 1, 3, 2]]) < 1e-12


def test_pulse_skips_zero_angles_and_global_phase():
    """Identity rotations and GPHASE emit no pulses."""
    c = Circuit(1, 0, (Gate("RX", (1,), (0.0,)), Gate("GPHASE", (), (0.3,))))
    assert circuit_to_pulses(c, uniform_strengths(1)) == ()


def test_pulse_rejects_zero_strength():
    """A needed drive with zero strength cannot be scheduled."""
    strengths = uniform_strengths(1)
    strengths = type(strengths)(strengths.eps, np.zeros(1), strengths.vperp)
    c = Circuit(1, 0, (Gate("RX", (1,), (0.5,)),))
    with pytest.raises(ValueError, match="zero strength for needed term"):
        circuit_to_pulses(c, strengths)


def test_pulse_rejects_non_fundamental_gate():
    """Only the native gate set maps to pulses."""
    c = Circuit(2, 0, (Gate("CNOT", (1, 2)),))
    with pytest.raises(ValueError, match="outside the fundamental set"):
        circuit_to_pulses(c, uniform_strengths(2))


def test_pulse_rejects_wrong_strength_size():
    """Strength tables must match the circuit's wire count."""
    c = Circuit(1, 0, (Gate("RX", (1,), (0.5,)),))
    with pytest.raises(ValueError, match="different wire count"):
        circuit_to_pulses(c, uniform_strengths(2))


def test_pulse_csv_round_trip():
    """The CSV form reproduces the pulses and the text bit-exactly."""
    c = to_fundamental(build_qft_circuit(2, "fundamental"))
    pulses = circuit_to_pulses(c, uniform_strengths(2))
    text = pulses_to_csv(pulses)
    assert text.splitlines()[0] == "term,qubits,strength,duration"
    back = pulses_from_csv(text)
    assert back == pulses
    assert pulses_to_csv(back) == text


def test_pulse_csv_rejects_bad_header():
    """The header row is mandatory."""
    with pytest.raises(ValueError, match="header"):
        pulses_from_csv("kind,qubits,strength,duration\n")


def test_pulse_csv_skips_blank_rows():
    """A blank line between pulses is no pulse: the schedule is the one without it."""
    rows = ["eps,1,0.5,0.25", "vperp,1 2,1,0.125"]
    want = (FundamentalPulse("eps", (1,), 0.5, 0.25), FundamentalPulse("vperp", (1, 2), 1.0, 0.125))
    head = "term,qubits,strength,duration\n"
    assert pulses_from_csv(head + "\n".join(rows) + "\n") == want
    assert pulses_from_csv(head + "\n" + rows[0] + "\n\n" + rows[1] + "\n\n") == want


def test_pulse_csv_refuses_a_three_field_row():
    with pytest.raises(ValueError, match="pulse rows need exactly four fields"):
        pulses_from_csv("term,qubits,strength,duration\neps,1,0.5\n")


@pytest.mark.parametrize(
    "rows, match",
    [
        ("eps,0,1,1", "1-based"),
        ("eps,-1,1,1", "1-based"),
        ("vperp,1 1,1,1", "distinct"),
        ("eps,1\r2,1,1", "malformed pulse csv"),
    ],
)
def test_pulse_csv_rejects_bad_wires(rows, match):
    """Bad wire fields and unreadable rows are refused as ValueError."""
    with pytest.raises(ValueError, match=match):
        pulses_from_csv(f"term,qubits,strength,duration\n{rows}\n")


def test_replay_rejects_wire_beyond_register():
    """A pulse on a wire past n_wires is refused, not an IndexError."""
    pulses = pulses_from_csv("term,qubits,strength,duration\neps,5,1,0.5\n")
    with pytest.raises(ValueError, match="beyond the 2 wires"):
        replay_pulses(pulses, 2)


def _eigh_replay(pulses: tuple[FundamentalPulse, ...], n_wires: int) -> np.ndarray:
    """Pulse replay by eigendecomposition of each Kronecker-built pulse Hamiltonian."""
    coeff = {"eps": 1.0, "delta": -1.0, "vperp": -1.0}
    letter = {"eps": np.diag([-1.0, 1.0]), "delta": _X, "vperp": _X}
    u = np.eye(1 << n_wires, dtype=complex)
    for p in pulses:
        h = _kron(*(letter[p.term] if q in p.qubits else np.eye(2) for q in range(1, n_wires + 1)))
        u = exact_propagator(coeff[p.term] * p.strength * h, p.duration) @ u
    return u


@pytest.mark.parametrize("n_wires", [1, 2, 3, 4])
def test_replay_matches_eigh_replay(n_wires):
    """The closed-form replay equals the eigendecomposition replay on random schedules."""
    terms = ["eps", "delta", "vperp"] if n_wires > 1 else ["eps", "delta"]
    for _ in range(25):
        pulses = []
        for _ in range(int(rng.integers(0, 12))):
            term = str(rng.choice(terms))
            wires = rng.choice(np.arange(1, n_wires + 1), size=2 if term == "vperp" else 1, replace=False)
            pulses.append(
                FundamentalPulse(term, tuple(int(q) for q in wires), rng.uniform(-2, 2), rng.uniform(0, 3))
            )
        want = _eigh_replay(tuple(pulses), n_wires)
        assert np.max(np.abs(replay_pulses(tuple(pulses), n_wires) - want)) <= 1e-13


def test_replay_refuses_above_the_dense_cap(monkeypatch):
    """Replay checks the qubit cap before it allocates the identity."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    assert replay_pulses((FundamentalPulse("vperp", (1, 2), 1.0, 0.5),), 2).shape == (4, 4)
    with pytest.raises(ValueError, match="pulse replay needs 3 qubits, above the dense cap of 2"):
        replay_pulses((), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qft_named_gates_matches_reference(n):
    """The named-gate build equals the DFT matrix up to global phase."""
    c = build_qft_circuit(n)
    assert unitary_distance(unitary(c), qft_reference(n)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_qft_fundamental_matches_reference(n):
    """The fully lowered build equals the DFT matrix up to global phase."""
    c = build_qft_circuit(n, "fundamental")
    assert {g.kind for g in c.gates} <= _FUNDAMENTAL_KINDS
    assert unitary_distance(unitary(c), qft_reference(n)) < 1e-12


def test_qft_fundamental_gate_counts_pinned():
    """Lowered gate counts stay at their recorded values."""
    counts = tuple(len(build_qft_circuit(n, "fundamental").gates) for n in range(1, 6))
    assert counts == (4, 38, 70, 132, 192)


def test_qft_uniform_superposition():
    """QFT of the origin is the uniform superposition."""
    out = apply(build_qft_circuit(3), basis_state(8, 0))
    np.testing.assert_allclose(out.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_qft_pulse_replay():
    """The pulse schedule of the lowered QFT replays to the DFT up to phase."""
    c = build_qft_circuit(3, "fundamental")
    pulses = circuit_to_pulses(c, uniform_strengths(3))
    rep = replay_pulses(pulses, 3)
    assert unitary_distance(rep, qft_reference(3)) < 1e-12


def test_qft_validation():
    """Level names and reference sizes are checked."""
    with pytest.raises(ValueError, match="unknown synthesis level"):
        build_qft_circuit(2, "optimized")
    with pytest.raises(ValueError, match="1..12"):
        qft_reference(13)


def _repeating_circuits():
    """Circuits whose gates repeat: a binary cycle(16) Trotter circuit (4 steps,
    one ancilla), the named-gate QFT, and zero angles of both signs, which
    compare equal but lower to differently signed zeros."""
    trotter = trotterize(encode_binary(build_cycle(16)), 0.9, TrotterPlan(4))
    assert trotter.n_ancillas == 1
    yield pytest.param(trotter, id="cycle16-trotter4")
    yield pytest.param(build_qft_circuit(5), id="qft5")
    zeros = tuple(Gate(k, (1,), (z,)) for k in ("RY", "APHASE") for z in (0.0, -0.0))
    yield pytest.param(Circuit(2, 0, zeros * 3), id="signed-zeros")
    pairs = tuple(Gate(k, w, (z,)) for k in ("CPHASE", "CRX") for z in (0.0, -0.0) for w in ((1, 2), (2, 1)))
    yield pytest.param(Circuit(2, 0, pairs * 2), id="signed-zero-templates")


def _one_gate(c: Circuit, g: Gate) -> Circuit:
    return Circuit(c.n_qubits, c.n_ancillas, (g,))


@pytest.mark.parametrize("lower", [expand_to_basic, to_fundamental])
@pytest.mark.parametrize("c", _repeating_circuits())
def test_lowering_equals_the_gate_by_gate_rewrite(c, lower):
    """Lowering each distinct gate once gives the concatenation of the one-gate
    lowerings, down to the sign of every zero angle (compared by repr)."""
    got = lower(c)
    pieces = [lower(_one_gate(c, g)) for g in c.gates]
    want = tuple(h for p in pieces for h in p.gates)
    assert repr(got.gates) == repr(want)
    assert (got.n_qubits, got.n_ancillas) == (c.n_qubits, max(p.n_ancillas for p in pieces))


@pytest.mark.parametrize("c", _repeating_circuits())
def test_pulses_and_csv_equal_the_gate_by_gate_compilation(c):
    f = to_fundamental(c)
    s = uniform_strengths(f.n_wires, 0.7)
    pulses = circuit_to_pulses(f, s)
    assert pulses == tuple(p for g in f.gates for p in circuit_to_pulses(_one_gate(f, g), s))
    header = "term,qubits,strength,duration\n"
    rows = [pulses_to_csv((p,)) for p in pulses]
    assert all(r.startswith(header) for r in rows)
    assert pulses_to_csv(pulses) == header + "".join(r[len(header):] for r in rows)


def test_csv_keeps_signed_zeros_apart():
    """-0.0 == 0.0, yet each prints as itself."""
    pulses = (FundamentalPulse("eps", (1,), 1.0, 0.0), FundamentalPulse("eps", (1,), 1.0, -0.0)) * 2
    assert pulses_to_csv(pulses).splitlines()[1:] == ["eps,1,1,0", "eps,1,1,-0"] * 2


def test_pulse_error_names_the_first_gate_that_needs_a_zero():
    """The only zero strength sits on the term first needed last: the error is
    the one the first such gate raises on its own."""
    f = to_fundamental(trotterize(encode_binary(build_cycle(16)), 0.9, TrotterPlan(4)))
    needs = {}
    for g in f.gates:
        if g.kind != "GPHASE" and g.params[0] != 0.0:
            needs.setdefault((g.kind, g.qubits), g)
    kind, qubits = list(needs)[-1]
    s = uniform_strengths(f.n_wires)
    term = {"RX": s.delta, "RZ": s.eps, "XX": s.vperp}[kind]
    term[tuple(q - 1 for q in qubits)] = 0.0
    if kind == "XX":
        term[tuple(q - 1 for q in reversed(qubits))] = 0.0
    with pytest.raises(ValueError) as alone:
        circuit_to_pulses(_one_gate(f, needs[kind, qubits]), s)
    with pytest.raises(ValueError) as whole:
        circuit_to_pulses(f, s)
    assert str(whole.value) == str(alone.value)
    assert str(whole.value).startswith("zero strength for needed term")


def test_each_distinct_cnot_is_lowered_once(monkeypatch):
    """to_fundamental rewrites a CNOT once per distinct CNOT, not per occurrence."""
    c = trotterize(encode_binary(build_cycle(16)), 0.9, TrotterPlan(4))
    cnots = [g for g in expand_to_basic(c).gates if g.kind == "CNOT"]
    distinct = set(cnots)
    assert len(cnots) > len(distinct) > 0
    calls = []
    placed = synth._placed

    def spy(template, qubits):
        if template is _TEMPLATES["CNOT"]:
            calls.append(Gate("CNOT", qubits))
        return placed(template, qubits)

    monkeypatch.setattr(synth, "_placed", spy)
    to_fundamental(c)
    assert len(calls) == len(distinct) and set(calls) == distinct
    to_fundamental(c)
    assert len(calls) == 2 * len(distinct)  # nothing is kept between calls


def test_a_signed_zero_gets_its_own_template():
    """CPHASE(0) and CPHASE(-0) are equal gates, but their templates differ in the
    sign of the XX and GPHASE angles; the second is not served the first's."""
    c = Circuit(2, 0, (Gate("CPHASE", (1, 2), (0.0,)), Gate("CPHASE", (2, 1), (-0.0,))))
    lines = circuit_to_text(to_fundamental(c)).splitlines()
    assert "XX q1 q2 0" in lines and "GPHASE 0" in lines
    assert "XX q2 q1 -0" in lines and "GPHASE -0" in lines


_LAYOUTS = {1: ((2,), (5,)), 2: ((4, 2), (1, 5)), 3: ((5, 1, 3), (2, 4, 1))}


@pytest.mark.parametrize(
    "kind, n_wires, params, digest",
    [
        ("TOFFOLI", 3, ((),), "d6e9d5ee839a2722ac7dbd23239f53fa8cc093d4372b74e8cab720b06e5938e4"),
        ("SWAP", 2, ((),), "fa55091867b62e9af98ea6501a42fc86a0b595d0fa8ee0b2d3517b04c1cbdbe5"),
        ("CNOT", 2, ((),), "0d7b85acd228f0b73f88fbf288dea086aeeac96d9bc2c292a60b21be4a326ea1"),
        ("H", 1, ((),), "ccca6002001eb509d61128e33e9df6bb6da6c4e0301c14cbb25325e8c9bca870"),
        ("X", 1, ((),), "f126560a98f1ba675df1ec4046395e64f6aaecb917ea191619f18e4dce4ad6ef"),
        ("RY", 1, ((0.0,), (-0.0,), (0.9,)), "d35ea0f43b5ef58d4ccc88570ac01da1f5d0090340010606d87f1f96680db2e0"),
        ("APHASE", 1, ((0.0,), (-0.0,), (0.9,)), "48a6abc218331c6188cc6553d7dba75112d0cb78d0f029060925e16e748fb30e"),
        ("CRX", 2, ((0.0,), (-0.0,), (0.9,)), "7e0cd92766ac624501b23d02e9efd86656096933a4ad596d14b15ddc79899067"),
        ("CRK", 2, ((1.0,), (3.0,)), "e5ca0bfee5ab04bc0f6dbd90338b1c6d5d7fce2b658d70711c2d123c65ee4f1a"),
        ("CPHASE", 2, ((0.0,), (-0.0,), (0.9,)), "a19a7b794b8d1be74baf19dc08b5ae096fd3d4bb23674435a50c3e5c41ed56ce"),
        ("MCX", None, ((),), "636c42c401001454cf86e03f696c2e804a1587c51d68f67154beed60b81633f9"),
        ("MCRX", None, ((0.0,), (-0.0,), (0.9,)), "65a6bb607b8aa9fb6e131de3b94862d71016c9f06198b685334b38777dfebc0a"),
    ],
)
def test_lowered_text_is_pinned(kind, n_wires, params, digest):
    """Both lowerings of every kind with a rewrite, on reversed and non-adjacent
    wires, with zero parameters of both signs in one circuit, match their
    recorded sha256 byte for byte."""
    if n_wires is None:
        placed = [((5, 1, 3), (1, 0)), ((2, 4), (0,))]
    else:
        placed = [(w, ()) for w in _LAYOUTS[n_wires]]
    c = Circuit(5, 0, [Gate(kind, w, p, pols) for p in params for w, pols in placed])
    text = circuit_to_text(expand_to_basic(c)) + circuit_to_text(to_fundamental(c))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_each_template_is_built_once_per_parameter(monkeypatch):
    """The QFT's CRK gates share one template per order k, placed on every pair of
    wires, and nothing is kept between calls."""
    c = build_qft_circuit(5)
    orders = {g.params for g in c.gates if g.kind == "CRK"}
    assert len([g for g in c.gates if g.kind == "CRK"]) > len(orders)
    calls = []
    build = _TEMPLATES["CRK"]
    monkeypatch.setitem(_TEMPLATES, "CRK", lambda k: calls.append(k) or build(k))
    to_fundamental(c)
    assert sorted(calls) == sorted(k for (k,) in orders)
    to_fundamental(c)
    assert len(calls) == 2 * len(orders)


def test_three_segment_time_sliced_text_is_pinned():
    """A schedule of a Pauli segment, a walk-graph segment and an encoded
    segment, one plan each, matches its recorded sha256 byte for byte."""
    h1 = PauliHamiltonian(3, ((0.7, PauliString(3, "XZI")), (-0.4, PauliString(3, "IYY")), (0.2, PauliString(3, "ZII"))))
    h3 = encode_binary(build_line(8, [1.0, 0.5, -0.25, 0.75, 1.5, -1.0, 0.3], 0.2))
    sched = Schedule(((0.5, h1), (0.3, build_cycle(8, 0.6, [0.1 * k for k in range(8)])), (0.8, h3)))
    text = circuit_to_text(time_sliced(sched, (TrotterPlan(2), TrotterPlan(3, "given"), TrotterPlan(1))))
    assert hashlib.sha256(text.encode()).hexdigest() == "d652881b7457a1032d4f35aa795d947c8f05b46c28f243a7740b711459674c45"


def test_time_sliced_compares_register_sizes_before_synthesis():
    """Segments on different registers are refused before any is synthesized,
    so a later segment's size wins over an earlier one's complex coefficient."""
    complex_term = PauliHamiltonian(2, ((0.5j, PauliString(2, "XI")),))
    sched = Schedule(((1.0, complex_term), (1.0, PauliHamiltonian(3, ((1.0, PauliString(3, "XII")),)))))
    with pytest.raises(ValueError, match="different register sizes"):
        time_sliced(sched, TrotterPlan(1))


@pytest.mark.parametrize("steps", [2.7, 2.0, True, "3"])
def test_trotter_plan_refuses_non_integer_step_counts(steps):
    """A float step count was truncated (2.7 ran 2 steps) and True ran one."""
    with pytest.raises(ValueError, match="step count must be an integer"):
        TrotterPlan(steps)


def test_trotter_plan_takes_numpy_integers():
    plan = TrotterPlan(np.int64(3))
    assert plan.n_steps == 3 and type(plan.n_steps) is int


@pytest.mark.parametrize("duration", ["0.5", True, math.nan, math.inf])
def test_schedule_refuses_durations_that_are_not_positive_finite_reals(duration):
    """A string, a boolean, nan or inf is not a segment duration."""
    h = encode_binary(build_line(2))
    with pytest.raises(ValueError, match="segment durations must be"):
        Schedule(((0.5, h), (duration, h)))


def test_schedule_takes_integer_and_numpy_real_durations():
    h = encode_binary(build_line(2))
    sched = Schedule(((1, h), (np.float64(0.5), h)))
    assert [d for d, _ in sched.segments] == [1.0, 0.5]
    assert all(type(d) is float for d, _ in sched.segments)
