"""Single- and few-qubit gate decompositions against their defining matrices."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    ancilla_ground_block,
    decompose_cnot,
    decompose_controlled_rk,
    decompose_controlled_rx,
    decompose_cphase,
    decompose_swap,
    decompose_toffoli,
    euler_decompose,
    expand_multicontrol,
    unitary,
)

rng = np.random.default_rng(60221)

_CNOT = np.eye(4)[[0, 1, 3, 2]]


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _random_unitary(dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reconstruct(alpha: float, theta: float, gamma: float, xi: float) -> np.ndarray:
    return np.exp(1j * alpha) * _rz(theta) @ _rx(gamma) @ _rz(xi)


def _leak(u: np.ndarray, n_ancillas: int) -> float:
    """Largest amplitude escaping the ancillas-down sector."""
    if n_ancillas == 0:
        return 0.0
    step = 1 << n_ancillas
    ground = np.arange(0, u.shape[0], step)
    outside = np.ones(u.shape[0], dtype=bool)
    outside[ground] = False
    return float(np.abs(u[np.ix_(outside, ground)]).max())


def test_euler_identity_and_x_rotation():
    """Plain rotations come back with zero frame angles."""
    np.testing.assert_allclose(euler_decompose(np.eye(2)), (0.0, 0.0, 0.0, 0.0), atol=1e-12)
    np.testing.assert_allclose(euler_decompose(_rx(0.3)), (0.0, 0.0, 0.3, 0.0), atol=1e-12)


def test_euler_hadamard():
    """The Hadamard splits into quarter-turn frames around a quarter X turn."""
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    want = (math.pi / 2, -math.pi / 2, math.pi / 2, -math.pi / 2)
    np.testing.assert_allclose(euler_decompose(h), want, atol=1e-12)


def test_euler_diagonal_and_antidiagonal():
    """Both degenerate branches reconstruct exactly."""
    for u in (
        np.diag([np.exp(0.3j), np.exp(-0.7j)]),
        np.array([[0.0, np.exp(0.2j)], [np.exp(1.1j), 0.0]]),
    ):
        np.testing.assert_allclose(_reconstruct(*euler_decompose(u)), u, atol=1e-12)


def test_euler_wrapped_z_angle():
    """Angles beyond pi wrap into range without losing the reconstruction."""
    u = _rz(3.5)
    alpha, theta, gamma, xi = euler_decompose(u)
    assert -math.pi < theta <= math.pi
    assert -math.pi < xi <= math.pi
    np.testing.assert_allclose(_reconstruct(alpha, theta, gamma, xi), u, atol=1e-12)


def test_euler_random_reconstruction():
    """200 random unitaries reconstruct entrywise with in-range angles."""
    worst = 0.0
    for _ in range(200):
        u = _random_unitary(2)
        alpha, theta, gamma, xi = euler_decompose(u)
        assert -math.pi < theta <= math.pi
        assert -math.pi < xi <= math.pi
        assert 0.0 <= gamma < 2.0 * math.pi
        worst = max(worst, float(np.abs(_reconstruct(alpha, theta, gamma, xi) - u).max()))
    assert worst < 1e-10


def test_euler_rejects_bad_input():
    """Shape and unitarity are both checked."""
    with pytest.raises(ValueError, match="2x2"):
        euler_decompose(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        euler_decompose(np.ones((2, 2)))


def test_decompose_cnot_exact():
    """The CNOT build matches the permutation matrix entrywise."""
    c = decompose_cnot()
    assert c.n_ancillas == 0
    np.testing.assert_allclose(unitary(c), _CNOT, atol=1e-12)


def test_decompose_cnot_uses_fundamental_kinds():
    """CNOT lowers straight to the native interaction set."""
    kinds = {g.kind for g in decompose_cnot().gates}
    assert kinds <= {"RX", "RZ", "XX", "GPHASE"}


def test_decompose_swap_exact():
    """SWAP matches its permutation matrix entrywise."""
    want = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(unitary(decompose_swap()), want, atol=1e-12)


def test_decompose_toffoli_exact():
    """Toffoli matches its permutation matrix entrywise, with no ancilla."""
    c = decompose_toffoli()
    assert c.n_ancillas == 0
    want = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]
    np.testing.assert_allclose(unitary(c), want, atol=1e-12)


@pytest.mark.parametrize("phi", [0.7, 2.3, -1.1, math.pi])
def test_decompose_cphase_exact(phi):
    """The parametric controlled phase is exact for any angle."""
    want = np.diag([1, 1, 1, np.exp(1j * phi)])
    np.testing.assert_allclose(unitary(decompose_cphase(phi)), want, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_decompose_controlled_rk_exact(k):
    """Controlled phase-ladder gates hit the 2 pi / 2^k phase entrywise."""
    want = np.diag([1, 1, 1, np.exp(2j * np.pi / 2**k)])
    np.testing.assert_allclose(unitary(decompose_controlled_rk(k)), want, atol=1e-12)


def test_decompose_controlled_rk_rejects_bad_order():
    """The phase order k starts at 1."""
    with pytest.raises(ValueError, match="at least 1"):
        decompose_controlled_rk(0)


@pytest.mark.parametrize("eps", [0.1, 0.9, -1.3])
def test_decompose_controlled_rx_exact(eps):
    """The controlled-RX build applies RX(2 eps) on the up-control block."""
    want = np.eye(4, dtype=complex)
    want[2:, 2:] = _rx(2.0 * eps)
    np.testing.assert_allclose(unitary(decompose_controlled_rx(eps)), want, atol=1e-12)


def test_expand_single_control_x():
    """One up control is already a CNOT."""
    c = expand_multicontrol(Gate("MCX", (1, 2), (), (1,)), 2)
    assert c.n_ancillas == 0
    np.testing.assert_allclose(unitary(c), _CNOT, atol=1e-12)


def test_expand_single_down_control():
    """A down-polarity control conjugates with X on the control wire."""
    c = expand_multicontrol(Gate("MCX", (1, 2), (), (0,)), 2)
    want = np.eye(4)[[1, 0, 2, 3]]
    np.testing.assert_allclose(unitary(c), want, atol=1e-12)


def test_expand_two_controls_is_toffoli():
    """Two up controls expand to a single Toffoli without ancillas."""
    c = expand_multicontrol(Gate("MCX", (1, 2, 3), (), (1, 1)), 3)
    assert c.n_ancillas == 0
    assert [g.kind for g in c.gates] == ["TOFFOLI"]


def test_expand_two_control_rotation_uses_one_ancilla():
    """A doubly controlled rotation lands on one borrowed ancilla wire."""
    theta = 0.77
    g = Gate("MCRX", (1, 2, 3), (theta,), (1, 1))
    c = expand_multicontrol(g, 3)
    assert c.n_ancillas == 1
    got = ancilla_ground_block(unitary(c), 1)
    want = unitary(Circuit(3, 0, (g,)))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert _leak(unitary(c), 1) < 1e-12


@pytest.mark.parametrize("m", [3, 4, 6])
def test_expand_many_controls(m):
    """Ladders over m controls agree with the direct matrix and free m-1 ancillas."""
    g = Gate("MCX", tuple(range(1, m + 2)), (), (1,) * m)
    c = expand_multicontrol(g, m + 1)
    assert c.n_ancillas == m - 1
    full = unitary(c)
    got = ancilla_ground_block(full, c.n_ancillas)
    want = unitary(Circuit(m + 1, 0, (g,)))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert _leak(full, c.n_ancillas) < 1e-12


def test_expand_mixed_polarities():
    """Down controls select the intended block of the expansion."""
    g = Gate("MCX", (1, 2, 3, 4), (), (1, 0, 1))
    c = expand_multicontrol(g, 4)
    got = ancilla_ground_block(unitary(c), c.n_ancillas)
    want = unitary(Circuit(4, 0, (g,)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_expand_rotation_many_controls():
    """Multi-controlled rotations expand exactly as well."""
    theta = -0.43
    g = Gate("MCRX", (1, 2, 3, 4), (theta,), (0, 1, 1))
    c = expand_multicontrol(g, 4)
    got = ancilla_ground_block(unitary(c), c.n_ancillas)
    want = unitary(Circuit(4, 0, (g,)))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert _leak(unitary(c), c.n_ancillas) < 1e-12


def test_expand_rejects_other_kinds():
    """Only multi-controlled gates are expandable."""
    with pytest.raises(ValueError, match="only MCX and MCRX"):
        expand_multicontrol(Gate("CNOT", (1, 2)), 2)


def test_expand_rejects_wire_overflow():
    """The gate must fit inside the declared data register."""
    with pytest.raises(ValueError, match="exceed the data register"):
        expand_multicontrol(Gate("MCX", (1, 2, 3), (), (1, 1)), 2)


def test_fundamental_pulse_validation():
    """Term names, wire counts, and duration sign are all checked."""
    with pytest.raises(ValueError, match="unknown pulse term"):
        FundamentalPulse("zz", (1, 2), 1.0, 0.1)
    with pytest.raises(ValueError, match="acts on 1 qubit"):
        FundamentalPulse("eps", (1, 2), 1.0, 0.1)
    with pytest.raises(ValueError, match="acts on 2 qubit"):
        FundamentalPulse("vperp", (1,), 1.0, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        FundamentalPulse("delta", (1,), 1.0, -0.1)


@pytest.mark.parametrize(
    "term, qubits, match",
    [
        ("eps", (0,), "1-based"),
        ("eps", (-1,), "1-based"),
        ("vperp", (0, 1), "1-based"),
        ("vperp", (1, 1), "distinct"),
    ],
)
def test_fundamental_pulse_rejects_bad_wires(term, qubits, match):
    """Wire 0 and negative wires are refused, not read as the last wire."""
    with pytest.raises(ValueError, match=match):
        FundamentalPulse(term, qubits, 1.0, 0.1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("zz", (1, 2), 1.0, 0.1), "unknown pulse term 'zz'"),
        (("zz", (0, 0), math.nan, -1.0), "unknown pulse term 'zz'"),
        (("eps", (1, 2), 1.0, 0.1), "eps pulse acts on 1 qubit(s)"),
        (("delta", (0, 0), math.nan, -1.0), "delta pulse acts on 1 qubit(s)"),
        (("vperp", (1,), 1.0, 0.1), "vperp pulse acts on 2 qubit(s)"),
        (("eps", (0,), 1.0, 0.1), "pulse wire indices are 1-based"),
        (("vperp", (0, 0), math.nan, -1.0), "pulse wire indices are 1-based"),
        (("vperp", (2, 2), math.nan, -1.0), "pulse wires must be distinct"),
        (("eps", (1,), math.nan, -1.0), "pulse strength must be finite"),
        (("delta", (1,), math.inf, 0.1), "pulse strength must be finite"),
        (("vperp", (1, 2), -math.inf, 0.1), "pulse strength must be finite"),
        (("eps", (1,), 1.0, -0.1), "pulse duration must be nonnegative"),
        (("eps", (1,), 1.0, math.nan), "pulse duration must be nonnegative"),
        (("delta", (1,), 1.0, math.inf), "pulse duration must be nonnegative"),
    ],
)
def test_fundamental_pulse_refusals_keep_their_order_and_messages(args, message):
    """Each bad pulse gets its own message, and a pulse with several faults
    the message of the first check: term, wire count, wire base, distinct
    wires, strength, duration."""
    with pytest.raises(ValueError) as err:
        FundamentalPulse(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("k", [2.5, 0.5, math.inf, math.nan])
def test_decompose_controlled_rk_refuses_what_the_gate_refuses(k):
    """A fractional order was truncated (2.5 gave the CRK(2) build) and an
    infinite one raised OverflowError; the order now passes the CRK gate's own
    check, with its message."""
    with pytest.raises(ValueError) as got:
        decompose_controlled_rk(k)
    with pytest.raises(ValueError) as want:
        Gate("CRK", (1, 2), (k,))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_decompositions_refuse_non_finite_angles(angle):
    """The first gate built from a non-finite angle refuses it."""
    for build in (decompose_cphase, decompose_controlled_rx):
        with pytest.raises(ValueError, match="gate parameters must be finite"):
            build(angle)


def test_one_control_expansions_are_pinned():
    """One-control MCX and MCRX at both polarities expand, through the ladder
    with no ancilla, to their recorded text byte for byte."""
    from walkforge import circuit_to_text

    gates = (
        Gate("MCX", (3, 1), (), (1,)),
        Gate("MCX", (3, 1), (), (0,)),
        Gate("MCRX", (2, 4), (0.3,), (1,)),
        Gate("MCRX", (2, 4), (-1.1,), (0,)),
    )
    text = "".join(circuit_to_text(expand_multicontrol(g, 4)) for g in gates)
    assert hashlib.sha256(text.encode()).hexdigest() == "efed6f2e93a194e8e850461d05fc08175e2b0d2f42e2863e7aa3e4182f2651cd"


@pytest.mark.parametrize("wires", [(1.5,), (True,), (np.bool_(True),), ("1",)])
def test_pulse_refuses_non_integer_wires(wires):
    """A float wire was truncated (1.5 became wire 1)."""
    with pytest.raises(ValueError, match="pulse wire indices must be integers"):
        FundamentalPulse("eps", wires, 1.0, 0.1)


def test_pulse_takes_numpy_integer_wires():
    p = FundamentalPulse("vperp", (np.int64(1), np.int32(2)), 1.0, 0.1)
    assert p.qubits == (1, 2) and all(type(q) is int for q in p.qubits)


@pytest.mark.parametrize("strength, duration", [("0.5", 0.1), (0.5, "0.1"), (True, 0.1), (0.5, True), (1j, 0.1)])
def test_pulse_refuses_fields_that_are_not_real_numbers(strength, duration):
    """A string or a boolean strength or duration is refused with ValueError."""
    with pytest.raises(ValueError, match="pulse strength and duration must be real numbers"):
        FundamentalPulse("eps", (1,), strength, duration)


@pytest.mark.parametrize("strength, duration", [(10**400, 0.1), (0.5, -(10**400))])
def test_pulse_refuses_integer_fields_beyond_the_float_range(strength, duration):
    with pytest.raises(ValueError, match="pulse strength and duration must be real numbers within the float range"):
        FundamentalPulse("eps", (1,), strength, duration)


def test_pulse_takes_integer_and_numpy_real_fields():
    p = FundamentalPulse("eps", (1,), np.float64(0.5), 2)
    assert (p.strength, p.duration) == (0.5, 2)
