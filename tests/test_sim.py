"""State vectors, exact walk evolution, fidelity, and unitary comparison."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from walkforge import (
    StateVector,
    WalkGraph,
    basis_state,
    build_line,
    collapse_defect,
    collapse_to_line,
    evolve_walk,
    exact_propagator,
    build_qft_circuit,
    fidelity,
    qft_reference,
    unitary,
    unitary_distance,
    walk_matrix,
)
from walkforge.sim import _distance_and_phase

rng = np.random.default_rng(16180)


def test_state_vector_rejects_unnormalized():
    """Amplitudes must carry unit norm."""
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_empty():
    """An empty amplitude vector is not a state."""
    with pytest.raises(ValueError, match="nonempty"):
        StateVector(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_vector_rejects_non_finite_amplitudes(bad):
    """A NaN norm passed the old |norm - 1| > tol test; NaN and inf amplitudes now fail."""
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, bad * 1j]))


def test_basis_state_layout():
    """basis_state puts the single amplitude at the requested index."""
    s = basis_state(4, 2)
    np.testing.assert_allclose(s.amps, [0, 0, 1, 0])
    assert s.dim == 4


def test_basis_state_rejects_out_of_range():
    """The index must fit the dimension."""
    with pytest.raises(ValueError, match="out of range"):
        basis_state(2, 2)


def test_evolve_two_node_hop():
    """A unit hop rotates between the two nodes with amplitude i sin(t)."""
    g = build_line(2)
    out = evolve_walk(g, basis_state(2, 0), 1.0)
    np.testing.assert_allclose(out.amps[0], math.cos(1.0), atol=1e-12)
    np.testing.assert_allclose(out.amps[1], 1j * math.sin(1.0), atol=1e-12)


def test_evolve_onsite_phase():
    """A lone node only picks up the phase e^{-i eps t}."""
    g = WalkGraph(1, (), (3.0,))
    out = evolve_walk(g, basis_state(1, 0), 0.5)
    np.testing.assert_allclose(out.amps[0], np.exp(-1.5j), atol=1e-12)


def test_evolve_preserves_norm():
    """Evolution under a random graph is unitary."""
    edges = ((0, 1, 0.3), (1, 2, -1.1), (0, 3, 0.8), (2, 3, 0.5))
    g = WalkGraph(4, edges, tuple(rng.normal(size=4)))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    out = evolve_walk(g, StateVector(amps), 2.7)
    np.testing.assert_allclose(np.linalg.norm(out.amps), 1.0, atol=1e-12)


def test_evolve_rejects_wrong_dimension():
    """The state must live on the graph's node set."""
    with pytest.raises(ValueError, match="node count"):
        evolve_walk(build_line(3), basis_state(2, 0), 1.0)


def test_fidelity_basis_states():
    """Fidelity is 1 on equal states and 0 on orthogonal ones."""
    a, b = basis_state(4, 1), basis_state(4, 2)
    np.testing.assert_allclose(fidelity(a, a), 1.0, atol=1e-15)
    np.testing.assert_allclose(fidelity(a, b), 0.0, atol=1e-15)


def test_fidelity_superposition():
    """An equal superposition overlaps each basis state with probability 1/2."""
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    np.testing.assert_allclose(fidelity(plus, basis_state(2, 0)), 0.5, atol=1e-12)


def test_fidelity_rejects_dimension_mismatch():
    """States must share a dimension."""
    with pytest.raises(ValueError, match="different dimensions"):
        fidelity(basis_state(2, 0), basis_state(4, 0))


def test_unitary_distance_ignores_global_phase():
    """A pure phase between equal unitaries reads as zero distance."""
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    d = unitary_distance(q, np.exp(0.731j) * q)
    assert d < 1e-12


def test_unitary_distance_detects_difference():
    """Distinct unitaries keep a large distance under any phase."""
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert unitary_distance(eye, x) > 0.5


def test_unitary_distance_rejects_non_unitary():
    """Both inputs must be unitary matrices."""
    with pytest.raises(ValueError, match="not unitary"):
        unitary_distance(np.ones((2, 2)), np.eye(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unitary_distance_rejects_non_finite(bad):
    """A NaN or infinite entry fails the unitarity check instead of yielding NaN."""
    u = np.eye(2, dtype=complex)
    u[0, 1] = bad
    with pytest.raises(ValueError, match="first matrix is not unitary"):
        unitary_distance(u, np.eye(2))
    with pytest.raises(ValueError, match="second matrix is not unitary"):
        unitary_distance(np.eye(2), u)


def test_unitary_distance_rejects_shape_mismatch():
    """Inputs must be square matrices of equal shape."""
    with pytest.raises(ValueError, match="equal shape"):
        unitary_distance(np.eye(2), np.eye(4))


def _scan_distance(u, v):
    """The exhaustive phase search unitary_distance used to run: a seed from the
    largest entry of v, a 721-point scan of the circle, then 200 ternary rounds
    within +-0.02 of the better of the two."""

    def dist(phi):
        return float(np.max(np.abs(u - np.exp(1j * phi) * v)))

    i, j = divmod(int(np.argmax(np.abs(v))), v.shape[0])
    guesses = [float(np.angle(u[i, j]) - np.angle(v[i, j]))]
    coarse = np.linspace(-np.pi, np.pi, 721)
    scan = [np.abs(u - np.exp(1j * part)[:, None, None] * v).max(axis=(1, 2)) for part in np.split(coarse, 7)]
    guesses.append(float(coarse[int(np.argmin(np.concatenate(scan)))]))
    center = min(guesses, key=dist)
    lo, hi = center - 0.02, center + 0.02
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return min(min(dist(p) for p in guesses), dist((lo + hi) / 2))


def _haar(gen, dim):
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 8, 16, 33, 64])
def test_unitary_distance_matches_exhaustive_scan(dim):
    """The bracketed search never loses to the old scan, the modulus gap bounds
    it below and the phase-aligned distance at arg tr(v^dagger u) above."""
    gen = np.random.default_rng(dim)
    u = _haar(gen, dim)
    pairs = [u, np.exp(1j * gen.uniform(-4, 4)) * u, _haar(gen, dim)]
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.7, 2.0):
        a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        a = (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)
        pairs.append(np.exp(1j * gen.uniform(-4, 4)) * exact_propagator(a, eps) @ u)
    for v in pairs:
        got = unitary_distance(u, v)
        aligned = float(np.max(np.abs(u - np.exp(1j * np.angle(np.vdot(v, u))) * v)))
        assert got <= _scan_distance(u, v) + 1e-15
        assert got >= float(np.max(np.abs(np.abs(u) - np.abs(v)))) - 1e-15
        assert got <= aligned


def test_unitary_distance_disjoint_supports():
    """With no entry shared by u and v the bracket is the whole circle: |1 - 0| = 1."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert unitary_distance(np.eye(2), x) == pytest.approx(1.0, abs=1e-15)


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]], dtype=complex)


def _blocks(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    out[: len(a), : len(a)], out[len(a) :, len(a) :] = a, b
    return out


def _bounded(u, v):
    """Distance and phase, checked against the exhaustive scan, the modulus gap
    and the distance at arg tr(v^dagger u)."""
    got, phase, _ = _distance_and_phase(u, v)
    aligned = float(np.max(np.abs(u - np.exp(1j * np.angle(np.vdot(v, u))) * v)))
    assert got == unitary_distance(u, v)
    assert got <= _scan_distance(u, v) + 1e-15
    assert float(np.max(np.abs(np.abs(u) - np.abs(v)))) - 1e-15 <= got <= aligned
    return got, phase


def test_unitary_distance_on_a_plateau():
    """Entries where v is 0 hold |u_k| = sin 0.6 at every phase; the three
    diagonal entries all stay below it on [0.85 - w, 0.3], w = 2 asin(sin(0.6) / 2),
    which arg tr(v^dagger u) misses. The phase is one point of that plateau."""
    u = _blocks(_rotation(0.6), np.eye(1))
    v = np.diag(np.exp(1j * np.array([0.0, 0.3, -0.85])))
    got, phase = _bounded(u, v)
    assert got == pytest.approx(math.sin(0.6), abs=1e-15)
    assert 0.85 - 2.0 * math.asin(math.sin(0.6) / 2.0) - 1e-12 <= phase <= 0.3 + 1e-12
    assert float(np.max(np.abs(u - np.exp(1j * np.angle(np.vdot(v, u))) * v))) > got + 0.05


def test_unitary_distance_at_a_crossing():
    """|1 - e^{i(phi + a_k)}| for phases 0.3, 1.1 and 0.5: the outer two cross at
    phi = -0.7, where both slopes are nonzero, at 2 sin(0.2)."""
    got, phase = _bounded(np.eye(3, dtype=complex), np.diag(np.exp(1j * np.array([0.3, 1.1, 0.5]))))
    assert got == pytest.approx(2.0 * math.sin(0.2), abs=1e-15)
    assert phase == pytest.approx(-0.7, abs=1e-12)


def test_unitary_distance_at_a_smooth_minimum():
    """The off-diagonal entries |sin 0.9 - e^{i phi} sin 0.3| are largest near
    phi = 0 and lowest there, smoothly, at sin 0.9 - sin 0.3; the e^{0.4i} corner
    pulls arg tr(v^dagger u) away from 0."""
    u = _blocks(_rotation(0.9), np.eye(1))
    v = _blocks(_rotation(0.3), np.exp(0.4j) * np.eye(1))
    got, phase = _bounded(u, v)
    assert got == pytest.approx(math.sin(0.9) - math.sin(0.3), abs=1e-15)
    assert phase == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("psi", [math.pi, math.pi - 0.1])
def test_unitary_distance_over_the_whole_circle(psi):
    """Every |u_k v_k| is at most 0.1, so 2 sqrt(0.1) < 1 is below the distance at
    arg tr(v^dagger u) and the bracket is the whole circle. At psi = pi the two
    diagonal entries |1 - 0.1 e^{i phi}| and |1 + 0.1 e^{i phi}| cross at
    phi = +-pi / 2, at sqrt(1.01)."""
    u = np.eye(2, dtype=complex)
    v = np.array([[0.1, -math.sqrt(0.99) * np.exp(1j * psi)], [math.sqrt(0.99), 0.1 * np.exp(1j * psi)]])
    aligned = float(np.max(np.abs(u - np.exp(1j * np.angle(np.vdot(v, u))) * v)))
    assert aligned >= 2.0 * math.sqrt(np.max(np.abs(u * v)))
    got, phase = _bounded(u, v)
    if psi == math.pi:
        assert got == pytest.approx(math.sqrt(1.01), abs=1e-15)
        assert abs(phase) == pytest.approx(math.pi / 2, abs=1e-12)


def test_unitary_distance_with_every_entry_tied():
    """QFT(6) against its reference: 4,096 entries of modulus 1/8 that differ
    only by rounding."""
    got, _ = _bounded(unitary(build_qft_circuit(6)), qft_reference(6))
    assert got < 1e-13


def test_unitary_distance_memory_stays_linear():
    """A 256 x 256 pair peaks below eight complex copies of one matrix; the
    unitarity checks alone take four."""
    gen = np.random.default_rng(256)
    u = _haar(gen, 256)
    v = exact_propagator(np.diag(gen.normal(size=256)), 1e-3) @ u
    tracemalloc.start()
    try:
        unitary_distance(u, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * u.nbytes


def test_unitary_distance_one_by_one():
    """Two phases of the 1 x 1 identity are equal up to a global phase."""
    assert unitary_distance(np.array([[1j]]), np.array([[1.0]])) < 1e-15
    assert unitary_distance(np.array([[np.exp(2.5j)]]), np.array([[-1.0]])) < 1e-15


def test_dense_cap_applies_to_every_propagator(monkeypatch):
    """Both the propagator and walk evolution refuse matrices above the cap."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    g = build_line(8)
    with pytest.raises(ValueError, match="above the dense cap 4"):
        exact_propagator(walk_matrix(g), 1.0)
    with pytest.raises(ValueError, match="above the dense cap 4"):
        evolve_walk(g, basis_state(8, 0), 1.0)


def test_walk_matrices_above_the_cap_are_refused_before_allocation(monkeypatch):
    """walk_matrix and its callers refuse a 200-node walk under a 4-qubit cap,
    and exact_propagator refuses before its complex copy, each while less than
    one 200 x 200 float array has been allocated."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "4")
    g = build_line(200)
    h = np.zeros((200, 200))
    psi = basis_state(200, 0)
    calls = (
        lambda: walk_matrix(g),
        lambda: exact_propagator(h, 1.0),
        lambda: evolve_walk(g, psi, 1.0),
        lambda: collapse_defect(g, 0),
        lambda: collapse_to_line(g, 0),
    )
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="matrix dimension 200 above the dense cap 16"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < h.nbytes


def test_basis_state_refuses_above_the_largest_dense_matrix(monkeypatch):
    """A state may have as many entries as the largest dense matrix the cap allows, no more."""
    monkeypatch.setenv("WALKFORGE_MAX_QUBITS", "2")
    assert basis_state(16, 15).dim == 16
    with pytest.raises(ValueError, match="state dimension 17 above the dense cap 16"):
        basis_state(17, 0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: StateVector(["1", "0"]), id="state-strings"),
        pytest.param(lambda: StateVector([True, False]), id="state-booleans"),
        pytest.param(lambda: StateVector([1, np.bool_(False)]), id="state-mixed-boolean"),
        pytest.param(lambda: exact_propagator([["1", "0"], ["0", "1"]], 1.0), id="propagator-strings"),
        pytest.param(lambda: unitary_distance([["1", "0"], ["0", "1"]], np.eye(2)), id="distance-strings"),
        pytest.param(lambda: unitary_distance(np.eye(2), [[True, False], [False, True]]), id="distance-booleans"),
    ],
)
def test_complex_inputs_refuse_strings_and_booleans(call):
    """Amplitudes and matrices hold numbers; strings and booleans are refused, not coerced."""
    with pytest.raises(ValueError, match="must hold numbers"):
        call()
