"""State vectors, exact walk evolution, fidelity, and unitary comparison."""
from __future__ import annotations

import math

import numpy as np
import pytest

from walkforge import (
    StateVector,
    WalkGraph,
    basis_state,
    build_line,
    evolve_walk,
    exact_propagator,
    fidelity,
    unitary_distance,
    walk_matrix,
)

rng = np.random.default_rng(16180)


def test_state_vector_rejects_unnormalized():
    """Amplitudes must carry unit norm."""
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_empty():
    """An empty amplitude vector is not a state."""
    with pytest.raises(ValueError, match="nonempty"):
        StateVector(np.array([]))


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
