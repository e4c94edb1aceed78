"""Tests of the benchmark itself: its oracles on hand-written cases, planted
errors counted as failures, exact repeat of computed counts, and the
memory guard.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import tasks as taskmod  # noqa: E402
import tracer as tracemod  # noqa: E402
import walkforge as wf  # noqa: E402

S = 1 / np.sqrt(2)


# --- oracles on hand-written cases --------------------------------------------


def test_pauli_letters_follow_package_conventions():
    assert np.array_equal(orc.pauli_matrix("X"), [[0, 1], [1, 0]])
    assert np.array_equal(orc.pauli_matrix("Z"), [[-1, 0], [0, 1]])
    assert np.array_equal(orc.pauli_matrix("Y"), [[0, 1j], [-1j, 0]])
    assert np.array_equal(orc.pauli_matrix("X") @ orc.pauli_matrix("Y"), 1j * orc.pauli_matrix("Z"))
    # qubit 1 is the most significant bit: Z on qubit 1 of two is diag(-1, -1, 1, 1)
    assert np.array_equal(np.diag(orc.pauli_matrix("ZI")), [-1, -1, 1, 1])
    assert np.array_equal(orc.pauli_matrix("IX")[:, 0], [0, 1, 0, 0])


def test_pauli_columns_agree_with_kron_sum():
    terms = [(0.5, "XYZ"), (-1.25, "ZZI"), (0.75j, "IYX"), (2.0, "III")]
    dense = orc.hamiltonian_matrix(3, terms)
    assert np.allclose(orc.pauli_columns(3, terms, np.arange(8)), dense, atol=0, rtol=0)
    assert np.array_equal(orc.pauli_columns(3, terms, [5, 2]), dense[:, [5, 2]])


def test_pauli_decompose_recovers_coefficients():
    terms = [(0.5, "XZ"), (-0.25, "YY"), (1.0, "II")]
    got = dict((s, c) for c, s in orc.pauli_decompose(orc.hamiltonian_matrix(2, terms), 2))
    assert got == pytest.approx({"XZ": 0.5, "YY": -0.25, "II": 1.0}, abs=1e-15)


def test_gate_targets_match_hand_written_matrices():
    cnot = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert np.array_equal(orc.named_gate("cnot"), cnot)
    assert np.allclose(orc.named_gate("swap"), swap, atol=1e-15)
    toffoli = np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]
    assert np.array_equal(orc.named_gate("toffoli"), toffoli)
    assert np.allclose(orc.named_gate("crk", 2), np.diag([1, 1, 1, 1j]), atol=1e-15)
    theta = 0.3
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    crx = np.eye(4, dtype=complex)
    crx[2:, 2:] = [[c, -1j * s], [-1j * s, c]]
    assert np.allclose(orc.named_gate("crx", theta), crx, atol=1e-15)


def test_multicontrol_target_honours_polarities_and_wire_order():
    # controls q3 (trigger on down) and q1 (trigger on up), target q2
    u = orc.controlled(3, (3, 1), (0, 1), 2, orc.PAULI["X"])
    # flips q2 exactly on |1?0>: indices 4 <-> 6
    assert np.array_equal(u, np.eye(8)[:, [0, 1, 2, 3, 6, 5, 4, 7]])


def test_dft_on_one_and_two_qubits():
    assert np.allclose(orc.dft(1), [[S, S], [S, -S]], atol=1e-15)
    f2 = 0.5 * np.array([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]])
    assert np.allclose(orc.dft(2), f2, atol=1e-15)


def test_trotter_product_of_one_qubit_terms():
    # commuting terms: the product is exact
    t = 0.7
    got = orc.trotter_product(1, [(0.4, "Z"), (-0.3, "Z")], t, 3)
    assert np.allclose(got, np.diag(np.exp(-1j * 0.1 * t * np.array([-1, 1]))), atol=1e-15)
    # X then Z, one step: exp(-i t Z) exp(-i t X)
    step = orc.trotter_product(1, [(1.0, "X"), (1.0, "Z")], t, 1)
    want = np.diag(np.exp(-1j * t * np.array([-1, 1]))) @ (np.cos(t) * np.eye(2) - 1j * np.sin(t) * orc.PAULI["X"])
    assert np.allclose(step, want, atol=1e-15)


def test_diagonal_first_order():
    terms = [(1.0, "XI"), (1.0, "IZ"), (1.0, "ZI"), (1.0, "XX"), (1.0, "ZZ")]
    assert [s for _, s in orc.diagonal_first(terms)] == ["ZI", "ZZ", "IZ", "XI", "XX"]


def test_xy_terms_on_two_sites_give_the_hop():
    j, h = 0.8, 0.6
    cols = orc.pauli_columns(2, orc.xy_terms(2, [j], h), [1, 2])  # |01>, |10>
    assert np.allclose(cols[[1, 2]], [[0, -j], [-j, 0]], atol=1e-15)
    assert np.max(np.abs(cols[[0, 3]])) == 0.0
    assert orc.sector_labels(3, 1) == {"001", "010", "100"}


def test_embedded_walk_places_nodes_at_labels():
    h = orc.embedded_walk(2, ["00", "01", "11"], [(0, 1, 0.5), (1, 2, 2.0)], [0.1, 0.2, 0.3])
    want = [[0.1, -0.5, 0, 0], [-0.5, 0.2, 0, -2.0], [0, 0, 0, 0], [0, -2.0, 0, 0.3]]
    assert np.array_equal(h, want)


def test_single_excitation_block_of_a_two_node_walk():
    delta, e0, e1 = 0.7, 0.2, -0.4
    terms = [(-delta / 2, "XX"), (-delta / 2, "YY"), (e0 / 2, "II"), (e0 / 2, "ZI"), (e1 / 2, "II"), (e1 / 2, "IZ")]
    block, leak = orc.single_excitation_block(2, terms)
    assert np.allclose(block, [[e0, -delta], [-delta, e1]], atol=1e-15)
    assert leak == 0.0


def test_replay_of_single_pulses():
    s, d = 1.3, 0.4
    x = orc.replay_pulses(1, [("delta", (1,), s, d)], np.eye(2))
    assert np.allclose(x, orc.rx(-2 * s * d), atol=1e-15)
    z = orc.replay_pulses(1, [("eps", (1,), s, d)], np.eye(2))
    assert np.allclose(z, np.diag(np.exp(-1j * s * d * np.array([-1, 1]))), atol=1e-15)
    xx = orc.replay_pulses(2, [("vperp", (1, 2), s, d)], np.eye(4))
    assert np.allclose(xx, np.cos(s * d) * np.eye(4) + 1j * np.sin(s * d) * orc.pauli_matrix("XX"), atol=1e-15)


def test_static_template_on_one_qubit():
    h = orc.static_matrix(1, [0.5], [0.25], [[0.0]], [[0.0]], [[0.0]])
    assert np.array_equal(h, [[0.5, -0.25], [-0.25, -0.5]])


def test_layer_projection_of_a_path():
    p = orc.layer_projection(3, [(0, 1, 1.0), (1, 2, 1.0)], 1)
    assert np.allclose(p, [[0, S], [1, 0], [0, S]])


def test_distance_bounds_and_phase():
    u = orc.named_gate("cnot")
    assert orc.phase_aligned_distance(u, np.exp(0.7j) * u) < 1e-15
    assert orc.check_distance("d", 0.0, u, np.exp(0.7j) * u) == []
    assert orc.check_distance("d", 0.5, u, u) != []
    assert orc.check_close("c", u, 1j * u, 1e-12, up_to_phase=True) == []
    assert orc.check_close("c", u, 1j * u, 1e-12) != []


def test_leak_check_reads_only_ancilla_down_columns():
    u = np.eye(4, dtype=complex)
    assert orc.check_leak("l", u, 1) == []
    u[1, 0] = 1e-14
    assert orc.check_leak("l", u, 1) != []
    assert orc.check_leak("l", u, 1, orc.LOWERED_LEAK_TOL) == []


# --- planted errors are counted, not fatal ---------------------------------------


def _measure(tasks, trace=False, tr=None):
    return run.measure(0.0, 2 if trace else 1, 2 if trace else 0, taskmod, tr or tracemod.Tracer(), tasks)


def test_a_flipped_gate_angle_counts_as_a_failure(monkeypatch):
    tasks = [t for t in taskmod.gate_oracle(5, tracemod.Tracer()) if t.name.startswith(("cnot", "crk", "toffoli"))]
    assert _measure(tasks)["failed"] == 0
    original = wf.decompose_cnot

    def flipped():
        c = original()
        k = next(i for i, g in enumerate(c.gates) if g.kind == "RX")
        bad = replace(c.gates[k], params=(-c.gates[k].params[0],))
        return replace(c, gates=c.gates[:k] + (bad,) + c.gates[k + 1:])

    monkeypatch.setattr(wf, "decompose_cnot", flipped)
    res = _measure(tasks)
    assert res["attempted"] == len(tasks)
    assert res["failed"] == sum(t.name.startswith("cnot") for t in tasks) == 2


def test_a_perturbed_coefficient_counts_as_a_failure(monkeypatch):
    tasks = [t for t in taskmod.encode_decode(5, tracemod.Tracer()) if t.name.startswith(("hypercube", "lattice"))]
    assert _measure(tasks)["failed"] == 0
    original = wf.encode_binary

    def perturbed(g, spec=None):
        h = original(g, spec)
        (c, s), rest = h.terms[0], h.terms[1:]
        return wf.PauliHamiltonian(h.m_qubits, ((c + 1e-9, s),) + rest)

    monkeypatch.setattr(wf, "encode_binary", perturbed)
    res = _measure(tasks)
    assert res["failed"] == len(tasks)


def test_an_exception_is_counted_and_the_run_goes_on():
    def boom():
        raise ValueError("planted")

    tasks = [taskmod.Task("boom", {}, (), boom, lambda out: []),
             taskmod.Task("ok", {}, (), lambda: {}, lambda out: [])]
    res = _measure(tasks)
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert "planted" in res["records"][0]["failures"][0]


# --- exact counts and the memory guard ---------------------------------------------


def _counts(workload, names):
    tr = tracemod.Tracer()
    tr.install()
    try:
        tasks = [t for t in taskmod.build(workload, 9, tr, None) if t.name in names]
        res = _measure(tasks, trace=True, tr=tr)
    finally:
        tr.uninstall()
    metrics = tracemod.report(tr.spans, tr.counts, len(res["pass_times"][True]))
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize(
    "workload, names",
    [
        ("trotter_verify", {"cycle8-s4", "random8-s4", "lattice16-s4"}),
        ("gate_oracle", {"mcx3", "mcrx3-fund", "qft3", "qft4-pulses", "toffoli-1"}),
        ("encode_decode", {"hypercube3", "single8", "static5-0", "random16-p0.5"}),
    ],
)
def test_computed_counts_repeat_exactly(workload, names):
    first = _counts(workload, names)
    assert first == _counts(workload, names)
    assert first["circuit.gates"] > 0 or workload == "encode_decode"
    assert first["pauli.terms"] > 0 or workload == "gate_oracle"


def test_counts_follow_from_sizes():
    tr = tracemod.Tracer()
    tr.install()
    tr.active, tr.task = True, (0, 0)
    try:
        c = wf.expand_multicontrol(wf.Gate("MCX", (1, 2, 3, 4), (), (1, 0, 1)), 4)
        wf.unitary(c)
        wf.replay_pulses(wf.circuit_to_pulses(wf.build_qft_circuit(2, "fundamental"), wf.uniform_strengths(2)), 2)
    finally:
        tr.uninstall()
    m = tracemod.report(tr.spans, tr.counts, 1)
    assert c.n_wires == 6 and m["circuit.gates"] == len(c.gates)
    assert m["circuit.amp_updates"] == len(c.gates) * 64 * 64
    assert m["circuit.useful_column_ratio"] == 16 / 64
    n_pulses = len(wf.circuit_to_pulses(wf.build_qft_circuit(2, "fundamental"), wf.uniform_strengths(2)))
    assert m["synth.replay_eigh_dim"] == n_pulses * 4
    assert m["circuit.calls"] == 1 and m["synth.calls"] >= 3


def test_memory_guard_refuses_by_size_without_allocating():
    assert taskmod.dense_bytes((12,)) == 16 * 4**12 * taskmod.RUN_COPIES
    assert taskmod.refusal((12,)) is None
    assert "13 wires" in taskmod.refusal((13,))
    assert "14 wires" in taskmod.refusal((7, 14))
    assert "budget" in taskmod.refusal((12, 12))

    def never():
        raise AssertionError("a refused task must not run")

    res = _measure([taskmod.Task("wide", {}, (14,), never, lambda out: [])])
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["records"][0]["failures"][0].startswith("refused")


def test_every_workload_stays_within_the_guard():
    for workload in ("trotter_verify", "gate_oracle", "encode_decode"):
        for task in taskmod.build(workload, 1, tracemod.Tracer(), None):
            assert taskmod.refusal(task.dense_wires) is None, task.name


def test_inputs_depend_only_on_the_seed():
    a = taskmod.trotter_verify(4, tracemod.Tracer())
    b = taskmod.trotter_verify(4, tracemod.Tracer())
    c = taskmod.trotter_verify(5, tracemod.Tracer())
    assert [(t.name, t.props) for t in a] == [(t.name, t.props) for t in b]
    # the seed moves values, not sizes
    assert [(t.name, t.props) for t in a] == [(t.name, t.props) for t in c]
    assert a[0].run()["h"].terms == b[0].run()["h"].terms != c[0].run()["h"].terms


def test_tail_is_the_eleventh_largest_sample():
    assert run.tail(list(range(1, 101))) == (90.0, 90)
    assert run.tail(list(range(1, 201))) == (95.0, 190)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0 / 3, 1.0)
