"""The package namespace: the union of the library modules' public names,
and the one way its functions read counts and times."""
from __future__ import annotations

import importlib

import numpy as np
import pytest

import walkforge
from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    XYChain,
    basis_state,
    build_qft_circuit,
    collapse_to_line,
    distance_layers,
    evolve_walk,
    exact_propagator,
    excitation_graph,
    expand_multicontrol,
    pulse_to_walk_edges,
    qft_reference,
    replay_pulses,
    synth_line_walk_step,
)

MODULES = ("circuit", "decode", "encode", "gatelib", "pauli", "sim", "spinchain", "synth", "walkgraph")

PUBLIC = {
    "Circuit", "FundamentalPulse", "Gate", "Hyperlattice", "JordanWignerResult",
    "PauliHamiltonian", "PauliString", "PulseStrengths", "Schedule",
    "StateVector", "StaticQubitHamiltonian", "TrotterPlan", "WalkGraph", "XYChain",
    "ancilla_ground_block", "apply", "band_energy", "basis_state", "build_cycle",
    "build_hypercube", "build_hyperlattice_graph", "build_line", "build_qft_circuit",
    "circuit_from_text", "circuit_to_pulses", "circuit_to_text", "collapse_defect",
    "collapse_to_line", "decompose_cnot", "decompose_controlled_rk", "decompose_controlled_rx",
    "decompose_cphase", "decompose_swap", "decompose_toffoli", "distance_layers",
    "encode_binary", "encode_single_excitation", "euler_decompose", "evolve_walk",
    "exact_propagator", "excitation_graph", "expand_multicontrol", "expand_to_basic",
    "fidelity", "gate_conventions", "graph_from_json", "graph_to_json", "gray_labels",
    "hamiltonian_from_text", "hamiltonian_to_text", "hop_string",
    "hyperlattice_qubit_hamiltonian", "jordan_wigner_walk", "line_position",
    "line_qubit_hamiltonian", "matrix_to_walk", "multiply", "projector_string",
    "pulse_to_walk_edges", "pulses_from_csv", "pulses_to_csv", "qft_reference", "replay_pulses",
    "static_to_pauli", "static_to_walk", "synth_line_walk_step", "synth_onsite",
    "synth_pauli_evolution", "time_sliced", "to_fundamental", "to_matrix", "trotterize",
    "uniform_strengths", "unitary", "unitary_distance", "walk_matrix", "xy_hamiltonian",
}


def test_package_exports_the_public_names():
    """__all__ holds exactly the documented names, sorted, without repeats."""
    assert set(walkforge.__all__) == PUBLIC
    assert len(PUBLIC) == 77
    assert walkforge.__all__ == sorted(PUBLIC)


def test_each_export_is_its_module_object():
    """Every module's public names are exported, each the very object the module holds."""
    for name in MODULES:
        module = importlib.import_module(f"walkforge.{name}")
        assert set(module.__all__) <= PUBLIC
        for attr in module.__all__:
            assert getattr(walkforge, attr) is getattr(module, attr)


def test_star_import_binds_exactly_the_public_names():
    """`from walkforge import *` binds the public names and nothing else."""
    namespace: dict = {}
    exec("from walkforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


_CHAIN = XYChain(3, 1.0)
_GRAPH = excitation_graph(_CHAIN, 1)
_PULSE = FundamentalPulse("delta", (1,), 0.4, 1.0)
_MCX = Gate("MCX", (1, 2, 3), (), (1, 1))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: build_qft_circuit("3"), id="qft-string"),
        pytest.param(lambda: build_qft_circuit(3.0), id="qft-float"),
        pytest.param(lambda: build_qft_circuit(True), id="qft-boolean"),
        pytest.param(lambda: qft_reference("3"), id="qft-reference-string"),
        pytest.param(lambda: qft_reference(2.5), id="qft-reference-float"),
        pytest.param(lambda: synth_line_walk_step("3", 0.1), id="line-step-string"),
        pytest.param(lambda: synth_line_walk_step(2.0, 0.1), id="line-step-float"),
        pytest.param(lambda: basis_state("4", 0), id="basis-dimension-string"),
        pytest.param(lambda: basis_state(4, 1.5), id="basis-index-float"),
        pytest.param(lambda: excitation_graph(_CHAIN, "1"), id="excitations-string"),
        pytest.param(lambda: excitation_graph(_CHAIN, 1.0), id="excitations-float"),
        pytest.param(lambda: distance_layers(_GRAPH, "0"), id="layers-string"),
        pytest.param(lambda: distance_layers(_GRAPH, 1.0), id="layers-float"),
        pytest.param(lambda: collapse_to_line(_GRAPH, 0.0), id="collapse-float"),
        pytest.param(lambda: expand_multicontrol(_MCX, "3"), id="expand-string"),
        pytest.param(lambda: replay_pulses((), "1"), id="replay-string"),
        pytest.param(lambda: pulse_to_walk_edges(_PULSE, "2"), id="pulse-walk-string"),
        pytest.param(lambda: pulse_to_walk_edges(_PULSE, 1.5), id="pulse-walk-float"),
        pytest.param(lambda: exact_propagator(np.eye(2), "1"), id="propagator-string-time"),
        pytest.param(lambda: evolve_walk(_GRAPH, basis_state(3, 0), "1"), id="evolve-string-time"),
        pytest.param(lambda: Circuit("1", 0, ()), id="circuit-string"),
        pytest.param(lambda: Circuit(1.0, 0, ()), id="circuit-float"),
    ],
)
def test_counts_and_times_of_the_wrong_type_are_refused(call):
    """A count that is not an integer (a string, a float, a boolean) and a time
    that is not a real number are refused with ValueError, not coerced or let
    out as TypeError or IndexError."""
    with pytest.raises(ValueError, match="integer|real number"):
        call()
