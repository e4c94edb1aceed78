"""The package namespace: the union of the library modules' public names."""
from __future__ import annotations

import importlib

import walkforge

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
