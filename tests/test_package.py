"""The package namespace: the union of the library modules' public names,
and the one way its functions read counts, times and other numbers."""
from __future__ import annotations

import ast
import importlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import walkforge
from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    StaticQubitHamiltonian,
    WalkGraph,
    XYChain,
    basis_state,
    build_qft_circuit,
    collapse_to_line,
    distance_layers,
    evolve_walk,
    exact_propagator,
    excitation_graph,
    expand_multicontrol,
    graph_from_json,
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


_SOURCE = Path(walkforge.__file__).parent
_TYPE_TESTS = {"bool_", "integer", "floating", "number"}  # numpy attributes that name a number type


def _type_tests(tree: ast.AST) -> list[int]:
    """Lines that test for a boolean, a numpy number type or a dtype kind."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            node.attr in _TYPE_TESTS or node.attr == "kind" and getattr(node.value, "attr", "") == "dtype"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) or isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance":
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node)):
                lines.append(node.lineno)
    return lines


def test_only_the_reader_module_holds_the_number_type_rule():
    """Whether a value is an integer, a real or a number is decided in _read.py
    alone: no other module tests for booleans, numpy number types or dtype kinds,
    and the modules that read numbers do not reach into circuit or decode for it."""
    found = {}
    for path in sorted(_SOURCE.glob("*.py")):
        if path.name != "_read.py":
            lines = _type_tests(ast.parse(path.read_text()))
            if lines:
                found[path.name] = lines
    assert found == {}
    assert _type_tests(ast.parse((_SOURCE / "_read.py").read_text()))  # the guard sees the rule where it is
    for name, others in [
        ("walkgraph", ("circuit",)), ("encode", ("circuit",)), ("decode", ("circuit",)),
        ("spinchain", ("circuit", "decode")), ("sim", ("circuit",)), ("synth", ("decode",)),
    ]:
        tree = ast.parse((_SOURCE / f"{name}.py").read_text())
        imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert not imported & set(others), name


# value, then whether it reads as an integer and as a real number
_VALUES = [
    (1, True, True),
    (np.int64(1), True, True),
    (np.uint8(1), True, True),
    (True, False, False),
    (np.bool_(1), False, False),
    (1.5, False, True),
    (np.float32(1.5), False, True),
    ("1", False, False),
    (1 + 0j, False, False),
    (10**400, True, False),  # an integer, but past the float range
    (Fraction(1, 2), False, False),
]
_ZERO = np.zeros((1, 1))


def _json_onsite(v):
    """graph_from_json of one node whose energy is v, written as JSON text."""
    text = json.dumps(v.item() if isinstance(v, np.generic) else v)
    return graph_from_json(f'{{"n": 1, "onsite": [{text}], "edges": []}}')


_ENTRIES = {  # entry point: (call on the value, whether it reads an integer)
    "gate-wire": (lambda v: Gate("X", (v,)), True),
    "gate-parameter": (lambda v: Gate("RX", (1,), (v,)), False),
    "walkgraph-hop": (lambda v: WalkGraph(2, ((0, 1, v),), (0.0, 0.0)), False),
    "static-eps": (lambda v: StaticQubitHamiltonian(1, [v], [0.0], _ZERO, _ZERO, _ZERO), False),
    "json-onsite": (_json_onsite, False),
}


def _has_json_form(v) -> bool:
    try:
        json.dumps(v.item() if isinstance(v, np.generic) else v)
    except TypeError:  # complex and Fraction values have no JSON number
        return False
    return True


@pytest.mark.parametrize(
    "entry, value, accepted",
    [
        pytest.param(entry, v, integer if reads_integer else real, id=f"{entry}-{type(v).__name__}-{k}")
        for entry, (_, reads_integer) in _ENTRIES.items()
        for k, (v, integer, real) in enumerate(_VALUES)
        if entry != "json-onsite" or _has_json_form(v)
    ],
)
def test_every_entry_point_reads_a_value_by_the_same_rule(entry, value, accepted):
    """A count and every real-number field, plain, array or JSON, accept and
    refuse the same values: booleans, strings, complex values and fractions are
    never numbers, and an integer past the float range is no real number."""
    call, _ = _ENTRIES[entry]
    if accepted:
        call(value)
    else:
        with pytest.raises(ValueError):
            call(value)
