"""Bounded property fuzz of the graph JSON, Pauli text, circuit text and
pulse CSV readers.

Valid documents must round-trip bit-exactly; any other input must either
parse or raise ValueError (which the CLI reports as exit 2), never another
exception. Pauli headers stay small so no input asks for a huge register;
parsed circuits and pulses are evaluated only on a few wires.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkforge import (
    Circuit,
    FundamentalPulse,
    Gate,
    PauliHamiltonian,
    PauliString,
    WalkGraph,
    apply,
    circuit_from_text,
    circuit_to_text,
    graph_from_json,
    graph_to_json,
    hamiltonian_from_text,
    hamiltonian_to_text,
    pulses_from_csv,
    pulses_to_csv,
    replay_pulses,
    gate_conventions,
    to_fundamental,
    unitary,
)
from walkforge.circuit import _GATES
from walkforge.pauli import _from_masks

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _graphs(draw) -> WalkGraph:
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = tuple((i, j, draw(_FINITE)) for i, j in chosen)
    onsite = tuple(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=n, max_size=n).map(tuple))
    return WalkGraph(n, edges, onsite, labels)


@st.composite
def _hamiltonians(draw) -> PauliHamiltonian:
    m = draw(st.integers(1, 4))
    letters = st.text(alphabet="IXYZ", min_size=m, max_size=m)
    coeff = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300)
    terms = draw(st.lists(st.tuples(coeff, letters.map(lambda s: PauliString(m, s))), max_size=6))
    return PauliHamiltonian(m, tuple(terms))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_GRAPH_DOCS = st.fixed_dictionaries(
    {
        "n": st.integers(0, 4) | _JSON,
        "onsite": st.lists(st.floats(), max_size=4) | _JSON,
        "edges": st.lists(st.lists(st.integers(0, 4) | st.floats(), max_size=4) | _JSON, max_size=3) | _JSON,
    },
    optional={"labels": st.lists(st.text(max_size=2), max_size=4) | _JSON, "x": _JSON},
)


def _parses_or_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


@_SETTINGS
@given(_graphs())
def test_graph_json_round_trips(g):
    text = graph_to_json(g)
    assert graph_from_json(text) == g
    assert graph_to_json(graph_from_json(text)) == text


@_SETTINGS
@given(_GRAPH_DOCS.map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=40))
def test_graph_json_accepts_or_raises_value_error(text):
    _parses_or_value_error(graph_from_json, text)


@_SETTINGS
@given(_hamiltonians())
def test_pauli_text_round_trips(h):
    text = hamiltonian_to_text(h)
    assert hamiltonian_to_text(hamiltonian_from_text(text)) == text
    assert hamiltonian_from_text(text) == h


@_SETTINGS
@given(
    st.one_of(
        st.text(max_size=40),
        st.tuples(st.integers(-2, 6), st.text(alphabet="IXYZ0123456789 *.+-jnaife()\n", max_size=40)).map(
            lambda t: f"QUBITS {t[0]}\n{t[1]}"
        ),
    )
)
def test_pauli_text_accepts_or_raises_value_error(text):
    _parses_or_value_error(hamiltonian_from_text, text)


@_SETTINGS
@given(
    st.integers(1, 70).flatmap(lambda m: st.text(alphabet="IXYZ", min_size=m, max_size=m)),
    st.sampled_from([1, -1, 1j, -1j]),
)
def test_pauli_letters_round_trip_through_masks(letters, phase):
    s = PauliString(len(letters), letters, phase)
    assert s.x == int("".join("1" if l in "XY" else "0" for l in letters), 2)
    assert s.z == int("".join("1" if l in "YZ" else "0" for l in letters), 2)
    assert s.letters == letters
    assert _from_masks(len(letters), s.x, s.z, phase) == s


@_SETTINGS
@given(
    st.sampled_from("XYZ"),
    st.text(st.characters(exclude_categories=("Cc", "Zs", "Zl", "Zp")), max_size=4) | st.sampled_from(["+1", "1_0", "\u0661", "01"]),
)
def test_pauli_qubit_index_is_ascii_digits_in_range(letter, index):
    """A token parses exactly when its index is ASCII digits naming a qubit."""
    text = f"QUBITS 12\n1 * {letter}{index}\n"
    if index.isascii() and index.isdigit() and 1 <= int(index) <= 12:
        assert hamiltonian_from_text(text).terms[0][1].support == (int(index),)
    else:
        with pytest.raises(ValueError):
            hamiltonian_from_text(text)


@st.composite
def _circuits(draw, kinds=tuple(sorted(_GATES))) -> Circuit:
    n, a = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    w = n + a
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        n_wires, n_params, _ = _GATES[kind]
        k = draw(st.integers(2, max(2, w))) if n_wires is None else n_wires
        if k > w:
            continue
        qubits = tuple(draw(st.permutations(range(1, w + 1)))[:k])
        pols = ()
        if n_wires is None:
            pols = tuple(draw(st.lists(st.integers(0, 1), min_size=k - 1, max_size=k - 1)))
        if kind == "CRK":
            params = (float(draw(st.integers(1, 2000) | st.just(10**300))),)
        else:
            params = tuple(draw(st.lists(_FINITE, min_size=n_params, max_size=n_params)))
        gates.append(Gate(kind, qubits, params, pols))
    return Circuit(n, a, tuple(gates))


_CIRCUIT_TOKENS = st.sampled_from(
    sorted(_GATES) + ["q1", "q2", "q3", "q0", "+q1", "-q2", "+q3", "q", "0.5", "-1", "2", "1e300", "nan", "x"]
)
_CIRCUIT_TEXT = st.tuples(
    st.integers(-1, 3),
    st.integers(-1, 2),
    st.lists(st.lists(_CIRCUIT_TOKENS, min_size=1, max_size=5).map(" ".join), max_size=4),
).map(lambda t: f"QUBITS {t[0]} ANCILLAS {t[1]}\n" + "\n".join(t[2]))


@_SETTINGS
@given(_circuits())
def test_circuit_text_round_trips(c):
    text = circuit_to_text(c)
    assert circuit_from_text(text) == c
    assert circuit_to_text(circuit_from_text(text)) == text


@_SETTINGS
@given(_CIRCUIT_TEXT | st.text(max_size=40))
@example("QUBITS 2 ANCILLAS 0\nCRK q1 q2 1e300")
def test_circuit_text_accepts_or_raises_value_error(text):
    """A circuit that parses also round-trips and evaluates (on at most five wires)."""
    try:
        c = circuit_from_text(text)
    except ValueError:
        return
    assert circuit_from_text(circuit_to_text(c)) == c
    if c.n_wires <= 5:
        unitary(c)


def _kron_reference(c: Circuit) -> np.ndarray:
    """Product of full-register gate matrices, each the kron of the gate's own
    matrix with the identity, its rows and columns then moved to the gate's wires."""
    w = c.n_wires
    conv = gate_conventions()
    u = np.eye(1 << w, dtype=complex)
    for g in c.gates:
        if g.kind == "GPHASE":
            local = np.exp(1j * np.array([[g.params[0]]]))
        elif g.kind in ("MCX", "MCRX"):
            m = len(g.polarities)
            local = np.eye(2 << m, dtype=complex)
            on = 2 * sum(b << (m - 1 - i) for i, b in enumerate(g.polarities))
            local[on:on + 2, on:on + 2] = conv["X"] if g.kind == "MCX" else conv["RX"](*g.params)
        else:
            local = conv[g.kind](*g.params) if g.params else conv[g.kind]
        order = list(g.qubits) + [q for q in range(1, w + 1) if q not in g.qubits]
        # index j of the kron's wire order is basis index place[j]
        place = [sum(((j >> (w - 1 - i)) & 1) << (w - q) for i, q in enumerate(order)) for j in range(1 << w)]
        full = np.empty((1 << w, 1 << w), dtype=complex)
        full[np.ix_(place, place)] = np.kron(local, np.eye(1 << (w - len(g.qubits))))
        u = full @ u
    return u


@_SETTINGS
@given(_circuits(), st.integers(1, 4))
def test_unitary_and_apply_match_a_kron_product(c, reps):
    """Random gate lists, repeated so that unitary may square a block."""
    c = Circuit(c.n_qubits, c.n_ancillas, c.gates * reps)
    want = _kron_reference(c)
    assert np.max(np.abs(unitary(c) - want), initial=0.0) <= 1e-12
    psi = np.arange(1, (1 << c.n_wires) + 1) * (1 - 0.5j)
    assert np.max(np.abs(apply(c, psi) - want @ psi)) <= 1e-12 * np.max(np.abs(psi))


@_SETTINGS
@given(_circuits(kinds=tuple(k for k in sorted(_GATES) if _GATES[k][0] is not None)))
def test_lowered_circuits_match_a_kron_product(c):
    """to_fundamental output, whose rotations fuse into two-wire runs, evaluates
    to the kron-product reference of its own gates."""
    c = to_fundamental(c)
    want = _kron_reference(c)
    assert np.max(np.abs(unitary(c) - want), initial=0.0) <= 1e-12
    psi = np.arange(1, (1 << c.n_wires) + 1) * (1 - 0.5j)
    assert np.max(np.abs(apply(c, psi) - want @ psi)) <= 1e-12 * np.max(np.abs(psi))


_DURATIONS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@st.composite
def _pulses(draw) -> tuple[FundamentalPulse, ...]:
    out = []
    for _ in range(draw(st.integers(0, 5))):
        term = draw(st.sampled_from(["eps", "delta", "vperp"]))
        k = 2 if term == "vperp" else 1
        qubits = tuple(draw(st.permutations(range(1, 5)))[:k])
        out.append(FundamentalPulse(term, qubits, draw(_FINITE), draw(_DURATIONS)))
    return tuple(out)


_CSV_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["eps", "delta", "vperp", "zz", ""]),
        st.sampled_from(["1", "2", "3", "0", "-1", "1 2", "2 1", "1 1", "1 3", "1.5", "x", ""]),
        st.sampled_from(["1", "0.5", "-2", "nan", "inf", "x", ""]),
        st.sampled_from(["0", "0.25", "-0.1", "1e400", "x", ""]),
    ).map(",".join),
    max_size=4,
)


@_SETTINGS
@given(_pulses())
def test_pulse_csv_round_trips(pulses):
    text = pulses_to_csv(pulses)
    assert pulses_from_csv(text) == pulses
    assert pulses_to_csv(pulses_from_csv(text)) == text


@_SETTINGS
@given(_CSV_ROWS.map(lambda rows: "term,qubits,strength,duration\n" + "\n".join(rows)) | st.text(max_size=40))
def test_pulse_csv_accepts_or_raises_value_error(text):
    """Parsed pulses replay on two wires or are refused there with ValueError."""
    try:
        pulses = pulses_from_csv(text)
        replay_pulses(pulses, 2)
    except ValueError:
        pass
