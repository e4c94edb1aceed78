"""Bounded property fuzz of the graph JSON and Pauli text readers.

Valid documents must round-trip bit-exactly; any other input must either
parse or raise ValueError (which the CLI reports as exit 2), never another
exception. Pauli headers stay small so no input asks for a huge register.
"""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from walkforge import (
    PauliHamiltonian,
    PauliString,
    WalkGraph,
    graph_from_json,
    graph_to_json,
    hamiltonian_from_text,
    hamiltonian_to_text,
)

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
