"""XY chains, sector graphs, Jordan-Wigner reduction, and column collapse."""
from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from walkforge import (
    PauliHamiltonian,
    PauliString,
    WalkGraph,
    XYChain,
    build_hypercube,
    build_line,
    collapse_defect,
    collapse_to_line,
    distance_layers,
    excitation_graph,
    graph_to_json,
    jordan_wigner_walk,
    to_matrix,
    walk_matrix,
    xy_hamiltonian,
)

rng = np.random.default_rng(94043)


def test_chain_validation():
    """Site count, bond count, and finiteness are enforced."""
    with pytest.raises(ValueError, match="at least two sites"):
        XYChain(1, ())
    with pytest.raises(ValueError, match="need 3 bond couplings"):
        XYChain(4, (1.0,))
    with pytest.raises(ValueError, match="couplings must be finite"):
        XYChain(2, (math.nan,))


def test_xy_hamiltonian_two_sites():
    """The two-site chain is -(J/2)(XX+YY) plus the field on each site."""
    h = xy_hamiltonian(XYChain(2, (1.0,), 0.6))
    assert h.terms == (
        (0.3, PauliString(2, "IZ")),
        (-0.5, PauliString(2, "XX")),
        (-0.5, PauliString(2, "YY")),
        (0.3, PauliString(2, "ZI")),
    )


def test_xy_hamiltonian_commutes_with_total_z():
    """The XY chain conserves total magnetization."""
    c = XYChain(4, tuple(rng.normal(size=3)), 0.9)
    dense = to_matrix(xy_hamiltonian(c))
    ztot = np.zeros((16, 16), dtype=complex)
    for j in range(4):
        s = "".join("Z" if q == j else "I" for q in range(4))
        ztot += to_matrix(PauliHamiltonian(4, ((1.0, PauliString(4, s)),)))
    comm = dense @ ztot - ztot @ dense
    assert np.abs(comm).max() < 1e-12


def test_jordan_wigner_walk_structure():
    """The chain reduces to a path walk with onsite -h and offset n h / 2."""
    jw = jordan_wigner_walk(XYChain(4, (1.0, 1.0, 1.0), 0.7))
    assert jw.graph.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    assert jw.graph.onsite == (-0.7, -0.7, -0.7, -0.7)
    assert jw.offset == 1.4


def test_jordan_wigner_matches_one_fermion_block():
    """Walk plus offset equals the one-down-spin block of the dense chain."""
    n = 5
    c = XYChain(n, tuple(rng.normal(size=n - 1)), 0.45)
    jw = jordan_wigner_walk(c)
    dense = to_matrix(xy_hamiltonian(c)).real
    idx = [(1 << n) - 1 - (1 << (n - 1 - j)) for j in range(n)]
    want = walk_matrix(jw.graph) + jw.offset * np.eye(n)
    np.testing.assert_allclose(dense[np.ix_(idx, idx)], want, atol=1e-12)


def test_excitation_graph_dimensions_and_labels():
    """Sector nodes enumerate the up-spin position sets as bit strings."""
    c = XYChain(4, (1.0, 1.0, 1.0))
    g = excitation_graph(c, 2)
    assert g.n_nodes == 6
    assert g.labels == ("1100", "1010", "1001", "0110", "0101", "0011")


def test_excitation_graph_matches_sector_block():
    """Each sector graph equals the dense block at its labeled indices."""
    n = 5
    c = XYChain(n, tuple(rng.normal(size=n - 1)), 0.8)
    dense = to_matrix(xy_hamiltonian(c)).real
    for k in range(1, n):
        g = excitation_graph(c, k)
        assert g.n_nodes == math.comb(n, k)
        idx = [int(l, 2) for l in g.labels]
        np.testing.assert_allclose(dense[np.ix_(idx, idx)], walk_matrix(g), atol=1e-12)


def test_excitation_graph_half_filling_size():
    """The 6-site, 3-up sector holds 20 configurations."""
    g = excitation_graph(XYChain(6, (1.0,) * 5), 3)
    assert g.n_nodes == 20


def test_excitation_graph_rejects_bad_sector():
    """Sector sizes run from 1 to n_sites - 1."""
    c = XYChain(3, (1.0, 1.0))
    with pytest.raises(ValueError, match="between 1 and n_sites - 1"):
        excitation_graph(c, 0)
    with pytest.raises(ValueError, match="between 1 and n_sites - 1"):
        excitation_graph(c, 3)


def test_distance_layers_line():
    """On a path from one end, every layer is a single node."""
    layers = distance_layers(build_line(4), 0)
    assert layers == ((0,), (1,), (2,), (3,))


def test_distance_layers_hypercube():
    """The cube splits into Hamming shells of sizes 1, 3, 3, 1."""
    layers = distance_layers(build_hypercube(3), 0)
    assert tuple(len(l) for l in layers) == (1, 3, 3, 1)


def test_distance_layers_rejects_disconnected():
    """BFS must reach every node."""
    g = WalkGraph(3, ((0, 1, 1.0),), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="not connected"):
        distance_layers(g, 0)


def test_collapse_hypercube_closes():
    """Shell superpositions of the cube form an exact weighted line."""
    g = build_hypercube(3)
    assert collapse_defect(g, 0) < 1e-12
    line = collapse_to_line(g, 0, strict=True)
    np.testing.assert_allclose(
        [e[2] for e in line.edges], [math.sqrt(3.0), 2.0, math.sqrt(3.0)], atol=1e-12
    )
    np.testing.assert_allclose(line.onsite, 0.0, atol=1e-12)


def test_collapse_two_node_identity():
    """A 2-node path collapses to itself."""
    g = build_line(2, deltas=(1.3,))
    line = collapse_to_line(g, 0, strict=True)
    np.testing.assert_allclose([e[2] for e in line.edges], [1.3], atol=1e-14)


def test_collapse_preserves_endpoint_dynamics_when_exact():
    """When the defect vanishes, endpoint transfer matches the full graph."""
    g = build_hypercube(3, delta0=0.8)
    line = collapse_to_line(g, 0, strict=True)
    hg, hl = walk_matrix(g), walk_matrix(line)
    for t in (0.4, 1.1, 2.7):
        vg, wg = np.linalg.eigh(hg)
        vl, wl = np.linalg.eigh(hl)
        ug = (wg * np.exp(-1j * vg * t)) @ wg.conj().T
        ul = (wl * np.exp(-1j * vl * t)) @ wl.conj().T
        np.testing.assert_allclose(abs(ug[-1, 0]), abs(ul[-1, 0]), atol=1e-12)


def test_collapse_sector_graph_couplings_and_defect():
    """The 20-node half-filling sector gives the published chain start but stays open."""
    g = excitation_graph(XYChain(6, (1.0,) * 5), 3)
    layers = distance_layers(g, 0)
    assert tuple(len(l) for l in layers) == (1, 1, 2, 3, 3, 3, 3, 2, 1, 1)
    line = collapse_to_line(g, 0)
    coup = [e[2] for e in line.edges]
    want_head = (1.0, math.sqrt(2.0), 4.0 / math.sqrt(6.0), 5.0 / 3.0, 2.0)
    np.testing.assert_allclose(coup[:5], want_head, atol=1e-10)
    np.testing.assert_allclose(coup, coup[::-1], atol=1e-10)
    defect = collapse_defect(g, 0)
    assert 0.76 < defect < 0.78


def test_collapse_strict_rejects_open_graph():
    """Strict mode refuses a graph whose shells do not close."""
    g = excitation_graph(XYChain(6, (1.0,) * 5), 3)
    with pytest.raises(ValueError, match="not column-collapsible"):
        collapse_to_line(g, 0, strict=True)


@pytest.mark.parametrize(
    "h, digest",
    [
        (0.0, "9d01a81e397b3e1e7f20eef3b4c2df42cff2f9f49cf842461a7fb61b49564718"),
        (0.3, "f29cdaed9d90453566e2f545c4e9119be5b0a52150e8c9eb8e0d3849bddc87ef"),
    ],
)
def test_jordan_wigner_walk_json_is_pinned(h, digest):
    """The reduced path's JSON (energies -0.0 at zero field) and the offset
    match their recorded sha256 byte for byte."""
    r = jordan_wigner_walk(XYChain(4, (1.0, -0.5, 0.25), h))
    assert hashlib.sha256((graph_to_json(r.graph) + repr(r.offset)).encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [2.7, 3.0, True])
def test_chain_refuses_a_non_integer_site_count(n):
    """XYChain(2.7, 1.0) was a 2-site chain."""
    with pytest.raises(ValueError, match="site count must be an integer"):
        XYChain(n, 1.0)


@pytest.mark.parametrize(
    "j, h, message",
    [
        (1.0, "0.5", "field must hold real numbers"),
        (1.0, None, "field must hold real numbers"),
        (1.0, [0.5], "field must be one number"),
        (["1", True], 0.0, "couplings must hold real numbers"),
        ([1.0, True], 0.0, "couplings must hold real numbers"),
        ("0.5", 0.0, "couplings must hold real numbers"),
        ([1.0, [2.0]], 0.0, "couplings is ragged"),
    ],
)
def test_chain_refuses_non_numbers(j, h, message):
    """Strings and None raised TypeError from np.isfinite, and ["1", True]
    was stored as couplings (1.0, 1.0)."""
    with pytest.raises(ValueError, match=re.escape(message)):
        XYChain(3, j, h)


def test_chain_keeps_its_finiteness_message_and_numpy_numbers():
    with pytest.raises(ValueError, match="couplings must be finite"):
        XYChain(3, [1.0, math.inf])
    c = XYChain(np.int64(3), np.float32(0.5), np.int64(2))
    assert (c.n_sites, c.j, c.h) == (3, (0.5, 0.5), 2.0) and type(c.h) is float


def test_chain_reads_integers_past_int64_as_floats():
    """An int too large for int64 is a number, read as a float; one beyond the
    float range is refused with ValueError, not OverflowError."""
    assert XYChain(3, 10**20).j == (1e20, 1e20)
    assert XYChain(3, [10**20, 1.5]).j == (1e20, 1.5)
    with pytest.raises(ValueError, match="couplings holds a number beyond the float range"):
        XYChain(3, 10**400)
