"""Seeded workloads of verified tasks.

Each workload builder turns a seed into a fixed list of tasks. A task's
``run`` calls walkforge on inputs made here and returns its outputs; its
``check`` compares those outputs with references from ``oracles`` and is
called outside the timed region. Sizes, step counts, lattice boundaries
and the layouts of random graphs form a fixed grid per workload, so a seed
changes values (weights, energies, polarities, times) but not the cost
profile of the mix; that keeps runs with different seeds comparable.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
import walkforge as wf
import walkforge.cli  # noqa: F401  (wf.cli.main is looked up at call time)

# Memory guard. _run keeps up to four register-sized arrays alive while it
# applies one gate (the input, a reshaped copy, the product and the
# reshaped output), so a full unitary on w wires needs 16 * 4^w * 4 bytes.
MAX_WIRES = 12
RUN_COPIES = 4
BYTE_BUDGET = 3 << 29  # 1.5 GiB: the 12-wire MCX ladder (1 GiB) fits, 13 wires (4 GiB) does not


def dense_bytes(wires) -> int:
    """Bytes the dense matrices on these registers need, counted before any is built."""
    return sum(16 * 4**w * RUN_COPIES for w in wires)


def refusal(wires) -> str | None:
    """Why a task with full matrices on these registers must not run, or None."""
    if wires and max(wires) > MAX_WIRES:
        return f"needs {max(wires)} wires, above the limit of {MAX_WIRES}"
    need = dense_bytes(wires)
    if need > BYTE_BUDGET:
        return f"needs {need} dense bytes, above the budget of {BYTE_BUDGET}"
    return None


@dataclass
class Task:
    name: str
    props: dict
    dense_wires: tuple[int, ...]
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    ref: tuple[str, str] | None = None  # (metric, span name) of a reference row
    memo: dict = field(default_factory=dict)


def describe(out: dict) -> dict:
    """Input properties that are only known once the task has run."""
    props = {}
    c = out.get("circuit")
    if c is not None:
        props.update(gates=len(c.gates), ancillas=c.n_ancillas, data_qubits=c.n_qubits)
    if out.get("pulses") is not None:
        props["pulses"] = len(out["pulses"])
    return props


def _memo(task_memo: dict, key, compute):
    if key not in task_memo:
        task_memo[key] = compute()
    return task_memo[key]


def _width(n_nodes: int) -> int:
    return max(1, (n_nodes - 1).bit_length())


def _index_labels(n_nodes: int) -> list[str]:
    m = _width(n_nodes)
    return [format(j, f"0{m}b") for j in range(n_nodes)]


def _graph_props(n, edges, m) -> dict:
    return {"nodes": n, "edges": len(edges), "label_density": n / 2**m, "data_qubits": m}


def _signed(rng, size, lo=0.25, hi=1.5):
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


def _random_edges(rng, n, density):
    """round(density * n (n - 1) / 2) distinct edges with random signed weights.

    Which pairs are joined is drawn from n and the edge count alone; the seed
    draws the weights. The label differences of the joined pairs set how
    many Pauli terms a binary encoding has, and with it the cost of every
    later step, so a layout redrawn per seed would change the cost profile.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = round(density * len(pairs))
    pick = np.random.default_rng([n, count]).choice(len(pairs), size=count, replace=False)
    weights = _signed(rng, pick.size)
    return tuple((*pairs[k], float(w)) for k, w in zip(sorted(pick), weights))


def _cycle_edges(deltas):
    n = len(deltas)
    return tuple((k, (k + 1) % n, float(deltas[k])) for k in range(n))


def _line_edges(deltas):
    return tuple((k, k + 1, float(d)) for k, d in enumerate(deltas))


def _lattice_edges(side, d, delta0, boundary):
    """Nearest-neighbour bonds of an L^d grid, axis 0 most significant."""
    n = side**d
    strides = [side ** (d - 1 - ax) for ax in range(d)]
    pairs = set()
    for node in range(n):
        for ax in range(d):
            coord = (node // strides[ax]) % side
            if coord + 1 < side:
                pairs.add((node, node + strides[ax]))
            elif boundary == "periodic" and side > 2:
                pairs.add((node - (side - 1) * strides[ax], node))
    return tuple((i, j, float(delta0)) for i, j in sorted(pairs))


def _terms(h):
    return [(c, s.letters) for c, s in h.terms]


def _embedding_check(what, task, h, m, labels, edges, onsite):
    """Dense Pauli sum of h against the walk matrix embedded at labels."""

    def compute():
        want = orc.embedded_walk(m, labels, edges, onsite)
        got = orc.pauli_columns(m, _terms(h), np.arange(1 << m))
        return orc.check_close(what, got, want, orc.DECODE_TOL)

    return _memo(task.memo, ("encode", h.terms), compute)


def _graph_matrix(m, g):
    return orc.embedded_walk(m, g.labels or _index_labels(g.n_nodes), g.edges, g.onsite)


# --- trotter_verify -------------------------------------------------------


def trotter_verify(seed: int, tr) -> list[Task]:
    """Graph -> encode_binary -> trotterize -> unitary -> ancilla block,
    checked against exact_propagator with unitary_distance."""
    rng = np.random.default_rng([seed, 1])
    grid = [
        ("cycle", 4, 4), ("cycle", 4, 8), ("cycle", 4, 12), ("cycle", 5, 6), ("cycle", 6, 4), ("cycle", 8, 4),
        ("cycle", 8, 6), ("cycle", 8, 8),
        ("line", 4, 4), ("line", 4, 8), ("line", 4, 16), ("line", 5, 4), ("line", 6, 4), ("line", 6, 4),
        ("line", 6, 4), ("line", 6, 6), ("line", 8, 4), ("line", 8, 4),
        ("lattice", 4, 4), ("lattice", 4, 8), ("lattice", 4, 16), ("lattice", 16, 4), ("torus", 16, 12),
        ("random", 5, 4), ("random", 6, 4), ("random", 6, 6), ("random", 8, 4), ("random", 8, 8),
    ]
    # Repeated entries are extra draws of one cost: with them the median and
    # the eleventh largest task time fall on a plateau of 4-step graphs of
    # 5-8 nodes, not on a gap between sizes.
    tasks = []
    for fam, n, steps in grid:
        name = f"{fam}{n}-s{steps}"
        draws = sum(t.name == name or t.name.startswith(name + "-") for t in tasks)
        tasks.append(_trotter_task(tr, f"{name}-{draws}" if draws else name, fam, n, steps, rng))
    ref = _trotter_task(tr, "ref.cycle64_trotter10", "ref", 64, 10, rng)
    ref.ref = ("ref.cycle64_trotter10_unitary_s", "circuit.unitary")
    return tasks + [ref]


def _trotter_task(tr, name, family, n, steps, rng) -> Task:
    t = float(rng.uniform(0.5, 2.0))
    onsite = tuple(float(x) for x in rng.uniform(-1.0, 1.0, n))
    if family == "cycle":
        deltas = _signed(rng, n)
        edges = _cycle_edges(deltas)
        build = lambda: wf.build_cycle(n, deltas=deltas, eps=onsite)  # noqa: E731
    elif family == "line":
        deltas = _signed(rng, n - 1)
        edges = _line_edges(deltas)
        build = lambda: wf.build_line(n, deltas=deltas, eps=onsite)  # noqa: E731
    elif family in ("lattice", "torus"):
        side = int(round(n**0.5))
        lat = wf.Hyperlattice(2, side, float(rng.uniform(0.5, 1.5)), "open" if family == "lattice" else "periodic")
        edges = _lattice_edges(side, 2, lat.delta0, lat.boundary)
        onsite = (0.0,) * n
        build = lambda: wf.build_hyperlattice_graph(lat)  # noqa: E731
    elif family == "random":
        edges = _random_edges(rng, n, 3.0 / n)
        build = lambda: tr.call("walkgraph.build", wf.WalkGraph, n, edges, onsite)  # noqa: E731
    else:  # the uniform cycle of the reference row, t = 1
        t, onsite = 1.0, (0.0,) * n
        edges = _cycle_edges([1.0] * n)
        build = lambda: wf.build_cycle(n)  # noqa: E731
    m = _width(n)
    labels = _index_labels(n)
    props = _graph_props(n, edges, m) | {"trotter_steps": steps, "pulses": 0}
    task = None

    def run():
        g = build()
        h = wf.encode_binary(g)
        c = wf.trotterize(h, t, wf.TrotterPlan(steps))
        u = wf.unitary(c)
        block = wf.ancilla_ground_block(u, c.n_ancillas)
        exact = wf.exact_propagator(wf.to_matrix(h), t)
        return {"h": h, "circuit": c, "full": u, "block": block, "exact": exact,
                "distance": wf.unitary_distance(block, exact)}

    def check(out):
        h, c = out["h"], out["circuit"]
        errs = _embedding_check("encode_binary", task, h, m, labels, edges, onsite)
        want = _memo(task.memo, "exact", lambda: orc.propagator(orc.embedded_walk(m, labels, edges, onsite), t))
        errs += orc.check_close("exact_propagator", out["exact"], want, orc.PROPAGATOR_TOL)
        product = _memo(
            task.memo, ("trotter", h.terms),
            lambda: orc.trotter_product(m, orc.diagonal_first([(x.real, s) for x, s in _terms(h)]), t, steps),
        )
        errs += orc.check_close("trotter block", out["block"], product, orc.TROTTER_TOL, up_to_phase=True)
        errs += orc.check_leak("trotter circuit", out["full"], c.n_ancillas)
        errs += orc.check_distance("unitary_distance", out["distance"], out["block"], out["exact"])
        return errs

    task = Task(name, props, (m + 1, m, m), run, check)
    return task


# --- gate_oracle -------------------------------------------------------------


def gate_oracle(seed: int, tr) -> list[Task]:
    """Named decompositions, MCX/MCRX ladders and the QFT, each checked
    against its defining matrix with unitary_distance."""
    rng = np.random.default_rng([seed, 2])
    tasks = []
    decomps = [("cnot", ()), ("toffoli", ()), ("swap", ())] + [("crk", (k,)) for k in (1, 2, 3, 5)]
    decomps += [("crx", (float(rng.uniform(-np.pi, np.pi)),)) for _ in range(2)]
    decomps += [("cphase", (float(rng.uniform(-np.pi, np.pi)),))]
    for k, (kind, args) in enumerate(decomps):
        tasks.append(_decomp_task(f"{kind}-{k}", kind, args, lower=False))
    for kind, args in (("toffoli", ()), ("crx", (float(rng.uniform(-np.pi, np.pi)),)), ("cnot", ())):
        tasks.append(_decomp_task(f"{kind}-fund", kind, args, lower=True))
    # Extra draws of equal-cost ladders put the median task (3 controls) and
    # the eleventh largest (4 controls) among several tasks of equal cost.
    for kind, m, lower, draws in (
        ("MCX", 3, False, 2), ("MCX", 4, False, 4),
        ("MCRX", 3, False, 2), ("MCRX", 4, False, 4),
        ("MCX", 3, True, 1), ("MCRX", 3, True, 1),
    ):
        for draw in range(draws):
            name = f"{kind.lower()}{m}" + ("-fund" if lower else "") + (f"-{draw}" if draw else "")
            tasks.append(_multicontrol_task(name, kind, m, lower, rng))
    ref = _multicontrol_task("ref.mcx6", "MCX", 6, False, rng)
    ref.ref = ("ref.mcx6_unitary_s", "circuit.unitary")
    tasks.append(ref)
    for n in (3, 4, 5, 6):
        tasks.append(_qft_task(f"qft{n}", n, None))
        name = "ref.qft6_replay" if n == 6 else f"qft{n}-pulses"
        task = _qft_task(name, n, rng.uniform(0.5, 2.0, (3, n, n)))
        if n == 6:
            task.ref = ("ref.qft6_replay_s", "synth.replay")
        tasks.append(task)
    tasks.append(_distance_task(rng))
    return tasks


_DECOMPOSE = {
    "cnot": "decompose_cnot",
    "toffoli": "decompose_toffoli",
    "swap": "decompose_swap",
    "crk": "decompose_controlled_rk",
    "crx": "decompose_controlled_rx",
    "cphase": "decompose_cphase",
}


def _decomp_task(name, kind, args, lower) -> Task:
    # decompose_controlled_rx(eps) realizes CRX(2 eps)
    target = orc.named_gate(kind, 2.0 * args[0] if kind == "crx" else (args[0] if args else 0.0))
    wires = target.shape[0].bit_length() - 1

    def run():
        c = getattr(wf, _DECOMPOSE[kind])(*args)
        if lower:
            c = wf.to_fundamental(c)
        u = wf.unitary(c)
        return {"circuit": c, "full": u, "distance": wf.unitary_distance(u, target)}

    def check(out):
        errs = orc.check_close(name, out["full"], target, orc.GATE_TOL, up_to_phase=True)
        return errs + orc.check_distance("unitary_distance", out["distance"], out["full"], target)

    return Task(name, {"data_qubits": wires, "pulses": 0}, (wires,), run, check)


def _multicontrol_task(name, kind, m, lower, rng) -> Task:
    wires = [int(q) for q in rng.permutation(np.arange(1, m + 2))]
    pols = tuple(int(b) for b in rng.integers(0, 2, m))
    params = (float(rng.uniform(-np.pi, np.pi)),) if kind == "MCRX" else ()
    gate = wf.Gate(kind, tuple(wires), params, pols)
    core = orc.rx(params[0]) if params else orc.PAULI["X"]
    target = orc.controlled(m + 1, wires[:-1], pols, wires[-1], core)

    def run():
        c = wf.expand_multicontrol(gate, m + 1)
        if lower:
            c = wf.to_fundamental(c)
        u = wf.unitary(c)
        block = wf.ancilla_ground_block(u, c.n_ancillas)
        return {"circuit": c, "full": u, "block": block, "distance": wf.unitary_distance(block, target)}

    def check(out):
        errs = orc.check_close(name, out["block"], target, orc.GATE_TOL, up_to_phase=True)
        tol = orc.LOWERED_LEAK_TOL if lower else orc.LEAK_TOL
        errs += orc.check_leak(name, out["full"], out["circuit"].n_ancillas, tol)
        return errs + orc.check_distance("unitary_distance", out["distance"], out["block"], target)

    props = {"data_qubits": m + 1, "controls": m, "pulses": 0}
    return Task(name, props, (2 * m,), run, check)


def _qft_task(name, n, strengths) -> Task:
    target = orc.dft(n)
    if strengths is not None:
        eps, delta, vperp = strengths[0, 0], strengths[1, 0], strengths[2]
        vperp = np.triu(vperp, 1) + np.triu(vperp, 1).T
        pulse_strengths = wf.PulseStrengths(eps, delta, vperp)

    def run():
        c = wf.build_qft_circuit(n, "fundamental")
        if strengths is None:
            u = wf.unitary(c)
            return {"circuit": c, "full": u, "distance": wf.unitary_distance(u, target)}
        pulses = wf.circuit_to_pulses(c, pulse_strengths)
        u = wf.replay_pulses(pulses, n)
        return {"circuit": c, "pulses": pulses, "full": u, "distance": wf.unitary_distance(u, target)}

    def check(out):
        tol = orc.GATE_TOL if strengths is None else orc.REPLAY_TOL
        errs = orc.check_close(name, out["full"], target, tol, up_to_phase=True)
        if strengths is not None:
            rows = [(p.term, p.qubits, p.strength, p.duration) for p in out["pulses"]]
            replayed = orc.replay_pulses(n, rows, np.eye(1 << n))
            errs += orc.check_close(f"{name} pulses", replayed, target, orc.REPLAY_TOL, up_to_phase=True)
        return errs + orc.check_distance("unitary_distance", out["distance"], out["full"], target)

    return Task(name, {"data_qubits": n}, (n,), run, check)


def _distance_task(rng) -> Task:
    """unitary_distance on 128 x 128: a random unitary against a phase-shifted,
    slightly perturbed copy of itself."""
    dim = 128
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(z)[0]
    a = rng.normal(size=(dim, dim))
    v = np.exp(1j * rng.uniform(-np.pi, np.pi)) * u @ orc.propagator((a + a.T) * 1e-4, 1.0)

    def run():
        return {"distance": wf.unitary_distance(u, v)}

    def check(out):
        return orc.check_distance("unitary_distance", out["distance"], u, v)

    task = Task("ref.unitary_distance_128", {"data_qubits": 7}, (7,), run, check)
    task.ref = ("ref.unitary_distance_128_s", "sim.unitary_distance")
    return task


# --- encode_decode ------------------------------------------------------------


def encode_decode(seed: int, tr) -> list[Task]:
    """Encode / text round trip / to_matrix / decode on dense and sparse label
    sets, single-excitation encodings, XY sectors with their collapse, and
    static coupling templates; no circuits."""
    rng = np.random.default_rng([seed, 3])
    tasks = []
    for n, p in ((16, 0.5), (20, 0.5), (24, 0.3), (32, 0.2)):
        edges = _random_edges(rng, n, p)
        onsite = tuple(float(x) for x in rng.uniform(-1.0, 1.0, n))
        build = lambda n=n, e=edges, o=onsite: tr.call("walkgraph.build", wf.WalkGraph, n, e, o)  # noqa: E731
        tasks.append(_round_trip_task(f"random{n}-p{p}", n, edges, onsite, None, build))
    for m in (3, 4, 5, 6):
        delta0 = float(rng.uniform(0.5, 1.5))
        edges = tuple((i, i ^ (1 << b), delta0) for i in range(1 << m) for b in range(m) if i < i ^ (1 << b))
        labels = [format(i, f"0{m}b") for i in range(1 << m)]
        build = lambda m=m, d=delta0: wf.build_hypercube(m, d)  # noqa: E731
        tasks.append(_round_trip_task(f"hypercube{m}", 1 << m, edges, (0.0,) * (1 << m), labels, build))
    # the boundary is fixed per lattice, not drawn: it sets the edge count
    for d, side, boundary in ((2, 3, "open"), (2, 4, "periodic"), (2, 5, "open"), (2, 6, "periodic"),
                              (2, 8, "open"), (3, 2, "open"), (3, 3, "periodic"), (4, 2, "open")):
        lat = wf.Hyperlattice(d, side, float(rng.uniform(0.5, 1.5)), boundary)
        edges = _lattice_edges(side, d, lat.delta0, lat.boundary)
        build = lambda lat=lat: wf.build_hyperlattice_graph(lat)  # noqa: E731
        tasks.append(_round_trip_task(f"lattice{d}d{side}-{boundary}", side**d, edges, (0.0,) * side**d, None, build))
    for n in (8, 10, 12, 13, 14):
        tasks.append(_single_task(tr, f"single{n}", n, rng))
    # four 6-site sectors of equal cost put the eleventh largest task, and
    # four 8-qubit templates the median task, on a plateau
    for n in (6, 6, 6, 6, 7):
        tasks.append(_sector_task(f"xy{n}-{len(tasks)}", n, rng))
    for k, n in enumerate((5, 5, 6, 6, 7, 8, 8, 8, 8)):
        tasks.append(_static_task(f"static{n}-{k}", n, rng))
    ref = _round_trip_task("ref.encode_cycle256", 256, _cycle_edges([1.0] * 256), (0.0,) * 256, None,
                           lambda: wf.build_cycle(256))
    ref.ref = ("ref.encode_cycle256_s", "encode.binary")
    return tasks + [ref]


def _round_trip_task(name, n, edges, onsite, labels, build) -> Task:
    labels = labels or _index_labels(n)
    m = len(labels[0])
    task = None

    def run():
        g = build()
        h = wf.encode_binary(g)
        parsed = wf.hamiltonian_from_text(wf.hamiltonian_to_text(h))
        mat = wf.to_matrix(parsed)
        return {"h": h, "parsed": parsed, "matrix": mat, "decoded": wf.matrix_to_walk(parsed)}

    def check(out):
        errs = orc.check_text_round_trip("pauli text", out["h"], out["parsed"])
        errs += _embedding_check("encode_binary", task, out["h"], m, labels, edges, onsite)
        want = _memo(task.memo, "walk", lambda: orc.embedded_walk(m, labels, edges, onsite))
        errs += orc.check_close("to_matrix", out["matrix"], want, orc.DECODE_TOL)
        return errs + orc.check_close("matrix_to_walk", _graph_matrix(m, out["decoded"]), want, orc.DECODE_TOL)

    task = Task(name, _graph_props(n, edges, m) | {"pulses": 0}, (m,), run, check)
    return task


def _single_task(tr, name, n, rng) -> Task:
    edges = _random_edges(rng, n, 0.4)
    onsite = tuple(float(x) for x in rng.uniform(-1.0, 1.0, n))
    want = orc.embedded_walk(_width(n), _index_labels(n), edges, onsite)[:n, :n]
    task = None

    def run():
        g = tr.call("walkgraph.build", wf.WalkGraph, n, edges, onsite)
        h = wf.encode_single_excitation(g)
        return {"h": h, "parsed": wf.hamiltonian_from_text(wf.hamiltonian_to_text(h))}

    def check(out):
        h = out["h"]
        errs = orc.check_text_round_trip("pauli text", h, out["parsed"])

        def compute():
            block, leak = orc.single_excitation_block(n, _terms(h))
            errs = orc.check_close("encode_single_excitation", block, want, orc.DECODE_TOL)
            return errs + ([f"single excitation leak {leak:.3e}"] if leak > orc.DECODE_TOL else [])

        return errs + _memo(task.memo, h.terms, compute)

    task = Task(name, _graph_props(n, edges, n) | {"label_density": n / 2**n, "pulses": 0}, (), run, check)
    return task


def _sector_task(name, n, rng) -> Task:
    bonds = tuple(float(x) for x in rng.uniform(0.5, 1.5, n - 1))
    field_h = float(rng.uniform(-1.0, 1.0))
    k = n // 2
    chain = wf.XYChain(n, bonds, field_h)
    task = None

    def run():
        g = wf.excitation_graph(chain, k)
        h = wf.encode_binary(g)
        parsed = wf.hamiltonian_from_text(wf.hamiltonian_to_text(h))
        return {"graph": g, "h": h, "parsed": parsed, "matrix": wf.to_matrix(parsed),
                "decoded": wf.matrix_to_walk(parsed), "line": wf.collapse_to_line(g, 0),
                "defect": wf.collapse_defect(g, 0)}

    def check(out):
        g = out["graph"]
        if set(g.labels) != orc.sector_labels(n, k):
            return ["excitation_graph: wrong sector states"]
        want = orc.embedded_walk(n, g.labels, g.edges, g.onsite)
        idx = [int(s, 2) for s in g.labels]

        def sector():
            cols = orc.pauli_columns(n, orc.xy_terms(n, bonds, field_h), idx)
            rest = np.ones(1 << n, dtype=bool)
            rest[idx] = False
            errs = orc.check_close("excitation_graph", cols[idx], want[np.ix_(idx, idx)], orc.DECODE_TOL)
            return errs + ([] if np.max(np.abs(cols[rest])) == 0.0 else ["xy chain leaves the sector"])

        errs = _memo(task.memo, ("sector", g), sector)
        errs += orc.check_text_round_trip("pauli text", out["h"], out["parsed"])
        errs += _embedding_check("encode_binary", task, out["h"], n, g.labels, g.edges, g.onsite)
        errs += orc.check_close("to_matrix", out["matrix"], want, orc.DECODE_TOL)
        errs += orc.check_close("matrix_to_walk", _graph_matrix(n, out["decoded"]), want, orc.DECODE_TOL)
        h_nodes = want[np.ix_(idx, idx)]
        p = orc.layer_projection(g.n_nodes, g.edges, 0)
        line = out["line"]
        line_want = p.T @ h_nodes @ p
        line_got = _graph_matrix(_width(line.n_nodes), line)[: line.n_nodes, : line.n_nodes]
        errs += orc.check_close("collapse_to_line", line_got, line_want, orc.DECODE_TOL)
        defect = float(np.max(np.abs(h_nodes @ p - p @ line_want)))
        if abs(out["defect"] - defect) > orc.DECODE_TOL:
            errs.append(f"collapse_defect {out['defect']:.6g} != {defect:.6g}")
        return errs

    task = Task(name, _sector_props(n, k), (n,), run, check)
    return task


def _sector_props(n, k) -> dict:
    nodes = len(orc.sector_labels(n, k))
    return {"nodes": nodes, "sites": n, "data_qubits": n, "label_density": nodes / 2**n, "pulses": 0}


def _static_task(name, n, rng) -> Task:
    def offdiag(symmetric):
        """Half of the off-diagonal couplings nonzero: which half is random,
        how many is fixed, so every seed decodes to the same number of edges."""
        pairs = [(a, b) for a in range(n) for b in range(n) if (a < b if symmetric else a != b)]
        out = np.zeros((n, n))
        for k in rng.choice(len(pairs), size=len(pairs) // 2, replace=False):
            out[pairs[k]] = rng.uniform(-1.0, 1.0)
        return out + out.T if symmetric else out

    fields = (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n), offdiag(False), offdiag(True), offdiag(True))
    static = wf.StaticQubitHamiltonian(n, *fields)
    task = None

    def run():
        return {"decoded": wf.static_to_walk(static)}

    def check(out):
        want = _memo(task.memo, "static", lambda: orc.static_matrix(n, *fields))
        return orc.check_close("static_to_walk", _graph_matrix(n, out["decoded"]), want, orc.DECODE_TOL)

    task = Task(name, {"nodes": 1 << n, "data_qubits": n, "label_density": 1.0, "pulses": 0}, (n,), run, check)
    return task


# --- cli_pipeline ----------------------------------------------------------------


def cli_pipeline(seed: int, tr, workdir: Path) -> list[Task]:
    """In-process walkforge.cli.main chains on files in workdir."""
    rng = np.random.default_rng([seed, 4])
    tasks = [_cli_simulate_task(workdir, f"sim-cycle{n}-s{steps}", n, steps, rng)
             for n, steps in ((8, 8), (16, 4))]
    for kind, n, steps in (
        ("line", 4, 4), ("line", 6, 4), ("line", 8, 8), ("cycle", 4, 8), ("cycle", 8, 4), ("cycle", 16, 4),
    ):
        tasks.append(_cli_verify_exact_task(workdir, f"verify-{kind}{n}-s{steps}", kind, n, steps, rng))
    # four 6-site chains of equal cost put the eleventh largest task on a plateau
    for n in (4, 5, 6, 6, 6, 6):
        tasks.append(_cli_chain_task(workdir, f"chain-xy{n}-{len(tasks)}", n, rng))
    for n in (2, 3, 4):
        tasks.append(_cli_qft_task(workdir, f"qft{n}", n))
    for spec in (["--kind", "hypercube", "--m", 2], ["--kind", "hypercube", "--m", 3], ["--kind", "hypercube", "--m", 4],
                 ["--kind", "hyperlattice", "--d", 2, "--side", 3], ["--kind", "hyperlattice", "--d", 2, "--side", 4],
                 ["--kind", "hyperlattice", "--d", 3, "--side", 2]):
        tasks.append(_cli_codec_task(workdir, "codec-" + "".join(str(x) for x in spec[1::2]), spec, rng))
    for scheme in ("binary", "single"):
        tasks.append(_cli_encode_task(f"verify-encode-{scheme}-{len(tasks)}", scheme, int(rng.integers(1 << 31))))
    for spec in (["--kind", "cnot"], ["--kind", "toffoli"], ["--kind", "swap"],
                 ["--kind", "crk", "--k", int(rng.integers(1, 6))], ["--kind", "crx", "--eps", float(rng.uniform(-1.5, 1.5))],
                 ["--kind", "mcx", "--controls", 3], ["--kind", "mcx", "--controls", 4]):
        name = "verify-" + "".join(str(x) for x in spec[1::2] if not isinstance(x, float))
        tasks.append(_cli_named_task(name, spec))
    return tasks


def cli(argv) -> str:
    """Run walkforge.cli.main in process; return its stdout, raise on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = wf.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"walkforge {argv[0]} exited {code}: {buf.getvalue().strip()[-200:]}")
    return buf.getvalue()


def _reported(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return float(line.split(" = ", 1)[1])
    raise ValueError(f"no '{key}' line in the output")


def _read_pulses(path: Path):
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:] if ln]
    return [(t, tuple(int(q) for q in qs.split()), float(s), float(d)) for t, qs, s, d in rows]


def _read_graph(path: Path):
    doc = json.loads(path.read_text())
    return doc["n"], [tuple(e) for e in doc["edges"]], doc["onsite"], doc.get("labels")


def _trotter_reference(task, text: str, t: float, steps: int):
    """Dense Trotter product of a Pauli text file, parsed independently."""
    m, terms = orc.parse_pauli_text(text)

    def compute():
        ordered = orc.diagonal_first([(c.real, s) for c, s in terms])
        return orc.trotter_product(m, ordered, t, steps), terms

    return m, _memo(task.memo, ("trotter", text), compute)


def _cli_simulate_task(workdir, name, n, steps, rng) -> Task:
    delta, eps, t = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    node = int(rng.integers(n))
    d = workdir / name
    d.mkdir(parents=True, exist_ok=True)
    g, h, c, p, amps = (d / f for f in ("g.json", "h.txt", "c.txt", "p.csv", "amps.json"))
    props = {"nodes": n, "edges": n, "label_density": 1.0, "data_qubits": _width(n), "trotter_steps": steps}
    task = None

    def run():
        cli(["graph", "build", "--kind", "cycle", "--n", n, "--delta", delta, "--eps", eps, "--out", g])
        cli(["encode", g, "--scheme", "binary", "--out", h])
        cli(["synth", "trotter", "--graph", g, "--t", t, "--steps", steps, "--out", c, "--pulses", p])
        cli(["simulate", "--circuit", c, "--state", node << 1, "--out", amps])
        return {}

    def check(out):
        m, (product, terms) = _trotter_reference(task, h.read_text(), t, steps)
        walk = orc.embedded_walk(m, _index_labels(n), _cycle_edges([delta] * n), [eps] * n)
        errs = orc.check_close("encode", orc.pauli_columns(m, terms, np.arange(1 << m)), walk, orc.DECODE_TOL)
        raw = np.array(json.loads(amps.read_text())["amps"])
        psi = raw[:, 0] + 1j * raw[:, 1]
        lines = c.read_text().splitlines()
        header = lines[0].split()
        n_anc = int(header[3])
        wires = int(header[1]) + n_anc
        props.update(gates=len(lines) - 1, ancillas=n_anc)
        errs += orc.check_close("simulate", psi[:: 1 << n_anc], product[:, node], orc.TROTTER_TOL, up_to_phase=True)
        rest = np.ones(psi.size, dtype=bool)
        rest[:: 1 << n_anc] = False
        if np.max(np.abs(psi[rest])) > orc.LEAK_TOL:
            errs.append("simulate: ancilla leak")
        def replay():
            pulses = _read_pulses(p)
            props["pulses"] = len(pulses)
            start = np.zeros(1 << wires, dtype=complex)
            start[node << n_anc] = 1.0
            return orc.replay_pulses(wires, pulses, start)

        # the replay is the costliest check; an identical file replays identically
        replayed = _memo(task.memo, ("pulses", p.read_text()), replay)
        return errs + orc.check_close("pulse csv", replayed, psi, orc.REPLAY_TOL, up_to_phase=True)

    task = Task(name, props, (), run, check)
    return task


def _cli_verify_exact_task(workdir, name, kind, n, steps, rng) -> Task:
    delta, eps, t = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))
    node = int(rng.integers(n))
    d = workdir / name
    d.mkdir(parents=True, exist_ok=True)
    g, c, amps = d / "g.json", d / "c.txt", d / "amps.json"
    m = _width(n)
    props = {"nodes": n, "edges": n if kind == "cycle" else n - 1, "label_density": n / 2**m,
             "data_qubits": m, "trotter_steps": steps, "pulses": 0}
    task = None

    def run():
        cli(["graph", "build", "--kind", kind, "--n", n, "--delta", delta, "--eps", eps, "--out", g])
        cli(["synth", "trotter", "--graph", g, "--t", t, "--steps", steps, "--out", c])
        report = cli(["verify", c, "--against", "exact", "--graph", g, "--t", t, "--tol", 1.0])
        cli(["simulate", "--graph", g, "--state", node, "--t", t, "--out", amps])
        return {"report": report}

    edges = _cycle_edges([delta] * n) if kind == "cycle" else _line_edges([delta] * (n - 1))
    walk = orc.embedded_walk(m, _index_labels(n), edges, [eps] * n)

    def check(out):
        exact = _memo(task.memo, "exact", lambda: orc.propagator(walk, t))
        props["gates"] = len(c.read_text().splitlines()) - 1
        product = _memo(task.memo, "trotter", lambda: orc.trotter_product(
            m, orc.diagonal_first([(x.real, s) for x, s in orc.pauli_decompose(walk, m)]), t, steps))
        errs = orc.check_distance("verify", _reported(out["report"], "max deviation"), product, exact)
        raw = np.array(json.loads(amps.read_text())["amps"])
        got = raw[:, 0] + 1j * raw[:, 1]
        return errs + orc.check_close("simulate --graph", got, exact[:n, node], orc.PROPAGATOR_TOL)

    task = Task(name, props, (m + 1, m), run, check)
    return task


def _cli_chain_task(workdir, name, n, rng) -> Task:
    bonds = [float(x) for x in rng.uniform(0.5, 1.5, n - 1)]
    field_h = float(rng.uniform(-1.0, 1.0))
    k = n // 2
    d = workdir / name
    d.mkdir(parents=True, exist_ok=True)
    sector, line, text, decoded = d / "sector.json", d / "line.json", d / "s.txt", d / "d.json"
    props = _sector_props(n, k)

    def run():
        report = cli(["chain", "xy", "--n", n, "--j", *bonds, "--h", field_h, "--sector", k, "--collapse",
                      "--out", sector, "--collapsed-out", line])
        cli(["encode", sector, "--scheme", "binary", "--out", text])
        cli(["decode", text, "--out", decoded])
        return {"report": report}

    def check(out):
        n_nodes, edges, onsite, labels = _read_graph(sector)
        if set(labels) != orc.sector_labels(n, k):
            return ["chain xy: wrong sector states"]
        idx = [int(s, 2) for s in labels]
        want = orc.embedded_walk(n, labels, edges, onsite)
        cols = orc.pauli_columns(n, orc.xy_terms(n, bonds, field_h), idx)
        errs = orc.check_close("chain xy", cols[idx], want[np.ix_(idx, idx)], orc.DECODE_TOL)
        m, terms = orc.parse_pauli_text(text.read_text())
        errs += orc.check_close("encode", orc.pauli_columns(m, terms, np.arange(1 << m)), want, orc.DECODE_TOL)
        dn, dedges, donsite, dlabels = _read_graph(decoded)
        errs += orc.check_close("decode", orc.embedded_walk(n, dlabels, dedges, donsite), want, orc.DECODE_TOL)
        h_nodes = want[np.ix_(idx, idx)]
        p = orc.layer_projection(n_nodes, edges, 0)
        ln, ledges, lonsite, _ = _read_graph(line)
        line_want = p.T @ h_nodes @ p
        got = orc.embedded_walk(_width(ln), _index_labels(ln), ledges, lonsite)[:ln, :ln]
        errs += orc.check_close("collapse", got, line_want, orc.DECODE_TOL)
        defect = float(np.max(np.abs(h_nodes @ p - p @ line_want)))
        if abs(_reported(out["report"], "collapse defect") - defect) > orc.DECODE_TOL:
            errs.append("chain xy: collapse defect differs")
        return errs

    return Task(name, props, (n,), run, check)


def _cli_qft_task(workdir, name, n) -> Task:
    d = workdir / name
    d.mkdir(parents=True, exist_ok=True)
    circuit, pulses = d / "q.txt", d / "q.csv"
    target = orc.dft(n)
    props = {"data_qubits": n}

    def run():
        cli(["synth", "qft", "--n", n, "--level", "fundamental", "--out", circuit, "--pulses", pulses])
        return {"report": cli(["verify", circuit, "--against", "oracle", "--kind", "qft", "--n", n])}

    def check(out):
        rows = _read_pulses(pulses)
        props.update(pulses=len(rows), gates=len(circuit.read_text().splitlines()) - 1)
        replayed = orc.replay_pulses(n, rows, np.eye(1 << n))
        errs = orc.check_close("qft pulse csv", replayed, target, orc.REPLAY_TOL, up_to_phase=True)
        if not _reported(out["report"], "max deviation") <= orc.GATE_TOL:
            errs.append("verify --kind qft: deviation above tolerance")
        return errs

    return Task(name, props, (n,), run, check)


def _cli_codec_task(workdir, name, spec, rng) -> Task:
    """graph build -> encode -> decode: the decoded graph must be the built one."""
    delta = float(rng.uniform(0.5, 1.5))
    d = workdir / name
    d.mkdir(parents=True, exist_ok=True)
    g, text, decoded = d / "g.json", d / "h.txt", d / "d.json"
    props = {"pulses": 0}

    def run():
        cli(["graph", "build", *spec, "--delta", delta, "--out", g])
        cli(["encode", g, "--scheme", "binary", "--out", text])
        cli(["decode", text, "--out", decoded])
        return {}

    def check(out):
        if spec[1] == "hypercube":
            m = spec[3]
            edges = [(i, i ^ (1 << b), delta) for i in range(1 << m) for b in range(m) if i < i ^ (1 << b)]
            n_nodes = 1 << m
        else:
            edges = _lattice_edges(spec[5], spec[3], delta, "open")
            n_nodes = spec[5] ** spec[3]
        m = _width(n_nodes)
        want = orc.embedded_walk(m, _index_labels(n_nodes), edges, [0.0] * n_nodes)
        props.update(_graph_props(n_nodes, edges, m))
        dn, dedges, donsite, dlabels = _read_graph(decoded)
        return orc.check_close("decode", orc.embedded_walk(m, dlabels, dedges, donsite), want, orc.DECODE_TOL)

    return Task(name, props, (), run, check)


def _cli_named_task(name, spec) -> Task:
    """verify --kind NAME: the library's own verdict on a named decomposition."""

    def run():
        return {"report": cli(["verify", *spec, "--tol", orc.GATE_TOL])}

    def check(out):
        dev = _reported(out["report"], "max deviation")
        return [] if dev <= orc.GATE_TOL else [f"verify {spec[1]}: deviation {dev:.3e}"]

    wires = 2 * spec[3] if spec[1] == "mcx" else 3
    return Task(name, {"pulses": 0}, (wires,), run, check)


# verify --kind encode --random draws each graph's size from its seed, between
# 2 and --max-nodes nodes; many small graphs keep the task's cost and memory
# nearly the same for every seed.
ENCODE_GRAPHS = 24
ENCODE_MAX_NODES = 6


def _cli_encode_task(name, scheme, seed) -> Task:
    def run():
        return {"report": cli(["verify", "--kind", "encode", "--scheme", scheme, "--random", ENCODE_GRAPHS,
                               "--max-nodes", ENCODE_MAX_NODES, "--seed", seed, "--tol", orc.DECODE_TOL])}

    def check(out):
        dev = _reported(out["report"], "max deviation")
        return [] if dev <= orc.DECODE_TOL else [f"verify --kind encode: deviation {dev:.3e}"]

    return Task(name, {"graphs": ENCODE_GRAPHS, "pulses": 0}, (ENCODE_MAX_NODES,), run, check)


WORKLOADS = {
    "trotter_verify": "graphs through encode, Trotter synthesis and full-register unitaries, against exact propagators",
    "gate_oracle": "few gates on wide registers: MCX/MCRX ladders, decompositions and the QFT with pulse replay",
    "encode_decode": "Pauli encode, text round trip, to_matrix and decode on dense and sparse labels; no circuits",
    "cli_pipeline": "in-process CLI chains over JSON, Pauli text, circuit text and pulse CSV files",
}


def build(workload: str, seed: int, tr, workdir: Path) -> list[Task]:
    if workload == "cli_pipeline":
        return cli_pipeline(seed, tr, workdir)
    return {"trotter_verify": trotter_verify, "gate_oracle": gate_oracle, "encode_decode": encode_decode}[workload](seed, tr)
