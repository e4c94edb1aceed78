"""Command-line front end: build graphs, encode/decode Hamiltonians, reduce
chains, synthesize circuits, and verify everything against dense oracles.

Exit codes: 0 success, 1 verification failure, 2 parse/usage errors. All
numeric output uses 17 significant digits so emitted files round-trip
bit-exactly through their parsers.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    ancilla_ground_block,
    apply as circuit_apply,
    circuit_from_text,
    circuit_to_text,
    gate_conventions,
    unitary,
)
from .decode import StaticQubitHamiltonian, matrix_to_walk, static_to_walk
from .encode import (
    EncodingSpec,
    _binary_labels,
    _gray_node_labels,
    _index_labels,
    encode_binary,
    encode_single_excitation,
)
from .gatelib import (
    decompose_cnot,
    decompose_controlled_rk,
    decompose_controlled_rx,
    decompose_swap,
    decompose_toffoli,
    expand_multicontrol,
)
from .pauli import hamiltonian_from_text, hamiltonian_to_text, to_matrix
from .sim import _distance_and_phase, basis_state, evolve_walk, exact_propagator
from .spinchain import (
    XYChain,
    collapse_defect,
    collapse_to_line,
    distance_layers,
    excitation_graph,
    jordan_wigner_walk,
)
from .synth import (
    TrotterPlan,
    build_qft_circuit,
    circuit_to_pulses,
    pulses_to_csv,
    qft_reference,
    synth_line_walk_step,
    to_fundamental,
    trotterize,
    uniform_strengths,
)
from .walkgraph import (
    Hyperlattice,
    WalkGraph,
    _is_number,
    _json_document,
    build_cycle,
    build_hypercube,
    build_hyperlattice_graph,
    build_line,
    graph_from_json,
    graph_to_json,
    walk_matrix,
)

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> WalkGraph:
    return graph_from_json(Path(path).read_text())


def _cmd_graph(args) -> int:
    if args.kind == "line":
        g = build_line(args.n, deltas=args.delta, eps=args.eps)
    elif args.kind == "cycle":
        g = build_cycle(args.n, deltas=args.delta, eps=args.eps)
    elif args.kind == "hypercube":
        g = build_hypercube(args.m, delta0=args.delta)
    else:
        lat = Hyperlattice(args.d, args.side, delta0=args.delta, boundary=args.boundary)
        g = build_hyperlattice_graph(lat)
    _emit(graph_to_json(g), args.out)
    return 0


def _cmd_encode(args) -> int:
    g = _load_graph(args.graph)
    if args.scheme == "single":
        h = encode_single_excitation(g)
    else:
        labeling = {"gray": _gray_node_labels, "index": _index_labels}.get(args.labeling)
        h = encode_binary(g, EncodingSpec("binary", labeling(g.n_nodes)) if labeling else None)
    _emit(hamiltonian_to_text(h), args.out)
    return 0


def _is_table(x, depth: int) -> bool:
    """A JSON list nested depth deep whose leaves are numbers (not booleans)."""
    if depth == 0:
        return _is_number(x)
    return isinstance(x, list) and all(_is_table(v, depth - 1) for v in x)


def _load_static(path: str) -> StaticQubitHamiltonian:
    raw = _json_document(Path(path).read_text(), "static parameter file")
    fields = ("n", "eps", "delta", "chi", "vperp", "vpar")
    if not isinstance(raw, dict) or set(raw) != set(fields):
        raise ValueError(f"static parameter file must have exactly the fields {sorted(fields)}")
    if not _is_number(raw["n"], int):
        raise ValueError("static parameter 'n' must be an integer")
    for f, depth in zip(fields[1:], (1, 1, 2, 2, 2)):
        if not _is_table(raw[f], depth):
            shape = "list" if depth == 1 else "matrix"
            raise ValueError(f"static parameter '{f}' must be a {shape} of numbers")
    return StaticQubitHamiltonian(*(raw[f] for f in fields))


def _cmd_decode(args) -> int:
    if (args.static is None) == (args.pauli is None):
        raise ValueError("decode needs either --static params.json or a pauli text file")
    if args.static:
        g = static_to_walk(_load_static(args.static))
    else:
        g = matrix_to_walk(hamiltonian_from_text(Path(args.pauli).read_text()))
    _emit(graph_to_json(g), args.out)
    return 0


def _cmd_chain(args) -> int:
    j = args.j[0] if len(args.j) == 1 else tuple(args.j)
    chain = XYChain(args.n, j, args.h)
    if args.sector is None:
        result = jordan_wigner_walk(chain)
        g = result.graph
        if args.out:
            _emit(graph_to_json(g), args.out)
            print(f"offset = {_fmt(result.offset)}")
        else:
            _emit(graph_to_json(g), None)
        return 0
    g = excitation_graph(chain, args.sector)
    if not args.collapse:
        _emit(graph_to_json(g), args.out)
        return 0
    if args.out:
        _emit(graph_to_json(g), args.out)
    layers = distance_layers(g, args.start)
    line = collapse_to_line(g, args.start)
    defect = collapse_defect(g, args.start)
    print(f"sector nodes = {g.n_nodes}")
    print("layer sizes = " + " ".join(str(len(layer)) for layer in layers))
    for k, (_, _, delta) in enumerate(line.edges, start=1):
        print(f"coupling {k} = {_fmt(delta)}")
    for k, eps in enumerate(line.onsite, start=1):
        print(f"onsite {k} = {_fmt(eps)}")
    print(f"collapse defect = {_fmt(defect)}")
    if args.collapsed_out:
        _emit(graph_to_json(line), args.collapsed_out)
    return 0


def _cmd_synth(args) -> int:
    if args.target == "trotter":
        if not args.graph:
            raise ValueError("synth trotter needs --graph")
        g = _load_graph(args.graph)
        h = encode_single_excitation(g) if args.encoding == "single" else encode_binary(g)
        c = trotterize(h, args.t, TrotterPlan(args.steps, args.ordering))
    elif args.target == "line-step":
        c = synth_line_walk_step(
            args.n, args.eps, delta0=args.delta, cycle=args.cycle, expand=not args.no_expand
        )
    else:
        c = build_qft_circuit(args.n, args.level)
    _emit(circuit_to_text(c), args.out)
    if args.pulses:
        fundamental = to_fundamental(c)
        pulses = circuit_to_pulses(fundamental, uniform_strengths(fundamental.n_wires))
        Path(args.pulses).write_text(pulses_to_csv(pulses))
    return 0


def _random_graph(rng: np.random.Generator, max_nodes: int) -> WalkGraph:
    n = int(rng.integers(2, max_nodes + 1))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((i, j, float(rng.uniform(-2.0, 2.0)) or 1.0))
    onsite = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n))
    return WalkGraph(n, tuple(edges), onsite)


def _encode_deviation(g: WalkGraph, scheme: str) -> float:
    target = walk_matrix(g)
    if scheme == "single":
        mat = to_matrix(encode_single_excitation(g))
        idx = [1 << (g.n_nodes - 1 - j) for j in range(g.n_nodes)]
        got = mat[np.ix_(idx, idx)]
        return float(np.max(np.abs(got - target)))
    h = encode_binary(g)
    mat = to_matrix(h)
    m = h.m_qubits
    idx = [int(s, 2) for s in _binary_labels(g)]
    got = mat[np.ix_(idx, idx)]
    dev = float(np.max(np.abs(got - target)))
    rest = np.ones(1 << m, dtype=bool)
    rest[idx] = False
    dev = max(dev, float(np.max(np.abs(mat[rest, :]))) if rest.any() else 0.0)
    return dev


def _unitary_report(label: str, got: np.ndarray, want: np.ndarray) -> tuple[str, float, list[str]]:
    """Phase-minimized distance plus the phase used and the worst entry, as bit labels."""
    dev, phase = _distance_and_phase(got, want)
    row, col = divmod(int(np.argmax(np.abs(got - np.exp(1j * phase) * want))), got.shape[0])
    bits = _index_labels(got.shape[0])
    return label, dev, [f"phase = {_fmt(phase)}", f"worst entry = row {bits[row]} col {bits[col]}"]


def _mcx_gate(controls: int) -> Gate:
    return Gate("MCX", tuple(range(1, controls + 2)), (), (1,) * controls)


# verify kind -> (circuit builder, oracle matrix), each a function of the parsed
# arguments; the lambdas look library names up at call time
_VERIFY_KINDS = {
    "cnot": (lambda a: decompose_cnot(), lambda a: gate_conventions()["CNOT"]),
    "toffoli": (lambda a: decompose_toffoli(), lambda a: gate_conventions()["TOFFOLI"]),
    "swap": (lambda a: decompose_swap(), lambda a: gate_conventions()["SWAP"]),
    "crk": (lambda a: decompose_controlled_rk(a.k), lambda a: gate_conventions()["CRK"](a.k)),
    "crx": (
        lambda a: decompose_controlled_rx(a.eps),
        lambda a: gate_conventions()["CRX"](2.0 * a.eps),
    ),
    "mcx": (
        lambda a: expand_multicontrol(_mcx_gate(a.controls), a.controls + 1),
        lambda a: unitary(Circuit(a.controls + 1, 0, (_mcx_gate(a.controls),))),
    ),
    "qft": (lambda a: build_qft_circuit(a.n, "fundamental"), lambda a: qft_reference(a.n)),
}


def _verify_deviation(args) -> tuple[str, float, list[str]]:
    """Label, max deviation and the diagnostic lines printed after it."""
    if args.kind == "encode":
        if args.random:
            rng = np.random.default_rng(args.seed)
            dev = 0.0
            for _ in range(args.random):
                g = _random_graph(rng, args.max_nodes)
                dev = max(dev, _encode_deviation(g, args.scheme))
            return f"encode {args.scheme} x{args.random}", dev, []
        if not args.graph:
            raise ValueError("verify --kind encode needs --graph or --random")
        return f"encode {args.scheme}", _encode_deviation(_load_graph(args.graph), args.scheme), []

    if not args.circuit and args.kind is None:
        raise ValueError("verify needs a circuit file or --kind")
    if args.against == "exact":
        if not args.graph:
            raise ValueError("verify --against exact needs --graph")
        g = _load_graph(args.graph)
    elif args.kind is None:
        raise ValueError("verify --against oracle needs --kind")
    if args.circuit:
        c = circuit_from_text(Path(args.circuit).read_text())
    else:
        c = _VERIFY_KINDS[args.kind][0](args)
    got = ancilla_ground_block(unitary(c), c.n_ancillas)

    if args.against == "exact":
        h = encode_single_excitation(g) if args.scheme == "single" else encode_binary(g)
        want = exact_propagator(to_matrix(h), args.t)
        return _unitary_report(f"circuit vs exact propagator t={_fmt(args.t)}", got, want)
    return _unitary_report(args.kind, got, _VERIFY_KINDS[args.kind][1](args))


def _cmd_verify(args) -> int:
    label, dev, diagnostics = _verify_deviation(args)
    print(f"kind = {label}")
    print(f"max deviation = {_fmt(dev)}")
    for line in diagnostics:
        print(line)
    print(f"tolerance = {_fmt(args.tol)}")
    if dev <= args.tol:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def _cmd_simulate(args) -> int:
    if (args.graph is None) == (args.circuit is None):
        raise ValueError("simulate needs exactly one of --graph or --circuit")
    if args.graph:
        g = _load_graph(args.graph)
        psi = basis_state(g.n_nodes, args.state)
        out = evolve_walk(g, psi, args.t)
    else:
        c = circuit_from_text(Path(args.circuit).read_text())
        psi = basis_state(1 << c.n_wires, args.state)
        out = circuit_apply(c, psi)
    payload = {"amps": [[float(a.real), float(a.imag)] for a in out.amps]}
    _emit(json.dumps(payload, indent=None), args.out)
    return 0


@functools.cache  # parse_args makes a fresh namespace per call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="walkforge", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("graph", help="build standard walk graphs")
    gsub = g.add_subparsers(dest="graph_cmd", required=True)
    gb = gsub.add_parser("build", help="emit a graph as JSON")
    gb.add_argument("--kind", required=True, choices=["line", "cycle", "hypercube", "hyperlattice"])
    gb.add_argument("--n", type=int, default=2, help="node count (line/cycle)")
    gb.add_argument("--m", type=int, default=3, help="hypercube dimension")
    gb.add_argument("--d", type=int, default=1, help="hyperlattice dimension")
    gb.add_argument("--side", type=int, default=2, help="hyperlattice side length")
    gb.add_argument("--delta", type=float, default=1.0, help="uniform hop amplitude")
    gb.add_argument("--eps", type=float, default=0.0, help="uniform onsite energy")
    gb.add_argument("--boundary", choices=["open", "periodic"], default="open")
    gb.add_argument("--out")
    gb.set_defaults(func=_cmd_graph)

    e = sub.add_parser("encode", help="walk graph to Pauli Hamiltonian text")
    e.add_argument("graph", help="graph JSON file")
    e.add_argument("--scheme", required=True, choices=["single", "binary"])
    e.add_argument("--labeling", choices=["auto", "gray", "index"], default="auto")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_encode)

    d = sub.add_parser("decode", help="qubit Hamiltonian back to a walk graph")
    d.add_argument("pauli", nargs="?", help="pauli text file")
    d.add_argument("--static", help="static coupling template JSON file")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_decode)

    ch = sub.add_parser("chain", help="XY chain reductions")
    chsub = ch.add_subparsers(dest="chain_cmd", required=True)
    xy = chsub.add_parser("xy", help="JW path, excitation sectors, column collapse")
    xy.add_argument("--n", type=int, required=True)
    xy.add_argument("--j", type=float, nargs="+", default=[1.0])
    xy.add_argument("--h", type=float, default=0.0)
    xy.add_argument("--sector", type=int, default=None)
    xy.add_argument("--collapse", action="store_true")
    xy.add_argument("--start", type=int, default=0, help="collapse start node")
    xy.add_argument("--out", help="graph JSON destination")
    xy.add_argument("--collapsed-out", dest="collapsed_out", help="collapsed chain JSON destination")
    xy.set_defaults(func=_cmd_chain)

    s = sub.add_parser("synth", help="circuit synthesis")
    s.add_argument("target", choices=["trotter", "line-step", "qft"])
    s.add_argument("--graph", help="graph JSON (trotter)")
    s.add_argument("--encoding", choices=["single", "binary"], default="binary")
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--steps", type=int, default=16)
    s.add_argument("--ordering", choices=["diagonal-first", "given"], default="diagonal-first")
    s.add_argument("--n", type=int, default=3, help="qubit count (line-step/qft)")
    s.add_argument("--eps", type=float, default=0.1, help="angle per step (line-step)")
    s.add_argument("--delta", type=float, default=1.0, help="hop amplitude (line-step)")
    s.add_argument("--cycle", action="store_true")
    s.add_argument("--no-expand", dest="no_expand", action="store_true")
    s.add_argument("--level", choices=["named_gates", "fundamental"], default="named_gates")
    s.add_argument("--pulses", help="also compile to a pulse CSV at this path")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_synth)

    v = sub.add_parser("verify", help="compare circuits/encodings to dense oracles")
    v.add_argument("circuit", nargs="?", help="circuit text file (default: freshly built)")
    v.add_argument("--against", choices=["oracle", "exact"], default="oracle")
    v.add_argument(
        "--kind",
        choices=[*_VERIFY_KINDS, "encode"],
        help="named oracle; omit when checking a circuit file --against exact",
    )
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--eps", type=float, default=np.pi / 8)
    v.add_argument("--controls", type=int, default=6)
    v.add_argument("--graph")
    v.add_argument("--scheme", choices=["single", "binary"], default="binary")
    v.add_argument("--t", type=float, default=1.0)
    v.add_argument("--random", type=int, default=0, help="check this many random graphs")
    v.add_argument("--max-nodes", dest="max_nodes", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=_cmd_verify)

    si = sub.add_parser("simulate", help="evolve a state under a graph or circuit")
    si.add_argument("--graph")
    si.add_argument("--circuit")
    si.add_argument("--state", type=int, default=0, help="basis state index")
    si.add_argument("--t", type=float, default=1.0)
    si.add_argument("--out")
    si.set_defaults(func=_cmd_simulate)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
