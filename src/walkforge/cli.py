"""Command-line front end: build graphs, encode/decode Hamiltonians, reduce
chains, synthesize circuits, and verify everything against dense oracles.

Exit codes: 0 success, 1 verification failure, 2 parse/usage errors and out
of memory. All numeric output uses 17 significant digits so emitted files
round-trip bit-exactly through their parsers.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._config import check_qubit_count, check_width
from .circuit import (
    Gate,
    _format_num,
    ancilla_ground_block,
    apply as circuit_apply,
    circuit_from_text,
    circuit_to_text,
    gate_conventions,
    unitary,
)
from .decode import StaticQubitHamiltonian, matrix_to_walk, static_to_walk
from .encode import (
    _binary_index,
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
from .pauli import PauliHamiltonian, hamiltonian_from_text, hamiltonian_to_text, to_matrix
from .sim import _distance_and_phase, basis_state, evolve_walk, exact_propagator
from .spinchain import (
    XYChain,
    _defect,
    _line,
    _project,
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


def _hamiltonian(g: WalkGraph, scheme: str, labeling: str = "auto") -> PauliHamiltonian:
    """The walk's qubit Hamiltonian under scheme; labeling (binary only) picks
    the node labels, "auto" the graph's own or the encoder's default."""
    if scheme == "single":
        if labeling != "auto":
            raise ValueError(f"--labeling {labeling} applies to --scheme binary only")
        return encode_single_excitation(g)
    labeler = {"gray": _gray_node_labels, "index": _index_labels}.get(labeling)
    return encode_binary(g, labeler(g.n_nodes) if labeler else None)


def _cmd_encode(args) -> int:
    h = _hamiltonian(_load_graph(args.graph), args.scheme, args.labeling)
    _emit(hamiltonian_to_text(h), args.out)
    return 0


def _load_static(path: str) -> StaticQubitHamiltonian:
    raw = _json_document(Path(path).read_text(), "static parameter file")
    fields = ("n", "eps", "delta", "chi", "vperp", "vpar")
    if not isinstance(raw, dict) or set(raw) != set(fields):
        raise ValueError(f"static parameter file must have exactly the fields {sorted(fields)}")
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
        _emit(graph_to_json(result.graph), args.out)
        if args.out:
            print(f"offset = {_format_num(result.offset)}")
        return 0
    g = excitation_graph(chain, args.sector)
    if not args.collapse:
        _emit(graph_to_json(g), args.out)
        return 0
    h, layers, p, m = _project(g, args.start)
    line, defect = _line(m), _defect(h, p, m)
    if args.out:
        _emit(graph_to_json(g), args.out)
    print(f"sector nodes = {g.n_nodes}")
    print("layer sizes = " + " ".join(str(len(layer)) for layer in layers))
    for k, (_, _, delta) in enumerate(line.edges, start=1):
        print(f"coupling {k} = {_format_num(delta)}")
    for k, eps in enumerate(line.onsite, start=1):
        print(f"onsite {k} = {_format_num(eps)}")
    print(f"collapse defect = {_format_num(defect)}")
    if args.collapsed_out:
        _emit(graph_to_json(line), args.collapsed_out)
    return 0


def _cmd_synth(args) -> int:
    if args.target == "trotter":
        if not args.graph:
            raise ValueError("synth trotter needs --graph")
        h = _hamiltonian(_load_graph(args.graph), args.scheme)
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
    mat = to_matrix(_hamiltonian(g, scheme))
    if scheme == "single":
        idx = [1 << (g.n_nodes - 1 - j) for j in range(g.n_nodes)]
        got = mat[np.ix_(idx, idx)]
        return float(np.max(np.abs(got - target)))
    m, idx = _binary_index(g)
    got = mat[np.ix_(idx, idx)]
    dev = float(np.max(np.abs(got - target)))
    rest = np.ones(1 << m, dtype=bool)
    rest[idx] = False
    dev = max(dev, float(np.max(np.abs(mat[rest, :]))) if rest.any() else 0.0)
    return dev


def _unitary_report(label: str, got: np.ndarray, want: np.ndarray) -> tuple[str, float, list[str]]:
    """Phase-minimized distance plus the phase used and the worst entry, as bit labels."""
    dev, phase, worst = _distance_and_phase(got, want)
    row, col = divmod(worst, got.shape[0])
    bits = _index_labels(got.shape[0])
    return label, dev, [f"phase = {_format_num(phase)}", f"worst entry = row {bits[row]} col {bits[col]}"]


def _mcx_gate(controls: int) -> Gate:
    return Gate("MCX", tuple(range(1, controls + 2)), (), (1,) * controls)


def _mcx_oracle(controls: int) -> np.ndarray:
    """The all-up MCX of _mcx_gate by index arithmetic: the identity with its last two rows swapped."""
    u = np.eye(2 << controls, dtype=complex)
    u[[-2, -1]] = u[[-1, -2]]
    return u


# verify kind -> (data width, circuit builder, oracle matrix), each a function
# of the parsed arguments; the lambdas look library names up at call time
_VERIFY_KINDS = {
    "cnot": (lambda a: 2, lambda a: decompose_cnot(), lambda a: gate_conventions()["CNOT"]),
    "toffoli": (lambda a: 3, lambda a: decompose_toffoli(), lambda a: gate_conventions()["TOFFOLI"]),
    "swap": (lambda a: 2, lambda a: decompose_swap(), lambda a: gate_conventions()["SWAP"]),
    "crk": (lambda a: 2, lambda a: decompose_controlled_rk(a.k), lambda a: gate_conventions()["CRK"](a.k)),
    "crx": (
        lambda a: 2,
        lambda a: decompose_controlled_rx(a.eps),
        lambda a: gate_conventions()["CRX"](2.0 * a.eps),
    ),
    "mcx": (
        lambda a: a.controls + 1,
        lambda a: expand_multicontrol(_mcx_gate(a.controls), a.controls + 1),
        lambda a: _mcx_oracle(a.controls),
    ),
    "qft": (lambda a: a.n, lambda a: build_qft_circuit(a.n, "fundamental"), lambda a: qft_reference(a.n)),
}


def _verify_deviation(args) -> tuple[str, float, list[str]]:
    """Label, max deviation and the diagnostic lines printed after it."""
    if args.kind == "encode":
        if args.random < 0:
            raise ValueError("verify --random needs a nonnegative graph count")
        if args.random:
            if args.max_nodes < 2:
                raise ValueError("verify --max-nodes must be at least 2 with --random")
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
    # the reference side first: its data width now, its matrix only when needed
    if args.against == "exact":
        if not args.graph:
            raise ValueError("verify --against exact needs --graph")
        h = _hamiltonian(_load_graph(args.graph), args.scheme)
        label, width = f"circuit vs exact propagator t={_format_num(args.t)}", h.m_qubits
        reference = lambda: exact_propagator(to_matrix(h), args.t)
    elif args.kind is None:
        raise ValueError("verify --against oracle needs --kind")
    else:
        label, width = args.kind, _VERIFY_KINDS[args.kind][0](args)
        reference = lambda: _VERIFY_KINDS[args.kind][2](args)
    check_qubit_count(width, "circuit unitary")
    # a kind's circuit is compared by its width before it is built, a file after parsing
    c = circuit_from_text(Path(args.circuit).read_text()) if args.circuit else None
    got = _VERIFY_KINDS[args.kind][0](args) if c is None else c.n_qubits
    if got != width:
        raise ValueError(f"circuit has {got} data qubit(s) but its reference acts on {width}")
    if c is None:
        c = _VERIFY_KINDS[args.kind][1](args)
    # the circuit's cap, then the reference (which checks its own range), then
    # the unitary: neither matrix is built when the other side would refuse
    check_qubit_count(c.n_wires, "circuit unitary")
    want = reference()
    return _unitary_report(label, ancilla_ground_block(unitary(c), c.n_ancillas), want)


def _cmd_verify(args) -> int:
    if not 0.0 <= args.tol < math.inf:  # NaN fails too
        raise ValueError("verify --tol must be finite and nonnegative")
    label, dev, diagnostics = _verify_deviation(args)
    print(f"kind = {label}")
    print(f"max deviation = {_format_num(dev)}")
    for line in diagnostics:
        print(line)
    print(f"tolerance = {_format_num(args.tol)}")
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
        check_width(c.n_wires, "circuit simulation")
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
    e.add_argument("--labeling", choices=["auto", "gray", "index"], default="auto", help="binary only")
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
    s.add_argument("--scheme", choices=["single", "binary"], default="binary")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
