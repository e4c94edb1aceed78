"""Spans around walkforge's public functions, recorded from outside the package.

``Tracer.install`` rebinds each traced function, in every walkforge module
namespace that holds it, to a wrapper that records one span per call: name,
start, end, parent span and task id. Calls made inside the package go
through those namespaces too, so nested spans (``to_fundamental`` calling
``expand_to_basic``) appear as children. Spans stay in memory; the report
derives busy time, self time and call counts per layer from them.

Counts are computed from the sizes of a call's inputs and outputs, never
timed, so they repeat exactly for one seed.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# metric stem -> (module, function names). The layer is the part before the dot.
TRACED = {
    "walkgraph.build": ("walkgraph", ("build_line", "build_cycle", "build_hypercube", "build_hyperlattice_graph")),
    "walkgraph.walk_matrix": ("walkgraph", ("walk_matrix",)),
    "walkgraph.json": ("walkgraph", ("graph_to_json", "graph_from_json")),
    "pauli.to_matrix": ("pauli", ("to_matrix",)),
    "pauli.text": ("pauli", ("hamiltonian_to_text", "hamiltonian_from_text")),
    "encode.binary": ("encode", ("encode_binary",)),
    "encode.single": ("encode", ("encode_single_excitation",)),
    "decode.matrix_to_walk": ("decode", ("matrix_to_walk",)),
    "decode.static_to_walk": ("decode", ("static_to_walk",)),
    "circuit.unitary": ("circuit", ("unitary",)),
    "circuit.apply": ("circuit", ("apply",)),
    "circuit.text": ("circuit", ("circuit_to_text", "circuit_from_text")),
    "gatelib.expand": ("gatelib", ("expand_multicontrol",)),
    "gatelib.decompose": (
        "gatelib",
        (
            "decompose_cnot",
            "decompose_toffoli",
            "decompose_controlled_rx",
            "decompose_cphase",
            "decompose_controlled_rk",
            "decompose_swap",
        ),
    ),
    "synth.trotterize": ("synth", ("trotterize",)),
    "synth.lower": ("synth", ("expand_to_basic", "to_fundamental", "build_qft_circuit")),
    "synth.pulses": ("synth", ("circuit_to_pulses",)),
    "synth.replay": ("synth", ("replay_pulses",)),
    "synth.exact_propagator": ("synth", ("exact_propagator",)),
    "spinchain.sector": ("spinchain", ("excitation_graph",)),
    "spinchain.collapse": ("spinchain", ("collapse_to_line", "collapse_defect")),
    "sim.unitary_distance": ("sim", ("unitary_distance",)),
    "sim.evolve": ("sim", ("evolve_walk",)),
    "cli": ("cli", ("main",)),
}

CLI_COMMANDS = ("graph", "encode", "decode", "chain", "synth", "verify", "simulate")
LAYERS = ("walkgraph", "pauli", "encode", "decode", "circuit", "gatelib", "synth", "spinchain", "sim", "cli")
BUSY = [stem for stem in TRACED if stem != "cli"] + [f"cli.{c}" for c in CLI_COMMANDS]
COUNTS = ("pauli.terms", "circuit.gates", "circuit.amp_updates", "synth.replay_eigh_dim")


def _circuit_counts(c, columns: int) -> dict:
    dim = 1 << c.n_wires
    gates = len(c.gates)
    return {
        "circuit.gates": gates,
        "circuit.amp_updates": gates * dim * columns,
        "circuit.useful_amp_updates": gates * dim * (1 << c.n_qubits) if columns == dim else 0,
        "circuit.unitary_amp_updates": gates * dim * columns if columns == dim else 0,
    }


def _counts(stem: str, args, out) -> dict | None:
    if stem == "circuit.unitary":
        return _circuit_counts(args[0], 1 << args[0].n_wires)
    if stem == "circuit.apply":
        return _circuit_counts(args[0], 1)
    if stem in ("encode.binary", "encode.single"):
        return {"pauli.terms": len(out.terms)}
    if stem == "synth.replay":
        return {"synth.replay_eigh_dim": len(args[0]) * (1 << args[1])}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "error")

    def __init__(self, name, parent, task):
        self.name, self.parent, self.task = name, parent, task
        self.start = self.end = 0.0
        self.error = False


class Tracer:
    """Records spans while ``active``; a task id groups the spans of one task."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.task = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Rebind every traced function in every loaded walkforge namespace."""
        originals = {}
        for stem, (module, names) in TRACED.items():
            mod = sys.modules[f"walkforge.{module}"]
            for name in names:
                fn = getattr(mod, name)
                originals[id(fn)] = self._wrap(stem, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "walkforge" and not modname.startswith("walkforge."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, stem, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = stem if stem != "cli" else f"cli.{args[0][0]}"
            out = tracer.call(name, fn, *args, **kwargs)
            counts = _counts(stem, args, out) if tracer.active else None
            for key, value in (counts or {}).items():
                tracer.counts[key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn, recording a span while the tracer is active."""
        if not self.active:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else None, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def report(spans: list[Span], counts: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Busy time of a metric sums its spans that are not nested in a span of
    the same name; a layer's self time sums its spans' durations minus the
    time their direct children cover.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    for k, s in enumerate(spans):
        layer = layer_of(s.name)
        calls[layer] += 1
        errors[layer] += s.error
        dur = s.end - s.start
        self_time[layer] += dur - child_time[k]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            busy[s.name] += dur
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.errors"] = errors[layer] / passes
        out[f"{layer}.self_s"] = self_time[layer] / passes
    for stem in BUSY:
        out[f"{stem}_s"] = busy[stem] / passes
    for key in COUNTS:
        out[key] = counts.get(key, 0) / passes
    evaluated = counts.get("circuit.unitary_amp_updates", 0)
    out["circuit.useful_column_ratio"] = counts.get("circuit.useful_amp_updates", 0) / evaluated if evaluated else 1.0
    return out


def coverage(spans: list[Span], task_time: dict) -> float:
    """Share of task wall time spent inside top-level walkforge calls."""
    top = defaultdict(float)
    for s in spans:
        if s.parent is None and s.task is not None:
            top[s.task] += s.end - s.start
    total = sum(task_time.values())
    return sum(top[t] for t in task_time) / total if total else 0.0
