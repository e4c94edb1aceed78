"""Circuit synthesis: Trotterized walk evolution, projector-dressed Pauli
exponentials, the line-walk step cascade, pulse compilation, and the QFT.

Every synthesized factor is exact for its own term; only the interleaving
(Trotter splitting) is approximate. Decompositions carry explicit GPHASE
gates so synthesized circuits can be compared entrywise, not just
projectively, against dense propagators.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from ._config import check_qubit_count
from .circuit import _GATES, Circuit, Gate, _format_num, _integers, _reals, _Table, gate_conventions
from .decode import _real_array
from .encode import encode_binary
from .gatelib import (
    FundamentalPulse,
    decompose_cnot,
    decompose_controlled_rk,
    decompose_controlled_rx,
    decompose_cphase,
    decompose_swap,
    decompose_toffoli,
    euler_decompose,
    expand_multicontrol,
)
from .pauli import PauliHamiltonian, PauliString, _check_bits
from .sim import exact_propagator
from .walkgraph import WalkGraph

__all__ = [
    "Schedule",
    "TrotterPlan",
    "exact_propagator",
    "trotterize",
    "time_sliced",
    "synth_onsite",
    "synth_pauli_evolution",
    "synth_line_walk_step",
    "expand_to_basic",
    "to_fundamental",
    "PulseStrengths",
    "uniform_strengths",
    "circuit_to_pulses",
    "replay_pulses",
    "pulses_to_csv",
    "pulses_from_csv",
    "build_qft_circuit",
    "qft_reference",
]

_PI = np.pi


@dataclass(frozen=True)
class TrotterPlan:
    """Step count and term ordering for first-order splitting."""

    n_steps: int
    ordering: str = "diagonal-first"

    def __post_init__(self) -> None:
        (n_steps,) = _integers((self.n_steps,), "step count must be an integer")
        if n_steps < 1:
            raise ValueError("step count must be at least 1")
        object.__setattr__(self, "n_steps", n_steps)
        if self.ordering not in ("diagonal-first", "given"):
            raise ValueError(f"unknown term ordering {self.ordering!r}")


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant Hamiltonian: ordered (duration, generator) segments.

    Generators may be PauliHamiltonians or WalkGraphs (binary-encoded on use).
    """

    segments: tuple[tuple[float, object], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule has no segments")
        durations, generators = zip(*self.segments)
        durations = _reals(durations, "segment durations must be real numbers")
        if not all(0 < d < math.inf for d in durations):
            raise ValueError("segment durations must be positive and finite")
        object.__setattr__(self, "segments", tuple(zip(durations, generators)))


def _term_sort_key(item: tuple[complex, PauliString]) -> tuple:
    """Z/I-only strings first, then by support; the sort is stable and a
    hamiltonian's terms already sort by letters, which breaks the ties."""
    _, s = item
    return (s.x != 0, s.support)


def _ordered_terms(h: PauliHamiltonian, ordering: str) -> list[tuple[float, PauliString]]:
    items = list(h.terms)
    if ordering == "diagonal-first":
        items.sort(key=_term_sort_key)
    out = []
    for c, s in items:
        if abs(c.imag) > 1e-12 * max(1.0, abs(c)):
            raise ValueError(f"term {s.letters} has a complex coefficient; not synthesizable")
        out.append((float(c.real), s))
    return out


def _synth_term(coeff: float, s: PauliString, delta: float, make) -> list[int]:
    """Codes (from make, see _Table.make) of gates realizing exp(-i delta coeff P) exactly."""
    angle = coeff * delta
    support = s.support
    if not support:
        return [make("GPHASE", (), (-angle,))]
    if len(support) == 1:
        kind = ("RX", "RZ", "RY")[(s.x != 0) + 2 * (s.z != 0) - 1]
        return [make(kind, (support[0],), (2.0 * angle,))]
    if len(support) == 2 and not s.z:
        return [make("XX", support, (-angle,))]
    return _evolution(s, angle, (), make)


def _trotter_circuit(m: int, pieces) -> Circuit:
    """The circuit on m data qubits of each (h, t, plan) piece in turn: its
    plan.n_steps sweeps, each one sweep's codes repeated. All pieces share one
    table, so each distinct gate is built once."""
    table = _Table()
    codes: tuple[int, ...] = ()  # a lone piece's codes are its repeated sweep, not a copy
    for h, t, plan in pieces:
        delta = float(t) / plan.n_steps
        terms = _ordered_terms(h, plan.ordering)
        step = [k for coeff, s in terms for k in _synth_term(coeff, s, delta, table.make)]
        codes += tuple(step) * plan.n_steps
    n_anc = int(any(m + 1 in g.qubits for g in table.gates))  # the ladders' shared ancilla
    return Circuit._from_codes(m, n_anc, table.gates, codes)


def trotterize(h: PauliHamiltonian, t: float, plan: TrotterPlan) -> Circuit:
    """First-order split of exp(-i h t) into plan.n_steps sweeps over the terms.

    Within each sweep the per-term factors exp(-i t H_k / N) are applied in
    the plan's fixed order, first term first; each factor is synthesized
    exactly (single rotations, XX pulses, or the laddered construction with
    one shared ancilla). Each distinct gate is built once, and the circuit's
    codes are one sweep's codes repeated.
    """
    return _trotter_circuit(h.m_qubits, [(h, t, plan)])


def _segment_hamiltonian(seg) -> PauliHamiltonian:
    if isinstance(seg, PauliHamiltonian):
        return seg
    if isinstance(seg, WalkGraph):
        return encode_binary(seg)
    raise ValueError("schedule segments must hold PauliHamiltonians or WalkGraphs")


def time_sliced(s: Schedule, plan: TrotterPlan | tuple[TrotterPlan, ...]) -> Circuit:
    """Trotterize each segment in order, the earliest first, once every
    segment is encoded and all act on one register size."""
    plans = (plan,) * len(s.segments) if isinstance(plan, TrotterPlan) else tuple(plan)
    if len(plans) != len(s.segments):
        raise ValueError("need one plan per segment")
    hs = [_segment_hamiltonian(seg) for _, seg in s.segments]
    m = hs[0].m_qubits
    if any(h.m_qubits != m for h in hs):
        raise ValueError("segments act on different register sizes")
    return _trotter_circuit(m, [(h, duration, p) for h, (duration, _), p in zip(hs, s.segments, plans)])


def synth_onsite(label: str, eps: float) -> Circuit:
    """exp(-i eps |label><label|) on the data qubits, via one ancilla.

    A polarity-matched multi-control folds "am I at this node" into the
    ancilla, a single APHASE applies the phase, and the fold is undone.
    """
    m = len(_check_bits(label, "label"))
    anc = m + 1
    controls = tuple(range(1, m + 1))
    pols = tuple(int(c) for c in label)
    fold = Gate("MCX", controls + (anc,), (), pols)
    gates = (fold, Gate("APHASE", (anc,), (float(eps),)), fold)
    return Circuit(m, 1, gates)


def synth_pauli_evolution(
    string: PauliString, theta: float, controls: tuple[tuple[int, int], ...] = ()
) -> Circuit:
    """exp(-i theta P Pi) for a Pauli string P, optionally dressed by
    up/down projectors Pi on extra qubits, using one ancilla.

    Per-qubit basis changes turn X/Y letters into Z, a CNOT ladder folds the
    string's parity onto the ancilla, and a Z rotation there (split around a
    polarity-matched multi-control when projectors are present) applies the
    angle before everything is undone. controls is a tuple of
    (qubit, polarity) pairs with polarity 1 = up, 0 = down.
    """
    table = _Table()
    codes = _evolution(string, theta, controls, table.make)
    return Circuit._from_codes(string.m_qubits, 1, table.gates, codes)


def _evolution(
    string: PauliString, theta: float, controls: tuple[tuple[int, int], ...], make
) -> list[int]:
    """The codes of synth_pauli_evolution's gates, each made by make (see _Table.make)."""
    m, x, z, phase = string
    if phase != 1:
        raise ValueError("string must carry no phase factor")
    support = string.support
    if not support:
        raise ValueError("pauli string has empty support")
    anc = m + 1
    ctrl_qubits = tuple(q for q, _ in controls)
    if set(ctrl_qubits) & set(support):
        raise ValueError("projector controls must be disjoint from the string support")
    if any(not 1 <= q <= m for q in ctrl_qubits):
        raise ValueError("projector controls out of range")
    tt = float(theta) * (-1.0) ** (z & ~x).bit_count()  # one sign per Z letter
    turned = [(q, z >> (m - q) & 1) for q in support if x >> (m - q) & 1]  # (qubit, is Y)

    def basis_change(sign: float) -> list[int]:
        """H on X letters, RX(sign pi / 2) on Y letters: -1 enters, +1 leaves."""
        return [make("RX", (q,), (sign * _PI / 2,)) if is_y else make("H", (q,)) for q, is_y in turned]

    enter = basis_change(-1.0)
    ladder = [make("CNOT", (q, anc)) for q in support]
    if controls:
        pols = tuple(int(p) for _, p in controls)
        fold = make("MCX", ctrl_qubits + (anc,), (), pols)
        core = [make("RZ", (anc,), (-tt,)), fold, make("RZ", (anc,), (tt,)), fold]
    else:
        core = [make("RZ", (anc,), (-2.0 * tt,))]
    return enter + ladder + core + ladder[::-1] + basis_change(1.0)


def _line_step_terms(n_qubits: int, cycle: bool) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(target qubit, ((control qubit, polarity), ...)) per hopping term."""
    n = n_qubits
    terms: list[tuple[int, tuple[tuple[int, int], ...]]] = [(n, ())]
    for m in range(2, n + 1):
        target = n - m + 1
        ctrls = [(n - m + 2, 1)]
        ctrls += [(q, 0) for q in range(n - m + 3, n + 1)]
        if cycle and m == n:
            ctrls = [(q, 0) for q in range(3, n + 1)]
        terms.append((target, tuple(ctrls)))
    return terms


def synth_line_walk_step(
    n_qubits: int, eps: float, *, delta0: float = 1.0, cycle: bool = False, expand: bool = True
) -> Circuit:
    """One Trotter step exp(+i eps delta0 X Pi) per hopping term of the
    2^N-node uniform line (or cycle) under the prefix-XOR labeling.

    Each term is a single X on the flipping qubit dressed by one up projector
    and a tail of down projectors, so the step is a cascade of multiply
    controlled RX rotations. With expand=True each of them is rewritten via
    the Toffoli ladder onto shared ancillas, as _lower expands multi-controls.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if cycle and n_qubits < 2:
        raise ValueError("cycle needs at least two qubits")
    angle = -2.0 * float(eps) * float(delta0)
    gates: list[Gate] = []
    for target, ctrls in _line_step_terms(n_qubits, cycle):
        if ctrls:
            qubits = tuple(q for q, _ in ctrls) + (target,)
            gates.append(Gate("MCRX", qubits, (angle,), tuple(p for _, p in ctrls)))
        else:
            gates.append(Gate("RX", (target,), (angle,)))
    c = Circuit(n_qubits, 0, gates)
    return _lower(c, _UNEXPANDED) if expand else c


def _placed(template: tuple[Gate, ...], qubits: tuple[int, ...]) -> list[Gate]:
    """A decomposition on wires 1..k, moved onto k distinct wires without
    checking its gates again."""
    return [
        Gate._unchecked(t.kind, tuple(qubits[q - 1] for q in t.qubits), t.params, t.polarities)
        for t in template
    ]


_H_ALPHA, _H_THETA, _H_GAMMA, _H_XI = euler_decompose(gate_conventions()["H"])

# kind -> the gates that replace it, on wires 1..k: a tuple built once here, or
# a builder of the gate's parameters, which _lower calls once per call and
# distinct parameter (not across calls: the angles are unbounded). Builders
# look the decompositions up by name on each call; RY's and APHASE's skip the
# gate checks, since their parameter is a checked gate's (a checked Gate costs
# about five unchecked ones). MCX and MCRX are not here: they expand onto
# fresh ancillas beyond the circuit's wires (see _lower).
_TEMPLATES = {
    "TOFFOLI": decompose_toffoli().gates,
    "SWAP": decompose_swap().gates,
    "CNOT": decompose_cnot().gates,
    "H": (
        Gate("RZ", (1,), (_H_XI,)),
        Gate("RX", (1,), (_H_GAMMA,)),
        Gate("RZ", (1,), (_H_THETA,)),
        Gate("GPHASE", (), (_H_ALPHA,)),
    ),
    "X": (Gate("RX", (1,), (_PI,)), Gate("GPHASE", (), (_PI / 2,))),
    "RY": lambda theta: (
        Gate._unchecked("RZ", (1,), (-_PI / 2,)),
        Gate._unchecked("RX", (1,), (theta,)),
        Gate._unchecked("RZ", (1,), (_PI / 2,)),
    ),
    "APHASE": lambda eps: (Gate._unchecked("RZ", (1,), (eps,)), Gate._unchecked("GPHASE", (), (-eps / 2.0,))),
    "CRX": lambda theta: decompose_controlled_rx(theta / 2.0).gates,
    "CRK": lambda k: decompose_controlled_rk(int(k)).gates,
    "CPHASE": lambda phi: decompose_cphase(phi).gates,
}

_UNEXPANDED = frozenset(_GATES) - {"MCX", "MCRX"}  # what an expanded line step keeps
_BASIC = frozenset({"RX", "RY", "RZ", "H", "X", "APHASE", "CNOT", "XX", "GPHASE"})
_FUNDAMENTAL = frozenset({"RX", "RZ", "XX", "GPHASE"})


def _lower(c: Circuit, target: frozenset[str]) -> Circuit:
    """Rewrite by _TEMPLATES and expand_multicontrol until every gate kind is in target.

    Each distinct gate, at every depth of the rewriting, is lowered once per
    call; an input code then stands for its gate's output codes. Wires the
    rewritten gates reach beyond c.n_wires are new ancillas.
    """
    base = c.n_wires
    out, seen = _Table(), _Table()  # the gates emitted; every gate met on the way
    lowered: dict[int, tuple[int, ...]] = {}  # code in seen -> codes in out
    built: dict[tuple[str, str], tuple[Gate, ...]] = {}  # a builder's output by kind and repr(params)

    def rewrite(g: Gate):
        if g.kind in ("MCX", "MCRX"):
            return expand_multicontrol(g, base).gates
        template = _TEMPLATES[g.kind]
        if callable(template):
            key = (g.kind, repr(g.params))  # the repr keeps -0.0 apart from 0.0
            if key not in built:
                built[key] = template(*g.params)
            template = built[key]
        return _placed(template, g.qubits)

    def lower(g: Gate) -> tuple[int, ...]:
        i = seen.code(g)
        if i not in lowered:
            if g.kind in target:
                lowered[i] = (out.code(g),)
            else:
                lowered[i] = tuple(k for sub in rewrite(g) for k in lower(sub))
        return lowered[i]

    per_entry = [lower(g) for g in c.table]
    codes = [k for i in c.codes for k in per_entry[i]]
    top = max((base, *(q for g in out.gates for q in g.qubits)))
    return Circuit._from_codes(c.n_qubits, c.n_ancillas + top - base, out.gates, codes)


def expand_to_basic(c: Circuit) -> Circuit:
    """Rewrite every gate into one- and two-qubit named gates.

    Multi-controls go through the Toffoli ladder (fresh shared ancillas
    beyond the existing wires), then Toffoli, controlled-RX, SWAP, CRK and
    CPHASE are replaced by their decompositions.
    """
    return _lower(c, _BASIC)


def to_fundamental(c: Circuit) -> Circuit:
    """Rewrite a circuit over the fundamental set {RX, RZ, XX} plus GPHASE."""
    return _lower(c, _FUNDAMENTAL)


@dataclass(frozen=True)
class PulseStrengths:
    """Available always-on term strengths: one eps and delta per wire, and a
    symmetric vperp matrix for pairs, all real and finite. All needed entries
    must be positive."""

    eps: np.ndarray
    delta: np.ndarray
    vperp: np.ndarray

    def __post_init__(self) -> None:
        eps, delta, vperp = (_real_array(getattr(self, f), f) for f in ("eps", "delta", "vperp"))
        n = eps.size
        if eps.shape != (n,) or delta.shape != (n,) or vperp.shape != (n, n):
            raise ValueError("strength arrays have inconsistent shapes")
        if np.max(np.abs(vperp - vperp.T)) > 0.0:
            raise ValueError("vperp must be symmetric")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "vperp", vperp)


def uniform_strengths(n_wires: int, value: float = 1.0) -> PulseStrengths:
    """The same positive strength for every term on every wire and pair."""
    if n_wires < 1:
        raise ValueError("need at least one wire")
    (v,) = _reals((value,), "strength must be a real number")
    vperp = np.full((n_wires, n_wires), v)
    np.fill_diagonal(vperp, 0.0)
    return PulseStrengths(np.full(n_wires, v), np.full(n_wires, v), vperp)


# 2 pi = _TWO_PI_HI + _TWO_PI_LO to 2.5e-24; the high part has 26 significant
# bits, so k * _TWO_PI_HI is exact for |k| < 2^27 (Cody and Waite)
_TWO_PI_HI = float.fromhex("0x1.921fb5p+2")
_TWO_PI_LO = float.fromhex("0x1.110b4611a6263p-24")


def _mod_two_pi(x: float) -> float:
    """x mod 2 pi in [0, 2 pi]: x mod fl(2 pi) within one turn of 0; beyond, the
    k whole turns come off against the two-part 2 pi, off by k * 2.5e-24 rather
    than the k * 2.4e-16 of fl(2 pi) while |k| < 2^27."""
    k = math.floor(x / (2.0 * _PI)) if abs(x) >= 2.0 * _PI else 0
    return ((x - k * _TWO_PI_HI) - k * _TWO_PI_LO) % (2.0 * _PI)


# fundamental gate kind -> (always-on term, angle sign, divisor): a gate of
# angle a runs its term for ((sign * a) mod 2 pi) / (divisor * strength)
_PULSE_RULES = {"RX": ("delta", -1.0, 2.0), "RZ": ("eps", 1.0, 2.0), "XX": ("vperp", 1.0, 1.0)}


def circuit_to_pulses(c: Circuit, strengths: PulseStrengths) -> tuple[FundamentalPulse, ...]:
    """Compile a fundamental circuit into timed pulses of the always-on terms.

    Angles become durations, reduced modulo 2 pi so every duration is
    nonnegative: RX(gamma) on wire j runs the X term for
    (-gamma mod 2 pi)/(2 delta_j), RZ(theta) runs the Z term for
    (theta mod 2 pi)/(2 eps_j), XX(chi) runs the pair term for
    (chi mod 2 pi)/vperp. A 2 pi shift changes at most the global sign.
    GPHASE gates and zero angles are dropped. Replay matches unitary(c) up
    to global phase. Each distinct gate is compiled once, and its occurrences
    share one pulse object.
    """
    if strengths.eps.size != c.n_wires:
        raise ValueError("strengths sized for a different wire count")

    def pulse(g: Gate) -> FundamentalPulse | None:
        if g.kind == "GPHASE":
            return None
        if g.kind not in _PULSE_RULES:
            raise ValueError(f"gate {g.kind} is outside the fundamental set")
        angle = g.params[0]
        if angle == 0.0:
            return None
        term, sign, divisor = _PULSE_RULES[g.kind]
        strength = float(getattr(strengths, term)[tuple(q - 1 for q in g.qubits)])
        if strength <= 0.0:
            where = f"wire {g.qubits[0]}" if len(g.qubits) == 1 else "wires {},{}".format(*g.qubits)
            raise ValueError(f"zero strength for needed term {term} on {where}")
        duration = _mod_two_pi(sign * angle) / (divisor * strength)
        return FundamentalPulse(term, g.qubits, strength, duration)

    compiled = [pulse(g) for g in c.table]
    return tuple(p for p in map(compiled.__getitem__, c.codes) if p is not None)


def replay_pulses(pulses: tuple[FundamentalPulse, ...], n_wires: int) -> np.ndarray:
    """Exact propagator product of the pulse schedule, earliest pulse first.

    A pulse runs one Pauli string P (eps: +strength Z, delta: -strength X,
    vperp: -strength XX), so its propagator is exactly cos a I - i sin a P
    with a = coefficient * duration; Z = diag(-1, +1) acts on rows as signs,
    X and XX as a gather at the flipped index."""
    check_qubit_count(n_wires, "pulse replay")
    rows = np.arange(1 << n_wires)
    u = np.eye(1 << n_wires, dtype=complex)
    for p in pulses:
        if max(p.qubits) > n_wires:
            raise ValueError(f"{p.term} pulse on wire {max(p.qubits)} beyond the {n_wires} wires")
        mask = sum(1 << (n_wires - q) for q in p.qubits)
        if p.term == "eps":
            angle = p.strength * p.duration
            pu = np.where(rows & mask, 1.0, -1.0)[:, None] * u
        else:
            angle = -p.strength * p.duration
            pu = u[rows ^ mask]
        u = np.cos(angle) * u - 1j * np.sin(angle) * pu
    return u


def pulses_to_csv(pulses: tuple[FundamentalPulse, ...]) -> str:
    """CSV rows term,qubits,strength,duration in execution order.

    No field can hold a comma, quote or line break, so rows are formatted
    directly, each pulse object once per call: circuit_to_pulses gives all
    occurrences of a gate the same one.
    """
    pulses = tuple(pulses)  # keeps every pulse alive, so no id is reused below
    rows = {id(p): p for p in pulses}
    for key, p in rows.items():
        rows[key] = f"{p.term},{' '.join(map(str, p.qubits))},{_format_num(p.strength)},{_format_num(p.duration)}\n"
    return "term,qubits,strength,duration\n" + "".join(rows[id(p)] for p in pulses)


def pulses_from_csv(text: str) -> tuple[FundamentalPulse, ...]:
    """Parse the pulse CSV format."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValueError(f"malformed pulse csv: {exc}") from None
    if not rows or rows[0] != ["term", "qubits", "strength", "duration"]:
        raise ValueError("pulse csv must start with the term,qubits,strength,duration header")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError("pulse rows need exactly four fields")
        term, qubits, strength, duration = row
        out.append(
            FundamentalPulse(
                term, tuple(int(q) for q in qubits.split()), float(strength), float(duration)
            )
        )
    return tuple(out)


def build_qft_circuit(n: int, level: str = "named_gates") -> Circuit:
    """Fourier transform circuit: per-qubit H plus controlled phase cascade,
    then the reversing SWAP network.

    level="named_gates" keeps H/CRK/SWAP; level="fundamental" expands each of
    them through the decomposition library so only {RX, RZ, XX, GPHASE}
    remain.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if level not in ("named_gates", "fundamental"):
        raise ValueError(f"unknown synthesis level {level!r}")
    gates: list[Gate] = []
    for j in range(1, n + 1):
        gates.append(Gate("H", (j,)))
        for k in range(2, n - j + 2):
            gates.append(Gate("CRK", (j + k - 1, j), (float(k),)))
    for i in range(1, n // 2 + 1):
        gates.append(Gate("SWAP", (i, n + 1 - i)))
    c = Circuit(n, 0, tuple(gates))
    if level == "fundamental":
        return to_fundamental(c)
    return c


def qft_reference(n: int) -> np.ndarray:
    """The DFT matrix F_jk = exp(i 2 pi j k / 2^n) / 2^{n/2}."""
    if not 1 <= n <= 12:
        raise ValueError("reference matrix supported for 1..12 qubits")
    dim = 1 << n
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * _PI * jk / dim) / np.sqrt(dim)
