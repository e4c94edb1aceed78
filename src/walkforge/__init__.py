"""walkforge: continuous-time quantum walks as qubit Hamiltonians,
gate circuits, and pulse schedules, with dense oracles for every mapping.

The package exports the union of its library modules' ``__all__`` lists.
"""
from __future__ import annotations

from . import circuit, decode, encode, gatelib, pauli, sim, spinchain, synth, walkgraph
from .circuit import *  # noqa: F401,F403
from .decode import *  # noqa: F401,F403
from .encode import *  # noqa: F401,F403
from .gatelib import *  # noqa: F401,F403
from .pauli import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .spinchain import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .walkgraph import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({
    name
    for module in (circuit, decode, encode, gatelib, pauli, sim, spinchain, synth, walkgraph)
    for name in module.__all__
})
