"""Shared capacity limits for dense-matrix construction."""
from __future__ import annotations

import os

_DEFAULT_MAX_QUBITS = 14


def max_qubits() -> int:
    """Dense-matrix qubit cap; override with WALKFORGE_MAX_QUBITS at your own risk."""
    raw = os.environ.get("WALKFORGE_MAX_QUBITS")
    if raw is None:
        return _DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("WALKFORGE_MAX_QUBITS must be an integer") from None
    if value < 1:
        raise ValueError("WALKFORGE_MAX_QUBITS must be positive")
    return value


def check_qubit_count(m: int, what: str) -> None:
    cap = max_qubits()
    if m > cap:
        raise ValueError(f"{what} needs {m} qubits, above the dense cap of {cap}")


def check_width(m: int, what: str) -> None:
    """Bound a register that is never realized densely by twice the dense cap,
    the widest state vector the cap allows."""
    cap = max_qubits()
    if m > 2 * cap:
        raise ValueError(f"{what} on {m} qubits above twice the dense cap of {cap}")


def check_matrix_dimension(n: int) -> None:
    """Refuse an n x n dense matrix wider than 2^max_qubits()."""
    cap = 1 << max_qubits()
    if n > cap:
        raise ValueError(f"matrix dimension {n} above the dense cap {cap}")
