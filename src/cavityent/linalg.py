"""The input check shared by the state metrics.

Every metric takes one two-qubit density matrix or a stack of them and
reads it through as_state_stack, so all of them accept and reject the
same inputs.
"""
from __future__ import annotations

import numpy as np


def as_state_stack(states) -> np.ndarray:
    """A (4, 4) matrix or an (n, 4, 4) stack as a complex (n, 4, 4) stack.

    ValueError for any other shape and for NaN or infinite entries.
    """
    m = np.asarray(states, dtype=complex)
    if m.ndim == 2:
        m = m[None]
    if m.ndim != 3 or m.shape[-2:] != (4, 4):
        raise ValueError(
            f"expected a (4, 4) matrix or an (n, 4, 4) stack, got shape {np.shape(states)}"
        )
    if not np.isfinite(m).all():
        raise ValueError("states contain non-finite entries")
    return m
