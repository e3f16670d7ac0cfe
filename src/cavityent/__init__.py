"""Entanglement dynamics of two atoms symmetrically coupled to a vacuum cavity.

Closed-form and numeric evolution of the reduced two-atom state, Wootters
concurrence and maximal CHSH violation along trajectories, dephasing, and
proximity analysis against the maximally-entangled-mixed-state frontier in
the (linear entropy, concurrence) plane.
"""

__version__ = "0.1.0"

from .model import SystemParams  # noqa: F401
