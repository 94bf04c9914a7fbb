"""Central numeric tolerances and named constants.

Every comparison tolerance used by validation code lives here so that tests
and library code agree on one set of numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # plane projection validation
    projector_symmetry: float = 1e-12
    projector_idempotency: float = 1e-10
    projector_trace: float = 1e-10
    # linear algebra guards
    gram_determinant: float = 1e-12
    map_determinant: float = 1e-12
    # bounded-Lipschitz LP feasibility re-check (box and Lipschitz rows)
    lp_lipschitz: float = 1e-9
    # barriers
    barrier_floor: float = 1e-14
    norm_safety: float = 1.05
    # meshes
    degenerate_simplex: float = 1e-12
    # generic slack for exact chain inequalities evaluated in floats
    chain_slack: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()

# largest union support the bounded-Lipschitz program is built for
DEFAULT_SUPPORT_CAP = 2000


def ball_volume(n: int, radius: float = 1.0) -> float:
    """Lebesgue measure of an n-ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius**n


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def isoperimetric_constant(n: int) -> float:
    """Sharp constant in perimeter >= c_n * volume^((n-1)/n)."""
    return n * ball_volume(n) ** (1.0 / n)

