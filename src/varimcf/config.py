"""Central numeric tolerances and named constants.

Every validation tolerance and certificate bound is a module constant here,
so that tests and library code agree on one set of numbers; no function or
settings file takes one as an argument.
"""

from __future__ import annotations

import math

# plane projection validation
PROJECTOR_SYMMETRY = 1e-12
PROJECTOR_IDEMPOTENCY = 1e-10
PROJECTOR_TRACE = 1e-10
# linear algebra guards
GRAM_DETERMINANT = 1e-12
MAP_DETERMINANT = 1e-12
# bounded-Lipschitz LP feasibility re-check (box and Lipschitz rows)
LP_LIPSCHITZ = 1e-9
# barriers
BARRIER_FLOOR = 1e-14
NORM_SAFETY = 1.05
# generic slack for exact chain inequalities evaluated in floats
CHAIN_SLACK = 1e-9

# the smoothing kernel's support radius, in units of eps, and the curvature
# lattice's spacing eps / LATTICE_REFINEMENT: fixed for every run
KERNEL_CUTOFF = 4.0
LATTICE_REFINEMENT = 2

# largest union support the bounded-Lipschitz program is built for
DEFAULT_SUPPORT_CAP = 2000

# certificate bounds and sweep sizes, fixed so no settings file loosens a verdict
BUDGET_RTOL = 0.02          # dissipation-vs-mass-drop tolerance
SUPPORT_SLACK = 2.0         # support-monitor slack, in units of eps
SCALE_CEILING = 1.0         # largest admissible smoothing scale
TECHNICAL_SAMPLES = 20_000  # random tuples in the inequality sweep
DEFECT_SAMPLES = 2_000      # sample points in the defect sweep


def ball_volume(n: int, radius: float = 1.0) -> float:
    """Lebesgue measure of an n-ball."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * radius**n


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def isoperimetric_constant(n: int) -> float:
    """Sharp constant in perimeter >= c_n * volume^((n-1)/n)."""
    return n * ball_volume(n) ** (1.0 / n)
