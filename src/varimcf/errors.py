"""Exception hierarchy shared across the package."""


class VarimcfError(Exception):
    """Base class for all package errors."""


class ConfigError(VarimcfError):
    """Malformed or inconsistent configuration input."""


class DegenerateBasis(VarimcfError):
    """Spanning vectors are linearly dependent (Gram determinant ~ 0)."""


class PreconditionViolated(VarimcfError):
    """A certificate precondition failed; the message names the inequality.

    `check` fails the one verdict it stopped and grades the others.
    """


class NonpositiveWeight(PreconditionViolated):
    """A weight or test function value required to be positive is not."""


class GridTooCoarse(VarimcfError):
    """Quadrature grid spacing exceeds half the kernel scale."""


class SingularMap(VarimcfError):
    """Step map is not invertible (or kills a tangent plane)."""


class MassBoundExceeded(VarimcfError):
    """Total mass grows by more than a step allows, or past M + 1."""


class OutOfSpan(VarimcfError):
    """Requested time lies outside the trace's time span."""


class GridMismatch(PreconditionViolated):
    """Two traces that must share a time grid do not."""


class SupportTooLarge(VarimcfError):
    """Measure support exceeds the configured LP size cap."""


class SolverFailure(VarimcfError):
    """LP solver did not return an optimal, feasible solution."""


class ZeroBarrier(PreconditionViolated):
    """Barrier function vanishes where a positive value is required."""


class DegenerateSimplex(VarimcfError):
    """Mesh simplex has (near-)zero measure."""


class OpenMesh(VarimcfError):
    """Mesh is not closed / consistently oriented."""


class DeltaTooLarge(PreconditionViolated):
    """Step perturbation size is >= 1; the volume bound does not apply."""


class BallNotInterior(PreconditionViolated):
    """Ball is not contained in the designated partition region."""


class MissingFrames(ConfigError):
    """Run manifest references frame files that do not exist."""
