"""Sphere barriers and the monitors that certify avoidance behavior on traces.

The package's one evaluable test function is the nonnegative radial weight
psi(x, t) = gamma(|x - a|^2 + 2 d t) built from the compactly supported
profile

    gamma(r) = (R^2 - r)^beta   for r <= R^2,   0 beyond,

which vanishes at the sphere |x - a| = R and grows towards its center.  With
d the surface dimension it is a shrinking-sphere barrier; with d = 0 it is
a static weight, which is what `lsc` grades and what `flow.brakke_residual`
may take.

The tangential defect

    (1/4) |S grad psi|^2 / psi  -  S : hess psi  +  d psi / d t

collapses, for such radial profiles, to |S(x-a)|^2 ((gamma')^2/gamma -
4 gamma''), so it is nonpositive exactly when the profile satisfies
(gamma')^2 <= 4 gamma gamma'', which for the power profiles means
beta >= 4/3.  The default beta = 4 keeps psi three times differentiable,
which the certificate below needs: for beta <= 3 it raises
PreconditionViolated.

Every norm a bound scales by comes from the radial profile: one sweep of
the radii |x - a| gives the sups of psi and of its first three derivatives
(`sup_norms`), and a radial quadrature the L^2 norm of grad psi.

Monitors take a recorded flow and measure how much mass crosses a shrinking
sphere, how far atoms stray outside the initial convex hull, and whether
weighted masses obey their almost-monotonicity.  Each returns the numbers of
one verdict: (measured, bound, details), the bound computed next to the
measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial.distance import cdist

from .config import (BARRIER_FLOOR, CHAIN_SLACK, NORM_SAFETY, SCALE_CEILING,
                     SUPPORT_SLACK, sphere_area)
from .errors import ConfigError, PreconditionViolated
from .flow import FlowTrace
from .geometry import simplex_distances
from .varifold import _frozen

BOUND_SWEEP_STEPS = 2048


@dataclass(frozen=True)
class BarrierFunction:
    """Radial comparison weight psi(x, t) = gamma(|x - center|^2 + 2 d t);
    d = 0 makes it static."""

    center: np.ndarray
    radius: float
    beta: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen(self.center))
        if self.radius <= 0.0:
            raise ConfigError("radius must be positive")
        if self.beta <= 0.0:
            raise ConfigError("beta must be positive")
        # a weight that vanishes everywhere grades nothing; below radius 1
        # the peak cannot overflow
        if self.radius < 1.0 and (self.radius**2) ** self.beta == 0.0:
            raise PreconditionViolated(f"peak (R^2)^beta of radius {self.radius:g} "
                                       f"and beta {self.beta:g} is 0")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def _uvals(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        w = x - self.center
        r = np.einsum("ai,ai->a", w, w) + 2.0 * self.d * t
        u = self.radius**2 - r
        return w, np.maximum(u, 0.0), u > 0.0

    def _derivatives(self, u, live):
        """gamma', gamma'' and gamma''' at R^2 - r = u, zero off `live`."""
        b = self.beta
        # the powers of u = 0 off the support are computed, then discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            return (np.where(live, -b * u ** (b - 1.0), 0.0),
                    np.where(live, b * (b - 1.0) * u ** (b - 2.0), 0.0),
                    np.where(live, -b * (b - 1.0) * (b - 2.0) * u ** (b - 3.0),
                             0.0))

    def value(self, x, t: float) -> np.ndarray:
        _, u, _ = self._uvals(x, t)
        return u**self.beta

    def grad(self, x, t: float) -> np.ndarray:
        w, u, live = self._uvals(x, t)
        return 2.0 * self._derivatives(u, live)[0][:, None] * w

    def hess(self, x, t: float) -> np.ndarray:
        w, u, live = self._uvals(x, t)
        gp, gpp, _ = self._derivatives(u, live)
        eye = np.eye(self.n)
        return (4.0 * gpp[:, None, None] * np.einsum("ai,aj->aij", w, w)
                + 2.0 * gp[:, None, None] * eye[None])

    def time_derivative(self, x, t: float) -> np.ndarray:
        _, u, live = self._uvals(x, t)
        return 2.0 * self.d * self._derivatives(u, live)[0]

    # -- norms at t = 0, from the radial profile ---------------------------

    def sup_norms(self) -> tuple[float, float, float, float, float]:
        """The sups over x of psi(x, 0), |grad psi|, the spectral and
        Frobenius norms of hess psi, and the Frobenius norm of D^3 psi,
        sampled on one sweep of the radii r = |x - center| of the support.

        With w = x - center, hess psi = 4 gamma'' w w^T + 2 gamma' I has the
        eigenvalues 2 gamma' + 4 gamma'' r^2 along w and 2 gamma' (n - 1
        times).  D^3 psi = 8 gamma''' w w w + 4 gamma'' sym(I w) has, in a
        frame whose first axis is w, the entry 8 gamma''' r^3 + 12 gamma'' r
        at (1, 1, 1), 4 gamma'' r at each of the 3 (n - 1) positions
        (1, j, j), (j, 1, j) and (j, j, 1), and zeros elsewhere.
        """
        r = np.linspace(0.0, self.radius, BOUND_SWEEP_STEPS + 1)
        u = np.maximum(self.radius**2 - r**2, 0.0)
        gp, gpp, gppp = self._derivatives(u, u > 0.0)
        along, across = 2.0 * gp + 4.0 * gpp * r**2, 2.0 * gp
        third = 8.0 * gppp * r**3 + 12.0 * gpp * r
        rest = self.n - 1
        return (float(np.max(u**self.beta)),
                float(np.max(np.abs(2.0 * gp * r))),
                float(np.max(np.maximum(np.abs(along), np.abs(across)))),
                float(np.max(np.sqrt(along**2 + rest * across**2))),
                float(np.max(np.sqrt(third**2
                                     + 3 * rest * (4.0 * gpp * r)**2))))

    def grad_l2_norm(self) -> float:
        """L^2 norm of grad psi(., 0) by radial quadrature."""
        def integrand(r):
            u = max(self.radius**2 - r**2, 0.0)
            gp = self._derivatives(u, u > 0.0)[0]
            return float((2.0 * gp * r) ** 2 * r ** (self.n - 1))
        val, _ = quad(integrand, 0.0, self.radius, limit=200)
        return math.sqrt(sphere_area(self.n) * val)


def technical_gaps(h, phi, grad_phi, P) -> np.ndarray:
    """Slack of the completed-square bound tying curvature to a weight.

    gap = (1/4)|S grad|^2 / phi + grad . h + |h|^2 phi - (I - S) grad . h
        = | sqrt(phi) h + S grad / (2 sqrt(phi)) |^2  >= 0,

    with equality at h = -(1/2) S grad / phi, for K samples at once:
    h, grad_phi : (K, n); phi : (K,); P : (K, n, n) plane projections.
    Raises PreconditionViolated for the first sample with phi <= 0.
    """
    phi = np.asarray(phi, dtype=float)
    bad = np.flatnonzero(phi <= 0.0)
    if len(bad):
        raise PreconditionViolated(f"weight value {phi[bad[0]]} must be positive")
    Sg = np.einsum("kij,kj->ki", P, grad_phi)
    lhs = (-np.einsum("ki,ki->k", h, h) * phi
           + np.einsum("ki,ki->k", grad_phi - Sg, h))
    rhs = (0.25 * np.einsum("ki,ki->k", Sg, Sg) / phi
           + np.einsum("ki,ki->k", grad_phi, h))
    return rhs - lhs


def barrier_defects(psi: BarrierFunction, x, P, t) -> np.ndarray:
    """(1/4)|S grad psi|^2/psi - S : hess psi + d psi/dt at K points.

    x : (K, n) points; P : (K, n, n) plane projections; t : (K,) times or
    one time for all rows.  Nonpositive wherever psi > 0, provided the
    profile satisfies (gamma')^2 <= 4 gamma gamma'' (beta >= 4/3); a profile
    violating it makes this positive somewhere.  Raises PreconditionViolated
    for the first row where psi is at or below the barrier floor.
    """
    x = np.asarray(x, dtype=float)
    val = psi.value(x, t)
    bad = np.flatnonzero(val <= BARRIER_FLOOR)
    if len(bad):
        raise PreconditionViolated(f"psi = {val[bad[0]]:.3e} at row {bad[0]}")
    Sg = np.einsum("kij,kj->ki", P, psi.grad(x, t))
    return (0.25 * np.einsum("ki,ki->k", Sg, Sg) / val
            - np.einsum("kij,kij->k", P, psi.hess(x, t))
            + psi.time_derivative(x, t))


# ---------------------------------------------------------------------------
# trace monitors


def _sphere_peak(trace: FlowTrace, center, R: float, reading):
    """The largest reading(distances to center, masses, radius) over the
    snapshots while the shrinking radius sqrt(R^2 - 2dt) is real, and the
    last such time."""
    center = np.asarray(center, dtype=float)
    d = trace.snapshots[0].varifold.d
    r2 = R**2 - 2.0 * d * trace.times
    live = np.flatnonzero(r2 > 0.0)
    if not len(live):       # times start at 0, so only R^2 underflows here
        raise PreconditionViolated(f"radius {R:g} squares to 0: no ball")
    vals = [reading(np.linalg.norm(trace.snapshots[i].varifold.positions
                                   - center, axis=1),
                    trace.snapshots[i].varifold.masses, math.sqrt(r2[i]))
            for i in live]
    return max(vals), float(trace.times[live[-1]])


def external_sphere_monitor(trace: FlowTrace, center, R: float):
    """Mass found inside the shrinking ball, against roundoff: zero for exact
    avoidance."""
    peak, end = _sphere_peak(trace, center, R,
                             lambda dist, m, r: float(m[dist < r].sum()))
    return peak, 1e-9 * (1.0 + trace.snapshots[0].mass), {"window_end": end}


def internal_sphere_monitor(trace: FlowTrace, center, R: float):
    """How far the support protrudes beyond the shrinking ball (<= 0 is
    inside), against a smoothing-scale slack."""
    peak, end = _sphere_peak(trace, center, R,
                             lambda dist, m, r: float(np.max(dist) - r))
    return peak, SUPPORT_SLACK * trace.config.eps, {"window_end": end}


def _hull_distance(hull_points: np.ndarray):
    """The Euclidean distance (P,) of points (P, n) to the convex hull of
    `hull_points`, zero inside (n = 2 or 3), as a function built once."""
    try:
        hull = ConvexHull(hull_points)
    except QhullError:
        # fewer points than a full-dimensional hull needs, or a flat set
        return _flat_hull_distance(hull_points)
    A = hull.equations[:, :-1]
    b = hull.equations[:, -1]
    facets = hull_points[hull.simplices]

    def distance(points):
        slack = points @ A.T + b          # <= 0 componentwise means inside
        outside = ~np.all(slack <= 1e-12, axis=1)
        out = np.zeros(len(points))
        if np.any(outside):
            out[outside] = np.min(simplex_distances(points[outside], facets),
                                  axis=1)
        return out
    return distance


def _flat_hull_distance(hull_points: np.ndarray):
    """The distance to the hull of a flat set (a point, a segment or a
    planar patch): the distance within its affine hull, of rank r < n,
    combined with the offset from that hull."""
    origin = hull_points[0]
    hull_rel = hull_points - origin
    _, s, vt = np.linalg.svd(hull_rel)
    # Qhull found no full-dimensional hull, so the set is flat to its precision
    r = min(int(np.count_nonzero(s > 1e-9 * s[0])), hull_points.shape[1] - 1)
    hull_along = hull_rel @ vt[:r].T
    if r >= 2:
        within = _hull_distance(hull_along)
    else:       # a point or an interval: the distance to its coordinate range
        lo, hi = hull_along.min(axis=0), hull_along.max(axis=0)

        def within(along):
            return np.sum(np.maximum(lo - along, 0.0)
                          + np.maximum(along - hi, 0.0), axis=1)

    def distance(points):
        rel = points - origin
        along = rel @ vt[:r].T
        off = rel - along @ vt[:r]
        return np.sqrt(within(along)**2 + np.einsum("ki,ki->k", off, off))
    return distance


def convex_hull_monitor(trace: FlowTrace):
    """Largest distance of any atom to the hull of the initial atoms, over
    the snapshots, against roundoff."""
    distance = _hull_distance(trace.snapshots[0].varifold.positions)
    worst = 0.0
    for snap in trace.snapshots:
        d = distance(snap.varifold.positions)
        worst = max(worst, float(np.max(d)) if len(d) else 0.0)
    return worst, 1e-8, {"snapshots": len(trace.snapshots)}


def avoidance_distance(trace_a: FlowTrace, trace_b: FlowTrace) -> np.ndarray:
    """Min inter-atom distance between two flows, per shared snapshot."""
    ta, tb = trace_a.times, trace_b.times
    if len(ta) != len(tb) or not np.allclose(ta, tb, atol=1e-12):
        raise PreconditionViolated("traces use different time subdivisions")
    return np.array([float(np.min(cdist(sa.varifold.positions,
                                        sb.varifold.positions)))
                     for sa, sb in zip(trace_a.snapshots, trace_b.snapshots)])


# ---------------------------------------------------------------------------
# certificates


def _trace_consistency(trace: FlowTrace) -> None:
    """Reject traces whose snapshots cannot come from the recorded steps."""
    snaps = trace.snapshots
    for i in range(len(snaps) - 1):
        s, nxt = snaps[i], snaps[i + 1]
        dt = nxt.time - s.time
        if len(s.varifold) != len(nxt.varifold):
            raise PreconditionViolated("atom count changed between snapshots")
        moved = np.linalg.norm(nxt.varifold.positions - s.varifold.positions, axis=1)
        allowed = dt * s.curvature_max * (1.0 + 1e-9) + 1e-12
        if float(np.max(moved)) > allowed:
            raise PreconditionViolated(
                f"atom displacement {float(np.max(moved)):.3e} exceeds "
                f"step * recorded curvature bound {allowed:.3e} at t = {s.time:.6g}")
        if nxt.mass > s.mass + dt + CHAIN_SLACK:
            raise PreconditionViolated(
                f"mass gained more than the step length at t = {s.time:.6g}")


def _weighted_masses(trace: FlowTrace, psi: BarrierFunction) -> np.ndarray:
    """||V(t)||(psi(., t)) at each snapshot."""
    return np.array([float(np.dot(s.varifold.masses,
                                  psi.value(s.varifold.positions, s.time)))
                     for s in trace.snapshots])


def epsilon_barrier_certificate(trace: FlowTrace, psi: BarrierFunction,
                                c5_cfg: float):
    """Certify the almost-nonincrease of the barrier-weighted mass.

    For a piecewise flow that stays admissible (fine subdivision relative to
    the smoothing scale) the weighted mass can increase between any two
    snapshot times by at most  c (10M + 9) eps^(1/6),  with
    c = 2 max{ NORM_SAFETY max(C3 norm of psi, L2 norm of grad psi), 1 }
    and M the trace's mass bound.

    The preconditions ask for a profile three times differentiable
    (beta > 3), and also pin the trace to its own recorded step data, so a
    trace whose atoms moved farther than the recorded fields allow is
    rejected rather than graded.
    """
    if psi.beta <= 3.0:
        raise PreconditionViolated(
            f"profile exponent {psi.beta:g} is not above 3: psi is not three "
            "times differentiable")
    eps = trace.config.eps
    step = trace.config.delta()
    if c5_cfg * step * eps**-8 > eps * (1.0 + 1e-12):
        raise PreconditionViolated(
            f"subdivision too coarse: {c5_cfg:.3g} * {step:.3g} * eps^-8 "
            f"= {c5_cfg * step * eps**-8:.3e} > eps = {eps:.3e}")
    if eps >= SCALE_CEILING:
        raise PreconditionViolated(
            f"smoothing scale {eps} not below the ceiling {SCALE_CEILING}")
    _trace_consistency(trace)
    value, grad, _, hess_frob, third_frob = psi.sup_norms()
    c = 2.0 * max(NORM_SAFETY * max(value, grad, hess_frob, third_frob,
                                    psi.grad_l2_norm()), 1.0)
    bound = c * (10.0 * trace.mass_bound + 9.0) * eps ** (1.0 / 6.0)
    weighted = _weighted_masses(trace, psi)
    worst = float(np.max(weighted - np.minimum.accumulate(weighted)))
    return worst, bound, {"norm_constant": c, "notes": [
        "scale ceiling above 4^-6: admissibility is configured, not derived"]}


def lsc_monitor(trace: FlowTrace, psi: BarrierFunction):
    """Check that t -> ||V(t)||(psi) - C t is nonincreasing up to step slack:
    its largest uptick between snapshots, against the C^2 norm of psi times
    the largest step, with C = sup |hess psi| times the initial mass."""
    value, grad, hess = psi.sup_norms()[:3]
    constant = hess * trace.snapshots[0].mass
    slack = (value + grad + hess) * trace.config.delta()
    upticks = np.diff(_weighted_masses(trace, psi) - constant * trace.times)
    worst = float(np.max(upticks)) if len(upticks) else 0.0
    return worst, slack, {"ramp_constant": constant}
