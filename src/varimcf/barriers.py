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
which the certificate below needs.

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

from .config import (BARRIER_FLOOR, CHAIN_SLACK, NORM_SAFETY, SCALE_CEILING,
                     SUPPORT_SLACK, sphere_area)
from .errors import (ConfigError, GridMismatch, NonpositiveWeight,
                     PreconditionViolated, ZeroBarrier)
from .flow import FlowTrace
from .geometry import simplex_distances

NORM_GRID_STEPS = 256
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
        c = np.asarray(self.center, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        if self.radius <= 0.0:
            raise ConfigError("radius must be positive")
        if self.beta <= 0.0:
            raise ConfigError("beta must be positive")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def _uvals(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        w = x - self.center
        r = np.einsum("ai,ai->a", w, w) + 2.0 * self.d * t
        u = self.radius**2 - r
        return w, np.maximum(u, 0.0), u > 0.0

    def value(self, x, t: float) -> np.ndarray:
        _, u, _ = self._uvals(x, t)
        return u**self.beta

    def grad(self, x, t: float) -> np.ndarray:
        w, u, live = self._uvals(x, t)
        gp = np.where(live, -self.beta * u ** (self.beta - 1.0), 0.0)
        return 2.0 * gp[:, None] * w

    def hess(self, x, t: float) -> np.ndarray:
        w, u, live = self._uvals(x, t)
        b = self.beta
        gp = np.where(live, -b * u ** (b - 1.0), 0.0)
        gpp = np.where(live, b * (b - 1.0) * u ** (b - 2.0), 0.0)
        eye = np.eye(self.n)
        return (4.0 * gpp[:, None, None] * np.einsum("ai,aj->aij", w, w)
                + 2.0 * gp[:, None, None] * eye[None])

    def third(self, x, t: float) -> np.ndarray:
        w, u, live = self._uvals(x, t)
        b = self.beta
        gpp = np.where(live, b * (b - 1.0) * u ** (b - 2.0), 0.0)
        gppp = np.where(live, -b * (b - 1.0) * (b - 2.0) * u ** (b - 3.0), 0.0)
        eye = np.eye(self.n)
        www = np.einsum("ai,aj,ak->aijk", w, w, w)
        sym = (np.einsum("ij,ak->aijk", eye, w)
               + np.einsum("ik,aj->aijk", eye, w)
               + np.einsum("jk,ai->aijk", eye, w))
        return 8.0 * gppp[:, None, None, None] * www + 4.0 * gpp[:, None, None, None] * sym

    def time_derivative(self, x, t: float) -> np.ndarray:
        _, u, live = self._uvals(x, t)
        gp = np.where(live, -self.beta * u ** (self.beta - 1.0), 0.0)
        return 2.0 * self.d * gp

    # -- certified norm overestimates (radial sweeps at t = 0) --------------

    def _radial_sweep(self):
        """|grad psi(., 0)| and the spectral norm of hess psi(., 0) along a
        radial sweep of the support, the latter from the Hessian's radial
        and tangential eigenvalues 2 gamma' + 4 gamma'' rho and 2 gamma',
        rho = |x - center|^2."""
        rr = np.linspace(0.0, self.radius, BOUND_SWEEP_STEPS + 1)
        u = self.radius**2 - rr**2
        live = u > 0.0
        u = np.maximum(u, 0.0)
        b = self.beta
        gp = np.where(live, -b * u ** (b - 1.0), 0.0)
        gpp = np.where(live, b * (b - 1.0) * u ** (b - 2.0), 0.0)
        return (np.abs(2.0 * gp * rr),
                np.maximum(np.abs(2.0 * gp + 4.0 * gpp * rr**2),
                           np.abs(2.0 * gp)))

    def hess_bound(self) -> float:
        """sup over x of the spectral norm of hess psi(x, 0)."""
        return float(np.max(self._radial_sweep()[1]))

    def c2_bound(self) -> float:
        """sup |psi| + sup |grad psi| + sup ||hess psi||, at t = 0."""
        grad, hess = self._radial_sweep()
        return (self.radius**2) ** self.beta + float(np.max(grad)) \
            + float(np.max(hess))

    def c3_norm(self) -> float:
        """sup over orders 0..3 of the derivative tensors' Frobenius norms."""
        rho = np.linspace(0.0, self.radius, NORM_GRID_STEPS + 1)
        pts = np.zeros((len(rho), self.n))
        pts[:, 0] = rho
        pts = pts + self.center
        worst = float(np.max(self.value(pts, 0.0)))
        worst = max(worst, float(np.max(np.linalg.norm(self.grad(pts, 0.0), axis=1))))
        H = self.hess(pts, 0.0)
        worst = max(worst, float(np.max(np.sqrt(np.einsum("aij,aij->a", H, H)))))
        T = self.third(pts, 0.0)
        worst = max(worst, float(np.max(np.sqrt(np.einsum("aijk,aijk->a", T, T)))))
        return NORM_SAFETY * worst

    def grad_l2_norm(self) -> float:
        """L^2 norm of grad psi(., 0) by radial quadrature."""
        b = self.beta
        R2 = self.radius**2

        def integrand(rho):
            gp = -b * (R2 - rho**2) ** (b - 1.0)
            return (2.0 * abs(gp) * rho) ** 2 * rho ** (self.n - 1)
        val, _ = quad(integrand, 0.0, self.radius, limit=200)
        return NORM_SAFETY * math.sqrt(sphere_area(self.n) * val)


def technical_gaps(h, phi, grad_phi, P) -> np.ndarray:
    """Slack of the completed-square bound tying curvature to a weight.

    gap = (1/4)|S grad|^2 / phi + grad . h + |h|^2 phi - (I - S) grad . h
        = | sqrt(phi) h + S grad / (2 sqrt(phi)) |^2  >= 0,

    with equality at h = -(1/2) S grad / phi, for K samples at once:
    h, grad_phi : (K, n); phi : (K,); P : (K, n, n) plane projections.
    Raises NonpositiveWeight for the first sample with phi <= 0.
    """
    phi = np.asarray(phi, dtype=float)
    bad = np.flatnonzero(phi <= 0.0)
    if len(bad):
        raise NonpositiveWeight(f"weight value {phi[bad[0]]} must be positive")
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
    violating it makes this positive somewhere.  Raises ZeroBarrier for the
    first row where psi is at or below the barrier floor.
    """
    x = np.asarray(x, dtype=float)
    val = psi.value(x, t)
    bad = np.flatnonzero(val <= BARRIER_FLOOR)
    if len(bad):
        raise ZeroBarrier(f"psi = {val[bad[0]]:.3e} at row {bad[0]}")
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
        raise GridMismatch("traces use different time subdivisions")
    gaps = []
    for sa, sb in zip(trace_a.snapshots, trace_b.snapshots):
        A, B = sa.varifold.positions, sb.varifold.positions
        diff = A[:, None, :] - B[None, :, :]
        gaps.append(float(np.min(np.linalg.norm(diff, axis=2))))
    return np.array(gaps)


# ---------------------------------------------------------------------------
# certificates


def _trace_consistency(trace: FlowTrace) -> None:
    """Reject traces whose snapshots cannot come from the recorded steps."""
    snaps = trace.snapshots
    for i in range(len(snaps) - 1):
        s, nxt = snaps[i], snaps[i + 1]
        dt = nxt.time - s.time
        if s.curvature is None or s.curvature_max is None:
            raise PreconditionViolated("trace lacks recorded step fields")
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


def epsilon_barrier_certificate(trace: FlowTrace, psi: BarrierFunction,
                                c5_cfg: float):
    """Certify the almost-nonincrease of the barrier-weighted mass.

    For a piecewise flow that stays admissible (fine subdivision relative to
    the smoothing scale) the weighted mass can increase between any two
    snapshot times by at most  c (10M + 9) eps^(1/6),  with c the certified
    overestimate of max{ C3 norm of psi, L2 norm of grad psi, 1 } doubled
    and M the trace's mass bound.

    The preconditions also pin the trace to its own recorded step data, so a
    trace whose atoms moved farther than the recorded fields allow is
    rejected rather than graded.
    """
    if psi.beta <= 3.0:
        raise ConfigError("profile must be three times differentiable (beta > 3)")
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
    c = 2.0 * max(psi.c3_norm(), psi.grad_l2_norm(), 1.0)
    bound = c * (10.0 * trace.mass_bound + 9.0) * eps ** (1.0 / 6.0)
    worst = -math.inf
    weighted = [float(np.dot(s.varifold.masses,
                             psi.value(s.varifold.positions, s.time)))
                for s in trace.snapshots]
    running_min = math.inf
    for w in weighted:
        running_min = min(running_min, w)
        worst = max(worst, w - running_min)
    return worst, bound, {"norm_constant": c, "notes": [
        "scale ceiling above 4^-6: admissibility is configured, not derived"]}


def lsc_monitor(trace: FlowTrace, psi: BarrierFunction):
    """Check that t -> ||V(t)||(psi) - C t is nonincreasing up to step slack:
    its largest uptick between snapshots, against the C^2 norm of psi times
    the largest step, with C = sup |hess psi| times the initial mass."""
    constant = psi.hess_bound() * trace.snapshots[0].mass
    slack = psi.c2_bound() * trace.config.delta()
    vals = np.array([float(np.dot(s.varifold.masses,
                                  psi.value(s.varifold.positions, s.time)))
                     - constant * s.time for s in trace.snapshots])
    upticks = np.diff(vals)
    worst = float(np.max(upticks)) if len(upticks) else 0.0
    return worst, slack, {"ramp_constant": constant}
