"""Barrier algebra, monitors, and certificates.

Derivative evaluators are checked against central differences, the defect
sign against dense sweeps, and every certificate against a constructed
violation as well as its honest pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from varimcf.barriers import (BarrierFunction, _hull_distance,
                              avoidance_distance, barrier_defects,
                              convex_hull_monitor, epsilon_barrier_certificate,
                              external_sphere_monitor, internal_sphere_monitor,
                              lsc_monitor, technical_gaps)
from varimcf.config import SUPPORT_SLACK
from varimcf.errors import (ConfigError, GridMismatch, NonpositiveWeight,
                            PreconditionViolated, ZeroBarrier)
from varimcf.flow import FlowConfig, run
from varimcf.geometry import (mesh_to_varifold, regular_polygon_mesh,
                              simplex_distances)
from varimcf.varifold import DiscreteVarifold, projections_from_bases


@pytest.fixture(scope="module")
def circle_trace():
    mesh = regular_polygon_mesh(100)
    V0 = mesh_to_varifold(mesh)
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.1, refinement=2)
    return run(V0, cfg, mesh_vertices=mesh.vertices, mesh_simplices=mesh.simplices)


# ---------------------------------------------------------------------------
# profile algebra


def test_axiom_margin_by_exponent():
    # for psi = gamma(|x|^2 + 2dt), gamma(r) = u^beta with u = R^2 - r, the
    # defect is |S x|^2 beta (4 - 3 beta) u^(beta - 2): nonpositive exactly
    # when beta >= 4/3, identically zero at the boundary
    rng = np.random.default_rng(2)
    K = 400
    x = rng.uniform(-0.5, 0.5, (K, 2))
    t = rng.uniform(0.0, 0.1, K)
    P = projections_from_bases(list(rng.normal(size=(K, 1, 2))))
    Sx = np.einsum("kij,kj->ki", P, x)
    u = 1.0 - np.einsum("ki,ki->k", x, x) - 2.0 * t
    for beta in (4.0, 2.5, 4.0 / 3.0, 1.0):
        got = barrier_defects(BarrierFunction(np.zeros(2), 1.0, beta, 1), x, P, t)
        want = np.einsum("ki,ki->k", Sx, Sx) * beta * (4.0 - 3.0 * beta) \
            * u ** (beta - 2.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        if beta >= 4.0 / 3.0:
            assert np.max(got) <= 1e-12
        else:
            assert np.max(got) >= 0.5


@pytest.mark.parametrize("psi, spread", [
    (BarrierFunction(np.array([0.2, -0.1, 0.4]), 0.9, 4.0, 2), 0.4),
    # the static weight that lsc grades
    (BarrierFunction(np.array([0.3, -0.2]), 1.7, 3.0, 0), 0.7),
], ids=["moving-3d", "static-lsc-2d"])
def test_barrier_derivatives_match_finite_differences(psi, spread):
    rng = np.random.default_rng(12)
    n = psi.n
    # probe strictly inside the support of the profile
    pts = psi.center + spread * rng.normal(size=(6, n))
    t = 0.01
    step = 1e-6
    grads = psi.grad(pts, t)
    hess = psi.hess(pts, t)
    third = psi.third(pts, t)
    for a, p in enumerate(pts):
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd = (psi.value((p + e)[None], t)[0]
                  - psi.value((p - e)[None], t)[0]) / (2 * step)
            assert grads[a, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)
            fdg = (psi.grad((p + e)[None], t)[0]
                   - psi.grad((p - e)[None], t)[0]) / (2 * step)
            assert np.allclose(hess[a, :, j], fdg, rtol=1e-5, atol=1e-6)
            fdh = (psi.hess((p + e)[None], t)[0]
                   - psi.hess((p - e)[None], t)[0]) / (2 * step)
            assert np.allclose(third[a, :, :, j], fdh, rtol=1e-4, atol=1e-4)
        fdt = (psi.value(p[None], t + step)[0]
               - psi.value(p[None], t - step)[0]) / (2 * step)
        assert psi.time_derivative(p[None], t)[0] == pytest.approx(
            fdt, rel=1e-5, abs=1e-7)


def test_barrier_vanishes_off_support():
    psi = BarrierFunction(np.zeros(2), 0.5, 4.0, 1)
    far = np.array([[0.8, 0.0], [0.0, -2.0]])
    assert np.all(psi.value(far, 0.0) == 0.0)
    assert np.all(psi.grad(far, 0.0) == 0.0)
    assert np.all(psi.hess(far, 0.0) == 0.0)


def test_moving_weight_time_derivative():
    psi = BarrierFunction(np.zeros(2), 2.0, 3.0, 1)
    pts = np.array([[0.3, 0.4]])
    e = 1e-6
    fd = (psi.value(pts, 0.5 + e) - psi.value(pts, 0.5 - e)) / (2 * e)
    assert psi.time_derivative(pts, 0.5)[0] == pytest.approx(fd[0], abs=1e-8)
    # psi(x, t) = (R^2 - |x|^2 - 2 d t)^3: the support shrinks as t grows
    assert psi.value(pts, 1.2)[0] == pytest.approx(
        (4.0 - 0.25 - 2.4) ** 3, rel=1e-12)
    assert psi.value(pts, 1.9)[0] == 0.0


def test_barrier_config_rejections():
    with pytest.raises(ConfigError):
        BarrierFunction(np.zeros(2), -1.0, 4.0, 1)
    with pytest.raises(ConfigError):
        BarrierFunction(np.zeros(2), 1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# pointwise inequalities


def gap(h, phi, grad, P):
    """technical_gaps on one sample."""
    return float(technical_gaps(np.asarray(h, float)[None], np.array([phi]),
                                np.asarray(grad, float)[None], P[None])[0])


def test_technical_gap_special_cases():
    rng = np.random.default_rng(3)
    P = projections_from_bases([rng.normal(size=(2, 3))])[0]
    g = rng.normal(size=3)
    phi = 0.8
    Sg = P @ g
    assert gap(np.zeros(3), phi, g, P) == pytest.approx(
        0.25 * float(Sg @ Sg) / phi, abs=1e-12)
    h = rng.normal(size=3)
    assert gap(h, phi, np.zeros(3), P) == pytest.approx(
        float(h @ h) * phi, abs=1e-12)


def test_technical_gap_nonnegative_and_tight():
    rng = np.random.default_rng(4)
    ns = rng.integers(2, 5, size=20_000)
    ds = rng.integers(1, ns)
    worst = math.inf
    for n in (2, 3, 4):
        for d in range(1, n):
            K = int(np.count_nonzero((ns == n) & (ds == d)))
            P = projections_from_bases(rng.normal(size=(K, d, n)))
            h = rng.normal(size=(K, n)) * rng.uniform(0.1, 3.0, (K, 1))
            g = rng.normal(size=(K, n))
            phi = rng.uniform(1e-3, 2.0, K)
            worst = min(worst, float(np.min(technical_gaps(h, phi, g, P))))
    assert worst >= -1e-12
    # equality at h = -(1/2) S grad / phi
    P = projections_from_bases([rng.normal(size=(2, 3))])[0]
    g = rng.normal(size=3)
    phi = 0.7
    h_eq = -0.5 * (P @ g) / phi
    assert gap(h_eq, phi, g, P) == pytest.approx(0.0, abs=1e-12)


def test_technical_gap_requires_positive_weight():
    P = projections_from_bases([np.array([[1.0, 0.0]])])[0]
    with pytest.raises(NonpositiveWeight):
        gap(np.zeros(2), 0.0, np.ones(2), P)


def test_batched_gaps_match_the_scalar_formula():
    rng = np.random.default_rng(5)
    K, n = 500, 3
    h, g = rng.normal(size=(2, K, n))
    phi = rng.uniform(1e-3, 2.0, K)
    lines = int(np.count_nonzero(rng.integers(1, n, size=K) == 1))
    P = np.concatenate([
        projections_from_bases(rng.normal(size=(lines, 1, n))),
        projections_from_bases(rng.normal(size=(K - lines, 2, n)))])
    gaps = technical_gaps(h, phi, g, P)
    for k in range(K):
        Sg = P[k] @ g[k]
        lhs = -float(h[k] @ h[k]) * phi[k] + float((g[k] - Sg) @ h[k])
        rhs = 0.25 * float(Sg @ Sg) / phi[k] + float(g[k] @ h[k])
        assert gaps[k] == pytest.approx(rhs - lhs, rel=1e-12, abs=1e-12)
    with pytest.raises(NonpositiveWeight):
        technical_gaps(h[:2], np.array([1.0, 0.0]), g[:2], P[:2])


def test_defect_zero_at_center():
    psi = BarrierFunction(np.zeros(3), 1.0, 4.0, 2)
    P = projections_from_bases([np.random.default_rng(5).normal(size=(2, 3))])
    assert barrier_defects(psi, np.zeros((1, 3)), P, 0.05)[0] == pytest.approx(
        0.0, abs=1e-12)


def test_defect_nonpositive_for_valid_profile():
    rng = np.random.default_rng(6)
    psi = BarrierFunction(np.zeros(2), 1.0, 4.0, 1)
    pts, times, bases = [], [], []
    for _ in range(500):
        p = rng.uniform(-0.7, 0.7, size=2)
        t = rng.uniform(0.0, 0.2)
        if psi.value(p[None], t)[0] <= 1e-10:
            continue
        pts.append(p)
        times.append(t)
        bases.append(rng.normal(size=(1, 2)))
    worst = np.max(barrier_defects(psi, np.array(pts),
                                   projections_from_bases(bases),
                                   np.array(times)))
    assert worst <= 1e-10


def test_defect_positive_for_broken_profile():
    rng = np.random.default_rng(7)
    psi = BarrierFunction(np.zeros(2), 1.0, 1.0, 1)
    pts, bases = [], []
    for _ in range(500):
        p = rng.uniform(-0.9, 0.9, size=2)
        if psi.value(p[None], 0.0)[0] <= 1e-10:
            continue
        pts.append(p)
        bases.append(rng.normal(size=(1, 2)))
    best = np.max(barrier_defects(psi, np.array(pts),
                                  projections_from_bases(bases), 0.0))
    assert best > 0.0


def test_defect_refuses_zero_weight():
    psi = BarrierFunction(np.zeros(2), 0.5, 4.0, 1)
    P = projections_from_bases([np.array([[1.0, 0.0]])] * 3)
    inside = np.array([[0.1, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(ZeroBarrier, match="at row 1"):
        barrier_defects(psi, inside, P, 0.0)


# ---------------------------------------------------------------------------
# monitors on traces


def test_external_monitor_far_flow_is_silent(circle_trace):
    peak, bound, details = external_sphere_monitor(circle_trace, [0.0, 0.0],
                                                   0.3)
    assert peak == 0.0
    assert bound == 1e-9 * (1.0 + circle_trace.masses[0])
    # the shrinking sphere vanishes at t = R^2/2d = 0.045 < 0.1
    assert details["window_end"] < 0.046
    assert details["window_end"] < circle_trace.times[-1]


def test_internal_monitor_circle_tracks_law(circle_trace):
    peak, bound, _ = internal_sphere_monitor(circle_trace, [0.0, 0.0], 1.0)
    # atoms lag the exact shrinkage only by the smoothing bias
    assert peak <= 0.05
    assert bound == SUPPORT_SLACK * circle_trace.config.eps
    # generous ball: support sits strictly inside throughout
    wide, _, _ = internal_sphere_monitor(circle_trace, [0.0, 0.0], 10.0)
    assert wide <= 0.0


def test_interior_atom_stays_interior():
    V = DiscreteVarifold.from_arrays(np.array([[0.1, 0.0]]),
                                     np.diag([1.0, 0.0]), np.array([0.5]), d=1)
    cfg = FlowConfig(eps=0.2, dt=5e-3, end_time=0.04)
    tr = run(V, cfg)
    peak, _, _ = internal_sphere_monitor(tr, [0.0, 0.0], 1.0)
    assert peak < 0.0


def test_hull_monitor_inward_flow(circle_trace):
    excess, bound, details = convex_hull_monitor(circle_trace)
    assert excess == 0.0 <= bound
    assert details == {"snapshots": len(circle_trace.snapshots)}


def test_hull_monitor_lone_atom():
    V = DiscreteVarifold.from_arrays(np.array([[0.3, 0.2]]),
                                     np.diag([1.0, 0.0]), np.array([1.0]), d=1)
    cfg = FlowConfig(eps=0.2, dt=5e-3, end_time=0.02)
    excess, _, _ = convex_hull_monitor(run(V, cfg))
    assert excess == 0.0


def test_planar_hull_in_space_matches_the_edge_oracle():
    # a regular 12-gon in a tilted plane of R^3 has no full-dimensional hull
    rng = np.random.default_rng(9)
    e1, e2, normal = np.linalg.qr(rng.normal(size=(3, 3)))[0].T
    c = np.array([0.3, -0.2, 0.5])
    th = np.arange(12) / 12 * 2.0 * math.pi
    ring = c + np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2
    # in-plane radii inside the polygon (its inradius is cos(pi/12) > 0.9)
    # and outside it, each in the plane and off it
    radius = np.concatenate([rng.uniform(0.0, 0.9, 40),
                             rng.uniform(1.1, 2.0, 40)])
    angle = rng.uniform(0.0, 2.0 * math.pi, 80)
    height = np.tile(np.repeat([0.0, 1.0], 20), 2) * rng.normal(size=80)
    pts = (c + (radius * np.cos(angle))[:, None] * e1
           + (radius * np.sin(angle))[:, None] * e2 + height[:, None] * normal)
    dist = _hull_distance(ring)(pts)
    edges = np.stack([ring, np.roll(ring, -1, axis=0)], axis=1)
    to_edges = simplex_distances(pts, edges).min(axis=1)
    for r, z, got, edge in zip(radius, height, dist, to_edges):
        want = abs(z) if r < 1.0 else edge
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_avoidance_identical_traces(circle_trace):
    gaps = avoidance_distance(circle_trace, circle_trace)
    assert np.all(gaps == 0.0)


def test_avoidance_concentric_gap_grows(circle_trace):
    inner = mesh_to_varifold(regular_polygon_mesh(60, 0.5))
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.1, refinement=2)
    tr_inner = run(inner, cfg)
    gaps = avoidance_distance(tr_inner, circle_trace)
    assert gaps[0] == pytest.approx(0.5, abs=2e-3)
    # the exact flows separate at rate d/dt (sqrt(1-2t) - sqrt(1/4-2t)) > 0;
    # the smoothed flow does too, monotonically here
    assert np.all(np.diff(gaps) > 0.0)
    band = 2.0 * cfg.eps
    running = np.maximum.accumulate(gaps)
    assert np.all(gaps >= running - band)


def test_avoidance_rejects_mismatched_grids(circle_trace):
    V = mesh_to_varifold(regular_polygon_mesh(30, 0.5))
    other = run(V, FlowConfig(eps=0.1, dt=4e-3, end_time=0.1, refinement=2))
    with pytest.raises(GridMismatch):
        avoidance_distance(circle_trace, other)


# ---------------------------------------------------------------------------
# lsc monitor


def lsc_weight(center, width):
    """The static weight (w^2 - |x - c|^2)^3 that lsc grades."""
    return BarrierFunction(np.asarray(center, dtype=float), width, 3.0, 0)


def weighted_masses(trace, psi):
    return np.array([float(np.dot(s.varifold.masses,
                                  psi.value(s.varifold.positions, s.time)))
                     for s in trace.snapshots])


def test_lsc_passes_with_derived_constant(circle_trace):
    bump = lsc_weight([0.0, 0.0], 2.0)
    uptick, slack, details = lsc_monitor(circle_trace, bump)
    assert uptick <= slack
    assert details["ramp_constant"] == pytest.approx(
        bump.hess_bound() * circle_trace.snapshots[0].mass)


def test_lsc_trivial_off_support(circle_trace):
    far = lsc_weight([50.0, 0.0], 1.0)
    uptick, slack, details = lsc_monitor(circle_trace, far)
    assert uptick <= 0.0 < slack
    # with the ramp removed (C = 0) the weighted mass is zero throughout
    assert np.all(weighted_masses(circle_trace, far) == 0.0)
    assert details["ramp_constant"] > 0.0


def test_lsc_zero_constant_control_fails():
    # multiplicity-4 circle moving into the weight's gradient: the weighted
    # mass genuinely climbs, so dropping the compensating constant must fail
    V1 = mesh_to_varifold(regular_polygon_mesh(100))
    V4 = DiscreteVarifold(V1.n, V1.d, V1.positions, V1.planes, 4.0 * V1.masses)
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.1, refinement=2)
    tr = run(V4, cfg)
    bump = lsc_weight([0.0, 0.0], 2.0)
    uptick, slack, _ = lsc_monitor(tr, bump)
    assert uptick <= slack
    # the same weighted masses with C = 0: the largest uptick beats the slack
    forced = float(np.max(np.diff(weighted_masses(tr, bump))))
    assert forced > slack


# ---------------------------------------------------------------------------
# the eps-scale barrier certificate


@pytest.fixture(scope="module")
def admissible_trace():
    V0 = mesh_to_varifold(regular_polygon_mesh(100))
    cfg = FlowConfig(eps=0.05, dt=1e-3, end_time=0.05, refinement=2)
    return run(V0, cfg)


def inner_barrier():
    return BarrierFunction(np.zeros(2), 0.3, 4.0, 1)


def test_certificate_passes_on_honest_run(admissible_trace):
    increase, bound, details = epsilon_barrier_certificate(
        admissible_trace, inner_barrier(), c5_cfg=1e-9)
    assert increase <= bound
    assert increase == pytest.approx(0.0, abs=1e-15)
    # norm constant: the profile's norms stay below one at this radius, so
    # the floor of the max kicks in and c = 2
    assert details["norm_constant"] == pytest.approx(2.0)
    assert bound == pytest.approx(2.0 * (10.0 * admissible_trace.mass_bound + 9.0)
                                  * 0.05 ** (1.0 / 6.0))
    assert any("ceiling" in note for note in details["notes"])


def test_certificate_rejects_coarse_subdivision(admissible_trace):
    with pytest.raises(PreconditionViolated, match="subdivision"):
        epsilon_barrier_certificate(admissible_trace, inner_barrier(),
                                    c5_cfg=1.0)


def test_certificate_rejects_large_scale():
    # one short step at the ceiling itself, config.SCALE_CEILING = 1
    V0 = mesh_to_varifold(regular_polygon_mesh(100))
    cfg = FlowConfig(eps=1.0, dt=1e-3, end_time=1e-3, refinement=2)
    with pytest.raises(PreconditionViolated, match="ceiling"):
        epsilon_barrier_certificate(run(V0, cfg), inner_barrier(),
                                    c5_cfg=1e-9)


def test_certificate_rejects_wrong_profile(admissible_trace):
    rough = BarrierFunction(np.zeros(2), 0.3, 3.0, 1)
    with pytest.raises(ConfigError):
        epsilon_barrier_certificate(admissible_trace, rough, c5_cfg=1e-9)


def _tampered(trace, index, new_varifold):
    snaps = list(trace.snapshots)
    snaps[index] = dataclasses.replace(snaps[index], varifold=new_varifold)
    return dataclasses.replace(trace, snapshots=tuple(snaps))


def test_certificate_catches_teleported_atoms(admissible_trace):
    mid = len(admissible_trace.snapshots) // 2
    V = admissible_trace.snapshots[mid].varifold
    pos = V.positions.copy()
    pos[0] = [0.0, 0.0]   # into the barrier ball, far beyond one step's reach
    bad = DiscreteVarifold(V.n, V.d, pos, V.planes.copy(), V.masses.copy())
    doctored = _tampered(admissible_trace, mid, bad)
    with pytest.raises(PreconditionViolated, match="displacement"):
        epsilon_barrier_certificate(doctored, inner_barrier(), c5_cfg=1e-9)


def test_certificate_catches_mass_injection(admissible_trace):
    mid = len(admissible_trace.snapshots) // 2
    V = admissible_trace.snapshots[mid].varifold
    bad = DiscreteVarifold(V.n, V.d, V.positions.copy(), V.planes.copy(),
                           V.masses * 3.0)
    doctored = _tampered(admissible_trace, mid, bad)
    with pytest.raises(PreconditionViolated, match="mass"):
        epsilon_barrier_certificate(doctored, inner_barrier(), c5_cfg=1e-9)
