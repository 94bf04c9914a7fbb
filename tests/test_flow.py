"""Pushforward and flow-loop tests.

The pushforward oracle here is deliberately low-tech: explicit loops and
Gram-Schmidt, no shared code with the library path (batched eigh + solve).
Maps are given as (value, jacobian) evaluator pairs; `push` hands their
values at the atoms to `pushforward`, as the stepper does.
"""

import math

import numpy as np
import pytest

from varimcf.barriers import BarrierFunction
from varimcf.errors import ConfigError, OutOfSpan, SingularMap
from varimcf.flow import (FlowConfig, brakke_residual, dissipation_budget,
                          pushforward, run, sample)
from varimcf.varifold import DiscreteVarifold, projections_from_bases


def polygon_circle(N=100, r=1.0):
    th = (np.arange(N) + 0.5) / N * 2.0 * math.pi
    pos = np.stack([r * np.cos(th), r * np.sin(th)], 1)
    tang = np.stack([-np.sin(th), np.cos(th)], 1)
    P = np.einsum("ai,aj->aij", tang, tang)
    m = np.full(N, 2.0 * math.pi * r / N)
    return DiscreteVarifold.from_arrays(pos, P, m, d=1)


def random_varifold(rng, n, d, N):
    pos = rng.normal(size=(N, n))
    planes = projections_from_bases([rng.normal(size=(d, n)) for _ in range(N)])
    m = rng.uniform(0.2, 1.5, size=N)
    return DiscreteVarifold.from_arrays(pos, planes, m, d=d)


def quadratic_map(n, alpha, rng):
    """x -> x + alpha * (quadratic) with hand-written Jacobian."""
    C = rng.normal(size=(n, n, n))
    C = 0.5 * (C + np.transpose(C, (0, 2, 1)))

    def value(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        q = np.einsum("ijk,aj,ak->ai", C, pts, pts)
        return pts + alpha * q

    def jac(pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        J = 2.0 * alpha * np.einsum("ijk,ak->aij", C, pts)
        return np.eye(n)[None] + J

    return value, jac


def push(V, f):
    """f_# V for a map f = (value, jacobian)."""
    value, jac = f
    return pushforward(V, value(V.positions), jac(V.positions))[0]


def push_atom(P, Df):
    """Image plane and tangential Jacobian of a unit atom at the origin
    whose plane has the projection P."""
    V = DiscreteVarifold.from_arrays(np.zeros((1, len(P))), P, [1.0],
                                     d=int(round(np.trace(P))))
    W = push(V, (lambda p: p, lambda p: np.asarray(Df, float)[None]))
    return W.planes[0], W.masses[0]


def gram_schmidt(rows):
    out = []
    for v in rows:
        w = v.copy()
        for u in out:
            w -= np.dot(w, u) * u
        norm = np.linalg.norm(w)
        assert norm > 1e-12
        out.append(w / norm)
    return np.array(out)


def oracle_pushforward_atom(pos, proj, mass, d, f):
    """Pushforward of a single atom, computed with loops and Gram-Schmidt."""
    # pick a plane basis by Gram-Schmidt over the projected coordinate axes
    basis = []
    for j in range(proj.shape[0]):
        v = proj[:, j].copy()
        for u in basis:
            v -= np.dot(v, u) * u
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
        if len(basis) == d:
            break
    assert len(basis) == d
    f_value, f_jac = f
    Df = f_jac(pos[None])[0]
    images = [Df @ b for b in basis]
    G = np.zeros((d, d))
    for k in range(d):
        for l in range(d):
            G[k, l] = np.dot(images[k], images[l])
    jac = math.sqrt(np.linalg.det(G))
    Q = gram_schmidt(images)
    newP = sum(np.outer(q, q) for q in Q)
    return f_value(pos[None])[0], newP, mass * jac


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2)])
def test_pushforward_matches_loop_oracle(n, d):
    rng = np.random.default_rng(7 * n + d)
    V = random_varifold(rng, n, d, 12)
    f = quadratic_map(n, 0.05, rng)
    W = push(V, f)
    for a in range(len(V)):
        pos, P, m = oracle_pushforward_atom(V.positions[a], V.planes[a],
                                            V.masses[a], d, f)
        assert np.allclose(W.positions[a], pos, atol=1e-12)
        assert np.allclose(W.planes[a], P, atol=1e-9)
        assert abs(W.masses[a] - m) <= 1e-9 * m


def test_tangential_jacobian_identity_and_scaling():
    plane = np.diag([1.0, 1.0, 0.0])
    assert push_atom(plane, np.eye(3))[1] == pytest.approx(1.0)
    # uniform dilation by 2 scales d-areas by 2^d
    assert push_atom(plane, 2.0 * np.eye(3))[1] == pytest.approx(4.0)
    # stretching the normal direction alone leaves the plane area unchanged
    D = np.diag([1.0, 1.0, 3.0])
    assert push_atom(plane, D)[1] == pytest.approx(1.0)


def test_tangential_jacobian_rotation_invariant():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(2, 3))
    (plane,) = projections_from_bases([B])
    th = 0.7
    R = np.array([[math.cos(th), -math.sin(th), 0.0],
                  [math.sin(th), math.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    img, jac = push_atom(plane, R)
    assert jac == pytest.approx(1.0, abs=1e-12)
    expect = R @ plane @ R.T
    assert np.allclose(img, expect, atol=1e-12)


def test_plane_image_basis_independent():
    rng = np.random.default_rng(11)
    B = rng.normal(size=(2, 3))
    # same plane presented through a different (mixed, scaled) basis
    mix = np.array([[2.0, 1.0], [0.5, -1.0]])
    p1, p2 = projections_from_bases([B, mix @ B])
    Df = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    i1, j1 = push_atom(p1, Df)
    i2, j2 = push_atom(p2, Df)
    assert np.allclose(i1, i2, atol=1e-10)
    assert j1 == pytest.approx(j2)


def test_pushforward_singular_map_raises():
    V = polygon_circle(8)
    squash = (
        lambda p: np.atleast_2d(np.asarray(p, float)) * np.array([1.0, 0.0]),
        lambda p: np.broadcast_to(np.diag([1.0, 0.0]),
                                  (np.atleast_2d(p).shape[0], 2, 2)).copy())
    with pytest.raises(SingularMap):
        push(V, squash)


def test_pushforward_translation_exact():
    V = polygon_circle(16)
    shift = np.array([0.3, -1.2])
    W = push(V, (lambda p: p + shift,
                 lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2))))
    assert np.allclose(W.positions, V.positions + np.array([0.3, -1.2]))
    assert np.allclose(W.planes, V.planes)
    assert np.allclose(W.masses, V.masses)


def test_identity_plus_linear_field_jacobian():
    # the step map x + s X(x) and its Jacobian I + s DX, built as the
    # stepper builds them, agree with central differences of the map
    A = np.array([[0.1, -0.3], [0.2, 0.05]])
    b = np.array([1.0, 2.0])
    s = 0.5
    value = lambda p: np.atleast_2d(p) + s * (np.atleast_2d(p) @ A.T + b)
    pts = np.array([[0.4, -0.7], [2.0, 1.0]])
    J = np.eye(2) + s * np.broadcast_to(A, (len(pts), 2, 2))
    step = 1e-6
    for a in range(2):
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (value(pts[a] + e)[0] - value(pts[a] - e)[0]) / (2 * step)
            assert np.allclose(J[a, :, j], fd, atol=1e-8)


# ---------------------------------------------------------------------------
# flow loop


@pytest.fixture(scope="module")
def circle_trace():
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.1, refinement=2)
    return run(polygon_circle(100), cfg)


def test_lone_atom_holds_position_and_sheds_mass():
    # by symmetry the regularized curvature vanishes at an isolated atom, so
    # it never moves; the field around it still contracts tangentially, so
    # the tangential Jacobian eats mass (never grows it)
    V = DiscreteVarifold.from_arrays(np.array([[0.2, -0.4]]),
                                     np.diag([1.0, 0.0]), np.array([1.0]), d=1)
    cfg = FlowConfig(eps=0.2, dt=1e-2, end_time=0.01)
    tr = run(V, cfg)
    assert len(tr.snapshots) == 2
    W = tr.snapshots[-1].varifold
    assert np.allclose(W.positions, V.positions, atol=1e-12)
    assert 0.0 < W.total_mass() <= V.total_mass()


def test_circle_flow_shrinks_and_mass_decreases(circle_trace):
    tr = circle_trace
    radii = [float(np.mean(np.linalg.norm(s.varifold.positions, axis=1)))
             for s in tr.snapshots]
    assert radii[-1] < radii[0]
    # exact law r(t) = sqrt(1 - 2t); the smoothing bias at eps = 0.1 stays
    # well under a percent at this horizon
    assert radii[-1] == pytest.approx(math.sqrt(0.8), rel=2e-2)
    masses = tr.masses
    assert np.all(np.diff(masses) < 0.0)


def test_per_step_mass_growth_bounded(circle_trace):
    tr = circle_trace
    dt = np.diff(tr.times)
    growth = np.diff(tr.masses)
    assert np.all(growth <= dt + 1e-9)


def test_dissipation_budget_telescopes(circle_trace):
    tr = circle_trace
    budget = dissipation_budget(tr)
    drop = tr.masses[0] - tr.masses[-1]
    span = tr.times[-1] - tr.times[0]
    assert budget <= drop + span + 1e-9
    # the first-order step expansion makes the two nearly equal
    assert budget == pytest.approx(drop, rel=2e-2)


def test_run_refuses_an_ambient_dimension_other_than_2_or_3():
    V = random_varifold(np.random.default_rng(4), 4, 1, 6)
    cfg = FlowConfig(eps=0.1, dt=1e-3, end_time=1e-3, refinement=2)
    with pytest.raises(ConfigError, match="dimensions 2 and 3"):
        run(V, cfg)


def test_sampling_piecewise_constant(circle_trace):
    tr = circle_trace
    t = tr.times[3]
    for s in (0.0, 0.3, 0.9):
        Vt = sample(tr, t + s * 2e-3, "piecewise")
        assert Vt is tr.snapshots[3].varifold


def test_sampling_interpolated_is_continuous(circle_trace):
    tr = circle_trace
    t = tr.times[5]
    eps_t = 1e-9
    left = sample(tr, t + 2e-3 - eps_t, "interpolated")
    right = sample(tr, t + 2e-3, "interpolated")
    gap = np.max(np.linalg.norm(left.positions - right.positions, axis=1))
    assert gap <= 1e-7
    assert abs(left.total_mass() - right.total_mass()) <= 1e-7


def test_sampling_gap_shrinks_with_dt():
    # sup over off-grid times of the distance between the two readings is
    # of order dt, so halving the step roughly halves it
    probes = np.arange(0.0105, 0.0196, 0.001)
    gaps = []
    for dt in (4e-3, 2e-3):
        cfg = FlowConfig(eps=0.1, dt=dt, end_time=0.02, refinement=2)
        tr = run(polygon_circle(64), cfg)
        worst = 0.0
        for t in probes:
            a = sample(tr, t, "piecewise")
            b = sample(tr, t, "interpolated")
            worst = max(worst, float(np.max(
                np.linalg.norm(a.positions - b.positions, axis=1))))
        gaps.append(worst)
    assert gaps[1] <= 0.7 * gaps[0]


def test_sample_rejects_out_of_span(circle_trace):
    with pytest.raises(OutOfSpan):
        sample(circle_trace, -0.01)
    with pytest.raises(OutOfSpan):
        sample(circle_trace, 0.2)


def test_brakke_residual_vanishes_off_support():
    # weight supported away from the flow: every term in the balance is zero
    cfg = FlowConfig(eps=0.1, dt=5e-3, end_time=0.02, refinement=2)
    tr = run(polygon_circle(32), cfg)
    phi = BarrierFunction(np.array([10.0, 0.0]), 1.0, 3.0, 1)    # moving
    assert brakke_residual(tr, phi, 0.0, 0.02) == 0.0


def test_brakke_residual_halves_with_dt():
    phi = BarrierFunction(np.array([0.0, 0.0]), 2.0, 3.0, 0)
    res = []
    for dt in (4e-3, 2e-3):
        cfg = FlowConfig(eps=0.1, dt=dt, end_time=0.04, refinement=2)
        tr = run(polygon_circle(64), cfg)
        res.append(brakke_residual(tr, phi, 0.0, 0.04))
    assert 1.5 <= res[0] / res[1] <= 3.0


def test_config_rejections(circle_trace):
    with pytest.raises(ConfigError):
        FlowConfig(eps=0.0, dt=1e-3, end_time=0.1)
    with pytest.raises(ConfigError):
        FlowConfig(eps=0.1, dt=1e-3, end_time=1.5)
    # an unknown reading is refused at a snapshot time and between two
    for t in (0.0, 0.002, 0.001):
        with pytest.raises(ConfigError, match="spline"):
            sample(circle_trace, t, "spline")


def test_mesh_vertices_advected_alongside():
    V = polygon_circle(64)
    th = (np.arange(64) + 0.5) / 64 * 2.0 * math.pi
    verts = np.stack([np.cos(th), np.sin(th)], 1)
    simp = np.stack([np.arange(64), (np.arange(64) + 1) % 64], 1)
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.02, refinement=2)
    tr = run(V, cfg, mesh_vertices=verts, mesh_simplices=simp)
    first = tr.snapshots[0].mesh_vertices
    last = tr.snapshots[-1].mesh_vertices
    assert np.allclose(first, verts)
    r_last = np.linalg.norm(last, axis=1)
    assert np.all(r_last < 1.0)
    # vertices coincide with atom positions here, so they track them exactly
    assert np.allclose(last, tr.snapshots[-1].varifold.positions, atol=1e-9)
    assert tr.mesh_simplices is simp
