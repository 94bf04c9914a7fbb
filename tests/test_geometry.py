"""Mesh machinery: closedness, quadrature exactness, volumes, containment,
and the volume-change / nontriviality certificates."""

import dataclasses
import math

import numpy as np
import pytest

from varimcf import geometry
from varimcf.errors import ConfigError, PreconditionViolated, VarimcfError
from varimcf.flow import FlowConfig, FlowTrace, Snapshot, run
from varimcf.geometry import (SurfaceMesh, _ball_volume, _disk_area, contains,
                              enclosed_volume, icosphere_mesh, loop_mesh,
                              mesh_to_varifold,
                              nontriviality_certificate, regular_polygon_mesh,
                              simplex_distances, volume_change_constant,
                              volume_change_series)
from varimcf.varifold import DiscreteVarifold


def unit_square():
    return loop_mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def moved(mesh, f):
    """The mesh with every vertex mapped by f, connectivity kept (as `run`
    advects tracked meshes)."""
    return SurfaceMesh(f(mesh.vertices), mesh.simplices)


def one_step(before, after, delta):
    """A one-step trace whose tracked mesh goes from `before` to `after`
    with the recorded step perturbation delta."""
    V = mesh_to_varifold(before)
    return FlowTrace(FlowConfig(eps=0.1, dt=0.1, end_time=0.1), (
        Snapshot(0.0, V, mesh_vertices=before.vertices, step_delta=delta),
        Snapshot(0.1, V, mesh_vertices=after.vertices)), before.simplices)


# ---------------------------------------------------------------------------
# point-to-simplex distances, against brute-force parameter sweeps


def test_point_segment_distance_brute_force():
    rng = np.random.default_rng(1)
    ts = np.linspace(0.0, 1.0, 20001)
    segments, points = np.empty((20, 2, 3)), np.empty((20, 3))
    for k in range(20):
        draw = rng.normal(size=(3, 3))
        segments[k], points[k] = draw[:2], draw[2]
    got = simplex_distances(points, segments)
    assert got.shape == (20, 20)
    for k, ((a, b), p) in enumerate(zip(segments, points)):
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        brute = float(np.min(np.linalg.norm(pts - p, axis=1)))
        assert got[k, k] == pytest.approx(brute, abs=1e-6)


def test_point_triangle_distance_brute_force():
    rng = np.random.default_rng(2)
    u = np.linspace(0.0, 1.0, 201)
    uu, vv = np.meshgrid(u, u)
    keep = uu + vv <= 1.0
    uu, vv = uu[keep], vv[keep]
    triangles, points = np.empty((10, 3, 3)), np.empty((10, 3))
    for k in range(10):
        draw = rng.normal(size=(4, 3))
        triangles[k], points[k] = draw[:3], draw[3]
    got = simplex_distances(points, triangles)
    assert got.shape == (10, 10)
    for k, ((a, b, c), p) in enumerate(zip(triangles, points)):
        pts = a[None, :] + uu[:, None] * (b - a)[None, :] + vv[:, None] * (c - a)[None, :]
        brute = float(np.min(np.linalg.norm(pts - p, axis=1)))
        assert got[k, k] <= brute + 1e-12
        assert got[k, k] == pytest.approx(brute, abs=1e-4)


# ---------------------------------------------------------------------------
# meshes and exact quadrature


def test_polygon_perimeter_exact_formula():
    for N in (64, 256):
        V = mesh_to_varifold(regular_polygon_mesh(N))
        assert V.total_mass() == pytest.approx(2.0 * N * math.sin(math.pi / N),
                                               abs=1e-12)


def test_polygon_perimeter_converges_to_circle():
    errs = [abs(mesh_to_varifold(regular_polygon_mesh(N)).total_mass()
                - 2.0 * math.pi) for N in (64, 256)]
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-3


def test_unit_square_mass_and_area():
    sq = unit_square()
    assert mesh_to_varifold(sq).total_mass() == pytest.approx(4.0, abs=1e-12)
    assert enclosed_volume(sq) == pytest.approx(1.0, abs=1e-12)


def test_large_circle_area():
    mesh = regular_polygon_mesh(256, 2.0)
    assert enclosed_volume(mesh) == pytest.approx(4.0 * math.pi, rel=1e-3)


def test_reversed_orientation_negates_volume():
    sq = unit_square()
    flipped = SurfaceMesh(sq.vertices, sq.simplices[:, ::-1])
    assert enclosed_volume(flipped) == pytest.approx(-1.0, abs=1e-12)


def test_icosphere_area_and_volume():
    ico = icosphere_mesh(3)
    ico.check_closed()
    area = mesh_to_varifold(ico).total_mass()
    assert area == pytest.approx(4.0 * math.pi, rel=1e-2)
    assert enclosed_volume(ico) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-2)


def test_open_and_inconsistent_meshes_rejected():
    sq = unit_square()
    with pytest.raises(VarimcfError, match="each vertex must be the tail"):
        enclosed_volume(SurfaceMesh(sq.vertices, sq.simplices[:-1]))
    ico = icosphere_mesh(0)
    bad = ico.simplices.copy()
    bad[0] = bad[0, ::-1]
    with pytest.raises(VarimcfError, match="duplicated directed edge"):
        enclosed_volume(SurfaceMesh(ico.vertices, bad))


def test_degenerate_simplex_rejected():
    mesh = loop_mesh([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(VarimcfError, match="a facet has vanishing measure"):
        mesh_to_varifold(mesh)


def test_subdivided_sampling_keeps_mass_exact():
    sq = unit_square()
    for s in (1, 2, 5):
        assert mesh_to_varifold(sq, s).total_mass() == pytest.approx(4.0, abs=1e-12)
    ico = icosphere_mesh(1)
    area = mesh_to_varifold(ico, 1).total_mass()
    for s in (2, 3):
        assert mesh_to_varifold(ico, s).total_mass() == pytest.approx(area, abs=1e-10)


def test_triangle_strip_quadrature_first_moment():
    # strip centroids weighted by equal areas must reproduce the exact first
    # moment area * barycenter, so affine integrands are integrated exactly
    tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 1.0]])
    mesh = SurfaceMesh(tri, np.array([[0, 1, 2]]))
    area = math.sqrt(10.0)      # half the norm of (0, -2, 6)
    bary = tri.mean(axis=0)
    for s in (1, 2, 7):
        V = mesh_to_varifold(mesh, s)
        moment = (V.masses[:, None] * V.positions).sum(axis=0)
        assert np.allclose(moment, area * bary, atol=1e-12)


def test_varifold_planes_match_facets():
    sq = unit_square()
    V = mesh_to_varifold(sq)
    # bottom edge runs along x: its plane projects onto e1
    bottom = V.planes[0]
    assert np.allclose(bottom, np.diag([1.0, 0.0]), atol=1e-12)


# ---------------------------------------------------------------------------
# advection


def test_advect_identity_and_translation():
    sq = unit_square()
    same = moved(sq, lambda p: p)
    assert np.allclose(same.vertices, sq.vertices)
    shifted = moved(sq, lambda p: p + np.array([2.0, -1.0]))
    assert enclosed_volume(shifted) == pytest.approx(1.0, abs=1e-12)


def test_advect_scaling_scales_area():
    sq = unit_square()
    doubled = moved(sq, lambda p: 2.0 * p)
    assert enclosed_volume(doubled) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# containment


def test_contains_2d_basic():
    circle = regular_polygon_mesh(128)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.2, 0.0], [0.99, 0.0],
                    [-0.99, 0.0]])
    assert list(contains(circle, pts)) == [True, True, False, True, True]


def test_contains_2d_ray_through_vertex():
    # query shares its height with two vertices; the half-open rule keeps
    # the parity correct
    ell = loop_mesh([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                     [1.0, 2.0], [0.0, 2.0]])
    pts = np.array([[0.5, 1.0], [1.5, 1.5], [0.5, 0.5]])
    assert list(contains(ell, pts)) == [True, False, True]


def test_contains_3d_basic():
    ico = icosphere_mesh(2)
    pts = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.2, 0.0, 0.0],
                    [0.0, 0.0, -0.97]])
    assert list(contains(ico, pts)) == [True, True, False, True]


def test_contains_3d_degenerate_ray_falls_back():
    # query directly below a vertex where several triangles meet: the
    # winding number has no preferred direction to be degenerate in
    ico = icosphere_mesh(1)
    v = ico.vertices[int(np.argmax(ico.vertices[:, 2]))]
    pts = np.array([[v[0], v[1], v[2] - 0.2], [v[0], v[1], v[2] + 1.0]])
    got = contains(ico, pts)
    assert got[0] and not got[1]


def test_contains_monte_carlo_area():
    circle = regular_polygon_mesh(256)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.2, 1.2, size=(200_000, 2))
    frac = float(np.mean(contains(circle, pts)))
    area = frac * 2.4**2
    se = 2.4**2 * math.sqrt(frac * (1.0 - frac) / len(pts))
    assert abs(area - math.pi) <= 3.0 * se + 2e-3


# ---------------------------------------------------------------------------
# clipped volumes


def test_clipped_change_identity():
    circle = regular_polygon_mesh(64)
    change, bound, _ = volume_change_series(one_step(circle, circle, 0.0),
                                            [0.0, 0.0], 0.8)
    assert change == 0.0
    assert change <= bound


def test_clipped_change_translation_against_grid_oracle():
    sq = loop_mesh([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    shifted = moved(sq, lambda p: p + np.array([0.5, 0.0]))
    change, bound, _ = volume_change_series(one_step(sq, shifted, 0.5),
                                            [0.0, 0.0], 0.8)
    g = np.linspace(-0.8, 0.8, 801)
    X, Y = np.meshgrid(g, g)
    P = np.stack([X.ravel(), Y.ravel()], 1)
    inball = np.linalg.norm(P, axis=1) <= 0.8
    cell = (g[1] - g[0]) ** 2
    oracle = abs(float((contains(sq, P) & inball).sum())
                 - float((contains(shifted, P) & inball).sum())) * cell
    assert change == pytest.approx(oracle, abs=1e-2)
    assert bound == pytest.approx(volume_change_constant(2, 0.8) * 0.5)
    assert change <= bound


def square(a, center=(0.0, 0.0)):
    return loop_mesh(np.array([[-a, -a], [a, -a], [a, a], [-a, a]]) + center)


def reversed_loops(mesh):
    return SurfaceMesh(mesh.vertices, mesh.simplices[:, ::-1])


STAR = loop_mesh([[0.9, 0.0], [0.2, 0.3], [0.0, 0.8], [-0.4, 0.1],
                  [-0.7, -0.6], [0.1, -0.2], [0.5, -0.7]])
_A, _R = 0.5, 0.6


@pytest.mark.parametrize("mesh, center, r, area", [
    (regular_polygon_mesh(12, 2.0), (0.1, -0.2), 0.7, math.pi * 0.49),
    (STAR, (0.05, 0.0), 1.5, enclosed_volume(STAR)),
    (square(100.0, (100.0, 0.0)), (0.0, 0.0), 0.8, math.pi * 0.64 / 2.0),
    (square(_A), (0.0, 0.0), _R,
     math.pi * _R**2 - 4.0 * (_R**2 * math.acos(_A / _R)
                              - _A * math.sqrt(_R**2 - _A**2))),
    # every vertex of the 6 x 8 rectangle lies on the circle of radius 5
    (loop_mesh([[-3.0, -4.0], [3.0, -4.0], [3.0, 4.0], [-3.0, 4.0]]),
     (0.0, 0.0), 5.0, 48.0),
    # every edge of the square touches the circle at its midpoint
    (square(1.0), (0.0, 0.0), 1.0, math.pi),
], ids=["disk-inside-polygon", "polygon-inside-disk", "half-plane",
        "square-corners-outside", "vertices-on-circle", "edges-tangent"])
def test_disk_area_closed_forms(mesh, center, r, area):
    assert _disk_area(mesh, center, r) == pytest.approx(area, abs=1e-12)
    assert _disk_area(reversed_loops(mesh), center, r) == pytest.approx(
        -area, abs=1e-12)


def test_reversed_loops_give_the_same_change():
    before = regular_polygon_mesh(40)
    after = moved(before, lambda p: p + np.array([0.1, 0.05]))
    fwd, _, _ = volume_change_series(one_step(before, after, 0.1),
                                     [0.2, 0.0], 0.9)
    back, _, _ = volume_change_series(
        one_step(reversed_loops(before), reversed_loops(after), 0.1),
        [0.2, 0.0], 0.9)
    assert fwd > 0.01
    assert back == pytest.approx(fwd, abs=1e-12)


def random_star_polygon(rng):
    """A simple polygon star-shaped about its centre: sorted angles, every
    gap between neighbours below pi."""
    k = int(rng.integers(5, 13))
    while True:
        th = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        if np.diff(np.append(th, th[0] + 2.0 * math.pi)).max() < math.pi:
            break
    rad = rng.uniform(0.3, 1.5, k)
    return loop_mesh(np.column_stack([rad * np.cos(th), rad * np.sin(th)])
                     + rng.uniform(-0.3, 0.3, 2))


def ball_samples(center, radius, count, n, seed):
    """Points uniform in the ball B(center, radius): the Monte Carlo
    reference for the exact clipped volumes."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return np.asarray(center, float) + z * r


def test_disk_area_matches_monte_carlo_on_random_star_polygons():
    rng = np.random.default_rng(2024)
    samples = 100_000
    for trial in range(50):
        mesh = random_star_polygon(rng)
        center = rng.uniform(-0.5, 0.5, 2)
        r = float(rng.uniform(0.3, 1.2))
        hit = contains(mesh, ball_samples(center, r, samples, 2, trial))
        disk = math.pi * r * r
        mc = disk * float(np.mean(hit))
        se = disk * float(np.std(hit)) / math.sqrt(samples)
        assert abs(_disk_area(mesh, center, r) - mc) <= 4.0 * se + 1e-12, trial


def unit_cube():
    """[0, 1]^3 as 12 outward triangles; vertex 4x + 2y + z is (x, y, z)."""
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                 dtype=float)
    quads = [[0, 1, 3, 2], [4, 6, 7, 5], [0, 4, 5, 1], [2, 3, 7, 6],
             [0, 2, 6, 4], [1, 5, 7, 3]]
    return SurfaceMesh(v, [[a, b, c] for a, b, c, _ in quads]
                       + [[a, c, d] for a, _, c, d in quads])


def with_zero_area_facet(mesh):
    """The mesh with the edge (i, j) of its first facet (i, j, k) split at
    its midpoint m: (i, j, k) becomes (i, m, k), (m, j, k) and the
    zero-area (i, j, m), which keeps every edge paired."""
    i, j, k = mesh.simplices[0]
    m = len(mesh.vertices)
    V = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[i] + mesh.vertices[j])])
    S = np.vstack([[[i, m, k], [m, j, k], [i, j, m]], mesh.simplices[1:]])
    return SurfaceMesh(V, S)


CUBE = unit_cube()
ICO = icosphere_mesh(2)


@pytest.mark.parametrize("mesh, center, r, volume", [
    (CUBE, (0.0, 0.0, 0.0), 0.3, math.pi * 0.3**3 / 6.0),
    (CUBE, (0.0, 0.0, 0.0), 0.7, math.pi * 0.7**3 / 6.0),
    (CUBE, (0.0, 0.0, 0.0), 0.99, math.pi * 0.99**3 / 6.0),
    (CUBE, (0.5, 0.4, 0.6), 2.0, 1.0),
    (ICO, (0.1, -0.2, 0.0), 3.0, enclosed_volume(ICO)),
    (CUBE, (0.5, 0.5, 0.5), 0.3, 4.0 / 3.0 * math.pi * 0.3**3),
    (ICO, (0.1, -0.2, 0.0), 0.5, 4.0 / 3.0 * math.pi * 0.5**3),
    # the split edge runs from the corner (0, 0, 0) to (0, 0, 1)
    (with_zero_area_facet(CUBE), (0.0, 0.0, 0.0), 0.5, math.pi * 0.5**3 / 6.0),
], ids=["cube-corner-0.3", "cube-corner-0.7", "cube-corner-0.99",
        "ball-holds-cube", "ball-holds-icosphere", "ball-inside-cube",
        "ball-inside-icosphere", "zero-area-facet"])
def test_ball_volume_closed_forms(mesh, center, r, volume):
    assert _ball_volume(mesh, center, r) == pytest.approx(volume, abs=1e-12)
    assert _ball_volume(reversed_loops(mesh), center, r) == pytest.approx(
        -volume, abs=1e-12)


def inside_convex(mesh, pts):
    """Containment in a convex mesh: behind every facet's plane."""
    A, B, C = (mesh.vertices[mesh.simplices[:, k]] for k in range(3))
    normal = np.cross(B - A, C - A)
    offset = np.einsum("fi,fi->f", normal, A)
    return np.all(pts @ normal.T <= offset, axis=1)


@pytest.mark.parametrize("center, r", [
    ((0.9, 0.0, 0.0), 0.3), ((0.5, 0.5, 0.5), 0.5), ((0.0, 0.0, 0.95), 0.2),
    ((0.3, -0.2, 0.1), 1.0)])
def test_ball_volume_matches_monte_carlo_on_the_icosphere(center, r):
    samples = 400_000
    hit = inside_convex(ICO, ball_samples(center, r, samples, 3, 7))
    ball = 4.0 / 3.0 * math.pi * r**3
    mc = ball * float(np.mean(hit))
    se = ball * float(np.std(hit)) / math.sqrt(samples)
    assert 0.0 < mc < ball              # the ball cuts the surface
    assert abs(_ball_volume(ICO, center, r) - mc) <= 4.0 * se


def test_contains_is_blind_to_orientation():
    rng = np.random.default_rng(5)
    for mesh in (STAR, ICO):
        pts = rng.uniform(-1.2, 1.2, size=(2000, mesh.n))
        inside = contains(mesh, pts)
        assert 0 < inside.sum() < len(pts)
        assert np.array_equal(contains(reversed_loops(mesh), pts), inside)


def test_contains_counts_nested_loops_of_one_orientation_as_inside():
    # the union of the two-region preset's circles: the inner disk winds
    # twice, the annulus once and the exterior not at all
    inner, outer = regular_polygon_mesh(64, 0.5), regular_polygon_mesh(128, 1.0)
    union = SurfaceMesh(np.vstack([inner.vertices, outer.vertices]),
                        np.vstack([inner.simplices,
                                   outer.simplices + len(inner.vertices)]))
    pts = np.array([[0.0, 0.0], [0.2, -0.1], [0.75, 0.0], [0.0, -0.9],
                    [1.2, 0.0], [-0.8, 0.9]])
    want = [True, True, True, True, False, False]
    assert list(contains(union, pts)) == want
    assert list(contains(reversed_loops(union), pts)) == want


def test_volume_reports_carry_no_sampling_fields():
    circle = regular_polygon_mesh(32)
    flat = volume_change_series(one_step(
        circle, moved(circle, lambda p: p + np.array([0.05, 0.0])), 0.05),
        [0.0, 0.0], 0.9)
    solid = volume_change_series(one_step(
        ICO, moved(ICO, lambda p: p + np.array([0.05, 0.0, 0.0])), 0.05),
        [0.0, 0.0, 0.0], 0.9)
    # the measured change, its bound and the step, and nothing else
    for change, bound, details in (flat, solid):
        assert type(change) is float and type(bound) is float
        assert details == {"steps": 1, "worst_step": 0}


def test_clipped_change_rejects_large_delta():
    sq = unit_square()
    with pytest.raises(PreconditionViolated,
                       match="step perturbation 1.0 must be below 1"):
        volume_change_series(one_step(sq, sq, 1.0), [0.0, 0.0], 1.0)
    with pytest.raises(ConfigError):
        volume_change_series(one_step(sq, sq, -0.1), [0.0, 0.0], 1.0)


def test_volume_change_constant_formula():
    # omega_2 = pi: pi R^2 + max{4 pi, 4 pi (R+1)}
    R = 0.8
    expect = math.pi * R**2 + max(4.0 * math.pi, 4.0 * math.pi * (R + 1.0))
    assert volume_change_constant(2, R) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# certificates on a mesh-carrying run


@pytest.fixture(scope="module")
def mesh_trace():
    mesh = regular_polygon_mesh(100)
    V0 = mesh_to_varifold(mesh)
    cfg = FlowConfig(eps=0.1, dt=2e-3, end_time=0.1)
    return run(V0, cfg, mesh_vertices=mesh.vertices, mesh_simplices=mesh.simplices)


def test_volume_series_passes(mesh_trace):
    # ball cutting through the moving boundary so the measured change is real
    change, bound, details = volume_change_series(mesh_trace, [0.0, 0.0], 0.95)
    assert details["steps"] == len(mesh_trace.snapshots) - 1
    # the step nearest its bound keeps to it, so every step does
    assert change <= bound
    areas = [_disk_area(SurfaceMesh(s.mesh_vertices, mesh_trace.mesh_simplices),
                        [0.0, 0.0], 0.95) for s in mesh_trace.snapshots]
    changes = np.abs(np.diff(areas))
    assert max(changes) > 0.0
    worst = details["worst_step"]
    assert change == changes[worst]


def test_volume_series_computes_one_area_per_frame(mesh_trace, monkeypatch):
    calls = []
    inner = geometry._disk_area

    def counting(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(geometry, "_disk_area", counting)
    volume_change_series(mesh_trace, [0.0, 0.0], 0.95)
    assert len(calls) == len(mesh_trace.snapshots)


def test_nontriviality_certificate_passes(mesh_trace):
    min_mass, floor, details = nontriviality_certificate(mesh_trace,
                                                         [0.0, 0.0], 0.8)
    assert min_mass >= floor
    assert details["horizon"] == pytest.approx(0.08)
    # floor = c_2 (pi (R/2)^2 / 4)^(1/2) with the sharp c_2 = 2 sqrt(pi)
    expect = 2.0 * math.sqrt(math.pi) * math.sqrt(math.pi * 0.16 / 4.0)
    assert floor == pytest.approx(expect, rel=1e-12)
    assert details["isoperimetric_constant"] == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-12)


def test_nontriviality_low_mass_control(mesh_trace):
    snaps = []
    for s in mesh_trace.snapshots:
        V = s.varifold
        thin = DiscreteVarifold(V.n, V.d, V.positions, V.planes,
                                1e-3 * V.masses)
        snaps.append(dataclasses.replace(s, varifold=thin))
    starved = dataclasses.replace(mesh_trace, snapshots=tuple(snaps))
    min_mass, floor, _ = nontriviality_certificate(starved, [0.0, 0.0], 0.8)
    assert min_mass < floor


def test_nontriviality_rejects_bad_ball(mesh_trace):
    with pytest.raises(PreconditionViolated, match="ball center lies outside"):
        nontriviality_certificate(mesh_trace, [2.0, 0.0], 0.5)
    with pytest.raises(PreconditionViolated, match="pokes through the boundary"):
        nontriviality_certificate(mesh_trace, [0.6, 0.0], 0.5)


def test_refinement_consistency_tiny_flow():
    mesh = regular_polygon_mesh(32)
    cfg = FlowConfig(eps=0.15, dt=2e-3, end_time=0.02)
    terminal = []
    for s in (1, 2, 4):
        tr = run(mesh_to_varifold(mesh, s), cfg)
        terminal.append(tr.masses[-1])
    first = abs(terminal[1] - terminal[0])
    second = abs(terminal[2] - terminal[1])
    assert second <= first + 1e-12

