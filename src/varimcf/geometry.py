"""Boundary meshes, enclosed volumes, and the certificates that need them.

Regions are known only through their oriented boundaries: segment loops in
the plane, triangle meshes in space.  A `SurfaceMesh` is closed and
consistently oriented by construction, so everything downstream
(point-in-region tests, clipped volumes, the nontriviality bound) works off
that boundary representation alone and checks no topology of its own.  A
flow's tracked boundary is one such mesh per snapshot (`Snapshot.mesh`).

Every facet formula (quadrature, measure, enclosed volume, point distance)
is one rule for a d-simplex, d = n - 1.  Atoms are manufactured from a mesh
by exact quadrature: a facet is cut into pieces of equal measure between
copies of itself scaled about its first vertex, each sampled at its
centroid, so total mass equals total mesh measure exactly.

The volume of a region inside a ball is exact in both dimensions: the
divergence theorem over the boundary facets, each edge cut where it crosses
the sphere.  Containment is a nonzero winding number, a sum of signed
(solid) angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEGENERATE_SIMPLEX, ball_volume, isoperimetric_constant
from .errors import ConfigError, PreconditionViolated, VarimcfError
from .flow import FlowTrace
from .varifold import (DiscreteVarifold, _frozen, _independent,
                       projections_from_bases)


def simplex_distances(points, corners) -> np.ndarray:
    """Distances (P, F) from points (P, n) to closed k-simplices `corners`
    (F, k + 1, n): the foot of the perpendicular on a simplex's affine hull
    where its barycentric coordinates are all >= 0, and the nearest facet of
    the simplex elsewhere, down to its corners."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    corners = np.asarray(corners, dtype=float)
    p = points[:, None, :]
    a = corners[:, 0]
    k = corners.shape[1] - 1
    if k == 0:
        return np.linalg.norm(p - a, axis=2)
    E = corners[:, 1:] - a[:, None, :]                 # (F, k, n)
    gram = E @ E.transpose(0, 2, 1)
    solvable = _independent(gram)
    # coordinates c of the foot a + c E: c = (p - a) . G^-1 E
    dual = np.linalg.solve(np.where(solvable[:, None, None], gram, np.eye(k)), E)
    c = np.einsum("pfi,fki->pfk", p - a, dual)
    inside = solvable & np.all(c >= 0.0, axis=2) & (c.sum(axis=2) <= 1.0)
    foot = np.linalg.norm(p - a - np.einsum("pfk,fki->pfi", c, E), axis=2)
    faces = [np.delete(np.arange(k + 1), j) for j in range(k + 1)]
    nearest = simplex_distances(points, corners[:, faces].reshape(-1, k, points.shape[1]))
    return np.where(inside, foot,
                    nearest.reshape(len(points), -1, k + 1).min(axis=2))


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed, consistently oriented boundary mesh: segments when n = 2,
    triangles when n = 3.  Construction refuses any other (`check_closed`)."""

    vertices: np.ndarray   # (M, n)
    simplices: np.ndarray  # (F, n) integer

    def __post_init__(self):
        v = _frozen(self.vertices)
        s = _frozen(self.simplices, np.int64)
        if v.ndim != 2 or v.shape[1] not in (2, 3):
            raise ConfigError("vertices must be (M, 2) or (M, 3)")
        if s.ndim != 2 or s.shape[1] != v.shape[1]:
            raise ConfigError("simplices must have one row per facet, "
                              "width matching the ambient dimension")
        if len(s) and (s.min() < 0 or s.max() >= len(v)):
            raise ConfigError("simplex index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "simplices", s)
        self.check_closed()

    @property
    def n(self) -> int:
        return self.vertices.shape[1]

    def __len__(self) -> int:
        return self.simplices.shape[0]

    def check_closed(self) -> None:
        """Closed and consistently oriented, or VarimcfError with the defect."""
        if len(self) == 0:
            raise VarimcfError("mesh has no facets")
        if self.n == 2:
            tails = np.bincount(self.simplices[:, 0], minlength=len(self.vertices))
            heads = np.bincount(self.simplices[:, 1], minlength=len(self.vertices))
            used = np.unique(self.simplices)
            if (np.any(tails[used] != 1) or np.any(heads[used] != 1)):
                raise VarimcfError("each vertex must be the tail of exactly one "
                                   "segment and the head of exactly one")
        else:
            e = np.vstack([self.simplices[:, [0, 1]], self.simplices[:, [1, 2]],
                           self.simplices[:, [2, 0]]])
            codes = e[:, 0] * len(self.vertices) + e[:, 1]
            if len(np.unique(codes)) != len(codes):
                raise VarimcfError("duplicated directed edge (inconsistent orientation)")
            rev = e[:, 1] * len(self.vertices) + e[:, 0]
            if not np.array_equal(np.sort(codes), np.sort(rev)):
                raise VarimcfError("an edge lacks its oppositely oriented partner")

    def measures(self) -> np.ndarray:
        """Measure sqrt(det E E^T) / (n - 1)! of each facet, E its edge rows."""
        corners = self.vertices[self.simplices]
        E = corners[:, 1:] - corners[:, :1]
        return (np.sqrt(np.linalg.det(E @ E.transpose(0, 2, 1)))
                / math.factorial(self.n - 1))


def loop_mesh(points) -> SurfaceMesh:
    """Closed polygon through the points in order (n = 2)."""
    pts = np.asarray(points, dtype=float)
    M = len(pts)
    segs = np.stack([np.arange(M), (np.arange(M) + 1) % M], axis=1)
    return SurfaceMesh(pts, segs)


def regular_polygon_mesh(sides: int, radius: float = 1.0,
                         center=(0.0, 0.0)) -> SurfaceMesh:
    th = (np.arange(sides) + 0.5) / sides * 2.0 * math.pi
    pts = np.stack([np.cos(th), np.sin(th)], 1) * radius + np.asarray(center, float)
    return loop_mesh(pts)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    [-1, _ICO_T, 0], [1, _ICO_T, 0], [-1, -_ICO_T, 0], [1, -_ICO_T, 0],
    [0, -1, _ICO_T], [0, 1, _ICO_T], [0, -1, -_ICO_T], [0, 1, -_ICO_T],
    [_ICO_T, 0, -1], [_ICO_T, 0, 1], [-_ICO_T, 0, -1], [-_ICO_T, 0, 1],
], dtype=float)
_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def icosphere_mesh(level: int = 2, radius: float = 1.0,
                   center=(0.0, 0.0, 0.0)) -> SurfaceMesh:
    """Subdivided icosahedron projected to the sphere, outward oriented."""
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES.copy()
    for _ in range(level):
        midpoint = {}
        new_faces = []
        verts_list = list(verts)

        def midof(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                m = verts_list[i] + verts_list[j]
                verts_list.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts_list) - 1
            return midpoint[key]

        for a, b, c in faces:
            ab, bc, ca = midof(a, b), midof(b, c), midof(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces, dtype=np.int64)
    return SurfaceMesh(verts * radius + np.asarray(center, float), faces)


def mesh_to_varifold(mesh: SurfaceMesh,
                     samples_per_simplex: int = 1) -> DiscreteVarifold:
    """Atoms at facet quadrature points; total mass = total measure exactly.

    Piece k of s lies between the facet's copies scaled about its first
    vertex A by tau_(k-1) and tau_k = (k/s)^(1/d).  Its centroid is
    A + lambda_k (Q - A), Q the centroid of the opposite face, with
    lambda_k = d/(d+1) (tau_k^(d+1) - tau_(k-1)^(d+1)) / (tau_k^d - tau_(k-1)^d).
    """
    if samples_per_simplex < 1:
        raise ConfigError("need at least one sample per facet")
    meas = mesh.measures()
    if np.any(meas <= DEGENERATE_SIMPLEX):
        raise VarimcfError("a facet has vanishing measure")
    corners = mesh.vertices[mesh.simplices]            # (F, n, n)
    s, d = samples_per_simplex, mesh.n - 1
    A = corners[:, 0]
    Q = corners[:, 1:].mean(axis=1)
    tau = (np.arange(s + 1) / s) ** (1.0 / d)
    lam = d / (d + 1.0) * np.diff(tau ** (d + 1)) / np.diff(tau ** d)
    pos = A[:, None, :] + lam[None, :, None] * (Q - A)[:, None, :]
    planes = projections_from_bases(corners[:, 1:] - A[:, None, :])
    return DiscreteVarifold.from_arrays(
        pos.reshape(-1, mesh.n), np.repeat(planes, s, axis=0),
        np.repeat(meas / s, s), d=d)


def enclosed_volume(mesh: SurfaceMesh) -> float:
    """Divergence-theorem volume sum det(corners) / n!, positive if outward."""
    return float(np.linalg.det(mesh.vertices[mesh.simplices]).sum()
                 / math.factorial(mesh.n))


# ---------------------------------------------------------------------------
# winding numbers and clipped volumes, both exact


def _solid_angle(a, b, c) -> np.ndarray:
    """Signed solid angle of the triangles (a, b, c) seen from the origin,
    positive when the normal (b - a) x (c - a) points away from it (Van
    Oosterom and Strackee, IEEE Trans. Biomed. Eng. 30, 1983).  The last
    axis holds the coordinates."""
    la, lb, lc = (np.linalg.norm(x, axis=-1) for x in (a, b, c))
    det = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (la * lb * lc + np.einsum("...i,...i->...", a, b) * lc
           + np.einsum("...i,...i->...", a, c) * lb
           + np.einsum("...i,...i->...", b, c) * la)
    return 2.0 * np.arctan2(det, den)


def contains(mesh: SurfaceMesh, points) -> np.ndarray:
    """True for points the mesh winds around a nonzero number of times.

    The signed angles (n = 2) or solid angles (n = 3) that the facets
    subtend at a point sum to 2 pi or 4 pi times its winding number, so
    either orientation gives the same answer.  On a simple loop or surface
    this is the parity rule; on nested boundaries of one orientation, such
    as two concentric circles, the inner region winds twice and is inside.
    Undefined on the mesh itself.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != mesh.n:
        raise ConfigError("query points have the wrong ambient dimension")
    corners = mesh.vertices[mesh.simplices]            # (F, n, n)
    full_turn = 2.0 * math.pi * (mesh.n - 1)
    winding = np.empty(len(pts))
    # blocks of points so that no (point, facet) array holds more than
    # about 2^16 pairs
    step = max(1, 65536 // len(corners))
    for lo in range(0, len(pts), step):
        rel = corners[None] - pts[lo:lo + step, None, None, :]
        if mesh.n == 2:
            a, b = rel[:, :, 0], rel[:, :, 1]
            angles = np.arctan2(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0],
                                np.einsum("pfi,pfi->pf", a, b))
        else:
            angles = _solid_angle(rel[:, :, 0], rel[:, :, 1], rel[:, :, 2])
        winding[lo:lo + step] = angles.sum(axis=1) / full_turn
    return np.rint(winding) != 0.0


def _cut_at_sphere(A: np.ndarray, D: np.ndarray, r: float) -> np.ndarray:
    """End points (E, 4, n) of the three pieces of each segment A + t D,
    0 <= t <= 1, cut where it crosses the sphere |x| = r.  The middle piece
    lies inside the ball, the outer two outside it; any may be empty."""
    # |A + t D|^2 = r^2  <=>  a t^2 + b t + c = 0; the piece between the
    # two roots lies inside the ball, the pieces before and after outside
    a = np.einsum("ei,ei->e", D, D)
    b = 2.0 * np.einsum("ei,ei->e", A, D)
    c = np.einsum("ei,ei->e", A, A) - r * r
    # (a segment missing or touching the sphere has one double root, and a
    # zero-length one a = b = 0: the middle piece is empty either way)
    root = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
    two_a = np.where(a > 0.0, 2.0 * a, 1.0)
    t = np.stack([np.zeros_like(a), (-b - root) / two_a, (-b + root) / two_a,
                  np.ones_like(a)], axis=1)
    return A[:, None, :] + np.clip(t, 0.0, 1.0)[:, :, None] * D[:, None, :]


def _disk_area(mesh: SurfaceMesh, center, r: float) -> float:
    """Area inside the disk B(center, r) enclosed by a closed segment mesh.

    Green's theorem over the oriented segments, exact up to roundoff.  Each
    segment is cut at the circle (`_cut_at_sphere`).  The middle piece lies
    inside the disk and adds (1/2) u x v; the outer two add the sector area
    (1/2) r^2 angle(u, v), u and v being a piece's end points relative to
    the centre.

    The result is the integral over the disk of the winding number of the
    loops.  It equals the area that `contains` counts wherever that number
    is 0 or 1, as for one simple counter-clockwise loop, and its negative
    where it is 0 or -1, as for a clockwise one.  Every planar preset mesh
    is one simple loop, and an orientation-preserving step keeps it one.
    """
    V = mesh.vertices - np.asarray(center, dtype=float)
    A = V[mesh.simplices[:, 0]]
    P = _cut_at_sphere(A, V[mesh.simplices[:, 1]] - A, r)
    u, v = P[:, :-1], P[:, 1:]                          # (E, 3, 2) pieces
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    dot = np.einsum("epi,epi->ep", u, v)
    inside = cross[:, 1].sum()
    outside = np.arctan2(cross[:, [0, 2]], dot[:, [0, 2]]).sum()
    return 0.5 * float(inside + r * r * outside)


def _ball_volume(mesh: SurfaceMesh, center, r: float) -> float:
    """Volume inside the ball B(center, r) enclosed by a closed triangle mesh.

    With the centre as origin, F(x) = x/3 for |x| <= r and r^3 x / (3|x|^3)
    outside is continuous and its divergence is the indicator of the ball,
    so the volume is the flux of F through the mesh.  On a facet with unit
    normal nu and plane offset s, Green's theorem in polar coordinates about
    the foot p = s nu turns that flux into a sum over the facet's edges,
    each cut at the sphere (`_cut_at_sphere`).  A piece (u, v) inside the
    ball adds det(p, u, v)/6.  A piece outside adds K(s) dtheta + (r^3/3)
    Omega(p, u, v), where dtheta is the angle it subtends at p, Omega the
    solid angle of the triangle (p, u, v), and K(s) = s r^2/2 - s^3/6 -
    r^3 sign(s)/3 for |s| < r, 0 otherwise.

    Like `_disk_area`, the result is the integral over the ball of the
    winding number of the mesh: the enclosed volume for an outward mesh,
    its negative for an inward one.
    """
    V = mesh.vertices - np.asarray(center, dtype=float)
    corners = V[mesh.simplices]                        # (F, 3, 3)
    normal = np.cross(corners[:, 1] - corners[:, 0],
                      corners[:, 2] - corners[:, 0])
    norm = np.linalg.norm(normal, axis=1, keepdims=True)
    # a zero-area facet gets nu = 0, hence s = 0 and p = 0, and every term
    # below vanishes on it
    nu = normal / np.where(norm > 0.0, norm, 1.0)
    s = np.einsum("fi,fi->f", corners[:, 0], nu)
    p = s[:, None] * nu
    A = corners.reshape(-1, 3)
    D = np.roll(corners, -1, axis=1).reshape(-1, 3) - A
    P = _cut_at_sphere(A, D, r).reshape(len(corners), 3, 4, 3)
    inside = np.einsum("fi,fei->", p, np.cross(P[:, :, 1], P[:, :, 2])) / 6.0
    # the outside pieces, (F, edge, piece, 3), and the foot, (F, 1, 1, 3)
    u, v, foot = P[:, :, [0, 2]], P[:, :, [1, 3]], p[:, None, None, :]
    du, dv = u - foot, v - foot
    dtheta = np.arctan2(np.einsum("fepi,fi->fep", np.cross(du, dv), nu),
                        np.einsum("fepi,fepi->fep", du, dv))
    K = np.where(np.abs(s) < r, s * r * r / 2.0 - s**3 / 6.0
                 - r**3 * np.sign(s) / 3.0, 0.0)
    outside = (np.einsum("f,fep->", K, dtheta)
               + r**3 / 3.0 * _solid_angle(foot, u, v).sum())
    return float(inside + outside)


def volume_change_constant(n: int, radius: float) -> float:
    """omega_n R^n + max{2^n omega_n, 2 n omega_n (R+1)^(n-1)}."""
    wn = ball_volume(n)
    return (wn * radius**n
            + max(2.0**n * wn, 2.0 * n * wn * (radius + 1.0) ** (n - 1)))


def volume_change_series(trace: FlowTrace, center, radius: float):
    """The clipped volume change of the recorded step of a mesh-carrying
    trace that comes closest to its bound (or exceeds it most), that bound
    and the step's index.

    A step's change is |vol(B cap after) - vol(B cap before)|, each volume
    exact (`_disk_area` in the plane, `_ball_volume` in space) and computed
    once per frame.  Its bound is linear in the recorded step perturbation
    delta = max{sup|f - id|, sup|Jf - 1|}, which must lie in [0, 1).
    """
    meshes = [s.mesh for s in trace.snapshots]
    if meshes[0] is None:
        raise ConfigError("trace carries no boundary mesh")
    deltas = [s.step_delta for s in trace.snapshots[:-1]]
    for delta in deltas:
        if delta >= 1.0:
            raise PreconditionViolated(f"step perturbation {delta} must be below 1")
    if not deltas:
        return 0.0, 0.0, {"steps": 0}
    n = meshes[0].n
    clipped = _disk_area if n == 2 else _ball_volume
    volumes = [clipped(mesh, center, radius) for mesh in meshes]
    constant = volume_change_constant(n, radius)
    steps = [(abs(after - before), constant * delta)
             for before, after, delta in zip(volumes, volumes[1:], deltas)]
    worst = max(range(len(steps)), key=lambda i: steps[i][0] - steps[i][1])
    return (*steps[worst], {"steps": len(steps), "worst_step": worst})


# ---------------------------------------------------------------------------
# nontriviality


def nontriviality_certificate(trace: FlowTrace, center, radius: float):
    """Mass stays above the isoperimetric floor up to the protected horizon.

    A ball interior to a bounded region of the initial partition survives
    (in volume) long enough that the enclosing boundary cannot have lost all
    its measure before R^2/(8 d); the floor is c_n (vol(B(a, R/2)) / 4)^((n-1)/n),
    with c_n the sharp isoperimetric constant.  Returns the least mass up to
    the horizon, the floor, and the horizon and c_n.
    """
    mesh0 = trace.snapshots[0].mesh
    if mesh0 is None:
        raise ConfigError("trace carries no boundary mesh")
    center = np.asarray(center, dtype=float)
    V0 = trace.snapshots[0].varifold
    n, d = V0.n, V0.d
    clearance = float(np.min(simplex_distances(
        center, mesh0.vertices[mesh0.simplices])))
    if clearance < radius:
        raise PreconditionViolated(
            f"ball of radius {radius} pokes through the boundary "
            f"(clearance {clearance:.6g})")
    # after the clearance test, so the centre is off the mesh and its
    # winding number is defined
    if not bool(contains(mesh0, center[None])[0]):
        raise PreconditionViolated("ball center lies outside the initial region")
    constant = isoperimetric_constant(n)
    horizon = radius**2 / (8.0 * d)
    floor = constant * (0.25 * ball_volume(n, radius / 2.0)) ** ((n - 1.0) / n)
    window = [s for s in trace.snapshots if s.time <= horizon + 1e-12]
    if not window:
        raise ConfigError("trace has no snapshots inside the protected window")
    return (min(s.mass for s in window), floor,
            {"horizon": horizon, "isoperimetric_constant": constant})
