"""Ready-made initial conditions for runs, demos and the certificate harness.

Every preset bundles an initial varifold with a flow configuration that runs
it to a sensible horizon.  Step sizes are chosen for accuracy, not by the
worst-case admissibility gate, so the gate is disabled here; the structural
per-step checks in the stepper still apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import FlowConfig
from .geometry import (SurfaceMesh, icosphere_mesh, loop_mesh,
                       mesh_to_varifold, regular_polygon_mesh)
from .varifold import DiscreteVarifold

__all__ = ["Scenario", "PRESET_NAMES", "make_preset", "space_curve_loop"]


@dataclass(frozen=True)
class Scenario:
    """An initial condition plus the configuration that evolves it.

    A single-flow scenario carries `varifold` (and the boundary `mesh` it was
    sampled from, if any).  When the scenario consists of two separate
    surfaces whose mutual distance is the interesting quantity, `pair` (and
    `pair_meshes`) carry them instead, and each is run as its own flow.
    """

    name: str
    description: str
    config: FlowConfig
    varifold: DiscreteVarifold | None = None
    mesh: SurfaceMesh | None = None
    pair: tuple[DiscreteVarifold, DiscreteVarifold] | None = None
    pair_meshes: tuple[SurfaceMesh, SurfaceMesh] | None = None


def space_curve_loop(points) -> DiscreteVarifold:
    """Closed polyline in R^3 as a 1-dimensional varifold.

    One atom per chord, sitting at the chord midpoint with the chord length
    as its mass and the chord direction as its tangent line.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ConfigError("need at least three points in R^3")
    nxt = np.roll(pts, -1, axis=0)
    chord = nxt - pts
    lengths = np.linalg.norm(chord, axis=1)
    if np.any(lengths <= 0.0):
        raise ConfigError("repeated consecutive points")
    mid = 0.5 * (pts + nxt)
    t = chord / lengths[:, None]
    planes = np.einsum("ai,aj->aij", t, t)
    return DiscreteVarifold.from_arrays(mid, planes, lengths, d=1)


def _ring3d(center, radius: float, axes, count: int) -> DiscreteVarifold:
    """Regular `count`-gon of radius `radius` in the plane spanned by `axes`."""
    c = np.asarray(center, dtype=float)
    e1, e2 = (np.asarray(a, dtype=float) for a in axes)
    th = (np.arange(count) + 0.5) / count * 2.0 * math.pi
    pts = (c[None, :] + radius * np.cos(th)[:, None] * e1[None, :]
           + radius * np.sin(th)[:, None] * e2[None, :])
    return space_curve_loop(pts)


def _circle(eps: float, dt: float, end_time: float) -> Scenario:
    mesh = regular_polygon_mesh(200)
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="circle",
        description="unit circle shrinking under its regularized curvature",
        varifold=mesh_to_varifold(mesh),
        config=cfg,
        mesh=mesh,
    )


def _sphere(eps: float, dt: float, end_time: float) -> Scenario:
    mesh = icosphere_mesh(2)
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="sphere",
        description="unit sphere (subdivided icosahedron) shrinking in R^3",
        varifold=mesh_to_varifold(mesh),
        config=cfg,
        mesh=mesh,
    )


def _two_concentric(eps: float, dt: float, end_time: float) -> Scenario:
    inner = regular_polygon_mesh(100, 0.5)
    outer = regular_polygon_mesh(200, 1.0)
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="two-concentric-circles",
        description="circles of radius 0.5 and 1.0 about the origin, "
                    "evolved as two separate flows to watch their gap",
        config=cfg,
        pair=(mesh_to_varifold(inner), mesh_to_varifold(outer)),
        pair_meshes=(inner, outer),
    )


def _square_partition(eps: float, dt: float, end_time: float) -> Scenario:
    mesh = loop_mesh([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="square-partition",
        description="side-2 square splitting the plane into inside/outside; "
                    "corners round off immediately under the smoothed field",
        varifold=mesh_to_varifold(mesh, 3),
        config=cfg,
        mesh=mesh,
    )


def _two_region(eps: float, dt: float, end_time: float) -> Scenario:
    inner = regular_polygon_mesh(64, 0.5)
    outer = regular_polygon_mesh(128, 1.0)
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="two-region",
        description="nested circles bounding a disk, an annulus and the "
                    "unbounded exterior",
        config=cfg,
        pair=(mesh_to_varifold(inner), mesh_to_varifold(outer)),
        pair_meshes=(inner, outer),
    )


def _enlaced(eps: float, dt: float, end_time: float) -> Scenario:
    # two linked unit circles: one in the xy-plane about the origin, one in
    # the xz-plane through the origin about (1, 0, 0).  Every point of either
    # circle starts at distance exactly 1 from the other circle; two shrinking
    # linked loops must eventually touch, so their gap collapses.
    a = _ring3d([0.0, 0.0, 0.0], 1.0,
                ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 80)
    b = _ring3d([1.0, 0.0, 0.0], 1.0,
                ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), 80)
    cfg = FlowConfig(eps=eps, dt=dt, end_time=end_time, refinement=2,
                     enforce_gate=False)
    return Scenario(
        name="enlaced-circles",
        description="two linked unit circles in R^3; separately evolved "
                    "curves of codimension two can collide, and their gap "
                    "heads to zero",
        config=cfg,
        pair=(a, b),
    )


_FACTORIES = {
    "circle": (_circle, 0.1, 2e-3, 0.3),
    "sphere": (_sphere, 0.2, 2.5e-3, 0.05),
    "two-concentric-circles": (_two_concentric, 0.05, 2e-3, 0.12),
    "square-partition": (_square_partition, 0.1, 2e-3, 0.1),
    "two-region": (_two_region, 0.1, 2e-3, 0.1),
    "enlaced-circles": (_enlaced, 0.1, 6e-3, 0.36),
}

PRESET_NAMES = tuple(_FACTORIES)


def make_preset(name: str, eps: float | None = None, dt: float | None = None,
                end_time: float | None = None) -> Scenario:
    """Build a preset scenario, optionally overriding its scale parameters."""
    try:
        factory, d_eps, d_dt, d_end = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
    return factory(eps if eps is not None else d_eps,
                   dt if dt is not None else d_dt,
                   end_time if end_time is not None else d_end)
