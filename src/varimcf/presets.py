"""Ready-made initial conditions for runs, demos and the certificate harness.

Every preset bundles an initial varifold with a flow configuration that runs
it to a sensible horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import FlowConfig
from .geometry import (SurfaceMesh, icosphere_mesh, loop_mesh,
                       mesh_to_varifold, regular_polygon_mesh)
from .varifold import DiscreteVarifold, projections_from_bases

__all__ = ["Scenario", "PRESET_NAMES", "make_preset"]


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


def _sampled(*meshes: SurfaceMesh, per_simplex: int = 1) -> list:
    """One flow per boundary mesh, each sampled at its facets."""
    return [(mesh_to_varifold(m, per_simplex), m) for m in meshes]


def _ring3d(center, radius: float, axes, count: int) -> DiscreteVarifold:
    """Regular `count`-gon of radius `radius` in the plane spanned by `axes`,
    as a 1-dimensional varifold: one atom per chord, at the chord midpoint,
    with the chord length as its mass and the chord direction as its line."""
    c = np.asarray(center, dtype=float)
    e1, e2 = (np.asarray(a, dtype=float) for a in axes)
    th = (np.arange(count) + 0.5) / count * 2.0 * math.pi
    pts = (c[None, :] + radius * np.cos(th)[:, None] * e1[None, :]
           + radius * np.sin(th)[:, None] * e2[None, :])
    nxt = np.roll(pts, -1, axis=0)
    chord = nxt - pts
    return DiscreteVarifold.from_arrays(
        0.5 * (pts + nxt), projections_from_bases(chord[:, None, :]),
        np.linalg.norm(chord, axis=1), d=1)


def _enlaced() -> list:
    # two linked unit circles: one in the xy-plane about the origin, one in
    # the xz-plane through the origin about (1, 0, 0).  Every point of either
    # circle starts at distance exactly 1 from the other circle; two shrinking
    # linked loops must eventually touch, so their gap collapses.
    return [(_ring3d([0.0, 0.0, 0.0], 1.0,
                     ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 80), None),
            (_ring3d([1.0, 0.0, 0.0], 1.0,
                     ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]), 80), None)]


# name -> (description, default eps, dt and end time, builder of the flows
# as (varifold, mesh or None) pairs: one for a single flow, two for a pair)
_PRESETS = {
    "circle": (
        "unit circle shrinking under its regularized curvature",
        0.1, 2e-3, 0.3, lambda: _sampled(regular_polygon_mesh(200))),
    "sphere": (
        "unit sphere (subdivided icosahedron) shrinking in R^3",
        0.2, 2.5e-3, 0.05, lambda: _sampled(icosphere_mesh(2))),
    "two-concentric-circles": (
        "circles of radius 0.5 and 1.0 about the origin, "
        "evolved as two separate flows to watch their gap",
        0.05, 2e-3, 0.12,
        lambda: _sampled(regular_polygon_mesh(100, 0.5),
                         regular_polygon_mesh(200, 1.0))),
    "square-partition": (
        "side-2 square splitting the plane into inside/outside; "
        "corners round off immediately under the smoothed field",
        0.1, 2e-3, 0.1,
        lambda: _sampled(loop_mesh([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                                    [-1.0, 1.0]]), per_simplex=3)),
    "two-region": (
        "nested circles bounding a disk, an annulus and the "
        "unbounded exterior",
        0.1, 2e-3, 0.1,
        lambda: _sampled(regular_polygon_mesh(64, 0.5),
                         regular_polygon_mesh(128, 1.0))),
    "enlaced-circles": (
        "two linked unit circles in R^3; separately evolved "
        "curves of codimension two can collide, and their gap "
        "heads to zero",
        0.1, 6e-3, 0.36, _enlaced),
}

PRESET_NAMES = tuple(_PRESETS)


def make_preset(name: str, eps: float | None = None, dt: float | None = None,
                end_time: float | None = None) -> Scenario:
    """Build a preset scenario, optionally overriding its scale parameters."""
    try:
        description, d_eps, d_dt, d_end, build = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose one of {', '.join(PRESET_NAMES)}"
        ) from None
    config = FlowConfig(eps=d_eps if eps is None else eps,
                        dt=d_dt if dt is None else dt,
                        end_time=d_end if end_time is None else end_time)
    flows = build()
    if len(flows) == 1:
        [(V, mesh)] = flows
        return Scenario(name, description, config, varifold=V, mesh=mesh)
    (a, mesh_a), (b, mesh_b) = flows
    return Scenario(name, description, config, pair=(a, b),
                    pair_meshes=None if mesh_a is None else (mesh_a, mesh_b))
