"""Time-discrete flow of atomic varifolds along the regularized curvature.

One step over [t_i, t_i + dt] pushes the varifold forward under

    f(x) = x + dt * h(x),       h = regularized curvature of V(t_i),

which is exact for atomic varifolds: each atom moves to f(x_i), its plane
maps to the image of Df(x_i) restricted to the plane, and its mass picks up
the tangential Jacobian factor

    J_S f = det(Y^T Y)^(1/2),   Y = Df(x) B^T,

with B an orthonormal row basis of S.  The structural step checks of `run`
refuse a step map that is singular at an atom, and a step that grows the
mass by more than dt or past M + 1, with M = max(1, initial mass).

Two readings of the same step sequence are exposed by `sample`: piecewise
(constant on [t_i, t_{i+1})) and interpolated (partial step with the frozen
field).  `brakke_residual` measures how far a run is from the exact
weighted-mass balance for a radial weight `barriers.BarrierFunction` (static
when its d is 0, a shrinking-sphere weight otherwise); halving the step
halves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import CHAIN_SLACK, MAP_DETERMINANT
from .errors import ConfigError, MassBoundExceeded, OutOfSpan, SingularMap
from .mollifier import (Mollifier, QuadratureGrid, _Lattice,
                        curvature_with_jacobian, dissipation)
from .varifold import DiscreteVarifold

if TYPE_CHECKING:
    from .barriers import BarrierFunction


def pushforward(V: DiscreteVarifold, positions: np.ndarray, Df: np.ndarray
                ) -> tuple[DiscreteVarifold, np.ndarray]:
    """f_# V for atomic V, given f and Df at every atom.

    Returns the exact image varifold and det Df at the atoms.
    """
    if len(V) == 0:
        return V, np.zeros(0)
    dets = np.linalg.det(Df)
    if np.any(np.abs(dets) <= MAP_DETERMINANT):
        raise SingularMap("step map not invertible at an atom")
    _, vecs = np.linalg.eigh(V.planes)
    basis = vecs[:, :, -V.d:]                       # (N, n, d)
    Y = np.einsum("aij,ajd->aid", Df, basis)        # (N, n, d)
    gram = np.einsum("aid,aie->ade", Y, Y)          # (N, d, d)
    gdet = np.linalg.det(gram)
    if np.any(gdet <= 0.0):
        raise SingularMap("a tangent plane degenerates under the step map")
    sol = np.linalg.solve(gram, np.transpose(Y, (0, 2, 1)))  # (N, d, n)
    P = np.einsum("aid,adj->aij", Y, sol)
    P = 0.5 * (P + np.transpose(P, (0, 2, 1)))
    W = DiscreteVarifold(V.n, V.d, positions, P, V.masses * np.sqrt(gdet))
    return W, dets


def _step(V: DiscreteVarifold, tau: float, h: np.ndarray,
          J: np.ndarray) -> tuple[DiscreteVarifold, np.ndarray]:
    """Push V through x -> x + tau h(x), whose Jacobian is I + tau Dh."""
    return pushforward(V, V.positions + tau * h, np.eye(V.n) + tau * J)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run.

    `run` applies the structural per-step checks (positive tangential
    Jacobians, invertible step maps) to every step.  Every run records the
    dissipation; `sample` takes the reading between steps (piecewise or
    interpolated).
    """

    eps: float
    dt: float
    end_time: float
    cutoff: float = 4.0
    refinement: int = 4

    def __post_init__(self):
        # the chained comparisons are false for NaN as well
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.end_time <= 1.0 + 1e-12:
            raise ConfigError(f"end_time must lie in [0, 1], got {self.end_time}")

    def times(self) -> np.ndarray:
        if self.end_time == 0.0:
            return np.zeros(1)
        steps = max(1, int(round(self.end_time / self.dt)))
        return np.linspace(0.0, self.end_time, steps + 1)

    def delta(self) -> float:
        """Fineness of the subdivision (largest step); 0 for a one-node grid."""
        diffs = np.diff(self.times())
        return float(np.max(diffs)) if len(diffs) else 0.0


@dataclass(frozen=True)
class Snapshot:
    time: float
    varifold: DiscreteVarifold
    curvature: np.ndarray | None = None        # h at the atoms (N, n)
    curvature_jacobian: np.ndarray | None = None
    curvature_max: float | None = None         # max |h| over atoms and mesh vertices
    dissipation: float | None = None
    mesh_vertices: np.ndarray | None = None
    step_delta: float | None = None            # max(|f - id|, |det Df - 1|)

    @property
    def mass(self) -> float:
        return self.varifold.total_mass()


@dataclass(frozen=True)
class FlowTrace:
    config: FlowConfig
    snapshots: tuple[Snapshot, ...]
    mesh_simplices: np.ndarray | None = None

    @property
    def mass_bound(self) -> float:
        """M = max(1, initial mass), the bound the run's checks use."""
        return max(1.0, self.snapshots[0].mass)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def masses(self) -> np.ndarray:
        return np.array([s.mass for s in self.snapshots])

    def span(self) -> tuple[float, float]:
        return float(self.snapshots[0].time), float(self.snapshots[-1].time)

    def locate(self, t: float) -> int:
        """Index i with times[i] <= t < times[i+1] (last index at the end)."""
        lo, hi = self.span()
        if t < lo - 1e-12 or t > hi + 1e-12:
            raise OutOfSpan(f"t = {t} outside [{lo}, {hi}]")
        times = self.times
        i = int(np.searchsorted(times, t + 1e-12) - 1)
        return min(max(i, 0), len(times) - 1)


def run(V0: DiscreteVarifold, config: FlowConfig,
        mesh_vertices: np.ndarray | None = None,
        mesh_simplices: np.ndarray | None = None) -> FlowTrace:
    """Run the flow over the configured subdivision, recording diagnostics.

    When mesh vertex/simplex arrays are given, the vertices are advected by
    the same step maps (the simplices are connectivity only and never change);
    per-step perturbation sizes are recorded for the volume certificates.
    """
    M = max(1.0, V0.total_mass())
    times = config.times()
    kernel = Mollifier(config.eps, V0.n, config.cutoff)
    grid = QuadratureGrid.for_kernel(kernel, config.refinement)
    N = len(V0)
    snaps: list[Snapshot] = []
    V = V0
    verts = None if mesh_vertices is None else np.asarray(mesh_vertices, dtype=float)
    for i in range(len(times) - 1):
        dt = float(times[i + 1] - times[i])
        # one field pass on the lattice of V: atoms, mesh vertices, dissipation
        lat = _Lattice(V, kernel, grid)
        pts = V.positions if verts is None else np.vstack([V.positions, verts])
        h, J = curvature_with_jacobian(V, kernel, grid, pts, lat)
        diss = dissipation(V, kernel, grid, lat)
        # structural step checks: the step map must stay a diffeomorphism
        # near the support, so pushforward refuses singular maps and
        # step_delta records the distance from the identity
        W, dets = _step(V, dt, h[:N], J[:N])
        hmax = float(np.max(np.linalg.norm(h, axis=1), initial=0.0))
        dets_v = np.linalg.det(np.eye(V.n) + dt * J[N:])
        excess = np.abs(np.concatenate([dets, dets_v]) - 1.0)
        step_delta = max(dt * hmax, float(np.max(excess, initial=0.0)))
        snaps.append(Snapshot(float(times[i]), V, h[:N], J[:N],
                              hmax, diss, None if verts is None else verts.copy(),
                              step_delta))
        if W.total_mass() > V.total_mass() + dt + CHAIN_SLACK:
            raise MassBoundExceeded("per-step mass growth exceeded dt")
        if W.total_mass() > M + 1.0 + CHAIN_SLACK:
            raise MassBoundExceeded("total mass exceeded M + 1 along the run")
        V = W
        if verts is not None:
            verts = verts + dt * h[N:]
    snaps.append(Snapshot(float(times[-1]), V, None, None,
                          None, None, None if verts is None else verts.copy(), None))
    return FlowTrace(config, tuple(snaps), mesh_simplices)


def sample(trace: FlowTrace, t: float,
           mode: str = "piecewise") -> DiscreteVarifold:
    """The flow at time t, in piecewise or interpolated reading.

    Piecewise: V(t) = V(t_i) on [t_i, t_{i+1}).  Interpolated: the partial
    pushforward under x + (t - t_i) h(., V(t_i)), using the stored fields.
    """
    if mode not in ("piecewise", "interpolated"):
        raise ConfigError(f"unknown sampling mode {mode!r}")
    i = trace.locate(t)
    snap = trace.snapshots[i]
    if mode == "piecewise" or i == len(trace.snapshots) - 1:
        return snap.varifold
    tau = t - snap.time
    if tau <= 1e-15:
        return snap.varifold
    if snap.curvature is None or snap.curvature_jacobian is None:
        raise ConfigError("trace lacks stored curvature fields; cannot interpolate")
    return _step(snap.varifold, tau, snap.curvature, snap.curvature_jacobian)[0]


def _weighted_fv_arrays(V: DiscreteVarifold, phi: BarrierFunction, t: float,
                        h: np.ndarray, J: np.ndarray) -> float:
    """delta(V, phi)(h) from precomputed per-atom field arrays."""
    div = np.einsum("aij,aij->a", V.planes, J)
    vals = phi.value(V.positions, t)
    grads = phi.grad(V.positions, t)
    return float(np.einsum("a,a->", V.masses,
                           vals * div + np.einsum("ai,ai->a", grads, h)))


def brakke_residual(trace: FlowTrace, phi: BarrierFunction,
                    t1: float, t2: float) -> float:
    """Defect of the weighted mass balance over [t1, t2] (piecewise reading).

    |  ||V(t2)||(phi(., t2)) - ||V(t1)||(phi(., t1))
       - int delta(V, phi)(h) dt - int (d phi/dt) d||V|| dt  |

    with left-endpoint rectangle quadrature in time.
    """
    if t2 < t1:
        raise OutOfSpan("need t1 <= t2")
    lo, hi = trace.span()
    if t1 < lo - 1e-12 or t2 > hi + 1e-12:
        raise OutOfSpan(f"[{t1}, {t2}] outside [{lo}, {hi}]")
    Va = sample(trace, t1, "piecewise")
    Vb = sample(trace, t2, "piecewise")
    pa = float(np.dot(Va.masses, phi.value(Va.positions, t1)))
    pb = float(np.dot(Vb.masses, phi.value(Vb.positions, t2)))
    total = pb - pa
    integral = 0.0
    times = trace.times
    for i in range(len(times) - 1):
        w = min(times[i + 1], t2) - max(times[i], t1)
        if w <= 1e-15:
            continue
        s = trace.snapshots[i]
        if s.curvature is None or s.curvature_jacobian is None:
            raise ConfigError("trace lacks stored curvature fields")
        V = s.varifold
        wfv = _weighted_fv_arrays(V, phi, s.time, s.curvature, s.curvature_jacobian)
        dphi = float(np.dot(V.masses, phi.time_derivative(V.positions, s.time)))
        integral += w * (wfv + dphi)
    return abs(total - integral)


def dissipation_budget(trace: FlowTrace) -> float:
    """Left-rectangle time integral of the recorded dissipation."""
    times = trace.times
    total = 0.0
    for i in range(len(times) - 1):
        d = trace.snapshots[i].dissipation
        if d is None:
            raise ConfigError(f"trace lacks the dissipation of step {i}")
        total += float(times[i + 1] - times[i]) * d
    return total
