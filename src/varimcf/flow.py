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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import (CHAIN_SLACK, KERNEL_CUTOFF, LATTICE_REFINEMENT,
                     MAP_DETERMINANT)
from .errors import ConfigError, VarimcfError
from .mollifier import (Mollifier, QuadratureGrid, _Lattice,
                        curvature_with_jacobian, dissipation)
from .varifold import DiscreteVarifold, projections_from_bases

if TYPE_CHECKING:      # geometry imports this module
    from .barriers import BarrierFunction
    from .geometry import SurfaceMesh


def pushforward(V: DiscreteVarifold, positions: np.ndarray, Df: np.ndarray
                ) -> tuple[DiscreteVarifold, np.ndarray]:
    """f_# V for atomic V, given f and Df at every atom.

    Returns the exact image varifold and det Df at the atoms.
    """
    if len(V) == 0:
        return V, np.zeros(0)
    dets = np.linalg.det(Df)
    if np.any(np.abs(dets) <= MAP_DETERMINANT):
        raise VarimcfError("step map not invertible at an atom")
    Y = np.einsum("aij,ajd->aid", Df, V.bases)      # (N, n, d)
    gram = np.einsum("aid,aie->ade", Y, Y)          # (N, d, d)
    gdet = np.linalg.det(gram)
    if np.any(gdet <= 0.0):
        raise VarimcfError("a tangent plane degenerates under the step map")
    P = projections_from_bases(np.transpose(Y, (0, 2, 1)))
    return DiscreteVarifold(V.n, V.d, positions, P, V.masses * np.sqrt(gdet)), dets


def _step(V: DiscreteVarifold, tau: float, h: np.ndarray,
          J: np.ndarray) -> tuple[DiscreteVarifold, np.ndarray]:
    """Push V through x -> x + tau h(x), whose Jacobian is I + tau Dh."""
    return pushforward(V, V.positions + tau * h, np.eye(V.n) + tau * J)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowConfig:
    """The three scales of one flow run: kernel scale, step and end time.

    The kernel support radius cutoff * eps and the lattice spacing
    eps / refinement are package constants, the same for every run.  `run`
    applies the structural per-step checks (positive tangential Jacobians,
    invertible step maps) and records the dissipation; `sample` takes the
    reading between steps (piecewise or interpolated).
    """

    eps: float
    dt: float
    end_time: float

    @property
    def cutoff(self) -> float:
        return KERNEL_CUTOFF

    @property
    def refinement(self) -> int:
        return LATTICE_REFINEMENT

    def __post_init__(self):
        # the chained comparisons are false for NaN as well
        if not 0.0 < self.eps < np.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.end_time <= 1.0 + 1e-12:
            raise ConfigError(f"end_time must lie in [0, 1], got {self.end_time}")
        if not np.isfinite(self.end_time / self.dt):
            raise ConfigError(f"dt = {self.dt} gives a step count end_time / dt "
                              "that is not finite")

    @property
    def steps(self) -> int:
        """Number of steps of the subdivision: none when end_time is 0."""
        return 0 if self.end_time == 0.0 else max(1, round(self.end_time / self.dt))

    def times(self) -> np.ndarray:
        try:
            return np.linspace(0.0, self.end_time, self.steps + 1)
        except (MemoryError, ValueError):    # numpy refuses to allocate it
            raise ConfigError(f"dt = {self.dt} gives {self.steps} steps, a "
                              "subdivision too large to allocate") from None

    def delta(self) -> float:
        """Fineness of the subdivision (largest step); 0 for a one-node grid."""
        return float(np.max(np.diff(self.times()), initial=0.0))


@dataclass(frozen=True)
class Snapshot:
    time: float
    varifold: DiscreteVarifold
    curvature_max: float | None = None         # max |h| over atoms and mesh vertices
    dissipation: float | None = None
    mesh: SurfaceMesh | None = None            # the tracked boundary, advected
    step_delta: float | None = None            # max(|f - id|, |det Df - 1|)

    @property
    def mass(self) -> float:
        return self.varifold.total_mass()


@dataclass(frozen=True)
class FlowTrace:
    config: FlowConfig
    snapshots: tuple[Snapshot, ...]

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

    def locate(self, t: float) -> int:
        """Index i with times[i] <= t < times[i+1] (last index at the end)."""
        times = self.times
        # the chained comparison is false for NaN as well
        if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:
            raise VarimcfError(f"t = {t} outside [{times[0]}, {times[-1]}]")
        i = int(np.searchsorted(times, t + 1e-12) - 1)
        return min(max(i, 0), len(times) - 1)


def _kernel(config: FlowConfig, n: int) -> tuple[Mollifier, QuadratureGrid]:
    """The smoothing kernel and lattice spacing of config's flow in R^n."""
    kernel = Mollifier(config.eps, n, config.cutoff)
    return kernel, QuadratureGrid.for_kernel(kernel, config.refinement)


def run(V0: DiscreteVarifold, config: FlowConfig,
        mesh: SurfaceMesh | None = None) -> FlowTrace:
    """Run the flow over the configured subdivision, recording diagnostics.

    A tracked boundary `mesh`, closed by construction, has its vertices
    advected by the same step maps; its simplices never change, so every
    snapshot carries the same closed mesh at its moved vertices.  Per-step
    perturbation sizes are recorded for the volume certificates.
    """
    M = max(1.0, V0.total_mass())
    times = config.times()
    kernel, grid = _kernel(config, V0.n)
    N = len(V0)
    snaps: list[Snapshot] = []
    V = V0
    for i in range(len(times) - 1):
        dt = float(times[i + 1] - times[i])
        # one field pass on the lattice of V: atoms, mesh vertices, dissipation
        lat = _Lattice(V, kernel, grid)
        pts = V.positions if mesh is None else np.vstack([V.positions,
                                                          mesh.vertices])
        h, J = curvature_with_jacobian(lat, pts)
        diss = dissipation(lat)
        # structural step checks: the step map must stay a diffeomorphism
        # near the support, so pushforward refuses singular maps and
        # step_delta records the distance from the identity
        W, dets = _step(V, dt, h[:N], J[:N])
        hmax = float(np.max(np.linalg.norm(h, axis=1), initial=0.0))
        dets_v = np.linalg.det(np.eye(V.n) + dt * J[N:])
        excess = np.abs(np.concatenate([dets, dets_v]) - 1.0)
        step_delta = max(dt * hmax, float(np.max(excess, initial=0.0)))
        snaps.append(Snapshot(float(times[i]), V, hmax, diss, mesh,
                              step_delta))
        if W.total_mass() > V.total_mass() + dt + CHAIN_SLACK:
            raise VarimcfError("per-step mass growth exceeded dt")
        if W.total_mass() > M + 1.0 + CHAIN_SLACK:
            raise VarimcfError("total mass exceeded M + 1 along the run")
        V = W
        if mesh is not None:
            mesh = replace(mesh, vertices=mesh.vertices + dt * h[N:])
    snaps.append(Snapshot(float(times[-1]), V, None, None, mesh, None))
    return FlowTrace(config, tuple(snaps))


def sample(trace: FlowTrace, t: float,
           mode: str = "piecewise") -> DiscreteVarifold:
    """The flow at time t, in piecewise or interpolated reading.

    Piecewise: V(t) = V(t_i) on [t_i, t_{i+1}).  Interpolated: the partial
    pushforward under x + (t - t_i) h(., V(t_i)), with h and Dh computed
    from V(t_i), so a loaded trace reads as the run that wrote it.
    """
    if mode not in ("piecewise", "interpolated"):
        raise ConfigError(f"unknown sampling mode {mode!r}")
    i = trace.locate(t)
    V, tau = trace.snapshots[i].varifold, t - trace.snapshots[i].time
    if mode == "piecewise" or i == len(trace.snapshots) - 1 or tau <= 1e-15:
        return V
    lattice = _Lattice(V, *_kernel(trace.config, V.n))
    return _step(V, tau, *curvature_with_jacobian(lattice, V.positions))[0]


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

    with left-endpoint rectangle quadrature in time, h and Dh computed from
    each step's varifold.
    """
    if t2 < t1:
        raise VarimcfError("need t1 <= t2")
    Va = sample(trace, t1, "piecewise")
    Vb = sample(trace, t2, "piecewise")
    kernel, grid = _kernel(trace.config, Va.n)
    pa = float(np.dot(Va.masses, phi.value(Va.positions, t1)))
    pb = float(np.dot(Vb.masses, phi.value(Vb.positions, t2)))
    total = pb - pa
    integral = 0.0
    times = trace.times
    for i in range(len(times) - 1):
        w = min(times[i + 1], t2) - max(times[i], t1)
        if w <= 1e-15:
            continue
        V = trace.snapshots[i].varifold
        h, J = curvature_with_jacobian(_Lattice(V, kernel, grid), V.positions)
        wfv = _weighted_fv_arrays(V, phi, times[i], h, J)
        dphi = float(np.dot(V.masses, phi.time_derivative(V.positions, times[i])))
        integral += w * (wfv + dphi)
    return abs(total - integral)


def dissipation_budget(trace: FlowTrace) -> float:
    """Left-rectangle time integral of the recorded dissipation."""
    times = trace.times
    total = 0.0
    for i in range(len(times) - 1):
        d = trace.snapshots[i].dissipation
        total += float(times[i + 1] - times[i]) * d
    return total
