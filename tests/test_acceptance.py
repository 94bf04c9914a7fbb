"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test exercises one advertised guarantee of the package on full-size
runs: the shrinking-circle law, the dissipation identity, the inequality
certificates, avoidance, metric exactness, step-size convergence, and
bit-level determinism.  Expensive flow runs are shared through module
fixtures; every expected number is either a closed form or an inequality
the run must satisfy.
"""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import varimcf
from varimcf.barriers import (BarrierFunction, avoidance_distance,
                              barrier_defects, epsilon_barrier_certificate,
                              technical_gaps)
from varimcf.errors import PreconditionViolated
from varimcf.flow import brakke_residual, run, sample
from varimcf.geometry import (_disk_area, nontriviality_certificate,
                              volume_change_series)
from varimcf.metrics import DiscreteMeasure, bounded_lipschitz
from varimcf.mollifier import (Mollifier, QuadratureGrid, _Lattice,
                               curvature_with_jacobian, dissipation)
from varimcf.presets import make_preset
from varimcf.varifold import (DiscreteVarifold, first_variation,
                              projections_from_bases)

SQRT_LAW_TARGET = math.sqrt(0.4)     # circle radius after time 0.3


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def circle_traces():
    """Unit-circle runs (N = 200, dt = 2e-3, T = 0.3) at three scales.

    The finest scale also advects the polygon mesh, which the volume and
    mass-floor checks need; the coarser two only need atom positions.
    """
    traces = {}
    for eps in (0.2, 0.1, 0.05):
        sc = make_preset("circle", eps=eps, dt=2e-3, end_time=0.3)
        if eps == 0.05:
            traces[eps] = run(sc.varifold, sc.config, sc.mesh)
        else:
            traces[eps] = run(sc.varifold, sc.config)
    return traces


@pytest.fixture(scope="module")
def guarded_ball_trace():
    """Fine-step circle run satisfying the certificate's admissibility."""
    sc = make_preset("circle", eps=0.05, dt=1e-3, end_time=0.05)
    return run(sc.varifold, sc.config)


@pytest.fixture(scope="module")
def refined_step_traces():
    """The same circle evolved with dt, dt/2, dt/4."""
    out = {}
    for dt in (4e-3, 2e-3, 1e-3):
        sc = make_preset("circle", eps=0.1, dt=dt, end_time=0.06)
        out[dt] = run(sc.varifold, sc.config)
    return out


@pytest.fixture(scope="module")
def concentric_pair():
    """Circles of radius 0.5 and 1.0 run as two separate flows."""
    sc = make_preset("two-concentric-circles")
    return (run(sc.pair[0], sc.config), run(sc.pair[1], sc.config),
            sc.config.eps)


@pytest.fixture(scope="module")
def enlaced_pair():
    """Two unit circles linked through each other, run as separate flows."""
    sc = make_preset("enlaced-circles")
    return run(sc.pair[0], sc.config), run(sc.pair[1], sc.config)


def random_varifold(rng, N, n=2, d=1):
    pos = rng.uniform(-1.0, 1.0, (N, n))
    planes = projections_from_bases([rng.normal(size=(d, n)) for _ in range(N)])
    return DiscreteVarifold.from_arrays(pos, planes,
                                        rng.uniform(0.5, 1.5, N), d=d)


# ---------------------------------------------------------------------------
# 1. shrinking circle


def test_01_circle_shrinks_to_the_square_root_law(circle_traces):
    rel = {}
    for eps, tr in circle_traces.items():
        radii = np.linalg.norm(tr.snapshots[-1].varifold.positions, axis=1)
        rel[eps] = abs(float(radii.mean()) - SQRT_LAW_TARGET) / SQRT_LAW_TARGET
    assert rel[0.2] > rel[0.1] > rel[0.05]   # error decreases with the scale
    assert rel[0.05] <= 0.08


# ---------------------------------------------------------------------------
# 2. dissipation identity


def test_02_curvature_pairing_equals_negative_dissipation():
    rng = np.random.default_rng(7)
    kern = Mollifier(0.15, 2)
    grid = QuadratureGrid.for_kernel(kern, 4)
    for _ in range(20):
        V = random_varifold(rng, int(rng.integers(5, 51)))
        lattice = _Lattice(V, kern, grid)
        D = dissipation(lattice)
        Dh = curvature_with_jacobian(lattice, V.positions)[1]
        paired = first_variation(V, Dh)
        assert abs(paired + D) <= 1e-12 * max(1.0, D)


# ---------------------------------------------------------------------------
# 3. completed-square inequality


def test_03_completed_square_inequality_holds_on_random_samples():
    rng = np.random.default_rng(11)
    worst = np.inf
    for n in (2, 3):
        m = 50_000
        h, grad = rng.normal(size=(2, m, n))
        phi = rng.uniform(0.05, 3.0, m)
        # planes of every dimension 1..n-1, one stack of bases per dimension
        dims = rng.integers(1, n, size=m)
        P = np.empty((m, n, n))
        for d in range(1, n):
            P[dims == d] = projections_from_bases(
                rng.normal(size=(np.count_nonzero(dims == d), d, n)))
        gaps = technical_gaps(h, phi, grad, P)
        worst = min(worst, float(np.min(gaps)))
    assert worst >= -1e-12


# ---------------------------------------------------------------------------
# 4. comparison-weight defect


def sweep_defect(psi, pts, planes):
    """Vectorized defect of the comparison weight at t = 0, max over planes."""
    val = psi.value(pts, 0.0)
    live = val > 1e-12
    pts, val = pts[live], val[live]
    g = psi.grad(pts, 0.0)
    H = psi.hess(pts, 0.0)
    dt_psi = psi.time_derivative(pts, 0.0)
    worst = -np.inf
    for S in planes:
        Sg = g @ S.T
        defect = (0.25 * np.einsum("ai,ai->a", Sg, Sg) / val
                  - np.einsum("ij,aij->a", S, H) + dt_psi)
        worst = max(worst, float(defect.max()))
    return worst, pts, val, g, H, dt_psi


def test_04_comparison_weight_defect_is_nonpositive():
    rng = np.random.default_rng(13)
    ax = np.linspace(-0.29, 0.29, 64)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    grid_pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    lines = int(np.count_nonzero(rng.integers(1, 3, size=50) == 1))
    planes = np.concatenate([
        projections_from_bases(rng.normal(size=(lines, 1, 3))),
        projections_from_bases(rng.normal(size=(50 - lines, 2, 3)))])
    psi = BarrierFunction(center=np.zeros(3), radius=0.3, beta=4.0, d=2)
    worst, pts, val, g, H, dt_psi = sweep_defect(psi, grid_pts, planes)
    assert worst <= 1e-10
    # the sweep agrees with the library's batched evaluator
    rows = rng.integers(0, len(pts), size=20)
    P = projections_from_bases([rng.normal(size=(2, 3)) for _ in rows])
    direct = barrier_defects(psi, pts[rows], P, 0.0)
    for k, i in enumerate(rows):
        Sg = P[k] @ g[i]
        manual = (0.25 * float(Sg @ Sg) / val[i]
                  - float(np.einsum("ij,ij->", P[k], H[i]))
                  + dt_psi[i])
        assert direct[k] == pytest.approx(manual, abs=1e-12)
    # a profile too shallow for the inequality is caught by the same sweep
    flat = BarrierFunction(center=np.zeros(3), radius=0.3, beta=1.0, d=2)
    positive, *_ = sweep_defect(flat, grid_pts, planes)
    assert positive > 1.0


# ---------------------------------------------------------------------------
# 5. guarded-ball certificate


def test_05_guarded_ball_certificate_and_tamper_control(guarded_ball_trace):
    tr = guarded_ball_trace
    c5 = 1e-9
    # the subdivision really is admissible for this scale
    assert c5 * tr.config.delta() * tr.config.eps**-8 <= tr.config.eps
    psi = BarrierFunction(center=np.zeros(2), radius=0.3, beta=4.0, d=1)
    increase, bound, details = epsilon_barrier_certificate(tr, psi, c5_cfg=c5)
    assert 0.0 < bound == details["norm_constant"] * (10.0 * tr.mass_bound
                                                      + 9.0) * 0.05 ** (1 / 6)
    assert increase <= bound
    # hand-editing a recorded frame must be rejected, not graded
    snaps = list(tr.snapshots)
    mid = snaps[25]
    pos = mid.varifold.positions.copy()
    pos[0] = psi.center                       # teleport one atom into the ball
    tampered = DiscreteVarifold.from_arrays(pos, mid.varifold.planes,
                                            mid.varifold.masses,
                                            d=mid.varifold.d)
    snaps[25] = dataclasses.replace(mid, varifold=tampered)
    bad = dataclasses.replace(tr, snapshots=tuple(snaps))
    with pytest.raises(PreconditionViolated, match="displacement"):
        epsilon_barrier_certificate(bad, psi, c5_cfg=c5)


# ---------------------------------------------------------------------------
# 6. per-step mass bound


def test_06_mass_never_gains_more_than_the_step(circle_traces,
                                                guarded_ball_trace,
                                                refined_step_traces,
                                                concentric_pair,
                                                enlaced_pair):
    traces = (list(circle_traces.values()) + [guarded_ball_trace]
              + list(refined_step_traces.values())
              + list(concentric_pair[:2]) + list(enlaced_pair))
    assert len(traces) == 11
    for tr in traces:
        t, m = tr.times, tr.masses
        slack = 1e-9 * (1.0 + float(m[0]))
        excess = np.diff(m) - np.diff(t)
        assert float(excess.max()) <= slack


# ---------------------------------------------------------------------------
# 7. windowed volume change


def test_07_windowed_volume_change_stays_within_bound(circle_traces):
    tr = circle_traces[0.05]
    change, bound, details = volume_change_series(tr, (0.0, 0.0), 0.8)
    assert details["steps"] == 150
    # the step nearest its bound keeps to it, so every step does
    assert change <= bound
    # the moving curve really crosses the window: the change is not all zero
    areas = [_disk_area(s.mesh, (0.0, 0.0), 0.8) for s in tr.snapshots]
    changes = np.abs(np.diff(areas))
    assert max(changes) > 1e-3


# ---------------------------------------------------------------------------
# 8. mass floor inside the protected window


def test_08_mass_stays_above_the_isoperimetric_floor(circle_traces):
    min_mass, floor, details = nontriviality_certificate(circle_traces[0.05],
                                                         (0.0, 0.0), 0.8)
    assert details["horizon"] == pytest.approx(0.08)
    assert floor == pytest.approx(0.4 * math.pi, rel=1e-12)
    assert min_mass >= floor


# ---------------------------------------------------------------------------
# 9. avoidance


def test_09_separated_flows_keep_their_distance(concentric_pair,
                                                enlaced_pair):
    inner, outer, eps = concentric_pair
    gaps = avoidance_distance(inner, outer)
    assert gaps[0] == pytest.approx(0.5, abs=0.01)
    drops = np.maximum.accumulate(gaps) - gaps
    assert float(drops.max()) <= 2.0 * eps
    assert gaps[-1] > gaps[0]            # the inner circle shrinks faster
    # the run reaches near-extinction of the inner circle
    last_inner = np.linalg.norm(inner.snapshots[-1].varifold.positions,
                                axis=1)
    assert float(last_inner.mean()) < 0.15
    # linked loops are geometrically forced together: the recorded frames
    # show the gap collapsing (demonstration only, no bound is claimed)
    la, lb = enlaced_pair
    lgaps = avoidance_distance(la, lb)
    assert lgaps[0] > 0.9
    assert float(lgaps.min()) < 0.15


# ---------------------------------------------------------------------------
# 10. metric exactness


def test_10_exact_metric_values_and_triangle_inequality():
    for dist, expect in ((0.5, 0.5), (1.0, 1.0), (5.0, 2.0)):
        mu = DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        nu = DiscreteMeasure(np.array([[dist, 0.0]]), np.array([1.0]))
        got = bounded_lipschitz(mu, nu).distance
        assert got == pytest.approx(expect, abs=1e-9)
    rng = np.random.default_rng(17)

    def random_measure():
        k = int(rng.integers(3, 7))
        return DiscreteMeasure(rng.uniform(-1.0, 1.0, (k, 2)),
                               rng.uniform(0.1, 2.0, k))

    for _ in range(100):
        a, b, c = random_measure(), random_measure(), random_measure()
        dab = bounded_lipschitz(a, b).distance
        dbc = bounded_lipschitz(b, c).distance
        dac = bounded_lipschitz(a, c).distance
        assert dac <= dab + dbc + 1e-8


# ---------------------------------------------------------------------------
# 11. step-size convergence


def midstep_reading_gap(tr, dt):
    """Largest piecewise-vs-interpolated distance at mid-step times."""
    steps = len(tr.snapshots) - 1
    worst = 0.0
    for i in sorted({0, steps // 3, 2 * steps // 3, steps - 1}):
        t = tr.snapshots[i].time + 0.5 * dt
        a = DiscreteMeasure.from_varifold(sample(tr, t, "piecewise"))
        b = DiscreteMeasure.from_varifold(sample(tr, t, "interpolated"))
        worst = max(worst, bounded_lipschitz(a, b).distance)
    return worst


def test_11_halving_the_step_halves_the_discretization_errors(
        refined_step_traces):
    runs = refined_step_traces
    lo, hi = 1.5, 3.0
    gap = {dt: midstep_reading_gap(tr, dt) for dt, tr in runs.items()}
    assert lo <= gap[4e-3] / gap[2e-3] <= hi
    assert lo <= gap[2e-3] / gap[1e-3] <= hi
    phi = BarrierFunction(np.zeros(2), 2.0, 3.0, 0)
    res = {dt: brakke_residual(tr, phi, 0.0, 0.06)
           for dt, tr in runs.items()}
    assert lo <= res[4e-3] / res[2e-3] <= hi
    assert lo <= res[2e-3] / res[1e-3] <= hi

    def terminal_distance(a, b):
        mu = DiscreteMeasure.from_varifold(runs[a].snapshots[-1].varifold)
        nu = DiscreteMeasure.from_varifold(runs[b].snapshots[-1].varifold)
        return bounded_lipschitz(mu, nu).distance

    coarse = terminal_distance(4e-3, 2e-3)
    fine = terminal_distance(2e-3, 1e-3)
    assert lo <= coarse / fine <= hi


# ---------------------------------------------------------------------------
# 12. determinism


def test_12_frames_are_byte_identical_across_thread_counts(tmp_path):
    # the 2-D circle over five steps and one 3-D sphere step, so that the
    # scatter onto the lattice is pinned in both dimensions
    runs = {"circle": ["--eps", "0.1", "--dt", "0.002", "--end-time", "0.01"],
            "sphere": ["--end-time", "0.0025"]}

    def run_and_digest(preset, tag, threads):
        out = tmp_path / preset / tag
        env = os.environ.copy()
        env["VARIMCF_THREADS"] = str(threads)
        # the child imports the same varimcf as this process
        home = os.path.dirname(os.path.dirname(varimcf.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [home, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "varimcf", "simulate", "--preset", preset,
             *runs[preset], "--seed", "3", "--out", str(out)],
            check=True, env=env, capture_output=True)
        digest = hashlib.sha256()
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names, "run produced no frames"
        for name in names:
            digest.update(name.encode())
            digest.update((out / name).read_bytes())
        return digest.hexdigest()

    most = max(1, os.cpu_count() or 1)
    for preset in runs:
        reference = run_and_digest(preset, "t1", 1)
        assert run_and_digest(preset, "t1-again", 1) == reference, preset
        assert run_and_digest(preset, "t2", 2) == reference, preset
        assert run_and_digest(preset, "tmax", most) == reference, preset
