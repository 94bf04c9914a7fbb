"""Atomic varifolds: plane representation, exact first variation, the
weighted first variation with its radial weight, and their round trip
through the recorded frame files."""

import json

import numpy as np
import pytest

from varimcf.barriers import BarrierFunction
from varimcf.cli import _write_trace, load_trace
from varimcf.errors import ConfigError, DegenerateBasis, NonpositiveWeight
from varimcf.flow import (FlowConfig, FlowTrace, Snapshot, _weighted_fv_arrays,
                          pushforward)
from varimcf.varifold import (DiscreteVarifold, first_variation,
                              projections_from_bases)


def gram_schmidt_projector(rows: np.ndarray) -> np.ndarray:
    """Independent oracle: orthonormalize the rows, then sum q q^T."""
    basis = []
    for v in np.asarray(rows, dtype=float):
        w = v.copy()
        for q in basis:
            w -= np.dot(w, q) * q
        basis.append(w / np.linalg.norm(w))
    return sum(np.outer(q, q) for q in basis)


def random_varifold(rng, N, n=2, d=1):
    pos = rng.uniform(-1.0, 1.0, (N, n))
    planes = projections_from_bases([rng.normal(size=(d, n)) for _ in range(N)])
    return DiscreteVarifold.from_arrays(pos, planes,
                                        rng.uniform(0.5, 1.5, N), d=d)


def push_along(V, X, s):
    """(id + s X)_# V through the exact pushforward; X = (value, jacobian)."""
    value, jacobian = X
    Df = np.eye(V.n) + s * jacobian(V.positions)
    return pushforward(V, V.positions + s * value(V.positions), Df)[0]


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# planes


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2)])
def test_plane_from_basis_matches_gram_schmidt(n, d):
    rng = np.random.default_rng(10 * n + d)
    for _ in range(20):
        rows = rng.normal(size=(d, n))
        P = projections_from_bases([rows])
        assert np.allclose(P[0], gram_schmidt_projector(rows), atol=1e-12)
        DiscreteVarifold.from_arrays(np.zeros((1, n)), P, [1.0], d=d)


def test_plane_independent_of_spanning_set():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, 3))
    mixed = np.array([3.0 * rows[0], rows[1] - 0.7 * rows[0]])
    a, b = projections_from_bases([rows, mixed])
    assert np.allclose(a, b, atol=1e-12)


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateBasis):
        projections_from_bases([np.array([[1.0, 0.0], [2.0, 0.0]])])


def test_batched_planes_match_one_at_a_time():
    rng = np.random.default_rng(12)
    for d in (1, 2):
        bases = rng.normal(size=(100, d, 3))
        P = projections_from_bases(bases)
        assert P.shape == (100, 3, 3)
        for k, rows in enumerate(bases):
            assert np.allclose(P[k], projections_from_bases([rows])[0],
                               rtol=0.0, atol=1e-14)


def test_batched_planes_name_the_first_degenerate_basis():
    plane = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    collinear = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DegenerateBasis, match="basis 1:"):
        projections_from_bases([plane, collinear, plane, np.zeros((2, 3))])
    with pytest.raises(DegenerateBasis, match="basis 1:"):
        projections_from_bases([plane, np.zeros((2, 3)), collinear])


def test_projection_validation_rejects_junk():
    def plane(P, d):
        return DiscreteVarifold.from_arrays([[0.0, 0.0]], P, [1.0], d=d)
    with pytest.raises(ConfigError, match="not symmetric"):
        plane(np.array([[1.0, 0.3], [0.0, 0.0]]), 1)
    with pytest.raises(ConfigError, match="not idempotent"):
        plane(0.5 * np.eye(2), 1)
    with pytest.raises(ConfigError, match="wrong rank"):
        plane(np.eye(2), 1)


def test_varifold_validation():
    P = np.eye(2)[None]
    with pytest.raises(NonpositiveWeight):
        DiscreteVarifold.from_arrays([[0.0, 0.0]], P, [0.0], d=2)
    with pytest.raises(ConfigError):
        DiscreteVarifold.from_arrays([[0.0, 0.0]], 0.5 * P, [1.0], d=1)


# ---------------------------------------------------------------------------
# first variation


def linear_field(A, b=None):
    """X(x) = A x + b as its (value, jacobian) functions of points (Q, n)."""
    b = np.zeros(len(A)) if b is None else b
    return (lambda x: x @ A.T + b,
            lambda x: np.broadcast_to(A, (len(x), *A.shape)))


def quadratic_field(n):
    """X(x) = (x . x) a with a fixed vector a; DX = 2 a x^T."""
    a = np.linspace(1.0, 2.0, n)
    return (lambda x: np.einsum("qi,qi->q", x, x)[:, None] * a[None, :],
            lambda x: 2.0 * a[None, :, None] * x[:, None, :])


def jacobians(V, A):
    """The Jacobians at the atoms of V of a linear field x -> A x."""
    return np.broadcast_to(A, (len(V), V.n, V.n))


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2)])
def test_first_variation_is_mass_derivative(n, d):
    # oracle: delta V (X) = d/ds || (id + s X)_# V || at s = 0, by central
    # difference through the exact pushforward
    rng = np.random.default_rng(5 * n + d)
    V = random_varifold(rng, 12, n=n, d=d)
    for X in (linear_field(rng.normal(size=(n, n)), rng.normal(size=n)),
              quadratic_field(n)):
        s = 1e-5
        fd = (push_along(V, X, s).total_mass()
              - push_along(V, X, -s).total_mass()) / (2.0 * s)
        exact = first_variation(V, X[1](V.positions))
        assert exact == pytest.approx(fd, abs=1e-6 * (1.0 + abs(exact)))


def test_first_variation_linear_in_the_field():
    rng = np.random.default_rng(9)
    V = random_varifold(rng, 10, n=3, d=2)
    A, B = rng.normal(size=(2, 3, 3))
    lhs = first_variation(V, jacobians(V, 2.0 * A - 0.5 * B))
    rhs = (2.0 * first_variation(V, jacobians(V, A))
           - 0.5 * first_variation(V, jacobians(V, B)))
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(rhs)))


def test_first_variation_rotation_invariant():
    rng = np.random.default_rng(11)
    V = random_varifold(rng, 15, n=3, d=1)
    A = rng.normal(size=(3, 3))
    R = random_rotation(rng, 3)
    # conjugating both the varifold and the field leaves the pairing fixed
    lhs = first_variation(V.transformed(rotation=R), jacobians(V, R @ A @ R.T))
    rhs = first_variation(V, jacobians(V, A))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_tangential_divergence_axis_plane():
    # one unit atom: delta V (X) is div_S X = S : DX at the atom
    A = np.array([[2.0, 3.0], [4.0, 5.0]])
    line = DiscreteVarifold.from_arrays([[0.3, -0.2]], np.diag([1.0, 0.0]),
                                        [1.0], d=1)
    assert first_variation(line, jacobians(line, A)) == 2.0
    full = DiscreteVarifold.from_arrays([[0.3, -0.2]], np.eye(2), [1.0], d=2)
    assert first_variation(full, jacobians(full, A)) == 7.0


def weighted_first_variation(V, phi, X, t=0.0):
    """delta(V, phi)(X) through the flow's path, with X's arrays at the atoms."""
    value, jacobian = X
    return _weighted_fv_arrays(V, phi, t, value(V.positions),
                               jacobian(V.positions))


class ConstantWeight:
    """phi = a everywhere, so its gradient is zero."""

    def __init__(self, a):
        self.a = a

    def value(self, x, t):
        return np.full(len(x), self.a)

    def grad(self, x, t):
        return np.zeros_like(x)


def test_weighted_first_variation_constant_weight_reduces():
    rng = np.random.default_rng(13)
    V = random_varifold(rng, 8, n=2, d=1)
    X = linear_field(rng.normal(size=(2, 2)))
    assert weighted_first_variation(V, ConstantWeight(2.5), X) == \
        pytest.approx(2.5 * first_variation(V, X[1](V.positions)), rel=1e-12)


def weighted_mass(V, phi):
    """integral of phi(., 0) against ||V||."""
    return float(np.dot(V.masses, phi.value(V.positions, 0.0)))


def test_weighted_first_variation_is_weighted_mass_derivative():
    # oracle: delta(V, phi)(X) = d/ds integral phi d|| (id + sX)_# V || at 0
    rng = np.random.default_rng(14)
    V = random_varifold(rng, 10, n=2, d=1)
    phi = BarrierFunction(np.array([0.2, -0.1]), 2.5, 3.0, 0)
    X = linear_field(rng.normal(size=(2, 2)), rng.normal(size=2))
    s = 1e-5
    fd = (weighted_mass(push_along(V, X, s), phi)
          - weighted_mass(push_along(V, X, -s), phi)) / (2.0 * s)
    exact = weighted_first_variation(V, phi, X)
    assert exact == pytest.approx(fd, abs=1e-5 * (1.0 + abs(exact)))


def test_bump_support_and_declared_bounds():
    # the static weight (R^2 - |x|^2)^3 that lsc grades, in 2-D and 3-D
    for n in (2, 3):
        psi = BarrierFunction(np.zeros(n), 1.5, 3.0, 0)
        far = np.zeros((2, n))
        far[0, 0], far[1, 1] = 2.0, -1.6
        assert np.all(psi.value(far, 0.0) == 0.0)
        assert np.all(psi.grad(far, 0.0) == 0.0)
        assert np.all(psi.hess(far, 0.0) == 0.0)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1.5, 1.5, (2000, n))
        vals = psi.value(pts, 0.0)
        grads = np.linalg.norm(psi.grad(pts, 0.0), axis=1)
        hnorm = np.linalg.norm(psi.hess(pts, 0.0), ord=2, axis=(1, 2))
        assert psi.hess_bound() >= hnorm.max() - 1e-12
        assert psi.c2_bound() >= (vals.max() + grads.max() + hnorm.max()
                                  - 1e-12)
        # sup |psi| = R^6, and the largest Hessian eigenvalue magnitude is
        # 6 R^4, at the centre
        assert psi.hess_bound() == pytest.approx(6.0 * 1.5**4, rel=1e-12)
        assert psi.c2_bound() > 1.5**6 + psi.hess_bound()


# ---------------------------------------------------------------------------
# frame files


def write_frames(tmp_path, V):
    """Record V as the single snapshot of a trace; return (manifest, record)."""
    cfg = FlowConfig(eps=0.1, dt=1e-3, end_time=0.0)
    trace = FlowTrace(cfg, (Snapshot(0.0, V),))
    record = _write_trace(tmp_path, "main", trace)
    manifest = {"config": {"eps": cfg.eps, "dt": cfg.dt,
                           "end_time": cfg.end_time},
                "traces": [record]}
    # the manifest goes through JSON, as simulate writes it
    return json.loads(json.dumps(manifest)), record


def test_varifold_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(18)
    V = random_varifold(rng, 9, n=3, d=2)
    manifest, _ = write_frames(tmp_path, V)
    (snap,) = load_trace(manifest, tmp_path, manifest["traces"][0]).snapshots
    W = snap.varifold
    assert W.n == V.n and W.d == V.d
    assert np.array_equal(W.positions, V.positions)
    assert np.array_equal(W.planes, V.planes)
    assert np.array_equal(W.masses, V.masses)


def test_varifold_csv_rejects_inconsistent_sidecar(tmp_path):
    # the manifest is the frames' sidecar: a dimension that disagrees with
    # the frame's columns is refused
    rng = np.random.default_rng(19)
    V = random_varifold(rng, 4, n=2, d=1)
    manifest, record = write_frames(tmp_path, V)
    record = dict(record, ambient_dimension=3)
    with pytest.raises(ConfigError):
        load_trace(manifest, tmp_path, record)
