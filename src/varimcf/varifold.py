"""Discrete varifolds: weighted point masses carrying tangent planes.

A discrete d-varifold in R^n is a finite sum of weighted Diracs

    V = sum_i m_i delta_(x_i, S_i),     m_i > 0,

where each S_i is a d-plane through the origin stored as its n x n
orthogonal projection matrix.  The mass measure ||V|| is the projection
onto the spatial factor.  The first variation of V along a C^1 vector
field X is the exact finite sum

    delta V (X) = sum_i m_i  S_i : DX(x_i),

with M : N = trace(M N^T), evaluated here without any quadrature;
smoothing enters only in the mollifier module.  Its phi-weighted refinement,
which adds the transport term grad(phi) . X, lives in the flow module next
to the weighted mass balance it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import (GRAM_DETERMINANT, PROJECTOR_IDEMPOTENCY,
                     PROJECTOR_SYMMETRY, PROJECTOR_TRACE)
from .errors import ConfigError, DegenerateBasis, NonpositiveWeight


def _as_points(x: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Promote a single point (n,) to a batch (1, n); report if promoted."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.shape[0] != n:
            raise ConfigError(f"expected a point in R^{n}, got shape {a.shape}")
        return a[None, :], True
    if a.ndim != 2 or a.shape[1] != n:
        raise ConfigError(f"expected points of shape (Q, {n}), got {a.shape}")
    return a, False


def projections_from_bases(bases: np.ndarray) -> np.ndarray:
    """Projections (K, n, n) onto the planes spanned by K bases at once.

    `bases` is a (K, d, n) stack: the d rows of basis k span plane k and
    need not be orthonormal.  Each projection is B^T (B B^T)^-1 B, computed
    with one batched solve.  Raises DegenerateBasis for the first basis
    whose Gram determinant is at or below tolerance.
    """
    B = np.asarray(bases, dtype=float)
    gram = B @ B.transpose(0, 2, 1)
    det = np.linalg.det(gram)
    bad = np.flatnonzero(det <= GRAM_DETERMINANT)
    if len(bad):
        raise DegenerateBasis(f"basis {bad[0]}: Gram determinant "
                              f"{det[bad[0]]:.3e} <= {GRAM_DETERMINANT:.0e}")
    P = B.transpose(0, 2, 1) @ np.linalg.solve(gram, B)
    return 0.5 * (P + P.transpose(0, 2, 1))


@dataclass(frozen=True)
class DiscreteVarifold:
    """Finite atomic d-varifold in R^n, stored in array form.

    positions : (N, n)   atom locations
    planes    : (N, n, n) projection matrices, all of rank d
    masses    : (N,)     strictly positive weights
    """

    n: int
    d: int
    positions: np.ndarray
    planes: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        pl = np.ascontiguousarray(np.asarray(self.planes, dtype=float))
        m = np.ascontiguousarray(np.asarray(self.masses, dtype=float))
        for a in (pos, pl, m):
            a.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "planes", pl)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_arrays(cls, positions, planes, masses, d: int) -> "DiscreteVarifold":
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        planes = np.asarray(planes, dtype=float)
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        n = positions.shape[1]
        if planes.ndim == 2:
            planes = planes[None, :, :]
        V = cls(n, d, positions, planes, masses)
        V.validate()
        return V

    def validate(self) -> None:
        N = len(self)
        if self.positions.shape != (N, self.n):
            raise ConfigError(f"positions shape {self.positions.shape}, want {(N, self.n)}")
        if self.planes.shape != (N, self.n, self.n):
            raise ConfigError(f"planes shape {self.planes.shape}")
        if np.any(self.masses <= 0.0):
            raise NonpositiveWeight("atom masses must be strictly positive")
        if N == 0:
            return
        P = self.planes
        if float(np.max(np.abs(P - np.transpose(P, (0, 2, 1))))) > PROJECTOR_SYMMETRY:
            raise ConfigError("a plane projection is not symmetric")
        idem = np.einsum("aij,ajk->aik", P, P) - P
        if float(np.max(np.abs(idem))) > PROJECTOR_IDEMPOTENCY:
            raise ConfigError("a plane projection is not idempotent")
        tr = np.einsum("aii->a", P)
        if float(np.max(np.abs(tr - self.d))) > PROJECTOR_TRACE:
            raise ConfigError("a plane projection has the wrong rank")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def transformed(self, rotation: np.ndarray | None = None,
                    shift: np.ndarray | None = None) -> "DiscreteVarifold":
        """Rigid motion x -> R x + b; planes conjugate as R S R^T."""
        pos, planes = self.positions, self.planes
        if rotation is not None:
            R = np.asarray(rotation, dtype=float)
            pos = pos @ R.T
            planes = np.einsum("ij,ajk,lk->ail", R, planes, R)
        if shift is not None:
            pos = pos + np.asarray(shift, dtype=float)
        return DiscreteVarifold(self.n, self.d, pos, planes, self.masses)


def first_variation(V: DiscreteVarifold, X: "VectorField") -> float:
    """delta V (X) = sum_i m_i S_i : DX(x_i).  Exact (no quadrature)."""
    if len(V) == 0:
        return 0.0
    J = X.jacobian(V.positions)
    div = np.einsum("aij,aij->a", V.planes, J)
    return float(np.dot(V.masses, div))


# ---------------------------------------------------------------------------
# test functions and vector fields


@dataclass(frozen=True)
class ScalarField:
    """C^2 scalar test function phi(x, t) with evaluators for derivatives.

    All evaluators are vectorized over a batch of points (Q, n).  The
    declared C^1/C^2 bounds are sums of sup norms of phi and its
    derivatives up to the given order; hess_bound is sup ||D^2 phi|| alone.
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    grad: Callable[[np.ndarray, float], np.ndarray]
    hess: Callable[[np.ndarray, float], np.ndarray]
    time_derivative: Callable[[np.ndarray, float], np.ndarray]
    c1_bound: float
    c2_bound: float
    hess_bound: float

    @classmethod
    def constant(cls, a: float, n: int) -> "ScalarField":
        def value(x, t):
            x = np.atleast_2d(np.asarray(x, float))
            return np.full(x.shape[0], float(a))

        def grad(x, t):
            x = np.atleast_2d(np.asarray(x, float))
            return np.zeros((x.shape[0], n))

        def hess(x, t):
            x = np.atleast_2d(np.asarray(x, float))
            return np.zeros((x.shape[0], n, n))

        def dt(x, t):
            x = np.atleast_2d(np.asarray(x, float))
            return np.zeros(x.shape[0])

        a_ = abs(float(a))
        return cls(value, grad, hess, dt, a_, a_, 0.0)

    @classmethod
    def bump(cls, center, radius: float, height: float = 1.0) -> "ScalarField":
        """Compactly supported C^2 bump h * (1 - |x-c|^2/r^2)^3 on B(c, r)."""
        c = np.asarray(center, dtype=float)
        n = c.shape[0]
        r2 = float(radius) ** 2
        h = float(height)

        def _u(x):
            v = np.atleast_2d(np.asarray(x, float)) - c
            rho = np.einsum("ai,ai->a", v, v)
            u = np.maximum(0.0, 1.0 - rho / r2)
            return v, u

        def value(x, t):
            _, u = _u(x)
            return h * u**3

        def grad(x, t):
            v, u = _u(x)
            return (-6.0 * h / r2) * (u**2)[:, None] * v

        def hess(x, t):
            v, u = _u(x)
            eye = np.eye(n)
            term1 = (u**2)[:, None, None] * eye[None, :, :]
            term2 = (-4.0 / r2) * u[:, None, None] * np.einsum("ai,aj->aij", v, v)
            return (-6.0 * h / r2) * (term1 + term2)

        def dt(x, t):
            x = np.atleast_2d(np.asarray(x, float))
            return np.zeros(x.shape[0])

        # sup norms along a radial sweep (the bump is radial)
        rr = np.linspace(0.0, float(radius), 2049)
        u = 1.0 - rr**2 / r2
        g1 = np.abs(-6.0 * h / r2 * u**2 * rr)
        # Hessian eigenvalues: radial  -6h/r2 (u^2 - 4 u rho / r2), tangential -6h/r2 u^2
        lam_rad = np.abs(-6.0 * h / r2 * (u**2 - 4.0 * u * rr**2 / r2))
        lam_tan = np.abs(-6.0 * h / r2 * u**2)
        hb = float(np.max(np.maximum(lam_rad, lam_tan)))
        c1 = abs(h) + float(np.max(g1))
        return cls(value, grad, hess, dt, c1, c1 + hb, hb)

    @classmethod
    def time_scaled(cls, base: "ScalarField", rate: float) -> "ScalarField":
        """(1 + rate * t) * base, with the matching time derivative."""
        r = float(rate)

        def scale(t):
            return 1.0 + r * t

        value = lambda x, t: scale(t) * base.value(x, t)
        grad = lambda x, t: scale(t) * base.grad(x, t)
        hess = lambda x, t: scale(t) * base.hess(x, t)
        dt = lambda x, t: r * base.value(x, t) + scale(t) * base.time_derivative(x, t)
        # bounds over t in [0, 1]
        s = max(abs(scale(0.0)), abs(scale(1.0)))
        return cls(value, grad, hess, dt, s * base.c1_bound, s * base.c2_bound,
                   s * base.hess_bound)


@dataclass(frozen=True)
class VectorField:
    """C^1 vector field with a matching Jacobian evaluator.

    value(points) -> (Q, n); jacobian(points) -> (Q, n, n) with
    J[q, i, j] = d X_i / d x_j at points[q].
    """

    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def linear(cls, A, b=None) -> "VectorField":
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        b_ = np.zeros(n) if b is None else np.asarray(b, dtype=float)

        def value(x):
            x = np.atleast_2d(np.asarray(x, float))
            return x @ A.T + b_

        def jac(x):
            x = np.atleast_2d(np.asarray(x, float))
            return np.broadcast_to(A, (x.shape[0], n, n)).copy()

        return cls(value, jac)

