"""Bounded-Lipschitz distance between finitely supported measures.

For finitely supported mu, nu the supremum over test functions with
max(sup |phi|, Lip phi) <= 1 is attained by a function determined by its
values on the union support: any feasible assignment phi_k extends to all
of R^k with the same sup norm and Lipschitz constant (McShane), so the
distance is the optimum of the finite linear program

    max  sum_k (nu_k - mu_k) phi_k
    s.t. -1 <= phi_k <= 1,   |phi_k - phi_l| <= |z_k - z_l|  for k < l.

The program has a Lipschitz row pair for each of the K(K-1)/2 pairs of
support points, but few of them bind, so it is solved by row generation
(Kelley's cutting planes).  It is the dual of a transport problem (the
Kantorovich-Rubinstein norm), so the rows that bind join surplus points
(nu_k > mu_k) to deficit points.  The first program holds the pairs that
join each point to its 8 nearest neighbours, and each point of nonzero
coefficient to its nearest point of opposite sign.  After each solve one
scan finds, for every point k, its largest Lipschitz excess
|phi_k - phi_l| - |z_k - z_l| and the partner l that gives it; the next
program adds those per-point pairs whose excess is above the solver's own
feasibility tolerance tau = 0.1 * LP_LIPSCHITZ and that are not rows yet.
The loop stops when no such pair is left.  Then every point's largest
excess is either at most tau or belongs to a row, and HiGHS holds its rows
to tau, so every pair is broken by at most tau: phi is feasible for the full
program to the same tolerance as for its own rows.  The relaxation's
optimum is at least the full optimum, so phi is optimal.  Each round adds
at least one pair, so the loop ends.  Scanning at tau rather than at 0
keeps the loop from chasing pairs broken only by the solver's tolerance.
The seed and the scans run in blocks of 256 rows, so no pair-distance array
ever holds more than 256 * K entries.
Every pair distance, a row's bound and a scan's gap alike, is one
sequential sum of squares and one square root (scipy's `cdist` loop), so
a row and the scan measure the same pair as the same double.

The final scan is also the re-check of the returned certificate over all
pairs, independent of the solver: |phi| <= 1 + LP_LIPSCHITZ and every
excess at most LP_LIPSCHITZ.  Measures whose total weight or support
diameter is not a finite double are refused.  Two unit point masses at
distance r give min(r, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from . import config
from .config import LP_LIPSCHITZ
from .errors import ConfigError, VarimcfError
from .varifold import DiscreteVarifold, _frozen


@dataclass(frozen=True)
class DiscreteMeasure:
    """A nonnegative measure with finite support: sum_k w_k delta_{z_k}."""

    points: np.ndarray   # (N, k)
    weights: np.ndarray  # (N,), >= 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ConfigError(f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ConfigError("points and weights must be finite")
        if np.any(w < 0.0):
            raise ConfigError("weights must be nonnegative")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def from_varifold(cls, V: DiscreteVarifold) -> "DiscreteMeasure":
        """The weight measure: positions with their masses."""
        return cls(V.positions, V.masses)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class BLResult:
    distance: float
    phi: np.ndarray      # optimal test values on the union support
    points: np.ndarray   # union support (K, k)
    status: str
    rounds: int          # linear programs solved
    rows: int            # Lipschitz pairs in the final linear program


_BLOCK = 256            # rows of the pair-distance matrix held at once
_SEED_NEIGHBOURS = 8    # nearest neighbours per point in the first program


def _gaps(diff: np.ndarray) -> np.ndarray:
    """Euclidean lengths of difference vectors along the last axis."""
    return np.linalg.norm(diff, axis=-1)


def _block_gaps(points: np.ndarray, start: int) -> np.ndarray:
    """Distances from the points of one row block to every point."""
    return cdist(points[start:start + _BLOCK], points)


def _worst_partners(points: np.ndarray, phi: np.ndarray):
    """Each point's largest Lipschitz excess |phi_k - phi_l| - |z_k - z_l|
    over all points l, and the l that gives it (a point's own excess is 0)."""
    excess = np.empty(len(phi))
    partner = np.empty(len(phi), dtype=np.int64)
    for start in range(0, len(phi), _BLOCK):
        block = (np.abs(phi[start:start + _BLOCK, None] - phi[None, :])
                 - _block_gaps(points, start))
        rows = slice(start, start + len(block))
        partner[rows] = block.argmax(axis=1)
        excess[rows] = block.max(axis=1)
    return excess, partner


def _seed_pairs(points: np.ndarray, coef: np.ndarray,
                neighbours: int) -> np.ndarray:
    """Sorted codes k * K + l, k < l, of the pairs that join each point to
    its nearest neighbours, and each point with a nonzero coefficient to its
    nearest point of opposite sign."""
    K = len(points)
    sign = np.sign(coef)
    codes = []
    for start in range(0, K, _BLOCK):
        gaps = _block_gaps(points, start)
        rows = np.arange(start, start + len(gaps))
        gaps[rows - start, rows] = np.inf    # not its own neighbour
        near = np.argpartition(gaps, neighbours - 1, axis=1)[:, :neighbours]
        gaps[sign[rows, None] * sign >= 0.0] = np.inf
        far = gaps.argmin(axis=1)
        signed = np.isfinite(gaps[rows - start, far])
        k = np.concatenate([np.repeat(rows, neighbours), rows[signed]])
        l = np.concatenate([near.ravel(), far[signed]])
        codes.append(np.minimum(k, l) * K + np.maximum(k, l))
    return np.unique(np.concatenate(codes).astype(np.int64))


def _solve(points: np.ndarray, coef: np.ndarray, codes: np.ndarray,
           feasibility: float) -> np.ndarray:
    """Optimal phi of the program restricted to the Lipschitz pairs `codes`."""
    K = len(points)
    rows_i, rows_j = np.divmod(codes, K)
    gaps = _gaps(points[rows_i] - points[rows_j])
    P = len(codes)
    # two rows per pair: phi_i - phi_j <= d_ij and phi_j - phi_i <= d_ij
    data = np.concatenate([np.ones(P), -np.ones(P), -np.ones(P), np.ones(P)])
    rr = np.concatenate([np.arange(P), np.arange(P),
                         np.arange(P, 2 * P), np.arange(P, 2 * P)])
    cc = np.concatenate([rows_i, rows_j, rows_i, rows_j])
    A = sparse.coo_matrix((data, (rr, cc)), shape=(2 * P, K)).tocsr()
    b = np.concatenate([gaps, gaps])
    res = linprog(-coef, A_ub=A, b_ub=b, bounds=[(-1.0, 1.0)] * K, method="highs",
                  options={"primal_feasibility_tolerance": feasibility})
    if not res.success:
        raise VarimcfError(f"linear program failed: {res.message}")
    return np.asarray(res.x, dtype=float)


def _union_support(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Merged support with signed coefficients nu_k - mu_k (exact duplicates)."""
    if mu.points.shape[1] != nu.points.shape[1]:
        raise ConfigError("measures live in different ambient dimensions")
    allpts = np.vstack([mu.points, nu.points])
    signed = np.concatenate([-mu.weights, nu.weights])
    uniq, inverse = np.unique(allpts, axis=0, return_inverse=True)
    coef = np.zeros(len(uniq))
    np.add.at(coef, inverse, signed)
    return uniq, coef


def bounded_lipschitz(mu: DiscreteMeasure, nu: DiscreteMeasure) -> BLResult:
    """Exact bounded-Lipschitz distance of two finitely supported measures,
    whose union support holds at most config.DEFAULT_SUPPORT_CAP points."""
    with np.errstate(over="ignore"):
        if not np.isfinite(mu.weights.sum() + nu.weights.sum()):
            raise ConfigError("the measures' total weight overflows a double")
    pts, coef = _union_support(mu, nu)
    K = len(pts)
    cap = config.DEFAULT_SUPPORT_CAP
    if K > cap:
        raise VarimcfError(f"union support has {K} points, cap is {cap}")
    if K == 0:
        return BLResult(0.0, np.zeros(0), pts, "empty", 0, 0)
    if K == 1:
        phi = np.array([math.copysign(1.0, coef[0]) if coef[0] != 0.0 else 0.0])
        return BLResult(abs(float(coef[0])), phi, pts, "closed-form", 0, 0)
    # the bounding box's diagonal bounds every pair distance, computed alike
    with np.errstate(over="ignore"):
        if not np.isfinite(_gaps(np.ptp(pts, axis=0))):
            raise ConfigError("the support's diameter overflows a double")
    # HiGHS accepts rows broken by up to its primal feasibility tolerance
    # (1e-7 by default): hold it below the slack of the final re-check
    feasibility = 0.1 * LP_LIPSCHITZ
    codes = _seed_pairs(pts, coef, min(_SEED_NEIGHBOURS, K - 1))
    rounds = 0
    while True:
        phi = _solve(pts, coef, codes, feasibility)
        rounds += 1
        excess, partner = _worst_partners(pts, phi)
        k = np.flatnonzero(excess > feasibility)
        l = partner[k]
        worst = np.unique(np.minimum(k, l) * K + np.maximum(k, l))
        fresh = np.setdiff1d(worst, codes, assume_unique=True)
        if not fresh.size:
            break
        codes = np.union1d(codes, fresh)
    # the last scan re-checks the certificate over all pairs
    if np.any(np.abs(phi) > 1.0 + LP_LIPSCHITZ):
        raise VarimcfError("certificate violates the box constraint")
    if np.any(excess > LP_LIPSCHITZ):
        raise VarimcfError("certificate violates a Lipschitz constraint")
    value = float(np.dot(coef, phi))
    return BLResult(max(value, 0.0), phi, pts, "optimal", rounds, len(codes))
