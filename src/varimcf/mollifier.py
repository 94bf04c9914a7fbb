"""Compactly supported smoothing kernel and the regularized curvature fields.

The kernel is a Gaussian with a C^2 polynomial cutoff,

    Phi_eps(x) = A eps^-n exp(-|x|^2 / (2 eps^2)) (1 - |x|^2/(k eps)^2)^3

for |x| < k*eps and zero beyond.  The cutoff factor and its first two
derivatives vanish at the support boundary, so Phi_eps is C^2 on R^n with
compact support; A = A(n, k) is fixed once per (dimension, cutoff) by radial
quadrature so that the kernel integrates to one exactly in the continuum.

Writing Phi_eps(x) = g(|x|^2) for a scalar profile g, grad Phi = 2 g'(rho) x,
so the field evaluators below need only g and g'.

For an atomic varifold V the smoothed mass and smoothed first variation are
finite sums over atoms,

    (||V|| * Phi)(y)    =  sum_i m_i Phi(y - x_i)
    (delta V * Phi)(y)  = -sum_i m_i S_i grad Phi(y - x_i),

and the regularized mean curvature field is h = Phi * q, with the quotient
q = -(delta V * Phi) / ((||V|| * Phi) + eps).  The outer convolution is a
midpoint rule on one lattice per varifold: the nodes y_k = a + k*eta (k
integer, a the first atom) within R + sqrt(n)*eta of an atom, where
eta = eps/2 and the kernel support radius R = 4 eps are fixed for every run
by config.LATTICE_REFINEMENT and config.KERNEL_CUTOFF.  They include every
node within R of an atom and q vanishes exactly at every other node, so q is
evaluated once, and

    h(y)  = eta^n sum_k Phi(y - y_k) q(y_k)
    Dh(y) = eta^n sum_k q(y_k) (x) grad Phi(y - y_k)
    D     = eta^n sum_k |(delta V * Phi)(y_k)|^2 / ((||V|| * Phi)(y_k) + eps),

the dissipation, are sums over the same nodes; as grad Phi is odd,
delta V(h) = -D to roundoff.  Anchored at an atom, the nodes move with V under
translations and quarter turns.  One pair pass serves both sums of a step:
the lattice's one search, _Lattice.neighbor_pairs, finds the candidate nodes
near a point a column at a time, and the kernel profile zeroes the few
beyond R, so the field sums scatter each atom onto its nodes and the outer
sum gathers each point's nodes.  All reductions are fixed-order (bincount,
einsum and the row sums of a CSR matrix), so results are bitwise
reproducible regardless of thread configuration.  The gather's pairs come
grouped by point, so a CSR row sum adds the same products, in the same order
and from 0, as a bincount over the point index would; no sum starts from
-0.0, so the +-0.0 terms of the candidates beyond R change none.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csr_array

from .config import KERNEL_CUTOFF, sphere_area
from .errors import ConfigError, VarimcfError
from .varifold import DiscreteVarifold

_PAIR_CHUNK = 1 << 17     # candidate (point, lattice node) pairs per chunk
_HASH_HALF_RANGE = 1 << 19  # per-axis cell index limit for int64 packing
_ROUNDOFF = 1e-6          # slack, in cells, of the lattice's range tests


class Mollifier:
    """Radial C^2 kernel at scale eps in R^dim with support radius cutoff*eps."""

    def __init__(self, eps: float, dim: int, cutoff: float = KERNEL_CUTOFF):
        if eps <= 0.0:
            raise ConfigError("kernel scale eps must be positive")
        if cutoff < 1.0:
            raise ConfigError("cutoff must be >= 1 kernel scale")
        self.eps = float(eps)
        self.dim = int(dim)
        self.cutoff = float(cutoff)
        self.support_radius = self.cutoff * self.eps
        # the profile divides by R^2 and by eps^dim
        try:
            self.support_radius**2, self.eps**self.dim
        except OverflowError:
            raise ConfigError(f"kernel scale eps = {eps:g} overflows in "
                              f"dimension {dim}") from None
        # unit-integral normalization, computed on the scale-free profile
        k = self.cutoff
        integrand = lambda r: r ** (self.dim - 1) * math.exp(-0.5 * r * r) * (1.0 - (r / k) ** 2) ** 3
        val, err = quad(integrand, 0.0, k, limit=200)
        self._amplitude = 1.0 / (sphere_area(self.dim) * val)
        if err > 1e-9 * val:
            raise ConfigError("kernel normalization quadrature did not converge")

    def _profile01(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The radial profile g and g' = dg/drho at rho = |x|^2, 0 outside
        the support.

        This is the package's one support test: g and g' are evaluated in
        place at every entry, then set to exactly +0.0 where rho >= R^2, so
        a candidate pair outside R adds only +-0.0 terms to a sum.
        """
        eps2 = self.eps * self.eps
        R2 = self.support_radius**2
        outside = rho >= R2
        u = np.divide(rho, R2)
        np.subtract(1.0, u, out=u)
        u2 = u * u
        E = np.multiply(rho, -0.5)
        E /= eps2
        np.exp(E, out=E)
        E *= self._amplitude / self.eps**self.dim
        E *= u2
        g = np.multiply(E, u, out=u2)
        # g' = -E u^2 (u / (2 eps^2) + 3 / R^2)
        u /= 2.0 * eps2
        u += 3.0 / R2
        u *= E
        np.negative(u, out=u)
        g[outside] = u[outside] = 0.0
        return g, u


def _integer_ball(dim: int, reach: float) -> np.ndarray:
    """Integer points k with |k| <= reach, in lexicographic order."""
    half = int(math.floor(reach))
    axis = np.arange(-half, half + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    ints = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return ints[np.einsum("ai,ai->a", ints, ints) <= reach * reach]


def _ranges(lo: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """arange(lo[i], stop[i]) for every i, concatenated (stop >= lo)."""
    counts = stop - lo
    return (np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(lo - (np.cumsum(counts) - counts), counts))


class QuadratureGrid:
    """Axis-aligned midpoint grid covering a ball around the origin.

    Nodes are integer multiples of the spacing; each carries weight
    spacing^dim.  The node set covers the stated ball (every ball point lies
    in some node's cell), and the weights sum to the covered cell-union
    volume exactly.  The spacing is the one of the curvature lattice.
    """

    def __init__(self, dim: int, radius: float, spacing: float):
        if spacing <= 0.0 or radius <= 0.0:
            raise ConfigError("grid radius and spacing must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.spacing = float(spacing)
        reach = self.radius + 0.5 * math.sqrt(dim) * self.spacing
        self.offsets = np.ascontiguousarray(
            _integer_ball(self.dim, reach / self.spacing) * self.spacing)
        self.weight = self.spacing**dim

    @classmethod
    def for_kernel(cls, kernel: Mollifier, refinement: int) -> "QuadratureGrid":
        if refinement < 2:
            raise VarimcfError(f"refinement {refinement} < 2: spacing would exceed eps/2")
        return cls(kernel.dim, kernel.support_radius, kernel.eps / float(refinement))


def _field_sums(lattice: _Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mass and smoothed first variation at the lattice nodes.

    Each atom is scattered onto the nodes the lattice's own lookup finds
    near it; bincount over the node index adds the terms in a fixed order.
    """
    V = lattice.V
    K, n = lattice.nodes[1].shape
    mass, fvar = np.zeros(K), np.zeros((K, n))
    # orthonormal bases of the atom planes as rows, shape (N, d, n)
    bases = np.ascontiguousarray(np.transpose(V.bases, (0, 2, 1)))
    for part, rows, idx, diff, g, gp in lattice._pairs(V.positions):
        m = np.take(V.masses[part], rows)
        mass += np.bincount(idx, weights=m * g, minlength=K)
        # S_i diff through the orthonormal basis: S v = B^T (B v)
        B = np.take(bases[part], rows, axis=0)
        coeff = np.einsum("pkj,pj->pk", B, diff)
        sd = np.einsum("pk,pkj->pj", coeff, B)
        # diff = x_i - y_k, so -grad Phi(y_k - x_i) = 2 g' diff
        coef = 2.0 * m * gp
        for axis in range(n):
            fvar[:, axis] += np.bincount(idx, weights=coef * sd[:, axis],
                                         minlength=K)
    return mass, fvar


class _Lattice:
    """The curvature lattice of V: nodes anchor + k*spacing and the fields there.

    The node set and the field sums are computed on first use, once per
    lattice, so one lattice serves all curvature evaluations and the
    dissipation of a step.  Node codes are linear in the cell, and the cells
    along the last axis of a column have consecutive codes, so the nodes near
    a point are found a column at a time: one code range per column.  That
    one search, neighbor_pairs, called through _pairs, gives the pairs of
    both kernel sums: the atoms scattered onto the nodes for the fields, the
    nodes gathered at each point by curvature_with_jacobian.  An empty
    varifold has no nodes, so its fields vanish everywhere.
    """

    def __init__(self, V: DiscreteVarifold, kernel: Mollifier, grid: QuadratureGrid):
        if V.n not in (2, 3):
            raise ConfigError("the curvature lattice supports dimensions 2 and 3")
        if grid.spacing > kernel.eps / 2.0 + 1e-12:
            raise VarimcfError(
                f"grid spacing {grid.spacing:.3g} exceeds eps/2 = {kernel.eps / 2.0:.3g}")
        if grid.radius < kernel.support_radius - 1e-12:
            raise ConfigError("quadrature grid does not cover the kernel support")
        self.V, self.kernel = V, kernel
        self.spacing, self.weight = grid.spacing, grid.weight
        self.anchor = V.positions[0] if len(V) else np.zeros(V.n)
        # from a point's own cell, R + sqrt(n) spacing reaches all nodes within
        # R; that integer ball as columns: heads on the first n - 1 axes and
        # the half length of each column along the last
        ball = _integer_ball(V.n, kernel.support_radius / self.spacing
                             + math.sqrt(V.n))
        self.heads, first = np.unique(ball[:, :-1], axis=0, return_index=True)
        self.half = -ball[first, -1]
        self.strides = (2 * _HASH_HALF_RANGE) ** np.arange(V.n - 1, -1, -1)

    def cells(self, points: np.ndarray) -> np.ndarray:
        cells = np.floor((points - self.anchor) / self.spacing)
        # tested before the int64 cast, which maps NaN and overflow to INT64_MIN
        if not np.all(np.abs(cells) < _HASH_HALF_RANGE // 2):
            raise ConfigError("coordinates too large for the curvature lattice")
        return cells.astype(np.int64)

    def _code(self, heads: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Codes of the cells (heads, last); heads carry the first n - 1 axes."""
        return (heads + _HASH_HALF_RANGE) @ self.strides[:-1] + (last + _HASH_HALF_RANGE)

    @functools.cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted node codes and the node positions."""
        if not len(self.V):
            return np.empty(0, dtype=np.int64), np.empty((0, self.V.n))
        base = self.cells(self.V.positions)
        # the code range of each column around each atom, merged in code order
        lo = self._code(base[:, None, :-1] + self.heads,
                        base[:, None, -1] - self.half).ravel()
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        end = np.maximum.accumulate(lo + np.tile(2 * self.half, len(base))[order])
        new = np.concatenate(([True], lo[1:] > end[:-1] + 1))
        stop = end[np.append(np.nonzero(new)[0][1:] - 1, -1)] + 1
        codes = _ranges(lo[new], stop)
        cells = np.stack(np.unravel_index(codes, (2 * _HASH_HALF_RANGE,) * self.V.n),
                         axis=1) - _HASH_HALF_RANGE
        return codes, self.anchor + cells * self.spacing

    @functools.cached_property
    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """||V|| * Phi and delta V * Phi at the nodes."""
        return _field_sums(self)

    def quotient(self) -> np.ndarray:
        mass, fvar = self.fields
        return -fvar / (mass + self.kernel.eps)[:, None]

    def neighbor_pairs(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point row, node index) pairs holding every node within R of a point.

        Each column of the point's integer ball that passes within R gives
        the code range of the cells within R of the point along it; both
        tests are widened by _ROUNDOFF of a cell, so that the support test
        of _profile01 on the pairs alone decides.  Nodes come in code order
        per point.  A point far off the lattice can only meet far nodes,
        which that test zeroes.
        """
        codes = self.nodes[0]
        r2 = (self.kernel.support_radius / self.spacing) ** 2
        u = (points - self.anchor) / self.spacing
        heads = np.floor(u[:, None, :-1]) + self.heads
        off = heads - u[:, None, :-1]
        s2 = r2 - np.einsum("qhi,qhi->qh", off, off)
        s = np.sqrt(np.maximum(s2, 0.0))
        heads = heads.astype(np.int64)
        first = np.searchsorted(codes, self._code(
            heads, np.ceil(u[:, -1:] - s - _ROUNDOFF).astype(np.int64)))
        last = np.searchsorted(codes, self._code(
            heads, np.floor(u[:, -1:] + s + _ROUNDOFF).astype(np.int64)), side="right")
        counts = np.where(s2 > -_ROUNDOFF, np.maximum(last - first, 0), 0)
        rows = np.repeat(np.arange(len(points)), counts.sum(axis=1))
        return rows, _ranges(first.ravel(), first.ravel() + counts.ravel())

    def _pairs(self, points: np.ndarray):
        """The kernel terms of the points' pairs, a chunk of points at a time.

        Each chunk of consecutive points gets about _PAIR_CHUNK candidates
        from neighbor_pairs; yields the chunk's slice, the rows and node
        indices, the differences point - node and the profile g, g' there,
        which _profile01 zeroes on the few candidates outside R.
        """
        nodes = self.nodes[1]
        step = max(1, _PAIR_CHUNK // int(np.sum(2 * self.half + 1)))
        for lo in range(0, len(points), step):
            part = slice(lo, lo + step)
            rows, idx = self.neighbor_pairs(points[part])
            # np.take copies rows several times faster than fancy indexing
            diff = np.take(points[part], rows, axis=0) - np.take(nodes, idx, axis=0)
            yield (part, rows, idx, diff,
                   *self.kernel._profile01(np.einsum("pi,pi->p", diff, diff)))


# perfbench/tracing.py wraps mollifier.SpatialHash.neighbor_pairs, so the
# traced pair search is the lattice's; ROADMAP item 2a drops this name when
# it retargets that span
SpatialHash = _Lattice

def curvature_with_jacobian(lattice: _Lattice, points: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """h_eps(., V) and its Jacobian at the points (Q, n): Phi * q as sums
    over the nodes of the lattice of V.

    Each chunk's pairs, grouped by point row, are the nonzeros of one sparse
    (chunk, node) matrix; h and each column of Dh are its products with q
    under n + 1 sets of values.
    """
    Q, n = points.shape
    h, J = np.zeros((Q, n)), np.zeros((Q, n, n))
    quot = lattice.quotient()
    for part, rows, idx, diff, g, gp in lattice._pairs(points):
        size = len(points[part])
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        A = csr_array((lattice.weight * g, idx, indptr),
                      shape=(size, len(quot)))
        h[part] = A @ quot
        # grad Phi(x - y) = 2 g' (x - y)
        wgrad = (2.0 * lattice.weight) * gp
        for b in range(n):
            G = csr_array((wgrad * diff[:, b], A.indices, A.indptr), shape=A.shape)
            J[part, :, b] = G @ quot
    return h, J


def dissipation(lattice: _Lattice) -> float:
    """integral of |delta V * Phi|^2 / ((||V|| * Phi) + eps) over R^n.

    The integrand vanishes off the lattice of V, so this is a sum over its
    nodes; it equals -delta V(h_eps(., V)) to roundoff.
    """
    mass, fvar = lattice.fields
    dens = np.einsum("qi,qi->q", fvar, fvar) / (mass + lattice.kernel.eps)
    return float(dens.sum() * lattice.weight)
