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
integer, eta = eps/refinement, a the first atom) within R + sqrt(n)*eta of an
atom, R the kernel support radius.  They include every node within R of an
atom and q vanishes exactly at every other node, so q is evaluated once, and

    h(y)  = eta^n sum_k Phi(y - y_k) q(y_k)
    Dh(y) = eta^n sum_k q(y_k) (x) grad Phi(y - y_k)
    D     = eta^n sum_k |(delta V * Phi)(y_k)|^2 / ((||V|| * Phi)(y_k) + eps),

the dissipation, are sums over the same nodes; as grad Phi is odd,
delta V(h) = -D to roundoff.  Anchored at an atom, the nodes move with V under
translations and quarter turns.  One pair search serves both sums of a step:
the lattice finds the nodes within R of a point a column at a time, so the
field sums scatter each atom onto its nodes and the outer sum gathers each
point's nodes.  All reductions are fixed-order (bincount / einsum), so results
are bitwise reproducible regardless of thread configuration.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.integrate import quad

from .config import sphere_area
from .errors import ConfigError, GridTooCoarse
from .varifold import DiscreteVarifold, _as_points

_PAIR_CHUNK = 1 << 17     # candidate (point, lattice node) pairs per chunk
_HASH_HALF_RANGE = 1 << 19  # per-axis cell index limit for int64 packing
_ROUNDOFF = 1e-6          # slack, in cells, of the lattice's range tests


class Mollifier:
    """Radial C^2 kernel at scale eps in R^dim with support radius cutoff*eps."""

    def __init__(self, eps: float, dim: int, cutoff: float = 4.0):
        if eps <= 0.0:
            raise ConfigError("kernel scale eps must be positive")
        if cutoff < 1.0:
            raise ConfigError("cutoff must be >= 1 kernel scale")
        self.eps = float(eps)
        self.dim = int(dim)
        self.cutoff = float(cutoff)
        self.support_radius = self.cutoff * self.eps
        # unit-integral normalization, computed on the scale-free profile
        k = self.cutoff
        integrand = lambda r: r ** (self.dim - 1) * math.exp(-0.5 * r * r) * (1.0 - (r / k) ** 2) ** 3
        val, err = quad(integrand, 0.0, k, limit=200)
        self._amplitude = 1.0 / (sphere_area(self.dim) * val)
        if err > 1e-9 * val:
            raise ConfigError("kernel normalization quadrature did not converge")

    def _profile01(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The radial profile g and g' = dg/drho at rho = |x|^2."""
        eps2 = self.eps * self.eps
        R2 = self.support_radius**2
        inside = rho < R2
        rho_in = np.where(inside, rho, 0.0)
        u = 1.0 - rho_in / R2
        u2 = u * u
        E = (self._amplitude / self.eps**self.dim) * np.exp(-0.5 * rho_in / eps2)
        g = E * u2 * u
        gp = -E * u2 * (u / (2.0 * eps2) + 3.0 / R2)
        zero = np.zeros_like(g)
        return np.where(inside, g, zero), np.where(inside, gp, zero)


def _integer_ball(dim: int, reach: float) -> np.ndarray:
    """Integer points k with |k| <= reach, in lexicographic order."""
    half = int(math.floor(reach))
    axis = np.arange(-half, half + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    ints = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return ints[np.einsum("ai,ai->a", ints, ints) <= reach * reach]


def _pack(cells: np.ndarray) -> np.ndarray:
    """One int64 code per row of cell indices, ordered as the rows sort.

    Indices out of range wrap around instead of failing.
    """
    dims = (2 * _HASH_HALF_RANGE,) * cells.shape[1]
    return np.ravel_multi_index(tuple((cells + _HASH_HALF_RANGE).T), dims, mode="wrap")


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
    def for_kernel(cls, kernel: Mollifier, refinement: int = 4) -> "QuadratureGrid":
        if refinement < 2:
            raise GridTooCoarse(f"refinement {refinement} < 2: spacing would exceed eps/2")
        return cls(kernel.dim, kernel.support_radius, kernel.eps / float(refinement))

    @property
    def node_count(self) -> int:
        return self.offsets.shape[0]

    @property
    def covered_volume(self) -> float:
        return self.node_count * self.weight


class SpatialHash:
    """Exact fixed-radius neighbor lookup on a uniform grid of cells.

    Cell size equals the query radius, so all neighbors of a query point lie
    in its cell or the 3^dim surrounding cells.  Atom indices are kept in a
    cell-sorted order; pair generation is fully vectorized and deterministic.
    Nothing in the package calls it; perfbench/tracing.py still wraps
    neighbor_pairs until that span moves to _Lattice._near.
    """

    def __init__(self, points: np.ndarray, cell_size: float):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.dim = pts.shape[1]
        if self.dim > 3:
            raise ConfigError("spatial hash supports dimensions 2 and 3")
        self.cell_size = float(cell_size)
        cells = np.floor(pts / self.cell_size).astype(np.int64)
        if cells.size and np.max(np.abs(cells)) >= _HASH_HALF_RANGE - 1:
            raise ConfigError("coordinates too large for the spatial hash")
        codes = _pack(cells)
        self.order = np.argsort(codes, kind="stable")
        sorted_codes = codes[self.order]
        self.cell_codes, self.starts = np.unique(sorted_codes, return_index=True)
        counts = np.empty_like(self.starts)
        if len(self.starts):
            counts[:-1] = np.diff(self.starts)
            counts[-1] = sorted_codes.shape[0] - self.starts[-1]
        self.counts = counts
        self._neighborhood = np.array(
            list(itertools.product((-1, 0, 1), repeat=self.dim)), dtype=np.int64)

    def neighbor_pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (query row, point index) pairs within one cell ring."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        qcells = np.floor(q / self.cell_size).astype(np.int64)
        rows_out, cols_out = [], []
        for off in self._neighborhood:
            codes = _pack(qcells + off)
            pos = np.searchsorted(self.cell_codes, codes)
            pos_c = np.minimum(pos, len(self.cell_codes) - 1) if len(self.cell_codes) else pos
            hit = np.zeros(codes.shape[0], dtype=bool)
            if len(self.cell_codes):
                hit = self.cell_codes[pos_c] == codes
            if not np.any(hit):
                continue
            starts = self.starts[pos_c[hit]]
            counts = self.counts[pos_c[hit]]
            flat = _ranges(starts, starts + counts)
            rows_out.append(np.repeat(np.nonzero(hit)[0], counts))
            cols_out.append(self.order[flat])
        if not rows_out:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(rows_out), np.concatenate(cols_out)


def _within(a: np.ndarray, rows: np.ndarray, b: np.ndarray, cols: np.ndarray,
            R2: float) -> tuple[np.ndarray, ...]:
    """The pairs with |a[row] - b[col]|^2 < R2: rows, cols, differences, rho.

    Rows of 2-D arrays are gathered with np.take, which copies them several
    times faster than fancy or boolean indexing and gives the same values.
    """
    diff = np.take(a, rows, axis=0) - np.take(b, cols, axis=0)
    rho = np.einsum("pi,pi->p", diff, diff)
    inside = np.flatnonzero(rho < R2)
    if inside.size == rho.size:
        return rows, cols, diff, rho
    return tuple(np.take(x, inside, axis=0) for x in (rows, cols, diff, rho))


def _field_sums(lattice: _Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mass and smoothed first variation at the lattice nodes.

    Each atom is scattered onto the nodes within R of it, which the
    lattice's own lookup finds; bincount over the node index adds the terms
    in a fixed order.
    """
    V, kernel = lattice.V, lattice.kernel
    nodes = lattice.nodes[1]
    K, n = nodes.shape
    mass, fvar = np.zeros(K), np.zeros((K, n))
    # orthonormal bases of the atom planes, shape (N, d, n)
    bases = np.ascontiguousarray(np.transpose(
        np.linalg.eigh(V.planes)[1][:, :, -V.d:], (0, 2, 1)))
    for part in lattice._chunks(len(V)):
        atoms = V.positions[part]
        rows, idx = lattice._near(atoms)
        rows, idx, diff, rho = _within(atoms, rows, nodes, idx,
                                       kernel.support_radius**2)
        g, gp = kernel._profile01(rho)
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
    one lookup gives the pairs of both kernel sums: the atoms scattered onto
    the nodes for the fields, the nodes gathered at each point by mollify.
    """

    def __init__(self, V: DiscreteVarifold, kernel: Mollifier, grid: QuadratureGrid):
        if V.n not in (2, 3):
            raise ConfigError("the curvature lattice supports dimensions 2 and 3")
        if grid.spacing > kernel.eps / 2.0 + 1e-12:
            raise GridTooCoarse(
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
        return np.floor((points - self.anchor) / self.spacing).astype(np.int64)

    def _code(self, heads: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Codes of the cells (heads, last); heads carry the first n - 1 axes."""
        return (heads + _HASH_HALF_RANGE) @ self.strides[:-1] + (last + _HASH_HALF_RANGE)

    @functools.cached_property
    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted node codes and the node positions."""
        base = self.cells(self.V.positions)
        if np.max(np.abs(base)) >= _HASH_HALF_RANGE // 2:
            raise ConfigError("coordinates too large for the curvature lattice")
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

    def _near(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point row, node index) pairs holding every node within R of a point.

        Each column of the point's integer ball that passes within R gives
        the code range of the cells within R of the point along it; both
        tests are widened by _ROUNDOFF of a cell, so that the support test
        on the pairs alone decides.  Nodes come in code order per point.  A
        point far off the lattice can only meet far nodes, which that test
        drops.
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

    def _chunks(self, count: int) -> list[slice]:
        """Consecutive slices of `count` points, sized so that `_near` gives
        about _PAIR_CHUNK candidate pairs per slice."""
        step = max(1, _PAIR_CHUNK // int(np.sum(2 * self.half + 1)))
        return [slice(lo, lo + step) for lo in range(0, count, step)]

    def mollify(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phi * q and its Jacobian at the points, as sums over the nodes."""
        Q, n = points.shape
        h, J = np.zeros((Q, n)), np.zeros((Q, n, n))
        nodes = self.nodes[1]
        quot = self.quotient()
        for part in self._chunks(Q):
            chunk = points[part]
            rows, idx = self._near(chunk)
            rows, idx, diff, rho = _within(chunk, rows, nodes, idx,
                                           self.kernel.support_radius**2)
            g, gp = self.kernel._profile01(rho)
            wq = np.take(quot, idx, axis=0)
            wphi = self.weight * g
            # grad Phi(x - y) = 2 g' (x - y)
            wgrad = ((2.0 * self.weight) * gp)[:, None] * diff
            for a in range(n):
                h[part, a] = np.bincount(rows, weights=wphi * wq[:, a],
                                         minlength=len(chunk))
                for b in range(n):
                    J[part, a, b] = np.bincount(
                        rows, weights=wq[:, a] * wgrad[:, b], minlength=len(chunk))
        return h, J


def curvature_with_jacobian(V: DiscreteVarifold, kernel: Mollifier,
                            grid: QuadratureGrid, points,
                            lattice: _Lattice | None = None
                            ) -> tuple[np.ndarray, np.ndarray]:
    """h_eps and its Jacobian at the points, on `lattice` (built from `grid`
    when not given; passing the lattice of V reuses its field sums)."""
    pts, single = _as_points(points, V.n)
    if len(V) == 0:
        h, J = np.zeros_like(pts), np.zeros((len(pts), V.n, V.n))
    else:
        h, J = (lattice or _Lattice(V, kernel, grid)).mollify(pts)
    return (h[0], J[0]) if single else (h, J)


def dissipation(V: DiscreteVarifold, kernel: Mollifier,
                grid: QuadratureGrid | None = None,
                lattice: _Lattice | None = None) -> float:
    """integral of |delta V * Phi|^2 / ((||V|| * Phi) + eps) over R^n.

    The integrand vanishes off the curvature lattice of V, here `lattice` or
    the one built from `grid` (spacing eps/4 when not given).  Equals
    -delta V(h_eps(., V)) to roundoff.
    """
    if len(V) == 0:
        return 0.0
    if lattice is None:
        lattice = _Lattice(V, kernel, grid or QuadratureGrid.for_kernel(kernel))
    mass, fvar = lattice.fields
    dens = np.einsum("qi,qi->q", fvar, fvar) / (mass + kernel.eps)
    return float(dens.sum() * lattice.weight)
