"""Compactly supported smoothing kernel and the regularized curvature fields.

The kernel is a Gaussian with a C^2 polynomial cutoff,

    Phi_eps(x) = A eps^-n exp(-|x|^2 / (2 eps^2)) (1 - |x|^2/(k eps)^2)^3

for |x| < k*eps and zero beyond.  The cutoff factor and its first two
derivatives vanish at the support boundary, so Phi_eps is C^2 on R^n with
compact support; A = A(n, k) is fixed once per (dimension, cutoff) by radial
quadrature so that the kernel integrates to one exactly in the continuum.

Writing Phi_eps(x) = g(|x|^2) for a scalar profile g gives closed forms

    grad Phi = 2 g'(rho) x,      D^2 Phi = 4 g''(rho) x ox x + 2 g'(rho) I,

which is what the field evaluators below use.

For an atomic varifold V the smoothed mass and smoothed first variation are
finite sums over atoms,

    (||V|| * Phi)(y)    =  sum_i m_i Phi(y - x_i)
    (delta V * Phi)(y)  = -sum_i m_i S_i grad Phi(y - x_i),

and the regularized mean curvature field is the mollified quotient

    h(y)  = Phi * [ -(delta V * Phi) / ((||V|| * Phi) + eps) ](y),

where the outer convolution is evaluated by a midpoint rule on an
axis-aligned grid of spacing eps/q over the kernel support.  Neighbor sums
use an exact uniform spatial hash with cell size equal to the kernel support
radius; all reductions are fixed-order (bincount / einsum), so results are
bitwise reproducible regardless of thread configuration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad

from .config import sphere_area
from .errors import ConfigError, GridTooCoarse
from .varifold import DiscreteVarifold, _as_points

_QUERY_CHUNK = 65536
_HASH_HALF_RANGE = 1 << 19  # per-axis cell index limit for int64 packing


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

    # radial profile g and its derivatives in rho = |x|^2
    def _profile(self, rho: np.ndarray, order: int) -> np.ndarray:
        eps2 = self.eps * self.eps
        R2 = self.support_radius**2
        inside = rho < R2
        rho_in = np.where(inside, rho, 0.0)
        u = 1.0 - rho_in / R2
        E = (self._amplitude / self.eps**self.dim) * np.exp(-0.5 * rho_in / eps2)
        if order == 0:
            out = E * u**3
        elif order == 1:
            out = E * (-(u**3) / (2.0 * eps2) - 3.0 * u**2 / R2)
        else:
            out = E * (u**3 / (4.0 * eps2 * eps2) + 3.0 * u**2 / (eps2 * R2) + 6.0 * u / (R2 * R2))
        return np.where(inside, out, 0.0)

    def _profile01(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g and g' together, sharing one exponential (hot path)."""
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

    def value(self, points) -> np.ndarray:
        x, single = _as_points(points, self.dim)
        rho = np.einsum("ai,ai->a", x, x)
        out = self._profile(rho, 0)
        return out[0] if single else out

    def grad(self, points) -> np.ndarray:
        x, single = _as_points(points, self.dim)
        rho = np.einsum("ai,ai->a", x, x)
        out = 2.0 * self._profile(rho, 1)[:, None] * x
        return out[0] if single else out

    def hess(self, points) -> np.ndarray:
        x, single = _as_points(points, self.dim)
        rho = np.einsum("ai,ai->a", x, x)
        gp = self._profile(rho, 1)
        gpp = self._profile(rho, 2)
        eye = np.eye(self.dim)
        out = 4.0 * gpp[:, None, None] * np.einsum("ai,aj->aij", x, x) \
            + 2.0 * gp[:, None, None] * eye[None, :, :]
        return out[0] if single else out


class QuadratureGrid:
    """Axis-aligned midpoint grid covering a ball around the origin.

    Nodes are integer multiples of the spacing; each carries weight
    spacing^dim.  The node set covers the stated ball (every ball point lies
    in some node's cell), and the weights sum to the covered cell-union
    volume exactly.
    """

    def __init__(self, dim: int, radius: float, spacing: float):
        if spacing <= 0.0 or radius <= 0.0:
            raise ConfigError("grid radius and spacing must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.spacing = float(spacing)
        reach = self.radius + 0.5 * math.sqrt(dim) * self.spacing
        half = int(math.floor(reach / self.spacing))
        axis = np.arange(-half, half + 1)
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        ints = np.stack([m.reshape(-1) for m in mesh], axis=1)
        offsets = ints * self.spacing
        keep = np.einsum("ai,ai->a", offsets, offsets) <= reach * reach
        self.offsets = np.ascontiguousarray(offsets[keep])
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
        codes = self._pack(cells)
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

    def _pack(self, cells: np.ndarray) -> np.ndarray:
        base = np.int64(2 * _HASH_HALF_RANGE)
        code = np.zeros(cells.shape[0], dtype=np.int64)
        for axis in range(self.dim):
            code = code * base + (cells[:, axis] + _HASH_HALF_RANGE)
        return code

    def neighbor_pairs(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (query row, point index) pairs within one cell ring."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        qcells = np.floor(q / self.cell_size).astype(np.int64)
        rows_out, cols_out = [], []
        for off in self._neighborhood:
            codes = self._pack(qcells + off)
            pos = np.searchsorted(self.cell_codes, codes)
            pos_c = np.minimum(pos, len(self.cell_codes) - 1) if len(self.cell_codes) else pos
            hit = np.zeros(codes.shape[0], dtype=bool)
            if len(self.cell_codes):
                hit = self.cell_codes[pos_c] == codes
            if not np.any(hit):
                continue
            starts = self.starts[pos_c[hit]]
            counts = self.counts[pos_c[hit]]
            total = int(counts.sum())
            shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = np.arange(total, dtype=np.int64) + np.repeat(starts - shift, counts)
            rows_out.append(np.repeat(np.nonzero(hit)[0], counts))
            cols_out.append(self.order[flat])
        if not rows_out:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return np.concatenate(rows_out), np.concatenate(cols_out)


def _orthobases(V: DiscreteVarifold) -> np.ndarray:
    """Orthonormal bases of all atom planes, shape (N, d, n)."""
    _, vecs = np.linalg.eigh(V.planes)
    return np.ascontiguousarray(np.transpose(vecs[:, :, -V.d:], (0, 2, 1)))


def _field_sums(V: DiscreteVarifold, kernel: Mollifier, points: np.ndarray,
                hash_: SpatialHash | None = None,
                bases: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed mass and smoothed first variation at the given points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    Q, n = pts.shape
    mass = np.zeros(Q)
    fvar = np.zeros((Q, n))
    if len(V) == 0:
        return mass, fvar
    R2 = kernel.support_radius**2
    if hash_ is None and n <= 3:
        hash_ = SpatialHash(V.positions, kernel.support_radius)
    if bases is None:
        bases = _orthobases(V)
    for lo in range(0, Q, _QUERY_CHUNK):
        hi = min(lo + _QUERY_CHUNK, Q)
        chunk = pts[lo:hi]
        if hash_ is not None:
            rows, cols = hash_.neighbor_pairs(chunk)
        else:
            rows = np.repeat(np.arange(hi - lo), len(V))
            cols = np.tile(np.arange(len(V)), hi - lo)
        if rows.size == 0:
            continue
        diff = chunk[rows] - V.positions[cols]
        rho = np.einsum("pi,pi->p", diff, diff)
        keep = rho < R2
        rows, cols, diff, rho = rows[keep], cols[keep], diff[keep], rho[keep]
        if rows.size == 0:
            continue
        g, gp = kernel._profile01(rho)
        m = V.masses[cols]
        mass[lo:hi] += np.bincount(rows, weights=m * g, minlength=hi - lo)
        # S_j diff through the orthonormal basis: S v = B^T (B v)
        B = bases[cols]
        coeff = np.einsum("pkj,pj->pk", B, diff)
        sd = np.einsum("pk,pkj->pj", coeff, B)
        coef = -2.0 * m * gp
        for axis in range(n):
            fvar[lo:hi, axis] += np.bincount(rows, weights=coef * sd[:, axis],
                                             minlength=hi - lo)
    return mass, fvar


def _stencil(kernel: Mollifier, grid: QuadratureGrid):
    """Grid nodes restricted to the open kernel support, with their weights."""
    if grid.spacing > kernel.eps / 2.0 + 1e-12:
        raise GridTooCoarse(
            f"grid spacing {grid.spacing:.3g} exceeds eps/2 = {kernel.eps / 2.0:.3g}")
    if grid.radius < kernel.support_radius - 1e-12:
        raise ConfigError("quadrature grid does not cover the kernel support")
    offs = grid.offsets
    inside = np.einsum("pi,pi->p", offs, offs) < kernel.support_radius**2
    offs = offs[inside]
    wphi = kernel.value(offs) * grid.weight
    wgrad = -kernel.grad(offs) * grid.weight  # grad Phi(x - y) at offsets y - x
    return offs, wphi, wgrad


def _quotient_on_stencil(V, kernel, offsets, points):
    """-(delta V * Phi) / ((||V|| * Phi) + eps) at every point + offset."""
    pts = np.atleast_2d(points)
    Q, n = pts.shape
    P = offsets.shape[0]
    nodes = (pts[:, None, :] + offsets[None, :, :]).reshape(Q * P, n)
    mass, fvar = _field_sums(V, kernel, nodes)
    quot = -fvar / (mass + kernel.eps)[:, None]
    return quot.reshape(Q, P, n)


def curvature_with_jacobian(V: DiscreteVarifold, kernel: Mollifier,
                            grid: QuadratureGrid, points) -> tuple[np.ndarray, np.ndarray]:
    """h_eps and its Jacobian in one pass over the quadrature stencil."""
    pts, single = _as_points(points, V.n)
    offs, wphi, wgrad = _stencil(kernel, grid)
    quot = _quotient_on_stencil(V, kernel, offs, pts)
    h = np.einsum("p,qpn->qn", wphi, quot)
    J = np.einsum("qpn,pb->qnb", quot, wgrad)
    if single:
        return h[0], J[0]
    return h, J


def _support_lattice(V: DiscreteVarifold, kernel: Mollifier, spacing: float) -> np.ndarray:
    """Deduplicated lattice nodes within the fattened support of ||V||."""
    half_range = np.int64(2 * _HASH_HALF_RANGE)
    reach = int(math.ceil(kernel.support_radius / spacing)) + 1
    axis = np.arange(-reach, reach + 1)
    mesh = np.meshgrid(*([axis] * V.n), indexing="ij")
    offs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    keep = (offs * offs).sum(axis=1) * spacing**2 <= (kernel.support_radius + spacing) ** 2
    offs = offs[keep]
    base = np.floor(V.positions / spacing).astype(np.int64)
    cells = (base[:, None, :] + offs[None, :, :]).reshape(-1, V.n)
    code = np.zeros(cells.shape[0], dtype=np.int64)
    for a in range(V.n):
        code = code * half_range + (cells[:, a] + _HASH_HALF_RANGE)
    code = np.unique(code)
    out = np.empty((code.shape[0], V.n), dtype=np.int64)
    for a in range(V.n - 1, -1, -1):
        out[:, a] = code % half_range - _HASH_HALF_RANGE
        code = code // half_range
    return out * spacing


def dissipation(V: DiscreteVarifold, kernel: Mollifier,
                grid: QuadratureGrid | None = None,
                nodes: np.ndarray | None = None,
                spacing: float | None = None) -> float:
    """integral of |delta V * Phi|^2 / ((||V|| * Phi) + eps) over R^n.

    The integrand is supported within the fattened support of ||V||, so by
    default the quadrature lattice is generated there (spacing taken from
    `grid` when given).  Equals -delta V(h_eps(., V)) in the continuum.
    """
    if len(V) == 0:
        return 0.0
    if nodes is not None:
        if spacing is None:
            raise ConfigError("explicit nodes need an explicit spacing")
        pts = np.atleast_2d(np.asarray(nodes, dtype=float))
        eta = float(spacing)
    else:
        eta = grid.spacing if grid is not None else kernel.eps / 4.0
        if eta > kernel.eps / 2.0 + 1e-12:
            raise GridTooCoarse("dissipation grid spacing exceeds eps/2")
        pts = _support_lattice(V, kernel, eta)
    mass, fvar = _field_sums(V, kernel, pts)
    dens = np.einsum("qi,qi->q", fvar, fvar) / (mass + kernel.eps)
    return float(dens.sum() * eta**V.n)
