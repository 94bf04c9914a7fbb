"""Smoothing kernel and regularized curvature: unit mass, equivariance,
brute-force field oracles, quadrature convergence, dissipation identity."""

import math

import numpy as np
import pytest

from varimcf import mollifier
from varimcf.errors import ConfigError, VarimcfError
from varimcf.mollifier import (Mollifier, QuadratureGrid, SpatialHash,
                               _integer_ball, _Lattice, _pack,
                               curvature_with_jacobian, dissipation)
from varimcf.varifold import (DiscreteVarifold, first_variation,
                              projections_from_bases)


def random_varifold(rng, N, n=2, d=1, box=1.0):
    pos = rng.uniform(-box, box, (N, n))
    planes = projections_from_bases([rng.normal(size=(d, n)) for _ in range(N)])
    return DiscreteVarifold.from_arrays(pos, planes,
                                        rng.uniform(0.5, 1.5, N), d=d)


def polygon_circle(N, R=1.0):
    th = (np.arange(N) + 0.5) / N * 2.0 * math.pi
    pts = np.stack([np.cos(th), np.sin(th)], 1) * R
    t = np.stack([-np.sin(th), np.cos(th)], 1)
    P = np.einsum("ai,aj->aij", t, t)
    m = np.full(N, 2.0 * R * math.sin(math.pi / N))
    return DiscreteVarifold.from_arrays(pts, P, m, d=1)


def curvature(V, kern, grid, pts):
    return curvature_with_jacobian(_Lattice(V, kern, grid), pts)[0]


def curvature_jacobians(V, kern, grid):
    """D h_eps(., V) at the atoms, for pairing with the first variation."""
    return curvature_with_jacobian(_Lattice(V, kern, grid), V.positions)[1]


def kernel_value(kern, x):
    x = np.atleast_2d(x)
    return kern._profile01(np.einsum("ai,ai->a", x, x))[0]


def kernel_grad(kern, x):
    x = np.atleast_2d(x)
    return 2.0 * kern._profile01(np.einsum("ai,ai->a", x, x))[1][:, None] * x


def kernel_hess(kern, x, step=1e-10):
    """D^2 Phi at one point, by central differences of the gradient."""
    x = np.asarray(x, dtype=float)
    cols = [(kernel_grad(kern, x + step * e)[0]
             - kernel_grad(kern, x - step * e)[0]) / (2.0 * step)
            for e in np.eye(len(x))]
    return np.stack(cols, axis=1)


def rotation2(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# the kernel itself


@pytest.mark.parametrize("n,eps", [(2, 0.5), (2, 0.25), (3, 0.6)])
def test_kernel_integrates_to_one(n, eps):
    # oracle: midpoint grid sum over the support, an independent quadrature
    kern = Mollifier(eps, n)
    grid = QuadratureGrid(n, kern.support_radius, eps / 8.0)
    total = float(kernel_value(kern, grid.offsets).sum() * grid.weight)
    assert total == pytest.approx(1.0, abs=2e-3)


def test_kernel_vanishes_smoothly_at_support_boundary():
    kern = Mollifier(0.3, 2)
    edge = np.array([[kern.support_radius * (1.0 - 1e-6), 0.0]])
    assert kernel_value(kern, edge)[0] < 1e-12
    assert np.all(np.abs(kernel_grad(kern, edge)[0]) < 1e-8)
    assert np.all(np.abs(kernel_hess(kern, edge[0])) < 1e-2)
    beyond = np.array([[kern.support_radius + 1e-9, 0.0]])
    assert kernel_value(kern, beyond)[0] == 0.0
    assert np.all(kernel_hess(kern, beyond[0]) == 0.0)


def test_kernel_is_radial_and_centered():
    kern = Mollifier(0.4, 2)
    x = np.array([[0.2, 0.1]])
    R = rotation2(1.234)
    assert kernel_value(kern, (R @ x.T).T)[0] == pytest.approx(
        kernel_value(kern, x)[0], rel=1e-12)
    assert np.all(kernel_grad(kern, np.zeros((1, 2)))[0] == 0.0)
    H0 = kernel_hess(kern, np.zeros(2))
    assert H0[0, 0] == pytest.approx(H0[1, 1], rel=1e-12)
    assert H0[0, 1] == 0.0
    assert H0[0, 0] < 0.0  # maximum at the origin


def test_kernel_derivatives_by_finite_differences():
    kern = Mollifier(0.35, 2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.8, 0.8, (25, 2)) * kern.support_radius / 1.2
    e = 1e-6
    for p in pts:
        g = kernel_grad(kern, p)[0]
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = e
            fd = (kernel_value(kern, p + dp)[0]
                  - kernel_value(kern, p - dp)[0]) / (2 * e)
            assert g[i] == pytest.approx(fd, abs=2e-4 * (1 + abs(fd)))


@pytest.mark.parametrize("n,eps", [(2, 0.1), (3, 0.07)])
def test_profile_outside_the_support_is_masked_to_zero(n, eps):
    # a mixed input gives, bit for bit, the inside-only values on the inside
    # entries and exactly +0.0 on the rest
    kern = Mollifier(eps, n)
    R2 = kern.support_radius**2
    rho = np.random.default_rng(3).uniform(0.0, 1.5 * R2, 4000)
    rho[:4] = [0.0, np.nextafter(R2, 0.0), R2, 2.0 * R2]
    inside = rho < R2
    g, gp = kern._profile01(rho)
    g_in, gp_in = kern._profile01(rho[inside])
    assert np.array_equal(g[inside], g_in) and np.array_equal(gp[inside], gp_in)
    # the formula as written, in the same order of operations
    eps2, r = eps * eps, rho[inside]
    u = 1.0 - r / R2
    E = (kern._amplitude / eps**n) * np.exp(-0.5 * r / eps2)
    assert np.array_equal(g_in, E * (u * u) * u)
    assert np.array_equal(gp_in, -E * (u * u) * (u / (2.0 * eps2) + 3.0 / R2))
    for outside in (g[~inside], gp[~inside]):
        assert np.all(outside == 0.0) and not np.any(np.signbit(outside))


def test_kernel_config_rejections():
    with pytest.raises(ConfigError):
        Mollifier(0.0, 2)
    with pytest.raises(ConfigError):
        Mollifier(0.1, 2, cutoff=0.5)


# ---------------------------------------------------------------------------
# quadrature grid and spatial hash


def test_grid_covers_the_ball_and_centers_a_node():
    grid = QuadratureGrid(2, 1.0, 0.125)
    assert len(grid.offsets) * grid.weight >= math.pi - 1e-12
    assert np.any(np.all(grid.offsets == 0.0, axis=1))


def test_grid_refinement_guard():
    kern = Mollifier(0.2, 2)
    with pytest.raises(VarimcfError, match="refinement 1 < 2"):
        QuadratureGrid.for_kernel(kern, 1)
    with pytest.raises(VarimcfError, match="grid spacing 0.15 exceeds eps/2"):
        _Lattice(polygon_circle(16), kern,
                 QuadratureGrid(2, kern.support_radius, 0.15))
    with pytest.raises(ConfigError):
        _Lattice(polygon_circle(16), kern,
                 QuadratureGrid(2, 0.5 * kern.support_radius, 0.05))


def test_spatial_hash_finds_exactly_the_near_pairs():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2.0, 2.0, (300, 2))
    queries = rng.uniform(-2.5, 2.5, (40, 2))
    radius = 0.3
    hash_ = SpatialHash(pts, radius)
    rows, cols = hash_.neighbor_pairs(queries)
    got = set(zip(rows.tolist(), cols.tolist()))
    dist = np.linalg.norm(queries[:, None, :] - pts[None, :, :], axis=2)
    for q in range(len(queries)):
        for p in range(len(pts)):
            if dist[q, p] < radius:           # must never be missed
                assert (q, p) in got
            if (q, p) in got:                 # candidates stay in one cell ring
                assert dist[q, p] <= radius * (1.0 + 2.0 * math.sqrt(2.0))


# ---------------------------------------------------------------------------
# smoothed fields against brute-force sums


def brute_mass(V, kern, pts):
    out = np.zeros(len(pts))
    for i in range(len(V)):
        out += V.masses[i] * kernel_value(kern, pts - V.positions[i])
    return out


def brute_fvar(V, kern, pts):
    out = np.zeros((len(pts), V.n))
    for i in range(len(V)):
        out -= V.masses[i] * kernel_grad(kern, pts - V.positions[i]) @ V.planes[i]
    return out


def field_lattice(seed, N, n, d, eps):
    rng = np.random.default_rng(seed)
    V = random_varifold(rng, N, n=n, d=d)
    kern = Mollifier(eps, n)
    return rng, _Lattice(V, kern, QuadratureGrid.for_kernel(kern, 2))


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
def test_smoothed_fields_match_brute_force(n, d):
    # every lattice node against the all-pairs sums; a node farther than R
    # from every atom gets no term at all
    _, lattice = field_lattice(20 + n, 25, n, d, 0.3)
    V, kern = lattice.V, lattice.kernel
    nodes = lattice.nodes[1]
    mass, fvar = lattice.fields
    np.testing.assert_allclose(mass, brute_mass(V, kern, nodes),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(fvar, brute_fvar(V, kern, nodes),
                               rtol=0.0, atol=1e-12)
    gap = np.min(np.linalg.norm(nodes[:, None, :] - V.positions[None], axis=2),
                 axis=1)
    far = gap >= kern.support_radius
    assert 0 < np.count_nonzero(far) < len(nodes)
    assert np.all(mass[far] == 0.0) and np.all(fvar[far] == 0.0)


def test_smoothed_first_variation_equals_exact_pairing():
    # component j at a node y equals the exact first variation along the
    # vector field x -> Phi(y - x) e_j
    for n, d in [(2, 1), (3, 2)]:
        rng, lattice = field_lattice(23 + n, 12, n, d, 0.4)
        V, kern = lattice.V, lattice.kernel
        mass, fvar = lattice.fields
        for k in rng.choice(np.flatnonzero(mass > 0.0), 4, replace=False):
            y = lattice.nodes[1][k]
            for j, ej in enumerate(np.eye(n)):

                # D(Phi(y - x) e_j) = -e_j grad Phi(y - x)^T at the atoms
                jac = -np.einsum("i,qj->qij", ej,
                                 kernel_grad(kern, y[None, :] - V.positions))
                assert first_variation(V, jac) == \
                    pytest.approx(fvar[k, j], abs=1e-12)


def test_raw_curvature_quotient_definition():
    rng = np.random.default_rng(24)
    V = random_varifold(rng, 10, n=2, d=1)
    kern = Mollifier(0.3, 2)
    lattice = _Lattice(V, kern, QuadratureGrid.for_kernel(kern, 2))
    nodes = lattice.nodes[1]
    pick = rng.choice(len(nodes), 8, replace=False)
    got = lattice.quotient()[pick]
    pts = nodes[pick]
    expect = -brute_fvar(V, kern, pts) / (brute_mass(V, kern, pts)
                                          + kern.eps)[:, None]
    assert np.allclose(got, expect, atol=1e-12)


def isolated_atoms(rng, count, n, d, kern, eta):
    """One atom, or two more than 2R apart with the second 0.9 of a lattice
    cell off the first one's lattice along every axis."""
    V = random_varifold(rng, count, n=n, d=d, box=0.1)
    if count == 1:
        return V
    cells = math.ceil(2.0 * kern.support_radius / (eta * math.sqrt(n))) + 0.9
    pos = np.stack([V.positions[0], V.positions[0] + cells * eta])
    return DiscreteVarifold.from_arrays(pos, V.planes, V.masses, d=d)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
@pytest.mark.parametrize("refinement", [2, 3])
def test_lattice_holds_every_node_near_an_atom(n, d, refinement):
    # every node anchor + k*spacing within the kernel support of an atom,
    # where the quotient can be nonzero, is on the lattice; near the far
    # corner of the second atom's cell some lie beyond R + spacing
    rng = np.random.default_rng(25 + n)
    kern = Mollifier(0.3, n)
    grid = QuadratureGrid.for_kernel(kern, refinement)
    V = isolated_atoms(rng, 2, n, d, kern, grid.spacing)
    lattice = _Lattice(V, kern, grid)
    codes, nodes = lattice.nodes
    assert np.any(np.all(nodes == V.positions[0], axis=1))
    eta, R = lattice.spacing, kern.support_radius
    span = int(math.ceil(R / eta)) + 2
    ks = np.stack(np.meshgrid(*([np.arange(-span, span + 1)] * n),
                              indexing="ij"), -1).reshape(-1, n)
    found = {tuple(p) for p in np.round((nodes - lattice.anchor) / eta)
             .astype(int).tolist()}
    for x in V.positions:
        cand = lattice.cells(x[None])[0] + ks
        near = np.linalg.norm(lattice.anchor + cand * eta - x, axis=1) < R
        assert all(tuple(c) in found for c in cand[near].tolist())


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
def test_lattice_nodes_are_the_integer_balls_around_the_atoms(n, d):
    # the merged column ranges hold exactly the cells within R + sqrt(n)
    # spacing of an atom's cell, in code order
    rng = np.random.default_rng(27 + n)
    kern = Mollifier(0.3, n)
    grid = QuadratureGrid.for_kernel(kern, 2)
    V = random_varifold(rng, 12, n=n, d=d)
    lattice = _Lattice(V, kern, grid)
    ball = _integer_ball(n, kern.support_radius / grid.spacing + math.sqrt(n))
    cells = lattice.cells(V.positions)[:, None, :] + ball
    expect = np.unique(_pack(cells.reshape(-1, n)))
    codes, nodes = lattice.nodes
    assert np.array_equal(codes, expect)
    assert np.allclose(np.round((nodes - lattice.anchor) / grid.spacing),
                       (nodes - lattice.anchor) / grid.spacing, atol=1e-9)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
def test_lattice_lookup_finds_exactly_the_nodes_within_the_support(n, d):
    # per point, in code order: the nodes a brute-force scan finds within R;
    # a point far off the lattice finds none
    rng = np.random.default_rng(29 + n)
    kern = Mollifier(0.3, n)
    grid = QuadratureGrid.for_kernel(kern, 3)
    V = random_varifold(rng, 10, n=n, d=d)
    lattice = _Lattice(V, kern, grid)
    codes, nodes = lattice.nodes
    R2 = kern.support_radius**2
    pts = np.vstack([V.positions, rng.uniform(-1.6, 1.6, (25, n)),
                     np.full((1, n), 1e3)])
    rows, idx = lattice._near(pts)
    gap = pts[rows] - nodes[idx]
    inside = np.einsum("pi,pi->p", gap, gap) < R2
    rows, idx = rows[inside], idx[inside]
    diff = pts[:, None, :] - nodes[None, :, :]
    want_rows, want_idx = np.nonzero(np.einsum("qki,qki->qk", diff, diff) < R2)
    assert np.array_equal(rows, want_rows) and np.array_equal(idx, want_idx)
    h, J = curvature_with_jacobian(lattice, pts[-1:])
    assert not np.any(h) and not np.any(J)


# ---------------------------------------------------------------------------
# regularized curvature


def inside_pairs(lattice, points):
    """The pairs of lattice._pairs with |point - node| < R, found from the
    differences alone: the candidates beyond R are dropped, not zeroed."""
    R2 = lattice.kernel.support_radius**2
    for part, rows, idx, diff, g, gp in lattice._pairs(points):
        keep = np.einsum("pi,pi->p", diff, diff) < R2
        yield part, rows[keep], idx[keep], diff[keep], g[keep], gp[keep]


def bincount_gather(lattice, points):
    """h and Dh summed pair by pair with one bincount per entry over the
    pairs inside R: the sums curvature_with_jacobian takes as sparse row
    sums, in the same order, less the zeroed candidates beyond R."""
    Q, n = points.shape
    h, J = np.zeros((Q, n)), np.zeros((Q, n, n))
    quot = lattice.quotient()
    for part, rows, idx, diff, g, gp in inside_pairs(lattice, points):
        size = len(points[part])
        wq = np.take(quot, idx, axis=0)
        wphi = lattice.weight * g
        wgrad = ((2.0 * lattice.weight) * gp)[:, None] * diff
        for a in range(n):
            h[part, a] = np.bincount(rows, weights=wphi * wq[:, a],
                                     minlength=size)
            for b in range(n):
                J[part, a, b] = np.bincount(
                    rows, weights=wq[:, a] * wgrad[:, b], minlength=size)
    return h, J


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
@pytest.mark.parametrize("pair_chunk", [None, 1 << 12])
def test_sparse_gather_equals_the_bincount_gather_bitwise(n, d, pair_chunk,
                                                          monkeypatch):
    # at the atoms, at points between neighbouring atoms (where mesh vertices
    # sit), at random points and at a point far off the lattice; a small
    # chunk size splits the points over many chunks
    if pair_chunk is not None:
        monkeypatch.setattr(mollifier, "_PAIR_CHUNK", pair_chunk)
    rng = np.random.default_rng(31 + n)
    V = random_varifold(rng, 60, n=n, d=d)
    kern = Mollifier(0.3, n)
    lattice = _Lattice(V, kern, QuadratureGrid.for_kernel(kern, 2))
    x = V.positions
    near = np.argsort(np.linalg.norm(x[:, None] - x[None], axis=2), axis=1)[:, 1]
    t = rng.uniform(0.2, 0.8, (len(x), 1))
    pts = np.vstack([x, (1.0 - t) * x + t * x[near],
                     rng.uniform(-1.5, 1.5, (40, n)), np.full((1, n), 1e3)])
    assert len(list(lattice._pairs(pts))) > (1 if pair_chunk else 0)
    h, J = curvature_with_jacobian(lattice, pts)
    h0, J0 = bincount_gather(lattice, pts)
    assert np.array_equal(h, h0) and np.array_equal(J, J0)
    assert np.any(h) and not np.any(h[-1]) and not np.any(J[-1])
    # an empty varifold: no nodes, so both gathers give zeros
    empty = DiscreteVarifold.from_arrays(np.zeros((0, n)), np.zeros((0, n, n)),
                                         np.zeros(0), d=d)
    lattice = _Lattice(empty, kern, QuadratureGrid.for_kernel(kern, 2))
    h, J = curvature_with_jacobian(lattice, pts)
    h0, J0 = bincount_gather(lattice, pts)
    assert np.array_equal(h, h0) and np.array_equal(J, J0) and not np.any(h)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
@pytest.mark.parametrize("pair_chunk", [None, 1 << 12])
def test_field_sums_equal_the_scatter_over_the_inside_pairs_bitwise(
        n, d, pair_chunk, monkeypatch):
    # the zeroed candidates beyond R add nothing: the fields equal a
    # bincount scatter over the pairs inside R alone, in the same order
    if pair_chunk is not None:
        monkeypatch.setattr(mollifier, "_PAIR_CHUNK", pair_chunk)
    _, lattice = field_lattice(33 + n, 60, n, d, 0.3)
    V = lattice.V
    K = len(lattice.nodes[1])
    mass, fvar = np.zeros(K), np.zeros((K, n))
    chunks = beyond = 0
    for part, rows, idx, diff, g, gp in lattice._pairs(V.positions):
        out = np.einsum("pi,pi->p", diff, diff) >= lattice.kernel.support_radius**2
        zeroed = np.concatenate([g[out], gp[out]])
        assert np.all(zeroed == 0.0) and not np.any(np.signbit(zeroed))
        chunks, beyond = chunks + 1, beyond + np.count_nonzero(out)
    # S_i diff through the rows B of the plane's orthonormal basis, as the
    # field sums take it
    bases = np.ascontiguousarray(np.transpose(V.bases, (0, 2, 1)))
    for part, rows, idx, diff, g, gp in inside_pairs(lattice, V.positions):
        m = V.masses[part][rows]
        mass += np.bincount(idx, weights=m * g, minlength=K)
        B = bases[part][rows]
        sd = np.einsum("pk,pkj->pj", np.einsum("pkj,pj->pk", B, diff), B)
        for axis in range(n):
            fvar[:, axis] += np.bincount(
                idx, weights=(2.0 * m * gp) * sd[:, axis], minlength=K)
    assert chunks > (1 if pair_chunk else 0) and beyond > 0
    assert np.array_equal(lattice.fields[0], mass)
    assert np.array_equal(lattice.fields[1], fvar)


def test_lone_atom_has_zero_curvature():
    V = DiscreteVarifold.from_arrays([[0.25, -0.4]], np.diag([1.0, 0.0]),
                                     [1.0], d=1)
    kern = Mollifier(0.2, 2)
    grid = QuadratureGrid.for_kernel(kern, 4)
    h = curvature(V, kern, grid, V.positions)
    assert np.all(np.abs(h) <= 1e-12)


def test_circle_curvature_points_inward_with_unit_magnitude():
    V = polygon_circle(100)
    kern = Mollifier(0.1, 2)
    grid = QuadratureGrid.for_kernel(kern, 2)
    h = curvature(V, kern, grid, V.positions)
    radial = V.positions / np.linalg.norm(V.positions, axis=1, keepdims=True)
    inward = -np.einsum("ai,ai->a", h, radial)
    assert np.all(inward > 0.0)
    mags = np.linalg.norm(h, axis=1)
    # exact circle curvature is 1; smoothing at eps = 0.1 biases it slightly
    assert np.all((mags > 0.85) & (mags < 1.05))
    # symmetry, up to the anisotropy of the coarse quadrature stencil
    assert float(mags.max() - mags.min()) < 1e-5


def test_curvature_equivariance():
    V = polygon_circle(64)
    kern = Mollifier(0.1, 2)
    grid = QuadratureGrid.for_kernel(kern, 2)
    probes = np.array([[1.0, 0.0], [0.95, 0.1], [0.7, 0.7]])
    h = curvature(V, kern, grid, probes)
    # translations: exact (the lattice is anchored at an atom)
    s = np.array([0.371, -1.2345])
    ht = curvature(V.transformed(shift=s), kern, grid, probes + s)
    assert np.allclose(ht, h, atol=1e-12)
    # quarter turn: exact, the lattice is invariant under it
    R = rotation2(math.pi / 2.0)
    hr = curvature(V.transformed(rotation=R), kern, grid, (R @ probes.T).T)
    assert np.allclose(hr, (R @ h.T).T, atol=1e-12)
    # generic rotation: equal up to the quadrature error of the rotated grid
    R = rotation2(0.31)
    hr = curvature(V.transformed(rotation=R), kern, grid, (R @ probes.T).T)
    assert np.allclose(hr, (R @ h.T).T, atol=1e-4)


def test_curvature_jacobian_by_finite_differences():
    V = polygon_circle(48)
    kern = Mollifier(0.15, 2)
    grid = QuadratureGrid.for_kernel(kern, 4)
    probes = np.array([[0.9, 0.05], [0.6, 0.6]])
    lattice = _Lattice(V, kern, grid)
    h, J = curvature_with_jacobian(lattice, probes)
    # a one-row batch evaluates exactly as the same point inside a batch
    for q, p in enumerate(probes):
        hq, Jq = curvature_with_jacobian(lattice, p[None])
        assert np.array_equal(hq, h[q:q + 1]) and np.array_equal(Jq, J[q:q + 1])
    e = 1e-6
    for q, p in enumerate(probes):
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = e
            fd = (curvature(V, kern, grid, (p + dp)[None])[0]
                  - curvature(V, kern, grid, (p - dp)[None])[0]) / (2 * e)
            assert np.allclose(J[q][:, j], fd, atol=5e-4)


def test_refining_the_stencil_converges_fast():
    V = polygon_circle(100)
    kern = Mollifier(0.1, 2)
    probes = np.array([[1.0, 0.0], [0.95, 0.1], [0.7, 0.7]])
    vals = {q: curvature(V, kern, QuadratureGrid.for_kernel(kern, q), probes)
            for q in (2, 4, 8)}
    d24 = float(np.max(np.abs(vals[2] - vals[4])))
    d48 = float(np.max(np.abs(vals[4] - vals[8])))
    assert d24 < 1e-4          # already 5-decimal agreement at the coarse grid
    assert d48 < d24 / 4.0     # and the refinement keeps paying off


# ---------------------------------------------------------------------------
# dissipation


def test_dissipation_identity_on_random_varifolds():
    # the exact pairing of the smoothed curvature with the varifold equals
    # minus the smoothed-field dissipation sum: the two are sums over the
    # same lattice nodes, so they agree to roundoff
    rng = np.random.default_rng(30)
    kern = Mollifier(0.15, 2)
    grid = QuadratureGrid.for_kernel(kern, 4)
    for _ in range(6):
        V = random_varifold(rng, int(rng.integers(5, 50)))
        D = dissipation(_Lattice(V, kern, grid))
        paired = first_variation(V, curvature_jacobians(V, kern, grid))
        assert D >= 0.0
        assert abs(paired + D) <= 1e-12 * max(1.0, D)


def test_dissipation_identity_on_circle():
    V = polygon_circle(100)
    kern = Mollifier(0.1, 2)
    grid = QuadratureGrid.for_kernel(kern, 2)
    D = dissipation(_Lattice(V, kern, grid))
    paired = first_variation(V, curvature_jacobians(V, kern, grid))
    assert abs(paired + D) <= 1e-12 * max(1.0, D)


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
@pytest.mark.parametrize("atoms", [1, 2])
def test_dissipation_identity_on_isolated_atoms(n, d, atoms):
    # a lone atom, and two atoms more than two support radii apart: the
    # pairing at each atom and the dissipation run over that atom's own
    # nodes only
    rng = np.random.default_rng(40 + 10 * n + atoms)
    kern = Mollifier(0.2, n)
    for refinement in (2, 3):
        grid = QuadratureGrid.for_kernel(kern, refinement)
        V = isolated_atoms(rng, atoms, n, d, kern, grid.spacing)
        D = dissipation(_Lattice(V, kern, grid))
        paired = first_variation(V, curvature_jacobians(V, kern, grid))
        assert D > 0.0
        assert abs(paired + D) <= 1e-12 * max(1.0, D)


def test_dissipation_guards():
    # an empty varifold: its lattice has no nodes, so the curvature, its
    # Jacobian and the dissipation all vanish
    kern = Mollifier(0.2, 2)
    empty = DiscreteVarifold.from_arrays(
        np.zeros((0, 2)), np.zeros((0, 2, 2)), np.zeros(0), d=1)
    lattice = _Lattice(empty, kern, QuadratureGrid.for_kernel(kern, 2))
    assert lattice.nodes[1].shape == (0, 2)
    h, J = curvature_with_jacobian(lattice, np.array([[0.0, 0.0], [0.3, -1.0]]))
    assert h.shape == (2, 2) and J.shape == (2, 2, 2)
    assert not np.any(h) and not np.any(J)
    assert dissipation(lattice) == 0.0
