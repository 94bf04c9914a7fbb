"""Distance tests: closed forms, brute-force and all-pairs oracles, the
feasibility re-check, and metric axioms."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from varimcf import config, metrics
from varimcf.cli import (_frame_header, _load_table, _measure_header,
                         _save_table, main)
from varimcf.config import LP_LIPSCHITZ
from varimcf.errors import ConfigError, VarimcfError
from varimcf.flow import FlowConfig, run, sample
from varimcf.metrics import (_BLOCK, _SEED_NEIGHBOURS, DiscreteMeasure,
                             _block_gaps, _gaps, _seed_pairs, _union_support,
                             _worst_partners, bounded_lipschitz)
from varimcf.varifold import DiscreteVarifold


def dirac(x, w=1.0):
    return DiscreteMeasure(np.atleast_2d(np.asarray(x, float)), np.array([w]))


def brute_force_two_point(coef, gap, steps=401):
    """Grid search over test values for a two-point support."""
    grid = np.linspace(-1.0, 1.0, steps)
    best = -np.inf
    for a, b in itertools.product(grid, grid):
        if abs(a - b) <= gap + 1e-12:
            best = max(best, coef[0] * a + coef[1] * b)
    return best


@pytest.mark.parametrize("gap,expect", [(0.5, 0.5), (1.0, 1.0), (5.0, 2.0)])
def test_unit_dirac_pair_closed_form(gap, expect):
    mu = dirac([0.0])
    nu = dirac([gap])
    res = bounded_lipschitz(mu, nu)
    assert res.distance == pytest.approx(expect, abs=1e-9)
    # brute-force oracle over a discretized test-function space
    oracle = brute_force_two_point(np.array([-1.0, 1.0]), gap)
    assert res.distance == pytest.approx(oracle, abs=2e-2)


def test_weighted_dirac_pair_against_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w1, w2 = rng.uniform(0.1, 2.0, 2)
        gap = rng.uniform(0.05, 4.0)
        res = bounded_lipschitz(dirac([0.0], w1), dirac([gap], w2))
        oracle = brute_force_two_point(np.array([-w1, w2]), gap)
        assert res.distance == pytest.approx(oracle, abs=2e-2)


def test_identical_measures_give_zero():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(7, 3))
    w = rng.uniform(0.1, 1.0, 7)
    mu = DiscreteMeasure(pts, w)
    assert bounded_lipschitz(mu, mu).distance == pytest.approx(0.0, abs=1e-12)


def test_same_point_masses_differ_by_total_variation():
    res = bounded_lipschitz(dirac([0.3, -1.0], 0.75), dirac([0.3, -1.0], 0.5))
    assert res.distance == pytest.approx(0.25, abs=1e-9)


def test_far_mass_saturates_test_function():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.0, 1.0, size=(5, 2))
    w = rng.uniform(0.2, 1.0, 5)
    mu = DiscreteMeasure(pts, w)
    m = 0.037
    nu = DiscreteMeasure(np.vstack([pts, [[10.0, 10.0]]]), np.append(w, m))
    res = bounded_lipschitz(mu, nu)
    assert res.distance == pytest.approx(m, abs=1e-9)


def test_symmetry_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(5):
        mu = DiscreteMeasure(rng.normal(size=(6, 2)), rng.uniform(0.1, 1.0, 6))
        nu = DiscreteMeasure(rng.normal(size=(4, 2)), rng.uniform(0.1, 1.0, 4))
        a = bounded_lipschitz(mu, nu).distance
        b = bounded_lipschitz(nu, mu).distance
        assert a == pytest.approx(b, abs=1e-8)


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(4)
    for _ in range(10):
        ms = [DiscreteMeasure(rng.normal(size=(5, 2)), rng.uniform(0.1, 1.0, 5))
              for _ in range(3)]
        ab = bounded_lipschitz(ms[0], ms[1]).distance
        bc = bounded_lipschitz(ms[1], ms[2]).distance
        ac = bounded_lipschitz(ms[0], ms[2]).distance
        assert ac <= ab + bc + 1e-8


def test_homogeneous_in_mass():
    rng = np.random.default_rng(6)
    pts_a, pts_b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    wa, wb = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 3)
    base = bounded_lipschitz(DiscreteMeasure(pts_a, wa),
                             DiscreteMeasure(pts_b, wb)).distance
    scaled = bounded_lipschitz(DiscreteMeasure(pts_a, 3.0 * wa),
                               DiscreteMeasure(pts_b, 3.0 * wb)).distance
    assert scaled == pytest.approx(3.0 * base, rel=1e-8)


def test_exact_duplicates_are_merged():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    mu = DiscreteMeasure(pts, np.array([0.25, 0.25, 0.5]))
    nu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                         np.array([0.5, 0.5]))
    res = bounded_lipschitz(mu, nu)
    assert res.distance == pytest.approx(0.0, abs=1e-12)
    assert len(res.points) == 2


def test_scalar_support_promotes_to_column():
    mu = DiscreteMeasure(np.array([0.5, 1.0, 5.0]), np.ones(3))
    nu = DiscreteMeasure(np.array([0.5, 1.0, 2.0]), np.ones(3))
    res = bounded_lipschitz(mu, nu)
    assert mu.points.shape == (3, 1)
    assert res.distance == pytest.approx(2.0, abs=1e-9)


def test_support_cap_enforced(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_SUPPORT_CAP", 50)
    rng = np.random.default_rng(7)
    mu = DiscreteMeasure(rng.normal(size=(30, 2)), np.ones(30))
    nu = DiscreteMeasure(rng.normal(size=(30, 2)), np.ones(30))
    with pytest.raises(VarimcfError,
                       match="union support has 60 points, cap is 50"):
        bounded_lipschitz(mu, nu)


def test_measure_validation():
    with pytest.raises(ConfigError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, -0.1]))
    with pytest.raises(ConfigError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0]))
    with pytest.raises(ConfigError):
        bounded_lipschitz(DiscreteMeasure(np.zeros((1, 2)), np.ones(1)),
                          DiscreteMeasure(np.zeros((1, 3)), np.ones(1)))


def test_certificate_feasibility_check_rejects_corrupt_phi(monkeypatch):
    # a solver that breaks its own rows: the final scan re-checks its answer
    mu, nu = dirac([0.0, 0.0]), dirac([0.1, 0.0])
    for phi, message in (([1.5, 0.0], "violates the box constraint"),
                         ([1.0, -1.0], "violates a Lipschitz constraint")):
        monkeypatch.setattr(metrics, "_solve",
                            lambda *args, phi=phi: np.array(phi))
        with pytest.raises(VarimcfError, match=message):
            bounded_lipschitz(mu, nu)


@pytest.mark.parametrize("k,l", [(255, 256), (298, 299), (0, 299)],
                         ids=["across-blocks", "last-rows", "first-and-last"])
def test_feasibility_check_finds_one_broken_pair(k, l):
    # 300 points span two blocks of the chunked scan; 3 apart, no test
    # value in the box breaks their Lipschitz constraints but the moved one's
    rng = np.random.default_rng(10)
    pts = np.column_stack([3.0 * np.arange(300), np.zeros(300)])
    pts[l] = pts[k] + [0.0, 0.1]
    phi = rng.uniform(-1.0, 1.0, 300)
    phi[k] = 1.0
    phi[l] = 0.95
    assert _worst_partners(pts, phi)[0].max() <= LP_LIPSCHITZ
    phi[l] = -1.0
    excess, partner = _worst_partners(pts, phi)
    assert np.flatnonzero(excess > LP_LIPSCHITZ).tolist() == [k, l]
    assert (partner[k], partner[l]) == (l, k)


def test_feasibility_check_at_the_support_cap_stays_small():
    # the full K x K x n difference array would be 96 MB
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, (2000, 3))
    phi = 0.5 * np.clip(pts[:, 0], -1.0, 1.0)
    tracemalloc.start()
    try:
        _worst_partners(pts, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n", [2, 3])
def test_rows_and_scans_measure_a_pair_alike(n):
    # the stopping argument compares a row's bound with the scan's gap for
    # the same pair: they must be the same double
    rng = np.random.default_rng(12 + n)
    pts = rng.normal(size=(300, n)) * rng.uniform(0.01, 100.0, (300, 1))
    i, j = np.triu_indices(len(pts), 1)
    scans = np.vstack([_block_gaps(pts, start)
                       for start in range(0, len(pts), _BLOCK)])
    rows = _gaps(pts[i] - pts[j])
    assert np.array_equal(rows, scans[i, j])
    assert np.array_equal(rows, scans[j, i])


def test_scans_hold_one_row_block_at_a_time(monkeypatch):
    shapes = []

    def recording(a, b, *args, **kwargs):
        out = cdist(a, b, *args, **kwargs)
        shapes.append(out.shape)
        return out
    monkeypatch.setattr(metrics, "cdist", recording)
    rng = np.random.default_rng(13)
    mu = DiscreteMeasure(rng.normal(size=(300, 2)), rng.uniform(size=300))
    nu = DiscreteMeasure(rng.normal(size=(300, 2)), rng.uniform(size=300))
    res = bounded_lipschitz(mu, nu)
    K = len(res.points)
    assert K > 2 * _BLOCK
    # the seed and each round's scan, the last of which is the re-check,
    # each sweep all K rows
    blocks = -(-K // _BLOCK)
    assert len(shapes) == blocks * (res.rounds + 1)
    assert max(rows for rows, _ in shapes) == _BLOCK
    assert all(cols == K for _, cols in shapes)


def test_measure_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    mu = DiscreteMeasure(rng.normal(size=(6, 3)), rng.uniform(0.1, 1.0, 6))
    path = tmp_path / "mu.csv"
    _save_table(path, _measure_header(4),
                np.column_stack([mu.points, mu.weights]))
    rows = _load_table(path, _measure_header)
    back = DiscreteMeasure(rows[:, :-1], rows[:, -1])
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


# ---------------------------------------------------------------------------
# the all-pairs program as an oracle


def all_pairs_lp(mu, nu):
    """Optimum of the full program: a Lipschitz row pair for every pair of
    support points, solved at once."""
    pts, coef = _union_support(mu, nu)
    K = len(pts)
    rows_i, rows_j = np.triu_indices(K, 1)
    P = len(rows_i)
    A = b = None
    if P:
        gaps = np.linalg.norm(pts[rows_i] - pts[rows_j], axis=1)
        data = np.concatenate([np.ones(P), -np.ones(P), -np.ones(P), np.ones(P)])
        rr = np.concatenate([np.arange(P), np.arange(P),
                             np.arange(P, 2 * P), np.arange(P, 2 * P)])
        cc = np.concatenate([rows_i, rows_j, rows_i, rows_j])
        A = sparse.coo_matrix((data, (rr, cc)), shape=(2 * P, K)).tocsr()
        b = np.concatenate([gaps, gaps])
    res = linprog(-coef, A_ub=A, b_ub=b, bounds=[(-1.0, 1.0)] * K,
                  method="highs")
    assert res.success, res.message
    return max(float(np.dot(coef, res.x)), 0.0)


def assert_one_pair_per_point_per_round(mu, nu, res):
    """Each round after the first adds at most one pair per support point."""
    pts, coef = _union_support(mu, nu)
    K = len(pts)
    if res.rounds:
        seed = len(_seed_pairs(pts, coef, min(_SEED_NEIGHBOURS, K - 1)))
        assert res.rows <= seed + K * (res.rounds - 1)


def assert_matches_oracle(mu, nu):
    res = bounded_lipschitz(mu, nu)
    assert res.distance == pytest.approx(all_pairs_lp(mu, nu), rel=1e-12,
                                         abs=0.0)
    K = len(res.points)
    assert res.rows <= K * (K - 1) // 2
    assert_one_pair_per_point_per_round(mu, nu, res)
    return res


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_the_all_pairs_program(n, seed):
    rng = np.random.default_rng(100 * n + seed)
    a = rng.normal(size=(60, n))
    b = rng.normal(size=(50, n))
    b[:10] = a[:10]                  # shared points merge across measures
    a[20:25] = a[15:20]              # and within one
    b[40:] += 5.0                    # a cluster more than 2 away
    mu = DiscreteMeasure(a, rng.uniform(0.1, 1.0, 60))
    nu = DiscreteMeasure(b, rng.uniform(0.1, 1.0, 50))
    res = assert_matches_oracle(mu, nu)
    assert res.status == "optimal"
    assert len(res.points) == 60 + 50 - 15
    assert res.rounds >= 1


def test_seed_joins_each_point_to_its_nearest_point_of_opposite_sign(
        concentric_measures):
    rng = np.random.default_rng(14)
    cases = [_union_support(mu, nu) for mu, nu in concentric_measures]
    # uneven weights on shared points leave some coefficients zero
    pts = rng.normal(size=(300, 3))
    cases.append((pts, rng.choice([-1.0, 0.0, 0.5], 300)))
    for pts, coef in cases:
        K = len(pts)
        codes = set(_seed_pairs(pts, coef, _SEED_NEIGHBOURS).tolist())
        gaps = cdist(pts, pts)
        for k in np.flatnonzero(coef):
            opposite = np.flatnonzero(coef * coef[k] < 0.0)
            if opposite.size:
                l = opposite[gaps[k, opposite].argmin()]
                assert min(k, l) * K + max(k, l) in codes


@pytest.mark.parametrize("same", [False, True],
                         ids=["one-measure-weightless", "identical-measures"])
def test_sign_degenerate_measures_match_the_all_pairs_program(same):
    # every coefficient of one sign, or every coefficient zero: no point has
    # a partner of opposite sign
    rng = np.random.default_rng(15)
    mu = DiscreteMeasure(rng.normal(size=(80, 2)), np.zeros(80))
    nu = DiscreteMeasure(rng.normal(size=(70, 2)), rng.uniform(size=70))
    if same:
        mu = nu
    assert assert_matches_oracle(mu, nu).status == "optimal"


@pytest.mark.parametrize("mu,nu", [
    (dirac([0.2, 0.4], 0.3), dirac([0.2, 0.4], 1.1)),
    (dirac([0.2, 0.4], 0.3), dirac([0.2, 0.9], 1.1)),
    (dirac([0.2, 0.4], 0.7), dirac([3.0, 0.4], 0.7)),
], ids=["one-point", "two-points", "two-far-points"])
def test_smallest_supports_match_the_all_pairs_program(mu, nu):
    assert_matches_oracle(mu, nu)


def random_sweep(count):
    """The first `count` random measure pairs of one seeded sweep, each with
    50-300 normal points in 1-3 dimensions."""
    rng = np.random.default_rng(42)
    for _ in range(count):
        dim, k = int(rng.integers(1, 4)), int(rng.integers(50, 301))
        mu = DiscreteMeasure(rng.normal(size=(k, dim)), rng.uniform(size=k))
        nu = DiscreteMeasure(rng.normal(size=(k, dim)), rng.uniform(size=k))
        yield dim, mu, nu


def test_solution_passes_the_feasibility_recheck():
    # the 52nd pair of this sweep: at HiGHS's default primal feasibility
    # tolerance (1e-7) its optimum broke a Lipschitz row by more than the
    # 1e-9 slack of the re-check, and the call raised its VarimcfError
    *_, (dim, mu, nu) = random_sweep(52)
    assert (dim, len(mu)) == (2, 64)
    assert_matches_oracle(mu, nu)


def test_one_dimensional_pairs_end_in_two_rounds():
    # a scan for excess above 0 rather than above the solver's tolerance
    # chased pairs broken by less than 1e-10 and took up to 20 rounds here
    pairs = [(mu, nu) for dim, mu, nu in random_sweep(40) if dim == 1]
    assert len(pairs) == 7
    for mu, nu in pairs:
        res = bounded_lipschitz(mu, nu)
        assert res.rounds <= 2
        assert_one_pair_per_point_per_round(mu, nu, res)


@pytest.fixture(scope="module")
def concentric_measures(tmp_path_factory):
    """First and final mass measures of each flow of a recorded
    two-concentric-circles run."""
    out = tmp_path_factory.mktemp("metrics") / "concentric"
    assert main(["simulate", "--preset", "two-concentric-circles",
                 "--out", str(out), "--end-time", "0.06"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    pairs = []
    for record in manifest["traces"]:
        ends = [_load_table(out / record["frames"][i], _frame_header(2))
                for i in (0, -1)]
        pairs.append([DiscreteMeasure(t[:, :2], t[:, 6]) for t in ends])
    return pairs


def test_recorded_concentric_measures_match_the_all_pairs_program(
        concentric_measures):
    results = [assert_matches_oracle(mu, nu) for mu, nu in concentric_measures]
    # the flow moves atoms farther than their spacing: the pairs that bind
    # join each point to its nearest point of opposite sign, all in the seed
    assert [r.rounds for r in results] == [1, 1]


# ---------------------------------------------------------------------------
# flow stability


def polygon_circle(N, r=1.0, jitter=None):
    th = (np.arange(N) + 0.5) / N * 2.0 * math.pi
    pos = np.stack([r * np.cos(th), r * np.sin(th)], 1)
    if jitter is not None:
        pos = pos + jitter
    tang = np.stack([-np.sin(th), np.cos(th)], 1)
    P = np.einsum("ai,aj->aij", tang, tang)
    m = np.full(N, 2.0 * math.pi * r / N)
    return DiscreteVarifold.from_arrays(pos, P, m, d=1)


def small_config(dt):
    return FlowConfig(eps=0.1, dt=dt, end_time=0.02)


def distance_at(trace_a, trace_b, t):
    """Bounded-Lipschitz distance of the two flows' mass measures at t."""
    mu, nu = (DiscreteMeasure.from_varifold(sample(tr, t, "piecewise"))
              for tr in (trace_a, trace_b))
    return bounded_lipschitz(mu, nu).distance


def test_stability_distance_shrinks_with_step():
    V0 = polygon_circle(48)
    fine = run(V0, small_config(5e-4))
    mid = run(V0, small_config(2e-3))
    coarse = run(V0, small_config(4e-3))
    d_coarse = distance_at(coarse, fine, 0.02)
    d_mid = distance_at(mid, fine, 0.02)
    assert d_mid < d_coarse
    assert d_coarse < 0.05


def test_stability_jittered_start_stays_comparable():
    rng = np.random.default_rng(9)
    V0 = polygon_circle(48)
    W0 = polygon_circle(48, jitter=1e-3 * rng.normal(size=(48, 2)))
    a = run(V0, small_config(2e-3))
    b = run(W0, small_config(2e-3))
    initial = distance_at(a, b, 0.0)
    assert initial > 0.0
    # fixed eps: the terminal distance stays a bounded multiple of the
    # initial one (the exponential in the bound is benign at this horizon)
    assert distance_at(a, b, 0.02) <= 10.0 * initial


