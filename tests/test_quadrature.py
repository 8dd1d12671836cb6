import math

import numpy as np
import pytest

from hplap import closedform as cf
from hplap import quadrature
from hplap.algebra import make_quaternionic, norm_d, resolve_group
from hplap.quadrature import (
    _SLICE,
    REPLICATES,
    _sphere,
    Sampler,
    dyadic_edges,
    grid_integral_1d,
    mc_region_multi,
)
from hplap.verify import SuiteConfig, verify_moments
from conftest import params_for


def zsq(Z, T):
    return np.einsum("ni,ni->n", Z, Z)


def one(Z, T):
    return np.ones(len(Z))


def ball_integral(alg, params, f, n, seed):
    """(value, stderr) of the integral of f over the unit gauge ball."""
    vals, cov = mc_region_multi(Sampler(alg, params, seed), lambda Z, T: [f(Z, T)], 1, n)
    return float(vals[0]), math.sqrt(cov[0, 0])


def dilated(params, f, lam):
    """f(delta_lam .): the unit-ball integral of it is lam^{-Q} times the
    integral of f over the ball d < lam."""
    return lambda Z, T: f(lam * Z, lam ** (2.0 * params.k) * T)


def test_grid_integral_polynomial():
    assert grid_integral_1d(lambda x: x**2, np.linspace(0.0, 1.0, 9)) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_grid_integral_odd_function():
    assert abs(grid_integral_1d(lambda x: x**3 - 4.0 * x, np.linspace(-1.0, 1.0, 17))) < 1e-14


def test_grid_integral_smooth_accuracy():
    got = grid_integral_1d(lambda x: np.exp(-x) * np.sin(3.0 * x), np.linspace(0.0, 5.0, 65))
    want = (3.0 - math.exp(-5.0) * (math.sin(15.0) * 1.0 + 3.0 * math.cos(15.0))) / 10.0
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("gamma", [1.3, 1.5, 2.5, 4.5])
def test_grid_integral_endpoint_power_on_one_panel(gamma):
    # the quintic substitution turns x^gamma at a panel end into
    # t^{3 gamma + 2} times a smooth factor: one panel of 32 nodes is exact
    # to round-off
    assert grid_integral_1d(lambda x: x**gamma, [0.0, 1.0]) == pytest.approx(1.0 / (gamma + 1.0), rel=1e-14, abs=0.0)


def test_grid_integral_batched_profile():
    # a (3, N) profile gives the three scalar integrals on the same nodes
    fs = [lambda x: x**2, lambda x: np.exp(-x) * np.sin(3.0 * x), lambda x: np.abs(x - 0.3) ** 1.5]
    edges = np.linspace(0.0, 2.0, 17)
    got = grid_integral_1d(lambda x: np.stack([f(x) for f in fs]), edges)
    assert got.shape == (3,)
    for g, f in zip(got, fs):
        assert g == pytest.approx(grid_integral_1d(f, edges), rel=1e-15, abs=1e-15)


def test_grid_integral_rejects_bad_interval():
    for edges in ([1.0, 1.0], [0.0, 2.0, 1.0], [1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            grid_integral_1d(lambda x: x, edges)


@pytest.mark.parametrize("k,p", [(1.0, 2.0), (1.5, 2.5), (2.0, 3.0)])
def test_radial_tail_integral_identity(k, p, heis1):
    # int_0^inf r^{-4k-1} (1 + r^{-4k})^{-(4kp-p+Q)/(4k)} dr
    #   = 1/(4kp - 4k + Q - p)
    params = params_for(heis1, k=k, p=p)
    Q = params.Q
    expo = (4.0 * k * p - p + Q) / (4.0 * k)

    def integrand(r):
        return r ** (-4.0 * k - 1.0) * (1.0 + r ** (-4.0 * k)) ** (-expo)

    val = grid_integral_1d(integrand, np.concatenate([np.linspace(1e-6, 1.0, 129), np.linspace(1.0, 2000.0, 257)[1:]]))
    want = 1.0 / (4.0 * k * p - 4.0 * k + Q - p)
    assert val == pytest.approx(want, rel=1e-6)


def test_mc_ball_volume_heisenberg(heis1):
    params = params_for(heis1, k=1.0)
    value, stderr = ball_integral(heis1, params, one, 400_000, seed=11)
    assert abs(value - math.pi**2 / 8.0) <= 3.0 * stderr
    assert stderr < 5e-3


def test_mc_ball_moment_gamma2(heis1):
    params = params_for(heis1, k=1.0)
    value, stderr = ball_integral(heis1, params, zsq, 400_000, seed=12)
    assert abs(value - cf.ball_moment(params, 2.0)) <= 3.0 * stderr


def test_mc_ball_homogeneous_scaling(heis1):
    # for f homogeneous of degree gamma, the d < R integral, R^Q times the
    # unit-ball integral of f(delta_R .), scales like R^{Q + gamma}
    params = params_for(heis1, k=1.0)
    R = 2.0
    v1, se1 = ball_integral(heis1, params, zsq, 300_000, seed=13)
    v2, se2 = ball_integral(heis1, params, dilated(params, zsq, R), 300_000, seed=14)
    ratio = R**params.Q * v2 / v1
    se = ratio * (se1 / v1 + se2 / v2)
    assert abs(ratio - R ** (params.Q + 2.0)) <= 3.0 * se


def test_seed_determinism(heis1):
    params = params_for(heis1, k=1.0)
    a = ball_integral(heis1, params, zsq, 50_000, seed=77)
    b = ball_integral(heis1, params, zsq, 50_000, seed=77)
    assert a == b  # bit-identical (value, stderr)
    c = ball_integral(heis1, params, zsq, 50_000, seed=78)
    assert c[0] != a[0]


def test_stderr_falls_faster_than_inverse_sqrt_n(heis1):
    # randomized Halton through the shell map: quadrupling n divides the
    # stderr by about 3.5 (n^{-0.91}), more than the n^{-3/4} (2.83) that
    # the jump at the ball's boundary allowed rejection from a box, and
    # less than n^{-1} (4)
    params = params_for(heis1, k=1.0)
    ratios = []
    for rep in range(10):
        _, se_a = ball_integral(heis1, params, zsq, 20_000, seed=100 + rep)
        _, se_b = ball_integral(heis1, params, zsq, 80_000, seed=200 + rep)
        ratios.append(se_a / se_b)
    assert 3.0 <= np.mean(ratios) <= 4.0


def test_statistical_coverage(heis1):
    # over 50 seeds the closed form lies within 2 stderr in >= 45 runs
    params = params_for(heis1, k=1.0)
    want = cf.ball_moment(params, 2.0)
    hits = 0
    for seed in range(50):
        value, stderr = ball_integral(heis1, params, zsq, 20_000, seed=seed)
        hits += abs(value - want) <= 2.0 * stderr
    assert hits >= 45


def test_dilation_covariance(heis1):
    # the integral of f = |z|^2 e^{-d} over d < lam is lam^Q times the
    # unit-ball integral of f(delta_lam .), and equals its polar reduction
    # (Q + 2) int_{B_1} |z|^2 * int_0^lam r^{Q+1} e^{-r} dr
    params = params_for(heis1, k=1.0)
    Q, lam = params.Q, 2.0

    def f(Z, T):
        return zsq(Z, T) * np.exp(-norm_d(params, (Z, T)))

    a, se = ball_integral(heis1, params, dilated(params, f, lam), 400_000, seed=21)
    want = (Q + 2.0) * cf.ball_moment(params, 2.0) * grid_integral_1d(lambda r: r ** (Q + 1.0) * np.exp(-r), [0.0, lam])
    assert abs(lam**Q * a - want) <= 3.0 * lam**Q * se


def test_dyadic_edges_past_the_overflow_of_r1_over_r0():
    # r1 / r0 overflows to inf for both inner edges; the octaves are
    # counted from the logarithms instead, and each edge doubles the last
    for r0, octaves in ((2.0**-1025, 1025), (5e-324, 1074)):
        edges = dyadic_edges(r0, 1.0)
        assert len(edges) == octaves + 1 and edges[0] == r0 and edges[-1] == 1.0
        assert np.all(edges[1:-1] == 2.0 * edges[:-2]) and edges[-2] == 0.5
    np.testing.assert_array_equal(dyadic_edges(0.5, 3.0), [0.5, 1.0, 2.0, 3.0])


def test_mc_region_multi_matches_one_draw_reference(heis1, monkeypatch):
    # the reduction in slices that span replicates and in chunks of whole
    # replicates equals the two-pass replicate estimate over one draw of
    # all N = max(64, ceil(rho n)) points, replicate r one contiguous block
    # of N // 64 + (r < N % 64) points; at the small budget each replicate
    # holds only a few points; replicates=True returns those estimates.
    # Every draw holds whole replicates, in order, and at most _CHUNK
    # coordinates (points x (m + q)) unless it is one larger replicate
    params = params_for(heis1, k=1.0)
    nf = 40
    dim = heis1.m + heis1.q
    slices, draws = [], []
    draw, full = Sampler.draw, quadrature._CHUNK

    def recorded_draw(self, n, shifts=None):
        draws.append((n, len(shifts)))
        return draw(self, n, shifts)

    def multi(Z, T):
        slices.append(len(Z))
        d = norm_d(params, (Z, T))
        return np.stack([np.exp(-j * d / 4.0) * (1.0 + Z[:, 0] ** 2) ** (j % 3) for j in range(nf)])

    sampler = Sampler(heis1, params, 21, spawn_key=(1,))
    rho = cf.ball_moment(params, 0.0) / 2.0 ** (heis1.m - heis1.q)
    for n in (20_000, 3 * REPLICATES + 5):
        N = max(REPLICATES, math.ceil(rho * n))
        Z, T, mask = sampler.draw(N)
        assert mask.all() and len(Z) == N
        vals = multi(Z, T) * sampler.weights(Z)
        sizes = N // REPLICATES + (np.arange(REPLICATES) < N % REPLICATES)
        est = np.stack([b.mean(axis=1) for b in np.split(vals, np.cumsum(sizes)[:-1], axis=1)])
        ref_cov = np.cov(est.T) / REPLICATES
        # one chunk, then three replicates per chunk, then many chunks and slices of 8 points
        for chunk, slice_, chunks in ((full, _SLICE, 1), (3 * int(sizes[0]) * dim, _SLICE, -(-REPLICATES // 3)),
                                      (100 * dim, 8 * nf, None)):
            monkeypatch.setattr(quadrature, "_CHUNK", chunk)
            monkeypatch.setattr(quadrature, "_SLICE", slice_)
            monkeypatch.setattr(Sampler, "draw", recorded_draw)
            slices.clear()
            draws.clear()
            got, cov = mc_region_multi(sampler, multi, nf, n)
            monkeypatch.setattr(Sampler, "draw", draw)
            assert max(slices) <= slice_ // nf and sum(slices) == N
            counts = [R for _, R in draws]
            assert sum(counts) == REPLICATES
            assert len(draws) == chunks if chunks else len(draws) > 1
            for (m, R), r0 in zip(draws, np.cumsum(counts) - counts):
                assert m == sizes[r0 : r0 + R].sum()
                assert m * dim <= chunk or R == 1
            assert len(slices) > 1 or (n < 1000 and slice_ == _SLICE)
            np.testing.assert_allclose(got, est.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(cov, ref_cov, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref_cov)))
            # the replicate estimates themselves, on request
            np.testing.assert_allclose(mc_region_multi(sampler, multi, nf, n, replicates=True), est, rtol=1e-12)


def test_variance_survives_large_constant_offset(heis1, monkeypatch):
    # with every point of the unit ball weighted alike (so 1e8 shifts each
    # replicate estimate by the same constant), adding 1e8 to the integrand
    # leaves its variance unchanged; a one-pass s2/n - mean^2 over the
    # points loses every digit of it to cancellation
    params = params_for(heis1, k=1.0)
    monkeypatch.setattr(Sampler, "weights", lambda self, Z: np.ones(len(Z)))
    sampler = Sampler(heis1, params, 8)
    _, cov = mc_region_multi(sampler, lambda Z, T: np.stack([1e8 + zsq(Z, T), zsq(Z, T)]), 2, 100_000)
    assert cov[1, 1] > 0.0
    assert cov[0, 0] == pytest.approx(cov[1, 1], rel=1e-3)


def test_halton_points_and_replicate_layout(heis1):
    # radical inverses in bases 2, 3, 5; replicate r of a draw holds the
    # first n // R + (r < n % R) points shifted by its shift mod 1, mapped
    # into the ball: on heisenberg:1, z = sqrt(u0) (cos, sin)(2 pi u1)
    # and t = (2 u2 - 1) b, b = sqrt(1 - |z|^4) / 4
    H = quadrature._halton(6, 3)
    np.testing.assert_allclose(H[:, 0], [0, 1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8], rtol=1e-15)
    np.testing.assert_allclose(H[:, 1], [0, 1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9], rtol=1e-15)
    np.testing.assert_allclose(H[:, 2], [0, 1 / 5, 2 / 5, 3 / 5, 4 / 5, 1 / 25], rtol=1e-15)
    assert quadrature._primes(7) == (2, 3, 5, 7, 11, 13, 17)
    params = params_for(heis1, k=1.0)
    sampler = Sampler(heis1, params, 3)
    shifts = sampler.shifts()
    assert shifts.shape == (REPLICATES, 3)
    n = 5 * REPLICATES + 7
    Z, T, mask = sampler.draw(n)
    assert Z.shape == (n, 2) and T.shape == (n, 1) and mask.all()
    start = 0
    for r in range(REPLICATES):
        size = 5 + (r < 7)
        u = (H[:size] + shifts[r]) % 1.0
        rz = np.sqrt(u[:, 0])
        b = np.sqrt(1.0 - rz**4) / 4.0
        v = 2.0 * u[:, 2] - 1.0
        angle = 2.0 * np.pi * u[:, 1]
        block = slice(start, start + size)
        circle = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        np.testing.assert_allclose(Z[block], rz[:, None] * circle, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(T[block, 0], v * b, rtol=1e-12)
        start += size


def test_ball_moment_z_calibrated():
    # over 60 fixed seeds the replicate error bars are honest: the z of
    # every ball moment has sd near 1 and at most one |z| > 3
    z = {}
    for seed in range(60):
        for c in verify_moments(SuiteConfig(n_samples=20_000, seed=seed)).checks:
            if c.check_id.startswith("ball-moment-"):
                z.setdefault(c.check_id, []).append((c.observed - c.target) / c.stderr)
    assert sorted(z) == ["ball-moment-0", "ball-moment-1", "ball-moment-2"]
    for zs in z.values():
        assert 0.8 <= np.std(zs, ddof=1) <= 1.25
        assert np.sum(np.abs(zs) > 3.0) <= 1


def test_small_budget_still_fills_every_replicate():
    # quaternionic:2 fills 0.19% of the unit ball's bounding box, so a
    # budget of 10,000 buys ceil(19.4) points; the region draws one per
    # replicate instead, every one in the ball, and the moments keep
    # honest error bars
    cfg = SuiteConfig(group="quaternionic:2", n_samples=10_000, seed=1)
    alg = cfg.algebra()
    params = cfg.params(alg)
    sampler = Sampler(alg, params, cfg.seed)
    points = []

    def ones(Z, T):
        points.append(len(Z))
        return [np.ones(len(Z))]

    mc_region_multi(sampler, ones, 1, cfg.n_samples)
    assert sum(points) == REPLICATES
    Z, T, mask = sampler.draw(REPLICATES)
    assert mask.all() and np.all(norm_d(params, (Z, T)) < 1.0)
    for c in verify_moments(cfg).checks:
        assert c.passed and (c.stderr > 0.0 or c.kind != "stochastic")


def test_sampler_stream_reproducible(heis1):
    params = params_for(heis1, k=1.0)
    s1 = Sampler(heis1, params, seed=42, spawn_key=(3,))
    s2 = Sampler(heis1, params, seed=42, spawn_key=(3,))
    Z1, T1, m1 = s1.draw(1000)
    Z2, T2, m2 = s2.draw(1000)
    assert np.array_equal(Z1, Z2) and np.array_equal(T1, T2) and np.array_equal(m1, m2)
    s3 = Sampler(heis1, params, seed=42, spawn_key=(4,))
    assert not np.array_equal(s3.draw(1000)[0], Z1)


def test_ball_sampler_excludes_center_tube(heis1):
    # a zero shift of the z coordinates puts the first point of every
    # replicate at radius coordinate u = 0, where |z| is floored at the tube
    # radius 1e-12 instead of reaching 0
    params = params_for(heis1, k=1.0)
    s = Sampler(heis1, params, seed=0)
    Z, T, mask = s.draw(10_000, np.tile([0.0, 0.0, 0.25], (REPLICATES, 1)))
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    assert mask.all() and np.all(zn >= 1e-12 * (1.0 - 1e-12)) and zn.min() <= 1e-12 * (1.0 + 1e-12)
    d = norm_d(params, (Z, T))
    assert np.all(d < 1.0)


@pytest.fixture(scope="module")
def map_groups(tmp_path_factory):
    # (algebra, k): the map's coordinate cases S^1 x S^0, S^5 x S^0,
    # S^3 x S^2 (Newton at n = 1) and S^3 x S^1; the custom m = 4, q = 2
    # group takes the quaternion units i and j as its J maps
    path = tmp_path_factory.mktemp("groups") / "J.txt"
    blocks = ("\n".join(" ".join(f"{x:g}" for x in row) for row in J) for J in make_quaternionic(1).J[:2])
    path.write_text("\n\n".join(blocks))
    return [(resolve_group("heisenberg:1"), 1.0), (resolve_group("heisenberg:3"), 1.5),
            (resolve_group("quaternionic:1"), 2.0), (resolve_group(f"custom:{path}"), 1.0)]


#: (r0, r1) of the shells r0 <= d < r1 that the map tests reach by dilating the unit ball
_MAP_SHELLS = ((0.0, 1.0), (0.5, 1.0), (1.0, 2.0), (0.125, 0.25))


def test_map_points_lie_in_their_shell(map_groups):
    # every point lies in the unit ball off the center tube, and so does
    # every point dilated into the ball d < 2^-49, far below the |z|
    # floor's scale
    assert [(alg.m, alg.q) for alg, _ in map_groups] == [(2, 1), (6, 1), (4, 3), (4, 2)]
    for alg, k in map_groups:
        params = params_for(alg, k=k)
        for i, r in enumerate((1.0, 2.0**-49)):
            Z, T, mask = Sampler(alg, params, 5, spawn_key=(i,)).draw(20_000)
            Z, T = r * Z, r ** (2.0 * k) * T
            assert mask.all() and np.all(np.einsum("ni,ni->n", Z, Z) > 0.0)
            assert np.all(norm_d(params, (Z, T)) < r * (1.0 + 1e-12))


def test_map_mean_weight_is_shell_volume(map_groups):
    # the weights integrate the indicator of the shell r0 <= d < r1, dilated
    # into the unit ball: its replicate mean is |B_1| (1 - (r0 / r1)^Q)
    # within 3 stderr
    for alg, k in map_groups:
        params = params_for(alg, k=k)
        for i, (r0, r1) in enumerate(_MAP_SHELLS):
            shell = dilated(params, lambda Z, T: (norm_d(params, (Z, T)) >= r0).astype(float), r1)
            vals, cov = mc_region_multi(Sampler(alg, params, 6, spawn_key=(i,)), lambda Z, T: [shell(Z, T)], 1, 50_000)
            vol = cf.ball_moment(params, 0.0) * (1.0 - (r0 / r1) ** params.Q)
            assert abs(vals[0] - vol) <= 3.0 * math.sqrt(cov[0, 0]) and cov[0, 0] > 0.0


@pytest.mark.parametrize("dim", range(1, 9))
def test_sphere_directions_are_uniform(dim):
    # unit vectors with mean 0 and second moments I/dim, the moments of the
    # uniform law on S^{dim-1}
    X = _sphere(np.random.default_rng(dim).random((200_000, max(dim - 1, 1))), dim)
    assert X.shape == (200_000, dim)
    np.testing.assert_allclose(np.einsum("ni,ni->n", X, X), 1.0, rtol=1e-12)
    np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=0.01)
    np.testing.assert_allclose(X.T @ X / len(X), np.eye(dim) / dim, atol=0.005)


def test_quaternionic_ball_moment_z_calibrated():
    # quaternionic:1 (k = 2, p = 3) at a small budget: over 60 fixed seeds
    # the z of every ball moment has sd near 1 and at most one |z| > 3
    z = {}
    for seed in range(60):
        for c in verify_moments(SuiteConfig(group="quaternionic:1", k=2.0, p=3.0, n_samples=20_000, seed=seed)).checks:
            if c.check_id.startswith("ball-moment-"):
                z.setdefault(c.check_id, []).append((c.observed - c.target) / c.stderr)
    assert sorted(z) == ["ball-moment-0", "ball-moment-1", "ball-moment-9"]
    for zs in z.values():
        assert 0.8 <= np.std(zs, ddof=1) <= 1.25
        assert np.sum(np.abs(zs) > 3.0) <= 1


@pytest.mark.parametrize("n", [2, 3, 16, 32, 64])
def test_leggauss_is_numpys_bit_for_bit(n):
    # the library's Gauss-Legendre rule repeats numpy's computation, so
    # every polar integral and 1-D reduction keeps its nodes and weights
    x, w = quadrature._leggauss(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pole_is_its_polyval_form_bit_for_bit(n):
    # Newton's method on G(x) = x polyval(x^2, coef), with numpy's polyval,
    # on a grid of u that reaches both poles and the equator
    u = np.linspace(0.0, 1.0, 4001)
    v = 2.0 * u - 1.0
    coef = np.array([math.comb(n - 1, j) * (-1.0) ** j / (2 * j + 1) for j in range(n)])
    coef /= coef.sum()
    x = np.zeros_like(v)
    for _ in range(200):
        slope = coef[0] * (1.0 - x * x) ** (n - 1)
        step = np.divide(np.abs(v) - x * np.polynomial.polynomial.polyval(x * x, coef), slope,
                         out=np.zeros_like(x), where=slope > 0.0)
        x += step
        if not np.max(step, initial=0.0) > 1e-15:
            break
    assert np.array_equal(quadrature._pole(u, n), np.copysign(np.minimum(x, 1.0), v))


@pytest.mark.parametrize("group, k", [("heisenberg:1", 1.5), ("heisenberg:1", 2.0), ("heisenberg:1", 10.0),
                                      ("heisenberg:2", 2.5), ("quaternionic:1", 3.0), ("quaternionic:2", 7.0)])
def test_meridian_rule_where_its_jacobian_is_singular(group, k):
    # m < 2k: cos^{m/(2k)-1} theta is singular at theta = pi/2, so the
    # rule integrates in v, theta = (pi/2)(1 - v^{2k}).  The sphere moments
    # of |z_w|^gamma, weak powers of |z_w| among them, are met to 1e-14
    alg = resolve_group(group)
    params = params_for(alg, k=k)
    gammas = (0.0, 0.05, 0.37, 1.0, 3.0)
    values, gain = quadrature.meridian_integral(alg, params, lambda Z, T: [np.sqrt(zsq(Z, T)) ** g for g in gammas])
    exact = np.array([cf.sphere_moment(params, g) for g in gammas])
    assert alg.m < 2.0 * k and np.all(np.abs(values / exact - 1.0) <= 1e-14)
    assert np.all(np.abs(gain - 1.0) <= 1e-14)


@pytest.mark.parametrize("group, k", [("heisenberg:1", 1.0), ("heisenberg:2", 1.75), ("heisenberg:3", 3.0),
                                      ("quaternionic:1", 2.0), ("quaternionic:2", 3.75)])
def test_meridian_rule_meets_weak_powers_where_m_is_at_least_2k(group, k):
    # m >= 2k: the same substitution in v meets weak powers of |z_w| to
    # 1e-14, where a rule in theta met them only to 6e-12 .. 3e-11
    alg = resolve_group(group)
    params = params_for(alg, k=k)
    gammas = (0.0, 0.05, 1.0, (2.0 * k - 1.0) * params.p)
    values, gain = quadrature.meridian_integral(alg, params, lambda Z, T: [np.sqrt(zsq(Z, T)) ** g for g in gammas])
    exact = np.array([cf.sphere_moment(params, g) for g in gammas])
    assert alg.m >= 2.0 * k and np.all(np.abs(values / exact - 1.0) <= 1e-14)
    assert np.all(np.abs(gain - 1.0) <= 1e-14)
