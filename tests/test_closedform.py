import math

import numpy as np
import pytest

from hplap import closedform as cf
from hplap.algebra import make_heisenberg, norm_d
from hplap.fields import RadialProfile, p_laplacian_batch, profile_field
from hplap.verify import sample_gauge_points
from conftest import moment_oracle_1d, params_for



def point(z, t):
    """One point as a (1, m), (1, q) batch."""
    return np.array([z], dtype=float), np.array([t], dtype=float)


# --------------------------------------------------------------------- gamma


def test_gamma_argument_domain(heis1):
    # every Gamma argument of the constants must be positive: at
    # (2k-1)(p+beta) <= -m the first one is not, and math.lgamma would
    # return log|Gamma| there instead of failing
    params = params_for(heis1, k=1.0, p=2.0, beta=-4.0)  # (2k-1)(p+beta) = -2 = -m
    with pytest.raises(ValueError, match="sigma requires"):
        cf.sigma_p_beta(params)
    with pytest.raises(ValueError, match="sigma requires"):
        cf.sigma_p_beta(params_for(heis1, k=1.0, p=2.0, beta=-5.5))  # first argument -1/2
    assert cf.sigma_p_beta(params_for(heis1, k=1.0, p=2.0, beta=-3.9)) > 0.0
    for gamma in (-2.0, -3.0):  # gamma <= -m
        with pytest.raises(ValueError, match="ball moment"):
            cf.ball_moment(params, gamma)


# ---------------------------------------------------------- point identities


def test_grad_d_eps_sq_values(heis1):
    params = params_for(heis1, k=1.0)
    assert cf.grad_d_eps_sq(params, point([0.0, 0.0], [0.3]), 1.0)[0] == 0.0
    got = cf.grad_d_eps_sq(params, point([1.0, 0.0], [0.0]), 1.0)
    assert got.shape == (1,) and got[0] == pytest.approx(2.0**-1.5, rel=1e-14)


@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
def test_grad_d_eps_sq_eps_limit(k, heis1, rng):
    # eps -> 0 recovers |grad_X d|^2 = (|z|/d)^{2(2k-1)}
    params = params_for(heis1, k=k)
    Z, T = sample_gauge_points(heis1, params, 20, rng, d_range=(0.5, 2.0))
    d = norm_d(params, (Z, T))
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    want = (zn / d) ** (2.0 * (2.0 * k - 1.0))
    got = cf.grad_d_eps_sq(params, (Z, T), 1e-9)
    assert np.max(np.abs(got - want) / want) < 1e-10


def test_lap_d4k_values(heis1, rng):
    params = params_for(heis1, k=1.0)
    assert cf.lap_d4k(params, point([0.0, 0.0], [0.2]))[0] == 0.0
    Z = rng.standard_normal((10, 2))
    T = rng.standard_normal((10, 1))
    zn2 = np.einsum("ni,ni->n", Z, Z)
    assert np.allclose(cf.lap_d4k(params, (Z, T)), 24.0 * zn2, rtol=1e-14)


def test_lap_d_eps_limit(heis1, rng):
    # eps -> 0: braces tend to 4k + Q - 2 - (4k - 1) = Q - 1
    params = params_for(heis1, k=1.5)
    Q, k = params.Q, params.k
    Z, T = sample_gauge_points(heis1, params, 10, rng, d_range=(0.5, 2.0))
    d = norm_d(params, (Z, T))
    zn2 = np.einsum("ni,ni->n", Z, Z)
    want = (Q - 1.0) * d ** (1.0 - 4.0 * k) * zn2 ** (2.0 * k - 1.0)
    got = cf.lap_d_eps(params, (Z, T), 1e-8)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10
    assert cf.lap_d_eps(params, point([0.0, 0.0], [0.1]), 1.0)[0] == 0.0


def test_radial_identity_profile_reduces_to_lap(heis1, rng):
    params = params_for(heis1, k=1.0, p=2.0)
    ident = RadialProfile(f=lambda x: x, df=lambda x: np.ones_like(x), d2f=lambda x: np.zeros_like(x))
    Z, T = sample_gauge_points(heis1, params, 20, rng)
    got = cf.radial_L(params, ident, (Z, T), 0.7)
    want = cf.lap_d_eps(params, (Z, T), 0.7)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_radial_power_profile_gives_scaling_density(p, heis1, rng):
    params = params_for(heis1, k=1.0, p=p)
    Q, k = params.Q, params.k
    nu = (p - Q) / (p - 1.0)
    prof = cf.power_profile(nu)
    for eps in (1.0, 0.5):
        Z, T = sample_gauge_points(heis1, params, 20, rng, d_range=(0.3, 4.0))
        got = cf.radial_L(params, prof, (Z, T), eps)
        want = eps ** (-Q) * cf.psi(params, (Z / eps, T / eps ** (2.0 * k)))
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-11


def test_radial_L_degenerate_profile_flagged(heis1):
    from hplap.fields import DegenerateFluxWarning

    params = params_for(heis1, k=1.0, p=1.5)
    flat = RadialProfile(f=lambda x: np.zeros_like(x), df=lambda x: np.zeros_like(x),
                         d2f=lambda x: np.ones_like(x))  # f' = 0
    with pytest.warns(DegenerateFluxWarning):
        val = cf.radial_L(params, flat, point([1.0, 0.0], [0.1]), 1.0)
    assert val[0] == 0.0


def test_radial_L_matches_nested_differences(heis1, rng):
    params = params_for(heis1, k=2.0, p=3.0)
    prof = RadialProfile(
        f=lambda x: 1.0 / (1.0 + x * x),
        df=lambda x: -2.0 * x / (1.0 + x * x) ** 2,
        d2f=lambda x: (6.0 * x * x - 2.0) / (1.0 + x * x) ** 3,
    )
    f = profile_field(params, prof, eps=1.0)
    Z, T = sample_gauge_points(heis1, params, 20, rng)
    got = p_laplacian_batch(heis1, params, f, Z, T)
    want = cf.radial_L(params, prof, (Z, T), 1.0)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


# ------------------------------------------------------------------- density


def test_psi_signs_and_zeros(heis1, rng):
    params = params_for(heis1, k=1.0, p=2.0)
    assert cf.psi(params, point([0.0, 0.0], [0.4]))[0] == 0.0
    Z = rng.standard_normal((100, 2))
    T = rng.standard_normal((100, 1))
    assert np.all(cf.psi(params, (Z, T)) <= 0.0)  # 1 < p < Q
    params_big = params_for(heis1, k=1.0, p=5.0)  # p > Q
    assert np.all(cf.psi(params_big, (Z, T)) >= 0.0)
    with pytest.raises(ValueError):
        cf.psi(params_for(heis1, k=1.0, p=4.0), (Z, T))


def test_psi_total_prefactor(heis1):
    # integral of the density = nu|nu|^{p-2} sigma_p; for p=2, Q=4 the
    # prefactor is -((Q-p)/(p-1))^{p-1} = -2 and sigma_2 = pi
    params = params_for(heis1, k=1.0, p=2.0)
    nu = (params.p - params.Q) / (params.p - 1.0)
    total = nu * abs(nu) ** (params.p - 2.0) * cf.sigma_p(params)
    assert total == pytest.approx(-2.0 * math.pi, rel=1e-12)


# ----------------------------------------------------------------- constants


def test_sigma_p_heisenberg_value(heis1):
    params = params_for(heis1, k=1.0, p=2.0)
    assert cf.sigma_p(params) == pytest.approx(math.pi, rel=1e-13)
    assert cf.sigma_p(params) > 0.0
    assert cf.sigma_p(params) == pytest.approx(cf.sigma_p_beta(params), rel=1e-15)


def test_sigma_p_beta_reduction_and_value(heis1):
    params = params_for(heis1, k=1.0, p=2.0, beta=1.0)
    # pinned: equals (gamma + Q) * ball_moment(gamma) at gamma = (2k-1)(p+beta)
    want = 7.0 * cf.ball_moment(params, 3.0)
    got = cf.sigma_p_beta(params)
    assert got == pytest.approx(want, rel=1e-13)
    assert got == pytest.approx(2.7458122499512, rel=1e-12)
    assert got == pytest.approx(7.0 * moment_oracle_1d(2, 1, 1.0, 3.0), rel=1e-9)


@pytest.mark.parametrize(
    "m,q,k,gamma",
    [(2, 1, 1.0, 0.0), (2, 1, 1.0, 1.0), (2, 1, 1.0, 2.0), (2, 1, 2.0, 2.0), (4, 3, 1.0, 2.5), (4, 3, 2.0, 3.0)],
)
def test_ball_moment_against_independent_oracle(m, q, k, gamma):
    alg = make_heisenberg(m // 2) if q == 1 else __import__("hplap.algebra", fromlist=["make_quaternionic"]).make_quaternionic(m // 4)
    params = params_for(alg, k=k)
    assert cf.ball_moment(params, gamma) == pytest.approx(moment_oracle_1d(m, q, k, gamma), rel=2e-6)


def test_ball_moment_values(heis1):
    params = params_for(heis1, k=1.0)
    assert cf.ball_moment(params, 0.0) == pytest.approx(math.pi**2 / 8.0, rel=1e-13)
    # monotone decreasing in gamma on the unit ball (|z| <= 1 pointwise)
    gams = [0.0, 0.5, 1.0, 2.0, 4.0]
    vals = [cf.ball_moment(params, g) for g in gams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        cf.ball_moment(params, -2.0)


def test_sphere_moment_consistency(heis1, quat1):
    for alg, k, p in [(heis1, 1.0, 2.0), (heis1, 2.0, 3.0), (quat1, 1.5, 2.5)]:
        params = params_for(alg, k=k, p=p)
        gam = (2.0 * k - 1.0) * p
        sp = cf.sigma_p(params)
        assert abs(sp - cf.sphere_moment(params, gam)) / sp < 1e-12
    params = params_for(heis1, k=1.0)
    assert cf.sphere_moment(params, 2.0) == pytest.approx(math.pi, rel=1e-13)


# ------------------------------------------------------- fundamental solution


def test_fundamental_solution_heisenberg(heis1):
    params = params_for(heis1, k=1.0, p=2.0)
    spec = cf.fundamental_solution(params)
    assert spec.kind == "power"
    assert spec.exponent == pytest.approx(-2.0)
    assert spec.constant == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-13)


def test_fundamental_solution_log_branch(heis1):
    params = params_for(heis1, k=1.0, p=4.0)  # p = Q
    spec = cf.fundamental_solution(params)
    assert spec.kind == "log"
    assert spec.constant == pytest.approx(-(math.pi**2 / 4.0) ** (-1.0 / 3.0), rel=1e-13)


def test_fundamental_solution_weighted_exponent(heis1):
    params = params_for(heis1, k=1.0, p=2.0, alpha=1.0, beta=0.5)
    spec = cf.fundamental_solution(params, weighted=True)
    assert spec.kind == "power"
    assert spec.exponent == pytest.approx((2.0 - 4.0 - 1.0) / (2.0 - 1.0))
    # weighted log branch at p = Q + alpha
    params_log = params_for(heis1, k=1.0, p=5.0, alpha=1.0)
    spec_log = cf.fundamental_solution(params_log, weighted=True)
    assert spec_log.kind == "log"


def test_fundamental_solution_origin_is_signed_infinity(heis1):
    # the field of Gamma (power and log branch) is -inf at d = 0, since
    # both constants are negative
    origin = point([0.0, 0.0], [0.0])
    for p in (2.0, 4.0):
        params = params_for(heis1, k=1.0, p=p)
        with np.errstate(divide="ignore"):
            val = cf.fundamental_solution(params).as_field(params).eval(*origin)
        assert val.shape == (1,) and math.isinf(val[0]) and val[0] < 0


def test_fundamental_solution_harmonic_for_p_above_Q(heis1, rng):
    # the power formula remains valid for p > Q (real-power convention)
    params = params_for(heis1, k=1.0, p=5.0)
    spec = cf.fundamental_solution(params)
    assert spec.constant > 0.0
    fld = spec.as_field(params)
    Z, T = sample_gauge_points(heis1, params, 15, rng, d_range=(0.5, 3.0), zfrac_min=0.3)
    from hplap.fields import horizontal_gradient_batch

    resid = np.abs(p_laplacian_batch(heis1, params, fld, Z, T))
    G = horizontal_gradient_batch(heis1, params, fld, Z, T)
    gn = np.sqrt(np.einsum("nj,nj->n", G, G))
    d = norm_d(params, (Z, T))
    assert np.max(resid / (gn ** (params.p - 1.0) / d)) < 1e-4
