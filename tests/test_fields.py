from dataclasses import replace

import numpy as np
import pytest

from hplap import closedform as cf
from hplap.algebra import norm_d
from hplap.fields import (
    DegenerateFluxWarning,
    H1,
    H2,
    NearSingularWarning,
    RadialProfile,
    ScalarField,
    aniso_scales,
    divergence_of_values,
    euclid_gradient,
    gradient_weight_batch,
    horizontal_gradient_batch,
    p_laplacian_batch,
    profile_field,
    weighted_p_laplacian_batch,
)
from hplap.verify import sample_gauge_points
from conftest import gaussian_field, group_product, linear_combination_field, monomial_field, params_for, scale_field

EXP_PROFILE = RadialProfile(
    f=lambda x: np.exp(-0.7 * x),
    df=lambda x: -0.7 * np.exp(-0.7 * x),
    d2f=lambda x: 0.49 * np.exp(-0.7 * x),
)


def corpus(alg):
    fields = [
        gaussian_field(0.8, 0.5, alg.m, alg.q),
        gaussian_field(0.3, 1.2, alg.m, alg.q),
        monomial_field([1] + [0] * (alg.m - 1), [0] * alg.q),
        monomial_field([2, 1] + [0] * (alg.m - 2), [1] + [0] * (alg.q - 1)),
        monomial_field([0] * alg.m, [2] + [0] * (alg.q - 1)),
    ]
    return fields


def test_apply_x_coordinate_example(heis1):
    # f = t_1, k = 1, g = (e_1, 0): X_2 f = (1/2)(J_1 e_1)_2
    params = params_for(heis1, k=1.0)
    f = monomial_field([0, 0], [1])
    Z, T = np.array([[1.0, 0.0]]), np.array([[0.0]])
    expected = 0.5 * (heis1.J[0] @ np.array([1.0, 0.0]))[1]
    for fld in (f, replace(f, euclid_grad=None)):
        G = horizontal_gradient_batch(heis1, params, fld, Z, T)
        assert G.shape == (1, 2) and G[0, 1] == pytest.approx(expected, rel=1e-8)
    assert expected == pytest.approx(0.5)


def test_apply_x_kills_z_constant(heis2, rng):
    params = params_for(heis2, k=1.5)
    for j in range(1, 5):
        f = monomial_field(np.eye(4, dtype=int)[j - 1], [0])
        Z = rng.standard_normal((20, 4))
        T = rng.standard_normal((20, 1))
        vals = horizontal_gradient_batch(heis2, params, f, Z, T)[:, j - 1]
        assert np.allclose(vals, 1.0, atol=1e-9)


@pytest.mark.parametrize("group", ["heis2", "quat1"])
def test_k1_fields_are_left_invariant_derivatives(group, request, rng):
    # for k = 1, X_j f(g) = d/ds f(g . (s e_j, 0)) at s = 0, by central
    # differences through the group law; the k = 2 fields are not these
    alg = request.getfixturevalue(group)
    a, b = rng.standard_normal(alg.m), rng.standard_normal(alg.q)

    def ev(Z, T):
        return np.exp(-0.4 * np.einsum("ni,ni->n", Z, Z) - 0.7 * np.einsum("ni,ni->n", T, T)) * np.sin(1.0 + Z @ a + T @ b)

    f = ScalarField(eval=ev)
    Z, T = rng.standard_normal((12, alg.m)), 0.5 * rng.standard_normal((12, alg.q))
    h = 1e-5
    left = np.empty_like(Z)
    for j in range(alg.m):
        ends = [group_product(alg, (Z, T), (s * np.eye(alg.m)[j], np.zeros(alg.q))) for s in (h, -h)]
        left[:, j] = (ev(*ends[0]) - ev(*ends[1])) / (2.0 * h)
    rel = {k: np.linalg.norm(horizontal_gradient_batch(alg, params_for(alg, k=k), f, Z, T) - left)
           / np.linalg.norm(left) for k in (1.0, 2.0)}
    assert rel[1.0] <= 1e-8 and rel[2.0] > 0.1


@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
def test_apply_x_gauge_identity(k, quat1, rng):
    # X_j d^{4k} = 4k|z|^{4k-2} <z,e_j> + 16k |z|^{2k-2} <J_t z, e_j>
    alg = quat1
    params = params_for(alg, k=k)
    prof = RadialProfile(f=lambda x: x ** (4.0 * k), df=lambda x: 4.0 * k * x ** (4.0 * k - 1.0), d2f=lambda x: 0 * x)
    f = profile_field(params, prof, eps=0.0)
    Z, T = sample_gauge_points(alg, params, 40, rng)
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    Jtz = np.einsum("iab,ni,nb->na", alg.J, T, Z)
    for j in (1, alg.m):
        got = horizontal_gradient_batch(alg, params, replace(f, euclid_grad=None), Z, T)[:, j - 1]
        want = 4.0 * k * zn ** (4.0 * k - 2.0) * Z[:, j - 1] + 16.0 * k * zn ** (
            2.0 * k - 2.0
        ) * Jtz[:, j - 1]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-7


def test_gradient_of_constant(heis1, rng):
    params = params_for(heis1, k=2.0)
    one = monomial_field([0, 0], [0])
    Z = rng.standard_normal((10, 2))
    T = rng.standard_normal((10, 1))
    assert np.max(np.abs(horizontal_gradient_batch(heis1, params, replace(one, euclid_grad=None), Z, T))) < 1e-10


def test_gradient_linear_example(heis1, rng):
    # f = z_1 + t_1: grad_X f = e_1 + (k/2)|z|^{2k-2} (J_1 z)
    params = params_for(heis1, k=1.5)
    f = linear_combination_field([1.0, 1.0], [monomial_field([1, 0], [0]), monomial_field([0, 0], [1])])
    Z = rng.standard_normal((25, 2))
    T = rng.standard_normal((25, 1))
    G = horizontal_gradient_batch(heis1, params, f, Z, T)
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    want = np.zeros_like(G)
    want[:, 0] = 1.0
    want += 0.5 * params.k * zn[:, None] ** (2.0 * params.k - 2.0) * np.einsum("ab,nb->na", heis1.J[0], Z)
    assert np.allclose(G, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k,eps", [(1.0, 1.0), (1.5, 0.1), (2.0, 1.0)])
def test_gradient_sq_matches_closed_form(k, eps, heis1, rng):
    params = params_for(heis1, k=k)
    f = profile_field(params, RadialProfile(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)), eps=eps)
    Z, T = sample_gauge_points(heis1, params, 50, rng)
    G = horizontal_gradient_batch(heis1, params, f, Z, T)
    got = np.einsum("nj,nj->n", G, G)
    want = cf.grad_d_eps_sq(params, (Z, T), eps)
    assert np.max(np.abs(got - want) / want) < 1e-6


@pytest.mark.parametrize("group", ["heis1", "quat1"])
def test_gradient_dispatch_follows_euclid_grad(group, request, rng):
    # a field with euclid_grad is differentiated without evaluating it; one
    # without is evaluated twice per coordinate, with relative step h1
    alg = request.getfixturevalue(group)
    params = params_for(alg, k=1.5)
    base = gaussian_field(0.8, 0.5, alg.m, alg.q)
    calls = []

    def ev(Z, T):
        calls.append(len(Z))
        return base.eval(Z, T)

    Z, T = rng.standard_normal((20, alg.m)), rng.standard_normal((20, alg.q))
    analytic = replace(base, eval=ev)
    numeric = replace(analytic, euclid_grad=None)
    for grad in (lambda f, **kw: euclid_gradient(f, Z, T, **kw),
                 lambda f, **kw: horizontal_gradient_batch(alg, params, f, Z, T, **kw)):
        calls.clear()
        grad(analytic)
        assert calls == []
        fine = grad(numeric)
        assert calls == [20] * 2 * (alg.m + alg.q)
        assert not np.array_equal(grad(numeric, h1=1e-4), fine)
        assert np.array_equal(grad(analytic, h1=1e-4), grad(analytic))


def test_backend_consistency(heis2, quat1, rng):
    # analytic gradients agree with central differences of the same fields
    # stripped of their gradient, on the smooth corpus
    for alg in (heis2, quat1):
        Z = rng.standard_normal((30, alg.m)) * 1.5
        T = rng.standard_normal((30, alg.q)) * 1.5
        for i, f in enumerate(corpus(alg)):
            ga = euclid_gradient(f, Z, T)
            gf = euclid_gradient(replace(f, euclid_grad=None), Z, T)
            scale = np.maximum(np.max(np.abs(ga)), 1e-6)
            assert np.max(np.abs(ga - gf)) / scale < 1e-6, i


def test_scalar_field_grad_matches_fd(heis1, rng):
    params = params_for(heis1, k=1.0)
    f = profile_field(params, EXP_PROFILE, eps=0.5)
    Z, T = sample_gauge_points(heis1, params, 30, rng, d_range=(0.5, 3.0))
    ga = f.euclid_grad(Z, T)
    gf = euclid_gradient(replace(f, euclid_grad=None), Z, T)
    assert np.max(np.abs(ga - gf) / np.maximum(np.abs(ga), 1e-8)) < 1e-6


def test_divergence_constant_field_zero(heis1, rng):
    params = params_for(heis1, k=1.3)

    def F(Z, T):
        return np.broadcast_to([1.0, -2.0], Z.shape)

    Z = rng.standard_normal((10, 2)) + 2.0
    T = rng.standard_normal((10, 1))
    assert np.max(np.abs(divergence_of_values(heis1, params, F, Z, T, H2))) < 1e-9


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_divergence_of_gauge_gradient(k, heis1, rng):
    # div_X grad_X (d_eps^{4k}) = 4k(4k-2+Q)|z|^{4k-2}
    params = params_for(heis1, k=k)
    k4 = 4.0 * k
    prof = RadialProfile(
        f=lambda x: x**k4, df=lambda x: k4 * x ** (k4 - 1.0), d2f=lambda x: k4 * (k4 - 1.0) * x ** (k4 - 2.0)
    )
    f = profile_field(params, prof, eps=0.7)
    Z, T = sample_gauge_points(heis1, params, 40, rng)

    def grad_vals(Zp, Tp):
        return horizontal_gradient_batch(heis1, params, f, Zp, Tp)

    got = divergence_of_values(heis1, params, grad_vals, Z, T, H2, aniso_scales(params))
    want = cf.lap_d4k(params, (Z, T))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-5


def test_divergence_linear(heis1, rng):
    params = params_for(heis1, k=1.0)
    g1 = gaussian_field(0.5, 0.7, 2, 1)
    g2 = gaussian_field(1.1, 0.2, 2, 1)

    def div_grad(f):
        def vals(Z, T):
            return horizontal_gradient_batch(heis1, params, f, Z, T)

        return divergence_of_values(heis1, params, vals, Z, T, H2)

    Z = rng.standard_normal((10, 2))
    T = rng.standard_normal((10, 1))
    dsum = div_grad(linear_combination_field([1.0, 1.0], [g1, g2]))
    d1 = div_grad(g1)
    d2 = div_grad(g2)
    assert np.allclose(dsum, d1 + d2, rtol=1e-7, atol=1e-9)


def test_p_laplacian_harmonic_coordinate(heis1, rng):
    params = params_for(heis1, k=1.0, p=2.0)
    f = monomial_field([1, 0], [0])
    Z = rng.standard_normal((10, 2))
    T = rng.standard_normal((10, 1))
    assert np.max(np.abs(p_laplacian_batch(heis1, params, f, Z, T))) < 1e-8


@pytest.mark.parametrize("k", [1.0, 1.5])
def test_p2_laplacian_matches_closed_form(k, heis1, rng):
    params = params_for(heis1, k=k, p=2.0)
    eps = 0.5
    f = profile_field(params, RadialProfile(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x)), eps=eps)
    Z, T = sample_gauge_points(heis1, params, 40, rng)
    got = p_laplacian_batch(heis1, params, f, Z, T)
    want = cf.lap_d_eps(params, (Z, T), eps)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


@pytest.mark.parametrize("p,eps", [(1.5, 1.0), (2.0, 0.1), (3.0, 1.0)])
def test_p_laplacian_scaling_identity(p, eps, heis1, rng):
    # L_{p,k}(d_eps^{(p-Q)/(p-1)}) = eps^{-Q} psi(delta_{1/eps}(z,t));
    # both sides vanish at order eps^{4k} relative to the generic radial
    # scale, so the relative comparison is made where d ~ eps (elsewhere
    # the general radial-formula test already covers the operator)
    params = params_for(heis1, k=1.0, p=p)
    Q = params.Q
    nu = (p - Q) / (p - 1.0)
    f = profile_field(params, cf.power_profile(nu), eps=eps)
    Z, T = sample_gauge_points(heis1, params, 30, rng, d_range=(0.3 * eps, 3.0 * eps))
    got = p_laplacian_batch(heis1, params, f, Z, T)
    want = eps**-Q * cf.psi(params, (Z / eps, T / eps ** (2.0 * params.k)))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


def test_p_laplacian_homogeneity_in_u(heis1, rng):
    params = params_for(heis1, k=1.0, p=3.0)
    f = gaussian_field(0.6, 0.4, 2, 1)
    Z, T = sample_gauge_points(heis1, params, 15, rng, d_range=(0.5, 2.0))
    base = p_laplacian_batch(heis1, params, f, Z, T)
    for c in (-2.0, 3.0):
        got = p_laplacian_batch(heis1, params, scale_field(c, f), Z, T)
        assert np.allclose(got, c * abs(c) ** (params.p - 2.0) * base, rtol=1e-6, atol=1e-10)


def test_leibniz_rule(heis1, rng):
    # div_X(phi F) = <grad_X phi, F> + phi div_X F
    params = params_for(heis1, k=1.0)
    phi = gaussian_field(0.4, 0.3, 2, 1)
    vec_src = gaussian_field(0.9, 0.6, 2, 1)

    def F_vals(Z, T):
        return horizontal_gradient_batch(heis1, params, vec_src, Z, T)

    def phiF_vals(Z, T):
        return phi.eval(Z, T)[:, None] * F_vals(Z, T)

    Z, T = sample_gauge_points(heis1, params, 20, rng, d_range=(0.5, 2.0))
    lhs = divergence_of_values(heis1, params, phiF_vals, Z, T, H2)
    gphi = horizontal_gradient_batch(heis1, params, phi, Z, T)
    rhs = np.einsum("nj,nj->n", gphi, F_vals(Z, T)) + phi.eval(Z, T) * divergence_of_values(
        heis1, params, F_vals, Z, T, H2
    )
    scale = np.maximum(np.abs(lhs), np.abs(rhs)) + 1e-9
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-5


def test_weighted_reduces_to_plain(heis1, rng):
    params = params_for(heis1, k=1.0, p=2.5, alpha=0.0, beta=0.0)
    f = gaussian_field(0.5, 0.5, 2, 1)
    Z, T = sample_gauge_points(heis1, params, 10, rng, d_range=(0.5, 2.0))
    a = weighted_p_laplacian_batch(heis1, params, f, Z, T)
    b = p_laplacian_batch(heis1, params, f, Z, T)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p,alpha,beta", [(2.0, 0.5, 0.0), (2.0, 0.5, 1.0), (3.0, -0.5, 0.5)])
def test_weighted_fundamental_power_harmonic(p, alpha, beta, heis1, rng):
    # d^{(p-Q-alpha)/(p-1)} is annihilated away from the origin for any
    # admissible gradient-weight exponent
    params = params_for(heis1, k=1.0, p=p, alpha=alpha, beta=beta)
    params.validate_weighted()
    mu = (p - params.Q - alpha) / (p - 1.0)
    f = profile_field(params, cf.power_profile(mu), eps=0.0)
    Z, T = sample_gauge_points(heis1, params, 25, rng, d_range=(0.5, 3.0), zfrac_min=0.3)
    got = weighted_p_laplacian_batch(heis1, params, f, Z, T)
    G = horizontal_gradient_batch(heis1, params, f, Z, T)
    gn = np.sqrt(np.einsum("nj,nj->n", G, G))
    d = norm_d(params, (Z, T))
    w = gradient_weight_batch(params, Z, T)
    scale = w * gn ** (p - 1.0) / d
    assert np.max(np.abs(got) / scale) < 1e-4


def test_weight_on_z_axis(heis1):
    # at t = 0 the gradient weight is d^alpha exactly (|grad_X d| = 1)
    params = params_for(heis1, k=1.5, p=2.0, alpha=0.7, beta=2.0)
    Z = np.array([[1.3, 0.0]])
    T = np.array([[0.0]])
    d = norm_d(params, (Z, T))
    assert gradient_weight_batch(params, Z, T)[0] == pytest.approx(d[0] ** 0.7, rel=1e-12)


def test_radial_reduction_against_radial_formula(heis1, quat1, rng):
    # profile-of-d fields: nested-difference p-Laplacian agrees with the
    # radial closed form on random (group, k, p, eps, point) samples
    for alg in (heis1, quat1):
        for k in (1.0, 2.0):
            for p in (1.5, 2.0, 3.0):
                params = params_for(alg, k=k, p=p)
                for eps in (1.0, 0.1):
                    f = profile_field(params, EXP_PROFILE, eps=eps)
                    Z, T = sample_gauge_points(alg, params, 10, rng)
                    got = p_laplacian_batch(alg, params, f, Z, T)
                    want = cf.radial_L(params, EXP_PROFILE, (Z, T), eps)
                    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-4


def test_near_singular_warning(heis1):
    params = params_for(heis1, k=1.5)
    f = gaussian_field(0.5, 0.5, 2, 1)
    Z = np.array([[1e-8, 0.0]])
    T = np.array([[0.5]])
    with pytest.warns(NearSingularWarning):
        horizontal_gradient_batch(heis1, params, f, Z, T)


def test_no_warning_for_integer_k_at_center(heis1):
    import warnings

    params = params_for(heis1, k=1.0)
    f = gaussian_field(0.5, 0.5, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        horizontal_gradient_batch(heis1, params, f, np.array([[0.0, 0.0]]), np.array([[0.5]]))


def test_degenerate_flux_warning(heis1):
    # the Gaussian has a critical point at the origin; with p < 2 the flux
    # is continued by zero there and flagged
    params = params_for(heis1, k=1.0, p=1.5)
    f = gaussian_field(1.0, 1.0, 2, 1)
    with pytest.warns(DegenerateFluxWarning):
        p_laplacian_batch(heis1, params, f, np.array([[0.0, 0.0]]), np.array([[0.0]]))


def test_vector_field_length_checked(heis1):
    # a vector field is evaluated on (Z, T) blocks of widths (m, q); a batch
    # of other widths, or a single unbatched point, is refused
    params = params_for(heis1, k=1.0)
    f = gaussian_field(1.0, 1.0, 2, 1)

    def F(Z, T):
        return horizontal_gradient_batch(heis1, params, f, Z, T)

    for Z, T in ((np.ones((1, 3)), np.ones((1, 1))), (np.ones((1, 2)), np.ones((1, 2))), (np.ones(2), np.ones(1))):
        with pytest.raises(ValueError, match="widths"):
            divergence_of_values(heis1, params, F, Z, T, H2)
        with pytest.raises(ValueError, match="widths"):
            p_laplacian_batch(heis1, params, f, Z, T)


def _reference_quotients(fn, Z, T, h, sz, st):
    # central differences written out coordinate by coordinate, z first:
    # step h (s + |c|), divided by the representable step (c+ - c) + (c - c-)
    out = []
    for j in range(Z.shape[1]):
        zp, zm = Z.copy(), Z.copy()
        zp[:, j] += h * (sz + np.abs(Z[:, j]))
        zm[:, j] -= h * (sz + np.abs(Z[:, j]))
        fp, fm = fn(zp, T), fn(zm, T)
        step = (zp[:, j] - Z[:, j]) + (Z[:, j] - zm[:, j])
        out.append((fp - fm) / step.reshape((-1,) + (1,) * (fp.ndim - 1)))
    for i in range(T.shape[1]):
        tp, tm = T.copy(), T.copy()
        tp[:, i] += h * (st + np.abs(T[:, i]))
        tm[:, i] -= h * (st + np.abs(T[:, i]))
        fp, fm = fn(Z, tp), fn(Z, tm)
        step = (tp[:, i] - T[:, i]) + (T[:, i] - tm[:, i])
        out.append((fp - fm) / step.reshape((-1,) + (1,) * (fp.ndim - 1)))
    return out


def test_central_differences_match_reference_bit_for_bit(quat1, rng):
    # the finite-difference gradient and divergence keep their arithmetic:
    # same steps, same quotients, summed z first, then t
    params = params_for(quat1, k=1.5, p=2.5)
    f = profile_field(params, EXP_PROFILE, 0.0)
    Z, T = sample_gauge_points(quat1, params, 50, rng)
    sz, st = f.fd_scales(Z, T)
    G = np.stack(_reference_quotients(f.eval, Z, T, H1, sz, st), axis=1)
    assert np.array_equal(euclid_gradient(replace(f, euclid_grad=None), Z, T), G)

    def flux(Zp, Tp):
        return horizontal_gradient_batch(quat1, params, f, Zp, Tp)

    m = quat1.m
    coef = 0.5 * params.k * np.einsum("ni,ni->n", Z, Z) ** (params.k - 1.0)
    Jz = np.einsum("iab,nb->nia", quat1.J, Z)
    expected = np.zeros(len(Z))
    for c, dF in enumerate(_reference_quotients(flux, Z, T, 3e-4, sz, st)):
        expected += dF[:, c] if c < m else coef * np.einsum("nj,nj->n", Jz[:, c - m, :], dF)
    assert np.array_equal(divergence_of_values(quat1, params, flux, Z, T, 3e-4, f.fd_scales), expected)
