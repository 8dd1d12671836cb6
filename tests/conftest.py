from typing import Sequence

import numpy as np
import pytest

from hplap.algebra import OperatorParams, bracket, from_j_matrices, make_heisenberg, make_quaternionic
from hplap.fields import ScalarField


@pytest.fixture(scope="session")
def heis1():
    return make_heisenberg(1)


@pytest.fixture(scope="session")
def heis2():
    return make_heisenberg(2)


@pytest.fixture(scope="session")
def quat1():
    return make_quaternionic(1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def params_for(alg, k=1.0, p=2.0, alpha=0.0, beta=0.0):
    return OperatorParams.of(alg, k=k, p=p, alpha=alpha, beta=beta)


def real_points(params, Z, T, r):
    """The points delta_r w = (r z, r^{2k} t) of the directions w = (Z, T)
    and the radial nodes r, direction by direction and node by node."""
    return ((Z[:, None, :] * r[:, None]).reshape(-1, Z.shape[1]),
            (T[:, None, :] * (r ** (2.0 * params.k))[:, None]).reshape(-1, T.shape[1]))


def at_real_points(params, f):
    """The ray form (Z, T, r, c) -> (nf, len(Z)) of a point-wise integrand
    f(Z, T) -> (nf, n), as integrate_polar calls it: f at the real points
    of the directions and the radial nodes r, contracted with the weights c."""

    def ray(Z, T, r, c):
        return np.asarray(f(*real_points(params, Z, T, r)), dtype=float).reshape(-1, len(Z), len(r)) @ c

    return ray


def group_product(alg, g, h):
    """The group law (z, t)(w, s) = (z + w, t + s + [z, w]/2) on (z, t) pairs."""
    (z, t), (w, s) = g, h
    return z + w, t + s + 0.5 * bracket(alg, z, w)


def graded_radial_reference(cases, edges):
    """(I_L, I_R) rows of the radial integrals of radial cases, by plain
    Gauss-Legendre on each panel of edges split into sub-panels graded
    geometrically towards both ends (ratio 0.15, 14 levels each, 32 nodes
    per sub-panel)."""
    levels = 0.15 ** np.arange(1, 15)
    t = np.concatenate([[0.0], levels[::-1], [0.5], 1.0 - levels, [1.0]])
    x, w = np.polynomial.legendre.leggauss(32)
    out = np.zeros((len(cases), 2))
    for lo, hi in zip(edges, edges[1:]):
        cuts = lo + (hi - lo) * t
        half = 0.5 * np.diff(cuts)[:, None]
        r = (cuts[:-1, None] + half * (x + 1.0)).ravel()
        c = (half * w).ravel()
        for i, (params, phi) in enumerate(cases):
            p, e, a = params.p, params.Q - 1.0 + params.alpha, phi.power
            F, dF = phi.shape(r)
            # each integrand as one p-th power, which stays finite where r^{-ap} overflows
            out[i] += [np.sum(c * (r ** (e / p - a) * np.abs(dF - a * F / r)) ** p),
                       np.sum(c * (r ** ((e - p) / p - a) * np.abs(F)) ** p)]
    return out


def _cayley_dickson(a, b):
    """The product of two elements of the Cayley-Dickson algebra of
    dimension len(a) (reals, complexes, quaternions, octonions, ...):
    (p, q)(r, s) = (p r - s* q, s p + q r*)."""
    if len(a) == 1:
        return a * b
    h = len(a) // 2
    conj = lambda x: np.concatenate([x[:1], -x[1:]])
    (p, q), (r, s) = (a[:h], a[h:]), (b[:h], b[h:])
    return np.concatenate([_cayley_dickson(p, r) - _cayley_dickson(conj(s), q),
                           _cayley_dickson(s, p) + _cayley_dickson(q, conj(r))])


def octonion_units(q: int):
    """The H-type algebra with m = 8 and center dimension q <= 7 whose J_i
    are the left multiplications by the first q imaginary octonion units,
    validated by from_j_matrices."""
    E = np.eye(8)
    return from_j_matrices([np.column_stack([_cayley_dickson(E[i], E[j]) for j in range(8)]) for i in range(1, q + 1)])


_GL_CACHE = {}


def _leggauss(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def moment_oracle_1d(m, q, k, gamma, nodes=800):
    """Independent oracle for the gauge-ball moment integral of |z|^gamma:
    reduce by rotational symmetry in z and t separately, then integrate the
    remaining 1-D profile,

        int_{d<1} |z|^gamma
            = omega_{m-1}/(gamma+m) * omega_{q-1}
              * int_0^{1/4} (1-16 s^2)^{(gamma+m)/(4k)} s^{q-1} ds,

    with s = sin(theta)/4 to soften the endpoint singularity.
    """
    import math

    om = lambda dim: 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    x, w = _leggauss(nodes)
    th = 0.25 * math.pi * (x + 1.0)  # [0, pi/2]
    ww = 0.25 * math.pi * w
    c = (gamma + m) / (4.0 * k)
    s = 0.25 * np.sin(th)
    prof = np.sum(ww * np.cos(th) ** (2.0 * c) * s ** (q - 1) * 0.25 * np.cos(th))
    t_factor = om(q) * prof if q > 1 else 2.0 * prof
    return om(m) / (gamma + m) * t_factor


# test fields: anisotropic Gaussians, coordinate monomials and their
# linear combinations, all with analytic gradients


def gaussian_field(a: float, b: float, m: int, q: int) -> ScalarField:
    """exp(-a |z|^2 - b |t|^2) with analytic gradient."""

    def ev(Z, T):
        return np.exp(-a * np.einsum("ni,ni->n", Z, Z) - b * np.einsum("ni,ni->n", T, T))

    def gr(Z, T):
        v = ev(Z, T)
        return np.concatenate([-2.0 * a * Z * v[:, None], -2.0 * b * T * v[:, None]], axis=1)

    return ScalarField(eval=ev, euclid_grad=gr)


def monomial_field(z_pows: Sequence[int], t_pows: Sequence[int]) -> ScalarField:
    """prod_j z_j^{a_j} * prod_i t_i^{b_i} with analytic gradient."""
    za = np.asarray(z_pows, dtype=int)
    tb = np.asarray(t_pows, dtype=int)

    def ev(Z, T):
        return np.prod(Z**za, axis=1) * np.prod(T**tb, axis=1)

    def gr(Z, T):
        n = Z.shape[0]
        out = np.zeros((n, len(za) + len(tb)))
        base = ev(Z, T)
        for j, a in enumerate(za):
            if a:
                col = a * Z[:, j] ** (a - 1) * np.prod(np.delete(Z, j, axis=1) ** np.delete(za, j), axis=1)
                out[:, j] = col * np.prod(T**tb, axis=1)
        for i, b in enumerate(tb):
            if b:
                col = b * T[:, i] ** (b - 1) * np.prod(np.delete(T, i, axis=1) ** np.delete(tb, i), axis=1)
                out[:, len(za) + i] = col * np.prod(Z**za, axis=1)
        return out

    return ScalarField(eval=ev, euclid_grad=gr)


def linear_combination_field(coeffs: Sequence[float], fields: Sequence[ScalarField]) -> ScalarField:
    cs = [float(c) for c in coeffs]

    def ev(Z, T):
        return sum(c * f.eval(Z, T) for c, f in zip(cs, fields))

    grads = [f.euclid_grad for f in fields]
    gr = None
    if all(g is not None for g in grads):

        def gr(Z, T):
            return sum(c * g(Z, T) for c, g in zip(cs, grads))

    scales = next((f.fd_scales for f in fields if f.fd_scales is not None), None)
    return ScalarField(eval=ev, euclid_grad=gr, fd_scales=scales)


def scale_field(c: float, f: ScalarField) -> ScalarField:
    return linear_combination_field([c], [f])
