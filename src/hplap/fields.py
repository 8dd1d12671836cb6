"""Deformed horizontal vector fields, gradients and degenerate p-Laplacians.

For a fixed parameter k >= 1 the fields on an H-type group are

    X_j = d/dz_j + (k/2) |z|^{2k-2} * sum_i (J_i z)_j * d/dt_i,   j = 1..m,

i.e. the coordinate derivative plus a drift along the center weighted by
the bracket coefficients (J_i z)_j = <J_i z, e_j>.  For k = 1 these are
the left-invariant fields; for k > 1 they are neither left nor right
invariant, and for non-integer k they are not smooth across {z = 0}.

The horizontal gradient is grad_X u = (X_1 u, ..., X_m u), the horizontal
divergence of a field (u_1, ..., u_m) is sum_j X_j u_j, and the
degenerate p-Laplacian is

    L_{p,k} u = div_X(|grad_X u|^{p-2} grad_X u),

computed here as the divergence of the flux field by nested numerical
differentiation.  The weighted variant uses the flux
w |grad_X u|^{p-2} grad_X u with w = d^alpha |grad_X d|^beta.

Differentiation
---------------
A field is differentiated through its analytic Euclidean gradient
``euclid_grad`` when it has one, and by central differences of ``eval``
otherwise.  Central-difference steps are per-coordinate,
``h * (scale + |coordinate|)``, where the scale defaults to 1 and can be
overridden per field: functions of the gauge norm d vary over ~d in z and
over ~d^{2k}/4 in t, and using those anisotropic scales is what keeps the
finite differences conditioned at small d.  First derivatives use the
relative step h1, by default H1 = 6e-6 (~eps_machine^{1/3}); outer
derivatives of nested fluxes use H2 = 1e-4 (~eps_machine^{1/4}); a finite
difference OF a finite difference needs an inner step near
eps_machine^{1/4} as well, which callers select by passing a larger h1.

Everything is a pure function of immutable inputs; evaluation callables
take coordinate batches Z (n, m) and T (n, q) and return (n,) or (n, m)
arrays, so suites can map over sample points in one vectorized call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import HTypeAlgebra, OperatorParams, gauge4k, norm_d

__all__ = [
    "NearSingularWarning",
    "DegenerateFluxWarning",
    "ScalarField",
    "RadialProfile",
    "aniso_scales",
    "euclid_gradient",
    "divergence_of_values",
    "horizontal_gradient_batch",
    "p_laplacian_batch",
    "weighted_p_laplacian_batch",
    "gradient_weight_batch",
    "profile_field",
]

#: exclusion radius around {z = 0} where the field coefficients are
#: non-smooth for non-integer k
DELTA_Z = 1e-6

#: gradient magnitude below which the p < 2 flux is treated as degenerate
DEGENERATE_FLUX_TOL = 1e-10

#: relative step of first-derivative central differences
H1 = 6e-6

#: relative step of the outer central differences of nested fluxes
H2 = 1e-4


class NearSingularWarning(UserWarning):
    """Evaluation inside the singular-exclusion radius around {z = 0} where
    the coefficient |z|^{2k-2} is not smooth; accuracy is reduced."""


class DegenerateFluxWarning(UserWarning):
    """|grad_X u| vanished at an evaluation point with p < 2; the flux is
    continued by 0 there."""


@dataclass(frozen=True)
class ScalarField:
    """An evaluatable real function on the group.

    eval takes batches (Z, T) -> (n,).  euclid_grad, when present, returns
    the n x (m + q) matrix of Euclidean partials (d/dz_j then d/dt_i) and
    must agree with central differences of eval.  fd_scales optionally
    supplies per-point characteristic lengths (s_z, s_t) used to scale
    finite-difference steps.
    """

    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    euclid_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    fd_scales: Optional[Callable[[np.ndarray, np.ndarray], tuple]] = None


@dataclass(frozen=True)
class RadialProfile:
    """A profile f of one real variable with derivatives, used to build
    radial fields f(d_eps)."""

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    d2f: Callable[[np.ndarray], np.ndarray]


def aniso_scales(params: OperatorParams) -> Callable:
    """Characteristic finite-difference lengths for functions of the gauge
    norm: ~d in the horizontal directions, ~d^{2k}/4 along the center."""

    def scales(Z: np.ndarray, T: np.ndarray):
        d = norm_d(params, (Z, T))
        sz = np.maximum(d, 1e-8)
        st = np.maximum(d ** (2.0 * params.k) / 4.0, 1e-12)
        return sz, st

    return scales


# ---------------------------------------------------------------------------
# batching helpers


def _as_batch(Z, T, m: int, q: int):
    Z = np.asarray(Z, dtype=float)
    T = np.asarray(T, dtype=float)
    if Z.ndim != 2 or T.ndim != 2 or Z.shape[1] != m or T.shape[1] != q:
        raise ValueError(f"coordinate blocks must be (n, m) and (n, q) batches of widths m={m}, q={q}")
    return Z, T


def _near_singular_check(params: OperatorParams, Z: np.ndarray) -> None:
    # |z|^{2k-2} is real-analytic for integer k; otherwise it is not smooth
    # across {z = 0} (and not even Lipschitz for 1 < k < 3/2).
    k = params.k
    if k == np.floor(k):
        return
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    if np.any(zn < DELTA_Z):
        warnings.warn(
            f"evaluation within |z| < {DELTA_Z} with non-integer k={k}: "
            "field coefficients are non-smooth there, accuracy reduced",
            NearSingularWarning,
            stacklevel=3,
        )


def _central_differences(fn: Callable, Z: np.ndarray, T: np.ndarray, h: float, scales=None):
    """Central difference quotients of fn(Z, T) -> (n,) or (n, m) in each of
    the m + q coordinates, z first: yields (coordinate index, quotient).
    Coordinate c moves by h * (s + |c|), s from scales(Z, T) -> (s_z, s_t)
    or 1, and the quotient divides by the representable step
    (c+ - c) + (c - c-)."""
    n, m = Z.shape
    sz, st = (np.ones(n), np.ones(n)) if scales is None else scales(Z, T)
    for c in range(m + T.shape[1]):
        X, s, i = (Z, sz, c) if c < m else (T, st, c - m)
        hc = h * (s + np.abs(X[:, i]))
        Xp = X.copy()
        Xp[:, i] = X[:, i] + hc
        Xm = X.copy()
        Xm[:, i] = X[:, i] - hc
        h_eff = (Xp[:, i] - X[:, i]) + (X[:, i] - Xm[:, i])
        fp, fm = (fn(Xp, T), fn(Xm, T)) if c < m else (fn(Z, Xp), fn(Z, Xm))
        yield c, (fp - fm) / (h_eff if fp.ndim == 1 else h_eff[:, None])


def euclid_gradient(f: ScalarField, Z: np.ndarray, T: np.ndarray, h1: float = H1) -> np.ndarray:
    """All Euclidean partials of f, shape (n, m + q): f.euclid_grad when f
    has one, else central differences of f.eval with relative step h1."""
    if f.euclid_grad is not None:
        return np.asarray(f.euclid_grad(Z, T), dtype=float)
    return np.stack([dq for _, dq in _central_differences(f.eval, Z, T, h1, f.fd_scales)], axis=1)


def _drift(alg: HTypeAlgebra, params: OperatorParams, Z: np.ndarray) -> tuple:
    """The center part of X_j: (k/2) |z|^{2k-2}, shape (n,), and
    (J_i z)_a, shape (n, q, m)."""
    zn2 = np.einsum("ni,ni->n", Z, Z)
    # |z|^{2k-2}; the k = 1 case is the constant 1 including at z = 0
    return 0.5 * params.k * zn2 ** (params.k - 1.0), np.einsum("iab,nb->nia", alg.J, Z)


def _x_from_euclid(alg: HTypeAlgebra, drift: tuple, G: np.ndarray) -> np.ndarray:
    """Contract Euclidean partials (n, m+q) into the X-gradient (n, m);
    drift is :func:`_drift` at the same points."""
    coef, Jz = drift
    return G[:, :alg.m] + coef[:, None] * np.einsum("nia,ni->na", Jz, G[:, alg.m:])


def horizontal_gradient_batch(
    alg: HTypeAlgebra,
    params: OperatorParams,
    f: ScalarField,
    Z: np.ndarray,
    T: np.ndarray,
    h1: float = H1,
) -> np.ndarray:
    """grad_X f at a batch of points, shape (n, m); column j - 1 is X_j f.
    h1 is the relative step used when f has no analytic gradient."""
    Z, T = _as_batch(Z, T, alg.m, alg.q)
    _near_singular_check(params, Z)
    G = euclid_gradient(f, Z, T, h1)
    return _x_from_euclid(alg, _drift(alg, params, Z), G)


# ---------------------------------------------------------------------------
# divergence and p-Laplacians


def divergence_of_values(alg, params, values_fn, Z, T, h: float, scales=None) -> np.ndarray:
    """div_X of a batch vector function values_fn(Z, T) -> (n, m) by
    central differences with step factor h; scales, when given, is a
    callable (Z, T) -> (s_z, s_t) of per-point step scales."""
    Z, T = _as_batch(Z, T, alg.m, alg.q)
    coef, Jz = _drift(alg, params, Z)
    out = np.zeros(Z.shape[0])
    for c, dF in _central_differences(values_fn, Z, T, h, scales):
        if c < alg.m:
            out += dF[:, c]
        else:
            out += coef * np.einsum("nj,nj->n", Jz[:, c - alg.m, :], dF)
    return out


def _flux_factor(G: np.ndarray, p: float) -> np.ndarray:
    """|grad|^{p-2} with the continuous-by-zero extension at critical points
    for p < 2 (flagged)."""
    nrm = np.sqrt(np.einsum("nj,nj->n", G, G))
    if p >= 2.0:
        return nrm ** (p - 2.0)
    degenerate = nrm < DEGENERATE_FLUX_TOL
    if np.any(degenerate):
        warnings.warn(
            "degenerate flux: |grad_X u| ~ 0 with p < 2; continuing flux by 0",
            DegenerateFluxWarning,
            stacklevel=4,
        )
    safe = np.where(degenerate, 1.0, nrm)
    return np.where(degenerate, 0.0, safe ** (p - 2.0))


def gradient_weight_batch(params: OperatorParams, Z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The weight w = d^alpha |grad_X d|^beta, using the closed form
    |grad_X d| = (|z|/d)^{2k-1} valid away from the origin."""
    d = norm_d(params, (Z, T))
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = d ** params.alpha
        if params.beta != 0.0:
            w = w * (zn / d) ** ((2.0 * params.k - 1.0) * params.beta)
    return w


def _p_laplacian_impl(alg, params, f, Z, T, weighted: bool) -> np.ndarray:
    p = params.p

    def flux(Zp, Tp):
        G = euclid_gradient(f, Zp, Tp)
        Xg = _x_from_euclid(alg, _drift(alg, params, Zp), G)
        fac = _flux_factor(Xg, p)
        if weighted:
            fac = fac * gradient_weight_batch(params, Zp, Tp)
        return fac[:, None] * Xg

    return divergence_of_values(alg, params, flux, Z, T, H2, f.fd_scales)


def p_laplacian_batch(alg, params, f, Z, T) -> np.ndarray:
    """L_{p,k} f = div_X(|grad_X f|^{p-2} grad_X f) at a batch of points,
    by outer central differences of the flux with step H2."""
    Z, T = _as_batch(Z, T, alg.m, alg.q)
    _near_singular_check(params, Z)
    return _p_laplacian_impl(alg, params, f, Z, T, weighted=False)


def weighted_p_laplacian_batch(alg, params, f, Z, T) -> np.ndarray:
    """div_X(w |grad_X f|^{p-2} grad_X f) with w = d^alpha |grad_X d|^beta."""
    params.validate_weighted()
    Z, T = _as_batch(Z, T, alg.m, alg.q)
    _near_singular_check(params, Z)
    d = norm_d(params, (Z, T))
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    if np.any(d < DELTA_Z) or (params.beta != 0.0 and np.any(zn < DELTA_Z)):
        warnings.warn(
            "weighted operator evaluated near the singular locus of the weight",
            NearSingularWarning,
            stacklevel=2,
        )
    return _p_laplacian_impl(alg, params, f, Z, T, weighted=True)


# ---------------------------------------------------------------------------
# radial fields: profiles of the regularized gauge norm


def profile_field(params: OperatorParams, profile: RadialProfile, eps: float) -> ScalarField:
    """f(d_eps) as a scalar field with analytic gradient.

    The Euclidean partials of the regularized norm are
    d(d_eps)/dz_j = |z|^{4k-2} z_j / d_eps^{4k-1} and
    d(d_eps)/dt_i = 8 t_i / (k d_eps^{4k-1}).  eps = 0 gives f(d), whose
    gradient is singular at the origin only.
    """
    k = params.k
    e4k = float(eps) ** (4.0 * k) if eps > 0 else 0.0

    def _d_eps(Z, T):
        return (gauge4k(params, Z, T) + e4k) ** (0.25 / k)

    def ev(Z, T):
        return profile.f(_d_eps(Z, T))

    def gr(Z, T):
        de = _d_eps(Z, T)
        zn2 = np.einsum("ni,ni->n", Z, Z)
        fac = profile.df(de) / de ** (4.0 * k - 1.0)
        gz = (fac * zn2 ** (2.0 * k - 1.0))[:, None] * Z
        gt = (fac * 8.0 / k)[:, None] * T
        return np.concatenate([gz, gt], axis=1)

    return ScalarField(eval=ev, euclid_grad=gr, fd_scales=aniso_scales(params))
