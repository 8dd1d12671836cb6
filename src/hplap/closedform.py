"""Closed-form identities, fundamental solutions and their constants.

With d the gauge norm, d_eps = (d^{4k} + eps^{4k})^{1/(4k)} its smooth
regularization and Q = m + 2kq, the following identities hold on any
H-type group (all verified numerically against finite-difference oracles
by the :mod:`hplap.verify` suites):

* squared horizontal gradient

      |grad_X d_eps|^2 = d^{4k} d_eps^{2-8k} |z|^{4k-2},

* Laplacian of the polynomial gauge (independent of eps)

      sum_j X_j^2 (d_eps^{4k}) = 4k (4k - 2 + Q) |z|^{4k-2},

* Laplacian of the regularized norm

      sum_j X_j^2 d_eps
          = d_eps^{1-4k} |z|^{4k-2} {4k + Q - 2 - (4k-1) d^{4k}/d_eps^{4k}},

* for a C^2 profile f, the p-Laplacian of f(d_eps) is radial:

      L_{p,k}(f o d_eps) = |f'|^{p-2} |grad_X d_eps|^p *
          { (p-1) f'' + f' [ (Q-1) d^{4k} + (4kp - 4k + Q - p) eps^{4k} ]
                          / (d_eps d^{4k}) },

  with f', f'' evaluated at d_eps; the d^{4k} in the denominator cancels
  algebraically against the |grad_X d_eps|^p factor.

Applying the radial formula to f(x) = x^{(p-Q)/(p-1)} gives the exact
scaling identity  L_{p,k}(d_eps^{(p-Q)/(p-1)}) = eps^{-Q} psi(delta_{1/eps}(z,t))
with the integrable density ``psi`` below, whose total group integral
produces the normalizing constants: the function

    Gamma_p = C_p d^{(p-Q)/(p-1)}         (p != Q)
    Gamma_Q = C_Q log(1/d)                (p = Q)

is the fundamental solution of L_{p,k} with singularity at the identity,
where C_p = (p-1)/(p-Q) sigma_p^{-1/(p-1)}, C_Q = -sigma_Q^{-1/(Q-1)} and

    sigma_p = (1/4)^{q-1/2} pi^{(q+m)/2}
              Gamma(((2k-1)p + m)/(4k)) / (Gamma(m/2) Gamma(((2k-1)p + Q)/(4k))).

The weighted operator with w = d^alpha |grad_X d|^beta has fundamental
solution C_{p,w} d^{(p-Q-alpha)/(p-1)} (log branch at p = Q + alpha) with
sigma_{p,beta} obtained by replacing (2k-1)p with (2k-1)(p+beta).

The moment integrals behind these constants are also exposed:

    ball_moment(gamma)   = integral of |z|^gamma over {d < 1}
                         = (1/(2(gamma+Q))) (1/4)^{q-1} pi^{(q+m)/2}
                           Gamma((gamma+m)/(4k)) / (Gamma(m/2) Gamma((gamma+Q)/(4k))),
    sphere_moment(gamma) = (gamma + Q) * ball_moment(gamma),

and sigma_p = sphere_moment((2k-1)p) as a pure arithmetic identity.

Pointwise functions take a pair (Z, T) of coordinate batches, shapes
(n, m) and (n, q), and return (n,) arrays.

All constants are computed in log space through :func:`math.lgamma` and
exponentiated once.  Powers of possibly negative prefactors follow the
real-valued pattern nu |nu|^{p-2} so every expression stays real for all
p > 1, including p > Q.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
import numpy as np

from .algebra import OperatorParams
from .fields import DegenerateFluxWarning, RadialProfile, ScalarField, profile_field

__all__ = [
    "grad_d_eps_sq",
    "lap_d4k",
    "lap_d_eps",
    "radial_L",
    "psi",
    "psi_radial",
    "psi_prefactor",
    "sigma_p",
    "sigma_p_beta",
    "ball_moment",
    "sphere_moment",
    "FundamentalSolutionSpec",
    "fundamental_solution",
    "power_profile",
    "log_profile",
]

# ---------------------------------------------------------------------------
# pointwise identities


def _pieces(params: OperatorParams, Z, T, eps: float):
    k = params.k
    zn2 = np.einsum("ni,ni->n", Z, Z)
    t2 = np.einsum("ni,ni->n", T, T)
    d4 = zn2 ** (2.0 * k) + 16.0 * t2
    de = (d4 + float(eps) ** (4.0 * k)) ** (0.25 / k)
    return zn2, d4, de


def grad_d_eps_sq(params: OperatorParams, zt, eps: float):
    """|grad_X d_eps|^2 = d^{4k} d_eps^{2-8k} |z|^{4k-2}."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    Z, T = zt
    k = params.k
    zn2, d4, de = _pieces(params, Z, T, eps)
    out = d4 * de ** (2.0 - 8.0 * k) * zn2 ** (2.0 * k - 1.0)
    return out


def lap_d4k(params: OperatorParams, zt):
    """sum_j X_j^2 (d_eps^{4k}) = 4k (4k - 2 + Q) |z|^{4k-2} (eps-free)."""
    Z, T = zt
    k, Q = params.k, params.Q
    zn2 = np.einsum("ni,ni->n", Z, Z)
    out = 4.0 * k * (4.0 * k - 2.0 + Q) * zn2 ** (2.0 * k - 1.0)
    return out


def lap_d_eps(params: OperatorParams, zt, eps: float):
    """sum_j X_j^2 d_eps, in the cancellation-free form
    d_eps^{1-4k} |z|^{4k-2} {4k + Q - 2 - (4k-1) d^{4k}/d_eps^{4k}}."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    Z, T = zt
    k, Q = params.k, params.Q
    zn2, d4, de = _pieces(params, Z, T, eps)
    brace = 4.0 * k + Q - 2.0 - (4.0 * k - 1.0) * d4 / de ** (4.0 * k)
    out = de ** (1.0 - 4.0 * k) * zn2 ** (2.0 * k - 1.0) * brace
    return out


def radial_L(params: OperatorParams, profile: RadialProfile, zt, eps: float):
    """L_{p,k} of f(d_eps) for a C^2 profile f, via the radial formula.

    The |grad_X d_eps|^p factor and the d^{4k} denominator are combined
    into explicit powers so nothing divides by d^{4k}.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    Z, T = zt
    k, p, Q = params.k, params.p, params.Q
    zn2, d4, de = _pieces(params, Z, T, eps)
    zpow = zn2 ** ((2.0 * k - 1.0) * p / 2.0)  # |z|^{(2k-1)p}
    grad_p = d4 ** (p / 2.0) * zpow * de ** ((1.0 - 4.0 * k) * p)
    # grad_p / d^{4k}, with the d^{4k} cancelled against d^{p/2 * 4k}
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_p_over_d4 = np.where(
            d4 > 0.0, d4 ** (p / 2.0 - 1.0), 0.0
        ) * zpow * de ** ((1.0 - 4.0 * k) * p)
    K_eps = (4.0 * k * p - 4.0 * k + Q - p) * float(eps) ** (4.0 * k)
    fp = profile.df(de)
    fpp = profile.d2f(de)
    degenerate = (np.abs(fp) < 1e-10) & (p < 2.0)
    if np.any(degenerate):
        warnings.warn(
            "radial profile has a critical point with p < 2; value continued by 0 there",
            DegenerateFluxWarning,
            stacklevel=2,
        )
        fp = np.where(degenerate, 1.0, fp)
    out = np.abs(fp) ** (p - 2.0) * (
        (p - 1.0) * fpp * grad_p
        + fp * ((Q - 1.0) * grad_p + K_eps * grad_p_over_d4) / de
    )
    if np.any(degenerate):
        out = np.where(degenerate, 0.0, out)
    return out


def psi_prefactor(params: OperatorParams) -> float:
    """The signed constant nu |nu|^{p-2} (4kp - 4k + Q - p) with
    nu = (p - Q)/(p - 1); negative for p < Q, positive for p > Q."""
    k, p, Q = params.k, params.p, params.Q
    if abs(p - Q) < 1e-12:
        raise ValueError("the scaling density is defined for p != Q")
    nu = (p - Q) / (p - 1.0)
    return nu * abs(nu) ** (p - 2.0) * (4.0 * k * p - 4.0 * k + Q - p)


def psi(params: OperatorParams, zt):
    """Scaling-limit density of L_{p,k} applied to the regularized
    fundamental-solution power:

        psi(z,t) = nu |nu|^{p-2} (4kp-4k+Q-p)
                   d^{2kp-4k} |z|^{(2k-1)p} / (1 + d^{4k})^{(4kp-p+Q)/(4k)},

    so that L_{p,k}(d_eps^{(p-Q)/(p-1)}) = eps^{-Q} psi(delta_{1/eps}(z,t)).
    Its group integral equals nu |nu|^{p-2} sigma_p.
    """
    Z, T = zt
    k, p, Q = params.k, params.p, params.Q
    pref = psi_prefactor(params)
    zn2, d4, _ = _pieces(params, Z, T, 0.0)
    zpow = zn2 ** ((2.0 * k - 1.0) * p / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dpow = np.where(d4 > 0.0, d4 ** ((2.0 * k * p - 4.0 * k) / (4.0 * k)), 0.0)
        out = pref * dpow * zpow / (1.0 + d4) ** ((4.0 * k * p - p + Q) / (4.0 * k))
    out = np.where((zn2 == 0.0), 0.0, out)
    return out


def psi_radial(params: OperatorParams, r):
    """psi(delta_r w) / psi(w) for w on the unit gauge sphere (d(w) = 1):
    |z| and d scale by r, so

        psi(delta_r w) = psi(w) r^{2kp-4k+(2k-1)p} (2 / (1 + r^{4k}))^{(4kp-p+Q)/(4k)}.
    """
    k, p, Q = params.k, params.p, params.Q
    r = np.asarray(r, dtype=float)
    return r ** (2.0 * k * p - 4.0 * k + (2.0 * k - 1.0) * p) * (2.0 / (1.0 + r ** (4.0 * k))) ** (
        (4.0 * k * p - p + Q) / (4.0 * k))


# ---------------------------------------------------------------------------
# Gamma-function constants


def _log_sigma(params: OperatorParams, p: float, beta: float) -> float:
    k, m, q, Q = params.k, params.m, params.q, params.Q
    gam = (2.0 * k - 1.0) * (p + beta)
    # the Gamma arguments must be positive: math.lgamma returns log|Gamma|
    # at negative non-integers instead of failing
    if not gam > -m:
        raise ValueError(f"sigma requires (2k-1)(p+beta) > -m = {-m}, got {gam}")
    return (
        (q - 0.5) * math.log(0.25)
        + 0.5 * (q + m) * math.log(math.pi)
        + math.lgamma((gam + m) / (4.0 * k))
        - math.lgamma(0.5 * m)
        - math.lgamma((gam + Q) / (4.0 * k))
    )


def sigma_p(params: OperatorParams) -> float:
    """sigma_p, the total mass constant of the scaling density (up to the
    sign prefactor); equals sphere_moment at gamma = (2k-1)p."""
    return math.exp(_log_sigma(params, params.p, 0.0))


def sigma_p_beta(params: OperatorParams) -> float:
    """sigma_{p,beta}: the gradient weight |grad_X d|^beta shifts the
    sphere-moment exponent from (2k-1)p to (2k-1)(p+beta)."""
    return math.exp(_log_sigma(params, params.p, params.beta))


def ball_moment(params: OperatorParams, gamma: float) -> float:
    """integral of |z|^gamma over the unit gauge ball {d < 1}; requires
    gamma > -m for integrability near {z = 0}."""
    k, m, q, Q = params.k, params.m, params.q, params.Q
    if not gamma > -m:
        raise ValueError(f"ball moment requires gamma > -m = {-m}, got {gamma}")
    lg = (
        (q - 1.0) * math.log(0.25)
        + 0.5 * (q + m) * math.log(math.pi)
        + math.lgamma((gamma + m) / (4.0 * k))
        - math.lgamma(0.5 * m)
        - math.lgamma((gamma + Q) / (4.0 * k))
    )
    return math.exp(lg) / (2.0 * (gamma + Q))


def sphere_moment(params: OperatorParams, gamma: float) -> float:
    """integral of |z|^gamma over the unit gauge sphere with respect to the
    polar-decomposition surface measure: (gamma + Q) * ball_moment(gamma)."""
    return (gamma + params.Q) * ball_moment(params, gamma)


# ---------------------------------------------------------------------------
# fundamental solutions


@dataclass(frozen=True)
class FundamentalSolutionSpec:
    """Shape of the fundamental solution: a power of d when the exponent
    p differs from the effective homogeneous dimension Q + alpha, and a
    logarithm exactly at p = Q + alpha."""

    kind: str  # "power" or "log"
    exponent: float
    constant: float

    def as_field(self, params: OperatorParams) -> ScalarField:
        if self.kind == "power":
            prof = power_profile(self.exponent, scale=self.constant)
        else:
            prof = log_profile(scale=self.constant)
        return profile_field(params, prof, eps=0.0)


def power_profile(exponent: float, scale: float = 1.0) -> RadialProfile:
    return RadialProfile(
        f=lambda x: scale * x**exponent,
        df=lambda x: scale * exponent * x ** (exponent - 1.0),
        d2f=lambda x: scale * exponent * (exponent - 1.0) * x ** (exponent - 2.0),
    )


def log_profile(scale: float = 1.0) -> RadialProfile:
    """scale * log(1/x)."""
    return RadialProfile(
        f=lambda x: -scale * np.log(x),
        df=lambda x: -scale / x,
        d2f=lambda x: scale / x**2,
    )


def fundamental_solution(params: OperatorParams, weighted: bool = False) -> FundamentalSolutionSpec:
    """The constant and exponent of the fundamental solution of L_{p,k}
    (or of the weighted operator when ``weighted``), normalized so the
    operator applied to it is the unit Dirac mass at the identity."""
    p, Q = params.p, params.Q
    alpha = params.alpha if weighted else 0.0
    beta = params.beta if weighted else 0.0
    if weighted:
        params.validate_weighted()
    crit = Q + alpha
    if abs(p - crit) < 1e-12:
        log_s = _log_sigma(params, crit, beta)
        constant = -math.exp(-log_s / (crit - 1.0))
        return FundamentalSolutionSpec(kind="log", exponent=0.0, constant=constant)
    log_s = _log_sigma(params, p, beta)
    constant = (p - 1.0) / (p - crit) * math.exp(-log_s / (p - 1.0))
    return FundamentalSolutionSpec(
        kind="power", exponent=(p - crit) / (p - 1.0), constant=constant
    )
