"""Deterministic-seeded Monte Carlo and 1-D quadrature over gauge shells.

The one region type is the gauge shell r_min <= d < r_max; a ball of
radius R is the shell with r_min = 0.  Monte Carlo estimates are
rejection-sampled from the shell's anisotropic bounding box: z in
[-r_max, r_max]^m, |t_i| <= r_max^{2k}/4 (the ball d < r_max satisfies
16 |t|^2 < r_max^{4k}).  Estimates are unbiased sample means of
f * indicator over the full candidate stream, with the usual standard
error, so identical (seed, region, n) reproduce bit-identical results.
Several integrands evaluated as columns of one call share every sample
(common random numbers); the Hardy suite and the sweep evaluate a whole
(p, alpha) grid on one sample this way.

The generator is Philox, a counter-based PRNG; each region draws on its
own substream, derived from the base seed with a distinct spawn key.

Candidates with |z| < 1e-12 are rejected so integrands with an
integrable singularity along {z = 0} (exponents > -m) can be sampled
safely; the induced bias is bounded by the measure of the excluded tube
(~ R^{Q-m} * 1e-12m) times the local integrand bound and is far below
the reported standard errors at the sample sizes used here.

Integrals over a union of shells (an innermost ball plus dyadic shells
2^a <= d < 2^{a+1}, or the dyadic split of a test function's support) go
through :func:`integrate_shells`: region i is drawn with its own
candidate count on substream spawn_key + (i,), values and covariances are
summed in region order, and the outermost region's values come back
separately as a tail diagnostic.  :func:`neyman_counts` sizes the regions
by Neyman allocation (counts proportional to each region's standard
deviation, estimated by a pilot on disjoint substreams), which reaches the
error bar of an equal split with fewer candidates when a few regions
carry most of the variance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import HTypeAlgebra, OperatorParams, norm_d

__all__ = [
    "mc_region_multi",
    "ShellRegion",
    "Sampler",
    "integrate_shells",
    "neyman_counts",
    "grid_integral_1d",
]

#: rejection radius around the center tube {z = 0}
SINGULAR_Z_REJECT = 1e-12

#: fewest candidates any region of a shell integral draws, whatever the
#: requested sample count
MIN_REGION_CANDIDATES = 2048

_CHUNK = 1 << 19
_SLICE = 1 << 17


@dataclass(frozen=True)
class ShellRegion:
    """The gauge shell r_min <= d < r_max; r_min = 0 gives the ball."""

    r_min: float
    r_max: float


@dataclass(frozen=True)
class Sampler:
    """Reproducible uniform sampler for a region: identical seed implies an
    identical candidate stream."""

    alg: HTypeAlgebra
    params: OperatorParams
    region: ShellRegion
    seed: int
    spawn_key: tuple = ()

    def _box(self):
        R = self.region.r_max
        return R, R ** (2.0 * self.params.k) / 4.0

    def box_volume(self) -> float:
        zh, th = self._box()
        return (2.0 * zh) ** self.alg.m * (2.0 * th) ** self.alg.q

    def stream(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.Philox(ss))

    def draw(self, n: int, rng: Optional[np.random.Generator] = None):
        """n uniform box candidates and the region-membership mask."""
        rng = rng or self.stream()
        zh, th = self._box()
        m, q = self.alg.m, self.alg.q
        Z = rng.uniform(-zh, zh, size=(n, m))
        T = rng.uniform(-th, th, size=(n, q))
        zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
        mask = zn >= SINGULAR_Z_REJECT
        d = norm_d(self.params, (Z, T))
        mask &= (d >= self.region.r_min) & (d < self.region.r_max)
        return Z, T, mask


def mc_region_multi(sampler: Sampler, multi_fn: Callable, nf: int, n: int):
    """Unbiased estimates of several integrands over one region, sharing
    the candidate stream (common random numbers).

    multi_fn(Z, T) returns an (nf, len(Z)) array of integrand values.
    Candidates are drawn in chunks of _CHUNK, so the stream does not
    depend on nf; only the accepted ones are evaluated, in slices of at
    most _SLICE // nf points, and rejected candidates count as zeros.
    Returns (values, covariance, n, accepted) where values[i] estimates
    integral i and covariance is that of the estimates (it already carries
    the 1/n factor).
    """
    vol = sampler.box_volume()
    rng = sampler.stream()
    step = max(1, _SLICE // nf)
    s1 = np.zeros(nf)
    s2 = np.zeros((nf, nf))
    accepted = 0
    remaining = n
    while remaining > 0:
        c = min(_CHUNK, remaining)
        Z, T, mask = sampler.draw(c, rng)
        Z, T = Z[mask], T[mask]
        for i in range(0, len(Z), step):
            vals = np.asarray(multi_fn(Z[i : i + step], T[i : i + step]), dtype=float).reshape(nf, -1)
            s1 += vals.sum(axis=1)
            s2 += vals @ vals.T
        accepted += len(Z)
        remaining -= c
    mean = s1 / n
    cov = (s2 / n - np.outer(mean, mean)) / max(n - 1, 1)
    return vol * mean, vol * vol * cov, n, accepted


def integrate_shells(alg: HTypeAlgebra, params: OperatorParams, regions, multi_fn: Callable,
                     nf: int, counts, seed: int, spawn_key: tuple = ()):
    """Sum of :func:`mc_region_multi` over regions, region i drawn with
    counts[i] candidates on substream spawn_key + (i,).

    Returns (values, covariance, last) with last the outermost region's
    values, so callers can check that a truncated tail has decayed.
    """
    vals = np.zeros(nf)
    cov = np.zeros((nf, nf))
    last = vals
    for i, (region, n) in enumerate(zip(regions, counts, strict=True)):
        sampler = Sampler(alg, params, region, seed, spawn_key=spawn_key + (i,))
        last, c, _, _ = mc_region_multi(sampler, multi_fn, nf, n)
        vals += last
        cov += c
    return vals, cov, last


def neyman_counts(alg: HTypeAlgebra, params: OperatorParams, regions, f: Callable,
                  n: int, seed: int, spawn_key: tuple = ()) -> list:
    """Per-region candidate counts for :func:`integrate_shells` that give
    the sum over regions of f the variance of an equal split of n per
    region, with the fewest candidates (Neyman allocation).

    A pilot of P = max(MIN_REGION_CANDIDATES, n // 64) candidates per
    region, region i on substream spawn_key + (i,), estimates each region's
    standard deviation sigma_i.  Neyman allocation n_i ~ sigma_i reaches
    the equal split's variance sum(sigma_i^2) / n at the total
    n sum(sigma)^2 / sum(sigma^2), so n_i = ceil(n sigma_i sum(sigma) /
    sum(sigma^2)); every region gets at least P, so one whose pilot saw
    little variance is still sampled.
    The caller keeps the pilot substreams disjoint from the main ones.
    """
    pilot = max(MIN_REGION_CANDIDATES, n // 64)
    sd = np.empty(len(regions))
    for i, region in enumerate(regions):
        sampler = Sampler(alg, params, region, seed, spawn_key=spawn_key + (i,))
        _, c, _, _ = mc_region_multi(sampler, lambda Z, T: [f(Z, T)], 1, pilot)
        sd[i] = math.sqrt(max(c[0, 0], 0.0))
    ss = float(np.sum(sd**2))
    if ss == 0.0:
        return [pilot] * len(regions)
    scale = n * float(np.sum(sd)) / ss
    return [max(pilot, math.ceil(scale * s)) for s in sd]


# a lambda, so that np.polynomial loads on first use and not with every command's imports
_leggauss = functools.lru_cache(lambda deg: np.polynomial.legendre.leggauss(deg))


def grid_integral_1d(profile: Callable, a: float, b: float, n: int = 2048):
    """Composite Gauss-Legendre integral of a continuous profile on [a, b];
    absolute error <= 1e-10 for smooth profiles at n = 2048 nodes.

    A profile that returns (c, N) values at N nodes gives the c integrals
    as an array, all on the same nodes; a scalar profile gives a float."""
    if not a < b:
        raise ValueError(f"grid_integral_1d requires a < b, got [{a}, {b}]")
    deg = 32
    panels = max(1, int(np.ceil(n / deg)))
    x, w = _leggauss(deg)
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    # nodes for all panels at once: (panels, deg)
    xs = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
    vals = np.asarray(profile(xs.ravel()))
    out = np.sum(half[:, None] * w[None, :] * vals.reshape(vals.shape[:-1] + (panels, deg)), axis=(-2, -1))
    return float(out) if out.ndim == 0 else out
