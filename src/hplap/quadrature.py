"""Deterministic-seeded randomized quasi-Monte Carlo and 1-D quadrature
over gauge shells.

The one region type is the gauge shell r_min <= d < r_max; a ball of
radius R is the shell with r_min = 0.  Candidates lie in the shell's
anisotropic bounding box: z in [-r_max, r_max]^m, |t_i| <= r_max^{2k}/4
(the ball d < r_max satisfies 16 |t|^2 < r_max^{4k}); those outside the
shell count as zeros.  A region's n candidates are REPLICATES = 64
replicates of the first N_r = n // 64 + (r < n % 64) points of the
Halton sequence in the first m + q primes, replicate r shifted mod 1 by
its own uniform Cranley-Patterson shift (Cranley & Patterson 1976; Owen,
*Monte Carlo theory, methods and examples*, ch. 17).  Each point of a
shifted set is uniform in the box, so each replicate's sample mean of
f * indicator is an unbiased estimate; the estimate is the mean of the
64 replicate estimates and its standard error comes from their spread
(the two-pass sample covariance over 64, which no large mean cancels).
The Halton points fill the box more evenly than independent draws, so at
m + q = 3 the error bar is several times smaller at the same candidate
count.  Several integrands evaluated as columns of one call share every
candidate (common random numbers); the Hardy suite and the sweep
evaluate a whole (p, alpha) grid on one set of candidates this way.

The shifts come from Philox, a counter-based PRNG; each region draws them
on its own substream, derived from the base seed with a distinct spawn
key, so identical (seed, region, n) reproduce bit-identical results.

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
by Neyman allocation (fewer candidates where a pilot on disjoint
substreams saw little variance), which reaches the error bar of an equal
split with fewer candidates when a few regions carry most of the
variance.
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

#: randomly shifted copies of a region's Halton points; the spread of
#: their estimates gives the standard error, with 63 degrees of freedom,
#: so a 3-sigma band covers 99.6% (99.73% for a known variance)
REPLICATES = 64

_CHUNK = 1 << 18
_SLICE = 1 << 17


@dataclass(frozen=True)
class ShellRegion:
    """The gauge shell r_min <= d < r_max; r_min = 0 gives the ball."""

    r_min: float
    r_max: float


def _primes(count: int) -> tuple:
    out = []
    c = 2
    while len(out) < count:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return tuple(out)


# the chunks of one region need at most two lengths
@functools.lru_cache(maxsize=2)
def _halton(n: int, dim: int) -> np.ndarray:
    """The first n points (index 0 first) of the Halton sequence in the
    first dim primes, as a read-only (n, dim) array.  The radical inverse
    in base b of i = b i' + d is (d + phi(i')) / b, so the values for
    0 .. b^{j+1} - 1 come from those for 0 .. b^j - 1 in one step."""
    out = np.empty((n, dim))
    for col, b in enumerate(_primes(dim)):
        phi = np.zeros(1)
        while len(phi) < n:
            phi = ((phi[:, None] + np.arange(b)) / b).ravel()
        out[:, col] = phi[:n]
    out.flags.writeable = False
    return out


def _shifted(H: np.ndarray, shifts: np.ndarray, n: int, half: float) -> np.ndarray:
    """n points of [-half, half)^dim: replicate r holds the first
    n // R + (r < n % R) rows of H shifted by shifts[r] mod 1, replicate
    after replicate (R = len(shifts))."""
    R, dim = shifts.shape
    N, big = divmod(n, R)
    w = 2.0 * half
    S = shifts * w - half
    out = np.empty((n, dim))
    head = big * (N + 1)
    if big:
        np.add(S[:big, None], H[None, : N + 1] * w, out=out[:head].reshape(big, N + 1, dim))
    np.add(S[big:, None], H[None, :N] * w, out=out[head:].reshape(R - big, N, dim))
    out -= (out >= half) * w
    return out


@dataclass(frozen=True)
class Sampler:
    """Reproducible randomized Halton candidates for a region: identical
    seed implies identical shifts and candidates."""

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

    def shifts(self) -> np.ndarray:
        """The region's REPLICATES Cranley-Patterson shifts, uniform in
        [0, 1)^{m+q}, from its Philox substream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.Philox(ss)).random((REPLICATES, self.alg.m + self.alg.q))

    def draw(self, n: int, shifts: Optional[np.ndarray] = None):
        """n box candidates and the region-membership mask: one replicate
        per row of shifts (default the region's), replicate r holding the
        first n // R + (r < n % R) Halton points shifted by shifts[r]
        mod 1, replicate after replicate."""
        shifts = self.shifts() if shifts is None else shifts
        zh, th = self._box()
        m, q = self.alg.m, self.alg.q
        R = len(shifts)
        H = _halton(n // R + (n % R > 0), m + q)
        Z = _shifted(H[:, :m], shifts[:, :m], n, zh)
        T = _shifted(H[:, m:], shifts[:, m:], n, th)
        zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
        mask = zn >= SINGULAR_Z_REJECT
        d = norm_d(self.params, (Z, T))
        mask &= (d >= self.region.r_min) & (d < self.region.r_max)
        return Z, T, mask


def mc_region_multi(sampler: Sampler, multi_fn: Callable, nf: int, n: int):
    """Unbiased estimates of several integrands over one region from n
    candidates, REPLICATES randomly shifted Halton sets (see
    :meth:`Sampler.draw`), shared by every integrand (common random
    numbers).

    multi_fn(Z, T) returns an (nf, len(Z)) array of integrand values.
    Candidates are drawn in chunks of whole replicates, at most _CHUNK
    candidates unless one replicate is larger, so they do not depend on
    nf; only the accepted ones are evaluated, in slices of at most
    _SLICE // nf points that may span replicates, and rejected candidates
    count as zeros.  Returns (values, covariance, accepted) where
    values[i], the mean of the replicate estimates, estimates integral i
    and covariance is that of values: the two-pass sample covariance of
    the replicate estimates divided by REPLICATES; accepted counts the
    candidates that fell in the region.
    """
    if n < REPLICATES:
        raise ValueError(f"{n} candidates cannot fill the {REPLICATES} replicates of an estimate")
    shifts = sampler.shifts()
    sizes = n // REPLICATES + (np.arange(REPLICATES) < n % REPLICATES)
    per = max(1, _CHUNK // int(sizes[0]))
    step = max(1, _SLICE // nf)
    sums = np.zeros((REPLICATES, nf))
    accepted = 0
    for r0 in range(0, REPLICATES, per):
        reps = np.arange(r0, min(r0 + per, REPLICATES))
        Z, T, mask = sampler.draw(int(sizes[reps].sum()), shifts[reps])
        # each accepted candidate's replicate, from each replicate's accepted
        # count; int8 holds REPLICATES <= 127
        kept = np.add.reduceat(mask, np.cumsum(sizes[reps]) - sizes[reps])
        label = np.repeat(np.arange(len(reps), dtype=np.int8), kept)
        Z, T = np.compress(mask, Z, axis=0), np.compress(mask, T, axis=0)
        for i in range(0, len(Z), step):
            vals = np.asarray(multi_fn(Z[i : i + step], T[i : i + step]), dtype=float).reshape(nf, -1)
            lab = label[i : i + step]
            # labels ascend, so each replicate's points are one run
            starts = np.flatnonzero(np.diff(lab, prepend=-1))
            sums[r0 + lab[starts]] += np.add.reduceat(vals, starts, axis=1).T
        accepted += len(Z)
    est = sampler.box_volume() * sums / sizes[:, None]
    mean = est.mean(axis=0)
    dev = est - mean
    return mean, dev.T @ dev / (REPLICATES * (REPLICATES - 1)), accepted


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
        last, c, _ = mc_region_multi(sampler, multi_fn, nf, n)
        vals += last
        cov += c
    return vals, cov, last


def neyman_counts(alg: HTypeAlgebra, params: OperatorParams, regions, f: Callable,
                  n: int, seed: int, spawn_key: tuple = ()) -> list:
    """Per-region candidate counts for :func:`integrate_shells` that give
    the sum over regions of f two thirds of the variance of an equal split
    of n per region, with the fewest candidates (Neyman allocation).

    A pilot of P = max(MIN_REGION_CANDIDATES, n // 64) candidates per
    region, region i on substream spawn_key + (i,), estimates the variance
    v_i of each region's estimate at P candidates.  Randomized Halton
    variance falls like n^-g with g = 1 + 1/(m + q), the rate for an
    integrand that jumps across a smooth boundary (here the shell's) in
    m + q dimensions, so region i at n_i candidates has variance
    v_i (P / n_i)^g.  The fewest candidates that reach the variance V have
    n_i proportional to v_i^{1/(1+g)}.  V is two thirds of the equal
    split's sum(v_i) (P / n)^g: every variance here is estimated from 64
    replicates, about 9% off in a standard error, and the margin keeps the
    allocated error bar below the equal split's despite that noise.  Every
    region gets at least P, so one whose pilot saw little variance is
    still sampled.  The caller keeps the pilot substreams disjoint from the
    main ones.
    """
    pilot = max(MIN_REGION_CANDIDATES, n // 64)
    v = np.empty(len(regions))
    for i, region in enumerate(regions):
        sampler = Sampler(alg, params, region, seed, spawn_key=spawn_key + (i,))
        _, c, _ = mc_region_multi(sampler, lambda Z, T: [f(Z, T)], 1, pilot)
        v[i] = c[0, 0]
    total = float(np.sum(v))
    if total == 0.0:
        return [pilot] * len(regions)
    g = 1.0 + 1.0 / (alg.m + alg.q)
    w = v ** (1.0 / (1.0 + g))
    scale = n * (1.5 * float(np.sum(w)) / total) ** (1.0 / g)
    return [max(pilot, math.ceil(scale * x)) for x in w]


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
