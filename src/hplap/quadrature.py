"""Deterministic-seeded randomized quasi-Monte Carlo over the unit gauge
ball, polar integrals over gauge shells, the meridian rule on the unit
gauge sphere, and 1-D quadrature.

The one sampled region is the unit gauge ball d < 1.  A point u of
[0, 1)^{m+q} maps into it without rejection: z uniform in the unit
m-ball, |z| = max(u_1^{1/m}, 1e-12), a floor so that integrable
singularities on {z = 0} can be sampled; then |t|^q uniform on [0, b^q),
b = sqrt(1 - |z|^{4k})/4 the half-height of the ball above z; directions
use the remaining coordinates (:func:`_sphere`).  The point's weight is
the slice volume |B^m| |B^q| b^q, so weight * f has mean the integral of
f over the ball, with no jump at its boundary (conditioning on z; Owen,
*Monte Carlo theory, methods and examples*).  The weight depends on |z|
alone, so an integrand of |z| alone needs only u_1, the base-2 Halton
column, and draws nothing else (:meth:`Sampler.radii`).

A sample count n is a budget of bounding-box candidates: the ball draws
N = max(REPLICATES, ceil(rho n)) points, rho = |B_1| / 2^{m-q} the share
of the box |z_i| <= 1, |t_i| <= 1/4 that it fills.  They are REPLICATES
= 64 replicates, one contiguous block each, of the first N // 64 + (r <
N % 64) Halton points in the first m + q primes, replicate r shifted mod
1 by its own uniform Cranley-Patterson shift (Cranley & Patterson 1976).
Each replicate's mean of weight * f is an unbiased estimate; the
estimate is the mean of the 64 and its standard error comes from their
two-pass sample covariance, which no large mean cancels.  Integrands
evaluated as columns of one call share every point (common random
numbers).  The shifts come from Philox on the sampler's own substream of
the base seed, so identical (seed, spawn key, n) reproduce bit-identical
results.

:func:`mc_region_multi` estimates integrals over the ball, drawing its
points (or their radii alone) in chunks of whole replicates.
:func:`integrate_polar` integrates over a shell r0 <= d < r1 by the
polar formula, directions from the ball's points and the radius by
Gauss-Legendre panels.  :func:`meridian_integral` integrates functions
of |z_w| over the unit gauge sphere without sampling, along one meridian.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import HTypeAlgebra, OperatorParams, norm_d
from .closedform import ball_moment

__all__ = [
    "mc_region_multi",
    "Sampler",
    "integrate_polar",
    "total_stderr",
    "grid_integral_1d",
    "meridian_integral",
]

#: floor of the radius |z| of a point of the unit ball (the center tube
#: {z = 0}); a polar integral scales it with the radius
SINGULAR_Z_FLOOR = 1e-12

#: smallest budget that :func:`integrate_polar` spends on each dyadic
#: piece of its support, whatever the requested sample count
MIN_REGION_CANDIDATES = 2048

#: randomly shifted copies of a sampler's Halton points; the spread of
#: their estimates gives the standard error, with 63 degrees of freedom,
#: so a 3-sigma band covers 99.6% (99.73% for a known variance)
REPLICATES = 64

#: Gauss-Legendre nodes per radial panel of :func:`integrate_polar`
POLAR_NODES = 16

#: relative round-off floor of every quadrature term, which is never 0: the
#: 1-D radial rule meets a graded reference to 2.3e-15, the meridian rule
#: the closed-form sphere moments to 1.9e-15
QUAD_FLOOR = 1e-12

#: drawn coordinates, points x (m + q), of one chunk of mc_region_multi:
#: 512 KB per float64 array, unless one replicate is larger
_CHUNK = 1 << 16
_SLICE = 1 << 17


def _primes(count: int) -> tuple:
    out = []
    c = 2
    while len(out) < count:
        if all(c % p for p in out):
            out.append(c)
        c += 1
    return tuple(out)


# the chunks of one estimate need at most two lengths
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


def _shifted(H: np.ndarray, shifts: np.ndarray, n: int) -> np.ndarray:
    """n points of [0, 1)^dim: replicate r holds the first
    n // R + (r < n % R) rows of H shifted by shifts[r] mod 1, replicate
    after replicate (R = len(shifts))."""
    R, dim = shifts.shape
    N, big = divmod(n, R)
    out = np.empty((n, dim))
    head = big * (N + 1)
    if big:
        np.add(shifts[:big, None], H[None, : N + 1], out=out[:head].reshape(big, N + 1, dim))
    np.add(shifts[big:, None], H[None, :N], out=out[head:].reshape(R - big, N, dim))
    out -= out >= 1.0
    return out


def _pole(u: np.ndarray, n: int) -> np.ndarray:
    """The first coordinate x of a uniform point of S^{2n}, density
    proportional to (1 - x^2)^{n-1}: |x| solves G(|x|) = |2u - 1| for the
    normalised polynomial G(x) = int_0^x (1 - y^2)^{n-1} dy, rising and
    concave on [0, 1], so Newton's method from 0 cannot overshoot."""
    v = 2.0 * u - 1.0
    coef = np.array([math.comb(n - 1, j) * (-1.0) ** j / (2 * j + 1) for j in range(n)])
    coef /= coef.sum()
    x = np.zeros_like(v)
    for _ in range(200):
        slope = coef[0] * (1.0 - x * x) ** (n - 1)
        # Horner in x^2, highest coefficient first, as numpy's polyval
        y = x * x
        G = coef[-1] + y * 0
        for a in coef[-2::-1]:
            G = a + G * y
        G = x * G
        step = np.divide(np.abs(v) - G, slope, out=np.zeros_like(x), where=slope > 0.0)
        x += step
        if not np.max(step, initial=0.0) > 1e-15:
            break
    return np.copysign(np.minimum(x, 1.0), v)


def _sphere(U: np.ndarray, dim: int) -> np.ndarray:
    """Uniform points of S^{dim-1} from dim - 1 uniforms per row (one for
    dim = 1): S^0 is the sign of 2u - 1; on S^{2n-1} the squared moduli of
    n complex coordinates are uniform on the simplex by stick-breaking
    with the Beta(1, b) inverse CDF 1 - (1 - u)^{1/b}, with phases 2 pi u;
    on S^{2n}, x from :func:`_pole` (Archimedes at n = 1) and S^{2n-1}
    scaled by sqrt(1 - x^2)."""
    if dim == 1:
        return np.copysign(np.ones((len(U), 1)), U[:, :1] - 0.5)
    if dim % 2:
        x = _pole(U[:, 0], dim // 2)
        return np.hstack([x[:, None], _sphere(U[:, 1:], dim - 1) * np.sqrt(1.0 - x * x)[:, None]])
    n = dim // 2
    out = np.empty((len(U), dim))
    angle = 2.0 * np.pi * U[:, n - 1 :]
    np.cos(angle, out=out[:, 0::2])
    np.sin(angle, out=out[:, 1::2])
    rest = np.ones(len(U))
    for j in range(n - 1):
        s = rest * (1.0 - (1.0 - U[:, j]) ** (1.0 / (n - 1 - j)))
        rest -= s
        out[:, 2 * j : 2 * j + 2] *= np.sqrt(s)[:, None]
    out[:, -2:] *= np.sqrt(np.maximum(rest, 0.0))[:, None]
    return out


@dataclass(frozen=True)
class Sampler:
    """Reproducible randomized Halton points of the unit gauge ball and
    their slice weights: identical seed implies identical shifts and
    points."""

    alg: HTypeAlgebra
    params: OperatorParams
    seed: int
    spawn_key: tuple = ()

    def shifts(self) -> np.ndarray:
        """The sampler's REPLICATES Cranley-Patterson shifts, uniform in
        [0, 1)^{m+q}, from its Philox substream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.Philox(ss)).random((REPLICATES, self.alg.m + self.alg.q))

    def _slice(self, z4k: np.ndarray) -> np.ndarray:
        """b^q for the t-slice |t| < b of the ball above |z|^{4k} = z4k."""
        return (np.maximum(1.0 - z4k, 0.0) / 16.0) ** (0.5 * self.alg.q)

    def radii(self, n: int, shifts: Optional[np.ndarray] = None, dim: int = 1) -> tuple:
        """(U, |z|): the first dim coordinates U of n shifted Halton points,
        replicate r holding the first n // R + (r < n % R) points shifted by
        shifts[r] mod 1, replicate after replicate (R = len(shifts), default
        the sampler's), and their radii |z| = max(u_1^{1/m}, SINGULAR_Z_FLOOR)."""
        shifts = self.shifts() if shifts is None else shifts
        U = _shifted(_halton(n // len(shifts) + (n % len(shifts) > 0), dim), shifts[:, :dim], n)
        return U, np.maximum(U[:, 0] ** (1.0 / self.alg.m), SINGULAR_Z_FLOOR)

    def draw(self, n: int, shifts: Optional[np.ndarray] = None):
        """n points of the ball and their in-region mask (all True): those
        of :meth:`radii` in all m + q coordinates, mapped into the ball."""
        m, q = self.alg.m, self.alg.q
        U, rz = self.radii(n, shifts, m + q)
        Z = _sphere(U[:, 1:m], m)
        Z *= rz[:, None]
        tq = self._slice(rz ** (4.0 * self.params.k))
        # for q = 1, |2u - 1| and its sign give |t| and the sign of t
        tq *= np.abs(2.0 * U[:, m] - 1.0) if q == 1 else U[:, m]
        T = _sphere(U[:, m + (q > 1) : m + q], q)
        T *= (tq ** (1.0 / q))[:, None]
        return Z, T, np.ones(n, dtype=bool)

    def weights(self, Z: np.ndarray) -> np.ndarray:
        """Each point's weight, the volume |B^m| |B^q| b^q of the unit
        z-ball times the t-slice above z.  It depends on |z| alone, so the
        column rz[:, None] of the radii gives the same weights as Z."""
        m, q = self.alg.m, self.alg.q
        return self._slice(np.einsum("ni,ni->n", Z, Z) ** (2.0 * self.params.k)) * (
            math.pi ** (0.5 * (m + q)) / (math.gamma(0.5 * m + 1.0) * math.gamma(0.5 * q + 1.0)))


def _box_share(params: OperatorParams, inner: float = 0.0) -> float:
    """rho = |B_1| (1 - inner^Q) / 2^{m-q}, the share of its bounding box
    that the shell inner * r <= d < r fills (the ball at inner = 0)."""
    return ball_moment(params, 0.0) * (1.0 - inner**params.Q) / 2.0 ** (params.m - params.q)


def _replicate_sizes(params: OperatorParams, n: int) -> np.ndarray:
    """The points of each replicate that a budget of n candidates buys."""
    N = max(REPLICATES, math.ceil(_box_share(params) * n))
    return N // REPLICATES + (np.arange(REPLICATES) < N % REPLICATES)


def mc_region_multi(sampler: Sampler, multi_fn: Callable, nf: int, n: int, replicates: bool = False,
                    step: Optional[int] = None, shifts: Optional[np.ndarray] = None, radial: bool = False):
    """Unbiased estimates of several integrands over the unit ball from a
    budget of n candidates (N points, see the module docstring), REPLICATES
    randomly shifted Halton sets (see :meth:`Sampler.draw`), shared by
    every integrand (common random numbers).

    multi_fn(Z, T) returns an (nf, len(Z)) array of integrand values, or
    with radial=True multi_fn(rz) those of functions of |z| alone from the
    radii of the same points, drawing only their first coordinate
    (:meth:`Sampler.radii`).  Points are drawn in chunks of whole
    replicates, at most _CHUNK coordinates (points x (m + q)) unless one
    replicate is larger, so a draw's working set is at most max(_CHUNK
    values, one replicate) per array, whatever nf is; they are evaluated
    in slices of at most step points (default _SLICE // nf) that may span
    replicates, radial or not, so both ways sum in the same order.
    Returns (values, covariance) where values[i], the mean of the
    replicate estimates, estimates integral i, and covariance is that of
    values: the two-pass sample covariance of the replicate estimates
    divided by REPLICATES.  With replicates=True, returns the
    (REPLICATES, nf) replicate estimates themselves instead, whose column
    means are the values.  shifts, if given, are sampler.shifts() as the
    caller already holds them.
    """
    if n < REPLICATES:
        raise ValueError(f"{n} candidates cannot fill the {REPLICATES} replicates of an estimate")
    shifts = sampler.shifts() if shifts is None else shifts
    sizes = _replicate_sizes(sampler.params, n)
    per = max(1, _CHUNK // (int(sizes[0]) * (sampler.alg.m + sampler.alg.q)))
    step = max(1, _SLICE // nf) if step is None else step
    sums = np.zeros((REPLICATES, nf))
    for r0 in range(0, REPLICATES, per):
        reps = slice(r0, r0 + per)
        if radial:
            rz = sampler.radii(int(sizes[reps].sum()), shifts[reps])[1]
            points, w = (rz,), sampler.weights(rz[:, None])
        else:
            Z, T, _ = sampler.draw(int(sizes[reps].sum()), shifts[reps])
            points, w = (Z, T), sampler.weights(Z)
        starts = np.cumsum(sizes[reps]) - sizes[reps]  # each replicate is one run of points
        for i in range(0, len(w), step):
            vals = np.asarray(multi_fn(*(x[i : i + step] for x in points)), dtype=float).reshape(nf, -1)
            a = np.searchsorted(starts, i, side="right") - 1
            b = np.searchsorted(starts, i + vals.shape[1])
            sums[r0 + a : r0 + b] += np.add.reduceat(vals * w[i : i + step], np.maximum(starts[a:b] - i, 0), axis=1).T
    est = sums / sizes[:, None]
    if replicates:
        return est
    mean = est.mean(axis=0)
    dev = est - mean
    return mean, dev.T @ dev / (REPLICATES * (REPLICATES - 1))


def _legval(x: np.ndarray, c) -> np.ndarray:
    """sum_i c[i] P_i(x) over the Legendre polynomials P_i, by Clenshaw's
    recursion in the order of numpy.polynomial.legendre.legval."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache
def _leggauss(deg: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], bit for bit as
    numpy.polynomial.legendre.leggauss(deg) computes them: the eigenvalues
    of the symmetric companion matrix of P_deg, one Newton step, weights
    1 / (P_{deg-1} P_deg') at the nodes, symmetrised and scaled to sum 2.
    numpy's companion matrix also subtracts c[:-1] / c[-1] * ... from its
    last column, which is 0 for P_deg and changes no entry."""
    scl = 1.0 / np.sqrt(2 * np.arange(deg) + 1)
    mat = np.zeros((deg, deg))
    top = np.arange(1, deg) * scl[: deg - 1] * scl[1:deg]
    mat.reshape(-1)[1 :: deg + 1] = top
    mat.reshape(-1)[deg :: deg + 1] = top
    x = np.linalg.eigvalsh(mat)
    c = [0.0] * deg + [1.0]
    # P_deg' = sum of (2j + 1) P_j over j = deg - 1, deg - 3, ...
    dy, df = _legval(x, c), _legval(x, [2.0 * j + 1.0 if (deg - 1 - j) % 2 == 0 else 0.0 for j in range(deg)])
    x -= dy / df
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def dyadic_edges(r0: float, r1: float) -> np.ndarray:
    """Edges r0, 2 r0, 4 r0, ..., r1 of the dyadic split of [r0, r1]
    (the last piece partial).  The octaves are counted as log2 r1 -
    log2 r0 and the edges scaled by ldexp, which stay finite where
    r1 / r0 or 2^octaves overflows."""
    return np.append(np.ldexp(r0, np.arange(max(1, math.ceil(math.log2(r1) - math.log2(r0))))), r1)


def integrate_polar(alg: HTypeAlgebra, params: OperatorParams, edges, multi_fn: Callable, nf: int, n: int,
                    seed: int, spawn_key: tuple = ()):
    """Integrals over the shell edges[0] <= d < edges[-1] by the polar
    formula int f = int_S int_0^inf f(delta_r w) r^{Q-1} dr dsigma(w)
    (Folland & Stein, *Hardy Spaces on Homogeneous Groups*, Prop. 1.15).

    Directions w = delta_{1/d(x)} x, x from the unit ball's map on
    substream spawn_key: the inner integral h(w(x)) has degree 0 in x, so
    int_S h dsigma = Q int_{B_1} h(w(x)) dx, estimated by
    :func:`mc_region_multi` with no radial variance.  Radius: POLAR_NODES
    Gauss-Legendre nodes r per panel [edges[i], edges[i + 1]], which
    should end where an integrand is not smooth, with weights
    c = Q w r^{Q-1}.  multi_fn(Z, T, r, c) -> (nf, len(Z)) gets directions
    Z, T on the unit gauge sphere (d = 1) and returns column i as
    sum_j f_i(delta_{r_j} w) c_j, so a field of known degree under delta_r
    is evaluated once per direction and its profile once per node.  Each
    call gets at most _SLICE // len(r) directions: a directions x nodes
    array holds at most _SLICE elements, whatever nf is.

    Budget: n candidates split evenly over the dyadic pieces [a, b) of
    the support, n_per = max(MIN_REGION_CANDIDATES, ceil(n / pieces))
    each, buy max(REPLICATES, ceil(rho n_per)) points per piece, rho =
    |B_1| (1 - (a / b)^Q) / 2^{m-q} the share of the piece's bounding box
    that it fills; they are spent as max(REPLICATES, points // nodes)
    directions.

    Returns (estimates, gain): the (REPLICATES, nf) replicate estimates
    of mc_region_multi, whose column means are the integrals, and column
    by column the ratio of a 2 POLAR_NODES-node to the POLAR_NODES-node
    estimate on the points of replicate 0: the coarse one is est[0], and
    the finer rule costs one more pass over those points (1/64 of the
    directions at twice the nodes), drawn from the shift that the main
    pass holds.  An integral, or a ratio of two (gain_L / gain_R), then
    has the quadrature term of :func:`total_stderr`.
    """
    edges = np.asarray(edges, dtype=float)
    Q, k = params.Q, params.k
    dyadic = dyadic_edges(edges[0], edges[-1])
    n_per = max(MIN_REGION_CANDIDATES, math.ceil(n / (len(dyadic) - 1)))
    points = sum(max(REPLICATES, math.ceil(_box_share(params, a / b) * n_per)) for a, b in zip(dyadic, dyadic[1:]))
    directions = max(REPLICATES, points // (POLAR_NODES * (len(edges) - 1)))

    def along_rays(deg):
        """(h, per): h(Z, T) -> (nf, len(Z)), the radial rule of deg nodes per panel along the directions of Z, T,
        which passes multi_fn at most per directions per call."""
        x, w = _leggauss(deg)
        lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
        r = (lo + half * (x + 1.0)).ravel()
        c = Q * (half * w).ravel() * r ** (Q - 1.0)
        per = max(1, _SLICE // len(r))

        def h(Z, T):
            d = norm_d(params, (Z, T))
            Z, T = Z / d[:, None], T / (d ** (2.0 * k))[:, None]
            return np.hstack([np.asarray(multi_fn(Z[i : i + per], T[i : i + per], r, c), dtype=float).reshape(nf, -1)
                              for i in range(0, len(Z), per)])

        return h, per

    sampler = Sampler(alg, params, seed, spawn_key)
    shifts = sampler.shifts()
    h, per = along_rays(POLAR_NODES)
    n_main = math.ceil(directions / _box_share(params))
    est = mc_region_multi(sampler, h, nf, n_main, replicates=True, step=per, shifts=shifts)
    size = int(_replicate_sizes(params, n_main)[0])
    Z, T, _ = sampler.draw(size, shifts[:1])
    fine = along_rays(2 * POLAR_NODES)[0](Z, T) @ sampler.weights(Z) / size
    return est, np.divide(fine, est[0], out=np.ones(nf), where=est[0] != 0.0)


def total_stderr(var, value, gain):
    """sqrt(var + quad^2): the replicates' variance var of an estimate
    value (0 for a rule that samples nothing) and its quadrature term
    quad = 2 |value| |gain - 1|, twice the change of value under the
    finer rule, floored at QUAD_FLOOR |value|.  Doubling the change bounds
    the error of the coarser rule wherever doubling its nodes at least
    halves that error.  The change alone falls short: next to a kink of
    |.|^{3/2} at a panel edge the error of the rule shrinks only about
    32-fold per doubling, and on the radial corpus the change read up to
    11% below the error."""
    quad = np.abs(value) * np.maximum(2.0 * np.abs(gain - 1.0), QUAD_FLOOR)
    return np.sqrt(np.maximum(var, 0.0) + quad * quad)


def _quintic(x: np.ndarray) -> tuple:
    """(q, q') of the quintic step q(x) = x^3 (10 - 15 x + 6 x^2) on [0, 1],
    continued by 0 below and 1 above."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2), 30.0 * x**2 * (1.0 - x) ** 2


def _grid_rule(edges) -> tuple:
    """The nodes and weights of :func:`grid_integral_1d` on the increasing
    edges, panel after panel."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or not np.all(edges[1:] > edges[:-1]):
        raise ValueError(f"grid_integral_1d requires increasing edges, got {edges}")
    x, w = _leggauss(32)
    q, dq = _quintic(0.5 * (x + 1.0))
    width = np.diff(edges)[:, None]
    return (edges[:-1, None] + width * q).ravel(), (width * (0.5 * w * dq)).ravel()


def grid_integral_1d(profile: Callable, edges):
    """Integral of a profile over [edges[0], edges[-1]] by 32 Gauss-Legendre
    nodes per panel [a, b] of the increasing edges, after the substitution
    x = a + (b - a) q(t) by the quintic step q, weights (b - a) q'(t) w / 2.
    q' has double zeros at both ends, so a factor |x - a|^g at a panel end
    becomes t^{3g+2} times a smooth factor, which the rule integrates to
    round-off: panels that end at every non-smooth point of a profile need
    no refinement (Sidi, ISNM 112, 1993).

    Every panel is evaluated in one profile call.  A profile that returns
    (c, N) values at N nodes gives the c integrals as an array, all on the
    same nodes; a scalar profile gives a float."""
    x, w = _grid_rule(edges)
    out = np.sum(np.asarray(profile(x)) * w, axis=-1)
    return float(out) if out.ndim == 0 else out


def _halved(edges) -> np.ndarray:
    """The edges (an array) with the midpoint of every panel added between them."""
    return np.append(np.column_stack([edges[:-1], 0.5 * (edges[:-1] + edges[1:])]).ravel(), edges[-1])


#: v panels of the meridian rule, graded dyadically toward v = 1 (theta = 0)
_MERIDIAN_EDGES = np.append(1.0 - 0.5 ** np.arange(6), 1.0)


def _meridian_rule(alg: HTypeAlgebra, params: OperatorParams, g: Callable, halved: bool = False):
    """The theta integral of :func:`meridian_integral`, its Jacobian and
    scale, by :func:`grid_integral_1d` on the meridian's panels (halved, if
    halved): the values alone, g evaluated once at all nodes.  It
    integrates in v, theta = (pi/2)(1 - v^{2k}): the Jacobian
    cos^{m/(2k)-1} theta (singular at pi/2 where m < 2k) becomes v^{m-1}
    times a smooth factor and |z_w| ~ v, so weak powers of |z_w| are met
    at round-off."""
    m, q, k = alg.m, alg.q, params.k
    scale = 4.0**-q * math.prod(2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n) for n in (m, q))
    a = 0.5 * m / k

    def profile(v):
        u = 0.5 * math.pi * v ** (2.0 * k)  # pi/2 - theta; sin u = u sinc(u)
        cos, sin = np.sin(u), np.cos(u)
        Z, T = np.zeros((len(v), m)), np.zeros((len(v), q))
        Z[:, 0], T[:, 0] = cos ** (0.5 / k), 0.25 * sin
        jacobian = 2.0 * k * (0.5 * math.pi) ** a * v ** (m - 1.0) * np.sinc(u / math.pi) ** (a - 1.0)
        return np.asarray(g(Z, T)) * (jacobian * sin ** (q - 1.0))

    return scale * grid_integral_1d(profile, _halved(_MERIDIAN_EDGES) if halved else _MERIDIAN_EDGES)


def meridian_integral(alg: HTypeAlgebra, params: OperatorParams, g: Callable):
    """Integrals over the unit gauge sphere (the measure of
    :func:`integrate_polar`) of functions g of |z_w|: with X = |z|^{2k} =
    cos theta, Y = 4|t| = sin theta and |S^0| = 2, int_S g dsigma =
    |S^{m-1}| |S^{q-1}| 4^{-q} int_0^{pi/2} g(w_theta) cos^{m/(2k)-1} theta
    sin^{q-1} theta dtheta, g(Z, T) -> (c, n) evaluated at the meridian
    points z = cos^{1/(2k)} theta e_1, t = (sin theta / 4) f_1.  The theta
    integral is :func:`grid_integral_1d` in v, theta = (pi/2)(1 - v^{2k}),
    on 6 panels (see :func:`_meridian_rule`).  Returns (values, gain) as
    :func:`integrate_polar` does, gain from halved panels."""
    values, fine = (_meridian_rule(alg, params, g, halved) for halved in (False, True))
    return values, np.divide(fine, values, out=np.ones_like(values), where=values != 0.0)
