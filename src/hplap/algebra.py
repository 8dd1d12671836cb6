"""H-type group algebra: J-maps, bracket, gauge norm, group catalog.

An H-type algebra is a step-two nilpotent Lie algebra V + t (dim V = m,
dim t = q) carrying skew maps J_1, ..., J_q on V, one per orthonormal
basis vector of the center, with

    J_i^T = -J_i,   J_i^2 = -Id,   J_i J_j + J_j J_i = -2 delta_ij Id.

Equivalently J_t^2 = -|t|^2 Id for every t in the center.  The bracket is
recovered from the J's via <J_t u, v> = <t, [u, v]>, and the group law in
exponential coordinates is (u, t)(v, s) = (u + v, t + s + [u, v]/2).

Everything downstream (vector fields, p-Laplacians, fundamental
solutions, Hardy constants) depends on the J's only through these
relations, so any concrete representation satisfying them is as good as
any other.  The two built-in families are:

* ``make_heisenberg(n)``  -- m = 2n, q = 1, J_1 the standard symplectic
  matrix (J_1 e_j = e_{n+j}, J_1 e_{n+j} = -e_j);
* ``make_quaternionic(n)`` -- m = 4n, q = 3, J_1, J_2, J_3 the left
  multiplications by the quaternion units i, j, k on H^n = R^{4n}.

The family of anisotropic dilations attached to the field parameter
k >= 1 is delta_lam(z, t) = (lam z, lam^{2k} t), and the gauge norm is

    d(z, t) = (|z|^{4k} + 16 |t|^2)^{1/(4k)},

homogeneous of degree one under delta_lam.  Volume scales as lam^Q with
Q = m + 2kq.  For k != 1 the dilations are plain coordinate scalings
attached to the operator; they are group automorphisms only for k = 1.

The group law and the dilations are mathematics here, not API: points
are (z, t) pairs of coordinate arrays of widths m and q.  All types are
immutable and all operations are pure functions; vector arguments may
carry leading batch axes.  Matrices are dense; m, q are
assumed to be desk-scale (<= 64), which the catalog families enforce
for m.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AlgebraValidationError",
    "HTypeAlgebra",
    "OperatorParams",
    "make_heisenberg",
    "make_quaternionic",
    "from_j_matrices",
    "resolve_group",
    "bracket",
    "j_map",
    "norm_d",
    "norm_d_eps",
]

#: absolute tolerance for the J-map invariants (~100x unit roundoff at
#: desk-scale dimensions)
INVARIANT_TOL = 1e-12


class AlgebraValidationError(ValueError):
    """A proposed J-map family violates an H-type invariant.

    Attributes
    ----------
    reason : one of {"shape", "skewness", "square", "anticommutation"}
    indices : offending matrix index or index pair (1-based)
    """

    def __init__(self, reason: str, indices: tuple, message: str):
        super().__init__(message)
        self.reason = reason
        self.indices = indices


@dataclass(frozen=True)
class HTypeAlgebra:
    """Concrete H-type algebra: horizontal dimension m, center dimension q,
    and the stacked J-map matrices with shape (q, m, m)."""

    m: int
    q: int
    J: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "J", np.asarray(self.J, dtype=float))
        if self.J.shape != (self.q, self.m, self.m):
            raise AlgebraValidationError(
                "shape", (), f"J must have shape ({self.q}, {self.m}, {self.m}), got {self.J.shape}"
            )
        self.J.setflags(write=False)


@dataclass(frozen=True)
class OperatorParams:
    """Parameters (k, p, alpha, beta) of the fields/operators plus the ambient
    dimensions, with the homogeneity degree Q = m + 2kq attached.

    k >= 1 is the field-deformation parameter, p > 1 the p-Laplacian
    exponent, alpha the norm-power weight exponent and beta the
    gradient-weight exponent of w = d^alpha |grad_X d|^beta.
    """

    k: float
    p: float
    m: int
    q: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("k", "p", "alpha", "beta", "Q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite, got {name}={getattr(self, name)}")
        if not self.k >= 1:
            raise ValueError(f"field parameter k must satisfy k >= 1, got k={self.k}")
        if not self.p > 1:
            raise ValueError(f"exponent p must satisfy p > 1, got p={self.p}")

    @property
    def Q(self) -> float:
        return self.m + 2.0 * self.k * self.q

    @classmethod
    def of(cls, alg: HTypeAlgebra, k: float, p: float, alpha: float = 0.0, beta: float = 0.0):
        return cls(k=k, p=p, m=alg.m, q=alg.q, alpha=alpha, beta=beta)

    def beta_lower_bound(self) -> float:
        """Admissible range of the gradient-weight exponent: beta must exceed
        max{(1-Q)/(4k-1), -m/(2k-1) - 1}."""
        return max((1.0 - self.Q) / (4.0 * self.k - 1.0), -self.m / (2.0 * self.k - 1.0) - 1.0)

    def validate_weighted(self) -> None:
        """Check the hypotheses of the weighted-operator results:
        alpha > -m - 2kq and beta above its lower bound."""
        if not self.alpha > -self.Q:
            raise ValueError(
                f"weight exponent alpha={self.alpha} violates alpha > -m - 2kq = {-self.Q}"
            )
        lb = self.beta_lower_bound()
        if not self.beta > lb:
            raise ValueError(
                f"gradient-weight exponent beta={self.beta} violates "
                f"beta > max{{(1-Q)/(4k-1), -m/(2k-1)-1}} = {lb}"
            )


# ---------------------------------------------------------------------------
# constructors


def _validate_j(J: np.ndarray) -> None:
    q, m, _ = J.shape
    eye = np.eye(m)
    for i in range(q):
        if np.max(np.abs(J[i] + J[i].T)) > INVARIANT_TOL:
            raise AlgebraValidationError(
                "skewness", (i + 1,), f"J_{i + 1} is not skew-symmetric"
            )
        if np.max(np.abs(J[i] @ J[i] + eye)) > INVARIANT_TOL:
            raise AlgebraValidationError(
                "square", (i + 1,), f"J_{i + 1}^2 != -Id"
            )
    for i in range(q):
        for j in range(i + 1, q):
            if np.max(np.abs(J[i] @ J[j] + J[j] @ J[i])) > INVARIANT_TOL:
                raise AlgebraValidationError(
                    "anticommutation",
                    (i + 1, j + 1),
                    f"J_{i + 1} J_{j + 1} + J_{j + 1} J_{i + 1} != 0 for pair ({i + 1}, {j + 1})",
                )


def from_j_matrices(J: Sequence[np.ndarray]) -> HTypeAlgebra:
    """Build and validate an algebra from a list of q real m x m matrices.

    Raises :class:`AlgebraValidationError` naming the violated invariant
    (skewness / square / anticommutation) and the offending indices.
    """
    Jarr = np.asarray(J, dtype=float)
    if Jarr.ndim != 3 or Jarr.shape[1] != Jarr.shape[2]:
        raise AlgebraValidationError(
            "shape", (), f"expected a list of square matrices of equal size, got shape {Jarr.shape}"
        )
    _validate_j(Jarr)
    return HTypeAlgebra(m=Jarr.shape[1], q=Jarr.shape[0], J=Jarr)


def make_heisenberg(n: int) -> HTypeAlgebra:
    """Heisenberg-type algebra with m = 2n, q = 1.

    Convention: J_1 = [[0, -I_n], [I_n, 0]], i.e. J_1 e_j = e_{n+j} and
    J_1 e_{n+j} = -e_j.
    """
    if not 1 <= n <= 32:
        raise ValueError(f"n must be an integer in 1..32 (m = 2n <= 64), got {n}")
    Z = np.zeros((n, n))
    eye = np.eye(n)
    J1 = np.block([[Z, -eye], [eye, Z]])
    return HTypeAlgebra(m=2 * n, q=1, J=J1[None, :, :])


# Left multiplications by the quaternion units i, j, k on one copy of the
# quaternions R^4 = {a + bi + cj + dk}, coordinates ordered (a, b, c, d).
_QUAT_LI = np.array(
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float
)
_QUAT_LJ = np.array(
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
)
_QUAT_LK = np.array(
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float
)


def make_quaternionic(n: int) -> HTypeAlgebra:
    """Quaternionic Heisenberg-type algebra with m = 4n, q = 3.

    J_1, J_2, J_3 are block-diagonal copies of the left multiplications by
    i, j, k; they anticommute and satisfy J_1 J_2 = J_3.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"n must be an integer in 1..16 (m = 4n <= 64), got {n}")
    eye_n = np.eye(n)
    J = np.stack(
        [np.kron(eye_n, L) for L in (_QUAT_LI, _QUAT_LJ, _QUAT_LK)], axis=0
    )
    return HTypeAlgebra(m=4 * n, q=3, J=J)


def _parse_matrix_file(path: str) -> list[np.ndarray]:
    """Plain-text matrix list: one matrix per blank-line-separated block,
    rows as whitespace-separated numbers."""
    with open(path) as fh:
        text = fh.read()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    mats = []
    for b in blocks:
        rows = [
            [float(x) for x in line.split()]
            for line in b.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        mats.append(np.array(rows, dtype=float))
    if not mats:
        raise ValueError(f"no matrices found in {path}")
    return mats


def resolve_group(group_id: str) -> HTypeAlgebra:
    """Group catalog: "heisenberg:n", "quaternionic:n" or "custom:<file>"."""
    kind, sep, arg = group_id.partition(":")
    if not sep:
        raise ValueError(f"malformed group id {group_id!r}; expected '<kind>:<arg>'")
    if kind == "heisenberg":
        return make_heisenberg(int(arg))
    if kind == "quaternionic":
        return make_quaternionic(int(arg))
    if kind == "custom":
        if not os.path.exists(arg):
            raise ValueError(f"custom group file not found: {arg}")
        return from_j_matrices(_parse_matrix_file(arg))
    raise ValueError(f"unknown group id {group_id!r} (try heisenberg:n, quaternionic:n, custom:<file>)")


# ---------------------------------------------------------------------------
# algebra operations and the gauge (vector args may carry leading batch axes)


def j_map(alg: HTypeAlgebra, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """J_t u = sum_i t_i J_i u."""
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    return np.einsum("...i,iab,...b->...a", t, alg.J, u)


def bracket(alg: HTypeAlgebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Center-valued bracket [u, v], with components <J_i u, v>."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != alg.m or v.shape[-1] != alg.m:
        raise ValueError(f"horizontal vectors must have length m={alg.m}")
    return np.einsum("iab,...b,...a->...i", alg.J, u, v)


def gauge4k(params: OperatorParams, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d^{4k} = |z|^{4k} + 16 |t|^2, the polynomial gauge."""
    z2 = np.einsum("...i,...i->...", z, z)
    t2 = np.einsum("...i,...i->...", t, t)
    return z2 ** (2.0 * params.k) + 16.0 * t2


def norm_d(params: OperatorParams, zt) -> np.ndarray:
    """Gauge norm d(z, t) = (|z|^{4k} + 16 |t|^2)^{1/(4k)}."""
    z, t = zt
    return gauge4k(params, z, t) ** (0.25 / params.k)


def norm_d_eps(params: OperatorParams, zt, eps: float) -> np.ndarray:
    """Regularized norm d_eps = (d^{4k} + eps^{4k})^{1/(4k)}, eps > 0."""
    if not eps > 0:
        raise ValueError(f"regularization eps must be positive, got {eps}")
    z, t = zt
    return (gauge4k(params, z, t) + eps ** (4.0 * params.k)) ** (0.25 / params.k)
