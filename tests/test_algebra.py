import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplap.algebra import (
    AlgebraValidationError,
    OperatorParams,
    bracket,
    from_j_matrices,
    j_map,
    make_heisenberg,
    make_quaternionic,
    norm_d,
    norm_d_eps,
    resolve_group,
)
from conftest import group_product, params_for

ALL_GROUPS = [make_heisenberg(1), make_heisenberg(2), make_heisenberg(3), make_quaternionic(1)]

TOL = 1e-12


def check_invariants(alg):
    eye = np.eye(alg.m)
    for i in range(alg.q):
        assert np.max(np.abs(alg.J[i] + alg.J[i].T)) <= TOL
        assert np.max(np.abs(alg.J[i] @ alg.J[i] + eye)) <= TOL
        for j in range(i + 1, alg.q):
            assert np.max(np.abs(alg.J[i] @ alg.J[j] + alg.J[j] @ alg.J[i])) <= TOL


@pytest.mark.parametrize("alg", ALL_GROUPS, ids=lambda a: f"m{a.m}q{a.q}")
def test_catalog_invariants(alg):
    check_invariants(alg)


def test_heisenberg_shapes():
    alg = make_heisenberg(1)
    assert (alg.m, alg.q) == (2, 1)
    assert np.allclose(alg.J[0] @ alg.J[0], -np.eye(2))
    e1, e2 = np.eye(2)
    b = bracket(alg, e1, e2)
    assert abs(abs(b[0]) - 1.0) <= TOL
    assert np.all(bracket(alg, e1, e1) == 0.0)


def test_heisenberg_orthogonal():
    alg = make_heisenberg(2)
    assert np.allclose(alg.J[0] @ alg.J[0].T, np.eye(4), atol=TOL)


def test_quaternionic_relations():
    alg = make_quaternionic(1)
    assert (alg.m, alg.q) == (4, 3)
    J1, J2, J3 = alg.J
    assert np.max(np.abs(J1 @ J2 + J2 @ J1)) <= TOL
    # J1 J2 = +/- J3 up to the chosen convention; verify by multiplying
    prod = J1 @ J2
    assert np.allclose(prod, J3, atol=TOL) or np.allclose(prod, -J3, atol=TOL)
    assert params_for(alg, k=1.0).Q == pytest.approx(10.0)


def test_from_j_matrices_valid():
    alg = from_j_matrices([np.array([[0.0, -1.0], [1.0, 0.0]])])
    assert (alg.m, alg.q) == (2, 1)


def test_from_j_matrices_skewness_error():
    with pytest.raises(AlgebraValidationError) as ei:
        from_j_matrices([np.eye(2)])
    assert ei.value.reason == "skewness"


def test_from_j_matrices_duplicate_anticommutation():
    J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(AlgebraValidationError) as ei:
        from_j_matrices([J1, J1])
    assert ei.value.reason == "anticommutation"
    assert ei.value.indices == (1, 2)


def test_resolve_group(tmp_path):
    assert resolve_group("heisenberg:2").m == 4
    assert resolve_group("quaternionic:1").q == 3
    path = tmp_path / "j.txt"
    path.write_text("0 -1\n1 0\n")
    alg = resolve_group(f"custom:{path}")
    assert (alg.m, alg.q) == (2, 1)
    with pytest.raises(ValueError):
        resolve_group("octonionic:1")
    with pytest.raises(ValueError):
        resolve_group("heisenberg")


def test_make_constructors_reject_zero():
    with pytest.raises(ValueError):
        make_heisenberg(0)
    with pytest.raises(ValueError):
        make_quaternionic(0)


@pytest.mark.parametrize("alg", ALL_GROUPS, ids=lambda a: f"m{a.m}q{a.q}")
def test_j_bracket_identities(alg, rng):
    # <J_t z, z> = 0 and |J_t z|^2 = |t|^2 |z|^2
    z = rng.standard_normal((200, alg.m))
    t = rng.standard_normal((200, alg.q))
    Jtz = j_map(alg, t, z)
    assert np.max(np.abs(np.einsum("ni,ni->n", Jtz, z))) <= 1e-10
    lhs = np.einsum("ni,ni->n", Jtz, Jtz)
    rhs = np.einsum("ni,ni->n", t, t) * np.einsum("ni,ni->n", z, z)
    assert np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-30)) <= TOL * 100


@pytest.mark.parametrize("alg", ALL_GROUPS, ids=lambda a: f"m{a.m}q{a.q}")
def test_bracket_trace_identity(alg, rng):
    # sum_j <J_{[z,e_j]} z, e_j> = q |z|^2
    z = rng.standard_normal((1000, alg.m))
    acc = np.zeros(len(z))
    for j in range(alg.m):
        ej = np.zeros(alg.m)
        ej[j] = 1.0
        tj = bracket(alg, z, np.broadcast_to(ej, z.shape))
        acc += np.einsum("ni,ni->n", j_map(alg, tj, z), np.broadcast_to(ej, z.shape))
    ref = alg.q * np.einsum("ni,ni->n", z, z)
    assert np.max(np.abs(acc - ref) / np.maximum(ref, 1e-30)) <= TOL * 100


def test_bracket_bilinear_antisymmetric(heis2, rng):
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    assert np.allclose(bracket(heis2, u, v), -bracket(heis2, v, u), atol=TOL)
    assert np.allclose(bracket(heis2, 2.0 * u, v), 2.0 * bracket(heis2, u, v), atol=TOL)
    assert np.max(np.abs(bracket(heis2, u, u))) <= TOL


def test_bracket_dimension_mismatch(heis1):
    with pytest.raises(ValueError):
        bracket(heis1, np.ones(3), np.ones(3))


@pytest.mark.parametrize("alg", ALL_GROUPS, ids=lambda a: f"m{a.m}q{a.q}")
def test_group_associativity(alg, rng):
    g, h, w = ((rng.standard_normal((100, alg.m)), rng.standard_normal((100, alg.q))) for _ in range(3))
    left = group_product(alg, group_product(alg, g, h), w)
    right = group_product(alg, g, group_product(alg, h, w))
    assert np.max(np.abs(left[0] - right[0])) <= 1e-12
    assert np.max(np.abs(left[1] - right[1])) <= 1e-12


def test_dilation_is_automorphism_for_k1(heis2, rng):
    # delta_lam(z, t) = (lam z, lam^{2k} t) with k = 1
    for lam in (0.5, 2.0, 3.7):
        (z, t), (w, s) = ((rng.standard_normal(4), rng.standard_normal(1)) for _ in range(2))
        lz, lt = group_product(heis2, (z, t), (w, s))
        rz, rt = group_product(heis2, (lam * z, lam**2 * t), (lam * w, lam**2 * s))
        assert np.allclose(lam * lz, rz, atol=1e-12)
        assert np.allclose(lam**2 * lt, rt, atol=1e-12)


@given(lam=st.floats(0.05, 20.0), k=st.sampled_from([1.0, 1.5, 2.0]))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneous_under_dilation(lam, k):
    alg = make_heisenberg(1)
    params = params_for(alg, k=k)
    rng = np.random.default_rng(7)
    z, t = rng.standard_normal(2), rng.standard_normal(1)
    scaled = (lam * z, lam ** (2.0 * k) * t)
    assert norm_d(params, scaled) == pytest.approx(lam * norm_d(params, (z, t)), rel=1e-12)


def _pt(z, t):
    return np.array(z, dtype=float), np.array(t, dtype=float)


def test_norm_values(heis1):
    params = params_for(heis1, k=1.0)
    assert norm_d(params, _pt([0.0, 0.0], [0.0])) == 0.0
    assert norm_d(params, _pt([1.0, 0.0], [0.0])) == pytest.approx(1.0)
    assert norm_d(params, _pt([0.0, 0.0], [0.25])) == pytest.approx(1.0)


def test_norm_eps(heis1):
    params = params_for(heis1, k=1.0)
    origin = _pt([0.0, 0.0], [0.0])
    assert norm_d_eps(params, origin, 1.0) == pytest.approx(1.0)
    g = _pt([0.7, -0.3], [0.2])
    k4 = 4.0 * params.k
    for eps in (0.5, 1.0, 2.0):
        gap = norm_d_eps(params, g, eps) ** k4 - norm_d(params, g) ** k4
        assert gap == pytest.approx(eps**k4, rel=1e-12)
    diffs = [norm_d_eps(params, g, 10.0**-a) - norm_d(params, g) for a in range(1, 7)]
    assert all(d >= 0 for d in diffs)
    # monotone decrease (the gap underflows to exactly 0 at tiny eps)
    assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[0] > diffs[1] > diffs[2]
    with pytest.raises(ValueError):
        norm_d_eps(params, g, 0.0)


def test_operator_params_validation(heis1):
    with pytest.raises(ValueError):
        params_for(heis1, k=0.5)
    with pytest.raises(ValueError):
        params_for(heis1, p=1.0)
    p = params_for(heis1, k=2.0)
    assert p.Q == pytest.approx(2 + 2 * 2.0 * 1)
    bad_alpha = params_for(heis1, k=1.0, alpha=-5.0)
    with pytest.raises(ValueError):
        bad_alpha.validate_weighted()
    bad_beta = params_for(heis1, k=1.0, beta=-4.0)
    with pytest.raises(ValueError):
        bad_beta.validate_weighted()
    params_for(heis1, k=1.0, alpha=1.0, beta=1.0).validate_weighted()
