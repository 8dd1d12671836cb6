import math
import tracemalloc
import warnings
from collections import Counter
from functools import cache
from itertools import groupby
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hplap import cli
from hplap import closedform as cf
from hplap.algebra import OperatorParams, make_heisenberg, norm_d, resolve_group
from hplap.fields import NearSingularWarning, euclid_gradient, horizontal_gradient_batch
from hplap import quadrature
from hplap import verify as verify_mod
from hplap.quadrature import REPLICATES, Sampler, dyadic_edges, integrate_polar, mc_region_multi
from hplap.report import CheckRecord, VerificationReport, from_kv, to_kv
from hplap.verify import (
    _panel_edges,
    _radial_1d_batch,
    AngularModulation,
    HardyTestFunction,
    SuiteConfig,
    annulus_bump,
    build_hardy_corpus,
    hardy_ratio,
    run_suite,
    sample_gauge_points,
    sharp_hardy_constant,
    sharpness_test_function,
    verify_fundamental_solution,
    verify_lemma1,
    verify_moments,
    verify_uncertainty,
)
from conftest import (at_real_points, graded_radial_reference, octonion_units, params_for, real_points,
                      searched_panel_edges, with_kinks)

FAST = dict(n_samples=40_000, corpus_samples=8_000)


# ------------------------------------------------------------------ reports


def _sample_report():
    rep = VerificationReport(suite="demo", group="heisenberg:1", config={"k": 1.0, "p": 2.0, "note": "x"})
    rep.add_deterministic("a", 1e-9, 1e-6)
    rep.add_stochastic("b", 1.01, 1.0, 0.02)
    rep.add_bound("c", 2.0, 1.0, "above", stderr=0.1, nsigma=3.0)
    rep.add_bound("d", 2.0, 1.0, "below")
    return rep


def test_report_overall_is_conjunction():
    rep = _sample_report()
    assert rep.overall_pass is False  # "d" fails
    assert [c.passed for c in rep.checks] == [True, True, True, False]


def test_kv_round_trip():
    rep = _sample_report()
    text = to_kv(rep)
    back = from_kv(text)
    assert to_kv(back) == text
    assert back.suite == rep.suite and back.group == rep.group
    assert back.config == rep.config
    assert back.checks == rep.checks
    assert back.overall_pass == rep.overall_pass


def test_kv_schema_complete():
    text = to_kv(_sample_report())
    for fieldname in ("check_id", "kind", "observed", "target", "tolerance", "stderr", "margin", "passed"):
        assert f"check.0.{fieldname} = " in text
    assert "wall_time" not in text  # console-only


@given(
    observed=st.floats(allow_nan=False, allow_infinity=False, width=64),
    target=st.floats(allow_nan=False, allow_infinity=False, width=64),
    stderr=st.floats(min_value=0, max_value=1e300),
    passed=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_kv_round_trip_property(observed, target, stderr, passed):
    rep = VerificationReport(suite="s", group="heisenberg:1", config={"k": 1.5})
    rep.add(
        CheckRecord(
            check_id="x",
            kind="stochastic",
            observed=observed,
            target=target,
            tolerance=3.0,
            stderr=stderr,
            margin=observed - target,
            passed=passed,
        )
    )
    assert to_kv(from_kv(to_kv(rep))) == to_kv(rep)


def test_malformed_kv_rejected():
    with pytest.raises(ValueError):
        from_kv("not a report")


# -------------------------------------------------------------- determinism


def test_suite_reports_are_bit_identical():
    cfg = SuiteConfig(group="heisenberg:1", k=1.0, p=2.0, **FAST)
    a = to_kv(verify_lemma1(cfg))
    b = to_kv(verify_lemma1(SuiteConfig(group="heisenberg:1", k=1.0, p=2.0, **FAST)))
    assert a == b
    c = to_kv(verify_moments(cfg))
    d = to_kv(verify_moments(SuiteConfig(group="heisenberg:1", k=1.0, p=2.0, **FAST)))
    assert c == d
    e = to_kv(verify_moments(SuiteConfig(group="heisenberg:1", k=1.0, p=2.0, seed=999, **FAST)))
    assert e != c


def test_run_suite_dispatch():
    cfg = SuiteConfig(**FAST)
    rep = run_suite("lemma1", cfg)
    assert rep.suite == "lemma1"
    with pytest.raises(ValueError):
        run_suite("nope", cfg)


# ------------------------------------------------------------ FD diagnostics


def test_fd_refinement_order(heis1, rng):
    # identity residuals shrink under step refinement at the order of the
    # second-order scheme: Richardson ratio over h, h/2 gives >= 1.8
    # observed order once h is large enough for truncation to dominate
    from hplap.verify import fd_grad_d_eps

    params = params_for(heis1, k=1.5)
    Z, T = sample_gauge_points(heis1, params, 40, rng, d_range=(0.3, 3.0))
    eps = 0.5
    ref = cf.grad_d_eps_sq(params, (Z, T), eps)

    def med_err(h):
        G = fd_grad_d_eps(heis1, params, Z, T, eps, h=h)
        val = np.einsum("nj,nj->n", G, G)
        return np.median(np.abs(val - ref) / ref)

    h = 4e-3
    order = math.log2(med_err(h) / med_err(h / 2.0))
    assert order >= 1.8


# ------------------------------------------------------------- hardy ratios


def test_hardy_ratio_scale_invariance(heis1):
    params = params_for(heis1, k=1.0, p=2.0)
    phi = build_hardy_corpus()[2]
    [res1] = hardy_ratio(heis1, [(params, phi)], 20_000, seed=3)
    scaled = HardyTestFunction(
        shape=with_kinks(lambda r: tuple(-2.5 * v for v in phi.shape(r)), phi.shape.kinks),
        support=phi.support,
        modulation=phi.modulation,
    )
    [res2] = hardy_ratio(heis1, [(params, scaled)], 20_000, seed=3)
    assert res2.ratio == pytest.approx(res1.ratio, rel=1e-12)


def test_hardy_ratio_dilation_invariance(heis1):
    params = params_for(heis1, k=1.0, p=2.0, alpha=1.0)
    phi = annulus_bump(0.5, 2.0, "window")
    lam = 2.0

    def dilated_shape(r):
        F, dF = phi.shape(lam * r)
        return F, lam * dF

    dilated = HardyTestFunction(
        shape=with_kinks(dilated_shape, lambda power: phi.shape.kinks(power) / lam),
        support=(phi.support[0] / lam, phi.support[1] / lam),
    )
    [r1] = hardy_ratio(heis1, [(params, phi)], 60_000, seed=4)
    [r2] = hardy_ratio(heis1, [(params, dilated)], 60_000, seed=5)
    se = 3.0 * math.hypot(r1.stderr, r2.stderr)
    assert abs(r1.ratio - r2.ratio) <= se


def test_hardy_ratio_requires_subcritical_p(heis1):
    params = params_for(heis1, k=1.0, p=5.0)  # p > Q
    with pytest.raises(ValueError):
        hardy_ratio(heis1, [(params, build_hardy_corpus()[0])], 1000, seed=0)


def _admissible_grid(alg):
    grid = [params_for(alg, k=1.0, p=p, alpha=a) for p in (1.5, 2.0, 3.0) for a in (-1.0, 0.0, 1.0)]
    grid = [params for params in grid if params.p < params.Q + params.alpha]
    assert len(grid) == 8
    return grid


def test_hardy_ratio_shared_cases_match_single_calls(heis1, monkeypatch):
    # one call over every admissible (p, alpha) equals one call per case on
    # the same spawn key, rules and panels: the directions, d, grad_X d, each
    # shape's values and each modulation's gradient are shared, not changed.
    # A single call gets the shared call's rules, so it draws the same
    # directions and sums its case on that case's own panels
    grid = _admissible_grid(heis1)
    corpus = build_hardy_corpus()
    case_lists = [[(params, phi) for params in grid] for phi in corpus[:2]]  # radial, modulated
    case_lists.append([(params, sharpness_test_function(params, 8)) for params in grid])  # one shape, 8 powers
    # the ten functions of one support (radial, z1 and t1 modulated; 5 shapes)
    assert {phi.support for phi in corpus[:10]} == {(0.5, 2.0)} and corpus[10].support != (0.5, 2.0)
    case_lists.append([(params, phi) for phi in corpus[:10] for params in grid])
    own_rules = verify_mod._own_rules
    for cases in case_lists:
        shared = hardy_ratio(heis1, cases, 8_000, seed=11, spawn_key=(4, 0))
        edges = _panel_edges([phi for _, phi in cases])
        modulated = list(dict.fromkeys(phi for _, phi in cases if not phi.radial))
        rules, at = own_rules(modulated)
        monkeypatch.setattr(verify_mod, "_panel_edges", lambda phis: edges)
        monkeypatch.setattr(verify_mod, "_own_rules", lambda phis: (rules, [at[modulated.index(phi)] for phi in phis]))
        for case, res in zip(cases, shared):
            [single] = hardy_ratio(heis1, [case], 8_000, seed=11, spawn_key=(4, 0))
            assert res.ratio == pytest.approx(single.ratio, rel=1e-12)
            assert res.lhs_stderr == pytest.approx(single.lhs_stderr, rel=1e-12)
            assert res.rhs_stderr == pytest.approx(single.rhs_stderr, rel=1e-12)
            assert res.stderr == pytest.approx(single.stderr, rel=1e-12)
            if case[1].radial:
                assert res.lhs_1d == pytest.approx(single.lhs_1d, rel=1e-12)
                assert res.rhs_1d == pytest.approx(single.rhs_1d, rel=1e-12)
        monkeypatch.undo()


def test_hardy_ratio_evaluates_shared_shape_once(heis1, monkeypatch):
    # 8 radial cases on one shape: the shape runs twice for the 1-D
    # reduction on all its panels (the rule and its halved-panel pass),
    # not once per case, and never to place the panel edges, and no polar
    # batch runs.  With z1 and t1 modulated twins of each power it also runs
    # once per field batch and own rule: twins of one power share a rule
    calls = {"shape": 0, "batches": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    u = sharpness_test_function(params_for(heis1), 3)
    shape = with_kinks(counted("shape", u.shape), u.shape.kinks)
    cases = [(params, HardyTestFunction(shape, u.support, power=sharpness_test_function(params, 3).power))
             for params in _admissible_grid(heis1)]
    edges = _panel_edges([phi for _, phi in cases])
    assert calls["shape"] == 0 and len(edges) > len(_panel_edges([cases[0][1]]))
    integrate = verify_mod.integrate_polar
    monkeypatch.setattr(verify_mod, "integrate_polar",
                        lambda alg, params, edges, multi_fn, *rest: integrate(alg, params, edges,
                                                                              counted("batches", multi_fn), *rest))
    hardy_ratio(heis1, cases, 8_000, seed=11)
    assert calls["batches"] == 0 and calls["shape"] == 2
    twins = [(params, replace(phi, modulation=AngularModulation(kind, 0.5))) for params, phi in cases for kind in ("z1", "t1")]
    rules, _ = verify_mod._own_rules([phi for _, phi in twins])
    assert len(rules) == len({phi.power for _, phi in cases}) == 7  # p = 1.5, alpha = -1 and p = 2, alpha = 0 share one
    calls["shape"] = 0
    hardy_ratio(heis1, cases + twins, 8_000, seed=11)
    assert calls["batches"] >= 1
    assert calls["shape"] == len(rules) * calls["batches"] + 2


def test_modulated_functions_sum_on_their_own_panels(heis1, monkeypatch):
    # each modulated function of a batch is summed on the nodes of its own
    # _panel_edges([phi]): the ray form gets one node array per distinct
    # rule, and every shape is evaluated on the nodes of its function's rule
    seen = []
    integrate = verify_mod.integrate_polar

    def recorded(alg, params, edges, multi_fn, *rest):
        def spied(Z, T, r, c):
            seen.append((edges, r, c))
            return multi_fn(Z, T, r, c)

        return integrate(alg, params, edges, spied, *rest)

    monkeypatch.setattr(verify_mod, "integrate_polar", recorded)
    def spy(shape):
        calls = []

        def wrapped(x):
            calls.append(x)
            return shape(x)

        spied = with_kinks(wrapped, shape.kinks)
        spied.calls = calls
        return spied

    phis = [replace(phi, shape=spy(phi.shape)) for phi in build_hardy_corpus()[:10]]
    params = params_for(heis1, k=1.0, p=2.0)
    hardy_ratio(heis1, [(params, phi) for phi in phis], 8_000, seed=11)
    modulated = [phi for phi in phis if not phi.radial]
    edges, r, c = seen[0]
    rules, at = verify_mod._own_rules(modulated)
    assert len(edges) == len(r) == len(c) == len(rules) == 4  # sin2 and poly3 have the same kink and share a rule
    for phi, j in zip(modulated, at):
        e, x = edges[j], r[j]
        np.testing.assert_array_equal(e, _panel_edges([phi]))
        assert len(x) == quadrature.POLAR_NODES * (len(e) - 1) and e[0] < x.min() and x.max() < e[-1]
        assert any(y is x for y in phi.shape.calls)
    # the union of the own panels is the panels of the whole batch, so the batch draws the directions it drew on them
    np.testing.assert_array_equal(np.unique(np.concatenate(edges)), _panel_edges(phis))


def test_own_panel_quotients_agree_with_whole_annulus_panels(heis1, quat1, monkeypatch):
    # each modulated quotient of a corpus annulus, summed on the panels of
    # its own kinks, draws the directions that it drew on the panels of the
    # whole annulus, and L, R and L / R agree with theirs on those panels to
    # 1% of their stderrs, which differ by less than 1e-3 relative.  (The
    # quadrature terms alone, measured on the directions of replicate 0,
    # fall short of the change: see CHANGES.md.)
    integrate = verify_mod.integrate_polar

    def quotients(alg, cases, ai):
        """(directions of the first batch, [(value, stderr) of L, R and L / R of each case])."""
        seen = []

        def recorded(alg, params, edges, multi_fn, *rest):
            def spied(Z, T, r, c):
                seen.append(Z)
                return multi_fn(Z, T, r, c)

            return integrate(alg, params, edges, spied, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "integrate_polar", recorded)
            results = hardy_ratio(alg, cases, 60_000, 20240, (4, ai))
        return seen[0], np.array([[(res.lhs, res.lhs_stderr), (res.rhs, res.rhs_stderr), (res.ratio, res.stderr)]
                                  for res in results])

    for alg, k in ((heis1, 1.0), (quat1, 2.0)):
        grid = [OperatorParams.of(alg, k=k, p=p, alpha=a) for p in verify_mod._HARDY_P for a in verify_mod._HARDY_ALPHA]
        grid = [params for params in grid if params.p < params.Q + params.alpha]
        for ai, (_, phis) in enumerate(groupby(build_hardy_corpus(), key=lambda phi: phi.support)):
            phis = list(phis)
            cases = [(params, phi) for phi in phis if not phi.radial for params in grid]
            Z, own = quotients(alg, cases, ai)
            whole = _panel_edges(phis)
            with monkeypatch.context() as patch:
                patch.setattr(verify_mod, "_own_rules", lambda phis: ([whole], [0] * len(phis)))
                Z_whole, ref = quotients(alg, cases, ai)
            assert np.array_equal(Z, Z_whole) and len(verify_mod._own_rules(phis)[0]) > 1
            assert np.all(np.abs(own[..., 0] - ref[..., 0]) <= 0.01 * ref[..., 1]), (alg.m, ai)
            assert np.all(np.abs(own[..., 1] - ref[..., 1]) <= 1e-3 * ref[..., 1]), (alg.m, ai)


def test_angular_factors_once_per_suite(monkeypatch):
    # the meridian factors of the radial quotients depend only on the group,
    # k and the set of p: a hardy run and a sharpness run each integrate them
    # once, not once per hardy_ratio call (5 and 8 calls)
    calls = {"meridian_integral": 0, "hardy_ratio": 0}
    monkeypatch.setattr(verify_mod, "meridian_integral",
                        _counting(calls, "meridian_integral", verify_mod.meridian_integral))
    monkeypatch.setattr(verify_mod, "hardy_ratio", _counting(calls, "hardy_ratio", verify_mod.hardy_ratio))
    for suite, n_calls in (("hardy", 5), ("sharpness", 8)):
        calls.update(meridian_integral=0, hardy_ratio=0)
        run_suite(suite, SuiteConfig(group="heisenberg:1", **FAST))
        assert calls == {"meridian_integral": 1, "hardy_ratio": n_calls}, suite


def _uncertainty_columns(alg, params, phi):
    """The four uncertainty integrands of phi, point-wise from its whole field."""
    s, k = params.p, params.k
    fld = phi.as_scalar_field(alg, params)

    def columns(Z, T):
        d = norm_d(params, (Z, T))
        zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
        u = fld.eval(Z, T)
        G = horizontal_gradient_batch(alg, params, fld, Z, T)
        gn = np.sqrt(np.einsum("nj,nj->n", G, G))
        return np.stack([zn ** (s / (s - 1.0)) * np.abs(u) ** (s / (s - 1.0)), gn**s,
                         (zn / d) ** (2.0 * k) * u**2, (zn / d) ** ((2.0 * k - 1.0) * s) * d ** (-s) * np.abs(u) ** s])

    return columns


def test_uncertainty_batch_matches_single_function_integrals(heis1, monkeypatch):
    # the four columns of each function in a batched uncertainty integral
    # equal that function's own integrate_polar call on the same panels
    # and substream, with u and grad_X u from its whole field
    calls = []

    def recorded(alg, params, edges, multi_fn, nf, n, seed, spawn_key):
        out = integrate_polar(alg, params, edges, multi_fn, nf, n, seed, spawn_key)
        calls.append((params, edges, n, seed, spawn_key, out))
        return out

    monkeypatch.setattr(verify_mod, "integrate_polar", recorded)
    verify_uncertainty(SuiteConfig(group="heisenberg:1", k=1.5, p=2.5, **FAST))
    params, edges, n, seed, spawn_key, (est, gain) = calls[0]
    phis = build_hardy_corpus()[:10:3]
    assert est.shape[1] == 4 * len(phis) and {phi.modulation.kind for phi in phis if phi.modulation} == {"z1", "t1"}
    np.testing.assert_array_equal(edges, _panel_edges(phis))
    for j, phi in enumerate(phis):
        single = at_real_points(params, _uncertainty_columns(heis1, params, phi))
        ref, ref_gain = integrate_polar(heis1, params, edges, single, 4, n, seed, spawn_key)
        block = slice(4 * j, 4 * j + 4)
        np.testing.assert_allclose(est[:, block], ref, rtol=1e-12)
        np.testing.assert_allclose(gain[block], ref_gain, rtol=1e-12)


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_corpus_suites_make_one_call_per_support(monkeypatch):
    # hardy and uncertainty make one polar integral per corpus annulus,
    # lemma2 one for its ten functions of one annulus
    calls = {"hardy_ratio": 0, "integrate_polar": 0}
    monkeypatch.setattr(verify_mod, "hardy_ratio", _counting(calls, "hardy_ratio", verify_mod.hardy_ratio))
    cfg = SuiteConfig(group="heisenberg:1", **FAST)
    assert run_suite("hardy", cfg).overall_pass and calls["hardy_ratio"] == 5
    assert run_suite("lemma2", cfg).overall_pass and calls["hardy_ratio"] == 6
    monkeypatch.setattr(verify_mod, "integrate_polar", _counting(calls, "integrate_polar", verify_mod.integrate_polar))
    assert run_suite("uncertainty", cfg).overall_pass and calls["integrate_polar"] == 5


def test_corpus_batch_computes_geometry_once_per_batch(heis1, monkeypatch):
    # ten functions, both modulation kinds, the whole (p, alpha) grid: in
    # each batch of directions, d once, each modulation's gradient once and
    # each distinct shape once, on the radial nodes of its own rule and not
    # on directions x nodes points
    calls = {"norm_d": 0, "z1": 0, "t1": 0}
    grad = AngularModulation.grad

    def counted_grad(mod, *args):
        calls[mod.kind] += 1
        return grad(mod, *args)

    monkeypatch.setattr(AngularModulation, "grad", counted_grad)
    monkeypatch.setattr(verify_mod, "norm_d", _counting(calls, "norm_d", verify_mod.norm_d))
    sizes = []  # the shapes of the arrays that the shapes are called on

    def counted_shape(key, shape):
        def wrapped(x):
            calls[key] += 1
            sizes.append(np.shape(x))
            return shape(x)

        return wrapped

    shapes = {}  # one counted shape per distinct shape, shared by its twins as in the corpus
    for phi in build_hardy_corpus()[:10]:
        if id(phi.shape) not in shapes:
            key = f"shape{len(shapes)}"
            calls[key] = 0
            shapes[id(phi.shape)] = with_kinks(counted_shape(key, phi.shape), phi.shape.kinks)
    batches = []

    def per_batch(multi_fn):
        def wrapped(Z, T, r, c):
            before = dict(calls)
            sizes.clear()
            out = multi_fn(Z, T, r, c)
            batches.append(({key: calls[key] - before[key] for key in calls}, set(sizes), {x.shape for x in r}))
            return out

        return wrapped

    integrate = verify_mod.integrate_polar
    monkeypatch.setattr(verify_mod, "integrate_polar",
                        lambda alg, params, edges, multi_fn, *rest: integrate(alg, params, edges,
                                                                              per_batch(multi_fn), *rest))
    phis = [replace(phi, shape=shapes[id(phi.shape)]) for phi in build_hardy_corpus()[:10]]
    hardy_ratio(heis1, [(params, phi) for phi in phis for params in _admissible_grid(heis1)], 8_000, seed=11)
    assert len(shapes) == 5 and len(batches) >= 2
    for counts, shape_sizes, nodes in batches:
        assert set(counts.values()) == {1} and len(counts) == 8 and shape_sizes == nodes and len(nodes) > 1


def test_corpus_twins_share_one_shape():
    corpus = build_hardy_corpus()
    for radial, modulated in zip(corpus[::2], corpus[1::2]):
        assert radial.modulation is None and modulated.modulation is not None
        assert radial.shape is modulated.shape
    assert len({id(phi.shape) for phi in corpus}) == 25
    assert annulus_bump(0.5, 2.0, "sin2").shape is corpus[2].shape


def test_sharpness_shape_shared_across_params(heis1):
    P1, P2 = params_for(heis1, k=1.0, p=2.0), params_for(heis1, k=1.0, p=3.0, alpha=1.0)
    assert sharpness_test_function(P1, 6).shape is sharpness_test_function(P2, 6).shape
    assert sharpness_test_function(P1, 6).shape is not sharpness_test_function(P1, 7).shape
    assert sharpness_test_function(P1, 6).power != sharpness_test_function(P2, 6).power


@pytest.mark.parametrize("kind", ["z1", "t1"])
def test_hardy_ratio_chain_rule_matches_full_gradient(kind, heis1):
    # phi'(d) grad_X d * mod + phi(d) grad_X mod against the X-gradient of
    # the whole field, integrated on the same panels and substream
    params = params_for(heis1, k=1.5, p=2.5, alpha=0.5)
    phi = annulus_bump(0.5, 2.0, "sin2", modulation=AngularModulation(kind, 0.4))
    fld = phi.as_scalar_field(heis1, params)

    def lhs(Z, T):
        G = horizontal_gradient_batch(heis1, params, fld, Z, T)
        return [norm_d(params, (Z, T)) ** 0.5 * np.einsum("nj,nj->n", G, G) ** 1.25]

    [res] = hardy_ratio(heis1, [(params, phi)], 8_000, seed=2, spawn_key=(7,))
    est, _ = integrate_polar(heis1, params, _panel_edges([phi]), at_real_points(params, lhs), 1, 8_000, 2, (7,))
    assert res.lhs == pytest.approx(est.mean(axis=0)[0], rel=1e-10)


# ------------------------------------------------- ray-form polar integrands

#: (group, k, p): integer k, non-integer k and k = 2 on a larger group
_RAY_CONFIGS = [("heisenberg:1", 1.0, 2.0), ("heisenberg:3", 1.5, 2.5), ("quaternionic:1", 2.0, 3.0)]


def _directions(alg, params, n):
    """n directions w on the unit gauge sphere, from points of the unit ball."""
    Z, T, _ = Sampler(alg, params, 5).draw(n)
    d = norm_d(params, (Z, T))
    return Z / d[:, None], T / (d ** (2.0 * params.k))[:, None]


def _at_each_node(ray_fn, Z, T, r):
    """(nf, len(Z), len(r)): a ray-form integrand at each radial node alone."""
    return np.stack([ray_fn(Z, T, r, e) for e in np.eye(len(r))], axis=-1)


def _captured_integrands(monkeypatch, run):
    """The (params, multi_fn, edges, r) of every integrate_polar call that
    run() makes, r the nodes of its rules in its first call."""
    seen = []
    integrate = verify_mod.integrate_polar

    def recorded(alg, params, edges, multi_fn, *rest):
        nodes = []

        def spied(Z, T, r, c):
            nodes.append((r, c))
            return multi_fn(Z, T, r, c)

        out = integrate(alg, params, edges, spied, *rest)
        seen.append((params, multi_fn, edges, nodes[0][0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "integrate_polar", recorded)
        run()
    return seen


def _check_at_own_nodes(multi, reference, rule_of, Z, T, edges, r):
    """A ray-form integrand with one rule per function against the
    point-wise reference(Z, T, x) -> (nf, len(Z)) at single radial nodes x:
    at each node of each rule alone (weight 1 there and 0 on every other
    node of every rule), the columns of that rule's functions are their
    point values at the node, to 1e-12, and every other column is 0.  The
    nodes within 2% of a panel edge are left out: there a profile or its
    derivative vanishes (at the support's ends and at the kinks), and a
    point value computed from d(delta_r w) has fewer correct digits."""
    r = [x[np.min(np.abs(x[:, None] - e), axis=1) > 0.02 * x] for x, e in zip(r, edges)]
    assert all(len(x) >= 16 for x in r)
    for j, x in enumerate(r):
        mine = np.asarray(rule_of) == j
        for i in range(len(x)):
            c = [np.zeros(len(y)) for y in r]
            c[j][i] = 1.0
            got = multi(Z, T, r, c)
            np.testing.assert_allclose(got[mine], reference(Z, T, x[i : i + 1])[mine], rtol=1e-12)
            assert not np.any(got[~mine])


def _hardy_columns(alg, cases):
    """The Rayleigh-quotient integrands d^alpha |grad_X Phi|^p and
    d^{alpha-p} |grad_X d|^p |Phi|^p of each case, point-wise."""

    def columns(Z, T):
        out = []
        for params, phi in cases:
            fld = phi.as_scalar_field(alg, params)
            d = norm_d(params, (Z, T))
            gd = (np.sqrt(np.einsum("ni,ni->n", Z, Z)) / d) ** (2.0 * params.k - 1.0)
            G = horizontal_gradient_batch(alg, params, fld, Z, T)
            out += [d**params.alpha * np.einsum("nj,nj->n", G, G) ** (0.5 * params.p),
                    d ** (params.alpha - params.p) * gd**params.p * np.abs(fld.eval(Z, T)) ** params.p]
        return np.stack(out)

    return columns


@pytest.mark.parametrize("group,k,p", _RAY_CONFIGS)
def test_ray_form_fields_match_point_values(group, k, p):
    # |Phi| and |grad_X Phi| of _corpus_batch, from the geometry of each
    # direction and the profile at each node, against the whole field at
    # delta_r w: radial, both modulations and a power profile
    alg = resolve_group(group)
    params = OperatorParams.of(alg, k=k, p=p)
    Z, T = _directions(alg, params, 48)
    r = np.linspace(0.55, 1.95, 6)
    phis = build_hardy_corpus()[:10] + [sharpness_test_function(params, 2)]
    assert {phi.modulation.kind for phi in phis if phi.modulation} == {"z1", "t1"}
    _, field = verify_mod._corpus_batch(alg, params, Z, T, r, phis)
    z, t = real_points(params, Z, T, r)
    for phi in phis:
        fld = phi.as_scalar_field(alg, params)
        G = horizontal_gradient_batch(alg, params, fld, z, t)
        (A, B), (gA, gB) = (power(1.0) for power in field(phi))
        np.testing.assert_allclose(A * B, np.abs(fld.eval(z, t)).reshape(len(Z), len(r)), rtol=1e-12)
        np.testing.assert_allclose(gA * gB, np.sqrt(np.einsum("nj,nj->n", G, G)).reshape(len(Z), len(r)), rtol=1e-12)


@pytest.mark.parametrize("group,k,p", _RAY_CONFIGS)
def test_ray_form_integrands_match_point_values(group, k, p, monkeypatch):
    # every column of the hardy integrands, node by node on its function's
    # own nodes, and of the uncertainty integrands, node by node, against
    # the point-wise integrand at delta_r w: the quotient weights
    # and the uncertainty weights (r |z_w|)^t, |z_w|^{2k} and
    # |z_w|^{(2k-1)s} r^{-s}; and the density's eps sweep
    alg = resolve_group(group)
    cfg = SuiteConfig(group, k, p, n_samples=4_000, corpus_samples=4_000)
    params = cfg.params(alg)
    Z, T = _directions(alg, params, 48)
    r = np.linspace(0.55, 1.95, 6)
    corpus = build_hardy_corpus()
    cases = [(params, phi) for phi in corpus[:10]] + [(cfg.params(alg, alpha=1.0), corpus[3])]
    [(_, multi, edges, r)] = _captured_integrands(monkeypatch, lambda: hardy_ratio(alg, cases, 4_000, seed=1))
    # the polar columns are those of the modulated cases, each on the nodes of its own panels; radial cases draw nothing
    modulated = [case for case in cases if not case[1].radial]
    _, at = verify_mod._own_rules(list(dict.fromkeys(phi for _, phi in modulated)))
    rule = dict(zip(dict.fromkeys(phi for _, phi in modulated), at))
    assert len(r) > 1 and len(set(map(len, r))) > 1
    _check_at_own_nodes(multi, lambda Z, T, x: at_real_points(params, _hardy_columns(alg, modulated))(Z, T, x, np.ones(1)),
                        [rule[phi] for _, phi in modulated for _ in range(2)], Z, T, edges, r)

    phis = corpus[:10:3]
    [(_, multi, _, _)] = _captured_integrands(
        monkeypatch, lambda: verify_mod._uncertainty_quotients(alg, params, phis, 4_000, 1, (7, 0)))
    r = np.linspace(0.55, 1.95, 6)
    reference = np.concatenate([_uncertainty_columns(alg, params, phi)(*real_points(params, Z, T, r)) for phi in phis])
    np.testing.assert_allclose(_at_each_node(multi, Z, T, r), reference.reshape(-1, len(Z), len(r)), rtol=1e-12)

    # the sweep tensor of the density's mollifier sweep at meridian points
    # (z = cos^{1/(2k)} theta e_1, t = (sin theta / 4) f_1), in more than one
    # block, against psi and the mollifier at the real points delta_r w of
    # the radial nodes, contracted with the radial weights r^{Q-1} c
    [sweep] = _captured_sweeps(monkeypatch, lambda: verify_fundamental_solution(cfg))
    theta = np.linspace(0.0, 0.5 * np.pi, 102)[1:-1]
    Zm, Tm = np.zeros((len(theta), alg.m)), np.zeros((len(theta), alg.q))
    Zm[:, 0], Tm[:, 0] = np.cos(theta) ** (0.5 / k), 0.25 * np.sin(theta)
    r, c = quadrature._grid_rule(dyadic_edges(2.0**-30, 2.0**12))
    assert len(theta) > verify_mod._SWEEP_BLOCK // len(np.unique(np.multiply.outer(cfg.eps_sweep, r)))

    def density(Zs, Ts):
        zn2, tn2 = np.einsum("ni,ni->n", Zs, Zs), np.einsum("ni,ni->n", Ts, Ts)
        return cf.psi(params, (Zs, Ts)) * np.stack([np.exp(-(e**2) * zn2 - e ** (4.0 * k) * tn2) for e in cfg.eps_sweep])

    np.testing.assert_allclose(sweep(Zm, Tm), at_real_points(params, density)(Zm, Tm, r, r ** (params.Q - 1.0) * c),
                               rtol=1e-12)


def _captured_sweeps(monkeypatch, run):
    """The integrand of every meridian rule that verify calls directly
    (the mollifier sweep of fundamental_solution) while run() runs."""
    seen = []
    rule = verify_mod._meridian_rule

    def recorded(alg, params, g, *rest):
        seen.append(g)
        return rule(alg, params, g, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "_meridian_rule", recorded)
        run()
    return seen


def _warns_near_singular(fn) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return any(issubclass(w.category, NearSingularWarning) for w in caught)


@pytest.mark.parametrize("r0", [0.09, 0.11])
def test_near_singular_warning_on_rays_as_at_points(r0, heis1):
    # k = 1.5: a direction with |z_w| = 1e-5 reaches |z| < DELTA_Z = 1e-6 at
    # the node r0 = 0.09 and not at 0.11, on the ray path and the point path
    params = params_for(heis1, k=1.5, p=2.5)
    Z = np.array([[1e-5, 0.0], [0.0, 0.6]])
    T = (np.sqrt(1.0 - np.einsum("ni,ni->n", Z, Z) ** (2.0 * params.k)) / 4.0)[:, None]
    r = np.array([r0, 0.5, 1.5])
    phi = annulus_bump(0.05, 2.0, "sin2", modulation=AngularModulation("z1", 0.5))
    fld = phi.as_scalar_field(heis1, params)
    ray = _warns_near_singular(lambda: verify_mod._corpus_batch(heis1, params, Z, T, r, [phi]))
    point = _warns_near_singular(lambda: horizontal_gradient_batch(heis1, params, fld, *real_points(params, Z, T, r)))
    assert ray == point == (r0 < 0.1)


def test_near_singular_warning_in_a_quotient_as_at_points(heis1):
    # a modulated Rayleigh quotient whose support reaches to d = 2^-20
    # warns as its point-wise integrand on the same directions does; one
    # that stays out at d >= 0.5 warns on neither path.  Its radial twin
    # evaluates no field at sampled points, so it warns at neither support
    params = params_for(heis1, k=1.5, p=2.5)
    for r0, expected in ((2.0**-20, True), (0.5, False)):
        phi = annulus_bump(r0, 2.0, "sin2", modulation=AngularModulation("z1", 0.5))
        pointwise = at_real_points(params, _hardy_columns(heis1, [(params, phi)]))
        ray = _warns_near_singular(lambda: hardy_ratio(heis1, [(params, phi)], 8_000, seed=3))
        point = _warns_near_singular(lambda: integrate_polar(heis1, params, _panel_edges([phi]), pointwise, 2, 8_000, 3))
        assert ray == point == expected
        assert not _warns_near_singular(lambda: hardy_ratio(heis1, [(params, annulus_bump(r0, 2.0, "sin2"))], 8_000, 3))


def test_hardy_ratio_rejects_mixed_cases(heis1):
    phi = build_hardy_corpus()[0]
    other = annulus_bump(0.5, 4.0)
    with pytest.raises(ValueError, match="share k"):
        hardy_ratio(heis1, [(params_for(heis1, k=1.0), phi), (params_for(heis1, k=2.0), phi)], 1000, seed=0)
    with pytest.raises(ValueError, match="share k"):
        hardy_ratio(heis1, [(params_for(heis1, k=1.0), phi), (params_for(heis1, k=1.0), other)], 1000, seed=0)
    with pytest.raises(ValueError):
        hardy_ratio(heis1, [], 1000, seed=0)


def test_hardy_corpus_structure():
    corpus = build_hardy_corpus()
    assert len(corpus) == 50
    assert len({(id(c.shape), c.support, c.modulation) for c in corpus}) == 50
    assert sum(c.radial for c in corpus) == 25
    kinds = [c.modulation.kind for c in corpus if c.modulation is not None]
    assert kinds.count("z1") == 13 and kinds.count("t1") == 12
    for c in corpus:
        assert c.support[0] > 0.0


def test_test_function_support_validated():
    with pytest.raises(ValueError):
        HardyTestFunction(shape=lambda r: (r, 1.0), support=(0.0, 1.0))


def test_modulated_field_gradient_matches_fd(heis1, rng):
    params = params_for(heis1, k=1.5, p=2.0)
    phi = annulus_bump(0.5, 2.0, "sin2", modulation=AngularModulation("t1", 0.4))
    fld = phi.as_scalar_field(heis1, params)
    Z, T = sample_gauge_points(heis1, params, 40, rng, d_range=(0.6, 1.8))
    ga = fld.euclid_grad(Z, T)
    gf = euclid_gradient(replace(fld, euclid_grad=None), Z, T)
    assert np.max(np.abs(ga - gf)) / np.max(np.abs(ga)) < 1e-6


def _sweep_cases(alg, k, j=8):
    """The (params, u_j) cases of one k of the sweep-heis benchmark grid."""
    grid = [OperatorParams.of(alg, k=k, p=p, alpha=a) for p in (1.5, 2.0, 2.5, 3.0) for a in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    return [(params, sharpness_test_function(params, j)) for params in grid if params.p < params.Q + params.alpha]


def _radial_errors(alg, cases, n, seed, spawn_key):
    """(|ratio - reference| / reference, stderr / ratio) of each radial case,
    against the quotient of :func:`graded_radial_reference` on the
    kink-aware panels of the batch."""
    lhs, rhs = graded_radial_reference(cases, _panel_edges([phi for _, phi in cases])).T
    return np.array([(abs(res.ratio - ref) / ref, res.stderr / res.ratio)
                     for res, ref in zip(hardy_ratio(alg, cases, n, seed, spawn_key), lhs / rhs)])


def test_radial_quotients_carry_an_honest_quadrature_term(heis1, quat1):
    # a radial quotient is exact up to its radial quadrature: its stderr,
    # the quadrature term of the 1-D rule, covers the distance to a
    # reference graded towards every panel end on every row of the
    # sweep-heis grid and on the radial corpus
    rows = [_radial_errors(heis1, _sweep_cases(heis1, k), 240_000, 20240, (9, ki)) for ki, k in enumerate((1.0, 1.5, 2.0))]
    assert sum(map(len, rows)) == 59
    for alg, k in ((heis1, 1.0), (quat1, 2.0)):
        grid = [OperatorParams.of(alg, k=k, p=p, alpha=a) for p in verify_mod._HARDY_P for a in verify_mod._HARDY_ALPHA]
        grid = [params for params in grid if params.p < params.Q + params.alpha]
        for ai, (_, phis) in enumerate(groupby(build_hardy_corpus()[::2], key=lambda phi: phi.support)):
            rows.append(_radial_errors(alg, [(params, phi) for phi in phis for params in grid], 8_000, 20240, (4, ai)))
    err, se = np.concatenate(rows).T
    assert np.all(se > 0.0) and np.all(err <= se)
    assert np.median(se) < 1e-6


def test_quadrature_term_needs_the_kink_edges(heis1, monkeypatch):
    # planted fault: panels on the dyadic pieces alone put the kink of
    # |phi'|^{3/2} inside a panel, and the p = 1.5 quotients of the sweep
    # grid lose at least 100x in accuracy against the graded reference
    cases = [case for case in _sweep_cases(heis1, 1.0) if case[0].p == 1.5]
    kinked = _radial_errors(heis1, cases, 240_000, 20240, (9, 0))
    reference = graded_radial_reference(cases, _panel_edges([phi for _, phi in cases]))
    monkeypatch.setattr(verify_mod, "_panel_edges", lambda phis: dyadic_edges(*phis[0].support))
    dyadic = [abs(res.ratio - lhs / rhs) / (lhs / rhs)
              for res, (lhs, rhs) in zip(hardy_ratio(heis1, cases, 240_000, 20240, (9, 0)), reference)]
    assert np.max(dyadic) >= 100.0 * np.max(kinked[:, 0])


def _ray_rule(params, edges, multi_fn, nf, deg):
    """(h, per): h(Z, T), the ray-form multi_fn along the directions of Z,
    T with deg Gauss-Legendre nodes per panel of edges, or of each rule of
    edges (a list of edge arrays), in calls of at most per directions, per
    from the nodes of the union of the rules."""
    single = np.ndim(edges[0]) == 0
    rules = [np.asarray(edges)] if single else edges
    x, w = np.polynomial.legendre.leggauss(deg)
    r, c = [], []
    for e in rules:
        lo, half = e[:-1, None], 0.5 * np.diff(e)[:, None]
        r.append((lo + half * (x + 1.0)).ravel())
        c.append(params.Q * (half * w).ravel() * r[-1] ** (params.Q - 1.0))
    per = quadrature._SLICE // (deg * (len(np.unique(np.concatenate(rules))) - 1))
    r, c = (r[0], c[0]) if single else (r, c)

    def h(Z, T):
        d = norm_d(params, (Z, T))
        Z, T = Z / d[:, None], T / (d ** (2.0 * params.k))[:, None]
        return np.hstack([np.reshape(multi_fn(Z[i : i + per], T[i : i + per], r, c), (nf, -1))
                          for i in range(0, len(Z), per)])

    return h, per


def test_quadrature_term_comes_from_replicate_zero(heis1, monkeypatch):
    # for a modulated Rayleigh-quotient batch and an uncertainty batch, each
    # function on its own rule: est is mc_region_multi's estimate with the 16-node
    # rule, gain is the 32-node over the 16-node estimate on the points of
    # replicate 0, and integrate_polar calls multi_fn only once outside
    # mc_region_multi, for the 32-node pass over those points
    calls, budgets, inside = [], [], [False]
    region = quadrature.mc_region_multi

    def spied_region(sampler, multi_fn, nf, n, **kwargs):
        budgets.append(n)
        inside[0] = True
        try:
            return region(sampler, multi_fn, nf, n, **kwargs)
        finally:
            inside[0] = False

    def recorded(alg, params, edges, multi_fn, nf, n, seed, spawn_key=()):
        outside = []

        def counted(*args):
            if not inside[0]:
                outside.append(len(args[0]))
            return multi_fn(*args)

        est, gain = integrate_polar(alg, params, edges, counted, nf, n, seed, spawn_key)
        calls.append((alg, params, edges, multi_fn, nf, seed, spawn_key, est, gain, outside))
        return est, gain

    monkeypatch.setattr(quadrature, "mc_region_multi", spied_region)
    monkeypatch.setattr(verify_mod, "integrate_polar", recorded)
    params = params_for(heis1, k=1.5, p=2.5, alpha=0.5)
    hardy_ratio(heis1, [(params, phi) for phi in build_hardy_corpus()[:10] if not phi.radial], 8_000, seed=3)
    verify_mod._uncertainty_quotients(heis1, params_for(heis1, k=1.5, p=2.5), build_hardy_corpus()[:10:3], 8_000, 5,
                                      (7, 0))
    assert len(calls) == len(budgets) == 2
    for (alg, params, edges, multi_fn, nf, seed, spawn_key, est, gain, outside), n in zip(calls, budgets):
        sampler = Sampler(alg, params, seed, spawn_key)
        coarse, per = _ray_rule(params, edges, multi_fn, nf, 16)
        assert np.array_equal(est, region(sampler, coarse, nf, n, replicates=True, step=per))
        N = max(REPLICATES, math.ceil(quadrature._box_share(params) * n))
        size = N // REPLICATES + (N % REPLICATES > 0)
        Z, T, _ = sampler.draw(size, sampler.shifts()[:1])
        w = sampler.weights(Z) / size
        fine = _ray_rule(params, edges, multi_fn, nf, 32)[0](Z, T) @ w
        np.testing.assert_allclose(est[0], coarse(Z, T) @ w, rtol=1e-12)
        np.testing.assert_allclose(gain, fine / (coarse(Z, T) @ w), rtol=1e-12)
        assert np.any(gain != 1.0) and outside == [size]


def test_panel_edges_evaluate_no_shape_in_a_command(monkeypatch, tmp_path):
    # every shape declares its kinks: in a verify command no shape is
    # evaluated to place the panel edges of hardy, sharpness, lemma2 and
    # uncertainty (of a batch and of each function alone), and the edges
    # equal those of a search
    placing, counts = [False], Counter()  # shape calls while placing edges (True) and otherwise
    annulus_shape, cutoff, panel_edges = verify_mod._annulus_shape, verify_mod._cutoff, verify_mod._panel_edges

    def counted(shape):
        def wrapped(x):
            counts[placing[0]] += 1
            return shape(x)

        return with_kinks(wrapped, shape.kinks)

    edges = []

    def flagged(phis):
        placing[0] = True
        try:
            out = panel_edges(phis)
        finally:
            placing[0] = False
        edges.append((phis, out))
        return out

    monkeypatch.setattr(verify_mod, "_annulus_shape", cache(lambda *key: counted(annulus_shape(*key))))
    monkeypatch.setattr(verify_mod, "_cutoff", cache(lambda j: counted(cutoff(j))))
    monkeypatch.setattr(verify_mod, "_panel_edges", flagged)
    # hardy first, so that it runs in this process
    cli.main(["verify", "--group", "heisenberg:1", "--samples", "40000", "--corpus-samples", "8000",
              "--out", str(tmp_path)] + [f"--suite={name}" for name in ("hardy", "sharpness", "lemma2", "uncertainty")])
    # hardy: per annulus its five modulated functions alone and the whole annulus (the radial rule);
    # sharpness: u_1 ... u_8; lemma2: one annulus as in hardy; uncertainty: one per annulus
    assert len(edges) == 5 * (5 + 1) + 8 + (5 + 1) + 5 and counts[False] > 0 and counts[True] == 0
    for phis, out in edges:
        np.testing.assert_allclose(out, searched_panel_edges(phis), rtol=1e-10, atol=0.0)


def test_panel_edges_place_known_kinks():
    # the sign changes of F' of the corpus shapes on [0.5, 2] are known:
    # the maximum of sin2 and poly3 and the ends of the plateaus of window
    # and plateau; each is placed within 1e-10 relative and no other edge
    # is added (the maximum of asym, 1.0, is a dyadic edge)
    known = {"sin2": [1.25], "poly3": [1.25], "plateau": [0.8, 1.4], "window": [1.025, 1.475], "asym": []}
    for kind, kinks in known.items():
        inner = np.setdiff1d(_panel_edges([annulus_bump(0.5, 2.0, kind)]), dyadic_edges(0.5, 2.0))
        assert len(inner) == len(kinks), kind
        np.testing.assert_allclose(inner, kinks, rtol=1e-10, atol=0.0)


def test_declared_kinks_match_a_search(heis1, quat1):
    # the kinks every corpus shape and u_j (j <= 12, over the sweep grid)
    # declare equal the sign changes that a numerical search finds, to
    # 1e-10 relative; all (p, alpha) of one u_j share one search
    batches = [[phi] for phi in build_hardy_corpus()[::2]]
    batches += [[phi for _, phi in _sweep_cases(alg, k, j)] for alg, ks in ((heis1, (1.0, 1.5, 2.0)), (quat1, (2.0,)))
                for k in ks for j in range(1, 13)]
    assert len(batches) == 25 + 48 and all(len({phi.power for phi in phis}) > 5 for phis in batches[25:])
    for phis in batches:
        np.testing.assert_allclose(_panel_edges(phis), searched_panel_edges(phis), rtol=1e-10, atol=0.0)


def test_panel_edges_need_declared_kinks(heis1):
    # a shape that declares no kinks, or none at the power asked for,
    # raises; and a declared kink moved by 1e-6 relative fails the search
    # oracle, for a stretched corpus shape and for u_j
    phi, u = annulus_bump(0.5, 2.0, "plateau"), sharpness_test_function(params_for(heis1), 4)
    with pytest.raises(AttributeError, match="kinks"):
        _panel_edges([replace(phi, shape=lambda r: phi.shape(r))])
    for undeclared in (replace(phi, power=1.0), replace(u, power=-0.5)):
        with pytest.raises(ValueError, match="declares no kinks at power"):
            _panel_edges([undeclared])
    for f in (phi, u):
        np.testing.assert_allclose(_panel_edges([f]), searched_panel_edges([f]), rtol=1e-10, atol=0.0)
        moved = replace(f, shape=with_kinks(f.shape, lambda power, f=f: np.multiply(f.shape.kinks(power), 1.0 + 1e-6)))
        with pytest.raises(AssertionError):
            np.testing.assert_allclose(_panel_edges([moved]), searched_panel_edges([moved]), rtol=1e-10, atol=0.0)


def test_radial_1d_batch_matches_a_graded_reference(heis1, quat1):
    # the 1-D reduction on its kink-aware panels is within 1e-13 relative
    # of a reference graded towards every panel end, on the sweep-heis
    # rows, the radial corpus over the hardy (p, alpha) grid and u_j up to
    # j = 512
    batches = [_sweep_cases(heis1, k) for k in (1.0, 1.5, 2.0)]
    assert sum(map(len, batches)) == 59
    for alg, k in ((heis1, 1.0), (quat1, 2.0)):
        grid = [OperatorParams.of(alg, k=k, p=p, alpha=a) for p in verify_mod._HARDY_P for a in verify_mod._HARDY_ALPHA]
        grid = [params for params in grid if params.p < params.Q + params.alpha]
        for _, phis in groupby([phi for phi in build_hardy_corpus() if phi.radial], key=lambda phi: phi.support):
            batches.append([(params, phi) for phi in phis for params in grid])
    params = params_for(heis1)
    batches += [[(params, sharpness_test_function(params, j))] for j in (1, 8, 128, 512)]
    for cases in batches:
        edges = _panel_edges([phi for _, phi in cases])
        np.testing.assert_allclose(_radial_1d_batch(cases, edges), graded_radial_reference(cases, edges),
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("group, k, p, n", [("heisenberg:1", 1.0, 2.0, 8_000), ("quaternionic:1", 2.0, 3.0, 32_000)])
def test_modulated_quotients_calibrated(group, k, p, n):
    # over 60 fixed seeds the stderr of every modulated corpus quotient on
    # [0.5, 2] is honest against a 64x-budget reference: z has sd near 1
    # and at most one |z| > 3 per function
    alg = resolve_group(group)
    params = OperatorParams.of(alg, k=k, p=p)
    cases = [(params, phi) for phi in build_hardy_corpus()[:10] if not phi.radial]
    ref = hardy_ratio(alg, cases, 64 * n, 999, (4, 0))
    z = np.array([[(res.ratio - r.ratio) / math.hypot(res.stderr, r.stderr)
                   for res, r in zip(hardy_ratio(alg, cases, n, seed, (4, 0)), ref)] for seed in range(60)])
    sd = np.std(z, axis=0, ddof=1)
    assert np.all((0.8 <= sd) & (sd <= 1.25)) and np.all(np.sum(np.abs(z) > 3.0, axis=0) <= 1)


def test_modulated_uncertainty_quotients_calibrated(quat1):
    # over 40 fixed seeds at the suite's budget, the stderr of the
    # uncertainty-main quotient i1^{1/t} i2^{1/s} / i3 of the two modulated
    # functions of its first support (both modulation kinds) is honest
    # against a 16x-budget reference: z has sd near 1 and at most one
    # |z| > 3 per function
    params = OperatorParams.of(quat1, k=2.0, p=3.0)
    phis = build_hardy_corpus()[:10:3]
    n = SuiteConfig(group="quaternionic:1").corpus_n()
    modulated = [i for i, phi in enumerate(phis) if not phi.radial]
    assert {phis[i].modulation.kind for i in modulated} == {"z1", "t1"}

    def main(seed, budget):
        quotients = verify_mod._uncertainty_quotients(quat1, params, phis, budget, seed, (7, 0))
        return [quotients[i][0] for i in modulated]

    ref = main(999, 16 * n)
    z = np.array([[(q - r) / math.hypot(se, se_r) for (q, se), (r, se_r) in zip(main(seed, n), ref)]
                  for seed in range(40)])
    sd = np.std(z, axis=0, ddof=1)
    assert np.all((0.8 <= sd) & (sd <= 1.25)) and np.all(np.sum(np.abs(z) > 3.0, axis=0) <= 1)


def test_radial_reduction_self_check(heis1):
    params = params_for(heis1, k=2.0, p=2.5, alpha=0.5)
    [res] = hardy_ratio(heis1, [(params, annulus_bump(0.5, 2.0, "poly3"))], 40_000, seed=6)
    assert res.radial_consistent
    assert res.ratio >= sharp_hardy_constant(params) - 3.0 * res.stderr


def _meridian_jacobian_fault(k):
    """grid_integral_1d with sin^q theta in place of sin^{q-1} theta in the
    meridian rule's Jacobian: the rule's profiles in v, theta = (pi/2)(1 -
    v^{2k}), gain a factor sin theta = cos((pi/2) v^{2k}) on the meridian's
    panels; every other 1-D integral is left as it is."""
    grid_integral, edges_of = quadrature.grid_integral_1d, quadrature._MERIDIAN_EDGES
    meridian = (edges_of, quadrature._halved(edges_of))

    def faulty(profile, edges):
        if any(np.array_equal(edges, e) for e in meridian):
            return grid_integral(lambda v: profile(v) * np.cos(0.5 * np.pi * v ** (2.0 * k)), edges)
        return grid_integral(profile, edges)

    return faulty


def _radial_median_z(group, k, p):
    [check] = [c for c in run_suite("hardy", SuiteConfig(group, k, p, corpus_samples=2_000)).checks
               if c.check_id == "radial-reduction-median-z"]
    return check.observed


_RADIAL_GROUPS = [("heisenberg:1", 1.0, 2.0), ("quaternionic:1", 2.0, 3.0)]


@pytest.mark.parametrize("group, k, p", _RADIAL_GROUPS)
def test_radial_reduction_sees_planted_faults(group, k, p, monkeypatch):
    # the meridian rule's angular factors agree with the closed-form sphere
    # moment at round-off, far below their quadrature terms; each planted
    # fault pushes the median z of the hardy suite above 3
    assert _radial_median_z(group, k, p) < 1e-2
    drift, sphere_moment = verify_mod._drift, cf.sphere_moment
    faults = {
        "jacobian": (quadrature, "grid_integral_1d", _meridian_jacobian_fault(k)),
        # X d at the meridian points without the drift of X
        "drift": (verify_mod, "_drift", lambda alg, params, Z: (0.0 * drift(alg, params, Z)[0], drift(alg, params, Z)[1])),
        # sphere_moment((2k+1)p) as the moment of the 1-D reduction
        "moment": (cf, "sphere_moment", lambda params, gamma: sphere_moment(params, gamma + 2.0 * params.p)),
    }
    for name, (module, attr, fault) in faults.items():
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, fault)
            assert _radial_median_z(group, k, p) > 3.0, name


@pytest.mark.parametrize("group, k, p", _RADIAL_GROUPS)
def test_radial_integrals_match_a_sampled_whole_field(group, k, p):
    # independent oracle: L, R and L / R of the radial corpus on [0.5, 2]
    # against integrate_polar of the point-wise integrands of the whole
    # field (as_scalar_field and horizontal_gradient_batch at real points),
    # within 3 sigma.  The sampled ratio has no replicate noise, since
    # |grad_X Phi| = |phi'| |z_w|^{2k-1} at every point, so it is checked
    # to its quadrature term
    alg = resolve_group(group)
    params = OperatorParams.of(alg, k=k, p=p)
    cases = [(params, phi) for phi in build_hardy_corpus()[:10] if phi.radial]
    est, gain = integrate_polar(alg, params, _panel_edges([phi for _, phi in cases]),
                                at_real_points(params, _hardy_columns(alg, cases)), 2 * len(cases), 60_000, 17, (4, 0))
    values, stderrs = verify_mod._power_quotients(est, gain, [e for i in range(0, 2 * len(cases), 2)
                                                              for e in ({i: 1.0}, {i + 1: 1.0}, {i: 1.0, i + 1: -1.0})])
    for j, res in enumerate(hardy_ratio(alg, cases, 60_000, 17, (4, 0))):
        for exact, se, sampled, sampled_se in zip((res.lhs, res.rhs, res.ratio), (res.lhs_stderr, res.rhs_stderr, res.stderr),
                                                  values[3 * j : 3 * j + 3], stderrs[3 * j : 3 * j + 3]):
            assert abs(exact - sampled) <= 3.0 * math.hypot(se, sampled_se)


def test_non_finite_radial_integrals_raise(heis1):
    # u_1024 on heisenberg:1 reaches d = 2^-1025, whose quintic transition
    # divides by a subnormal width: its 1-D integrals are nan and inf, and
    # hardy_ratio names the case instead of returning them; u_512 stays finite
    params = params_for(heis1)
    [res] = hardy_ratio(heis1, [(params, sharpness_test_function(params, 512))], 8_000, 1)
    assert all(map(math.isfinite, (res.lhs, res.rhs, res.ratio, res.stderr)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"radial case 0 \(p=2, alpha=0, support .*\) has non-finite 1-D integrals"):
            hardy_ratio(heis1, [(params, sharpness_test_function(params, 1024))], 8_000, 1)


# --------------------------------------------------------------- sharpness


def test_sharpness_spec_invariants(heis1):
    # u_5 = d^{(p-Q-alpha)/p - 1/5} on [2^-5, 1], with a C^2 cutoff: psi_5
    # and psi_5' are continuous at both ends of the inner band; j >= 1
    params = params_for(heis1, k=1.0, p=2.0)
    phi = sharpness_test_function(params, 5)
    r = np.geomspace(2.0**-5, 1.0, 50)
    assert np.allclose(phi.profile(r, *phi.shape(r))[0], r ** ((2.0 - 4.0) / 2.0 - 1.0 / 5.0), rtol=1e-12)
    a = 1.0 + 1.0 / 5.0
    for edge in (2.0**-6, 2.0**-5):
        x = edge * np.array([1.0 - 1e-7, 1.0 + 1e-7])
        f, df = phi.profile(x, *phi.shape(x))
        psi, dpsi = f * x**a, df * x**a + a * x ** (a - 1.0) * f
        assert abs(psi[1] - psi[0]) < 1e-5 and abs(dpsi[1] - dpsi[0]) < 1e-3 * 2.0**5
    with pytest.raises(ValueError):
        sharpness_test_function(params, 0)


@pytest.mark.parametrize("j", [1, 4, 8])
def test_sharpness_cutoff_shape(j, heis1):
    params = params_for(heis1, k=1.0, p=2.0)
    phi = sharpness_test_function(params, j)
    a = (params.Q + params.alpha - params.p) / params.p + 1.0 / j
    # equals the pure power on [2^-j, 1]
    r = np.linspace(2.0**-j, 1.0, 101)
    assert np.allclose(phi.profile(r, *phi.shape(r))[0], r**-a, rtol=1e-12)
    # vanishes outside the support, the origin included
    outside = np.array([0.0, 2.0 ** (-j - 1) * 0.99, 2.01, 3.0])
    f, df = phi.profile(outside, *phi.shape(outside))
    assert np.all(f == 0.0) and np.all(df == 0.0)
    # |psi_j'| <= C 2^j on the inner transition band with C independent
    # of j: the quintic transition satisfies |psi'| <= 1.875 * 2^{j+1}
    band = np.linspace(2.0 ** (-j - 1), 2.0**-j, 512)
    # reconstruct psi' = (f * r^a)' = f' r^a + a r^{a-1} f
    f, df = phi.profile(band, *phi.shape(band))
    psi_prime = df * band**a + a * band ** (a - 1.0) * f
    assert np.max(np.abs(psi_prime)) <= 1.875 * 2.0 ** (j + 1) * 1.0001


def test_quintic_derivative_clips_instead_of_masking():
    # inside (0, 1) it equals the masked polynomial bit for bit; psi_j' at
    # j = 256 evaluates it at arguments up to 2^258, whose discarded square
    # overflowed under the mask, and now raises nothing
    x = np.concatenate([np.linspace(0.0, 1.0, 1001)[1:-1], np.random.default_rng(0).random(1000)])
    masked = np.where((x <= 0.0) | (x >= 1.0), 0.0, 30.0 * x**2 * (1.0 - x) ** 2)
    assert np.array_equal(verify_mod._quintic(x)[1], masked)
    r = np.geomspace(2.0**-258, 2.0, 4000)
    with np.errstate(all="raise"):
        vals, slopes = verify_mod._cutoff(256)(r)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(slopes))
    assert verify_mod._quintic(np.array([-1e300, 0.0, 1.0, 1e300]))[1].tolist() == [0.0] * 4


# each _SHAPES kind on [0, 1] with annulus_bump's support mask (the only form
# in which a kind is evaluated), one stretched annulus bump, and psi_j
_SHAPE_CASES = {
    **{kind: (verify_mod._annulus_shape(0.0, 1.0, kind), (0.0, 1.0)) for kind in verify_mod._SHAPES},
    "annulus_bump": (annulus_bump(0.5, 2.0, "asym").shape, (0.5, 2.0)),
    **{f"cutoff-{j}": (verify_mod._cutoff(j), (2.0 ** (-j - 1), 2.0)) for j in (1, 8)},
}


@pytest.mark.parametrize("case", _SHAPE_CASES)
def test_shape_derivative_matches_central_difference(case):
    # F' is the derivative of F: a wrong F' would pass hardy_ratio's radial
    # self-check, whose Monte Carlo and 1-D sides both use it
    shape, (r0, r1) = _SHAPE_CASES[case]
    r = np.geomspace(max(r0, 1e-3 * r1) * 1.001, r1 * 0.999, 4001)
    h = 1e-6 * r
    F, dF = shape(r)
    central = (shape(r + h)[0] - shape(r - h)[0]) / (2.0 * h)
    assert np.max(np.abs(dF - central)) <= 1e-6 * np.max(np.abs(dF))
    # F and F' vanish exactly at and beyond both ends of the support
    w = r1 - r0
    F, dF = shape(np.array([r0, r1, r0 - 0.5 * w, r0 - 1e300, r1 + 1e-9 * w, 1.5 * r1, 1e300]))
    assert np.all(F == 0.0) and np.all(dF == 0.0)


def test_sharpness_ratios_decrease(heis1):
    params = params_for(heis1, k=1.0, p=2.0)
    vals = []
    for j in (1, 2, 4, 8):
        [res] = hardy_ratio(heis1, [(params, sharpness_test_function(params, j))], 20_000, seed=8, spawn_key=(j,))
        vals.append(res.ratio)
        assert res.radial_consistent
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)  # sharp constant is 1 here


def test_sharpness_exact_quotient_large_j_finite(quat1):
    # the 1-D quotient of u_j stays finite where |phi'|^p alone would
    # overflow on the innermost shell (quaternionic:1, k = 2, p = 3)
    params = params_for(quat1, k=2.0, p=3.0)
    curve = [np.divide(*_radial_1d_batch([(params, sharpness_test_function(params, j))])[0]) for j in (8, 16, 32, 64, 128)]
    assert np.all(np.isfinite(curve))
    assert np.all(np.diff(curve) <= 0.0)
    assert min(curve) > sharp_hardy_constant(params)


# ------------------------------------------------------------- other suites


def test_fundamental_solution_tail_guard(monkeypatch):
    # a non-decaying density leaves the outermost dyadic shell with more
    # than 1% of the total, so the truncated group integral is refused
    monkeypatch.setattr(cf, "psi", lambda params, g: np.ones(len(g[0])))
    monkeypatch.setattr(cf, "psi_radial", lambda params, r: np.ones_like(r))
    with pytest.raises(RuntimeError, match="tail"):
        verify_fundamental_solution(SuiteConfig(n_samples=2000))


def _density_total(report):
    [check] = [c for c in report.checks if c.check_id == "density-total"]
    return check


@pytest.fixture(scope="module")
def density_groups(tmp_path_factory):
    """(group, k, p) of the catalog groups of the density checks and of
    m = 8, q = 7, a custom group of the octonion units."""
    path = tmp_path_factory.mktemp("octonionic") / "J.txt"
    path.write_text("\n\n".join("\n".join(" ".join(map(repr, row)) for row in J) for J in octonion_units(7).J.tolist()))
    assert (resolve_group(f"custom:{path}").m, resolve_group(f"custom:{path}").q) == (8, 7)
    return [("heisenberg:1", 1.0, 2.0), ("heisenberg:3", 1.5, 2.5), ("quaternionic:1", 2.0, 3.0),
            ("quaternionic:2", 1.0, 2.0), (f"custom:{path}", 1.0, 2.0)]


def test_fundamental_solution_density_total_is_exact(density_groups):
    # the meridian rule of psi times the 1-D radial rule meets
    # nu |nu|^{p-2} sigma_p within its quadrature tolerance, and that
    # tolerance is at most 1e-10 relative, on every group
    for group, k, p in density_groups:
        check = _density_total(verify_fundamental_solution(SuiteConfig(group, k, p)))
        assert check.kind == "deterministic" and check.stderr == 0.0 and check.passed, group
        assert abs(check.observed - check.target) <= check.tolerance <= 1e-10 * abs(check.target), group


def test_density_total_sees_planted_faults(density_groups, monkeypatch):
    # sigma_p off by 1e-8, and sin^q in place of sin^{q-1} in the meridian
    # rule's Jacobian, each fail density-total on every group
    sigma_p = cf.sigma_p
    for group, k, p in density_groups:
        faults = {
            "sigma": (cf, "sigma_p", lambda params: sigma_p(params) * (1.0 + 1e-8)),
            "jacobian": (quadrature, "grid_integral_1d", _meridian_jacobian_fault(k)),
        }
        for name, (module, attr, fault) in faults.items():
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, fault)
                assert not _density_total(verify_fundamental_solution(SuiteConfig(group, k, p))).passed, (group, name)


def _sampled_density(alg, params, eps_list, n, seed):
    """(values, stderrs) of the density total and of each eps column of its
    mollifier sweep, by integrate_polar over 2^-30 <= d < 2^12 with every
    column on the same sampled directions."""

    def multi(Zs, Ts, r, c):
        zn2, tn2 = np.einsum("ni,ni->n", Zs, Zs), np.einsum("ni,ni->n", Ts, Ts)
        rad = cf.psi_radial(params, r) * c
        sweep = [np.exp(-zn2[:, None] * (e * r) ** 2 - tn2[:, None] * (e * r) ** (4.0 * params.k)) @ rad for e in eps_list]
        return cf.psi(params, (Zs, Ts)) * np.vstack([np.full(len(Zs), np.sum(rad)), *sweep])

    nf = len(eps_list) + 1
    est, gain = integrate_polar(alg, params, dyadic_edges(2.0**-30, 2.0**12), multi, nf, n, seed, (2,))
    return verify_mod._power_quotients(est, gain, [{i: 1.0} for i in range(nf)])


@pytest.mark.parametrize("group, k, p", [("heisenberg:1", 1.0, 2.0), ("quaternionic:1", 2.0, 3.0)])
def test_density_total_and_sweep_match_a_sampled_oracle(group, k, p, monkeypatch):
    # independent oracle: the total and every sweep column sampled over
    # the whole group, as the suite did before the meridian rule, agree
    # with the suite's exact values within 3 sigma
    cfg = SuiteConfig(group, k, p)
    alg = cfg.algebra()
    params = cfg.params(alg)
    reports = []
    [sweep] = _captured_sweeps(monkeypatch, lambda: reports.append(verify_fundamental_solution(cfg)))
    exact = [_density_total(reports[0]).observed, *verify_mod._meridian_rule(alg, params, sweep)]
    values, stderrs = _sampled_density(alg, params, cfg.eps_sweep, 10 * cfg.n_samples // 3, cfg.seed)
    for value, sampled, se in zip(exact, values, stderrs):
        assert abs(value - sampled) <= 3.0 * se


def test_fundamental_solution_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fundamental_solution drew a point")

    monkeypatch.setattr(Sampler, "draw", refuse)
    monkeypatch.setattr(verify_mod, "integrate_polar", refuse)
    assert verify_fundamental_solution(SuiteConfig()).overall_pass


def test_lemma1_rejects_invalid_k():
    with pytest.raises(ValueError):
        verify_lemma1(SuiteConfig(group="heisenberg:1", k=0.5, **FAST))


def test_uncertainty_requires_s_in_range():
    with pytest.raises(ValueError):
        verify_uncertainty(SuiteConfig(group="heisenberg:1", k=1.0, p=5.0, **FAST))


def test_moments_columns_match_single_column_estimates(heis1):
    # the gamma columns share one ball sample; each equals the one-column
    # estimate on the same sampler, in value and stderr
    cfg = SuiteConfig(k=2.0, p=2.0, beta=1.0, n_samples=200_000, seed=31)
    params = cfg.params(heis1)
    checks = [c for c in verify_moments(cfg).checks if c.check_id.startswith("ball-moment-")]
    assert [c.check_id for c in checks] == ["ball-moment-0", "ball-moment-1", "ball-moment-6", "ball-moment-9"]
    sampler = Sampler(heis1, params, cfg.seed)
    for check, gamma in zip(checks, (0.0, 1.0, 6.0, 9.0)):
        vals, cov = mc_region_multi(sampler, lambda Z, T: [np.einsum("ni,ni->n", Z, Z) ** (gamma / 2.0)], 1, cfg.n_samples)
        assert check.observed == pytest.approx(vals[0], rel=1e-12)
        assert check.stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)


@pytest.mark.parametrize("group, k, p", [("heisenberg:1", 1.0, 2.0), ("heisenberg:1", 2.0, 2.0),
                                         ("heisenberg:3", 1.5, 2.5), ("quaternionic:1", 2.0, 3.0),
                                         ("quaternionic:2", 1.0, 2.0), ("octonionic", 1.0, 2.0)])
def test_radial_moments_match_full_draws(group, k, p, tmp_path):
    # the ball moments draw only the radii of the sampler's points: each
    # |z|^gamma column, gamma = (2k-1)(p+beta) at beta = 1 among them,
    # equals in value and stderr the estimate from full draws of the same
    # points (m = 8, q = 7 is a custom group of the octonion units)
    if group == "octonionic":
        path = tmp_path / "J.txt"
        path.write_text("\n\n".join("\n".join(" ".join(map(repr, row)) for row in J) for J in octonion_units(7).J.tolist()))
        group = f"custom:{path}"
    cfg = SuiteConfig(group, k, p, beta=1.0, n_samples=200_000, seed=31)
    alg = cfg.algebra()
    params = cfg.params(alg)
    checks = [c for c in verify_moments(cfg).checks if c.check_id.startswith("ball-moment-")]
    gammas = list(dict.fromkeys((0.0, 1.0, (2.0 * k - 1.0) * p, (2.0 * k - 1.0) * (p + 1.0))))
    assert [c.check_id for c in checks] == [f"ball-moment-{g:g}" for g in gammas]
    vals, cov = mc_region_multi(Sampler(alg, params, cfg.seed),
                                lambda Z, T: [np.einsum("ni,ni->n", Z, Z) ** (g / 2.0) for g in gammas],
                                len(gammas), cfg.n_samples)
    np.testing.assert_allclose([c.observed for c in checks], vals, rtol=1e-12)
    np.testing.assert_allclose([c.stderr for c in checks], np.sqrt(np.diag(cov)), rtol=1e-12)


def test_moments_suite_draws_no_direction(monkeypatch, tmp_path):
    # the ball moments map no uniform to a direction on S^{m-1} or S^{q-1}
    def no_directions(U, dim):
        raise AssertionError("the moments suite drew a direction")

    monkeypatch.setattr(quadrature, "_sphere", no_directions)
    assert cli.main(["verify", "--suite", "moments", "--out", str(tmp_path), "--stamp", "T"]) == 0
    with pytest.raises(AssertionError, match="drew a direction"):
        cli.main(["verify", "--suite", "lemma2", "--out", str(tmp_path), "--stamp", "T"])


@pytest.mark.parametrize("group, k, p", [("heisenberg:1", 1.0, 2.0), ("quaternionic:1", 2.0, 3.0)])
def test_moments_working_set_is_bounded(group, k, p):
    # at the default budget (617k ball points on heisenberg:1, 95k on
    # quaternionic:1) the moments pass draws only the radii of its points,
    # in chunks of at most 2^16 values: its peak of traced allocations
    # stays below 4 MB
    cfg = SuiteConfig(group, k, p)
    tracemalloc.start()
    try:
        assert run_suite("moments", cfg).overall_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("group, k, p, beta", [("heisenberg:1", 1.0, 2.0, 0.0), ("heisenberg:3", 1.5, 2.5, 0.0),
                                               ("quaternionic:1", 2.0, 3.0, 1.0), ("heisenberg:1", 2.0, 2.0, 1.0)])
def test_sphere_rule_check(group, k, p, beta, monkeypatch):
    # the meridian rule against sphere_moment at gamma = 0, 1 and
    # (2k-1)(p+beta), reported after the other checks; sin^q in place of
    # sin^{q-1} in its Jacobian fails it
    cfg = SuiteConfig(group, k, p, beta=beta, n_samples=20_000)
    rep = verify_moments(cfg)
    assert [c.check_id for c in rep.checks][-3:] == ["sigma-vs-sphere", "sigma-beta-vs-sphere", "sphere-rule"]
    rule = rep.checks[-1]
    assert rule.kind == "deterministic" and rule.passed and quadrature.QUAD_FLOOR <= rule.tolerance <= 1e-10
    monkeypatch.setattr(quadrature, "grid_integral_1d", _meridian_jacobian_fault(k))
    assert not verify_moments(cfg).checks[-1].passed


def test_moments_suite_has_consistency_checks():
    rep = verify_moments(SuiteConfig(group="heisenberg:1", k=2.0, p=2.0, beta=1.0, **FAST))
    ids = [c.check_id for c in rep.checks]
    assert "sigma-vs-sphere" in ids and "sigma-beta-vs-sphere" in ids
    assert rep.overall_pass


def test_sample_gauge_points_ranges(heis1, rng):
    params = params_for(heis1, k=1.5)
    Z, T = sample_gauge_points(heis1, params, 300, rng, d_range=(0.2, 5.0), zfrac_min=0.3)
    d = norm_d(params, (Z, T))
    assert np.all((d >= 0.2 * (1 - 1e-9)) & (d <= 5.0 * (1 + 1e-9)))
    zn = np.sqrt(np.einsum("ni,ni->n", Z, Z))
    assert np.all(zn >= 0.3 * d * (1 - 1e-9))


def test_median_and_unique_inverse_match_numpy(rng):
    for n in (1, 2, 7, 8):
        x = rng.integers(0, 4, n).astype(float)
        assert verify_mod._median(x) == np.median(x)
        s, at = verify_mod._unique_inverse(x)
        s_np, at_np = np.unique(x, return_inverse=True)
        assert np.array_equal(s, s_np) and np.array_equal(at, at_np.ravel())
    assert math.isnan(verify_mod._median([1.0, math.nan, 2.0, 3.0]))


def test_nan_radial_deviation_stops_the_hardy_suite(monkeypatch):
    # one radial function whose 1-D reduction of the denominator is nan
    # makes the median deviation nan, which stops the suite rather than
    # being skipped
    hardy_ratio_ = verify_mod.hardy_ratio
    spoiled = []

    def one_nan(alg, cases, *args):
        results = hardy_ratio_(alg, cases, *args)
        if not spoiled:
            spoiled.append(next(i for i, (_, phi) in enumerate(cases) if phi.radial))
            results[spoiled[0]] = replace(results[spoiled[0]], rhs_1d=math.nan)
        return results

    monkeypatch.setattr(verify_mod, "hardy_ratio", one_nan)
    with pytest.raises(ValueError, match="hardy/radial-reduction-median-z evaluated to nan"):
        run_suite("hardy", SuiteConfig(group="heisenberg:1", **FAST))


def test_tightest_returns_a_nan_row():
    # a row that could not be evaluated is not skipped: the check it feeds
    # evaluates to nan, which stops the suite
    rows = [(1.0, 0.5, 0.1), (math.nan, 0.5, 0.1), (0.4, 0.5, 0.1)]
    observed, bound, se = verify_mod._tightest(rows, 3.0)
    assert math.isnan(observed) and (bound, se) == (0.5, 0.1)
    assert verify_mod._tightest(rows[::2], 3.0) == (0.4, 0.5, 0.1)
    report = VerificationReport(suite="hardy", group="heisenberg:1", config={})
    with pytest.raises(ValueError, match="hardy/worst evaluated to nan"):
        report.add_bound("worst", observed, bound, "above", stderr=se, nsigma=3.0)
