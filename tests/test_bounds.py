import math

import numpy as np
import pytest

from _oracles import gauss_mean_deviation_sq, kappa1_quadrature, kappa1_reference, trick_T_reference
from wavegrowth import bounds
from wavegrowth.bounds import (
    DELTA0,
    KAPPA1,
    SandwichError,
    check_window,
    envelopes,
    lower_time_threshold,
    sandwich_report,
    term_checks,
    trick_T,
    trick_T_lower,
    upper_constant,
    _mean_deviation_sq,
)
from wavegrowth.profiles import DataNorms, Profile, moments, unit_sphere_measure
from wavegrowth.quadrature import QuadResult

TWO_PI = 2.0 * math.pi
T_MIN_2D = 5.0 * math.pi / 4.0


def _norms_from(**kw):
    base = dict(
        l1_u0=0.0, l2_u0=0.0, l1_u1=1.0, l2_u1=1.0,
        l11_u1=1.0, i0n=2.0, mean_u1=1.0,
    )
    base.update(kw)
    return DataNorms(**base)


# --------------------------------------------------------------- kappa1, T
def test_the_split_radius_and_the_chain_window():
    """The proof holds for any split radius below 1 and the package takes
    one; the chains hold for t > 1 in 1D and t >= e in 2D, and the message
    names what was asked for."""
    assert DELTA0 == 0.99
    check_window(1, math.nextafter(1.0, 2.0), "envelopes")
    check_window(2, math.e, "envelopes")
    with pytest.raises(ValueError, match="^1D envelopes need t > 1$"):
        check_window(1, 1.0, "envelopes")
    with pytest.raises(ValueError, match="^2D term checks need t >= e$"):
        check_window(2, math.nextafter(math.e, 0.0), "term checks")


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("a", [0.5, 0.99])
def test_kappa1_matches_si_ci_closed_form(dimension, a):
    """int_0^a sin^2(s) s^{n-3} ds by Si and Ci against a 40-digit quadrature,
    at the split radius and at a smaller one, where the proof holds too; at
    the split radius it is the package's constant, bit for bit."""
    assert kappa1_reference(dimension, a) == pytest.approx(kappa1_quadrature(dimension, a), rel=4e-16, abs=0.0)
    if a == DELTA0:
        assert KAPPA1[dimension] == kappa1_reference(dimension, a)


@pytest.mark.parametrize("dimension", [1, 2])
def test_kappa1_is_the_split_constant_to_the_last_bit(gauss2d_vel, example, dimension):
    """KAPPA1 is within 1 ulp of a 40-digit quadrature, and term_checks
    takes K1 = |S| t^(2-n) KAPPA1 at every t."""
    want = kappa1_quadrature(dimension, DELTA0)
    assert abs(KAPPA1[dimension] - want) <= math.ulp(want)
    pair = example if dimension == 1 else gauss2d_vel
    for t in (20.0, 50.0):
        assert term_checks(pair, t).K1 == unit_sphere_measure(dimension) * t ** (2 - dimension) * KAPPA1[dimension]


@pytest.mark.parametrize("t", [5.0, 1000.0])
def test_trick_integral_matches_dawson_reference(t):
    assert trick_T(t).value == pytest.approx(trick_T_reference(t), rel=1e-11)


def test_trick_lower_bound():
    with pytest.raises(ValueError, match="5 pi / 4"):
        trick_T_lower(T_MIN_2D)
    assert trick_T_lower(T_MIN_2D * (1.0 + 1e-12)) == pytest.approx(0.0, abs=1e-11)
    # one log unit above the corner the bound is exactly pi / (2 e)
    assert trick_T_lower(T_MIN_2D * math.e) == pytest.approx(math.pi / (2.0 * math.e), rel=1e-13)
    for t in (10.0, 100.0, 1e4):
        assert trick_T_lower(t) < trick_T(t).value


# -------------------------------------------------------------- thresholds
def test_example_threshold_is_twelve(example):
    norms = moments(example)
    t_star = lower_time_threshold(norms, 1)
    assert t_star == pytest.approx(12.0, rel=1e-12)
    # at the threshold the error terms eat exactly half of the retained
    # low-frequency mass, so the final envelope meets the Ilow bound
    bb = envelopes(norms, t_star, 1)
    assert bb.final_lb == pytest.approx(bb.Ilow_lb, rel=1e-12)
    assert bb.t_star == pytest.approx(t_star)


def test_threshold_clamps_to_one():
    norms = _norms_from(l11_u1=0.01)
    assert lower_time_threshold(norms, 1) == 1.0


def test_threshold_infinite_without_mean(p0_2d):
    assert math.isinf(lower_time_threshold(moments(p0_2d), 2))


def test_threshold_2d_defining_property(gauss2d_vel):
    norms = moments(gauss2d_vel)
    t_star = lower_time_threshold(norms, 2)
    assert math.isfinite(t_star) and t_star > 1e90
    bb = envelopes(norms, t_star, 2)
    half_main = norms.mean_u1**2 / 8.0 * trick_T_lower(t_star)
    assert bb.final_lb == pytest.approx(half_main, rel=1e-6)


# --------------------------------------------------------------- envelopes
def test_envelope_window_validation(example, gauss2d_vel):
    with pytest.raises(ValueError, match="t > 1"):
        envelopes(moments(example), 1.0, 1)
    with pytest.raises(ValueError, match="t >= e"):
        envelopes(moments(gauss2d_vel), 2.0, 2)
    with pytest.raises(ValueError, match="dimension"):
        envelopes(moments(gauss2d_vel), 10.0, 3)
    # between e and the logarithmic corner the lower chain is vacuous
    # but defined
    bb = envelopes(moments(gauss2d_vel), 2.72, 2)
    assert bb.T_lb == 0.0
    assert bb.final_lb <= 0.0


def test_envelopes_need_the_moment_norm():
    norms = _norms_from(l11_u1=None)
    with pytest.raises(ValueError, match="weighted L1"):
        envelopes(norms, 10.0, 1)


def test_envelopes_bracket_the_example_norm(example):
    """The chain must sandwich the piecewise-exact squared norm (Fourier
    side carries the 2 pi factor)."""
    norms = moments(example)
    for t in (1e2, 1e4):
        bb = envelopes(norms, t, 1)
        fourier_msq = TWO_PI * (8.0 * (t - 1.0) + 16.0 / 3.0)
        assert bb.final_lb <= fourier_msq <= bb.final_ub
        assert bb.final_lb > 0.0
        assert len(bb.O_terms) == 2


def test_envelope_terms_2d_shape(gauss2d_vel):
    bb = envelopes(moments(gauss2d_vel), 1e3, 2)
    assert len(bb.O_terms) == 3
    assert bb.T_lb is not None and bb.T_lb > 0.0
    for field in ("K1_lb", "K2_ub", "J1_lb", "J2_ub", "Ilow_lb", "L1_ub", "L2_ub", "N1_ub", "N2_ub"):
        assert getattr(bb, field) >= 0.0


def test_linear_rate_is_pinned_between_envelopes(example):
    """final envelopes over t stay within constant factors of t in 1D."""
    norms = moments(example)
    ratios = [envelopes(norms, t, 1).final_ub / t for t in np.logspace(2, 5, 7)]
    assert max(ratios) / min(ratios) <= 5.0


def test_log_rate_is_pinned_between_envelopes(gauss2d_vel):
    norms = moments(gauss2d_vel)
    ratios = [envelopes(norms, t, 2).final_ub / math.log(t) for t in np.logspace(3, 6, 7)]
    assert max(ratios) / min(ratios) <= 5.0


def test_upper_constant_defining_property(gauss2d_vel):
    norms = moments(gauss2d_vel)
    ts = [1e3, 1e4, 1e5, 1e6]
    c = upper_constant(norms, ts)
    best = max(
        math.sqrt(envelopes(norms, t, 2).final_ub / (TWO_PI**2 * norms.i0n**2 * math.log(t)))
        for t in ts
    )
    assert c == pytest.approx(best, rel=1e-12)
    for t in ts:
        bb = envelopes(norms, t, 2)
        assert bb.final_ub <= c**2 * TWO_PI**2 * norms.i0n**2 * math.log(t) * (1.0 + 1e-12)


# ---------------------------------------------------------------- sandwich
def test_sandwich_report_example(example):
    rep = sandwich_report(example, 100.0)
    assert rep.ok
    assert not rep.failures
    names = [c[0] for c in rep.checks]
    assert len(names) == 22
    assert "threshold beyond t_star" in names
    assert "split additivity" in names
    assert names[0] == "K1 lower bound"


def test_sandwich_report_below_threshold_skips_that_check(example):
    rep = sandwich_report(example, 5.0)
    assert rep.ok
    names = [c[0] for c in rep.checks]
    assert len(names) == 21
    assert "threshold beyond t_star" not in names


def test_sandwich_report_2d(gauss2d_vel):
    rep = sandwich_report(gauss2d_vel, 1e3)
    assert rep.ok
    names = [c[0] for c in rep.checks]
    assert len(names) == 24
    assert "T lower bound" in names
    assert "window split vs norm" in names


def test_sandwich_failure_names_the_broken_link(example, monkeypatch):
    monkeypatch.setattr(bounds, "trick_T", lambda t, cfg=None: QuadResult(1e-12, 1e-15, 1))
    from wavegrowth.profiles import ProfilePair

    pair = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0))
    with pytest.raises(SandwichError, match="T lower bound"):
        sandwich_report(pair, 1e3)
    rep = sandwich_report(pair, 1e3, raise_on_failure=False)
    assert not rep.ok
    assert any("T lower bound" in f for f in rep.failures)


def test_term_checks_match_the_split(example, gauss2d_vel):
    from wavegrowth.spectral import l2_norm

    for pair in (example, gauss2d_vel):
        tc = term_checks(pair, 50.0)
        assert tc.dimension == pair.dimension
        # measured low plus high parts must reproduce the full norm
        total = l2_norm(pair, 50.0) ** 2 * TWO_PI**pair.dimension
        assert tc.Ilow + tc.Ihigh == pytest.approx(total, rel=1e-8)
        # with u0 = 0 the norm blocks and the chain links are one integrand
        assert tc.Ilow == pytest.approx(tc.J1, rel=1e-14)
        assert tc.Ihigh == pytest.approx(tc.N1, rel=1e-14)


@pytest.mark.parametrize("name", ["example", "gauss2d_vel"])
def test_term_checks_integrate_every_link_on_its_own_block(name, request, monkeypatch):
    """K2, J1, J2, Ilow, Ihigh, the O parts, N1, N2 and total are one
    integration each, in that order: N1, Ihigh and total are not sums of
    pieces, and the first link that fails is the one raised.  The 2D
    window integral T is none: at t = 50 it is the closed form of its unit
    velocity's norm, with no panel."""
    integrate, ranges = bounds.integrate_oscillatory, []

    def recorded(f, lo, hi, *args, **kwargs):
        ranges.append((lo, hi))
        return integrate(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(bounds, "integrate_oscillatory", recorded)
    pair, t, d0, inf = request.getfixturevalue(name), 50.0, DELTA0, math.inf
    checks = term_checks(pair, t)
    cut = d0 / t
    mids = [d0 / math.sqrt(t)] if pair.dimension == 1 else [d0 / math.sqrt(t), d0 / math.sqrt(math.log(t))]
    edges = [cut, *mids, inf]
    o_parts = [(edges[i], edges[i + 1]) for i in reversed(range(len(edges) - 1))]
    chain = [(0.0, cut)] * 4 + [(cut, inf), *o_parts, (cut, inf), (cut, inf), (0.0, inf)]
    assert ranges == chain
    if pair.dimension == 2:
        T = trick_T(t)
        assert T.panels == 0 and checks.T == T.value


@pytest.mark.parametrize("rho", [1e-9, 1e-7, 1e-5, 1e-3])
@pytest.mark.parametrize("dimension, center", [(1, 0.4), (2, (0.3, -0.2))], ids=["1d", "2d"])
def test_the_k2_deviation_of_shifted_data_keeps_its_digits_at_small_rho(dimension, center, rho):
    """The K2 integrand of a shifted gaussian is int_S |h^(rho w) - h^(0)|^2 dw
    to 1e-12 relative near rho = 0, where its phase term Sigma_n(rho |c|)
    is O(rho^2): 1 - cos x and 1 - J0(x) formed as differences from 1 lost
    up to 3e-2 of it at rho = 1e-7.  At t = 1e6 the whole K2 block
    [0, delta0 / t] lies below rho = 1e-6."""
    p = Profile.gaussian(dimension, 0.7, 0.5, center=center)
    want = gauss_mean_deviation_sq(dimension, 0.7, 0.5, center, rho)
    assert float(_mean_deviation_sq(p)(rho)) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_term_checks_need_the_split_regime(example, gauss2d_vel, monkeypatch):
    """Below the envelopes' window the O-piece split points are out of
    order or undefined, and below DELTA0 the split radius exceeds 1: each
    such time is refused before any integration."""

    def no_integration(*args, **kwargs):
        raise AssertionError("a refused time reached an integration")

    for name in ("integrate_oscillatory", "norm_sq_samples"):
        monkeypatch.setattr(bounds, name, no_integration)
    for pair, t, regime in ((example, 0.5, "1D term checks need t > 1"),
                            (example, DELTA0, "1D term checks need t > 1"),
                            (example, 0.995, "1D term checks need t > 1"),
                            (gauss2d_vel, 0.995, "2D term checks need t >= e"),
                            (gauss2d_vel, 1.0, "2D term checks need t >= e")):
        with pytest.raises(ValueError, match=regime):
            term_checks(pair, t)
