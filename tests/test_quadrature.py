import math

import numpy as np
import pytest

from _oracles import bessel_series
from wavegrowth.quadrature import (
    OscillatoryIntegrand,
    QuadConfig,
    QuadResult,
    QuadratureError,
    integrate_batch,
    integrate_oscillatory,
    integrate_smooth,
)


def _exp_cos(omega):
    """F(r) = exp(-r) cos(omega r): integral over [0, inf) is 1/(1+omega^2)."""
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    return OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=decay,
        sin_amp=zero,
        pointwise=lambda r: np.exp(-np.asarray(r, dtype=float)) * np.cos(omega * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError, match="positive"):
        QuadConfig(rel_tol=-1e-9)
    with pytest.raises(ValueError, match="1024"):
        QuadConfig(max_panels=512)
    with pytest.raises(ValueError, match="rule"):
        QuadConfig(oscillation_rule="filon")
    cfg = QuadConfig()
    assert cfg.target(0.0) == cfg.abs_tol
    assert cfg.target(1.0) == pytest.approx(cfg.rel_tol)
    assert cfg.target(-2.0) == pytest.approx(2.0 * cfg.rel_tol)


@pytest.mark.parametrize("omega", [0.5, 5.0, 40.0, 200.0])
def test_exponential_cosine_closed_form(omega):
    exact = 1.0 / (1.0 + omega * omega)
    cfg = QuadConfig()
    res = integrate_oscillatory(
        _exp_cos(omega), 0.0, math.inf, cfg, tail_bound=lambda rho: math.exp(-rho)
    )
    assert abs(res.value - exact) <= max(res.error, cfg.target(exact))
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error >= 0.0 and res.panels > 0


def test_exponential_sine_closed_form():
    omega = 7.0
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=zero,
        sin_amp=decay,
        pointwise=lambda r: np.exp(-np.asarray(r, float)) * np.sin(omega * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, math.inf, tail_bound=lambda rho: math.exp(-rho))
    assert res.value == pytest.approx(omega / (1.0 + omega * omega), rel=1e-9)


def test_mixed_smooth_and_oscillatory_parts():
    omega = 5.0
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=decay,
        cos_amp=decay,
        sin_amp=zero,
        pointwise=lambda r: np.exp(-np.asarray(r, float)) * (1.0 + np.cos(omega * np.asarray(r))),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, math.inf, tail_bound=lambda rho: 2.0 * math.exp(-rho))
    assert res.value == pytest.approx(1.0 + 1.0 / 26.0, rel=1e-9)


def test_rules_agree_and_the_slow_rule_costs_more():
    """The pointwise reference rule reproduces the Filon value at a high
    panel count; disagreement here would mean the fast path integrates a
    different function."""
    omega = 40.0
    hi = 30.0
    fast = integrate_oscillatory(_exp_cos(omega), 0.0, hi, QuadConfig())
    slow = integrate_oscillatory(
        _exp_cos(omega), 0.0, hi, QuadConfig(oscillation_rule="panel-per-period")
    )
    assert fast.value == pytest.approx(slow.value, rel=2e-12, abs=1e-15)
    assert slow.panels > 3 * fast.panels


def test_pointwise_rule_fails_loudly_at_high_frequency():
    cfg = QuadConfig(max_panels=1024, oscillation_rule="panel-per-period")
    with pytest.raises(QuadratureError, match="panel budget"):
        integrate_oscillatory(_exp_cos(1e4), 0.0, 30.0, cfg)


def test_exhausted_refinement_reports_its_best_estimate():
    """When refinement hits the budget the error must carry the partial
    answer, so callers can decide instead of losing the work."""
    omega = 1e5
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(omega * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    exact = -1.0613845402546906e-05
    with pytest.raises(QuadratureError) as info:
        # the default absolute tolerance sits below the phase-noise floor
        # of this cancellation-dominated integral
        integrate_oscillatory(f, 1e4, 1e4 + 1.0, QuadConfig())
    assert info.value.achieved == pytest.approx(exact, abs=1e-9)
    assert info.value.error_estimate is not None and info.value.error_estimate > 0.0


def test_batch_isolates_a_failing_integral():
    """An integral that exhausts its budget ends with its own error and
    leaves its batch neighbours exactly as they are when run alone, each
    over its own range and with its own tail bound."""
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    failing = OscillatoryIntegrand(
        omega=1e5,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(1e5 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    converging = OscillatoryIntegrand(
        omega=3.0,
        smooth=one,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: 1.0 + np.cos(3.0 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    lo, hi = 1e4, 1e4 + 1.0
    alone = integrate_oscillatory(converging, lo, hi, QuadConfig())
    bad, good = integrate_batch([failing, converging], lo, hi, QuadConfig())
    assert (good.value, good.error, good.panels) == (alone.value, alone.error, alone.panels)
    assert good.value == pytest.approx(1.0 + (math.sin(3.0 * hi) - math.sin(3.0 * lo)) / 3.0, rel=1e-12)
    assert isinstance(bad, QuadratureError) and "panel budget" in str(bad)
    assert bad.achieved == pytest.approx(-1.0613845402546906e-05, abs=1e-9)
    assert bad.error_estimate is not None and bad.error_estimate > 0.0

    # one integrand on several ranges, with mixed tails and an empty range
    osc = _exp_cos(40.0)
    rows = [
        (failing, lo, hi, None),
        (converging, lo, hi, None),
        (converging, 0.0, 2.5, lambda rho: 5.0),
        (osc, 0.0, math.inf, lambda rho: math.exp(-rho)),
        (osc, 3.0, math.inf, lambda rho: 2.0 * math.exp(-rho)),
        (osc, 0.0, 3.0, None),
        (osc, 1.0, 1.0, None),
    ]
    integrands, los, his, tails = zip(*rows)
    bad_mixed, *mixed = integrate_batch(integrands, los, his, QuadConfig(), tails)
    for (f, a, b, tail), res in zip(rows[1:], mixed):
        assert res == integrate_oscillatory(f, a, b, QuadConfig(), tail_bound=tail)
    assert mixed[0] == good and mixed[-1] == QuadResult(0.0, 0.0, 0)
    assert mixed[2].value == pytest.approx(1.0 / 1601.0, rel=1e-9)
    assert mixed[3].value + mixed[4].value == pytest.approx(mixed[2].value, rel=1e-9)
    assert (bad_mixed.achieved, bad_mixed.error_estimate) == (bad.achieved, bad.error_estimate)


def test_norm_curve_raises_the_earliest_failure(example):
    """Under a tight budget the example's small times fail and its large
    times converge; norm_curve raises the error of the first failing t in
    the order given, as a loop over the times would."""
    from wavegrowth.spectral import norm_curve, norm_sq_fourier, norm_sq_samples

    cfg = QuadConfig(rel_tol=1e-13, max_panels=1024)
    ts = np.array([1e6, 1e2, 1e1, 1e4])
    results = norm_sq_samples(example, ts, cfg)
    assert [isinstance(r, QuadratureError) for r in results] == [False, True, True, False]
    with pytest.raises(QuadratureError) as info:
        norm_curve(example, ts, cfg)
    with pytest.raises(QuadratureError) as first:
        norm_sq_fourier(example, 1e2, cfg)
    assert str(info.value) == str(first.value)
    assert info.value.achieved == first.value.achieved
    assert info.value.error_estimate == first.value.error_estimate
    assert norm_sq_fourier(example, 1e6, cfg) == results[0]


def test_extreme_phase_reduction():
    """Phases near 1e9 radians: plain float cos(omega x) loses the digits
    this value needs, so the phase split has to be reduced in extended
    precision."""
    omega = 1e5
    lo = 1e4
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(omega * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    # (sin(omega (lo+1)) - sin(omega lo)) / omega at 30 significant digits
    exact = -1.0613845402546906e-05
    res = integrate_oscillatory(f, lo, lo + 1.0, QuadConfig(abs_tol=1e-10))
    assert abs(res.value - exact) <= 1e-10


def test_empty_and_invalid_ranges():
    f = _exp_cos(3.0)
    assert integrate_oscillatory(f, 2.0, 2.0) == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo < hi"):
        integrate_oscillatory(f, 3.0, 2.0)
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_oscillatory(f, 0.0, math.inf)
    # the same rules hold entry by entry in a batch with ranges of its own
    tail = lambda rho: math.exp(-rho)
    assert integrate_batch([f, f], [2.0, 0.0], [2.0, 1.0])[0] == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo < hi"):
        integrate_batch([f, f], [0.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_batch([f, f], 0.0, [1.0, math.inf], tail_bound=[tail, None])
    with pytest.raises(ValueError, match="tail bounds"):
        integrate_batch([f, f], 0.0, math.inf, tail_bound=[tail])


def test_divergent_tail_raises():
    f = lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float))
    with pytest.raises(QuadratureError, match="diverges"):
        integrate_smooth(f, 0.0, math.inf, tail_bound=lambda rho: math.inf)


def test_smooth_integration():
    gauss = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    res = integrate_smooth(gauss, 0.0, 3.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(3.0), rel=1e-10)
    res = integrate_smooth(
        gauss, 0.0, math.inf, tail_bound=lambda rho: math.exp(-rho * rho) / (2.0 * rho)
    )
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


@pytest.mark.parametrize(
    "f, edges, tail",
    [
        (
            lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
            [0.0, 0.7, 3.0, math.inf],
            lambda rho: math.exp(-rho * rho) / (2.0 * rho),
        ),
        (lambda x: np.abs(x) * np.exp(-np.asarray(x, dtype=float) ** 2), [-4.0, 0.0, 4.0], None),
        (lambda x: np.where(np.asarray(x) <= 1.0, 1.0, 0.0) * np.cos(x), [-2.0, 1.0, 2.0], None),
    ],
    ids=["gauss-pieces", "abs-kink", "step"],
)
def test_smooth_pieces_are_independent_integrations(f, edges, tail):
    """A call with break points is the single-range calls on each piece,
    summed: every piece keeps its own partition."""
    pieces = [integrate_smooth(f, a, b, tail_bound=tail) for a, b in zip(edges[:-1], edges[1:])]
    res = integrate_smooth(f, edges[:-1], edges[1:], tail_bound=tail)
    assert res.value == sum(p.value for p in pieces)
    assert res.error == sum(p.error for p in pieces)
    assert res.panels == sum(p.panels for p in pieces)


def test_smooth_break_at_a_kink_reaches_the_tolerance():
    # int_-2^3 |x| e^{-x^2} dx = 1 - (e^{-4} + e^{-9})/2
    f = lambda x: np.abs(x) * np.exp(-np.asarray(x, dtype=float) ** 2)
    cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-13)
    res = integrate_smooth(f, [-2.0, 0.0], [0.0, 3.0], cfg)
    want = 1.0 - 0.5 * (math.exp(-4.0) + math.exp(-9.0))
    assert res.error <= 0.25 * cfg.target(want)
    assert res.value == pytest.approx(want, rel=1e-13)


def test_oscillatory_bessel_spot_check():
    """int_0^20 J0(r) cos(3 r) dr has no elementary form; cross-check the
    engine against plain high-order panel quadrature of the same integrand."""
    from scipy.integrate import quad as scipy_quad
    from scipy.special import j0

    omega = 3.0
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=lambda r: np.zeros(np.shape(r)),
        cos_amp=lambda r: j0(np.asarray(r, dtype=float)),
        sin_amp=lambda r: np.zeros(np.shape(r)),
        pointwise=lambda r: j0(np.asarray(r, float)) * np.cos(omega * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, 20.0)
    ref, _ = scipy_quad(lambda r: j0(r) * math.cos(omega * r), 0.0, 20.0, limit=200)
    assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_reference_bessel_series_matches_scipy():
    # sanity for the test-side oracle itself
    from scipy.special import j0, j1

    for x in (0.0, 0.5, 3.7, 11.0, 19.5):
        assert bessel_series(0, x) == pytest.approx(float(j0(x)), abs=2e-14)
        assert bessel_series(1, x) == pytest.approx(float(j1(x)), abs=2e-14)
