import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegrowth import analysis
from wavegrowth.analysis import (
    FitError,
    RateFit,
    fit_bounded,
    fit_loglinear,
    fit_power,
    loglinear_slope_floor,
    model_select,
)
from wavegrowth.cli import build_config
from wavegrowth.oracles import example_pair
from wavegrowth.profiles import Profile, ProfilePair
from wavegrowth.spectral import NormCurve, norm_curve


def synthetic_curve(
    model: str,
    params,
    window: tuple[float, float],
    n: int = 60,
    noise: float = 0.01,
    rng: np.random.Generator | None = None,
    dimension: int = 1,
) -> NormCurve:
    """A log-spaced norm curve drawn from one model law.

    Noise is multiplicative on the M^2 level: y = law(t) (1 + noise g)
    with g standard normal, matching how quadrature error and model
    mismatch enter real curves.
    """
    if model not in ("power", "log_linear", "bounded"):
        raise FitError(f"unknown model {model!r}")
    t = np.logspace(math.log10(window[0]), math.log10(window[1]), n)
    msq = RateFit(model, tuple(map(float, params)), (), tuple(window), 0.0, n).predict_msq(t)
    if np.any(msq <= 0.0):
        raise FitError("model parameters produce nonpositive norms on this window")
    if rng is not None and noise > 0.0:
        msq = msq * (1.0 + noise * rng.standard_normal(t.shape))
    two_pi_n = (2.0 * math.pi) ** dimension
    return NormCurve(dimension, t, msq * two_pi_n, np.zeros_like(t))


# -------------------------------------------------------- noiseless fits
def test_noiseless_power_fit_is_exact():
    curve = synthetic_curve("power", (3.0, 0.5), (1e2, 1e5))
    fit = fit_power(curve)
    assert fit.model == "power"
    assert fit.params[0] == pytest.approx(3.0, rel=1e-12)
    assert fit.params[1] == pytest.approx(0.5, rel=1e-12)
    assert fit.residual_rms <= 1e-12
    assert fit.samples_used == 60
    assert fit.t_window == (1e2, 1e5)


def test_noiseless_loglinear_fit_is_exact():
    curve = synthetic_curve("log_linear", (2.0, 5.0), (1e3, 1e6), dimension=2)
    fit = fit_loglinear(curve, mean_u1=4.0)
    assert fit.params[0] == pytest.approx(2.0, rel=1e-11)
    assert fit.params[1] == pytest.approx(5.0, rel=1e-12)
    assert fit.residual_rms <= 1e-12


def test_noiseless_bounded_fit_is_exact():
    curve = synthetic_curve("bounded", (7.0,), (1e2, 1e5))
    fit = fit_bounded(curve)
    assert fit.params[0] == pytest.approx(7.0, rel=1e-14)
    assert fit.stderr[0] <= 1e-13
    assert fit.residual_rms <= 1e-14


# ----------------------------------------------------------- seeded fits
def test_seeded_power_fit():
    curve = synthetic_curve("power", (3.0, 0.5), (1e2, 1e5), rng=np.random.default_rng(7))
    fit = fit_power(curve)
    assert fit.params[0] == pytest.approx(2.984757198805524, rel=1e-12)
    assert fit.params[1] == pytest.approx(0.5004996277239192, rel=1e-12)
    assert fit.stderr[1] == pytest.approx(0.00027860394460186167, rel=1e-10)
    assert fit.residual_rms == pytest.approx(0.00861191269154148, rel=1e-10)


def test_seeded_loglinear_fit():
    curve = synthetic_curve(
        "log_linear", (2.0, 5.0), (1e3, 1e6), rng=np.random.default_rng(7), dimension=2
    )
    fit = fit_loglinear(curve, mean_u1=4.0)
    assert fit.params[0] == pytest.approx(1.3494705692982123, rel=1e-12)
    assert fit.params[1] == pytest.approx(5.053896229381053, rel=1e-12)
    assert fit.stderr[1] / fit.params[1] == pytest.approx(0.00615, abs=2e-4)


def test_seeded_bounded_fit():
    curve = synthetic_curve("bounded", (7.0,), (1e2, 1e5), rng=np.random.default_rng(7))
    fit = fit_bounded(curve)
    assert fit.params[0] == pytest.approx(6.984253704501036, rel=1e-12)
    assert fit.stderr[0] == pytest.approx(0.008040973941710232, rel=1e-10)


# -------------------------------------------------------- model selection
@pytest.mark.parametrize(
    "model,params,window,dim",
    [
        ("power", (3.0, 0.5), (1e2, 1e5), 1),
        ("log_linear", (2.0, 5.0), (1e3, 1e6), 2),
        ("bounded", (7.0,), (1e2, 1e5), 1),
    ],
)
def test_model_recovery_under_noise(model, params, window, dim):
    recovered = 0
    for seed in range(100):
        curve = synthetic_curve(
            model, params, window, rng=np.random.default_rng(seed), dimension=dim
        )
        if model_select(curve).model == model:
            recovered += 1
    assert recovered == 100


def test_selection_carries_the_losers():
    curve = synthetic_curve("power", (3.0, 0.5), (1e2, 1e5), rng=np.random.default_rng(3))
    best = model_select(curve)
    assert best.model == "power"
    assert len(best.candidates) == 2
    assert {c.model for c in best.candidates} == {"log_linear", "bounded"}
    assert best.candidates[0].residual_rms <= best.candidates[1].residual_rms
    assert best.residual_rms <= best.candidates[0].residual_rms


def test_model_select_windows_the_curve_once(monkeypatch):
    """The three fits share one windowed curve and give what each public
    fit gives on its own."""
    curve = synthetic_curve("log_linear", (1.0, 0.3), (1e2, 1e5), rng=np.random.default_rng(11), dimension=2)
    alone = {fit.model: fit for fit in (fit_power(curve), fit_loglinear(curve), fit_bounded(curve))}
    calls = []
    real = analysis._windowed

    def windowed(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "_windowed", windowed)
    best = model_select(curve)
    assert len(calls) == 1
    for fit in (best, *best.candidates):
        assert fit.as_dict() == alone[fit.model].as_dict()


# ---------------------------------------- the one-pass fits against the formulas
def _reference_line_fit(x, y):
    """OLS y = b0 + b1 x with standard errors (b0, b1, se0, se1), one model at a time."""
    n = x.size
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    b1 = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    b0 = float(y.mean() - b1 * xm)
    s2 = float(np.sum((y - (b0 + b1 * x)) ** 2)) / max(n - 2, 1)
    return b0, b1, math.sqrt(s2 * (1.0 / n + xm**2 / sxx)), math.sqrt(s2 / sxx)


def _reference_fits(curve):
    """The three fits as separate formulas: (params, stderr, rms) per model, and the selected label."""
    t, msq = np.asarray(curve.t, dtype=float), np.asarray(curve.msq, dtype=float)
    rms = lambda pred: float(np.sqrt(np.mean(((pred - msq) / msq) ** 2)))
    b0, b1, se0, se1 = _reference_line_fit(np.log(t), 0.5 * np.log(msq))
    a = math.exp(b0)
    c0, c1, ce0, ce1 = _reference_line_fit(np.log(t), msq)
    w = 1.0 / msq**2
    c = float(np.sum(w * msq) / np.sum(w))
    s2 = float(np.sum(w * (msq - c) ** 2) / (max(t.size - 1, 1) * np.sum(w)))
    fits = {
        "power": ((a, b1), (a * se0, se1), rms((a * t**b1) ** 2)),
        "log_linear": ((c0, c1), (ce0, ce1), rms(c0 + c1 * np.log(t))),
        "bounded": ((c,), (math.sqrt(s2),), rms(np.full(t.shape, c))),
    }
    power, loglin, bounded = (fits[m][2] for m in ("power", "log_linear", "bounded"))
    if bounded <= 1.1 * min(power, loglin) + 1e-6:
        return fits, "bounded"
    return fits, "power" if power <= loglin else "log_linear"


def _assert_matches_the_reference(curve):
    fits, label = _reference_fits(curve)
    best = model_select(curve)
    assert best.model == label
    for fit in (best, *best.candidates):
        params, stderr, rms = fits[fit.model]
        got, want = (*fit.params, *fit.stderr, fit.residual_rms), (*params, *stderr, rms)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-8, abs=1e-14)
        assert fit.t_window == (curve.t.min(), curve.t.max()) and fit.samples_used == curve.t.size


_LAWS = st.one_of(
    st.tuples(st.just("power"), st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 1.0))),
    st.tuples(st.just("log_linear"), st.tuples(st.floats(0.5, 5.0), st.floats(0.05, 5.0))),
    st.tuples(st.just("bounded"), st.tuples(st.floats(0.1, 10.0))),
)


@settings(max_examples=150, deadline=None)
@given(
    law=_LAWS,
    start=st.floats(0.0, 3.0),
    decades=st.floats(2.0, 4.0),
    n=st.integers(20, 60),
    noise=st.just(0.0) | st.floats(0.0, 0.01),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_select_matches_the_three_separate_fits(law, start, decades, n, noise, seed):
    """The one-pass kernel gives the label of the three separate formulas
    and their params, stderr and rms within 1e-8 relative or 1e-14 absolute,
    on curves of each law with 0-1% noise over 2-4 decades."""
    model, params = law
    window = (10.0**start, 10.0 ** (start + decades))
    curve = synthetic_curve(model, params, window, n=n, noise=noise, rng=np.random.default_rng(seed))
    _assert_matches_the_reference(curve)


@pytest.mark.parametrize(
    "pair",
    [
        example_pair(),
        ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1.3, 0.8)),
        ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 0.7, 1.9)),
        ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 0.6, 1.2)),
        ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 1.9, 1.2)),
    ],
    ids=["example", "gauss1d", "gauss2d", "poly2d", "poly2d-wide"],
)
def test_model_select_matches_the_three_separate_fits_on_the_catalog(pair):
    """The same on a 25-t norm curve over [1e2, 1e6] of each catalog family."""
    _assert_matches_the_reference(norm_curve(pair, np.logspace(2.0, 6.0, 25)))


def test_bounded_wins_on_a_near_flat_real_curve(p0_2d):
    ts = np.logspace(2.0, 5.0, 21)
    curve = norm_curve(p0_2d, ts)
    best = model_select(curve)
    assert best.model == "bounded"
    assert best.params[0] == pytest.approx(math.pi / 32.0, rel=1e-3)


# ------------------------------------------------- covariance under scale
def test_amplitude_scaling_moves_the_loglinear_slope(gauss2d_vel):
    from wavegrowth.profiles import Profile, ProfilePair

    ts = np.logspace(3.0, 5.0, 21)
    base = fit_loglinear(norm_curve(gauss2d_vel, ts), mean_u1=2.0 * math.pi)
    scaled_pair = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0, 3.0))
    scaled = fit_loglinear(norm_curve(scaled_pair, ts), mean_u1=6.0 * math.pi)
    assert scaled.params[1] / base.params[1] == pytest.approx(9.0, rel=1e-8)
    assert scaled.params[0] / base.params[0] == pytest.approx(9.0, rel=1e-8)


def test_amplitude_scaling_leaves_the_exponent_alone():
    t = np.logspace(2.0, 5.0, 40)
    msq = (2.0 * t**0.5) ** 2
    base = fit_power(NormCurve(1, t, msq * 2.0 * math.pi, np.zeros_like(t)))
    scaled = fit_power(NormCurve(1, t, 9.0 * msq * 2.0 * math.pi, np.zeros_like(t)))
    assert scaled.params[1] == pytest.approx(base.params[1], rel=1e-13)
    assert scaled.params[0] == pytest.approx(3.0 * base.params[0], rel=1e-12)


# ------------------------------------------------------------ guard rails
def test_slope_floor_value():
    assert loglinear_slope_floor(4.0) == pytest.approx(16.0 / (math.e * 32.0 * math.pi), rel=1e-15)


def test_fit_below_the_proven_floor_is_refused():
    curve = synthetic_curve("log_linear", (1.0, 0.01), (1e3, 1e6), dimension=2)
    with pytest.raises(FitError, match="floor"):
        fit_loglinear(curve, mean_u1=4.0)
    # without the mean the same fit is fine
    assert fit_loglinear(curve).params[1] == pytest.approx(0.01, rel=1e-9)


def test_too_few_samples():
    curve = synthetic_curve("power", (3.0, 0.5), (1e2, 1e5), n=10)
    with pytest.raises(FitError, match="at least 20"):
        fit_power(curve)


def test_too_narrow_window():
    curve = synthetic_curve("power", (3.0, 0.5), (1e3, 1e4), n=30)
    with pytest.raises(FitError, match="decades"):
        fit_power(curve)


def test_nonpositive_samples_are_refused():
    t = np.logspace(2.0, 5.0, 30)
    msq = np.full(t.shape, 2.0)
    msq[4] = 0.0
    curve = NormCurve(1, t, msq * 2.0 * math.pi, np.zeros_like(t))
    with pytest.raises(FitError, match="nonpositive"):
        fit_bounded(curve)
    # a time at or below 0 has no logarithm: refused, not fitted to nan or a math domain error
    for t0 in (0.0, -5.0):
        times = t.copy()
        times[0] = t0
        with pytest.raises(FitError, match="nonpositive times"):
            model_select(NormCurve(1, times, np.full(t.shape, 4.0 * math.pi), np.zeros_like(t)))


@pytest.mark.parametrize(
    "where, value, named",
    [("msq", math.nan, "t=1082.63.*, M^2=nan"), ("msq", math.inf, "M^2=inf"), ("t", math.nan, "t=nan, M^2=9743.7")],
)
def test_non_finite_samples_are_refused(where, value, named):
    """One nan or infinite M^2, or a nan time, raises FitError naming the
    first such sample, from every fit and from model_select, rather than
    giving a fit with nan parameters."""
    t = np.logspace(2.0, 5.0, 30)
    msq = (3.0 * t**0.5) ** 2 * 2.0 * math.pi
    (t if where == "t" else msq)[10] = value
    (t if where == "t" else msq)[20] = value
    curve = NormCurve(1, t, msq, np.zeros_like(t))
    for fit in (model_select, fit_power, fit_loglinear, fit_bounded):
        with pytest.raises(FitError, match=f"sample 10 is not finite: .*{named}".replace("^", r"\^")):
            fit(curve)


def test_an_empty_curve_is_refused_by_its_count():
    curve = NormCurve(1, np.zeros(0), np.zeros(0), np.zeros(0))
    for fit in (model_select, fit_power, fit_loglinear, fit_bounded):
        with pytest.raises(FitError, match="need at least 20 samples, got 0"):
            fit(curve)


def test_unknown_model_is_refused():
    with pytest.raises(FitError, match="unknown model"):
        synthetic_curve("quadratic", (1.0,), (1e2, 1e5))
    with pytest.raises(FitError, match="nonpositive"):
        synthetic_curve("log_linear", (-100.0, 1.0), (1e2, 1e5))


# ------------------------------------------------------------- conveniences
def test_default_windows():
    """The fitting windows the command line samples when the config names none."""
    for dimension, window in ((1, (1e2, 1e5)), (2, (1e3, 1e6))):
        cfg = build_config({"dimension": str(dimension), "profile.u0.kind": "zero", "profile.u1.kind": "zero"})
        assert (cfg.t_start, cfg.t_stop) == window


def test_predict_and_dict_roundtrip():
    curve = synthetic_curve("power", (3.0, 0.5), (1e2, 1e5))
    fit = fit_power(curve)
    t = np.array([1e2, 1e3])
    np.testing.assert_allclose(fit.predict_msq(t), (3.0 * t**0.5) ** 2, rtol=1e-11)
    d = fit.as_dict()
    assert set(d) == {"model", "params", "stderr", "t_window", "residual_rms", "samples_used"}
    assert d["model"] == "power" and len(d["params"]) == 2
