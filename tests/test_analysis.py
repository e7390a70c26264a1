import math

import numpy as np
import pytest

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
