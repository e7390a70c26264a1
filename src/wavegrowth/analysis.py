"""Growth-rate extraction: fit norm curves against the three model laws.

Three fixed models and nothing more general:

* ``power``      M(t) ~ A t^alpha        (one-dimensional growth)
* ``log_linear`` M(t)^2 ~ c0 + c1 log t  (two-dimensional growth)
* ``bounded``    M(t)^2 ~ c              (vanishing-mean data)

Fits run at the squared level where both growth laws are linear, except
the power fit which regresses log M on log t so the exponent comes out
as a slope.  Residuals are always relative to the measured M(t)^2 so
the three models can be compared on one scale, and model selection
gives the bounded model a 10% margin: a constant should win unless a
growing law describes the data distinctly better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import NormCurve

__all__ = [
    "FitError",
    "RateFit",
    "fit_power",
    "fit_loglinear",
    "fit_bounded",
    "model_select",
    "loglinear_slope_floor",
]

_MIN_SAMPLES = 20
_MIN_DECADES = 2.0
_BOUNDED_MARGIN = 1.1
_FLAT_FLOOR = 1e-6


class FitError(ValueError):
    """A rate fit was asked for outside its domain of validity."""


@dataclass(frozen=True)
class RateFit:
    """One fitted rate law with its uncertainty and fit quality.

    ``params`` and ``stderr`` line up: (A, alpha) for power, (c0, c1)
    for log_linear, (c,) for bounded.  ``residual_rms`` is the rms of
    (predicted - measured)/measured on the M^2 scale.  ``candidates``
    is filled by model_select with the losing fits, newest first.
    """

    model: str
    params: tuple[float, ...]
    stderr: tuple[float, ...]
    t_window: tuple[float, float]
    residual_rms: float
    samples_used: int
    candidates: tuple["RateFit", ...] = field(default=(), compare=False)

    def predict_msq(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.model == "power":
            a, alpha = self.params
            return (a * t**alpha) ** 2
        if self.model == "log_linear":
            c0, c1 = self.params
            return c0 + c1 * np.log(t)
        return np.full(t.shape, self.params[0])

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": list(self.params),
            "stderr": list(self.stderr),
            "t_window": list(self.t_window),
            "residual_rms": self.residual_rms,
            "samples_used": self.samples_used,
        }


def _windowed(curve: NormCurve, window) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    t = np.asarray(curve.t, dtype=float)
    msq = np.asarray(curve.msq, dtype=float)
    if window is None:
        window = (float(t.min()), float(t.max()))
    lo, hi = float(window[0]), float(window[1])
    keep = (t >= lo) & (t <= hi)
    t, msq = t[keep], msq[keep]
    if t.size < _MIN_SAMPLES:
        raise FitError(f"need at least {_MIN_SAMPLES} samples in [{lo:g}, {hi:g}], got {t.size}")
    span = math.log10(t.max() / t.min())
    if span < _MIN_DECADES - 1e-9:
        raise FitError(f"window spans {span:.2f} decades, need {_MIN_DECADES:g}")
    if np.any(msq <= 0.0):
        raise FitError("nonpositive norm samples cannot be fitted")
    return t, msq, (lo, hi)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """OLS y = b0 + b1 x with standard errors (b0, b1, se0, se1)."""
    n = x.size
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    b1 = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    b0 = float(y.mean() - b1 * xm)
    resid = y - (b0 + b1 * x)
    s2 = float(np.sum(resid**2)) / max(n - 2, 1)
    se1 = math.sqrt(s2 / sxx)
    se0 = math.sqrt(s2 * (1.0 / n + xm**2 / sxx))
    return b0, b1, se0, se1


def _rel_rms(pred: np.ndarray, actual: np.ndarray) -> float:
    return float(np.sqrt(np.mean(((pred - actual) / actual) ** 2)))


def fit_power(curve: NormCurve, window=None) -> RateFit:
    """Fit M(t) = A t^alpha by least squares of log M on log t."""
    return _fit_power(*_windowed(curve, window))


def _fit_power(t: np.ndarray, msq: np.ndarray, win: tuple[float, float]) -> RateFit:
    x = np.log(t)
    y = 0.5 * np.log(msq)
    b0, b1, se0, se1 = _line_fit(x, y)
    a = math.exp(b0)
    fit = RateFit(
        model="power",
        params=(a, b1),
        stderr=(a * se0, se1),
        t_window=win,
        residual_rms=0.0,
        samples_used=t.size,
    )
    return _with_rms(fit, t, msq)


def fit_loglinear(curve: NormCurve, window=None, mean_u1: float | None = None) -> RateFit:
    """Fit M(t)^2 = c0 + c1 log t; optionally check the growth floor.

    When the data mean P = int u1 is supplied and nonzero, the fitted
    slope must respect the proven lower envelope, whose logarithmic
    slope is P^2 e^{-1} / (32 pi); a fit below that floor is an error,
    not a result.
    """
    fit = _fit_loglinear(*_windowed(curve, window))
    if mean_u1 is not None and mean_u1 != 0.0:
        floor = loglinear_slope_floor(mean_u1)
        if fit.params[1] < floor:
            raise FitError(f"fitted slope {fit.params[1]:.6g} sits below the proven floor {floor:.6g}")
    return fit


def _fit_loglinear(t: np.ndarray, msq: np.ndarray, win: tuple[float, float]) -> RateFit:
    c0, c1, se0, se1 = _line_fit(np.log(t), msq)
    fit = RateFit(
        model="log_linear",
        params=(c0, c1),
        stderr=(se0, se1),
        t_window=win,
        residual_rms=0.0,
        samples_used=t.size,
    )
    return _with_rms(fit, t, msq)


def fit_bounded(curve: NormCurve, window=None) -> RateFit:
    """Fit M(t)^2 = c, weighting for relative error.

    Minimizing the relative residual gives c = sum(1/y) / sum(1/y^2);
    the quoted error is the weighted-mean standard error, adequate for
    model comparison rather than inference.
    """
    return _fit_bounded(*_windowed(curve, window))


def _fit_bounded(t: np.ndarray, msq: np.ndarray, win: tuple[float, float]) -> RateFit:
    w = 1.0 / msq**2
    c = float(np.sum(w * msq) / np.sum(w))
    s2 = float(np.sum(w * (msq - c) ** 2) / (max(t.size - 1, 1) * np.sum(w)))
    fit = RateFit(
        model="bounded",
        params=(c,),
        stderr=(math.sqrt(s2),),
        t_window=win,
        residual_rms=0.0,
        samples_used=t.size,
    )
    return _with_rms(fit, t, msq)


def _with_rms(fit: RateFit, t: np.ndarray, msq: np.ndarray) -> RateFit:
    rms = _rel_rms(fit.predict_msq(t), msq)
    return RateFit(fit.model, fit.params, fit.stderr, fit.t_window, rms, fit.samples_used)


def loglinear_slope_floor(mean_u1: float) -> float:
    """Slope of the proven two-dimensional lower envelope on the M^2 scale."""
    return mean_u1**2 * math.exp(-1.0) / (32.0 * math.pi)


def model_select(curve: NormCurve, window=None) -> RateFit:
    """Pick the best of the three laws by relative residual.

    The bounded model wins whenever its residual is within 10% of the
    best growing law; otherwise the smaller of power and log_linear
    residuals decides.  The returned fit carries the losers in its
    ``candidates`` field.  The three fits share one windowed curve.
    """
    windowed = _windowed(curve, window)
    fits = {
        "power": _fit_power(*windowed),
        "log_linear": _fit_loglinear(*windowed),
        "bounded": _fit_bounded(*windowed),
    }
    growing_best = min(fits["power"].residual_rms, fits["log_linear"].residual_rms)
    # Absolute floor for the margin: a curve flat to a part per million
    # over two decades is bounded, even when a growing law happens to
    # track its quadrature-level residual trend slightly better.
    if fits["bounded"].residual_rms <= _BOUNDED_MARGIN * growing_best + _FLAT_FLOOR:
        chosen = "bounded"
    elif fits["power"].residual_rms <= fits["log_linear"].residual_rms:
        chosen = "power"
    else:
        chosen = "log_linear"
    winner = fits.pop(chosen)
    losers = tuple(sorted(fits.values(), key=lambda f: f.residual_rms))
    return RateFit(
        winner.model,
        winner.params,
        winner.stderr,
        winner.t_window,
        winner.residual_rms,
        winner.samples_used,
        candidates=losers,
    )
