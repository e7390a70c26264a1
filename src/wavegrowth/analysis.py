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

import dataclasses
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
        return _predict_msq(self.model, self.params, np.asarray(t, dtype=float))

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": list(self.params),
            "stderr": list(self.stderr),
            "t_window": list(self.t_window),
            "residual_rms": self.residual_rms,
            "samples_used": self.samples_used,
        }


def _windowed(curve: NormCurve) -> tuple[np.ndarray, np.ndarray]:
    """The curve's times and M(t)^2, checked for the samples and the span a fit needs."""
    t = np.asarray(curve.t, dtype=float)
    msq = np.asarray(curve.msq, dtype=float)
    if t.size < _MIN_SAMPLES:
        raise FitError(f"need at least {_MIN_SAMPLES} samples in [{t.min():g}, {t.max():g}], got {t.size}")
    span = math.log10(t.max() / t.min())
    if span < _MIN_DECADES - 1e-9:
        raise FitError(f"window spans {span:.2f} decades, need {_MIN_DECADES:g}")
    if np.any(msq <= 0.0):
        raise FitError("nonpositive norm samples cannot be fitted")
    return t, msq


def _predict_msq(model: str, params: tuple, t: np.ndarray) -> np.ndarray:
    if model == "power":
        a, alpha = params
        return (a * t**alpha) ** 2
    if model == "log_linear":
        c0, c1 = params
        return c0 + c1 * np.log(t)
    return np.full(t.shape, params[0])


def _rate_fit(model: str, params: tuple, stderr: tuple, t: np.ndarray, msq: np.ndarray) -> RateFit:
    """The fit of ``model`` over all of t, with its relative rms residual on the M^2 scale."""
    rms = float(np.sqrt(np.mean(((_predict_msq(model, params, t) - msq) / msq) ** 2)))
    return RateFit(model, params, stderr, (float(t.min()), float(t.max())), rms, t.size)


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


def fit_power(curve: NormCurve) -> RateFit:
    """Fit M(t) = A t^alpha by least squares of log M on log t."""
    return _fit_power(*_windowed(curve))


def _fit_power(t: np.ndarray, msq: np.ndarray) -> RateFit:
    b0, b1, se0, se1 = _line_fit(np.log(t), 0.5 * np.log(msq))
    a = math.exp(b0)
    return _rate_fit("power", (a, b1), (a * se0, se1), t, msq)


def fit_loglinear(curve: NormCurve, mean_u1: float | None = None) -> RateFit:
    """Fit M(t)^2 = c0 + c1 log t; optionally check the growth floor.

    When the data mean P = int u1 is supplied and nonzero, the fitted
    slope must respect the proven lower envelope, whose logarithmic
    slope is P^2 e^{-1} / (32 pi); a fit below that floor is an error,
    not a result.
    """
    fit = _fit_loglinear(*_windowed(curve))
    if mean_u1 is not None and mean_u1 != 0.0:
        floor = loglinear_slope_floor(mean_u1)
        if fit.params[1] < floor:
            raise FitError(f"fitted slope {fit.params[1]:.6g} sits below the proven floor {floor:.6g}")
    return fit


def _fit_loglinear(t: np.ndarray, msq: np.ndarray) -> RateFit:
    c0, c1, se0, se1 = _line_fit(np.log(t), msq)
    return _rate_fit("log_linear", (c0, c1), (se0, se1), t, msq)


def fit_bounded(curve: NormCurve) -> RateFit:
    """Fit M(t)^2 = c, weighting for relative error.

    Minimizing the relative residual gives c = sum(1/y) / sum(1/y^2);
    the quoted error is the weighted-mean standard error, adequate for
    model comparison rather than inference.
    """
    return _fit_bounded(*_windowed(curve))


def _fit_bounded(t: np.ndarray, msq: np.ndarray) -> RateFit:
    w = 1.0 / msq**2
    c = float(np.sum(w * msq) / np.sum(w))
    s2 = float(np.sum(w * (msq - c) ** 2) / (max(t.size - 1, 1) * np.sum(w)))
    return _rate_fit("bounded", (c,), (math.sqrt(s2),), t, msq)


def loglinear_slope_floor(mean_u1: float) -> float:
    """Slope of the proven two-dimensional lower envelope on the M^2 scale."""
    return mean_u1**2 * math.exp(-1.0) / (32.0 * math.pi)


def model_select(curve: NormCurve) -> RateFit:
    """Pick the best of the three laws by relative residual.

    The bounded model wins whenever its residual is within 10% of the
    best growing law; otherwise the smaller of power and log_linear
    residuals decides.  The returned fit carries the losers in its
    ``candidates`` field.  The three fits share one checked curve.
    """
    checked = _windowed(curve)
    fits = {
        "power": _fit_power(*checked),
        "log_linear": _fit_loglinear(*checked),
        "bounded": _fit_bounded(*checked),
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
    return dataclasses.replace(winner, candidates=tuple(sorted(fits.values(), key=lambda f: f.residual_rms)))
