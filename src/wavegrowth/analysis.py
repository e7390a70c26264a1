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
        raise FitError(f"need at least {_MIN_SAMPLES} samples, got {t.size}")
    finite = np.isfinite(t) & np.isfinite(msq)
    if not finite.all():
        i = int(finite.argmin())
        raise FitError(f"sample {i} is not finite: t={float(t[i])!r}, M^2={float(msq[i])!r}")
    if np.any(msq <= 0.0) or np.any(t <= 0.0):
        raise FitError("nonpositive times or norm samples cannot be fitted")
    span = math.log10(t.max() / t.min())
    if span < _MIN_DECADES - 1e-9:
        raise FitError(f"window spans {span:.2f} decades, need {_MIN_DECADES:g}")
    return t, msq


def _predict_msq(model: str, params: tuple, t: np.ndarray) -> np.ndarray:
    if model == "power":
        a, alpha = params
        return (a * t**alpha) ** 2
    if model == "log_linear":
        c0, c1 = params
        return c0 + c1 * np.log(t)
    return np.full(t.shape, params[0])


def _fits(t: np.ndarray, msq: np.ndarray) -> dict[str, RateFit]:
    """The power, log_linear and bounded fits of one checked curve, in one pass.

    The two line fits, of log M and of M^2 on x = log t, are two rows of one
    OLS step with standard errors that share x, its centring and Sxx; the
    bounded fit is ``fit_bounded``'s.  The rms residuals of all three,
    relative to M^2, come from one array.
    """
    n, x, inv = t.size, np.log(t), 1.0 / msq
    y = np.array((0.5 * np.log(msq), msq))
    xm, ym = x.sum() / n, y.sum(axis=1) / n
    dx = x - xm
    sxx = dx @ dx
    b1 = (y - ym[:, None]) @ dx / sxx
    b0 = ym - b1 * xm
    line = b0[:, None] + b1[:, None] * x
    s2 = np.einsum("ij,ij->i", y - line, y - line) / (n - 2)
    se1, se0 = np.sqrt(s2 / sxx), np.sqrt(s2 * (1.0 / n + xm * xm / sxx))
    c = inv.sum() / (inv @ inv)
    rel = (np.array((np.exp(2.0 * line[0]), line[1], np.full(n, c))) - msq) / msq
    ss = np.einsum("ij,ij->i", rel, rel)
    (rms_power, rms_log, rms_bounded), c_err = np.sqrt(ss / n).tolist(), math.sqrt(ss[2] / ((n - 1) * (inv @ inv)))
    (log_a, c0), (alpha, c1) = b0.tolist(), b1.tolist()
    (se_log_a, se_c0), (se_alpha, se_c1) = se0.tolist(), se1.tolist()
    a, window = math.exp(log_a), (float(t.min()), float(t.max()))
    return {
        "power": RateFit("power", (a, alpha), (a * se_log_a, se_alpha), window, rms_power, n),
        "log_linear": RateFit("log_linear", (c0, c1), (se_c0, se_c1), window, rms_log, n),
        "bounded": RateFit("bounded", (float(c),), (c_err,), window, rms_bounded, n),
    }


def fit_power(curve: NormCurve) -> RateFit:
    """Fit M(t) = A t^alpha by least squares of log M on log t."""
    return _fits(*_windowed(curve))["power"]


def fit_loglinear(curve: NormCurve, mean_u1: float | None = None) -> RateFit:
    """Fit M(t)^2 = c0 + c1 log t; optionally check the growth floor.

    When the data mean P = int u1 is supplied and nonzero, the fitted
    slope must respect the proven lower envelope, whose logarithmic
    slope is P^2 e^{-1} / (32 pi); a fit below that floor is an error,
    not a result.
    """
    fit = _fits(*_windowed(curve))["log_linear"]
    if mean_u1 is not None and mean_u1 != 0.0:
        floor = loglinear_slope_floor(mean_u1)
        if fit.params[1] < floor:
            raise FitError(f"fitted slope {fit.params[1]:.6g} sits below the proven floor {floor:.6g}")
    return fit


def fit_bounded(curve: NormCurve) -> RateFit:
    """Fit M(t)^2 = c, weighting for relative error.

    Minimizing the relative residual gives c = sum(1/y) / sum(1/y^2);
    the quoted error is the weighted-mean standard error, adequate for
    model comparison rather than inference.
    """
    return _fits(*_windowed(curve))["bounded"]


def loglinear_slope_floor(mean_u1: float) -> float:
    """Slope of the proven two-dimensional lower envelope on the M^2 scale."""
    return mean_u1**2 * math.exp(-1.0) / (32.0 * math.pi)


def model_select(curve: NormCurve) -> RateFit:
    """Pick the best of the three laws by relative residual.

    The bounded model wins whenever its residual is within 10% of the
    best growing law; otherwise the smaller of power and log_linear
    residuals decides.  The returned fit carries the losers in its
    ``candidates`` field.  The three fits come from one pass over one
    checked curve.
    """
    fits = _fits(*_windowed(curve))
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
