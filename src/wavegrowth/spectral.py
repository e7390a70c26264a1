"""Frequency-side representation of free waves and their L2 norms.

With the transform convention h^(xi) = int e^{-i x.xi} h(x) dx, the wave
with initial position u0 and velocity u1 evolves as

    w^(t, xi) = sin(t |xi|)/|xi| u1^(xi) + cos(t |xi|) u0^(xi),
    dt w^(t, xi) = cos(t |xi|) u1^(xi) - |xi| sin(t |xi|) u0^(xi),

and the physical L2 norm is M(t) = (2 pi)^{-n/2} || w^(t, .) ||_{L2}.
Angular integration reduces every norm here to a half-line integral

    int_0^inf rho^{n-1} [ sin^2(t rho)/rho^2 A1 + cos^2(t rho) A0
                          + sin(2 t rho)/rho X ] drho

with sphere-integrated amplitudes A1, A0 and cross term X, which the
oscillatory quadrature engine evaluates at any t without resolving the
O(t) oscillations pointwise.  ``wave_integrands`` is the one place that
writes this integrand as amplitude x {1, cos, sin}(2 t rho); the norms
here and every chain link in ``bounds`` are built from it.  Integrands
linear in w^, such as the pointwise values of a radial wave, take the
phase t rho instead and come from ``field_integrands``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profiles import Profile, ProfilePair, ProfileError
from .quadrature import (
    OscillatoryIntegrand,
    QuadConfig,
    QuadResult,
    QuadratureError,
    integrate_batch,
    integrate_oscillatory,
    _initial_edges,
    _settled,
    _ANALYSIS,
    _NODES,
    _WEIGHTS,
)

__all__ = [
    "ProofConstants",
    "NormCurve",
    "EnergyResult",
    "multiplier_solution",
    "dt_multiplier",
    "norm_sq_fourier",
    "norm_sq_samples",
    "l2_norm",
    "frequency_split",
    "energy",
    "norm_curve",
    "moment_remainder",
    "moment_remainder_ratio",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ProofConstants:
    """The frequency-split radius delta0 of the explicit growth envelopes.

    Every other constant of the envelopes is a fixed fact: sin s / s >= 1/2
    on (0, delta0] for any delta0 < 1, |sin s| <= |s|, and the moment
    bound with constant sqrt(2) (``bounds.MOMENT_COEFF``).
    """

    delta0: float = 0.99

    def __post_init__(self):
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")

    def low_cut(self, t: float) -> float:
        """Upper edge of the low-frequency block at time t.

        Requires t > delta0 so the split radius sits below 1; the
        envelopes are stated in that regime only.
        """
        if t <= 0.0:
            raise ValueError("frequency split needs t > 0")
        if t <= self.delta0:
            raise ValueError(f"frequency split needs t > delta0 = {self.delta0}")
        return self.delta0 / t


def multiplier_solution(pair: ProfilePair, t: float, xi) -> np.ndarray:
    """w^(t, xi) evaluated with a sinc-safe multiplier at |xi| = 0."""
    xi = np.asarray(xi, dtype=float)
    rho = np.sqrt(np.sum(xi * xi, axis=-1)) if pair.dimension == 2 else np.abs(xi)
    h1 = pair.u1.ft(xi)
    h0 = pair.u0.ft(xi)
    return t * np.sinc(t * rho / math.pi) * h1 + np.cos(t * rho) * h0


def dt_multiplier(pair: ProfilePair, t: float, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    rho = np.sqrt(np.sum(xi * xi, axis=-1)) if pair.dimension == 2 else np.abs(xi)
    h1 = pair.u1.ft(xi)
    h0 = pair.u0.ft(xi)
    return np.cos(t * rho) * h1 - rho * np.sin(t * rho) * h0


# --------------------------------------------------------------- integrand
def _zero(rho):
    return np.zeros(np.shape(rho))


def wave_integrands(n: int, ts, width_hint, a1=_zero, a0=_zero, cross=_zero) -> list[OscillatoryIntegrand]:
    """rho^{n-1} [sin^2(t rho)/rho^2 a1 + cos^2(t rho) a0 + sin(2 t rho)/rho cross] at each t.

    The split into smooth + cos_amp cos(2 t rho) + sin_amp sin(2 t rho)
    does not depend on t, so every time shares one set of amplitude
    callables and a batch evaluates them with one call per sweep.
    """

    def smooth(rho):
        rho = np.asarray(rho, float)
        return 0.5 * (a1(rho) * rho ** (n - 3) + a0(rho) * rho ** (n - 1))

    def cos_amp(rho):
        rho = np.asarray(rho, float)
        return 0.5 * (a0(rho) * rho ** (n - 1) - a1(rho) * rho ** (n - 3))

    def sin_amp(rho):
        rho = np.asarray(rho, float)
        return cross(rho) * rho ** (n - 2)

    def pointwise_at(t):
        def pointwise(rho):
            rho = np.asarray(rho, float)
            s2 = (t * np.sinc(t * rho / math.pi)) ** 2
            sin2t = 2.0 * t * np.sinc(2.0 * t * rho / math.pi)
            return rho ** (n - 1) * (s2 * a1(rho) + np.cos(t * rho) ** 2 * a0(rho) + sin2t * cross(rho))

        return pointwise

    return [
        OscillatoryIntegrand(
            omega=2.0 * t,
            smooth=smooth,
            cos_amp=cos_amp,
            sin_amp=sin_amp,
            pointwise=pointwise_at(t),
            width_hint=width_hint,
        )
        for t in ts
    ]


def field_integrands(ts, width_hint, cos_amp=_zero, sin_amp=_zero) -> list[OscillatoryIntegrand]:
    """cos(t rho) cos_amp + sin(t rho) sin_amp at each t: the linear sibling of ``wave_integrands``.

    Integrands linear in w^ or dt w^, such as the pointwise values of a
    radial wave, carry the phase t rho itself rather than 2 t rho; every
    time shares the two amplitude callables.
    """

    def pointwise_at(t):
        def pointwise(rho):
            rho = np.asarray(rho, float)
            return np.cos(t * rho) * cos_amp(rho) + np.sin(t * rho) * sin_amp(rho)

        return pointwise

    return [
        OscillatoryIntegrand(
            omega=t,
            smooth=_zero,
            cos_amp=cos_amp,
            sin_amp=sin_amp,
            pointwise=pointwise_at(t),
            width_hint=width_hint,
        )
        for t in ts
    ]


# --------------------------------------------------------------- reduction
@dataclass(frozen=True)
class _ReducedSpectrum:
    """Sphere-integrated amplitudes of a pair as functions of rho = |xi|."""

    dimension: int
    a1: Callable[[np.ndarray], np.ndarray]
    a0: Callable[[np.ndarray], np.ndarray]
    cross: Callable[[np.ndarray], np.ndarray]
    width_hint: Callable[[np.ndarray], np.ndarray]
    u1: Profile
    u0: Profile

    def tail(self, rho: float) -> float:
        """Upper bound for the truncated part of the norm integrand beyond rho."""
        n = self.dimension
        t1 = self.u1.sq_ft_sphere_tail(rho, n - 3)
        t0 = self.u0.sq_ft_sphere_tail(rho, n - 1)
        cross = math.sqrt(t1 * t0) if (t1 > 0.0 and t0 > 0.0 and not math.isinf(t1 + t0)) else (
            math.inf if math.isinf(t1) or math.isinf(t0) else 0.0
        )
        return t1 + t0 + cross

    def energy_tail(self, rho: float) -> float:
        n = self.dimension
        return self.u1.sq_ft_sphere_tail(rho, n - 1) + self.u0.sq_ft_sphere_tail(rho, n + 1)

    def integrands(self, ts) -> list[OscillatoryIntegrand]:
        """The norm integrand |w^(t, .)|^2 at each t."""
        return wave_integrands(self.dimension, ts, self.width_hint, self.a1, self.a0, self.cross)


def reduce_pair(pair: ProfilePair) -> _ReducedSpectrum:
    """Build the angular reduction; rejects 2D cross terms it cannot reduce."""
    u0, u1 = pair.u0, pair.u1
    if u0.is_zero or u1.is_zero:
        # a zero profile hints an infinite width, and np.minimum(inf, w) is w
        hint = (u1 if u0.is_zero else u0).ft_width_hint
    else:

        def hint(rho):
            return np.minimum(u0.ft_width_hint(rho), u1.ft_width_hint(rho))

    if pair.dimension == 1:

        def cross(rho):
            rho = np.asarray(rho, float)
            return 2.0 * np.real(u1.ft(rho) * np.conj(u0.ft(rho)))

        return _ReducedSpectrum(1, u1.sq_ft_sphere, u0.sq_ft_sphere, cross, hint, u1, u0)

    m1, g1 = u1.polar_factor()
    m0, g0 = u0.polar_factor()
    if not (u0.is_zero or u1.is_zero):
        c0 = u0.center if u0.kind == "gaussian" else (0.0, 0.0)
        c1 = u1.center if u1.kind == "gaussian" else (0.0, 0.0)
        if c0 != c1:
            raise ProfileError(
                "2D pairs with different centers have no reduced cross term; "
                "shift both profiles to a common center"
            )
    if m1 == m0:
        scale = (lambda rho: TWO_PI * np.ones(np.shape(rho))) if m1 == 0 else (
            lambda rho: math.pi * np.asarray(rho, float) ** 2
        )

        def cross(rho):
            rho = np.asarray(rho, float)
            return scale(rho) * np.real(g1(rho) * np.conj(g0(rho)))

    else:
        cross = _zero  # odd in the angle against even: the sphere average vanishes

    return _ReducedSpectrum(pair.dimension, u1.sq_ft_sphere, u0.sq_ft_sphere, cross, hint, u1, u0)


def norm_sq_fourier(pair: ProfilePair, t: float, cfg: QuadConfig | None = None) -> QuadResult:
    """int of |w^(t, xi)|^2 dxi over R^n (Fourier side, no 2 pi)."""
    if pair.is_zero:
        return QuadResult(0.0, 0.0, 0)
    red = reduce_pair(pair)
    (integrand,) = red.integrands([float(t)])
    return integrate_oscillatory(integrand, 0.0, math.inf, cfg, tail_bound=red.tail)


def norm_sq_samples(pair: ProfilePair, ts, cfg: QuadConfig | None = None) -> list[QuadResult | QuadratureError]:
    """norm_sq_fourier at every t as one batch; a t that fails holds its error.

    Each t keeps its own adaptive partition, so its entry does not depend
    on which other times share the batch.
    """
    ts = [float(t) for t in np.atleast_1d(np.asarray(ts, dtype=float))]
    if pair.is_zero:
        return [QuadResult(0.0, 0.0, 0)] * len(ts)
    red = reduce_pair(pair)
    return integrate_batch(red.integrands(ts), 0.0, math.inf, cfg, tail_bound=red.tail)


def l2_norm(pair: ProfilePair, t: float, cfg: QuadConfig | None = None) -> float:
    """Physical M(t) = ||u(t, .)||_{L2(R^n)} via Plancherel."""
    res = norm_sq_fourier(pair, t, cfg)
    return math.sqrt(max(res.value, 0.0)) / (TWO_PI ** (pair.dimension / 2.0))


def frequency_split(
    pair: ProfilePair,
    t: float,
    consts: ProofConstants | None = None,
    cfg: QuadConfig | None = None,
) -> tuple[QuadResult, QuadResult]:
    """Norm split at |xi| = delta0 / t into (low, high) blocks, one batch of two.

    Requires t > delta0 (``ProofConstants.low_cut``).  Each block keeps its
    own partition, so low + high is an independent check of the norm.
    """
    cut = (consts or ProofConstants()).low_cut(t)
    if pair.is_zero:
        return QuadResult(0.0, 0.0, 0), QuadResult(0.0, 0.0, 0)
    red = reduce_pair(pair)
    low, high = _settled(integrate_batch(red.integrands([float(t)]) * 2, [0.0, cut], [cut, math.inf], cfg, red.tail))
    return low, high


# ------------------------------------------------------------------ energy
@dataclass(frozen=True)
class EnergyResult:
    """Energies at the requested times plus one shared error bound.

    All times share one frequency partition, so differences between the
    returned values carry only roundoff, never quadrature error.
    """

    t: np.ndarray
    values: np.ndarray
    error: float
    rho_max: float
    panels: int


def _fixed_partition(red: _ReducedSpectrum, cfg: QuadConfig, e_scale: float) -> tuple[np.ndarray, float]:
    """A t-independent partition of [0, rho_max] for the energy integrand."""
    rho_max = 2.0
    budget = cfg.max_panels
    while True:
        tail = red.energy_tail(rho_max)
        if math.isinf(tail):
            raise ProfileError("energy integrand diverges: initial position is not in H1")
        if tail <= cfg.target(e_scale):
            break
        approx = rho_max / float(red.width_hint(np.asarray(rho_max / 2.0)))
        if rho_max >= 2.0**24 or approx > 0.5 * budget:
            break  # accept the truncation, report it in the error bound
        rho_max *= 2.0
    (edges,) = _initial_edges(0.0, rho_max, math.inf, [red.width_hint], budget)
    if isinstance(edges, QuadratureError):
        raise edges
    return edges, rho_max


def energy(pair: ProfilePair, ts, cfg: QuadConfig | None = None) -> EnergyResult:
    """Physical energy E(t) = (1/2)(||dt u||^2 + ||grad u||^2) at each time.

    Evaluated spectrally as (1/2) (2 pi)^{-n} int (|dt w^|^2 + |xi|^2 |w^|^2),
    written out in its oscillatory pieces on purpose: conservation is then a
    property of the implementation being correct, not of the formula having
    been simplified by hand.
    """
    cfg = cfg or QuadConfig()
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = pair.dimension
    if pair.is_zero:
        return EnergyResult(ts, np.zeros(ts.shape), 0.0, 0.0, 0)
    red = reduce_pair(pair)
    scale = 0.5 / TWO_PI**n

    # rough magnitude for the truncation target
    e_scale = max((red.u1.l2_sq() + red.u0.grad_l2_sq() if red.u0.in_h1 else red.u1.l2_sq()), 1e-30)
    e_scale *= TWO_PI**n * 2.0  # back to the Fourier side
    edges, rho_max = _fixed_partition(red, cfg, e_scale)

    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + halfs[:, None] * _NODES[None, :]
    rho = nodes.ravel()
    a1 = red.a1(rho)
    a0 = red.a0(rho)
    x = red.cross(rho)
    w = rho ** (n - 1)

    values = np.empty(ts.shape)
    indicator = 0.0
    for j, t in enumerate(ts):
        c = np.cos(t * rho)
        s = np.sin(t * rho)
        dt_part = c * c * a1 + rho * rho * s * s * a0 - rho * 2.0 * s * c * x
        grad_part = s * s * a1 + rho * rho * c * c * a0 + rho * 2.0 * s * c * x
        f = (w * (dt_part + grad_part)).reshape(nodes.shape)
        values[j] = float(np.sum(halfs * (f @ _WEIGHTS)))
        if j == 0:
            coef = _ANALYSIS @ f.T
            indicator = float(np.sum(2.0 * halfs * (np.abs(coef[-2]) + np.abs(coef[-1]))))
    error = indicator + red.energy_tail(rho_max)
    return EnergyResult(ts, values * scale, error * scale, rho_max, len(edges) - 1)


# -------------------------------------------------------------- norm curve
@dataclass(frozen=True)
class NormCurve:
    """M(t) sampled on a time grid, kept on both sides of Plancherel."""

    dimension: int
    t: np.ndarray
    fourier_sq: np.ndarray
    errors: np.ndarray = field(repr=False, default=None)

    @property
    def msq(self) -> np.ndarray:
        return self.fourier_sq / TWO_PI**self.dimension

    @property
    def m(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.msq, 0.0))


def norm_curve(pair: ProfilePair, ts, cfg: QuadConfig | None = None) -> NormCurve:
    """M(t) at every t, integrated as one batch; raises the error of the earliest failing t."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    results = _settled(norm_sq_samples(pair, ts, cfg))
    vals = np.array([res.value for res in results], dtype=float)
    errs = np.array([res.error for res in results], dtype=float)
    return NormCurve(pair.dimension, ts, vals, errs)


# ------------------------------------------------------------ moment bound
def moment_remainder(p: Profile, xi) -> np.ndarray:
    """h^(xi) - h^(0): the deviation of the transform from the mean."""
    xi = np.asarray(xi, dtype=float)
    origin = np.zeros(2) if p.dimension == 2 else 0.0
    return p.ft(xi) - p.ft(origin)


def moment_remainder_ratio(p: Profile, xi) -> np.ndarray:
    """|h^(xi) - h^(0)| / (|xi| ||h||_{1,1}); bounded by ``bounds.MOMENT_COEFF``.

    The denominator uses the full weighted norm int (1+|x|)|h|, so the
    bound has extra room beyond the moment inequality it certifies.
    """
    xi = np.asarray(xi, dtype=float)
    rho = np.sqrt(np.sum(xi * xi, axis=-1)) if p.dimension == 2 else np.abs(xi)
    m1 = p.l11()
    if m1 <= 0.0:
        raise ProfileError("profile has no mass; the ratio is undefined")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.abs(moment_remainder(p, xi)) / (rho * m1)
    return np.where(rho == 0.0, 0.0, out)
