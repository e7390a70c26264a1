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
here and every chain link in ``bounds`` are built from it.  It takes one
callable, rho -> (A1, A0, X) with None for an absent term, and builds one
amplitude callable from it, so A1 and A0 are sampled once per point
although both amplitudes of the split carry them.  Integrands linear in
w^, such as the pointwise values of a radial wave, take the phase t rho
instead and come from ``field_integrands``, which takes rho -> (cos, sin)
amplitudes; these are smooth at rho = 0, so they skip the pointwise zone,
and they may be vector-valued (one component per radius).  Each factory
builds one set of callables for all its times; the direct evaluation
reads t from the frequency it is given.  A batch over many times
therefore calls each callable once per sweep.
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
def _total(*parts):
    """The sum of the parts that are not None, left to right; None when every part is."""
    total = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


def _spectrum(a1=None, a0=None, cross=None):
    """rho -> (a1, a0, cross) from one callable per term, None for an absent term."""
    return lambda rho: tuple(None if f is None else f(rho) for f in (a1, a0, cross))


def wave_integrands(n: int, ts, width_hint, spectrum) -> list[OscillatoryIntegrand]:
    """rho^{n-1} [sin^2(t rho)/rho^2 a1 + cos^2(t rho) a0 + sin(2 t rho)/rho cross] at each t.

    ``spectrum(rho)`` gives (a1, a0, cross) at rho, None for an absent
    term.  The split into G + C cos(2 t rho) + S sin(2 t rho) does not
    depend on t, and the direct evaluation takes t = omega / 2, so every
    time shares one amplitude and one pointwise callable, and each calls
    ``spectrum`` once per sweep.  An absent term is left out of every
    sum, and a part made of absent terms only is None, so a batch never
    samples it.  x - y is x + (-y) bit for bit, so C = (a0 - a1)/2 has
    the bits of a sum with a negated term.
    """

    def amplitudes(rho):
        rho = np.asarray(rho, float)
        a1, a0, cross = spectrum(rho)
        p1 = None if a1 is None else rho ** (n - 3) * a1
        p0 = None if a0 is None else rho ** (n - 1) * a0
        g, c = _total(p1, p0), _total(p0, None if p1 is None else -p1)
        return (
            None if g is None else 0.5 * g,
            None if c is None else 0.5 * c,
            None if cross is None else cross * rho ** (n - 2),
        )

    def pointwise(rho, omega):
        rho, t = np.asarray(rho, float), 0.5 * np.asarray(omega, float)
        a1, a0, cross = spectrum(rho)
        total = _total(
            None if a1 is None else (t * np.sinc(t * rho / math.pi)) ** 2 * a1,
            None if a0 is None else np.cos(t * rho) ** 2 * a0,
            None if cross is None else 2.0 * t * np.sinc(2.0 * t * rho / math.pi) * cross,
        )
        return rho ** (n - 1) * (np.zeros(rho.shape) if total is None else total)

    return [
        OscillatoryIntegrand(omega=2.0 * t, amplitudes=amplitudes, pointwise=pointwise, width_hint=width_hint)
        for t in ts
    ]


def field_integrands(ts, width_hint, amplitudes, components: int = 1) -> list[OscillatoryIntegrand]:
    """cos(t rho) C + sin(t rho) S at each t: the linear sibling of ``wave_integrands``.

    ``amplitudes(rho)`` gives (C, S), None for an absent part.  Integrands
    linear in w^ or dt w^, such as the pointwise values of a radial wave,
    carry the phase t rho itself rather than 2 t rho; every time shares
    the amplitude callable.  Their amplitudes carry the rho weights that
    absorb sin(t rho)/rho, so they are smooth at rho = 0: the integrands
    have no pointwise callable and run Filon from their lower limit,
    without the pointwise zone of ``wave_integrands``.  With
    ``components`` m > 1 the amplitudes are (m, N) rows, such as one row
    per radius of a radial field, and each t is one m-component integrand
    on one partition.
    """

    def split(rho):
        return (None, *amplitudes(rho))

    return [
        OscillatoryIntegrand(omega=t, amplitudes=split, pointwise=None, width_hint=width_hint, components=components)
        for t in ts
    ]


# --------------------------------------------------------------- reduction
@dataclass(frozen=True)
class _ReducedSpectrum:
    """Sphere-integrated amplitudes of a pair as functions of rho = |xi|, None for an absent one."""

    dimension: int
    a1: Callable[[np.ndarray], np.ndarray] | None
    a0: Callable[[np.ndarray], np.ndarray] | None
    cross: Callable[[np.ndarray], np.ndarray] | None
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
        return wave_integrands(self.dimension, ts, self.width_hint, _spectrum(self.a1, self.a0, self.cross))


def reduce_pair(pair: ProfilePair) -> _ReducedSpectrum:
    """Build the angular reduction; rejects 2D cross terms it cannot reduce.

    The amplitude of a zero profile, and the cross term when either
    profile is zero, is None: a batch never computes it.
    """
    u0, u1 = pair.u0, pair.u1
    a1 = None if u1.is_zero else u1.sq_ft_sphere
    a0 = None if u0.is_zero else u0.sq_ft_sphere
    if u0.is_zero or u1.is_zero:
        # a zero profile hints an infinite width, and np.minimum(inf, w) is w
        hint = (u1 if u0.is_zero else u0).ft_width_hint
        return _ReducedSpectrum(pair.dimension, a1, a0, None, hint, u1, u0)

    def hint(rho):
        return np.minimum(u0.ft_width_hint(rho), u1.ft_width_hint(rho))

    if pair.dimension == 1:

        def cross(rho):
            rho = np.asarray(rho, float)
            return 2.0 * np.real(u1.ft(rho) * np.conj(u0.ft(rho)))

        return _ReducedSpectrum(1, a1, a0, cross, hint, u1, u0)

    m1, g1 = u1.polar_factor()
    m0, g0 = u0.polar_factor()
    if u0.center != u1.center:
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
        cross = None  # odd in the angle against even: the sphere average vanishes

    return _ReducedSpectrum(2, a1, a0, cross, hint, u1, u0)


def norm_sq_samples(pair: ProfilePair, ts, cfg: QuadConfig | None = None) -> list[QuadResult | QuadratureError]:
    """int of |w^(t, xi)|^2 dxi over R^n (Fourier side, no 2 pi) at every t, as one batch.

    A t that fails holds its QuadratureError.

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
    (res,) = _settled(norm_sq_samples(pair, [t], cfg))
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
    # an absent term is zeros
    a1, a0, x = (np.zeros(rho.shape) if f is None else f(rho) for f in (red.a1, red.a0, red.cross))
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
