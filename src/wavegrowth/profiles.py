"""Initial data profiles and their exact Fourier transforms.

All transforms use the unnormalized convention

    h^(xi) = int e^{-i x.xi} h(x) dx,

so Plancherel reads ||h^||_{L2}^2 = (2 pi)^n ||h||_{L2}^2.  The (2 pi)^n
factor is never silently dropped; callers convert between physical and
Fourier side norms explicitly.

The catalog is the registry ``KINDS``: one class per profile kind, holding
the kind's dimensions, parameters, config keys and closed forms.  README
tabulates it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, gammaincc, j0 as _sp_j0, j1 as _sp_j1

from .quadrature import OscillatoryIntegrand, QuadConfig, QuadratureError, _settled, integrate_batch

__all__ = [
    "KINDS",
    "Profile",
    "ProfilePair",
    "DataNorms",
    "ProfileError",
    "moments",
    "unit_sphere_measure",
]

TWO_PI = 2.0 * math.pi

# Tolerance of every data-side integral: the weighted norms, the overlaps
# of the virial constant and the d'Alembert norm.
_DATA_TOL = QuadConfig(abs_tol=1e-14, rel_tol=1e-12)
# Points of the periodic trapezoid rule for angular means of 2D data.
_ANGLES = 512


class ProfileError(ValueError):
    """Invalid profile parameters or unsupported profile kind."""


def unit_sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: omega_1 = 2, omega_2 = 2 pi."""
    if n == 1:
        return 2.0
    if n == 2:
        return TWO_PI
    raise ProfileError(f"dimension {n} not supported (need 1 or 2)")


def _norm(x: np.ndarray) -> np.ndarray:
    """|x| for points shaped as ``Profile.value`` takes them."""
    return np.abs(x) if x.ndim == 1 else np.hypot(x[..., 0], x[..., 1])


def _integrate_data(integrals: Sequence[tuple[Callable[[np.ndarray], np.ndarray], Sequence[Profile]]], shift: float = 0.0) -> list[float]:
    """int_{R^n} g(x) dx for each (g, profiles) of ``integrals``, from one batch.

    g is vectorised and vanishes where its profiles do; with no nonzero
    profile it vanishes everywhere and its integral is 0.  The range
    reaches the profiles' effective radius plus ``shift``.  g may kink at
    x = 0 (an |x| weight) and at each profile kink translated by +-shift;
    those points split the range into smooth pieces.  Panels start no
    wider than the data's smallest scale; with a shift, only within the
    effective radius of the translates at +-shift, and wide across the
    plateau between them.  In 2D the integral is int 2 pi r <g>(r) dr
    about the origin, with the angular mean <g> read off the first axis
    when every profile is radial and otherwise taken by the periodic
    trapezoid rule on _ANGLES points.  That rule is checked against its
    every-second-point sub-rule, and a difference above the tolerance
    raises QuadratureError.  Every piece of every rule is an entry of the
    batch, and entries decide on their own, so each integral has the bits
    of a batch of its own.
    """
    entries, lo, hi, spans = [], [], [], []  # spans: per integral, the entries of each rule
    for g, profiles in integrals:
        profiles = [p for p in profiles if not p.is_zero]
        rules = []
        if profiles:
            edges, hint, fns = _data_rules(g, profiles, shift)
            for f in fns:
                rules.append(range(len(entries), len(entries) + len(edges) - 1))
                entries += [OscillatoryIntegrand(0.0, lambda rho, f=f: (f(rho), None, None), hint)] * (len(edges) - 1)
                lo, hi = lo + edges[:-1], hi + edges[1:]
        spans.append(rules)
    results = _settled(integrate_batch(entries, lo, hi, _DATA_TOL)) if entries else []
    values = []
    for rules in spans:
        # a rule sums its pieces in order
        full, *half = [sum(results[i].value for i in rule) for rule in rules] or [0.0]
        if half and abs(full - half[0]) > _DATA_TOL.target(full):
            raise QuadratureError(
                f"angular trapezoid rule on {_ANGLES} points misses the tolerance: "
                f"its {_ANGLES // 2}-point sub-rule differs by {abs(full - half[0]):.2e}",
                achieved=full,
                error_estimate=abs(full - half[0]),
            )
        values.append(full)
    return values


def _data_rules(g, profiles: list[Profile], shift: float):
    """The edges of the smooth pieces, the width hint and the rules of
    ``_integrate_data`` for one g over nonzero profiles: g itself in 1D;
    in 2D the angular mean's rule, then its sub-rule unless every profile
    is radial."""
    support = max(p.effective_radius(1e-16) for p in profiles)
    reach = support + abs(shift)
    kinks = {0.0} | {k + sign * shift for p in profiles for k in p.kinks() for sign in (-1.0, 1.0)}
    scale = min(p._kind.scale(p) for p in profiles)
    if shift:
        # the data's scale near the translated data at +-shift, and on the
        # plateau between them a step that stops at the next translate
        hint = lambda x: max(scale, min(abs(x - shift), abs(x + shift)) - support)
    else:
        hint = lambda x: scale
    if profiles[0].dimension == 1:
        return [-reach, *sorted(k for k in kinks if abs(k) < reach), reach], hint, [g]
    edges = [0.0, *sorted(k for k in kinks if 0.0 < k < reach), reach]
    theta = TWO_PI * np.arange(_ANGLES) / _ANGLES
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ring = lambda points: lambda r: TWO_PI * r * np.mean(g(r[:, None, None] * points), axis=-1)
    return edges, hint, [ring(circle[:1])] if all(p.is_radial for p in profiles) else [ring(circle), ring(circle[::2])]


def _as_center(center, dimension: int) -> tuple[float, ...]:
    if center is None:
        return ()
    if np.isscalar(center):
        if dimension != 1:
            raise ProfileError("scalar center only valid in dimension 1")
        return (float(center),)
    return tuple(float(v) for v in center)


# Ascending power-series coefficients of the small-argument branches below,
# each summed where its direct form would cancel.
_K = np.arange(18.0)
# phi_1(y) - 1 = (1 + y) e^{-y} - 1 = sum_{k >= 2} (-1)^(k+1) (k - 1) y^k / k!
_PHI1_SERIES = np.where(_K >= 2, (-1.0) ** (_K + 1) * (_K - 1) / np.cumprod(np.maximum(_K, 1.0)), 0.0)
# sinc^2(x) - 1 = sum_{j >= 1} (-1)^j 2^(2j+1) (x^2)^j / (2j+2)!
_SINC2_SERIES = np.array([0.0] + [(-1.0) ** j * 2.0 ** (2 * j + 1) / math.factorial(2 * j + 2) for j in range(1, 13)])
# 2 J1(x)/x - 1 = sum_{k >= 1} (-1)^k (x^2/4)^k / (k! (k+1)!)
_JINC_SERIES = np.array([0.0] + [(-1.0) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(1, 12)])
# 1 - J0(x) = sum_{k >= 1} (-1)^(k+1) (x^2/4)^k / (k!)^2
_J0_DEFICIT_SERIES = np.array([0.0] + [(-1.0) ** (k + 1) / math.factorial(k) ** 2 for k in range(1, 12)])


def _small_first(x: np.ndarray, below: float, series: np.ndarray, arg: np.ndarray, direct) -> np.ndarray:
    """direct(x), with the power series in ``arg`` where x < below.

    The series is summed at those points alone, by Horner's rule in the
    operation order of numpy's ``polyval``, so each has its bits.
    """
    out = np.asarray(direct(x), dtype=float)
    small = x < below
    if small.any():
        v = arg[small]
        total = series[-1] + v * 0
        for c in series[-2::-1]:  # c + total v, in place
            total *= v
            total += c
        out[small] = total
    return out


def _one_minus_j0(x: np.ndarray) -> np.ndarray:
    """1 - J0(x) for x >= 0 without cancellation: its power series below x = 1, where J0 is near 1."""
    return _small_first(x, 1.0, _J0_DEFICIT_SERIES, 0.25 * x * x, lambda v: 1.0 - _sp_j0(v))


def _phi_minus_one(n: int, y: np.ndarray) -> np.ndarray:
    """phi_n(y) - 1 without cancellation: phi_2(y) = e^{-y}, phi_1(y) = (1 + y) e^{-y}.

    phi_n(kappa rho) is the reference shape of a squared transform near
    rho = 0 (``Profile.sq_ft_sphere_origin``): 1 - phi_2 is O(rho) and
    1 - phi_1 is O(rho^2), the orders the rho^(n-3) weight of a norm
    integrand's a1 term needs to be finite at rho = 0.
    """
    if n == 2:
        return np.expm1(-y)
    return _small_first(y, 0.5, _PHI1_SERIES, y, lambda v: (1.0 + v) * np.exp(-v) - 1.0)


def _sphere_moment(n: int, m: int) -> float:
    """int_{S^{n-1}} w_1^(2m) dw: 2 in 1D, 2 pi for m = 0 and pi for m = 1 in 2D."""
    return math.pi if n == 2 and m == 1 else unit_sphere_measure(n)


def _sphere_integral(n: int, m: int, product: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """int_{S^{n-1}} product (rho w_1)^(2m) dw, for a product of two radial factors g that does not depend on w.

    With product = |g|^2 it is the sphere-integrated |h^|^2 of h^(xi) =
    g(|xi|) xi_1^m e^{-i xi.c}, whatever the centre c.
    """
    moment = _sphere_moment(n, m)
    return moment * product if m == 0 else moment * rho**2 * product


def _finite_time(t) -> float:
    """t as a float; a nan or infinite time raises ValueError naming it, before any quadrature."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time t={t} is not finite")
    return t


def _tail_start(rho) -> float:
    rho = float(rho)
    if rho <= 0:
        raise ProfileError("tail bound needs rho > 0")
    return rho


# ------------------------------------------------------------------ kinds
class _Kind:
    """One profile kind: the parameters it takes and its closed forms.

    ``params`` are the parameters it requires, each > 0; ``options`` the
    further config keys it takes, with ``Profile``'s defaults; ``dims``
    its dimensions.  ``Profile`` checks all three before any method runs.
    Each method takes the profile as ``p`` and answers the ``Profile``
    method of the same name; ``value`` also gets r2 = |x - c|^2, and
    ``slope`` the radial factor g whose derivative it returns.

    A kind writes its transform once, as a radial factor ``radial(p, rho)``
    = g and an ``order`` m: h^(xi) = g(|xi|) xi_1^m e^{-i xi.c} in both
    dimensions.  The transform, the polar factor, the squared sphere
    average, its value a(0) at rho = 0 and, where a(0) = 0, its deficit
    are derived here from those two.
    """

    name: str
    dims: tuple[int, ...] = (1, 2)
    params: tuple[str, ...] = ()
    options: tuple[str, ...] = ("amplitude",)
    in_h1 = True
    order = 0

    def scale(self, p) -> float:
        """Length scale of the data: the kind's one parameter."""
        return getattr(p, self.params[0])

    def is_radial(self, p) -> bool:
        return all(c == 0.0 for c in p.center)

    def kinks(self, p) -> tuple[float, ...]:
        return ()

    def ft(self, p, xi):
        if p.dimension == 1:
            rho, x1, phase = np.abs(xi), xi, p.center[0] * xi
        else:
            rho, x1 = np.sqrt(np.sum(xi * xi, axis=-1)), xi[..., 0]
            phase = xi[..., 0] * p.center[0] + xi[..., 1] * p.center[1]
        h = self.radial(p, rho) * x1 if self.order else self.radial(p, rho)
        return h * np.exp(-1j * phase) if any(p.center) else h + 0.0j

    def polar_factor(self, p):
        return self.order, lambda rho: self.radial(p, np.asarray(rho, dtype=float))

    def sq_ft_sphere(self, p, rho):
        m, g = p.polar_factor()
        return _sphere_integral(p.dimension, m, np.abs(g(rho)) ** 2, rho)

    def sq_ft_sphere_origin(self, p):
        return 0.0 if self.order else unit_sphere_measure(p.dimension) * abs(p._g0) ** 2

    def sq_ft_slope_tail(self, p, rho, weight):
        return math.inf

    def polar_l1_tail(self, p, rho, weight):
        return math.inf

    def polar_gaussian(self, p):
        return None

    def support_radius(self, p) -> float:
        return math.inf

    def plateau_deficit(self, p) -> float:
        raise ProfileError(f"{self.name} has no closed-form plateau deficit")

    def peak(self, p) -> float:
        """max |h|."""
        return abs(p.amplitude)

    def kappa(self, p) -> float:
        """Rate of the reference phi_n(kappa rho); kappa rho is dimensionless, so kappa follows the data's scale."""
        return 4.0 * self.scale(p)

    def sq_ft_sphere_deficit(self, p, rho):
        """a(rho) - a(0) phi_n(kappa rho) from the kind's a(rho)/a(0) - 1, each piece free of cancellation.

        Where a(0) = 0 there is no reference part, and the deficit is a(rho).
        """
        a0 = self.sq_ft_sphere_origin(p)
        if a0 == 0.0:
            return self.sq_ft_sphere(p, rho)
        return a0 * (self.shape_minus_one(p, rho) - _phi_minus_one(p.dimension, self.kappa(p) * rho))


class _Zero(_Kind):
    """h = 0; also the transform, norms, tails and hints of every amplitude-0 profile."""

    name = "zero"
    options = ()

    def _nothing(self, p, *args) -> float:
        return 0.0

    effective_radius = sq_ft_sphere_tail = sq_ft_slope_tail = polar_l1_tail = l1 = l2_sq = l11 = grad_l2_sq = peak = _nothing
    support_radius = plateau_deficit = _nothing

    def kappa(self, p):
        return 1.0

    def is_radial(self, p):
        return True

    def value(self, p, x, r2):
        return np.zeros_like(r2)

    def grad(self, p, x):
        return np.zeros(x.shape if p.dimension == 2 else x.shape + (1,))

    def antiderivative(self, p, x):
        return np.zeros_like(x)

    def radial(self, p, rho):
        return np.zeros(np.shape(rho))

    def slope(self, p):
        return lambda rho, g: g

    def ft_width_hint(self, p, rho):
        return math.inf


class _GaussianFamily(_Kind):
    """Kinds built on exp(-|x|^2 / (2 sigma^2))."""

    params = ("sigma",)

    def slope(self, p):
        s2 = p.sigma**2
        return lambda rho, g: -s2 * np.asarray(rho, float) * g

    def ft_width_hint(self, p, rho):
        s = p.sigma
        return 2.0 / (s * s * rho + 2.0 * s)

    def polar_gaussian(self, p):
        return p._g0, 0.5 * p.sigma**2

    def sq_ft_sphere_tail(self, p, rho, weight):
        # the sphere-integrated |h^|^2 is coef * r^(w_eff - weight) exp(-sigma^2 r^2), and
        # exp(-sigma^2 r^2) <= exp(-sigma^2 rho^2 / 2) exp(-sigma^2 r^2 / 2) on [rho, inf)
        rho, s = _tail_start(rho), float(p.sigma)
        m = self.order
        coef, w_eff = _sphere_moment(p.dimension, m) * abs(p._g0) ** 2, weight + 2.0 * m
        half = s * s / 2.0
        if w_eff > -1.0:
            g_const = 0.5 * math.gamma((w_eff + 1.0) / 2.0) / half ** ((w_eff + 1.0) / 2.0)
        else:
            g_const = rho**w_eff * math.sqrt(math.pi / half) / 2.0
        return coef * math.exp(-half * rho * rho) * g_const

    def polar_l1_tail(self, p, rho, weight):
        # |g(s)| = |g(0)| exp(-sigma^2 s^2 / 2), so the tail is an upper
        # incomplete gamma function Gamma(a, sigma^2 rho^2 / 2) (DLMF 8.2)
        a, s2 = (weight + 1.0) / 2.0, p.sigma**2
        return 0.5 * abs(p._g0) * (2.0 / s2) ** a * math.gamma(a) * float(gammaincc(a, s2 * rho * rho / 2.0))


class _Gaussian(_GaussianFamily):
    """a exp(-|x-c|^2 / (2 sigma^2))."""

    name = "gaussian"
    options = ("amplitude", "center")

    def effective_radius(self, p, tol):
        s = float(p.sigma)
        return math.hypot(*p.center) + s * math.sqrt(2.0 * max(math.log(abs(p.amplitude) / tol), 0.0)) + s

    def value(self, p, x, r2):
        return p.amplitude * np.exp(-r2 / (2.0 * p.sigma**2))

    def grad(self, p, x):
        s2 = p.sigma**2
        if p.dimension == 1:
            return ((-(x - p.center[0]) / s2) * p.value(x))[..., None]
        return (-(x - np.asarray(p.center)) / s2) * p.value(x)[..., None]

    def antiderivative(self, p, x):
        a, s, c = p.amplitude, p.sigma, p.center[0]
        k = a * s * math.sqrt(math.pi / 2.0)
        return k * (erf((x - c) / (s * math.sqrt(2))) - erf(-c / (s * math.sqrt(2))))

    def radial(self, p, rho):
        a, s = p.amplitude, p.sigma
        coef = a * s * math.sqrt(TWO_PI) if p.dimension == 1 else a * TWO_PI * s**2
        return coef * np.exp(-((s * rho) ** 2) / 2.0)

    def shape_minus_one(self, p, rho):
        return np.expm1(-((p.sigma * rho) ** 2))

    def sq_ft_slope_tail(self, p, rho, weight):
        # |g'| = sigma^2 s |g| for the radial factor g of a 2D transform
        return math.inf if p.dimension != 2 else p.sigma**4 * p.sq_ft_sphere_tail(rho, weight + 2.0)

    def l1(self, p):
        return abs(p.amplitude) * (p.sigma * math.sqrt(TWO_PI)) ** p.dimension

    def l2_sq(self, p):
        return p.amplitude * p.amplitude * (p.sigma * math.sqrt(math.pi)) ** p.dimension

    def l11(self, p):
        if not self.is_radial(p):
            return p.l1() + _integrate_data([(lambda x: _norm(x) * np.abs(p.value(x)), [p])])[0]
        a, s = abs(p.amplitude), p.sigma
        if p.dimension == 1:
            return p.l1() + 2.0 * a * s**2
        return p.l1() + a * TWO_PI * s**3 * math.sqrt(math.pi / 2.0)

    def grad_l2_sq(self, p):
        a, s = p.amplitude, p.sigma
        return a * a * math.sqrt(math.pi) / (2.0 * s) if p.dimension == 1 else a * a * math.pi


class _PolynomialGaussian(_GaussianFamily):
    """a x_1 exp(-|x|^2 / (2 sigma^2)), centred.

    It exists to provide mean-zero data, so it is restricted to the
    first-coordinate monomial; a general symbolic polynomial transform is
    out of scope.
    """

    name = "polynomial_gaussian"
    order = 1

    def is_radial(self, p):
        return False  # odd in x_1

    def peak(self, p):
        return abs(p.amplitude) * p.sigma * math.exp(-0.5)  # at x_1 = sigma

    def effective_radius(self, p, tol):
        # |a| r exp(-r^2/(2 s^2)) <= tol; three fixed-point passes from r = s
        a, s = abs(p.amplitude), float(p.sigma)
        r = s
        for _ in range(3):
            r = s * math.sqrt(2.0 * max(math.log(a * max(r, s) / tol), 1.0))
        return r + s

    def value(self, p, x, r2):
        x1 = x[..., 0] if p.dimension == 2 else x
        return p.amplitude * x1 * np.exp(-r2 / (2.0 * p.sigma**2))

    def grad(self, p, x):
        a, s2 = p.amplitude, p.sigma**2
        if p.dimension == 1:
            return (a * (1.0 - (x * x) / s2) * np.exp(-(x * x) / (2 * s2)))[..., None]
        e = a * np.exp(-np.sum(x * x, axis=-1) / (2 * s2))
        out = np.empty(x.shape)
        out[..., 0] = e * (1.0 - x[..., 0] ** 2 / s2)
        out[..., 1] = e * (-x[..., 0] * x[..., 1] / s2)
        return out

    def antiderivative(self, p, x):
        a, s = p.amplitude, p.sigma
        return a * s**2 * (1.0 - np.exp(-(x * x) / (2 * s**2)))

    def radial(self, p, rho):
        a, s = p.amplitude, p.sigma
        coef = a * math.sqrt(TWO_PI) * s**3 if p.dimension == 1 else a * TWO_PI * s**4
        return -1j * coef * np.exp(-((s * rho) ** 2) / 2.0)

    def l1(self, p):
        a, s = abs(p.amplitude), p.sigma
        return 2.0 * a * s**2 if p.dimension == 1 else 2.0 * math.sqrt(TWO_PI) * a * s**3

    def l2_sq(self, p):
        a, s = p.amplitude, p.sigma
        return a * a * s**3 * math.sqrt(math.pi) / 2.0 if p.dimension == 1 else a * a * math.pi * s**4 / 2.0

    def l11(self, p):
        a, s = abs(p.amplitude), p.sigma
        return p.l1() + (a * s**3 * math.sqrt(TWO_PI) if p.dimension == 1 else 8.0 * a * s**4)

    def grad_l2_sq(self, p):
        a, s = p.amplitude, p.sigma
        return a * a * 0.75 * math.sqrt(math.pi) * s if p.dimension == 1 else a * a * math.pi * s**2


class _Indicator(_Kind):
    """a 1_{|x| <= R}, centred."""

    params = ("radius",)
    in_h1 = False

    def effective_radius(self, p, tol):
        return float(p.radius)

    def support_radius(self, p):
        return float(p.radius)

    def kinks(self, p):
        return (-p.radius, p.radius)

    def value(self, p, x, r2):
        return np.where(r2 <= p.radius**2, p.amplitude, 0.0)

    def ft_width_hint(self, p, rho):
        return 1.8 / p.radius

    def sq_ft_sphere_tail(self, p, rho, weight):
        # the sphere-integrated |h^|^2 is at most coef r^-(n+1)
        rho, n = _tail_start(rho), p.dimension
        if weight >= n:
            return math.inf
        return self._tail_coef(p, abs(p.amplitude)) * rho ** (weight - n) / (n - weight)

    def grad_l2_sq(self, p):
        return math.inf


class _IndicatorInterval(_Indicator):
    name = "indicator_interval"
    dims = (1,)

    def antiderivative(self, p, x):
        return p.amplitude * np.clip(x, -p.radius, p.radius)

    def radial(self, p, rho):
        # 2 a sin(R rho)/rho, entire
        r = p.radius
        return (2.0 * p.amplitude * r) * np.sinc(r * rho / math.pi)

    def _tail_coef(self, p, a):
        return 8.0 * a * a

    def shape_minus_one(self, p, rho):
        # sinc^2(R rho) - 1
        x = p.radius * rho
        return _small_first(x, 0.5, _SINC2_SERIES, x * x, lambda v: np.sinc(v / math.pi) ** 2 - 1.0)

    def l1(self, p):
        return 2.0 * abs(p.amplitude) * p.radius

    def l2_sq(self, p):
        return 2.0 * p.amplitude * p.amplitude * p.radius

    def l11(self, p):
        return p.l1() + abs(p.amplitude) * p.radius**2

    def plateau_deficit(self, p):
        # V(x) = a x on [-R, R] and P/2 = a R: int a^2 (x^2 - R^2) dx
        a, r = p.amplitude, p.radius
        return -4.0 / 3.0 * a * a * r**3


class _IndicatorDisk(_Indicator):
    name = "indicator_disk"
    dims = (2,)

    def radial(self, p, rho):
        a, r = p.amplitude, p.radius
        small = np.abs(rho) < 1e-8
        z = np.where(small, 1.0, rho)
        main = TWO_PI * a * r * _sp_j1(r * z) / z
        series = a * math.pi * r**2 * (1.0 - (r * rho) ** 2 / 8.0)
        return np.where(small, series, main)

    def slope(self, p):
        raise ProfileError("indicator_disk has no closed-form transform derivative here")

    def shape_minus_one(self, p, rho):
        # u^2 - 1 = (u - 1)(u + 1) with u = 2 J1(R rho)/(R rho)
        x = p.radius * rho
        with np.errstate(divide="ignore", invalid="ignore"):
            u1 = _small_first(x, 1.0, _JINC_SERIES, 0.25 * x * x, lambda v: 2.0 * _sp_j1(v) / v - 1.0)
        return u1 * (u1 + 2.0)

    def _tail_coef(self, p, a):
        # |J1(x)|^2 <= 2.1/(pi x) for x >= 1
        return TWO_PI * (TWO_PI * a * p.radius) ** 2 * (2.1 / (math.pi * p.radius))

    def l1(self, p):
        return abs(p.amplitude) * math.pi * p.radius**2

    def l2_sq(self, p):
        return p.amplitude * p.amplitude * math.pi * p.radius**2

    def l11(self, p):
        return p.l1() + abs(p.amplitude) * TWO_PI * p.radius**3 / 3.0


_ZERO = _Zero()
#: The profile catalog, kind name -> kind.  ``Profile`` and the CLI read
#: each kind's dimensions, parameters and config keys from here.
KINDS = {k.name: k for k in (_ZERO, _Gaussian(), _PolynomialGaussian(), _IndicatorInterval(), _IndicatorDisk())}


@dataclass(frozen=True)
class Profile:
    """One initial datum: a profile kind plus its parameters.

    The kind's class in ``KINDS`` computes everything; an amplitude-0
    profile takes its transform, radius, hints, tails and norms from the
    zero kind.
    """

    kind: str
    dimension: int
    amplitude: float = 1.0
    sigma: float | None = None
    radius: float | None = None
    center: tuple[float, ...] = field(default=())
    _kind: _Kind = field(init=False, repr=False, compare=False)
    _data_kind: _Kind = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ProfileError(f"unsupported profile kind {self.kind!r}")
        if self.dimension not in (1, 2):
            raise ProfileError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.dimension not in kind.dims:
            raise ProfileError(f"{self.kind} is {('one', 'two')[kind.dims[0] - 1]}-dimensional")
        if not self.center:
            object.__setattr__(self, "center", (0.0,) * self.dimension)
        if len(self.center) != self.dimension:
            raise ProfileError(f"center has length {len(self.center)}, expected {self.dimension}")
        for name in ("sigma", "radius"):
            value = getattr(self, name)
            if name not in kind.params and value is not None:
                raise ProfileError(f"{name}: not a parameter of kind {self.kind!r}")
            if name in kind.params and not (value is not None and 0 < value < math.inf):
                raise ProfileError(f"{self.kind} requires a finite {name} > 0, got {value!r}")
        if not all(map(math.isfinite, (self.amplitude, *self.center))):
            raise ProfileError(f"amplitude {self.amplitude!r} and center {self.center!r} must be finite")
        if "center" not in kind.options and any(c != 0.0 for c in self.center):
            raise ProfileError(f"{self.kind} supports center 0 only")
        object.__setattr__(self, "_kind", kind)
        object.__setattr__(self, "_data_kind", _ZERO if self.amplitude == 0.0 else kind)

    # ------------------------------------------------------------------ ctor
    @classmethod
    def gaussian(cls, dimension: int, sigma: float, amplitude: float = 1.0, center=None) -> "Profile":
        return cls("gaussian", dimension, amplitude, sigma=sigma, center=_as_center(center, dimension))

    @classmethod
    def indicator_interval(cls, radius: float, amplitude: float = 1.0) -> "Profile":
        return cls("indicator_interval", 1, amplitude, radius=radius)

    @classmethod
    def indicator_disk(cls, radius: float, amplitude: float = 1.0) -> "Profile":
        return cls("indicator_disk", 2, amplitude, radius=radius)

    @classmethod
    def polynomial_gaussian(cls, dimension: int, sigma: float, amplitude: float = 1.0) -> "Profile":
        return cls("polynomial_gaussian", dimension, amplitude, sigma=sigma)

    @classmethod
    def zero(cls, dimension: int) -> "Profile":
        return cls("zero", dimension)

    # ------------------------------------------------------------- structure
    @property
    def is_zero(self) -> bool:
        return isinstance(self._data_kind, _Zero)

    @property
    def is_radial(self) -> bool:
        """True iff the profile is radially symmetric about the origin."""
        return self._data_kind.is_radial(self)

    @property
    def in_h1(self) -> bool:
        """Whether the profile has a square-integrable gradient."""
        return self._kind.in_h1

    def effective_radius(self, tol: float = 1e-14) -> float:
        """Radius outside which |h| stays below tol (exact for indicators); 0 when max |h| <= tol."""
        return 0.0 if self._data_kind.peak(self) <= tol else self._data_kind.effective_radius(self, tol)

    def _points(self, x, what: str) -> np.ndarray:
        """x as floats; in 2D its shape must be (..., 2)."""
        x = np.asarray(x, dtype=float)
        if self.dimension == 2 and (x.ndim == 0 or x.shape[-1] != 2):
            raise ProfileError(f"2D profile needs {what} of shape (..., 2), got shape {x.shape}")
        return x

    # ------------------------------------------------------- physical space
    def value(self, x) -> np.ndarray:
        """Evaluate h(x); x has shape (...,) in 1D or (..., 2) in 2D."""
        x = self._points(x, "points")
        if self.dimension == 2:
            dx = x - np.asarray(self.center)
            r2 = np.sum(dx * dx, axis=-1)
        else:
            dx = x - self.center[0]
            r2 = dx * dx
        return self._kind.value(self, x, r2)

    def grad(self, x) -> np.ndarray:
        """Gradient of h at x, shape (..., dimension). Indicators are rejected."""
        if not self.in_h1:
            raise ProfileError(f"{self.kind} has no classical gradient")
        return self._kind.grad(self, self._points(x, "points"))

    def kinks(self) -> tuple[float, ...]:
        """Points where the profile or its antiderivative is not smooth."""
        return self._kind.kinks(self)

    def antiderivative(self, x) -> np.ndarray:
        """int_0^x h(s) ds for one-dimensional profiles (d'Alembert input)."""
        if self.dimension != 1:
            raise ProfileError("antiderivative is defined for 1D profiles only")
        return self._kind.antiderivative(self, np.asarray(x, dtype=float))

    # -------------------------------------------------------- Fourier space
    def ft(self, xi) -> np.ndarray:
        """Closed-form transform h^(xi); xi shaped (...,) in 1D, (..., 2) in 2D."""
        return self._data_kind.ft(self, self._points(xi, "frequencies"))

    def polar_factor(self):
        """The transform as (m, g) with h^(xi) = g(|xi|) xi_1^m e^{-i xi.c}, in both dimensions.

        m = 1 for the polynomial gaussian and 0 for every other kind.  g
        leaves out the centre's phase: ``ft`` applies it, and a pair takes
        its sphere average (``spectral.reduce_pair``).
        """
        return self._data_kind.polar_factor(self)

    @functools.cached_property
    def _g0(self) -> complex:
        """g(0) of ``polar_factor``, sampled once per profile."""
        return complex(self.polar_factor()[1](np.zeros(1))[0])

    def polar_gaussian(self) -> tuple[complex, float] | None:
        """(g(0), beta) with g(rho) = g(0) exp(-beta rho^2) the g of ``polar_factor``, for the
        gaussian kinds; None for a kind whose g is not of that form.

        Every squared sphere average and cross term of such data is a
        monomial times a gaussian, whose Taylor coefficients at rho = 0 and
        derivative L1 norms ``spectral``'s large-t expansion takes.
        """
        return self._data_kind.polar_gaussian(self)

    def polar_slope(self):
        """(rho, g(rho)) -> g'(rho) for the g of ``polar_factor``: g' = -sigma^2
        rho g for the gaussians, so a slope takes no second transform; the
        grid-free decay chain needs it, the disk does not."""
        return self._kind.slope(self)

    def ft_width_hint(self, rho: float) -> float:
        """Suggested quadrature panel width near radius rho in frequency space, a float for a float."""
        return self._data_kind.ft_width_hint(self, rho)

    def sq_ft_sphere(self, rho) -> np.ndarray:
        """Sphere-integrated squared transform: int_{S^{n-1}} |h^(rho w)|^2 dw."""
        return self._data_kind.sq_ft_sphere(self, np.asarray(rho, dtype=float))

    def sq_ft_sphere_origin(self) -> tuple[float, float]:
        """(a(0), kappa): ``sq_ft_sphere`` at rho = 0 and the rate of its reference shape.

        A norm integrand's a1 term carries rho^(n-3) a(rho), singular at 0;
        a(0) phi_n(kappa rho), with phi_1(y) = (1 + y) e^{-y} and phi_2(y) =
        e^{-y}, has elementary integrals against it, and the deficit
        ``sq_ft_sphere_deficit`` is smooth after the weight.  kappa is four
        times the data's length scale (1 for zero data).
        """
        return self._data_kind.sq_ft_sphere_origin(self), self._data_kind.kappa(self)

    def sq_ft_sphere_deficit(self, rho) -> np.ndarray:
        """sq_ft_sphere(rho) - a(0) phi_n(kappa rho), to relative roundoff also where it is O(rho^(3-n))."""
        return self._data_kind.sq_ft_sphere_deficit(self, np.asarray(rho, dtype=float))

    def sq_ft_sphere_tail(self, rho: float, weight: float) -> float:
        """Safe upper bound for int_rho^inf sq_ft_sphere(s) s^weight ds.

        Used to decide when truncating an infinite frequency integral is
        harmless.  Overestimates are fine; an infinite answer means the
        weighted integral genuinely diverges for this profile.
        """
        return self._data_kind.sq_ft_sphere_tail(self, rho, weight)

    def sq_ft_slope_tail(self, rho: float, weight: float) -> float:
        """Safe upper bound for int_rho^inf 2 pi |g'(s)|^2 s^weight ds.

        g is the radial factor of a 2D transform (``polar_factor``); for a
        gaussian |g'| = sigma^2 s |g|.  Infinite where no bound is known.
        """
        return self._data_kind.sq_ft_slope_tail(self, rho, weight)

    def polar_l1_tail(self, rho: float, weight: float) -> float:
        """int_rho^inf |g(s)| s^weight ds, exactly, for rho >= 0, weight > -1 and
        the g of ``polar_factor``; infinite for a kind without a closed form."""
        return self._data_kind.polar_l1_tail(self, float(rho), weight)

    def support_radius(self) -> float:
        """Radius about the origin outside which h vanishes exactly: infinite
        for a kind that vanishes nowhere, 0 for zero data."""
        return self._data_kind.support_radius(self)

    def plateau_deficit(self) -> float:
        """int (V^2 - P^2/4) dx of a 1D velocity with finite ``support_radius``,
        with P = int h and V(x) = int_{-inf}^x h - P/2.

        Once |t| >= R, d'Alembert's wave of this velocity is a plateau P/2
        between two travelling fronts P/4 +- V/2, and half this integral is
        what the fronts change in M^2 against a plateau of width 2|t|.  A
        kind without a closed form raises ProfileError.
        """
        return self._data_kind.plateau_deficit(self)

    # ----------------------------------------------------------- data norms
    def l1(self) -> float:
        return self._data_kind.l1(self)

    def l2_sq(self) -> float:
        return self._data_kind.l2_sq(self)

    def l11(self) -> float:
        """Weighted norm int (1 + |x|) |h| dx."""
        return self._data_kind.l11(self)

    def grad_l2_sq(self) -> float:
        """int |grad h|^2 dx; infinite for indicator profiles."""
        return self._data_kind.grad_l2_sq(self)


@dataclass(frozen=True)
class ProfilePair:
    """Initial position u0 and velocity u1 sharing one dimension."""

    dimension: int
    u0: Profile
    u1: Profile

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ProfileError("dimension must be 1 or 2")
        if self.u0.dimension != self.dimension or self.u1.dimension != self.dimension:
            raise ProfileError("profile dimensions do not match the pair")

    @property
    def is_zero(self) -> bool:
        return self.u0.is_zero and self.u1.is_zero

    def effective_radius(self, tol: float = 1e-14) -> float:
        return max(self.u0.effective_radius(tol), self.u1.effective_radius(tol))


@dataclass(frozen=True)
class DataNorms:
    """Norms of an initial data pair used by the growth and decay envelopes.

    ``l11_u1`` is int (1+|x|)|u1| dx and is None when infinite; the
    lower-bound envelopes refuse to run without it.
    """

    l1_u0: float
    l2_u0: float
    l1_u1: float
    l2_u1: float
    l11_u1: float | None
    i0n: float
    mean_u1: float


def moments(pair: ProfilePair) -> DataNorms:
    """Data norms of a pair: closed forms, and panel quadrature for the
    weighted L1 norm of shifted data."""
    u0, u1 = pair.u0, pair.u1
    l11 = u1.l11()
    l2_u0 = math.sqrt(u0.l2_sq())
    l2_u1 = math.sqrt(u1.l2_sq())
    return DataNorms(
        l1_u0=u0.l1(),
        l2_u0=l2_u0,
        l1_u1=u1.l1(),
        l2_u1=l2_u1,
        l11_u1=None if math.isinf(l11) else l11,
        i0n=l2_u0 + u0.l1() + l2_u1 + u1.l1(),
        mean_u1=u1._g0.real,
    )
