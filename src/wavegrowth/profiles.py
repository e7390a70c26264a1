"""Initial data profiles and their exact Fourier transforms.

All transforms use the unnormalized convention

    h^(xi) = int e^{-i x.xi} h(x) dx,

so Plancherel reads ||h^||_{L2}^2 = (2 pi)^n ||h||_{L2}^2.  The (2 pi)^n
factor is never silently dropped; callers convert between physical and
Fourier side norms explicitly.

The catalog covers the data used throughout the package:

* ``gaussian``             a exp(-|x-c|^2 / (2 sigma^2)), n = 1, 2
* ``indicator_interval``   a 1_{|x| <= R}, n = 1
* ``indicator_disk``       a 1_{|x| <= R}, n = 2
* ``polynomial_gaussian``  a x_1 exp(-|x|^2 / (2 sigma^2)), n = 1, 2
* ``zero``

``polynomial_gaussian`` is deliberately restricted to the first-coordinate
monomial; it exists to provide mean-zero data, and a general symbolic
polynomial transform is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, j0 as _sp_j0, j1 as _sp_j1

from .quadrature import QuadConfig, QuadratureError, integrate_smooth

__all__ = [
    "Profile",
    "ProfilePair",
    "DataNorms",
    "ProfileError",
    "bessel_j",
    "moments",
    "unit_sphere_measure",
]

_KINDS = ("gaussian", "indicator_interval", "indicator_disk", "polynomial_gaussian", "zero")

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


def bessel_j(order: int, x) -> np.ndarray | float:
    """Bessel function J_order for order in {0, 1} on x >= 0.

    Accuracy is 1e-12 or better on [0, 20]; negative arguments are
    rejected since only radial frequencies are ever evaluated.
    """
    if order not in (0, 1):
        raise ProfileError(f"bessel_j supports orders 0 and 1, got {order}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ProfileError("bessel_j requires x >= 0")
    out = _sp_j0(arr) if order == 0 else _sp_j1(arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _norm(x: np.ndarray) -> np.ndarray:
    """|x| for points shaped as ``Profile.value`` takes them."""
    return np.abs(x) if x.ndim == 1 else np.hypot(x[..., 0], x[..., 1])


def _integrate_data(g: Callable[[np.ndarray], np.ndarray], profiles: Sequence[Profile], shift: float = 0.0) -> float:
    """int_{R^n} g(x) dx for a vectorised g that vanishes where the profiles do.

    The range reaches the profiles' effective radius plus ``shift``.  g
    may kink at x = 0 (an |x| weight) and at each profile kink translated
    by +-shift; those points split the range into smooth pieces.  Panels
    start no wider than the data's smallest scale; with a shift, only
    within the effective radius of the translates at +-shift, and wide
    across the plateau between them.  In 2D the integral is
    int 2 pi r <g>(r) dr about the origin, with the angular mean <g> read
    off the first axis when every profile is radial and otherwise taken
    by the periodic trapezoid rule on _ANGLES points.
    That rule is checked against its every-second-point sub-rule, and a
    difference above the tolerance raises QuadratureError.
    """
    profiles = [p for p in profiles if not p.is_zero]
    if not profiles:
        return 0.0
    support = max(p.effective_radius(1e-16) for p in profiles)
    reach = support + abs(shift)
    kinks = {0.0} | {k + sign * shift for p in profiles for k in p.kinks() for sign in (-1.0, 1.0)}
    scale = min(p.sigma or p.radius for p in profiles)
    if shift:
        # the data's scale near the translated data at +-shift, and on the
        # plateau between them a step that stops at the next translate
        hint = lambda x: np.maximum(scale, np.minimum(np.abs(x - shift), np.abs(x + shift)) - support)
    else:
        hint = lambda x: np.full(np.shape(x), scale)
    if profiles[0].dimension == 1:
        edges = [-reach, *sorted(k for k in kinks if abs(k) < reach), reach]
        return integrate_smooth(g, edges[:-1], edges[1:], _DATA_TOL, hint).value
    edges = [0.0, *sorted(k for k in kinks if 0.0 < k < reach), reach]
    theta = TWO_PI * np.arange(_ANGLES) / _ANGLES
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    def polar(points):
        ring = lambda r: TWO_PI * r * np.mean(g(r[:, None, None] * points), axis=-1)
        return integrate_smooth(ring, edges[:-1], edges[1:], _DATA_TOL, hint).value

    if all(p.is_radial for p in profiles):
        return polar(circle[:1])
    full, half = polar(circle), polar(circle[::2])
    if abs(full - half) > _DATA_TOL.target(full):
        raise QuadratureError(
            f"angular trapezoid rule on {_ANGLES} points misses the tolerance: "
            f"its {_ANGLES // 2}-point sub-rule differs by {abs(full - half):.2e}",
            achieved=full,
            error_estimate=abs(full - half),
        )
    return full


def _as_center(center, dimension: int) -> tuple[float, ...]:
    if center is None:
        return (0.0,) * dimension
    if np.isscalar(center):
        if dimension != 1:
            raise ProfileError("scalar center only valid in dimension 1")
        return (float(center),)
    c = tuple(float(v) for v in center)
    if len(c) != dimension:
        raise ProfileError(f"center has length {len(c)}, expected {dimension}")
    return c


@dataclass(frozen=True)
class Profile:
    """One initial datum: a profile kind plus its parameters."""

    kind: str
    dimension: int
    amplitude: float = 1.0
    sigma: float | None = None
    radius: float | None = None
    center: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ProfileError(f"unsupported profile kind {self.kind!r}")
        if self.dimension not in (1, 2):
            raise ProfileError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.center:
            object.__setattr__(self, "center", (0.0,) * self.dimension)
        if len(self.center) != self.dimension:
            raise ProfileError("center length does not match dimension")
        if self.kind == "gaussian":
            if self.sigma is None or self.sigma <= 0:
                raise ProfileError("gaussian requires sigma > 0")
        elif self.kind == "indicator_interval":
            if self.dimension != 1:
                raise ProfileError("indicator_interval is one-dimensional")
            if self.radius is None or self.radius <= 0:
                raise ProfileError("indicator_interval requires radius > 0")
            if any(c != 0.0 for c in self.center):
                raise ProfileError("indicator profiles support center 0 only")
        elif self.kind == "indicator_disk":
            if self.dimension != 2:
                raise ProfileError("indicator_disk is two-dimensional")
            if self.radius is None or self.radius <= 0:
                raise ProfileError("indicator_disk requires radius > 0")
            if any(c != 0.0 for c in self.center):
                raise ProfileError("indicator profiles support center 0 only")
        elif self.kind == "polynomial_gaussian":
            if self.sigma is None or self.sigma <= 0:
                raise ProfileError("polynomial_gaussian requires sigma > 0")
            if any(c != 0.0 for c in self.center):
                raise ProfileError("polynomial_gaussian supports center 0 only")

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
        return self.kind == "zero" or self.amplitude == 0.0

    @property
    def is_radial(self) -> bool:
        """True iff the profile is radially symmetric about the origin."""
        if self.is_zero:
            return True
        if self.kind in ("indicator_interval", "indicator_disk"):
            return True
        if self.kind == "gaussian":
            return all(c == 0.0 for c in self.center)
        return False  # polynomial_gaussian is odd in x_1

    @property
    def in_h1(self) -> bool:
        """Whether the profile has a square-integrable gradient."""
        return self.kind in ("gaussian", "polynomial_gaussian", "zero")

    def effective_radius(self, tol: float = 1e-14) -> float:
        """Radius outside which |h| stays below tol (exact for indicators)."""
        a = abs(self.amplitude)
        if self.is_zero or a <= tol:
            return 0.0
        if self.kind in ("indicator_interval", "indicator_disk"):
            return float(self.radius)
        s = float(self.sigma)
        shift = math.hypot(*self.center)
        if self.kind == "gaussian":
            return shift + s * math.sqrt(2.0 * max(math.log(a / tol), 0.0)) + s
        # |a| r exp(-r^2/(2 s^2)) <= tol; two fixed-point passes suffice
        r = s
        for _ in range(3):
            r = s * math.sqrt(2.0 * max(math.log(a * max(r, s) / tol), 1.0))
        return r + s

    # ------------------------------------------------------- physical space
    def value(self, x) -> np.ndarray:
        """Evaluate h(x); x has shape (...,) in 1D or (..., 2) in 2D."""
        x = np.asarray(x, dtype=float)
        if self.dimension == 2:
            if x.shape[-1] != 2:
                raise ProfileError("2D profile needs points with last axis of size 2")
            dx = x - np.asarray(self.center)
            r2 = np.sum(dx * dx, axis=-1)
        else:
            dx = x - self.center[0]
            r2 = dx * dx
        a = self.amplitude
        if self.kind == "zero":
            return np.zeros_like(r2)
        if self.kind == "gaussian":
            return a * np.exp(-r2 / (2.0 * self.sigma**2))
        if self.kind == "indicator_interval" or self.kind == "indicator_disk":
            return np.where(r2 <= self.radius**2, a, 0.0)
        # polynomial_gaussian: a * x_1 * gaussian, center 0
        x1 = x[..., 0] if self.dimension == 2 else x
        return a * x1 * np.exp(-r2 / (2.0 * self.sigma**2))

    def grad(self, x) -> np.ndarray:
        """Gradient of h at x, shape (..., dimension). Indicators are rejected."""
        if not self.in_h1:
            raise ProfileError(f"{self.kind} has no classical gradient")
        x = np.asarray(x, dtype=float)
        if self.dimension == 2 and x.shape[-1] != 2:
            raise ProfileError("2D profile needs points with last axis of size 2")
        if self.kind == "zero":
            shape = x.shape if self.dimension == 2 else x.shape + (1,)
            return np.zeros(shape)
        s2 = self.sigma**2
        if self.dimension == 1:
            xv = x - self.center[0]
            g = self.value(x)
            if self.kind == "gaussian":
                out = (-xv / s2) * g
            else:
                out = self.amplitude * (1.0 - (x * x) / s2) * np.exp(-(x * x) / (2 * s2))
            return out[..., None]
        dx = x - np.asarray(self.center)
        if self.kind == "gaussian":
            return (-dx / s2) * self.value(x)[..., None]
        # polynomial_gaussian, center 0
        r2 = np.sum(x * x, axis=-1)
        e = self.amplitude * np.exp(-r2 / (2 * s2))
        out = np.empty(x.shape)
        out[..., 0] = e * (1.0 - x[..., 0] ** 2 / s2)
        out[..., 1] = e * (-x[..., 0] * x[..., 1] / s2)
        return out

    def kinks(self) -> tuple[float, ...]:
        """Points where the profile or its antiderivative is not smooth."""
        if self.kind in ("indicator_interval", "indicator_disk"):
            return (-self.radius, self.radius)
        return ()

    def antiderivative(self, x) -> np.ndarray:
        """int_0^x h(s) ds for one-dimensional profiles (d'Alembert input)."""
        if self.dimension != 1:
            raise ProfileError("antiderivative is defined for 1D profiles only")
        x = np.asarray(x, dtype=float)
        a = self.amplitude
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "indicator_interval":
            r = self.radius
            return a * np.clip(x, -r, r)
        s = self.sigma
        if self.kind == "gaussian":
            c = self.center[0]
            k = a * s * math.sqrt(math.pi / 2.0)
            return k * (erf((x - c) / (s * math.sqrt(2))) - erf(-c / (s * math.sqrt(2))))
        # x * gaussian
        return a * s**2 * (1.0 - np.exp(-(x * x) / (2 * s**2)))

    # -------------------------------------------------------- Fourier space
    def ft(self, xi) -> np.ndarray:
        """Closed-form transform h^(xi); xi shaped (...,) in 1D, (..., 2) in 2D."""
        xi = np.asarray(xi, dtype=float)
        a = self.amplitude
        if self.dimension == 1:
            if self.kind == "zero":
                return np.zeros(xi.shape, dtype=complex)
            if self.kind == "indicator_interval":
                r = self.radius
                # 2 a sin(R xi)/xi, even and entire
                return (2.0 * a * r) * np.sinc(r * xi / math.pi) + 0.0j
            s = self.sigma
            gauss = a * s * math.sqrt(TWO_PI) * np.exp(-(s * xi) ** 2 / 2.0)
            if self.kind == "gaussian":
                c = self.center[0]
                return gauss * np.exp(-1j * c * xi)
            return -1j * s**2 * xi * gauss  # x * gaussian
        if xi.shape[-1] != 2:
            raise ProfileError("2D profile needs frequencies with last axis of size 2")
        if self.kind == "zero":
            return np.zeros(xi.shape[:-1], dtype=complex)
        rho = np.sqrt(np.sum(xi * xi, axis=-1))
        if self.kind == "indicator_disk":
            return self._disk_ft_radial(rho) + 0.0j
        s = self.sigma
        gauss = a * TWO_PI * s**2 * np.exp(-(s * rho) ** 2 / 2.0)
        if self.kind == "gaussian":
            phase = np.exp(-1j * (xi[..., 0] * self.center[0] + xi[..., 1] * self.center[1]))
            return gauss * phase
        return -1j * s**2 * xi[..., 0] * gauss  # x_1 * gaussian

    def _disk_ft_radial(self, rho) -> np.ndarray:
        a, r = self.amplitude, self.radius
        rho = np.asarray(rho, dtype=float)
        small = np.abs(rho) < 1e-8
        z = np.where(small, 1.0, rho)
        main = TWO_PI * a * r * _sp_j1(r * z) / z
        series = a * math.pi * r**2 * (1.0 - (r * rho) ** 2 / 8.0)
        return np.where(small, series, main)

    def polar_factor(self):
        """Angular structure of a 2D transform: (m, g) with h^ = g(rho) * xi_1^m.

        m = 0 covers radial transforms (common shifts handled by the caller),
        m = 1 the first-coordinate Gaussian.  The common phase of a shifted
        gaussian is dropped; callers must check shifts cancel pairwise.
        """
        if self.dimension != 2:
            raise ProfileError("polar_factor applies to 2D profiles")
        a = self.amplitude
        if self.kind == "zero":
            return 0, lambda rho: np.zeros(np.shape(rho), dtype=complex)
        if self.kind == "indicator_disk":
            return 0, lambda rho: self._disk_ft_radial(rho) + 0.0j
        s = self.sigma
        if self.kind == "gaussian":
            return 0, lambda rho: a * TWO_PI * s**2 * np.exp(-(s * np.asarray(rho, float)) ** 2 / 2.0) + 0.0j
        return 1, lambda rho: -1j * a * TWO_PI * s**4 * np.exp(-(s * np.asarray(rho, float)) ** 2 / 2.0)

    def polar_factor_derivative(self):
        """d g / d rho for the g of ``polar_factor``: g' = -sigma^2 rho g for
        the gaussians; the grid-free decay chain needs it, the disk does not."""
        _, g = self.polar_factor()
        if self.kind == "zero":
            return g
        if self.kind == "indicator_disk":
            raise ProfileError("indicator_disk has no closed-form transform derivative here")
        s2 = self.sigma**2
        return lambda rho: -s2 * np.asarray(rho, float) * g(rho)

    def ft_width_hint(self, rho) -> np.ndarray:
        """Suggested quadrature panel width near radius rho in frequency space."""
        rho = np.asarray(rho, dtype=float)
        if self.is_zero:
            return np.full(rho.shape, np.inf)
        if self.kind in ("indicator_interval", "indicator_disk"):
            return np.full(rho.shape, 1.8 / self.radius)
        s = self.sigma
        return 2.0 / (s * s * rho + 2.0 * s)

    def sq_ft_sphere(self, rho) -> np.ndarray:
        """Sphere-integrated squared transform: int_{S^{n-1}} |h^(rho w)|^2 dw."""
        rho = np.asarray(rho, dtype=float)
        if self.is_zero:
            return np.zeros(rho.shape)
        if self.dimension == 1:
            return 2.0 * np.abs(self.ft(rho)) ** 2
        m, g = self.polar_factor()
        gv = np.abs(g(rho)) ** 2
        if m == 0:
            return TWO_PI * gv
        return math.pi * rho**2 * gv

    def sq_ft_sphere_tail(self, rho: float, weight: float) -> float:
        """Safe upper bound for int_rho^inf sq_ft_sphere(s) s^weight ds.

        Used to decide when truncating an infinite frequency integral is
        harmless.  Overestimates are fine; an infinite answer means the
        weighted integral genuinely diverges for this profile.
        """
        if self.is_zero:
            return 0.0
        rho = float(rho)
        if rho <= 0:
            raise ProfileError("tail bound needs rho > 0")
        a = abs(self.amplitude)
        if self.kind == "indicator_interval":
            # sphere-integrated |h^|^2 <= 8 a^2 / s^2
            if weight >= 1:
                return math.inf
            return 8.0 * a * a * rho ** (weight - 1) / (1 - weight)
        if self.kind == "indicator_disk":
            # |J1(x)|^2 <= 2.1/(pi x) for x >= 1; integrand <= coef s^{weight-3}
            if weight >= 2:
                return math.inf
            coef = TWO_PI * (TWO_PI * a * self.radius) ** 2 * (2.1 / (math.pi * self.radius))
            return coef * rho ** (weight - 2) / (2 - weight)
        s = float(self.sigma)
        if self.kind == "gaussian":
            # sphere-integrated |h^|^2 = coef * exp(-sigma^2 rho^2)
            coef = (2.0 if self.dimension == 1 else TWO_PI) * a * a * (s * math.sqrt(TWO_PI)) ** (2 * self.dimension)
            w_eff = weight
        elif self.dimension == 1:
            # 2 |a sigma^2 xi|^2 * 2 pi sigma^2 * exp(-sigma^2 xi^2)
            coef = 2.0 * a * a * TWO_PI * s**6
            w_eff = weight + 2.0
        else:
            # pi rho^2 |2 pi a sigma^4|^2 exp(-sigma^2 rho^2)
            coef = math.pi * (TWO_PI * a * s**4) ** 2
            w_eff = weight + 2.0
        # exp(-sigma^2 s^2) <= exp(-sigma^2 rho^2 / 2) exp(-sigma^2 s^2 / 2) on [rho, inf)
        half = s * s / 2.0
        if w_eff > -1.0:
            g_const = 0.5 * math.gamma((w_eff + 1.0) / 2.0) / half ** ((w_eff + 1.0) / 2.0)
        else:
            g_const = rho**w_eff * math.sqrt(math.pi / half) / 2.0
        return coef * math.exp(-half * rho * rho) * g_const

    def sq_ft_slope_tail(self, rho: float, weight: float) -> float:
        """Safe upper bound for int_rho^inf 2 pi |g'(s)|^2 s^weight ds.

        g is the radial factor of a 2D transform (``polar_factor``); for a
        gaussian |g'| = sigma^2 s |g|.  Infinite where no bound is known.
        """
        if self.is_zero:
            return 0.0
        if self.kind != "gaussian" or self.dimension != 2:
            return math.inf
        return self.sigma**4 * self.sq_ft_sphere_tail(rho, weight + 2.0)

    # ----------------------------------------------------------- data norms
    def l1(self) -> float:
        a = abs(self.amplitude)
        if self.is_zero:
            return 0.0
        if self.kind == "indicator_interval":
            return 2.0 * a * self.radius
        if self.kind == "indicator_disk":
            return a * math.pi * self.radius**2
        s = self.sigma
        if self.kind == "gaussian":
            return a * (s * math.sqrt(TWO_PI)) ** self.dimension
        if self.dimension == 1:
            return 2.0 * a * s**2
        return 2.0 * math.sqrt(TWO_PI) * a * s**3

    def l2_sq(self) -> float:
        a = self.amplitude
        if self.is_zero:
            return 0.0
        if self.kind == "indicator_interval":
            return 2.0 * a * a * self.radius
        if self.kind == "indicator_disk":
            return a * a * math.pi * self.radius**2
        s = self.sigma
        if self.kind == "gaussian":
            return a * a * (s * math.sqrt(math.pi)) ** self.dimension
        if self.dimension == 1:
            return a * a * s**3 * math.sqrt(math.pi) / 2.0
        return a * a * math.pi * s**4 / 2.0

    def l11(self) -> float:
        """Weighted norm int (1 + |x|) |h| dx."""
        a = abs(self.amplitude)
        if self.is_zero:
            return 0.0
        if self.kind == "indicator_interval":
            return 2.0 * a * self.radius + a * self.radius**2
        if self.kind == "indicator_disk":
            return a * math.pi * self.radius**2 + a * TWO_PI * self.radius**3 / 3.0
        s = self.sigma
        centered = all(c == 0.0 for c in self.center)
        if self.kind == "gaussian" and centered:
            if self.dimension == 1:
                return self.l1() + 2.0 * a * s**2
            return self.l1() + a * TWO_PI * s**3 * math.sqrt(math.pi / 2.0)
        if self.kind == "polynomial_gaussian":
            if self.dimension == 1:
                return self.l1() + a * s**3 * math.sqrt(TWO_PI)
            return self.l1() + 8.0 * a * s**4
        # shifted gaussian: numeric
        return self.l1() + _integrate_data(lambda x: _norm(x) * np.abs(self.value(x)), [self])

    def grad_l2_sq(self) -> float:
        """int |grad h|^2 dx; infinite for indicator profiles."""
        if self.is_zero:
            return 0.0
        if not self.in_h1:
            return math.inf
        a, s = self.amplitude, self.sigma
        if self.kind == "gaussian":
            if self.dimension == 1:
                return a * a * math.sqrt(math.pi) / (2.0 * s)
            return a * a * math.pi
        if self.dimension == 1:
            return a * a * 0.75 * math.sqrt(math.pi) * s
        return a * a * math.pi * s**2

    def weighted_grad_sq(self) -> float:
        """int |x| |grad h|^2 dx; infinite when the gradient is not square
        integrable."""
        if self.is_zero:
            return 0.0
        if not self.in_h1:
            return math.inf
        return _integrate_data(lambda x: _norm(x) * np.sum(self.grad(x) ** 2, axis=-1), [self])

    def weighted_l2(self) -> float:
        """int |x| |h|^2 dx."""
        if self.is_zero:
            return 0.0
        return _integrate_data(lambda x: _norm(x) * self.value(x) ** 2, [self])


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
    lower-bound envelopes refuse to run without it.  ``weighted_h1`` is
    int |x| (|u1|^2 + |grad u0|^2) dx, None when infinite.
    """

    l1_u0: float
    l2_u0: float
    l1_u1: float
    l2_u1: float
    l11_u1: float | None
    i0n: float
    mean_u1: float
    weighted_h1: float | None

    @property
    def has_moment_norm(self) -> bool:
        return self.l11_u1 is not None


def moments(pair: ProfilePair) -> DataNorms:
    """Data norms of a pair: closed forms, and panel quadrature for the
    weighted H1 norm and the weighted L1 norm of shifted data."""
    u0, u1 = pair.u0, pair.u1
    l11 = u1.l11()
    wh1_parts = [u1.weighted_l2(), u0.weighted_grad_sq()]
    wh1 = None if any(math.isinf(v) for v in wh1_parts) else sum(wh1_parts)
    l2_u0 = math.sqrt(u0.l2_sq())
    l2_u1 = math.sqrt(u1.l2_sq())
    p = float(np.real(u1.ft(np.zeros(2)) if pair.dimension == 2 else u1.ft(0.0)))
    return DataNorms(
        l1_u0=u0.l1(),
        l2_u0=l2_u0,
        l1_u1=u1.l1(),
        l2_u1=l2_u1,
        l11_u1=None if math.isinf(l11) else l11,
        i0n=l2_u0 + u0.l1() + l2_u1 + u1.l1(),
        mean_u1=p,
        weighted_h1=wh1,
    )
