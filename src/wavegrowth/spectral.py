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
O(t) oscillations node by node.  ``wave_integrands`` is the one place that
writes this integrand as amplitude x {1, cos, sin}(2 t rho); the norms
here and every chain link in ``bounds`` are built from it.  It takes one
callable, rho -> (A1, A0, X) with None for an absent term, and builds one
amplitude callable from it, so A1 and A0 are sampled once per point
although both amplitudes of the split carry them.  ``reduce_pair``
builds a pair's reduced spectrum, one record: one callable per term, the
joint rho -> (A1, A0, X), the closed-form part below and the one width
hint that all the pair's integrands share.  The chain links take the norm
and its A1 and A0 terms alone from it.  A 2D pair with both profiles
nonzero takes A1, A0 and X from one sample of each radial factor g per
point; profiles at different centres enter X through the sphere average
of their relative phase, a J0 factor.

The split amplitudes carry rho^{n-3} A1, which blows up at rho = 0 where
the integrand stays finite, and in 1D X/rho.  That singular part is
subtracted in closed form: A1 = A1(0) phi_n(kappa rho) + deficit, with
phi_2(y) = e^{-y}, phi_1(y) = (1 + y) e^{-y} and, in 1D, X = X(0) e^{-kappa
rho} + deficit (``_Singular``).  The deficits, from the profile kinds
(``Profile.sq_ft_sphere_deficit``), leave amplitudes smooth down to rho = 0,
so every range is Filon from its lower limit, and the reference parts
integrate to elementary functions and the exponential integral on any
[lo, hi]:

    int_0^inf (1 - cos b rho) e^{-kappa rho} / rho drho = (1/2) log(1 + b^2/kappa^2),
    int_0^inf (1 - cos b rho) (1 + kappa rho) e^{-kappa rho} / rho^2 drho = b arctan(b/kappa),
    int_0^inf sin(b rho) e^{-kappa rho} / rho drho = arctan(b/kappa),

and on [0, x] through Ein(z) = E1(z) + log z + gamma (DLMF 6.2), z = (kappa
- i b) x (``_decay_integrals``).  kappa follows the data's length scale.
Integrands linear in w^, such as the values of a radial wave at given radii,
take the phase t rho instead and come from ``field_integrands``, which
takes rho -> (cos, sin) amplitudes; these are smooth at rho = 0 as they
stand, and they may be vector-valued (one component per radius).  Each
factory builds one set of callables for all its times, so its times are
one family of a batch: one call per callable per sweep, one march of
every block, and each panel sampled once.  The energy needs no time and
no integrand of this shape: a free wave conserves it (``energy``).

At large t the norm of gaussian data needs no panel.  Its integral is
K(t) + int_0^inf G + int_0^inf C cos(2 t rho) + S sin(2 t rho) over the
split amplitudes, and for data whose every nonzero profile is a gaussian
kind at one centre each amplitude is a sum of monomials times gaussians
and the reference parts (``_Term``), with Taylor coefficients at rho = 0,
derivative L1 bounds and int G in closed form (Cramer's inequality for the
Hermite functions; Gamma functions and Frullani's integral).  Integrating
by parts gives the oscillatory part as a series in 1/(2t) from the odd
derivatives of C and the even ones of S at 0, with a remainder at most
int |C^(J)| + |S^(J)| over (2t)^J (``_Expansion``).
``_ReducedSpectrum.norm_rows`` sums as many terms as still shrink that
remainder, and a t whose remainder and whose closed forms' roundoff each
meet an eighth of its tolerance takes K(t) + int G + the series, with no
batch entry.  1D data whose every nonzero profile vanishes outside [-R, R]
need no panel at |t| >= R either: there d'Alembert's wave is two
separated fronts about a plateau, and M^2 is linear in |t| (``_LinearLaw``).
Every other t, and all data with neither closed form (2D indicators, and
pairs at two centres), keeps its norm integrand.  ``norm_curve``,
``norm_sq_samples`` and the grid-free decay chain take their norm rows from
``norm_rows``, whose closed-form times are arrays and never batch entries;
the chain links keep the integrands.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import exp1, gammainc, j0

from .profiles import Profile, ProfilePair, ProfileError, _finite_time, _sphere_integral
from .quadrature import (
    OscillatoryIntegrand,
    QuadConfig,
    QuadResult,
    QuadratureError,
    integrate_batch,
    integrate_smooth,
    _settled,
    _NODES,
    _WEIGHTS,
)

__all__ = [
    "NormCurve",
    "norm_sq_samples",
    "l2_norm",
    "energy",
    "norm_curve",
    "moment_remainder",
    "moment_remainder_ratio",
]

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------- integrand
def _total(*parts):
    """The sum of the parts that are not None, left to right; None when every part is."""
    total = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


def _spectrum(a1=None, a0=None, cross=None):
    """rho -> (a1, a0, cross) from one callable per term, None for an absent term; None when every term is."""
    if a1 is None and a0 is None and cross is None:
        return None
    return lambda rho: tuple(None if f is None else f(rho) for f in (a1, a0, cross))


# |z| = |(kappa - i b) x| up to which ``_decay_integrals`` takes the
# 16-point Gauss-Legendre rule; above it the E1 forms or the series in b/kappa.
_NEAR = 5.0
_GL_U, _GL_W = 0.5 * (_NODES + 1.0), 0.5 * _WEIGHTS
# orders k of the series in r = b/kappa, and their signs: odd k build the
# sine integral, even k the cosine one
_ORDERS = np.arange(1.0, 57.0)
_SIGNS = np.where((_ORDERS - 1) // 2 % 2 == 0, 1.0, -1.0)
# relative roundoff charged to each closed-form part, a few times what
# tests/test_spectral.py measures against mpmath
_CLOSED_ULPS = 8.0


def _decay_integrals(b: float, x: float, kappa: float) -> tuple[float, float]:
    """int_0^x (1 - cos b rho) e^{-kappa rho} / rho and int_0^x sin(b rho) e^{-kappa rho} / rho, for b, x >= 0.

    With r = b/kappa, y = kappa x and z = (kappa - i b) x:
    * x infinite: (1/2) log1p(r^2) and arctan(r);
    * |z| <= 5: Gauss-Legendre on [0, x], the integrands entire there;
    * r <= 1/2: the series from expanding cos and sin, sum over k of +-r^k/k
      P(k, y), P the regularized lower incomplete gamma function;
    * otherwise Re Ein(z) - Ein(y) and -Im Ein(z), with Ein = E1 + log +
      gamma, the logarithms taken together as (1/2) log1p(r^2) when y > 2
      and Ein(y) by Gauss-Legendre below.
    Each branch keeps clear of the cancellations of the others.
    """
    if x == 0.0 or b == 0.0:
        return 0.0, 0.0
    r = b / kappa
    if math.isinf(x):
        return 0.5 * math.log1p(r * r), math.atan(r)
    y, bx = kappa * x, b * x
    z = math.hypot(y, bx)
    if z <= _NEAR:
        v = _GL_U * x
        decay, half = np.exp(-kappa * v) / v, np.sin(0.5 * b * v)
        return x * float(np.dot(_GL_W, 2.0 * half * half * decay)), x * float(np.dot(_GL_W, np.sin(b * v) * decay))
    if r <= 0.5:
        terms = _SIGNS * gammainc(_ORDERS, y) * r**_ORDERS / _ORDERS
        return float(terms[1::2].sum()), float(terms[0::2].sum())
    e = complex(exp1(complex(y, -bx)))
    if y > 2.0:
        cosine = e.real + 0.5 * math.log1p(r * r) - float(exp1(y))
    else:
        v = _GL_U * y
        cosine = e.real + math.log(z) + np.euler_gamma - y * float(np.dot(_GL_W, -np.expm1(-v) / v))
    return cosine, math.atan(r) - e.imag


@dataclass(frozen=True)
class _Singular:
    """The rho = 0 part of a norm integrand, integrated in closed form.

    rho^{n-3} a1 carries a1(0) phi_n(kappa rho) rho^{n-3} (1 - cos 2 t rho)/2
    and, in one dimension, rho^{-1} cross carries cross(0) e^{-kappa rho}
    sin(2 t rho)/rho; ``wave_integrands`` leaves both out of its amplitudes.
    """

    dimension: int
    kappa: float
    a1: float
    cross: float = 0.0

    def closed_form(self, x, omega) -> tuple[np.ndarray, np.ndarray]:
        """The integral of the part over [0, x] at frequency omega = 2t, and its roundoff, point by point.

        In 1D the a1 part integrates by parts into the sine integral:
        (1 + kappa rho) e^{-kappa rho} (1 - cos b rho)/rho^2 is the
        derivative of -e^{-kappa rho} (1 - cos b rho)/rho plus b sin(b rho)
        e^{-kappa rho}/rho.
        """
        value, error = [], []
        for end, b in zip(np.ravel(x).tolist(), np.ravel(omega).tolist()):  # one end at a time, on floats
            cosine, sine = _decay_integrals(b, end, self.kappa)
            edge = 0.0  # the boundary term of the 1D a1 part, 0 at the ends 0 and infinity
            if self.dimension == 1 and end != 0.0 and not math.isinf(end):
                edge = 2.0 * math.sin(0.5 * b * end) ** 2 * math.exp(-self.kappa * end) / end
            # the a1 part and, in 1D, the cross part, summed from 0.0 in order
            a1 = 0.5 * self.a1 * (cosine if self.dimension == 2 else b * sine - edge)
            cross = 0.0 if self.dimension == 2 else self.cross * sine
            value.append(0.0 + a1 + cross)
            error.append(_CLOSED_ULPS * sys.float_info.epsilon * (0.0 + abs(a1) + abs(cross)))
        return np.array(value), np.array(error)

    def tail(self, rho: float) -> float:
        """Upper bound for the absolute integral of the part beyond rho.

        In 1D, int_rho^inf (1 + kappa s) e^{-kappa s}/s^2 ds = e^{-kappa rho}/rho.
        """
        decay = math.exp(-self.kappa * rho) / rho
        if self.dimension == 2:
            return abs(self.a1) * decay / self.kappa
        return abs(self.a1) * decay + abs(self.cross) * decay / self.kappa


def wave_integrands(
    n: int, ts, width_hint, spectrum, singular: _Singular | None = None, components: int = 1
) -> list[OscillatoryIntegrand]:
    """rho^{n-1} [sin^2(t rho)/rho^2 a1 + cos^2(t rho) a0 + sin(2 t rho)/rho cross] at each t.

    ``spectrum(rho)`` gives (a1, a0, cross) at rho, None for an absent
    term; ``spectrum`` None is a spectrum of absent terms, and its
    integrands have no amplitudes (their integral is the closed form's
    alone, and a batch gives it without a panel).  With ``singular``, the a1 and cross it gives are the deficits
    a1 - a1(0) phi_n(kappa rho) and cross - cross(0) e^{-kappa rho}, and
    the reference parts are the integrands' closed form.  Without, a1 and
    cross must vanish at rho = 0 to the orders rho^(3-n) and rho^(2-n)
    that keep the amplitudes smooth.  The split into G + C cos(2 t rho) +
    S sin(2 t rho) does not depend on t, so every time shares one amplitude
    and one closed-form callable, and each calls ``spectrum`` once per
    sweep.  An absent term is left out of every sum, and a part made of
    absent terms only is None, so a batch never samples it.  x - y is x +
    (-y) bit for bit, so C = (a0 - a1)/2 has the bits of a sum with a
    negated term.  With ``components`` m > 1 the terms are (m, N) rows,
    such as several quadratic forms of one spectrum, and each t is one
    m-component integrand on one partition.
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

    closed_form = None if singular is None else singular.closed_form
    parts = None if spectrum is None else amplitudes
    return [
        OscillatoryIntegrand(
            omega=2.0 * t, amplitudes=parts, width_hint=width_hint, closed_form=closed_form, components=components
        )
        for t in ts
    ]


def field_integrands(ts, width_hint, amplitudes, components: int = 1) -> list[OscillatoryIntegrand]:
    """cos(t rho) C + sin(t rho) S at each t: the linear sibling of ``wave_integrands``.

    ``amplitudes(rho)`` gives (C, S), None for an absent part.  Integrands
    linear in w^ or dt w^, such as the values of a radial wave at given radii,
    carry the phase t rho itself rather than 2 t rho; every time shares
    the amplitude callable.  Their amplitudes carry the rho weights that
    absorb sin(t rho)/rho, so they are smooth at rho = 0 and need no
    closed-form part.  With
    ``components`` m > 1 the amplitudes are (m, N) rows, such as one row
    per radius of a radial field, and each t is one m-component integrand
    on one partition.
    """

    def split(rho):
        return (None, *amplitudes(rho))

    return [
        OscillatoryIntegrand(omega=t, amplitudes=split, width_hint=width_hint, components=components)
        for t in ts
    ]


# ------------------------------------------------------ large-t expansion
# Cramer's constant, rounded up: |H_j(x)| e^{-x^2/2} <= k 2^(j/2) sqrt(j!) for
# the Hermite polynomials H_j (Abramowitz & Stegun 22.14.17)
_CRAMER = 1.086435
# derivative orders of the large-t expansion: a remainder of order J = 1 .. 24
# after the terms of orders below J
_EXPANSION_ORDERS = 24
_FACTORIAL = np.array([float(math.factorial(i)) for i in range(_EXPANSION_ORDERS + 8)])
# |h_k| of x^p = sum_k h_k H_k(x), for the powers p of the terms below
_HERMITE_POWERS = [np.abs(np.polynomial.hermite.poly2herm([0.0] * p + [1.0])) for p in range(4)]
# upper bounds for int_0^inf |H_j(x)| e^{-x^2} dx, j = 0, 1, ...: Cramer's
# inequality against int_0^inf e^{-x^2/2} dx = sqrt(pi/2)
_HERMITE_L1 = _CRAMER * 2.0 ** (0.5 * np.arange(_FACTORIAL.size)) * np.sqrt(_FACTORIAL * (0.5 * math.pi))


def _phi_l1(q: int, i) -> np.ndarray:
    """int_0^inf |phi^(i)(y)| dy for i >= 1, phi the reference shape over rho^q: e^{-y} (q = 1),
    whose derivatives all have norm 1, or (1 + y) e^{-y} (q = 2), whose i-th derivative is
    (-1)^i (y - i + 1) e^{-y}, of norm i - 2 + 2 e^{1-i}."""
    i = np.asarray(i, dtype=float)
    return np.ones(i.shape) if q == 1 else i - 2.0 + 2.0 * np.exp(1.0 - i)


def _gauss_taylor(beta: float, count: int) -> np.ndarray:
    """The Taylor coefficients of exp(-beta rho^2) at rho = 0, of rho^0 .. rho^(count - 1)."""
    out = np.zeros(count)
    k = np.arange((count + 1) // 2)
    out[::2] = (-beta) ** k / _FACTORIAL[k]
    return out


def _phi_taylor(q: int, kappa: float, count: int) -> np.ndarray:
    """The Taylor coefficients of phi(kappa rho) at rho = 0: (-kappa)^i / i!, times 1 - i for (1 + y) e^{-y}."""
    i = np.arange(count)
    out = (-kappa) ** i / _FACTORIAL[i]
    return out if q == 1 else out * (1.0 - i)


@dataclass(frozen=True)
class _Term:
    """c rho^p exp(-beta rho^2), or with q > 0 c (exp(-beta rho^2) - phi(kappa rho)) / rho^q.

    Each part of a norm integrand's amplitudes for gaussian data is one of
    these: phi is the reference shape of ``_Singular``, e^{-y} for q = 1 and
    (1 + y) e^{-y} for q = 2, so the quotient is smooth at rho = 0.
    """

    c: float
    beta: float
    p: int = 0
    q: int = 0
    kappa: float = 0.0

    def derivatives(self, count: int) -> np.ndarray:
        """f^(j)(0) for j < count: j! times the Taylor coefficient of rho^j."""
        if self.q:
            series = _gauss_taylor(self.beta, count + self.q) - _phi_taylor(self.q, self.kappa, count + self.q)
            coef = series[self.q :]
        else:
            coef = np.concatenate((np.zeros(self.p), _gauss_taylor(self.beta, count)))[:count]
        return self.c * coef * _FACTORIAL[:count]

    def l1(self, orders: np.ndarray) -> np.ndarray:
        """Upper bounds for int_0^inf |f^(J)| drho at the orders J >= 1.

        With x = sqrt(beta) rho, x^p = sum_k h_k H_k(x) and d^J/dx^J (H_k(x)
        e^{-x^2}) = (-1)^J H_{J+k}(x) e^{-x^2}, so int |(rho^p e^{-beta
        rho^2})^(J)| <= beta^((J - 1 - p)/2) sum_k |h_k| B_{J+k} with B the
        Hermite bound ``_HERMITE_L1``.  A quotient f = g / rho^q, whose g
        vanishes at 0 to order q, is f^(J) = int_0^1 (1 - s)^(q-1) s^J
        g^(J+q)(s rho) ds, so int |f^(J)| <= int |g^(J+q)| / J for q = 1 and
        / (J (J + 1)) for q = 2; the norms of g's two parts add.
        """
        c, beta = abs(self.c), self.beta
        if self.q:
            i = orders + self.q
            g = c * (beta ** (0.5 * (i - 1)) * _HERMITE_L1[i] + self.kappa ** (i - 1.0) * _phi_l1(self.q, i))
            return g / (orders if self.q == 1 else orders * (orders + 1.0))
        h = _HERMITE_POWERS[self.p]
        return c * beta ** (0.5 * (orders - 1 - self.p)) * sum(hk * _HERMITE_L1[orders + k] for k, hk in enumerate(h))

    def integral(self) -> tuple[float, float]:
        """int_0^inf f drho, and the size of its parts that its roundoff is charged on.

        c Gamma((p + 1)/2) / (2 beta^((p + 1)/2)); for q = 1, c (gamma/2 +
        log(kappa / sqrt(beta))) (Frullani's integral); for q = 2, c (kappa -
        sqrt(pi beta)).  The two parts of the last two can cancel, so the
        size is |c| times the sum of their sizes, not the integral's.
        """
        if self.q == 1:
            parts = 0.5 * np.euler_gamma, math.log(self.kappa / math.sqrt(self.beta))
        elif self.q == 2:
            parts = self.kappa, -math.sqrt(math.pi * self.beta)
        else:
            a = 0.5 * (self.p + 1)
            parts = (math.gamma(a) / (2.0 * self.beta**a),)
        return self.c * sum(parts), abs(self.c) * sum(abs(part) for part in parts)


@dataclass(frozen=True)
class _Expansion:
    """The large-t expansion of a norm integrand's oscillatory part, int_0^inf C cos(omega rho) + S sin(omega rho) drho.

    With f = C - i S, J integrations by parts (Erdelyi, *Asymptotic
    Expansions*, 1956, 2.8; Wong, *Asymptotic Approximations of Integrals*,
    1989, Ch. I) give

        int_0^inf f e^{i omega rho} = sum_{j<J} (i/omega)^(j+1) f^(j)(0) + (i/omega)^J int_0^inf f^(J) e^{i omega rho},

    whose real part is the oscillatory part: (-1)^((j+1)/2) C^(j)(0) /
    omega^(j+1) at odd j, (-1)^(j/2) S^(j)(0) / omega^(j+1) at even j, and a
    remainder at most int |C^(J)| + |S^(J)| over |omega|^J.  cos is even in
    omega and sin odd, so the terms take |omega| and the S terms its sign.
    ``odd`` and ``even`` hold the signed derivatives of C and S, ``l1`` the
    bounds at J = 1, 2, ..., ``mean`` the closed form of int_0^inf G and
    ``mean_error`` its roundoff.
    """

    odd: np.ndarray
    even: np.ndarray
    l1: np.ndarray
    mean: float
    mean_error: float

    def at(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The series and its remainder at each omega, summed over as many terms as still shrink the remainder.

        Each omega's sum is its own row of elementwise operations, so it
        does not depend on the other frequencies.
        """
        w = np.abs(omega)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            power = w[:, None] ** np.arange(1.0, self.l1.size + 1.0)
            remainder = self.l1 / power
            terms = (self.odd + np.sign(omega)[:, None] * self.even) / power
            shrinks = remainder[:, 1:] < remainder[:, :-1]
        stop = np.where(shrinks.all(axis=1), self.l1.size - 1, shrinks.argmin(axis=1))
        rows = np.arange(w.size)
        return np.cumsum(terms, axis=1)[rows, stop], remainder[rows, stop]


def _expansion(n: int, u1: Profile, u0: Profile, singular: _Singular | None) -> _Expansion | None:
    """The large-t expansion of a pair's norm integrand; None unless every nonzero profile is gaussian and they share a centre.

    With h^ = g(0) e^{-beta rho^2} xi_1^m e^{-i xi.c} (``Profile.polar_gaussian``)
    a1 and a0 are c rho^(2m) e^{-2 beta rho^2}; in 1D the cross term is
    2 Re(g1(0) conj g0(0)) rho^(m1 + m0) e^{-(beta1 + beta0) rho^2}, in 2D
    the sphere integral of that product for m1 = m0 and 0 otherwise.
    C = (rho^(n-1) a0 - rho^(n-3) a1)/2, G = (rho^(n-1) a0 + rho^(n-3) a1)/2
    and S = rho^(n-2) cross, each less the reference part of ``singular``.
    """
    profiles = [p for p in (u1, u0) if not p.is_zero]
    if any(p.polar_gaussian() is None for p in profiles) or len({p.center for p in profiles}) > 1:
        return None
    q, a1, a0, sin_terms = 3 - n, [], [], []
    if not u1.is_zero:
        (g1, b1), (m1, _) = u1.polar_gaussian(), u1.polar_factor()
        c1 = -0.5 * _sphere_integral(n, m1, abs(g1) ** 2, 1.0)
        a1 = [_Term(c1, 2.0 * b1, q=q, kappa=singular.kappa) if m1 == 0 else _Term(c1, 2.0 * b1, p=2 * m1 - q)]
    if not u0.is_zero:
        (g0, b0), (m0, _) = u0.polar_gaussian(), u0.polar_factor()
        a0 = [_Term(0.5 * _sphere_integral(n, m0, abs(g0) ** 2, 1.0), 2.0 * b0, p=2 * m0 + n - 1)]
    if a1 and a0:
        product = (g1 * np.conj(g0)).real
        if n == 1 and m1 + m0 == 0:
            sin_terms = [_Term(2.0 * product, b1 + b0, q=1, kappa=singular.kappa)]
        elif n == 1:
            sin_terms = [_Term(2.0 * product, b1 + b0, p=m1 + m0 - 1)]
        elif m1 == m0:
            sin_terms = [_Term(_sphere_integral(2, m1, product, 1.0), b1 + b0, p=2 * m1)]
    j, orders = np.arange(_EXPANSION_ORDERS), np.arange(1, _EXPANSION_ORDERS + 1)
    sign = np.where((j + 1) // 2 % 2 == 0, 1.0, -1.0)
    dc, ds = (sum((t.derivatives(j.size) for t in terms), np.zeros(j.size)) for terms in (a1 + a0, sin_terms))
    # int G = int a0 part - int a1 part, each its value and the size of its parts
    (g0, size0), (g1, size1) = (sum((np.array(t.integral()) for t in terms), np.zeros(2)) for terms in (a0, a1))
    return _Expansion(
        np.where(j % 2 == 1, sign * dc, 0.0),
        np.where(j % 2 == 0, sign * ds, 0.0),
        sum((t.l1(orders) for t in a1 + a0 + sin_terms), np.zeros(orders.size)),
        float(g0 - g1),
        _CLOSED_ULPS * sys.float_info.epsilon * float(size0 + size1),
    )


# ------------------------------------------------- compact support in 1D
@dataclass(frozen=True)
class _LinearLaw:
    """d'Alembert's exact law of M^2(t) for 1D data that vanish outside [-R, R], once |t| >= R.

    The wave is then two separated travelling fronts about a plateau of
    height P/2, so

        M^2(t) = P^2 |t| / 2 + ||u0||^2 / 2 + sign(t) P Q / 2 + int (V^2 - P^2/4) / 2

    with P = int u1, Q = int u0 and V(x) = int_{-inf}^x u1 - P/2
    (``Profile.plateau_deficit``).  On the Fourier side: the transforms are
    entire of exponential type R (Paley-Wiener), so cos 2 t rho annihilates
    the entire part of the norm integrand once 2|t| >= 2R, and only the
    rho = 0 pole's linear term is left.  ``parts`` are the four terms times
    2 pi, the first per unit |t|.
    """

    radius: float
    parts: tuple[float, float, float, float]

    def at(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """2 pi M^2 at each t, its remainder (0 where |t| >= R, infinite below) and its roundoff.

        The roundoff is ``_CLOSED_ULPS`` eps times the summed sizes of the
        four parts, since the P Q and deficit parts can cancel the others.
        """
        slope, position, mixed, deficit = self.parts
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or nan, which fails the check
            linear = slope * np.abs(ts)
            value = linear + position + mixed * np.sign(ts) + deficit
            size = linear + abs(position) + abs(mixed) + abs(deficit)
        remainder = np.where(np.abs(ts) >= self.radius, 0.0, math.inf)
        return value, remainder, _CLOSED_ULPS * sys.float_info.epsilon * size


def _linear_law(n: int, u1: Profile, u0: Profile) -> _LinearLaw | None:
    """The linear law of a pair's M^2 past its support; None unless the pair is 1D and every profile vanishes outside a finite radius.

    P and Q are g(0) of each profile's ``polar_factor``, the integral of
    the profile, and a zero profile has radius, integral and deficit 0.
    """
    radius = max(u1.support_radius(), u0.support_radius()) if n == 1 else math.inf
    if math.isinf(radius):
        return None
    p, q = u1._g0.real, u0._g0.real
    return _LinearLaw(radius, (math.pi * p * p, math.pi * u0.l2_sq(), math.pi * p * q, math.pi * u1.plateau_deficit()))


# --------------------------------------------------------------- reduction
@dataclass(frozen=True)
class _ReducedSpectrum:
    """A pair's sphere-integrated amplitudes as functions of rho = |xi|, built by ``reduce_pair``.

    ``a1`` is u1's squared sphere average less the reference part of
    ``singular`` (``Profile.sq_ft_sphere_deficit``: the average itself
    where it vanishes at 0) and ``a0`` is u0's, None for a zero profile.
    ``spectrum`` gives (a1, a0, cross) in one call, the cross term less
    its reference part in 1D and None when either profile is zero (and
    ``spectrum`` is None for a zero pair);
    ``singular`` is None where a1(0) = 0.  Every integrand of the pair
    shares the one ``width_hint``.
    """

    dimension: int
    u1: Profile
    u0: Profile
    width_hint: Callable[[float], float]
    a1: Callable[[np.ndarray], np.ndarray] | None
    a0: Callable[[np.ndarray], np.ndarray] | None
    spectrum: Callable[[np.ndarray], tuple] | None
    singular: _Singular | None

    @functools.cached_property
    def expansion(self) -> _Expansion | None:
        """The large-t expansion of the norm integrand, None for data without one; built on first use."""
        return _expansion(self.dimension, self.u1, self.u0, self.singular)

    @functools.cached_property
    def law(self) -> _LinearLaw | None:
        """The linear law of M^2 past the support, None for data without one; built on first use."""
        return _linear_law(self.dimension, self.u1, self.u0)

    def tail(self, rho: float) -> float:
        """Upper bound for the truncated part of the norm integrand's amplitudes beyond rho.

        The reference part is the integrand's closed form, so the
        amplitudes' tail is the integrand's plus that part's.
        """
        n = self.dimension
        t1 = self.u1.sq_ft_sphere_tail(rho, n - 3)
        t0 = self.u0.sq_ft_sphere_tail(rho, n - 1)
        # an infinite tail against a zero one: inf * 0 is nan
        cross = math.inf if math.isinf(t1 + t0) else math.sqrt(t1 * t0)
        return t1 + t0 + cross + (0.0 if self.singular is None else self.singular.tail(rho))

    def integrands(self, ts) -> list[OscillatoryIntegrand]:
        """The norm integrand |w^(t, .)|^2 at each t."""
        return wave_integrands(self.dimension, ts, self.width_hint, self.spectrum, self.singular)

    def _closed_forms(self, ts: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M^2 at each t in closed form, its remainder and its roundoff; an infinite remainder for data with neither.

        Compactly supported 1D data take the linear law (``law``), whose
        remainder is 0 past the support and infinite below it; gaussian
        data take K(t) + int_0^inf G + the expansion of int C cos 2 t rho +
        S sin 2 t rho (``expansion``).
        """
        if self.law is not None:
            return self.law.at(ts)
        expansion = self.expansion
        if expansion is None:
            return np.zeros(ts.size), np.full(ts.size, math.inf), np.zeros(ts.size)
        series, remainder = expansion.at(omega)
        closed, closed_err = (np.zeros(ts.size),) * 2 if self.singular is None else self.singular.closed_form(
            np.full(ts.size, math.inf), omega
        )
        return closed + expansion.mean + series, remainder, closed_err + expansion.mean_error

    def norm_rows(self, ts, cfg: QuadConfig | None = None) -> tuple[list[OscillatoryIntegrand], tuple[np.ndarray, ...]]:
        """The batch entries of the norm at the times ``ts``, and (taken, value, error): the times taken in closed form.

        A t takes M^2 from its closed form (``_closed_forms``), with no entry
        of its own, when the remainder and the roundoff each meet an eighth
        of max(abs_tol, rel_tol |M^2|): its error, their sum, meets a
        quarter, as a Filon entry's indicator does, and it has no panel.
        ``taken`` masks those times, where ``value`` and ``error`` hold M^2
        and its error; elsewhere they hold placeholders for the caller to
        overwrite.  Every other t keeps its norm integrand (``integrands``),
        as every t of data without a closed form does; the entries, in the
        order of their times, are integrated over [0, inf) with ``tail``.
        """
        cfg, ts = cfg or QuadConfig(), np.asarray(ts, dtype=float)
        with np.errstate(over="ignore"):  # an overflow is inf
            omega = 2.0 * ts
        value, remainder, roundoff = self._closed_forms(ts, omega)
        eighth = 0.125 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        # a time whose frequency or value overflows keeps its integrand, which rejects it
        taken = (remainder <= eighth) & (roundoff <= eighth) & np.isfinite(omega) & np.isfinite(roundoff)
        return self.integrands(ts[~taken].tolist()), (taken, value, remainder + roundoff)

    def terms(self, t: float) -> tuple[tuple[OscillatoryIntegrand, Callable], tuple[OscillatoryIntegrand, Callable]]:
        """The A1 term and the A0 term of the norm integrand alone at t, each with its tail bound.

        The A1 term carries the closed form of a1(0), not the cross term's.
        """
        n, hint = self.dimension, self.width_hint
        s = None if self.singular is None else _Singular(n, self.singular.kappa, self.singular.a1)
        (a1,) = wave_integrands(n, [t], hint, _spectrum(a1=self.a1), s)
        (a0,) = wave_integrands(n, [t], hint, _spectrum(a0=self.a0))
        a1_tail = lambda rho: self.u1.sq_ft_sphere_tail(rho, n - 3) + (0.0 if s is None else s.tail(rho))
        return (a1, a1_tail), (a0, lambda rho: self.u0.sq_ft_sphere_tail(rho, n - 1))


def _pair_hint(u0, u1):
    """The smaller of the two profiles' panel-width hints, a float for a float."""
    return lambda rho: min(u0.ft_width_hint(rho), u1.ft_width_hint(rho))


def reduce_pair(pair: ProfilePair) -> _ReducedSpectrum:
    """Build the angular reduction of a pair's transforms h^ = g(|xi|) xi_1^m e^{-i xi.c}.

    The amplitude of a zero profile, and the cross term when either
    profile is zero, is None: a batch never computes it.  A velocity with
    a nonzero mean puts the reference part of a1 (and in 1D of the cross
    term) in closed form (``_Singular``), and the width hint then also
    resolves phi_n(kappa rho) near 0, at most 2/kappa there and growing
    geometrically beyond.  A 2D pair with both profiles nonzero samples
    each radial factor g once per point for all three terms: for two m = 0
    transforms at centres d apart the cross term is the sphere average
    2 pi J0(rho d) Re(g1 conj g0) (Jacobi-Anger, DLMF 10.12.1), whose
    oscillation the adaptive panels resolve from the data's width hint;
    for orders 0 and 1 at one centre it vanishes.  An m = 1 transform
    against a shifted profile needs Graf's J1 term and is rejected.
    """
    n, u0, u1 = pair.dimension, pair.u0, pair.u1
    a1 = None if u1.is_zero else u1.sq_ft_sphere_deficit
    a0 = None if u0.is_zero else u0.sq_ft_sphere
    a1_0, kappa = u1.sq_ft_sphere_origin()
    cross_0, spectrum = 0.0, _spectrum(a1, a0)
    both = not (u0.is_zero or u1.is_zero)
    # a zero profile hints an infinite width, and min(inf, w) is w
    data_hint = _pair_hint(u0, u1) if both else (u1 if u0.is_zero else u0).ft_width_hint
    if both and n == 1:

        def cross(rho):
            rho = np.asarray(rho, float)
            return 2.0 * np.real(u1.ft(rho) * np.conj(u0.ft(rho)))

        cross_0 = 0.0 if a1_0 == 0.0 else float(cross(np.zeros(1))[0])

        def cross_rest(rho):
            rho = np.asarray(rho, float)
            return cross(rho) if a1_0 == 0.0 else cross(rho) - cross_0 - cross_0 * np.expm1(-kappa * rho)

        spectrum = _spectrum(a1, a0, cross_rest)
    elif both:
        (m1, g1), (m0, g0) = u1.polar_factor(), u0.polar_factor()
        d = math.dist(u1.center, u0.center)
        if d and (m1 or m0):
            raise ProfileError(
                f"a 2D pair of {(u1 if m1 else u0).kind} and a profile at another center has no reduced "
                "cross term (it needs Graf's J1 term); shift both profiles to a common center"
            )

        def spectrum(rho):
            """(a1, a0, cross) with g1 and g0 sampled once per point, by the formulas of a1, a0 and cross."""
            rho = np.asarray(rho, float)
            v1, v0 = g1(rho), g0(rho)
            a1_rest = _sphere_integral(2, m1, np.abs(v1) ** 2, rho) if a1_0 == 0.0 else a1(rho)
            # odd in the angle against even (m1 != m0): the sphere average vanishes
            overlap = np.real(v1 * np.conj(v0)) * (j0(d * rho) if d else 1.0)
            cross = None if m1 != m0 else _sphere_integral(2, m1, overlap, rho)
            return a1_rest, _sphere_integral(2, m0, np.abs(v0) ** 2, rho), cross

    singular = None if a1_0 == 0.0 else _Singular(n, kappa, a1_0, cross_0)
    if singular is None:
        hint = data_hint
    else:
        hint = lambda rho: min(data_hint(rho), 2.0 / kappa + 0.5 * rho)
    return _ReducedSpectrum(n, u1, u0, hint, a1, a0, spectrum, singular)


def _norm_samples(pair: ProfilePair, ts, cfg: QuadConfig | None):
    """``ts`` as a checked array, (taken, value, error) of ``norm_rows`` and the batch results of the other times.

    A zero pair is 0 in closed form; a pair with every t in closed form makes no batch."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        _finite_time(ts[~np.isfinite(ts)][0])  # raises the ValueError naming the first
    if pair.is_zero:
        return ts, (np.ones(ts.size, dtype=bool), np.zeros(ts.size), np.zeros(ts.size)), []
    red = reduce_pair(pair)
    integrands, closed = red.norm_rows(ts, cfg)
    return ts, closed, integrate_batch(integrands, 0.0, math.inf, cfg, tail_bound=red.tail) if integrands else []


def norm_sq_samples(pair: ProfilePair, ts, cfg: QuadConfig | None = None) -> list[QuadResult | QuadratureError]:
    """int of |w^(t, xi)|^2 dxi over R^n (Fourier side, no 2 pi) at every t, as one batch.

    A t that fails holds its QuadratureError; a nan or infinite t raises
    ValueError before any integration.  A t taken in closed form has 0 panels.

    Each t keeps its own adaptive partition, so its entry does not depend
    on which other times share the batch.
    """
    _, (taken, value, error), filon = _norm_samples(pair, ts, cfg)
    filon = iter(filon)
    return [QuadResult(v, e, 0) if took else next(filon) for took, v, e in zip(taken.tolist(), value.tolist(), error.tolist())]


def l2_norm(pair: ProfilePair, t: float, cfg: QuadConfig | None = None) -> float:
    """Physical M(t) = ||u(t, .)||_{L2(R^n)} via Plancherel."""
    (res,) = _settled(norm_sq_samples(pair, [t], cfg))
    return math.sqrt(max(res.value, 0.0)) / (TWO_PI ** (pair.dimension / 2.0))


# ------------------------------------------------------------------ energy
def energy(pair: ProfilePair, cfg: QuadConfig | None = None) -> QuadResult:
    """Physical energy E = (1/2)(||dt u||^2 + ||grad u||^2) of the free wave, the same at every time.

    By cos^2 + sin^2 = 1, |dt w^|^2 + |xi|^2 |w^|^2 = |u1^|^2 + |xi|^2 |u0^|^2
    at every t and xi, so E(t) = E(0) = (1/2) (2 pi)^{-n} int_0^inf rho^{n-1}
    (A1 + rho^2 A0) drho, one smooth integral on the engine with no cross
    term.  Its value and error are in physical units; a spectrum whose
    tail the panel budget cannot reach raises the QuadratureError.
    """
    if pair.is_zero:
        return QuadResult(0.0, 0.0, 0)
    n, u0, u1 = pair.dimension, pair.u0, pair.u1
    if not u0.in_h1:
        raise ProfileError("energy integrand diverges: initial position is not in H1")

    def density(rho):
        rho = np.asarray(rho, float)
        return rho ** (n - 1) * (u1.sq_ft_sphere(rho) + rho * rho * u0.sq_ft_sphere(rho))

    def tail(rho):
        return u1.sq_ft_sphere_tail(rho, n - 1) + u0.sq_ft_sphere_tail(rho, n + 1)

    res = integrate_smooth(density, 0.0, math.inf, cfg, _pair_hint(u0, u1), tail)
    scale = 0.5 / TWO_PI**n
    return QuadResult(res.value * scale, res.error * scale, res.panels)


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
    """M(t) at every t, the times without a closed form integrated as one batch; raises the error of the earliest failing t."""
    ts, (taken, value, error), filon = _norm_samples(pair, ts, cfg)
    results = _settled(filon)
    value[~taken], error[~taken] = [res.value for res in results], [res.error for res in results]
    return NormCurve(pair.dimension, ts, value, error)


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
