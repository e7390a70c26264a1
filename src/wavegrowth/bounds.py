"""Explicit two-sided envelopes for the L2 norm of a free wave.

Everything here is closed form in the data norms: no quadrature enters an
envelope, only the verification helpers that compare each chain link
against its numerically integrated counterpart.  The chains bound the
Fourier-side quantity

    int_{R^n} |w^(t, xi)|^2 dxi   (frequency split at |xi| = delta0 / t)

from below through the mean of the velocity and from above through L1 and
L2 norms of the data.  Plancherel's (2 pi)^n converts to the physical
norm; that conversion is always left to the caller so the two sides of
the identity never mix silently.

Validity windows: the upper chain needs t > 1 in one dimension and
t >= e in two; the two-dimensional lower chain needs t > 5 pi / 4.  The
builders refuse to extrapolate outside these windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .profiles import DataNorms, ProfilePair, moments, unit_sphere_measure
from .quadrature import QuadConfig, QuadResult, integrate_oscillatory, integrate_smooth
from .spectral import ProofConstants, _spectrum, reduce_pair, wave_integrands

__all__ = [
    "BoundBreakdown",
    "TermChecks",
    "SandwichReport",
    "SandwichError",
    "envelopes",
    "lower_time_threshold",
    "trick_T",
    "trick_T_lower",
    "kappa1",
    "term_checks",
    "sandwich_report",
    "upper_constant",
]

TWO_PI = 2.0 * math.pi
_E = math.e
# |h^(xi) - h^(0)| <= MOMENT_COEFF |xi| int |x| |h| dx
MOMENT_COEFF = math.sqrt(2.0)


class SandwichError(AssertionError):
    """An envelope failed against its measured term; the message names it."""


@dataclass(frozen=True)
class BoundBreakdown:
    """All envelope terms at one time, lower chain then upper chain.

    ``final_lb`` can be negative at small times; ``t_star`` is the time
    beyond which it stays above ``Ilow_lb``, the clean threshold form
    worth half the main term.  ``O_terms`` lists the high-frequency
    velocity pieces in increasing frequency order (two in 1D, three in 2D).
    """

    dimension: int
    t: float
    K1_lb: float
    K2_ub: float
    J1_lb: float
    J2_ub: float
    Ilow_lb: float
    final_lb: float
    t_star: float
    L1_ub: float
    L2_ub: float
    Ilow_ub: float
    O_terms: tuple[float, ...]
    N1_ub: float
    N2_ub: float
    Ihigh_ub: float
    final_ub: float
    T_lb: float | None = None


def _require_moment_norm(norms: DataNorms):
    if norms.l11_u1 is None:
        raise ValueError("lower envelope needs the weighted L1 norm of the velocity")


def lower_time_threshold(norms: DataNorms, dimension: int) -> float:
    """Smallest time from which the lower envelope retains half its main term.

    Closed form in both dimensions; infinite when the velocity has zero
    mean, in which case the lower chain is vacuous at every time.
    """
    _require_moment_norm(norms)
    p = norms.mean_u1
    if p == 0.0:
        return math.inf
    msq = MOMENT_COEFF**2
    if dimension == 1:
        val = math.sqrt(32.0 * (msq * norms.l11_u1**2 + norms.l1_u0**2)) / abs(p)
        return max(val, 1.0)
    errors = (unit_sphere_measure(2) / 4.0) * msq * norms.l11_u1**2 + TWO_PI**2 * norms.l2_u0**2
    exponent = 16.0 * _E * errors / (math.pi * p * p)
    if exponent > 700.0:
        return math.inf
    return max((5.0 * math.pi / 4.0) * math.exp(exponent), _E)


def trick_T_lower(t: float) -> float:
    """Explicit lower bound for the Gaussian-window frequency integral.

    Valid for t > 5 pi / 4; grows like (pi / 2e) log t.
    """
    if t <= 5.0 * math.pi / 4.0:
        raise ValueError("the logarithmic lower bound needs t > 5 pi / 4")
    return unit_sphere_measure(2) * (math.exp(-1.0) / 4.0) * (math.log(t) + math.log(4.0) - math.log(5.0 * math.pi))


def trick_T(t: float, cfg: QuadConfig | None = None) -> QuadResult:
    """T(t) = 2 pi int_0^inf e^{-r^2} sin^2(t r) / r dr by quadrature."""
    window = lambda r: TWO_PI * np.exp(-r * r)
    hint = lambda r: 2.0 / (np.asarray(r, float) + 2.0)
    tail = lambda rc: (TWO_PI / rc) * math.sqrt(math.pi / 2.0) * math.exp(-rc * rc / 2.0)
    (integrand,) = wave_integrands(2, [float(t)], hint, _spectrum(a1=window))
    return integrate_oscillatory(integrand, 0.0, math.inf, cfg, tail_bound=tail)


@functools.cache
def kappa1(dimension: int, delta0: float, cfg: QuadConfig | None = None) -> float:
    """int_0^{delta0} sin^2(s) s^{dimension - 3} ds.

    It does not depend on t, so each (dimension, delta0, cfg) is
    integrated once and every later sandwich takes the remembered value.
    """
    n = dimension

    def f(s):
        s = np.asarray(s, float)
        return np.sinc(s / math.pi) ** 2 * s ** (n - 1)

    return integrate_smooth(f, 0.0, delta0, cfg, width_hint=lambda s: np.full(np.shape(s), 0.1)).value


def envelopes(norms: DataNorms, t: float, dimension: int, consts: ProofConstants | None = None) -> BoundBreakdown:
    """Closed-form lower and upper chains at time t from the data norms."""
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    consts = consts or ProofConstants()
    n = dimension
    t = float(t)
    if n == 1 and t <= 1.0:
        raise ValueError("1D envelopes need t > 1")
    if n == 2 and t < _E:
        raise ValueError("2D envelopes need t >= e")
    _require_moment_norm(norms)
    d0 = consts.delta0
    omega = unit_sphere_measure(n)
    msq = MOMENT_COEFF**2
    p = norms.mean_u1
    l11 = norms.l11_u1
    vol_low = omega * d0**n / n  # measure of the low ball over t^n

    # ----- lower chain
    # sin s / s >= 1/2 on (0, delta0] for every delta0 < 1, squared: the 1/4
    K1_lb = (omega * d0**n / (4.0 * n)) * t ** (2 - n)
    K2_ub = msq * vol_low * l11**2 * t ** (-n)
    J1_lb = 0.5 * p * p * K1_lb - K2_ub
    J2_ub = vol_low * norms.l1_u0**2 * t ** (-n)
    Ilow_lb = (p * p / (32.0 * n)) * omega * d0**n * t ** (2 - n)
    t_star = lower_time_threshold(norms, n)
    if n == 1:
        final_lb = 0.25 * p * p * K1_lb - msq * omega * d0 * l11**2 / t - omega * d0 * norms.l1_u0**2 / t
        T_lb = None
    else:
        # below the corner of the logarithmic bound the trick integral is
        # still nonnegative, so zero keeps the lower chain valid (vacuous)
        T_lb = trick_T_lower(t) if t > 5.0 * math.pi / 4.0 else 0.0
        final_lb = 0.25 * p * p * T_lb - (omega / 4.0) * msq * l11**2 - TWO_PI**2 * norms.l2_u0**2

    # ----- upper chain
    # |sin s| <= |s| on the low ball
    L1_ub = vol_low * norms.l1_u1**2 * t ** (2 - n)
    L2_ub = J2_ub
    Ilow_ub = 2.0 * L1_ub + 2.0 * L2_ub
    N2_ub = TWO_PI**n * norms.l2_u0**2
    if n == 1:
        O1 = (t / d0**2) * TWO_PI * norms.l2_u1**2
        O2 = (omega / d0) * norms.l1_u1**2 * (t - math.sqrt(t))
        O_terms = (O1, O2)
    else:
        lg = math.log(t)
        O1 = (lg / d0**2) * TWO_PI**2 * norms.l2_u1**2
        O2 = omega * norms.l1_u1**2 * 0.5 * (lg - math.log(lg))
        O3 = omega * norms.l1_u1**2 * 0.5 * lg
        O_terms = (O1, O2, O3)
    N1_ub = sum(O_terms)
    Ihigh_ub = 2.0 * N1_ub + 2.0 * N2_ub
    final_ub = Ilow_ub + Ihigh_ub

    return BoundBreakdown(
        dimension=n,
        t=t,
        K1_lb=K1_lb,
        K2_ub=K2_ub,
        J1_lb=J1_lb,
        J2_ub=J2_ub,
        Ilow_lb=Ilow_lb,
        final_lb=final_lb,
        t_star=t_star,
        L1_ub=L1_ub,
        L2_ub=L2_ub,
        Ilow_ub=Ilow_ub,
        O_terms=O_terms,
        N1_ub=N1_ub,
        N2_ub=N2_ub,
        Ihigh_ub=Ihigh_ub,
        final_ub=final_ub,
        T_lb=T_lb,
    )


def upper_constant(norms: DataNorms, ts: Sequence[float], consts: ProofConstants | None = None) -> float:
    """Smallest C with final_ub <= C^2 (2 pi)^2 I^2 log t over the given times.

    Two-dimensional only; I is the combined L1 + L2 size of the data.
    """
    consts = consts or ProofConstants()
    best = 0.0
    for t in ts:
        bb = envelopes(norms, float(t), 2, consts)
        best = max(best, math.sqrt(bb.final_ub / (TWO_PI**2 * norms.i0n**2 * math.log(t))))
    return best


# ----------------------------------------------------------- measured terms
@dataclass(frozen=True)
class TermChecks:
    """Numerically integrated values of every chain link at one time."""

    dimension: int
    t: float
    K1: float
    K2: float
    J1: float
    J2: float
    Ilow: float
    O_parts: tuple[float, ...]
    N1: float
    N2: float
    Ihigh: float
    total: float
    T: float | None = None


def _mean_deviation_sq(p):
    """rho -> int_{S^{n-1}} |h^(rho w) - h^(0)|^2 dw, cancellation free.

    The difference h^ - mean is formed before squaring; squaring first and
    subtracting loses ten digits near rho = 0 where the deviation is
    O(rho^2) against an O(1) mean.
    """
    from .profiles import bessel_j

    if p.dimension == 1:
        mean = complex(p.ft(0.0))

        def dev1(rho):
            return 2.0 * np.abs(p.ft(np.asarray(rho, float)) - mean) ** 2

        return dev1
    m, g = p.polar_factor()
    if m != 0:
        # odd profiles have zero mean; the deviation is the amplitude itself
        return p.sq_ft_sphere
    mean = complex(g(np.asarray(0.0)))
    shift = math.hypot(*p.center)

    def dev2(rho):
        rho = np.asarray(rho, float)
        base = TWO_PI * np.abs(g(rho) - mean) ** 2
        if shift == 0.0:
            return base
        # shifted profile: the phase contributes 2 |mean| Re(g) (1 - J0(rho |c|))
        extra = 2.0 * TWO_PI * mean.real * np.real(g(rho)) * (1.0 - bessel_j(0, rho * shift))
        return base + extra

    return dev2


def term_checks(pair: ProfilePair, t: float, consts: ProofConstants | None = None, cfg: QuadConfig | None = None) -> TermChecks:
    """Measure every chain link by quadrature at one time.

    The links integrate four integrands over blocks of the frequency split:
    the A1 part (J1, O pieces, N1), the velocity's deviation from its mean
    (K2), the A0 part (J2, N2) and the norm (Ilow, Ihigh, total).  Each
    row of the table is an integration of its own, in table order, so the
    first link that fails is the one raised, and N1, Ihigh and total are
    integrated, not summed from pieces, so the additivity checks can fail.
    """
    consts = consts or ProofConstants()
    n = pair.dimension
    t = float(t)
    cut = consts.low_cut(t)
    if n == 1 and t <= 1.0:
        raise ValueError("1D term checks need t > 1")
    if n == 2 and t < _E:
        raise ValueError("2D term checks need t >= e")
    d0 = consts.delta0
    K1 = unit_sphere_measure(n) * t ** (2 - n) * kappa1(n, d0, cfg)

    red = reduce_pair(pair)
    (a1,) = wave_integrands(n, [t], red.width_hint, _spectrum(a1=red.a1))
    (a0,) = wave_integrands(n, [t], red.width_hint, _spectrum(a0=red.a0))
    (k2,) = wave_integrands(n, [t], red.width_hint, _spectrum(a1=_mean_deviation_sq(red.u1)))
    (norm,) = red.integrands([t])
    a1_tail = lambda rc: red.u1.sq_ft_sphere_tail(rc, n - 3)
    a0_tail = lambda rc: red.u0.sq_ft_sphere_tail(rc, n - 1)
    # the O pieces split [cut, inf) at delta0/sqrt(t) and, in 2D, delta0/sqrt(log t)
    mids = [d0 / math.sqrt(t)] if n == 1 else [d0 / math.sqrt(t), d0 / math.sqrt(math.log(t))]
    edges = [cut, *mids, math.inf]
    o_rows = [(a1, edges[i], edges[i + 1], a1_tail) for i in reversed(range(len(mids) + 1))]
    rows = [
        (k2, 0.0, cut, None),
        (a1, 0.0, cut, a1_tail),
        (a0, 0.0, cut, a0_tail),
        (norm, 0.0, cut, red.tail),
        (norm, cut, math.inf, red.tail),
        *o_rows,
        (a1, cut, math.inf, a1_tail),
        (a0, cut, math.inf, a0_tail),
        (norm, 0.0, math.inf, red.tail),
    ]
    K2, J1, J2, Ilow, Ihigh, *O_parts, N1, N2, total = (
        integrate_oscillatory(f, lo, hi, cfg, tail_bound=tail).value for f, lo, hi, tail in rows
    )
    T = trick_T(t, cfg).value if n == 2 else None
    return TermChecks(
        dimension=n,
        t=t,
        K1=K1,
        K2=K2,
        J1=J1,
        J2=J2,
        Ilow=Ilow,
        O_parts=tuple(O_parts),
        N1=N1,
        N2=N2,
        Ihigh=Ihigh,
        total=total,
        T=T,
    )


# ------------------------------------------------------------ the sandwich
@dataclass(frozen=True)
class SandwichReport:
    breakdown: BoundBreakdown
    terms: TermChecks
    checks: tuple[tuple[str, float, float], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _leq(name: str, lhs: float, rhs: float, scale: float, out: list, bad: list):
    """Record lhs <= rhs with slack proportional to the quadrature accuracy."""
    slack = 5e-9 * max(abs(scale), abs(lhs), abs(rhs)) + 1e-12
    out.append((name, lhs, rhs))
    if lhs > rhs + slack:
        bad.append(name)


def sandwich_report(
    pair: ProfilePair,
    t: float,
    consts: ProofConstants | None = None,
    cfg: QuadConfig | None = None,
    raise_on_failure: bool = True,
) -> SandwichReport:
    """Check every inequality of both chains against measured terms at t.

    Raises :class:`SandwichError` naming the first failed comparison
    unless told to return the report regardless.
    """
    consts = consts or ProofConstants()
    norms = moments(pair)
    bb = envelopes(norms, t, pair.dimension, consts)
    tc = term_checks(pair, t, consts, cfg)
    p = norms.mean_u1
    scale = tc.total
    checks: list = []
    bad: list = []

    _leq("K1 lower bound", bb.K1_lb, tc.K1, scale, checks, bad)
    _leq("K2 upper bound", tc.K2, bb.K2_ub, scale, checks, bad)
    _leq("J1 mean split", 0.5 * p * p * tc.K1 - tc.K2, tc.J1, scale, checks, bad)
    _leq("J1 lower bound", bb.J1_lb, tc.J1, scale, checks, bad)
    _leq("J2 upper bound", tc.J2, bb.J2_ub, scale, checks, bad)
    _leq("Ilow cross split", 0.5 * tc.J1 - tc.J2, tc.Ilow, scale, checks, bad)
    if pair.dimension == 1:
        _leq("lower envelope vs Ilow", bb.final_lb, tc.Ilow, scale, checks, bad)
    else:
        _leq("T lower bound", bb.T_lb, tc.T, tc.T, checks, bad)
        trick_mid = 0.25 * p * p * tc.T - (unit_sphere_measure(2) / 4.0) * MOMENT_COEFF**2 * norms.l11_u1**2 - TWO_PI**2 * norms.l2_u0**2
        _leq("window split vs norm", trick_mid, tc.total, scale, checks, bad)
        _leq("lower envelope vs window split", bb.final_lb, trick_mid, scale, checks, bad)
    _leq("lower envelope vs norm", bb.final_lb, tc.total, scale, checks, bad)
    if t >= bb.t_star:
        _leq("threshold beyond t_star", bb.Ilow_lb, tc.total, scale, checks, bad)

    _leq("Ilow pair split", tc.Ilow, 2.0 * tc.J1 + 2.0 * tc.J2, scale, checks, bad)
    _leq("L1 upper bound", tc.J1, bb.L1_ub, scale, checks, bad)
    _leq("L2 upper bound", tc.J2, bb.L2_ub, scale, checks, bad)
    _leq("Ilow upper", tc.Ilow, bb.Ilow_ub, scale, checks, bad)
    for i, (part, cap) in enumerate(zip(tc.O_parts, bb.O_terms), start=1):
        _leq(f"O{i} upper bound", part, cap, scale, checks, bad)
    _leq("N1 additivity", abs(tc.N1 - sum(tc.O_parts)), 1e-8 * scale + 1e-12, scale, checks, bad)
    _leq("N1 upper bound", tc.N1, bb.N1_ub, scale, checks, bad)
    _leq("N2 upper bound", tc.N2, bb.N2_ub, scale, checks, bad)
    _leq("Ihigh pair split", tc.Ihigh, 2.0 * tc.N1 + 2.0 * tc.N2, scale, checks, bad)
    _leq("Ihigh upper", tc.Ihigh, bb.Ihigh_ub, scale, checks, bad)
    _leq("upper envelope vs norm", tc.total, bb.final_ub, scale, checks, bad)
    _leq("split additivity", abs(tc.Ilow + tc.Ihigh - tc.total), 1e-8 * scale + 1e-12, scale, checks, bad)

    report = SandwichReport(bb, tc, tuple(checks), tuple(bad))
    if bad and raise_on_failure:
        name = bad[0]
        lhs, rhs = next((l, r) for (nm, l, r) in checks if nm == name)
        raise SandwichError(f"{name} failed at t={t:g}: {lhs:.12g} > {rhs:.12g}")
    return report
