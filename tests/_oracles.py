"""Independent reference values for the test suite.

Nothing here calls back into wavegrowth.  Bessel values come from the plain
power series summed in mpmath big floats, transforms from direct quadrature
of the defining integral, and the reference norm curves from closed forms
built on erf, the Dawson function, and Si/Ci.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import dblquad, quad
from scipy.special import dawsn, i0e, i1e, j0, sici

TWO_PI = 2.0 * math.pi


def bessel_series(order: int, x: float, dps: int = 30) -> float:
    """J_order(x) summed term by term at dps decimal digits."""
    with mp.workdps(dps):
        half = mp.mpf(x) / 2
        term = half**order / mp.factorial(order)
        total = term
        ratio = -(half * half)
        for m in range(1, 400):
            term *= ratio / (m * (m + order))
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (1 + abs(total)):
                break
        return float(total)


def one_minus_j0_series(x: float, dps: int = 30) -> float:
    """1 - J0(x) = sum_{k >= 1} (-1)^(k+1) (x^2/4)^k / (k!)^2, summed term by term at dps decimal digits."""
    with mp.workdps(dps):
        quarter = (mp.mpf(x) / 2) ** 2
        term, total = mp.mpf(1), mp.mpf(0)
        for k in range(1, 400):
            term *= -quarter / (k * k)
            total -= term
            if abs(term) < mp.mpf(10) ** (-dps) * abs(total):
                break
        return float(total)


def gauss_mean_deviation_sq(dimension: int, sigma: float, amplitude: float, center, rho: float, dps: int = 40) -> float:
    """int_{S^{n-1}} |h^(rho w) - h^(0)|^2 dw of the gaussian a exp(-|x - c|^2 / (2 sigma^2)), in mpmath.

    h^(xi) = a (2 pi)^(n/2) sigma^n exp(-sigma^2 |xi|^2 / 2) e^{-i xi.c}; the
    sphere is the two points +-1 in 1D and the unit circle in 2D, whose
    integral is an mpmath quadrature over the angle.
    """
    with mp.workdps(dps):
        s, r = mp.mpf(sigma), mp.mpf(rho)
        mean = mp.mpf(amplitude) * (mp.sqrt(2 * mp.pi) * s) ** dimension
        g = mean * mp.exp(-((s * r) ** 2) / 2)
        gap = lambda phase: abs(g * mp.expj(-phase) - mean) ** 2
        if dimension == 1:
            c = mp.mpf(center)
            return float(gap(r * c) + gap(-r * c))
        c1, c2 = (mp.mpf(v) for v in center)
        angle = lambda th: gap(r * (c1 * mp.cos(th) + c2 * mp.sin(th)))
        return float(mp.quad(angle, mp.linspace(0, 2 * mp.pi, 5)))


def _line_ft(f, half: float, w: float) -> complex:
    if abs(w) < 1e-12:
        re, _ = quad(f, -half, half, epsabs=1e-13, epsrel=1e-12, limit=400)
        return complex(re, 0.0)
    re, _ = quad(f, -half, half, weight="cos", wvar=w, epsabs=1e-13, epsrel=1e-12, limit=400)
    im, _ = quad(f, -half, half, weight="sin", wvar=w, epsabs=1e-13, epsrel=1e-12, limit=400)
    return complex(re, -im)


def ft_quadrature(profile, xi) -> complex:
    """Transform at one frequency by quadrature of the defining integral."""
    r = profile.effective_radius(1e-16)
    if profile.dimension == 1:
        w = float(np.asarray(xi).reshape(-1)[0])
        if abs(w) < 1e-12:
            val, _ = quad(profile.value, -r, r, epsabs=1e-12, epsrel=1e-12, limit=400)
            return complex(val, 0.0)
        re, _ = quad(profile.value, -r, r, weight="cos", wvar=w, epsabs=1e-12, epsrel=1e-12, limit=400)
        im, _ = quad(profile.value, -r, r, weight="sin", wvar=w, epsabs=1e-12, epsrel=1e-12, limit=400)
        return complex(re, -im)
    w1, w2 = (float(v) for v in np.asarray(xi).reshape(2))
    if profile.is_radial:
        rho = math.hypot(w1, w2)
        val, _ = quad(
            lambda s: s * float(profile.value(np.array([s, 0.0]))) * j0(s * rho),
            0.0,
            r,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=400,
        )
        return complex(TWO_PI * val, 0.0)
    if profile.kind == "gaussian":
        # separable integrand: one weighted quadrature per coordinate
        c1, c2 = profile.center
        s = profile.sigma
        fx = _line_ft(lambda x: math.exp(-((x - c1) ** 2) / (2.0 * s * s)), r, w1)
        fy = _line_ft(lambda y: math.exp(-((y - c2) ** 2) / (2.0 * s * s)), r, w2)
        return profile.amplitude * fx * fy
    if profile.kind == "polynomial_gaussian":
        s = profile.sigma
        fx = _line_ft(lambda x: x * math.exp(-x * x / (2.0 * s * s)), r, w1)
        fy = _line_ft(lambda y: math.exp(-y * y / (2.0 * s * s)), r, w2)
        return profile.amplitude * fx * fy
    re, _ = dblquad(
        lambda y, x: float(profile.value(np.array([x, y]))) * math.cos(x * w1 + y * w2),
        -r, r, -r, r, epsabs=1e-12, epsrel=1e-12,
    )
    im, _ = dblquad(
        lambda y, x: float(profile.value(np.array([x, y]))) * math.sin(x * w1 + y * w2),
        -r, r, -r, r, epsabs=1e-12, epsrel=1e-12,
    )
    return complex(re, -im)


def msq_gauss1d(t: float) -> float:
    """M(t)^2 for 1D data u0 = 0, u1 = exp(-x^2/2)."""
    return math.pi * t * math.erf(t) + math.sqrt(math.pi) * (math.exp(-t * t) - 1.0)


def msq_gauss1d_position(t: float, sigma: float = 1.0) -> float:
    """M(t)^2 for 1D data u0 = exp(-x^2 / (2 sigma^2)), u1 = 0: (1/2) sigma sqrt(pi) (1 + e^{-t^2/sigma^2}).

    d'Alembert's u = (u0(x - t) + u0(x + t))/2, and the two translates overlap in sigma sqrt(pi) e^{-t^2/sigma^2}.
    """
    return 0.5 * sigma * math.sqrt(math.pi) * (1.0 + math.exp(-((t / sigma) ** 2)))


def msq_gauss2d_position(t: float, sigma: float = 1.0) -> float:
    """M(t)^2 for 2D data u0 = exp(-|x|^2 / (2 sigma^2)), u1 = 0: pi sigma^2 (1 - s D(s)) at s = t / sigma.

    2 pi sigma^4 int_0^inf e^{-sigma^2 rho^2} cos^2(t rho) rho drho on the
    Fourier side, with D the Dawson function.
    """
    s = t / sigma
    return math.pi * sigma * sigma * (1.0 - s * float(dawsn(s)))


def msq_poly2d(t: float) -> float:
    """M(t)^2 for 2D data u0 = 0, u1 = x1 exp(-|x|^2); plateau pi/32."""
    root2 = math.sqrt(2.0)
    return math.pi * root2 / 16.0 * t * float(dawsn(root2 * t))


def msq_intervals(r0: float, a0: float, r1: float, a1: float, t: float, dps: int = 40) -> float:
    """M(t)^2 for 1D data u0 = a0 1_{|x| <= r0}, u1 = a1 1_{|x| <= r1}, in mpmath.

    d'Alembert's u(t, x) = (u0(x - t) + u0(x + t))/2 + (U(x + t) - U(x - t))/2,
    U(y) = a1 clip(y, -r1, r1), is linear between the translates +-r0 +- t
    and +-r1 +- t and vanishes outside them, so the two-point Gauss-Legendre
    rule on each piece integrates u^2 exactly.
    """
    with mp.workdps(dps):
        r0, a0, r1, a1, t = (mp.mpf(v) for v in (r0, a0, r1, a1, t))
        u0 = lambda y: a0 if abs(y) <= r0 else 0
        clip = lambda y: max(-r1, min(r1, y))
        u = lambda x: (u0(x - t) + u0(x + t)) / 2 + a1 * (clip(x + t) - clip(x - t)) / 2
        ends = sorted({s * r + e * t for r in (r0, r1) for s in (-1, 1) for e in (-1, 1)})
        node = 1 / (2 * mp.sqrt(3))
        total = mp.mpf(0)
        for lo, hi in zip(ends, ends[1:]):
            mid, half = (lo + hi) / 2, hi - lo
            total += half / 2 * (u(mid - node * half) ** 2 + u(mid + node * half) ** 2)
        return float(total)


def msq_example_gauss_position(t: float, sigma: float) -> float:
    """M(t)^2 for 1D data u0 = exp(-x^2 / (2 sigma^2)), u1 = 2 1_{|x| <= 1}, 0 <= t <= 1, in mpmath.

    d'Alembert's M^2 is the position's (``msq_gauss1d_position``), the
    velocity's 8 t^2 - 8 t^3 / 3 while its fronts overlap, and the cross
    part int_0^{2t} C(h) dh with C(h) = int u0(x) u1(x + h) dx = 2 sigma
    sqrt(pi/2) (erf((1 - h)/(sigma sqrt 2)) + erf((1 + h)/(sigma sqrt 2))).
    """
    with mp.workdps(30):
        scale = sigma * mp.sqrt(2)
        overlap = lambda h: 2 * sigma * mp.sqrt(mp.pi / 2) * (mp.erf((1 - h) / scale) + mp.erf((1 + h) / scale))
        cross = mp.quad(overlap, [0, min(2 * t, 1), 2 * t])
        return msq_gauss1d_position(t, sigma) + 8.0 * t * t - 8.0 * t**3 / 3.0 + float(cross)


def trick_T_reference(t: float) -> float:
    """2 pi int_0^t D(u) du with D the Dawson function, in mpmath arithmetic."""
    with mp.workdps(25):
        def d(u):
            return mp.sqrt(mp.pi) / 2 * mp.exp(-u * u) * mp.erfi(u)

        pts = [0, t] if t <= 10 else [0, 1, 10, t]
        return float(2 * mp.pi * mp.quad(d, pts))


def wave_integrand(n: int, t: float, rho, a1=None, a0=None, cross=None) -> np.ndarray:
    """rho^{n-1} [sin^2(t rho)/rho^2 a1 + cos^2(t rho) a0 + sin(2 t rho)/rho cross], written out directly.

    The amplitudes are values at rho, None for an absent term; sin(s)/s is
    taken as sinc, so the integrand stays finite at rho = 0.
    """
    rho = np.asarray(rho, dtype=float)
    total = np.zeros(rho.shape)
    if a1 is not None:
        total = total + (t * np.sinc(t * rho / math.pi)) ** 2 * a1
    if a0 is not None:
        total = total + np.cos(t * rho) ** 2 * a0
    if cross is not None:
        total = total + 2.0 * t * np.sinc(2.0 * t * rho / math.pi) * cross
    return rho ** (n - 1) * total


def decay_integrals_reference(b: float, kappa: float, x: float) -> tuple[float, float, float]:
    """int_0^x of (1 - cos b r) e^{-kappa r}/r, sin(b r) e^{-kappa r}/r and (1 + kappa r)(1 - cos b r) e^{-kappa r}/r^2.

    In 40-digit mpmath through Ein(z) = E1(z) + log z + gamma (DLMF 6.2),
    z = (kappa - i b) x; the third by parts, b times the second less
    e^{-kappa x} (1 - cos b x)/x.  x may be infinite.
    """
    with mp.workdps(40):
        b, kappa = mp.mpf(b), mp.mpf(kappa)
        if math.isinf(x):
            sine = mp.atan(b / kappa)
            return float(mp.log(1 + (b / kappa) ** 2) / 2), float(sine), float(b * sine)
        x = mp.mpf(x)
        ein = lambda z: mp.e1(z) + mp.log(z) + mp.euler
        e = ein((kappa - 1j * b) * x)
        cosine, sine = mp.re(e) - ein(kappa * x), -mp.im(e)
        return float(cosine), float(sine), float(b * sine - mp.exp(-kappa * x) * (1 - mp.cos(b * x)) / x)


def kappa1_reference(dimension: int, a: float) -> float:
    """int_0^a sin(s)^2 s^(dimension - 3) ds via Si and Ci."""
    si2a, ci2a = sici(2.0 * a)
    if dimension == 1:
        return float(si2a) - math.sin(a) ** 2 / a
    return 0.5 * (np.euler_gamma + math.log(2.0 * a) - float(ci2a))


def kappa1_quadrature(dimension: int, a: float, dps: int = 40) -> float:
    """int_0^a sin(s)^2 s^(dimension - 3) ds by mpmath quadrature at dps decimal digits."""
    with mp.workdps(dps):
        return float(mp.quad(lambda s: mp.sin(s) ** 2 * s ** (dimension - 3), [0, mp.mpf(a)]))


def gauss_l11_reference(dimension: int, sigma: float, amplitude: float, center, dps: int = 30) -> float:
    """int (1 + |x|) |a| e^{-|x-c|^2/(2 sigma^2)} dx by mpmath quadrature at dps digits.

    In 1D directly, split at 0 and about c; in 2D as int_0^inf 2 pi r (1 + r)
    e^{-(r^2 + |c|^2)/(2 sigma^2)} I0(r |c| / sigma^2) dr about the origin,
    the angle taken by int_0^2pi e^{z cos th} dth = 2 pi I0(z) (DLMF 10.32.1).
    """
    with mp.workdps(dps):
        s, a = mp.mpf(sigma), abs(mp.mpf(amplitude))
        if dimension == 1:
            c = mp.mpf(center)
            f = lambda x: (1 + abs(x)) * mp.exp(-((x - c) ** 2) / (2 * s * s))
            points = [-mp.inf, *sorted({mp.mpf(0), c - 10 * s, c, c + 10 * s}), mp.inf]
        else:
            c = mp.sqrt(mp.mpf(center[0]) ** 2 + mp.mpf(center[1]) ** 2)
            f = lambda r: 2 * mp.pi * r * (1 + r) * mp.exp(-(r * r + c * c) / (2 * s * s)) * mp.besseli(0, r * c / (s * s))
            points = [*sorted({mp.mpf(0), max(c - 10 * s, mp.mpf(0)), c, c + 10 * s}), mp.inf]
        return float(a * mp.quad(f, points))


def _gauss_product(dimension, s0, c0, s1, c1):
    """Width beta, centre m and mass factor of the product of two unit gaussians:
    e^{-|x-c0|^2/(2 s0^2)} e^{-|x-c1|^2/(2 s1^2)} = f e^{-beta |x-m|^2}."""
    c0 = np.zeros(dimension) if c0 is None else np.atleast_1d(np.asarray(c0, dtype=float))
    c1 = np.zeros(dimension) if c1 is None else np.atleast_1d(np.asarray(c1, dtype=float))
    beta = (s0 * s0 + s1 * s1) / (2.0 * s0 * s0 * s1 * s1)
    m = (c0 / (s0 * s0) + c1 / (s1 * s1)) / (2.0 * beta)
    f = math.exp(-float(np.sum((c0 - c1) ** 2)) / (2.0 * (s0 * s0 + s1 * s1)))
    return beta, m, c0, f


def gauss_overlap(dimension: int, a0: float, s0: float, a1: float, s1: float, c0=None, c1=None) -> float:
    """int u1 u0 for gaussians with the given amplitudes, widths and centres."""
    beta, _, _, f = _gauss_product(dimension, s0, c0, s1, c1)
    return a0 * a1 * f * (math.pi / beta) ** (dimension / 2.0)


def gauss_virial_overlap(dimension: int, a0: float, s0: float, a1: float, s1: float, c0=None, c1=None) -> float:
    """int u1 (x . grad u0) for gaussians: x . grad u0 = -x . (x - c0) u0 / s0^2,
    and with y = x - m the moment int e^{-beta |y|^2} (|y|^2 + m . (m - c0)) dy
    is closed form."""
    beta, m, c0, f = _gauss_product(dimension, s0, c0, s1, c1)
    moment = dimension / (2.0 * beta) + float(np.dot(m, m - c0))
    return -(a0 * a1 * f / (s0 * s0)) * (math.pi / beta) ** (dimension / 2.0) * moment


def shifted_gauss_weighted_l2(a: float, s: float, center) -> float:
    """int |x| h^2 for the 2D gaussian h = a e^{-|x-c|^2/(2 s^2)}.

    h^2 is a^2 pi s^2 times the density of N(c, s^2/2 I), so the integral
    is that mass times the Rice mean v sqrt(pi/2) L_{1/2}(-|c|^2/(2 v^2)),
    v = s/sqrt(2), written with exponentially scaled Bessel functions.
    """
    v = s / math.sqrt(2.0)
    x = -(center[0] ** 2 + center[1] ** 2) / (2.0 * v * v)
    laguerre = (1.0 - x) * float(i0e(-x / 2.0)) - x * float(i1e(-x / 2.0))
    return a * a * math.pi * s * s * v * math.sqrt(math.pi / 2.0) * laguerre


def lockstep_edges(lo, hi, hints, budget: int) -> list:
    """Reference initial partitions: every march stepped in lockstep, one array step at a time.

    The marching rule of the quadrature engine, stepped as it was before
    marches were shared and remembered: width = hint(x), floored at 1e-9
    (hi - lo) and not graded toward 0, with one call per distinct hint per
    step.  Returns each march's edges, or for a march that needs more than
    ``budget`` edges the message of the QuadratureError the engine raises.
    """
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (lo, hi))
    fns = list(dict.fromkeys(hints))
    label = np.array([fns.index(fn) for fn in hints], dtype=np.intp)
    x = lo.copy()
    steps = [x.copy()]
    count = np.ones(x.size, dtype=np.intp)
    over = np.zeros(x.size, dtype=bool)
    live = np.flatnonzero(x < hi)
    while live.size:
        w = np.empty(live.size)
        for k, fn in enumerate(fns):
            sub = np.flatnonzero(label[live] == k)
            if sub.size:
                w[sub] = fn(x[live[sub]])
        w = np.maximum(w, np.maximum((hi[live] - lo[live]) * 1e-9, 1e-300))
        x[live] = np.minimum(x[live] + w, hi[live])
        steps.append(x.copy())
        count[live] += 1
        if len(steps) > budget:
            over[live] = True
            break
        live = live[x[live] < hi[live]]
    steps = np.array(steps)
    return [
        f"panel budget {budget} exceeded by the initial partition of [{lo[j]:g}, {hi[j]:g}]"
        if over[j]
        else steps[: count[j], j]
        for j in range(x.size)
    ]


def tail_march_edges(hint, x: float, count: int) -> np.ndarray:
    """Reference tail march: its first ``count`` edges from x, one plain step at a time.

    The marching rule of the quadrature engine's tails: width = hint(p) at
    the edge p (a float), floored at 1e-9 x and no wider than p itself, so
    an infinite hint doubles.
    """
    edges = [x]
    while len(edges) < count:
        p = edges[-1]
        width = float(hint(p))
        edges.append(p + min(max(width, 1e-9 * x), p))
    return np.array(edges)


def gauss_field_tail(rho: float, a0: float, s0: float, a1: float, s1: float, dps: int = 30) -> float:
    """int_rho^inf |A| s + |B| s^2 ds by mpmath quadrature, for the radial 2D
    gaussian transforms A = 2 pi a1 s1^2 exp(-s1^2 s^2 / 2) of u1 and B of
    u0 likewise.

    mpmath's quadrature stops on an absolute error, so each term is taken
    as exp(-sigma^2 rho^2 / 2) times the integral over u = s - rho >= 0 of
    exp(-sigma^2 (rho u + u^2 / 2)) (rho + u)^k, which is of order one.
    """
    with mp.workdps(dps):
        total = mp.mpf(0)
        for a, sigma, k in ((a1, s1, 1), (a0, s0, 2)):
            if a == 0:
                continue
            a, sigma, r = mp.mpf(a), mp.mpf(sigma), mp.mpf(rho)
            f = lambda u: mp.exp(-sigma * sigma * (r * u + u * u / 2)) * (r + u) ** k
            # f falls off on 1/(sigma^2 rho + sigma): breakpoints double from there
            width = 1 / (sigma * sigma * r + sigma)
            shape = mp.quad(f, [0] + [width * 2**j for j in range(8)] + [mp.inf])
            total += abs(a) * 2 * mp.pi * sigma**2 * mp.exp(-((sigma * r) ** 2) / 2) * shape
        return float(total)
