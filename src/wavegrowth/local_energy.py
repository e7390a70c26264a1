"""Local energy decay: ball-restricted energy, flux functionals, envelopes.

The chain implemented here runs: the virial identity

    t E(t) = (n-1)/2 int u1 u0 + int u1 (x . grad u0)
             - (n-1)/2 F(t) - G(t),
    F(t) = int u_t u dx,   G(t) = int u_t (x . grad u) dx,

verified as a residual at each sample time; the resulting inequality

    (t - R) E_R(t) <= K0 + |F(t)| / 2,
    K0 = int u1 (x . grad u0) + (n-1)/2 int u1 u0 + E(0),

for the energy E_R restricted to the ball of radius R; and the closed
envelope obtained by bounding |F| through Schwarz and the two-dimensional
norm growth,

    E_R(t) <= K0/(t-R) + (C/2) sqrt(2 E(0)) I (sqrt(log t)/(t-R)),

with I the combined L1+L2 size of the data and C the norm-growth upper
constant.  C is not pinned down by the envelope chain alone, so the
report carries both the assembled value and the smallest value that fits
the measured samples.

All data-side integrals (K0 and friends) run on the quadrature engine's
panels over vectorised profile values, in polar form in 2D.  The
time-dependent functionals take one of two paths:

* grid-free, for radial 2D pairs whose transforms have tail bounds
  (every centred gaussian pair): u_t and u_r at Gauss-Legendre nodes of
  the ball are Hankel integrals of the evolved spectrum, one
  vector-valued integral over all nodes per field and time, and F and G
  are Parseval integrals of it, all times in one quadrature batch; E(t)
  is ``spectral.energy``.  There is no horizon, and no grid is built;
* on the periodic grid of ``oracles.grid_evolver`` for every other pair
  (1D, off-centre or odd 2D data, indicator disks), up to the time the
  image waves reach the ball.  The grid is also the tests' oracle for
  the grid-free path.

The virial residual combines E, F and G computed independently of one
another, so it checks the identity rather than restating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import j0 as _sp_j0, j1 as _sp_j1

from .bounds import upper_constant
from .oracles import GridField, HorizonError, grid_evolver
from .profiles import TWO_PI, ProfilePair, _integrate_data, moments
from .quadrature import QuadConfig, _settled, integrate_batch
from .spectral import ProofConstants, energy, field_integrands, l2_norm, reduce_pair, wave_integrands

__all__ = [
    "LocalEnergyReport",
    "LocalEnergySample",
    "local_energy",
    "flux_functionals",
    "morawetz_residual",
    "prop41_check",
    "thm42_envelope",
    "data_overlap",
    "data_virial_overlap",
    "initial_energy",
    "virial_constant",
    "local_energy_report",
]

_BOUNDARY_TOL = 1e-12
_MIN_CELLS = 10
# Gauss-Legendre nodes of the grid-free ball energy: per data scale sigma
# across the radius R, plus a floor.
_BALL_NODES_PER_SCALE = 2.5
_BALL_NODES_EXTRA = 12


# ------------------------------------------------------- grid functionals
def _check_boundary_tail(field: GridField):
    """Both fields must be numerically dead on the outermost cells."""
    scale = 1.0 + float(np.max(np.abs(field.u)))
    for arr in (field.u, field.ut):
        if field.dimension == 1:
            edge = max(abs(arr[0]), abs(arr[-1]), abs(arr[1]), abs(arr[-2]))
        else:
            edge = max(
                float(np.max(np.abs(arr[:2, :]))),
                float(np.max(np.abs(arr[-2:, :]))),
                float(np.max(np.abs(arr[:, :2]))),
                float(np.max(np.abs(arr[:, -2:]))),
            )
        if edge > _BOUNDARY_TOL * scale:
            message = f"field tail {edge:.2e} at the box boundary exceeds {_BOUNDARY_TOL:g} at t={field.t:g}"
            if field.spectral_tail is not None and field.spectral_tail > _BOUNDARY_TOL:
                message += (
                    f": the grid does not resolve the data spectrum (spectral tail {field.spectral_tail:.2g}"
                    " over the outer 10% of wavenumbers), so it rings at the boundary; discontinuous data never resolve"
                )
            raise HorizonError(message)


def local_energy(field: GridField, r_obs: float) -> float:
    """int over the ball |x| <= r_obs of |u_t|^2 + |grad u|^2 (no half).

    Cell-center membership decides the ball; r_obs below 10 cells is
    refused because the staircase error is then no longer negligible.
    Only the index window that holds the ball is summed; it keeps the
    cells, and their order, of a mask over the whole grid.
    """
    if r_obs < _MIN_CELLS * field.dx:
        raise ValueError(f"r_obs={r_obs:g} spans fewer than {_MIN_CELLS} cells (dx={field.dx:g})")
    if field.r_eff is not None and field.t > field.horizon(r_obs):
        raise HorizonError(f"t={field.t:g} beyond the horizon {field.horizon(r_obs):g} for r_obs={r_obs:g}")
    ax = field.axis()
    inside = np.flatnonzero(ax * ax <= r_obs * r_obs)
    span = slice(int(inside[0]), int(inside[-1]) + 1)
    x2 = ax[span] * ax[span]
    r2 = x2 if field.dimension == 1 else x2[:, None] + x2[None, :]
    mask = r2 <= r_obs * r_obs
    dens = field.density((span,) * field.dimension)
    return field.dx**field.dimension * float(np.sum(dens[mask]))


def flux_functionals(field: GridField) -> tuple[float, float]:
    """F(t) = int u_t u and G(t) = int u_t (x . grad u), grid quadrature."""
    _check_boundary_tail(field)
    ax = field.axis()
    g = field.grad()
    if field.dimension == 1:
        xg = ax * g[0]
    else:
        xg = ax[:, None] * g[0] + ax[None, :] * g[1]
    dxn = field.dx**field.dimension
    f_val = dxn * float(np.sum(field.ut * field.u))
    g_val = dxn * float(np.sum(field.ut * xg))
    return f_val, g_val


# ------------------------------------------------------ data-side values
def data_overlap(pair: ProfilePair) -> float:
    """int u1 u0 dx by profile quadrature."""
    u0, u1 = pair.u0, pair.u1
    if u0.is_zero or u1.is_zero:
        return 0.0
    return _integrate_data(lambda x: u1.value(x) * u0.value(x), [u0, u1])


def data_virial_overlap(pair: ProfilePair) -> float:
    """int u1 (x . grad u0) dx by profile quadrature."""
    u0, u1 = pair.u0, pair.u1
    if u0.is_zero or u1.is_zero:
        return 0.0
    if not u0.in_h1:
        raise ValueError("x . grad u0 needs a position profile with a gradient")

    def f(x):
        g = u0.grad(x)
        return u1.value(x) * np.sum(np.reshape(x, g.shape) * g, axis=-1)

    return _integrate_data(f, [u0, u1])


def initial_energy(pair: ProfilePair) -> float:
    """E(0) = (||u1||^2 + ||grad u0||^2) / 2 from closed-form norms."""
    g0 = pair.u0.grad_l2_sq()
    if math.isinf(g0):
        raise ValueError("initial position is not in H1; the energy is infinite")
    return 0.5 * (pair.u1.l2_sq() + g0)


@dataclass(frozen=True)
class _Virial:
    """The data side of the virial identity, computed once per pair.

    ``half`` is the (n-1)/2 coefficient the identity gives the overlap
    and F terms, so both drop out in one dimension.
    """

    half: float
    e0: float
    overlap: float
    virial_overlap: float

    @classmethod
    def of(cls, pair: ProfilePair) -> _Virial:
        e0 = initial_energy(pair)
        return cls(0.5 * (pair.dimension - 1), e0, data_overlap(pair), data_virial_overlap(pair))

    @property
    def k0(self) -> float:
        return self.virial_overlap + self.half * self.overlap + self.e0

    def residual(self, t: float, energy: float, f_val: float, g_val: float) -> float:
        """|t E(t) - RHS(t)| / (1 + t E(0))."""
        rhs = self.half * self.overlap + self.virial_overlap - self.half * f_val - g_val
        return abs(t * energy - rhs) / (1.0 + t * self.e0)


def virial_constant(pair: ProfilePair) -> float:
    """K0 = int u1 (x . grad u0) + (n-1)/2 int u1 u0 + E(0).

    The overlap coefficient is the one the virial identity carries, so
    it drops out in one dimension.
    """
    return _Virial.of(pair).k0


# ---------------------------------------------------- identity and bounds
def morawetz_residual(fields: GridField | Sequence[GridField], pair: ProfilePair):
    """Normalized residual of the virial identity at each snapshot.

    |t E(t) - RHS(t)| / (1 + t E(0)); in one dimension the (n-1)/2
    coefficient vanishes and the identity loses its F term.
    """
    single = isinstance(fields, GridField)
    seq = [fields] if single else list(fields)
    virial = _Virial.of(pair)
    out = np.empty(len(seq))
    for i, field in enumerate(seq):
        f_val, g_val = flux_functionals(field)
        out[i] = virial.residual(field.t, field.energy(), f_val, g_val)
    return float(out[0]) if single else out


def prop41_check(e_r: float, f_val: float, t: float, r_obs: float, k0: float) -> float:
    """Slack of (t - R) E_R <= K0 + |F|/2; negative means violation."""
    if t <= r_obs:
        raise ValueError("the local decay inequality needs t > R")
    return k0 + 0.5 * abs(f_val) - (t - r_obs) * e_r


def thm42_envelope(t: float, r_obs: float, k0: float, e0: float, i02: float, c_fit: float) -> float:
    """The closed decay envelope K0/(t-R) + (C/2) sqrt(2 E0) I sqrt(log t)/(t-R)."""
    if t <= r_obs or t <= 1.0:
        raise ValueError("the decay envelope needs t > R and t > 1")
    return (k0 + 0.5 * c_fit * math.sqrt(2.0 * e0) * i02 * math.sqrt(math.log(t))) / (t - r_obs)


# ------------------------------------------------- grid-free radial chain
def _grid_free(pair: ProfilePair) -> bool:
    """Radial 2D pairs whose transforms and their slopes have tail bounds
    (every centred gaussian pair) run the chain without a grid."""
    return pair.dimension == 2 and all(
        p.is_radial and math.isfinite(p.sq_ft_slope_tail(1.0, 3.0)) for p in (pair.u0, pair.u1)
    )


@dataclass(frozen=True)
class _RadialValues:
    """Values of the radial chain, one row per time.

    ``ut`` and ``ur`` hold u_t and u_r at the requested radii; ``f`` and
    ``g`` the flux functionals F and G; ``norm_sq`` the Fourier-side norm
    integral (2 pi)^2 M(t)^2 of ``spectral.norm_sq_samples``.
    """

    ut: np.ndarray
    ur: np.ndarray
    f: np.ndarray
    g: np.ndarray
    norm_sq: np.ndarray


def _radial_values(pair: ProfilePair, ts: Sequence[float], radii, cfg: QuadConfig | None = None) -> _RadialValues:
    """u_t(r), u_r(r), F, G and the norm of a radial 2D pair at every t, as one batch.

    With A = u1^, B = u0^ (real, radial), w^ = sin(t rho)/rho A + cos(t rho) B
    and dt w^ = cos(t rho) A - rho sin(t rho) B,

        u_t(r) = (2 pi)^-1 int dt w^ J0(r rho) rho drho,
        u_r(r) = -(2 pi)^-1 int w^ J1(r rho) rho^2 drho,
        F = (2 pi)^-1 int dt w^ w^ rho drho,
        G = -(2 pi)^-1 int dt w^ (2 w^ + rho d_rho w^) rho drho.

        2 w^ + rho d_rho w^ = P + t dt w^,
        P = sin(t rho) (A/rho + A') + cos(t rho) (2 B + rho B'),

    so G takes two integrals whose amplitudes do not depend on t.

    The field amplitudes rho J0 A, rho^2 J0 B, rho^2 J1 B and rho J1 A are
    smooth at rho = 0, so their integrals run Filon from 0 without a
    pointwise zone.  Every radius shares one width hint, range and tail
    bound, so u_t and u_r at each t are two vector-valued integrands with
    one component per radius: J0(r_k rho) and J1(r_k rho) are (m, N)
    kernels.  Each integrand family is one callable that takes its
    kernel, A, B and their slopes once per sampled node and builds every
    amplitude from them; a zero profile's transform is zeros that are
    never evaluated, and an amplitude with it as a factor is absent.  The
    batch holds 2 len(ts) field entries and 4 len(ts) entries for F, P,
    |dt w^|^2 and the norm, whatever the number of radii.
    """
    ts = [float(t) for t in ts]
    radii = np.asarray(radii, dtype=float)
    u0, u1 = pair.u0, pair.u1
    (_, g1), (_, g0) = u1.polar_factor(), u0.polar_factor()
    dg1, dg0 = u1.polar_factor_derivative(), u0.polar_factor_derivative()
    both = not (u0.is_zero or u1.is_zero)

    def transforms(rho, *kernels):
        """Re of each (profile, kernel) at rho; zeros, never evaluated, for a zero profile."""
        return [np.zeros(np.shape(rho)) if p.is_zero else np.real(g(rho)) for p, g in kernels]

    # the norm's hint for every integrand, so equal ranges share one march
    red = reduce_pair(pair)
    hint = red.width_hint

    # The fields are integrated in units of their amplitudes' size, so the
    # absolute tolerance sits above the roundoff of any data's amplitudes.
    size = _field_size(pair)

    def field_tail(rho):
        # int |A| s + |B| s^2 beyond rho, by Schwarz against s^-2
        t1, t0 = u1.sq_ft_sphere_tail(rho, 4.0), u0.sq_ft_sphere_tail(rho, 6.0)
        return (math.sqrt(t1 / (TWO_PI * rho)) + math.sqrt(t0 / (TWO_PI * rho))) / size

    # J0(r rho) and J1(r rho) vary on 1/r; one hint for every radius keeps
    # the initial partitions to one march
    r_max = max(float(np.max(radii, initial=0.0)), 1e-300)
    r_hint = lambda rho: np.minimum(hint(rho), 2.0 / r_max)
    m = radii.size

    def u_t(rho):
        j0 = _sp_j0(np.multiply.outer(radii, rho)) / size
        a, b = transforms(rho, (u1, g1), (u0, g0))
        return None if u1.is_zero else rho * j0 * a, None if u0.is_zero else -rho * rho * j0 * b

    def u_r(rho):
        j1 = _sp_j1(np.multiply.outer(radii, rho)) / size
        a, b = transforms(rho, (u1, g1), (u0, g0))
        return None if u0.is_zero else -rho * rho * j1 * b, None if u1.is_zero else -rho * j1 * a

    def flux_tail(rho):
        # |dt w^| |Q| rho <= (|A| + rho |B|)(|A|/rho + |A'| + 2 |B| + rho |B'|) rho
        # bounds the integrands of F, P and dt w^ by Schwarz
        sq = u1.sq_ft_sphere_tail(rho, -1.0) + u1.sq_ft_sphere_tail(rho, 1.0)
        sq += u0.sq_ft_sphere_tail(rho, 1.0) + u0.sq_ft_sphere_tail(rho, 3.0)
        sq += u1.sq_ft_slope_tail(rho, 1.0) + u0.sq_ft_slope_tail(rho, 3.0)
        return 4.0 / math.pi * sq

    # F, P and |dt w^|^2 are quadratic in the amplitudes: in units of size^2
    # their absolute tolerance, like the fields', sits above the roundoff.
    # They are quadratic forms alpha cos^2 + beta sin^2 + gamma sin cos,
    # written as wave_integrands takes them: a1 = rho^2 beta, a0 = alpha,
    # cross = rho gamma / 2.
    s2 = size * size

    def flux(rho):
        a, b = transforms(rho, (u1, g1), (u0, g0))
        return (
            -rho * rho * a * b / s2 if both else None,
            a * b / s2 if both else None,
            0.5 * (a**2 - rho * rho * b**2) / s2,
        )

    def p_part(rho):
        a, b, da, db = transforms(rho, (u1, g1), (u0, g0), (u1, dg1), (u0, dg0))
        return (
            -rho * rho * b * (a + rho * da) / s2 if both else None,
            a * (2.0 * b + rho * db) / s2 if both else None,
            0.5 * (a * (a + rho * da) - rho * rho * b * (2.0 * b + rho * db)) / s2,
        )

    def dt_sq(rho):
        a, b = transforms(rho, (u1, g1), (u0, g0))
        return (
            None if u0.is_zero else rho**4 * b**2 / s2,
            None if u1.is_zero else a**2 / s2,
            -rho * rho * a * b / s2 if both else None,
        )

    integrands = field_integrands(ts, r_hint, u_t, m) + field_integrands(ts, r_hint, u_r, m)
    tails = [field_tail] * len(integrands)
    for spectrum in (flux, p_part, dt_sq):
        integrands += wave_integrands(2, ts, hint, spectrum)
    integrands += red.integrands(ts)
    tails += [lambda rho: flux_tail(rho) / s2] * (3 * len(ts)) + [red.tail] * len(ts)
    results = _settled(integrate_batch(integrands, 0.0, math.inf, cfg, tails))
    n_t = len(ts)
    fields = np.array([np.broadcast_to(res.value, (m,)) for res in results[: 2 * n_t]]).reshape(2, n_t, m)
    fields *= size / TWO_PI
    quad_rows = np.array([res.value for res in results[2 * n_t :]]).reshape(4, n_t)
    f_val, p_val, dt_val = quad_rows[:3] * s2
    norm_sq = quad_rows[3]
    t_arr = np.array(ts)
    return _RadialValues(
        ut=fields[0],
        ur=fields[1],
        f=f_val / TWO_PI,
        g=-(p_val + t_arr * dt_val) / TWO_PI,
        norm_sq=norm_sq,
    )


def _field_size(pair: ProfilePair) -> float:
    """int |A| rho + |B| rho^2 drho for gaussian data: 2 pi (|a1| + sqrt(pi/2) |a0| / sigma0)."""
    u0, u1 = pair.u0, pair.u1
    size = 0.0 if u1.is_zero else TWO_PI * abs(u1.amplitude)
    if not u0.is_zero:
        size += TWO_PI * math.sqrt(math.pi / 2.0) * abs(u0.amplitude) / u0.sigma
    return size or 1.0


def _ball_rule(pair: ProfilePair, r_obs: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, R] and weights with the 2 pi r of polar area.

    The node count follows the band limit of the data: the fields carry
    frequencies up to about 9/sigma, their squares twice that.
    """
    scale = min((p.sigma for p in (pair.u0, pair.u1) if not p.is_zero), default=r_obs)
    m = int(math.ceil(_BALL_NODES_PER_SCALE * r_obs / scale)) + _BALL_NODES_EXTRA
    x, w = np.polynomial.legendre.leggauss(m)
    r = 0.5 * r_obs * (x + 1.0)
    return r, TWO_PI * r * (0.5 * r_obs) * w


# ------------------------------------------------------------- the report
@dataclass(frozen=True)
class LocalEnergySample:
    t: float
    e_r: float
    f: float
    g: float
    residual: float
    slack: float
    envelope: float


@dataclass(frozen=True)
class LocalEnergyReport:
    """Everything the decay chain produces on one grid configuration.

    ``c_assembled`` comes from the norm-growth upper chain evaluated at
    the sample times; ``c_fitted`` is the smallest constant that makes
    the envelope hold on the measured local energies (zero when the K0
    term alone suffices).  ``min_f_slack`` is the worst slack of
    |F| <= sqrt(2 E0) M(t) over the samples.  ``spectral_tail`` is the
    grid's resolution certificate: the largest data-spectrum magnitude
    over the outer 10% of wavenumbers, relative to its maximum.
    """

    r_obs: float
    samples: tuple[LocalEnergySample, ...]
    k0: float
    e0: float
    weighted_h1: float
    i02: float
    c_assembled: float
    c_fitted: float
    min_f_slack: float
    lam: float | None
    n_points: int | None
    spectral_tail: float | None

    CSV_HEADER = ("t", "E_R", "F", "G", "residual", "slack", "envelope")

    def rows(self) -> list[tuple[float, ...]]:
        return [(s.t, s.e_r, s.f, s.g, s.residual, s.slack, s.envelope) for s in self.samples]


def _radial_rows(pair: ProfilePair, r_obs: float, ts: list[float], cfg: QuadConfig | None):
    """(E_R, F, G, E, M, no grid certificate) at each t from one quadrature
    batch and the spectral energy."""
    nodes, weights = _ball_rule(pair, r_obs)
    vals = _radial_values(pair, ts, nodes, cfg)
    e_r = (vals.ut**2 + vals.ur**2) @ weights
    energies = energy(pair, ts, cfg).values
    m_t = np.sqrt(np.maximum(vals.norm_sq, 0.0)) / TWO_PI
    return zip(e_r.tolist(), vals.f.tolist(), vals.g.tolist(), energies.tolist(), m_t.tolist(), [None] * len(ts))


def _grid_rows(pair: ProfilePair, r_obs: float, ts: list[float], lam: float, n_points: int, cfg: QuadConfig | None):
    """(E_R, F, G, E, M, spectral tail) at each t from grid snapshots, one alive at a time."""
    evolve = grid_evolver(pair, lam, n_points)
    for t in ts:
        field = evolve(t)
        row = (local_energy(field, r_obs), *flux_functionals(field), field.energy())
        tail = field.spectral_tail
        del field  # two snapshots at once would double the grid memory
        yield (*row, l2_norm(pair, t, cfg), tail)


def local_energy_report(
    pair: ProfilePair,
    r_obs: float,
    ts: Sequence[float],
    lam: float = 256.0,
    n_points: int = 2048,
    consts: ProofConstants | None = None,
    cfg: QuadConfig | None = None,
) -> LocalEnergyReport:
    """Run the full decay chain at each time.

    Radial 2D pairs with tail-bounded transforms (centred gaussians) run
    grid-free: E_R, F and G come from one quadrature batch over all times
    and E(t) from ``spectral.energy``, with no horizon; ``lam``,
    ``n_points`` and ``spectral_tail`` are then None.  Every other pair
    runs on the periodic grid (lam, n_points), whose certified window
    bounds the times.  Times at or below R are rejected up front, as are
    grid times beyond the window.  In one dimension the identity loses
    its F term and the log-growth envelope does not apply, so the
    envelope and fitted-constant fields are NaN there; residuals and
    decay slacks are reported in both dimensions.  Zero data are
    rejected before any integration: the envelope divides by their size.
    """
    if pair.is_zero:
        raise ValueError("the decay chain needs nonzero data: u0 and u1 are both zero")
    norms = moments(pair)
    if norms.weighted_h1 is None:
        raise ValueError("the decay chain needs finite weighted H1 data")
    ts = [float(t) for t in ts]
    for t in ts:
        if t <= r_obs:
            raise ValueError(f"t={t:g} does not exceed R={r_obs:g}")
    grid_free = _grid_free(pair)
    if not grid_free:
        horizon = lam - pair.effective_radius(1e-14) - r_obs
        for t in ts:
            if t > horizon:
                raise HorizonError(f"t={t:g} beyond the horizon {horizon:g}")

    virial = _Virial.of(pair)
    e0, k0 = virial.e0, virial.k0
    two_d = pair.dimension == 2
    c_assembled = upper_constant(norms, ts, consts) if two_d else math.nan

    samples = []
    c_needed = 0.0 if two_d else math.nan
    min_f_slack = math.inf
    spectral_tail = None
    rows = _radial_rows(pair, r_obs, ts, cfg) if grid_free else _grid_rows(pair, r_obs, ts, lam, n_points, cfg)
    for t, (e_r, f_val, g_val, energy_t, m_t, spectral_tail) in zip(ts, rows):
        residual = virial.residual(t, energy_t, f_val, g_val)
        slack = prop41_check(e_r, f_val, t, r_obs, k0)
        min_f_slack = min(min_f_slack, math.sqrt(2.0 * e0) * m_t + 1e-8 - abs(f_val))
        if two_d:
            envelope = thm42_envelope(t, r_obs, k0, e0, norms.i0n, c_assembled)
            gap = (t - r_obs) * e_r - k0
            if gap > 0.0:
                c_needed = max(c_needed, 2.0 * gap / (math.sqrt(2.0 * e0) * norms.i0n * math.sqrt(math.log(t))))
        else:
            envelope = math.nan
        samples.append(LocalEnergySample(t, e_r, f_val, g_val, residual, slack, envelope))

    return LocalEnergyReport(
        r_obs=r_obs,
        samples=tuple(samples),
        k0=k0,
        e0=e0,
        weighted_h1=norms.weighted_h1,
        i02=norms.i0n,
        c_assembled=c_assembled,
        c_fitted=c_needed,
        min_f_slack=min_f_slack,
        lam=None if grid_free else lam,
        n_points=None if grid_free else int(n_points),
        spectral_tail=spectral_tail,
    )
