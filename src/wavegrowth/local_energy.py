"""Local energy decay: ball-restricted energy, flux functionals, envelopes.

The chain implemented here runs: the virial identity

    t E(t) = (n-1)/2 int u1 u0 + int u1 (x . grad u0)
             - (n-1)/2 F(t) - G(t),
    F(t) = int u_t u dx,   G(t) = int u_t (x . grad u) dx,

verified as a residual on grid snapshots; the resulting inequality

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
panels over vectorised profile values, in polar form in 2D; only the
time-dependent functionals come from the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import upper_constant
from .oracles import GridField, HorizonError, grid_evolver
from .profiles import ProfilePair, _integrate_data, moments
from .quadrature import QuadConfig
from .spectral import ProofConstants, l2_norm

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
            raise HorizonError(
                f"field tail {edge:.2e} at the box boundary exceeds {_BOUNDARY_TOL:g} at t={field.t:g}"
            )


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
    lam: float
    n_points: int
    spectral_tail: float

    CSV_HEADER = ("t", "E_R", "F", "G", "residual", "slack", "envelope")

    def rows(self) -> list[tuple[float, ...]]:
        return [(s.t, s.e_r, s.f, s.g, s.residual, s.slack, s.envelope) for s in self.samples]


def local_energy_report(
    pair: ProfilePair,
    r_obs: float,
    ts: Sequence[float],
    lam: float = 256.0,
    n_points: int = 2048,
    consts: ProofConstants | None = None,
    cfg: QuadConfig | None = None,
) -> LocalEnergyReport:
    """Run the full decay chain at each time on one grid configuration.

    Times at or below R are rejected up front, as are configurations
    whose certified window any requested time would leave.  In one
    dimension the identity loses its F term and the log-growth envelope
    does not apply, so the envelope and fitted-constant fields are NaN
    there; residuals and decay slacks are reported in both dimensions.
    """
    norms = moments(pair)
    if norms.weighted_h1 is None:
        raise ValueError("the decay chain needs finite weighted H1 data")
    ts = [float(t) for t in ts]
    r_eff = pair.effective_radius(1e-14)
    horizon = lam - r_eff - r_obs
    for t in ts:
        if t <= r_obs:
            raise ValueError(f"t={t:g} does not exceed R={r_obs:g}")
        if t > horizon:
            raise HorizonError(f"t={t:g} beyond the horizon {horizon:g}")

    virial = _Virial.of(pair)
    e0, k0 = virial.e0, virial.k0
    two_d = pair.dimension == 2
    c_assembled = upper_constant(norms, ts, consts) if two_d else math.nan

    evolve = grid_evolver(pair, lam, n_points)
    samples = []
    c_needed = 0.0 if two_d else math.nan
    min_f_slack = math.inf
    spectral_tail = math.nan
    for t in ts:
        field = evolve(t)
        e_r = local_energy(field, r_obs)
        f_val, g_val = flux_functionals(field)
        residual = virial.residual(t, field.energy(), f_val, g_val)
        spectral_tail = field.spectral_tail
        del field  # two snapshots at once would double the grid memory
        slack = prop41_check(e_r, f_val, t, r_obs, k0)
        m_t = l2_norm(pair, t, cfg)
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
        lam=lam,
        n_points=int(n_points),
        spectral_tail=spectral_tail,
    )
