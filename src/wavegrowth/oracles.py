"""Independent reference solvers used to validate the spectral pipeline.

Two oracles, neither taking the frequency-side path of the norms:

* a closed-form d'Alembert solver in one dimension.  Its norm is a
  physical-space integral, split at the translated data kinks, on the
  quadrature engine's Gauss-Legendre panels; it shares neither the Filon
  path nor the Plancherel reduction, and closed forms in the tests pin it;
* a periodic pseudo-spectral grid solver, exact in time, whose initial
  state is built in Fourier space from the continuum transforms.  One
  evolver per (pair, lam, N) builds that spectrum once; every time step
  then takes u, u_t and each partial derivative of u from the evolved
  spectrum by inverse FFTs alone, with no forward FFT.

The Fourier-space initialization matters: sampling an indicator on the
grid and transforming it aliases every frequency above the grid cutoff
and costs about 4e-4 of relative L2 error at feasible resolutions.
Seeding the discrete spectrum from the continuum transform at the grid
wavenumbers instead yields the exact band-limited periodization, whose
truncation error decays with the transform tail and sits far below the
tolerances used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import Profile, ProfilePair, ProfileError, _integrate_data

__all__ = [
    "HorizonError",
    "GridField",
    "dalembert_solve",
    "dalembert_l2",
    "grid_evolver",
    "grid_solve",
    "example_pair",
    "example_msq_closed",
    "verify_example",
    "ExampleRow",
]


class HorizonError(RuntimeError):
    """The requested time lets the wave reach the periodic boundary."""


# ------------------------------------------------------------- d'Alembert
def dalembert_solve(pair: ProfilePair, t: float, x) -> np.ndarray:
    """u(t, x) = (u0(x-t) + u0(x+t))/2 + (U(x+t) - U(x-t))/2 in 1D."""
    if pair.dimension != 1:
        raise ProfileError("the d'Alembert solver is one-dimensional")
    x = np.asarray(x, dtype=float)
    t = float(t)
    pos = 0.5 * (pair.u0.value(x - t) + pair.u0.value(x + t))
    vel = 0.5 * (pair.u1.antiderivative(x + t) - pair.u1.antiderivative(x - t))
    return pos + vel


def dalembert_l2(pair: ProfilePair, t: float) -> float:
    """||u(t, .)||_{L2(R)} by panel quadrature split at every translate of a data kink."""
    if pair.dimension != 1:
        raise ProfileError("the d'Alembert solver is one-dimensional")
    t = float(t)
    return math.sqrt(_integrate_data(lambda x: dalembert_solve(pair, t, x) ** 2, [pair.u0, pair.u1], shift=t))


# ------------------------------------------------------------ grid oracle
@dataclass
class GridField:
    """A solution snapshot on the periodic box [-lam, lam)^dimension.

    ``du`` holds the spectral partial derivatives of u, one array per
    axis; ``spectral_tail`` is the resolution certificate of the data
    spectra the snapshot was evolved from (see ``grid_evolver``).
    """

    dimension: int
    lam: float
    n_points: int
    t: float
    u: np.ndarray
    ut: np.ndarray
    r_eff: float | None = None
    du: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)
    spectral_tail: float | None = None

    @property
    def dx(self) -> float:
        return 2.0 * self.lam / self.n_points

    def axis(self) -> np.ndarray:
        return -self.lam + self.dx * np.arange(self.n_points)

    def horizon(self, r_obs: float = 0.0) -> float:
        """Latest time the ball of radius r_obs stays clear of image waves.

        The nearest periodic image of the data sits at distance 2*lam, so
        its wave first touches the observation ball at 2*lam - r_eff -
        r_obs.  Certifying the whole box is the r_obs = lam case, which
        is the gate grid_solve itself applies.
        """
        if self.r_eff is None:
            raise ValueError("field carries no data radius; horizon unknown")
        return 2.0 * self.lam - self.r_eff - r_obs

    def l2_norm(self) -> float:
        return math.sqrt(self.dx**self.dimension * float(np.sum(self.u * self.u)))

    def grad(self) -> tuple[np.ndarray, ...]:
        """Partial derivatives of u, one array of u's shape per axis."""
        if self.du is None:
            raise ValueError("field carries no gradient; evolve it with grid_evolver")
        return self.du

    def density(self, window=...) -> np.ndarray:
        """|u_t|^2 + |grad u|^2 on the cells ``window`` indexes (all by default)."""
        first, *rest = (g[window] for g in self.grad())
        dens = first * first
        for g in rest:
            dens += g * g
        dens += self.ut[window] * self.ut[window]
        return dens

    def energy(self) -> float:
        return 0.5 * self.dx**self.dimension * float(np.sum(self.density()))


def _signed_indices(dimension: int, n: int) -> list[np.ndarray]:
    """Integer frequency indices per axis in rfftn layout, broadcastable."""
    full = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    half = np.arange(n // 2 + 1, dtype=np.int64)
    if dimension == 1:
        return [half]
    return [full[:, None], half[None, :]]


def _wavenumbers(dimension: int, lam: float, n: int) -> list[np.ndarray]:
    scale = math.pi / lam
    return [scale * idx for idx in _signed_indices(dimension, n)]


def _spectral_init(p: Profile, lam: float, n: int) -> np.ndarray:
    """DFT coefficients whose inverse transform is the band-limited
    periodization of the profile on [-lam, lam)^dimension."""
    dim = p.dimension
    idx = _signed_indices(dim, n)
    ks = _wavenumbers(dim, lam, n)
    if dim == 1:
        ft = p.ft(ks[0])
        parity = idx[0]
    else:
        xi = np.stack(np.broadcast_arrays(ks[0] * np.ones_like(ks[1]), ks[1] * np.ones_like(ks[0])), axis=-1)
        ft = p.ft(xi)
        parity = idx[0] + idx[1]
    # the grid starts at -lam, hence the alternating phase e^{-i k lam}
    sign = np.where(parity % 2 == 0, 1.0, -1.0)
    return ft * sign * (n / (2.0 * lam)) ** dim


def _spectral_tail(spectra: list[np.ndarray], ks: list[np.ndarray]) -> float:
    """Largest |a| over the outer 10% of wavenumbers, relative to max |a|.

    The outer band holds every wavenumber whose largest component reaches
    0.9 of the Nyquist wavenumber; a well-resolved grid reads near zero.
    """
    cut = 0.9 * float(np.max(np.abs(ks[-1])))
    outer = np.abs(ks[0]) >= cut
    for k in ks[1:]:
        outer = outer | (np.abs(k) >= cut)
    tail = 0.0
    for a in spectra:
        mag = np.abs(a)
        peak = float(np.max(mag))
        if peak > 0.0:
            tail = max(tail, float(np.max(mag[outer])) / peak)
    return tail


def grid_evolver(pair: ProfilePair, lam: float, n_points: int):
    """Set up the periodic grid once; return ``evolve(t) -> GridField``.

    The data spectra, wavenumbers and |k| are built here, once.  Each
    ``evolve(t)`` advances the spectrum exactly in time and takes u, u_t
    and every partial derivative of u from it by inverse FFTs alone.  It
    refuses t < 0 and any t at which the wave support can touch the
    boundary, where the periodic solution stops agreeing with the free one.
    """
    lam = float(lam)
    n_points = int(n_points)
    dim = pair.dimension
    r_eff = pair.effective_radius(1e-14)
    a1 = _spectral_init(pair.u1, lam, n_points)
    a0 = _spectral_init(pair.u0, lam, n_points)
    ks = _wavenumbers(dim, lam, n_points)
    rho = np.abs(ks[0]) if dim == 1 else np.sqrt(ks[0] ** 2 + ks[1] ** 2)
    tail = _spectral_tail([a1, a0], ks)
    shape = (n_points,) * dim
    axes = tuple(range(dim))

    def evolve(t: float) -> GridField:
        t = float(t)
        if t < 0.0:
            raise ValueError("grid evolution needs t >= 0")
        if t >= lam - r_eff:
            raise HorizonError(
                f"t={t:g} reaches the boundary: support radius {r_eff:.2f} + t exceeds lam={lam:g}"
            )
        cos = np.cos(t * rho)
        ut = np.fft.irfftn(cos * a1 - rho * np.sin(t * rho) * a0, s=shape, axes=axes)
        w = t * np.sinc(t * rho / math.pi) * a1 + cos * a0
        u = np.fft.irfftn(w, s=shape, axes=axes)
        du = tuple(np.fft.irfftn(1j * k * w, s=shape, axes=axes) for k in ks)
        return GridField(dim, lam, n_points, t, u, ut, r_eff, du, tail)

    return evolve


def grid_solve(pair: ProfilePair, t: float, lam: float, n_points: int) -> GridField:
    """Evolve the pair to time t on a periodic grid: one step of ``grid_evolver``."""
    return grid_evolver(pair, lam, n_points)(t)


# ----------------------------------------------------- the worked example
def example_pair() -> ProfilePair:
    """Zero position, velocity 2 on [-1, 1]: every norm is closed form."""
    return ProfilePair(1, Profile.zero(1), Profile.indicator_interval(1.0, 2.0))


def example_msq_closed(t: float) -> float:
    """M(t)^2 = 8 (t - 1) + 16/3 once the two fronts separate (t > 2)."""
    if t <= 2.0:
        raise ValueError("closed form stated for t > 2 only")
    return 8.0 * (t - 1.0) + 16.0 / 3.0


@dataclass(frozen=True)
class ExampleRow:
    t: float
    m_closed: float
    m_dalembert: float
    m_spectral: float
    m_grid: float


def _grid_shape(t: float, r_eff: float, dx: float) -> tuple[float, int]:
    """Power-of-two box half-width lam clear of the wave at t, and a point count N of spacing <= dx."""
    lam = 2.0 ** math.ceil(math.log2(t + r_eff + 2.0))
    n = 2 ** math.ceil(math.log2(2.0 * lam / dx))
    return lam, n


def verify_example(t_values=(2.5, 5.0, 10.0, 100.0), cfg=None) -> list[ExampleRow]:
    """Closed form against all three solvers at the requested times."""
    from .spectral import l2_norm

    pair = example_pair()
    rows = []
    for t in t_values:
        t = float(t)
        m_closed = math.sqrt(example_msq_closed(t))
        m_d = dalembert_l2(pair, t)
        m_s = l2_norm(pair, t, cfg)
        lam, n = _grid_shape(t, pair.effective_radius(), 2e-3)
        m_g = grid_solve(pair, t, lam, n).l2_norm()
        rows.append(ExampleRow(t, m_closed, m_d, m_s, m_g))
    return rows
