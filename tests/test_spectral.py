import dataclasses
import itertools
import math

import numpy as np
import pytest

from _oracles import msq_gauss1d, msq_poly2d, trick_T_reference
from wavegrowth import spectral
from wavegrowth.bounds import MOMENT_COEFF
from wavegrowth.oracles import example_msq_closed
from wavegrowth.profiles import Profile, ProfileError, ProfilePair
from wavegrowth.quadrature import QuadConfig, QuadratureError
from wavegrowth.spectral import (
    ProofConstants,
    dt_multiplier,
    energy,
    frequency_split,
    l2_norm,
    moment_remainder,
    moment_remainder_ratio,
    multiplier_solution,
    norm_curve,
    norm_sq_samples,
    reduce_pair,
    wave_integrands,
)

TWO_PI = 2.0 * math.pi


def _norm_sq(pair, t, cfg=None):
    """The Fourier-side squared norm at one t: a batch of one."""
    (res,) = norm_sq_samples(pair, [t], cfg)
    return res


def _msq(pair, t, cfg=None):
    return _norm_sq(pair, t, cfg).value / TWO_PI**pair.dimension


# ------------------------------------------------- closed-form norm curves
@pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 50.0])
def test_gaussian_velocity_norm_curve_1d(gauss1d_vel, t):
    """Squared norm of the evolution of a unit 1D gaussian velocity follows
    pi t erf(t) + sqrt(pi)(exp(-t^2) - 1)."""
    assert _msq(gauss1d_vel, t) == pytest.approx(msq_gauss1d(t), rel=1e-12)


@pytest.mark.parametrize("t", [1.0, 5.0, 100.0, 1e6])
def test_mean_zero_velocity_norm_plateaus_2d(p0_2d, t):
    assert _msq(p0_2d, t) == pytest.approx(msq_poly2d(t), rel=1e-11)


def test_mean_zero_plateau_value(p0_2d):
    assert _msq(p0_2d, 1e6) == pytest.approx(math.pi / 32.0, rel=1e-5)


@pytest.mark.parametrize("t", [5.0, 50.0, 1000.0])
def test_gaussian_velocity_norm_curve_2d(gauss2d_vel, t):
    """The squared norm of a unit 2D gaussian velocity equals the running
    integral of the Dawson function scaled by 2 pi."""
    assert _msq(gauss2d_vel, t) == pytest.approx(trick_T_reference(t), rel=1e-11)


def test_example_norm_against_piecewise_value(example):
    # 8(t-1) + 16/3 once both fronts have fully separated
    assert _msq(example, 10.0) == pytest.approx(8.0 * 9.0 + 16.0 / 3.0, rel=1e-9)


def test_initial_norm_is_plancherel(gauss_pair_1d, gauss_pair_2d):
    for pair in (gauss_pair_1d, gauss_pair_2d):
        want = TWO_PI**pair.dimension * pair.u0.l2_sq()
        assert _norm_sq(pair, 0.0).value == pytest.approx(want, rel=1e-12)


def test_l2_norm_scaling(example):
    assert l2_norm(example, 10.0) == pytest.approx(math.sqrt(8.0 * 9.0 + 16.0 / 3.0), rel=1e-9)


def test_norm_curve_wraps_pointwise_values(example, gauss1d_vel, gauss2d_vel, p0_2d):
    """norm_curve integrates all its times as one batch; each entry must be
    what norm_sq_samples gives for that t alone, whatever the other times
    and their order."""
    ts = np.array([2.0, 10.0, 40.0, 1e3, 1e6])
    perm = np.array([3, 0, 4, 2, 1])
    for pair in (example, gauss1d_vel, gauss2d_vel, p0_2d):
        curve = norm_curve(pair, ts)
        assert curve.dimension == pair.dimension
        np.testing.assert_allclose(curve.t, ts)
        for i, t in enumerate(ts):
            one = _norm_sq(pair, float(t))
            assert curve.fourier_sq[i] == pytest.approx(one.value, rel=1e-13)
            assert curve.errors[i] == pytest.approx(one.error, rel=1e-13)
            assert curve.errors[i] >= 0.0
        np.testing.assert_allclose(curve.msq, curve.fourier_sq / TWO_PI**pair.dimension)
        np.testing.assert_allclose(curve.m, np.sqrt(curve.msq))
        permuted = norm_curve(pair, ts[perm])
        np.testing.assert_allclose(permuted.t, ts[perm])
        np.testing.assert_allclose(permuted.fourier_sq, curve.fourier_sq[perm], rtol=1e-13)
        np.testing.assert_allclose(permuted.errors, curve.errors[perm], rtol=1e-13)


def test_example_norm_matches_its_closed_form(example):
    """The Filon route on an actual norm evaluation, not just on toy
    integrands: the 1D Plancherel integral is 2 pi M(t)^2."""
    value = _norm_sq(example, 30.0).value
    assert value == pytest.approx(TWO_PI * example_msq_closed(30.0), rel=1e-8)


def test_parity_kills_the_cross_term(p0_2d):
    u0 = Profile.gaussian(2, 1.0, 0.8)
    mixed = ProfilePair(2, u0, p0_2d.u1)
    alone_u0 = ProfilePair(2, u0, Profile.zero(2))
    t = 7.0
    total = _msq(mixed, t)
    assert total == pytest.approx(_msq(alone_u0, t) + _msq(p0_2d, t), rel=1e-10)


def test_different_centers_are_rejected_2d():
    pair = ProfilePair(
        2,
        Profile.gaussian(2, 1.0, center=(0.5, 0.0)),
        Profile.gaussian(2, 1.0, center=(0.0, 0.5)),
    )
    with pytest.raises(ProfileError, match="center"):
        reduce_pair(pair)


# --------------------------------------------------------------- failures
@pytest.mark.parametrize(
    "pair, block",
    [
        (ProfilePair(1, Profile.indicator_interval(1.0), Profile.zero(1)), "[65536, 131072]"),
        (ProfilePair(2, Profile.indicator_disk(1.0), Profile.zero(2)), "[65536, 131072]"),
        (ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1e3)), "[0.0314159, 2]"),
    ],
    ids=["indicator_interval", "indicator_disk", "gaussian_sigma_1e3"],
)
def test_known_failures_name_the_first_block_over_budget(pair, block):
    """A transform that decays too slowly for the panel budget fails on the
    first block whose march breaks the budget, although one growth step
    marches every block up to the tail bound's truncation point at once."""
    with pytest.raises(QuadratureError) as info:
        l2_norm(pair, 1e3)
    assert str(info.value) == f"panel budget 32768 exceeded by the initial partition of {block}"


def test_a_failed_estimate_covers_its_summation_roundoff(gauss1d_vel):
    """Asked for a relative tolerance below roundoff, small times exhaust
    their budget with every tail block marched, so their error estimate
    holds no tail term; it still covers the true error, roundoff included."""
    ts = np.logspace(0.0, 4.0, 21)
    results = norm_sq_samples(gauss1d_vel, ts, QuadConfig(rel_tol=2e-15, max_panels=1024))
    failed = [(t, res) for t, res in zip(ts, results) if isinstance(res, QuadratureError)]
    assert 0 < len(failed) < len(ts)
    for t, res in failed:
        assert abs(TWO_PI * msq_gauss1d(t) - res.achieved) <= res.error_estimate


# --------------------------------------------------------- wave integrand
_AMPLITUDES = {
    "a1": lambda rho: np.exp(-0.25 * rho * rho) * (1.0 + rho),
    "a0": lambda rho: 1.0 / (1.0 + rho * rho),
    "cross": lambda rho: np.sin(rho) * np.exp(-rho / 3.0),
}


@pytest.mark.parametrize("n", [1, 2])
def test_wave_integrand_split_matches_pointwise(n):
    """G + C cos(2 t rho) + S sin(2 t rho) is the integrand
    rho^{n-1} [sin^2(t rho)/rho^2 a1 + cos^2(t rho) a0 + sin(2 t rho)/rho X]
    for every combination of amplitudes, with absent parts as zeros."""
    rho = np.linspace(0.05, 20.0, 401)
    ts = [0.5, 3.0, 40.0]
    hint = lambda r: np.ones(np.shape(r))
    for k in (1, 2, 3):
        for names in itertools.combinations(_AMPLITUDES, k):
            spectrum = lambda r, names=names: tuple(_AMPLITUDES[k](r) if k in names else None for k in _AMPLITUDES)
            for t, f in zip(ts, wave_integrands(n, ts, hint, spectrum)):
                assert f.omega == 2.0 * t
                g, c, s = (np.zeros(rho.shape) if v is None else v for v in f.amplitudes(rho))
                split = g + c * np.cos(2.0 * t * rho) + s * np.sin(2.0 * t * rho)
                scale = np.abs(g) + np.abs(c) + np.abs(s)
                # both sides round the phase, which float64 carries to eps * 2 t rho
                tol = (1e-13 + 2.0 * np.finfo(float).eps * 2.0 * t * rho) * scale
                assert np.all(np.abs(f.pointwise(rho, f.omega) - split) <= tol), (n, names, t)


def test_a_norm_curve_samples_each_amplitude_point_once(monkeypatch, gauss2d_vel):
    """A1 is sampled once per point of the norm integrand: 16,720 points in
    the pointwise zones of 25 times in [1e2, 1e6] and 8,912 on their Filon
    panels, although both G and C carry it (34,544 points when each part
    sampled it on its own)."""
    sq_points = []
    real_sq = Profile.sq_ft_sphere

    def sq_ft_sphere(self, rho):
        sq_points.append(np.size(rho))
        return real_sq(self, rho)

    points = {"pointwise": [], "amplitudes": []}

    def counting(role, fn):
        def wrapper(rho, *args):
            points[role].append(np.size(rho))
            return fn(rho, *args)

        return wrapper

    real_build = spectral.wave_integrands

    def build(*args):
        fs = real_build(*args)
        counted = {role: counting(role, getattr(fs[0], role)) for role in points}
        return [dataclasses.replace(f, **counted) for f in fs]

    monkeypatch.setattr(Profile, "sq_ft_sphere", sq_ft_sphere)
    monkeypatch.setattr(spectral, "wave_integrands", build)
    norm_curve(gauss2d_vel, np.geomspace(1e2, 1e6, 25))
    assert (sum(points["pointwise"]), sum(points["amplitudes"])) == (16_720, 8_912)
    assert sum(sq_points) == 16_720 + 8_912


def test_wave_integrands_share_their_amplitudes():
    """All times share one amplitude callable and one pointwise callable,
    so a batch evaluates each with one call per sweep."""
    hint = lambda r: np.ones(np.shape(r))
    spectrum = lambda r: (_AMPLITUDES["a1"](r), _AMPLITUDES["a0"](r), None)
    fs = wave_integrands(2, [0.5, 3.0, 40.0], hint, spectrum)
    for f in fs[1:]:
        assert f.amplitudes is fs[0].amplitudes
        assert f.pointwise is fs[0].pointwise
        assert f.width_hint is hint


# ------------------------------------------------------------- multiplier
def test_multiplier_at_zero_frequency_is_sinc_safe(example):
    w = multiplier_solution(example, 10.0, np.array(0.0))
    assert complex(w) == pytest.approx(40.0 + 0.0j, rel=1e-14)


def test_multiplier_vanishes_at_transform_zeros(example):
    # the velocity transform vanishes at |xi| = pi
    for t in (0.3, 4.0, 17.0):
        assert abs(complex(multiplier_solution(example, t, np.array(math.pi)))) <= 1e-12


def test_multiplier_continuous_near_zero_frequency(gauss_pair_2d):
    t = 3.0
    at_zero = complex(multiplier_solution(gauss_pair_2d, t, np.zeros(2)))
    for a in np.linspace(0.0, TWO_PI, 10, endpoint=False):
        xi = 1e-9 * np.array([math.cos(a), math.sin(a)])
        assert abs(complex(multiplier_solution(gauss_pair_2d, t, xi)) - at_zero) <= 1e-6


def test_time_derivative_multiplier(gauss_pair_1d):
    xi = np.array([0.7, 1.9])
    np.testing.assert_allclose(
        dt_multiplier(gauss_pair_1d, 0.0, xi), gauss_pair_1d.u1.ft(xi), rtol=1e-13
    )
    h = 1e-5
    t = 2.3
    num = (
        multiplier_solution(gauss_pair_1d, t + h, xi) - multiplier_solution(gauss_pair_1d, t - h, xi)
    ) / (2.0 * h)
    np.testing.assert_allclose(dt_multiplier(gauss_pair_1d, t, xi), num, rtol=1e-8)


# ----------------------------------------------------------------- energy
def test_energy_is_conserved(example, gauss2d_vel):
    """Values across times share one frequency partition, so the drift is
    roundoff even when the absolute truncation error is visible (the
    indicator velocity has a slowly decaying spectral tail, and the
    reported error bound owns that truncation)."""
    ts = [0.0, 1.0, 10.0, 100.0, 1000.0]
    for pair, e0_closed in ((example, 4.0), (gauss2d_vel, math.pi / 2.0)):
        res = energy(pair, ts)
        assert abs(res.values[0] - e0_closed) <= res.error * (1.0 + 1e-9)
        drift = np.max(np.abs(res.values - res.values[0])) / res.values[0]
        assert drift <= 1e-8
    tight = energy(gauss2d_vel, ts)
    assert tight.values[0] == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert tight.error <= 1e-12


def test_energy_of_mixed_data(gauss_pair_1d, gauss_pair_2d):
    for pair in (gauss_pair_1d, gauss_pair_2d):
        want = 0.5 * (pair.u1.l2_sq() + pair.u0.grad_l2_sq())
        res = energy(pair, [0.0, 3.0])
        assert res.values[0] == pytest.approx(want, rel=1e-9)
        assert res.values[1] == pytest.approx(want, rel=1e-9)


def test_energy_rejects_non_h1_position():
    pair = ProfilePair(2, Profile.indicator_disk(1.0), Profile.gaussian(2, 1.0))
    with pytest.raises(ProfileError, match="H1"):
        energy(pair, [0.0, 1.0])


def test_energy_of_zero_data_is_zero():
    pair = ProfilePair(1, Profile.zero(1), Profile.zero(1))
    np.testing.assert_array_equal(energy(pair, [0.0, 5.0]).values, [0.0, 0.0])


# -------------------------------------------------------- frequency split
def test_frequency_split_is_additive(example, gauss2d_vel, consts):
    for pair, t in ((example, 100.0), (gauss2d_vel, 1e3)):
        low, high = frequency_split(pair, t, consts)
        total = _norm_sq(pair, t).value
        assert low.value + high.value == pytest.approx(total, rel=1e-8)
        assert low.value > 0.0 and high.value > 0.0


def test_frequency_split_needs_large_time(example, consts):
    with pytest.raises(ValueError, match="delta0"):
        frequency_split(example, 0.5, consts)


# -------------------------------------------------------- proof constants
def test_proof_constants_are_verified_on_construction():
    pc = ProofConstants()
    assert pc.delta0 == 0.99
    assert pc.low_cut(10.0) == pytest.approx(0.099)
    with pytest.raises(ValueError, match="t > 0"):
        pc.low_cut(0.0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        ProofConstants(delta0=1.5)


# -------------------------------------------------------- moment remainder
def test_moment_remainder_of_example_velocity(example):
    u1 = example.u1
    got = complex(moment_remainder(u1, np.array(1.0)))
    assert got == pytest.approx(4.0 * (math.sin(1.0) - 1.0) + 0.0j, rel=1e-13)
    assert complex(moment_remainder(u1, np.array(0.0))) == 0.0
    ratio = float(moment_remainder_ratio(u1, np.array(1.0)))
    assert ratio == pytest.approx(4.0 * (1.0 - math.sin(1.0)) / 6.0, rel=1e-12)


def test_moment_remainder_ratio_is_uniformly_bounded(example):
    xi = np.linspace(-40.0, 40.0, 2001)
    xi = xi[xi != 0.0]
    sup = float(np.max(moment_remainder_ratio(example.u1, xi)))
    assert sup <= MOMENT_COEFF + 1e-9


def test_moment_remainder_needs_mass():
    with pytest.raises(ProfileError, match="mass"):
        moment_remainder_ratio(Profile.zero(1), np.array(1.0))
