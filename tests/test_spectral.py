import dataclasses
import itertools
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from _oracles import (
    decay_integrals_reference,
    gauss_overlap,
    msq_gauss1d,
    msq_gauss1d_position,
    msq_gauss2d_position,
    msq_intervals,
    msq_poly2d,
    trick_T_reference,
    wave_integrand,
)
from wavegrowth import local_energy, oracles, profiles, quadrature, spectral
from wavegrowth.bounds import MOMENT_COEFF, envelopes, sandwich_report, term_checks, trick_T
from wavegrowth.oracles import example_msq_closed
from wavegrowth.profiles import Profile, ProfileError, ProfilePair, moments
from wavegrowth.quadrature import QuadConfig, QuadResult, QuadratureError
from wavegrowth.spectral import (
    energy,
    l2_norm,
    moment_remainder,
    moment_remainder_ratio,
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


def _filon_curve(pair, ts, cfg=None):
    """The norm at each t on the Filon path alone: the engine on the pair's
    norm integrands, which ``norm_sq_samples`` integrates for times below the
    large-t expansion's switch; 1D step data take d'Alembert's law at every
    t there instead."""
    red = reduce_pair(pair)
    return spectral.integrate_batch(red.integrands(ts), 0.0, math.inf, cfg, red.tail)


def _msq(pair, t, cfg=None):
    return _norm_sq(pair, t, cfg).value / TWO_PI**pair.dimension


# ------------------------------------------------- closed-form norm curves
@pytest.mark.parametrize("t", [0.5, 2.0, 10.0, 50.0, 1e4, 1e6])
def test_gaussian_velocity_norm_curve_1d(gauss1d_vel, t):
    """Squared norm of the evolution of a unit 1D gaussian velocity follows
    pi t erf(t) + sqrt(pi)(exp(-t^2) - 1)."""
    assert _msq(gauss1d_vel, t) == pytest.approx(msq_gauss1d(t), rel=1e-12)


@pytest.mark.parametrize("t", [1.0, 5.0, 100.0, 1e6])
def test_mean_zero_velocity_norm_plateaus_2d(p0_2d, t):
    assert _msq(p0_2d, t) == pytest.approx(msq_poly2d(t), rel=1e-11)


def test_mean_zero_plateau_value(p0_2d):
    assert _msq(p0_2d, 1e6) == pytest.approx(math.pi / 32.0, rel=1e-5)


@pytest.mark.parametrize("t", [5.0, 50.0, 1000.0, 1e5, 1e6])
def test_gaussian_velocity_norm_curve_2d(gauss2d_vel, t):
    """The squared norm of a unit 2D gaussian velocity equals the running
    integral of the Dawson function scaled by 2 pi."""
    assert _msq(gauss2d_vel, t) == pytest.approx(trick_T_reference(t), rel=1e-11)


def test_example_norm_against_piecewise_value(example):
    # 8(t-1) + 16/3 once both fronts have fully separated
    for t in (10.0, 1e6):
        assert _msq(example, t) == pytest.approx(8.0 * (t - 1.0) + 16.0 / 3.0, rel=1e-9)


def test_initial_norm_is_plancherel(gauss_pair_1d, gauss_pair_2d):
    for pair in (gauss_pair_1d, gauss_pair_2d):
        want = TWO_PI**pair.dimension * pair.u0.l2_sq()
        assert _norm_sq(pair, 0.0).value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["gauss2d_vel", "p0_2d"])
def test_velocity_only_data_start_at_zero_norm_2d(request, name):
    """u(0) = u0 = 0 for velocity-only data.  At t = 0 the norm integrand's
    parts G and C cancel exactly, and the rule there integrates G + C, so
    its error indicator is that of G + C: M(0) is exactly zero, not a
    panel budget exhausted on two cancelling indicators."""
    pair = request.getfixturevalue(name)
    assert l2_norm(pair, 0.0) == 0.0
    (res,) = norm_sq_samples(pair, [0.0])
    assert res.value == 0.0 and res.panels < 100


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
    integrands: the 1D Plancherel integral is 2 pi M(t)^2.  ``norm_sq_samples``
    takes t = 30 from d'Alembert's step law, so the norm integrand is
    integrated here directly."""
    (res,) = _filon_curve(example, [30.0])
    value = res.value
    assert value == pytest.approx(TWO_PI * example_msq_closed(30.0), rel=1e-8)


def test_parity_kills_the_cross_term(p0_2d):
    u0 = Profile.gaussian(2, 1.0, 0.8)
    mixed = ProfilePair(2, u0, p0_2d.u1)
    alone_u0 = ProfilePair(2, u0, Profile.zero(2))
    t = 7.0
    total = _msq(mixed, t)
    assert total == pytest.approx(_msq(alone_u0, t) + _msq(p0_2d, t), rel=1e-10)


def test_different_centers_are_rejected_2d():
    """Only an m = 1 transform (the polynomial gaussian) against a shifted
    profile is rejected: its cross term needs Graf's J1 term.  At a common
    centre the pair computes, its cross term vanishing by parity."""
    odd, shifted = Profile.polynomial_gaussian(2, 1.0), Profile.gaussian(2, 1.0, center=(0.5, 0.0))
    for u0, u1 in ((shifted, odd), (odd, shifted)):
        with pytest.raises(ProfileError, match="polynomial_gaussian.*another center.*Graf's J1"):
            reduce_pair(ProfilePair(2, u0, u1))
    assert _msq(ProfilePair(2, Profile.gaussian(2, 1.0), odd), 3.0) > 0.0


def _shifted_2d(offset, base=(0.0, 0.0)):
    """u0 a sigma = 1 gaussian at base + offset, u1 a sigma = 0.7, amplitude -1.3 gaussian at base."""
    c0 = (base[0] + offset[0], base[1] + offset[1])
    return ProfilePair(2, Profile.gaussian(2, 1.0, center=c0), Profile.gaussian(2, 0.7, -1.3, center=base))


@pytest.mark.parametrize("d", [1.0, 3.0, 8.0])
def test_a_shifted_2d_pair_matches_the_grid(d):
    """The cross term of two gaussians d apart is the sphere average 2 pi
    J0(rho d) Re(g1 conj g0): M(t) agrees with the grid oracle to 1e-12
    relative at small t, and a 45 degree turn of the offset keeps the bits;
    at t = 0 the cross term drops out and M(0) = ||u0|| within its error."""
    pair = _shifted_2d((d, 0.0))
    evolve = oracles.grid_evolver(pair, 48.0, 1024)
    for t in (0.5, 2.0, 6.0):
        m = l2_norm(pair, t)
        assert abs(m - evolve(t).l2_norm()) <= 1e-12 * m, t
        assert l2_norm(_shifted_2d((d / math.sqrt(2.0), d / math.sqrt(2.0))), t) == pytest.approx(m, rel=1e-15)
    (res,) = norm_sq_samples(pair, [0.0])
    assert abs(res.value - TWO_PI**2 * pair.u0.l2_sq()) <= res.error


def test_a_shifted_2d_pair_forgets_its_distance():
    """The cross term decays in t, so at t = 1e4 M^2 does not depend on the
    distance of the centres, within the two error bars."""
    res = [norm_sq_samples(_shifted_2d((d, 0.0)), [1e4])[0] for d in (1.0, 3.0, 8.0)]
    for a, b in itertools.combinations(res, 2):
        assert abs(a.value - b.value) <= a.error + b.error
    # at t = 1 the distance still shows, far beyond the error bars
    near = [norm_sq_samples(_shifted_2d((d, 0.0)), [1.0])[0] for d in (1.0, 8.0)]
    assert abs(near[0].value - near[1].value) > 1e3 * (near[0].error + near[1].error)


@settings(max_examples=15, deadline=None)
@given(
    d=st.floats(0.2, 6.0),
    angle=st.floats(0.0, TWO_PI),
    base=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    ts=st.lists(st.floats(0.0, 4.0).map(lambda e: 10.0**e - 1.0), min_size=1, max_size=4),
)
def test_a_shifted_2d_pair_depends_only_on_its_distance(d, angle, base, ts):
    """Rotating the offset of the centres, or translating both, leaves every
    sample unchanged to roundoff (within the two error bars)."""
    want = norm_sq_samples(_shifted_2d((d, 0.0)), ts)
    got = norm_sq_samples(_shifted_2d((d * math.cos(angle), d * math.sin(angle)), base), ts)
    for a, b in zip(want, got):
        assert abs(a.value - b.value) <= a.error + b.error + 1e-14 * abs(a.value)


# --------------------------------------------------------------- failures
@pytest.mark.parametrize(
    "pair, t, message",
    [
        (ProfilePair(1, Profile.indicator_interval(1.0), Profile.gaussian(1, 1.0)), 0.5, "exceeded by the tail march over [2, 360.068]"),
        (ProfilePair(2, Profile.indicator_disk(1.0), Profile.zero(2)), 1e3, "exceeded by the tail march over [2, 58982.6]"),
        (ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1e3)), 1e3, "exceeded by the initial partition of [0, 2]"),
    ],
    ids=["indicator_interval", "indicator_disk", "gaussian_sigma_1e3"],
)
def test_known_failures_name_the_first_block_over_budget(pair, t, message):
    """A transform that decays too slowly for the panel budget fails on the
    march that breaks the budget, and the message names the range that
    march covered: the initial partition, or the one tail march from the
    first block's end, which runs to the budget in one growth step.  Either
    way the failure comes in well under half a second of process time.  The
    interval position fails against a gaussian velocity, which has no
    closed form with it; alone or against another interval it takes
    d'Alembert's law at every t, with no panel."""
    start = time.process_time()
    with pytest.raises(QuadratureError) as info:
        l2_norm(pair, t)
    assert time.process_time() - start < 0.5
    assert str(info.value) == f"panel budget 32768 {message}"


def test_a_look_ahead_beyond_the_budget_fails_no_norm():
    """The unit velocity on the disk of radius 100 has a closed-form part so
    small against its total that the tail march to the part's tolerance
    would break the panel budget; the look-ahead then keeps the first block
    and M(1) computes, between t sqrt(pi) (R - t), the inner disk where u =
    t, and t ||u1|| = t sqrt(pi) R."""
    radius, t = 100.0, 1.0
    m = l2_norm(ProfilePair(2, Profile.zero(2), Profile.indicator_disk(radius)), t)
    assert t * math.sqrt(math.pi) * (radius - t) <= m <= t * math.sqrt(math.pi) * radius


def test_a_failed_estimate_covers_its_summation_roundoff(gauss1d_vel):
    """Asked for a relative tolerance below roundoff, small times exhaust
    their budget with every tail block marched, so their error estimate
    holds no tail term; it still covers the true error, roundoff included."""
    ts = np.logspace(0.0, 4.0, 21)
    results = norm_sq_samples(gauss1d_vel, ts, QuadConfig(abs_tol=1e-300, rel_tol=5e-17, max_panels=1024))
    failed = [(t, res) for t, res in zip(ts, results) if isinstance(res, QuadratureError)]
    assert 0 < len(failed) < len(ts)
    for t, res in failed:
        assert abs(TWO_PI * msq_gauss1d(t) - res.achieved) <= res.error_estimate


# --------------------------------------------------------- wave integrand
_AMPLITUDES = {
    "a1": lambda rho: np.exp(-0.25 * rho * rho) * (1.0 + rho),
    "a0": lambda rho: 1.0 / (1.0 + rho * rho),
    "cross": lambda rho: np.cos(rho) * np.exp(-rho / 3.0),
}


def _reference_part(n, t, rho, singular):
    """The part of a norm integrand that ``singular`` takes in closed form, at rho."""
    y = singular.kappa * rho
    phi = np.exp(-y) * ((1.0 + y) if n == 1 else 1.0)
    part = 0.5 * singular.a1 * rho ** (n - 3) * phi * (1.0 - np.cos(2.0 * t * rho))
    return part + (singular.cross * np.exp(-y) * np.sin(2.0 * t * rho) / rho if n == 1 else 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_wave_integrand_split_matches_pointwise(n):
    """G + C cos(2 t rho) + S sin(2 t rho), plus the reference part that
    the closed form integrates when a1(0) != 0, is the integrand written
    out directly (``_oracles.wave_integrand``), for every combination of
    amplitudes, with absent parts as zeros; and the closed form over
    [x1, x2] is the integral of that reference part."""
    from scipy.integrate import quad

    rho = np.linspace(0.05, 20.0, 401)
    ts = [0.5, 3.0, 40.0]
    hint = lambda r: np.ones(np.shape(r))
    kappa = 1.7
    for k in (1, 2, 3):
        for names in itertools.combinations(_AMPLITUDES, k):
            full = {name: (_AMPLITUDES[name] if name in names else None) for name in _AMPLITUDES}
            a1_0 = 1.0 if full["a1"] else 0.0
            cross_0 = 1.0 if full["cross"] and n == 1 and a1_0 else 0.0
            singular = spectral._Singular(n, kappa, a1_0, cross_0) if a1_0 else None
            phi = lambda r: np.exp(-kappa * r) * ((1.0 + kappa * r) if n == 1 else 1.0)
            rest = {
                "a1": full["a1"] and (lambda r: full["a1"](r) - a1_0 * phi(r)),
                "a0": full["a0"],
                "cross": full["cross"] and (lambda r: full["cross"](r) - cross_0 * np.exp(-kappa * r)),
            }
            spectrum = lambda r: tuple(None if f is None else f(r) for f in rest.values())
            for t, f in zip(ts, wave_integrands(n, ts, hint, spectrum, singular)):
                assert f.omega == 2.0 * t and (f.closed_form is None) == (singular is None)
                g, c, s = (np.zeros(rho.shape) if v is None else v for v in f.amplitudes(rho))
                split = g + c * np.cos(2.0 * t * rho) + s * np.sin(2.0 * t * rho)
                scale = np.abs(g) + np.abs(c) + np.abs(s)
                if singular is not None:
                    extra = _reference_part(n, t, rho, singular)
                    split, scale = split + extra, scale + np.abs(extra)
                direct = wave_integrand(n, t, rho, *(None if fn is None else fn(rho) for fn in full.values()))
                # both sides round the phase, which float64 carries to eps * 2 t rho
                tol = (1e-13 + 2.0 * np.finfo(float).eps * 2.0 * t * rho) * scale
                assert np.all(np.abs(direct - split) <= tol), (n, names, t)
                if singular is None:
                    continue
                ends = np.array([0.0, 0.3, 2.0, 5.0])
                value, roundoff = f.closed_form(np.append(ends, np.inf), np.full(ends.size + 1, f.omega))
                part = lambda r: float(_reference_part(n, t, np.array([r]), singular)[0])
                for (a, b), got in zip(zip(ends, [*ends[1:], np.inf]), np.diff(value)):
                    want = quad(part, a, b, limit=2000, epsabs=1e-13, epsrel=1e-12)[0]
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-11), (n, names, t, a, b)
                assert np.all(roundoff >= 0.0) and np.all(roundoff <= 1e-14 * np.maximum(np.abs(value), 1.0))


_SWITCHES = [(r, y) for r in (0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9), 3.0) for y in (1.0, 2.0 * (1 - 1e-9), 2.0 * (1 + 1e-9))]


@pytest.mark.parametrize("kappa", [0.37, 4000.0])
def test_closed_forms_match_mpmath(kappa):
    """The three closed-form integrals on [0, x] and [0, inf) agree with
    40-digit mpmath to 1e-14 relative, for b/kappa in [1e-3, 1e6] and
    kappa x in [1e-8, 50] and on both sides of every branch switch: |z| =
    5, b/kappa = 1/2 and kappa x = 2."""
    grid = [(r, y) for r in np.geomspace(1e-3, 1e6, 13) for y in [*np.geomspace(1e-8, 50.0, 12), math.inf]]
    near_five = [(r, 5.0 * f / math.hypot(1.0, r)) for r in (0.3, 0.5 * (1 + 1e-9), 2.0, 40.0) for f in (1 - 1e-9, 1 + 1e-9)]
    points = grid + near_five + _SWITCHES
    r, y = (np.array(v) for v in zip(*points))
    b, x = r * kappa, y / kappa
    cos_part, sin_part = (np.array(v) for v in zip(*(spectral._decay_integrals(*point, kappa=kappa) for point in zip(b, x))))
    (value, _), (cross, _) = (spectral._Singular(1, kappa, a1, c).closed_form(x, b) for a1, c in ((2.0, 0.0), (0.0, 1.0)))
    for i, point in enumerate(zip(b, x)):
        want = decay_integrals_reference(point[0], kappa, point[1])
        got = (cos_part[i], sin_part[i], value[i])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), (r[i], y[i])
        assert cross[i] == sin_part[i]
    # 2D is half the cosine integral times a1(0); b = 0 and x = 0 give zero
    (two, _) = spectral._Singular(2, kappa, 3.0).closed_form(x, b)
    assert np.array_equal(two, 1.5 * cos_part)
    (zero, _) = spectral._Singular(1, kappa, 1.0, 1.0).closed_form(np.array([0.0, 1.0, np.inf]), np.array([5.0, 0.0, 0.0]))
    assert np.array_equal(zero, np.zeros(3))


def test_a_norm_curve_samples_each_amplitude_point_once(monkeypatch, gauss2d_vel):
    """The A1 deficit is sampled once per point of the norm integrand on the
    Filon path: 272 points, the 17 panels that 25 times in [1e2, 1e6] share, although both
    G and C carry it and every time needs them.  Every time keeps the same
    prefix of the one march of its last block, [4, 8]."""
    sq_points = []
    real_sq = Profile.sq_ft_sphere_deficit

    def sq_ft_sphere_deficit(self, rho):
        sq_points.append(np.size(rho))
        return real_sq(self, rho)

    points = []
    real_build = spectral.wave_integrands

    def build(*args):
        fs = real_build(*args)

        def counted(rho, fn=fs[0].amplitudes):
            points.append(np.size(rho))
            return fn(rho)

        return [dataclasses.replace(f, amplitudes=counted) for f in fs]

    monkeypatch.setattr(Profile, "sq_ft_sphere_deficit", sq_ft_sphere_deficit)
    monkeypatch.setattr(spectral, "wave_integrands", build)
    _filon_curve(gauss2d_vel, np.geomspace(1e2, 1e6, 25))
    assert sum(points) == 272
    assert sum(sq_points) == 272


def test_wave_integrands_share_their_amplitudes():
    """All times share one amplitude callable and one closed-form callable,
    so a batch evaluates each with one call per sweep."""
    hint = lambda r: np.ones(np.shape(r))
    spectrum = lambda r: (_AMPLITUDES["a1"](r), _AMPLITUDES["a0"](r), None)
    fs = wave_integrands(2, [0.5, 3.0, 40.0], hint, spectrum, spectral._Singular(2, 1.7, 1.0))
    for f in fs[1:]:
        assert f.amplitudes is fs[0].amplitudes
        assert f.closed_form is fs[0].closed_form
        assert f.width_hint is hint


def test_norm_integrands_do_not_depend_on_the_batch(example, gauss1d_vel, gauss_pair_1d, gauss2d_vel, gauss_pair_2d, p0_2d):
    """Norm integrands with and without a closed-form part, over [0, inf)
    and over the blocks of a frequency split, give the same bits alone, in
    one batch and in seeded permutations of it."""
    rows = []
    for pair in (example, gauss1d_vel, gauss_pair_1d, gauss2d_vel, gauss_pair_2d, p0_2d):
        red = reduce_pair(pair)
        for t, f in zip((3.0, 40.0, 7e3), red.integrands([3.0, 40.0, 7e3])):
            cut = 0.99 / t
            rows += [(f, 0.0, math.inf, red.tail), (f, 0.0, cut, None), (f, cut, math.inf, red.tail)]
    bits = lambda res: (res.value.hex(), res.error.hex(), res.panels)
    alone = [bits(spectral.integrate_batch([f], lo, hi, QuadConfig(), tail)[0]) for f, lo, hi, tail in rows]
    rng = np.random.default_rng(23)
    for order in (np.arange(len(rows)), rng.permutation(len(rows))):
        fs, los, his, tails = zip(*[rows[i] for i in order])
        together = spectral.integrate_batch(fs, los, his, QuadConfig(), list(tails))
        assert [bits(res) for res in together] == [alone[i] for i in order]


def _result_bits(res):
    """A QuadResult's value, error and panels, or a QuadratureError's message, estimate and error, as bits."""
    if isinstance(res, QuadratureError):
        return str(res), float(res.achieved).hex(), float(res.error_estimate).hex()
    return res.value.hex(), res.error.hex(), res.panels


_NORM_FAMILIES = {
    "gauss1d": lambda scale, a: ProfilePair(1, Profile.zero(1), Profile.gaussian(1, scale, a)),
    "gauss2d": lambda scale, a: ProfilePair(2, Profile.zero(2), Profile.gaussian(2, scale, a)),
    "poly2d": lambda scale, a: ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, scale, a)),
    "indicator1d": lambda scale, a: ProfilePair(1, Profile.zero(1), Profile.indicator_interval(scale, a)),
}


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(sorted(_NORM_FAMILIES)),
    scale=st.floats(0.5, 2.0),
    amplitude=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    ts=st.lists(st.floats(0.0, 6.0).map(lambda e: 10.0**e), min_size=2, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_a_norm_family_gives_each_time_its_bits_alone(family, scale, amplitude, ts, seed):
    """The times of a catalog norm curve are one family of one batch, with
    one march, one ladder of tail values and one node per distinct panel;
    each time still gets the bits and panel count it gets alone, and the
    batch gives them in any order of the times."""
    pair = _NORM_FAMILIES[family](scale, amplitude)
    alone = [_result_bits(norm_sq_samples(pair, [t])[0]) for t in ts]
    assert [_result_bits(res) for res in norm_sq_samples(pair, ts)] == alone
    order = np.random.default_rng(seed).permutation(len(ts))
    assert [_result_bits(res) for res in norm_sq_samples(pair, [ts[i] for i in order])] == [alone[i] for i in order]


def test_a_2d_pair_samples_each_radial_transform_once_per_point(monkeypatch, gauss_pair_2d):
    """With both profiles nonzero, the norm spectrum takes a0, the cross term
    and (without a closed form at rho = 0) a1 from one sample of g1 and one
    of g0 per point: the norm integrands of a radial batch at t = 6, 20, 40
    made g1 and g0 see 1280 points in all, where sampling g0 once more for
    a0 made 1824 (1216 before each infinite range marched its tail ahead of
    its first sweep).  Since t = 20 and 40 take the large-t expansion,
    which is closed form, the norm rows are t = 6's integrand alone (40
    panels): 16 * 40 points for each of g1 and g0, 1280 in all.  The decay
    chain's own transforms are left out, and so are the g(0) that the
    expansion reads, taken before counting."""
    gauss_pair_2d.u1._g0, gauss_pair_2d.u0._g0
    points = []
    real = Profile.polar_factor

    def polar_factor(self):
        m, g = real(self)
        if sys._getframe(1).f_code.co_name == "_radial_values":
            return m, g

        def counted(rho):
            points.append(np.size(rho))
            return g(rho)

        return m, counted

    monkeypatch.setattr(Profile, "polar_factor", polar_factor)
    local_energy._radial_values(gauss_pair_2d, (6.0, 20.0, 40.0), np.linspace(0.25, 5.0, 7))
    assert sum(points) == 1280
    points.clear()
    norm_sq_samples(gauss_pair_2d, (6.0, 20.0, 40.0))
    assert sum(points) == 1280


# ----------------------------------------------------------------- energy
def test_energy_is_conserved(example, gauss2d_vel):
    """A free wave's E(t) is its E(0), so ``energy`` takes no time: one
    integral of the data's spectrum, against the closed-form E(0) within an
    error the configured tolerance bounds.  The indicator velocity's slowly
    decaying tail cannot meet the tolerance within the panel budget, and
    the integral fails rather than accept a truncation.  A config that asks
    for 1e-13 relative gets the gaussian's E to 1e-12."""
    cfg = QuadConfig()
    res = energy(gauss2d_vel, cfg)
    assert abs(res.value - math.pi / 2.0) <= res.error <= cfg.target(res.value)
    tight = energy(gauss2d_vel, QuadConfig(rel_tol=1e-13))
    assert tight.value == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert tight.error <= 1e-12
    with pytest.raises(QuadratureError, match="panel budget .* tail march"):
        energy(example, cfg)


def _energy_profile(dimension, kind, sigma, amplitude, center):
    if kind == "gaussian":
        return Profile.gaussian(dimension, sigma, amplitude, center=center[:dimension])
    return Profile.polynomial_gaussian(dimension, sigma, amplitude)


_ENERGY_PROFILE = st.tuples(
    st.sampled_from(["gaussian", "polynomial_gaussian"]),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), u0=_ENERGY_PROFILE, u1=_ENERGY_PROFILE)
def test_energy_of_mixed_data(dimension, u0, u1):
    """The spectral energy of gaussian and polynomial-gaussian data, with
    signed amplitudes and random centres (in 2D also different ones), is
    the closed-form E(0) within its own error bar, which the configured
    tolerance bounds."""
    pair = ProfilePair(dimension, _energy_profile(dimension, *u0), _energy_profile(dimension, *u1))
    cfg = QuadConfig()
    res = energy(pair, cfg)
    assert abs(res.value - local_energy.initial_energy(pair)) <= res.error <= cfg.target(res.value)


# ``energy`` (value, error, panels) on the gaussian catalog families at
# scales 0.1, 1 and 10: its one omega = 0 entry of the engine keeps the bits
# it had as a single-range smooth integral
ENERGY_BITS = {
    "gaussian 1D position": [
        ("0x1.1b97b5b1115a1p+2", "0x1.30d9baba1db0bp-40", 29),
        ("0x1.c5bf891b4ef6cp-2", "0x1.cd6b8a8032c8cp-36", 25),
        ("0x1.6affa0e2a591fp-5", "0x1.711dabf33650ap-39", 119),
    ],
    "gaussian 1D velocity": [
        ("0x1.6affa0e2a5920p-4", "0x1.3a65adbd3f363p-49", 26),
        ("0x1.c5bf891b4ef6bp-1", "0x1.fa369bc88ddc2p-39", 25),
        ("0x1.1b97b5b1115a1p+3", "0x1.3c4615a646bbcp-35", 119),
    ],
    "gaussian 2D position": [
        ("0x1.921fb54442d17p+0", "0x1.2b985ab8cd2c3p-41", 29),
        ("0x1.921fb54442d16p+0", "0x1.f74b58eb6cfd0p-35", 27),
        ("0x1.921fb54442d18p+0", "0x1.f75462315257ep-35", 119),
    ],
    "gaussian 2D velocity": [
        ("0x1.015bf9217271ap-6", "0x1.98761ba14a4d7p-52", 26),
        ("0x1.921fb54442d18p+0", "0x1.0c2266e8c9c6ap-36", 27),
        ("0x1.3a28c59d5433ap+7", "0x1.a2fa8d0150ca0p-30", 119),
    ],
    "polynomial_gaussian 1D position": [
        ("0x1.103fb8a9fc2dcp-4", "0x1.bf18c7e921a33p-45", 26),
        ("0x1.544fa6d47b38ep-1", "0x1.5cff11ff5ff2cp-33", 26),
        ("0x1.a96390899a073p+2", "0x1.b44031681218ap-30", 119),
    ],
    "polynomial_gaussian 1D velocity": [
        ("0x1.d0a35d4b115f1p-12", "0x1.db3211253ed40p-51", 23),
        ("0x1.c5bf891b4ef6cp-2", "0x1.cd6b8a8032c8cp-36", 25),
        ("0x1.bb1d0be4ab1cep+8", "0x1.c2952e7f5f481p-26", 119),
    ],
    "polynomial_gaussian 2D position": [
        ("0x1.015bf92172719p-6", "0x1.b754164d09d5ap-46", 27),
        ("0x1.921fb54442d16p+0", "0x1.0c51bc3a3c070p-33", 28),
        ("0x1.3a28c59d54339p+7", "0x1.a3405f0ef51dbp-27", 119),
    ],
    "polynomial_gaussian 2D velocity": [
        ("0x1.496b7c53c5b03p-14", "0x1.db198b94e1678p-53", 23),
        ("0x1.921fb54442d17p-1", "0x1.f74b72dcad7ccp-36", 27),
        ("0x1.eadfb4c5d3904p+12", "0x1.3334e9ec548a4p-22", 119),
    ],
    "shifted gaussian 2D pair": [
        ("0x1.96252528c89b4p+0", "0x1.2b50f3d8c2012p-41", 29),
        ("0x1.921fb54442d17p+1", "0x1.713c5b4e5a2c2p-35", 28),
        ("0x1.3d4d0507dcb96p+7", "0x1.933d0437fa07bp-30", 119),
    ],
}


def _gaussian_family(name: str, scale: float) -> ProfilePair:
    """The catalog's gaussian-family pairs: one profile as position or velocity, or the shifted 2D pair."""
    if name == "shifted gaussian 2D pair":
        return ProfilePair(2, Profile.gaussian(2, scale, center=(1.0, 0.0)), Profile.gaussian(2, scale))
    kind, dim, role = name.split()
    d = int(dim[0])
    p, zero = Profile(kind, d, sigma=scale), Profile.zero(d)
    return ProfilePair(d, p, zero) if role == "position" else ProfilePair(d, zero, p)


@pytest.mark.parametrize("family", sorted(ENERGY_BITS))
def test_energy_is_pinned_on_the_gaussian_catalog_families(family):
    got = [energy(_gaussian_family(family, s)) for s in (0.1, 1.0, 10.0)]
    assert [(r.value.hex(), r.error.hex(), r.panels) for r in got] == ENERGY_BITS[family]


def test_energy_rejects_non_h1_position():
    pair = ProfilePair(2, Profile.indicator_disk(1.0), Profile.gaussian(2, 1.0))
    with pytest.raises(ProfileError, match="H1"):
        energy(pair)


def test_energy_of_zero_data_is_zero():
    pair = ProfilePair(1, Profile.zero(1), Profile.zero(1))
    assert energy(pair) == QuadResult(0.0, 0.0, 0)


# -------------------------------------------------------- frequency split
def test_frequency_split_is_additive(example, gauss2d_vel):
    """The term checks' Ilow and Ihigh, each on its own block of the split,
    add up to the norm their ``total`` integrates on [0, inf) in one piece."""
    for pair, t in ((example, 100.0), (gauss2d_vel, 1e3)):
        checks = term_checks(pair, t)
        assert checks.Ilow + checks.Ihigh == pytest.approx(checks.total, rel=1e-8)
        assert checks.Ilow > 0.0 and checks.Ihigh > 0.0


def test_frequency_split_needs_large_time(example):
    with pytest.raises(ValueError, match="1D term checks need t > 1"):
        term_checks(example, 0.5)


# ---------------------------------------------------- non-finite times
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_time_fails_before_any_quadrature(monkeypatch, gauss_pair_1d, gauss_pair_2d, shifted_pair_2d, t):
    """A nan or infinite time raises a ValueError naming it, with no warning
    and before any panel is evaluated: the norm at one time and on a
    curve, the envelopes, the measured chain terms and the window integral
    T, the sandwich (also of a shifted pair, whose weighted norm takes
    quadrature) and the decay report on and off the grid."""

    def evaluate(*args):
        raise AssertionError("a panel was evaluated")

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    calls = [
        lambda: l2_norm(gauss_pair_1d, t),
        lambda: norm_sq_samples(gauss_pair_1d, [40.0, t]),
        lambda: norm_curve(gauss_pair_2d, [t, 40.0]),
        lambda: envelopes(moments(gauss_pair_1d), t, 1),
        lambda: term_checks(gauss_pair_2d, t),
        lambda: trick_T(t),
        lambda: sandwich_report(gauss_pair_1d, t),
        lambda: sandwich_report(shifted_pair_2d, t),
        lambda: local_energy.local_energy_report(gauss_pair_2d, 5.0, [20.0, t]),
        lambda: local_energy.local_energy_report(shifted_pair_2d, 5.0, [t]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=f"time t={t} is not finite"):
                call()


def test_a_time_whose_frequency_overflows_fails_before_any_quadrature(monkeypatch, gauss1d_vel):
    """t = 1e308 is finite, but the norm integrand's omega = 2t is not: the
    integrand rejects it with a ValueError naming omega, with no warning
    and before any panel is evaluated."""

    def evaluate(*args):
        raise AssertionError("a panel was evaluated")

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega must be finite, got inf"):
            l2_norm(gauss1d_vel, 1e308)


# M^2 at negative times of a gaussian velocity on the Filon path, taken
# through the moments of negative omega h: the bits of M^2 at -t, which are
# those at t
NEGATIVE_TIME_BITS = {
    (1, -5.0): ("0x1.5e3cd0365f7f0p+6", "0x1.0493f2942960cp-28", 16),
    (1, -300.0): ("0x1.716a04087dd78p+12", "0x1.e7d48af3f34d8p-22", 13),
    (2, -5.0): ("0x1.4017bd5a6d27bp+8", "0x1.476b00c7cba4ap-26", 18),
    (2, -300.0): ("0x1.9e964abd67566p+9", "0x1.8f80a608269a1p-24", 17),
}


@pytest.mark.parametrize("dimension, t", sorted(NEGATIVE_TIME_BITS))
def test_a_negative_time_keeps_its_pinned_bits(dimension, t):
    """M(t) of a gaussian velocity on the Filon path, the engine on the
    pair's norm integrands, at t = -5 (moments of |omega h| <= 15, from
    scipy's ufunc and its reflection) and t = -300 (beyond 15, from the
    recurrence) keeps its bits, which are those at |t|.  ``norm_sq_samples``
    takes the large-t expansion at t = -300 (and at t = -5 in 1D), with no
    batch entry, whose series takes |omega|: it gives M^2(-t) = M^2(t) bit
    for bit too."""
    pair = ProfilePair(dimension, Profile.zero(dimension), Profile.gaussian(dimension, 1.0))
    backward, forward = (_result_bits(_filon_curve(pair, [s])[0]) for s in (t, -t))
    assert backward == forward == NEGATIVE_TIME_BITS[dimension, t]
    backward, forward = (_result_bits(norm_sq_samples(pair, [s])[0]) for s in (t, -t))
    assert backward == forward
    if t == -300.0:
        integrands, _ = reduce_pair(pair).norm_rows([t])
        assert integrands == []
    (res,) = norm_sq_samples(pair, [t])
    assert l2_norm(pair, t) == l2_norm(pair, -t) == math.sqrt(res.value) / (2.0 * math.pi) ** (dimension / 2.0)


# ------------------------------------------------------- exact symmetries
_GAUSSIAN = st.tuples(
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    st.just((0.0, 0.0)) | st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
_SYMMETRY_TIMES = st.lists(st.floats(-1.0, 2.0).map(lambda e: 10.0**e), min_size=1, max_size=3)


def _gaussian(dimension, sigma, amplitude, center, sign=1.0):
    return Profile.gaussian(dimension, sigma, sign * amplitude, center=center[:dimension])


@settings(max_examples=40, deadline=None)
@given(dimension=st.sampled_from([1, 2]), u0=_GAUSSIAN, u1=_GAUSSIAN, ts=_SYMMETRY_TIMES)
def test_time_reversal_flips_the_velocity(dimension, u0, u1, ts):
    """M(-t; u0, u1) = M(t; u0, -u1): reversing time flips the sign of the
    cross term sin(2 t rho) alone, as negating the velocity does.  Checked
    on the Fourier side within the two error bars, for gaussian pairs,
    centred or shifted, whose cross term is nonzero."""
    pos = _gaussian(dimension, *u0)
    backward = norm_sq_samples(ProfilePair(dimension, pos, _gaussian(dimension, *u1)), [-t for t in ts])
    flipped = norm_sq_samples(ProfilePair(dimension, pos, _gaussian(dimension, *u1, sign=-1.0)), ts)
    for a, b in zip(backward, flipped):
        assert abs(a.value - b.value) <= a.error + b.error


@settings(max_examples=30, deadline=None)
@given(dimension=st.sampled_from([1, 2]), u0=_GAUSSIAN, u1=_GAUSSIAN, ts=_SYMMETRY_TIMES)
def test_the_norm_obeys_the_parallelogram_identity(dimension, u0, u1, ts):
    """M^2(u0, u1) + M^2(u0, -u1) = 2 M^2(u0, 0) + 2 M^2(0, u1): the cross
    term is odd in the velocity and the two pure terms do not depend on
    the other profile.  Checked on the Fourier side within the combined
    error bars, for gaussian pairs, centred or shifted."""
    pos, vel, zero = _gaussian(dimension, *u0), _gaussian(dimension, *u1), Profile.zero(dimension)
    pairs = [(pos, vel), (pos, _gaussian(dimension, *u1, sign=-1.0)), (pos, zero), (zero, vel)]
    plus, minus, position, velocity = (norm_sq_samples(ProfilePair(dimension, *pair), ts) for pair in pairs)
    for a, b, c, d in zip(plus, minus, position, velocity):
        gap = a.value + b.value - 2.0 * c.value - 2.0 * d.value
        assert abs(gap) <= a.error + b.error + 2.0 * c.error + 2.0 * d.error


@settings(max_examples=25, deadline=None)
@given(
    dimension=st.sampled_from([1, 2]),
    u0=_GAUSSIAN,
    u1=_GAUSSIAN,
    ts=st.lists(st.floats(-1.0, 5.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
)
def test_doubling_the_data_quadruples_the_norm_bit_for_bit(dimension, u0, u1, ts):
    """M^2(2 u0, 2 u1) = 4 M^2(u0, u1) bit for bit: every amplitude, closed
    form, tail bound, expansion coefficient, remainder and roundoff scales
    by a power of two, and the panels' tolerance tests and the expansion's
    switch are relative, for gaussian pairs, centred or shifted, on both
    sides of the large-t switch.  A time past the switch keeps 0 panels, and
    its error, the remainder and the closed forms' roundoff, becomes 4
    times its own bit for bit too."""
    pair = ProfilePair(dimension, _gaussian(dimension, *u0), _gaussian(dimension, *u1))
    doubled = ProfilePair(dimension, _gaussian(dimension, *u0, sign=2.0), _gaussian(dimension, *u1, sign=2.0))
    for a, b in zip(norm_sq_samples(pair, ts), norm_sq_samples(doubled, ts)):
        assert (4.0 * a.value).hex() == b.value.hex()
        assert (a.panels == 0) == (b.panels == 0)
        if a.panels == 0:
            assert (4.0 * a.error).hex() == b.error.hex()


def _dilated(profile, lam, velocity):
    """The profile of x -> u(lam x), times lam for a velocity."""
    amplitude = profile.amplitude * (lam if velocity else 1.0)
    return Profile.gaussian(profile.dimension, profile.sigma / lam, amplitude, [c / lam for c in profile.center])


@settings(max_examples=25, deadline=None)
@given(
    dimension=st.sampled_from([1, 2]),
    u0=_GAUSSIAN,
    u1=_GAUSSIAN,
    lam=st.sampled_from([0.25, 2.0, 3.7]),
    ts=st.lists(st.floats(-0.3, 2.0).map(lambda e: 10.0**e), min_size=1, max_size=3),
)
def test_dilating_the_data_dilates_the_norm(dimension, u0, u1, lam, ts):
    """Data u0(lam x) and lam u1(lam x) evolve into u(lam t, lam x), so
    their M^2(t) is lam^-n M^2(lam t), within the two error bars.  The
    large-t switch is itself dilation covariant (the remainder bound and
    the tolerance scale alike), so the right side is taken on the Filon
    path: with t in [0.5, 100] and the switch near t = 5 sigma / lam, the
    dilated data's M^2(t) comes from the expansion at most draws and from
    its own integrand at the others, and the identity ties the expansion
    to the Filon path across the switch."""
    pos, vel = _gaussian(dimension, *u0), _gaussian(dimension, *u1)
    scaled = ProfilePair(dimension, _dilated(pos, lam, False), _dilated(vel, lam, True))
    want = _filon_curve(ProfilePair(dimension, pos, vel), [lam * t for t in ts])
    for got, ref in zip(norm_sq_samples(scaled, ts), want):
        factor = lam**-dimension
        assert abs(got.value - factor * ref.value) <= got.error + factor * ref.error


@settings(max_examples=20, deadline=None)
@given(u0=_GAUSSIAN, u1=_GAUSSIAN, shift=st.floats(-3.0, 3.0), ts=_SYMMETRY_TIMES)
def test_translating_both_centres_keeps_the_1d_norm(u0, u1, shift, ts):
    """Moving both centres of a 1D pair by one shift moves the wave and
    leaves M(t) alone, within the two error bars; a pair with one centre
    keeps its expansion, one with two keeps its phases in the cross term."""
    pair = ProfilePair(1, _gaussian(1, *u0), _gaussian(1, *u1))
    moved = [(sigma, amplitude, (center[0] + shift, center[1])) for sigma, amplitude, center in (u0, u1)]
    shifted = ProfilePair(1, _gaussian(1, *moved[0]), _gaussian(1, *moved[1]))
    for a, b in zip(norm_sq_samples(pair, ts), norm_sq_samples(shifted, ts)):
        assert abs(a.value - b.value) <= a.error + b.error


@pytest.mark.parametrize("dimension", [1, 2])
def test_the_cross_term_has_the_size_of_the_data_overlap(dimension):
    """d/dt M^2 at t = 0 is 2 int u0 u1, so (M^2(t) - M^2(-t)) / (4 t) at t =
    1e-3 is the overlap of shifted gaussians to about t^2: the cross term's
    size, which time reversal and the parallelogram identity do not see."""
    c0, c1 = (0.7, -0.3)[:dimension], (-0.5, 0.4)[:dimension]
    pair = ProfilePair(dimension, Profile.gaussian(dimension, 1.2, 0.8, c0), Profile.gaussian(dimension, 0.9, 1.3, c1))
    t = 1e-3
    plus, minus = norm_sq_samples(pair, [t, -t])
    rate = (plus.value - minus.value) / (4.0 * t) / TWO_PI**dimension
    assert rate == pytest.approx(gauss_overlap(dimension, 0.8, 1.2, 1.3, 0.9, c0, c1), rel=1e-5)


# ------------------------------------------------------ large-t expansion
_UNIT_NORMS = {
    "gauss1d": (ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1.0)), lambda t: TWO_PI * msq_gauss1d(t)),
    "gauss2d": (ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0)), lambda t: TWO_PI**2 * trick_T_reference(t)),
    "poly2d": (
        ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 1.0 / math.sqrt(2.0))),
        lambda t: TWO_PI**2 * msq_poly2d(t),
    ),
}


def _expanded(pair, ts, cfg=None):
    """``norm_sq_samples`` at times that all take the large-t expansion: the
    norm rows are no batch entry, and every time reports 0 panels."""
    integrands, _ = reduce_pair(pair).norm_rows(ts, cfg)
    assert integrands == []
    results = norm_sq_samples(pair, ts, cfg)
    assert [res.panels for res in results] == [0] * len(ts)
    return results


def _meets_the_filon_path(pair, ts) -> list[bool]:
    """Whether the expansion at each t agrees with the Filon path within the two error bars."""
    return [abs(a.value - b.value) <= a.error + b.error for a, b in zip(_expanded(pair, ts), _filon_curve(pair, ts))]


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["gauss1d", "gauss2d", "poly2d"]),
    sigma=st.floats(0.5, 2.0),
    amplitude=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    ts=st.lists(st.floats(2.0, 6.0).map(lambda e: 10.0**e), min_size=1, max_size=5),
)
def test_the_expansion_agrees_with_the_filon_path(family, sigma, amplitude, ts):
    """Over the catalog's sigma and amplitudes, every t in [1e2, 1e6] takes
    the large-t expansion, which shares no panel, moment or tail code with
    the Filon path, and the two agree within their combined error bars.  The
    expansion's error meets the quarter of max(abs_tol, rel_tol |M^2|) that
    a Filon entry's indicator meets."""
    pair = _NORM_FAMILIES[family](sigma, amplitude)
    assert all(_meets_the_filon_path(pair, ts))
    for res in norm_sq_samples(pair, ts):
        assert res.error <= 0.25 * QuadConfig().target(res.value)


@pytest.mark.parametrize(
    "dimension, u0, u1",
    [
        (1, ("gaussian", 1.2, 0.5), ("gaussian", 0.8, 1.3)),
        (1, ("polynomial_gaussian", 0.9, 0.7), ("gaussian", 1.1, -0.6)),
        (1, ("polynomial_gaussian", 1.4, 0.7), ("polynomial_gaussian", 0.6, 1.5)),
        (2, ("gaussian", 1.5, 0.7), ("gaussian", 0.9, 1.1)),
        (2, ("gaussian", 0.7, -1.2), ("polynomial_gaussian", 1.3, 0.8)),
        (2, ("polynomial_gaussian", 1.2, 0.7), ("polynomial_gaussian", 1.0, 1.1)),
    ],
)
def test_the_expansion_of_a_pair_agrees_with_the_filon_path(dimension, u0, u1):
    """Pairs of gaussian kinds at one centre carry a0 and the cross term
    into the expansion (in 1D the cross term's reference part, in 2D its
    sphere average, zero between orders 0 and 1): every t in [1e2, 1e6]
    takes it and agrees with the Filon path within the two error bars."""
    pos, vel = (getattr(Profile, kind)(dimension, sigma, amplitude) for kind, sigma, amplitude in (u0, u1))
    assert all(_meets_the_filon_path(ProfilePair(dimension, pos, vel), [1e2, 3e3, 1e6]))


def test_a_flipped_moment_sign_fails_the_expansion_check(monkeypatch):
    """The expansion is an oracle for the Filon path: flipping the sign of
    the k = 2 cosine moment, which the omega = 0 entry of int G never reads
    (j_2(0) = 0), moves every Filon value at t = 1e2 and 1e3 out of the
    combined error bars, by 3.7e4 to 3.6e6 of them at t = 1e2 (at t = 1e6
    the 1D error is 3e-4 of them: a moment's error falls off as 1/omega,
    the bars grow with M^2)."""
    ts = [1e2, 1e3]
    pairs = [_NORM_FAMILIES[family](1.3, 0.8) for family in ("gauss1d", "gauss2d", "poly2d")]
    assert all(all(_meets_the_filon_path(pair, ts)) for pair in pairs)
    signs = quadrature._MOMENT_SIGNS.copy()
    signs[0, 2] = -signs[0, 2]
    monkeypatch.setattr(quadrature, "_MOMENT_SIGNS", signs)
    assert not any(any(_meets_the_filon_path(pair, ts)) for pair in pairs)


@pytest.mark.parametrize("family", sorted(_UNIT_NORMS))
def test_the_expansion_meets_the_closed_forms(family):
    """The expansion at t = 1e2, 1e3 and 1e5 lies within its error bar of
    the closed forms (plus their own roundoff), and the 1D gaussian within
    1e-12 relative; its int G, the closed form of ``_Expansion.mean``
    (Gamma functions and Frullani's integral), is the engine's integral of
    G alone at omega = 0 within the two errors."""
    pair, exact = _UNIT_NORMS[family]
    for t in (1e2, 1e3, 1e5):
        (res,) = _expanded(pair, [t])
        want = exact(t)
        assert abs(res.value - want) <= res.error + 4.0 * sys.float_info.epsilon * abs(want)
        if family == "gauss1d":
            assert res.value == pytest.approx(want, rel=1e-12)
    red = reduce_pair(pair)
    (split,) = wave_integrands(red.dimension, [0.0], red.width_hint, red.spectrum)
    entry = quadrature.OscillatoryIntegrand(0.0, lambda rho: (split.amplitudes(rho)[0], None, None), red.width_hint)
    (mean,) = spectral.integrate_batch([entry], 0.0, math.inf, None, red.tail)
    assert abs(mean.value - red.expansion.mean) <= mean.error + red.expansion.mean_error


def test_the_mean_roundoff_covers_cancelling_parts():
    """Each term's int_0^inf f lies within the roundoff that ``_expansion``
    charges it, _CLOSED_ULPS eps times the size of its parts, of its closed
    form in 40-digit mpmath from the same float c, beta, kappa: the Gamma
    form for p = 0 .. 3, and the reference parts with kappa at, 1e-12
    relative off, and well away from where they cancel, sqrt(beta)
    e^(-gamma/2) (Frullani, q = 1) and sqrt(pi beta) (q = 2)."""
    charge = spectral._CLOSED_ULPS * sys.float_info.epsilon
    betas = (0.02, 0.5, 8.0)
    terms = [spectral._Term(c, beta, p=p) for c in (0.7, -3.1) for beta in betas for p in range(4)]
    for beta, shift in itertools.product(betas, (1.0, 1.0 + 1e-12, 1.0 - 1e-12, 2.5)):
        terms.append(spectral._Term(-1.3, beta, q=1, kappa=math.sqrt(beta) * math.exp(-0.5 * np.euler_gamma) * shift))
        terms.append(spectral._Term(-1.3, beta, q=2, kappa=math.sqrt(math.pi * beta) * shift))
    with mp.workdps(40):
        for term in terms:
            c, beta, kappa = (mp.mpf(v) for v in (term.c, term.beta, term.kappa))
            if term.q == 1:
                exact = c * (mp.euler / 2 + mp.log(kappa / mp.sqrt(beta)))
            elif term.q == 2:
                exact = c * (kappa - mp.sqrt(mp.pi * beta))
            else:
                a = mp.mpf(term.p + 1) / 2
                exact = c * mp.gamma(a) / (2 * beta**a)
            value, size = term.integral()
            assert abs(mp.mpf(value) - exact) <= charge * size, term


@pytest.mark.parametrize(
    "family, mutation", [("gauss1d", "scaled"), ("gauss2d", "scaled"), ("poly2d", "scaled"), ("gauss2d", "frullani")]
)
def test_a_wrong_mean_misses_the_closed_form(monkeypatch, family, mutation):
    """int G is ``_Term.integral`` alone: scaling each term's integral by 1 +
    1e-9, or taking Frullani's gamma/2 as gamma in the 2D gaussian's q = 1
    term, moves M^2(1e3) out of the error bar around the closed form."""
    real = spectral._Term.integral

    def wrong(self):
        value, size = real(self)
        if mutation == "scaled":
            return value * (1.0 + 1e-9), size
        return value + (0.5 * np.euler_gamma * self.c if self.q == 1 else 0.0), size

    monkeypatch.setattr(spectral._Term, "integral", wrong)
    pair, exact = _UNIT_NORMS[family]
    (res,) = _expanded(pair, [1e3])
    assert abs(res.value - exact(1e3)) > res.error + 4.0 * sys.float_info.epsilon * exact(1e3)


@pytest.mark.parametrize(
    "family, series, index", [("gauss1d", "_phi_taylor", 3), ("gauss2d", "_gauss_taylor", 2), ("poly2d", "_gauss_taylor", 0)]
)
def test_a_scaled_taylor_coefficient_misses_the_closed_form(monkeypatch, family, series, index):
    """Each family's leading odd derivative of C at rho = 0 comes from one
    Taylor coefficient, of rho^index: of the reference shape (1 + y) e^{-y}
    in 1D (``_phi_taylor``: part 1 of the Taylor rows, exponent i = index),
    of the gaussian in 2D (``_gauss_taylor``: part 0, exponent k = index /
    2).  Scaling it by 1 + 1e-6 in the rows of every shape
    (``_SHAPE_ROWS``), through its divisor, moves M^2(100) out of the error
    bar around the closed form."""
    part, exponent = (1, index) if series == "_phi_taylor" else (0, index // 2)
    pair, exact = _UNIT_NORMS[family]
    for shape, (exponents, divisors, factor, l1) in list(spectral._SHAPE_ROWS.items()):
        divisors = divisors.copy()  # the table's own rows stay as they are; an infinite divisor stays so
        divisors[part][exponents[part] == exponent] /= 1.0 + 1e-6
        monkeypatch.setitem(spectral._SHAPE_ROWS, shape, (exponents, divisors, factor, l1))
    (res,) = _expanded(pair, [100.0])
    assert abs(res.value - exact(100.0)) > res.error + 4.0 * sys.float_info.epsilon * exact(100.0)


def _gauss_taylor(beta, count):
    """The Taylor coefficients of exp(-beta rho^2) at rho = 0, of rho^0 .. rho^(count - 1)."""
    out = np.zeros(count)
    k = np.arange((count + 1) // 2)
    out[::2] = (-beta) ** k / spectral._FACTORIAL[k]
    return out


def _phi_taylor(q, kappa, count):
    """The Taylor coefficients of phi(kappa rho) at rho = 0: (-kappa)^i / i!, times 1 - i for (1 + y) e^{-y}."""
    i = np.arange(count)
    out = (-kappa) ** i / spectral._FACTORIAL[i]
    return out if q == 1 else out * (1.0 - i)


def _term_rows(term):
    """``_Term.derivatives`` and ``_Term.l1`` by the formulas each term once
    evaluated per call: the reference for the rows built once per shape."""
    count, hermite = spectral._EXPANSION_ORDERS, spectral._HERMITE_L1
    c, beta, p, q, kappa = term.c, term.beta, term.p, term.q, term.kappa
    orders = np.arange(1, count + 1)
    if q:
        coef = (_gauss_taylor(beta, count + q) - _phi_taylor(q, kappa, count + q))[q:]
        i = orders + q
        g = abs(c) * (beta ** (0.5 * (i - 1)) * hermite[i] + kappa ** (i - 1.0) * spectral._phi_l1(q, i))
        l1 = g / (orders if q == 1 else orders * (orders + 1.0))
    else:
        coef = np.concatenate((np.zeros(p), _gauss_taylor(beta, count)))[:count]
        h = np.abs(np.polynomial.hermite.poly2herm([0.0] * p + [1.0]))
        l1 = abs(c) * beta ** (0.5 * (orders - 1 - p)) * sum(hk * hermite[orders + k] for k, hk in enumerate(h))
    return c * coef * spectral._FACTORIAL[:count], l1


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(sorted(spectral._SHAPE_ROWS)),
    c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    beta=st.floats(1e-2, 1e2),
    kappa=st.floats(1e-2, 1e2),
)
def test_the_shape_rows_keep_the_bits_of_the_per_call_formulas(shape, c, beta, kappa):
    """Every shape that ``_expansion`` builds, p = 0 .. 3 with q = 0 and q =
    1, 2 with p = 0: a term's derivatives and L1 bounds from the rows built
    once per shape have the bits of the per-call formulas, entry for entry.
    The rows hold the same exponents of the same bases -beta and -kappa, the
    same factorials and factors (a divisor of infinity gives the formulas'
    0 where a part has no rho^j), and each entry rounds in the same order."""
    p, q = shape
    term = spectral._Term(c, beta, p=p, q=q, kappa=kappa if q else 0.0)
    derivatives, l1 = _term_rows(term)
    assert term.derivatives().tobytes() == derivatives.tobytes()
    assert term.l1().tobytes() == l1.tobytes()


@pytest.mark.parametrize("dimension", [1, 2])
def test_the_infinite_end_expression_meets_the_per_end_loop(monkeypatch, dimension):
    """``closed_form(inf, omega)``, one array expression for every time of a
    large-t norm row, against the per-end loop on an array of infinite ends:
    at omega = 0, at negative omega, for r = omega/kappa from 1e-3 to 1e300
    and on both sides of ``_LOG_SWITCH``.  numpy's log1p and arctan are not
    math's and differ from them by 1 ulp at some points, so each value and
    roundoff is within 2 eps of the summed size of its parts (a quarter of
    its charged roundoff).  An array of ends, infinite or mixed, goes
    through the loop, one ``_decay_integrals`` call per end."""
    eps, kappa, switch = sys.float_info.epsilon, 0.7, spectral._LOG_SWITCH
    r = np.array([0.0, 1e-3, 0.5, 1.0, 3.0, 1e6, 1e12, switch * (1 - 1e-15), switch, switch * (1 + 1e-15), 1e155, 1e300])
    omega = kappa * np.concatenate((r, -r))
    singular = spectral._Singular(dimension, kappa, -1.3, 0.6)
    calls = []
    real = spectral._decay_integrals
    monkeypatch.setattr(spectral, "_decay_integrals", lambda *args: calls.append(args) or real(*args))
    value, error = singular.closed_form(math.inf, omega)
    assert calls == []
    loop, loop_error = singular.closed_form(np.full(omega.size, math.inf), omega)
    assert len(calls) == omega.size
    size = loop_error / (spectral._CLOSED_ULPS * eps)
    assert np.isfinite(value).all() and np.all(np.abs(value - loop) <= 2.0 * eps * size)
    assert np.all(np.abs(error - loop_error) <= 2.0 * eps * loop_error)
    assert value[0] == 0.0 and value[r.size] == 0.0
    mixed, _ = singular.closed_form(np.array([1.0, math.inf]), omega[4:6])
    assert len(calls) == omega.size + 2 and mixed[1] == loop[5]
    # past the switch log |r| is (1/2) log1p(r^2) to 1 ulp, up to where r^2 overflows
    r = np.geomspace(switch, 1.3e154, 2001)
    assert np.all(np.abs(np.log(r) - 0.5 * np.log1p(r * r)) <= np.spacing(np.log(r)))


def test_the_2d_closed_form_takes_times_past_the_square_overflow():
    """K(t) of a 2D velocity with a nonzero mean is (1/2) a1(0) (1/2)
    log1p(r^2), r = 2t/kappa, and r^2 overflowed once r passed 1.3e154: t
    = 3e154 failed as a closed form that is not finite.  t = 1e154, 1e160
    and 1e300 now take it with 0 panels, and M^2(1e300) - M^2(1e150) is K's
    growth (1/2) a1(0) log(1e150), the series being below roundoff at both,
    within the two errors and the roundoff of the difference.  ``l2_norm``
    and ``norm_curve`` take such times too."""
    pair = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0, 1.0))
    low, *_, high = _expanded(pair, [1e150, 1e154, 1e160, 1e300])
    want = 0.5 * reduce_pair(pair).singular.a1 * math.log(1e150)
    roundoff = 4.0 * sys.float_info.epsilon * (abs(high.value) + abs(low.value))
    assert abs(high.value - low.value - want) <= high.error + low.error + roundoff
    curve = norm_curve(pair, [1e100, 1e160])
    assert curve.fourier_sq[1] == _norm_sq(pair, 1e160).value
    assert l2_norm(pair, 1e160) == pytest.approx(curve.m[1], rel=4.0 * sys.float_info.epsilon)


def test_the_hermite_bound_and_the_reference_shape_norms():
    """Cramer's bound on int_0^inf |H_j| e^{-x^2} holds for j <= 16, against
    mpmath with a breakpoint at every positive zero of H_j, and is within
    a factor of 4 of it (1.5 at j = 0, 3.8 at j = 16); and the L1
    norms of the reference shapes' derivatives, e^{-y} and (1 + y) e^{-y},
    are mpmath's to 1e-12."""
    with mp.workdps(30):
        for j in range(17):
            zeros = sorted(float(x) for x in np.polynomial.hermite.hermroots([0.0] * j + [1.0]) if x > 0.0)
            exact = mp.quad(lambda x: abs(mp.hermite(j, x)) * mp.exp(-x * x), [0, *zeros, mp.inf])
            assert float(exact) <= spectral._HERMITE_L1[j] <= 4.0 * float(exact)
        shapes = {1: lambda y: mp.exp(-y), 2: lambda y: (1 + y) * mp.exp(-y)}
        for q, shape in shapes.items():
            for i in range(1, 8):
                exact = mp.quad(lambda y: abs(mp.diff(shape, y, i)), [0, max(i - 1, 0.5), mp.inf])
                assert float(spectral._phi_l1(q, i)) == pytest.approx(float(exact), rel=1e-12)


def test_a_wide_gaussian_takes_its_large_times_without_a_panel():
    """A sigma = 100 2D gaussian velocity needs more than 1024 panels for the
    first block of its norm integrand: t = 1 fails with that message and no
    estimate.  t = 1e4 and 1e6, past the switch, take the expansion with 0
    panels and match the unit gaussian's closed form by dilation, M^2(t) =
    sigma^4 M^2_1(t / sigma), within their error."""
    sigma = 100.0
    pair = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, sigma))
    cfg = QuadConfig(max_panels=1024)
    (failed,) = norm_sq_samples(pair, [1.0], cfg)
    assert isinstance(failed, QuadratureError)
    assert str(failed) == "panel budget 1024 exceeded by the initial partition of [0, 2]"
    assert failed.achieved is None and failed.error_estimate is None
    for t, res in zip((1e4, 1e6), _expanded(pair, [1e4, 1e6], cfg)):
        want = TWO_PI**2 * sigma**4 * trick_T_reference(t / sigma)
        assert abs(res.value - want) <= res.error + 4.0 * sys.float_info.epsilon * want


def test_a_large_time_curve_evaluates_no_panel(monkeypatch, example):
    """A machine-independent count at ``quadrature._evaluate``: a 25-t curve
    on [1e2, 1e6] of the unit 1D and 2D gaussian and the mean-zero 2D
    gaussian evaluates no panel (25, 27 and 25 panels of an omega = 0 entry
    for int G before its closed form; 425 panels at omega != 0 for the 2D
    gaussian before the expansion), and neither does the indicator example,
    past its support radius 1 (968 panels before d'Alembert's law);
    every row reports 0 panels."""
    counts = []
    real = quadrature._evaluate

    def evaluate(a, b, owner, node, batch, amplitudes):
        counts.append((a.size, int(np.count_nonzero(batch.omega[owner]))))
        return real(a, b, owner, node, batch, amplitudes)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    ts = np.geomspace(1e2, 1e6, 25)
    for pair in [pair for pair, _ in _UNIT_NORMS.values()] + [example]:
        assert {res.panels for res in norm_sq_samples(pair, ts)} == {0}
    assert counts == []


# ------------------------------------------------ d'Alembert's step law
_AMPLITUDE = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
_RADIUS = st.floats(-2.0, 3.0).map(lambda e: 10.0**e)
# times as factors f of the larger radius, from 1e-4 to 100, and their signs
_FACTORS = st.lists(st.tuples(st.floats(-4.0, 2.0).map(lambda e: 10.0**e), st.sampled_from([1.0, -1.0])), min_size=1, max_size=4)
# factors f = 10**(k/100), k = -200..200, where the d'Alembert oracle
# resolves every piece (see test_the_step_law_meets_dalembert)
_ORACLE_FACTORS = st.lists(st.tuples(st.integers(-200, 200).map(lambda k: 10.0 ** (k / 100)), st.sampled_from([1.0, -1.0])), min_size=1, max_size=4)


def _step_law_misses(r0, a0, r1, a1, ts):
    """The times at which the norm of the intervals a0 1_{|x| <= r0}, a1
    1_{|x| <= r1} takes a panel, misses the exact d'Alembert norm
    (``msq_intervals``, piecewise exact in mpmath) by more than its error,
    or has an error over the quarter of the target that a Filon entry's
    indicator meets."""
    pair = ProfilePair(1, Profile.indicator_interval(r0, a0), Profile.indicator_interval(r1, a1))
    misses = []
    for t, res in zip(ts, norm_sq_samples(pair, ts)):
        want = TWO_PI * msq_intervals(r0, a0, r1, a1, t)
        if res.panels or abs(res.value - want) > res.error or res.error > 0.25 * QuadConfig().target(res.value):
            misses.append((t, res, want))
    return misses


@settings(max_examples=40, deadline=None)
@given(r0=_RADIUS, r1=_RADIUS, a0=_AMPLITUDE, a1=_AMPLITUDE, factors=_FACTORS)
def test_the_step_law_meets_the_exact_wave(r0, r1, a0, a1, factors):
    """Two intervals of independent radii and amplitudes of either sign:
    every t, at t = 0, at either radius, between them and at either sign,
    takes d'Alembert's law with no panel and lies within its error of the
    exact wave's norm."""
    radius = max(r0, r1)
    ts = [0.0, r0, -r1, 0.5 * (r0 + r1)] + [sign * f * radius for f, sign in factors]
    assert _step_law_misses(r0, a0, r1, a1, ts) == []


def _dropped_tent(law, ts, value):
    """The law's value less its position tent a0^2 (r0 - |t|)_+, the A0(2t) term."""
    return value - TWO_PI * law.a0**2 * np.maximum(law.r0 - np.abs(ts), 0.0)


def _flipped_trapezoid(law, ts, value):
    """The law's value with the sign of its cross part over the trapezoid's slopes flipped."""
    s, total = 2.0 * np.abs(ts), law.r0 + law.r1
    w, n = np.minimum(s, total), np.minimum(s, abs(law.r0 - law.r1))
    return value - TWO_PI * np.sign(ts) * law.a0 * law.a1 * (w - n) * (2.0 * total - w - n)


@pytest.mark.parametrize("wrong", [_dropped_tent, _flipped_trapezoid])
def test_a_wrong_step_law_misses_the_exact_wave(monkeypatch, wrong):
    """The check of ``test_the_step_law_meets_the_exact_wave`` fails a law
    that drops the position's A0(2t) term or flips the sign of the cross
    term's trapezoid slopes, at times on both sides of the radii."""
    real = spectral._StepLaw.at

    def at(self, ts):
        value, remainder, roundoff = real(self, ts)
        return wrong(self, ts, value), remainder, roundoff

    monkeypatch.setattr(spectral._StepLaw, "at", at)
    assert _step_law_misses(1.0, 1.5, 0.3, -0.8, [0.2, 0.6, -1.0, 3.0]) != []


@settings(max_examples=40, deadline=None)
@given(which=st.sampled_from(["position", "velocity", "both"]), radius=_RADIUS, a0=_AMPLITUDE, a1=_AMPLITUDE, factors=_ORACLE_FACTORS)
def test_the_step_law_meets_dalembert(which, radius, a0, a1, factors):
    """Interval data of one radius, position only, velocity only or both:
    the law lies within its error plus the data tolerance of the d'Alembert
    oracle, a physical-space integral that shares no code with it, at t = 0
    and every drawn t.  Both profiles share the radius, since the oracle
    fails on some unequal ones (radii 0.1 and 1 at t = 64 exhaust its panel
    budget).  The oracle also fails on some times, each of its pieces held to
    rel_tol 1e-12 of its own value: its nodes near x = +-R round off by
    ulp(R), too much for fronts of width 2|t| below about 3e-3 R when R >=
    10 (radius 10**2.875 at t = 10**-3.5 R exhausts its panel budget), and
    a t within ulps of R leaves a piece between 0 and t - R too narrow for
    its panels (radius 10 at t = 10**(1e-15) R).  So |t|/R is drawn on the
    grid 10**(k/100), k = -200..200, which holds t = R exactly; the
    exact-wave test above takes the law at every drawn t from 1e-4 R."""
    zero, interval = Profile.zero(1), Profile.indicator_interval
    u0 = zero if which == "velocity" else interval(radius, a0)
    u1 = zero if which == "position" else interval(radius, a1)
    pair = ProfilePair(1, u0, u1)
    ts = [0.0] + [sign * f * radius for f, sign in factors]
    for t, res in zip(ts, norm_sq_samples(pair, ts)):
        want = TWO_PI * oracles.dalembert_l2(pair, t) ** 2
        assert res.panels == 0
        assert abs(res.value - want) <= res.error + TWO_PI * profiles._DATA_TOL.target(want / TWO_PI)
        assert res.error <= 0.25 * QuadConfig().target(res.value)


@settings(max_examples=15, deadline=None)
@given(radius=st.floats(0.5, 2.0), amplitude=_AMPLITUDE)
def test_the_step_law_agrees_with_the_filon_path(radius, amplitude):
    """On velocity-only interval data at t = 0.3 R and 0.8 R, below the
    support, where the fronts still overlap, the law lies within the error
    bars of the norm integrands integrated as one batch."""
    pair = ProfilePair(1, Profile.zero(1), Profile.indicator_interval(radius, amplitude))
    ts = [0.3 * radius, 0.8 * radius]
    for law, filon in zip(norm_sq_samples(pair, ts), _filon_curve(pair, ts)):
        assert law.panels == 0 < filon.panels
        assert abs(law.value - filon.value) <= filon.error + law.error


# ------------------------------------------- curves from the closed-form rows
# Curves that mix both paths: gaussian times on both sides of the large-t
# switch (near 5 sigma), among them a velocity with a closed-form part at
# rho = 0; a 1D pair at two centres, which has no closed form; and the
# example, on both sides of its support R = 1, and a zero pair, all in
# closed form.
_MIXED_CURVES = {
    "gauss1d position": (ProfilePair(1, Profile.gaussian(1, 1.0), Profile.zero(1)), [0.5, 3.0, 8.0, 1e3]),
    "gauss1d velocity": (ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1.0, 2.0)), [0.5, 1.0, -4.0, 1e4]),
    "gauss2d pair": (ProfilePair(2, Profile.gaussian(2, 1.2, 0.6), Profile.gaussian(2, 0.9)), [-9.0, 2.0, 40.0, 7.0]),
    "example": (oracles.example_pair(), [0.5, 1.0, -4.0, 1e4]),
    "shifted 1D pair": (ProfilePair(1, Profile.gaussian(1, 1.0, center=0.5), Profile.gaussian(1, 0.8)), [0.5, 10.0]),
    "zero pair": (ProfilePair(2, Profile.zero(2), Profile.zero(2)), [1.0, 1e3]),
}


@pytest.mark.parametrize("name", sorted(_MIXED_CURVES))
def test_the_curve_and_the_samples_agree_bit_for_bit(name):
    """``norm_curve`` fills the closed-form times from the arrays of
    ``norm_rows`` and integrates the others as one batch; ``norm_sq_samples``
    wraps the same arrays into QuadResults.  Their values and errors agree
    bit for bit, and the curves take the paths as intended."""
    pair, ts = _MIXED_CURVES[name]
    samples, curve = norm_sq_samples(pair, ts), norm_curve(pair, ts)
    assert [(res.value.hex(), res.error.hex()) for res in samples] == [
        (float(v).hex(), float(e).hex()) for v, e in zip(curve.fourier_sq, curve.errors)
    ]
    assert curve.t.tolist() == ts
    panels = {res.panels > 0 for res in samples}
    assert panels == ({True} if name == "shifted 1D pair" else {False} if name in ("example", "zero pair") else {False, True})


def test_a_curve_all_in_closed_form_makes_no_batch(monkeypatch, gauss2d_vel, example):
    """Times that all take a closed form never reach ``integrate_batch``; a
    curve with one Filon time makes one batch of that time alone."""
    calls, real = [], spectral.integrate_batch

    def counting(integrands, *args, **kwargs):
        calls.append(len(integrands))
        return real(integrands, *args, **kwargs)

    monkeypatch.setattr(spectral, "integrate_batch", counting)
    for pair in (gauss2d_vel, example):
        curve = norm_curve(pair, np.logspace(2.0, 6.0, 25))
        assert np.all(curve.errors <= 0.25 * 1e-9 * curve.fourier_sq)
    assert calls == []
    norm_curve(gauss2d_vel, [1.0, 1e2, 1e4])
    assert calls == [1]


@pytest.mark.parametrize("dimension, oracle", [(1, msq_gauss1d_position), (2, msq_gauss2d_position)])
def test_the_gaussian_position_norm_meets_its_closed_form(dimension, oracle):
    """A gaussian position has the exact M^2 of ``_oracles``: 1/2 sigma sqrt(pi)
    (1 + e^{-t^2/sigma^2}) in 1D and pi sigma^2 (1 - s D(s)), s = t/sigma, in
    2D.  The closed forms meet an mpmath quadrature of the Fourier-side
    integral, and ``norm_curve`` meets them at rel 1e-11 on both sides of
    the large-t switch, which covers the expansion's a0 terms."""
    for sigma, t in ((0.7, 0.3), (1.0, 2.0), (1.6, 7.5)):
        with mp.workdps(30):
            s, w = mp.mpf(sigma), mp.mpf(t)
            weight = (lambda r: 1) if dimension == 1 else (lambda r: 2 * mp.pi * s * s * r)
            lo = -12 / s if dimension == 1 else 0
            want = s * s * mp.quad(lambda r: mp.exp(-s * s * r * r) * mp.cos(w * r) ** 2 * weight(r), mp.linspace(lo, 12 / s, 40))
        assert oracle(t, sigma) == pytest.approx(float(want), rel=1e-14)
    for sigma in (0.5, 1.0, 2.0):
        pair = ProfilePair(dimension, Profile.gaussian(dimension, sigma), Profile.zero(dimension))
        ts = [f * sigma for f in (0.5, 2.0, 4.0, 8.0, 20.0, 1e4)]
        curve = norm_curve(pair, ts)
        assert {res.panels > 0 for res in norm_sq_samples(pair, ts)} == {False, True}
        for t, msq in zip(ts, curve.msq):
            assert msq == pytest.approx(oracle(t, sigma), rel=1e-11)


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
