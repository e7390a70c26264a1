import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from _oracles import gauss_overlap, gauss_virial_overlap
from wavegrowth.local_energy import (
    data_overlap,
    data_virial_overlap,
    flux_functionals,
    initial_energy,
    local_energy,
    local_energy_report,
    morawetz_residual,
    prop41_check,
    thm42_envelope,
    virial_constant,
    _ball_rule,
    _grid_free,
    _radial_values,
)
from wavegrowth.oracles import GridField, HorizonError, grid_solve
from wavegrowth.profiles import Profile, ProfilePair
from wavegrowth.spectral import l2_norm


# ----------------------------------------------------------- data overlaps
def test_data_overlap_closed_forms(gauss_pair_1d, gauss_pair_2d):
    for pair in (gauss_pair_1d, gauss_pair_2d):
        a0, s0 = pair.u0.amplitude, pair.u0.sigma
        a1, s1 = pair.u1.amplitude, pair.u1.sigma
        assert data_overlap(pair) == pytest.approx(
            gauss_overlap(pair.dimension, a0, s0, a1, s1), rel=1e-12
        )
        assert data_virial_overlap(pair) == pytest.approx(
            gauss_virial_overlap(pair.dimension, a0, s0, a1, s1), rel=1e-12
        )


_SIGMA = st.floats(0.5, 2.0)
_AMPLITUDE = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


@settings(max_examples=15, deadline=None)
@given(
    dimension=st.sampled_from([1, 2]),
    s0=_SIGMA,
    s1=_SIGMA,
    a0=_AMPLITUDE,
    a1=_AMPLITUDE,
    c0=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    c1=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
)
def test_shifted_overlaps_match_closed_forms(dimension, s0, s1, a0, a1, c0, c1):
    """Shifted 2D pairs take the angular trapezoid rule; products of
    gaussians integrate in closed form.  The absolute floor is the data
    tolerance's, for overlaps that nearly cancel."""
    c0, c1 = c0[:dimension], c1[:dimension]
    pair = ProfilePair(
        dimension,
        Profile.gaussian(dimension, s0, a0, center=c0),
        Profile.gaussian(dimension, s1, a1, center=c1),
    )
    overlap = gauss_overlap(dimension, a0, s0, a1, s1, c0, c1)
    virial = gauss_virial_overlap(dimension, a0, s0, a1, s1, c0, c1)
    # E(0) = (||u1||^2 + ||grad u0||^2)/2 for gaussians of any centre
    l2_u1 = a1 * a1 * (s1 * math.sqrt(math.pi)) ** dimension
    grad_u0 = a0 * a0 * 0.5 * dimension * math.pi ** (dimension / 2.0) * s0 ** (dimension - 2)
    k0 = virial + 0.5 * (dimension - 1) * overlap + 0.5 * (l2_u1 + grad_u0)
    assert data_overlap(pair) == pytest.approx(overlap, rel=1e-12, abs=1e-14)
    assert data_virial_overlap(pair) == pytest.approx(virial, rel=1e-12, abs=1e-14)
    assert virial_constant(pair) == pytest.approx(k0, rel=1e-12, abs=1e-14)


def test_overlaps_vanish_with_zero_data(gauss1d_vel, gauss2d_vel):
    for pair in (gauss1d_vel, gauss2d_vel):
        assert data_overlap(pair) == 0.0
        assert data_virial_overlap(pair) == 0.0


def test_virial_overlap_needs_a_gradient():
    pair = ProfilePair(1, Profile.indicator_interval(1.0), Profile.gaussian(1, 1.0))
    with pytest.raises(ValueError, match="gradient"):
        data_virial_overlap(pair)


def test_initial_energy_values(example, gauss2d_vel):
    assert initial_energy(example) == pytest.approx(4.0, rel=1e-14)
    assert initial_energy(gauss2d_vel) == pytest.approx(math.pi / 2.0, rel=1e-14)
    bad = ProfilePair(1, Profile.indicator_interval(1.0), Profile.gaussian(1, 1.0))
    with pytest.raises(ValueError, match="H1"):
        initial_energy(bad)


def test_virial_constant_is_dimension_aware(gauss_pair_1d, gauss_pair_2d, gauss2d_vel):
    ov = data_overlap(gauss_pair_1d)
    ovg = data_virial_overlap(gauss_pair_1d)
    assert virial_constant(gauss_pair_1d) == pytest.approx(
        ovg + initial_energy(gauss_pair_1d), rel=1e-12
    )
    ov2 = data_overlap(gauss_pair_2d)
    ovg2 = data_virial_overlap(gauss_pair_2d)
    assert virial_constant(gauss_pair_2d) == pytest.approx(
        ovg2 + 0.5 * ov2 + initial_energy(gauss_pair_2d), rel=1e-12
    )
    assert ov != 0.0 and ovg2 != 0.0
    assert virial_constant(gauss2d_vel) == pytest.approx(math.pi / 2.0, rel=1e-12)


# ------------------------------------------------------------ local energy
def test_local_energy_of_the_whole_box(gauss_pair_1d):
    field = grid_solve(gauss_pair_1d, 0.0, 64.0, 1024)
    # the ball energy carries no 1/2, the conserved energy does
    assert local_energy(field, 63.0) == pytest.approx(2.0 * field.energy(), rel=1e-12)


def test_local_energy_matches_profile_quadrature(gauss2d_vel):
    field = grid_solve(gauss2d_vel, 0.0, 64.0, 1024)
    u1 = gauss2d_vel.u1
    want = 2.0 * math.pi * quad(lambda r: r * float(u1.value(np.array([r, 0.0]))) ** 2, 0.0, 5.0)[0]
    assert local_energy(field, 5.0) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("r_obs", [60.0, 70.0])
def test_windowed_local_energy_is_the_full_mask_sum(gauss_pair_2d, r_obs):
    # r_obs = 70 exceeds lam, so the window is clipped to the whole grid
    field = grid_solve(gauss_pair_2d, 10.0, 64.0, 512)
    x = field.axis()
    mask = x[:, None] ** 2 + x[None, :] ** 2 <= r_obs * r_obs
    want = field.dx**2 * float(np.sum(field.density()[mask]))
    assert local_energy(field, r_obs) == want


def test_local_energy_validation(gauss_pair_1d):
    field = grid_solve(gauss_pair_1d, 10.0, 64.0, 1024)
    with pytest.raises(ValueError, match="cells"):
        local_energy(field, 0.05)
    n = 1024
    stale = GridField(1, 64.0, n, 130.0, np.zeros(n), np.zeros(n), 8.0)
    with pytest.raises(HorizonError, match="horizon"):
        local_energy(stale, 5.0)


# ------------------------------------------------------------------- flux
def test_flux_at_time_zero_reduces_to_overlaps(gauss_pair_2d):
    field = grid_solve(gauss_pair_2d, 0.0, 64.0, 1024)
    f_val, g_val = flux_functionals(field)
    assert f_val == pytest.approx(data_overlap(gauss_pair_2d), rel=1e-10)
    assert g_val == pytest.approx(data_virial_overlap(gauss_pair_2d), rel=1e-10)


def test_flux_vanishes_for_pure_velocity_data(gauss2d_vel):
    field = grid_solve(gauss2d_vel, 0.0, 64.0, 512)
    f_val, g_val = flux_functionals(field)
    assert f_val == 0.0
    assert g_val == 0.0


def test_flux_rejects_boundary_contamination():
    n = 1024
    field = GridField(1, 64.0, n, 20.0, np.full(n, 1e-6), np.zeros(n), 8.0)
    with pytest.raises(HorizonError, match="boundary"):
        flux_functionals(field)


# --------------------------------------------------------------- identity
def test_morawetz_residual_is_tiny(gauss_pair_1d, gauss_pair_2d):
    f1 = grid_solve(gauss_pair_1d, 8.0, 64.0, 1024)
    r1 = morawetz_residual(f1, gauss_pair_1d)
    assert isinstance(r1, float)
    assert abs(r1) <= 1e-12
    fields = [grid_solve(gauss_pair_2d, t, 64.0, 1024) for t in (10.0, 20.0)]
    r2 = morawetz_residual(fields, gauss_pair_2d)
    assert np.shape(r2) == (2,)
    assert float(np.max(np.abs(r2))) <= 1e-12


def test_decay_inequality_slack_algebra():
    assert prop41_check(0.1, -0.3, 10.0, 2.0, 1.0) == pytest.approx(1.0 + 0.15 - 0.8)
    with pytest.raises(ValueError, match="t > R"):
        prop41_check(0.1, 0.0, 2.0, 2.0, 1.0)


def test_envelope_algebra():
    assert thm42_envelope(math.e, 0.5, 2.0, 1.0, 0.0, 0.7) == pytest.approx(2.0 / (math.e - 0.5))
    want = (2.0 + 0.5 * 0.7 * math.sqrt(2.0) * 3.0 * math.sqrt(math.log(100.0))) / 95.0
    assert thm42_envelope(100.0, 5.0, 2.0, 1.0, 3.0, 0.7) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="t > R"):
        thm42_envelope(0.9, 0.5, 2.0, 1.0, 0.0, 0.7)


# ----------------------------------------------------------------- report
def test_report_2d_small(gauss2d_vel, consts):
    rep = local_energy_report(gauss2d_vel, 5.0, (20.0, 40.0), lam=64.0, n_points=512, consts=consts)
    assert rep.k0 == pytest.approx(math.pi / 2.0, rel=1e-10)
    assert rep.e0 == pytest.approx(math.pi / 2.0, rel=1e-10)
    assert rep.weighted_h1 == pytest.approx(math.pi**1.5 / 2.0, rel=1e-9)
    assert rep.c_assembled > 0.0
    # the data constant alone already dominates at these times
    assert rep.c_fitted == 0.0
    assert rep.min_f_slack > 0.0
    for s in rep.samples:
        assert abs(s.residual) <= 1e-12
        assert s.slack >= -1e-8 * (1.0 + rep.k0)
        assert s.e_r <= s.envelope
        assert s.e_r <= 2.0 * rep.e0
    assert [s.t for s in rep.samples] == [20.0, 40.0]
    assert rep.samples[1].e_r < rep.samples[0].e_r
    assert rep.CSV_HEADER == ("t", "E_R", "F", "G", "residual", "slack", "envelope")
    rows = rep.rows()
    assert len(rows) == 2 and len(rows[0]) == len(rep.CSV_HEADER)


def test_report_1d_has_no_envelope(gauss1d_vel, consts):
    rep = local_energy_report(gauss1d_vel, 5.0, (20.0, 40.0), lam=64.0, n_points=512, consts=consts)
    assert math.isnan(rep.c_assembled)
    assert math.isnan(rep.c_fitted)
    for s in rep.samples:
        assert math.isnan(s.envelope)
        assert abs(s.residual) <= 1e-12
        assert s.slack >= -1e-8 * (1.0 + rep.k0)


@pytest.mark.parametrize("name", ["gauss_pair_1d", "shifted_pair_2d", "poly_pair_2d"])
def test_report_matches_the_grid_functionals(name, request, consts):
    pair = request.getfixturevalue(name)
    ts = (20.0, 30.0, 40.0)
    rep = local_energy_report(pair, 5.0, ts, lam=64.0, n_points=512, consts=consts)
    assert rep.k0 == virial_constant(pair)
    e0, ov, ovg = initial_energy(pair), data_overlap(pair), data_virial_overlap(pair)
    half = 0.5 * (pair.dimension - 1)
    for t, s in zip(ts, rep.samples):
        field = grid_solve(pair, t, 64.0, 512)
        f_val, g_val = flux_functionals(field)
        want = (local_energy(field, 5.0), f_val, g_val, morawetz_residual(field, pair))
        assert (s.e_r, s.f, s.g, s.residual) == pytest.approx(want, rel=1e-13, abs=0.0)
        rhs = half * ov + ovg - half * f_val - g_val
        assert s.residual == abs(t * field.energy() - rhs) / (1.0 + t * e0)
    assert rep.spectral_tail <= 1e-20


def _count_ffts(monkeypatch) -> dict:
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_report_evolves_by_inverse_ffts_only(shifted_pair_2d, monkeypatch):
    calls = _count_ffts(monkeypatch)
    ts = (20.0, 30.0, 40.0)
    rep = local_energy_report(shifted_pair_2d, 5.0, ts, lam=64.0, n_points=512)
    assert calls == {"rfftn": 0, "irfftn": 4 * len(ts)}
    assert (rep.lam, rep.n_points) == (64.0, 512)


def test_radial_report_makes_no_fft_calls(gauss_pair_2d, monkeypatch):
    calls = _count_ffts(monkeypatch)
    rep = local_energy_report(gauss_pair_2d, 5.0, (20.0, 30.0, 40.0), lam=64.0, n_points=512)
    assert calls == {"rfftn": 0, "irfftn": 0}
    assert rep.lam is rep.n_points is rep.spectral_tail is None


def test_report_validation(gauss2d_vel, shifted_pair_2d):
    with pytest.raises(ValueError, match="exceed"):
        local_energy_report(gauss2d_vel, 5.0, (4.0,), lam=64.0, n_points=512)
    with pytest.raises(HorizonError):
        local_energy_report(shifted_pair_2d, 5.0, (60.0,), lam=64.0, n_points=512)
    bad = ProfilePair(2, Profile.indicator_disk(1.0), Profile.gaussian(2, 1.0))
    with pytest.raises(ValueError, match="weighted H1"):
        local_energy_report(bad, 5.0, (20.0,), lam=64.0, n_points=512)


@pytest.mark.parametrize("dimension", [1, 2])
def test_report_refuses_zero_data_before_integrating(dimension, monkeypatch):
    """The envelope divides by the data's size, so zero data are named up
    front instead of ending in a division by zero."""
    le_mod = sys.modules[local_energy_report.__module__]

    def no_integration(*args, **kwargs):
        raise AssertionError("zero data reached an integration")

    for name in ("moments", "integrate_batch", "_integrate_data"):
        monkeypatch.setattr(le_mod, name, no_integration)
    zero = ProfilePair(dimension, Profile.zero(dimension), Profile.zero(dimension))
    with pytest.raises(ValueError, match="nonzero data"):
        local_energy_report(zero, 5.0, (20.0,), lam=64.0, n_points=512)


# ------------------------------------------------------ grid-free radial path
def test_only_centred_2d_gaussians_run_grid_free(gauss_pair_2d, gauss2d_vel, gauss_pair_1d, shifted_pair_2d, poly_pair_2d):
    assert _grid_free(gauss_pair_2d) and _grid_free(gauss2d_vel)
    disk = ProfilePair(2, Profile.zero(2), Profile.indicator_disk(1.0))
    for pair in (gauss_pair_1d, shifted_pair_2d, poly_pair_2d, disk):
        assert not _grid_free(pair)


@pytest.mark.parametrize("name", ["gauss2d_vel", "gauss_pair_2d"])
@pytest.mark.parametrize("t", [6.0, 20.0, 40.0])
def test_radial_fields_match_the_grid(name, t, request):
    """u_t and u_r by Hankel quadrature at the grid nodes of the x_1 axis inside R."""
    pair = request.getfixturevalue(name)
    field = grid_solve(pair, t, 64.0, 512)
    ax = field.axis()
    inside = np.flatnonzero((ax >= 0.0) & (ax <= 5.0))
    centre = int(np.flatnonzero(ax == 0.0)[0])
    vals = _radial_values(pair, [t], ax[inside])
    ut, ur = field.ut[inside, centre], field.grad()[0][inside, centre]
    scale = float(np.max(np.abs(ut)))
    assert float(np.max(np.abs(vals.ut[0] - ut))) <= 1e-12 * scale
    assert float(np.max(np.abs(vals.ur[0] - ur))) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["gauss2d_vel", "gauss_pair_2d"])
def test_radial_flux_functionals_match_the_grid(name, request):
    pair = request.getfixturevalue(name)
    ts = (6.0, 20.0, 40.0)
    vals = _radial_values(pair, ts, [1.0])
    for i, t in enumerate(ts):
        f_grid, g_grid = flux_functionals(grid_solve(pair, t, 64.0, 512))
        assert (vals.f[i], vals.g[i]) == pytest.approx((f_grid, g_grid), rel=1e-12, abs=0.0)


def test_radial_ball_energy_converges_in_the_node_count(gauss_pair_2d):
    """The grid's ball is a staircase of cell centres, so E_R is checked
    against a Gauss-Legendre rule of twice the nodes instead."""
    ts = (5.5, 8.0, 20.0, 100.0)
    rep = local_energy_report(gauss_pair_2d, 5.0, ts)
    m = _ball_rule(gauss_pair_2d, 5.0)[0].size
    x, w = np.polynomial.legendre.leggauss(2 * m)
    r = 2.5 * (x + 1.0)
    vals = _radial_values(gauss_pair_2d, ts, r)
    fine = (vals.ut**2 + vals.ur**2) @ (2.0 * math.pi * r * 2.5 * w)
    assert [s.e_r for s in rep.samples] == pytest.approx(fine.tolist(), rel=1e-12, abs=0.0)


def test_radial_ball_energy_reaches_the_poisson_limit(gauss2d_vel):
    """For P = int u1 != 0, Poisson's formula gives u ~ P / (2 pi t) on a
    fixed ball, so E_R(t) t^4 -> R^2 P^2 / (4 pi)."""
    r_obs, p = 5.0, 2.0 * math.pi
    ts = (1e3, 1e4, 1e5)
    rep = local_energy_report(gauss2d_vel, r_obs, ts)
    for t, s in zip(ts, rep.samples):
        assert s.e_r * t**4 / (r_obs**2 * p**2 / (4.0 * math.pi)) == pytest.approx(1.0, abs=1e-4)


def test_radial_report_runs_past_the_grid_horizon(gauss_pair_2d):
    t = 1e4
    rep = local_energy_report(gauss_pair_2d, 5.0, (t,), lam=64.0, n_points=512)
    (s,) = rep.samples
    assert s.residual <= 1e-14
    assert s.slack > 0.0
    assert s.e_r <= s.envelope
    assert rep.min_f_slack > 0.0
    # the norm enters through the same batch as a standalone norm call
    assert rep.min_f_slack == math.sqrt(2.0 * rep.e0) * l2_norm(gauss_pair_2d, t) + 1e-8 - abs(s.f)


def test_radial_flux_rows_are_integrated_in_units_of_the_data_size():
    """F, P and |dt w^|^2 are quadratic in the data: in raw units this
    pair's F at t = 169 (about 1.2e-4) asked for a quarter-tolerance of
    3e-14, below the roundoff of its Filon indicator, and ran out of panels."""
    pair = ProfilePair(
        2,
        Profile.gaussian(2, 0.9786007062390875, 1.878831576730084),
        Profile.gaussian(2, 0.8490295192756432, 0.7670777649203298),
    )
    ts = (13.466860897691578, 35.993429228397865, 72.21836785885709, 168.97494718505257)
    rep = local_energy_report(pair, 5.0, ts)
    assert all(s.residual <= 1e-14 and s.slack > 0.0 for s in rep.samples)
