import math

import numpy as np
import pytest

from _oracles import msq_gauss1d
from wavegrowth.oracles import (
    GridField,
    HorizonError,
    dalembert_l2,
    dalembert_solve,
    example_msq_closed,
    example_pair,
    grid_evolver,
    grid_solve,
    verify_example,
)
from wavegrowth.profiles import Profile, ProfileError, ProfilePair
from wavegrowth.spectral import l2_norm


# ------------------------------------------------------------- d'Alembert
def test_dalembert_piecewise_values(example):
    # plateau, ramp midpoint, trailing zero for the travelling fronts
    u = dalembert_solve(example, 10.0, np.array([0.0, 9.5, 10.0, 12.0]))
    np.testing.assert_allclose(u, [2.0, 1.5, 1.0, 0.0], atol=1e-14)


def test_dalembert_pure_position_split():
    g = Profile.gaussian(1, 0.9, 1.3, center=0.2)
    pair = ProfilePair(1, g, Profile.zero(1))
    x = np.linspace(-4.0, 4.0, 9)
    t = 1.7
    want = 0.5 * (g.value(x - t) + g.value(x + t))
    np.testing.assert_allclose(dalembert_solve(pair, t, x), want, rtol=1e-13)


def test_dalembert_rejects_2d(gauss_pair_2d):
    with pytest.raises(ProfileError, match="one-dimensional"):
        dalembert_solve(gauss_pair_2d, 1.0, np.array([0.0]))


def test_dalembert_l2_example_closed(example):
    for t in (3.0, 7.25):
        assert dalembert_l2(example, t) == pytest.approx(
            math.sqrt(8.0 * (t - 1.0) + 16.0 / 3.0), rel=1e-10
        )


def test_dalembert_l2_initial_norm():
    pair = ProfilePair(1, Profile.gaussian(1, 1.0 / math.sqrt(2.0)), Profile.zero(1))
    assert dalembert_l2(pair, 0.0) == pytest.approx((math.pi / 2.0) ** 0.25, rel=1e-10)


def test_dalembert_l2_resolves_the_fronts_at_long_times(gauss1d_vel):
    # the fronts at +-t are unit-width steps on a plateau of width 2t;
    # panels no wider than the data's scale keep them resolved
    assert dalembert_l2(gauss1d_vel, 1e4) ** 2 == pytest.approx(msq_gauss1d(1e4), rel=1e-10)


def test_dalembert_l2_has_no_time_limit():
    """Narrow panels only near the translated data: the plateau of width
    2t between the fronts takes a few wide panels, so t/sigma = 2e5 fits
    the panel budget.  M^2 scales as sigma^3 msq_gauss1d(t / sigma)."""
    sigma, t = 0.5, 1e5
    pair = ProfilePair(1, Profile.zero(1), Profile.gaussian(1, sigma))
    assert dalembert_l2(pair, t) ** 2 == pytest.approx(sigma**3 * msq_gauss1d(t / sigma), rel=1e-12)


# ------------------------------------------------------------------- grid
def test_grid_reproduces_the_data_at_time_zero(gauss_pair_1d):
    field = grid_solve(gauss_pair_1d, 0.0, 64.0, 1024)
    x = field.axis()
    np.testing.assert_allclose(field.u, gauss_pair_1d.u0.value(x), atol=1e-12)
    np.testing.assert_allclose(field.ut, gauss_pair_1d.u1.value(x), atol=1e-12)
    assert field.l2_norm() == pytest.approx(math.sqrt(gauss_pair_1d.u0.l2_sq()), rel=1e-12)
    e0 = 0.5 * (gauss_pair_1d.u1.l2_sq() + gauss_pair_1d.u0.grad_l2_sq())
    assert field.energy() == pytest.approx(e0, rel=1e-12)


def test_grid_matches_dalembert(gauss_pair_1d):
    field = grid_solve(gauss_pair_1d, 5.0, 64.0, 4096)
    exact = dalembert_solve(gauss_pair_1d, 5.0, field.axis())
    assert float(np.max(np.abs(field.u - exact))) <= 1e-10


def test_grid_matches_spectral_norm_2d(gauss_pair_2d):
    field = grid_solve(gauss_pair_2d, 10.0, 64.0, 512)
    assert field.l2_norm() == pytest.approx(l2_norm(gauss_pair_2d, 10.0), rel=1e-12)
    assert field.axis().shape == (512,)
    assert field.dx == pytest.approx(0.25)


def test_grid_gradient_matches_the_data_gradient(gauss_pair_1d, gauss_pair_2d):
    field = grid_solve(gauss_pair_1d, 0.0, 64.0, 1024)
    (ux,) = field.grad()
    np.testing.assert_allclose(ux, gauss_pair_1d.u0.grad(field.axis())[:, 0], atol=1e-12)
    field = grid_solve(gauss_pair_2d, 0.0, 32.0, 256)
    ax = field.axis()
    xs = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    want = gauss_pair_2d.u0.grad(xs)
    ux, uy = field.grad()
    np.testing.assert_allclose(ux, want[..., 0], atol=1e-12)
    np.testing.assert_allclose(uy, want[..., 1], atol=1e-12)


def test_grid_solve_is_one_evolver_step(gauss_pair_2d):
    evolve = grid_evolver(gauss_pair_2d, 64.0, 256)
    for t in (0.0, 7.5, 20.0):
        one, many = grid_solve(gauss_pair_2d, t, 64.0, 256), evolve(t)
        assert one.t == many.t == t
        for a, b in zip((one.u, one.ut, *one.grad()), (many.u, many.ut, *many.grad())):
            assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="t >= 0"):
        evolve(-1.0)
    with pytest.raises(HorizonError, match="boundary"):
        evolve(60.0)


def test_hand_built_field_has_no_gradient():
    field = GridField(1, 64.0, 128, 0.0, np.zeros(128), np.zeros(128))
    with pytest.raises(ValueError, match="no gradient"):
        field.energy()


def test_spectral_tail_certifies_the_resolution(gauss_pair_2d):
    # dx = 0.25: sigma 0.9 is resolved to roundoff, sigma 0.1 is not
    assert grid_solve(gauss_pair_2d, 0.0, 32.0, 256).spectral_tail <= 1e-20
    narrow = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 0.1))
    assert grid_solve(narrow, 0.0, 32.0, 256).spectral_tail >= 0.1
    narrow_1d = ProfilePair(1, Profile.gaussian(1, 0.1), Profile.zero(1))
    assert grid_solve(narrow_1d, 0.0, 32.0, 256).spectral_tail >= 0.1


def test_finite_propagation_speed(gauss_pair_1d):
    t = 12.0
    field = grid_solve(gauss_pair_1d, t, 128.0, 4096)
    x = field.axis()
    outside = np.abs(x) > gauss_pair_1d.effective_radius(1e-14) + t + 3.0 * field.dx
    assert outside.any()
    assert float(np.max(np.abs(field.u[outside]))) <= 1e-12
    assert float(np.max(np.abs(field.ut[outside]))) <= 1e-12


def test_grid_energy_is_conserved(gauss_pair_1d):
    es = [grid_solve(gauss_pair_1d, t, 64.0, 1024).energy() for t in (0.0, 1.0, 5.0, 10.0)]
    drift = max(abs(e - es[0]) for e in es) / es[0]
    assert drift <= 1e-12


def test_grid_validation(gauss_pair_2d):
    with pytest.raises(ValueError, match="t >= 0"):
        grid_solve(gauss_pair_2d, -1.0, 64.0, 512)
    with pytest.raises(HorizonError, match="boundary"):
        grid_solve(gauss_pair_2d, 60.0, 64.0, 512)


# ---------------------------------------------------------------- example
def test_example_pair_shape(example):
    assert example.dimension == 1
    assert example.u0.is_zero
    assert example.u1.kind == "indicator_interval"
    assert example.u1.amplitude == 2.0
    assert example.u1.radius == 1.0
    assert example_pair() == example


def test_example_closed_form_domain():
    """The closed form holds from t = R = 1, where the fronts separate: the
    d'Alembert oracle meets it at t = 1 and 1.5 to roundoff."""
    assert example_msq_closed(2.5) == pytest.approx(8.0 * 1.5 + 16.0 / 3.0, rel=1e-15)
    for t in (1.0, 1.5):
        assert dalembert_l2(example_pair(), t) ** 2 == pytest.approx(example_msq_closed(t), rel=1e-15)
    with pytest.raises(ValueError, match="t >= 1"):
        example_msq_closed(0.99)


def test_verify_example_quick():
    rows = verify_example(t_values=(2.5, 5.0))
    assert [r.t for r in rows] == [2.5, 5.0]
    for row in rows:
        closed_sq = row.m_closed**2
        assert closed_sq == pytest.approx(8.0 * (row.t - 1.0) + 16.0 / 3.0, rel=1e-15)
        assert row.m_dalembert**2 == pytest.approx(closed_sq, rel=1e-9)
        assert row.m_spectral**2 == pytest.approx(closed_sq, rel=1e-6)
        assert row.m_grid**2 == pytest.approx(closed_sq, rel=1e-6)
