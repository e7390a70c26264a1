import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from _oracles import TWO_PI, ft_quadrature, shifted_gauss_weighted_l2
from wavegrowth.bounds import _mean_deviation_sq
from wavegrowth.local_energy import data_constants
from wavegrowth import profiles
from wavegrowth.profiles import (
    KINDS,
    DataNorms,
    Profile,
    ProfileError,
    ProfilePair,
    moments,
    unit_sphere_measure,
)
from wavegrowth.quadrature import QuadratureError

CATALOG_1D = [
    Profile.gaussian(1, 1.0),
    Profile.gaussian(1, 0.7, 0.5, center=0.4),
    Profile.indicator_interval(1.0, 2.0),
    Profile.indicator_interval(0.5, 1.5),
    Profile.polynomial_gaussian(1, 1.0),
    Profile.polynomial_gaussian(1, 0.8, 1.3),
]
CATALOG_2D = [
    Profile.gaussian(2, 1.0),
    Profile.gaussian(2, 0.8, 0.5, center=(0.3, -0.2)),
    Profile.indicator_disk(1.0, 2.0),
    Profile.indicator_disk(1.5, 0.7),
    Profile.polynomial_gaussian(2, 1.0),
    Profile.polynomial_gaussian(2, 1.0 / math.sqrt(2.0)),
]


def _ids(catalog):
    return [f"{p.kind}-{i}" for i, p in enumerate(catalog)]


# ------------------------------------------------------------ transforms
@pytest.mark.parametrize("p", CATALOG_1D, ids=_ids(CATALOG_1D))
def test_ft_matches_quadrature_1d(p):
    """Closed-form transforms agree with quadrature of the defining integral.

    Below 1e-8 of the L1 norm the quadrature oracle cannot certify eight
    relative digits in float64, so tiny values are only checked for
    consistency with zero at the oracle's resolution.
    """
    rng = np.random.default_rng(2024)
    cutoff = 1e-8 * p.l1()
    for xi in rng.uniform(-10.0, 10.0, size=20):
        got = complex(p.ft(xi))
        want = ft_quadrature(p, xi)
        if abs(got) >= cutoff:
            assert got == pytest.approx(want, rel=1e-8)
        else:
            assert abs(want) <= 2.0 * cutoff


@pytest.mark.parametrize("p", CATALOG_2D, ids=_ids(CATALOG_2D))
def test_ft_matches_quadrature_2d(p):
    rng = np.random.default_rng(2024)
    cutoff = 1e-8 * p.l1()
    radius = rng.uniform(0.0, 10.0, size=20)
    angle = rng.uniform(0.0, TWO_PI, size=20)
    for rho, th in zip(radius, angle):
        xi = np.array([rho * math.cos(th), rho * math.sin(th)])
        got = complex(p.ft(xi))
        want = ft_quadrature(p, xi)
        if abs(got) >= cutoff:
            assert got == pytest.approx(want, rel=1e-8)
        else:
            assert abs(want) <= 2.0 * cutoff


def test_ft_at_zero_is_the_integral():
    assert complex(Profile.indicator_interval(1.0, 2.0).ft(0.0)) == 4.0 + 0.0j
    assert complex(Profile.gaussian(1, 1.0).ft(0.0)) == pytest.approx(math.sqrt(TWO_PI), rel=1e-14)
    assert complex(Profile.indicator_disk(1.0, 2.0).ft(np.zeros(2))) == pytest.approx(
        2.0 * math.pi, rel=1e-14
    )
    g2 = Profile.gaussian(2, 1.3, 0.6)
    assert complex(g2.ft(np.zeros(2))) == pytest.approx(0.6 * TWO_PI * 1.3**2, rel=1e-14)
    assert complex(Profile.polynomial_gaussian(2, 1.0).ft(np.zeros(2))) == 0.0


@pytest.mark.parametrize("p", CATALOG_1D + CATALOG_2D, ids=_ids(CATALOG_1D + CATALOG_2D))
def test_transform_continuous_at_zero_frequency(p):
    """Near zero frequency the transform approaches the profile mean."""
    if p.dimension == 1:
        mean = complex(p.ft(0.0))
        probes = [np.array(1e-8), np.array(-1e-8)]
    else:
        mean = complex(p.ft(np.zeros(2)))
        probes = [1e-8 * np.array([math.cos(a), math.sin(a)]) for a in (0.3, 2.0, 4.5)]
    for xi in probes:
        assert abs(complex(p.ft(xi)) - mean) <= 1e-6 * (1.0 + abs(mean))


def test_disk_transform_series_matches_bessel_branch():
    disk = Profile.indicator_disk(1.0, 2.0)
    # the series branch below 1e-8 must join the J1 branch continuously
    lo = complex(disk.ft(np.array([9.9e-9, 0.0])))
    hi = complex(disk.ft(np.array([1.1e-8, 0.0])))
    assert lo == pytest.approx(hi, rel=1e-12)
    assert lo == pytest.approx(2.0 * math.pi, rel=1e-8)


def test_amplitude_scaling_covariance():
    """Scaling the amplitude scales every norm with its homogeneity."""
    base = [
        Profile.gaussian(1, 0.9),
        Profile.indicator_interval(1.0, 2.0),
        Profile.polynomial_gaussian(2, 1.1),
    ]
    scaled = [
        Profile.gaussian(1, 0.9, 3.0),
        Profile.indicator_interval(1.0, 6.0),
        Profile.polynomial_gaussian(2, 1.1, 3.0),
    ]
    for p, q in zip(base, scaled):
        xi = 0.37 if p.dimension == 1 else np.array([0.37, -0.2])
        assert complex(q.ft(xi)) == pytest.approx(3.0 * complex(p.ft(xi)), rel=1e-12)
        assert q.l1() == pytest.approx(3.0 * p.l1(), rel=1e-12)
        assert q.l2_sq() == pytest.approx(9.0 * p.l2_sq(), rel=1e-12)
        assert q.l11() == pytest.approx(3.0 * p.l11(), rel=1e-12)
        rho = 0.8
        assert float(q.sq_ft_sphere(rho)) == pytest.approx(
            9.0 * float(p.sq_ft_sphere(rho)), rel=1e-12
        )
        if p.in_h1:
            assert q.grad_l2_sq() == pytest.approx(9.0 * p.grad_l2_sq(), rel=1e-12)


# ----------------------------------------------------------------- norms
@pytest.mark.parametrize("p", CATALOG_1D, ids=_ids(CATALOG_1D))
def test_norms_match_quadrature_1d(p):
    r = p.effective_radius(1e-16)
    pts = sorted({0.0} | {q for q in p.kinks() if -r < q < r})
    l1_num, _ = quad(lambda x: abs(float(p.value(x))), -r, r, points=pts, limit=200)
    l2_num, _ = quad(lambda x: float(p.value(x)) ** 2, -r, r, points=pts, limit=200)
    l11_num, _ = quad(
        lambda x: (1.0 + abs(x)) * abs(float(p.value(x))), -r, r, points=pts, limit=200
    )
    assert p.l1() == pytest.approx(l1_num, rel=1e-10)
    assert p.l2_sq() == pytest.approx(l2_num, rel=1e-10)
    assert p.l11() == pytest.approx(l11_num, rel=1e-10)


@pytest.mark.parametrize("p", CATALOG_2D, ids=_ids(CATALOG_2D))
def test_norms_match_quadrature_2d(p):
    r = p.effective_radius(1e-16)
    if p.is_radial:
        f = lambda s: float(p.value(np.array([s, 0.0])))
        l1_num = TWO_PI * quad(lambda s: s * abs(f(s)), 0.0, r, limit=200)[0]
        l2_num = TWO_PI * quad(lambda s: s * f(s) ** 2, 0.0, r, limit=200)[0]
        l11_num = TWO_PI * quad(lambda s: s * (1.0 + s) * abs(f(s)), 0.0, r, limit=200)[0]
        assert p.l11() == pytest.approx(l11_num, rel=1e-10)
    elif p.kind == "polynomial_gaussian":
        # |h| = |cos th| |v(r)| with v the first-axis slice; the angular
        # factors integrate to 4 and pi
        v = lambda s: float(p.value(np.array([s, 0.0])))
        l1_num = 4.0 * quad(lambda s: s * abs(v(s)), 0.0, r, limit=200)[0]
        l2_num = math.pi * quad(lambda s: s * v(s) ** 2, 0.0, r, limit=200)[0]
        l11_num = 4.0 * quad(lambda s: (1.0 + s) * s * abs(v(s)), 0.0, r, limit=200)[0]
        assert p.l11() == pytest.approx(l11_num, rel=1e-10)
    else:
        centered = Profile.gaussian(2, p.sigma, p.amplitude)
        l1_num = centered.l1()
        l2_num = centered.l2_sq()
        l11_num, _ = dblquad(
            lambda y, x: (1.0 + math.hypot(x, y)) * abs(float(p.value(np.array([x, y])))),
            -r, r, -r, r, epsabs=1e-10, epsrel=1e-10,
        )
        assert p.l11() == pytest.approx(l11_num, rel=1e-8)
    assert p.l1() == pytest.approx(l1_num, rel=1e-10)
    assert p.l2_sq() == pytest.approx(l2_num, rel=1e-10)


def test_gradient_norms_closed_values():
    assert Profile.gaussian(1, 1.0).grad_l2_sq() == pytest.approx(math.sqrt(math.pi) / 2.0)
    assert Profile.gaussian(2, 0.7, 2.0).grad_l2_sq() == pytest.approx(4.0 * math.pi)
    assert math.isinf(Profile.indicator_interval(1.0).grad_l2_sq())
    assert math.isinf(Profile.indicator_disk(1.0).grad_l2_sq())
    assert Profile.zero(2).grad_l2_sq() == 0.0


def _weighted_l2(p: Profile) -> float:
    """int |x| |h|^2 dx: the decay chain's weighted H1 norm of velocity-only data."""
    return data_constants(ProfilePair(p.dimension, Profile.zero(p.dimension), p)).weighted_h1


def _weighted_grad_sq(p: Profile) -> float:
    """int |x| |grad h|^2 dx: the weighted H1 norm of position-only data."""
    return data_constants(ProfilePair(p.dimension, p, Profile.zero(p.dimension))).weighted_h1


def test_weighted_norms_closed_values():
    # int |x| e^{-x^2} style moments reduce to gamma integrals
    assert _weighted_l2(Profile.gaussian(2, 1.0)) == pytest.approx(math.pi**1.5 / 2.0, rel=1e-9)
    assert _weighted_grad_sq(Profile.gaussian(1, 1.0)) == pytest.approx(1.0, rel=1e-9)
    assert _weighted_grad_sq(Profile.gaussian(2, 1.0)) == pytest.approx(0.75 * math.pi**1.5, rel=1e-8)
    with pytest.raises(ValueError, match="weighted H1"):
        _weighted_grad_sq(Profile.indicator_disk(1.0))
    assert _weighted_l2(Profile.indicator_interval(1.0, 2.0)) == pytest.approx(4.0, rel=1e-9)
    # h = a x1 e^{-r^2/(2 s^2)}: the angular factors are pi cos^2 and
    # 2 pi - 2 pi r^2/s^2 + pi r^4/s^4, and int_0^inf r^{2k} e^{-r^2/s^2} dr
    # is sqrt(pi)/4 s^3, 3 sqrt(pi)/8 s^5 and 15 sqrt(pi)/16 s^7 for k = 1, 2, 3
    a, s = 1.3, 0.7
    poly = Profile.polynomial_gaussian(2, s, a)
    assert _weighted_l2(poly) == pytest.approx(0.375 * math.pi**1.5 * a * a * s**5, rel=1e-12)
    assert _weighted_grad_sq(poly) == pytest.approx(11.0 / 16.0 * math.pi**1.5 * a * a * s**3, rel=1e-12)


def test_shifted_2d_weighted_norm_never_silently_wrong():
    """A narrow gaussian far from the origin is a sharp ring in the angle;
    the angular rule either resolves it or says that it did not."""
    center = (3.0, 0.0)
    wide = Profile.gaussian(2, 0.2, center=center)
    assert _weighted_l2(wide) == pytest.approx(shifted_gauss_weighted_l2(1.0, 0.2, center), rel=1e-10)
    narrow = Profile.gaussian(2, 0.05, center=center)
    try:
        value = _weighted_l2(narrow)
    except QuadratureError as err:
        assert "angular" in str(err)
    else:
        assert value == pytest.approx(shifted_gauss_weighted_l2(1.0, 0.05, center), rel=1e-12)


def test_gradient_matches_finite_differences():
    h = 1e-6
    for p in (Profile.gaussian(1, 0.8, 1.2, center=0.3), Profile.polynomial_gaussian(1, 1.1)):
        for x in (-1.3, 0.2, 0.9):
            num = (float(p.value(x + h)) - float(p.value(x - h))) / (2.0 * h)
            assert float(p.grad(np.array(x))[0]) == pytest.approx(num, rel=2e-9, abs=1e-9)
    for p in (Profile.gaussian(2, 0.9, 0.7, center=(0.2, -0.4)), Profile.polynomial_gaussian(2, 1.0)):
        for pt in ([0.3, 0.5], [-0.7, 0.1]):
            x = np.array(pt)
            g = p.grad(x)
            for axis in (0, 1):
                e = np.zeros(2)
                e[axis] = h
                num = (float(p.value(x + e)) - float(p.value(x - e))) / (2.0 * h)
                assert float(g[axis]) == pytest.approx(num, rel=2e-9, abs=1e-9)


def test_gradient_rejects_indicators():
    with pytest.raises(ProfileError, match="gradient"):
        Profile.indicator_interval(1.0).grad(np.array(0.5))
    with pytest.raises(ProfileError, match="gradient"):
        Profile.indicator_disk(1.0).grad(np.array([0.1, 0.2]))


def test_antiderivative_consistency():
    h = 1e-6
    for p in (
        Profile.gaussian(1, 0.9, 1.4, center=0.2),
        Profile.indicator_interval(1.0, 2.0),
        Profile.polynomial_gaussian(1, 1.2),
    ):
        assert float(p.antiderivative(0.0)) == 0.0
        for x in (-1.7, 0.4, 2.3):
            if p.kind == "indicator_interval" and abs(abs(x) - p.radius) < 1e-3:
                continue
            num = (float(p.antiderivative(x + h)) - float(p.antiderivative(x - h))) / (2.0 * h)
            assert num == pytest.approx(float(p.value(x)), rel=1e-8, abs=1e-9)
    with pytest.raises(ProfileError):
        Profile.gaussian(2, 1.0).antiderivative(0.5)


def test_effective_radius_bounds_the_support():
    for p in CATALOG_1D + CATALOG_2D:
        r = p.effective_radius(1e-12) + 1e-9
        x = np.array(r) if p.dimension == 1 else np.array([r / math.sqrt(2.0)] * 2)
        assert abs(float(p.value(x))) <= 1e-12
    assert Profile.indicator_interval(1.5).effective_radius() == 1.5
    assert Profile.indicator_disk(0.5).effective_radius() == 0.5
    assert Profile.zero(1).effective_radius() == 0.0


def test_the_support_radius_is_exact():
    """h vanishes beyond ``support_radius`` and not just inside it; a kind
    that vanishes nowhere has an infinite one, and zero data have 0."""
    for p in (Profile.indicator_interval(1.5, -0.7), Profile.indicator_disk(0.5, 2.0)):
        r = p.support_radius()
        x = np.array([r * (1.0 + 1e-12), r * (1.0 - 1e-12)])
        points = x if p.dimension == 1 else np.stack([x, np.zeros(2)], axis=-1)
        assert p.value(points).tolist() == [0.0, p.amplitude]
    assert Profile.gaussian(1, 1.0).support_radius() == Profile.polynomial_gaussian(2, 1.0).support_radius() == math.inf
    assert Profile.zero(1).support_radius() == Profile.indicator_interval(2.0, 0.0).support_radius() == 0.0


@pytest.mark.parametrize("radius, amplitude", [(1.0, 2.0), (0.3, -1.7), (40.0, 0.6)])
def test_the_plateau_deficit_is_its_integral(radius, amplitude):
    """int (V^2 - P^2/4) dx with V(x) = int_{-inf}^x h - P/2 and P = int h,
    by adaptive quadrature on the support, where the integrand lives."""
    p = Profile.indicator_interval(radius, amplitude)
    total = float(p.ft(0.0).real)
    below = float(p.antiderivative(-radius))
    integrand = lambda x: (float(p.antiderivative(x)) - below - 0.5 * total) ** 2 - 0.25 * total**2
    want, _ = quad(integrand, -radius, radius, epsabs=0.0, epsrel=1e-13)
    assert p.plateau_deficit() == pytest.approx(want, rel=1e-12)
    assert Profile.zero(1).plateau_deficit() == 0.0
    with pytest.raises(ProfileError, match="gaussian has no closed-form plateau deficit"):
        Profile.gaussian(1, 1.0).plateau_deficit()


@pytest.mark.parametrize("dimension", [1, 2])
def test_effective_radius_covers_every_value_above_tol(dimension):
    """|h| <= tol beyond the returned radius, also where a polynomial
    gaussian's peak |a| sigma e^{-1/2} exceeds its amplitude |a| <= tol; the
    radius is 0 only when the peak itself is at most tol."""
    tol = 1e-14
    cases = [
        Profile.polynomial_gaussian(dimension, 100.0, 5e-15),
        Profile.polynomial_gaussian(dimension, 3.0, 8e-15),
        Profile.polynomial_gaussian(dimension, 0.5, 1.5e-14),
        Profile.polynomial_gaussian(dimension, 1.3, 2.0),
        Profile.gaussian(dimension, 2.0, 5e-15),
        Profile.gaussian(dimension, 0.7, 3.0),
    ]
    for p in cases:
        r = p.effective_radius(tol)
        x = np.linspace(r, r + 20.0 * p.sigma, 4001)
        points = x if dimension == 1 else np.stack([x, np.zeros_like(x)], axis=-1)
        assert np.all(np.abs(p.value(points)) <= tol), p
        peak = abs(p.amplitude) * (p.sigma * math.exp(-0.5) if p.kind == "polynomial_gaussian" else 1.0)
        assert (r == 0.0) == (peak <= tol), p
    assert Profile.polynomial_gaussian(1, 100.0, 5e-15).effective_radius(tol) > 100.0


def test_sq_ft_sphere_deficits_match_mpmath_near_zero():
    """a(rho) - a(0) phi_n(kappa rho) agrees with 40-digit mpmath to 1e-14
    relative near rho = 0, where it is O(rho^(3-n)) and the weight rho^(n-3)
    divides it, on both sides of each series switch, and to 1e-14 of a(0)
    away from 0; a mean-zero kind subtracts nothing."""
    import mpmath as mp

    def reference(p, rho):
        a0, kappa = p.sq_ft_sphere_origin()
        with mp.workdps(40):
            r = mp.mpf(rho)
            y = kappa * r
            phi = (1 + y) * mp.exp(-y) if p.dimension == 1 else mp.exp(-y)
            if p.kind == "gaussian":
                shape = mp.exp(-((p.sigma * r) ** 2))
            elif p.kind == "indicator_interval":
                shape = (mp.sin(p.radius * r) / (p.radius * r)) ** 2
            else:
                shape = (2 * mp.besselj(1, p.radius * r) / (p.radius * r)) ** 2
            return float(a0 * (shape - phi))

    for p in (
        Profile.gaussian(1, 0.7, 1.3),
        Profile.gaussian(1, 2.0, center=0.5),
        Profile.gaussian(2, 1.9, 0.4),
        Profile.gaussian(2, 0.6, center=(0.2, -0.1)),
        Profile.indicator_interval(1.3, 2.0),
        Profile.indicator_disk(0.8, 1.5),
    ):
        a0, kappa = p.sq_ft_sphere_origin()
        scale = p.sigma or p.radius
        assert kappa == 4.0 * scale and a0 == pytest.approx(float(p.sq_ft_sphere(np.zeros(1))[0]), rel=1e-15)
        # the switches: kappa rho = 1/2 for phi_1, R rho = 1/2 and R rho = 1 for the indicators
        switches = [0.5 / kappa, 0.5 / scale, 1.0 / scale]
        near = [*np.geomspace(1e-9, 0.5, 40) / scale, *(s * f for s in switches for f in (1 - 1e-9, 1 + 1e-9))]
        got = p.sq_ft_sphere_deficit(np.array(near))
        assert got == pytest.approx([reference(p, rho) for rho in near], rel=1e-14, abs=0.0), p
        far = np.linspace(0.6, 12.0, 40) / scale
        want = np.array([reference(p, rho) for rho in far])
        assert np.all(np.abs(p.sq_ft_sphere_deficit(far) - want) <= 1e-14 * a0), p
    rho = np.array([1e-6, 0.3, 2.0])
    for p in (Profile.polynomial_gaussian(1, 1.0, 1.3), Profile.polynomial_gaussian(2, 0.8)):
        assert p.sq_ft_sphere_origin()[0] == 0.0
        np.testing.assert_array_equal(p.sq_ft_sphere_deficit(rho), p.sq_ft_sphere(rho))


def test_kinks_and_structure_flags():
    ind = Profile.indicator_interval(1.0, 2.0)
    assert ind.kinks() == (-1.0, 1.0)
    assert not ind.in_h1
    assert ind.is_radial
    assert Profile.gaussian(1, 1.0).kinks() == ()
    assert Profile.gaussian(2, 1.0).is_radial
    assert not Profile.gaussian(2, 1.0, center=(0.1, 0.0)).is_radial
    assert not Profile.polynomial_gaussian(2, 1.0).is_radial
    assert Profile.zero(2).is_zero
    assert Profile.gaussian(1, 1.0, amplitude=0.0).is_zero


def _catalog():
    """Every ``KINDS`` entry in each of its dimensions, centred and, where the kind takes a centre, shifted."""
    for name, kind in KINDS.items():
        for n in kind.dims:
            args = {param: 0.8 for param in kind.params}
            if "amplitude" in kind.options:
                args["amplitude"] = -1.3
            yield Profile(name, n, **args)
            if "center" in kind.options:
                yield Profile(name, n, center=(0.7, -0.4)[:n], **args)


def test_sphere_integrated_transform():
    """Each kind writes its transform once, as (m, g) = ``polar_factor``:
    ft(xi) = g(|xi|) xi_1^m e^{-i xi.c}; ``sq_ft_sphere`` is the sphere
    integral of |ft|^2 (equispaced angles integrate the trigonometric
    angular dependence exactly, and the 1D sphere is {-1, 1}); a(0) is
    ``sq_ft_sphere`` at 0; the data mean is Re ft(0); and the sphere
    integral of |ft - ft(0)|^2 is the closed form of the bounds."""
    th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for p in _catalog():
        m, g = p.polar_factor()
        origin = np.zeros(p.dimension) if p.dimension == 2 else 0.0
        for rho in (0.3, 1.7, 6.0):
            if p.dimension == 1:
                xi, weight = np.array([rho, -rho]), 1.0
                c = p.center[0] * xi
            else:
                xi, weight = rho * np.stack([np.cos(th), np.sin(th)], axis=-1), TWO_PI / th.size
                c = xi @ np.asarray(p.center)
            ft = p.ft(xi)
            want = g(np.full(len(xi), rho)) * (xi if p.dimension == 1 else xi[:, 0]) ** m * np.exp(-1j * c)
            np.testing.assert_allclose(ft, want, rtol=1e-14, atol=1e-300, err_msg=repr(p))
            ring = weight * float(np.sum(np.abs(ft) ** 2))
            assert float(p.sq_ft_sphere(rho)) == pytest.approx(ring, rel=1e-12, abs=1e-300), p
            # the K2 link's deviation from the mean, with a shifted profile's phase averaged
            ring = weight * float(np.sum(np.abs(ft - complex(p.ft(origin))) ** 2))
            assert float(_mean_deviation_sq(p)(rho)) == pytest.approx(ring, rel=1e-12, abs=1e-300), p
        assert p.sq_ft_sphere_origin()[0] == float(p.sq_ft_sphere(np.zeros(1))[0]), p
        assert moments(ProfilePair(p.dimension, p, p)).mean_u1 == complex(p.ft(origin)).real, p


@pytest.mark.parametrize(
    "p",
    [Profile.gaussian(1, 1.0), Profile.polynomial_gaussian(1, 0.8, 1.3),
     Profile.gaussian(2, 1.0), Profile.polynomial_gaussian(2, 1.0),
     Profile.indicator_interval(1.0, 2.0), Profile.indicator_disk(1.0, 2.0)],
    ids=["g1", "p1", "g2", "p2", "i1", "d2"],
)
def test_tail_bound_dominates_the_tail(p):
    n = p.dimension
    for weight in (n - 3.0, n - 1.0, n + 1.0):
        bound = p.sq_ft_sphere_tail(2.5, weight)
        if math.isinf(bound):
            continue
        num, _ = quad(
            lambda s: float(p.sq_ft_sphere(s)) * s**weight, 2.5, 2.5 + 200.0, limit=400
        )
        assert num <= bound * (1.0 + 1e-9)


_SMOOTH_2D = [p for p in CATALOG_2D if p.kind != "indicator_disk"] + [Profile.zero(2)]


@pytest.mark.parametrize("p", _SMOOTH_2D, ids=_ids(_SMOOTH_2D))
def test_polar_factor_derivative_matches_finite_differences(p):
    """``polar_slope`` takes g' from the samples of g."""
    _, g = p.polar_factor()
    slope = p.polar_slope()
    rho = np.array([1e-9, 0.05, 0.4, 1.3, 3.7])
    h = 1e-5
    fd = (g(rho + h) - g(np.abs(rho - h))) / (2.0 * h)
    scale = max(float(np.max(np.abs(g(rho)))), 1e-300)
    np.testing.assert_allclose(slope(rho, g(rho)), fd, rtol=0.0, atol=1e-8 * scale + 1e-300)


def test_polar_factor_derivative_rejects_the_disk():
    with pytest.raises(ProfileError, match="indicator_disk"):
        Profile.indicator_disk(1.0).polar_slope()


def test_slope_tail_bound_dominates_the_tail():
    p = Profile.gaussian(2, 0.8, 1.3)
    (_, g), slope = p.polar_factor(), p.polar_slope()
    for weight in (1.0, 3.0):
        num, _ = quad(lambda s: TWO_PI * abs(complex(slope(s, g(s)))) ** 2 * s**weight, 2.5, 2.5 + 200.0, limit=400)
        assert 0.0 < num <= p.sq_ft_slope_tail(2.5, weight) * (1.0 + 1e-9)
    assert Profile.zero(2).sq_ft_slope_tail(1.0, 3.0) == 0.0
    for other in (Profile.indicator_disk(1.0), Profile.polynomial_gaussian(2, 1.0), Profile.gaussian(1, 1.0)):
        assert math.isinf(other.sq_ft_slope_tail(1.0, 3.0))


def test_tail_bound_divergent_cases():
    assert math.isinf(Profile.indicator_interval(1.0).sq_ft_sphere_tail(1.0, 1.0))
    assert math.isinf(Profile.indicator_disk(1.0).sq_ft_sphere_tail(1.0, 2.0))
    assert Profile.zero(1).sq_ft_sphere_tail(1.0, 0.0) == 0.0
    with pytest.raises(ProfileError, match="rho > 0"):
        Profile.gaussian(1, 1.0).sq_ft_sphere_tail(0.0, 0.0)


# ------------------------------------------------------------ validation
@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Profile.indicator_disk(math.nan), "finite radius"),
        (lambda: Profile.indicator_interval(math.inf), "finite radius"),
        (lambda: Profile.gaussian(2, math.inf), "finite sigma"),
        (lambda: Profile.polynomial_gaussian(1, math.nan), "finite sigma"),
        (lambda: Profile.gaussian(2, 1.0, math.nan), "must be finite"),
        (lambda: Profile.indicator_interval(1.0, -math.inf), "must be finite"),
        (lambda: Profile.gaussian(2, 1.0, center=(0.0, math.inf)), "must be finite"),
    ],
)
def test_constructor_rejects_non_finite_values(make, message):
    """nan fails every comparison and inf passes "> 0", so each parameter
    is checked for finiteness: a nan disk radius leaves ``l2_norm`` running
    for minutes."""
    with pytest.raises(ProfileError, match=message):
        make()


def test_constructor_validation():
    with pytest.raises(ProfileError):
        Profile.gaussian(3, 1.0)
    with pytest.raises(ProfileError):
        Profile.gaussian(1, -1.0)
    with pytest.raises(ProfileError):
        Profile.indicator_interval(0.0)
    with pytest.raises(ProfileError, match="one-dimensional"):
        Profile("indicator_interval", 2, 1.0, radius=1.0)
    with pytest.raises(ProfileError, match="two-dimensional"):
        Profile("indicator_disk", 1, 1.0, radius=1.0)
    with pytest.raises(ProfileError, match="center 0"):
        Profile("indicator_interval", 1, 1.0, radius=1.0, center=(0.5,))
    with pytest.raises(ProfileError, match="center 0"):
        Profile("polynomial_gaussian", 1, 1.0, sigma=1.0, center=(0.5,))
    with pytest.raises(ProfileError, match="kind"):
        Profile("bump", 1, 1.0)
    with pytest.raises(ProfileError, match="radius: not a parameter of kind 'gaussian'"):
        Profile("gaussian", 1, 1.0, sigma=1.0, radius=1.0)
    with pytest.raises(ProfileError, match="radius: not a parameter of kind 'polynomial_gaussian'"):
        Profile("polynomial_gaussian", 2, 1.0, sigma=1.0, radius=1.0)
    with pytest.raises(ProfileError, match="sigma: not a parameter of kind 'indicator_interval'"):
        Profile("indicator_interval", 1, 1.0, sigma=1.0, radius=1.0)
    with pytest.raises(ProfileError, match="sigma: not a parameter of kind 'indicator_disk'"):
        Profile("indicator_disk", 2, 1.0, sigma=1.0, radius=1.0)
    with pytest.raises(ProfileError, match="sigma: not a parameter of kind 'zero'"):
        Profile("zero", 1, sigma=1.0)
    # a 2D profile names the (..., 2) shape it needs, also for a scalar point
    for call in (Profile.gaussian(2, 1.0).value, Profile.gaussian(2, 1.0).ft, Profile.polynomial_gaussian(2, 1.0).grad):
        for x in (0.5, np.zeros(3)):
            with pytest.raises(ProfileError, match=re.escape("of shape (..., 2)")):
                call(x)


def test_amplitude_zero_answers_as_the_zero_kind():
    """An amplitude-0 profile of every kind has the zero profile's radius,
    hints, tails and norms; an indicator keeps its kinks and no gradient."""
    rho = np.array([0.0, 0.3, 2.0, 7.5])
    for p in (
        Profile.gaussian(1, 1.0, 0.0),
        Profile.gaussian(2, 0.8, 0.0, center=(0.3, -0.2)),
        Profile.polynomial_gaussian(1, 1.0, 0.0),
        Profile.polynomial_gaussian(2, 1.0, 0.0),
        Profile.indicator_interval(1.0, 0.0),
        Profile.indicator_disk(1.5, 0.0),
    ):
        z = Profile.zero(p.dimension)
        assert p.is_zero and p.is_radial and z.is_radial
        assert p.effective_radius() == z.effective_radius() == 0.0
        np.testing.assert_array_equal(p.ft_width_hint(rho), z.ft_width_hint(rho))
        np.testing.assert_array_equal(p.sq_ft_sphere(rho), z.sq_ft_sphere(rho))
        np.testing.assert_array_equal(p.sq_ft_sphere_deficit(rho), z.sq_ft_sphere_deficit(rho))
        assert p.sq_ft_sphere_origin() == z.sq_ft_sphere_origin() == (0.0, 1.0)
        for weight in (-1.0, 1.0, 3.0):
            assert p.sq_ft_sphere_tail(1.5, weight) == z.sq_ft_sphere_tail(1.5, weight) == 0.0
            assert p.sq_ft_slope_tail(1.5, weight) == z.sq_ft_slope_tail(1.5, weight) == 0.0
        for name in ("l1", "l2_sq", "l11", "grad_l2_sq"):
            assert getattr(p, name)() == getattr(z, name)() == 0.0
        data = data_constants(ProfilePair(p.dimension, p, p))
        assert (data.e0, data.weighted_h1, data.overlap, data.virial_overlap) == (0.0, 0.0, 0.0, 0.0)
    for ind, x in (
        (Profile.indicator_interval(1.0, 0.0), np.array(0.5)),
        (Profile.indicator_disk(1.5, 0.0), np.zeros(2)),
    ):
        assert ind.kinks() == (-ind.radius, ind.radius)
        assert not ind.in_h1
        with pytest.raises(ProfileError, match="gradient"):
            ind.grad(x)


def test_kind_is_decided_only_by_the_registry():
    """No module compares a profile kind: each kind's behaviour is a method
    of its class in ``profiles.KINDS``, and ``Profile`` and the CLI look the
    kind up there, so a new per-kind piece is a method, not a branch."""
    comparison = re.compile(r"(?<!for )\bkind\s*(==|!=|(not\s+)?in\b)")
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "wavegrowth").glob("*.py"))
    assert paths
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if comparison.search(line)
    ]
    assert hits == []


def test_each_kind_writes_its_transform_once():
    """A kind gives a radial factor and an order; no class between it and
    ``_Kind`` defines the transform or its sphere averages, so a new kind
    writes its transform once and every derived form follows from it."""
    base = type(KINDS["zero"]).__mro__[-2]
    assert base.__name__ == "_Kind"
    derived = ("ft", "polar_factor", "sq_ft_sphere", "sq_ft_sphere_origin")
    hits = [
        f"{cls.__name__}.{name}"
        for kind in KINDS.values()
        for cls in type(kind).__mro__
        if cls not in (base, object)
        for name in derived
        if name in vars(cls)
    ]
    assert hits == []
    assert all(callable(getattr(kind, "radial", None)) and kind.order in (0, 1) for kind in KINDS.values())


def test_center_handling():
    assert Profile.gaussian(1, 1.0, center=0.5).center == (0.5,)
    assert Profile.gaussian(2, 1.0, center=(0.5, -1.0)).center == (0.5, -1.0)
    with pytest.raises(ProfileError, match="scalar center"):
        Profile.gaussian(2, 1.0, center=0.5)
    with pytest.raises(ProfileError, match="length"):
        Profile.gaussian(2, 1.0, center=(0.5,))


def test_dimension_mismatch_checks():
    with pytest.raises(ProfileError):
        ProfilePair(1, Profile.zero(1), Profile.gaussian(2, 1.0))
    with pytest.raises(ProfileError):
        Profile.gaussian(2, 1.0).ft(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ProfileError):
        Profile.gaussian(2, 1.0).value(np.zeros(3))


def test_pair_effective_radius_is_the_max():
    pair = ProfilePair(1, Profile.indicator_interval(2.0), Profile.indicator_interval(0.5))
    assert pair.effective_radius() == 2.0
    assert not pair.is_zero
    assert ProfilePair(1, Profile.zero(1), Profile.zero(1)).is_zero


# ---------------------------------------------------------- data moments
def test_example_moments_closed(example):
    norms = moments(example)
    assert norms.l1_u1 == pytest.approx(4.0, rel=1e-14)
    assert norms.l2_u1 == pytest.approx(math.sqrt(8.0), rel=1e-14)
    assert norms.l11_u1 == pytest.approx(6.0, rel=1e-14)
    assert norms.mean_u1 == pytest.approx(4.0, rel=1e-14)
    assert norms.l1_u0 == 0.0
    assert norms.l2_u0 == 0.0
    assert norms.i0n == pytest.approx(4.0 + math.sqrt(8.0), rel=1e-14)
    assert data_constants(example).weighted_h1 == pytest.approx(4.0, rel=1e-9)
    assert norms.l11_u1 is not None


def test_mean_velocity_vanishes_for_odd_data(p0_2d):
    norms = moments(p0_2d)
    assert norms.mean_u1 == 0.0
    assert norms.l11_u1 is not None and norms.l11_u1 > 0.0


def test_moments_flag_infinite_entries():
    pair = ProfilePair(2, Profile.indicator_disk(1.0), Profile.gaussian(2, 1.0))
    norms = moments(pair)
    with pytest.raises(ValueError, match="weighted H1"):
        data_constants(pair)
    assert norms.l11_u1 is not None
    assert isinstance(norms, DataNorms)


# -------------------------------------------------------------- utilities
def test_unit_sphere_measure():
    assert unit_sphere_measure(1) == 2.0
    assert unit_sphere_measure(2) == pytest.approx(TWO_PI)
    with pytest.raises(ProfileError):
        unit_sphere_measure(3)


@pytest.mark.parametrize(
    "below, series, arg",
    [
        (0.5, "_PHI1_SERIES", lambda x: x),
        (0.5, "_SINC2_SERIES", lambda x: x * x),
        (1.0, "_JINC_SERIES", lambda x: 0.25 * x * x),
        (1.0, "_J0_DEFICIT_SERIES", lambda x: 0.25 * x * x),
    ],
)
def test_small_argument_series_keep_the_bits_of_polyval(below, series, arg):
    """The series branch of each cancellation-free form sums its power
    series at the points below its switch alone, with the bits numpy's
    ``polyval`` gives there; above it the direct form stands."""
    coef, direct = getattr(profiles, series), lambda v: np.cos(v) - 1.0
    points = np.concatenate(([0.0, 1e-300, 5e-8, below, 2.0 * below], np.random.default_rng(7).uniform(0.0, 2.0 * below, 200)))
    for x in (points, points.reshape(5, 41), np.asarray(0.3 * below), np.asarray(3.0 * below)):
        got = profiles._small_first(x, below, coef, arg(x), direct)
        want = np.where(x < below, np.polynomial.polynomial.polyval(arg(x), coef), direct(x))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
