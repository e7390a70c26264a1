"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each test exercises one headline guarantee of the package on desk-scale
configurations: closed-form reproduction, conservation, the fitted
growth rates in both dimensions, the envelope sandwich, boundedness for
mean-zero data, the local decay chain, the moment-remainder constant,
and Bessel accuracy.  Budgets are asserted with wall-clock timers so a
performance regression fails loudly rather than silently.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from _oracles import one_minus_j0_series
from wavegrowth.analysis import fit_loglinear, fit_power, model_select
from wavegrowth.bounds import sandwich_report
from wavegrowth.local_energy import initial_energy, local_energy_report
from wavegrowth.oracles import example_pair, grid_solve, verify_example
from wavegrowth.profiles import Profile, ProfilePair, _one_minus_j0
from wavegrowth.spectral import energy, moment_remainder_ratio, norm_curve

GAUSS_1D = ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 1.0))
GAUSS_2D = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0))


def test_example_reproduction_against_all_solvers():
    start = time.perf_counter()
    rows = verify_example()
    assert [row.t for row in rows] == [2.5, 5.0, 10.0, 100.0]
    for row in rows:
        closed_sq = 8.0 * (row.t - 1.0) + 16.0 / 3.0
        assert row.m_closed**2 == pytest.approx(closed_sq, rel=1e-14)
        assert row.m_dalembert**2 == pytest.approx(closed_sq, rel=1e-9)
        assert row.m_spectral**2 == pytest.approx(closed_sq, rel=1e-6)
        assert row.m_grid**2 == pytest.approx(closed_sq, rel=1e-6)
    assert time.perf_counter() - start <= 30.0


def test_energy_conservation_spectral_and_grid():
    start = time.perf_counter()
    ts = [0.0, 1.0, 10.0, 100.0, 1000.0]
    # a free wave's E(t) is E(0): the spectral energy against the closed form
    res = energy(GAUSS_2D)
    assert abs(res.value - initial_energy(GAUSS_2D)) <= res.error
    pair_1d = ProfilePair(1, Profile.gaussian(1, 1.2, 0.5), Profile.gaussian(1, 1.0))
    es = [grid_solve(pair_1d, t, 2048.0, 2**14).energy() for t in ts]
    drift_1d = max(abs(e - es[0]) for e in es) / es[0]
    assert drift_1d <= 1e-10
    assert drift_1d <= 1e-13
    # the same grid check in two dimensions, on the times a desk-scale
    # box can certify
    es2 = [grid_solve(GAUSS_2D, t, 128.0, 1024).energy() for t in ts[:4]]
    drift_2d = max(abs(e - es2[0]) for e in es2) / es2[0]
    assert drift_2d <= 1e-10
    assert drift_2d <= 1e-13
    assert time.perf_counter() - start <= 60.0


def test_one_dimensional_growth_exponent():
    ts = np.logspace(2.0, 5.0, 25)
    alpha_example = fit_power(norm_curve(example_pair(), ts)).params[1]
    alpha_gauss = fit_power(norm_curve(GAUSS_1D, ts)).params[1]
    for alpha in (alpha_example, alpha_gauss):
        assert abs(alpha - 0.5) <= 0.02
    assert alpha_example == pytest.approx(0.500160713, rel=1e-6)
    assert alpha_gauss == pytest.approx(0.500272232, rel=1e-6)


def test_two_dimensional_log_slope():
    ts = np.logspace(3.0, 6.0, 25)
    curve = norm_curve(GAUSS_2D, ts)
    fit = fit_loglinear(curve, mean_u1=2.0 * math.pi)
    c1 = fit.params[1]
    assert c1 > 0.0
    assert fit.stderr[1] / c1 <= 0.05
    # the slope converges to pi for this data; the fit sits on it to 8 digits
    assert c1 == pytest.approx(math.pi, rel=1e-7)
    assert fit.stderr[1] / c1 <= 1e-8
    mask = ts >= 1e5
    ratio = curve.msq[mask] / np.log(ts[mask])
    variation = (ratio.max() - ratio.min()) / ratio.min()
    assert variation <= 0.10
    assert variation <= 0.02


def test_sandwich_holds_for_both_families():
    for pair, ts in (
        (example_pair(), (1e2, 1e3, 1e4)),
        (GAUSS_2D, (1e3, 1e4, 1e5, 1e6)),
    ):
        for t in ts:
            rep = sandwich_report(pair, t)
            assert rep.ok
            assert not rep.failures


def test_mean_zero_data_stays_bounded():
    pair = ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 1.0 / math.sqrt(2.0)))
    ts = np.logspace(0.0, 6.0, 60)
    curve = norm_curve(pair, ts)
    m = np.sqrt(curve.msq)
    assert float(np.max(m)) == pytest.approx(0.35448746746533266, rel=1e-9)
    last = m[ts >= 1e5]
    variation = (float(np.max(last)) - float(np.min(last))) / float(np.max(last))
    assert variation <= 0.01
    assert variation <= 1e-10
    assert model_select(curve).model == "bounded"


def test_local_decay_chain():
    start = time.perf_counter()
    ts = (10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 140.0, 180.0, 220.0, 240.0)
    rep = local_energy_report(GAUSS_2D, 5.0, ts, lam=256.0, n_points=2048)
    assert len(rep.samples) == 10
    for s in rep.samples:
        assert s.residual <= 1e-6
        assert s.slack >= -1e-8 * (1.0 + rep.k0)
        assert s.e_r <= s.envelope
    assert max(s.residual for s in rep.samples) <= 1e-14
    assert min(s.slack for s in rep.samples) >= 1.5
    assert rep.c_assembled == pytest.approx(0.546423, abs=2e-6)
    assert rep.c_fitted == 0.0
    # both the guaranteed envelope and the measured local energy decay
    # over the top decade; the envelope like 1/t up to the log factor,
    # the gaussian data much faster
    tt = np.array([s.t for s in rep.samples])
    env = np.array([s.envelope for s in rep.samples])
    er = np.array([s.e_r for s in rep.samples])
    mask = tt >= tt[-1] / 10.0
    env_slope = np.polyfit(np.log(tt[mask]), np.log(env[mask]), 1)[0]
    er_slope = np.polyfit(np.log(tt[mask]), np.log(er[mask]), 1)[0]
    assert -1.15 <= env_slope <= -0.85
    assert er_slope <= -0.85
    assert time.perf_counter() - start <= 300.0


def test_moment_remainder_constant_over_catalog():
    catalog_1d = [
        Profile.gaussian(1, 1.0),
        Profile.gaussian(1, 0.7, 0.5, center=0.4),
        Profile.indicator_interval(1.0, 2.0),
        Profile.indicator_interval(0.5, 1.5),
        Profile.polynomial_gaussian(1, 1.0),
        Profile.polynomial_gaussian(1, 0.8, 1.3),
    ]
    catalog_2d = [
        Profile.gaussian(2, 1.0),
        Profile.gaussian(2, 0.8, 0.5, center=(0.3, -0.2)),
        Profile.indicator_disk(1.0, 2.0),
        Profile.indicator_disk(1.5, 0.7),
        Profile.polynomial_gaussian(2, 1.0),
        Profile.polynomial_gaussian(2, 1.0 / math.sqrt(2.0)),
    ]
    radii = np.linspace(1e-6, 1.0, 1001)
    xi_1d = np.concatenate([-radii, radii])
    angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    r_2d = np.linspace(1e-6, 1.0, 400)
    xi_2d = r_2d[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)[None, :, :]
    sup = 0.0
    for p in catalog_1d:
        if math.isfinite(p.l11()):
            sup = max(sup, float(np.max(moment_remainder_ratio(p, xi_1d))))
    for p in catalog_2d:
        if math.isfinite(p.l11()):
            sup = max(sup, float(np.max(moment_remainder_ratio(p, xi_2d))))
    assert sup <= math.sqrt(2.0) + 1e-9
    assert sup == pytest.approx(0.556209, abs=1e-4)


def test_bessel_accuracy_against_series_oracle():
    """1 - J0, the phase average of the K2 link in 2D, to 1e-12 relative on
    [0, 20] and down to x = 1e-9, where J0 itself is 1 to the last bit."""
    start = time.perf_counter()
    xs = np.concatenate((np.linspace(0.0, 20.0, 2000), np.geomspace(1e-9, 1.0, 200)))
    vals = _one_minus_j0(xs)
    worst = max(abs(float(v) - ref) / ref if ref else abs(float(v)) for v, ref in zip(vals, map(one_minus_j0_series, xs)))
    assert worst <= 1e-12
    assert time.perf_counter() - start <= 5.0


_WORKLOAD_PROBE = """\
import sys
import numpy as np
import wavegrowth as wg
from wavegrowth.profiles import Profile, ProfilePair

seen = {}
def mark(what):
    seen[what] = [name for name in ("scipy.integrate", "scipy.linalg") if name in sys.modules]
mark("import")
gauss2d = ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.0))
wg.model_select(wg.norm_curve(gauss2d, np.geomspace(1e2, 1e6, 25)))
mark("norm_curve")
wg.sandwich_report(wg.example_pair(), 100.0)
wg.sandwich_report(gauss2d, 100.0)
mark("sandwich_report")
assert wg.local_energy_report(gauss2d, 5.0, [20.0, 40.0]).n_points is None
mark("local_energy_report")
print(seen)
"""


def test_import_does_not_load_scipy_integrate():
    """Every integral of the package runs on its own panel engine, and no
    workload's entry loads a heavy scipy module lazily: neither the import
    nor one call each of ``norm_curve`` with ``model_select``,
    ``sandwich_report`` in 1D and 2D and a grid-free
    ``local_energy_report`` loads scipy.integrate or scipy.linalg.

    A subprocess, since the test modules load scipy.integrate themselves.
    """
    import wavegrowth

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wavegrowth.__file__)))
    out = subprocess.run([sys.executable, "-c", _WORKLOAD_PROBE], env=env, capture_output=True, text=True, check=True)
    stages = ("import", "norm_curve", "sandwich_report", "local_energy_report")
    assert out.stdout.strip() == str({stage: [] for stage in stages})
