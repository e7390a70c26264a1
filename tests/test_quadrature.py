import gc
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bessel_series, lockstep_edges
from wavegrowth import bounds, profiles, quadrature
from wavegrowth.local_energy import local_energy_report
from wavegrowth.quadrature import (
    OscillatoryIntegrand,
    QuadConfig,
    QuadResult,
    QuadratureError,
    _initial_edges,
    integrate_batch,
    integrate_oscillatory,
    integrate_smooth,
)
from wavegrowth.spectral import field_integrands, norm_sq_samples

# the package re-exports the function local_energy under the module's name
local_energy = importlib.import_module("wavegrowth.local_energy")


def _exp_cos(omega, hint=None):
    """F(r) = exp(-r) cos(omega r): integral over [0, inf) is 1/(1+omega^2)."""
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    return OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=decay,
        sin_amp=zero,
        pointwise=lambda r: np.exp(-np.asarray(r, dtype=float)) * np.cos(omega * np.asarray(r)),
        width_hint=hint or (lambda r: np.full(np.shape(r), 1.0)),
    )


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(ValueError, match="positive"):
        QuadConfig(rel_tol=-1e-9)
    with pytest.raises(ValueError, match="1024"):
        QuadConfig(max_panels=512)
    cfg = QuadConfig()
    assert cfg.target(0.0) == cfg.abs_tol
    assert cfg.target(1.0) == pytest.approx(cfg.rel_tol)
    assert cfg.target(-2.0) == pytest.approx(2.0 * cfg.rel_tol)


@pytest.mark.parametrize("omega", [0.5, 5.0, 40.0, 200.0])
def test_exponential_cosine_closed_form(omega):
    exact = 1.0 / (1.0 + omega * omega)
    cfg = QuadConfig()
    res = integrate_oscillatory(
        _exp_cos(omega), 0.0, math.inf, cfg, tail_bound=lambda rho: math.exp(-rho)
    )
    assert abs(res.value - exact) <= max(res.error, cfg.target(exact))
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error >= 0.0 and res.panels > 0


def test_exponential_sine_closed_form():
    omega = 7.0
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=zero,
        sin_amp=decay,
        pointwise=lambda r: np.exp(-np.asarray(r, float)) * np.sin(omega * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, math.inf, tail_bound=lambda rho: math.exp(-rho))
    assert res.value == pytest.approx(omega / (1.0 + omega * omega), rel=1e-9)


def test_mixed_smooth_and_oscillatory_parts():
    omega = 5.0
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=decay,
        cos_amp=decay,
        sin_amp=zero,
        pointwise=lambda r: np.exp(-np.asarray(r, float)) * (1.0 + np.cos(omega * np.asarray(r))),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, math.inf, tail_bound=lambda rho: 2.0 * math.exp(-rho))
    assert res.value == pytest.approx(1.0 + 1.0 / 26.0, rel=1e-9)


def test_filon_matches_the_closed_form_on_a_finite_range():
    """int_0^30 e^-r cos(40 r) dr: ten pointwise periods, then Filon panels
    up to a finite end, against the closed form."""
    omega = 40.0
    hi = 30.0
    exact = (1.0 + math.exp(-hi) * (omega * math.sin(omega * hi) - math.cos(omega * hi))) / (1.0 + omega * omega)
    res = integrate_oscillatory(_exp_cos(omega), 0.0, hi, QuadConfig())
    assert res.value == pytest.approx(exact, rel=2e-12, abs=1e-15)


def test_exhausted_refinement_reports_its_best_estimate():
    """When refinement hits the budget the error must carry the partial
    answer, so callers can decide instead of losing the work."""
    omega = 1e5
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(omega * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    exact = -1.0613845402546906e-05
    with pytest.raises(QuadratureError) as info:
        # the default absolute tolerance sits below the phase-noise floor
        # of this cancellation-dominated integral
        integrate_oscillatory(f, 1e4, 1e4 + 1.0, QuadConfig())
    assert info.value.achieved == pytest.approx(exact, abs=1e-9)
    assert info.value.error_estimate is not None and info.value.error_estimate > 0.0


def test_batch_isolates_a_failing_integral():
    """An integral that exhausts its budget ends with its own error and
    leaves its batch neighbours exactly as they are when run alone, each
    over its own range and with its own tail bound."""
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    failing = OscillatoryIntegrand(
        omega=1e5,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(1e5 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    converging = OscillatoryIntegrand(
        omega=3.0,
        smooth=one,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: 1.0 + np.cos(3.0 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    lo, hi = 1e4, 1e4 + 1.0
    alone = integrate_oscillatory(converging, lo, hi, QuadConfig())
    bad, good = integrate_batch([failing, converging], lo, hi, QuadConfig())
    assert (good.value, good.error, good.panels) == (alone.value, alone.error, alone.panels)
    assert good.value == pytest.approx(1.0 + (math.sin(3.0 * hi) - math.sin(3.0 * lo)) / 3.0, rel=1e-12)
    assert isinstance(bad, QuadratureError) and "panel budget" in str(bad)
    assert bad.achieved == pytest.approx(-1.0613845402546906e-05, abs=1e-9)
    assert bad.error_estimate is not None and bad.error_estimate > 0.0

    # one integrand on several ranges, with mixed tails and an empty range
    osc = _exp_cos(40.0)
    rows = [
        (failing, lo, hi, None),
        (converging, lo, hi, None),
        (converging, 0.0, 2.5, lambda rho: 5.0),
        (osc, 0.0, math.inf, lambda rho: math.exp(-rho)),
        (osc, 3.0, math.inf, lambda rho: 2.0 * math.exp(-rho)),
        (osc, 0.0, 3.0, None),
        (osc, 1.0, 1.0, None),
    ]
    integrands, los, his, tails = zip(*rows)
    bad_mixed, *mixed = integrate_batch(integrands, los, his, QuadConfig(), tails)
    for (f, a, b, tail), res in zip(rows[1:], mixed):
        assert res == integrate_oscillatory(f, a, b, QuadConfig(), tail_bound=tail)
    assert mixed[0] == good and mixed[-1] == QuadResult(0.0, 0.0, 0)
    assert mixed[2].value == pytest.approx(1.0 / 1601.0, rel=1e-9)
    assert mixed[3].value + mixed[4].value == pytest.approx(mixed[2].value, rel=1e-9)
    assert (bad_mixed.achieved, bad_mixed.error_estimate) == (bad.achieved, bad.error_estimate)


def test_norm_curve_raises_the_earliest_failure(example):
    """Under a tight budget the example's small times fail and its large
    times converge; norm_curve raises the error of the first failing t in
    the order given, as a loop over the times would."""
    from wavegrowth.spectral import norm_curve, norm_sq_fourier, norm_sq_samples

    cfg = QuadConfig(rel_tol=1e-13, max_panels=1024)
    ts = np.array([1e6, 1e2, 1e1, 1e4])
    results = norm_sq_samples(example, ts, cfg)
    assert [isinstance(r, QuadratureError) for r in results] == [False, True, True, False]
    with pytest.raises(QuadratureError) as info:
        norm_curve(example, ts, cfg)
    with pytest.raises(QuadratureError) as first:
        norm_sq_fourier(example, 1e2, cfg)
    assert str(info.value) == str(first.value)
    assert info.value.achieved == first.value.achieved
    assert info.value.error_estimate == first.value.error_estimate
    assert norm_sq_fourier(example, 1e6, cfg) == results[0]


def test_extreme_phase_reduction():
    """Phases near 1e9 radians: plain float cos(omega x) loses the digits
    this value needs, so the phase split has to be reduced in extended
    precision."""
    omega = 1e5
    lo = 1e4
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=zero,
        cos_amp=one,
        sin_amp=zero,
        pointwise=lambda r: np.cos(omega * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    # (sin(omega (lo+1)) - sin(omega lo)) / omega at 30 significant digits
    exact = -1.0613845402546906e-05
    res = integrate_oscillatory(f, lo, lo + 1.0, QuadConfig(abs_tol=1e-10))
    assert abs(res.value - exact) <= 1e-10


def test_empty_and_invalid_ranges():
    f = _exp_cos(3.0)
    assert integrate_oscillatory(f, 2.0, 2.0) == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo < hi"):
        integrate_oscillatory(f, 3.0, 2.0)
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_oscillatory(f, 0.0, math.inf)
    # the same rules hold entry by entry in a batch with ranges of its own
    tail = lambda rho: math.exp(-rho)
    assert integrate_batch([f, f], [2.0, 0.0], [2.0, 1.0])[0] == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo < hi"):
        integrate_batch([f, f], [0.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_batch([f, f], 0.0, [1.0, math.inf], tail_bound=[tail, None])
    with pytest.raises(ValueError, match="tail bounds"):
        integrate_batch([f, f], 0.0, math.inf, tail_bound=[tail])


def test_divergent_tail_raises():
    f = lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float))
    with pytest.raises(QuadratureError, match="diverges"):
        integrate_smooth(f, 0.0, math.inf, tail_bound=lambda rho: math.inf)


def test_smooth_integration():
    gauss = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    res = integrate_smooth(gauss, 0.0, 3.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(3.0), rel=1e-10)
    res = integrate_smooth(
        gauss, 0.0, math.inf, tail_bound=lambda rho: math.exp(-rho * rho) / (2.0 * rho)
    )
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


@pytest.mark.parametrize(
    "f, edges, tail",
    [
        (
            lambda r: np.exp(-np.asarray(r, dtype=float) ** 2),
            [0.0, 0.7, 3.0, math.inf],
            lambda rho: math.exp(-rho * rho) / (2.0 * rho),
        ),
        (lambda x: np.abs(x) * np.exp(-np.asarray(x, dtype=float) ** 2), [-4.0, 0.0, 4.0], None),
        (lambda x: np.where(np.asarray(x) <= 1.0, 1.0, 0.0) * np.cos(x), [-2.0, 1.0, 2.0], None),
    ],
    ids=["gauss-pieces", "abs-kink", "step"],
)
def test_smooth_pieces_are_independent_integrations(f, edges, tail):
    """A call with break points is the single-range calls on each piece,
    summed: every piece keeps its own partition."""
    pieces = [integrate_smooth(f, a, b, tail_bound=tail) for a, b in zip(edges[:-1], edges[1:])]
    res = integrate_smooth(f, edges[:-1], edges[1:], tail_bound=tail)
    assert res.value == sum(p.value for p in pieces)
    assert res.error == sum(p.error for p in pieces)
    assert res.panels == sum(p.panels for p in pieces)


def test_smooth_break_at_a_kink_reaches_the_tolerance():
    # int_-2^3 |x| e^{-x^2} dx = 1 - (e^{-4} + e^{-9})/2
    f = lambda x: np.abs(x) * np.exp(-np.asarray(x, dtype=float) ** 2)
    cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-13)
    res = integrate_smooth(f, [-2.0, 0.0], [0.0, 3.0], cfg)
    want = 1.0 - 0.5 * (math.exp(-4.0) + math.exp(-9.0))
    assert res.error <= 0.25 * cfg.target(want)
    assert res.value == pytest.approx(want, rel=1e-13)


def test_oscillatory_bessel_spot_check():
    """int_0^20 J0(r) cos(3 r) dr has no elementary form; cross-check the
    engine against plain high-order panel quadrature of the same integrand."""
    from scipy.integrate import quad as scipy_quad
    from scipy.special import j0

    omega = 3.0
    f = OscillatoryIntegrand(
        omega=omega,
        smooth=lambda r: np.zeros(np.shape(r)),
        cos_amp=lambda r: j0(np.asarray(r, dtype=float)),
        sin_amp=lambda r: np.zeros(np.shape(r)),
        pointwise=lambda r: j0(np.asarray(r, float)) * np.cos(omega * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, 20.0)
    ref, _ = scipy_quad(lambda r: j0(r) * math.cos(omega * r), 0.0, 20.0, limit=200)
    assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_reference_bessel_series_matches_scipy():
    # sanity for the test-side oracle itself
    from scipy.special import j0, j1

    for x in (0.0, 0.5, 3.7, 11.0, 19.5):
        assert bessel_series(0, x) == pytest.approx(float(j0(x)), abs=2e-14)
        assert bessel_series(1, x) == pytest.approx(float(j1(x)), abs=2e-14)


# ------------------------------------------------------- initial partitions
def _counting_hint(width=1.0):
    """A constant width hint that records the size of every call."""
    calls = []

    def hint(r):
        calls.append(np.size(r))
        return np.full(np.shape(r), width)

    return hint, calls


def _hint(kind, a, b, c):
    if kind == "constant":
        return lambda r: np.full(np.shape(r), a)
    if kind == "gaussian":
        return lambda r: a + b * np.exp(-((np.asarray(r, float) - c) ** 2))
    first, second = _hint("constant", a, 0.0, 0.0), _hint("gaussian", 0.5 * a, b, c)
    return lambda r: np.minimum(first(r), second(r))


_marches = st.tuples(
    st.integers(0, 2),
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 15.0),
    st.one_of(st.just(math.inf), st.floats(0.05, 5.0)),
)


def _same_edges(got, want):
    for edges, ref in zip(got, want, strict=True):
        if isinstance(ref, str):
            assert isinstance(edges, QuadratureError) and str(edges) == ref
        else:
            assert edges.dtype == np.float64 and np.array_equal(edges, ref)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(
        st.tuples(st.sampled_from(["constant", "gaussian", "min"]), st.floats(0.05, 2.0), st.floats(0.0, 3.0), st.floats(-5.0, 5.0)),
        min_size=3,
        max_size=3,
    ),
    marches=st.lists(_marches, min_size=1, max_size=8),
    repeats=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    budget=st.sampled_from([5, 40, 32768]),
)
def test_marches_match_the_lockstep_reference(kinds, marches, repeats, budget):
    """Shared, remembered, lone and lockstep marches give the reference's
    edges bit for bit, and the same error when the budget runs out."""
    hints = [_hint(*kind) for kind in kinds]
    batch = [marches[i % len(marches)] for i in repeats]
    lo = [m[1] for m in batch]
    hi = [m[1] + m[2] for m in batch]
    cap = [m[3] for m in batch]
    fns = [hints[m[0]] for m in batch]
    want = lockstep_edges(lo, hi, cap, fns, budget)
    # the second call takes every march from memory
    _same_edges(_initial_edges(lo, hi, cap, fns, budget), want)
    _same_edges(_initial_edges(lo, hi, cap, fns, budget), want)
    # both ways of stepping, whichever the batch size selects
    message = "panel budget {} exceeded by the initial partition of [{:g}, {:g}]"
    keys = list(zip(fns, lo, hi, cap))
    for marched in (quadrature._lockstep(keys, budget), [quadrature._march(*key, budget) for key in keys]):
        got = [QuadratureError(message.format(budget, *key[1:3])) if edges is None else edges for edges, key in zip(marched, keys)]
        _same_edges(got, want)


def test_a_repeated_batch_reuses_its_marches():
    hint, calls = _counting_hint()
    batch = [_exp_cos(omega, hint) for omega in (3.0, 40.0)]
    tail = lambda rho: math.exp(-rho)
    first = integrate_batch(batch, 0.0, math.inf, QuadConfig(), tail)
    assert calls
    calls.clear()
    again = integrate_batch(batch, 0.0, math.inf, QuadConfig(), tail)
    assert calls == []
    assert again == first


def test_remembered_marches_die_with_their_hint():
    gc.collect()
    before = len(quadrature._MARCHES)
    hint, _ = _counting_hint()
    integrate_batch([_exp_cos(5.0, hint)], 0.0, 3.0)
    assert len(quadrature._MARCHES) == before + 1
    del hint
    gc.collect()
    assert len(quadrature._MARCHES) == before


def test_a_hint_without_weak_references_still_marches():
    """numpy's dispatchers and ufuncs take no weak reference; they march
    every time and give the same partition as an equal Python hint."""
    with pytest.raises(TypeError):
        quadrature._MARCHES[np.ones_like] = {}
    ones = lambda r: np.full(np.shape(r), 1.0)
    for _ in range(2):
        assert integrate_batch([_exp_cos(7.0, np.ones_like)], 0.0, 9.0) == integrate_batch([_exp_cos(7.0, ones)], 0.0, 9.0)


def test_a_remembered_march_still_fails_under_a_smaller_budget():
    hint, calls = _counting_hint(0.25)
    (edges,) = _initial_edges(0.0, 4.0, math.inf, [hint], 1024)
    calls.clear()
    (short,) = _initial_edges(0.0, 4.0, math.inf, [hint], edges.size - 1)
    assert isinstance(short, QuadratureError)
    assert str(short) == f"panel budget {edges.size - 1} exceeded by the initial partition of [0, 4]"
    (enough,) = _initial_edges(0.0, 4.0, math.inf, [hint], edges.size)
    assert np.array_equal(enough, edges)
    assert calls == []


def test_filon_moments_once_per_distinct_argument(monkeypatch):
    """A batch of identical field integrands asks for the Bessel moments of
    each distinct omega h once, and every entry keeps its batch-of-one result."""
    rows = []
    real = quadrature.spherical_jn

    def recording(k, theta):
        rows.append(np.asarray(theta).ravel().copy())
        return real(k, theta)

    monkeypatch.setattr(quadrature, "spherical_jn", recording)
    hint = lambda r: np.full(np.shape(r), 0.5)
    amp = lambda r: np.exp(-np.asarray(r, float) ** 2)
    tail = lambda rc: math.exp(-rc * rc)
    (alone,) = integrate_batch(field_integrands([30.0], hint, amp, amp), 0.0, math.inf, QuadConfig(), tail)
    distinct = sum(theta.size for theta in rows)
    assert distinct < alone.panels  # panels of one width share their moments
    rows.clear()
    together = integrate_batch(field_integrands([30.0] * 4, hint, amp, amp), 0.0, math.inf, QuadConfig(), tail)
    assert together == [alone] * 4
    assert all(np.unique(theta).size == theta.size for theta in rows)
    assert sum(theta.size for theta in rows) == distinct


# --------------------------------------------------------------- bit pins
def _bits(res):
    return (res.value.hex(), res.error.hex(), res.panels)


def _recording(patch, module, name) -> list:
    """Patch ``module.name`` to record every QuadResult it returns."""
    found = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        found.extend(out if isinstance(out, list) else [out])
        return out

    patch(module, name, recording)
    return found


def _pinned_bits(patch, gauss2d_vel, gauss_pair_2d, shifted_pair_2d) -> dict:
    curve = norm_sq_samples(gauss2d_vel, [3.0, 40.0, 700.0, 1.2e4, 3e5])
    rows = _recording(patch, bounds, "integrate_oscillatory")
    bounds.term_checks(gauss_pair_2d, 40.0)
    batch = _recording(patch, local_energy, "integrate_batch")
    (sample,) = local_energy_report(gauss_pair_2d, 5.0, [30.0]).samples
    pieces = _recording(patch, profiles, "integrate_smooth")
    overlap = local_energy.data_overlap(shifted_pair_2d)
    return {
        "norm_sq_samples": [_bits(res) for res in curve],
        # K2, Ihigh and total: rows 0, 4 and 10 of the 2D table
        "term_checks": [_bits(rows[i]) for i in (0, 4, 10)],
        # the sample's E_R, F and G, and the batch's F, P, dt w^ and norm entries
        "local_energy": [sample.e_r.hex(), sample.f.hex(), sample.g.hex(), *[_bits(res) for res in batch[-4:]]],
        # the 512-point angular rule and its 256-point sub-rule
        "data_overlap": [overlap.hex(), *[_bits(res) for res in pieces]],
    }


PINNED_BITS = {
    "norm_sq_samples": [
        ("0x1.fc67d44ec37e0p+7", "0x1.f40944f03877ep-41", 46),
        ("0x1.21a0d6a344292p+9", "0x1.cc761e5c873fap-38", 75),
        ("0x1.d3215cce06b36p+9", "0x1.c081e1b03266dp-36", 75),
        ("0x1.41ac0af2768c7p+10", "0x1.7c637a42ec64fp-35", 80),
        ("0x1.a57a36a8841d4p+10", "0x1.0140d5aae89b4p-24", 86),
    ],
    "term_checks": [
        ("0x1.9e01a3862f053p-20", "0x1.28e32f9909995p-59", 11),
        ("0x1.c6b1d34b163bep+8", "0x1.a7ec3078910e0p-33", 88),
        ("0x1.0f74adc7bf42fp+9", "0x1.a83d863a94d4cp-33", 98),
    ],
    "local_energy": [
        "0x1.0856a0f964c0ap-14",
        "0x1.412782fa2dc7cp-5",
        "-0x1.15865480f9934p+6",
        ("0x1.2014f881ec8a1p-9", "0x1.5bce84c424ea2p-51", 217),
        ("0x1.c33b3f7131c81p-8", "0x1.b1a77226b862ap-51", 217),
        ("0x1.091253d1a7742p-3", "0x1.2dc5910b4187ep-50", 217),
        ("0x1.01fef9481fe40p+9", "0x1.a415dca540cccp-33", 97),
    ],
    "data_overlap": [
        "0x1.70d49318b2e53p+1",
        ("0x1.70d49318b2e53p+1", "0x1.c09407e252dfep-43", 38),
        ("0x1.70d49318b2e54p+1", "0x1.bf174a1167279p-43", 38),
    ],
}


def test_batch_bits_are_pinned(monkeypatch, gauss2d_vel, gauss_pair_2d, shifted_pair_2d):
    """Values, errors and panel counts of the quadrature paths, pinned bit for bit.

    The pins were recorded before initial marches were shared and
    remembered per hint and before Filon moments were taken once per
    distinct argument; those changes keep every bit.  The grid-free F, P
    and dt w^ entries, and the sample's F and G built from them, were
    pinned again when those rows moved to units of the data size squared.
    A change that moves these bits on purpose updates the pins and says so
    in CHANGES.md.
    """
    assert _pinned_bits(monkeypatch.setattr, gauss2d_vel, gauss_pair_2d, shifted_pair_2d) == PINNED_BITS
