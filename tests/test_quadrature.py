import dataclasses
import gc
import importlib
import math
import warnings

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
from wavegrowth.spectral import field_integrands, norm_sq_samples, reduce_pair

# the package re-exports the function local_energy under the module's name
local_energy = importlib.import_module("wavegrowth.local_energy")


def _parts(g=None, c=None, s=None):
    """The ``amplitudes`` callable of one callable per part; None for an absent part."""
    return lambda r: tuple(None if f is None else f(r) for f in (g, c, s))


def _exp_cos(omega, hint=None):
    """F(r) = exp(-r) cos(omega r): integral over [0, inf) is 1/(1+omega^2)."""
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    return OscillatoryIntegrand(
        omega=omega,
        amplitudes=_parts(zero, decay, zero),
        pointwise=lambda r, w: np.exp(-np.asarray(r, dtype=float)) * np.cos(omega * np.asarray(r)),
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
        amplitudes=_parts(zero, zero, decay),
        pointwise=lambda r, w: np.exp(-np.asarray(r, float)) * np.sin(omega * np.asarray(r)),
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
        amplitudes=_parts(decay, decay, zero),
        pointwise=lambda r, w: np.exp(-np.asarray(r, float)) * (1.0 + np.cos(omega * np.asarray(r))),
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
        amplitudes=_parts(zero, one, zero),
        pointwise=lambda r, w: np.cos(omega * np.asarray(r, dtype=float)),
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
        amplitudes=_parts(zero, one, zero),
        pointwise=lambda r, w: np.cos(1e5 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    converging = OscillatoryIntegrand(
        omega=3.0,
        amplitudes=_parts(one, one, zero),
        pointwise=lambda r, w: 1.0 + np.cos(3.0 * np.asarray(r, dtype=float)),
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
    from wavegrowth.spectral import l2_norm, norm_curve

    cfg = QuadConfig(rel_tol=1e-13, max_panels=1024)
    ts = np.array([1e6, 1e2, 1e1, 1e4])
    results = norm_sq_samples(example, ts, cfg)
    assert [isinstance(r, QuadratureError) for r in results] == [False, True, True, False]
    with pytest.raises(QuadratureError) as info:
        norm_curve(example, ts, cfg)
    (first,) = norm_sq_samples(example, [1e2], cfg)
    with pytest.raises(QuadratureError) as norm:
        l2_norm(example, 1e2, cfg)
    for error in (first, norm.value):
        assert str(info.value) == str(error)
        assert info.value.achieved == error.achieved
        assert info.value.error_estimate == error.error_estimate
    assert norm_sq_samples(example, [1e6], cfg) == results[:1]


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
        amplitudes=_parts(zero, one, zero),
        pointwise=lambda r, w: np.cos(omega * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    # (sin(omega (lo+1)) - sin(omega lo)) / omega at 30 significant digits
    exact = -1.0613845402546906e-05
    res = integrate_oscillatory(f, lo, lo + 1.0, QuadConfig(abs_tol=1e-10))
    assert abs(res.value - exact) <= 1e-10


def test_empty_and_invalid_ranges():
    f = _exp_cos(3.0)
    assert integrate_oscillatory(f, 2.0, 2.0) == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo <= hi"):
        integrate_oscillatory(f, 3.0, 2.0)
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_oscillatory(f, 0.0, math.inf)
    # the same rules hold entry by entry in a batch with ranges of its own
    tail = lambda rho: math.exp(-rho)
    assert integrate_batch([f, f], [2.0, 0.0], [2.0, 1.0])[0] == QuadResult(0.0, 0.0, 0)
    with pytest.raises(ValueError, match="lo <= hi"):
        integrate_batch([f, f], [0.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="tail_bound"):
        integrate_batch([f, f], 0.0, [1.0, math.inf], tail_bound=[tail, None])
    with pytest.raises(ValueError, match="tail bounds"):
        integrate_batch([f, f], 0.0, math.inf, tail_bound=[tail])


def test_divergent_tail_raises():
    f = lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float))
    with pytest.raises(QuadratureError, match="diverges"):
        integrate_smooth(f, 0.0, math.inf, tail_bound=lambda rho: math.inf)


# ------------------------------------------------------------- tail growth
def _gauss_cos(omega, scale, width=1.0):
    """exp(-(r/scale)^2) cos(omega r) and the bound scale^2 / (2 rc) exp(-(rc/scale)^2) of its tail beyond rc.

    Over [0, inf) it integrates to sqrt(pi) scale / 2 exp(-(omega scale / 2)^2).
    """
    amp = lambda r: np.exp(-((np.asarray(r, dtype=float) / scale) ** 2))
    f = OscillatoryIntegrand(
        omega=omega,
        amplitudes=_parts(c=amp),
        pointwise=lambda r, w: amp(r) * np.cos(w * np.asarray(r)),
        width_hint=lambda r: np.full(np.shape(r), width),
    )
    return f, lambda rc: scale * scale / (2.0 * rc) * math.exp(-((rc / scale) ** 2))


def _sweep_ends(monkeypatch) -> list:
    """Record the upper end of the panels each sweep evaluates."""
    ends = []
    real = quadrature._evaluate

    def evaluate(panels, *args):
        if panels.size:
            ends.append(float(panels["b"].max()))
        real(panels, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    return ends


def test_a_converged_block_reaches_its_tail_in_one_sweep(monkeypatch):
    """An entry whose first sweep meets its tolerance doubles its block in
    one step until the tail bound meets the tolerance too: the blocks [2, 4],
    [4, 8], [8, 16] and [16, 32] are evaluated in one more sweep, not in one
    sweep each."""
    f, tail = _gauss_cos(1.0, 4.0)
    ends = _sweep_ends(monkeypatch)
    res = integrate_oscillatory(f, 0.0, math.inf, QuadConfig(), tail)
    assert ends == [2.0, 32.0]
    tol = 0.25 * QuadConfig().target(res.value)
    assert tail(32.0) <= tol < tail(16.0)
    assert res.value == pytest.approx(2.0 * math.sqrt(math.pi) * math.exp(-4.0), rel=1e-12)


def test_entries_growing_by_different_steps_do_not_depend_on_the_batch():
    """Entries whose blocks double once, several times or not at all give the
    same bits alone, in one batch and in seeded permutations of it: each
    stops at its own tolerance, and a small entry with a loose tail bound
    (its tolerance far below the others') takes no one else further."""
    unit = _exp_cos_rows(40.0, [1.0])
    tiny = dataclasses.replace(
        unit, amplitudes=lambda r: tuple(1e-9 * v for v in unit.amplitudes(r)), pointwise=lambda r, w: 1e-9 * unit.pointwise(r, w)
    )
    rows = [
        (*_gauss_cos(1.0, 4.0), 0.0, math.inf),
        (*_gauss_cos(3.0, 1.0), 0.0, math.inf),
        (*_gauss_cos(40.0, 8.0, 0.5), 0.5, math.inf),
        (*_gauss_cos(2.0, 2.0), 3.0, math.inf),
        (*_gauss_cos(2.0, 0.3), 0.0, math.inf),
        (_exp_cos(40.0), lambda rho: math.exp(-rho), 1.0, math.inf),
        (tiny, lambda rho: math.exp(-rho), 1.0, math.inf),
        (*_gauss_cos(1.0, 4.0), 1.0, 6.0),
    ]
    cfg = QuadConfig(abs_tol=1e-25)
    alone = [_vector_bits(integrate_batch([f], lo, hi, cfg, tail)[0]) for f, tail, lo, hi in rows]
    rng = np.random.default_rng(5)
    for order in (np.arange(len(rows)), rng.permutation(len(rows)), rng.permutation(len(rows))):
        fs, tails, los, his = zip(*[rows[i] for i in order])
        together = integrate_batch(fs, los, his, cfg, list(tails))
        assert [_vector_bits(res) for res in together] == [alone[i] for i in order]


def test_a_vector_block_reaches_its_tightest_tolerance_in_one_sweep(monkeypatch):
    """A vector entry doubles its block in one step until the tail bound
    meets the tolerance of its smallest component: one growth sweep takes
    it from 2 to 64, where the larger component alone would stop at 32."""
    scale = np.array([1.0, 1e-6])[:, None]
    amp = lambda r: scale * np.exp(-np.asarray(r, dtype=float))
    f = dataclasses.replace(_exp_cos_rows(3.0, [1.0, 1.0]), amplitudes=_parts(c=amp), pointwise=lambda r, w: amp(r) * np.cos(w * r))
    cfg, tail = QuadConfig(abs_tol=1e-20), lambda rho: math.exp(-rho)
    ends = _sweep_ends(monkeypatch)
    vec = integrate_oscillatory(f, 0.0, math.inf, cfg, tail)
    assert ends == [2.0, 64.0]
    tightest, largest = (0.25 * cfg.target(v) for v in (vec.value[1], vec.value[0]))
    assert tail(64.0) <= tightest < tail(32.0)
    assert tail(32.0) <= largest
    assert vec.value == pytest.approx([0.1, 1e-7], rel=1e-9)


def test_a_tail_bound_that_never_meets_the_tolerance_fails_on_a_march(monkeypatch):
    """A tail bound that stays above the tolerance and stops falling grows
    its block by one doubling per sweep, far from float overflow, and the
    integral fails on the first tail block whose march breaks the budget,
    under the default budget too, with warnings raised as errors."""
    f = lambda r: np.exp(-np.asarray(r, dtype=float))
    hint = lambda r: np.full(np.shape(r), 1.0)
    ends = _sweep_ends(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        integrate_smooth(f, 0.0, math.inf, QuadConfig(max_panels=1024), hint, tail_bound=lambda rho: 5.0)
    assert str(info.value) == "panel budget 1024 exceeded by the initial partition of [1024, 2048]"
    assert ends == [2.0**k for k in range(1, 11)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError) as info:
            integrate_smooth(f, 0.0, math.inf, QuadConfig(), hint, tail_bound=lambda rho: 5.0)
    assert str(info.value) == "panel budget 32768 exceeded by the initial partition of [32768, 65536]"


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
        amplitudes=_parts(lambda r: np.zeros(np.shape(r)), lambda r: j0(np.asarray(r, dtype=float)), lambda r: np.zeros(np.shape(r))),
        pointwise=lambda r, w: j0(np.asarray(r, float)) * np.cos(omega * np.asarray(r)),
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


def test_filon_moments_once_per_distinct_argument(monkeypatch, gauss2d_vel, gauss_pair_1d):
    """A batch of identical field integrands asks for the Bessel moments of
    each distinct omega h once, and every entry keeps its batch-of-one result.

    The amplitude samples that entries share go back to each of them the
    same way: every entry of a batch over several times, of a 1D pair with
    a cross term, and of a batch mixing shared and unshared amplitude
    triples keeps its batch-of-one bits in the batch and in any order."""
    rows = []
    real = quadrature._spherical_j

    def recording(theta):
        rows.append(np.asarray(theta).ravel().copy())
        return real(theta)

    monkeypatch.setattr(quadrature, "_spherical_j", recording)
    hint = lambda r: np.full(np.shape(r), 0.5)
    amp = lambda r: np.exp(-np.asarray(r, float) ** 2)
    both = lambda r: (amp(r), amp(r))
    tail = lambda rc: math.exp(-rc * rc)
    (alone,) = integrate_batch(field_integrands([30.0], hint, both), 0.0, math.inf, QuadConfig(), tail)
    distinct = sum(theta.size for theta in rows)
    assert distinct < alone.panels  # panels of one width share their moments
    rows.clear()
    together = integrate_batch(field_integrands([30.0] * 4, hint, both), 0.0, math.inf, QuadConfig(), tail)
    assert together == [alone] * 4
    assert all(np.unique(theta).size == theta.size for theta in rows)
    assert sum(theta.size for theta in rows) == distinct

    wave, cross = reduce_pair(gauss2d_vel), reduce_pair(gauss_pair_1d)
    several = [(f, 0.0, wave.tail) for f in wave.integrands([3.0, 40.0, 700.0, 1.2e4])]
    one_d = [(f, 0.0, cross.tail) for f in cross.integrands([2.0, 40.0, 900.0])]
    fields = [(f, lo, tail) for f, lo in zip(field_integrands([30.0, 45.0, 45.0], hint, both), [0.0, 0.0, 1.0])]
    unshared = [(_exp_cos(40.0), 0.0, lambda rho: math.exp(-rho))]
    rng = np.random.default_rng(3)
    for batch in (several, one_d, several[1:] + one_d[:2] + fields + unshared):
        alone = [_bits(integrate_batch([f], lo, math.inf, QuadConfig(), tail)[0]) for f, lo, tail in batch]
        for order in (np.arange(len(batch)), rng.permutation(len(batch))):
            fs, los, tails = zip(*[batch[i] for i in order])
            together = integrate_batch(fs, los, math.inf, QuadConfig(), list(tails))
            assert [_bits(res) for res in together] == [alone[i] for i in order]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_moment_kernel_matches_spherical_jn_bit_for_bit():
    """j_0 .. j_15 from the shared recurrence are scipy's own values, bit
    for bit: on seeded log-uniform theta over [1e-6, 1e18], on the integers
    1 .. 15 where scipy switches routines and their neighbours, and on no
    theta at all."""
    from scipy.special import spherical_jn

    rng = np.random.default_rng(5)
    spread = np.exp(rng.uniform(math.log(1e-6), math.log(1e18), 20000))
    knots = np.arange(1.0, 16.0)
    edges = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
    for theta in (spread, edges, rng.uniform(14.0, 40.0, 5000), np.zeros(0)):
        assert _same_bits(quadrature._spherical_j(theta), spherical_jn(quadrature._K, theta[:, None]))


def test_large_moment_arguments_make_no_spherical_jn_call(monkeypatch):
    """Above theta = 15 every order comes from the recurrence: a batch whose
    Filon panels all have omega h > 15 never calls ``spherical_jn``, and
    one that has smaller theta sends only those rows to it."""
    seen, asked = [], []
    real_kernel, real_jn = quadrature._spherical_j, quadrature.spherical_jn

    def kernel(theta):
        seen.append(np.asarray(theta).copy())
        return real_kernel(theta)

    def jn(k, theta):
        asked.append(np.asarray(theta).ravel().copy())
        return real_jn(k, theta)

    monkeypatch.setattr(quadrature, "_spherical_j", kernel)
    monkeypatch.setattr(quadrature, "spherical_jn", jn)
    hint = lambda r: np.full(np.shape(r), 0.5)
    amp = lambda r: np.exp(-np.asarray(r, float) ** 2)
    both = lambda r: (amp(r), amp(r))
    tail = lambda rc: math.exp(-rc * rc)
    # from rho = 2 on, panels are not graded toward 0: omega h >= 400 * 0.25 / 2**k
    integrate_batch(field_integrands([400.0], hint, both), 2.0, math.inf, QuadConfig(), tail)
    assert seen and min(theta.min() for theta in seen) > 15.0
    assert asked == []
    # from rho = 0 on, the graded panels near 0 mix small theta into the sweeps
    seen.clear()
    integrate_batch(field_integrands([100.0], hint, both), 0.0, math.inf, QuadConfig(), tail)
    assert any(theta.min() <= 15.0 < theta.max() for theta in seen)
    small = np.concatenate([theta[theta <= 15.0] for theta in seen])
    assert np.array_equal(np.concatenate(asked), small)


def _with_explicit_zeros(f):
    """f with every absent part replaced by sampled zeros."""

    def amplitudes(rho):
        return tuple(np.zeros(np.shape(rho)) if v is None else v for v in f.amplitudes(rho))

    return dataclasses.replace(f, amplitudes=amplitudes)


def test_absent_parts_keep_the_bits_of_sampled_zeros():
    """An entry whose zero parts are absent (None) gives the bits of the
    same entry with an amplitude callable that returns zeros for them,
    scalar and vector, alone, in a batch and permuted."""
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    rows_amp = lambda r: np.array([0.5, 1.0, 3.0])[:, None] * decay(r)
    hint = lambda r: np.full(np.shape(r), 1.0)
    cos_only = OscillatoryIntegrand(40.0, _parts(c=decay), lambda r, w: decay(r) * np.cos(w * r), hint)
    smooth_only = OscillatoryIntegrand(0.0, _parts(decay), None, hint)
    rows = [
        (cos_only, 0.0),
        (dataclasses.replace(cos_only, amplitudes=_parts(s=decay), pointwise=lambda r, w: decay(r) * np.sin(w * r)), 0.5),
        (smooth_only, 1.0),
        *[(f, 0.0) for f in field_integrands([3.0, 700.0], hint, lambda r: (rows_amp(r), None), components=3)],
        (field_integrands([45.0], hint, lambda r: (None, rows_amp(r)), components=3)[0], 2.0),
    ]
    tail = lambda rho: 3.0 * math.exp(-rho)
    explicit = [(_with_explicit_zeros(f), lo) for f, lo in rows]
    assert all(a is not b for (a, _), (b, _) in zip(rows, explicit))
    alone = [_vector_bits(integrate_batch([f], lo, math.inf, QuadConfig(), tail)[0]) for f, lo in explicit]
    rng = np.random.default_rng(17)
    for batch in (rows, explicit):
        assert [_vector_bits(integrate_batch([f], lo, math.inf, QuadConfig(), tail)[0]) for f, lo in batch] == alone
        for order in (np.arange(len(rows)), rng.permutation(len(rows))):
            fs, los = zip(*[batch[i] for i in order])
            together = integrate_batch(fs, los, math.inf, QuadConfig(), tail)
            assert [_vector_bits(res) for res in together] == [alone[i] for i in order]


def test_an_absent_part_is_never_computed_in_a_sweep(monkeypatch):
    """A batch takes zeros for a part given as None without computing
    anything for it: a sweep shapes samples only for the parts that are
    there, and an integrand that runs pointwise only never has its
    amplitudes called."""
    shaped = []
    real = quadrature._per_row

    def recording(values, x, m):
        shaped.append(np.size(values))
        return real(values, x, m)

    monkeypatch.setattr(quadrature, "_per_row", recording)
    hint = lambda r: np.full(np.shape(r), 0.5)
    amp = lambda r: np.exp(-np.asarray(r, float) ** 2)
    calls = []

    def cos_only(rho):
        calls.append(np.size(rho))
        return amp(rho), None

    results = integrate_batch(field_integrands([3.0, 40.0], hint, cos_only), 0.0, math.inf, QuadConfig(), lambda rc: math.exp(-rc * rc))
    assert all(isinstance(res, QuadResult) for res in results)
    assert calls and shaped == calls  # the cos part alone, once per call

    def counted(rho):
        calls.append(np.size(rho))
        return amp(rho), None, None

    calls.clear()
    (smooth_piece,) = integrate_batch([OscillatoryIntegrand(0.0, counted, lambda r, w: amp(r), hint)], 0.0, 4.0, QuadConfig())
    assert calls == []
    assert smooth_piece.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(4.0), rel=1e-12)


def _count_zero_profile_points(monkeypatch) -> list:
    """Record the points at which a zero profile's ft, squared sphere
    average, or radial transform and its slope are evaluated."""
    zero_points = []
    cls = profiles.Profile
    real_ft, real_sq = cls.ft, cls.sq_ft_sphere
    real_polar, real_slope = cls.polar_factor, cls.polar_factor_derivative

    def counting(real):
        def wrapper(self, rho, *args):
            if self.is_zero:
                zero_points.append(np.size(rho))
            return real(self, rho, *args)

        return wrapper

    def counted(g):
        def wrapper(rho):
            zero_points.append(np.size(rho))
            return g(rho)

        return wrapper

    def polar_factor(self):
        m, g = real_polar(self)
        return (m, counted(g)) if self.is_zero else (m, g)

    def polar_factor_derivative(self):
        dg = real_slope(self)
        return counted(dg) if self.is_zero else dg

    monkeypatch.setattr(cls, "ft", counting(real_ft))
    monkeypatch.setattr(cls, "sq_ft_sphere", counting(real_sq))
    monkeypatch.setattr(cls, "polar_factor", polar_factor)
    monkeypatch.setattr(cls, "polar_factor_derivative", polar_factor_derivative)
    return zero_points


@pytest.mark.parametrize("name", ["example", "gauss1d_vel", "gauss2d_vel"])
def test_zero_position_is_never_evaluated(monkeypatch, request, name):
    """With u0 = 0 the norm batch and the term checks never evaluate u0's
    transform, its squared sphere average or the cross term: the reduced
    amplitude and cross term are absent (None), and u0's transform
    callables see no point."""
    pair = request.getfixturevalue(name)
    red = reduce_pair(pair)
    assert red.a0 is None and red.cross is None
    zero_points = _count_zero_profile_points(monkeypatch)
    samples = norm_sq_samples(pair, [5.0, 300.0, 4e4])
    assert all(isinstance(res, QuadResult) and res.value > 0.0 for res in samples)
    checks = bounds.term_checks(pair, 50.0)
    assert checks.J2 == checks.N2 == 0.0
    assert zero_points == []


def test_the_decay_chain_never_evaluates_a_zero_position(monkeypatch, gauss2d_vel):
    """With u0 = 0 the grid-free decay chain leaves out the F, P and
    |dt w^|^2 terms that carry u0 and takes u0's radial transform as
    zeros: u0's transform and its slope see no point."""
    zero_points = _count_zero_profile_points(monkeypatch)
    rep = local_energy_report(gauss2d_vel, 5.0, [20.0, 50.0, 100.0, 400.0])
    assert all(s.e_r > 0.0 for s in rep.samples)
    assert zero_points == []


def test_a_batch_over_many_times_calls_each_callable_once_per_sweep(monkeypatch, gauss2d_vel):
    """The times of one norm integrand share all their callables: a sweep
    calls the pointwise and the amplitude callable at most once each, and
    the Filon panels that times have in common are sampled once, so the
    amplitudes see fewer points than the times do one by one."""
    red = reduce_pair(gauss2d_vel)
    roles = ("pointwise", "amplitudes")
    calls = {role: [] for role in roles}
    wrappers = {}

    def counting(role, fn):
        def wrapper(rho, *args):
            calls[role].append(np.size(rho))
            return fn(rho, *args)

        return wrappers.setdefault(fn, wrapper)

    batch = [
        dataclasses.replace(f, **{role: counting(role, getattr(f, role)) for role in roles})
        for f in red.integrands(np.geomspace(1e2, 1e6, 25))
    ]
    sweeps = []
    real = quadrature._evaluate

    def evaluate(*args):
        for sizes in calls.values():
            sizes.clear()
        real(*args)
        sweeps.append({role: list(sizes) for role, sizes in calls.items()})

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    together = integrate_batch(batch, 0.0, math.inf, QuadConfig(), red.tail)
    assert sweeps and all(len(sizes) <= 1 for sweep in sweeps for sizes in sweep.values())
    points = [sum(sum(sweep[role]) for sweep in sweeps) for role in roles]
    sweeps.clear()
    alone = [integrate_batch([f], 0.0, math.inf, QuadConfig(), red.tail)[0] for f in batch]
    points_alone = [sum(sum(sweep[role]) for sweep in sweeps) for role in roles]
    assert together == alone
    assert points[0] == points_alone[0]
    assert all(0 < got < want for got, want in zip(points[1:], points_alone[1:]))


# ------------------------------------------------------- vector integrands
def _exp_cos_rows(omega, rates, direct=True, width=1.0, origin=0.0):
    """F_k(r) = exp(-c_k (r - origin)) cos(omega r) for each rate c_k, as one integrand.

    Without a pointwise callable the whole range is Filon.
    """
    rates = np.asarray(rates, dtype=float)[:, None]
    decay = lambda r: np.exp(-rates * (np.asarray(r, dtype=float) - origin))
    zero = lambda r: np.zeros(np.shape(r))
    return OscillatoryIntegrand(
        omega=omega,
        amplitudes=_parts(zero, decay, zero),
        pointwise=(lambda r, w: decay(r) * np.cos(w * np.asarray(r))) if direct else None,
        width_hint=lambda r: np.full(np.shape(r), width),
        components=rates.size,
    )


def _rows_tail(rates, origin=0.0):
    """int of exp(-c (r - origin)) beyond rho for the slowest rate c."""
    c = min(rates)
    return lambda rho: math.exp(-c * (rho - origin)) / c


def _vector_bits(res):
    return (tuple(float(v).hex() for v in np.atleast_1d(res.value)), tuple(float(e).hex() for e in np.atleast_1d(res.error)), res.panels)


@pytest.mark.parametrize(
    "omega, direct, rates, lo, hi, width",
    [
        (3.0, True, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        (40.0, True, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        (40.0, False, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        # wide panels: only the fast decay needs bisection
        (3.0, False, [0.05, 3.0], 10.0, 20.0, 8.0),
        (40.0, True, [12.0, 0.5, 2.0], 1.0, math.inf, 8.0),
    ],
)
def test_vector_components_match_their_scalar_integrals(omega, direct, rates, lo, hi, width):
    """Each component of an m-component entry meets its own tolerance and
    agrees with the same integrand run as m scalar entries, and with the
    closed form, within the reported error bars.  The components share one
    partition, refined wherever any of them needs it."""
    tail = _rows_tail(rates, lo) if math.isinf(hi) else None

    def antiderivative(c, x):
        if math.isinf(x):
            return 0.0
        return -math.exp(-c * (x - lo)) * (c * math.cos(omega * x) - omega * math.sin(omega * x)) / (c * c + omega * omega)

    vec = integrate_oscillatory(_exp_cos_rows(omega, rates, direct, width, lo), lo, hi, tail_bound=tail)
    assert vec.value.shape == vec.error.shape == (len(rates),)
    panels = []
    for k, c in enumerate(rates):
        one = integrate_oscillatory(_exp_cos_rows(omega, [c], direct, width, lo), lo, hi, tail_bound=tail)
        assert isinstance(one.value, float)
        panels.append(one.panels)
        assert abs(vec.value[k] - one.value) <= vec.error[k] + one.error
        assert abs(vec.value[k] - (antiderivative(c, hi) - antiderivative(c, lo))) <= vec.error[k] + 1e-15
        # a quarter of the tolerance for the panels, a quarter for the tail
        assert vec.error[k] <= 0.5 * QuadConfig().target(vec.value[k])
    assert vec.panels >= max(panels)


def test_a_vector_block_grows_until_its_smallest_component_meets_the_tail():
    """Rows of very different sizes share one tail bound: the entry keeps
    doubling its block until the bound is below the tolerance of its
    smallest component, as that component would alone."""
    scale = np.array([1.0, 1e-6])[:, None]
    amp = lambda r: scale * np.exp(-np.asarray(r, dtype=float))
    f = dataclasses.replace(_exp_cos_rows(3.0, [1.0, 1.0]), amplitudes=_parts(c=amp), pointwise=lambda r, w: amp(r) * np.cos(w * r))
    small = dataclasses.replace(f, amplitudes=_parts(c=lambda r: amp(r)[1]), pointwise=lambda r, w: f.pointwise(r, w)[1], components=1)
    cfg, tail = QuadConfig(abs_tol=1e-20), lambda rho: math.exp(-rho)
    vec = integrate_oscillatory(f, 0.0, math.inf, cfg, tail)
    alone = integrate_oscillatory(small, 0.0, math.inf, cfg, tail)
    assert vec.panels >= alone.panels
    assert vec.error[1] <= 0.5 * cfg.target(vec.value[1])
    assert vec.value == pytest.approx([0.1, 1e-7], rel=1e-9)


def test_vector_entry_bits_do_not_depend_on_the_batch():
    """A vector entry alone, in a batch mixing scalar and vector entries of
    other sizes, and in a seeded permutation of that batch, gives the same
    bits; so does every other entry of the batch."""
    rows = [
        (_exp_cos_rows(40.0, [0.5, 1.0, 3.0]), 0.0, _rows_tail([0.5])),
        (_exp_cos(40.0), 0.0, lambda rho: math.exp(-rho)),
        (_exp_cos_rows(3.0, [0.8, 2.0], direct=False), 0.0, _rows_tail([0.8])),
        (_exp_cos_rows(40.0, [0.5, 1.0, 3.0]), 1.0, _rows_tail([0.5])),
        (_exp_cos_rows(700.0, [2.0], direct=False), 0.0, _rows_tail([2.0])),
        (_exp_cos_rows(3.0, [0.5, 12.0], direct=False, width=8.0), 1.0, _rows_tail([0.5])),
        (_exp_cos_rows(40.0, [12.0, 0.5, 2.0], width=8.0), 1.0, _rows_tail([0.5])),
    ]
    alone = [_vector_bits(integrate_batch([f], lo, math.inf, QuadConfig(), tail)[0]) for f, lo, tail in rows]
    rng = np.random.default_rng(11)
    for order in (np.arange(len(rows)), rng.permutation(len(rows)), rng.permutation(len(rows))):
        fs, los, tails = zip(*[rows[i] for i in order])
        together = integrate_batch(fs, los, math.inf, QuadConfig(), list(tails))
        assert [_vector_bits(res) for res in together] == [alone[i] for i in order]


def test_a_failing_vector_entry_reports_arrays():
    """A vector entry that exhausts its budget carries one estimate and one
    error per component, like a scalar entry does."""
    one = lambda r: np.ones(np.shape(r))
    f = OscillatoryIntegrand(
        omega=1e5,
        amplitudes=_parts(lambda r: np.zeros(np.shape(r)), lambda r: np.array([1.0, 2.0])[:, None] * one(r), lambda r: np.zeros(np.shape(r))),
        pointwise=lambda r, w: np.array([1.0, 2.0])[:, None] * np.cos(1e5 * np.asarray(r, dtype=float)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
        components=2,
    )
    with pytest.raises(QuadratureError, match="panel budget") as info:
        integrate_oscillatory(f, 1e4, 1e4 + 1.0, QuadConfig())
    achieved, error = info.value.achieved, info.value.error_estimate
    assert isinstance(achieved, np.ndarray) and achieved.shape == error.shape == (2,)
    exact = -1.0613845402546906e-05
    assert achieved == pytest.approx([exact, 2.0 * exact], abs=2e-9)
    assert np.all(error > 0.0)
    # an empty range is zeros of the entry's size
    empty = integrate_oscillatory(f, 2.0, 2.0)
    assert empty.value.shape == empty.error.shape == (2,) and not np.any(empty.value) and empty.panels == 0
    with pytest.raises(ValueError, match="component"):
        dataclasses.replace(f, components=0)


def test_field_integrands_have_no_pointwise_zone(monkeypatch, gauss_pair_2d):
    """The u_t and u_r rows of the grid-free chain have smooth amplitudes at
    rho = 0: their entries evaluate no direct panel, and they agree with the
    same rows run with a pointwise zone within the error bars."""
    captured = []
    real_batch = local_energy.integrate_batch

    def capture(integrands, lo, hi, cfg, tails):
        captured.append((list(integrands), tails))
        return real_batch(integrands, lo, hi, cfg, tails)

    monkeypatch.setattr(local_energy, "integrate_batch", capture)
    local_energy._radial_values(gauss_pair_2d, [6.0, 40.0], [0.5, 2.0, 4.5])
    ((batch, tails),) = captured
    fields, tail = batch[:4], tails[0]
    assert all(f.pointwise is None and f.components == 3 for f in fields)
    assert all(f.pointwise is not None for f in batch[4:])

    evaluated = []
    real_evaluate = quadrature._evaluate

    def evaluate(panels, *args):
        evaluated.append(panels["filon"].copy())
        real_evaluate(panels, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    new = integrate_batch(fields, 0.0, math.inf, QuadConfig(), tail)
    assert evaluated and all(filon.all() for filon in evaluated)

    def with_zone(f):
        def pointwise(rho, w):
            _, c, s = f.amplitudes(rho)
            return np.cos(w * rho) * c + np.sin(w * rho) * s

        return dataclasses.replace(f, pointwise=pointwise)

    evaluated.clear()
    old = integrate_batch([with_zone(f) for f in fields], 0.0, math.inf, QuadConfig(), tail)
    assert not all(filon.all() for filon in evaluated)
    for a, b in zip(new, old):
        assert np.all(np.abs(a.value - b.value) <= a.error + b.error)


@pytest.mark.parametrize("radii", [1, 5, 25])
def test_the_radial_batch_does_not_grow_with_the_radii(monkeypatch, gauss_pair_2d, radii):
    """u_t and u_r are one entry each per t, whatever the number of radii,
    next to the F, P, |dt w^|^2 and norm entries: 6 len(ts) in all."""
    sizes = []
    real = local_energy.integrate_batch

    def counting(integrands, *args):
        sizes.append((len(integrands), [f.components for f in integrands]))
        return real(integrands, *args)

    monkeypatch.setattr(local_energy, "integrate_batch", counting)
    ts = [6.0, 20.0, 40.0]
    vals = local_energy._radial_values(gauss_pair_2d, ts, np.linspace(0.2, 5.0, radii))
    assert sizes == [(6 * len(ts), [radii] * (2 * len(ts)) + [1] * (4 * len(ts)))]
    assert vals.ut.shape == vals.ur.shape == (len(ts), radii)


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
        "0x1.0856a0f964b39p-14",
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
    The sample's E_R was pinned again when u_t and u_r became one
    vector-valued entry per t, run Filon from rho = 0 without a pointwise
    zone (a change of about 5e-14 relative); every other pin kept its bits.
    A change that moves these bits on purpose updates the pins and says so
    in CHANGES.md.
    """
    assert _pinned_bits(monkeypatch.setattr, gauss2d_vel, gauss_pair_2d, shifted_pair_2d) == PINNED_BITS
