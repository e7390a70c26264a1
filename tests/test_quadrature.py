import bisect
import dataclasses
import functools
import gc
import hashlib
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bessel_series, lockstep_edges, tail_march_edges
from wavegrowth import bounds, local_energy, oracles, profiles, quadrature, spectral
from wavegrowth.local_energy import local_energy_report
from wavegrowth.profiles import Profile, ProfilePair
from wavegrowth.quadrature import (
    OscillatoryIntegrand,
    QuadConfig,
    QuadResult,
    QuadratureError,
    _initial_edges,
    integrate_batch,
    integrate_oscillatory,
)
from wavegrowth.spectral import field_integrands, norm_curve, norm_sq_samples, reduce_pair


def _parts(g=None, c=None, s=None):
    """The ``amplitudes`` callable of one callable per part; None for an absent part."""
    return lambda r: tuple(None if f is None else f(r) for f in (g, c, s))


def _filon_curve(pair, ts):
    """The norm at each t on the Filon path alone: the engine on the pair's
    norm integrands, which ``norm_curve`` integrates for times below the
    large-t expansion's switch."""
    red = reduce_pair(pair)
    return spectral.integrate_batch(red.integrands(ts), 0.0, math.inf, None, red.tail)


def _smooth(f, lo, hi, cfg=None, width_hint=None, tail_bound=None):
    """f over [lo, hi] as one omega = 0 entry with G = f alone: Gauss-Legendre
    panels, which start as one panel over the range without a width hint."""
    entry = OscillatoryIntegrand(omega=0.0, amplitudes=_parts(f), width_hint=width_hint or (lambda rho: math.inf))
    return integrate_oscillatory(entry, lo, hi, cfg, tail_bound)


def _exp_cos(omega, hint=None):
    """F(r) = exp(-r) cos(omega r): integral over [0, inf) is 1/(1+omega^2)."""
    decay = lambda r: np.exp(-np.asarray(r, dtype=float))
    zero = lambda r: np.zeros(np.shape(r))
    return OscillatoryIntegrand(
        omega=omega, amplitudes=_parts(zero, decay, zero), width_hint=hint or (lambda r: np.full(np.shape(r), 1.0))
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


@pytest.mark.parametrize("tol", [{"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.nan}, {"rel_tol": math.inf}])
def test_config_rejects_non_finite_tolerances(tol):
    """A nan tolerance fails every comparison, so it needs its own check:
    let through, it ends in an exhausted panel budget."""
    with pytest.raises(ValueError, match="positive and finite"):
        QuadConfig(**tol)


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
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    res = integrate_oscillatory(f, 0.0, math.inf, tail_bound=lambda rho: 2.0 * math.exp(-rho))
    assert res.value == pytest.approx(1.0 + 1.0 / 26.0, rel=1e-9)


def test_filon_matches_the_closed_form_on_a_finite_range():
    """int_0^30 e^-r cos(40 r) dr: Filon panels from 0 up to a finite end,
    against the closed form."""
    omega = 40.0
    hi = 30.0
    exact = (1.0 + math.exp(-hi) * (omega * math.sin(omega * hi) - math.cos(omega * hi))) / (1.0 + omega * omega)
    res = integrate_oscillatory(_exp_cos(omega), 0.0, hi, QuadConfig())
    assert res.value == pytest.approx(exact, rel=2e-12, abs=1e-15)


def _unresolved(rows=1.0):
    """cos(1e5 r) as a smooth amplitude (times ``rows``): its float64 phase near r = 1e4 is noise of about 1e-7."""
    return OscillatoryIntegrand(
        omega=0.0,
        amplitudes=_parts(lambda r: np.asarray(rows)[..., None] * np.cos(1e5 * np.asarray(r, dtype=float))),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
        components=np.size(rows),
    )


def test_exhausted_refinement_reports_its_best_estimate():
    """When refinement hits the budget the error must carry the partial
    answer, so callers can decide instead of losing the work."""
    exact = -1.0613845402546906e-05
    with pytest.raises(QuadratureError) as info:
        # the default absolute tolerance sits below the phase-noise floor
        # of this cancellation-dominated integral
        integrate_oscillatory(_unresolved(), 1e4, 1e4 + 1.0, QuadConfig())
    assert info.value.achieved == pytest.approx(exact, abs=1e-9)
    assert info.value.error_estimate is not None and info.value.error_estimate > 0.0


def test_batch_isolates_a_failing_integral():
    """An integral that exhausts its budget ends with its own error and
    leaves its batch neighbours exactly as they are when run alone, each
    over its own range and with its own tail bound."""
    one = lambda r: np.ones(np.shape(r))
    zero = lambda r: np.zeros(np.shape(r))
    failing = _unresolved()
    converging = OscillatoryIntegrand(
        omega=3.0,
        amplitudes=_parts(one, one, zero),
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


def test_norm_curve_raises_the_earliest_failure():
    """Under a tight budget and a tolerance near roundoff a gaussian
    velocity of width 30 exhausts the budget at t = 1e2 and 1e1, each with
    its own estimate, and computes t = 1e6 and 1e4; norm_curve raises the
    error of the first failing t in the order given, as a loop over the
    times would."""
    from wavegrowth.spectral import l2_norm, norm_curve

    pair = ProfilePair(1, Profile.zero(1), Profile.gaussian(1, 30.0, 2.0))
    cfg = QuadConfig(rel_tol=1e-15, max_panels=1024)
    ts = np.array([1e6, 1e2, 1e1, 1e4])
    results = norm_sq_samples(pair, ts, cfg)
    assert [isinstance(r, QuadratureError) for r in results] == [False, True, True, False]
    assert results[1].achieved != results[2].achieved
    with pytest.raises(QuadratureError) as info:
        norm_curve(pair, ts, cfg)
    (first,) = norm_sq_samples(pair, [1e2], cfg)
    with pytest.raises(QuadratureError) as norm:
        l2_norm(pair, 1e2, cfg)
    for error in (first, norm.value):
        assert str(info.value) == str(error)
        assert info.value.achieved == error.achieved
        assert info.value.error_estimate == error.error_estimate
    assert norm_sq_samples(pair, [1e6], cfg) == results[:1]


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


def test_an_empty_batch_is_an_empty_list_after_its_argument_checks():
    """A batch of no integrands returns [] without building any batch state,
    but a tail-bound list of the wrong length still raises."""
    tail = lambda rho: math.exp(-rho)
    assert integrate_batch([], 0.0, math.inf, QuadConfig(), tail) == []
    assert integrate_batch([], [], [], QuadConfig(), []) == []
    with pytest.raises(ValueError, match="1 tail bounds for 0 integrands"):
        integrate_batch([], 0.0, math.inf, QuadConfig(), [tail])


def test_divergent_tail_raises():
    f = lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float))
    with pytest.raises(QuadratureError, match="diverges"):
        _smooth(f, 0.0, math.inf, tail_bound=lambda rho: math.inf)


# ------------------------------------------------------------- tail growth
def _gauss_cos(omega, scale, width=1.0):
    """exp(-(r/scale)^2) cos(omega r) and the bound scale^2 / (2 rc) exp(-(rc/scale)^2) of its tail beyond rc.

    Over [0, inf) it integrates to sqrt(pi) scale / 2 exp(-(omega scale / 2)^2).
    """
    amp = lambda r: np.exp(-((np.asarray(r, dtype=float) / scale) ** 2))
    f = OscillatoryIntegrand(omega=omega, amplitudes=_parts(c=amp), width_hint=lambda r: np.full(np.shape(r), width))
    return f, lambda rc: scale * scale / (2.0 * rc) * math.exp(-((rc / scale) ** 2))


def _sweep_ends(monkeypatch) -> list:
    """Record the upper end of the panels each sweep evaluates."""
    ends = []
    real = quadrature._evaluate

    def evaluate(a, b, *args):
        if b.size:
            ends.append(float(b.max()))
        return real(a, b, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    return ends


def test_a_converged_block_reaches_its_tail_in_one_sweep(monkeypatch):
    """An infinite range marches ahead before its first sweep, along the
    tail march from its block end 2, to the first edge where the tail bound
    meets the tolerance of its closed-form part, and its first sweep
    evaluates [0, that edge] at once.  Without a closed form that tolerance
    is abs_tol / 4: the march of unit steps stops at 23.  The final
    tolerance, relative to the total 0.065, is looser, so no sweep follows
    to grow the block; before the look-ahead the same integral took three,
    ending at 2, 19 and 20."""
    f, tail = _gauss_cos(1.0, 4.0)
    cfg = QuadConfig()
    ends = _sweep_ends(monkeypatch)
    res = integrate_oscillatory(f, 0.0, math.inf, cfg, tail)
    assert ends == [23.0]
    # the march of unit width steps from 2 over the integers
    assert tail(23.0) <= 0.25 * cfg.abs_tol < tail(22.0)
    assert tail(23.0) <= 0.25 * cfg.target(res.value)
    assert tail(23.0) <= res.error  # the reported error carries the bound beyond the kept end
    assert res.value == pytest.approx(2.0 * math.sqrt(math.pi) * math.exp(-4.0), rel=1e-12)


def test_entries_growing_by_different_steps_do_not_depend_on_the_batch():
    """Entries whose blocks double once, several times or not at all give the
    same bits alone, in one batch and in seeded permutations of it: each
    stops at its own tolerance, and a small entry with a loose tail bound
    (its tolerance far below the others') takes no one else further.  The
    times of one family share one march of their last block [16, 32] and
    keep it up to different edges; their panels are sampled once however
    far each time keeps it."""
    unit = _exp_cos_rows(40.0, [1.0])
    tiny_closed = lambda x, w: tuple(1e-9 * v for v in unit.closed_form(x, w))
    tiny = dataclasses.replace(unit, amplitudes=lambda r: tuple(1e-9 * v for v in unit.amplitudes(r)), closed_form=tiny_closed)
    sampled = []

    def gauss(r):
        sampled.append(np.array(r, copy=True))
        return np.exp(-((np.asarray(r, dtype=float) / 4.0) ** 2))

    shared, family_tail = _parts(c=gauss), _gauss_cos(1.0, 4.0)[1]
    unit_width = lambda r: np.full(np.shape(r), 1.0)
    family = [OscillatoryIntegrand(omega=w, amplitudes=shared, width_hint=unit_width) for w in (0.5, 1.0, 1.25, 1.5)]
    rows = [
        (*_gauss_cos(1.0, 4.0), 0.0, math.inf),
        (*_gauss_cos(3.0, 1.0), 0.0, math.inf),
        (*_gauss_cos(40.0, 8.0, 0.5), 0.5, math.inf),
        (*_gauss_cos(2.0, 2.0), 3.0, math.inf),
        (*_gauss_cos(2.0, 0.3), 0.0, math.inf),
        (_exp_cos(40.0), lambda rho: math.exp(-rho), 1.0, math.inf),
        (tiny, lambda rho: math.exp(-rho), 1.0, math.inf),
        (*_gauss_cos(1.0, 4.0), 1.0, 6.0),
        *[(f, family_tail, 0.0, math.inf) for f in family],
    ]
    cfg = QuadConfig(abs_tol=1e-25)
    alone = [_vector_bits(integrate_batch([f], lo, hi, cfg, tail)[0]) for f, tail, lo, hi in rows]
    # the family's times end on the unit march of [16, 32] at different edges
    kept = [next(e for e in range(17, 33) if family_tail(e) <= 0.25 * cfg.target(float.fromhex(bits[0][0]))) for bits in alone[-4:]]
    assert len(set(kept)) == len(kept)
    rng = np.random.default_rng(5)
    for order in (np.arange(len(rows)), rng.permutation(len(rows)), rng.permutation(len(rows))):
        fs, tails, los, his = zip(*[rows[i] for i in order])
        sampled.clear()
        together = integrate_batch(fs, los, his, cfg, list(tails))
        assert [_vector_bits(res) for res in together] == [alone[i] for i in order]
        points = np.concatenate(sampled)
        assert np.unique(points).size == points.size


def test_a_vector_block_reaches_its_tightest_tolerance_in_one_sweep(monkeypatch):
    """A vector entry marches ahead before its first sweep to the first edge
    where the tail bound meets the tightest tolerance of its closed-form
    part over its components, abs_tol / 4 without one: one sweep takes it
    from 0 to 48, past the edge 39 that its smaller component's final
    tolerance needs and the 25 of the larger component alone, and no sweep
    follows to grow the block (before the look-ahead the sweeps ended at 2
    and 39)."""
    scale = np.array([1.0, 1e-6])[:, None]
    amp = lambda r: scale * np.exp(-np.asarray(r, dtype=float))
    f = dataclasses.replace(_exp_cos_rows(3.0, [1.0, 1.0], closed=False), amplitudes=_parts(c=amp))
    cfg, tail = QuadConfig(abs_tol=1e-20), lambda rho: math.exp(-rho)
    ends = _sweep_ends(monkeypatch)
    vec = integrate_oscillatory(f, 0.0, math.inf, cfg, tail)
    assert ends == [48.0]
    tightest, largest = (0.25 * cfg.target(v) for v in (vec.value[1], vec.value[0]))
    # the march of unit width steps from 2 over the integers
    assert tail(48.0) <= 0.25 * cfg.abs_tol < tail(47.0)
    assert tail(39.0) <= tightest < tail(38.0)
    assert tail(25.0) <= largest < tail(24.0)
    assert vec.value == pytest.approx([0.1, 1e-7], rel=1e-9)


def test_an_entry_whose_total_falls_below_its_closed_part_grows_after_its_first_sweep(monkeypatch):
    """The look-ahead reaches only as far as the tolerance of the closed-form
    part K: here K = e^-r integrates to 1 over [0, inf), and amplitudes of
    the other sign, -(1 - 1e-3) 2 e^-2r, bring the total down to 1e-3.  The
    first sweep evaluates [0, 12], where the tail bound meets a quarter of
    1e-9 |K|; the final tolerance is a thousand times tighter, so the entry
    grows after it along the same unit march, to the first edge where the
    bound meets that tolerance, and its value matches the closed form."""
    a = 1.0 - 1e-3

    def closed_form(x, w):
        x = np.asarray(x, dtype=float)
        value = np.where(np.isinf(x), 1.0, -np.expm1(-np.where(np.isinf(x), 0.0, x)))
        return value, 4.0 * np.finfo(float).eps * np.abs(value)

    amp = lambda r: -2.0 * a * np.exp(-2.0 * np.asarray(r, dtype=float))
    f = OscillatoryIntegrand(omega=0.0, amplitudes=_parts(g=amp), width_hint=lambda r: np.full(np.shape(r), 1.0), closed_form=closed_form)
    tail = lambda rho: a * math.exp(-2.0 * rho)
    cfg = QuadConfig()
    ends = _sweep_ends(monkeypatch)
    res = integrate_oscillatory(f, 0.0, math.inf, cfg, tail)
    assert ends[0] == 12.0 and ends[-1] == 15.0 and len(ends) >= 2
    assert tail(12.0) <= 0.25 * cfg.target(1.0) < tail(11.0)
    assert tail(15.0) <= 0.25 * cfg.target(res.value) < tail(14.0)
    assert abs(res.value - (1.0 - a)) <= res.error <= cfg.target(res.value)


def test_a_look_ahead_past_the_budget_keeps_the_first_block(monkeypatch):
    """An entry without a closed form looks ahead to its abs_tol edge; when
    that edge lies beyond the panel budget the look-ahead fails nothing: the
    entry keeps [0, 2] for its first sweep and grows from there to the edge
    its relative tolerance needs, which the budget reaches, as it did before
    the look-ahead."""
    scale = 30.0
    f = lambda r: np.exp(-np.asarray(r, dtype=float) / scale)
    hint = lambda r: np.full(np.shape(r), 1.0)
    tail = lambda rho: scale * math.exp(-rho / scale)
    cfg = QuadConfig(max_panels=1024)
    assert tail(2.0 + 1023.0) > 0.25 * cfg.abs_tol  # the march from 2 meets abs_tol / 4 beyond the budget
    first = _smooth(f, 0.0, 2.0, cfg, hint)
    ends = _sweep_ends(monkeypatch)
    res = _smooth(f, 0.0, math.inf, cfg, hint, tail)
    edge = next(x for x in range(3, 1025) if tail(x) <= 0.25 * cfg.target(first.value))
    assert ends == [2.0, float(edge)]
    assert tail(edge) <= 0.25 * cfg.target(res.value)
    assert abs(res.value - scale) <= res.error <= cfg.target(res.value)


def test_a_tail_bound_that_never_meets_the_tolerance_fails_on_a_march(monkeypatch):
    """A tail bound that stays above the tolerance takes its tail march to
    the panel budget in one growth step, far from float overflow, and the
    integral fails there before any tail panel is evaluated, with a message
    that names the range the march covered; under the default budget too,
    with warnings raised as errors."""
    f = lambda r: np.exp(-np.asarray(r, dtype=float))
    hint = lambda r: np.full(np.shape(r), 1.0)
    ends = _sweep_ends(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        _smooth(f, 0.0, math.inf, QuadConfig(max_panels=1024), hint, tail_bound=lambda rho: 5.0)
    assert str(info.value) == "panel budget 1024 exceeded by the tail march over [2, 1025]"
    assert ends == [2.0]
    ends.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError) as info:
            _smooth(f, 0.0, math.inf, QuadConfig(), hint, tail_bound=lambda rho: 5.0)
    assert str(info.value) == "panel budget 32768 exceeded by the tail march over [2, 32769]"
    assert ends == [2.0]


def test_a_tail_march_that_reaches_overflow_fails_before_it(monkeypatch):
    """With no width hint a tail march doubles, so a bound that never meets
    the tolerance reaches the largest power of two before the budget; the
    march stops there, short of an infinite edge, and no panel beyond the
    first block is evaluated."""
    ends = _sweep_ends(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError) as info:
            _smooth(lambda r: np.exp(-np.asarray(r, dtype=float)), 0.0, math.inf, tail_bound=lambda rho: 5.0)
    assert str(info.value) == f"the tail march over [2, {2.0**1023:g}] overflows before the tail bound meets the tolerance"
    assert ends == [2.0]


def test_smooth_integration():
    gauss = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
    res = _smooth(gauss, 0.0, 3.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(3.0), rel=1e-10)
    res = _smooth(
        gauss, 0.0, math.inf, tail_bound=lambda rho: math.exp(-rho * rho) / (2.0 * rho)
    )
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def _smooth_pieces(f, edges, cfg=None, tail=None) -> list:
    """One batch of the omega = 0 entries of f over each [edges[k], edges[k + 1]]: a kink of f becomes an edge."""
    piece = OscillatoryIntegrand(omega=0.0, amplitudes=_parts(f), width_hint=lambda rho: math.inf)
    return list(quadrature._settled(integrate_batch([piece] * (len(edges) - 1), edges[:-1], edges[1:], cfg, tail)))


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
    """A batch of one entry per piece is the single-range ``_smooth``
    calls on each piece, and so are their sums: every piece keeps its own
    partition."""
    pieces = [_smooth(f, a, b, tail_bound=tail) for a, b in zip(edges[:-1], edges[1:])]
    batch = _smooth_pieces(f, edges, tail=tail)
    assert batch == pieces
    assert sum(r.value for r in batch) == sum(p.value for p in pieces)
    assert sum(r.error for r in batch) == sum(p.error for p in pieces)
    assert sum(r.panels for r in batch) == sum(p.panels for p in pieces)


def test_smooth_break_at_a_kink_reaches_the_tolerance():
    # int_-2^3 |x| e^{-x^2} dx = 1 - (e^{-4} + e^{-9})/2
    f = lambda x: np.abs(x) * np.exp(-np.asarray(x, dtype=float) ** 2)
    cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-13)
    pieces = _smooth_pieces(f, [-2.0, 0.0, 3.0], cfg)
    value, error = sum(r.value for r in pieces), sum(r.error for r in pieces)
    want = 1.0 - 0.5 * (math.exp(-4.0) + math.exp(-9.0))
    assert error <= 0.25 * cfg.target(want)
    assert value == pytest.approx(want, rel=1e-13)


def test_oscillatory_bessel_spot_check():
    """int_0^20 J0(r) cos(3 r) dr has no elementary form; cross-check the
    engine against plain high-order panel quadrature of the same integrand."""
    from scipy.integrate import quad as scipy_quad
    from scipy.special import j0

    omega = 3.0
    f = OscillatoryIntegrand(
        omega=omega,
        amplitudes=_parts(lambda r: np.zeros(np.shape(r)), lambda r: j0(np.asarray(r, dtype=float)), lambda r: np.zeros(np.shape(r))),
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


_marches = st.tuples(st.integers(0, 2), st.floats(-10.0, 10.0), st.floats(1e-3, 15.0))


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
    """Shared, remembered and lone marches give the lockstep reference's
    edges bit for bit, and the same error when the budget runs out."""
    hints = [_hint(*kind) for kind in kinds]
    batch = [marches[i % len(marches)] for i in repeats]
    lo = [m[1] for m in batch]
    hi = [m[1] + m[2] for m in batch]
    fns = [hints[m[0]] for m in batch]
    want = lockstep_edges(lo, hi, fns, budget)
    # the second call takes every march from memory
    _same_edges(_initial_edges(lo, hi, fns, budget), want)
    _same_edges(_initial_edges(lo, hi, fns, budget), want)
    # each march on its own
    message = "panel budget {} exceeded by the initial partition of [{:g}, {:g}]"
    keys = list(zip(fns, lo, hi))
    marched = [quadrature._march(*key, budget) for key in keys]
    got = [QuadratureError(message.format(budget, *key[1:3])) if edges is None else edges for edges, key in zip(marched, keys)]
    _same_edges(got, want)


@pytest.mark.parametrize("lo", [math.pi / 2e6, 3e-5, 5e-4])
def test_a_march_from_near_zero_takes_the_hinted_width(lo):
    """No march is graded toward rho = 0: from 0 < lo < 1e-3, as from any
    start, every panel is the hinted width (the last one ends at hi), and
    lone and remembered marches give the lockstep reference's edges bit
    for bit."""
    hint = lambda r: np.full(np.shape(r), 0.3)
    (edges,) = _initial_edges([lo], [2.0], [hint], 32768)
    assert edges[0] == lo and edges[-1] == 2.0 and edges.size == 8
    assert np.all(np.abs(np.diff(edges)[:-1] - 0.3) <= 8.0 * np.spacing(2.0))
    (want,) = lockstep_edges([lo], [2.0], [hint], 32768)
    (remembered,) = _initial_edges([lo], [2.0], [hint], 32768)
    for got in (edges, remembered, quadrature._march(hint, lo, 2.0, 32768)):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.tuples(st.sampled_from(["constant", "gaussian", "min"]), st.floats(0.05, 2.0), st.floats(0.0, 3.0), st.floats(-5.0, 5.0)),
    start=st.floats(1.0, 50.0),
    scale=st.floats(0.5, 4.0),
    tols=st.lists(st.floats(-14.0, -2.0), min_size=1, max_size=6),
    budget=st.sampled_from([64, 4096]),
    seed=st.integers(0, 2**16),
)
def test_tail_marches_keep_the_reference_march_up_to_their_tolerance(kind, start, scale, tols, budget, seed):
    """The entries of a family that grow from one end share one tail march:
    each keeps the reference march up to the first edge where the tail bound
    meets its own tolerance (found by scanning every edge) and takes that
    edge as its block end, and an entry whose edge lies past the budget
    fails with a message naming the range marched.  Alone (each march going
    on from the edges an earlier one left), batched and permuted, every
    entry keeps the same edges, and whole integrals keep their bits."""
    hint, tail = _hint(*kind), lambda rho: math.exp(-rho / scale)
    tols = [10.0**e for e in tols]
    want = tail_march_edges(hint, start, budget)
    values = [tail(x) for x in want]
    amplitudes = _parts(c=lambda r: np.exp(-np.asarray(r, dtype=float) / scale))
    fs = [OscillatoryIntegrand(omega=float(k), amplitudes=amplitudes, width_hint=hint) for k in range(len(tols))]

    def grown(entries):
        family = quadrature._Batch([fs[i] for i in entries], [tail] * len(entries), [0.0] * len(entries), [math.inf] * len(entries))
        assert family.members == [list(range(len(entries)))]  # one family
        block_hi, results = [start] * len(entries), [None] * len(entries)
        pieces = family.grow(list(range(len(entries))), block_hi, [tols[i] for i in entries], results, budget)
        kept = {entries[j]: edges[: c + 1] for edges, owners, keep in pieces for j, c in zip(owners, keep)}
        return {i: (kept[i], block_hi[j]) if results[j] is None else str(results[j]) for j, i in enumerate(entries)}

    alone = {}
    for i in range(len(tols)):
        alone.update(grown([i]))
    for i, tol in enumerate(tols):
        met = [j for j in range(1, want.size) if values[j] <= tol]
        if met:
            edges, end = alone[i]
            assert np.array_equal(edges, want[: met[0] + 1]) and end == want[met[0]]
        else:
            assert alone[i] == f"panel budget {budget} exceeded by the tail march over [{start:g}, {want[-1]:g}]"
    order = list(np.random.default_rng(seed).permutation(len(tols)))
    for entries in (list(range(len(tols))), order):
        together = grown(entries)
        assert together.keys() == alone.keys()
        for i, got in together.items():
            assert type(got) is type(alone[i])
            assert got == alone[i] if isinstance(got, str) else (np.array_equal(got[0], alone[i][0]) and got[1] == alone[i][1])

    def bits(res):
        failed = isinstance(res, QuadratureError)
        return (str(res), res.achieved, res.error_estimate) if failed else _vector_bits(res)

    cfg = QuadConfig(max_panels=1024)
    single = [bits(integrate_batch([f], start, math.inf, cfg, tail)[0]) for f in fs]
    for entries in (list(range(len(fs))), order):
        batch = integrate_batch([fs[i] for i in entries], start, math.inf, cfg, tail)
        assert [bits(res) for res in batch] == [single[i] for i in entries]


def _scanned_tail_march(hint, x: float, bound, tol: float, budget: int) -> tuple:
    """The edges and error message of a tail march that asks the bound at every edge in turn."""
    edges = tail_march_edges(hint, x, budget)
    for k in range(1, budget):
        if not math.isfinite(edges[k]):
            return edges[:k], f"the tail march over [{x:g}, {edges[k - 1]:g}] overflows before the tail bound meets the tolerance"
        if bound(edges[k]) <= tol:
            return edges[: k + 1], None
    return edges, f"panel budget {budget} exceeded by the tail march over [{x:g}, {edges[-1]:g}]"


def _tail_hint(kind):
    """``_hint``'s kinds, or an infinite width, which doubles the march up to float overflow."""
    return (lambda r: math.inf) if kind[0] == "doubling" else _hint(*kind)


_tail_kinds = st.tuples(
    st.sampled_from(["constant", "gaussian", "min", "doubling"]), st.floats(0.05, 2.0), st.floats(0.0, 3.0), st.floats(-5.0, 5.0)
)


@settings(max_examples=80, deadline=None)
@given(
    kind=_tail_kinds,
    start=st.floats(1.0, 50.0),
    steps=st.lists(st.tuples(st.floats(0.0, 300.0), st.integers(-14, 0)), max_size=8),
    first=st.integers(-14, 0),
    tols=st.lists(st.integers(-15, 1), min_size=1, max_size=3),
    budget=st.sampled_from([64, 4096]),
)
def test_a_bisected_tail_cut_is_the_scanned_one(kind, start, steps, first, tols, budget):
    """On a non-increasing tail bound, here a staircase whose steps may sit
    at the tolerance itself, the tail march doubles, then bisects, its edge
    index and ends on the edge that asking every edge in turn finds, or
    fails with that scan's budget or overflow message; with at most two
    calls of the bound per doubling of the budget, and the same when
    marches from the same point with other tolerances ran before."""
    hint = _tail_hint(kind)
    breaks = sorted(start + d for d, _ in steps)
    levels = [10.0**e for e in sorted([first] + [e for _, e in steps], reverse=True)]
    staircase = lambda rho: levels[bisect.bisect_right(breaks, rho)]
    for tol in [10.0**e for e in tols]:
        asked = []
        bound = functools.cache(lambda rho: asked.append(rho) or staircase(rho))
        edges, error = quadrature._tail_march(hint, start, bound, tol, budget)
        want, message = _scanned_tail_march(hint, start, staircase, tol, budget)
        assert edges.dtype == np.float64 and np.array_equal(edges, want)
        assert (error is None) if message is None else str(error) == message
        assert len(asked) <= 2 * math.log2(budget) + 1


@settings(max_examples=60, deadline=None)
@given(
    kind=_tail_kinds,
    start=st.floats(1.0, 50.0),
    values=st.lists(st.integers(-14, 0), min_size=1, max_size=12),
    tol=st.integers(-14, 0),
    budget=st.sampled_from([64, 4096]),
)
def test_a_tail_march_on_a_rising_bound_still_ends_where_the_bound_meets_the_tolerance(kind, start, values, tol, budget):
    """A bound that rises again breaks the premise of the bisection, yet the
    march keeps the plain march's edges and ends on one where the bound
    meets the tolerance, or fails naming the last edge it reached: the
    budget's or the last before float overflow."""
    hint = _tail_hint(kind)
    bound = lambda rho: 10.0 ** values[hash(rho) % len(values)]
    tol = 10.0**tol
    edges, error = quadrature._tail_march(hint, start, bound, tol, budget)
    plain = tail_march_edges(hint, start, edges.size + 1)
    assert np.array_equal(edges, plain[:-1])
    if error is None:
        assert edges.size >= 2 and bound(edges[-1]) <= tol
    elif edges.size == budget:
        assert str(error) == f"panel budget {budget} exceeded by the tail march over [{start:g}, {edges[-1]:g}]"
    else:
        assert math.isinf(plain[-1])
        assert str(error) == f"the tail march over [{start:g}, {edges[-1]:g}] overflows before the tail bound meets the tolerance"


@pytest.mark.parametrize("t", [2e3, 3e4, 1e6])
def test_a_norm_integrand_marches_from_zero_like_every_other_time(monkeypatch, gauss2d_vel, t):
    """The first sweep of a norm integrand at t is the march of [0, 2] from
    rho = 0 at its width hint's pace followed by its family's tail march
    from 2, taken ahead to where the tail bound meets the tolerance of the
    closed-form part: the same at every t, with no panel that depends on
    t, so all times of a curve share it.  Taken on the Filon path, since
    ``norm_sq_samples`` takes these times from the large-t expansion."""
    sweeps = []
    real = quadrature._evaluate

    def evaluate(a, b, *args):
        sweeps.append((a.copy(), b.copy()))
        return real(a, b, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    _filon_curve(gauss2d_vel, [t])
    count = len(sweeps)
    _filon_curve(gauss2d_vel, [100.0])
    (first_a, first_b), (other_a, other_b) = sweeps[0], sweeps[count]
    assert np.array_equal(first_a, other_a) and np.array_equal(first_b, other_b)
    hint = reduce_pair(gauss2d_vel).width_hint
    (edges,) = _initial_edges([0.0], [2.0], [hint], 32768)
    march = np.concatenate((edges, tail_march_edges(hint, 2.0, first_a.size - edges.size + 2)[1:]))
    assert first_a.size > edges.size - 1  # the tail march is part of the first sweep
    assert np.array_equal(first_a, march[:-1]) and np.array_equal(first_b, march[1:])


@pytest.mark.parametrize("name", ["gauss2d_vel", "p0_2d"])
def test_a_norm_curve_takes_one_sweep(monkeypatch, request, name):
    """A 25-t norm curve of smooth 2D data on the Filon path is one sweep:
    every time marches its tail ahead before it, so none grows after it,
    both with a closed-form part at rho = 0 (the gaussian velocity, K != 0)
    and without one (the mean-zero polynomial gaussian, K = 0).  The curve
    ``norm_curve`` gives takes no sweep: every time there takes the large-t
    expansion, with no panel."""
    sweeps = []
    real = quadrature._evaluate

    def evaluate(a, *args):
        sweeps.append(a.size)
        return real(a, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    pair, ts = request.getfixturevalue(name), np.geomspace(1e2, 1e6, 25)
    filon = _filon_curve(pair, ts)
    assert len(sweeps) == 1 and sweeps[0] > 0
    assert all(res.value > 0.0 for res in filon)
    curve = norm_curve(pair, ts)
    assert len(sweeps) == 1
    assert np.all(np.isfinite(curve.m)) and np.all(curve.m > 0.0)


def test_a_norm_curve_samples_its_family_march_once(monkeypatch, gauss2d_vel):
    """The 25 times of a norm curve on the Filon path keep prefixes of one
    march, and its one sweep samples each panel of that march once for all
    of them: the coefficient rows that ``_Amplitudes.analyse`` builds are
    the distinct (a, b) among the sweep's panels, far fewer than the
    panels, and the shared amplitude callable receives 16 points per row."""
    sweeps, points = [], []
    real_batch, real_evaluate = spectral.integrate_batch, quadrature._evaluate

    def batch(integrands, *args, **kwargs):
        (amplitudes,) = {f.amplitudes for f in integrands}
        counted = lambda rho: points.append(np.size(rho)) or amplitudes(rho)
        return real_batch([dataclasses.replace(f, amplitudes=counted) for f in integrands], *args, **kwargs)

    def evaluate(a, b, owner, node, batch, amplitudes):
        evaluated = real_evaluate(a, b, owner, node, batch, amplitudes)
        sweeps.append((a.size, len(set(zip(a.tolist(), b.tolist()))), amplitudes.coef.shape[0]))
        return evaluated

    monkeypatch.setattr(spectral, "integrate_batch", batch)
    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    _filon_curve(gauss2d_vel, np.geomspace(1e2, 1e6, 25))
    ((panels, distinct, rows),) = sweeps
    assert rows == distinct < panels
    assert points == [16 * rows]


def test_no_pointwise_zone_or_graded_march_in_the_package():
    """Every range is Filon from its lower limit and every march takes the
    hinted width: no source file names a pointwise callable or a grading
    rule (the 0.45 max(|x|, near) + pad cap of the old marches)."""
    banned = re.compile(r"pointwise|_grading|0\.45\s*\*|\bnear\b.*\bpad\b")
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "wavegrowth").glob("*.py"))
    assert paths
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []


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
    (edges,) = _initial_edges([0.0], [4.0], [hint], 1024)
    calls.clear()
    (short,) = _initial_edges([0.0], [4.0], [hint], edges.size - 1)
    assert isinstance(short, QuadratureError)
    assert str(short) == f"panel budget {edges.size - 1} exceeded by the initial partition of [0, 4]"
    (enough,) = _initial_edges([0.0], [4.0], [hint], edges.size)
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
    1 .. 15 where scipy switches routines and their neighbours, at theta =
    0 among others, and on no theta at all; and at each negated, on both
    sides of -15, where scipy reflects j_k(-theta) = (-1)^k j_k(theta) and
    its ufunc alone gives nan.  At subnormal theta, where
    scipy's sqrt(pi / (2 theta)) overflows and j_1 .. j_15 come out nan,
    the kernel takes (1, 0, ..., 0), the row at theta = 0 and scipy's own
    value just above; wherever scipy is finite it still matches it."""
    from scipy.special import spherical_jn

    rng = np.random.default_rng(5)
    spread = np.exp(rng.uniform(math.log(1e-6), math.log(1e18), 20000))
    knots = np.arange(1.0, 16.0)
    edges = np.concatenate([knots, np.nextafter(knots, 0.0), np.nextafter(knots, np.inf)])
    mixed = np.array([0.0, 3.0, -3.0, 0.0, 20.0, -20.0, -15.0, 15.0])
    for theta in (spread, edges, rng.uniform(14.0, 40.0, 5000), np.zeros(0), mixed):
        for signed in (theta, -theta):
            assert _same_bits(quadrature._spherical_j(signed), spherical_jn(quadrature._K, signed[:, None]))

    cutoff = 0.5 * math.pi / np.finfo(float).max
    tiny = np.array([5e-324, 1e-310, 8.7e-309, cutoff, np.nextafter(cutoff, 1.0), 8.8e-309, 1e-300, 3.0, -1e-310, 0.0])
    want, got = spherical_jn(quadrature._K, tiny[:, None]), quadrature._spherical_j(tiny)
    finite = np.isfinite(want).all(axis=1)
    assert finite.tolist() == [False, False, False, False, True, True, True, True, False, True]
    assert _same_bits(got[finite], want[finite])
    assert _same_bits(got[~finite], np.repeat(np.eye(1, quadrature._GL_ORDER), 5, axis=0))


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_a_subnormal_time_keeps_the_bits_of_t_zero(t):
    """At t = 1e-310 or 5e-324 every Filon panel has a subnormal omega h:
    its moments are the theta = 0 row, so M^2(t) keeps the bits of t = 0
    (it once walked the whole panel budget on nan moments)."""
    pair = profiles.ProfilePair(1, profiles.Profile.gaussian(1, 1.0), profiles.Profile.zero(1))
    (zero,) = norm_sq_samples(pair, [0.0])
    (res,) = norm_sq_samples(pair, [t])
    assert _bits(res) == _bits(zero) == ("0x1.645f7c63f2c6bp+3", "0x1.8d9439d6b169bp-35", 25)


def test_large_moment_arguments_make_no_spherical_jn_call(monkeypatch):
    """Above theta = 15 every order comes from the recurrence: a batch whose
    Filon panels all have omega h > 15 never calls scipy's ``spherical_jn``
    ufunc, and one that has smaller theta sends only those rows to it."""
    seen, asked = [], []
    real_kernel, real_jn = quadrature._spherical_j, quadrature._spherical_jn

    def kernel(theta):
        seen.append(np.asarray(theta).copy())
        return real_kernel(theta)

    def jn(k, theta):
        asked.append(np.asarray(theta).ravel().copy())
        return real_jn(k, theta)

    monkeypatch.setattr(quadrature, "_spherical_j", kernel)
    monkeypatch.setattr(quadrature, "_spherical_jn", jn)
    hint = lambda r: np.full(np.shape(r), 0.5)
    amp = lambda r: np.exp(-np.asarray(r, float) ** 2)
    both = lambda r: (amp(r), amp(r))
    tail = lambda rc: math.exp(-rc * rc)
    # panels of the hinted width 0.5 and their halves: omega h >= 400 * 0.25 / 2**k
    integrate_batch(field_integrands([400.0], hint, both), 2.0, math.inf, QuadConfig(), tail)
    assert seen and min(theta.min() for theta in seen) > 15.0
    assert asked == []
    # a hint that widens away from 0 mixes small and large theta in one sweep
    seen.clear()
    widening = lambda r: 0.05 + 0.5 * np.asarray(r, float)
    integrate_batch(field_integrands([100.0], widening, both), 0.0, math.inf, QuadConfig(), tail)
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
    cos_only = OscillatoryIntegrand(40.0, _parts(c=decay), hint)
    smooth_only = OscillatoryIntegrand(0.0, _parts(decay), hint)
    rows = [
        (cos_only, 0.0),
        (dataclasses.replace(cos_only, amplitudes=_parts(s=decay)), 0.5),
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
    there, oscillatory or smooth."""
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
    shaped.clear()
    (smooth_piece,) = integrate_batch([OscillatoryIntegrand(0.0, counted, hint)], 0.0, 4.0, QuadConfig())
    assert calls and shaped == calls  # the smooth part alone
    assert smooth_piece.value == pytest.approx(math.sqrt(math.pi) / 2.0 * math.erf(4.0), rel=1e-12)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_an_integrand_rejects_a_non_finite_omega(omega):
    with pytest.raises(ValueError, match=f"omega must be finite, got {omega}"):
        _exp_cos(omega)


def test_an_entry_without_amplitudes_takes_no_panel():
    """An integrand whose ``amplitudes`` is None is zero but for its closed
    form.  Inside a larger batch it gives 0.0 and 0.0 with 0 panels, or
    exactly its closed part over the range and that part's roundoff, over
    finite and infinite ranges; neither its width hint nor its tail bound
    is called, and the other entries keep their batch-of-one bits."""

    def never(*args):
        raise AssertionError("a callable of a zero entry was called")

    def primitive(x, omega):
        x = np.asarray(x, dtype=float)
        return -np.exp(-x) + 0.0 * omega, np.full(x.shape, 3e-17)

    bare = OscillatoryIntegrand(omega=7.0, amplitudes=None, width_hint=never)
    closed = dataclasses.replace(bare, closed_form=primitive)
    exp_tail = lambda rho: math.exp(-rho)
    entries = [
        (_exp_cos(3.0), 0.0, math.inf, exp_tail),
        (bare, 0.0, math.inf, never),
        (closed, 0.5, math.inf, never),
        (_exp_cos(0.5), 0.0, 4.0, None),
        (bare, 1.0, 3.0, None),
        (closed, 1.0, 3.0, None),
    ]
    fs, lo, hi, tails = map(list, zip(*entries))
    together = integrate_batch(fs, lo, hi, QuadConfig(), tails)
    for (f, a, b, tail), res in zip(entries, together):
        if f.amplitudes is not None:
            assert res.panels > 0 and _bits(res) == _bits(integrate_batch([f], a, b, QuadConfig(), tail)[0])
        elif f.closed_form is None:
            assert _bits(res) == ("0x0.0p+0", "0x0.0p+0", 0)
        else:
            (p_a, p_b), (e_a, e_b) = primitive(np.array([a, b]), np.array([7.0, 7.0]))
            assert _bits(res) == ((0.0 + (p_b - p_a)).hex(), (e_b + e_a).hex(), 0)
            assert res.value == pytest.approx(math.exp(-a) - math.exp(-b), rel=1e-15)


def _count_zero_profile_points(monkeypatch) -> list:
    """Record the points at which a zero profile's ft, squared sphere
    average, or radial transform and its slope are evaluated."""
    zero_points = []
    cls = profiles.Profile
    real_ft, real_sq = cls.ft, cls.sq_ft_sphere
    real_polar, real_slope = cls.polar_factor, cls.polar_slope

    def counting(real):
        def wrapper(self, rho, *args):
            if self.is_zero:
                zero_points.append(np.size(rho))
            return real(self, rho, *args)

        return wrapper

    def counted(g):
        def wrapper(rho, *args):
            zero_points.append(np.size(rho))
            return g(rho, *args)

        return wrapper

    def polar_factor(self):
        m, g = real_polar(self)
        return (m, counted(g)) if self.is_zero else (m, g)

    def polar_slope(self):
        slope = real_slope(self)
        return counted(slope) if self.is_zero else slope

    monkeypatch.setattr(cls, "ft", counting(real_ft))
    monkeypatch.setattr(cls, "sq_ft_sphere", counting(real_sq))
    monkeypatch.setattr(cls, "polar_factor", polar_factor)
    monkeypatch.setattr(cls, "polar_slope", polar_slope)
    return zero_points


@pytest.mark.parametrize("name", ["example", "gauss1d_vel", "gauss2d_vel"])
def test_zero_position_is_never_evaluated(monkeypatch, request, name):
    """With u0 = 0 the norm batch and the term checks never evaluate u0's
    transform, its squared sphere average or the cross term: the reduced
    amplitude and the spectrum's cross term are absent (None), and u0's
    transform callables see no point."""
    pair = request.getfixturevalue(name)
    red = reduce_pair(pair)
    assert red.a0 is None and red.spectrum(np.linspace(0.0, 2.0, 5))[2] is None
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
    calls the amplitude callable at most once, the batch calls the closed
    form once for all ends, and the panels that times have in common are
    sampled once, so the amplitudes see fewer points than the times do one
    by one."""
    red = reduce_pair(gauss2d_vel)
    roles = ("amplitudes", "closed_form")
    calls = {role: [] for role in roles}
    wrappers = {}

    def counting(role, fn):
        def wrapper(rho, *args):
            calls[role].append(np.size(rho))
            return fn(rho, *args)

        return wrappers.setdefault(fn, wrapper)

    ts = np.geomspace(1e2, 1e6, 25)
    batch = [dataclasses.replace(f, **{role: counting(role, getattr(f, role)) for role in roles}) for f in red.integrands(ts)]
    sweeps = []
    real = quadrature._evaluate

    def evaluate(*args):
        calls["amplitudes"].clear()
        evaluated = real(*args)
        sweeps.append(list(calls["amplitudes"]))
        return evaluated

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    together = integrate_batch(batch, 0.0, math.inf, QuadConfig(), red.tail)
    assert sweeps and all(len(sizes) <= 1 for sizes in sweeps)
    assert calls["closed_form"] == [2 * ts.size]  # lo and hi of every time, in one call
    points = sum(sum(sizes) for sizes in sweeps)
    sweeps.clear()
    alone = [integrate_batch([f], 0.0, math.inf, QuadConfig(), red.tail)[0] for f in batch]
    points_alone = sum(sum(sizes) for sizes in sweeps)
    assert together == alone
    assert 0 < points < points_alone


def test_a_norm_curve_walks_its_family_once(monkeypatch, gauss2d_vel):
    """The 25 times of a norm curve on the Filon path are one family: one
    initial march (one ``_initial_edges`` key; 25 when every time asked for
    its own) and one tail march from the first block's end, which all times
    share, however far each keeps it.  The tail bound is called once per
    distinct point: the block end and the edges that the doubling and
    bisections of the 14-edge tail march ask for, 11 of its 13 (a scan asked
    every one).  No panel is sampled twice (272 distinct points)."""
    keys, marches, tails, points = [], [], [], []
    real_edges, real_march = quadrature._initial_edges, quadrature._tail_march

    def initial_edges(lo, hi, hints, budget):
        keys.extend(zip(hints, np.ravel(lo).tolist(), np.ravel(hi).tolist()))
        return real_edges(lo, hi, hints, budget)

    def tail_march(hint, x, *args):
        edges, error = real_march(hint, x, *args)
        marches.append((hint, x, edges.size))
        return edges, error

    real_tail = spectral._ReducedSpectrum.tail

    def tail(self, rho):
        tails.append(rho)
        return real_tail(self, rho)

    real_build = spectral.wave_integrands

    def build(*args, **kwargs):
        fs = real_build(*args, **kwargs)

        def counted(rho, fn=fs[0].amplitudes):
            points.append(np.array(rho, copy=True))
            return fn(rho)

        return [dataclasses.replace(f, amplitudes=counted) for f in fs]

    monkeypatch.setattr(quadrature, "_initial_edges", initial_edges)
    monkeypatch.setattr(quadrature, "_tail_march", tail_march)
    monkeypatch.setattr(spectral._ReducedSpectrum, "tail", tail)
    monkeypatch.setattr(spectral, "wave_integrands", build)
    _filon_curve(gauss2d_vel, np.geomspace(1e2, 1e6, 25))
    ((hint, lo, hi),) = keys
    assert (lo, hi) == (0.0, 2.0)
    ((march_hint, x, size),) = marches
    assert march_hint is hint and x == 2.0
    assert len(tails) == len(set(tails)) == 12 and size == 14 and tails[0] == 2.0
    sampled = np.concatenate(points)
    assert sampled.size == np.unique(sampled).size == 272


# ------------------------------------------------------- vector integrands
def _exp_cos_rows(omega, rates, closed=True, width=1.0, origin=0.0):
    """F_k(r) = exp(-c_k (r - origin)) (cos(omega r) + K) for each rate c_k, as one integrand.

    With ``closed``, K = 1: the integrand's closed form, int_origin^x
    exp(-c_k (r - origin)) dr, is never sampled; without, K = 0.
    """
    rates = np.asarray(rates, dtype=float)[:, None]
    decay = lambda r: np.exp(-rates * (np.asarray(r, dtype=float) - origin))
    zero = lambda r: np.zeros(np.shape(r))

    def closed_form(x, w):
        x = np.asarray(x, dtype=float)
        value = np.where(np.isinf(x), 1.0, -np.expm1(-rates * (np.where(np.isinf(x), origin, x) - origin))) / rates
        return value, 4.0 * np.finfo(float).eps * np.abs(value)

    return OscillatoryIntegrand(
        omega=omega,
        amplitudes=_parts(zero, decay, zero),
        width_hint=lambda r: np.full(np.shape(r), width),
        closed_form=closed_form if closed else None,
        components=rates.size,
    )


def _rows_tail(rates, origin=0.0):
    """int of exp(-c (r - origin)) beyond rho for the slowest rate c."""
    c = min(rates)
    return lambda rho: math.exp(-c * (rho - origin)) / c


def _vector_bits(res):
    return (tuple(float(v).hex() for v in np.atleast_1d(res.value)), tuple(float(e).hex() for e in np.atleast_1d(res.error)), res.panels)


@pytest.mark.parametrize(
    "omega, closed, rates, lo, hi, width",
    [
        (3.0, True, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        (40.0, True, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        (40.0, False, [0.5, 1.0, 3.0, 7.0], 0.0, math.inf, 1.0),
        # wide panels: only the fast decay needs bisection
        (3.0, False, [0.05, 3.0], 10.0, 20.0, 8.0),
        (40.0, True, [12.0, 0.5, 2.0], 1.0, math.inf, 8.0),
    ],
)
def test_vector_components_match_their_scalar_integrals(omega, closed, rates, lo, hi, width):
    """Each component of an m-component entry meets its own tolerance and
    agrees with the same integrand run as m scalar entries, and with the
    closed form, within the reported error bars, with and without a
    closed-form part.  The components share one partition, refined
    wherever any of them needs it."""
    tail = _rows_tail(rates, lo) if math.isinf(hi) else None

    def antiderivative(c, x):
        if math.isinf(x):
            return 0.0
        k = -math.exp(-c * (x - lo)) / c if closed else 0.0
        return k - math.exp(-c * (x - lo)) * (c * math.cos(omega * x) - omega * math.sin(omega * x)) / (c * c + omega * omega)

    vec = integrate_oscillatory(_exp_cos_rows(omega, rates, closed, width, lo), lo, hi, tail_bound=tail)
    assert vec.value.shape == vec.error.shape == (len(rates),)
    panels = []
    for k, c in enumerate(rates):
        one = integrate_oscillatory(_exp_cos_rows(omega, [c], closed, width, lo), lo, hi, tail_bound=tail)
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
    f = dataclasses.replace(_exp_cos_rows(3.0, [1.0, 1.0], closed=False), amplitudes=_parts(c=amp))
    small = dataclasses.replace(f, amplitudes=_parts(c=lambda r: amp(r)[1]), components=1)
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
        (_exp_cos_rows(3.0, [0.8, 2.0], closed=False), 0.0, _rows_tail([0.8])),
        (_exp_cos_rows(40.0, [0.5, 1.0, 3.0]), 1.0, _rows_tail([0.5])),
        (_exp_cos_rows(700.0, [2.0], closed=False), 0.0, _rows_tail([2.0])),
        (_exp_cos_rows(3.0, [0.5, 12.0], closed=False, width=8.0), 1.0, _rows_tail([0.5])),
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
    f = _unresolved(np.array([1.0, 2.0]))
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
    """No entry of the grid-free chain's batch has a pointwise zone: the
    u_t and u_r entries and the F, P and |dt w^|^2 entries have smooth
    amplitudes and no closed form, the norm integrand after them carries its
    rho = 0 part in closed form, and every panel is Filon from rho = 0.
    The field entries agree with scipy's cos- and sin-weighted quadrature of
    the same amplitudes (QUADPACK's QAWO) within the error bars."""
    from scipy.integrate import quad as scipy_quad

    captured = []
    real_batch = local_energy.integrate_batch

    def capture(integrands, lo, hi, cfg, tails):
        captured.append((list(integrands), tails))
        return real_batch(integrands, lo, hi, cfg, tails)

    monkeypatch.setattr(local_energy, "integrate_batch", capture)
    ts = [6.0, 40.0]
    local_energy._radial_values(gauss_pair_2d, ts, [0.5, 2.0, 4.5])
    ((batch, tails),) = captured
    fields, tail = batch[:2], tails[0]
    assert all(f.closed_form is None and f.components == 6 for f in fields)
    assert all(f.closed_form is None and f.components == 3 for f in batch[2:4]) and len(batch) == 5
    # the norm rows: t = 6's integrand alone, since t = 40 takes the large-t expansion
    (norm,) = batch[4:]
    assert norm.closed_form is not None and norm.omega == 12.0 and norm.components == 1

    starts = []
    real_evaluate = quadrature._evaluate

    def evaluate(a, *args):
        starts.append(float(a.min()))
        return real_evaluate(a, *args)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    results = integrate_batch(fields, 0.0, math.inf, QuadConfig(), tail)
    assert starts[0] == 0.0
    for f, res in zip(fields, results):
        _, c, s = f.amplitudes(np.linspace(0.0, 1.0, 3))
        rows = range(np.shape(c if c is not None else s)[0])
        for k in rows:
            want = 0.0
            for j, weight in ((1, "cos"), (2, "sin")):
                amp = lambda r, j=j, k=k: float(np.atleast_2d(f.amplitudes(np.array([r]))[j])[k, 0])
                if f.amplitudes(np.array([1.0]))[j] is not None:
                    want += scipy_quad(amp, 0.0, 30.0, weight=weight, wvar=f.omega, limit=400, epsabs=1e-14)[0]
            assert abs(res.value[k] - want) <= res.error[k] + 1e-12


@pytest.mark.parametrize("radii", [1, 5, 25])
def test_the_radial_batch_does_not_grow_with_the_radii(monkeypatch, gauss_pair_2d, radii):
    """u_t and u_r at every radius are one entry per t, whatever the number
    of radii, next to one entry for F, P and |dt w^|^2 per t and the norm
    rows: the norm integrand at t = 6 alone, since t = 20 and 40 take the
    large-t expansion."""
    sizes = []
    real = local_energy.integrate_batch

    def counting(integrands, *args):
        sizes.append((len(integrands), [f.components for f in integrands]))
        return real(integrands, *args)

    monkeypatch.setattr(local_energy, "integrate_batch", counting)
    ts = [6.0, 20.0, 40.0]
    vals = local_energy._radial_values(gauss_pair_2d, ts, np.linspace(0.2, 5.0, radii))
    assert sizes == [(2 * len(ts) + 1, [2 * radii] * len(ts) + [3] * len(ts) + [1])]
    assert vals.ut.shape == vals.ur.shape == (len(ts), radii)
    assert vals.norm_sq.shape == (len(ts),)


def test_a_grid_free_report_is_one_batch(monkeypatch, gauss_pair_2d):
    """A grid-free decay report integrates u_t, u_r, F, G and M(t) at every
    t in one ``integrate_batch`` call; every other call the engine sees is
    a data-side integral at omega = 0.  The norm at these times is the
    large-t expansion, with no entry in that batch."""
    calls = []
    for module in (quadrature, spectral, local_energy):

        def counting(integrands, *args, _real=module.integrate_batch, _name=module.__name__, **kwargs):
            calls.append((_name, [f.omega for f in integrands]))
            return _real(integrands, *args, **kwargs)

        monkeypatch.setattr(module, "integrate_batch", counting)
    ts = [20.0, 50.0, 100.0]
    rep = local_energy_report(gauss_pair_2d, 5.0, ts)
    assert rep.lam is None
    doubled = [2.0 * t for t in ts]
    assert [call for call in calls if any(call[1])] == [("wavegrowth.local_energy", ts + doubled)]


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
    # the norm pins are of the Filon path, which the large-t expansion
    # replaces in norm_sq_samples and in the report's batch
    curve = _filon_curve(gauss2d_vel, [3.0, 40.0, 700.0, 1.2e4, 3e5])
    rows = _recording(patch, bounds, "integrate_oscillatory")
    bounds.term_checks(gauss_pair_2d, 40.0)
    batch = _recording(patch, local_energy, "integrate_batch")
    (sample,) = local_energy_report(gauss_pair_2d, 5.0, [30.0]).samples
    # the report's one batch: the field and the F, P and dt w^ entries; the
    # norm at t = 30 takes the large-t expansion, with no entry
    _, flux = batch
    (norm,) = _filon_curve(gauss_pair_2d, [30.0])
    # the data constants' one batch: weighted H1's two parts, the overlap and
    # the virial overlap, each a rule and its sub-rule of one piece
    pieces = _recording(patch, profiles, "integrate_batch")
    overlap = local_energy.data_constants(shifted_pair_2d).overlap
    _, _, _, _, rule, sub_rule, _, _ = pieces
    return {
        "norm_sq_samples": [_bits(res) for res in curve],
        # K2, Ihigh and total: rows 0, 4 and 10 of the 2D table
        "term_checks": [_bits(rows[i]) for i in (0, 4, 10)],
        # the sample's E_R, F and G, the batch's F, P and dt w^ components, and the norm
        "local_energy": [
            sample.e_r.hex(),
            sample.f.hex(),
            sample.g.hex(),
            *[(v.hex(), e.hex(), flux.panels) for v, e in zip(flux.value.tolist(), flux.error.tolist())],
            _bits(norm),
        ],
        # the 512-point angular rule and its 256-point sub-rule
        "data_overlap": [overlap.hex(), _bits(rule), _bits(sub_rule)],
    }


PINNED_BITS = {
    "norm_sq_samples": [
        ("0x1.fc67d44ec390bp+7", "0x1.0a18cdc3fd085p-28", 19),
        ("0x1.21a0d6a344321p+9", "0x1.476cf27cfd2dfp-26", 18),
        ("0x1.d3215cce06cccp+9", "0x1.8f80da92e5ba8p-24", 17),
        ("0x1.41ac0af276994p+10", "0x1.8f818ac98c386p-24", 17),
        ("0x1.a57a36a8842cbp+10", "0x1.8f825265e3944p-24", 17),
    ],
    "term_checks": [
        ("0x1.9e01a3862eb1fp-20", "0x1.4906c8b439581p-57", 1),
        ("0x1.c6b1d34b16554p+8", "0x1.21f777e0e43c8p-25", 39),
        ("0x1.0f74adc7bf550p+9", "0x1.0e2074eb6d024p-24", 38),
    ],
    "local_energy": [
        "0x1.0856a0f964d4bp-14",
        "0x1.412782fa2dd07p-5",
        "-0x1.15865480f9935p+6",
        ("0x1.2014f881ec91ep-9", "0x1.ce8be23dea218p-46", 61),
        ("0x1.c33b3f7131cbcp-8", "0x1.6d91314aaea2fp-44", 61),
        ("0x1.091253d1a7743p-3", "0x1.8cb04c988cb79p-45", 61),
        ("0x1.01fef9481ff61p+9", "0x1.0e2066cba82d0p-24", 38),
    ],
    "data_overlap": [
        "0x1.70d49318b2e54p+1",
        ("0x1.70d49318b2e54p+1", "0x1.75d76cab57b78p-42", 19),
        ("0x1.70d49318b2e54p+1", "0x1.755d14ab33b88p-42", 19),
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
    The norm, term_checks and local_energy pins moved again, each within
    0.007 of its two error bars, when the pointwise zone shrank to half a
    period and marches from 0 < lo < 1e-3 began grading from their start.
    Every pin moved once more, each within 0.026 of its two error bars, when
    the zone gave way to the closed-form part at rho = 0 and marches
    stopped grading toward 0.  The F, P and dt w^ pins became the three
    components of one entry on one partition, and the sample's E_R, F and
    G moved with them (each entry within 0.0006 of its two error bars); the
    norm pin, now taken from the report's own norm batch, kept its bits,
    and kept them again when the norm entries joined the chain's batch.
    When a last tail block began to be kept only up to the first edge of
    its march where the tail bound meets the tolerance, every infinite
    range lost panels: the norm, term_checks and local_energy norm pins
    moved within 0.0011 of their two error bars, the F, P and dt w^
    components kept their values, and every error now carries the tail
    bound at the kept end; the sample's E_R, F and G and the data_overlap
    pins kept their bits.  When a tail became one march from its block
    end, cut at each entry's tolerance, in place of doubling blocks, the
    norm, term_checks and local_energy pins moved within 0.0001 of their
    two error bars (two of them lost a panel), the sample's E_R and F
    moved by 1 and 4 ulps, and G and the data_overlap pins kept their
    bits.  When an infinite range began to march ahead before its first
    sweep, to the first edge where the tail bound meets the tolerance of
    its closed-form part, the norm pins at t = 3 and 40, the term_checks
    and the local_energy norm pins each gained a panel and moved within
    0.0008 of their two error bars; the F, P and dt w^ components, which
    have no closed form and so march to abs_tol, kept their values on five
    more panels with smaller errors; the sample's E_R moved by 2.2e-14
    relative, and F, G, the other norm pins and the data_overlap pins kept
    their bits.  When each profile kind began to write its transform once,
    as a radial factor and an order, a(0) and the gaussian tail bounds
    came from the sampled g(0): the norm, term_checks and local_energy
    norm pins moved within 7.3e-6 of their two error bars on the same
    panels, the F, P and dt w^ components kept their values with errors 1
    or 2 ulps apart, and the sample's E_R, F, G and the data_overlap pins
    kept their bits.  When the field entries' tail bound became the exact
    L1 tail of the data's radial factors, and their size its value at 0,
    the sample's E_R moved by 1.7e-14 relative and every other pin kept
    its bits; the data_overlap pins kept theirs when the rule and its
    sub-rule became two entries of one batch, and again when they became
    two entries of the batch of all the data constants.  A change that moves these
    bits on purpose updates the pins and says so in CHANGES.md.
    """
    assert _pinned_bits(monkeypatch.setattr, gauss2d_vel, gauss_pair_2d, shifted_pair_2d) == PINNED_BITS


TERM_CHECKS_BITS = {
    "gauss_pair_1d": [
        ("0x1.ee4646f17746bp-18", "0x1.ca1f5c28f5c29p-54", 1),
        ("0x1.bf659066b3fd8p+8", "0x1.bffb7f2c8768bp-41", 1),
        ("0x1.4f7c20a2a686bp-4", "0x1.b85a1cac08313p-53", 1),
        ("0x1.cb82f1d604a55p+8", "0x1.d2eb47991fc2ap-41", 1),
        ("0x1.4c6f28dae7ec0p+8", "0x1.2c5ac0364b45fp-24", 18),
        ("0x1.d5f6e1eb5a8cap+4", "0x1.106c24e907c1cp-29", 21),
        ("0x1.2da9851d31c0cp+8", "0x1.2bb6c07742390p-39", 1),
        ("0x1.4b08f33be8139p+8", "0x1.1053c4f67c5f6p-24", 18),
        ("0x1.96ae066dc5b93p+0", "0x1.1fb0b83f7b576p-43", 25),
        ("0x1.8bf90d587648ap+9", "0x1.2c59dd2240080p-24", 18),
    ],
    "gauss_pair_2d": [
        ("0x1.9e01a3862eb1fp-20", "0x1.4906c8b439581p-57", 1),
        ("0x1.48173bf802b77p+6", "0x1.3ddb3d5627c1bp-43", 1),
        ("0x1.d423ba7527b8bp-4", "0x1.c83126e978d50p-52", 1),
        ("0x1.60de2111a1275p+6", "0x1.4ee26858340b6p-43", 1),
        ("0x1.c6b1d34b16554p+8", "0x1.21f777e0e43c8p-25", 39),
        ("0x1.c4a507e163157p+5", "0x1.acad6abafa2ebp-31", 45),
        ("0x1.aff92b345694cp+6", "0x1.55fd5de15f6e8p-40", 1),
        ("0x1.bf483322cbbe4p+7", "0x1.723f946f3903ap-41", 1),
        ("0x1.8437055aa7fdap+8", "0x1.2078dc76f239fp-25", 39),
        ("0x1.10d353dc8dae0p+6", "0x1.78f33e647a751p-33", 27),
        ("0x1.0f74adc7bf550p+9", "0x1.0e2074eb6d024p-24", 38),
    ],
}
# the 2D window integral T at t = 40, past the large-t switch of its unit
# velocity: ("0x1.d58715ab90b9cp+3", "0x1.0965ec284cf34p-31", 18) while it
# was integrated
TRICK_T_BITS = ("0x1.d58715ab90ab7p+3", "0x1.d5ab3ccf491b6p-46", 0)


@pytest.mark.parametrize("name", sorted(TERM_CHECKS_BITS))
def test_every_term_checks_row_is_pinned(monkeypatch, request, name):
    """Every integration of ``term_checks`` at t = 40, in table order: K2,
    J1, J2, Ilow, Ihigh, the O pieces, N1, N2 and total.  The 1D pair is
    the one whose closed-form part at rho = 0 carries a cross term, which
    the A1 rows leave out.  In 2D the window integral T is no integration:
    it takes its closed form with no panel."""
    rows = _recording(monkeypatch.setattr, bounds, "integrate_oscillatory")
    checks = bounds.term_checks(request.getfixturevalue(name), 40.0)
    assert [_bits(res) for res in rows] == TERM_CHECKS_BITS[name]
    if checks.dimension == 2:
        assert _bits(bounds.trick_T(40.0)) == TRICK_T_BITS
        assert checks.T == float.fromhex(TRICK_T_BITS[0])


@pytest.mark.parametrize("dimension", [1, 2])
def test_the_zero_rows_of_term_checks_take_no_panel(monkeypatch, dimension):
    """A chain term that is identically zero takes no panel: with u0 = 0
    the A0 term's J2 and N2 rows, with u1 = 0 the K2 row and the A1 term's
    J1, O and N1 rows, each 0.0 with error 0.0; every other row evaluates
    panels.  Rows in table order: K2, J1, J2, Ilow, Ihigh, the O pieces,
    N1, N2, total."""
    gauss, zero = Profile.gaussian(dimension, 1.0), Profile.zero(dimension)
    pieces = dimension + 1
    for pair, empty in (
        (ProfilePair(dimension, zero, gauss), [2, 6 + pieces]),
        (ProfilePair(dimension, gauss, zero), [0, 1, *range(5, 6 + pieces)]),
    ):
        rows = _recording(monkeypatch.setattr, bounds, "integrate_oscillatory")
        checks = bounds.term_checks(pair, 40.0)
        assert len(checks.O_parts) == pieces
        assert [i for i, res in enumerate(rows) if res.panels == 0] == empty
        assert all(_bits(rows[i]) == ("0x0.0p+0", "0x0.0p+0", 0) for i in empty)


def test_evaluated_panels_and_sweeps_are_pinned(monkeypatch, gauss2d_vel, gauss_pair_2d):
    """The panels, (panel, component) rows and sweeps that ``_evaluate`` sees
    for one radial batch and one 25-t norm curve, pinned.  A tail march is
    kept only up to its first edge where the tail bound meets the
    tolerance; a change that evaluates edges beyond it (or more sweeps)
    moves these counts.  One tail march from the block end, in place of
    doubling blocks, took them from 599/5078/5 and 425/425/2 to 592/5028/5
    and 424/424/2.  Marching each infinite range ahead to the tolerance of
    its closed-form part before its first sweep took them to 618/5129/2 and
    425/425/1: the norm curve is one sweep, and the radial batch lost its
    growth sweeps, among them the one in which the t = 20 field entry grew
    again after its total moved.  The exact L1 tail of the field entries,
    in place of a Schwarz bound that halved the gaussian exponent, took the
    radial counts to 480/3197/2.  The radial counts include the batch's
    norm rows: since the times 20 and 40 take the large-t expansion, the
    norm integrands at those times gave way to one omega = 0 entry for
    int G, which took them to 466/3183/2, and int G's closed form in place
    of that entry took them to 403/3120/2.  The norm curve's counts are
    those of its Filon path (``_filon_curve``)."""
    counts = {"panels": 0, "rows": 0, "sweeps": 0}
    real = quadrature._evaluate

    def evaluate(a, b, owner, node, batch, amplitudes):
        counts["panels"] += a.size
        counts["rows"] += int(batch.width[owner].sum())
        counts["sweeps"] += 1
        return real(a, b, owner, node, batch, amplitudes)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate)
    local_energy._radial_values(gauss_pair_2d, (6.0, 20.0, 40.0), np.linspace(0.25, 5.0, 7))
    radial = dict(counts)
    counts.update(panels=0, rows=0, sweeps=0)
    _filon_curve(gauss2d_vel, np.geomspace(1e2, 1e6, 25))
    assert (radial, counts) == ({"panels": 403, "rows": 3120, "sweeps": 2}, {"panels": 425, "rows": 425, "sweeps": 1})


def _march_pin(hint) -> tuple:
    """The edge counts of ``hint``'s march over [0, 2] and of its tail march
    from 2 to where exp(-rho) <= 1e-12, and the sha256 of both's bytes."""
    (initial,) = _initial_edges([0.0], [2.0], [hint], 32768)
    tail, error = quadrature._tail_march(hint, 2.0, lambda rho: math.exp(-rho), 1e-12, 32768)
    assert error is None
    return initial.size, tail.size, hashlib.sha256(initial.tobytes() + tail.tobytes()).hexdigest()


def _hints_of(patch, module, call) -> list:
    """The distinct width hints of the integrands that ``call()`` hands ``module.integrate_batch``, in order."""
    hints = []
    real = module.integrate_batch

    def recording(integrands, *args, **kwargs):
        hints.extend(f.width_hint for f in integrands if f.width_hint not in hints)
        return real(integrands, *args, **kwargs)

    patch(module, "integrate_batch", recording)
    call()
    patch(module, "integrate_batch", real)
    return hints


# reduce_pair's hint of a pair with one profile of each kind: as the
# position (no part in closed form) and, for a kind with a mean, as the
# velocity (a singular part at rho = 0, whose hint also resolves phi_n)
_KIND_PAIRS = {
    "zero": ProfilePair(1, Profile.zero(1), Profile.zero(1)),
    "gaussian": ProfilePair(1, Profile.gaussian(1, 0.8), Profile.zero(1)),
    "gaussian, singular": ProfilePair(2, Profile.zero(2), Profile.gaussian(2, 1.3)),
    "polynomial_gaussian": ProfilePair(2, Profile.zero(2), Profile.polynomial_gaussian(2, 0.9)),
    "indicator_interval": ProfilePair(1, Profile.indicator_interval(1.5), Profile.zero(1)),
    "indicator_interval, singular": ProfilePair(1, Profile.zero(1), Profile.indicator_interval(0.7)),
    "indicator_disk": ProfilePair(2, Profile.indicator_disk(1.2), Profile.zero(2)),
    "indicator_disk, singular": ProfilePair(2, Profile.zero(2), Profile.indicator_disk(0.6)),
}

def test_every_width_hint_maps_a_float_to_a_float(shifted_pair_2d):
    """Each profile's panel-width hint, of every kind and of amplitude-0
    data, and each reduced spectrum's, returns a float for a float rho."""
    data = [p for pair in _KIND_PAIRS.values() for p in (pair.u0, pair.u1)]
    data += [Profile.gaussian(2, 2, 0.0), Profile.indicator_interval(3, 0.0), Profile.gaussian(1, 2), Profile.indicator_disk(2)]
    hints = [p.ft_width_hint for p in data] + [reduce_pair(pair).width_hint for pair in [*_KIND_PAIRS.values(), shifted_pair_2d]]
    for rho in (0.0, 1e-3, 0.7, 2.0, 75.0):
        assert [type(hint(rho)) for hint in hints] == [float] * len(hints)


def test_a_hint_that_takes_only_floats_integrates():
    """The engine hands a width hint a Python float at every step of the
    initial and the tail marches, and takes its float back."""
    seen = []

    def hint(rho):
        assert type(rho) is float
        seen.append(rho)
        return 0.5

    f = _exp_cos(3.0, hint)
    finite, infinite = integrate_batch([f, f], 0.0, [3.0, math.inf], QuadConfig(), [None, lambda rho: math.exp(-rho)])
    assert finite.panels >= 6 and infinite.value == pytest.approx(0.1, abs=1e-12)
    assert min(seen) == 0.0 and max(seen) > 2.0  # both marches asked


MARCH_PINS = {
    'zero': (2, 5, '7114b836a2196b278b010e01dc162487139636fd1a7b1b05fabe6a4f3d0cff81'),
    'gaussian': (3, 143, 'ca4edb194696658507d8487eb2eacb91c863df8cffb8c739435859eab196e66c'),
    'gaussian, singular': (6, 355, 'cae8f02ea6d9405744ecc79488be50a46ae3fc11f23c154c23dacf61d3a781ea'),
    'polynomial_gaussian': (4, 177, '35290e96992298d5af2508611758a8231e168a0ac041090bad2190844ec9e77c'),
    'indicator_interval': (3, 23, '80dad5e9233bba82d7404c22209bd4ac749e6160b5cef2b511c6688c7be1221e'),
    'indicator_interval, singular': (4, 12, 'f21afb553360e260e171a75f2b065a3b4bac5e789241cd145bf1e10049ed374b'),
    'indicator_disk': (3, 19, '63811aaeefd1d983bbc410c55ececf62be52c5520802bc80f3ac144258506650'),
    'indicator_disk, singular': (3, 11, '4463765a51c483dc2bf5df8f9736f46d4ec617312bd3970a64a680323307303c'),
    'shifted_pair_2d': (6, 466, 'b531d42538998d5d67eecebb1627ca07c81262e3abde9899d9e724c2541410d3'),
    'data_constants 0': (4, 30, '95ba93a697b2244f7f42067c7a53b44f392b86ef0176778c11cc05fbed259732'),
    'data_constants 1': (3, 19, '63811aaeefd1d983bbc410c55ececf62be52c5520802bc80f3ac144258506650'),
    'data_constants 2': (4, 30, '95ba93a697b2244f7f42067c7a53b44f392b86ef0176778c11cc05fbed259732'),
    'data_constants 3': (4, 30, '95ba93a697b2244f7f42067c7a53b44f392b86ef0176778c11cc05fbed259732'),
    'dalembert_l2': (2, 23, '915844c6457f9d3d6b44a97a29fd937546a5f8ea01a5517c338ade2cf58f7383'),
    'local_energy field': (7, 466, 'c0bac66b8b8172274d3aa05d2f1977423d2e0fb349cdbf5ba57bbec7ce4f3cfb'),
}


def test_march_edges_are_pinned(monkeypatch, shifted_pair_2d, gauss_pair_1d, gauss_pair_2d):
    """The initial and tail marches of every width hint the package builds,
    pinned by their edge counts and the sha256 of their edges: the reduced
    spectrum's hint of each profile kind with and without a singular part,
    and of a shifted 2D pair; ``_integrate_data``'s hint unshifted (the data
    constants) and shifted (the d'Alembert norm at t = 20); and the field
    hint of a grid-free decay report."""
    assert {p.kind for pair in _KIND_PAIRS.values() for p in (pair.u0, pair.u1)} == set(profiles.KINDS)
    hints = {name: reduce_pair(pair).width_hint for name, pair in _KIND_PAIRS.items()}
    hints["shifted_pair_2d"] = reduce_pair(shifted_pair_2d).width_hint
    patch = monkeypatch.setattr
    # one hint per integral: the data's smallest scale among its profiles
    for k, hint in enumerate(_hints_of(patch, profiles, lambda: local_energy.data_constants(gauss_pair_2d))):
        hints[f"data_constants {k}"] = hint
    (hints["dalembert_l2"],) = _hints_of(patch, profiles, lambda: oracles.dalembert_l2(gauss_pair_1d, 20.0))
    field, *_ = _hints_of(patch, local_energy, lambda: local_energy_report(gauss_pair_2d, 5.0, [30.0]))
    hints["local_energy field"] = field
    assert {name: _march_pin(hint) for name, hint in hints.items()} == MARCH_PINS


def _failure_bits(res):
    return (str(res), tuple(float(v).hex() for v in np.atleast_1d(res.achieved)), tuple(float(v).hex() for v in np.atleast_1d(res.error_estimate)))


def test_budget_exhaustion_bits_are_pinned():
    """The best estimate and error estimate of an integral that exhausts its
    panel budget, scalar and vector, pinned bit for bit: each component's
    estimate sums its panels, and its error adds the n eps sum |value|
    roundoff of that sum to the panels' indicators."""
    cfg = QuadConfig(max_panels=1024)
    (scalar,) = integrate_batch([_unresolved()], 1e4, 1e4 + 1.0, cfg)
    (vector,) = integrate_batch([_unresolved(np.array([1.0, 2.0]))], 1e4, 1e4 + 1.0, cfg)
    assert _failure_bits(scalar) == (
        "panel budget 1024 exhausted with error 1.540e+00",
        ("-0x1.d23644cc07ab0p-17",),
        ("0x1.8a294abc6f82cp+0",),
    )
    assert _failure_bits(vector) == (
        "panel budget 1024 exhausted with error 3.079e+00",
        ("-0x1.d23644cc07ab0p-17", "-0x1.d23644cc07ab0p-16"),
        ("0x1.8a294abc6f82cp+0", "0x1.8a294abc6f82cp+1"),
    )


def test_width_underflow_verdict_is_pinned():
    """An amplitude that is noise at the last bit of rho keeps its indicator
    at every width: [1, 1 + 4e-15] bisects twice, to panels no wider than
    1e-15 |b|, which freeze, and the integral ends with the width-underflow
    verdict, its best estimate and its error estimate."""
    noise = OscillatoryIntegrand(
        omega=0.0,
        amplitudes=_parts(lambda r: 1e6 * (np.asarray(r) * 2.0**52 % 2.0)),
        width_hint=lambda r: np.full(np.shape(r), 1.0),
    )
    (res,) = integrate_batch([noise], 1.0, 1.0 + 4e-15, QuadConfig())
    assert isinstance(res, QuadratureError)
    assert _failure_bits(res) == (
        "all panels at width underflow before reaching tolerance",
        ("0x1.2f728ad344822p-29",),
        ("0x1.341668c0938cep-29",),
    )


def test_a_batch_of_one_and_three_components_is_pinned():
    """One batch mixing entries of 1 and 3 components, with and without a
    closed-form part, over finite and infinite ranges, pinned bit for bit."""
    rows = [
        (_exp_cos_rows(40.0, [0.5, 1.0, 3.0]), 0.0, math.inf, _rows_tail([0.5])),
        (_exp_cos(40.0), 0.0, 3.0, None),
        (_exp_cos_rows(3.0, [0.8, 2.0, 5.0], closed=False, width=2.0), 1.0, 4.0, None),
        (_exp_cos_rows(700.0, [2.0]), 0.5, math.inf, _rows_tail([2.0], 0.5)),
        (_exp_cos(3.0), 2.0, math.inf, lambda rho: math.exp(-rho)),
    ]
    fs, los, his, tails = zip(*rows)
    assert [_vector_bits(res) for res in integrate_batch(fs, los, his, QuadConfig(), list(tails))] == [
        (("0x1.000a3d07cc404p+1", "0x1.0028ef35e2e5fp+0", "0x1.573e1a9fa2a89p-2"), ("0x1.4c1532711baf1p-34", "0x1.4c12f98d727f0p-34", "0x1.4d9c63437129dp-34"), 48),
        (("0x1.5a6d335e56668p-10",), ("0x1.6c00000000000p-50",), 3),
        (("-0x1.0f9af52a5d65ap-4", "-0x1.9b51881276672p-6", "-0x1.17256a4a3d025p-10"), ("0x1.9000000000000p-51", "0x1.5780000000000p-53", "0x1.1f840d8000000p-47"), 4),
        (("0x1.79bd61f9c5848p-3",), ("0x1.e8c49bb5012c8p-38",), 13),
        (("0x1.8ec4d921318a6p-6",), ("0x1.cf582b80e3446p-47",), 30),
    ]


def test_a_non_finite_sum_ends_its_integral_alone():
    """An amplitude that gives nan or inf makes its integral's sum or error
    indicator non-finite, which no tolerance test settles: the integral
    ends with a QuadratureError naming the cause, carrying its sum and
    indicator, and every other entry of its batch keeps the bits it has
    alone."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(QuadratureError, match="not finite") as info:
            _smooth(lambda x, bad=bad: np.where(x > 0.5, bad, 1.0), 0.0, 1.0)
        assert not (math.isfinite(info.value.achieved) and math.isfinite(info.value.error_estimate))

    spike = lambda r: np.where(np.asarray(r, dtype=float) > 0.5, np.nan, 1.0)
    poisoned = OscillatoryIntegrand(omega=3.0, amplitudes=_parts(c=spike), width_hint=lambda r: np.full(np.shape(r), 1.0))
    rows = _exp_cos_rows(40.0, [0.5, 1.0, 3.0])
    vector = dataclasses.replace(rows, amplitudes=lambda r: (None, np.vstack([np.exp(-np.asarray(r, dtype=float)), spike(r), spike(r)]), None))
    tail = _rows_tail([0.5])
    alone = [integrate_batch([f], 0.0, math.inf, QuadConfig(), tail)[0] for f in (_exp_cos(40.0), rows)]
    batch = integrate_batch([poisoned, _exp_cos(40.0), vector, rows], [0.0] * 4, [2.0, math.inf, math.inf, math.inf], QuadConfig(), [None, tail, tail, tail])
    for failed in (batch[0], batch[2]):
        assert isinstance(failed, QuadratureError) and "not finite" in str(failed)
    assert np.shape(batch[2].achieved) == (3,) and math.isfinite(batch[2].achieved[0])
    assert [_vector_bits(res) for res in (batch[1], batch[3])] == [_vector_bits(res) for res in alone]


# function calls of the three probes below, at or above what the engine makes today
ONE_PANEL_EVENTS, TERM_CHECKS_EVENTS, VELOCITY_TERM_CHECKS_EVENTS = 264, 6595, 4608


def _events(fn) -> int:
    """The Python and C function calls that fn() makes after one warm-up call:
    a count of the engine's fixed cost that repeats exactly from run to run.
    The cyclic collector stays off while fn() runs: a collection there would
    add the call of each ``_MARCHES`` weakref callback for a hint that an
    earlier call left in a reference cycle, at a point that shifts with
    every allocation the process made before."""
    fn()
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def test_the_fixed_cost_of_an_integration_stays_counted(gauss_pair_1d, gauss_pair_2d, gauss2d_vel):
    """The function calls of a one-panel batch (the [0, 0.99/t] A1 row of a
    1D pair at t = 40), of a whole ``term_checks`` at t = 40, whose rows
    are single-entry batches, and of one on velocity-only data, whose J2
    and N2 rows have no amplitudes and take no panel: the engine's own
    bookkeeping per integration, apart from the panel arithmetic.  The
    first two were 539 and 11 619 before the panels became parallel arrays
    and the batch state was built once, 400 and 9577 before width hints,
    closed-form ends and the 1D series ran on Python floats, 379 and 9290
    before a batch's nodes lasted one sweep, and 375 and 9242 (6581 on
    velocity-only data) before zero rows skipped the engine, tail cuts
    bisected their march and the moments called scipy's ufunc directly.
    The two ``term_checks`` counts were 6597 and 4610 while every call
    built its split radius as an object; they may fall, not rise."""
    (a1, _), _ = reduce_pair(gauss_pair_1d).terms(40.0)
    one_panel = _events(lambda: integrate_batch([a1], 0.0, 0.99 / 40.0))
    report = _events(lambda: bounds.term_checks(gauss_pair_2d, 40.0))
    velocity = _events(lambda: bounds.term_checks(gauss2d_vel, 40.0))
    assert one_panel <= ONE_PANEL_EVENTS and report <= TERM_CHECKS_EVENTS and velocity <= VELOCITY_TERM_CHECKS_EVENTS


# function calls of one 25-t norm curve of a freshly built pair per catalog family, at or above today's
NORM_CURVE_EVENTS = {"example": 111, "gauss1d": 155, "gauss2d": 154, "poly2d": 144}


def test_the_cost_of_a_closed_form_norm_curve_stays_counted():
    """The function calls of ``norm_curve`` on a pair built afresh, as each
    benchmark call builds one, at 25 times in [1e2, 1e6] that all take a
    closed form: the pair's construction, its reduction, d'Alembert's step
    law or the large-t expansion and K(t), and the bookkeeping around them,
    with no batch.  They were 139, 447, 421 and 198 (example, gauss1d,
    gauss2d, poly2d) while each term rebuilt its Taylor and Hermite rows per
    call and K(t) integrated each time alone, and 126, 158, 155 and 145
    while the example took the linear law past its support; they may fall,
    not rise."""
    P = Profile
    pairs = {
        "example": lambda: ProfilePair(1, P.zero(1), P.indicator_interval(1.3, 2.0)),
        "gauss1d": lambda: ProfilePair(1, P.zero(1), P.gaussian(1, 1.3, 0.8)),
        "gauss2d": lambda: ProfilePair(2, P.zero(2), P.gaussian(2, 1.3, 0.8)),
        "poly2d": lambda: ProfilePair(2, P.zero(2), P.polynomial_gaussian(2, 1.3, 0.8)),
    }
    ts = np.geomspace(1e2, 1e6, 25).tolist()
    assert all(reduce_pair(make()).norm_rows(ts)[0] == [] for make in pairs.values())
    counts = {family: _events(lambda: norm_curve(make(), ts)) for family, make in pairs.items()}
    assert all(counts[family] <= NORM_CURVE_EVENTS[family] for family in pairs), counts
