"""Correctness gate: every time point against an independent reference.

The references are the closed forms of ``tests/_oracles.py``, which never
imports the package, carried to the seeded parameters by two exact
symmetries of the wave equation:

* amplitude linearity: M^2 scales with a^2;
* dilation: velocity data h(x / mu) evolve into mu u(t / mu, x / mu),
  where u is the wave of h, so in n dimensions
  M^2(t) = mu^(n + 2) M_h^2(t / mu).

Tolerances are the ones the test suite pins for each family.

One miss is a known failure of the current code and is named in
BENCHMARK.json: ``model_select`` labels the norm curve of the 2D mean-zero
gaussian ``power`` instead of ``bounded`` from sigma of about 1.1 on
(on every draw of times from 1.75, see workloads.POLY2D_SIGMA), although
its values match the closed form (the curve varies by 3e-5 to 1e-4 over
[1e2, 1e6], above the rule's fixed flat-curve floor).  It counts as
failed like any other miss, but only a miss that is not known makes a
run incorrect.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# Relative tolerance on M(t)^2 per family, as pinned in tests/test_spectral.py.
TOL = {"example": 1e-9, "gauss1d": 1e-12, "gauss2d": 1e-11, "poly2d": 1e-11}
TOL_T = 1e-11  # trick_T against trick_T_reference, tests/test_bounds.py
TOL_K0 = 1e-10  # rep.k0, as tests/test_local_energy.py pins it

# Local energy chain, as pinned in tests/test_acceptance.py.
RESIDUAL_MAX = 1e-6
SLACK_FLOOR = 1e-8

# (family, label) of the known model_select failure described above.
KNOWN_FAILURE = ("poly2d", "power")

_oracles = None


class Miss(NamedTuple):
    """One time point that failed the gate; ``known`` if it is the known failure."""

    text: str
    known: bool = False


def load_oracles(root: Path):
    """Import ``tests/_oracles.py`` from the checkout."""
    global _oracles
    if _oracles is None:
        sys.path.insert(0, str(root / "tests"))
        import _oracles as mod

        _oracles = mod
    return _oracles


def example_msq(t: float, radius: float, amplitude: float) -> float:
    """a 1_{|x| <= R} velocity: a^2 R^3 / 4 times 8(s - 1) + 16/3 at s = t / R.

    The unit case a = 2, R = 1 is the package's worked example; its closed
    form holds once the two fronts have separated (t > 2R).
    """
    s = t / radius
    return amplitude**2 * radius**3 / 4.0 * (8.0 * (s - 1.0) + 16.0 / 3.0)


@lru_cache(maxsize=None)
def _trick_T_anchor() -> float:
    return _oracles.trick_T_reference(10.0)


def _dawson_integral_tail(x: float) -> float:
    """Antiderivative of the Dawson function's asymptotic series at x >= 10.

    D(u) = sum_k (2k-1)!! / (2^(k+1) u^(2k+1)).  At x >= 10 the terms of the
    antiderivative shrink by a factor of about (2k+1) / (2x^2) each, so the
    sum reaches double precision within a few dozen terms, long before the
    asymptotic series turns, and its remainder there is below e^(-100).
    """
    total = 0.5 * math.log(x)
    coef = 0.5  # c_k = (2k-1)!! / 2^(k+1)
    k = 1
    while True:
        coef *= (2 * k - 1) / 2.0
        term = coef / (2 * k * x ** (2 * k))
        total -= term
        if term < 1e-20 * abs(total):
            return total
        k += 1


def trick_T(t: float) -> float:
    """T(t) = 2 pi int_0^t D(u) du, the M^2 of a unit 2D gaussian velocity.

    ``trick_T_reference`` (mpmath) costs about 0.3 s per call at large t,
    too slow to check every time point of a run; it is evaluated once at
    t = 10 and the rest of the range comes from the exact asymptotic
    antiderivative above.  bench/test_bench.py checks the two agree.
    """
    if t <= 10.0:
        return _oracles.trick_T_reference(t)
    return _trick_T_anchor() + TWO_PI * (_dawson_integral_tail(t) - _dawson_integral_tail(10.0))


def reference_msq(case, t: float) -> float:
    """Physical M(t)^2 of a velocity-only catalog pair."""
    p = case.params
    if case.family == "example":
        return example_msq(t, p["radius"], p["amplitude"])
    a, s = p["amplitude"], p["sigma"]
    if case.family == "gauss1d":
        return a * a * s**3 * _oracles.msq_gauss1d(t / s)
    if case.family == "gauss2d":
        return a * a * s**4 * trick_T(t / s)
    if case.family == "poly2d":
        # msq_poly2d is x1 exp(-|x|^2), i.e. sigma = 1/sqrt(2)
        mu = s * math.sqrt(2.0)
        return a * a * mu**6 * _oracles.msq_poly2d(t / mu)
    raise ValueError(f"no closed form for {case.family}")


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def gauss_k0(case) -> float:
    """K0 = int u1 (x . grad u0) + (1/2) int u1 u0 + E(0) for 2D gaussians."""
    p = case.params
    if case.family == "le_gauss2d":
        return 0.5 * p["amplitude"] ** 2 * math.pi * p["sigma"] ** 2
    a0, s0, a1, s1 = p["amplitude0"], p["sigma0"], p["amplitude1"], p["sigma1"]
    e0 = 0.5 * (a1 * a1 * math.pi * s1 * s1 + a0 * a0 * math.pi)
    ov = _oracles.gauss_overlap(2, a0, s0, a1, s1)
    ovg = _oracles.gauss_virial_overlap(2, a0, s0, a1, s1)
    return ovg + 0.5 * ov + e0


def check_call(name: str, call, perturb: float = 0.0) -> list[Miss]:
    """Misses of one call, one entry per failed time point.

    ``perturb`` multiplies every reference by (1 + perturb); the benchmark's
    own test uses it to show the gate can fail.
    """
    if call.error is not None:
        return [Miss(f"t={t:.6g}: {call.error}") for t in call.ts]
    out = call.output
    case = call.case
    scale = 1.0 + perturb
    misses = []
    if name == "norm_curve":
        tol = TOL[case.family]
        wrong_model = out["model"] != case.expected_model
        known = (case.family, out["model"]) == KNOWN_FAILURE
        for t, msq in zip(call.ts, out["msq"]):
            want = reference_msq(case, t) * scale
            if not _rel(msq, want) <= tol:
                misses.append(Miss(f"t={t:.6g}: M^2 {msq!r} vs {want!r} (rel {_rel(msq, want):.2e} > {tol:g})"))
            elif wrong_model:
                misses.append(Miss(f"t={t:.6g}: model {out['model']} != {case.expected_model}", known))
        return misses
    if name == "sandwich":
        t = call.ts[0]
        n = 1 if case.family in ("example", "gauss1d") else 2
        msq = out["total"] / TWO_PI**n
        want = reference_msq(case, t) * scale
        tol = TOL[case.family]
        if not out["ok"]:
            misses.append(Miss(f"t={t:.6g}: sandwich failed {out['failures']}"))
        elif not _rel(msq, want) <= tol:
            misses.append(Miss(f"t={t:.6g}: M^2 {msq!r} vs {want!r} (rel {_rel(msq, want):.2e} > {tol:g})"))
        elif out["T"] is not None and not _rel(out["T"], trick_T(t) * scale) <= TOL_T:
            misses.append(Miss(f"t={t:.6g}: T {out['T']!r} vs {trick_T(t) * scale!r}"))
        return misses
    k0_want = gauss_k0(case) * scale
    k0_bad = not _rel(out["k0"], k0_want) <= TOL_K0
    for t, e_r, residual, slack, envelope in out["samples"]:
        if k0_bad:
            misses.append(Miss(f"t={t:.6g}: K0 {out['k0']!r} vs {k0_want!r}"))
        elif not residual <= RESIDUAL_MAX:
            misses.append(Miss(f"t={t:.6g}: virial residual {residual:.2e} > {RESIDUAL_MAX:g}"))
        elif not slack >= -SLACK_FLOOR * (1.0 + out["k0"]):
            misses.append(Miss(f"t={t:.6g}: decay slack {slack:.3e}"))
        elif not e_r <= envelope:
            misses.append(Miss(f"t={t:.6g}: E_R {e_r!r} above envelope {envelope!r}"))
    return misses
