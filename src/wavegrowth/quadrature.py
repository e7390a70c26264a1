"""Adaptive Gauss-Legendre quadrature with a Filon path for oscillatory tails.

Frequency-side integrands here all have the shape

    F(rho) = G(rho) + C(rho) cos(omega rho) + S(rho) sin(omega rho)

with smooth amplitudes G, C, S and omega growing linearly with the
evaluation time, so resolving every oscillation pointwise costs O(omega)
panels.  Beyond its first ten periods an integral is instead a Filon
rule: the oscillatory parts are integrated exactly against a degree-15
Legendre interpolant of the amplitude on each panel, which keeps the
panel count tied to the amplitude's variation only.  The first ten
periods of a range are evaluated pointwise, on panels of at most a
quarter period, because the split amplitudes may blow up at rho = 0
where F itself stays finite.

Per-panel error indicators come from the decay of the top Legendre
coefficients.  A batch of integrals, each over its own range (one
integrand at many times, or the blocks of a frequency split), is refined
in sweeps: each sweep evaluates every new panel of the batch at once, with
one call per amplitude, one Legendre analysis, one Bessel-moment call and
one extended-precision phase reduction.  Between sweeps, each integral
whose summed indicator is above a quarter of its requested tolerance
bisects the fewest of its worst panels whose indicators cover the excess.
Every integral keeps its own partition and makes its own decisions, so its
result does not depend on the rest of the batch.  An integral that
exhausts the panel budget ends with a :class:`QuadratureError` carrying
its best estimate; the others carry on.

An initial partition is a march across the range at the width hint's
pace.  A march depends only on its hint, range and cap, so each distinct
one is made once per batch, and finished marches are remembered per hint
for as long as the hint lives: the integrals of later batches with the
same hint, such as the chain links of one sandwich report or the tail
blocks [2, 4], [4, 8], ... of every t, take them without a step.  Panels
of equal width and frequency share their Filon moments.

Smooth integrands, the physical-space data integrals among them, are the
omega = 0 case: ``integrate_smooth`` runs their smooth pieces, split at
the kinks, as one batch.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import spherical_jn

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "OscillatoryIntegrand",
    "integrate_batch",
    "integrate_oscillatory",
    "integrate_smooth",
]

_GL_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Row k maps samples at the nodes to the k-th Legendre coefficient of the
# degree-15 interpolant: c_k = (2k+1)/2 * sum_i w_i P_k(x_i) f(x_i).
_VANDER = np.polynomial.legendre.legvander(_NODES, _GL_ORDER - 1)
_ANALYSIS = ((2.0 * np.arange(_GL_ORDER) + 1.0) / 2.0)[:, None] * (_WEIGHTS[None, :] * _VANDER.T)

_TWO_PI_LD = 2.0 * np.longdouble("3.14159265358979323846264338327950288")

_K = np.arange(_GL_ORDER)
_COS_SIGN = np.where(_K % 2 == 0, (-1.0) ** (_K // 2), 0.0)
_SIN_SIGN = np.where(_K % 2 == 1, (-1.0) ** ((_K - 1) // 2), 0.0)

# A panel of some integral in a batch; value and err are its contribution
# and error indicator, frozen marks a panel too narrow to bisect.
_PANEL = np.dtype(
    [("a", float), ("b", float), ("value", float), ("err", float), ("owner", np.intp), ("filon", bool), ("frozen", bool)]
)


class QuadratureError(RuntimeError):
    """Tolerance could not be met within the panel budget.

    ``achieved`` holds the best available estimate and ``error_estimate``
    its indicator, so callers can decide whether to accept a degraded
    answer or fail.
    """

    def __init__(self, message: str, achieved: float | None = None, error_estimate: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadConfig:
    """Tolerance and budget knobs shared by every quadrature in the package."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-9
    max_panels: int = 32768

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_panels < 1024:
            raise ValueError("max_panels below 1024 defeats the refinement loop")

    def target(self, magnitude: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(magnitude))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    panels: int


@dataclass(frozen=True)
class OscillatoryIntegrand:
    """Integrand split F = smooth + cos_amp cos(omega rho) + sin_amp sin(omega rho).

    ``pointwise`` evaluates F directly and must stay finite where the
    split amplitudes blow up (removable singularities at rho = 0).
    ``width_hint`` maps rho to a panel width on which the amplitudes are
    well approximated by low-degree polynomials.  Integrands of one batch
    that share a callable are evaluated by one call over all their panels.
    """

    omega: float
    smooth: Callable[[np.ndarray], np.ndarray]
    cos_amp: Callable[[np.ndarray], np.ndarray]
    sin_amp: Callable[[np.ndarray], np.ndarray]
    pointwise: Callable[[np.ndarray], np.ndarray]
    width_hint: Callable[[np.ndarray], np.ndarray]


class _Grouped:
    """One callable per integral of a batch, labelled by distinct callable."""

    def __init__(self, fns):
        labels: dict = {}
        self.label = np.array([labels.setdefault(fn, len(labels)) for fn in fns], dtype=np.intp)
        self.fns = list(labels)

    def split(self, owner: np.ndarray):
        """(callable, positions) for each callable used by the ``owner`` entries."""
        if len(self.fns) == 1:
            yield self.fns[0], np.arange(owner.size)
            return
        labels = self.label[owner]
        order = np.argsort(labels, kind="stable")
        cuts = np.flatnonzero(np.diff(labels[order])) + 1
        for part in np.split(order, cuts) if order.size else ():
            yield self.fns[labels[part[0]]], part


def _analyse(vals: np.ndarray) -> np.ndarray:
    """Legendre coefficients of each row of node samples.

    einsum reduces row by row; a BLAS matmul rounds a row differently
    depending on how many rows share the call, which would tie a panel's
    value to the rest of the batch.
    """
    return np.einsum("...k,jk->...j", vals, _ANALYSIS)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("pk,pk->p", u, v)


def _sample(fn, x: np.ndarray) -> np.ndarray:
    return np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)


def _phase_cos_sin(omega: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of omega*m with the products reduced in extended precision.

    At omega*m ~ 2e9 a float64 product already carries ~1e-7 of phase
    error; the 64-bit mantissa of longdouble brings that down to ~2e-10.
    """
    z = omega.astype(np.longdouble) * m.astype(np.longdouble)
    z -= np.floor(z / _TWO_PI_LD) * _TWO_PI_LD
    zf = z.astype(float)
    return np.cos(zf), np.sin(zf)


def _evaluate(panels: np.ndarray, omega: np.ndarray, pointwise: _Grouped, amplitudes: _Grouped) -> None:
    """Fill in the value and error indicator of every panel, in one pass.

    Pointwise panels integrate F at the Gauss nodes.  Filon panels take the
    Legendre coefficients of the amplitudes against the moments
    int_-1^1 P_k(x) e^{i theta x} dx = 2 i^k j_k(theta): even k feed the
    cosine moment with sign (-1)^{k/2}, odd k the sine moment.
    """
    m, h = 0.5 * (panels["a"] + panels["b"]), 0.5 * (panels["b"] - panels["a"])
    x = m[:, None] + h[:, None] * _NODES
    value, err = np.empty(panels.size), np.empty(panels.size)
    owner, filon = panels["owner"], panels["filon"]

    direct = np.flatnonzero(~filon)
    for fn, sub in pointwise.split(owner[direct]):
        idx = direct[sub]
        vals = _sample(fn, x[idx])
        coef = _analyse(vals)
        value[idx] = h[idx] * np.einsum("pk,k->p", vals, _WEIGHTS)
        err[idx] = 2.0 * h[idx] * (np.abs(coef[:, -2]) + np.abs(coef[:, -1]))

    osc = np.flatnonzero(filon)
    if osc.size:
        w = omega[owner[osc]]
        # panels of one width and frequency share their moments
        theta, inverse = np.unique(w * h[osc], return_inverse=True)
        jk = spherical_jn(_K, theta[:, None])[inverse]
        chat, shat = 2.0 * _COS_SIGN * jk, 2.0 * _SIN_SIGN * jk
        cos_m, sin_m = _phase_cos_sin(w, m[osc])
        for (smooth, cos_amp, sin_amp), sub in amplitudes.split(owner[osc]):
            idx = osc[sub]
            coef = _analyse(np.stack([_sample(fn, x[idx]) for fn in (smooth, cos_amp, sin_amp)], axis=1))
            cg, cc, cs = coef[:, 0], coef[:, 1], coef[:, 2]
            cos_part = cos_m[sub] * _dot(cc, chat[sub]) - sin_m[sub] * _dot(cc, shat[sub])
            sin_part = sin_m[sub] * _dot(cs, chat[sub]) + cos_m[sub] * _dot(cs, shat[sub])
            value[idx] = h[idx] * (2.0 * cg[:, 0] + cos_part + sin_part)
            tails = np.abs(coef[:, :, -2]) + np.abs(coef[:, :, -1])
            err[idx] = 2.0 * h[idx] * (tails[:, 0] + tails[:, 1] + tails[:, 2])
    panels["value"], panels["err"] = value, err


# From this many marches on, one numpy step per distinct hint beats their
# Python steps (measured crossover: about 5 marches of 10-50 steps).
_LOCKSTEP_MIN = 5

# Finished marches of each width hint, {(lo, hi, cap): edges}.  An entry
# dies with its hint, so the calls that share a hint share its marches and
# nothing outlives the objects that own the hint.
_MARCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _remembered(hint) -> dict:
    """The finished marches of ``hint``; a hint without weak references keeps none."""
    try:
        return _MARCHES.setdefault(hint, {})
    except TypeError:
        return {}


def _march(hint, lo: float, hi: float, cap: float, budget: int) -> np.ndarray | None:
    """One march on Python floats: its edges, or None when it needs more than ``budget``.

    The hint sees a 0-d array; min and max are the IEEE operations of the
    lockstep march, so the edges are the same bit for bit.
    """
    floor = max((hi - lo) * 1e-9, 1e-300)
    x, edges = lo, [lo]
    while x < hi:
        w = float(hint(np.asarray(x)))
        w = max(min(min(w, cap), 0.45 * max(abs(x), 1e-3) + 1e-6), floor)
        x = min(x + w, hi)
        edges.append(x)
        if len(edges) > budget:
            return None
    return np.array(edges)


def _lockstep(marches: list, budget: int) -> list:
    """(hint, lo, hi, cap) marches stepped together, one call per distinct hint per step.

    Caps, ends and width floors are indexed once per set of running
    marches, which changes only when one finishes.  Returns each march's
    edges, or None when it needs more than ``budget`` edges.
    """
    hints, lo, hi, cap = zip(*marches)
    lo, hi, cap = (np.array(v, dtype=float) for v in (lo, hi, cap))
    floor = np.maximum((hi - lo) * 1e-9, 1e-300)
    grouped = _Grouped(hints)
    pieces = [[lo[j : j + 1]] for j in range(lo.size)]
    over = np.zeros(lo.size, dtype=bool)
    live = np.flatnonzero(lo < hi)
    x, count = lo[live], 1
    while live.size:
        groups = list(grouped.split(live))
        live_hi, live_cap, live_floor = hi[live], cap[live], floor[live]
        rows = []
        while True:
            w = np.empty(live.size)
            for fn, sub in groups:
                w[sub] = fn(x[sub])
            w = np.minimum(np.minimum(w, live_cap), 0.45 * np.maximum(np.abs(x), 1e-3) + 1e-6)
            x = np.minimum(x + np.maximum(w, live_floor), live_hi)
            rows.append(x)
            count += 1
            running = x < live_hi
            if count > budget or not running.all():
                break
        block = np.array(rows)
        for k, j in enumerate(live):
            pieces[j].append(block[:, k])
        if count > budget:
            over[live] = True
            break
        live, x = live[running], x[running]
    return [None if over[j] else np.concatenate(pieces[j]) for j in range(lo.size)]


def _initial_edges(lo, hi, cap, hints: Sequence[Callable], budget: int) -> list:
    """March each [lo_j, hi_j] taking the hinted width, capped geometrically.

    Each distinct (hint, lo, hi, cap) is marched once and its edges are
    shared by the duplicates.  Finished marches are remembered per hint,
    for as long as the hint lives, so later calls with the same hint (the
    rows of one sandwich, the blocks [2, 4], [4, 8], ... of every t) take
    them without a step.  A few marches step one by one on Python floats,
    more in lockstep.  Returns the edges of each march, or the
    QuadratureError of a march that needs more than ``budget`` edges.
    """
    lo, hi, cap = (np.asarray(v, dtype=float).reshape(-1).tolist() for v in (lo, hi, cap))
    keys = list(zip(hints, lo, hi, cap))
    edges = {key: _remembered(key[0]).get(key[1:]) for key in keys}
    todo = [key for key, found in edges.items() if found is None]
    fresh = _lockstep(todo, budget) if len(todo) >= _LOCKSTEP_MIN else [_march(*key, budget) for key in todo]
    for key, march in zip(todo, fresh):
        edges[key] = march
        if march is not None:
            march.flags.writeable = False
            _remembered(key[0])[key[1:]] = march
    return [
        edges[key]
        if edges[key] is not None and edges[key].size <= budget
        else QuadratureError(f"panel budget {budget} exceeded by the initial partition of [{key[1]:g}, {key[2]:g}]")
        for key in keys
    ]


def _partition(lo, hi, cap, owner: np.ndarray, filon: np.ndarray, hints: _Grouped, budget: int, results: list) -> np.ndarray:
    """Unevaluated panels of the initial partitions; a march over budget fails its integral."""
    marches = _initial_edges(lo, hi, cap, [hints.fns[label] for label in hints.label[owner]], budget)
    for j, edges in enumerate(marches):
        if isinstance(edges, QuadratureError):
            results[owner[j]] = edges
    live = np.array([r is None for r in results], dtype=bool)
    kept = [j for j, edges in enumerate(marches) if live[owner[j]]]
    march = np.repeat(kept, [marches[j].size - 1 for j in kept]).astype(np.intp)
    panels = np.zeros(march.size, _PANEL)
    if kept:
        panels["a"] = np.concatenate([marches[j][:-1] for j in kept])
        panels["b"] = np.concatenate([marches[j][1:] for j in kept])
    panels["owner"], panels["filon"] = owner[march], filon[march]
    return panels


def _bisect_worst(panels: np.ndarray, excess: np.ndarray, room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The panels each refining integral bisects this sweep, and their children.

    Integral i (excess[i] > 0) takes its unfrozen panels from the worst
    down until their indicators cover excess[i], at most room[i] of them.
    Panels at width underflow are frozen instead of bisected.
    """
    owner = panels["owner"]
    cand = np.flatnonzero((excess[owner] > 0.0) & ~panels["frozen"])
    if not cand.size:
        return cand, np.zeros(0, _PANEL)
    cand = cand[np.lexsort((-panels["err"][cand], owner[cand]))]
    who = owner[cand]
    starts = np.flatnonzero(np.r_[True, who[1:] != who[:-1]])
    row = np.repeat(np.arange(starts.size), np.diff(np.r_[starts, who.size]))
    rank = np.arange(who.size) - starts[row]
    # running sums per integral on rows of their own, so no integral's
    # rounding depends on another's panels
    sums = np.zeros((starts.size, rank.max() + 1))
    sums[row, rank] = panels["err"][cand]
    before = np.zeros_like(sums)
    np.cumsum(sums[:, :-1], axis=1, out=before[:, 1:])
    chosen = cand[(before[row, rank] < excess[who]) & (rank < room[who])]

    a, b = panels["a"][chosen], panels["b"][chosen]
    narrow = b - a <= 1e-15 * np.maximum(1.0, np.abs(b))
    panels["frozen"][chosen[narrow]] = True
    split = chosen[~narrow]
    a, b = a[~narrow], b[~narrow]
    mid = 0.5 * (a + b)
    children = np.zeros(2 * split.size, _PANEL)
    children["a"] = np.column_stack([a, mid]).ravel()
    children["b"] = np.column_stack([mid, b]).ravel()
    children["owner"] = np.repeat(owner[split], 2)
    children["filon"] = np.repeat(panels["filon"][split], 2)
    return split, children


def integrate_batch(
    integrands: Sequence[OscillatoryIntegrand],
    lo: float | Sequence[float],
    hi: float | Sequence[float],
    cfg: QuadConfig | None = None,
    tail_bound: Callable[[float], float] | Sequence[Callable[[float], float] | None] | None = None,
) -> list[QuadResult | QuadratureError]:
    """Integrate each integrand over its [lo, hi], hi possibly infinite.

    ``lo``, ``hi`` and ``tail_bound`` are each one value for the whole
    batch or one per integrand.  An infinite upper limit requires
    ``tail_bound(rho)``, an upper bound for the absolute integral beyond
    rho; such an integral doubles its last block until the bound drops
    below a quarter of its tolerance.  Entry i is integral i's result, or
    the QuadratureError that ended it, whose ``achieved`` covers
    [lo, block_hi] of the blocks marched so far and whose
    ``error_estimate`` adds the tail bound beyond block_hi.
    """
    cfg = cfg or QuadConfig()
    n = len(integrands)
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (lo, hi))
    tails = list(tail_bound) if isinstance(tail_bound, Sequence) else [tail_bound] * n
    if len(tails) != n:
        raise ValueError(f"{len(tails)} tail bounds for {n} integrands")
    if not np.all(lo <= hi):
        raise ValueError("need lo < hi")
    results: list = [QuadResult(0.0, 0.0, 0) if a == b else None for a, b in zip(lo, hi)]
    infinite = np.isinf(hi)
    if any(r is None and inf and tail is None for r, inf, tail in zip(results, infinite, tails)):
        raise ValueError("infinite range needs a tail_bound")
    if all(r is not None for r in results):
        return results

    omega = np.array([f.omega for f in integrands], dtype=float)
    hints = _Grouped([f.width_hint for f in integrands])
    pointwise = _Grouped([f.pointwise for f in integrands])
    amplitudes = _Grouped([(f.smooth, f.cos_amp, f.sin_amp) for f in integrands])

    block_hi = np.where(infinite, np.maximum(2.0 * np.maximum(lo, 1.0), lo + 1.0), hi)
    osc = omega > 0.0
    quarter = np.full(n, math.inf)
    quarter[osc] = 0.5 * math.pi / omega[osc]
    zone1_end = block_hi.copy()
    zone1_end[osc] = np.minimum(block_hi[osc], lo[osc] + 20.0 * math.pi / omega[osc])

    two = np.flatnonzero(zone1_end < block_hi)
    new = _partition(
        np.r_[lo, zone1_end[two]],
        np.r_[zone1_end, block_hi[two]],
        np.r_[quarter, np.full(two.size, math.inf)],
        np.r_[np.arange(n), two],
        np.r_[np.zeros(n, dtype=bool), np.ones(two.size, dtype=bool)],
        hints,
        cfg.max_panels,
        results,
    )
    panels = np.zeros(0, _PANEL)
    while True:
        _evaluate(new, omega, pointwise, amplitudes)
        panels = np.concatenate([panels, new])
        owner = panels["owner"]
        count = np.bincount(owner, minlength=n)
        total = np.bincount(owner, panels["value"], n)
        err = np.bincount(owner, panels["err"], n)
        unfrozen = np.bincount(owner[~panels["frozen"]], minlength=n)
        excess = np.zeros(n)
        grow = []
        for i in [i for i, r in enumerate(results) if r is None]:
            value, error, tol = float(total[i]), float(err[i]), 0.25 * cfg.target(total[i])
            if error > tol:
                if count[i] >= cfg.max_panels:
                    message = f"panel budget {cfg.max_panels} exhausted with error {error:.3e}"
                elif not unfrozen[i]:
                    message = "all panels at width underflow before reaching tolerance"
                else:
                    excess[i] = error - tol
                    continue
                beyond = tails[i](float(block_hi[i])) if infinite[i] else 0.0
                results[i] = QuadratureError(message, achieved=value, error_estimate=error + beyond)
            elif not infinite[i]:
                results[i] = QuadResult(value, error, int(count[i]))
            else:
                tail = tails[i](float(block_hi[i]))
                if math.isinf(tail):
                    results[i] = QuadratureError("tail bound is infinite; integral diverges", achieved=value)
                elif tail <= tol:
                    results[i] = QuadResult(value, error + tail, int(count[i]))
                else:
                    grow.append(i)
        if all(r is not None for r in results):
            return results

        split, children = _bisect_worst(panels, excess, cfg.max_panels - count)
        grow = np.array(grow, dtype=np.intp)
        blocks = _partition(
            block_hi[grow], 2.0 * block_hi[grow], np.full(grow.size, math.inf), grow, osc[grow], hints, cfg.max_panels, results
        )
        block_hi[grow] *= 2.0
        keep = np.array([r is None for r in results], dtype=bool)[owner]
        keep[split] = False
        panels = panels[keep]
        new = np.concatenate([children, blocks])


def _settled(results: Sequence[QuadResult | QuadratureError]) -> Sequence[QuadResult]:
    """The results of a batch, or the QuadratureError of the first that failed."""
    for res in results:
        if isinstance(res, QuadratureError):
            raise res
    return results


def integrate_oscillatory(
    integrand: OscillatoryIntegrand,
    lo: float,
    hi: float,
    cfg: QuadConfig | None = None,
    tail_bound: Callable[[float], float] | None = None,
) -> QuadResult:
    """Integrate F over [lo, hi], hi possibly infinite: a batch of one.

    An infinite upper limit requires ``tail_bound(rho)``, an upper bound
    for the absolute integral beyond rho; blocks are doubled until the
    bound drops below a quarter of the tolerance.
    """
    (result,) = _settled(integrate_batch([integrand], lo, hi, cfg, tail_bound))
    return result


def integrate_smooth(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float | Sequence[float],
    hi: float | Sequence[float],
    cfg: QuadConfig | None = None,
    width_hint: Callable[[np.ndarray], np.ndarray] | None = None,
    tail_bound: Callable[[float], float] | None = None,
) -> QuadResult:
    """Adaptive panel integration of a non-oscillatory integrand.

    ``lo`` and ``hi`` are one range, or one pair per smooth piece of f:
    a kink of f becomes the edge between two pieces.  The pieces are one
    batch, each meeting the tolerance on its own, and the result sums
    their values, errors and panel counts.
    """
    if width_hint is None:
        width_hint = lambda rho: np.full(np.shape(rho), math.inf)
    zero = lambda rho: np.zeros(np.shape(rho))
    integrand = OscillatoryIntegrand(
        omega=0.0, smooth=f, cos_amp=zero, sin_amp=zero, pointwise=f, width_hint=width_hint
    )
    pieces = np.broadcast(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)).size
    results = _settled(integrate_batch([integrand] * pieces, lo, hi, cfg, tail_bound))
    return QuadResult(sum(r.value for r in results), sum(r.error for r in results), sum(r.panels for r in results))
