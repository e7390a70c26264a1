"""Adaptive Gauss-Legendre quadrature with a Filon path for oscillatory tails.

Frequency-side integrands here all have the shape

    F(rho) = G(rho) + C(rho) cos(omega rho) + S(rho) sin(omega rho)

with smooth amplitudes G, C, S and omega growing linearly with the
evaluation time, so resolving every oscillation pointwise costs O(omega)
panels.  One callable gives all three amplitudes, so a factor they share
is computed once per point, and a part that is identically zero is None:
it is never computed and its samples and Legendre coefficients stay
zero.  Beyond its first ten periods an integral is instead a Filon rule:
the oscillatory parts are integrated exactly against a degree-15
Legendre interpolant of the amplitude on each panel, which keeps the
panel count tied to the amplitude's variation only.  The first ten
periods of a range are evaluated pointwise, on panels of at most a
quarter period, because the split amplitudes may blow up at rho = 0
where F itself stays finite.  An integrand whose amplitudes stay smooth
there has no pointwise callable and runs Filon from its lower limit.

An integrand may be vector-valued: with ``components`` m > 1 its
callables return m rows of values, shape (m, N) for N points, and its
integral is m integrals on one partition.  Every (panel, component) pair
is then a row of the per-panel arithmetic below, while the march, the
Filon moments and the phase reduction are taken once per panel.  A
scalar integrand is the case m = 1.

Per-panel error indicators come from the decay of the top Legendre
coefficients.  A batch of integrals, each over its own range (one
integrand at many times, or the blocks of a frequency split), is refined
in sweeps: each sweep evaluates every new panel of the batch at once, with
one call per distinct callable.  A pointwise callable takes the frequency
with its points, so every time of one integrand family shares one call;
an amplitude callable is sampled once per distinct Filon panel, however
many integrals of the batch share that panel, since a Filon amplitude does
not depend on omega.  One Legendre analysis, one set of Bessel moments
and one extended-precision phase reduction then serve every panel of the
sweep:
the moments of every omega h > 15 come from one pass of the ascending
recurrence for all sixteen orders, and only the rows with omega h <= 15
call ``spherical_jn``.
Between sweeps, each integral whose summed indicator is above a quarter of
its requested tolerance bisects the fewest of its worst panels whose
indicators cover the excess.  Every integral keeps its own partition and
makes its own decisions, and all per-panel arithmetic runs row by row, so
its result does not depend on the rest of the batch.  A vector integral
is settled, or its block grows, only when every component meets the
tolerance it would meet as a scalar integral, and it bisects the union of
the panels its failing components would pick.  An infinite range is
covered by blocks [lo, b], [b, 2b], [2b, 4b], ...: once an integral meets
its tolerance on the blocks so far, it doubles its last block in one step
until the tail bound beyond it meets the tolerance too, or stops falling,
and the next sweep evaluates every new block at once.  An integral that
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

import functools
import math
import sys
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

# above the highest order, spherical_jn takes every order from the recurrence
_RECURRENCE_FROM = float(_GL_ORDER - 1)


def _spherical_j(theta: np.ndarray) -> np.ndarray:
    """j_0(theta) .. j_15(theta) per theta: ``spherical_jn(_K, theta[:, None])`` bit for bit.

    Rows with theta <= 15, where scipy takes the orders k >= theta from
    AMOS, go to ``spherical_jn``; the others to ``_ascending``.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    fast = theta > _RECURRENCE_FROM
    if fast.all():
        return _ascending(theta)
    jk = np.empty((theta.size, _GL_ORDER))
    jk[~fast] = spherical_jn(_K, theta[~fast, None])
    if fast.any():
        jk[fast] = _ascending(theta[fast])
    return jk


def _ascending(x: np.ndarray) -> np.ndarray:
    """j_0(x) .. j_15(x) per x > 15 by the ascending recurrence (Abramowitz & Stegun 10.1.19).

    s_0 = sin(x)/x, s_1 = (s_0 - cos(x))/x, s_k = (2k - 1) s_{k-1} / x - s_{k-2}
    in scipy's operation order, so each value is the one ``spherical_jn``
    gives; scipy runs the recurrence from s_0 for every order on its own,
    one pass here gives all sixteen.
    """
    a = np.sin(x) / x
    b = (a - np.cos(x)) / x
    rows = [a, b]
    for k in range(2, _GL_ORDER):
        a, b = b, (2 * k - 1) * b / x - a
        rows.append(b)
    return np.array(rows).T


@functools.lru_cache(maxsize=64)
def _panel_dtype(width: int) -> np.dtype:
    """A panel of some integral in a batch of integrands with up to ``width`` components.

    value and err hold its contribution and error indicator per component
    (unused trailing components stay zero); frozen marks a panel too
    narrow to bisect.
    """
    return np.dtype(
        [
            ("a", float),
            ("b", float),
            ("value", float, (width,)),
            ("err", float, (width,)),
            ("owner", np.intp),
            ("filon", bool),
            ("frozen", bool),
        ]
    )


class QuadratureError(RuntimeError):
    """Tolerance could not be met within the panel budget.

    ``achieved`` holds the best available estimate and ``error_estimate``
    its indicator, so callers can decide whether to accept a degraded
    answer or fail; both are arrays of length m for an integrand of m
    components.
    """

    def __init__(self, message: str, achieved=None, error_estimate=None):
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
    """An integral's value and error bound, length-m arrays for m components."""

    value: float | np.ndarray
    error: float | np.ndarray
    panels: int


@dataclass(frozen=True)
class OscillatoryIntegrand:
    """Integrand split F = G + C cos(omega rho) + S sin(omega rho).

    ``amplitudes(rho)`` returns the triple (G, C, S) at the points rho,
    with None for a part that is identically zero: a batch never samples
    such a part and takes zeros for its Legendre coefficients, which are
    the bits a sampled zero gives.  ``pointwise(rho, omega)`` evaluates F
    directly, with one frequency per point, and must stay finite where
    the split amplitudes blow up (removable singularities at rho = 0); it
    runs the first ten periods of the range.  With ``pointwise`` None the
    amplitudes must be smooth down to the lower limit, and the whole range
    is Filon.  ``width_hint`` maps rho to a panel width on which the
    amplitudes are well approximated by low-degree polynomials.
    Integrands of one batch that share a callable are evaluated by one
    call over all their panels: the times of one integrand family share
    all three callables and differ only in omega.

    With ``components`` m > 1, F is vector-valued: each amplitude and
    ``pointwise`` give shape (m, N) for N points, or anything that
    broadcasts to it, and the result carries length-m value and error
    arrays from one shared partition.  The Filon moments 2 i^k
    j_k(omega h) of a panel of half-width h come from one pass of the
    ascending recurrence for j_0 .. j_15 when omega h > 15 and from
    ``scipy.special.spherical_jn`` below that, bit for bit what
    ``spherical_jn`` gives everywhere.
    """

    omega: float
    amplitudes: Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]]
    pointwise: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    width_hint: Callable[[np.ndarray], np.ndarray]
    components: int = 1

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("an integrand needs at least one component")


class _Grouped:
    """One callable per integral of a batch, labelled by distinct callable."""

    def __init__(self, fns):
        labels: dict = {}
        self.label = np.array([labels.setdefault(fn, len(labels)) for fn in fns], dtype=np.intp)
        self.fns = list(labels)
        self.shared = len(self.fns) < self.label.size

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

    def distinct(self, owner: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Panels [a, b] of the ``owner`` entries, one per distinct (callable, a, b).

        Returns the positions of the kept panels and, for every panel, the
        index of its kept twin.  Without a shared callable no two entries'
        panels coincide, so nothing is sorted.
        """
        if not self.shared:
            keep = np.arange(owner.size)
            return keep, keep
        labels = self.label[owner]
        order = np.lexsort((b, a, labels))
        labels, a, b = labels[order], a[order], b[order]
        first = np.concatenate(([True], (labels[1:] != labels[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
        twin = np.empty(owner.size, dtype=np.intp)
        twin[order] = np.cumsum(first) - 1
        return order[first], twin


def _analyse(vals: np.ndarray) -> np.ndarray:
    """Legendre coefficients of each row of node samples.

    einsum reduces row by row; a BLAS matmul rounds a row differently
    depending on how many rows share the call, which would tie a panel's
    value to the rest of the batch.
    """
    return np.einsum("...k,jk->...j", vals, _ANALYSIS)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u . v, with u (panel, 16) or (panel, m, 16) and v (panel, 16)."""
    return np.einsum("p...k,pk->p...", u, v)


def _per_row(values, x: np.ndarray, m: int) -> np.ndarray:
    """Values at the raveled (panel, node) points x of m-component panels: one row per (panel, component), panels first."""
    out = np.asarray(values, dtype=float)
    if m == 1:
        return out.reshape(x.shape)
    out = np.broadcast_to(out, (m, x.size)).reshape(m, *x.shape)
    return out.transpose(1, 0, 2).reshape(-1, x.shape[-1])


def _rows(width: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (panel, component) rows of panels with ``width`` components each.

    Returns each row's panel and component, and each panel's first row.
    """
    start = np.cumsum(width) - width
    if not width.size or start[-1] + width[-1] == width.size:  # one row per panel
        return start, np.zeros(width.size, dtype=np.intp), start
    panel = np.repeat(np.arange(width.size), width)
    return panel, np.arange(panel.size) - start[panel], start


def _rows_of(start: np.ndarray, sub: np.ndarray, m: int) -> np.ndarray:
    """The rows of the m-component panels at positions ``sub``, panels first."""
    return start[sub] if m == 1 else (start[sub][:, None] + np.arange(m)).ravel()


def _tail_coef(coef: np.ndarray) -> np.ndarray:
    """|c_14| + |c_15|, the decay of each row's top Legendre coefficients."""
    return np.abs(coef[..., -2]) + np.abs(coef[..., -1])


def _phase_cos_sin(omega: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of omega*m with the products reduced in extended precision.

    At omega*m ~ 2e9 a float64 product already carries ~1e-7 of phase
    error; the 64-bit mantissa of longdouble brings that down to ~2e-10.
    """
    z = omega.astype(np.longdouble) * m.astype(np.longdouble)
    z -= np.floor(z / _TWO_PI_LD) * _TWO_PI_LD
    zf = z.astype(float)
    return np.cos(zf), np.sin(zf)


def _evaluate(panels: np.ndarray, omega: np.ndarray, width: np.ndarray, pointwise: _Grouped, amplitudes: _Grouped) -> None:
    """Fill in the value and error indicator of every panel, in one pass.

    Each (panel, component) pair is one row of the arithmetic, so the
    components of a panel are computed as scalar panels would be.
    Pointwise panels integrate F at the Gauss nodes, one call per distinct
    pointwise callable with each node's omega.  Filon panels take the
    Legendre coefficients of the amplitudes against the moments
    int_-1^1 P_k(x) e^{i theta x} dx = 2 i^k j_k(theta): even k feed the
    cosine moment with sign (-1)^{k/2}, odd k the sine moment.  The
    moments and phases are taken once per panel for all its components.
    The amplitudes do not depend on omega, so the Filon panels that
    integrals sharing an amplitude callable have in common are sampled and
    analysed once and their coefficients go to every owner; a part that
    the callable gives as None keeps its rows of zeros.
    """
    m, h = 0.5 * (panels["a"] + panels["b"]), 0.5 * (panels["b"] - panels["a"])
    x = m[:, None] + h[:, None] * _NODES
    owner, filon = panels["owner"], panels["filon"]
    w = omega[owner]
    value, err = np.zeros(panels["value"].shape), np.zeros(panels["err"].shape)

    direct = np.flatnonzero(~filon)
    if direct.size:
        panel, comp, start = _rows(width[owner[direct]])
        vals = np.empty((panel.size, _GL_ORDER))
        for fn, sub in pointwise.split(owner[direct]):
            idx = direct[sub]
            size, nodes = int(width[owner[idx[0]]]), x[idx]
            vals[_rows_of(start, sub, size)] = _per_row(fn(nodes.ravel(), np.repeat(w[idx], _GL_ORDER)), nodes, size)
        row = direct[panel]
        value[row, comp] = h[row] * np.einsum("pk,k->p", vals, _WEIGHTS)
        err[row, comp] = 2.0 * h[row] * _tail_coef(_analyse(vals))

    osc = np.flatnonzero(filon)
    if osc.size:
        # panels of one width and frequency share their moments
        theta, inverse = np.unique(w[osc] * h[osc], return_inverse=True)
        jk = _spherical_j(theta)
        chat, shat = 2.0 * _COS_SIGN * jk, 2.0 * _SIN_SIGN * jk
        cos_m, sin_m = _phase_cos_sin(w[osc], m[osc])
        keep, twin = amplitudes.distinct(owner[osc], panels["a"][osc], panels["b"][osc])
        kept_rows, _, kept = _rows(width[owner[osc[keep]]])
        samples = np.empty((kept_rows.size, 3, _GL_ORDER))
        for fn, sub in amplitudes.split(owner[osc[keep]]):
            idx = osc[keep[sub]]
            size = int(width[owner[idx[0]]])
            rows, nodes = _rows_of(kept, sub, size), x[idx]
            for j, part in enumerate(fn(nodes.ravel())):
                samples[rows, j] = 0.0 if part is None else _per_row(part, nodes, size)
        coef = _analyse(samples)
        tails = _tail_coef(coef)
        tails = tails[:, 0] + tails[:, 1] + tails[:, 2]
        # the panels of m components take (panel, m, 16) blocks of their kept
        # twins' coefficients against their own (panel, 16) moments
        distinct = sorted(set(width.tolist()))
        for size in distinct:
            sel = slice(None) if len(distinct) == 1 else np.flatnonzero(width[owner[osc]] == size)
            row = osc[sel]
            take, c, s, half = kept[twin[sel]], cos_m[sel], sin_m[sel], h[row]
            if size > 1:  # blocks of m rows, one panel's values against each row
                take, c, s, half = take[:, None] + np.arange(size), c[:, None], s[:, None], half[:, None]
            cc, cs = coef[:, 1][take], coef[:, 2][take]
            mc, ms = chat[inverse[sel]], shat[inverse[sel]]
            cos_part = c * _dot(cc, mc) - s * _dot(cc, ms)
            sin_part = s * _dot(cs, mc) + c * _dot(cs, ms)
            value[row, :size] = (half * (2.0 * coef[:, 0, 0][take] + cos_part + sin_part)).reshape(-1, size)
            err[row, :size] = (2.0 * half * tails[take]).reshape(-1, size)
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


def _partition(lo, hi, cap, owner: np.ndarray, filon: np.ndarray, hints: _Grouped, budget: int, results: list, dtype: np.dtype) -> np.ndarray:
    """Unevaluated panels of the initial partitions; a march over budget fails its integral.

    An integral's marches come in ascending order, and the first of them
    over budget is the one its error names.
    """
    marches = _initial_edges(lo, hi, cap, [hints.fns[label] for label in hints.label[owner]], budget)
    for j, edges in enumerate(marches):
        if isinstance(edges, QuadratureError) and results[owner[j]] is None:
            results[owner[j]] = edges
    live = np.array([r is None for r in results], dtype=bool)
    kept = [j for j, edges in enumerate(marches) if live[owner[j]]]
    march = np.repeat(kept, [marches[j].size - 1 for j in kept]).astype(np.intp)
    panels = np.zeros(march.size, dtype)
    if kept:
        panels["a"] = np.concatenate([marches[j][:-1] for j in kept])
        panels["b"] = np.concatenate([marches[j][1:] for j in kept])
    panels["owner"], panels["filon"] = owner[march], filon[march]
    return panels


def _join(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Two panel arrays of one dtype, end to end.

    np.concatenate promotes a structured dtype field by field, in Python,
    on every call; a copy into a preallocated array skips that.
    """
    out = np.empty(first.size + second.size, first.dtype)
    out[: first.size], out[first.size :] = first, second
    return out


def _ranks(who: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group number and rank within its group of each of the sorted labels ``who``."""
    starts = np.flatnonzero(np.concatenate(([True], who[1:] != who[:-1])))
    group = np.repeat(np.arange(starts.size), np.diff(np.append(starts, who.size)))
    return group, np.arange(who.size) - starts[group]


def _bisect_worst(panels: np.ndarray, rows, excess: np.ndarray, room: np.ndarray, entry: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The panels each refining integral bisects this sweep, and their children.

    ``rows`` holds the panel, component and error indicator of every
    (panel, component) row; ``entry`` maps a component to its integral.
    Component c (excess[c] > 0) takes its unfrozen panels from the worst
    down until their indicators cover excess[c], at most room[i] of them
    for its integral i, and an integral bisects the union of its
    components' picks, again at most room[i].  Panels at width underflow
    are frozen instead of bisected.
    """
    owner = panels["owner"]
    panel, comp, err = rows
    cand = np.flatnonzero((excess[comp] > 0.0) & ~panels["frozen"][panel])
    if not cand.size:
        return cand, np.zeros(0, panels.dtype)
    cand = cand[np.lexsort((-err[cand], comp[cand]))]
    who = comp[cand]
    row, rank = _ranks(who)
    # running sums per component on rows of their own, so no integral's
    # rounding depends on another's panels
    sums = np.zeros((row[-1] + 1, rank.max() + 1))
    sums[row, rank] = err[cand]
    before = np.zeros_like(sums)
    np.cumsum(sums[:, :-1], axis=1, out=before[:, 1:])
    chosen = panel[cand[(before[row, rank] < excess[who]) & (rank < room[entry[who]])]]
    if panel.size > panels.size:  # a panel picked by several components is bisected once
        chosen = chosen[np.sort(np.unique(chosen, return_index=True)[1])]
        chosen = chosen[_ranks(owner[chosen])[1] < room[owner[chosen]]]

    a, b = panels["a"][chosen], panels["b"][chosen]
    narrow = b - a <= 1e-15 * np.maximum(1.0, np.abs(b))
    panels["frozen"][chosen[narrow]] = True
    split = chosen[~narrow]
    a, b = a[~narrow], b[~narrow]
    mid = 0.5 * (a + b)
    children = np.zeros(2 * split.size, panels.dtype)
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
    rho (of every component).  Once such an integral meets its tolerance
    on the blocks so far, it doubles its last block in one step, as often
    as it takes for the bound to reach a quarter of its tolerance (or
    infinity) or until a doubling does not lower it (a valid bound never
    rises; a flat one grows one block per sweep), and the next sweep
    evaluates all the new blocks; a march over budget fails the integral
    with the lowest such block.  Entry i is integral i's result, or the
    QuadratureError that ended it, whose ``achieved`` covers [lo,
    block_hi] of the blocks marched so far and whose ``error_estimate``
    adds the tail bound beyond block_hi and the roundoff n eps sum |panel
    value| of summing its n panels.

    An integrand of m components is one entry with one partition: its
    value and error are length-m arrays, and it is settled, or its block
    grows, only when every component meets the tolerance it would meet
    as a scalar integral.  An integrand without a pointwise callable has
    no pointwise zone: its Filon partition starts at its lower limit.
    """
    cfg = cfg or QuadConfig()
    n = len(integrands)
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (lo, hi))
    tails = list(tail_bound) if isinstance(tail_bound, Sequence) else [tail_bound] * n
    if len(tails) != n:
        raise ValueError(f"{len(tails)} tail bounds for {n} integrands")
    if not np.all(lo <= hi):
        raise ValueError("need lo <= hi")
    width = np.array([f.components for f in integrands], dtype=np.intp)
    first = np.cumsum(width) - width
    entry = np.repeat(np.arange(n), width)
    spans = [(int(j), int(j + m)) for j, m in zip(first, width)]

    def out(arr: np.ndarray, i: int):
        """Integral i's components of the per-component ``arr``: a float for a scalar integral."""
        j, end = spans[i]
        return float(arr[j]) if end == j + 1 else arr[j:end].copy()

    empty = np.zeros(entry.size)
    results: list = [QuadResult(out(empty, i), out(empty, i), 0) if a == b else None for i, (a, b) in enumerate(zip(lo, hi))]
    infinite = np.isinf(hi)
    if any(r is None and inf and tail is None for r, inf, tail in zip(results, infinite, tails)):
        raise ValueError("infinite range needs a tail_bound")
    if all(r is not None for r in results):
        return results

    omega = np.array([f.omega for f in integrands], dtype=float)
    hints = _Grouped([f.width_hint for f in integrands])
    pointwise = _Grouped([f.pointwise for f in integrands])
    amplitudes = _Grouped([f.amplitudes for f in integrands])
    dtype = _panel_dtype(int(width.max()))
    scalar = entry.size == n  # one row per panel
    tail_values: dict = {}

    def beyond(i: int) -> float:
        """tail_bound(block_hi) of integral i, taken once per (tail, block end)."""
        key = (tails[i], float(block_hi[i]))
        if key not in tail_values:
            tail_values[key] = tails[i](key[1])
        return tail_values[key]

    block_hi = np.where(infinite, np.maximum(2.0 * np.maximum(lo, 1.0), lo + 1.0), hi)
    osc = omega > 0.0
    has_zone = np.array([f.pointwise is not None for f in integrands], dtype=bool)
    filon = osc | ~has_zone  # the panels of a grown block
    quarter = np.full(n, math.inf)
    quarter[osc] = 0.5 * math.pi / omega[osc]
    zone1_end = block_hi.copy()
    zone1_end[osc] = np.minimum(block_hi[osc], lo[osc] + 20.0 * math.pi / omega[osc])
    zone1_end[~has_zone] = lo[~has_zone]

    zone, two = np.flatnonzero(has_zone), np.flatnonzero(zone1_end < block_hi)
    new = _partition(
        np.concatenate((lo[zone], zone1_end[two])),
        np.concatenate((zone1_end[zone], block_hi[two])),
        np.concatenate((quarter[zone], np.full(two.size, math.inf))),
        np.concatenate((zone, two)),
        np.arange(zone.size + two.size) >= zone.size,
        hints,
        cfg.max_panels,
        results,
        dtype,
    )
    panels = np.zeros(0, dtype)
    while True:
        _evaluate(new, omega, width, pointwise, amplitudes)
        panels = _join(panels, new)
        owner = panels["owner"]
        # one row per (panel, component), panels first, so each component
        # sums its panels in the order a scalar integral would
        if scalar:
            comp, row_value, row_err = owner, panels["value"][:, 0], panels["err"][:, 0]
        else:
            valid = np.arange(dtype["value"].shape[0]) < width[owner][:, None]
            comp = (first[owner][:, None] + np.arange(dtype["value"].shape[0]))[valid]
            row_value, row_err = panels["value"][valid], panels["err"][valid]
        count = np.bincount(owner, minlength=n)
        total = np.bincount(comp, row_value, entry.size)
        err = np.bincount(comp, row_err, entry.size)
        unfrozen = np.bincount(owner[~panels["frozen"]], minlength=n)
        tol = 0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        over = err > tol
        if scalar:
            failing, worst, tightest = over, err, tol
        else:
            failing = np.logical_or.reduceat(over, first)
            worst, tightest = np.maximum.reduceat(err, first), np.minimum.reduceat(tol, first)
        failing, worst, tightest = failing.tolist(), worst.tolist(), tightest.tolist()
        refine, grow = [], []
        for i in [i for i, r in enumerate(results) if r is None]:
            if failing[i]:
                if count[i] >= cfg.max_panels:
                    message = f"panel budget {cfg.max_panels} exhausted with error {worst[i]:.3e}"
                elif not unfrozen[i]:
                    message = "all panels at width underflow before reaching tolerance"
                else:
                    refine.append(i)
                    continue
                outside = beyond(i) if infinite[i] else 0.0
                # summing n panels one by one rounds off by at most n eps sum |value|
                roundoff = int(count[i]) * sys.float_info.epsilon * out(np.bincount(comp, np.abs(row_value), entry.size), i)
                results[i] = QuadratureError(message, achieved=out(total, i), error_estimate=out(err, i) + outside + roundoff)
            elif not infinite[i]:
                results[i] = QuadResult(out(total, i), out(err, i), int(count[i]))
            else:
                tail = beyond(i)
                if math.isinf(tail):
                    results[i] = QuadratureError("tail bound is infinite; integral diverges", achieved=out(total, i))
                elif tail <= tightest[i]:
                    results[i] = QuadResult(out(total, i), out(err, i) + tail, int(count[i]))
                else:
                    grow.append(i)
        if all(r is not None for r in results):
            return results

        split, children = np.zeros(0, dtype=np.intp), np.zeros(0, dtype)
        if refine:
            refining = np.zeros(n, dtype=bool)
            refining[refine] = True
            excess = np.where(over & refining[entry], err - tol, 0.0)
            panel = np.repeat(np.arange(panels.size), width[owner])
            split, children = _bisect_worst(panels, (panel, comp, row_err), excess, cfg.max_panels - count, entry)
        blocks = np.zeros(0, dtype)
        if grow:  # a block doubles, in one step, until its tail bound meets the tolerance or stops falling
            starts, grown = [], []
            for i in grow:
                while True:
                    starts.append(block_hi[i])
                    grown.append(i)
                    before = beyond(i)
                    block_hi[i] *= 2.0
                    tail = beyond(i)
                    if tail <= tightest[i] or not tail < before or math.isinf(block_hi[i]):
                        break
            ends, grown = np.array(starts), np.array(grown, dtype=np.intp)
            blocks = _partition(ends, 2.0 * ends, np.full(ends.size, math.inf), grown, filon[grown], hints, cfg.max_panels, results, dtype)
        keep = np.array([r is None for r in results], dtype=bool)[owner]
        keep[split] = False
        panels = panels[keep]
        new = _join(children, blocks)


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
    for the absolute integral beyond rho; once the blocks so far meet the
    tolerance, the last block doubles in one step until the bound is at
    most a quarter of the tolerance, and one more sweep evaluates them.
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
    integrand = OscillatoryIntegrand(
        omega=0.0, amplitudes=lambda rho: (f(rho), None, None), pointwise=lambda rho, omega: f(rho), width_hint=width_hint
    )
    pieces = np.broadcast(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)).size
    results = _settled(integrate_batch([integrand] * pieces, lo, hi, cfg, tail_bound))
    return QuadResult(sum(r.value for r in results), sum(r.error for r in results), sum(r.panels for r in results))
