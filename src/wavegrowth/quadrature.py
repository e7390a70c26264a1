"""Adaptive Gauss-Legendre quadrature with a Filon path for oscillatory tails.

Frequency-side integrands here all have the shape

    F(rho) = G(rho) + C(rho) cos(omega rho) + S(rho) sin(omega rho) + K(rho)

with smooth amplitudes G, C, S, omega growing linearly with the
evaluation time, and an optional part K whose integral is known in closed
form.  Resolving every oscillation by its nodes would cost O(omega) panels.
One callable gives all three amplitudes, so a factor they share is
computed once per point, and a part that is identically zero is None: it
is never computed and its samples and Legendre coefficients stay zero.
Every panel is a Filon rule: the oscillatory parts are integrated exactly
against a degree-15 Legendre interpolant of the amplitude on the panel,
which keeps the panel count tied to the amplitude's variation only.  At
omega = 0 the rule is Gauss-Legendre, and smooth integrands
(``integrate_smooth``) are that case.  K carries what the amplitudes cannot:
a norm integrand's split amplitudes blow up at rho = 0 where F stays
finite, and ``spectral`` moves that singular piece into K, so every range
is Filon from its lower limit.  With ``components`` m > 1 an integrand's
callables return (m, N) rows for N points: m integrals on one partition,
each (panel, component) pair a row of the per-panel arithmetic.

Per-panel error indicators come from the decay of the top Legendre
coefficients (of G + C alone at omega = 0, where the rule integrates their
sum).  A batch of integrals, each over its own range, is walked by
family: the entries that share every callable, components and range (the
times of one norm curve; the field, the flux or the norm entries of a
decay report) differ only in omega; a single entry is a family of one.  A
family makes one initial march and one tail march per block end its
entries grow from, and its panels get their nodes, one per distinct
(amplitude callable, panel), when a march or a bisection makes them: an
amplitude does not depend on omega, so each node is sampled and analysed
once.  Each sweep evaluates every new panel at once, with one set of
Bessel moments (the ascending recurrence for omega h > 15,
``spherical_jn`` below) and one extended-precision phase reduction.

Between sweeps, each integral whose summed indicator is above a quarter of
its requested tolerance, relative to the whole integral, bisects the
fewest of its worst panels whose indicators cover the excess.  Every
integral keeps its own partition and makes its own decisions, and all
per-panel arithmetic runs row by row, so its result does not depend on
the rest of the batch.  A vector integral is settled, or its block grows,
only when every component meets the tolerance it would meet as a scalar
integral, and it bisects the union of its failing components' picks.  An
infinite range starts as the block [lo, b] and, before its first sweep,
looks ahead along one tail march from b to the first edge where the tail
bound meets the tolerance of its closed-form part alone, a quarter of
max(abs_tol, rel_tol |K|) with K the closed-form integral over [lo, inf)
(the tightest over components; abs_tol where there is none); its first
sweep takes [lo, that edge].  The look-ahead fails nothing: a range whose
edge lies beyond the panel budget or the floats keeps [lo, b], as does
one whose bound at b is infinite or nan.  Once an integral meets its
tolerance and the bound at its block end does not, it grows in one step
along the tail march from that end, kept up to the first edge where the
bound meets the tolerance, so the times of a family keep prefixes of one
march.  A total at least as large as |K| needs no such step; a smaller
one grows from the look-ahead's edge, over the edges (and nodes) the
march had beyond it.  Marches are remembered per hint while the hint
lives.  An integral that exhausts the panel budget ends with a
:class:`QuadratureError` carrying its best estimate; the others carry on.
"""

from __future__ import annotations

import functools
import itertools
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

    Rows with 0 < theta <= 15, where scipy takes the orders k >= theta
    from AMOS, go to ``spherical_jn``; the others to ``_ascending``, or at
    theta = 0 (every panel of a smooth integral) to (1, 0, ..., 0).
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    fast, zero = theta > _RECURRENCE_FROM, theta == 0.0
    if fast.all():
        return _ascending(theta)
    jk = np.zeros((theta.size, _GL_ORDER))
    jk[zero, 0] = 1.0
    slow = ~(fast | zero)
    if slow.any():
        jk[slow] = spherical_jn(_K, theta[slow, None])
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
    (unused trailing components stay zero); node is its distinct panel
    (``_Amplitudes``); frozen marks a panel too narrow to bisect.
    """
    return np.dtype(
        [("a", float), ("b", float), ("value", float, (width,)), ("err", float, (width,)), ("owner", np.intp), ("node", np.intp), ("frozen", bool)]
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
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be positive and finite, got {self.abs_tol!r} and {self.rel_tol!r}")
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
    """Integrand F = G + C cos(omega rho) + S sin(omega rho) + K.

    ``amplitudes(rho)`` returns the triple (G, C, S) at the points rho,
    with None for a part that is identically zero: a batch never samples
    such a part and takes zeros for its Legendre coefficients, which are
    the bits a sampled zero gives.  The amplitudes must be smooth down to
    the lower limit: every range is Filon.  ``width_hint`` maps rho to a
    panel width on which the amplitudes are well approximated by
    low-degree polynomials.  ``closed_form(x, omega)``, with one frequency
    per point, returns a primitive of K at x (x may be infinite), its
    integral over [a, x] for some fixed a, and a bound on its roundoff; a
    batch adds K's integral over [lo, hi], the difference of the two ends,
    to the total before the tolerance test and both roundoffs to the
    error.  With ``closed_form`` None, K = 0.  The integrands of a batch
    that share every callable and their range, such as the times of one
    norm curve, are one family: they differ only in omega.

    With ``components`` m > 1, F is vector-valued: each amplitude and
    ``closed_form`` give shape (m, N) for N points, or anything that
    broadcasts to it, and the result carries length-m value and error
    arrays from one shared partition.
    """

    omega: float
    amplitudes: Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]]
    width_hint: Callable[[np.ndarray], np.ndarray]
    closed_form: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    components: int = 1

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("an integrand needs at least one component")


class _Amplitudes:
    """The amplitude callables of a batch's entries, labelled by distinct callable, and the batch's nodes.

    A node is a distinct panel, one per (callable label, a, b), shared by
    every integral that keeps the panel.  A march or a bisection gives its
    panels their nodes, and the next sweep samples and analyses each new
    node once: ``first`` holds each node's first coefficient row, ``tails``
    each row's |c_14| + |c_15| over the parts (column 0) and of G + C
    (column 1, the rule at omega = 0).  Without a shared callable no node is
    met again, and only the current sweep's rows are kept.
    """

    def __init__(self, fns, sizes):
        labels: dict = {}
        self.label = np.array([labels.setdefault(fn, len(labels)) for fn in fns], dtype=np.intp)
        self.fns = list(labels)
        self.size = np.zeros(len(self.fns), dtype=np.intp)
        self.size[self.label] = sizes
        self.shared = len(self.fns) < self.label.size
        self.index: dict = {}  # (callable label, a, b) -> node
        self.made: list = []  # (callable labels, a, b) of the nodes made since the last sweep, in order
        self.first = np.zeros(0, dtype=np.intp)
        self.coef, self.tails = np.zeros((0, 3, _GL_ORDER)), np.zeros((0, 2))

    def split(self, labels: np.ndarray):
        """(callable, positions) for each distinct callable label in ``labels``."""
        if len(self.fns) == 1:
            yield self.fns[0], np.arange(labels.size)
            return
        order = np.argsort(labels, kind="stable")
        cuts = np.flatnonzero(np.diff(labels[order])) + 1
        for part in np.split(order, cuts):
            yield self.fns[labels[part[0]]], part

    def nodes(self, fns: np.ndarray, a: np.ndarray, b: np.ndarray) -> list:
        """The node of each panel [a_k, b_k] of callable label fns[k], adding the new ones."""
        index, new = self.index, len(self.index)
        ids = [index.setdefault(key, len(index)) for key in zip(fns.tolist(), a.tolist(), b.tolist())]
        if len(index) - new < len(ids):  # some panels have their node already: each new node's first panel
            fresh = []
            for j, node in enumerate(ids):
                if node == new:
                    fresh.append(j)
                    new += 1
            fns, a, b = fns[fresh], a[fresh], b[fresh]
        if fns.size:
            self.made.append((fns, a, b))
        return ids

    def analyse(self) -> None:
        """Sample and analyse the nodes made since the last sweep, once each, with one call per callable."""
        if not self.made:
            return
        fn, a, b = (np.concatenate(parts) for parts in zip(*self.made))
        self.made = []
        sizes = self.size[fn]
        x = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _NODES
        start = np.cumsum(sizes) - sizes  # each node's first row, its m components following
        samples = np.empty((int(sizes.sum()), 3, _GL_ORDER))
        for call, sub in self.split(fn):
            size = int(sizes[sub[0]])
            rows, points = start[sub] if size == 1 else (start[sub][:, None] + np.arange(size)).ravel(), x[sub]
            for j, part in enumerate(call(points.ravel())):
                samples[rows, j] = 0.0 if part is None else _per_row(part, points, size)
        coef = _analyse(samples)
        tails = np.abs(coef[..., -2]) + np.abs(coef[..., -1])  # the decay of the top coefficients
        top = coef[:, 0, -2:] + coef[:, 1, -2:]  # at omega = 0 the rule integrates G + C: parts that cancel leave no indicator
        tails = np.column_stack((tails[:, 0] + tails[:, 1] + tails[:, 2], np.abs(top[:, 0]) + np.abs(top[:, 1])))
        kept = self.coef.shape[0] if self.shared else 0
        self.first = np.concatenate((self.first, kept + start))
        self.coef = np.concatenate((self.coef[:kept], coef))
        self.tails = np.concatenate((self.tails[:kept], tails))


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


def _broadcast(values, shape: tuple) -> np.ndarray:
    """``values`` as floats broadcast to ``shape``, copied: cheaper than ``np.broadcast_to``'s checks."""
    out = np.empty(shape)
    out[...] = values
    return out


def _per_row(values, x: np.ndarray, m: int) -> np.ndarray:
    """Values at the raveled (panel, node) points x of m-component panels: one row per (panel, component), panels first."""
    out = np.asarray(values, dtype=float)
    if m == 1:
        return out.reshape(x.shape)
    out = _broadcast(out, (m, x.size)).reshape(m, *x.shape)
    return out.transpose(1, 0, 2).reshape(-1, x.shape[-1])


def _phase_cos_sin(omega: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of omega*m with the products reduced in extended precision.

    At omega*m ~ 2e9 a float64 product already carries ~1e-7 of phase
    error; the 64-bit mantissa of longdouble brings that down to ~2e-10.
    """
    z = omega.astype(np.longdouble) * m.astype(np.longdouble)
    z -= np.floor(z / _TWO_PI_LD) * _TWO_PI_LD
    zf = z.astype(float)
    return np.cos(zf), np.sin(zf)


def _evaluate(panels: np.ndarray, omega: np.ndarray, width: np.ndarray, amplitudes: _Amplitudes) -> None:
    """Fill in the value and error indicator of every panel, in one pass.

    Each (panel, component) pair is one row of the arithmetic, as a scalar
    panel would be.  A panel takes its node's Legendre coefficients against
    the moments int_-1^1 P_k(x) e^{i theta x} dx = 2 i^k j_k(theta): even k
    feed the cosine moment with sign (-1)^{k/2}, odd k the sine moment.  A
    row at omega = 0 integrates G + C, and takes its indicator from their
    sum: parts that cancel there leave none.
    """
    m, h = 0.5 * (panels["a"] + panels["b"]), 0.5 * (panels["b"] - panels["a"])
    owner = panels["owner"]
    w = omega[owner]
    value, err = np.zeros(panels["value"].shape), np.zeros(panels["err"].shape)
    if panels.size:
        # panels of one width and frequency share their moments (np.unique, from one sort)
        product = w * h
        ordered = np.sort(product)
        theta = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        inverse = np.searchsorted(theta, product)
        jk = _spherical_j(theta)
        chat, shat = 2.0 * _COS_SIGN * jk, 2.0 * _SIN_SIGN * jk
        cos_m, sin_m = _phase_cos_sin(w, m)
        amplitudes.analyse()
        coef, tails, kept = amplitudes.coef, amplitudes.tails, amplitudes.first[panels["node"]]
        # the panels of m components take (panel, m, 16) blocks of their
        # nodes' coefficients against their own (panel, 16) moments
        distinct = sorted(set(width.tolist()))
        for size in distinct:
            row = slice(None) if len(distinct) == 1 else np.flatnonzero(width[owner] == size)
            take, c, s, half = kept[row], cos_m[row], sin_m[row], h[row]
            still = (w[row] == 0.0).astype(np.intp)  # the column of tails a row's indicator takes
            if size > 1:  # blocks of m rows, one panel's values against each row
                take, c, s, half, still = take[:, None] + np.arange(size), c[:, None], s[:, None], half[:, None], still[:, None]
            cc, cs = coef[:, 1][take], coef[:, 2][take]
            mc, ms = chat[inverse[row]], shat[inverse[row]]
            cos_part = c * _dot(cc, mc) - s * _dot(cc, ms)
            sin_part = s * _dot(cs, mc) + c * _dot(cs, ms)
            value[row, :size] = (half * (2.0 * coef[:, 0, 0][take] + cos_part + sin_part)).reshape(-1, size)
            err[row, :size] = (2.0 * half * tails[take, still]).reshape(-1, size)
    panels["value"], panels["err"] = value, err


# Marches of each width hint: {(lo, hi): edges} finished, {(x, inf): edges
# so far} of a tail.  An entry dies with its hint, so the calls that share a
# hint share its marches and nothing outlives the objects that own the hint.
_MARCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _remembered(hint) -> dict:
    """The marches of ``hint``; a hint without weak references keeps none."""
    try:
        return _MARCHES.setdefault(hint, {})
    except TypeError:
        return {}


def _march(hint, lo: float, hi: float, budget: int) -> np.ndarray | None:
    """One march on Python floats: its edges, or None when it needs more than ``budget``.

    Each step takes the hinted width, floored at 1e-9 (hi - lo); the hint
    sees a 0-d array.
    """
    floor = max((hi - lo) * 1e-9, 1e-300)
    x, edges = lo, [lo]
    while x < hi:
        x = min(x + max(float(hint(np.asarray(x))), floor), hi)
        edges.append(x)
        if len(edges) > budget:
            return None
    return np.array(edges)


def _initial_edges(lo, hi, hints: Sequence[Callable], budget: int) -> list:
    """March each [lo_j, hi_j] taking the hinted width, floored at 1e-9 (hi_j - lo_j).

    Each distinct (hint, lo, hi) is marched once, and finished marches are
    remembered per hint for as long as the hint lives.  Returns the edges
    of each march, or the QuadratureError of a march over ``budget`` edges.
    """
    lo, hi = (np.asarray(v, dtype=float).reshape(-1).tolist() for v in (lo, hi))
    keys = list(zip(hints, lo, hi))
    edges = {key: _remembered(key[0]).get(key[1:]) for key in keys}
    for key in [key for key, found in edges.items() if found is None]:
        edges[key] = march = _march(*key, budget)
        if march is not None:
            march.flags.writeable = False
            _remembered(key[0])[key[1:]] = march
    return [
        edges[key]
        if edges[key] is not None and edges[key].size <= budget
        else QuadratureError(f"panel budget {budget} exceeded by the initial partition of [{key[1]:g}, {key[2]:g}]")
        for key in keys
    ]


def _tail_march(hint, x: float, bound: Callable[[float], float], tol: float, budget: int):
    """The march from x toward infinity up to its first edge where ``bound`` is at most ``tol``.

    Each step takes the hinted width, floored at 1e-9 x, and is no wider
    than the point it starts from, so an infinite hint gives x, 2x, 4x, ...
    The edges are remembered per hint, and a later march from x goes on
    where the longest one stopped.  Returns the edges marched, the bound at
    each but x, and None, or the QuadratureError that stopped a march in
    need of more than ``budget`` edges or of an edge beyond the floats.
    """
    edges, values = _remembered(hint).setdefault((x, math.inf), [x]), []
    floor = 1e-9 * x
    while not (values and values[-1] <= tol):  # a nan bound marches on
        k = len(values) + 1
        if k >= budget:
            return np.array(edges[:k]), values, QuadratureError(f"panel budget {budget} exceeded by the tail march over [{x:g}, {edges[k - 1]:g}]")
        if k == len(edges):
            step = edges[-1] + min(max(float(hint(np.asarray(edges[-1]))), floor), edges[-1])
            if not math.isfinite(step):
                return np.array(edges), values, QuadratureError(f"the tail march over [{x:g}, {edges[-1]:g}] overflows before the tail bound meets the tolerance")
            edges.append(step)
        values.append(bound(edges[k]))
    return np.array(edges[: len(values) + 1]), values, None


@functools.lru_cache(maxsize=64)
def _record(dtype: np.dtype) -> np.dtype:
    """A panel as one opaque record: numpy copies a structured dtype field
    by field, in Python, on every concatenation or mask; records copy whole."""
    return np.dtype((np.void, dtype.itemsize))


def _join(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Two panel arrays of one dtype, end to end."""
    record = _record(first.dtype)
    return np.concatenate((first.view(record), second.view(record))).view(first.dtype)


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
    return split, children


class _Families:
    """The families of a batch: entries that share every callable, components and range, and differ only in omega.

    ``of[i]`` is entry i's family, ``members[k]`` family k's entries and
    ``bounds[k]`` its tail bound, each value taken once per (tail, x).
    """

    def __init__(self, integrands, tails, lo: list, hi: list):
        keys: dict = {}
        self.of = [
            keys.setdefault((f.amplitudes, f.width_hint, tail, f.closed_form, f.components, a, b), len(keys))
            for f, tail, a, b in zip(integrands, tails, lo, hi)
        ]
        self.members: list = [[] for _ in keys]
        for i, k in enumerate(self.of):
            self.members[k].append(i)
        self.heads = [group[0] for group in self.members]
        self.hints = [integrands[i].width_hint for i in self.heads]
        cached = {tail: functools.lru_cache(maxsize=None)(tail) for tail in {tails[i] for i in self.heads} - {None}}
        self.bounds = [cached.get(tails[i]) for i in self.heads]

    def start(self, lo: np.ndarray, block_hi: list, results: list, budget: int) -> list:
        """Each open family's first block as an ``_owned`` piece; a march over budget fails its family."""
        walked = [k for k, i in enumerate(self.heads) if results[i] is None]
        heads = [self.heads[k] for k in walked]
        pieces = []
        for k, edges in zip(walked, _initial_edges(lo[heads], [block_hi[i] for i in heads], [self.hints[k] for k in walked], budget)):
            group = self.members[k]
            if isinstance(edges, QuadratureError):
                for i in group:
                    results[i] = edges
            else:
                pieces.append((edges, group, [edges.size - 1] * len(group)))
        return pieces

    def grow(self, grow: list, block_hi: list, tightest: list, results: list, budget: int) -> list:
        """The new panels of the ``grow`` entries, as ``_owned`` pieces.

        The entries of a family that grow from one end x share one tail
        march from x (``_tail_march``), taken up to the first edge where
        the bound meets the smallest of their tolerances.  Each keeps the
        march up to the first edge where the bound meets its own, which
        becomes its block_hi; an entry whose edge the march did not reach
        fails with the march's error.
        """
        marches: dict = {}
        for i in grow:
            marches.setdefault((self.of[i], block_hi[i]), []).append(i)
        pieces = []
        for (k, x), growing in marches.items():
            edges, values, error = _tail_march(self.hints[k], x, self.bounds[k], min(tightest[i] for i in growing), budget)
            cuts = [next((j for j, v in enumerate(values, 1) if v <= tightest[i]), 0) for i in growing]
            for i, cut in zip(growing, cuts):
                if cut:
                    block_hi[i] = float(edges[cut])
                else:
                    results[i] = error
            pieces.append((edges, growing, cuts))  # an entry that fails keeps no panel
        return pieces


def _owned(pieces: list, amplitudes: _Amplitudes, dtype: np.dtype) -> np.ndarray:
    """Unevaluated panels of (edges, owners, kept) pieces: the first kept[j] panels of a march for owners[j], one family's entries."""
    a, b, node, shift, owners, kept, laid = [], [], [], [], [], [], 0
    for edges, who, keep in pieces:
        top = max(keep)  # an owner's panels are the march's first c, laid after every panel before them
        before = list(itertools.accumulate(keep, initial=laid))
        shift += [len(node) - x for x in before[:-1]]
        laid = before[-1]
        a.append(edges[:top])
        b.append(edges[1 : top + 1])
        node += amplitudes.nodes(np.full(top, amplitudes.label[who[0]]), a[-1], b[-1])
        owners += who
        kept += keep
    panels = np.zeros(laid, dtype)
    if pieces:
        at = np.arange(laid) + np.repeat(shift, kept)
        panels["a"], panels["b"], panels["node"] = np.concatenate(a)[at], np.concatenate(b)[at], np.array(node)[at]
        panels["owner"] = np.repeat(owners, kept)
    return panels


def integrate_batch(
    integrands: Sequence[OscillatoryIntegrand],
    lo: float | Sequence[float],
    hi: float | Sequence[float],
    cfg: QuadConfig | None = None,
    tail_bound: Callable[[float], float] | Sequence[Callable[[float], float] | None] | None = None,
) -> list[QuadResult | QuadratureError]:
    """Integrate each integrand over its [lo, hi], hi possibly infinite, walking the batch by family.

    ``lo``, ``hi`` and ``tail_bound`` are each one value for the whole
    batch or one per integrand.  An infinite upper limit requires
    ``tail_bound(rho)``, an upper bound for the absolute integral beyond
    rho (of every component) of the amplitudes' part alone: K is
    integrated over all of [lo, hi].  The entries that share every
    callable, ``components``, tail bound and range are one family
    (``_Families``), with one initial march and one tail march per block
    end.  Before the first sweep an infinite range looks ahead along the
    tail march from its first block end to the first edge where the bound
    meets a quarter of max(abs_tol, rel_tol |K|), K its closed-form
    integral over [lo, inf), and keeps its first block where the march
    cannot get there within the budget.  Entry i is integral i's result,
    whose error adds the tail bound beyond block_hi, the last edge it
    keeps, and K's roundoff; or the QuadratureError that ended it, whose
    ``achieved`` covers [lo, block_hi] (K over [lo, hi]) and whose ``error_estimate``
    adds the tail bound beyond block_hi and the roundoff n eps sum |panel
    value| of summing its n panels.  An integrand of m components is one
    entry with one partition, and its value and error are length-m arrays.
    """
    cfg = cfg or QuadConfig()
    n = len(integrands)
    lo, hi = (_broadcast(v, (n,)) for v in (lo, hi))
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
    infinite = np.isinf(hi).tolist()
    if any(r is None and inf and tail is None for r, inf, tail in zip(results, infinite, tails)):
        raise ValueError("infinite range needs a tail_bound")
    if all(r is not None for r in results):
        return results

    omega = np.array([f.omega for f in integrands], dtype=float)
    families = _Families(integrands, tails, lo.tolist(), hi.tolist())
    closed, closed_err = _closed_parts(families, [f.closed_form for f in integrands], lo, hi, omega, width, first, entry.size)
    dtype = _panel_dtype(int(width.max()))
    amplitudes = _Amplitudes([f.amplitudes for f in integrands], width)

    block_hi = np.where(np.isinf(hi), np.maximum(2.0 * np.maximum(lo, 1.0), lo + 1.0), hi).tolist()
    pieces = families.start(lo, block_hi, results, cfg.max_panels)
    # the look-ahead to the tolerance of the closed-form part: a march that
    # cannot get there leaves its error in a list that is dropped, and the
    # entry keeps [lo, b]
    reach = np.minimum.reduceat(0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(closed)), first).tolist()
    ahead = [i for i, r in enumerate(results) if r is None and infinite[i] and reach[i] < families.bounds[families.of[i]](block_hi[i]) < math.inf]
    pieces += families.grow(ahead, block_hi, reach, [None] * n, cfg.max_panels)
    new = _owned(pieces, amplitudes, dtype)
    panels = np.zeros(0, dtype)
    while True:
        _evaluate(new, omega, width, amplitudes)
        panels = _join(panels, new)
        owner = panels["owner"]
        # one row per (panel, component), panels first, so each component
        # sums its panels in the order a scalar integral would
        valid = np.arange(dtype["value"].shape[0]) < width[owner][:, None]
        comp = (first[owner][:, None] + np.arange(dtype["value"].shape[0]))[valid]
        row_value, row_err = panels["value"][valid], panels["err"][valid]
        count = np.bincount(owner, minlength=n)
        total = np.bincount(comp, row_value, entry.size) + closed
        err = np.bincount(comp, row_err, entry.size)
        reported = err + closed_err
        unfrozen = np.bincount(owner[~panels["frozen"]], minlength=n)
        tol = 0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        over = err > tol
        failing = np.logical_or.reduceat(over, first).tolist()
        worst, tightest = np.maximum.reduceat(err, first).tolist(), np.minimum.reduceat(tol, first).tolist()
        counts, unfrozen = count.tolist(), unfrozen.tolist()
        refine, grow = [], []
        for i in [i for i, r in enumerate(results) if r is None]:
            if failing[i]:
                if counts[i] >= cfg.max_panels:
                    message = f"panel budget {cfg.max_panels} exhausted with error {worst[i]:.3e}"
                elif not unfrozen[i]:
                    message = "all panels at width underflow before reaching tolerance"
                else:
                    refine.append(i)
                    continue
                outside = families.bounds[families.of[i]](block_hi[i]) if infinite[i] else 0.0
                # summing n panels one by one rounds off by at most n eps sum |value|
                roundoff = counts[i] * sys.float_info.epsilon * out(np.bincount(comp, np.abs(row_value), entry.size), i)
                results[i] = QuadratureError(message, achieved=out(total, i), error_estimate=out(reported, i) + outside + roundoff)
            elif not infinite[i]:
                results[i] = QuadResult(out(total, i), out(reported, i), counts[i])
            else:
                tail = families.bounds[families.of[i]](block_hi[i])
                if math.isinf(tail):
                    results[i] = QuadratureError("tail bound is infinite; integral diverges", achieved=out(total, i))
                elif tail <= tightest[i]:
                    results[i] = QuadResult(out(total, i), out(reported, i) + tail, counts[i])
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
            children["node"] = amplitudes.nodes(amplitudes.label[children["owner"]], children["a"], children["b"])
        pieces = families.grow(grow, block_hi, tightest, results, cfg.max_panels) if grow else []
        keep = np.array([r is None for r in results], dtype=bool)[owner]
        keep[split] = False
        panels = panels.view(_record(dtype))[keep].view(dtype)
        new = _join(children, _owned(pieces, amplitudes, dtype))


def _closed_parts(families: _Families, closed_forms: list, lo, hi, omega, width, first, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each component's closed-form integral over [lo, hi] and its roundoff, zeros where there is none.

    One call per family with a ``closed_form``, over both ends of all its
    integrals: a closed form's value at a point ignores the other points.
    """
    value, error = np.zeros(size), np.zeros(size)
    for head, group in zip(families.heads, families.members):
        fn = closed_forms[head]
        if fn is None:
            continue
        m, k, idx = int(width[head]), len(group), np.array(group)
        v, e = (_broadcast(part, (m, 2 * k)) for part in fn(np.repeat([lo[head], hi[head]], k), np.tile(omega[idx], 2)))
        rows = (first[idx][:, None] + np.arange(m)).T
        value[rows], error[rows] = v[:, k:] - v[:, :k], e[:, k:] + e[:, :k]
    return value, error


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
    """Integrate F over [lo, hi], hi possibly infinite: a batch of one (``integrate_batch``).

    An infinite upper limit requires ``tail_bound(rho)``, an upper bound
    for the absolute integral beyond rho.
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
    """Adaptive panel integration of a non-oscillatory integrand: the omega = 0 Filon rule, Gauss-Legendre.

    ``lo`` and ``hi`` are one range, or one pair per smooth piece of f:
    a kink of f becomes the edge between two pieces.  The pieces are one
    batch, each meeting the tolerance on its own, and the result sums
    their values, errors and panel counts.
    """
    if width_hint is None:
        width_hint = lambda rho: np.full(np.shape(rho), math.inf)
    integrand = OscillatoryIntegrand(omega=0.0, amplitudes=lambda rho: (f(rho), None, None), width_hint=width_hint)
    pieces = np.broadcast(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)).size
    results = _settled(integrate_batch([integrand] * pieces, lo, hi, cfg, tail_bound))
    return QuadResult(sum(r.value for r in results), sum(r.error for r in results), sum(r.panels for r in results))
