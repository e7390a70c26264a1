"""Adaptive Gauss-Legendre quadrature with a Filon path for oscillatory tails.

Frequency-side integrands here all have the shape

    F(rho) = G(rho) + C(rho) cos(omega rho) + S(rho) sin(omega rho) + K(rho)

with smooth amplitudes G, C, S, omega growing linearly with the
evaluation time, and an optional part K whose integral is known in closed
form.  Resolving every oscillation by its nodes would cost O(omega) panels.
One callable gives all three amplitudes, so a factor they share is
computed once per point, and a part that is identically zero is None: it
is never computed and its samples and Legendre coefficients stay zero.
An integrand without amplitudes (None) is K alone: its result is K's
integral, with no panel, march or tail-bound call.
Every panel is a Filon rule: the oscillatory parts are integrated exactly
against a degree-15 Legendre interpolant of the amplitude on the panel,
which keeps the panel count tied to the amplitude's variation only.  At
omega = 0 the rule is Gauss-Legendre: a smooth integrand is an entry of
omega 0 with G alone.  K carries what the amplitudes cannot: a norm
integrand's split amplitudes blow up at rho = 0 where F stays finite, and
``spectral`` moves that singular piece into K, so every range is Filon
from its lower limit.  With ``components`` m > 1 an integrand's
callables return (m, N) rows for N points: m integrals on one partition.

A batch of integrals, each over its own range, builds its state once:
where each entry's components sit and its families (``_Batch``: entries
that share every callable, components and range, such as the times of one
norm curve, differ only in omega, and share one initial march and one tail
march per block end), and its nodes (``_Amplitudes``: the panels made
since the last sweep, each sampled and analysed once in the next: a
family's march panels once for all its times, a bisection child once for
the entry that made it).  Kept panels are parallel arrays (a, b, owner,
frozen), and a sweep's new panels carry their node; a panel of an
m-component entry is m rows (value, error indicator, component), panels
first, so each component sums its rows in the order a scalar integral
would.  Each sweep evaluates every new panel at once, with one set of
Bessel moments (at |omega h|, reflected for a negative one: the ascending
recurrence above 15, scipy's ``spherical_jn`` ufunc below, and j_0 = 1
alone at theta = 0 and at the subnormal theta where scipy's j_k are nan)
and one extended-precision phase reduction.  Error
indicators come from the decay of the top Legendre coefficients (of G + C
alone at omega = 0, where the rule integrates their sum).

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
bound, which is non-increasing, meets the tolerance of its closed-form
part alone (found by doubling, then bisecting, the edge index against the
memoised bound: O(log n) bound calls for n edges), a quarter of
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
lives.  An integral whose sum or indicator is nan or inf ends with a
:class:`QuadratureError` saying so, and one that exhausts the panel budget
with one carrying its best estimate; the others carry on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special._ufuncs import _spherical_jn

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "OscillatoryIntegrand",
    "integrate_batch",
    "integrate_oscillatory",
]

_GL_ORDER = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

# Row k maps samples at the nodes to the k-th Legendre coefficient of the
# degree-15 interpolant: c_k = (2k+1)/2 * sum_i w_i P_k(x_i) f(x_i).
_VANDER = np.polynomial.legendre.legvander(_NODES, _GL_ORDER - 1)
_ANALYSIS = ((2.0 * np.arange(_GL_ORDER) + 1.0) / 2.0)[:, None] * (_WEIGHTS[None, :] * _VANDER.T)

_TWO_PI_LD = 2.0 * np.longdouble("3.14159265358979323846264338327950288")

_K = np.arange(_GL_ORDER)
# 2 i^k j_k(theta) split into its cosine (even k) and sine (odd k) moments: i^k cycles 1, i, -1, -i
_MOMENT_SIGNS = 2.0 * np.tile([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]], _GL_ORDER // 4)

# above the highest order, spherical_jn takes every order from the recurrence
_RECURRENCE_FROM = float(_GL_ORDER - 1)
# at or below this theta, scipy's sqrt(pi / (2 theta)) overflows and j_1 .. j_15 come out nan
_TINY = 0.5 * math.pi / sys.float_info.max


def _spherical_j(theta: np.ndarray) -> np.ndarray:
    """j_0(theta) .. j_15(theta) per theta: ``spherical_jn(_K, theta[:, None])`` bit for bit where it is finite.

    Each row is taken at |theta| and reflected as scipy does, j_k(-theta)
    = (-1)^k j_k(theta) (DLMF 10.47(v)).  Rows with 0 < |theta| <= 15,
    where scipy takes the orders k >= |theta| from AMOS, go to the ufunc
    ``_spherical_jn`` itself, not through ``spherical_jn``'s array-API
    wrapper, which costs more per sweep than the ufunc; the others to
    ``_ascending``, or at theta = 0 (every panel of a smooth integral) to
    (1, 0, ..., 0).  So do the subnormal |theta| <= pi / (2 max float),
    where scipy gives nan for k >= 1: (1, 0, ..., 0) is its own value just
    above them.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    size = np.abs(theta)
    fast = size > _RECURRENCE_FROM
    (far,) = fast.nonzero()  # index arrays: cheaper than .all() and .any() on a few rows
    if far.size == theta.size:
        jk = _ascending(size)
    else:
        jk = np.zeros((theta.size, _GL_ORDER))
        jk[:, 0] = 1.0  # kept by the rows at |theta| <= _TINY, which neither branch below takes
        (slow,) = ((size > _TINY) & ~fast).nonzero()
        if slow.size:
            jk[slow] = _spherical_jn(_K, size[slow, None])
        if far.size:
            jk[far] = _ascending(size[far])
    (negative,) = (theta < -_TINY).nonzero()
    if negative.size:
        jk[negative, 1::2] *= -1.0
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


class QuadratureError(RuntimeError):
    """An integral that could not meet its tolerance within the panel budget, or whose sum is not finite.

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


_DEFAULT = QuadConfig()


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
    the bits a sampled zero gives.  ``amplitudes`` None makes all three
    zero: the integral is K's alone, taken with no panel, march or tail
    bound.  ``omega`` must be finite.  The amplitudes must be smooth down to
    the lower limit: every range is Filon.  ``width_hint`` maps a float rho
    to a float: a panel width near rho on which the amplitudes are well
    approximated by low-degree polynomials.  The marches call it one edge
    at a time with a Python float and take ``float`` of its answer.
    ``closed_form(x, omega)``, with one frequency per point, returns a
    primitive of K at x (x may be infinite), its integral over [a, x] for
    some fixed a, and a bound on its roundoff; a batch adds K's integral
    over [lo, hi], the difference of the two ends, to the total before the
    tolerance test and both roundoffs to the error.  With ``closed_form``
    None, K = 0.

    With ``components`` m > 1, F is vector-valued: each amplitude and
    ``closed_form`` give shape (m, N) for N points, or anything that
    broadcasts to it, and the result carries length-m value and error
    arrays from one shared partition.
    """

    omega: float
    amplitudes: Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]] | None
    width_hint: Callable[[float], float]
    closed_form: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    components: int = 1

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("an integrand needs at least one component")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega!r}")


# no new panels (a, b, owner, node) and no rows (value, err, component)
_NO_PANELS = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
_NO_ROWS = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.intp))


class _Amplitudes:
    """The amplitude callables of a batch's entries, labelled by distinct callable, and the nodes of a sweep.

    A node is a panel that a march (``_owned``) or a bisection made since
    the last sweep, numbered as it is made: a family's march panels are one
    node each for all its times, and a bisection child is one for the entry
    that made it.  The next sweep samples and analyses each node once, and
    keeps its rows alone: ``first`` holds each node's first coefficient row,
    ``tails`` each row's |c_14| + |c_15| over the parts (column 0) and of
    G + C (column 1, the rule at omega = 0).
    """

    def __init__(self, integrands):
        labels: dict = {}  # distinct callable -> (label, components)
        picks = [labels.setdefault(f.amplitudes, (len(labels), f.components))[0] for f in integrands]
        self.label = np.array(picks, dtype=np.intp)
        self.fns = list(labels)
        self.size = np.array([m for _, m in labels.values()], dtype=np.intp)
        self.count = 0  # nodes made since the last sweep
        self.made: list = []  # (callable labels, a, b) of those nodes, in order

    def split(self, labels: np.ndarray) -> list:
        """(callable label, positions) for each distinct callable label in ``labels``."""
        if len(self.fns) == 1:
            return [(0, slice(None))]
        order = np.argsort(labels, kind="stable")
        return [(labels[part[0]], part) for part in np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)]

    def nodes(self, fns: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A new node for each panel [a_k, b_k] of callable label fns[k]."""
        ids = np.arange(self.count, self.count + fns.size)
        self.count += fns.size
        if fns.size:
            self.made.append((fns, a, b))
        return ids

    def analyse(self) -> None:
        """Sample and analyse the nodes made since the last sweep, once each, with one call per callable."""
        fn, a, b = self.made[0] if len(self.made) == 1 else (np.concatenate(parts) for parts in zip(*self.made))
        self.made, self.count = [], 0
        sizes = self.size[fn]
        x = (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _NODES
        start = sizes.cumsum() - sizes  # each node's first row, its m components following
        samples = np.empty((int(start[-1] + sizes[-1]), 3, _GL_ORDER))
        for label, sub in self.split(fn):
            size = int(self.size[label])
            rows = sub if isinstance(sub, slice) else (start[sub][:, None] + np.arange(size)).ravel()
            points = x[sub]
            for j, part in enumerate(self.fns[label](points.ravel())):
                samples[rows, j] = 0.0 if part is None else _per_row(part, points, size)
        coef = _analyse(samples)
        tails = np.empty((coef.shape[0], 2))
        top = np.abs(coef[..., -2]) + np.abs(coef[..., -1])  # the decay of the top coefficients
        tails[:, 0] = top[:, 0] + top[:, 1] + top[:, 2]
        # at omega = 0 the rule integrates G + C: parts that cancel leave no indicator
        top = np.abs(coef[:, 0, -2:] + coef[:, 1, -2:])
        tails[:, 1] = top[:, 0] + top[:, 1]
        self.first, self.coef, self.tails = start, coef, tails


def _analyse(vals: np.ndarray) -> np.ndarray:
    """Legendre coefficients of each row of node samples.

    einsum reduces row by row; a BLAS matmul rounds a row differently
    depending on how many rows share the call, which would tie a panel's
    value to the rest of the batch.
    """
    return np.einsum("...k,jk->...j", vals, _ANALYSIS)


def _broadcast(values, shape: tuple) -> np.ndarray:
    """``values`` as floats broadcast to ``shape``, copied: cheaper than ``np.broadcast_to``'s checks."""
    out = np.empty(shape)
    out[...] = values
    return out


def _per_row(values, x: np.ndarray, m: int) -> np.ndarray:
    """Values at the raveled (panel, node) points x of m-component panels, one row per (panel, component)."""
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


class _Batch:
    """A batch's entries: where their components sit, and their families.

    Entry i's m_i components are first[i] .. first[i] + m_i - 1 (``spans``),
    and each of its panels is m_i rows of the per-panel arithmetic.  The
    entries that share every callable, components and range are one family
    and differ only in omega: ``of[i]`` is entry i's family and
    ``members[k]`` family k's entries.  ``bound[i]`` is the tail bound of
    an infinite entry i, each value taken once per (tail, x).
    """

    def __init__(self, integrands, tails, lo: list, hi: list):
        self.omega = np.array([f.omega for f in integrands], dtype=float)
        widths = [f.components for f in integrands]
        ends = list(itertools.accumulate(widths, initial=0))
        self.width, self.first = np.array(widths, dtype=np.intp), np.array(ends[:-1], dtype=np.intp)
        self.spans, self.size, self.sizes = list(zip(ends[:-1], ends[1:])), ends[-1], sorted(set(widths))
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
        once = {tail: functools.cache(tail) for tail in {t for t, b in zip(tails, hi) if b == math.inf} - {None}}
        self.bound = [once.get(tail) for tail in tails]

    def out(self, values: list, i: int):
        """Entry i's components of the per-component ``values``: a float for a scalar integral."""
        j, end = self.spans[i]
        return values[j] if end == j + 1 else np.array(values[j:end])

    def groups(self, owner: np.ndarray) -> list:
        """(m, panels, rows) per component count m: the panels of m-component entries and their rows."""
        if len(self.sizes) == 1:
            return [(self.sizes[0], slice(None), slice(None))]
        width = self.width[owner]
        start = np.cumsum(width) - width
        picks = [(m, np.flatnonzero(width == m)) for m in self.sizes]
        return [(m, sel, (start[sel][:, None] + np.arange(m)).ravel()) for m, sel in picks]

    def closed_parts(self, integrands, lo: list, hi: list) -> tuple[np.ndarray, np.ndarray]:
        """Each component's closed-form integral over [lo, hi] and its roundoff, zeros where there is none:
        one call per family with a ``closed_form``, over both ends of all its integrals."""
        value, error = [0.0] * self.size, [0.0] * self.size
        for head, group in zip(self.heads, self.members):
            fn = integrands[head].closed_form
            if fn is None:
                continue
            m, k, w = integrands[head].components, len(group), [integrands[i].omega for i in group]
            ends = np.array([lo[head]] * k + [hi[head]] * k)
            v, e = (_broadcast(part, (m, 2 * k)) for part in fn(ends, np.array(w + w, dtype=float)))
            rows = [self.spans[i][0] + c for c in range(m) for i in group]  # component by component
            for j, dv, de in zip(rows, (v[:, k:] - v[:, :k]).ravel().tolist(), (e[:, k:] + e[:, :k]).ravel().tolist()):
                value[j], error[j] = dv, de
        return np.array(value), np.array(error)

    def start(self, lo: list, hi: list, results: list, budget: int) -> list:
        """Each open family's first block [lo, hi] as an ``_owned`` piece; a march over budget fails its family."""
        walked = [k for k, i in enumerate(self.heads) if results[i] is None]
        heads, hints = [self.heads[k] for k in walked], [self.hints[k] for k in walked]
        pieces = []
        for k, edges in zip(walked, _initial_edges([lo[i] for i in heads], [hi[i] for i in heads], hints, budget)):
            group = self.members[k]
            if isinstance(edges, QuadratureError):
                for i in group:
                    results[i] = edges
            else:
                pieces.append((edges, group, [edges.size - 1] * len(group)))
        return pieces

    def grow(self, grow: list, block_hi: list, tightest: dict, results, budget: int) -> list:
        """The new panels of the ``grow`` entries, as ``_owned`` pieces.

        The entries of a family that grow from one end x share one tail
        march from x (``_tail_march``), taken up to the first edge where
        the bound meets the smallest of their tolerances.  Each keeps the
        march up to the first edge where the bound meets its own, found by
        bisecting the edges marched against the memoised bound, and that
        edge becomes its block_hi; an entry whose edge the march did not
        reach fails with the march's error.
        """
        marches: dict = {}
        for i in grow:
            marches.setdefault((self.of[i], block_hi[i]), []).append(i)
        pieces = []
        for (k, x), growing in marches.items():
            bound = self.bound[growing[0]]
            edges, error = _tail_march(self.hints[k], x, bound, min(tightest[i] for i in growing), budget)
            points, last, cuts = edges.tolist(), edges.size - 1, []
            for i in growing:
                met = lambda j, tol=tightest[i]: bound(points[j]) <= tol
                cut = _first(met, 0, last) if last and met(last) else 0
                if cut:
                    block_hi[i] = points[cut]
                else:
                    results[i] = error
                cuts.append(cut)
            pieces.append((edges, growing, cuts))  # an entry that fails keeps no panel
        return pieces


def _evaluate(a, b, owner, node, batch: _Batch, amplitudes: _Amplitudes) -> tuple:
    """Value, error indicator and component of each (panel, component) row of the panels [a, b], panels first.

    A panel takes its node's Legendre coefficients against the moments
    int_-1^1 P_k(x) e^{i theta x} dx = 2 i^k j_k(theta): even k feed the
    cosine moment with sign (-1)^{k/2}, odd k the sine moment.  A row at
    omega = 0 integrates G + C, and takes its indicator from their sum.
    """
    if not owner.size:
        return _NO_ROWS
    m, h = 0.5 * (a + b), 0.5 * (b - a)
    w = batch.omega[owner]
    # panels of one width and frequency share their moments (np.unique, from one sort)
    product = w * h
    ordered = np.sort(product)
    theta = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    moments = (_MOMENT_SIGNS * _spherical_j(theta)[:, None])[theta.searchsorted(product)]
    cos_m, sin_m = _phase_cos_sin(w, m)
    amplitudes.analyse()
    coef, tails, kept = amplitudes.coef, amplitudes.tails, amplitudes.first[node]
    still = (w == 0.0).view(np.int8)  # the column of tails a row's indicator takes
    done = []
    for size, sel, at in batch.groups(owner):
        take, c, s, half, col, mom = kept[sel], cos_m[sel], sin_m[sel], h[sel], still[sel], moments[sel]
        comp = batch.first[owner[sel]]
        if size > 1:  # blocks of m rows, one panel's values against each row
            take, c, s, half, col = take[:, None] + np.arange(size), c[:, None], s[:, None], half[:, None], col[:, None]
            comp = (comp[:, None] + np.arange(size)).ravel()
        u = coef[take, 1:]  # the C and S coefficient rows against each moment, one einsum per moment
        (cos_c, sin_c), (cos_s, sin_s) = (np.einsum("p...ik,pk->ip...", u, mom[:, j]) for j in (0, 1))
        value = half * (2.0 * coef[take, 0, 0] + (c * cos_c - s * cos_s) + (s * sin_c + c * sin_s))
        done.append((at, value.ravel(), (2.0 * half * tails[take, col]).ravel(), comp))
    if len(done) == 1:
        return done[0][1:]
    rows = sum(value.size for _, value, _, _ in done)
    value, err, comp = np.empty(rows), np.empty(rows), np.empty(rows, dtype=np.intp)
    for at, *group in done:
        value[at], err[at], comp[at] = group
    return value, err, comp


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
    sees a float.
    """
    floor = max((hi - lo) * 1e-9, 1e-300)
    x, edges = lo, [lo]
    while x < hi:
        x = min(x + max(float(hint(x)), floor), hi)
        edges.append(x)
        if len(edges) > budget:
            return None
    return np.array(edges)


def _initial_edges(lo: list, hi: list, hints: Sequence[Callable], budget: int) -> list:
    """March each [lo_j, hi_j] (floats) taking the hinted width, floored at 1e-9 (hi_j - lo_j).

    Each distinct (hint, lo, hi) is marched once, and finished marches are
    remembered per hint for as long as the hint lives.  Returns the edges
    of each march, or the QuadratureError of a march over ``budget`` edges.
    """
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
    where the longest one stopped.  A tail bound is non-increasing, so the
    edge is found by doubling, then bisecting (``_first``), the edge index:
    O(log n) calls of the bound for a march of n edges.  Returns the edges
    up to that edge and None, or the edges marched and the QuadratureError
    that stopped a march in need of more than ``budget`` edges or of an
    edge beyond the floats.
    """
    edges = _remembered(hint).setdefault((x, math.inf), [x])
    floor = 1e-9 * x
    met = lambda k: bound(edges[k]) <= tol  # a nan bound is not met
    low, high = 0, 1  # edge low does not meet tol (x itself is never asked)
    while True:
        high = min(high, budget - 1)
        while len(edges) <= high:
            step = edges[-1] + min(max(float(hint(edges[-1])), floor), edges[-1])
            if not math.isfinite(step):
                break
            edges.append(step)
        end = min(high, len(edges) - 1)
        if end > low and met(end):
            return np.array(edges[: _first(met, low, end) + 1]), None
        if end < high:
            message = f"the tail march over [{x:g}, {edges[-1]:g}] overflows before the tail bound meets the tolerance"
            return np.array(edges), QuadratureError(message)
        if high == budget - 1:
            return np.array(edges[:budget]), QuadratureError(
                f"panel budget {budget} exceeded by the tail march over [{x:g}, {edges[high]:g}]"
            )
        low, high = high, 2 * high


def _first(met: Callable[[int], bool], low: int, high: int) -> int:
    """The edge index in (low, high] where ``met`` first holds, by bisection, given met(high) and not met(low).

    For a monotone ``met`` that is the least such index; for any, it is
    one where ``met`` holds.
    """
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if met(mid) else (mid, high)
    return high


def _ranks(who: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group number and rank within its group of each of the sorted labels ``who``."""
    starts = np.flatnonzero(np.concatenate(([True], who[1:] != who[:-1])))
    group = np.repeat(np.arange(starts.size), np.diff(np.append(starts, who.size)))
    return group, np.arange(who.size) - starts[group]


def _bisect_worst(panels: tuple, rows, excess: np.ndarray, room: np.ndarray, entry: np.ndarray) -> tuple:
    """The panels each refining integral bisects this sweep, and their children (a, b, owner).

    ``panels`` holds the a, b, owner and frozen mark of every panel,
    ``rows`` the panel, component and error indicator of every row;
    ``entry`` maps a component to its integral.  Component c (excess[c] >
    0) takes its unfrozen panels from the worst down until their indicators
    cover excess[c], at most room[i] of them for its integral i, and an
    integral bisects the union of its components' picks, again at most
    room[i].  Panels at width underflow are marked frozen instead of
    bisected.
    """
    a, b, owner, frozen = panels
    panel, comp, err = rows
    cand = np.flatnonzero((excess[comp] > 0.0) & ~frozen[panel])
    if not cand.size:
        return cand, a[cand], b[cand], cand
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
    if panel.size > a.size:  # a panel picked by several components is bisected once
        chosen = chosen[np.sort(np.unique(chosen, return_index=True)[1])]
        chosen = chosen[_ranks(owner[chosen])[1] < room[owner[chosen]]]

    left, right = a[chosen], b[chosen]
    narrow = right - left <= 1e-15 * np.maximum(1.0, np.abs(right))
    frozen[chosen[narrow]] = True
    split = chosen[~narrow]
    left, right = left[~narrow], right[~narrow]
    mid = 0.5 * (left + right)
    return split, np.column_stack([left, mid]).ravel(), np.column_stack([mid, right]).ravel(), owner[split].repeat(2)


def _owned(pieces: list, amplitudes: _Amplitudes) -> tuple:
    """Unevaluated panels (a, b, owner, node) of (edges, owners, kept) pieces.

    A piece's owners are entries of one family, and owners[j] takes the
    first kept[j] panels of the march along ``edges``.
    """
    a, b, node, shift, owners, kept, laid, made = [], [], [], [], [], [], 0, 0
    for edges, who, keep in pieces:
        top = max(keep)  # an owner's panels are the march's first c, laid after every panel before them
        before = list(itertools.accumulate(keep, initial=laid))
        shift += [made - x for x in before[:-1]]
        laid, made = before[-1], made + top
        a.append(edges[:top])
        b.append(edges[1 : top + 1])
        node.append(amplitudes.nodes(np.full(top, amplitudes.label[who[0]]), a[-1], b[-1]))
        owners += who
        kept += keep
    if not pieces:
        return _NO_PANELS
    a, b, node = np.concatenate(a), np.concatenate(b), np.concatenate(node)
    if laid > made:  # owners that share a march's panels each take them
        at = np.arange(laid) + np.repeat(shift, kept)
        a, b, node = a[at], b[at], node[at]
    return a, b, np.array(owners, dtype=np.intp).repeat(kept), node


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
    ``tail_bound(rho)``, a non-increasing upper bound for the absolute
    integral beyond rho (of every component) of the amplitudes' part
    alone: K is integrated over all of [lo, hi].  An infinite range is cut
    at the first edge of its tail march where the bound meets the
    tolerance, found by bisection; a bound that rises again still gets an
    edge where it meets it, not always the first.  An entry without
    amplitudes is its closed-form part over [lo, hi] with that part's
    roundoff as its error, and 0 panels.  Entry i is integral i's result,
    whose error adds the tail bound beyond block_hi, the last edge it
    keeps, and K's roundoff; or the QuadratureError that ended it, whose
    ``achieved`` covers [lo, block_hi] (K over [lo, hi]) and whose
    ``error_estimate`` adds the tail bound beyond block_hi and the roundoff
    n eps sum |panel value| of summing its n panels.  An integrand of m
    components is one entry with one partition, and its value and error
    are length-m arrays.
    """
    cfg = cfg or _DEFAULT
    n = len(integrands)
    lo, hi = (_broadcast(v, (n,)).tolist() for v in (lo, hi))
    tails = [tail_bound] * n if tail_bound is None or callable(tail_bound) else list(tail_bound)
    if len(tails) != n:
        raise ValueError(f"{len(tails)} tail bounds for {n} integrands")
    if not all(a <= b for a, b in zip(lo, hi)):
        raise ValueError("need lo <= hi")
    if not n:
        return []
    batch = _Batch(integrands, tails, lo, hi)
    out, spans = batch.out, batch.spans
    zero = [0.0] * batch.size
    results = [None if a < b else QuadResult(out(zero, i), out(zero, i), 0) for i, (a, b) in enumerate(zip(lo, hi))]
    infinite = [math.isinf(b) for b in hi]
    if any(r is None and inf and tail is None for r, inf, tail in zip(results, infinite, tails)):
        raise ValueError("infinite range needs a tail_bound")
    if all(r is not None for r in results):
        return results

    closed, closed_err = batch.closed_parts(integrands, lo, hi)
    # an identically zero integrand is its closed part alone, + 0.0 as the sum of no panels
    closed_l, closed_err_l = (closed + 0.0).tolist(), closed_err.tolist()
    for i in [i for i, r in enumerate(results) if r is None and integrands[i].amplitudes is None]:
        results[i] = QuadResult(out(closed_l, i), out(closed_err_l, i), 0)
    if all(r is not None for r in results):
        return results
    amplitudes = _Amplitudes(integrands)
    block_hi = [max(2.0 * max(a, 1.0), a + 1.0) if inf else b for a, b, inf in zip(lo, hi, infinite)]
    pieces = batch.start(lo, block_hi, results, cfg.max_panels)
    # the look-ahead to the tolerance of the closed-form part: a march that cannot
    # get there leaves its error in a dict that is dropped, and the entry keeps [lo, b]
    reach = {}
    for i in [i for i, r in enumerate(results) if r is None and infinite[i]]:
        reach[i] = min(0.25 * max(cfg.rel_tol * abs(v), cfg.abs_tol) for v in closed_l[slice(*spans[i])])
    ahead = [i for i, target in reach.items() if target < batch.bound[i](block_hi[i]) < math.inf]
    pieces += batch.grow(ahead, block_hi, reach, {}, cfg.max_panels)
    new = _owned(pieces, amplitudes)
    # the batch's panels (a, b, owner, frozen) and their rows (value, err, component)
    panels, rows = (*_NO_PANELS[:3], np.zeros(0, dtype=bool)), _NO_ROWS
    while True:
        evaluated = _evaluate(*new, batch, amplitudes)
        panels, rows = _appended(panels, (*new[:3], np.zeros(new[0].size, dtype=bool))), _appended(rows, evaluated)
        owner, frozen, (value, err, comp) = panels[2], panels[3], rows
        # each component sums its rows in panel order, as a scalar integral would
        count = np.bincount(owner, minlength=n)
        total = np.bincount(comp, value, batch.size) + closed
        indicator = np.bincount(comp, err, batch.size)
        tol = 0.25 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        counts, total_l, indicator_l, tol_l = count.tolist(), total.tolist(), indicator.tolist(), tol.tolist()
        reported = (indicator + closed_err).tolist()
        refine, grow, tightest, unfrozen = [], [], {}, None
        for i in [i for i, r in enumerate(results) if r is None]:
            j, end = spans[i]
            if not all(map(math.isfinite, total_l[j:end] + indicator_l[j:end])):
                message = "the sum or its error indicator is nan or inf: an amplitude or the closed form is not finite"
                results[i] = QuadratureError(message, achieved=out(total_l, i), error_estimate=out(reported, i))
            elif any(map(operator.gt, indicator_l[j:end], tol_l[j:end])):
                if unfrozen is None:
                    unfrozen = np.bincount(owner[~frozen], minlength=n).tolist()
                if counts[i] >= cfg.max_panels:
                    message = f"panel budget {cfg.max_panels} exhausted with error {max(indicator_l[j:end]):.3e}"
                elif not unfrozen[i]:
                    message = "all panels at width underflow before reaching tolerance"
                else:
                    refine.append(i)
                    continue
                outside = batch.bound[i](block_hi[i]) if infinite[i] else 0.0
                # summing n panels one by one rounds off by at most n eps sum |value|
                magnitude = out(np.bincount(comp, np.abs(value), batch.size).tolist(), i)
                estimate = out(reported, i) + outside + counts[i] * sys.float_info.epsilon * magnitude
                results[i] = QuadratureError(message, achieved=out(total_l, i), error_estimate=estimate)
            elif not infinite[i]:
                results[i] = QuadResult(out(total_l, i), out(reported, i), counts[i])
            else:
                tail, tightest[i] = batch.bound[i](block_hi[i]), min(tol_l[j:end])
                if math.isinf(tail):
                    results[i] = QuadratureError("tail bound is infinite; integral diverges", achieved=out(total_l, i))
                elif tail <= tightest[i]:
                    results[i] = QuadResult(out(total_l, i), out(reported, i) + tail, counts[i])
                else:
                    grow.append(i)
        if all(r is not None for r in results):
            return results

        split, children = np.zeros(0, dtype=np.intp), _NO_PANELS
        if refine:
            entry = np.repeat(np.arange(n), batch.width)
            excess = np.where((indicator > tol) & np.isin(entry, refine), indicator - tol, 0.0)
            panel = np.repeat(np.arange(owner.size), batch.width[owner])
            split, *children = _bisect_worst(panels, (panel, comp, err), excess, cfg.max_panels - count, entry)
            children.append(amplitudes.nodes(amplitudes.label[children[2]], children[0], children[1]))
        pieces = batch.grow(grow, block_hi, tightest, results, cfg.max_panels) if grow else []
        keep = np.array([r is None for r in results], dtype=bool)[owner]
        keep[split] = False
        panels = tuple(v[keep] for v in panels)
        rows = tuple(v[np.repeat(keep, batch.width[owner])] for v in rows)
        new = tuple(np.concatenate(pair) for pair in zip(children, _owned(pieces, amplitudes)))


def _appended(kept: tuple, new: tuple) -> tuple:
    """Arrays of kept panels or rows followed by new ones, field by field."""
    return tuple(np.concatenate(pair) for pair in zip(kept, new)) if kept[0].size else new


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
