"""The catalog sweep: which (family, scale, t) cells of M(t) compute today.

Every kind of ``profiles.KINDS`` is swept as position-only and as
velocity-only data in each dimension it takes, plus a 2D pair whose u0 sits
at (1, 0) and whose u1 sits at 0, over six scales (sigma or R) and five
times.  Each cell either computes or is listed in ``KNOWN_FAILURES`` with
the start of its message.  A listed cell that computes fails the test, and
so does an unlisted cell that fails: a fix deletes its rows, so the table
only shrinks.
"""

import math
import sys

import pytest

from _oracles import msq_gauss1d, msq_poly2d, trick_T_reference
from wavegrowth.oracles import example_msq_closed
from wavegrowth.profiles import KINDS, Profile, ProfilePair
from wavegrowth.quadrature import QuadratureError
from wavegrowth.spectral import norm_sq_samples

SCALES = (1e-2, 0.1, 1.0, 10.0, 1e2, 1e3)
TIMES = (0.0, 1e-3, 1.0, 1e3, 1e6)

PARTITION = "panel budget 32768 exceeded by the initial partition of [0, 2]"
TAIL_MARCH = "panel budget 32768 exceeded by the tail march over [2, "
EXHAUSTED = "panel budget 32768 exhausted with error "


def _profile(kind: str, dimension: int, scale: float) -> Profile:
    param = "radius" if "radius" in KINDS[kind].params else "sigma"
    return Profile(kind, dimension, **{param: scale})


def _families() -> dict:
    """family name -> the pair at a scale."""
    families = {}
    for kind, spec in KINDS.items():
        if kind == "zero":
            continue
        for d in spec.dims:
            zero = Profile.zero(d)
            families[f"{kind} {d}D position"] = lambda s, k=kind, d=d, z=zero: ProfilePair(d, _profile(k, d, s), z)
            families[f"{kind} {d}D velocity"] = lambda s, k=kind, d=d, z=zero: ProfilePair(d, z, _profile(k, d, s))
    families["shifted gaussian 2D pair"] = lambda s: ProfilePair(
        2, Profile.gaussian(2, s, center=(1.0, 0.0)), Profile.gaussian(2, s)
    )
    return families


FAMILIES = _families()


def _known_failures() -> dict:
    """(family, scale, t) -> the start of its QuadratureError message."""
    table = {}
    # sigma = 1e3: the first block [0, 2] does not scale with sigma (ROADMAP
    # item 6), so every time below the large-t switch fails; t = 1e6 is past
    # it and takes the expansion with no panel, except for the shifted pair,
    # which has no expansion
    for family in FAMILIES:
        if "gaussian" in family:
            times = TIMES if family == "shifted gaussian 2D pair" else TIMES[:-1]
            table.update({(family, 1e3, t): PARTITION for t in times})
    # the interval's cells all take d'Alembert's law with no panel.  The
    # disk's transform decays like rho^-2 (item 7): every position cell, and
    # the velocity at t = 0 from R = 1
    table.update({("indicator_disk 2D position", s, t): TAIL_MARCH for s in SCALES for t in TIMES})
    table.update({("indicator_disk 2D velocity", s, 0.0): TAIL_MARCH for s in SCALES[2:]})
    # M^2 ~ t^2 ||u1||^2 at t = 1e-3 puts the tolerance below the Filon
    # indicator's floor (item 9): gaussian-family velocities from scale 10
    # on, from 1 for the 2D gaussian, and the disk's from 1
    for family in FAMILIES:
        if family.endswith("velocity") and family != "indicator_interval 1D velocity":
            start = 2 if family in ("gaussian 2D velocity", "indicator_disk 2D velocity") else 3
            for s in SCALES[start:]:
                table.setdefault((family, s, 1e-3), EXHAUSTED)
    # the 2R = 2000 oscillation of the widest disk at t = 1
    table[("indicator_disk 2D velocity", 1e3, 1.0)] = EXHAUSTED
    return table


KNOWN_FAILURES = _known_failures()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_catalog_computes_outside_the_known_failures(family):
    mismatches = []
    for scale in SCALES:
        for t, res in zip(TIMES, norm_sq_samples(FAMILIES[family](scale), TIMES)):
            expected = KNOWN_FAILURES.get((family, scale, t))
            failed = isinstance(res, QuadratureError)
            if failed and expected is None:
                mismatches.append((scale, t, f"fails unlisted: {res}"))
            elif not failed and expected is not None:
                mismatches.append((scale, t, "computes but is listed"))
            elif failed and not str(res).startswith(expected):
                mismatches.append((scale, t, f"fails with {res}, listed as {expected!r}"))
    assert mismatches == []


def test_the_known_failures_name_catalog_cells():
    assert {key[0] for key in KNOWN_FAILURES} <= set(FAMILIES)
    assert all(scale in SCALES and t in TIMES for _, scale, t in KNOWN_FAILURES)


# velocity family -> (sigma s of the data whose M^2(t) the closed form gives, that M^2)
DILATED_ORACLES = {
    "gaussian 1D velocity": (1.0, msq_gauss1d),
    "gaussian 2D velocity": (1.0, trick_T_reference),
    "polynomial_gaussian 2D velocity": (1.0 / math.sqrt(2.0), msq_poly2d),
}


@pytest.mark.parametrize("family", sorted(DILATED_ORACLES))
def test_the_widest_velocities_meet_their_closed_forms_at_the_largest_time(family):
    """The sigma = 1e3, t = 1e6 cell takes the large-t expansion with no
    panel and lies within its error bar of the closed form, by dilation: a
    velocity x_1^m exp(-|x|^2 / (2 sigma^2)) is L^(m + 1) times the dilated
    velocity v(x / L) / L of the velocity v of width s, L = sigma / s, whose
    wave is u(t / L, x / L), so M^2(t) = L^(n + 2 + 2m) M_s^2(t / L)."""
    s, exact = DILATED_ORACLES[family]
    pair = FAMILIES[family](1e3)
    n, m = pair.dimension, int(family.startswith("polynomial"))
    scale = 1e3 / s
    want = (2.0 * math.pi) ** n * scale ** (n + 2 + 2 * m) * exact(1e6 / scale)
    (res,) = norm_sq_samples(pair, [1e6])
    assert res.panels == 0
    assert abs(res.value - want) <= res.error + 4.0 * sys.float_info.epsilon * want


# 1D indicator family -> M^2(t) at radius R, by d'Alembert's formula: two
# half bumps of u0 that overlap in 2 (R - t) while t < R, of M^2 = R + (R -
# t)_+, and for the velocity the example's closed form by dilation,
# 1_{|x| <= R} = (R / 2) v(x / R) / R for the example's velocity v = 2
# 1_{|x| <= 1}, so M^2(t) = (R^3 / 4) M_ex^2(t / R)
INTERVAL_ORACLES = {
    "indicator_interval 1D position": lambda radius, t: radius + max(radius - t, 0.0),
    "indicator_interval 1D velocity": lambda radius, t: radius**3 / 4.0 * example_msq_closed(t / radius),
}


def _interval_misses(family, cells):
    """The cells that take a panel or miss the closed form by more than their error bar."""
    misses = []
    for scale, t in cells:
        want = 2.0 * math.pi * INTERVAL_ORACLES[family](scale, t)
        (res,) = norm_sq_samples(FAMILIES[family](scale), [t])
        if res.panels or abs(res.value - want) > res.error + 4.0 * sys.float_info.epsilon * want:
            misses.append((scale, t, res, want))
    return misses


@pytest.mark.parametrize("family", sorted(INTERVAL_ORACLES))
def test_the_intervals_meet_their_closed_forms_past_the_support(family):
    """Every cell with t >= R, where the fronts have separated, takes
    d'Alembert's law with no panel and lies within its error bar of the
    closed form."""
    cells = [(s, t) for s in SCALES for t in TIMES if t >= s]
    assert len(cells) == 15
    assert _interval_misses(family, cells) == []


@pytest.mark.parametrize("family", sorted(INTERVAL_ORACLES))
def test_the_intervals_meet_their_closed_forms_below_the_support(family):
    """Every cell with t < R, where the fronts still overlap, t = 0
    included, takes d'Alembert's law with no panel and lies within its
    error bar of the closed form."""
    cells = [(s, t) for s in SCALES for t in TIMES if t < s]
    assert len(cells) == 15
    assert _interval_misses(family, cells) == []
