"""Command-line front end: configuration, orchestration, CSV/JSON output.

Subcommands::

    verify        Example reproduction plus the invariant suite
    rates         norm curve, rate fits, envelope terms
    bounds        per-time inequality verification
    local-energy  decay-chain report on one grid configuration
    config        validate a config file or print the embedded default

Configuration is flat ``key = value`` text with dotted section prefixes;
``wavegrowth config --print-default`` emits the embedded default.  All
CSV and JSON artifacts are written deterministically: fixed column
order, 17-significant-digit floats, sorted JSON keys.

Exit codes: 0 success, 1 computational failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import FitError, fit_loglinear, loglinear_slope_floor, model_select
from .bounds import MOMENT_COEFF, BoundBreakdown, SandwichError, envelopes, sandwich_report
from .local_energy import initial_energy, local_energy_report
from .oracles import HorizonError, _grid_shape, grid_evolver, verify_example
from .profiles import Profile, ProfilePair, ProfileError, moments
from .quadrature import QuadConfig, QuadratureError
from .spectral import NormCurve, ProofConstants, energy, moment_remainder_ratio, norm_sq_samples

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config_text", "main"]

DEFAULT_CONFIG = """\
# wavegrowth experiment configuration
# Flat key = value entries; '#' starts a comment.

dimension = 2

profile.u0.kind = zero
profile.u1.kind = gaussian
profile.u1.sigma = 1.0
profile.u1.amplitude = 1.0

constants.delta0 = 0.99

quadrature.abs_tol = 1e-13
quadrature.rel_tol = 1e-9
quadrature.max_panels = 32768

samples.start = 1e3
samples.stop = 1e6
samples.count = 25

grid.lam = 256.0
grid.n_points = 2048

local.radius = 5.0
local.times = 20, 50, 100, 200

output.dir = out
"""


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the field."""


# ------------------------------------------------------------ configuration
def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"line {ln}: empty key or value")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


def _take_float(m: dict, key: str, default: float | None = None) -> float:
    if key not in m:
        if default is None:
            raise ConfigError(f"{key}: required key missing")
        return default
    try:
        return float(m.pop(key))
    except ValueError:
        raise ConfigError(f"{key}: not a number: {m.pop(key, '')!r}") from None


def _take_int(m: dict, key: str, default: int | None = None) -> int:
    val = _take_float(m, key, default if default is None else float(default))
    if val != int(val):
        raise ConfigError(f"{key}: expected an integer, got {val!r}")
    return int(val)


def _take_floats(m: dict, key: str) -> tuple[float, ...]:
    if key not in m:
        raise ConfigError(f"{key}: required key missing")
    raw = m.pop(key)
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{key}: not a comma-separated number list: {raw!r}") from None


def _build_profile(m: dict, prefix: str, dimension: int) -> Profile:
    kind = m.pop(f"{prefix}.kind", None)
    if kind is None:
        raise ConfigError(f"{prefix}.kind: required key missing")
    try:
        if kind == "zero":
            prof = Profile.zero(dimension)
        elif kind == "gaussian":
            sigma = _take_float(m, f"{prefix}.sigma")
            amp = _take_float(m, f"{prefix}.amplitude", 1.0)
            center = None
            if f"{prefix}.center" in m:
                center = _take_floats(m, f"{prefix}.center")
            prof = Profile.gaussian(dimension, sigma, amp, center)
        elif kind == "indicator_interval":
            prof = Profile.indicator_interval(
                _take_float(m, f"{prefix}.radius"), _take_float(m, f"{prefix}.amplitude", 1.0)
            )
        elif kind == "indicator_disk":
            prof = Profile.indicator_disk(
                _take_float(m, f"{prefix}.radius"), _take_float(m, f"{prefix}.amplitude", 1.0)
            )
        elif kind == "polynomial_gaussian":
            prof = Profile.polynomial_gaussian(
                dimension, _take_float(m, f"{prefix}.sigma"), _take_float(m, f"{prefix}.amplitude", 1.0)
            )
        else:
            raise ConfigError(f"{prefix}.kind: unknown profile kind {kind!r}")
    except ProfileError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None
    if prof.dimension != dimension:
        raise ConfigError(f"{prefix}.kind: {kind} is not {dimension}-dimensional")
    leftovers = [k for k in m if k.startswith(prefix + ".")]
    if leftovers:
        raise ConfigError(f"{leftovers[0]}: not a parameter of kind {kind!r}")
    return prof


@dataclass(frozen=True)
class ExperimentConfig:
    pair: ProfilePair
    consts: ProofConstants
    quad: QuadConfig
    t_start: float
    t_stop: float
    t_count: int
    lam: float
    n_points: int
    local_radius: float
    local_times: tuple[float, ...]
    out_dir: str

    @property
    def dimension(self) -> int:
        return self.pair.dimension

    def times(self) -> np.ndarray:
        return np.logspace(math.log10(self.t_start), math.log10(self.t_stop), self.t_count)


def build_config(mapping: dict[str, str]) -> ExperimentConfig:
    m = dict(mapping)
    dimension = _take_int(m, "dimension")
    if dimension not in (1, 2):
        raise ConfigError(f"dimension: must be 1 or 2, got {dimension}")
    u0 = _build_profile(m, "profile.u0", dimension)
    u1 = _build_profile(m, "profile.u1", dimension)
    try:
        consts = ProofConstants(delta0=_take_float(m, "constants.delta0", 0.99))
    except ValueError as exc:
        raise ConfigError(f"constants: {exc}") from None
    try:
        quad = QuadConfig(
            abs_tol=_take_float(m, "quadrature.abs_tol", 1e-13),
            rel_tol=_take_float(m, "quadrature.rel_tol", 1e-9),
            max_panels=_take_int(m, "quadrature.max_panels", 32768),
        )
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from None
    t_start = _take_float(m, "samples.start", 1e3 if dimension == 2 else 1e2)
    t_stop = _take_float(m, "samples.stop", 1e6 if dimension == 2 else 1e5)
    t_count = _take_int(m, "samples.count", 25)
    if not 0.0 < t_start < t_stop:
        raise ConfigError(f"samples.start: need 0 < start < stop, got [{t_start:g}, {t_stop:g}]")
    if t_count < 2:
        raise ConfigError(f"samples.count: need at least 2, got {t_count}")
    lam = _take_float(m, "grid.lam", 256.0)
    n_points = _take_int(m, "grid.n_points", 2048)
    if lam <= 0.0:
        raise ConfigError(f"grid.lam: must be positive, got {lam:g}")
    if n_points < 64 or n_points % 2:
        raise ConfigError(f"grid.n_points: need an even count of at least 64, got {n_points}")
    local_radius = _take_float(m, "local.radius", 5.0)
    if local_radius <= 0.0:
        raise ConfigError(f"local.radius: must be positive, got {local_radius:g}")
    local_times = _take_floats(m, "local.times") if "local.times" in m else (20.0, 50.0, 100.0, 200.0)
    out_dir = m.pop("output.dir", "out")
    if m:
        raise ConfigError(f"{sorted(m)[0]}: unknown key")
    try:
        pair = ProfilePair(dimension, u0, u1)
    except ProfileError as exc:
        raise ConfigError(f"profile: {exc}") from None
    return ExperimentConfig(
        pair, consts, quad, t_start, t_stop, t_count, lam, n_points, local_radius, local_times, out_dir
    )


def load_config(path: str | None) -> ExperimentConfig:
    text = DEFAULT_CONFIG if path is None else Path(path).read_text()
    return build_config(parse_config_text(text))


# ------------------------------------------------------------------ output
def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


_BOUNDS_HEADER = (
    "t", "K1_lb", "K2_ub", "J1_lb", "J2_ub", "Ilow_lb", "final_lb", "t_star",
    "L1_ub", "L2_ub", "Ilow_ub", "O1", "O2", "O3", "N1_ub", "N2_ub",
    "Ihigh_ub", "final_ub", "T_lb",
)


def _bounds_row(bb: BoundBreakdown) -> tuple:
    o = list(bb.O_terms) + [math.nan] * (3 - len(bb.O_terms))
    return (
        bb.t, bb.K1_lb, bb.K2_ub, bb.J1_lb, bb.J2_ub, bb.Ilow_lb, bb.final_lb,
        bb.t_star, bb.L1_ub, bb.L2_ub, bb.Ilow_ub, o[0], o[1], o[2],
        bb.N1_ub, bb.N2_ub, bb.Ihigh_ub, bb.final_ub,
        math.nan if bb.T_lb is None else bb.T_lb,
    )


# --------------------------------------------------------------- commands
def _example_table(quad: QuadConfig) -> list[tuple[str, str, bool]]:
    checks = []
    for row in verify_example(cfg=quad):
        closed_sq = row.m_closed**2
        rel_d = abs(row.m_dalembert**2 - closed_sq) / closed_sq
        rel_s = abs(row.m_spectral**2 - closed_sq) / closed_sq
        rel_g = abs(row.m_grid**2 - closed_sq) / closed_sq
        ok = rel_d <= 1e-9 and rel_s <= 1e-6 and rel_g <= 1e-6
        checks.append(
            (
                f"example M^2(t={row.t:g})",
                f"{closed_sq:.10f} rel: dal {rel_d:.2e} spec {rel_s:.2e} grid {rel_g:.2e}",
                ok,
            )
        )
    return checks


def _invariant_table(cfg: ExperimentConfig) -> list[tuple[str, str, bool]]:
    checks = []
    pair = cfg.pair
    if pair.is_zero:
        return [("invariants", "vacuous for zero data", True)]

    e_times = [0.0, 1.0, 10.0, 100.0, 1000.0]
    res = energy(pair, e_times, cfg.quad)
    e_closed = initial_energy(pair)
    drift = float(np.max(np.abs(res.values - e_closed)))
    checks.append(
        (
            "spectral energy drift",
            f"max |E(t) - E0| {drift:.3e} vs error {res.error:.3e}, closed-form E0 {e_closed:.10g}, t in {e_times}",
            drift <= res.error,
        )
    )

    g_times = [0.0, 1.0, 10.0]
    lam, n = _grid_shape(g_times[-1], pair.effective_radius(1e-14), 0.01 if pair.dimension == 1 else 0.125)
    evolve = grid_evolver(pair, lam, n)
    g_es = [evolve(t).energy() for t in g_times]
    g_drift = max(abs(e - g_es[0]) for e in g_es) / g_es[0]
    checks.append(("grid energy drift", f"{g_drift:.3e} at lam={lam:g} N={n}", g_drift <= 1e-10))

    if pair.u1.is_zero or math.isinf(pair.u1.l11()):
        checks.append(("moment-remainder bound", "vacuous: no weighted L1 norm", True))
    else:
        radii = np.linspace(1e-6, 1.0, 400)
        if pair.dimension == 1:
            sup = float(np.max(moment_remainder_ratio(pair.u1, np.concatenate([-radii, radii]))))
        else:
            angles = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
            xi = radii[:, None, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)[None, :, :]
            sup = float(np.max(moment_remainder_ratio(pair.u1, xi)))
        checks.append(("moment-remainder bound", f"sup {sup:.6f} <= {MOMENT_COEFF:.6f}", sup <= MOMENT_COEFF + 1e-12))

    for t in (1e2, 1e3):
        try:
            rep = sandwich_report(pair, t, cfg.consts, cfg.quad, raise_on_failure=False)
        except (ValueError, QuadratureError) as exc:
            checks.append((f"sandwich t={t:g}", f"skipped: {exc}", True))
            continue
        detail = "all inequalities hold" if rep.ok else "; ".join(rep.failures)
        checks.append((f"sandwich t={t:g}", detail, rep.ok))
    return checks


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    checks = _example_table(cfg.quad) + _invariant_table(cfg)
    width = max(len(name) for name, _, _ in checks)
    for name, detail, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = [name for name, _, ok in checks if not ok]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def cmd_rates(cfg: ExperimentConfig, args, out: Path) -> int:
    pair = cfg.pair
    ts = cfg.times()

    results = norm_sq_samples(pair, ts, cfg.quad)
    two_pi_n = (2.0 * math.pi) ** pair.dimension

    def physical_norm(value):
        return math.nan if value is None else math.sqrt(max(value, 0.0) / two_pi_n)

    rows = []
    for t, res in zip(ts, results):
        if isinstance(res, QuadratureError):
            err = math.nan if res.error_estimate is None else res.error_estimate
            rows.append((t, physical_norm(res.achieved), "error", err, ""))
        else:
            rows.append((t, physical_norm(res.value), "spectral", res.error, res.panels))
    _write_csv(out / "norm_curve.csv", ("t", "M", "method", "error", "panels"), rows)

    good = np.array([i for i, res in enumerate(results) if not isinstance(res, QuadratureError)], dtype=int)
    failures = int(ts.size - good.size)
    report: dict = {"failures": failures, "samples": int(ts.size)}
    fit_failed = False
    if good.size >= 2:
        curve = NormCurve(
            pair.dimension,
            ts[good],
            np.array([results[i].value for i in good]),
            np.array([results[i].error for i in good]),
        )
        try:
            selected = model_select(curve)
            report["selected"] = selected.as_dict()
            report["candidates"] = [c.as_dict() for c in selected.candidates]
            norms = moments(pair)
            if pair.dimension == 2 and norms.mean_u1 != 0.0:
                checked = fit_loglinear(curve, mean_u1=norms.mean_u1)
                report["log_linear_floor"] = {
                    "floor": loglinear_slope_floor(norms.mean_u1),
                    "fitted_slope": checked.params[1],
                }
            rng = np.random.default_rng(args.seed)
            agree = 0
            trials = 20
            for _ in range(trials):
                noisy = NormCurve(
                    pair.dimension,
                    curve.t,
                    curve.fourier_sq * (1.0 + 0.01 * rng.standard_normal(curve.t.shape)),
                    curve.errors,
                )
                if model_select(noisy).model == selected.model:
                    agree += 1
            report["stability"] = {"trials": trials, "agreement": agree, "noise": 0.01, "seed": args.seed}
        except FitError as exc:
            report["fit_error"] = str(exc)
            fit_failed = True
    else:
        report["fit_error"] = "not enough successful samples to fit"
        fit_failed = True
    _write_json(out / "rate_fit.json", report)

    bounds_rows = []
    try:
        norms = moments(pair)
        for i in good:
            t = float(ts[i])
            try:
                bounds_rows.append(_bounds_row(envelopes(norms, t, pair.dimension, cfg.consts)))
            except ValueError:
                continue
    except ValueError:
        pass
    _write_csv(out / "bounds.csv", _BOUNDS_HEADER, bounds_rows)

    print(f"wrote {out / 'norm_curve.csv'} ({ts.size} rows, {failures} failed)")
    print(f"wrote {out / 'rate_fit.json'}")
    print(f"wrote {out / 'bounds.csv'} ({len(bounds_rows)} rows)")
    return 1 if failures or fit_failed else 0


def cmd_bounds(cfg: ExperimentConfig, args, out: Path) -> int:
    pair = cfg.pair
    ts = cfg.times()

    rows = []
    bad = 0
    skipped = 0
    for t in ts:
        try:
            rep = sandwich_report(pair, float(t), cfg.consts, cfg.quad, raise_on_failure=False)
        except (ValueError, QuadratureError) as exc:
            print(f"skip  t={t:<12g} {exc}")
            skipped += 1
            continue
        rows.append(_bounds_row(rep.breakdown))
        if rep.ok:
            print(f"PASS  t={t:<12g} {len(rep.checks)} inequalities")
        else:
            print(f"FAIL  t={t:<12g} {'; '.join(rep.failures)}")
            bad += 1
    _write_csv(out / "bounds.csv", _BOUNDS_HEADER, rows)
    print(f"wrote {out / 'bounds.csv'} ({len(rows)} rows, {bad} failed, {skipped} skipped)")
    return 1 if bad or skipped == ts.size else 0


def cmd_local_energy(cfg: ExperimentConfig, args, out: Path) -> int:
    try:
        rep = local_energy_report(
            cfg.pair, cfg.local_radius, cfg.local_times, cfg.lam, cfg.n_points, cfg.consts, cfg.quad
        )
    except (ValueError, HorizonError) as exc:
        raise ConfigError(str(exc)) from None
    _write_csv(out / "local_energy.csv", rep.CSV_HEADER, rep.rows())
    summary = {
        "R": rep.r_obs,
        "K0": rep.k0,
        "E0": rep.e0,
        "I02": rep.i02,
        "weighted_h1": rep.weighted_h1,
        "c_assembled": rep.c_assembled,
        "c_fitted": rep.c_fitted,
        "min_f_slack": rep.min_f_slack,
        "min_prop41_slack": min(s.slack for s in rep.samples),
        "max_residual": max(s.residual for s in rep.samples),
    }
    if rep.lam is not None:
        summary.update(lam=rep.lam, n_points=rep.n_points, spectral_tail=rep.spectral_tail)
    if cfg.dimension == 2:
        summary["min_envelope_slack"] = min(s.envelope - s.e_r for s in rep.samples)
    _write_json(out / "local_energy.json", summary)
    print(f"wrote {out / 'local_energy.csv'} ({len(rep.samples)} rows)")
    print(f"wrote {out / 'local_energy.json'}")
    return 0


def cmd_config(args) -> int:
    if args.print_default:
        sys.stdout.write(DEFAULT_CONFIG)
        return 0
    cfg = load_config(args.config)
    pair = cfg.pair
    print(f"dimension    {cfg.dimension}")
    print(f"u0           {pair.u0.kind}")
    print(f"u1           {pair.u1.kind}")
    print(f"samples      [{cfg.t_start:g}, {cfg.t_stop:g}] x {cfg.t_count}")
    print(f"grid         lam={cfg.lam:g} N={cfg.n_points}")
    print(f"local        R={cfg.local_radius:g} times={list(cfg.local_times)}")
    print(f"output dir   {cfg.out_dir}")
    print("config OK")
    return 0


# ------------------------------------------------------------------- main
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (default: embedded)")
    common.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    common.add_argument("--seed", type=int, default=0, metavar="N", help="seed for fit-noise trials")
    parser = argparse.ArgumentParser(prog="wavegrowth", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="Example reproduction and invariant suite")
    sub.add_parser("rates", parents=[common], help="norm curve, rate fits, envelope terms")
    sub.add_parser("bounds", parents=[common], help="per-time inequality verification")
    sub.add_parser("local-energy", parents=[common], help="local energy decay report")
    p_cfg = sub.add_parser("config", parents=[common], help="validate config or print the default")
    p_cfg.add_argument("--print-default", action="store_true", help="print the embedded default config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "config":
        try:
            return cmd_config(args)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            return cmd_verify(cfg, args)
        out = Path(args.out if args.out is not None else cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "rates":
            return cmd_rates(cfg, args, out)
        if args.command == "bounds":
            return cmd_bounds(cfg, args, out)
        return cmd_local_energy(cfg, args, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SandwichError, HorizonError, FitError, ProfileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
