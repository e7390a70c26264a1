import contextlib
import io
import json
import math
import re

import pytest

from _oracles import msq_gauss1d
from wavegrowth.cli import (
    DEFAULT_CONFIG,
    ConfigError,
    build_config,
    main,
    parse_config_text,
)
from wavegrowth.profiles import Profile
from wavegrowth.quadrature import QuadConfig

EXAMPLE_1D = """\
dimension = 1
profile.u0.kind = zero
profile.u1.kind = indicator_interval
profile.u1.radius = 1.0
profile.u1.amplitude = 2.0
samples.start = 1e2
samples.stop = 1e4
samples.count = 21
"""

LOCAL_2D = """\
dimension = 2
profile.u0.kind = zero
profile.u1.kind = gaussian
profile.u1.sigma = 1.0
grid.lam = 64.0
grid.n_points = 512
local.radius = 5.0
local.times = 20, 40
"""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# ------------------------------------------------------------- config text
def test_parse_config_text_basics():
    m = parse_config_text("a = 1\n# comment\n\nb.c = 2, 3  # trailing\n")
    assert m == {"a": "1", "b.c": "2, 3"}


def test_parse_config_text_rejects_duplicates():
    with pytest.raises(ConfigError, match="line 2: duplicate key 'a'"):
        parse_config_text("a = 1\na = 2\n")


def test_parse_config_text_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_text("a =\n")


def test_default_config_round_trips():
    cfg = build_config(parse_config_text(DEFAULT_CONFIG))
    assert cfg.dimension == 2
    assert cfg.pair.u0.is_zero and cfg.pair.u1.kind == "gaussian"
    assert (cfg.t_start, cfg.t_stop, cfg.t_count) == (1e3, 1e6, 25)
    assert cfg.lam == 256.0 and cfg.n_points == 2048
    assert cfg.local_times == (20.0, 50.0, 100.0, 200.0)
    assert cfg.times().shape == (25,)
    # the text states the defaults the dataclasses own, and cannot drift from them
    assert cfg.quad == QuadConfig()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ("dimension = 3", "must be 1 or 2"),
        ("dimension = 1.5", "expected an integer"),
        ("grid.n_points = 129", "even count"),
        ("grid.n_points = 32", "even count"),
        ("samples.count = 1", "at least 2"),
        ("samples.start = 10\nsamples.stop = 5", "0 < start < stop"),
        ("quadrature.max_panels = 512", "quadrature:"),
        ("local.radius = -1", "must be positive"),
        ("grid.lam = oops", "not a number"),
        ("extra.key = 1", "unknown key"),
        # keys of fixed proof constants and of the removed pointwise rule
        ("constants.sinc_floor = 0.5", "unknown key"),
        ("constants.sinc_sup = 1.0", "unknown key"),
        ("constants.moment_coeff = 1.4142135623730951", "unknown key"),
        ("constants.delta0 = 0.99", "unknown key"),
        ("quadrature.oscillation_rule = half-angle", "unknown key"),
    ],
)
def test_build_config_validation(overrides, message):
    text = "dimension = 1\nprofile.u0.kind = zero\nprofile.u1.kind = gaussian\nprofile.u1.sigma = 1.0\n"
    base = parse_config_text(text)
    base.update(parse_config_text(overrides))
    with pytest.raises(ConfigError, match=message):
        build_config(base)


@pytest.mark.parametrize(
    "line",
    [
        "quadrature.abs_tol = nan",
        "profile.u1.sigma = inf",
        "profile.u1.amplitude = -inf",
        "local.radius = inf",
        "grid.lam = nan",
        "local.times = 20, nan",
        "quadrature.max_panels = inf",
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, line):
    """nan and inf parse as floats but pass no range check: the CLI names the key and exits 2."""
    mapping = parse_config_text(DEFAULT_CONFIG)
    mapping.update(parse_config_text(line))
    path = tmp_path / "wavegrowth.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in mapping.items()))
    rc, out, err = _run(["config", "--config", str(path)])
    assert rc == 2 and "config OK" not in out
    assert f"{line.split(' = ')[0]}: not a finite number" in err


def test_profile_config_validation():
    with pytest.raises(ConfigError, match="required key missing"):
        build_config(parse_config_text("dimension = 1\nprofile.u0.kind = zero\nprofile.u1.kind = gaussian\n"))
    with pytest.raises(ConfigError, match="unknown profile kind"):
        build_config(parse_config_text("dimension = 1\nprofile.u0.kind = zero\nprofile.u1.kind = wavelet\n"))
    with pytest.raises(ConfigError, match="not a parameter"):
        build_config(
            parse_config_text(
                "dimension = 1\nprofile.u0.kind = zero\n"
                "profile.u1.kind = indicator_interval\nprofile.u1.radius = 1\nprofile.u1.sigma = 1\n"
            )
        )
    with pytest.raises(ConfigError, match="not 2-dimensional"):
        build_config(
            parse_config_text(
                "dimension = 2\nprofile.u0.kind = zero\n"
                "profile.u1.kind = indicator_interval\nprofile.u1.radius = 1\n"
            )
        )


# ---------------------------------------------------------- config command
def test_config_print_default():
    rc, out, _ = _run(["config", "--print-default"])
    assert rc == 0
    assert out == DEFAULT_CONFIG


def test_config_validate_ok(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(EXAMPLE_1D)
    rc, out, _ = _run(["config", "--config", str(path)])
    assert rc == 0
    assert "config OK" in out
    assert "indicator_interval" in out


def test_config_validate_rejects(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(EXAMPLE_1D + "constants.delta0 = 1.5\n")
    rc, _, err = _run(["config", "--config", str(path)])
    assert rc == 2
    assert "config error:" in err


def test_missing_config_file_is_a_config_error(tmp_path):
    rc, _, err = _run(["rates", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "config error:" in err


# ----------------------------------------------------------------- verify
def test_verify_zero_data(tmp_path):
    path = tmp_path / "zero.cfg"
    path.write_text("dimension = 1\nprofile.u0.kind = zero\nprofile.u1.kind = zero\n")
    rc, out, _ = _run(["verify", "--config", str(path)])
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "77.3333333333" in out
    assert "797.3333333333" in out
    assert "vacuous for zero data" in out
    assert lines[-1] == "all 5 checks passed"


SHIFTED_2D = """\
dimension = 2
profile.u0.kind = gaussian
profile.u0.sigma = 1.0
profile.u0.center = 1.0, 0.0
profile.u1.kind = gaussian
profile.u1.sigma = 1.0
"""


def _verify_lines(tmp_path, text=None):
    argv = ["verify"]
    if text is not None:
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        argv += ["--config", str(path)]
    rc, out, _ = _run(argv)
    return rc, {line[6:].split("  ", 1)[0].strip(): line for line in out.strip().splitlines()[:-1]}


def test_verify_a_2d_pair_with_different_centers(tmp_path):
    """The sandwich takes the cross term of two centres as a sphere
    average, so every line of a shifted pair runs and passes."""
    rc, lines = _verify_lines(tmp_path, SHIFTED_2D)
    assert rc == 0
    assert lines["spectral energy"].startswith("PASS")
    for t in ("100", "1000"):
        assert re.match(r"PASS +sandwich t=\S+ +all inequalities hold$", lines[f"sandwich t={t}"])


def test_rates_and_local_energy_run_a_2d_pair_with_different_centers(tmp_path):
    """``rates`` fits a shifted pair's norm curve, and ``local-energy`` runs
    it on the grid with residuals at roundoff."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SHIFTED_2D + "grid.lam = 64\ngrid.n_points = 512\nlocal.times = 20, 40\n")
    rc, out, _ = _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "rates")])
    assert rc == 0
    assert "(25 rows, 0 failed)" in out
    rc, _, _ = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "local")])
    assert rc == 0
    summary = json.loads((tmp_path / "local" / "local_energy.json").read_text())
    assert summary["lam"] == 64.0 and summary["max_residual"] <= 1e-12


def test_verify_energy_line_can_fail(tmp_path, monkeypatch):
    """A spectrum off by one part in a million moves E by far more than its
    error bar, against the closed-form E0."""
    sq_ft_sphere = Profile.sq_ft_sphere
    monkeypatch.setattr(Profile, "sq_ft_sphere", lambda self, rho: (1.0 + 1e-6) * sq_ft_sphere(self, rho))
    rc, lines = _verify_lines(tmp_path)
    assert rc == 1
    assert lines["spectral energy"].startswith("FAIL")


def test_verify_skips_an_energy_whose_tail_exceeds_the_budget(tmp_path):
    """The indicator's spectrum decays too slowly for the tolerance within
    the panel budget: the energy line is skipped rather than passed on a
    truncated integral."""
    rc, lines = _verify_lines(tmp_path, EXAMPLE_1D)
    assert rc == 0
    assert re.search(r"^PASS  spectral energy +skipped: panel budget .* tail march", lines["spectral energy"])


# ------------------------------------------------------------------ rates
@pytest.fixture(scope="module")
def rates_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("rates")
    cfg = base / "exp.cfg"
    cfg.write_text(EXAMPLE_1D)
    out_dir = base / "out"
    rc, out, _ = _run(["rates", "--config", str(cfg), "--out", str(out_dir)])
    return rc, cfg, out_dir, out


def test_rates_takes_the_data_norms_once(tmp_path, monkeypatch):
    """The fit and the envelope rows share one ``moments`` call, which for
    a shifted velocity integrates its weighted L1 norm by quadrature."""
    from wavegrowth import cli

    calls = []
    real = cli.moments
    monkeypatch.setattr(cli, "moments", lambda pair: calls.append(pair) or real(pair))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SHIFTED_2D.replace("u0.center", "u1.center"))
    rc, _, _ = _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0 and len(calls) == 1
    assert json.loads((tmp_path / "out" / "rate_fit.json").read_text())["log_linear_floor"]["floor"] > 0.0


def test_rates_exit_and_stdout(rates_run):
    rc, _, out_dir, out = rates_run
    assert rc == 0
    assert f"wrote {out_dir / 'norm_curve.csv'} (21 rows, 0 failed)" in out
    assert "rate_fit.json" in out and "(21 rows)" in out


def test_rates_norm_curve_csv(rates_run):
    _, _, out_dir, _ = rates_run
    lines = (out_dir / "norm_curve.csv").read_text().splitlines()
    assert lines[0] == "t,M,method,error,panels"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(100.0)
    assert float(first[1]) == pytest.approx(math.sqrt(8.0 * 99.0 + 16.0 / 3.0), rel=1e-9)
    assert first[2] == "spectral"
    for row in (line.split(",") for line in lines[1:]):
        # the error is that of the Fourier-side integral (2 pi)^n M^2: past
        # the support radius 1, d'Alembert's linear law, its roundoff alone
        assert 0.0 < float(row[3]) <= 1e-14 * 2.0 * math.pi * float(row[1]) ** 2
        assert int(row[4]) == 0


def test_rates_norm_curve_csv_counts_the_panels_below_the_support(tmp_path):
    """Times below the support radius take the norm integrand: each row
    reports its panels and the Fourier-side error within the tolerance, and
    M^2 = 8 t^2 - 8 t^3 / 3, the example's norm while its fronts overlap."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXAMPLE_1D.replace("samples.start = 1e2", "samples.start = 0.05").replace("samples.stop = 1e4", "samples.stop = 0.95"))
    _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = (tmp_path / "out" / "norm_curve.csv").read_text().splitlines()
    assert len(lines) == 22
    for t, m, method, error, panels in (line.split(",") for line in lines[1:]):
        t, m = float(t), float(m)
        assert method == "spectral"
        assert 0.0 < float(error) <= 1e-9 * 2.0 * math.pi * m**2
        assert int(panels) > 0
        assert m == pytest.approx(math.sqrt(8.0 * t * t - 8.0 * t**3 / 3.0), rel=1e-9)


def test_rates_fit_report(rates_run):
    _, _, out_dir, _ = rates_run
    rep = json.loads((out_dir / "rate_fit.json").read_text())
    assert rep["failures"] == 0 and rep["samples"] == 21
    assert rep["selected"]["model"] == "power"
    a, alpha = rep["selected"]["params"]
    assert 0.49 < alpha < 0.51
    assert a == pytest.approx(math.sqrt(8.0), rel=2e-2)
    assert {c["model"] for c in rep["candidates"]} == {"log_linear", "bounded"}
    assert rep["stability"] == {"trials": 20, "agreement": 20, "noise": 0.01, "seed": 0}


def test_rates_bounds_csv(rates_run):
    _, _, out_dir, _ = rates_run
    lines = (out_dir / "bounds.csv").read_text().splitlines()
    assert lines[0].startswith("t,K1_lb,K2_ub,") and lines[0].endswith(",final_ub,T_lb")
    assert len(lines) == 22
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["final_lb"]) <= 2.0 * math.pi * (8.0 * 99.0 + 16.0 / 3.0) <= float(row["final_ub"])
    assert row["T_lb"] == "nan"


def test_rates_are_deterministic(rates_run):
    rc, cfg, out_dir, _ = rates_run
    assert rc == 0
    names = ("norm_curve.csv", "rate_fit.json", "bounds.csv")
    baseline = {n: (out_dir / n).read_bytes() for n in names}
    redo = out_dir.parent / "redo"
    rc2, _, _ = _run(["rates", "--config", str(cfg), "--out", str(redo)])
    assert rc2 == 0
    for n in names:
        assert (redo / n).read_bytes() == baseline[n]


def test_rates_records_its_seed(rates_run):
    """``--seed`` seeds the noisy refits alone: the stability block records
    it, and the norm curve and envelope rows keep their bytes."""
    _, cfg, out_dir, _ = rates_run
    seeded = out_dir.parent / "seeded"
    rc, _, _ = _run(["rates", "--config", str(cfg), "--out", str(seeded), "--seed", "1"])
    assert rc == 0
    stability = json.loads((seeded / "rate_fit.json").read_text())["stability"]
    assert stability["seed"] == 1 and stability["trials"] == 20
    for name in ("norm_curve.csv", "bounds.csv"):
        assert (seeded / name).read_bytes() == (out_dir / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--out", "d"],
        ["config", "--out", "d"],
        ["verify", "--seed", "1"],
        ["bounds", "--seed", "1"],
        ["local-energy", "--seed", "1"],
        ["config", "--seed", "1"],
    ],
)
def test_a_flag_is_refused_where_its_command_ignores_it(argv):
    """``--out`` belongs to the commands that write files, ``--seed`` to
    ``rates`` alone; elsewhere the parser exits 2 before any work."""
    with pytest.raises(SystemExit) as info, contextlib.redirect_stderr(io.StringIO()) as err:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in err.getvalue()


def test_rates_with_too_few_samples_fails(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXAMPLE_1D.replace("samples.count = 21", "samples.count = 10"))
    rc, _, _ = _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    rep = json.loads((tmp_path / "out" / "rate_fit.json").read_text())
    assert "at least 20" in rep["fit_error"]
    assert "selected" not in rep
    assert len((tmp_path / "out" / "norm_curve.csv").read_text().splitlines()) == 11


def _rates_under_a_tight_budget(tmp_path, base: str, rel_tol: str, abs_tol: str = "1e-13"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        base.replace("samples.start = 1e2", "samples.start = 1")
        + f"quadrature.rel_tol = {rel_tol}\nquadrature.abs_tol = {abs_tol}\nquadrature.max_panels = 1024\n"
    )
    rc, out, _ = _run(["rates", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    rows = [line.split(",") for line in (tmp_path / "out" / "norm_curve.csv").read_text().splitlines()[1:]]
    failed = [row for row in rows if row[2] == "error"]
    assert 0 < len(failed) < len(rows) and all(row[4] == "" for row in failed)
    assert f"({len(rows)} rows, {len(failed)} failed)" in out
    rep = json.loads((tmp_path / "out" / "rate_fit.json").read_text())
    assert rep["failures"] == len(failed) and rep["samples"] == len(rows)
    return rows


def test_rates_records_failed_times(tmp_path):
    """Under a tight budget the times below the support radius 1000 fail on
    the initial partition, before any estimate exists; each becomes an error
    row and the other times keep their values, d'Alembert's linear law
    with no panel: R^3 (8 (t/R - 1) + 16/3) for the radius-R interval of
    height 2."""
    radius = 1e3
    base = EXAMPLE_1D.replace("profile.u1.radius = 1.0", f"profile.u1.radius = {radius}")
    rows = _rates_under_a_tight_budget(tmp_path, base, "1e-13")
    for t, m, method, error, panels in rows:
        if method == "error":
            assert float(t) < radius and m == error == "nan"
        else:
            s = float(t) / radius
            assert float(error) > 0.0 and int(panels) == 0
            assert float(m) == pytest.approx(math.sqrt(radius**3 * (8.0 * (s - 1.0) + 16.0 / 3.0)), rel=1e-14)


def test_rates_records_the_estimate_of_failed_times(tmp_path):
    """Times that exhaust the panel budget, asked for a tolerance below
    roundoff, keep their best estimate and its error indicator in the
    error row."""
    indicator = "indicator_interval\nprofile.u1.radius = 1.0\nprofile.u1.amplitude = 2.0"
    gauss = EXAMPLE_1D.replace(indicator, "gaussian\nprofile.u1.sigma = 1.0")
    rows = _rates_under_a_tight_budget(tmp_path, gauss, "5e-17", "1e-300")
    for t, m, method, error, panels in rows:
        assert float(error) > 0.0
        m_closed = math.sqrt(msq_gauss1d(float(t)))
        if method == "spectral":
            assert int(panels) > 0
            assert float(m) == pytest.approx(m_closed, rel=1e-9)
        else:
            # the amplitudes' part beyond the marched blocks is below 1e-9 of
            # the norm here, so the estimate stays below it
            assert 0.0 < float(m) <= m_closed * (1.0 + 1e-9)
            # and the estimate covers what the unmarched blocks leave out
            assert 2.0 * math.pi * (m_closed**2 - float(m) ** 2) <= float(error)


# ----------------------------------------------------------------- bounds
def test_bounds_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXAMPLE_1D.replace("samples.count = 21", "samples.count = 5"))
    rc, out, _ = _run(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    pass_lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(pass_lines) == 5
    assert all("22 inequalities" in line for line in pass_lines)
    lines = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert len(lines) == 6


# ----------------------------------------------------------- local-energy
def test_local_energy_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LOCAL_2D)
    rc, out, _ = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "local_energy.json").read_text())
    # a centred gaussian runs grid-free: no grid keys
    assert set(summary) == {
        "R", "K0", "E0", "I02", "weighted_h1", "c_assembled", "c_fitted",
        "min_f_slack", "min_prop41_slack", "max_residual", "min_envelope_slack",
    }
    assert summary["K0"] == summary["E0"] == pytest.approx(math.pi / 2.0, rel=1e-10)
    assert summary["max_residual"] <= 1e-12
    assert summary["min_prop41_slack"] > 0.0
    assert summary["min_envelope_slack"] > 0.0
    assert summary["R"] == 5.0
    lines = (tmp_path / "out" / "local_energy.csv").read_text().splitlines()
    assert lines[0] == "t,E_R,F,G,residual,slack,envelope"
    assert len(lines) == 3
    assert [float(line.split(",")[0]) for line in lines[1:]] == [20.0, 40.0]


def test_local_energy_grid_run_reports_the_grid(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LOCAL_2D + "profile.u1.center = 0.5, 0\n")
    rc, _, _ = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "local_energy.json").read_text())
    assert summary["lam"] == 64.0 and summary["n_points"] == 512
    assert 0.0 <= summary["spectral_tail"] <= 1e-20
    assert summary["max_residual"] <= 1e-12


def test_local_energy_rejects_bad_times(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LOCAL_2D.replace("local.times = 20, 40", "local.times = 4"))
    rc, _, err = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "does not exceed" in err
    # a shifted gaussian runs on the grid, whose window ends near lam - r_eff - R
    shifted = LOCAL_2D + "profile.u1.center = 0.5, 0\n"
    cfg.write_text(shifted.replace("local.times = 20, 40", "local.times = 300"))
    rc, _, err = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "horizon" in err
    # the centred gaussian runs grid-free and has no window
    cfg.write_text(LOCAL_2D.replace("local.times = 20, 40", "local.times = 300"))
    rc, _, _ = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0


def test_local_energy_names_an_unresolved_data_spectrum(tmp_path):
    """The indicator's spectrum rings at the box edge long before the wave
    gets there; the message names the data, not the box."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(EXAMPLE_1D + "grid.lam = 64.0\ngrid.n_points = 512\nlocal.times = 20\n")
    rc, _, err = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "at the box boundary" in err
    assert "does not resolve the data spectrum" in err
    assert not (tmp_path / "out" / "local_energy.csv").exists()


def test_local_energy_rejects_zero_data(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LOCAL_2D.replace("profile.u1.kind = gaussian\nprofile.u1.sigma = 1.0", "profile.u1.kind = zero"))
    rc, _, err = _run(["local-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "nonzero data" in err
    assert not (tmp_path / "out" / "local_energy.csv").exists()
