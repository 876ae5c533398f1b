"""CLI: schemas, determinism, rational parsing, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import snclab.cli as cli
from snclab.channel import transmit, validate_params
from snclab.cli import main, parse_rational
from snclab.decoder import DecoderConfig, decode, symbol_error_rate, wrong_determinations
from snclab.ensemble import build_code, encode


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _scipy_stats_loaded_after(code):
    """Run ``code`` in a fresh interpreter; was scipy.stats imported?"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += "; import sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1] == "True"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the CLI's import time, and no command needs it
    assert not _scipy_stats_loaded_after("import snclab.cli")


def test_simulate_leaves_scipy_stats_unloaded(tmp_path):
    # simulate's confidence interval takes its beta quantiles from scipy.special
    argv = ["simulate", "--q", "2", "--N", "24", "--lambda", "1/2", "--omega", "1/3", "--k", "3",
            "--b", "6", "--trials", "3", "--iters", "5", "--out", str(tmp_path / "run")]
    assert not _scipy_stats_loaded_after(f"import snclab.cli; assert snclab.cli.main({argv!r}) == 0")
    assert (tmp_path / "run.summary.csv").exists()


def test_clopper_pearson_matches_beta_quantiles():
    # bit for bit the interval scipy.stats.beta.ppf gives, for every k <= n <= 200
    from scipy.stats import beta

    pairs = np.array([(k, n) for n in range(1, 201) for k in range(n + 1)])
    k, n = pairs[:, 0], pairs[:, 1]
    alpha = 1 - 0.99
    with np.errstate(invalid="ignore"):
        lo = np.where(k == 0, 0.0, beta.ppf(alpha / 2, k, n - k + 1))
        hi = np.where(k == n, 1.0, beta.ppf(1 - alpha / 2, k + 1, n - k))
    for (ki, ni), want in zip(pairs.tolist(), zip(lo.tolist(), hi.tolist())):
        assert cli._clopper_pearson(ki, ni) == want


def test_parse_rational():
    assert parse_rational("1/3") == Fraction(1, 3)
    assert parse_rational("2") == Fraction(2)
    for bad in ("0.5", "1e-3", "1.0/2", "abc", "1/0"):
        with pytest.raises(Exception):
            parse_rational(bad)


def test_capacity_curve_values(capsys):
    code, out, _ = run_cli(["capacity-curve", "--lambda", "1/6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: snclab.capacity-curve.v1"
    assert lines[2] == "omega,capacity,singleton,achievable_k"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[3:]}
    assert rows["1/5"][1] == "0.64"
    assert rows["1/5"][2] == "0.5"
    # dot set rows for k = 6..8
    assert rows["5/6"][3] == "6"
    assert rows["5/7"][3] == "7"
    assert rows["5/8"][3] == "8"
    # capacity >= singleton wherever singleton is defined
    for parts in rows.values():
        if parts[2]:
            assert float(parts[1]) >= float(parts[2]) - 1e-15


def test_capacity_curve_golden_header_and_determinism(capsys):
    _, out1, _ = run_cli(["capacity-curve", "--lambda", "1/2"], capsys)
    _, out2, _ = run_cli(["capacity-curve", "--lambda", "1/2"], capsys)
    assert out1 == out2


def test_degree_dist_report(capsys):
    code, out, _ = run_cli(
        ["degree-dist", "--k", "3", "--b", "6", "--lambda", "1/2", "--omega", "1/3"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["integral"] == "4/15"
    assert rep["p_prime_1"] == "15/4"
    assert rep["design_rate"] == "7/45"
    assert rep["encoder_condition"] is True
    assert rep["rho"] == {"3": "2/5", "4": "1/3", "5": "1/6", "6": "1/10"}


def test_degree_dist_k2_b5(capsys):
    code, out, _ = run_cli(["degree-dist", "--k", "2", "--b", "5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["rho"] == {"2": "1/4", "3": "1/2", "4": "1/6", "5": "1/12"}


def test_de_scalar_rows(capsys):
    code, out, _ = run_cli(["de-scalar", "--k", "3", "--b", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "t,alpha"
    assert lines[3] == "0,1.0"
    assert lines[4] == "1,0.6"
    assert lines[5].startswith("2,0.219456")


def test_de_scalar_minimal_truncation(capsys):
    # k=3, b=4: rho_4 = 1/3, rho_3 = 2/3, so alpha_1 = F(1) = 1/3
    code, out, _ = run_cli(["de-scalar", "--k", "3", "--b", "4", "--iters", "4"], capsys)
    assert code == 0
    alpha_1 = float(out.splitlines()[4].split(",")[1])
    assert abs(alpha_1 - 1 / 3) < 1e-15


def test_de_population_zero_noise(capsys):
    code, out, _ = run_cli(
        ["de-population", "--q", "2", "--N", "12", "--lambda", "1/2", "--omega", "0",
         "--k", "3", "--b", "6", "--iters", "3", "--pop-size", "100"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "t,frac_zero,frac_full,frac_interior,mean_dim"
    for ln in lines[3:]:
        parts = ln.split(",")
        assert parts[1] == "1.0"
        assert parts[4] == "0.0"


def test_simulate_noiseless_and_determinism(tmp_path, capsys):
    base = [
        "simulate", "--q", "2", "--N", "12", "--lambda", "1/2", "--omega", "0",
        "--k", "3", "--b", "6", "--trials", "10", "--iters", "5", "--seed", "9",
    ]
    code, _, _ = run_cli(base + ["--out", str(tmp_path / "a")], capsys)
    assert code == 0
    summary = (tmp_path / "a.summary.csv").read_text()
    header = summary.splitlines()[2].split(",")
    row = summary.splitlines()[3].split(",")
    rec = dict(zip(header, row))
    assert rec["ser"] == "0.0"
    assert rec["block_errors"] == "0"
    assert rec["wrong_rows"] == "0"

    code, _, _ = run_cli(base + ["--out", str(tmp_path / "b"), "--workers", "3"], capsys)
    assert code == 0
    assert (tmp_path / "b.summary.csv").read_text() == summary
    assert (tmp_path / "b.trials.jsonl").read_text() == (tmp_path / "a.trials.jsonl").read_text()


def test_simulate_trial_log_schema(tmp_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--q", "2", "--N", "24", "--lambda", "1/2", "--omega", "1/3",
         "--k", "3", "--b", "6", "--trials", "5", "--iters", "10", "--seed", "1",
         "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "c.trials.jsonl").read_text().splitlines()
    assert len(lines) == 5
    for i, ln in enumerate(lines):
        rec = json.loads(ln)
        assert rec["trial"] == i
        assert set(rec) == {
            "determined", "dims", "fault", "iterations", "n_rows", "noise_dim",
            "noise_ok", "params", "seed", "ser", "symbol_errors", "trial", "wrong",
        }
        assert rec["seed"] == 1
        assert rec["params"].startswith("q=2 N=24")
        assert rec["wrong"] == 0


def _pipeline_record(trial, seed, params, k, b, iters):
    """One trial record made by build -> encode -> transmit -> decode."""
    def rng(*key):
        return np.random.default_rng(np.random.SeedSequence(list(key)))

    code = build_code(params, k, b, rng(seed, 1, trial))
    x = encode(code, rng(seed, 2, trial).integers(0, params.q, size=code.info_length(), dtype=np.int64))
    res = decode(transmit(x, params, rng(seed, 3, trial)).y, code, DecoderConfig(max_iters=iters))
    ser = symbol_error_rate(res, x)
    return {
        "trial": trial,
        "seed": seed,
        "params": f"q={params.q} N={params.N} lambda={params.lam} omega={params.omega} "
                  f"k={k} b={b} iters={iters}",
        "iterations": res.iterations_used,
        "noise_ok": bool(res.noise_space_ok),
        "noise_dim": int(res.noise_space_dim),
        "fault": False,
        "determined": int(res.determined[: res.n_constrained].sum()),
        "n_rows": res.n_constrained,
        "symbol_errors": int(round(ser * res.n_constrained)),
        "ser": ser,
        "wrong": wrong_determinations(res, x),
        "dims": [[s["t"], s["mean_dim"], s["max_dim"], s["determined"]] for s in res.stats],
    }


def test_simulate_skips_codec_on_span_failed_trials(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("build_code", "encode", "decode", "transmit"):
        monkeypatch.setattr(cli, name, counted(name))
    trials, seed, iters = 12, 3, 10
    code, _, _ = run_cli(
        ["simulate", "--q", "2", "--N", "24", "--lambda", "1/2", "--omega", "1/3",
         "--k", "3", "--b", "6", "--trials", str(trials), "--iters", str(iters),
         "--seed", str(seed), "--out", str(tmp_path / "s")],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "s.trials.jsonl").read_text().splitlines()
    recovered = sum(json.loads(ln)["noise_ok"] for ln in lines)
    assert 0 < recovered < trials  # the seed shows both outcomes
    assert calls == {"build_code": recovered, "encode": recovered, "decode": recovered,
                     "transmit": trials}
    params = validate_params(2, 24, Fraction(1, 2), Fraction(1, 3))
    for i, line in enumerate(lines):
        assert line == json.dumps(_pipeline_record(i, seed, params, 3, 6, iters), sort_keys=True)


def test_oracle_rank_count(tmp_path, capsys):
    code, out, _ = run_cli(["oracle", "--which", "rank-count"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["oracles"][0]["cases"] > 0


def test_oracle_subspace_ops(capsys):
    code, out, _ = run_cli(["oracle", "--which", "subspace-ops"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_oracle_deviation_bounds_small_grid(capsys):
    code, out, _ = run_cli(
        ["oracle", "--which", "deviation-bounds", "--max-m", "6", "--trials", "64"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["oracles"][0]["cases"] == 2 * sum((m + 1) ** 2 for m in range(1, 7)) * 5


def test_validation_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--q", "2", "--N", "10", "--lambda", "1/3", "--omega", "1/3",
         "--k", "3", "--b", "6"],
        capsys,
    )
    assert code == 1
    assert "not an integer" in err
    # omega = 1 admits no code; span-failed trials build none, so simulate
    # must reject the parameters up front
    code, _, err = run_cli(
        ["simulate", "--q", "2", "--N", "12", "--lambda", "1/2", "--omega", "1",
         "--k", "3", "--b", "6", "--trials", "3", "--out", str(tmp_path / "v")],
        capsys,
    )
    assert code == 1
    assert "omega'" in err
    assert not (tmp_path / "v.trials.jsonl").exists()


def test_float_rates_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity-curve", "--lambda", "0.5"])
    assert exc.value.code == 1


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(
        ["capacity-curve", "--lambda", "1/6", "--out", "/nonexistent-dir/x.csv"], capsys
    )
    assert code == 3
