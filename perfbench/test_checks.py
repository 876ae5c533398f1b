"""Each output check passes on real program output and fails on a
deliberately corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import snclab.cli as cli  # noqa: E402
from snclab import channel, decoder, ensemble  # noqa: E402
from snclab.channel import transmit, validate_params  # noqa: E402
from snclab.decoder import DecoderConfig, decode  # noqa: E402
from snclab.ensemble import build_code, encode  # noqa: E402
from snclab.linalg import Subspace  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DeviationGrid, Simulate, hooks, read_csv, rho_star  # noqa: E402

SMALL = ["--N", "24", "--lambda", "1/2", "--omega", "1/3", "--k", "3", "--b", "6"]


def small_trial(q, seed):
    """One N = 24 trial: (code, info, x, y, decode result)."""
    params = validate_params(q, 24, Fraction(1, 2), Fraction(1, 3))
    rng = np.random.default_rng(seed)
    code = build_code(params, 3, 6, rng)
    info = rng.integers(0, q, size=code.info_length(), dtype=np.int64)
    x = encode(code, info)
    y = transmit(x, params, rng).y
    return code, info, x, y, decode(y, code, DecoderConfig(max_iters=20))


def decoded_trial(q):
    for seed in range(200):
        trial = small_trial(q, seed)
        if trial[4].determined[: trial[0].n_v].any():
            return trial
    raise AssertionError("no decodable trial")


def test_rank_matches_brute_force():
    rng = np.random.default_rng(0)
    for q in (2, 3, 5):
        for _ in range(50):
            a = rng.integers(0, q, size=(3, 3))
            # rank from the number of vectors in the row space
            span = {tuple(np.array(c) @ a % q) for c in np.ndindex(*(q,) * 3)}
            assert q ** checks.rank_mod(a, q) == len(span)


@pytest.mark.parametrize("q", [2, 3])
def test_codeword_check(q):
    code, _, x, _, _ = small_trial(q, 1)
    edges, labels = code.graph.edges, code.labels
    assert checks.check_codeword(x, edges, labels, code.n_v, q) == []
    flipped = x.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % q
    assert checks.check_codeword(flipped, edges, labels, code.n_v, q)
    padded = x.copy()
    padded[-1, 0] = 1
    assert checks.check_codeword(padded, edges, labels, code.n_v, q)


@pytest.mark.parametrize("q", [2, 3])
def test_decoded_rows_check(q):
    code, _, x, _, res = decoded_trial(q)
    assert checks.check_decoded_rows(res.x_hat, res.determined, x, code.n_v) == []
    v = int(np.flatnonzero(res.determined[: code.n_v])[0])
    x_hat = res.x_hat.copy()
    x_hat[v, 0] = (x_hat[v, 0] + 1) % q
    assert checks.check_decoded_rows(x_hat, res.determined, x, code.n_v)


@pytest.mark.parametrize("q", [2, 3])
def test_info_length_check(q):
    code, info, _, _, _ = small_trial(q, 2)
    g, m = code.graph, code.params.m
    assert checks.check_info_length(len(info), g.edges, code.labels, g.n_v, g.n_c, m, q) == []
    assert checks.check_info_length(len(info) + 1, g.edges, code.labels, g.n_v, g.n_c, m, q)
    assert checks.check_info_length(m * (g.n_v - g.n_c) - 1, g.edges, code.labels, g.n_v, g.n_c, m, q)


def test_noise_dim_check():
    code, _, _, y, res = small_trial(2, 3)
    n_zero, s = code.n_zero_rows, code.params.s
    record = {"trial": 0, "noise_dim": res.noise_space_dim, "noise_ok": res.noise_space_ok}
    assert checks.check_noise_dim(record, y, n_zero, s, 2) == []
    assert checks.check_noise_dim(dict(record, noise_dim=record["noise_dim"] - 1), y, n_zero, s, 2)
    assert checks.check_noise_dim(dict(record, noise_ok=not record["noise_ok"]), y, n_zero, s, 2)


def test_summary_check(tmp_path):
    prefix = str(tmp_path / "sim")
    assert cli.main(["simulate", "--q", "2", *SMALL, "--trials", "6", "--seed", "4", "--out", prefix]) == 0
    records = [json.loads(line) for line in open(prefix + ".trials.jsonl")]
    (summary,) = read_csv(prefix + ".summary.csv")
    assert checks.check_summary(summary, records) == []
    for key, delta in (("block_errors", 1), ("span_failures", -1), ("trials", 1), ("ser", 1e-3)):
        bad = dict(summary, **{key: str(float(summary[key]) + delta)})
        assert checks.check_summary(bad, records), key


@pytest.mark.parametrize("skip_failed", [False, True])
def test_simulate_workload_check(tmp_path, monkeypatch, skip_failed):
    """The workload's checks hold whether simulate encodes, transmits and
    decodes every trial or only the trials that recover the noise space,
    and fail when the captured calls match neither."""
    workload = Simulate(q=2, trials=3, recovered=1, fixed_code=True)
    if skip_failed:
        run_trial = cli._run_trial
        unhooked = {"encode": ensemble.encode, "transmit": channel.transmit, "decode": decoder.decode}

        def skipping(trial, args, params, shared_code):
            """Trials that miss the noise space call the codec out of the capture's sight."""
            if checks.rank_mod(workload.noise_rows(args.seed)[trial], params.q) == params.s:
                return run_trial(trial, args, params, shared_code)
            hooked = {name: getattr(cli, name) for name in unhooked}
            for name, fn in unhooked.items():
                setattr(cli, name, fn)
            try:
                return run_trial(trial, args, params, shared_code)
            finally:
                for name, fn in hooked.items():
                    setattr(cli, name, fn)

        monkeypatch.setattr(cli, "_run_trial", skipping)
    prefix = str(tmp_path / "sim")
    with workload.capture() as captured:
        assert cli.main(workload.argv(7, 0, prefix)) == 0
    calls = 1 if skip_failed else 3
    assert {kind: len(c) for kind, c in captured.items()} == {"encode": calls, "transmit": calls, "decode": calls}
    assert workload.check(prefix, captured) == []
    extra = dict(captured, decode=captured["decode"] * 2)
    assert workload.check(prefix, extra)
    x = captured["encode"][-1]["x"].copy()
    x[0, 0] ^= 1
    flipped = dict(captured, encode=captured["encode"][:-1] + [dict(captured["encode"][-1], x=x)])
    assert workload.check(prefix, flipped)


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """A 300-member de-population run at q=2, m=36, D=12: (rows, generations)."""
    path = str(tmp_path_factory.mktemp("de") / "de.csv")
    generations = []
    with hooks(cli, population_de_run=lambda args, states: generations.extend(s.dims for s in states)):
        rc = cli.main(["de-population", "--q", "2", "--N", "72", *SMALL[2:], "--iters", "6",
                       "--pop-size", "300", "--seed", "5", "--out", path])
    assert rc == 0
    return read_csv(path), generations


def test_population_csv_check(population):
    rows, generations = population
    assert checks.check_population_csv(rows, generations, 12) == []
    shifted = [dict(r) for r in rows]
    shifted[2]["frac_zero"] = str(float(shifted[2]["frac_zero"]) + 1 / 300)
    assert checks.check_population_csv(shifted, generations, 12)


def test_population_law_check(population):
    rows, _ = population
    exact = checks.ExactDe(rho_star(3, 6), 36, 12, 2)
    assert checks.check_population_law(rows, exact, 300) == []
    shifted = [dict(r) for r in rows]
    shifted[2]["frac_zero"] = str(float(shifted[2]["frac_zero"]) + 0.25)
    assert checks.check_population_law(shifted, exact, 300)
    lagged = [dict(r) for r in rows]
    lagged[2] = dict(rows[1], t=rows[2]["t"])  # generation 2 replaced by generation 1
    assert checks.check_population_law(lagged, exact, 300)


def test_first_generation_tail_is_alpha_1():
    rho = rho_star(3, 6)
    tail = checks.first_generation_tail(rho, 36, 12, 2, 6)
    assert abs(tail - Fraction(3, 5)) < 1e-9
    wrong = {**rho, 3: rho[3] - Fraction(1, 10), 4: rho[4] + Fraction(1, 10)}
    assert abs(checks.first_generation_tail(wrong, 36, 12, 2, 6) - Fraction(3, 5)) > 1e-9


def test_meet_law_sums_to_one():
    for a, b, m, q in [(3, 4, 8, 2), (12, 12, 36, 2), (5, 7, 9, 3), (0, 3, 5, 2), (6, 6, 6, 3)]:
        assert sum(checks.meet_law(a, b, m, q)) == 1


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """A max_m = 4 deviation grid: (report, cells)."""
    path = tmp_path_factory.mktemp("grid") / "grid"
    workload = DeviationGrid(max_m=4, samples=64)
    with workload.capture() as cells:
        assert cli.main(workload.argv(6, 0, str(path))) == 0
    return json.loads(Path(str(path) + ".json").read_text()), cells


def test_oracle_report_check(grid):
    report, cells = grid
    assert checks.check_oracle_report(report, 4, len(cells)) == []
    off = json.loads(json.dumps(report))
    off["oracles"][0]["cases"] += 1
    assert checks.check_oracle_report(off, 4, len(cells))
    assert checks.check_oracle_report(report, 4, len(cells) - 1)


def test_deviation_samples_check(grid):
    _, cells = grid
    assert checks.check_deviation_samples(cells) == []
    # q=2, m=4, d1=d2=2: the meet is {0} with probability 16/35; report 2 always
    idx = next(i for i, c in enumerate(cells) if c[:4] == (2, 4, 2, 2))
    skewed = list(cells)
    skewed[idx] = cells[idx][:4] + (np.full(64, 2),)
    assert checks.check_deviation_samples(skewed)
    outside = list(cells)
    outside[idx] = cells[idx][:4] + (np.full(64, 3),)
    assert checks.check_deviation_samples(outside)


def test_traced_call_leaves_outputs_unchanged(tmp_path):
    argv = ["simulate", "--q", "3", *SMALL, "--trials", "4", "--seed", "8", "--fixed-code"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    tracer = Tracer()
    originals = (cli.decode, cli.encode, cli.transmit, vars(Subspace)["from_rows"])
    with tracer.installed():
        assert tracer.root(cli.main, argv + ["--out", str(tmp_path / "b")]) == 0
    assert (cli.decode, cli.encode, cli.transmit, vars(Subspace)["from_rows"]) == originals
    outputs = [[str(tmp_path / (p + s)) for s in (".trials.jsonl", ".summary.csv")] for p in "ab"]
    assert checks.check_same_outputs(*outputs) == []
    with open(outputs[1][1], "a") as fh:
        fh.write("\n")
    assert checks.check_same_outputs(*outputs)
    metrics = tracer.layer_metrics(1, 0, 0.0)
    assert metrics["decoder.decode.calls"] == 4
    assert metrics["ensemble.system_rref.calls"] == 1
    assert metrics["channel.transmit.calls"] == 4
    assert not tracer.missing
