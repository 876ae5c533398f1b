"""The benchmark's workloads.

Each workload turns (benchmark seed, round index, output prefix) into one
``snclab.cli.main`` argument list, captures from outside the values its
checks need (by wrapping names in the ``snclab.cli`` namespace for the
duration of a call, returning the program's own results unchanged), and
checks the call's outputs with ``checks``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
from fractions import Fraction
from typing import Dict, List

import numpy as np
import snclab.cli as cli
from snclab.channel import transmit, validate_params

import checks

N, LAM, OMEGA, K, B = 72, Fraction(1, 2), Fraction(1, 3), 3, 6
L = int(LAM * N)  # payload rows l = 36
M = N - L  # row length m = 36
S = int(OMEGA * L)  # noise rank s = D = 12, also the zero-padded row count
CHANNEL = ["--N", str(N), "--lambda", str(LAM), "--omega", str(OMEGA), "--k", str(K), "--b", str(B)]


class WorkloadError(RuntimeError):
    """The workload's inputs could not be constructed as specified."""


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def rho_star(k: int, b: int) -> Dict[int, Fraction]:
    """Edge-perspective rho*(k, b): (k-1)/((i-1)(i-2)) on k+1..b, rest on k."""
    rho = {i: Fraction(k - 1, (i - 1) * (i - 2)) for i in range(k + 1, b + 1)}
    rho[k] = 1 - sum(rho.values())
    return rho


@contextlib.contextmanager
def hooks(module, **on_result):
    """Replace module.<name> by a wrapper that passes (args, result) to
    on_result[name] after each call."""
    originals = {name: getattr(module, name) for name in on_result}

    def wrap(fn, callback):
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            callback(args, out)
            return out

        return hooked

    try:
        for name, callback in on_result.items():
            setattr(module, name, wrap(originals[name], callback))
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


class Workload:
    """Defaults: one output file per round, no encodes."""

    suffix = ""

    def outputs(self, prefix: str) -> List[str]:
        return [prefix + self.suffix]

    def useful_encodes(self, prefix: str) -> int:
        return 0


class Simulate(Workload):
    """``simulate`` with a fixed share of trials that recover the noise space.

    Trial i draws its noise from the stream (seed, 3, i), so the benchmark
    predicts recovery by sending a zero word through ``snclab.channel.transmit``
    on that stream; it takes the first candidate CLI seed whose trials hold
    exactly ``recovered`` recoveries.  The check confirms the prediction.

    The program may encode, transmit and decode every trial, or only the
    trials that recover the noise space; the checks hold either way.
    """

    def __init__(self, q: int, trials: int, recovered: int, fixed_code: bool):
        self.q, self.trials, self.recovered, self.fixed_code = q, trials, recovered, fixed_code

    def noise_rows(self, cli_seed: int) -> List[np.ndarray]:
        """The zero-padded rows of y for each trial: the noise there, since
        a codeword is zero on those rows."""
        params = validate_params(self.q, N, LAM, OMEGA)
        zero = np.zeros((L, M), dtype=np.int64)
        return [
            transmit(zero, params, np.random.default_rng(np.random.SeedSequence([cli_seed, 3, trial]))).y[-S:]
            for trial in range(self.trials)
        ]

    def argv(self, seed: int, rnd: int, prefix: str) -> List[str]:
        for j in itertools.count():
            cli_seed = derive_seed(seed, rnd, j)
            recoveries = sum(checks.rank_mod(rows, self.q) == S for rows in self.noise_rows(cli_seed))
            if recoveries == self.recovered:
                break
        return (
            ["simulate", "--q", str(self.q), *CHANNEL, "--trials", str(self.trials),
             "--iters", "20", "--seed", str(cli_seed), "--workers", "1", "--out", prefix]
            + (["--fixed-code"] if self.fixed_code else [])
        )

    def outputs(self, prefix: str) -> List[str]:
        return [prefix + ".trials.jsonl", prefix + ".summary.csv"]

    @contextlib.contextmanager
    def capture(self):
        captured: Dict[str, List[dict]] = {"encode": [], "transmit": [], "decode": []}

        def on_encode(args, x):
            code, info = args
            captured["encode"].append({
                "edges": code.graph.edges, "labels": code.labels,
                "n_v": code.graph.n_v, "n_c": code.graph.n_c, "info_length": len(info), "x": x,
            })

        def on_transmit(args, out):
            captured["transmit"].append({"y": out.y})

        def on_decode(args, res):
            captured["decode"].append({"x_hat": res.x_hat, "determined": res.determined})

        with hooks(cli, encode=on_encode, transmit=on_transmit, decode=on_decode):
            yield captured

    def useful_encodes(self, prefix: str) -> int:
        with open(prefix + ".trials.jsonl", encoding="utf-8") as fh:
            return sum(json.loads(line)["noise_ok"] for line in fh)

    def check(self, prefix: str, captured: Dict[str, List[dict]]) -> List[str]:
        with open(prefix + ".trials.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        (summary,) = read_csv(prefix + ".summary.csv")
        if len(records) != self.trials:
            return [f"{len(records)} records, {self.trials} trials asked"]
        recovered = [i for i, r in enumerate(records) if r["noise_ok"]]
        if len(recovered) != self.recovered:
            raise WorkloadError(
                f"{len(recovered)} of {self.trials} trials recovered the noise space where the "
                f"stream (seed, 3, i) predicted {self.recovered}; simulate no longer draws "
                "its noise as the workload assumes"
            )
        # each captured call belongs, in trial order, to every trial or to
        # every trial that recovered the noise space
        trials: List[dict] = [{} for _ in records]
        fails = []
        for kind, calls in captured.items():
            if len(calls) == len(records):
                owners = range(len(records))
            elif len(calls) == len(recovered):
                owners = recovered
            else:
                fails.append(f"{len(calls)} {kind} calls for {len(records)} trials, "
                             f"{len(recovered)} recovered")
                continue
            for i, call in zip(owners, calls):
                trials[i].update(call)
        if fails:
            return fails
        noise_rows = self.noise_rows(records[0]["seed"])
        checked_codes = set()  # ids of label tuples: the trials of a fixed code share one
        for i, (rec, t) in enumerate(zip(records, trials)):
            fails += checks.check_noise_dim(rec, t.get("y", noise_rows[i]), S, S, self.q)
            if "x_hat" in t and "x" not in t:
                fails.append(f"trial {i} decoded without an encode")
            if "x" not in t:
                continue
            if t["n_v"] != L - S:
                fails.append(f"trial {i}: {t['n_v']} constrained rows, {L - S} expected")
                continue
            if id(t["labels"]) not in checked_codes:
                checked_codes.add(id(t["labels"]))
                fails += checks.check_info_length(
                    t["info_length"], t["edges"], t["labels"], t["n_v"], t["n_c"], M, self.q)
            fails += checks.check_codeword(t["x"], t["edges"], t["labels"], t["n_v"], self.q)
            if "x_hat" in t:
                fails += checks.check_decoded_rows(t["x_hat"], t["determined"], t["x"], t["n_v"])
        return fails + checks.check_summary(summary, records)


class DePopulation(Workload):
    """``de-population`` at q = 2, m = 36, D = 12, rho*(3, 6)."""

    suffix = ".csv"

    def __init__(self, population: int, generations: int):
        self.population, self.generations = population, generations
        self._exact = None

    def argv(self, seed: int, rnd: int, prefix: str) -> List[str]:
        return ["de-population", "--q", "2", *CHANNEL, "--iters", str(self.generations),
                "--pop-size", str(self.population), "--seed", str(derive_seed(seed, rnd)),
                "--out", prefix + self.suffix]

    @contextlib.contextmanager
    def capture(self):
        generations: List[np.ndarray] = []

        def on_run(args, states):
            generations.extend(st.dims for st in states)

        with hooks(cli, population_de_run=on_run):
            yield generations

    def check(self, prefix: str, generations: List[np.ndarray]) -> List[str]:
        rho = rho_star(K, B)
        if self._exact is None:
            self._exact = checks.ExactDe(rho, M, S, 2)
        rows = read_csv(prefix + self.suffix)
        fails = checks.check_population_csv(rows, generations, S)
        fails += checks.check_population_law(rows, self._exact, self.population)
        # at t = 1 every parent is full, so P{D >= D/2} is the scalar
        # alpha_1 = 1 - rho_k up to the chance that a sum of subspaces falls short
        tail = checks.first_generation_tail(rho, M, S, 2, S // 2)
        if abs(tail - (1 - rho[K])) > 1e-9:
            fails.append(f"exact P{{D(1) >= {S // 2}}} = {float(tail)}, scalar alpha_1 = {1 - rho[K]}")
        return fails


class DeviationGrid(Workload):
    """``oracle --which deviation-bounds`` on m <= max_m, both fields."""

    suffix = ".json"

    def __init__(self, max_m: int, samples: int):
        self.max_m, self.samples = max_m, samples

    def argv(self, seed: int, rnd: int, prefix: str) -> List[str]:
        return ["oracle", "--which", "deviation-bounds", "--trials", str(self.samples),
                "--max-m", str(self.max_m), "--seed", str(derive_seed(seed, rnd)),
                "--out", prefix + self.suffix]

    @contextlib.contextmanager
    def capture(self):
        cells: List[tuple] = []

        def on_sample(args, dims):
            m, d1, d2, q = args[:4]
            cells.append((q, m, d1, d2, dims))

        with hooks(cli, sample_intersection_dims=on_sample):
            yield cells

    def check(self, prefix: str, cells: List[tuple]) -> List[str]:
        with open(prefix + self.suffix, encoding="utf-8") as fh:
            report = json.load(fh)
        fails = checks.check_oracle_report(report, self.max_m, len(cells))
        return fails + checks.check_deviation_samples(cells)


WORKLOADS = {
    "simulate-fresh-q2": Simulate(q=2, trials=3, recovered=1, fixed_code=False),
    "simulate-fixed-q3": Simulate(q=3, trials=9, recovered=5, fixed_code=True),
    "de-population-q2": DePopulation(population=1000, generations=10),
    "deviation-grid": DeviationGrid(max_m=7, samples=128),
}
