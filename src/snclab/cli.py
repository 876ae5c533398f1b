"""Experiment runner CLI.

Subcommands: capacity-curve, degree-dist, de-scalar, de-population, simulate,
oracle.  Rates and weights are exact rationals ("p/r" on the command line;
floats are rejected).  Every output embeds the resolved parameter set and
seed, and identical parameters and seed produce byte-identical output
regardless of worker count.  Exit codes: 0 success, 1 validation error,
2 oracle or acceptance failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import __version__
from .channel import achievable_k, capacity, singleton_bound, transmit, validate_params
from .channel import brute_force_rank_count, exact_rank_count
from .decoder import (
    DecoderConfig,
    decode,
    recover_noise_space,
    span_failure_probability,
    symbol_error_rate,
    wrong_determinations,
)
from .degrees import design_rate, edge_to_node, integral_rho, rho_star
from .ensemble import build_code, constrained_rows, encode, realize_degree_sequence
from .de import (
    PopulationDeConfig,
    ScalarDeConfig,
    evaluate_deviation,
    population_de_run,
    population_summary,
    row_undetermined_probability,
    sample_intersection_dims,
    scalar_de_run,
)
from .linalg import (
    AffineSubspace,
    Subspace,
    affine_image,
    affine_intersection,
    affine_sum,
    random_invertible,
    row_space,
)

GRID_Z_MARGIN = 5.0  # familywise margin for the 33k-cell deviation grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are validation errors (exit 1);
        self.print_usage(sys.stderr)  # 2 is reserved for oracle failures
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def parse_rational(text: str) -> Fraction:
    """Accept "p/r" or an integer literal; reject floats outright."""
    text = text.strip()
    if any(ch in text for ch in ".eE"):
        raise argparse.ArgumentTypeError(
            f"{text!r} looks like a float; pass an exact rational like 1/3"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}: {exc}")


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None:
        return ""
    return str(x)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(schema: str, params: dict, header: List[str], rows: List[List]) -> str:
    lines = [f"# schema: {schema}"]
    lines.append("# " + " ".join(f"{k}={_fmt(v)}" for k, v in params.items()))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# ---------------------------------------------------------------------------
# capacity-curve
# ---------------------------------------------------------------------------


def cmd_capacity_curve(args) -> int:
    lam = args.lam
    if not 0 < lam < 1:
        raise ValueError(f"lambda must be in (0, 1), got {lam}")
    omegas = {Fraction(i, 100) for i in range(1, 100)}
    ratio = (1 - lam) / lam
    k = 1
    while True:
        dot = ratio / k
        if dot < Fraction(1, 100):
            break
        if dot < 1:
            omegas.add(dot)
        k += 1
    rows = []
    for w in sorted(omegas):
        cap = capacity(lam, w)
        single = singleton_bound(lam, w) if w <= Fraction(1, 2) else None
        rows.append([w, float(cap), float(single) if single is not None else None, achievable_k(lam, w)])
    text = _csv(
        "snclab.capacity-curve.v1",
        {"lambda": lam, "grid_step": "1/100"},
        ["omega", "capacity", "singleton", "achievable_k"],
        rows,
    )
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# degree-dist
# ---------------------------------------------------------------------------


def cmd_degree_dist(args) -> int:
    star = rho_star(args.k, args.b)
    rho = star.dist
    node = edge_to_node(rho)
    p1 = node.derivative_at_one()
    p2 = node.second_derivative_at_one()
    report = {
        "schema": "snclab.degree-dist.v1",
        "k": args.k,
        "b": args.b,
        "rho": {str(d): str(mass) for d, mass in rho.coeffs},
        "integral": str(integral_rho(rho)),
        "node": {str(d): str(mass) for d, mass in node.coeffs},
        "p_prime_1": str(p1),
        "p_dprime_over_p_prime": str(p2 / p1),
        "encoder_condition": bool(p2 / p1 > 1),
    }
    if args.lam is not None and args.omega is not None:
        report["lambda"] = str(args.lam)
        report["omega"] = str(args.omega)
        report["design_rate"] = str(design_rate(args.lam, args.omega, node))
        report["capacity"] = str(capacity(args.lam, args.omega))
    _write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# density evolution
# ---------------------------------------------------------------------------


def cmd_de_scalar(args) -> int:
    cfg = ScalarDeConfig(
        k=args.k,
        rho=rho_star(args.k, args.b).dist,
        max_iters=args.iters,
        epsilon_stop=args.stop,
    )
    traj = scalar_de_run(cfg)
    rows = [[t, float(a)] for t, a in enumerate(traj.alphas)]
    text = _csv(
        "snclab.de-scalar.v1",
        {
            "k": args.k,
            "b": args.b,
            "iters": args.iters,
            "stop": args.stop,
            "gamma_estimate": traj.gamma_estimate,
        },
        ["t", "alpha"],
        rows,
    )
    _write_text(args.out, text)
    return 0


def cmd_de_population(args) -> int:
    params = validate_params(args.q, args.N, args.lam, args.omega)
    cfg = PopulationDeConfig(
        q=params.q,
        m=params.m,
        d_cap=params.s,
        rho=rho_star(args.k, args.b).dist,
        population_size=args.pop_size,
        max_iters=args.iters,
    )
    states = population_de_run(cfg, _rng(args.seed, 40))
    rows = []
    for st in states:
        s = population_summary(st, cfg.d_cap)
        rows.append([st.t, s["frac_zero"], s["frac_full"], s["frac_interior"], s["mean_dim"]])
    text = _csv(
        "snclab.de-population.v1",
        {
            "q": params.q,
            "N": params.N,
            "lambda": params.lam,
            "omega": params.omega,
            "m": params.m,
            "D": params.s,
            "k": args.k,
            "b": args.b,
            "pop_size": args.pop_size,
            "iters": args.iters,
            "seed": args.seed,
        },
        ["t", "frac_zero", "frac_full", "frac_interior", "mean_dim"],
        rows,
    )
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _run_trial(trial: int, args, params, shared_code) -> dict:
    # The noise z does not depend on the codeword, so the zero word is sent
    # first; a code is built, encoded and decoded only when the zero-padded
    # rows of z span the noise space, with y = x + z being exactly what
    # transmit(x) returns on the same stream.
    z = transmit(np.zeros((params.l, params.m), dtype=np.int64), params, _rng(args.seed, 3, trial)).y
    record = {
        "trial": trial,
        "seed": args.seed,
        "params": f"q={params.q} N={params.N} lambda={params.lam} omega={params.omega} "
                  f"k={args.k} b={args.b} iters={args.iters}",
    }
    w_dim = recover_noise_space(z, params, params.omega).dim
    if w_dim != params.s:
        # what decode reports when the noise space is deficient: every
        # constrained row undetermined, no rounds run
        n_v = constrained_rows(params)
        return {**record, "iterations": 0, "noise_ok": False, "noise_dim": w_dim, "fault": False,
                "determined": 0, "n_rows": n_v, "symbol_errors": n_v, "ser": 1.0, "wrong": 0,
                "dims": []}
    code = shared_code
    if code is None:
        code = build_code(params, args.k, args.b, _rng(args.seed, 1, trial))
    info = _rng(args.seed, 2, trial).integers(0, params.q, size=code.info_length(), dtype=np.int64)
    x = encode(code, info)
    res = decode((x + z) % params.q, code, DecoderConfig(max_iters=args.iters))
    ser = symbol_error_rate(res, x)
    return {
        **record,
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


def _clopper_pearson(k: int, n: int, conf: float = 0.99):
    # not scipy.stats, whose import would double simulate's start-up time and memory
    from scipy.special import betaincinv

    alpha = 1 - conf
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def cmd_simulate(args) -> int:
    params = validate_params(args.q, args.N, args.lam, args.omega)
    node = edge_to_node(rho_star(args.k, args.b).dist)
    rate = design_rate(params.lam, params.omega, node)
    cap = capacity(params.lam, params.omega)
    if rate >= cap:
        sys.stderr.write(
            f"warning: design rate {rate} is not below capacity {cap}; "
            "decoding is not expected to succeed\n"
        )
    # span-failed trials build no code, so check once that these parameters
    # admit one, as every trial's build_code would
    realize_degree_sequence(node, constrained_rows(params))
    shared_code = build_code(params, args.k, args.b, _rng(args.seed, 1, 0)) if args.fixed_code else None

    records: List[Optional[dict]] = [None] * args.trials
    interrupted = False
    try:
        if args.workers > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                for trial, rec in enumerate(
                    pool.map(lambda t: _run_trial(t, args, params, shared_code), range(args.trials))
                ):
                    records[trial] = rec
        else:
            for trial in range(args.trials):
                records[trial] = _run_trial(trial, args, params, shared_code)
    except KeyboardInterrupt:
        interrupted = True

    done = [r for r in records if r is not None]
    lines = [json.dumps(r, sort_keys=True) for r in done]
    _write_text(args.out + ".trials.jsonl", "\n".join(lines) + ("\n" if lines else ""))

    n = len(done)
    n_rows = done[0]["n_rows"] if done else 0
    ser = sum(r["ser"] for r in done) / n if n else 0.0
    block_errors = sum(1 for r in done if r["symbol_errors"] > 0)
    span_failures = sum(1 for r in done if not r["noise_ok"])
    faults = sum(1 for r in done if r["fault"])
    wrong = sum(r["wrong"] for r in done)
    mean_iters = sum(r["iterations"] for r in done) / n if n else 0.0
    lo, hi = _clopper_pearson(block_errors, n) if n else (0.0, 1.0)

    pred_span = pred_row = pred_ser = pred_block = None
    if args.de_predict:
        # omega' = omega here, so the recovery window holds exactly s rows
        pred_span = float(span_failure_probability(params.s, params.s, params.q))
        # population DE at matching (q, m, D) after the same iteration budget
        pop_cfg = PopulationDeConfig(
            q=params.q,
            m=params.m,
            d_cap=params.s,
            rho=rho_star(args.k, args.b).dist,
            population_size=args.pop_size,
            max_iters=args.iters,
        )
        states = population_de_run(pop_cfg, _rng(args.seed, 41))
        pred_row = row_undetermined_probability(states[-1].dims, params.s, params.q)
        pred_ser = pred_span + (1 - pred_span) * pred_row
        pred_block = pred_span + (1 - pred_span) * (1 - (1 - pred_row) ** max(n_rows, 1))

    header = [
        "trials", "rows_per_trial", "ser", "block_errors", "block_err_rate",
        "block_err_ci99_lo", "block_err_ci99_hi", "span_failures", "faults",
        "wrong_rows", "mean_iterations", "design_rate", "capacity",
        "pred_span_fail", "pred_row_undet", "pred_ser", "pred_block_err",
        "partial",
    ]
    row = [
        n, n_rows, ser, block_errors, (block_errors / n if n else 0.0),
        lo, hi, span_failures, faults,
        wrong, mean_iters, rate, cap,
        pred_span, pred_row, pred_ser, pred_block,
        1 if interrupted else 0,
    ]
    text = _csv(
        "snclab.simulate.v1",
        {
            "q": params.q, "N": params.N, "lambda": params.lam, "omega": params.omega,
            "k": args.k, "b": args.b, "trials": args.trials, "iters": args.iters,
            "seed": args.seed, "fixed_code": int(args.fixed_code),
            "pop_size": args.pop_size, "de_predict": int(args.de_predict),
        },
        header,
        [row],
    )
    _write_text(args.out + ".summary.csv", text)
    if interrupted:
        sys.stderr.write(f"interrupted; flushed {n}/{args.trials} trials\n")
        raise KeyboardInterrupt
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_rank_count() -> dict:
    failures = []
    cases = 0
    for q in (2, 3):
        for l in range(1, 4):
            for m in range(1, 4):
                for s in range(0, min(l, m) + 1):
                    cases += 1
                    got = exact_rank_count(s, l, m, q)
                    want = brute_force_rank_count(s, l, m, q)
                    if got != want:
                        failures.append({"q": q, "l": l, "m": m, "s": s, "exact": got, "brute": want})
    return {"name": "rank-count", "cases": cases, "failures": failures, "passed": not failures}


def _oracle_subspace_ops(seed: int, cases: int = 500) -> dict:
    rng = _rng(seed, 50)
    q, m = 2, 4
    failures = []
    for case in range(cases):
        da, db = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        a = AffineSubspace.from_offset(
            rng.integers(0, q, size=m, dtype=np.int64),
            row_space(rng.integers(0, q, size=(da, m), dtype=np.int64), q),
        )
        b = AffineSubspace.from_offset(
            rng.integers(0, q, size=m, dtype=np.int64),
            row_space(rng.integers(0, q, size=(db, m), dtype=np.int64), q),
        )
        sa = {tuple(v) for v in a.enumerate_vectors()}
        sb = {tuple(v) for v in b.enumerate_vectors()}
        add = affine_sum(a, b)
        if {tuple(v) for v in add.enumerate_vectors()} != {
            tuple((np.array(x) + np.array(y)) % q) for x in sa for y in sb
        }:
            failures.append({"case": case, "op": "sum"})
        inter = affine_intersection(a, b)
        want_inter = sa & sb
        got_inter = set() if inter is None else {tuple(v) for v in inter.enumerate_vectors()}
        if got_inter != want_inter:
            failures.append({"case": case, "op": "intersection"})
        h = random_invertible(m, q, rng)
        img = affine_image(a, h)
        if {tuple(v) for v in img.enumerate_vectors()} != {tuple((np.array(x) @ h) % q) for x in sa}:
            failures.append({"case": case, "op": "image"})
    return {"name": "subspace-ops", "cases": cases, "failures": failures, "passed": not failures}


def _oracle_deviation(seed: int, trials: int, max_m: int = 20) -> dict:
    rng = _rng(seed, 51)
    failures = []
    cases = 0
    for q in (2, 3):
        for m in range(1, max_m + 1):
            for d1 in range(m + 1):
                for d2 in range(m + 1):
                    dims = sample_intersection_dims(m, d1, d2, q, trials, rng)
                    for slack in range(0, 5):
                        cases += 1
                        rep = evaluate_deviation(m, d1, d2, slack, q, dims, z_margin=GRID_Z_MARGIN)
                        if not rep.passed:
                            failures.append(
                                {
                                    "q": q, "m": m, "d1": d1, "d2": d2, "slack": slack,
                                    "freq": rep.excess_freq, "bound": rep.bound,
                                    "margin": rep.margin,
                                    "floor_violations": rep.floor_violations,
                                }
                            )
    return {"name": "deviation-bounds", "cases": cases, "failures": failures, "passed": not failures}


def cmd_oracle(args) -> int:
    reports = []
    if args.which in ("rank-count", "all"):
        reports.append(_oracle_rank_count())
    if args.which in ("subspace-ops", "all"):
        reports.append(_oracle_subspace_ops(args.seed))
    if args.which in ("deviation-bounds", "all"):
        reports.append(_oracle_deviation(args.seed, args.trials, args.max_m))
    passed = all(r["passed"] for r in reports)
    out = {
        "schema": "snclab.oracle.v1",
        "seed": args.seed,
        "oracles": reports,
        "passed": passed,
    }
    _write_text(args.out, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="snclab", description=__doc__)
    p.add_argument("--version", action="version", version=f"snclab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, *, q=False, N=False, rates=False, kb=False, seed=False):
        if q:
            sp.add_argument("--q", type=int, default=2, help="field modulus (prime)")
        if N:
            sp.add_argument("--N", type=int, required=True, help="packet length")
        if rates:
            sp.add_argument("--lambda", dest="lam", type=parse_rational, required=True,
                            help="l/N as an exact rational, e.g. 1/2")
            sp.add_argument("--omega", type=parse_rational, required=True,
                            help="normalized error weight as an exact rational")
        if kb:
            sp.add_argument("--k", type=int, required=True, help="target (1-lambda)/(lambda*omega)")
            sp.add_argument("--b", type=int, required=True, help="degree-distribution truncation")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--out", default="-", help="output path ('-' for stdout)")

    sp = sub.add_parser("capacity-curve", help="capacity and Singleton curves on an omega grid")
    sp.add_argument("--lambda", dest="lam", type=parse_rational, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_capacity_curve)

    sp = sub.add_parser("degree-dist", help="rho_star(k,b) report")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=parse_rational, default=None)
    sp.add_argument("--omega", type=parse_rational, default=None)
    add_common(sp)
    sp.set_defaults(func=cmd_degree_dist)

    sp = sub.add_parser("de-scalar", help="scalar density-evolution trajectory")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--iters", type=int, default=50)
    sp.add_argument("--stop", type=float, default=1e-12)
    add_common(sp)
    sp.set_defaults(func=cmd_de_scalar)

    sp = sub.add_parser("de-population", help="finite-m population density evolution")
    add_common(sp, q=True, N=True, rates=True, kb=True, seed=True)
    sp.add_argument("--iters", type=int, default=10)
    sp.add_argument("--pop-size", type=int, default=1000)
    sp.set_defaults(func=cmd_de_population)

    sp = sub.add_parser("simulate", help="Monte Carlo encode/transmit/decode campaign")
    add_common(sp, q=True, N=True, rates=True, kb=True, seed=True)
    sp.set_defaults(out="snclab-sim")
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--iters", type=int, default=20, help="decoder iteration cap")
    sp.add_argument("--fixed-code", action="store_true", help="one code for all trials")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--de-predict", action="store_true", help="attach population-DE prediction")
    sp.add_argument("--pop-size", type=int, default=1000)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("oracle", help="brute-force oracle sweeps")
    sp.add_argument("--which", choices=["rank-count", "subspace-ops", "deviation-bounds", "all"],
                    default="all")
    sp.add_argument("--trials", type=int, default=256, help="samples per deviation cell")
    sp.add_argument("--max-m", type=int, default=20, help="deviation grid ambient cap")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"snclab: validation error: {exc}\n")
        return 1
    except KeyboardInterrupt:
        return 130
    except OSError as exc:
        sys.stderr.write(f"snclab: i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
