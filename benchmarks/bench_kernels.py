"""Benchmark the GF(q) kernels, and the bit-packed GF(2) path against the
generic numpy kernel it replaces at q = 2.

Six tables and one end-to-end figure:

- generic kernels: ``_rref_numpy`` and ``matmul_mod`` on the shapes the
  package uses;
- packed vs generic: ``rref_mod`` and ``rank_mod`` at q = 2 on the
  decoder-size, population-DE and encoder-system shapes;
- crossover sweep: packed vs generic RREF over rows x cols at q = 2, the
  source of ``kernels.GF2_PACKED_MIN_CELLS``;
- batched rank: ``rank_mod_batch`` on 256 matrices against a ``rank_mod``
  loop, on the deviation grid's square shapes; at q = 2 also the generic
  column loop that the one-word packed path replaces;
- label draws: the 48 uniform invertible 36x36 labels of an N=72 code, by a
  ``random_full_rank`` loop against ``random_full_rank_stack``;
- population DE: 4 generations of 1000 members (200 with ``--quick``) at
  m = 36, D = 12, rho*(3, 6), by the per-member reference loop of
  ``tests/test_de.py`` against ``population_de_run``;
- end to end (full mode only): N=48 build+encode+transmit+decode per trial.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from snclab import kernels, linalg
from snclab.channel import transmit, validate_params
from snclab.de import PopulationDeConfig, population_de_run
from snclab.decoder import DecoderConfig, decode
from snclab.degrees import rho_star
from snclab.ensemble import build_code, encode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_de import per_member_population_de_run  # noqa: E402


def bench(fn, *args, repeat=5, budget=0.05):
    """Best per-call time over ``repeat`` batches of about ``budget`` seconds."""
    t0 = time.perf_counter()
    fn(*args)
    inner = max(1, int(budget / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def binary(rng, rows, cols):
    return rng.integers(0, 2, (rows, cols), dtype=np.int64)


def generic_table(rng, quick: bool):
    cases = [
        ("rref 24x72 q2 (decoder-size)", binary(rng, 24, 72), 2),
        ("rref 72x36 q2 (population DE)", binary(rng, 72, 36), 2),
        ("rref 468x864 q2 (encode system)", binary(rng, 468, 864), 2),
        ("rref 120x240 q3", rng.integers(0, 3, (120, 240), dtype=np.int64), 3),
    ]
    if quick:
        cases = cases[:2]
    print(f"{'generic kernel':36s} {'time':>12s}")
    for name, a, q in cases:
        print(f"{name:36s} {bench(kernels._rref_numpy, a, q) * 1e3:10.3f}ms")
    a, b = binary(rng, 36, 36), binary(rng, 36, 36)
    print(f"{'matmul 36x36 q2':36s} {bench(kernels.matmul_mod, a, b, 2) * 1e6:10.1f}us")


def packed_table(rng, quick: bool):
    shapes = [(24, 72), (72, 36)] + ([] if quick else [(468, 864)])
    print(f"\n{'q=2':20s} {'generic rref':>13s} {'packed rref':>12s} "
          f"{'speedup':>8s} {'packed rank':>12s}")
    for rows, cols in shapes:
        a = binary(rng, rows, cols)
        t_gen = bench(kernels._rref_numpy, a, 2)
        t_pk = bench(kernels._rref_gf2, a)
        t_rk = bench(kernels._rank_gf2, a)
        print(f"{f'{rows}x{cols}':20s} {t_gen * 1e3:11.3f}ms {t_pk * 1e3:10.3f}ms {t_gen / t_pk:7.2f}x "
              f"{t_rk * 1e3:10.3f}ms")


def crossover(rng):
    """Packed vs generic RREF at q = 2 on square-ish and wide shapes; prints
    the smallest cell count from which packed wins on every larger shape."""
    shapes = sorted(
        {(r, c) for c in (12, 24, 36, 72) for r in (6, 12, 18, 24, 36, 48)},
        key=lambda s: (s[0] * s[1], s),
    )
    print(f"\n{'crossover sweep':20s} {'cells':>6s} {'generic':>10s} {'packed':>10s} {'ratio':>7s}")
    wins = []
    for rows, cols in shapes:
        a = binary(rng, rows, cols)
        t_gen = bench(kernels._rref_numpy, a, 2, budget=0.02)
        t_pk = bench(kernels._rref_gf2, a, budget=0.02)
        wins.append((rows * cols, t_pk < t_gen))
        print(f"{f'{rows}x{cols}':20s} {rows * cols:6d} {t_gen * 1e3:8.3f}ms {t_pk * 1e3:8.3f}ms "
              f"{t_gen / t_pk:6.2f}x")
    losses = [cells for cells, won in wins if not won]
    above = [cells for cells, _ in wins if not losses or cells > max(losses)]
    print(f"packed wins on every swept shape from {min(above) if above else 'none'} cells up; "
          f"dispatch constant GF2_PACKED_MIN_CELLS = {kernels.GF2_PACKED_MIN_CELLS}")


def batch_table(rng):
    print(f"\n{'256 ranks':20s} {'rank_mod loop':>14s} {'batched':>10s} {'speedup':>8s} "
          f"{'generic batched':>16s}")
    for q in (2, 3):
        for n in (7, 12, 20):
            a = rng.integers(0, q, (256, n, n), dtype=np.int64)
            t_loop = bench(lambda: [kernels.rank_mod(m, q) for m in a], budget=0.1)
            t_batch = bench(kernels.rank_mod_batch, a, q)
            row = f"{f'q={q} {n}x{n}':20s} {t_loop * 1e3:12.3f}ms {t_batch * 1e3:8.3f}ms {t_loop / t_batch:7.1f}x"
            if q == 2:
                row += f" {bench(kernels._rank_batch_generic, a, q) * 1e3:14.3f}ms"
            print(row)


def label_table():
    print(f"\n{'48 labels 36x36':20s} {'loop':>10s} {'stack':>10s} {'speedup':>8s}")
    for q in (2, 3):
        def loop():
            rng = np.random.default_rng(1)
            return [linalg.random_full_rank(36, 36, q, rng) for _ in range(48)]

        def stack():
            return linalg.random_full_rank_stack(48, 36, 36, q, np.random.default_rng(1))

        t_loop = bench(loop, repeat=3, budget=0.2)
        t_stack = bench(stack, repeat=3, budget=0.2)
        print(f"{f'q={q}':20s} {t_loop * 1e3:8.2f}ms {t_stack * 1e3:8.2f}ms {t_loop / t_stack:7.1f}x")


def population_table(quick: bool):
    """One timed loop run against the best of three batched runs, after a
    first run of each that also checks that they agree."""
    members = 200 if quick else 1000
    print(f"\n{f'population DE {members}x4':20s} {'loop':>10s} {'batched':>10s} {'speedup':>8s}")
    for q in (2, 3):
        cfg = PopulationDeConfig(q=q, m=36, d_cap=12, rho=rho_star(3, 6).dist,
                                 population_size=members, max_iters=4)

        def timed(run):
            t0 = time.perf_counter()
            out = run(cfg, np.random.default_rng(1))
            return time.perf_counter() - t0, out

        t_loop, want = timed(per_member_population_de_run)
        _, got = timed(population_de_run)
        assert [st.dims.tolist() for st in got] == [d.tolist() for d in want]
        t_fast = min(timed(population_de_run)[0] for _ in range(3))
        print(f"{f'q={q}':20s} {t_loop:9.3f}s {t_fast:9.3f}s {t_loop / t_fast:7.1f}x")


def macro():
    """Mean time of one N=48 build+encode+transmit+decode trial."""
    p = validate_params(2, 48, Fraction(1, 2), Fraction(1, 3))
    n = 10
    config = DecoderConfig(max_iters=20)
    t0 = time.perf_counter()
    for i in range(n):
        rng = np.random.default_rng([2, i])
        code = build_code(p, 3, 6, rng)
        info = rng.integers(0, 2, size=code.info_length(), dtype=np.int64)
        decode(transmit(encode(code, info), p, rng).y, code, config)
    print(f"\n{(time.perf_counter() - t0) / n * 1e3:.1f} ms/trial (N=48 build+encode+transmit+decode)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="skip the larger cases and the end-to-end run")
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    generic_table(rng, args.quick)
    packed_table(rng, args.quick)
    crossover(rng)
    batch_table(rng)
    label_table()
    population_table(args.quick)
    if not args.quick:
        macro()


if __name__ == "__main__":
    main()
