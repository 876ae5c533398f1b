"""snclab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (no install) on the numpy backend.  A run repeats whole rounds,
each one ``snclab.cli.main`` call with inputs derived from ``--seed`` and
the round index, while the next round is expected to end within
``--seconds`` of timed calls (at least one round).  After the last round
it checks every round's outputs with ``checks``.  The last line of standard output is the
result as JSON:

- ``--trace 0``: ``setup_s`` (process start until ``snclab.cli`` is
  imported), ``run_s`` (median wall time of one call) and ``peak_rss_mb``
  (peak resident memory after the last call, before any check).
- ``--trace 1``: each round runs untraced, then again under the span
  tracer; the traced outputs must be byte-identical, and the per-layer
  metrics (per round) come from the traced calls.

``attempted``/``failed`` count ``cli.main`` calls and those that raised or
returned nonzero.  Outputs, a manifest and (traced) the spans go to
``perfbench/out/<workload>/seed-<n>-trace<t>/``.
"""

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ["simulate-fresh-q2", "simulate-fixed-q3", "de-population-q2", "deviation-grid"]


def process_age() -> float:
    """Seconds since this process started, from /proc/self/stat."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def call(cli, argv, tracer=None):
    """(succeeded, wall seconds) of one cli.main call."""
    t0 = time.perf_counter()
    try:
        rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
    except Exception:  # a crash of the program is a failed operation
        traceback.print_exc()
        rc = -1
    return rc == 0, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snclab" / "cli.py").is_file():
        sys.stderr.write(f"benchmark: no snclab sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["SNCLAB_BACKEND"] = "numpy"
    import snclab.cli as cli

    setup_s = process_age()

    import numpy as np

    import snclab
    from snclab import kernels
    from checks import check_same_outputs
    from tracer import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, WorkloadError

    workload = WORKLOADS[args.workload]
    run_dir = OUT / args.workload / f"seed-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None

    attempted = failed = 0
    fails = []
    untraced, overheads, rounds = [], [], []
    done = []  # (round, prefix, traced prefix) of rounds whose call succeeded
    timed = 0.0
    while not untraced or timed + timed / len(untraced) <= args.seconds:
        rnd = len(untraced)
        prefix = str(run_dir / f"round-{rnd}")
        round_argv = workload.argv(args.seed, rnd, prefix)
        with workload.capture() as captured:
            ok, dt = call(cli, round_argv)
        attempted += 1
        failed += not ok
        untraced.append(dt)
        timed += dt
        rounds.append(round_argv)
        traced_prefix = None
        if tracer is not None:
            traced_prefix = prefix + "-traced"
            with tracer.installed():
                traced_ok, traced_dt = call(cli, workload.argv(args.seed, rnd, traced_prefix), tracer)
            attempted += 1
            failed += not traced_ok
            timed += traced_dt
            overheads.append(traced_dt - dt)
            traced_prefix = traced_prefix if traced_ok else None
        if ok:
            # parked on disk, so that the peak does not grow with the round count
            with open(prefix + ".captured.pkl", "wb") as fh:
                pickle.dump(captured, fh, protocol=pickle.HIGHEST_PROTOCOL)
            done.append((rnd, prefix, traced_prefix))
        del captured
    # the program's peak, read before the checks allocate anything
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    useful = 0
    try:
        for rnd, prefix, traced_prefix in done:
            try:
                with open(prefix + ".captured.pkl", "rb") as fh:
                    fails += workload.check(prefix, pickle.load(fh))
            except WorkloadError:
                raise
            except Exception as exc:  # malformed output is a failed check
                fails.append(f"round {rnd}: check raised {exc!r}")
            if traced_prefix is not None:
                useful += workload.useful_encodes(prefix)
                fails += check_same_outputs(workload.outputs(prefix), workload.outputs(traced_prefix))
    except WorkloadError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 3

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        tracer.save(run_dir / "spans.npz")
        values = tracer.layer_metrics(len(overheads), useful, statistics.median(overheads))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    for msg in fails:
        sys.stderr.write(f"check failed: {msg}\n")
    result = {"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "snclab_version": snclab.__version__,
        "backend": getattr(kernels, "BACKEND", "numpy"),
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "round_argv": rounds,
        "round_seconds": untraced,
        "traced_round_extra_seconds": overheads,
        "untraced_targets": sorted(tracer.missing) if tracer else [],
        "failed_checks": fails,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
