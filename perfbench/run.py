"""Benchmark of the whole synth -> track -> eval path, one workload per run.

    python3 perfbench/run.py --workload c11_30 --seed 9 --seconds 10 --trace 0

Runs the workload's operations in whole rounds until ``--seconds`` have
passed, checks every output, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Work files, the run record and the trace go to
``perfbench/out/<workload>/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _process_age() -> float:
    """Seconds since this process started (clock-tick resolution), 0 if unknown."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


STARTUP_S = _process_age()

# One process, one thread: pin BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        import meshsort
    except ImportError as exc:
        print(f"error: cannot import meshsort from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(meshsort.__file__).resolve().parent.parent != SRC:
        print(f"error: meshsort imported from {meshsort.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import report
    import workloads
    from checks import CheckFailed
    from operation import run_operation

    try:
        ops = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_s = STARTUP_S + (time.perf_counter() - T0)

    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    for stale in outdir.glob("*.txt"):  # work files of an earlier run
        stale.unlink()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    rounds, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        results = []
        for op in ops:
            attempted += 1
            try:
                results.append(run_operation(op, outdir))
            except CheckFailed as exc:
                failed += 1
                print(f"check failed: {op.label}: {exc}", file=sys.stderr)
            except Exception:  # an operation that raises counts as failed; keep going
                failed += 1
                print(f"operation raised: {op.label}", file=sys.stderr)
                traceback.print_exc()
        rounds.append(results)
    if tracer is not None:
        tracer.uninstall()

    digests = [[r.digest for r in results] for results in rounds]
    correct = all(d == digests[0] for d in digests) and any(rounds)
    end_to_end = report.end_to_end(rounds, setup_s)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "attempted": attempted, "failed": failed,
              "digest": report.digest(digests[0]), "end_to_end": end_to_end}
    if tracer is not None:
        record["per_layer"] = report.per_layer(tracer, rounds)
        tracer.write(outdir, len(rounds))
    (outdir / "run.json").write_text(json.dumps(record, indent=1))

    units = report.UNITS
    chosen = record["per_layer"] if tracer is not None else end_to_end
    print(f"digest {args.workload} seed={args.seed} sha256={record['digest']}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
