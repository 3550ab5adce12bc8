"""Repeat mode: run one workload N times, one fresh process per run, and summarise.

    python3 perfbench/repeat.py --workload c11_30 --runs 10 --first-seed 1 \
        [--trace 0|1] [--save out.json] [--against earlier.json]

Run i uses seed ``first-seed + i`` and the run length from BENCHMARK.json.
For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median next to the metric's bound.
``--against`` compares medians, failed shares and per-seed result digests
with an earlier ``--save`` file of the same workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}, exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / workload / "run.json").read_text())
    result["digest"] = record["digest"]
    result["pipeline_s"] = record["end_to_end"]["pipeline_s"]
    result["seed"] = seed
    return result


def summarise(runs: list[dict]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        runs.append(_run(args.workload, args.first_seed + i, spec["run_seconds"], args.trace))
        print(f"seed {runs[-1]['seed']}: attempted={runs[-1]['attempted']} "
              f"failed={runs[-1]['failed']} correct={runs[-1]['correct']} "
              f"pipeline_s={runs[-1]['pipeline_s']:.3f}", file=sys.stderr)
    stats = summarise(runs)
    print(f"{args.workload}: {len(runs)} runs, seeds {args.first_seed}..{args.first_seed + len(runs) - 1}")
    print(f"{'metric':32} {'unit':9} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>7} {'bound':>6}")
    for name, s in stats.items():
        bound = bounds.get(name, {}).get("bound")
        flag = "" if bound is None else f"{bound:6.3f}" + (" !" if s["spread"] >= bound / 3 else "")
        print(f"{name:32} {s['unit']:9} {s['median']:13.6g} {s['q1']:13.6g} {s['q3']:13.6g} "
              f"{s['spread']:7.4f} {flag}")
    print(f"attempted={sum(r['attempted'] for r in runs)} failed={sum(r['failed'] for r in runs)} "
          f"all correct={all(r['correct'] for r in runs)} "
          f"pipeline_s median={statistics.median(r['pipeline_s'] for r in runs):.4f}")
    saved = {"workload": args.workload, "trace": args.trace, "stats": stats,
             "runs": [{k: r[k] for k in ("seed", "attempted", "failed", "correct", "digest", "pipeline_s")}
                      for r in runs]}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1))

    status = 0
    if args.against:
        old = json.loads(args.against.read_text())
        for name, s in stats.items():
            if name not in bounds or name not in old["stats"]:
                continue
            base = old["stats"][name]["median"]
            worse = (s["median"] - base) / base
            if bounds[name]["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
            status |= verdict != "ok"
            print(f"against: {name:14} {base:13.6g} -> {s['median']:13.6g} worse by {worse:+.4f} {verdict}")
        share = [sum(r["failed"] for r in x) / sum(r["attempted"] for r in x)
                 for x in (old["runs"], saved["runs"])]
        old_digests = {r["seed"]: r["digest"] for r in old["runs"]}
        same = [old_digests[r["seed"]] == r["digest"] for r in saved["runs"] if r["seed"] in old_digests]
        print(f"against: failed share {share[0]:.6f} -> {share[1]:.6f}; "
              f"digests equal on {sum(same)}/{len(same)} shared seeds")
        status |= share[0] != share[1] or not all(same)
    return status


if __name__ == "__main__":
    sys.exit(main())
