#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs.

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seed-base 1000] [--out FILE]

Reads ``BENCHMARK.json`` for the command, run length, workloads and the
end-to-end metrics with their bounds.  For each workload it runs set A and
set B alternately, ``--runs`` times each, every run with its own seed, one
run at a time.  It then prints, per workload and metric, each set's median
and quartiles, the spread (quartile distance over median) of each set and
of all runs pooled, and set B's change against set A in the metric's worse
direction next to the metric's bound; and the attempted/failed counts.
Exit status 1 if any run failed, printed no result or reported
``correct: false``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    out["detail"] = next((json.loads(x[7:]) for x in lines if x.startswith("detail ")), {})
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    results: dict = {w: {"A": [], "B": []} for w in names}
    seed = args.seed_base
    ok = True
    for i in range(args.runs):
        for w in names:
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                r = run_once(bench, w, seed)
                r["seed"] = seed
                seed += 1
                results[w][s].append(r)
                ok &= bool(r["correct"])
                print(f"[{w} set {s} seed {r['seed']}] correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} wall={r['wall_s']:.1f}s",
                      file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))

    for w in names:
        print(f"\n== {w}")
        runs = results[w]["A"] + results[w]["B"]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"attempted {[r['attempted'] for r in runs]}  failed {[r['failed'] for r in runs]}"
              f"  failed share {'constant' if len(shares) == 1 else 'VARIES'} {shares}")
        print(f"{'metric':<12} {'set':<4} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = {s: [r["metrics"][name]["value"] for r in results[w][s]] for s in ("A", "B")}
            for s, vals in sets.items():
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
                print(f"{name:<12} {s:<4} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{spread(vals) if len(vals) > 1 else 0:>8.3f}")
            pooled = sets["A"] + sets["B"]
            a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            # set-up time's spread is not held to the bound, only its median
            steady = name == "setup_s" or spread(pooled) <= bound
            print(f"{name:<12} all  spread {spread(pooled):.3f}  B worse than A by {worse:+.3f}"
                  f"  bound {bound}  {'ok' if worse <= bound and steady else 'OUT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
