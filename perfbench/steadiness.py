"""Steadiness of the serving benchmark: two sets of runs of the same code.

    python3 perfbench/steadiness.py --runs 10

For every workload of ``BENCHMARK.json`` it makes two sets of ``--runs``
runs, each run with another seed (set 2 continues the seeds of set 1),
and prints for every end-to-end metric the median of each set, its
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the change
of the second median against the first, and the bound the metric has in
``BENCHMARK.json``.  The sets agree when every spread and the size of
every change stay within the bound and the share of failed operations
is the same in both; otherwise the command exits with code 1.
``suggest`` is three times the largest spread seen, the margin the
bounds are set with.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} answered wrongly:\n{done.stdout}")
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    seed = args.first_seed
    for _ in range(2):
        for name in names:
            results[name].append([])
        for _ in range(args.runs):
            for name in names:
                outcome = one_run(name, seed, spec["run_seconds"])
                results[name][-1].append(outcome)
                print(f"# {name} seed {seed}: " + json.dumps(outcome["metrics"]), flush=True)
            seed += 1

    worst: dict[str, float] = {}
    agree = True
    print(f"{'workload':<11} {'metric':<14} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'change':>8} {'bound':>6}  verdict")
    for name in names:
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
            for runs in results[name]
        }
        for metric, (bound, better) in bounds.items():
            sets = [[r["metrics"][metric]["value"] for r in runs] for runs in results[name]]
            medians = [median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            worst[metric] = max(worst.get(metric, 0.0), *spreads)
            change = (medians[1] - medians[0]) / medians[0]
            if better == "higher":
                change = -change
            ok = abs(change) <= bound and max(spreads) <= bound
            agree = agree and ok
            cells = [f"{medians[0]:>10.4g}", f"{spreads[0]:>8.3f}"]
            cells += [f"{medians[1]:>10.4g}", f"{spreads[1]:>8.3f}", f"{change:>+8.3f}"]
            print(f"{name:<11} {metric:<14} {' '.join(cells)} {bound:>6}  "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
        agree = agree and len(shares) == 1
        print(f"{name:<11} failed share per set: {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  OUT OF BOUND'}")
    print("suggest " + json.dumps({m: round(min(0.25, 3 * s), 3) for m, s in worst.items()}))
    print("sets agree" if agree else "sets disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
