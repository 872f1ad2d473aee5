"""Run the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 1] [--out summary.json]
                               [--compare earlier.json]

It runs every workload in BENCHMARK.json for its run_seconds, at full size,
once per seed, one benchmark process at a time. For every metric it reports
the median of the runs and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, and notes whether that spread is within the metric's bound in
BENCHMARK.json. ``--compare`` checks that each median is no worse than the
earlier summary's by more than the bound.

The exit status is 1 if any run reports ``correct: false`` or, with
``--compare``, if any median is worse by more than its bound; otherwise 0.
Spreads are printed for the reader and do not change the exit status.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(lines[-1])
    env = next(json.loads(l.split(" ", 2)[2]) for l in lines if l.startswith("perfbench env "))
    return {"seed": seed, "env": env, **result}


def summarise(runs: list[dict], spec: dict[str, dict]) -> dict:
    out = {}
    for name, m in spec.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        entry = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        if "bound" in m:
            entry["bound"] = m["bound"]
            entry["within_bound"] = spread <= m["bound"]
        out[name] = entry
    return out


def worse_by(new: float, old: float, better: str) -> float:
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="earlier summary JSON to check medians against")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    seconds = bench["run_seconds"]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    summary: dict = {"trace": args.trace, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, args.trace) for s in parse_seeds(args.seeds)]
        metrics = summarise(runs, spec)
        summary["workloads"][workload] = {
            "env": runs[0]["env"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
        ok &= summary["workloads"][workload]["correct"]
        print(f"{workload}: {len(runs)} runs, correct={summary['workloads'][workload]['correct']}, "
              f"failed/attempted={sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        for name, e in metrics.items():
            line = f"  {name:36s} median {e['median']:<12.6g} {e['unit']:6s} spread {e['spread']:.4f}"
            if "bound" in e:
                line += f" bound {e['bound']} {'within' if e['within_bound'] else 'OVER BOUND'}"
            if earlier and workload in earlier["workloads"] and "bound" in e:
                old = earlier["workloads"][workload]["metrics"][name]["median"]
                w = worse_by(e["median"], old, spec[name]["better"])
                within = w <= e["bound"]
                ok &= within
                line += f" | vs earlier {old:.6g}: worse by {w:+.4f} {'ok' if within else 'REGRESSED'}"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
