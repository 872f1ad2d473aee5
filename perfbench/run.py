"""dcqe benchmark: one closed-loop workload per run, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload sample_large --seed 1 --seconds 15 --trace 0

Workloads: cli_roundtrip, sample_large, audit_sweep, feasibility_grid (see
workloads.py for what each exercises and why). With ``--trace 0`` the run
reports the end-to-end metrics that BENCHMARK.json lists; with
``--trace 1`` it reports the per-layer ones, taken from spans recorded
around every call into dcqe in alternate rounds, and the tracing overhead
measured against the untraced rounds in between. ``--smoke`` shrinks every
size so that all workloads, metrics and checks run in seconds.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The run
uses one process and one thread (the set-up probes are short-lived child
interpreters, each waited for).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread-pool variables pinned to 1 before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

#: Set-ups repeated in process on traced runs, for the build timings.
TRACED_SETUPS = 10

#: Unit of every metric the benchmark computes.
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "error_rate": "ratio",
    "ops_attempted": "count",
    "events_per_s": "1/s",
    "cli_sample_s": "s",
    "cli_audit_s": "s",
    "io.write_event_log_s": "s",
    "io.read_event_log_s": "s",
    "io.write_mb_per_s": "MB/s",
    "io.read_mb_per_s": "MB/s",
    "io.bytes": "B",
    "events.sample_ns_per_event": "ns",
    "events.estimate_ns_per_event": "ns",
    "events.draw_efficiency": "ratio",
    "audit.audit_us": "us",
    "audit.independence_us": "us",
    "audit.lossless_us": "us",
    "audit.routing_us": "us",
    "audit.distinct_us": "us",
    "joint.validate_us": "us",
    "feasibility.check_feasible_s.nx4": "s",
    "feasibility.check_feasible_s.nx8": "s",
    "feasibility.check_feasible_s.nx16": "s",
    "feasibility.check_feasible_s.nx32": "s",
    "feasibility.check_feasible_s.nx64": "s",
    "feasibility.construct_witness_us": "us",
    "architectures.build_ms": "ms",
    "joint.coarse_grain_ms": "ms",
    "cli.sample_s": "s",
    "cli.audit_s": "s",
    "cli.sample_self_s": "s",
    "cli.audit_self_s": "s",
    "trace.overhead_pct": "%",
}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def op_class(op) -> tuple:
    """Operations of one kind, table and size share a class, whatever their seed."""
    return (op.kind, op.table, op.n, op.n_x)


def median_or_zero(values) -> float:
    """Median, or 0.0 where the layer did no work on this workload."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio_or_zero(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def measure_setup(workload: str, smoke: bool, probes: int, speed) -> list[float]:
    """Set-up times in fresh interpreters (import dcqe, build the tables)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        speed.sample(force=True)
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        end = time.perf_counter()
        speed.sample(force=True)
        times.append(float(out.stdout.split()[-1]) * speed.scale(start, end))
    return times


class Runner:
    """Runs one workload's reference ops and rounds, and keeps the tallies."""

    def __init__(self, wl, tracer, null_tracer, speed):
        self.wl = wl
        self.tracer = tracer
        self.null = null_tracer
        self.speed = speed
        self.attempted = 0
        self.failures: Counter = Counter()
        self.details: list[str] = []
        self.rounds: list[dict] = []
        self._next_op = 0

    def execute(self, op, traced: bool) -> tuple[float, float]:
        """Run, check and (traced) replay one op; return its wall start and end."""
        from workloads import Failure

        tracer = self.tracer if traced else self.null
        tracer.op = self._next_op
        self._next_op += 1
        self.attempted += 1
        self.speed.sample()
        start = time.perf_counter()
        try:
            result = self.wl.run(op, tracer)
        except Exception as exc:  # a raising operation is a failed operation
            kind, detail = "exception", f"{type(exc).__name__}: {exc}"
        else:
            kind = detail = None
        end = time.perf_counter()
        if kind is None:
            try:
                self.wl.check(op, result)
                if traced:
                    self.wl.replay(op, result, tracer)
            except Failure as exc:
                kind, detail = exc.kind, str(exc)
            except Exception as exc:  # a raising check or replay fails the operation too
                kind, detail = "exception", f"{type(exc).__name__}: {exc}"
        if kind is not None:
            self.failures[kind] += 1
            if len(self.details) < 5:
                self.details.append(f"{op}: {detail}")
        return start, end

    def run(self, seconds: float, rng, trace: bool) -> None:
        for op in self.wl.reference_ops():
            self.execute(op, traced=False)
        # Closed loop: whole rounds, started until the time is up. A traced
        # run alternates untraced and traced rounds and needs one of each.
        min_rounds = 2 if trace else 1
        start = time.perf_counter()
        while len(self.rounds) < min_rounds or time.perf_counter() - start < seconds:
            traced = trace and len(self.rounds) % 2 == 1
            ops = self.wl.round_ops(rng)
            self.rounds.append(
                {
                    "traced": traced,
                    "ops": [(op_class(op), *self.execute(op, traced)) for op in ops],
                    "events": sum(self.wl.events(op) for op in ops),
                }
            )
        self.speed.sample(force=True)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds spent between two wall-clock readings."""
        return (end - start) * self.speed.scale(start, end)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def typical_round(self, traced: bool) -> tuple[list[float], dict]:
        """One round's ops, each at its class's mean latency over the run.

        Latencies are in reference seconds (see speed.py). The mean over all
        of a class's runs averages what spells of machine noise remain; a
        median flips between fast and slow ones.
        """
        samples: dict[tuple, list[float]] = {}
        rounds = [r for r in self.rounds if r["traced"] == traced]
        for r in rounds:
            for cls, start, end in r["ops"]:
                samples.setdefault(cls, []).append(self.seconds(start, end))
        means = {cls: statistics.fmean(ts) for cls, ts in samples.items()}
        return [means[cls] for cls, _, _ in rounds[0]["ops"]], means

    def end_to_end(self, setup_s: float) -> dict:
        times, means = self.typical_round(traced=False)
        values = {
            "setup_s": setup_s,
            "run_s": sum(times),
            "op_p50_ms": percentile(times, 50) * 1e3,
            "op_p90_ms": percentile(times, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_rate": 1.0 - self.failed / self.attempted,
            "error_rate": self.failed / self.attempted,
            "ops_attempted": self.attempted,
        }
        if self.rounds[0]["events"]:
            values["events_per_s"] = self.rounds[0]["events"] / sum(times)
        if self.wl.name == "cli_roundtrip":
            for cls, t in means.items():
                values[f"cli_{cls[0]}_s"] = t
        return values

    def per_layer(self) -> dict:
        from workloads import draws

        def duration_s(span):
            return self.seconds(span["start_ns"] * 1e-9, span["end_ns"] * 1e-9)

        spans = self.tracer.spans
        by_name: dict[str, list[dict]] = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)

        def med(name, scale=1.0, where=lambda s: True):
            return median_or_zero(duration_s(s) * scale for s in by_name.get(name, ()) if where(s))

        def total(name, key):
            group = by_name.get(name, ())
            return sum(s.get(key, 0) for s in group), sum(duration_s(s) for s in group)

        values = {}
        for kind in ("write", "read"):
            name = f"io.{kind}_event_log"
            nbytes, busy = total(name, "bytes")
            values[f"{name}_s"] = med(name)
            values[f"io.{kind}_mb_per_s"] = ratio_or_zero(nbytes / 1e6, busy)
        values["io.bytes"] = median_or_zero(s["bytes"] for s in by_name.get("io.write_event_log", ()))
        for short, name in (("sample", "events.sample_events"), ("estimate", "events.estimate_from_events")):
            n, busy = total(name, "n")
            values[f"events.{short}_ns_per_event"] = ratio_or_zero(busy * 1e9, n)
        sampled = [s["n"] for s in by_name.get("events.sample_events", ())]
        values["events.draw_efficiency"] = ratio_or_zero(sum(sampled), sum(draws(n) for n in sampled))
        values["audit.audit_us"] = med("audit.audit", 1e6)
        for short, check in (("independence", "independence"), ("lossless", "lossless"),
                             ("routing", "deterministic_routing"), ("distinct", "distinct_conditionals")):
            values[f"audit.{short}_us"] = med(f"audit.check_{check}", 1e6)
        values["joint.validate_us"] = med("joint.validate", 1e6)
        for n_x in (4, 8, 16, 32, 64):
            values[f"feasibility.check_feasible_s.nx{n_x}"] = med(
                "feasibility.check_feasible", where=lambda s, n_x=n_x: s["n_x"] == n_x
            )
        values["feasibility.construct_witness_us"] = med("feasibility.construct_witness", 1e6)
        values["architectures.build_ms"] = med("architectures.build", 1e3, where=lambda s: "replay_of" not in s)
        values["joint.coarse_grain_ms"] = med("joint.coarse_grain", 1e3)
        # CLI self time: each cli span minus the layer calls it made, as
        # replayed through the public functions right after it.
        replayed: Counter = Counter()
        for s in spans:
            if s.get("replay_of") is not None:
                replayed[s["replay_of"]] += duration_s(s)
        for kind in ("sample", "audit"):
            group = by_name.get(f"cli.{kind}", ())
            values[f"cli.{kind}_s"] = median_or_zero(duration_s(s) for s in group)
            values[f"cli.{kind}_self_s"] = median_or_zero(duration_s(s) - replayed[s["id"]] for s in group)
        plain = sum(self.typical_round(traced=False)[0])
        traced = sum(self.typical_round(traced=True)[0])
        values["trace.overhead_pct"] = (traced - plain) / plain * 100.0
        return values


def load_spec(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for a quick full check")
    args = parser.parse_args(argv)

    if not (SRC / "dcqe" / "__init__.py").is_file():
        print(f"perfbench: no dcqe sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    import workloads
    from spans import NullTracer, Tracer
    from speed import NOMINAL_S, Speed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    spec = load_spec(bool(args.trace))
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    print("perfbench env " + json.dumps(env, sort_keys=True))

    tracer = Tracer() if args.trace else NullTracer()
    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    for _ in range(TRACED_SETUPS if args.trace else 1):
        wl.setup(tracer)
    # Half the set-up probes run before the timed phase and half after, so
    # their median spans more than one spell of machine noise.
    speed = Speed()
    setup_times = measure_setup(args.workload, args.smoke, SETUP_PROBES // 2, speed)
    runner = Runner(wl, tracer, NullTracer(), speed)
    runner.run(args.seconds, random.Random(f"{args.workload}:{args.seed}"), bool(args.trace))
    setup_times += measure_setup(args.workload, args.smoke, SETUP_PROBES - SETUP_PROBES // 2, speed)
    setup_s = statistics.median(setup_times)
    values = runner.end_to_end(setup_s)
    if args.trace:
        values.update(runner.per_layer())
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        trace_path = os.path.join(workloads.OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"perfbench spans {len(tracer.spans)} written to {trace_path}")
    shutil.rmtree(os.path.join(workloads.OUT_DIR, "cli"), ignore_errors=True)

    rounds = runner.rounds
    print(f"perfbench rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), "
          f"ops per round {len(rounds[0]['ops'])}")
    print(f"perfbench speed: reference loop median {statistics.median(speed.loop_s) * 1e3:.3f} ms "
          f"over {len(speed.loop_s)} samples; timings below are in reference seconds "
          f"(loop = {NOMINAL_S * 1e3:g} ms)")
    for name, value in values.items():
        print(f"perfbench metric {name} = {value:.6g} {UNITS[name]}")
    if runner.failures:
        print("perfbench failures " + json.dumps(dict(runner.failures), sort_keys=True))
        for detail in runner.details:
            print(f"perfbench failure {detail}")

    metrics = {}
    for m in spec:
        if m["unit"] != UNITS[m["name"]]:
            raise ValueError(f"BENCHMARK.json gives {m['name']} unit {m['unit']}, not {UNITS[m['name']]}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    # Only the documented empirical no-go defect may fail without making
    # the run incorrect; it still counts in failed and pass_rate.
    correct = set(runner.failures) <= {workloads.KNOWN_DEFECT}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
