#!/usr/bin/env python3
"""Benchmark of rotamap's public API on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It imports rotamap from ``src/`` of the
same checkout, builds the workload's inputs from the seed (set-up), then
runs the operation list in one thread as a closed loop, one operation
after another, for about S seconds: ``round(S / nominal pass seconds)``
whole passes, at least one.  Every outcome is checked against an
independent oracle after the timed loop.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
passes untraced and half with every public function of the package
wrapped in a span, and reports the per-layer metrics derived from the
spans, the tracing overhead and whether the coset tables still match the
recorded digests (``perfbench/tables.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the environment, the inputs and (traced) the layer report; the
same record, and the spans of a traced run, are written under
``.perfbench/`` in the checkout.

Seeds 1 to 20 were used while the benchmark was written; seed 9001 is held
out for verifying later performance claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
HELD_OUT_SEED = 9001
SETUP_CHILDREN = 2  # extra fresh processes that time set-up alone
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

clock = time.perf_counter


def load_rotamap():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import rotamap
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import rotamap from {src}: {exc}")
    if Path(rotamap.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported {rotamap.__file__}, not the copy in {src}")
    return rotamap


def environment(seed):
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def child_setup(args):
    """(set-up wall seconds, host speed factor) in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed:\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["factor"]


def run_pass(plan, call):
    """One closed-loop pass over the operation list.

    Returns the wall latency of each operation, its latency scaled to the
    reference host speed, and its outcome.  The calibration kernel runs
    before each operation and after the last, outside the timed calls.
    """
    intervals, kernels, outcomes = [], [calibrate.timed_kernel()], []
    for i, (fn, arg) in enumerate(plan.ops):
        t = clock()
        try:
            out = call(i, fn, arg)
        except Exception as exc:  # an unexpected error is a failed operation
            out = exc
        intervals.append((t, clock()))
        outcomes.append(out)
        kernels.append(calibrate.timed_kernel())
    latencies = [end - start for start, end in intervals]
    factors = calibrate.op_factors(intervals, kernels)
    return latencies, [x * f for x, f in zip(latencies, factors)], outcomes


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n // 2
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def check_outcomes(plan, outcomes):
    failures = []
    for i, out in enumerate(outcomes):
        label = plan.labels[i % len(plan.ops)]
        if isinstance(out, Exception):
            failures.append(f"{label}: {type(out).__name__}: {out}")
            continue
        try:
            err = plan.check(out)
        except Exception as exc:  # the oracle itself failed on this outcome
            err = f"oracle raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{label}: {err}")
    return failures


def layer_report(workload, metrics):
    with open(HERE / "predictions.json", encoding="utf-8") as f:
        predictions = json.load(f)
    lines = [f"layer isolation ({workload}): self time as share of traced run_s"]
    for layer, pred in predictions.items():
        share = metrics.get(f"share.{layer}", 0.0)
        if workload in pred["moves_on"]:
            verdict = f"should move {', '.join(pred['moves'])}"
        elif workload in pred["flat_on"]:
            verdict = "predicted flat"
        else:
            verdict = "no prediction"
        lines.append(f"  {layer:<18} {100 * share:6.2f} %   {verdict}")
    lines.append(f"  {'other':<18} {100 * metrics.get('share.other', 0.0):6.2f} %   "
                 "benchmark glue and unwrapped code")
    return lines


def tables_changed(recorded):
    with open(HERE / "tables.json", encoding="utf-8") as f:
        stored = json.load(f)
    return sorted(k for k, v in recorded.items() if stored.get(k) != v)


def main(argv=None):
    before = calibrate.kernel_times()
    t0 = clock()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "torus-sweep", "petrie-scan", "map-search"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny runs a few cheap inputs (self-tests)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_rotamap()
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.op = "setup"
        tracer.install()
    plan = workloads.setup(args.workload, args.seed, args.size)
    setup_s = clock() - t0
    if tracer:
        tracer.uninstall()
        tracer.op = None
    setup_factor = calibrate.speed_factor(before + calibrate.kernel_times())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "factor": setup_factor}))
        return 0

    nominal = workloads.WORKLOADS[args.workload][1]
    passes = max(1, round(args.seconds / nominal))
    if tracer:
        passes = max(1, passes // 2)

    wall, wall_latencies, times, latencies, outcomes = [], [], [], [], []
    for _ in range(passes):
        lat, scaled, outs = run_pass(plan, lambda i, fn, arg: fn(arg))
        wall.append(sum(lat))
        wall_latencies += lat
        times.append(sum(scaled))
        latencies += scaled
        outcomes += outs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_s = statistics.median(times)

    record = dict(environment(args.seed), workload=args.workload,
                  size=args.size, passes=passes, ops_per_pass=len(plan.ops),
                  inputs=plan.sizes, pass_wall_s=wall, pass_s=times)
    if tracer:
        setup_spans = tracer.spans
        tracer.spans = []
        tracer.install()
        traced_wall, traced_times = [], []
        for p in range(passes):
            lat, scaled, outs = run_pass(
                plan, lambda i, fn, arg: tracer.call_op(f"{p}:{i}", fn, arg))
            traced_wall.append(sum(lat))
            traced_times.append(sum(scaled))
            outcomes += outs
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, passes, statistics.median(traced_wall))
        metrics["trace_overhead_ratio"] = statistics.median(traced_times) / run_s
        changed = tables_changed(tracer.tables)
        metrics["tables_changed"] = len(changed)
        record.update(traced_pass_wall_s=traced_wall, traced_pass_s=traced_times,
                      tables=tracer.tables,
                      tables_changed=changed)
    else:
        setup_samples = [(setup_s, setup_factor)]
        setup_samples += [child_setup(args) for _ in range(SETUP_CHILDREN)]
        tail_s, tail_pct, beyond = tail(latencies)
        metrics = {
            "run_s": run_s,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s,
            "setup_s": statistics.median(t * f for t, f in setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(setup_samples_s=setup_samples, op_tail_percentile=tail_pct,
                      op_tail_samples=len(latencies), op_tail_beyond=beyond,
                      op_p50_wall_ms=1000 * statistics.median(wall_latencies),
                      op_tail_wall_ms=1000 * tail(wall_latencies)[0],
                      op_ms=[[plan.labels[i % len(plan.ops)], 1000 * w, 1000 * x]
                             for i, (w, x) in enumerate(zip(wall_latencies, latencies))])

    failures = check_outcomes(plan, outcomes)
    record.update(attempted=len(outcomes), failed=len(failures),
                  fail_ratio=len(failures) / len(outcomes), failures=failures[:20])
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["metrics"] = result["metrics"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "error", "size"],
             "setup": setup_spans, "loop": tracer.spans}))
        for line in layer_report(args.workload, metrics):
            print(line)
        if changed:
            print(f"coset tables changed: {len(changed)} presentations differ from tables.json")
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if k not in ("tables", "failures", "metrics")}))
    print(f"fail_ratio {record['fail_ratio']:.6g} ({len(failures)}/{len(outcomes)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
