#!/usr/bin/env python3
"""Rank the inputs of torus-sweep and petrie-scan by measured cost.

    python3 perfbench/rank_inputs.py

Times every input the two workloads can draw, scaled to the reference
host speed (see calibrate.py), median of three runs, and writes
``perfbench/ranking.json``: for each workload, the inputs from the
cheapest to the most expensive.  The workloads draw one input from each
run of neighbours in this order, so every seed gets about the same mix of
costs.  The ranking is frozen data: it fixes which inputs a seed draws,
so re-ranking changes the benchmark and needs a new baseline.
"""

from __future__ import annotations

import json
import statistics
import time

import calibrate
from run import HERE, load_rotamap


def scaled_seconds(fn, arg):
    before = calibrate.kernel_times()
    t = time.perf_counter()
    fn(arg)
    wall = time.perf_counter() - t
    return wall * calibrate.speed_factor(before + calibrate.kernel_times())


def main():
    load_rotamap()
    import workloads

    out = {}
    for name in ("torus-sweep", "petrie-scan"):
        plan = workloads.setup(name, 0, "domain")
        costs = []
        for (fn, arg), key in zip(plan.ops, plan.keys):
            cost = statistics.median(scaled_seconds(fn, arg) for _ in range(3))
            costs.append((cost, key))
        out[name] = [key for _, key in sorted(costs)]
    (HERE / "ranking.json").write_text(
        "{\n" + ",\n".join(f' "{n}": {json.dumps(keys)}' for n, keys in out.items()) + "\n}\n")


if __name__ == "__main__":
    main()
