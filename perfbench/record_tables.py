#!/usr/bin/env python3
"""Record the coset-table digests that traced runs compare against.

    python3 perfbench/record_tables.py

Runs every input each workload can draw, once, with ``enumerate_group``
wrapped, and writes ``perfbench/tables.json``: presentation key -> digest
of the coset table enumerated for it.  Re-record only when a change is
meant to alter the tables, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import HERE, load_rotamap


def main():
    load_rotamap()
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            plan = workloads.setup(name, 0, "domain")
            for fn, arg in plan.ops:
                fn(arg)
            print(f"{name}: {len(tracer.tables)} tables so far", file=sys.stderr)
    finally:
        tracer.uninstall()
    path = HERE / "tables.json"
    path.write_text(json.dumps(dict(sorted(tracer.tables.items())), indent=0) + "\n")
    print(f"wrote {len(tracer.tables)} digests to {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
