#!/usr/bin/env python3
"""Check every coset table the benchmark can draw against its recorded digest.

    python3 tests/check_recorded_tables.py

Replays the traversal of ``perfbench/record_tables.py``: each workload's
"domain" operations, every input the workload can draw, run once under
``spans.Tracer``, which digests each table ``enumerate_group`` builds.
The tables were recorded when quotients and extensions were enumerated
too; they are now derived from the tables they start from, so every
group built during the traversal that ``enumerate_group`` did not build
is enumerated afterwards, under the tracer, from its presentation.  It
writes nothing.  It exits 1, naming the presentation keys at fault,
unless the digests equal ``perfbench/tables.json`` exactly: no table
changed, none recorded left unbuilt, none built unrecorded.

It then enumerates every torus the torus-sweep workload can draw over the
trivial subgroup, whose long translation relators the engine closes HLT
style, and exits 1, naming the tori at fault, unless the raw ``(cols,
parent)`` equals that of ``oracle.hlt_reference``: the same cosets
defined in the same order.  pytest does not collect it; it takes about
as long as recording the tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import load_rotamap  # noqa: E402


def main() -> int:
    load_rotamap()
    import spans
    import workloads

    engine = sys.modules["rotamap.engine"]
    groups = {}
    init = engine.GroupRep.__init__

    def record(self, presentation, *args, **kwargs):
        init(self, presentation, *args, **kwargs)
        groups.setdefault(spans.presentation_key(presentation), presentation)

    tracer = spans.Tracer()
    tracer.install()
    engine.GroupRep.__init__ = record
    try:
        for name in workloads.WORKLOADS:
            for fn, arg in workloads.setup(name, 0, "domain").ops:
                fn(arg)
        engine.GroupRep.__init__ = init
        for key, presentation in groups.items():
            if key not in tracer.tables:
                engine.enumerate_group(presentation)
    finally:
        engine.GroupRep.__init__ = init
        tracer.uninstall()
    recorded = json.loads((PERFBENCH / "tables.json").read_text(encoding="utf-8"))
    built = tracer.tables
    faults = {
        "changed": sorted(k for k in recorded.keys() & built.keys() if recorded[k] != built[k]),
        "not built": sorted(recorded.keys() - built.keys()),
        "not recorded": sorted(built.keys() - recorded.keys()),
    }
    faults["unlike hlt_reference"] = torus_hlt_mismatches()
    for what, keys in faults.items():
        if keys:
            print(f"{len(keys)} tables {what}: {', '.join(keys)}", file=sys.stderr)
    if any(faults.values()):
        return 1
    print(f"all {len(recorded)} recorded tables match, and every torus "
          "enumerates as hlt_reference does")
    return 0


def torus_hlt_mismatches() -> list:
    """The names of the torus-sweep tori whose raw enumeration over the
    trivial subgroup differs from ``oracle.hlt_reference``'s."""
    import workloads
    from oracle import hlt_reference

    rotamap = sys.modules["rotamap"]
    engine = sys.modules["rotamap.engine"]
    cap = engine.DEFAULT_CAP
    out = []
    for v in workloads.setup("torus-sweep", 0, "domain").keys:
        t = rotamap.TorusFamily(*v)
        p = rotamap.torus_presentation(t)
        args = (2 * p.ngens, engine._bounded_relators(p, cap), cap)
        if engine._enumerate_cosets(*args)[:2] != hlt_reference(*args):
            out.append(t.name)
    return out


if __name__ == "__main__":
    sys.exit(main())
