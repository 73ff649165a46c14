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
style, with ``enumerate_group``'s early check, and exits 1, naming the
tori at fault, unless the raw ``(cols, parent)`` equals that of
``oracle.hlt_reference``: the same cosets defined in the same order.
Where the check accepted the first complete table, the state it was
handed is compared too.  pytest does not collect it; it takes about as
long as recording the tables.

It prints how many presentations, over the groups ``enumerate_group``
enumerates and over the tori's trivial subgroups, stopped at the first
complete table (early), went on after the check failed there (fell
back), or were first complete at the loop's last row (ran to the end).

Last, it closes the extension square (``test_squares.square``) at every
(base, k) pair the petrie-scan workload draws, k = 2..30 over ex1, ex2
and ex3, and exits 1, naming the pairs at fault, unless each of the
``SQUARES`` pairs whose Petrie quotient is self-dual gives one table.
It also sorts those 87 Petrie quotients into not polytopal and, when
polytopal, by duality kind and chirality, and exits 1 unless each base
splits as ``SPLIT`` says: the petrie-scan oracle checks orders only.
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
    enumerate_cosets = engine._enumerate_cosets
    stops = {}

    def record(self, presentation, *args, **kwargs):
        init(self, presentation, *args, **kwargs)
        groups.setdefault(spans.presentation_key(presentation), presentation)

    def observe(ncols, relators, cap, h, check):
        stops[ncols, tuple(relators)], _, state = observed(
            enumerate_cosets, ncols, relators, cap, h, check)
        return state

    tracer = spans.Tracer()
    tracer.install()
    engine.GroupRep.__init__ = record
    engine._enumerate_cosets = observe
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
        engine._enumerate_cosets = enumerate_cosets
        tracer.uninstall()
    recorded = json.loads((PERFBENCH / "tables.json").read_text(encoding="utf-8"))
    built = tracer.tables
    faults = {
        "changed": sorted(k for k in recorded.keys() & built.keys() if recorded[k] != built[k]),
        "not built": sorted(recorded.keys() - built.keys()),
        "not recorded": sorted(built.keys() - recorded.keys()),
    }
    mismatches, torus_stops = torus_hlt_mismatches()
    faults["unlike hlt_reference"] = mismatches
    squares, faults["with extension squares unequal"] = extension_square_mismatches()
    if len(squares) != SQUARES:
        faults[f"with extension squares, not {SQUARES}"] = squares
    split = petrie_split()
    for what, keys in faults.items():
        if keys:
            print(f"{len(keys)} tables {what}: {', '.join(keys)}", file=sys.stderr)
    if split != SPLIT:
        print(f"Petrie quotients split {split}, not {SPLIT}", file=sys.stderr)
    print(f"{tally(stops.values())} of the {len(stops)} presentations enumerated, "
          f"and {tally(torus_stops)} of the {len(torus_stops)} tori over the "
          "trivial subgroup")
    if any(faults.values()) or split != SPLIT:
        return 1
    print(f"all {len(recorded)} recorded tables match, every torus "
          f"enumerates as hlt_reference does, all {SQUARES} extension "
          "squares close, and the Petrie quotients split as SPLIT says")
    return 0


STOPS = ("early", "fell back", "ran to the end")


def tally(stops) -> str:
    stops = list(stops)
    return ", ".join(f"{stops.count(stop)} {stop}" for stop in STOPS)


def observed(enumerate_cosets, ncols, relators, cap, h, check):
    """Run ``enumerate_cosets`` with ``check`` as its early check, and
    return how it stopped (one of ``STOPS``), a copy of the raw ``(cols,
    parent)`` the check accepted or None, and the raw result."""
    handed = []

    def copying(cols, parent, labs, modulus):
        handed.append(([col[:] for col in cols], parent[:]))
        check(cols, parent, labs, modulus)
        handed.append(None)

    state = enumerate_cosets(ncols, relators, cap, h, copying)
    if not handed:
        return STOPS[2], None, state
    if len(handed) == 1:
        return STOPS[1], None, state
    return STOPS[0], handed[0], state


def torus_hlt_mismatches() -> tuple:
    """The names of the torus-sweep tori whose raw enumeration over the
    trivial subgroup, or the state its early check accepted, differs
    from ``oracle.hlt_reference``'s; and how each enumeration stopped."""
    import workloads
    from oracle import hlt_reference

    rotamap = sys.modules["rotamap"]
    engine = sys.modules["rotamap.engine"]
    cap = engine.DEFAULT_CAP
    out = []
    stops = []
    for v in workloads.setup("torus-sweep", 0, "domain").keys:
        t = rotamap.TorusFamily(*v)
        p = rotamap.torus_presentation(t)
        args = (2 * p.ngens, engine._bounded_relators(p, cap), cap)

        def check(*cosets):
            engine._verified_group(p, cap, cosets)

        stop, accepted, state = observed(engine._enumerate_cosets, *args, None, check)
        stops.append(stop)
        want = hlt_reference(*args)
        if state[:2] != want or accepted not in (None, want):
            out.append(t.name)
    return out, stops


# the petrie-scan pairs whose Petrie quotient is self-dual: ex1 at even
# k (15), ex2 at k = 7, 14, 21 and 28, and ex3 at k = 4, 8, ..., 28 (7)
SQUARES = 26


def extension_square_mismatches() -> tuple:
    """The petrie-scan (base, k) pairs that have an extension square,
    and those whose two corners differ, each named ``"base/k"``."""
    import workloads
    from test_squares import EXTEND, square

    detect = sys.modules["rotamap"].detect_self_duality
    extensions = {}
    squares = []
    out = []
    for _, (name, m, k) in workloads.setup("petrie-scan", 0, "domain").ops:
        if name not in extensions:
            extensions[name] = EXTEND[detect(m).kind](m)
        corners = square(extensions[name], k)
        if corners is not None:
            squares.append(f"{name}/{k}")
            if corners[0] != corners[1]:
                out.append(squares[-1])
    return squares, out


# the petrie-scan quotients of each base, k = 2..30, by polytopality,
# then by duality kind and chirality
SPLIT = {
    "ex1": {"not polytopal": 14, "improper regular": 8, "improper chiral": 7},
    "ex2": {"not polytopal": 25, "improper chiral": 4},
    "ex3": {"not polytopal": 22, "proper chiral": 7},
}


def petrie_split() -> dict:
    """How many petrie-scan Petrie quotients of each base are not
    polytopal, and how many are of each duality kind and chirality."""
    import workloads

    rotamap = sys.modules["rotamap"]
    split = {}
    for _, (name, m, k) in workloads.setup("petrie-scan", 0, "domain").ops:
        try:
            q = rotamap.petrie_quotient(m, k)
        except rotamap.NotPolytopalError:
            verdict = "not polytopal"
        else:
            verdict = f"{rotamap.detect_self_duality(q).kind} {rotamap.classify4(q)}"
        counts = split.setdefault(name, {})
        counts[verdict] = counts.get(verdict, 0) + 1
    return split


if __name__ == "__main__":
    sys.exit(main())
