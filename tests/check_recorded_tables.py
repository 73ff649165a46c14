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
changed, none recorded left unbuilt, none built unrecorded.  It also
exits 1 unless the Schreier tree of each recorded table, as
``_row_scan`` hands it over, equals the breadth-first search
``_schreier_tree`` on the same table.

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
back), or were first complete at the loop's last row (ran to the end);
and how many of the groups were enumerated over a facet subgroup
<x0, x1>, over a cyclic <g> and over the trivial subgroup.  The groups
that ``_facet_labels`` enumerates to label a facet subgroup with are
neither counted nor recorded: the benchmark's tracer does not see them.

On the same tori it compares ``normal_closure(s1 s2)`` and
``generated_by_involutions()`` of the verified group with those of the
same table built directly, exits 1, naming the tori at fault, unless
they agree, and prints how many tori are generated by involutions and
how many have each index |G : N(s1 s2)|.

It compares the same two involution queries on extension tables, which
have no ``_left``, with those of the same table verified: the extension
of every self-dual catalog entry, and the Petrie-Coxeter map of every
self-dual Petrie quotient the petrie-scan workload draws.  It exits 1,
naming the tables at fault, unless they agree and the tables and their
verdicts are as many as ``EXTENDED`` says, and prints the verdicts.

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
    verified_group = engine._verified_group
    facet_labels = engine._facet_labels
    stops = {}
    subgroups = {}
    trees = {}
    # the facet groups being enumerated for their labels
    facets = []

    def record(self, presentation, *args, **kwargs):
        init(self, presentation, *args, **kwargs)
        if not facets:
            groups.setdefault(spans.presentation_key(presentation), presentation)

    def observe(ncols, relators, cap, h, check):
        stop, _, state = observed(enumerate_cosets, ncols, relators, cap, h, check)
        if not facets:
            stops[ncols, tuple(relators)] = stop
            subgroups[ncols, tuple(relators)] = SUBGROUPS[len(h[0])]
        return state

    def tree_checked(p, cap, cosets):
        rep = verified_group(p, cap, cosets)
        search = engine._schreier_tree(rep.table.cols, rep.order)
        trees[spans.presentation_key(p)] = (rep._parent_coset, rep._parent_col) == search
        return rep

    def facet_labelled(p):
        facets.append(p)
        try:
            return facet_labels(p)
        finally:
            facets.pop()

    tracer = spans.Tracer()
    tracer.install()
    engine.GroupRep.__init__ = record
    engine._enumerate_cosets = observe
    engine._verified_group = tree_checked
    engine._facet_labels = facet_labelled
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
        engine._verified_group = verified_group
        engine._facet_labels = facet_labels
        tracer.uninstall()
    recorded = json.loads((PERFBENCH / "tables.json").read_text(encoding="utf-8"))
    built = tracer.tables
    faults = {
        "changed": sorted(k for k in recorded.keys() & built.keys() if recorded[k] != built[k]),
        "not built": sorted(recorded.keys() - built.keys()),
        "not recorded": sorted(built.keys() - recorded.keys()),
        "with a tree unlike _schreier_tree's": sorted(
            k for k in recorded.keys() if not trees.get(k)),
    }
    mismatches, torus_stops = torus_hlt_mismatches()
    faults["unlike hlt_reference"] = mismatches
    faults["with involution queries unequal"], verdicts, indices = involution_mismatches()
    squares, faults["with extension squares unequal"] = extension_square_mismatches()
    split, polytopal = petrie_split()
    unequal, extended = extension_involution_mismatches(polytopal)
    faults["with extension involution queries unequal"] = unequal
    counts = {what: (len(reps), sum(reps.values())) for what, reps in extended.items()}
    if counts != EXTENDED:
        faults[f"and verdicts in extensions, not {EXTENDED}"] = [
            f"{n} {what} ({v} generated by involutions)" for what, (n, v) in counts.items()]
    if len(squares) != SQUARES:
        faults[f"with extension squares, not {SQUARES}"] = squares
    for what, keys in faults.items():
        if keys:
            print(f"{len(keys)} tables {what}: {', '.join(keys)}", file=sys.stderr)
    if split != SPLIT:
        print(f"Petrie quotients split {split}, not {SPLIT}", file=sys.stderr)
    print(f"{tally(stops.values())} of the {len(stops)} presentations enumerated, "
          f"and {tally(torus_stops)} of the {len(torus_stops)} tori over the "
          "trivial subgroup")
    print(f"{tally(subgroups.values(), SUBGROUPS)} of the {len(subgroups)} presentations "
          "enumerated")
    print(f"{verdicts} of the {len(torus_stops)} tori are generated by involutions; "
          f"|G : N(s1 s2)| over them: {dict(sorted(indices.items()))}")
    for what, reps in extended.items():
        print(f"{sum(reps.values())} of the {len(reps)} {what} are generated by involutions")
    if any(faults.values()) or split != SPLIT:
        return 1
    print(f"all {len(recorded)} recorded tables match, each with the "
          "breadth-first tree of _schreier_tree, every torus "
          "enumerates as hlt_reference does and answers both involution "
          "queries alike without _left, so does every extension, all "
          f"{SQUARES} extension squares close, and the Petrie quotients "
          "split as SPLIT says")
    return 0


STOPS = ("early", "fell back", "ran to the end")
# the subgroup an enumeration ran over, by the generator columns it
# labels: none, one (<g>) or two (the facet subgroup)
SUBGROUPS = ("over the trivial subgroup", "over <g>", "over a facet subgroup")


def tally(stops, kinds=STOPS) -> str:
    stops = list(stops)
    return ", ".join(f"{stops.count(kind)} {kind}" for kind in kinds)


def observed(enumerate_cosets, ncols, relators, cap, h, check):
    """Run ``enumerate_cosets`` with ``check`` as its early check, and
    return how it stopped (one of ``STOPS``), a copy of the raw ``(cols,
    parent)`` the check accepted or None, and the raw result."""
    handed = []

    def copying(cols, parent, labs, labels):
        handed.append(([col[:] for col in cols], parent[:]))
        check(cols, parent, labs, labels)
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
    trivial = engine._cyclic_labels(())
    out = []
    stops = []
    for v in workloads.setup("torus-sweep", 0, "domain").keys:
        t = rotamap.TorusFamily(*v)
        p = rotamap.torus_presentation(t)
        args = (2 * p.ngens, engine._bounded_relators(p, cap), cap)

        def check(*cosets):
            engine._verified_group(p, cap, cosets)

        stop, accepted, state = observed(engine._enumerate_cosets, *args, trivial, check)
        stops.append(stop)
        want = hlt_reference(*args)
        if state[:2] != want or accepted not in (None, want):
            out.append(t.name)
    return out, stops


def involution_mismatches() -> tuple:
    """The names of the torus-sweep tori on which the verified group, whose
    involution queries close one orbit (``GroupRep._orbit``), and the same
    table built directly, which closes over conjugacy classes, give a
    different ``normal_closure(s1 s2)`` or ``generated_by_involutions()``;
    how many tori are generated by involutions; and how many tori have
    each index |G : N(s1 s2)|."""
    import workloads

    rotamap = sys.modules["rotamap"]
    out = []
    verdicts = 0
    indices = {}
    for v in workloads.setup("torus-sweep", 0, "domain").keys:
        t = rotamap.TorusFamily(*v)
        rep = rotamap.enumerate_group(rotamap.torus_presentation(t))
        plain = rotamap.GroupRep(rep.presentation, rep.table)
        s1, s2 = rep.presentation.distinguished
        closure = rep.normal_closure(s1 * s2)
        verdict = rep.generated_by_involutions()
        if (closure, verdict) != (plain.normal_closure(s1 * s2), plain.generated_by_involutions()):
            out.append(t.name)
        verdicts += verdict
        index = rep.order // closure.size
        indices[index] = indices.get(index, 0) + 1
    return out, verdicts, indices


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


# the extension tables of the self-dual catalog entries, and those of the
# Petrie-Coxeter maps of the self-dual petrie-scan quotients (the SQUARES
# pairs): how many, and how many of them are generated by involutions
EXTENDED = {"catalog extensions": (7, 6), "Petrie-Coxeter maps of Petrie quotients": (SQUARES, 11)}


def extension_involution_mismatches(quotients) -> tuple:
    """The names of the ``EXTENDED`` tables on which ``involutions()`` or
    ``generated_by_involutions()`` differs from that of the same table and
    tree after ``_verify``, which searches by left multiplication and
    closes one orbit (``GroupRep._orbit``); and each table's verdict, by
    ``EXTENDED`` kind and name.  The extensions have no ``_left``, so
    they climb the Schreier tree once per inverse pair, and the closure
    asks only about elements outside it.  They are built by
    ``petrie_coxeter``, from the catalog's rank-4 entries and from the
    polytopal petrie-scan Petrie ``quotients``, ``(name, group)`` pairs;
    the groups that are not self-dual are skipped."""
    rotamap = sys.modules["rotamap"]
    entries = []
    for name, entry in rotamap.catalog().items():
        g = rotamap.load_group(entry.presentation)
        if isinstance(g, (rotamap.RotationGroup4, rotamap.RegularCGroup4)):
            entries.append((name, g))
    bases = dict(zip(EXTENDED, (entries, quotients)))
    out = []
    verdicts = {what: {} for what in EXTENDED}
    for what, groups in bases.items():
        for name, g in groups:
            try:
                rep = rotamap.petrie_coxeter(g)[1].rep
            except rotamap.NotSelfDualError:
                continue
            verified = rotamap.GroupRep(
                rep.presentation, rep.table, rep.cap, (rep._parent_coset, rep._parent_col))
            verified._verify()
            verdict = rep.generated_by_involutions()
            if (rep._left is not None
                    or verdict is not verified.generated_by_involutions()
                    or rep.involutions() != verified.involutions()):
                out.append(name)
            verdicts[what][name] = verdict
    return out, verdicts


# the petrie-scan quotients of each base, k = 2..30, by polytopality,
# then by duality kind and chirality
SPLIT = {
    "ex1": {"not polytopal": 14, "improper regular": 8, "improper chiral": 7},
    "ex2": {"not polytopal": 25, "improper chiral": 4},
    "ex3": {"not polytopal": 22, "proper chiral": 7},
}


def petrie_split() -> tuple:
    """How many petrie-scan Petrie quotients of each base are not
    polytopal, and how many are of each duality kind and chirality; and
    the polytopal ones, each named ``"base/k"``."""
    import workloads

    rotamap = sys.modules["rotamap"]
    split = {}
    polytopal = []
    for _, (name, m, k) in workloads.setup("petrie-scan", 0, "domain").ops:
        try:
            q = rotamap.petrie_quotient(m, k)
        except rotamap.NotPolytopalError:
            verdict = "not polytopal"
        else:
            verdict = f"{rotamap.detect_self_duality(q).kind} {rotamap.classify4(q)}"
            polytopal.append((f"{name}/{k}", q))
        counts = split.setdefault(name, {})
        counts[verdict] = counts.get(verdict, 0) + 1
    return split, polytopal


if __name__ == "__main__":
    sys.exit(main())
