"""Spans recorded from outside the program.

The tracer wraps the public functions of each rotamap module by patching
the module attributes that name them (and the ``GroupRep`` methods on the
class), so nothing under ``src/`` changes.  Each call becomes a span:
``[name, start, end, parent index, operation id, exception name, size]``,
where size is the group order for ``enumerate_group`` and None otherwise.
Spans stay in memory until the run ends; ``layer_metrics`` derives call
counts, inclusive time and self time from them.

Every ``CosetTable`` that ``enumerate_group`` returns is also hashed, keyed
by the presentation it came from, so a run can tell whether the program
still builds byte-identical tables.
"""

from __future__ import annotations

import hashlib
import sys
import time
from itertools import chain

# Wrapped public functions, by the metric group their spans count towards.
FUNCTIONS = {
    "words.parse": [("rotamap.words", "parse_presentation")],
    "words.serialize": [("rotamap.words", "serialize_presentation")],
    "engine.enumerate": [("rotamap.engine", "enumerate_group")],
    "rotary.classify": [
        ("rotamap.rotary", name) for name in (
            "check_polytopal3", "check_polytopal4", "classify3", "classify4",
            "is_reflexible3", "is_reflexible4",
        )
    ],
    "rotary.invariants": [
        ("rotamap.rotary", name) for name in (
            "map_invariants3", "map_invariants_regular", "involution_report",
            "petrie4", "schlafli", "f_vector3", "euler_genus", "hole_length",
            "zigzag_length", "map_report3", "map_report_regular",
        )
    ],
    "selfdual.detect": [
        ("rotamap.selfdual", "detect_self_duality"),
        ("rotamap.selfdual", "find_polarity"),
    ],
    "selfdual.extend": [
        ("rotamap.selfdual", name)
        for name in ("extend_improper", "extend_proper", "extend_polarity")
    ],
    "constructions.entry_report": [
        ("rotamap.constructions", "compute_entry_report"),
        ("rotamap.constructions", "verify_catalog_entry"),
    ],
    "constructions.petrie_quotient": [
        ("rotamap.constructions", "petrie_quotient"),
    ],
    "constructions.pc_map": [
        ("rotamap.constructions", name)
        for name in ("pc_map_improper", "pc_map_proper", "pc_map_regular")
    ],
    "cli.analyze": [
        ("rotamap.cli", name) for name in (
            "analyze_presentation", "report_rotation3", "report_rotation4",
            "report_regular_map", "report_cgroup4",
        )
    ],
}

# Wrapped GroupRep methods (the engine's query layer).
METHODS = {
    "engine.query.automorphism": [
        "generator_map_automorphism", "extends_to_automorphism",
    ],
    "engine.query.closure": ["subgroup_closure"],
    "engine.query.normal": [
        "normal_closure", "conjugacy_class", "derived_subgroup", "center",
    ],
    "engine.query.involutions": ["involutions", "generated_by_involutions"],
    "engine.query.element": [
        "element_of", "element_order", "product", "inverse_element",
        "element_word", "multiply",
    ],
}

# Layers for the share-of-run_s report: a metric group belongs to the
# longest layer name that prefixes it.
LAYERS = (
    "words", "engine.enumerate", "engine.query", "rotary", "selfdual",
    "constructions", "cli",
)

OP = "op"  # root span of one benchmark operation


def layer_of(group: str) -> str:
    """The longest layer name that prefixes the group, else "other"."""
    matches = [x for x in LAYERS if group == x or group.startswith(x + ".")]
    return max(matches, key=len, default="other")


def presentation_key(p) -> str:
    """Stable key for a presentation: generator names and relator letters."""
    text = repr((tuple(p.names), tuple(r.cols() for r in p.relators)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digest(table) -> str:
    """Digest of a coset table's entries, independent of row container types."""
    flat = ",".join(map(str, chain.from_iterable(table.rows)))
    return hashlib.sha256(f"{table.ngens}:{flat}".encode()).hexdigest()[:16]


class Tracer:
    """Patches rotamap with span-recording wrappers while installed."""

    def __init__(self):
        self.spans = []
        self.tables = {}  # presentation key -> table digest
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, group, fn, on_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [group, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                rec[6] = on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = fn.__doc__
        return traced

    def _record_table(self, rep):
        self.tables[presentation_key(rep.presentation)] = table_digest(rep.table)
        return rep.order

    def install(self):
        if self._undo:
            return
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "rotamap" or name.startswith("rotamap."))
        ]
        for group, targets in FUNCTIONS.items():
            for modname, fname in targets:
                orig = getattr(sys.modules[modname], fname)
                hook = self._record_table if group == "engine.enumerate" else None
                wrapper = self._wrap(group, orig, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))
        group_rep = sys.modules["rotamap.engine"].GroupRep
        for group, names in METHODS.items():
            for name in names:
                orig = group_rep.__dict__[name]
                setattr(group_rep, name, self._wrap(group, orig))
                self._undo.append((group_rep, name, orig))

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def call_op(self, op_id, fn, arg):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        try:
            return self._wrap(OP, fn)(arg)
        finally:
            self.op = None


def _aggregate(spans):
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls, total, self_s, errors, size = {}, {}, {}, {}, {}
    extend_enumerate = 0.0
    for i, (group, start, end, parent, _op, err, n) in enumerate(spans):
        dur = end - start
        calls[group] = calls.get(group, 0) + 1
        self_s[group] = self_s.get(group, 0.0) + dur - child[i]
        if err is not None:
            errors[group, err] = errors.get((group, err), 0) + 1
        if n is not None:
            size[group] = size.get(group, 0) + n
        above = set()
        while parent >= 0:
            above.add(spans[parent][0])
            parent = spans[parent][3]
        if group not in above:
            total[group] = total.get(group, 0.0) + dur
        if group == "engine.enumerate" and "selfdual.extend" in above:
            extend_enumerate += dur
    return calls, total, self_s, errors, size, extend_enumerate


def layer_metrics(spans, passes: int, traced_run_s: float) -> dict:
    """Per-layer metrics of the spans of ``passes`` traced passes, per pass.

    ``calls`` counts every span of a group; ``total_s`` sums the spans of
    a group that have no ancestor in the same group, so nested calls are
    not counted twice; ``self_s`` sums each span's duration minus the time
    its direct children cover.  ``share.<layer>`` is a layer's self time
    as a share of the traced pass time; ``share.other`` is what no wrapped
    function covers (benchmark glue and unwrapped program code).
    """
    calls, total, self_s, errors, size, extend_enumerate = _aggregate(spans)

    def c(group):
        return calls.get(group, 0) / passes

    def t(group):
        return total.get(group, 0.0) / passes

    def s(group):
        return self_s.get(group, 0.0) / passes

    enum_total = total.get("engine.enumerate", 0.0)
    elements = size.get("engine.enumerate", 0)
    pq_calls = calls.get("constructions.petrie_quotient", 0)
    pq_collapsed = errors.get(("constructions.petrie_quotient", "NotPolytopalError"), 0)
    out = {
        "words.parse.calls": c("words.parse"),
        "words.parse.self_s": s("words.parse"),
        "words.serialize.self_s": s("words.serialize"),
        "engine.enumerate.calls": c("engine.enumerate"),
        "engine.enumerate.self_s": s("engine.enumerate"),
        "engine.enumerate.elements": elements / passes,
        "engine.enumerate.elements_per_s": elements / enum_total if enum_total else 0.0,
        "engine.enumerate.cap_exceeded":
            errors.get(("engine.enumerate", "CapExceededError"), 0) / passes,
        "engine.query.automorphism.calls": c("engine.query.automorphism"),
        "engine.query.automorphism.self_s": s("engine.query.automorphism"),
        "engine.query.closure.calls": c("engine.query.closure"),
        "engine.query.closure.self_s": s("engine.query.closure"),
        "engine.query.normal.self_s": s("engine.query.normal"),
        "engine.query.involutions.self_s": s("engine.query.involutions"),
        "engine.query.element.calls": c("engine.query.element"),
        "rotary.classify.calls": c("rotary.classify"),
        "rotary.classify.total_s": t("rotary.classify"),
        "rotary.invariants.calls": c("rotary.invariants"),
        "rotary.invariants.total_s": t("rotary.invariants"),
        "selfdual.detect.calls": c("selfdual.detect"),
        "selfdual.detect.total_s": t("selfdual.detect"),
        "selfdual.extend.calls": c("selfdual.extend"),
        "selfdual.extend.total_s": t("selfdual.extend"),
        "selfdual.extend.self_s": s("selfdual.extend"),
        "selfdual.extend.enumerate_s": extend_enumerate / passes,
        "constructions.entry_report.total_s": t("constructions.entry_report"),
        "constructions.petrie_quotient.calls": c("constructions.petrie_quotient"),
        "constructions.petrie_quotient.total_s": t("constructions.petrie_quotient"),
        "constructions.petrie_quotient.kept_ratio":
            (pq_calls - pq_collapsed) / pq_calls if pq_calls else 0.0,
        "constructions.pc_map.total_s": t("constructions.pc_map"),
        "cli.analyze.calls": c("cli.analyze"),
        "cli.analyze.total_s": t("cli.analyze"),
        "cli.analyze.self_s": s("cli.analyze"),
    }
    shares = {layer: 0.0 for layer in LAYERS + ("other",)}
    for group, value in self_s.items():
        shares[layer_of(group)] += value / passes / traced_run_s
    for layer, value in shares.items():
        out[f"share.{layer}"] = value
    return out
