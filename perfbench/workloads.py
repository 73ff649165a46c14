"""The four seeded workloads and their oracles.

Each workload turns a seed into a fixed list of operations on the public
rotamap API (``setup``), and checks each operation's outcome against an
independent oracle after the timed loop (``check``).  Inputs that cost
very different amounts are drawn by stratified sampling, so that every
seed gives an operation list of about the same cost: the seed picks the
members, not the size, of each stratum.

``size`` is "full" for the benchmark, "tiny" for the self-tests, and
"domain" for every input the full workload can draw (used to record the
coset-table digests).
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import rotamap
import rotamap.cli
from rotamap import LocallyToroidalSpec, NotPolytopalError, TorusFamily, Word


RANKING = Path(__file__).resolve().parent / "ranking.json"


class Plan:
    """A workload instance: operations, their inputs, and a description."""

    def __init__(self, ops, keys, sizes, check):
        self.ops = ops  # list of (callable, argument)
        self.keys = keys  # JSON-able input of each operation
        self.labels = ["/".join(map(str, k)) for k in keys]
        self.sizes = sizes
        self.check = check  # outcome -> error text, or None if correct


def _stratified(rng, name, domain, size, fine=(0, 0)):
    """One input from each run of ``size`` neighbours in the cost ranking,
    and from each pair of neighbours in the ranks ``fine`` covers."""
    with open(RANKING, encoding="utf-8") as f:
        ranked = [tuple(k) for k in json.load(f)[name]]
    if sorted(ranked) != sorted(domain):
        raise ValueError(f"{RANKING.name} does not rank the {name} domain")
    out, i = [], 0
    while i < len(ranked):
        if fine[0] <= i < fine[1]:
            step = 2
        elif i < fine[0]:
            step = min(size, fine[0] - i)
        else:
            step = size
        out.append(rng.choice(ranked[i:i + step]))
        i += step
    return out


def _spec(facet, vertex_figure):
    return LocallyToroidalSpec(TorusFamily(*facet), TorusFamily(*vertex_figure))


# The locally toroidal base groups of the catalog.
BASES = {
    "ex1": _spec(("44", 1, 3), ("44", 1, 3)),
    "ex2": _spec(("63", 1, 2), ("36", 2, 1)),
    "ex3": _spec(("36", 1, 2), ("63", 1, 2)),
}

# -- catalog ---------------------------------------------------------------

# Reference (group order, extended-group order) of each catalog entry,
# from the source paper's examples; the catalog's own expectations must
# agree with these before its self-check counts.
CATALOG_REF = {
    "ex1": (2000, 4000),
    "ex2": (20160, 40320),
    "ex2q14": (10080, 20160),
    "ex2q7": (5040, 10080),
    "ex3": (672, 1344),
    "ex3-central-quotient": (336, 672),
    "simplex333": (120, 240),
    "torus-44-1-0": (4, None),
    "torus-44-1-1": (8, None),
    "torus-44-2-0": (16, None),
    "torus-44-1-3": (40, None),
    "torus-36-1-2": (42, None),
    "torus-63-1-2": (42, None),
}


def _verify_entry(entry):
    return entry, rotamap.verify_catalog_entry(entry)


def setup_catalog(rng, size):
    entries = rotamap.catalog()
    names = sorted(CATALOG_REF)
    if size == "tiny":
        names = [n for n in names if CATALOG_REF[n][0] <= 700]
    rng.shuffle(names)
    missing = [n for n in names if n not in entries]
    if missing:
        raise KeyError(f"catalog entries missing: {missing}")

    def check(outcome):
        entry, mismatches = outcome
        if mismatches:
            return f"{entry.name}: verify mismatches {mismatches}"
        got = (entry.expected.get("order"), entry.expected.get("extended_order"))
        if got != CATALOG_REF[entry.name]:
            return f"{entry.name}: expected orders {got} != reference {CATALOG_REF[entry.name]}"
        return None

    ops = [(_verify_entry, entries[n]) for n in names]
    sizes = {"entries": len(names), "orders": [CATALOG_REF[n][0] for n in names]}
    return Plan(ops, [(n,) for n in names], sizes, check)


# -- torus-sweep -------------------------------------------------------------


def _analyze_torus(t):
    text = rotamap.serialize_presentation(rotamap.torus_presentation(t))
    report = rotamap.cli.analyze_presentation(rotamap.parse_presentation(text))
    return t, (report.group_order, tuple(report.f_vector), report.polytopal,
               report.chirality)


def setup_torus(rng, size):
    domain = [(fam, b, c) for fam in ("44", "36", "63")
              for b in range(13) for c in range(1, 13)]
    if size == "domain":
        vectors = domain
    else:
        # finer around the middle rank, where the median operation falls,
        # so that op_p50_ms does not jump between sparse neighbours
        vectors = _stratified(rng, "torus-sweep", domain, 8, fine=(200, 270))
        if size == "tiny":
            vectors = vectors[:6]
        rng.shuffle(vectors)
    tori = [TorusFamily(*v) for v in vectors]

    def check(outcome):
        t, (order, f_vector, polytopal, chirality) = outcome
        want = rotamap.lattice_torus_oracle(t)
        if (order, f_vector) != (want[0], tuple(want[1:])):
            return f"{t.name}: order/f-vector {(order, f_vector)} != lattice {want}"
        if polytopal:
            regular = t.b * t.c == 0 or t.b == t.c
            if chirality != ("regular" if regular else "chiral"):
                return f"{t.name}: chirality {chirality}, expected regular={regular}"
        elif chirality != "not-polytopal":
            return f"{t.name}: not polytopal but chirality {chirality}"
        return None

    ops = [(_analyze_torus, t) for t in tori]
    orders = [4 * (b * b + c * c) if f == "44" else 6 * (b * b + b * c + c * c)
              for f, b, c in vectors]
    sizes = {"vectors": len(tori), "orders": orders}
    return Plan(ops, vectors, sizes, check)


# -- petrie-scan -------------------------------------------------------------

_ORDER_RE = re.compile(r"of order (\d+)")


def _petrie(arg):
    name, m, k = arg
    try:
        q = rotamap.petrie_quotient(m, k)
    except NotPolytopalError as exc:
        found = _ORDER_RE.search(str(exc))
        return arg, "collapsed", int(found.group(1)) if found else None
    return arg, "kept", q.order


def setup_petrie(rng, size):
    names = ("ex1", "ex3") if size == "tiny" else ("ex1", "ex2", "ex3")
    bases = {n: rotamap.locally_toroidal(BASES[n]) for n in names}
    domain = [(n, k) for n in ("ex1", "ex2", "ex3") for k in range(2, 31)]
    if size == "domain":
        pairs = domain
    else:
        pairs = _stratified(rng, "petrie-scan", domain, 2)
        pairs = [p for p in pairs if p[0] in names and (size != "tiny" or p[1] <= 7)]
        rng.shuffle(pairs)
    predicted = {}

    def check(outcome):
        (name, m, k), kind, order = outcome
        if (name, k) not in predicted:
            s1, _, s3 = m.sigma
            closure = m.rep.normal_closure(((s1 * s3) ** k).reduce())
            predicted[name, k] = m.order // closure.size
        want = predicted[name, k]
        if order != want:
            return f"{name} k={k}: {kind} order {order} != |G|/|N| = {want}"
        return None

    ops = [(_petrie, (n, bases[n], k)) for n, k in pairs]
    sizes = {"pairs": len(pairs), "base_orders": {n: m.order for n, m in bases.items()}}
    return Plan(ops, pairs, sizes, check)


# -- map-search ----------------------------------------------------------------

# Invariants of each base group, from the source paper's examples (the
# ex1 skew map is the Petrie-Coxeter map of ex1's improper extension).
# Conjugating the distinguished generators is an inner automorphism, so
# every operation must reproduce these exactly.
MAP_REF = {
    "ex2": {"order": 20160, "schlafli": (6, 3, 6), "polytopal": True,
            "chirality": "chiral", "petrie": (28, 28),
            "self_duality": "improper"},
    "ex2q7": {"order": 5040, "schlafli": (6, 3, 6), "polytopal": True,
              "chirality": "chiral", "petrie": (7, 7),
              "self_duality": "improper"},
    "ex1-skew": {"order": 4000, "schlafli": (4, 8),
                 "f_vector": (500, 2000, 1000), "euler": -500, "genus": 251,
                 "holes": {2: 4, 3: 20, 4: 10}, "chirality": "chiral",
                 "n_tau_order": 1000, "n_tau_index": 4,
                 "gen_by_involutions": False, "prop62_consistent": True},
}

# Conjugating-word lengths drawn for each group; the longest is about the
# diameter of its Cayley graph.
MAP_LENGTHS = {"ex2": range(1, 17), "ex2q7": range(1, 11), "ex1-skew": range(1, 11)}


def _random_word(rng, ngens, length):
    """A freely reduced word of the given length with random letters."""
    cols = []
    while len(cols) < length:
        c = rng.randrange(2 * ngens)
        if not cols or c != cols[-1] ^ 1:
            cols.append(c)
    return Word(cols)


def _map_invariants(arg):
    name, rep, sigma = arg
    if len(sigma) == 3:
        m = rotamap.RotationGroup4(rep, sigma)
        return name, {
            "order": m.order,
            "schlafli": rotamap.schlafli(m),
            "polytopal": rotamap.check_polytopal4(m),
            "chirality": rotamap.classify4(m).value,
            "petrie": rotamap.petrie4(m),
            "self_duality": rotamap.detect_self_duality(m).kind.value,
        }
    m = rotamap.RotationGroup3(rep, sigma)
    inv = rotamap.map_invariants3(m)
    ir = rotamap.involution_report(m)
    return name, {
        "order": m.order, "schlafli": inv.schlafli, "f_vector": inv.f_vector,
        "euler": inv.euler, "genus": inv.genus, "holes": inv.holes,
        "chirality": inv.chirality.value, "n_tau_order": ir.n_tau_order,
        "n_tau_index": ir.n_tau_index,
        "gen_by_involutions": ir.group_gen_by_involutions,
        "prop62_consistent": ir.prop62_consistent,
    }


def setup_map_search(rng, size):
    groups = {}
    ex1 = rotamap.locally_toroidal(BASES["ex1"])
    skew = rotamap.pc_map_improper(rotamap.extend_improper(ex1))
    if size != "tiny":
        ex2 = rotamap.locally_toroidal(BASES["ex2"])
        groups["ex2"] = ex2
        groups["ex2q7"] = rotamap.petrie_quotient(ex2, 7)
    groups["ex1-skew"] = skew
    drawn = []
    for name, m in groups.items():
        lengths = MAP_LENGTHS[name]
        if size == "tiny":
            lengths = lengths[:3]
        for n in lengths:
            g = _random_word(rng, m.rep.presentation.ngens, n)
            sigma = tuple((~g * s * g).reduce() for s in m.sigma)
            drawn.append(((name, n), (_map_invariants, (name, m.rep, sigma))))
    rng.shuffle(drawn)
    keys = [key for key, _ in drawn]
    ops = [op for _, op in drawn]

    def check(outcome):
        name, got = outcome
        want = MAP_REF[name]
        wrong = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return f"{name}: {wrong} differ from {({k: want[k] for k in wrong})}" if wrong else None

    sizes = {"conjugations": len(ops), "group_orders": {n: m.order for n, m in groups.items()}}
    return Plan(ops, keys, sizes, check)


# name -> (setup, nominal seconds of one pass over the operation list)
WORKLOADS = {
    "catalog": (setup_catalog, 10.0),
    "torus-sweep": (setup_torus, 20.0),
    "petrie-scan": (setup_petrie, 12.0),
    "map-search": (setup_map_search, 5.0),
}


def setup(name, seed, size="full"):
    return WORKLOADS[name][0](random.Random(f"{name}:{seed}"), size)
