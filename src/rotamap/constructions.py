"""Generative constructions: torus maps, locally toroidal rank-4 groups,
Petrie-relator quotients, and the skew-map mixing operations.

Torus translation words.  The rotation group of the square or triangular
tessellation is translations extended by a single vertex rotation; the
unit translations are short words in the two rotations:

    {4,4}:  t1 = s2^-1 s1        t2 = s2 s1^-1
    {3,6}:  t1 = s2^-2 s1        t2 = s2 s1^-1 s2
    {6,3}:  dual of {3,6} under s1 -> s2^-1, s2 -> s1^-1

For {3,6} the pair (t1, t2) spans the translation lattice at 120
degrees, which makes the identification sublattice of the (b,c) torus
map rotation invariant.  The handedness of the labels (which of the two
mirror-image maps gets called (b,c)) is a convention; the one used here
is pinned by the reference data in the catalog (group orders and left
and right Petrie lengths of the locally toroidal examples).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import DEFAULT_CAP, enumerate_group
from .errors import ConstructionError, InconsistencyError, NotPolytopalError
from .rotary import (
    Chirality,
    RegularCGroup4,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    _c_group_condition,
    check_polytopal3,
    check_polytopal4,
    classify3,
    classify4,
    is_reflexible3,
    map_report3,
    map_report_regular,
    petrie4,
    rotation_subgroup,
    schlafli,
)
from .selfdual import (
    DualityKind,
    ExtendedGroup,
    detect_self_duality,
    extend_improper,
    extend_polarity,
    extend_proper,
    find_polarity,
)
from .words import Presentation, Word

_FAMILY_ALIASES = {
    "44": "44", "4,4": "44", "{4,4}": "44",
    "36": "36", "3,6": "36", "{3,6}": "36",
    "63": "63", "6,3": "63", "{6,3}": "63",
}
_FAMILY_TYPE = {"44": (4, 4), "36": (3, 6), "63": (6, 3)}
_DUAL_FAMILY = {"44": "44", "36": "63", "63": "36"}


@dataclass(frozen=True)
class TorusFamily:
    """A torus map label: family {4,4}, {3,6} or {6,3} with vector (b,c)."""

    family: str
    b: int
    c: int

    def __post_init__(self):
        fam = _FAMILY_ALIASES.get(self.family)
        if fam is None:
            raise ValueError(f"unknown torus family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if self.b < 0 or self.c < 0 or (self.b, self.c) == (0, 0):
            raise ValueError("(b, c) must be nonnegative and not both zero")

    @property
    def type_pq(self):
        return _FAMILY_TYPE[self.family]

    @property
    def expect_regular(self) -> bool:
        """Reflexible exactly when the vector lies on a mirror axis:
        b*c = 0 or b = c."""
        return self.b * self.c == 0 or self.b == self.c

    @property
    def name(self) -> str:
        return f"torus-{self.family}-{self.b}-{self.c}"


@dataclass(frozen=True)
class LocallyToroidalSpec:
    """Facet and vertex-figure torus maps of dual families."""

    facet: TorusFamily
    vertex_figure: TorusFamily

    def __post_init__(self):
        if _DUAL_FAMILY[self.facet.family] != self.vertex_figure.family:
            raise ValueError(
                "facet and vertex-figure families must be dual "
                "({4,4}/{4,4}, {6,3}/{3,6} or {3,6}/{6,3})"
            )


def _translation_words(family, g1, g2):
    if family == "44":
        return ((~g2 * g1).reduce(), (g2 * ~g1).reduce())
    if family == "36":
        return ((~g2 * ~g2 * g1).reduce(), (g2 * ~g1 * g2).reduce())
    return ((g1 * g1 * ~g2).reduce(), (~g1 * g2 * ~g1).reduce())


def _translation_relators(family, b, c, g1, g2):
    """Relator words identifying the (b,c) translation sublattice, with
    g1, g2 in the face/vertex rotation roles.  Building with the swapped
    vector (c,b) selects the enantiomorph that matches the catalog
    reference data; this is the frozen handedness convention."""
    bb, cc = c, b
    t1, t2 = _translation_words(family, g1, g2)
    if family == "44":
        return [
            (t1 ** bb * t2 ** cc).reduce(),
            (t1 ** (-cc) * t2 ** bb).reduce(),
        ]
    return [
        (t1 ** (bb + cc) * t2 ** cc).reduce(),
        (t1 ** (-cc) * t2 ** bb).reduce(),
    ]


def torus_presentation(t: TorusFamily) -> Presentation:
    p, q = t.type_pq
    s1, s2 = Word.gen(0), Word.gen(1)
    rels = [s1 ** p, s2 ** q, (s1 * s2) ** 2]
    rels += _translation_relators(t.family, t.b, t.c, s1, s2)
    return Presentation.build(["s1", "s2"], rels, [s1, s2], "sigma")


def lattice_torus_oracle(t: TorusFamily) -> tuple:
    """(order, V, E, F) of the torus map from the lattice model alone.

    Counts residues of the identification sublattice by breadth-first
    closure with canonical reduction; the group is those residues paired
    with a rotation part, so the order is 4 or 6 times the count."""
    b, c = t.b, t.c
    if t.family == "44":
        u1, u2 = (b, c), (-c, b)
        n = 4
    else:
        u1, u2 = (b, c), (-c, b + c)
        n = 6
    det = u1[0] * u2[1] - u1[1] * u2[0]

    def reduce_vec(v):
        f1 = (v[0] * u2[1] - v[1] * u2[0]) // det
        f2 = (u1[0] * v[1] - u1[1] * v[0]) // det
        return (v[0] - f1 * u1[0] - f2 * u2[0], v[1] - f1 * u1[1] - f2 * u2[1])

    start = reduce_vec((0, 0))
    seen = {start}
    queue = [start]
    while queue:
        x, y = queue.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            w = reduce_vec((x + dx, y + dy))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    m = len(seen)
    if m != abs(det):
        raise InconsistencyError(
            f"lattice residue count {m} != determinant {abs(det)}"
        )
    if t.family == "44":
        v, e, f = m, 2 * m, m
    elif t.family == "36":
        v, e, f = m, 3 * m, 2 * m
    else:
        v, e, f = 2 * m, 3 * m, m
    return (n * m, v, e, f)


def torus_map(t: TorusFamily, cap: int = DEFAULT_CAP) -> RotationGroup3:
    """Rotation group of the (b,c) torus map; the enumerated order is
    cross-checked against the lattice oracle."""
    pres = torus_presentation(t)
    rep = enumerate_group(pres, cap=cap)
    want = lattice_torus_oracle(t)[0]
    if rep.order != want:
        raise ConstructionError(
            f"{t.name}: enumerated order {rep.order} != lattice order {want}"
        )
    return RotationGroup3(rep, pres.distinguished)


_REFERENCE_ORDERS = {
    ("44", 1, 3, "44", 1, 3): 2000,
    ("63", 1, 2, "36", 2, 1): 20160,
    ("36", 1, 2, "63", 1, 2): 672,
}


def locally_toroidal_presentation(spec: LocallyToroidalSpec) -> Presentation:
    ft = spec.facet
    vt = spec.vertex_figure
    p, q = ft.type_pq
    q2, r = vt.type_pq
    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    rels = [
        s1 ** p,
        s2 ** q,
        s3 ** r,
        (s1 * s2) ** 2,
        (s2 * s3) ** 2,
        (s1 * s2 * s3) ** 2,
    ]
    rels += _translation_relators(ft.family, ft.b, ft.c, s1, s2)
    rels += _translation_relators(vt.family, vt.b, vt.c, s2, s3)
    return Presentation.build(["s1", "s2", "s3"], rels, [s1, s2, s3], "sigma")


def locally_toroidal(spec: LocallyToroidalSpec, cap: int = DEFAULT_CAP) -> RotationGroup4:
    """Rank-4 rotation group with the given torus facet and vertex figure."""
    pres = locally_toroidal_presentation(spec)
    rep = enumerate_group(pres, cap=cap)
    key = (
        spec.facet.family, spec.facet.b, spec.facet.c,
        spec.vertex_figure.family, spec.vertex_figure.b, spec.vertex_figure.c,
    )
    want = _REFERENCE_ORDERS.get(key)
    if want is not None and rep.order != want:
        raise ConstructionError(
            f"reference order mismatch: got {rep.order}, expected {want} "
            "(wrong orientation variant)"
        )
    return RotationGroup4(rep, pres.distinguished)


def petrie_quotient(m: RotationGroup4, k: int, cap: int = DEFAULT_CAP) -> RotationGroup4:
    """Quotient identifying vertices k steps apart along left Petrie
    polygons: adds the relator (s1 s3)^k and re-enumerates."""
    if k < 1:
        raise ValueError("k must be positive")
    w1, w2, w3 = m.sigma
    pres = m.rep.presentation.with_relators(((w1 * w3) ** k).reduce())
    rep = enumerate_group(pres, cap=cap)
    q = RotationGroup4(rep, m.sigma)
    if not check_polytopal4(q):
        raise NotPolytopalError(
            f"Petrie quotient k={k} collapsed to a non-polytopal group "
            f"of order {rep.order}, type {schlafli(q)}"
        )
    return q


# -- mixing operations ---------------------------------------------------------


def _require(cond: bool, label: str):
    if not cond:
        raise ConstructionError(f"construction contract failed: {label}")


def pc_map_improper(e: ExtendedGroup) -> RotationGroup3:
    """The skew map of an improperly self-dual group: generators
    (k1, k2) = (d, s1 s2 d^-1) inside the extended group.  The result is
    a map of type {4, 2q} whose 2-holes have length p, chiral exactly
    when the input was."""
    if e.kind != DualityKind.IMPROPER:
        raise ConstructionError("extended group is not of improper kind")
    w1, w2, w3 = e.embeddings["sigma"]
    d = e.duality
    rep = e.rep
    p, q, _ = e.base_schlafli
    k1 = d
    k2 = (w1 * w2 * ~d).reduce()

    _require(rep.element_order(k1) == 4, "k1 has order 4")
    _require(rep.element_order(k2) == 2 * q, f"k2 has order {2 * q}")
    _require(rep.element_order((k1 * k2).reduce()) == 2, "k1 k2 is an involution")
    _require(rep.element_order((k1 * ~k2).reduce()) == p, f"k1 k2^-1 has order {p}")
    eo = rep.element_of
    _require(eo((k2 * k2).reduce()) == eo((~w2).reduce()), "k2^2 = s2^-1")
    _require(eo((d * d * w2 * w3).reduce()) == eo(w1), "s1 = d^2 s2 s3")
    _require(eo((~k1 * k2).reduce()) == eo(w1), "s1 = k1^-1 k2")
    _require(eo((~k2 * ~k2).reduce()) == eo(w2), "s2 = k2^-2")
    _require(eo((k2 * ~k1).reduce()) == eo(w3), "s3 = k2 k1^-1")

    m = RotationGroup3(rep, (k1, k2))
    _require(check_polytopal3(m), "skew map is polytopal")
    cls = classify3(m)
    if e.base_chirality in (Chirality.CHIRAL, Chirality.REGULAR):
        _require(
            cls == e.base_chirality,
            f"skew map is {e.base_chirality} like its source",
        )
    return m


def pc_map_proper(e: ExtendedGroup) -> RegularMap3:
    """The regular map of a properly self-dual group: reflections
    (t0, t1, t2) = (s1 s2 s3, s1 s2, w).  Type {p, 2s} with Petrie
    length 2t and 2-zigzags of length q, for base Petrie lengths (s, t)."""
    if e.kind != DualityKind.PROPER:
        raise ConstructionError("extended group is not of proper kind")
    w1, w2, w3 = e.embeddings["sigma"]
    d = e.duality
    rep = e.rep
    p, q, _ = e.base_schlafli
    s, t = e.base_petrie
    t0 = (w1 * w2 * w3).reduce()
    t1 = (w1 * w2).reduce()
    t2 = d

    for i, w in enumerate((t0, t1, t2)):
        _require(rep.element_order(w) == 2, f"t{i} is an involution")
    eo = rep.element_of
    _require(eo((t0 * t2).reduce()) == eo((t2 * t0).reduce()), "t0 and t2 commute")
    _require(rep.element_order((t0 * t1).reduce()) == p, f"t0 t1 has order {p}")
    _require(rep.element_order((t1 * t2).reduce()) == 2 * s, f"t1 t2 has order {2 * s}")
    _require(
        rep.element_order((t0 * t1 * t2).reduce()) == 2 * t,
        f"t0 t1 t2 has order {2 * t}",
    )
    _require(
        rep.element_order((t0 * (t1 * t2) ** 2).reduce()) == q,
        f"t0 (t1 t2)^2 has order {q}",
    )
    m = RegularMap3(rep, (t0, t1, t2))
    _require(_c_group_condition(rep, m.rho), "reflection intersection condition")
    return m


def pc_map_regular(c: RegularCGroup4, cap: int = DEFAULT_CAP) -> RegularMap3:
    """The skew map of a self-dual regular C-group: reflections
    (r0, w, r2) inside the polarity extension; type {4, 2q} with
    2-holes of length p."""
    e = extend_polarity(c, cap=cap)
    r0, r1, r2, r3 = e.embeddings["rho"]
    d = e.duality
    rep = e.rep
    p, q, _ = e.base_schlafli

    _require(rep.element_order((r0 * d).reduce()) == 4, "r0 w has order 4")
    _require(rep.element_order((d * r2).reduce()) == 2 * q, f"w r2 has order {2 * q}")
    sig1 = (r0 * d).reduce()
    sig2 = (d * r2).reduce()
    _require(
        rep.element_order((sig1 * ~sig2).reduce()) == p,
        f"2-holes have length {p}",
    )
    # the period-4 duality delta = w r0 relates this triple to its dual
    # version (r3, r3 delta, r1); r3 delta equals w, so the dual triple is
    # the w-conjugate of (r0, w, r2) and the delta action certifies that
    eo = rep.element_of
    delta = (d * r0).reduce()
    _require(rep.element_order(delta) == 4, "delta has period 4")
    _require(eo((~delta * r0 * delta).reduce()) == eo(r3), "delta conjugates r0 to r3")
    _require(eo((~delta * r1 * delta).reduce()) == eo(r2), "delta conjugates r1 to r2")
    _require(eo((r3 * delta).reduce()) == eo(d), "r3 delta equals w")

    m = RegularMap3(rep, (r0, d, r2))
    _require(_c_group_condition(rep, m.rho), "reflection intersection condition")
    return m


# -- catalog --------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A named input presentation with its expected analysis values.

    ``expected`` is a nested dict compared leaf-wise against the computed
    report; only the keys present are checked."""

    name: str
    kind: str  # rotation3 | rotation4 | cgroup4
    presentation: Presentation
    expected: dict


def simplex_presentation() -> Presentation:
    """String C-group of the self-dual 4-simplex: four involutions with
    consecutive products of order 3."""
    r = [Word.gen(i) for i in range(4)]
    rels = [w ** 2 for w in r]
    rels += [(r[0] * r[1]) ** 3, (r[1] * r[2]) ** 3, (r[2] * r[3]) ** 3]
    rels += [(r[0] * r[2]) ** 2, (r[0] * r[3]) ** 2, (r[1] * r[3]) ** 2]
    return Presentation.build(["r0", "r1", "r2", "r3"], rels, r, "rho")


def _ex2_presentation() -> Presentation:
    return locally_toroidal_presentation(
        LocallyToroidalSpec(TorusFamily("63", 1, 2), TorusFamily("36", 2, 1))
    )


def _ex3_central_quotient_presentation(cap: int = DEFAULT_CAP) -> Presentation:
    """Quotient by the order-2 center, realised by adding the central
    element's representative word as a relator."""
    pres = locally_toroidal_presentation(
        LocallyToroidalSpec(TorusFamily("36", 1, 2), TorusFamily("63", 1, 2))
    )
    rep = enumerate_group(pres, cap=cap)
    center = rep.center()
    if center.size != 2:
        raise InconsistencyError(f"expected center of size 2, got {center.size}")
    z = max(center.elements)
    return pres.with_relators(rep.element_word(z))


def catalog(cap: int = DEFAULT_CAP) -> dict:
    """Built-in inputs with expected values from the reference data."""
    entries = []

    ex1 = locally_toroidal_presentation(
        LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3))
    )
    entries.append(CatalogEntry("ex1", "rotation4", ex1, {
        "order": 2000,
        "schlafli": (4, 4, 4),
        "polytopal": True,
        "chirality": "chiral",
        "self_duality": "improper",
        "petrie": (20, 20),
        "extended_order": 4000,
        "map": {
            "order": 4000,
            "schlafli": (4, 8),
            "holes": {2: 4},
            "chirality": "chiral",
            "f_vector": (500, 2000, 1000),
            "euler": -500,
            "genus": 251,
            "gen_by_involutions": False,
        },
    }))

    ex2 = _ex2_presentation()
    entries.append(CatalogEntry("ex2", "rotation4", ex2, {
        "order": 20160,
        "schlafli": (6, 3, 6),
        "polytopal": True,
        "chirality": "chiral",
        "self_duality": "improper",
        "petrie": (28, 28),
        "extended_order": 40320,
        "map": {
            "order": 40320,
            "schlafli": (4, 6),
            "holes": {2: 6},
            "chirality": "chiral",
            "f_vector": (6720, 20160, 10080),
            "euler": -3360,
            "genus": 1681,
            "gen_by_involutions": True,
        },
    }))

    s1, s3 = Word.gen(0), Word.gen(2)
    entries.append(CatalogEntry(
        "ex2q14", "rotation4", ex2.with_relators((s1 * s3) ** 14), {
            "order": 10080,
            "schlafli": (6, 3, 6),
            "polytopal": True,
            "chirality": "chiral",
            "self_duality": "improper",
            "petrie": (14, 14),
            "extended_order": 20160,
            "map": {
                "order": 20160,
                "schlafli": (4, 6),
                "holes": {2: 6},
                "chirality": "chiral",
                "f_vector": (3360, 10080, 5040),
                "euler": -1680,
                "genus": 841,
                "gen_by_involutions": True,
            },
        }))

    entries.append(CatalogEntry(
        "ex2q7", "rotation4", ex2.with_relators((s1 * s3) ** 7), {
            "order": 5040,
            "schlafli": (6, 3, 6),
            "polytopal": True,
            "chirality": "chiral",
            "self_duality": "improper",
            "petrie": (7, 7),
            "center_size": 1,
            "derived_index": 2,
            "extended_order": 10080,
            "map": {
                "order": 10080,
                "schlafli": (4, 6),
                "holes": {2: 6},
                "chirality": "chiral",
                "f_vector": (1680, 5040, 2520),
                "euler": -840,
                "genus": 421,
                "gen_by_involutions": True,
            },
        }))

    ex3 = locally_toroidal_presentation(
        LocallyToroidalSpec(TorusFamily("36", 1, 2), TorusFamily("63", 1, 2))
    )
    entries.append(CatalogEntry("ex3", "rotation4", ex3, {
        "order": 672,
        "schlafli": (3, 6, 3),
        "polytopal": True,
        "chirality": "chiral",
        "self_duality": "proper",
        "petrie": (8, 14),
        "extended_order": 1344,
        "map": {
            "order": 1344,
            "schlafli": (3, 16),
            "zigzags": {1: 28, 2: 6},
            "f_vector": (42, 336, 224),
            "euler": -70,
            "genus": 36,
            "chirality": "regular",
        },
    }))

    entries.append(CatalogEntry(
        "ex3-central-quotient", "rotation4",
        _ex3_central_quotient_presentation(cap), {
            "order": 336,
            "schlafli": (3, 6, 3),
            "polytopal": True,
            "chirality": "chiral",
            "self_duality": "proper",
            "petrie": (4, 7),
            "extended_order": 672,
            "map": {
                "order": 672,
                "schlafli": (3, 8),
                "zigzags": {1: 14, 2: 6},
                "f_vector": (42, 168, 112),
                "euler": -14,
                "genus": 8,
                "chirality": "regular",
            },
        }))

    entries.append(CatalogEntry("simplex333", "cgroup4", simplex_presentation(), {
        "order": 120,
        "polarity": True,
        "rotation_subgroup_order": 60,
        "extended_order": 240,
        "map": {
            "order": 240,
            "schlafli": (4, 6),
            "holes": {2: 3},
            "f_vector": (20, 60, 30),
            "euler": -10,
            "genus": 6,
            "chirality": "regular",
        },
    }))

    torus_expect = [
        (TorusFamily("44", 1, 0), {
            "order": 4, "polytopal": False, "chirality": "not-polytopal",
            "reflexible": True, "f_vector": (1, 2, 1),
        }),
        (TorusFamily("44", 1, 1), {
            "order": 8, "polytopal": False, "reflexible": True,
        }),
        (TorusFamily("44", 2, 0), {
            "order": 16, "polytopal": True, "chirality": "regular",
        }),
        (TorusFamily("44", 1, 3), {
            "order": 40, "polytopal": True, "chirality": "chiral",
            "n_tau_index": 4, "gen_by_involutions": False,
        }),
        (TorusFamily("36", 1, 2), {
            "order": 42, "polytopal": True, "chirality": "chiral",
            "n_tau_index": 3, "gen_by_involutions": False,
        }),
        (TorusFamily("63", 1, 2), {
            "order": 42, "polytopal": True, "chirality": "chiral",
        }),
    ]
    for fam, expected in torus_expect:
        expected = dict(expected)
        expected.setdefault("order", lattice_torus_oracle(fam)[0])
        entries.append(CatalogEntry(
            fam.name, "rotation3", torus_presentation(fam), expected))

    return {e.name: e for e in entries}


# -- catalog verification --------------------------------------------------------


def compute_entry_report(entry: CatalogEntry, cap: int = DEFAULT_CAP) -> dict:
    """Recompute everything the catalog stores expectations for."""
    rep = enumerate_group(entry.presentation, cap=cap)
    if entry.kind == "rotation3":
        m = RotationGroup3(rep, entry.presentation.distinguished)
        r = map_report3(m)
        return {
            "order": m.order,
            "schlafli": r.invariants.schlafli,
            "polytopal": r.polytopal,
            "chirality": r.invariants.chirality.value,
            "reflexible": is_reflexible3(m),
            "f_vector": r.invariants.f_vector,
            "euler": r.invariants.euler,
            "genus": r.invariants.genus,
            "holes": r.invariants.holes,
            "n_tau_index": r.involutions.n_tau_index,
            "n_tau_order": r.involutions.n_tau_order,
            "gen_by_involutions": r.involutions.group_gen_by_involutions,
            "prop62_consistent": r.involutions.prop62_consistent,
        }

    if entry.kind == "rotation4":
        m = RotationGroup4(rep, entry.presentation.distinguished)
        sd = detect_self_duality(m)
        out = {
            "order": m.order,
            "schlafli": schlafli(m),
            "polytopal": check_polytopal4(m),
            "chirality": classify4(m).value,
            "petrie": petrie4(m),
            "self_duality": sd.kind.value,
        }
        if "center_size" in entry.expected:
            out["center_size"] = rep.center().size
        if "derived_index" in entry.expected:
            out["derived_index"] = rep.order // rep.derived_subgroup().size
        if sd.kind == DualityKind.IMPROPER:
            ext = extend_improper(m, cap=cap)
            out["extended_order"] = ext.order
            skew = pc_map_improper(ext)
            r = map_report3(skew)
            out["map"] = {
                "order": skew.order,
                "schlafli": r.invariants.schlafli,
                "holes": r.invariants.holes,
                "chirality": r.invariants.chirality.value,
                "f_vector": r.invariants.f_vector,
                "euler": r.invariants.euler,
                "genus": r.invariants.genus,
                "gen_by_involutions": r.involutions.group_gen_by_involutions,
            }
        elif sd.kind == DualityKind.PROPER:
            ext = extend_proper(m, cap=cap)
            out["extended_order"] = ext.order
            reg = pc_map_proper(ext)
            r = map_report_regular(reg)
            out["map"] = {
                "order": reg.order,
                "schlafli": r.invariants.schlafli,
                "zigzags": r.invariants.zigzags,
                "f_vector": r.invariants.f_vector,
                "euler": r.invariants.euler,
                "genus": r.invariants.genus,
                "chirality": r.invariants.chirality.value,
            }
        return out

    if entry.kind == "cgroup4":
        c = RegularCGroup4(rep, entry.presentation.distinguished)
        out = {
            "order": c.order,
            "polarity": find_polarity(c).kind == DualityKind.REGULAR_POLARITY,
        }
        if "rotation_subgroup_order" in entry.expected:
            out["rotation_subgroup_order"] = rotation_subgroup(c, cap=cap).order
        if out["polarity"]:
            ext = extend_polarity(c, cap=cap)
            out["extended_order"] = ext.order
            reg = pc_map_regular(c, cap=cap)
            r = map_report_regular(reg)
            out["map"] = {
                "order": reg.order,
                "schlafli": r.invariants.schlafli,
                "holes": r.invariants.holes,
                "f_vector": r.invariants.f_vector,
                "euler": r.invariants.euler,
                "genus": r.invariants.genus,
                "chirality": r.invariants.chirality.value,
            }
        return out

    raise ValueError(f"unknown entry kind {entry.kind}")


def _compare(path, want, got, out):
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append((path, want, got))
            return
        for k, v in want.items():
            sub = f"{path}.{k}" if path else str(k)
            if k not in got:
                out.append((sub, v, "<missing>"))
            else:
                _compare(sub, v, got[k], out)
        return
    if isinstance(want, (list, tuple)):
        want = tuple(want)
        got = tuple(got) if isinstance(got, (list, tuple)) else got
    if want != got:
        out.append((path, want, got))


def verify_catalog_entry(entry: CatalogEntry, cap: int = DEFAULT_CAP) -> list:
    """Mismatches between stored expectations and recomputed values;
    empty means the entry verifies."""
    report = compute_entry_report(entry, cap=cap)
    out = []
    _compare("", entry.expected, report, out)
    return out
