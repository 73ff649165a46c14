"""Generative constructions: torus maps, locally toroidal rank-4 groups,
Petrie-relator quotients, the skew-map mixing operations, the catalog,
and ``report``, which maps any wrapped group to its ``AnalysisReport``.

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
from .errors import (
    ConstructionError,
    InconsistencyError,
    NotPolytopalError,
    NotSelfDualError,
)
from .rotary import (
    AnalysisReport,
    Chirality,
    RegularCGroup4,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    is_reflexible3,
    load_group,
    map_report3,
    map_report_regular,
    petrie4,
    rank4_report,
    rotation_relators,
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
from .words import Presentation, Word, _cyclic_reduce

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
        return (~g2 * g1, g2 * ~g1)
    if family == "36":
        return (~g2 * ~g2 * g1, g2 * ~g1 * g2)
    return (g1 * g1 * ~g2, ~g1 * g2 * ~g1)


def _translation_relators(family, b, c, g1, g2):
    """Relator words identifying the (b,c) translation sublattice, with
    g1, g2 in the face/vertex rotation roles.  Building with the swapped
    vector (c,b) selects the enantiomorph that matches the catalog
    reference data; this is the frozen handedness convention."""
    bb, cc = c, b
    t1, t2 = _translation_words(family, g1, g2)
    if family == "44":
        return [t1 ** bb * t2 ** cc, t1 ** -cc * t2 ** bb]
    return [t1 ** (bb + cc) * t2 ** cc, t1 ** -cc * t2 ** bb]


def torus_presentation(t: TorusFamily) -> Presentation:
    p, q = t.type_pq
    s1, s2 = Word.gen(0), Word.gen(1)
    rels = [s1 ** p, s2 ** q, (s1 * s2) ** 2]
    rels += _translation_relators(t.family, t.b, t.c, s1, s2)
    return Presentation.build(["s1", "s2"], rels, [s1, s2], "sigma")


def lattice_torus_oracle(t: TorusFamily) -> tuple:
    """(order, V, E, F) of the torus map from the lattice model alone.

    The translations are the residues of Z^2 modulo the identification
    sublattice, spanned by (b, c) and its image under the rotation of
    order 4 ({4,4}) or 6 ({3,6}, {6,3}; coordinates on a basis at 60
    degrees).  So there are as many as its index, the determinant of
    that basis: b^2 + c^2 or b^2 + bc + c^2 (Coxeter and Moser,
    *Generators and Relations for Discrete Groups*, ch. 8).  Each
    rotation is a translation times one of max(p, q) point rotations,
    and is one of q flags at a vertex, 2 at an edge and p at a face.
    Raises ValueError when the order is more than ``DEFAULT_CAP``."""
    p, q = t.type_pq
    b, c = t.b, t.c
    order = max(p, q) * (b * b + c * c if p == q else b * b + b * c + c * c)
    if order > DEFAULT_CAP:
        raise ValueError(f"{t.name} has order {order}, more than {DEFAULT_CAP}")
    return (order, order // q, order // 2, order // p)


def torus_map(t: TorusFamily, cap: int = DEFAULT_CAP) -> RotationGroup3:
    """Rotation group of the (b,c) torus map; the enumerated order is
    cross-checked against the lattice oracle."""
    want = lattice_torus_oracle(t)[0]
    pres = torus_presentation(t)
    rep = enumerate_group(pres, cap=cap)
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
    rels = rotation_relators(p, q, r)
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


def petrie_quotient(m: RotationGroup4, k: int) -> RotationGroup4:
    """Quotient identifying vertices k steps apart along left Petrie
    polygons: ``m`` with the relator (s1 s3)^k added, built from its table
    as m / <<(s1 s3)^k>> (``GroupRep.quotient``).  Cyclically reduced,
    the relator has k times the letters of s1 s3; if that is more than
    the cap, ValueError is raised before the relator is built."""
    if k < 1:
        raise ValueError("k must be positive")
    w1, w2, w3 = m.sigma
    u = w1 * w3
    letters = k * len(_cyclic_reduce(u.cols()))
    if letters > m.rep.cap:
        raise ValueError(
            f"relator (s1 s3)^{k} holds {letters} letters, more than the cap {m.rep.cap}"
        )
    rep = m.rep.quotient(u ** k)
    q = RotationGroup4(rep, m.sigma)
    if not q.polytopal:
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
    when the input was.

    k1 and k2 generate the extension, as they give back the base
    generators: with a = s1 s2, b = s2 s3 and z = s1 s2 s3 = d^2, all
    involutions, s1 = z b, s3 = a z and d^-1 a d = z b z (see
    ``extend_improper``), so k2^2 = a (d^-1 a d) d^-2 = a z b = s3 s2 s3
    = s2^-1, k1^-1 k2 = (d^-1 a d) d^-2 = z b = s1 = d^2 s2 s3, and
    k2 k1^-1 = a d^-2 = a z = s3."""
    if e.kind != DualityKind.IMPROPER:
        raise ConstructionError("extended group is not of improper kind")
    w1, w2, _ = e.base.sigma
    d = e.duality
    rep = e.rep
    p, q, _ = schlafli(e.base)
    k1 = d
    k2 = w1 * w2 * ~d

    _require(rep.element_order(k1) == 4, "k1 has order 4")
    _require(rep.element_order(k2) == 2 * q, f"k2 has order {2 * q}")
    _require(rep.element_order(k1 * k2) == 2, "k1 k2 is an involution")
    _require(rep.element_order(k1 * ~k2) == p, f"k1 k2^-1 has order {p}")

    m = RotationGroup3(rep, (k1, k2))
    _require(m.polytopal, "skew map is polytopal")
    if e.base.polytopal:
        _require(
            m.chirality is e.base.chirality,
            f"skew map is {e.base.chirality} like its source",
        )
    return m


def pc_map_proper(e: ExtendedGroup) -> RegularMap3:
    """The regular map of a properly self-dual group: reflections
    (t0, t1, t2) = (s1 s2 s3, s1 s2, w).  Type {p, 2s} with Petrie
    length 2t and 2-zigzags of length q, for base Petrie lengths (s, t).

    t0 and t2 commute: t2 = w is an involution and w t0 w = t0 (see
    ``extend_proper``)."""
    if e.kind != DualityKind.PROPER:
        raise ConstructionError("extended group is not of proper kind")
    w1, w2, w3 = e.base.sigma
    d = e.duality
    rep = e.rep
    p, q, _ = schlafli(e.base)
    s, t = petrie4(e.base)
    t0 = w1 * w2 * w3
    t1 = w1 * w2
    t2 = d

    for i, w in enumerate((t0, t1, t2)):
        _require(rep.element_order(w) == 2, f"t{i} is an involution")
    _require(rep.element_order(t0 * t1) == p, f"t0 t1 has order {p}")
    _require(rep.element_order(t1 * t2) == 2 * s, f"t1 t2 has order {2 * s}")
    _require(rep.element_order(t0 * t1 * t2) == 2 * t, f"t0 t1 t2 has order {2 * t}")
    _require(rep.element_order(t0 * (t1 * t2) ** 2) == q, f"t0 (t1 t2)^2 has order {q}")
    m = RegularMap3(rep, (t0, t1, t2))
    _require(m.polytopal, "reflection intersection condition")
    return m


def pc_map_regular(e: ExtendedGroup) -> RegularMap3:
    """The skew map of a self-dual regular C-group: reflections
    (r0, w, r2) inside its polarity extension e; type {4, 2q} with
    2-holes of length p.

    The period-4 duality delta = w r0 relates this triple to its dual
    version (r3, r3 delta, r1).  Since w r_i w = r_(3-i) and r0 commutes
    with r2 and r3, delta^-1 r0 delta = r0 r3 r0 = r3 and
    delta^-1 r1 delta = r0 r2 r0 = r2, and r3 delta = w (w r3 w) r0 = w.
    So the dual triple is the w-conjugate of (r0, w, r2).  delta has
    period 4 because delta = (r0 w)^-1, whose order is tested."""
    if e.kind != DualityKind.REGULAR_POLARITY:
        raise ConstructionError("extended group is not of polarity kind")
    r0, _, r2, _ = e.base.rho
    d = e.duality
    rep = e.rep
    p, q, _ = schlafli(e.base)

    sig1, sig2 = r0 * d, d * r2
    _require(rep.element_order(sig1) == 4, "r0 w has order 4")
    _require(rep.element_order(sig2) == 2 * q, f"w r2 has order {2 * q}")
    _require(rep.element_order(sig1 * ~sig2) == p, f"2-holes have length {p}")

    m = RegularMap3(rep, (r0, d, r2))
    _require(m.polytopal, "reflection intersection condition")
    return m


def petrie_coxeter(group):
    """The Petrie-Coxeter-type map of a self-dual rank-4 group, returned
    as (extended group, map): detect how ``group`` is self-dual, adjoin
    that duality, and read the map off the extension.  An improper
    duality gives a rotation map (chiral iff the input is); a proper one,
    or the polarity of a regular C-group, gives a regular map."""
    if isinstance(group, RegularCGroup4):
        if find_polarity(group).kind == DualityKind.REGULAR_POLARITY:
            ext = extend_polarity(group)
            return ext, pc_map_regular(ext)
    elif isinstance(group, RotationGroup4):
        kind = detect_self_duality(group).kind
        if kind == DualityKind.IMPROPER:
            ext = extend_improper(group)
            return ext, pc_map_improper(ext)
        if kind == DualityKind.PROPER:
            ext = extend_proper(group)
            return ext, pc_map_proper(ext)
    else:
        raise TypeError(f"not a rank-4 group: {type(group).__name__}")
    raise NotSelfDualError("input is not self-dual; nothing to construct")


# -- catalog --------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """A named input presentation with its expected analysis values.

    ``expected`` is a nested dict compared leaf-wise against the computed
    report; only the keys present are checked."""

    name: str
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


def catalog() -> dict:
    """Built-in inputs with expected values from the reference data."""
    entries = []

    ex1 = locally_toroidal_presentation(
        LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3))
    )
    entries.append(CatalogEntry("ex1", ex1, {
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
    entries.append(CatalogEntry("ex2", ex2, {
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

    s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)
    entries.append(CatalogEntry(
        "ex2q14", ex2.with_relators((s1 * s3) ** 14), {
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
        "ex2q7", ex2.with_relators((s1 * s3) ** 7), {
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
    entries.append(CatalogEntry("ex3", ex3, {
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

    # quotient by the order-2 center of ex3: z is its involution
    z = s1 * ~s2 * s1 * s3 * ~s2 * s3 * s1 * s3
    entries.append(CatalogEntry(
        "ex3-central-quotient", ex3.with_relators(z), {
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

    entries.append(CatalogEntry("simplex333", simplex_presentation(), {
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
        entries.append(CatalogEntry(fam.name, torus_presentation(fam), expected))

    return {e.name: e for e in entries}


# -- reports --------------------------------------------------------------------


def report_rotation4(m: RotationGroup4, warnings=()) -> AnalysisReport:
    w = list(warnings)
    sd = None
    try:
        sd = detect_self_duality(m).kind.value
    except InconsistencyError as exc:
        w.append(f"self-duality detection inconsistent: {exc}")
    return rank4_report(m, sd, w)


def report_cgroup4(c: RegularCGroup4, warnings=()) -> AnalysisReport:
    return rank4_report(c, find_polarity(c).kind.value, warnings)


def report(g, warnings=()) -> AnalysisReport:
    """The ``AnalysisReport`` of any wrapped group, after the given
    ``warnings``; ``report(g).to_dict()`` is what ``--json`` prints."""
    if isinstance(g, RotationGroup3):
        return map_report3(g, warnings)
    if isinstance(g, RegularMap3):
        return map_report_regular(g, warnings)
    if isinstance(g, RotationGroup4):
        return report_rotation4(g, warnings)
    return report_cgroup4(g, warnings)


# -- catalog verification --------------------------------------------------------


def _catalog_view(report: AnalysisReport) -> dict:
    """An ``AnalysisReport`` keyed like the catalog: ``order`` for
    ``group_order``, ``petrie`` as a (left, right) pair, and the
    involution fields flattened, with ``gen_by_involutions`` for
    ``group_gen_by_involutions``."""
    out = dict(vars(report))
    out["order"] = out.pop("group_order")
    if report.petrie is not None:
        out["petrie"] = (report.petrie["left"], report.petrie["right"])
    involutions = out.pop("involutions")
    if involutions is not None:
        out.update(involutions)
        out["gen_by_involutions"] = out.pop("group_gen_by_involutions")
    return out


def compute_entry_report(entry: CatalogEntry, cap: int = DEFAULT_CAP) -> dict:
    """Recompute everything the catalog stores expectations for: the
    ``report`` that ``analyze`` prints, in the catalog's keys, and for a
    rank-4 entry the Petrie-Coxeter map and the extra subgroup sizes the
    entry asks for."""
    g = load_group(entry.presentation, cap)
    if isinstance(g, (RotationGroup3, RegularMap3)):
        out = _catalog_view(report(g))
        if isinstance(g, RotationGroup3):
            # a polytopal map's wrapper decided reflexibility as it was built
            if g.polytopal:
                out["reflexible"] = g.chirality is Chirality.REGULAR
            else:
                out["reflexible"] = is_reflexible3(g)
        return out

    # the report takes the self-duality that petrie_coxeter detected
    try:
        ext, pc_map = petrie_coxeter(g)
        kind = ext.kind
    except NotSelfDualError:
        ext, kind = None, DualityKind.NONE
    out = _catalog_view(rank4_report(g, kind.value))
    if ext is not None:
        out["extended_order"] = ext.order
        out["map"] = _catalog_view(report(pc_map))
    if isinstance(g, RegularCGroup4):
        out["polarity"] = ext is not None
    if "rotation_subgroup_order" in entry.expected:
        out["rotation_subgroup_order"] = rotation_subgroup(g).order
    if "center_size" in entry.expected:
        out["center_size"] = g.rep.center().size
    if "derived_index" in entry.expected:
        out["derived_index"] = g.order // g.rep.derived_subgroup().size
    return out


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
