"""Rotation-group wrappers for maps and rank-4 polytopes.

A rank-3 rotation group ⟨σ1, σ2⟩ with (σ1 σ2)^2 = 1 describes a map on
an orientable surface: σ1 rotates around the base face, σ2 around the
base vertex, and σ1 σ2 is the half-turn about the base edge.  Rank 4
adds σ3 with the relations (σ2 σ3)^2 = (σ1 σ2 σ3)^2 = 1.  The wrappers
hold a finite GroupRep plus the distinguished generator words, which
need not be the presentation generators (mixing constructions produce
maps whose generators are compound words in a larger group).  A private
base gives every wrapper its ``order``; a second one, shared by
``RegularMap3`` and ``RegularCGroup4``, checks the reflections ρi
(involutions, non-adjacent pairs commuting, generating the group) and
defines their rotations ``sigma`` = (ρ0 ρ1, ρ1 ρ2, …), so the rotation
invariants (``schlafli``, ``hole_length``, ``petrie4``) apply to
reflection groups too.

Polytopality is the intersection condition on the cyclic/dihedral
subgroups; chirality is decided by testing whether the orientation
reversing generator correspondence extends to a group automorphism.

``load_group`` turns a presentation into its wrapped group.
``AnalysisReport`` is the one report type: ``map_report3`` and
``map_report_regular`` build it for maps from their ``MapInvariants``
through one constructor, ``rank4_report`` for rank-4 groups, and
``constructions.report`` picks among them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

from .engine import DEFAULT_CAP, GroupRep, enumerate_group
from .errors import ConstructionError, InconsistencyError, NotPolytopalError, RotamapError
from .words import Presentation, Word


class Chirality(Enum):
    CHIRAL = "chiral"
    REGULAR = "regular"
    NOT_POLYTOPAL = "not-polytopal"

    def __str__(self):
        return self.value


def _check_generates(rep: GroupRep, words, what: str):
    """The basis of ``words`` (``GroupRep.basis``), which the wrapper
    keeps for its automorphism tests (``_form_exists``); raises
    ConstructionError if they do not generate the whole group."""
    basis = rep.basis(words)
    if basis is None:
        raise ConstructionError(f"{what} do not generate the whole group")
    return basis


def _check_trivial_word(rep: GroupRep, w: Word, what: str):
    if rep.element_of(w) != 0:
        raise ConstructionError(f"{what} does not evaluate to the identity")


class _Group:
    """A finite ``GroupRep`` with distinguished generator words.  Each
    wrapper keeps the ``basis`` its generation check built: that of
    ``sigma`` for a rotation group, of ``rho`` for a reflection group."""

    @property
    def order(self):
        return self.rep.order


class RotationGroup3(_Group):
    """A map given by its rotation group and the pair (σ1, σ2)."""

    def __init__(self, rep: GroupRep, sigma):
        s1, s2 = sigma
        self.rep = rep
        self.sigma = (s1, s2)
        _check_trivial_word(rep, (s1 * s2) ** 2, "(sigma1 sigma2)^2")
        self.basis = _check_generates(rep, self.sigma, "sigma generators")


class RotationGroup4(_Group):
    """A rank-4 rotation group with distinguished triple (σ1, σ2, σ3)."""

    def __init__(self, rep: GroupRep, sigma):
        s1, s2, s3 = sigma
        self.rep = rep
        self.sigma = (s1, s2, s3)
        _check_trivial_word(rep, (s1 * s2) ** 2, "(sigma1 sigma2)^2")
        _check_trivial_word(rep, (s2 * s3) ** 2, "(sigma2 sigma3)^2")
        _check_trivial_word(rep, (s1 * s2 * s3) ** 2, "(sigma1 sigma2 sigma3)^2")
        self.basis = _check_generates(rep, self.sigma, "sigma generators")


class _ReflectionGroup(_Group):
    """Involutions ρ0, ρ1, … with commuting non-adjacent pairs that
    generate the group.  Their rotations σ = (ρ0 ρ1, ρ1 ρ2, …) let
    ``schlafli``, ``hole_length`` and ``petrie4`` apply."""

    def __init__(self, rep: GroupRep, rho):
        self.rep = rep
        self.rho = rho
        for i, r in enumerate(rho):
            if rep.element_order(r) != 2:
                raise ConstructionError(f"rho{i} is not an involution")
        for i in range(len(rho)):
            for j in range(i + 2, len(rho)):
                _check_trivial_word(rep, (rho[i] * rho[j]) ** 2, f"(rho{i} rho{j})^2")
        self.basis = _check_generates(rep, rho, "rho generators")
        self.sigma = tuple(a * b for a, b in zip(rho, rho[1:]))


class RegularCGroup4(_ReflectionGroup):
    """A rank-4 string C-group: four involutions ρ0..ρ3 with commuting
    non-adjacent pairs and the full intersection condition."""

    def __init__(self, rep: GroupRep, rho):
        r0, r1, r2, r3 = rho
        super().__init__(rep, (r0, r1, r2, r3))
        if not _c_group_condition(rep, self.rho):
            raise ConstructionError("intersection condition fails")


class RegularMap3(_ReflectionGroup):
    """A regular map given by its full group and reflections (ρ0, ρ1, ρ2)."""

    def __init__(self, rep: GroupRep, rho):
        r0, r1, r2 = rho
        super().__init__(rep, (r0, r1, r2))
        # the intersection condition, tested once for constructions and reports
        self.polytopal = _c_group_condition(rep, self.rho)


_GROUP_CLASSES = {
    ("sigma", 2): RotationGroup3,
    ("sigma", 3): RotationGroup4,
    ("rho", 3): RegularMap3,
    ("rho", 4): RegularCGroup4,
}


def group_class(distinguished, kind):
    """The wrapper class a presentation's sigma or rho line asks for;
    ``load_group`` builds the group with it, and a caller can reject a
    wrong rank with it before anything is enumerated."""
    if distinguished is None:
        raise RotamapError(
            "presentation needs a sigma or rho line to fix rank semantics"
        )
    cls = _GROUP_CLASSES.get((kind, len(distinguished)))
    if cls is None:
        raise RotamapError(
            f"unsupported input: {kind} line with {len(distinguished)} words"
        )
    return cls


def load_group(pres: Presentation, cap: int = DEFAULT_CAP):
    """The wrapped group of ``pres``, its class read off the sigma or rho
    line before anything is enumerated.  Distinguished words that break
    their identities are an input error (``RotamapError``), not a verdict."""
    cls = group_class(pres.distinguished, pres.distinguished_kind)
    rep = enumerate_group(pres, cap=cap)
    try:
        return cls(rep, pres.distinguished)
    except ConstructionError as exc:
        raise RotamapError(
            f"input {pres.distinguished_kind} words: {exc}"
        ) from exc


def _c_group_condition(rep: GroupRep, gens) -> bool:
    """Intersection condition over all pairs of generator subsets."""
    n = len(gens)
    closures = {}
    for mask in range(1 << n):
        sub = [gens[i] for i in range(n) if mask >> i & 1]
        closures[mask] = rep.subgroup_closure(sub).elements
    for a in range(1 << n):
        for b in range(1 << n):
            if closures[a] & closures[b] != closures[a & b]:
                return False
    return True


# -- polytopality and chirality ---------------------------------------------


def check_polytopal3(m: RotationGroup3) -> bool:
    """Rank-3 intersection condition: ⟨σ1⟩ ∩ ⟨σ2⟩ trivial.  Rotations of
    order < 2 are degenerate (a polygon section needs at least 2 edges)."""
    s1, s2 = m.sigma
    if any(o < 2 for o in schlafli(m)):
        return False
    a = m.rep.subgroup_closure([s1]).elements
    b = m.rep.subgroup_closure([s2]).elements
    return a & b == {0}


def check_polytopal4(m: RotationGroup4) -> bool:
    """Rank-4 intersection condition: ⟨σ1,σ2⟩ ∩ ⟨σ2,σ3⟩ = ⟨σ2⟩ and
    ⟨σ1⟩ ∩ ⟨σ2⟩ = {1} = ⟨σ2⟩ ∩ ⟨σ3⟩, plus non-degenerate rotation
    orders (collapsed generators cannot carry polygon sections)."""
    s1, s2, s3 = m.sigma
    rep = m.rep
    if any(o < 2 for o in schlafli(m)):
        return False
    left = rep.subgroup_closure([s1, s2]).elements
    right = rep.subgroup_closure([s2, s3]).elements
    c1 = rep.subgroup_closure([s1]).elements
    c2 = rep.subgroup_closure([s2]).elements
    c3 = rep.subgroup_closure([s3]).elements
    return left & right == c2 and c1 & c2 == {0} and c2 & c3 == {0}


def _form_exists(m, words, images) -> bool:
    """True iff some automorphism sends the generating ``words`` of the
    wrapper ``m`` to ``images``, for a form whose square α² is the
    identity or an inner automorphism on every endomorphism α with these
    images.  Then such an α is one to one, so it is an automorphism, and
    the homomorphism check on the wrapper's basis decides
    (``GroupRep.endomorphism_exists``), with no closure.  A wrapper whose
    basis is over other words, as a C-group's is over ρ when its σ are
    mapped, takes the full test (``automorphism_exists``)."""
    if m.basis.sources != tuple(words):
        return m.rep.automorphism_exists(words, images)
    return m.rep.endomorphism_exists(m.basis, images)


def is_reflexible3(m: RotationGroup3) -> bool:
    """True iff α: σ1 -> σ1^-1, σ2 -> σ1^2 σ2 extends to an automorphism
    (conjugation by the base-face reflection of the reflexible cover).
    α² is the identity: α²(σ1) = α(σ1)^-1 = σ1 and α²(σ2) = α(σ1)^2 α(σ2)
    = σ1^-2 σ1^2 σ2 = σ2 (``_form_exists``)."""
    s1, s2 = m.sigma
    return _form_exists(m, m.sigma, [~s1, s1 * s1 * s2])


def is_reflexible4(m: RotationGroup4) -> bool:
    """True iff α: σ1 -> σ1, σ2 -> σ2 σ3^2, σ3 -> σ3^-1 extends.  α² is
    the identity: it fixes σ1, α²(σ3) = α(σ3)^-1 = σ3 and α²(σ2) =
    α(σ2) α(σ3)^2 = σ2 σ3^2 σ3^-2 = σ2 (``_form_exists``)."""
    s1, s2, s3 = m.sigma
    return _form_exists(m, m.sigma, [s1, s2 * s3 * s3, ~s3])


def classify3(m: RotationGroup3) -> Chirality:
    if not check_polytopal3(m):
        return Chirality.NOT_POLYTOPAL
    return Chirality.REGULAR if is_reflexible3(m) else Chirality.CHIRAL


def classify4(m: RotationGroup4) -> Chirality:
    if not check_polytopal4(m):
        return Chirality.NOT_POLYTOPAL
    return Chirality.REGULAR if is_reflexible4(m) else Chirality.CHIRAL


# -- metrical invariants -----------------------------------------------------


def schlafli(m) -> tuple:
    """Actual element orders of the distinguished rotations."""
    return tuple(m.rep.element_order(w) for w in m.sigma)


def f_vector3(m: RotationGroup3, diagnostic: bool = False) -> tuple:
    """(V, E, F) counts from coset indices: vertices are cosets of ⟨σ2⟩,
    faces cosets of ⟨σ1⟩, edges cosets of the edge half-turn σ1 σ2 (of
    order 2, or 1 in a degenerate map)."""
    if not diagnostic and not check_polytopal3(m):
        raise NotPolytopalError("map fails the intersection condition")
    s1, s2 = m.sigma
    v = m.order // m.rep.subgroup_closure([s2]).size
    e = m.order // m.rep.element_order(s1 * s2)
    f = m.order // m.rep.subgroup_closure([s1]).size
    return (v, e, f)


def euler_genus(m: RotationGroup3, diagnostic: bool = False) -> tuple:
    """(Euler characteristic, genus); rotation-group maps are orientable.
    The characteristic of a polytopal map is even; that of a degenerate
    one (``diagnostic``) may be odd, and then its genus is None."""
    fv = f_vector3(m, diagnostic=diagnostic)
    return _euler_genus(fv, not diagnostic or check_polytopal3(m))


def _euler_genus(f_vector, strict: bool) -> tuple:
    """(Euler characteristic, genus) of a rank-3 f-vector.  An odd
    characteristic is an error when ``strict`` (a polytopal rotation map,
    an orientable regular map); otherwise its genus is None."""
    v, e, f = f_vector
    chi = v - e + f
    if chi % 2 != 0:
        if not strict:
            return chi, None
        raise InconsistencyError(f"odd Euler characteristic {chi}")
    return chi, (2 - chi) // 2


def hole_length(m, j: int) -> int:
    """Length of the j-holes: the period of σ1 σ2^(1-j)."""
    return _hole_length(m, j, m.rep.element_order(m.sigma[1]))


def _hole_length(m, j: int, q: int) -> int:
    """``hole_length`` of a map whose valence q, the period of σ2, is
    known."""
    if not 1 <= j <= max(1, q // 2):
        raise ValueError(f"hole index {j} out of range for valence {q}")
    s1, s2 = m.sigma
    return m.rep.element_order(s1 * s2 ** (1 - j))


def zigzag_length(m: RegularMap3, j: int) -> int:
    """Length of the j-zigzags of a regular map: period of ρ0 (ρ1 ρ2)^j;
    j = 1 gives the Petrie polygons."""
    if j < 1:
        raise ValueError("zigzag index must be >= 1")
    r0, r1, r2 = m.rho
    return m.rep.element_order(r0 * (r1 * r2) ** j)


def petrie4(m: RotationGroup4) -> tuple:
    """(left, right) Petrie lengths: periods of σ1 σ3 and σ1 σ3^-1."""
    s1, _, s3 = m.sigma
    return (m.rep.element_order(s1 * s3), m.rep.element_order(s1 * ~s3))


@dataclass(frozen=True)
class InvolutionReport:
    """Diagnostics for generation by involutions via the edge half-turn.

    The normal closure N of the half-turn σ1 σ2 has cyclic quotient, so
    a group generated by involutions forces index 1 or 2; that is the
    consistency bit recorded here.
    """

    n_tau_order: int
    n_tau_index: int
    group_gen_by_involutions: bool
    prop62_consistent: bool


def involution_report(m: RotationGroup3) -> InvolutionReport:
    s1, s2 = m.sigma
    # keep only the size: the closure's elements would stay live through
    # the involution closure below
    n_tau = m.rep.normal_closure(s1 * s2).size
    index = m.order // n_tau
    gbi = m.rep.generated_by_involutions()
    return InvolutionReport(
        n_tau_order=n_tau,
        n_tau_index=index,
        group_gen_by_involutions=gbi,
        prop62_consistent=not (gbi and index > 2),
    )


# -- reports -------------------------------------------------------------------

SCHEMA_VERSION = 1


@dataclass
class MapInvariants:
    schlafli: tuple
    f_vector: tuple
    euler: int
    genus: int | None
    holes: dict
    zigzags: dict | None
    chirality: Chirality


@dataclass
class AnalysisReport:
    """Flat, JSON-ready view of everything the toolkit computes for one
    input; inapplicable fields are None."""

    group_order: int
    schlafli: tuple
    polytopal: bool
    chirality: str
    self_duality: str | None = None
    petrie: dict | None = None
    holes: dict | None = None
    zigzags: dict | None = None
    f_vector: tuple | None = None
    euler: int | None = None
    genus: int | None = None
    involutions: dict | None = None
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {"schema": SCHEMA_VERSION}
        d.update(asdict(self))
        d["schlafli"] = list(self.schlafli)
        if self.f_vector is not None:
            d["f_vector"] = list(self.f_vector)
        if self.holes is not None:
            d["holes"] = {str(j): v for j, v in sorted(self.holes.items())}
        if self.zigzags is not None:
            d["zigzags"] = {str(j): v for j, v in sorted(self.zigzags.items())}
        return d


def _map_report(
    m, inv: MapInvariants, polytopal: bool, warnings, involutions=None
) -> AnalysisReport:
    """The ``AnalysisReport`` of a map ``m``: the fields of its invariants
    ``inv``, with the chirality as its string value."""
    return AnalysisReport(
        group_order=m.order,
        polytopal=polytopal,
        involutions=involutions,
        warnings=warnings,
        **dict(vars(inv), chirality=inv.chirality.value),
    )


def map_invariants3(m: RotationGroup3) -> MapInvariants:
    cls = classify3(m)
    p, q = schlafli(m)
    fv = f_vector3(m, diagnostic=True)
    chi, genus = _euler_genus(fv, cls is not Chirality.NOT_POLYTOPAL)
    holes = {j: _hole_length(m, j, q) for j in range(2, q // 2 + 1)}
    return MapInvariants(
        schlafli=(p, q),
        f_vector=fv,
        euler=chi,
        genus=genus,
        holes=holes,
        zigzags=None,
        chirality=cls,
    )


def map_report3(m: RotationGroup3, warnings=()) -> AnalysisReport:
    """The report of a rotation map, after the given ``warnings``."""
    inv = map_invariants3(m)
    polytopal = inv.chirality is not Chirality.NOT_POLYTOPAL
    w = list(warnings)
    if not polytopal:
        w.append("intersection condition fails; counts are diagnostic only")
    return _map_report(m, inv, polytopal, w, asdict(involution_report(m)))


def map_invariants_regular(m: RegularMap3) -> MapInvariants:
    """Invariants of a regular map; its genus is None when the rotation
    subgroup has index 1 (the surface is not orientable)."""
    r0, r1, r2 = m.rho
    rep = m.rep
    p, q = schlafli(m)
    v = m.order // rep.subgroup_closure([r1, r2]).size
    e = m.order // rep.subgroup_closure([r0, r2]).size
    f = m.order // rep.subgroup_closure([r0, r1]).size
    orientable = rep.subgroup_closure(m.sigma).size * 2 == m.order
    chi, genus = _euler_genus((v, e, f), orientable)
    holes = {j: _hole_length(m, j, q) for j in range(2, q // 2 + 1)}
    zigzags = {j: zigzag_length(m, j) for j in range(1, max(1, q // 2) + 1)}
    return MapInvariants(
        schlafli=(p, q),
        f_vector=(v, e, f),
        euler=chi,
        genus=genus if orientable else None,
        holes=holes,
        zigzags=zigzags,
        chirality=Chirality.REGULAR,
    )


def map_report_regular(m: RegularMap3, warnings=()) -> AnalysisReport:
    """The report of a regular map, after the given ``warnings``."""
    inv = map_invariants_regular(m)
    w = list(warnings)
    if inv.genus is None:
        w.append("rotation subgroup has index 1; genus not reported")
    return _map_report(m, inv, m.polytopal, w)


def rank4_report(g, self_duality, warnings=()) -> AnalysisReport:
    """The report of a rank-4 rotation group, or of a regular C-group
    (polytopal and regular by construction), after the given
    ``warnings``.  ``self_duality`` is the detected ``DualityKind``
    value, or None; a string, because this module cannot import
    ``selfdual``."""
    cls = Chirality.REGULAR if isinstance(g, RegularCGroup4) else classify4(g)
    left, right = petrie4(g)
    return AnalysisReport(
        group_order=g.order,
        schlafli=schlafli(g),
        polytopal=cls is not Chirality.NOT_POLYTOPAL,
        chirality=cls.value,
        self_duality=self_duality,
        petrie={"left": left, "right": right},
        warnings=list(warnings),
    )


# -- rotation subgroup of a regular C-group -----------------------------------


def rotation_relators(p: int, q: int, r: int) -> list:
    """The relators s1^p, s2^q, s3^r, (s1 s2)^2, (s2 s3)^2 and
    (s1 s2 s3)^2 of a rank-4 rotation group of type {p, q, r}, over the
    first three generators."""
    s1, s2, s3 = (Word.gen(i) for i in range(3))
    return [
        s1 ** p, s2 ** q, s3 ** r, (s1 * s2) ** 2, (s2 * s3) ** 2, (s1 * s2 * s3) ** 2
    ]


def rotation_subgroup(c: RegularCGroup4) -> RotationGroup4:
    """The subgroup generated by σi = ρ(i-1) ρi, re-enumerated on its own
    presentation (the standard rotation relations at the computed orders)
    under the cap ``c`` was enumerated with.

    The re-enumeration is validated against the subgroup closure inside
    the C-group; a mismatch means the standard relations do not present
    this particular subgroup and is reported as an error.
    """
    sub = c.rep.subgroup_closure(c.sigma)
    index = c.order // sub.size
    if index not in (1, 2):
        raise ConstructionError(
            f"rotation subgroup has index {index}, expected 1 or 2"
        )
    sigma = tuple(Word.gen(i) for i in range(3))
    pres = Presentation.build(
        ["s1", "s2", "s3"], rotation_relators(*schlafli(c)), sigma, "sigma"
    )
    rep = enumerate_group(pres, cap=c.rep.cap)
    if rep.order != sub.size:
        raise ConstructionError(
            f"standard rotation relations present a group of order "
            f"{rep.order}, but the rotation subgroup has order {sub.size}"
        )
    return RotationGroup4(rep, sigma)
