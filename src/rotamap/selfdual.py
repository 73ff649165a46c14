"""Self-duality detection and extended-group construction.

A rank-4 rotation group of palindromic type {p,q,p} may admit a duality:
an automorphism-like correspondence reversing the generator sequence.
Two normal forms cover all cases.  The proper form is an involutory
polarity fixing the base flag:

    w s1 w = s3^-1,  w s2 w = s2^-1,  w s3 w = s1^-1,  w^2 = 1.

The improper form is a period-4 duality d with

    d^-1 s1 d = s3^-1,  d^-1 s2 d = s1 s2 s1^-1,  d^-1 s3 d = s1,
    d^2 = s1 s2 s3.

Detection tests exactly these actions; whenever any duality of the given
kind exists, it can be normalised to one of them, so no automorphism
search is needed.  Extension then re-enumerates the presentation with
the duality adjoined and cross-checks the doubling and the conjugation
identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import DEFAULT_CAP, GroupRep, enumerate_group
from .errors import CollapseError, ConstructionError, InconsistencyError
from .rotary import Chirality, RegularCGroup4, RotationGroup4, classify4, petrie4, schlafli
from .words import Presentation, Word


class DualityKind(Enum):
    NONE = "none"
    PROPER = "proper"
    IMPROPER = "improper"
    REGULAR_POLARITY = "regular-polarity"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SelfDualityClass:
    kind: DualityKind
    witness: tuple | None = None


@dataclass
class ExtendedGroup:
    """A group extended by a duality generator, with embedding words for
    the original generators and the duality in the new presentation."""

    rep: GroupRep
    kind: DualityKind
    embeddings: dict
    base_order: int
    base_schlafli: tuple
    base_chirality: Chirality
    base_petrie: tuple

    @property
    def order(self):
        return self.rep.order

    @property
    def duality(self) -> Word:
        return self.embeddings["duality"]


def _proper_automorphism(m: RotationGroup4):
    s1, s2, s3 = m.sigma
    images = [(~s3).reduce(), (~s2).reduce(), (~s1).reduce()]
    alpha = m.rep.generator_map_automorphism(m.sigma, images)
    if alpha is None:
        return None
    # a polarity is involutory: alpha^2 fixes the generators
    for w in m.sigma:
        x = m.rep.element_of(w)
        if alpha[alpha[x]] != x:
            return None
    return tuple(images)


def _improper_automorphism(m: RotationGroup4):
    s1, s2, s3 = m.sigma
    images = [(~s3).reduce(), (s1 * s2 * ~s1).reduce(), s1]
    alpha = m.rep.generator_map_automorphism(m.sigma, images)
    if alpha is None:
        return None
    # the duality has period 4: alpha^2 must be conjugation by s1 s2 s3
    rep = m.rep
    z = rep.element_of(s1 * s2 * s3)
    zinv = rep.inverse_element(z)
    for w in m.sigma:
        x = rep.element_of(w)
        if alpha[alpha[x]] != rep.product(rep.product(zinv, x), z):
            return None
    return tuple(images)


def detect_self_duality(m: RotationGroup4) -> SelfDualityClass:
    """Classify the self-duality of a rank-4 rotation group.

    For chiral groups the two kinds are mutually exclusive (both at once
    would force regularity) and that exclusivity is enforced.  For
    regular groups both normal forms typically certify; the improper
    form is reported because the mixing construction consumes it.
    """
    p, q, r = schlafli(m)
    if p != r:
        return SelfDualityClass(DualityKind.NONE)
    proper = _proper_automorphism(m)
    improper = _improper_automorphism(m)
    if proper is not None and improper is not None:
        if classify4(m) == Chirality.CHIRAL:
            raise InconsistencyError(
                "both duality kinds certify on a chiral group"
            )
        return SelfDualityClass(DualityKind.IMPROPER, improper)
    if improper is not None:
        return SelfDualityClass(DualityKind.IMPROPER, improper)
    if proper is not None:
        return SelfDualityClass(DualityKind.PROPER, proper)
    return SelfDualityClass(DualityKind.NONE)


def _fresh_name(taken, base="d"):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def _check_identity(rep: GroupRep, lhs: Word, rhs: Word, label: str):
    if rep.element_of(lhs) != rep.element_of(rhs):
        raise ConstructionError(f"extension identity failed: {label}")


def _adjoin_duality(base, kind: DualityKind, relators, cap: int) -> ExtendedGroup:
    """Adjoin a fresh generator d to the presentation of ``base`` with the
    relators ``relators(d)`` and enumerate.  The result must have order
    2|G| and contain the base generators as an index-2 copy of G."""
    cgroup = isinstance(base, RegularCGroup4)
    gens = base.rho if cgroup else base.sigma
    pres = base.rep.presentation
    d = Word.gen(pres.ngens)
    pres = pres.with_generator(_fresh_name(pres.names)).with_relators(*relators(d))
    rep = enumerate_group(Presentation(pres.generators, pres.relators), cap=cap)
    if rep.order != 2 * base.order:
        raise CollapseError(
            f"{kind} extension has order {rep.order}, expected {2 * base.order}"
        )
    if rep.subgroup_closure(gens).size != base.order:
        raise CollapseError("original group does not embed with index 2")
    return ExtendedGroup(
        rep=rep,
        kind=kind,
        embeddings={"rho" if cgroup else "sigma": gens, "duality": d},
        base_order=base.order,
        base_schlafli=schlafli(base),
        base_chirality=Chirality.REGULAR if cgroup else classify4(base),
        base_petrie=petrie4(base),
    )


def extend_improper(m: RotationGroup4, cap: int = DEFAULT_CAP) -> ExtendedGroup:
    """Adjoin the period-4 duality to an improperly self-dual group."""
    sd = detect_self_duality(m)
    if sd.kind != DualityKind.IMPROPER:
        raise ConstructionError("input is not improperly self-dual")
    w1, w2, w3 = m.sigma
    e = _adjoin_duality(m, DualityKind.IMPROPER, lambda d: [
        ~d * w1 * d * w3,
        ~d * w2 * d * w1 * ~w2 * ~w1,
        ~d * w3 * d * ~w1,
        d * d * ~(w1 * w2 * w3),
    ], cap)
    rep, d = e.rep, e.duality

    # conjugation by d must cycle the four involutions and fix s1 s2 s3
    conj = lambda w: (~d * w * d).reduce()
    _check_identity(rep, conj(w1 * w2), (w1 * w2 * w3 * ~w1).reduce(), "d: s1s2 -> s1s2s3s1^-1")
    _check_identity(rep, conj(w1 * w2 * w3 * ~w1), (~w3 * w1 * w2 * w3).reduce(), "d: s1s2s3s1^-1 -> s3^-1s1s2s3")
    _check_identity(rep, conj(~w3 * w1 * w2 * w3), (w2 * w3).reduce(), "d: s3^-1s1s2s3 -> s2s3")
    _check_identity(rep, conj(w2 * w3), (w1 * w2).reduce(), "d: s2s3 -> s1s2")
    _check_identity(rep, conj(w1 * w2 * w3), (w1 * w2 * w3).reduce(), "d fixes s1s2s3")
    return e


def extend_proper(m: RotationGroup4, cap: int = DEFAULT_CAP) -> ExtendedGroup:
    """Adjoin the involutory polarity to a properly self-dual group."""
    sd = detect_self_duality(m)
    if sd.kind != DualityKind.PROPER:
        raise ConstructionError("input is not properly self-dual")
    w1, w2, w3 = m.sigma
    e = _adjoin_duality(m, DualityKind.PROPER, lambda d: [
        d * d, d * w1 * d * w3, d * w2 * d * w2, d * w3 * d * w1,
    ], cap)
    rep, d = e.rep, e.duality

    conj = lambda w: (d * w * d).reduce()
    _check_identity(rep, conj(w1 * w2), (w2 * w3).reduce(), "w: s1s2 <-> s2s3")
    _check_identity(rep, conj(w1 * w2 * w3), (w1 * w2 * w3).reduce(), "w fixes s1s2s3")
    return e


def find_polarity(c: RegularCGroup4) -> SelfDualityClass:
    """Detect the polarity of a regular C-group: the automorphism that
    reverses the generator sequence rho_i -> rho_(3-i)."""
    r0, r1, r2, r3 = c.rho
    images = [r3, r2, r1, r0]
    alpha = c.rep.generator_map_automorphism(c.rho, images)
    if alpha is None:
        return SelfDualityClass(DualityKind.NONE)
    return SelfDualityClass(DualityKind.REGULAR_POLARITY, tuple(images))


def extend_polarity(c: RegularCGroup4, cap: int = DEFAULT_CAP) -> ExtendedGroup:
    """Adjoin the polarity to a self-dual regular C-group."""
    if find_polarity(c).kind != DualityKind.REGULAR_POLARITY:
        raise ConstructionError("C-group admits no polarity")
    rho = c.rho
    return _adjoin_duality(c, DualityKind.REGULAR_POLARITY, lambda d: [d * d] + [
        d * rho[i] * d * rho[3 - i] for i in range(4)
    ], cap)
