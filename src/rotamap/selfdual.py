"""Self-duality detection and extended-group construction.

A rank-4 rotation group of palindromic type {p,q,p} may admit a duality:
an automorphism-like correspondence reversing the generator sequence.
Two normal forms cover all cases.  The proper form is an involutory
polarity fixing the base flag:

    w s1 w = s3^-1,  w s2 w = s2^-1,  w s3 w = s1^-1,  w^2 = 1.

The improper form is a period-4 duality d with

    d^-1 s1 d = s3^-1,  d^-1 s2 d = s1 s2 s1^-1,  d^-1 s3 d = s1,
    d^2 = s1 s2 s3.

Detection certifies each form with one automorphism test of its action
alpha on the generators; whenever any duality of the given kind exists,
it can be normalised to one of them, so no automorphism search is
needed.  The square conditions need no test of their own:

* proper: alpha^2(s1) = alpha(s3)^-1 = s1, alpha^2(s2) = alpha(s2)^-1 = s2
  and alpha^2(s3) = alpha(s1)^-1 = s3, so alpha^2 = 1.
* improper: write a = s1 s2, b = s2 s3 and z = s1 s2 s3.  All three are
  involutions (relators of every rotation group), s1 = z b and s3 = a z.
  Then alpha(z) = s3^-1 (s1 s2 s1^-1) s1 = s3^-1 a = a s3 = z, the middle
  step by (a s3)^2 = 1.  So alpha^2(s1) = alpha(s3)^-1 = s1^-1 = b z
  = z s1 z and alpha^2(s3) = alpha(s1) = s3^-1 = z a = z s3 z; as alpha^2
  fixes z, alpha^2(s2) = alpha^2(s1^-1 z s3^-1) = z s2 z.  Hence alpha^2
  is conjugation by z = d^2, and alpha fixes z.

Extension adjoins the duality to the presentation and enumerates; the
order check there is the certificate that the form acts (see
``_adjoin_duality``), so an ``extend_*`` call of the wrong kind raises
``CollapseError`` without a second detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import GroupRep, enumerate_group
from .errors import CollapseError, InconsistencyError
from .rotary import Chirality, RegularCGroup4, RotationGroup4, classify4, schlafli
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
    """A group G extended by a duality generator d.  ``base`` is G; its
    generator words (``base.sigma``, or ``base.rho`` for a C-group) embed
    it in ``rep`` unchanged, because extension only appends the generator
    d, whose word is ``duality``."""

    rep: GroupRep
    kind: DualityKind
    base: RotationGroup4 | RegularCGroup4
    duality: Word

    @property
    def order(self):
        return self.rep.order


def detect_self_duality(m: RotationGroup4) -> SelfDualityClass:
    """Classify the self-duality of a rank-4 rotation group.

    Each normal form is certified by one automorphism test; the witness
    is its tuple of generator images.  For chiral groups the two kinds
    are mutually exclusive (both at once would force regularity) and
    that exclusivity is enforced.  For regular groups both normal forms
    typically certify; the improper form is reported because the mixing
    construction consumes it.
    """
    p, q, r = schlafli(m)
    if p != r:
        return SelfDualityClass(DualityKind.NONE)
    s1, s2, s3 = m.sigma
    forms = {
        DualityKind.IMPROPER: ((~s3).reduce(), (s1 * s2 * ~s1).reduce(), s1),
        DualityKind.PROPER: ((~s3).reduce(), (~s2).reduce(), (~s1).reduce()),
    }
    certified = [
        (kind, images) for kind, images in forms.items()
        if m.rep.generator_map_automorphism(m.sigma, images) is not None
    ]
    if not certified:
        return SelfDualityClass(DualityKind.NONE)
    if len(certified) == 2 and classify4(m) == Chirality.CHIRAL:
        raise InconsistencyError("both duality kinds certify on a chiral group")
    return SelfDualityClass(*certified[0])


def _fresh_name(taken, base="d"):
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def _adjoin_duality(base, kind: DualityKind, relators) -> ExtendedGroup:
    """Adjoin a fresh generator d to the presentation of ``base`` with the
    relators ``relators(d)`` and enumerate under the cap ``base`` was
    enumerated with; raise ``CollapseError`` unless the result has order
    2|G|.

    That order check certifies the duality.  The base generators
    generate G, the relators send the conjugate d^-1 g d of each one into
    the image N of G, and d^2 (1 or s1 s2 s3) lies in N, so N is normal
    of index at most 2.  N satisfies the relators of G, so it is a
    quotient of G, and the extension has order at most 2|N| <= 2|G|.
    Order exactly 2|G| forces |N| = |G|: the base generators embed G
    with index 2, and conjugation by d is an automorphism of G acting as
    the form prescribes.  Conversely, when the form's map alpha is an
    automorphism with alpha^2 = conjugation by d^2 and alpha(d^2) = d^2
    (the module docstring shows both follow), the cyclic extension of G
    by alpha has order 2|G| and satisfies these relators, so the check
    passes.  Hence the check passes exactly when detection certifies the
    form, and a call of the wrong kind raises ``CollapseError``.

    As G embeds, the identities its wrapper checked (the rotation or
    C-group relations) hold in the extension.  With the adjoined
    relators, which ``enumerate_group`` verifies on every coset, they
    imply the identities derived in the ``extend_*`` and ``pc_map_*``
    docstrings, so those are not tested again."""
    pres = base.rep.presentation
    d = Word.gen(pres.ngens)
    pres = pres.with_generator(_fresh_name(pres.names)).with_relators(*relators(d))
    rep = enumerate_group(
        Presentation(pres.generators, pres.relators), cap=base.rep.cap
    )
    if rep.order != 2 * base.order:
        raise CollapseError(
            f"{kind} extension has order {rep.order}, expected {2 * base.order}"
        )
    return ExtendedGroup(rep=rep, kind=kind, base=base, duality=d)


def extend_improper(m: RotationGroup4) -> ExtendedGroup:
    """Adjoin the period-4 duality to an improperly self-dual group.

    Conjugation alpha(x) = d^-1 x d then cycles the four involutions
    s1 s2 -> s1 s2 s3 s1^-1 -> s3^-1 s1 s2 s3 -> s2 s3 -> s1 s2 and
    fixes z = s1 s2 s3.  Write a = s1 s2, b = s2 s3; a, b and z are
    involutions, s1 = z b and s3 = a z.  alpha(z) = d^-1 d^2 d = z, and
    alpha(a) = s3^-1 a s1^-1 = z b z, which is z s1^-1 = s1 s2 s3 s1^-1.
    Next alpha(z s1^-1) = z s3 = s3^-1 a s3, then
    alpha(s3^-1 a s3) = s1^-1 (z b z) s1 = b, and
    alpha(b) = s1 s2 s1^-1 s1 = a."""
    w1, w2, w3 = m.sigma
    return _adjoin_duality(m, DualityKind.IMPROPER, lambda d: [
        ~d * w1 * d * w3,
        ~d * w2 * d * w1 * ~w2 * ~w1,
        ~d * w3 * d * ~w1,
        d * d * ~(w1 * w2 * w3),
    ])


def extend_proper(m: RotationGroup4) -> ExtendedGroup:
    """Adjoin the involutory polarity to a properly self-dual group.

    Conjugation by d swaps s1 s2 and s2 s3 and fixes z = s1 s2 s3:
    d s1 s2 d = s3^-1 s2^-1 = (s2 s3)^-1 = s2 s3, an involution, and
    d z d = z^-1 = z."""
    w1, w2, w3 = m.sigma
    return _adjoin_duality(m, DualityKind.PROPER, lambda d: [
        d * d, d * w1 * d * w3, d * w2 * d * w2, d * w3 * d * w1,
    ])


def find_polarity(c: RegularCGroup4) -> SelfDualityClass:
    """Detect the polarity of a regular C-group: the automorphism that
    reverses the generator sequence rho_i -> rho_(3-i).  It is an
    involution on the generators, so no square condition is tested."""
    r0, r1, r2, r3 = c.rho
    images = [r3, r2, r1, r0]
    alpha = c.rep.generator_map_automorphism(c.rho, images)
    if alpha is None:
        return SelfDualityClass(DualityKind.NONE)
    return SelfDualityClass(DualityKind.REGULAR_POLARITY, tuple(images))


def extend_polarity(c: RegularCGroup4) -> ExtendedGroup:
    """Adjoin the polarity to a self-dual regular C-group."""
    rho = c.rho
    return _adjoin_duality(c, DualityKind.REGULAR_POLARITY, lambda d: [d * d] + [
        d * rho[i] * d * rho[3 - i] for i in range(4)
    ])
