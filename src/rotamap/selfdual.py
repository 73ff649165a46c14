"""Self-duality detection and extended-group construction.

A rank-4 rotation group of palindromic type {p,q,p} may admit a duality:
an automorphism-like correspondence reversing the generator sequence.
Two normal forms cover all cases.  The proper form is an involutory
polarity fixing the base flag:

    w s1 w = s3^-1,  w s2 w = s2^-1,  w s3 w = s1^-1,  w^2 = 1.

The improper form is a period-4 duality d with

    d^-1 s1 d = s3^-1,  d^-1 s2 d = s1 s2 s1^-1,  d^-1 s3 d = s1,
    d^2 = s1 s2 s3.

Detection certifies each form with one homomorphism check of its action
alpha on the generators, read off the basis that the wrapper's
generation check built (``rotary._form_exists``); whenever any duality
of the given kind exists, it can be normalised to one of them, so no
automorphism search is needed.  The square conditions need no test of
their own, and they make that check enough: alpha^2 is the identity or
conjugation by z, so any endomorphism with the form's images is one to
one, hence an automorphism.

* proper: alpha^2(s1) = alpha(s3)^-1 = s1, alpha^2(s2) = alpha(s2)^-1 = s2
  and alpha^2(s3) = alpha(s1)^-1 = s3, so alpha^2 = 1.
* improper: write a = s1 s2, b = s2 s3 and z = s1 s2 s3.  All three are
  involutions (relators of every rotation group), s1 = z b and s3 = a z.
  Then alpha(z) = s3^-1 (s1 s2 s1^-1) s1 = s3^-1 a = a s3 = z, the middle
  step by (a s3)^2 = 1.  So alpha^2(s1) = alpha(s3)^-1 = s1^-1 = b z
  = z s1 z and alpha^2(s3) = alpha(s1) = s3^-1 = z a = z s3 z; as alpha^2
  fixes z, alpha^2(s2) = alpha^2(s1^-1 z s3^-1) = z s2 z.  Hence alpha^2
  is conjugation by z = d^2, and alpha fixes z.

Extension hands the form's images and d^2 to ``GroupRep.extend``, which
writes the extension's relators from them and builds its table from the
base group's.  It runs the automorphism test of the form's images
itself, so an ``extend_*`` call of the wrong kind raises
``CollapseError``.  It does not check the extension row by row: it
checks the two conditions above on the generators, as it accepts any
images, and each relator at the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .engine import GroupRep
from .errors import InconsistencyError
from .rotary import Chirality, RegularCGroup4, RotationGroup4, _form_exists, schlafli
from .words import Word


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


def _form_images(kind: DualityKind, gens) -> tuple:
    """The images alpha(g) = d^-1 g d of the distinguished generators
    under the normal form of ``kind``: (sigma1, sigma2, sigma3) for the
    proper and improper forms, (rho0, ..., rho3) for the polarity.  The
    proper form and the polarity both reverse the sequence and invert
    each generator; the rho are involutions, so the polarity sends rho_i
    to rho_(3-i)."""
    if kind is DualityKind.IMPROPER:
        s1, s2, s3 = gens
        return (~s3, s1 * s2 * ~s1, s1)
    return tuple(~g for g in reversed(gens))


def detect_self_duality(m: RotationGroup4) -> SelfDualityClass:
    """Classify the self-duality of a rank-4 rotation group.

    Each normal form is certified by one homomorphism check on the
    wrapper's basis (``_form_exists``); the witness is its tuple of
    generator images.  For chiral groups the two kinds are mutually
    exclusive (both at once would force regularity) and that
    exclusivity is enforced.  For regular groups both normal forms
    typically certify; the improper form is reported because the mixing
    construction consumes it.
    """
    p, q, r = schlafli(m)
    if p != r:
        return SelfDualityClass(DualityKind.NONE)
    forms = [(kind, _form_images(kind, m.sigma))
             for kind in (DualityKind.IMPROPER, DualityKind.PROPER)]
    certified = [
        (kind, images) for kind, images in forms
        if _form_exists(m, m.sigma, images)
    ]
    if not certified:
        return SelfDualityClass(DualityKind.NONE)
    if len(certified) == 2 and m.chirality is Chirality.CHIRAL:
        raise InconsistencyError("both duality kinds certify on a chiral group")
    return SelfDualityClass(*certified[0])


def _adjoin_duality(base, gens, kind: DualityKind, z: Word) -> ExtendedGroup:
    """Adjoin a fresh generator d to the presentation of ``base`` with
    d^-1 g d = alpha(g) for the form images of ``gens`` (``_form_images``)
    and d^2 = z: ``GroupRep.extend`` writes those relators and builds the
    extension from the base table under the cap of ``base``.

    ``GroupRep.extend`` finds alpha with one automorphism test and
    certifies the table (its docstring gives the argument).  Without
    alpha it raises ``CollapseError``: then no extension of order 2|G|
    satisfies the relators, since in one the base generators embed G
    with index 2 and conjugation by d would be that automorphism.

    As G embeds, the identities its wrapper checked (the rotation or
    C-group relations) hold in the extension.  With the adjoined
    relators, which hold in the extension, they imply the identities
    derived in the ``extend_*`` and ``pc_map_*`` docstrings, so those are
    not tested again."""
    rep = base.rep.extend(gens, _form_images(kind, gens), z)
    d = Word.gen(base.rep.presentation.ngens)
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
    return _adjoin_duality(m, m.sigma, DualityKind.IMPROPER, w1 * w2 * w3)


def extend_proper(m: RotationGroup4) -> ExtendedGroup:
    """Adjoin the involutory polarity to a properly self-dual group.

    Conjugation by d swaps s1 s2 and s2 s3 and fixes z = s1 s2 s3:
    d s1 s2 d = s3^-1 s2^-1 = (s2 s3)^-1 = s2 s3, an involution, and
    d z d = z^-1 = z."""
    return _adjoin_duality(m, m.sigma, DualityKind.PROPER, Word.identity())


def find_polarity(c: RegularCGroup4) -> SelfDualityClass:
    """Detect the polarity of a regular C-group: the automorphism that
    reverses the generator sequence rho_i -> rho_(3-i).  It is an
    involution on the generators, so no square condition is tested, and
    the homomorphism check on the basis decides (``_form_exists``)."""
    images = _form_images(DualityKind.REGULAR_POLARITY, c.rho)
    if not _form_exists(c, c.rho, images):
        return SelfDualityClass(DualityKind.NONE)
    return SelfDualityClass(DualityKind.REGULAR_POLARITY, images)


def extend_polarity(c: RegularCGroup4) -> ExtendedGroup:
    """Adjoin the polarity to a self-dual regular C-group."""
    return _adjoin_duality(c, c.rho, DualityKind.REGULAR_POLARITY, Word.identity())
