"""The extension square: extending a Petrie quotient and taking the
Petrie quotient of an extension give one group.

For a self-dual rank-4 group G whose Petrie quotient Q = G / <<(s1 s3)^k>>
is self-dual of the same kind, the extension of Q by its duality d and
the quotient of G's extension by (s1 s3)^k are both presented by G's
relators, the duality relators and (s1 s3)^k, in another order.  So
their tables, put in row-scan standard form, must be equal.  The first
path extends a quotient table (``GroupRep.quotient``, then
``GroupRep.extend``), the second takes the quotient of an interleaved
extension table, by a block labelling or, when (s1 s3)^k is already 1,
by sharing it.  ``tests/check_recorded_tables.py`` runs every such pair
of the petrie-scan workload, k = 2..30 over ex1, ex2 and ex3.

The quotient square: two quotients taken one after the other, in either
order, give the group that G's relators and both words present, so both
tables, in row-scan standard form, must equal that group's enumerated
table."""

import pytest

from rotamap import (
    DualityKind,
    NotPolytopalError,
    detect_self_duality,
    enumerate_group,
    petrie_quotient,
)
from rotamap.selfdual import extend_improper, extend_proper
from test_derived import _standard

EXTEND = {DualityKind.IMPROPER: extend_improper, DualityKind.PROPER: extend_proper}


def square(ext, k):
    """The two corners of the extension square of ``ext``, the extension
    of a rank-4 group G, at k, in row-scan standard form: the extension
    of G's Petrie quotient at k and the quotient of ``ext`` by
    (s1 s3)^k.  None if that Petrie quotient is not polytopal or not
    self-dual of ``ext``'s kind."""
    m = ext.base
    try:
        q = petrie_quotient(m, k)
    except NotPolytopalError:
        return None
    if detect_self_duality(q).kind is not ext.kind:
        return None
    s1, _, s3 = m.sigma
    return _standard(EXTEND[ext.kind](q).rep), _standard(ext.rep.quotient((s1 * s3) ** k))


# k = 20 and 8 are the Petrie lengths of ex1 and ex3, where (s1 s3)^k is
# 1 and the quotient of the extension shares its table
@pytest.mark.parametrize("name,k", [
    ("ex1", 2), ("ex1", 4), ("ex1", 20), ("ex3", 4), ("ex3", 8), ("ex3", 12),
])
def test_extension_square(ex1_pipe, ex3_chain, name, k):
    ext = ex1_pipe.ext if name == "ex1" else ex3_chain["base"].ext
    corners = square(ext, k)
    assert corners is not None
    extended, quotient = corners
    assert extended == quotient
    assert 2 * petrie_quotient(ext.base, k).order == len(extended)


def test_collapsed_quotient_has_no_square(ex1_pipe):
    # ex1's Petrie quotients at odd k are not polytopal
    assert square(ex1_pipe.ext, 3) is None


@pytest.mark.parametrize("j", [2, 4, 5, 10])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_quotient_square(catalog_groups, j, k):
    # ex1 modulo (s1 s3)^j and (s1 s2^-1 s3)^k, in both orders
    m = catalog_groups.group("ex1")
    s1, s2, s3 = m.sigma
    a, b = (s1 * s3) ** j, (s1 * ~s2 * s3) ** k
    want = enumerate_group(m.rep.presentation.with_relators(a, b)).table
    assert _standard(m.rep.quotient(a).quotient(b)) == want
    assert _standard(m.rep.quotient(b).quotient(a)) == want
