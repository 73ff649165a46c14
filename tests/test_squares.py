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
table.

The verdict sweep: every Petrie quotient of ex1, ex2 and ex3 for
k = 2..30, and the Petrie-Coxeter map of each self-dual one, must carry
the polytopality and chirality that independent oracles give: subgroups
closed by walking the words (``oracle.word_bfs_closure``) and
automorphisms closed pair by pair (``oracle.automorphism_reference``).
Each map must also have the order, type and hole or zigzag lengths the
paper claims, every one of them the size of a closure walked by
``oracle.word_bfs_closure``, not an element order from ``rotary``."""

from collections import Counter

import pytest

from oracle import automorphism_reference, naive_c_group_condition, word_bfs_closure
from rotamap import (
    Chirality,
    DualityKind,
    NotPolytopalError,
    NotSelfDualError,
    RotationGroup3,
    RotationGroup4,
    detect_self_duality,
    enumerate_group,
    petrie_coxeter,
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


def oracle_chirality(rep, sigma):
    """The chirality of the rotations ``sigma`` of ``rep``, by oracles
    alone.  Polytopal: no rotation is trivial, and on each run
    σi..σ(j-1) of two or more, ⟨σi..σ(j-2)⟩ ∩ ⟨σ(i+1)..σ(j-1)⟩ =
    ⟨σ(i+1)..σ(j-2)⟩.  Then regular iff the orientation reversing map
    extends to an automorphism: σ1 -> σ1^-1, σ2 -> σ1^2 σ2 on a map,
    σ1 -> σ1, σ2 -> σ2 σ3^2, σ3 -> σ3^-1 in rank 4."""
    if any(word_bfs_closure(rep, [s]) == {0} for s in sigma):
        return Chirality.NOT_POLYTOPAL
    n = len(sigma)
    for i in range(n):
        for j in range(i + 2, n + 1):
            left = word_bfs_closure(rep, sigma[i:j - 1])
            right = word_bfs_closure(rep, sigma[i + 1:j])
            if left & right != word_bfs_closure(rep, sigma[i + 1:j - 1]):
                return Chirality.NOT_POLYTOPAL
    if n == 2:
        s1, s2 = sigma
        images = [~s1, s1 * s1 * s2]
    else:
        s1, s2, s3 = sigma
        images = [s1, s2 * s3 * s3, ~s3]
    if automorphism_reference(rep, sigma, images) is None:
        return Chirality.CHIRAL
    return Chirality.REGULAR


def walked_order(rep, w):
    """The order of w: the size of its cyclic closure."""
    return len(word_bfs_closure(rep, [w]))


def oracle_map_claims(q, pc):
    """(got, want) for the Petrie-Coxeter map ``pc`` of the self-dual
    rank-4 group ``q`` of type {p, q, p} and Petrie lengths (s, t), every
    value walked.  The map's generators generate the extension, of order
    2 |q|.  An improper duality gives a rotation map (k1, k2) of type
    {4, 2q} whose 2-holes, the periods of k1 k2^-1, have length p.  A
    proper one gives a regular map (t0, t1, t2) of type {p, 2s}, Petrie
    length 2t (the period of t0 t1 t2) and 2-zigzags of length q (the
    period of t0 (t1 t2)^2)."""
    s1, s2, s3 = q.sigma
    p, qq = walked_order(q.rep, s1), walked_order(q.rep, s2)
    if isinstance(pc, RotationGroup3):
        k1, k2 = gens = pc.sigma
        got = [walked_order(pc.rep, w) for w in (k1, k2, k1 * ~k2)]
        want = [4, 2 * qq, p]
    else:
        t0, t1, t2 = gens = pc.rho
        got = [walked_order(pc.rep, w)
               for w in (t0 * t1, t1 * t2, t0 * t1 * t2, t0 * (t1 * t2) ** 2)]
        s, t = walked_order(q.rep, s1 * s3), walked_order(q.rep, s1 * ~s3)
        want = [p, 2 * s, 2 * t, qq]
    return [len(word_bfs_closure(pc.rep, gens))] + got, [2 * q.order] + want


# (duality kind, kind of map, chirality of the quotient) -> count, for the
# polytopal self-dual Petrie quotients at k = 2..30
SWEEP = {
    "ex1": {
        (DualityKind.IMPROPER, "rotation", Chirality.REGULAR): 8,
        (DualityKind.IMPROPER, "rotation", Chirality.CHIRAL): 7,
    },
    "ex2": {(DualityKind.IMPROPER, "rotation", Chirality.CHIRAL): 4},
    "ex3": {(DualityKind.PROPER, "regular", Chirality.CHIRAL): 7},
}


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_verdict_sweep(catalog_groups, name):
    m = catalog_groups.group(name)
    s1, _, s3 = m.sigma
    found = Counter()
    for k in range(2, 31):
        q = RotationGroup4(m.rep.quotient((s1 * s3) ** k), m.sigma)
        assert q.chirality is oracle_chirality(q.rep, q.sigma), k
        if not q.polytopal:
            continue
        try:
            ext, pc = petrie_coxeter(q)
        except NotSelfDualError:
            continue
        got, want = oracle_map_claims(q, pc)
        assert got == want, k
        if isinstance(pc, RotationGroup3):
            assert pc.chirality is oracle_chirality(pc.rep, pc.sigma), k
            assert pc.chirality is q.chirality, k
            found[ext.kind, "rotation", q.chirality] += 1
        else:
            assert pc.polytopal == naive_c_group_condition(pc.rep, pc.rho), k
            found[ext.kind, "regular", q.chirality] += 1
    assert found == SWEEP[name]
