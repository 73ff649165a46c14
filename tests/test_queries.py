"""Differential tests of the GroupRep query layer: the one closure loop
against a word-walking breadth-first closure, the automorphism test
against an element-by-element check and, on arbitrary generating sets,
against a literal-word map, the automorphism queries and the callers'
form tests, which read the sources' basis, against the full closure
of ``oracle.automorphism_reference``, subgroup sizes on the catalog's
base groups, and the conjugacy classes, involutions and normal closures
that a verified table reads off its left multiplications against the
word walks and the naive oracles, and the center of tables that build
those left multiplications for it alone."""

import math
import random

import pytest

from rotamap import (
    CosetTable,
    GroupRep,
    InconsistencyError,
    RegularCGroup4,
    RotationGroup3,
    RotationGroup4,
    TorusFamily,
    Word,
    detect_self_duality,
    enumerate_group,
    find_polarity,
    is_reflexible3,
    is_reflexible4,
    parse_presentation,
    schlafli,
    torus_presentation,
)
from rotamap.rotary import _form_exists
from rotamap.selfdual import DualityKind, _form_images
from oracle import (
    automorphism_reference,
    naive_conjugacy_class,
    naive_generator_map,
    naive_involutions,
    naive_is_automorphism,
    naive_normal_closure,
    naive_normal_subgroup,
    naive_subgroup_closure,
    word_bfs_closure,
)
from test_derived import _relabelled, _standard

ROT333 = (
    "gens s1 s2 s3\n"
    "rel s1^3\nrel s2^3\nrel s3^3\n"
    "rel (s1 s2)^2\nrel (s2 s3)^2\nrel (s1 s2 s3)^2\n"
)


def rot333():
    return enumerate_group(parse_presentation(ROT333))


def _random_word(rng, ngens, length):
    return Word(tuple(rng.randrange(2 * ngens) for _ in range(length)))


def _conjugated(c, w):
    """The letters of c^-1, w and c concatenated, left unreduced (Word
    arithmetic would reduce them)."""
    return Word(tuple(x ^ 1 for x in reversed(c.cols())) + w.cols() + c.cols())


def _conjugate(rng, ngens):
    """~c w c with |c| <= 10 and 1 <= |w| <= 10: at most 30 letters,
    left unreduced."""
    c = _random_word(rng, ngens, rng.randrange(11))
    return _conjugated(c, _random_word(rng, ngens, rng.randrange(1, 11)))


def _word_lists(rep, distinguished, seed):
    rng = random.Random(seed)
    n = rep.presentation.ngens
    gens = [Word.gen(i) for i in range(n)]
    d = list(distinguished)
    lists = [
        [],
        [Word()],
        [Word(), Word(), d[0]],
        gens,
        gens + gens,
        d,
        [d[0], d[0] * d[0], ~d[0], d[0] ** 5],
        [d[0], d[1], d[0] * d[1], ~d[1] * ~d[0]],
        [d[1], ~d[0] * d[1] * d[0]],
    ]
    for _ in range(12):
        lists.append([_conjugate(rng, n) for _ in range(rng.randrange(1, 4))])
    return lists


def _check_closures(rep, distinguished, seed):
    sizes = set()
    for words in _word_lists(rep, distinguished, seed):
        h = rep.subgroup_closure(words)
        assert h.elements == word_bfs_closure(rep, words), words
        assert (rep.basis(words) is not None) == (h.size == rep.order), words
        sizes.add(h.size)
    # the lists reach the trivial group, the whole group and something
    # in between
    assert 1 in sizes and rep.order in sizes and len(sizes) > 2


class TestClosureMatchesWordBfs:
    def test_rot333(self):
        g = rot333()
        _check_closures(g, [Word.gen(i) for i in range(3)], 1)

    def test_ex1(self, ex1_pipe):
        m = ex1_pipe.base
        assert m.order == 2000
        _check_closures(m.rep, m.sigma, 2)

    def test_ex1_skew_map(self, ex1_pipe):
        m = ex1_pipe.map3
        assert m.order == 4000
        _check_closures(m.rep, m.sigma, 3)


def test_extends_to_automorphism_matches_naive():
    g = rot333()
    s = [Word.gen(i) for i in range(3)]
    mirror = [s[0], (s[1] * s[2] * s[2]).reduce(), (~s[2]).reduce()]
    rng = random.Random(4)
    triples = []
    for k in range(50):
        if k % 2:
            triples.append(
                [_random_word(rng, 3, rng.randrange(1, 5)) for _ in s]
            )
        else:
            c = _random_word(rng, 3, rng.randrange(6))
            base = mirror if k % 4 else s
            triples.append([_conjugated(c, w) for w in base])
    # well-defined but not onto: the trivial map
    triples.append([Word(), s[0] ** 3, ~s[1] * s[1]])
    verdicts = []
    for images in triples:
        got = g.extends_to_automorphism(images)
        assert got == naive_is_automorphism(g, images), images
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def _sigma_maps(rng, sigma, conjugators, max_len):
    """(sources, images) pairs: sigma conjugated by random words of up to
    ``max_len`` letters, unreduced (up to 2 max_len + 1 letters each),
    mapped as ``is_reflexible4`` and the two duality forms map them."""
    out = []
    for _ in range(conjugators):
        c = _random_word(rng, 3, rng.randrange(max_len + 1))
        t = [_conjugated(c, s) for s in sigma]
        out += [(t, images) for images in _caller_maps(t)]
    return out


def _maps_that_fail(rep, sigma):
    """(sources, images) pairs that define no automorphism."""
    s1, s2, s3 = sigma
    one = Word()
    p = rep.element_order(s1)
    return [
        ([s1], [s1]),  # sources do not generate
        ([s1, s2, s3, one], [s1, s2, s3, s1]),  # identity to a non-identity
        ([s1, s2, s3, s1], [s1, s2, s3, s2]),  # one source, two images
        ([s1, s2, s3, s1 ** (p + 1)], [s1, s2, s3, s1 * s2]),  # the same, as s1^(p+1)
        ([s1, s2, s3], [one, one, one]),  # well-defined, not onto
    ]


def _check_generator_maps(rep, sigma, conjugators, max_len, seed):
    verdicts = []
    for sources, images in _sigma_maps(random.Random(seed), sigma, conjugators, max_len):
        got = rep.generator_map_automorphism(sources, images)
        assert got == naive_generator_map(rep, sources, images), (sources, images)
        verdicts.append(got is not None)
    assert True in verdicts
    for sources, images in _maps_that_fail(rep, sigma):
        assert rep.generator_map_automorphism(sources, images) is None, sources
        assert naive_generator_map(rep, sources, images) is None, sources


class TestGeneratorMapMatchesNaive:
    """The automorphism test on arbitrary generating sets, permutation for
    permutation against a literal-word oracle."""

    def test_rot333(self):
        _check_generator_maps(rot333(), [Word.gen(i) for i in range(3)], 8, 16, 5)

    def test_ex2q7(self, ex2_chain):
        m = ex2_chain["q7"].base
        assert m.order == 5040
        _check_generator_maps(m.rep, m.sigma, 4, 16, 6)


class TestFrontierPasses:
    """The closure and the automorphism test on ex2q7 (order 5,040), whose
    breadth-first levels hold up to hundreds of elements, and on cyclic
    groups, whose levels hold one element each."""

    def test_closures_of_conjugated_sigma(self, ex2_chain):
        # c = 1 gives sigma itself, and t[:2] then gives <sigma1, sigma2>
        m = ex2_chain["q7"].base
        rng = random.Random(7)
        conjugators = [Word()] + [_random_word(rng, 3, rng.randrange(1, 9)) for _ in range(4)]
        for c in conjugators:
            t = [_conjugated(c, s) for s in m.sigma]
            for words in (t, t[:2]):
                h = m.rep.subgroup_closure(words)
                assert h.elements == word_bfs_closure(m.rep, words), words
                assert h.size == (m.order if len(words) == 3 else 42)

    @pytest.mark.parametrize("extra", ["far element", "sigma3 conjugated"])
    def test_conflict_after_the_first_level(self, ex2_chain, extra):
        m = ex2_chain["q7"].base
        rep = m.rep
        s1, s2, s3 = m.sigma
        if extra == "far element":
            # element 4098 lies 12 sigma-steps from the identity; its
            # wrong image is first contradicted at level 3
            far = rep.element_word(4098)
            sources, images = [s1, s2, s3, far], [s1, s2, s3, far * s1]
        else:
            # first contradicted at level 4, a level of 24 elements
            sources, images = [s1, s2, s3], [s1, s2, ~s2 * s3 * s2]
        # the first level cannot conflict: the sources are distinct
        # elements other than the identity
        assert len({rep.element_of(w) for w in sources} - {0}) == len(sources)
        assert rep.generator_map_automorphism(sources, images) is None
        assert naive_generator_map(rep, sources, images) is None
        # the same map without the wrong image is an automorphism
        images[-1] = sources[-1] if extra == "far element" else s3
        assert rep.generator_map_automorphism(sources, images) == list(range(rep.order))

    def test_single_element_levels(self, ex2_chain):
        rep = ex2_chain["q7"].base.rep
        s1 = ex2_chain["q7"].base.sigma[0]
        h = rep.subgroup_closure([s1])
        assert h.elements == word_bfs_closure(rep, [s1])
        assert h.size == rep.element_order(s1) == 6
        cyclic = enumerate_group(parse_presentation("gens a\nrel a^12\n"))
        a = Word.gen(0)
        for k in range(12):
            want = naive_generator_map(cyclic, [a], [a ** k])
            assert cyclic.generator_map_automorphism([a], [a ** k]) == want
            assert (want is not None) == (k in (1, 5, 7, 11))
            assert cyclic.subgroup_closure([a ** k]).elements == word_bfs_closure(cyclic, [a ** k])


def test_undeclared_generator_is_value_error():
    g = rot333()
    s1, s2, s3 = (Word.gen(i) for i in range(3))
    bad = Word.gen(3)
    with pytest.raises(ValueError):
        g.subgroup_closure([s1, bad])
    with pytest.raises(ValueError):
        g.extends_to_automorphism([s1, s2, bad])
    with pytest.raises(ValueError):
        g.generator_map_automorphism([s1, s2, s3], [s1, s2, bad])
    with pytest.raises(ValueError):
        g.generator_map_automorphism([s1, s2, bad], [s1, s2, s3])
    with pytest.raises(ValueError):
        g.endomorphism_exists(g.basis([s1, s2, s3]), [s1, s2, bad])
    with pytest.raises(ValueError):
        g.basis([s1, bad])


# (center, derived subgroup, normal closure of each distinguished word
# and of the first times the last), recorded before the closure loops
# were merged.
CATALOG_SIZES = {
    "ex1": (1, 250, (500, 500, 500, 500)),
    "ex2": (2, 5040, (10080, 5040, 10080, 10080)),
    "ex2q14": (2, 2520, (5040, 2520, 5040, 5040)),
    "ex2q7": (1, 2520, (5040, 2520, 5040, 2520)),
    "ex3": (2, 336, (336, 672, 336, 336)),
    "ex3-central-quotient": (1, 168, (168, 336, 168, 168)),
    "simplex333": (1, 60, (120, 120, 120, 120, 60)),
    "torus-44-1-0": (4, 1, (4, 4, 2)),
    "torus-44-1-1": (8, 1, (4, 4, 2)),
    "torus-44-2-0": (4, 2, (8, 8, 4)),
    "torus-44-1-3": (2, 5, (20, 20, 10)),
    "torus-36-1-2": (1, 7, (21, 42, 14)),
    "torus-63-1-2": (1, 7, (42, 21, 14)),
}


def _check_handle(h, order):
    """A ``SubgroupHandle`` is the frozenset of its elements: ``elements``
    is that set, and ``size``, ``len`` and ``in`` read it."""
    assert isinstance(h, frozenset)
    assert h.elements == frozenset(h) and h.size == len(h) == len(h.elements)
    assert 0 in h and order not in h and -1 not in h
    assert [x for x in range(order) if x in h] == sorted(h.elements)


@pytest.mark.parametrize("name", sorted(CATALOG_SIZES))
def test_catalog_subgroup_sizes(catalog_groups, name):
    rep = catalog_groups.group(name).rep
    d = rep.presentation.distinguished
    handles = (
        rep.center(),
        rep.derived_subgroup(),
        tuple(rep.normal_closure(w) for w in list(d) + [d[0] * d[-1]]),
    )
    got = (handles[0].size, handles[1].size, tuple(h.size for h in handles[2]))
    assert got == CATALOG_SIZES[name]
    for h in handles[:2] + handles[2] + (rep.subgroup_closure(d[:1]),):
        _check_handle(h, rep.order)


# -- the automorphism certificate ---------------------------------------------

CERTIFICATE_TORI = [
    TorusFamily(*v) for v in (
        ("44", 1, 0), ("44", 1, 1), ("44", 2, 1), ("44", 3, 2), ("44", 0, 5),
        ("36", 1, 1), ("36", 2, 1), ("36", 3, 0), ("63", 1, 2), ("63", 4, 1),
    )
]

# naive_is_automorphism walks every element; it runs up to this order
NAIVE_ORDER = 700


def _caller_maps(d):
    """The images the callers test for the distinguished words d: the
    reflexibility map of a rank-3 or rank-4 rotation group
    (``is_reflexible3``/``4``), both duality forms of a rank-4 one
    (``detect_self_duality``), and the polarity of a C-group
    (``find_polarity``)."""
    if len(d) == 2:
        s1, s2 = d
        return [[~s1, s1 * s1 * s2]]
    if len(d) == 3:
        s1, s2, s3 = d
        return [[s1, s2 * s3 * s3, ~s3]] + [
            list(_form_images(kind, d)) for kind in (DualityKind.IMPROPER, DualityKind.PROPER)
        ]
    return [list(reversed(d))]


def _certificate_inputs(rep, word_lists, conjugators, random_maps, seed):
    """(sources, images) pairs for ``generator_map_automorphism``.  Each list d
    of distinguished words gets the images its callers give it, as is
    and with d conjugated by random words of 1 to 16 letters, as
    map-search draws them, and an inner automorphism; d's first word
    alone generates a proper subgroup.  Random maps of random elements
    follow: on small groups a few of them generate the group and are
    caught only by the relator or the source-word check."""
    rng = random.Random(seed)
    n, ngens = rep.order, rep.presentation.ngens
    out = []
    for d in word_lists:
        d = list(d)
        conjugates = [[_conjugated(_random_word(rng, ngens, rng.randrange(1, 17)), s) for s in d]
                      for _ in range(conjugators)]
        for t in [d] + conjugates:
            out += [(t, images) for images in _caller_maps(t)]
        g = rep.element_word(rng.randrange(n))
        out.append((d, [~g * s * g for s in d]))
        out.append((d[:1], d[:1]))
    for _ in range(random_maps):
        k = rng.randrange(1, 4)
        out.append(tuple([rep.element_word(rng.randrange(n)) for _ in range(k)] for _ in "su"))
    return out


def _check_certificate(rep, inputs):
    """``generator_map_automorphism``, which reads the sources' basis,
    against the full closure of ``automorphism_reference`` on every
    input and, on small groups, against ``naive_generator_map``; where
    the sources are the presentation generators, ``extends_to_automorphism``
    and, on small groups, ``naive_is_automorphism`` too.  Returns the
    verdicts."""
    gens = [Word.gen(i) for i in range(rep.presentation.ngens)]
    verdicts = []
    for sources, images in inputs:
        want = automorphism_reference(rep, sources, images)
        alpha = rep.generator_map_automorphism(sources, images)
        got = alpha is not None
        assert got == (want is not None), (sources, images)
        assert alpha == want, (sources, images)
        if rep.order <= NAIVE_ORDER:
            assert naive_generator_map(rep, sources, images) == want, (sources, images)
        if list(sources) == gens:
            assert rep.extends_to_automorphism(images) == got
            if rep.order <= NAIVE_ORDER:
                assert naive_is_automorphism(rep, images) == got, images
        verdicts.append(got)
    return verdicts


def _distinguished(m):
    return [m.sigma] + ([m.rho] if hasattr(m, "rho") else [])


def _conjugated_wrappers(m, count, seed):
    """m and ``count`` copies of it whose basis words, sigma or rho, are
    conjugated by random words of 1 to 16 letters."""
    rng = random.Random(seed)
    ngens = m.rep.presentation.ngens
    out = [m]
    for _ in range(count):
        c = _random_word(rng, ngens, rng.randrange(1, 17))
        out.append(type(m)(m.rep, tuple(_conjugated(c, w) for w in m.basis.sources)))
    return out


def _check_forms(m):
    """Every form test the callers run on the wrapper m against the full
    closure: the homomorphism check on m's basis of each caller map of
    its basis words (``_caller_maps``), and ``is_reflexible3``/``4``,
    ``detect_self_duality`` or ``find_polarity``, which read it.
    Returns the reference verdicts."""
    d = list(m.basis.sources)
    maps = _caller_maps(d)
    want = [automorphism_reference(m.rep, d, images) is not None for images in maps]
    assert [m.rep.endomorphism_exists(m.basis, images) for images in maps] == want, d
    if len(d) == 2:
        assert is_reflexible3(m) == want[0]
    elif len(d) == 3:
        assert is_reflexible4(m) == want[0]
        p, _, r = schlafli(m)
        kind = DualityKind.NONE
        if p == r and want[1]:
            kind = DualityKind.IMPROPER
        elif p == r and want[2]:
            kind = DualityKind.PROPER
        assert detect_self_duality(m).kind == kind, d
    else:
        polarity = DualityKind.REGULAR_POLARITY if want[0] else DualityKind.NONE
        assert find_polarity(m).kind == polarity
    return want


class TestAutomorphismCertificate:
    """The certificate read off the basis gives the full closure's
    verdict."""

    @pytest.mark.parametrize("name", sorted(CATALOG_SIZES))
    def test_catalog_group(self, catalog_groups, name):
        m = catalog_groups.group(name)
        conjugators = 2 if m.order > 10_000 else 4
        inputs = _certificate_inputs(m.rep, _distinguished(m), conjugators, 40, name)
        verdicts = _check_certificate(m.rep, inputs)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("name", ["ex1", "ex3"])
    def test_extension(self, ex1_pipe, ex3_chain, name):
        # the base's sigma generates exactly half the extension, and
        # conjugation by the duality d is an automorphism of it
        ext = (ex1_pipe if name == "ex1" else ex3_chain["base"]).ext
        sigma = list(ext.base.sigma)
        d = ext.duality
        inputs = _certificate_inputs(ext.rep, [sigma + [d]], 4, 40, name)
        inputs.append((sigma, [~d * s * d for s in sigma]))
        inputs.append((sigma + [d], [~d * s * d for s in sigma + [d]]))
        verdicts = _check_certificate(ext.rep, inputs)
        assert verdicts[-2:] == [False, True]

    @pytest.mark.parametrize("name,k", [("ex1", 2), ("ex1", 4), ("ex3", 2), ("ex3", 4)])
    def test_petrie_quotient(self, catalog_groups, name, k):
        m = catalog_groups.group(name)
        s1, _, s3 = m.sigma
        q = RotationGroup4(m.rep.quotient((s1 * s3) ** k), m.sigma)
        assert q.order in (2, 8, 336, 400)
        _check_certificate(q.rep, _certificate_inputs(q.rep, [q.sigma], 4, 40, f"{name}/{k}"))

    @pytest.mark.parametrize("t", CERTIFICATE_TORI, ids=lambda t: t.name)
    def test_torus(self, t):
        p = torus_presentation(t)
        m = RotationGroup3(enumerate_group(p), p.distinguished)
        inputs = _certificate_inputs(m.rep, [m.sigma], 4, 300, t.name)
        verdicts = _check_certificate(m.rep, inputs)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("n", [12, 15, 16])
    def test_cyclic_powers(self, n):
        # a -> a^k is a homomorphism for every k, one to one exactly when
        # gcd(k, n) = 1
        cyclic = enumerate_group(parse_presentation(f"gens a\nrel a^{n}\n"))
        a = Word.gen(0)
        verdicts = _check_certificate(cyclic, [([a], [a ** k]) for k in range(n)])
        assert verdicts == [math.gcd(k, n) == 1 for k in range(n)]


def test_basis_of_more_than_256_blocks():
    # a^2 in C601 reaches one element a block, a^2k at block k + 1, and
    # first pairs some y with y a at a^600, the 301st: too many blocks
    # for the marks to be kept as bytes
    cyclic = enumerate_group(parse_presentation("gens a\nrel a^601\n"))
    a = Word.gen(0)
    basis = cyclic.basis([a * a])
    assert not isinstance(basis.mark, bytes) and len(basis.blocks) > 256
    for k in (1, 2, 150, 299, 300):
        x = cyclic.element_of(a ** (2 * k))
        assert basis.mark[x] and basis.word(x) == [0] * k
    for k in (0, 1, 2, 300, 600):
        # 601 is prime: a^2 -> a^k is an automorphism for every k but 0
        want = automorphism_reference(cyclic, [a * a], [a ** k])
        assert (want is not None) == (k != 0)
        assert cyclic.generator_map_automorphism([a * a], [a ** k]) == want
        assert (cyclic.generator_map_automorphism([a * a], [a ** k]) is not None) == (k != 0)


# -- the generation certificate ------------------------------------------------

# elements reached by ex2's basis (order 20160) of sigma conjugated by c,
# c the seeded random word of 0 to 16 letters: a sixth of the group at
# most, where a closure to half the group reached 10,500 each time
EX2_REACHED = [84, 84, 126, 252, 126, 336, 168, 84, 168, 84, 84, 504, 3066, 84, 1596, 882, 630]

# the catalog groups small enough for the quadratic naive_subgroup_closure
SMALL_CATALOG = [
    "ex3-central-quotient", "simplex333", "torus-44-1-0", "torus-44-1-1",
    "torus-44-2-0", "torus-44-1-3", "torus-36-1-2", "torus-63-1-2",
]


def _small_groups(catalog_groups):
    """The verified groups of ``CERTIFICATE_TORI`` and ``SMALL_CATALOG``."""
    reps = [enumerate_group(torus_presentation(t)) for t in CERTIFICATE_TORI]
    return reps + [catalog_groups.group(name).rep for name in SMALL_CATALOG]


class TestGenerationCertificate:
    """``basis`` and ``generated_by_involutions`` stop the closure once
    each generator g has a reached pair y, y g, and give None or False
    when it ends with one unpaired."""

    def test_ex2_reached_counts(self, catalog_groups):
        m = catalog_groups.group("ex2")
        rng = random.Random("ex2-reached")
        reached = []
        for n in range(17):
            c = _random_word(rng, m.rep.presentation.ngens, n)
            basis = m.rep.basis([~c * s * c for s in m.sigma])
            reached.append(m.order - basis.mark.count(0))
        assert reached == EX2_REACHED

    def test_generated_by_involutions_matches_naive(self, catalog_groups):
        verdicts = []
        for rep in _small_groups(catalog_groups):
            want = len(naive_subgroup_closure(rep, naive_involutions(rep))) == rep.order
            # the verified table closes one orbit (_orbit)
            assert rep._left is not None
            assert rep.generated_by_involutions() is want
            # the same table without _left finds the involutions by walks
            assert GroupRep(rep.presentation, rep.table).generated_by_involutions() is want
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_generated_by_involutions_skew(self, ex1_pipe):
        # an extension, without _left; naive_subgroup_closure would take
        # seconds on its 4000 elements, so the involutions' words are
        # closed breadth first instead
        rep = ex1_pipe.map3.rep
        words = [rep.element_word(x) for x in naive_involutions(rep)]
        assert len(word_bfs_closure(rep, words)) == rep.order // 2
        assert rep.generated_by_involutions() is False

    def test_generator_fixing_the_identity(self):
        # b is trivial, so its column fixes 0 and pairs with y = 0 before
        # any block, and a pairs with 0 in a's first block
        rep = enumerate_group(parse_presentation("gens a b\nrel a^5\nrel b\n"))
        a = Word.gen(0)
        basis = rep.basis([a])
        assert basis.pairs == (0, 0) and basis.blocks == [-1, -1, 0]
        for k in range(5):
            want = automorphism_reference(rep, [a], [a ** k])
            assert rep.generator_map_automorphism([a], [a ** k]) == want
            assert (want is not None) == (k != 0)
        assert rep.generated_by_involutions() is False
        # the trivial group: every column fixes 0, so no word is needed
        trivial = enumerate_group(parse_presentation("gens a\nrel a\n"))
        basis = trivial.basis([])
        assert basis.pairs == (0,) and basis.blocks == [-1, -1]
        assert trivial.generated_by_involutions() is True

    def test_identity_source(self, catalog_groups):
        m = catalog_groups.group("ex3")
        rep = m.rep
        e = Word.identity()
        sources = [e] + list(m.sigma)
        basis = rep.basis(sources)
        # the identity is reached already, so it makes no block
        assert basis is not None and 0 not in basis.blocks[2:]
        assert rep.basis([e, m.sigma[0]]) is None
        for images in (sources, [m.sigma[0]] + list(m.sigma), [e] + list(reversed(m.sigma))):
            want = automorphism_reference(rep, sources, images)
            assert rep.generator_map_automorphism(sources, images) == want
            assert rep.endomorphism_exists(basis, images) == (want is not None)
        assert rep.generator_map_automorphism(sources, sources) == list(range(rep.order))

    def test_paired_generator_of_a_proper_subgroup(self, catalog_groups):
        # <s1> holds 0 and s1, a pair for s1's column, but no pair for
        # s2's or s3's, so the closure runs to its end and gives None
        rep = catalog_groups.group("ex3").rep
        s1 = Word.gen(0)
        closure = rep.subgroup_closure([s1]).elements
        assert 0 in closure and rep.element_of(s1) in closure and len(closure) == 3
        assert rep.basis([s1]) is None
        assert rep.generator_map_automorphism([s1], [s1]) is None


# -- the form tests on the wrappers' bases -------------------------------------

# the reference verdicts of _caller_maps on each catalog group: the
# reflexibility map, then the improper and proper forms (rank 4) or the
# polarity (a C-group)
CATALOG_FORMS = {
    "ex1": [False, True, False],
    "ex2": [False, True, False],
    "ex2q14": [False, True, False],
    "ex2q7": [False, True, False],
    "ex3": [False, False, True],
    "ex3-central-quotient": [False, False, True],
    "simplex333": [True],
    "torus-44-1-0": [True],
    "torus-44-1-1": [True],
    "torus-44-2-0": [True],
    "torus-44-1-3": [False],
    "torus-36-1-2": [False],
    "torus-63-1-2": [False],
}


class TestFormTests:
    """``is_reflexible3``/``4``, both forms of ``detect_self_duality`` and
    ``find_polarity`` read a homomorphism off the wrapper's basis; each
    gives the full closure's verdict, also with the basis words
    conjugated, as map-search draws them."""

    @pytest.mark.parametrize("name", sorted(CATALOG_FORMS))
    def test_catalog_group(self, catalog_groups, name):
        m = catalog_groups.group(name)
        count = 2 if m.order > 10_000 else 4
        for w in _conjugated_wrappers(m, count, name):
            assert _check_forms(w) == CATALOG_FORMS[name]

    @pytest.mark.parametrize("name,k", [("ex1", 2), ("ex1", 4), ("ex3", 2), ("ex3", 4)])
    def test_petrie_quotient(self, catalog_groups, name, k):
        m = catalog_groups.group(name)
        s1, _, s3 = m.sigma
        q = RotationGroup4(m.rep.quotient((s1 * s3) ** k), m.sigma)
        verdicts = [_check_forms(w) for w in _conjugated_wrappers(q, 4, f"{name}/{k}")]
        assert all(v == verdicts[0] for v in verdicts)

    @pytest.mark.parametrize("t", CERTIFICATE_TORI, ids=lambda t: t.name)
    def test_torus(self, t):
        p = torus_presentation(t)
        m = RotationGroup3(enumerate_group(p), p.distinguished)
        verdicts = [_check_forms(w) for w in _conjugated_wrappers(m, 4, t.name)]
        # b c = 0 or b = c gives a reflexible torus map
        assert verdicts == [[t.b * t.c == 0 or t.b == t.c]] * 5


# the 11-cell {3,5,3}: its group L2(11) is simple, so sigma generates all
# of it, where the simplex's sigma generates half
ELEVEN_CELL = (
    "gens r0 r1 r2 r3\n"
    "rel r0^2\nrel r1^2\nrel r2^2\nrel r3^2\n"
    "rel (r0 r1)^3\nrel (r1 r2)^5\nrel (r2 r3)^3\n"
    "rel (r0 r2)^2\nrel (r0 r3)^2\nrel (r1 r3)^2\n"
    "rel (r0 r1 r2)^5\nrel (r1 r2 r3)^5\n"
    "rho r0 r1 r2 r3\n"
)


@pytest.mark.parametrize("name,want", [
    ("simplex333", (False, DualityKind.NONE)),
    ("11-cell", (True, DualityKind.IMPROPER)),
])
def test_c_group_sigma_forms(catalog_groups, name, want):
    """A C-group's basis is over rho, so ``is_reflexible4`` and
    ``detect_self_duality``, which map its sigma, build a basis of sigma
    of their own (``_form_exists``); their verdicts are pinned as they
    were before the basis, and all three sigma forms are compared with
    the full closure."""
    if name == "11-cell":
        p = parse_presentation(ELEVEN_CELL)
        c = RegularCGroup4(enumerate_group(p), p.distinguished)
        assert (c.order, c.rep.subgroup_closure(c.sigma).size) == (660, 660)
    else:
        c = catalog_groups.group(name)
    assert c.basis.sources == c.rho
    assert (is_reflexible4(c), detect_self_duality(c).kind) == want
    maps = _caller_maps(list(c.sigma))
    reflexible, improper, proper = (
        automorphism_reference(c.rep, c.sigma, images) is not None for images in maps
    )
    assert (reflexible, improper) == (want[0], want[1] is DualityKind.IMPROPER)
    assert [_form_exists(c, c.sigma, images) for images in maps] == [reflexible, improper, proper]


# -- the two paths of conjugacy_class and _involutions ------------------------

LEFT_TORI = [
    TorusFamily(family, b, c)
    for family in ("44", "36", "63") for b in range(1, 5) for c in range(1, 5)
]


def _check_left_paths(rep, seed):
    """The verified group, which looks conjugates and inverses up in its
    left multiplications (``_left``), and the same table built directly,
    which walks words, give the oracles' classes, involutions, normal
    closures and derived subgroup."""
    plain = GroupRep(rep.presentation, rep.table)
    assert rep._left is not None and plain._left is None
    rng = random.Random(seed)
    ngens = rep.presentation.ngens
    gens = [Word.gen(i) for i in range(ngens)]
    d = list(rep.presentation.distinguished)
    half_turn = d[0] * d[1]
    words = gens + d + [half_turn, _random_word(rng, ngens, 12)]
    for x in sorted({rep.element_of(w) for w in words} | {rng.randrange(rep.order)}):
        want = naive_conjugacy_class(rep, x)
        assert rep.conjugacy_class(x) == want
        assert plain.conjugacy_class(x) == want
    involutions = naive_involutions(rep)
    assert rep.involutions() == involutions
    assert plain.involutions() == involutions
    half = rep.order // 2
    generated = len(naive_normal_subgroup(rep, involutions, half)) > half
    assert rep.generated_by_involutions() is generated
    assert plain.generated_by_involutions() is generated
    want = naive_normal_subgroup(rep, [rep.element_of(half_turn)])
    assert rep.normal_closure(half_turn).elements == want
    assert plain.normal_closure(half_turn).elements == want
    commutators = [
        rep.element_of(~a * ~b * a * b) for i, a in enumerate(gens) for b in gens[i + 1:]
    ]
    want = naive_normal_subgroup(rep, commutators)
    assert rep.derived_subgroup().elements == want
    assert plain.derived_subgroup().elements == want


class TestLeftMultiplications:
    """Only ``_verify`` builds ``_left``, and a quotient by a word that is
    already trivial is handed the ``_left`` of the group whose table it
    shares, when that group has one; the queries that read it agree with
    the word walks and the oracles."""

    @pytest.mark.parametrize("name", sorted(CATALOG_SIZES))
    def test_catalog_group(self, catalog_groups, name):
        _check_left_paths(catalog_groups.group(name).rep, name)

    @pytest.mark.parametrize("t", LEFT_TORI, ids=lambda t: t.name)
    def test_torus(self, t):
        _check_left_paths(enumerate_group(torus_presentation(t)), t.name)

    @pytest.mark.parametrize("name", ["ex1", "ex3"])
    def test_petrie_quotients(self, catalog_groups, name):
        m = catalog_groups.group(name)
        s1, _, s3 = m.sigma
        for k in range(2, 13):
            _check_left_paths(m.rep.quotient((s1 * s3) ** k), f"{name}/{k}")

    def test_kept_by_verify_only(self, catalog_groups, ex1_pipe):
        # left multiplication by each generator, on every verified table
        rep = catalog_groups.group("ex3").rep
        for i, left in enumerate(rep._left):
            g = rep.element_of(Word.gen(i))
            assert left == [rep.product(g, t) for t in range(rep.order)]
        m = catalog_groups.group("ex1")
        s1, _, s3 = m.sigma
        for k in (4, 20):
            # the block table, and the base's own table for a trivial word
            assert m.rep.quotient((s1 * s3) ** k)._left is not None
        # the base's own table is handed the base's _left, not a copy
        assert m.rep.quotient((s1 * s3) ** 20)._left is m.rep._left
        assert ex1_pipe.ext.rep._left is None
        assert GroupRep(rep.presentation, rep.table)._left is None

    def test_not_kept_on_a_rejected_table(self):
        # the cyclic table of order 4 is regular, but does not satisfy a^2
        table = CosetTable(((1, 2, 3, 0), (3, 0, 1, 2)), 1)
        rep = GroupRep(parse_presentation("gens a\nrel a^2\n"), table)
        with pytest.raises(InconsistencyError, match=r"relator a\^2 does not fix coset 0"):
            rep._verify()
        assert rep._left is None


def _central_elements(rep):
    """{x : naive_conjugacy_class(rep, x) == [x]}, with the oracle run
    once for each class: the classes partition the group."""
    seen = bytearray(rep.order)
    out = set()
    for x in range(rep.order):
        if not seen[x]:
            members = naive_conjugacy_class(rep, x)
            for y in members:
                seen[y] = 1
            if members == [x]:
                out.add(x)
    return out


class TestCenterWithoutLeft:
    """A table without ``_left``, an extension or a table built directly,
    builds its left multiplications for ``center`` and keeps none of them;
    the center is the oracle's set of elements whose class is a single
    element."""

    def test_extensions(self, ex1_pipe, ex3_chain, simplex_pipe):
        got = {}
        for name, ext in (
            ("ex1", ex1_pipe.ext),
            ("ex3", ex3_chain["base"].ext),
            ("simplex333", simplex_pipe["ext"]),
        ):
            rep = ext.rep
            assert rep._left is None
            center = rep.center()
            assert center.elements == _central_elements(rep), name
            assert rep._left is None
            # pinned in row-scan standard form, not extend's layout
            standard = GroupRep(rep.presentation, _standard(rep))
            got[name] = (rep.order, sorted(
                standard.element_of(rep.element_word(x)) for x in center))
        assert got == {
            "ex1": (4000, [0]), "ex3": (1344, [0, 1287]), "simplex333": (240, [0, 239]),
        }

    def test_relabelled_table(self, catalog_groups):
        # not in row-scan standard form, so L is built in the tree's
        # breadth-first order, not in index order
        base = catalog_groups.group("ex3").rep
        rep = GroupRep(base.presentation, CosetTable(
            _relabelled(base.table.cols, random.Random(3)), base.table.ngens))
        assert not isinstance(rep._tree_order(), range)
        center = rep.center()
        assert center.elements == _central_elements(rep)
        assert center.size == base.center().size == 2
        assert rep._left is None


class TestNormalClosureGenerator:
    """``normal_closure`` takes the closure of the smallest-index
    generator of <x>, x the word's element; the subgroup is the normal
    closure of x itself."""

    @pytest.mark.parametrize("name", ["ex1", "ex3"])
    def test_petrie_words_match_oracle(self, catalog_groups, name):
        m = catalog_groups.group(name)
        s1, _, s3 = m.sigma
        for k in range(2, 31):
            w = (s1 * s3) ** k
            want = naive_normal_subgroup(m.rep, [m.rep.element_of(w)])
            assert m.rep.normal_closure(w).elements == want, (name, k)

    def test_coprime_powers_give_one_closure(self, catalog_groups):
        m = catalog_groups.group("ex2")
        s1, _, s3 = m.sigma
        d = m.rep.element_order(s1 * s3)
        closures = set()
        for j in range(1, d):
            if math.gcd(j, d) == 1:
                w = (s1 * s3) ** j
                closure = m.rep.normal_closure(w).elements
                assert m.rep.element_of(w) in closure, j
                closures.add(closure)
        assert d == 28 and len(closures) == 1

    def test_identity(self, catalog_groups):
        rep = catalog_groups.group("ex3").rep
        assert rep.normal_closure(Word.identity()).elements == {0}


class TestInvolutionOrbit:
    """The normal closure of an involution on a verified table is one
    orbit of the identity (``_orbit``); the same table built directly
    closes over the involution's class.  Both give the subgroup of
    ``naive_normal_closure``, which takes every conjugate and then a
    quadratic closure, for sigma1 sigma2 and three seeded random
    involutions.  ``generated_by_involutions`` on the same groups, with
    both verdicts, is ``TestGenerationCertificate``'s."""

    def test_normal_closures_match_naive(self, catalog_groups):
        for rep in _small_groups(catalog_groups):
            plain = GroupRep(rep.presentation, rep.table)
            assert rep._left is not None and plain._left is None
            d = rep.presentation.distinguished
            # the half-turn, or the first reflection of simplex333
            half_turn = d[0] * d[1] if rep.element_order(d[0] * d[1]) == 2 else d[0]
            picked = random.Random(rep.order).choices(naive_involutions(rep), k=3)
            # each element once: a pick may be the half-turn's
            for x in dict.fromkeys([rep.element_of(half_turn)] + picked):
                w = rep.element_word(x)
                assert rep.element_order(w) == 2
                want = naive_normal_closure(rep, w)
                assert rep.normal_closure(w).elements == want
                assert plain.normal_closure(w).elements == want
