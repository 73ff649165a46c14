"""Differential tests of the GroupRep query layer: the one closure loop
against a word-walking breadth-first closure, the automorphism test
against an element-by-element check and, on arbitrary generating sets,
against a literal-word map, and subgroup sizes on the catalog's base
groups."""

import random

import pytest

from rotamap import Word, enumerate_group, parse_presentation
from rotamap.selfdual import DualityKind, _form_images
from oracle import naive_generator_map, naive_is_automorphism, word_bfs_closure

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
        t1, t2, t3 = t = [_conjugated(c, s) for s in sigma]
        out.append((t, [t1, t2 * t3 * t3, ~t3]))
        for kind in (DualityKind.IMPROPER, DualityKind.PROPER):
            out.append((t, list(_form_images(kind, t))))
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


@pytest.mark.parametrize("name", sorted(CATALOG_SIZES))
def test_catalog_subgroup_sizes(catalog_groups, name):
    rep = catalog_groups.group(name).rep
    d = rep.presentation.distinguished
    got = (
        rep.center().size,
        rep.derived_subgroup().size,
        tuple(rep.normal_closure(w).size for w in list(d) + [d[0] * d[-1]]),
    )
    assert got == CATALOG_SIZES[name]
