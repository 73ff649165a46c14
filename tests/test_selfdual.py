import random

import pytest

from rotamap import (
    CatalogEntry,
    Chirality,
    CollapseError,
    ConstructionError,
    DualityKind,
    LocallyToroidalSpec,
    Presentation,
    RegularCGroup4,
    RotationGroup4,
    TorusFamily,
    Word,
    classify4,
    compute_entry_report,
    detect_self_duality,
    enumerate_group,
    extend_improper,
    extend_polarity,
    extend_proper,
    find_polarity,
    locally_toroidal,
    rotation_subgroup,
    simplex_presentation,
    substitute,
)
from oracle import naive_is_automorphism

s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


def cell24_group():
    """String C-group of the self-dual 24-cell {3,4,3}, order 1152."""
    r = [Word.gen(i) for i in range(4)]
    rels = [w ** 2 for w in r]
    rels += [(r[0] * r[1]) ** 3, (r[1] * r[2]) ** 4, (r[2] * r[3]) ** 3]
    rels += [(r[0] * r[2]) ** 2, (r[0] * r[3]) ** 2, (r[1] * r[3]) ** 2]
    pres = Presentation.build(["r0", "r1", "r2", "r3"], rels, r, "rho")
    return RegularCGroup4(enumerate_group(pres), pres.distinguished)


def cube_group4():
    """Rotation presentation of the 4-cube {4,3,3}: not self-dual."""
    rels = [
        s1 ** 4, s2 ** 3, s3 ** 3,
        (s1 * s2) ** 2, (s2 * s3) ** 2, (s1 * s2 * s3) ** 2,
    ]
    pres = Presentation.build(["s1", "s2", "s3"], rels, [s1, s2, s3], "sigma")
    return RotationGroup4(enumerate_group(pres), pres.distinguished)


class TestDetection:
    def test_example1_improper(self, ex1_pipe):
        assert detect_self_duality(ex1_pipe.base).kind is DualityKind.IMPROPER

    def test_example3_proper(self, ex3_chain):
        assert detect_self_duality(ex3_chain["base"].base).kind is DualityKind.PROPER

    def test_non_palindromic_type_is_not_self_dual(self):
        m = cube_group4()
        assert m.order == 192
        assert detect_self_duality(m).kind is DualityKind.NONE

    def test_entry_report_of_a_group_that_is_not_self_dual(self):
        entry = CatalogEntry("cube", cube_group4().rep.presentation, {})
        out = compute_entry_report(entry)
        assert (out["order"], out["self_duality"]) == (192, "none")
        assert "map" not in out and "extended_order" not in out

    def test_proper_images_fail_on_example1(self, ex1_pipe):
        # independent oracle: element-by-element homomorphism verification
        m = ex1_pipe.base
        images = [(~s3).reduce(), (~s2).reduce(), (~s1).reduce()]
        assert m.rep.extends_to_automorphism(images) is False
        assert naive_is_automorphism(m.rep, images) is False

    def test_improper_images_extend_on_example1(self, ex1_pipe):
        m = ex1_pipe.base
        images = [(~s3).reduce(), (s1 * s2 * ~s1).reduce(), s1]
        assert m.rep.extends_to_automorphism(images) is True

    def test_regular_self_dual_reports_improper_form(self):
        # the regular simplex rotation group admits both duality forms;
        # the period-4 form is reported so the mixing path applies
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        m = rotation_subgroup(c)
        assert detect_self_duality(m).kind is DualityKind.IMPROPER


class TestExtendImproper:
    def test_example1_doubles(self, ex1_pipe):
        assert ex1_pipe.base.order == 2000
        assert ex1_pipe.ext.order == 4000

    def test_wrong_kind_is_rejected(self, ex3_chain):
        with pytest.raises(ConstructionError):
            extend_improper(ex3_chain["base"].base)

    def test_embedded_subgroup_has_index_two(self, ex1_pipe):
        ext = ex1_pipe.ext
        w1, w2, w3 = ext.base.sigma
        assert ext.rep.subgroup_closure([w1, w2, w3]).size * 2 == ext.order

    def test_duality_squares_to_basic_involution(self, ex1_pipe):
        ext = ex1_pipe.ext
        d = ext.duality
        w1, w2, w3 = ext.base.sigma
        rep = ext.rep
        assert rep.element_order(d) == 4
        assert rep.element_of(d * d) == rep.element_of(w1 * w2 * w3)

    @pytest.mark.parametrize("source", ["ex1", "simplex-rotations"])
    def test_conjugation_cycle(self, source, request):
        # the identities extend_improper and pc_map_improper derive from
        # the adjoined relators instead of checking them
        if source == "ex1":
            ext = request.getfixturevalue("ex1_pipe").ext
        else:
            cgroup = request.getfixturevalue("simplex_pipe")["cgroup"]
            ext = extend_improper(rotation_subgroup(cgroup))
        rep = ext.rep
        d = ext.duality
        w1, w2, w3 = ext.base.sigma
        cycle = [
            (w1 * w2).reduce(),
            (w1 * w2 * w3 * ~w1).reduce(),
            (~w3 * w1 * w2 * w3).reduce(),
            (w2 * w3).reduce(),
        ]
        for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            got = rep.element_of((~d * cur * d).reduce())
            assert got == rep.element_of(nxt)
        eo = rep.element_of
        assert eo(~d * w1 * w2 * w3 * d) == eo(w1 * w2 * w3)
        k1, k2 = d, (w1 * w2 * ~d).reduce()
        assert eo(k2 * k2) == eo(~w2)
        assert eo(d * d * w2 * w3) == eo(w1)
        assert eo(~k1 * k2) == eo(w1)
        assert eo(~k2 * ~k2) == eo(w2)
        assert eo(k2 * ~k1) == eo(w3)

    def test_self_dual_regular_base_doubles(self):
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        m = rotation_subgroup(c)
        ext = extend_improper(m)
        assert ext.order == 120
        assert classify4(ext.base) is Chirality.REGULAR


class TestExtendProper:
    def test_example3_doubles(self, ex3_chain):
        pipe = ex3_chain["base"]
        assert pipe.base.order == 672
        assert pipe.ext.order == 1344

    def test_quotient_doubles(self, ex3_chain):
        pipe = ex3_chain["quotient"]
        assert pipe.base.order == 336
        assert pipe.ext.order == 672

    def test_wrong_kind_is_rejected(self, ex1_pipe):
        with pytest.raises(ConstructionError):
            extend_proper(ex1_pipe.base)

    @pytest.mark.parametrize("source", ["base", "quotient"])
    def test_polarity_is_involution_and_swaps(self, ex3_chain, source):
        ext = ex3_chain[source].ext
        rep = ext.rep
        d = ext.duality
        w1, w2, w3 = ext.base.sigma
        assert rep.element_order(d) == 2
        got = rep.element_of((d * w1 * w2 * d).reduce())
        assert got == rep.element_of((w2 * w3).reduce())
        fixed = rep.element_of((d * w1 * w2 * w3 * d).reduce())
        assert fixed == rep.element_of((w1 * w2 * w3).reduce())
        # t0 = s1 s2 s3 and t2 = w commute (pc_map_proper)
        t0 = w1 * w2 * w3
        assert rep.element_of(t0 * d) == rep.element_of(d * t0)


class TestPolarity:
    def test_simplex_polarity(self, simplex_pipe):
        assert find_polarity(simplex_pipe["cgroup"]).kind is (
            DualityKind.REGULAR_POLARITY
        )

    def test_simplex_extension_order(self, simplex_pipe):
        assert simplex_pipe["ext"].order == 240

    def test_non_self_dual_c_group(self):
        r = [Word.gen(i) for i in range(4)]
        rels = [w ** 2 for w in r]
        rels += [(r[0] * r[1]) ** 4, (r[1] * r[2]) ** 3, (r[2] * r[3]) ** 3]
        rels += [(r[0] * r[2]) ** 2, (r[0] * r[3]) ** 2, (r[1] * r[3]) ** 2]
        pres = Presentation.build(["r0", "r1", "r2", "r3"], rels, r, "rho")
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        assert c.order == 384
        assert find_polarity(c).kind is DualityKind.NONE
        with pytest.raises(ConstructionError):
            extend_polarity(c)

    @pytest.mark.parametrize("source", ["simplex333", "24-cell"])
    def test_period_four_duality_action(self, simplex_pipe, source):
        # delta = w r0 conjugates r0 to r3 and r1 to r2, and r3 delta = w
        # (pc_map_regular)
        if source == "simplex333":
            ext = simplex_pipe["ext"]
        else:
            ext = extend_polarity(cell24_group())
        rep = ext.rep
        r0, r1, r2, r3 = ext.base.rho
        delta = (ext.duality * r0).reduce()
        assert rep.element_order(delta) == 4
        got = rep.element_of((~delta * r1 * delta).reduce())
        assert got == rep.element_of(r2)
        assert rep.element_of(~delta * r0 * delta) == rep.element_of(r3)
        assert rep.element_of(r3 * delta) == rep.element_of(ext.duality)


class TestWitnessComposition:
    def test_improper_witness_squares_to_inner(self, ex1_pipe):
        # substituting the witness into itself realises conjugation by
        # the basic involution, which certainly extends
        m = ex1_pipe.base
        witness = detect_self_duality(m).witness
        squared = [substitute(w, witness) for w in witness]
        assert m.rep.extends_to_automorphism(squared) is True


# -- detection against extension ---------------------------------------------


def _form_images(m):
    s1, s2, s3 = m.sigma
    return {
        DualityKind.PROPER: [(~s3).reduce(), (~s2).reduce(), (~s1).reduce()],
        DualityKind.IMPROPER: [(~s3).reduce(), (s1 * s2 * ~s1).reduce(), s1],
    }


def _conjugate_triple(m, rng, length):
    cols = [rng.randrange(6)]
    while len(cols) < length:
        cols.append(rng.choice([c for c in range(6) if c != cols[-1] ^ 1]))
    g = Word(cols)
    return RotationGroup4(m.rep, tuple((~g * w * g).reduce() for w in m.sigma))


@pytest.fixture(scope="module")
def duality_cases(catalog_groups):
    """Rotation groups of every duality kind, each with its sigma triple
    conjugated by a seeded word of one and of two letters."""
    groups = {
        name: catalog_groups.group(name)
        for name in ("ex1", "ex3", "ex3-central-quotient", "ex2q7")
    }
    groups["simplex-rotations"] = rotation_subgroup(catalog_groups.group("simplex333"))
    groups["44-13/44-31"] = locally_toroidal(
        LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 3, 1))
    )
    groups["cube"] = cube_group4()
    rng = random.Random(2005)
    cases = []
    for name, m in groups.items():
        cases.append((name, m))
        cases += [(f"{name}^g{n}", _conjugate_triple(m, rng, n)) for n in (1, 2)]
    return cases


# which forms certify on the unconjugated triples
EXPECTED_FORMS = {
    "ex1": {DualityKind.IMPROPER},
    "ex3": {DualityKind.PROPER},
    "ex3-central-quotient": {DualityKind.PROPER},
    "ex2q7": {DualityKind.IMPROPER},
    "simplex-rotations": {DualityKind.PROPER, DualityKind.IMPROPER},
    "44-13/44-31": {DualityKind.PROPER},
    "cube": set(),
}


class TestDetectionAgainstExtension:
    def test_extension_succeeds_exactly_when_the_form_certifies(self, duality_cases):
        extend = {DualityKind.PROPER: extend_proper, DualityKind.IMPROPER: extend_improper}
        for name, m in duality_cases:
            certified = {
                kind for kind, images in _form_images(m).items()
                if m.rep.generator_map_automorphism(m.sigma, images) is not None
            }
            assert certified == EXPECTED_FORMS[name.split("^")[0]], name
            for kind, fn in extend.items():
                if kind in certified:
                    ext = fn(m)
                    assert (ext.kind, ext.order, ext.base) == (kind, 2 * m.order, m)
                else:
                    with pytest.raises(CollapseError):
                        fn(m)
            reported = detect_self_duality(m).kind
            if DualityKind.IMPROPER in certified:
                assert reported is DualityKind.IMPROPER, name
            elif certified:
                assert reported is DualityKind.PROPER, name
            else:
                assert reported is DualityKind.NONE, name

    def test_square_conditions_hold_whenever_a_form_certifies(self, duality_cases):
        # the conditions detection no longer tests: alpha^2 = 1 for the
        # proper form, alpha^2 = conjugation by z = s1 s2 s3 and
        # alpha(z) = z for the improper form, on every element
        checked = 0
        for name, m in duality_cases:
            rep = m.rep
            z = rep.element_of(m.sigma[0] * m.sigma[1] * m.sigma[2])
            for kind, images in _form_images(m).items():
                alpha = rep.generator_map_automorphism(m.sigma, images)
                if alpha is None:
                    continue
                checked += 1
                for x in range(rep.order):
                    if kind is DualityKind.PROPER:
                        assert alpha[alpha[x]] == x, name
                    else:
                        assert alpha[alpha[x]] == rep.product(rep.product(z, x), z), name
                if kind is DualityKind.IMPROPER:
                    assert alpha[z] == z, name
        assert checked == 3 * sum(len(k) for k in EXPECTED_FORMS.values())

    def test_proper_extension_of_regular_simplex_rotations(self):
        # both forms certify on this regular group; detection reports the
        # improper one, and the proper extension is still available
        pres = simplex_presentation()
        m = rotation_subgroup(RegularCGroup4(enumerate_group(pres), pres.distinguished))
        ext = extend_proper(m)
        assert ext.order == 120 and ext.kind is DualityKind.PROPER
        assert ext.base is m
