import time
from dataclasses import replace

import pytest

from rotamap import (
    CapExceededError,
    Chirality,
    ConstructionError,
    LocallyToroidalSpec,
    NotSelfDualError,
    Presentation,
    RegularCGroup4,
    RegularMap3,
    RotationGroup3,
    RotationGroup4,
    TorusFamily,
    Word,
    catalog,
    classify3,
    enumerate_group,
    f_vector3,
    hole_length,
    is_reflexible3,
    lattice_torus_oracle,
    locally_toroidal,
    map_invariants_regular,
    pc_map_improper,
    pc_map_proper,
    pc_map_regular,
    petrie_coxeter,
    petrie_quotient,
    petrie4,
    rotation_subgroup,
    schlafli,
    simplex_presentation,
    torus_map,
    verify_catalog_entry,
    zigzag_length,
)
from rotamap import rotary
from rotamap.selfdual import (
    DualityKind,
    detect_self_duality,
    extend_improper,
    extend_polarity,
    extend_proper,
)

s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


class TestTorus:
    @pytest.mark.parametrize("family,mult", [("44", 4), ("36", 6), ("63", 6)])
    def test_oracle_formula(self, family, mult):
        for b in range(0, 4):
            for c in range(0, 4):
                if (b, c) == (0, 0):
                    continue
                t = TorusFamily(family, b, c)
                quad = b * b + c * c if family == "44" else b * b + b * c + c * c
                assert lattice_torus_oracle(t)[0] == mult * quad

    @pytest.mark.parametrize(
        "family,b,c",
        [("44", 1, 0), ("44", 1, 1), ("44", 1, 2), ("44", 2, 1),
         ("36", 1, 2), ("36", 2, 2), ("63", 2, 1), ("63", 1, 1)],
    )
    def test_enumeration_matches_oracle(self, family, b, c):
        t = TorusFamily(family, b, c)
        m = torus_map(t)
        order, v, e, f = lattice_torus_oracle(t)
        assert m.order == order
        assert f_vector3(m, diagnostic=True) == (v, e, f)

    def test_44_11_regular(self):
        t = TorusFamily("44", 1, 1)
        assert lattice_torus_oracle(t)[0] == 8
        assert is_reflexible3(torus_map(t)) is True

    def test_invalid_vector(self):
        with pytest.raises(ValueError):
            TorusFamily("44", 0, 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            TorusFamily("45", 1, 0)

    def test_family_aliases(self):
        assert TorusFamily("4,4", 1, 2).family == "44"
        assert TorusFamily("{6,3}", 1, 2).family == "63"


class TestLocallyToroidal:
    def test_mismatched_families_rejected(self):
        with pytest.raises(ValueError):
            LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("36", 1, 2))

    def test_example3_order(self, ex3_chain):
        assert ex3_chain["base"].base.order == 672

    def test_example1_order_and_type(self, ex1_pipe):
        assert ex1_pipe.base.order == 2000
        assert schlafli(ex1_pipe.base) == (4, 4, 4)


class TestPetrieQuotient:
    def test_full_period_is_identity_quotient(self, ex3_chain):
        m = ex3_chain["base"].base
        period = m.rep.element_order(s1 * s3)
        assert petrie_quotient(m, period).order == m.order

    def test_invalid_k(self, ex3_chain):
        with pytest.raises(ValueError):
            petrie_quotient(ex3_chain["base"].base, 0)

    def test_conjugated_sigma_at_the_cap_fails_fast(self, ex3_chain):
        # sigma conjugated by a 1,000-letter word: s1 s3 has 2,002
        # letters but a 2-letter cyclic core, so k = 500,000 passes the
        # bound on (s1 s3)^k at the cap, and the power must not build
        # its 10^9 unreduced letters before the quotient rejects it
        m = ex3_chain["base"].base
        g = Word([2, 4] * 500)
        sigma = tuple(~g * s * g for s in m.sigma)
        conjugated = RotationGroup4(m.rep, sigma)
        assert len(sigma[0] * sigma[2]) == 2002
        assert 500_000 * 2 == m.rep.cap
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="more than the cap"):
            petrie_quotient(conjugated, 500_000)
        assert time.perf_counter() - t0 < 5.0



class TestCapInheritance:
    """Extensions, quotients and rotation subgroups enumerate under the
    cap of the group they start from."""

    @staticmethod
    def ex3(cap):
        pres = catalog()["ex3"].presentation
        return RotationGroup4(enumerate_group(pres, cap=cap), pres.distinguished)

    def test_extension_hits_the_base_cap(self):
        # the ex3 base defines 716 coset rows, and its extension has
        # 1,344 elements, more than the cap
        m = self.ex3(1000)
        assert m.rep.cap == 1000
        with pytest.raises(CapExceededError):
            extend_proper(m)

    def test_petrie_relator_over_the_cap_is_not_built(self, monkeypatch):
        # under a cap of 1,400, (s1 s3)^700 holds 1,400 letters and passes
        # to the quotient, which refuses it with ex3's other relators;
        # (s1 s3)^701 holds 1,402 and is refused before the power is taken
        m = self.ex3(1400)
        with pytest.raises(ValueError, match="^relators hold .* in all, more than the cap 1400$"):
            petrie_quotient(m, 700)
        monkeypatch.setattr(Word, "__pow__", None)
        with pytest.raises(ValueError, match=r"^relator \(s1 s3\)\^701 holds 1402 letters, "
                                             r"more than the cap 1400$"):
            petrie_quotient(m, 701)

    def test_derived_groups_keep_the_cap(self):
        m = self.ex3(1400)
        assert extend_proper(m).rep.cap == 1400
        assert petrie_quotient(m, 8).rep.cap == 1400
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres, cap=500), pres.distinguished)
        assert rotation_subgroup(c).rep.cap == 500
        assert extend_polarity(c).rep.cap == 500


class TestImproperMap:
    def test_example1_map(self, ex1_pipe):
        m = ex1_pipe.map3
        assert m.order == 4000
        assert schlafli(m) == (4, 8)
        assert hole_length(m, 2) == 4
        assert classify3(m) is Chirality.CHIRAL

    def test_example1_map_counts(self, ex1_pipe):
        # oracle: vertex/face stabiliser sizes 8 and 4 in the 4000 group
        m = ex1_pipe.map3
        rep = m.rep
        assert rep.subgroup_closure([m.sigma[1]]).size == 8
        assert rep.subgroup_closure([m.sigma[0]]).size == 4
        assert f_vector3(m) == (500, 2000, 1000)

    def test_wrong_kind_rejected(self, ex3_chain):
        with pytest.raises(ConstructionError):
            pc_map_improper(ex3_chain["base"].ext)

    def test_regular_base_gives_regular_map(self):
        # mixing on the rotation group of the self-dual regular simplex
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        m = rotation_subgroup(c)
        assert detect_self_duality(m).kind is DualityKind.IMPROPER
        ext = extend_improper(m)
        assert ext.order == 120
        skew = pc_map_improper(ext)
        assert schlafli(skew) == (4, 6)
        assert hole_length(skew, 2) == 3
        assert classify3(skew) is Chirality.REGULAR


class TestProperMap:
    def test_example3_map(self, ex3_chain):
        m = ex3_chain["base"].map3
        assert m.order == 1344
        inv = map_invariants_regular(m)
        assert inv.schlafli == (3, 16)
        assert inv.f_vector == (42, 336, 224)
        assert inv.zigzags[1] == 28
        assert inv.zigzags[2] == 6
        assert inv.genus == 36

    def test_central_quotient_map(self, ex3_chain):
        m = ex3_chain["quotient"].map3
        assert m.order == 672
        inv = map_invariants_regular(m)
        assert inv.schlafli == (3, 8)
        assert inv.f_vector == (42, 168, 112)
        assert inv.zigzags[1] == 14

    def test_vertex_rotation_has_even_order(self, ex3_chain):
        for pipe in ex3_chain.values():
            m = pipe.map3
            t1, t2 = m.rho[1], m.rho[2]
            assert m.rep.element_order((t1 * t2).reduce()) % 2 == 0

    def test_wrong_kind_rejected(self, ex1_pipe):
        with pytest.raises(ConstructionError):
            pc_map_proper(ex1_pipe.ext)


class TestRegularPath:
    def test_simplex_skew_map(self, simplex_pipe):
        m = simplex_pipe["map3"]
        assert m.order == 240
        inv = map_invariants_regular(m)
        assert inv.schlafli == (4, 6)
        assert inv.holes[2] == 3
        assert inv.f_vector == (20, 60, 30)
        assert inv.genus == 6

    def test_no_polarity_rejected(self):
        r = [Word.gen(i) for i in range(4)]
        rels = [w ** 2 for w in r]
        rels += [(r[0] * r[1]) ** 4, (r[1] * r[2]) ** 3, (r[2] * r[3]) ** 3]
        rels += [(r[0] * r[2]) ** 2, (r[0] * r[3]) ** 2, (r[1] * r[3]) ** 2]
        pres = Presentation.build(["r0", "r1", "r2", "r3"], rels, r, "rho")
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        with pytest.raises(ConstructionError):
            petrie_coxeter(c)

    def test_wrong_kind_rejected(self, ex3_chain):
        with pytest.raises(ConstructionError):
            pc_map_regular(ex3_chain["base"].ext)


class TestPetrieCoxeter:
    """The dispatcher picks the extension from the input's duality and
    returns the same extended group and map as the explicit pipeline."""

    def test_improper_gives_rotation_map(self, ex1_pipe):
        ext, m = petrie_coxeter(ex1_pipe.base)
        assert ext.kind is DualityKind.IMPROPER
        assert ext.rep.table == ex1_pipe.ext.rep.table
        assert isinstance(m, RotationGroup3)
        assert m.sigma == ex1_pipe.map3.sigma

    def test_proper_gives_regular_map(self, ex3_chain):
        pipe = ex3_chain["quotient"]
        ext, m = petrie_coxeter(pipe.base)
        assert ext.kind is DualityKind.PROPER
        assert ext.rep.table == pipe.ext.rep.table
        assert isinstance(m, RegularMap3)
        assert m.rho == pipe.map3.rho

    def test_polarity_gives_regular_map(self, simplex_pipe):
        ext, m = petrie_coxeter(simplex_pipe["cgroup"])
        assert ext.kind is DualityKind.REGULAR_POLARITY
        assert ext.rep.table == simplex_pipe["ext"].rep.table
        assert m.rho == simplex_pipe["map3"].rho

    def test_not_self_dual(self):
        pres = Presentation.build(
            ["s1", "s2", "s3"],
            [s1 ** 4, s2 ** 3, s3 ** 3, (s1 * s2) ** 2, (s2 * s3) ** 2,
             (s1 * s2 * s3) ** 2],
            [s1, s2, s3], "sigma",
        )
        cube = RotationGroup4(enumerate_group(pres), pres.distinguished)
        with pytest.raises(NotSelfDualError, match="not self-dual"):
            petrie_coxeter(cube)

    def test_rank_three_rejected(self):
        with pytest.raises(TypeError, match="rank-4"):
            petrie_coxeter(torus_map(TorusFamily("44", 1, 3)))


class TestExample3GroupFacts:
    def test_vertex_rotation_subgroup_size(self, ex3_chain):
        # type {3,6,3}: the middle rotation generates a cyclic group of 6
        rep = ex3_chain["base"].base.rep
        assert rep.subgroup_closure([s2]).size == 6

    def test_center_has_order_two(self, ex3_chain):
        assert ex3_chain["base"].base.rep.center().size == 2

    def test_petrie_lengths(self, ex3_chain):
        assert petrie4(ex3_chain["base"].base) == (8, 14)

    def test_right_petrie_word_identity(self, ex3_chain):
        # the product of the four involutory generators with one repeat
        # is the inverse right Petrie element
        m = ex3_chain["base"].base
        w = (s1 * s2) * (s1 * s2 * s3) * (s2 * s3) * (s1 * s2 * s3)
        assert m.rep.element_order(w.reduce()) == petrie4(m)[1]


class TestCatalog:
    def test_required_entries_present(self):
        names = set(catalog())
        assert {"ex1", "ex2", "ex2q14", "ex2q7", "ex3",
                "ex3-central-quotient", "simplex333"} <= names
        assert any(n.startswith("torus-") for n in names)

    def test_expected_orders(self):
        cat = catalog()
        assert cat["ex1"].expected["order"] == 2000
        assert cat["ex2"].expected["order"] == 20160
        assert cat["ex3"].expected["map"]["schlafli"] == (3, 16)
        assert cat["ex3"].expected["map"]["zigzags"][1] == 28
        assert cat["simplex333"].expected["map"]["holes"][2] == 3

    def test_torus_orders_match_the_lattice_oracle(self):
        tori = {n: e for n, e in catalog().items() if n.startswith("torus-")}
        assert len(tori) == 6
        for name, entry in tori.items():
            _, family, b, c = name.split("-")
            want = lattice_torus_oracle(TorusFamily(family, int(b), int(c)))[0]
            assert entry.expected["order"] == want, name

    def test_ex3_central_quotient_word_is_the_central_involution(self):
        cat = catalog()
        ex3 = cat["ex3"].presentation
        z = s1 * ~s2 * s1 * s3 * ~s2 * s3 * s1 * s3
        assert cat["ex3-central-quotient"].presentation == ex3.with_relators(z)
        rep = enumerate_group(ex3)
        center = set(rep.center().elements)
        assert len(center) == 2 and 0 in center
        assert center - {0} == {rep.element_of(z)}

    @pytest.mark.parametrize("name", ["ex1", "ex2q7"])
    def test_verdicts_are_decided_once(self, monkeypatch, name):
        # the rank-4 group and its skew map each run the intersection
        # condition once, as their wrappers are built, and the reports and
        # construction checks read the verdicts they keep
        calls = []
        condition = rotary._intersection_condition

        def counted(rep, gens):
            calls.append(gens)
            return condition(rep, gens)

        monkeypatch.setattr(rotary, "_intersection_condition", counted)
        assert verify_catalog_entry(catalog()[name]) == []
        assert len(calls) == 2

    def test_mismatches_are_reported(self):
        # a dict expected where the report has a tuple, and a key the
        # report lacks
        entry = replace(catalog()["torus-44-2-0"], expected={"schlafli": {"p": 4}, "nope": 1})
        assert verify_catalog_entry(entry) == [
            ("schlafli", {"p": 4}, (4, 4)), ("nope", 1, "<missing>"),
        ]

    def test_presentations_parse_roundtrip(self):
        from rotamap import parse_presentation, serialize_presentation

        for entry in catalog().values():
            text = serialize_presentation(entry.presentation)
            assert parse_presentation(text) == entry.presentation
