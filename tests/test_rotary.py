import random

import pytest

import rotamap.rotary
from rotamap import (
    CatalogEntry,
    Chirality,
    ConstructionError,
    NotPolytopalError,
    Presentation,
    RegularCGroup4,
    RegularMap3,
    RotamapError,
    RotationGroup3,
    RotationGroup4,
    TorusFamily,
    Word,
    check_polytopal3,
    check_polytopal4,
    classify3,
    classify4,
    compute_entry_report,
    enumerate_group,
    euler_genus,
    f_vector3,
    group_class,
    hole_length,
    involution_report,
    is_reflexible3,
    load_group,
    map_invariants_regular,
    parse_presentation,
    petrie4,
    rotation_subgroup,
    schlafli,
    simplex_presentation,
    torus_map,
    zigzag_length,
)
from rotamap.cli import analyze_presentation
from oracle import naive_c_group_condition, naive_normal_closure

s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


@pytest.fixture(scope="module")
def t44_13():
    return torus_map(TorusFamily("44", 1, 3))


@pytest.fixture(scope="module")
def t44_10():
    return torus_map(TorusFamily("44", 1, 0))


@pytest.fixture(scope="module")
def t36_12():
    return torus_map(TorusFamily("36", 1, 2))


class TestPolytopality3:
    def test_degenerate_torus_map(self, t44_10):
        assert check_polytopal3(t44_10) is False

    def test_chiral_torus_map(self, t44_13):
        # oracle: brute-force intersection of the two cyclic subgroups
        rep = t44_13.rep
        c1 = rep.subgroup_closure([s1]).elements
        c2 = rep.subgroup_closure([s2]).elements
        assert c1 & c2 == {0}
        assert check_polytopal3(t44_13) is True


class TestClassify3:
    def test_chiral(self, t44_13):
        assert classify3(t44_13) is Chirality.CHIRAL

    def test_regular_torus_map(self):
        m = torus_map(TorusFamily("44", 2, 0))
        assert classify3(m) is Chirality.REGULAR

    def test_not_polytopal(self, t44_10):
        assert classify3(t44_10) is Chirality.NOT_POLYTOPAL

    def test_reflexible_but_not_polytopal(self, t44_10):
        assert is_reflexible3(t44_10) is True

    def test_verdict_invariant_under_conjugate_generators(self, t44_13):
        rep = t44_13.rep
        g = s1 * s2
        conj = tuple((~g * w * g).reduce() for w in t44_13.sigma)
        assert classify3(RotationGroup3(rep, conj)) is classify3(t44_13)


class TestMetrics3:
    def test_f_vector_degenerate(self, t44_10):
        assert f_vector3(t44_10, diagnostic=True) == (1, 2, 1)
        with pytest.raises(NotPolytopalError):
            f_vector3(t44_10)

    def test_euler_genus_sphere(self):
        # tetrahedron rotation group: order 12, type {3,3}
        pres = parse_presentation(
            "gens s1 s2\nrel s1^3\nrel s2^3\nrel (s1 s2)^2\nsigma s1 s2\n"
        )
        m = RotationGroup3(enumerate_group(pres), pres.distinguished)
        assert m.order == 12
        assert f_vector3(m) == (4, 6, 4)
        assert euler_genus(m) == (2, 0)

    def test_hole_one_is_face_size(self, t44_13, t36_12):
        for m in (t44_13, t36_12):
            assert hole_length(m, 1) == schlafli(m)[0]

    def test_hole_out_of_range(self, t44_13):
        with pytest.raises(ValueError):
            hole_length(t44_13, 3)

    def test_flag_count(self, t44_13, t36_12):
        # the rotation group acts regularly on oriented flags: 2|G| = 4E
        for m in (t44_13, t36_12):
            _, e, _ = f_vector3(m)
            assert 2 * m.order == 4 * e

    def test_schlafli_computed_orders(self, t44_13, t36_12):
        assert schlafli(t44_13) == (4, 4)
        assert schlafli(t36_12) == (3, 6)


class TestInvolutionReport:
    def test_chiral_44_torus_map(self, t44_13):
        r = involution_report(t44_13)
        assert r.n_tau_index == 4
        assert r.group_gen_by_involutions is False
        assert r.prop62_consistent is True
        assert r.n_tau_index * r.n_tau_order == t44_13.order

    def test_chiral_36_torus_map_pinned_by_oracle(self, t36_12):
        r = involution_report(t36_12)
        oracle = naive_normal_closure(t36_12.rep, s1 * s2)
        assert r.n_tau_order == len(oracle)
        assert 3 % r.n_tau_index == 0
        assert r.n_tau_index == 3
        assert r.group_gen_by_involutions is False


def rank4_of_type(p, q, r, extra=()):
    rels = [
        s1 ** p, s2 ** q, s3 ** r,
        (s1 * s2) ** 2, (s2 * s3) ** 2, (s1 * s2 * s3) ** 2,
    ]
    rels.extend(extra)
    pres = Presentation.build(["s1", "s2", "s3"], rels, [s1, s2, s3], "sigma")
    return RotationGroup4(enumerate_group(pres), pres.distinguished)


@pytest.fixture(scope="module")
def rot_333():
    return rank4_of_type(3, 3, 3)


class TestRank4:
    def test_simplex_rotations_polytopal_and_regular(self, rot_333):
        assert rot_333.order == 60
        assert check_polytopal4(rot_333) is True
        assert classify4(rot_333) is Chirality.REGULAR

    def test_collapsed_quotient_not_polytopal(self):
        from rotamap import LocallyToroidalSpec, locally_toroidal_presentation

        pres = locally_toroidal_presentation(
            LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3))
        )
        collapsed = enumerate_group(pres.with_relators(s2))
        m = RotationGroup4(collapsed, (s1, s2, s3))
        assert check_polytopal4(m) is False

    def test_petrie_word_identity(self, rot_333):
        # s1s2 * s1s2s3 * s2s3 * s1s2s3 equals the inverse right Petrie
        # element, so its period is the right Petrie length
        rep = rot_333.rep
        w = (s1 * s2) * (s1 * s2 * s3) * (s2 * s3) * (s1 * s2 * s3)
        assert rep.element_order(w.reduce()) == petrie4(rot_333)[1]

    def test_verdict_invariant_under_conjugate_generators(self, rot_333):
        g = s1 * s3
        conj = tuple((~g * w * g).reduce() for w in rot_333.sigma)
        m = RotationGroup4(rot_333.rep, conj)
        assert classify4(m) is Chirality.REGULAR


class TestRegularCGroup:
    def test_simplex_c_group(self):
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        assert c.order == 120

    def test_intersection_condition_rejects_bad_group(self):
        # involutions with (r0 r2)^2 = 1 etc. but a collapsed core:
        # quotient of the simplex group by extra relations kills the
        # intersection property
        pres = simplex_presentation()
        r0, r1, r2, r3 = (Word.gen(i) for i in range(4))
        bad = pres.with_relators((r0 * r1) ** 2 * (r2 * r3))
        rep = enumerate_group(bad)
        with pytest.raises(ConstructionError):
            RegularCGroup4(rep, pres.distinguished)

    def test_sigma_gives_rotation_invariants(self):
        # the 4-simplex {3,3,3}: Petrie polygons are the Coxeter elements
        # r0 r1 r2 r3 and r0 r1 r3 r2, both of order h = 5
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        r0, r1, r2, r3 = c.rho
        assert c.sigma == ((r0 * r1).reduce(), (r1 * r2).reduce(), (r2 * r3).reduce())
        assert schlafli(c) == (3, 3, 3)
        assert petrie4(c) == (
            c.rep.element_order(r0 * r1 * r2 * r3),
            c.rep.element_order(r0 * r1 * r3 * r2),
        ) == (5, 5)

    def test_degenerate_rho_collapse_raises(self):
        pres = simplex_presentation().with_relators(Word.gen(0))
        rep = enumerate_group(pres)
        with pytest.raises(ConstructionError):
            RegularCGroup4(rep, pres.distinguished)


class TestRotationSubgroup:
    def test_simplex_rotation_subgroup(self):
        pres = simplex_presentation()
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        m = rotation_subgroup(c)
        assert m.order == 60
        assert classify4(m) is Chirality.REGULAR

    def test_even_relators_force_index_two(self):
        # every simplex relator has even length, so the sign character
        # survives and the rotation subgroup has index exactly 2
        pres = simplex_presentation()
        assert all(len(r) % 2 == 0 for r in pres.relators)
        c = RegularCGroup4(enumerate_group(pres), pres.distinguished)
        assert c.order // rotation_subgroup(c).order == 2


class TestZigzag:
    def test_zigzag_requires_positive_index(self, simplex_pipe):
        with pytest.raises(ValueError):
            zigzag_length(simplex_pipe["map3"], 0)

    def test_petrie_of_simplex_skew_map(self, simplex_pipe):
        m = simplex_pipe["map3"]
        assert zigzag_length(m, 1) == m.rep.element_order(
            (m.rho[0] * m.rho[1] * m.rho[2]).reduce()
        )


class TestRegularMapSigma:
    @pytest.fixture(params=["ex3", "ex3-central-quotient", "simplex333"])
    def pc_map(self, request, ex3_chain, simplex_pipe):
        return {
            "ex3": ex3_chain["base"].map3,
            "ex3-central-quotient": ex3_chain["quotient"].map3,
            "simplex333": simplex_pipe["map3"],
        }[request.param]

    def test_rotation_invariants_match_the_report(self, pc_map):
        r0, r1, r2 = pc_map.rho
        assert pc_map.sigma == (r0 * r1, r1 * r2)
        inv = map_invariants_regular(pc_map)
        p, q = schlafli(pc_map)
        assert inv.schlafli == (p, q)
        assert inv.holes == {j: hole_length(pc_map, j) for j in range(2, q // 2 + 1)}
        assert hole_length(pc_map, 1) == p


MAP44 = (
    "gens r0 r1 r2\nrel r0^2\nrel r1^2\nrel r2^2\nrel (r0 r1)^4\n"
    "rel (r1 r2)^4\nrel (r0 r2)^2\nrel (r0 r1 r2)^4\nrho r0 r1 r2\n"
)


class TestOrderBasedCounts:
    """``f_vector3`` and ``map_invariants_regular`` read the orders of
    the face, vertex and edge subgroups off element orders; each must be
    the order that closing the subgroup gives."""

    @staticmethod
    def _check(m):
        rep = m.rep

        def index(*words):
            return m.order // rep.subgroup_closure(list(words)).size

        if isinstance(m, RegularMap3):
            r0, r1, r2 = m.rho
            got = map_invariants_regular(m).f_vector
            assert got == (index(r1, r2), index(r0, r2), index(r0, r1))
        else:
            a, b = m.sigma
            got = f_vector3(m, diagnostic=True)
            assert got == (index(b), m.order // rep.element_order(a * b), index(a))
        return got

    def test_petrie_coxeter_maps(self, ex1_pipe, ex2_chain, ex3_chain, simplex_pipe):
        maps = [ex1_pipe.map3, simplex_pipe["map3"]]
        maps += [pipe.map3 for pipe in (*ex2_chain.values(), *ex3_chain.values())]
        assert len(maps) == 7
        for m in maps:
            self._check(m)

    def test_tori(self, catalog_groups):
        names = [n for n in catalog_groups.entries if n.startswith("torus")]
        maps = [catalog_groups.group(n) for n in names]
        maps += [torus_map(TorusFamily(*v)) for v in (
            ("44", 3, 2), ("44", 0, 5), ("36", 2, 1), ("63", 4, 1))]
        assert len(names) == 6
        for m in maps:
            self._check(m)

    def test_regular_44_map(self):
        m = load_group(parse_presentation(MAP44))
        assert isinstance(m, RegularMap3) and m.order == 64
        assert self._check(m) == (8, 16, 8)


class TestGroupClass:
    @pytest.mark.parametrize("kind,n,cls", [
        ("sigma", 2, RotationGroup3),
        ("sigma", 3, RotationGroup4),
        ("rho", 3, RegularMap3),
        ("rho", 4, RegularCGroup4),
    ])
    def test_class_by_line(self, kind, n, cls):
        assert group_class([Word.gen(0)] * n, kind) is cls

    @pytest.mark.parametrize("kind,n", [("sigma", 4), ("rho", 2)])
    def test_unsupported_line(self, kind, n):
        with pytest.raises(RotamapError, match="unsupported input"):
            group_class([Word.gen(0)] * n, kind)

    def test_missing_line(self):
        with pytest.raises(RotamapError, match="sigma or rho line"):
            group_class(None, None)


# groups given by relators alone; each case below appends a sigma or rho
# line whose words break exactly one identity its wrapper checks
A4 = "gens s1 s2\nrel s1^3\nrel s2^3\nrel (s1 s2)^2\n"
A5 = "gens s1 s2 s3\nrel s1^3\nrel s2^3\nrel s3^3\nrel (s1 s2)^2\nrel (s2 s3)^2\nrel (s1 s2 s3)^2\n"
A5xC2 = A5.replace("gens s1 s2 s3", "gens s1 s2 s3 t") + (
    "rel t^2\nrel s1 t = t s1\nrel s2 t = t s2\nrel s3 t = t s3\n"
)
S4 = "gens a b c\nrel a^2\nrel b^2\nrel c^2\nrel (a b)^3\nrel (b c)^3\nrel (a c)^2\n"
S5 = (
    "gens r0 r1 r2 r3\nrel r0^2\nrel r1^2\nrel r2^2\nrel r3^2\n"
    "rel (r0 r1)^3\nrel (r1 r2)^3\nrel (r2 r3)^3\n"
    "rel (r0 r2)^2\nrel (r0 r3)^2\nrel (r1 r3)^2\n"
)

BROKEN_WORDS = {
    "rank-3 half-turn": (
        RotationGroup3, A4 + "sigma s1 s1", "(sigma1 sigma2)^2 does not evaluate to the identity"),
    "rank-3 generation": (
        RotationGroup3, A4 + "sigma s1 s1^-1", "sigma generators do not generate the whole group"),
    "rank-4 s1 s2": (
        RotationGroup4, A5 + "sigma s1 s1 s3", "(sigma1 sigma2)^2 does not evaluate to the identity"),
    "rank-4 s2 s3": (
        RotationGroup4, A5 + "sigma s1 s2 s2", "(sigma2 sigma3)^2 does not evaluate to the identity"),
    "rank-4 s1 s2 s3": (
        RotationGroup4, A5 + "sigma s1 s2 s2^-1",
        "(sigma1 sigma2 sigma3)^2 does not evaluate to the identity"),
    "rank-4 generation": (
        RotationGroup4, A5xC2 + "sigma s1 s2 s3", "sigma generators do not generate the whole group"),
    "map involution": (RegularMap3, S4 + "rho (a b) b c", "rho0 is not an involution"),
    "map commuting pair": (
        RegularMap3, S4 + "rho a c b", "(rho0 rho2)^2 does not evaluate to the identity"),
    "map generation": (RegularMap3, S4 + "rho a c a", "rho generators do not generate the whole group"),
    "c-group involution": (RegularCGroup4, S5 + "rho (r0 r1) r1 r2 r3", "rho0 is not an involution"),
    "c-group commuting pair": (
        RegularCGroup4, S5 + "rho r0 r1 r3 r2", "(rho1 rho3)^2 does not evaluate to the identity"),
    "c-group generation": (
        RegularCGroup4, S5 + "rho r0 r2 r0 r2", "rho generators do not generate the whole group"),
    "c-group intersection": (
        RegularCGroup4, S5 + "rel (r0 r1)^2 r2 r3\nrho r0 r1 r2 r3", "intersection condition fails"),
}


class TestWrapperChecks:
    @pytest.mark.parametrize("case", BROKEN_WORDS)
    def test_broken_identity_raises_its_message(self, case):
        cls, text, message = BROKEN_WORDS[case]
        pres = parse_presentation(text + "\n")
        rep = enumerate_group(pres)
        with pytest.raises(ConstructionError) as exc:
            cls(rep, pres.distinguished)
        assert str(exc.value) == message
        # load_group reports the same break as an input error
        with pytest.raises(RotamapError) as exc:
            load_group(pres)
        assert not isinstance(exc.value, ConstructionError)
        assert str(exc.value) == f"input {pres.distinguished_kind} words: {message}"

    @pytest.mark.parametrize("cls,n", [
        (RotationGroup3, 3), (RotationGroup4, 2), (RegularMap3, 4), (RegularCGroup4, 3),
    ])
    def test_wrong_number_of_words_raises(self, t44_13, cls, n):
        with pytest.raises(ValueError, match=f"{cls.__name__} does not take {n}"):
            cls(t44_13.rep, [Word.gen(0)] * n)

    def test_map_failing_the_intersection_condition_is_not_polytopal(self):
        # a dihedral group with rho0 = rho2: <rho0> and <rho2> meet in <rho0>
        pres = parse_presentation("gens a b\nrel a^2\nrel b^2\nrel (a b)^5\nrho a b a\n")
        m = RegularMap3(enumerate_group(pres), pres.distinguished)
        assert m.order == 10
        assert m.polytopal is False


# groups in which random string involution tuples are drawn: S5, the
# group of the regular torus map {4,4}_(3,0), of order 72, and the
# Coxeter group [3,4], of order 48
INVOLUTION_HOSTS = {
    "S5": S5,
    "{4,4}_(3,0)": (
        "gens a b c\nrel a^2\nrel b^2\nrel c^2\n"
        "rel (a b)^4\nrel (b c)^4\nrel (a c)^2\nrel (a b c b)^3\n"
    ),
    "[3,4]": "gens a b c\nrel a^2\nrel b^2\nrel c^2\nrel (a b)^3\nrel (b c)^4\nrel (a c)^2\n",
}


def _string_involution_tuples(rep, rank, count, rng):
    """``count`` random tuples of ``rank`` involutions of ``rep``, as
    words, whose non-adjacent members commute."""
    inv = rep.involutions()
    commuting = {x: {y for y in inv if rep.product(x, y) == rep.product(y, x)} for x in inv}
    out = []
    while len(out) < count:
        rho = []
        for _ in range(rank):
            # the new member must commute with all but the last one drawn
            choices = [x for x in inv if all(x in commuting[y] for y in rho[:-1])]
            if not choices:
                break
            rho.append(rng.choice(choices))
        if len(rho) == rank:
            out.append(tuple(rep.element_word(x) for x in rho))
    return out


def test_intersection_condition_on_runs_matches_all_subsets():
    # Prop. 2E16 of McMullen and Schulte: for a string group generated by
    # involutions the runs decide the condition over all subset pairs
    rng = random.Random(2016)
    verdicts = {3: set(), 4: set()}
    for text in INVOLUTION_HOSTS.values():
        rep = enumerate_group(parse_presentation(text))
        for rank in verdicts:
            for rho in _string_involution_tuples(rep, rank, 70, rng):
                verdict = rotamap.rotary._intersection_condition(rep, rho)
                assert verdict == naive_c_group_condition(rep, rho), rho
                verdicts[rank].add(verdict)
    assert verdicts == {3: {False, True}, 4: {False, True}}


class TestLoadGroup:
    """``load_group`` is the one way from a presentation to a wrapped
    group, for the CLI and for catalog verification alike."""

    @pytest.mark.parametrize("load", [
        analyze_presentation,
        lambda pres: compute_entry_report(CatalogEntry("user", pres, {})),
    ], ids=["analyze_presentation", "compute_entry_report"])
    def test_broken_sigma_words_are_input_errors(self, load):
        # A5 = <a, b | a^3, b^2, (a b)^5>, where (a b)^2 is not 1
        pres = parse_presentation("gens a b\nrel a^3\nrel b^2\nrel (a b)^5\nsigma a b\n")
        with pytest.raises(RotamapError) as exc:
            load(pres)
        assert not isinstance(exc.value, ConstructionError)
        assert str(exc.value) == (
            "input sigma words: (sigma1 sigma2)^2 does not evaluate to the identity"
        )

    def test_unsupported_line_fails_before_enumeration(self, monkeypatch):
        # the free group on a and b: enumerating it first would run for
        # seconds into the coset cap
        calls = []
        monkeypatch.setattr(
            rotamap.rotary, "enumerate_group", lambda *a, **k: calls.append(a)
        )
        with pytest.raises(RotamapError, match="unsupported input: rho line with 2 words"):
            load_group(parse_presentation("gens a b\nrho a b\n"))
        assert calls == []
