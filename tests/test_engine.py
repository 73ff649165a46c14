import hashlib
import random
import re
from operator import lt

import pytest

from rotamap import (
    CapExceededError,
    CosetTable,
    InconsistencyError,
    LocallyToroidalSpec,
    Presentation,
    RotationGroup4,
    TorusFamily,
    Word,
    catalog,
    enumerate_group,
    extend_improper,
    locally_toroidal_presentation,
    parse_presentation,
    serialize_presentation,
    simplex_presentation,
    torus_presentation,
)
from rotamap.engine import (
    DEFAULT_CAP,
    FACET_ORDER,
    GroupRep,
    LONG_PERIOD,
    _bounded_relators,
    _cyclic_labels,
    _cyclic_reduce,
    _enumerate_cosets,
    _facet_labels,
    _lift,
    _rotations_by_column,
    _schreier_tree,
    _short_period,
    _verified_group,
)
from oracle import (
    felsch_table,
    hlt_reference,
    naive_cyclic_reduce,
    naive_is_automorphism,
    naive_normal_closure,
    naive_rotations_by_column,
    naive_subgroup_closure,
    perm_mulclose,
    simplex_rotation_permutations,
    verify_reference,
)
from test_derived import EXTENDED, _relabelled, _standard

a = Word.gen(0)
s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


def cyclic4():
    return enumerate_group(parse_presentation("gens a\nrel a^4\n"))


ROT333 = (
    "gens s1 s2 s3\n"
    "rel s1^3\nrel s2^3\nrel s3^3\n"
    "rel (s1 s2)^2\nrel (s2 s3)^2\nrel (s1 s2 s3)^2\n"
)


def rot333():
    return enumerate_group(parse_presentation(ROT333))


# the tori whose rows TestRowsDefined pins: family, b, c, rows, order
TORUS_ROWS = [("36", 12, 12, 2892, 2592), ("63", 7, 9, 1482, 1158)]


class TestEnumerate:
    def test_cyclic_group(self):
        assert cyclic4().order == 4

    def test_simplex_rotation_group_order_60(self):
        # oracle: closure of the even simplex symmetries on 5 points
        assert len(perm_mulclose(simplex_rotation_permutations())) == 60
        assert rot333().order == 60

    def test_empty_generator_list(self):
        with pytest.raises(ValueError):
            enumerate_group(Presentation.build([], []))

    def test_cap_exceeded_reports_cosets_in_use(self):
        free = Presentation.build(["a", "b"], [])
        with pytest.raises(CapExceededError) as exc:
            enumerate_group(free, cap=50)
        assert exc.value.cap == 50
        assert exc.value.cosets_in_use > 0
        # ex2 over <s1, s2>: 415 live rows times |L| = 42
        with pytest.raises(CapExceededError) as exc:
            enumerate_group(catalog()["ex2"].presentation, cap=20000)
        assert (exc.value.cap, exc.value.cosets_in_use) == (20000, 17430)
        assert str(exc.value).startswith(
            "coset cap 20000 exceeded, with 17430 in use (live cosets times the "
            "order of the group that labels them, or the elements of an extension)")

    def test_group_built_from_a_table_has_the_default_cap(self):
        # a GroupRep built directly, not by enumerate_group, derives
        # quotients and extensions under DEFAULT_CAP
        p = simplex_presentation()
        g = GroupRep(p, enumerate_group(p).table)
        assert g.cap == DEFAULT_CAP
        q = g.quotient(s1 * s3)
        assert q.cap == DEFAULT_CAP
        assert q.table == enumerate_group(p.with_relators(s1 * s3)).table
        # the direct product with a group of order 2: alpha = 1, z = 1
        d = Word.gen(p.ngens)
        gens = [Word.gen(i) for i in range(p.ngens)]
        commute = [~d * h * d * ~h for h in gens]
        product = Presentation(p.names + ("d",), p.relators).with_relators(*commute, d ** 2)
        e = g.extend(gens, gens, Word.identity())
        assert (e.order, e.cap) == (2 * g.order, DEFAULT_CAP)
        # e interleaves g and g d; relabelled, it is the enumerated table
        assert _standard(e).rows == enumerate_group(product).table.rows

    def test_proper_power_relator_is_scanned_at_every_edge(self):
        # (s1 s3)^29 has 58 letters but 2 distinct rotations, so it is
        # scanned Felsch style, and ex1's quotient of order 4 fits in
        # 2,000 rows; closed once per coset, it would define 68,243
        rep = enumerate_group(_EX1.with_relators((s1 * s3) ** 29), cap=2000)
        assert rep.order == 4

    def test_determinism(self):
        p = parse_presentation(ROT333)
        g1 = enumerate_group(p)
        g2 = enumerate_group(p)
        assert g1.table.rows == g2.table.rows

    def test_relators_fix_every_coset(self):
        g = rot333()
        for r in g.presentation.relators:
            for x in range(g.order):
                assert g.multiply(x, r) == x

    def test_columns_mutually_inverse(self):
        g = rot333()
        rows = g.table.rows
        for x in range(g.order):
            for col in range(g.table.ncols):
                assert rows[rows[x][col]][col ^ 1] == x

    def test_adding_relators_never_increases_order(self):
        rng = random.Random(23)
        base = parse_presentation(
            "gens a b\nrel a^4\nrel b^3\nrel (a b)^2\n"
        )
        g = enumerate_group(base)
        for _ in range(10):
            cols = [rng.randrange(4) for _ in range(rng.randrange(1, 6))]
            smaller = enumerate_group(base.with_relators(Word(cols)))
            assert smaller.order <= g.order


class TestVerify:
    """Mutations of a table that the whole-table check must reject."""

    def test_swapped_column_entries_are_not_inverse(self):
        g = rot333()
        cols = list(g.table.cols)
        col = list(cols[2])
        col[3], col[7] = col[7], col[3]
        cols[2] = tuple(col)
        bad = GroupRep(g.presentation, CosetTable(tuple(cols), g.table.ngens))
        with pytest.raises(InconsistencyError, match="table columns are not inverse"):
            bad._verify()
        g._verify()

    @pytest.mark.parametrize("relator,coset", [("a", 2), ("b", 0), ("b a b^-1", 1)])
    def test_failing_relator_names_the_first_coset_it_moves(self, relator, coset):
        # S4 acting on four points, a = (2 3) and b = (0 1 2 3): a
        # transitive table that is not regular, so a relator can fix
        # coset 0 and still fail at a later coset
        a_col, b_col, b_inv = (0, 1, 3, 2), (1, 2, 3, 0), (3, 0, 1, 2)
        table = CosetTable((a_col, a_col, b_col, b_inv), 2)
        pres = parse_presentation(f"gens a b\nrel a^2\nrel b^4\nrel {relator}\n")
        rep = GroupRep(pres, table)
        message = re.escape(f"relator {relator} does not fix coset {coset}")
        with pytest.raises(InconsistencyError, match=message + "$"):
            rep._verify()

    def test_inverse_column_that_is_not_the_inverse_is_rejected(self):
        # C3 with a copy of a's column as a^-1's: the columns are
        # permutations that commute and a^3 fixes every coset, so only
        # the column check rejects the table
        a_col = (1, 2, 0)
        rep = GroupRep(parse_presentation("gens a\nrel a^3\n"), CosetTable((a_col, a_col), 1))
        with pytest.raises(InconsistencyError, match="table columns are not inverse"):
            rep._verify()

    def test_consistent_table_that_is_not_regular_is_rejected(self):
        # S3 acting on three points, a = (1 2) and b = (0 1 2): every
        # relator fixes every point, which the whole-table check accepts,
        # but the six elements of S3 do not act regularly on three points
        a_col, b_col, b_inv = (0, 2, 1), (1, 2, 0), (2, 0, 1)
        table = CosetTable((a_col, a_col, b_col, b_inv), 2)
        pres = parse_presentation("gens a b\nrel a^2\nrel b^3\nrel (a b)^2\n")
        rep = GroupRep(pres, table)
        verify_reference(rep)
        with pytest.raises(InconsistencyError, match="not a regular representation"):
            rep._verify()


class TestTreeParents:
    """The tree ``GroupRep`` holds is that of the breadth-first search
    ``_schreier_tree`` on a table built directly, the same tree recorded
    by ``_row_scan`` on an enumerated one, and the spanning tree
    ``extend`` or ``quotient`` hands over on a derived one.  In row-scan
    standard form, and in an extension of a group in it, every parent
    has a smaller index."""

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_enumerated_tree_is_the_breadth_first_search(self, catalog_groups, name):
        rep = catalog_groups.group(name).rep
        assert (rep._parent_coset, rep._parent_col) == _schreier_tree(rep.table.cols, rep.order)

    @pytest.mark.parametrize("family,b,c,rows,order", TORUS_ROWS)
    def test_enumerated_torus_tree_is_the_breadth_first_search(self, family, b, c, rows, order):
        rep = enumerate_group(torus_presentation(TorusFamily(family, b, c)))
        assert rep.order == order
        assert (rep._parent_coset, rep._parent_col) == _schreier_tree(rep.table.cols, rep.order)

    @pytest.mark.parametrize("name", ["ex3", "simplex333", "torus-44-1-3"])
    def test_match_the_breadth_first_search(self, catalog_groups, name):
        rep = catalog_groups.group(name).rep
        cols = rep.table.cols
        n = len(cols[0])
        relabelled = _relabelled(cols, random.Random(name))
        tables = (cols, relabelled)
        held = [GroupRep(rep.presentation, CosetTable(t, rep.presentation.ngens)) for t in tables]
        for table, h in zip(tables, held):
            assert (h._parent_coset, h._parent_col) == _schreier_tree(table, n)[:2]
        assert all(map(lt, held[0]._parent_coset, range(n)))
        assert not all(map(lt, held[1]._parent_coset, range(n)))

    @pytest.mark.parametrize("name", EXTENDED)
    def test_extension_tree_spans_the_table(self, catalog_extensions, name):
        rep = catalog_extensions[name].rep
        cols = rep.table.cols
        n = rep.order
        parent, parent_col = rep._parent_coset, rep._parent_col
        assert parent[0] == parent_col[0] == -1
        assert [cols[x][p] for p, x in zip(parent[1:], parent_col[1:])] == list(range(1, n))
        assert all(map(lt, parent, range(n)))
        # the same table with the tree _schreier_tree searches for
        fresh = GroupRep(rep.presentation, rep.table, rep.cap)
        fresh._verify()
        assert fresh.center() == rep.center()

    def test_extension_of_a_relabelled_group(self, catalog_groups, catalog_extensions):
        # G's tree has parents of larger index than their children, so
        # the handed tree of its extension has too, and L is built in
        # that tree's own order; the extension table's breadth-first
        # order would put 562 of ex1's elements before their parents
        m = catalog_groups.group("ex1")
        table = _relabelled(m.rep.table.cols, random.Random(5))
        rep = GroupRep(m.rep.presentation, CosetTable(table, m.rep.table.ngens))
        ext = extend_improper(RotationGroup4(rep, m.sigma)).rep
        assert not isinstance(ext._tree_order(), range)
        ext._verify()
        assert ext.center().size == 1
        assert _standard(ext) == _standard(catalog_extensions["ex1"].rep)

    def test_inverse_column_that_is_not_the_inverse(self):
        # C3 with a copy of a's column as a^-1's: the tree is built from
        # the columns as given, and only _verify rejects the table
        table = ((1, 2, 0), (1, 2, 0))
        rep = GroupRep(parse_presentation("gens a\nrel a^3\n"), CosetTable(table, 1))
        tree = (rep._parent_coset, rep._parent_col)
        assert tree == _schreier_tree(table, 3)[:2] == ([-1, 0, 1], [-1, 0, 0])

    def test_intransitive_table_is_rejected(self):
        # two copies of C2: the identity's row reaches only element 1
        table = ((1, 0, 3, 2),) * 2
        with pytest.raises(InconsistencyError, match="not transitive"):
            GroupRep(parse_presentation("gens a\nrel a^2\n"), CosetTable(table, 1))


class TestElements:
    def test_identity_is_index_zero(self):
        assert cyclic4().element_of(Word()) == 0

    def test_relator_evaluates_to_identity(self):
        g = cyclic4()
        assert g.element_of(a ** 4) == 0

    def test_square_in_cyclic4(self):
        g = cyclic4()
        x = g.element_of(a ** 2)
        assert x == g.multiply(g.element_of(a), a)

    def test_multiply_identity_action(self):
        g = rot333()
        for x in (0, 1, g.order - 1):
            assert g.multiply(x, Word()) == x

    def test_multiply_matches_element_of(self):
        g = rot333()
        w = s1 * s2 * ~s3
        assert g.multiply(0, w) == g.element_of(w)

    def test_multiply_by_inverse_returns_home(self):
        g = rot333()
        w = s2 * s3 * s1
        assert g.multiply(g.element_of(w), ~w) == 0

    def test_element_order(self):
        g = rot333()
        assert g.element_order(Word()) == 1
        assert g.element_order(s1) == 3
        assert g.element_order(s1 * s2) == 2

    def test_element_word_roundtrip(self):
        g = rot333()
        assert g.element_word(0) == Word()
        for x in range(g.order):
            assert g.element_of(g.element_word(x)) == x

    def test_unique_involution_in_cyclic4(self):
        # brute force: a^2 is the only order-2 element of C4
        g = cyclic4()
        invs = g.involutions()
        assert invs == [g.element_of(a ** 2)]

    def test_product_and_inverse(self):
        g = rot333()
        x = g.element_of(s1 * s2)
        y = g.element_of(s3)
        assert g.product(x, y) == g.element_of(s1 * s2 * s3)
        assert g.product(x, g.inverse_element(x)) == 0


class TestElementInputChecks:
    """Out-of-range element indices and undeclared generators are a
    ValueError; a negative index used to wrap around silently."""

    @pytest.fixture(scope="class")
    def g(self):
        return enumerate_group(simplex_presentation())

    def test_product(self, g):
        assert g.order == 120
        for bad in (-1, g.order):
            with pytest.raises(ValueError, match="out of range"):
                g.product(0, bad)
            with pytest.raises(ValueError, match="out of range"):
                g.product(bad, 0)

    def test_inverse_element(self, g):
        for bad in (-1, g.order):
            with pytest.raises(ValueError, match="out of range"):
                g.inverse_element(bad)

    def test_conjugacy_class(self, g):
        for bad in (-1, g.order):
            with pytest.raises(ValueError, match="out of range"):
                g.conjugacy_class(bad)

    def test_element_order(self, g):
        with pytest.raises(ValueError, match="undeclared"):
            g.element_order(Word.gen(4))

    def test_multiply(self, g):
        with pytest.raises(ValueError, match="undeclared"):
            g.multiply(0, Word.gen(4))


class TestSubgroups:
    def test_empty_generating_set(self):
        g = rot333()
        h = g.subgroup_closure([])
        assert h.size == 1 and 0 in h

    def test_cyclic_subgroup(self):
        g = rot333()
        assert g.subgroup_closure([s2]).size == 3

    def test_whole_group(self):
        g = rot333()
        assert g.subgroup_closure([s1, s2, s3]).size == g.order

    def test_matches_naive_closure(self):
        g = rot333()
        mine = g.subgroup_closure([s1, s2]).elements
        seed = [g.element_of(s1), g.element_of(s2)]
        assert mine == naive_subgroup_closure(g, seed)

    def test_lagrange(self):
        g = rot333()
        for gens in ([], [s1], [s2], [s1 * s2], [s1, s2], [s2, s3]):
            assert g.order % g.subgroup_closure(gens).size == 0

    def test_normal_closure_identity(self):
        g = rot333()
        assert g.normal_closure(Word()).size == 1

    def test_normal_closure_simple_group(self):
        # A5 is simple, so any nontrivial normal closure is everything
        g = rot333()
        assert g.normal_closure(s1 * s2).size == g.order

    def test_normal_closure_matches_naive(self):
        g = enumerate_group(
            parse_presentation("gens a b\nrel a^4\nrel b^4\nrel (a b)^2\n"
                               "rel b^-1 a b^-1 a b^-1 a b a^-1 b\n"
                               "rel a^-1 b^3 a^-1 b^2 a^-1 b\n")
        )
        w = Word.gen(0) * Word.gen(1)
        assert g.normal_closure(w).elements == naive_normal_closure(g, w)

    def test_normal_closure_central_element(self):
        g = enumerate_group(parse_presentation("gens a\nrel a^6\n"))
        w = Word.gen(0) ** 3
        h = g.normal_closure(w)
        assert h.elements == {0, g.element_of(w)}

    def test_normal_closure_invariant_under_conjugation(self):
        g = rot333()
        h = g.normal_closure(s1)
        for x in sorted(h.elements):
            for gen in (s1, s2, s3):
                conj = g.multiply(
                    g.product(g.element_of(~gen), x), gen
                )
                assert conj in h

    def test_derived_subgroup_of_abelian_group_is_trivial(self):
        g = enumerate_group(parse_presentation(
            "gens a b\nrel a^2\nrel b^2\nrel (a b)^2\n"))
        assert g.derived_subgroup().size == 1


class TestStructure:
    def test_identity_images_extend(self):
        g = rot333()
        assert g.extends_to_automorphism([s1, s2, s3])

    def test_image_count_mismatch(self):
        g = rot333()
        with pytest.raises(ValueError):
            g.extends_to_automorphism([s1, s2])

    def test_against_naive_homomorphism_check(self):
        g = rot333()
        for images in (
            [s1, (s2 * s3 * s3).reduce(), (~s3).reduce()],  # mirror: extends
            [s2, s1, s3],                                   # swap: does not
        ):
            assert g.extends_to_automorphism(images) == naive_is_automorphism(
                g, images
            )

    def test_composition_of_automorphisms(self):
        from rotamap import substitute

        g = rot333()
        mirror = [s1, (s2 * s3 * s3).reduce(), (~s3).reduce()]
        assert g.extends_to_automorphism(mirror)
        composed = [substitute(w, mirror) for w in mirror]
        assert g.extends_to_automorphism(composed)

    def test_generator_map_automorphism_on_nonstandard_generators(self):
        g = rot333()
        sources = [(s1 * s2).reduce(), (s2 * s3).reduce(), s1]
        # conjugation by any element is an automorphism on any generating set
        c = s2 * s3
        images = [(~c * w * c).reduce() for w in sources]
        assert g.subgroup_closure(sources).size == g.order
        assert g.generator_map_automorphism(sources, images) is not None

    def test_generator_map_rejects_wrong_orders(self):
        g = rot333()
        assert g.generator_map_automorphism([s1, s2, s3], [s1 * s2, s2, s3]) is None

    def test_generated_by_involutions(self):
        assert rot333().generated_by_involutions() is True
        assert cyclic4().generated_by_involutions() is False
        # the one involution a generates a subgroup that holds the first
        # generator but not b
        g = enumerate_group(parse_presentation("gens a b\nrel a^2\nrel b^3\nrel a b a^-1 b^-1\n"))
        assert g.generated_by_involutions() is False
        assert GroupRep(g.presentation, g.table).generated_by_involutions() is False

    def test_trivial_group_generated_by_involutions(self):
        g = enumerate_group(parse_presentation("gens a\nrel a\n"))
        assert g.order == 1
        assert g.generated_by_involutions() is True

    def test_center_of_abelian_group(self):
        g = cyclic4()
        assert g.center().size == 4

    def test_center_of_simple_group(self):
        assert rot333().center().size == 1

    def test_center_of_trivial_group(self):
        g = enumerate_group(parse_presentation("gens a\nrel a\n"))
        assert g.center().size == 1


def _expand(buckets):
    # the letters of each rotation: both layouts start an entry with its
    # word and end it with the first and last index into that word
    return [tuple(e[0][e[-2]:e[-1] + 1] for e in b) for b in buckets]


def _empty_cols(ncols):
    return [[] for _ in range(ncols)]


def _relator_cols(text):
    p = parse_presentation(text)
    return 2 * p.ngens, [_cyclic_reduce(w.cols()) for w in p.relators]


class TestRotationBuckets:
    @pytest.mark.parametrize("text", [
        "gens s1 s2 s3\nrel s1^6\nrel (s1 s2)^2\n",
        # two relators that are rotations of each other
        "gens s1 s2 s3\nrel s1 s2 s3^2\nrel s3 s1 s2 s3\n",
        # a relator given a second time as its own inverse
        "gens s1 s2 s3\nrel s1 s2 s3\nrel s3^-1 s2^-1 s1^-1\n",
        ROT333,
        "gens a b\nrel a^2 b a^-1 b a b^-1 a^-2\nrel (a b a b^-1)^3\n",
    ], ids=["periodic", "rotated-pair", "inverse-repeat", "rot333", "mixed"])
    def test_matches_materialised_rotations(self, text):
        ncols, relators = _relator_cols(text)
        assert _expand(_rotations_by_column(relators, _empty_cols(ncols), _empty_cols(ncols))) == (
            _expand(naive_rotations_by_column(relators, ncols)))

    def test_random_relators_match(self):
        rng = random.Random(5)
        for _ in range(200):
            relators = []
            for _ in range(rng.randrange(1, 4)):
                base = [rng.randrange(4) for _ in range(rng.randrange(1, 5))]
                relators.append(_cyclic_reduce(base * rng.randrange(1, 4)))
            relators = [r for r in relators if r]
            assert _expand(_rotations_by_column(relators, _empty_cols(4), _empty_cols(4))) == (
                _expand(naive_rotations_by_column(relators, 4)))

    def test_long_relator_storage_is_linear(self):
        # a 20,000-letter power of a primitive word of LONG_PERIOD
        # letters: the longest period the buckets take
        n = 20_000
        r = ((0,) * (LONG_PERIOD - 1) + (2,)) * (n // LONG_PERIOD)
        assert _short_period(r) == LONG_PERIOD
        cols, labs = _empty_cols(4), _empty_cols(4)
        entries = [e for b in _rotations_by_column([r], cols, labs) for e in b]
        # LONG_PERIOD rotations of r and as many of its inverse
        assert len(entries) == 2 * LONG_PERIOD
        # one doubled word for r and one for its inverse, shared by
        # every rotation instead of copied into it
        assert len({id(e[0]) for e in entries}) == 2
        assert all(len(ww) == 2 * n and end - start == n - 1
                   for ww, *_, start, end in entries)
        # so are the column and label lists bound to its letters: one
        # tuple per doubled word, kind and direction, holding the table's
        # own lists
        for k in range(1, 5):
            assert len({id(e[k]) for e in entries}) == 2
        for ww, fw, fl, bw, bl, _, _ in entries:
            assert len(fw) == len(fl) == len(bw) == len(bl) == 2 * n
            assert all(f is cols[c] and g is labs[c] and b is cols[c ^ 1] and h is labs[c ^ 1]
                       for c, f, g, b, h in zip(ww, fw, fl, bw, bl))

    def test_cyclic_reduce_matches_naive(self):
        rng = random.Random(11)
        cases = [(0,) * 50 + (2,) + (1,) * 50, (0, 1), (0, 2, 1), ()]
        cases += [
            tuple(rng.randrange(4) for _ in range(rng.randrange(12)))
            for _ in range(500)
        ]
        for cols in cases:
            assert _cyclic_reduce(cols) == naive_cyclic_reduce(cols)


_EX1 = locally_toroidal_presentation(
    LocallyToroidalSpec(TorusFamily("44", 1, 3), TorusFamily("44", 1, 3))
)


class TestGoldenTables:
    """Coset tables pinned by digest, so a change that alters any table
    fails here and not only in the traced benchmark."""

    @pytest.mark.parametrize("pres,order,digest", [
        pytest.param(_EX1, 2000,
            "d7e3da607f8571850135775292c818963713ac669283e0606c3c857a29ec9de3",
            id="ex1"),
        pytest.param(locally_toroidal_presentation(LocallyToroidalSpec(
            TorusFamily("36", 1, 2), TorusFamily("63", 1, 2))), 672,
            "d765072e36a6d29b9bffb4e1cfe6f4c65c969d00a0253801551ba60f2cc83ce4",
            id="ex3"),
        pytest.param(simplex_presentation(), 120,
            "fd332d0ccf32bab6d824566288c27eaeac462fb52217797bc89d6e721a7cfbc6",
            id="simplex333"),
        pytest.param(torus_presentation(TorusFamily("36", 5, 7)), 654,
            "ae8396f9f0367b19b4a16c8f4cc1e7007de1d4612d912b17942993ba4ccf17bc",
            id="torus-36-5-7"),
        # collapses through coincidences
        pytest.param(_EX1.with_relators((s1 * s3) ** 5), 4,
            "18ba1e9e35ae1eaf1d578a04fd3546643242ce365aa54d0633dda8945f80cc9e",
            id="ex1-petrie5"),
    ])
    def test_table_digest(self, pres, order, digest):
        rep = enumerate_group(pres)
        assert rep.order == order
        rows = rep.table.rows
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


class TestRowsDefined:
    """Rows of the coset table the engine defines, counting those later
    found equal to others, times the order of the group L its labels
    lie in, pinned through the cap, which counts that product: an
    enumeration under a cap of that many finishes, and one fewer does
    not.  On the rank-4 entries the rows are cosets of the facet
    subgroup <s1, s2>, and L, the group its relators present, has order
    40 on ex1 (52 rows) and 42 on ex3 (18 rows) and ex2q7 (143 rows); on
    the tori they are cosets of <g>, g the generator of the largest
    power relator g^p, and L = Z_p.  The cap tests rest on these counts;
    a change of strategy moves them, while the tables stay pinned above.
    The early stop at the first complete table leaves them as they were:
    it is taken only where the loop, run to its end, would define no row
    after it."""

    @pytest.mark.parametrize("name,rows,order", [
        ("ex1", 2080, 2000), ("ex3", 756, 672), ("ex2q7", 6006, 5040),
    ])
    def test_rows_defined(self, name, rows, order):
        p = catalog()[name].presentation
        assert enumerate_group(p, cap=rows).order == order
        with pytest.raises(CapExceededError):
            enumerate_group(p, cap=rows - 1)

    @pytest.mark.parametrize("family,b,c,rows,order", TORUS_ROWS)
    def test_torus_rows_defined(self, family, b, c, rows, order):
        # long translation relators, closed once per coset
        p = torus_presentation(TorusFamily(family, b, c))
        assert enumerate_group(p, cap=rows).order == order
        with pytest.raises(CapExceededError):
            enumerate_group(p, cap=rows - 1)


def _index(labels):
    """|L/N|, L the group of the labels, for the final ``labels`` of
    ``_enumerate_cosets``."""
    normal = labels[2]
    return len(normal) // sum(normal)


def _lifted(p, h):
    """The columns of p's table enumerated over ``h``, labels as
    ``_enumerate_cosets`` takes them, and lifted; and the final index
    |L/N|.  ``_cyclic_labels(())`` labels the trivial subgroup."""
    cosets = _enumerate_cosets(2 * p.ngens, _bounded_relators(p, DEFAULT_CAP), DEFAULT_CAP, h)
    return _lift(*cosets)[0], _index(cosets[-1])


def _cyclic(p):
    """The labels of ``_cyclic_labels`` on p's relators."""
    return _cyclic_labels(_bounded_relators(p, DEFAULT_CAP))


class TestCyclicSubgroup:
    """Enumerating the cosets of H = <g> with Schreier labels and lifting
    them gives the table that enumerating over the trivial subgroup
    gives.  ex2 and ex2q14 are left to the golden digests and to the
    recorded-tables check, which cover them."""

    @staticmethod
    def assert_same_table(p):
        h = _cyclic(p)
        assert h[0]
        assert _lifted(p, h)[0] == _lifted(p, _cyclic_labels(()))[0]

    @pytest.mark.parametrize("name", sorted(set(catalog()) - {"ex2", "ex2q14"}))
    def test_catalog(self, name):
        self.assert_same_table(catalog()[name].presentation)

    @pytest.mark.parametrize("family", ["44", "36", "63"])
    def test_tori(self, family):
        for b in range(1, 5):
            for c in range(1, 5):
                self.assert_same_table(torus_presentation(TorusFamily(family, b, c)))

    @pytest.mark.parametrize("base", ["ex1", "ex3"])
    def test_petrie(self, base):
        # most of these collapse, and the modulus falls to 2; (s1 s3)^20
        # is already 1 in ex1
        p = catalog()[base].presentation
        for k in [*range(2, 13), 20, 29]:
            self.assert_same_table(p.with_relators((s1 * s3) ** k))

    @pytest.mark.parametrize("text,h,modulus,order", [
        # the trivial group: a = b^-1 of orders 5 and 3
        ("gens a b\nrel a^5\nrel b^3\nrel a b^-1\n", (0, 5), 1, 1),
        # a^4 and a^6 leave a^2 = 1: a cycle of a nonzero sum at coset 0
        ("gens a b\nrel a^6\nrel b^2\nrel a b a b\nrel a^4\n", (0, 6), 2, 4),
        # H is the whole group, so only the scan of coset 0's own edge
        # 0 --a--> 0 before the loop finds a^2 = 1
        ("gens a\nrel a^6\nrel a^4\n", (0, 6), 2, 2),
        # the quaternion group, with no power relator: H is trivial
        ("gens a b\nrel a b a^-1 b\nrel b a b^-1 a\n", (None, 1), 1, 8),
        # ex3 with s2^5, so s2 = 1 and the group collapses: the modulus
        # falls to 1 over H = <s2> while its four long relators are
        # still being closed
        (serialize_presentation(catalog()["ex3"].presentation) + "rel s2^5\n", (2, 6), 1, 1),
    ], ids=["trivial-group", "modulus-falls", "cyclic-modulus-falls", "no-power-relator",
            "ex3-modulus-falls-to-1"])
    def test_edge_cases(self, text, h, modulus, order):
        p = parse_presentation(text)
        labels = _cyclic(p)
        # the chosen column, None for the trivial subgroup, and p = |L|
        gens, _, _, inverse = labels
        assert (gens[0][0] if gens else None, len(inverse)) == h
        table, m = _lifted(p, labels)
        assert m == modulus
        assert table == _lifted(p, _cyclic_labels(()))[0]
        assert enumerate_group(p).order == order

    def test_infinite_group_hits_the_cap(self):
        # the free product of C3 and C2: H = <a> has infinite index
        p = parse_presentation("gens a b\nrel a^3\nrel b^2\n")
        with pytest.raises(CapExceededError) as exc:
            enumerate_group(p, cap=1000)
        assert 0 < exc.value.cosets_in_use <= 1000


RANK4_ENTRIES = sorted(name for name, e in catalog().items() if e.presentation.ngens > 2)


class TestFacetSubgroup:
    """Enumerating a presentation of three or more generators over the
    facet subgroup H = <s1, s2>, with labels in the group L that its
    relators in s1 and s2 present (``_facet_labels``), and lifting gives
    the table that enumeration over <g> gives (``_cyclic_labels``:
    <s1>, but <s2> on ex3 and its quotient) and over the trivial
    subgroup.  Where that group is infinite, or larger than
    ``FACET_ORDER``, the engine keeps <g>: the same table, and the same
    rows defined."""

    @staticmethod
    def assert_same_table(p):
        """Returns the final index |L/N| over the facet subgroup."""
        h = _facet_labels(p)
        assert h is not None
        table, index = _lifted(p, h)
        assert table == _lifted(p, _cyclic(p))[0] == _lifted(p, _cyclic_labels(()))[0]
        assert enumerate_group(p).table.cols == table
        return index

    @pytest.mark.parametrize("name", RANK4_ENTRIES)
    def test_catalog(self, name):
        self.assert_same_table(catalog()[name].presentation)

    def test_random_petrie_quotients(self):
        # most collapse, so N grows and L/N is a proper quotient of L; the
        # last adds a random relator of ten letters in s1, s2 and s3
        rng = random.Random(46)
        for base in ("ex1", "ex3"):
            p = catalog()[base].presentation
            for k in sorted(rng.sample(range(2, 41), 10)):
                self.assert_same_table(p.with_relators((s1 * s3) ** k))
        word = Word(tuple(rng.randrange(6) for _ in range(10)))
        self.assert_same_table(catalog()["ex1"].presentation.with_relators((s1 * s3) ** 4, word))

    @pytest.mark.parametrize("base,relator,order,index", [
        ("ex1", ~s1 * ~s3 * s1 * s3, 8, 4),
        ("ex3", s3 ** 2, 2, 2),
        ("ex2q7", s2 * s3 ** 2, 2, 2),
    ], ids=["ex1-s1-s3-commute", "ex3-s3-squared", "ex2q7-s2-s3-squared"])
    def test_collapse_to_a_small_quotient_of_the_label_group(self, base, relator, order, index):
        # L, non-abelian of order 40 or 42, falls to L/N of order 4 or 2:
        # an N that were not closed under conjugation, not a normal
        # subgroup, would give these a wrong table
        p = catalog()[base].presentation.with_relators(relator)
        assert self.assert_same_table(p) == index
        assert enumerate_group(p).order == order

    @staticmethod
    def assert_fallback(p, rows, order):
        assert _facet_labels(p) is None
        rep = enumerate_group(p, cap=rows)
        assert rep.order == order
        assert rep.table.cols == _lifted(p, _cyclic(p))[0]
        with pytest.raises(CapExceededError):
            enumerate_group(p, cap=rows - 1)

    def test_infinite_facet_group_falls_back(self):
        # ex1 with its two long relators in s1 and s2 conjugated by s3:
        # the same group and, cyclically reduced, the same relators, but
        # s1^4, s2^4 and (s1 s2)^2 alone present the infinite group of
        # the tiling {4,4}
        p = catalog()["ex1"].presentation
        relators = [~s3 * r * s3 if r.max_gen() < 2 and len(r) > 4 else r for r in p.relators]
        self.assert_fallback(Presentation(p.names, tuple(relators)), 2064, 2000)

    def test_facet_group_over_the_size_bound_falls_back(self):
        # the torus {4,4}_(8,1), of order 260, with a third generator
        # s3 = 1: 130 rows over <s1>
        text = serialize_presentation(torus_presentation(TorusFamily("44", 8, 1)))
        lines = [line for line in text.splitlines() if line.startswith("rel")]
        p = parse_presentation("gens s1 s2 s3\n" + "\n".join(lines) + "\nrel s3\n")
        self.assert_fallback(p, 520, 260)
        torus = enumerate_group(torus_presentation(TorusFamily("44", 8, 1)))
        assert torus.order == 260 > FACET_ORDER


def _over_trivial(ncols, relators, cap):
    """``_enumerate_cosets`` over the trivial subgroup, called as
    ``oracle.hlt_reference`` is."""
    return _enumerate_cosets(ncols, relators, cap, _cyclic_labels(()))


def enumeration_outcome(enumerate_cosets, p, cap=DEFAULT_CAP):
    """The raw ``(cols, parent)`` that ``enumerate_cosets`` returns for p
    over the trivial subgroup, or the cap and live count of the
    CapExceededError it raises."""
    try:
        return enumerate_cosets(2 * p.ngens, _bounded_relators(p, cap), cap)[:2]
    except CapExceededError as e:
        return e.cap, e.cosets_in_use


class TestMatchesHltReference:
    """The engine resumes an HLT scan after its definition.  That skips
    only work that does nothing, so it defines the same cosets in the
    same order as ``oracle.hlt_reference``, which rescans from the coset
    after each definition: the raw tables and parents are identical.
    These pass no early check, so the loop runs to its end;
    ``TestEarlyStop`` compares the state an early stop returns."""

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog(self, name):
        p = catalog()[name].presentation
        assert enumeration_outcome(_over_trivial, p) == enumeration_outcome(hlt_reference, p)

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 7, 8, 12, 29])
    @pytest.mark.parametrize("base", ["ex1", "ex3"])
    def test_petrie(self, base, k):
        # most of these collapse, so coincidences interrupt the scans
        p = catalog()[base].presentation.with_relators((s1 * s3) ** k)
        assert enumeration_outcome(_over_trivial, p) == enumeration_outcome(hlt_reference, p)

    @pytest.mark.parametrize("base,relator", [
        ("ex1", ~s1 * ~s3 * s2 * s3 * s2 * s1 ** -5 * s2),
        ("ex3", ~s3 * ~s1 * s2 * s1 * ~s2 * s3 * s1 ** 2),
    ], ids=["forward-passes-backward-end", "coincidence-in-close"])
    def test_long_relator_collapse(self, base, relator):
        # (s1 s3)^k has period 2 and is scanned Felsch style, so
        # test_petrie never reaches close.  These collapse through close:
        # ex1's relator is long (11 rotations), and a forward walk passes
        # its backward end; in ex3, whose torus relators are long, a
        # definition in close runs a coincidence
        p = catalog()[base].presentation.with_relators(relator)
        assert enumeration_outcome(_over_trivial, p) == enumeration_outcome(hlt_reference, p)

    @pytest.mark.parametrize("family,b,c", [("36", 12, 12), ("63", 7, 9)])
    def test_tori(self, family, b, c):
        # the tori pinned in TestRowsDefined, whose long translation
        # relators are closed once per coset; 253 and 111 of the cosets
        # they define coincide with others
        p = torus_presentation(TorusFamily(family, b, c))
        assert enumeration_outcome(_over_trivial, p) == enumeration_outcome(hlt_reference, p)


def early_stop(p, h, cap=DEFAULT_CAP):
    """Enumerate p over ``h`` with ``enumerate_group``'s check as the early
    check, which asserts first that every live row is full.  Returns the
    raw result and, for each call of the check, a copy of the ``(cols,
    parent)`` it was handed, the live cosets, the labels with a copy of
    N as it was then, and whether it passed."""
    calls = []

    def check(cols, parent, labs, labels):
        live = [c for c, q in enumerate(parent) if c == q]
        assert all(col[c] >= 0 for col in cols for c in live)
        width, mul, normal = labels
        calls.append([([col[:] for col in cols], parent[:]), len(live),
                      (width, mul, normal[:]), False])
        _verified_group(p, cap, (cols, parent, labs, labels))
        calls[-1][-1] = True

    return _enumerate_cosets(2 * p.ngens, _bounded_relators(p, cap), cap, h, check), calls


class TestEarlyStop:
    """``_enumerate_cosets`` hands its first complete table, once, to the
    check ``enumerate_group`` supplies, and stops there if ``_verify``
    passes.  The check fails when a long relator walk left to run would
    still grow N, or find a coincidence; the loop then runs to its end,
    and ``enumerate_group`` still gives Felsch's table."""

    BASE = "gens a b\nrel a^4\nrel b^4\nrel (a b)^2\n"

    @pytest.mark.parametrize("relator,early,final", [
        ("a b^2 a^-2 b a b^3", (4, 4), (4, 2)),
        ("b a^-1 b a^-1 b a b^4 a^-1 b", (10, 4), (2, 4)),
    ], ids=["modulus-falls", "cosets-coincide"])
    def test_failed_check_runs_the_loop_to_its_end(self, relator, early, final):
        # (live cosets, |L/N|) at the first complete table and at the
        # end, L = Z_4 for H = <a>
        p = parse_presentation(self.BASE + f"rel {relator}\n")
        (_, parent, _, labels), calls = early_stop(p, _cyclic(p))
        assert [[call[1], _index(call[2]), call[3]] for call in calls] == [[*early, False]]
        assert (sum(c == q for c, q in enumerate(parent)), _index(labels)) == final
        rep = enumerate_group(p)
        assert rep.order == 8
        assert rep.table.rows == felsch_table(p, 1000)

    def test_torus_stops_at_the_full_loop_table(self):
        # over the trivial subgroup, that table is hlt_reference's
        p = torus_presentation(TorusFamily("36", 12, 12))
        args = (2 * p.ngens, _bounded_relators(p, DEFAULT_CAP), DEFAULT_CAP)
        h = _cyclic(p)
        for h, want in [(_cyclic_labels(()), hlt_reference(*args)),
                        (h, _enumerate_cosets(*args, h)[:2])]:
            state, calls = early_stop(p, h)
            assert [call[-1] for call in calls] == [True]
            assert calls[0][0] == state[:2] == want
