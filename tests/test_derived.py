"""Groups built from an existing table against full enumeration.

Duality extensions (``GroupRep.extend``) and Petrie quotients
(``GroupRep.quotient``) are derived from the base group's coset table;
``enumerate_group`` of the same presentation is the oracle, and the two
tables must agree row for row, an extension's once relabelled into
row-scan standard form (``_standard``), since ``extend`` interleaves G
and G d instead.  ``extend`` certifies its table from the generators
and the identity row, so the whole-table check it skips runs here, and
broken certificate premises must make it raise.  The
coset-table digests the benchmark recorded from enumeration
(``perfbench/tables.json``, read only) cover every Petrie quotient its
petrie-scan workload can draw.  ``GroupRep._verify``, which certifies a
table's regularity and walks each relator from the identity only, gives
the verdict of the whole-table ``oracle.verify_reference`` on these
tables, on the same tables relabelled out of standard form and on
mutants of both."""

import importlib.util
import json
import random
from operator import lt
from pathlib import Path

import pytest

from rotamap import (
    CapExceededError,
    CollapseError,
    CosetTable,
    DualityKind,
    GroupRep,
    InconsistencyError,
    RotationGroup4,
    TorusFamily,
    Word,
    catalog,
    enumerate_group,
    parse_presentation,
    torus_presentation,
)
from rotamap.engine import _row_scan, _schreier_tree
from rotamap.selfdual import _form_images, extend_proper
from oracle import verify_reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

EXTENDED = ("ex1", "ex2", "ex2q14", "ex2q7", "ex3", "ex3-central-quotient", "simplex333")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture(scope="module")
def recorded_tables():
    with open(PERFBENCH / "tables.json", encoding="utf-8") as f:
        return json.load(f)


def _recorded(tables, rep):
    return tables.get(spans.presentation_key(rep.presentation))


@pytest.fixture(scope="module")
def petrie_bases(ex1_pipe, ex2_chain, ex3_chain):
    return {
        "ex1": ex1_pipe.base,
        "ex2": ex2_chain["base"].base,
        "ex3": ex3_chain["base"].base,
    }


def _parents_first(rep):
    """Every tree parent has a smaller index than its child, so
    ``GroupRep._tree_order`` walks the tree in index order instead of
    searching for its breadth-first order."""
    return all(map(lt, rep._parent_coset, range(rep.order)))


def _standard(rep):
    """The table of rep relabelled into row-scan standard form
    (``_row_scan``), a function of the group and the generator order
    alone: an extension's table is compared with enumeration in it."""
    cols = _row_scan(list(rep.table.cols), list(range(rep.order)))[0]
    return CosetTable(cols, rep.table.ngens)


def _petrie_relator(m, k):
    s1, _, s3 = m.sigma
    return ((s1 * s3) ** k).reduce()


class TestExtension:
    @pytest.mark.parametrize("name", EXTENDED)
    def test_matches_enumeration(self, catalog_extensions, name):
        ext = catalog_extensions[name]
        assert ext.order == 2 * ext.base.order
        oracle = enumerate_group(ext.rep.presentation)
        assert _standard(ext.rep) == oracle.table
        assert _parents_first(ext.rep)

    @pytest.mark.parametrize("name", EXTENDED)
    def test_passes_the_whole_table_check(self, catalog_extensions, name):
        # columns mutually inverse, every relator fixing every row
        catalog_extensions[name].rep._verify()

    @pytest.mark.parametrize("name", EXTENDED)
    def test_matches_recorded_digest(self, catalog_extensions, recorded_tables, name):
        rep = catalog_extensions[name].rep
        assert _recorded(recorded_tables, rep) == spans.table_digest(_standard(rep))

    def test_over_the_cap_reports_the_extension_order(self):
        pres = catalog()["ex3"].presentation
        m = RotationGroup4(enumerate_group(pres, cap=1343), pres.distinguished)
        with pytest.raises(CapExceededError) as exc:
            extend_proper(m)
        assert (exc.value.cap, exc.value.cosets_in_use) == (1343, 1344)
        m = RotationGroup4(enumerate_group(pres, cap=1344), pres.distinguished)
        assert extend_proper(m).order == 1344


# (base, kind of the images, z, error, message, edit of the sources and
# images); each breaks exactly one premise of extend's certificate or
# passes arguments extend cannot write relators from
BROKEN = {
    # ex3 is properly, not improperly, self-dual
    "images are no automorphism": (
        "ex3", DualityKind.IMPROPER, "z", CollapseError, "not an automorphism", None),
    # the improper alpha sends s1 to s3^-1
    "alpha moves z": (
        "ex1", DualityKind.IMPROPER, "s1", InconsistencyError, "moves z", None),
    # alpha^2 is conjugation by s1 s2 s3, which is not central in ex1
    "alpha^2 is not inn(z)": (
        "ex1", DualityKind.IMPROPER, "1", InconsistencyError, "conjugation by z", None),
    # s3 without an image would get no conjugation relator
    "one image too few": (
        "ex1", DualityKind.IMPROPER, "z", ValueError, "one image per source",
        lambda s, u: (s, u[:-1])),
    # generator 3 of ex1 would be read as the adjoined d
    "source over an undeclared generator": (
        "ex1", DualityKind.IMPROPER, "z", ValueError, "undeclared generators",
        lambda s, u: (s[:-1] + (Word.gen(3),), u)),
}


def _spy_on_builds(monkeypatch):
    """A list of every GroupRep constructed from now on in the test."""
    made = []
    init = GroupRep.__init__

    def spy(rep, *args):
        made.append(rep)
        init(rep, *args)

    monkeypatch.setattr(GroupRep, "__init__", spy)
    return made


class TestExtensionCertificate:
    @pytest.mark.parametrize("case", BROKEN)
    def test_broken_premise_raises_before_building(self, catalog_groups, monkeypatch, case):
        name, kind, z, error, message, edit = BROKEN[case]
        m = catalog_groups.group(name)
        s1, s2, s3 = m.sigma
        words = {"z": s1 * s2 * s3, "s1": s1, "1": Word.identity()}
        sources, images = tuple(m.sigma), _form_images(kind, m.sigma)
        if edit is not None:
            sources, images = edit(sources, images)
        built = _spy_on_builds(monkeypatch)
        with pytest.raises(error, match=message):
            m.rep.extend(sources, images, words[z])
        assert built == []

    def test_sound_premises_build_the_extension(self, catalog_groups, monkeypatch):
        # the spy sees the one table a sound extension builds
        m = catalog_groups.group("ex1")
        z = m.sigma[0] * m.sigma[1] * m.sigma[2]
        built = _spy_on_builds(monkeypatch)
        rep = m.rep.extend(m.sigma, _form_images(DualityKind.IMPROPER, m.sigma), z)
        assert built == [rep] and rep.order == 2 * m.order

    def test_relator_that_moves_the_identity_is_inconsistent(self, catalog_groups, monkeypatch):
        # with alpha the identity, alpha(z) = z and alpha^2 = 1 = inn(z)
        # hold for ex3's proper form, but the table then makes d central,
        # and d s1 d s3 moves row 0: only the walk of each relator from
        # the identity catches it
        m = catalog_groups.group("ex3")
        monkeypatch.setattr(GroupRep, "generator_map_automorphism",
                            lambda rep, sources, images: list(range(rep.order)))
        with pytest.raises(InconsistencyError, match="does not fix coset 0"):
            extend_proper(m)


def _relator(m, relator):
    """(s1 s3)^relator for an int; for "z" the relator of the
    ex3-central-quotient catalog entry; else the word in s1, s2, s3
    written in ``relator``."""
    if isinstance(relator, int):
        return _petrie_relator(m, relator)
    if relator == "z":
        return catalog()["ex3-central-quotient"].presentation.relators[-1]
    return parse_presentation(f"gens s1 s2 s3\nrel {relator}\n").relators[0]


class TestPetrieQuotient:
    # Petrie relators (s1 s3)^k, then other words: the central involution
    # z of ex3, 2-holes (s1 s2^-1)^2 and powers of s1^2 s3^-1 whose
    # quotients keep 400, 336 and 10080 of the 2000, 672 and 20160
    # elements of ex1, ex3 and ex2
    @pytest.mark.parametrize("name,relator", [
        *(("ex1", k) for k in range(2, 31)),
        *(("ex3", k) for k in range(2, 31)),
        *(("ex2", k) for k in (2, 3, 5, 7, 11, 13, 14, 28)),
        ("ex3", "z"),
        *((name, "(s1 s2^-1)^2") for name in ("ex1", "ex3", "ex2")),
        ("ex1", "(s1^2 s3^-1)^4"),
        ("ex3", "(s1^2 s3^-1)^4"),
        ("ex2", "(s1^2 s3^-1)^6"),
    ])
    def test_matches_enumeration(self, petrie_bases, name, relator):
        m = petrie_bases[name]
        w = _relator(m, relator)
        q = m.rep.quotient(w)
        oracle = enumerate_group(m.rep.presentation.with_relators(w))
        assert q.presentation == oracle.presentation
        assert q.table == oracle.table
        # the quotient's tree is handed over (or shared), the oracle's
        # found by _schreier_tree
        assert q._parent_coset == oracle._parent_coset
        assert q._parent_col == oracle._parent_col

    def test_every_petrie_scan_pair_matches_recorded_digest(self, petrie_bases, recorded_tables):
        # the 87 (base, k) pairs the petrie-scan workload draws from
        for name, m in petrie_bases.items():
            for k in range(2, 31):
                q = m.rep.quotient(_petrie_relator(m, k))
                assert q.cap == m.rep.cap
                assert _recorded(recorded_tables, q) == spans.table_digest(q.table), (name, k)
                tree = tuple(_schreier_tree(q.table.cols, q.order)[:2])
                assert (q._parent_coset, q._parent_col) == tree, (name, k)
                assert _parents_first(q), (name, k)

    # k a multiple of the Petrie length (20, 28 and 8): (s1 s3)^k is
    # already 1, so the quotient is the group itself
    @pytest.mark.parametrize("name,k", [
        ("ex1", 20), ("ex2", 28), ("ex3", 8), ("ex3", 16), ("ex3", 24),
    ])
    def test_trivial_word_shares_the_table(self, petrie_bases, name, k):
        m = petrie_bases[name]
        w = _petrie_relator(m, k)
        q = m.rep.quotient(w)
        assert q.table is m.rep.table
        assert q._parent_coset is m.rep._parent_coset
        assert q._parent_col is m.rep._parent_col
        # G's table passed _verify, which w, fixing row 0, cannot undo
        assert q._left is m.rep._left
        assert q.cap == m.rep.cap
        assert q.presentation == m.rep.presentation.with_relators(w)

    def test_trivial_word_on_a_table_built_directly_is_verified(self, petrie_bases):
        # no _verify has passed on a table built directly, so the shared
        # table is checked and gets left multiplications of its own
        m = petrie_bases["ex3"]
        rep = GroupRep(m.rep.presentation, m.rep.table)
        q = rep.quotient(_petrie_relator(m, 8))
        assert q.table is rep.table
        assert rep._left is None
        assert q._left is not None and q._left is not m.rep._left
        assert q._left == m.rep._left

    def test_trivial_word_on_a_broken_table_is_inconsistent(self):
        # the cyclic table of order 4 does not satisfy a^2: a^4 is 1 in
        # it, and the shared table must still be checked against the
        # presentation
        table = CosetTable(((1, 2, 3, 0), (3, 0, 1, 2)), 1)
        rep = GroupRep(parse_presentation("gens a\nrel a^2\n"), table)
        with pytest.raises(InconsistencyError, match=r"relator a\^2 does not fix coset 0"):
            rep.quotient(Word.gen(0) ** 4)


def _relabelled(cols, rng):
    """The table with elements 1..n-1 renamed by a random permutation: a
    valid table, but not in row-scan standard form."""
    n = len(cols[0])
    new = [0] + rng.sample(range(1, n), n - 1)
    old = [0] * n
    for e, e_new in enumerate(new):
        old[e_new] = e
    return tuple(tuple([new[col[e]] for e in old]) for col in cols)


def _mutant(cols, rng):
    """The table with two entries of a generator column swapped and its
    inverse column fixed up to match."""
    cols = list(cols)
    x = 2 * rng.randrange(len(cols) // 2)
    col, inv = list(cols[x]), list(cols[x + 1])
    i, j = rng.sample(range(len(col)), 2)
    col[i], col[j] = col[j], col[i]
    inv[col[i]], inv[col[j]] = i, j
    cols[x], cols[x + 1] = tuple(col), tuple(inv)
    return tuple(cols)


def _verdicts(presentation, cols):
    """What ``GroupRep._verify`` and ``verify_reference`` say of the table
    ``cols`` under the presentation: None to accept, else the message
    raised, which for both is that of building the ``GroupRep`` if that
    fails."""
    try:
        rep = GroupRep(presentation, CosetTable(cols, presentation.ngens))
    except InconsistencyError as exc:
        return [str(exc)] * 2
    out = []
    for check in (GroupRep._verify, verify_reference):
        try:
            check(rep)
        except InconsistencyError as exc:
            out.append(str(exc))
        else:
            out.append(None)
    return out


def _assert_same_verdicts(rep, seed):
    """Both checks accept the table and the table relabelled, and give
    the same verdict on the table under the presentation with the first
    generator as one more relator, and on a mutant of each table, which
    the reference rejects.  A table of one or two elements gets no
    mutant: swapping its entries can give another valid table."""
    rng = random.Random(seed)
    pres = rep.presentation
    relabelled = _relabelled(rep.table.cols, rng)
    assert _verdicts(pres, rep.table.cols) == [None, None]
    assert _verdicts(pres, relabelled) == [None, None]
    new, reference = _verdicts(pres.with_relators(Word.gen(0)), rep.table.cols)
    assert new == reference
    assert (reference is None) == (rep.element_of(Word.gen(0)) == 0)
    if rep.order < 3:
        return
    for cols in (rep.table.cols, relabelled):
        new, reference = _verdicts(pres, _mutant(cols, rng))
        assert reference is not None
        assert new == reference


TORI = [
    TorusFamily(*v) for v in (
        ("44", 1, 0), ("44", 1, 1), ("44", 2, 1), ("44", 3, 2), ("44", 0, 5),
        ("36", 1, 1), ("36", 2, 1), ("36", 3, 0), ("63", 1, 2), ("63", 4, 1),
    )
]


class TestVerifyAgainstReference:
    @pytest.mark.parametrize("name", list(catalog()))
    def test_catalog_table(self, catalog_groups, name):
        rep = catalog_groups.group(name).rep
        _assert_same_verdicts(rep, name)
        assert _parents_first(rep)

    @pytest.mark.parametrize("name", EXTENDED)
    def test_catalog_extension(self, catalog_extensions, name):
        _assert_same_verdicts(catalog_extensions[name].rep, f"{name}-pc")

    @pytest.mark.parametrize("name", ["ex1", "ex3"])
    def test_petrie_quotients(self, petrie_bases, name):
        m = petrie_bases[name]
        for k in range(2, 31):
            _assert_same_verdicts(m.rep.quotient(_petrie_relator(m, k)), f"{name}/{k}")

    @pytest.mark.parametrize("t", TORI, ids=lambda t: t.name)
    def test_torus_table(self, t):
        _assert_same_verdicts(enumerate_group(torus_presentation(t)), t.name)
