"""Property tests of the presentation format, of derived quotients, of
subgroup and normal closures, of known group orders, of torus map
analysis and of enumeration against pure Felsch, with Hypothesis.

Examples are derandomized and their number is fixed, so the suite stays
deterministic."""

import contextlib
import dataclasses
import io
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from rotamap import (
    CapExceededError,
    ParseError,
    Presentation,
    TorusFamily,
    Word,
    catalog,
    enumerate_group,
    lattice_torus_oracle,
    parse_presentation,
    serialize_presentation,
    torus_presentation,
)
from rotamap.cli import analyze_presentation, main
from rotamap.engine import (
    LONG_PERIOD,
    _bounded_relators,
    _cyclic_labels,
    _enumerate_cosets,
    _facet_labels,
    _lift,
    _short_period,
    _verified_group,
)
from oracle import felsch_table, hlt_reference, naive_normal_closure, naive_subgroup_closure, word_bfs_closure
from test_engine import _over_trivial, early_stop, enumeration_outcome
from test_queries import rot333

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)


def _words(ngens, reduced, min_size=1):
    words = st.lists(st.integers(0, 2 * ngens - 1), min_size=min_size, max_size=12).map(Word)
    if reduced:
        words = words.map(Word.reduce).filter(bool)
    return words


@st.composite
def presentations(draw):
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    relators = draw(st.lists(_words(len(names), reduced=True), max_size=5))
    distinguished = kind = None
    if draw(st.booleans()):
        distinguished = draw(st.lists(_words(len(names), reduced=False, min_size=0), min_size=2, max_size=4))
        kind = draw(st.sampled_from(["sigma", "rho"]))
    return Presentation.build(names, relators, distinguished, kind)


@PROPERTY
@given(presentations())
def test_serialize_parse_roundtrip(p):
    assert parse_presentation(serialize_presentation(p)) == p


@PROPERTY
@given(_words(2, reduced=False), _words(2, reduced=False), st.integers(-4, 4))
def test_word_arithmetic_reduces_concatenated_letters(u, v, k):
    """Products, powers and inverses are the free reductions of the
    letters they concatenate; over two generators most draws cancel.  A
    power of the conjugate v u v^-1, which ``**`` builds without
    concatenating its copies, is checked too."""
    inverse_letters = tuple(c ^ 1 for c in reversed(u.cols()))
    power_letters = u.cols() * k if k >= 0 else inverse_letters * -k
    assert u * v == Word(u.cols() + v.cols()).reduce()
    assert ~u == Word(inverse_letters).reduce()
    assert u ** k == Word(power_letters).reduce()
    conjugate = v.cols() + u.cols() + tuple(c ^ 1 for c in reversed(v.cols()))
    assert Word(conjugate) ** abs(k) == Word(conjugate * abs(k)).reduce()


_grammar_text = st.text(
    alphabet=st.sampled_from(list("gens rel sigma rho ab()^-=#\n0123456789_")) | st.characters(),
    max_size=80,
)


@PROPERTY
@given(st.one_of(st.text(max_size=80), _grammar_text, _grammar_text.map("gens a b\n".__add__)))
def test_parser_raises_only_parse_errors(text):
    """Random text either fails with a ParseError or round-trips; the
    serialized form omits empty relators."""
    try:
        p = parse_presentation(text)
    except ParseError:
        return
    nonempty = dataclasses.replace(p, relators=tuple(filter(None, p.relators)))
    assert parse_presentation(serialize_presentation(p)) == nonempty


_SMALL_TORI = [TorusFamily(*t) for t in (("44", 1, 2), ("44", 2, 2), ("36", 1, 1), ("63", 2, 1), ("36", 2, 0))]


@st.composite
def _analyze_inputs(draw):
    """A small torus presentation with some relators dropped (which may
    make it infinite or break its sigma identities) and others added
    (which may collapse it), maybe with random text spliced in."""
    t = draw(st.sampled_from(_SMALL_TORI))
    gens, *lines = serialize_presentation(torus_presentation(t)).splitlines()
    lines = [line for line in lines if draw(st.integers(0, 3))]
    letters = st.tuples(st.sampled_from(gens.split()[1:]), st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 2))):
        word = draw(st.lists(letters, min_size=1, max_size=6))
        lines.append("rel " + " ".join(f"{n}^{k}" for n, k in word))
    text = "\n".join([gens] + lines) + "\n"
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(_grammar_text) + text[i:]
    return text


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("analyze") / "input.pres"


@PROPERTY
@given(st.one_of(st.text(max_size=80), _grammar_text, _analyze_inputs()))
def test_analyze_cli_exits_cleanly(input_file, text):
    # any file: a report (0), a verdict (1) or an input error (2), and
    # never an exception out of main, which the console script would
    # print as a traceback
    input_file.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["analyze", str(input_file), "--max-cosets", "200"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    st.sampled_from(["ex1", "ex3"]),
    st.lists(st.integers(0, 5), max_size=8).map(Word).map(Word.reduce),
)
def test_quotient_matches_enumeration(ex1_pipe, ex3_chain, name, w):
    # G / <<w>> built from G's table is the group G's presentation plus
    # the relator w presents
    rep = (ex1_pipe.base if name == "ex1" else ex3_chain["base"].base).rep
    q = rep.quotient(w)
    oracle = enumerate_group(rep.presentation.with_relators(w))
    assert q.presentation == oracle.presentation
    # both tables are in row-scan standard form
    assert q.table == oracle.table


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(["44", "36", "63"]), st.integers(0, 8), st.integers(1, 8))
def test_torus_analysis_matches_lattice(family, b, c):
    t = TorusFamily(family, b, c)
    pres = parse_presentation(serialize_presentation(torus_presentation(t)))
    report = analyze_presentation(pres)
    order, v, e, f = lattice_torus_oracle(t)
    assert (report.group_order, report.f_vector) == (order, (v, e, f))
    if report.polytopal:
        assert report.chirality == ("regular" if t.expect_regular else "chiral")
    else:
        assert report.chirality == "not-polytopal"


@pytest.fixture(scope="module")
def small_groups():
    """Groups of order at most 120: A5 and S5, with few normal subgroups,
    and two torus groups, with many."""
    entries = catalog()
    groups = {
        name: enumerate_group(entries[name].presentation)
        for name in ("simplex333", "torus-44-1-3", "torus-63-1-2")
    }
    groups["rot333"] = rot333()
    return groups


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(["rot333", "ex1"]),
    st.lists(st.lists(st.integers(0, 5), max_size=8).map(Word), min_size=1, max_size=3),
)
def test_subgroup_closure_matches_word_bfs(small_groups, ex1_pipe, name, words):
    rep = small_groups["rot333"] if name == "rot333" else ex1_pipe.base.rep
    closure = word_bfs_closure(rep, words)
    assert rep.subgroup_closure(words).elements == closure
    assert (rep.basis(words) is not None) == (len(closure) == rep.order)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(["rot333", "simplex333", "torus-44-1-3", "torus-63-1-2"]),
    st.lists(st.lists(st.integers(0, 7), max_size=8), min_size=1, max_size=3),
)
def test_basis_spells_every_reached_element(small_groups, name, letter_lists):
    """``basis`` is None exactly when the words generate a proper
    subgroup; otherwise each generator column g has its pair y =
    ``basis.pairs[i]`` with y and y g reached, and the word the marks
    spell for each reached element evaluates to that element, each step
    back landing on a smaller mark."""
    rep = small_groups[name]
    words = [Word(tuple(c % rep.table.ncols for c in letters)) for letters in letter_lists]
    sources = [rep.element_of(w) for w in words]
    basis = rep.basis(words)
    assert (basis is None) == (len(naive_subgroup_closure(rep, sources)) < rep.order)
    if basis is None:
        return
    cols = rep.table.cols
    assert len(basis.pairs) == rep.presentation.ngens
    for g, y in zip(cols[::2], basis.pairs):
        assert basis.mark[y] and basis.mark[g[y]]
    reached = [y for y in range(rep.order) if basis.mark[y]]
    for y in reached:
        x = 0
        for j in basis.word(y):
            step = rep.product(x, sources[j])
            assert 0 < basis.mark[x] < basis.mark[step]
            x = step
        assert x == y


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from(["rot333", "simplex333", "torus-44-1-3", "torus-63-1-2"]),
    st.lists(st.integers(0, 7), max_size=8),
)
def test_normal_closure_matches_naive(small_groups, name, letters):
    rep = small_groups[name]
    assert rep.order <= 120
    w = Word(tuple(c % rep.table.ncols for c in letters))
    assert rep.normal_closure(w).elements == naive_normal_closure(rep, w)


@st.composite
def von_dyck(draw):
    """<a, b | a^2, b^3, (a b)^n> for n in 2..5, with the generators in
    either order and each relator rotated, inverted or not, in any
    order."""
    n = draw(st.integers(2, 5))
    a, b = (0, 1) if draw(st.booleans()) else (1, 0)
    relators = []
    for w in (Word.gen(a) ** 2, Word.gen(b) ** 3, (Word.gen(a) * Word.gen(b)) ** n):
        cols = w.cols()
        k = draw(st.integers(0, len(cols) - 1))
        w = Word(cols[k:] + cols[:k])
        relators.append(~w if draw(st.booleans()) else w)
    relators = draw(st.permutations(relators))
    return n, Presentation.build(["a", "b"], relators)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(von_dyck())
def test_von_dyck_orders(case):
    # the triangle groups (2, 3, n): S3, A4, S4 and A5
    n, p = case
    assert enumerate_group(p).order == {2: 6, 3: 12, 4: 24, 5: 60}[n]


def _rotation_count(w):
    return len({w[i:] + w[:i] for i in range(len(w))})


_letters = st.integers(0, 3)


@PROPERTY
@given(st.one_of(
    st.builds(lambda u, k: tuple(u) * k,
              st.lists(_letters, min_size=1, max_size=20), st.integers(1, 6)),
    st.lists(_letters, min_size=1, max_size=40).map(tuple),
))
def test_short_period_counts_rotations(w):
    # the distinct rotations of w when there are at most LONG_PERIOD,
    # else None
    count = _rotation_count(w)
    assert _short_period(w) == (count if count <= LONG_PERIOD else None)


@st.composite
def long_relator_presentations(draw):
    """<s1, s2 | s1^p, s2^q, (s1 s2)^2, w>, w a cyclically reduced word
    of LONG_PERIOD + 1 to 60 letters with more than LONG_PERIOD distinct
    rotations, which ``enumerate_group`` closes once per coset.  Most of
    these groups collapse to a few elements; some are infinite."""
    s1, s2 = Word.gen(0), Word.gen(1)
    p, q = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    w = [draw(st.integers(0, 3))]
    for k in draw(st.lists(st.integers(1, 3), min_size=LONG_PERIOD, max_size=59)):
        w.append(((w[-1] ^ 1) + k) % 4)  # any letter but the last one's inverse
    w = tuple(w)
    assume(w[-1] != w[0] ^ 1 and _rotation_count(w) > LONG_PERIOD)
    return Presentation.build(["s1", "s2"], [s1 ** p, s2 ** q, (s1 * s2) ** 2, Word(w)])


_small_tori = st.builds(
    lambda family, b, c: torus_presentation(TorusFamily(family, b, c)),
    st.sampled_from(["44", "36", "63"]), st.integers(0, 8), st.integers(1, 8),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(long_relator_presentations(), _small_tori))
def test_enumeration_matches_felsch_reference(p):
    # wherever pure Felsch finishes, enumerate_group gives its table
    try:
        want = felsch_table(p, 20_000)
    except CapExceededError:
        return
    assert enumerate_group(p).table.rows == want


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(long_relator_presentations(), _small_tori))
def test_enumeration_matches_hlt_reference(p):
    # the same definitions in the same order as a loop that closes every
    # long relator at every coset and rescans after each definition, so
    # the same raw table, or the same cap error on the infinite ones; the
    # collapsing ones run the rescan after a coincidence
    cap = 5_000
    assert enumeration_outcome(_over_trivial, p, cap) == enumeration_outcome(hlt_reference, p, cap)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(long_relator_presentations(), _small_tori))
def test_early_stop_returns_the_full_loop_state(p):
    # the check runs at most once, on a table whose live rows are full
    # (early_stop asserts that), over the trivial subgroup and over
    # enumerate_group's; when it passes, what it was handed is what the
    # loop run to its end returns, and enumerate_group's table is that
    # loop's
    cap = 5_000
    relators = _bounded_relators(p, cap)
    trivial = _cyclic_labels(())
    for h in (trivial, _cyclic_labels(relators)):
        try:
            state, calls = early_stop(p, h, cap)
        except CapExceededError:
            return
        assert len(calls) <= 1
        if not calls or not calls[0][-1]:
            continue
        full = _enumerate_cosets(2 * p.ngens, relators, cap, h)
        assert calls[0][0] == state[:2] == full[:2]
        assert calls[0][2] == state[3] == full[3]
        if h is trivial:
            assert full[:2] == hlt_reference(2 * p.ngens, relators, cap)
        else:
            assert enumerate_group(p, cap).table == _verified_group(p, cap, full).table


# finite triangle groups (l, m, n): x0^l, x1^m and (x0 x1)^n present one
# of order at most 2 * 12 = 24 or 60, below FACET_ORDER
_TRIANGLES = [(2, 3, 3), (2, 3, 4), (2, 3, 5)] + [(2, 2, n) for n in range(2, 13)]


@st.composite
def facet_presentations(draw):
    """<x0, x1, x2 | x0^l, x1^m, (x0 x1)^n, x2^k, w1, ...>: (l, m, n) a
    finite triangle group in some order, k from 2 to 4 and one to three
    random relators over all three generators.  So L, the group of the
    relators in x0 and x1, is finite and small, and ``enumerate_group``
    enumerates over the facet subgroup <x0, x1>.  Some of these groups
    are infinite."""
    x0, x1, x2 = (Word.gen(i) for i in range(3))
    l, m, n = draw(st.permutations(draw(st.sampled_from(_TRIANGLES))))
    relators = [x0 ** l, x1 ** m, (x0 * x1) ** n, x2 ** draw(st.integers(2, 4))]
    relators += draw(st.lists(_words(3, reduced=True), min_size=1, max_size=3))
    return Presentation.build(["x0", "x1", "x2"], relators)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(facet_presentations())
def test_facet_labels_give_the_trivial_subgroup_table(p):
    # enumerate_group's table is the one lifted over the trivial
    # subgroup, or both exceed the cap; where the early check passed
    # over the facet labels, it was handed the state of the full loop
    cap = 2_000
    relators = _bounded_relators(p, cap)
    h = _facet_labels(p)
    assert h is not None
    try:
        table = enumerate_group(p, cap).table.cols
    except CapExceededError:
        table = None
    try:
        trivial = _lift(*_over_trivial(2 * p.ngens, relators, cap))[0]
    except CapExceededError:
        trivial = None
    assert table == trivial
    if table is None:
        return
    state, calls = early_stop(p, h, cap)
    if calls and calls[0][-1]:
        full = _enumerate_cosets(2 * p.ngens, relators, cap, h)
        assert calls[0][0] == state[:2] == full[:2]
        assert calls[0][2] == state[3] == full[3]


_STANDARD_FORM_CASES = (
    "ex3", "simplex333", "torus-44-1-3", "torus-44-3-7", "torus-36-3-4",
    "torus-63-5-2", "torus-36-1-6", "torus-63-3-3",
)


def _standard_form_case(name):
    entries = catalog()
    if name in entries:
        return entries[name].presentation
    _, family, b, c = name.split("-")
    return torus_presentation(TorusFamily(family, int(b), int(c)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", _STANDARD_FORM_CASES)
def test_table_is_standard_form(name, seed):
    # the table depends on the group and the generator order only: not
    # on the order of the relators, their rotations or their inverses
    p = _standard_form_case(name)
    rng = random.Random(seed)
    relators = []
    for r in p.relators:
        cols = r.cols()
        k = rng.randrange(len(cols))
        r = Word(cols[k:] + cols[:k])
        relators.append(~r if rng.random() < 0.5 else r)
    rng.shuffle(relators)
    variant = dataclasses.replace(p, relators=tuple(relators))
    assert enumerate_group(variant).table == enumerate_group(p).table
