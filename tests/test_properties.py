"""Property tests of the presentation format and of derived quotients,
with Hypothesis.

Examples are derandomized and their number is fixed, so the suite stays
deterministic."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rotamap import (
    ParseError,
    Presentation,
    Word,
    enumerate_group,
    parse_presentation,
    serialize_presentation,
)
from rotamap.engine import _row_scan

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True)


def _words(ngens, reduced):
    words = st.lists(st.integers(0, 2 * ngens - 1), min_size=1, max_size=12).map(Word)
    if reduced:
        words = words.map(Word.reduce).filter(bool)
    return words


@st.composite
def presentations(draw):
    names = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    relators = draw(st.lists(_words(len(names), reduced=True), max_size=5))
    distinguished = kind = None
    if draw(st.booleans()):
        distinguished = draw(st.lists(_words(len(names), reduced=False), min_size=2, max_size=4))
        kind = draw(st.sampled_from(["sigma", "rho"]))
    return Presentation.build(names, relators, distinguished, kind)


@PROPERTY
@given(presentations())
def test_serialize_parse_roundtrip(p):
    assert parse_presentation(serialize_presentation(p)) == p


_grammar_text = st.text(
    alphabet=st.sampled_from(list("gens rel sigma rho ab()^-=#\n0123456789_")) | st.characters(),
    max_size=80,
)


@PROPERTY
@given(st.one_of(st.text(max_size=80), _grammar_text, _grammar_text.map("gens a b\n".__add__)))
def test_parser_raises_only_parse_errors(text):
    try:
        parse_presentation(text)
    except ParseError:
        pass


def _standard(rep):
    return _row_scan(rep.table.rows.__getitem__, range(rep.order))


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
    assert _standard(q) == _standard(oracle)
