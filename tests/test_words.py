import random
import time

import pytest

from rotamap import (
    DEFAULT_CAP,
    ParseError,
    Presentation,
    Word,
    parse_presentation,
    serialize_presentation,
    substitute,
)

s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


def random_word(rng, ngens=3, maxlen=12):
    cols = [rng.randrange(2 * ngens) for _ in range(rng.randrange(maxlen + 1))]
    return Word(cols)


class TestWordArithmetic:
    def test_reduce_cancellation(self):
        assert (s1 * ~s1).reduce() == Word()

    def test_reduce_inner_cancellation(self):
        assert (s1 * s2 * ~s2 * s3).reduce() == s1 * s3

    def test_reduce_identity(self):
        assert Word().reduce() == Word()

    def test_reduce_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_word(rng)
            assert w.reduce().reduce() == w.reduce()

    def test_invert_definition(self):
        assert ~(s1 * s2) == ~s2 * ~s1

    def test_invert_identity(self):
        assert ~Word() == Word()

    def test_invert_involutive(self):
        assert ~~s1 == s1

    def test_mul_by_inverse_reduces_to_identity(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng)
            assert (w * ~w).reduce() == Word()

    def test_power_negative(self):
        assert s1 ** -2 == ~s1 * ~s1


class TestSubstitute:
    def test_swap(self):
        assert substitute(s1 * s2, [s2, s1]) == s2 * s1

    def test_inverse_of_image(self):
        got = substitute(~s1, [s2 * s3, s1, s1])
        assert got == ~s3 * ~s2

    def test_identity_word(self):
        assert substitute(Word(), [s2, s1]) == Word()

    def test_identity_images_fix_reduced_words(self):
        rng = random.Random(13)
        images = [s1, s2, s3]
        for _ in range(200):
            w = random_word(rng).reduce()
            assert substitute(w, images) == w

    def test_image_count_mismatch(self):
        with pytest.raises(ValueError):
            substitute(s3, [s1])


class TestParsing:
    def test_power_relator(self):
        p = parse_presentation("gens a\nrel a^4\n")
        assert p.names == ("a",)
        assert p.relators == (Word.gen(0) ** 4,)

    def test_parenthesised_power(self):
        p = parse_presentation("gens s1 s2\nrel (s1 s2)^2\n")
        assert p.relators == ((s1 * s2) ** 2,)

    def test_undeclared_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("gens s1\nrel s2^2\n")
        assert exc.value.line == 2
        assert "undeclared" in str(exc.value)

    def test_duplicate_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a a\n")

    def test_gens_must_come_first(self):
        with pytest.raises(ParseError):
            parse_presentation("rel a^2\ngens a\n")

    def test_comments_and_blank_lines(self):
        p = parse_presentation("# a comment\n\ngens a b  # trailing\nrel a^2\n")
        assert p.names == ("a", "b")

    def test_equation_normalised(self):
        p = parse_presentation("gens a b\nrel a b = b a\n")
        a, b = Word.gen(0), Word.gen(1)
        assert p.relators == (a * b * ~a * ~b,)

    def test_negative_exponent(self):
        p = parse_presentation("gens s3\nrel s3^-1\n")
        assert p.relators == (~Word.gen(0),)

    def test_relators_freely_reduced(self):
        p = parse_presentation("gens a b\nrel a b b^-1 a\n")
        a = Word.gen(0)
        assert p.relators == (a * a,)

    def test_sigma_line_compound_terms(self):
        p = parse_presentation(
            "gens s1 s2 d\nrel d^2\nsigma d (s1 s2 d^-1)\n"
        )
        d = Word.gen(2)
        assert p.distinguished_kind == "sigma"
        assert p.distinguished == (d, s1 * s2 * ~d)

    def test_rho_line(self):
        p = parse_presentation("gens r0 r1 r2\nrho r0 r1 r2\n")
        assert p.distinguished_kind == "rho"
        assert len(p.distinguished) == 3

    def test_sigma_word_count_bounds(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a\nsigma a\n")

    def test_duplicate_sigma_line(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a b\nsigma a b\nsigma b a\n")

    def test_syntax_error_has_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("gens a\nrel a^\n")
        assert exc.value.line == 2

    def test_exponent_with_too_many_digits(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("gens a\nrel a^" + "9" * 5000 + "\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line, message", [
        ("gens a\ngens b\n", 2, "duplicate gens line"),
        ("gens a-b\n", 1, "bad generator name 'a-b'"),
        ("# none yet\ngens\n", 2, "gens line declares no generators"),
        ("gens a b\nrel a b )\n", 2, "unexpected token ')'"),
        # the exponent token carries its value, so the message shows 2
        ("gens a\n\nsigma ^2 a\n", 3, "unexpected token 2"),
    ], ids=["second-gens", "bad-name", "bare-gens", "unmatched-close", "leading-exponent"])
    def test_parse_error_names_its_line(self, text, line, message):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert (exc.value.line, exc.value.message) == (line, message)


class TestPresentationChecks:
    @pytest.mark.parametrize("args, message", [
        ((("a", "1b"),), "bad generator name: '1b'"),
        ((("a", "a"),), "duplicate generator names"),
        ((("a",), (s2,)), "relator references undeclared generator"),
        ((("a", "b"), (), (s1, s3), "sigma"), "distinguished word references undeclared"),
        ((("a",), (), (s1,), "sigma"), "distinguished list must have 2 to 4 words"),
        ((("a",), (), (s1,) * 5, "rho"), "distinguished list must have 2 to 4 words"),
        ((("a",), (), (s1, s1), "tau"), "distinguished_kind must be 'sigma' or 'rho'"),
    ], ids=["bad-name", "duplicate-names", "undeclared-relator", "undeclared-distinguished",
            "one-distinguished", "five-distinguished", "unknown-kind"])
    def test_bad_presentation_is_value_error(self, args, message):
        with pytest.raises(ValueError, match=message):
            Presentation(*args)

    def test_with_relators_of_an_undeclared_generator(self):
        p = Presentation(("a", "b"))
        with pytest.raises(ValueError, match="relator references undeclared generator"):
            p.with_relators(s1 * s3)


class TestDeepNesting:
    """Nesting is parsed with an explicit stack, so its depth is bounded
    only by the letters it holds."""

    def test_5000_levels_parse(self):
        text = "(" * 5000 + "a" + ")" * 5000
        p = parse_presentation(f"gens a b\nrel {text}\nsigma {text} b\n")
        assert p.relators == (Word.gen(0),)
        assert p.distinguished == (Word.gen(0), Word.gen(1))

    def test_5000_unmatched_parentheses_fail_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="missing '\\)'"):
            parse_presentation("gens a\nrel " + "(" * 5000 + "a\n")
        assert time.perf_counter() - t0 < 2.0


def random_expression(rng, depth=0):
    """Random word text over s1 s2 s3, the word of its letters as
    written, built by concatenating letters with ``Word(...)``, and the
    reduced word that Word arithmetic gives for it."""
    parts, letters, word = [], [], Word.identity()
    for _ in range(rng.randrange(1, 4)):
        if depth < 3 and rng.random() < 0.3:
            text, written, w = random_expression(rng, depth + 1)
            text, term = f"({text})", list(written.cols())
        else:
            g = rng.randrange(3)
            text, term, w = f"s{g + 1}", [2 * g], Word.gen(g)
        if rng.random() < 0.5:
            k = rng.randrange(-4, 5)
            text, w = f"{text}^{k}", w ** k
            if k < 0:
                term = [c ^ 1 for c in reversed(term)]
            term = term * abs(k)
        parts.append(text)
        letters += term
        word = word * w
    return " ".join(parts), Word(letters), word


class TestParserAgainstWordArithmetic:
    def test_random_nested_expressions(self):
        rng = random.Random(5)
        for _ in range(200):
            (t1, l1, w1), (t2, l2, w2) = random_expression(rng), random_expression(rng)
            p = parse_presentation(
                f"gens s1 s2 s3\nrel {t1} = {t2}\nsigma ({t1}) ({t2})\n"
            )
            assert p.distinguished == (l1, l2)
            assert tuple(w.reduce() for w in p.distinguished) == (w1, w2)
            assert p.relators == (w1 * ~w2,)


class TestWordLengthBound:
    """Words longer than DEFAULT_CAP letters are refused before they are
    built, so hostile exponents cost neither time nor memory."""

    def test_single_term_at_and_over_the_bound(self):
        p = parse_presentation(f"gens a\nrel a^{DEFAULT_CAP}\n")
        assert len(p.relators[0]) == DEFAULT_CAP
        with pytest.raises(ParseError) as exc:
            parse_presentation(f"gens a\nrel a^-{DEFAULT_CAP + 1}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text", [
        "rel ((a^1000)^1000)^20 b",
        "rel (a b)^600000",
        "rel a^999999 b^2",
        "rel a^600000 = b^600000 a^600000",
        "sigma a (b^1000)^1001",
        "rel a^99999999999999999999999",
    ])
    def test_over_the_bound_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            parse_presentation(f"gens a b\n{text}\n")
        assert "more than 1000000" in str(exc.value)


class TestRoundTrip:
    def test_serialize_parse_roundtrip_random(self):
        rng = random.Random(17)
        names = ["s1", "s2", "s3"]
        for _ in range(50):
            rels = [
                random_word(rng).reduce() for _ in range(rng.randrange(1, 5))
            ]
            rels = [r for r in rels if r]
            dist = None
            kind = None
            if rng.random() < 0.5:
                dist = [s1, s2 * ~s3]
                kind = "sigma"
            p = Presentation.build(names, rels, dist, kind)
            assert parse_presentation(serialize_presentation(p)) == p

    def test_roundtrip_catalog_style(self):
        text = (
            "gens s1 s2 s3\nrel s1^4\nrel (s1 s2)^2\n"
            "rel s2^-1 s1 s2^-1 s1\nsigma s1 s2 s3\n"
        )
        p = parse_presentation(text)
        assert parse_presentation(serialize_presentation(p)) == p
