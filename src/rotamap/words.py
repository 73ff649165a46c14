"""Words over named generators, free reduction, and the presentation file format.

A word is a sequence of letters g or g^-1 over the generators of a
presentation.  Internally each letter is a small integer: generator i
contributes 2*i, its inverse 2*i + 1, so flipping a sign is ``col ^ 1``.
This encoding doubles as the column index of a coset table, which keeps
the enumeration engine free of translation layers.

Word arithmetic (``u * v``, ``~w``, ``w ** k``) returns freely reduced
words, so a product of generator words reads as the formula it stands
for.  ``Word(cols)`` keeps its letters exactly as given; ``reduce()``
reduces such a word.  The parser freely reduces relators but keeps the
words of a ``sigma``/``rho`` line as written.

The file format is line oriented, UTF-8, with ``#`` starting a comment:

    gens s1 s2 s3          # exactly one such line, first in the file
    rel s1^4
    rel (s1 s2)^2
    rel s1 s2 = s2 s1      # equations are normalised to u v^-1
    sigma s1 s2 s3         # optional: distinguished rotation generators

Word grammar:  word := term+ ;  term := name [^int] | "(" word ")" [^int].
On a ``sigma``/``rho`` line each top-level term is one distinguished word,
so compound words must be parenthesised: ``sigma d (s1 s2 d^-1)``.
A word or term that would expand to more than ``DEFAULT_CAP`` letters is
a ``ParseError``, raised before its letters are built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# default coset cap of the enumeration engine, and the longest word the
# parser will build
DEFAULT_CAP = 1_000_000


def _reduce_cols(cols) -> tuple:
    out = []
    for c in cols:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def _cyclic_reduce(cols) -> tuple:
    """The freely reduced cols written as a c a^-1 with c cyclically
    reduced: returns c."""
    cols = _reduce_cols(cols)
    i, j = 0, len(cols) - 1
    while i < j and cols[i] == cols[j] ^ 1:
        i += 1
        j -= 1
    return cols[i:j + 1]


class Word:
    """A word in the free group.

    ``u * v``, ``~w`` and ``w ** k`` return the freely reduced product,
    inverse and power.  ``Word(cols)`` keeps the letters it is given,
    reduced or not; ``reduce()`` returns the freely reduced form and is
    idempotent.
    """

    __slots__ = ("_cols",)

    def __init__(self, cols=()):
        cols = tuple(cols)
        for c in cols:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"bad letter encoding: {c!r}")
        self._cols = cols

    @classmethod
    def gen(cls, index: int, power: int = 1) -> "Word":
        if index < 0:
            raise ValueError("generator index must be >= 0")
        col = 2 * index if power >= 0 else 2 * index + 1
        return cls((col,) * abs(power))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    def cols(self) -> tuple:
        return self._cols

    def reduce(self) -> "Word":
        return Word(_reduce_cols(self._cols))

    def max_gen(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((c >> 1 for c in self._cols), default=-1)

    def __mul__(self, other: "Word") -> "Word":
        return Word(_reduce_cols(self._cols + other._cols))

    def __invert__(self) -> "Word":
        return Word(_reduce_cols(c ^ 1 for c in reversed(self._cols)))

    def __pow__(self, k: int) -> "Word":
        # w = a c a^-1 with c cyclically reduced, so w^k = a c^k a^-1 is
        # freely reduced as written: its letters are built once
        if k < 0:
            return (~self) ** -k
        w = _reduce_cols(self._cols)
        if k == 0 or not w or w[0] != w[-1] ^ 1:
            return Word(w * k)
        c = _cyclic_reduce(w)
        i = (len(w) - len(c)) // 2
        return Word(w[:i] + c * k + w[len(w) - i:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._cols == other._cols

    def __hash__(self):
        return hash(self._cols)

    def __len__(self):
        return len(self._cols)

    def __bool__(self):
        return bool(self._cols)

    def __repr__(self):
        return f"Word({self._cols!r})"

    def text(self, names) -> str:
        """Render with generator names, run-length collapsing powers."""
        if not self._cols:
            return "1"
        parts = []
        i, cols = 0, self._cols
        while i < len(cols):
            j = i
            while j < len(cols) and cols[j] == cols[i]:
                j += 1
            g, run = cols[i] >> 1, j - i
            exp = run if cols[i] & 1 == 0 else -run
            parts.append(names[g] if exp == 1 else f"{names[g]}^{exp}")
            i = j
        return " ".join(parts)


def substitute(w: Word, images) -> Word:
    """Replace each letter of w by its image word; result is reduced.

    ``images[g]`` is substituted for generator g, its inverse for g^-1.
    """
    images = list(images)
    n = w.max_gen() + 1
    if len(images) < n:
        raise ValueError(f"need {n} image words, got {len(images)}")
    cols = []
    for c in w.cols():
        img = images[c >> 1]
        cols.extend(img.cols() if c & 1 == 0 else (~img).cols())
    return Word(_reduce_cols(cols))


@dataclass(frozen=True)
class Presentation:
    """Generator names, relator words, and optional distinguished
    generators; generator i is ``names[i]``.

    ``distinguished_kind`` is "sigma" for rotation generators or "rho"
    for involutory reflection generators, mirroring the input line used.
    """

    names: tuple[str, ...]
    relators: tuple = ()
    distinguished: tuple | None = None
    distinguished_kind: str | None = None

    def __post_init__(self):
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name: {name!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        ngens = len(self.names)
        for w in self.relators:
            if w.max_gen() >= ngens:
                raise ValueError("relator references undeclared generator")
        if self.distinguished is not None:
            if not 2 <= len(self.distinguished) <= 4:
                raise ValueError("distinguished list must have 2 to 4 words")
            if self.distinguished_kind not in ("sigma", "rho"):
                raise ValueError("distinguished_kind must be 'sigma' or 'rho'")
            for w in self.distinguished:
                if w.max_gen() >= ngens:
                    raise ValueError(
                        "distinguished word references undeclared generator"
                    )

    @classmethod
    def build(cls, names, relators=(), distinguished=None, kind=None):
        return cls(
            tuple(names),
            tuple(relators),
            tuple(distinguished) if distinguished is not None else None,
            kind,
        )

    @property
    def ngens(self) -> int:
        return len(self.names)

    def with_relators(self, *extra: Word) -> "Presentation":
        for w in extra:
            if w.max_gen() >= self.ngens:
                raise ValueError("relator references undeclared generator")
        return Presentation(
            self.names,
            self.relators + tuple(w.reduce() for w in extra),
            self.distinguished,
            self.distinguished_kind,
        )

    def with_generator(self, name: str) -> "Presentation":
        return Presentation(
            self.names + (name,),
            self.relators,
            self.distinguished,
            self.distinguished_kind,
        )


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\^-?\d+|[()=]|\S")


def _tokenize(line: str, lineno: int):
    tokens = []
    for m in _TOKEN_RE.finditer(line):
        t = m.group()
        if t[0] == "^" and len(t) > 1:
            try:
                k = int(t[1:])
            except ValueError:  # more digits than int() converts
                raise ParseError(lineno, f"exponent of {len(t) - 1} characters") from None
            tokens.append(("exp", k))
        elif t in "()=":
            tokens.append((t, t))
        elif _NAME_RE.fullmatch(t):
            tokens.append(("name", t))
        else:
            raise ParseError(lineno, f"unexpected character {t!r}")
    return tokens


class _WordParser:
    def __init__(self, tokens, gen_map, lineno):
        self.tokens = tokens
        self.pos = 0
        self.gen_map = gen_map
        self.lineno = lineno

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _check_length(self, n: int):
        if n > DEFAULT_CAP:
            raise ParseError(
                self.lineno, f"word of {n} letters, more than {DEFAULT_CAP}"
            )

    def cols(self, one_term: bool = False) -> list:
        """Letters of the terms up to the next unmatched ')' or '=' or the
        end, exponents applied; with ``one_term``, of the next term only.

        Each open parenthesis pushes a letter list on an explicit stack,
        and its ')' pops the list as one term of the list below, so any
        nesting depth parses without recursion."""
        stack = [[]]
        while True:
            tok = self.peek()
            kind = tok[0] if tok is not None else None
            if kind == "(":
                self.pos += 1
                stack.append([])
                continue
            if kind == "name":
                if tok[1] not in self.gen_map:
                    raise ParseError(self.lineno, f"undeclared generator {tok[1]!r}")
                term = [2 * self.gen_map[tok[1]]]
            elif kind == ")" and len(stack) > 1:
                term = stack.pop()
            elif kind in (None, "=") and len(stack) > 1:
                raise ParseError(self.lineno, "missing ')'")
            elif kind in (None, ")", "=") and not one_term:
                return stack[0]
            else:
                raise ParseError(self.lineno, f"unexpected token {tok[1]!r}")
            self.pos += 1
            nxt = self.peek()
            if nxt is not None and nxt[0] == "exp":
                self.pos += 1
                k = nxt[1]
                self._check_length(len(term) * abs(k))
                if k < 0:
                    term = [c ^ 1 for c in reversed(term)]
                term = term * abs(k)
            out = stack[-1]
            self._check_length(len(out) + len(term))
            out.extend(term)
            if one_term and len(stack) == 1:
                return out

    def word(self) -> Word:
        return Word(self.cols())

    def terms(self):
        """Top-level terms of the remaining input, one word each."""
        out = []
        while self.peek() is not None:
            out.append(Word(self.cols(one_term=True)))
        return out


def parse_presentation(text: str) -> Presentation:
    """Parse the file format described in the module docstring."""
    names: list = []
    gen_map: dict = {}
    relators: list = []
    distinguished = None
    kind = None
    seen_gens = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        head, rest = fields[0], fields[1] if len(fields) > 1 else ""
        if head == "gens":
            if seen_gens:
                raise ParseError(lineno, "duplicate gens line")
            seen_gens = True
            for name in rest.split():
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(lineno, f"bad generator name {name!r}")
                if name in gen_map:
                    raise ParseError(lineno, f"duplicate generator name {name!r}")
                gen_map[name] = len(names)
                names.append(name)
            if not names:
                raise ParseError(lineno, "gens line declares no generators")
            continue
        if not seen_gens:
            raise ParseError(lineno, "first directive must be 'gens'")
        if head == "rel":
            tokens = _tokenize(rest, lineno)
            parser = _WordParser(tokens, gen_map, lineno)
            sides = [parser.word()]
            while parser.peek() is not None and parser.peek()[0] == "=":
                parser.pos += 1
                sides.append(parser.word())
            if parser.peek() is not None:
                raise ParseError(lineno, f"unexpected token {parser.peek()[1]!r}")
            if len(sides) == 1:
                relators.append(sides[0].reduce())
            else:
                for u, v in zip(sides, sides[1:]):
                    relators.append(u * ~v)
        elif head in ("sigma", "rho"):
            if distinguished is not None:
                raise ParseError(lineno, "duplicate sigma/rho line")
            parser = _WordParser(_tokenize(rest, lineno), gen_map, lineno)
            words = parser.terms()
            if not 2 <= len(words) <= 4:
                raise ParseError(lineno, f"{head} line needs 2 to 4 words")
            distinguished = tuple(words)
            kind = head
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    if not seen_gens:
        raise ParseError(1, "missing gens line")
    return Presentation.build(names, relators, distinguished, kind)


def serialize_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation for reduced-relator presentations."""
    names = p.names
    lines = ["gens " + " ".join(names)]
    for r in p.relators:
        if r:
            lines.append("rel " + r.text(names))
    if p.distinguished is not None:
        parts = []
        for w in p.distinguished:
            t = w.text(names) if w else "()"
            parts.append(f"({t})" if " " in t else t)
        lines.append(f"{p.distinguished_kind} " + " ".join(parts))
    return "\n".join(lines) + "\n"
