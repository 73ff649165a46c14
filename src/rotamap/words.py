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

Line grammar, after the directive:

    line := side ("=" side)* ;  side := term* ;
    term := name [^int] | "(" side ")" [^int]

A ``rel`` line of one side is that relator; u = v = ... gives u v^-1 for
each neighbouring pair.  A ``sigma``/``rho`` line is one side, and each of
its top-level terms is one distinguished word, so compound words must be
parenthesised: ``sigma d (s1 s2 d^-1)``.  One bound holds on every line:
a term, a parenthesised level or a side of more than ``DEFAULT_CAP``
letters is a ``ParseError``, raised before its letters are built, so the
words of a ``sigma``/``rho`` line are bounded together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

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


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\^-?\d+|[()=]|\S")


def _read_sides(text: str, letters: dict, lineno: int) -> list:
    """The ``=``-separated sides of a word line, each a list of its
    top-level terms, each term a list of letters with its exponent
    applied; ``letters`` maps a generator name to its letter.

    Every token is checked first, so an unexpected character or an
    exponent too long for ``int()`` is reported before a syntax error.
    Each '(' pushes a letter list on an explicit stack and its ')' pops
    the list as one term of the level below, so any nesting depth parses
    without recursion.  A term, a parenthesised level or a side of more
    than ``DEFAULT_CAP`` letters is a ParseError, raised before it is
    built."""

    def bounded(n: int) -> int:
        if n > DEFAULT_CAP:
            raise ParseError(lineno, f"word of {n} letters, more than {DEFAULT_CAP}")
        return n

    tokens = _TOKEN_RE.findall(text)
    for t in tokens:
        if t[0] == "^" and len(t) > 1:
            try:
                int(t[1:])
            except ValueError:  # more digits than int() converts
                raise ParseError(lineno, f"exponent of {len(t) - 1} characters") from None
        elif t not in "()=" and not _NAME_RE.fullmatch(t):
            raise ParseError(lineno, f"unexpected character {t!r}")
    terms, size = [], 0
    sides, stack = [terms], []
    i, n = 0, len(tokens)
    while i < n:
        t = tokens[i]
        i += 1
        if t in letters:
            term = [letters[t]]
        elif t == "(":
            stack.append([])
            continue
        elif t == ")" and stack:
            term = stack.pop()
        elif t == "=" and stack:
            raise ParseError(lineno, "missing ')'")
        elif t == "=":
            terms, size = [], 0
            sides.append(terms)
            continue
        elif t == ")" or t[0] == "^":
            raise ParseError(lineno, f"unexpected token {t!r}")
        else:
            raise ParseError(lineno, f"undeclared generator {t!r}")
        if i < n and tokens[i][0] == "^":
            k = int(tokens[i][1:])
            i += 1
            bounded(len(term) * abs(k))
            if k < 0:
                term = [c ^ 1 for c in reversed(term)]
            term *= abs(k)
        if stack:
            bounded(len(stack[-1]) + len(term))
            stack[-1] += term
        else:
            size = bounded(size + len(term))
            terms.append(term)
    if stack:
        raise ParseError(lineno, "missing ')'")
    return sides


def parse_presentation(text: str) -> Presentation:
    """Parse the file format described in the module docstring."""
    names: list = []
    letters: dict = {}
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
                if name in letters:
                    raise ParseError(lineno, f"duplicate generator name {name!r}")
                letters[name] = 2 * len(names)
                names.append(name)
            if not names:
                raise ParseError(lineno, "gens line declares no generators")
            continue
        if not seen_gens:
            raise ParseError(lineno, "first directive must be 'gens'")
        if head == "rel":
            sides = [Word(_reduce_cols(chain.from_iterable(s)))
                     for s in _read_sides(rest, letters, lineno)]
            if len(sides) == 1:
                relators.append(sides[0])
            else:
                relators.extend(u * ~v for u, v in zip(sides, sides[1:]))
        elif head in ("sigma", "rho"):
            if distinguished is not None:
                raise ParseError(lineno, "duplicate sigma/rho line")
            terms, *more = _read_sides(rest, letters, lineno)
            if more:
                raise ParseError(lineno, "unexpected token '='")
            if not 2 <= len(terms) <= 4:
                raise ParseError(lineno, f"{head} line needs 2 to 4 words")
            distinguished = tuple(map(Word, terms))
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
