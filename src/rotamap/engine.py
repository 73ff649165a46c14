"""Finite group models via Todd-Coxeter coset enumeration.

Enumeration runs over the trivial subgroup, so cosets are group elements
and the completed table is the regular permutation representation.  The
strategy is a Felsch/HLT hybrid (Havas, "Coset enumeration strategies",
ISSAC 1991).  Cosets are defined at the first missing table entry
(scanning rows in index order, columns in generator order), and a
deduction stack closes the consequences of each new entry before the
next definition.  A relator with more than ``LONG_PERIOD`` (8) distinct
rotations is instead closed once at each coset, HLT style, when the
definition loop reaches it; see ``_enumerate_cosets``.  Most of those
cycles are closed already by then, so the loop first walks every long
relator from a window of cosets at once, one list comprehension per
letter, and closes only the cycles that walk finds open, and a scan
interrupted by its one definition resumes where it stopped.  The table
being built is stored by column too, one list per column, so a scan
binds the column lists of its letters once and takes each step as
``col[f]``, and each list ends in a -1 sentinel, so a walk that meets a
gap stays at -1.

The live cosets are then numbered in row-scan order: the identity is 0,
and every other element gets the next number where it first appears
when the rows are read in order, each in column order.  That is the
standard form of Sims (*Computation with Finitely Presented Groups*,
1994): the table is a function of the group and the generator order alone,
whatever order the cosets were defined in, and does not depend on the
order, rotation or inversion of the relators.  The test suite relies on
it.

Column encoding matches rotamap.words: generator i occupies column 2*i,
its inverse column 2*i + 1, so the inverse column is ``col ^ 1``.  A
completed table (``CosetTable``) is stored by column: ``cols[x][e]`` is
element e times letter x, one tuple per column.  That takes one tuple per
column instead of one per element (the tuples of ex2's table, 20,160
elements, take 0.97 MB instead of 1.94 MB as rows, and those of its
extension 2.58 MB instead of 4.52 MB; the ints are shared), and it lets
a pass over many elements apply one letter to all of them at once, ``ys =
[col[y] for y in ys]``, instead of one interpreted lookup per element and
letter.  ``_verify`` checks a table with such passes, a few per
generator: it certifies that the table is a regular representation and
then walks each relator from the identity only.  The one whole-group
closure, ``_incremental_closure``, goes one breadth-first level at a
time: each Schreier word is applied letter by letter to the whole level,
and one loop merges the images.  It marks each element with the pass
(block) that reached it, so the marks spell every element reached as a
word in the generators it closed over, with no parent list.  ``rows`` is
only a view built on demand.

The yes/no queries stop the closure once it holds more than half the
group, as no proper subgroup is that large (Lagrange).  ``basis(words)``
keeps that half ball and its marks, or gives None if the words generate
a proper subgroup (``generates``).  An automorphism question is then a
homomorphism check read off a basis, with no closure of its own: each
generator's image phi(g) = psi(y)^-1 psi(y g) comes from two reached
elements y and y g, psi substituting the images into their words, and
phi must send every relator to 1 (von Dyck) and every source word to its
image word.  The verdict is exact: some endomorphism sends the sources
to the images exactly when the check passes.  It needs the presentation
to present the table's group, which every ``GroupRep`` built here does
(see its docstring).  ``endomorphism_exists`` is that check alone, for
callers whose maps are one to one whenever they are endomorphisms (the
rank-3 and rank-4 form tests, on the basis their wrapper's generation
check built).  ``automorphism_exists`` adds a half closure over the
images, as a homomorphism onto a finite group is one to one, and
``generator_map_automorphism``, whose full permutation ``extend`` needs,
spreads phi along the Schreier tree and checks that its images are
distinct.

Every ``GroupRep`` attribute is set in ``__init__``, and none is added
or cached later; the coset cap is an ``__init__`` argument for that
reason.  Attribute loads are on the hot path of the per-element queries,
and a lazily cached attribute is slower to load: with the columns held
in a ``functools.cached_property``, ``involutions`` ran 1.6 times and
``normal_closure`` 1.25 times as long on four torus groups as with them
set in ``__init__`` (CPython 3.11.7), likely because CPython 3.11 does
not specialise the load of an instance attribute that a class-level
descriptor shadows.

Each new table edge ``c --x--> d`` is one deduction, ``(c, x)``: it is
checked against every rotation of a short relator or its inverse that
starts with x, at most ``LONG_PERIOD`` of each.  Those rotations are
grouped by first letter and stored as index ranges into one doubled copy
``w + w`` of each distinct cyclic word, with the column lists of its
letters bound once per doubled word, so they take space linear in the
relator lengths.

Coincidences (two cosets proved equal) are processed eagerly with a
union-find structure, migrating table entries to the surviving coset and
feeding each migrated entry back into the deduction stack.

Groups derived from a complete table, an index-2 extension
(``GroupRep.extend``) or a quotient (``GroupRep.quotient``), are built
from that table without enumerating, and put in row-scan standard form
too; ``tests/test_derived.py`` compares the two row for row.  An
extension is certified from the generators and the identity row (see
``extend``); a quotient, whose table is right only if ``normal_closure``
is, is checked by ``_verify`` like an enumerated table.
"""

from __future__ import annotations

from collections import deque
from operator import eq, lt

from .errors import CapExceededError, CollapseError, InconsistencyError
from .words import DEFAULT_CAP, Presentation, Word, _cyclic_reduce, _reduce_cols


# relators with more distinct rotations than this are closed once per
# coset instead of scanned at every new edge; see _enumerate_cosets
LONG_PERIOD = 8

# the definition loop walks the long relators from this many cosets at
# once, and closes only the cycles that walk finds open; see
# _enumerate_cosets
WINDOW = 256


def _short_period(w):
    """Number of distinct rotations of w if it is at most ``LONG_PERIOD``,
    else None.  That number is the least p with w = u^(len(w)/p) for a
    word u of p letters: the least p dividing len(w) at which w repeats."""
    n = len(w)
    for p in range(1, min(n, LONG_PERIOD) + 1):
        if n % p == 0 and w[p:] == w[:n - p]:
            return p
    return None


def _bind(w, cols):
    """The column lists of the letters of w, and of their inverses."""
    return tuple([cols[c] for c in w]), tuple([cols[c ^ 1] for c in w])


def _rotations_by_column(relators, cols):
    """All cyclic rotations of each relator and its inverse, grouped by
    first letter and deduplicated, in order of first occurrence.  Every
    relator must be short: at most ``LONG_PERIOD`` distinct rotations.
    ``cols`` holds one list per table column.

    A rotation is stored as ``(ww, fw, bw, start, end)``: the letters
    ``ww[start..end]`` (inclusive) of the doubled word ``ww = w + w``,
    which all rotations of w share, and ``fw, bw = _bind(ww, cols)``,
    shared the same way, so storage is linear in the relator lengths.
    Two words have a rotation in common exactly when they have the same
    least rotation, the least of the first p for a word with p distinct
    rotations.  So a word whose least rotation was seen before adds
    nothing; otherwise its rotations at offsets below p are new and
    pairwise distinct, and the later ones repeat them.
    """
    buckets = [[] for _ in cols]
    seen = set()
    for r in relators:
        p = _short_period(r)
        inv = tuple(c ^ 1 for c in reversed(r))
        for w in (r, inv):
            n = len(w)
            ww = w + w
            key = min(ww[i:i + n] for i in range(p))
            if key in seen:
                continue
            seen.add(key)
            fw, bw = _bind(ww, cols)
            for i in range(p):
                buckets[w[i]].append((ww, fw, bw, i, i + n - 1))
    return [tuple(b) for b in buckets]


def _enumerate_cosets(ncols, relators, cap):
    """Run the enumeration; returns (cols, parent) before compression,
    ``cols[x][c]`` the raw table entry of coset c in column x, or -1.  A
    coset c is live when ``parent[c] == c``; a coincidence points the
    larger coset at the smaller, so ``parent[c] <= c`` always.

    A relator with at most ``LONG_PERIOD`` distinct rotations is short
    and is handled Felsch style.  Every new table edge ``c --x--> d`` is
    pushed once, as ``(c, x)``, and its deduction scans the short
    relator rotations that start with x from c.  That reaches every
    short relator cycle through the edge.  A cycle that crosses it
    forwards is the rotation of its relator that starts with x at c.  A
    cycle that crosses it backwards, as ``d --x^-1--> c``, is the same
    closed path read in reverse by the inverse relator, whose rotation
    starting with x at c is in the buckets too.  Pushing ``(d, x^-1)``
    as well would only scan the same cycles again.

    A long relator is closed HLT style instead, once per coset: when the
    definition loop reaches a live coset, it first scans each long
    relator there, forward to the first gap and backward to the last.  A
    closed mismatch is a coincidence and a one-letter gap a deduction; a
    longer gap gets one definition at its forward end, whose deductions
    are drained before the scan goes on.  Then the coset's row is filled,
    each new edge going through the short-relator deductions.

    Two shortcuts skip only scan work that does nothing, so the cosets
    defined, in their order, and the table are those of a loop that
    closes every long relator at every coset and rescans from the coset
    after each definition (``tests/oracle.hlt_reference``; the tests
    compare the raw tables and parents).

    - **Window.**  Reaching a live coset past the current window, the
      loop opens a new window there: that coset and the ones after it
      defined so far, ``WINDOW`` (256) at most.  It walks each long
      relator from all of them at once, ``xs = [col[x] for x in xs]``
      per letter.  Every column list ends in a -1
      sentinel (``col[-1] == -1``; each new coset takes the sentinel's
      slot and appends a new one), so a walk that meets a gap stays at
      -1.  A coset whose walk comes back to it has its cycle closed, and
      the loop skips its ``close``.  That call would do nothing: the
      table only gains entries, and a coincidence maps closed paths to
      closed paths (see "Sound" below), so the cycle is still closed
      when the loop gets there, and ``close`` returns at once on a
      closed cycle.
    - **Resume.**  After the definition at the forward end of a gap,
      the forward scan goes on from where it stopped.  Unless a
      coincidence ran in that definition's drain (``coincide`` counts
      its merges), the path walked from the coset is unchanged, so a
      rescan would retrace it.  After a coincidence the scan starts
      afresh, or stops if the coset died.

    Over one pass of the torus-sweep benchmark (85 tori, seed 9001),
    107,365 of the 110,912 ``close`` calls found the cycle closed, and
    they walked 5.30M of its 6.56M forward steps; 58,284 scans restarted
    after a definition.  With a window of 256, 97,322 calls are skipped
    (101,056 at 64, 93,300 at 1,024) and the remaining ones walk 0.59M
    forward steps, against 5.83M steps in the windows.  A step in a
    comprehension is the cheaper one: 33 ns against 53 ns for a step of
    the scan loop, walking 100 letters from 256 cosets, before the cost
    of the call.  Over one catalog pass, 133,340 of 145,328 calls
    found the cycle closed (1.36M of 1.62M steps) and 118,605 are
    skipped (122,517 at 64, 111,672 at 1,024, 76,175 with one window over
    all cosets).  Enumerating the 126 tori {4,4}, {3,6} and {6,3}(b, c)
    with b even and c odd, b, c <= 12, took 0.80 to 0.84 times as long
    in three sets of alternating rounds, and the 13 catalog presentations
    0.87 to 0.99 times.  Windows of 64 to 512 were within the host's noise
    of each other; the small groups that collapse, which pay for windows
    they do not use, stayed at 0.99 to 1.02 times (ex3) and 0.99 to 1.17
    times (ex2q7).  Times on a shared 2-core Xeon, CPython 3.11.7.

    Felsch scans every rotation of a relator at every new edge, so a
    relator of period L costs about n L^2 table steps on n cosets, and
    the HLT scan about n L.  On the 468 torus groups {4,4}, {3,6} and
    {6,3}(b,c) with b <= 12 and c <= 12, whose translation relators have
    up to 106 letters, enumeration took 4.6 s instead of 54 s under pure
    Felsch, with at most 1.38 times the order defined.  The bound of 8
    also sends the torus translation relators of the rank-4 entries, of
    9 to 13 rotations, to HLT: ex2 (order 20,160) defines 22,508 rows
    instead of 20,648 but enumerates in 0.30 s instead of 0.53 s, and ex3
    (order 672) 716 rows instead of 675 in 7 ms instead of 14 ms, against
    a bound of 16 (fastest of 15 runs).  The 13 catalog entries took
    0.89 s in all at a bound of 8, 1.37 to 1.43 s at 10 or 12 and 1.55 s
    at 16; below 8, ex1's period-8 translation relators would change
    strategy too.

    The period, not the length, decides.  A proper power u^k has only
    |u| rotations, so Felsch scans it cheaply, while closing it once per
    coset where it makes a quotient collapse defines far more rows: ex1
    with (s1 s3)^29, of order 4, took 68,243 rows under a 16-letter rule
    and takes Felsch's 1,736 under this one.  Every Petrie relator
    (s1 s3)^k has period 2, so it stays in the Felsch buckets whatever k
    is.  The cost: a long primitive relator that makes a group collapse
    can define more rows than Felsch (ex2q7 with six random 60-letter
    relators that collapse it: 3,010 to 9,630 rows against Felsch's 746
    to 3,036, in 28 to 81 ms against 45 to 312 ms).  The cap still bounds
    the run.

    The table is kept by column, ``cols[x][c]``, and every rotation and
    long relator binds the column lists of its letters, and of their
    inverses, once (``_bind``), so a scan step is ``fw[i][f]``.  Every
    rotation in the bucket of a deduction ``(c, x)`` starts with the edge
    ``c --x--> d``, so d is read once and read again only after the
    bucket's scans change the table.  That is the work of a table kept
    as one list per coset, in the same order, so it defines the same
    rows and builds the same table, in about half the memory and faster:
    ex2 took 0.30 s instead of 0.33 s at this bound, and 0.53 s instead
    of 0.72 s at a bound of 16.  Times on a shared 2-core Xeon, CPython
    3.11.7.

    Sound: Felsch closes every short relator cycle.  A coset live at the
    end was live when the loop reached it, and every long relator cycle
    at it was closed then, by ``close`` or already when its window was
    walked.  A coincidence maps closed paths to closed
    paths, so they stay closed.  ``enumerate_group`` checks the table
    against the presentation all the same.
    """
    # coset 0's entries and the sentinel: col[-1] == -1 always, as each
    # new coset takes the sentinel's slot, so a walk stays at -1 past a gap
    cols = [[-1, -1] for _ in range(ncols)]
    parent = [0]
    long_relators = [(w, *_bind(w, cols)) for w in relators if _short_period(w) is None]
    rot_by_col = _rotations_by_column(
        [r for r in relators if _short_period(r) is not None], cols)
    columns = [(x, cols[x], cols[x ^ 1]) for x in range(ncols)]
    stack = []
    push = stack.append
    merges = 0

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def coincide(a, b):
        nonlocal merges
        a, b = find(a), find(b)
        if a == b:
            return
        merges += 1
        if a > b:
            a, b = b, a
        parent[b] = a
        q = deque((b,))
        while q:
            g = q.popleft()
            for x, col, inv in columns:
                d = col[g]
                if d < 0:
                    continue
                inv[d] = -1
                mu = find(g)
                nu = find(d)
                e = col[mu]
                if e >= 0:
                    e = find(e)
                    if e != nu:
                        u, v = (e, nu) if e < nu else (nu, e)
                        parent[v] = u
                        q.append(v)
                elif inv[nu] >= 0:
                    e = find(inv[nu])
                    if e != mu:
                        u, v = (e, mu) if e < mu else (mu, e)
                        parent[v] = u
                        q.append(v)
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    push((mu, x))

    def drain():
        while stack:
            c, x = stack.pop()
            while parent[c] != c:
                c = parent[c]
            # every rotation in the bucket starts with the edge c --x--> d
            cx = cols[x]
            d = cx[c]
            for ww, fw, bw, i, j in rot_by_col[x]:
                # scan the relator rotation ww[i..j] from coset c; it must
                # close up
                if d < 0:
                    f = c
                else:
                    f = d
                    i += 1
                while i <= j:
                    nxt = fw[i][f]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != c:
                        coincide(f, c)
                        while parent[c] != c:
                            c = parent[c]
                        d = cx[c]
                    continue
                b = c
                while j >= i:
                    nxt = bw[j][b]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    coincide(f, b)
                    while parent[c] != c:
                        c = parent[c]
                    d = cx[c]
                elif j == i:
                    fw[i][f] = b
                    bw[i][b] = f
                    push((f, ww[i]))
                    d = cx[c]

    def define(c, x):
        # a new coset at the empty entry c --x-->, and its deductions;
        # it takes the sentinel's slot, and a new sentinel goes after it
        n = len(parent)
        if n >= cap:
            live = sum(1 for k in range(n) if parent[k] == k)
            raise CapExceededError(cap, live)
        for col in cols:
            col.append(-1)
        parent.append(n)
        cols[x][c] = n
        cols[x ^ 1][n] = c
        push((c, x))
        drain()

    def close(c, w, fw, bw):
        # close the cycle of the long relator w at coset c, or stop when
        # c dies in a coincidence
        if parent[c] != c:
            return
        last = len(w) - 1
        f = c
        i = 0
        while True:
            while i <= last:
                nxt = fw[i][f]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i > last:
                if f != c:
                    coincide(f, c)
                    drain()
                return
            b = c
            j = last
            while j >= i:
                nxt = bw[j][b]
                if nxt < 0:
                    break
                b = nxt
                j -= 1
            if j > i:
                # one definition; the path from c to f stands unless a
                # coincidence ran, so the scan resumes at f
                seen = merges
                define(f, w[i])
                if merges != seen:
                    if parent[c] != c:
                        return
                    f = c
                    i = 0
                continue
            if j < i:
                coincide(f, b)
            else:
                fw[i][f] = b
                bw[i][b] = f
                push((f, w[i]))
            drain()
            return

    i = 0
    hi = 0
    while i < len(parent):
        if parent[i] == i:
            if i >= hi:
                # walk every long relator from a window of cosets at once,
                # and keep the cycles still open
                lo, hi = i, min(i + WINDOW, len(parent))
                starts = range(lo, hi)
                todo = []
                for _, fw, _ in long_relators:
                    xs = starts
                    for col in fw:
                        xs = [col[x] for x in xs]
                    todo.append([x != s for x, s in zip(xs, starts)])
            for (w, fw, bw), still_open in zip(long_relators, todo):
                if still_open[i - lo]:
                    close(i, w, fw, bw)
            for x, col, _ in columns:
                if parent[i] != i:
                    break
                if col[i] < 0:
                    define(i, x)
        i += 1
    for col in cols:
        col.pop()
    return cols, parent


class CosetTable:
    """A completed coset table, stored by column: ``cols[x][e]`` is the
    element e times the letter of column x, one tuple per generator and
    per inverse generator.  ``rows`` is a read-only view, built on each
    access, with ``rows[e][x] == cols[x][e]``."""

    __slots__ = ("cols", "ngens")

    def __init__(self, cols, ngens):
        self.cols = cols
        self.ngens = ngens

    @property
    def rows(self):
        return tuple(zip(*self.cols))

    @property
    def ncols(self):
        return 2 * self.ngens

    def __len__(self):
        return len(self.cols[0])

    def __eq__(self, other):
        return (
            isinstance(other, CosetTable)
            and self.ngens == other.ngens
            and self.cols == other.cols
        )


class SubgroupHandle:
    """A subgroup of a GroupRep: the frozenset of its element indices."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = frozenset(elements)

    @property
    def size(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements


class Basis:
    """The half ball of a generating tuple of words (``GroupRep.basis``):
    the words ``sources`` and the ``mark`` and ``blocks`` of their
    closure, stopped once it held more than half the group (see
    ``GroupRep._incremental_closure``).  An element y is reached when
    ``mark[y]`` is not 0.  ``back[j]`` is the column tuples of a word for
    the inverse of source j, which steps back from an element that
    source's block reached."""

    __slots__ = ("sources", "mark", "blocks", "back")

    def __init__(self, sources, mark, blocks, back):
        self.sources = sources
        self.mark = mark
        self.blocks = blocks
        self.back = back

    def word(self, y) -> list:
        """Source positions j1, ..., jk with y = s_j1 ... s_jk, for a
        reached element y: read back from its mark, the block that
        reached y used source jk, and y s_jk^-1 has a smaller mark."""
        mark = self.mark
        if not mark[y]:
            raise ValueError(f"element {y} is not in the half ball")
        out = []
        while y != 0:
            j = self.blocks[mark[y]]
            out.append(j)
            for col in self.back[j]:
                y = col[y]
        out.reverse()
        return out


def _bounded_relators(p: Presentation, cap: int) -> list:
    """The relators of p cyclically reduced, duplicates dropped; raises
    ValueError if they hold more than ``cap`` letters in all."""
    seen = {}
    relators = []
    for w in p.relators:
        r = _cyclic_reduce(w.cols())
        if r and r not in seen:
            seen[r] = None
            relators.append(r)
    letters = sum(map(len, relators))
    if letters > cap:
        raise ValueError(
            f"relators hold {letters} letters in all, more than the cap {cap}"
        )
    return relators


def _check_extension_shape(base: Presentation, presentation: Presentation, sources):
    """Raise ValueError unless ``presentation`` is ``base`` with one
    generator d appended, holds every relator of ``base``, and has, read
    cyclically, a relator d^+-2 v and, for each source word s, a relator
    d^+-1 s d^+-1 v, where v is free of d (``GroupRep.extend``)."""
    k = base.ngens
    if presentation.ngens != k + 1:
        raise ValueError("the extension must add exactly one generator")
    have = {r.cols() for r in presentation.relators}
    if any(r.cols() not in have for r in base.relators):
        raise ValueError("the extension drops a relator of the group")
    square = False
    conjugated = set()
    for r in presentation.relators:
        w = r.cols()
        at = [i for i, c in enumerate(w) if c >> 1 == k]
        if len(at) != 2:
            continue
        i, j = at
        inner, outer = w[i + 1:j], w[j + 1:] + w[:i]
        square = square or (w[i] == w[j] and not (inner and outer))
        conjugated.add(_reduce_cols(inner))
        conjugated.add(_reduce_cols(outer))
    d = presentation.names[k]
    if not square:
        raise ValueError(f"no relator {d}^2 v or {d}^-2 v with v free of {d}")
    for s in sources:
        if _reduce_cols(s.cols()) not in conjugated:
            raise ValueError(
                f"no relator {d}^+-1 s {d}^+-1 v with v free of {d} for the "
                f"source s = {s.text(base.names)}"
            )


def enumerate_group(p: Presentation, cap: int = DEFAULT_CAP):
    """Enumerate the group presented by p over the trivial subgroup.

    The table is in row-scan standard form, so it depends only on the
    group and the order of p's generators.  Raises CapExceededError if
    more than ``cap`` cosets get defined, counting those later found
    equal to others (a torus group defines up to about 1.4 times its
    order), and ValueError for an empty generator list or for relators
    (cyclically reduced, duplicates dropped) of more than ``cap`` letters
    in all, since the work at each coset grows with their letters: each
    deduction scans up to ``LONG_PERIOD`` rotations of every short
    relator, and each coset walks every long relator once.  The completed
    table is checked against the presentation (``GroupRep._verify``):
    columns are mutually inverse permutations, the table is a regular
    representation and so every relator, which fixes the identity, fixes
    every coset.
    """
    if p.ngens == 0:
        raise ValueError("presentation has no generators")
    if cap < 1:
        raise ValueError("cap must be positive")
    ncols = 2 * p.ngens
    relators = _bounded_relators(p, cap)
    raw_cols, parent = _enumerate_cosets(ncols, relators, cap)

    # every coset to its live one: parent[c] <= c, so one forward pass
    for c, q in enumerate(parent):
        parent[c] = parent[q]
    # number the live cosets by the _row_scan rule, then relabel every
    # entry through one list from raw index to label, dropping each raw
    # column once its relabelled column is built
    label = [-1] * len(parent)
    label[0] = 0
    order = [0]
    for c in order:
        for col in raw_cols:
            e = col[c]
            if e < 0:
                raise InconsistencyError("undefined entry survived enumeration")
            t = parent[e]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
    relabel = [label[q] for q in parent]
    cols = []
    for x, col in enumerate(raw_cols):
        raw_cols[x] = None
        cols.append(tuple([relabel[col[c]] for c in order]))
    cols = tuple(cols)
    rep = GroupRep(p, CosetTable(cols, p.ngens), cap)
    rep._verify()
    return rep


def _row_scan(raw_cols, ints) -> tuple:
    """Columns of a complete table, relabelled in row-scan order: element
    0 keeps label 0, and each other element gets the next label where it
    first appears when the relabelled rows are read in order, each row in
    column order.  ``raw_cols[x][e]`` is the entry of element e in column
    x under the old labels, which lie below ``len(ints)``; label k is the
    object ``ints[k]`` (see ``GroupRep._label_ints``).  Each raw column
    is dropped from ``raw_cols`` once its relabelled column is built,
    which kept the catalog benchmark's ``peak_rss_mb`` 0.55 MB lower
    (2-core Xeon, CPython 3.11)."""
    label = [-1] * len(ints)
    label[0] = 0
    order = [0]
    for e in order:
        for col in raw_cols:
            t = col[e]
            if label[t] < 0:
                label[t] = ints[len(order)]
                order.append(t)
    out = []
    for x, col in enumerate(raw_cols):
        raw_cols[x] = None
        out.append(tuple([label[col[e]] for e in order]))
    return tuple(out)


def _act(xs, word):
    """``[x w for x in xs]`` for a word w given as its column tuples:
    one pass over all of xs per letter.  Returns xs itself for the empty
    word."""
    for col in word:
        xs = [col[x] for x in xs]
    return xs


def _schreier_tree(cols, n):
    """Breadth-first spanning tree of the Cayley graph from element 0,
    rows in index order and each row in column order: the parent element
    and column of every element (-1 at the root), and the elements in the
    order they were reached, parents before children.  Raises
    InconsistencyError unless all n elements are reached."""
    parent_coset = [-1] * n
    parent_col = [-1] * n
    seen = bytearray(n)
    seen[0] = 1
    order = [0]
    numbered = tuple(enumerate(cols))
    for c in order:
        for x, col in numbered:
            y = col[c]
            if not seen[y]:
                seen[y] = 1
                parent_coset[y] = c
                parent_col[y] = x
                order.append(y)
    if len(order) != n:
        raise InconsistencyError("coset table is not transitive")
    return parent_coset, parent_col, order


def _tree_parents(cols, n):
    """The parent elements and columns of ``_schreier_tree(cols, n)``,
    found without its order list for a table in row-scan standard form.
    There the breadth-first search reaches the elements in index order, so
    it reads the rows in index order and each element it reaches is the
    next index.  A table where that fails, or whose inverse column does
    not lead back, goes to ``_schreier_tree``.  The parent is stored as
    the table's own int object, read off the inverse column, not as a
    new one: new ints cost 0.38 MB on ex2's table."""
    parent_coset = [-1] * n
    parent_col = [-1] * n
    reached = 1
    numbered = tuple((x, col, cols[x ^ 1]) for x, col in enumerate(cols))
    for c in range(n):
        if c == reached:
            break
        for x, col, inv in numbered:
            y = col[c]
            if y >= reached:
                if y != reached or inv[y] != c:
                    return _schreier_tree(cols, n)[:2]
                parent_coset[y] = inv[y]
                parent_col[y] = x
                reached += 1
    if reached != n:
        return _schreier_tree(cols, n)[:2]
    return parent_coset, parent_col


def _moving_relator(cols, relators):
    """The first of the relators that moves element 0 of the table with
    columns ``cols``, or None if each fixes it."""
    for r in relators:
        x = 0
        for c in r.cols():
            x = cols[c][x]
        if x != 0:
            return r
    return None


class GroupRep:
    """A finite group given by a complete coset table over the trivial
    subgroup.  Elements are coset indices 0..order-1 with 0 the identity;
    ``element_word`` returns a Schreier representative for any index.
    ``cap`` is the coset cap ``enumerate_group`` ran under, and
    ``DEFAULT_CAP``, the default of the ``cap`` argument, for a group
    built directly from a table.  Extensions and quotients built from
    this group's table (``extend``, ``quotient``) carry it on, and an
    extension of more than ``cap`` elements is refused; rotation
    subgroups enumerate under it.

    The presentation presents the table's group: ``enumerate_group``
    enumerates it, ``extend`` certifies that its table is the group its
    presentation presents, and ``quotient`` adds to G's relators the word
    whose normal closure it factors out (von Dyck's theorem).  The
    automorphism queries rely on that: they read a homomorphism off the
    relators (``_phi_words``), so a group built directly from a table
    must keep it too.  They read it off the half ball of the source
    words (``basis``), which ``generates`` builds too and which stops
    once it holds more than half the group; ``subgroup_closure`` closes
    over all of the subgroup.

    Instances are immutable; all queries are pure.
    """

    def __init__(self, presentation: Presentation, table: CosetTable, cap: int = DEFAULT_CAP):
        self.presentation = presentation
        self.table = table
        self.order = len(table)
        self.cap = cap
        self._parent_coset, self._parent_col = _tree_parents(table.cols, self.order)

    def _verify(self):
        """Check that the columns are mutually inverse permutations and
        that every relator fixes every element, and that the table is a
        regular representation (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, 2005).  The check costs one tree walk
        per generator and two passes over the elements per pair of
        generators, not a pass per relator letter:

        * For each generator column x, ``cols[x ^ 1]`` after ``cols[x]``
          is the identity.  Then ``cols[x]`` is one-to-one on the n
          elements, so a permutation, and ``cols[x ^ 1]`` its inverse.
          Let G be the group they generate, acting on the right; it is
          transitive, as ``GroupRep`` found a spanning tree.
        * For each generator column g, L is built along that tree:
          L(0) = 0 g and L(y) = L(p) x for the tree edge p --x--> y, so
          L(0 w) = (0 g) w for each tree word w.  L is checked to commute
          with every generator column, and so with their inverses and all
          of G.  It is then onto, its image being the orbit (0 g) G, so it
          lies in the centralizer C of G in Sym(n).  As L(0 v) = 0 g v,
          products of the L take 0 to 0 v for every positive word v in
          the generators; in a finite group those words give all of G,
          so C is transitive.
        * A transitive G with a transitive centralizer is regular: if h
          in G fixes 0, it fixes every y = 0 c, c in C, since
          y h = (0 h) c = y.  So a relator, an element of G, that fixes
          row 0 is the identity and fixes every row; each relator is
          walked from row 0 only (``_moving_relator``).
        * Conversely, in a regular table L is left multiplication by g,
          which commutes with right multiplications, so every consistent
          regular table passes.

        L is built in a parents-first order: index order when every tree
        parent has a smaller index, as in row-scan standard form, else
        the tree's breadth-first order.

        If a step fails, the columns and the relators are composed over
        all elements at once to name the failure: columns that are not
        inverse, or the first element a relator moves.  If that finds
        none, the relators hold but the table, a transitive action with
        a nontrivial stabilizer, is not a regular representation."""
        cols = self.table.cols
        n = self.order
        gens = cols[::2]
        # compared with range(n) lazily: a list of n new ints, as the
        # fallback below builds, raised the peak RSS of two catalog
        # passes by about 0.5 MB (2-core Xeon, CPython 3.11)
        regular = all(
            all(map(eq, [inv[y] for y in col], range(n)))
            for col, inv in zip(gens, cols[1::2])
        )
        if regular:
            parent = self._parent_coset
            order = self._tree_order()
            tree_cols = [cols[x] for x in self._parent_col]
            for g in gens:
                left = [g[0]] * n
                for y in order:
                    left[y] = tree_cols[y][left[parent[y]]]
                if any([left[y] for y in col] != [col[y] for y in left] for col in gens):
                    regular = False
                    break
        relators = self.presentation.relators
        if regular and _moving_relator(cols, relators) is None:
            return
        identity = list(range(n))
        for x, col in enumerate(cols):
            inverse = cols[x ^ 1]
            if [inverse[y] for y in col] != identity:
                raise InconsistencyError("table columns are not inverse")
        for r in relators:
            images = _act(identity, [cols[c] for c in r.cols()])
            if images != identity:
                a = next(a for a, y in enumerate(images) if y != a)
                raise InconsistencyError(
                    f"relator {r.text(self.presentation.names)} does not "
                    f"fix coset {a}"
                )
        raise InconsistencyError("the table is not a regular representation")

    def _tree_order(self):
        """Every element but the identity, each after its tree parent:
        index order when every parent has a smaller index, as in row-scan
        standard form, else the tree's breadth-first order."""
        n = self.order
        if all(map(lt, self._parent_coset, range(n))):
            return range(1, n)
        return _schreier_tree(self.table.cols, n)[2][1:]

    # -- element arithmetic --------------------------------------------

    def _walk(self, x: int, letters) -> int:
        cols = self.table.cols
        for c in letters:
            x = cols[c][x]
        return x

    def _check_word(self, w: Word):
        if w.max_gen() >= self.presentation.ngens:
            raise ValueError("word uses undeclared generators")

    def _check_index(self, x: int):
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range")

    def element_of(self, w: Word) -> int:
        """Element index of the word w (evaluated from the identity)."""
        self._check_word(w)
        return self._walk(0, w.cols())

    def multiply(self, x: int, w: Word) -> int:
        """Right action of the word w on element x."""
        self._check_index(x)
        self._check_word(w)
        return self._walk(x, w.cols())

    def product(self, x: int, y: int) -> int:
        """Group product x * y of two element indices."""
        self._check_index(x)
        self._check_index(y)
        return self._walk(x, self._schreier_cols(y))

    def inverse_element(self, x: int) -> int:
        self._check_index(x)
        return self._inverse(x)

    def _inverse(self, x: int) -> int:
        # x = 0 l1 ... lk along the tree, so x^-1 = 0 lk^-1 ... l1^-1:
        # walk from 0 by the inverse letters as x climbs to the root
        cols = self.table.cols
        parent_coset = self._parent_coset
        parent_col = self._parent_col
        y = 0
        while x != 0:
            y = cols[parent_col[x] ^ 1][y]
            x = parent_coset[x]
        return y

    def _schreier_cols(self, x: int) -> tuple:
        out = []
        while x != 0:
            out.append(self._parent_col[x])
            x = self._parent_coset[x]
        return tuple(reversed(out))

    def element_word(self, x: int) -> Word:
        """Schreier representative word for element index x."""
        self._check_index(x)
        return Word(self._schreier_cols(x))

    def element_order(self, w: Word) -> int:
        self._check_word(w)
        cols = w.cols()
        x = self._walk(0, cols)
        k = 1
        while x != 0:
            x = self._walk(x, cols)
            k += 1
        return k

    # -- subgroups ------------------------------------------------------

    def subgroup_closure(self, gens) -> SubgroupHandle:
        """Subgroup generated by the given words."""
        return SubgroupHandle(
            self._incremental_closure([self.element_of(w) for w in gens])[0]
        )

    def _incremental_closure(self, candidate_indices, bound=None) -> tuple:
        """Elements of the subgroup generated by the candidate element
        indices, identity first, and the marks that say how each was
        reached: ``(elements, mark, blocks)``.  Candidates join one at a
        time, as Schreier words, and members are skipped.

        The set E is closed under right multiplication by each generator
        t only, not by t^-1: on the finite set E, x -> x t is injective,
        so E t contained in E forces E t = E, and E is closed under t^-1
        as well.  A word acts on the right only through its element, so
        walking t's Schreier word is multiplying by t.

        A new generator first multiplies all of E; then the elements new
        at each level are multiplied by every generator so far, one word
        letter at a time over the whole level (``_act``), and the images
        not yet in E form the next level.

        Each such pass of one generator's word is a block, numbered from
        2 in the order they run; ``blocks[b]`` is the position of block
        b's generator among the candidates.  ``mark[y]`` is the block
        that reached y, 1 for the identity and 0 for an element not in
        E.  The element x that a block's new element y came from is
        y t^-1, t its generator, and x was in E before the block ran, so
        mark[x] < mark[y]: walking back from y ends at the identity and
        spells y as a word in the candidates (``Basis.word``).

        The loop stops, reading no further candidate, once E holds more
        than ``bound`` elements, by default all but one: then E is the
        whole group.  ``_generates`` and ``basis`` pass half the order."""
        cols = self.table.cols
        if bound is None:
            bound = self.order - 1
        mark = [0] * self.order
        mark[0] = 1
        blocks = [-1, -1]
        block = blocks.append
        elements = [0]
        add = elements.append
        words = []
        for j, t in enumerate(candidate_indices):
            if mark[t]:
                continue
            w = [cols[c] for c in self._schreier_cols(t)]
            words.append((j, w))
            start = len(elements)
            b = len(blocks)
            block(j)
            for y in _act(elements, w):
                if not mark[y]:
                    mark[y] = b
                    add(y)
            while start < len(elements) <= bound:
                level = elements[start:]
                start = len(elements)
                for i, w in words:
                    b = len(blocks)
                    block(i)
                    for y in _act(level, w):
                        if not mark[y]:
                            mark[y] = b
                            add(y)
                    if len(elements) > bound:
                        break
            if len(elements) > bound:
                break
        return elements, mark, blocks

    def _generates(self, candidate_indices) -> bool:
        # a subgroup of more than half the elements is the group (Lagrange)
        half = self.order // 2
        return len(self._incremental_closure(candidate_indices, half)[0]) > half

    def generates(self, gens) -> bool:
        """True iff the given words generate the whole group:
        ``basis(gens) is not None``."""
        return self.basis(gens) is not None

    def basis(self, words):
        """The half ball of the given words, a ``Basis``, or None if they
        generate a proper subgroup.  Their closure stops once it holds
        more than half the group, as no proper subgroup is that large
        (Lagrange); the basis keeps its marks, which spell each element
        it reached as a word in ``words``."""
        words = tuple(words)
        return self._basis(words, [self.element_of(w) for w in words])

    def _basis(self, words, indices):
        half = self.order // 2
        elements, mark, blocks = self._incremental_closure(indices, half)
        if len(elements) <= half:
            return None
        cols = self.table.cols
        back = tuple(
            [cols[c ^ 1] for c in reversed(self._schreier_cols(t))] for t in indices
        )
        if len(blocks) <= 256:
            # a wrapper keeps its basis, and a list of marks takes 8 bytes
            # an element: 161 KB on ex2, whose sigma needs 43 blocks
            mark = bytes(mark)
        return Basis(words, mark, blocks, back)

    def conjugacy_class(self, x: int):
        """Orbit of element x under conjugation by the generators."""
        self._check_index(x)
        cols = self.table.cols
        ngens = self.presentation.ngens
        gen_pairs = [(cols[2 * g + 1][0], cols[2 * g]) for g in range(ngens)]
        member = bytearray(self.order)
        member[x] = 1
        out = [x]
        queue = deque((x,))
        while queue:
            t = queue.popleft()
            w = self._schreier_cols(t)
            for ginv, gcol in gen_pairs:
                y = ginv
                for c in w:
                    y = cols[c][y]
                y = gcol[y]
                if not member[y]:
                    member[y] = 1
                    out.append(y)
                    queue.append(y)
        return sorted(out)

    def normal_closure(self, w: Word) -> SubgroupHandle:
        """Smallest normal subgroup containing w: the closure of its
        conjugacy class under generation."""
        x = self.element_of(w)
        return SubgroupHandle(self._incremental_closure(self.conjugacy_class(x))[0])

    def derived_subgroup(self) -> SubgroupHandle:
        """Commutator subgroup: normal closure of generator commutators."""
        ngens = self.presentation.ngens
        candidates = []
        for i in range(ngens):
            for j in range(i + 1, ngens):
                a, b = Word.gen(i), Word.gen(j)
                x = self.element_of(~a * ~b * a * b)
                if x != 0:
                    candidates.extend(self.conjugacy_class(x))
        return SubgroupHandle(self._incremental_closure(sorted(set(candidates)))[0])

    # -- derived groups ---------------------------------------------------

    def extend(self, presentation: Presentation, sources, images, z: Word) -> "GroupRep":
        """The extension E of this group G by one generator d, built from
        G's table.  ``presentation`` is G's with d appended last and
        relators fixing each d^-1 h d, h a generator of G, and d^2 as
        words in G's generators: d^-1 s d = u for each source word s and
        its image u, and d^2 = z.

        Element g of G keeps its index and g d gets index |G| + g.  With
        alpha the automorphism s -> u (``generator_map_automorphism``)
        and beta = alpha^-1, (g d) h = g beta(h) d = beta(alpha(g) h) d,
        g d^-1 = g z^-1 d (d commutes with z = d^2) and (g d) d = g z, so
        every row is read off G's table, alpha, beta and a walk of z, and
        the table is put in row-scan form.

        No row but the identity's is checked.  Instead ``extend`` checks
        that alpha exists (else CollapseError), that alpha(z) = z, that
        alpha^2 is x -> z^-1 x z on G's generators (so everywhere, both
        being automorphisms) and that every relator fixes row 0 (else
        InconsistencyError).  Then it is E's table:

        * Ê = (G x| <t>)/<c>, t of infinite order acting as alpha and
          c = z^-1 t^2, has order 2|G|: c is central, as t^-1 c t =
          alpha(z)^-1 t^2 = c and c^-1 x c = alpha^2(z x z^-1) = x, and
          <c> meets G trivially.  The image d of t has d^2 = z and
          d^-1 x d = alpha(x), so the rows are Ê's right-regular action.
        * Only the identity of Ê fixes a row, so a relator that fixes
          row 0 is trivial in Ê and fixes every row.  Ê is generated by
          G's generators and d (the rows are one orbit, as ``GroupRep``
          checks), so it is a quotient of E (von Dyck).
        * |E| <= 2|G|: ``_check_extension_shape`` finds G's relators in
          ``presentation``, one relator d^+-2 v and, for each source s,
          one relator d^+-1 s d^+-1 v, each v free of d (read
          cyclically), else ValueError.  So d^2 lies in the image N of G
          in E, each d^-1 s d then does too whatever the signs, and the
          sources generate G (alpha exists), so N is normal of index at
          most 2 in E.  N, generated by elements that satisfy G's
          relators, is a quotient of G.  So E is Ê.

        Raises CapExceededError, before building anything, if 2|G|
        exceeds ``cap``, and ValueError, as ``enumerate_group`` does, if
        the relators hold more than ``cap`` letters in all."""
        n = self.order
        if 2 * n > self.cap:
            raise CapExceededError(self.cap, 2 * n)
        _bounded_relators(presentation, self.cap)
        _check_extension_shape(self.presentation, presentation, sources)
        alpha = self.generator_map_automorphism(sources, images)
        if alpha is None:
            raise CollapseError("the duality images are not an automorphism of the group")
        cols = self.table.cols
        walk = self._walk
        z_cols, z_inv = z.cols(), (~z).cols()
        zx = walk(0, z_cols)
        if alpha[zx] != zx:
            raise InconsistencyError("alpha moves z")
        zi = walk(0, z_inv)
        for col in cols[::2]:
            if alpha[alpha[col[0]]] != walk(col[zi], z_cols):
                raise InconsistencyError("alpha^2 is not conjugation by z")
        beta = [0] * n
        for x, y in enumerate(alpha):
            beta[y] = x

        # g --h--> g h and g d --h--> beta(alpha(g) h) d for each column
        # h of G; g --d--> g d, g d --d--> g z; g --d^-1--> g z^-1 d,
        # g d --d^-1--> g
        ints = self._label_ints(2 * n)
        top = ints[n:]
        identity = list(range(n))
        raw_cols = [list(col) + [top[beta[col[a]]] for a in alpha] for col in cols]
        raw_cols.append(top + _act(identity, [cols[c] for c in z_cols]))
        raw_cols.append([top[y] for y in _act(identity, [cols[c] for c in z_inv])] + identity)
        table = _row_scan(raw_cols, ints)
        r = _moving_relator(table, presentation.relators)
        if r is not None:
            raise InconsistencyError(f"{r.text(presentation.names)} does not fix coset 0")
        return GroupRep(presentation, CosetTable(table, presentation.ngens), self.cap)

    def quotient(self, w: Word) -> "GroupRep":
        """The quotient G/N of this group G by the normal closure N of w,
        presented by G's presentation with w added as a relator (von
        Dyck's theorem).  Built from G's table: N gets label 0, and as the
        labels are read in order, each generator column maps the coset of
        the current label onto a coset, which gets the next label if it
        has none yet.  The labels are therefore in row-scan form, and the
        table is checked against the new presentation (``_verify``).
        Raises ValueError, as ``enumerate_group`` does, if its relators
        hold more than ``cap`` letters in all."""
        presentation = self.presentation.with_relators(w)
        _bounded_relators(presentation, self.cap)
        cols = self.table.cols
        ints = self._label_ints(self.order)
        label = [-1] * self.order
        blocks = [list(self.normal_closure(w).elements)]
        for x in blocks[0]:
            label[x] = 0
        out = [[] for _ in cols]
        for i, members in enumerate(blocks):
            blocks[i] = None
            m = members[0]
            for col, out_col in zip(cols, out):
                t = col[m]
                if label[t] < 0:
                    block = [col[x] for x in members]
                    b = ints[len(blocks)]
                    for y in block:
                        label[y] = b
                    blocks.append(block)
                out_col.append(label[t])
        table = CosetTable(tuple(map(tuple, out)), presentation.ngens)
        rep = GroupRep(presentation, table, self.cap)
        rep._verify()
        return rep

    def _label_ints(self, size) -> list:
        """The int objects 0..size-1, size at least the order, to label a
        derived table with: for k below the order, the one object this
        table holds for k.  The derived table then shares those objects
        instead of holding an int of its own per element: without them
        the benchmark's ``peak_rss_mb`` rose by 0.3 to 0.65 MB on catalog,
        petrie-scan and map-search (2-core Xeon, CPython 3.11)."""
        ints = [0] * self.order + list(range(self.order, size))
        for x in self.table.cols[0]:
            ints[x] = x
        return ints

    # -- structure tests --------------------------------------------------

    def extends_to_automorphism(self, images) -> bool:
        """True iff mapping generator i to images[i] defines a group
        automorphism (``automorphism_exists``)."""
        images = tuple(images)
        ngens = self.presentation.ngens
        if len(images) != ngens:
            raise ValueError(f"need {ngens} images, got {len(images)}")
        gens = [Word.gen(i) for i in range(ngens)]
        return self.automorphism_exists(gens, images)

    def generator_map_automorphism(self, sources, images):
        """The automorphism sending each source word to its image word,
        as a full permutation of element indices, or None if no such
        automorphism exists.

        Works for any generating set, not just the presentation
        generators.  The homomorphism phi that sends each source to its
        image, if there is one, is read off the sources' half ball
        (``_phi_words``; None if they do not generate), and is then spread
        along the Schreier tree, parents first as ``_verify`` builds L:
        alpha(y) = alpha(p) phi(x) for the tree edge p --x--> y, so alpha
        is phi as a permutation.  phi is an automorphism exactly when
        those images are distinct."""
        sources, s, u = self._map_elements(sources, images)
        basis = self._basis(sources, s)
        letters = None if basis is None else self._phi_words(basis, u)
        if letters is None:
            return None
        parent, parent_col = self._parent_coset, self._parent_col
        alpha = [0] * self.order
        for y in self._tree_order():
            a = alpha[parent[y]]
            for col in letters[parent_col[y]]:
                a = col[a]
            alpha[y] = a
        taken = bytearray(self.order)
        for a in alpha:
            taken[a] = 1
        if 0 in taken:
            return None
        return alpha

    def automorphism_exists(self, sources, images) -> bool:
        """True iff some automorphism sends each source word to its image
        word: ``generator_map_automorphism(sources, images) is not None``,
        decided from two half balls.  The sources' half ball (``basis``;
        False if they do not generate) decides whether a homomorphism phi
        sends each source to its image (``_phi_words``), and the images'
        closure, stopped just past half the group too, whether phi is
        onto.  A homomorphism of a finite group onto itself is one to one,
        so it is the automorphism."""
        sources, s, u = self._map_elements(sources, images)
        basis = self._basis(sources, s)
        return (
            basis is not None
            and self._phi_words(basis, u) is not None
            and self._generates(u)
        )

    def endomorphism_exists(self, basis, images) -> bool:
        """True iff some endomorphism sends each source word of ``basis``
        (``basis(sources)``) to its image word, read off the basis
        without a closure (``_phi_words``).  A caller that knows every
        endomorphism with these images to be one to one, say because its
        square is the identity or an inner automorphism, gets the verdict
        of ``automorphism_exists`` at the cost of a few words."""
        u = self._map_elements(basis.sources, images)[2]
        return self._phi_words(basis, u) is not None

    def _map_elements(self, sources, images):
        """The source words as a tuple, and the elements of the source and
        of the image words; raises ValueError unless there is one image
        per source and every word uses declared generators only."""
        sources = tuple(sources)
        images = tuple(images)
        if len(sources) != len(images):
            raise ValueError("need one image per source word")
        if any(w.max_gen() >= self.presentation.ngens for w in sources + images):
            raise ValueError("word uses undeclared generators")
        walk = self._walk
        return (
            sources,
            [walk(0, w.cols()) for w in sources],
            [walk(0, w.cols()) for w in images],
        )

    def _phi_words(self, basis, image_indices):
        """For each column x, the column tuples of a word for phi(x), phi
        the homomorphism sending source j of ``basis`` to the element
        ``image_indices[j]``, or None if there is no such homomorphism.

        Each element y the basis reached is a word in the sources
        (``Basis.word``); substituting the images gives an element
        psi(y).  Each presentation generator g gets the image
        phi(g) = psi(y)^-1 psi(y g) for the first y reached with y g
        reached too; one exists, as the reached set R and R g^-1 each
        hold more than half the group.  If every relator maps to 1, phi
        extends to a homomorphism of the group (von Dyck's theorem, as
        the presentation presents the group; see ``GroupRep``), and it
        is checked to send each source word to its image.  Conversely, a
        homomorphism h with those images has h(y) = psi(y) for every y
        in R, so h(g) = phi(g) and h passes both checks: the verdict is
        exact."""
        cols = self.table.cols
        walk = self._walk
        mark = basis.mark
        image_words = [self._schreier_cols(u) for u in image_indices]

        def psi(y):
            x = 0
            for j in basis.word(y):
                x = walk(x, image_words[j])
            return x

        letters = []
        for g in cols[::2]:
            y = next(y for y in range(self.order) if mark[y] and mark[g[y]])
            x = walk(self._inverse(psi(y)), self._schreier_cols(psi(g[y])))
            w = self._schreier_cols(x)
            letters.append([cols[c] for c in w])
            letters.append([cols[c ^ 1] for c in reversed(w)])

        def phi(word):
            x = 0
            for c in word.cols():
                for col in letters[c]:
                    x = col[x]
            return x

        if all(phi(r) == 0 for r in self.presentation.relators) and all(
            phi(s) == u for s, u in zip(basis.sources, image_indices)
        ):
            return letters
        return None

    def _involutions(self):
        # the elements of order exactly 2, in index order, found lazily
        inverse = self._inverse
        for x in range(1, self.order):
            if inverse(x) == x:
                yield x

    def involutions(self):
        """Indices of all elements of order exactly 2."""
        return list(self._involutions())

    def generated_by_involutions(self) -> bool:
        """True iff the order-2 elements generate the whole group.  The
        trivial group counts as generated by the empty set.  The closure
        takes the involutions as they are found and stops once it holds
        more than half the group (``_generates``), so a True answer need
        neither find them all nor close over the whole group."""
        return self._generates(self._involutions())

    def center(self) -> SubgroupHandle:
        """Elements commuting with every generator."""
        cols = self.table.cols
        ngens = self.presentation.ngens
        gens = [cols[2 * g][0] for g in range(ngens)]
        out = []
        for x in range(self.order):
            w = self._schreier_cols(x)
            ok = True
            for g in range(ngens):
                y = gens[g]
                for c in w:
                    y = cols[c][y]
                if y != cols[2 * g][x]:
                    ok = False
                    break
            if ok:
                out.append(x)
        return SubgroupHandle(out)
