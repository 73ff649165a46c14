"""Finite group models via Todd-Coxeter coset enumeration.

Enumeration runs over the trivial subgroup, so cosets are group elements
and the completed table is the regular permutation representation.  The
strategy is Felsch style: cosets are defined at the first missing table
entry (scanning rows in index order, columns in generator order) and a
deduction stack closes the consequences of each new entry before the
next definition.  This makes the final table a deterministic function of
the presentation, which the test suite relies on.

Column encoding matches rotamap.words: generator i occupies column 2*i,
its inverse column 2*i + 1, so the inverse column is ``col ^ 1``.

Each new table edge ``c --x--> d`` is one deduction, ``(c, x)``: it is
checked against every rotation of a relator or inverse relator that
starts with x.  Those rotations are grouped by first letter and stored
as index ranges into one doubled copy ``w + w`` of each distinct cyclic
word, so they take space linear in the relator lengths.

Coincidences (two cosets proved equal) are processed eagerly with a
union-find structure, migrating table entries to the surviving coset and
feeding each migrated entry back into the deduction stack.
"""

from __future__ import annotations

from collections import deque

from .errors import CapExceededError, InconsistencyError
from .words import Presentation, Word, _reduce_cols, substitute

DEFAULT_CAP = 1_000_000


def _cyclic_reduce(cols) -> tuple:
    cols = _reduce_cols(cols)
    i, j = 0, len(cols) - 1
    while i < j and cols[i] == cols[j] ^ 1:
        i += 1
        j -= 1
    return cols[i:j + 1]


def _least_rotation(w) -> int:
    """Offset of the lexicographically least rotation of w (Booth's
    algorithm, linear time)."""
    s = w + w
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _period(w) -> int:
    """Number of distinct rotations of w: the length of the shortest u
    with w = u^k, read off the longest proper border (KMP prefix
    function)."""
    n = len(w)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    p = n - border[-1]
    return p if n % p == 0 else n


def _rotations_by_column(relators, ncols):
    """All cyclic rotations of each relator and its inverse, grouped by
    first letter and deduplicated, in order of first occurrence.

    A rotation is stored as ``(ww, start, end)``: the letters
    ``ww[start..end]`` (inclusive) of the doubled word ``ww = w + w``,
    which all rotations of w share, so storage is linear in the relator
    lengths.  Two words have a rotation in common exactly when they have
    the same least rotation, so a word whose least rotation was seen
    before adds nothing; otherwise its rotations at offsets below its
    period are new and pairwise distinct, and the later ones repeat them.
    """
    buckets = [[] for _ in range(ncols)]
    seen = set()
    for r in relators:
        inv = tuple(c ^ 1 for c in reversed(r))
        for w in (r, inv):
            n = len(w)
            ww = w + w
            k = _least_rotation(w)
            key = ww[k:k + n]
            if key in seen:
                continue
            seen.add(key)
            for i in range(_period(w)):
                buckets[w[i]].append((ww, i, i + n - 1))
    return [tuple(b) for b in buckets]


def _felsch(ncols, relators, cap):
    """Run the enumeration; returns (rows, parent, find) before
    compression.

    Every new table edge ``c --x--> d`` is pushed once, as ``(c, x)``,
    and its deduction scans the relator rotations that start with x from
    c.  That reaches every relator cycle through the edge.  A cycle that
    crosses it forwards is the rotation of its relator that starts with
    x at c.  A cycle that crosses it backwards, as ``d --x^-1--> c``, is
    the same closed path read in reverse by the inverse relator, whose
    rotation starting with x at c is in the buckets too.  Pushing
    ``(d, x^-1)`` as well would only scan the same cycles again.
    """
    rot_by_col = _rotations_by_column(relators, ncols)
    rows = [[-1] * ncols]
    parent = [0]
    stack = []
    push = stack.append

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def coincide(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        q = deque((b,))
        while q:
            g = q.popleft()
            grow = rows[g]
            for x in range(ncols):
                d = grow[x]
                if d < 0:
                    continue
                rows[d][x ^ 1] = -1
                mu = find(g)
                nu = find(d)
                e = rows[mu][x]
                if e >= 0:
                    e = find(e)
                    if e != nu:
                        u, v = (e, nu) if e < nu else (nu, e)
                        parent[v] = u
                        q.append(v)
                elif rows[nu][x ^ 1] >= 0:
                    e = find(rows[nu][x ^ 1])
                    if e != mu:
                        u, v = (e, mu) if e < mu else (mu, e)
                        parent[v] = u
                        q.append(v)
                else:
                    rows[mu][x] = nu
                    rows[nu][x ^ 1] = mu
                    push((mu, x))

    def drain():
        while stack:
            c, x = stack.pop()
            while parent[c] != c:
                c = parent[c]
            for w, i, j in rot_by_col[x]:
                # scan the relator rotation w[i..j] from coset c; it must
                # close up
                f = c
                while i <= j:
                    nxt = rows[f][w[i]]
                    if nxt < 0:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != c:
                        coincide(f, c)
                        while parent[c] != c:
                            c = parent[c]
                    continue
                b = c
                while j >= i:
                    nxt = rows[b][w[j] ^ 1]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    coincide(f, b)
                    while parent[c] != c:
                        c = parent[c]
                elif j == i:
                    x2 = w[i]
                    rows[f][x2] = b
                    rows[b][x2 ^ 1] = f
                    push((f, x2))

    i = 0
    while i < len(rows):
        if parent[i] == i:
            x = 0
            while x < ncols:
                if parent[i] != i:
                    break
                if rows[i][x] < 0:
                    if len(rows) >= cap:
                        live = sum(1 for k in range(len(parent)) if parent[k] == k)
                        raise CapExceededError(cap, live)
                    n = len(rows)
                    rows.append([-1] * ncols)
                    parent.append(n)
                    rows[i][x] = n
                    rows[n][x ^ 1] = i
                    push((i, x))
                    drain()
                x += 1
        i += 1
    return rows, parent, find


class CosetTable:
    """A completed coset table: one row per element, one column per
    generator and per inverse generator."""

    __slots__ = ("rows", "ngens")

    def __init__(self, rows, ngens):
        self.rows = rows
        self.ngens = ngens

    @property
    def ncols(self):
        return 2 * self.ngens

    def __len__(self):
        return len(self.rows)

    def is_complete(self):
        return all(e >= 0 for row in self.rows for e in row)

    def __eq__(self, other):
        return (
            isinstance(other, CosetTable)
            and self.ngens == other.ngens
            and self.rows == other.rows
        )


class SubgroupHandle:
    """Element set of a subgroup together with the words that generated it."""

    __slots__ = ("elements", "generator_words")

    def __init__(self, elements, generator_words):
        self.elements = frozenset(elements)
        self.generator_words = tuple(generator_words)

    @property
    def size(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.elements


def enumerate_group(p: Presentation, cap: int = DEFAULT_CAP, verify: bool = True):
    """Enumerate the group presented by p over the trivial subgroup.

    Raises CapExceededError if more than ``cap`` cosets get defined, and
    ValueError for an empty generator list.  With ``verify`` (default)
    the completed table is checked against the presentation: columns are
    mutually inverse permutations and every relator fixes every coset.
    """
    if p.ngens == 0:
        raise ValueError("presentation has no generators")
    if cap < 1:
        raise ValueError("cap must be positive")
    ncols = 2 * p.ngens
    seen = {}
    relators = []
    for w in p.relators:
        r = _cyclic_reduce(w.cols())
        if r and r not in seen:
            seen[r] = None
            relators.append(r)
    raw_rows, parent, find = _felsch(ncols, relators, cap)

    live = [k for k in range(len(raw_rows)) if parent[k] == k]
    index = {old: new for new, old in enumerate(live)}
    try:
        rows = tuple(
            tuple(index[find(e)] for e in raw_rows[old]) for old in live
        )
    except KeyError:
        raise InconsistencyError("undefined entry survived enumeration")
    table = CosetTable(rows, p.ngens)
    rep = GroupRep(p, table)
    if verify:
        rep._verify()
    return rep


class GroupRep:
    """A finite group given by a complete coset table over the trivial
    subgroup.  Elements are coset indices 0..order-1 with 0 the identity;
    ``element_word`` returns a Schreier representative for any index.

    Instances are immutable; all queries are pure.
    """

    def __init__(self, presentation: Presentation, table: CosetTable):
        self.presentation = presentation
        self.table = table
        self.order = len(table.rows)
        self._build_schreier_tree()

    def _build_schreier_tree(self):
        rows = self.table.rows
        n = self.order
        parent_coset = [-1] * n
        parent_col = [-1] * n
        seen = bytearray(n)
        seen[0] = 1
        queue = deque((0,))
        ncols = self.table.ncols
        while queue:
            c = queue.popleft()
            row = rows[c]
            for x in range(ncols):
                y = row[x]
                if not seen[y]:
                    seen[y] = 1
                    parent_coset[y] = c
                    parent_col[y] = x
                    queue.append(y)
        if not all(seen):
            raise InconsistencyError("coset table is not transitive")
        self._parent_coset = parent_coset
        self._parent_col = parent_col

    def _verify(self):
        rows = self.table.rows
        ncols = self.table.ncols
        for a, row in enumerate(rows):
            for x in range(ncols):
                if rows[row[x]][x ^ 1] != a:
                    raise InconsistencyError("table columns are not inverse")
        for r in self.presentation.relators:
            cols = r.cols()
            for a in range(self.order):
                x = a
                for c in cols:
                    x = rows[x][c]
                if x != a:
                    raise InconsistencyError(
                        f"relator {r.text(self.presentation.names)} does not "
                        f"fix coset {a}"
                    )

    # -- element arithmetic --------------------------------------------

    def _walk(self, x: int, cols) -> int:
        rows = self.table.rows
        for c in cols:
            x = rows[x][c]
        return x

    def element_of(self, w: Word) -> int:
        """Element index of the word w (evaluated from the identity)."""
        if w.max_gen() >= self.presentation.ngens:
            raise ValueError("word uses undeclared generators")
        return self._walk(0, w.cols())

    def multiply(self, x: int, w: Word) -> int:
        """Right action of the word w on element x."""
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range")
        return self._walk(x, w.cols())

    def product(self, x: int, y: int) -> int:
        """Group product x * y of two element indices."""
        return self._walk(x, self._schreier_cols(y))

    def inverse_element(self, x: int) -> int:
        cols = tuple(c ^ 1 for c in reversed(self._schreier_cols(x)))
        return self._walk(0, cols)

    def _schreier_cols(self, x: int) -> tuple:
        out = []
        while x != 0:
            out.append(self._parent_col[x])
            x = self._parent_coset[x]
        return tuple(reversed(out))

    def element_word(self, x: int) -> Word:
        """Schreier representative word for element index x."""
        if not 0 <= x < self.order:
            raise ValueError(f"element index {x} out of range")
        return Word(self._schreier_cols(x))

    def element_order(self, w: Word) -> int:
        cols = w.cols()
        x = self._walk(0, cols)
        k = 1
        while x != 0:
            x = self._walk(x, cols)
            k += 1
        return k

    # -- subgroups ------------------------------------------------------

    def subgroup_closure(self, gens) -> SubgroupHandle:
        """Subgroup generated by the given words: breadth-first closure
        of the identity under right multiplication by them and their
        inverses."""
        gens = tuple(gens)
        rows = self.table.rows
        col_words = []
        for w in gens:
            col_words.append(w.cols())
            col_words.append((~w).cols())
        member = bytearray(self.order)
        member[0] = 1
        elements = [0]
        queue = deque((0,))
        while queue:
            x = queue.popleft()
            for cols in col_words:
                y = x
                for c in cols:
                    y = rows[y][c]
                if not member[y]:
                    member[y] = 1
                    elements.append(y)
                    queue.append(y)
        return SubgroupHandle(elements, gens)

    def _incremental_closure(self, candidate_indices):
        """Closure of candidates taken one at a time, skipping members.

        Returns (member bytearray, count, used generator indices).  The
        result equals the subgroup generated by all candidates.
        """
        rows = self.table.rows
        member = bytearray(self.order)
        member[0] = 1
        elements = [0]
        gen_cols = []
        used = []
        for t in candidate_indices:
            if member[t]:
                continue
            used.append(t)
            w = self._schreier_cols(t)
            new_gens = [w, tuple(c ^ 1 for c in reversed(w))]
            gen_cols.extend(new_gens)
            frontier = []
            for x in list(elements):
                for cols in new_gens:
                    y = x
                    for c in cols:
                        y = rows[y][c]
                    if not member[y]:
                        member[y] = 1
                        elements.append(y)
                        frontier.append(y)
            while frontier:
                x = frontier.pop()
                for cols in gen_cols:
                    y = x
                    for c in cols:
                        y = rows[y][c]
                    if not member[y]:
                        member[y] = 1
                        elements.append(y)
                        frontier.append(y)
            if len(elements) == self.order:
                break
        return member, len(elements), used

    def conjugacy_class(self, x: int):
        """Orbit of element x under conjugation by the generators."""
        rows = self.table.rows
        ngens = self.presentation.ngens
        gen_pairs = [(rows[0][2 * g + 1], 2 * g) for g in range(ngens)]
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
                    y = rows[y][c]
                y = rows[y][gcol]
                if not member[y]:
                    member[y] = 1
                    out.append(y)
                    queue.append(y)
        return sorted(out)

    def normal_closure(self, w: Word) -> SubgroupHandle:
        """Smallest normal subgroup containing w: the closure of its
        conjugacy class under generation."""
        x = self.element_of(w)
        if x == 0:
            return SubgroupHandle((0,), ())
        cls = self.conjugacy_class(x)
        member, count, used = self._incremental_closure(cls)
        elements = [i for i in range(self.order) if member[i]]
        return SubgroupHandle(elements, tuple(self.element_word(t) for t in used))

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
        candidates = sorted(set(candidates))
        member, count, used = self._incremental_closure(candidates)
        elements = [i for i in range(self.order) if member[i]]
        return SubgroupHandle(elements, tuple(self.element_word(t) for t in used))

    # -- structure tests --------------------------------------------------

    def extends_to_automorphism(self, images) -> bool:
        """True iff mapping generator i to images[i] defines a group
        automorphism: every relator maps to the identity and the images
        generate the whole group."""
        images = tuple(images)
        if len(images) != self.presentation.ngens:
            raise ValueError(
                f"need {self.presentation.ngens} images, got {len(images)}"
            )
        for r in self.presentation.relators:
            if self.element_of(substitute(r, images)) != 0:
                return False
        return self.subgroup_closure(images).size == self.order

    def generator_map_automorphism(self, sources, images):
        """The automorphism sending each source word to its image word,
        as a full permutation of element indices, or None if no such
        automorphism exists.

        Works for any generating set, not just the presentation
        generators: the closure of the pairs (source_i, image_i) in
        G x G is the graph of an automorphism exactly when it is a
        bijective function, which the breadth-first closure detects.
        """
        sources = tuple(sources)
        images = tuple(images)
        if len(sources) != len(images):
            raise ValueError("need one image per source word")
        rows = self.table.rows
        pairs = []
        for s, u in zip(sources, images):
            pairs.append((s.cols(), u.cols()))
            pairs.append(((~s).cols(), (~u).cols()))
        alpha = [-1] * self.order
        alpha[0] = 0
        queue = deque((0,))
        while queue:
            a = queue.popleft()
            b = alpha[a]
            for sc, uc in pairs:
                a2 = a
                for c in sc:
                    a2 = rows[a2][c]
                b2 = b
                for c in uc:
                    b2 = rows[b2][c]
                cur = alpha[a2]
                if cur < 0:
                    alpha[a2] = b2
                    queue.append(a2)
                elif cur != b2:
                    return None
        if min(alpha) < 0:
            return None  # sources do not generate the group
        if len(set(alpha)) != self.order:
            return None  # a homomorphism but not onto
        return alpha

    def involutions(self):
        """Indices of all elements of order exactly 2."""
        out = []
        for x in range(1, self.order):
            if self._walk(x, self._schreier_cols(x)) == 0:
                out.append(x)
        return out

    def generated_by_involutions(self) -> bool:
        """True iff the order-2 elements generate the whole group.  The
        trivial group counts as generated by the empty set."""
        if self.order == 1:
            return True
        member, count, used = self._incremental_closure(self.involutions())
        return count == self.order

    def center(self) -> SubgroupHandle:
        """Elements commuting with every generator."""
        rows = self.table.rows
        ngens = self.presentation.ngens
        gens = [rows[0][2 * g] for g in range(ngens)]
        out = []
        for x in range(self.order):
            w = self._schreier_cols(x)
            ok = True
            for g in range(ngens):
                y = gens[g]
                for c in w:
                    y = rows[y][c]
                if y != rows[x][2 * g]:
                    ok = False
                    break
            if ok:
                out.append(x)
        return SubgroupHandle(out, tuple(self.element_word(t) for t in out if t))
