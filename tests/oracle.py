"""Independent brute-force oracles used to pin expected test values.

Everything here avoids the production closure/normal-closure/automorphism
code paths: permutation arithmetic on tuples, quadratic subgroup closure
by multiplying all pairs, and element-by-element homomorphism checking.
``word_bfs_closure`` and ``naive_generator_map`` deliberately keep walking
the literal words and their inverses, where ``GroupRep`` walks each
element's Schreier word forward only, so that they stay independent of
that loop.

``felsch_reference`` is pure Felsch enumeration: every relator is scanned
at every new table edge, where ``enumerate_group`` closes a relator of
more than ``LONG_PERIOD`` (8) distinct rotations once per coset instead.
It keeps one row list per coset and scans materialised rotations
(``naive_rotations_by_column``), not the engine's columns and shared
doubled words, and takes relators of any period.
``felsch_table`` puts its table in row-scan form, which
``enumerate_group``'s tables take whatever order cosets are defined in.

``hlt_reference`` is the engine's hybrid enumeration over the trivial
subgroup, without Schreier labels, as it was before the definition loop
resumed each HLT scan after its definition, and before it stopped at its
first complete table that ``_verify`` certifies; the engine, run over
the trivial subgroup, must return the same raw table and parents, so
those shortcuts only skip work that does nothing.

``verify_reference`` composes every relator over every element, where
``GroupRep._verify`` certifies that the table is a regular representation
and then walks each relator from the identity only.

``naive_conjugacy_class`` and ``naive_involutions`` take every conjugate
and square as explicit products along Schreier words, where a
``GroupRep`` that ``_verify`` certified looks conjugates and inverses up
in its left multiplications (``_left``).  ``naive_normal_subgroup`` takes
its conjugates and products that way too, but its search, the orbit of
the identity under conjugation and right multiplication, is the one
``GroupRep._orbit`` runs on a table with ``_left``, so it is not
independent of ``GroupRep`` there: ``naive_normal_closure``, every
conjugate and then a quadratic closure, is.

``automorphism_reference`` closes the pairs (source, image) over the
whole group, checking every condition, where ``GroupRep`` reads a
homomorphism off the sources' basis, whose closure stops once each
generator has a reached pair y, y g, and checks it on the relators.
"""

from collections import deque
from itertools import combinations

from rotamap import CapExceededError, GroupRep, InconsistencyError, Presentation, Word, substitute
from rotamap.engine import _act, _bind, _rotations_by_column, _short_period
from rotamap.words import _reduce_cols


def naive_cyclic_reduce(cols):
    cols = list(_reduce_cols(cols))
    while len(cols) >= 2 and cols[0] == cols[-1] ^ 1:
        cols = cols[1:-1]
    return tuple(cols)


def naive_rotations_by_column(relators, ncols):
    """Every rotation of every relator and inverse relator materialised
    as its own tuple ``rot``, grouped by first letter, first occurrence
    kept.  Each is stored as ``(rot, 0, len(rot) - 1)``, the layout of
    the engine's buckets."""
    buckets = [dict() for _ in range(ncols)]
    for r in relators:
        inv = tuple(c ^ 1 for c in reversed(r))
        for w in (r, inv):
            for i in range(len(w)):
                rot = w[i:] + w[:i]
                buckets[rot[0]][rot] = None
    return [tuple((rot, 0, len(rot) - 1) for rot in b) for b in buckets]


def felsch_reference(ncols, relators, cap):
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
    rot_by_col = naive_rotations_by_column(relators, ncols)
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


def felsch_table(p: Presentation, cap: int) -> tuple:
    """Rows of the group table of p by ``felsch_reference``, relabelled
    in row-scan order: coset 0 keeps label 0, and every other coset gets
    the next label where it first appears when the relabelled rows are
    read in order."""
    relators = [naive_cyclic_reduce(w.cols()) for w in p.relators]
    raw, _, find = felsch_reference(2 * p.ngens, relators, cap)
    label = {0: 0}
    order = [0]
    out = []
    for c in order:
        row = [find(e) for e in raw[c]]
        for e in row:
            if e not in label:
                label[e] = len(order)
                order.append(e)
        out.append(tuple(label[e] for e in row))
    return tuple(out)


def verify_reference(rep: GroupRep):
    """The whole-table check ``GroupRep._verify`` made before it certified
    regularity: the columns are mutually inverse permutations and every
    relator fixes every element, composing columns over all elements at
    once; a failing relator names the first element it moves.  It accepts
    a consistent table that is not a regular representation."""
    cols = rep.table.cols
    identity = list(range(rep.order))
    for x, col in enumerate(cols):
        inverse = cols[x ^ 1]
        if [inverse[y] for y in col] != identity:
            raise InconsistencyError("table columns are not inverse")
    for r in rep.presentation.relators:
        images = _act(identity, [cols[c] for c in r.cols()])
        if images != identity:
            a = next(a for a, y in enumerate(images) if y != a)
            raise InconsistencyError(
                f"relator {r.text(rep.presentation.names)} does not "
                f"fix coset {a}"
            )


def automorphism_reference(rep: GroupRep, sources, images):
    """The automorphism sending each source word to its image word, as a
    list indexed by element, or None: the breadth-first closure of the
    pairs (source_i, image_i) that ``GroupRep.generator_map_automorphism``
    ran before it read the homomorphism off the sources' basis.

    Each word is evaluated to its element s_i or u_i once, and the
    closure walks their Schreier words, forward only: the set E of
    elements reached is closed under right multiplication by each s_i,
    which is injective, so E s_i = E, and alpha(a s_i) = alpha(a) u_i for
    every a gives alpha(a s_i^-1) = alpha(a) u_i^-1.  The closure goes
    one breadth-first level at a time; each condition
    alpha(a s_i) = alpha(a) u_i is checked once against values that are
    never changed, and each image is marked as it is assigned, so a map
    that is not one to one fails at its first repeated image.  Sources
    that generate a proper subgroup leave elements without an image."""
    cols = rep.table.cols

    def schreier(w):
        return [cols[c] for c in rep.element_word(rep.element_of(w)).cols()]

    pairs = [(schreier(s), schreier(u)) for s, u in zip(sources, images)]
    alpha = [-1] * rep.order
    alpha[0] = 0
    taken = bytearray(rep.order)
    taken[0] = 1
    reached = [0]
    start = 0
    while start < len(reached):
        level = reached[start:]
        start = len(reached)
        level_images = [alpha[a] for a in level]
        for sw, uw in pairs:
            for a, b in zip(_act(level, sw), _act(level_images, uw)):
                cur = alpha[a]
                if cur != b:
                    if cur >= 0 or taken[b]:
                        return None
                    alpha[a] = b
                    taken[b] = 1
                    reached.append(a)
    return alpha if len(reached) == rep.order else None


def perm_mul(a, b):
    """Apply a then b."""
    return tuple(b[a[i]] for i in range(len(a)))


def perm_mulclose(gens):
    """Brute-force closure of permutation tuples."""
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def naive_subgroup_closure(rep: GroupRep, elements):
    """Quadratic closure: multiply every pair with an element new in the
    last pass, until a pass finds nothing new.  A pair is multiplied in
    the pass after its later element came in, so the set returned is
    closed under products, and no pair is multiplied twice."""
    old = set()
    new = {0} | set(elements)
    while new:
        current = old | new
        left = sorted(current)
        right = sorted(old)
        found = set()
        for b in sorted(new):
            found.update(rep.product(a, b) for a in left)
            found.update(rep.product(b, a) for a in right)
        old = current
        new = found - current
    return old


def word_bfs_closure(rep: GroupRep, words):
    """Breadth-first closure of the identity under right multiplication
    by the given words and their inverses, walking each word's letters
    through the coset table."""
    rows = rep.table.rows
    col_words = []
    for w in words:
        col_words.append(w.cols())
        col_words.append((~w).cols())
    seen = {0}
    queue = deque((0,))
    while queue:
        x = queue.popleft()
        for cols in col_words:
            y = x
            for c in cols:
                y = rows[y][c]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def naive_generator_map(rep: GroupRep, sources, images):
    """The automorphism sending each source word to its image word, as a
    list indexed by element, or None.  A candidate map is spread from the
    identity along the literal words and their inverses, then every
    (element, source) pair is checked with ``rep.product``, and the map
    must be a bijection."""
    rows = rep.table.rows

    def walk(x, cols):
        for c in cols:
            x = rows[x][c]
        return x

    steps = []
    for s, u in zip(sources, images):
        steps.append((s.cols(), u.cols()))
        steps.append(((~s).cols(), (~u).cols()))
    alpha = {0: 0}
    queue = deque((0,))
    while queue:
        a = queue.popleft()
        for sc, uc in steps:
            a2 = walk(a, sc)
            if a2 not in alpha:
                alpha[a2] = walk(alpha[a], uc)
                queue.append(a2)
    if len(alpha) != rep.order:
        return None
    phi = [alpha[a] for a in range(rep.order)]
    if len(set(phi)) != rep.order:
        return None
    for s, u in zip(sources, images):
        x, y = rep.element_of(s), rep.element_of(u)
        for a in range(rep.order):
            if phi[rep.product(a, x)] != rep.product(phi[a], y):
                return None
    return phi


def naive_normal_closure(rep: GroupRep, w: Word):
    """Conjugate by every group element, then close under products."""
    x = rep.element_of(w)
    conjugates = set()
    for g in range(rep.order):
        ginv = rep.inverse_element(g)
        conjugates.add(rep.product(rep.product(ginv, x), g))
    return naive_subgroup_closure(rep, conjugates)


def naive_conjugacy_class(rep: GroupRep, x: int) -> list:
    """The conjugacy class of element x, sorted: its orbit under
    t -> g^-1 t g for each generator g, each conjugate taken as two
    explicit products (``rep.product``)."""
    pairs = []
    for i in range(rep.presentation.ngens):
        g = rep.element_of(Word.gen(i))
        pairs.append((rep.inverse_element(g), g))
    seen = {x}
    queue = deque((x,))
    while queue:
        t = queue.popleft()
        for ginv, g in pairs:
            y = rep.product(rep.product(ginv, t), g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


def naive_involutions(rep: GroupRep) -> list:
    """The elements x != 1 with x x = 1, in index order, each found by
    walking x's word from x."""
    return [x for x in range(1, rep.order) if rep.multiply(x, rep.element_word(x)) == 0]


def naive_normal_subgroup(rep: GroupRep, elements, bound=None) -> set:
    """The normal closure of the given elements: the elements reached
    from the identity by right multiplication by one of them and by
    conjugation y -> g^-1 y g by a generator g, each an explicit product
    (``rep.product``).  The set S reached lies in the normal closure N,
    and N lies in S: S is closed under conjugation by every element h,
    so with y in S it holds h y h^-1, h y h^-1 x and y h^-1 x h, and is
    closed under right multiplication by every conjugate of each x.
    The search stops once S holds more than ``bound`` elements."""
    gens = [rep.element_of(Word.gen(i)) for i in range(rep.presentation.ngens)]
    pairs = [(rep.inverse_element(g), g) for g in gens]
    seen = {0}
    queue = deque((0,))
    while queue and (bound is None or len(seen) <= bound):
        y = queue.popleft()
        images = [rep.product(y, x) for x in elements]
        images += [rep.product(rep.product(ginv, y), g) for ginv, g in pairs]
        for z in images:
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return seen


def naive_is_automorphism(rep: GroupRep, images) -> bool:
    """Element-by-element check that generator -> image extends: build
    the candidate map via representative words and verify it is a
    multiplicative bijection."""
    phi = [
        rep.element_of(substitute(rep.element_word(x), images))
        for x in range(rep.order)
    ]
    if len(set(phi)) != rep.order:
        return False
    ngens = rep.presentation.ngens
    for x in range(rep.order):
        for g in range(ngens):
            xg = rep.multiply(x, Word.gen(g))
            if phi[xg] != rep.product(phi[x], phi[rep.element_of(Word.gen(g))]):
                return False
    return True


def simplex_rotation_permutations():
    """The even symmetries of the 4-simplex as permutations of 5 points:
    products of adjacent transpositions."""
    r = [
        (1, 0, 2, 3, 4),
        (0, 2, 1, 3, 4),
        (0, 1, 3, 2, 4),
        (0, 1, 2, 4, 3),
    ]
    return [perm_mul(r[0], r[1]), perm_mul(r[1], r[2]), perm_mul(r[2], r[3])]


def hlt_reference(ncols, relators, cap):
    """``rotamap.engine._enumerate_cosets`` over the trivial subgroup as
    it was before it resumed each HLT scan after its definition: every
    long relator is closed at every live coset the definition loop
    reaches, to the loop's end, and after a definition the scan starts
    afresh from that coset.  Returns the raw ``(cols, parent)``, which the engine must
    match exactly: the same definitions in the same order."""
    cols = [[-1] for _ in range(ncols)]
    # the engine's bindings take label lists too; over the trivial
    # subgroup every label is 0, so these are bound and never read
    labs = [[] for _ in range(ncols)]
    parent = [0]

    def bind(w):
        fw, _, bw, _ = _bind(w, cols, labs)
        return w, fw, bw

    long_relators = [bind(w) for w in relators if _short_period(w) is None]
    rot_by_col = _rotations_by_column(
        [r for r in relators if _short_period(r) is not None], cols, labs)
    columns = [(x, cols[x], cols[x ^ 1]) for x in range(ncols)]
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
            for ww, fw, _, bw, _, i, j in rot_by_col[x]:
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
        # a new coset at the empty entry c --x-->, and its deductions
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
        last = len(w) - 1
        while parent[c] == c:
            f = c
            i = 0
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
                # one definition, then scan afresh
                define(f, w[i])
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
    while i < len(parent):
        if parent[i] == i:
            for w, fw, bw in long_relators:
                close(i, w, fw, bw)
            for x, col, _ in columns:
                if parent[i] != i:
                    break
                if col[i] < 0:
                    define(i, x)
        i += 1
    return cols, parent


def naive_c_group_condition(rep: GroupRep, gens) -> bool:
    """The intersection condition by its definition: for every two
    subsets I, J of the generator words, ⟨I⟩ ∩ ⟨J⟩ = ⟨I ∩ J⟩, each
    subgroup closed by walking the words (``word_bfs_closure``)."""
    n = len(gens)
    closures = [
        word_bfs_closure(rep, [gens[i] for i in range(n) if mask >> i & 1])
        for mask in range(1 << n)
    ]
    return all(
        closures[a] & closures[b] == closures[a & b]
        for a in range(1 << n)
        for b in range(1 << n)
    )
