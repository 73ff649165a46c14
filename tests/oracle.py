"""Independent brute-force oracles used to pin expected test values.

Everything here avoids the production closure/normal-closure/automorphism
code paths: permutation arithmetic on tuples, quadratic subgroup closure
by multiplying all pairs, and element-by-element homomorphism checking.
``word_bfs_closure`` and ``naive_generator_map`` deliberately keep walking
the literal words and their inverses, where ``GroupRep`` walks each
element's Schreier word forward only, so that they stay independent of
that loop.
"""

from collections import deque
from itertools import combinations

from rotamap import GroupRep, Word, substitute


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
    """Quadratic closure: multiply every pair until stable."""
    current = {0} | set(elements)
    while True:
        new = set()
        cur = sorted(current)
        for a in cur:
            for b in cur:
                c = rep.product(a, b)
                if c not in current:
                    new.add(c)
        if not new:
            return current
        current |= new


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
