"""Finite group models via Todd-Coxeter coset enumeration.

The mechanisms, each argued in the docstring named:

* ``_enumerate_cosets`` enumerates the cosets of a subgroup H, Felsch
  style for short relators and HLT style for long ones, with Schreier
  labels in a small group L that maps onto H, and relations found among
  them.  H is the facet subgroup <x0, x1> of a presentation of three or
  more generators, L the group its relators in x0 and x1 present
  (``_facet_labels``), or else a cyclic H = <g>, L = Z_p for g^p a
  relator (``_cyclic_labels``).  It stops at the first complete table
  that ``GroupRep._verify`` certifies.
* ``_lift`` builds the regular table from the cosets of H and proves its
  order exact, and ``_row_scan`` puts it in row-scan standard form, a
  function of the group and the generator order alone, recording its
  breadth-first Schreier tree as it goes.
* ``CosetTable`` stores a table by column, so a pass over many elements
  applies one letter to all of them at once (``_act``).
* ``GroupRep._verify`` certifies a table as the regular representation
  of the presented group from the left multiplications that
  ``GroupRep._left_multiplications`` builds; the ``GroupRep`` class
  docstring says when a group keeps them, and which queries read them.
* ``GroupRep._incremental_closure`` closes a subgroup one breadth-first
  level at a time, and for the yes/no queries stops at a generation
  certificate (``Basis``).
* ``GroupRep._orbit`` closes a normal subgroup as one orbit of the
  identity under conjugation and right multiplication, on a table with
  left multiplications: the normal closure of an involution, and the
  subgroup the involutions generate.
* ``GroupRep._phi_words`` decides an automorphism question on a basis,
  with no closure of its own; ``endomorphism_exists`` and
  ``generator_map_automorphism`` ask it.
* ``GroupRep.extend`` and ``GroupRep.quotient`` derive an index-2
  extension and a quotient from a complete table without enumerating.
  A quotient is in row-scan form; an extension interleaves G and G d
  and is not.  ``tests/test_derived.py`` compares each with enumeration
  row for row, an extension after ``_row_scan``.
"""

from __future__ import annotations

from collections import deque
from math import gcd
from operator import eq, lt

from .errors import CapExceededError, CollapseError, InconsistencyError
from .words import DEFAULT_CAP, Presentation, Word, _cyclic_reduce


# relators with more distinct rotations than this are closed once per
# coset instead of scanned at every new edge; see _enumerate_cosets
LONG_PERIOD = 8


def _short_period(w):
    """Number of distinct rotations of w if it is at most ``LONG_PERIOD``,
    else None.  That number is the least p with w = u^(len(w)/p) for a
    word u of p letters: the least p dividing len(w) at which w repeats."""
    n = len(w)
    for p in range(1, min(n, LONG_PERIOD) + 1):
        if n % p == 0 and w[p:] == w[:n - p]:
            return p
    return None


def _cyclic_subgroup(relators):
    """``(g, p)`` for the generator column g with the largest pure power
    relator, g^p or g^-p, the first such column on a tie; None if no
    relator is a power of one letter."""
    powers = [(len(r), -(r[0] & ~1)) for r in relators if r.count(r[0]) == len(r)]
    if not powers:
        return None
    p, g = max(powers)
    return -g, p


# the labels of the trivial subgroup, L = 1 (see _enumerate_cosets)
_TRIVIAL = ((), 1, [0], [0])

# the group of a facet subgroup's relators is enumerated under this cap,
# and labels the enumeration if it has at most FACET_ORDER elements
FACET_CAP = 1024
FACET_ORDER = 256


def _cyclic_labels(h):
    """The labels of H = <g> for ``h = (g, p)``, as ``_cyclic_subgroup``
    gives it, or of the trivial subgroup for None: L = Z_p, with g's
    element 1, and as a l = a + l mod p, ``mul`` is ``list(range(p)) *
    2`` at width 1 (see ``_enumerate_cosets``)."""
    if h is None:
        return _TRIVIAL
    g, p = h
    # the inverses -a mod p share the int objects of the products
    mul = list(range(p))
    return ((g, 1 % p),), 1, mul * 2, mul[:1] + mul[:0:-1]


def _facet_labels(p: Presentation):
    """The labels of the facet subgroup H = <x0, x1> of p's first two
    generators, or None.  L is the group that p's relators in x0 and x1
    alone present, which maps onto H, enumerated by ``_enumerate`` under
    ``FACET_CAP``; None if that fails, or if L has more than
    ``FACET_ORDER`` elements, as its product table has |L|^2 entries.
    The table is built column by column along L's Schreier tree: a b =
    (a c) x for the tree edge c --x--> b."""
    facet = Presentation(p.names[:2], tuple(r for r in p.relators if r.max_gen() < 2))
    try:
        k = _enumerate(facet, FACET_CAP)
    except (CapExceededError, ValueError):
        return None
    n = k.order
    if n > FACET_ORDER:
        return None
    cols = k.table.cols
    # times[b][a] = a b
    times = [None] * n
    times[0] = list(range(n))
    for b in k._tree_order():
        times[b] = [cols[k._parent_col[b]][a] for a in times[k._parent_coset[b]]]
    mul = [ab for column in times for ab in column]
    return ((0, cols[0][0]), (2, cols[2][0])), n, mul, [column.index(0) for column in times]


def _bind(w, cols, labs):
    """The column lists of the letters of w and their label lists, then
    those of the inverse letters: ``fw, fl, bw, bl``."""
    inv = [c ^ 1 for c in w]
    return (
        tuple([cols[c] for c in w]),
        tuple([labs[c] for c in w]),
        tuple([cols[c] for c in inv]),
        tuple([labs[c] for c in inv]),
    )


def _rotations_by_column(relators, cols, labs):
    """All cyclic rotations of each relator and its inverse, grouped by
    first letter and deduplicated, in order of first occurrence.  Every
    relator must be short: at most ``LONG_PERIOD`` distinct rotations.
    ``cols`` and ``labs`` hold one list per table column.

    A rotation is stored as ``(ww, fw, fl, bw, bl, start, end)``: the
    letters ``ww[start..end]`` (inclusive) of the doubled word
    ``ww = w + w``, which all rotations of w share, and ``_bind(ww, cols,
    labs)``, shared the same way, so storage is linear in the relator
    lengths.  Two words have a rotation in common exactly when they have
    the same least rotation, the least of the first p for a word with p
    distinct rotations.  So a word whose least rotation was seen before
    adds nothing; otherwise its rotations at offsets below p are new and
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
            bound = _bind(ww, cols, labs)
            for i in range(p):
                buckets[w[i]].append((ww, *bound, i, i + n - 1))
    return [tuple(b) for b in buckets]


def _enumerate_cosets(ncols, relators, cap, h=None, check=None):
    """Enumerate the cosets of a subgroup H, with Schreier labels in a
    finite group L that maps onto H, given by ``h``; or of the trivial
    subgroup for None.  Returns ``(cols, parent, labs, labels)`` before
    compression: ``cols[x][c]`` is the raw table entry of coset c in
    column x, or -1, ``labs[x][c]`` its Schreier label, and ``labels``
    ``(width, mul, normal)``, L's product table and N (**Normal
    subgroup**).  A coset c is live when ``parent[c] == c``; a
    coincidence points the larger coset at the smaller, so ``parent[c] <=
    c`` always.  ``_lift`` builds the regular table from them.
    ``check``, if given, is tried on that state at most once before the
    loop ends, and ends it if it passes (**Early stop**).

    ``h`` is ``(gens, width, mul, inverse)``.  L's elements are 0 to n -
    1, 0 the identity, and ``inverse[a]`` is the inverse of a, so n is
    ``len(inverse)``.  ``gens`` pairs each column x of the generators
    of H with an element k_x of L.  The k_x generate L, and k_x -> x
    extends to a homomorphism from L onto H: every relation among the
    k_x in L holds among the x in G.  A label l is read in G as its
    image.  A product is one lookup, a l = ``mul[l * width + a]``:
    width n for a table of all n^2 products, or width 1 for L = Z_p,
    where a l = a + l mod p and ``mul`` is ``list(range(p)) * 2``, 2p
    entries (``_cyclic_labels``).  ``enumerate_group`` passes the facet
    subgroup <x0, x1> of a presentation of three or more generators
    (``_facet_labels``), and <g> otherwise.

    This is the modified Todd-Coxeter procedure (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, ch. 5; Arrell and
    Robertson, "A modified Todd-Coxeter algorithm", 1984): about |H|
    times fewer rows are defined and scanned than over the trivial
    subgroup.  Its strategy is a Felsch/HLT hybrid (Havas, "Coset
    enumeration strategies", ISSAC 1991).  Cosets are defined at the
    first missing table entry, rows in index order and each row in
    column order, and a deduction stack closes the consequences of each
    new entry before the next definition.

    **Labels.**  Coset c stands for H r_c, r_c its representative, and an
    entry ``t --x--> u`` holds a label l of L with r_t x = l r_u in G;
    it is stored as l times ``width``.
    Coset 0 is H itself and starts closed under each generator column x
    of H: ``0 --x--> 0`` with x's element k, and ``0 --x^-1--> 0`` with
    k^-1.  A new definition gets the identity.  A scan multiplies the
    labels along its walk in walk order, as r_t x y = l r_u y = l l' r_v:
    from c, a walk by a word v reaching f with product s says r_c v = s
    r_f.  A gap of one letter x between the forward walk's end f
    (product s) and the backward walk's end b (product t) gets ``f --x-->
    b`` with s^-1 t, and the inverse entry t^-1 s.  The union-find
    carries an offset too: r_c = off[c] r_parent[c], the identity at a
    live coset.  ``find`` halves paths as it goes, multiplying in the
    offsets it skips, and a migrated entry takes the offsets of both its
    ends.  In the cyclic case every product is a sum mod p.
    Coincidences are processed eagerly, and each migrated entry that is
    new to the surviving row goes back onto the deduction stack.
    Outside a coincidence every entry of a live row points at a live
    coset: a dying coset's row migrates, clearing the inverse of each of
    its entries, and those inverses are all the entries that point at
    it.  So a walk from a live coset meets only live cosets, and a scan
    that finds a coincidence finds two distinct live cosets.

    **Normal subgroup.**  N is a normal subgroup of L that starts
    trivial and only grows.  A cycle that comes back to its start with a
    product k proves k = 1 in G, and so do two entries that a coincidence
    merges into one whose labels, offsets multiplied in, differ by k; if
    k is not in N already, N becomes the normal closure of N and k
    (``grow``, closed as ``GroupRep._orbit`` closes one).  Labels are
    compared by their class in L/N, so this is the modified procedure's
    modulus: for L = Z_p, N is the multiples of gcd(p, k, ...).  The
    kernel of L's map onto H is a normal subgroup of L that holds every
    such k, so it holds N throughout, and H is a quotient of L/N.

    A relator with at most ``LONG_PERIOD`` distinct rotations is short
    and is handled Felsch style.  Every new table edge ``c --x--> d`` is
    pushed once, as ``(c, x)``, and its deduction scans the short
    relator rotations that start with x from c.  That reaches every
    short relator cycle through the edge.  A cycle that crosses it
    forwards is the rotation of its relator that starts with x at c.  A
    cycle that crosses it backwards, as ``d --x^-1--> c``, is the same
    closed path read in reverse by the inverse relator, whose rotation
    starting with x at c is in the buckets too.  Pushing ``(d, x^-1)``
    as well would only scan the same cycles again.  Coset 0's edge
    ``0 --g--> 0`` is pushed before the loop starts.

    A long relator is closed HLT style instead, once per coset: when the
    definition loop reaches a live coset, it first scans each long
    relator there, forward to the first gap and backward to the last.  A
    closed mismatch is a coincidence, a closed cycle whose product is
    not in N grows N, and a one-letter gap is a deduction; a longer
    gap gets one definition at its forward end, whose deductions are
    drained before the scan goes on.  Then the coset's row is filled,
    each new edge going through the short-relator deductions.

    Why the split: Felsch scans every rotation of a relator at every new
    edge, so a relator of period L costs about n L^2 table steps on n
    cosets, and the HLT scan about n L, at the price of some rows
    defined that Felsch would not.  A bound of 8 sends the torus
    translation relators of the rank-4 entries, of 9 to 13 rotations,
    to HLT and keeps ex1's of period 8 with Felsch; higher bounds made
    the catalog slower (CHANGES.md has the timings).  The period, not
    the length, decides: a proper power u^k has only |u| rotations, so
    Felsch scans it cheaply, while closing it once per coset where it
    makes a quotient collapse defines far more rows.  A long primitive
    relator that makes a group collapse can still define several times
    the rows Felsch would; the cap bounds the run.

    **Resume.**  After the definition at the forward end of a gap, the
    forward scan goes on from where it stopped, with the product it had,
    and so does the backward scan.  Unless a coincidence ran in that
    definition's drain (``coincide`` counts its merges), no entry was
    changed, only new ones set, so both paths walked from the coset stand
    and a rescan would retrace them.  The backward scan starts again from
    the coset only once the forward walk has reached or passed the
    backward one's end (``j < i``): a backward scan stops where the
    forward one ends.  After a coincidence both scans start afresh, or
    stop if the coset died.  This shortcut skips only scan work that
    does nothing, so the cosets defined, in their order, and the table
    are those of a loop that rescans from the coset after each
    definition (``tests/oracle.hlt_reference``; the tests compare the raw
    tables and parents for trivial H).

    The table is kept by column, ``cols[x][c]`` and ``labs[x][c]``, and
    every rotation and long relator binds the column and label lists of
    its letters, and of their inverses, once (``_bind``), so a scan step
    is ``fw[i][f]`` and ``fl[i][f]``.  Every rotation in the bucket of a
    deduction ``(c, x)`` starts with the edge ``c --x--> d``, so d is
    read once and read again only after the bucket's scans change the
    table.  That is the work of a table kept as one list per coset, in
    the same order, so it defines the same rows, in about half the
    memory and in less time.

    **Early stop.**  ``undefined`` counts the -1 entries of live rows: a
    new row adds ``ncols``, an entry and its inverse take 2 (``link``), a
    coset that dies takes its row's, and a
    coincidence that clears an entry of a live coset adds it back.  The
    first time a pass of the definition loop leaves it at 0 with rows
    still to come, the state goes to ``check``, which ``enumerate_group``
    supplies: ``_lift``, ``GroupRep`` and ``_verify``, raising
    InconsistencyError when the table fails.  If it returns, the loop
    stops there; if it raises, the loop runs to its end as if there were
    no check, and ``check`` is not tried again.  The stop is exact.  A
    table that passes is a regular representation in which every relator
    fixes every element, so every long relator walk left, from a live
    coset c, comes back to c with a product in N: it defines nothing,
    merges nothing and leaves N as it is, and no row has an entry left
    to fill.  So the state handed over is the one the loop would return:
    the same columns, parents, labels, N and rows defined.  Most tables
    are complete long before the loop reaches their last rows, and the
    rest of the loop only walks closed cycles.

    Sound: the walks force the coincidences and the relations in L that
    make the table close, and ``_verify`` certifies it: every deduction
    holds in the group, so a complete table that passes is exact, however
    far the loop went (``_lift``).  Run to its end, the loop closes every
    cycle too.  Felsch closes every short relator cycle, with a product
    in N.  A coset live at the end was live when the loop reached it, and
    every long relator cycle at it was closed with a product in N then,
    by ``close``.  A coincidence maps a path to one between the live
    cosets, the offsets it multiplies in cancel around a cycle, and an
    entry it merges into another changes a label by an element of the
    new N, which, N being normal, moves a product around a cycle only
    within its class, so closed paths of a product in N stay so.
    ``enumerate_group`` checks the lifted table against the presentation
    all the same.

    The cap counts the rows defined, coset 0 included, times |L|: a
    definition that would take that past ``cap`` raises
    CapExceededError, whose count is the live cosets times |L|.
    """
    gens, width, mul, inverse = _TRIVIAL if h is None else h
    # |L|, which the cap counts each row times
    size = len(inverse)
    # N, as membership and as its elements
    normal = bytearray(size)
    normal[0] = 1
    members = [0]
    conjugators = [(k * width, inverse[k]) for _, k in gens]
    # coset 0's entries
    cols = [[-1] for _ in range(ncols)]
    labs = [[0] for _ in range(ncols)]
    parent = [0]
    off = [0]
    long_relators = [(w, *_bind(w, cols, labs)) for w in relators if _short_period(w) is None]
    rot_by_col = _rotations_by_column(
        [r for r in relators if _short_period(r) is not None], cols, labs)
    columns = [(x, cols[x], labs[x], cols[x ^ 1], labs[x ^ 1]) for x in range(ncols)]
    stack = []
    push = stack.append
    merges = 0
    # the -1 entries of live rows: coset 0's, so far
    undefined = ncols

    def find(c):
        # the live coset of c and the label o with r_c = o r_live
        o = 0
        while parent[c] != c:
            q = parent[c]
            off[c] = mul[off[q] * width + off[c]]
            parent[c] = parent[q]
            o = mul[off[c] * width + o]
            c = parent[c]
        return c, o

    def grow(k):
        # N becomes the normal closure of N and k, closed as
        # GroupRep._orbit closes one: all of N times k, then each new
        # element conjugated by each generator g of L, g^-1 y g, and
        # times k
        level = members
        kw = k * width
        while level:
            new = []
            for y in [mul[kw + y] for y in level] + [
                    mul[gw + mul[y * width + gi]] for gw, gi in conjugators for y in level]:
                if not normal[y]:
                    normal[y] = 1
                    new.append(y)
            members.extend(new)
            level = new

    def join(a, b, k):
        # live cosets a != b with r_a = k r_b are one: the larger dies,
        # and is returned
        nonlocal undefined
        if a < b:
            a, b, k = b, a, inverse[k]
        parent[a] = b
        off[a] = k
        undefined -= [col[a] for col in cols].count(-1)
        return a

    def link(c, x, d, l):
        # the entry c --x--> d of label l, its inverse, and its deduction;
        # both were -1 in live rows
        nonlocal undefined
        undefined -= 2
        cols[x][c] = d
        labs[x][c] = l * width
        cols[x ^ 1][d] = c
        labs[x ^ 1][d] = inverse[l] * width
        push((c, x))

    def coincide(a, b, k):
        # distinct live cosets a and b with r_a = k r_b are one
        nonlocal merges, undefined
        merges += 1
        q = deque((join(a, b, k),))
        while q:
            dead = q.popleft()
            for x, col, lab, inv, ilab in columns:
                d = col[dead]
                if d < 0:
                    continue
                inv[d] = -1
                if parent[d] == d:
                    undefined += 1
                mu, o = find(dead)
                nu, on = find(d)
                # r_mu x = l r_nu
                l = mul[on * width + mul[lab[dead] + inverse[o]]]
                e = col[mu]
                if e >= 0:
                    e, o = find(e)
                    # r_nu = k r_e
                    k = mul[o * width + mul[lab[mu] + inverse[l]]]
                    if e != nu:
                        q.append(join(nu, e, k))
                    elif not normal[k]:
                        grow(k)
                elif inv[nu] >= 0:
                    e, o = find(inv[nu])
                    # r_mu = k r_e
                    k = mul[o * width + mul[ilab[nu] + l]]
                    if e != mu:
                        q.append(join(mu, e, k))
                    elif not normal[k]:
                        grow(k)
                else:
                    link(mu, x, nu, l)

    def drain():
        # Each deduction (c, x) was pushed by link after it set c --x-->,
        # and the live coset of c still has an x entry when it is popped,
        # so d >= 0 below.  Only coincide clears an entry: migrating a
        # dying coset's entry u --x--> v, it clears v --x^-1--> u.  In a
        # live row, or in a queued row not yet migrated, every entry is
        # paired with its inverse in such a row (link sets both halves,
        # and migration clears the other half before it drops its own).
        # So when it migrates u --x--> v, with mu and nu the live cosets
        # of u and v, either mu has an x entry mu --x--> e and nu, which
        # lost an x^-1 entry, is merged with e, which holds the inverse;
        # or nu has an x^-1 entry, paired with some e --x--> nu, and mu is
        # merged with e; or link sets mu --x--> nu.  So a class of cosets
        # with an x entry at its live coset or a queued row keeps one,
        # and once the queue is empty it is at the live coset.
        while stack:
            c, x = stack.pop()
            while parent[c] != c:
                c = parent[c]
            # every rotation in the bucket starts with the edge c --x--> d
            cx = cols[x]
            lx = labs[x]
            d = cx[c]
            for ww, fw, fl, bw, bl, i, j in rot_by_col[x]:
                # scan the relator rotation ww[i..j] from coset c; it must
                # close up with a label product in N
                f = d
                s = mul[lx[c]]
                i += 1
                while i <= j:
                    nxt = fw[i][f]
                    if nxt < 0:
                        break
                    s = mul[fl[i][f] + s]
                    f = nxt
                    i += 1
                if i > j:
                    if f != c:
                        coincide(f, c, inverse[s])
                        while parent[c] != c:
                            c = parent[c]
                        d = cx[c]
                    elif not normal[s]:
                        grow(s)
                    continue
                b = c
                t = 0
                while j >= i:
                    nxt = bw[j][b]
                    if nxt < 0:
                        break
                    t = mul[bl[j][b] + t]
                    b = nxt
                    j -= 1
                if j < i:
                    coincide(f, b, mul[t * width + inverse[s]])
                    while parent[c] != c:
                        c = parent[c]
                    d = cx[c]
                elif j == i:
                    link(f, ww[i], b, mul[t * width + inverse[s]])
                    d = cx[c]

    def define(c, x):
        # a new coset at the empty entry c --x-->, and its deductions
        nonlocal undefined
        n = len(parent)
        if (n + 1) * size > cap:
            live = sum(1 for k in range(n) if parent[k] == k)
            raise CapExceededError(cap, live * size)
        for col in cols:
            col.append(-1)
        for lab in labs:
            lab.append(0)
        parent.append(n)
        off.append(0)
        undefined += ncols
        link(c, x, n, 0)
        drain()

    def close(c, w, fw, fl, bw, bl):
        # close the cycle of the long relator w at coset c, or stop when
        # c dies in a coincidence
        if parent[c] != c:
            return
        last = len(w) - 1
        f = c
        s = 0
        i = 0
        # j < i: the backward scan starts from c
        j = -1
        while True:
            while i <= last:
                nxt = fw[i][f]
                if nxt < 0:
                    break
                s = mul[fl[i][f] + s]
                f = nxt
                i += 1
            if i > last:
                if f != c:
                    coincide(f, c, inverse[s])
                    drain()
                elif not normal[s]:
                    grow(s)
                return
            if j < i:
                b = c
                t = 0
                j = last
            while j >= i:
                nxt = bw[j][b]
                if nxt < 0:
                    break
                t = mul[bl[j][b] + t]
                b = nxt
                j -= 1
            if j > i:
                # one definition; both paths from c and their products stand
                # unless a coincidence ran, so both scans resume
                seen = merges
                define(f, w[i])
                if merges != seen:
                    if parent[c] != c:
                        return
                    f = c
                    s = 0
                    i = 0
                    j = -1
                continue
            if j < i:
                coincide(f, b, mul[t * width + inverse[s]])
            else:
                link(f, w[i], b, mul[t * width + inverse[s]])
            drain()
            return

    for x, k in gens:
        link(0, x, 0, k)
    drain()
    i = 0
    while i < len(parent):
        if parent[i] == i:
            for w, fw, fl, bw, bl in long_relators:
                close(i, w, fw, fl, bw, bl)
            for x, col, _, _, _ in columns:
                if parent[i] != i:
                    break
                if col[i] < 0:
                    define(i, x)
        i += 1
        if not undefined and check is not None and i < len(parent):
            # every live row is full: the first complete table, tried once
            try:
                check(cols, parent, labs, (width, mul, normal))
            except InconsistencyError:
                check = None
            else:
                break
    return cols, parent, labs, (width, mul, normal)


def _lift(cols, parent, labs, labels) -> tuple:
    """The columns of the regular table of the group, in row-scan
    standard form, and its Schreier tree, ``(cols, tree)`` as
    ``_row_scan`` gives them, from ``_enumerate_cosets``'s result.  The
    classes N k of L are numbered by their least element, the class of
    the identity first.  With m live cosets, numbered in index order, and
    |L/N| classes, element (q, t) = q r_t, q a class, gets index t |L/N|
    + q, and column x sends it to (q l, u), u = t x and l the entry's
    label, as q r_t x = q l r_u.  Each column is one comprehension over
    the live cosets t and, within each, over the classes q, which reads
    the classes q l of a label l met before from a list built once; its
    ints are the objects of one shared list.  ``_row_scan`` then
    relabels them and records the tree.  Every entry of a live row must
    be defined and point at a live coset (see ``_enumerate_cosets``),
    else InconsistencyError.  With trivial H, L/N has one class and every
    label is the identity.

    Why the order m |L/N| is exact, for any complete table the
    enumeration reaches, whether its loop ran to its end or stopped
    early: ``_verify`` proves the lifted table the regular representation
    of a quotient of the presented group G, so m |L/N| <= |G|.  The
    enumeration deduces only what holds in G, so m = |G:H|, and every
    element it adds to N is 1 in G, so N lies in the kernel of L's map
    onto H, which is normal, and H is a quotient of L/N: |H| <= |L/N|.
    So |G| = m |H| <= m |L/N|, and the two are equal.  Nothing in this
    needs the long relator walks to have run at every coset: they are how
    the enumeration finds its coincidences, not what makes its table
    right.  A false coincidence or too large an N would give a smaller
    quotient that still passes ``_verify``, as a false coincidence would
    over the trivial subgroup; the tests compare the tables over the
    facet subgroup, over <g> and over the trivial subgroup."""
    width, mul, normal = labels
    members = [k for k, inside in enumerate(normal) if inside]
    # the classes N k of L, numbered by their least element
    cls = [-1] * len(normal)
    reps = []
    for k, q in enumerate(cls):
        if q < 0:
            kw = k * width
            for y in members:
                cls[mul[kw + y]] = len(reps)
            reps.append(k)
    live = [c for c, q in enumerate(parent) if c == q]
    index = len(reps)
    n = len(live) * index
    # the position of each live coset, -1 for a dead one, and in the
    # extra last slot, pos[-1], for a gap
    pos = [-1] * (len(parent) + 1)
    for t, c in enumerate(live):
        pos[c] = t
    ints = list(range(n))
    # for each label l met, the classes q l of each class q in order
    times = {}
    raw = []
    for col, lab in zip(cols, labs):
        targets = [pos[col[t]] for t in live]
        if -1 in targets:
            raise InconsistencyError("an entry survived enumeration undefined or dead")
        ls = [lab[t] for t in live]
        for l in set(ls).difference(times):
            times[l] = [cls[mul[l + r]] for r in reps]
        # (q, t) is element t |L/N| + q, and goes to (q l, u)
        raw.append([ints[b + v] for b, l in zip([u * index for u in targets], ls)
                    for v in times[l]])
    # the row scan's lists are the peak of the lift
    del pos, live, targets, ls, times, cls, members
    return _row_scan(raw, ints)


class CosetTable:
    """A completed coset table, stored by column: ``cols[x][e]`` is the
    element e times the letter of column x, one tuple per generator and
    per inverse generator.  The column encoding is that of
    rotamap.words: generator i occupies column 2 i and its inverse
    column 2 i + 1, so the inverse column is ``x ^ 1``.  One tuple per
    column instead of one per element takes about half the memory, and
    lets a pass over many elements apply one letter to all of them at
    once, ``ys = [col[y] for y in ys]``, instead of one interpreted
    lookup per element and letter.  ``rows`` is a read-only view, built
    on each access, with ``rows[e][x] == cols[x][e]``."""

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


class SubgroupHandle(frozenset):
    """A subgroup of a GroupRep: the frozenset of its element indices,
    which ``elements`` also names, and ``size`` its order."""

    __slots__ = ()

    @property
    def size(self):
        return len(self)

    @property
    def elements(self):
        return self


class Basis:
    """The generation certificate of a tuple of words
    (``GroupRep.basis``): the words ``sources``, the ``mark`` and
    ``blocks`` of their closure, stopped once each presentation generator
    g had a reached pair y, y g (see ``GroupRep._incremental_closure``),
    and ``pairs``, that y for each generator in order.  An element y is
    reached when ``mark[y]`` is not 0.  ``back[j]`` is the column tuples
    of a word for the inverse of source j, which steps back from an
    element that source's block reached."""

    __slots__ = ("sources", "mark", "blocks", "back", "pairs")

    def __init__(self, sources, mark, blocks, back, pairs):
        self.sources = sources
        self.mark = mark
        self.blocks = blocks
        self.back = back
        self.pairs = pairs

    def word(self, y) -> list:
        """Source positions j1, ..., jk with y = s_j1 ... s_jk, for a
        reached element y: read back from its mark, the block that
        reached y used source jk, and y s_jk^-1 has a smaller mark."""
        mark = self.mark
        if not mark[y]:
            raise ValueError(f"element {y} was not reached")
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


def _fresh_name(taken, base="d"):
    """The first of base, base2, base3, ... that is not in ``taken``."""
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def enumerate_group(p: Presentation, cap: int = DEFAULT_CAP):
    """Enumerate the group presented by p: the cosets of a subgroup H,
    lifted to the regular table (``_lift``).  With three or more
    generators, H is the facet subgroup <x0, x1> of the first two, with
    labels in the group L that p's relators in x0 and x1 present, if
    that group enumerates under ``FACET_CAP`` to at most ``FACET_ORDER``
    elements (``_facet_labels``).  Otherwise H = <g>, g the generator of
    the largest pure power relator g^p (``_cyclic_subgroup``), and L =
    Z_p; H and L are trivial if there is none.

    The table is in row-scan standard form, so it depends only on the
    group and the order of p's generators, whichever H it was enumerated
    over.  Raises CapExceededError if the rows of the coset table of H
    defined, counting those later found equal to others, times |L| would
    exceed ``cap``; that product bounds the order too.
    Raises ValueError for an empty generator list or for relators
    (cyclically reduced, duplicates dropped) of more than ``cap`` letters
    in all, since the work at each coset grows with their letters: each
    deduction scans up to ``LONG_PERIOD`` rotations of every short
    relator, and each coset walks every long relator once.  The completed
    table is checked against the presentation (``GroupRep._verify``):
    columns are mutually inverse permutations, the table is a regular
    representation and so every relator, which fixes the identity, fixes
    every coset.  That check is also the enumeration's early check: the
    first complete table is lifted and checked once, and if it passes,
    its group is returned without the rest of the loop, which could not
    change it (``_enumerate_cosets``).  If it fails, the loop runs to its
    end, and that table is lifted and checked as it would be with no
    early check, with the same errors.
    """
    if p.ngens == 0:
        raise ValueError("presentation has no generators")
    if cap < 1:
        raise ValueError("cap must be positive")
    return _enumerate(p, cap)


def _enumerate(p: Presentation, cap: int) -> "GroupRep":
    """``enumerate_group``'s work, once its arguments are checked.
    ``_facet_labels`` enumerates L through it, so that a caller that
    wraps ``enumerate_group``, such as the benchmark's tracer, sees only
    the groups asked for."""
    relators = _bounded_relators(p, cap)
    h = _facet_labels(p) if p.ngens > 2 else None
    if h is None:
        h = _cyclic_labels(_cyclic_subgroup(relators))
    rep = None

    def check(*cosets):
        nonlocal rep
        rep = _verified_group(p, cap, cosets)

    cosets = _enumerate_cosets(2 * p.ngens, relators, cap, h, check)
    return rep if rep is not None else _verified_group(p, cap, cosets)


def _verified_group(p: Presentation, cap: int, cosets) -> "GroupRep":
    """The group of p from the raw ``cosets`` of ``_enumerate_cosets``,
    lifted (``_lift``) and checked against p (``GroupRep._verify``);
    InconsistencyError if the table is not complete or fails the check."""
    cols, tree = _lift(*cosets)
    rep = GroupRep(p, CosetTable(cols, p.ngens), cap, tree)
    rep._verify()
    return rep


def _row_scan(raw_cols, ints) -> tuple:
    """Columns of a complete table, relabelled in row-scan order: element
    0 keeps label 0, and each other element gets the next label where it
    first appears when the relabelled rows are read in order, each row in
    column order.  That is the standard form of Sims (*Computation with
    Finitely Presented Groups*, 1994): the table is a function of the
    group and the generator order alone, whatever order the cosets were
    defined in, and does not depend on the order, rotation or inversion
    of the relators.  Every enumerated table is put in it, and
    ``GroupRep._block_table`` labels a quotient's in it as it goes.  An
    extension's table is not (``GroupRep.extend``); the tests compare it
    with enumeration through this relabelling.

    ``raw_cols[x][e]`` is the entry of element e in column x under the
    old labels, which lie below ``len(ints)``; label k is the object
    ``ints[k]`` (see ``GroupRep._label_ints``).  Each raw column is
    dropped from ``raw_cols`` once its relabelled column is built, to
    lower the peak memory.

    Returns ``(cols, tree)``, tree the parent elements and parent columns
    of ``GroupRep``, -1 at the root.  The scan gives each new label as
    the child of the row it appears in, through the column it appears
    in.  It reads the rows in their new order, each in column order, so
    that is the tree the breadth-first search of ``_schreier_tree``
    finds on the relabelled table, which ``_verified_group`` need not
    run; ``tests/check_recorded_tables.py`` compares the two on every
    recorded table."""
    label = [-1] * len(ints)
    label[0] = 0
    order = [0]
    parent = [-1]
    via = [-1]
    numbered = tuple(enumerate(raw_cols))
    for e in order:
        k = label[e]
        for x, col in numbered:
            t = col[e]
            if label[t] < 0:
                label[t] = ints[len(order)]
                order.append(t)
                parent.append(k)
                via.append(x)
    del numbered
    out = []
    for x, col in enumerate(raw_cols):
        raw_cols[x] = None
        out.append(tuple([label[col[e]] for e in order]))
    return tuple(out), (parent, via)


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
    and column of every element (-1 at the root).  Raises
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
    ``element_word`` returns a Schreier representative for any index,
    read off a spanning tree of the Cayley graph from 0.  ``tree``, an
    internal argument, is that tree as its parent elements and parent
    columns, for a caller that already has it: ``quotient`` passes this
    group's own tree when it keeps this group's table, and the tree its
    block labelling found otherwise, and ``extend`` passes this group's
    tree with a d edge to each g d.  A caller that hands a tree vouches
    that it spans the table.  ``enumerate_group`` passes the tree that
    ``_row_scan`` recorded as it labelled the table, which is the
    breadth-first tree of ``_schreier_tree``.  A table built directly
    gets that search, which also proves the table transitive.
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
    must keep it too.  They read it off the generation certificate of
    the source words (``basis``), whose closure stops once each generator
    has a reached pair y, y g; ``subgroup_closure`` closes over all of
    the subgroup.  The two automorphism queries are
    ``endomorphism_exists``, on a basis the caller keeps, and
    ``generator_map_automorphism``.

    Instances are immutable; all queries are pure.  Every attribute is
    set in ``__init__``, and none is added or cached later but one; the
    coset cap is an ``__init__`` argument for that reason.  Attribute
    loads are on the hot path of the per-element queries, and a lazily
    cached attribute (``functools.cached_property``) is measurably
    slower to load, likely because CPython 3.11 does not specialise the
    load of an instance attribute that a class-level descriptor shadows.

    The one exception is ``_left``, None from ``__init__``: L_g, left
    multiplication by each generator g (``_left_multiplications``).
    ``_verify`` sets it when a table passes, and ``quotient`` hands a
    quotient that shares this group's table this group's ``_left``, the
    same object.  Nothing else sets it, so it certifies that ``_verify``
    passed on this very table.  ``enumerate_group`` and ``quotient`` set
    it before they return the group, so no caller sees it change.  With
    it, ``conjugacy_class`` takes g t g^-1 and ``_involutions`` each
    inverse as table lookups, and ``_orbit`` closes the normal closure
    of an involution and the subgroup the involutions generate.  A
    table that is never verified, an extension or a table built
    directly, keeps None: building L for it costs more than it saves.
    It walks Schreier words and closes over conjugacy classes instead,
    and climbs the Schreier tree once per inverse pair for its
    involutions (``_involution_test``).  ``center`` builds L for such a
    table and keeps none of it.
    """

    def __init__(
        self,
        presentation: Presentation,
        table: CosetTable,
        cap: int = DEFAULT_CAP,
        tree=None,
    ):
        self.presentation = presentation
        self.table = table
        self.order = len(table)
        self.cap = cap
        if tree is None:
            tree = _schreier_tree(table.cols, self.order)
        self._parent_coset, self._parent_col = tree
        # set by _verify or quotient only (see the class docstring)
        self._left = None

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
        * For each generator column g, L is built along that tree
          (``_left_multiplications``), so that L(0 w) = (0 g) w for each
          tree word w.  L is checked to commute with every generator
          column, and so with their inverses and all of G.  It is then
          onto, its image being the orbit (0 g) G, so it lies in the
          centralizer C of G in Sym(n).  As L(0 v) = 0 g v, products of
          the L take 0 to 0 v for every positive word v in the
          generators; in a finite group those words give all of G, so C
          is transitive.
        * A transitive G with a transitive centralizer is regular: if h
          in G fixes 0, it fixes every y = 0 c, c in C, since
          y h = (0 h) c = y.  So a relator, an element of G, that fixes
          row 0 is the identity and fixes every row; each relator is
          walked from row 0 only (``_moving_relator``).
        * Conversely, in a regular table L is left multiplication by g,
          which commutes with right multiplications, so every consistent
          regular table passes.

        If a check fails, ``_verify`` raises at once, and names the
        failure.  Columns that are not inverse say so.  After a failed
        commutation check, every relator is walked over all elements at
        once, and the first relator that moves an element is named with
        the first element it moves; if none does, the relators hold but
        the table, a transitive action with a nontrivial stabilizer, is
        not a regular representation.  A regular table that a relator
        fails is named from row 0 (``_moving_relator``): in it a relator
        moves row 0 exactly when it moves every row.  If every check
        passes, the L are kept as ``_left`` (see the class docstring)."""
        cols = self.table.cols
        n = self.order
        gens = cols[::2]
        # compared with range(n) lazily: a list of n new ints raised the
        # peak RSS of two catalog passes by about 0.5 MB (2-core Xeon,
        # CPython 3.11)
        if not all(
            all(map(eq, [inv[y] for y in col], range(n)))
            for col, inv in zip(gens, cols[1::2])
        ):
            raise InconsistencyError("table columns are not inverse")
        lefts = self._left_multiplications()
        relators = self.presentation.relators
        names = self.presentation.names
        if any(
            [left[y] for y in col] != [col[y] for y in left]
            for left in lefts for col in gens
        ):
            identity = list(range(n))
            for r in relators:
                images = _act(identity, [cols[c] for c in r.cols()])
                if images != identity:
                    a = next(a for a, y in enumerate(images) if y != a)
                    raise InconsistencyError(f"relator {r.text(names)} does not fix coset {a}")
            raise InconsistencyError("the table is not a regular representation")
        r = _moving_relator(cols, relators)
        if r is not None:
            raise InconsistencyError(f"relator {r.text(names)} does not fix coset 0")
        self._left = tuple(lefts)

    def _left_multiplications(self) -> list:
        """L_g for each generator column g, built along the Schreier tree
        in a parents-first order (``_tree_order``): L(0) = 0 g and
        L(y) = L(p) x for the tree edge p --x--> y, so L(0 w) = (0 g) w
        for each tree word w.  In a regular table L is left
        multiplication by g; ``_verify`` proves a table regular with it."""
        cols = self.table.cols
        parent = self._parent_coset
        order = self._tree_order()
        tree_cols = [cols[x] for x in self._parent_col]
        lefts = []
        for g in cols[::2]:
            left = [g[0]] * self.order
            for y in order:
                left[y] = tree_cols[y][left[parent[y]]]
            lefts.append(left)
        return lefts

    def _tree_order(self):
        """Every element but the identity, each after its tree parent:
        index order when every parent has a smaller index, as in row-scan
        standard form and in ``extend``'s layout over it, else the tree's
        breadth-first order, read off the parents."""
        n = self.order
        parent = self._parent_coset
        if all(map(lt, parent, range(n))):
            return range(1, n)
        children = [[] for _ in range(n)]
        for y in range(1, n):
            children[parent[y]].append(y)
        order = [0]
        for y in order:
            order += children[y]
        return order[1:]

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

    def _incremental_closure(self, candidate_indices, certify=False, test=None) -> tuple:
        """Elements of the subgroup generated by the candidate element
        indices, identity first, the marks that say how each was reached,
        and the generation certificate: ``(elements, mark, blocks,
        pairs)``.  Candidates join one at a time, as Schreier words.
        Members are skipped, and so is a non-member for which ``test``,
        if given, is false; members are never tested.

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
        spells y as a word in the candidates (``Basis.word``), with no
        parent list kept.

        Without ``certify`` the closure runs to the end, or until E is
        the whole group, and ``pairs`` is None.  With it, the stop rule
        of ``basis``, and of ``generated_by_involutions`` on a table
        without ``_left``: after each block the elements it reached are
        checked, and the loop stops, reading no further candidate, once
        each presentation generator g has an element y of E with y g in
        E too, ``pairs[i]`` for g's column 2 i.  Then g = y^-1 (y g) lies
        in the subgroup, so the candidates generate the group.  A pair
        first appears in the block that reaches its later element z: z g
        is in E (y = z) or z g^-1 is (y = z g^-1), so checking each new
        element both ways finds it.  Once E holds more than half the
        group, E and E g^-1 meet, so the rule never runs past half the
        group.  A closure that ends with a generator still unpaired is a
        proper subgroup, and ``pairs`` is None."""
        cols = self.table.cols
        mark = [0] * self.order
        mark[0] = 1
        blocks = [-1, -1]
        block = blocks.append
        elements = [0]
        add = elements.append
        words = []
        if certify:
            pairs = [None] * (len(cols) // 2)
            unpaired = [(i, cols[2 * i], cols[2 * i + 1]) for i in range(len(pairs))]

            def settle(lo):
                # pair each unpaired generator off the elements reached
                # since elements[lo]; True once none is left
                new = elements[lo:]
                for gen in unpaired[:]:
                    i, g, ginv = gen
                    for z in new:
                        if mark[g[z]]:
                            pairs[i] = z
                            break
                        if mark[ginv[z]]:
                            pairs[i] = ginv[z]
                            break
                    else:
                        continue
                    unpaired.remove(gen)
                return not unpaired

            done = settle(0)
        else:
            pairs = None
            done = False

            def settle(lo):
                return len(elements) == self.order

        def run(j, w, level):
            # one block: candidate j's word w applied to the level
            b = len(blocks)
            block(j)
            lo = len(elements)
            for y in _act(level, w):
                if not mark[y]:
                    mark[y] = b
                    add(y)
            return len(elements) > lo and settle(lo)

        for j, t in enumerate(candidate_indices):
            if done:
                break
            if mark[t] or test is not None and not test(t):
                continue
            w = [cols[c] for c in self._schreier_cols(t)]
            words.append((j, w))
            start = len(elements)
            done = run(j, w, elements)
            while not done and start < len(elements):
                level = elements[start:]
                start = len(elements)
                for i, w in words:
                    done = run(i, w, level)
                    if done:
                        break
        if certify and not done:
            pairs = None
        return elements, mark, blocks, pairs

    def basis(self, words):
        """The generation certificate of the given words, a ``Basis``, or
        None if they generate a proper subgroup.  Their closure stops once
        each presentation generator g has a reached pair y, y g
        (``_incremental_closure``); the basis keeps that pair and the
        closure's marks, which spell each element it reached as a word in
        ``words``."""
        words = tuple(words)
        return self._basis(words, [self.element_of(w) for w in words])

    def _basis(self, words, indices):
        _, mark, blocks, pairs = self._incremental_closure(indices, True)
        if pairs is None:
            return None
        cols = self.table.cols
        back = tuple(
            [cols[c ^ 1] for c in reversed(self._schreier_cols(t))] for t in indices
        )
        if len(blocks) <= 256:
            # a wrapper keeps its basis, and a list of marks takes 8 bytes
            # an element: 161 KB on ex2, whose sigma needs 18 blocks
            mark = bytes(mark)
        return Basis(words, mark, blocks, back, tuple(pairs))

    def conjugacy_class(self, x: int):
        """Orbit of element x under conjugation by the generators, sorted.
        With ``_left`` it is ``_orbit``'s first orbit; without it, t's
        Schreier word is walked from g^-1 to g^-1 t g.  Both orbits are
        the class of x, as conjugation by g^-1 is a power of conjugation
        by g."""
        self._check_index(x)
        if self._left is not None:
            return sorted(next(self._orbit(x)))
        cols = self.table.cols
        member = bytearray(self.order)
        member[x] = 1
        out = [x]
        ngens = self.presentation.ngens
        gen_pairs = [(cols[2 * g + 1][0], cols[2 * g]) for g in range(ngens)]
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

    def _orbit(self, x, candidates=()):
        """The breadth-first orbit S of x, on a table with ``_left``,
        under conjugation by each generator g, t -> g t g^-1 as two
        lookups ``cols[g^-1][L_g[t]]``, and under right multiplication by
        the newest candidate c to join, a walk of its Schreier word.
        Yields S, a list in the order reached, each time no level is
        left: first for x alone, then after each candidate not yet in S
        joins.  The level after c joins is all of S, so c's word
        multiplies all of S once.  From x = 0, S is then the normal
        closure of the candidates so far.  By induction, S before c
        joined is the normal closure M of the earlier ones, and S after is
        M N, N the normal closure of c.  S lies in M N.  S holds m c for
        each m in M, and with y in S, y h c h^-1 = h (h^-1 y h c) h^-1: S
        is closed under right multiplication by each conjugate of c, so S
        holds M N.  So the earlier candidates' words are not walked again:
        M N is closed under them."""
        cols = self.table.cols
        conj = tuple(zip(cols[1::2], self._left))
        member = bytearray(self.order)
        member[x] = 1
        out = [x]
        level = [x]
        word = None
        candidates = iter(candidates)
        while True:
            while level:
                new = []
                for ginv, left in conj:
                    for y in [ginv[left[t]] for t in level]:
                        if not member[y]:
                            member[y] = 1
                            new.append(y)
                if word:
                    for y in _act(level, word):
                        if not member[y]:
                            member[y] = 1
                            new.append(y)
                out += new
                level = new
            yield out
            c = next((c for c in candidates if not member[c]), None)
            if c is None:
                return
            word = [cols[i] for i in self._schreier_cols(c)]
            # all of S: a level is read in full before out grows
            level = out

    def normal_closure(self, w: Word) -> SubgroupHandle:
        """Smallest normal subgroup containing w: the closure of a
        conjugacy class under generation (``_normal_closure_elements``)."""
        return SubgroupHandle(self._normal_closure_elements(w))

    def _normal_closure_elements(self, w: Word) -> list:
        """The elements of the normal closure of w, identity first.  With
        x = w's element of order d, each power x^j with gcd(j, d) = 1
        generates <x>, and so has the same normal closure.  The closure's
        cost depends on which of them it starts from, so it is taken of
        the conjugacy class of the one with the smallest index, which in
        row-scan form has the shortest Schreier word.  In an extension of
        a group in that form, index 2g + 1 has the word of 2g and then d,
        so the smallest index has a word at most one letter longer than
        the shortest.  Only j = 0 is coprime to d = 1, so the identity's
        closure is {0}, and an involution is its own only such power.

        An involution's closure on a table with ``_left`` is ``_orbit``'s
        from the identity, with x the one candidate.  Two involutions
        generate a dihedral group, whose Cayley graph on them is a cycle,
        so a closure over the class adds about one element a block: 795
        blocks for the 794 elements of N(sigma1 sigma2) on a
        2,382-element torus, where the orbit takes 26 levels, the
        identity's included.  Other closures keep the class closure:
        there every element pays a map per generator and one more in the
        orbit, and the closure about two words in its large levels."""
        x = self.element_of(w)
        letters = self._schreier_cols(x)
        powers = [0]
        y = x
        while y != 0:
            powers.append(y)
            y = self._walk(y, letters)
        d = len(powers)
        if d == 2 and self._left is not None:
            *_, out = self._orbit(0, (x,))
            return out
        t = min(y for j, y in enumerate(powers) if gcd(j, d) == 1)
        return self._incremental_closure(self.conjugacy_class(t))[0]

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

    def extend(self, sources, images, z: Word) -> "GroupRep":
        """The extension E of this group G by one generator d with
        d^-1 s d = u for each source word s and its image u, and d^2 = z,
        all words in G's generators, built from G's table.  E's
        presentation is G's names and the first free one of d, d2, ...
        (``_fresh_name``), then G's relators, d^-1 s d u^-1 for each
        source s and image u, and d^2 z^-1; for z = 1, d is an involution,
        each d^-1 is written d and d^2 comes first.

        Element g of G gets index 2g and g d gets index 2g + 1.  With
        alpha the automorphism s -> u (``generator_map_automorphism``)
        and beta = alpha^-1, (g d) h = g beta(h) d = beta(alpha(g) h) d,
        g d^-1 = g z^-1 d (d commutes with z = d^2) and (g d) d = g z, so
        every column is read off G's table, alpha, beta and a walk of z,
        and built once, its even and odd entries by slice assignment.
        The table is not relabelled into row-scan form, and no tree is
        searched: G's tree is handed over (``tree`` of ``GroupRep``), with
        2g's parent 2p by G's edge p --h--> g, and 2g + 1's parent 2g by
        d.  Every parent has a smaller index when G's do, so the queries
        walk the tree in index order (``_tree_order``).  G and G d are
        interleaved rather than stacked so that a search in index order,
        such as ``_involutions`` without ``_left``, meets G d's elements
        as early as G's.

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
          G's generators and d, as the rows are one orbit: G's columns
          act on the even rows as on G, so G's tree, a spanning tree of
          G's table, doubled reaches every 2g from row 0, and 2g d is
          2g + 1.  So the handed tree spans the table, and Ê is a
          quotient of E (von Dyck).
        * |E| <= 2|G|: E's relators are G's, d^2 z^-1 and d^-1 s d u^-1
          for each source s, by construction.  So d^2 lies in the image N
          of G in E, each d^-1 s d then does too, and the sources
          generate G (alpha exists), so N is normal of index at most 2 in
          E.  N, generated by elements that satisfy G's relators, is a
          quotient of G.  So E is Ê.

        Raises ValueError if z uses a generator G does not declare,
        CapExceededError, before building anything, if 2|G| exceeds
        ``cap``, and ValueError, as ``enumerate_group`` does, if the
        relators hold more than ``cap`` letters in all."""
        self._check_word(z)
        n = self.order
        if 2 * n > self.cap:
            raise CapExceededError(self.cap, 2 * n)
        names = self.presentation.names
        d = Word.gen(len(names))
        d_inv = ~d if z else d
        relators = [d_inv * s * d * ~u for s, u in zip(sources, images)]
        relators.insert(len(relators) if z else 0, d * d * ~z)
        presentation = Presentation(
            names + (_fresh_name(names),), self.presentation.relators + tuple(relators))
        _bounded_relators(presentation, self.cap)
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
        # g d --d^-1--> g; g is at 2g and g d at 2g + 1
        ints = self._label_ints(2 * n)
        even, odd = ints[0::2], ints[1::2]
        identity = ints[:n]

        def column(g_part, gd_part):
            # entry 2g from g_part[g] and 2g + 1 from gd_part[g]
            col = [0] * (2 * n)
            col[0::2] = g_part
            col[1::2] = gd_part
            return col

        table = [tuple(column([even[y] for y in col], [odd[beta[col[a]]] for a in alpha]))
                 for col in cols]
        z_walk, z_inv_walk = [cols[c] for c in z_cols], [cols[c] for c in z_inv]
        table.append(tuple(column(odd, [even[y] for y in _act(identity, z_walk)])))
        table.append(tuple(column([odd[y] for y in _act(identity, z_inv_walk)], even)))
        r = _moving_relator(table, presentation.relators)
        if r is not None:
            raise InconsistencyError(f"{r.text(presentation.names)} does not fix coset 0")
        # G's tree edge p --h--> g gives 2p --h--> 2g, and 2g --d--> 2g + 1
        parent_coset = column([even[p] for p in self._parent_coset], even)
        parent_coset[0] = -1  # the root, which G's -1 sent to even[-1]
        tree = parent_coset, column(self._parent_col, [len(cols)] * n)
        return GroupRep(presentation, CosetTable(tuple(table), presentation.ngens), self.cap, tree)

    def quotient(self, w: Word) -> "GroupRep":
        """The quotient G/N of this group G by the normal closure N of w,
        presented by G's presentation with w added as a relator (von
        Dyck's theorem).  If w is the identity of G, that presentation
        presents G itself: G satisfies w, so G is a quotient of the group
        it presents (von Dyck), which is in turn a quotient of G.  The
        quotient then keeps G's table and Schreier tree, shared and not
        copied.  G's table is the regular representation of G (see the
        class docstring), so it is the quotient's; its labels are G's, so
        it is in row-scan form exactly when G's is: a shared extension
        table is not (``extend``).  Otherwise the table is built from G's
        by ``_block_table``, in row-scan form, and is right only if
        ``normal_closure`` is.

        The table is checked against the new presentation (``_verify``),
        but a shared table of a G with ``_left`` is handed G's ``_left``
        instead.  G's check proved this very table, which nothing
        changes, to be a regular representation satisfying G's relators,
        and the one new relator w fixes row 0, which is what chose the
        shared table, so by regularity it fixes every row.  A G without
        ``_left`` has had no check pass, and its shared table is
        verified.  Raises
        ValueError, as ``enumerate_group`` does, if its relators hold
        more than ``cap`` letters in all."""
        presentation = self.presentation.with_relators(w)
        _bounded_relators(presentation, self.cap)
        shared = self.element_of(w) == 0
        if shared:
            table, tree = self.table, (self._parent_coset, self._parent_col)
        else:
            table, tree = self._block_table(w, presentation.ngens)
        rep = GroupRep(presentation, table, self.cap, tree)
        if shared and self._left is not None:
            rep._left = self._left
        else:
            rep._verify()
        return rep

    def _block_table(self, w: Word, ngens: int) -> tuple:
        """The table of G/N, N the normal closure of w, and its Schreier
        tree (``tree`` of ``GroupRep``).  N gets label 0, and as the labels
        are read in order, each generator column maps the coset of the
        current label onto a coset, which gets the next label if it has
        none yet.  The labels are therefore in row-scan form, and each
        label is created at the row and column of its breadth-first tree
        edge, the edge ``_schreier_tree`` would find; the parent is
        stored as one of the table's own int objects (``_label_ints``)."""
        cols = self.table.cols
        ints = self._label_ints(self.order)
        label = [-1] * self.order
        blocks = [self._normal_closure_elements(w)]
        for x in blocks[0]:
            label[x] = 0
        out = [[] for _ in cols]
        numbered = tuple(zip(range(len(cols)), cols, out))
        parent_coset = [-1]
        parent_col = [-1]
        for i, members in enumerate(blocks):
            blocks[i] = None
            m = members[0]
            for x, col, out_col in numbered:
                t = col[m]
                if label[t] < 0:
                    block = [col[y] for y in members]
                    b = ints[len(blocks)]
                    for y in block:
                        label[y] = b
                    blocks.append(block)
                    parent_coset.append(ints[i])
                    parent_col.append(x)
                out_col.append(label[t])
        table = CosetTable(tuple(map(tuple, out)), ngens)
        return table, (parent_coset, parent_col)

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
        automorphism (``generator_map_automorphism``)."""
        images = tuple(images)
        ngens = self.presentation.ngens
        if len(images) != ngens:
            raise ValueError(f"need {ngens} images, got {len(images)}")
        gens = [Word.gen(i) for i in range(ngens)]
        return self.generator_map_automorphism(gens, images) is not None

    def generator_map_automorphism(self, sources, images):
        """The automorphism sending each source word to its image word,
        as a full permutation of element indices, or None if no such
        automorphism exists.

        Works for any generating set, not just the presentation
        generators.  The homomorphism phi that sends each source to its
        image, if there is one, is read off the sources' basis
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

    def endomorphism_exists(self, basis, images) -> bool:
        """True iff some endomorphism sends each source word of ``basis``
        (``basis(sources)``) to its image word, read off the basis
        without a closure (``_phi_words``).  A caller that knows every
        endomorphism with these images to be one to one, say because its
        square is the identity or an inner automorphism, gets the verdict
        of ``generator_map_automorphism(sources, images) is not None`` at
        the cost of a few words."""
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
        for w in sources + images:
            self._check_word(w)
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
        phi(g) = psi(y)^-1 psi(y g) for its pair y in ``basis.pairs``,
        which the closure reached with y g.  If every relator maps to 1, phi
        extends to a homomorphism of the group (von Dyck's theorem, as
        the presentation presents the group; see ``GroupRep``), and it
        is checked to send each source word to its image.  Conversely, a
        homomorphism h with those images has h(y) = psi(y) for every y
        in R, so h(g) = phi(g) and h passes both checks: the verdict is
        exact."""
        cols = self.table.cols
        walk = self._walk
        image_words = [self._schreier_cols(u) for u in image_indices]

        def psi(y):
            x = 0
            for j in basis.word(y):
                x = walk(x, image_words[j])
            return x

        letters = []
        for g, y in zip(cols[::2], basis.pairs):
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
        """The elements of order exactly 2, found lazily.  With ``_left``,
        the group is searched breadth first by left multiplication, from
        the identity, and each inverse is one lookup:
        (g z)^-1 = z^-1 g^-1, so ``inv[L_g[z]] = cols[g^-1][inv[z]]``.
        The search reaches every element, as the group is finite.  The
        involutions come in its order, and are the table's own ints.
        Without ``_left`` they come in index order, from
        ``_involution_test``."""
        if self._left is None:
            yield from filter(self._involution_test(), range(1, self.order))
            return
        pairs = tuple(zip(self._left, self.table.cols[1::2]))
        inv = [-1] * self.order
        inv[0] = 0
        reached = [0]
        for z in reached:
            i = inv[z]
            for left, ginv in pairs:
                y = left[z]
                if inv[y] < 0:
                    inv[y] = ginv[i]
                    reached.append(y)
                    if inv[y] == y:
                        yield y

    def _involution_test(self):
        """A test that x is an involution, to be asked of each element
        at most once.  It climbs the Schreier tree from x (``_inverse``)
        to its inverse y and marks y: y^-1 = x, so y is an involution only
        if y = x, which is not asked again.  A marked element is answered
        False with no climb, so each inverse pair costs one climb."""
        inverse = self._inverse
        paired = bytearray(self.order)

        def involution(x):
            if paired[x]:
                return False
            y = inverse(x)
            paired[y] = 1
            return y == x

        return involution

    def involutions(self):
        """Indices of all elements of order exactly 2, in index order."""
        return sorted(self._involutions())

    def generated_by_involutions(self) -> bool:
        """True iff the order-2 elements generate the whole group.  The
        trivial group counts as generated by the empty set.  The
        involutions come lazily from ``_involutions``.

        On a table with ``_left`` they are ``_orbit``'s candidates, for
        the reason ``_normal_closure_elements`` gives.  Each time an
        orbit closes, S is the normal closure of the involutions so far.
        An involution y outside S would make y S an element of order 2 of
        G/S, so once the index |G : S| is odd, S holds every involution
        and the answer is whether S is G; this also answers a group of
        odd order before any involution is sought.  Otherwise the
        involutions run out, and S, of even index, is the subgroup they
        generate, normal as they are closed under conjugation.

        On a table without ``_left`` the candidates are the elements in
        index order, and the closure asks ``_involution_test`` only about
        those outside it: a member adds no generator.  The closure stops
        once each generator g has a reached pair y, y g, which puts g in
        the subgroup (``_incremental_closure``), so a True answer need not
        find every involution.  A False answer closes over the whole
        subgroup the involutions generate, but climbs the tree only from
        elements that it does not hold yet, once per inverse pair."""
        if self._left is None:
            test = self._involution_test()
            return self._incremental_closure(range(1, self.order), True, test)[3] is not None
        for s in self._orbit(0, self._involutions()):
            if self.order // len(s) % 2:
                return len(s) == self.order
        return False

    def center(self) -> SubgroupHandle:
        """Elements commuting with every generator g: the x with
        L_g[x] = x g, one generator column at a time.  L is ``_left``, or
        on a table without it, an extension or a table built directly,
        ``_left_multiplications()``, which this query does not keep."""
        cols = self.table.cols
        lefts = self._left if self._left is not None else self._left_multiplications()
        out = range(self.order)
        for left, col in zip(lefts, cols[::2]):
            out = [x for x in out if left[x] == col[x]]
        return SubgroupHandle(out)
