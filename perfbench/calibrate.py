"""Host-speed calibration.

The machines this benchmark runs on share their cores: the same
computation can take 30 % more or less time from one ten seconds to the
next (measured on a 2-core Xeon VM: an ex2q7 enumeration took 0.27 to
0.54 s).  To keep that out of the figures, the benchmark times a fixed
calibration kernel between operations and reports each operation's time
scaled by ``REFERENCE_S / kernel time``: its wall time at the host speed
under which the kernel takes ``REFERENCE_S``.

The kernel is a condensed, frozen copy of rotamap's Felsch coset
enumeration as it was when the benchmark was written, run on the
{4,4}(3,4) torus group (order 100).  It does the same kind of work as the program (list
tables, relator scans, deduction stacks), so a busy host slows both
alike, but it lives here, so changes to the program do not change it.
"""

from __future__ import annotations

import gc
import statistics
import time

# Cyclically reduced relators of the {4,4}(3,4) torus presentation in the
# column encoding of rotamap.words (generator i -> 2i, its inverse 2i+1).
RELATORS = (
    (0, 0, 0, 0),
    (2, 2, 2, 2),
    (0, 2, 0, 2),
    (3, 0, 3, 0, 3, 0, 3, 0, 2, 1, 2, 1, 2, 1),
    (1, 2, 1, 2, 1, 2, 2, 1, 2, 1, 2, 1, 2, 1),
)
NCOLS = 4
ORDER = 100
REFERENCE_S = 0.005  # kernel time at the reference host speed
WINDOW_S = 2.0  # kernel runs this close to an operation set its speed factor


def _rotations():
    buckets = [dict() for _ in range(NCOLS)]
    for r in RELATORS:
        for w in (r, tuple(c ^ 1 for c in reversed(r))):
            for i in range(len(w)):
                rot = w[i:] + w[:i]
                buckets[rot[0]][rot] = None
    return [tuple(b) for b in buckets]


ROTATIONS = _rotations()


def kernel() -> int:
    """Enumerate the calibration group; returns its order."""
    ncols = NCOLS
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
        queue = [b]
        while queue:
            g = queue.pop(0)
            for x in range(ncols):
                d = rows[g][x]
                if d < 0:
                    continue
                rows[d][x ^ 1] = -1
                mu, nu = find(g), find(d)
                e = rows[mu][x]
                if e >= 0:
                    e = find(e)
                    if e != nu:
                        u, v = (e, nu) if e < nu else (nu, e)
                        parent[v] = u
                        queue.append(v)
                elif rows[nu][x ^ 1] >= 0:
                    e = find(rows[nu][x ^ 1])
                    if e != mu:
                        u, v = (e, mu) if e < mu else (mu, e)
                        parent[v] = u
                        queue.append(v)
                else:
                    rows[mu][x] = nu
                    rows[nu][x ^ 1] = mu
                    push((mu, x))
                    push((nu, x ^ 1))

    def drain():
        while stack:
            c, x = stack.pop()
            c = find(c)
            for w in ROTATIONS[x]:
                f, i, j = c, 0, len(w) - 1
                while i <= j and rows[f][w[i]] >= 0:
                    f = rows[f][w[i]]
                    i += 1
                if i > j:
                    if f != c:
                        coincide(f, c)
                        c = find(c)
                    continue
                b = c
                while j >= i and rows[b][w[j] ^ 1] >= 0:
                    b = rows[b][w[j] ^ 1]
                    j -= 1
                if j < i:
                    coincide(f, b)
                    c = find(c)
                elif j == i:
                    rows[f][w[i]] = b
                    rows[b][w[i] ^ 1] = f
                    push((f, w[i]))
                    push((b, w[i] ^ 1))

    i = 0
    while i < len(rows):
        x = 0
        while parent[i] == i and x < ncols:
            if rows[i][x] < 0:
                n = len(rows)
                rows.append([-1] * ncols)
                parent.append(n)
                rows[i][x] = n
                rows[n][x ^ 1] = i
                push((i, x))
                push((n, x ^ 1))
                drain()
            x += 1
        i += 1
    return sum(1 for k, p in enumerate(parent) if p == k)


def timed_kernel():
    """(midpoint, seconds) of one kernel run.

    An untimed run first, and the garbage collector off, so that the
    timed run finds its memory already mapped and pays for no collection
    of the program's objects: what is left is the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t + end) / 2, end - t


def kernel_times(samples: int = 3) -> list:
    return [timed_kernel()[1] for _ in range(samples)]


def speed_factor(times) -> float:
    """REFERENCE_S over the median of the given kernel times."""
    return REFERENCE_S / statistics.median(times)


def op_factors(intervals, kernels, margin: float = WINDOW_S):
    """Speed factor of each operation interval ``(start, end)``: REFERENCE_S
    over the median time of the kernel runs from ``margin`` seconds before
    it started to ``margin`` seconds after it ended.  ``kernels`` holds
    ``(midpoint, seconds)`` pairs in time order, one before every interval
    and one after the last."""
    out = []
    lo = 0
    for start, end in intervals:
        while kernels[lo][0] < start - margin and kernels[lo + 1][0] < start:
            lo += 1
        window = []
        for mid, secs in kernels[lo:]:
            if mid > end + margin:
                break
            window.append(secs)
        out.append(REFERENCE_S / statistics.median(window))
    return out
