"""Acceptance suite: one test per criterion, exact integer expectations.

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints an explicit CRITERION n: PASS line.
"""

import pytest

from rotamap import (
    Chirality,
    DualityKind,
    RotationGroup3,
    TorusFamily,
    Word,
    catalog,
    check_polytopal3,
    classify3,
    detect_self_duality,
    enumerate_group,
    f_vector3,
    hole_length,
    involution_report,
    is_reflexible3,
    lattice_torus_oracle,
    map_invariants_regular,
    petrie4,
    schlafli,
    torus_map,
    zigzag_length,
)

s1, s2, s3 = Word.gen(0), Word.gen(1), Word.gen(2)


def test_criterion_1_example1_pipeline(ex1_pipe):
    assert ex1_pipe.base.order == 2000
    assert detect_self_duality(ex1_pipe.base).kind is DualityKind.IMPROPER
    m = ex1_pipe.map3
    assert m.order == 4000
    assert schlafli(m) == (4, 8)
    assert hole_length(m, 2) == 4
    assert classify3(m) is Chirality.CHIRAL
    assert m.rep.generated_by_involutions() is False
    print("CRITERION 1: PASS")


def test_criterion_2_example2_pipeline(ex2_chain):
    base = ex2_chain["base"]
    assert base.base.order == 20160
    assert petrie4(base.base) == (28, 28)

    q14, q7 = ex2_chain["q14"], ex2_chain["q7"]
    assert q14.base.order == 10080
    assert q7.base.order == 5040
    assert q7.base.rep.center().size == 1
    derived = q7.base.rep.derived_subgroup()
    assert q7.base.order // derived.size == 2

    for pipe in (base, q14, q7):
        assert pipe.ext.order == 2 * pipe.base.order
        m = pipe.map3
        assert schlafli(m) == (4, 6)
        assert hole_length(m, 2) == 6
        assert m.rep.generated_by_involutions() is True
    print("CRITERION 2: PASS")


def test_criterion_3_example3_pipeline(ex3_chain):
    base = ex3_chain["base"]
    assert base.base.order == 672
    assert detect_self_duality(base.base).kind is DualityKind.PROPER
    m = base.map3
    inv = map_invariants_regular(m)
    assert inv.chirality is Chirality.REGULAR
    assert inv.schlafli == (3, 16)
    assert zigzag_length(m, 1) == 28
    assert zigzag_length(m, 2) == 6
    assert inv.f_vector == (42, 336, 224)
    assert m.order == 1344

    quotient = ex3_chain["quotient"]
    qm = quotient.map3
    qinv = map_invariants_regular(qm)
    assert qinv.schlafli == (3, 8)
    assert qinv.f_vector == (42, 168, 112)
    assert qm.order == 672
    assert zigzag_length(qm, 1) == 14
    print("CRITERION 3: PASS")


def test_criterion_4_regular_simplex_path(simplex_pipe):
    from rotamap import find_polarity

    assert simplex_pipe["cgroup"].order == 120
    assert find_polarity(simplex_pipe["cgroup"]).kind is (
        DualityKind.REGULAR_POLARITY
    )
    m = simplex_pipe["map3"]
    inv = map_invariants_regular(m)
    assert inv.schlafli == (4, 6)
    assert inv.holes[2] == 3
    assert m.order == 240
    assert inv.f_vector == (20, 60, 30)
    assert inv.genus == 6
    print("CRITERION 4: PASS")


def test_criterion_5_torus_families():
    for family in ("44", "36", "63"):
        for b in range(1, 5):
            for c in range(0, 5):
                t = TorusFamily(family, b, c)
                m = torus_map(t)
                order, v, e, f = lattice_torus_oracle(t)
                assert m.order == order
                want_regular = c == 0 or b == c
                assert is_reflexible3(m) is want_regular
                cls = classify3(m)
                if cls is not Chirality.NOT_POLYTOPAL:
                    expected = (
                        Chirality.REGULAR if want_regular else Chirality.CHIRAL
                    )
                    assert cls is expected

    degenerate = torus_map(TorusFamily("44", 1, 0))
    assert f_vector3(degenerate, diagnostic=True) == (1, 2, 1)
    assert check_polytopal3(degenerate) is False
    print("CRITERION 5: PASS")


def test_criterion_6_structural_identities(ex1_pipe, ex2_chain, ex3_chain):
    violations = []

    improper = [ex1_pipe, ex2_chain["base"], ex2_chain["q14"], ex2_chain["q7"]]
    for pipe in improper:
        ext = pipe.ext
        rep = ext.rep
        d = ext.duality
        w1, w2, w3 = ext.base.sigma
        p, q, _ = schlafli(ext.base)
        k1, k2 = pipe.map3.sigma
        eo = rep.element_of

        if rep.element_order(k1) != 4:
            violations.append((ext, "k1 order"))
        if rep.element_order(k2) != 2 * q:
            violations.append((ext, "k2 order"))
        if rep.element_order((k1 * k2).reduce()) != 2:
            violations.append((ext, "k1 k2 order"))
        if rep.element_order((k1 * ~k2).reduce()) != p:
            violations.append((ext, "k1 k2^-1 order"))
        if eo((k2 * k2).reduce()) != eo((~w2).reduce()):
            violations.append((ext, "k2^2 = s2^-1"))
        cycle = [
            (w1 * w2).reduce(),
            (w1 * w2 * w3 * ~w1).reduce(),
            (~w3 * w1 * w2 * w3).reduce(),
            (w2 * w3).reduce(),
        ]
        for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            if eo((~d * cur * d).reduce()) != eo(nxt):
                violations.append((ext, "conjugation cycle"))
        left, right = petrie4(pipe.base)
        if left != right:
            violations.append((ext, "equal Petrie lengths"))

    proper = [ex3_chain["base"], ex3_chain["quotient"]]
    for pipe in proper:
        ext = pipe.ext
        rep = ext.rep
        _, q, _ = schlafli(ext.base)
        s, t = petrie4(ext.base)
        t0, t1, t2 = pipe.map3.rho
        if rep.element_order((t1 * t2).reduce()) != 2 * s:
            violations.append((ext, "t1 t2 = 2 * left Petrie"))
        if rep.element_order((t0 * t1 * t2).reduce()) != 2 * t:
            violations.append((ext, "t0 t1 t2 = 2 * right Petrie"))
        if rep.element_order((t0 * (t1 * t2) ** 2).reduce()) != q:
            violations.append((ext, "t0 (t1 t2)^2 order q"))
        if rep.element_of((t0 * t2).reduce()) != rep.element_of((t2 * t0).reduce()):
            violations.append((ext, "t0 t2 commute"))

    analyzed = [pipe.map3 for pipe in improper]
    for family in ("44", "36", "63"):
        for b in range(1, 4):
            for c in range(0, 4):
                analyzed.append(torus_map(TorusFamily(family, b, c)))
    for m in analyzed:
        if not involution_report(m).prop62_consistent:
            violations.append((m, "index bound under involution generation"))

    assert violations == []
    print("CRITERION 6: PASS")


def test_criterion_7_engine_determinism_and_soundness():
    entries = catalog()
    for name, entry in entries.items():
        first = enumerate_group(entry.presentation)
        second = enumerate_group(entry.presentation)
        assert first.table.rows == second.table.rows, name

        rows = first.table.rows
        for r in entry.presentation.relators:
            cols = r.cols()
            for x in range(first.order):
                y = x
                for col in cols:
                    y = rows[y][col]
                assert y == x, (name, "relator does not fix coset")

        dist = entry.presentation.distinguished
        for w in dist:
            assert first.order % first.subgroup_closure([w]).size == 0, name
        assert first.order % first.subgroup_closure(list(dist)).size == 0, name

    orders = [
        enumerate_group(entries[name].presentation).order
        for name in ("ex2", "ex2q14", "ex2q7")
    ]
    assert orders == sorted(orders, reverse=True)
    assert orders == [20160, 10080, 5040]
    print("CRITERION 7: PASS")
