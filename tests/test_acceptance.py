"""Acceptance checklist.

Nine end-to-end checks, one test each, named so a verbose run prints a
pass/fail line per item.  They exercise the library through its public
surface only and measure themselves against fixed wall-clock budgets.
"""

import time
from random import Random

import pytest

from helpers import (
    F1,
    F1_VALS,
    F2,
    F2_VALS,
    F3,
    F3_VALS,
    F4,
    F4_VALS,
    double_root_outside_Z,
    make_case2,
    make_case3b,
    make_case4,
    run_cli,
    sample_with,
)
from quadval import (
    Case,
    QuadraticPoly,
    NodeStatus,
    apply_operators,
    build_tree,
    canonical_residue_map,
    canonicalize_to_type_ell_1,
    classify,
    closed_form_valuation,
    dilate,
    empirical_period,
    infinite_branch_residues,
    is_type_ell_1,
    nodes_by_level,
    nu2,
    period_table,
    s_backward,
    s_forward,
    table_s_law,
    table_translate_law,
    translate,
)


@pytest.fixture(scope="module")
def bounded_suite():
    """500 pseudo-random bounded case 3(c) polynomials, coefficients in
    [-10**4, 10**4], shared by the closed-form, period, and tree checks."""
    rng = Random(97531)
    return sample_with(
        rng,
        lambda f, cls: cls.case_tag is Case.CASE3C_BOUNDED,
        count=500,
    )


def test_criterion_1_golden_sequences_match_reference_tables():
    started = time.perf_counter()
    for f, golden in ((F1, F1_VALS), (F2, F2_VALS), (F3, F3_VALS), (F4, F4_VALS)):
        code, out, _ = run_cli(
            ["seq", "-a", str(f.a), "-b", str(f.b), "-c", str(f.c),
             "--count", str(len(golden))]
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == len(golden)
        for n, (row, expected) in enumerate(zip(rows, golden)):
            n_text, value_text, val_text = row.split(",")
            assert int(n_text) == n
            assert int(value_text) == f(n)
            assert int(val_text) == expected
    assert time.perf_counter() - started < 1.0


def test_criterion_2_reference_polynomials_classify_exactly():
    started = time.perf_counter()

    c1 = classify(F1)
    assert c1.case_tag is Case.CASE2_UNBOUNDED and c1.infinite_branches == 1

    c2 = classify(F2)
    assert c2.case_tag is Case.CASE3B_UNBOUNDED and c2.infinite_branches == 2

    c3 = classify(F3)
    assert c3.case_tag is Case.CASE3C_BOUNDED
    assert (c3.disc.ell, c3.disc.m, c3.period) == (7, 2, 128)

    c4 = classify(F4)
    assert c4.case_tag is Case.CASE3C_BOUNDED
    assert (c4.disc.ell, c4.disc.m, c4.period) == (5, 5, 32)

    expectations = {
        F1: "unbounded, case 2, 1 infinite branch",
        F2: "unbounded, case 3(b), 2 infinite branches",
        F3: "bounded, case 3(c), ℓ=7, m=2, period 128",
        F4: "bounded, case 3(c), ℓ=5, m=5, period 32",
    }
    for f, caption in expectations.items():
        code, out, _ = run_cli(["classify", "-a", str(f.a), "-b", str(f.b), "-c", str(f.c)])
        assert code == 0
        assert caption in out

    assert time.perf_counter() - started < 1.0


def test_criterion_3_closed_form_agrees_with_brute_force(bounded_suite):
    started = time.perf_counter()
    for f, cls in bounded_suite:
        for n in range(4 * cls.period):
            assert closed_form_valuation(f, n, classification=cls) == nu2(f(n)), (
                f"{f} disagrees with brute force at n={n}"
            )
    assert time.perf_counter() - started < 60.0


def test_criterion_4_period_is_minimal_at_two_to_the_ell(bounded_suite):
    started = time.perf_counter()
    for f, cls in bounded_suite:
        period = cls.period
        vals = [nu2(f(n)) for n in range(4 * period)]
        assert empirical_period(vals) == period
        half = period // 2
        witnesses = [n for n in range(half) if vals[n] != vals[n + half]]
        assert witnesses, f"{f} is constant across a half period"
    assert time.perf_counter() - started < 60.0


def _split_statuses(nodes):
    live = [n for n in nodes
            if n.status in (NodeStatus.NON_TERMINATING, NodeStatus.DEPTH_CAPPED)]
    terminal = [n for n in nodes if n.status is NodeStatus.TERMINATING]
    pinned = [n for n in nodes if n.status is NodeStatus.ROOT_NODE]
    return live, terminal, pinned


def test_criterion_5_unbounded_trees_obey_branch_and_valuation_laws():
    started = time.perf_counter()
    rng = Random(24680)
    depth = 14

    for _ in range(100):
        for maker, branches in (
            (make_case2, 1),
            (double_root_outside_Z, 1),
            (make_case3b, 2),
            (make_case4, 2),
        ):
            f = maker(rng)
            cls = classify(f)
            assert cls.infinite_branches == branches
            off = cls.even_offset
            ell = cls.disc.ell if cls.disc is not None else None
            tree = build_tree(f, depth_cap=depth)
            assert tree.levels is None
            levels = nodes_by_level(tree)
            assert sorted(levels) == list(range(depth + 1))

            for i in range(1, depth + 1):
                live, terminal, pinned = _split_statuses(levels[i])
                assert not pinned

                if cls.case_tag is Case.CASE2_UNBOUNDED:
                    assert len(live) == 1 and len(terminal) == 1
                    assert terminal[0].valuation == i - 1 + off
                elif cls.case_tag is Case.CASE3A_UNBOUNDED:
                    assert len(live) == 1 and len(terminal) == 1
                    assert terminal[0].valuation == 2 * (i - 1) + off
                elif cls.case_tag is Case.CASE3B_UNBOUNDED:
                    if i <= ell:
                        assert len(live) == 1 and len(terminal) == 1
                        assert terminal[0].valuation == 2 * (i - 1) + off
                    elif i == ell + 1:
                        assert len(live) == 2 and len(terminal) == 0
                    else:
                        assert len(live) == 2 and len(terminal) == 2
                else:  # case 4
                    if i == 1:
                        assert len(live) == 2 and len(terminal) == 0
                    else:
                        assert len(live) == 2 and len(terminal) == 2
                        assert all(t.valuation == i - 1 + off for t in terminal)

            frontier = [n for n in levels[depth]
                        if n.status is NodeStatus.DEPTH_CAPPED]
            assert len(frontier) == branches or (
                cls.case_tag is Case.CASE3B_UNBOUNDED and ell >= depth
            )
    assert time.perf_counter() - started < 60.0


def test_criterion_6_finite_trees_reproduce_period_tables(bounded_suite):
    started = time.perf_counter()
    for f, cls in bounded_suite:
        tree = build_tree(f)
        assert tree.levels == cls.disc.ell
        table = period_table(f, classification=cls)

        painted: list = [None] * table.period
        for node in tree.nodes:
            if node.status is not NodeStatus.TERMINATING:
                continue
            step = 1 << node.level
            for r in range(node.residue, table.period, step):
                assert painted[r] is None, "terminal classes overlap"
                painted[r] = node.valuation
        assert painted == list(table.entries)

        for node in tree.nodes:
            step = 1 << node.level
            samples = [nu2(f(node.residue + k * step)) for k in range(33)]
            if node.status is NodeStatus.TERMINATING:
                assert all(s == node.valuation for s in samples)
            else:
                assert len(set(samples)) > 1, (
                    f"{f}: class {node.residue} mod {step} looks constant"
                )
    assert time.perf_counter() - started < 60.0


def test_criterion_7_operator_laws_and_canonicalization():
    started = time.perf_counter()
    rng = Random(13579)

    def keep(f, cls):
        return (
            cls.case_tag is Case.CASE3C_BOUNDED
            and cls.disc.ell >= 2
            and cls.even_offset == 0
            and f.a > 0
        )

    for f, cls in sample_with(rng, keep, count=200):
        s = rng.randint(-40, 40)
        g = translate(f, s)
        assert all(g(n) == f(n - s) for n in range(-8, 9))
        assert table_translate_law(f, s)
        assert g.discriminant == f.discriminant

        h = s_backward(f, f.a)
        assert h == QuadraticPoly(1, f.b, f.a * f.c)
        assert all(nu2(f(n)) == nu2(h(f.a * n)) for n in range(17))
        assert table_s_law(h, f.a)
        assert h.discriminant == f.discriminant
        assert dilate(f, 3).discriminant == 9 * f.discriminant

        canonical, chain = canonicalize_to_type_ell_1(f, classification=cls)
        assert canonical.a == 1 and canonical.b == 2
        assert apply_operators(chain, canonical) == f
        assert is_type_ell_1(build_tree(canonical))

        ftable = period_table(f, classification=cls)
        gtable = period_table(canonical)
        for level, t, r in canonical_residue_map(f, classification=cls):
            assert gtable.entries[t] == ftable.entries[r], (
                f"{f}: level {level} map {t} -> {r} does not carry the valuation"
            )
    assert time.perf_counter() - started < 30.0


def test_criterion_8_level_one_table_covers_all_parity_combinations():
    started = time.perf_counter()
    rng = Random(86420)
    buckets: dict[tuple[int, int], int] = {
        (m, b4): 0 for m in (2, 3, 5, 6, 7) for b4 in (0, 2)
    }
    checked = 0
    tries = 0
    while (checked < 100 or min(buckets.values()) < 10) and tries < 400_000:
        tries += 1
        a = 2 * rng.randint(-100, 100) + 1
        f = QuadraticPoly(a, 2 * rng.randint(-100, 100), rng.randint(-200, 200))
        cls = classify(f)
        if cls.case_tag is not Case.CASE3C_BOUNDED or cls.disc.ell != 1:
            continue
        key = (cls.disc.m, cls.reduced.b % 4)
        if buckets[key] >= 10 and checked >= 100:
            continue
        buckets[key] += 1
        checked += 1
        for n in range(64):
            assert closed_form_valuation(f, n, classification=cls) == nu2(f(n)), (
                f"{f} (m={key[0]}, b%4={key[1]}) wrong at n={n}"
            )
    assert checked >= 100
    assert all(count >= 10 for count in buckets.values()), buckets
    assert time.perf_counter() - started < 10.0


def test_criterion_9_branch_residues_approximate_two_adic_roots():
    started = time.perf_counter()
    rng = Random(11235)
    polys = [F2]
    polys.extend(make_case2(rng) for _ in range(25))
    polys.extend(make_case3b(rng) for _ in range(25))

    bits = 12
    for f in polys:
        cls = classify(f)
        residues = {k: infinite_branch_residues(f, k, classification=cls)
                    for k in range(1, bits + 1)}
        assert len(residues[bits]) == cls.infinite_branches
        for r in residues[bits]:
            assert nu2(f(r)) >= bits
        for k in range(1, bits):
            truncated = sorted(r % (1 << k) for r in residues[k + 1])
            assert truncated == residues[k], (
                f"{f}: residues at {k + 1} bits do not refine those at {k}"
            )
    assert time.perf_counter() - started < 10.0
