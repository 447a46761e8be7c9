from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import F1, F2, F4, F4_TABLE, case3c_polys, double_root_outside_Z, make_case2, make_case3b, polys
from quadval import (
    INFINITE,
    Case,
    DomainError,
    NodeStatus,
    QuadraticPoly,
    TreeNode,
    build_tree,
    classify,
    flatten_tree,
    infinite_branch_residues,
    is_type_ell_1,
    live_branch_count,
    node_status,
    nodes_by_level,
    nu2,
    period_table,
)


def test_node_status_examples():
    assert node_status(QuadraticPoly(1, 0, 0), 1, 0) == (NodeStatus.ROOT_NODE, INFINITE)
    assert node_status(F4, 5, 31) == (NodeStatus.TERMINATING, 10)
    assert node_status(F4, 5, 15) == (NodeStatus.TERMINATING, 8)
    assert node_status(F4, 3, 7)[0] is NodeStatus.NON_TERMINATING
    assert node_status(QuadraticPoly(1, 1, 1), 0, 0) == (NodeStatus.TERMINATING, 0)


def test_node_status_validation():
    with pytest.raises(ValueError):
        node_status(F4, 2, 4)
    with pytest.raises(ValueError):
        node_status(F4, -1, 0)


def test_node_status_matches_brute_force_constancy():
    rng = Random(31)
    for _ in range(200):
        a = rng.randint(-50, 50) or 1
        f = QuadraticPoly(a, rng.randint(-50, 50), rng.randint(-50, 50))
        level = rng.randint(0, 6)
        residue = rng.randint(0, (1 << level) - 1)
        status, val = node_status(f, level, residue)
        samples = [nu2(f((q << level) + residue)) for q in range(40)]
        if status is NodeStatus.TERMINATING:
            assert all(s == val for s in samples)
        elif status is NodeStatus.NON_TERMINATING:
            assert len(set(samples)) > 1
        else:
            assert f(residue) == 0


def test_f4_tree_shape():
    tree = build_tree(F4, 8)
    assert tree.levels == 5
    leaves = {(n.level, n.residue): n.valuation for n in tree.nodes if n.status is NodeStatus.TERMINATING}
    assert leaves == {(1, 0): 0, (2, 1): 2, (3, 3): 4, (4, 7): 6, (5, 15): 8, (5, 31): 10}
    flat = [None] * 32
    for (level, residue), val in leaves.items():
        for r in range(residue, 32, 1 << level):
            flat[r] = val
    assert tuple(flat) == F4_TABLE


def test_trivial_tree():
    tree = build_tree(QuadraticPoly(1, 1, 1), 4)
    assert tree.levels == 0
    assert tree.nodes == (TreeNode(0, 0, NodeStatus.TERMINATING, 0),)


def test_capped_tree():
    tree = build_tree(F1, 6)
    assert tree.levels is None
    capped = [n for n in tree.nodes if n.status is NodeStatus.DEPTH_CAPPED]
    assert len(capped) == 1 and capped[0].level == 6


def test_root_pinned_tree():
    tree = build_tree(QuadraticPoly(1, 1, 0), 6)
    assert tree.nodes == (TreeNode(0, 0, NodeStatus.ROOT_NODE, INFINITE),)
    assert tree.nodes[0].valuation is INFINITE
    assert tree.levels is None


def test_nodes_by_level():
    by = nodes_by_level(build_tree(F4, 6))
    assert sorted(by) == [0, 1, 2, 3, 4, 5]
    assert [n.residue for n in by[5]] == [15, 31]


def test_type_shape_accepts_canonical_trees():
    assert is_type_ell_1(build_tree(QuadraticPoly(1, 2, 5), 3)) is True
    assert is_type_ell_1(build_tree(QuadraticPoly(1, 2, -47), 4)) is True


def test_type_shape_rejections():
    # right residues on the live chain, but the two deepest leaves are swapped
    assert is_type_ell_1(build_tree(F4, 6)) is False
    # single-level trees are out of scope for the shape
    assert is_type_ell_1(build_tree(QuadraticPoly(1, 0, 3), 2)) is False
    # constants have the wrong case entirely
    assert is_type_ell_1(build_tree(QuadraticPoly(1, 1, 1), 2)) is False


def test_type_shape_needs_complete_tree():
    with pytest.raises(DomainError):
        is_type_ell_1(build_tree(F1, 5))


def test_branch_residues_examples():
    assert infinite_branch_residues(F1, 5) == [9]
    assert nu2(F1(9)) == 5
    assert infinite_branch_residues(QuadraticPoly(1, 0, -1), 6) == [1, 63]
    assert infinite_branch_residues(QuadraticPoly(1, 1, 0), 10) == [0, 1023]
    # case 3(a): the double root of (n + 3)**2 is one branch, listed once
    assert infinite_branch_residues(QuadraticPoly(1, 6, 9), 8) == [253]


def test_branch_residues_duplicate_until_separation():
    # the two 2-adic roots of F2 agree modulo 2**3 and split at 2**4
    assert infinite_branch_residues(F2, 3) == [6, 6]
    at4 = infinite_branch_residues(F2, 4)
    assert len(at4) == 2 and len(set(at4)) == 2
    assert sorted(r % 8 for r in at4) == [6, 6]


def test_branch_residues_bounded_raises():
    with pytest.raises(DomainError):
        infinite_branch_residues(F4, 8)
    with pytest.raises(ValueError):
        infinite_branch_residues(F1, 0)


def test_branch_residues_coherent_and_deep():
    rng = Random(555)
    polys = [F1, F2, double_root_outside_Z(rng)] + [make_case2(rng) for _ in range(5)] + [make_case3b(rng) for _ in range(5)]
    for f in polys:
        cls = classify(f)
        previous = None
        for bits in range(1, 13):
            res = infinite_branch_residues(f, bits, classification=cls)
            assert len(res) == cls.infinite_branches
            assert all(nu2(f(r)) >= bits for r in res)
            if previous is not None:
                assert sorted(r % (1 << (bits - 1)) for r in res) == previous
            previous = sorted(res)


def test_case4_keeps_two_branches():
    tree = build_tree(QuadraticPoly(1, 1, 2), 10)
    by = nodes_by_level(tree)
    for level in range(1, 11):
        live = [n for n in by[level] if n.status in (NodeStatus.NON_TERMINATING, NodeStatus.DEPTH_CAPPED)]
        assert len(live) == 2
        terms = [n for n in by[level] if n.status is NodeStatus.TERMINATING]
        if level == 1:
            assert terms == []
        else:
            assert [t.valuation for t in terms] == [level - 1, level - 1]


def test_case3b_single_then_double():
    cls = classify(F2)
    tree = build_tree(F2, 8)
    by = nodes_by_level(tree)
    for level in range(1, 9):
        live = [n for n in by[level] if n.status in (NodeStatus.NON_TERMINATING, NodeStatus.DEPTH_CAPPED)]
        assert len(live) == (1 if level <= cls.disc.ell else 2)


def preorder_by_node_status(f, depth):
    """The (level, residue) pre-order of f's tree to depth, each split
    decided by node_status from f afresh, written recursively."""
    def visit(level, residue):
        out = [(level, residue)]
        if level < depth and node_status(f, level, residue)[0] is NodeStatus.NON_TERMINATING:
            out += visit(level + 1, residue) + visit(level + 1, residue + (1 << level))
        return out

    return visit(0, 0)


@given(f=polys(), depth=st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_tree_nodes_carry_node_status(f, depth):
    tree = build_tree(f, depth)
    assert [(nd.level, nd.residue) for nd in tree.nodes] == preorder_by_node_status(f, depth)
    for node in tree.nodes:
        status, val = node_status(f, node.level, node.residue)
        if node.status is NodeStatus.DEPTH_CAPPED:
            assert (node.level, status, node.valuation) == (depth, NodeStatus.NON_TERMINATING, None)
        else:
            assert (node.status, node.valuation) == (status, val)
    closed = all(nd.status in (NodeStatus.TERMINATING, NodeStatus.NON_TERMINATING) for nd in tree.nodes)
    assert tree.levels == (max(nd.level for nd in tree.nodes) if closed else None)


@given(f=case3c_polys())
@settings(max_examples=150, deadline=None)
def test_tree_leaves_reproduce_the_period_table_on_big_coefficients(f):
    ell = classify(f).disc.ell
    tree = build_tree(f, ell)
    assert tree.levels == ell
    assert flatten_tree(tree, 2**ell) == list(period_table(f).entries)


def test_deep_trees_compare_hash_and_print():
    f = QuadraticPoly(13, 12, -28)
    one, two = build_tree(f, 2048), build_tree(f, 2048)
    assert one.nodes is not two.nodes and one == two and hash(one) == hash(two)
    assert build_tree(f, 2047) != one
    assert repr(one.nodes[0]) == "TreeNode(level=0, residue=0, status=<NodeStatus.NON_TERMINATING: 'non_terminating'>, valuation=None)"
    assert repr(one.nodes[0]) in repr(one)


def descent_by_node_status(f, bits, branches):
    """infinite_branch_residues the slow way: node_status on both
    subclasses of every live class, level by level."""
    live = [0]
    for level in range(1, bits + 1):
        live = [
            r
            for parent in live
            for r in (parent, parent + (1 << (level - 1)))
            if node_status(f, level, r)[0] is not NodeStatus.TERMINATING
        ]
    return sorted(live + live[:1] * (branches - len(live)))


@given(f=polys(), bits=st.integers(min_value=1, max_value=512))
@settings(max_examples=300, deadline=None)
def test_branch_residues_match_descent_by_node_status(f, bits):
    cls = classify(f)
    assume(not cls.case_tag.is_bounded)
    expected = descent_by_node_status(f, bits, cls.infinite_branches)
    assert infinite_branch_residues(f, bits, classification=cls) == expected


def test_branch_residues_match_descent_at_8192_bits():
    assert infinite_branch_residues(F2, 8192) == descent_by_node_status(F2, 8192, 2)


@given(f=polys())
@settings(max_examples=300, deadline=None)
def test_branch_residues_count_the_live_classes(f):
    # every live class holds a 2-adic root, pinned by an integer root or not
    cls = classify(f)
    assume(not cls.case_tag.is_bounded)
    residues = infinite_branch_residues(f, 24, classification=cls)
    for level in range(1, 25):
        assert len({r % (1 << level) for r in residues}) == live_branch_count(cls, level)
    assert len(infinite_branch_residues(f, 64, classification=cls)) == cls.infinite_branches
