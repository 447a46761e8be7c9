"""Valuation trees.

A node at level i is the residue class n == r (mod 2**i).  Substituting
n = 2**i * q + r turns f into a quadratic in q,

    g(q) = 4**i * a * q**2  +  2**i * (2*a*r + b) * q  +  f(r),

and the class is inspected through g.  Pull the largest shared power of
two out of g's coefficients, g = 2**w * g1.  If g1 has an odd constant
term and an even sum of leading and middle coefficients then g1 takes
odd values everywhere, so nu2(f(n)) == w on the whole class: the node
terminates with valuation w.  Otherwise the class splits into its two
subclasses mod 2**(i+1).  A class whose base point is a root of f
(f(r) == 0) is frozen as a leaf with infinite valuation: the valuations
over that class are unbounded but never settle, since the root sits
inside it at every depth.

Bounded sequences give finite trees (every branch terminates); unbounded
ones refine forever, so construction takes a depth cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import INFINITE, Valuation, nu2
from .classify import Case, Classification, classify
from .closed_form import closed_form_valuation
from .poly import DomainError, QuadraticPoly


class NodeStatus(Enum):
    TERMINATING = "terminating"
    NON_TERMINATING = "non_terminating"
    ROOT_NODE = "root_node"
    DEPTH_CAPPED = "depth_capped"


@dataclass(frozen=True)
class TreeNode:
    """One residue class.  valuation is set for TERMINATING (the constant
    value on the class) and ROOT_NODE (INFINITE), otherwise None."""

    level: int
    residue: int
    status: NodeStatus
    valuation: Valuation | None
    children: tuple["TreeNode", ...]


@dataclass(frozen=True)
class ValuationTree:
    """poly's tree down to depth_cap.  levels is the depth of the deepest
    node when every branch terminated, or None when the tree was cut by
    the cap or pinned by an integer root."""

    poly: QuadraticPoly
    root: TreeNode
    depth_cap: int
    levels: int | None


def node_status(f: QuadraticPoly, i: int, r: int) -> tuple[NodeStatus, Valuation | None]:
    """Decide the fate of the class n == r (mod 2**i) without expanding it."""
    if i < 0:
        raise ValueError("level must be nonnegative")
    if not 0 <= r < (1 << i):
        raise ValueError(f"residue {r} is out of range for level {i}")
    big_a = (4**i) * f.a
    big_b = (1 << i) * (2 * f.a * r + f.b)
    big_c = f(r)
    if big_c == 0:
        return NodeStatus.ROOT_NODE, INFINITE
    w = min(nu2(big_a), nu2(big_b), nu2(big_c))
    assert isinstance(w, int)
    s = 1 << w
    a1, b1, c1 = big_a // s, big_b // s, big_c // s
    if c1 % 2 != 0 and (a1 + b1) % 2 == 0:
        return NodeStatus.TERMINATING, w
    return NodeStatus.NON_TERMINATING, None


def build_tree(f: QuadraticPoly, depth_cap: int = 32) -> ValuationTree:
    """Expand the tree, cutting unresolved branches at depth_cap."""
    if depth_cap < 0:
        raise ValueError("depth cap must be nonnegative")
    complete = True
    deepest = 0

    def expand(i: int, r: int) -> TreeNode:
        nonlocal complete, deepest
        deepest = max(deepest, i)
        status, val = node_status(f, i, r)
        if status is NodeStatus.TERMINATING:
            return TreeNode(i, r, status, val, ())
        if status is NodeStatus.ROOT_NODE:
            complete = False
            return TreeNode(i, r, status, val, ())
        if i == depth_cap:
            complete = False
            return TreeNode(i, r, NodeStatus.DEPTH_CAPPED, None, ())
        children = (expand(i + 1, r), expand(i + 1, r + (1 << i)))
        return TreeNode(i, r, status, None, children)

    root = expand(0, 0)
    return ValuationTree(f, root, depth_cap, deepest if complete else None)


def walk(node: TreeNode):
    """Yield node and all its descendants, parents first."""
    yield node
    for child in node.children:
        yield from walk(child)


def nodes_by_level(tree: ValuationTree) -> dict[int, list[TreeNode]]:
    out: dict[int, list[TreeNode]] = {}
    for node in walk(tree.root):
        out.setdefault(node.level, []).append(node)
    for nodes in out.values():
        nodes.sort(key=lambda nd: nd.residue)
    return out


def infinite_branch_residues(
    f: QuadraticPoly, bits: int, *, classification: Classification | None = None
) -> list[int]:
    """Residues mod 2**bits of the classes that refine forever.

    The result always has exactly classification.infinite_branches
    entries, sorted; when two branches still agree at this precision the
    shared residue appears twice.  Descent continues through classes
    pinned by an integer root, so those branches are located at full
    precision too.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    cls = classification if classification is not None else classify(f)
    if cls.case_tag.is_bounded:
        raise DomainError("the valuation sequence is bounded; there are no infinite branches")
    expected = cls.infinite_branches
    current = [0]
    for level in range(1, bits + 1):
        step = 1 << (level - 1)
        nxt = []
        for r in current:
            for child in (r, r + step):
                status, _ = node_status(f, level, child)
                if status in (NodeStatus.NON_TERMINATING, NodeStatus.ROOT_NODE):
                    nxt.append(child)
        assert nxt, "an unbounded sequence lost every live branch"
        assert len(nxt) <= expected, "more live branches than 2-adic roots"
        current = nxt
    while len(current) < expected:
        current.append(current[0])
    return sorted(current)


def live_branch_count(cls: Classification, level: int) -> int:
    """How many classes at level (>= 1) of an unbounded sequence's tree
    still split: one for cases 2 and 3(a), two for case 4, and for case
    3(b) one up to level ell and two below it."""
    tag = cls.case_tag
    if tag in (Case.CASE2_UNBOUNDED, Case.CASE3A_UNBOUNDED):
        return 1
    if tag is Case.CASE3B_UNBOUNDED:
        assert cls.disc is not None and cls.disc.ell is not None
        return 1 if level <= cls.disc.ell else 2
    return 2  # case 4


def flatten_tree(tree: ValuationTree, period: int) -> list[int | None]:
    """The values the terminating nodes give to the residues mod period;
    None where no terminating node covers a residue."""
    flat: list[int | None] = [None] * period
    for node in walk(tree.root):
        if node.status is not NodeStatus.TERMINATING:
            continue
        assert isinstance(node.valuation, int)
        for r in range(node.residue, period, 1 << node.level):
            flat[r] = node.valuation
    return flat


def is_type_ell_1(tree: ValuationTree) -> bool:
    """Whether a complete tree has the canonical bounded shape: a single
    live chain along the all-ones residues 2**i - 1, a terminating
    sibling 2**(i-1) - 1 at each level i < levels, two terminating leaves
    on the last level, and every terminating leaf carrying the valuation
    that the canonical polynomial n**2 + 2n + c0 with the same
    discriminant and shared factor has on its class.

    Raises DomainError for a tree whose construction did not finish.
    """
    if tree.levels is None:
        raise DomainError("the tree was cut before every branch terminated; shape test needs a complete tree")
    cls = classify(tree.poly)
    if cls.case_tag is not Case.CASE3C_BOUNDED:
        return False
    assert cls.disc is not None and cls.disc.ell is not None and cls.disc.delta is not None
    ell = cls.disc.ell
    if ell < 2 or tree.levels != ell:
        return False
    canonical = QuadraticPoly(1, 2, 1 - 4 ** (ell - 1) * cls.disc.delta)
    canonical_cls = classify(canonical)
    by = nodes_by_level(tree)
    for i in range(1, ell + 1):
        nodes = by.get(i, [])
        if [nd.residue for nd in nodes] != [(1 << (i - 1)) - 1, (1 << i) - 1]:
            return False
        leaves = nodes if i == ell else nodes[:1]
        if i < ell and nodes[1].status is not NodeStatus.NON_TERMINATING:
            return False
        for leaf in leaves:
            if leaf.status is not NodeStatus.TERMINATING:
                return False
            expected = cls.even_offset + closed_form_valuation(canonical, leaf.residue, classification=canonical_cls)
            if leaf.valuation != expected:
                return False
    return True
