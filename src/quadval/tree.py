"""Valuation trees.

A node at level i is the residue class n == r (mod 2**i).  Substituting
n = 2**i * q + r turns f into g(q) = A*q**2 + B*q + C, where A = 4**i * a,
B = 2**i * (2*a*r + b) and C = f(r), and the class is inspected through
g.  Pull the largest shared power of two out of g's coefficients,
g = 2**w * g1.  If g1 has an odd constant term and an even sum of leading
and middle coefficients then g1 takes odd values everywhere, so
nu2(f(n)) == w on the whole class: the node terminates with valuation w.
Otherwise the class splits into its two subclasses mod 2**(i+1), whose
polynomials g(2q) = (4A, 2B, C) and g(2q+1) = (4A, 4A + 2B, A + B + C)
come from the parent's, so trees grow level by level without going back
to f.  A class whose base point is a root of f (C == 0) is frozen as a
leaf with infinite valuation: the valuations over that class are
unbounded but never settle, since the root sits inside it at every
depth.  Bounded sequences give finite trees; unbounded ones refine
forever, so construction takes a depth cap.

A tree is stored as its nodes in pre-order, without child links: every
split has the same shape, so a NON_TERMINATING node (i, r) is followed
by the subtree of (i+1, r) and then by that of (i+1, r + 2**i).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import INFINITE, Valuation, nu2, sqrt_mod_pow2
from .classify import Case, Classification, classify
from .closed_form import closed_form_valuation
from .operators import canonical_residue_map
from .poly import DomainError, QuadraticPoly


class NodeStatus(Enum):
    TERMINATING = "terminating"
    NON_TERMINATING = "non_terminating"
    ROOT_NODE = "root_node"
    DEPTH_CAPPED = "depth_capped"


@dataclass(frozen=True)
class TreeNode:
    """The residue class n == residue (mod 2**level).  valuation is set
    for TERMINATING (the constant value on the class) and ROOT_NODE
    (INFINITE), otherwise None."""

    level: int
    residue: int
    status: NodeStatus
    valuation: Valuation | None


@dataclass(frozen=True)
class ValuationTree:
    """poly's tree down to depth_cap, its nodes in pre-order: a
    NON_TERMINATING node (i, r) is followed by the subtree of (i+1, r),
    then by that of (i+1, r + 2**i).  levels is the depth of the deepest
    node when every branch terminated, or None when the tree was cut by
    the cap or pinned by an integer root."""

    poly: QuadraticPoly
    nodes: tuple[TreeNode, ...]
    depth_cap: int
    levels: int | None


def _node_law(big_a: int, big_b: int, big_c: int) -> tuple[NodeStatus, Valuation | None]:
    """The status of a class from the coefficients (A, B, C) of its g."""
    if big_c == 0:
        return NodeStatus.ROOT_NODE, INFINITE
    w = nu2(big_a | big_b | big_c)
    assert isinstance(w, int)
    if (big_c >> w) & 1 and not ((big_a + big_b) >> w) & 1:
        return NodeStatus.TERMINATING, w
    return NodeStatus.NON_TERMINATING, None


def _split(i: int, r: int, big_a: int, big_b: int, big_c: int) -> tuple[tuple[int, int, int, int], ...]:
    """The subclasses of n == r (mod 2**i) as (residue, A, B, C) of g(2q), g(2q + 1)."""
    a4 = 4 * big_a
    return (r, a4, 2 * big_b, big_c), (r + (1 << i), a4, a4 + 2 * big_b, big_a + big_b + big_c)


def node_status(f: QuadraticPoly, i: int, r: int) -> tuple[NodeStatus, Valuation | None]:
    """Decide the fate of the class n == r (mod 2**i) without expanding it."""
    if i < 0:
        raise ValueError("level must be nonnegative")
    if not 0 <= r < (1 << i):
        raise ValueError(f"residue {r} is out of range for level {i}")
    return _node_law((4**i) * f.a, (1 << i) * (2 * f.a * r + f.b), f(r))


def build_tree(f: QuadraticPoly, depth_cap: int = 32) -> ValuationTree:
    """Expand the tree depth first, cutting unresolved branches at depth_cap."""
    if depth_cap < 0:
        raise ValueError("depth cap must be nonnegative")
    nodes: list[TreeNode] = []
    stack = [(0, 0, f.a, f.b, f.c)]
    complete = True
    while stack:
        i, r, big_a, big_b, big_c = stack.pop()
        status, val = _node_law(big_a, big_b, big_c)
        if status is NodeStatus.NON_TERMINATING and i == depth_cap:
            status = NodeStatus.DEPTH_CAPPED
        if status is NodeStatus.NON_TERMINATING:
            even, odd = _split(i, r, big_a, big_b, big_c)
            stack += [(i + 1, *odd), (i + 1, *even)]
        elif status is not NodeStatus.TERMINATING:
            complete = False
        nodes.append(TreeNode(i, r, status, val))
    return ValuationTree(f, tuple(nodes), depth_cap, max(nd.level for nd in nodes) if complete else None)


def nodes_by_level(tree: ValuationTree) -> dict[int, list[TreeNode]]:
    out: dict[int, list[TreeNode]] = {}
    for node in sorted(tree.nodes, key=lambda nd: (nd.level, nd.residue)):
        out.setdefault(node.level, []).append(node)
    return out


def _newton_root(f0: QuadraticPoly, x: int, bits: int) -> int:
    """The 2-adic root of f0 that is == x (mod 2), reduced mod 2**bits,
    for f0(x) even and an odd derivative 2*a*x + b.  Each step doubles
    the precision of the root and, by the step u <- u * (2 - f0'(x) * u),
    of the inverse u of the derivative, so no step inverts a number of
    full size.  Residues
    are taken with a mask, which costs linear time where % costs a
    division."""
    k, u = 1, 1  # f0(x) == 0 and u * f0'(x) == 1 (mod 2**k)
    while k < bits:
        k = min(2 * k, bits)
        mask = (1 << k) - 1
        x = (x - f0(x) * u) & mask
        u = u * (2 - (2 * f0.a * x + f0.b) * u) & mask
    return x


def infinite_branch_residues(
    f: QuadraticPoly, bits: int, *, classification: Classification | None = None
) -> list[int]:
    """Residues mod 2**bits of the classes that refine forever.

    A class refines forever exactly when it holds a 2-adic root of f, so
    these are the roots of the reduced form f0 = (a0, b0, c0), lifted
    directly to 2**bits.  In cases 2 and 4 the derivative 2*a0*x + b0 is
    odd, and Newton's method doubles the precision at each step from the
    root mod 2: c0 mod 2 in case 2, both 0 and 1 in case 4.  In case 3,
    with h = b0/2, a0 * f0(x) = (a0*x + h)**2 - 4**(ell-1) * delta, so the
    roots are (-h +- 2**(ell-1) * sqrt(delta)) * a0**(-1): the double root
    -h * a0**(-1) once in case 3(a), and both signs in case 3(b), where
    delta == 1 (mod 8) has a 2-adic square root (sqrt_mod_pow2), needed
    only to bits - ell + 1 bits.  Each residue is checked to be a root of
    f0 mod 2**bits.

    The result has exactly classification.infinite_branches entries,
    sorted; the two roots of case 3(b) agree mod 2**ell, so at that
    precision or less the shared residue appears twice.  A root that is
    an integer is found like any other.
    """
    if bits < 1:
        raise ValueError("bits must be at least 1")
    cls = classification if classification is not None else classify(f)
    if cls.case_tag.is_bounded:
        raise DomainError("the valuation sequence is bounded; there are no infinite branches")
    f0, mask = cls.reduced, (1 << bits) - 1
    if cls.case_tag is Case.CASE2_UNBOUNDED:
        roots = [_newton_root(f0, f0.c & 1, bits)]
    elif cls.case_tag is Case.CASE4_UNBOUNDED:
        roots = [_newton_root(f0, 0, bits), _newton_root(f0, 1, bits)]
    else:
        ts = [0]  # t = a0*x + h at each root: one double root in case 3(a)
        if cls.case_tag is Case.CASE3B_UNBOUNDED:
            assert cls.disc is not None and cls.disc.ell is not None and cls.disc.delta is not None
            ell = cls.disc.ell
            t = sqrt_mod_pow2(cls.disc.delta, max(bits - ell + 1, 1)) << (ell - 1)
            ts = [t, -t]
        ainv = pow(f0.a, -1, mask + 1)
        roots = [(t - f0.b // 2) * ainv & mask for t in ts]
    assert all(f0(r) & mask == 0 for r in roots), "a branch residue is not a root of f mod 2**bits"
    return sorted(roots)


def live_branch_count(cls: Classification, level: int) -> int:
    """How many classes at level (>= 1) of an unbounded sequence's tree
    still split: one per infinite branch, except that the two branches
    of case 3(b) share one class down to level ell."""
    if cls.case_tag is Case.CASE3B_UNBOUNDED:
        assert cls.disc is not None and cls.disc.ell is not None
        if level <= cls.disc.ell:
            return 1
    return cls.infinite_branches


def flatten_tree(tree: ValuationTree, period: int) -> list[int | None]:
    """The values the terminating nodes give to the residues mod period;
    None where no terminating node covers a residue."""
    flat: list[int | None] = [None] * period
    for node in tree.nodes:
        if node.status is NodeStatus.TERMINATING:
            assert isinstance(node.valuation, int)
            step = 1 << node.level
            flat[node.residue :: step] = [node.valuation] * len(range(node.residue, period, step))
    return flat


def is_type_ell_1(tree: ValuationTree) -> bool:
    """Whether a complete tree has the canonical bounded shape: its
    terminating leaves are those canonical_residue_map lists, each with
    the valuation that the canonical polynomial n**2 + 2n + c0 of the
    same discriminant, plus the shared factor, has there.  The leaves of
    a complete tree fix all its nodes, so this pins the live chain too.
    Raises DomainError for a tree whose construction did not finish.
    """
    if tree.levels is None:
        raise DomainError("the tree was cut before every branch terminated; shape test needs a complete tree")
    cls = classify(tree.poly)
    if cls.case_tag is not Case.CASE3C_BOUNDED:
        return False
    assert cls.disc is not None and cls.disc.ell is not None and cls.disc.delta is not None
    ell = cls.disc.ell
    if ell < 2:
        return False
    canonical = QuadraticPoly(1, 2, 1 - 4 ** (ell - 1) * cls.disc.delta)
    canonical_cls = classify(canonical)
    leaves = {(nd.level, nd.residue): nd.valuation for nd in tree.nodes if nd.status is NodeStatus.TERMINATING}
    return leaves == {
        (level, t): cls.even_offset + closed_form_valuation(canonical, t, classification=canonical_cls)
        for level, t, _ in canonical_residue_map(tree.poly, classification=cls)
    }
