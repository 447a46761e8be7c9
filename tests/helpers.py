"""Shared fixtures-adjacent utilities for the test suite."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from random import Random

from hypothesis import strategies as st

from quadval import INFINITE, Case, Classification, QuadraticPoly, ValuationTree, classify
from quadval.cli import main as cli_main

# The four reference polynomials used throughout, with brute-force
# valuation rows frozen from independent computation.
F1 = QuadraticPoly(4, 13, -25)
F2 = QuadraticPoly(13, 12, -28)
F3 = QuadraticPoly(15, 1142, 25559)
F4 = QuadraticPoly(5, 106, 1125)

F1_VALS = (0, 3, 0, 1, 0, 2, 0, 1, 0, 5, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2)
F2_VALS = (2, 0, 4, 0, 2, 0, 9, 0, 2, 0, 4, 0, 2, 0, 7, 0, 2, 0, 4, 0)
F3_VALS = (0, 2, 0, 6, 0, 2, 0, 4, 0, 2, 0, 10, 0, 2, 0, 4)
F4_VALS = (0, 2, 0, 4, 0, 2, 0, 6, 0, 2, 0, 4, 0, 2, 0, 8, 0, 2, 0, 4)
F4_TABLE = (0, 2, 0, 4, 0, 2, 0, 6, 0, 2, 0, 4, 0, 2, 0, 8,
            0, 2, 0, 4, 0, 2, 0, 6, 0, 2, 0, 4, 0, 2, 0, 10)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse parse failures
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def random_poly(rng: Random, bound: int = 10**4) -> QuadraticPoly:
    a = 0
    while a == 0:
        a = rng.randint(-bound, bound)
    return QuadraticPoly(a, rng.randint(-bound, bound), rng.randint(-bound, bound))


def sample_with(
    rng: Random,
    keep,
    count: int,
    bound: int = 10**4,
    max_tries: int = 2_000_000,
) -> list[tuple[QuadraticPoly, Classification]]:
    """Rejection-sample polynomials whose classification satisfies keep."""
    out: list[tuple[QuadraticPoly, Classification]] = []
    for _ in range(max_tries):
        if len(out) == count:
            return out
        f = random_poly(rng, bound)
        cls = classify(f)
        if keep(f, cls):
            out.append((f, cls))
    raise AssertionError(f"could not draw {count} samples in {max_tries} tries")


def has_integer_root(f: QuadraticPoly) -> bool:
    d = f.discriminant
    if d < 0:
        return False
    r = math.isqrt(d)
    if r * r != d:
        return False
    return any((-f.b + s) % (2 * f.a) == 0 for s in (r, -r))


def double_root_outside_Z(rng: Random) -> QuadraticPoly:
    """A zero-discriminant polynomial (s*n + u)**2 whose double root
    -u/s is a 2-adic integer but not an ordinary one."""
    while True:
        s = 2 * rng.randint(1, 60) + 1
        u = rng.randint(-500, 500)
        if u % s:
            f = QuadraticPoly(s * s, 2 * s * u, u * u)
            return f if rng.random() < 0.5 else QuadraticPoly(-f.a, -f.b, -f.c)


def make_case2(rng: Random) -> QuadraticPoly:
    while True:
        a = 2 * rng.randint(-5000, 5000)
        if a == 0:
            continue
        f = QuadraticPoly(a, 2 * rng.randint(-2500, 2500) + 1, rng.randint(-10**4, 10**4))
        if not has_integer_root(f):
            return f


def make_case4(rng: Random) -> QuadraticPoly:
    while True:
        f = QuadraticPoly(
            2 * rng.randint(-2500, 2500) + 1,
            2 * rng.randint(-2500, 2500) + 1,
            2 * rng.randint(-5000, 5000),
        )
        if not has_integer_root(f):
            return f


def make_case3b(rng: Random) -> QuadraticPoly:
    while True:
        f = random_poly(rng)
        cls = classify(f)
        if cls.case_tag is Case.CASE3B_UNBOUNDED and not has_integer_root(cls.reduced):
            return f


def tree_json_witness(tree: ValuationTree) -> str:
    """`quadval tree --format json` the slow way: the nested objects built
    from the pre-order, each node's object joining the children of its
    parent (i-1, r mod 2**(i-1)), then printed by json.dumps."""
    made: dict[tuple[int, int], dict] = {}
    for node in tree.nodes:
        out: dict = {"level": node.level, "residue": node.residue, "status": node.status.value}
        if node.valuation is not None:
            out["valuation"] = "inf" if node.valuation is INFINITE else node.valuation
        out["children"] = []
        made[node.level, node.residue] = out
        if node.level:
            made[node.level - 1, node.residue % (1 << (node.level - 1))]["children"].append(out)
    f = tree.poly
    payload = {"a": f.a, "b": f.b, "c": f.c, "depth_cap": tree.depth_cap, "levels": tree.levels, "root": made[0, 0]}
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


DOT_NODE = re.compile(r'^\s*(\w+)\s*\[(.*)\];$')
DOT_EDGE = re.compile(r'^\s*(\w+)\s*->\s*(\w+)')


def parse_dot(text: str) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Tiny DOT reader: node id -> attribute text, plus edge pairs."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("digraph") and lines[-1] == "}"
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    for line in lines[1:-1]:
        if "->" in line:
            match = DOT_EDGE.match(line)
            assert match, line
            edges.append((match.group(1), match.group(2)))
        else:
            match = DOT_NODE.match(line)
            assert match, line
            if match.group(1) != "node":  # skip the defaults line
                nodes[match.group(1)] = match.group(2)
    return nodes, edges


COEFF_BITS = 200
big_ints = st.integers(min_value=-(1 << COEFF_BITS), max_value=1 << COEFF_BITS)


nonzero_big_ints = big_ints.filter(lambda n: n != 0)


@st.composite
def polys(draw):
    """Coefficients of up to 200 bits, scaled by 2**i (i <= 4).  Half the
    draws are free; the other half are k*(n - r1)*(p*n - r2), which has
    the integer root r1, often small enough to pin a node of a shallow tree."""
    shift = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        a, b, c = draw(nonzero_big_ints), draw(big_ints), draw(big_ints)
    else:
        k, p, r2 = draw(nonzero_big_ints), draw(nonzero_big_ints), draw(big_ints)
        r1 = draw(st.integers(min_value=0, max_value=1 << 12) | big_ints)
        a, b, c = k * p, -k * (p * r1 + r2), k * r1 * r2
    return QuadraticPoly(a << shift, b << shift, c << shift)


@st.composite
def case3c_polys(draw, max_ell: int = 10) -> QuadraticPoly:
    """Case-3(c) polynomials with coefficients of up to 200 bits and
    ell <= max_ell, scaled by 2**i (i <= 4): a is odd, b = 2h, and c solves
    h**2 - a*c = 4**(ell-1) * delta with delta == m (mod 8) and delta ==
    h**2 / 4**(ell-1) (mod a), so that a divides."""
    shift = draw(st.integers(min_value=0, max_value=4))
    a, h = 2 * draw(big_ints) + 1, draw(big_ints)
    ell = draw(st.integers(min_value=1, max_value=max_ell))
    m = draw(st.sampled_from([2, 3, 5, 6, 7]))
    mod = abs(a)
    d0 = h * h * pow(4 ** (ell - 1), -1, mod) % mod
    delta = d0 + mod * ((m - d0) * pow(mod, -1, 8) % 8 + 8 * draw(big_ints))
    c = (h * h - 4 ** (ell - 1) * delta) // a
    return QuadraticPoly(a << shift, (2 * h) << shift, c << shift)
