"""Command line interface.

Subcommands:

    classify   case, boundedness, period or branch count
    table      full period table of a bounded sequence
    tree       the valuation tree, as ASCII art, DOT, or JSON
    seq        brute-force values nu2(f(n)) over a window
    verify     cross-check closed forms and trees against brute force
    batch      classify every polynomial listed in a file
    ops        canonical form and the operator chain that rebuilds f

Exit codes: 0 success, 1 verification mismatch, 2 bad input, 3 operation
outside its mathematical domain, 4 batch finished with error records,
5 internal error (an unexpected exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .arith import INFINITE, Valuation, nu2
from .classify import Case, Classification, classify, constant_valuation
from .closed_form import MAX_VALUES, closed_form_valuation, max_valuation, period_table
from .operators import canonical_residue_map, canonicalize_to_type_ell_1
from .oracle import empirical_period, valuation_sequence
from .poly import DomainError, QuadraticPoly
from .tree import (
    NodeStatus,
    TreeNode,
    ValuationTree,
    build_tree,
    flatten_tree,
    infinite_branch_residues,
    live_branch_count,
    node_status,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DOMAIN_ERROR = 3
EXIT_PARTIAL_FAILURE = 4
EXIT_INTERNAL_ERROR = 5

# A JSON tree indents each node's keys by four spaces per level, so its
# text grows as nodes times depth: 3.8 MB for a two-branch tree at 256.
MAX_JSON_TREE_DEPTH = 256


def _check_size(what: str, count: int) -> None:
    """table, seq and verify list or brute-force one value per n; no
    request may ask for more than MAX_VALUES of them."""
    if count > MAX_VALUES:
        raise ValueError(f"{what} {count} exceeds the limit of {MAX_VALUES} values")


def _val_json(v: Valuation) -> int | str:
    return "inf" if v is INFINITE else v


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _poly_from_args(args: argparse.Namespace) -> QuadraticPoly:
    return QuadraticPoly(args.a, args.b, args.c)


# ---------------------------------------------------------------- classify

def describe_classification(cls: Classification) -> str:
    tag = cls.case_tag
    parts = []
    if tag.is_constant:
        parts.append("constant")
        parts.append(f"case {tag.value}")
        parts.append(f"valuation {cls.even_offset}")
        parts.append("period 1")
    elif tag is Case.CASE3C_BOUNDED:
        assert cls.disc is not None
        parts.append("bounded")
        parts.append(f"case {tag.value}")
        parts.append(f"ℓ={cls.disc.ell}")
        parts.append(f"m={cls.disc.m}")
        parts.append(f"period {cls.period}")
    else:
        parts.append("unbounded")
        parts.append(f"case {tag.value}")
        n = cls.infinite_branches
        parts.append(f"{n} infinite branch" + ("es" if n != 1 else ""))
        if tag is Case.CASE3A_UNBOUNDED:
            parts.append("zero discriminant")
        elif tag is Case.CASE3B_UNBOUNDED:
            assert cls.disc is not None
            parts.append(f"ℓ={cls.disc.ell}")
            parts.append(f"Δ={cls.disc.delta}")
    if cls.even_offset and not tag.is_constant:
        parts.append(f"shared factor 2^{cls.even_offset}")
    return ", ".join(parts)


def classification_record(cls: Classification) -> dict:
    f = cls.poly
    disc = cls.disc
    rec: dict = {
        "a": f.a,
        "b": f.b,
        "c": f.c,
        "case": cls.case_tag.value,
        "bounded": cls.case_tag.is_bounded,
        "constant": cls.case_tag.is_constant,
        "even_offset": cls.even_offset,
        "discriminant": f.discriminant,
        "ell": disc.ell if disc is not None else None,
        "delta": disc.delta if disc is not None else None,
        "m": disc.m if disc is not None else None,
        "period": cls.period,
        "infinite_branches": cls.infinite_branches,
        "constant_valuation": constant_valuation(cls),
    }
    if cls.case_tag.is_bounded:
        rec["max_valuation"] = max_valuation(f, classification=cls)
    return rec


def cmd_classify(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    cls = classify(f)
    if args.json:
        text = json.dumps(classification_record(cls), ensure_ascii=False, indent=2) + "\n"
    else:
        text = f"f(n) = {f}\n{describe_classification(cls)}\n"
    _emit(text, args.output)
    return EXIT_OK


# ------------------------------------------------------------------- table

def cmd_table(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    cls = classify(f)
    if cls.period is not None:
        _check_size("period", cls.period)
    table = period_table(f, classification=cls)
    if args.format == "json":
        payload = {
            "a": f.a,
            "b": f.b,
            "c": f.c,
            "ell": table.ell,
            "period": table.period,
            "even_offset": table.even_offset,
            "entries": list(table.entries),
        }
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        lines = ["residue,valuation"]
        lines.extend(f"{r},{v}" for r, v in enumerate(table.entries))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


# -------------------------------------------------------------------- tree

def _node_label(level: int, residue: int) -> str:
    if level == 0:
        return "n"
    coef = 1 << level
    return f"{coef}q+{residue}" if residue else f"{coef}q"


def _node_mark(node: TreeNode) -> str:
    if node.status is NodeStatus.TERMINATING:
        return f"ν={node.valuation}"
    if node.status is NodeStatus.ROOT_NODE:
        return "ν=inf"
    if node.status is NodeStatus.DEPTH_CAPPED:
        return "…"
    return "*"


def render_tree_ascii(tree: ValuationTree) -> str:
    lines = []
    for node in tree.nodes:
        lines.append(f"{'  ' * node.level}{_node_label(node.level, node.residue)}  {_node_mark(node)}")
    return "\n".join(lines) + "\n"


def render_tree_dot(tree: ValuationTree) -> str:
    lines = ["digraph valuation_tree {", "  node [shape=circle];"]
    for node in tree.nodes:
        nid = f"n{node.level}_{node.residue}"
        label = f"{_node_label(node.level, node.residue)}\\n{_node_mark(node)}"
        if node.status in (NodeStatus.TERMINATING, NodeStatus.ROOT_NODE):
            lines.append(f'  {nid} [label="{label}", style=filled];')
        else:
            lines.append(f'  {nid} [label="{label}"];')
        if node.status is NodeStatus.NON_TERMINATING:
            i = node.level + 1
            for r in (node.residue, node.residue + (1 << node.level)):
                lines.append(f'  {nid} -> n{i}_{r} [label="{_node_label(i, r)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tree_json(tree: ValuationTree) -> str:
    """The tree as json.dumps(..., indent=2) would print it, with the root
    object nested under "root" and each node's children in a list, written
    in one pass over the pre-order.  A node's keys sit at 2 * (2*level + 2)
    spaces.  A leaf at (level, r) is the last node under as many of its
    ancestors as r has consecutive 1 bits from bit level - 1 down (each
    an odd child), and closes each of them."""
    f = tree.poly
    head = {"a": f.a, "b": f.b, "c": f.c, "depth_cap": tree.depth_cap, "levels": tree.levels}
    parts = ["{\n", *(f'  "{key}": {json.dumps(value)},\n' for key, value in head.items()), '  "root": ']
    for node in tree.nodes:
        level = node.level
        pad = "  " * (2 * level + 2)
        parts.append(f'{{\n{pad}"level": {level},\n{pad}"residue": {node.residue},\n{pad}"status": "{node.status.value}",\n')
        if node.valuation is not None:
            parts.append(f'{pad}"valuation": {json.dumps(_val_json(node.valuation))},\n')
        if node.status is NodeStatus.NON_TERMINATING:
            parts.append(f'{pad}"children": [\n{pad}  ')
            continue
        parts.append(f'{pad}"children": []\n{pad[2:]}}}')
        closed = level - ((1 << level) - 1 - node.residue).bit_length()
        for up in range(level - 1, level - 1 - closed, -1):
            up_pad = "  " * (2 * up + 2)
            parts.append(f"\n{up_pad}]\n{up_pad[2:]}}}")
        if closed < level:
            parts.append(",\n" + "  " * (2 * (level - closed) + 1))
    parts.append("\n}\n")
    return "".join(parts)


def cmd_tree(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    if args.depth < 1:
        raise ValueError("depth must be at least 1")
    if args.format == "json" and args.depth > MAX_JSON_TREE_DEPTH:
        raise ValueError(
            f"JSON trees are limited to depth {MAX_JSON_TREE_DEPTH}; use --format ascii or dot for deeper trees"
        )
    tree = build_tree(f, args.depth)
    if args.format == "dot":
        text = render_tree_dot(tree)
    elif args.format == "json":
        text = render_tree_json(tree)
    else:
        text = render_tree_ascii(tree)
    _emit(text, args.output)
    return EXIT_OK


# --------------------------------------------------------------------- seq

def cmd_seq(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    if args.count < 1:
        raise ValueError("count must be at least 1")
    _check_size("count", args.count)
    seq = valuation_sequence(f, args.start, args.count)
    if args.format == "json":
        rows = [
            {"n": seq.start + k, "value": f(seq.start + k), "valuation": _val_json(v)}
            for k, v in enumerate(seq.values)
        ]
        payload = {"a": f.a, "b": f.b, "c": f.c, "start": seq.start, "rows": rows}
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        lines = ["n,value,valuation"]
        lines.extend(
            f"{seq.start + k},{f(seq.start + k)},{v}" for k, v in enumerate(seq.values)
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


# ------------------------------------------------------------------ verify

def _descent_failures(f: QuadraticPoly, tree: ValuationTree) -> list[str]:
    """A failure for the first tree node, its status derived from its
    parent's, that disagrees with node_status, which starts from f."""
    for nd in tree.nodes:
        status = NodeStatus.NON_TERMINATING if nd.status is NodeStatus.DEPTH_CAPPED else nd.status
        want = node_status(f, nd.level, nd.residue)
        if (status, nd.valuation) != want:
            return [f"tree node {nd.residue} mod 2^{nd.level} disagrees with node_status: {want[0].value}, {want[1]}"]
    return []


def cmd_verify(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    cls = classify(f)
    lines = [f"f(n) = {f}", "classification: " + describe_classification(cls)]
    failures: list[str] = []
    period = cls.period if cls.case_tag is Case.CASE3C_BOUNDED else None
    horizon = args.horizon or (4 * period if period else 4096)
    window = max(horizon, 4 * period) if period else horizon  # how many values verify brute-forces
    _check_size("brute-force window", window)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")

    if cls.case_tag.is_constant:
        seq = valuation_sequence(f, 0, horizon)
        off = cls.even_offset
        bad = next((n for n, v in enumerate(seq.values) if v != off), None)
        if bad is None:
            lines.append(f"ok: valuation constant at {off} on [0, {horizon})")
        else:
            failures.append(f"valuation at n={bad} is {seq.values[bad]}, expected the constant {off}")
    elif period is not None:
        assert cls.disc is not None and cls.disc.ell is not None
        table = period_table(f, classification=cls)
        values = valuation_sequence(f, 0, window).values
        bad = next((n for n in range(horizon) if values[n] != table.value_at(n)), None)
        if bad is None:
            lines.append(f"ok: closed form matches brute force on [0, {horizon})")
        else:
            failures.append(
                f"closed form gives {table.value_at(bad)} at n={bad}, brute force gives {values[bad]}"
            )
        p = empirical_period(values)
        if p == period:
            lines.append(f"ok: empirical minimal period {p}")
        else:
            failures.append(f"empirical period {p}, classification predicts {period}")
        ell = cls.disc.ell
        tree = build_tree(f, ell)
        failures += _descent_failures(f, tree)
        if tree.levels != ell:
            failures.append(f"tree did not close exactly at level {ell}")
        else:
            flat = flatten_tree(tree, period)
            if flat == list(table.entries):
                lines.append(f"ok: tree closes at level {ell} and reproduces the period table")
            else:
                failures.append("tree leaves disagree with the period table")
        mx = max_valuation(f, classification=cls)
        if max(table.entries) == mx:
            lines.append(f"ok: maximum valuation {mx} is attained")
        else:
            failures.append(f"table maximum {max(table.entries)} differs from predicted {mx}")
    else:
        depth = min(max(horizon.bit_length() - 1, 4), 20)
        tree = build_tree(f, depth)
        failures += _descent_failures(f, tree)
        # every live class holds a 2-adic root, so the branch residues
        # reduced mod 2**level count the live classes of that level
        residues = infinite_branch_residues(f, depth, classification=cls)
        counts = [(level, len({r % (1 << level) for r in residues})) for level in range(1, depth + 1)]
        bad_level = next(((lv, n) for lv, n in counts if n != live_branch_count(cls, lv)), None)
        if bad_level is None:
            lines.append(f"ok: live branch counts match on levels 1..{depth}")
        else:
            failures.append(
                f"level {bad_level[0]} has {bad_level[1]} live branches, "
                f"expected {live_branch_count(cls, bad_level[0])}"
            )
        shown = ", ".join(str(r) for r in residues)
        lines.append(f"infinite branch residues mod 2^{depth}: {shown}")
        if all(nu2(f(r)) >= depth for r in residues):
            lines.append(f"ok: nu2(f(r)) >= {depth} at every branch residue")
        else:
            failures.append("a branch residue fails its valuation lower bound")
        peak = max(valuation_sequence(f, 0, horizon).values)
        lines.append(f"observed peak valuation on [0, {horizon}): {peak}")

    lines.extend(f"FAIL: {msg}" for msg in failures)
    lines.append("result: " + ("FAIL" if failures else "PASS"))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# ------------------------------------------------------------------- batch

def _parse_batch_text(text: str) -> tuple[str, list[tuple[int, tuple[int, int, int] | None, str | None]]]:
    """The position key ("index" or "line") and, per record, (position,
    coefficients or None, error or None)."""
    items: list[tuple[int, tuple[int, int, int] | None, str | None]] = []
    if text.lstrip().startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"input is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise ValueError("JSON input must be an array")
        for idx, entry in enumerate(data):
            if isinstance(entry, dict) and all(k in entry for k in ("a", "b", "c")):
                entry = [entry[k] for k in ("a", "b", "c")]
            elif not (isinstance(entry, list) and len(entry) == 3):
                items.append((idx, None, "expected {a, b, c} or [a, b, c]"))
                continue
            if all(type(x) is int for x in entry):
                items.append((idx, tuple(entry), None))  # type: ignore[arg-type]
            else:
                items.append((idx, None, "coefficients must be integers"))
        return "index", items
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [p.strip() for p in line.split(",")]
        try:
            if len(fields) != 3:
                raise ValueError
            coeffs = tuple(int(p) for p in fields)
        except ValueError:
            if lineno == 1 and any(ch.isalpha() for ch in line):
                continue  # header row
            items.append((lineno, None, f"expected three integers, got {line!r}"))
            continue
        items.append((lineno, coeffs, None))  # type: ignore[arg-type]
    return "line", items


# one encoder for every batch record; json.dumps with a keyword builds a new one per call
_encode_record = json.JSONEncoder(ensure_ascii=False).encode


def cmd_batch(args: argparse.Namespace) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    key, items = _parse_batch_text(text)
    out_lines = []
    had_error = False
    for pos, coeffs, err in items:
        if err is not None:
            had_error = True
            out_lines.append(_encode_record({key: pos, "error": err}))
            continue
        assert coeffs is not None
        try:
            cls = classify(QuadraticPoly(*coeffs))
        except ValueError as exc:
            had_error = True
            record = {key: pos, "a": coeffs[0], "b": coeffs[1], "c": coeffs[2], "error": str(exc)}
            out_lines.append(_encode_record(record))
            continue
        out_lines.append(_encode_record(classification_record(cls)))
    _emit("\n".join(out_lines) + "\n" if out_lines else "", args.output)
    return EXIT_PARTIAL_FAILURE if had_error else EXIT_OK


# --------------------------------------------------------------------- ops

def cmd_ops(args: argparse.Namespace) -> int:
    f = _poly_from_args(args)
    cls = classify(f)
    g, chain = canonicalize_to_type_ell_1(f, classification=cls)
    gcls = classify(g)
    if args.json:
        payload: dict = {
            "a": f.a,
            "b": f.b,
            "c": f.c,
            "canonical": {"a": g.a, "b": g.b, "c": g.c},
            "chain": [{"kind": op.kind.value, "param": op.param} for op in chain],
        }
        if args.show_canonical:
            payload["residue_map"] = [
                {
                    "level": level,
                    "canonical_residue": t,
                    "residue": r,
                    "valuation": closed_form_valuation(g, t, classification=gcls),
                }
                for level, t, r in canonical_residue_map(f, classification=cls)
            ]
        text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    else:
        lines = [
            f"f(n) = {f}",
            f"canonical: {g}",
            "chain: " + ", ".join(str(op) for op in chain),
        ]
        if args.show_canonical:
            lines.append("terminating nodes, canonical residue -> residue for f:")
            for level, t, r in canonical_residue_map(f, classification=cls):
                v = closed_form_valuation(g, t, classification=gcls)
                lines.append(f"  level {level}: {t} -> {r}  (ν={v})")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


# -------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The quadval argument parser, built once per process; parsing leaves
    no state in it."""
    parser = argparse.ArgumentParser(
        prog="quadval",
        description="2-adic valuations of integer quadratics: classification, tables, trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly_args = argparse.ArgumentParser(add_help=False)
    poly_args.add_argument("-a", type=int, required=True, help="leading coefficient (nonzero)")
    poly_args.add_argument("-b", type=int, required=True, help="middle coefficient")
    poly_args.add_argument("-c", type=int, required=True, help="constant term")

    out_arg = argparse.ArgumentParser(add_help=False)
    out_arg.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p = sub.add_parser("classify", parents=[poly_args, out_arg], help="classify the valuation sequence")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", parents=[poly_args, out_arg], help="period table of a bounded sequence")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("tree", parents=[poly_args, out_arg], help="valuation tree")
    p.add_argument("--depth", type=int, default=32, help="depth cap (default 32)")
    p.add_argument("--format", choices=("ascii", "dot", "json"), default="ascii")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("seq", parents=[poly_args, out_arg], help="brute-force valuation sequence")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", parents=[poly_args, out_arg], help="cross-check against brute force")
    p.add_argument("--horizon", type=int, default=None, help="window length (default depends on the case)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", parents=[out_arg], help="classify polynomials listed in a file")
    p.add_argument("--input", required=True, metavar="PATH", help="CSV lines a,b,c or a JSON array")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("ops", parents=[poly_args, out_arg], help="canonical form and operator chain")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--show-canonical", action="store_true", help="include the residue correspondence")
    p.set_defaults(func=cmd_ops)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def run() -> None:
    sys.exit(main())
