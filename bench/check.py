"""Output checker, independent of quadval.

Everything here is brute force or the classification table restated
from the paper: ν₂ is taken by evaluating f, and nothing imports
quadval.  Each ``check_*`` function returns a list of problems, empty
when the output is accepted.  ``check_batch`` returns one entry per
rejected record, because a batch op is one record.

The checker runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import re

from workloads import Poly, Request

INF = math.inf


def nu2(x: int) -> float | int:
    return INF if x == 0 else (x & -x).bit_length() - 1


def nu2_of(f, n: int) -> float | int:
    return nu2((f[0] * n + f[1]) * n + f[2])


def _fmt_val(v: float | int) -> str:
    return "inf" if v == INF else str(v)


# ---------------------------------------------------------- classification


def expected_record(a: int, b: int, c: int) -> dict:
    """The classification record ``classify --json`` and ``batch`` print,
    restated from the paper's case table."""
    i = min(nu2(a), nu2(b), nu2(c))
    a0, b0, c0 = a >> i, b >> i, c >> i
    ell = delta = m = None
    if a0 % 2 == 0 and b0 % 2 == 0:
        case, period, branches = "1", 1, 0
    elif a0 % 2 == 0:
        case, period, branches = "2", None, 1
    elif b0 % 2 == 0:
        d0 = b0 * b0 - 4 * a0 * c0
        if d0 == 0:
            case, period, branches = "3(a)", None, 1
        else:
            ell = nu2(d0) // 2
            delta = d0 >> (2 * ell)
            m = delta % 8
            if m == 1:
                case, period, branches = "3(b)", None, 2
            else:
                case, period, branches = "3(c)", 1 << ell, 0
    elif c0 % 2 == 0:
        case, period, branches = "4", None, 2
    else:
        case, period, branches = "5", 1, 0
    constant = case in ("1", "5")
    rec = {
        "a": a, "b": b, "c": c,
        "case": case,
        "bounded": period is not None,
        "constant": constant,
        "even_offset": i,
        "discriminant": b * b - 4 * a * c,
        "ell": ell, "delta": delta, "m": m,
        "period": period,
        "infinite_branches": branches,
        "constant_valuation": i if constant else None,
    }
    if constant:
        rec["max_valuation"] = i
    elif case == "3(c)":
        rec["max_valuation"] = i + (2 * ell if m == 5 else 2 * ell - 1)
    return rec


_BRUTE_PERIOD_MAX = 256


def _brute_record_problems(rec: dict) -> list[str]:
    """Brute-force the claims of a bounded record whose period is small."""
    f = (rec["a"], rec["b"], rec["c"])
    period = rec["period"]
    if period is None or period > _BRUTE_PERIOD_MAX:
        return []
    vals = [nu2_of(f, n) for n in range(2 * period)]
    if any(vals[n] != vals[n + period] for n in range(period)):
        return [f"valuations of {f} are not {period}-periodic"]
    if max(vals) != rec["max_valuation"]:
        return [f"maximum valuation of {f} is {max(vals)}, not {rec['max_valuation']}"]
    return []


def _record_problems(got: object, want: dict) -> list[str]:
    if not isinstance(got, dict):
        return [f"expected a record object, got {got!r}"]
    wrong = [k for k, v in want.items() if k not in got or got[k] != v or type(got[k]) is not type(v)]
    if wrong:
        return [f"record for ({want['a']}, {want['b']}, {want['c']}) has wrong {', '.join(wrong)}"]
    return _brute_record_problems(want)


# ------------------------------------------------------------------ batch


def _is_int_token(tok: str) -> int | None:
    try:
        return int(tok)
    except ValueError:
        return None


def expected_batch(text: str) -> list[dict]:
    """What ``quadval batch`` must print for an input file, one item per
    record: an error record {pos_key: pos, "error": True} or the
    classification record."""
    out: list[dict] = []
    if text.lstrip().startswith("["):
        for idx, entry in enumerate(json.loads(text)):
            if isinstance(entry, dict) and all(k in entry for k in "abc"):
                coeffs = [entry[k] for k in "abc"]
            elif isinstance(entry, list) and len(entry) == 3:
                coeffs = entry
            else:
                out.append({"index": idx, "error": True})
                continue
            if not all(type(x) is int for x in coeffs):
                out.append({"index": idx, "error": True})
            elif coeffs[0] == 0:
                out.append({"index": idx, "error": True, "a": 0, "b": coeffs[1], "c": coeffs[2]})
            else:
                out.append(expected_record(*coeffs))
        return out
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [_is_int_token(p.strip()) for p in line.split(",")]
        if len(fields) != 3 or None in fields:
            if lineno == 1 and any(ch.isalpha() for ch in line):
                continue  # header row
            out.append({"line": lineno, "error": True})
        elif fields[0] == 0:
            out.append({"line": lineno, "error": True, "a": 0, "b": fields[1], "c": fields[2]})
        else:
            out.append(expected_record(*fields))
    return out


def check_batch(req: Request, code: object, output: str | None) -> list[str]:
    """One problem string per rejected record (a record is one op)."""
    want = expected_batch(req.path.read_text(encoding="utf-8"))  # type: ignore[union-attr]
    if output is None:
        return [f"record {k}: no output file" for k in range(len(want))]
    lines = output.splitlines()
    want_code = 4 if any("error" in w for w in want) else 0
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    for k, w in enumerate(want):
        if k >= len(lines):
            problems.append(f"record {k}: missing")
            continue
        try:
            got = json.loads(lines[k])
        except json.JSONDecodeError:
            problems.append(f"record {k}: not JSON")
            continue
        if "error" in w:
            pos_key = "index" if "index" in w else "line"
            ok = isinstance(got, dict) and isinstance(got.get("error"), str) and got.get(pos_key) == w[pos_key]
            ok = ok and all(got.get(k2) == w[k2] for k2 in ("a", "b", "c") if k2 in w)
            if not ok:
                problems.append(f"record {k}: expected an error record for {pos_key} {w[pos_key]}, got {lines[k][:120]}")
        else:
            problems += [f"record {k}: {p}" for p in _record_problems(got, w)]
    if len(lines) > len(want):
        problems.append(f"{len(lines) - len(want)} records more than inputs")
    return problems


# ------------------------------------------------------------- bounded


def check_point(req: Request, value: object) -> list[str]:
    want = nu2_of(_coeffs(req.poly), req.arg)  # type: ignore[arg-type]
    return [] if value == want and type(value) is int else [f"n={req.arg}: got {value!r}, brute force {want}"]


def _coeffs(p: Poly | None) -> tuple[int, int, int]:
    assert p is not None
    return (p.a, p.b, p.c)


def _reduced(p: Poly) -> tuple[int, int, int]:
    return (p.a >> p.offset, p.b >> p.offset, p.c >> p.offset)


def _period(p: Poly) -> int:
    return 1 if p.case in ("1", "5") else 1 << p.ell  # type: ignore[operator]


def check_table(req: Request, code: object, output: str | None) -> list[str]:
    p = req.poly
    assert p is not None
    if code != 0 or output is None:
        return [f"exit code {code}"]
    period = _period(p)
    try:
        if req.fmt == "json":
            doc = json.loads(output)
            entries = doc["entries"]
            head = (doc["ell"], doc["period"], doc["even_offset"])
            if head != (p.ell or 0, period, p.offset):
                return [f"table header {head}, expected {(p.ell or 0, period, p.offset)}"]
        else:
            lines = output.splitlines()
            if lines[0] != "residue,valuation":
                return ["missing CSV header"]
            rows = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
            if [r for r, _ in rows] != list(range(len(rows))):
                return ["residues out of order"]
            entries = [v for _, v in rows]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable table: {exc!r}"]
    if len(entries) != period:
        return [f"table has {len(entries)} entries, period is {period}"]
    f = _coeffs(p)
    for r, v in enumerate(entries):
        if v != nu2_of(f, r) or (r < 64 and v != nu2_of(f, r + period)):
            return [f"entry {r} is {v}, brute force gives {nu2_of(f, r)}"]
    if period > 1 and all(entries[r] == entries[r + period // 2] for r in range(period // 2)):
        return [f"table repeats with period {period // 2}; minimal period is not {period}"]
    return []


def check_classify(req: Request, code: object, output: str | None) -> list[str]:
    if code != 0 or output is None:
        return [f"exit code {code}"]
    try:
        got = json.loads(output)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    return _record_problems(got, expected_record(*_coeffs(req.poly)))


# ------------------------------------------------------------------ trees

_LABEL = re.compile(r"^(?:n|(\d+)q(?:\+(\d+))?)$")
_DOT_NODE = re.compile(r'^\s*n(\d+)_(\d+) \[label="([^"]*)"')
_DOT_EDGE = re.compile(r"^\s*n(\d+)_(\d+) -> n(\d+)_(\d+) ")


def _mark_status(mark: str) -> tuple[str, object]:
    if mark == "*":
        return "live", None
    if mark == "…":
        return "capped", None
    if mark == "ν=inf":
        return "root", INF
    if mark.startswith("ν="):
        return "term", int(mark[2:])
    raise ValueError(f"unknown node mark {mark!r}")


def _label_residue(label: str, level: int) -> int:
    match = _LABEL.match(label)
    if match is None:
        raise ValueError(f"bad node label {label!r}")
    if level == 0:
        if label != "n":
            raise ValueError("root label must be n")
        return 0
    if match.group(1) is None or int(match.group(1)) != 1 << level:
        raise ValueError(f"label {label!r} does not match level {level}")
    return int(match.group(2) or 0)


def parse_tree(fmt: str, output: str) -> tuple[dict, dict]:
    """Nodes {(level, residue): (status, valuation)} and children
    {(level, residue): [child keys]} from any of the three formats."""
    nodes: dict = {}
    kids: dict = {}
    if fmt == "json":
        doc = json.loads(output)
        stack = [doc["root"]]
        while stack:
            nd = stack.pop()
            key = (nd["level"], nd["residue"])
            status = {"terminating": "term", "non_terminating": "live", "root_node": "root", "depth_capped": "capped"}[nd["status"]]
            val = nd.get("valuation")
            nodes[key] = (status, INF if val == "inf" else val)
            kids[key] = [(ch["level"], ch["residue"]) for ch in nd["children"]]
            stack.extend(nd["children"])
        return nodes, kids
    if fmt == "dot":
        for line in output.splitlines():
            if (edge := _DOT_EDGE.match(line)) is not None:
                g = [int(x) for x in edge.groups()]
                kids.setdefault((g[0], g[1]), []).append((g[2], g[3]))
            elif (node := _DOT_NODE.match(line)) is not None:
                level, res = int(node.group(1)), int(node.group(2))
                label, mark = node.group(3).split("\\n")
                if _label_residue(label, level) != res:
                    raise ValueError(f"label {label!r} does not match node n{level}_{res}")
                nodes[(level, res)] = _mark_status(mark)
        for key in nodes:
            kids.setdefault(key, [])
        return nodes, kids
    path: list[tuple[int, int]] = []
    for line in output.splitlines():
        body = line.lstrip(" ")
        level = (len(line) - len(body)) // 2
        label, mark = body.split("  ")
        key = (level, _label_residue(label, level))
        if level != len(path):
            del path[level:]
        if level != len(path):
            raise ValueError(f"indentation jumps at {line!r}")
        if path:
            kids[path[-1]].append(key)
        nodes[key] = _mark_status(mark)
        kids[key] = []
        path.append(key)
    return nodes, kids


def tree_problems(p: Poly, depth: int, nodes: dict, kids: dict) -> list[str]:
    """Brute-force the leaves and check the shape of a valuation tree."""
    if (0, 0) not in nodes:
        return ["no root node"]
    f = _coeffs(p)
    live_leaves = 0
    deepest = 0
    for (level, r), (status, val) in nodes.items():
        deepest = max(deepest, level)
        children = kids.get((level, r), [])
        if status == "live":
            if sorted(children) != [(level + 1, r), (level + 1, r + (1 << level))]:
                return [f"node ({level}, {r}) does not split into its two subclasses"]
            continue
        if children:
            return [f"leaf ({level}, {r}) has children"]
        if status == "term":
            got = (nu2_of(f, r), nu2_of(f, r + (1 << level)))
            if got != (val, val):
                return [f"leaf ({level}, {r}) says ν={val}, brute force {got}"]
        elif status == "root":
            if f[0] * r * r + f[1] * r + f[2] != 0:
                return [f"leaf ({level}, {r}) is marked as a root but f({r}) != 0"]
            live_leaves += 1
        else:
            if level != depth or nu2_of(f, r) < level:
                return [f"capped leaf ({level}, {r}) is not a live class at the cap {depth}"]
            live_leaves += 1
    if p.case in ("1", "5", "3(c)"):
        want = 0 if p.case in ("1", "5") else p.ell
        if live_leaves or deepest != want:
            return [f"bounded tree should close at level {want}, deepest {deepest}, open leaves {live_leaves}"]
    elif not 1 <= live_leaves <= p.branches:
        return [f"{live_leaves} open leaves for {p.branches} infinite branches"]
    return []


def check_tree(req: Request, code: object, output: str | None) -> list[str]:
    p = req.poly
    assert p is not None and req.arg is not None and req.fmt is not None
    if code != 0 or output is None:
        return [f"exit code {code}"]
    try:
        nodes, kids = parse_tree(req.fmt, output)
        if req.fmt == "json":
            doc = json.loads(output)
            closes = p.ell if p.case == "3(c)" else 0 if p.case in ("1", "5") else None
            if doc["depth_cap"] != req.arg or doc["levels"] != closes:
                return [f"tree header depth_cap={doc['depth_cap']} levels={doc['levels']}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable tree: {exc!r}"]
    return tree_problems(p, req.arg, nodes, kids)


# ------------------------------------------------------------ branches


def branch_problems(p: Poly, bits: int, residues: object) -> list[str]:
    if not isinstance(residues, list) or len(residues) != p.branches:
        return [f"expected {p.branches} branch residues, got {residues!r}"[:200]]
    if residues != sorted(residues) or not all(type(r) is int and 0 <= r < (1 << bits) for r in residues):
        return ["branch residues unsorted or out of range"]
    f = _coeffs(p)
    for r in residues:
        if nu2_of(f, r) < bits:
            return [f"nu2(f({r})) = {nu2_of(f, r)} < {bits}"]
    if p.branches == 2:
        r1, r2 = residues
        if p.case == "4" and (r2 - r1) % 2 == 0:
            return ["case-4 branches must differ in parity"]
        if p.case == "3(b)" and bits > p.ell and nu2(r2 - r1) != p.ell:  # type: ignore[operator]
            return [f"case-3(b) branches must part at level {p.ell}"]
    for root in p.roots:
        if root < (1 << bits) and root not in residues:
            return [f"integer root {root} is not among the branch residues"]
    return []


def check_branches(req: Request, value: object) -> list[str]:
    return branch_problems(req.poly, req.arg, value)  # type: ignore[arg-type]


# -------------------------------------------------------------- verify / ops

_RESIDUES = re.compile(r"^infinite branch residues mod 2\^(\d+): (.*)$")
_PEAK = re.compile(r"^observed peak valuation on \[0, (\d+)\): (\S+)$")
_MAXV = re.compile(r"^ok: maximum valuation (\d+) is attained$")
_PERIOD = re.compile(r"^ok: empirical minimal period (\d+)$")
_CONST = re.compile(r"^ok: valuation constant at (\d+) on \[0, (\d+)\)$")


def check_verify(req: Request, code: object, output: str | None) -> list[str]:
    p = req.poly
    assert p is not None
    if code != 0 or output is None:
        return [f"exit code {code}"]
    lines = output.splitlines()
    if lines[-1:] != ["result: PASS"] or any(ln.startswith("FAIL") for ln in lines):
        return ["verify did not pass"]
    f = _coeffs(p)
    seen = set()
    for line in lines:
        if (mt := _RESIDUES.match(line)) is not None:
            bits = int(mt.group(1))
            problems = branch_problems(p, bits, [int(x) for x in mt.group(2).split(", ")])
            if problems:
                return problems
            seen.add("residues")
        elif (mt := _PEAK.match(line)) is not None:
            horizon = int(mt.group(1))
            peak = max(nu2_of(f, n) for n in range(horizon))
            if mt.group(2) != _fmt_val(peak):
                return [f"peak on [0, {horizon}) is {_fmt_val(peak)}, verify says {mt.group(2)}"]
            seen.add("peak")
        elif (mt := _MAXV.match(line)) is not None:
            if int(mt.group(1)) != max(nu2_of(f, n) for n in range(_period(p))):
                return [f"maximum valuation {mt.group(1)} is wrong"]
            seen.add("max")
        elif (mt := _PERIOD.match(line)) is not None:
            if int(mt.group(1)) != _period(p):
                return [f"period {mt.group(1)} is wrong"]
            seen.add("period")
        elif (mt := _CONST.match(line)) is not None:
            if int(mt.group(1)) != p.offset or any(nu2_of(f, n) != p.offset for n in range(64)):
                return [f"constant valuation {mt.group(1)} is wrong"]
            seen.add("const")
    want = {"1": {"const"}, "5": {"const"}, "3(c)": {"max", "period"}}.get(p.case, {"residues", "peak"})
    return [] if want <= seen else [f"verify output lacks {sorted(want - seen)}"]


_CANON = re.compile(r"^canonical: n\^2 \+ 2n(?: ([+-]) (\d+))?$")
_OP = re.compile(r"(\w+)\((-?\d+)\)")
_MAPLINE = re.compile(r"^  level (\d+): (\d+) -> (\d+)  \(ν=(\d+)\)$")


def _apply(kind: str, param: int, g: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = g
    if kind == "TRANSLATE":
        return (a, b - 2 * a * param, c + a * param * param - b * param)
    if kind == "S_FORWARD" and a == 1 and param > 0 and c % param == 0:
        return (param, b, c // param)
    raise ValueError(f"cannot apply {kind}({param}) to {g}")


def check_ops(req: Request, code: object, output: str | None) -> list[str]:
    p = req.poly
    assert p is not None
    if p.case != "3(c)" or p.ell < 2 or p.a < 0:  # type: ignore[operator]
        return [] if code == 3 else [f"exit code {code}, expected 3 (outside the domain)"]
    if code != 0 or output is None:
        return [f"exit code {code}"]
    try:
        if req.fmt == "json":
            doc = json.loads(output)
            g = (doc["canonical"]["a"], doc["canonical"]["b"], doc["canonical"]["c"])
            chain = [(op["kind"], op["param"]) for op in doc["chain"]]
            rmap = [(e["level"], e["canonical_residue"], e["residue"], e["valuation"]) for e in doc["residue_map"]]
        else:
            lines = output.splitlines()
            mt = _CANON.match(lines[1])
            if mt is None:
                return [f"canonical polynomial is not n^2 + 2n + c: {lines[1]!r}"]
            c0 = int(mt.group(2) or 0) * (-1 if mt.group(1) == "-" else 1)
            g = (1, 2, c0)
            chain = [(k, int(v)) for k, v in _OP.findall(lines[2].removeprefix("chain: "))]
            rmap = [tuple(int(x) for x in m.groups()) for ln in lines[4:] if (m := _MAPLINE.match(ln))]
        f0 = g
        for kind, param in chain:
            f0 = _apply(kind, param, f0)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable ops output: {exc!r}"]
    if g[:2] != (1, 2) or f0 != _reduced(p):
        return [f"chain rebuilds {f0} from {g}, expected {_reduced(p)}"]
    if len(rmap) != p.ell + 1:  # type: ignore[operator]
        return [f"residue map has {len(rmap)} entries, expected {p.ell + 1}"]  # type: ignore[operator]
    fr = _reduced(p)
    for level, t, r, v in rmap:
        step = 1 << level
        brute = (nu2_of(g, t), nu2_of(g, t + step), nu2_of(fr, r), nu2_of(fr, r + step))
        if brute != (v, v, v, v):
            return [f"level {level}: {t} -> {r} claims ν={v}, brute force {brute}"]
    return []


CLI_CHECKS = {
    "batch": check_batch,
    "cli:table": check_table,
    "cli:classify": check_classify,
    "cli:tree": check_tree,
    "cli:verify": check_verify,
    "cli:ops": check_ops,
}
LIB_CHECKS = {"point": check_point, "branches": check_branches}
