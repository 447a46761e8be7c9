"""Seeded workload generators.

A workload is a sequence of passes, each a list of requests built from
the seed and the pass index.  The properties the program's cost depends
on (file sizes, ℓ, bits, depth, format, request-kind mix) follow fixed
schedules, and the seed alone sets the order, so every pass of every
seed has the same shape and request i of one pass costs about what
request i of another does.  The seed and the pass index pick the
polynomials, the coefficients, the query points and the file contents,
so a pass repeats no request of an earlier one.  That keeps the
end-to-end figures comparable from seed to seed, and a cache sees only
the repeats the traffic itself has.

Nothing here imports quadval: the generators construct polynomials with
a prescribed case, ℓ and m from the algebra, and record those facts in
``Poly`` so that the checker can hold the program to them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

WORKLOADS = ("batch", "bounded", "unbounded")

# Deepest CLI ``tree`` requests.  The renderers recurse once (ascii, dot)
# or twice (json) per level and hit the interpreter's recursion limit a
# little below depth 1000 and 500.  JSON rendering also costs the square
# of the depth, so deep JSON trees would be the whole tail of the
# workload and make it hang on a handful of requests.  The recursion
# defect itself is exercised by the known-defect probes in run.py,
# outside the measured requests.
MAX_TREE_DEPTH = 256
MAX_JSON_TREE_DEPTH = 128


@dataclass(frozen=True)
class Poly:
    """A generated polynomial and the facts it was built to have.

    ell and m describe the reduced discriminant in case 3 (None
    elsewhere); offset is the shared power of two multiplied in;
    roots lists the nonnegative integer roots, if any.
    """

    a: int
    b: int
    c: int
    case: str
    ell: int | None = None
    m: int | None = None
    offset: int = 0
    roots: tuple[int, ...] = ()

    def __call__(self, n: int) -> int:
        return (self.a * n + self.b) * n + self.c

    @property
    def branches(self) -> int:
        return {"2": 1, "3(a)": 1, "3(b)": 2, "4": 2}.get(self.case, 0)

    def argv(self) -> list[str]:
        return ["-a", str(self.a), "-b", str(self.b), "-c", str(self.c)]


@dataclass
class Request:
    """One closed-loop request.

    kind is "batch" or "cli:<subcommand>" for calls of quadval.cli.main,
    and "point" or "branches" for library calls.  arg is the query
    point n, the branch precision in bits, or the tree depth.  content
    is a checksum of a batch request's input file, whose path is the
    same in every pass.
    """

    kind: str
    poly: Poly | None = None
    arg: int | None = None
    argv: list[str] = field(default_factory=list)
    fmt: str | None = None
    path: Path | None = None
    records: int = 1
    content: int = 0

    @property
    def abc(self) -> tuple[int, int, int] | None:
        p = self.poly
        return None if p is None else (p.a, p.b, p.c)

    @property
    def key(self) -> tuple:
        return (self.kind, self.abc, self.arg, tuple(self.argv), self.content)


# ------------------------------------------------------------ polynomials


def _rand_int(rng: Random, bits: int, *, odd: bool = False, signed: bool = True) -> int:
    x = rng.getrandbits(bits) | (1 << (bits - 1))
    if odd:
        x |= 1
    return -x if signed and rng.random() < 0.5 else x


def case3_poly(rng: Random, ell: int, m: int, bits: int = 32, offset: int = 0, positive_a: bool = True) -> Poly:
    """a odd, b = 2k even, and k**2 - a*c = 4**(ell-1) * delta with
    delta == m (mod 8), so D = 4**ell * delta.

    delta is solved by CRT modulo 8a: delta == k**2 / 4**(ell-1) (mod a)
    makes a divide k**2 - 4**(ell-1) * delta, and delta == m (mod 8)
    fixes m.  m in {2, 3, 5, 6, 7} gives case 3(c), m == 1 case 3(b).
    """
    if ell < 1 or m not in (1, 2, 3, 5, 6, 7):
        raise ValueError(f"no case-3 polynomial with ell={ell}, m={m}")
    a = _rand_int(rng, bits, odd=True, signed=not positive_a)
    k = _rand_int(rng, bits)
    scale = 1 << (2 * (ell - 1))
    mod_a = abs(a)
    r_a = k * k * pow(scale, -1, mod_a) % mod_a if mod_a > 1 else 0
    # x == r_a (mod |a|), x == m (mod 8); |a| is odd so 8 and |a| are coprime.
    x = (r_a + mod_a * ((m - r_a) * pow(mod_a, -1, 8) % 8)) % (8 * mod_a)
    delta = x + 8 * mod_a * rng.randint(-4, 4)
    if delta == 0:
        delta = x + 8 * mod_a
    c = (k * k - scale * delta) // a
    s = 1 << offset
    case = "3(b)" if m == 1 else "3(c)"
    return Poly(a * s, 2 * k * s, c * s, case, ell, m, offset)


def constant_poly(rng: Random, case: str, bits: int = 32, offset: int = 0) -> Poly:
    """Case 1 (a, b even, c odd) or case 5 (all odd)."""
    if case == "1":
        a, b, c = 2 * _rand_int(rng, bits), 2 * _rand_int(rng, bits), _rand_int(rng, bits, odd=True)
    else:
        a, b, c = (_rand_int(rng, bits, odd=True) for _ in range(3))
    s = 1 << offset
    return Poly(a * s, b * s, c * s, case, offset=offset)


def unbounded_poly(rng: Random, case: str, bits: int, root_bits: int = 0, ell: int = 1) -> Poly:
    """A reduced polynomial of case 2, 3(a), 3(b) or 4.

    With root_bits > 0 it has a nonnegative integer root of about that
    many bits, which pins a branch of the tree at about that level.  ell
    is the discriminant's ℓ in case 3(b).
    """
    with_root = root_bits > 0
    if case == "2":
        if with_root:  # (2n - q)(n - t), q odd
            q, t = _rand_int(rng, bits, odd=True), rng.getrandbits(root_bits)
            return Poly(2, -(2 * t + q), q * t, case, roots=(t,))
        a = 2 * _rand_int(rng, bits)
        return Poly(a, _rand_int(rng, bits, odd=True), _rand_int(rng, bits), case)
    if case == "3(a)":  # u * (v*n + w)**2 with u, v odd
        u = _rand_int(rng, bits, odd=True)
        v = 1 if with_root else _rand_int(rng, max(bits // 2, 2), odd=True, signed=False)
        w = -rng.getrandbits(root_bits) if with_root else _rand_int(rng, bits)
        return Poly(u * v * v, 2 * u * v * w, u * w * w, case, roots=(-w,) if with_root else ())
    if case == "3(b)":
        if with_root:  # a(n - r1)(n - r2), r1 - r2 = 2**ell * odd
            r2 = rng.getrandbits(root_bits)
            r1 = r2 + (1 << ell) * (2 * rng.getrandbits(root_bits) + 1)
            a = _rand_int(rng, bits, odd=True)
            return Poly(a, -a * (r1 + r2), a * r1 * r2, case, ell, 1, roots=(r2, r1))
        return case3_poly(rng, ell, 1, bits, positive_a=False)
    if case == "4":
        if with_root:  # a(n - r1)(n - r2), r1 + r2 odd
            r1 = rng.getrandbits(root_bits)
            r2 = r1 + 2 * rng.getrandbits(root_bits) + 1
            a = _rand_int(rng, bits, odd=True)
            return Poly(a, -a * (r1 + r2), a * r1 * r2, case, roots=(r1, r2))
        return Poly(_rand_int(rng, bits, odd=True), _rand_int(rng, bits, odd=True), 2 * _rand_int(rng, bits), case)
    raise ValueError(f"not an unbounded case: {case}")


def log_spread(lo: int, hi: int, count: int) -> list[int]:
    """count integers spread evenly in log scale over [lo, hi]."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


# -------------------------------------------------------------- workloads


def batch_plan(seed: int, pass_index: int, workdir: Path, out: Path) -> list[Request]:
    """About 100k records over 51 files of 500..5000 records, CSV and JSON
    arrays interleaved, coefficients of 8..256 bits, 1% malformed.  The
    pass's files overwrite those of the pass before."""
    sizes = log_spread(500, 5000, 51)
    formats = ["csv" if j % 2 == 0 else "json" for j in range(len(sizes))]
    order = list(range(len(sizes)))
    Random(f"batch:{seed}").shuffle(order)
    rng = Random(f"batch:{seed}:{pass_index}")
    requests = []
    for pos, j in enumerate(order):
        path = workdir / f"batch{pos:02d}.{formats[j]}"
        text = _csv_file(rng, sizes[j]) if formats[j] == "csv" else _json_file(rng, sizes[j])
        path.write_text(text, encoding="utf-8")
        argv = ["batch", "--input", str(path), "--output", str(out)]
        content = zlib.crc32(text.encode())
        requests.append(Request("batch", argv=argv, fmt=formats[j], path=path, records=sizes[j], content=content))
    return requests


def _coeffs(rng: Random) -> tuple[int, int, int]:
    bits = rng.randint(8, 256)
    return tuple(rng.getrandbits(bits) * rng.choice((1, -1)) or 1 for _ in range(3))  # type: ignore[return-value]


def _malformed_slots(rng: Random, size: int) -> set[int]:
    return set(rng.sample(range(size), max(1, round(size * 0.01))))


_CSV_BAD = ("{a},{b}", "{a},{b},{c},{c}", "{a},x{b},{c}", "{a},{b},{c}.5", "0,{b},{c}", "{a},,{c}")


def _csv_file(rng: Random, size: int) -> str:
    bad = _malformed_slots(rng, size)
    lines = ["a,b,c"] if rng.random() < 0.5 else []
    for i in range(size):
        a, b, c = _coeffs(rng)
        if i in bad:
            lines.append(rng.choice(_CSV_BAD).format(a=a, b=b, c=c))
        else:
            lines.append(f"{a},{b},{c}" if rng.random() < 0.8 else f" {a} , {b},{c} ")
    return "\n".join(lines) + "\n"


# Entries the program rejects with an error record.  The values that it
# silently coerces today (1.9, true, "7") are exercised by the known-defect
# probes instead, because a request that is answered wrongly would make
# the whole run incorrect.
_JSON_BAD = (
    lambda a, b, c: [a, b],
    lambda a, b, c: [a, b, c, c],
    lambda a, b, c: {"a": a, "b": b},
    lambda a, b, c: {"a": a, "b": None, "c": c},
    lambda a, b, c: [a, "x", c],
    lambda a, b, c: None,
    lambda a, b, c: "a,b,c",
    lambda a, b, c: {"a": 0, "b": b, "c": c},
    lambda a, b, c: [0, b, c],
)


def _json_file(rng: Random, size: int) -> str:
    bad = _malformed_slots(rng, size)
    entries: list[object] = []
    for i in range(size):
        a, b, c = _coeffs(rng)
        if i in bad:
            entries.append(rng.choice(_JSON_BAD)(a, b, c))
        else:
            entries.append({"a": a, "b": b, "c": c} if rng.random() < 0.5 else [a, b, c])
    return json.dumps(entries) + "\n"


BOUNDED_ELLS = log_spread(2, 256, 15)
BOUNDED_CONSTANT = ("1", "5")
POINTS_PER_POLY = 2000


def _spread(j: int, lo: int, hi: int) -> int:
    """A value in [lo, hi] for index j, visiting the range evenly."""
    return lo + (j * 37) % (hi - lo + 1)


def bounded_plan(seed: int, pass_index: int, out: Path) -> list[Request]:
    """One case-3(c) polynomial for each ℓ log-spread over 2..256, m
    cycling through {2, 3, 5, 6, 7} from pass to pass, plus one
    polynomial of each constant case.  Each gets 2000 point queries at n
    of 8..512 bits and CLI calls; table, verify and ops only where ℓ
    keeps the work small, since each of them builds or checks a
    2**ℓ-entry period."""
    rng = Random(f"bounded:{seed}:{pass_index}")
    polys = []
    for e, ell in enumerate(BOUNDED_ELLS):
        k = e + pass_index
        polys.append(case3_poly(rng, ell, (2, 3, 5, 6, 7)[k % 5], bits=_spread(k, 8, 64), offset=(0, 0, 1, 0, 3)[k % 5]))
    polys += [constant_poly(rng, case, bits=_spread(k, 8, 64), offset=2 * (k % 2)) for k, case in enumerate(BOUNDED_CONSTANT, pass_index)]
    requests: list[list[Request]] = []
    for e, p in enumerate(polys):
        ell = p.ell or 0
        cli = [Request("cli:classify", p, argv=["classify", *p.argv(), "--json", "--output", str(out)], fmt="json")]
        fmt = ("ascii", "json", "dot")[e % 3]
        depth = max(ell, 1) + 1
        cli.append(Request("cli:tree", p, depth, ["tree", *p.argv(), "--depth", str(depth), "--format", fmt, "--output", str(out)], fmt))
        if ell <= 16:
            fmt = ("text", "json")[e % 2]
            argv = ["ops", *p.argv(), "--show-canonical", "--output", str(out)] + (["--json"] if fmt == "json" else [])
            cli.append(Request("cli:ops", p, argv=argv, fmt=fmt))
            fmt = ("csv", "json")[e // 2 % 2]
            cli.append(Request("cli:table", p, argv=["table", *p.argv(), "--format", fmt, "--output", str(out)], fmt=fmt))
        if ell <= 12:
            cli.append(Request("cli:verify", p, argv=["verify", *p.argv(), "--output", str(out)]))
        points = [Request("point", p, rng.getrandbits(_spread(q, 8, 512))) for q in range(POINTS_PER_POLY)]
        # Spread the CLI calls through the point queries of their polynomial.
        step = len(points) // (len(cli) + 1)
        for k, req in enumerate(cli):
            points.insert((k + 1) * step + k, req)
        requests.append(points)
    order = list(range(len(requests)))
    Random(f"bounded:{seed}").shuffle(order)
    return [req for e in order for req in requests[e]]


UNBOUNDED_CASES = ("2", "3(a)", "3(b)", "4")
UNBOUNDED_LEVELS = 6
UNBOUNDED_PER_LEVEL = 16


def unbounded_plan(seed: int, pass_index: int, out: Path) -> list[Request]:
    """Polynomials of cases 2, 3(a), 3(b) and 4, a quarter of each with
    integer roots.  One third branch-residue queries with bits at six
    levels log-spread over 64..2048, one third CLI trees with depth at six
    levels over 8..256 in ascii, json and dot (json capped at 128), one
    third CLI verify.

    Each size level holds 16 requests that cycle through the cases, roots
    and formats, so the slowest tenth of the requests is made of groups of
    like requests rather than a few singletons, and its tail latency does
    not hang on one request.  Only the coefficients and the order depend
    on the seed, and the coefficients also on the pass."""
    rng = Random(f"unbounded:{seed}:{pass_index}")

    def poly(j: int) -> Poly:
        i = j % UNBOUNDED_PER_LEVEL
        root_bits = _spread(j, 4, 24) if i // 4 == 1 else 0
        return unbounded_poly(rng, UNBOUNDED_CASES[i % 4], _spread(j, 8, 64), root_bits, 1 + j % 8)

    n = UNBOUNDED_LEVELS * UNBOUNDED_PER_LEVEL
    bits = log_spread(64, 2048, UNBOUNDED_LEVELS)
    depths = log_spread(8, MAX_TREE_DEPTH, UNBOUNDED_LEVELS)
    requests = [Request("branches", poly(j), bits[j // UNBOUNDED_PER_LEVEL]) for j in range(n)]
    for j in range(n):
        p, fmt = poly(j), ("ascii", "json", "dot")[j % 3]
        depth = min(depths[j // UNBOUNDED_PER_LEVEL], MAX_JSON_TREE_DEPTH if fmt == "json" else MAX_TREE_DEPTH)
        argv = ["tree", *p.argv(), "--depth", str(depth), "--format", fmt, "--output", str(out)]
        requests.append(Request("cli:tree", p, depth, argv, fmt))
    requests += [Request("cli:verify", p, argv=["verify", *p.argv(), "--output", str(out)]) for p in map(poly, range(n))]
    order = list(range(len(requests)))
    Random(f"unbounded:{seed}").shuffle(order)
    return [requests[i] for i in order]


def plan(workload: str, seed: int, workdir: Path, pass_index: int = 0) -> list[Request]:
    """The requests of one pass; batch writes the pass's input files."""
    out = workdir / "out.txt"
    if workload == "batch":
        return batch_plan(seed, pass_index, workdir, out)
    if workload == "bounded":
        return bounded_plan(seed, pass_index, out)
    if workload == "unbounded":
        return unbounded_plan(seed, pass_index, out)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def properties(requests: list[Request], executed: int, repeated: int) -> dict:
    """The realised properties of a pass, and of a run that executed
    ``executed`` requests of which ``repeated`` had been sent before."""
    kinds: dict[str, int] = {}
    cases: dict[str, int] = {}
    spread: dict[str, list[int]] = {"ell": [], "bits": [], "depth": [], "records": []}
    for req in requests:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
        if req.poly is not None:
            cases[req.poly.case] = cases.get(req.poly.case, 0) + 1
            if req.poly.ell is not None:
                spread["ell"].append(req.poly.ell)
        if req.kind == "branches":
            spread["bits"].append(req.arg)  # type: ignore[arg-type]
        elif req.kind == "cli:tree":
            spread["depth"].append(req.arg)  # type: ignore[arg-type]
        elif req.kind == "batch":
            spread["records"].append(req.records)
    return {
        "pass_requests": len(requests),
        "kind_mix": kinds,
        "case_mix": cases,
        "spread": {k: {"min": min(v), "median": sorted(v)[len(v) // 2], "max": max(v)} for k, v in spread.items() if v},
        "duplicate_share": round(repeated / executed, 4) if executed else 0.0,
        "passes": round(executed / len(requests), 3),
    }
