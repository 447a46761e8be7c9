"""Tests of the benchmark itself: generators, checker and tracer.

Run with ``python3 -m pytest bench/tests``.  The repository's own test
run does not collect them (its testpaths is ``tests``).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import Request  # noqa: E402


def cli_output(argv: list[str], out: Path) -> tuple[int, str]:
    from quadval import cli

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--output", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


def brute_period(p: workloads.Poly, horizon: int) -> int:
    vals = [check.nu2(p(n)) for n in range(horizon)]
    period = 1
    while any(vals[n] != vals[n + period] for n in range(horizon - period)):
        period *= 2
    return period


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("m", [1, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("ell", [1, 2, 3, 5, 17, 64, 256])
def test_case3_generator_hits_ell_and_m(ell, m):
    rng = Random(ell * 10 + m)
    for offset in (0, 2):
        p = workloads.case3_poly(rng, ell, m, bits=24, offset=offset)
        rec = check.expected_record(p.a, p.b, p.c)
        assert (rec["case"], rec["ell"], rec["m"], rec["even_offset"]) == (p.case, ell, m, offset)
        if m != 1 and ell <= 6:
            assert brute_period(p, 4 << ell) == 1 << ell


@pytest.mark.parametrize("case", workloads.UNBOUNDED_CASES)
def test_unbounded_generator_hits_case(case):
    rng = Random(case)
    for j in range(40):
        p = workloads.unbounded_poly(rng, case, 8 + j, root_bits=4 + j % 5 if j % 2 else 0, ell=1 + j % 8)
        rec = check.expected_record(p.a, p.b, p.c)
        assert rec["case"] == case and rec["infinite_branches"] == p.branches
        assert all(p(r) == 0 for r in p.roots)
        if case == "3(b)":
            assert rec["ell"] == p.ell


def test_constant_generator_and_plans_are_seeded(tmp_path):
    rng = Random(5)
    for case in "15":
        p = workloads.constant_poly(rng, case, offset=2)
        assert check.expected_record(p.a, p.b, p.c)["case"] == case
        assert {check.nu2(p(n)) for n in range(16)} == {2}
    keys = [[r.key for r in workloads.plan("unbounded", seed, tmp_path)] for seed in (3, 3, 4)]
    assert keys[0] == keys[1] != keys[2]


def _shape(req: Request) -> tuple:
    p = req.poly
    return (req.kind, req.fmt, req.records, p and p.case, p and p.ell, None if req.kind == "point" else req.arg)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_share_the_schedule_but_repeat_no_request(workload, tmp_path):
    first, second = (workloads.plan(workload, 7, tmp_path, k) for k in (0, 1))
    assert [_shape(r) for r in first] == [_shape(r) for r in second]
    assert not {r.key for r in first} & {r.key for r in second}


# ---------------------------------------------------------------- checker

F = workloads.case3_poly(Random(1), 5, 5, bits=12)  # bounded, ℓ = 5
G = workloads.unbounded_poly(Random(2), "3(b)", 12, ell=3)  # two branches
H = workloads.unbounded_poly(Random(3), "4", 12, root_bits=6)  # integer roots


def _bump_first_int(text: str, after: str) -> str:
    i = text.index(after) + len(after)
    j = i
    while text[j].isdigit():
        j += 1
    return text[:i] + str(int(text[i:j]) + 1) + text[j:]


def test_checker_accepts_and_rejects_table(tmp_path):
    for fmt in ("csv", "json"):
        req = Request("cli:table", F, argv=["table", *F.argv(), "--format", fmt], fmt=fmt)
        code, out = cli_output(req.argv, tmp_path / "t")
        assert check.check_table(req, code, out) == []
        mutated = _bump_first_int(out, "\n3," if fmt == "csv" else '"entries": [\n    ')
        assert check.check_table(req, code, mutated)


@pytest.mark.parametrize("fmt", ["ascii", "json", "dot"])
@pytest.mark.parametrize("poly", [F, G, H], ids=["bounded", "3b", "roots"])
def test_checker_accepts_and_rejects_tree(tmp_path, fmt, poly):
    depth = 24
    req = Request("cli:tree", poly, depth, ["tree", *poly.argv(), "--depth", str(depth), "--format", fmt], fmt)
    code, out = cli_output(req.argv, tmp_path / "t")
    assert check.check_tree(req, code, out) == []
    leaf = {"ascii": "ν=", "json": '"valuation": ', "dot": "\\nν="}[fmt]
    assert check.check_tree(req, code, _bump_first_int(out, leaf))


def test_checker_accepts_and_rejects_branch_residues():
    from quadval import QuadraticPoly, infinite_branch_residues

    for poly in (G, H):
        req = Request("branches", poly, 200)
        got = infinite_branch_residues(QuadraticPoly(poly.a, poly.b, poly.c), 200)
        assert check.check_branches(req, got) == []
        assert check.check_branches(req, [got[0] + 1, *got[1:]])
        assert check.check_branches(req, got[:1])


def test_checker_accepts_and_rejects_points_verify_ops_classify(tmp_path):
    from quadval import QuadraticPoly, closed_form_valuation

    f = QuadraticPoly(F.a, F.b, F.c)
    n = 3**90
    assert check.check_point(Request("point", F, n), closed_form_valuation(f, n)) == []
    assert check.check_point(Request("point", F, n), closed_form_valuation(f, n) + 1)
    for poly in (F, G, H):
        req = Request("cli:verify", poly, argv=["verify", *poly.argv()])
        code, out = cli_output(req.argv, tmp_path / "v")
        assert check.check_verify(req, code, out) == []
        claim = "maximum valuation " if poly is F else "^12: "
        assert check.check_verify(req, code, _bump_first_int(out, claim))
    for fmt in ("text", "json"):
        req = Request("cli:ops", F, argv=["ops", *F.argv(), "--show-canonical"] + (["--json"] if fmt == "json" else []), fmt=fmt)
        code, out = cli_output(req.argv, tmp_path / "o")
        assert check.check_ops(req, code, out) == []
        assert check.check_ops(req, code, _bump_first_int(out, "level 1: 0 -> " if fmt == "text" else '"residue": '))
    req = Request("cli:classify", G, argv=["classify", *G.argv(), "--json"])
    code, out = cli_output(req.argv, tmp_path / "c")
    assert check.check_classify(req, code, out) == []
    assert check.check_classify(req, code, out.replace('"infinite_branches": 2', '"infinite_branches": 1'))


def test_checker_rejects_one_wrong_batch_record(tmp_path):
    requests = workloads.batch_plan(7, 0, tmp_path, tmp_path / "out")
    req = min(requests, key=lambda r: r.records)
    code, out = cli_output(req.argv[:3], tmp_path / "out")
    assert check.check_batch(req, code, out) == []
    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if '"case"' in ln)
    rec = json.loads(lines[k])
    rec["period"] = 7
    lines[k] = json.dumps(rec)
    assert len(check.check_batch(req, code, "\n".join(lines) + "\n")) == 1


def test_checker_expects_error_records_for_coerced_json(tmp_path):
    path = tmp_path / "coerce.json"
    path.write_text('[[1.9, 2, 3], [true, 2, 3], ["7", 2, 3], [1, 2, 3]]\n', encoding="utf-8")
    want = check.expected_batch(path.read_text(encoding="utf-8"))
    assert ["error" in w for w in want] == [True, True, True, False]


# ----------------------------------------------------------------- tracer


def test_self_times_never_exceed_traced_wall_time(tmp_path):
    import quadval

    requests = [r for r in workloads.unbounded_plan(1, 0, tmp_path / "out.txt") if (r.arg or 0) <= 128][:20]
    requests += [r for r in workloads.bounded_plan(1, 0, tmp_path / "out.txt") if r.kind != "point"][:20]
    execute = run._import_quadval()
    for req in requests:
        if req.kind in run.LIBRARY_KINDS:
            execute.prepare(req.abc)
    tracer = Tracer()
    tracer.install()
    try:
        loop = run.closed_loop(lambda k: requests, execute, tmp_path / "out.txt", wrap=tracer.request)
    finally:
        tracer.uninstall()
    assert loop.failed == 0 and loop.executed == len(requests)
    online = {layer: tracer.layer_self_s(layer) for layer in (*LAYERS, "bench")}
    assert sum(online.values()) <= loop.raw_busy_ns / 1e9
    assert all(v >= 0 for v in online.values())
    # The stored spans give the same self times as the running totals.
    child = [0] * len(tracer.span_start)
    for idx, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            child[parent] += tracer.span_end[idx] - tracer.span_start[idx]
    from_spans = dict.fromkeys(online, 0.0)
    for idx, nid in enumerate(tracer.span_name):
        from_spans[tracer.layer_of[nid]] += (tracer.span_end[idx] - tracer.span_start[idx] - child[idx]) / 1e9
    assert all(abs(online[k] - from_spans[k]) < 1e-6 for k in online)
    assert tracer.calls_of("tree.node_status") > 0 and tracer.calls_of("poly.__call__") > 0
    assert quadval.classify.__module__ == "quadval.classify" and not hasattr(quadval.classify, "__wrapped__")


def test_tail_percentile_leaves_ten_requests_beyond_it():
    loop = run.Loop(executed=102, last_pass=[Request("point")] * 51)
    loop.latencies_ns.extend(range(1, 103))
    summary = run.pass_summary(loop)
    assert summary["passes"] == 2
    per_request = [(i + 1 + i + 52) / 2 for i in range(51)]
    assert sum(v > summary["tail_ms"] * 1e6 for v in per_request) == 10


def test_peak_rss_leaves_out_the_benchmarks_own_memory(tmp_path):
    requests = workloads.bounded_plan(1, 0, tmp_path / "out.txt")[:100]
    alone = run.measure_peak_rss("bounded", requests, tmp_path)
    ballast = b"\x01" * (64 << 20)
    beside = run.measure_peak_rss("bounded", requests, tmp_path)
    del ballast
    assert 5 < alone < 64 and abs(beside - alone) < 8


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
