"""The quadval benchmark.

    python3 bench/run.py --workload {batch,bounded,unbounded} --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop: one client, one process, one thread,
the next request sent when the previous one returns.  Requests are
in-process calls of ``quadval.cli.main(argv)`` writing to ``--output``
files, and direct library calls where users call the library.  Every
output is checked by brute force outside the timed region (check.py).

With ``--trace 0`` the loop runs for S seconds of request time and the
last line of standard output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` one pass over the workload's requests runs
untraced and then again with every public quadval function wrapped
(tracing.py), and the last line carries the per-layer metrics and the
tracing overhead.  Lines before it hold a report: the workload's
realised properties, the tail percentile and its sample count, every
failed op by request, and the known-defect probes.

Exits non-zero only on a benchmark error (for example when the quadval
sources are missing), never because ops failed; those are counted.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from calibrate import REFERENCE_NS, reference_ns
from check import CLI_CHECKS, LIB_CHECKS
from serve import Executor
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, plan, properties

import warmup

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # before the loop, and as many after it
REFERENCE_EVERY_NS = 50_000_000
REFERENCE_WINDOW = 10


def _error(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------------ setup


def measure_setup(workload: str, workdir: Path, count: int) -> list[float]:
    """Seconds to import quadval and serve the warm-up requests in a fresh
    interpreter, scaled to reference speed by slices run in the same
    interpreter just before and after.  `count` samples, after one
    unmeasured start that leaves the bytecode and file caches warm."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import calibrate, warmup; "
        "r0 = calibrate.reference_ns(); t = warmup.warm_up(sys.argv[3], sys.argv[4]); "
        "print(t, r0, calibrate.reference_ns())"
    )
    cmd = [sys.executable, "-c", code, str(BENCH), str(SRC), workload, str(workdir)]
    samples = []
    for _ in range(count + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            _error(f"set-up run failed:\n{proc.stderr}")
        t, r0, r1 = (float(x) for x in proc.stdout.split())
        samples.append(t * 2 * REFERENCE_NS / (r0 + r1))
    return samples[1:]


# ------------------------------------------------------------------- loop


@dataclass
class Loop:
    """What one closed-loop run observed.  Latencies and busy times are
    scaled to reference speed (calibrate.py); raw_busy_ns is wall time."""

    latencies_ns: array = field(default_factory=lambda: array("d"))
    raw_ns: array = field(default_factory=lambda: array("q"))
    busy_ns_by_kind: dict[str, float] = field(default_factory=dict)
    busy_ns: float = 0.0
    raw_busy_ns: int = 0
    executed: int = 0
    repeated: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)
    last_pass: list = field(default_factory=list)


LIBRARY_KINDS = ("point", "branches")


def check_output(req, value, error, out_path: Path) -> list[str]:
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"[:300]]
    if req.kind in LIB_CHECKS:
        return LIB_CHECKS[req.kind](req, value)
    output = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return CLI_CHECKS[req.kind](req, value, output)


def closed_loop(passes, execute: Executor, out_path: Path, *, seconds: float | None = None, wrap=None) -> Loop:
    """Send the requests of pass 0, 1, 2, ... (``passes(k)`` builds pass
    k) in order until `seconds` of request time have passed; one pass
    when `seconds` is None.  Runs end on a pass boundary, so every run
    does the same mix of work.  ``wrap`` wraps the timed call (tracing).

    The reference slice runs at the start and after each
    REFERENCE_EVERY_NS of request time.  Each stretch of requests between
    two slices is scaled by the median of the REFERENCE_WINDOW slices
    around it: one slice is too noisy, and the machine's speed drifts
    over seconds, not milliseconds."""
    loop = Loop()
    call = wrap(execute) if wrap else execute
    budget = None if seconds is None else seconds * 1e9
    kinds: list[str] = []
    stretch = array("i")
    refs = [reference_ns()]
    stretch_ns = 0
    seen: set[int] = set()
    sink = io.StringIO()
    k = 0
    while k == 0 or (budget is not None and loop.raw_busy_ns < budget):
        requests = passes(k)
        for req in requests:
            if req.kind in LIBRARY_KINDS:
                execute.prepare(req.abc)
        # Put the benchmark's own objects, this pass's requests among them,
        # out of the collector's reach: the program's garbage collections
        # should traverse only what the program holds.  Otherwise a full
        # collection walking the pass lands on whichever request it hits.
        gc.collect()
        gc.freeze()
        for req in requests:
            key = hash(req.key)
            loop.repeated += key in seen
            seen.add(key)
            out_path.unlink(missing_ok=True)
            sink.seek(0)
            sink.truncate()
            error = None
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter_ns()
                try:
                    value = call(req.kind, req.abc, req.arg, req.argv)
                except Exception as exc:  # a failed op, recorded below
                    value, error = None, exc
                t1 = perf_counter_ns()
            loop.raw_ns.append(t1 - t0)
            stretch.append(len(refs) - 1)
            kinds.append(req.kind)
            loop.raw_busy_ns += t1 - t0
            stretch_ns += t1 - t0
            problems = check_output(req, value, error, out_path)
            loop.attempted += req.records
            if problems:
                failed = req.records if error is not None else min(req.records, len(problems))
                loop.failed += failed
                loop.failures.append(
                    {"pass": k, "request": loop.executed - k * len(requests), "kind": req.kind, "argv": req.argv or None,
                     "arg": req.arg, "failed_ops": failed, "problems": problems[:5]}
                )
            loop.executed += 1
            if stretch_ns >= REFERENCE_EVERY_NS:
                refs.append(reference_ns())
                stretch_ns = 0
        loop.last_pass = requests
        k += 1
    refs.append(reference_ns())
    half = REFERENCE_WINDOW // 2
    scale = [REFERENCE_NS / statistics.median(refs[max(0, k - half + 1):k + half + 1]) for k in range(len(refs) - 1)]
    for ns, k, kind in zip(loop.raw_ns, stretch, kinds):
        loop.latencies_ns.append(ns * scale[k])
        loop.busy_ns_by_kind[kind] = loop.busy_ns_by_kind.get(kind, 0.0) + ns * scale[k]
    loop.busy_ns = sum(loop.latencies_ns)
    return loop


def pass_summary(loop: Loop, lat=None) -> dict:
    """Throughput of each pass and its median over the passes; median and
    tail latency over the requests of a pass, each request's latency
    being its median over the passes, which filters out the machine's
    short stalls.  The tail is the highest percentile with at least ten
    requests beyond it, by nearest rank; fixing it by the pass keeps it
    the same when the program gets faster and more passes fit in a run."""
    requests = loop.last_pass
    n = len(requests)
    passes = loop.executed // n
    ops = sum(req.records for req in requests)
    failed = [0] * passes
    for failure in loop.failures:
        failed[failure["pass"]] += failure["failed_ops"]
    lat = loop.latencies_ns if lat is None else lat
    throughput = [(ops - failed[k]) / (sum(lat[k * n:(k + 1) * n]) / 1e9) for k in range(passes)]
    per_request = sorted(statistics.median(lat[i::n]) for i in range(n))
    tail = 100 * max(n - 10, n // 2) / n
    return {
        "ops_per_s": statistics.median(throughput),
        "p50_ms": per_request[math.ceil(n / 2) - 1] / 1e6,
        "tail_ms": per_request[math.ceil(tail / 100 * n) - 1] / 1e6,
        "tail_percentile": tail,
        "requests_per_pass": n,
        "passes": passes,
        "ops_per_s_by_pass": throughput,
    }


def measure_peak_rss(workload: str, requests, workdir: Path) -> float:
    """Peak resident set in MB of a fresh interpreter that serves the
    warm-up and one pass (serve.py), without the checker or the loop's
    records.  Requests with the most records go first: the largest batch
    file then meets a fresh heap, and the figure does not swing with the
    order of files each seed draws, which moved it by up to 7%."""
    path = workdir / "pass.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for req in sorted(requests, key=lambda req: -req.records):
            fh.write(json.dumps([req.kind, req.abc, req.arg, req.argv]) + "\n")
    cmd = [sys.executable, str(BENCH / "serve.py"), workload, str(path), str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        _error(f"peak-RSS run failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


# ----------------------------------------------------------------- probes


def known_defect_probes(workload: str, workdir: Path, cli) -> list[dict]:
    """Inputs that hit defects known at the time the benchmark was
    written.  They run untimed after the measured loop and are reported,
    not counted: a wrong answer inside the loop would make the run
    incorrect, and a request that fails fast would inflate throughput."""
    out = workdir / "probe.out"
    probes = []
    if workload == "unbounded":
        for fmt in ("ascii", "json"):
            argv = ["tree", "-a", "13", "-b", "12", "-c", "-28", "--depth", "2048", "--format", fmt, "--output", str(out)]
            probes.append((argv, "exit 0 and a tree capped at depth 2048", None))
    elif workload == "bounded":
        # ℓ = 64, m = 5: the output lists 65 residues, but the canonical
        # period table behind it has 2**64 entries.
        argv = ["ops", "-a", "1", "-b", "2", "-c", str(1 - 5 * 4**63), "--show-canonical", "--output", str(out)]
        probes.append((argv, "exit 0 and a 65-entry residue map", None))
    elif workload == "batch":
        path = workdir / "probe.json"
        path.write_text('[[1.9, 2, 3], [true, 2, 3], ["7", 2, 3]]\n', encoding="utf-8")
        probes.append((["batch", "--input", str(path), "--output", str(out)], "exit 4 and three error records", 3))
    report = []
    for argv, expected, error_records in probes:
        out.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except (RecursionError, OverflowError, MemoryError) as exc:
            observed, ok = f"raised {type(exc).__name__}", False
        else:
            observed, ok = f"exit {code}", code == 0
            if error_records is not None:
                records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
                errors = sum("error" in r for r in records)
                observed += f", {errors} error records of {len(records)}"
                ok = code == 4 and errors == error_records
        report.append({"argv": argv, "expected": expected, "observed": observed, "defect": not ok})
    return report


# ------------------------------------------------------------------ modes


def _import_quadval():
    sys.path.insert(0, str(SRC))
    import quadval

    if not Path(quadval.__file__).resolve().is_relative_to(SRC.resolve()):
        _error(f"imported quadval from {quadval.__file__}, not from {SRC}")
    return Executor()


def run_plain(args, requests, workdir: Path, execute: Executor) -> tuple[dict, dict, Loop]:
    setup = measure_setup(args.workload, workdir, SETUP_SAMPLES)

    def passes(k: int):
        return requests if k == 0 else plan(args.workload, args.seed, workdir, k)

    loop = closed_loop(passes, execute, workdir / "out.txt", seconds=args.seconds)
    peak_rss_mb = measure_peak_rss(args.workload, loop.last_pass, workdir)
    # Half the set-up samples before the loop and half after it, so that a
    # slow spell of the machine at one moment sways at most half of them.
    setup += measure_setup(args.workload, workdir, SETUP_SAMPLES)
    lat = pass_summary(loop)
    raw = pass_summary(loop, loop.raw_ns)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": lat["ops_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
        "latency_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    report = {
        "properties": properties(requests, loop.executed, loop.repeated),
        "latency": lat,
        "unscaled": {"ops_per_s": raw["ops_per_s"], "latency_p50_ms": raw["p50_ms"], "latency_tail_ms": raw["tail_ms"]},
        "busy_s_by_kind": {k: v / 1e9 for k, v in loop.busy_ns_by_kind.items()},
        "busy_s": loop.busy_ns / 1e9,
        "raw_busy_s": loop.raw_busy_ns / 1e9,
        "setup_s_samples": setup,
        "failed_share": loop.failed / loop.attempted,
        "known_defects": known_defect_probes(args.workload, workdir, execute.cli),
    }
    return metrics, report, loop


def run_traced(args, requests, workdir: Path, execute: Executor) -> tuple[dict, dict, Loop]:
    out = workdir / "out.txt"
    plain = closed_loop(lambda k: requests, execute, out)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(lambda k: requests, execute, out, wrap=tracer.request)
    finally:
        tracer.uninstall()
    node_calls = tracer.calls_of("tree.node_status")
    overhead = (traced.busy_ns - plain.busy_ns) / 1e9
    values = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS}
    for qualname in (
        "cli.main", "classify.classify", "arith.nu2", "closed_form.closed_form_valuation",
        "closed_form.period_table", "tree.node_status",
    ):
        values[f"{qualname}.calls"] = tracer.calls_of(qualname)
    for qualname in (
        "closed_form.closed_form_valuation", "closed_form.period_table", "tree.node_status",
        "tree.build_tree", "tree.infinite_branch_residues",
    ):
        values[f"{qualname}.self_s"] = tracer.self_s_of(qualname)
    values.update({
        "cli.errors": tracer.errors["cli"],
        "tree.errors": tracer.errors["tree"],
        "closed_form.table_entries": tracer.table_entries,
        "tree.live_ratio": tracer.live / node_calls if node_calls else 0.0,
        "oracle.values": tracer.oracle_values,
        "operators.calls": tracer.layer_calls("operators"),
        "poly.evals": tracer.calls_of("poly.__call__"),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / (plain.busy_ns / 1e9),
    })
    spans_path = SPANS / f"{args.workload}.spans.tsv.gz"
    tracer.write_spans(spans_path)
    units = {"self_s": "s", "overhead_s": "s", "live_ratio": "ratio", "overhead_share": "ratio"}
    metrics = {
        name: {"value": v, "unit": units.get(name.rsplit(".", 1)[1], "count")} for name, v in values.items()
    }
    report = {
        "untraced_s": plain.busy_ns / 1e9,
        "traced_s": traced.busy_ns / 1e9,
        "self_s_by_layer": {**{layer: tracer.layer_self_s(layer) for layer in LAYERS}, "bench": tracer.layer_self_s("bench")},
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    loop = Loop(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed,
                failures=plain.failures + traced.failures, executed=plain.executed + traced.executed)
    return metrics, report, loop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="request time to measure with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _error("--seconds must be positive")
    if not (SRC / "quadval" / "__init__.py").is_file():
        _error(f"quadval sources not found under {SRC}")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        requests = plan(args.workload, args.seed, workdir)
        execute = _import_quadval()
        warmup.warm_up(args.workload, str(workdir))
        mode = run_traced if args.trace else run_plain
        metrics, report, loop = mode(args, requests, workdir, execute)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "loop": "closed, 1 client, 1 process, 1 thread",
        "requests": loop.executed, "attempted_ops": loop.attempted, "failed_ops": loop.failed,
    }
    print(json.dumps({**header, **report, "failures": loop.failures}, indent=1, default=str))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
