"""Import quadval and serve one small request of each kind a workload
uses.  run.py times this in fresh interpreters as ``setup_s`` and calls
it once in process before the timed loop.  It imports nothing from the
benchmark, so a fresh interpreter pays only for quadval.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from time import perf_counter

# Small fixed polynomials: bounded ℓ=5, m=5 and unbounded case 3(b).
BOUNDED = ("-a", "5", "-b", "106", "-c", "1125")
UNBOUNDED = ("-a", "13", "-b", "12", "-c", "-28")


def warm_up(workload: str, workdir: str) -> float:
    """Seconds spent importing quadval and serving the warm-up requests."""
    t0 = perf_counter()
    from quadval import QuadraticPoly, classify, cli, closed_form_valuation, infinite_branch_residues

    out = str(Path(workdir) / "warmup.out")
    if workload == "batch":
        inputs = Path(workdir) / "warmup.csv", Path(workdir) / "warmup.json"
        inputs[0].write_text("1,2,3\n5,106,1125\n0,1,1\n", encoding="utf-8")
        inputs[1].write_text('[[1, 2, 3], {"a": 13, "b": 12, "c": -28}, [1, 2]]\n', encoding="utf-8")
        calls = [["batch", "--input", str(path), "--output", out] for path in inputs]
    elif workload == "bounded":
        f = QuadraticPoly(5, 106, 1125)
        closed_form_valuation(f, 12345, classification=classify(f))
        calls = [
            ["classify", *BOUNDED, "--json"],
            ["table", *BOUNDED],
            ["tree", *BOUNDED, "--format", "json"],
            ["verify", *BOUNDED],
            ["ops", *BOUNDED, "--show-canonical", "--json"],
        ]
    else:
        f = QuadraticPoly(13, 12, -28)
        infinite_branch_residues(f, 64, classification=classify(f))
        calls = [["tree", *UNBOUNDED, "--depth", "8", "--format", fmt] for fmt in ("ascii", "json", "dot")]
        calls.append(["verify", *UNBOUNDED])
    with contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            argv = argv if "--output" in argv else [*argv, "--output", out]
            if cli.main(argv) not in (0, 4):
                raise RuntimeError(f"warm-up request failed: quadval {' '.join(argv)}")
    return perf_counter() - t0
