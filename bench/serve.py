"""Serve requests with quadval, the way a user would call it.

``Executor`` is what the closed loop in run.py times.  Run as a script,

    python3 bench/serve.py WORKLOAD REQUESTS WORKDIR

it is the fresh interpreter behind ``peak_rss_mb``: it imports quadval,
serves the warm-up requests, then the requests in the file REQUESTS (one
JSON list ``[kind, [a, b, c] or null, arg, argv]`` a line, read one at a
time), and prints its peak resident set size in MB.  It checks nothing
and keeps nothing per request, so the high-water mark is quadval's and
the interpreter's alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys


def peak_rss_mb() -> float:
    """The high-water mark of this process's resident set, in MB.

    On Linux this is VmHWM, which starts afresh with each program the
    process runs.  ru_maxrss does not: a child started by fork and exec
    keeps the high-water mark of the parent it was forked from."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Executor:
    """Calls quadval for one request: ``closed_form_valuation`` for a
    point query, ``infinite_branch_residues`` for a branch query, and
    ``quadval.cli.main(argv)`` for everything else.  ``prepare`` builds
    and classifies a library request's polynomial ahead of the call, as
    a user holding the polynomial would."""

    def __init__(self) -> None:
        from quadval import QuadraticPoly, classify, cli, closed_form, tree

        self._poly, self._classify = QuadraticPoly, classify
        self.cli, self.closed_form, self.tree = cli, closed_form, tree
        self.prepared: dict[tuple[int, int, int], tuple] = {}

    def prepare(self, abc: tuple[int, int, int]) -> None:
        if abc not in self.prepared:
            f = self._poly(*abc)
            self.prepared[abc] = (f, self._classify(f))

    def __call__(self, kind: str, abc: tuple[int, int, int] | None, arg: int | None, argv: list[str]):
        if kind == "point":
            f, cls = self.prepared[abc]
            return self.closed_form.closed_form_valuation(f, arg, classification=cls)
        if kind == "branches":
            f, cls = self.prepared[abc]
            return self.tree.infinite_branch_residues(f, arg, classification=cls)
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            return exc.code


def main(workload: str, requests_path: str, workdir: str) -> float:
    import warmup

    warmup.warm_up(workload, workdir)
    execute = Executor()
    sink = io.StringIO()
    with open(requests_path, encoding="utf-8") as fh, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for line in fh:
            kind, abc, arg, argv = json.loads(line)
            if abc is not None:
                abc = tuple(abc)
                if kind in ("point", "branches"):
                    execute.prepare(abc)
            sink.seek(0)
            sink.truncate()
            with contextlib.suppress(Exception):  # the timed loop counts failures
                execute(kind, abc, arg, argv)
    return peak_rss_mb()


if __name__ == "__main__":
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    print(main(*sys.argv[1:4]))
