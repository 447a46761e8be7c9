"""Span tracing of quadval's public functions, installed from outside.

Tracer.install wraps every public, non-generator function defined in
each layer module, plus QuadraticPoly.__call__, and rebinds the wrapper
in every quadval module that binds the original: ``from .x import y``
copies the name, so patching only the defining module would miss calls
made through the copies.  Calls a module makes to its own functions go
through its globals and are caught the same way.

Each call appends a span (name, parent, start, end) to flat arrays kept
in memory; ``write_spans`` saves them when the run ends.  Self time is
accumulated as the spans close: a span's duration minus the durations of
its direct children, charged to the span's layer, so every instant of a
request is charged to exactly one layer.  Generator functions (tree.walk)
are not wrapped, since their work happens while the caller iterates;
that time is charged to the caller.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("arith", "poly", "classify", "closed_form", "tree", "operators", "oracle", "cli")
HARNESS = "bench"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.errors = dict.fromkeys((*LAYERS, HARNESS), 0)
        self.live = 0
        self.table_entries = 0
        self.oracle_values = 0
        self._stack: list[list[int]] = []
        self._last_error: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn, observe=None):
        nid = self._name_id(layer, name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(layer, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                span_end[idx] = t1
                calls[nid] += 1
                self_ns[nid] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once in each layer it passes through."""
        if self._last_error.get(layer) != id(exc):
            self._last_error[layer] = id(exc)
            self.errors[layer] += 1

    def _observe_node_status(self, result) -> None:
        if result[0].value in ("non_terminating", "root_node"):
            self.live += 1

    def _observe_table(self, result) -> None:
        self.table_entries += result.period

    def _observe_sequence(self, result) -> None:
        self.oracle_values += len(result.values)

    def install(self) -> None:
        """Wrap the public functions of every layer module of quadval."""
        observers = {
            "tree.node_status": self._observe_node_status,
            "closed_form.period_table": self._observe_table,
            "oracle.valuation_sequence": self._observe_sequence,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"quadval.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self.wrap(layer, name, obj, observers.get(f"{layer}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "quadval" or mod_name.startswith("quadval."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._patched.append((module, name, obj))
                        setattr(module, name, wrappers[id(obj)])
        poly_cls = sys.modules["quadval.poly"].QuadraticPoly
        self._patched.append((poly_cls, "__call__", poly_cls.__call__))
        poly_cls.__call__ = self.wrap("poly", "__call__", poly_cls.__call__)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def request(self, fn):
        """Wrap one request of the harness, the root span of its calls."""
        return self.wrap(HARNESS, "request", fn)

    # ------------------------------------------------------------- results

    def calls_of(self, qualname: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == qualname)

    def self_s_of(self, qualname: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_ns) if n == qualname) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(s for lay, s in zip(self.layer_of, self.self_ns) if lay == layer) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(c for lay, c in zip(self.layer_of, self.calls) if lay == layer)

    def write_spans(self, path: Path) -> None:
        """Save the spans as gzipped tab-separated rows of name, parent,
        start and end; parent is the 0-based row of the parent span (-1
        for a root), and times are nanoseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        t0 = self.span_start[0] if self.span_start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{names[n]}\t{p}\t{s - t0}\t{e - t0}\n"
                for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            )
