"""Run one ``boswit`` command in-process with its layers traced.

Every public function listed in ``LAYERS`` is wrapped at every binding it has
across the boswit modules (``witness.project_traceless`` and
``oracle.project_traceless`` as well as ``basis.project_traceless``), so calls
made through any import are seen.  Each call records a span: name, start,
end and parent span.  The spans stay in memory while the command runs and are
written out at the end; the wrappers are removed before anything is written.
The per-layer metrics go to ``--out``, with ``report_s``: the time taken,
after the command returned, to compute them and write the spans.

A call made while a span of the same name is open gets no span of its own
(``szsz_state`` calling ``from_coefficients`` is one ``states.build``), so no
time or call is counted twice.

    python3 perfbench/tracer.py --out trace.json --spans spans.json -- sweep szsz

The command's own output goes to stdout unchanged, and the exit code is the
command's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULES = (
    "boswit",
    "boswit.basis",
    "boswit.states",
    "boswit.witness",
    "boswit.oracle",
    "boswit.checks",
    "boswit.sweep",
    "boswit.cli",
)

# Span name -> (defining module, functions recorded under that name).  A
# function missing from its module is skipped and its span reports zero calls,
# so the benchmark keeps running while the library is refactored.
LAYERS = {
    "basis.build_gellmann": ("boswit.basis", ("build_gellmann",)),
    "basis.project_traceless": ("boswit.basis", ("project_traceless",)),
    "basis.schwinger_ops": ("boswit.basis", ("schwinger_ops",)),
    "states.build": (
        "boswit.states",
        ("from_coefficients", "szsz_state", "acstark_state", "maximally_entangled"),
    ),
    "witness.correlation_tensor": ("boswit.witness", ("correlation_tensor",)),
    "witness.t_max": ("boswit.witness", ("t_max",)),
    "witness.spin_tensor": ("boswit.witness", ("spin_tensor",)),
    "witness.entropy": ("boswit.witness", ("von_neumann_entropy",)),
    "witness.evaluate": ("boswit.witness", ("evaluate",)),
    "sweep.run_family": ("boswit.sweep", ("run_family",)),
    "sweep.rows_to_csv": ("boswit.sweep", ("rows_to_csv",)),
    "sweep.write_text": ("boswit.sweep", ("write_text",)),
    "oracle.product_overlap_search": ("boswit.oracle", ("product_overlap_search",)),
    "oracle.roundtrip_error": ("boswit.oracle", ("roundtrip_error",)),
    "checks.run_checks": ("boswit.checks", ("run_checks",)),
    "cli.main": ("boswit.cli", ("main",)),
}

# Spans whose inclusive time (self plus children) is reported as well.
TOTALS = ("witness.evaluate", "oracle.product_overlap_search", "cli.main")


def metric_units() -> dict:
    """Every metric a traced run reports, mapped to its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    for name in TOTALS:
        units[f"{name}_total_s"] = "s"
    units["witness.tensor_bytes"] = "B"
    units["sweep.emit_bytes"] = "B"
    return units


def _count_tensor_bytes(tracer, args, result) -> None:
    # Computed, not measured: the d^4 complex two-point array plus the
    # (d^2-1)^2 real tensor that one correlation_tensor call materializes.
    d = result.d
    tracer.tensor_bytes += 16 * d**4 + 8 * (d * d - 1) ** 2


def _count_emit_bytes(tracer, args, result) -> None:
    tracer.emit_bytes += len(args[0].encode("utf-8"))


HOOKS = {
    "witness.correlation_tensor": _count_tensor_bytes,
    "sweep.write_text": _count_emit_bytes,
}


class Tracer:
    """Span recorder; spans are kept as parallel lists indexed by span id."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.tensor_bytes = 0
        self.emit_bytes = 0
        self._stack: list = []
        self._open: set = set()
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        names, start, end, parent, stack, open_names = (
            self.names, self.start, self.end, self.parent, self._stack, self._open
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_names:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            open_names.add(name)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
                open_names.discard(name)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, attrs) in LAYERS.items():
            for attr in attrs:
                original = getattr(sys.modules[home], attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, HOOKS.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))

    def restore(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def metrics(self) -> dict:
        """Self time and call count per span name, plus the listed totals."""
        child = [0.0] * len(self.names)
        for span, up in enumerate(self.parent):
            if up >= 0:
                child[up] += self.end[span] - self.start[span]
        out = {m: 0 for m in metric_units()}
        for span, name in enumerate(self.names):
            duration = self.end[span] - self.start[span]
            out[f"{name}_s"] += duration - child[span]
            out[f"{name}_calls"] += 1
            if name in TOTALS:
                out[f"{name}_total_s"] += duration
        out["witness.tensor_bytes"] = self.tensor_bytes
        out["sweep.emit_bytes"] = self.emit_bytes
        return out

    def spans(self) -> dict:
        return {"name": self.names, "start": self.start, "end": self.end, "parent": self.parent}


def trace_main(argv: list) -> tuple:
    """Run ``boswit.cli.main(argv)`` traced; return (exit code, tracer)."""
    tracer = Tracer()
    try:
        tracer.install()
        code = sys.modules["boswit.cli"].main(argv)
    finally:
        tracer.restore()
    return code, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the metrics (JSON)")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- followed by the boswit arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(ROOT / "src"))
    code, tracer = trace_main(argv)
    sys.stdout.flush()
    returned = time.perf_counter()
    metrics = tracer.metrics()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh)
    report_s = time.perf_counter() - returned
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "metrics": metrics, "report_s": report_s}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
