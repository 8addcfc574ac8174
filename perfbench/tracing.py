"""In-memory spans recorded around tlemma's public functions.

The tracer patches each function where its caller looks it up (module
globals such as ``tlemma.strategies.projected_allsmt``, class attributes such
as ``BuiltinOracle.check``) and restores the originals on ``uninstall``.  A
span is ``[name, start_ns, end_ns, parent, op, attrs]``; ``parent`` indexes
the enclosing span and ``op`` is shared by the spans of one operation.

Forked pool workers inherit the patches but record nothing: a fork hook
switches the tracer off in the child.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Callable, Dict, List, Optional

perf_ns = time.perf_counter_ns


def _children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.active = False
        self._saved: List[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.active = False

    def enable(self, on: bool, op: Optional[int]) -> None:
        """Patch and record (``on``) or restore the originals; spans get ``op``."""
        if on:
            self.install()
        else:
            self.uninstall()
        self.active = on
        self.op = op

    # -- spans ----------------------------------------------------------------

    def open(self, name: str, attrs: Optional[dict] = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_ns(), 0, parent, self.op, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_ns()
        self.stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- patches ----------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        def traced(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            attrs = before(args, kw) if before else None
            idx = tracer.open(name, attrs)
            try:
                out = fn(*args, **kw)
                if after:
                    after(tracer.spans[idx], args, kw, out)
                return out
            except Exception as exc:
                tracer.spans[idx][5] = dict(attrs or {}, error=type(exc).__name__)
                raise
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch the layer boundaries; idempotent."""
        if self._saved:
            return
        import tlemma.problem as problem
        import tlemma.strategies as strategies
        from tlemma.enumeration import EnumerationMode
        from tlemma.oracle import BuiltinOracle

        def enum_mode(args, kw):
            mode = kw["mode"] if "mode" in kw else args[3]
            return {"mode": "partial" if mode is EnumerationMode.PARTIAL else "total"}

        def enum_done(span, args, kw, outcome):
            if span[5]["mode"] == "partial":
                span[5]["cubes"] = len(outcome.assignments)

        def dnc_start(args, kw):
            return {"workers": kw["spec"].workers, "child_cpu0": _children_cpu_s()}

        def dnc_done(span, args, kw, out):
            span[5]["child_cpu"] = _children_cpu_s() - span[5].pop("child_cpu0")

        def check_done(span, args, kw, verdict):
            span[5] = {"unsat": not verdict.satisfiable}

        targets = [
            (problem, "parse_smtlib", "parser.parse", None, None),
            (problem, "boolean_abstraction", "cnf.abstraction", None, None),
            (problem, "to_cnf", "cnf.tseitin", None, None),
            (strategies, "projected_allsmt", "enumeration.projected_allsmt", enum_mode, enum_done),
            (strategies, "enumerate_baseline", "strategies.enumerate_baseline", None, None),
            (strategies, "enumerate_dnc", "strategies.enumerate_dnc", dnc_start, dnc_done),
            (strategies, "dedup_lemmas", "strategies.dedup", None, None),
            (BuiltinOracle, "check", "oracle.check", None, check_done),
            (BuiltinOracle, "minimize_core", "oracle.minimize_core", None, None),
        ]
        for owner, attr, name, before, after in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- aggregation ---------------------------------------------------------------

LAYER_KEYS = (
    "op_s", "parser.parse_s", "cnf.encode_s", "enumeration.total_s",
    "enumeration.partial_s", "enumeration.self_s", "enumeration.calls",
    "oracle.check_s", "oracle.checks", "oracle.unsat", "oracle.timeouts",
    "oracle.minimize_core_s", "strategies.run_s", "strategies.dnc_phase1_s",
    "strategies.dnc_phase2_s", "strategies.cubes", "strategies.pool_cpu_s",
    "strategies.pool_capacity_s", "strategies.passes", "strategies.dedup_s",
    "lemma_io.render_s",
)


def layer_totals(spans: List[list], ops: set) -> Dict[str, float]:
    """Sum the spans of the given operations into per-layer figures.

    Times are seconds.  Self time is a span's duration minus the time its
    direct children cover; children never overlap, as the loop is one thread.
    """
    child_s = [0.0] * len(spans)
    partial_child_s = [0.0] * len(spans)
    for name, start, end, parent, _, attrs in spans:
        if parent >= 0:
            child_s[parent] += (end - start) / 1e9
            if name == "enumeration.projected_allsmt" and attrs["mode"] == "partial":
                partial_child_s[parent] += (end - start) / 1e9
    t = dict.fromkeys(LAYER_KEYS, 0.0)
    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op not in ops:
            continue
        dur = (end - start) / 1e9
        attrs = attrs or {}
        if name == "op":
            t["op_s"] += dur
        elif name == "parser.parse":
            t["parser.parse_s"] += dur
        elif name in ("cnf.abstraction", "cnf.tseitin"):
            t["cnf.encode_s"] += dur
        elif name == "enumeration.projected_allsmt":
            t["enumeration.calls"] += 1
            t["enumeration.self_s"] += dur - child_s[i]
            if attrs["mode"] == "partial":
                t["enumeration.partial_s"] += dur
                t["strategies.cubes"] += attrs.get("cubes", 0)
            else:
                t["enumeration.total_s"] += dur
        elif name == "oracle.check":
            t["oracle.check_s"] += dur
            t["oracle.checks"] += 1
            t["oracle.unsat"] += bool(attrs.get("unsat"))
            t["oracle.timeouts"] += attrs.get("error") == "OracleTimeoutError"
        elif name == "oracle.minimize_core":
            t["oracle.minimize_core_s"] += dur
        elif name == "strategies.run":
            t["strategies.run_s"] += dur
        elif name == "strategies.enumerate_baseline":
            t["strategies.passes"] += 1
        elif name == "strategies.enumerate_dnc":
            # Phase 1 is the partial enumeration directly under this span;
            # the rest of the call is phase 2 (pool spawn, payloads, cubes).
            phase1 = partial_child_s[i]
            t["strategies.passes"] += 1
            t["strategies.dnc_phase1_s"] += phase1
            t["strategies.dnc_phase2_s"] += dur - phase1
            t["strategies.pool_cpu_s"] += attrs.get("child_cpu", 0.0)
            t["strategies.pool_capacity_s"] += attrs["workers"] * (dur - phase1)
        elif name == "strategies.dedup":
            t["strategies.dedup_s"] += dur
        elif name == "lemma_io.render":
            t["lemma_io.render_s"] += dur
    return t
