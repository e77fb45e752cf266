"""Spans around calls into lucasdisc's public functions, for traced runs only.

``install`` replaces each listed function everywhere the package refers
to it: module globals (``from .x import f`` copies included) and the
registries ``cli._DISPATCH``, ``campaigns._CAMPAIGNS`` and
``lemmas.SUITES``.  Pool workers forked by the CLI inherit the wrapped
functions.  Spans are kept in memory and written as JSON lines when the
process's outermost span ends (a pool worker's task) or when ``flush``
is called at exit.  Generators such as ``term_iter`` get no span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple

# span name -> (module, attribute)
TRACED = {
    "sequences.term": ("lucasdisc.sequences", "term"),
    "roots.dominant_root": ("lucasdisc.roots", "dominant_root"),
    "roots.binet_error_check": ("lucasdisc.roots", "binet_error_check"),
    "roots.binet_vs_power2_check": ("lucasdisc.roots", "binet_vs_power2_check"),
    "roots.growth_bounds_check": ("lucasdisc.roots", "growth_bounds_check"),
    "twoadic.l_quantity": ("lucasdisc.twoadic", "l_quantity"),
    "bounds.discriminant": ("lucasdisc.bounds", "discriminant"),
    "bounds.solve_matveev_k_bound": ("lucasdisc.bounds", "solve_matveev_k_bound"),
    "bounds.solve_bl_k_bound": ("lucasdisc.bounds", "solve_bl_k_bound"),
    "bounds.bl_crossover_k": ("lucasdisc.bounds", "bl_crossover_k"),
    "bounds.m_range": ("lucasdisc.bounds", "m_range"),
    "campaigns.campaign_small": ("lucasdisc.campaigns", "campaign_small"),
    "campaigns.campaign_case0": ("lucasdisc.campaigns", "campaign_case0"),
    "campaigns.campaign_case12": ("lucasdisc.campaigns", "campaign_case12"),
    "campaigns.campaign_case3": ("lucasdisc.campaigns", "campaign_case3"),
    "campaigns.shard": ("lucasdisc.campaigns", "shard"),
    "campaigns.merge_reports": ("lucasdisc.campaigns", "merge_reports"),
    "campaigns.report_to_jsonl": ("lucasdisc.campaigns", "report_to_jsonl"),
    "cli.run": ("lucasdisc.cli", "run"),
}


class Span(NamedTuple):
    sid: str
    parent: str | None
    name: str
    start: float
    end: float
    error: str | None


class Tracer:
    """Records one span per wrapped call; ids are unique across forked processes."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.origin_pid = os.getpid()
        self._stack: list[str] = []
        self._spans: list[Span] = []
        self._count = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            self._count += 1
            sid = "%d:%d" % (pid, self._count)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._spans.append(Span(sid, parent, name, start, end, error))
                # A forked worker never reaches the parent's exit hook, so it
                # writes its spans when its own outermost span ends.
                if pid != self.origin_pid and (parent is None or not parent.startswith("%d:" % pid)):
                    self.flush()

        return traced

    def flush(self) -> None:
        prefix = "%d:" % os.getpid()
        mine = [s for s in self._spans if s.sid.startswith(prefix)]
        if not mine:
            return
        path = os.path.join(self.out_dir, "spans-%d.jsonl" % os.getpid())
        with open(path, "a") as handle:
            for s in mine:
                handle.write(json.dumps(s._asdict()) + "\n")
        self._spans = [s for s in self._spans if not s.sid.startswith(prefix)]


def install(tracer: Tracer) -> dict[str, Callable]:
    """Wrap every TRACED function and lemma suite; returns the originals by span name."""
    import lucasdisc.cli  # noqa: F401  (every module must be loaded before patching)
    import lucasdisc.lemmas

    targets = {}
    for name, (module, attr) in TRACED.items():
        targets[name] = getattr(sys.modules[module], attr)
    for suite, fn in lucasdisc.lemmas.SUITES.items():
        targets["lemmas." + suite] = fn

    replacement = {id(fn): tracer.wrap(name, fn) for name, fn in targets.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "lucasdisc" and not modname.startswith("lucasdisc."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, attr, replacement[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacement:
                        value[key] = replacement[id(item)]
    return targets


def read_spans(out_dir: str) -> list[Span]:
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry)) as handle:
                spans.extend(Span(**json.loads(line)) for line in handle)
    return spans


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span id: its duration minus the part its children cover.

    Children may overlap one another (pool workers run in parallel) and
    may outlast their parent; only the union of their intervals inside
    the parent's interval is subtracted.
    """
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        result[s.sid] = (s.end - s.start) - covered
    return result
