"""The four workloads: one pass of each, run in child processes and gated.

A pass is a workload's fixed work.  ``proof`` and ``sharded`` run the
five paper-parameter searches, each in a fresh interpreter that runs
``lucasdisc.cli`` as ``python -m lucasdisc.cli`` does; ``certify`` and
``query`` run an op plan in one fresh child.  A pass's ``wall_s`` is
timed inside the children, so it leaves out interpreter start-up and
imports, which ``setup_s`` measures.  Work that runs in one process
(proof's searches, certify's and query's ops) is timed on its CPU
clock (``child._clocks``), which leaves out the time a shared host ran
something else instead; sharded's searches are timed on the wall clock.  Every child's CPU time and max-RSS
come from ``os.wait4``, which includes the pool workers a search waits
for.  ``wall_s`` and ``cpu_s`` are rescaled to the reference host speed
by the speed samples each child takes while it works (``calib.py``);
``raw_wall_s`` and ``raw_cpu_s`` keep the measured values.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gate
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
LAUNCHER = os.path.join(HERE, "launcher.py")
# A run must end within 180 s; children still running this long after the
# run started are killed (and their ops fail).
RUN_DEADLINE_S = 165


@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: str


@dataclass
class Pass:
    """Measurements and verdicts of one pass of a workload."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    undecided: int = 0
    op_latencies_s: list[float] = field(default_factory=list)
    traces: dict = field(default_factory=dict)  # search label or "ops" -> trace dir
    search_cpu_s: dict = field(default_factory=dict)  # search label -> CPU seconds
    counts: dict = field(default_factory=dict)  # work counts read from the reports
    ops: dict = field(default_factory=dict)  # certify/query child result


class Context:
    """Paths, pinned child environment, scratch space and the launcher of one run."""

    def __init__(self, root: str, tmp: str, seed: int) -> None:
        self.root = root
        self.tmp = tmp
        self.seed = seed
        env = dict(os.environ)
        env.pop("LUCASDISC_WORKERS", None)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env
        self._count = 0
        self._deadline = time.perf_counter() + RUN_DEADLINE_S
        self._launcher = subprocess.Popen(
            [sys.executable, LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def scratch(self, name: str) -> str:
        self._count += 1
        path = os.path.join(self.tmp, "%03d-%s" % (self._count, name))
        os.makedirs(path)
        return path

    def run(self, argv: list[str], out_dir: str) -> Proc:
        """Run a child to completion, stdout and stderr into files under out_dir."""
        out_path = os.path.join(out_dir, "stdout")
        err_path = os.path.join(out_dir, "stderr")
        request = {"argv": argv, "cwd": self.root, "env": self.env, "stdout": out_path,
                   "stderr": err_path, "timeout": max(1.0, self._deadline - time.perf_counter())}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        answer = self._launcher.stdout.readline()
        if not answer:
            raise RuntimeError("the process launcher exited")
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, errors="replace") as handle:
            stderr = handle.read()
        return Proc(stdout=stdout, stderr=stderr, **json.loads(answer))


# ------------------------------------------------------------------ set-up


def setup_sample(ctx: Context) -> dict:
    proc = ctx.run([sys.executable, CHILD, "setup"], ctx.scratch("setup"))
    if proc.exit_code != 0:
        raise RuntimeError("import of lucasdisc failed:\n" + proc.stderr)
    return json.loads(proc.stdout)


# --------------------------------------------------------------- searches


def search_args(label: str, workers: int) -> list[str]:
    args = dict(gate.SEARCHES)[label]
    return ["search", *args, "--workers", str(workers), "--format", "jsonl", "--no-timing"]


def search_order(seed: int) -> list[str]:
    labels = [label for label, _ in gate.SEARCHES]
    random.Random(seed).shuffle(labels)
    return labels


def search_pass(
    ctx: Context, workers: int, traced: bool, reference: dict | None, outputs: dict | None = None
) -> Pass:
    """The five searches, each in a fresh interpreter, gated on the frozen facts.

    With ``reference`` (label -> single-worker JSONL bytes) each report
    must also match it byte for byte.  ``outputs``, if given, receives
    each report's bytes.
    """
    result = Pass(wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0, attempted=0, failed=0)
    for label in search_order(ctx.seed):
        out_dir = ctx.scratch("%s-w%d" % (label, workers))
        timing_path = os.path.join(out_dir, "timing.json")
        trace_dir = None
        if traced:
            trace_dir = os.path.join(out_dir, "trace")
            os.makedirs(trace_dir)
        argv = [sys.executable, CHILD, "cli", timing_path, trace_dir or "-", *search_args(label, workers)]
        proc = ctx.run(argv, out_dir)
        problems = []
        if os.path.exists(timing_path):
            with open(timing_path) as handle:
                timing = json.load(handle)
            # One worker: a single process, timed on its CPU clock (see child._clocks).
            run_s = timing["run_cpu_s"] if workers == 1 else timing["run_s"]
            cpu_s, scale = proc.cpu_s - timing["tick_cpu_s"], timing["scale"]
        else:
            run_s, cpu_s, scale = proc.wall_s, proc.cpu_s, 1.0
            problems.append("%s: the child wrote no timing: %s" % (label, proc.stderr[-2000:]))
        result.raw_wall_s += run_s
        result.raw_cpu_s += cpu_s
        result.wall_s += run_s * scale
        result.cpu_s += cpu_s * scale
        result.peak_rss_mb = max(result.peak_rss_mb, proc.maxrss_mb)
        result.traces[label] = trace_dir
        result.search_cpu_s[label] = cpu_s * scale
        if outputs is not None:
            outputs[label] = proc.stdout

        text = proc.stdout.decode(errors="replace")
        result.counts.update(gate.work_counts(label, text))
        problems += gate.check_search(label, proc.exit_code, text)
        if reference is not None:
            problems += gate.check_same_bytes(label, proc.stdout, reference[label])
        if "PrecisionError" in proc.stderr:
            result.undecided += 1
        result.attempted += 1
        if problems:
            result.failed += 1
            result.problems += problems
    return result


# -------------------------------------------------------------------- ops


def ops_pass(ctx: Context, workload: str, traced: bool, verified: dict) -> Pass:
    """Run the certify or query plan in one fresh child and check every answer.

    ``verified`` maps an op's JSON to an answer the oracle already
    accepted in this run; a repeat must equal it.
    """
    plan = inputs.certify_plan(ctx.seed) if workload == "certify" else inputs.query_plan(ctx.seed)
    out_dir = ctx.scratch(workload)
    plan_path = os.path.join(out_dir, "plan.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(plan_path, "w") as handle:
        json.dump(plan, handle)
    argv = [sys.executable, CHILD, "ops", plan_path, result_path]
    trace_dir = None
    if traced:
        trace_dir = os.path.join(out_dir, "trace")
        os.makedirs(trace_dir)
        argv.append(trace_dir)
    proc = ctx.run(argv, out_dir)
    result = Pass(wall_s=proc.wall_s, cpu_s=proc.cpu_s, peak_rss_mb=proc.maxrss_mb, attempted=len(plan), failed=0,
                  raw_wall_s=proc.wall_s, raw_cpu_s=proc.cpu_s)
    result.traces["ops"] = trace_dir
    if proc.exit_code != 0 or not os.path.exists(result_path):
        result.failed = len(plan)
        result.problems.append("%s child exited with %d: %s" % (workload, proc.exit_code, proc.stderr[-2000:]))
        return result
    with open(result_path) as handle:
        result.ops = json.load(handle)
    result.wall_s = result.raw_wall_s = 0.0
    result.raw_cpu_s = proc.cpu_s - result.ops["tick_cpu_s"]

    lemma_failures = 0
    for op, ((_, latency, scale), answer, error) in zip(plan, result.ops["ops"]):
        result.op_latencies_s.append(latency * scale)
        result.raw_wall_s += latency
        result.wall_s += latency * scale
        if error is not None:
            problems = [error]
            result.undecided += error.startswith("PrecisionError")
        elif workload == "certify":
            expected = [] if op[0] == "suite" else True
            problems = [] if answer == expected else ["%s gave %r" % (op, answer)]
            if op[0] == "suite":
                lemma_failures += len(answer)
        else:
            key = json.dumps(op)
            if key in verified:
                problems = [] if verified[key] == answer else ["%s: answer changed between passes" % (op,)]
            else:
                problems = inputs.check_query(op, answer)
                if not problems:
                    verified[key] = answer
        if problems:
            result.failed += 1
            result.problems.append("%s: %s" % (op, "; ".join(problems)))
    result.ops["lemma_failures"] = lemma_failures
    result.cpu_s = result.raw_cpu_s * result.wall_s / result.raw_wall_s
    return result
