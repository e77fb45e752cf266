"""Child-process entry points of the benchmark.

    python3 bench/child.py setup
    python3 bench/child.py cli TIMING.json TRACE_DIR|- SEARCH_ARGS...
    python3 bench/child.py ops PLAN.json RESULT.json [TRACE_DIR]

``setup`` times the imports a CLI call pays.  ``cli`` runs one
``lucasdisc`` command as ``python -m lucasdisc.cli`` would and writes
its wall time, set-up excluded, to TIMING.json; with a TRACE_DIR other
than ``-`` it records spans there.  ``ops`` runs a certify or query
plan and writes each op's latency and answer; with TRACE_DIR it records
spans too.  Every mode samples its interpreter speed while it works
(``calib.py``) and reports durations net of that sampling, with the
factor that rescales them to the reference host speed.  Every mode
imports lucasdisc from the checkout's ``src/`` and exits with status 3
if it resolves elsewhere.
"""

import json
import os
import sys
import time

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED_INIT = os.path.join(SRC, "lucasdisc", "__init__.py")
sys.path.insert(0, SRC)


def _pin(module) -> None:
    if os.path.realpath(module.__file__) != os.path.realpath(EXPECTED_INIT):
        sys.stderr.write("lucasdisc imported from %s, not %s\n" % (module.__file__, EXPECTED_INIT))
        sys.exit(3)


def _clocks() -> tuple[float, float]:
    """(wall, CPU) seconds now.

    The CPU clock is this thread's CPU time plus that of reaped child
    processes.  It leaves out time the work was not running: spells in
    which the hypervisor ran another tenant on this vCPU, and waits for
    a CPU while other threads ran (numpy's BLAS pool spins for a while
    after numpy starts it).  Both depend on what else the host runs.
    """
    children = os.times()
    return time.perf_counter(), time.thread_time() + children.children_user + children.children_system


def setup() -> int:
    ticker = calib.Ticker()
    ticker.start()
    t0 = _clocks()
    import numpy

    t1 = _clocks()
    import mpmath

    t2 = _clocks()
    import lucasdisc
    import lucasdisc.cli  # noqa: F401

    t3 = _clocks()
    samples = ticker.stop()
    _pin(lucasdisc)

    def net(a: tuple, b: tuple) -> float:
        """CPU seconds between two points, less the ticks' own."""
        return b[1] - a[1] - calib.cost([s for s in samples if a[0] <= s.at < b[0]])

    print(json.dumps({
        "numpy_s": net(t0, t1),
        "mpmath_s": net(t1, t2),
        "lucasdisc_s": net(t2, t3),
        "total_s": net(t0, t3),
        "scale": calib.speed(samples),
        "file": lucasdisc.__file__,
        "versions": {
            "lucasdisc": lucasdisc.__version__,
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "python": sys.version.split()[0],
        },
    }))
    return 0


def cli(timing_path: str, trace_dir: str, argv: list[str]) -> int:
    import lucasdisc
    import lucasdisc.cli

    _pin(lucasdisc)
    tracer = None
    if trace_dir != "-":
        import tracing

        tracer = tracing.Tracer(trace_dir)
        tracing.install(tracer)
    ticker = calib.Ticker(os.path.dirname(timing_path))
    ticker.start()
    start = _clocks()
    try:
        code = lucasdisc.cli.run(argv)
        sys.stdout.flush()
    finally:
        end = _clocks()
        own = ticker.stop()
        if tracer is not None:
            tracer.flush()
    workers = calib.read_child_samples(os.path.dirname(timing_path)).values()
    own_tick_s = calib.cost([s for s in own if start[0] <= s.at < end[0]])
    # Pool workers tick in parallel; the slowest one's handler time delays the search.
    worker_tick_s = max((calib.cost(w) for w in workers), default=0.0)
    with open(timing_path, "w") as handle:
        json.dump({
            "run_s": end[0] - start[0] - own_tick_s - worker_tick_s,
            "run_cpu_s": end[1] - start[1] - own_tick_s - sum(calib.cost(w) for w in workers),
            "scale": calib.speed(own + [s for w in workers for s in w]),
            "tick_cpu_s": calib.cost(own) + sum(calib.cost(w) for w in workers),
        }, handle)
    return code


def _hex(x: int) -> str:
    return "%x" % x


def _runners() -> dict:
    """One callable per op kind; each looks its function up at call time so traced wrappers apply."""
    import lucasdisc.bounds as bounds
    import lucasdisc.lemmas as lemmas
    import lucasdisc.roots as roots
    import lucasdisc.sequences as sequences
    import lucasdisc.twoadic as twoadic

    def root(k, bits):
        enc = roots.dominant_root(k, bits)
        return [_hex(v) for v in (enc.lo.numerator, enc.lo.denominator,
                                  enc.hi.numerator, enc.hi.denominator, enc.precision_bits)]

    def profile(k):
        p = bounds.bound_profile(k)
        return {f: getattr(p, f) for f in ("n_lo", "n_hi", "m_lo", "m_hi", "a_max", "k_matveev_max", "k_bl_max")}

    def suite(name, scale):
        return [[f.detail, f.params] for f in lemmas.run_suite(name, scale)]

    return {
        "binet_error_check": lambda k, n: roots.binet_error_check(k, n),
        "binet_vs_power2_check": lambda k, n: roots.binet_vs_power2_check(k, n),
        "growth_bounds_check": lambda k, n: roots.growth_bounds_check(k, n),
        "suite": suite,
        "term": lambda k, n: _hex(sequences.term(sequences.SeqParams(k, sequences.LUCAS), n)),
        "discriminant": lambda k: _hex(bounds.discriminant(k)),
        "dominant_root": root,
        "bound_profile": profile,
        "n_window": lambda k: list(bounds.n_window(k)),
        "nu2": lambda x: twoadic.nu2(x),
    }


def run_ops(plan_path: str, result_path: str, trace_dir: str | None) -> int:
    import lucasdisc
    import lucasdisc.cli  # noqa: F401  (same module set as a CLI call)
    from lucasdisc.roots import PrecisionError

    _pin(lucasdisc)
    with open(plan_path) as handle:
        plan = json.load(handle)
    tracer = None
    if trace_dir is not None:
        import tracing

        tracer = tracing.Tracer(trace_dir)
        originals = tracing.install(tracer)
    dominant_root = lucasdisc.roots.dominant_root if tracer is None else originals["roots.dominant_root"]

    runners = _runners()
    results, windows = [], []
    ticker = calib.Ticker()
    ticker.start()
    for op in plan:
        kind, args = op[0], op[1:]
        if kind == "nu2":
            args = [int(args[0], 16) << args[1]]
        fn = runners[kind]
        if tracer is not None:
            fn = tracer.wrap("op." + kind, fn)
        error = answer = None
        start = _clocks()
        try:
            answer = fn(*args)
        except PrecisionError as exc:
            error = "PrecisionError: %s" % exc
        except Exception as exc:  # reported as a failed op, never fatal
            error = "%s: %s" % (type(exc).__name__, exc)
        end = _clocks()
        windows.append((start[0], end[0]))
        results.append([[end[0] - start[0], end[1] - start[1]], answer, error])
    samples = ticker.stop()
    for result, (scale, tick_s) in zip(results, calib.op_factors(samples, windows)):
        wall_s, cpu_s = result[0]
        result[0] = [wall_s - tick_s, cpu_s - tick_s, scale]

    info = dominant_root.cache_info()
    with open(result_path, "w") as handle:
        json.dump({"ops": results, "tick_cpu_s": calib.cost(samples),
                   "dominant_root_cache": [info.hits, info.misses]}, handle)
    if tracer is not None:
        tracer.flush()
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup()
    if mode == "cli":
        return cli(argv[1], argv[2], argv[3:])
    if mode == "ops":
        return run_ops(argv[1], argv[2], argv[3] if len(argv) > 3 else None)
    raise SystemExit("unknown mode %r" % (mode,))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
