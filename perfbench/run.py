#!/usr/bin/env python3
"""Benchmark of bihomcheck's exact verdicts, end to end and per layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload registry --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table
    python3 perfbench/run.py --selftest              # counts repeat, checks bite

One process, one thread, closed loop: each op starts when the previous one
has returned.  The seed orders the ops.  Every op's output is compared with
``expected/<workload>.json``; a mismatch, an exception or a wrong exit code
counts as failed, and the run then exits with code 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")
SETUP_SAMPLES = 3      # set-ups per run (this process plus two children)
COLD_STARTS = 9        # timed ``python -m bihomcheck.cli catalogue list`` runs
COLD_START_ARGV = ("catalogue", "list")
THREADS_SET_BY_CALLER: list[str] = []
# Each pool member appears this many times in one pass, so that a pass takes
# a few seconds and a run of ten seconds is two whole passes.
REPEATS = {"registry": 1, "grid-search": 3, "exact-search": 2, "cli-docs": 6}
# Latency percentiles are taken over the first passes only: a fixed sample
# count keeps the tail percentile from moving with the machine's speed.
LATENCY_PASSES = 2


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _environment() -> dict:
    import importlib.util
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_set_by_caller": THREADS_SET_BY_CALLER,
    }


# ---------------------------------------------------------------------------
# Expected outputs
# ---------------------------------------------------------------------------

def digest(output: dict) -> dict:
    """What is stored per op: the sha256 of the whole output plus the sizes
    and codes a reader wants to see."""
    blob = json.dumps(output, sort_keys=True).encode()
    rec = {"sha256": hashlib.sha256(blob).hexdigest(),
           "stdout_bytes": len(output["stdout"].encode())}
    for key in ("exit", "results"):
        if key in output:
            rec[key] = output[key]
    return rec


def load_expected(directory: str, workload: str) -> dict:
    path = os.path.join(directory, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Run:
    """State of one benchmark run: the op pool, checks and counts."""

    def __init__(self, workload: str, seed: int, expected: dict):
        import workloads as W

        self.W = W
        self.workload = workload
        self.search = workload in ("grid-search", "exact-search")
        self.rng = random.Random(seed)
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ops = []
        self.fast_calls = 0
        self.tracer = None

    def problem(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An untimed check that counts as one attempted op."""
        self.attempted += 1
        if not ok:
            self.problem(message)

    def pin_fast_path(self):
        """Count ``kernels.fast_survivors`` calls (one per fast-path search);
        ``discovery`` reaches it through the module attribute."""
        from bihomcheck import kernels

        orig = kernels.fast_survivors

        def counted(*args, **kwargs):
            self.fast_calls += 1
            return orig(*args, **kwargs)

        kernels.fast_survivors = counted

    def order(self) -> list:
        ops = [op for op in self.ops for _ in range(REPEATS[self.workload])]
        self.rng.shuffle(ops)
        return ops

    def run_op(self, op, on_done=None) -> float:
        """Run, time and check one op; returns its latency in seconds."""
        self.attempted += 1
        fast_before = self.fast_calls
        t0 = time.perf_counter()
        try:
            result = self.W.run_op(self.workload, op)
        except Exception as exc:  # an op that raises counts as failed
            elapsed = time.perf_counter() - t0
            self.problem(f"{op.name}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        if on_done is not None:
            on_done(op)
        paused = self.tracer is not None and self.tracer.installed
        if paused:  # checks call the package too; keep them out of spans
            self.tracer.uninstall()
        try:
            self._check_op(op, result, self.fast_calls - fast_before)
        finally:
            if paused:
                self.tracer.install()
        return elapsed

    def _check_op(self, op, result, fast: int) -> None:
        if self.workload == "grid-search" and fast != 1:
            self.problem(f"{op.name}: left the fast path")
        if self.workload == "exact-search" and fast != 0:
            self.problem(f"{op.name}: took the fast path")
        got = digest(self.W.output_of(self.workload, op, result))
        want = self.expected["ops"].get(op.name)
        if got != want:
            self.problem(f"{op.name}: output {got} != expected {want}")

    def passes(self, seconds: float, between=None):
        """Whole passes, at least ``LATENCY_PASSES``, until the ops have run
        for ``seconds``; returns the op latencies and the number of passes.
        ``between(i)`` runs untimed after the i-th op."""
        latencies: list[float] = []
        n_passes = 0
        while n_passes < LATENCY_PASSES or sum(latencies) < seconds:
            for op in self.order():
                latencies.append(self.run_op(op))
                if between is not None:
                    between(len(latencies))
            n_passes += 1
        return latencies, n_passes

    def work(self, op) -> int:
        """Ops counted by ``ops_per_s``: candidates for a search op."""
        return self.W.candidates(*op.data) if self.search else 1

    def backend_agreement(self) -> None:
        """Untimed: numpy results equal exact-path results on a scaled-down
        copy of every grid-search spec."""
        from bihomcheck import discovery

        for op in self.ops:
            spec, ambient = op.data
            small = self.W.scaled_copy(spec, ambient)
            before = self.fast_calls
            fast = discovery.search(small, ambient, backend="numpy")
            exact = discovery.search(small, ambient, backend="exact")
            self.check(self.fast_calls == before + 1 and fast == exact,
                       f"{op.name}: numpy and exact backends disagree")


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"only {n} op latencies; the tail needs 11")
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup_probe(workload: str) -> None:
    """Child process: import plus input generation, timed once."""
    t0 = time.perf_counter()
    import bihomcheck.cli  # noqa: F401  (the whole package)
    import workloads as W

    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    W.setup(workload, workdir)
    elapsed = time.perf_counter() - t0
    W.teardown(workload, workdir)
    print(json.dumps({"setup_s": elapsed}))


def child_setups(workload: str, n: int) -> list[float]:
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
             "--workload", workload],
            env=_child_env(), capture_output=True, text=True, timeout=120,
            check=False)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


class ColdStarts:
    """Wall time of fresh ``python -m bihomcheck.cli`` processes, one at a
    time.  They are spread evenly over the first passes, so that their
    median samples the machine over the whole run, not over a few seconds;
    the first start is a warm-up."""

    def __init__(self, run: Run, n_ops: int):
        self.run = run
        self.at = {(k + 1) * n_ops // (COLD_STARTS + 1)
                   for k in range(COLD_STARTS + 1)}
        self.times: list[float] = []
        self.warm = False

    def __call__(self, i: int) -> None:
        if i not in self.at:
            return
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bihomcheck.cli", *COLD_START_ARGV],
            env=_child_env(), capture_output=True, text=True, timeout=120,
            check=False)
        elapsed = time.perf_counter() - t0
        self.run.check(
            proc.returncode == 0
            and proc.stdout == self.run.expected["cold_start_stdout"],
            f"cold start: exit {proc.returncode}, {proc.stderr[-500:]}")
        if self.warm:
            self.times.append(elapsed)
        self.warm = True


def measure(workload: str, seed: int, seconds: float, expected_dir: str
            ) -> tuple[Run, dict, dict]:
    """End-to-end metrics with tracing off."""
    t0 = time.perf_counter()
    import bihomcheck.cli  # noqa: F401
    import workloads as W

    run = Run(workload, seed, load_expected(expected_dir, workload))
    run.ops = W.setup(workload)
    setups = [time.perf_counter() - t0]
    setups += child_setups(workload, SETUP_SAMPLES - 1)
    pool_check(run)
    run.pin_fast_path()
    cold = ColdStarts(run, LATENCY_PASSES * REPEATS[workload] * len(run.ops))
    latencies, n_passes = run.passes(seconds, between=cold)
    work = sum(run.work(op) for op in run.ops) * REPEATS[workload] * n_passes
    if workload == "grid-search":
        run.backend_agreement()
    W.teardown(workload)
    window = latencies[:LATENCY_PASSES * len(latencies) // n_passes]
    pct, tail_s = tail(window)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": work / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(window),
        "op_tail_ms": 1e3 * tail_s,
        "cold_start_ms": 1e3 * statistics.median(cold.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    info = {"passes": n_passes, "requests": len(latencies),
            "latency_samples": len(window), "op_tail_percentile": pct,
            "setup_samples": setups, "cold_start_samples": cold.times}
    return run, values, info


def pool_check(run: Run) -> None:
    """The pool must be the one the expected outputs were stored for."""
    names = sorted(op.name for op in run.ops)
    want = sorted(run.expected["ops"])
    if names != want:
        raise BenchError(f"{run.workload}: op pool differs from the stored "
                         f"expected outputs ({len(names)} vs {len(want)} ops)")


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float, expected_dir: str
           ) -> tuple[Run, dict, dict]:
    """Per-layer metrics: set-up once and one pass, traced.  Each traced pass
    follows an untraced pass over the same ops; their time ratio is the
    tracing overhead."""
    import layers
    from spans import Tracer

    t0 = time.perf_counter()
    import bihomcheck.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads as W

    run = Run(workload, seed, load_expected(expected_dir, workload))
    run.pin_fast_path()  # first, so that the spans wrap the counter
    tracer = run.tracer = Tracer()
    tracer.install()
    run.ops = W.setup(workload)
    setup_counts = tracer.snapshot()
    tracer.uninstall()
    pool_check(run)

    pass_counts = []
    t7 = layers.GroupCounter(tracer, "T7")
    plain_s = traced_s = 0.0
    while not pass_counts or plain_s + traced_s < seconds:
        order = run.order()
        t = time.perf_counter()
        for op in order:
            run.run_op(op)
        plain_s += time.perf_counter() - t
        tracer.reset()
        tracer.install()
        t = time.perf_counter()
        for op in order:
            t7.before(op)
            run.run_op(op, on_done=t7.after)
        traced_s += time.perf_counter() - t
        tracer.uninstall()
        pass_counts.append(tracer.snapshot())
    W.teardown(workload)

    for i, counts in enumerate(pass_counts[1:], 2):
        run.check(layers.counts_of(counts) == layers.counts_of(pass_counts[0]),
                  f"traced pass {i} counts differ from pass 1")
    layers.self_test(run, setup_counts, pass_counts[0], REPEATS[workload])
    values = layers.metrics(setup_counts, pass_counts, t7)
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = traced_s / plain_s
    info = {"traced_passes": len(pass_counts), "untraced_s": plain_s,
            "traced_s": traced_s, "bindings": tracer.bindings()}
    return run, values, info


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def emit(run: Run, values: dict, info: dict, declared: list[dict]) -> int:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = run.failed == 0
    info = dict(info, environment=_environment(), problems=run.problems)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def record(workload: str, expected_dir: str) -> None:
    """Store the outputs of every pool member (run once per workload)."""
    import bihomcheck.cli  # noqa: F401
    import workloads as W

    ops = W.setup(workload)
    out = {"ops": {}}
    for op in ops:
        out["ops"][op.name] = digest(
            W.output_of(workload, op, W.run_op(workload, op)))
    W.teardown(workload)
    proc = subprocess.run([sys.executable, "-m", "bihomcheck.cli",
                           *COLD_START_ARGV], env=_child_env(),
                          capture_output=True, text=True, check=True)
    out["cold_start_stdout"] = proc.stdout
    os.makedirs(expected_dir, exist_ok=True)
    with open(os.path.join(expected_dir, f"{workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args, workload_names) -> int:
    """Every workload in its own process; a table, then one JSON line."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for w in workload_names:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(args.trace), "--expected", args.expected],
                      capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            print(proc.stderr, file=sys.stderr)
            raise BenchError(f"{w}: no result (exit {proc.returncode})")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
            rows.append((w, name, m["value"], m["unit"]))
    for w, name, value, unit in rows:
        print(f"{w:<13} {name:<44} {value:>14.6g} {unit}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=os.path.join(HERE, "expected"),
                        help="directory of stored outputs")
    parser.add_argument("--record", action="store_true",
                        help="store the current outputs as expected")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if os.environ.get("BIHOMCHECK_KERNEL"):
        _fail("BIHOMCHECK_KERNEL is set; the benchmark pins the default "
              "backend choice, unset it")
    if not os.path.isfile(os.path.join(SRC, "bihomcheck", "__init__.py")):
        _fail(f"no package source at {SRC}; run from a checkout's root")
    global THREADS_SET_BY_CALLER
    THREADS_SET_BY_CALLER = sorted(v for v in THREAD_VARS if v in os.environ)
    for var in THREAD_VARS:  # one thread, also inside numpy
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)

    import workloads as W
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in W.WORKLOADS for w in names):
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(W.WORKLOADS)} or all")
    try:
        if args.selftest:
            import selftest
            return selftest.main(HERE)
        if args.setup_probe:
            setup_probe(args.workload)
            return 0
        if args.record:
            for w in names:
                record(w, args.expected)
            return 0
        if args.workload == "all":
            return run_all(args, names)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        if args.trace:
            run, values, info = traced(args.workload, args.seed, args.seconds,
                                       args.expected)
            declared = bench["per_layer"]
        else:
            run, values, info = measure(args.workload, args.seed, args.seconds,
                                        args.expected)
            declared = bench["end_to_end"]
        return emit(run, values, info, declared)
    except (BenchError, OSError) as exc:
        _fail(str(exc))
    finally:
        try:  # only if empty: another run may be using it
            os.rmdir(WORK)
        except OSError:
            pass
    return 2


if __name__ == "__main__":
    sys.exit(main())
