"""Per-layer metrics and self-tests of a traced run.

Counts are those of one set-up plus one pass; every traced pass of a run must
give the same counts.  Self times are the set-up's plus the mean of the
passes'.
"""

from __future__ import annotations

from spans import LAYERS

# Calls per T7 instance of the hypothesis checks that theorem pipelines
# repeat (each construction re-checks what the pipeline already checked).
T7_REPEATED = ("structures.check_bihom_associative",
               "structures.check_bihom_dendriform", "exactlin.is_algebra_map")
THEOREM_IDS = tuple(f"T{i}" for i in range(1, 13))


def counts_of(snap: dict) -> tuple:
    return snap["calls"], snap["counters"]


class GroupCounter:
    """Calls of ``T7_REPEATED`` made while ops of one theorem run."""

    def __init__(self, tracer, group: str):
        self.tracer = tracer
        self.prefix = group + "#"
        self.instances = 0
        self.totals = dict.fromkeys(T7_REPEATED, 0)
        self._start = None

    def before(self, op) -> None:
        calls = self.tracer.calls
        self._start = ({n: calls[n] for n in T7_REPEATED}
                       if op.name.startswith(self.prefix) else None)

    def after(self, op) -> None:
        if self._start is None:
            return
        calls = self.tracer.calls
        for n in T7_REPEATED:
            self.totals[n] += calls[n] - self._start[n]
        self.instances += 1


def metrics(setup: dict, passes: list[dict], t7: GroupCounter) -> dict:
    first = passes[0]

    def calls(name):
        return setup["calls"].get(name, 0) + first["calls"].get(name, 0)

    def self_s(name):
        return setup["self_s"].get(name, 0.0) + sum(
            p["self_s"].get(name, 0.0) for p in passes) / len(passes)

    def counter(name):
        return (setup["counters"].get(name, 0)
                + first["counters"].get(name, 0))

    out = {}
    for layer, names in LAYERS.items():
        total = 0.0
        for qualname in names:
            name = f"{layer}.{qualname}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
            total += out[f"{name}.self_s"]
        out[f"{layer}.self_s"] = total
    for tid in THEOREM_IDS:
        out[f"theorems.{tid}.self_s"] = self_s(f"theorems.verify_theorem.{tid}")
    for name in T7_REPEATED:
        short = name.split(".", 1)[1]
        out[f"theorems.T7.{short}.per_instance"] = (
            t7.totals[name] / t7.instances if t7.instances else 0.0)
    checks = sum(calls(f"structures.{n}") for n in LAYERS["structures"])
    out["structures.fail_ratio"] = (counter("structures.failed") / checks
                                    if checks else 0.0)
    searches = calls("discovery.search")
    fast = calls("kernels.fast_survivors")
    out["discovery.candidates"] = counter("discovery.candidates")
    out["discovery.results"] = counter("discovery.results")
    out["discovery.fast_calls"] = fast
    out["discovery.exact_calls"] = searches - fast
    out["discovery.certify_ratio"] = (
        out["discovery.results"] / out["discovery.candidates"]
        if out["discovery.candidates"] else 0.0)
    out["kernels.survivors"] = counter("kernels.survivors")
    out["serialize.bytes_in"] = counter("serialize.bytes_in")
    out["serialize.bytes_out"] = counter("serialize.bytes_out")
    return out


def _expected_checker_calls(op) -> int:
    """Structure-checker calls of one exact-path search, known without
    tracing: the ambient's associativity check, the parameter check of a
    Rota-Baxter or derivation target (on the zero map), and one check per
    candidate."""
    import workloads as W
    from bihomcheck.discovery import DerivationTarget, RBTarget

    spec, ambient = op.data
    validation = isinstance(spec.target, (RBTarget, DerivationTarget))
    return 1 + validation + W.candidates(spec, ambient)


def self_test(run, setup: dict, first: dict, repeats: int) -> None:
    """Span counts that must equal counts known independently; each is one
    check of ``run``."""
    calls = first["calls"]
    n_ops = len(run.ops) * repeats

    def expect(name, got, want):
        run.check(got == want,
                  f"trace self-test: {name} is {got}, expected {want}")

    if run.workload == "registry":
        expect("theorems.verify_theorem calls",
               calls.get("theorems.verify_theorem", 0), n_ops)
        for tid in THEOREM_IDS:
            n = sum(op.name.startswith(tid + "#") for op in run.ops)
            expect(f"theorems.verify_theorem.{tid} calls",
                   calls.get(f"theorems.verify_theorem.{tid}", 0), n)
        run.check(setup["calls"].get("discovery.search", 0) > 0,
                  "trace self-test: theorems' searches untraced")
    elif run.workload == "grid-search":
        expect("kernels.fast_survivors calls",
               calls.get("kernels.fast_survivors", 0), n_ops)
        expect("kernels decoded candidates",
               first["counters"].get("kernels.decoded", 0),
               first["counters"].get("discovery.candidates", 0))
    elif run.workload == "exact-search":
        expect("kernels.fast_survivors calls",
               calls.get("kernels.fast_survivors", 0), 0)
        expect("structure checker calls",
               sum(calls.get(f"structures.{n}", 0)
                   for n in LAYERS["structures"]),
               sum(_expected_checker_calls(op) for op in run.ops) * repeats)
    else:
        expect("cli.main calls", calls.get("cli.main", 0), n_ops)
