"""Span tracing of bihomcheck's layers from outside the package.

A :class:`Tracer` wraps a fixed list of public functions (``LAYERS``) and
rebinds each wrapper in every ``bihomcheck`` module namespace that binds the
original object, so calls made through ``from ... import`` names are traced
too (``discovery`` binds ``check_aybe``, ``theorems`` binds ``search``, ...).
Methods are rebound on their class.

Each span records its call count and its self time: the span's duration minus
the time covered by spans it caused.  Counters that need a call's arguments or
result (bytes parsed and emitted, failed verdicts, decoded candidates,
survivors, search candidates and results) are recorded at the same boundary.
Everything stays in memory; :meth:`Tracer.snapshot` returns the totals.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from workloads import candidates

# (module, qualified name) of every traced function, grouped by layer.
LAYERS = {
    "exactlin": ("compose", "power", "invert", "map_tensor2",
                 "is_algebra_map", "maps_commute", "LinearMap.apply",
                 "BilinearOp.apply"),
    "structures": ("check_bihom_associative", "check_hom_coassociative",
                   "check_inf_hom_bialgebra", "check_bihom_dendriform",
                   "check_hom_prelie", "check_hom_novikov", "check_hom_lie",
                   "check_derivation", "check_rota_baxter", "check_aybe"),
    "constructions": ("yau_twist_assoc", "yau_twist_dendriform",
                      "yau_twist_prelie", "dendriform_sum", "dendriform_circ",
                      "dendriform_from_paren_rb", "simprop_dendriform",
                      "moregendend_triple", "analoglie_prelie", "aybe_residue",
                      "abrb_operator", "delta_r", "gengd_novikov",
                      "mu_delta_map", "infprelie_bullet", "aguiar_bullet"),
    "theorems": ("verify_theorem",),
    "discovery": ("search",),
    "kernels": ("fast_survivors", "decode_chunk", "scatter", "numpy_mask",
                "magnitude_bound"),
    "serialize": ("parse", "serialize", "load_path", "dump_path"),
    "cli": ("main",),
}


def _resolve(owner, qualname):
    obj = owner
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack = []
        self._plan = []  # (namespace, attribute, original, span)
        self._installed = False

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, key_of=None, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += own
                if key_of is not None:
                    sub = f"{name}.{key_of(args)}"
                    calls[sub] += 1
                    self_s[sub] += own
            if after is not None:
                after(args, kwargs, result)
            return result

        return span

    def _after_hooks(self):
        c = self.counters

        def verdict(args, kwargs, result):
            c["structures.failed"] += not result.passed

        def parsed(args, kwargs, result):
            c["serialize.bytes_in"] += len(args[0])

        def emitted(args, kwargs, result):
            c["serialize.bytes_out"] += len(result)

        def decoded(args, kwargs, result):
            c["kernels.decoded"] += len(result)

        def survived(args, kwargs, result):
            c["kernels.survivors"] += len(result)

        def searched(args, kwargs, result):
            c["discovery.candidates"] += candidates(args[0], args[1])
            c["discovery.results"] += len(result)

        hooks = {f"structures.{n}": verdict for n in LAYERS["structures"]}
        hooks.update({"serialize.parse": parsed,
                      "serialize.serialize": emitted,
                      "kernels.decode_chunk": decoded,
                      "kernels.fast_survivors": survived,
                      "discovery.search": searched})
        return hooks

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every function in ``LAYERS`` wherever the package binds it.
        The bindings are found on the first call; later calls re-apply them,
        so pausing around untraced work is cheap."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._plan:
            self._plan = self._find_bindings()
        for namespace, attr, _orig, span in self._plan:
            setattr(namespace, attr, span)
        self._installed = True

    def _find_bindings(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bihomcheck"
                                         or n.startswith("bihomcheck."))]
        hooks = self._after_hooks()
        plan = []
        for layer, names in LAYERS.items():
            home = sys.modules[f"bihomcheck.{layer}"]
            for qualname in names:
                name = f"{layer}.{qualname}"
                owner, orig = _resolve(home, qualname)
                key_of = (lambda args: args[0]) \
                    if name == "theorems.verify_theorem" else None
                span = self._span(name, orig, key_of, hooks.get(name))
                if owner is not home:  # a method: rebind on its class
                    plan.append((owner, qualname.rsplit(".", 1)[-1], orig,
                                 span))
                    continue
                for module in modules:
                    for binding, value in vars(module).items():
                        if value is orig:
                            plan.append((module, binding, orig, span))
        return plan

    def uninstall(self):
        for namespace, attr, orig, _span in reversed(self._plan):
            setattr(namespace, attr, orig)
        self._installed = False

    @property
    def installed(self) -> bool:
        return self._installed

    def bindings(self) -> int:
        """Number of namespace bindings a span replaces."""
        return len(self._plan)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain copies of all counts and self times."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()
