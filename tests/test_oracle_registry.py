"""The whole T1-T12 registry under the dense oracle.

Eight checkers have a dense reference in ``dense_oracle``.  Each is swapped,
in every ``bihomcheck`` module that binds it, for a stand-in that converts
its arguments to lists and returns the reference's verdict.  The stand-in's
``.laws`` is a lazy stream holding the reference's failing comparison, if
any, so the aggregate laws that chain ``.laws`` reach the references too.
Every catalogue report must then equal the unswapped one, verdicts and
witnesses included, and every stand-in must have been asked.
"""

import collections
import contextlib
import importlib
import pkgutil
from unittest import mock

import bihomcheck
from bihomcheck import exactlin, structures
from bihomcheck.theorems import THEOREM_IDS, catalogue_instances, verify_theorem

from dense_oracle import (
    as_lists,
    first,
    ref_bihom_associative,
    ref_bihom_dendriform,
    ref_bilinear_equal,
    ref_commute,
    ref_hom_novikov,
    ref_hom_prelie,
    ref_kind_law,
    ref_multiplicative,
)

MODULES = [importlib.import_module(f"bihomcheck.{m.name}")
           for m in pkgutil.iter_modules(bihomcheck.__path__)]


def grid(f):
    return as_lists(f.entries)


def cube(m):
    return as_lists(m.cube)


REFERENCES = {
    "is_algebra_map": lambda f, m, law="multiplicative": first(
        lambda: ref_multiplicative(grid(f), cube(m), law, m.dim)),
    "bilinear_equal": lambda m1, m2: ref_bilinear_equal(cube(m1), cube(m2),
                                                        m1.dim),
    "_commutation_verdict": lambda f, g, law: first(
        lambda: ref_commute(grid(f), grid(g), law, f.dim_in)),
    "check_bihom_associative": lambda a: ref_bihom_associative(
        cube(a.mu), grid(a.alpha), grid(a.beta),
        None if a.unit is None else as_lists(a.unit), a.dim),
    "check_bihom_dendriform": lambda d: ref_bihom_dendriform(
        cube(d.prec), cube(d.succ), grid(d.alpha), grid(d.beta), d.dim),
    "check_hom_prelie": lambda p: ref_hom_prelie(cube(p.mu), grid(p.alpha),
                                                 p.dim),
    "check_hom_novikov": lambda p: ref_hom_novikov(cube(p.mu), grid(p.alpha),
                                                   p.dim),
    "kind_law": lambda X, m, kind: ref_kind_law(
        grid(X), cube(m), kind.form, *map(grid, kind.twists()),
        [(name, grid(f)) for name, f in kind.commutes()], m.dim),
}


def stand_in(name, calls):
    reference = REFERENCES[name]

    def check(*args, **kwargs):
        calls[name] += 1
        return reference(*args, **kwargs)

    def laws(*args, **kwargs):
        v = check(*args, **kwargs)
        if not v.passed:
            yield v.law, v.witness.indices, v.witness.lhs, v.witness.rhs

    check.laws = laws
    return check


def test_every_catalogue_report_matches_the_dense_oracle():
    instances = [(tid, kwargs) for tid in THEOREM_IDS
                 for kwargs, _ in catalogue_instances(tid)]
    expected = [verify_theorem(tid, **kwargs) for tid, kwargs in instances]
    calls = collections.Counter()
    with contextlib.ExitStack() as stack:
        for name in REFERENCES:
            original = getattr(structures, name, None) or getattr(exactlin, name)
            wrapper = stand_in(name, calls)
            for module in MODULES:
                if getattr(module, name, None) is original:
                    stack.enter_context(mock.patch.object(module, name, wrapper))
        got = [verify_theorem(tid, **kwargs) for tid, kwargs in instances]
    assert len(instances) == 1229
    assert sorted(calls) == sorted(REFERENCES)
    for (tid, kwargs), g, e in zip(instances, got, expected):
        assert g == e, (tid, kwargs["desc"])
