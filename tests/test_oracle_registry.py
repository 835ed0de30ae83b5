"""The whole T1-T12 registry under the dense oracle.

Eight checkers have a dense reference in ``dense_oracle``.  Each is swapped,
in every ``bihomcheck`` module that binds it, for a stand-in that converts
its arguments to lists and returns the reference's verdict.  The stand-in's
``.laws`` is a lazy stream holding the reference's failing comparison, if
any, so the aggregate laws that chain ``.laws`` reach the references too.
Every catalogue report must then equal the unswapped one, verdicts and
witnesses included, and every stand-in must have been asked.

Every catalogue instance passes, so a checker that wrongly passes would go
unseen there.  ``NEAR_MISSES`` adds instances that each fail exactly one
hypothesis, decided by one of the swapped checkers.
"""

import collections
import contextlib
import importlib
import pkgutil
from unittest import mock

import pytest

import bihomcheck
from bihomcheck import exactlin, structures
from bihomcheck.discovery import catalogue_entry
from bihomcheck.exactlin import BilinearOp, LinearMap, Tensor2
from bihomcheck.structures import BiHomAlgebra, BiHomDendriform, HomAlgebra
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


@contextlib.contextmanager
def dense_oracle():
    """Every checker of ``REFERENCES`` swapped for its stand-in; yields the
    counter of stand-in calls."""
    calls = collections.Counter()
    with contextlib.ExitStack() as stack:
        for name in REFERENCES:
            original = getattr(structures, name, None) or getattr(exactlin, name)
            wrapper = stand_in(name, calls)
            for module in MODULES:
                if getattr(module, name, None) is original:
                    stack.enter_context(mock.patch.object(module, name, wrapper))
        yield calls


def test_every_catalogue_report_matches_the_dense_oracle():
    instances = [(tid, kwargs) for tid in THEOREM_IDS
                 for kwargs, _ in catalogue_instances(tid)]
    expected = [verify_theorem(tid, **kwargs) for tid, kwargs in instances]
    with dense_oracle() as calls:
        got = [verify_theorem(tid, **kwargs) for tid, kwargs in instances]
    assert len(instances) == 1229
    assert sorted(calls) == sorted(REFERENCES)
    for (tid, kwargs), g, e in zip(instances, got, expected):
        assert g == e, (tid, kwargs["desc"])


def near_misses():
    """(theorem, instance, the one hypothesis it fails, the swapped checker
    that decides it) rows.  Each instance is a catalogue-style one with one
    input changed."""
    n2, na2, m2 = (catalogue_entry(k).structure.mu for k in ("n2", "na2", "m2"))
    sgn, conj_d = (catalogue_entry(k).structure for k in ("sgn", "conj_d"))
    id2 = LinearMap.identity(2)
    # conjugation by P = [[1, 1], [0, 1]] on the matrix units e11, e12, e21,
    # e22: an automorphism of m2 that does not commute with conj_d
    p, p_inv = (1, 1, 0, 1), (1, -1, 0, 1)
    conj_p = LinearMap.from_columns([
        m2.apply(m2.apply(p, e), p_inv)
        for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))])
    # a weight-zero Rota-Baxter operator of n2 (u -> v, v -> 0) that does
    # not commute with sgn
    shift = LinearMap(((0, 0), (1, 0)))
    return [
        ("T1", {"m": m2, "alpha": conj_d, "beta": conj_p},
         "alpha-beta-commute", "_commutation_verdict"),
        ("T2", {"d": BiHomDendriform(na2, BilinearOp.zero(2), id2, id2)},
         "dendriform", "check_bihom_dendriform"),
        ("T4", {"m": n2, "sigma": LinearMap.diagonal((2, 1)), "tau": id2,
                "D": id2},
         "sigma-algebra-map", "is_algebra_map"),
        ("T5", {"m": n2, "sigma": sgn, "tau": id2,
                "R": LinearMap(((1, 1), (0, 1)))},
         "R-commutes-sigma", "_commutation_verdict"),
        ("T6", {"m": n2, "sigma": sgn, "R": shift},
         "R-commutes-sigma", "_commutation_verdict"),
        ("T7", {"a": BiHomAlgebra(n2, id2, id2), "sigma": id2, "tau": id2,
                "eta": None, "R": id2},
         "brace-rota-baxter", "kind_law"),
        ("T12", {"h": HomAlgebra(na2, id2), "r": Tensor2.zero(2)},
         "hom-associative", "check_bihom_associative"),
    ]


NEAR_MISSES = near_misses()


@pytest.mark.parametrize("tid, instance, hypothesis, checker", NEAR_MISSES,
                         ids=[f"{row[0]}-{row[2]}" for row in NEAR_MISSES])
def test_near_miss_fails_one_hypothesis_under_both_checkers(
        tid, instance, hypothesis, checker):
    report = verify_theorem(tid, **instance)
    failed = [name for name, v in report.sub_verdicts if not v.passed]
    assert failed == [f"hypothesis:{hypothesis}"]
    with dense_oracle() as calls:
        assert verify_theorem(tid, **instance) == report
    assert calls[checker]
