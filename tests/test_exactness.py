"""Every scalar is exact: an ``int`` for an integral value and a ``Fraction``
otherwise, never a ``float``, a ``bool`` or a numpy integer.

The five value types freeze their entries in ``__post_init__``.  The
``built`` fixture records every value made while a test runs, so that the
catalogue, the whole registry (its constructions, searches, inversions and
compositions), document parsing and searches are checked wherever they
build a value.  A frozen entry is never a ``Fraction`` with denominator 1.
A witness holds the two sides as computed, so a sum of halves may stay a
``Fraction`` there, but it is always exact.
"""

from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomcheck import theorems
from bihomcheck.discovery import (
    AybeTarget,
    RBTarget,
    SearchSpec,
    catalogue,
    catalogue_entry,
    search,
)
from bihomcheck.exactlin import (
    BilinearOp,
    Comultiplication,
    LinearMap,
    NotInvertibleError,
    Tensor2,
    Tensor3,
    compose,
    compose_delta,
    invert,
    map_tensor2,
)
from bihomcheck.serialize import catalogue_document, parse, serialize
from bihomcheck.structures import (
    BiHomAlgebra,
    BraceRB,
    check_bihom_associative,
    check_rota_baxter,
)

F = Fraction
VALUE_TYPES = {LinearMap: "entries", BilinearOp: "cube", Tensor2: "coeffs",
               Tensor3: "coeffs", Comultiplication: "cube"}


def leaves(x):
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from leaves(y)
    else:
        yield x


def frozen_ok(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_frozen(values):
    """Every entry of each value, and of each bundle's unit, is frozen."""
    for v in values:
        if isinstance(v, BiHomAlgebra):
            held = v.unit or ()
        else:
            held = getattr(v, VALUE_TYPES[type(v)])
        bad = [x for x in leaves(held) if not frozen_ok(x)]
        assert not bad, (type(v).__name__, bad[:3])


def assert_exact_witness(verdict):
    if verdict.witness is not None:
        sides = verdict.witness.lhs + verdict.witness.rhs
        assert all(type(x) in (int, Fraction) for x in sides), sides


def values_in(x):
    """The value types and algebras held by ``x``: itself, or the fields of a
    bundle or kind, or the items of a tuple, list or dict."""
    if type(x) in VALUE_TYPES or isinstance(x, BiHomAlgebra):
        yield x
    if type(x) not in VALUE_TYPES and is_dataclass(x):
        for f in fields(x):
            yield from values_in(getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from values_in(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from values_in(y)


@pytest.fixture
def built(monkeypatch):
    """Every value-type instance built while the test runs."""
    out = []
    for cls in VALUE_TYPES:
        def post_init(self, original=cls.__post_init__):
            original(self)
            out.append(self)
        monkeypatch.setattr(cls, "__post_init__", post_init)
    return out


def test_catalogue_and_registry_are_exact(built):
    assert_frozen(values_in([e.structure for e in catalogue()]))
    for tid in theorems.THEOREM_IDS:
        for kwargs, _ in theorems.catalogue_instances(tid):
            assert_frozen(values_in(kwargs))
            for _, verdict in theorems.verify_theorem(tid, **kwargs).sub_verdicts:
                assert_exact_witness(verdict)
    assert len(built) > 10_000
    assert_frozen(built)


def test_searches_are_exact(built, dx2, n2, id2):
    halves = (F(-1, 2), 0, F(1, 2))
    for spec, ambient, backend in (
            (SearchSpec(AybeTarget(), coefficients=halves), dx2, None),
            (SearchSpec(AybeTarget()), dx2, "numpy"),
            (SearchSpec(RBTarget(BraceRB(id2, id2)), coefficients=halves),
             n2, "exact")):
        results = search(spec, ambient, backend)
        assert results
        assert_frozen(values_in(results))
    assert_frozen(built)


def test_parsed_documents_are_exact(built):
    for entry in catalogue():
        doc = parse(serialize(catalogue_document(entry)))
        assert_frozen(values_in(doc.payload))
    half = parse('{"schema_version": "1", "kind": "tensor2", "payload": '
                 '{"dim": 2, "coeffs": [["1/2", "2"], ["0", "-3"]]}}')
    assert [type(x) for x in leaves(half.payload["tensor"].coeffs)] == \
        [Fraction, int, int, int]
    assert_frozen(built)


def test_fixed_verdicts_are_exact():
    for verdict in (theorems._as_verdict(False, "law"),
                    theorems._equiv_verdict("law", check_bihom_associative(
                        catalogue_entry("na2").structure),
                        check_bihom_associative(catalogue_entry("n2").structure))):
        assert not verdict.passed
        assert_exact_witness(verdict)
        assert all(type(x) is int for x in verdict.witness.lhs + verdict.witness.rhs)


# Mixed inputs: ints, Fractions (integral or not), integral strings, bools
# and numpy integers, all of which must freeze to int or Fraction.
scalars = st.sampled_from((-1, 0, 1, 2, F(1, 2), F(-3, 2), F(4, 2), "2/1",
                           "-1/3", True, False, np.int64(3), np.int64(-1)))


def grids(d):
    return st.lists(st.lists(scalars, min_size=d, max_size=d),
                    min_size=d, max_size=d)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_operations_on_mixed_inputs_are_exact(data):
    d = data.draw(st.sampled_from((2, 3)))
    f, g = (LinearMap(data.draw(grids(d))) for _ in range(2))
    mu = BilinearOp([data.draw(grids(d)) for _ in range(d)])
    delta = Comultiplication([data.draw(grids(d)) for _ in range(d)])
    t = Tensor2(data.draw(grids(d)))
    values = [f, g, mu, delta, t, compose(f, g), map_tensor2(f, g, t),
              compose_delta(delta, f), Tensor3([data.draw(grids(d))] * d)]
    try:
        values.append(invert(f))
    except NotInvertibleError:
        pass
    assert_frozen(values)
    assert all(type(x) in (int, Fraction) for x in f.apply(t.coeffs[0]))
    assert_exact_witness(check_bihom_associative(BiHomAlgebra(mu, f, g)))
    ident = LinearMap.identity(d)
    assert_exact_witness(check_rota_baxter(g, mu, BraceRB(ident, ident)))
