"""Exhaustive certified search over bounded coefficient grids, plus the
built-in example catalogue.

``search`` enumerates every assignment of coefficients from a finite set to
the free slots of a candidate object (a tensor, an operator matrix, or a
pair of maps), filters by the target's law and re-certifies every survivor
with the exact rational checkers.  Enumeration order is lexicographic over
the grid, so results are deterministic; the integer fast path in
:mod:`bihomcheck.kernels` only prefilters and can never change the answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .constructions import (
    InternalInconsistencyError,
    PreconditionError,
    _construction,
    _post_product,
    yau_twist_assoc,
)
from .exactlin import (
    BilinearOp,
    Comultiplication,
    LinearMap,
    Tensor2,
    compose_delta,
    frac,
    is_algebra_map,
    is_coalgebra_map,
    maps_commute,
)
from .structures import (
    BiHomAlgebra,
    DerivationKind,
    HomAlgebra,
    HomLie,
    InfHomBialgebra,
    RBKind,
    _relabel,
    check_aybe,
    check_bihom_associative,
    check_derivation,
    check_hom_lie,
    check_inf_hom_bialgebra,
    check_rota_baxter,
)


class SearchSpaceTooLargeError(ValueError):
    """Candidate count exceeds the configured budget."""


DEFAULT_COEFFS = (Fraction(-1), Fraction(0), Fraction(1))
DEFAULT_BUDGET = 10 ** 8
MAX_DIM = 4


# ---------------------------------------------------------------------------
# Targets and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AybeTarget:
    """Solutions r of the twisted associative Yang-Baxter equation."""


@dataclass(frozen=True)
class RBTarget:
    """Rota-Baxter operators of the given kind.  ``commute_with`` adds
    commutation constraints beyond the kind's own (needed when feeding the
    splitting theorem, whose hypotheses require R to commute with all of
    the twisting maps)."""
    kind: RBKind
    commute_with: tuple[LinearMap, ...] = ()


@dataclass(frozen=True)
class DerivationTarget:
    kind: DerivationKind
    commute_with = ()           # no constraint beyond the kind's own


@dataclass(frozen=True)
class AlgebraMapPairTarget:
    """Commuting pairs of multiplicative endomorphisms."""


SearchTarget = AybeTarget | RBTarget | DerivationTarget | AlgebraMapPairTarget


@dataclass(frozen=True)
class SearchSpec:
    target: SearchTarget
    coefficients: tuple[Fraction, ...] = DEFAULT_COEFFS
    dim_cap: int = MAX_DIM
    support: tuple[tuple[int, int], ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("coefficient set must be nonempty")
        object.__setattr__(self, "coefficients",
                           tuple(frac(c) for c in self.coefficients))
        if self.dim_cap < 1 or self.dim_cap > MAX_DIM:
            raise ValueError(f"dimension cap must be in 1..{MAX_DIM}")
        if self.support is not None:
            object.__setattr__(self, "support",
                               tuple(sorted((int(i), int(j))
                                            for i, j in self.support)))


def _as_int_array(values, shape) -> np.ndarray | None:
    flat = []
    for v in values:
        f = frac(v)
        if f.denominator != 1:
            return None
        flat.append(int(f))
    return np.array(flat, dtype=np.int64).reshape(shape)


def _map_to_int(m: LinearMap) -> np.ndarray | None:
    return _as_int_array([x for row in m.entries for x in row],
                         (m.dim_out, m.dim_in))


def _cube_to_int(b: BilinearOp) -> np.ndarray | None:
    d = b.dim
    return _as_int_array([x for p in b.cube for r in p for x in r], (d, d, d))


def _slots(dim: int, support) -> list[tuple[int, int]]:
    if support is None:
        return [(i, j) for i in range(dim) for j in range(dim)]
    for i, j in support:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"support entry {(i, j)} outside dimension {dim}")
    return list(support)


def _ambient_product(target: SearchTarget, ambient) -> BilinearOp:
    if isinstance(ambient, BiHomAlgebra):
        return ambient.mu
    if isinstance(ambient, HomAlgebra):
        return ambient.mu
    if isinstance(ambient, HomLie):
        return ambient.bracket
    raise TypeError(f"unsupported ambient structure {type(ambient).__name__}")


def _validate_ambient(target: SearchTarget, ambient) -> None:
    if isinstance(ambient, HomLie):
        v = check_hom_lie(ambient)
    elif isinstance(ambient, HomAlgebra):
        v = check_bihom_associative(ambient.as_bihom())
    elif isinstance(ambient, BiHomAlgebra):
        v = check_bihom_associative(ambient)
    else:
        raise TypeError(f"unsupported ambient structure {type(ambient).__name__}")
    if not v.passed:
        raise ValueError(
            f"ambient structure fails {v.law} at {v.witness.indices}")


def search(spec: SearchSpec, ambient, backend: str | None = None) -> list:
    """All certified objects on the grid, in enumeration order.

    Returns Tensor2 solutions for the Yang-Baxter target, LinearMaps for
    operator/derivation targets, and (LinearMap, LinearMap) pairs for the
    commuting-map target.  Every result has been re-checked by the exact
    rational checker for its law.  ``backend`` (auto|numpy|exact) overrides
    ``BIHOMCHECK_KERNEL`` for this call.
    """
    _validate_ambient(spec.target, ambient)
    mu = _ambient_product(spec.target, ambient)
    dim = mu.dim
    if dim > spec.dim_cap:
        raise ValueError(f"ambient dimension {dim} exceeds cap {spec.dim_cap}")
    slots = _slots(dim, spec.support)
    n_slots = 2 * len(slots) if isinstance(spec.target, AlgebraMapPairTarget) \
        else len(slots)
    total = len(spec.coefficients) ** n_slots
    if total > spec.budget:
        raise SearchSpaceTooLargeError(
            f"{total} candidates exceed the budget of {spec.budget}")

    certify, problem = _certifier_and_problem(spec, ambient, mu, slots)

    int_coeffs = all(c.denominator == 1 for c in spec.coefficients)
    bound_ok = False
    if problem is not None and int_coeffs:
        cmax = max(abs(int(c)) for c in spec.coefficients) if spec.coefficients else 0
        bound_ok = kernels.magnitude_bound(problem, cmax) < kernels.INT64_SAFE
    chosen = kernels.resolve_backend(total, backend,
                                     int_data=(problem is not None and int_coeffs),
                                     bound_ok=bound_ok)

    results = []
    if chosen == "exact":
        for assignment in itertools.product(spec.coefficients, repeat=n_slots):
            obj = _decode(spec, dim, slots, assignment)
            if certify(obj):
                results.append(obj)
        return results

    coeff_ints = [int(c) for c in spec.coefficients]
    for idx in kernels.fast_survivors(problem, coeff_ints):
        assignment = _assignment_from_index(idx, spec.coefficients, n_slots)
        obj = _decode(spec, dim, slots, assignment)
        if not certify(obj):
            raise InternalInconsistencyError(
                "fast path accepted a candidate the exact checker rejects; "
                "this is a kernel bug")
        results.append(obj)
    return results


def _assignment_from_index(idx: int, coefficients, n_slots: int):
    base = len(coefficients)
    out = []
    for t in range(n_slots):
        stride = base ** (n_slots - 1 - t)
        out.append(coefficients[(idx // stride) % base])
    return tuple(out)


def _decode(spec: SearchSpec, dim: int, slots, assignment):
    if isinstance(spec.target, AlgebraMapPairTarget):
        half = len(slots)
        return (_matrix_from_slots(dim, slots, assignment[:half]),
                _matrix_from_slots(dim, slots, assignment[half:]))
    if isinstance(spec.target, AybeTarget):
        grid = [[Fraction(0)] * dim for _ in range(dim)]
        for (i, j), c in zip(slots, assignment):
            grid[i][j] = c
        return Tensor2(grid)
    return _matrix_from_slots(dim, slots, assignment)


def _matrix_from_slots(dim: int, slots, assignment) -> LinearMap:
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), c in zip(slots, assignment):
        rows[i][j] = c
    return LinearMap(rows)


def _certifier_and_problem(spec: SearchSpec, ambient, mu: BilinearOp, slots):
    """Exact certification predicate plus (when data is integral) the
    integer kernel problem for the fast path."""
    dim = mu.dim
    target = spec.target
    mu_int = _cube_to_int(mu)

    if isinstance(target, AybeTarget):
        if not isinstance(ambient, (BiHomAlgebra, HomAlgebra)):
            raise TypeError("Yang-Baxter search needs a (Bi)Hom-associative ambient")
        bihom = ambient if isinstance(ambient, BiHomAlgebra) else ambient.as_bihom()

        def certify(r: Tensor2) -> bool:
            return check_aybe(bihom, r).passed

        problem = None
        a_int, b_int = _map_to_int(bihom.alpha), _map_to_int(bihom.beta)
        if mu_int is not None and a_int is not None and b_int is not None:
            problem = kernels.GridProblem("aybe", dim, mu_int, a_int, b_int,
                                          kernels.empty_commute(dim), slots)
        return certify, problem

    if isinstance(target, (RBTarget, DerivationTarget)):
        kind, extra = target.kind, target.commute_with
        check = (check_rota_baxter if isinstance(target, RBTarget)
                 else check_derivation)
        check(LinearMap.zero(dim, dim), mu, kind)  # validate params

        def certify(X: LinearMap) -> bool:
            if any(not maps_commute(X, m) for m in extra):
                return False
            return check(X, mu, kind).passed

        return certify, _twisted_problem(kind, dim, mu_int, extra, slots)

    if isinstance(target, AlgebraMapPairTarget):

        def certify(pair) -> bool:
            f, g = pair
            return (is_algebra_map(f, mu).passed
                    and is_algebra_map(g, mu).passed
                    and maps_commute(f, g))

        problem = None
        if mu_int is not None:
            z = np.zeros((dim, dim), dtype=np.int64)
            problem = kernels.GridProblem("map-pair", dim, mu_int, z, z,
                                          kernels.empty_commute(dim), slots)
        return certify, problem

    raise TypeError(f"unknown search target {target!r}")


def _twisted_problem(kind: RBKind | DerivationKind, dim: int, mu_int,
                     extra, slots):
    """The kernel problem of a kind's identity, with the candidate commuting
    with the kind's commutation maps and ``extra``; None unless all data is
    integral."""
    if mu_int is None:
        return None
    ints = [_map_to_int(f) for f in (*kind.twists(),
                                     *(f for _, f in kind.commutes()), *extra)]
    if any(x is None for x in ints):
        return None
    left, right, *comm = ints
    return kernels.GridProblem(
        kind.form, dim, mu_int, left, right,
        np.stack(comm) if comm else kernels.empty_commute(dim), slots)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogueEntry:
    id: str
    kind: str                      # "algebra" | "inf-bialgebra" | "map"
    structure: object
    provenance: str
    negative_control: bool = False
    base: str | None = None        # for maps: the entry they belong to
    r: Tensor2 | None = None       # Yang-Baxter data of quasitriangular entries


def _n2_product() -> BilinearOp:
    return BilinearOp.from_products(2, {(0, 0): (0, 1)})


def _na2_product() -> BilinearOp:
    return BilinearOp.from_products(2, {(0, 0): (0, 1), (1, 0): (1, 0)})


def _dx2_product() -> BilinearOp:
    return BilinearOp.from_products(2, {
        (0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)})


def _m2_product() -> BilinearOp:
    # basis order e11, e12, e21, e22; e_{ab} e_{cd} = delta_{bc} e_{ad}
    unit_index = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    products = {}
    for (a, b), i in unit_index.items():
        for (c, d), j in unit_index.items():
            if b == c:
                vec = [0, 0, 0, 0]
                vec[unit_index[(a, d)]] = 1
                products[(i, j)] = vec
    return BilinearOp.from_products(4, products)


def _build_catalogue() -> list[CatalogueEntry]:
    from .constructions import delta_r

    id2 = LinearMap.identity(2)
    id4 = LinearMap.identity(4)
    sgn = LinearMap.diagonal((-1, 1))
    neg_x = LinearMap.diagonal((1, -1))
    conj_d = LinearMap.diagonal((1, -1, -1, 1))

    n2 = BiHomAlgebra(_n2_product(), id2, id2)
    na2 = BiHomAlgebra(_na2_product(), id2, id2)
    dx2 = BiHomAlgebra(_dx2_product(), id2, id2, unit=(Fraction(1), Fraction(0)))
    m2 = BiHomAlgebra(_m2_product(), id4, id4,
                      unit=(Fraction(1), Fraction(0), Fraction(0), Fraction(1)))

    dx2_delta = Comultiplication.from_images(2, {1: {(1, 1): 1}})
    dx2_inf = InfHomBialgebra(dx2.mu, dx2_delta, id2)

    r_qt = Tensor2.from_pairs(4, {(1, 1): 1})
    m2_delta = delta_r(HomAlgebra(m2.mu, id4), r_qt)
    m2_qt = InfHomBialgebra(m2.mu, m2_delta, id4)

    entries = [
        CatalogueEntry("n2", "algebra", n2,
                       "two-dimensional commutative nilpotent algebra uu = v"),
        CatalogueEntry("na2", "algebra", na2,
                       "non-associative control: uu = v, vu = u",
                       negative_control=True),
        CatalogueEntry("dx2", "algebra", dx2,
                       "dual numbers: unital span of 1 and x with x^2 = 0"),
        CatalogueEntry("m2", "algebra", m2,
                       "2x2 matrix algebra in the matrix-unit basis"),
        CatalogueEntry("dx2-infbialg", "inf-bialgebra", dx2_inf,
                       "dual numbers with the splitting x -> x (x) x"),
        CatalogueEntry("m2-qt", "inf-bialgebra", m2_qt,
                       "matrix algebra with the principal comultiplication of "
                       "the nilpotent Yang-Baxter solution e12 (x) e12",
                       r=r_qt),
        CatalogueEntry("id2", "map", id2, "identity in dimension 2"),
        CatalogueEntry("id4", "map", id4, "identity in dimension 4"),
        CatalogueEntry("sgn", "map", sgn,
                       "sign flip u -> -u, v -> v", base="n2"),
        CatalogueEntry("neg_x", "map", neg_x,
                       "sign flip 1 -> 1, x -> -x", base="dx2"),
        CatalogueEntry("conj_d", "map", conj_d,
                       "conjugation by diag(1, -1)", base="m2"),
    ]
    _assert_catalogue_sound(entries)
    return entries


def _assert_catalogue_sound(entries: list[CatalogueEntry]) -> None:
    by_id = {e.id: e for e in entries}
    for e in entries:
        if e.kind == "algebra":
            v = check_bihom_associative(e.structure)
            if e.negative_control:
                assert not v.passed and v.witness.indices == (0, 0, 0), \
                    f"negative control {e.id} must fail at (0, 0, 0)"
            else:
                assert v.passed, f"catalogue entry {e.id} fails {v.law}"
        elif e.kind == "inf-bialgebra":
            v = check_inf_hom_bialgebra(e.structure)
            assert v.passed, f"catalogue entry {e.id} fails {v.law}"
        elif e.kind == "map" and e.base is not None:
            base = by_id[e.base].structure
            assert is_algebra_map(e.structure, base.mu).passed, \
                f"map {e.id} is not an algebra map of {e.base}"


_CATALOGUE: list[CatalogueEntry] | None = None


def catalogue() -> list[CatalogueEntry]:
    """The built-in examples; validated once per process."""
    global _CATALOGUE
    if _CATALOGUE is None:
        _CATALOGUE = _build_catalogue()
    return list(_CATALOGUE)


def catalogue_entry(entry_id: str) -> CatalogueEntry:
    for e in catalogue():
        if e.id == entry_id:
            return e
    raise KeyError(f"no catalogue entry named {entry_id!r}")


def twist_factory(base: CatalogueEntry, maps: tuple[LinearMap, ...]):
    """Deform a catalogue entry by structure maps, returning a validated
    twisted bundle (the guaranteed source of examples with non-identity
    structure maps)."""
    if base.kind == "algebra":
        if len(maps) != 2:
            raise ValueError("algebra twists need a pair of maps")
        twisted = yau_twist_assoc(base.structure.mu, maps[0], maps[1])
        v = check_bihom_associative(twisted)
    elif base.kind == "inf-bialgebra":
        if len(maps) not in (1, 2) or (len(maps) == 2 and maps[0] != maps[1]):
            raise ValueError("bialgebra twists need a single structure map")
        twisted = _twist_bialgebra(base.structure, maps[0])
        v = check_inf_hom_bialgebra(twisted)
    else:
        raise ValueError(f"cannot twist a {base.kind} entry")
    if not v.passed:
        raise PreconditionError("twist-valid", f"fails {v.law}")
    return twisted


@_construction
def _twist_bialgebra(b: InfHomBialgebra, al: LinearMap) -> InfHomBialgebra:
    """(al o mu, Delta o al, al) from a classical infinitesimal bialgebra."""
    yield [("classical-base", b.alpha.is_identity),
           ("alpha-algebra-map", is_algebra_map, al, b.mu)]
    yield [("alpha-coalgebra-map", lambda: _relabel(
        is_coalgebra_map(al, b.delta), "alpha-coalgebra-map"))]
    return InfHomBialgebra(_post_product(al, b.mu),
                           compose_delta(b.delta, al), al)
