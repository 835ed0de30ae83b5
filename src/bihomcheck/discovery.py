"""Exhaustive certified search over bounded coefficient grids, plus the
built-in example catalogue.

``search`` enumerates every assignment of coefficients from a finite set to
the free slots of a candidate object (a tensor, an operator matrix, or a
pair of maps), filters by the target's law and re-certifies every survivor
with the exact rational checkers.  Enumeration order is lexicographic over
the grid, so results are deterministic; the integer fast path in
:mod:`bihomcheck.kernels` only prefilters and can never change the answer.

Each search target describes itself once: ``matrices`` is the number of
candidate matrices (2 for map pairs, else 1), ``decode(*grids)`` builds the
candidate from its coefficient grids, and ``plan(ambient, mu)`` returns the
exact certifier, the kernel form and the maps of the kernel problem (left
twist, right twist, then the maps a candidate must commute with).  Whether
the int64 fast path can run is decided in ``kernels``, which (with numpy)
is imported by the first search, so commands that never search do not load
numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    Scalar,
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
    check_aybe,
    check_bihom_associative,
    check_derivation,
    check_hom_lie,
    check_inf_hom_bialgebra,
    check_rota_baxter,
)


class SearchSpaceTooLargeError(ValueError):
    """Candidate count exceeds the configured budget."""


DEFAULT_COEFFS = (-1, 0, 1)
DEFAULT_BUDGET = 10 ** 8
MAX_DIM = 4


# ---------------------------------------------------------------------------
# Targets and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AybeTarget:
    """Solutions r of the twisted associative Yang-Baxter equation."""
    matrices = 1

    def decode(self, grid) -> Tensor2:
        return Tensor2(grid)

    def plan(self, ambient, mu: BilinearOp):
        if isinstance(ambient, HomLie):
            raise TypeError("Yang-Baxter search needs a (Bi)Hom-associative ambient")
        bihom = ambient.as_bihom() if isinstance(ambient, HomAlgebra) else ambient
        return ((lambda r: check_aybe(bihom, r).passed), "aybe",
                (bihom.alpha, bihom.beta))


class _OperatorTarget:
    """An operator of ``self.kind``; ``check`` is the kind's public checker,
    which first validates the kind's parameters on the zero map."""
    matrices = 1
    commute_with = ()

    def decode(self, grid) -> LinearMap:
        return LinearMap(grid)

    def _plan(self, check, mu: BilinearOp):
        kind, extra = self.kind, self.commute_with
        check(LinearMap.zero(mu.dim, mu.dim), mu, kind)  # validate params

        def certify(X: LinearMap) -> bool:
            return (all(maps_commute(X, m) for m in extra)
                    and check(X, mu, kind).passed)

        return certify, kind.form, (*kind.twists(),
                                    *(f for _, f in kind.commutes()), *extra)


@dataclass(frozen=True)
class RBTarget(_OperatorTarget):
    """Rota-Baxter operators of the given kind.  ``commute_with`` adds
    commutation constraints beyond the kind's own (needed when feeding the
    splitting theorem, whose hypotheses require R to commute with all of
    the twisting maps)."""
    kind: RBKind
    commute_with: tuple[LinearMap, ...] = ()

    def plan(self, ambient, mu: BilinearOp):
        return self._plan(check_rota_baxter, mu)


@dataclass(frozen=True)
class DerivationTarget(_OperatorTarget):
    """Twisted derivations of the given kind."""
    kind: DerivationKind

    def plan(self, ambient, mu: BilinearOp):
        return self._plan(check_derivation, mu)


@dataclass(frozen=True)
class AlgebraMapPairTarget:
    """Commuting pairs of multiplicative endomorphisms."""
    matrices = 2

    def decode(self, f, g) -> tuple[LinearMap, LinearMap]:
        return LinearMap(f), LinearMap(g)

    def plan(self, ambient, mu: BilinearOp):
        def certify(pair) -> bool:
            f, g = pair
            return (is_algebra_map(f, mu).passed
                    and is_algebra_map(g, mu).passed
                    and maps_commute(f, g))

        return certify, "map-pair", ()


SearchTarget = AybeTarget | RBTarget | DerivationTarget | AlgebraMapPairTarget


@dataclass(frozen=True)
class SearchSpec:
    target: SearchTarget
    coefficients: tuple[Scalar, ...] = DEFAULT_COEFFS
    dim_cap: int = MAX_DIM
    support: tuple[tuple[int, int], ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("coefficient set must be nonempty")
        coefficients = tuple(frac(c) for c in self.coefficients)
        if len(set(coefficients)) != len(coefficients):
            raise ValueError("coefficient set has a repeated value")
        object.__setattr__(self, "coefficients", coefficients)
        if self.dim_cap < 1 or self.dim_cap > MAX_DIM:
            raise ValueError(f"dimension cap must be in 1..{MAX_DIM}")
        if self.support is not None:
            support = tuple(sorted((int(i), int(j)) for i, j in self.support))
            if len(set(support)) != len(support):
                raise ValueError("support has a repeated entry")
            object.__setattr__(self, "support", support)


def _slots(dim: int, support) -> list[tuple[int, int]]:
    if support is None:
        return [(i, j) for i in range(dim) for j in range(dim)]
    for i, j in support:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"support entry {(i, j)} outside dimension {dim}")
    return list(support)


def _ambient_product(ambient) -> BilinearOp:
    """The ambient's product (a Hom-Lie algebra's bracket), once its law
    holds."""
    if isinstance(ambient, HomLie):
        v, mu = check_hom_lie(ambient), ambient.bracket
    elif isinstance(ambient, HomAlgebra):
        v, mu = check_bihom_associative(ambient.as_bihom()), ambient.mu
    elif isinstance(ambient, BiHomAlgebra):
        v, mu = check_bihom_associative(ambient), ambient.mu
    else:
        raise TypeError(f"unsupported ambient structure {type(ambient).__name__}")
    if not v.passed:
        raise ValueError(
            f"ambient structure fails {v.law} at {v.witness.indices}")
    return mu


def search(spec: SearchSpec, ambient, backend: str | None = None) -> list:
    """All certified objects on the grid, in enumeration order.

    Returns Tensor2 solutions for the Yang-Baxter target, LinearMaps for
    operator/derivation targets, and (LinearMap, LinearMap) pairs for the
    commuting-map target.  Every result has been re-checked by the exact
    rational checker for its law.  ``backend`` is auto (the default), numpy
    or exact.  The int64 fast path runs when ``kernels`` can build the
    grid's integer problem and the backend is numpy, or auto on a grid of
    more than ``kernels.SMALL_SPACE`` candidates.
    """
    mu = _ambient_product(ambient)
    dim = mu.dim
    if dim > spec.dim_cap:
        raise ValueError(f"ambient dimension {dim} exceeds cap {spec.dim_cap}")
    slots = _slots(dim, spec.support)
    target, coefficients = spec.target, spec.coefficients
    n_slots = target.matrices * len(slots)
    total = len(coefficients) ** n_slots
    if total > spec.budget:
        raise SearchSpaceTooLargeError(
            f"{total} candidates exceed the budget of {spec.budget}")

    certify, form, maps = target.plan(ambient, mu)
    from . import kernels  # numpy loads on the first search, not at start-up
    problem = None
    if kernels.resolve_backend(total, backend) == "numpy":
        problem = kernels.grid_problem(form, mu, maps, slots, coefficients)
    fast = problem is not None
    candidates = (kernels.fast_survivors(problem) if fast else
                  itertools.product(range(len(coefficients)), repeat=n_slots))
    cells = [(m, i, j) for m in range(target.matrices) for i, j in slots]
    results = []
    for digits in candidates:
        grids = [[[0] * dim for _ in range(dim)]
                 for _ in range(target.matrices)]
        for (m, i, j), d in zip(cells, digits):
            grids[m][i][j] = coefficients[d]
        obj = target.decode(*grids)
        if certify(obj):
            results.append(obj)
        elif fast:
            raise InternalInconsistencyError(
                "fast path accepted a candidate the exact checker rejects; "
                "this is a kernel bug")
    return results


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
    dx2 = BiHomAlgebra(_dx2_product(), id2, id2, unit=(1, 0))
    m2 = BiHomAlgebra(_m2_product(), id4, id4,
                      unit=(1, 0, 0, 1))

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
    yield [("alpha-coalgebra-map", is_coalgebra_map, al, b.delta,
            "alpha-coalgebra-map")]
    return InfHomBialgebra(_post_product(al, b.mu),
                           compose_delta(b.delta, al), al)
