from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomcheck import kernels
from bihomcheck.constructions import PreconditionError
from bihomcheck.discovery import (
    AlgebraMapPairTarget,
    AybeTarget,
    DerivationTarget,
    RBTarget,
    SearchSpaceTooLargeError,
    SearchSpec,
    catalogue,
    catalogue_entry,
    search,
    twist_factory,
)
from bihomcheck.exactlin import (
    BilinearOp,
    LinearMap,
    Tensor2,
    is_algebra_map,
    maps_commute,
)
from bihomcheck.structures import (
    AlphaBetaRB,
    AlphaPowerDerivation,
    AlphaPowerRB,
    BraceRB,
    HomLie,
    InvalidParameterError,
    LieAlphaPowerRB,
    ParenRB,
    TauSigmaDerivation,
    check_aybe,
    check_bihom_associative,
    check_derivation,
    check_inf_hom_bialgebra,
    check_rota_baxter,
)

F = Fraction
BACKENDS = ("exact", "numpy")
GRIDS = ((-1, 0, 1), (-2, -1, 0, 1, 2))
KINDS = ("aybe", "brace-rb", "paren-rb", "derivation", "map-pair")
# k[x]/(x^3), unital on e0 = 1, e1 = x, e2 = x^2
POLY3 = BilinearOp.from_products(3, {
    (0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 0): (0, 1, 0),
    (0, 2): (0, 0, 1), (2, 0): (0, 0, 1), (1, 1): (0, 0, 1)})


def diag(*values):
    return LinearMap.diagonal(values)


def all_slots(dim):
    return [(i, j) for i in range(dim) for j in range(dim)]


def grid_candidates(problem):
    """Every candidate of the problem's grid, as ``scatter`` places them,
    and the coefficient indices each was decoded from."""
    total = len(problem.values) ** problem.n_slots
    digits = kernels.decode_chunk(0, total, len(problem.values),
                                  problem.n_slots)
    values = np.array(problem.values, dtype=np.int64)
    return kernels.scatter(problem, values[digits]), digits


def condition_masks(problem, cands):
    """One mask per condition, each evaluated unsliced on the whole batch."""
    masks = []
    for cond in kernels._np_conditions(problem):
        lhs, rhs = cond(cands, slice(None))
        masks.append((lhs == rhs).reshape(len(lhs), -1).all(axis=1))
    return masks


def first_failures(problem):
    """The index of the first condition each rejected candidate fails."""
    masks = condition_masks(problem, grid_candidates(problem)[0])
    return {int(np.argmin(column)) for column in np.array(masks).T
            if not column.all()}


def assert_staged_mask_matches_reference(problem):
    cands, digits = grid_candidates(problem)
    # each slice of a condition is exactly that sub-array of its unsliced
    # sides, on passing and failing candidates alike; the int64 bound of
    # magnitude_bound rests on this too
    for cond in kernels._np_conditions(problem):
        sides = cond(cands, slice(None))
        for a in range(problem.dim):
            lead = slice(a, a + 1)
            for got, whole in zip(cond(cands, lead), sides):
                assert np.array_equal(got, whole[:, lead])
    reference = np.logical_and.reduce(condition_masks(problem, cands))
    assert np.array_equal(kernels.numpy_mask(problem, cands), reference)
    expected = [tuple(d) for d in digits[reference].tolist()]
    for chunk in (1, 7, 8192):
        assert kernels.fast_survivors(problem, chunk=chunk) == expected


@st.composite
def integer_problems(draw):
    """A random integer grid problem of any kind on dimension 2 or 3, with
    entries in -2..2.  Catalogue products and identity maps are drawn often,
    so that many candidates pass the first conditions and a later one must
    do the rejecting."""
    kind = draw(st.sampled_from(KINDS))
    d = draw(st.sampled_from((2, 3)))
    entries = st.integers(-2, 2)
    grid = st.lists(st.lists(entries, min_size=d, max_size=d),
                    min_size=d, max_size=d)
    known = ([catalogue_entry(k).structure.mu.cube for k in ("n2", "na2", "dx2")]
             if d == 2 else [POLY3.cube])
    mu = draw(st.one_of(st.sampled_from(known),
                        st.lists(grid, min_size=d, max_size=d)))
    ident = [[int(i == j) for j in range(d)] for i in range(d)]
    signs = st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d).map(
        lambda diag: [[diag[i] * (i == j) for j in range(d)] for i in range(d)])
    maps = st.one_of(st.just(ident), signs, grid)
    n_maps = {"aybe": 2, "map-pair": 0}.get(kind, 2 + draw(st.integers(0, 2)))
    values = draw(st.sampled_from(((-1, 0, 1), (0, 1), (-2, 0, 2),
                                   (-2, -1, 0, 1, 2))))
    # as many slots as keep the grid within 243 candidates, so that chunks
    # of one candidate stay quick
    per_slot = 2 if kind == "map-pair" else 1
    n_slots = min(d * d, int(np.log(243.5) / np.log(len(values)) / per_slot))
    slots = sorted(draw(st.permutations(all_slots(d)))[:n_slots])
    problem = kernels.grid_problem(
        kind, BilinearOp(mu), [LinearMap(draw(maps)) for _ in range(n_maps)],
        slots, tuple(F(v) for v in values))
    assert problem is not None
    return problem


class TestCatalogue:
    def test_ids_present(self):
        ids = {e.id for e in catalogue()}
        assert {"n2", "na2", "dx2", "m2", "dx2-infbialg", "m2-qt",
                "id2", "sgn", "neg_x", "conj_d"} <= ids

    def test_negative_control_flagged(self):
        na2 = catalogue_entry("na2")
        assert na2.negative_control
        v = check_bihom_associative(na2.structure)
        assert not v.passed and v.witness.indices == (0, 0, 0)

    def test_positives_validate(self):
        for e in catalogue():
            if e.kind == "algebra" and not e.negative_control:
                assert check_bihom_associative(e.structure).passed
            elif e.kind == "inf-bialgebra":
                assert check_inf_hom_bialgebra(e.structure).passed

    def test_quasitriangular_entry_carries_solution(self, m2):
        e = catalogue_entry("m2-qt")
        assert e.r is not None
        assert check_aybe(m2, e.r).passed

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            catalogue_entry("nope")


class TestSearchBasics:
    def test_aybe_plants_found(self, dx2):
        sols = search(SearchSpec(AybeTarget()), dx2)
        assert Tensor2.zero(2) in sols
        assert Tensor2.from_pairs(2, {(1, 1): 1}) in sols
        assert Tensor2.from_pairs(2, {(1, 1): -1}) in sols

    def test_soundness_every_result_certified(self, dx2):
        for r in search(SearchSpec(AybeTarget()), dx2):
            assert check_aybe(dx2, r).passed

    def test_rb_plant_found(self, n2, id2):
        spec = SearchSpec(RBTarget(AlphaPowerRB(id2, 0)),
                          coefficients=(F(0), F(1)))
        sols = search(spec, n2)
        assert diag(0, 1) in sols
        for R in sols:
            assert check_rota_baxter(R, n2.mu, AlphaPowerRB(id2, 0)).passed

    def test_map_pair_plant_found(self, n2, id2, sgn):
        pairs = search(SearchSpec(AlgebraMapPairTarget()), n2)
        assert (id2, sgn) in pairs
        for f, g in pairs:
            assert is_algebra_map(f, n2.mu).passed
            assert is_algebra_map(g, n2.mu).passed
            assert maps_commute(f, g)

    def test_derivation_certified(self, n2, id2):
        spec = SearchSpec(DerivationTarget(AlphaPowerDerivation(id2, 0)))
        for D in search(spec, n2):
            assert check_derivation(D, n2.mu, AlphaPowerDerivation(id2, 0)).passed

    def test_determinism(self, dx2):
        a = search(SearchSpec(AybeTarget()), dx2)
        b = search(SearchSpec(AybeTarget()), dx2)
        assert a == b

    def test_commute_with_constraint(self, n2, id2, sgn):
        free = search(SearchSpec(RBTarget(BraceRB(id2, id2))), n2)
        constrained = search(
            SearchSpec(RBTarget(BraceRB(id2, id2), commute_with=(sgn,))), n2)
        assert set(constrained) <= set(free)
        assert all(maps_commute(R, sgn) for R in constrained)


class TestSearchGuards:
    def test_budget(self, n2):
        with pytest.raises(SearchSpaceTooLargeError):
            search(SearchSpec(AlgebraMapPairTarget(), budget=100), n2)

    def test_dim_cap(self, m2):
        with pytest.raises(ValueError):
            search(SearchSpec(AybeTarget(), dim_cap=2), m2)

    def test_invalid_ambient(self, na2):
        with pytest.raises(ValueError):
            search(SearchSpec(AybeTarget()), na2)

    def test_empty_coefficients(self):
        with pytest.raises(ValueError):
            SearchSpec(AybeTarget(), coefficients=())

    @pytest.mark.parametrize("fields", [
        {"support": ((1, 1), (1, 1))},
        {"support": ((1, 1),), "coefficients": (F(0), F(0), F(1))},
        {"coefficients": (1, F(2, 2))}])
    def test_repeated_grid_entry(self, fields):
        # each would enumerate, and return, the same candidate twice
        with pytest.raises(ValueError, match="repeated"):
            SearchSpec(AybeTarget(), **fields)

    def test_error_order(self, n2, na2, id2):
        # ambient law, dimension cap, support range, budget, parameter
        # check, backend: each spec fails every check after its own
        spec = SearchSpec(RBTarget(BraceRB(diag(1, 2), id2)), dim_cap=1,
                          support=((5, 0),), budget=1)
        steps = [(na2, {}, ValueError, "ambient structure fails"),
                 (n2, {}, ValueError, "exceeds cap"),
                 (n2, {"dim_cap": 2}, ValueError, "outside dimension"),
                 (n2, {"support": ((0, 0),)}, SearchSpaceTooLargeError, "budget"),
                 (n2, {"budget": 3}, InvalidParameterError, "sigma"),
                 (n2, {"target": RBTarget(BraceRB(id2, id2))}, ValueError,
                  "backend must be")]
        for ambient, fix, error, message in steps:
            spec = replace(spec, **fix)
            with pytest.raises(error, match=message):
                search(spec, ambient, backend="bogus")

    def test_support_out_of_range(self, n2):
        with pytest.raises(ValueError):
            search(SearchSpec(AybeTarget(), support=((5, 0),)), n2)

    def test_support_restriction(self, m2):
        support = ((0, 1), (0, 3), (1, 1), (1, 3))
        sols = search(SearchSpec(AybeTarget(), support=support), m2)
        expected = {Tensor2.zero(4),
                    Tensor2.from_pairs(4, {(1, 1): 1}),
                    Tensor2.from_pairs(4, {(1, 1): -1})}
        assert set(sols) == expected


class TestBackendAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aybe(self, dx2, backend):
        baseline = search(SearchSpec(AybeTarget()), dx2, backend="exact")
        assert search(SearchSpec(AybeTarget()), dx2, backend=backend) == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rb(self, n2, id2, backend):
        spec = SearchSpec(RBTarget(AlphaPowerRB(id2, 0)))
        baseline = search(spec, n2, backend="exact")
        assert search(spec, n2, backend=backend) == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_paren_rb(self, dx2, id2, sgn, backend):
        spec = SearchSpec(RBTarget(ParenRB(id2, id2)))
        baseline = search(spec, dx2, backend="exact")
        assert baseline  # zero operator at minimum
        assert search(spec, dx2, backend=backend) == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_brace_rb_without_commutation_stack(self, n2, id2, sgn, backend):
        spec = SearchSpec(RBTarget(BraceRB(sgn, id2)))
        baseline = search(spec, n2, backend="exact")
        assert search(spec, n2, backend=backend) == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_derivation(self, dx2, id2, backend):
        spec = SearchSpec(DerivationTarget(AlphaPowerDerivation(id2, 0)))
        baseline = search(spec, dx2, backend="exact")
        assert search(spec, dx2, backend=backend) == baseline

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_pairs(self, n2, backend):
        spec = SearchSpec(AlgebraMapPairTarget())
        baseline = search(spec, n2, backend="exact")
        assert search(spec, n2, backend=backend) == baseline

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("case", ("alpha-beta-rb", "lie-alpha-power-rb",
                                      "tau-sigma-derivation", "commute-with"))
    def test_every_target_kind(self, n2, dx2, id2, sgn, neg_x, monkeypatch,
                               case, grid):
        # the two-dimensional Lie algebra [e0, e1] = e1, twisted by e1 -> -e1
        lie = HomLie(BilinearOp.from_products(2, {(0, 1): (0, 1),
                                                  (1, 0): (0, -1)}),
                     diag(1, -1))
        target, ambient = {
            "alpha-beta-rb": (RBTarget(AlphaBetaRB(id2, sgn)), n2),
            "lie-alpha-power-rb": (RBTarget(LieAlphaPowerRB(lie.alpha, 1)),
                                   lie),
            "tau-sigma-derivation": (
                DerivationTarget(TauSigmaDerivation(neg_x, id2)), dx2),
            "commute-with": (RBTarget(BraceRB(id2, id2), commute_with=(sgn,)),
                             n2),
        }[case]
        spec = SearchSpec(target, coefficients=tuple(F(c) for c in grid))
        fast_calls = []
        survivors = kernels.fast_survivors

        def counted(problem):
            fast_calls.append(problem)
            return survivors(problem)

        monkeypatch.setattr(kernels, "fast_survivors", counted)
        baseline = search(spec, ambient, backend="exact")
        assert baseline and not fast_calls
        assert search(spec, ambient, backend="numpy") == baseline
        assert len(fast_calls) == 1

    def test_non_integer_coefficients_fall_back_to_exact(self, dx2):
        spec = SearchSpec(AybeTarget(),
                          coefficients=(F(0), F(1, 2)))
        # grid contains 1/2: integer paths unusable
        sols = search(spec, dx2, backend="numpy")
        assert Tensor2.from_pairs(2, {(1, 1): F(1, 2)}) in sols

    def test_huge_values_fall_back_to_exact(self, dx2):
        big = F(2) ** 40  # products of two (0, 0) slots reach 2^81
        spec = SearchSpec(AybeTarget(), support=((0, 0), (1, 1)),
                          coefficients=(F(0), big))
        sols = search(spec, dx2, backend="numpy")
        assert Tensor2.from_pairs(2, {(1, 1): big}) in sols


class TestKernels:
    def test_resolve_backend_rules(self):
        assert kernels.resolve_backend(100) == "exact"  # tiny space
        big = kernels.SMALL_SPACE + 1
        assert kernels.resolve_backend(big) == "numpy"
        assert kernels.resolve_backend(big, "auto") == "numpy"
        assert kernels.resolve_backend(100, "numpy") == "numpy"
        assert kernels.resolve_backend(big, "exact") == "exact"
        with pytest.raises(ValueError):
            kernels.resolve_backend(big, "bogus")

    def test_numba_backend_was_removed(self, dx2):
        with pytest.raises(ValueError, match="removed"):
            search(SearchSpec(AybeTarget()), dx2, backend="numba")

    def test_unknown_explicit_backend_rejected(self, dx2):
        with pytest.raises(ValueError):
            search(SearchSpec(AybeTarget()), dx2, backend="bogus")

    def test_magnitude_bound_is_small_for_catalogue(self, m2, id4):
        slots = [(i, j) for i in range(4) for j in range(4)]
        problem = kernels.grid_problem("aybe", m2.mu, (id4, id4), slots,
                                       (F(-1), F(0), F(1)))
        assert problem is not None
        bound = kernels.magnitude_bound(problem, 1)
        assert 0 < bound < kernels.INT64_SAFE

    def test_grid_problem_needs_integers_within_the_bound(self, dx2, id2):
        slots = [(0, 0)]  # r = c e0 (x) e0; the bound is 2 c^2, from t13 + t23

        def problem(coefficients, maps=(id2, id2)):
            return kernels.grid_problem("aybe", dx2.mu, maps, slots,
                                        coefficients)

        assert problem((F(0), F(1))) is not None
        assert problem((F(0), F(1, 2))) is None
        assert problem((F(0), F(1)), (id2, diag(1, F(1, 2)))) is None
        assert problem((F(0), F(2) ** 30)) is not None
        assert problem((F(0), F(2) ** 31)) is None

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(integer_problems())
    def test_staged_mask_equals_the_unsliced_conjunction(self, problem):
        assert_staged_mask_matches_reference(problem)

    @pytest.mark.parametrize("case, stage", [
        ("aybe/dx2-neg", 0),          # the alpha-invariance of r
        ("map-pair/n2", 1),           # g is not multiplicative
        ("brace-rb/dx2-id", 2),       # both maps commute; the RB law rejects
        ("paren-rb/poly3-id", 1),     # the RB law, after one commutation
        ("paren-rb/skew-id", 1),
        ("derivation/dx2-neg", 0),    # the Leibniz law alone
    ])
    def test_every_kind_and_stage(self, case, stage, dx2, n2, neg_x, id2):
        # each grid has nonzero solutions, so slicing a wrong operand shows;
        # on ``skew`` (not associative) some paren-type operators R have
        # R(e_i tau(R(x))) depending on i, unlike those of dx2 and poly3
        skew = BilinearOp((((0, 0), (1, 1)), ((-1, -1), (1, 1))))
        mu, maps, slots = {
            "aybe/dx2-neg": (dx2.mu, (neg_x, neg_x), all_slots(2)),
            "map-pair/n2": (n2.mu, (), [(0, 0), (0, 1), (1, 1)]),
            "brace-rb/dx2-id": (dx2.mu, (id2,) * 4, all_slots(2)),
            "paren-rb/poly3-id": (POLY3, (LinearMap.identity(3),) * 3,
                                  all_slots(3)[4:]),
            "paren-rb/skew-id": (skew, (id2,) * 3, all_slots(2)),
            "derivation/dx2-neg": (dx2.mu, (neg_x, id2), all_slots(2)),
        }[case]
        problem = kernels.grid_problem(case.split("/")[0], mu, maps, slots,
                                       (F(-1), F(0), F(1)))
        assert stage in first_failures(problem)
        assert len(kernels.fast_survivors(problem)) > 1
        assert_staged_mask_matches_reference(problem)

    @pytest.mark.parametrize("kind, ambient, maps, coeff_max, bound", [
        ("aybe", "m2", ("conj_d", "id4"), 1, 4),
        ("aybe", "dx2", ("neg_x", "neg_x"), 2, 16),
        ("brace-rb", "n2", ("sgn", "id2", "sgn"), 2, 8),
        ("paren-rb", "poly3", ("id3", "id3"), 1, 6),
        ("derivation", "dx2", ("neg_x", "id2", "neg_x"), 5, 10),
        ("derivation", "poly3", ("id3", "id3"), 2, 4),
        ("map-pair", "m2", (), 1, 4),
        ("map-pair", "n2", (), 3, 18),
    ])
    def test_magnitude_bound_is_pinned(self, kind, ambient, maps, coeff_max,
                                       bound):
        # values recorded before the mask was staged: a change here moves
        # grids between the int64 path and the exact path
        def named(name):
            if name[:2] == "id":
                return LinearMap.identity(int(name[2:]))
            return catalogue_entry(name).structure

        mu = POLY3 if ambient == "poly3" else named(ambient).mu
        coefficients = tuple(F(v) for v in range(-coeff_max, coeff_max + 1))
        problem = kernels.grid_problem(kind, mu, [named(m) for m in maps],
                                       all_slots(mu.dim), coefficients)
        assert kernels.magnitude_bound(problem, coeff_max) == bound

    def test_map_pair_problem_has_no_twists(self, n2):
        problem = kernels.grid_problem("map-pair", n2.mu, (), [(0, 0)],
                                       (F(0), F(1)))
        assert problem.n_slots == 2
        assert not problem.left.any() and not problem.right.any()
        assert problem.commute.shape == (0, 2, 2)


class TestTwistFactory:
    def test_sign_twist_of_dual_numbers(self, neg_x):
        twisted = twist_factory(catalogue_entry("dx2"), (neg_x, neg_x))
        assert check_bihom_associative(twisted).passed
        assert twisted.alpha == neg_x

    def test_bihom_twist_of_matrix_algebra(self, conj_d, id4):
        twisted = twist_factory(catalogue_entry("m2"), (conj_d, id4))
        assert check_bihom_associative(twisted).passed
        assert not twisted.is_hom()

    def test_bialgebra_twist_by_projection(self):
        proj = diag(1, 0)
        twisted = twist_factory(catalogue_entry("dx2-infbialg"), (proj,))
        assert check_inf_hom_bialgebra(twisted).passed
        assert twisted.alpha == proj

    def test_bialgebra_twist_rejects_non_coalgebra_map(self):
        # u-scaling is an algebra map of the dual numbers but breaks the
        # coproduct: delta(alpha(x)) = 2 x(x)x != (alpha(x)alpha)(delta(x))
        stretch = diag(1, 2)
        with pytest.raises(PreconditionError):
            twist_factory(catalogue_entry("dx2-infbialg"), (stretch,))

    def test_algebra_twist_needs_two_maps(self, neg_x):
        with pytest.raises(ValueError):
            twist_factory(catalogue_entry("dx2"), (neg_x,))
