from fractions import Fraction

import pytest

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
from bihomcheck.exactlin import LinearMap, Tensor2, is_algebra_map, maps_commute
from bihomcheck.structures import (
    AlphaPowerDerivation,
    AlphaPowerRB,
    BraceRB,
    ParenRB,
    check_aybe,
    check_bihom_associative,
    check_derivation,
    check_inf_hom_bialgebra,
    check_rota_baxter,
)

F = Fraction
BACKENDS = ("exact", "numpy")


def diag(*values):
    return LinearMap.diagonal(values)


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

    def test_env_flag_forces_numpy(self, dx2, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert kernels.resolve_backend(10 ** 6) == "numpy"
        baseline = search(SearchSpec(AybeTarget()), dx2, backend="exact")
        assert search(SearchSpec(AybeTarget()), dx2) == baseline

    def test_non_integer_coefficients_fall_back_to_exact(self, dx2):
        spec = SearchSpec(AybeTarget(),
                          coefficients=(F(0), F(1, 2)))
        sols = search(spec, dx2)  # grid contains 1/2: integer paths unusable
        assert Tensor2.from_pairs(2, {(1, 1): F(1, 2)}) in sols

    def test_huge_values_fall_back_to_exact(self, dx2):
        big = F(2) ** 40
        spec = SearchSpec(AybeTarget(), support=((1, 1),),
                          coefficients=(F(0), big))
        sols = search(spec, dx2)
        assert Tensor2.from_pairs(2, {(1, 1): big}) in sols


class TestKernels:
    def test_resolve_backend_rules(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.resolve_backend(100) == "exact"  # tiny space
        big = kernels.SMALL_SPACE + 1
        assert kernels.resolve_backend(big) == "numpy"
        assert kernels.resolve_backend(big, int_data=False) == "exact"
        assert kernels.resolve_backend(big, bound_ok=False) == "exact"
        monkeypatch.setenv(kernels.ENV_VAR, "exact")
        assert kernels.resolve_backend(big) == "exact"
        monkeypatch.setenv(kernels.ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            kernels.resolve_backend(big)

    def test_numba_backend_was_removed(self, dx2, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        with pytest.raises(ValueError, match="removed"):
            search(SearchSpec(AybeTarget()), dx2)
        monkeypatch.delenv(kernels.ENV_VAR)
        with pytest.raises(ValueError, match="removed"):
            search(SearchSpec(AybeTarget()), dx2, backend="numba")

    def test_unknown_explicit_backend_rejected(self, dx2):
        with pytest.raises(ValueError):
            search(SearchSpec(AybeTarget()), dx2, backend="bogus")

    def test_magnitude_bound_is_small_for_catalogue(self, m2):
        import numpy as np
        mu = np.array([[[int(x) for x in row] for row in plane]
                       for plane in m2.mu.cube], dtype=np.int64)
        ident = np.eye(4, dtype=np.int64)
        slots = [(i, j) for i in range(4) for j in range(4)]
        problem = kernels.GridProblem("aybe", 4, mu, ident, ident,
                                      kernels.empty_commute(4), slots)
        bound = kernels.magnitude_bound(problem, 1)
        assert 0 < bound < kernels.INT64_SAFE


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
