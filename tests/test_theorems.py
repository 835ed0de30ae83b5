import contextlib
from fractions import Fraction
from unittest import mock

import pytest

from bihomcheck import constructions, discovery, exactlin, structures, theorems
from bihomcheck.constructions import (
    PreconditionError,
    abrb_operator,
    analoglie_prelie,
    delta_r,
    dendriform_from_paren_rb,
    dendriform_sum,
    infprelie_bullet,
    moregendend_triple,
    mu_delta_map,
    simprop_dendriform,
    yau_twist_assoc,
)
from bihomcheck.discovery import catalogue_entry
from bihomcheck.exactlin import (
    BilinearOp,
    Comultiplication,
    LinearMap,
    Tensor2,
)
from bihomcheck.structures import (
    BiHomDendriform,
    HomAlgebra,
    HomLie,
    InfHomBialgebra,
)
from bihomcheck.theorems import (
    THEOREM_IDS,
    catalogue_instances,
    run_t4,
    run_t5,
    run_t9,
    run_t12,
    verify_theorem,
)

F = Fraction


def diag(*values):
    return LinearMap.diagonal(values)


class TestRegistryDispatch:
    def test_unknown_id(self):
        with pytest.raises(KeyError) as run:
            verify_theorem("T99")
        with pytest.raises(KeyError) as generate:
            catalogue_instances("T99")
        assert str(run.value) == str(generate.value)
        assert "expected one of T1, T2" in str(run.value)

    def test_every_id_has_instances(self):
        for tid in THEOREM_IDS:
            instances = catalogue_instances(tid)
            assert instances, f"{tid} generated no instances"

    def test_report_passed_iff_all_subverdicts(self, n2, id2, sgn):
        report = verify_theorem("T1", m=n2.mu, alpha=id2, beta=sgn)
        assert report.passed == all(v.passed for _, v in report.sub_verdicts)
        assert report.theorem_id == "T1"


class TestHypothesisFailures:
    def test_t12_non_solution_is_reported_not_raised(self, dx2, id2):
        h = HomAlgebra(dx2.mu, id2)
        bad_r = Tensor2.from_pairs(2, {(0, 0): 1})
        report = run_t12(h, bad_r)
        assert not report.passed
        assert report.failed_hypothesis == "hypothesis:yang-baxter-solution"
        # conclusions are skipped after a failed hypothesis
        assert not any(n.startswith("conclusion:")
                       for n, _ in report.sub_verdicts)

    def test_t4_singular_map(self, n2, id2):
        report = run_t4(n2.mu, id2, id2, LinearMap.zero(2, 2))
        assert report.failed_hypothesis == "hypothesis:D-bijective"

    def test_t9_nonassociative_ambient(self, na2):
        report = run_t9(na2, Tensor2.zero(2))
        assert report.failed_hypothesis == "hypothesis:bihom-associative"


class TestSpotChecks:
    def test_t5_identity_maps_trivially_equivalent(self, dx2, id2):
        # with identity twists both operator identities are syntactically
        # the same, so the equivalence holds for arbitrary commuting R
        for R in (diag(0, 1), diag(1, 1), LinearMap([[0, 1], [0, 0]])):
            report = run_t5(dx2.mu, id2, id2, R)
            assert report.passed

    def test_t4_duality_on_weighted_diagonal(self, n2, id2):
        report = run_t4(n2.mu, id2, id2, diag(1, 2))
        assert report.passed

    def test_t9_matrix_solution(self, m2):
        report = run_t9(m2, Tensor2.from_pairs(4, {(1, 1): 1}))
        assert report.passed
        names = [n for n, _ in report.sub_verdicts]
        assert "conclusion:alpha-beta-rota-baxter" in names
        assert "conclusion:alpha-square-rota-baxter" in names
        assert "conclusion:r-invariance-7" in names

    def test_t12_reference_instance(self, m2_qt):
        h = HomAlgebra(m2_qt.mu, m2_qt.alpha)
        r = catalogue_entry("m2-qt").r
        report = run_t12(h, r)
        assert report.passed


class TestFullCatalogueRuns:
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_all_instances_pass(self, tid):
        for kwargs, desc in catalogue_instances(tid):
            report = verify_theorem(tid, **kwargs)
            failing = [(n, v.witness) for n, v in report.sub_verdicts
                       if not v.passed]
            assert report.passed, f"{tid} [{desc}] failed: {failing}"


def _broken_instances():
    """(theorem, failed hypothesis, sub-verdicts recorded, arguments,
    construction): each instance breaks one hypothesis and keeps the earlier
    ones; the construction is called with the pipeline's arguments."""
    n2, na2, dx2, m2 = (catalogue_entry(e).structure
                        for e in ("n2", "na2", "dx2", "m2"))
    sgn = catalogue_entry("sgn").structure
    id2, id4, zero2 = LinearMap.identity(2), LinearMap.identity(4), diag(0, 0)
    stretch = diag(1, 2)                 # not an algebra map of n2
    shear = LinearMap([[1, 0], [1, 1]])  # an algebra map of n2, not sgn's
    e12 = (F(0), F(1), F(0), F(0))
    sandwich = LinearMap.from_columns([  # a -> e12 a e12 on m2
        m2.mu.apply(e12, m2.mu.apply(tuple(F(t == j) for t in range(4)), e12))
        for j in range(4)])
    swap_conj = LinearMap([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0],
                           [1, 0, 0, 0]])
    bracket = BilinearOp([[[m2.mu.cube[i][j][k] - m2.mu.cube[j][i][k]
                            for k in range(4)] for j in range(4)]
                          for i in range(4)])
    unit_r = Tensor2.from_pairs(2, {(0, 0): 1})   # not a solution on dx2
    bad_bialgebra = InfHomBialgebra(na2.mu, Comultiplication.zero(2), id2)
    return [
        ("T1", "m-associative", 4, (na2.mu, id2, id2), yau_twist_assoc),
        ("T1", "alpha-algebra-map", 4, (n2.mu, stretch, id2), yau_twist_assoc),
        ("T1", "beta-algebra-map", 4, (n2.mu, id2, stretch), yau_twist_assoc),
        ("T1", "alpha-beta-commute", 4, (n2.mu, sgn, shear), yau_twist_assoc),
        ("T2", "dendriform", 1, (BiHomDendriform(m2.mu, m2.mu, id4, id4),),
         dendriform_sum),
        ("T3", "m-associative", 3, (na2.mu, id2, id2, zero2),
         dendriform_from_paren_rb),
        ("T3", "sigma-algebra-map", 3, (n2.mu, stretch, id2, zero2),
         dendriform_from_paren_rb),
        ("T3", "tau-algebra-map", 3, (n2.mu, id2, stretch, zero2),
         dendriform_from_paren_rb),
        ("T3", "paren-rota-baxter", 4, (dx2.mu, id2, id2, id2),
         dendriform_from_paren_rb),
        ("T7", "bihom-associative", 4, (na2, id2, id2, None, zero2),
         simprop_dendriform),
        ("T7", "sigma-algebra-map", 4, (n2, stretch, id2, None, zero2),
         simprop_dendriform),
        ("T7", "tau-algebra-map", 4, (n2, id2, stretch, None, zero2),
         simprop_dendriform),
        ("T7", "eta-algebra-map", 4, (n2, id2, id2, stretch, zero2),
         simprop_dendriform),
        ("T7", "brace-rota-baxter", 20, (dx2, id2, id2, None, id2),
         simprop_dendriform),
        ("T7", "commute(sigma,R)", 20, (m2, swap_conj, id4, None, sandwich),
         simprop_dendriform),
        ("T8", "hom-lie", 1, (HomLie(na2.mu, id2), 0, zero2),
         analoglie_prelie),
        ("T8", "lie-rota-baxter", 2, (HomLie(bracket, id4), 0, id4),
         analoglie_prelie),
        ("T9", "bihom-associative", 1, (na2, Tensor2.zero(2)), abrb_operator),
        ("T9", "yang-baxter-solution", 2, (dx2, unit_r), abrb_operator),
        ("T10", "inf-hom-bialgebra", 1, (bad_bialgebra,), mu_delta_map),
        ("T10", "inf-hom-bialgebra", 1, (bad_bialgebra,), infprelie_bullet),
        ("T12", "hom-associative", 1,
         (HomAlgebra(na2.mu, id2), Tensor2.zero(2)),
         lambda h, r: moregendend_triple(h, 2, zero2)),
        ("T12", "yang-baxter-solution", 2, (HomAlgebra(dx2.mu, id2), unit_r),
         delta_r),
    ]


class TestConstructionAgreement:
    """A construction and the pipeline that records its hypotheses name the
    same failed hypothesis."""

    @pytest.mark.parametrize("index", range(len(_broken_instances())))
    def test_same_failed_hypothesis(self, index):
        tid, name, recorded, args, construction = _broken_instances()[index]
        runner, _ = theorems._THEOREMS[tid]
        report = runner(*args)
        assert report.failed_hypothesis == f"hypothesis:{name}"
        # the rest of the failed list is recorded, then nothing
        assert len(report.sub_verdicts) == recorded
        with pytest.raises(PreconditionError) as exc:
            construction(*args)
        assert exc.value.hypothesis == name

    def test_t7_checks_associativity_once(self):
        kwargs, _ = catalogue_instances("T7")[0]
        counter = mock.Mock(wraps=structures.check_bihom_associative)
        with mock.patch.object(structures, "check_bihom_associative",
                               counter), \
                mock.patch.object(constructions, "check_bihom_associative",
                                  counter), \
                mock.patch.object(theorems, "check_bihom_associative",
                                  counter):
            assert verify_theorem("T7", **kwargs).passed
        assert counter.call_count == 1


def _calls(original, tid, kwargs):
    """Calls of ``original`` in one registry run, counted wherever the
    package binds it."""
    counter = mock.Mock(wraps=original)
    with contextlib.ExitStack() as stack:
        for module in (exactlin, structures, constructions, discovery,
                       theorems):
            for name in [n for n, v in vars(module).items() if v is original]:
                stack.enter_context(mock.patch.object(module, name, counter))
        assert verify_theorem(tid, **kwargs).passed
    return counter.call_count


class TestRepeatedChecks:
    """A pipeline checks each hypothesis once: the law part of an operator
    checker runs alone where the report holds the parameter verdicts, and a
    construction's list is not checked again."""

    @pytest.mark.parametrize("tid, original, per_instance", [
        ("T4", exactlin.is_algebra_map, 2),
        ("T5", exactlin.is_algebra_map, 4),
        ("T11", structures.check_inf_hom_bialgebra, 2),
        ("T12", structures.check_bihom_associative, 1),
    ])
    def test_calls_per_instance(self, tid, original, per_instance):
        instances = catalogue_instances(tid)
        for kwargs, desc in instances[::max(1, len(instances) // 8)]:
            assert _calls(original, tid, kwargs) == per_instance, desc
