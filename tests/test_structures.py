import itertools
import random
from fractions import Fraction

import pytest

from bihomcheck.discovery import catalogue_entry
from bihomcheck.exactlin import (
    BilinearOp,
    Comultiplication,
    LinearMap,
    ShapeError,
    Tensor2,
    bilinear_equal,
    first_failure,
    is_algebra_map,
    is_coalgebra_map,
    vec_add,
)
from bihomcheck.structures import (
    AlphaBetaRB,
    AlphaPowerDerivation,
    AlphaPowerRB,
    BiHomAlgebra,
    BiHomDendriform,
    BraceRB,
    HomCoalgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
    InvalidParameterError,
    LieAlphaPowerRB,
    ParenRB,
    TauSigmaDerivation,
    check_aybe,
    check_bihom_associative,
    check_bihom_dendriform,
    check_derivation,
    check_hom_coassociative,
    check_hom_lie,
    check_hom_novikov,
    check_hom_prelie,
    check_inf_hom_bialgebra,
    check_infinitesimal_compat,
    check_rota_baxter,
    kind_law,
)

F = Fraction


def diag(*values):
    return LinearMap.diagonal(values)


def commutator(mu: BilinearOp) -> BilinearOp:
    d = mu.dim
    return BilinearOp([[
        [mu.cube[i][j][k] - mu.cube[j][i][k] for k in range(d)]
        for j in range(d)] for i in range(d)])


class TestBiHomAssociative:
    def test_zero_product_any_maps(self, id2, sgn):
        a = BiHomAlgebra(BilinearOp.zero(2), sgn, id2)
        assert check_bihom_associative(a).passed

    def test_matrix_algebra(self, m2):
        assert check_bihom_associative(m2).passed

    def test_na2_fails_at_first_triple(self, na2):
        v = check_bihom_associative(na2)
        assert not v.passed
        assert v.law == "bihom-associativity"
        assert v.witness.indices == (0, 0, 0)
        # u(uu) = uv = 0, (uu)u = vu = u
        assert v.witness.lhs == (F(0), F(0))
        assert v.witness.rhs == (F(1), F(0))

    def test_unit_laws(self, dx2):
        assert dx2.unit is not None
        assert check_bihom_associative(dx2).passed
        bad = BiHomAlgebra(dx2.mu, dx2.alpha, dx2.beta, unit=(F(0), F(1)))
        v = check_bihom_associative(bad)
        assert not v.passed and v.law == "right-unit"

    def test_noncommuting_maps_fail_first(self, m2, conj_d):
        swap = LinearMap([[0, 1], [1, 0]])
        a = BiHomAlgebra(BilinearOp.zero(2), swap, diag(1, 2))
        v = check_bihom_associative(a)
        assert not v.passed and v.law == "structure-maps-commute"

    def test_nonmultiplicative_map_fails(self, n2, id2):
        a = BiHomAlgebra(n2.mu, diag(1, 2), id2)
        v = check_bihom_associative(a)
        assert not v.passed and v.law == "alpha-multiplicative"

    def test_nonmultiplicative_beta_fails(self, n2, id2):
        # beta commutes with alpha = id; beta(uu) = beta(v) = -(u + v) but
        # beta(u) beta(u) = (u + v)(u + v) = v
        a = BiHomAlgebra(n2.mu, id2, LinearMap([[-1, -1], [-1, -1]]))
        v = check_bihom_associative(a)
        assert not v.passed and v.law == "beta-multiplicative"
        assert v.witness.indices == (0, 0)

    def test_unit_moved_by_beta_fails(self, n2, id2):
        # beta(v) = 0 != v; without this check the unit fails a unit law
        a = BiHomAlgebra(n2.mu, id2, LinearMap([[0, 0], [-1, 0]]),
                         unit=(F(0), F(1)))
        v = check_bihom_associative(a)
        assert not v.passed and v.law == "unit-beta-fixed"


class TestHomCoassociative:
    def test_zero_coproduct(self, id2):
        c = HomCoalgebra(Comultiplication.zero(2), diag(1, -1))
        assert check_hom_coassociative(c).passed

    def test_dual_numbers_splitting(self, id2):
        delta = Comultiplication.from_images(2, {1: {(1, 1): 1}})
        assert check_hom_coassociative(HomCoalgebra(delta, id2)).passed

    def test_one_sided_splitting_fails(self, id2):
        # delta(u) = v (x) u: re-splitting the right leg gives v (x) v (x) u
        # while the left leg gives 0
        delta = Comultiplication.from_images(2, {0: {(1, 0): 1}})
        v = check_hom_coassociative(HomCoalgebra(delta, id2))
        assert not v.passed
        assert v.law == "hom-coassociativity"
        assert v.witness.indices == (0,)

    def test_incompatible_structure_map_fails(self):
        delta = Comultiplication.from_images(2, {1: {(1, 1): 1}})
        v = check_hom_coassociative(HomCoalgebra(delta, diag(1, 2)))
        assert not v.passed and v.law == "comultiplicative"


class TestInfinitesimalCompat:
    def test_zero_coproduct(self, dx2, id2):
        b = InfHomBialgebra(dx2.mu, Comultiplication.zero(2), id2)
        assert check_infinitesimal_compat(b).passed
        assert check_inf_hom_bialgebra(b).passed

    def test_dual_numbers_instance(self, dx2_infbialg):
        assert check_infinitesimal_compat(dx2_infbialg).passed
        assert check_inf_hom_bialgebra(dx2_infbialg).passed

    def test_group_like_unit_fails(self, dx2, id2):
        # delta(1) = 1 (x) 1 doubles under the derivation rule
        delta = Comultiplication.from_images(2, {0: {(0, 0): 1}})
        v = check_infinitesimal_compat(InfHomBialgebra(dx2.mu, delta, id2))
        assert not v.passed
        assert v.law == "coproduct-derivation"
        assert v.witness.indices == (0, 0)


class TestBiHomDendriform:
    def test_zero_operations(self, id2):
        d = BiHomDendriform(BilinearOp.zero(2), BilinearOp.zero(2), id2, id2)
        assert check_bihom_dendriform(d).passed

    def test_one_sided_embedding_is_dendriform(self, m2, id4):
        # (prec, succ) = (mu, 0) satisfies all three axioms for any
        # associative mu, as does (0, mu)
        assert check_bihom_dendriform(
            BiHomDendriform(m2.mu, BilinearOp.zero(4), id4, id4)).passed
        assert check_bihom_dendriform(
            BiHomDendriform(BilinearOp.zero(4), m2.mu, id4, id4)).passed

    def test_doubled_product_fails_left_axiom(self, m2, id4):
        d = BiHomDendriform(m2.mu, m2.mu, id4, id4)
        v = check_bihom_dendriform(d)
        assert not v.passed
        assert v.law == "dend-left"
        assert v.witness.indices == (0, 0, 0)
        # (e11 e11) e11 = e11 against e11 (e11 e11 + e11 e11) = 2 e11
        assert v.witness.lhs[0] == F(1)
        assert v.witness.rhs[0] == F(2)


class TestHomPreLie:
    def test_commutative_associative_is_prelie(self, n2, dx2, id2, sgn, neg_x):
        assert check_hom_prelie(HomPreLie(n2.mu, id2)).passed
        assert check_hom_prelie(HomPreLie(dx2.mu, id2)).passed
        # commutative Hom-associative with nontrivial structure map too
        assert check_hom_prelie(HomPreLie(n2.mu, sgn)).passed
        twisted = BilinearOp([[neg_x.apply(dx2.mu.basis_product(i, j))
                               for j in range(2)] for i in range(2)])
        assert check_hom_prelie(HomPreLie(twisted, neg_x)).passed

    def test_zero_product(self, sgn):
        assert check_hom_prelie(HomPreLie(BilinearOp.zero(2), sgn)).passed

    def test_na2_fails(self, na2):
        # associator symmetry cannot fail on a diagonal triple (x = y makes
        # the two sides identical), so the smallest witness has x != y
        v = check_hom_prelie(HomPreLie(na2.mu, na2.alpha))
        assert not v.passed
        assert v.law == "prelie-associator-symmetry"
        assert v.witness.indices == (0, 1, 0)
        # A(u,v,u) = u(vu) - (uv)u = v, A(v,u,u) = v(uu) - (vu)u = -v
        assert v.witness.lhs == (F(0), F(1))
        assert v.witness.rhs == (F(0), F(-1))


class TestHomNovikov:
    def test_zero_product(self, sgn):
        assert check_hom_novikov(HomPreLie(BilinearOp.zero(2), sgn)).passed

    def test_matrix_product_fails_right_commutativity(self, m2, id4):
        v = check_hom_novikov(HomPreLie(m2.mu, id4))
        assert not v.passed
        assert v.law == "right-commutativity"
        # (e11 e11) e12 = e12 but (e11 e12) e11 = 0
        assert v.witness.indices == (0, 0, 1)

    def test_novikov_implies_prelie(self, n2, dx2, id2):
        rng = random.Random(7)
        for _ in range(50):
            cube = [[[F(rng.randint(-1, 1)) for _ in range(2)]
                     for _ in range(2)] for _ in range(2)]
            p = HomPreLie(BilinearOp(cube), id2)
            if check_hom_novikov(p).passed:
                assert check_hom_prelie(p).passed


class TestHomLie:
    def test_zero_bracket(self, sgn):
        assert check_hom_lie(HomLie(BilinearOp.zero(2), sgn)).passed

    def test_matrix_commutator(self, m2, id4):
        assert check_hom_lie(HomLie(commutator(m2.mu), id4)).passed

    def test_skew_failure_at_smallest_pair(self, id2):
        # [e0, e1] = e0 and every other product 0: (0, 1) and (1, 0) fail
        bracket = BilinearOp.from_products(2, {(0, 1): (1, 0)})
        v = check_hom_lie(HomLie(bracket, id2))
        assert not v.passed and v.law == "skew-symmetry"
        assert v.witness.indices == (0, 1)

    def test_swap_map_not_multiplicative(self):
        # [u, v] = u = -[v, u], alpha swaps u and v
        bracket = BilinearOp.from_products(
            2, {(0, 1): (1, 0), (1, 0): (-1, 0)})
        swap = LinearMap([[0, 1], [1, 0]])
        v = check_hom_lie(HomLie(bracket, swap))
        assert not v.passed
        assert v.law == "alpha-bracket-multiplicative"
        assert v.witness.indices == (0, 1)

    @staticmethod
    def _holds_rearranged_jacobi(lie: HomLie) -> bool:
        # [alpha(a), [b, c]] = [[a, b], alpha(c)] + [alpha(b), [a, c]]
        br, al = lie.bracket, lie.alpha
        d = br.dim
        for i, j, k in itertools.product(range(d), repeat=3):
            lhs = br.apply(al.column(i), br.basis_product(j, k))
            rhs = vec_add(br.apply(br.basis_product(i, j), al.column(k)),
                          br.apply(al.column(j), br.basis_product(i, k)))
            if lhs != rhs:
                return False
        return True

    def test_jacobi_consequence_identity(self, m2, id4):
        lie = HomLie(commutator(m2.mu), id4)
        assert check_hom_lie(lie).passed
        assert self._holds_rearranged_jacobi(lie)

    def test_jacobi_consequence_over_bracket_grid(self, id2, sgn):
        # every skew dim-2 bracket over {-1,0,1} passing the checker also
        # satisfies the rearranged identity (a consequence of skewness and
        # the cyclic identity, so it must hold on all passing structures)
        passing = 0
        for a, b in itertools.product((-1, 0, 1), repeat=2):
            bracket = BilinearOp.from_products(
                2, {(0, 1): (a, b), (1, 0): (-a, -b)})
            for alpha in (id2, sgn):
                lie = HomLie(bracket, alpha)
                if check_hom_lie(lie).passed:
                    passing += 1
                    assert self._holds_rearranged_jacobi(lie)
        assert passing >= 9


class TestDerivation:
    def test_zero_map(self, n2, id2):
        z = LinearMap.zero(2, 2)
        assert check_derivation(z, n2.mu, AlphaPowerDerivation(id2, 0)).passed
        assert check_derivation(z, n2.mu, TauSigmaDerivation(id2, id2)).passed

    def test_weighted_diagonal(self, n2, id2):
        D = diag(1, 2)
        assert check_derivation(D, n2.mu, AlphaPowerDerivation(id2, 0)).passed

    def test_leibniz_failure(self, n2, id2):
        v = check_derivation(diag(1, 1), n2.mu, AlphaPowerDerivation(id2, 0))
        assert not v.passed and v.law == "leibniz"
        assert v.witness.indices == (0, 0)

    def test_commutation_requirement(self, n2, sgn):
        D = LinearMap([[0, 0], [1, 0]])  # maps u -> v; commutes? sgn D != D sgn
        v = check_derivation(D, n2.mu, AlphaPowerDerivation(sgn, 1))
        assert not v.passed and v.law == "commutes-with-alpha"

    def test_invalid_parameter_map(self, n2, id2):
        with pytest.raises(InvalidParameterError):
            check_derivation(diag(1, 2), n2.mu,
                             TauSigmaDerivation(diag(1, 2), id2))


class TestRotaBaxter:
    def test_zero_operator_all_kinds(self, n2, id2, sgn):
        z = LinearMap.zero(2, 2)
        assert check_rota_baxter(z, n2.mu, ParenRB(id2, sgn)).passed
        assert check_rota_baxter(z, n2.mu, BraceRB(sgn, id2)).passed
        assert check_rota_baxter(z, n2.mu, AlphaPowerRB(sgn, 3)).passed
        assert check_rota_baxter(z, n2.mu, AlphaBetaRB(id2, sgn)).passed

    def test_projection_operator_on_n2(self, n2, id2):
        R = diag(0, 1)
        assert check_rota_baxter(R, n2.mu, AlphaPowerRB(id2, 0)).passed

    def test_matrix_sandwich_operator(self, m2, id4):
        e12 = (F(0), F(1), F(0), F(0))
        cols = []
        for j in range(4):
            e = tuple(F(1 if t == j else 0) for t in range(4))
            cols.append(m2.mu.apply(e12, m2.mu.apply(e, e12)))
        R = LinearMap.from_columns(cols)
        assert check_rota_baxter(R, m2.mu, AlphaPowerRB(id4, 0)).passed
        # the same operator on the commutator bracket, twisted-bracket kind
        br = commutator(m2.mu)
        assert check_rota_baxter(R, br, LieAlphaPowerRB(id4, 0)).passed

    def test_identity_is_not_rota_baxter(self, dx2, id2):
        v = check_rota_baxter(id2, dx2.mu, AlphaPowerRB(id2, 0))
        assert not v.passed and v.law == "rb-identity"

    def test_invalid_sigma(self, n2, id2):
        with pytest.raises(InvalidParameterError):
            check_rota_baxter(diag(0, 1), n2.mu, ParenRB(diag(1, 2), id2))


def _valid_kinds(f, g):
    """Every Rota-Baxter and derivation kind whose parameters are the
    commuting algebra maps f and g."""
    pairs = [(f, f), (f, g), (g, f), (g, g)]
    for a, b in pairs:
        yield from (TauSigmaDerivation(a, b), ParenRB(a, b), BraceRB(a, b),
                    AlphaBetaRB(a, b))
    for a, e in itertools.product((f, g), range(3)):
        yield from (AlphaPowerDerivation(a, e), AlphaPowerRB(a, e),
                    LieAlphaPowerRB(a, e))


class TestLawPart:
    """kind_law, the law part of check_rota_baxter and check_derivation,
    gives the public checker's verdict whenever the parameters are valid."""

    HALF_GRID = (F(-1), F(0), F(1), F(1, 2))

    def _candidates(self, rng, dim, count):
        yield LinearMap.zero(dim, dim)
        yield LinearMap.identity(dim)
        for _ in range(count):
            yield LinearMap([[rng.choice(self.HALF_GRID) if rng.random() < 0.4
                              else F(0) for _ in range(dim)]
                             for _ in range(dim)])

    def test_same_verdict_as_public_checker(self, n2, dx2, m2, id2, id4, sgn,
                                            neg_x, conj_d):
        rng = random.Random(18)
        outcomes = set()
        for mu, f, g, count in ((n2.mu, id2, sgn, 12), (dx2.mu, id2, neg_x, 12),
                                (m2.mu, id4, conj_d, 2)):
            for kind in _valid_kinds(f, g):
                public = (check_derivation if kind.form == "derivation"
                          else check_rota_baxter)
                for X in self._candidates(rng, mu.dim, count):
                    v = public(X, mu, kind)
                    assert kind_law(X, mu, kind) == v, (kind, X)
                    outcomes.add(v.law)
        assert {None, "rb-identity", "leibniz", "commutes-with-alpha",
                "commutes-with-beta"} <= outcomes

    @pytest.mark.parametrize("check, kind, text", [
        (check_rota_baxter, ParenRB(diag(1, 2), LinearMap.identity(2)),
         "sigma is not an algebra map (fails at (0, 0))"),
        (check_rota_baxter, ParenRB(LinearMap.identity(2), diag(1, 2)),
         "tau is not an algebra map (fails at (0, 0))"),
        (check_rota_baxter, BraceRB(diag(1, 2), diag(1, 2)),
         "sigma is not an algebra map (fails at (0, 0))"),
        (check_derivation, TauSigmaDerivation(diag(1, 2), diag(1, 2)),
         "tau is not an algebra map (fails at (0, 0))"),
        (check_derivation, TauSigmaDerivation(LinearMap.identity(2),
                                              diag(1, 2)),
         "sigma is not an algebra map (fails at (0, 0))"),
        (check_derivation, AlphaPowerDerivation(diag(1, 2), 1),
         "alpha is not an algebra map (fails at (0, 0))"),
        (check_rota_baxter, AlphaPowerRB(diag(1, 2), 0),
         "alpha is not an algebra map (fails at (0, 0))"),
        (check_rota_baxter, AlphaBetaRB(LinearMap([[1, 0], [1, 1]]),
                                        diag(1, 2)),
         "beta is not an algebra map (fails at (0, 0))"),
        (check_rota_baxter, AlphaBetaRB(diag(-1, 1), LinearMap([[1, 0],
                                                                [1, 1]])),
         "alpha and beta do not commute"),
        (check_rota_baxter, LieAlphaPowerRB(diag(1, 2), 1),
         "alpha is not an algebra map (fails at (0, 0))"),
    ])
    def test_invalid_parameter_text(self, n2, check, kind, text):
        # diag(1, 2) is not an algebra map of n2; the shear and the sign
        # flip are, and they do not commute
        with pytest.raises(InvalidParameterError) as exc:
            check(LinearMap.zero(2, 2), n2.mu, kind)
        assert str(exc.value) == text


class TestShapeErrorOrder:
    """Aggregate checkers stop at the first failing law, but a shape error
    anywhere in their input is raised before any law is compared."""

    def test_bialgebra_alpha_checked_against_coproduct(self, na2):
        # na2 fails associativity at (0, 0, 0), but Delta does not fit mu,
        # so the bundle itself is refused before any law can be checked
        with pytest.raises(ShapeError, match=r"^delta has dim 3, not 2$"):
            InfHomBialgebra(na2.mu, Comultiplication.zero(3),
                            LinearMap.identity(2))

    @pytest.mark.parametrize("alpha", ["id4", "conj_d"])
    @pytest.mark.parametrize("X", [LinearMap.zero(4, 4), LinearMap.identity(4),
                                   LinearMap.from_columns(
                                       [[0] * 4, [1, 0, 0, 0], [0] * 4, [0] * 4])])
    def test_kind_law_non_square_beta(self, m2, request, alpha, X):
        # the X sending e12 to e11 fails commutes-with-alpha for conj_d, and
        # the 4x5 beta still raises
        kind = AlphaBetaRB(request.getfixturevalue(alpha), LinearMap.zero(4, 5))
        with pytest.raises(ShapeError, match=r"^cannot compose: 5 != 4$"):
            kind_law(X, m2.mu, kind)


class TestBundleShapes:
    """Bundles check their shapes, not their laws, when they are built."""

    def test_list_unit_is_frozen(self, m2, id4):
        a = BiHomAlgebra(m2.mu, id4, id4, [1, 0, 0, 1])
        assert a == BiHomAlgebra(m2.mu, id4, id4, (1, 0, 0, 1))
        assert check_bihom_associative(a).passed

    @pytest.mark.parametrize("name", ["m2", "na2"])
    def test_wrong_length_unit_is_shape_error(self, request, name):
        # na2 fails associativity: the length is checked before any law
        a = request.getfixturevalue(name)
        with pytest.raises(ShapeError, match=rf"^unit has dim 3, not {a.dim}$"):
            BiHomAlgebra(a.mu, a.alpha, a.beta, (1, 0, 0))


def _law_inputs(name):
    """(checker, misshaped input, input) of a law whose arguments are not
    all held by one bundle, so only the law can check their shapes."""
    def get(entry_id):
        return catalogue_entry(entry_id).structure
    m2, dx2, conj_d = get("m2"), get("dx2"), get("conj_d")
    id3, id4 = LinearMap.identity(3), LinearMap.identity(4)
    e12_to_e11 = LinearMap.from_columns([[0] * 4, [1, 0, 0, 0], [0] * 4, [0] * 4])
    return {
        "kind_law": (kind_law,
                     (id4, m2.mu, AlphaBetaRB(id4, LinearMap.zero(4, 5))),
                     (e12_to_e11, m2.mu, AlphaBetaRB(conj_d, id4))),
        "is_algebra_map": (is_algebra_map, (id3, m2.mu), (conj_d, m2.mu)),
        "is_coalgebra_map": (is_coalgebra_map,
                             (id3, get("dx2-infbialg").delta),
                             (get("neg_x"), get("dx2-infbialg").delta)),
        "bilinear_equal": (bilinear_equal, (m2.mu, dx2.mu),
                           (get("n2").mu, get("na2").mu)),
        "check_aybe": (check_aybe, (m2, Tensor2.zero(2)),
                       (dx2, Tensor2.from_pairs(2, {(0, 0): 1}))),
    }[name]


@pytest.mark.parametrize("name", ["kind_law", "is_algebra_map",
                                  "is_coalgebra_map", "bilinear_equal",
                                  "check_aybe"])
def test_laws_check_shapes_when_called(name):
    """``.laws`` raises a shape error before its stream is read, and the
    checker is ``first_failure`` of that stream."""
    check, bad, good = _law_inputs(name)
    with pytest.raises(ShapeError):
        check.laws(*bad)
    assert first_failure(check.laws(*good)) == check(*good)


class TestAybe:
    def test_zero_tensor(self, m2):
        assert check_aybe(m2, Tensor2.zero(4)).passed

    def test_nilpotent_solution(self, m2):
        r = Tensor2.from_pairs(4, {(1, 1): 1})
        assert check_aybe(m2, r).passed

    def test_unit_tensor_fails_residue(self, dx2):
        r = Tensor2.from_pairs(2, {(0, 0): 1})
        v = check_aybe(dx2, r)
        assert not v.passed
        assert v.law == "yang-baxter-residue"
        assert v.witness.indices == (0, 0, 0)
        assert v.witness.lhs == (F(1),)

    @pytest.mark.parametrize("which", ["alpha", "beta"])
    @pytest.mark.parametrize("rows", [[[1, 0], [0, 1], [0, 0]], [[1, 0]]])
    def test_non_square_map_is_shape_error(self, dx2, id2, which, rows):
        # check_aybe and aybe_residue index alpha and beta as 2x2 maps, so
        # the bundle refuses a 3x2 or 1x2 map before either can see it
        maps = {"alpha": id2, "beta": id2, which: LinearMap(rows)}
        with pytest.raises(ShapeError, match=f"^{which} must be a 2x2 map$"):
            BiHomAlgebra(dx2.mu, maps["alpha"], maps["beta"])

    def test_invariance_failure(self, dx2, neg_x):
        twisted = BiHomAlgebra(dx2.mu, neg_x, neg_x)
        r = Tensor2.from_pairs(2, {(0, 1): 1})  # (neg_x (x) neg_x) r = -r
        v = check_aybe(twisted, r)
        assert not v.passed and v.law == "alpha-invariance"


class TestWitnessMinimality:
    def _smaller_triples(self, witness, dim):
        for t in itertools.product(range(dim), repeat=3):
            if t < witness:
                yield t

    def test_bihom_assoc_witness_is_lex_smallest(self, id2):
        rng = random.Random(11)
        found = 0
        while found < 20:
            cube = [[[F(rng.randint(-1, 1)) for _ in range(2)]
                     for _ in range(2)] for _ in range(2)]
            mu = BilinearOp(cube)
            v = check_bihom_associative(BiHomAlgebra(mu, id2, id2))
            if v.passed or v.law != "bihom-associativity":
                continue
            found += 1
            for (i, j, k) in self._smaller_triples(v.witness.indices, 2):
                lhs = mu.apply(tuple(F(1 if t == i else 0) for t in range(2)),
                               mu.basis_product(j, k))
                rhs = mu.apply(mu.basis_product(i, j),
                               tuple(F(1 if t == k else 0) for t in range(2)))
                assert lhs == rhs
