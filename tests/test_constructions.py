from fractions import Fraction

import pytest

from bihomcheck.constructions import (
    PreconditionError,
    abrb_operator,
    aguiar_bullet,
    analoglie_prelie,
    aybe_residue,
    delta_r,
    dendriform_circ,
    dendriform_from_paren_rb,
    dendriform_sum,
    gengd_novikov,
    infprelie_bullet,
    moregendend_triple,
    mu_delta_map,
    run_steps,
    simprop_dendriform,
    yau_twist_assoc,
    yau_twist_dendriform,
    yau_twist_prelie,
)
from bihomcheck.discovery import (
    RBTarget,
    SearchSpec,
    catalogue_entry,
    search,
    twist_factory,
)
from bihomcheck.exactlin import (
    BilinearOp,
    Comultiplication,
    LinearMap,
    Tensor2,
    Tensor3,
    power,
)
from bihomcheck.structures import (
    AlphaPowerRB,
    BiHomDendriform,
    HomAlgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
    InvalidParameterError,
    check_bihom_associative,
    check_bihom_dendriform,
    check_hom_novikov,
    check_hom_prelie,
)

F = Fraction


def diag(*values):
    return LinearMap.diagonal(values)


def r_n2():
    return diag(0, 1)


def sandwich_operator(m2):
    """a -> e12 a e12 in the matrix-unit basis."""
    e12 = (F(0), F(1), F(0), F(0))
    cols = []
    for j in range(4):
        e = tuple(F(1 if t == j else 0) for t in range(4))
        cols.append(m2.mu.apply(e12, m2.mu.apply(e, e12)))
    return LinearMap.from_columns(cols)


def commutator(mu):
    d = mu.dim
    return BilinearOp([[
        [mu.cube[i][j][k] - mu.cube[j][i][k] for k in range(d)]
        for j in range(d)] for i in range(d)])


class TestYauTwistAssoc:
    def test_identity_twist(self, m2, id4):
        twisted = yau_twist_assoc(m2.mu, id4, id4)
        assert twisted.mu == m2.mu

    def test_sign_twist_of_dual_numbers(self, dx2, neg_x, id2):
        twisted = yau_twist_assoc(dx2.mu, neg_x, id2)
        one = (F(1), F(0))
        x = (F(0), F(1))
        assert twisted.mu.apply(x, x) == (F(0), F(0))
        assert twisted.mu.apply(one, x) == x          # alpha(1) x = x
        assert twisted.mu.apply(x, one) == (F(0), F(-1))  # alpha(x) 1 = -x
        assert check_bihom_associative(twisted).passed

    def test_rejects_nonassociative_input(self, na2, id2):
        with pytest.raises(PreconditionError) as exc:
            yau_twist_assoc(na2.mu, id2, id2)
        assert exc.value.hypothesis == "m-associative"

    def test_rejects_noncommuting_maps(self, n2, sgn):
        other = LinearMap([[1, 0], [1, 1]])  # algebra map of n2, sgn-noncommuting
        with pytest.raises(PreconditionError) as exc:
            yau_twist_assoc(n2.mu, sgn, other)
        assert exc.value.hypothesis == "alpha-beta-commute"


class TestYauTwistDendriform:
    def test_zero_dendriform(self, id2, sgn):
        zero = BiHomDendriform(BilinearOp.zero(2), BilinearOp.zero(2), id2, id2)
        twisted = yau_twist_dendriform(zero, sgn, sgn)
        assert twisted.prec == BilinearOp.zero(2)
        assert check_bihom_dendriform(twisted).passed

    def test_sign_twist_of_split_pair(self, n2, id2, sgn):
        base = dendriform_from_paren_rb(n2.mu, id2, id2, r_n2())
        twisted = yau_twist_dendriform(base, sgn, sgn)
        assert check_bihom_dendriform(twisted).passed
        assert twisted.alpha == sgn

    def test_rejects_non_dendriform(self, m2, id4):
        bad = BiHomDendriform(m2.mu, m2.mu, id4, id4)
        with pytest.raises(PreconditionError) as exc:
            yau_twist_dendriform(bad, id4, id4)
        assert exc.value.hypothesis == "dendriform"


class TestYauTwistPreLie:
    def test_identity_twist(self, dx2, id2):
        p = HomPreLie(dx2.mu, id2)
        assert yau_twist_prelie(p, id2).mu == dx2.mu

    def test_projection_kills_bullet(self, dx2_infbialg):
        bullet = aguiar_bullet(dx2_infbialg)
        proj = diag(1, 0)
        twisted = yau_twist_prelie(bullet, proj)
        assert twisted.mu == BilinearOp.zero(2)
        assert check_hom_prelie(twisted).passed

    def test_rejects_non_prelie(self, na2, id2):
        with pytest.raises(PreconditionError):
            yau_twist_prelie(HomPreLie(na2.mu, id2), id2)


class TestDendriformSumAndCirc:
    def test_zero(self, id2):
        zero = BiHomDendriform(BilinearOp.zero(2), BilinearOp.zero(2), id2, id2)
        assert dendriform_sum(zero).mu == BilinearOp.zero(2)
        assert dendriform_circ(zero).mu == BilinearOp.zero(2)

    def test_split_pair_recombines_along_operator(self, n2, id2):
        dend = dendriform_from_paren_rb(n2.mu, id2, id2, r_n2())
        total = dendriform_sum(dend)
        assert check_bihom_associative(total).passed
        # x*y = x R(y) + R(x) y with R = diag(0,1) on n2 is identically zero
        assert total.mu == BilinearOp.zero(2)

    def test_matrix_circ_is_classical_prelie(self, m2, id4):
        dend = dendriform_from_paren_rb(m2.mu, id4, id4, sandwich_operator(m2))
        circ = dendriform_circ(dend)
        assert check_hom_prelie(circ).passed
        assert circ.alpha == id4

    def test_circ_requires_equal_maps(self, n2, id2, sgn):
        dend = BiHomDendriform(BilinearOp.zero(2), BilinearOp.zero(2), id2, sgn)
        with pytest.raises(InvalidParameterError):
            dendriform_circ(dend)


class TestDendriformFromParenRB:
    def test_zero_operator(self, m2, id4):
        dend = dendriform_from_paren_rb(m2.mu, id4, id4, LinearMap.zero(4, 4))
        assert dend.prec == BilinearOp.zero(4)
        assert dend.succ == BilinearOp.zero(4)

    def test_matrix_instance_passes(self, m2, id4):
        dend = dendriform_from_paren_rb(m2.mu, id4, id4, sandwich_operator(m2))
        assert check_bihom_dendriform(dend).passed
        # a < b = a R(b): e21 < e21 = e21 e12 = e22... times? R(e21) = e12
        assert dend.prec.basis_product(2, 2) == (F(0), F(0), F(0), F(1))

    def test_rejects_non_rb(self, dx2, id2):
        with pytest.raises(PreconditionError) as exc:
            dendriform_from_paren_rb(dx2.mu, id2, id2, id2)
        assert exc.value.hypothesis == "paren-rota-baxter"


class TestSimprop:
    def test_zero_operator(self, n2, id2):
        dend = simprop_dendriform(n2, id2, id2, None, LinearMap.zero(2, 2))
        assert dend.prec == BilinearOp.zero(2)

    def test_identity_specialization(self, n2, id2):
        dend = simprop_dendriform(n2, id2, id2, None, r_n2())
        assert check_bihom_dendriform(dend).passed

    def test_matrix_instance_with_eta(self, m2, id4, conj_d):
        R = sandwich_operator(m2)
        dend = simprop_dendriform(m2, id4, id4, conj_d, R)
        assert check_bihom_dendriform(dend).passed
        assert dend.alpha == id4
        assert dend.beta == conj_d

    def test_rejects_noncommuting_operator(self, m2, id4):
        # conjugation by the swap matrix (e11 <-> e22, e12 <-> e21) is an
        # algebra map of m2 but does not commute with the sandwich operator
        R = sandwich_operator(m2)
        swap_conj = LinearMap.from_columns([
            (F(0), F(0), F(0), F(1)),
            (F(0), F(0), F(1), F(0)),
            (F(0), F(1), F(0), F(0)),
            (F(1), F(0), F(0), F(0)),
        ])
        with pytest.raises(PreconditionError) as exc:
            simprop_dendriform(m2, swap_conj, id4, None, R)
        assert exc.value.hypothesis == "commute(sigma,R)"


class TestMoregendend:
    def test_zero_operator(self, n2, id2):
        dend, total, circ = moregendend_triple(HomAlgebra(n2.mu, id2), 1,
                                               LinearMap.zero(2, 2))
        assert total.mu == BilinearOp.zero(2)
        assert circ.mu == BilinearOp.zero(2)

    def test_n2_circ_vanishes(self, n2, id2):
        dend, total, circ = moregendend_triple(HomAlgebra(n2.mu, id2), 0, r_n2())
        assert circ.mu == BilinearOp.zero(2)
        assert check_bihom_dendriform(dend).passed
        assert check_bihom_associative(total.as_bihom()).passed
        assert check_hom_prelie(circ).passed

    def test_structure_map_is_next_power(self, n2, sgn):
        h = HomAlgebra(n2.mu, sgn)
        dend, total, circ = moregendend_triple(h, 1, r_n2())
        assert circ.alpha == power(sgn, 2)
        assert check_hom_prelie(circ).passed

    def test_list_implies_simprop_list(self):
        """moregendend_triple splits with simprop_dendriform.build, because
        its own hypotheses imply simprop's for sigma = tau = alpha^n and
        eta = id.  Checked on every alpha^n-Rota-Baxter operator (n = 0, 1,
        2) found on dx2 and n2, twisted by neg_x / sgn and by the identity."""
        def verdicts(steps):
            out = []
            run_steps(steps, lambda name, v: out.append((name, bool(v))) or v)
            return out

        checked = 0
        for entry_id, twist in (("dx2", "neg_x"), ("n2", "sgn")):
            base = catalogue_entry(entry_id)
            for f in (catalogue_entry(twist).structure, LinearMap.identity(2)):
                a = twist_factory(base, (f, f))
                h = HomAlgebra(a.mu, a.alpha)
                for n in range(3):
                    an = power(h.alpha, n)
                    spec = SearchSpec(RBTarget(AlphaPowerRB(h.alpha, n)))
                    for R in search(spec, h):
                        own = verdicts(moregendend_triple.steps(h, n, R))
                        assert len(own) == 2 and all(v for _, v in own)
                        split = verdicts(simprop_dendriform.steps(
                            a, an, an, None, R))
                        assert len(split) == 20 and all(v for _, v in split)
                        assert (moregendend_triple(h, n, R)[0]
                                == simprop_dendriform(a, an, an, None, R))
                        checked += 1
        assert checked == 48


class TestAnaloglie:
    def test_zero_operator(self, m2, id4):
        lie = HomLie(commutator(m2.mu), id4)
        prelie = analoglie_prelie(lie, 0, LinearMap.zero(4, 4))
        assert prelie.mu == BilinearOp.zero(4)

    def test_matrix_commutator_instance(self, m2, id4):
        lie = HomLie(commutator(m2.mu), id4)
        prelie = analoglie_prelie(lie, 0, sandwich_operator(m2))
        assert check_hom_prelie(prelie).passed

    def test_abelian_bracket(self, id2):
        lie = HomLie(BilinearOp.zero(2), id2)
        prelie = analoglie_prelie(lie, 0, diag(2, 3))
        assert prelie.mu == BilinearOp.zero(2)


class TestAybeResidue:
    def test_zero(self, m2):
        assert not any(aybe_residue(m2, Tensor2.zero(4)).flatten())

    def test_nilpotent_solution(self, m2):
        assert not any(
            aybe_residue(m2, Tensor2.from_pairs(4, {(1, 1): 1})).flatten())

    def test_unit_tensor(self, dx2):
        res = aybe_residue(dx2, Tensor2.from_pairs(2, {(0, 0): 1}))
        expected = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        expected[0][0][0] = F(1)  # 1 (x) 1 (x) 1
        assert res == Tensor3(expected)


class TestAbrbOperator:
    def test_zero_solution(self, dx2):
        R = abrb_operator(dx2, Tensor2.zero(2))
        assert R == LinearMap.zero(2, 2)

    def test_matrix_solution(self, m2):
        R = abrb_operator(m2, Tensor2.from_pairs(4, {(1, 1): 1}))
        e12 = (F(0), F(1), F(0), F(0))
        zero = (F(0),) * 4
        assert R.column(2) == e12
        assert R.column(0) == zero and R.column(1) == zero and R.column(3) == zero

    def test_twisted_nilpotent_solution_gives_zero(self, dx2, neg_x):
        twisted = yau_twist_assoc(dx2.mu, neg_x, neg_x)
        R = abrb_operator(twisted, Tensor2.from_pairs(2, {(1, 1): 1}))
        assert R == LinearMap.zero(2, 2)

    def test_rejects_non_solution(self, dx2):
        with pytest.raises(PreconditionError) as exc:
            abrb_operator(dx2, Tensor2.from_pairs(2, {(0, 0): 1}))
        assert exc.value.hypothesis == "yang-baxter-solution"


class TestGengd:
    def test_zero_derivation(self, dx2, id2):
        p = gengd_novikov(HomAlgebra(dx2.mu, id2), 0, LinearMap.zero(2, 2))
        assert p.mu == BilinearOp.zero(2)

    def test_weighted_diagonal_on_n2(self, n2, id2):
        p = gengd_novikov(HomAlgebra(n2.mu, id2), 0, diag(1, 2))
        # u.u = u D(u) = uu = v; all other products vanish
        assert p.mu.basis_product(0, 0) == (F(0), F(1))
        assert p.mu.basis_product(0, 1) == (F(0), F(0))
        assert p.mu.basis_product(1, 0) == (F(0), F(0))
        assert p.mu.basis_product(1, 1) == (F(0), F(0))
        assert check_hom_novikov(p).passed

    def test_rejects_noncommutative(self, m2, id4):
        with pytest.raises(PreconditionError) as exc:
            gengd_novikov(HomAlgebra(m2.mu, id4), 0, LinearMap.zero(4, 4))
        assert exc.value.hypothesis == "mu-commutative"


class TestMuDelta:
    def test_zero_coproduct(self, dx2, id2):
        b = InfHomBialgebra(dx2.mu, Comultiplication.zero(2), id2)
        assert mu_delta_map(b) == LinearMap.zero(2, 2)

    def test_dual_numbers(self, dx2_infbialg):
        # D(x) = x.x = 0, D(1) = 0
        assert mu_delta_map(dx2_infbialg) == LinearMap.zero(2, 2)


class TestBullet:
    def test_zero_coproduct(self, dx2, id2):
        b = InfHomBialgebra(dx2.mu, Comultiplication.zero(2), id2)
        assert infprelie_bullet(b).mu == BilinearOp.zero(2)

    def test_dual_numbers_bullet_vanishes(self, dx2_infbialg):
        assert infprelie_bullet(dx2_infbialg).mu == BilinearOp.zero(2)

    def test_matrix_quasitriangular_value(self, m2_qt):
        bullet = infprelie_bullet(m2_qt)
        assert bullet.mu.basis_product(2, 2) == (F(1), F(0), F(0), F(-1))
        assert check_hom_prelie(bullet).passed

    def test_aguiar_form_matches(self, m2_qt):
        assert aguiar_bullet(m2_qt).mu == infprelie_bullet(m2_qt).mu

    def test_aguiar_requires_classical(self, dx2_infbialg):
        twisted = InfHomBialgebra(dx2_infbialg.mu, dx2_infbialg.delta,
                                  diag(1, 0))
        with pytest.raises(PreconditionError):
            aguiar_bullet(twisted)


class TestDeltaR:
    def test_zero(self, dx2, id2):
        d = delta_r(HomAlgebra(dx2.mu, id2), Tensor2.zero(2))
        assert d == Comultiplication.zero(2)

    def test_matrix_solution_images(self, m2, id4):
        d = delta_r(HomAlgebra(m2.mu, id4), Tensor2.from_pairs(4, {(1, 1): 1}))
        # delta(e21) = e12 (x) e11 - e22 (x) e12
        assert d.image(2) == Tensor2.from_pairs(4, {(1, 0): 1, (3, 1): -1})
        assert d.image(1) == Tensor2.zero(4)

    def test_nilpotent_twist(self, dx2, id2):
        d = delta_r(HomAlgebra(dx2.mu, id2), Tensor2.from_pairs(2, {(1, 1): 1}))
        assert d == Comultiplication.zero(2)
