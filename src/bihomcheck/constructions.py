"""Constructions turning one verified structure into another.

Every operation first runs the hypothesis checkers and refuses to construct
on failure (PreconditionError names the failed hypothesis), so a pipeline
can never report a vacuous pass on an invalid instance.  Where two closed
forms exist for the same object (the Yang-Baxter-induced operator, the
bullet product) both are computed and asserted equal.
"""

from __future__ import annotations

import itertools

from .exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    ShapeError,
    Tensor2,
    Tensor3,
    basis_vector,
    compose,
    is_algebra_map,
    maps_commute,
    nonzero_entries,
    power,
    tensor_sum,
    vec_add,
    vec_sub,
)
from .structures import (
    AlphaPowerDerivation,
    AlphaPowerRB,
    BiHomAlgebra,
    BiHomDendriform,
    BraceRB,
    HomAlgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
    InvalidParameterError,
    LieAlphaPowerRB,
    ParenRB,
    _require_square,
    check_bihom_associative,
    check_bihom_dendriform,
    check_classical_associative,
    check_derivation,
    check_hom_lie,
    check_hom_prelie,
    check_inf_hom_bialgebra,
    check_rota_baxter,
    is_commutative,
)


class PreconditionError(ValueError):
    """A construction hypothesis failed; carries the hypothesis name."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = hypothesis if not detail else f"{hypothesis}: {detail}"
        super().__init__(msg)


class InternalInconsistencyError(RuntimeError):
    """Two computations that must agree (two closed forms, or the search
    prefilter and the exact certifier) differ: a bug or a violated hypothesis."""


def _require(verdict_or_bool, hypothesis: str) -> None:
    if isinstance(verdict_or_bool, CheckVerdict):
        if not verdict_or_bool.passed:
            w = verdict_or_bool.witness
            raise PreconditionError(
                hypothesis, f"fails {verdict_or_bool.law} at {w.indices}")
    elif not verdict_or_bool:
        raise PreconditionError(hypothesis)


def _twisted_product(mu: BilinearOp, f: LinearMap, g: LinearMap) -> BilinearOp:
    """mu o (f (x) g) as a structure-constant cube."""
    g_cols = list(zip(*g.entries))
    return BilinearOp(tuple(tuple(mu.apply(u, v) for v in g_cols)
                            for u in zip(*f.entries)))


def _post_product(f: LinearMap, mu: BilinearOp) -> BilinearOp:
    """f o mu as a structure-constant cube."""
    d = mu.dim
    return BilinearOp(tuple(
        tuple(f.apply(mu.basis_product(i, j)) for j in range(d))
        for i in range(d)))


# ---------------------------------------------------------------------------
# Yau twists
# ---------------------------------------------------------------------------

def yau_twist_assoc(m: BilinearOp, alpha: LinearMap, beta: LinearMap) -> BiHomAlgebra:
    """Deform an associative product into mu o (alpha (x) beta).

    Requires m associative and alpha, beta commuting algebra maps; the
    result satisfies the twisted associativity by construction (and the
    theorem pipelines re-verify it).
    """
    _require(check_classical_associative(m), "m-associative")
    _require(is_algebra_map(alpha, m), "alpha-algebra-map")
    _require(is_algebra_map(beta, m), "beta-algebra-map")
    _require(maps_commute(alpha, beta), "alpha-beta-commute")
    return BiHomAlgebra(_twisted_product(m, alpha, beta), alpha, beta)


def yau_twist_dendriform(d: BiHomDendriform, alpha: LinearMap,
                         beta: LinearMap) -> BiHomDendriform:
    """Twist a classical dendriform pair into x <' y = alpha(x) < beta(y),
    x >' y = alpha(x) > beta(y) with structure maps (alpha, beta)."""
    if not (d.alpha.is_identity() and d.beta.is_identity()):
        raise PreconditionError("classical-dendriform",
                                "input must carry identity structure maps")
    _require(check_bihom_dendriform(d), "dendriform")
    _require(is_algebra_map(alpha, d.prec), "alpha-prec-multiplicative")
    _require(is_algebra_map(alpha, d.succ), "alpha-succ-multiplicative")
    _require(is_algebra_map(beta, d.prec), "beta-prec-multiplicative")
    _require(is_algebra_map(beta, d.succ), "beta-succ-multiplicative")
    _require(maps_commute(alpha, beta), "alpha-beta-commute")
    return BiHomDendriform(_twisted_product(d.prec, alpha, beta),
                           _twisted_product(d.succ, alpha, beta),
                           alpha, beta)


def yau_twist_prelie(p: HomPreLie, alpha: LinearMap) -> HomPreLie:
    """Twist a classical left pre-Lie product into alpha o mu."""
    if not p.alpha.is_identity():
        raise PreconditionError("classical-prelie",
                                "input must carry the identity structure map")
    _require(check_hom_prelie(p), "prelie")
    _require(is_algebra_map(alpha, p.mu), "alpha-prelie-morphism")
    return HomPreLie(_post_product(alpha, p.mu), alpha)


# ---------------------------------------------------------------------------
# Dendriform consequences
# ---------------------------------------------------------------------------

def dendriform_sum(d: BiHomDendriform) -> BiHomAlgebra:
    """x*y = x < y + x > y, same structure maps."""
    _require(check_bihom_dendriform(d), "dendriform")
    n = d.dim
    cube = tuple(tuple(vec_add(d.prec.basis_product(i, j),
                               d.succ.basis_product(i, j))
                       for j in range(n)) for i in range(n))
    return BiHomAlgebra(BilinearOp(cube), d.alpha, d.beta)


def dendriform_circ(d: BiHomDendriform) -> HomPreLie:
    """x o y = x > y - y < x; only defined when alpha = beta."""
    if d.alpha != d.beta:
        raise InvalidParameterError("circ product needs alpha = beta")
    _require(check_bihom_dendriform(d), "dendriform")
    n = d.dim
    cube = tuple(tuple(vec_sub(d.succ.basis_product(i, j),
                               d.prec.basis_product(j, i))
                       for j in range(n)) for i in range(n))
    return HomPreLie(BilinearOp(cube), d.alpha)


def dendriform_from_paren_rb(m: BilinearOp, sigma: LinearMap, tau: LinearMap,
                             R: LinearMap) -> BiHomDendriform:
    """Split an associative product along a (sigma,tau)-Rota-Baxter operator:
    a < b = a tau(R(b)), a > b = sigma(R(a)) b.  Classical output (identity
    structure maps)."""
    _require(check_classical_associative(m), "m-associative")
    _require(is_algebra_map(sigma, m), "sigma-algebra-map")
    _require(is_algebra_map(tau, m), "tau-algebra-map")
    _require(check_rota_baxter(R, m, ParenRB(sigma, tau)), "paren-rota-baxter")
    ident = LinearMap.identity(m.dim)
    prec = _twisted_product(m, ident, compose(tau, R))
    succ = _twisted_product(m, compose(sigma, R), ident)
    return BiHomDendriform(prec, succ, ident, ident)


def simprop_dendriform(a: BiHomAlgebra, sigma: LinearMap, tau: LinearMap,
                       eta: LinearMap | None, R: LinearMap) -> BiHomDendriform:
    """Split a twisted-associative product along a brace-type Rota-Baxter
    operator: x < y = sigma(x) R(eta(y)), x > y = R(x) tau(eta(y)); the
    output carries structure maps (alpha sigma, beta tau eta).

    Hypotheses are verified in order: twisted associativity of the ambient,
    sigma/tau/eta algebra maps, the brace identity for R, then pairwise
    commutation of all six maps.  eta defaults to the identity.
    """
    n = a.dim
    if eta is None:
        eta = LinearMap.identity(n)
    _require(check_bihom_associative(a), "bihom-associative")
    _require(is_algebra_map(sigma, a.mu), "sigma-algebra-map")
    _require(is_algebra_map(tau, a.mu), "tau-algebra-map")
    _require(is_algebra_map(eta, a.mu), "eta-algebra-map")
    _require(check_rota_baxter(R, a.mu, BraceRB(sigma, tau)), "brace-rota-baxter")
    named = [("alpha", a.alpha), ("beta", a.beta), ("sigma", sigma),
             ("tau", tau), ("eta", eta), ("R", R)]
    for (name1, f), (name2, g) in itertools.combinations(named, 2):
        _require(maps_commute(f, g), f"commute({name1},{name2})")
    taueta = compose(tau, eta)
    return BiHomDendriform(_twisted_product(a.mu, sigma, compose(R, eta)),
                           _twisted_product(a.mu, R, taueta),
                           compose(a.alpha, sigma),
                           compose(a.beta, taueta))


def moregendend_triple(h: HomAlgebra, n: int, R: LinearMap
                       ) -> tuple[BiHomDendriform, HomAlgebra, HomPreLie]:
    """From an alpha^n-Rota-Baxter operator on a Hom-associative algebra,
    build the split pair x < y = a^n(x)R(y), x > y = R(x)a^n(y) with map
    alpha^(n+1), plus its sum product and circ product."""
    _require(check_bihom_associative(h.as_bihom()), "hom-associative")
    _require(check_rota_baxter(R, h.mu, AlphaPowerRB(h.alpha, n)),
             "alpha-power-rota-baxter")
    an = power(h.alpha, n)
    dend = simprop_dendriform(h.as_bihom(), an, an, None, R)
    total = dendriform_sum(dend)
    circ = dendriform_circ(dend)
    return dend, HomAlgebra(total.mu, total.alpha), circ


def analoglie_prelie(l: HomLie, n: int, R: LinearMap) -> HomPreLie:
    """a . b = [R(a), alpha^n(b)] with structure map alpha^(n+1)."""
    _require(check_hom_lie(l), "hom-lie")
    _require(check_rota_baxter(R, l.bracket, LieAlphaPowerRB(l.alpha, n)),
             "lie-rota-baxter")
    return HomPreLie(_twisted_product(l.bracket, R, power(l.alpha, n)),
                     power(l.alpha, n + 1))


# ---------------------------------------------------------------------------
# Yang-Baxter machinery
# ---------------------------------------------------------------------------

def aybe_residue(a: BiHomAlgebra, r: Tensor2) -> Tensor3:
    """The obstruction tensor whose vanishing makes r a Yang-Baxter solution.

    Component formulas (NOT plain triple products; the structure maps sit
    inside each term):

        t12_23 = sum alpha(x_i) (x) y_i x_j (x) beta(y_j)
        t13_12 = sum x_i x_j   (x) beta(y_j) (x) beta(y_i)
        t23_13 = sum alpha(x_i) (x) alpha(x_j) (x) y_j y_i

    and the residue is t13_12 - t12_23 + t23_13.
    """
    _require_square(a.alpha, a.dim, "alpha")
    _require_square(a.beta, a.dim, "beta")
    if r.dim != a.dim:
        raise ShapeError("r does not live on the algebra")
    mu = a.mu
    al_cols, be_cols = list(zip(*a.alpha.entries)), list(zip(*a.beta.entries))
    pairs = nonzero_entries(r.coeffs)
    terms = []
    for p, q, cpq in pairs:                     # x_i (x) y_i = e_p (x) e_q
        for s, t, cst in pairs:                 # x_j (x) y_j = e_s (x) e_t
            c = cpq * cst
            # t13_12: x_i x_j (x) beta(y_j) (x) beta(y_i)
            terms.append((c, mu.basis_product(p, s), be_cols[t], be_cols[q]))
            # -t12_23: alpha(x_i) (x) y_i x_j (x) beta(y_j)
            terms.append((-c, al_cols[p], mu.basis_product(q, s), be_cols[t]))
            # t23_13: alpha(x_i) (x) alpha(x_j) (x) y_j y_i
            terms.append((c, al_cols[p], al_cols[s], mu.basis_product(t, q)))
    return Tensor3(tensor_sum(a.dim, 3, terms))


def abrb_operator(a: BiHomAlgebra, r: Tensor2) -> LinearMap:
    """The operator induced by a Yang-Baxter solution.

    Both closed forms are computed and must agree:

        R(v) = sum alpha beta^3(x_i) (v alpha^3(y_i))
             = sum (beta^3(x_i) v) alpha^3 beta(y_i)

    The mismatch case raises InternalInconsistencyError: by theorem the two
    expressions coincide whenever the hypotheses hold, so a difference
    signals a bug or a violated hypothesis.
    """
    from .structures import check_aybe

    _require(check_bihom_associative(a), "bihom-associative")
    _require(check_aybe(a, r), "yang-baxter-solution")
    d = a.dim
    mu, al, be = a.mu, a.alpha, a.beta
    b3 = power(be, 3)
    a3 = power(al, 3)
    ab3_cols = list(zip(*compose(al, b3).entries))
    b3_cols = list(zip(*b3.entries))
    a3_cols = list(zip(*a3.entries))
    a3b_cols = list(zip(*compose(a3, be).entries))
    pairs = nonzero_entries(r.coeffs)
    basis = [basis_vector(d, j) for j in range(d)]
    # R(v) = sum alpha beta^3(x_i) (v alpha^3(y_i)), for v = e_j
    cols1 = [tensor_sum(d, 1, [
        (c, mu.apply(ab3_cols[p], mu.apply(v, a3_cols[q])))
        for p, q, c in pairs]) for v in basis]
    # R(v) = sum (beta^3(x_i) v) alpha^3 beta(y_i)
    cols2 = [tensor_sum(d, 1, [
        (c, mu.apply(mu.apply(b3_cols[p], v), a3b_cols[q]))
        for p, q, c in pairs]) for v in basis]
    if cols1 != cols2:
        raise InternalInconsistencyError(
            "the two closed forms of the induced operator differ")
    return LinearMap.from_columns(cols1)


def delta_r(h: HomAlgebra, r: Tensor2) -> Comultiplication:
    """Principal comultiplication of a Yang-Baxter solution:
    Delta(b) = sum alpha(x_i) (x) y_i b - sum b x_i (x) alpha(y_i).

    The sign convention puts the invariant leg first; the CLI exposes a
    flag that negates r for cross-checking the opposite convention.
    """
    from .structures import check_aybe

    _require(check_aybe(h.as_bihom(), r), "yang-baxter-solution")
    mu = h.mu
    al_cols = list(zip(*h.alpha.entries))
    pairs = nonzero_entries(r.coeffs)           # x_i (x) y_i = e_p (x) e_q
    return Comultiplication([tensor_sum(h.dim, 2, [
        # alpha(x_i) (x) y_i b, for b = e_m
        *((c, al_cols[p], mu.basis_product(q, m)) for p, q, c in pairs),
        # -b x_i (x) alpha(y_i)
        *((-c, mu.basis_product(m, p), al_cols[q]) for p, q, c in pairs),
    ]) for m in range(h.dim)])


# ---------------------------------------------------------------------------
# Pre-Lie products from bialgebra data
# ---------------------------------------------------------------------------

def gengd_novikov(h: HomAlgebra, k: int, D: LinearMap) -> HomPreLie:
    """x . y = alpha^k(x) D(y) on a commutative Hom-associative algebra with
    an alpha^k-derivation D; the result carries structure map alpha^(k+1)."""
    _require(check_bihom_associative(h.as_bihom()), "hom-associative")
    _require(is_commutative(h.mu), "mu-commutative")
    _require(check_derivation(D, h.mu, AlphaPowerDerivation(h.alpha, k)),
             "alpha-power-derivation")
    return HomPreLie(_twisted_product(h.mu, power(h.alpha, k), D),
                     power(h.alpha, k + 1))


def mu_delta_map(b: InfHomBialgebra) -> LinearMap:
    """D = mu o Delta, the contraction of the coproduct."""
    _require(check_inf_hom_bialgebra(b), "inf-hom-bialgebra")
    return LinearMap.from_columns([tensor_sum(b.dim, 1, [
        # Delta[i][j][k] e_j e_k
        (c, b.mu.basis_product(j, k))
        for j, k, c in nonzero_entries(image)])
        for image in b.delta.cube])


def infprelie_bullet(b: InfHomBialgebra) -> HomPreLie:
    """x . y = alpha(y_1)(alpha(x) y_2) = (y_1 alpha(x)) alpha(y_2), with
    structure map alpha^3.  Both splittings are computed and must agree."""
    _require(check_inf_hom_bialgebra(b), "inf-hom-bialgebra")
    d = b.dim
    mu, al = b.mu, b.alpha
    al_cols = list(zip(*al.entries))
    basis = [basis_vector(d, j) for j in range(d)]
    images = [nonzero_entries(image) for image in b.delta.cube]
    # x . y = sum alpha(y_1) (alpha(x) y_2), for x = e_i, y = e_j and
    # Delta(e_j) = sum Delta[j][p][q] e_p (x) e_q
    cube1 = [[tensor_sum(d, 1, [
        (c, mu.apply(al_cols[p], mu.apply(ax, basis[q])))
        for p, q, c in images[j]]) for j in range(d)] for ax in al_cols]
    # x . y = sum (y_1 alpha(x)) alpha(y_2)
    cube2 = [[tensor_sum(d, 1, [
        (c, mu.apply(mu.apply(basis[p], ax), al_cols[q]))
        for p, q, c in images[j]]) for j in range(d)] for ax in al_cols]
    if cube1 != cube2:
        raise InternalInconsistencyError(
            "the two closed forms of the bullet product differ")
    return HomPreLie(BilinearOp(cube1), power(al, 3))


def aguiar_bullet(b: InfHomBialgebra) -> HomPreLie:
    """Classical case of the bullet product: a . b = b_1 a b_2 (alpha = id)."""
    if not b.alpha.is_identity():
        raise PreconditionError("classical-inf-bialgebra",
                                "structure map must be the identity")
    return infprelie_bullet(b)
