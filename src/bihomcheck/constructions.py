"""Constructions turning one verified structure into another.

Each construction is one generator, its steps: it yields its hypotheses as
lists of ``(name, checker, *args)`` and then returns what it builds.  The
public function checks every hypothesis first and refuses to construct on
failure (PreconditionError names the failed hypothesis), so a pipeline can
never report a vacuous pass on an invalid instance.  Pipelines record the
same hypotheses from ``.steps``; ``.build`` checks none.  Where two closed
forms exist for the same object (the Yang-Baxter-induced operator, the
bullet product) both are computed and asserted equal.
"""

from __future__ import annotations

import functools
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
    _commutation_verdict,
    check_bihom_associative,
    check_bihom_dendriform,
    check_classical_associative,
    check_derivation,
    check_hom_lie,
    check_hom_prelie,
    check_inf_hom_bialgebra,
    check_rota_baxter,
    is_commutative,
    kind_law,
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


#: the reason given when a yes/no hypothesis fails
_REASONS = {
    "classical-dendriform": "input must carry identity structure maps",
    "classical-prelie": "input must carry the identity structure map",
    "classical-inf-bialgebra": "structure map must be the identity",
    "classical-base": "only classical entries can be twisted",
}


def _require(hypothesis: str, verdict: CheckVerdict | bool) -> bool:
    if not verdict:
        raise PreconditionError(hypothesis, (
            f"fails {verdict.law} at {verdict.witness.indices}"
            if isinstance(verdict, CheckVerdict)
            else _REASONS.get(hypothesis, "")))
    return True


def run_steps(steps, check=None):
    """What ``steps`` build, or None after a list of hypotheses in which
    ``check(name, verdict)`` returned False; no check computes no verdict."""
    while True:
        try:
            hypotheses = next(steps)
        except StopIteration as built:
            return built.value
        if check and not all([check(name, checker(*args))
                              for name, checker, *args in hypotheses]):
            return None


def _construction(steps):
    """The public construction of ``steps``, which checks every hypothesis.
    ``.steps`` stays reachable, and ``.build`` checks none."""
    @functools.wraps(steps)
    def construct(*args, **kwargs):
        return run_steps(steps(*args, **kwargs), _require)
    construct.steps = steps
    construct.build = lambda *args, **kwargs: run_steps(steps(*args, **kwargs))
    return construct


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

@_construction
def yau_twist_assoc(m: BilinearOp, alpha: LinearMap, beta: LinearMap) -> BiHomAlgebra:
    """Deform an associative product into mu o (alpha (x) beta).

    Requires m associative and alpha, beta commuting algebra maps; the
    result satisfies the twisted associativity by construction (and the
    theorem pipelines re-verify it).
    """
    yield [("m-associative", check_classical_associative, m),
           ("alpha-algebra-map", is_algebra_map, alpha, m),
           ("beta-algebra-map", is_algebra_map, beta, m),
           ("alpha-beta-commute", _commutation_verdict, alpha, beta,
            "alpha-beta-commute")]
    return BiHomAlgebra(_twisted_product(m, alpha, beta), alpha, beta)


@_construction
def yau_twist_dendriform(d: BiHomDendriform, alpha: LinearMap,
                         beta: LinearMap) -> BiHomDendriform:
    """Twist a classical dendriform pair into x <' y = alpha(x) < beta(y),
    x >' y = alpha(x) > beta(y) with structure maps (alpha, beta)."""
    yield [("classical-dendriform",
            lambda: d.alpha.is_identity() and d.beta.is_identity()),
           ("dendriform", check_bihom_dendriform, d),
           ("alpha-prec-multiplicative", is_algebra_map, alpha, d.prec),
           ("alpha-succ-multiplicative", is_algebra_map, alpha, d.succ),
           ("beta-prec-multiplicative", is_algebra_map, beta, d.prec),
           ("beta-succ-multiplicative", is_algebra_map, beta, d.succ),
           ("alpha-beta-commute", _commutation_verdict, alpha, beta,
            "alpha-beta-commute")]
    return BiHomDendriform(_twisted_product(d.prec, alpha, beta),
                           _twisted_product(d.succ, alpha, beta),
                           alpha, beta)


@_construction
def yau_twist_prelie(p: HomPreLie, alpha: LinearMap) -> HomPreLie:
    """Twist a classical left pre-Lie product into alpha o mu."""
    yield [("classical-prelie", p.alpha.is_identity),
           ("prelie", check_hom_prelie, p),
           ("alpha-prelie-morphism", is_algebra_map, alpha, p.mu)]
    return HomPreLie(_post_product(alpha, p.mu), alpha)


# ---------------------------------------------------------------------------
# Dendriform consequences
# ---------------------------------------------------------------------------

@_construction
def dendriform_sum(d: BiHomDendriform) -> BiHomAlgebra:
    """x*y = x < y + x > y, same structure maps."""
    yield [("dendriform", check_bihom_dendriform, d)]
    n = d.dim
    cube = tuple(tuple(vec_add(d.prec.basis_product(i, j),
                               d.succ.basis_product(i, j))
                       for j in range(n)) for i in range(n))
    return BiHomAlgebra(BilinearOp(cube), d.alpha, d.beta)


@_construction
def dendriform_circ(d: BiHomDendriform) -> HomPreLie:
    """x o y = x > y - y < x; only defined when alpha = beta."""
    if d.alpha != d.beta:
        raise InvalidParameterError("circ product needs alpha = beta")
    yield [("dendriform", check_bihom_dendriform, d)]
    n = d.dim
    cube = tuple(tuple(vec_sub(d.succ.basis_product(i, j),
                               d.prec.basis_product(j, i))
                       for j in range(n)) for i in range(n))
    return HomPreLie(BilinearOp(cube), d.alpha)


@_construction
def dendriform_from_paren_rb(m: BilinearOp, sigma: LinearMap, tau: LinearMap,
                             R: LinearMap) -> BiHomDendriform:
    """Split an associative product along a (sigma,tau)-Rota-Baxter operator:
    a < b = a tau(R(b)), a > b = sigma(R(a)) b.  Classical output (identity
    structure maps)."""
    yield [("m-associative", check_classical_associative, m),
           ("sigma-algebra-map", is_algebra_map, sigma, m),
           ("tau-algebra-map", is_algebra_map, tau, m)]
    yield [("paren-rota-baxter", kind_law, R, m, ParenRB(sigma, tau))]
    ident = LinearMap.identity(m.dim)
    prec = _twisted_product(m, ident, compose(tau, R))
    succ = _twisted_product(m, compose(sigma, R), ident)
    return BiHomDendriform(prec, succ, ident, ident)


@_construction
def simprop_dendriform(a: BiHomAlgebra, sigma: LinearMap, tau: LinearMap,
                       eta: LinearMap | None, R: LinearMap) -> BiHomDendriform:
    """Split a twisted-associative product along a brace-type Rota-Baxter
    operator: x < y = sigma(x) R(eta(y)), x > y = R(x) tau(eta(y)); the
    output carries structure maps (alpha sigma, beta tau eta).

    Hypotheses are verified in order: twisted associativity of the ambient,
    sigma/tau/eta algebra maps, the brace identity for R, then pairwise
    commutation of all six maps.  eta defaults to the identity.
    """
    if eta is None:
        eta = LinearMap.identity(a.dim)
    yield [("bihom-associative", check_bihom_associative, a),
           ("sigma-algebra-map", is_algebra_map, sigma, a.mu),
           ("tau-algebra-map", is_algebra_map, tau, a.mu),
           ("eta-algebra-map", is_algebra_map, eta, a.mu)]
    named = [("alpha", a.alpha), ("beta", a.beta), ("sigma", sigma),
             ("tau", tau), ("eta", eta), ("R", R)]
    commute = [(f"commute({name1},{name2})", f, g) for (name1, f), (name2, g)
               in itertools.combinations(named, 2)]
    yield [("brace-rota-baxter", kind_law, R, a.mu, BraceRB(sigma, tau)),
           *((law, _commutation_verdict, f, g, law) for law, f, g in commute)]
    taueta = compose(tau, eta)
    return BiHomDendriform(_twisted_product(a.mu, sigma, compose(R, eta)),
                           _twisted_product(a.mu, R, taueta),
                           compose(a.alpha, sigma),
                           compose(a.beta, taueta))


@_construction
def moregendend_triple(h: HomAlgebra, n: int, R: LinearMap
                       ) -> tuple[BiHomDendriform, HomAlgebra, HomPreLie]:
    """From an alpha^n-Rota-Baxter operator on a Hom-associative algebra,
    build the split pair x < y = a^n(x)R(y), x > y = R(x)a^n(y) with map
    alpha^(n+1), plus its sum product and circ product."""
    yield [("hom-associative", check_bihom_associative, h.as_bihom()),
           ("alpha-power-rota-baxter", check_rota_baxter, R, h.mu,
            AlphaPowerRB(h.alpha, n))]
    an = power(h.alpha, n)
    # the list above implies simprop's list for sigma = tau = alpha^n, eta = id
    dend = simprop_dendriform.build(h.as_bihom(), an, an, None, R)
    total = dendriform_sum(dend)
    circ = dendriform_circ.build(dend)  # the sum checked the dendriform laws
    return dend, HomAlgebra(total.mu, total.alpha), circ


@_construction
def analoglie_prelie(l: HomLie, n: int, R: LinearMap) -> HomPreLie:
    """a . b = [R(a), alpha^n(b)] with structure map alpha^(n+1)."""
    yield [("hom-lie", check_hom_lie, l)]
    yield [("lie-rota-baxter", kind_law, R, l.bracket,
            LieAlphaPowerRB(l.alpha, n))]
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


@_construction
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

    yield [("bihom-associative", check_bihom_associative, a)]
    yield [("yang-baxter-solution", check_aybe, a, r)]
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


@_construction
def delta_r(h: HomAlgebra, r: Tensor2) -> Comultiplication:
    """Principal comultiplication of a Yang-Baxter solution:
    Delta(b) = sum alpha(x_i) (x) y_i b - sum b x_i (x) alpha(y_i).

    The sign convention puts the invariant leg first; the CLI exposes a
    flag that negates r for cross-checking the opposite convention.
    """
    from .structures import check_aybe

    yield [("yang-baxter-solution", check_aybe, h.as_bihom(), r)]
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

@_construction
def gengd_novikov(h: HomAlgebra, k: int, D: LinearMap) -> HomPreLie:
    """x . y = alpha^k(x) D(y) on a commutative Hom-associative algebra with
    an alpha^k-derivation D; the result carries structure map alpha^(k+1)."""
    yield [("hom-associative", check_bihom_associative, h.as_bihom()),
           ("mu-commutative", is_commutative, h.mu),
           ("alpha-power-derivation", check_derivation, D, h.mu,
            AlphaPowerDerivation(h.alpha, k))]
    return HomPreLie(_twisted_product(h.mu, power(h.alpha, k), D),
                     power(h.alpha, k + 1))


@_construction
def mu_delta_map(b: InfHomBialgebra) -> LinearMap:
    """D = mu o Delta, the contraction of the coproduct."""
    yield [("inf-hom-bialgebra", check_inf_hom_bialgebra, b)]
    return LinearMap.from_columns([tensor_sum(b.dim, 1, [
        # Delta[i][j][k] e_j e_k
        (c, b.mu.basis_product(j, k))
        for j, k, c in nonzero_entries(image)])
        for image in b.delta.cube])


@_construction
def infprelie_bullet(b: InfHomBialgebra) -> HomPreLie:
    """x . y = alpha(y_1)(alpha(x) y_2) = (y_1 alpha(x)) alpha(y_2), with
    structure map alpha^3.  Both splittings are computed and must agree."""
    yield [("inf-hom-bialgebra", check_inf_hom_bialgebra, b)]
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


@_construction
def aguiar_bullet(b: InfHomBialgebra) -> HomPreLie:
    """Classical case of the bullet product: a . b = b_1 a b_2 (alpha = id)."""
    yield [("classical-inf-bialgebra", b.alpha.is_identity)]
    return (yield from infprelie_bullet.steps(b))
