"""Verification registry: each result runs as an instance-wise pipeline.

A pipeline first checks every hypothesis explicitly (sub-verdicts named
``hypothesis:*``); conclusions (``conclusion:*``) only run once all
hypotheses hold, so a report can never claim a vacuous pass.  A failed
hypothesis yields a report naming it, not a crash.  A construction's
hypotheses are recorded from its own steps, which then build; ``.build`` is
used only where the report holds the same verdicts already, and so is
``kind_law``, an operator check without its parameter check.

``catalogue_instances`` generates the instances used by ``--all-catalogue``
from the built-in examples plus small certified searches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .constructions import (
    _post_product,
    _twisted_product,
    abrb_operator,
    aguiar_bullet,
    analoglie_prelie,
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
)
from .discovery import (
    AlgebraMapPairTarget,
    AybeTarget,
    RBTarget,
    SearchSpec,
    _twist_bialgebra,
    catalogue_entry,
    search,
    twist_factory,
)
from .exactlin import (
    BilinearOp,
    CheckVerdict,
    LinearMap,
    NotInvertibleError,
    Tensor2,
    bilinear_equal,
    compose,
    first_failure,
    identity,
    invert,
    is_algebra_map,
    map_tensor2,
    maps_commute,
    power,
)
from .structures import (
    AlphaBetaRB,
    AlphaPowerDerivation,
    AlphaPowerRB,
    BiHomAlgebra,
    BiHomDendriform,
    BraceRB,
    HomAlgebra,
    HomLie,
    InfHomBialgebra,
    ParenRB,
    TauSigmaDerivation,
    check_bihom_associative,
    check_bihom_dendriform,
    check_classical_associative,
    check_hom_coassociative,
    check_hom_novikov,
    check_hom_prelie,
    check_inf_hom_bialgebra,
    check_infinitesimal_compat,
    check_rota_baxter,
    is_commutative,
    kind_law,
)
from .structures import _commutation_verdict


THEOREM_IDS = tuple(f"T{i}" for i in range(1, 13))


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instance_description: str
    sub_verdicts: tuple[tuple[str, CheckVerdict], ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for _, v in self.sub_verdicts)

    @property
    def failed_hypothesis(self) -> str | None:
        for name, v in self.sub_verdicts:
            if name.startswith("hypothesis:") and not v.passed:
                return name
        return None


class _Pipeline:
    """Collects named sub-verdicts; conclusions are skipped after a failed
    hypothesis so reports never assert anything about invalid instances."""

    def __init__(self, theorem_id: str, desc: str):
        self.theorem_id = theorem_id
        self.desc = desc
        self.items: list[tuple[str, CheckVerdict]] = []
        self.hypotheses_ok = True

    def hypothesis(self, name: str, verdict: CheckVerdict | bool) -> bool:
        verdict = _as_verdict(verdict, name)
        self.items.append((f"hypothesis:{name}", verdict))
        if not verdict.passed:
            self.hypotheses_ok = False
        return verdict.passed

    def construct(self, steps):
        """Record the hypotheses of ``steps``; what they build, or None."""
        return run_steps(steps, self.hypothesis)

    def conclusion(self, name: str, verdict: CheckVerdict | bool) -> None:
        self.items.append((f"conclusion:{name}", _as_verdict(verdict, name)))

    def report(self) -> TheoremReport:
        return TheoremReport(self.theorem_id, self.desc, tuple(self.items))


def _as_verdict(v: CheckVerdict | bool, law: str) -> CheckVerdict:
    if isinstance(v, CheckVerdict):
        return v
    if v:
        return CheckVerdict.ok()
    return CheckVerdict.fail(law, (), 1, 0)


def _equiv_verdict(law: str, a: CheckVerdict, b: CheckVerdict) -> CheckVerdict:
    """Two checks must agree (both pass or both fail); lhs/rhs encode the
    truth values as 1/0 when they do not."""
    if a.passed == b.passed:
        return CheckVerdict.ok()
    bad = b if a.passed else a
    return CheckVerdict.fail(law, bad.witness.indices,
                             int(a.passed), int(b.passed))


# ---------------------------------------------------------------------------
# T1 -- twisting an associative product by two commuting algebra maps
# ---------------------------------------------------------------------------

def run_t1(m: BilinearOp, alpha: LinearMap, beta: LinearMap,
           desc: str = "") -> TheoremReport:
    p = _Pipeline("T1", desc)
    twisted = p.construct(yau_twist_assoc.steps(m, alpha, beta))
    if p.hypotheses_ok:
        p.conclusion("twist-bihom-associative", check_bihom_associative(twisted))
    return p.report()


# ---------------------------------------------------------------------------
# T2 -- sum and circ products of a split pair
# ---------------------------------------------------------------------------

def run_t2(d: BiHomDendriform, desc: str = "") -> TheoremReport:
    p = _Pipeline("T2", desc)
    total = p.construct(dendriform_sum.steps(d))
    if p.hypotheses_ok:
        p.conclusion("sum-bihom-associative", check_bihom_associative(total))
        if d.alpha == d.beta:
            p.conclusion("circ-hom-prelie",
                         check_hom_prelie(dendriform_circ.build(d)))
    return p.report()


# ---------------------------------------------------------------------------
# T3 -- splitting an associative product along a paren-type operator
# ---------------------------------------------------------------------------

def run_t3(m: BilinearOp, sigma: LinearMap, tau: LinearMap, R: LinearMap,
           desc: str = "") -> TheoremReport:
    p = _Pipeline("T3", desc)
    dend = p.construct(dendriform_from_paren_rb.steps(m, sigma, tau, R))
    if p.hypotheses_ok:
        p.conclusion("dendriform", check_bihom_dendriform(dend))
    return p.report()


# ---------------------------------------------------------------------------
# T4 -- bijective twisted derivations invert to twisted operators
# ---------------------------------------------------------------------------

def run_t4(m: BilinearOp, sigma: LinearMap, tau: LinearMap, D: LinearMap,
           desc: str = "") -> TheoremReport:
    p = _Pipeline("T4", desc)
    p.hypothesis("sigma-algebra-map", is_algebra_map(sigma, m))
    p.hypothesis("tau-algebra-map", is_algebra_map(tau, m))
    if not p.hypotheses_ok:
        return p.report()
    try:
        R = invert(D)
    except NotInvertibleError:
        p.hypothesis("D-bijective", False)
        return p.report()
    deriv = kind_law(D, m, TauSigmaDerivation(tau, sigma))
    rb = kind_law(R, m, ParenRB(sigma, tau))
    p.conclusion("derivation-iff-rota-baxter",
                 _equiv_verdict("derivation-iff-rota-baxter", deriv, rb))
    return p.report()


# ---------------------------------------------------------------------------
# T5 -- paren kind for (sigma, tau) == brace kind for the inverses
# ---------------------------------------------------------------------------

def run_t5(m: BilinearOp, sigma: LinearMap, tau: LinearMap, R: LinearMap,
           desc: str = "") -> TheoremReport:
    p = _Pipeline("T5", desc)
    p.hypothesis("sigma-algebra-map", is_algebra_map(sigma, m))
    p.hypothesis("tau-algebra-map", is_algebra_map(tau, m))
    if not p.hypotheses_ok:
        return p.report()
    try:
        sigma_inv, tau_inv = invert(sigma), invert(tau)
    except NotInvertibleError:
        p.hypothesis("maps-bijective", False)
        return p.report()
    p.hypothesis("R-commutes-sigma",
                 _commutation_verdict(R, sigma, "R-commutes-sigma"))
    p.hypothesis("R-commutes-tau",
                 _commutation_verdict(R, tau, "R-commutes-tau"))
    if not p.hypotheses_ok:
        return p.report()
    paren = kind_law(R, m, ParenRB(sigma, tau))
    brace = check_rota_baxter(R, m, BraceRB(sigma_inv, tau_inv))
    p.conclusion("paren-iff-inverse-brace",
                 _equiv_verdict("paren-iff-inverse-brace", paren, brace))
    return p.report()


# ---------------------------------------------------------------------------
# T6 -- composing a weight-zero operator with a commuting algebra map
# ---------------------------------------------------------------------------

def run_t6(m: BilinearOp, sigma: LinearMap, R: LinearMap,
           desc: str = "") -> TheoremReport:
    p = _Pipeline("T6", desc)
    p.hypothesis("m-associative", check_classical_associative(m))
    p.hypothesis("sigma-algebra-map", is_algebra_map(sigma, m))
    if not p.hypotheses_ok:
        return p.report()
    ident = LinearMap.identity(m.dim)
    p.hypothesis("plain-rota-baxter",
                 check_rota_baxter(R, m, BraceRB(ident, ident)))
    p.hypothesis("R-commutes-sigma",
                 _commutation_verdict(R, sigma, "R-commutes-sigma"))
    if not p.hypotheses_ok:
        return p.report()
    rs = compose(R, sigma)
    p.conclusion("brace-on-product",
                 kind_law(rs, m, BraceRB(sigma, sigma)))
    twisted = _post_product(sigma, m)
    p.conclusion("brace-on-twisted-product",
                 check_rota_baxter(rs, twisted, BraceRB(sigma, sigma)))
    return p.report()


# ---------------------------------------------------------------------------
# T7 -- the splitting theorem and its corollaries
# ---------------------------------------------------------------------------

def run_t7(a: BiHomAlgebra, sigma: LinearMap, tau: LinearMap,
           eta: LinearMap | None, R: LinearMap, desc: str = "") -> TheoremReport:
    p = _Pipeline("T7", desc)
    if eta is None:
        eta = LinearMap.identity(a.dim)
    dend = p.construct(simprop_dendriform.steps(a, sigma, tau, eta, R))
    if not p.hypotheses_ok:
        return p.report()
    split = check_bihom_dendriform(dend)
    p.conclusion("dendriform", split)
    if a.alpha.is_identity() and a.beta.is_identity() and eta.is_identity():
        # identity-twist case: R is additionally a morphism from the sum
        # product into the twist of the original product by (sigma, tau);
        # the sum is checked (and raises) only if "dendriform" failed
        total = (dendriform_sum.build if split.passed else dendriform_sum)(dend)
        target = _twisted_product(a.mu, sigma, tau)
        p.conclusion("rb-morphism-into-twist", first_failure(identity(
            "rb-morphism-into-twist", a.dim, 2,
            lambda i, j: R.apply(total.mu.basis_product(i, j)),
            lambda i, j: target.apply(R.column(i), R.column(j)))))
    return p.report()


# ---------------------------------------------------------------------------
# T8 -- brackets: operators of power kind give a left pre-Lie product
# ---------------------------------------------------------------------------

def run_t8(l: HomLie, n: int, R: LinearMap, desc: str = "") -> TheoremReport:
    p = _Pipeline("T8", desc)
    prelie = p.construct(analoglie_prelie.steps(l, n, R))
    if p.hypotheses_ok:
        p.conclusion("hom-prelie", check_hom_prelie(prelie))
        p.conclusion("structure-map-power",
                     prelie.alpha == power(l.alpha, n + 1))
    return p.report()


# ---------------------------------------------------------------------------
# T9 -- Yang-Baxter solutions induce twisted operators
# ---------------------------------------------------------------------------

#: pairs of exponent tuples ((p1,q1),(p2,q2)) == ((p3,q3),(p4,q4)) meaning
#: (a^p1 b^q1 (x) a^p2 b^q2)(r) = (a^p3 b^q3 (x) a^p4 b^q4)(r); these are the
#: invariance identities the induced-operator proof consumes, and each is a
#: consequence of r being fixed by alpha (x) alpha and beta (x) beta.
R_INVARIANCE_EXPONENTS = (
    (((1, 4), (5, 1)), ((0, 3), (4, 0))),
    (((1, 4), (3, 2)), ((0, 2), (2, 0))),
    (((1, 4), (5, 0)), ((0, 4), (4, 0))),
    (((4, 2), (5, 0)), ((0, 2), (1, 0))),
    (((0, 4), (4, 1)), ((0, 3), (4, 0))),
    (((2, 3), (4, 1)), ((0, 2), (2, 0))),
    (((2, 4), (3, 2)), ((0, 2), (1, 0))),
)


def _exp_map(alpha: LinearMap, beta: LinearMap, exps: tuple[int, int]) -> LinearMap:
    return compose(power(alpha, exps[0]), power(beta, exps[1]))


def run_t9(a: BiHomAlgebra, r: Tensor2, desc: str = "") -> TheoremReport:
    p = _Pipeline("T9", desc)
    R = p.construct(abrb_operator.steps(a, r))  # asserts the closed forms agree
    if not p.hypotheses_ok:
        return p.report()
    p.conclusion("closed-forms-agree", True)
    p.conclusion("commutes-with-alpha",
                 _commutation_verdict(R, a.alpha, "commutes-with-alpha"))
    p.conclusion("commutes-with-beta",
                 _commutation_verdict(R, a.beta, "commutes-with-beta"))
    # bihom-associative holds alpha's and beta's parameter verdicts
    p.conclusion("alpha-beta-rota-baxter",
                 kind_law(R, a.mu, AlphaBetaRB(a.alpha, a.beta)))
    if a.is_hom():
        p.conclusion("alpha-square-rota-baxter",
                     kind_law(R, a.mu, AlphaPowerRB(a.alpha, 2)))
    for idx, (lhs_exp, rhs_exp) in enumerate(R_INVARIANCE_EXPONENTS, start=1):
        lhs = map_tensor2(_exp_map(a.alpha, a.beta, lhs_exp[0]),
                          _exp_map(a.alpha, a.beta, lhs_exp[1]), r)
        rhs = map_tensor2(_exp_map(a.alpha, a.beta, rhs_exp[0]),
                          _exp_map(a.alpha, a.beta, rhs_exp[1]), r)
        p.conclusion(f"r-invariance-{idx}", lhs == rhs)
    return p.report()


# ---------------------------------------------------------------------------
# T10 -- pre-Lie products from bialgebra data
# ---------------------------------------------------------------------------

def run_t10(b: InfHomBialgebra, desc: str = "") -> TheoremReport:
    p = _Pipeline("T10", desc)
    D = p.construct(mu_delta_map.steps(b))
    if not p.hypotheses_ok:
        return p.report()
    derivation = kind_law(D, b.mu, AlphaPowerDerivation(b.alpha, 2))
    p.conclusion("mu-delta-alpha-square-derivation", derivation)
    bullet = infprelie_bullet.build(b)  # asserts both closed forms agree
    p.conclusion("bullet-closed-forms-agree", True)
    p.conclusion("bullet-hom-prelie", check_hom_prelie(bullet))
    p.conclusion("bullet-structure-map-cubed",
                 bullet.alpha == power(b.alpha, 3))
    if is_commutative(b.mu):
        # gengd's list: the hom part of inf-hom-bialgebra, the test above, D
        star = (gengd_novikov.build if derivation.passed else gengd_novikov)(
            HomAlgebra(b.mu, b.alpha), 2, D)
        p.conclusion("commutative-novikov", check_hom_novikov(star))
        p.conclusion("bullet-matches-derivation-product",
                     bilinear_equal(bullet.mu, star.mu))
    return p.report()


# ---------------------------------------------------------------------------
# T11 -- the bullet construction commutes with twisting
# ---------------------------------------------------------------------------

def _t11_steps(b: InfHomBialgebra, alpha: LinearMap):
    """The twist's steps, with the base's own laws after classical-base."""
    twist = _twist_bialgebra.steps(b, alpha)
    classical, *rest = next(twist)
    yield [classical, ("inf-bialgebra", check_inf_hom_bialgebra, b), *rest]
    return (yield from twist)


def run_t11(b: InfHomBialgebra, alpha: LinearMap, desc: str = "") -> TheoremReport:
    p = _Pipeline("T11", desc)
    twisted = p.construct(_t11_steps(b, alpha))
    if not p.hypotheses_ok:
        return p.report()
    valid = check_inf_hom_bialgebra(twisted)  # the one check of the twist
    p.conclusion("twist-inf-hom-bialgebra", valid)
    if not valid.passed:
        return p.report()
    bullet_twist = infprelie_bullet.build(twisted)
    classical = aguiar_bullet.build(b)
    expected = _post_product(power(alpha, 3), classical.mu)
    p.conclusion("bullet-of-twist-is-twisted-bullet",
                 bilinear_equal(bullet_twist.mu, expected))
    return p.report()


# ---------------------------------------------------------------------------
# T12 -- the two pre-Lie products of a quasitriangular instance coincide
# ---------------------------------------------------------------------------

def run_t12(h: HomAlgebra, r: Tensor2, desc: str = "") -> TheoremReport:
    p = _Pipeline("T12", desc)
    if p.hypothesis("hom-associative", check_bihom_associative(h.as_bihom())):
        delta = p.construct(delta_r.steps(h, r))
    if not p.hypotheses_ok:
        return p.report()
    b = InfHomBialgebra(h.mu, delta, h.alpha)
    # quasitriangularity postulates this; it is validated per instance and
    # reported as a hypothesis when it fails rather than assumed; its
    # Hom-algebra part is hom-associative, which passed
    p.hypothesis("principal-comultiplication-bialgebra", first_failure(
        itertools.chain(check_hom_coassociative.laws(b.coalgebra()),
                        check_infinitesimal_compat.laws(b))))
    if not p.hypotheses_ok:
        return p.report()
    bullet = infprelie_bullet.build(b)
    # hom-associative and yang-baxter-solution are abrb_operator's hypotheses
    R = abrb_operator.build(h.as_bihom(), r)
    induced = kind_law(R, h.mu, AlphaPowerRB(h.alpha, 2))
    p.conclusion("induced-operator-alpha-square-rb", induced)
    # hom-associative and induced are moregendend_triple's hypotheses
    _, _, circ = (moregendend_triple.build if induced.passed
                  else moregendend_triple)(h, 2, R)
    p.conclusion("bullet-equals-circ", bilinear_equal(bullet.mu, circ.mu))
    p.conclusion("structure-maps-cubed",
                 bullet.alpha == circ.alpha == power(h.alpha, 3))
    return p.report()


# ---------------------------------------------------------------------------
# Dispatch and catalogue instance generators
# ---------------------------------------------------------------------------

def _theorem(theorem_id: str):
    """The (runner, instance generator) row of ``_THEOREMS``."""
    try:
        return _THEOREMS[theorem_id]
    except KeyError:
        raise KeyError(f"unknown theorem id {theorem_id!r}; "
                       f"expected one of {', '.join(THEOREM_IDS)}") from None


def verify_theorem(theorem_id: str, /, **instance) -> TheoremReport:
    """Run one registry entry on a structured instance (keyword arguments
    matching the runner's signature; ``desc`` is optional)."""
    runner, _ = _theorem(theorem_id)
    return runner(**instance)


def _classical(mu: BilinearOp) -> BiHomAlgebra:
    ident = LinearMap.identity(mu.dim)
    return BiHomAlgebra(mu, ident, ident)


@lru_cache(maxsize=None)
def _map_pairs(entry_id: str) -> tuple[tuple[LinearMap, LinearMap], ...]:
    """Commuting algebra-map pairs of a dim-2 catalogue algebra over the
    default coefficient grid."""
    algebra = catalogue_entry(entry_id).structure
    return tuple(search(SearchSpec(AlgebraMapPairTarget()), algebra))


@lru_cache(maxsize=None)
def _brace_operators(entry_id: str, pair_index: int
                     ) -> tuple[LinearMap, ...]:
    """Brace-kind operators for one discovered map pair, constrained to
    commute with both maps (the splitting theorem's hypotheses)."""
    algebra = catalogue_entry(entry_id).structure
    sigma, tau = _map_pairs(entry_id)[pair_index]
    spec = SearchSpec(RBTarget(BraceRB(sigma, tau), commute_with=(sigma, tau)))
    return tuple(search(spec, algebra))


def _r_e12() -> LinearMap:
    """R(a) = e12 a e12 on the matrix algebra."""
    m2 = catalogue_entry("m2").structure
    e12 = (0, 1, 0, 0)
    cols = []
    for j in range(4):
        e = tuple(1 if t == j else 0 for t in range(4))
        cols.append(m2.mu.apply(e12, m2.mu.apply(e, e12)))
    return LinearMap.from_columns(cols)


def _m2_commutator() -> HomLie:
    m2 = catalogue_entry("m2").structure
    d = m2.dim
    cube = tuple(tuple(
        tuple(m2.mu.cube[i][j][k] - m2.mu.cube[j][i][k] for k in range(d))
        for j in range(d)) for i in range(d))
    return HomLie(BilinearOp(cube), LinearMap.identity(d))


@lru_cache(maxsize=None)
def aybe_solution_sets() -> tuple[tuple[BiHomAlgebra, tuple[Tensor2, ...], str], ...]:
    """The Yang-Baxter searches the registry quantifies over: the full dual-
    number grid, the matrix algebra restricted to the nilpotent support, the
    sign-twisted dual numbers (a Hom instance) and the one-sided conjugation
    twist of the matrix algebra (a genuinely BiHom instance, alpha != beta)."""
    dx2 = catalogue_entry("dx2").structure
    m2 = catalogue_entry("m2").structure
    neg_x = catalogue_entry("neg_x").structure
    conj_d = catalogue_entry("conj_d").structure
    sols_dx2 = tuple(search(SearchSpec(AybeTarget()), dx2))
    # support {e12, e11} (x) {e12, e22} in the matrix-unit basis order
    support = ((0, 1), (0, 3), (1, 1), (1, 3))
    sols_m2 = tuple(search(SearchSpec(AybeTarget(), support=support), m2))
    twisted = twist_factory(catalogue_entry("dx2"), (neg_x, neg_x))
    sols_tw = tuple(search(SearchSpec(AybeTarget()), twisted))
    bihom = twist_factory(catalogue_entry("m2"),
                          (conj_d, LinearMap.identity(4)))
    sols_bihom = tuple(search(SearchSpec(AybeTarget(), support=support), bihom))
    return (
        (dx2, sols_dx2, "dual numbers, full grid"),
        (m2, sols_m2, "matrix algebra, nilpotent support"),
        (twisted, sols_tw, "sign-twisted dual numbers"),
        (bihom, sols_bihom, "one-sided conjugation twist of the matrix algebra"),
    )


def catalogue_instances(theorem_id: str) -> list[tuple[dict, str]]:
    """(kwargs, description) pairs for --all-catalogue runs; these are the
    same instances the acceptance suite quantifies over."""
    _, make = _theorem(theorem_id)
    out = []
    for kwargs, desc in make():
        kwargs = dict(kwargs)
        kwargs["desc"] = desc
        out.append((kwargs, desc))
    return out


def _instances_t1():
    for entry_id in ("n2", "dx2"):
        mu = catalogue_entry(entry_id).structure.mu
        for k, (f, g) in enumerate(_map_pairs(entry_id)):
            yield {"m": mu, "alpha": f, "beta": g}, f"{entry_id} pair #{k}"
    m2 = catalogue_entry("m2").structure
    conj_d = catalogue_entry("conj_d").structure
    id4 = LinearMap.identity(4)
    for name, (f, g) in (("(conj_d, conj_d)", (conj_d, conj_d)),
                         ("(conj_d, id)", (conj_d, id4)),
                         ("(id, id)", (id4, id4))):
        yield {"m": m2.mu, "alpha": f, "beta": g}, f"m2 {name}"


def _base_dendriforms():
    n2 = catalogue_entry("n2").structure
    m2 = catalogue_entry("m2").structure
    id2 = LinearMap.identity(2)
    id4 = LinearMap.identity(4)
    r_n2 = LinearMap.diagonal((0, 1))
    yield (dendriform_from_paren_rb(n2.mu, id2, id2, r_n2),
           "split of n2 along u -> 0, v -> v")
    yield (dendriform_from_paren_rb(m2.mu, id4, id4, _r_e12()),
           "split of m2 along a -> e12 a e12")


def _instances_t2():
    for dend, desc in _base_dendriforms():
        yield {"d": dend}, desc
    sgn = catalogue_entry("sgn").structure
    base = next(_base_dendriforms())[0]
    yield ({"d": yau_twist_dendriform(base, sgn, sgn)},
           "n2 split twisted by (sgn, sgn)")


def _instances_t3():
    n2 = catalogue_entry("n2").structure
    m2 = catalogue_entry("m2").structure
    id2 = LinearMap.identity(2)
    id4 = LinearMap.identity(4)
    yield ({"m": n2.mu, "sigma": id2, "tau": id2,
            "R": LinearMap.diagonal((0, 1))}, "n2, identity twists")
    yield ({"m": m2.mu, "sigma": id4, "tau": id4, "R": _r_e12()},
           "m2, identity twists")


def _grid_maps(dim: int = 2):
    values = (-1, 0, 1)
    for entries in itertools.product(values, repeat=dim * dim):
        rows = [entries[i * dim:(i + 1) * dim] for i in range(dim)]
        yield LinearMap(rows)


def _instances_t4():
    # twist pairs include asymmetric ones so the (tau, sigma) / (sigma, tau)
    # order swap in the duality is actually exercised
    id2 = LinearMap.identity(2)
    sgn = catalogue_entry("sgn").structure
    neg_x = catalogue_entry("neg_x").structure
    twists = {"n2": ((id2, id2), (sgn, id2), (id2, sgn), (sgn, sgn)),
              "dx2": ((id2, id2), (neg_x, id2), (id2, neg_x), (neg_x, neg_x))}
    for entry_id, pairs in twists.items():
        mu = catalogue_entry(entry_id).structure.mu
        for pi, (sigma, tau) in enumerate(pairs):
            count = 0
            for D in _grid_maps():
                try:
                    invert(D)
                except NotInvertibleError:
                    continue
                yield ({"m": mu, "sigma": sigma, "tau": tau, "D": D},
                       f"{entry_id} pair #{pi} bijective candidate #{count}")
                count += 1


def _instances_t5():
    for entry_id in ("n2", "dx2"):
        mu = catalogue_entry(entry_id).structure.mu
        bijective_pairs = []
        for f, g in _map_pairs(entry_id):
            try:
                invert(f), invert(g)
            except NotInvertibleError:
                continue
            bijective_pairs.append((f, g))
        for k, (sigma, tau) in enumerate(bijective_pairs):
            count = 0
            for R in _grid_maps():
                if maps_commute(R, sigma) and maps_commute(R, tau):
                    yield ({"m": mu, "sigma": sigma, "tau": tau, "R": R},
                           f"{entry_id} pair #{k} candidate #{count}")
                    count += 1


def _instances_t6():
    id2 = LinearMap.identity(2)
    sgn = catalogue_entry("sgn").structure
    neg_x = catalogue_entry("neg_x").structure
    for entry_id, sigmas in (("n2", (id2, sgn)), ("dx2", (id2, neg_x))):
        algebra = catalogue_entry(entry_id).structure
        for s_idx, sigma in enumerate(sigmas):
            spec = SearchSpec(RBTarget(BraceRB(id2, id2),
                                       commute_with=(sigma,)))
            for k, R in enumerate(search(spec, algebra)):
                yield ({"m": algebra.mu, "sigma": sigma, "R": R},
                       f"{entry_id} sigma #{s_idx} operator #{k}")


def _instances_t7():
    for entry_id in ("n2", "dx2"):
        algebra = catalogue_entry(entry_id).structure
        for pi, (sigma, tau) in enumerate(_map_pairs(entry_id)):
            for k, R in enumerate(_brace_operators(entry_id, pi)):
                yield ({"a": _classical(algebra.mu), "sigma": sigma,
                        "tau": tau, "eta": None, "R": R},
                       f"{entry_id} pair #{pi} operator #{k}")
    # genuinely BiHom case (alpha != beta): the operators induced by the
    # Yang-Baxter solutions of the twisted matrix algebra, split with
    # sigma = tau = alpha beta
    ambient, sols, where = aybe_solution_sets()[3]
    ab = compose(ambient.alpha, ambient.beta)
    for k, r in enumerate(sols):
        R = abrb_operator(ambient, r)
        yield ({"a": ambient, "sigma": ab, "tau": ab, "eta": None, "R": R},
               f"{where}, induced operator #{k}")


def _instances_t8():
    lie = _m2_commutator()
    yield ({"l": lie, "n": 0, "R": _r_e12()},
           "m2 commutator bracket, a -> e12 a e12")
    abelian = HomLie(BilinearOp.zero(2), LinearMap.identity(2))
    yield ({"l": abelian, "n": 0, "R": LinearMap.diagonal((1, 1))},
           "abelian bracket, identity operator")


def _instances_t9():
    for ambient, sols, where in aybe_solution_sets():
        for k, r in enumerate(sols):
            yield {"a": ambient, "r": r}, f"{where}, solution #{k}"


def _instances_t10():
    yield {"b": catalogue_entry("dx2-infbialg").structure}, "dx2-infbialg"
    yield {"b": catalogue_entry("m2-qt").structure}, "m2-qt"
    proj = LinearMap.diagonal((1, 0))
    twisted = twist_factory(catalogue_entry("dx2-infbialg"), (proj,))
    yield {"b": twisted}, "dx2-infbialg twisted by x -> 0"


def _instances_t11():
    dx2_inf = catalogue_entry("dx2-infbialg").structure
    m2_qt = catalogue_entry("m2-qt").structure
    proj = LinearMap.diagonal((1, 0))
    conj_d = catalogue_entry("conj_d").structure
    yield {"b": dx2_inf, "alpha": proj}, "dx2-infbialg with x -> 0"
    yield {"b": dx2_inf, "alpha": LinearMap.identity(2)}, "dx2-infbialg with id"
    yield {"b": m2_qt, "alpha": conj_d}, "m2-qt with conj_d"
    yield {"b": m2_qt, "alpha": LinearMap.identity(4)}, "m2-qt with id"


def _instances_t12():
    for ambient, sols, where in aybe_solution_sets():
        if not isinstance(ambient, BiHomAlgebra) or ambient.is_hom():
            h = HomAlgebra(ambient.mu, ambient.alpha)
            for k, r in enumerate(sols):
                yield {"h": h, "r": r}, f"{where}, solution #{k}"


# (runner, catalogue instance generator) of each registry entry
_THEOREMS = {
    "T1": (run_t1, _instances_t1), "T2": (run_t2, _instances_t2),
    "T3": (run_t3, _instances_t3), "T4": (run_t4, _instances_t4),
    "T5": (run_t5, _instances_t5), "T6": (run_t6, _instances_t6),
    "T7": (run_t7, _instances_t7), "T8": (run_t8, _instances_t8),
    "T9": (run_t9, _instances_t9), "T10": (run_t10, _instances_t10),
    "T11": (run_t11, _instances_t11), "T12": (run_t12, _instances_t12),
}
