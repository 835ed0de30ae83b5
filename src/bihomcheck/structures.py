"""Structure bundles and one checker per axiom system.

Bundles do NOT enforce their laws at construction time: the search module
must be able to hold candidates that fail them.  Validation is explicit via
the ``check_*`` functions, each of which returns a :class:`CheckVerdict`
whose witness is the lexicographically smallest failing tuple.

Aggregate checkers run their constituent laws in a fixed order
(commutation of the structure maps, multiplicativity, main axiom, unit
laws) and report the first failure.

Rota-Baxter operators and twisted derivations come in kinds.  Each kind
describes itself once: ``parameters()`` lists its parameter maps, which
must be algebra maps; ``twists()`` is (sigma, tau), the maps on the left
and right of its identity; ``commutes()`` lists the maps the candidate must
commute with, which must commute with each other; ``form`` names the
identity ("paren-rb", "brace-rb" or "derivation", also the search kernel's
problem kind).  ``check_rota_baxter`` and ``check_derivation`` read only
that description and run two parts: ``_require_parameters`` raises
InvalidParameterError on a bad parameter, then ``kind_law`` checks the
candidate.  A caller that holds the parameter verdicts runs ``kind_law``
alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    ShapeError,
    Tensor2,
    Tensor3,
    Vector,
    basis_vector,
    compose,
    first_failure,
    is_algebra_map,
    is_coalgebra_map,
    map_tensor2,
    maps_commute,
    nonzero_entries,
    power,
    tensor_sum,
    vec_add,
    vec_sub,
)


class InvalidParameterError(ValueError):
    """A parameter map fails its own requirements (e.g. is not an algebra
    map).  This is an input error, distinct from a failing law."""


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiHomAlgebra:
    mu: BilinearOp
    alpha: LinearMap
    beta: LinearMap
    unit: Vector | None = None

    @property
    def dim(self) -> int:
        return self.mu.dim

    def is_hom(self) -> bool:
        return self.alpha == self.beta


@dataclass(frozen=True)
class HomAlgebra:
    mu: BilinearOp
    alpha: LinearMap

    @property
    def dim(self) -> int:
        return self.mu.dim

    def as_bihom(self, unit: Vector | None = None) -> BiHomAlgebra:
        return BiHomAlgebra(self.mu, self.alpha, self.alpha, unit)


@dataclass(frozen=True)
class HomCoalgebra:
    delta: Comultiplication
    alpha: LinearMap

    @property
    def dim(self) -> int:
        return self.delta.dim


@dataclass(frozen=True)
class InfHomBialgebra:
    mu: BilinearOp
    delta: Comultiplication
    alpha: LinearMap

    @property
    def dim(self) -> int:
        return self.mu.dim

    def algebra(self) -> HomAlgebra:
        return HomAlgebra(self.mu, self.alpha)

    def coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, self.alpha)


@dataclass(frozen=True)
class BiHomDendriform:
    prec: BilinearOp
    succ: BilinearOp
    alpha: LinearMap
    beta: LinearMap

    @property
    def dim(self) -> int:
        return self.prec.dim


@dataclass(frozen=True)
class HomPreLie:
    mu: BilinearOp
    alpha: LinearMap

    @property
    def dim(self) -> int:
        return self.mu.dim


@dataclass(frozen=True)
class HomLie:
    bracket: BilinearOp
    alpha: LinearMap

    @property
    def dim(self) -> int:
        return self.bracket.dim


# ---------------------------------------------------------------------------
# Derivation / Rota-Baxter kinds
# ---------------------------------------------------------------------------

class _Kind:
    """A kind of twisted identity, described as in the module docstring."""
    form = "brace-rb"

    def commutes(self) -> tuple[tuple[str, LinearMap], ...]:
        return ()


class _SigmaTau(_Kind):
    def parameters(self) -> tuple[tuple[str, LinearMap], ...]:
        return (("sigma", self.sigma), ("tau", self.tau))

    def twists(self) -> tuple[LinearMap, LinearMap]:
        return self.sigma, self.tau


class _AlphaPower(_Kind):
    """sigma = tau = alpha^e for the kind's exponent e."""

    def __post_init__(self):
        if self.exponent < 0:
            raise InvalidParameterError("exponent must be nonnegative")

    def parameters(self) -> tuple[tuple[str, LinearMap], ...]:
        return (("alpha", self.alpha),)

    commutes = parameters

    def twists(self) -> tuple[LinearMap, LinearMap]:
        return (power(self.alpha, self.exponent),) * 2


@dataclass(frozen=True)
class TauSigmaDerivation(_SigmaTau):
    """D(ab) = D(a) tau(b) + sigma(a) D(b)."""
    tau: LinearMap
    sigma: LinearMap
    form = "derivation"

    def parameters(self) -> tuple[tuple[str, LinearMap], ...]:
        return (("tau", self.tau), ("sigma", self.sigma))


@dataclass(frozen=True)
class AlphaPowerDerivation(_AlphaPower):
    """D(ab) = D(a) alpha^k(b) + alpha^k(a) D(b), with D alpha = alpha D."""
    alpha: LinearMap
    k: int
    form = "derivation"
    exponent = property(lambda self: self.k)


DerivationKind = TauSigmaDerivation | AlphaPowerDerivation


@dataclass(frozen=True)
class ParenRB(_SigmaTau):
    """R(a) R(b) = R( sigma(R(a)) b + a tau(R(b)) )."""
    sigma: LinearMap
    tau: LinearMap
    form = "paren-rb"


@dataclass(frozen=True)
class BraceRB(_SigmaTau):
    """R(sigma(a)) R(tau(b)) = R( sigma(a) R(b) + R(a) tau(b) )."""
    sigma: LinearMap
    tau: LinearMap


@dataclass(frozen=True)
class AlphaPowerRB(_AlphaPower):
    """Brace kind with sigma = tau = alpha^n; R must commute with alpha."""
    alpha: LinearMap
    n: int
    exponent = property(lambda self: self.n)


@dataclass(frozen=True)
class AlphaBetaRB(_Kind):
    """Brace kind with sigma = tau = alpha beta; R must commute with both."""
    alpha: LinearMap
    beta: LinearMap

    def parameters(self) -> tuple[tuple[str, LinearMap], ...]:
        return (("alpha", self.alpha), ("beta", self.beta))

    commutes = parameters

    def twists(self) -> tuple[LinearMap, LinearMap]:
        return (compose(self.alpha, self.beta),) * 2


@dataclass(frozen=True)
class LieAlphaPowerRB(_AlphaPower):
    """[R(a^n x), R(a^n y)] = R([a^n x, R y] + [R x, a^n y]) on a bracket."""
    alpha: LinearMap
    n: int
    exponent = property(lambda self: self.n)


RBKind = ParenRB | BraceRB | AlphaPowerRB | AlphaBetaRB | LieAlphaPowerRB


# ---------------------------------------------------------------------------
# Law primitives
# ---------------------------------------------------------------------------

def _require_square(f: LinearMap, dim: int, what: str) -> None:
    if f.dim_in != f.dim_out or f.dim_in != dim:
        raise ShapeError(f"{what} must be a {dim}x{dim} map")


def _commutation_verdict(f: LinearMap, g: LinearMap, law: str) -> CheckVerdict:
    """Pass iff f g = g f, witnessing the first differing basis image."""
    fg, gf = compose(f, g), compose(g, f)
    for j in range(fg.dim_in):
        a, b = fg.column(j), gf.column(j)
        if a != b:
            return CheckVerdict.fail(law, (j,), a, b)
    return CheckVerdict.ok()


def _relabel(v: CheckVerdict, law: str) -> CheckVerdict:
    """``v`` with a failure reported under ``law``."""
    if v.passed:
        return v
    return CheckVerdict.fail(law, v.witness.indices, v.witness.lhs, v.witness.rhs)


def _multiplicative_verdict(f: LinearMap, m: BilinearOp, law: str) -> CheckVerdict:
    return _relabel(is_algebra_map(f, m), law)


def _triple_identity(dim: int, lhs, rhs, law: str) -> CheckVerdict:
    for i, j, k in itertools.product(range(dim), repeat=3):
        a, b = lhs(i, j, k), rhs(i, j, k)
        if a != b:
            return CheckVerdict.fail(law, (i, j, k), a, b)
    return CheckVerdict.ok()


def _pair_identity(dim: int, lhs, rhs, law: str) -> CheckVerdict:
    for i, j in itertools.product(range(dim), repeat=2):
        a, b = lhs(i, j), rhs(i, j)
        if a != b:
            return CheckVerdict.fail(law, (i, j), a, b)
    return CheckVerdict.ok()


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_bihom_associative(a: BiHomAlgebra) -> CheckVerdict:
    """Full validation of a BiHom-associative algebra.

    Order: structure maps commute, alpha/beta multiplicative, the twisted
    associativity alpha(x)(yz) = (xy)beta(z), then unit laws if a unit is
    present.  The Hom case is alpha = beta; the classical case is both
    equal to the identity.
    """
    mu, al, be = a.mu, a.alpha, a.beta
    _require_square(al, mu.dim, "alpha")
    _require_square(be, mu.dim, "beta")
    d = mu.dim

    def assoc_lhs(i, j, k):
        return mu.apply(al.column(i), mu.basis_product(j, k))

    def assoc_rhs(i, j, k):
        return mu.apply(mu.basis_product(i, j), be.column(k))

    verdicts = [
        _commutation_verdict(al, be, "structure-maps-commute"),
        _multiplicative_verdict(al, mu, "alpha-multiplicative"),
        _multiplicative_verdict(be, mu, "beta-multiplicative"),
        _triple_identity(d, assoc_lhs, assoc_rhs, "bihom-associativity"),
    ]
    v = first_failure(verdicts)
    if not v.passed or a.unit is None:
        return v
    one = a.unit
    if al.apply(one) != one:
        return CheckVerdict.fail("unit-alpha-fixed", (), al.apply(one), one)
    if be.apply(one) != one:
        return CheckVerdict.fail("unit-beta-fixed", (), be.apply(one), one)
    for i in range(d):
        e = tuple(Fraction(1 if t == i else 0) for t in range(d))
        lhs = mu.apply(e, one)
        rhs = al.column(i)
        if lhs != rhs:
            return CheckVerdict.fail("right-unit", (i,), lhs, rhs)
        lhs = mu.apply(one, e)
        rhs = be.column(i)
        if lhs != rhs:
            return CheckVerdict.fail("left-unit", (i,), lhs, rhs)
    return CheckVerdict.ok()


def check_hom_associative(h: HomAlgebra) -> CheckVerdict:
    return check_bihom_associative(h.as_bihom())


def check_classical_associative(mu: BilinearOp, unit: Vector | None = None) -> CheckVerdict:
    ident = LinearMap.identity(mu.dim)
    return check_bihom_associative(BiHomAlgebra(mu, ident, ident, unit))


def is_commutative(mu: BilinearOp) -> bool:
    return mu == mu.opposite()


def check_hom_coassociative(c: HomCoalgebra) -> CheckVerdict:
    """(alpha (x) alpha) o Delta = Delta o alpha, then Hom-coassociativity
    (Delta (x) alpha) o Delta = (alpha (x) Delta) o Delta."""
    delta, al = c.delta, c.alpha
    _require_square(al, delta.dim, "alpha")
    v = is_coalgebra_map(al, delta)
    if not v.passed:
        return v
    d = delta.dim
    al_cols = list(zip(*al.entries))
    basis = [basis_vector(d, j) for j in range(d)]
    images = [nonzero_entries(image) for image in delta.cube]
    for m in range(d):              # Delta(e_m) = sum Delta[m][p][q] e_p (x) e_q
        # (Delta (x) alpha): Delta[p][j][k] e_j (x) e_k (x) alpha(e_q)
        lt = Tensor3(tensor_sum(d, 3, [
            (cpq * cjk, basis[j], basis[k], al_cols[q])
            for p, q, cpq in images[m] for j, k, cjk in images[p]]))
        # (alpha (x) Delta): alpha(e_p) (x) Delta[q][k][t] e_k (x) e_t
        rt = Tensor3(tensor_sum(d, 3, [
            (cpq * ckt, al_cols[p], basis[k], basis[t])
            for p, q, cpq in images[m] for k, t, ckt in images[q]]))
        if lt != rt:
            return CheckVerdict.fail("hom-coassociativity", (m,),
                                     lt.flatten(), rt.flatten())
    return CheckVerdict.ok()


def check_infinitesimal_compat(b: InfHomBialgebra) -> CheckVerdict:
    """Delta(ab) = alpha(a) b_1 (x) alpha(b_2) + alpha(a_1) (x) a_2 alpha(b)
    on all basis pairs; the classical case alpha = id says Delta is a
    derivation into the bimodule A (x) A."""
    mu, delta, al = b.mu, b.delta, b.alpha
    _require_square(al, mu.dim, "alpha")
    if delta.dim != mu.dim:
        raise ShapeError("product and coproduct dims differ")
    d = mu.dim
    al_cols = list(zip(*al.entries))
    basis = [basis_vector(d, j) for j in range(d)]
    images = [nonzero_entries(image) for image in delta.cube]
    for i, j in itertools.product(range(d), repeat=2):   # a = e_i, b = e_j
        # Delta(ab): (ab)[m] Delta[m][p][q] e_p (x) e_q
        lhs = Tensor2(tensor_sum(d, 2, [
            (cm * c, basis[p], basis[q])
            for m, cm in enumerate(mu.basis_product(i, j)) if cm
            for p, q, c in images[m]]))
        rhs_terms = []
        for p, q, c in images[j]:               # b_1 (x) b_2 = e_p (x) e_q
            # alpha(a) b_1 (x) alpha(b_2)
            rhs_terms.append((c, mu.apply(al_cols[i], basis[p]), al_cols[q]))
        for p, q, c in images[i]:               # a_1 (x) a_2 = e_p (x) e_q
            # alpha(a_1) (x) a_2 alpha(b)
            rhs_terms.append((c, al_cols[p], mu.apply(basis[q], al_cols[j])))
        rhs = Tensor2(tensor_sum(d, 2, rhs_terms))
        if lhs != rhs:
            return CheckVerdict.fail("coproduct-derivation", (i, j),
                                     [x for r in lhs.coeffs for x in r],
                                     [x for r in rhs.coeffs for x in r])
    return CheckVerdict.ok()


def check_inf_hom_bialgebra(b: InfHomBialgebra) -> CheckVerdict:
    """Hom-algebra laws, then Hom-coalgebra laws, then compatibility."""
    return first_failure([
        check_hom_associative(b.algebra()),
        check_hom_coassociative(b.coalgebra()),
        check_infinitesimal_compat(b),
    ])


def check_bihom_dendriform(d: BiHomDendriform) -> CheckVerdict:
    """Multiplicativity of both structure maps w.r.t. both operations, then
    the three splitting axioms in the fixed order left / middle / right."""
    prec, succ, al, be = d.prec, d.succ, d.alpha, d.beta
    if prec.dim != succ.dim:
        raise ShapeError("prec and succ dims differ")
    _require_square(al, prec.dim, "alpha")
    _require_square(be, prec.dim, "beta")
    n = prec.dim

    def dend_left_lhs(i, j, k):
        return prec.apply(prec.basis_product(i, j), be.column(k))

    def dend_left_rhs(i, j, k):
        inner = vec_add(prec.basis_product(j, k), succ.basis_product(j, k))
        return prec.apply(al.column(i), inner)

    def dend_middle_lhs(i, j, k):
        return prec.apply(succ.basis_product(i, j), be.column(k))

    def dend_middle_rhs(i, j, k):
        return succ.apply(al.column(i), prec.basis_product(j, k))

    def dend_right_lhs(i, j, k):
        return succ.apply(al.column(i), succ.basis_product(j, k))

    def dend_right_rhs(i, j, k):
        outer = vec_add(prec.basis_product(i, j), succ.basis_product(i, j))
        return succ.apply(outer, be.column(k))

    return first_failure([
        _commutation_verdict(al, be, "structure-maps-commute"),
        _multiplicative_verdict(al, prec, "alpha-prec-multiplicative"),
        _multiplicative_verdict(al, succ, "alpha-succ-multiplicative"),
        _multiplicative_verdict(be, prec, "beta-prec-multiplicative"),
        _multiplicative_verdict(be, succ, "beta-succ-multiplicative"),
        _triple_identity(n, dend_left_lhs, dend_left_rhs, "dend-left"),
        _triple_identity(n, dend_middle_lhs, dend_middle_rhs, "dend-middle"),
        _triple_identity(n, dend_right_lhs, dend_right_rhs, "dend-right"),
    ])


def check_hom_prelie(p: HomPreLie) -> CheckVerdict:
    """alpha multiplicative and the associator
    alpha(x)(yz) - (xy)alpha(z) symmetric in x, y."""
    mu, al = p.mu, p.alpha
    _require_square(al, mu.dim, "alpha")
    d = mu.dim

    def associator(i, j, k):
        return vec_sub(mu.apply(al.column(i), mu.basis_product(j, k)),
                       mu.apply(mu.basis_product(i, j), al.column(k)))

    return first_failure([
        _multiplicative_verdict(al, mu, "alpha-multiplicative"),
        _triple_identity(d, associator,
                         lambda i, j, k: associator(j, i, k),
                         "prelie-associator-symmetry"),
    ])


def check_hom_novikov(p: HomPreLie) -> CheckVerdict:
    """Hom-pre-Lie laws plus right commutativity (xy)alpha(z) = (xz)alpha(y)."""
    v = check_hom_prelie(p)
    if not v.passed:
        return v
    mu, al = p.mu, p.alpha
    return _triple_identity(
        mu.dim,
        lambda i, j, k: mu.apply(mu.basis_product(i, j), al.column(k)),
        lambda i, j, k: mu.apply(mu.basis_product(i, k), al.column(j)),
        "right-commutativity")


def check_hom_lie(l: HomLie) -> CheckVerdict:
    """Skew-symmetry, bracket-multiplicativity of alpha, Hom-Jacobi."""
    br, al = l.bracket, l.alpha
    _require_square(al, br.dim, "alpha")
    d = br.dim

    def skew(i, j):
        return br.basis_product(i, j)

    def neg_swapped(i, j):
        return tuple(-x for x in br.basis_product(j, i))

    def jacobi_lhs(i, j, k):
        t1 = br.apply(al.column(i), br.basis_product(j, k))
        t2 = br.apply(al.column(j), br.basis_product(k, i))
        t3 = br.apply(al.column(k), br.basis_product(i, j))
        return vec_add(vec_add(t1, t2), t3)

    zero = (Fraction(0),) * d
    return first_failure([
        _pair_identity(d, skew, neg_swapped, "skew-symmetry"),
        _multiplicative_verdict(al, br, "alpha-bracket-multiplicative"),
        _triple_identity(d, jacobi_lhs, lambda i, j, k: zero, "hom-jacobi"),
    ])


def _require_parameters(m: BilinearOp, kind: RBKind | DerivationKind) -> None:
    """Raise InvalidParameterError unless every parameter map of ``kind`` is
    an algebra map of ``m`` and its commutation maps commute pairwise."""
    for name, f in kind.parameters():
        _require_square(f, m.dim, name)
        v = is_algebra_map(f, m)
        if not v:
            raise InvalidParameterError(
                f"{name} is not an algebra map (fails at {v.witness.indices})")
    for (name, f), (other, g) in itertools.combinations(kind.commutes(), 2):
        if not maps_commute(f, g):
            raise InvalidParameterError(f"{name} and {other} do not commute")


def kind_law(X: LinearMap, m: BilinearOp, kind: RBKind | DerivationKind
             ) -> CheckVerdict:
    """The law part of check_rota_baxter and check_derivation: X commutes
    with the kind's commutation maps, then the kind's identity holds on all
    basis pairs.  Its parameters are not checked."""
    _require_square(X, m.dim, "D" if kind.form == "derivation" else "R")
    v = first_failure([_commutation_verdict(X, f, f"commutes-with-{name}")
                       for name, f in kind.commutes()])
    if not v.passed:
        return v
    sigma, tau = kind.twists()
    if kind.form == "derivation":
        def lhs(i, j):      # D(ab)
            return X.apply(m.basis_product(i, j))

        def rhs(i, j):      # D(a) tau(b) + sigma(a) D(b)
            return vec_add(m.apply(X.column(i), tau.column(j)),
                           m.apply(sigma.column(i), X.column(j)))
    elif kind.form == "paren-rb":
        basis = [basis_vector(m.dim, t) for t in range(m.dim)]

        def lhs(i, j):      # R(a) R(b)
            return m.apply(X.column(i), X.column(j))

        def rhs(i, j):      # R( sigma(R(a)) b + a tau(R(b)) )
            return X.apply(vec_add(m.apply(sigma.apply(X.column(i)), basis[j]),
                                   m.apply(basis[i], tau.apply(X.column(j)))))
    else:
        def lhs(i, j):      # R(sigma(a)) R(tau(b))
            return m.apply(X.apply(sigma.column(i)), X.apply(tau.column(j)))

        def rhs(i, j):      # R( sigma(a) R(b) + R(a) tau(b) )
            return X.apply(vec_add(m.apply(sigma.column(i), X.column(j)),
                                   m.apply(X.column(i), tau.column(j))))
    law = "leibniz" if kind.form == "derivation" else "rb-identity"
    return _pair_identity(m.dim, lhs, rhs, law)


def check_derivation(D: LinearMap, m: BilinearOp, kind: DerivationKind) -> CheckVerdict:
    """Twisted Leibniz rule of the given kind on all basis pairs.

    Parameter maps are required to be algebra maps; a bad parameter raises
    InvalidParameterError rather than failing the law.
    """
    _require_square(D, m.dim, "D")
    if not isinstance(kind, DerivationKind):
        raise TypeError(f"unknown derivation kind: {kind!r}")
    _require_parameters(m, kind)
    return kind_law(D, m, kind)


def check_rota_baxter(R: LinearMap, m: BilinearOp, kind: RBKind) -> CheckVerdict:
    """Weight-zero Rota-Baxter identity of the given kind on all basis pairs.

    Commutation requirements carried by the kind (the candidate R against
    the ambient structure maps) are themselves checked laws; non-algebra-map
    parameters raise InvalidParameterError.
    """
    _require_square(R, m.dim, "R")
    if not isinstance(kind, RBKind):
        raise TypeError(f"unknown Rota-Baxter kind: {kind!r}")
    _require_parameters(m, kind)
    return kind_law(R, m, kind)


def check_aybe(a: BiHomAlgebra, r: Tensor2) -> CheckVerdict:
    """Yang-Baxter check: invariance of r under both structure maps and
    vanishing of the residue tensor."""
    from .constructions import aybe_residue  # local import avoids a cycle

    _require_square(a.alpha, a.dim, "alpha")
    _require_square(a.beta, a.dim, "beta")
    if r.dim != a.dim:
        raise ShapeError("r does not live on the algebra")
    for law, f in (("alpha-invariance", a.alpha), ("beta-invariance", a.beta)):
        inv = map_tensor2(f, f, r)
        if inv != r:
            i, j = _first_tensor2_diff(inv, r)
            return CheckVerdict.fail(law, (i, j), (inv.coeffs[i][j],),
                                     (r.coeffs[i][j],))
    res = aybe_residue(a, r)
    if not res.is_zero():
        d = res.dim
        for i, j, k in itertools.product(range(d), repeat=3):
            if res.coeffs[i][j][k]:
                return CheckVerdict.fail("yang-baxter-residue", (i, j, k),
                                         (res.coeffs[i][j][k],), (Fraction(0),))
    return CheckVerdict.ok()


def _first_tensor2_diff(s: Tensor2, t: Tensor2) -> tuple[int, int]:
    for i, j in itertools.product(range(s.dim), repeat=2):
        if s.coeffs[i][j] != t.coeffs[i][j]:
            return (i, j)
    raise AssertionError("tensors are equal")
