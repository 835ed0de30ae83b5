"""Structure bundles and one checker per axiom system.

Bundles check their shapes but NOT their laws at construction time: the
search module must be able to hold candidates that fail them.  Every map of
a bundle is square on its ``dim`` (that of its first field), every product
and coproduct has that ``dim``, and a unit is frozen to a vector of that
length; a ShapeError is raised otherwise.  Validation is explicit via the
``check_*`` functions, each of which returns a :class:`CheckVerdict` whose
witness is the lexicographically smallest failing tuple.

Each checker is made by :func:`bihomcheck.exactlin.checker` from its law, a
lazy stream of comparisons, and stops at its first failing tuple.  An
aggregate law chains the ``.laws`` streams of its parts in a fixed order
(commutation of the structure maps, multiplicativity, main axiom, unit
laws).  Shape errors come first: a law runs every shape check of its input,
and of its parts, before it returns its stream, so laziness never decides
between a ShapeError and a verdict.

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

from .exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    ShapeError,
    Tensor2,
    Tensor3,
    Vector,
    _freeze_vector,
    basis_vector,
    checker,
    compose,
    identity,
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

def _require_square(f: LinearMap, dim: int, what: str) -> None:
    if f.dim_in != f.dim_out or f.dim_in != dim:
        raise ShapeError(f"{what} must be a {dim}x{dim} map")


class _Bundle:
    """Shape checks, not laws: every map is square on ``dim``, the dim of
    the first field, every product or coproduct has ``dim``, and a unit is
    frozen to a vector of length ``dim``."""

    @property
    def dim(self) -> int:
        return next(iter(vars(self).values())).dim  # vars() keeps field order

    def __post_init__(self):
        d = self.dim
        for name, value in vars(self).items():
            if isinstance(value, LinearMap):
                _require_square(value, d, name)
            elif isinstance(value, (BilinearOp, Comultiplication)) \
                    and value.dim != d:
                raise ShapeError(f"{name} has dim {value.dim}, not {d}")
        if getattr(self, "unit", None) is not None:
            object.__setattr__(self, "unit", _freeze_vector(self.unit))
            if len(self.unit) != d:
                raise ShapeError(f"unit has dim {len(self.unit)}, not {d}")


@dataclass(frozen=True)
class BiHomAlgebra(_Bundle):
    mu: BilinearOp
    alpha: LinearMap
    beta: LinearMap
    unit: Vector | None = None

    def is_hom(self) -> bool:
        return self.alpha == self.beta


@dataclass(frozen=True)
class HomAlgebra(_Bundle):
    mu: BilinearOp
    alpha: LinearMap

    def as_bihom(self, unit: Vector | None = None) -> BiHomAlgebra:
        return BiHomAlgebra(self.mu, self.alpha, self.alpha, unit)


@dataclass(frozen=True)
class HomCoalgebra(_Bundle):
    delta: Comultiplication
    alpha: LinearMap


@dataclass(frozen=True)
class InfHomBialgebra(_Bundle):
    mu: BilinearOp
    delta: Comultiplication
    alpha: LinearMap

    def algebra(self) -> HomAlgebra:
        return HomAlgebra(self.mu, self.alpha)

    def coalgebra(self) -> HomCoalgebra:
        return HomCoalgebra(self.delta, self.alpha)


@dataclass(frozen=True)
class BiHomDendriform(_Bundle):
    prec: BilinearOp
    succ: BilinearOp
    alpha: LinearMap
    beta: LinearMap


@dataclass(frozen=True)
class HomPreLie(_Bundle):
    mu: BilinearOp
    alpha: LinearMap


@dataclass(frozen=True)
class HomLie(_Bundle):
    bracket: BilinearOp
    alpha: LinearMap


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

@checker
def _commutation_verdict(f: LinearMap, g: LinearMap, law: str):
    """Pass iff f g = g f, witnessing the first differing basis image."""
    fg, gf = compose(f, g), compose(g, f)
    return identity(law, fg.dim_in, 1, fg.column, gf.column)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

@checker
def check_bihom_associative(a: BiHomAlgebra):
    """Full validation of a BiHom-associative algebra.

    Order: structure maps commute, alpha/beta multiplicative, the twisted
    associativity alpha(x)(yz) = (xy)beta(z), then unit laws if a unit is
    present: alpha(1) = 1, beta(1) = 1, then e_i 1 = alpha(e_i) (right unit)
    and 1 e_i = beta(e_i) (left unit) for each i in turn.  The Hom case is
    alpha = beta; the classical case is both equal to the identity.
    """
    mu, al, be, one, d = a.mu, a.alpha, a.beta, a.unit, a.dim
    laws = [
        _commutation_verdict.laws(al, be, "structure-maps-commute"),
        is_algebra_map.laws(al, mu, "alpha-multiplicative"),
        is_algebra_map.laws(be, mu, "beta-multiplicative"),
        identity("bihom-associativity", d, 3,
                 lambda i, j, k: mu.apply(al.column(i), mu.basis_product(j, k)),
                 lambda i, j, k: mu.apply(mu.basis_product(i, j), be.column(k)))]
    if one is not None:
        basis = [basis_vector(d, i) for i in range(d)]
        laws += [
            identity("unit-alpha-fixed", d, 0, lambda: al.apply(one), lambda: one),
            identity("unit-beta-fixed", d, 0, lambda: be.apply(one), lambda: one),
            itertools.chain.from_iterable(zip(
                identity("right-unit", d, 1, lambda i: mu.apply(basis[i], one),
                         al.column),
                identity("left-unit", d, 1, lambda i: mu.apply(one, basis[i]),
                         be.column)))]
    return itertools.chain(*laws)


def check_hom_associative(h: HomAlgebra) -> CheckVerdict:
    return check_bihom_associative(h.as_bihom())


def check_classical_associative(mu: BilinearOp, unit: Vector | None = None) -> CheckVerdict:
    ident = LinearMap.identity(mu.dim)
    return check_bihom_associative(BiHomAlgebra(mu, ident, ident, unit))


def is_commutative(mu: BilinearOp) -> bool:
    return mu == mu.opposite()


@checker
def check_hom_coassociative(c: HomCoalgebra):
    """(alpha (x) alpha) o Delta = Delta o alpha, then Hom-coassociativity
    (Delta (x) alpha) o Delta = (alpha (x) Delta) o Delta."""
    delta, al, d = c.delta, c.alpha, c.dim
    al_cols = list(zip(*al.entries))
    basis = [basis_vector(d, j) for j in range(d)]
    images = [nonzero_entries(image) for image in delta.cube]

    def left(m):        # Delta(e_m) = sum Delta[m][p][q] e_p (x) e_q
        # (Delta (x) alpha): Delta[p][j][k] e_j (x) e_k (x) alpha(e_q)
        return Tensor3(tensor_sum(d, 3, [
            (cpq * cjk, basis[j], basis[k], al_cols[q])
            for p, q, cpq in images[m] for j, k, cjk in images[p]])).flatten()

    def right(m):
        # (alpha (x) Delta): alpha(e_p) (x) Delta[q][k][t] e_k (x) e_t
        return Tensor3(tensor_sum(d, 3, [
            (cpq * ckt, al_cols[p], basis[k], basis[t])
            for p, q, cpq in images[m] for k, t, ckt in images[q]])).flatten()

    return itertools.chain(is_coalgebra_map.laws(al, delta),
                           identity("hom-coassociativity", d, 1, left, right))


@checker
def check_infinitesimal_compat(b: InfHomBialgebra):
    """Delta(ab) = alpha(a) b_1 (x) alpha(b_2) + alpha(a_1) (x) a_2 alpha(b)
    on all basis pairs; the classical case alpha = id says Delta is a
    derivation into the bimodule A (x) A."""
    mu, delta, al, d = b.mu, b.delta, b.alpha, b.dim
    al_cols = list(zip(*al.entries))
    basis = [basis_vector(d, j) for j in range(d)]
    images = [nonzero_entries(image) for image in delta.cube]

    def lhs(i, j):      # a = e_i, b = e_j
        # Delta(ab): (ab)[m] Delta[m][p][q] e_p (x) e_q
        return sum(tensor_sum(d, 2, [
            (cm * c, basis[p], basis[q])
            for m, cm in enumerate(mu.basis_product(i, j)) if cm
            for p, q, c in images[m]]), [])

    def rhs(i, j):
        return sum(tensor_sum(d, 2, [
            # alpha(a) b_1 (x) alpha(b_2), with b_1 (x) b_2 = e_p (x) e_q
            *((c, mu.apply(al_cols[i], basis[p]), al_cols[q])
              for p, q, c in images[j]),
            # alpha(a_1) (x) a_2 alpha(b), with a_1 (x) a_2 = e_p (x) e_q
            *((c, al_cols[p], mu.apply(basis[q], al_cols[j]))
              for p, q, c in images[i])]), [])

    return identity("coproduct-derivation", d, 2, lhs, rhs)


@checker
def check_inf_hom_bialgebra(b: InfHomBialgebra):
    """Hom-algebra laws, then Hom-coalgebra laws, then compatibility."""
    return itertools.chain(check_bihom_associative.laws(b.algebra().as_bihom()),
                           check_hom_coassociative.laws(b.coalgebra()),
                           check_infinitesimal_compat.laws(b))


@checker
def check_bihom_dendriform(d: BiHomDendriform):
    """Commutation and multiplicativity of both structure maps w.r.t. both
    operations, then the three splitting axioms in the fixed order left /
    middle / right."""
    prec, succ, al, be, n = d.prec, d.succ, d.alpha, d.beta, d.dim

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

    return itertools.chain(
        _commutation_verdict.laws(al, be, "structure-maps-commute"),
        is_algebra_map.laws(al, prec, "alpha-prec-multiplicative"),
        is_algebra_map.laws(al, succ, "alpha-succ-multiplicative"),
        is_algebra_map.laws(be, prec, "beta-prec-multiplicative"),
        is_algebra_map.laws(be, succ, "beta-succ-multiplicative"),
        identity("dend-left", n, 3, dend_left_lhs, dend_left_rhs),
        identity("dend-middle", n, 3, dend_middle_lhs, dend_middle_rhs),
        identity("dend-right", n, 3, dend_right_lhs, dend_right_rhs))


@checker
def check_hom_prelie(p: HomPreLie):
    """alpha multiplicative and the associator
    alpha(x)(yz) - (xy)alpha(z) symmetric in x, y."""
    mu, al = p.mu, p.alpha

    def associator(i, j, k):
        return vec_sub(mu.apply(al.column(i), mu.basis_product(j, k)),
                       mu.apply(mu.basis_product(i, j), al.column(k)))

    return itertools.chain(
        is_algebra_map.laws(al, mu, "alpha-multiplicative"),
        identity("prelie-associator-symmetry", mu.dim, 3, associator,
                 lambda i, j, k: associator(j, i, k)))


@checker
def check_hom_novikov(p: HomPreLie):
    """Hom-pre-Lie laws plus right commutativity (xy)alpha(z) = (xz)alpha(y)."""
    mu, al = p.mu, p.alpha
    return itertools.chain(
        check_hom_prelie.laws(p),
        identity("right-commutativity", mu.dim, 3,
                 lambda i, j, k: mu.apply(mu.basis_product(i, j), al.column(k)),
                 lambda i, j, k: mu.apply(mu.basis_product(i, k), al.column(j))))


@checker
def check_hom_lie(l: HomLie):
    """Skew-symmetry, bracket-multiplicativity of alpha, Hom-Jacobi."""
    br, al, d = l.bracket, l.alpha, l.dim

    def jacobi_lhs(i, j, k):
        t1 = br.apply(al.column(i), br.basis_product(j, k))
        t2 = br.apply(al.column(j), br.basis_product(k, i))
        t3 = br.apply(al.column(k), br.basis_product(i, j))
        return vec_add(vec_add(t1, t2), t3)

    zero = (0,) * d
    return itertools.chain(
        identity("skew-symmetry", d, 2, br.basis_product,
                 lambda i, j: tuple(-x for x in br.basis_product(j, i))),
        is_algebra_map.laws(al, br, "alpha-bracket-multiplicative"),
        identity("hom-jacobi", d, 3, jacobi_lhs, lambda i, j, k: zero))


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


@checker
def kind_law(X: LinearMap, m: BilinearOp, kind: RBKind | DerivationKind):
    """The law part of check_rota_baxter and check_derivation: X commutes
    with the kind's commutation maps, then the kind's identity holds on all
    basis pairs.  Its parameters are not checked."""
    _require_square(X, m.dim, "D" if kind.form == "derivation" else "R")
    commutes = [_commutation_verdict.laws(X, f, f"commutes-with-{name}")
                for name, f in kind.commutes()]

    def kind_identity():    # the twists are computed once X commutes
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
        yield from identity(law, m.dim, 2, lhs, rhs)

    return itertools.chain(*commutes, kind_identity())


@checker
def check_derivation(D: LinearMap, m: BilinearOp, kind: DerivationKind):
    """Twisted Leibniz rule of the given kind on all basis pairs.

    Parameter maps are required to be algebra maps; a bad parameter raises
    InvalidParameterError rather than failing the law.
    """
    _require_square(D, m.dim, "D")
    if not isinstance(kind, DerivationKind):
        raise TypeError(f"unknown derivation kind: {kind!r}")
    _require_parameters(m, kind)
    return kind_law.laws(D, m, kind)


@checker
def check_rota_baxter(R: LinearMap, m: BilinearOp, kind: RBKind):
    """Weight-zero Rota-Baxter identity of the given kind on all basis pairs.

    Commutation requirements carried by the kind (the candidate R against
    the ambient structure maps) are themselves checked laws; non-algebra-map
    parameters raise InvalidParameterError.
    """
    _require_square(R, m.dim, "R")
    if not isinstance(kind, RBKind):
        raise TypeError(f"unknown Rota-Baxter kind: {kind!r}")
    _require_parameters(m, kind)
    return kind_law.laws(R, m, kind)


@checker
def check_aybe(a: BiHomAlgebra, r: Tensor2):
    """Yang-Baxter check: invariance of r under both structure maps, entry
    by entry, then vanishing of the residue tensor."""
    from .constructions import aybe_residue  # local import avoids a cycle

    if r.dim != a.dim:
        raise ShapeError("r does not live on the algebra")
    def laws():
        for law, f in (("alpha-invariance", a.alpha), ("beta-invariance", a.beta)):
            inv = map_tensor2(f, f, r).coeffs
            yield from identity(law, a.dim, 2, lambda i, j: inv[i][j],
                                lambda i, j: r.coeffs[i][j])
        res = aybe_residue(a, r).coeffs
        yield from identity("yang-baxter-residue", a.dim, 3,
                            lambda i, j, k: res[i][j][k], lambda i, j, k: 0)

    return laws()
