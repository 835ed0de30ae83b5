"""Independent dense oracle for the tensor contractions and the law checkers.

Each reference below is written straight from the docstring formula of the
function it checks: it loops over every index, with no sparsity shortcut
and no shared code with ``bihomcheck``, so a slip in a hand-optimised
contraction cannot be repeated here.  Inputs are random dim-2 and dim-3
data with entries in {-1, 0, 1, 1/2, 2}, plus catalogue bialgebras with one
coproduct entry changed (near misses that keep some verdicts passing).  The
law checkers also get the catalogue products, Yau-twisted by two catalogue
structure maps or not, with one entry changed; their references compare the
verdict, the law and the full witness.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bihomcheck import constructions, structures
from bihomcheck.constructions import aybe_residue, delta_r, mu_delta_map
from bihomcheck.discovery import catalogue_entry
from bihomcheck.exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    ShapeError,
    Tensor2,
    bilinear_equal,
    compose_delta,
    is_algebra_map,
    map_tensor2,
)
from bihomcheck.structures import (
    AlphaBetaRB,
    BiHomAlgebra,
    BiHomDendriform,
    BraceRB,
    HomAlgebra,
    HomCoalgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
    ParenRB,
    TauSigmaDerivation,
    check_aybe,
    check_bihom_associative,
    check_bihom_dendriform,
    check_hom_coassociative,
    check_hom_lie,
    check_hom_novikov,
    check_hom_prelie,
    check_infinitesimal_compat,
    kind_law,
)

F = Fraction
VALUES = (F(-1), F(0), F(1), F(1, 2), F(2))
ORACLE = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

entries = st.sampled_from(VALUES)
dims = st.sampled_from((2, 3))


def grids(rows, cols=None):
    cols = rows if cols is None else cols
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def cubes(d):
    return st.lists(grids(d), min_size=d, max_size=d)


def maps(d):
    """The identity (so twisted laws reduce to untwisted ones) or random."""
    return st.one_of(st.just(LinearMap.identity(d)), grids(d).map(LinearMap))


def zero_cube(d):
    return [[[F(0)] * d for _ in range(d)] for _ in range(d)]


def flat2(grid):
    return tuple(x for row in grid for x in row)


def flat3(cube):
    return tuple(x for plane in cube for row in plane for x in row)


# ---------------------------------------------------------------------------
# Dense references.  Index conventions: f(e_p) = sum_u f[u][p] e_u,
# e_a e_b = sum_k mu[a][b][k] e_k, Delta(e_i) = sum d[i][j][k] e_j (x) e_k,
# r = sum r[p][q] e_p (x) e_q.
# ---------------------------------------------------------------------------

def ref_residue(mu, al, be, r, d):
    """t13_12 - t12_23 + t23_13 with
    t12_23 = sum alpha(x_i) (x) y_i x_j (x) beta(y_j),
    t13_12 = sum x_i x_j (x) beta(y_j) (x) beta(y_i),
    t23_13 = sum alpha(x_i) (x) alpha(x_j) (x) y_j y_i."""
    out = zero_cube(d)
    for u, v, w, p, q, s, t in itertools.product(range(d), repeat=7):
        c = r[p][q] * r[s][t]
        out[u][v][w] += c * (mu[p][s][u] * be[v][t] * be[w][q]
                             - al[u][p] * mu[q][s][v] * be[w][t]
                             + al[u][p] * al[v][s] * mu[t][q][w])
    return out


def ref_map_tensor2(f, g, t, d):
    """(f (x) g)(t)[a][b] = sum_{p,q} f[a][p] g[b][q] t[p][q]."""
    return [[sum((f[a][p] * g[b][q] * t[p][q]
                  for p in range(d) for q in range(d)), F(0))
             for b in range(len(g))] for a in range(len(f))]


def ref_compose_delta(delta, f, d):
    """(Delta o f)(e_m) = sum_p f[p][m] Delta(e_p)."""
    return [[[sum((f[p][m] * delta[p][j][k] for p in range(d)), F(0))
              for k in range(d)] for j in range(d)] for m in range(d)]


def ref_delta_r(mu, al, r, d):
    """Delta(b) = sum alpha(x_i) (x) y_i b - sum b x_i (x) alpha(y_i)."""
    return [[[sum((r[p][q] * (al[j][p] * mu[q][b][k] - mu[b][p][j] * al[k][q])
                   for p in range(d) for q in range(d)), F(0))
              for k in range(d)] for j in range(d)] for b in range(d)]


def ref_mu_delta(mu, delta, d):
    """(mu o Delta)(e_i) = sum_{j,k} Delta[i][j][k] e_j e_k, as entries[k][i]."""
    return [[sum((delta[i][j][l] * mu[j][l][k]
                  for j in range(d) for l in range(d)), F(0))
             for i in range(d)] for k in range(d)]


def ref_hom_coassociative(delta, al, d):
    """Comultiplicativity (alpha (x) alpha)(Delta e_m) = Delta(alpha e_m),
    then (Delta (x) alpha)(Delta e_m) = (alpha (x) Delta)(Delta e_m), each
    scanned over m in order."""
    for m in range(d):
        lhs = [[sum((al[j][p] * al[k][q] * delta[m][p][q]
                     for p in range(d) for q in range(d)), F(0))
                for k in range(d)] for j in range(d)]
        rhs = [[sum((al[p][m] * delta[p][j][k] for p in range(d)), F(0))
                for k in range(d)] for j in range(d)]
        if lhs != rhs:
            return CheckVerdict.fail("comultiplicative", (m,), flat2(lhs), flat2(rhs))
    for m in range(d):
        left, right = zero_cube(d), zero_cube(d)
        for j, k, t, p, q in itertools.product(range(d), repeat=5):
            c = delta[m][p][q]
            left[j][k][t] += c * delta[p][j][k] * al[t][q]
            right[j][k][t] += c * al[j][p] * delta[q][k][t]
        if left != right:
            return CheckVerdict.fail("hom-coassociativity", (m,),
                                     flat3(left), flat3(right))
    return CheckVerdict.ok()


def ref_infinitesimal_compat(mu, delta, al, d):
    """Delta(ab) = alpha(a) b_1 (x) alpha(b_2) + alpha(a_1) (x) a_2 alpha(b)
    on basis pairs (a, b) = (e_i, e_j), scanned in lexicographic order."""
    for i, j in itertools.product(range(d), repeat=2):
        lhs = [[sum((mu[i][j][m] * delta[m][p][q] for m in range(d)), F(0))
                for q in range(d)] for p in range(d)]
        rhs = [[F(0)] * d for _ in range(d)]
        for s, t, p, q, u in itertools.product(range(d), repeat=5):
            rhs[s][t] += (delta[j][p][q] * al[u][i] * mu[u][p][s] * al[t][q]
                          + delta[i][p][q] * al[s][p] * mu[q][u][t] * al[u][j])
        if lhs != rhs:
            return CheckVerdict.fail("coproduct-derivation", (i, j),
                                     flat2(lhs), flat2(rhs))
    return CheckVerdict.ok()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@st.composite
def bialgebra_data(draw):
    """(mu cube, Delta cube, alpha grid): random, or a catalogue bialgebra
    with one coproduct entry replaced."""
    if draw(st.booleans()):
        d = draw(dims)
        return draw(cubes(d)), draw(cubes(d)), draw(maps(d)).entries
    b = catalogue_entry(draw(st.sampled_from(("dx2-infbialg", "m2-qt")))).structure
    d = b.dim
    delta = [[list(row) for row in plane] for plane in b.delta.cube]
    i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
    delta[i][j][k] = draw(st.sampled_from(VALUES + (delta[i][j][k],)))
    return b.mu.cube, delta, b.alpha.entries


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

@ORACLE
@given(st.data())
def test_aybe_residue(data):
    d = data.draw(dims)
    mu, r = data.draw(cubes(d)), data.draw(grids(d))
    al, be = data.draw(maps(d)), data.draw(maps(d))
    res = aybe_residue(BiHomAlgebra(BilinearOp(mu), al, be), Tensor2(r))
    assert res.coeffs == tuple(tuple(tuple(row) for row in plane)
                               for plane in ref_residue(mu, al.entries, be.entries, r, d))


@ORACLE
@given(st.data())
def test_map_tensor2(data):
    d = data.draw(dims)
    t = data.draw(grids(d))
    f = data.draw(grids(data.draw(dims), d))
    g = data.draw(grids(data.draw(dims), d))
    if len(f) != len(g):
        with pytest.raises(ShapeError):
            map_tensor2(LinearMap(f), LinearMap(g), Tensor2(t))
        return
    out = map_tensor2(LinearMap(f), LinearMap(g), Tensor2(t))
    assert out == Tensor2(ref_map_tensor2(f, g, t, d))


@ORACLE
@given(st.data())
def test_compose_delta(data):
    d = data.draw(dims)
    delta, f = data.draw(cubes(d)), data.draw(grids(d))
    out = compose_delta(Comultiplication(delta), LinearMap(f))
    assert out == Comultiplication(ref_compose_delta(delta, f, d))


@ORACLE
@given(st.data())
def test_delta_r_cube(data):
    """The formula on arbitrary data: the Yang-Baxter hypothesis is stubbed
    (it is tested in test_constructions)."""
    d = data.draw(dims)
    mu, r, al = data.draw(cubes(d)), data.draw(grids(d)), data.draw(maps(d))
    with mock.patch.object(structures, "check_aybe",
                           lambda a, r: CheckVerdict.ok()):
        out = delta_r(HomAlgebra(BilinearOp(mu), al), Tensor2(r))
    assert out == Comultiplication(ref_delta_r(mu, al.entries, r, d))


@ORACLE
@given(bialgebra_data())
def test_mu_delta_map(bundle):
    """The contraction on arbitrary data: the bialgebra hypothesis is stubbed
    (it is tested in test_constructions)."""
    mu, delta, al = bundle
    d = len(mu)
    b = InfHomBialgebra(BilinearOp(mu), Comultiplication(delta), LinearMap(al))
    with mock.patch.object(constructions, "check_inf_hom_bialgebra",
                           lambda b: CheckVerdict.ok()):
        out = mu_delta_map(b)
    assert out == LinearMap(ref_mu_delta(mu, delta, d))


@ORACLE
@given(bialgebra_data())
def test_check_hom_coassociative(bundle):
    _, delta, al = bundle
    got = check_hom_coassociative(
        HomCoalgebra(Comultiplication(delta), LinearMap(al)))
    assert got == ref_hom_coassociative(delta, al, len(delta))


@ORACLE
@given(bialgebra_data())
def test_check_infinitesimal_compat(bundle):
    mu, delta, al = bundle
    got = check_infinitesimal_compat(InfHomBialgebra(
        BilinearOp(mu), Comultiplication(delta), LinearMap(al)))
    assert got == ref_infinitesimal_compat(mu, delta, al, len(mu))


# ---------------------------------------------------------------------------
# Law checkers.  Each reference scans its index tuples in lexicographic
# order, law by law in the checker's documented order, and returns the first
# failing verdict with both sides in full.
# ---------------------------------------------------------------------------

def col(f, p):
    """f(e_p): column p of the grid f."""
    return [row[p] for row in f]


def app(f, v):
    """f(v)[u] = sum_p f[u][p] v[p]."""
    return [sum(f[u][p] * v[p] for p in range(len(v))) for u in range(len(f))]


def mul(mu, x, y):
    """(xy)[k] = sum_{a,b} x[a] y[b] mu[a][b][k]."""
    d = len(mu)
    return [sum(x[a] * y[b] * mu[a][b][k] for a in range(d) for b in range(d))
            for k in range(d)]


def unit_vector(d, i):
    return [1 if t == i else 0 for t in range(d)]


def add(u, v):
    return [a + b for a, b in zip(u, v)]


def sub(u, v):
    return [a - b for a, b in zip(u, v)]


def scan(law, d, arity, lhs, rhs):
    """The first tuple of range(d)**arity where lhs and rhs differ; a scalar
    side is witnessed as a 1-tuple."""
    for t in itertools.product(range(d), repeat=arity):
        a, b = lhs(*t), rhs(*t)
        if a != b:
            return CheckVerdict.fail(law, t, *(x if isinstance(x, list) else (x,)
                                               for x in (a, b)))
    return None


def first(*laws):
    """The first failing law; each law is a thunk, evaluated in order."""
    for law in laws:
        v = law()
        if v is not None:
            return v
    return CheckVerdict.ok()


def ref_commute(f, g, law, d):
    """f(g(e_j)) = g(f(e_j)) for every j."""
    return scan(law, d, 1, lambda j: app(f, col(g, j)),
                lambda j: app(g, col(f, j)))


def ref_multiplicative(f, mu, law, d):
    """f(e_i e_j) = f(e_i) f(e_j) for every pair."""
    return scan(law, d, 2, lambda i, j: app(f, mu[i][j]),
                lambda i, j: mul(mu, col(f, i), col(f, j)))


def ref_algebra_map(f, mu, d):
    return first(lambda: ref_multiplicative(f, mu, "multiplicative", d))


def ref_bilinear_equal(m1, m2, d):
    """m1[i][j][k] = m2[i][j][k] for every triple."""
    return first(lambda: scan("equal", d, 3, lambda i, j, k: m1[i][j][k],
                              lambda i, j, k: m2[i][j][k]))


def ref_bihom_associative(mu, al, be, unit, d):
    """alpha beta = beta alpha, alpha and beta multiplicative,
    alpha(x)(yz) = (xy)beta(z); then with a unit 1: alpha(1) = 1,
    beta(1) = 1, and for each i in turn e_i 1 = alpha(e_i) (right unit)
    and 1 e_i = beta(e_i) (left unit)."""
    def unit_laws():
        for law, f in (("unit-alpha-fixed", al), ("unit-beta-fixed", be)):
            if app(f, unit) != list(unit):
                return CheckVerdict.fail(law, (), app(f, unit), unit)
        for i in range(d):
            e = unit_vector(d, i)
            if mul(mu, e, unit) != col(al, i):
                return CheckVerdict.fail("right-unit", (i,), mul(mu, e, unit),
                                         col(al, i))
            if mul(mu, unit, e) != col(be, i):
                return CheckVerdict.fail("left-unit", (i,), mul(mu, unit, e),
                                         col(be, i))
        return None

    return first(
        lambda: ref_commute(al, be, "structure-maps-commute", d),
        lambda: ref_multiplicative(al, mu, "alpha-multiplicative", d),
        lambda: ref_multiplicative(be, mu, "beta-multiplicative", d),
        lambda: scan("bihom-associativity", d, 3,
                     lambda i, j, k: mul(mu, col(al, i), mu[j][k]),
                     lambda i, j, k: mul(mu, mu[i][j], col(be, k))),
        lambda: None if unit is None else unit_laws())


def ref_bihom_dendriform(prec, succ, al, be, d):
    """alpha beta = beta alpha; alpha, beta multiplicative for < and >;
    (x<y)<beta(z) = alpha(x)<(y<z + y>z), (x>y)<beta(z) = alpha(x)>(y<z),
    alpha(x)>(y>z) = (x<y + x>y)>beta(z)."""
    return first(
        lambda: ref_commute(al, be, "structure-maps-commute", d),
        lambda: ref_multiplicative(al, prec, "alpha-prec-multiplicative", d),
        lambda: ref_multiplicative(al, succ, "alpha-succ-multiplicative", d),
        lambda: ref_multiplicative(be, prec, "beta-prec-multiplicative", d),
        lambda: ref_multiplicative(be, succ, "beta-succ-multiplicative", d),
        lambda: scan("dend-left", d, 3,
                     lambda i, j, k: mul(prec, prec[i][j], col(be, k)),
                     lambda i, j, k: mul(prec, col(al, i),
                                         add(prec[j][k], succ[j][k]))),
        lambda: scan("dend-middle", d, 3,
                     lambda i, j, k: mul(prec, succ[i][j], col(be, k)),
                     lambda i, j, k: mul(succ, col(al, i), prec[j][k])),
        lambda: scan("dend-right", d, 3,
                     lambda i, j, k: mul(succ, col(al, i), succ[j][k]),
                     lambda i, j, k: mul(succ, add(prec[i][j], succ[i][j]),
                                         col(be, k))))


def ref_hom_prelie(mu, al, d):
    """alpha multiplicative; the associator
    as(x, y, z) = alpha(x)(yz) - (xy)alpha(z) equals as(y, x, z)."""
    def associator(i, j, k):
        return sub(mul(mu, col(al, i), mu[j][k]), mul(mu, mu[i][j], col(al, k)))

    return first(
        lambda: ref_multiplicative(al, mu, "alpha-multiplicative", d),
        lambda: scan("prelie-associator-symmetry", d, 3, associator,
                     lambda i, j, k: associator(j, i, k)))


def ref_hom_novikov(mu, al, d):
    """The Hom-pre-Lie laws, then (xy)alpha(z) = (xz)alpha(y)."""
    v = ref_hom_prelie(mu, al, d)
    if not v.passed:
        return v
    return first(
        lambda: scan("right-commutativity", d, 3,
                     lambda i, j, k: mul(mu, mu[i][j], col(al, k)),
                     lambda i, j, k: mul(mu, mu[i][k], col(al, j))))


def ref_hom_lie(br, al, d):
    """[x, y] = -[y, x]; alpha multiplicative for the bracket;
    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0."""
    return first(
        lambda: scan("skew-symmetry", d, 2, lambda i, j: br[i][j],
                     lambda i, j: [-x for x in br[j][i]]),
        lambda: ref_multiplicative(al, br, "alpha-bracket-multiplicative", d),
        lambda: scan("hom-jacobi", d, 3,
                     lambda i, j, k: add(add(mul(br, col(al, i), br[j][k]),
                                             mul(br, col(al, j), br[k][i])),
                                         mul(br, col(al, k), br[i][j])),
                     lambda i, j, k: [F(0)] * d))


def ref_aybe(mu, al, be, r, d):
    """(alpha (x) alpha)(r) = r, (beta (x) beta)(r) = r, each entry by
    entry, then every entry of the residue vanishes."""
    def invariance(law, f):
        image = ref_map_tensor2(f, f, r, d)
        return scan(law, d, 2, lambda i, j: image[i][j], lambda i, j: r[i][j])

    return first(
        lambda: invariance("alpha-invariance", al),
        lambda: invariance("beta-invariance", be),
        lambda: scan("yang-baxter-residue", d, 3,
                     lambda i, j, k, t=ref_residue(mu, al, be, r, d): t[i][j][k],
                     lambda i, j, k: F(0)))


def ref_kind_law(X, mu, form, sigma, tau, commutes, d):
    """X commutes with each named map in turn, then on every pair (a, b):
    derivation  X(ab) = X(a)tau(b) + sigma(a)X(b);
    paren-rb    X(a)X(b) = X(sigma(X(a))b + a tau(X(b)));
    brace-rb    X(sigma(a))X(tau(b)) = X(sigma(a)X(b) + X(a)tau(b))."""
    e = [unit_vector(d, i) for i in range(d)]
    if form == "derivation":
        law = ("leibniz", lambda i, j: app(X, mu[i][j]),
               lambda i, j: add(mul(mu, col(X, i), col(tau, j)),
                                mul(mu, col(sigma, i), col(X, j))))
    elif form == "paren-rb":
        law = ("rb-identity", lambda i, j: mul(mu, col(X, i), col(X, j)),
               lambda i, j: app(X, add(mul(mu, app(sigma, col(X, i)), e[j]),
                                       mul(mu, e[i], app(tau, col(X, j))))))
    else:
        law = ("rb-identity",
               lambda i, j: mul(mu, app(X, col(sigma, i)), app(X, col(tau, j))),
               lambda i, j: app(X, add(mul(mu, col(sigma, i), col(X, j)),
                                       mul(mu, col(X, i), col(tau, j)))))
    return first(
        *(lambda name=name, f=f: ref_commute(X, f, f"commutes-with-{name}", d)
          for name, f in commutes),
        lambda: scan(law[0], d, 2, law[1], law[2]))


# ---------------------------------------------------------------------------
# Law inputs: noncommutative m2 next to n2, na2 and dx2, structure maps that
# differ (sigma != tau, alpha != beta), Yau-twisted products that pass, and
# near misses with one entry replaced, which usually fail at several tuples
# ---------------------------------------------------------------------------

ALGEBRA_MAPS = {"n2": ("id2", "sgn"), "na2": ("id2",), "dx2": ("id2", "neg_x"),
                "m2": ("id4", "conj_d")}


def twisted(mu, f, g, d):
    """mu(f(x), g(y)) as a cube."""
    return [[mul(mu, col(f, i), col(g, j)) for j in range(d)] for i in range(d)]


def post(f, mu, d):
    """f(xy) as a cube."""
    return [[app(f, mu[i][j]) for j in range(d)] for i in range(d)]


def commutator_cube(mu, d):
    return [[sub(mu[i][j], mu[j][i]) for j in range(d)] for i in range(d)]


def as_lists(x):
    """Nested lists of exact scalars, with integral values as ``int``: the
    references then run on ``int`` arithmetic wherever they can."""
    if isinstance(x, (list, tuple)):
        return [as_lists(y) for y in x]
    return int(x) if x.denominator == 1 else x


def replace_one(draw, grid):
    """``grid`` (a vector, matrix or cube) as lists, with one entry replaced."""
    grid = as_lists(grid)
    cell = grid
    while isinstance(cell[0], list):
        cell = cell[draw(st.integers(0, len(cell) - 1))]
    cell[draw(st.integers(0, len(cell) - 1))] = as_lists(draw(entries))
    return grid


def perturbed(draw, grid):
    """``grid`` as lists, with at most one entry replaced."""
    return replace_one(draw, grid) if draw(st.booleans()) else as_lists(grid)


@st.composite
def law_data(draw):
    """(d, mu, alpha, beta, unit): random dim-2/3 data, or a catalogue product
    with two of its algebra maps, Yau-twisted or not, and at most one entry
    of the product, a map or the unit replaced."""
    if draw(st.integers(0, 2)) == 0:
        d = draw(dims)
        unit = draw(st.one_of(st.none(), st.tuples(*[entries] * d)))
        return (d, as_lists(draw(cubes(d))), as_lists(draw(maps(d)).entries),
                as_lists(draw(maps(d)).entries), unit and tuple(as_lists(unit)))
    name = draw(st.sampled_from(tuple(ALGEBRA_MAPS)))
    base = catalogue_entry(name).structure
    d = base.dim
    al, be = (as_lists(catalogue_entry(draw(st.sampled_from(ALGEBRA_MAPS[name])))
                       .structure.entries) for _ in range(2))
    mu = as_lists(base.mu.cube)
    if draw(st.booleans()):
        mu = twisted(mu, al, be, d)
    unit = tuple(as_lists(base.unit)) if base.unit else None
    which = draw(st.sampled_from(("none", "mu", "alpha", "beta", "unit")))
    if which == "mu":
        mu = replace_one(draw, mu)
    elif which == "alpha":
        al = replace_one(draw, al)
    elif which == "beta":
        be = replace_one(draw, be)
    elif which == "unit" and unit is not None:
        unit = tuple(replace_one(draw, unit))
    return d, mu, al, be, unit


def operators(d):
    """Sparse operators: most entries zero, so that laws often pass."""
    cells = st.one_of(st.just(F(0)), st.just(F(0)), entries)
    return st.lists(st.lists(cells, min_size=d, max_size=d),
                    min_size=d, max_size=d)


@ORACLE
@given(law_data())
def test_is_algebra_map(data):
    d, mu, al, _, _ = data
    assert is_algebra_map(LinearMap(al), BilinearOp(mu)) == \
        ref_algebra_map(al, mu, d)


@ORACLE
@given(law_data(), st.data())
def test_bilinear_equal(data, draw):
    d, mu, _, _, _ = data
    other = perturbed(draw.draw, mu)
    assert bilinear_equal(BilinearOp(mu), BilinearOp(other)) == \
        ref_bilinear_equal(mu, other, d)


@ORACLE
@given(law_data())
def test_check_bihom_associative(data):
    d, mu, al, be, unit = data
    got = check_bihom_associative(
        BiHomAlgebra(BilinearOp(mu), LinearMap(al), LinearMap(be), unit))
    assert got == ref_bihom_associative(mu, al, be, unit, d)


@st.composite
def unital_data(draw):
    """A unital catalogue product Yau-twisted by two of its algebra maps, so
    that every law before the unit laws passes, with its unit, a near miss
    of it or a random vector."""
    name = draw(st.sampled_from(("dx2", "m2")))
    base = catalogue_entry(name).structure
    d = base.dim
    al, be = (as_lists(catalogue_entry(draw(st.sampled_from(ALGEBRA_MAPS[name])))
                       .structure.entries) for _ in range(2))
    unit = draw(st.sampled_from(("unit", "near", "random")))
    if unit == "random":
        unit = draw(st.tuples(*[entries] * d))
    unit = tuple(replace_one(draw, base.unit) if unit == "near"
                 else as_lists(base.unit if unit == "unit" else unit))
    return d, twisted(as_lists(base.mu.cube), al, be, d), al, be, unit


@ORACLE
@given(unital_data())
def test_check_bihom_associative_unit_laws(data):
    d, mu, al, be, unit = data
    got = check_bihom_associative(
        BiHomAlgebra(BilinearOp(mu), LinearMap(al), LinearMap(be), unit))
    assert got == ref_bihom_associative(mu, al, be, unit, d)


def test_left_unit_before_later_right_unit(m2, id4):
    # u = e11 + e21 + e22: e11 u = e11 but u e11 = e11 + e21, and e12 u =
    # e11 + e12, so left-unit fails at 0 before right-unit fails at 1
    unit = (F(1), F(0), F(1), F(1))
    mu, ident = as_lists(m2.mu.cube), as_lists(id4.entries)
    got = check_bihom_associative(BiHomAlgebra(m2.mu, id4, id4, unit))
    assert got == ref_bihom_associative(mu, ident, ident, unit, 4)
    assert (got.law, got.witness.indices) == ("left-unit", (0,))
    assert mul(mu, unit_vector(4, 1), unit) != unit_vector(4, 1)


@ORACLE
@given(law_data(), st.data())
def test_check_bihom_dendriform(data, draw):
    d, mu, al, be, _ = data
    zero = zero_cube(d)
    prec, succ = draw.draw(st.sampled_from(
        ((mu, zero), (zero, mu), (mu, mu), (mu, commutator_cube(mu, d)))))
    prec, succ = perturbed(draw.draw, prec), perturbed(draw.draw, succ)
    got = check_bihom_dendriform(BiHomDendriform(
        BilinearOp(prec), BilinearOp(succ), LinearMap(al), LinearMap(be)))
    assert got == ref_bihom_dendriform(prec, succ, al, be, d)


@ORACLE
@given(law_data(), st.booleans())
def test_check_hom_prelie_and_novikov(data, post_twist):
    d, mu, al, _, _ = data
    if post_twist:
        mu = post(al, mu, d)
    p = HomPreLie(BilinearOp(mu), LinearMap(al))
    assert check_hom_prelie(p) == ref_hom_prelie(mu, al, d)
    assert check_hom_novikov(p) == ref_hom_novikov(mu, al, d)


@ORACLE
@given(law_data(), st.booleans(), st.data())
def test_check_hom_lie(data, post_twist, draw):
    d, mu, al, _, _ = data
    br = commutator_cube(mu, d)
    if draw.draw(st.booleans()):
        br = perturbed(draw.draw, br)
    if post_twist:
        br = post(al, br, d)
    got = check_hom_lie(HomLie(BilinearOp(br), LinearMap(al)))
    assert got == ref_hom_lie(br, al, d)


@ORACLE
@given(law_data(), st.data())
def test_check_aybe(data, draw):
    d, mu, al, be, _ = data
    r = as_lists(draw.draw(operators(d)))
    if d == 4 and draw.draw(st.booleans()):
        # near e12 (x) e12, which solves the equation on m2
        r = perturbed(draw.draw, [[F(1) if (p, q) == (1, 1) else F(0)
                                   for q in range(4)] for p in range(4)])
    got = check_aybe(BiHomAlgebra(BilinearOp(mu), LinearMap(al),
                                  LinearMap(be)), Tensor2(r))
    assert got == ref_aybe(mu, al, be, r, d)


@ORACLE
@given(law_data(), st.sampled_from(("derivation", "paren-rb", "brace-rb",
                                    "alpha-beta")), st.data())
def test_kind_law(data, form, draw):
    d, mu, sigma, tau, _ = data
    # sparse, or near sigma - tau (a (tau, sigma)-derivation when sigma and
    # tau are algebra maps), or near a left multiplication (a Rota-Baxter
    # operator when its square vanishes)
    n = draw.draw(st.integers(0, d - 1))
    near = {"sigma-tau": [sub(sigma[u], tau[u]) for u in range(d)],
            "left-multiplication": [[mu[n][j][k] for j in range(d)]
                                    for k in range(d)]}
    start = draw.draw(st.sampled_from(("sparse", *near)))
    X = (as_lists(draw.draw(operators(d))) if start == "sparse"
         else perturbed(draw.draw, near[start]))
    if form == "derivation":
        kind = TauSigmaDerivation(LinearMap(tau), LinearMap(sigma))
    elif form == "paren-rb":
        kind = ParenRB(LinearMap(sigma), LinearMap(tau))
    elif form == "brace-rb":
        kind = BraceRB(LinearMap(sigma), LinearMap(tau))
    else:
        kind = AlphaBetaRB(LinearMap(sigma), LinearMap(tau))
    commutes = ()
    if form == "alpha-beta":
        form = "brace-rb"
        commutes = (("alpha", sigma), ("beta", tau))
        sigma = tau = [[sum((sigma[u][q] * tau[q][p] for q in range(d)), F(0))
                        for p in range(d)] for u in range(d)]
    got = kind_law(LinearMap(X), BilinearOp(mu), kind)
    assert got == ref_kind_law(X, mu, form, sigma, tau, commutes, d)
