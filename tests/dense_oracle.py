"""Dense reference implementations of the tensor contractions and the law
checkers, shared by the oracle tests.

Each reference is written straight from the docstring formula of the
function it checks: it loops over every index, with no sparsity shortcut
and no shared code with ``bihomcheck`` beyond the verdict type, so a slip
in a hand-optimised contraction or checker cannot be repeated here.  Data
are nested lists of exact scalars (see ``as_lists``).
"""

import itertools
from fractions import Fraction

from bihomcheck.exactlin import CheckVerdict

F = Fraction


def as_lists(x):
    """Nested lists of exact scalars, with integral values as ``int``: the
    references then run on ``int`` arithmetic wherever they can."""
    if isinstance(x, (list, tuple)):
        return [as_lists(y) for y in x]
    return int(x) if x.denominator == 1 else x


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
