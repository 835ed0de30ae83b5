"""Independent dense oracle for the tensor contractions.

Each reference below is written straight from the docstring formula of the
function it checks: it loops over every index, with no sparsity shortcut
and no shared code with ``bihomcheck``, so a slip in a hand-optimised
contraction cannot be repeated here.  Inputs are random dim-2 and dim-3
data with entries in {-1, 0, 1, 1/2, 2}, plus catalogue bialgebras with one
coproduct entry changed (near misses that keep some verdicts passing).
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
    compose_delta,
    map_tensor2,
)
from bihomcheck.structures import (
    BiHomAlgebra,
    HomAlgebra,
    HomCoalgebra,
    InfHomBialgebra,
    check_hom_coassociative,
    check_infinitesimal_compat,
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
