"""Independent dense oracle for the tensor contractions and the law checkers.

Each function is compared with its dense reference in ``dense_oracle``,
which is written straight from the docstring formula and shares no code
with ``bihomcheck``, so a slip in a hand-optimised contraction cannot be
repeated there.  Inputs are random dim-2 and dim-3
data with entries in {-1, 0, 1, 1/2, 2}, plus catalogue bialgebras with one
coproduct entry changed (near misses that keep some verdicts passing).  The
law checkers also get the catalogue products, Yau-twisted by two catalogue
structure maps or not, with one entry changed; their references compare the
verdict, the law and the full witness.
"""

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

from dense_oracle import (
    app,
    as_lists,
    col,
    mul,
    ref_aybe,
    ref_algebra_map,
    ref_bihom_associative,
    ref_bihom_dendriform,
    ref_bilinear_equal,
    ref_compose_delta,
    ref_delta_r,
    ref_hom_coassociative,
    ref_hom_lie,
    ref_hom_novikov,
    ref_hom_prelie,
    ref_infinitesimal_compat,
    ref_kind_law,
    ref_map_tensor2,
    ref_mu_delta,
    ref_residue,
    sub,
    unit_vector,
    zero_cube,
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
