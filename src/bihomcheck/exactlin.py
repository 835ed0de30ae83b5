"""Exact rational linear and multilinear algebra over a fixed ordered basis.

Everything downstream (axiom checkers, constructions, searches) is evaluated
on top of the values defined here.  All scalars are exact rationals: an
integral value is a Python ``int`` and any other a ``fractions.Fraction``,
never a ``float``.  Equal ``int`` and ``Fraction`` values compare and hash
alike, so every computation is exact and deterministic: repeating a
computation yields bit-identical results, and a failing identity always
comes with a certifiable counterexample.  Integers keep the common case
cheap, since an ``int`` operation needs no gcd.

Conventions, fixed once and used by the serializer as well:

* ``LinearMap`` stores a ``dim_out x dim_in`` grid; column ``j`` holds the
  image of basis vector ``e_j``, i.e. ``f(e_j) = sum_i entries[i][j] e_i``.
* ``BilinearOp`` stores a cube ``c[i][j][k]`` with
  ``e_i . e_j = sum_k c[i][j][k] e_k``.
* ``Comultiplication`` stores ``d[i][j][k]`` with
  ``delta(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k``.
* Every law is an identity ``lhs = rhs`` over basis tuples.
  ``identity(law, dim, arity, lhs, rhs)`` lists its comparisons
  ``(law, idx, lhs(*idx), rhs(*idx))`` for ``idx`` in ``range(dim)**arity``
  in lexicographic order.  ``first_failure`` is the one comparison loop: it
  reads a stream of such comparisons lazily, in order, and returns the
  first that fails as a verdict, so a checker stops at its first failing
  tuple and reports the smallest one.
* A checker is ``checker(laws)``: ``laws(*args)`` runs every shape check of
  the law and returns its lazy comparison stream, ``check(*args)`` is
  ``first_failure`` of that stream, and ``check.laws`` stays reachable, so
  an aggregate law chains the streams of its parts.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


Scalar = int | Fraction
Vector = tuple[Scalar, ...]


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


class NotInvertibleError(ValueError):
    """Square matrix is singular.  A legitimate outcome, not a bug."""


def frac(x) -> Scalar:
    """Coerce ints / strings / Fractions to an exact scalar: an ``int`` when
    the value is integral, else a ``Fraction``.  Floats are refused."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError("floating-point scalars are not allowed; use Fraction")
    if type(x) is not Fraction:
        x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def _freeze_vector(v: Sequence) -> Vector:
    return tuple(frac(x) for x in v)


def _freeze_matrix(rows: Sequence[Sequence]) -> tuple[Vector, ...]:
    out = tuple(_freeze_vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ShapeError("ragged matrix rows")
    return out


def _freeze_cube(cube: Sequence) -> tuple[tuple[Vector, ...], ...]:
    out = tuple(_freeze_matrix(plane) for plane in cube)
    n = len(out)
    for plane in out:
        if len(plane) != n or any(len(row) != n for row in plane):
            raise ShapeError("cube is not n x n x n")
    return out


def zero_vector(dim: int) -> Vector:
    return (0,) * dim


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ShapeError(f"vector dims differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ShapeError(f"vector dims differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = frac(c)
    return tuple(c * a for a in v)


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(1 if j == i else 0 for j in range(dim))


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMap:
    entries: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze_matrix(self.entries))
        if not self.entries or not self.entries[0]:
            raise ShapeError("linear map must have positive dimensions")

    @property
    def dim_out(self) -> int:
        return len(self.entries)

    @property
    def dim_in(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def identity(dim: int) -> LinearMap:
        return LinearMap(tuple(basis_vector(dim, i) for i in range(dim)))

    @staticmethod
    def zero(dim_out: int, dim_in: int) -> LinearMap:
        return LinearMap(tuple(zero_vector(dim_in) for _ in range(dim_out)))

    @staticmethod
    def diagonal(diag: Sequence) -> LinearMap:
        d = _freeze_vector(diag)
        return LinearMap(tuple(
            tuple(d[i] if i == j else 0 for j in range(len(d)))
            for i in range(len(d))))

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> LinearMap:
        """Build from images of basis vectors (column convention)."""
        mat = _freeze_matrix(cols)
        return LinearMap(tuple(zip(*mat)))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.dim_in:
            raise ShapeError(f"map expects dim {self.dim_in}, got {len(v)}")
        return tuple(sum(map(operator.mul, row, v)) for row in self.entries)

    def is_identity(self) -> bool:
        return self.dim_in == self.dim_out and self == LinearMap.identity(self.dim_in)


@dataclass(frozen=True)
class BilinearOp:
    cube: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cube", _freeze_cube(self.cube))
        if not self.cube:
            raise ShapeError("bilinear op must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.cube)

    @staticmethod
    def zero(dim: int) -> BilinearOp:
        z = zero_vector(dim)
        return BilinearOp(tuple(tuple(z for _ in range(dim)) for _ in range(dim)))

    @staticmethod
    def from_products(dim: int, products: dict[tuple[int, int], Sequence]) -> BilinearOp:
        """Build from the nonzero basis products e_i . e_j -> vector."""
        cube = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in products.items():
            cube[i][j] = list(_freeze_vector(vec))
            if len(cube[i][j]) != dim:
                raise ShapeError("product vector has wrong dimension")
        return BilinearOp(cube)

    def basis_product(self, i: int, j: int) -> Vector:
        return self.cube[i][j]

    def apply(self, u: Vector, v: Vector) -> Vector:
        d = self.dim
        if len(u) != d or len(v) != d:
            raise ShapeError(f"operands must have dim {d}")
        out = [0] * d
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                c = u[i] * v[j]
                if not c:
                    continue
                row = self.cube[i][j]
                for k in range(d):
                    if row[k]:
                        out[k] += c * row[k]
        return tuple(out)

    def opposite(self) -> BilinearOp:
        """Product with the arguments swapped."""
        d = self.dim
        return BilinearOp(tuple(tuple(self.cube[j][i] for j in range(d))
                                for i in range(d)))


@dataclass(frozen=True)
class Tensor2:
    coeffs: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze_matrix(self.coeffs))
        if not self.coeffs or len(self.coeffs) != len(self.coeffs[0]):
            raise ShapeError("Tensor2 must be square with positive dimension")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @staticmethod
    def zero(dim: int) -> Tensor2:
        z = zero_vector(dim)
        return Tensor2(tuple(z for _ in range(dim)))

    @staticmethod
    def from_pairs(dim: int, pairs: dict[tuple[int, int], object]) -> Tensor2:
        grid = [[0] * dim for _ in range(dim)]
        for (i, j), c in pairs.items():
            grid[i][j] = frac(c)
        return Tensor2(grid)

    def __neg__(self) -> Tensor2:
        return Tensor2(tuple(vec_scale(-1, row) for row in self.coeffs))


@dataclass(frozen=True)
class Tensor3:
    coeffs: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _freeze_cube(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def flatten(self) -> Vector:
        return tuple(c for plane in self.coeffs for row in plane for c in row)


@dataclass(frozen=True)
class Comultiplication:
    cube: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cube", _freeze_cube(self.cube))
        if not self.cube:
            raise ShapeError("comultiplication must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.cube)

    @staticmethod
    def zero(dim: int) -> Comultiplication:
        z = zero_vector(dim)
        return Comultiplication(tuple(tuple(z for _ in range(dim))
                                      for _ in range(dim)))

    @staticmethod
    def from_images(dim: int, images: dict[int, dict[tuple[int, int], object]]) -> Comultiplication:
        """Build from the nonzero splittings delta(e_i) = sum c e_j (x) e_k."""
        cube = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, terms in images.items():
            for (j, k), c in terms.items():
                cube[i][j][k] = frac(c)
        return Comultiplication(cube)

    def image(self, i: int) -> Tensor2:
        return Tensor2(self.cube[i])


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Lexicographically smallest failing index tuple with both sides.

    ``lhs``/``rhs`` are flattened coefficient tuples of the two unequal
    values (a 1-tuple when the values are scalars).
    """
    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    law: str | None = None
    witness: Witness | None = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ValueError("passing verdict cannot carry a witness")
        if not self.passed and self.witness is None:
            raise ValueError("failing verdict must carry a witness")

    def __bool__(self) -> bool:
        return self.passed

    @staticmethod
    def ok() -> CheckVerdict:
        return CheckVerdict(True)

    @staticmethod
    def fail(law: str, indices: Iterable[int], lhs, rhs) -> CheckVerdict:
        lhs = (lhs,) if isinstance(lhs, (int, Fraction)) else tuple(lhs)
        rhs = (rhs,) if isinstance(rhs, (int, Fraction)) else tuple(rhs)
        return CheckVerdict(False, law, Witness(tuple(indices), lhs, rhs))


def identity(law: str, dim: int, arity: int, lhs, rhs) -> Iterator[tuple]:
    """The comparisons ``(law, idx, lhs(*idx), rhs(*idx))`` of one law, for
    every ``idx`` in ``range(dim)**arity`` in lexicographic order."""
    for idx in itertools.product(range(dim), repeat=arity):
        yield law, idx, lhs(*idx), rhs(*idx)


def first_failure(comparisons: Iterable[tuple]) -> CheckVerdict:
    """The first failing comparison ``(law, indices, lhs, rhs)``, one with
    ``lhs != rhs``, read lazily and in order, as a verdict, else pass."""
    for c in comparisons:
        if c[2] != c[3]:
            return CheckVerdict.fail(*c)
    return CheckVerdict.ok()


def checker(laws):
    """The checker of a law.  ``laws(*args)`` raises any shape error of its
    input, then returns the law's lazy stream of comparisons.
    ``check(*args)`` is ``first_failure(laws(*args))``, and ``check.laws``
    stays reachable."""
    @functools.wraps(laws)
    def check(*args, **kwargs):
        return first_failure(laws(*args, **kwargs))
    check.laws = laws
    return check


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """Exact matrix product f o g (apply g first)."""
    if f.dim_in != g.dim_out:
        raise ShapeError(f"cannot compose: {f.dim_in} != {g.dim_out}")
    cols = list(zip(*g.entries))
    return LinearMap(tuple(tuple(sum(map(operator.mul, row, col)) for col in cols)
                           for row in f.entries))


def power(f: LinearMap, n: int) -> LinearMap:
    """f composed with itself n times; n = 0 gives the identity."""
    if f.dim_in != f.dim_out:
        raise ShapeError("power requires a square map")
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    out = LinearMap.identity(f.dim_in)
    for _ in range(n):
        out = compose(out, f)
    return out


def maps_commute(f: LinearMap, g: LinearMap) -> bool:
    return compose(f, g) == compose(g, f)


def invert(f: LinearMap) -> LinearMap:
    """Exact inverse by Gaussian elimination; NotInvertibleError if singular."""
    if f.dim_in != f.dim_out:
        raise ShapeError("only square maps can be inverted")
    n = f.dim_in
    aug = [list(f.entries[i]) + list(basis_vector(n, i)) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NotInvertibleError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return LinearMap(tuple(tuple(row[n:]) for row in aug))


def nonzero_entries(grid: Sequence[Sequence]) -> list[tuple[int, int, Scalar]]:
    """The ``(p, q, grid[p][q])`` triples with a nonzero entry, row by row."""
    return [(p, q, c) for p, row in enumerate(grid)
            for q, c in enumerate(row) if c]


def tensor_sum(dim: int, rank: int, terms: Iterable[tuple]) -> list:
    """Exact sum of ``c * v_1 (x) ... (x) v_rank`` over ``(c, v_1, ..., v_rank)``.

    The result is a vector, grid or cube (rank 1, 2 or 3) of ``dim``-long
    nested lists seeded with ``0``, so that its entries are ``int`` where the
    terms are.  Zero coefficients and zero
    coordinates are skipped.  Each rank has its own loop: a rank-generic
    recursion is measurably slower on the checkers' hot paths.
    """
    terms = [t for t in terms if t[0]]
    if rank == 1:
        out = [0] * dim
        for c, u in terms:
            for a, x in enumerate(u):
                if x:
                    out[a] += c * x
        return out
    if rank == 2:
        out = [[0] * dim for _ in range(dim)]
        for c, u, v in terms:
            for a, x in enumerate(u):
                if not x:
                    continue
                cx, row = c * x, out[a]
                for b, y in enumerate(v):
                    if y:
                        row[b] += cx * y
        return out
    if rank == 3:
        out = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for c, u, v, w in terms:
            for a, x in enumerate(u):
                if not x:
                    continue
                cx, plane = c * x, out[a]
                for b, y in enumerate(v):
                    if not y:
                        continue
                    cxy, row = cx * y, plane[b]
                    for k, z in enumerate(w):
                        if z:
                            row[k] += cxy * z
        return out
    raise ValueError(f"tensor rank must be 1, 2 or 3, got {rank}")


def map_tensor2(f: LinearMap, g: LinearMap, t: Tensor2) -> Tensor2:
    """(f (x) g)(t) = sum t[p][q] f(e_p) (x) g(e_q)."""
    if f.dim_in != t.dim or g.dim_in != t.dim:
        raise ShapeError("tensor factor dims do not match the maps")
    if f.dim_out != g.dim_out:
        raise ShapeError("Tensor2 must be square with positive dimension")
    f_cols, g_cols = list(zip(*f.entries)), list(zip(*g.entries))
    return Tensor2(tensor_sum(f.dim_out, 2, [
        # t[p][q] f(e_p) (x) g(e_q)
        (c, f_cols[p], g_cols[q])
        for p, q, c in nonzero_entries(t.coeffs)]))


@checker
def is_algebra_map(f: LinearMap, m: BilinearOp,
                   law: str = "multiplicative") -> Iterator[tuple]:
    """Pass iff f(e_i . e_j) = f(e_i) . f(e_j) for all basis pairs; a failure
    is reported under ``law``."""
    if f.dim_in != f.dim_out:
        raise ShapeError("algebra maps are endomorphisms")
    if f.dim_in != m.dim:
        raise ShapeError("map and product dims differ")
    images = [f.column(j) for j in range(m.dim)]
    return identity(law, m.dim, 2, lambda i, j: f.apply(m.basis_product(i, j)),
                    lambda i, j: m.apply(images[i], images[j]))


def compose_delta(delta: Comultiplication, f: LinearMap) -> Comultiplication:
    """Delta o f, which sends e_m to sum_p f[p][m] Delta(e_p)."""
    if f.dim_in != f.dim_out or f.dim_in != delta.dim:
        raise ShapeError("map and comultiplication dims differ")
    d = delta.dim
    basis = [basis_vector(d, j) for j in range(d)]
    return Comultiplication(tensor_sum(d, 3, [
        # f[p][m] Delta[p][j][k] e_m (x) e_j (x) e_k
        (fpm * c, basis[m], basis[j], basis[k])
        for p, m, fpm in nonzero_entries(f.entries)
        for j, k, c in nonzero_entries(delta.cube[p])]))


@checker
def is_coalgebra_map(f: LinearMap, delta: Comultiplication,
                     law: str = "comultiplicative") -> Iterator[tuple]:
    """Pass iff (f (x) f)(Delta(e_m)) = Delta(f(e_m)) for all basis indices,
    compared as flattened coefficient grids; a failure is reported under
    ``law``."""
    after = compose_delta(delta, f)
    return identity(law, delta.dim, 1,
                    lambda m: sum(map_tensor2(f, f, delta.image(m)).coeffs, ()),
                    lambda m: sum(after.cube[m], ()))


@checker
def bilinear_equal(m1: BilinearOp, m2: BilinearOp) -> Iterator[tuple]:
    """Pass iff all structure constants agree; first differing (i,j,k) else."""
    if m1.dim != m2.dim:
        raise ShapeError("bilinear ops have different dims")
    return identity("equal", m1.dim, 3, lambda i, j, k: m1.cube[i][j][k],
                    lambda i, j, k: m2.cube[i][j][k])
