"""Integer fast path for the exhaustive candidate searches.

Search grids are assignments of coefficients to free slots; each target's
acceptance condition is a polynomial identity in those coefficients.  When
the coefficient set, the structure constants and the parameter maps are all
integers, the identity can be evaluated exactly in int64 and used as a
prefilter, as long as no intermediate can overflow.  Overflow safety is
established up front: every condition is written as ``lhs == rhs`` with
subtraction-free sides, so evaluating both sides with absolute values and
the largest coefficient magnitude bounds every intermediate of the real
computation.  ``grid_problem`` makes that decision: it returns None, and the
search runs the exact rational path, unless all data is integral and the
bound fits comfortably in int64.

The mask is a vectorized numpy evaluation over chunks of candidates, in
stages: the conditions run in certifier order, each one slice of its first
output index at a time, and each stage sees only the candidates that passed
every stage before it.  Nearly every candidate fails early, so most of the
chunk is dropped after the first few slices.  The search layer asks
``resolve_backend`` (``auto`` / ``numpy`` / ``exact``) whether to try the
fast path, builds the problem only if so, and re-certifies every survivor
with the exact rational checkers regardless of the path taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKENDS = ("auto", "numpy", "exact")
INT64_SAFE = 1 << 62
#: under ``auto``, grids of at most this many candidates run the exact path
SMALL_SPACE = 2048
CHUNK = 8192


def resolve_backend(n_candidates: int, requested: str | None = None) -> str:
    """The path a search of the given size asks for, ``"exact"`` or
    ``"numpy"``; ``requested`` defaults to ``"auto"``.  A ``"numpy"`` search
    still runs the exact path when ``grid_problem`` returns None."""
    req = requested or "auto"
    if req == "numba":
        raise ValueError("backend: the numba backend was removed; "
                         "use auto|numpy|exact")
    if req not in BACKENDS:
        raise ValueError(f"backend must be auto|numpy|exact, got {req!r}")
    if req == "exact" or (req == "auto" and n_candidates <= SMALL_SPACE):
        return "exact"
    return "numpy"


# ---------------------------------------------------------------------------
# Problem description
# ---------------------------------------------------------------------------

@dataclass
class GridProblem:
    """Integer arrays for one search target.

    ``kind`` is one of aybe / brace-rb / paren-rb / derivation / map-pair.
    ``mu`` is the structure-constant cube; ``left``/``right`` are the two
    twisting matrices of the identity (alpha/beta for aybe); ``commute`` is
    a stack of matrices the candidate must commute with.  ``slots`` are the
    free (row, col) positions of the candidate matrix, in lexicographic
    order; map-pair candidates consist of two matrices with the same slots.
    ``values`` are the grid's coefficients.
    """
    kind: str
    dim: int
    mu: np.ndarray
    left: np.ndarray
    right: np.ndarray
    commute: np.ndarray
    slots: list[tuple[int, int]]
    values: list[int]

    @property
    def n_slots(self) -> int:
        n = len(self.slots)
        return 2 * n if self.kind == "map-pair" else n


def _ints(values) -> list[int] | None:
    """``values`` as ints, or None if one of them is not an integer."""
    values = list(values)
    if any(v.denominator != 1 for v in values):
        return None
    return [int(v) for v in values]


def grid_problem(form: str, mu, maps, slots, coefficients
                 ) -> GridProblem | None:
    """The integer problem of a search, or None when the search must run on
    the exact path: a structure constant, a map entry or a coefficient is
    not an integer, or ``magnitude_bound`` reaches ``INT64_SAFE``.

    ``mu`` is the ambient BilinearOp and ``maps`` are LinearMaps: the left
    and right twists, then the maps the candidate must commute with (none
    for a map-pair search)."""
    d = mu.dim
    values = _ints(coefficients)
    cube = _ints(x for plane in mu.cube for row in plane for x in row)
    entries = [_ints(x for row in f.entries for x in row) for f in maps]
    if values is None or cube is None or any(e is None for e in entries):
        return None
    stack = (np.array(entries, dtype=np.int64).reshape(-1, d, d) if entries
             else np.zeros((2, d, d), dtype=np.int64))
    cube = np.array(cube, dtype=np.int64).reshape(d, d, d)
    problem = GridProblem(form, d, cube, stack[0], stack[1], stack[2:],
                          list(slots), values)
    if magnitude_bound(problem, max(abs(v) for v in values)) >= INT64_SAFE:
        return None
    return problem


# ---------------------------------------------------------------------------
# Candidate decoding
# ---------------------------------------------------------------------------

def decode_chunk(start: int, stop: int, n_values: int, n_slots: int
                 ) -> np.ndarray:
    """Mixed-radix decode of candidate indices into one coefficient index
    per slot: slot 0 is most significant, matching the order of
    ``itertools.product(range(n_values), repeat=n_slots)``."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((idx.size, n_slots), dtype=np.int64)
    for t in range(n_slots):
        stride = n_values ** (n_slots - 1 - t)
        digits[:, t] = (idx // stride) % n_values
    return digits


def scatter(problem: GridProblem, coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Place slot values into full candidate matrices (batch-first)."""
    d = problem.dim
    rows = np.array([s[0] for s in problem.slots], dtype=np.int64)
    cols = np.array([s[1] for s in problem.slots], dtype=np.int64)
    n = len(problem.slots)
    if problem.kind == "map-pair":
        f = np.zeros((coeffs.shape[0], d, d), dtype=coeffs.dtype)
        g = np.zeros((coeffs.shape[0], d, d), dtype=coeffs.dtype)
        f[:, rows, cols] = coeffs[:, :n]
        g[:, rows, cols] = coeffs[:, n:]
        return f, g
    full = np.zeros((coeffs.shape[0], d, d), dtype=coeffs.dtype)
    full[:, rows, cols] = coeffs
    return (full,)


# ---------------------------------------------------------------------------
# The mask: each condition as a subtraction-free (lhs, rhs) pair
# ---------------------------------------------------------------------------

def _np_conditions(problem: GridProblem) -> list:
    """The target's conditions, commutations first and the main law last,
    as the certifier checks them.  Each is a function
    ``cond(cands, lead) -> (lhs, rhs)`` of batch-first candidate matrices;
    ``lead`` slices the first output index after the batch axis, and is
    applied to every operand carrying that index, so ``lhs`` and ``rhs``
    are that slice of the condition's two sides.  An intermediate built
    from sliced operands (``U``, ``w``) is not sliced again."""
    mu, L, R_, comm = problem.mu, problem.left, problem.right, problem.commute

    def e(spec, *operands):
        return np.einsum(spec, *operands, optimize=True)

    def commutes(M):  # R M == M R
        def cond(cands, lead):
            R = cands[0]
            return e("xab,bc->xac", R[:, lead], M), e("ab,xbc->xac", M[lead], R)
        return cond

    def invariant(M):  # (M (x) M) r == r
        def cond(cands, lead):
            (r,) = cands
            return e("ap,xpq,cq->xac", M[lead], r, M), r[:, lead]
        return cond

    def aybe(cands, lead):
        (r,) = cands
        t12 = e("up,xpq,qsv,xst,wt->xuvw", L[lead], r, mu, r, R_)
        t13 = e("xpq,xst,psu,vt,wq->xuvw", r, r, mu[:, :, lead], R_, R_)
        t23 = e("up,vs,xpq,xst,tqw->xuvw", L[lead], L, r, r, mu)
        return t13 + t23, t12

    def brace_rb(cands, lead):
        (R,) = cands
        U = e("xab,bc->xac", R, L[:, lead])
        V = e("xab,bc->xac", R, R_)
        lhs = e("xpi,xqj,pqk->xijk", U, V, mu)
        w = (e("pi,xqj,pqm->xijm", L[:, lead], R, mu)
             + e("xpi,qj,pqm->xijm", R[:, :, lead], R_, mu))
        return lhs, e("xijm,xkm->xijk", w, R)

    def paren_rb(cands, lead):
        (R,) = cands
        lhs = e("xpi,xqj,pqk->xijk", R[:, :, lead], R, mu)
        U = e("ab,xbc->xac", L, R[:, :, lead])
        V = e("ab,xbc->xac", R_, R)
        w = e("xpi,pjm->xijm", U, mu) + e("xqj,iqm->xijm", V, mu[lead])
        return lhs, e("xijm,xkm->xijk", w, R)

    def derivation(cands, lead):
        (R,) = cands
        lhs = e("ijm,xkm->xijk", mu[lead], R)
        rhs = (e("xpi,qj,pqk->xijk", R[:, :, lead], R_, mu)
               + e("pi,xqj,pqk->xijk", L[:, lead], R, mu))
        return lhs, rhs

    def multiplicative(n):  # f(x y) == f(x) f(y) for f = cands[n]
        def cond(cands, lead):
            f = cands[n]
            return (e("ijm,xkm->xijk", mu[lead], f),
                    e("xpi,xqj,pqk->xijk", f[:, :, lead], f, mu))
        return cond

    def pair_commutes(cands, lead):  # f g == g f
        f, g = cands
        return e("xab,xbc->xac", f[:, lead], g), e("xab,xbc->xac", g[:, lead], f)

    kind = problem.kind
    if kind == "aybe":
        return [invariant(L), invariant(R_), aybe]
    laws = {"brace-rb": brace_rb, "paren-rb": paren_rb,
            "derivation": derivation}
    if kind in laws:
        return [*map(commutes, comm), laws[kind]]
    if kind == "map-pair":
        return [multiplicative(0), multiplicative(1), pair_commutes]
    raise ValueError(f"unknown problem kind {kind!r}")


def numpy_mask(problem: GridProblem, cands: tuple[np.ndarray, ...]) -> np.ndarray:
    """Which candidates of the batch pass every condition of the target.

    The conditions run in certifier order, each one slice ``lead`` of its
    first output index at a time, and each slice only on the candidates
    that passed everything before it; the loop stops once none is left.  A
    conjunction does not depend on the order of its conjuncts, and two
    tensors are equal exactly when each of their slices is, so the mask is
    that of every condition evaluated on the whole batch."""
    batch = cands[0].shape[0]
    keep = np.arange(batch)
    for cond in _np_conditions(problem):
        for a in range(problem.dim):
            lhs, rhs = cond(cands, slice(a, a + 1))
            ok = (lhs == rhs).reshape(len(keep), -1).all(axis=1)
            if not ok.all():
                keep = keep[ok]
                if not keep.size:
                    return np.zeros(batch, dtype=bool)
                cands = tuple(c[ok] for c in cands)
    mask = np.zeros(batch, dtype=bool)
    mask[keep] = True
    return mask


def magnitude_bound(problem: GridProblem, coeff_max: int) -> int:
    """Largest value either side of any condition can reach, computed with
    arbitrary-precision integers on the all-|max| candidate.  Every
    intermediate of the int64 evaluation is bounded by the corresponding
    abs-evaluated value, so bound < 2^62 guarantees overflow-free masks.
    The conditions are evaluated unsliced here; the mask's sliced sides are
    sub-arrays of these, so the same bound holds for them."""
    absprob = GridProblem(
        problem.kind, problem.dim,
        np.abs(problem.mu).astype(object),
        np.abs(problem.left).astype(object),
        np.abs(problem.right).astype(object),
        np.abs(problem.commute).astype(object),
        problem.slots, problem.values)
    full = np.full((1, len(problem.slots)), int(abs(coeff_max)), dtype=object)
    if problem.kind == "map-pair":
        full = np.concatenate([full, full], axis=1)
    cands = scatter(absprob, full)
    worst = 0
    for cond in _np_conditions(absprob):
        lhs, rhs = cond(cands, slice(None))
        worst = max(worst, int(np.max(lhs)), int(np.max(rhs)))
    return worst


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def fast_survivors(problem: GridProblem, chunk: int = CHUNK
                   ) -> list[tuple[int, ...]]:
    """The coefficient indices (one per slot, as ``decode_chunk`` gives
    them) of every grid candidate passing the target's integer mask, in
    lexicographic enumeration order."""
    values = np.array(problem.values, dtype=np.int64)
    n_values, n_slots = len(values), problem.n_slots
    total = n_values ** n_slots
    survivors: list[tuple[int, ...]] = []
    for start in range(0, total, chunk):
        digits = decode_chunk(start, min(start + chunk, total), n_values,
                              n_slots)
        mask = numpy_mask(problem, scatter(problem, values[digits]))
        survivors.extend(map(tuple, digits[mask].tolist()))
    return survivors
