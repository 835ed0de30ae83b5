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

The mask is a vectorized numpy evaluation of whole candidate chunks.  The
search layer asks ``resolve_backend`` (``auto`` / ``numpy`` / ``exact``)
whether to try the fast path, builds the problem only if so, and
re-certifies every survivor with the exact rational checkers regardless of
the path taken.
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

def _np_conditions(problem: GridProblem, cands: tuple[np.ndarray, ...]):
    mu, L, R_, comm = problem.mu, problem.left, problem.right, problem.commute
    kind = problem.kind
    out = []
    if kind == "aybe":
        (r,) = cands
        for M in (L, R_):
            out.append((np.einsum("ap,xpq,cq->xac", M, r, M, optimize=True), r))
        t12 = np.einsum("up,xpq,qsv,xst,wt->xuvw", L, r, mu, r, R_, optimize=True)
        t13 = np.einsum("xpq,xst,psu,vt,wq->xuvw", r, r, mu, R_, R_, optimize=True)
        t23 = np.einsum("up,vs,xpq,xst,tqw->xuvw", L, L, r, r, mu, optimize=True)
        out.append((t13 + t23, t12))
    elif kind in ("brace-rb", "paren-rb", "derivation"):
        (R,) = cands
        for M in comm:
            out.append((np.einsum("xab,bc->xac", R, M, optimize=True),
                        np.einsum("ab,xbc->xac", M, R, optimize=True)))
        if kind == "brace-rb":
            U = np.einsum("xab,bc->xac", R, L, optimize=True)
            V = np.einsum("xab,bc->xac", R, R_, optimize=True)
            lhs = np.einsum("xpi,xqj,pqk->xijk", U, V, mu, optimize=True)
            w = (np.einsum("pi,xqj,pqm->xijm", L, R, mu, optimize=True)
                 + np.einsum("xpi,qj,pqm->xijm", R, R_, mu, optimize=True))
            rhs = np.einsum("xijm,xkm->xijk", w, R, optimize=True)
            out.append((lhs, rhs))
        elif kind == "paren-rb":
            lhs = np.einsum("xpi,xqj,pqk->xijk", R, R, mu, optimize=True)
            U = np.einsum("ab,xbc->xac", L, R, optimize=True)
            V = np.einsum("ab,xbc->xac", R_, R, optimize=True)
            w = (np.einsum("xpi,pjm->xijm", U, mu, optimize=True)
                 + np.einsum("xqj,iqm->xijm", V, mu, optimize=True))
            rhs = np.einsum("xijm,xkm->xijk", w, R, optimize=True)
            out.append((lhs, rhs))
        else:
            lhs = np.einsum("ijm,xkm->xijk", mu, R, optimize=True)
            rhs = (np.einsum("xpi,qj,pqk->xijk", R, R_, mu, optimize=True)
                   + np.einsum("pi,xqj,pqk->xijk", L, R, mu, optimize=True))
            out.append((lhs, rhs))
    elif kind == "map-pair":
        f, g = cands
        for h in (f, g):
            lhs = np.einsum("ijm,xkm->xijk", mu, h, optimize=True)
            rhs = np.einsum("xpi,xqj,pqk->xijk", h, h, mu, optimize=True)
            out.append((lhs, rhs))
        out.append((np.einsum("xab,xbc->xac", f, g, optimize=True),
                    np.einsum("xab,xbc->xac", g, f, optimize=True)))
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return out


def numpy_mask(problem: GridProblem, cands: tuple[np.ndarray, ...]) -> np.ndarray:
    batch = cands[0].shape[0]
    mask = np.ones(batch, dtype=bool)
    for lhs, rhs in _np_conditions(problem, cands):
        axes = tuple(range(1, lhs.ndim))
        mask &= (lhs == rhs).all(axis=axes)
    return mask


def magnitude_bound(problem: GridProblem, coeff_max: int) -> int:
    """Largest value either side of any condition can reach, computed with
    arbitrary-precision integers on the all-|max| candidate.  Every
    intermediate of the int64 evaluation is bounded by the corresponding
    abs-evaluated value, so bound < 2^62 guarantees overflow-free masks."""
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
    for lhs, rhs in _np_conditions(absprob, cands):
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
