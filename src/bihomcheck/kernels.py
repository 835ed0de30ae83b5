"""Integer fast path for the exhaustive candidate searches.

Search grids are assignments of coefficients to free slots; each target's
acceptance condition is a polynomial identity in those coefficients.  When
the coefficient set, the structure constants and the parameter maps are all
integers, the identity can be evaluated exactly in int64 and used as a
prefilter, as long as no intermediate can overflow.  Overflow safety is
established up front: every condition is written as ``lhs == rhs`` with
subtraction-free sides, so evaluating both sides with absolute values and
the largest coefficient magnitude bounds every intermediate of the real
computation.  If that bound does not fit comfortably in int64 the caller
falls back to the exact rational path.

The mask is a vectorized numpy evaluation of whole candidate chunks.
``BIHOMCHECK_KERNEL`` selects the path (``auto`` / ``numpy`` / ``exact``);
the search layer re-certifies every survivor with the exact rational
checkers regardless of the path taken.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

ENV_VAR = "BIHOMCHECK_KERNEL"
BACKENDS = ("auto", "numpy", "exact")
INT64_SAFE = 1 << 62
#: under ``auto``, grids of at most this many candidates run the exact path
SMALL_SPACE = 2048
CHUNK = 8192


def _check_backend(value: str, source: str) -> str:
    """Return ``value`` if it names a backend, else raise ValueError."""
    if value == "numba":
        raise ValueError(f"{source}: the numba backend was removed; "
                         "use auto|numpy|exact")
    if value not in BACKENDS:
        raise ValueError(f"{source} must be auto|numpy|exact, got {value!r}")
    return value


def requested_backend() -> str:
    return _check_backend(os.environ.get(ENV_VAR, "auto").strip().lower(),
                          ENV_VAR)


def resolve_backend(n_candidates: int, requested: str | None = None,
                    int_data: bool = True, bound_ok: bool = True) -> str:
    """Pick the backend actually used for a search of the given size:
    ``"exact"`` or ``"numpy"``."""
    req = (_check_backend(requested, "backend") if requested
           else requested_backend())
    if req == "exact" or not int_data or not bound_ok:
        return "exact"
    if req == "auto" and n_candidates <= SMALL_SPACE:
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
    """
    kind: str
    dim: int
    mu: np.ndarray
    left: np.ndarray
    right: np.ndarray
    commute: np.ndarray
    slots: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_slots(self) -> int:
        n = len(self.slots)
        return 2 * n if self.kind == "map-pair" else n


def empty_commute(dim: int) -> np.ndarray:
    return np.zeros((0, dim, dim), dtype=np.int64)


# ---------------------------------------------------------------------------
# Candidate decoding
# ---------------------------------------------------------------------------

def decode_chunk(start: int, stop: int, n_values: int, n_slots: int,
                 values: np.ndarray) -> np.ndarray:
    """Mixed-radix decode of candidate indices: slot 0 is most significant,
    matching itertools.product enumeration order on the exact path."""
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((idx.size, n_slots), dtype=np.int64)
    for t in range(n_slots):
        stride = n_values ** (n_slots - 1 - t)
        digits[:, t] = (idx // stride) % n_values
    return values[digits]


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
        problem.slots)
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

def fast_survivors(problem: GridProblem, coeff_values: list[int],
                   chunk: int = CHUNK) -> list[int]:
    """Indices (in lexicographic enumeration order) of all grid candidates
    passing the target's integer mask."""
    values = np.array(coeff_values, dtype=np.int64)
    n_slots = problem.n_slots
    total = len(coeff_values) ** n_slots
    survivors: list[int] = []
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        coeffs = decode_chunk(start, stop, len(coeff_values), n_slots, values)
        cands = scatter(problem, coeffs)
        mask = numpy_mask(problem, cands)
        survivors.extend(int(i) + start for i in np.nonzero(mask)[0])
        start = stop
    return survivors
