"""Parametrized immersions, their 2-jets, and tangent-plane coordinates.

A chart is an ordered list of coordinate expressions ``x1..xN`` in the
parameters ``t1..tn``.  Evaluating a chart yields a frame holding position,
Jacobian and second derivatives, batched over arbitrary grid shapes.  The
frame's tangent n-plane is encoded by the vector of maximal minors of the
transposed Jacobian; for hypersurfaces the minors are ordered by omitted
ambient axis, otherwise lexicographically by the selected axis set.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateJacobian, ZeroPlueckerVector
from .expr import Expr, parse, _batch, _compile, _first_bad, _run, _store

__all__ = [
    "ImmersionChart", "ConeChart", "JetFrame", "PlueckerVector",
    "minor_index_sets", "jacobian_frame", "cone_frame", "immersion_check",
    "pluecker", "scaled_frame",
]

CoordSpec = Union[str, Expr]


@dataclass(frozen=True)
class JetFrame:
    """Position, Jacobian and second derivatives at a point or grid.

    ``jac[a, j]`` is the derivative of ambient coordinate ``a`` along
    parameter ``j``; ``second[a, j, k]`` the corresponding second
    derivative.  Batch axes, if any, trail.
    """

    t: np.ndarray        # (n, ...)
    x: np.ndarray        # (N, ...)
    jac: np.ndarray      # (N, n, ...)
    second: np.ndarray   # (N, n, n, ...)

    @property
    def n(self) -> int:
        return self.jac.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.jac.shape[0]

    @property
    def batch_shape(self) -> tuple:
        return self.jac.shape[2:]


class ImmersionChart:
    """Immersion given by one closed-form expression per ambient coordinate."""

    def __init__(self, coords: Sequence[CoordSpec], arity: int):
        self.n = int(arity)
        self.coords = tuple(
            parse(c, self.n) if isinstance(c, str) else c for c in coords)
        self.ambient_dim = len(self.coords)
        if self.ambient_dim < self.n:
            raise ValueError(
                f"need at least {self.n} ambient coordinates, "
                f"got {self.ambient_dim}")

    @functools.cached_property
    def _tape(self) -> tuple:
        return _compile(self.coords)

    def frame(self, t) -> JetFrame:
        return jacobian_frame(self, t)


class ConeChart:
    """Cone over an affine chart of projective space, frozen at cone
    parameter 1.

    ``funcs`` lists the homogeneous coordinates with ``None`` marking the
    affine slot (the coordinate that is constantly 1 in the chart).  The
    resulting frames carry one extra trailing parameter, the ray scale,
    so their minors live in the same spaces as for ordinary charts.
    """

    def __init__(self, funcs: Sequence[Optional[CoordSpec]], arity: int):
        self.n = int(arity)
        slots = [i for i, f in enumerate(funcs) if f is None]
        if len(slots) != 1:
            raise ValueError("exactly one affine slot (None) required")
        self.slot = slots[0]
        self.funcs = tuple(
            None if f is None else (parse(f, self.n) if isinstance(f, str) else f)
            for f in funcs)
        self.ambient_dim = len(self.funcs)

    @functools.cached_property
    def _tape(self) -> tuple:
        return _compile([f for f in self.funcs if f is not None])

    def frame(self, t) -> JetFrame:
        return _cone_frame(self._tape, self.slot, self.ambient_dim, t)


def jacobian_frame(chart: ImmersionChart, t) -> JetFrame:
    """Evaluate position, Jacobian and second derivatives of a chart.

    The chart's tape runs once for all coordinates, on the open grid
    when ``t`` is a tensor grid.  Each coordinate's jet is broadcast to
    the full grid only as it is written into the frame.
    """
    t = np.asarray(t, float)
    n, shape, N = t.shape[0], t.shape[1:], len(chart.coords)
    x = np.empty((N,) + shape)
    jac = np.empty((N, n) + shape)
    second = np.empty((N, n, n) + shape)
    _run(chart._tape, _batch(t)[0], 2,
         lambda a, *jet: _store((x[a, ...], jac[a], second[a]), *jet))
    return JetFrame(t=t, x=x, jac=jac, second=second)


def cone_frame(funcs: Sequence[Optional[Expr]], slot: int, t) -> JetFrame:
    """Frame of the cone map ``(t, s) -> s * lift(t)`` at ray scale 1.

    The lift inserts the constant 1 at ``slot``.  Parameters are ordered
    with the ray scale last, so the first ``n`` columns of the Jacobian
    are the chart directions and the last is the position itself.
    """
    tape = _compile([f for a, f in enumerate(funcs) if a != slot])
    return _cone_frame(tape, slot, len(funcs), t)


def _cone_frame(tape: tuple, slot: int, N: int, t) -> JetFrame:
    t = np.asarray(t, float)
    n, shape = t.shape[0], t.shape[1:]
    rows = [a for a in range(N) if a != slot]
    x = np.empty((N,) + shape)
    jac = np.zeros((N, n + 1) + shape)
    second = np.zeros((N, n + 1, n + 1) + shape)
    x[slot] = 1.0
    _run(tape, _batch(t)[0], 2, lambda i, *jet: _store(
        (x[rows[i], ...], jac[rows[i], :n], second[rows[i], :n, :n]), *jet))
    jac[:, n] = x
    second[:, :n, n] = second[:, n, :n] = jac[:, :n]
    return JetFrame(t=t, x=x, jac=jac, second=second)


def minor_index_sets(n: int, ambient_dim: int) -> tuple:
    """Axis subsets selecting the maximal minors, in storage order.

    In codimension one the minor omitting axis ``i`` is stored at
    position ``i``; otherwise subsets run lexicographically.
    """
    if ambient_dim == n + 1:
        full = range(ambient_dim)
        return tuple(tuple(a for a in full if a != i) for i in full)
    return tuple(itertools.combinations(range(ambient_dim), n))


# the rank test's threshold, shared with the certificate of ``check_minors``
_RANK_EPS = 1e-9


def immersion_check(frame: JetFrame, eps: float = _RANK_EPS) -> None:
    """Raise if the Jacobian is rank-deficient anywhere on the frame.

    The smallest singular value at each point must exceed ``eps`` times
    the largest one seen anywhere on the frame.  Comparing against the
    frame-wide maximum keeps the test scale-invariant yet still catches
    near-cusps of curves, where the pointwise ratio is identically one.
    """
    if frame.n == 1:
        # the only singular value of an N x 1 Jacobian is its column norm
        smin = smax = np.sqrt(np.sum(frame.jac ** 2, axis=0))[0]
    else:
        A = np.moveaxis(frame.jac, (0, 1), (-2, -1))
        sv = np.linalg.svd(A, compute_uv=False)
        smin, smax = sv[..., -1], sv[..., 0]
    scale = np.max(smax)
    bad = ~(smin > eps * scale) | ~np.isfinite(smax)
    if np.any(bad):
        location = _first_bad(np.asarray(bad), frame.t)
        location["sigma_min"] = float(np.min(smin))
        raise DegenerateJacobian(
            "Jacobian loses rank on the evaluation set", location=location)


class PlueckerVector:
    """Maximal minors of the transposed Jacobian and their derivatives.

    ``p[c]`` is the minor for ``indices[c]``; ``dp[c, j]`` its derivative
    along parameter ``j``, the sum over Jacobian rows of the minor with
    that row replaced by its derivative.  Batch axes trail.  ``dp`` may
    be given as the ``JetFrame`` of the minors, and is then built from
    it on first read: the degree density for ``n >= 3`` never reads it.
    """

    def __init__(self, indices, p, dp, norm, t):
        self.indices = indices   # C axis subsets, each an n-tuple
        self.p = p               # (C, ...)
        self.norm = norm         # (...)
        self.t = t               # (n, ...)
        self._dp = dp            # (C, n, ...), or the frame to build it from

    @property
    def n(self) -> int:
        if isinstance(self._dp, JetFrame):
            return self._dp.n
        return self._dp.shape[1]

    @property
    def dp(self) -> np.ndarray:
        if isinstance(self._dp, JetFrame):
            self._dp = _minor_derivatives(self._dp, self.indices)
        return self._dp


def _det(rows) -> np.ndarray:
    """Determinants of ``rows``, laid out ``(n, n) + batch``.

    Sizes up to 4 are closed forms on the entries ``rows[i][j]``, so a
    nested list of arrays works as well as one array; size 4 expands
    along the first row over the 3x3 form.  Larger sizes go to LAPACK,
    which wants the matrix axes last.
    """
    n = len(rows)
    if n == 0:
        return 1.0
    if n == 1:
        return rows[0][0] * 1.0  # a copy, never a view into rows
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = (tuple(r) for r in rows)
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a, b, c, d), *rest = (tuple(r) for r in rows)

        def minor(j):
            return _det([r[:j] + r[j + 1:] for r in rest])
        return a * minor(0) - b * minor(1) + c * minor(2) - d * minor(3)
    return np.linalg.det(np.moveaxis(np.asarray(rows), (0, 1), (-2, -1)))


def _blocks(frame: JetFrame, index_sets):
    """Per minor, its square block of the transposed Jacobian as nested
    lists of views, ``block[j][a]`` = d x_cols[a] / d t_j."""
    At = frame.jac.swapaxes(0, 1)
    n = frame.n
    return [[[At[j, a] for a in cols] for j in range(n)]
            for cols in index_sets]


def pluecker(frame: JetFrame, check: bool = True) -> PlueckerVector:
    """Tangent-plane coordinates of a frame.

    The parameter derivatives ``dp`` are left to be built on first
    read.
    """
    index_sets = minor_index_sets(frame.n, frame.ambient_dim)
    p = np.empty((len(index_sets),) + frame.batch_shape)
    for c, block in enumerate(_blocks(frame, index_sets)):
        p[c] = _det(block)
    norm = np.sqrt(np.sum(p * p, axis=0))
    pv = PlueckerVector(indices=index_sets, p=p, dp=frame, norm=norm,
                        t=frame.t)
    if check:
        _zero_minor_check(pv, _column_sq_norms(frame))
    return pv


def _minor_derivatives(frame: JetFrame, index_sets) -> np.ndarray:
    """``dp`` of the minors ``index_sets`` of a frame.

    A minor is linear in each row, so its derivative along ``t_k``
    pairs the cofactors with the row derivatives:
    ``dp[c, k] = sum_{r, a} cof[r, a] * Dt[r, cols[a], k]``.
    """
    n = frame.n
    # Dt[j, a, k] = d^2 x_a / d t_j d t_k
    Dt = frame.second.swapaxes(0, 1)
    dp = np.zeros((len(index_sets), n) + frame.batch_shape)
    for c, (cols, block) in enumerate(
            zip(index_sets, _blocks(frame, index_sets))):
        for r in range(n):
            rest = block[:r] + block[r + 1:]
            for a, col in enumerate(cols):
                cof = _det([row[:a] + row[a + 1:] for row in rest])
                if (r + a) % 2:
                    cof = -cof
                dp[c] += cof * Dt[r, col]
    return dp


def _column_sq_norms(frame: JetFrame) -> np.ndarray:
    """Squared Jacobian column norms ``|d x / d t_j|^2``, ``(n, ...)``."""
    At = frame.jac.swapaxes(0, 1)
    return np.sum(At * At, axis=1)


def scaled_frame(frame: JetFrame):
    """``(frame, col_sq, e)``: the frame with its Jacobian and second
    derivatives multiplied by ``2**-e``, its squared column norms, and
    ``e``, which is 0 (the frame untouched) unless the frame's scale is
    outside a window that keeps every density's products finite.

    Every density is homogeneous of degree 0 in the frame, and scaling
    by a power of two is exact, so the densities are unchanged.  They
    multiply at most ``n (n + 1) + 2`` Jacobian entries (the degree
    form's ``|p|^(n+1)``, the complex pairing's ``|p|^4``); the window
    keeps such a product of the largest entries within half the
    exponent range.  A scaled frame's largest entry is in ``[1/2, 1)``.
    """
    with np.errstate(over="ignore"):
        col_sq = _column_sq_norms(frame)
    bound = 2.0 ** (1022 // (frame.n * (frame.n + 1) + 2))
    if 1.0 / bound <= col_sq.max() <= bound:
        return frame, col_sq, 0
    top = float(np.max(np.abs(frame.jac)))
    if not 0.0 < top < math.inf:
        # no scale to take out; the rank test refuses such a frame
        return frame, col_sq, 0
    e = math.frexp(top)[1]
    frame = JetFrame(t=frame.t, x=frame.x, jac=np.ldexp(frame.jac, -e),
                     second=np.ldexp(frame.second, -e))
    return frame, _column_sq_norms(frame), e


def _zero_minor_check(pv: PlueckerVector, col_sq: np.ndarray) -> None:
    """Hadamard bound on the minors: a scale-free zero test."""
    bound = np.prod(np.sqrt(col_sq), axis=0)
    bad = ~(pv.norm > 1e-12 * bound) | ~np.isfinite(pv.norm)
    if np.any(bad):
        location = _first_bad(np.asarray(bad), pv.t)
        location["norm"] = float(np.min(pv.norm))
        raise ZeroPlueckerVector(
            "tangent-plane coordinates vanish on the evaluation set",
            location=location)


def check_minors(frame: JetFrame, pv: PlueckerVector,
                 col_sq: Optional[np.ndarray] = None) -> None:
    """The rank test of ``immersion_check`` and the zero-minor test of
    ``pluecker``, with the SVD skipped where the minors suffice.

    ``|p|`` is the product of the singular values (Cauchy-Binet), and
    the other ``n - 1`` multiply to at most ``sqrt(e)``, ``e`` the
    elementary symmetric polynomial of degree ``n - 1`` in the squared
    column norms ``s`` (Hadamard on the compound matrix; ``e = 1`` for
    ``n = 1``).  So ``sigma_min >= |p| / sqrt(e)``, tight for orthogonal
    columns, and ``sigma_max <= sqrt(tr)``, ``tr = |J|_F^2``.  When every
    point's bound clears ``2 eps sqrt(max tr)``, the factor 2 covering
    the rounding of ``|p|``, the rank test passes; otherwise
    ``immersion_check`` decides, so the decision and the payload are
    the SVD's.  A certified frame also passes the zero-minor test, for
    every ``n``: ``|p| > 2 eps sqrt(e_{n-1}(s) e_1(s)) >= 2 eps n
    sqrt(e_n(s))`` (Maclaurin), and ``sqrt(e_n(s))`` is the Hadamard
    bound ``prod |d x / d t_j|``.  So that test runs only after a
    fallback, and after the rank test, which keeps
    ``DegenerateJacobian`` first.  ``col_sq`` are the frame's squared
    column norms, if already at hand.
    """
    n = frame.n
    if col_sq is None:
        col_sq = _column_sq_norms(frame)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = sum(np.prod(np.delete(col_sq, j, axis=0), axis=0)
                for j in range(n)) if n > 1 else 1.0
        lower = pv.norm / np.sqrt(e)
    floor = 2.0 * _RANK_EPS * math.sqrt(col_sq.sum(axis=0).max())
    # NaN fails every comparison, so it falls through to the SVD
    if not (floor < lower.min() and pv.norm.max() < math.inf):
        immersion_check(frame)
        _zero_minor_check(pv, col_sq)
