"""Parametrized immersions, their 2-jets, and tangent-plane coordinates.

A chart is an ordered list of coordinate expressions ``x1..xN`` in the
parameters ``t1..tn``.  Evaluating a chart yields a frame holding position,
Jacobian and second derivatives, batched over arbitrary grid shapes.  The
frame's tangent n-plane is encoded by the vector of maximal minors of the
transposed Jacobian; for hypersurfaces the minors are ordered by omitted
ambient axis, otherwise lexicographically by the selected axis set.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateJacobian, ZeroPlueckerVector
from .expr import Expr, eval_jet2, parse, _first_bad

__all__ = [
    "ImmersionChart", "ConeChart", "JetFrame", "PlueckerVector",
    "minor_index_sets", "jacobian_frame", "cone_frame", "immersion_check",
    "pluecker",
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

    def frame(self, t) -> JetFrame:
        return cone_frame(self.funcs, self.slot, t)


def jacobian_frame(chart: ImmersionChart, t) -> JetFrame:
    """Evaluate position, Jacobian and second derivatives of a chart.

    Each coordinate's jet is copied into the frame as soon as it is
    evaluated, so only one jet is held at a time.
    """
    t = np.asarray(t, float)
    n, shape, N = t.shape[0], t.shape[1:], len(chart.coords)
    x = np.empty((N,) + shape)
    jac = np.empty((N, n) + shape)
    second = np.empty((N, n, n) + shape)
    for a, e in enumerate(chart.coords):
        jet = eval_jet2(e, t)
        x[a], jac[a], second[a] = jet.value, jet.grad, jet.hess
    return JetFrame(t=t, x=x, jac=jac, second=second)


def cone_frame(funcs: Sequence[Optional[Expr]], slot: int, t) -> JetFrame:
    """Frame of the cone map ``(t, s) -> s * lift(t)`` at ray scale 1.

    The lift inserts the constant 1 at ``slot``.  Parameters are ordered
    with the ray scale last, so the first ``n`` columns of the Jacobian
    are the chart directions and the last is the position itself.
    """
    t = np.asarray(t, float)
    n = t.shape[0]
    shape = t.shape[1:]
    N = len(funcs)

    x = np.empty((N,) + shape)
    jac = np.zeros((N, n + 1) + shape)
    second = np.zeros((N, n + 1, n + 1) + shape)
    for a, f in enumerate(funcs):
        if a == slot:
            x[a] = 1.0
            jac[a, n] = 1.0
            continue
        jet = eval_jet2(f, t)
        x[a] = jet.value
        jac[a, :n] = jet.grad
        jac[a, n] = jet.value
        second[a, :n, :n] = jet.hess
        second[a, :n, n] = jet.grad
        second[a, n, :n] = jet.grad
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


def immersion_check(frame: JetFrame, eps: float = 1e-9) -> None:
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


@dataclass(frozen=True)
class PlueckerVector:
    """Maximal minors of the transposed Jacobian and their derivatives.

    ``p[c]`` is the minor for ``indices[c]``; ``dp[c, j]`` its derivative
    along parameter ``j``, the sum over Jacobian rows of the minor with
    that row replaced by its derivative.  Batch axes trail.
    """

    indices: tuple       # C axis subsets, each an n-tuple
    p: np.ndarray        # (C, ...)
    dp: np.ndarray       # (C, n, ...)
    norm: np.ndarray     # (...)
    t: np.ndarray        # (n, ...)

    @property
    def n(self) -> int:
        return self.dp.shape[1]


def _det(rows) -> np.ndarray:
    """Determinants of ``rows``, laid out ``(n, n) + batch``.

    Sizes up to 3 are closed forms on the entries ``rows[i][j]``, so a
    nested list of arrays works as well as one array; larger sizes go to
    LAPACK, which wants the matrix axes last.
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
    return np.linalg.det(np.moveaxis(np.asarray(rows), (0, 1), (-2, -1)))


def pluecker(frame: JetFrame, check: bool = True) -> PlueckerVector:
    """Tangent-plane coordinates of a frame, with parameter derivatives.

    Each minor is a Laplace expansion along its first row.  A minor is
    linear in each row, so its derivative along ``t_k`` pairs the
    cofactors with the row derivatives:
    ``dp[c, k] = sum_{r, a} cof[r, a] * Dt[r, cols[a], k]``.
    """
    n, N = frame.n, frame.ambient_dim
    shape = frame.batch_shape
    index_sets = minor_index_sets(n, N)

    # At[j, a] = d x_a / d t_j, the transposed Jacobian
    At = np.moveaxis(frame.jac, 0, 1)
    # Dt[j, a, k] = d^2 x_a / d t_j d t_k
    Dt = np.moveaxis(frame.second, 0, 1)

    C = len(index_sets)
    p = np.zeros((C,) + shape)
    dp = np.zeros((C, n) + shape)
    for c, cols in enumerate(index_sets):
        block = [[At[j, a] for a in cols] for j in range(n)]
        for r in range(n):
            rest = block[:r] + block[r + 1:]
            for a, col in enumerate(cols):
                cof = _det([row[:a] + row[a + 1:] for row in rest])
                if (r + a) % 2:
                    cof = -cof
                if r == 0:
                    p[c] += block[0][a] * cof
                dp[c] += cof * Dt[r, col]
    norm = np.sqrt(np.sum(p * p, axis=0))

    if check:
        # Hadamard bound on the minors gives a scale-free zero test
        row_norms = np.sqrt(np.sum(At * At, axis=1))
        bound = np.prod(row_norms, axis=0)
        bad = ~(norm > 1e-12 * bound) | ~np.isfinite(norm)
        if np.any(bad):
            location = _first_bad(np.asarray(bad), frame.t)
            location["norm"] = float(np.min(norm))
            raise ZeroPlueckerVector(
                "tangent-plane coordinates vanish on the evaluation set",
                location=location)
    return PlueckerVector(indices=index_sets, p=p, dp=dp, norm=norm,
                          t=frame.t)
