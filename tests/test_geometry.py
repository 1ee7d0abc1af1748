"""Frames and tangent-plane coordinates against brute-force oracles."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaussmap.expr
import gaussmap.geometry
from gaussmap.errors import (DegenerateJacobian, GaussMapError,
                             ZeroPlueckerVector)
from gaussmap.forms import canonical_density, gauss_bonnet_density
from gaussmap.geometry import (
    ConeChart, ImmersionChart, JetFrame, check_minors, cone_frame,
    immersion_check, jacobian_frame, minor_index_sets, pluecker, _det,
)
from gaussmap.integrate import DomainSpec, Interval, tensor_nodes
from gaussmap.invariants import gauss_degree


def oracle_minors(jac, index_sets):
    """Determinants of transposed-Jacobian column subsets, one at a time."""
    At = np.asarray(jac, float).T
    return np.array([np.linalg.det(At[:, list(I)]) for I in index_sets])


def fd_dp(chart, t, h=1e-6):
    """Minor derivatives by central differences of the minors."""
    t = np.asarray(t, float)
    n = len(t)
    cols = []
    for j in range(n):
        ej = np.zeros(n); ej[j] = h
        pp = pluecker(chart.frame(t + ej), check=False).p
        pm = pluecker(chart.frame(t - ej), check=False).p
        cols.append((pp - pm) / (2 * h))
    return np.stack(cols, axis=1)


def replace_row_pluecker(frame):
    """Minors and their derivatives the long way: LAPACK on every minor,
    and on every copy with one row replaced by its derivative."""
    n = frame.n
    At = np.moveaxis(frame.jac, 0, 1)
    Dt = np.moveaxis(frame.second, 0, 1)
    det = lambda rows: np.linalg.det(np.moveaxis(rows, (0, 1), (-2, -1)))
    p, dp = [], []
    for I in minor_index_sets(n, frame.ambient_dim):
        block = At[:, list(I)]
        p.append(det(block))
        dpc = []
        for k in range(n):
            total = 0.0
            for r in range(n):
                modified = block.copy()
                modified[r] = Dt[r, list(I), k]
                total = total + det(modified)
            dpc.append(total)
        dp.append(dpc)
    return np.array(p), np.array(dp)


def random_frame(rng, n, N, batch):
    jac = rng.standard_normal((N, n) + batch)
    second = rng.standard_normal((N, n, n) + batch)
    second = 0.5 * (second + np.swapaxes(second, 1, 2))
    t = rng.standard_normal((n,) + batch)
    return JetFrame(t=t, x=rng.standard_normal((N,) + batch), jac=jac,
                    second=second)


# --- index layout ------------------------------------------------------------

def test_codimension_one_layout_by_omitted_axis():
    assert minor_index_sets(1, 2) == ((1,), (0,))
    assert minor_index_sets(2, 3) == ((1, 2), (0, 2), (0, 1))
    assert minor_index_sets(3, 4) == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def test_general_layout_lexicographic():
    assert minor_index_sets(2, 4) == tuple(itertools.combinations(range(4), 2))
    assert len(minor_index_sets(2, 5)) == 10


# --- frames ------------------------------------------------------------------

def test_frame_shapes_single_and_batched():
    chart = ImmersionChart(["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2)
    f = chart.frame([0.3, 1.1])
    assert f.x.shape == (3,)
    assert f.jac.shape == (3, 2)
    assert f.second.shape == (3, 2, 2)

    grid = np.stack(np.meshgrid(np.linspace(0, 1, 4),
                                np.linspace(0, 1, 5), indexing="ij"))
    fb = chart.frame(grid)
    assert fb.x.shape == (3, 4, 5)
    assert fb.jac.shape == (3, 2, 4, 5)
    assert fb.batch_shape == (4, 5)


def test_plane_curve_minor_order():
    # velocity (u, v) must be stored as (v, u)
    chart = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    t = 0.3
    pv = pluecker(chart.frame([t]))
    assert np.allclose(pv.p, [np.cos(t), -np.sin(t)])
    assert np.allclose(pv.norm, 1.0)


def test_flat_graph_points_up():
    chart = ImmersionChart(["t1", "t2", "0"], 2)
    pv = pluecker(chart.frame([0.2, -0.7]))
    assert np.allclose(pv.p, [0.0, 0.0, 1.0])


def test_surface_minors_match_signed_cross_product():
    chart = ImmersionChart(["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2)
    t = np.array([0.8, 1.9])
    f = chart.frame(t)
    a, b = f.jac[:, 0], f.jac[:, 1]
    cross = np.cross(a, b)
    pv = pluecker(f)
    assert np.allclose(pv.p, [cross[0], -cross[1], cross[2]])


def test_minors_match_bruteforce_in_codimension_two():
    rng = np.random.default_rng(11)
    chart = ImmersionChart(
        ["t1 + t2^2", "sin(t1*t2)", "t2 - 0.3*t1^2", "exp(0.2*t1)"], 2)
    for _ in range(5):
        t = rng.uniform(-1, 1, size=2)
        f = chart.frame(t)
        pv = pluecker(f)
        assert pv.indices == minor_index_sets(2, 4)
        assert np.allclose(pv.p, oracle_minors(f.jac, pv.indices))


def test_minor_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    charts = [
        ImmersionChart(["cos(t1)", "sin(t1)"], 1),
        ImmersionChart(["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2),
        ImmersionChart(
            ["t1 + t2^2", "sin(t1*t2)", "t2 - 0.3*t1^2", "exp(0.2*t1)"], 2),
    ]
    for chart in charts:
        for _ in range(4):
            t = rng.uniform(0.2, 1.2, size=chart.n)
            pv = pluecker(chart.frame(t))
            assert np.allclose(pv.dp, fd_dp(chart, t), atol=1e-7)


def test_batched_pluecker_matches_pointwise():
    chart = ImmersionChart(["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.3, 2.8, size=(2, 7))
    pvb = pluecker(chart.frame(pts))
    for j in range(7):
        pv = pluecker(chart.frame(pts[:, j]))
        assert np.allclose(pvb.p[:, j], pv.p, rtol=1e-13, atol=1e-13)
        assert np.allclose(pvb.dp[:, :, j], pv.dp, rtol=1e-13, atol=1e-13)


def test_reparametrization_scales_minors_by_jacobian_factor():
    base = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    fast = ImmersionChart(["cos(2*t1)", "sin(2*t1)"], 1)
    t = 0.37
    pv_b = pluecker(base.frame([2 * t]))
    pv_f = pluecker(fast.frame([t]))
    assert np.allclose(pv_f.p, 2.0 * pv_b.p)
    # derivatives pick up one extra chain-rule factor
    assert np.allclose(pv_f.dp, 4.0 * pv_b.dp)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(7,), (3, 5)])
def test_det_matches_lapack(n, batch):
    rng = np.random.default_rng(20 + n)
    rows = rng.standard_normal((n, n) + batch)
    # nearly singular: last row a combination of the others plus 1e-10
    near = rows.copy()
    mix = rng.standard_normal((n - 1,) + batch)
    near[-1] = (np.sum(mix[:, np.newaxis] * near[:-1], axis=0)
                + 1e-10 * rng.standard_normal((n,) + batch))
    for M in (rows, near):
        want = np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1)))
        hadamard = np.prod(np.sqrt(np.sum(M * M, axis=1)), axis=0)
        got = _det(M)
        assert got.shape == batch
        assert np.all(np.abs(got - want) <= 1e-13 * hadamard)
    others = np.prod(np.sqrt(np.sum(near[:-1] ** 2, axis=1)), axis=0)
    assert np.all(np.abs(_det(near)) <= 1e-8 * others)


@pytest.mark.parametrize("n,N", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
                                 (3, 5), (4, 5)])
def test_cofactor_minors_match_replace_row_algorithm(n, N):
    rng = np.random.default_rng(100 * n + N)
    frame = random_frame(rng, n, N, (6,))
    pv = pluecker(frame)
    p, dp = replace_row_pluecker(frame)
    # Hadamard bounds of each minor and of each row-replaced copy
    At = np.moveaxis(frame.jac, 0, 1)
    Dt = np.moveaxis(frame.second, 0, 1)
    row = np.sqrt(np.sum(At * At, axis=1))
    drow = np.sqrt(np.sum(Dt * Dt, axis=1))
    bound_p = np.prod(row, axis=0)
    bound_dp = sum(drow[r] * np.prod(np.delete(row, r, axis=0), axis=0)
                   for r in range(n))
    assert np.all(np.abs(pv.p - p) <= 1e-12 * bound_p)
    assert np.all(np.abs(pv.dp - dp) <= 1e-12 * bound_dp)


def test_low_dimensional_pipelines_never_call_lapack_det(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")
    monkeypatch.setattr(np.linalg, "det", refuse)
    circle = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    sphere = ImmersionChart(
        ["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2)
    curve_frame = circle.frame(np.linspace(0.0, 6.0, 9)[np.newaxis])
    surface_frame = sphere.frame(np.stack(np.meshgrid(
        np.linspace(0.0, 6.0, 5), np.linspace(0.3, 2.8, 4), indexing="ij")))
    solid_frame = ImmersionChart(S3, 3).frame(tensor_nodes(S3_DOM, 8)[0])
    for frame in (curve_frame, surface_frame, solid_frame):
        assert np.all(np.isfinite(canonical_density(pluecker(frame))))
    assert np.all(np.isfinite(gauss_bonnet_density(surface_frame)))


def test_degree_route_of_a_3_sphere_never_builds_minor_derivatives(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minor derivatives built")
    monkeypatch.setattr(gaussmap.geometry, "_minor_derivatives", refuse)
    report = gauss_degree(ImmersionChart(S3, 3), S3_DOM)
    assert report.k == 1 and report.converged


def test_minor_derivatives_are_built_once_on_first_read(monkeypatch):
    frame = ImmersionChart(S3, 3).frame(tensor_nodes(S3_DOM, 4)[0])
    pv = pluecker(frame)
    calls = []
    build = gaussmap.geometry._minor_derivatives
    monkeypatch.setattr(gaussmap.geometry, "_minor_derivatives",
                        lambda *args: calls.append(1) or build(*args))
    assert pv.n == 3 and not calls
    assert pv.dp is pv.dp and len(calls) == 1
    assert pv.dp.shape == (4, 3, 4, 4, 4)


S3 = ["cos(t1)*sin(t2)*sin(t3)", "sin(t1)*sin(t2)*sin(t3)", "cos(t2)*sin(t3)",
      "cos(t3)"]
S3_DOM = DomainSpec([Interval(0, 2 * np.pi, periodic=True),
                     Interval(0, np.pi), Interval(0, np.pi)])
TORUS = ["(2+cos(t2))*cos(t1)", "(2+cos(t2))*sin(t1)", "sin(t2)"]
TORUS_DOM = DomainSpec([Interval(0, 2 * np.pi, periodic=True)] * 2)


def test_chart_tape_evaluates_a_shared_subexpression_once(monkeypatch):
    calls = []
    f, f1, f2 = gaussmap.expr.FUNCTIONS["cos"]
    monkeypatch.setitem(gaussmap.expr.FUNCTIONS, "cos",
                        (lambda u: calls.append(u) or f(u), f1, f2))
    chart = ImmersionChart(["2*cos(t1)", "cos(t1) + 1", "-0", "0"], 1)
    frame = chart.frame(np.linspace(0.0, 1.0, 5)[np.newaxis])
    assert len(calls) == 1
    assert np.array_equal(frame.x[1], np.cos(np.linspace(0.0, 1.0, 5)) + 1)
    # a negative zero is its own leaf, not merged with 0
    assert np.all(np.signbit(frame.x[2]))
    assert not np.any(np.signbit(frame.x[3]))


@pytest.mark.parametrize("coords,domain,m", [
    (TORUS, TORUS_DOM, 128),
    (S3, S3_DOM, 32),
])
def test_frame_working_set_stays_within_twice_the_frame(coords, domain, m):
    """On a tensor grid the jets live on the open grid, and each slot is
    freed after its last use, so the frame itself dominates the peak."""
    chart = ImmersionChart(coords, len(domain.intervals))
    pts = tensor_nodes(domain, m)[0]
    tracemalloc.start()
    try:
        frame = chart.frame(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = frame.x.nbytes + frame.jac.nbytes + frame.second.nbytes
    assert peak <= 2 * own


# --- cone charts -------------------------------------------------------------

def test_cone_frame_matches_explicit_two_parameter_chart():
    cone = ConeChart([None, "t1", "t1^2 - 0.5"], 1)
    # same map written out with the ray scale as an explicit parameter
    explicit = ImmersionChart(["t2", "t2*t1", "t2*(t1^2 - 0.5)"], 2)
    t = np.array([0.6])
    fc = cone.frame(t)
    fe = explicit.frame([0.6, 1.0])
    assert np.allclose(fc.x, fe.x)
    assert np.allclose(fc.jac, fe.jac)
    assert np.allclose(fc.second, fe.second)


def test_cone_frame_slot_structure():
    f = cone_frame(ConeChart(["t1", None], 1).funcs, 1, np.array([0.25]))
    assert f.x[1] == 1.0
    assert f.jac[1, 0] == 0.0
    assert f.jac[1, 1] == 1.0
    assert np.all(f.second[1] == 0.0)


def test_cone_chart_requires_exactly_one_slot():
    with pytest.raises(ValueError):
        ConeChart(["t1", "t1"], 1)
    with pytest.raises(ValueError):
        ConeChart([None, None, "t1"], 1)


# --- degeneracy --------------------------------------------------------------

def test_cusp_fails_immersion_check_at_origin():
    chart = ImmersionChart(["t1^2", "t1^3"], 1)
    with pytest.raises(DegenerateJacobian) as exc:
        immersion_check(chart.frame([0.0]))
    assert exc.value.location["t"] == [0.0]
    immersion_check(chart.frame([0.5]))  # fine away from the cusp


def test_immersion_check_is_scale_invariant():
    tiny = ImmersionChart(["0.000001*cos(t1)", "0.000001*sin(t1)"], 1)
    immersion_check(tiny.frame(np.linspace(0, 6, 50)[np.newaxis]))


def test_degenerate_grid_point_is_located():
    chart = ImmersionChart(["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"], 2)
    grid = np.stack(np.meshgrid(np.linspace(0, 5, 4),
                                np.array([0.0, 1.0]), indexing="ij"))
    with pytest.raises(DegenerateJacobian) as exc:
        immersion_check(chart.frame(grid))  # the pole t2 = 0 is singular
    assert exc.value.location["t"][1] == 0.0


def test_zero_minor_vector_backstop():
    collapsed = ImmersionChart(["t1", "t1", "t1"], 2)
    with pytest.raises(ZeroPlueckerVector):
        pluecker(collapsed.frame([0.4, 0.9]))


# --- the rank test from the minors --------------------------------------------

def _outcome(call):
    try:
        call()
    except GaussMapError as exc:
        return type(exc), exc.payload()
    return None


def _frame_from_singular_values(rng, N, sing):
    """A frame whose Jacobian at point ``b`` has singular values
    ``sing[b]``, between random rotations."""
    k, n = sing.shape
    jac = np.empty((N, n, k))
    for b in range(k):
        U, _ = np.linalg.qr(rng.standard_normal((N, N)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        jac[:, :, b] = U[:, :n] @ np.diag(sing[b]) @ V.T
    return JetFrame(t=rng.uniform(-3, 3, size=(n, k)), x=np.zeros((N, k)),
                    jac=jac, second=np.zeros((N, n, n, k)))


_log_ratio = st.one_of(st.floats(-12.0, 0.0), st.floats(-9.6, -8.4))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1),
       log_ratios=st.lists(_log_ratio, min_size=1, max_size=4))
def test_rank_test_from_minors_matches_the_svd(n, extra, seed, log_ratios):
    """The minors' certificate with its SVD fallback decides exactly as
    ``immersion_check`` followed by the zero-minor test of ``pluecker``,
    with the same class, code, location and payload."""
    rng = np.random.default_rng(seed)
    sing = [np.ones(n)]  # one full-rank point sets the frame-wide scale
    for r in log_ratios:
        scale = 10.0 ** rng.uniform(-0.5, 0.5)
        inner = 10.0 ** (r * rng.uniform(0, 1, size=n - 1))
        sing.append(scale * np.sort(np.append(inner, 10.0 ** r))[::-1])
    frame = _frame_from_singular_values(rng, n + extra, np.array(sing))
    pv = pluecker(frame, check=False)

    def old():
        immersion_check(frame)
        pluecker(frame)

    assert _outcome(lambda: check_minors(frame, pv)) == _outcome(old)


def test_healthy_solid_level_needs_no_svd(monkeypatch):
    """Near the poles of a round 3-sphere the singular values spread over
    three decades, yet the bound from the minors still certifies."""
    def refuse(*args, **kwargs):
        raise AssertionError("SVD fallback ran")
    monkeypatch.setattr(gaussmap.geometry, "immersion_check", refuse)
    chart = ImmersionChart(["cos(t1)*sin(t2)*sin(t3)", "sin(t1)*sin(t2)*sin(t3)",
                            "cos(t2)*sin(t3)", "cos(t3)"], 3)
    dom = DomainSpec([Interval(0, 2 * np.pi, periodic=True),
                      Interval(0, np.pi), Interval(0, np.pi)])
    frame = chart.frame(tensor_nodes(dom, 32)[0])
    check_minors(frame, pluecker(frame, check=False))
