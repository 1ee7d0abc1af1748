"""Density routes against each other and against closed-form values."""
import numpy as np
import pytest

from gaussmap.errors import DegenerateMetric, FormSpecError, SingularForm
from gaussmap.forms import (
    canonical_density, degree_density, form_spec_to_text, gauss_bonnet_density,
    gauss_bonnet_fundamentals, generic_pluecker_density, kaehler_density,
    orientation_sign, parse_form_spec, projective_density,
)
from gaussmap.geometry import (
    ConeChart, ImmersionChart, JetFrame, PlueckerVector, minor_index_sets,
    pluecker,
)

SPHERE = ["cos(t1)*sin(t2)", "sin(t1)*sin(t2)", "cos(t2)"]
TORUS = ["(2 + 0.5*cos(t2))*cos(t1)", "(2 + 0.5*cos(t2))*sin(t1)",
         "0.5*sin(t2)"]


def random_surface_frame(rng, batch=()):
    """Synthetic 2-parameter frame in 3-space with symmetric second
    derivatives; position is irrelevant to every density below."""
    t = rng.uniform(-1, 1, size=(2,) + batch)
    x = rng.uniform(-1, 1, size=(3,) + batch)
    jac = rng.uniform(-1, 1, size=(3, 2) + batch)
    second = rng.uniform(-1, 1, size=(3, 2, 2) + batch)
    second = 0.5 * (second + np.swapaxes(second, 1, 2))
    return JetFrame(t=t, x=x, jac=jac, second=second)


def synth_pv(rng, C, n):
    p = rng.uniform(0.3, 1.0, size=C) * rng.choice([-1.0, 1.0], size=C)
    dp = rng.uniform(-1, 1, size=(C, n))
    return PlueckerVector(indices=tuple((i,) for i in range(C)), p=p, dp=dp,
                          norm=np.sqrt(np.sum(p * p)), t=np.zeros(n))


# --- canonical density -------------------------------------------------------

def random_hypersurface_frame(rng, n, batch=(200,)):
    """Synthetic codimension-one frame with symmetric second derivatives."""
    jac = rng.normal(size=(n + 1, n) + batch)
    second = rng.normal(size=(n + 1, n, n) + batch)
    second = second + np.swapaxes(second, 1, 2)
    return JetFrame(t=np.zeros((n,) + batch), x=np.zeros((n + 1,) + batch),
                    jac=jac, second=second)


@pytest.mark.parametrize("n, sign", [(3, -1.0), (4, 1.0), (5, -1.0)])
def test_degree_density_from_second_fundamental_form(n, sign):
    """For n >= 3 the degree density is ``sign * det(H) / |p|^(n+1)``,
    with ``H_ij = <x_ij, nu>`` and ``nu_a = (-1)^a p[a]``, and it matches
    the determinant of the minors over their derivatives to rounding
    scaled by the Hadamard bounds of both matrices."""
    rng = np.random.default_rng(n)
    frame = random_hypersurface_frame(rng, n)
    pv = pluecker(frame, check=False)
    got = degree_density(frame, pv)
    nu = pv.p * ((-1.0) ** np.arange(n + 1)).reshape(-1, 1)
    H = np.einsum("a...,aij...->ij...", nu, frame.second)
    det_H = np.linalg.det(np.moveaxis(H, -1, 0))
    scale = pv.norm ** (n + 1)
    assert np.allclose(got * scale / det_H, sign, rtol=0, atol=1e-9)

    ref = canonical_density(pv)
    M = np.concatenate([pv.p[np.newaxis], np.swapaxes(pv.dp, 0, 1)])
    hadamard = np.maximum(np.prod(np.linalg.norm(M, axis=1), axis=0),
                          np.prod(np.linalg.norm(H, axis=1), axis=0))
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - ref) <= 64 * eps * hadamard / scale)


@pytest.mark.parametrize("n", [1, 2])
def test_low_dimensional_degree_density_is_the_determinant(n):
    frame = random_hypersurface_frame(np.random.default_rng(n), n)
    pv = pluecker(frame, check=False)
    assert np.array_equal(degree_density(frame, pv), canonical_density(pv))


def test_orientation_signs():
    assert orientation_sign(1) == 1.0
    assert orientation_sign(2) == -1.0
    assert orientation_sign(3) == 1.0


def test_circle_density_is_minus_one():
    chart = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    ts = np.linspace(0, 2 * np.pi, 17)[np.newaxis]
    dens = canonical_density(pluecker(chart.frame(ts)))
    assert np.allclose(dens, -1.0, atol=1e-14)


def test_sphere_density_is_sine_of_colatitude():
    chart = ImmersionChart(SPHERE, 2)
    rng = np.random.default_rng(21)
    pts = np.stack([rng.uniform(0, 2 * np.pi, 9), rng.uniform(0.2, 2.9, 9)])
    dens = canonical_density(pluecker(chart.frame(pts)))
    assert np.allclose(dens, np.sin(pts[1]), atol=1e-12)


def test_canonical_requires_codimension_one():
    chart = ImmersionChart(
        ["t1 + t2^2", "sin(t1*t2)", "t2", "exp(0.2*t1)"], 2)
    with pytest.raises(ValueError):
        canonical_density(pluecker(chart.frame([0.3, 0.4])))


# --- curvature route ---------------------------------------------------------

def test_torus_curvature_density():
    chart = ImmersionChart(TORUS, 2)
    rng = np.random.default_rng(22)
    pts = rng.uniform(0, 2 * np.pi, size=(2, 11))
    dens = gauss_bonnet_density(chart.frame(pts))
    assert np.allclose(dens, np.cos(pts[1]), atol=1e-11)
    outer = gauss_bonnet_density(chart.frame([1.3, 0.0]))
    assert outer == pytest.approx(1.0, abs=1e-12)


def test_both_degree_routes_agree_on_random_frames():
    rng = np.random.default_rng(23)
    agree = 0
    while agree < 200:
        frame = random_surface_frame(rng)
        pv = pluecker(frame, check=False)
        if pv.norm < 0.1:
            continue  # nearly folded tangent plane, both routes blow up
        a = canonical_density(pv)
        b = gauss_bonnet_density(frame)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (a, b)
        agree += 1


def test_minor_norm_squared_is_metric_determinant():
    rng = np.random.default_rng(24)
    for _ in range(50):
        frame = random_surface_frame(rng)
        pv = pluecker(frame, check=False)
        E, F, G, *_ = gauss_bonnet_fundamentals(frame)
        assert pv.norm ** 2 == pytest.approx(E * G - F * F, rel=1e-12)


def test_degenerate_metric_is_reported():
    chart = ImmersionChart(["t1 + t2", "t1 + t2", "0"], 2)
    with pytest.raises(DegenerateMetric) as exc:
        gauss_bonnet_density(chart.frame([0.1, 0.2]))
    assert "t" in exc.value.location


# --- complex-pairing form ----------------------------------------------------

def test_kaehler_single_component_is_exactly_zero():
    rng = np.random.default_rng(25)
    for _ in range(20):
        pv = synth_pv(rng, 2, 2)
        assert kaehler_density(pv) == 0.0


def test_kaehler_antisymmetry_is_exact():
    rng = np.random.default_rng(26)
    pv = synth_pv(rng, 6, 2)
    swapped = PlueckerVector(indices=pv.indices, p=pv.p,
                             dp=pv.dp[:, ::-1], norm=pv.norm, t=pv.t)
    assert np.array_equal(kaehler_density(swapped), -kaehler_density(pv))


def test_kaehler_scale_invariance():
    rng = np.random.default_rng(27)
    pv = synth_pv(rng, 6, 2)
    lam = 2.75
    scaled = PlueckerVector(indices=pv.indices, p=lam * pv.p,
                            dp=lam * pv.dp, norm=lam * pv.norm, t=pv.t)
    assert kaehler_density(scaled) == pytest.approx(kaehler_density(pv),
                                                    rel=1e-12)


def test_kaehler_rejects_odd_component_count():
    rng = np.random.default_rng(28)
    with pytest.raises(ValueError):
        kaehler_density(synth_pv(rng, 3, 2))


def test_kaehler_matches_complex_form_oracle():
    # hermitian pairing written directly in complex arithmetic
    rng = np.random.default_rng(29)
    for _ in range(50):
        pv = synth_pv(rng, 6, 2)
        m = 3
        z = pv.p[:m] + 1j * pv.p[m:]
        u = pv.dp[:m, 0] + 1j * pv.dp[m:, 0]
        w = pv.dp[:m, 1] + 1j * pv.dp[m:, 1]
        zu = np.sum(np.conj(z) * u)
        zw = np.sum(np.conj(z) * w)
        uw = np.sum(np.conj(u) * w)
        oracle = (np.imag(zu * np.conj(zw))
                  + np.sum(np.abs(z) ** 2) * np.imag(uw))
        assert kaehler_density(pv) == pytest.approx(
            oracle / pv.norm ** 4, rel=1e-12)


# --- projective chart forms --------------------------------------------------

def test_affine_circle_chart_density_is_plus_one():
    cone = ConeChart([None, "cos(t1)", "sin(t1)"], 1)
    ts = np.linspace(0, 2 * np.pi, 13)[np.newaxis]
    dens = projective_density(0, pluecker(cone.frame(ts)))
    assert np.allclose(dens, 1.0, atol=1e-13)


def test_chart_form_singular_locus_is_detected():
    cone = ConeChart([None, "1 - cos(t1)", "sin(t1)"], 1)
    ts = np.linspace(0, 2 * np.pi, 16, endpoint=False)[np.newaxis]
    with pytest.raises(SingularForm) as exc:
        projective_density(1, pluecker(cone.frame(ts)))
    assert exc.value.location["chart_index"] == 1


def test_projective_density_validates_shape():
    chart = ImmersionChart(["cos(t1)", "sin(t1)"], 1)
    with pytest.raises(ValueError):
        projective_density(0, pluecker(chart.frame([0.2])))


# --- user-supplied forms -----------------------------------------------------

def test_form_spec_roundtrip():
    spec = parse_form_spec(
        "phi(p1) d[2] ^ d[3] - phi(p2) d[1] ^ d[3] + phi(p3) d[1] ^ d[2]"
        " / |p|^3", 2, 3)
    assert parse_form_spec(form_spec_to_text(spec), 2, 3) == spec
    assert spec.power == 3
    assert spec.denom_subset is None
    assert spec.terms[0].wedge == (1, 2)


def test_form_spec_comments_and_subset_denominator():
    spec = parse_form_spec(
        "phi(p3) d[2]  # chart form\n- phi(p2) d[3]  / |p[2,3]|^2\n", 1, 3)
    assert spec.denom_subset == (1, 2)
    assert spec.power == 2
    assert "|p[2,3]|^2" in form_spec_to_text(spec)


def test_form_spec_errors():
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1) d[4] / |p|^2", 1, 3)  # label out of range
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1) d[1] ^ d[2] / |p|^3", 1, 3)  # too many
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1) d[1] / |q|^2", 1, 3)  # bad denominator
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1 d[1]", 1, 3)  # unbalanced
    with pytest.raises(FormSpecError):
        parse_form_spec("", 1, 3)


def test_form_spec_requires_homogeneous_coefficients():
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1 + 1) d[1] / |p|^2", 1, 2)
    with pytest.raises(FormSpecError):
        parse_form_spec("phi(p1^2) d[1] / |p|^2", 1, 2)
    # rational coefficients of the right degree are fine
    parse_form_spec("phi(p1*p1/p2) d[1] / |p|^2", 1, 2)


def test_generic_matches_canonical_for_curves():
    spec = parse_form_spec("phi(p1) d[2] - phi(p2) d[1] / |p|^2", 1, 2)
    rng = np.random.default_rng(30)
    for _ in range(25):
        pv = synth_pv(rng, 2, 1)
        assert generic_pluecker_density(spec, pv) == pytest.approx(
            canonical_density(pv), rel=1e-12)


def test_generic_matches_canonical_for_surfaces_up_to_sign():
    # cofactor expansion of the stacked determinant, before orientation
    spec = parse_form_spec(
        "phi(p1) d[2] ^ d[3] - phi(p2) d[1] ^ d[3] + phi(p3) d[1] ^ d[2]"
        " / |p|^3", 2, 3)
    rng = np.random.default_rng(31)
    for _ in range(25):
        frame = random_surface_frame(rng)
        pv = pluecker(frame, check=False)
        if pv.norm < 0.1:
            continue
        assert generic_pluecker_density(spec, pv) == pytest.approx(
            canonical_density(pv) / orientation_sign(2), rel=1e-11)


def test_generic_reproduces_chart_form_on_cone_frames():
    spec = parse_form_spec("phi(p3) d[2] - phi(p2) d[3] / |p[2,3]|^2", 1, 3)
    cone = ConeChart([None, "1.5*cos(t1)", "sin(t1)"], 1)
    ts = np.linspace(0.1, 6.1, 9)[np.newaxis]
    pv = pluecker(cone.frame(ts))
    assert np.allclose(generic_pluecker_density(spec, pv),
                       projective_density(0, pv), atol=1e-12)


def test_generic_subset_denominator_singularity():
    spec = parse_form_spec("phi(p3) d[2] - phi(p2) d[3] / |p[1,3]|^2", 1, 3)
    cone = ConeChart([None, "1 - cos(t1)", "sin(t1)"], 1)
    ts = np.linspace(0, 2 * np.pi, 16, endpoint=False)[np.newaxis]
    with pytest.raises(SingularForm):
        generic_pluecker_density(spec, pluecker(cone.frame(ts)))


def test_generic_validates_component_count():
    spec = parse_form_spec("phi(p1) d[2] - phi(p2) d[1] / |p|^2", 1, 2)
    rng = np.random.default_rng(32)
    with pytest.raises(ValueError):
        generic_pluecker_density(spec, synth_pv(rng, 6, 1))
