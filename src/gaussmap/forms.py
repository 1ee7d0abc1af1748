"""Closed-form densities pulled back through tangent-plane coordinates.

Every density here is a scalar field on the parameter domain whose
integral is the pairing of a closed form with the image of the chart.
The canonical degree density exists in any codimension-one setting; the
curvature route, the complex-pairing form and the affine-chart forms of
the projective plane are specific low-dimensional companions, and
``generic_pluecker_density`` evaluates user-supplied forms given by a
coefficient/wedge/denominator recipe.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DegenerateMetric, ExprDomainError, ExprSyntaxError,
                     FormSpecError, SingularForm)
from .expr import Expr, Neg, eval_value, parse, to_text, _first_bad
from .geometry import JetFrame, PlueckerVector, _det

__all__ = [
    "canonical_density", "gauss_bonnet_fundamentals", "gauss_bonnet_density",
    "kaehler_density", "projective_density", "PlueckerFormSpec", "FormTerm",
    "parse_form_spec", "form_spec_to_text", "generic_pluecker_density",
    "orientation_sign",
]


def orientation_sign(n: int) -> float:
    """Sign relating the minor determinant to the oriented degree density."""
    if n == 1:
        return 1.0
    return -1.0 if (n * (n + 1) // 2) % 2 else 1.0


def canonical_density(pv: PlueckerVector) -> np.ndarray:
    """Degree density in codimension one.

    The determinant stacks the minor vector over its parameter
    derivatives; dividing by the norm to the power ``n + 1`` projects
    onto the unit sphere of minor space.
    """
    n = pv.n
    if pv.p.shape[0] != n + 1:
        raise ValueError(
            f"codimension-one frames only: {pv.p.shape[0]} minors "
            f"for {n} parameters")
    M = np.concatenate([pv.p[np.newaxis], np.moveaxis(pv.dp, 1, 0)], axis=0)
    return orientation_sign(n) * _det(M) / pv.norm ** (n + 1)


def gauss_bonnet_fundamentals(frame: JetFrame):
    """First fundamental form and normal-weighted second form of a
    surface in 3-space.

    Returns ``(E, F, G, D11, D22, D12)`` where the ``D`` entries are the
    second-derivative determinants against both tangents; they equal the
    usual second fundamental form scaled by the area element.
    """
    if frame.n != 2 or frame.ambient_dim != 3:
        raise ValueError("curvature route needs a surface in 3-space")
    xu = frame.jac[:, 0]
    xv = frame.jac[:, 1]
    E = np.sum(xu * xu, axis=0)
    F = np.sum(xu * xv, axis=0)
    G = np.sum(xv * xv, axis=0)

    def det3(top):
        return _det(np.stack([top, xu, xv]))

    D11 = det3(frame.second[:, 0, 0])
    D22 = det3(frame.second[:, 1, 1])
    D12 = det3(frame.second[:, 0, 1])
    return E, F, G, D11, D22, D12


def gauss_bonnet_density(frame: JetFrame) -> np.ndarray:
    """Curvature times area element, the classical total-curvature
    integrand."""
    E, F, G, D11, D22, D12 = gauss_bonnet_fundamentals(frame)
    disc = E * G - F * F
    bad = ~(disc > 1e-24 * (E * G + F * F)) | ~np.isfinite(disc)
    if np.any(bad):
        location = _first_bad(np.asarray(bad), frame.t)
        location["metric_determinant"] = float(np.min(disc))
        raise DegenerateMetric("first fundamental form is degenerate",
                               location=location)
    return (D11 * D22 - D12 * D12) / disc ** 1.5


def kaehler_density(pv: PlueckerVector) -> np.ndarray:
    """Complex-pairing 2-form density for surfaces.

    The minor vector is split in half and read as one complex vector;
    the density pairs the two parameter derivatives through the standard
    hermitian form.  The grouping below keeps the one-component case an
    exact zero in floating point, because the cross sums then reuse the
    very same products that build the diagonal ones.
    """
    if pv.n < 2:
        raise ValueError("needs at least two parameter directions")
    C = pv.p.shape[0]
    if C % 2:
        raise ValueError(f"even number of minors required, got {C}")
    m = C // 2
    pa, pb = pv.p[:m], pv.p[m:]
    u, w = pv.dp[:, 0], pv.dp[:, 1]
    ua, ub = u[:m], u[m:]
    wa, wb = w[:m], w[m:]

    A_u = np.sum(pa * ua + pb * ub, axis=0)
    B_w = np.sum(pb * wa - pa * wb, axis=0)
    A_w = np.sum(pa * wa + pb * wb, axis=0)
    B_u = np.sum(pb * ua - pa * ub, axis=0)

    def pair(left_a, left_b, right_a, right_b):
        # c[i, j] pairs component j of the minor vector with component i
        # of a derivative; summing after the product mirrors A*B exactly
        c = (pa[np.newaxis] * left_a[:, np.newaxis]
             + pb[np.newaxis] * left_b[:, np.newaxis])
        e = (pb[np.newaxis] * right_a[:, np.newaxis]
             - pa[np.newaxis] * right_b[:, np.newaxis])
        return np.sum(c * e, axis=(0, 1))

    CE_uw = pair(ua, ub, wa, wb)
    CE_wu = pair(wa, wb, ua, ub)
    numerator = A_u * B_w - A_w * B_u - (CE_uw - CE_wu)
    return numerator / pv.norm ** 4


def projective_density(i: int, pv: PlueckerVector) -> np.ndarray:
    """Affine-chart 1-form density for curves through the projective
    plane, evaluated on the chart direction of a cone frame."""
    if pv.p.shape[0] != 3 or pv.n != 2:
        raise ValueError("needs cone frames over a curve in the "
                         "projective plane")
    if i not in (0, 1, 2):
        raise ValueError(f"chart index must be 0, 1 or 2, got {i}")
    j, k = [a for a in range(3) if a != i]
    denom = pv.p[j] ** 2 + pv.p[k] ** 2
    bad = ~(denom > 1e-24 * pv.norm ** 2)
    if np.any(bad):
        location = _first_bad(np.asarray(bad), pv.t)
        location["chart_index"] = i
        raise SingularForm(
            "curve meets the singular locus of the chart form",
            location=location)
    return (pv.p[k] * pv.dp[j, 0] - pv.p[j] * pv.dp[k, 0]) / denom


# ---------------------------------------------------------------------------
# user-supplied forms

@dataclass(frozen=True)
class FormTerm:
    phi: Expr          # coefficient in the minor variables p1..pC
    wedge: tuple       # 0-based minor positions, one per parameter


@dataclass(frozen=True)
class PlueckerFormSpec:
    """Recipe ``sum of phi(p) d[...]^...  over  |p|^power``.

    ``denom_subset`` restricts the norm in the denominator to the listed
    minor positions (0-based); ``None`` means the full norm.  Every
    coefficient must be homogeneous of degree ``power - n`` so the
    density is invariant under rescaling the minor vector.
    """

    n: int
    num_components: int
    terms: tuple       # FormTerm entries
    power: int = 0
    denom_subset: Optional[tuple] = None


def _split_top_level(text: str):
    """Split the denominator clause off at the last top-level slash."""
    depth = 0
    for idx in range(len(text) - 1, -1, -1):
        ch = text[idx]
        if ch in ")]":
            depth += 1
        elif ch in "([":
            depth -= 1
        elif ch == "/" and depth == 0:
            return text[:idx], text[idx + 1:]
    return text, None


def _parse_phi(text: str, pos: int, num_components: int):
    """Parse a balanced coefficient group starting at ``(``."""
    if pos >= len(text) or text[pos] != "(":
        raise FormSpecError(f"expected '(' after phi at offset {pos + 1}")
    depth = 0
    for idx in range(pos, len(text)):
        if text[idx] == "(":
            depth += 1
        elif text[idx] == ")":
            depth -= 1
            if depth == 0:
                inner = text[pos + 1:idx]
                try:
                    return parse(inner, num_components, var_prefix="p"), idx + 1
                except ExprSyntaxError as exc:
                    raise FormSpecError(
                        f"bad coefficient {inner!r}: {exc}") from exc
    raise FormSpecError("unbalanced parentheses in coefficient")


def _parse_wedge(text: str, pos: int, n: int, num_components: int):
    labels = []
    pat = re.compile(r"\s*d\[\s*(\d+)\s*\]")
    while True:
        m = pat.match(text, pos)
        if not m:
            break
        k = int(m.group(1))
        if not 1 <= k <= num_components:
            raise FormSpecError(
                f"wedge label d[{k}] out of range 1..{num_components}")
        labels.append(k - 1)
        pos = m.end()
        sep = re.match(r"\s*\^", text[pos:])
        if not sep:
            break
        pos += sep.end()
    if len(labels) != n:
        raise FormSpecError(
            f"each term needs exactly {n} wedge factors, got {len(labels)}")
    return tuple(labels), pos


def _parse_denom(text: str, num_components: int):
    m = re.fullmatch(
        r"\s*\|p(\[\s*\d+(?:\s*,\s*\d+)*\s*\])?\|\s*\^\s*(\d+)\s*", text)
    if not m:
        raise FormSpecError(f"bad denominator {text.strip()!r}, expected "
                            "|p|^k or |p[i,j,...]|^k")
    power = int(m.group(2))
    subset = None
    if m.group(1):
        idx = tuple(int(s) - 1 for s in re.findall(r"\d+", m.group(1)))
        for i in idx:
            if not 0 <= i < num_components:
                raise FormSpecError(
                    f"denominator position {i + 1} out of range "
                    f"1..{num_components}")
        if len(set(idx)) != len(idx):
            raise FormSpecError("repeated denominator position")
        subset = idx
    return power, subset


def _coefficient(phi: Expr, p, t=None):
    """Values of a coefficient at the minor vectors ``p``.

    A domain error names the minors ``p1..pC``, reports their values
    under ``p`` and, when ``t`` is given, the parameter point under ``t``.
    """
    try:
        return eval_value(phi, p)
    except ExprDomainError as exc:
        location = {} if t is None else _first_bad(exc.mask, t)
        location["p"] = exc.location["t"]
        raise ExprDomainError(
            f"{exc.reason} in {to_text(exc.node, var_prefix='p')}",
            location=location) from exc


def _check_homogeneity(spec: PlueckerFormSpec) -> None:
    """Each coefficient must scale with degree ``power - n``."""
    h = spec.power - spec.n
    rng = np.random.default_rng(7)
    for term in spec.terms:
        ok = False
        for _ in range(8):
            p0 = rng.uniform(0.5, 1.5, size=spec.num_components)
            base = _coefficient(term.phi, p0)
            if not np.isfinite(base) or abs(base) < 1e-9:
                continue
            good = all(
                abs(_coefficient(term.phi, lam * p0) - lam ** h * base)
                <= 1e-8 * abs(lam ** h * base)
                for lam in (2.0, 3.0))
            if good:
                ok = True
                break
        if not ok:
            raise FormSpecError(
                f"coefficient {to_text(term.phi, var_prefix='p')} is not "
                f"homogeneous of degree {h}; the density would depend on "
                f"the scale of the minor vector")


def parse_form_spec(text: str, n: int, num_components: int,
                    validate: bool = True) -> PlueckerFormSpec:
    """Parse a form recipe.

    Grammar, with minor positions 1-based::

        spec  := sum [ '/' denom ]
        sum   := ['-'] term { ('+'|'-') term }
        term  := 'phi' '(' coefficient ')' 'd[' k ']' { '^' 'd[' k ']' }
        denom := '|p|' '^' power | '|p[' i {',' i} ']|' '^' power

    The coefficient is an expression in ``p1..pC``.
    """
    body = "".join(line.split("#", 1)[0] for line in text.splitlines())
    head, denom_text = _split_top_level(body)
    power, subset = (0, None) if denom_text is None \
        else _parse_denom(denom_text, num_components)

    terms = []
    pos = 0
    while True:
        if re.match(r"\s*$", head[pos:]):
            break
        sign_pat = r"\s*([-+]?)\s*" if not terms else r"\s*([-+])\s*"
        m = re.match(sign_pat, head[pos:])
        if not m:
            raise FormSpecError(f"expected '+' or '-' at offset {pos + 1}")
        sign = m.group(1)
        pos += m.end()
        m = re.match(r"phi\s*", head[pos:])
        if not m:
            raise FormSpecError(f"expected 'phi' at offset {pos + 1}")
        pos += m.end()
        phi, pos = _parse_phi(head, pos, num_components)
        wedge, pos = _parse_wedge(head, pos, n, num_components)
        if sign == "-":
            phi = Neg(phi)
        terms.append(FormTerm(phi=phi, wedge=wedge))
    if not terms:
        raise FormSpecError("form needs at least one term")

    spec = PlueckerFormSpec(n=n, num_components=num_components,
                            terms=tuple(terms), power=power,
                            denom_subset=subset)
    if validate:
        _check_homogeneity(spec)
    return spec


def form_spec_to_text(spec: PlueckerFormSpec) -> str:
    parts = []
    for term in spec.terms:
        wedge = " ^ ".join(f"d[{k + 1}]" for k in term.wedge)
        parts.append(f"phi({to_text(term.phi, var_prefix='p')}) {wedge}")
    text = " + ".join(parts)
    if spec.power:
        if spec.denom_subset is None:
            return f"{text} / |p|^{spec.power}"
        inner = ",".join(str(i + 1) for i in spec.denom_subset)
        return f"{text} / |p[{inner}]|^{spec.power}"
    return text


def generic_pluecker_density(spec: PlueckerFormSpec,
                             pv: PlueckerVector) -> np.ndarray:
    """Evaluate a form recipe on tangent-plane coordinates.

    Frames may carry more parameters than the form consumes (cone frames
    do); the wedge then pairs against the leading directions.
    """
    C = pv.p.shape[0]
    if C != spec.num_components:
        raise ValueError(
            f"form is written for {spec.num_components} minors, "
            f"frame has {C}")
    if pv.n < spec.n:
        raise ValueError(
            f"form consumes {spec.n} directions, frame has {pv.n}")

    if spec.denom_subset is None:
        denom_sq = pv.norm ** 2
    else:
        sel = pv.p[list(spec.denom_subset)]
        denom_sq = np.sum(sel * sel, axis=0)
        bad = ~(denom_sq > 1e-24 * pv.norm ** 2)
        if np.any(bad):
            location = _first_bad(np.asarray(bad), pv.t)
            raise SingularForm(
                "chart meets the singular locus of the form denominator",
                location=location)

    total = np.zeros(pv.p.shape[1:])
    for term in spec.terms:
        rows = pv.dp[list(term.wedge)][:, :spec.n]
        total = total + _coefficient(term.phi, pv.p, pv.t) * _det(rows)
    if spec.power:
        total = total / denom_sq ** (spec.power / 2.0)
    return total
