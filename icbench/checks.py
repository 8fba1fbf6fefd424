"""Output checks for the benchmark's requests.

Each check reads a document the program wrote and compares it with values
computed by ``reference`` (which shares no code with the program), or with a
property every correct output has.  A check returns a list of problems; an
empty list means the output passed.

Documents are written with 12 significant digits, so every comparison allows,
on top of its stated tolerance, half a unit in the 12th significant digit of
each compared value (``SER_REL`` times its magnitude).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

import numpy as np

import reference as ref

SER_REL = 5e-12
LAW_TOL = 1e-9  # per-law and per-point inequalities, in bits
CLOSED_FORM_TOL = 1e-12  # closed-form Gaussian quantities, in bits
GRID_SAMPLE = 4096  # grid points evaluated per regime report


def slack(*values: float) -> float:
    return SER_REL * sum(abs(float(v)) for v in values)


def _problem(label: str, **facts) -> str:
    detail = ", ".join(f"{k}={v}" for k, v in facts.items())
    return f"{label}: {detail}" if detail else label


# ---------------------------------------------------------------------------
# Regions (discrete and Gaussian)
# ---------------------------------------------------------------------------


def region_geometry(doc: dict, csv_text: str | None, angles: int) -> list[str]:
    """Angle grid, supporting points and (optionally) the CSV frontier."""
    region = doc["region"]
    theta = np.asarray(region["angles_deg"], dtype=np.float64)
    h = np.asarray(region["support_bits"], dtype=np.float64)
    pts = np.asarray(region["supporting_points"], dtype=np.float64)
    out = []
    expected = np.linspace(0.0, 90.0, angles)
    if theta.shape != expected.shape or np.abs(theta - expected).max() > 1e-9:
        return ["angle grid differs from linspace(0, 90, angles)"]
    if pts.shape != (angles, 2):
        return [_problem("supporting_points shape", shape=pts.shape)]
    if (pts < 0.0).any():
        out.append(_problem("negative supporting point", worst=float(pts.min())))
    scores = pts @ ref.angle_directions(theta).T  # [point k, angle j]
    tol = LAW_TOL + SER_REL * (np.abs(pts).sum(axis=1)[:, None] + np.abs(h)[None, :])
    own = np.abs(np.diag(scores) - h) - np.diag(tol)
    if own.max() > 0.0:
        out.append(_problem("supporting point misses its own support value",
                            excess=float(own.max())))
    over = scores - h[None, :] - tol
    if over.max() > 0.0:
        out.append(_problem("supporting point exceeds support at another angle",
                            excess=float(over.max())))
    if csv_text is not None:
        out += _csv_matches(csv_text, theta, h, pts)
    return out


def _csv_matches(csv_text: str, theta: np.ndarray, h: np.ndarray, pts: np.ndarray) -> list[str]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["theta_deg", "h_bits", "r1", "r2"]:
        return ["CSV header differs from theta_deg,h_bits,r1,r2"]
    body = np.array([[float(x) for x in row] for row in rows[1:]])
    want = np.column_stack([theta, h, pts])
    if body.shape != want.shape or not np.array_equal(body, want):
        return ["CSV frontier disagrees with the JSON document"]
    return []


def support_at_least(h: np.ndarray, theta: np.ndarray, corners: np.ndarray, tol: float) -> float:
    """Worst excess of ``corner . u(theta)`` over ``h(theta)`` across corners and angles."""
    scores = corners @ ref.angle_directions(theta).T
    return float((scores - h[None, :] - tol - SER_REL * np.abs(h)[None, :]).max())


def discrete_region(doc: dict, csv_text: str | None, law: np.ndarray, grid: int,
                    angles: int) -> list[str]:
    """Inner bound from TIN corners, outer bound from point-to-point capacities."""
    out = region_geometry(doc, csv_text, angles)
    region = doc["region"]
    theta = np.asarray(region["angles_deg"], dtype=np.float64)
    h = np.asarray(region["support_bits"], dtype=np.float64)
    nx1, nx2 = law.shape[:2]
    pts = ref.grid_points([("px1", 1, nx1, grid), ("px2", 1, nx2, grid)], 10**9, None)
    corners = np.column_stack(tin_rates(law, pts["px1"][:, 0], pts["px2"][:, 0]))
    worst = support_at_least(h, theta, corners, LAW_TOL)
    if worst > 0.0:
        out.append(_problem("TIN corner of a grid law lies outside the region", excess=worst))
    w1 = law.sum(axis=3)  # [x1, x2, y1]
    w2 = law.sum(axis=2)  # [x1, x2, y2]
    cap1 = max(ref.blahut_arimoto(w1[:, x2, :])[1] for x2 in range(nx2))
    cap2 = max(ref.blahut_arimoto(w2[x1, :, :])[1] for x1 in range(nx1))
    for label, value, cap in (("R1", h[0], cap1), ("R2", h[-1], cap2)):
        if value > cap + LAW_TOL + slack(value):
            out.append(_problem(f"max {label} exceeds the fixed-other-input capacity bound",
                                support=value, capacity_upper=cap))
    return out


def gaussian_region(doc: dict, csv_text: str | None, g: dict, scheme: str,
                    angles: int) -> list[str]:
    out = region_geometry(doc, csv_text, angles)
    region = doc["region"]
    theta = np.asarray(region["angles_deg"], dtype=np.float64)
    h = np.asarray(region["support_bits"], dtype=np.float64)
    a, b, p1, p2 = g["a"], g["b"], g["p1"], g["p2"]
    r1, r2 = ref.gaussian_tin_rates(a, b, p1, p2)
    corner = np.array([[r1, r2]])
    # Single-user bounds hold for every achievable scheme.
    for label, value, cap in (("R1", h[0], ref.gauss_cap(p1)), ("R2", h[-1], ref.gauss_cap(p2))):
        if value > cap + CLOSED_FORM_TOL + slack(value, cap):
            out.append(_problem(f"max {label} exceeds the single-user capacity",
                                support=value, capacity=cap))
    if scheme == "tin":
        rect = (corner @ ref.angle_directions(theta).T)[0]
        err = np.abs(h - rect) - CLOSED_FORM_TOL - SER_REL * (np.abs(h) + np.abs(rect))
        if err.max() > 0.0:
            out.append(_problem("TIN region differs from the closed-form rectangle",
                                excess=float(err.max())))
        mid = angles // 2
        pt = np.asarray(region["supporting_points"][mid], dtype=np.float64)
        if np.abs(pt - corner[0]).max() > CLOSED_FORM_TOL + slack(r1, r2, *pt):
            out.append(_problem("TIN corner differs from the closed form",
                                point=pt.tolist(), closed_form=[r1, r2]))
    elif scheme == "semijoint":
        if abs(a) >= 1.0 and abs(b) >= 1.0:
            sato = ref.polytope_support(ref.sato_constraints(a, b, p1, p2), theta)
            err = np.abs(h - sato) - CLOSED_FORM_TOL - SER_REL * (np.abs(h) + np.abs(sato))
            if err.max() > 0.0:
                out.append(_problem("strong-interference region differs from Sato's region",
                                    excess=float(err.max())))
        else:
            worst = support_at_least(h, theta, corner, CLOSED_FORM_TOL)
            if worst > 0.0:
                out.append(_problem("two-step region misses the TIN rectangle", excess=worst))
    elif scheme == "one_sided":
        worst = support_at_least(h, theta, corner, CLOSED_FORM_TOL)
        if worst > 0.0:
            out.append(_problem("one-sided region misses the TIN rectangle", excess=worst))
    return out


# ---------------------------------------------------------------------------
# Regime conditions and sum-rate certificates
# ---------------------------------------------------------------------------


def tin_rates(law: np.ndarray, px1: np.ndarray, px2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(I(X1;Y1), I(X2;Y2))`` at product laws ``px1 [B, nx1]``, ``px2 [B, nx2]``."""
    joint = np.einsum("bi,bj,ijkl->bijkl", px1, px2, law)
    names = ("X1", "X2", "Y1", "Y2")
    return ref.mi_bits(joint, names, ["X1"], ["Y1"]), ref.mi_bits(joint, names, ["X2"], ["Y2"])


def condition_margin(condition: str, law: np.ndarray, q: np.ndarray | None,
                     pts: dict[str, np.ndarray]) -> np.ndarray:
    """Left side minus right side of a regime condition at a batch of laws."""
    if condition in ("very_weak_1", "very_weak_2"):
        pw = pts["pw"][:, 0, :]
        pxw = pts["px_own"]
        px = pts["px_other"][:, 0, :]
        if condition == "very_weak_1":  # I(W1;Y2|X2) - I(W1;Y1)
            joint = np.einsum("bw,bwi,bj,ijkl->bwijkl", pw, pxw, px, law)
            names = ("W", "X1", "X2", "Y1", "Y2")
            return (ref.mi_bits(joint, names, ["W"], ["Y2"], ["X2"])
                    - ref.mi_bits(joint, names, ["W"], ["Y1"]))
        joint = np.einsum("bw,bwj,bi,ijkl->bwijkl", pw, pxw, px, law)  # I(W2;Y1|X1) - I(W2;Y2)
        names = ("W", "X1", "X2", "Y1", "Y2")
        return (ref.mi_bits(joint, names, ["W"], ["Y1"], ["X1"])
                - ref.mi_bits(joint, names, ["W"], ["Y2"]))
    if condition in ("strong_y2", "strong_y1"):
        joint = np.einsum("bi,bj,ijkl->bijkl", pts["px1"][:, 0, :], pts["px2"][:, 0, :], law)
        names = ("X1", "X2", "Y1", "Y2")
        if condition == "strong_y2":  # I(X1;Y1|X2) - I(X1;Y2|X2)
            return (ref.mi_bits(joint, names, ["X1"], ["Y1"], ["X2"])
                    - ref.mi_bits(joint, names, ["X1"], ["Y2"], ["X2"]))
        return (ref.mi_bits(joint, names, ["X2"], ["Y2"], ["X1"])
                - ref.mi_bits(joint, names, ["X2"], ["Y1"], ["X1"]))
    if condition in ("genie_dominance_1", "genie_dominance_2"):
        nx1, nx2 = q.shape[:2]
        pu = pts["pu"].reshape(pts["pu"].shape[0], nx1, nx2, -1)  # rows ordered (x1, x2)
        joint = np.einsum("bi,bj,biju,ijklmn->buijklmn",
                          pts["px1"][:, 0, :], pts["px2"][:, 0, :], pu, q)
        names = ("U", "X1", "X2", "Y1", "Y2", "Yt1", "Yt2")
        if condition == "genie_dominance_1":  # I(U;Y2|X2,Yt2) - I(U;Yt1|X2,Yt2)
            return (ref.mi_bits(joint, names, ["U"], ["Y2"], ["X2", "Yt2"])
                    - ref.mi_bits(joint, names, ["U"], ["Yt1"], ["X2", "Yt2"]))
        return (ref.mi_bits(joint, names, ["U"], ["Y1"], ["X1", "Yt1"])
                - ref.mi_bits(joint, names, ["U"], ["Yt2"], ["X1", "Yt1"]))
    raise KeyError(condition)


def regime_report(report: dict, law: np.ndarray, q: np.ndarray | None,
                  rng: np.random.Generator) -> list[str]:
    """Grid bound and witness replay for one ``RegimeReport`` document."""
    cond = report["condition"]
    margin = float(report["margin_bits"])
    witness = {k: np.asarray(v, dtype=np.float64) for k, v in report["witness"].items()}
    steps = report["resolution"]["effective_steps"]
    blocks = [(name, w.shape[0], w.shape[1], int(steps[name])) for name, w in witness.items()]
    pts = ref.grid_points(blocks, GRID_SAMPLE, rng)
    best = float(condition_margin(cond, law, q, pts).max())
    out = []
    if margin < best - LAW_TOL - slack(margin):
        out.append(_problem(f"{cond}: reported margin below a grid point's margin",
                            margin=margin, grid_value=best))
    if report["status"] == "VIOLATED":
        replay = float(condition_margin(cond, law, q, {k: v[np.newaxis] for k, v in witness.items()})[0])
        if abs(replay - margin) > LAW_TOL + slack(margin):
            out.append(_problem(f"{cond}: witness does not reproduce its margin",
                                margin=margin, replay=replay))
    return out


def classify(doc: dict, law: np.ndarray, rng: np.random.Generator) -> list[str]:
    out = []
    for report in [*doc["very_weak"], doc["strong_y2"], doc["strong_y1"]]:
        out += regime_report(report, law, None, rng)
    return out


def certify(doc: dict, law: np.ndarray, q: np.ndarray, grid: int, rng: np.random.Generator,
            degenerate: bool, product: Sequence[np.ndarray] | None) -> list[str]:
    """Certificate consistency; ``product`` holds the two point-to-point
    channels when the channel is their product, whose capacities bound it."""
    out = []
    tin, outer = float(doc["tin_bits"]), float(doc["outer_bits"])
    if outer < tin - LAW_TOL - slack(tin, outer):
        out.append(_problem("outer bound below the TIN sum rate", tin=tin, outer=outer))
    nx1, nx2 = law.shape[:2]
    pts = ref.grid_points([("px1", 1, nx1, grid), ("px2", 1, nx2, grid)], 10**9, None)
    r1, r2 = tin_rates(law, pts["px1"][:, 0], pts["px2"][:, 0])
    grid_best = float((r1 + r2).max())
    if tin < grid_best - LAW_TOL - slack(tin):
        out.append(_problem("TIN sum rate below a grid law's TIN sum", tin=tin, grid=grid_best))
    if degenerate and abs(outer - tin) > CLOSED_FORM_TOL + slack(tin, outer):
        out.append(_problem("constant side outputs must give outer == TIN", tin=tin, outer=outer))
    if product is not None:
        caps = [ref.blahut_arimoto(w)[0] for w in product]
        if doc["verdict"] != "CERTIFIED":
            out.append(_problem("product channel not certified", verdict=doc["verdict"]))
        if abs(tin - sum(caps)) > 5e-3:
            out.append(_problem("product channel TIN sum differs from the sum of capacities",
                                tin=tin, capacities=caps))
    for report in doc["dominance"]:
        out += regime_report(report, law, q, rng)
    return out


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def verify_suite(doc: dict, rc: int, suite: str, min_laws: int | None) -> list[str]:
    out = []
    if rc != 0 or doc["failures"] != 0:
        out.append(_problem(f"{suite} reported failures", exit=rc, failures=doc["failures"]))
    for rec in doc["records"]:
        if suite == "very_weak_sumrate":
            hk, tin = rec["hk_max_sumrate_bits"], rec["tin_sumrate_bits"]
            if hk < tin - LAW_TOL - slack(hk, tin):
                out.append(_problem("hk max sum rate below TIN", trial=rec["trial"], hk=hk, tin=tin))
        if min_laws is not None and rec["laws_checked"] < min_laws:
            out.append(_problem(f"{suite} checked fewer laws than its layered grid",
                                trial=rec["trial"], laws=rec["laws_checked"], grid=min_laws))
    if suite == "lemma1" and doc["worst_gap_bits"] > LAW_TOL:
        out.append(_problem("telescoping identity gap", gap=doc["worst_gap_bits"]))
    return out


def gaussian_regimes_suite(doc: dict, rc: int) -> list[str]:
    """``verify gaussian_regimes``: no failures, and its strictness witness is
    very weak but not noisy by the closed-form tests."""
    out = verify_suite(doc, rc, "gaussian_regimes", None)
    witnesses = [r for r in doc["records"] if r["kind"] == "strictness_witness"]
    if len(witnesses) != 1:
        return out + [_problem("expected one strictness witness", found=len(witnesses))]
    w = witnesses[0]
    g = {k: w[k] for k in ("a", "b", "p1", "p2")}
    margin = ref.noisy_interference_margin(**g)
    if abs(margin - w["noisy_margin"]) > CLOSED_FORM_TOL + slack(margin, w["noisy_margin"], 1.0):
        out.append(_problem("witness noisy margin differs from the closed form",
                            got=w["noisy_margin"], want=margin))
    if margin >= 0.0 or min(ref.very_weak_margins(**g)) < 0.0:
        out.append(_problem("strictness witness is not very weak but not noisy", **g))
    return out


def layered_grid_size(nx1: int, nx2: int, nw: int, grid: int, cgrid: int) -> int:
    """Composition count of the grid over ``P(w1) P(x1|w1) P(w2) P(x2|w2)``."""
    return (ref.composition_count(grid, nw) * ref.composition_count(cgrid, nx1) ** nw
            * ref.composition_count(grid, nw) * ref.composition_count(cgrid, nx2) ** nw)


# ---------------------------------------------------------------------------
# Gaussian regime reports and sum capacity
# ---------------------------------------------------------------------------


def gaussian_regime(doc: dict, g: dict) -> list[str]:
    a, b, p1, p2 = g["a"], g["b"], g["p1"], g["p2"]
    out = []
    vw = doc["very_weak_gaussian"]
    m1, m2 = ref.very_weak_margins(a, b, p1, p2)
    for got, want in ((vw["margin1"], m1), (vw["margin2"], m2)):
        if abs(got - want) > CLOSED_FORM_TOL + slack(got, want):
            out.append(_problem("very-weak margin differs from the closed form", got=got, want=want))
    if vw["in_regime"] != (m1 >= 0.0 and m2 >= 0.0):
        out.append("very-weak regime membership differs from the closed form")
    noisy = doc["noisy_gaussian"]
    margin = ref.noisy_interference_margin(a, b, p1, p2)
    if noisy["in_regime"] != (margin >= 0.0):
        out.append(_problem("noisy regime membership differs", margin=margin))
    if abs(noisy["margin"] - margin) > CLOSED_FORM_TOL + slack(margin, noisy["margin"]):
        out.append(_problem("noisy margin differs", got=noisy["margin"], want=margin))
    cert = noisy["certificate"]
    if (cert is not None) != (margin >= 0.0):
        out.append("certificate present exactly when the noisy condition holds: violated")
    if cert is not None:
        k1, k2 = a * a * p2 + 1.0, b * b * p1 + 1.0
        e1r1, e2r2 = cert["eta1"] * cert["rho1"], cert["eta2"] * cert["rho2"]
        if abs(e1r1 - k1) > 1e-9 * k1 or abs(e2r2 - k2) > 1e-9 * k2:
            out.append("certificate breaks the alignment equalities")
        if (abs(b) * cert["eta1"] > math.sqrt(max(0.0, 1.0 - cert["rho2"] ** 2)) + 1e-9
                or abs(a) * cert["eta2"] > math.sqrt(max(0.0, 1.0 - cert["rho1"] ** 2)) + 1e-9):
            out.append("certificate breaks the noise budget")
    return out


def gaussian_sumcap(doc: dict, g: dict) -> list[str]:
    a, b, p1, p2 = g["a"], g["b"], g["p1"], g["p2"]
    value = doc["sum_capacity_bits"]
    if ref.noisy_interference_margin(a, b, p1, p2) >= 0.0:
        want = sum(ref.gaussian_tin_rates(a, b, p1, p2))
        if value is None or abs(value - want) > CLOSED_FORM_TOL + slack(value, want):
            return [_problem("noisy-regime sum capacity differs from the TIN sum", got=value, want=want)]
        return []
    if value is not None:
        return [_problem("sum capacity reported outside the noisy regime", got=value)]
    return []
