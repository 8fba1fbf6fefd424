"""Sum-rate pipeline: genie-aided outer bound and its collapse to TIN.

The pipeline couples the true channel with a user-supplied pair of product
side channels (a :class:`~icrates.channels.VirtualCoupling`) and checks two
things about the genie that reveals the side outputs to the receivers:

- *dominance*: for every auxiliary variable U, each side output is at least
  as informative about U as the cross receiver output it stands in for
  (searched over ``P(X1) P(X2) P(U|X_own)``, which reaches the supremum
  over ``P(U|X1,X2)``);
- *alignment*: at a maximizer of the genie-aided rate, each side output is
  redundant given the own receiver output (``I(X_i; Yt_i | Y_i) = 0``).

When both hold, the genie-aided maximum equals the interference-as-noise
sum rate, certifying it as the sum-rate capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .channels import DiscreteIC, VirtualCoupling
from .errors import IcError, ValidationError
from .probtensor import MASS_TOL, ProbTensor, require_valid
from .regimes import (
    NO_VIOLATION_FOUND,
    RegimeReport,
    _report,
    evaluate_objective,
    objective,
    search_objective,
)
# maximize is unused here; icbench/tracing.py patches it.
from .search import Point, SearchConfig, SearchResult, maximize  # noqa: F401

CERTIFIED = "CERTIFIED"
OUTER_ONLY = "OUTER_ONLY"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ProductInput:
    """Independent input marginals ``P(x1) P(x2)``."""

    px1: np.ndarray
    px2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("px1", "px2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            try:
                require_valid(ProbTensor(("X",), arr))
            except IcError as e:
                raise ValidationError(f"input marginal {name} invalid: {e}") from e
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_json_dict(self) -> dict:
        return {"px1": self.px1.tolist(), "px2": self.px2.tolist()}


def _point_of(opt: ProductInput) -> Point:
    return {"px1": opt.px1[np.newaxis, :], "px2": opt.px2[np.newaxis, :]}


def _input_of(point: Mapping[str, np.ndarray]) -> ProductInput:
    return ProductInput(px1=point["px1"].reshape(-1), px2=point["px2"].reshape(-1))


def _coupled_law(ch: DiscreteIC, vc: VirtualCoupling) -> ProbTensor:
    """The coupling's joint law; a coupling of another channel is refused."""
    base = vc.base.law
    if base.cards != ch.law.cards or not np.allclose(
        base.values, ch.law.values, atol=MASS_TOL, rtol=0.0
    ):
        raise ValidationError("coupling was built for a different channel",
                              coupling=base.cards, channel=ch.law.cards)
    return vc.joint_law


def tin_sumrate(
    ch: DiscreteIC,
    cfg: SearchConfig = SearchConfig(),
    extra_candidates: Iterable[ProductInput] = (),
) -> tuple[ProductInput, float]:
    """Best found ``I(X1;Y1) + I(X2;Y2)`` over product inputs.

    Time sharing cannot improve a pointwise maximum of this form, so the
    product-input search is exact up to grid/ascent resolution.
    """
    result = _tin_search(ch, cfg, extra_candidates)
    return _input_of(result.point), result.value


def _tin_search(
    ch: DiscreteIC,
    cfg: SearchConfig,
    extra_candidates: Iterable[ProductInput] = (),
) -> SearchResult:
    return search_objective("tin", ch, ch.law, cfg, map(_point_of, extra_candidates))


def maximize_genie_rate(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    cfg: SearchConfig = SearchConfig(),
    extra_candidates: Iterable[ProductInput] = (),
) -> tuple[ProductInput, float]:
    """Best found ``I(X1;Y1,Yt1) + I(X2;Y2,Yt2)`` over product inputs."""
    result = _genie_search(ch, vc, cfg, extra_candidates)
    return _input_of(result.point), result.value


def _genie_search(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    cfg: SearchConfig,
    extra_candidates: Iterable[ProductInput] = (),
) -> SearchResult:
    return search_objective("genie", ch, _coupled_law(ch, vc), cfg, map(_point_of, extra_candidates))


def outer_bound(ch: DiscreteIC, vc: VirtualCoupling, cfg: SearchConfig = SearchConfig()) -> float:
    """Sum-rate upper bound from the genie-aided maximization.

    Valid whenever the dominance conditions hold; exposed separately so the
    bound can be used even when alignment fails.
    """
    return _genie_search(ch, vc, cfg).value


# ---------------------------------------------------------------------------
# Genie conditions
# ---------------------------------------------------------------------------


def check_genie_dominance(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    cfg: SearchConfig = SearchConfig(),
) -> tuple[RegimeReport, RegimeReport]:
    """Search for auxiliary laws under which a side output is out-informed.

    Report 1 maximizes ``I(U;Y2|X2,Yt2) - I(U;Yt1|X2,Yt2)``; report 2 the
    mirror.  ``VIOLATED`` witnesses disqualify the coupling for the outer
    bound pipeline.
    """
    law = _coupled_law(ch, vc)
    return tuple(
        _report(name, search_objective(name, ch, law, cfg), cfg)
        for name in ("genie_dominance_1", "genie_dominance_2")
    )


def evaluate_genie_dominance_margin(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    direction: int,
    witness: Mapping[str, np.ndarray],
) -> float:
    """Re-evaluate one dominance margin at a witness law."""
    return evaluate_objective(f"genie_dominance_{direction}", _coupled_law(ch, vc), witness)


def check_genie_alignment(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    opt: ProductInput,
) -> tuple[float, float]:
    """``(I(X1;Yt1|Y1), I(X2;Yt2|Y2))`` at one product input law."""
    law = _coupled_law(ch, vc)
    return tuple(evaluate_objective(f"alignment_{i}", law, _point_of(opt)) for i in (1, 2))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumCapacityCertificate:
    """Joint outcome of the genie pipeline on one (channel, coupling) pair.

    ``CERTIFIED`` means: dominance clean in both directions, alignment gaps
    within tolerance at every near-optimal input found, and the outer bound
    matches the TIN sum rate within tolerance -- so ``tin_bits`` is the
    sum-rate capacity at the reported search resolution.  All eight
    outcomes, each check passing (ok) or not (tol = ``tolerance``):

    ==========  ==================  ===========================  ================
    dominance   alignment (worst)   gap ``|outer - tin|``         verdict
    ==========  ==================  ===========================  ================
    ok          <= tol              <= tol                       ``CERTIFIED``
    ok          <= tol              > tol                        ``INCONCLUSIVE``
    ok          > tol               <= tol                       ``OUTER_ONLY``
    ok          > tol               > tol                        ``OUTER_ONLY``
    VIOLATED    <= tol              <= tol                       ``INCONCLUSIVE``
    VIOLATED    <= tol              > tol                        ``INCONCLUSIVE``
    VIOLATED    > tol               <= tol                       ``INCONCLUSIVE``
    VIOLATED    > tol               > tol                        ``INCONCLUSIVE``
    ==========  ==================  ===========================  ================

    Row two is ``INCONCLUSIVE`` although dominance alone makes
    ``outer_bits`` a valid upper bound.
    """

    verdict: str
    tin_bits: float
    outer_bits: float
    dominance_reports: tuple[RegimeReport, RegimeReport]
    alignment_gaps: tuple[float, float]
    optimal_input: ProductInput
    tolerance: float
    near_optima_checked: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tin_bits": self.tin_bits,
            "outer_bits": self.outer_bits,
            "alignment_gaps_bits": list(self.alignment_gaps),
            "dominance": [r.to_json_dict() for r in self.dominance_reports],
            "optimal_input": self.optimal_input.to_json_dict(),
            "tolerance_bits": self.tolerance,
            "near_optima_checked": self.near_optima_checked,
        }


def certify_sum_capacity(
    ch: DiscreteIC,
    vc: VirtualCoupling,
    cfg: SearchConfig = SearchConfig(),
) -> SumCapacityCertificate:
    """Run the full pipeline and classify the outcome.

    The TIN and genie searches exchange their maximizers as extra
    candidates, so the reported ``outer_bits >= tin_bits`` holds by
    construction and the gap reflects the conditions, not search asymmetry.
    Alignment is checked at every near-optimal genie input (within 1e-9 of
    the maximum); all of them must pass for ``CERTIFIED``.
    """
    tol = cfg.violation_tol
    dom1, dom2 = check_genie_dominance(ch, vc, cfg)

    tin_first = _tin_search(ch, cfg)
    genie = _genie_search(ch, vc, cfg, extra_candidates=[_input_of(tin_first.point)])
    tin = _tin_search(
        ch, cfg, extra_candidates=[_input_of(genie.point), _input_of(tin_first.point)]
    )

    opt = _input_of(genie.point)
    points = [p for _, p in genie.near_optima] or [genie.point]
    batch = {k: np.stack([p[k] for p in points]) for k in ("px1", "px2")}
    law = _coupled_law(ch, vc)
    worst = tuple(float(objective(f"alignment_{i}", law)(batch).max()) for i in (1, 2))

    dominance_ok = (
        dom1.status == NO_VIOLATION_FOUND and dom2.status == NO_VIOLATION_FOUND
    )
    alignment_ok = max(worst) <= tol
    gap_ok = abs(genie.value - tin.value) <= tol

    if dominance_ok and alignment_ok and gap_ok:
        verdict = CERTIFIED
    elif dominance_ok and not alignment_ok:
        verdict = OUTER_ONLY
    else:
        verdict = INCONCLUSIVE

    return SumCapacityCertificate(
        verdict=verdict,
        tin_bits=tin.value,
        outer_bits=genie.value,
        dominance_reports=(dom1, dom2),
        alignment_gaps=worst,
        optimal_input=opt,
        tolerance=tol,
        near_optima_checked=len(points),
    )

