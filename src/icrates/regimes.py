"""Interference-regime classification by violation search.

Every regime condition here is a universally quantified inequality over
input laws, so membership is only semidecidable numerically.  The classifier
therefore reports one of two statuses:

- ``VIOLATED``: a concrete witness distribution was found whose margin
  (left side minus right side, in bits) exceeds the violation tolerance.
  Witnesses are self-contained: re-evaluating them reproduces the margin.
- ``NO_VIOLATION_FOUND``: no violation exists on the search grid (plus
  refinement); this certifies the condition *at the reported resolution*,
  never globally.

Passing a previous report's witness through ``prior_witnesses`` makes
resolution increases monotone: the old witness is always re-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .channels import DiscreteIC, GaussianIC
from .errors import ConfigError
from .gaussian import (
    GaussianNoisyReport,
    GaussianVeryWeakReport,
    noisy_gaussian,
    very_weak_gaussian,
)
from .probtensor import BatchJoint, contract
from .search import Point, SearchResult, SimplexBlock, maximize

VIOLATED = "VIOLATED"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"


@dataclass(frozen=True)
class SearchConfig:
    """Resolution and determinism knobs shared by all searches.

    ``grid_steps`` controls marginal simplices, ``cond_grid_steps``
    conditional ones.  ``aux_card_w`` / ``aux_card_u`` default to
    ``|X_i| + 1`` and ``|X1|*|X2|`` when left unset.  ``max_candidates``
    bounds full grid enumeration; blocks are coarsened (largest first) to
    fit, and the effective resolution is reported alongside every result.
    """

    grid_steps: int = 8
    cond_grid_steps: int = 4
    restarts: int = 4
    aux_card_w: int | None = None
    aux_card_u: int | None = None
    seed: int = 0
    violation_tol: float = 1e-6
    angles: int = 91
    max_candidates: int = 200_000

    def __post_init__(self) -> None:
        if self.grid_steps < 2:
            raise ConfigError("grid_steps must be >= 2", grid_steps=self.grid_steps)
        if self.cond_grid_steps < 1:
            raise ConfigError("cond_grid_steps must be >= 1",
                              cond_grid_steps=self.cond_grid_steps)
        if self.restarts < 0:
            raise ConfigError("restarts must be >= 0", restarts=self.restarts)
        if self.aux_card_w is not None and self.aux_card_w < 1:
            raise ConfigError("aux_card_w must be >= 1", aux_card_w=self.aux_card_w)
        if self.aux_card_u is not None and self.aux_card_u < 1:
            raise ConfigError("aux_card_u must be >= 1", aux_card_u=self.aux_card_u)
        if self.violation_tol <= 0:
            raise ConfigError("violation_tol must be > 0", violation_tol=self.violation_tol)
        if self.angles < 2:
            raise ConfigError("angles must be >= 2", angles=self.angles)

    def card_w(self, nx: int) -> int:
        return self.aux_card_w if self.aux_card_w is not None else nx + 1

    def card_u(self, nx1: int, nx2: int) -> int:
        return self.aux_card_u if self.aux_card_u is not None else nx1 * nx2

    def to_json_dict(self) -> dict:
        return {
            "grid_steps": self.grid_steps,
            "cond_grid_steps": self.cond_grid_steps,
            "restarts": self.restarts,
            "aux_card_w": self.aux_card_w,
            "aux_card_u": self.aux_card_u,
            "seed": self.seed,
            "violation_tol": self.violation_tol,
            "angles": self.angles,
            "max_candidates": self.max_candidates,
        }


@dataclass(frozen=True)
class RegimeReport:
    """Result of one violation search; see module docstring for semantics."""

    condition: str
    status: str
    margin_bits: float
    witness: dict[str, np.ndarray] = field(repr=False)
    resolution: dict = field(repr=False)

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "status": self.status,
            "margin_bits": self.margin_bits,
            "witness": {k: np.asarray(v).tolist() for k, v in sorted(self.witness.items())},
            "resolution": self.resolution,
        }


def _report(condition: str, result: SearchResult, cfg: SearchConfig) -> RegimeReport:
    status = VIOLATED if result.value > cfg.violation_tol else NO_VIOLATION_FOUND
    resolution = {
        "effective_steps": dict(sorted(result.effective_steps.items())),
        "restarts": cfg.restarts,
        "seed": cfg.seed,
        "candidates_evaluated": result.n_evaluated,
        "violation_tol": cfg.violation_tol,
    }
    return RegimeReport(
        condition=condition,
        status=status,
        margin_bits=result.value,
        witness={k: v.copy() for k, v in result.point.items()},
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# Condition objectives (batched over candidate input laws)
# ---------------------------------------------------------------------------


def _very_weak_blocks(ch: DiscreteIC, cfg: SearchConfig, direction: int) -> list[SimplexBlock]:
    if direction == 1:
        nw = cfg.card_w(ch.nx1)
        return [
            SimplexBlock("pw", 1, nw, cfg.grid_steps),
            SimplexBlock("px_own", nw, ch.nx1, cfg.cond_grid_steps),
            SimplexBlock("px_other", 1, ch.nx2, cfg.grid_steps),
        ]
    nw = cfg.card_w(ch.nx2)
    return [
        SimplexBlock("pw", 1, nw, cfg.grid_steps),
        SimplexBlock("px_own", nw, ch.nx2, cfg.cond_grid_steps),
        SimplexBlock("px_other", 1, ch.nx1, cfg.grid_steps),
    ]


def _very_weak_objective(ch: DiscreteIC, direction: int):
    law = ch.law.values

    def objective(batch: Mapping[str, np.ndarray]) -> np.ndarray:
        pw = batch["pw"][:, 0, :]
        pxw = batch["px_own"]
        px = batch["px_other"][:, 0, :]
        if direction == 1:
            # joint over (W, X2, Y1, Y2); X1 summed out
            joint = contract("bw,bwi,bj,ijkl->bwjkl", pw, pxw, px, law)
            bj = BatchJoint(("W", "XO", "YC", "YO"), joint)
            # I(W1; Y2 | X2) - I(W1; Y1)
            return bj.mi(("W",), ("YO",), ("XO",)) - bj.mi(("W",), ("YC",))
        # mirror: joint over (W, X1, Y1, Y2); X2 summed out
        joint = contract("bw,bwj,bi,ijkl->bwikl", pw, pxw, px, law)
        bj = BatchJoint(("W", "XO", "YO", "YC"), joint)
        # I(W2; Y1 | X1) - I(W2; Y2)
        return bj.mi(("W",), ("YO",), ("XO",)) - bj.mi(("W",), ("YC",))

    return objective


def _product_blocks(ch: DiscreteIC, cfg: SearchConfig) -> list[SimplexBlock]:
    return [
        SimplexBlock("px1", 1, ch.nx1, cfg.grid_steps),
        SimplexBlock("px2", 1, ch.nx2, cfg.grid_steps),
    ]


def _strong_objective(ch: DiscreteIC, direction: int):
    law = ch.law.values

    def objective(batch: Mapping[str, np.ndarray]) -> np.ndarray:
        px1 = batch["px1"][:, 0, :]
        px2 = batch["px2"][:, 0, :]
        joint = contract("bi,bj,ijkl->bijkl", px1, px2, law)
        bj = BatchJoint(("X1", "X2", "Y1", "Y2"), joint)
        if direction == 1:
            # I(X1; Y1 | X2) - I(X1; Y2 | X2)
            return bj.mi(("X1",), ("Y1",), ("X2",)) - bj.mi(("X1",), ("Y2",), ("X2",))
        # mirror: I(X2; Y2 | X1) - I(X2; Y1 | X1)
        return bj.mi(("X2",), ("Y2",), ("X1",)) - bj.mi(("X2",), ("Y1",), ("X1",))

    return objective


_CONDITIONS = {
    "very_weak_1": (_very_weak_blocks, _very_weak_objective, 1),
    "very_weak_2": (_very_weak_blocks, _very_weak_objective, 2),
    "strong_y2": (_product_blocks, _strong_objective, 1),
    "strong_y1": (_product_blocks, _strong_objective, 2),
}


def evaluate_condition_margin(ch: DiscreteIC, condition: str, witness: Mapping[str, np.ndarray]) -> float:
    """Re-evaluate a condition's margin at one witness distribution."""
    blocks_fn, obj_fn, direction = _CONDITIONS[condition]
    objective = obj_fn(ch, direction)
    batch = {k: np.asarray(v, dtype=np.float64)[np.newaxis, ...] for k, v in witness.items()}
    return float(objective(batch)[0])


def _run_condition(
    ch: DiscreteIC,
    cfg: SearchConfig,
    condition: str,
    prior_witnesses: Iterable[Mapping[str, np.ndarray]] = (),
) -> RegimeReport:
    blocks_fn, obj_fn, direction = _CONDITIONS[condition]
    if condition.startswith("very_weak"):
        blocks = blocks_fn(ch, cfg, direction)
    else:
        blocks = blocks_fn(ch, cfg)
    extra: list[Point] = [
        {k: np.asarray(v, dtype=np.float64) for k, v in w.items()} for w in prior_witnesses
    ]
    result = maximize(
        obj_fn(ch, direction),
        blocks,
        seed=cfg.seed,
        restarts=cfg.restarts,
        budget=cfg.max_candidates,
        extra_candidates=extra,
    )
    return _report(condition, result, cfg)


def check_very_weak(
    ch: DiscreteIC,
    cfg: SearchConfig = SearchConfig(),
    prior_witnesses: Sequence[Iterable[Mapping[str, np.ndarray]]] = ((), ()),
) -> tuple[RegimeReport, RegimeReport]:
    """Search for violations of the two very-weak-interference inequalities.

    Report 1 maximizes ``I(W1;Y2|X2) - I(W1;Y1)`` over laws
    ``P(W1) P(X1|W1) P(X2)``; report 2 is the mirror.
    """
    r1 = _run_condition(ch, cfg, "very_weak_1", prior_witnesses[0])
    r2 = _run_condition(ch, cfg, "very_weak_2", prior_witnesses[1])
    return r1, r2


def check_strong_at_y2(
    ch: DiscreteIC,
    cfg: SearchConfig = SearchConfig(),
    prior_witnesses: Iterable[Mapping[str, np.ndarray]] = (),
) -> RegimeReport:
    """Search product inputs for ``I(X1;Y1|X2) > I(X1;Y2|X2)``.

    ``NO_VIOLATION_FOUND`` certifies, at grid resolution, that receiver 2 is
    the stronger observer of user 1.  The extension of the product-input
    condition to arbitrary extra conditioning is a known implication and is
    relied upon rather than searched.
    """
    return _run_condition(ch, cfg, "strong_y2", prior_witnesses)


def check_strong_both(
    ch: DiscreteIC,
    cfg: SearchConfig = SearchConfig(),
) -> tuple[RegimeReport, RegimeReport]:
    """Both strong-interference directions (condition and its mirror)."""
    return (
        _run_condition(ch, cfg, "strong_y2"),
        _run_condition(ch, cfg, "strong_y1"),
    )


def check_very_weak_gaussian(g: GaussianIC) -> GaussianVeryWeakReport:
    """Closed-form Gaussian very-weak-interference test with margins."""
    return very_weak_gaussian(g)


def check_noisy_gaussian(g: GaussianIC, search_points: int = 256) -> GaussianNoisyReport:
    """Closed-form Gaussian noisy-interference test plus certificate search."""
    return noisy_gaussian(g, search_points=search_points)
