"""Interference-regime classification by violation search.

Every regime condition here is a universally quantified inequality over
input laws, so membership is only semidecidable numerically.  The classifier
therefore reports one of two statuses:

- ``VIOLATED``: a concrete witness distribution was found whose margin
  (left side minus right side, in bits) exceeds the violation tolerance.
  Witnesses are self-contained: the margin is the witness scored alone,
  so re-evaluating it (:func:`evaluate_condition_margin`) reproduces the
  margin bit for bit; a witness read back from a document holds 12
  significant digits, so its re-score may move in the last bits.
- ``NO_VIOLATION_FOUND``: no violation exists on the search grid (plus
  refinement); this certifies the condition *at the reported resolution*,
  never globally.

Passing a previous report's witness through ``prior_witnesses`` makes
resolution increases monotone: the old witness is always re-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channels import DiscreteIC, GaussianIC
from .gaussian import (
    CERTIFICATE_SEARCH_POINTS,
    GaussianNoisyReport,
    GaussianVeryWeakReport,
    noisy_gaussian,
    very_weak_gaussian,
)
from .probtensor import ProbTensor, Term, TermTable, joint_entropies
from .probtensor import term as _T  # table shorthand
from .search import SearchConfig, SearchResult, SimplexBlock, maximize

VIOLATED = "VIOLATED"
NO_VIOLATION_FOUND = "NO_VIOLATION_FOUND"


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
        witness={k: v.copy() for k, v in OBJECTIVES[condition][0].lift(result.point).items()},
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# Search objectives: layouts plus signed mutual-information rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """A batch of search laws as one input law over ``names``.

    ``expr`` multiplies the blocks named by ``operands`` into the input law;
    its output subscripts letter ``names`` after the batch letter ``b``.
    Each block ``[B, slices, k]`` is reshaped to its subscripts: the last
    letter takes ``k``, the ``X1``/``X2`` letters but ``broadcast`` the law's
    input cardinalities, the one other letter the rest (a ``broadcast`` axis
    of size 1 is broadcast).  The objective's joint is the input law times a
    conditional law (the channel law or a coupling's joint law), over
    ``names`` then the law's outputs.  ``labels`` names the blocks whose
    labels no objective over the layout sees, as :func:`search.iter_grid_batches`
    takes them.  ``lift`` makes a searched point the witness reported.
    """

    blocks: Callable[[DiscreteIC, SearchConfig], list[SimplexBlock]]
    expr: str
    operands: tuple[str, ...]
    names: tuple[str, ...]
    labels: tuple[str, ...] = ()
    broadcast: str = ""
    lift: Callable[[Mapping[str, np.ndarray]], dict[str, np.ndarray]] = dict


def _product_blocks(ch: DiscreteIC, cfg: SearchConfig) -> list[SimplexBlock]:
    return [
        SimplexBlock("px1", 1, ch.nx1, cfg.grid_steps),
        SimplexBlock("px2", 1, ch.nx2, cfg.grid_steps),
    ]


def _layer_blocks(cfg: SearchConfig, n_own: int, n_other: int) -> list[SimplexBlock]:
    nw = cfg.card_w(n_own)
    return [
        SimplexBlock("pw", 1, nw, cfg.grid_steps),
        SimplexBlock("px_own", nw, n_own, cfg.cond_grid_steps),
        SimplexBlock("px_other", 1, n_other, cfg.grid_steps),
    ]


def _dominance_blocks(ch: DiscreteIC, cfg: SearchConfig, n_own: int) -> list[SimplexBlock]:
    return _product_blocks(ch, cfg) + [
        SimplexBlock("pu", n_own, cfg.aux_card_u or n_own, cfg.cond_grid_steps),
    ]


#: ``P(x1) P(x2)``.
_PRODUCT = Layout(_product_blocks, "bi,bj->bij", ("px1", "px2"), ("X1", "X2"))
#: ``P(w) P(x1|w) P(x2)`` and its mirror; W's labels are exchangeable.
_LAYER_1 = Layout(lambda ch, cfg: _layer_blocks(cfg, ch.nx1, ch.nx2), "bw,bwi,bj->bwij",
                  ("pw", "px_own", "px_other"), ("W1", "X1", "X2"), ("pw", "px_own"))
_LAYER_2 = Layout(lambda ch, cfg: _layer_blocks(cfg, ch.nx2, ch.nx1), "bw,bwj,bi->bwij",
                  ("pw", "px_own", "px_other"), ("W2", "X1", "X2"), ("pw", "px_own"))
#: ``P(x1) P(x2) P(u|x1)`` and its mirror, ``pu`` at size 1 on the other input; U's labels are
#: exchangeable.  Witnesses: the dense ``P(u|x1,x2)``, rows in ``(x1, x2)`` order, scored alike.
_AUX_U1 = Layout(lambda ch, cfg: _dominance_blocks(ch, cfg, ch.nx1), "bi,bj,biju->biju", ("px1", "px2", "pu"),
                 ("X1", "X2", "U"), ("pu",), "j", lambda p: {**p, "pu": np.repeat(p["pu"], p["px2"].size, 0)})
_AUX_U2 = replace(_AUX_U1, blocks=lambda ch, cfg: _dominance_blocks(ch, cfg, ch.nx2), broadcast="i",
                  lift=lambda p: {**p, "pu": np.tile(p["pu"], (p["px1"].size, 1))})

#: Every searched or scored quantity: a layout and signed rows, summed in
#: order as ``sum(sign * I(term))`` over the layout's joint; ``strong_y1``
#: and the ``_2`` names are mirrors.  ``genie``, the ``genie_dominance``
#: conditions and the ``alignment`` gaps read a coupling's joint law, the
#: others the channel law.
OBJECTIVES: dict[str, tuple[Layout, tuple[tuple[int, Term], ...]]] = {
    "tin": (_PRODUCT, ((+1, _T("X1", "Y1")), (+1, _T("X2", "Y2")))),
    "genie": (_PRODUCT, ((+1, _T("X1", ("Y1", "Yt1"))), (+1, _T("X2", ("Y2", "Yt2"))))),
    "alignment_1": (_PRODUCT, ((+1, _T("X1", "Yt1", "Y1")),)),
    "alignment_2": (_PRODUCT, ((+1, _T("X2", "Yt2", "Y2")),)),
    "strong_y2": (_PRODUCT, ((+1, _T("X1", "Y1", "X2")), (-1, _T("X1", "Y2", "X2")))),
    "strong_y1": (_PRODUCT, ((+1, _T("X2", "Y2", "X1")), (-1, _T("X2", "Y1", "X1")))),
    "very_weak_1": (_LAYER_1, ((+1, _T("W1", "Y2", "X2")), (-1, _T("W1", "Y1")))),
    "very_weak_2": (_LAYER_2, ((+1, _T("W2", "Y1", "X1")), (-1, _T("W2", "Y2")))),
    "genie_dominance_1": (_AUX_U1, ((+1, _T("U", "Y2", ("X2", "Yt2"))),
                                    (-1, _T("U", "Yt1", ("X2", "Yt2"))))),
    "genie_dominance_2": (_AUX_U2, ((+1, _T("U", "Y1", ("X1", "Yt1"))),
                                    (-1, _T("U", "Yt2", ("X1", "Yt1"))))),
}


def objective(name: str, law: ProbTensor) -> Callable[[Mapping[str, np.ndarray]], np.ndarray]:
    """Batched ``OBJECTIVES[name]`` over the search laws times ``law``.

    The rows are compiled once into a one-column :class:`probtensor.TermTable`.
    A call forms the input law by one einsum, takes every subset's entropy
    through :func:`probtensor.joint_entropies` and combines the terms; no
    batch joint or per-subset lookup is built per call.
    """
    layout, rows = OBJECTIVES[name]
    subs, out = layout.expr.split("->")
    cards = {c: law.card(n) for c, n in zip(out[1:], layout.names) if n in law.names and c != layout.broadcast}
    shapes = [tuple(cards.get(c, -1) for c in sub[1:-1]) for sub in subs.split(",")]
    table = TermTable([rows])

    def evaluate(batch: Mapping[str, np.ndarray]) -> np.ndarray:
        ops = [batch[op].reshape(len(batch[op]), *s, batch[op].shape[-1])
               for op, s in zip(layout.operands, shapes)]
        q = np.einsum(layout.expr, *ops)
        h = joint_entropies(layout.names, q, law, table.keys)
        return table.combine(table.mi(h))[0]

    return evaluate


def evaluate_objective(name: str, law: ProbTensor, witness: Mapping[str, np.ndarray]) -> float:
    """``OBJECTIVES[name]`` at one witness law, e.g. to re-score a report."""
    batch = {k: np.asarray(v, dtype=np.float64)[np.newaxis, ...] for k, v in witness.items()}
    return float(objective(name, law)(batch)[0])


def evaluate_condition_margin(ch: DiscreteIC, condition: str, witness: Mapping[str, np.ndarray]) -> float:
    """Re-evaluate a condition's margin at one witness distribution."""
    return evaluate_objective(condition, ch.law, witness)


def search_objective(
    name: str,
    ch: DiscreteIC,
    law: ProbTensor,
    cfg: SearchConfig,
    extra_candidates: Iterable[Mapping[str, np.ndarray]] = (),
) -> SearchResult:
    """Maximize ``OBJECTIVES[name]`` over the search laws times ``law`` at the
    resolution of ``cfg``; every regime, TIN and genie search runs here."""
    layout = OBJECTIVES[name][0]
    return maximize(objective(name, law), layout.blocks(ch, cfg), cfg,
                    extra_candidates=extra_candidates, labels=layout.labels)


def _run_condition(
    ch: DiscreteIC,
    cfg: SearchConfig,
    condition: str,
    prior_witnesses: Iterable[Mapping[str, np.ndarray]] = (),
) -> RegimeReport:
    return _report(condition, search_objective(condition, ch, ch.law, cfg, prior_witnesses), cfg)


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


def check_noisy_gaussian(g: GaussianIC, search_points: int = CERTIFICATE_SEARCH_POINTS) -> GaussianNoisyReport:
    """Closed-form Gaussian noisy-interference test plus certificate search."""
    return noisy_gaussian(g, search_points=search_points)
