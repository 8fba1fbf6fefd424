"""Two-dimensional achievable rate regions.

A *polytope* is the rate set of one fixed layered input law: an intersection
of half-planes ``c1*R1 + c2*R2 <= bound`` with ``(c1, c2)`` drawn from
``{(1,0), (0,1), (1,1), (2,1), (1,2)}`` and bounds given by sums of mutual
information terms.  A *region* is the convex hull of a union of polytopes
over a family of input laws, stored as support-function samples
``h(theta) = max (R1 cos(theta) + R2 sin(theta))`` on a fixed angle grid in
``[0 deg, 90 deg]`` together with extracted frontier vertices.

Time sharing is implemented exactly as convexification: mixing operating
points of fixed laws is a convex combination, and the pointwise maximum of
the per-law support functions *is* the support function of the convex hull
of the union.

Family enumeration is a coverage/cost compromise, declared as data in
:data:`FAMILIES`: composition grids over every simplex factor with seeded
random draws, the product grid and the interference-as-noise maximizer,
plus members derived from each of their laws that are always legal points
of the same family: :func:`relayer` replaces one user's W layer by a
constant or by ``W = X`` at the same X marginal.  The derived members cost
little and make finite-resolution comparisons between equivalent schemes
sharp.  No family is built law by law: every source is a product of law
tables (:class:`search.Table`), each holding some of a law's four factors
with each row's count, the number of laws of the family it stands for (a
grid's two side tables, one table of random draws, or the maximizer's two
one-row side tables).
:func:`layered_family` re-layers each table for each member and
deduplicates it, and :func:`search.product_batches`, the enumerator the
search grids use too, yields the product.

The reduced families used by ``hk_strong_y2`` and ``one_sided`` carry no W1
layer at all: the union runs over ``P(X1) P(W2) P(X2|W2)``, with X1 entering
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .channels import DiscreteIC, GaussianIC, OneSided, is_one_sided
from .errors import (
    AngleGridMismatchError,
    ConfigError,
    DimensionMismatchError,
    EmptyListError,
    IcError,
    NotOneSidedError,
    ValidationError,
)
from .gaussian import split_system
from .probtensor import BatchJoint, ProbTensor, Term, TermTable, require_valid
from .probtensor import term as _T  # table shorthand
from .regimes import _product_blocks
from .search import (
    CHUNK,
    SearchConfig,
    SimplexBlock,
    Table,
    _row_starts,
    canonical_table,
    distinct_rows,
    product_batches,
    shrink_to_budget,
    simplex_grid,
)
from .sumcap import ProductInput, tin_sumrate

_FEAS_TOL = 1e-12

# Constraint: (c1, c2, terms); bound = sum of the terms' MI values.
Constraint = tuple[int, int, tuple[Term, ...]]

#: Per-scheme constraint systems.  ``strong_capacity`` reuses the
#: ``semijoint`` table evaluated at W1 = X1, W2 = X2.
SCHEME_TABLES: dict[str, tuple[Constraint, ...]] = {
    "tin": (
        (1, 0, (_T("X1", "Y1"),)),
        (0, 1, (_T("X2", "Y2"),)),
    ),
    "semijoint": (
        (1, 0, (_T("X1", "Y1", "W2"),)),
        (0, 1, (_T("X2", "Y2", "W1"),)),
        (1, 1, (_T(("X1", "W2"), "Y1"), _T("X2", "Y2", "W2"))),
        (1, 1, (_T("X1", "Y1", "W1"), _T(("X2", "W1"), "Y2"))),
    ),
    "hk": (
        (1, 0, (_T("X1", "Y1", "W2"),)),
        (0, 1, (_T("X2", "Y2", "W1"),)),
        (1, 1, (_T(("X1", "W2"), "Y1"), _T("X2", "Y2", ("W1", "W2")))),
        (1, 1, (_T("X1", "Y1", ("W1", "W2")), _T(("X2", "W1"), "Y2"))),
        (1, 1, (_T(("X1", "W2"), "Y1", "W1"), _T(("X2", "W1"), "Y2", "W2"))),
        (2, 1, (_T(("X1", "W2"), "Y1"), _T("X1", "Y1", ("W1", "W2")),
                _T(("X2", "W1"), "Y2", "W2"))),
        (1, 2, (_T(("X2", "W1"), "Y2"), _T("X2", "Y2", ("W1", "W2")),
                _T(("X1", "W2"), "Y1", "W1"))),
    ),
    "hk_strong_y2": (
        (1, 0, (_T("X1", "Y1", "W2"),)),
        (0, 1, (_T("X2", "Y2", "X1"),)),
        (1, 1, (_T(("X1", "X2"), "Y2"),)),
        (1, 1, (_T(("X1", "W2"), "Y1"), _T("X2", "Y2", ("X1", "W2")))),
        (2, 1, (_T(("X1", "W2"), "Y1"), _T(("X1", "X2"), "Y2", "W2"))),
    ),
    "one_sided": (
        (1, 0, (_T("X1", "Y1", "W2"),)),
        (0, 1, (_T("X2", "Y2"),)),
        (1, 1, (_T(("X1", "W2"), "Y1"), _T("X2", "Y2", "W2"))),
    ),
}


# ---------------------------------------------------------------------------
# Input-law families as data
# ---------------------------------------------------------------------------

#: One derived member: the steps ``(side, identity)`` of :func:`relayer`
#: applied in order to a law, and the regions it feeds (``None``: every one).
Member = tuple[tuple[tuple[int, bool], ...], tuple[str, ...] | None]


@dataclass(frozen=True)
class Source:
    """A stream of input laws and the members derived from each of them:
    ``"layered"`` (|W1|, |W2| from the config), ``"reduced"`` (|W1| = 1),
    ``"products"`` (the product grid) or ``"anchor"`` (the TIN-optimal
    input).  ``tag`` keys the random draws of the first two."""

    kind: str
    members: tuple[Member, ...]
    tag: int = 0


def source(kind: str, *chains: tuple[tuple[int, bool], ...], tag: int = 0) -> Source:
    """A source with one member per chain, each feeding every region."""
    return Source(kind, tuple((chain, None) for chain in chains), tag)


#: A user's W layer made constant; both users' layers made ``W = X``.
_NO_W1, _NO_W2 = ((1, False),), ((2, False),)
_COMMON = ((1, True), (2, True))

#: A layered law and its W collapses; a product law as it is
#: (interference as noise) and with full common layers.
_COLLAPSES = ((), _NO_W1, _NO_W2, _NO_W1 + _NO_W2)
_PRODUCTS = ((), _COMMON)

#: Every scheme's family, in enumeration order.  The random draws of a
#: scheme are tagged with its position in :data:`SCHEMES`.
FAMILIES: dict[str, tuple[Source, ...]] = {
    "tin": (source("products", ()), source("anchor", ())),
    "semijoint": (source("layered", *_COLLAPSES, tag=1),
                  source("products", *_PRODUCTS), source("anchor", *_PRODUCTS)),
    "hk": (source("layered", *_COLLAPSES, tag=2),
           source("products", *_PRODUCTS), source("anchor", *_PRODUCTS)),
    "hk_strong_y2": (source("reduced", (), _NO_W2, tag=3), source("anchor", ())),
    "one_sided": (source("reduced", (), _NO_W2, tag=4), source("anchor", ())),
    "strong_capacity": (source("products", _COMMON), source("anchor", _COMMON)),
}

SCHEMES = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# Input-law family member
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxInputDist:
    """One layered input law ``P(w1) P(w2) P(x1|w1) P(x2|w2)``."""

    pw1: np.ndarray
    pw2: np.ndarray
    px1_given_w1: np.ndarray
    px2_given_w2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pw1", "pw2", "px1_given_w1", "px2_given_w2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
        if self.pw1.ndim != 1 or self.pw2.ndim != 1:
            raise DimensionMismatchError("pw1/pw2 must be vectors")
        if self.px1_given_w1.shape[:1] != self.pw1.shape or self.px1_given_w1.ndim != 2:
            raise DimensionMismatchError(
                "px1_given_w1 must be [nw1, nx1]", shape=self.px1_given_w1.shape
            )
        if self.px2_given_w2.shape[:1] != self.pw2.shape or self.px2_given_w2.ndim != 2:
            raise DimensionMismatchError(
                "px2_given_w2 must be [nw2, nx2]", shape=self.px2_given_w2.shape
            )
        for name, cond in (
            ("pw1", ()), ("pw2", ()),
            ("px1_given_w1", ("W",)), ("px2_given_w2", ("W",)),
        ):
            arr = getattr(self, name)
            names = ("W", "X")[: arr.ndim] if arr.ndim == 2 else ("W",)
            try:
                require_valid(ProbTensor(names, arr), conditioning=cond)
            except IcError as e:
                raise ValidationError(f"factor {name} invalid: {e}") from e
            arr.setflags(write=False)

    @property
    def nw1(self) -> int:
        return self.pw1.shape[0]

    @property
    def nw2(self) -> int:
        return self.pw2.shape[0]

    @property
    def nx1(self) -> int:
        return self.px1_given_w1.shape[1]

    @property
    def nx2(self) -> int:
        return self.px2_given_w2.shape[1]


# ---------------------------------------------------------------------------
# Rate polytopes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _vertex_plan(dirs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of :func:`_candidate_vertices` after the origin, in order.

    Axis intercepts as rows ``(column, coordinate, divisor)``, by direction
    and R1 before R2; then the intersections of every non-parallel pair of
    columns ``i < j`` as rows ``(i, j, c1i, c2i, c1j, c2j, det)``.
    """
    icpt = [(i, axis, c) for i, d in enumerate(dirs) for axis, c in enumerate(d) if c > 0]
    pairs = [(i, j, *dirs[i], *dirs[j], dirs[i][0] * dirs[j][1] - dirs[j][0] * dirs[i][1])
             for i in range(len(dirs)) for j in range(i + 1, len(dirs))]
    return (np.array(icpt, dtype=np.int64).reshape(-1, 3),
            np.array([p for p in pairs if p[-1] != 0], dtype=np.int64).reshape(-1, 7))


def _candidate_vertices(
    dirs: Sequence[tuple[int, int]], bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate vertices and feasibility for batched polytopes.

    ``bounds`` has shape ``[B, k]``; returns ``V [B, P, 2]`` and a boolean
    mask ``[B, P]``.  Candidates: origin, axis intercepts, and pairwise
    half-plane intersections (the constraint directions are fixed, so the
    2x2 solves are closed-form in the bounds).
    """
    b = np.asarray(bounds, dtype=np.float64)
    icpt, pairs = _vertex_plan(tuple(dirs))
    n = 1 + len(icpt)
    V = np.zeros((b.shape[0], n + len(pairs), 2))
    V[:, np.arange(1, n), icpt[:, 1]] = b[:, icpt[:, 0]] / icpt[:, 2]
    i, j, c1i, c2i, c1j, c2j, det = pairs.T
    bi, bj = b[:, i], b[:, j]
    V[:, n:, 0] = (bi * c2j - bj * c2i) / det
    V[:, n:, 1] = (c1i * bj - c1j * bi) / det
    feas = (V[:, :, 0] >= -_FEAS_TOL) & (V[:, :, 1] >= -_FEAS_TOL)
    for k, (c1, c2) in enumerate(dirs):
        feas &= c1 * V[:, :, 0] + c2 * V[:, :, 1] <= b[:, k, np.newaxis] + _FEAS_TOL
    return V, feas


# ---------------------------------------------------------------------------
# Rate regions (support samples + frontier vertices)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateRegion:
    """Convex, downward-closed rate set sampled on an angle grid."""

    theta_deg: np.ndarray
    h_bits: np.ndarray
    points: np.ndarray  # [K, 2] supporting point per angle
    vertices: np.ndarray  # frontier extreme points, angle-ordered
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "angles_deg": self.theta_deg.tolist(),
            "support_bits": self.h_bits.tolist(),
            "supporting_points": self.points.tolist(),
            "vertices": self.vertices.tolist(),
            "max_sumrate_bits": max_sumrate(self),
            "meta": self.meta,
        }


def _pareto_prune(rows: np.ndarray) -> np.ndarray:
    """Drop rows strictly dominated in both coordinates, and exact duplicates.

    A strictly dominated point scores strictly less in every direction of
    the closed positive quadrant, so it can neither set a support value nor
    win a tie, and a duplicate cannot change a maximum in a total order;
    pruning keeps the angle reduction exact while shrinking the candidate
    set to (roughly) the frontier.  The rows come back ordered by r1
    descending, then r2 ascending, so r2 is non-decreasing.
    """
    order = np.lexsort((rows[:, 1], -rows[:, 0]))
    r = rows[order]
    r1, r2 = r[:, 0], r[:, 1]
    new_group = np.ones(len(r), dtype=bool)
    new_group[1:] = r1[1:] < r1[:-1]
    starts = np.nonzero(new_group)[0]
    gid = np.cumsum(new_group) - 1
    gmax = np.maximum.reduceat(r2, starts)
    prev_best = np.concatenate(([-math.inf], np.maximum.accumulate(gmax)[:-1]))
    keep = r2 >= prev_best[gid]
    keep[1:] &= new_group[1:] | (r2[1:] != r2[:-1])
    return r[keep]


def _angle_grid(angles: int) -> tuple[np.ndarray, np.ndarray]:
    if angles < 2:
        raise ConfigError("angles must be >= 2", angles=angles)
    theta = np.linspace(0.0, 90.0, angles)
    rad = np.radians(theta)
    u = np.stack([np.cos(rad), np.sin(rad)], axis=1)
    return theta, u


#: Rows of the first ``add`` into an empty accumulator whose vertices are
#: enumerated before the corner skip runs, so that it has a frontier to
#: skip against: those with the largest corner sums.
_SEED_ROWS = 128
#: Slack added to each corner coordinate; it exceeds the ``3 * _FEAS_TOL``
#: a feasible vertex may lie past its intercept plus the 5e-13 of the snap.
_CORNER_SLACK = 1e-9


def _corners(dirs: Sequence[tuple[int, int]], bounds: np.ndarray) -> np.ndarray:
    """``[B, 2]`` upper-right corners of the polytopes ``bounds [B, k]``:
    per axis, the least axis intercept plus :data:`_CORNER_SLACK`, or
    ``inf`` when no direction meets that axis."""
    icpt, _ = _vertex_plan(tuple(dirs))
    q = bounds[:, icpt[:, 0]] / icpt[:, 2]
    return np.stack([q[:, icpt[:, 1] == axis].min(axis=1, initial=math.inf)
                     for axis in (0, 1)], axis=1) + _CORNER_SLACK


class SupportAccumulator:
    """Running union of polytopes as per-angle support maxima.

    The only state is the pruned frontier of every candidate vertex seen so
    far; ``finalize`` scores it once and keeps, per angle, the best
    ``(h, -r1, -r2)`` in lexicographic order.  That is a total order, and
    pruning never drops a row that could win it, so the result does not
    depend on how the polytopes are chunked.

    The frontier is the set of snapped vertices that no other one strictly
    dominates, so ``add`` skips a polytope without enumerating its vertices
    when a frontier row strictly dominates its corner (:func:`_corners`).
    A feasible vertex lies at most ``(1 + c_other) * _FEAS_TOL`` past the
    intercept of any direction ``c`` that meets its axis, and the
    12-decimal snap moves it by at most 5e-13, both far inside the corner's
    1e-9 slack; so every vertex of a skipped polytope would have been
    dropped by the frontier filter or the prune, and the frontier after
    each ``add`` is bit for bit what enumerating every polytope gives.  An
    ``add`` into an empty accumulator first enumerates the
    :data:`_SEED_ROWS` polytopes of largest corner sum, to give the skip a
    frontier.
    """

    def __init__(self, angles: int) -> None:
        self.theta_deg, self._u = _angle_grid(angles)
        self._rows = np.empty((0, 2))

    def add(self, dirs: Sequence[tuple[int, int]], bounds: np.ndarray) -> None:
        b = np.asarray(bounds, dtype=np.float64)
        corner = _corners(dirs, b)
        rest = np.ones(len(b), dtype=bool)
        if not len(self._rows) and len(b) > _SEED_ROWS:
            seed = np.argpartition(-corner.sum(axis=1), _SEED_ROWS)[:_SEED_ROWS]
            self._add_vertices(dirs, b[seed])
            rest[seed] = False
        self._add_vertices(dirs, b[rest & self._undominated(corner)])

    def _undominated(self, points: np.ndarray) -> np.ndarray:
        """Mask of the ``points [n, 2]`` that no frontier row strictly
        dominates.  The frontier runs r1 descending with r2 non-decreasing,
        so the ``i`` rows with a larger r1 come first and the best r2 among
        them is ``best[i]`` (-inf when there are none)."""
        i = np.searchsorted(-self._rows[:, 0], -points[:, 0], "left")
        best = np.concatenate(([-math.inf], self._rows[:, 1]))
        return points[:, 1] >= best[i]

    def _add_vertices(self, dirs: Sequence[tuple[int, int]], bounds: np.ndarray) -> None:
        """Merge every feasible vertex of the polytopes ``bounds`` into the
        frontier (the whole of ``add`` without the corner skip)."""
        V, feas = _candidate_vertices(dirs, bounds)
        flatV = V.reshape(-1, 2)[feas.reshape(-1)]
        # Snap to 12 decimals so that geometric ties are exact equalities;
        # without this, 1e-16 noise defeats both the lexicographic tie-break
        # and the dominance prune.
        flatV = np.maximum(np.round(flatV, 12), 0.0)
        # Drop candidates the frontier strictly dominates; the prune would
        # drop them too.
        flatV = flatV[self._undominated(flatV)]
        self._rows = _pareto_prune(np.concatenate([self._rows, flatV]))

    def finalize(self, meta: dict | None = None) -> RateRegion:
        rows = self._rows
        if rows.shape[0] == 0:
            raise EmptyListError("no polytopes were accumulated")
        scores = rows @ self._u.T  # [n, K]
        h = scores.max(axis=0)
        tie = scores == h
        r1 = np.where(tie, rows[:, 0:1], math.inf).min(axis=0)
        tie &= rows[:, 0:1] == r1
        r2 = np.where(tie, rows[:, 1:2], math.inf).min(axis=0)
        pts = np.stack([r1, r2], axis=1)
        return RateRegion(
            theta_deg=self.theta_deg.copy(),
            h_bits=np.maximum(h, 0.0),
            points=pts,
            vertices=_extract_vertices(pts),
            meta=dict(meta or {}),
        )


def _drop_repeats(rows: np.ndarray) -> np.ndarray:
    """Rows that differ from the row before them."""
    return rows[_row_starts(rows)]


def _extract_vertices(points: np.ndarray) -> np.ndarray:
    """Angle-ordered distinct extreme points from per-angle supporting points."""
    # Drop interior exactly-collinear points (coordinates are snapped, so
    # flat edges produce exact zeros; near-extreme points are kept).
    out: list[np.ndarray] = []
    for row in _drop_repeats(np.round(points, 12)):
        while len(out) >= 2:
            a, b = out[-2], out[-1]
            cross = (b[0] - a[0]) * (row[1] - a[1]) - (b[1] - a[1]) * (row[0] - a[0])
            if abs(cross) <= 1e-18:
                out.pop()
            else:
                break
        out.append(row)
    return np.array(out)


# ---------------------------------------------------------------------------
# Region comparison operations
# ---------------------------------------------------------------------------


def _check_grids(r: RateRegion, s: RateRegion) -> None:
    if r.theta_deg.shape != s.theta_deg.shape or not np.allclose(
        r.theta_deg, s.theta_deg, atol=1e-12, rtol=0.0
    ):
        raise AngleGridMismatchError(
            "regions use different angle grids",
            left=r.theta_deg.shape,
            right=s.theta_deg.shape,
        )


def includes(r: RateRegion, s: RateRegion, tol: float = 5e-3) -> bool:
    """True when ``r`` contains ``s`` up to ``tol`` bits of support slack."""
    _check_grids(r, s)
    return bool(np.all(r.h_bits >= s.h_bits - tol))


def equals(r: RateRegion, s: RateRegion, tol: float = 5e-3) -> bool:
    return includes(r, s, tol) and includes(s, r, tol)


def hausdorff_support_gap(r: RateRegion, s: RateRegion) -> float:
    """Largest absolute support difference across the shared angle grid."""
    _check_grids(r, s)
    return float(np.abs(r.h_bits - s.h_bits).max())


def max_sumrate(r: RateRegion) -> float:
    """Maximum of ``R1 + R2`` over the region (attained at a vertex)."""
    v = r.vertices
    return float((v[:, 0] + v[:, 1]).max())


# ---------------------------------------------------------------------------
# Constraint tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def constraint_terms(table: tuple[Constraint, ...]) -> TermTable:
    """``table`` compiled with one column per constraint, its terms added."""
    return TermTable([[(+1, t) for t in terms] for _, _, terms in table])


# ---------------------------------------------------------------------------
# Batched family enumeration and region assembly
# ---------------------------------------------------------------------------

#: A batch of input laws: pw1 [B, nw1], px1w1 [B, nw1, nx1], pw2, px2w2.
DistBatch = dict[str, np.ndarray]


def batch_joint(ch: DiscreteIC, batch: DistBatch) -> BatchJoint:
    """Joints over ``(W1, W2, X1, X2, Y1, Y2)`` as input laws ``q(w1,w2,x1,x2)``
    with the channel law as their kernel (the 6-D joint is never formed)."""
    q = (batch["pw1"][:, :, None, None, None] * batch["pw2"][:, None, :, None, None]
         * batch["px1w1"][:, :, None, :, None] * batch["px2w2"][:, None, :, None, :])
    return BatchJoint(("W1", "W2", "X1", "X2"), q, ch.law)


def batch_bounds(bj: BatchJoint, table: Sequence[Constraint]) -> np.ndarray:
    """``[B, n_constraints]`` bound matrix for one constraint table; each
    bound is a sum of clamped terms, so none is negative."""
    terms = constraint_terms(tuple(table))
    return np.column_stack(terms.combine(terms.mi(bj.entropies(terms.keys))))


def merged_dirs_bounds(
    table: Sequence[tuple[int, int, object]], bounds: np.ndarray
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Deduplicate parallel constraints by taking the minimum bound.

    ``table`` rows start with their direction ``(c1, c2)``; ``bounds`` holds
    one column per row.
    """
    dirs: list[tuple[int, int]] = []
    cols: dict[tuple[int, int], np.ndarray] = {}
    for idx, (c1, c2, _) in enumerate(table):
        key = (c1, c2)
        if key in cols:
            cols[key] = np.minimum(cols[key], bounds[:, idx])
        else:
            dirs.append(key)
            cols[key] = bounds[:, idx]
    return dirs, np.stack([cols[d] for d in dirs], axis=1)


def relayer(batch: DistBatch, side: int, identity: bool = False) -> DistBatch:
    """User ``side``'s W layer replaced at the same X marginal: by a constant
    layer, or by ``W = X`` when ``identity`` is set.

    Both are legal members of any family that holds the batch; the other
    user's layer, and any factor the batch holds of it, is kept as it is.
    """
    pw, pxw = f"pw{side}", f"px{side}w{side}"
    px = np.einsum("bw,bwi->bi", batch[pw], batch[pxw])
    B, nx = px.shape
    if identity:
        layer = {pw: px, pxw: np.broadcast_to(np.eye(nx), (B, nx, nx)).copy()}
    else:
        layer = {pw: np.ones((B, 1)), pxw: px[:, np.newaxis, :]}
    return {**batch, **layer}


def _layer_blocks(ch: DiscreteIC, cfg: SearchConfig, nw1: int) -> list[SimplexBlock]:
    """Grid blocks over ``P(w1) P(w2) P(x1|w1) P(x2|w2)`` at ``|W2| = cfg.card_w(nx2)``.

    Side layers of cardinality one use the marginal resolution (that factor
    *is* a marginal); wider layers use the conditional resolution.
    """
    nw2 = cfg.card_w(ch.nx2)

    def steps_for(n_slices: int) -> int:
        return cfg.grid_steps if n_slices == 1 else cfg.cond_grid_steps

    return [
        SimplexBlock("pw1", 1, nw1, cfg.grid_steps),
        SimplexBlock("px1w1", nw1, ch.nx1, steps_for(nw1)),
        SimplexBlock("pw2", 1, nw2, cfg.grid_steps),
        SimplexBlock("px2w2", nw2, ch.nx2, steps_for(nw2)),
    ]


#: Grid blocks of each source kind; the anchor is one searched law.
_SOURCE_BLOCKS = {
    "layered": lambda ch, cfg: _layer_blocks(ch, cfg, cfg.card_w(ch.nx1)),
    "reduced": lambda ch, cfg: _layer_blocks(ch, cfg, 1),
    "products": _product_blocks,
    "anchor": lambda ch, cfg: [],
}


def _source_blocks(ch: DiscreteIC, src: Source, cfg: SearchConfig) -> list[SimplexBlock]:
    """The grid blocks ``src`` scans, coarsened to ``cfg.max_candidates``."""
    return shrink_to_budget(_SOURCE_BLOCKS[src.kind](ch, cfg), cfg.max_candidates)


def _constant_w_sides(px1: np.ndarray, px2: np.ndarray) -> list[Table]:
    """Side tables ``{pw_i: 1, px_i|w_i: px_i}`` over the marginal rows
    ``px1 [m1, |X1|]`` and ``px2 [m2, |X2|]``, each row counted once."""
    return [Table({f"pw{i}": np.ones((len(px), 1)), f"px{i}w{i}": px[:, np.newaxis, :]},
                  np.ones(len(px), dtype=np.int64)) for i, px in ((1, px1), (2, px2))]


def _grid_tables(blocks: Sequence[SimplexBlock]) -> list[Table]:
    """The grid over ``blocks`` as its two side tables.

    Marginal blocks ``px1, px2`` (the product grid) give constant-W sides
    over their simplex grids.  Layered blocks ``pw1, px1w1, pw2, px2w2``
    give each side's grid modulo relabelling of W (:func:`canonical_table`,
    one canonical row per orbit with the orbit's size): a relabelling of W
    changes no bound of any scheme, and :func:`relayer` commutes with it
    (both up to the order in which sums round).  The ``px|w`` rows of
    massless W values hold their block's first grid point, which is
    bit-exact for every law built from the side: :func:`batch_joint`
    multiplies those rows by 0.0, and :func:`relayer`'s marginal adds them
    as +0.0.
    """
    if len(blocks) == 2:
        return _constant_w_sides(*(simplex_grid(b.k, b.steps) for b in blocks))
    sides = [(pw, pxw, canonical_table((pw, pxw))) for pw, pxw in (blocks[:2], blocks[2:])]
    return [Table({pw.name: t.columns[pw.name][:, 0], pxw.name: t.columns[pxw.name]}, t.counts)
            for pw, pxw, t in sides]


def _source_tables(
    ch: DiscreteIC, src: Source, cfg: SearchConfig, anchor: ProductInput | None
) -> list[list[Table]]:
    """``src``'s laws as products of law tables.

    A grid source is its two side tables (:func:`_grid_tables`); a layered
    or reduced one also has its ``cfg.restarts`` seeded random draws, one
    table of whole laws.  The anchor is the TIN-optimal product input as two
    one-row side tables: ``anchor`` when the caller already has it from
    ``tin_sumrate(ch, cfg)``, otherwise it is searched here.
    """
    if src.kind == "anchor":
        opt = anchor if anchor is not None else tin_sumrate(ch, cfg)[0]
        return [_constant_w_sides(opt.px1[np.newaxis, :], opt.px2[np.newaxis, :])]
    blocks = _source_blocks(ch, src, cfg)
    products = [_grid_tables(blocks)]
    if src.kind != "products" and cfg.restarts:
        rng = np.random.default_rng(np.random.SeedSequence([0xFA111E5, cfg.seed, src.tag]))
        raw = {b.name: rng.dirichlet(np.ones(b.k), size=(cfg.restarts, b.n_slices)) for b in blocks}
        draws = {name: v[:, 0, :] if name.startswith("pw") else v for name, v in raw.items()}
        products.append([Table(draws, np.ones(cfg.restarts, dtype=np.int64))])
    return products


def _chain_table(
    prefixes: dict[tuple[int, tuple], Table], t: int, chain: Sequence[tuple[int, bool]]
) -> Table:
    """Table ``t`` after the steps of ``chain`` on the sides it holds, built
    from the longest prefix already in ``prefixes`` (which it extends).
    Each step's rows are deduplicated, each distinct row with the summed
    counts of the rows it stands for."""
    steps = tuple(step for step in chain if f"pw{step[0]}" in prefixes[t, ()].columns)
    for n in range(1, len(steps) + 1):
        if (t, steps[:n]) not in prefixes:
            prev = prefixes[t, steps[:n - 1]]
            table = relayer(prev.columns, *steps[n - 1])
            rows = np.concatenate([v.reshape(len(prev.counts), -1) for v in table.values()], axis=1)
            idx, total = distinct_rows(rows, prev.counts)
            prefixes[t, steps[:n]] = Table({name: v[idx] for name, v in table.items()}, total)
    return prefixes[t, steps]


def layered_family(
    tables: Sequence[Table], members: Sequence[Member]
) -> Iterator[tuple[DistBatch, tuple[str, ...] | None, np.ndarray]]:
    """``(batch, feeds, counts)`` for every member of every law of the
    product of the law ``tables``, which between them hold each of a law's
    four factors once.

    A member's chain of :func:`relayer` steps acts on each user's side
    alone, so it acts on each table alone: each table is re-layered by the
    member's steps on the sides it holds, in chain order (each step prefix
    once), and deduplicated again.  A member's laws are the product of its
    tables (:func:`search.product_batches`), yielded in ``CHUNK``-row
    batches, earlier tables varying slowest, each row standing for the
    product of its tables' counts.  The product is never built whole.

    Memory: a re-layered table holds at most the rows of the table it comes
    from.  A canonical side table holds at most its side's grid, itself at
    most ``max_candidates`` rows of ``nw * (nx + 1)`` float64 values, so at
    worst ``8 * max_candidates * nw * (nx + 1)`` bytes (25.6 MB at the
    default 200,000 rows, ``|W| = 4`` and ``|X| = 3``); a product-grid side
    table holds at most its shrunk marginal grid, and a draw table
    ``restarts`` laws.  The tables of every chain prefix are kept while the
    product runs, and a batch holds at most ``CHUNK`` laws.
    """
    prefixes = {(t, ()): table for t, table in enumerate(tables)}
    for chain, feeds in members:
        chained = [_chain_table(prefixes, t, chain) for t in range(len(tables))]
        for batch, counts in product_batches(chained, CHUNK):
            yield batch, feeds, counts


def scheme_family(
    ch: DiscreteIC,
    family: Sequence[Source],
    cfg: SearchConfig,
    anchor: ProductInput | None = None,
) -> Iterator[tuple[DistBatch, tuple[str, ...] | None, np.ndarray]]:
    """``(batch, feeds, counts)`` for every member of every law of ``family``
    (a :data:`FAMILIES` row or a suite's), source by source: each row of a
    batch stands for ``counts`` laws of the family.

    Every source is one or more products of law tables
    (:func:`_source_tables`), and each product is enumerated with its
    members by :func:`layered_family`: a layered grid as one canonical law
    per relabelling orbit of W with the orbit's multiplicity, the product
    grid, the random draws and the anchor as one row per distinct law.
    ``anchor`` is the TIN optimum of ``(ch, cfg)`` if the caller has it.
    """
    for src in family:
        for tables in _source_tables(ch, src, cfg, anchor):
            yield from layered_family(tables, src.members)


def table_for_scheme(scheme: str) -> tuple[Constraint, ...]:
    return SCHEME_TABLES["semijoint" if scheme == "strong_capacity" else scheme]


def union_over_batches(
    ch: DiscreteIC,
    regions: Mapping[str, str],
    batches: Iterable[tuple[DistBatch, Collection[str] | None, np.ndarray]],
    angles: int,
    per_batch_hook: (
        Callable[[BatchJoint, Mapping[str, np.ndarray], np.ndarray], None] | None
    ) = None,
) -> dict[str, RateRegion]:
    """Accumulate named regions over one stream of law batches.

    ``regions`` maps each region name to its scheme; several regions may
    share one.  Each batch comes with the names of the regions it feeds
    (``None`` for every region) and each row's count, the number of laws
    of the family it stands for (:func:`scheme_family` yields a layered
    grid as one law per relabelling orbit of W); ``laws_enumerated`` sums
    the counts.  Every scheme's bounds are computed once per batch, from
    the entropies of all the tables' subsets taken in one pass, and all of
    a batch's bound rows go to its regions' accumulators, whose prune drops
    repeats, so what is added does not depend on how the laws are batched.
    ``per_batch_hook(bj, bounds, counts)`` receives the batch's joint, its
    bound matrices keyed by scheme and the counts, enabling zero-tolerance
    per-law checks on exactly the laws the regions were built from.
    """
    tables = {scheme: table_for_scheme(scheme) for scheme in regions.values()}
    subsets = tuple(dict.fromkeys(k for t in tables.values() for k in constraint_terms(t).keys))
    accs = {name: SupportAccumulator(angles) for name in regions}
    laws = dict.fromkeys(regions, 0)
    for batch, feeds, counts in batches:
        bj = batch_joint(ch, batch)
        bj.entropies(subsets)
        bounds = {scheme: batch_bounds(bj, table) for scheme, table in tables.items()}
        merged = {scheme: merged_dirs_bounds(table, bounds[scheme])
                  for scheme, table in tables.items()}
        for name in regions if feeds is None else feeds:
            accs[name].add(*merged[regions[name]])
            laws[name] += int(counts.sum())
        if per_batch_hook is not None:
            per_batch_hook(bj, bounds, counts)
    return {
        name: acc.finalize(
            {"scheme": regions[name], "laws_enumerated": laws[name], "angles": angles}
        )
        for name, acc in accs.items()
    }


def region_scheme(
    ch: DiscreteIC,
    scheme: str,
    cfg: SearchConfig = SearchConfig(),
    anchor: ProductInput | None = None,
) -> RateRegion:
    """Grid-resolution rate region of one scheme (union + convex hull).

    ``anchor`` is passed to :func:`scheme_family`.
    """
    if scheme not in SCHEMES:
        raise ConfigError("unknown scheme", scheme=scheme, allowed=SCHEMES)
    if scheme == "one_sided" and is_one_sided(ch) != OneSided.SIDE_A:
        raise NotOneSidedError("one_sided scheme needs a channel with a clean receiver 2")
    batches = scheme_family(ch, FAMILIES[scheme], cfg, anchor)
    region = union_over_batches(ch, {scheme: scheme}, batches, cfg.angles)[scheme]
    region.meta.update({
        "grid_steps": cfg.grid_steps,
        "cond_grid_steps": cfg.cond_grid_steps,
        "restarts": cfg.restarts,
        "seed": cfg.seed,
    })
    region.meta["effective_steps"] = dict(sorted(
        (b.name, b.steps) for src in FAMILIES[scheme] for b in _source_blocks(ch, src, cfg)
    ))
    return region


# ---------------------------------------------------------------------------
# Gaussian regions (closed-form bounds over power splits)
# ---------------------------------------------------------------------------

GAUSSIAN_SCHEMES = ("tin", "semijoint", "hk", "hk_strong_y2", "one_sided")


def region_gaussian(
    g: GaussianIC, scheme: str, splits: int = 17, angles: int = SearchConfig.angles
) -> RateRegion:
    """Gaussian-input rate region with a common/private power-split grid.

    The common layer of user ``i`` carries ``lam_i * P_i``; ``splits`` grid
    points cover ``lam in [0, 1]``.  All mutual-information bounds come from
    the exact jointly Gaussian log-determinant algebra.
    """
    if scheme not in GAUSSIAN_SCHEMES:
        raise ConfigError("unknown gaussian scheme", scheme=scheme, allowed=GAUSSIAN_SCHEMES)
    if splits < 1:
        raise ConfigError("splits must be >= 1", splits=splits)
    if scheme == "one_sided" and abs(g.b) > 1e-12:
        raise NotOneSidedError("gaussian one_sided scheme needs b == 0", b=g.b)
    table = table_for_scheme(scheme)
    lam = np.linspace(0.0, 1.0, splits) if splits > 1 else np.array([0.0])
    if scheme == "tin":
        lam1 = lam2 = np.zeros(1)
    elif scheme in ("semijoint", "hk"):
        lam1, lam2 = (m.ravel() for m in np.meshgrid(lam, lam, indexing="ij"))
    else:
        lam1, lam2 = 0.0, lam
    terms, system = constraint_terms(table), split_system(g, lam1, lam2)
    bounds = np.column_stack(terms.combine(system.mi_bits(*t) for t in terms.terms))
    acc = SupportAccumulator(angles)
    acc.add(*merged_dirs_bounds(table, bounds))
    return acc.finalize({
        "scheme": scheme, "splits": splits, "angles": angles, "gaussian": True,
    })
