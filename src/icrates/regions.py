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
sharp.

The reduced families used by ``hk_strong_y2`` and ``one_sided`` carry no W1
layer at all: the union runs over ``P(X1) P(W2) P(X2|W2)``, with X1 entering
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .probtensor import BatchJoint, ProbTensor, Term, require_valid
from .probtensor import term as _T  # table shorthand
from .regimes import _product_blocks
from .search import CHUNK, SearchConfig, SimplexBlock, iter_grid_batches, shrink_to_budget
from .sumcap import ProductInput, tin_sumrate

ALLOWED_DIRS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))

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
    B, k = b.shape
    zeros = np.zeros(B)
    pts: list[np.ndarray] = [np.zeros((B, 2))]
    for i, (c1, c2) in enumerate(dirs):
        if c1 > 0:
            pts.append(np.stack([b[:, i] / c1, zeros], axis=1))
        if c2 > 0:
            pts.append(np.stack([zeros, b[:, i] / c2], axis=1))
    for i in range(k):
        c1i, c2i = dirs[i]
        for j in range(i + 1, k):
            c1j, c2j = dirs[j]
            det = c1i * c2j - c1j * c2i
            if det == 0:
                continue
            x = (b[:, i] * c2j - b[:, j] * c2i) / det
            y = (c1i * b[:, j] - c1j * b[:, i]) / det
            pts.append(np.stack([x, y], axis=1))
    V = np.stack(pts, axis=1)
    feas = (V[:, :, 0] >= -_FEAS_TOL) & (V[:, :, 1] >= -_FEAS_TOL)
    for i, (c1, c2) in enumerate(dirs):
        feas &= c1 * V[:, :, 0] + c2 * V[:, :, 1] <= b[:, i, np.newaxis] + _FEAS_TOL
    return V, feas


@dataclass(frozen=True)
class RatePolytope:
    """Intersection of rate half-planes for one fixed input law.

    Bounds are clamped to be nonnegative, so every polytope contains the
    origin and is never empty.
    """

    constraints: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for c1, c2, bound in self.constraints:
            if (c1, c2) not in ALLOWED_DIRS:
                raise ConfigError("unsupported constraint direction", direction=(c1, c2))
            cleaned.append((int(c1), int(c2), max(float(bound), 0.0)))
        object.__setattr__(self, "constraints", tuple(cleaned))

    def _dirs_bounds(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        bounds = np.array([[b for _, _, b in self.constraints]])
        return merged_dirs_bounds(self.constraints, bounds)

    def vertices(self) -> np.ndarray:
        """Feasible candidate vertices (deduplicated, unordered)."""
        dirs, bounds = self._dirs_bounds()
        V, feas = _candidate_vertices(dirs, bounds)
        pts = V[0][feas[0]]
        return np.unique(np.round(pts, 12), axis=0)

    def support(self, theta_deg: float) -> float:
        t = math.radians(theta_deg)
        v = self.vertices()
        return float((v @ np.array([math.cos(t), math.sin(t)])).max())

    def max_sum(self) -> float:
        v = self.vertices()
        return float((v[:, 0] + v[:, 1]).max())

    def contains(self, r1: float, r2: float, tol: float = 1e-9) -> bool:
        if r1 < -tol or r2 < -tol:
            return False
        return all(c1 * r1 + c2 * r2 <= bound + tol for c1, c2, bound in self.constraints)

    def includes(self, other: "RatePolytope", tol: float = 1e-9) -> bool:
        return all(self.contains(r1, r2, tol) for r1, r2 in other.vertices())


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
    set to (roughly) the frontier.
    """
    if rows.shape[0] <= 2:
        return rows
    order = np.lexsort((rows[:, 1], -rows[:, 0]))
    r = rows[order]
    r1, r2 = r[:, 0], r[:, 1]
    new_group = np.empty(len(r), dtype=bool)
    new_group[0] = True
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


class SupportAccumulator:
    """Running union of polytopes as per-angle support maxima.

    The only state is the pruned frontier of every candidate vertex seen so
    far; ``finalize`` scores it once and keeps, per angle, the best
    ``(h, -r1, -r2)`` in lexicographic order.  That is a total order, and
    pruning never drops a row that could win it, so the result does not
    depend on how the polytopes are chunked.
    """

    def __init__(self, angles: int) -> None:
        self.theta_deg, self._u = _angle_grid(angles)
        self._rows = np.empty((0, 2))

    def add(self, dirs: Sequence[tuple[int, int]], bounds: np.ndarray) -> None:
        V, feas = _candidate_vertices(dirs, bounds)
        flatV = V.reshape(-1, 2)[feas.reshape(-1)]
        # Snap to 12 decimals so that geometric ties are exact equalities;
        # without this, 1e-16 noise defeats both the lexicographic tie-break
        # and the dominance prune.
        flatV = np.maximum(np.round(flatV, 12), 0.0)
        if len(self._rows) > 2:
            # Drop candidates the frontier strictly dominates; the prune
            # would drop them too.  A pruned frontier of more than two rows
            # runs r1 descending with r2 non-decreasing, so the ``i`` rows
            # with a larger r1 come first and the best r2 among them is
            # ``r2[i - 1]`` (``i == 0``: no such row).
            r1, r2 = self._rows[:, 0], self._rows[:, 1]
            i = np.searchsorted(-r1, -flatV[:, 0], "left")
            flatV = flatV[(i == 0) | (flatV[:, 1] >= r2[i - 1])]
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


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before them."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return new


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


def union_region(polytopes: Sequence[RatePolytope], angles: int = SearchConfig.angles) -> RateRegion:
    """Convex hull of a union of polytopes (exact time-sharing closure)."""
    if not polytopes:
        raise EmptyListError("union_region needs at least one polytope")
    acc = SupportAccumulator(angles)
    for poly in polytopes:
        acc.add(*poly._dirs_bounds())
    return acc.finalize({"n_polytopes": len(polytopes)})


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
# Per-law polytope constructors
# ---------------------------------------------------------------------------


def table_bounds(table: Sequence[Constraint], mi: Callable[..., object]) -> np.ndarray:
    """``[B, n_constraints]`` matrix of unclamped constraint bounds.

    ``mi(target, second, given)`` evaluates one term: an array over a batch
    of laws, or a float for a single law (then ``B = 1``).
    """
    cols = []
    for _, _, terms in table:
        val = 0.0
        for term in terms:
            val = val + mi(*term)
        cols.append(val)
    return np.column_stack(cols)


def _polytope_from_table(ch: DiscreteIC, d: AuxInputDist, table: Sequence[Constraint]) -> RatePolytope:
    bounds = table_bounds(table, batch_joint(ch, dist_batch_from_aux([d])).mi)
    return RatePolytope(tuple((c1, c2, b) for (c1, c2, _), b in zip(table, bounds[0])))


def polytope_semijoint(ch: DiscreteIC, d: AuxInputDist) -> RatePolytope:
    """Four-constraint polytope of the two-step (semi-joint) decoder."""
    return _polytope_from_table(ch, d, SCHEME_TABLES["semijoint"])


def polytope_hk(ch: DiscreteIC, d: AuxInputDist) -> RatePolytope:
    """Seven-constraint compact superposition/joint-decoding polytope."""
    return _polytope_from_table(ch, d, SCHEME_TABLES["hk"])


def polytope_hk_strong_y2(ch: DiscreteIC, d: AuxInputDist) -> RatePolytope:
    """Five-constraint polytope for strong interference at receiver 2.

    Requires a degenerate W1 layer (the reduced family has none).
    """
    if d.nw1 != 1:
        raise DimensionMismatchError("strong-at-Y2 polytope needs nw1 == 1", nw1=d.nw1)
    return _polytope_from_table(ch, d, SCHEME_TABLES["hk_strong_y2"])


def polytope_one_sided(ch: DiscreteIC, d: AuxInputDist) -> RatePolytope:
    """Three-constraint polytope for channels whose receiver 2 is clean."""
    if is_one_sided(ch) != OneSided.SIDE_A:
        raise NotOneSidedError("channel is not one-sided toward receiver 2")
    if d.nw1 != 1:
        raise DimensionMismatchError("one-sided polytope needs nw1 == 1", nw1=d.nw1)
    return _polytope_from_table(ch, d, SCHEME_TABLES["one_sided"])


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
    """``[B, n_constraints]`` bound matrix for one constraint table."""
    return np.maximum(table_bounds(table, bj.mi), 0.0)


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


def dist_batch_from_aux(dists: Sequence[AuxInputDist]) -> DistBatch:
    return {
        "pw1": np.stack([d.pw1 for d in dists]),
        "pw2": np.stack([d.pw2 for d in dists]),
        "px1w1": np.stack([d.px1_given_w1 for d in dists]),
        "px2w2": np.stack([d.px2_given_w2 for d in dists]),
    }


def product_laws(px1: np.ndarray, px2: np.ndarray) -> DistBatch:
    """Product input laws ``[B, |X1|]`` x ``[B, |X2|]`` with constant W layers."""
    ones = np.ones((px1.shape[0], 1))
    return {"pw1": ones, "px1w1": px1[:, np.newaxis, :], "pw2": ones, "px2w2": px2[:, np.newaxis, :]}


def relayer(batch: DistBatch, side: int, identity: bool = False) -> DistBatch:
    """User ``side``'s W layer replaced at the same X marginal: by a constant
    layer, or by ``W = X`` when ``identity`` is set.

    Both are legal members of any family that holds the batch; the other
    user's layer is kept as it is.
    """
    pw, pxw = f"pw{side}", f"px{side}w{side}"
    px = np.einsum("bw,bwi->bi", batch[pw], batch[pxw])
    B, nx = px.shape
    if identity:
        layer = {pw: px, pxw: np.broadcast_to(np.eye(nx), (B, nx, nx)).copy()}
    else:
        layer = {pw: np.ones((B, 1)), pxw: px[:, np.newaxis, :]}
    return {**batch, **layer}


def common_layers(batch: DistBatch) -> DistBatch:
    """Full common layers ``W1 = X1`` and ``W2 = X2`` at the batch's X marginals."""
    return relayer(relayer(batch, 1, identity=True), 2, identity=True)


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


def layered_family(
    blocks: Sequence[SimplexBlock], cfg: SearchConfig, tag: int
) -> Iterator[DistBatch]:
    """Grid over the layered ``blocks`` + seeded random draws over
    ``P(w1) P(w2) P(x1|w1) P(x2|w2)``."""
    def laws(raw: Mapping[str, np.ndarray]) -> DistBatch:
        return {name: v[:, 0, :] if name.startswith("pw") else v for name, v in raw.items()}

    for _, raw in iter_grid_batches(blocks, CHUNK):
        yield laws(raw)
    if cfg.restarts > 0:
        rng = np.random.default_rng(np.random.SeedSequence([0xFA111E5, cfg.seed, tag]))
        yield laws({b.name: rng.dirichlet(np.ones(b.k), size=(cfg.restarts, b.n_slices))
                    for b in blocks})


def _tin_anchor(ch: DiscreteIC, cfg: SearchConfig, opt: ProductInput | None = None) -> DistBatch:
    """The TIN-optimal product input as a one-law batch.

    ``opt`` is that input when the caller already has it from
    ``tin_sumrate(ch, cfg)``; otherwise it is searched here.
    """
    if opt is None:
        opt, _ = tin_sumrate(ch, cfg)
    return product_laws(opt.px1[np.newaxis, :], opt.px2[np.newaxis, :])


def scheme_family(
    ch: DiscreteIC,
    family: Sequence[Source],
    cfg: SearchConfig,
    anchor: ProductInput | None = None,
) -> Iterator[tuple[DistBatch, tuple[str, ...] | None]]:
    """``(batch, feeds)`` for every member of every law of ``family`` (a
    :data:`FAMILIES` row or a suite's), in order.

    ``anchor`` is the TIN optimum of ``(ch, cfg)`` if the caller has it
    (see :func:`_tin_anchor`).
    """
    for src in family:
        blocks = _source_blocks(ch, src, cfg)
        if src.kind == "anchor":
            laws = [_tin_anchor(ch, cfg, anchor)]
        elif src.kind == "products":
            laws = (product_laws(raw["px1"][:, 0, :], raw["px2"][:, 0, :])
                    for _, raw in iter_grid_batches(blocks, CHUNK))
        else:
            laws = layered_family(blocks, cfg, src.tag)
        for batch in laws:
            derived = {(): batch}  # each chain prefix is re-layered once per batch
            for chain, feeds in src.members:
                for n in range(1, len(chain) + 1):
                    if chain[:n] not in derived:
                        derived[chain[:n]] = relayer(derived[chain[:n - 1]], *chain[n - 1])
                yield derived[chain], feeds


def table_for_scheme(scheme: str) -> tuple[Constraint, ...]:
    return SCHEME_TABLES["semijoint" if scheme == "strong_capacity" else scheme]


def _key_vector(cells: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers that key a row of ``cells`` float64 bit patterns."""
    return np.random.default_rng(0xD15711C7).integers(0, 2**64, cells, dtype=np.uint64) | 1


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one representative per distinct row of ``rows [B, cells]``,
    and how many rows it stands for.

    Rows merge only when every entry is equal under ``==``.  Each row is
    keyed by the wrapping integer product of its bit patterns with
    :func:`_key_vector`, so rows equal bit for bit share a key, and rows
    sorted stably by key are compared exactly with their neighbour.  Should
    two different rows share a key, the rows are sorted by their entries
    instead.  Rows equal only through ``-0.0 == 0.0``, which law grids never
    produce, may stay apart; that costs a repeated score, never a result.
    """
    key = np.ascontiguousarray(rows).view(np.uint64) @ _key_vector(rows.shape[1])
    order = np.argsort(key, kind="stable")
    new = _row_starts(rows[order])
    if (new[1:] & (key[order[1:]] == key[order[:-1]])).any():
        order = np.lexsort(rows.T[::-1])
        new = _row_starts(rows[order])
    starts = np.flatnonzero(new)
    return order[starts], np.diff(starts, append=len(rows))


def union_over_batches(
    ch: DiscreteIC,
    regions: Mapping[str, str],
    batches: Iterable[tuple[DistBatch, Collection[str] | None]],
    angles: int,
    per_batch_hook: (
        Callable[[BatchJoint, Mapping[str, np.ndarray], np.ndarray], None] | None
    ) = None,
) -> dict[str, RateRegion]:
    """Accumulate named regions over one stream of law batches.

    ``regions`` maps each region name to its scheme; several regions may
    share one.  Each batch comes with the names of the regions it feeds,
    ``None`` for every region.
    Law grids repeat input laws, and a law's bounds depend on nothing else,
    so each distinct law of a batch (:func:`distinct_rows`) is scored once;
    ``laws_enumerated`` still counts every law.  Every scheme's bounds are
    computed once per batch, and ``per_batch_hook(bj, bounds, counts)``
    receives the joint of the batch's distinct laws, their bound matrices
    keyed by scheme, and each distinct law's multiplicity in the batch,
    enabling zero-tolerance per-law checks on exactly the laws the regions
    were built from.
    """
    tables = {scheme: table_for_scheme(scheme) for scheme in regions.values()}
    accs = {name: SupportAccumulator(angles) for name in regions}
    laws = dict.fromkeys(regions, 0)
    for batch, feeds in batches:
        full = batch_joint(ch, batch)
        idx, counts = distinct_rows(full.values.reshape(full.batch_size, -1))
        bj = BatchJoint(full.in_names, full.values[idx], ch.law)
        bounds = {scheme: batch_bounds(bj, table) for scheme, table in tables.items()}
        merged = {scheme: merged_dirs_bounds(table, bounds[scheme])
                  for scheme, table in tables.items()}
        # Distinct laws can still share bound rows; the frontier depends only on their set.
        merged = {s: (d, _drop_repeats(b[np.lexsort(b.T)])) for s, (d, b) in merged.items()}
        for name in regions if feeds is None else feeds:
            accs[name].add(*merged[regions[name]])
            laws[name] += full.batch_size
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

GAUSSIAN_SCHEMES = ("tin", "semijoint", "hk_strong_y2", "one_sided")


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
    elif scheme == "semijoint":
        lam1, lam2 = (m.ravel() for m in np.meshgrid(lam, lam, indexing="ij"))
    else:
        lam1, lam2 = 0.0, lam
    bounds = table_bounds(table, split_system(g, lam1, lam2).mi_bits)
    acc = SupportAccumulator(angles)
    acc.add(*merged_dirs_bounds(table, bounds))
    return acc.finalize({
        "scheme": scheme, "splits": splits, "angles": angles, "gaussian": True,
    })
