"""Deterministic global search over products of probability simplices.

The search space is a list of :class:`SimplexBlock` values; every block is a
stack of ``n_slices`` independent simplices of dimension ``k`` (a marginal is
a block with one slice, a conditional has one slice per conditioning index).

Strategy: exhaustively score a composition grid (step ``1/steps`` per block),
then refine with projected coordinate ascent (step halving, bounded
iterations) from the best grid point, from caller-supplied prior candidates,
and from seeded random restarts.  The starts ascend in lockstep: each
iteration scores the moves of every start still ascending in one objective
call (in groups that fit the chunk), and each start takes the same steps it
would take alone.  Everything is deterministic for a fixed seed.

Ties go to the first candidate in enumeration order, whatever evaluator
computed the values: the grid scan visits each chunk by its values snapped to
12 decimals (``np.round(values, 12)``, stable order), the ascent takes the
first proposal within ``IMPROVE_EPS`` of the best proposal, and a candidate
replaces the best only when it exceeds it by more than ``IMPROVE_EPS``.
Values that differ in the last bits, as batched and single evaluations of one
point may, thus select the same point.  The returned ``value`` is the
objective re-scored alone (batch size 1) at the returned point, so
re-evaluating that point reproduces it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SizeLimitError

#: Default number of candidate points evaluated per vectorized chunk.
CHUNK = 4096

#: Improvement below this is treated as a tie (keeps earlier candidate).
IMPROVE_EPS = 1e-13

#: Coordinate ascent: at most ``ASCENT_ITERS`` iterations; the step starts at
#: ``ASCENT_STEP`` and halves after each iteration without improvement, the
#: ascent stopping once it falls below ``ASCENT_MIN_STEP``.
ASCENT_ITERS = 50
ASCENT_STEP = 0.5
ASCENT_MIN_STEP = 1e-7

#: Near optima: up to ``MAX_NEAR`` distinct points within ``NEAR_TOL`` of the best.
NEAR_TOL = 1e-9
MAX_NEAR = 16

Objective = Callable[[Mapping[str, np.ndarray]], np.ndarray]
Point = dict[str, np.ndarray]


@dataclass(frozen=True)
class SearchConfig:
    """Resolution and determinism knobs shared by all searches.

    ``grid_steps`` controls marginal simplices, ``cond_grid_steps``
    conditional ones.  ``aux_card_w`` / ``aux_card_u`` default to
    ``|X_i| + 1`` and ``|X1|*|X2|`` when left unset.  ``max_candidates``
    bounds every full grid enumeration, searches and region product grids
    alike; blocks are coarsened (largest first) to fit, and the effective
    resolution is reported alongside every result.
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", seed=self.seed)
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
        return asdict(self)


@dataclass(frozen=True)
class SimplexBlock:
    name: str
    n_slices: int
    k: int
    steps: int

    def __post_init__(self) -> None:
        if self.n_slices < 1 or self.k < 1 or self.steps < 1:
            raise ConfigError(
                "block needs n_slices, k, steps >= 1",
                block=self.name,
                n_slices=self.n_slices,
                k=self.k,
                steps=self.steps,
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_slices, self.k)


@lru_cache(maxsize=256)
def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All points of the simplex with coordinates that are multiples of 1/steps.

    Shape ``[m, k]`` with ``m = C(steps + k - 1, k - 1)``, ordered
    lexicographically by descending composition (first point is the vertex
    ``e_1``). Doubling ``steps`` yields a superset of the coarser grid.
    """

    def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    rows = np.array(list(compositions(steps, k)), dtype=np.float64) / float(steps)
    rows.setflags(write=False)
    return rows


def grid_size(blocks: Sequence[SimplexBlock]) -> int:
    total = 1
    for b in blocks:
        total *= simplex_grid(b.k, b.steps).shape[0] ** b.n_slices
    return total


def shrink_to_budget(blocks: Sequence[SimplexBlock], budget: int) -> list[SimplexBlock]:
    """Halve the step count of the widest block until the grid fits ``budget``.

    The returned blocks keep their order; effective resolutions may differ
    from the requested ones and are reported through ``SearchResult``.
    Raises :class:`SizeLimitError` when even one step per block overshoots.
    """
    out = list(blocks)
    while grid_size(out) > budget:
        sizes = [simplex_grid(b.k, b.steps).shape[0] ** b.n_slices for b in out]
        i = int(np.argmax(sizes))
        b = out[i]
        if b.steps == 1:
            others = [j for j in range(len(out)) if j != i and out[j].steps > 1]
            if not others:
                raise SizeLimitError(
                    "search grid exceeds the candidate budget at one step per block; "
                    "lower the auxiliary cardinality (--aux-u / --aux-w) or raise max_candidates",
                    blocks=[blk.name for blk in out],
                    smallest_grid=grid_size(out),
                    budget=budget,
                )
            i = max(others, key=lambda j: sizes[j])
            b = out[i]
        out[i] = SimplexBlock(b.name, b.n_slices, b.k, max(1, b.steps // 2))
    return out


def iter_grid_batches(
    blocks: Sequence[SimplexBlock], chunk: int = CHUNK
) -> Iterator[tuple[np.ndarray, Point]]:
    """Yield ``(flat_indices, point_batch)`` over the full product grid.

    ``point_batch[name]`` has shape ``[B, n_slices, k]``.  Flat indices run
    lexicographically: earlier blocks (and earlier slices within a block)
    vary slowest.
    """
    tables: list[np.ndarray] = []
    owners: list[tuple[int, int]] = []  # (block index, slice index) per axis
    for bi, b in enumerate(blocks):
        table = simplex_grid(b.k, b.steps)
        for s in range(b.n_slices):
            tables.append(table)
            owners.append((bi, s))
    radices = np.array([t.shape[0] for t in tables], dtype=np.int64)
    total = int(np.prod(radices))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        batch: Point = {
            b.name: np.empty((idx.size, b.n_slices, b.k), dtype=np.float64) for b in blocks
        }
        rem = idx.copy()
        for axis in range(len(tables) - 1, -1, -1):
            rows = rem % radices[axis]
            rem //= radices[axis]
            bi, s = owners[axis]
            batch[blocks[bi].name][:, s, :] = tables[axis][rows]
        yield idx, batch


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``v`` (shape ``[..., k]``) onto
    the probability simplex; a 1-D vector is the single-row case."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    k = v.shape[-1]
    rho = k - 1 - np.argmax((u * np.arange(1, k + 1) > css)[..., ::-1], axis=-1)
    theta = np.take_along_axis(css, rho[..., None], axis=-1) / (rho[..., None] + 1.0)
    return np.maximum(v - theta, 0.0)


def _score(objective: Objective, blocks: Sequence[SimplexBlock], point: Point) -> float:
    """The objective at one point, scored alone (batch size 1)."""
    batch = {b.name: np.array(point[b.name], dtype=np.float64).reshape(1, *b.shape) for b in blocks}
    return float(np.asarray(objective(batch), dtype=np.float64)[0])


def _ascend(
    objective: Objective, blocks: Sequence[SimplexBlock], starts: Sequence[Point], chunk: int = CHUNK
) -> list[tuple[float, Point]]:
    """Projected coordinate ascent with step halving from every start at once.

    Each start keeps its own point, best value and step; all of them share
    the ``ASCENT_ITERS`` counter, and a start drops out once its step falls
    below ``ASCENT_MIN_STEP``.  An iteration builds every move of every
    active start: per block, slice and coordinate, ``+step`` then ``-step``
    at that coordinate, the moved row projected back onto its simplex (one
    projection call per block).  The active starts' moves are scored in one
    objective call, in start order, or in groups of starts that fit ``chunk``
    rows (at least one start per call).  Returns ``(value, point)`` per start,
    in start order; each start takes exactly the steps it would take alone.
    """
    points = {b.name: np.stack([s[b.name].reshape(b.shape) for s in starts]) for b in blocks}
    best = np.array([_score(objective, blocks, {n: a[i] for n, a in points.items()})
                     for i in range(len(starts))])
    step = np.full(len(starts), ASCENT_STEP)
    sizes = [2 * b.n_slices * b.k for b in blocks]
    total = sum(sizes)
    per_call = max(1, chunk // total)
    active = np.arange(len(starts))
    for _ in range(ASCENT_ITERS):
        for group in np.split(active, range(per_call, active.size, per_call)):
            moved = {b.name: np.repeat(points[b.name][group, None], total, axis=1) for b in blocks}
            offset = 0
            for b, size in zip(blocks, sizes):
                moves = np.arange(size)
                sign = np.where(moves % 2 == 0, 1.0, -1.0)
                rows = np.repeat(points[b.name][group], 2 * b.k, axis=1)
                rows[:, moves, moves // 2 % b.k] += sign * step[group, None]
                moved[b.name][:, offset + moves, moves // (2 * b.k)] = project_simplex(rows)
                offset += size
            batch = {n: a.reshape(-1, *a.shape[2:]) for n, a in moved.items()}
            values = np.asarray(objective(batch), dtype=np.float64).reshape(group.size, total)
            k = np.argmax(values >= values.max(axis=1, keepdims=True) - IMPROVE_EPS, axis=1)
            top = values[np.arange(group.size), k]
            up = top > best[group] + IMPROVE_EPS
            for n, a in moved.items():
                points[n][group[up]] = a[up, k[up]]
            best[group[up]] = top[up]
            step[group[~up]] *= 0.5
        active = active[step[active] >= ASCENT_MIN_STEP]
        if active.size == 0:
            break
    return [(float(best[i]), {n: a[i].copy() for n, a in points.items()}) for i in range(len(starts))]


@dataclass
class SearchResult:
    value: float
    point: Point
    grid_value: float
    n_evaluated: int
    effective_steps: dict[str, int]
    near_optima: list[tuple[float, Point]] = field(default_factory=list)


def maximize(
    objective: Objective,
    blocks: Sequence[SimplexBlock],
    cfg: SearchConfig,
    *,
    extra_candidates: Iterable[Point] = (),
    chunk: int = CHUNK,
) -> SearchResult:
    """Grid scan + multistart refinement; returns the best point found and
    its value scored alone, which re-evaluation reproduces exactly.

    The grid is coarsened to ``cfg.max_candidates``, and ``cfg.restarts``
    random starts are drawn from ``cfg.seed``.  ``extra_candidates`` (for
    example, witnesses from an earlier lower resolution run) are both
    re-scored and used as ascent starts, so the returned value never falls
    below a re-tested prior witness.
    """
    eff_blocks = shrink_to_budget(blocks, cfg.max_candidates)
    n_evaluated = 0

    best_val = -math.inf
    best_point: Point | None = None
    near: list[tuple[float, Point]] = []

    def consider(value: float, point: Point) -> None:
        nonlocal best_val, best_point
        if value > best_val + IMPROVE_EPS:
            best_val = value
            best_point = point
        if value >= best_val - NEAR_TOL:
            near.append((value, point))
            near[:] = [nv for nv in near if nv[0] >= best_val - NEAR_TOL][-MAX_NEAR:]

    for idx, batch in iter_grid_batches(eff_blocks, chunk):
        values = np.asarray(objective(batch), dtype=np.float64)
        n_evaluated += idx.size
        order = np.argsort(-np.round(values, 12), kind="stable")
        for k in order[:MAX_NEAR]:
            if values[k] < best_val - NEAR_TOL:
                break
            consider(float(values[k]), {b.name: batch[b.name][k].copy() for b in eff_blocks})

    assert best_point is not None, "grid is never empty"
    grid_value = best_val

    starts: list[Point] = [best_point]
    for cand in extra_candidates:
        point = {b.name: np.asarray(cand[b.name], dtype=np.float64) for b in eff_blocks}
        consider(_score(objective, eff_blocks, point), point)
        n_evaluated += 1
        starts.append(point)
    rng = np.random.default_rng(np.random.SeedSequence([0x5EA2C4, cfg.seed]))
    for _ in range(cfg.restarts):
        starts.append({b.name: rng.dirichlet(np.ones(b.k), size=b.n_slices) for b in eff_blocks})

    for value, point in _ascend(objective, eff_blocks, starts, chunk):
        consider(value, point)

    near_sorted = sorted(
        (nv for nv in near if nv[0] >= best_val - NEAR_TOL),
        key=lambda nv: -nv[0],
    )
    deduped: list[tuple[float, Point]] = []
    seen: set[tuple[bytes, ...]] = set()
    for value, point in near_sorted:
        key = tuple(np.round(point[b.name], 12).tobytes() for b in eff_blocks)
        if key not in seen:
            seen.add(key)
            deduped.append((value, point))
        if len(deduped) >= MAX_NEAR:
            break

    assert best_point is not None
    return SearchResult(
        value=_score(objective, eff_blocks, best_point),
        point=best_point,
        grid_value=grid_value,
        n_evaluated=n_evaluated,
        effective_steps={b.name: b.steps for b in eff_blocks},
        near_optima=deduped,
    )
