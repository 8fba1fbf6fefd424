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
computed the values.  Where the objective does not see some blocks' labels,
the grid scan visits one canonical point per relabelling orbit, in the order
of each orbit's first raw grid point, so ties go to the first canonical point
in raw-grid order.  The grid scan visits each chunk by its values snapped to
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
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, SizeLimitError
from .probtensor import KernelCache

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
    ``|X_i| + 1`` and ``|X_own|`` (enough, by Caratheodory) when left
    unset.  ``max_candidates`` bounds every full grid enumeration, searches
    and region product grids alike; blocks are coarsened (largest first) to
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", seed=self.seed)
        if self.aux_card_w is not None and self.aux_card_w < 1:
            raise ConfigError("aux_card_w must be >= 1", aux_card_w=self.aux_card_w)
        if self.aux_card_u is not None and self.aux_card_u < 1:
            raise ConfigError("aux_card_u must be >= 1", aux_card_u=self.aux_card_u)
        if not (math.isfinite(self.violation_tol) and self.violation_tol > 0):
            raise ConfigError("violation_tol must be finite and > 0",
                              violation_tol=self.violation_tol)
        if self.angles < 2:
            raise ConfigError("angles must be >= 2", angles=self.angles)
        if self.max_candidates < 1:
            raise ConfigError("max_candidates must be >= 1", max_candidates=self.max_candidates)

    def card_w(self, nx: int) -> int:
        return self.aux_card_w if self.aux_card_w is not None else nx + 1

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
    """Points of the blocks' product grid, counted as :func:`simplex_grid`
    states them, without building a grid."""
    return math.prod(math.comb(b.steps + b.k - 1, b.k - 1) ** b.n_slices for b in blocks)


def shrink_to_budget(blocks: Sequence[SimplexBlock], budget: int) -> list[SimplexBlock]:
    """Halve the step count of the widest block until the grid fits ``budget``.

    The returned blocks keep their order; effective resolutions may differ
    from the requested ones and are reported through ``SearchResult``.
    Raises :class:`SizeLimitError` when even one step per block overshoots.
    """
    out = list(blocks)
    while grid_size(out) > budget:
        sizes = [grid_size([b]) for b in out]
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


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before them."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return new


def _key_vector(cells: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers that key a row of ``cells`` float64 bit patterns."""
    return np.random.default_rng(0xD15711C7).integers(0, 2**64, cells, dtype=np.uint64) | 1


def distinct_rows(rows: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first of each distinct row of ``rows [B, cells]``, in
    no particular order, and the summed ``weights`` of the rows it stands
    for (by default, how many rows it stands for).

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
    if weights is None:
        weights = np.ones(len(rows), dtype=np.int64)
    return order[starts], np.add.reduceat(weights[order], starts)


class Table(NamedTuple):
    """One factor of a product (:func:`product_batches`): ``m`` rows of the
    named values ``columns[name] [m, ...]`` and each row's ``counts`` (how
    many points it stands for)."""

    columns: Mapping[str, np.ndarray]
    counts: np.ndarray


def product_batches(tables: Sequence[Table], chunk: int) -> Iterator[tuple[Point, np.ndarray]]:
    """``(batch, counts)`` over the product of ``tables``, in batches of at
    most ``chunk`` rows, earlier tables varying slowest.

    ``batch[name]`` gathers each row's values from the table that holds
    ``name``; tables that share a name (the slices of one block) are laid
    side by side along axis 1, in table order.  A row's count is the product
    of its tables' counts.  The product is never built whole.
    """
    sizes = [len(t.counts) for t in tables]
    total = math.prod(sizes)
    for start in range(0, total, chunk):
        rows = np.unravel_index(np.arange(start, min(start + chunk, total)), sizes)
        parts: dict[str, list[np.ndarray]] = {}
        for t, r in zip(tables, rows):
            for name, v in t.columns.items():
                parts.setdefault(name, []).append(v[r])
        batch = {name: p[0] if len(p) == 1 else np.concatenate(p, axis=1) for name, p in parts.items()}
        yield batch, math.prod(t.counts[r] for t, r in zip(tables, rows))


def _slice_tables(blocks: Sequence[SimplexBlock]) -> list[Table]:
    """One table per slice of ``blocks``, over its simplex grid, each row counted once."""
    grids = [(b, simplex_grid(b.k, b.steps)) for b in blocks]
    return [Table({b.name: g[:, np.newaxis]}, np.ones(len(g), dtype=np.int64))
            for b, g in grids for _ in range(b.n_slices)]


def _label_keys(batch: Point, blocks: Sequence[SimplexBlock]) -> np.ndarray:
    """Each point of ``batch`` over the label ``blocks`` as one key row per
    label ``[B, n, cells]``, the labels in canonical order.

    A label's key is its column of the first block, then its slice of every
    later block.  When the first block is one slice (a law of the labels),
    the later blocks' slices at labels of zero mass carry no weight, and are
    first set to their block's first grid point.
    """
    head, *tail = blocks
    rows = [batch[b.name] for b in tail]
    if head.n_slices == 1:
        massless = batch[head.name][:, 0, :, np.newaxis] == 0.0
        rows = [np.where(massless, simplex_grid(b.k, b.steps)[0], r) for b, r in zip(tail, rows)]
    keys = np.concatenate([np.swapaxes(batch[head.name], 1, 2), *rows], axis=2)
    w, x = canonical_layers(keys[:, :, 0], keys[:, :, 1:])
    return np.concatenate([w[:, :, np.newaxis], x], axis=2)


def _table_bytes(t: Table) -> int:
    return sum(a.nbytes for a in (*t.columns.values(), t.counts))


#: Byte budget of the canonical tables kept by :func:`canonical_table`.
_TABLE_BUDGET = 16 << 20
_canonical_tables = KernelCache(_table_bytes, _TABLE_BUDGET)


def canonical_table(blocks: Sequence[SimplexBlock]) -> Table:
    """The grid over the label ``blocks`` modulo relabelling, as one table:
    one row per orbit, each block ``[m, n_slices, k]`` with its labels in
    canonical order (:func:`_label_keys`), counted by the orbit's size.

    Orbits come in the order of their first raw grid point.  Tables are
    kept per block tuple, read-only, in a :class:`probtensor.KernelCache`
    of ``_TABLE_BUDGET`` bytes.
    """
    key = tuple(blocks)
    return _canonical_tables.get(key, lambda: _build_canonical_table(key))


def _build_canonical_table(blocks: Sequence[SimplexBlock]) -> Table:
    """:func:`canonical_table`, uncached and read-only.  Each ``CHUNK`` batch of the raw
    grid (:func:`product_batches` over the slice tables) is reduced to its
    distinct keys, with their counts, before the batches are merged, so the
    raw grid is never held whole.  Orbits are ordered by the raw position
    of their first point, each batch's positions offset by the rows before it."""
    keys, firsts, counts, offset = [], [], [], 0
    for batch, ones in product_batches(_slice_tables(blocks), CHUNK):
        rows = _label_keys(batch, blocks).reshape(len(ones), -1)
        keep, count = distinct_rows(rows)
        keys.append(rows[keep])
        firsts.append(offset + keep)
        counts.append(count)
        offset += len(rows)
    rows, first = np.concatenate(keys), np.concatenate(firsts)
    keep, count = distinct_rows(rows, np.concatenate(counts))
    order = np.argsort(first[keep])
    keys = rows[keep[order]].reshape(len(keep), blocks[0].k, -1)
    cuts = np.cumsum([blocks[0].n_slices] + [b.k for b in blocks[1:-1]])
    columns = dict(zip([b.name for b in blocks], np.split(keys, cuts, axis=2)))
    columns[blocks[0].name] = np.swapaxes(columns[blocks[0].name], 1, 2)
    table = Table(columns, count[order])
    for a in (*table.columns.values(), table.counts):
        a.setflags(write=False)
    return table


def iter_grid_batches(
    blocks: Sequence[SimplexBlock], chunk: int = CHUNK, labels: Sequence[str] = ()
) -> Iterator[tuple[np.ndarray, Point]]:
    """Yield ``(counts, point_batch)`` over the full product grid.

    ``point_batch[name]`` has shape ``[B, n_slices, k]``.  The grid is the
    product (:func:`product_batches`) of one table per slice of every block,
    so points run lexicographically: earlier blocks (and earlier slices
    within a block) vary slowest.  ``counts [B]`` is how many raw grid
    points each point stands for: its orbit's size, or 1 without ``labels``.

    ``labels`` names adjacent blocks, in block order, whose labels the
    objective does not see: the first block's columns are the labels, and
    every later one has one slice per label (its rows are conditioned on
    the label).  Their slice tables are then replaced by one table, the
    label blocks' :func:`canonical_table`: the scan visits one canonical
    point per orbit of the grid under relabelling, in the order of the
    orbit's first raw grid point, counted by the orbit's size.  Points of
    the remaining blocks are unchanged.
    """
    i = [b.name for b in blocks].index(labels[0]) if labels else len(blocks)
    j = i + len(labels)
    label_table = [canonical_table(blocks[i:j])] if labels else []
    tables = _slice_tables(blocks[:i]) + label_table + _slice_tables(blocks[j:])
    for batch, counts in product_batches(tables, chunk):
        yield counts, batch


def canonical_layers(pw: np.ndarray, pxw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's layer values ``pw [B, n]`` with their conditionals
    ``pxw [B, n, k]`` put in one canonical order of the labels.

    Values run by non-increasing ``pw``, ties by their ``pxw`` rows in
    descending lexicographic order, so every relabelling of a row's values
    gives the same row bit for bit; identical ``(pw, pxw)`` pairs are
    interchangeable.  One stable sort per batch (``np.lexsort`` along the
    label axis, least significant key first), then one gather per array.
    """
    keys = np.concatenate([-np.moveaxis(pxw, 2, 0)[::-1], -pw[np.newaxis]])
    order = np.lexsort(keys, axis=-1)
    return (np.take_along_axis(pw, order, axis=1),
            np.take_along_axis(pxw, order[:, :, np.newaxis], axis=1))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``v`` (shape ``[..., k]``) onto
    the probability simplex; a 1-D vector is the single-row case."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    k = v.shape[-1]
    rho = k - 1 - np.argmax((u * np.arange(1, k + 1) > css)[..., ::-1], axis=-1)
    rho = rho.reshape(-1)
    theta = css.reshape(-1, k)[np.arange(rho.size), rho] / (rho + 1.0)
    return np.maximum(v - theta.reshape(*v.shape[:-1], 1), 0.0)


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
    at that coordinate, the moved row projected back onto its simplex.  The
    active starts' moves are scored in one objective call, in start order,
    or in groups of starts that fit ``chunk`` rows (at least one start per
    call).  Returns ``(value, point)`` per start, in start order; each start
    takes exactly the steps it would take alone.

    Every start's point is held as one array ``[start, row, max k]``, one
    row per slice of every block in block order, rows of narrower blocks
    padded with ``-inf``.  So one gather builds all moved rows of a group,
    and they go through one :func:`project_simplex` call.  The padding
    changes no bit: the descending sort puts it last, so the cumulative sum
    over the real entries is unchanged; ``u·i > css`` is False on it
    (``-inf > -inf``) and True on the first entry, so ``rho`` stays among
    the real entries; and the padding is reset to ``-inf`` after the call.
    """
    width = max(b.k for b in blocks)
    spans, offset = [], 0  # each block's rows
    for b in blocks:
        spans.append(slice(offset, offset + b.n_slices))
        offset += b.n_slices
    points = np.full((len(starts), offset, width), -np.inf)
    for b, span in zip(blocks, spans):
        points[:, span, :b.k] = [s[b.name].reshape(b.shape) for s in starts]

    def point(a: np.ndarray) -> Point:
        """``a [..., row, max k]`` as one ``[..., n_slices, k]`` view per block."""
        return {b.name: a[..., span, :b.k] for b, span in zip(blocks, spans)}

    best = np.array([_score(objective, blocks, point(p)) for p in points])
    step = np.full(len(starts), ASCENT_STEP)
    # Each move's row, coordinate and sign, and the padding of its row.
    parts = []
    for b, span in zip(blocks, spans):
        m = np.arange(2 * b.n_slices * b.k)
        parts.append((span.start + m // (2 * b.k), m // 2 % b.k, np.where(m % 2 == 0, 1.0, -1.0),
                      np.tile(np.arange(width) >= b.k, (m.size, 1))))
    src, coord, sign, pad = map(np.concatenate, zip(*parts))
    total = src.size
    moves = np.arange(total)
    per_call = max(1, chunk // total)
    active = np.arange(len(starts))
    for _ in range(ASCENT_ITERS):
        for group in [active[i:i + per_call] for i in range(0, active.size, per_call)]:
            rows = points[group[:, None], src]
            rows[:, moves, coord] += sign * step[group, None]
            rows = project_simplex(rows)
            np.copyto(rows, -np.inf, where=pad)
            moved = np.repeat(points[group, None], total, axis=1)
            moved[:, moves, src] = rows
            batch = {n: a.reshape(-1, *a.shape[2:]) for n, a in point(moved).items()}
            values = np.asarray(objective(batch), dtype=np.float64).reshape(group.size, total)
            k = np.argmax(values >= values.max(axis=1, keepdims=True) - IMPROVE_EPS, axis=1)
            top = values[np.arange(group.size), k]
            up = top > best[group] + IMPROVE_EPS
            points[group[up]] = moved[up, k[up]]
            best[group[up]] = top[up]
            step[group[~up]] *= 0.5
        active = active[step[active] >= ASCENT_MIN_STEP]
        if active.size == 0:
            break
    return [(float(v), {n: a.copy() for n, a in point(p).items()}) for v, p in zip(best, points)]


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
    labels: Sequence[str] = (),
    chunk: int = CHUNK,
) -> SearchResult:
    """Grid scan + multistart refinement; returns the best point found and
    its value scored alone, which re-evaluation reproduces exactly.

    The grid is coarsened to ``cfg.max_candidates``, and ``cfg.restarts``
    random starts are drawn from ``cfg.seed``.  ``extra_candidates`` (for
    example, witnesses from an earlier lower resolution run) are both
    re-scored and used as ascent starts, so the returned value never falls
    below a re-tested prior witness.  ``labels`` names blocks whose labels
    the objective does not see (see :func:`iter_grid_batches`); the scan
    then scores one canonical point per orbit, and ``n_evaluated`` counts
    those points.  The budget still counts the raw grid.
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

    for counts, batch in iter_grid_batches(eff_blocks, chunk, labels):
        values = np.asarray(objective(batch), dtype=np.float64)
        n_evaluated += counts.size
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
