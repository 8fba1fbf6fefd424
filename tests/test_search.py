import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrates import SearchConfig, random_channel, random_coupling
from icrates import regions, search
from icrates.errors import SizeLimitError
from icrates.probtensor import KernelCache
from icrates.regimes import OBJECTIVES, objective
from icrates.search import (
    IMPROVE_EPS,
    SimplexBlock,
    canonical_layers,
    grid_size,
    iter_grid_batches,
    maximize,
    project_simplex,
    shrink_to_budget,
    simplex_grid,
)
from tests.conftest import canonical_layers_loop, label_images


def test_simplex_grid_counts():
    assert simplex_grid(2, 4).shape == (5, 2)
    assert simplex_grid(3, 4).shape == (math.comb(6, 2), 3)
    rows = simplex_grid(3, 5)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0)
    assert rows.min() >= 0.0


def test_grid_nesting_on_doubling():
    coarse = {tuple(r) for r in np.round(simplex_grid(2, 4), 12)}
    fine = {tuple(r) for r in np.round(simplex_grid(2, 8), 12)}
    assert coarse <= fine


def test_project_simplex():
    v = np.array([0.4, 0.9, -0.1])
    p = project_simplex(v)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.min() >= 0.0
    q = project_simplex(np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(q, [0.2, 0.3, 0.5], atol=1e-12)


def scalar_projection(v):
    """One row's projection, as the batched ``project_simplex`` must give it."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / float(rho + 1)
    return np.maximum(v - theta, 0.0)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_batched_projection_equals_scalar_rows(k):
    rng = np.random.default_rng(k)
    on_simplex = rng.dirichlet(np.ones(k), size=4)
    negative = rng.normal(size=(5, k))
    tied = np.array([np.full(k, 0.3), np.full(k, 1.0 / k), np.where(np.arange(k) % 2 == 0, -0.25, 0.6)])
    # The ascent's own moves: +step then -step at each coordinate of a point.
    moves = np.concatenate([np.concatenate([p + step * np.eye(k), p - step * np.eye(k)])
                            for p in on_simplex for step in (0.5, 0.125, 2.0**-23)])
    rows = np.concatenate([on_simplex, negative, tied, moves])
    want = np.stack([scalar_projection(r) for r in rows])
    assert (project_simplex(rows) == want).all()
    assert (project_simplex(rows.reshape(2, -1, k)) == want.reshape(2, -1, k)).all()
    assert (project_simplex(rows[5]) == want[5]).all()



@pytest.mark.parametrize("seed", range(6))
def test_one_padded_projection_equals_the_per_block_calls(seed):
    # The ascent projects the moved rows of all blocks in one call, narrower
    # blocks padded with -inf up to the widest k; every real entry must come
    # out as the block's own call gives it.
    rng = np.random.default_rng(seed)
    shapes = [(int(rng.integers(1, 4)), int(k)) for k in rng.permutation(4) + 1]
    group = 3
    per_block = []
    for n_slices, k in shapes:
        rows = np.repeat(rng.dirichlet(np.ones(k), size=(group, n_slices)), 2 * k, axis=1)
        m = np.arange(2 * n_slices * k)
        # Steps past the simplex push moved coordinates below 0 and above 1.
        step = rng.choice([0.5, 1.5, 3.0, 2.0**-23], size=(group, 1))
        rows[:, m, m // 2 % k] += np.where(m % 2 == 0, 1.0, -1.0) * step
        per_block.append(rows)
    width = max(k for _, k in shapes)
    padded = np.full((group, sum(r.shape[1] for r in per_block), width), -np.inf)
    offsets = np.cumsum([0] + [r.shape[1] for r in per_block])
    for rows, start in zip(per_block, offsets):
        padded[:, start:start + rows.shape[1], :rows.shape[2]] = rows
    got = project_simplex(padded)
    for rows, start in zip(per_block, offsets):
        assert (got[:, start:start + rows.shape[1], :rows.shape[2]] == project_simplex(rows)).all()

#: Layer entries on a coarse lattice (ties are common) mixed with arbitrary floats.
_ENTRY = st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0.0, 1.0))


@st.composite
def layer_batches(draw):
    """``pw [B, n]`` and ``pxw [B, n, k]``: grid rows (simplex-grid points,
    massless values' rows zeroed) or free rows, some with the last value's
    mass, or its whole pair, tied to the first's."""
    B, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        steps = draw(st.integers(1, 4))

        def pick(grid, size):
            return grid[draw(st.lists(st.integers(0, len(grid) - 1), min_size=size, max_size=size))]

        pw = pick(simplex_grid(n, steps), B)
        pxw = np.where(pw[:, :, None] > 0.0, pick(simplex_grid(k, steps), B * n).reshape(B, n, k), 0.0)
    else:
        size = B * n * (k + 1)
        free = np.array(draw(st.lists(_ENTRY, min_size=size, max_size=size))).reshape(B, n, k + 1)
        pw, pxw = free[:, :, 0].copy(), free[:, :, 1:].copy()
    tie = draw(st.sampled_from(["none", "mass", "pair"]))
    if tie != "none":
        pw[:, -1] = pw[:, 0]
    if tie == "pair":
        pxw[:, -1] = pxw[:, 0]
    return pw, pxw


def _pairs(pw, pxw):
    return sorted(zip(pw.tolist(), map(tuple, pxw.tolist())))


@settings(max_examples=300, deadline=None)
@given(layers=layer_batches())
def test_canonical_layers_pick_one_order_per_relabelling(layers):
    pw, pxw = layers
    w, x = canonical_layers(pw, pxw)
    # The batched sort equals Python's sorted, row by row.
    want_w, want_x = canonical_layers_loop(pw, pxw)
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(x, want_x)
    # It permutes each row's (pw, px|w row) pairs ...
    for b in range(len(pw)):
        assert _pairs(w[b], x[b]) == _pairs(pw[b], pxw[b])
    # ... is idempotent ...
    again = canonical_layers(w, x)
    assert (again[0] == w).all() and (again[1] == x).all()
    # ... and every relabelling of W gives the same canonical row.
    for perm in itertools.permutations(range(pw.shape[1])):
        got = canonical_layers(pw[:, perm], pxw[:, perm])
        assert (got[0] == w).all() and (got[1] == x).all()


LABELLED = [name for name, (layout, _) in OBJECTIVES.items() if layout.labels]


def _label_blocks(name, ch, cfg):
    """The blocks and label names of a labelled objective's layout, or of
    user 1's side of a layered region grid (``"side"``: ``pw1``, ``px1w1``)."""
    if name == "side":
        return regions._layer_blocks(ch, cfg, cfg.card_w(ch.nx1))[:2], ("pw1", "px1w1")
    layout = OBJECTIVES[name][0]
    return layout.blocks(ch, cfg), layout.labels


def _label_rows(batch, blocks):
    """Each point of ``batch`` as one key row per label ``[B, n, cells]``: its
    column of the first block, then its slice of every later block."""
    head, *tail = blocks
    return np.concatenate([np.swapaxes(batch[head.name], 1, 2), *(batch[b.name] for b in tail)], axis=2)


@pytest.mark.parametrize("name", [*LABELLED, "side"])
@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2)])
def test_label_scan_visits_one_canonical_point_per_orbit(name, shape):
    cfg = SearchConfig(grid_steps=2, cond_grid_steps=2, restarts=0, aux_card_w=3, aux_card_u=2)
    ch = random_channel(11, shape)
    blocks, labels = _label_blocks(name, ch, cfg)
    assert grid_size(blocks) <= cfg.max_candidates

    def keys(batch):
        return [tuple(batch[b.name][k].tobytes() for b in blocks) for k in range(len(batch[blocks[0].name]))]

    first = {}  # loop-oracle image of each raw grid point -> [first raw position, orbit size]
    raw = (key for _, batch in iter_grid_batches(blocks) for key in keys(label_images(batch, blocks, labels)))
    for i, key in enumerate(raw):
        first.setdefault(key, [i, 0])[1] += 1
    got, got_counts = [], []
    for counts, batch in iter_grid_batches(blocks, labels=labels):
        got += keys(batch)
        got_counts += counts.tolist()
    assert len(set(got)) == len(got) < grid_size(blocks)
    assert set(got) == set(first)
    positions = [first[key][0] for key in got]
    assert positions == sorted(positions)
    assert got_counts == [first[key][1] for key in got]

    # The table behind the scan: one row per orbit of the label blocks' own
    # grid, the loop image of the orbit's first raw point, in the order of
    # those points, with the orbit's size.
    label_blocks = [b for b in blocks if b.name in labels]
    orbits = {}  # loop image -> [first raw position, size]
    images = (image for _, batch in iter_grid_batches(label_blocks)
              for image in _label_rows(label_images(batch, label_blocks, labels), label_blocks))
    for i, image in enumerate(images):
        orbits.setdefault(image.tobytes(), [i, 0])[1] += 1
    table = search.canonical_table(label_blocks)
    assert table.counts.sum() == grid_size(label_blocks)
    rows = _label_rows(table.columns, label_blocks)
    assert [(row.tobytes(), c) for row, c in zip(rows, table.counts.tolist())] \
        == [(image, c) for image, (_, c) in sorted(orbits.items(), key=lambda t: t[1][0])]

    if name == "side":
        return
    law = random_coupling(ch, 2, 2, seed=1).joint_law if name.startswith("genie") else ch.law
    score = objective(name, law)
    raw_max = max(float(score(batch).max()) for _, batch in iter_grid_batches(blocks))
    res = maximize(score, blocks, cfg, labels=labels)
    assert abs(res.grid_value - raw_max) <= 1e-12
    assert res.n_evaluated == len(got)


def test_canonical_tables_are_kept_per_block_tuple(monkeypatch):
    # The tables share the kernels' cache and its eviction rule.
    assert isinstance(search._canonical_tables, KernelCache)
    assert search._canonical_tables.budget == search._TABLE_BUDGET
    monkeypatch.setattr(search, "_canonical_tables", KernelCache(search._table_bytes, search._TABLE_BUDGET))
    blocks = [SimplexBlock("pw", 1, 3, 4), SimplexBlock("px_own", 3, 2, 2)]
    first = search.canonical_table(blocks)
    assert search.canonical_table(tuple(blocks)) is first
    arrays = [*first.columns.values(), first.counts]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        first.counts[0] = 0
    assert search._canonical_tables.nbytes == sum(a.nbytes for a in arrays)
    # Past the budget the oldest table goes first; the newest stays alone.
    search._canonical_tables.budget = 1
    other = search.canonical_table([SimplexBlock("pw", 1, 2, 4), SimplexBlock("px_own", 2, 2, 2)])
    assert [t is other for t in search._canonical_tables._entries.values()] == [True]
    assert search.canonical_table(blocks) is not first


def test_shrink_to_budget_reduces_largest_block():
    blocks = [SimplexBlock("a", 4, 4, 4), SimplexBlock("b", 1, 2, 8)]
    assert grid_size(blocks) > 10_000
    out = shrink_to_budget(blocks, 10_000)
    assert grid_size(out) <= 10_000
    assert out[1].steps == 8  # small block untouched


def test_shrink_to_budget_refuses_overshoot_at_one_step():
    # 9 slices over 9 outcomes: 9**9 points even at one step per slice.
    blocks = [SimplexBlock("px1", 1, 3, 8), SimplexBlock("pu", 9, 9, 4)]
    with pytest.raises(SizeLimitError, match="aux-u") as exc:
        shrink_to_budget(blocks, 200_000)
    assert exc.value.context["smallest_grid"] == 3 * 9**9
    assert exc.value.context["blocks"] == ["px1", "pu"]


def test_shrink_to_budget_counts_grids_without_building_them(monkeypatch):
    # The certify --aux-u 30 blocks on a 3x3 channel: refusing them counts
    # the 40,920-row simplex_grid(30, 4) instead of building it.
    blocks = OBJECTIVES["genie_dominance_1"][0].blocks(random_channel(4, (3, 3, 2, 2)),
                                                       SearchConfig(aux_card_u=30))
    assert grid_size(blocks[2:]) == math.comb(33, 29) ** 3 == 40_920**3
    built = []
    monkeypatch.setattr(search, "simplex_grid", lambda *a: built.append(a) or simplex_grid(*a))
    with pytest.raises(SizeLimitError):
        shrink_to_budget(blocks, SearchConfig().max_candidates)
    assert built == []


def test_iter_grid_batches_lexicographic():
    grid = [tuple(row) for row in simplex_grid(2, 2)]
    for q_slices in (1, 2):
        blocks = [SimplexBlock("p", 1, 2, 2), SimplexBlock("q", q_slices, 2, 2)]
        size = grid_size(blocks)
        assert size % 4 != 0
        seen = []
        for counts, batch in iter_grid_batches(blocks, chunk=4):
            assert counts.size <= 4 and (counts == 1).all()
            seen += [(tuple(batch["p"][k, 0]), *map(tuple, batch["q"][k])) for k in range(counts.size)]
        # Every point once, earlier blocks and slices varying slowest.
        assert len(seen) == size
        assert seen == list(itertools.product(grid, repeat=1 + q_slices))
        assert seen[0] == ((1.0, 0.0),) * (1 + q_slices)
        assert seen[1] == ((1.0, 0.0),) * q_slices + ((0.5, 0.5),)  # last slice varies fastest


def test_product_batches_are_chunk_invariant():
    # Both slices of a grid block, a label group's canonical table and a
    # region side table, the last two counted by orbit size.
    tables = [
        *search._slice_tables([SimplexBlock("q", 2, 3, 2)]),
        search.canonical_table([SimplexBlock("a", 1, 2, 2), SimplexBlock("b", 2, 2, 2)]),
        regions._grid_tables([SimplexBlock("pw1", 1, 2, 2), SimplexBlock("px1w1", 2, 3, 1),
                              SimplexBlock("pw2", 1, 2, 2), SimplexBlock("px2w2", 2, 3, 1)])[0],
    ]
    assert all((t.counts > 1).any() for t in tables[2:])
    runs = []
    for chunk in (1, 5, search.CHUNK):
        batches = list(search.product_batches(tables, chunk))
        assert all(0 < len(counts) <= chunk for _, counts in batches)
        runs.append(({name: np.concatenate([b[name] for b, _ in batches]) for name in batches[0][0]},
                     np.concatenate([c for _, c in batches])))
    columns, counts = runs[0]
    for other_columns, other_counts in runs[1:]:
        assert other_columns.keys() == columns.keys()
        assert all((other_columns[name] == v).all() for name, v in columns.items())
        assert (other_counts == counts).all()
    assert counts.sum() == math.prod(int(t.counts.sum()) for t in tables)

    # Row by row: earlier tables vary slowest, the slices of "q" side by side.
    q0, q1, label, side = tables
    combos = list(itertools.product(*(range(len(t.counts)) for t in tables)))
    assert len(counts) == len(combos)
    for n, (i, j, k, m) in enumerate(combos):
        assert (columns["q"][n] == np.stack([q0.columns["q"][i, 0], q1.columns["q"][j, 0]])).all()
        assert all((columns[name][n] == label.columns[name][k]).all() for name in ("a", "b"))
        assert all((columns[name][n] == side.columns[name][m]).all() for name in ("pw1", "px1w1"))
        assert counts[n] == label.counts[k] * side.counts[m]


def quadratic_objective(target):
    def fn(batch):
        p = batch["p"][:, 0, :]
        return -((p - target) ** 2).sum(axis=1)

    return fn


def test_maximize_finds_interior_point():
    target = np.array([0.35, 0.65])
    res = maximize(quadratic_objective(target), [SimplexBlock("p", 1, 2, 4)],
                   SearchConfig(seed=1, restarts=2))
    np.testing.assert_allclose(res.point["p"][0], target, atol=1e-4)
    assert res.value >= res.grid_value


def test_maximize_deterministic():
    blocks = [SimplexBlock("p", 1, 3, 4)]
    target = np.array([0.2, 0.5, 0.3])
    r1 = maximize(quadratic_objective(target), blocks, SearchConfig(seed=7, restarts=3))
    r2 = maximize(quadratic_objective(target), blocks, SearchConfig(seed=7, restarts=3))
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.point["p"], r2.point["p"])


def test_maximize_takes_budget_seed_and_restarts_from_cfg(monkeypatch):
    blocks = [SimplexBlock("p", 1, 3, 8)]  # 45 grid points
    score = quadratic_objective(np.array([0.2, 0.5, 0.3]))
    res = maximize(score, blocks, SearchConfig(max_candidates=20, restarts=0))
    assert res.effective_steps == {"p": 4}
    assert res.n_evaluated == grid_size([SimplexBlock("p", 1, 3, 4)]) == 15

    starts = []
    ascend = search._ascend

    def recorded(objective, blocks, points, chunk):
        starts.extend(start["p"].copy() for start in points)
        return ascend(objective, blocks, points, chunk)

    monkeypatch.setattr(search, "_ascend", recorded)

    def restart_points(seed):
        starts.clear()
        maximize(score, blocks, SearchConfig(seed=seed, restarts=3))
        return starts[1:]  # the first start is the grid best

    again, same, other = restart_points(5), restart_points(5), restart_points(6)
    assert len(again) == 3
    assert all((a == b).all() for a, b in zip(again, same))
    assert not any((a == b).all() for a, b in zip(again, other))


def test_extra_candidates_are_retested():
    blocks = [SimplexBlock("p", 1, 2, 2)]
    witness = {"p": np.array([[0.123, 0.877]])}

    def spiky(batch):
        p = batch["p"][:, 0, :]
        return np.where(np.abs(p[:, 0] - 0.123) < 1e-9, 5.0, p[:, 0])

    res = maximize(spiky, blocks, SearchConfig(seed=0, restarts=0), extra_candidates=[witness])
    assert res.value == pytest.approx(5.0)


def plateau_objective(ulps):
    """``min(p0, 1/2)``, raised by ``ulps(p)`` ulps at each point ``p``."""
    def fn(batch):
        p = batch["p"][:, 0, :]
        values = np.minimum(p[:, 0], 0.5)
        bumps = ulps(p)
        for n in range(int(bumps.max(initial=0))):
            values = np.where(bumps > n, np.nextafter(values, np.inf), values)
        return values

    return fn


@pytest.mark.parametrize("chunk", [1, 5, 4096])
def test_ulp_perturbed_plateau_keeps_the_first_point(chunk):
    # Grid points p0 = 1, 7/8, ..., 0; the first five tie at 1/2.
    blocks = [SimplexBlock("p", 1, 2, 8)]
    plain = maximize(plateau_objective(lambda p: np.zeros(len(p))), blocks,
                     SearchConfig(restarts=0), chunk=chunk)
    # Later plateau points a few ulps higher, as another evaluator may round.
    bumped = maximize(plateau_objective(lambda p: np.rint(8 * (1 - p[:, 0])) % 4), blocks,
                      SearchConfig(restarts=0), chunk=chunk)
    np.testing.assert_array_equal(plain.point["p"], [[1.0, 0.0]])
    np.testing.assert_array_equal(bumped.point["p"], plain.point["p"])


@pytest.mark.parametrize("chunk", [1, 5, 4096])
def test_first_grid_index_wins_over_a_later_one_ulp_larger(chunk):
    blocks = [SimplexBlock("p", 1, 2, 8)]
    later = lambda p: (np.abs(p[:, 0] - 0.625) < 1e-12).astype(float)  # noqa: E731
    res = maximize(plateau_objective(later), blocks, SearchConfig(restarts=0), chunk=chunk)
    np.testing.assert_array_equal(res.point["p"], [[1.0, 0.0]])
    assert res.value == 0.5


def per_proposal_ascend(objective, blocks, start):
    """Coordinate ascent with one point dict and one scalar projection per
    proposal: the reference the lockstep ``search._ascend`` must reproduce
    for each start."""
    def score(points):
        batch = {b.name: np.stack([p[b.name].reshape(b.shape) for p in points]) for b in blocks}
        return np.asarray(objective(batch), dtype=np.float64)

    point = {b.name: start[b.name].reshape(b.shape).copy() for b in blocks}
    best = float(score([point])[0])
    step = search.ASCENT_STEP
    for _ in range(search.ASCENT_ITERS):
        proposals = []
        for b in blocks:
            for s in range(b.n_slices):
                for j in range(b.k):
                    for sign in (1.0, -1.0):
                        cand = {n: a.copy() for n, a in point.items()}
                        row = cand[b.name][s].copy()
                        row[j] += sign * step
                        cand[b.name][s] = scalar_projection(row)
                        proposals.append(cand)
        values = score(proposals)
        k = int(np.flatnonzero(values >= values.max() - IMPROVE_EPS)[0])
        if values[k] > best + IMPROVE_EPS:
            point = proposals[k]
            best = float(values[k])
        else:
            step *= 0.5
            if step < search.ASCENT_MIN_STEP:
                break
    return best, point


def search_case(name, seed):
    """``(objective, blocks, cfg, prior)``: a regime objective on a random
    channel of one of three shapes, with one prior witness."""
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=2, aux_card_w=2, aux_card_u=2,
                       seed=seed)
    ch = random_channel(40 + seed, [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 2)][seed])
    law = random_coupling(ch, 2, 2, seed=seed).joint_law if name.startswith("genie") else ch.law
    blocks = OBJECTIVES[name][0].blocks(ch, cfg)
    rng = np.random.default_rng(seed)
    prior = {b.name: rng.dirichlet(np.ones(b.k), size=b.n_slices) for b in blocks}
    return objective(name, law), blocks, cfg, prior


def recording(score, log):
    """``score`` that appends a copy of every batch it is given to ``log``."""
    def fn(batch):
        log.append({n: np.array(a) for n, a in batch.items()})
        return score(batch)

    return fn


def same_batch(g, w, blocks):
    return all(g[b.name].shape == w[b.name].shape and (g[b.name] == w[b.name]).all()
               for b in blocks)


CASES = ["tin", "strong_y2", "very_weak_1", "genie_dominance_1"]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximize_matches_per_proposal_ascent(monkeypatch, name, seed):
    score, blocks, cfg, prior = search_case(name, seed)

    def run():
        """The search's result and every batch it scored, in order."""
        batches = []
        res = maximize(recording(score, batches), blocks, cfg, extra_candidates=[prior])
        return res, batches

    got, got_batches = run()
    per_start = []  # every batch the per-proposal ascent scores, per start

    def one_by_one(objective, blocks, starts, chunk):
        per_start.extend([] for _ in starts)
        return [per_proposal_ascend(recording(objective, log), blocks, start)
                for start, log in zip(starts, per_start)]

    monkeypatch.setattr(search, "_ascend", one_by_one)
    want, want_batches = run()
    ascent = sum(len(log) for log in per_start)
    head = len(want_batches) - ascent - 1  # grid and prior scores; the final re-score is last

    # Lockstep: every start's B = 1 score, then per iteration one batch of
    # every start still ascending, each start's slice equal to its own batch.
    lockstep = [log[0] for log in per_start]
    for t in range(1, max(len(log) for log in per_start)):
        live = [log[t] for log in per_start if len(log) > t]
        lockstep.append({b.name: np.concatenate([m[b.name] for m in live]) for b in blocks})
    assert len(got_batches) == head + len(lockstep) + 1
    for g, w in zip(got_batches, want_batches[:head] + lockstep + want_batches[-1:]):
        assert same_batch(g, w, blocks)
    assert got.value == want.value
    assert all((got.point[b.name] == want.point[b.name]).all() for b in blocks)
    assert [v for v, _ in got.near_optima] == [v for v, _ in want.near_optima]
    for (_, p), (_, q) in zip(got.near_optima, want.near_optima):
        assert all((p[b.name] == q[b.name]).all() for b in blocks)


def ascent_starts(blocks, prior, n, seed):
    """The prior witness, a simplex vertex and ``n`` random points."""
    rng = np.random.default_rng(seed)
    vertex = {b.name: np.eye(b.k)[np.zeros(b.n_slices, dtype=int)] for b in blocks}
    return [prior, vertex] + [{b.name: rng.dirichlet(np.ones(b.k), size=b.n_slices)
                               for b in blocks} for _ in range(n)]


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_ascent_equals_each_start_alone(name, seed):
    score, blocks, _, prior = search_case(name, seed)
    starts = ascent_starts(blocks, prior, 5, seed)
    together = search._ascend(score, blocks, starts)
    alone = [search._ascend(score, blocks, [start])[0] for start in starts]
    assert len(together) == len(starts)
    for (value, point), (v, p) in zip(together, alone):
        assert value == v
        assert all((point[b.name] == p[b.name]).all() for b in blocks)


@pytest.mark.parametrize("name", CASES)
def test_lockstep_ascent_scores_the_rows_of_the_per_start_runs(name):
    score, blocks, _, prior = search_case(name, 1)
    starts = ascent_starts(blocks, prior, 4, 1)

    def rows_scored(points):
        log = []
        search._ascend(recording(score, log), blocks, points)
        return sum(len(batch[blocks[0].name]) for batch in log), len(log)

    rows, calls = rows_scored(starts)
    alone = [rows_scored([start]) for start in starts]
    assert rows == sum(r for r, _ in alone)
    # One B = 1 call per start, then one call per iteration of the longest run.
    assert calls == len(starts) + max(c for _, c in alone) - 1


@pytest.mark.parametrize("name", ["tin", "genie_dominance_1"])
def test_ascent_calls_fit_the_chunk(name):
    score, blocks, cfg, prior = search_case(name, 2)
    moves = sum(2 * b.n_slices * b.k for b in blocks)
    starts = ascent_starts(blocks, prior, 4, 2)
    want = search._ascend(score, blocks, starts)
    for chunk in [1, moves - 1, moves, 2 * moves + 1, 3 * moves]:
        log = []
        got = search._ascend(recording(score, log), blocks, starts, chunk)
        assert max(len(batch[blocks[0].name]) for batch in log) <= max(chunk, moves)
        for (value, point), (v, p) in zip(got, want):
            assert value == v and all((point[b.name] == p[b.name]).all() for b in blocks)
        if chunk > 1:  # one grid point per call would only slow the test
            log.clear()
            maximize(recording(score, log), blocks, cfg, extra_candidates=[prior], chunk=chunk)
            assert max(len(batch[blocks[0].name]) for batch in log) <= max(chunk, moves)
