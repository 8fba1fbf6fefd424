import math

import numpy as np
import pytest

from icrates import SearchConfig, random_channel, random_coupling
from icrates import search
from icrates.errors import SizeLimitError
from icrates.regimes import OBJECTIVES, objective
from icrates.search import (
    IMPROVE_EPS,
    SimplexBlock,
    grid_size,
    iter_grid_batches,
    maximize,
    project_simplex,
    shrink_to_budget,
    simplex_grid,
)


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


def test_iter_grid_batches_lexicographic():
    blocks = [SimplexBlock("p", 1, 2, 2), SimplexBlock("q", 1, 2, 2)]
    seen = []
    for idx, batch in iter_grid_batches(blocks, chunk=4):
        for k in range(idx.size):
            seen.append((tuple(batch["p"][k, 0]), tuple(batch["q"][k, 0])))
    assert len(seen) == 9
    assert seen[0] == ((1.0, 0.0), (1.0, 0.0))
    assert seen[1] == ((1.0, 0.0), (0.5, 0.5))  # last axis varies fastest


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

    def recorded(objective, blocks, start):
        starts.append(start["p"].copy())
        return ascend(objective, blocks, start)

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
    proposal: the reference the batched ``search._ascend`` must reproduce."""
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


@pytest.mark.parametrize("name", ["tin", "strong_y2", "very_weak_1", "genie_dominance_1"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximize_matches_per_proposal_ascent(monkeypatch, name, seed):
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=2, aux_card_w=2, aux_card_u=2,
                       seed=seed)
    ch = random_channel(40 + seed, [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 2, 2)][seed])
    law = random_coupling(ch, 2, 2, seed=seed).joint_law if name.startswith("genie") else ch.law
    blocks = OBJECTIVES[name][0].blocks(ch, cfg)
    rng = np.random.default_rng(seed)
    prior = {b.name: rng.dirichlet(np.ones(b.k), size=b.n_slices) for b in blocks}

    def run():
        """The search's result and every batch it scored, in order."""
        batches = []
        score = objective(name, law)

        def recorded(batch):
            batches.append({n: np.array(a) for n, a in batch.items()})
            return score(batch)

        res = maximize(recorded, blocks, cfg, extra_candidates=[prior])
        return res, batches

    got, got_batches = run()
    monkeypatch.setattr(search, "_ascend", per_proposal_ascend)
    want, want_batches = run()
    assert len(got_batches) == len(want_batches)
    for g, w in zip(got_batches, want_batches):
        assert all(g[b.name].shape == w[b.name].shape and (g[b.name] == w[b.name]).all()
                   for b in blocks)
    assert got.value == want.value
    assert all((got.point[b.name] == want.point[b.name]).all() for b in blocks)
    assert [v for v, _ in got.near_optima] == [v for v, _ in want.near_optima]
    for (_, p), (_, q) in zip(got.near_optima, want.near_optima):
        assert all((p[b.name] == q[b.name]).all() for b in blocks)
