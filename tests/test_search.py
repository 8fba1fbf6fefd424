import math

import numpy as np
import pytest

from icrates.errors import SizeLimitError
from icrates.search import (
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
    res = maximize(quadratic_objective(target), [SimplexBlock("p", 1, 2, 4)], seed=1, restarts=2)
    np.testing.assert_allclose(res.point["p"][0], target, atol=1e-4)
    assert res.value >= res.grid_value


def test_maximize_deterministic():
    blocks = [SimplexBlock("p", 1, 3, 4)]
    target = np.array([0.2, 0.5, 0.3])
    r1 = maximize(quadratic_objective(target), blocks, seed=7, restarts=3)
    r2 = maximize(quadratic_objective(target), blocks, seed=7, restarts=3)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.point["p"], r2.point["p"])


def test_extra_candidates_are_retested():
    blocks = [SimplexBlock("p", 1, 2, 2)]
    witness = {"p": np.array([[0.123, 0.877]])}

    def spiky(batch):
        p = batch["p"][:, 0, :]
        return np.where(np.abs(p[:, 0] - 0.123) < 1e-9, 5.0, p[:, 0])

    res = maximize(spiky, blocks, seed=0, restarts=0, extra_candidates=[witness])
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
                     restarts=0, chunk=chunk)
    # Later plateau points a few ulps higher, as another evaluator may round.
    bumped = maximize(plateau_objective(lambda p: np.rint(8 * (1 - p[:, 0])) % 4), blocks,
                      restarts=0, chunk=chunk)
    np.testing.assert_array_equal(plain.point["p"], [[1.0, 0.0]])
    np.testing.assert_array_equal(bumped.point["p"], plain.point["p"])


@pytest.mark.parametrize("chunk", [1, 5, 4096])
def test_first_grid_index_wins_over_a_later_one_ulp_larger(chunk):
    blocks = [SimplexBlock("p", 1, 2, 8)]
    later = lambda p: (np.abs(p[:, 0] - 0.625) < 1e-12).astype(float)  # noqa: E731
    res = maximize(plateau_objective(later), blocks, restarts=0, chunk=chunk)
    np.testing.assert_array_equal(res.point["p"], [[1.0, 0.0]])
    assert res.value == 0.5
