import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrates import regions, sumcap
from icrates import (
    AuxInputDist,
    DiscreteIC,
    InfoQuery,
    RatePolytope,
    SearchConfig,
    compose_joint,
    equals,
    hausdorff_support_gap,
    includes,
    max_sumrate,
    mutual_information,
    polytope_hk,
    polytope_hk_strong_y2,
    polytope_one_sided,
    polytope_semijoint,
    random_channel,
    region_gaussian,
    region_scheme,
    union_region,
)
from icrates.channels import GaussianIC
from icrates.errors import (
    AngleGridMismatchError,
    ConfigError,
    DimensionMismatchError,
    EmptyListError,
    NotOneSidedError,
)
from icrates.gaussian import split_system, tin_rates
from icrates.probtensor import BatchJoint
from icrates.regions import (
    FAMILIES,
    SCHEME_TABLES,
    SupportAccumulator,
    batch_bounds,
    batch_joint,
    common_layers,
    dist_batch_from_aux,
    merged_dirs_bounds,
    product_laws,
    relayer,
    scheme_family,
    table_bounds,
    table_for_scheme,
    union_over_batches,
)
from icrates.verify import _REGION_SUITES, generate_regime_channel
from tests.conftest import (
    orthogonal_channel,
    product_channel,
    strong_pair_channel,
    xor_channel,
)

CFG = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2, seed=0)


def random_aux(seed, nw1=2, nw2=2, nx1=2, nx2=2):
    rng = np.random.default_rng(seed)
    return AuxInputDist(
        rng.dirichlet(np.ones(nw1)),
        rng.dirichlet(np.ones(nw2)),
        rng.dirichlet(np.ones(nx1), size=nw1),
        rng.dirichlet(np.ones(nx2), size=nw2),
    )


class TestPolytopes:
    def test_semijoint_orthogonal_identity_layers(self):
        # Y1 = X1, Y2 = X2: full common layers force each receiver to decode
        # the other's whole message, collapsing the sum bounds to 1 bit.
        ch = orthogonal_channel()
        d = AuxInputDist(np.full(2, 0.5), np.full(2, 0.5), np.eye(2), np.eye(2))
        poly = polytope_semijoint(ch, d)
        bounds = [b for _, _, b in poly.constraints]
        assert bounds == pytest.approx([1.0, 1.0, 1.0, 1.0], abs=1e-12)

    def test_semijoint_degenerate_layers_rectangle(self):
        ch = orthogonal_channel()
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        poly = polytope_semijoint(ch, d)
        bounds = [b for _, _, b in poly.constraints]
        assert bounds == pytest.approx([1.0, 1.0, 2.0, 2.0], abs=1e-12)

    def test_semijoint_identity_reduces_to_strong_form(self):
        ch = random_channel(21, (2, 2, 2, 2))
        d = AuxInputDist(np.array([0.4, 0.6]), np.array([0.7, 0.3]), np.eye(2), np.eye(2))
        poly = polytope_semijoint(ch, d)
        joint = compose_joint(d, ch)
        want_r1 = mutual_information(joint, InfoQuery.of("X1", "Y1", "X2"))
        want_sum1 = mutual_information(joint, InfoQuery.of(("X1", "X2"), "Y1"))
        want_sum2 = mutual_information(joint, InfoQuery.of(("X1", "X2"), "Y2"))
        bounds = [b for _, _, b in poly.constraints]
        assert bounds[0] == pytest.approx(want_r1, abs=1e-12)
        assert bounds[2] == pytest.approx(want_sum1, abs=1e-12)
        assert bounds[3] == pytest.approx(want_sum2, abs=1e-12)

    def test_hk_degenerate_layers_rectangle(self):
        ch = random_channel(2, (2, 2, 2, 2))
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        hk = polytope_hk(ch, d)
        joint = compose_joint(d, ch)
        i1 = mutual_information(joint, InfoQuery.of("X1", "Y1"))
        i2 = mutual_information(joint, InfoQuery.of("X2", "Y2"))
        assert hk.support(0.0) == pytest.approx(i1, abs=1e-9)
        assert hk.support(90.0) == pytest.approx(i2, abs=1e-9)
        assert hk.max_sum() == pytest.approx(i1 + i2, abs=1e-9)

    def test_hk_identity_layers(self):
        # Orthogonal links: with full common layers the cross-conditioned sum
        # bound is exactly zero (each output is blind to the other user), so
        # the polytope collapses to the origin; the degenerate-layer member
        # of the union still supplies the square.
        ch = orthogonal_channel()
        d = AuxInputDist(np.full(2, 0.5), np.full(2, 0.5), np.eye(2), np.eye(2))
        assert polytope_hk(ch, d).max_sum() == pytest.approx(0.0, abs=1e-12)
        # Joint-output channel: full common layers achieve the square.
        ch2 = strong_pair_channel()
        hk2 = polytope_hk(ch2, d)
        assert hk2.support(0.0) == pytest.approx(1.0, abs=1e-12)
        assert hk2.support(90.0) == pytest.approx(1.0, abs=1e-12)
        assert hk2.max_sum() == pytest.approx(2.0, abs=1e-12)

    def test_hk_contained_in_semijoint_on_very_weak(self):
        cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
        ch = generate_regime_channel("very_weak", 5, cfg)
        for seed in range(12):
            d = random_aux(seed)
            assert polytope_semijoint(ch, d).includes(polytope_hk(ch, d), tol=1e-9)

    def test_strong_y2_needs_degenerate_w1(self):
        ch = strong_pair_channel()
        with pytest.raises(DimensionMismatchError):
            polytope_hk_strong_y2(ch, random_aux(0))

    def test_strong_y2_canonical(self):
        ch = strong_pair_channel()
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        poly = polytope_hk_strong_y2(ch, d)
        assert poly.support(0.0) == pytest.approx(1.0, abs=1e-12)
        assert poly.support(90.0) == pytest.approx(1.0, abs=1e-12)
        assert poly.max_sum() == pytest.approx(2.0, abs=1e-12)

    def test_strong_y2_chain_rule_dominance(self):
        ch = generate_regime_channel("strong_y2", 1, CFG)
        for seed in range(8):
            d = random_aux(seed, nw1=1)
            poly = polytope_hk_strong_y2(ch, d)
            bounds = [b for _, _, b in poly.constraints]
            assert bounds[2] >= bounds[1] - 1e-12  # I(X1,X2;Y2) >= I(X2;Y2|X1)

    def test_one_sided_guard(self):
        ch = strong_pair_channel()
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        with pytest.raises(NotOneSidedError):
            polytope_one_sided(ch, d)

    def test_one_sided_rectangle_when_w2_degenerate(self):
        ch = product_channel(7)
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        poly = polytope_one_sided(ch, d)
        joint = compose_joint(d, ch)
        i1 = mutual_information(joint, InfoQuery.of("X1", "Y1"))
        i2 = mutual_information(joint, InfoQuery.of("X2", "Y2"))
        assert poly.support(0.0) == pytest.approx(i1, abs=1e-9)
        assert poly.support(90.0) == pytest.approx(i2, abs=1e-9)

    def test_bounds_within_caps(self):
        for seed in range(8):
            ch = random_channel(seed, (2, 2, 2, 2))
            d = random_aux(seed + 100)
            for poly in (polytope_hk(ch, d), polytope_semijoint(ch, d)):
                for c1, c2, bound in poly.constraints:
                    assert bound >= 0.0
                    assert bound <= c1 * 1.0 + c2 * 1.0 + 1e-9  # binary caps


class TestUnionRegion:
    def test_single_polytope_support(self):
        poly = RatePolytope(((1, 0, 1.0), (0, 1, 0.5), (1, 1, 1.2)))
        region = union_region([poly], angles=91)
        for k, theta in enumerate(region.theta_deg):
            assert region.h_bits[k] == pytest.approx(poly.support(theta), abs=1e-12)

    def test_two_segments_hull(self):
        p1 = RatePolytope(((1, 0, 1.0), (0, 1, 0.0)))
        p2 = RatePolytope(((1, 0, 0.0), (0, 1, 1.0)))
        region = union_region([p1, p2], angles=91)
        assert region.h_bits[45] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_union_monotone(self):
        p1 = RatePolytope(((1, 0, 0.8), (0, 1, 0.3)))
        p2 = RatePolytope(((1, 0, 0.5), (0, 1, 0.9)))
        small = union_region([p1], angles=91)
        big = union_region([p1, p2], angles=91)
        assert np.all(big.h_bits >= small.h_bits - 1e-15)

    def test_empty_list(self):
        with pytest.raises(EmptyListError):
            union_region([], angles=91)

    def test_angle_grid_needs_two_angles(self):
        poly = RatePolytope(((1, 0, 1.0), (0, 1, 0.5)))
        for build in (lambda: SupportAccumulator(1), lambda: union_region([poly], angles=1),
                      lambda: region_gaussian(GaussianIC(0.4, 0.3, 1.0, 1.0), "tin", angles=1)):
            with pytest.raises(ConfigError, match="angles"):
                build()

    def test_support_idempotent_under_resampling(self):
        polys = [
            RatePolytope(((1, 0, 0.9), (0, 1, 0.4), (1, 1, 1.1))),
            RatePolytope(((1, 0, 0.4), (0, 1, 1.0), (2, 1, 1.5))),
        ]
        region = union_region(polys, angles=91)
        verts = np.vstack([region.vertices, [[0.0, 0.0]]])
        rad = np.radians(region.theta_deg)
        u = np.stack([np.cos(rad), np.sin(rad)], axis=1)
        resampled = (verts @ u.T).max(axis=0)
        np.testing.assert_allclose(resampled, region.h_bits, atol=1e-12)

    def test_collinear_supporting_points_are_not_vertices(self):
        # At 45 deg the flat edge R1 + R2 = 0.5 ties with (0.1, 0.4), which
        # lies on it; whichever tied point the scoring keeps, the
        # collinearity pass leaves only the edge's endpoints.
        region = union_region([RatePolytope(((1, 1, 0.5),)),
                               RatePolytope(((1, 0, 0.1), (0, 1, 0.4)))])
        assert region.vertices.tolist() == [[0.5, 0.0], [0.0, 0.5]]


class TestRegionOps:
    def test_equality_reflexive(self):
        region = union_region([RatePolytope(((1, 0, 1.0), (0, 1, 1.0)))], angles=91)
        assert equals(region, region, tol=0.0)

    def test_square_vs_triangle(self):
        square = union_region([RatePolytope(((1, 0, 1.0), (0, 1, 1.0)))], angles=91)
        triangle = union_region(
            [RatePolytope(((1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)))], angles=91
        )
        assert includes(square, triangle, tol=1e-12)
        assert not includes(triangle, square, tol=1e-3)

    def test_max_sumrate_square(self):
        square = union_region([RatePolytope(((1, 0, 1.0), (0, 1, 1.0)))], angles=91)
        assert max_sumrate(square) == pytest.approx(2.0, abs=1e-12)

    def test_angle_grid_mismatch(self):
        a = union_region([RatePolytope(((1, 0, 1.0), (0, 1, 1.0)))], angles=91)
        b = union_region([RatePolytope(((1, 0, 1.0), (0, 1, 1.0)))], angles=31)
        with pytest.raises(AngleGridMismatchError):
            hausdorff_support_gap(a, b)


class TestRegionScheme:
    def test_orthogonal_unit_square_any_scheme(self):
        ch = orthogonal_channel()
        for scheme in ("tin", "semijoint", "hk", "strong_capacity"):
            region = region_scheme(ch, scheme, CFG)
            assert region.h_bits[0] == pytest.approx(1.0, abs=1e-9)
            assert region.h_bits[-1] == pytest.approx(1.0, abs=1e-9)

    def test_tin_subset_of_hk_and_semijoint(self):
        ch = random_channel(33, (2, 2, 2, 2))
        tin = region_scheme(ch, "tin", CFG)
        hk = region_scheme(ch, "hk", CFG)
        sj = region_scheme(ch, "semijoint", CFG)
        assert includes(hk, tin, tol=1e-9)
        assert includes(sj, tin, tol=1e-9)

    def test_strong_capacity_canonical(self, strong_pair):
        region = region_scheme(strong_pair, "strong_capacity", CFG)
        assert region.h_bits[45] == pytest.approx(math.sqrt(2.0), abs=1e-9)
        verts = {tuple(np.round(v, 9)) for v in region.vertices}
        assert verts == {(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_one_sided_scheme_guard(self):
        with pytest.raises(NotOneSidedError):
            region_scheme(strong_pair_channel(), "one_sided", CFG)

    def test_meta_reports_effective_steps(self):
        # 3x3 inputs at |W| = 4 overshoot the default candidate budget, so
        # every layered block runs at one step; the 2x2 |W| = 2 grid fits.
        # The product grid of these families fits in both cases.
        ch3, ch2 = random_channel(1, (3, 3, 3, 3)), random_channel(1, (2, 2, 2, 2))
        shrunk = region_scheme(ch3, "hk", SearchConfig(aux_card_w=4))
        assert shrunk.meta["effective_steps"] == {
            "pw1": 1, "pw2": 1, "px1": 8, "px1w1": 1, "px2": 8, "px2w2": 1}
        full = region_scheme(ch2, "semijoint", SearchConfig(aux_card_w=2))
        assert full.meta["effective_steps"] == {
            "pw1": 8, "pw2": 8, "px1": 8, "px1w1": 4, "px2": 8, "px2w2": 4}
        assert region_scheme(ch2, "tin", CFG).meta["effective_steps"] == {"px1": 4, "px2": 4}

    @pytest.mark.parametrize("scheme, case", [
        *((s, "2x2") for s in regions.SCHEMES), ("hk", "3x3-shrunk")])
    def test_reported_steps_are_the_scanned_steps(self, scheme, case, monkeypatch):
        # Every block the family's grids run through iter_grid_batches, and
        # no block name at two resolutions, so the report names each once.
        if case == "2x2":  # one-sided, so every scheme applies
            ch, cfg = generate_regime_channel("one_sided", 0, CFG), CFG
        else:
            ch, cfg = random_channel(1, (3, 3, 3, 3)), SearchConfig(aux_card_w=4)
        scanned = set()
        grid = regions.iter_grid_batches

        def record(blocks, *args):
            scanned.update((b.name, b.steps) for b in blocks)
            return grid(blocks, *args)

        monkeypatch.setattr(regions, "iter_grid_batches", record)
        steps = region_scheme(ch, scheme, cfg).meta["effective_steps"]
        assert len(steps) == len(scanned) > 0
        assert steps == dict(sorted(scanned))

    def test_product_grid_obeys_the_candidate_budget(self):
        # 6x6 inputs at 8 steps: 1,287 points per marginal, 1,656,369 product laws.
        cfg = SearchConfig()
        region = region_scheme(random_channel(6, (6, 6, 2, 2)), "tin", cfg)
        assert region.meta["laws_enumerated"] <= cfg.max_candidates + 1  # + the TIN anchor
        assert region.meta["effective_steps"] == {"px1": 4, "px2": 8}
        assert region.meta["laws_enumerated"] == math.comb(4 + 5, 5) * math.comb(8 + 5, 5) + 1

    def test_deterministic(self):
        ch = random_channel(12, (2, 2, 2, 2))
        a = region_scheme(ch, "semijoint", CFG)
        b = region_scheme(ch, "semijoint", CFG)
        np.testing.assert_array_equal(a.h_bits, b.h_bits)
        np.testing.assert_array_equal(a.points, b.points)


class TestUnionEngine:
    def test_shared_run_matches_region_scheme(self):
        ch = random_channel(5, (2, 2, 2, 2))
        regions = {"hk": "hk", "semijoint": "semijoint"}
        batches = scheme_family(ch, FAMILIES["hk"], CFG)
        shared = union_over_batches(ch, regions, batches, CFG.angles)["hk"]
        single = region_scheme(ch, "hk", CFG)
        np.testing.assert_array_equal(shared.h_bits, single.h_bits)
        np.testing.assert_array_equal(shared.points, single.points)
        np.testing.assert_array_equal(shared.vertices, single.vertices)
        assert shared.meta["laws_enumerated"] == single.meta["laws_enumerated"]

    def test_distinct_rows_is_exact(self, monkeypatch):
        rng = np.random.default_rng(3)
        pool = np.round(rng.random((6, 5)), 1)
        pool[1] = pool[0]
        pool[1, 4] = np.nextafter(pool[0, 4], 1.0)  # one ulp from row 0
        rows = pool[rng.integers(0, len(pool), 200)]

        def check() -> np.ndarray:
            """Representatives, after checking that they partition the rows exactly."""
            idx, counts = regions.distinct_rows(rows)
            reps = rows[idx]
            equal = (rows[:, None, :] == reps[None, :, :]).all(axis=2)  # [B, reps]
            assert counts.sum() == len(rows)
            assert (equal.sum(axis=1) == 1).all()  # each row has exactly one equal representative
            np.testing.assert_array_equal(equal.sum(axis=0), counts)
            return reps

        distinct = np.unique(rows, axis=0)
        np.testing.assert_array_equal(np.unique(check(), axis=0), distinct)
        # Every key collides: the rows that come back are still all distinct.
        monkeypatch.setattr(regions, "_key_vector", lambda cells: np.zeros(cells, dtype=np.uint64))
        reps = check()
        assert len(reps) == len(distinct)
        np.testing.assert_array_equal(np.unique(reps, axis=0), distinct)

    def test_duplicated_laws_change_nothing(self):
        ch = random_channel(5, (2, 2, 2, 2))
        rng = np.random.default_rng(0)
        plain = [b for b, _ in scheme_family(ch, FAMILIES["hk"], CFG)]

        def doubled(batch):
            perm = rng.permutation(2 * len(batch["pw1"]))
            return {k: np.concatenate([v, v])[perm] for k, v in batch.items()}

        seen = []
        a = union_over_batches(ch, {"hk": "hk"}, ((b, ("hk",)) for b in plain), CFG.angles)["hk"]
        b = union_over_batches(ch, {"hk": "hk"}, ((doubled(b), ("hk",)) for b in plain), CFG.angles,
                               per_batch_hook=lambda bj, bounds, counts: seen.append(counts))["hk"]
        np.testing.assert_array_equal(b.h_bits, a.h_bits)
        np.testing.assert_array_equal(b.points, a.points)
        np.testing.assert_array_equal(b.vertices, a.vertices)
        assert b.meta["laws_enumerated"] == 2 * a.meta["laws_enumerated"]
        assert sum(int(c.sum()) for c in seen) == b.meta["laws_enumerated"]
        assert all((c % 2 == 0).all() for c in seen)

    def test_regions_sharing_a_scheme_see_only_their_batches(self):
        ch = random_channel(6, (2, 2, 2, 2))
        batches = [b for b, _ in scheme_family(ch, FAMILIES["semijoint"], CFG)]
        feeds = [(b, ("all", "first") if i == 0 else ("all",)) for i, b in enumerate(batches)]
        out = union_over_batches(ch, {"all": "semijoint", "first": "semijoint"}, feeds, CFG.angles)
        assert out["first"].meta["laws_enumerated"] == batches[0]["pw1"].shape[0]
        assert includes(out["all"], out["first"], tol=0.0)


#: Bound values on a coarse non-dyadic lattice (so ties and shared vertices
#: are common) mixed with arbitrary floats.
_BOUND = st.one_of(st.integers(0, 12).map(lambda k: k / 6), st.floats(0.0, 3.0))
_DIRS = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]


def _lexmax_oracle(bounds: np.ndarray, angles: int = 91) -> tuple[np.ndarray, np.ndarray]:
    """Per-angle lexicographic max of ``(h, -r1, -r2)`` over every snapped
    candidate vertex, with no pruning."""
    V, feas = regions._candidate_vertices(_DIRS, bounds)
    rows = np.maximum(np.round(V.reshape(-1, 2)[feas.reshape(-1)], 12), 0.0)
    _, u = regions._angle_grid(angles)
    scores = rows @ u.T
    best = [max(range(len(rows)), key=lambda i: (scores[i, k], -rows[i, 0], -rows[i, 1]))
            for k in range(angles)]
    return np.maximum(scores[best, range(angles)], 0.0), rows[best]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.lists(st.lists(_BOUND, min_size=5, max_size=5), min_size=1, max_size=30))
def test_accumulator_invariant_under_chunking_and_order(data, rows):
    bounds = np.array(rows)
    h, points = _lexmax_oracle(bounds)
    whole = SupportAccumulator(91)
    whole.add(_DIRS, bounds)
    expected = whole.finalize()
    np.testing.assert_array_equal(expected.h_bits, h)
    np.testing.assert_array_equal(expected.points, points)

    # Any order and chunking of the rows, with any of them repeated.
    repeats = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows)))
    stream = bounds[[*range(len(rows)), *repeats]]
    perm = data.draw(st.permutations(range(len(stream))))
    cuts = data.draw(st.lists(st.integers(1, len(stream)), max_size=len(stream)))
    edges = sorted({0, len(stream), *cuts})
    acc = SupportAccumulator(91)
    for start, stop in zip(edges, edges[1:]):
        acc.add(_DIRS, stream[perm[start:stop]])
    got = acc.finalize()
    np.testing.assert_array_equal(got.h_bits, expected.h_bits)
    np.testing.assert_array_equal(got.points, expected.points)


#: Candidate rates on a coarse lattice (ties and duplicates are common),
#: negatives that snap to zero, and arbitrary floats.
_RATE = st.one_of(st.integers(-2, 8).map(lambda k: k / 4), st.floats(-0.5, 3.0))
_CANDIDATES = st.lists(st.tuples(_RATE, _RATE), max_size=12)


@settings(max_examples=200, deadline=None)
@given(adds=st.lists(_CANDIDATES, min_size=1, max_size=6))
def test_frontier_prefilter_keeps_the_unfiltered_prune(adds):
    acc = SupportAccumulator(91)
    frontier = np.empty((0, 2))
    with pytest.MonkeyPatch.context() as mp:
        for cands in adds:
            V = np.array(cands, dtype=np.float64).reshape(-1, 2)
            mp.setattr(regions, "_candidate_vertices", lambda dirs, bounds, V=V: (V, np.ones(len(V), bool)))
            acc.add(_DIRS, np.empty((0, len(_DIRS))))
            snapped = np.maximum(np.round(V, 12), 0.0)
            frontier = regions._pareto_prune(np.concatenate([frontier, snapped]))
            assert acc._rows.shape == frontier.shape
            np.testing.assert_array_equal(acc._rows, frontier)


def _family_from_scratch(ch, family, cfg):
    """``scheme_family`` with every member's chain applied to its source law
    from the start."""
    for src in family:
        blocks = regions._source_blocks(ch, src, cfg)
        if src.kind == "anchor":
            laws = [regions._tin_anchor(ch, cfg)]
        elif src.kind == "products":
            laws = (product_laws(raw["px1"][:, 0, :], raw["px2"][:, 0, :])
                    for _, raw in regions.iter_grid_batches(blocks, regions.CHUNK))
        else:
            laws = regions.layered_family(blocks, cfg, src.tag)
        for batch in laws:
            for chain, feeds in src.members:
                yield functools.reduce(lambda b, step: relayer(b, *step), chain, batch), feeds


@pytest.mark.parametrize("family", [*(f"scheme:{k}" for k in FAMILIES),
                                    *(f"suite:{k}" for k in _REGION_SUITES)])
def test_scheme_family_members_equal_their_chains_from_scratch(family):
    kind, name = family.split(":")
    rows = FAMILIES[name] if kind == "scheme" else _REGION_SUITES[name].family
    ch = random_channel(7, (2, 3, 2, 2))
    got = list(scheme_family(ch, rows, CFG))
    want = list(_family_from_scratch(ch, rows, CFG))
    assert len(got) == len(want)
    for (g, g_feeds), (w, w_feeds) in zip(got, want):
        assert g_feeds == w_feeds
        assert g.keys() == w.keys()
        for key in w:
            assert g[key].shape == w[key].shape and (g[key] == w[key]).all()


class TestStrongBothInclusion:
    def test_identity_layers_cover_semijoint_on_strong_channels(self):
        # On a channel that is strong in both directions, every semijoint
        # polytope is contained in the identity-layer polytope at the same
        # input marginals, so the W=X union covers the semijoint union when
        # built over the collapsed marginals of the same family.
        cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2, seed=2)
        ch = generate_regime_channel("strong_both", 0, cfg)
        table = table_for_scheme("semijoint")
        acc_sj = SupportAccumulator(cfg.angles)
        acc_wx = SupportAccumulator(cfg.angles)
        for batch, _ in scheme_family(ch, FAMILIES["semijoint"], cfg):
            bj = batch_joint(ch, batch)
            bounds = batch_bounds(bj, table)
            dirs, merged = merged_dirs_bounds(table, bounds)
            acc_sj.add(dirs, merged)
            bj_wx = batch_joint(ch, common_layers(batch))
            bounds_wx = batch_bounds(bj_wx, table)
            dirs, merged = merged_dirs_bounds(table, bounds_wx)
            acc_wx.add(dirs, merged)
        region_sj = acc_sj.finalize()
        region_wx = acc_wx.finalize()
        assert includes(region_wx, region_sj, tol=1e-9)


def oracle_bounds(ch, d, table):
    """Clamped bounds of one law from its dense joint and the scalar MI."""
    joint = compose_joint(d, ch)
    return [max(sum(mutual_information(joint, InfoQuery.of(*term)) for term in terms), 0.0)
            for _, _, terms in table]


class TestBatchConsistency:
    def test_batch_bounds_match_polytopes(self):
        ch = random_channel(3, (2, 2, 2, 2))
        dists = [random_aux(s) for s in range(6)]
        bj = batch_joint(ch, dist_batch_from_aux(dists))
        for scheme, builder in (
            ("hk", polytope_hk),
            ("semijoint", polytope_semijoint),
        ):
            table = table_for_scheme(scheme)
            bounds = batch_bounds(bj, table)
            for row, d in enumerate(dists):
                want = oracle_bounds(ch, d, table)
                np.testing.assert_allclose(bounds[row], want, rtol=0, atol=1e-12)
                single = [b for _, _, b in builder(ch, d).constraints]
                np.testing.assert_allclose(single, want, rtol=0, atol=1e-12)

    def test_reduced_polytopes_match_dense_oracle(self):
        rng = np.random.default_rng(4)
        one_sided = DiscreteIC.from_array(np.einsum(
            "abi,bj->abij", rng.dirichlet(np.ones(2), size=(2, 2)), rng.dirichlet(np.ones(3), size=2)))
        cases = (
            (random_channel(3, (2, 2, 2, 2)), "hk_strong_y2", polytope_hk_strong_y2),
            (one_sided, "one_sided", polytope_one_sided),
        )
        for ch, scheme, builder in cases:
            for seed in range(3):
                d = random_aux(seed, nw1=1, nx2=ch.nx2)
                single = [b for _, _, b in builder(ch, d).constraints]
                want = oracle_bounds(ch, d, table_for_scheme(scheme))
                np.testing.assert_allclose(single, want, rtol=0, atol=1e-12)

    def test_polytope_size_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            polytope_hk(random_channel(3, (2, 3, 2, 2)), random_aux(0))


class TestDerivedMembers:
    @staticmethod
    def layered_batch():
        rng = np.random.default_rng(9)
        return {
            "pw1": rng.dirichlet(np.ones(2), size=5),
            "px1w1": rng.dirichlet(np.ones(2), size=(5, 2)),
            "pw2": rng.dirichlet(np.ones(3), size=5),
            "px2w2": rng.dirichlet(np.ones(3), size=(5, 3)),
        }

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("identity", [False, True])
    def test_relayer_writes_one_layer(self, side, identity):
        batch = self.layered_batch()
        out = relayer(batch, side, identity)
        other = 3 - side
        for key in (f"pw{other}", f"px{other}w{other}"):
            assert (out[key] == batch[key]).all()
        px = np.einsum("bw,bwi->bi", batch[f"pw{side}"], batch[f"px{side}w{side}"])
        B, nx = px.shape
        pw, pxw = out[f"pw{side}"], out[f"px{side}w{side}"]
        if identity:
            assert (pw == px).all()
            assert (pxw == np.broadcast_to(np.eye(nx), (B, nx, nx))).all()
        else:
            assert (pw == np.ones((B, 1))).all()
            assert (pxw == px[:, np.newaxis, :]).all()

    def test_common_layers_of_product_laws_keep_marginals_exactly(self):
        rng = np.random.default_rng(2)
        px1, px2 = rng.dirichlet(np.ones(3), size=7), rng.dirichlet(np.ones(2), size=7)
        out = common_layers(product_laws(px1, px2))
        assert (out["pw1"] == px1).all() and (out["pw2"] == px2).all()
        assert (out["px1w1"] == np.eye(3)).all() and (out["px2w2"] == np.eye(2)).all()

    @pytest.mark.parametrize("side", [1, 2])
    @pytest.mark.parametrize("identity", [False, True])
    def test_relayer_keeps_entropies_without_its_layer(self, side, identity):
        ch = random_channel(4, (2, 3, 2, 3))
        batch = self.layered_batch()
        before = batch_joint(ch, batch)
        after = batch_joint(ch, relayer(batch, side, identity))
        subsets = [s for s in table_subsets() if f"W{side}" not in s]
        assert subsets
        for s in subsets:
            np.testing.assert_allclose(after.entropy(s), before.entropy(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", regions.SCHEMES)
    def test_one_tin_search_per_family(self, scheme, monkeypatch):
        calls = []
        search = sumcap._tin_search
        monkeypatch.setattr(sumcap, "_tin_search", lambda *a, **k: calls.append(1) or search(*a, **k))
        ch = random_channel(3, (2, 2, 2, 2))
        list(scheme_family(ch, FAMILIES[scheme], CFG))
        assert len(calls) == 1
        opt, _ = sumcap.tin_sumrate(ch, CFG)
        calls.clear()
        list(scheme_family(ch, FAMILIES[scheme], CFG, anchor=opt))
        assert calls == []


def dense_batch_joint(ch, batch):
    """The full 6-D joint of every law, marginalized by plain aggregation."""
    joint = np.einsum(
        "bw,bv,bwi,bvj,ijkl->bwvijkl",
        batch["pw1"], batch["pw2"], batch["px1w1"], batch["px2w2"], ch.law.values,
        optimize=True,
    )
    return BatchJoint(("W1", "W2", "X1", "X2", "Y1", "Y2"), joint)


def table_subsets():
    """Every entropy subset that a scheme table or a suite probe table reads."""
    tables = [*SCHEME_TABLES.values()]
    tables += [t for suite in _REGION_SUITES.values() for t in suite.probes.values()]
    subsets = set()
    for table in tables:
        for _, _, terms in table:
            for target, second, given in terms:
                t, s, g = frozenset(target), frozenset(second), frozenset(given)
                subsets |= {t | g, s | g, g, t | s | g}
    return subsets


def zero_entry_channel():
    """Random 2x3 channel with whole output rows and single cells zeroed."""
    law = random_channel(5, (2, 3, 3, 2)).law.values.copy()
    law[0, 1, 1, :] = 0.0
    law[1, 2, :, 0] = 0.0
    law[1, 0, 2, 1] = 0.0
    return DiscreteIC.from_array(law / law.sum(axis=(2, 3), keepdims=True))


def zero_entry_batch(nx1, nx2):
    rng = np.random.default_rng(11)
    batch = {
        "pw1": rng.dirichlet(np.ones(2), size=5),
        "px1w1": rng.dirichlet(np.ones(nx1), size=(5, 2)),
        "pw2": rng.dirichlet(np.ones(3), size=5),
        "px2w2": rng.dirichlet(np.ones(nx2), size=(5, 3)),
    }
    batch["pw1"][0] = (1.0, 0.0)
    batch["px1w1"][1, 0] = np.eye(nx1)[0]
    batch["px2w2"][2, :, 0] = 0.0
    batch["px2w2"][2] /= batch["px2w2"][2].sum(axis=1, keepdims=True)
    return batch


class TestChannelKernel:
    @pytest.mark.parametrize("ch", [
        random_channel(2, (3, 3, 3, 3)),
        random_channel(4, (2, 3, 2, 3)),
        random_channel(6, (3, 2, 2, 3)),
        zero_entry_channel(),
        xor_channel(),
        strong_pair_channel(),
    ], ids=["3x3", "2x3-2x3", "3x2-2x3", "zeros", "xor", "strong-pair"])
    def test_entropies_match_dense_joint(self, ch):
        subsets = table_subsets()
        family = [b for b, _ in scheme_family(ch, FAMILIES["hk"], CFG)]  # |W| = 1, 2 and W = X lifts
        family.append(zero_entry_batch(ch.nx1, ch.nx2))
        for batch in [*family, relayer(family[-1], 1), relayer(family[-1], 2)]:
            bj = batch_joint(ch, batch)
            dense = dense_batch_joint(ch, batch)
            for s in subsets:
                np.testing.assert_allclose(bj.entropy(s), dense.entropy(s), rtol=0, atol=1e-12)

    def test_same_shape_channels_in_sequence(self, monkeypatch):
        # Same-shape channels, each built, used and freed in turn, so the
        # interpreter reuses their ids: no region may see kernels of an
        # earlier channel (as a cache keyed by the id() of a law would hand
        # it).  Each is compared with its region from the dense 6-D joints.
        cfg = SearchConfig(grid_steps=3, cond_grid_steps=1, restarts=0, aux_card_w=2)
        seeds = range(21, 29)

        def region_of(seed):
            return region_scheme(random_channel(seed, (2, 2, 2, 2)), "hk", cfg)

        got = [region_of(seed) for seed in seeds]
        monkeypatch.setattr(regions, "batch_joint", dense_batch_joint)
        for region, seed in zip(got, seeds):
            alone = region_of(seed)
            np.testing.assert_allclose(region.h_bits, alone.h_bits, rtol=0, atol=1e-11)
            np.testing.assert_allclose(region.points, alone.points, rtol=0, atol=1e-11)

    def test_kernel_cache_stays_within_its_byte_budget(self):
        ch = random_channel(8, (2, 2, 2, 2))
        want = region_scheme(ch, "hk", CFG)
        small = random_channel(8, (2, 2, 2, 2))
        small.law._kernels.budget = 2048
        got = region_scheme(small, "hk", CFG)
        # over budget only when the newest kernel alone exceeds it
        assert len(small.law._kernels) == 1 or small.law._kernels.nbytes <= 2048
        assert len(small.law._kernels) < len(ch.law._kernels)
        np.testing.assert_array_equal(got.h_bits, want.h_bits)
        np.testing.assert_array_equal(got.points, want.points)

    def test_kernels_live_with_their_channel(self):
        ch = random_channel(8, (2, 2, 2, 2))
        other = random_channel(9, (2, 2, 2, 2))
        region_scheme(ch, "hk", CFG)
        assert len(ch.law._kernels) > 0 and len(other.law._kernels) == 0


class TestGaussianRegions:
    @pytest.mark.parametrize("a,b,p1,p2", [
        (1.0, 1.0, 1.0, 1.0), (1.5, -2.0, 2.0, 0.5), (-1.2, 3.0, 10.0, 3.0), (2.5, 1.0, 0.3, 4.0),
    ])
    def test_full_common_layers_give_sato_region(self, a, b, p1, p2):
        # Strong interference (|a|, |b| >= 1): the semijoint member at
        # lam1 = lam2 = 1 (W = X) is Sato's (1981) capacity region.
        table = table_for_scheme("semijoint")
        bounds = table_bounds(table, split_system(GaussianIC(a, b, p1, p2), 1.0, 1.0).mi_bits)
        dirs, merged = merged_dirs_bounds(table, bounds)
        c = lambda snr: 0.5 * math.log2(1.0 + snr)  # noqa: E731
        sato = {(1, 0): c(p1), (0, 1): c(p2),
                (1, 1): min(c(p1 + a * a * p2), c(b * b * p1 + p2))}
        assert set(dirs) == set(sato)
        for d, bound in zip(dirs, merged[0]):
            assert bound == pytest.approx(sato[d], abs=1e-12)

    def test_no_interference_rectangle(self):
        g = GaussianIC(a=0.0, b=0.0, p1=1.0, p2=1.0)
        region = region_gaussian(g, "tin", splits=3)
        assert region.h_bits[0] == pytest.approx(0.5, abs=1e-12)
        assert region.h_bits[-1] == pytest.approx(0.5, abs=1e-12)

    def test_tin_caps_closed_form(self):
        g = GaussianIC(a=0.8, b=0.4, p1=2.0, p2=1.0)
        region = region_gaussian(g, "tin", splits=1)
        r1, r2 = tin_rates(g)
        assert region.h_bits[0] == pytest.approx(r1, abs=1e-12)
        assert region.h_bits[-1] == pytest.approx(r2, abs=1e-12)

    def test_semijoint_contains_tin(self):
        g = GaussianIC(a=0.5, b=0.6, p1=1.5, p2=1.0)
        tin = region_gaussian(g, "tin", splits=1)
        sj = region_gaussian(g, "semijoint", splits=9)
        assert includes(sj, tin, tol=1e-9)

    def test_one_sided_requires_zero_cross_gain(self):
        with pytest.raises(NotOneSidedError):
            region_gaussian(GaussianIC(a=0.5, b=0.1, p1=1.0, p2=1.0), "one_sided")
