import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrates import probtensor, regions, search, sumcap
from icrates import (
    AuxInputDist,
    DiscreteIC,
    InfoQuery,
    SearchConfig,
    compose_joint,
    equals,
    hausdorff_support_gap,
    includes,
    max_sumrate,
    mutual_information,
    random_channel,
    random_coupling,
    region_gaussian,
    region_scheme,
)
from icrates.channels import GaussianIC
from icrates.errors import (
    AngleGridMismatchError,
    ConfigError,
    DimensionMismatchError,
    EmptyListError,
    NotOneSidedError,
)
from icrates.gaussian import split_system, tin_rates, very_weak_gaussian
from icrates.probtensor import BatchJoint, TermTable
from icrates.regimes import OBJECTIVES
from icrates.regions import (
    FAMILIES,
    SCHEME_TABLES,
    SupportAccumulator,
    batch_bounds,
    batch_joint,
    merged_dirs_bounds,
    relayer,
    constraint_terms,
    scheme_family,
    table_for_scheme,
    union_over_batches,
)
from icrates.verify import _REGION_SUITES, generate_regime_channel
from tests.conftest import (
    composed_mi,
    constant_w_laws,
    family_from_scratch,
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


def aux_batch(dists):
    """The layered laws ``dists`` as one batch."""
    return {
        "pw1": np.stack([d.pw1 for d in dists]),
        "pw2": np.stack([d.pw2 for d in dists]),
        "px1w1": np.stack([d.px1_given_w1 for d in dists]),
        "px2w2": np.stack([d.px2_given_w2 for d in dists]),
    }


def law_bounds(ch, dists, scheme):
    """``[B, n_constraints]`` clamped bounds of ``scheme`` at each law of ``dists``."""
    return batch_bounds(batch_joint(ch, aux_batch(dists)), table_for_scheme(scheme))


def law_region(ch, d, scheme):
    """The rate region of ``scheme`` at the single law ``d`` (its polytope)."""
    table = table_for_scheme(scheme)
    acc = SupportAccumulator(91)
    acc.add(*merged_dirs_bounds(table, law_bounds(ch, [d], scheme)))
    return acc.finalize()


def hull(*polytopes, angles=91):
    """The region of the union of ``polytopes``, each a tuple of ``(c1, c2, bound)`` rows."""
    acc = SupportAccumulator(angles)
    for poly in polytopes:
        acc.add(*merged_dirs_bounds(poly, np.array([[b for _, _, b in poly]])))
    return acc.finalize()


class TestPolytopes:
    def test_semijoint_orthogonal_identity_layers(self):
        # Y1 = X1, Y2 = X2: full common layers force each receiver to decode
        # the other's whole message, collapsing the sum bounds to 1 bit.
        ch = orthogonal_channel()
        d = AuxInputDist(np.full(2, 0.5), np.full(2, 0.5), np.eye(2), np.eye(2))
        bounds = law_bounds(ch, [d], "semijoint")[0]
        np.testing.assert_allclose(bounds, [1.0, 1.0, 1.0, 1.0], rtol=0, atol=1e-12)

    def test_semijoint_degenerate_layers_rectangle(self):
        ch = orthogonal_channel()
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        bounds = law_bounds(ch, [d], "semijoint")[0]
        np.testing.assert_allclose(bounds, [1.0, 1.0, 2.0, 2.0], rtol=0, atol=1e-12)

    def test_semijoint_identity_reduces_to_strong_form(self):
        ch = random_channel(21, (2, 2, 2, 2))
        d = AuxInputDist(np.array([0.4, 0.6]), np.array([0.7, 0.3]), np.eye(2), np.eye(2))
        bounds = law_bounds(ch, [d], "semijoint")[0]
        joint = compose_joint(d, ch)
        want_r1 = mutual_information(joint, InfoQuery.of("X1", "Y1", "X2"))
        want_sum1 = mutual_information(joint, InfoQuery.of(("X1", "X2"), "Y1"))
        want_sum2 = mutual_information(joint, InfoQuery.of(("X1", "X2"), "Y2"))
        assert bounds[0] == pytest.approx(want_r1, abs=1e-12)
        assert bounds[2] == pytest.approx(want_sum1, abs=1e-12)
        assert bounds[3] == pytest.approx(want_sum2, abs=1e-12)

    def test_hk_degenerate_layers_rectangle(self):
        ch = random_channel(2, (2, 2, 2, 2))
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        hk = law_region(ch, d, "hk")
        joint = compose_joint(d, ch)
        i1 = mutual_information(joint, InfoQuery.of("X1", "Y1"))
        i2 = mutual_information(joint, InfoQuery.of("X2", "Y2"))
        assert hk.h_bits[0] == pytest.approx(i1, abs=1e-9)
        assert hk.h_bits[-1] == pytest.approx(i2, abs=1e-9)
        assert max_sumrate(hk) == pytest.approx(i1 + i2, abs=1e-9)

    def test_hk_identity_layers(self):
        # Orthogonal links: with full common layers the cross-conditioned sum
        # bound is exactly zero (each output is blind to the other user), so
        # the polytope collapses to the origin; the degenerate-layer member
        # of the union still supplies the square.
        ch = orthogonal_channel()
        d = AuxInputDist(np.full(2, 0.5), np.full(2, 0.5), np.eye(2), np.eye(2))
        assert max_sumrate(law_region(ch, d, "hk")) == pytest.approx(0.0, abs=1e-12)
        # Joint-output channel: full common layers achieve the square.
        hk2 = law_region(strong_pair_channel(), d, "hk")
        assert hk2.h_bits[0] == pytest.approx(1.0, abs=1e-12)
        assert hk2.h_bits[-1] == pytest.approx(1.0, abs=1e-12)
        assert max_sumrate(hk2) == pytest.approx(2.0, abs=1e-12)

    def test_hk_contained_in_semijoint_on_very_weak(self):
        # Every vertex of each law's hk polytope meets that law's semijoint
        # constraints.
        cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
        ch = generate_regime_channel("very_weak", 5, cfg)
        dists = [random_aux(seed) for seed in range(12)]
        V, feas = regions._candidate_vertices(
            *merged_dirs_bounds(SCHEME_TABLES["hk"], law_bounds(ch, dists, "hk")))
        sj = law_bounds(ch, dists, "semijoint")
        for k, (c1, c2, _) in enumerate(SCHEME_TABLES["semijoint"]):
            slack = sj[:, k, np.newaxis] - (c1 * V[:, :, 0] + c2 * V[:, :, 1])
            assert (slack[feas] >= -1e-9).all()

    def test_strong_y2_canonical(self):
        ch = strong_pair_channel()
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        region = law_region(ch, d, "hk_strong_y2")
        assert region.h_bits[0] == pytest.approx(1.0, abs=1e-12)
        assert region.h_bits[-1] == pytest.approx(1.0, abs=1e-12)
        assert max_sumrate(region) == pytest.approx(2.0, abs=1e-12)

    def test_strong_y2_chain_rule_dominance(self):
        ch = generate_regime_channel("strong_y2", 1, CFG)
        bounds = law_bounds(ch, [random_aux(seed, nw1=1) for seed in range(8)], "hk_strong_y2")
        assert (bounds[:, 2] >= bounds[:, 1] - 1e-12).all()  # I(X1,X2;Y2) >= I(X2;Y2|X1)

    def test_one_sided_rectangle_when_w2_degenerate(self):
        ch = product_channel(7)
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.5, 0.5]], [[0.5, 0.5]])
        region = law_region(ch, d, "one_sided")
        joint = compose_joint(d, ch)
        i1 = mutual_information(joint, InfoQuery.of("X1", "Y1"))
        i2 = mutual_information(joint, InfoQuery.of("X2", "Y2"))
        assert region.h_bits[0] == pytest.approx(i1, abs=1e-9)
        assert region.h_bits[-1] == pytest.approx(i2, abs=1e-9)

    def test_bounds_within_caps(self):
        for seed in range(8):
            ch = random_channel(seed, (2, 2, 2, 2))
            d = random_aux(seed + 100)
            for scheme in ("hk", "semijoint"):
                bounds = law_bounds(ch, [d], scheme)[0]
                caps = [c1 * 1.0 + c2 * 1.0 for c1, c2, _ in table_for_scheme(scheme)]  # binary caps
                assert (bounds >= 0.0).all()
                assert (bounds <= np.array(caps) + 1e-9).all()


class TestUnionRegion:
    def test_single_polytope_support(self):
        region = hull(((1, 0, 1.0), (0, 1, 0.5), (1, 1, 1.2)))
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.2], [0.7, 0.5], [0.0, 0.5]])
        rad = np.radians(region.theta_deg)
        want = (vertices @ np.stack([np.cos(rad), np.sin(rad)])).max(axis=0)
        np.testing.assert_allclose(region.h_bits, want, rtol=0, atol=1e-12)

    def test_two_segments_hull(self):
        region = hull(((1, 0, 1.0), (0, 1, 0.0)), ((1, 0, 0.0), (0, 1, 1.0)))
        assert region.h_bits[45] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_union_monotone(self):
        p1, p2 = ((1, 0, 0.8), (0, 1, 0.3)), ((1, 0, 0.5), (0, 1, 0.9))
        assert np.all(hull(p1, p2).h_bits >= hull(p1).h_bits - 1e-15)

    def test_empty_list(self):
        with pytest.raises(EmptyListError):
            SupportAccumulator(91).finalize()

    def test_angle_grid_needs_two_angles(self):
        for build in (lambda: SupportAccumulator(1),
                      lambda: region_gaussian(GaussianIC(0.4, 0.3, 1.0, 1.0), "tin", angles=1)):
            with pytest.raises(ConfigError, match="angles"):
                build()

    def test_support_idempotent_under_resampling(self):
        region = hull(((1, 0, 0.9), (0, 1, 0.4), (1, 1, 1.1)), ((1, 0, 0.4), (0, 1, 1.0), (2, 1, 1.5)))
        verts = np.vstack([region.vertices, [[0.0, 0.0]]])
        rad = np.radians(region.theta_deg)
        u = np.stack([np.cos(rad), np.sin(rad)], axis=1)
        resampled = (verts @ u.T).max(axis=0)
        np.testing.assert_allclose(resampled, region.h_bits, atol=1e-12)

    def test_collinear_supporting_points_are_not_vertices(self):
        # At 45 deg the flat edge R1 + R2 = 0.5 ties with (0.1, 0.4), which
        # lies on it; whichever tied point the scoring keeps, the
        # collinearity pass leaves only the edge's endpoints.
        region = hull(((1, 1, 0.5),), ((1, 0, 0.1), (0, 1, 0.4)))
        assert region.vertices.tolist() == [[0.5, 0.0], [0.0, 0.5]]


class TestRegionOps:
    SQUARE = ((1, 0, 1.0), (0, 1, 1.0))

    def test_equality_reflexive(self):
        region = hull(self.SQUARE)
        assert equals(region, region, tol=0.0)

    def test_square_vs_triangle(self):
        square = hull(self.SQUARE)
        triangle = hull((*self.SQUARE, (1, 1, 1.0)))
        assert includes(square, triangle, tol=1e-12)
        assert not includes(triangle, square, tol=1e-3)

    def test_max_sumrate_square(self):
        assert max_sumrate(hull(self.SQUARE)) == pytest.approx(2.0, abs=1e-12)

    def test_angle_grid_mismatch(self):
        with pytest.raises(AngleGridMismatchError):
            hausdorff_support_gap(hull(self.SQUARE, angles=91), hull(self.SQUARE, angles=31))


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
        # Every block the family's side tables are built from (_grid_tables:
        # the product grids' constant-W sides; canonical_table: the layered
        # side grids), and no block name at two resolutions, so the report
        # names each once.
        if case == "2x2":  # one-sided, so every scheme applies
            ch, cfg = generate_regime_channel("one_sided", 0, CFG), CFG
        else:
            ch, cfg = random_channel(1, (3, 3, 3, 3)), SearchConfig(aux_card_w=4)
        scanned = set()
        for name in ("_grid_tables", "canonical_table"):
            def record(blocks, *args, scan=getattr(regions, name)):
                scanned.update((b.name, b.steps) for b in blocks)
                return scan(blocks, *args)

            monkeypatch.setattr(regions, name, record)
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
        monkeypatch.setattr(search, "_key_vector", lambda cells: np.zeros(cells, dtype=np.uint64))
        reps = check()
        assert len(reps) == len(distinct)
        np.testing.assert_array_equal(np.unique(reps, axis=0), distinct)

    def test_distinct_rows_sums_weights(self):
        rng = np.random.default_rng(4)
        rows = np.round(rng.random((6, 3)), 1)[rng.integers(0, 6, 300)]
        weights = rng.integers(1, 50, len(rows))
        idx, total = regions.distinct_rows(rows, weights)
        plain_idx, plain_counts = regions.distinct_rows(rows)
        np.testing.assert_array_equal(idx, plain_idx)
        equal = (rows[:, None, :] == rows[idx][None, :, :]).all(axis=2)  # [B, reps]
        np.testing.assert_array_equal(total, weights @ equal)
        np.testing.assert_array_equal(plain_counts, equal.sum(axis=0))

    def test_duplicated_laws_change_nothing(self):
        # A row with count c changes the region as its c copies do, and
        # counts as c laws to laws_enumerated and to the hook.
        ch = random_channel(5, (2, 2, 2, 2))
        rng = np.random.default_rng(0)
        plain = [(b, c) for b, _, c in scheme_family(ch, FAMILIES["hk"], CFG)]

        def doubled(batch, counts):
            perm = rng.permutation(2 * len(counts))
            twice = {k: np.concatenate([v, v])[perm] for k, v in batch.items()}
            return twice, np.concatenate([counts, counts])[perm]

        def run(stream):
            seen = []
            region = union_over_batches(ch, {"hk": "hk"}, ((b, ("hk",), c) for b, c in stream), CFG.angles,
                                        per_batch_hook=lambda bj, bounds, counts: seen.append(counts))["hk"]
            assert sum(int(c.sum()) for c in seen) == region.meta["laws_enumerated"]
            return region

        a = run(plain)
        assert a.meta["laws_enumerated"] > sum(len(c) for _, c in plain)  # the grid comes as distinct laws
        for stream in ([doubled(b, c) for b, c in plain], [(b, 2 * c) for b, c in plain]):
            b = run(stream)
            np.testing.assert_array_equal(b.h_bits, a.h_bits)
            np.testing.assert_array_equal(b.points, a.points)
            np.testing.assert_array_equal(b.vertices, a.vertices)
            assert b.meta["laws_enumerated"] == 2 * a.meta["laws_enumerated"]

    def test_rows_added_do_not_depend_on_batching(self, monkeypatch):
        # The same laws, once as one batch that repeats every law and once
        # split so that no batch repeats one: each run passes every bound
        # row to add and gives the same region.
        ch = random_channel(5, (2, 2, 2, 2))
        batch, _, counts = next(scheme_family(ch, FAMILIES["hk"], CFG))
        twice = {k: np.concatenate([v, v]) for k, v in batch.items()}
        add = SupportAccumulator.add

        def run(stream):
            rows = []
            monkeypatch.setattr(SupportAccumulator, "add",
                                lambda self, dirs, bounds: rows.append(len(bounds)) or add(self, dirs, bounds))
            region = union_over_batches(ch, {"hk": "hk"}, stream, CFG.angles)["hk"]
            return sum(rows), region

        rows_one, one = run([(twice, None, np.concatenate([counts, counts]))])
        rows_split, split = run([(batch, None, counts), (batch, None, counts)])
        assert rows_one == rows_split == 2 * len(counts)
        np.testing.assert_array_equal(one.h_bits, split.h_bits)
        np.testing.assert_array_equal(one.points, split.points)
        np.testing.assert_array_equal(one.vertices, split.vertices)
        assert one.meta == split.meta

    def test_regions_sharing_a_scheme_see_only_their_batches(self):
        ch = random_channel(6, (2, 2, 2, 2))
        batches = [(b, c) for b, _, c in scheme_family(ch, FAMILIES["semijoint"], CFG)]
        feeds = [(b, ("all", "first") if i == 0 else ("all",), c) for i, (b, c) in enumerate(batches)]
        out = union_over_batches(ch, {"all": "semijoint", "first": "semijoint"}, feeds, CFG.angles)
        assert out["first"].meta["laws_enumerated"] == batches[0][1].sum()
        assert out["all"].meta["laws_enumerated"] == sum(c.sum() for _, c in batches)
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


def _candidate_vertices_loop(dirs, bounds):
    """Candidate vertices and feasibility built one candidate at a time."""
    b = np.asarray(bounds, dtype=np.float64)
    B, k = b.shape
    zeros = np.zeros(B)
    pts = [np.zeros((B, 2))]
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
    feas = (V[:, :, 0] >= -regions._FEAS_TOL) & (V[:, :, 1] >= -regions._FEAS_TOL)
    for i, (c1, c2) in enumerate(dirs):
        feas &= c1 * V[:, :, 0] + c2 * V[:, :, 1] <= b[:, i, np.newaxis] + regions._FEAS_TOL
    return V, feas


@pytest.mark.parametrize("dirs", [_DIRS, [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], [(0, 1), (2, 1)],
                                  [(1, 1), (1, 1), (1, 2)]])
def test_candidate_vertices_equal_the_loop(dirs):
    rng = np.random.default_rng(len(dirs))
    for rows in (1, 5, 600):
        bounds = np.where(rng.random((rows, len(dirs))) < 0.2, 0.0, 3 * rng.random((rows, len(dirs))))
        bounds[0] = np.round(bounds[0] * 2) / 2  # ties between candidates
        V, feas = regions._candidate_vertices(dirs, bounds)
        want_V, want_feas = _candidate_vertices_loop(dirs, bounds)
        assert V.shape == want_V.shape and feas.shape == want_feas.shape
        assert (V == want_V).all() and (np.signbit(V) == np.signbit(want_V)).all()
        assert (feas == want_feas).all()


def test_pareto_prune_sorts_and_prunes_small_inputs():
    prune = regions._pareto_prune
    np.testing.assert_array_equal(prune(np.array([[1.0, 1.0], [2.0, 2.0]])), [[2.0, 2.0]])
    np.testing.assert_array_equal(prune(np.array([[1.0, 2.0], [2.0, 1.0]])), [[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(prune(np.array([[1.0, 2.0], [1.0, 2.0]])), [[1.0, 2.0]])
    np.testing.assert_array_equal(prune(np.array([[0.5, 0.5]])), [[0.5, 0.5]])
    assert prune(np.empty((0, 2))).shape == (0, 2)


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


def _assert_same_frontier(acc, plain):
    assert acc._rows.shape == plain._rows.shape
    assert (acc._rows == plain._rows).all()


def _assert_same_region(acc, plain):
    got, want = acc.finalize(), plain.finalize()
    for name in ("h_bits", "points", "vertices"):
        assert getattr(got, name).shape == getattr(want, name).shape
        assert (getattr(got, name) == getattr(want, name)).all()


#: Every scheme table's merged directions, and two sets that meet one axis
#: only (the other corner coordinate is inf, so nothing may be skipped).
_DIR_SETS = [*dict.fromkeys(tuple(merged_dirs_bounds(t, np.zeros((1, len(t))))[0])
                            for t in SCHEME_TABLES.values()), ((0, 1),), ((1, 0),)]
#: Offsets of a polytope's corner from a frontier point, on both sides of
#: the skip's 1e-9 slack.
_OFFSET = st.one_of(st.sampled_from([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]),
                    st.floats(-2e-9, 2e-9))


def _near_rows(data, dirs, frontier):
    """Polytopes with every direction tight at a point within 2e-9 of a
    frontier point (plus a drawn extra), so their corners sit there."""
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        f = frontier[data.draw(st.integers(0, len(frontier) - 1))]
        p = f + [data.draw(_OFFSET), data.draw(_OFFSET)]
        rows.append([max(c1 * p[0] + c2 * p[1], 0.0) + data.draw(st.sampled_from([0.0, 0.0, 1 / 6]))
                     for c1, c2 in dirs])
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dirs=st.sampled_from(_DIR_SETS), seed_rows=st.integers(0, 6))
def test_corner_skip_keeps_the_frontier_of_every_vertex(data, dirs, seed_rows):
    # The skipping add against the vertex path alone, over random chunks
    # (empty ones too) and polytopes whose corners sit at frontier points.
    acc, plain = SupportAccumulator(91), SupportAccumulator(91)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_SEED_ROWS", seed_rows)
        for _ in range(data.draw(st.integers(1, 6))):
            rows = data.draw(st.lists(st.lists(_BOUND, min_size=len(dirs), max_size=len(dirs)), max_size=12))
            bounds = np.array(rows, dtype=np.float64).reshape(-1, len(dirs))
            if len(plain._rows) and data.draw(st.booleans()):
                bounds = np.concatenate([bounds, _near_rows(data, dirs, plain._rows)])
            acc.add(dirs, bounds)
            plain._add_vertices(dirs, bounds)
            _assert_same_frontier(acc, plain)
    if len(plain._rows):  # finalize refuses an empty union
        _assert_same_region(acc, plain)


@pytest.mark.parametrize("a,b,p1,p2,skips", [(1.0, 1.0, 1.0, 1.0, False), (0.3, 0.5, 10.0, 3.0, False),
                                             (2.5, -1.0, 0.3, 4.0, True), (1.5, -2.0, 2.0, 0.5, True)])
def test_corner_skip_on_the_gaussian_semijoint_region(monkeypatch, a, b, p1, p2, skips):
    # region_gaussian makes one add of 33 x 33 power splits: the seed pass
    # runs, and the frontier is unchanged.  Under strong interference the
    # full common layers' polytope contains most others, and the skip
    # drops them; under weak interference no polytope's corner is beaten.
    calls, vertex_rows = [], []
    add, vertices = SupportAccumulator.add, regions._candidate_vertices
    monkeypatch.setattr(SupportAccumulator, "add",
                        lambda self, dirs, bounds: calls.append((dirs, bounds)) or add(self, dirs, bounds))
    region_gaussian(GaussianIC(a, b, p1, p2), "semijoint", splits=33)
    [(dirs, bounds)] = calls
    assert len(bounds) == 33 * 33 > regions._SEED_ROWS
    monkeypatch.setattr(regions, "_candidate_vertices",
                        lambda dirs, bounds: vertex_rows.append(len(bounds)) or vertices(dirs, bounds))
    acc, plain = SupportAccumulator(91), SupportAccumulator(91)
    acc.add(dirs, bounds)
    assert vertex_rows[0] == regions._SEED_ROWS
    assert (sum(vertex_rows) < len(bounds) // 2) if skips else (sum(vertex_rows) == len(bounds))
    plain._add_vertices(dirs, bounds)
    _assert_same_frontier(acc, plain)
    _assert_same_region(acc, plain)


def _law_multiset(ch, stream):
    """``{(q bytes, feeds): total count}`` over ``(batch, feeds, counts)``."""
    out = {}
    for batch, feeds, counts in stream:
        q = batch_joint(ch, batch).values.reshape(len(counts), -1)
        rows, inverse = np.unique(q.view(f"V{q.shape[1] * 8}").ravel(), return_inverse=True)
        for row, total in zip(rows, np.bincount(inverse.ravel(), weights=counts)):
            key = (row.tobytes(), feeds)
            out[key] = out.get(key, 0) + int(total)
    return out


_FAMILY_IDS = [*(f"scheme:{k}" for k in FAMILIES), *(f"suite:{k}" for k in _REGION_SUITES)]
#: Channel shapes and configs: no random draws, one, and a table of three.
_FAMILY_CASES = [(shape, dataclasses.replace(CFG, restarts=restarts))
                 for shape in [(2, 2, 2, 2), (2, 3, 2, 2), (4, 2, 2, 2)] for restarts in (0, 1, 3)]


def _family_and_regions(family):
    """A ``_FAMILY_IDS`` entry's sources and the regions they feed."""
    kind, name = family.split(":")
    if kind == "scheme":
        return FAMILIES[name], {name: name}
    return _REGION_SUITES[name].family, _REGION_SUITES[name].regions


def _counted(stream):
    return ((b, f, np.ones(len(b["pw1"]), dtype=np.int64)) for _, b, f in stream)


@pytest.mark.parametrize("family", _FAMILY_IDS)
def test_scheme_family_members_equal_their_chains_from_scratch(family):
    # As a multiset: every law of the raw family with both sides of each
    # layered grid law put in canonical order, bit for bit, with its feeds,
    # as often as the raw family holds it.
    rows, _ = _family_and_regions(family)
    for shape, cfg in _FAMILY_CASES:
        ch = random_channel(7, shape)
        got = _law_multiset(ch, scheme_family(ch, rows, cfg))
        want = _law_multiset(ch, _counted(family_from_scratch(ch, rows, cfg)))
        assert sum(got.values()) == sum(want.values())
        assert got == want


@pytest.mark.parametrize("family", _FAMILY_IDS)
def test_canonical_family_regions_equal_the_raw_family_regions(family):
    # Scoring one law per relabelling orbit of W moves no region: the raw,
    # un-canonicalized family gives the same support within 1e-12 and
    # counts the same laws.
    rows, names = _family_and_regions(family)
    for shape, cfg in _FAMILY_CASES:
        ch = random_channel(7, shape)
        got = union_over_batches(ch, names, scheme_family(ch, rows, cfg), cfg.angles)
        raw = union_over_batches(ch, names, _counted(family_from_scratch(ch, rows, cfg, canonical=False)),
                                 cfg.angles)
        for name in names:
            assert np.abs(got[name].h_bits - raw[name].h_bits).max() <= 1e-12
            assert got[name].meta["laws_enumerated"] == raw[name].meta["laws_enumerated"]


def el_gamal_costa_channel() -> DiscreteIC:
    """Y1 = (X1 + V2) mod 3 and Y2 = (X2 + V1) mod 3 with Vi = [Xi >= 1]
    (El Gamal and Costa, IEEE Trans. IT 1982)."""
    law = np.zeros((3, 3, 3, 3))
    for x1 in range(3):
        for x2 in range(3):
            law[x1, x2, (x1 + (x2 >= 1)) % 3, (x2 + (x1 >= 1)) % 3] = 1.0
    return DiscreteIC.from_array(law)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the budget gives |W| = 3 coarser grids than |W| = 2, so the "
    "|W| = 3 hk region lies 0.132 bits inside the |W| = 2 region at 45 degrees"))
def test_hk_region_at_larger_w_contains_the_smaller_w_region():
    # A |W| = 2 law is a |W| = 3 law with one massless W value, so the hk
    # region at |W| = 3 contains the one at |W| = 2, at the same config.
    ch = el_gamal_costa_channel()
    small = region_scheme(ch, "hk", SearchConfig(aux_card_w=2))
    large = region_scheme(ch, "hk", SearchConfig(aux_card_w=3))
    assert (large.theta_deg == small.theta_deg).all()
    assert (large.h_bits >= small.h_bits - 1e-12).all()


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
        for batch, _, _ in scheme_family(ch, FAMILIES["semijoint"], cfg):
            bj = batch_joint(ch, batch)
            bounds = batch_bounds(bj, table)
            dirs, merged = merged_dirs_bounds(table, bounds)
            acc_sj.add(dirs, merged)
            bj_wx = batch_joint(ch, relayer(relayer(batch, 1, identity=True), 2, identity=True))
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
        # Each law's bounds, in a batch of six and alone, equal the dense joint's.
        ch = random_channel(3, (2, 2, 2, 2))
        dists = [random_aux(s) for s in range(6)]
        for scheme in ("hk", "semijoint"):
            bounds = law_bounds(ch, dists, scheme)
            for row, d in enumerate(dists):
                want = oracle_bounds(ch, d, table_for_scheme(scheme))
                np.testing.assert_allclose(bounds[row], want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(law_bounds(ch, [d], scheme)[0], want, rtol=0, atol=1e-12)

    def test_reduced_polytopes_match_dense_oracle(self):
        rng = np.random.default_rng(4)
        one_sided = DiscreteIC.from_array(np.einsum(
            "abi,bj->abij", rng.dirichlet(np.ones(2), size=(2, 2)), rng.dirichlet(np.ones(3), size=2)))
        for ch, scheme in ((random_channel(3, (2, 2, 2, 2)), "hk_strong_y2"), (one_sided, "one_sided")):
            dists = [random_aux(seed, nw1=1, nx2=ch.nx2) for seed in range(3)]
            bounds = law_bounds(ch, dists, scheme)
            for row, d in enumerate(dists):
                want = oracle_bounds(ch, d, table_for_scheme(scheme))
                np.testing.assert_allclose(bounds[row], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("size", [1, 7, 4096])
    @pytest.mark.parametrize("table", [*SCHEME_TABLES, "w1_leak"])
    def test_bounds_equal_the_composition_through_mi(self, table, size):
        # Every scheme table and the one_sided suite's probe: each bound is
        # the running total of its terms over the row, from the entropies
        # of the same pass; rows 0 and 1 hold point masses.
        rows = SCHEME_TABLES.get(table) or _REGION_SUITES["one_sided_regions"].probes[table]
        ch = random_channel(11, (2, 3, 3, 2))
        rng = np.random.default_rng(size)
        batch = {"pw1": rng.dirichlet(np.ones(3), size=size), "pw2": rng.dirichlet(np.ones(2), size=size),
                 "px1w1": rng.dirichlet(np.ones(2), size=(size, 3)),
                 "px2w2": rng.dirichlet(np.ones(3), size=(size, 2))}
        batch["pw1"][0] = np.eye(3)[0]
        batch["px2w2"][-1, 1] = np.eye(3)[2]
        bj = batch_joint(ch, batch)
        bj.entropies(constraint_terms(rows).keys)
        want = []
        for _, _, terms in rows:
            total = 0.0
            for t in terms:
                total = total + composed_mi(bj, t)
            want.append(total)
        got = batch_bounds(bj, rows)
        assert got.shape == (size, len(rows))
        assert (got == np.column_stack(want)).all()

    def test_polytope_size_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            batch_joint(random_channel(3, (2, 3, 2, 2)), aux_batch([random_aux(0)]))


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
        out = relayer(relayer(constant_w_laws(px1, px2), 1, identity=True), 2, identity=True)
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
    # The kernel cases keep their channel ids; "-contraction" forces the law
    # branch of `BatchJoint._contract` by dropping the aggregation limit to 0.
    @pytest.mark.parametrize("ch,path", [
        pytest.param(ch, path, id=name + ("" if path == "kernel" else "-contraction"))
        for path in ("kernel", "contraction")
        for name, ch in [
            ("3x3", random_channel(2, (3, 3, 3, 3))),
            ("2x3-2x3", random_channel(4, (2, 3, 2, 3))),
            ("3x2-2x3", random_channel(6, (3, 2, 2, 3))),
            ("zeros", zero_entry_channel()),
            ("xor", xor_channel()),
            ("strong-pair", strong_pair_channel()),
        ]
    ])
    def test_entropies_match_dense_joint(self, ch, path, monkeypatch):
        if path == "contraction":
            monkeypatch.setattr(BatchJoint, "_AGG_LIMIT", 0)
        subsets = table_subsets()
        family = [b for b, _, _ in scheme_family(ch, FAMILIES["hk"], CFG)]  # |W| = 1, 2 and W = X lifts
        family.append(zero_entry_batch(ch.nx1, ch.nx2))
        for batch in [*family, relayer(family[-1], 1), relayer(family[-1], 2)]:
            bj = batch_joint(ch, batch)
            dense = dense_batch_joint(ch, batch)
            for s in subsets:
                np.testing.assert_allclose(bj.entropy(s), dense.entropy(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sides", [(1, 1), (2, 3)], ids=["1x1", "2x3"])
    @pytest.mark.parametrize("path", ["kernel", "contraction"])
    def test_coupling_entropies_match_dense_joint(self, sides, path, monkeypatch):
        # Every entropy subset an objective over the (X1, X2) or (X1, X2, U)
        # layout reads, on a coupling's joint law.  With 1x1 side outputs the
        # kernels sum the whole channel output of each input cell.
        if path == "contraction":
            monkeypatch.setattr(BatchJoint, "_AGG_LIMIT", 0)
        law = random_coupling(random_channel(4, (2, 3, 2, 3)), *sides, seed=4).joint_law
        rng = np.random.default_rng(9)
        for names in (("X1", "X2"), ("X1", "X2", "U")):
            subsets = {frozenset(part) for layout, rows in OBJECTIVES.values()
                       if layout.names == names for _, t in rows
                       for part in (t[0] + t[2], t[1] + t[2], t[2], t[0] + t[1] + t[2])}
            shape = (2, 3, 2)[:len(names)]
            q = rng.dirichlet(np.ones(np.prod(shape)), size=7).reshape(7, *shape)
            q[0] = np.eye(np.prod(shape))[0].reshape(shape)
            bj = BatchJoint(names, q, law)
            dense = BatchJoint(names + law.names[2:], np.einsum(
                q, [0, *range(1, len(names) + 1)], law.values, [1, 2, *range(10, 14)],
                [0, *range(1, len(names) + 1), *range(10, 14)]))
            for s in subsets:
                np.testing.assert_allclose(bj.entropy(s), dense.entropy(s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", ["default", "1-row", "mid"])
    @pytest.mark.parametrize("law_kind", ["channel", "1x1", "2x3"])
    @pytest.mark.parametrize("sizes", [(2, 3, 2, 3), (3, 2, 3, 2)])
    def test_fused_pass_matches_dense_joint(self, sizes, law_kind, block, monkeypatch):
        # Every layout an objective or a scheme table reads, with each of its
        # entropy subsets that the law holds, in one fused pass over the
        # concatenated kernel; rows 0 and 1 are point masses.  "1-row" and
        # "mid" (5-row) blocks split the 37 rows unevenly.
        ch = random_channel(sum(sizes), sizes)
        law = ch.law if law_kind == "channel" else random_coupling(
            ch, *(1, 1) if law_kind == "1x1" else (2, 3), seed=sum(sizes)).joint_law
        region = ("W1", "W2", "X1", "X2")
        layouts = {layout.names for layout, _ in OBJECTIVES.values()} | {region}
        cards = {"W1": 3, "W2": 2, "U": 2} | dict(zip(law.names, law.cards))
        rng = np.random.default_rng(sum(sizes) + len(law_kind))
        for names in sorted(layouts):
            terms = [t for layout, rows in OBJECTIVES.values() if layout.names == names for _, t in rows]
            if names == region:
                terms += [t for table in SCHEME_TABLES.values() for _, _, ts in table for t in ts]
            keys = tuple(k for k in TermTable([[(+1, t) for t in terms]]).keys
                         if k <= set(names + law.names[2:]))
            if not keys:  # the coupling's layout over the channel law
                continue
            shape = tuple(cards[n] for n in names)
            q = rng.dirichlet(np.ones(math.prod(shape)), size=37)
            q[0], q[1] = np.eye(q.shape[1])[0], np.eye(q.shape[1])[-1]
            kernel, starts = law.marginal_kernel(names, shape, keys)
            if block != "default":  # 8 bytes a cell: 1 row, or 5 rows a block
                rows = 1 if block == "1-row" else 5
                monkeypatch.setattr(probtensor, "_BLOCK_BYTES", 8 * rows * kernel.shape[1])
            got = probtensor._block_entropies(q, kernel, starts)
            monkeypatch.undo()
            law_axes = [1 + names.index(n) for n in law.names[:2]] + list(range(10, 8 + len(law.names)))
            dense = BatchJoint(names + law.names[2:], np.einsum(
                q.reshape(37, *shape), range(len(names) + 1), law.values, law_axes,
                [*range(len(names) + 1), *law_axes[2:]]))
            assert got.shape == (len(keys), 37)
            for h, key in zip(got, keys):
                np.testing.assert_allclose(h, dense.entropy(key), rtol=0, atol=1e-12)

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
        terms, system = constraint_terms(table), split_system(GaussianIC(a, b, p1, p2), 1.0, 1.0)
        bounds = np.column_stack(terms.combine(system.mi_bits(*t) for t in terms.terms))
        dirs, merged = merged_dirs_bounds(table, bounds)
        c = lambda snr: 0.5 * math.log2(1.0 + snr)  # noqa: E731
        sato = {(1, 0): c(p1), (0, 1): c(p2),
                (1, 1): min(c(p1 + a * a * p2), c(b * b * p1 + p2))}
        assert set(dirs) == set(sato)
        for d, bound in zip(dirs, merged[0]):
            assert bound == pytest.approx(sato[d], abs=1e-12)

    def test_hk_sum_rate_collapses_to_tin_in_the_very_weak_regime(self):
        # Draws from verify_gaussian_regimes' ranges.  In the very weak
        # regime the hk max sum rate is the TIN sum rate; the 12-decimal
        # vertex snap moves each coordinate by at most 5e-13, so the sum by
        # at most 1e-12, and 1e-13 more covers the log-det rounding.
        # Outside it, hk contains the TIN corner (its lam = 0 member) and
        # beats it by more than 1e-3 bits on some draw.
        tol = 1.1e-12
        rng = np.random.default_rng(np.random.SeedSequence([0x6A55, 0]))
        gains = 10.0 ** rng.uniform(-2.0, 0.5, size=(60, 2))
        powers = 10.0 ** rng.uniform(-1.0, 1.5, size=(60, 2))
        gaps = {True: [], False: []}
        for (a, b), (p1, p2) in zip(gains, powers):
            g = GaussianIC(a=float(a), b=float(b), p1=float(p1), p2=float(p2))
            hk = max_sumrate(region_gaussian(g, "hk"))
            gaps[very_weak_gaussian(g).in_regime].append(hk - sum(tin_rates(g)))
        assert len(gaps[True]) >= 20 and len(gaps[False]) >= 20
        assert max(abs(gap) for gap in gaps[True]) <= tol
        assert min(gaps[False]) >= -tol and max(gaps[False]) > 1e-3

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
