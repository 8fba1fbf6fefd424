import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from icrates import probtensor
from icrates import (
    AuxInputDist,
    InfoQuery,
    ProbTensor,
    compose_joint,
    entropy,
    marginalize,
    mutual_information,
    random_channel,
    random_coupling,
    require_valid,
    validate,
)
from icrates.errors import (
    DimensionMismatchError,
    NegativeMassError,
    OverlappingSetsError,
    SizeLimitError,
    SliceNormalizationError,
    UnknownAxisError,
    ValidationError,
)
from icrates.probtensor import BatchJoint, TermTable, term
from icrates.regions import SCHEME_TABLES, constraint_terms


def random_tensor(seed, cards, names=None):
    rng = np.random.default_rng(seed)
    raw = rng.gamma(1.0, size=cards)
    names = names or tuple(f"V{i}" for i in range(len(cards)))
    return ProbTensor(names, raw / raw.sum())


class TestValidate:
    def test_uniform_pair_passes(self):
        t = ProbTensor(("A", "B"), np.full((2, 2), 0.25))
        report = validate(t)
        assert report.ok
        assert report.max_deviation == 0.0

    def test_negative_mass(self):
        t = ProbTensor(("A",), np.array([1.001e0, -1e-3]))
        with pytest.raises(NegativeMassError):
            require_valid(t)

    def test_slice_not_normalized_names_slice(self):
        vals = np.full((2, 2), 0.5)
        vals[1] = 0.49  # slice A=1 sums to 0.98
        t = ProbTensor(("A", "B"), vals)
        with pytest.raises(SliceNormalizationError) as exc:
            require_valid(t, conditioning=("A",))
        assert exc.value.context["slice"] == {"A": 1}

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            ProbTensor(("A", "B"), np.zeros((4000, 4000)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("conditioning", [(), ("A",)])
    def test_non_finite_cells_are_invalid(self, bad, conditioning):
        # NaN compares false both ways, so require_valid's mass checks alone
        # let it pass; validate's ok already failed, as NaN fails ``>=``.
        vals = np.full((2, 2), 0.5 if conditioning else 0.25)
        vals[1, 0] = bad
        t = ProbTensor(("A", "B"), vals)
        assert not validate(t, conditioning).ok
        with pytest.raises(ValidationError, match="non-finite"):
            require_valid(t, conditioning)


class TestMarginalize:
    def test_independent_uniform(self):
        t = ProbTensor(("A", "B"), np.full((2, 3), 1 / 6))
        m = marginalize(t, ("A",))
        np.testing.assert_allclose(m.values, [0.5, 0.5])

    def test_correlated_pair(self):
        t = ProbTensor(("A", "B"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        m = marginalize(t, ("B",))
        np.testing.assert_allclose(m.values, [0.5, 0.5])

    def test_composes(self):
        t = random_tensor(3, (2, 3, 2), ("A", "B", "C"))
        two_step = marginalize(marginalize(t, ("A", "B")), ("A",))
        one_step = marginalize(t, ("A",))
        np.testing.assert_allclose(two_step.values, one_step.values, atol=1e-15)

    def test_unknown_axis(self):
        t = random_tensor(0, (2, 2))
        with pytest.raises(UnknownAxisError):
            marginalize(t, ("Z",))


class TestEntropy:
    def test_uniform_bit(self):
        t = ProbTensor(("X",), np.array([0.5, 0.5]))
        assert entropy(t, InfoQuery.of("X")) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        t = ProbTensor(("X",), np.array([1.0, 0.0]))
        assert entropy(t, InfoQuery.of("X")) == 0.0

    def test_quarter_three_quarter(self):
        # oracle: direct -sum p log2 p
        oracle = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        t = ProbTensor(("X",), np.array([0.25, 0.75]))
        assert entropy(t, InfoQuery.of("X")) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.811278, abs=5e-7)

    def test_second_must_be_empty(self):
        t = random_tensor(1, (2, 2), ("A", "B"))
        with pytest.raises(Exception):
            entropy(t, InfoQuery.of("A", second="B"))


class TestMutualInformation:
    def test_independent_is_zero(self):
        t = ProbTensor(("A", "B"), np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(t, InfoQuery.of("A", "B")) == pytest.approx(0.0, abs=1e-15)

    def test_copy_is_one_bit(self):
        t = ProbTensor(("A", "B"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(t, InfoQuery.of("A", "B")) == pytest.approx(1.0, abs=1e-15)

    def test_binary_symmetric_flip(self):
        p = 0.11
        h2 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))  # oracle
        j = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
        t = ProbTensor(("A", "B"), j)
        got = mutual_information(t, InfoQuery.of("A", "B"))
        assert got == pytest.approx(1.0 - h2, abs=1e-12)
        assert got == pytest.approx(0.500, abs=1e-3)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(OverlappingSetsError):
            InfoQuery.of(("A",), ("A", "B"))

    def test_unknown_axis(self):
        t = random_tensor(1, (2, 2), ("A", "B"))
        with pytest.raises(UnknownAxisError):
            mutual_information(t, InfoQuery.of("A", "Z"))


class TestComposeJoint:
    def test_identity_layers_noiseless(self):
        law = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                law[x1, x2, x1, x2] = 1.0
        from icrates import DiscreteIC

        ch = DiscreteIC.from_array(law)
        d = AuxInputDist(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.eye(2), np.eye(2))
        joint = compose_joint(d, ch)
        assert mutual_information(joint, InfoQuery.of("X1", "Y1")) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_layers_carry_nothing(self):
        ch = random_channel(5, (2, 2, 2, 2))
        d = AuxInputDist(np.ones(1), np.ones(1), [[0.3, 0.7]], [[0.5, 0.5]])
        joint = compose_joint(d, ch)
        for other in ("X1", "X2", "Y1", "Y2"):
            assert mutual_information(joint, InfoQuery.of("W1", other)) == pytest.approx(0.0, abs=1e-12)

    def test_markov_chain_by_construction(self):
        rng = np.random.default_rng(11)
        ch = random_channel(11, (2, 2, 2, 2))
        d = AuxInputDist(
            rng.dirichlet(np.ones(3)),
            rng.dirichlet(np.ones(2)),
            rng.dirichlet(np.ones(2), size=3),
            rng.dirichlet(np.ones(2), size=2),
        )
        joint = compose_joint(d, ch)
        gap = mutual_information(joint, InfoQuery.of("W1", ("Y1", "Y2"), ("X1",)))
        assert gap <= 1e-9


class TestInvariants:
    def test_chain_rule(self):
        for seed in range(20):
            t = random_tensor(seed, (2, 3), ("A", "B"))
            lhs = entropy(t, InfoQuery.of(("A", "B")))
            rhs = entropy(t, InfoQuery.of("A")) + entropy(t, InfoQuery.of("B", given="A"))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_mi_symmetry(self):
        for seed in range(20):
            t = random_tensor(seed, (2, 2, 3), ("A", "B", "C"))
            ab = mutual_information(t, InfoQuery.of("A", "B", "C"))
            ba = mutual_information(t, InfoQuery.of("B", "A", "C"))
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_entropy_cap(self):
        for seed in range(20):
            t = random_tensor(seed, (2, 3, 2), ("A", "B", "C"))
            h = entropy(t, InfoQuery.of(("A", "B")))
            assert -1e-12 <= h <= math.log2(6) + 1e-9

    def test_data_processing_on_composed_chain(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            ch = random_channel(seed, (2, 2, 2, 2))
            d = AuxInputDist(
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2)),
                rng.dirichlet(np.ones(2), size=2),
                rng.dirichlet(np.ones(2), size=2),
            )
            joint = compose_joint(d, ch)
            i_w = mutual_information(joint, InfoQuery.of("W1", "Y1"))
            i_x = mutual_information(joint, InfoQuery.of("X1", "Y1"))
            assert i_w <= i_x + 1e-9

    def test_marginalize_then_entropy(self):
        t = random_tensor(9, (2, 2, 3), ("A", "B", "C"))
        direct = entropy(t, InfoQuery.of(("A", "C")))
        via_marginal = entropy(marginalize(t, ("A", "C")), InfoQuery.of(("A", "C")))
        assert direct == pytest.approx(via_marginal, abs=1e-12)


class TestBatchJoint:
    @pytest.mark.parametrize("cells", [3, 9, 27, 36])
    def test_row_entropies_equal_the_masked_log(self, cells):
        # Three marginals side by side, each summed over its own segment;
        # the segmented sum adds in another order than a plain row sum.
        rng = np.random.default_rng(cells)
        widths = (cells, 1, cells // 2 + 1)
        segments = []
        for width in widths:
            m = rng.dirichlet(np.ones(width), size=4096)
            m[rng.random(m.shape) < 0.3] = 0.0
            m[0] = 0.0
            m[1] = np.eye(width)[0]
            segments.append(m)
        got = probtensor._block_entropies(np.hstack(segments), None, np.cumsum([0, *widths[:-1]]))
        assert got.shape == (3, 4096)
        for h, m in zip(got, segments):
            logs = np.zeros_like(m)
            np.log2(m, out=logs, where=m > 0.0)
            want = -(m * logs).sum(axis=1)
            np.testing.assert_allclose(h, want, rtol=0, atol=1e-14)
            assert (np.signbit(h[:2]) == np.signbit(want[:2])).all()

    def test_fused_pass_stays_within_its_blocks(self):
        # A 4096-row hk batch of a 3x3x3x3 channel at |W| = 4: one subset's
        # whole marginal is [4096, 144], 4.7 MB; the pass holds row blocks.
        ch = random_channel(2, (3, 3, 3, 3))
        q = np.random.default_rng(0).dirichlet(np.ones(144), size=4096).reshape(4096, 4, 4, 3, 3)
        keys = constraint_terms(SCHEME_TABLES["hk"]).keys
        tracemalloc.start()
        try:
            h = BatchJoint(("W1", "W2", "X1", "X2"), q, ch.law).entropies(keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kernel, _ = ch.law.marginal_kernel(("W1", "W2", "X1", "X2"), q.shape[1:], keys)
        out = len(keys) * q.shape[0] * 8
        assert len(h) == len(keys) and kernel.shape[0] == 144
        assert peak <= 4 * probtensor._BLOCK_BYTES + kernel.nbytes + out + (1 << 20)

    def test_matches_probtensor_path(self):
        t = random_tensor(13, (2, 3, 2), ("A", "B", "C"))
        bj = BatchJoint(("A", "B", "C"), t.values[np.newaxis, ...])
        table = TermTable([[(+1, term("A", "B", "C"))]])
        got = table.combine(table.mi(bj.entropies(table.keys)))[0][0]
        want = mutual_information(t, InfoQuery.of("A", "B", "C"))
        assert got == pytest.approx(want, abs=1e-12)

    def test_large_joint_falls_back_to_axis_sums(self):
        cards = (4, 4, 4, 4, 4, 4, 4, 4, 4)  # 262144 cells > aggregation limit
        rng = np.random.default_rng(0)
        vals = rng.gamma(1.0, size=(1, *cards))
        vals /= vals.sum()
        names = tuple(f"V{i}" for i in range(9))
        bj = BatchJoint(names, vals)
        t = ProbTensor(names, vals[0])
        got = bj.entropy(("V0", "V5"))[0]
        want = entropy(t, InfoQuery.of(("V0", "V5")))
        assert got == pytest.approx(want, abs=1e-12)

    def test_channel_kernel_past_the_limit_contracts(self):
        # 9 * 9 * 4 * 4 input cells times 8 * 8 output cells = 82,944 joint
        # cells > aggregation limit: no kernel is built, and marginals come
        # from one contraction of the input law with the channel law.
        ch = random_channel(1, (4, 4, 8, 8))
        rng = np.random.default_rng(2)
        dists = [AuxInputDist(rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9)),
                              rng.dirichlet(np.ones(4), size=9),
                              rng.dirichlet(np.ones(4), size=9)) for _ in range(2)]
        q = np.stack([np.einsum("w,v,wi,vj->wvij", d.pw1, d.pw2, d.px1_given_w1,
                                d.px2_given_w2) for d in dists])
        bj = BatchJoint(("W1", "W2", "X1", "X2"), q, ch.law)
        assert q[0].size * math.prod(ch.law.cards[2:]) > BatchJoint._AGG_LIMIT
        for names in (("W1", "X2"), ("X1", "Y1", "W2"), ("Y1", "Y2"), ("W1", "X1", "X2", "Y2")):
            got = bj.entropy(names)
            for row, d in enumerate(dists):
                want = entropy(compose_joint(d, ch), InfoQuery.of(names))
                assert got[row] == pytest.approx(want, abs=1e-12)
        assert len(ch.law._kernels) == 0

    def test_law_kernels_are_shared_and_read_only(self):
        ch = random_channel(1, (2, 3, 2, 2))
        q = random_tensor(13, (2, 2, 3), ("W1", "X1", "X2")).values
        key = ("W1", "Y1")
        first = BatchJoint(("W1", "X1", "X2"), q[np.newaxis, ...], ch.law)
        second = BatchJoint(("W1", "X1", "X2"), np.stack([q, q]), ch.law)
        np.testing.assert_allclose(second.entropy(key), first.entropy(key)[0], rtol=0, atol=1e-15)
        kernel, starts = ch.law.marginal_kernel(("W1", "X1", "X2"), q.shape, (frozenset(key),))
        assert len(ch.law._kernels) == 1 and list(starts) == [0]
        assert not kernel.flags.writeable

    def test_kernel_build_costs_the_kernels_own_size(self):
        # A 16 KB kernel over a 2x2x8x8 channel with 8-symbol side outputs:
        # enumerating the joint's cells against the kept cells to build it
        # would allocate about 130 MB.
        law = random_coupling(random_channel(3, (2, 2, 8, 8)), 8, 8, 3).joint_law
        keep = frozenset(("U", "Y2", "X2", "Yt2"))
        tracemalloc.start()
        try:
            kernel, _ = law.marginal_kernel(("X1", "X2", "U"), (2, 2, 2), (keep,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.shape == (8, 2 * 2 * 8 * 8)
        assert peak <= 4 * kernel.nbytes + (1 << 20)

    def test_kernel_build_holds_no_dense_identity(self):
        # 1,600 input cells against 4 kept ones: the dense 1,600 x 1,600
        # identity batch would take 20 MB; the build walks it in row blocks.
        law = random_channel(4, (4, 4, 3, 3)).law
        tracemalloc.start()
        try:
            kernel, _ = law.marginal_kernel(("W1", "W2", "X1", "X2"), (10, 10, 4, 4),
                                            (frozenset(("X1",)),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.shape == (1600, 4)
        assert peak <= 4 * kernel.nbytes + (1 << 20)

    @pytest.mark.parametrize("keep", [
        ("U",), ("X2", "U"), ("Y2",), ("U", "Y2", "X2", "Yt2"), ("X1", "Y1", "Yt1", "Y2", "Yt2"),
    ])
    def test_kernel_entries_are_sequential_law_marginals(self, keep):
        # The loop reference: each entry adds the law's cells over the outputs
        # `keep` drops one at a time in flattened order, or is 0 where the
        # kept inputs disagree; a kernel of inputs only holds exact 0s and 1s.
        law = random_coupling(random_channel(5, (2, 3, 2, 3)), 2, 2, 5).joint_law
        names, shape, keep = ("X1", "X2", "U"), (2, 3, 2), frozenset(keep)
        cards = dict(zip(names, shape)) | dict(zip(law.names, law.cards))
        kept = [n for n in names + law.names[2:] if n in keep]
        outs = [n for n in law.names[2:] if n in keep]
        dropped = [n for n in law.names[2:] if n not in keep]
        want = np.zeros((int(np.prod(shape)), int(np.prod([cards[n] for n in kept]))))
        for k, cell in enumerate(np.ndindex(*shape)):
            at = dict(zip(names, cell))
            for out_cell in np.ndindex(*(cards[n] for n in outs)):
                at.update(zip(outs, out_cell))
                total = 0.0 if outs else 1.0
                for drop_cell in np.ndindex(*(cards[n] for n in dropped)) if outs else ():
                    at.update(zip(dropped, drop_cell))
                    total += law.values[tuple(at[n] for n in law.names)]
                want[k, np.ravel_multi_index([at[n] for n in kept], [cards[n] for n in kept])] = total
        assert (law.marginal_kernel(names, shape, (keep,))[0] == want).all()

    def test_kernel_cache_evicts_oldest_first_under_its_budget(self):
        cache = probtensor.KernelCache(lambda a: a.nbytes, budget=100)
        for key, n in enumerate([4, 4, 4, 20, 2]):  # 32, 32, 32, 160 and 16 bytes
            cache.get(key, lambda n=n: np.zeros(n))
            assert cache.nbytes == sum(a.nbytes for a in cache._entries.values()) <= 100 or len(cache) == 1
        assert list(cache._entries) == [4] and cache.nbytes == 16
        cache.budget = 40  # a budget set after construction holds from the next insertion
        cache.get(5, lambda: np.zeros(2))
        assert list(cache._entries) == [4, 5] and cache.nbytes == 32
        cache.get(4, lambda: np.zeros(9))  # a hit builds and evicts nothing
        cache.get(6, lambda: np.zeros(2))
        assert list(cache._entries) == [5, 6] and cache.nbytes == 32

    def test_repeated_kernel_lookup_builds_nothing(self, monkeypatch):
        # The second call with the same layout, shape and subsets hands back
        # the cached (G, starts) objects; no kernel block is contracted again.
        ch = random_channel(1, (2, 3, 2, 2))
        builds = []
        build = probtensor._contract
        monkeypatch.setattr(probtensor, "_contract", lambda *a: builds.append(a[-1]) or build(*a))
        keys = (frozenset(("W1", "Y1")), frozenset(("X2",)))
        first = ch.law.marginal_kernel(("W1", "X1", "X2"), (2, 2, 3), keys)
        assert builds == list(keys)
        second = ch.law.marginal_kernel(("W1", "X1", "X2"), (2, 2, 3), keys)
        assert builds == list(keys) and all(a is b for a, b in zip(first, second))
        assert not any(a.flags.writeable for a in first)
        assert ch.law._kernels.nbytes == first[0].nbytes

    def test_dispatch_lives_in_probtensor(self):
        # How a batch's entropies are taken (kernel or contraction) is
        # decided by probtensor.joint_entropies alone.
        src = Path(probtensor.__file__).parent
        named = [(path.name, name) for path in sorted(src.glob("*.py")) if path.name != "probtensor.py"
                 for name in ("_AGG_LIMIT", "marginal_kernel", "_block_entropies")
                 if name in path.read_text(encoding="utf-8")]
        assert named == []

    def test_channel_must_match_input_law(self):
        ch = random_channel(1, (2, 3, 2, 2))
        with pytest.raises(DimensionMismatchError):
            BatchJoint(("W1", "X1", "X2"), np.ones((1, 2, 3, 2)) / 12, ch.law)
        with pytest.raises(DimensionMismatchError):
            BatchJoint(("W1", "X1"), np.ones((1, 2, 2)) / 4, ch.law)

