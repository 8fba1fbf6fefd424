import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from icrates import regimes, search
from icrates import (
    DiscreteIC,
    SearchConfig,
    check_strong_at_y2,
    check_genie_dominance,
    check_strong_both,
    check_very_weak,
    certify_sum_capacity,
    InfoQuery,
    ProbTensor,
    evaluate_condition_margin,
    mutual_information,
    random_channel,
    random_coupling,
    region_scheme,
)
from icrates.channels import VirtualCoupling
from icrates.errors import ConfigError
from icrates.probtensor import BatchJoint, TermTable
from icrates.regimes import NO_VIOLATION_FOUND, OBJECTIVES, VIOLATED, evaluate_objective, objective
from icrates.search import SimplexBlock, grid_size, iter_grid_batches, maximize
from icrates.sumcap import evaluate_genie_dominance_margin
from tests.conftest import composed_mi, product_channel, strong_pair_channel, xor_channel

CFG = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=2, aux_card_w=2, seed=3)


def cross_revealing_channel() -> DiscreteIC:
    """Y2 = X1 noiselessly; Y1 is pure noise."""
    law = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            law[x1, x2, :, x1] = 0.5
    return DiscreteIC.from_array(law)


class TestVeryWeak:
    def test_one_sided_never_violates_first_condition(self):
        ch = product_channel(0)
        r1, _ = check_very_weak(ch, CFG)
        assert r1.status == NO_VIOLATION_FOUND
        assert r1.margin_bits <= 1e-9

    def test_cross_revealing_violates(self):
        ch = cross_revealing_channel()
        r1, _ = check_very_weak(ch, CFG)
        assert r1.status == VIOLATED
        assert r1.margin_bits > 0.5  # close to one bit at uniform inputs

    def test_witness_reproduces_margin(self):
        ch = cross_revealing_channel()
        r1, r2 = check_very_weak(ch, CFG)
        for report in (r1, r2):
            again = evaluate_condition_margin(ch, report.condition, report.witness)
            assert again == pytest.approx(report.margin_bits, abs=1e-9)

    def test_monotone_resolution_with_witness_carry(self):
        ch = cross_revealing_channel()
        lo = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2, seed=3)
        hi = SearchConfig(grid_steps=8, cond_grid_steps=4, restarts=1, aux_card_w=2, seed=3)
        r_lo, _ = check_very_weak(ch, lo)
        r_hi, _ = check_very_weak(ch, hi, prior_witnesses=([r_lo.witness], []))
        assert r_hi.margin_bits >= r_lo.margin_bits - 1e-12
        assert not (r_lo.status == VIOLATED and r_hi.status == NO_VIOLATION_FOUND)


class TestStrong:
    def test_pair_channel_certifies(self):
        report = check_strong_at_y2(strong_pair_channel(), CFG)
        assert report.status == NO_VIOLATION_FOUND

    def test_y2_blind_violates(self):
        # Y1 = X1 noiseless, Y2 independent of X1
        law = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                law[x1, x2, x1, :] = 0.5
        ch = DiscreteIC.from_array(law)
        report = check_strong_at_y2(ch, CFG)
        assert report.status == VIOLATED
        assert report.margin_bits == pytest.approx(1.0, abs=1e-6)

    def test_swap_symmetry(self):
        ch = cross_revealing_channel()
        swapped_law = np.transpose(ch.law.values, (1, 0, 3, 2))
        swapped = DiscreteIC.from_array(swapped_law)
        fwd = check_strong_at_y2(ch, CFG)
        _, mirror = check_strong_both(swapped, CFG)
        assert mirror.margin_bits == pytest.approx(fwd.margin_bits, abs=1e-9)

    def test_strong_both_on_pair_channel(self):
        ra, rb = check_strong_both(strong_pair_channel(), CFG)
        assert ra.status == NO_VIOLATION_FOUND
        assert rb.status == NO_VIOLATION_FOUND

    def test_one_sided_with_informative_y2_violates_mirror(self):
        ch = product_channel(3)
        _, mirror = check_strong_both(ch, CFG)
        # Y1 carries nothing about X2, so any informative own link violates
        assert mirror.status == VIOLATED

    def test_strong_witness_reproduces(self):
        ch = xor_channel()
        report = check_strong_at_y2(ch, CFG)
        again = evaluate_condition_margin(ch, report.condition, report.witness)
        assert again == pytest.approx(report.margin_bits, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_margins_rescore_bit_for_bit(seed):
    # Four channels each on 2x2, 2x3 and 3x2 inputs; six reports per channel.
    nx1, nx2 = ((2, 2), (2, 3), (3, 2))[seed % 3]
    ch = random_channel(100 + seed, (nx1, nx2, 2 + seed % 2, 3 - seed % 2))
    vc = random_coupling(ch, 2, 2, seed=seed)
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2,
                       aux_card_u=2, seed=seed)
    for report in (*check_very_weak(ch, cfg), *check_strong_both(ch, cfg)):
        assert evaluate_condition_margin(ch, report.condition, report.witness) == report.margin_bits
    for direction, report in enumerate(check_genie_dominance(ch, vc, cfg), start=1):
        assert evaluate_genie_dominance_margin(ch, vc, direction, report.witness) == report.margin_bits


def test_every_witness_is_a_law():
    # Every slice of every witness sums to 1, the px_own rows of massless W
    # values included; the one-sided channels' first very-weak witnesses
    # have such values.
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=3, aux_card_u=2, seed=1)
    channels = [product_channel(0), product_channel(1), cross_revealing_channel(),
                random_channel(5, (2, 3, 2, 2)), random_channel(6, (3, 2, 2, 3))]
    massless = 0
    for ch in channels:
        vc = random_coupling(ch, 2, 2, seed=2)
        for report in (*check_very_weak(ch, cfg), *check_genie_dominance(ch, vc, cfg)):
            for slices in report.witness.values():
                assert (slices >= 0.0).all()
                np.testing.assert_allclose(slices.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
            if "pw" in report.witness:
                massless += int((report.witness["pw"] == 0.0).sum())
    assert massless > 0


class TestSingleDriver:
    def test_every_search_runs_through_search_objective(self, monkeypatch):
        """``regimes.search_objective`` is the only caller of ``maximize``:
        every other module's name for it fails when called."""
        original, calls = search.maximize, []

        def elsewhere(*args, **kwargs):
            raise AssertionError("search.maximize called outside regimes.search_objective")

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "icrates" or name.startswith("icrates."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, elsewhere)
        monkeypatch.setattr(regimes, "maximize", counted)

        ch = random_channel(7, (2, 2, 2, 2))
        vc = random_coupling(ch, 2, 2, seed=7)
        cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2,
                           aux_card_u=2)
        for run, want in (
            (lambda: check_very_weak(ch, cfg), 2),
            (lambda: check_strong_both(ch, cfg), 2),
            (lambda: certify_sum_capacity(ch, vc, cfg), 5),
            (lambda: region_scheme(ch, "tin", cfg), 1),
        ):
            calls.clear()
            run()
            assert len(calls) == want


class TestConfig:
    def test_grid_steps_bound(self):
        with pytest.raises(ConfigError):
            SearchConfig(grid_steps=1)

    @pytest.mark.parametrize("field,value", [
        ("violation_tol", float("nan")), ("violation_tol", float("inf")), ("violation_tol", 0.0),
        ("max_candidates", 0), ("max_candidates", -5),
    ])
    def test_vacuous_settings_are_refused(self, field, value):
        # A NaN or infinite tolerance would report every violation as
        # NO_VIOLATION_FOUND; an empty budget would fail later, in the grid.
        with pytest.raises(ConfigError, match=field):
            SearchConfig(**{field: value})

    def test_report_serializes(self):
        report = check_strong_at_y2(strong_pair_channel(), CFG)
        doc = report.to_json_dict()
        assert doc["condition"] == "strong_y2"
        assert "witness" in doc and "resolution" in doc


def _mi(joint: ProbTensor, target, second, given=()) -> float:
    return mutual_information(joint, InfoQuery.of(target, second, given))


def _reference(name: str, law: np.ndarray, q: np.ndarray, w: dict) -> float:
    """Each objective from the full joint of its laws, its terms written out."""
    if name in ("tin", "strong_y2", "strong_y1"):
        t = ProbTensor(("X1", "X2", "Y1", "Y2"),
                       np.einsum("i,j,ijkl->ijkl", w["px1"][0], w["px2"][0], law))
        return {
            "tin": _mi(t, "X1", "Y1") + _mi(t, "X2", "Y2"),
            "strong_y2": _mi(t, "X1", "Y1", "X2") - _mi(t, "X1", "Y2", "X2"),
            "strong_y1": _mi(t, "X2", "Y2", "X1") - _mi(t, "X2", "Y1", "X1"),
        }[name]
    if name in ("genie", "alignment_1", "alignment_2"):
        t = ProbTensor(("X1", "X2", "Y1", "Y2", "Yt1", "Yt2"),
                       np.einsum("i,j,ijklmn->ijklmn", w["px1"][0], w["px2"][0], q))
        return {
            "genie": _mi(t, "X1", ("Y1", "Yt1")) + _mi(t, "X2", ("Y2", "Yt2")),
            "alignment_1": _mi(t, "X1", "Yt1", "Y1"),
            "alignment_2": _mi(t, "X2", "Yt2", "Y2"),
        }[name]
    if name == "very_weak_1":
        t = ProbTensor(("W1", "X1", "X2", "Y1", "Y2"),
                       np.einsum("w,wi,j,ijkl->wijkl", w["pw"][0], w["px_own"], w["px_other"][0], law))
        return _mi(t, "W1", "Y2", "X2") - _mi(t, "W1", "Y1")
    if name == "very_weak_2":
        t = ProbTensor(("W2", "X1", "X2", "Y1", "Y2"),
                       np.einsum("w,wj,i,ijkl->wijkl", w["pw"][0], w["px_own"], w["px_other"][0], law))
        return _mi(t, "W2", "Y1", "X1") - _mi(t, "W2", "Y2")
    pu = w["pu"].reshape(law.shape[0], law.shape[1], -1)
    t = ProbTensor(("U", "X1", "X2", "Y1", "Y2", "Yt1", "Yt2"),
                   np.einsum("i,j,iju,ijklmn->uijklmn", w["px1"][0], w["px2"][0], pu, q))
    if name == "genie_dominance_1":
        return _mi(t, "U", "Y2", ("X2", "Yt2")) - _mi(t, "U", "Yt1", ("X2", "Yt2"))
    return _mi(t, "U", "Y1", ("X1", "Yt1")) - _mi(t, "U", "Yt2", ("X1", "Yt1"))


def _copy_coupling(sizes, seed: int, side: int) -> VirtualCoupling:
    """A coupling whose side output ``Yt<side>`` copies a cross output.

    For ``side == 1`` the channel's Y2 depends on X1 alone and ``Yt1 = Y2``,
    which stays correlated with Y1; ``side == 2`` is the mirror.  So unlike
    a product coupling, conditioning on a side output changes the terms.
    """
    nx1, nx2, ny1, ny2 = sizes
    rng = np.random.default_rng(seed)
    if side == 1:
        b = rng.dirichlet(np.ones(ny2), size=nx1)  # y2 | x1
        c = rng.dirichlet(np.ones(ny1), size=(nx1, nx2, ny2))  # y1 | x1, x2, y2
        law = np.einsum("il,ijlk->ijkl", b, c)
        t = rng.dirichlet(np.ones(2), size=nx2)
        q = np.einsum("ijkl,lm,jn->ijklmn", law, np.eye(ny2), t)
    else:
        a = rng.dirichlet(np.ones(ny1), size=nx2)  # y1 | x2
        c = rng.dirichlet(np.ones(ny2), size=(nx1, nx2, ny1))  # y2 | x1, x2, y1
        law = np.einsum("jk,ijkl->ijkl", a, c)
        t = rng.dirichlet(np.ones(2), size=nx1)
        q = np.einsum("ijkl,im,kn->ijklmn", law, t, np.eye(ny1))
    ch = DiscreteIC.from_array(law)
    return VirtualCoupling(ch, ProbTensor(("X1", "X2", "Y1", "Y2", "Yt1", "Yt2"), q))


def _dense_blocks(name: str, ch: DiscreteIC, cfg: SearchConfig) -> list:
    """The blocks of ``name``'s layout; for a dominance condition, the dense
    ``P(x1) P(x2) P(u|x1,x2)`` that witnesses take, built here from ``cfg``."""
    if "pu" not in OBJECTIVES[name][0].operands:
        return OBJECTIVES[name][0].blocks(ch, cfg)
    return [SimplexBlock("px1", 1, ch.nx1, cfg.grid_steps), SimplexBlock("px2", 1, ch.nx2, cfg.grid_steps),
            SimplexBlock("pu", ch.nx1 * ch.nx2, cfg.aux_card_u, cfg.cond_grid_steps)]


class TestObjectiveTable:
    NAMES = ("tin", "genie", "alignment_1", "alignment_2", "strong_y2", "strong_y1",
             "very_weak_1", "very_weak_2", "genie_dominance_1", "genie_dominance_2")

    def test_names(self):
        assert set(OBJECTIVES) == set(self.NAMES)

    @pytest.mark.parametrize("coupling", ["product", "copy_y2", "copy_y1"])
    @pytest.mark.parametrize("sizes", [(2, 3, 2, 3), (3, 2, 3, 2), (2, 3, 3, 2), (3, 3, 2, 2)])
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_scalar_reference(self, name, sizes, coupling):
        if coupling == "product":
            vc = random_coupling(random_channel(sum(sizes), sizes), 2, 3, seed=5)
        else:
            vc = _copy_coupling(sizes, sum(sizes), 1 if coupling == "copy_y2" else 2)
        ch = vc.base
        cfg = SearchConfig(aux_card_w=3, aux_card_u=3)
        law = vc.joint_law if name.startswith(("genie", "alignment")) else ch.law
        rng = np.random.default_rng(len(name))
        batch = {b.name: rng.dirichlet(np.ones(b.k), size=(6, b.n_slices))
                 for b in _dense_blocks(name, ch, cfg)}
        first = next(iter(batch.values()))
        first[0, 0] = np.eye(first.shape[2])[0]  # a point mass: zero entries
        values = objective(name, law)(batch)
        for row in range(6):
            w = {k: v[row] for k, v in batch.items()}
            want = _reference(name, ch.law.values, vc.joint_law.values, w)
            assert values[row] == pytest.approx(want, abs=1e-12)
            assert evaluate_objective(name, law, w) == pytest.approx(values[row], abs=1e-12)

    @pytest.mark.parametrize("size", [1, 7, 4096])
    @pytest.mark.parametrize("name", NAMES)
    def test_equals_the_composition_through_mi(self, name, size):
        # The objective compiles its rows once and takes every entropy in one
        # fused pass; its values must be the signed running total of the
        # terms ``max((h_tg + h_sg) - h_g - h_tsg, 0)`` over the rows once
        # the joint's entropies come from the same pass (the same subsets in
        # the same order).
        ch = random_channel(11, (2, 3, 3, 2))
        vc = random_coupling(ch, 2, 2, seed=4)
        law = vc.joint_law if name.startswith(("genie", "alignment")) else ch.law
        layout, rows = OBJECTIVES[name]
        rng = np.random.default_rng(size)
        batch = {b.name: rng.dirichlet(np.ones(b.k), size=(size, b.n_slices))
                 for b in _dense_blocks(name, ch, SearchConfig(aux_card_w=3, aux_card_u=2))}
        first = next(iter(batch.values()))
        first[0, 0] = np.eye(first.shape[2])[0]  # a point mass: zero entries
        subs, out = layout.expr.split("->")
        cards = {c: law.card(n) for c, n in zip(out[1:], layout.names) if n in law.names}
        ops = [batch[op].reshape(size, *(cards.get(c, -1) for c in sub[1:]))
               for op, sub in zip(layout.operands, subs.split(","))]
        bj = BatchJoint(layout.names, np.einsum(layout.expr, *ops), law)
        bj.entropies(TermTable([rows]).keys)
        want = 0.0
        for sign, t in rows:
            want = want + composed_mi(bj, t) if sign > 0 else want - composed_mi(bj, t)
        got = objective(name, law)(batch)
        assert got.shape == (size,)
        assert (got == want).all()


class TestDominanceSearch:
    """The dominance conditions search ``P(u|x_own)``; their witnesses are the
    dense ``P(u|x1,x2)`` that ``pu`` lifts to, scored by the same objective."""

    NAMES = ("genie_dominance_1", "genie_dominance_2")

    @pytest.mark.parametrize("coupling", ["product", "copy_y2", "copy_y1"])
    @pytest.mark.parametrize("sizes", [(2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 2, 2)])
    @pytest.mark.parametrize("name", NAMES)
    def test_lifted_witness_scores_the_same_under_the_dense_form(self, name, sizes, coupling):
        if coupling == "product":
            vc = random_coupling(random_channel(sum(sizes), sizes), 2, 3, seed=5)
        else:
            vc = _copy_coupling(sizes, sum(sizes), 1 if coupling == "copy_y2" else 2)
        ch, law = vc.base, vc.joint_law
        layout = OBJECTIVES[name][0]
        rng = np.random.default_rng(sum(sizes))
        batch = {b.name: rng.dirichlet(np.ones(b.k), size=(6, b.n_slices))
                 for b in layout.blocks(ch, SearchConfig(aux_card_u=3))}
        own = ch.nx1 if name.endswith("1") else ch.nx2
        assert batch["pu"].shape == (6, own, 3)
        values = objective(name, law)(batch)
        for row in range(6):
            point = {k: v[row] for k, v in batch.items()}
            dense = layout.lift(point)
            assert dense["pu"].shape == (ch.nx1 * ch.nx2, 3)
            pu = dense["pu"].reshape(ch.nx1, ch.nx2, 3)
            for x1, x2 in np.ndindex(ch.nx1, ch.nx2):  # rows in (x1, x2) order
                assert (pu[x1, x2] == point["pu"][x1 if name.endswith("1") else x2]).all()
            alone = evaluate_objective(name, law, point)
            assert evaluate_objective(name, law, dense) == alone
            assert alone == pytest.approx(values[row], abs=1e-12)
            want = _reference(name, ch.law.values, law.values, dense)
            assert alone == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(NAMES),
           sizes=st.sampled_from([(2, 2, 2, 2), (2, 2, 3, 2), (2, 3, 2, 2), (2, 3, 2, 3)]),
           coupling=st.sampled_from(["product", "copy_y2", "copy_y1"]),
           seed=st.integers(0, 2**16), steps=st.integers(2, 4), cond=st.integers(1, 4),
           card_u=st.integers(2, 3))
    # Two channels whose best grid points hold U off the vertices: a reduced
    # search coarser than the dense grid falls short on them.
    @example(name="genie_dominance_1", sizes=(2, 2, 2, 2), coupling="copy_y1", seed=3, steps=4,
             cond=4, card_u=2)
    @example(name="genie_dominance_2", sizes=(2, 2, 2, 2), coupling="product", seed=7, steps=4,
             cond=4, card_u=2)
    def test_dense_grid_never_beats_the_reduced_search(self, name, sizes, coupling, seed, steps,
                                                       cond, card_u):
        cfg = SearchConfig(grid_steps=steps, cond_grid_steps=cond, restarts=0, aux_card_u=card_u)
        if coupling == "product":
            vc = random_coupling(random_channel(seed, sizes), 2, 2, seed=seed)
        else:
            vc = _copy_coupling(sizes, seed, 1 if coupling == "copy_y2" else 2)
        dense = _dense_blocks(name, vc.base, cfg)
        assume(grid_size(dense) <= 40_000)
        score = objective(name, vc.joint_law)
        dense_max = max(float(score(batch).max()) for _, batch in iter_grid_batches(dense))
        layout = OBJECTIVES[name][0]
        res = maximize(score, layout.blocks(vc.base, cfg), cfg, labels=layout.labels)
        # A reduced point lifts to a dense one at the same steps, and the
        # objective is linear in px_other: the two grid maxima agree.
        assert abs(dense_max - res.grid_value) <= 1e-9
        assert res.grid_value <= res.value + 1e-12
