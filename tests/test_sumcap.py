import time

import numpy as np
import pytest

from icrates import (
    DiscreteIC,
    InfoQuery,
    ProductInput,
    SearchConfig,
    certify_sum_capacity,
    check_genie_alignment,
    check_genie_dominance,
    degenerate_coupling,
    entropy,
    maximize_genie_rate,
    outer_bound,
    random_channel,
    random_coupling,
    revealing_coupling,
    tin_sumrate,
)
from icrates import sumcap
from icrates.channels import X1, X2, Y1, Y2, YT1, YT2, VirtualCoupling, save_channel, save_coupling
from icrates.cli import main
from icrates.errors import ValidationError
from icrates.probtensor import ProbTensor
from icrates.regimes import NO_VIOLATION_FOUND, VIOLATED, RegimeReport
from icrates.search import SearchResult
from icrates.sumcap import (
    CERTIFIED,
    INCONCLUSIVE,
    OUTER_ONLY,
    _genie_search,
    _input_of,
    _tin_search,
    evaluate_genie_dominance_margin,
)
from tests.conftest import orthogonal_channel, product_channel

CFG = SearchConfig(grid_steps=8, cond_grid_steps=2, restarts=2, aux_card_u=2, seed=1)


class TestTinSumrate:
    def test_orthogonal_two_bits(self):
        opt, value = tin_sumrate(orthogonal_channel(), CFG)
        assert value == pytest.approx(2.0, abs=1e-9)
        np.testing.assert_allclose(opt.px1, [0.5, 0.5], atol=1e-6)

    def test_constant_outputs_zero(self):
        law = np.zeros((2, 2, 2, 2))
        law[:, :, 0, 0] = 1.0
        _, value = tin_sumrate(DiscreteIC.from_array(law), CFG)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_fine_grid_oracle(self):
        ch = random_channel(77, (2, 2, 2, 2))
        cfg16 = SearchConfig(grid_steps=16, restarts=2, seed=0)
        _, value = tin_sumrate(ch, cfg16)
        # brute-force oracle on a 64-step product grid
        grid = np.linspace(0.0, 1.0, 65)
        law = ch.law.values
        best = 0.0
        joint_y1 = law.sum(axis=3)
        joint_y2 = law.sum(axis=2)

        def mi(px, pygx):
            py = px @ pygx
            mask = pygx > 0
            terms = np.where(mask, pygx * np.log2(np.where(mask, pygx / py, 1.0)), 0.0)
            return float(px @ terms.sum(axis=1))

        for p in grid:
            px1 = np.array([p, 1 - p])
            for q in grid:
                px2 = np.array([q, 1 - q])
                py1_x1 = np.einsum("j,ijk->ik", px2, joint_y1)
                py2_x2 = np.einsum("i,ijl->jl", px1, joint_y2)
                best = max(best, mi(px1, py1_x1) + mi(px2, py2_x2))
        assert value == pytest.approx(best, abs=5e-3)

    def test_relabeling_invariance(self):
        ch = random_channel(9, (2, 2, 2, 2))
        flipped = DiscreteIC.from_array(ch.law.values[::-1, :, :, ::-1])
        _, v1 = tin_sumrate(ch, CFG)
        _, v2 = tin_sumrate(flipped, CFG)
        assert v1 == pytest.approx(v2, abs=1e-9)


class TestOuterBound:
    def test_degenerate_coupling_equals_tin(self):
        for seed in range(5):
            ch = random_channel(seed, (2, 2, 2, 2))
            vc = degenerate_coupling(ch)
            _, tin = tin_sumrate(ch, CFG)
            outer = outer_bound(ch, vc, CFG)
            assert outer == pytest.approx(tin, abs=1e-12)

    def test_outer_at_least_tin(self):
        for seed in range(10):
            ch = random_channel(seed, (2, 2, 2, 2))
            vc = random_coupling(ch, 2, 2, seed=seed)
            _, tin = tin_sumrate(ch, CFG)
            assert tin <= outer_bound(ch, vc, CFG) + 1e-9

    def test_revealing_coupling_hits_log_caps(self):
        ch = random_channel(4, (2, 2, 2, 2))
        vc = revealing_coupling(ch)
        assert outer_bound(ch, vc, CFG) == pytest.approx(2.0, abs=1e-9)

    def test_genie_search_deterministic(self):
        ch = random_channel(15, (2, 2, 2, 2))
        vc = random_coupling(ch, 2, 2, seed=3)
        o1, v1 = maximize_genie_rate(ch, vc, CFG)
        o2, v2 = maximize_genie_rate(ch, vc, CFG)
        assert v1 == v2
        np.testing.assert_array_equal(o1.px1, o2.px1)


class TestDominance:
    def test_default_aux_u_on_three_by_three_runs_within_budget(self):
        # |U| defaults to |X_own| = 3: each direction's grid is 45 * 45 * 15**3
        # points, coarsened to fit, and its witness is the dense P(u|x1,x2).
        ch = random_channel(4, (3, 3, 2, 2))
        vc = random_coupling(ch, 2, 2, seed=4)
        start = time.perf_counter()
        reports = check_genie_dominance(ch, vc, SearchConfig())
        assert time.perf_counter() - start < 10.0
        for direction, report in enumerate(reports, start=1):
            assert report.witness["pu"].shape == (9, 3)
            assert report.resolution["effective_steps"]["px1"] == 8
            again = evaluate_genie_dominance_margin(ch, vc, direction, report.witness)
            assert again == report.margin_bits

    def test_degenerate_coupling_violated_with_cross_dependence(self):
        # Y2 = X1 noiselessly: constant side outputs cannot dominate
        law = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                law[x1, x2, :, x1] = 0.5
        ch = DiscreteIC.from_array(law)
        vc = degenerate_coupling(ch)
        r1, _ = check_genie_dominance(ch, vc, CFG)
        assert r1.status == VIOLATED

    def test_copy_coupling_margin_zero(self):
        # Y1 depends only on X2, and the second side output copies Y1.
        rng = np.random.default_rng(0)
        m1 = rng.dirichlet(np.ones(2), size=2)  # y1 | x2
        m2 = rng.dirichlet(np.ones(2), size=2)  # y2 | x2
        law = np.einsum("jk,jl->jkl", m1, m2)[np.newaxis, :, :, :].repeat(2, axis=0)
        ch = DiscreteIC.from_array(law)
        # yt2 = y1 (valid: y1 depends on x2 only); yt1 constant
        q = np.zeros((2, 2, 2, 2, 1, 2))
        for y1 in range(2):
            q[:, :, y1, :, 0, y1] = law[:, :, y1, :]
        vc = VirtualCoupling(ch, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))
        _, r2 = check_genie_dominance(ch, vc, CFG)
        assert r2.status == NO_VIOLATION_FOUND
        assert abs(r2.margin_bits) <= 1e-9

    def test_witness_reproduces(self):
        ch = random_channel(6, (2, 2, 2, 2))
        vc = random_coupling(ch, 2, 2, seed=6)
        r1, r2 = check_genie_dominance(ch, vc, CFG)
        for direction, report in ((1, r1), (2, r2)):
            again = evaluate_genie_dominance_margin(ch, vc, direction, report.witness)
            assert again == pytest.approx(report.margin_bits, abs=1e-9)


class TestAlignment:
    def test_constant_side_outputs_are_aligned(self):
        # constant yt is a (trivial) deterministic function of y
        ch = random_channel(8, (2, 2, 2, 2))
        vc = degenerate_coupling(ch)
        opt = ProductInput(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        g1, g2 = check_genie_alignment(ch, vc, opt)
        assert g1 <= 1e-12 and g2 <= 1e-12

    def test_input_revealing_gap_is_residual_entropy(self):
        ch = product_channel(11)
        vc = revealing_coupling(ch)
        opt = ProductInput(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        g1, _ = check_genie_alignment(ch, vc, opt)
        # oracle: I(X1; X1 | Y1) = H(X1 | Y1) on the composed joint
        joint = np.einsum("i,j,ijkl->ijkl", opt.px1, opt.px2, ch.law.values)
        t = ProbTensor((X1, X2, Y1, Y2), joint)
        want = entropy(t, InfoQuery.of("X1", given="Y1"))
        assert g1 == pytest.approx(want, abs=1e-12)
        assert g1 > 1e-3

    def test_relabel_invariance(self):
        ch = random_channel(2, (2, 2, 2, 2))
        vc = random_coupling(ch, 2, 2, seed=9)
        opt = ProductInput(np.array([0.4, 0.6]), np.array([0.7, 0.3]))
        g = check_genie_alignment(ch, vc, opt)
        flipped = VirtualCoupling(
            ch, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), vc.joint_law.values[..., ::-1, :])
        )
        gf = check_genie_alignment(ch, flipped, opt)
        assert g[0] == pytest.approx(gf[0], abs=1e-12)


class TestCertify:
    def test_independent_channels_certified(self):
        ch = product_channel(0)
        # independent pair: strip the cross dependence of Y1 on X2 as well
        law = ch.law.values
        rng = np.random.default_rng(5)
        p1 = rng.dirichlet(np.ones(2), size=2)
        p2 = rng.dirichlet(np.ones(2), size=2)
        ch = DiscreteIC.from_array(np.einsum("ik,jl->ijkl", p1, p2))
        cert = certify_sum_capacity(ch, degenerate_coupling(ch), CFG)
        assert cert.verdict == CERTIFIED
        assert cert.tin_bits == pytest.approx(cert.outer_bits, abs=1e-9)

    def test_violating_coupling_inconclusive(self):
        law = np.zeros((2, 2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                law[x1, x2, :, x1] = 0.5
        ch = DiscreteIC.from_array(law)
        cert = certify_sum_capacity(ch, degenerate_coupling(ch), CFG)
        assert cert.verdict == INCONCLUSIVE
        assert any(r.status == VIOLATED for r in cert.dominance_reports)

    def test_tin_below_outer_randomized(self):
        for seed in range(10):
            ch = random_channel(seed + 50, (2, 2, 2, 2))
            vc = random_coupling(ch, 2, 2, seed=seed)
            cert = certify_sum_capacity(ch, vc, CFG)
            assert cert.tin_bits <= cert.outer_bits + 1e-9


def y1_ignores_x1_channel(seed: int) -> DiscreteIC:
    """``p(y1|x2) p(y2|x1,x2)``: receiver 1 sees only the interferer."""
    rng = np.random.default_rng(seed)
    m1 = rng.dirichlet(np.ones(2), size=2)
    m2 = rng.dirichlet(np.ones(2), size=(2, 2))
    return DiscreteIC.from_array(np.einsum("jk,ijl->ijkl", m1, m2))


class TestCouplingMismatch:
    def couplings(self):
        ch = random_channel(1, (2, 2, 2, 2))
        other_shape = random_coupling(random_channel(1, (2, 2, 3, 2)), 2, 2, seed=1)
        other_law = random_coupling(random_channel(3, (2, 2, 2, 2)), 2, 2, seed=1)
        return ch, (other_shape, other_law)

    def test_library_calls_reject_a_coupling_of_another_channel(self):
        ch, couplings = self.couplings()
        opt = ProductInput(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        for vc in couplings:
            for call in (lambda: certify_sum_capacity(ch, vc, CFG),
                         lambda: outer_bound(ch, vc, CFG),
                         lambda: check_genie_dominance(ch, vc, CFG),
                         lambda: check_genie_alignment(ch, vc, opt)):
                with pytest.raises(ValidationError, match="different channel"):
                    call()

    def test_cli_exits_three(self, capsys, tmp_path):
        ch, couplings = self.couplings()
        ch_path = tmp_path / "ch.json"
        save_channel(ch, ch_path)
        for i, vc in enumerate(couplings):
            vc_path = tmp_path / f"vc{i}.json"
            save_coupling(vc, vc_path)
            for cmd in ("certify", "outer"):
                code = main([cmd, str(ch_path), "--virtual", str(vc_path), "--grid", "4",
                             "--cgrid", "2", "--restarts", "1", "--aux-u", "2"])
                assert code == 3
                assert "VALIDATION_ERROR" in capsys.readouterr().err

    def test_coupling_within_mass_tolerance_accepted(self):
        ch = random_channel(1, (2, 2, 2, 2))
        law = ch.law.values.copy()
        law[0, 0, 0, 0] += 1e-12
        law[0, 0, 0, 1] -= 1e-12
        vc = random_coupling(DiscreteIC.from_array(law), 2, 2, seed=1)
        assert outer_bound(ch, vc, CFG) >= 0.0


def _dominance_report(status: str) -> RegimeReport:
    return RegimeReport("genie_dominance_1", status, 0.0, witness={}, resolution={})


class TestVerdictTable:
    """The verdict rows of :class:`SumCapacityCertificate`, as they stand."""

    @pytest.mark.parametrize("dominance_ok, alignment_ok, gap_ok, verdict", [
        (True, True, True, CERTIFIED),
        (True, True, False, INCONCLUSIVE),
        (True, False, True, OUTER_ONLY),
        (True, False, False, OUTER_ONLY),
        (False, True, True, INCONCLUSIVE),
        (False, True, False, INCONCLUSIVE),
        (False, False, True, INCONCLUSIVE),
        (False, False, False, INCONCLUSIVE),
    ])
    def test_verdict(self, monkeypatch, dominance_ok, alignment_ok, gap_ok, verdict):
        bad = 10 * CFG.violation_tol
        point = {"px1": np.array([[0.5, 0.5]]), "px2": np.array([[0.5, 0.5]])}
        tin = SearchResult(1.0, point, 1.0, 1, {})
        genie = SearchResult(1.0 if gap_ok else 1.0 + bad, point, 1.0, 1, {})
        dominance = _dominance_report(NO_VIOLATION_FOUND if dominance_ok else VIOLATED)
        monkeypatch.setattr(sumcap, "check_genie_dominance",
                            lambda ch, vc, cfg: (dominance, _dominance_report(NO_VIOLATION_FOUND)))
        monkeypatch.setattr(sumcap, "_tin_search", lambda ch, cfg, extra_candidates=(): tin)
        monkeypatch.setattr(sumcap, "_genie_search", lambda ch, vc, cfg, extra_candidates=(): genie)
        gap2 = 0.0 if alignment_ok else bad
        monkeypatch.setattr(sumcap, "objective", lambda name, law: lambda batch: np.full(
            len(batch["px1"]), gap2 if name == "alignment_2" else 0.0))
        ch = random_channel(0, (2, 2, 2, 2))
        assert certify_sum_capacity(ch, degenerate_coupling(ch), CFG).verdict == verdict


class TestNearOptima:
    def test_alignment_is_worst_over_every_near_optimum(self):
        ch = y1_ignores_x1_channel(2)
        vc = random_coupling(ch, 2, 2, seed=2)
        cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=2, aux_card_u=2, seed=1)
        cert = certify_sum_capacity(ch, vc, cfg)
        tin_first = _tin_search(ch, cfg)
        genie = _genie_search(ch, vc, cfg, extra_candidates=[_input_of(tin_first.point)])
        gaps = [check_genie_alignment(ch, vc, _input_of(p)) for _, p in genie.near_optima]
        assert cert.near_optima_checked == len(gaps) > 1
        assert cert.alignment_gaps == tuple(map(max, zip(*gaps)))
        assert cert.alignment_gaps != gaps[0]  # the maximizer alone would understate them
