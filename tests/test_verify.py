import numpy as np
import pytest

from icrates import sumcap, verify
from icrates import (
    OneSided,
    SearchConfig,
    generate_regime_channel,
    is_one_sided,
    telescoping_gap,
)
from icrates.channels import channel_digest
from icrates.errors import ConfigError, DimensionMismatchError
from icrates.probtensor import ProbTensor
from icrates.verify import (
    random_identity_joint,
    run_suite,
    verify_gaussian_regimes,
    verify_one_sided_reduction,
    verify_strong_y2_equivalence,
    verify_sumrate_collapse,
    verify_telescoping,
    verify_very_weak_equivalence,
)

CFG = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2, seed=0)


class TestTelescoping:
    def test_single_letter_is_trivial(self):
        joint = random_identity_joint(1, 2, 2, seed=0)
        assert telescoping_gap(joint, 1) <= 1e-12

    def test_iid_product_with_independent_side(self):
        # blocks of i.i.d. symbols, side variable independent
        n, ny, na = 3, 2, 2
        rng = np.random.default_rng(1)
        p1 = rng.dirichlet(np.ones(ny))
        p2 = rng.dirichlet(np.ones(ny))
        pa = rng.dirichlet(np.ones(na))
        joint = np.ones((1,))
        for _ in range(n):
            joint = np.multiply.outer(joint, p1)
        for _ in range(n):
            joint = np.multiply.outer(joint, p2)
        joint = np.multiply.outer(joint, pa)[0]
        names = [f"Y1_{t}" for t in range(1, 4)] + [f"Y2_{t}" for t in range(1, 4)] + ["A"]
        t = ProbTensor(tuple(names), joint)
        assert telescoping_gap(t, 3) <= 1e-12

    def test_random_joints_exact(self):
        for seed in range(25):
            joint = random_identity_joint(3, 2, 2, seed=seed)
            assert telescoping_gap(joint, 3) <= 1e-9

    def test_wrong_axes_rejected(self):
        joint = random_identity_joint(2, 2, 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            telescoping_gap(joint, 3)

    def test_suite_clean(self):
        out = verify_telescoping(trials=50, seed=4)
        assert out.ok
        assert out.worst_gap <= 1e-9


class TestGenerators:
    def test_one_sided_exact(self):
        ch = generate_regime_channel("one_sided", 3, CFG)
        assert is_one_sided(ch) == OneSided.SIDE_A

    def test_very_weak_accepted(self):
        from icrates import check_very_weak
        from icrates.regimes import NO_VIOLATION_FOUND

        ch = generate_regime_channel("very_weak", 1, CFG)
        r1, r2 = check_very_weak(ch, CFG)
        assert r1.status == NO_VIOLATION_FOUND
        assert r2.status == NO_VIOLATION_FOUND

    def test_strong_y2_contains_input_copy(self):
        ch = generate_regime_channel("strong_y2", 2, CFG)
        # Y2's first index reveals X1 exactly
        law = ch.law.values
        nv = ch.ny2 // ch.nx1
        for x1 in range(ch.nx1):
            others = [u for u in range(ch.nx1) if u != x1]
            for u in others:
                assert law[x1, :, :, u * nv : (u + 1) * nv].max() == 0.0

    def test_deterministic_per_seed(self):
        a = generate_regime_channel("very_weak", 9, CFG)
        b = generate_regime_channel("very_weak", 9, CFG)
        assert channel_digest(a) == channel_digest(b)
        c = generate_regime_channel("very_weak", 10, CFG)
        assert channel_digest(a) != channel_digest(c)


class TestSuites:
    def test_very_weak_equivalence_small(self):
        out = verify_very_weak_equivalence(trials=2, seed=7, cfg=CFG)
        assert out.ok
        assert out.worst_gap <= 5e-3
        assert all(r["per_law_violations"] == 0 for r in out.records)

    def test_sumrate_collapse_small(self):
        out = verify_sumrate_collapse(trials=2, seed=7, cfg=CFG)
        assert out.ok

    def test_strong_y2_small(self):
        out = verify_strong_y2_equivalence(trials=2, seed=7, cfg=CFG)
        assert out.ok
        assert all(r["per_law_violations"] == 0 for r in out.records)

    def test_one_sided_small(self):
        out = verify_one_sided_reduction(trials=2, seed=7, cfg=CFG)
        assert out.ok
        assert all(r["w1_crossoutput_mi_worst_bits"] <= 1e-9 for r in out.records)

    @pytest.mark.parametrize(
        "suite", ["very_weak_regions", "very_weak_sumrate", "strong_y2_regions", "one_sided_regions"])
    def test_region_suites_stay_exact_at_the_acceptance_configuration(self, suite):
        # The suites pass at 5e-3 bits; their gaps and per-law excesses sit
        # near 1e-13 and 1e-15, so a rounding change large enough to matter
        # shows here long before it reaches the suite tolerance.
        cfg = SearchConfig(grid_steps=8, cond_grid_steps=4, restarts=4, aux_card_w=2, seed=2026)
        out = run_suite(suite, trials=4, seed=2026, cfg=cfg, tol=5e-3)
        assert out.ok and out.trials == 4
        for r in out.records:
            worst = {k: v for k, v in r.items() if k == "gap_bits" or "worst" in k}
            assert "gap_bits" in worst
            assert all(v < 1e-9 for v in worst.values()), worst

    @pytest.mark.parametrize(
        "suite", ["very_weak_regions", "strong_y2_regions", "one_sided_regions"])
    def test_region_suites_count_every_law(self, suite, monkeypatch):
        spec = verify._REGION_SUITES[suite]
        ch = generate_regime_channel(spec.regime, 7 * 1000, CFG)
        enumerated = sum(int(counts.sum()) for *_, counts in verify.scheme_family(ch, spec.family, CFG))
        clean = run_suite(suite, trials=1, seed=7, cfg=CFG, tol=5e-3).records[0]
        # Every relation fails at every law: each law counts once as a violation.
        monkeypatch.setattr(verify, "_excess", lambda bounds, rel: np.ones(len(bounds[rel[0]])))
        broken = run_suite(suite, trials=1, seed=7, cfg=CFG, tol=5e-3).records[0]
        assert clean["laws_checked"] == broken["laws_checked"] == enumerated
        assert broken["per_law_violations"] == enumerated * len(spec.relations)

    def test_sumrate_collapse_searches_tin_once_per_trial(self, monkeypatch):
        calls = []
        search = sumcap._tin_search

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(sumcap, "_tin_search", counted)
        verify_sumrate_collapse(trials=2, seed=2026)
        assert len(calls) == 2

    def test_gaussian_suite_seed_114(self):
        # Its sample 305 sits just outside the guard band (margin 0.0054).
        assert verify_gaussian_regimes(samples=1000, seed=114).ok

    def test_gaussian_suite(self):
        out = verify_gaussian_regimes(samples=300, seed=3)
        assert out.ok
        kinds = {r.get("kind") for r in out.records}
        assert "strictness_witness" in kinds

    def test_reproducible(self):
        a = verify_very_weak_equivalence(trials=1, seed=5, cfg=CFG)
        b = verify_very_weak_equivalence(trials=1, seed=5, cfg=CFG)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_vacuous_tolerance_is_refused_before_any_trial(self, tol, monkeypatch):
        # No gap exceeds NaN or inf, so such a suite could never fail.
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(verify, "generate_regime_channel", trial)
        monkeypatch.setattr(verify, "random_identity_joint", trial)
        for name in verify.SUITES:
            with pytest.raises(ConfigError, match="tol"):
                run_suite(name, trials=1, seed=0, cfg=CFG, tol=tol)
        for suite in (verify_telescoping, verify_very_weak_equivalence, verify_sumrate_collapse,
                      verify_strong_y2_equivalence, verify_one_sided_reduction):
            with pytest.raises(ConfigError, match="tol"):
                suite(trials=1, tol=tol)

    def test_unread_tol_is_refused_before_any_trial(self, monkeypatch):
        # gaussian_regimes has no tolerance: a tol given to it would be dropped.
        def trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(verify, "verify_gaussian_regimes", trial)
        with pytest.raises(ConfigError, match="gaussian_regimes does not read tol"):
            run_suite("gaussian_regimes", trials=3, seed=0, cfg=verify.SUITE_CONFIG, tol=0.5)

    def test_run_suite_dispatch(self):
        out = run_suite("lemma1", trials=20, seed=0)
        assert out.name == "lemma1"
        assert out.ok
        # A cfg given to a suite that reads none is refused, not dropped.
        for name in ("lemma1", "gaussian_regimes"):
            with pytest.raises(ConfigError, match=f"{name} does not read cfg"):
                run_suite(name, trials=1, seed=0, cfg=CFG)
        with pytest.raises(DimensionMismatchError):
            run_suite("nope", trials=1, seed=0, cfg=CFG, tol=None)
