import json

import numpy as np
import pytest

from icrates import (
    DiscreteIC,
    GaussianIC,
    GaussianVirtualParams,
    InfoQuery,
    OneSided,
    VirtualCoupling,
    compose_joint,
    gaussian_virtual,
    is_one_sided,
    load_channel,
    load_coupling,
    mutual_information,
    output_marginals,
    random_channel,
    random_coupling,
    save_channel,
    save_coupling,
)
from icrates.channels import X1, X2, Y1, Y2, YT1, YT2
from icrates.errors import ParseError, SizeLimitError, ValidationError
from icrates.probtensor import ProbTensor
from icrates.regions import AuxInputDist
from tests.conftest import product_channel, xor_channel


#: Valid channel and coupling files; each parse-error case edits one field so
#: that it breaks a rule of the format: sizes are JSON integers, Gaussian
#: parameters JSON numbers, probability arrays numeric (``NaN`` and
#: ``Infinity`` are not JSON numbers).
DISCRETE = {"type": "discrete", "nx1": 1, "nx2": 1, "ny1": 2, "ny2": 1, "p": [[[[0.5], [0.5]]]]}
GAUSSIAN = {"type": "gaussian", "a": 0.5, "b": 0.4, "p1": 1, "p2": 1.0}
COUPLING = {"type": "coupling", "base": DISCRETE, "ny1t": 1, "ny2t": 1, "q": [[[[[[0.5]]], [[[0.5]]]]]]}
BAD_FILES = [
    (load_channel, "{not json"),
    (load_channel, '{"type":"weird"}'),
    (load_channel, '{"type":"gaussian","a":NaN,"b":0.4,"p1":1,"p2":1}'),
    (load_channel, '{"type":"discrete","nx1":1,"nx2":1,"ny1":2,"ny2":1,"p":[[[[NaN],[0.5]]]]}'),
    (load_coupling, json.dumps(COUPLING).replace("0.5", "Infinity", 1)),
    *((load_channel, json.dumps({**DISCRETE, **edit})) for edit in (
        {"nx1": 1.7}, {"nx1": "1"}, {"nx2": True}, {"ny1": 2.0}, {"ny2": None},
        {"p": [[[["0.5"], ["0.5"]]]]}, {"p": [[[[True], [False]]]]}, {"p": [[[[0.5], [0.5, 0.0]]]]},
    )),
    *((load_channel, json.dumps({**GAUSSIAN, **edit})) for edit in (
        {"a": "0.5"}, {"b": True}, {"p1": None}, {"p2": [1.0]},
    )),
    *((load_coupling, json.dumps({**COUPLING, **edit})) for edit in (
        {"ny1t": 1.0}, {"ny2t": "1"}, {"ny1t": False}, {"q": [[[[[["0.5"]]], [[["0.5"]]]]]]},
        {"base": {**DISCRETE, "nx1": 1.2}},
    )),
]


class TestFileIO:
    def test_discrete_roundtrip(self, tmp_path):
        ch = random_channel(4, (2, 3, 2, 2))
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert isinstance(back, DiscreteIC)
        np.testing.assert_allclose(back.law.values, ch.law.values, atol=1e-12)
        # second round trip is exact
        save_channel(back, tmp_path / "ch2.json")
        assert (tmp_path / "ch.json").read_bytes() == (tmp_path / "ch2.json").read_bytes()

    def test_gaussian_roundtrip(self, tmp_path):
        g = GaussianIC(a=0.5, b=0.4, p1=1.0, p2=1.0)
        save_channel(g, tmp_path / "g.json")
        back = load_channel(tmp_path / "g.json")
        assert back == g

    def test_bad_slice_sum_rejected(self, tmp_path):
        doc = '{"type":"discrete","nx1":1,"nx2":1,"ny1":2,"ny2":1,"p":[[[[0.5],[0.4]]]]}'
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValidationError):
            load_channel(path)

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        accepted = []
        for load, text in BAD_FILES:
            path.write_text(text)
            try:
                load(path)
            except ParseError:
                continue
            accepted.append(text)
        assert accepted == []

    def test_valid_files_load(self, tmp_path):
        path = tmp_path / "ok.json"
        for doc in (DISCRETE, GAUSSIAN, {**DISCRETE, "p": [[[[1], [0]]]]}):
            path.write_text(json.dumps(doc))
            load_channel(path)
        path.write_text(json.dumps(COUPLING))
        load_coupling(path)

    def test_coupling_roundtrip(self, tmp_path):
        ch = random_channel(9, (2, 2, 2, 2))
        vc = random_coupling(ch, 2, 3, seed=1)
        save_coupling(vc, tmp_path / "vc.json")
        back = load_coupling(tmp_path / "vc.json")
        np.testing.assert_allclose(back.joint_law.values, vc.joint_law.values, atol=1e-12)


class TestOneSided:
    def test_product_construction_is_side_a(self):
        rng = np.random.default_rng(2)
        m1 = rng.dirichlet(np.ones(2), size=(2, 2))
        m2 = rng.dirichlet(np.ones(3), size=2)
        law = np.einsum("ijk,jl->ijkl", m1, m2)
        assert is_one_sided(DiscreteIC.from_array(law)) == OneSided.SIDE_A

    def test_xor_channel_fully_coupled(self):
        assert is_one_sided(xor_channel()) == OneSided.NONE

    def test_side_b_mirror(self):
        rng = np.random.default_rng(3)
        m1 = rng.dirichlet(np.ones(2), size=2)        # y1 | x1
        m2 = rng.dirichlet(np.ones(2), size=(2, 2))    # y2 | x1, x2
        law = np.einsum("ik,ijl->ijkl", m1, m2)
        assert is_one_sided(DiscreteIC.from_array(law)) == OneSided.SIDE_B

    def test_side_a_kills_cross_information(self):
        ch = product_channel(1)
        for px1 in ([0.5, 0.5], [0.2, 0.8]):
            d = AuxInputDist(np.ones(1), np.ones(1), [px1], [[0.4, 0.6]])
            joint = compose_joint(d, ch)
            gap = mutual_information(joint, InfoQuery.of("X1", "Y2", "X2"))
            assert gap <= 1e-9


class TestOutputMarginals:
    def test_product_recovers_factors(self):
        rng = np.random.default_rng(5)
        m1 = rng.dirichlet(np.ones(2), size=(2, 2))
        m2 = rng.dirichlet(np.ones(2), size=2)
        law = np.einsum("ijk,jl->ijkl", m1, m2)
        p_y1, p_y2 = output_marginals(DiscreteIC.from_array(law))
        np.testing.assert_allclose(p_y1.values, m1, atol=1e-12)
        np.testing.assert_allclose(p_y2.values[0], m2, atol=1e-12)

    def test_deterministic_same_output(self):
        ch = xor_channel()
        p_y1, p_y2 = output_marginals(ch)
        np.testing.assert_allclose(p_y1.values, p_y2.values)

    def test_random_channel_marginals_normalized(self):
        ch = random_channel(8, (2, 3, 2, 4))
        p_y1, p_y2 = output_marginals(ch)
        np.testing.assert_allclose(p_y1.values.sum(axis=2), 1.0, atol=1e-9)
        np.testing.assert_allclose(p_y2.values.sum(axis=2), 1.0, atol=1e-9)


class TestGaussianVirtual:
    def test_zero_scales_feasible(self):
        g = GaussianIC(a=1.0, b=1.0, p1=1.0, p2=1.0)
        v = GaussianVirtualParams(eta1=0.0, eta2=0.0, rho1=0.3, rho2=-0.8)
        assert gaussian_virtual(g, v).feasible

    def test_full_correlation_infeasible(self):
        g = GaussianIC(a=0.5, b=0.5, p1=1.0, p2=1.0)
        v = GaussianVirtualParams(eta1=1.0, eta2=1.0, rho1=1.0, rho2=1.0)
        report = gaussian_virtual(g, v)
        assert not report.feasible
        assert report.margin1 < 0

    def test_half_gains_unit_scales(self):
        g = GaussianIC(a=0.5, b=0.5, p1=1.0, p2=1.0)
        v = GaussianVirtualParams(eta1=1.0, eta2=1.0, rho1=0.5, rho2=0.5)
        report = gaussian_virtual(g, v)
        assert report.feasible
        assert report.margin1 == pytest.approx(np.sqrt(0.75) - 0.5, abs=1e-12)

    def test_monotone_in_scale(self):
        g = GaussianIC(a=0.7, b=0.9, p1=1.0, p2=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho1, rho2 = rng.uniform(-1, 1, size=2)
            eta1, eta2 = rng.uniform(0, 2, size=2)
            big = gaussian_virtual(g, GaussianVirtualParams(eta1, eta2, rho1, rho2))
            small = gaussian_virtual(
                g, GaussianVirtualParams(eta1 * 0.5, eta2 * 0.5, rho1, rho2)
            )
            if big.feasible:
                assert small.feasible

    def test_rho_out_of_range(self):
        with pytest.raises(ValidationError):
            GaussianVirtualParams(eta1=0.0, eta2=0.0, rho1=1.5, rho2=0.0)


class TestRandomChannel:
    def test_deterministic(self):
        a = random_channel(7, (2, 2, 2, 2))
        b = random_channel(7, (2, 2, 2, 2))
        assert np.array_equal(a.law.values, b.law.values)

    def test_validates(self):
        ch = random_channel(1, (3, 2, 4, 2))
        assert ch.law.values.min() >= 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_rejected(self, bad):
        # A NaN cell used to pass validation and fail later in the search.
        law = random_channel(1, (2, 2, 2, 2)).law.values.copy()
        law[1, 0, 0, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            DiscreteIC.from_array(law)

    def test_seeds_differ(self):
        a = random_channel(1, (2, 2, 2, 2))
        b = random_channel(2, (2, 2, 2, 2))
        assert np.abs(a.law.values - b.law.values).max() > 1e-6

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            random_channel(0, (500, 500, 500, 500))


class TestVirtualCoupling:
    def test_random_coupling_invariants(self):
        ch = random_channel(3, (2, 2, 2, 2))
        vc = random_coupling(ch, 3, 2, seed=4)
        assert vc.nyt1 == 3 and vc.nyt2 == 2
        pt1, pt2 = vc.virtual_marginals()
        np.testing.assert_allclose(pt1.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(pt2.sum(axis=1), 1.0, atol=1e-9)

    def test_nonfactorizing_coupling_rejected(self):
        ch = xor_channel()
        # side outputs copy the true outputs, which depend on both inputs
        q = np.einsum("ijkl,km,ln->ijklmn", ch.law.values, np.eye(2), np.eye(2))
        with pytest.raises(ValidationError):
            VirtualCoupling(ch, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coupling_rejected(self, bad):
        ch = random_channel(5, (2, 2, 2, 2))
        q = random_coupling(ch, 2, 2, seed=5).joint_law.values.copy()
        q[0, 1, 1, 0, 1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            VirtualCoupling(ch, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))

    def test_wrong_base_marginal_rejected(self):
        ch = random_channel(5, (2, 2, 2, 2))
        other = random_channel(6, (2, 2, 2, 2))
        t1 = np.full((2, 2), 0.5)
        q = np.einsum("ijkl,iu,jv->ijkluv", other.law.values, t1, t1)
        with pytest.raises(ValidationError):
            VirtualCoupling(ch, ProbTensor((X1, X2, Y1, Y2, YT1, YT2), q))
