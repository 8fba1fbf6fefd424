import itertools
import math

import numpy as np
import pytest

from icrates import GaussianIC, check_noisy_gaussian, check_very_weak_gaussian
from icrates.cli import main
from icrates.errors import SizeLimitError
from icrates.gaussian import noisy_sum_capacity, split_system, tin_rates
from icrates.probtensor import SIZE_LIMIT
from icrates.regions import GAUSSIAN_SCHEMES, region_gaussian, table_for_scheme

NAMES = ("X1", "W1", "X2", "W2", "Y1", "Y2")
#: One channel each with a = 0, with b = 0, and with |a|, |b| > 1.
EDGE_CHANNELS = [GaussianIC(0.0, 0.8, 2.0, 1.5), GaussianIC(0.6, 0.0, 1.0, 3.0),
                 GaussianIC(-1.5, 2.5, 3.0, 0.5)]


def oracle_logdet(rows):
    """Greedy independent subset of the rows, then ``slogdet`` of its Gram matrix."""
    basis, kept = [], []
    for row in rows:
        v = row.copy()
        for b in basis:
            v -= (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10 * max(1.0, np.linalg.norm(row)):
            basis.append(v / norm)
            kept.append(row)
    if not kept:
        return 0.0
    m = np.array(kept)
    sign, logdet = np.linalg.slogdet(m @ m.T)
    assert sign > 0
    return logdet


class TestMiEngine:
    def test_point_to_point_closed_form(self):
        g = GaussianIC(a=0.4, b=0.3, p1=2.0, p2=1.5)
        sys = split_system(g, 0.0, 0.0)
        want = 0.5 * math.log2(1.0 + g.p1 / (1.0 + g.a**2 * g.p2))
        assert sys.mi_bits(("X1",), ("Y1",)) == pytest.approx(want, abs=1e-12)

    def test_conditioning_on_interferer(self):
        g = GaussianIC(a=0.6, b=0.2, p1=1.0, p2=3.0)
        sys = split_system(g, 0.0, 0.0)
        want = 0.5 * math.log2(1.0 + g.p1)  # cross term removed
        assert sys.mi_bits(("X1",), ("Y1",), ("X2",)) == pytest.approx(want, abs=1e-12)

    def test_quadrature_oracle(self):
        # independent check of the log-det algebra by numerical integration
        scipy_integrate = pytest.importorskip("scipy.integrate")
        g = GaussianIC(a=0.7, b=0.5, p1=1.3, p2=0.8)
        sys = split_system(g, 0.0, 0.0)

        def diff_entropy(var):
            def f(y):
                d = math.exp(-y * y / (2 * var)) / math.sqrt(2 * math.pi * var)
                return -d * math.log2(d) if d > 0 else 0.0

            val, _ = scipy_integrate.quad(f, -40, 40, limit=200)
            return val

        var_y1 = g.p1 + g.a**2 * g.p2 + 1.0
        var_y1_given_x1 = g.a**2 * g.p2 + 1.0
        oracle = diff_entropy(var_y1) - diff_entropy(var_y1_given_x1)
        assert sys.mi_bits(("X1",), ("Y1",)) == pytest.approx(oracle, abs=1e-6)

    def test_full_common_power_degenerates_to_inputs(self):
        g = GaussianIC(a=0.4, b=0.3, p1=2.0, p2=1.5)
        sys = split_system(g, 1.0, 1.0)
        # W determines X: private layers carry nothing
        assert sys.mi_bits(("X1",), ("Y1",), ("W1",)) <= 1e-12
        assert sys.mi_bits(("X1", "W2"), ("Y1",)) == pytest.approx(
            sys.mi_bits(("X1", "X2"), ("Y1",)), abs=1e-12
        )

    def test_zero_common_power_is_independent_layer(self):
        g = GaussianIC(a=0.4, b=0.3, p1=2.0, p2=1.5)
        sys = split_system(g, 0.0, 0.0)
        assert sys.mi_bits(("W1",), ("Y1",)) <= 1e-12
        assert sys.mi_bits(("X1", "W2"), ("Y1",)) == pytest.approx(
            sys.mi_bits(("X1",), ("Y1",)), abs=1e-12
        )

    @pytest.mark.parametrize("g", EDGE_CHANNELS)
    def test_batched_terms_equal_scalar_calls(self, g):
        lam = np.linspace(0.0, 1.0, 33)
        lam1, lam2 = np.meshgrid(lam, lam, indexing="ij")
        batched = split_system(g, lam1, lam2)
        terms = sorted({t for s in GAUSSIAN_SCHEMES for _, _, ts in table_for_scheme(s) for t in ts})
        values = {term: batched.mi_bits(*term) for term in terms}
        for i, j in np.ndindex(lam1.shape):
            alone = split_system(g, lam[i], lam[j])
            for term in terms:
                assert values[term][i, j] == alone.mi_bits(*term), (term, i, j)

    @pytest.mark.parametrize("g", EDGE_CHANNELS)
    def test_logdet_matches_slogdet_oracle(self, g):
        for lam1, lam2 in itertools.product((0.0, 1 / 32, 0.5, 1.0), repeat=2):
            sys = split_system(g, lam1, lam2)
            for r in range(len(NAMES) + 1):
                for names in itertools.combinations(NAMES, r):
                    want = oracle_logdet([sys.vector(n) for n in names])
                    assert sys._logdet(names) == pytest.approx(want, abs=1e-12), names

    def test_split_grid_past_the_size_budget_is_rejected(self):
        # 528**2 systems of 6 x 6 coefficients exceed the 1e7-cell budget.
        g = GaussianIC(0.5, 0.25, 1.0, 2.0)
        with pytest.raises(SizeLimitError):
            region_gaussian(g, "semijoint", splits=528)
        with pytest.raises(SizeLimitError):
            split_system(g, np.zeros(SIZE_LIMIT // 36 + 1), 0.0)
        assert main(["gaussian", "region", "--a", "0.5", "--b", "0.25", "--p1", "1", "--p2", "2",
                     "--scheme", "semijoint", "--splits", "2000"]) == 3


class TestRegimes:
    def test_no_interference_in_both(self):
        g = GaussianIC(a=0.0, b=0.0, p1=1.0, p2=1.0)
        assert check_very_weak_gaussian(g).in_regime
        assert check_noisy_gaussian(g).in_regime

    def test_very_weak_example(self):
        g = GaussianIC(a=0.6, b=0.6, p1=1.0, p2=1.0)
        report = check_very_weak_gaussian(g)
        assert report.in_regime
        assert report.margin1 == pytest.approx(1 / 1.36 - 0.36, abs=1e-12)

    def test_unit_gains_fail(self):
        g = GaussianIC(a=1.0, b=1.0, p1=1.0, p2=1.0)
        assert not check_very_weak_gaussian(g).in_regime
        assert not check_noisy_gaussian(g).in_regime

    def test_containment_sampled(self):
        rng = np.random.default_rng(17)
        strict_witness = False
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 0.3, size=2)
            p1, p2 = 10.0 ** rng.uniform(-1, 1.2, size=2)
            g = GaussianIC(a=a, b=b, p1=p1, p2=p2)
            noisy = check_noisy_gaussian(g, search_points=32)
            vw = check_very_weak_gaussian(g)
            if noisy.in_regime:
                assert vw.in_regime
            if vw.in_regime and not noisy.in_regime:
                strict_witness = True
        assert strict_witness

    def test_certificate_matches_constraints(self):
        g = GaussianIC(a=0.3, b=0.25, p1=1.5, p2=2.0)
        report = check_noisy_gaussian(g)
        assert report.in_regime and report.certificate is not None
        c = report.certificate
        # alignment equalities
        assert c.eta1 * c.rho1 == pytest.approx(g.a**2 * g.p2 + 1.0, abs=1e-12)
        assert c.eta2 * c.rho2 == pytest.approx(g.b**2 * g.p1 + 1.0, abs=1e-12)
        # noise budget
        assert abs(g.b * c.eta1) <= math.sqrt(1 - c.rho2**2) + 1e-12
        assert abs(g.a * c.eta2) <= math.sqrt(1 - c.rho1**2) + 1e-12

    def test_search_agrees_with_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = 10.0 ** rng.uniform(-2, 0.3, size=2)
            p1, p2 = 10.0 ** rng.uniform(-1, 1.2, size=2)
            g = GaussianIC(a=a, b=b, p1=p1, p2=p2)
            report = check_noisy_gaussian(g, search_points=64)
            if abs(report.margin) > 5e-3:
                assert report.in_regime == report.search_feasible

    def test_scan_covers_correlation_square(self):
        # Every pair the full 64 x 64 correlation grid accepts has its rho1
        # accepted by the one-dimensional scan at the same resolution.
        rng = np.random.default_rng(8)
        grid = np.linspace(1.0 / 64, 1.0, 64)
        r1, r2 = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(300):
            a, b = 10.0 ** rng.uniform(-2, 0.3, size=2)
            p1, p2 = 10.0 ** rng.uniform(-1, 1.2, size=2)
            k1, k2 = b**2 * p1 + 1.0, a**2 * p2 + 1.0
            square = (
                (b * k1 / r1 <= np.sqrt(1.0 - r2**2) + 1e-15)
                & (a * k2 / r2 <= np.sqrt(1.0 - r1**2) + 1e-15)
            ).any()
            report = check_noisy_gaussian(GaussianIC(a=a, b=b, p1=p1, p2=p2), search_points=64)
            assert report.search_feasible or not square

    def test_scan_finds_certificate_near_guard(self):
        # Sample 305 of `verify gaussian_regimes --seed 114` lies 0.0054 inside
        # the noisy regime, just outside the 5e-3 guard band.
        rng = np.random.default_rng(np.random.SeedSequence([0x6A55, 114]))
        gains = 10.0 ** rng.uniform(-2.0, 0.5, size=(1000, 2))
        powers = 10.0 ** rng.uniform(-1.0, 1.5, size=(1000, 2))
        g = GaussianIC(a=gains[305, 0], b=gains[305, 1], p1=powers[305, 0], p2=powers[305, 1])
        report = check_noisy_gaussian(g, search_points=4096)
        assert 5e-3 < report.margin < 6e-3
        assert report.search_feasible


class TestSumCapacity:
    def test_unit_powers(self):
        assert noisy_sum_capacity(GaussianIC(0.0, 0.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_power_three(self):
        assert noisy_sum_capacity(GaussianIC(0.0, 0.0, 3.0, 3.0)) == pytest.approx(2.0)

    def test_out_of_regime_is_none(self):
        assert noisy_sum_capacity(GaussianIC(1.0, 1.0, 1.0, 1.0)) is None

    def test_monotone_in_power(self):
        vals = [
            noisy_sum_capacity(GaussianIC(0.1, 0.1, p, p)) for p in (0.5, 1.0, 2.0)
        ]
        assert all(v is not None for v in vals)
        assert vals[0] < vals[1] < vals[2]

    def test_equals_tin_closed_form(self):
        g = GaussianIC(a=0.2, b=0.15, p1=1.1, p2=0.9)
        r1, r2 = tin_rates(g)
        assert noisy_sum_capacity(g) == pytest.approx(r1 + r2, abs=1e-15)
