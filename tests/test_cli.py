import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import icrates
from icrates import SearchConfig, cli, random_channel, save_channel, search
from icrates.channels import random_coupling, save_coupling
from icrates.cli import main
from icrates.errors import ConfigError
from icrates.gaussian import CERTIFICATE_SEARCH_POINTS
from icrates.regimes import OBJECTIVES


@pytest.fixture
def channel_file(tmp_path):
    path = tmp_path / "ch.json"
    save_channel(random_channel(3, (2, 2, 2, 2)), path)
    return str(path)


@pytest.fixture
def coupling_file(tmp_path):
    ch = random_channel(3, (2, 2, 2, 2))
    path = tmp_path / "vc.json"
    save_coupling(random_coupling(ch, 2, 2, seed=1), path)
    return str(path)


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"type":"gaussian","a":0.5,"b":0.4,"p1":1.0,"p2":1.0}\n')
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


FAST = ["--grid", "4", "--cgrid", "2", "--restarts", "1", "--aux-w", "2"]


class TestCommands:
    def test_classify_discrete(self, capsys, channel_file):
        code, out = run(capsys, "classify", channel_file, *FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "classify"
        assert doc["one_sided"] in ("none", "side_a", "side_b")
        assert doc["config"]["grid_steps"] == 4

    def test_classify_one_sided_file(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        m1 = rng.dirichlet(np.ones(2), size=(2, 2))
        m2 = rng.dirichlet(np.ones(2), size=2)
        from icrates import DiscreteIC

        ch = DiscreteIC.from_array(np.einsum("ijk,jl->ijkl", m1, m2))
        path = tmp_path / "os.json"
        save_channel(ch, path)
        code, out = run(capsys, "classify", str(path), *FAST)
        assert code == 0
        assert json.loads(out)["one_sided"] == "side_a"

    def test_gaussian_sumcap_example(self, capsys):
        code, out = run(capsys, "gaussian", "sumcap", "--a", "0", "--b", "0",
                        "--p1", "1", "--p2", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["in_regime"] is True
        assert doc["sum_capacity_bits"] == pytest.approx(1.0)

    def test_gaussian_regime_and_region(self, capsys, tmp_path):
        code, out = run(capsys, "gaussian", "regime", "--a", "0.5", "--b", "0.4",
                        "--p1", "1", "--p2", "1")
        assert code == 0
        assert "noisy_gaussian" in json.loads(out)
        csv_path = tmp_path / "front.csv"
        code, out = run(capsys, "gaussian", "region", "--a", "0.2", "--b", "0.1",
                        "--p1", "1", "--p2", "1", "--scheme", "semijoint",
                        "--splits", "5", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "theta_deg,h_bits,r1,r2"
        assert len(lines) == 92

    def test_gaussian_hk_region(self, capsys):
        code, out = run(capsys, "gaussian", "region", "--a", "0.3", "--b", "0.2",
                        "--p1", "2", "--p2", "3", "--scheme", "hk", "--splits", "5")
        doc = json.loads(out)
        assert code == 0 and doc["scheme"] == "hk" and doc["config"]["splits"] == 5
        assert doc["region"]["max_sumrate_bits"] >= doc["region"]["support_bits"][0]

    def test_region_json_and_csv(self, capsys, channel_file, tmp_path):
        out_path = tmp_path / "region.json"
        csv_path = tmp_path / "region.csv"
        code, _ = run(capsys, "region", channel_file, "--scheme", "tin", *FAST,
                      "--out", str(out_path), "--csv", str(csv_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["scheme"] == "tin"
        assert len(doc["region"]["support_bits"]) == 91

    def test_sumrate(self, capsys, channel_file):
        code, out = run(capsys, "sumrate", channel_file, *FAST)
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["tin_bits"] <= 2.0
        assert "optimal_input" in doc

    def test_outer_and_certify(self, capsys, channel_file, coupling_file):
        code, out = run(capsys, "outer", channel_file, "--virtual", coupling_file,
                        *FAST, "--aux-u", "2")
        assert code == 0
        outer = json.loads(out)["outer_bits"]
        code, out = run(capsys, "certify", channel_file, "--virtual", coupling_file,
                        *FAST, "--aux-u", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] in ("CERTIFIED", "OUTER_ONLY", "INCONCLUSIVE")
        assert doc["tin_bits"] <= outer + 1e-9

    def test_verify_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "lemma1", "--trials", "25", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "lemma1"
        assert doc["failures"] == 0


class TestDefaults:
    def test_flagless_verify_runs_the_suite_config(self, capsys):
        from icrates.serialize import stable_json_dumps
        from icrates.verify import verify_one_sided_reduction

        code, out = run(capsys, "verify", "one_sided_regions", "--trials", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["cfg"]["aux_card_w"] == 2
        assert "region_tol" not in doc["config"]["cfg"]
        library = verify_one_sided_reduction(trials=1).to_json_dict()
        assert out == stable_json_dumps({"command": "verify", **library})

    def test_flagless_verify_runs_the_suite_trials(self, capsys):
        from icrates.serialize import stable_json_dumps
        from icrates.verify import verify_telescoping

        code, out = run(capsys, "verify", "lemma1")
        assert code == 0
        assert out == stable_json_dumps({"command": "verify", **verify_telescoping().to_json_dict()})
        code, out = run(capsys, "verify", "gaussian_regimes")
        assert code == 0
        assert json.loads(out)["trials"] == 1000

    def test_flag_overrides_suite_config(self, capsys):
        code, out = run(capsys, "verify", "one_sided_regions", "--trials", "1", "--aux-w", "3",
                        "--grid", "4")
        assert code == 0
        cfg = json.loads(out)["config"]["cfg"]
        assert (cfg["aux_card_w"], cfg["grid_steps"], cfg["cond_grid_steps"]) == (3, 4, 4)

    def test_verify_tol_sets_only_the_suite_tolerance(self, capsys):
        import dataclasses

        from icrates.serialize import stable_json_dumps
        from icrates.verify import SUITE_CONFIG, run_suite, verify_very_weak_equivalence

        code, out = run(capsys, "verify", "very_weak_regions", "--trials", "1", "--tol", "1e-2",
                        *FAST)
        assert code == 0
        assert json.loads(out)["config"]["cfg"]["violation_tol"] == 1e-06
        cfg = dataclasses.replace(SUITE_CONFIG, grid_steps=4, cond_grid_steps=2, restarts=1)
        library = run_suite("very_weak_regions", 1, cfg.seed, cfg, tol=1e-2).to_json_dict()
        assert out == stable_json_dumps({"command": "verify", **library})
        # --seed sets the suite seed and the config's seed alike, as README says.
        code, out = run(capsys, "verify", "very_weak_regions", "--trials", "1", "--seed", "7", *FAST)
        assert code == 0 and json.loads(out)["config"]["cfg"]["seed"] == 7
        library = verify_very_weak_equivalence(trials=1, seed=7, cfg=dataclasses.replace(cfg, seed=7))
        assert out == stable_json_dumps({"command": "verify", **library.to_json_dict()})

    def test_flagless_gaussian_region_equals_library_call(self, capsys):
        from icrates.channels import GaussianIC
        from icrates.regions import region_gaussian
        from icrates.serialize import stable_json_dumps

        code, out = run(capsys, "gaussian", "region", "--a", "0.3", "--b", "0.2",
                        "--p1", "1.5", "--p2", "1", "--scheme", "semijoint")
        assert code == 0
        region = region_gaussian(GaussianIC(a=0.3, b=0.2, p1=1.5, p2=1.0), "semijoint")
        doc = json.loads(out)
        assert doc["region"] == json.loads(stable_json_dumps(region.to_json_dict()))
        assert doc["config"] == {"splits": region.meta["splits"], "angles": region.meta["angles"]}

    def test_region_flags_resolve_against_search_config(self, capsys, channel_file):
        code, out = run(capsys, "sumrate", channel_file)
        assert code == 0
        cfg = json.loads(out)["config"]
        assert cfg["aux_card_w"] is None and cfg["grid_steps"] == 8 and cfg["seed"] == 0


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region", "somefile", "--scheme", "not_a_scheme"])
        assert exc.value.code == 2

    def test_validation_error_is_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type":"discrete","nx1":1,"nx2":1,"ny1":2,"ny2":1,"p":[[[[0.5],[0.4]]]]}')
        assert main(["classify", str(bad)]) == 3

    def test_missing_file_is_three(self, capsys):
        assert main(["classify", "/nonexistent/file.json"]) == 3

    def test_suite_failures_are_one(self, capsys, monkeypatch):
        real = cli.run_suite

        def failing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), failures=1)

        monkeypatch.setattr(cli, "run_suite", failing)
        code, out = run(capsys, "verify", "lemma1", "--trials", "2", "--seed", "1")
        assert code == 1 and json.loads(out)["failures"] == 1

    def test_serialization_error_is_three(self, capsys, monkeypatch, tmp_path):
        # The document is written by `main` inside its error handler, so a
        # value the stable format refuses exits 3 and writes nothing.
        monkeypatch.setattr(cli, "noisy_sum_capacity", lambda g: float("nan"))
        out = tmp_path / "sumcap.json"
        argv = ["gaussian", "sumcap", "--a", "0.1", "--b", "0.1", "--p1", "1", "--p2", "1"]
        assert main([*argv, "--out", str(out)]) == 3
        assert "[VALIDATION_ERROR]" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("command", [["classify", "CH"], ["verify", "very_weak_regions"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_vacuous_tol_is_three_before_any_search(self, capsys, channel_file, monkeypatch,
                                                    command, tol):
        def search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "check_very_weak", search)
        monkeypatch.setattr(cli, "run_suite", search)
        argv = [channel_file if a == "CH" else a for a in command]
        assert main([*argv, f"--tol={tol}"]) == 3
        captured = capsys.readouterr()
        assert "[INVALID_CONFIG]" in captured.err and "violation_tol" in captured.err
        assert captured.out == ""

    def test_over_budget_grid_is_three(self, capsys, tmp_path):
        # |U| = 30 on a 3x3 channel: even one step per block leaves 3 * 3 * 30**3 points.
        ch = random_channel(4, (3, 3, 2, 2))
        cfg = SearchConfig(aux_card_u=30)
        one_step = [dataclasses.replace(b, steps=1)
                    for b in OBJECTIVES["genie_dominance_1"][0].blocks(ch, cfg)]
        assert search.grid_size(one_step) == 3 * 3 * 30**3 > cfg.max_candidates
        ch_path, vc_path = tmp_path / "ch.json", tmp_path / "vc.json"
        save_channel(ch, ch_path)
        save_coupling(random_coupling(ch, 2, 2, seed=4), vc_path)
        assert main(["certify", str(ch_path), "--virtual", str(vc_path), "--aux-u", "30"]) == 3
        captured = capsys.readouterr()
        assert "[SIZE_LIMIT_EXCEEDED]" in captured.err and "--aux-u" in captured.err
        assert captured.out == ""


class TestOutOfRange:
    """Out-of-range resolution input exits 3 instead of a traceback or a
    vacuous pass."""

    @pytest.mark.parametrize("argv", [
        ["classify", "CH", "--seed", "-1"],
        ["region", "CH", "--scheme", "tin", "--seed", "-1"],
        ["verify", "lemma1", "--seed", "-1"],
        ["verify", "lemma1", "--trials", "-1"],
        ["verify", "very_weak_regions", "--trials", "-1"],
        ["verify", "gaussian_regimes", "--trials", "-1"],
        ["gaussian", "region", "--a", "0.4", "--b", "0.3", "--p1", "1", "--p2", "1",
         "--angles", "1"],
    ])
    def test_exits_three(self, capsys, channel_file, argv):
        assert main([channel_file if a == "CH" else a for a in argv]) == 3
        assert "[INVALID_CONFIG]" in capsys.readouterr().err


class TestUnreadFlags:
    """A flag the command would ignore exits 3 instead of running without it."""

    @pytest.mark.parametrize("argv", [
        ["verify", "gaussian_regimes", "--trials", "3", "--tol", "5"],
        ["verify", "gaussian_regimes", "--trials", "3", "--grid", "4"],
        ["verify", "lemma1", "--grid", "4"],
        ["verify", "lemma1", "--angles", "3"],
        ["region", "CH", "--scheme", "tin", "--splits", "5"],
        ["region", "G", "--scheme", "tin", "--grid", "3"],
        ["region", "G", "--scheme", "tin", "--restarts", "9"],
        ["region", "G", "--scheme", "tin", "--seed", "1"],
        ["classify", "G", "--grid", "3"],
        ["classify", "G", "--restarts", "9"],
        ["classify", "G", "--angles", "5"],
        ["classify", "G", "--tol", "1e-3"],
    ])
    def test_exits_three(self, capsys, channel_file, gaussian_file, argv):
        files = {"CH": channel_file, "G": gaussian_file}
        assert main([files.get(a, a) for a in argv]) == 3
        assert "[INVALID_CONFIG]" in capsys.readouterr().err

    def test_verify_refuses_through_the_library_check(self, capsys):
        # The CLI and run_suite refuse an unread tolerance with one message.
        with pytest.raises(ConfigError) as exc:
            icrates.run_suite("gaussian_regimes", trials=3, seed=0, cfg=SearchConfig(), tol=0.5)
        assert main(["verify", "gaussian_regimes", "--trials", "3", "--tol", "0.5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"{exc.value}\n" and captured.out == ""

    def test_read_flags_still_run(self, capsys):
        code, out = run(capsys, "verify", "lemma1", "--trials", "3", "--seed", "1", "--tol", "1e-9")
        assert code == 0 and json.loads(out)["tolerance_bits"] == 1e-9
        code, out = run(capsys, "verify", "gaussian_regimes", "--trials", "3", "--seed", "2026")
        assert code in (0, 1) and json.loads(out)["config"]["seed"] == 2026

    def test_gaussian_classify_reports_the_config_it_ran(self, capsys, gaussian_file):
        code, out = run(capsys, "classify", gaussian_file)
        assert code == 0
        doc = json.loads(out)
        code, out = run(capsys, "gaussian", "regime", "--a", "0.5", "--b", "0.4", "--p1", "1", "--p2", "1")
        regime = json.loads(out)
        assert doc["config"] == regime["config"] == {"certificate_search_points": CERTIFICATE_SEARCH_POINTS}
        for key in ("very_weak_gaussian", "noisy_gaussian"):
            assert doc[key] == regime[key]
        # The reports' key order is the documents' order, also with a certificate.
        code, out = run(capsys, "gaussian", "regime", "--a", "0.2", "--b", "0.2", "--p1", "1", "--p2", "1")
        noisy = json.loads(out)["noisy_gaussian"]
        assert list(json.loads(out)["very_weak_gaussian"]) == ["in_regime", "margin1", "margin2"]
        assert list(noisy) == ["in_regime", "margin", "certificate", "search_feasible"]
        assert list(noisy["certificate"]) == ["eta1", "eta2", "rho1", "rho2"]

    def test_gaussian_region_file_reports_splits_and_angles(self, capsys, gaussian_file):
        code, out = run(capsys, "region", gaussian_file, "--scheme", "semijoint",
                        "--splits", "3", "--angles", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {"splits": 3, "angles": 5}
        code, out = run(capsys, "gaussian", "region", "--a", "0.5", "--b", "0.4", "--p1", "1",
                        "--p2", "1", "--scheme", "semijoint", "--splits", "3", "--angles", "5")
        assert json.loads(out)["region"] == doc["region"]


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys, channel_file):
        _, out1 = run(capsys, "classify", channel_file, *FAST)
        _, out2 = run(capsys, "classify", channel_file, *FAST)
        assert out1 == out2

    def test_files_byte_identical(self, capsys, channel_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "region", channel_file, "--scheme", "semijoint", *FAST, "--out", str(a))
        run(capsys, "region", channel_file, "--scheme", "semijoint", *FAST, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_requests_in_one_process_leak_nothing(self, capsys, channel_file, tmp_path):
        # A flag one request gives must not reach the next request in the
        # same process, and every document must be the one a fresh process
        # writes.
        flags = ["--grid", "4", "--cgrid", "2", "--restarts", "1"]
        requests = [
            ["classify", channel_file, *flags, "--aux-w", "3"],
            ["classify", channel_file, *flags],
            ["region", channel_file, "--scheme", "tin", *flags],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(icrates.__file__).parents[1])}
        docs = []
        for i, argv in enumerate(requests):
            here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
            assert main([*argv, "--out", str(here)]) == 0
            subprocess.run([sys.executable, "-m", "icrates.cli", *argv, "--out", str(fresh)],
                           env=env, check=True)
            assert here.read_bytes() == fresh.read_bytes()
            docs.append(json.loads(here.read_text()))
        assert docs[0]["config"]["aux_card_w"] == 3
        assert docs[1]["config"]["aux_card_w"] == SearchConfig().aux_card_w
