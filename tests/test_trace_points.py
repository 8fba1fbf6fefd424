"""Every library name the benchmark's tracer wraps must exist under that name.

``icbench/tracing.py`` replaces each ``(owner, attribute)`` of its
``patch_points`` for a traced round; a refactor that drops or renames one of
them would otherwise only show up as a failed traced benchmark run.
"""

import argparse
import importlib.util
from pathlib import Path

import icrates.cli
import icrates.gaussian
import icrates.probtensor
import icrates.regimes
import icrates.regions
import icrates.search
import icrates.sumcap
import icrates.verify
from icrates import GaussianIC, SearchConfig, random_channel

TRACING = Path(__file__).resolve().parents[1] / "icbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("icbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = argparse.Namespace(
    cli=icrates.cli, gaussian=icrates.gaussian, probtensor=icrates.probtensor,
    regimes=icrates.regimes, regions=icrates.regions, search=icrates.search,
    sumcap=icrates.sumcap, verify=icrates.verify)


def test_every_patch_point_resolves():
    tracing = load_tracing()
    points = tracing.patch_points(MODULES, tracing.Tracer())
    assert points
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _ in points
               if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))]
    assert missing == []


def test_gaussian_region_work_reaches_traced_names():
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        icrates.regions.region_gaussian(GaussianIC(0.5, 0.25, 1.0, 2.0), "semijoint", splits=3)
    assert tr.counts["gaussian.split_calls"] > 0
    assert tr.counts["gaussian.mi_calls"] > 0


def test_traced_region_counts_every_law():
    # The engine scores each distinct law once; the tracer still sees them all.
    ch = random_channel(3, (2, 2, 2, 2))
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        region = icrates.regions.region_scheme(ch, "hk", cfg)
    assert tr.counts["regions.laws"] == region.meta["laws_enumerated"] > 0


def test_traced_ascent_counts_and_keeps_reports():
    ch = random_channel(7, (2, 2, 2, 2))
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
    plain = icrates.regimes.check_very_weak(ch, cfg)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        traced = icrates.regimes.check_very_weak(ch, cfg)
    assert tr.counts["search.project_calls"] > 0
    assert tr.counts["search.ascent_evals"] > 0
    assert [r.to_json_dict() for r in traced] == [r.to_json_dict() for r in plain]


def test_traced_suite_family_counts_every_law():
    # The suite families build their derived members through regions.relayer;
    # tracing them must change no document and still count every law.
    cfg = SearchConfig(grid_steps=2, cond_grid_steps=1, restarts=1, aux_card_w=2)
    plain = icrates.verify.verify_strong_y2_equivalence(trials=1, seed=3, cfg=cfg)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        traced = icrates.verify.verify_strong_y2_equivalence(trials=1, seed=3, cfg=cfg)
    assert traced.to_json_dict() == plain.to_json_dict()
    assert tr.counts["regions.laws"] == traced.records[0]["laws_checked"] > 0
    # The suite enumerates its family through a traced name.
    assert any(name == "regions.family" for _, _, name, *_ in tr.spans)
