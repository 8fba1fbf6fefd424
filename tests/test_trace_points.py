"""Every library name the benchmark's tracer wraps must exist under that name.

``icbench/tracing.py`` replaces each ``(owner, attribute)`` of its
``patch_points`` for a traced round; a refactor that drops or renames one of
them would otherwise only show up as a failed traced benchmark run.
"""

import argparse
import importlib.util
from pathlib import Path

import numpy as np

import icrates.cli
import icrates.gaussian
import icrates.probtensor
import icrates.regimes
import icrates.regions
import icrates.search
import icrates.sumcap
import icrates.verify
from icrates import GaussianIC, SearchConfig, random_channel, random_coupling
from tests.conftest import family_from_scratch, label_images

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


def test_grid_batches_are_index_and_batch_pairs():
    # The tracer's grid wrapper unpacks each item of iter_grid_batches as
    # exactly ``counts, batch`` and reads the first item's ``.size``.
    ch = random_channel(8, (2, 3, 2, 2))
    cfg = SearchConfig(grid_steps=2, cond_grid_steps=2, restarts=0, aux_card_w=3, aux_card_u=2)
    layout = icrates.regimes.OBJECTIVES["very_weak_1"][0]
    assert layout.labels
    blocks = layout.blocks(ch, cfg)
    for labels in ((), layout.labels):
        items = list(icrates.search.iter_grid_batches(blocks, chunk=7, labels=labels))
        assert items
        for item in items:
            assert type(item) is tuple and len(item) == 2
            assert isinstance(item[0], np.ndarray) and isinstance(item[1], dict)


def test_gaussian_region_work_reaches_traced_names():
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        icrates.regions.region_gaussian(GaussianIC(0.5, 0.25, 1.0, 2.0), "semijoint", splits=3)
    assert tr.counts["gaussian.split_calls"] > 0
    assert tr.counts["gaussian.mi_calls"] > 0


def _rows_and_laws(ch, family, cfg):
    """Rows the family's batches hold, and laws those rows stand for."""
    batches = list(icrates.regions.scheme_family(ch, family, cfg))
    return sum(len(c) for *_, c in batches), sum(int(c.sum()) for *_, c in batches)


def test_traced_region_counts_every_law():
    # regions.laws counts the laws scored, each distinct law of a layered
    # grid once; laws_enumerated still counts every law of the family.
    ch = random_channel(3, (2, 2, 2, 2))
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        region = icrates.regions.region_scheme(ch, "hk", cfg)
    family = icrates.regions.FAMILIES["hk"]
    size = {src.kind: icrates.search.grid_size(icrates.regions._source_blocks(ch, src, cfg))
            for src in family}
    members = [len(src.members) for src in family]  # layered, products, anchor
    every_law = (size["layered"] + cfg.restarts) * members[0] + size["products"] * members[1] + members[2]
    scored, laws = _rows_and_laws(ch, family, cfg)
    assert tr.counts["regions.laws"] == scored < laws == region.meta["laws_enumerated"] == every_law


def test_traced_region_document_equals_untraced():
    ch = random_channel(4, (3, 2, 2, 3))
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=2, aux_card_w=3)
    plain = icrates.regions.region_scheme(ch, "hk", cfg)
    tracing = load_tracing()
    with tracing.Patches(MODULES, tracing.Tracer()):
        traced = icrates.regions.region_scheme(ch, "hk", cfg)
    assert traced.to_json_dict() == plain.to_json_dict()


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
    # tracing them must change no document, count each scored law, and the
    # suite must still check every law.
    cfg = SearchConfig(grid_steps=2, cond_grid_steps=1, restarts=1, aux_card_w=2)
    plain = icrates.verify.verify_strong_y2_equivalence(trials=1, seed=3, cfg=cfg)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        traced = icrates.verify.verify_strong_y2_equivalence(trials=1, seed=3, cfg=cfg)
    assert traced.to_json_dict() == plain.to_json_dict()
    ch = icrates.verify.generate_regime_channel("strong_y2", 3 * 1000, cfg)
    family = icrates.verify._REGION_SUITES["strong_y2_regions"].family
    scored, laws = _rows_and_laws(ch, family, cfg)
    assert tr.counts["regions.laws"] == scored < laws == traced.records[0]["laws_checked"]
    # The suite enumerates its family through a traced name.
    assert any(name == "regions.family" for _, _, name, *_ in tr.spans)


def _distinct_laws(ch, stream):
    """Distinct laws ``q(w1,w2,x1,x2)`` of each (source, member), summed."""
    seen = {}
    for member, batch, _ in stream:
        q = icrates.regions.batch_joint(ch, batch).values.reshape(len(batch["pw1"]), -1)
        seen.setdefault(member, set()).update(row.tobytes() for row in q)
    return sum(len(laws) for laws in seen.values())


def test_traced_suite_family_scores_one_law_per_relabelling_orbit():
    # At |W| = 2 a relabelling of W maps grid laws onto grid laws; the
    # family is scored as its distinct canonical laws, fewer than its
    # distinct raw laws.
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        icrates.verify.verify_one_sided_reduction(trials=1, seed=3, cfg=cfg)
    ch = icrates.verify.generate_regime_channel("one_sided", 3 * 1000, cfg)
    family = icrates.verify._REGION_SUITES["one_sided_regions"].family
    canonical = _distinct_laws(ch, family_from_scratch(ch, family, cfg))
    raw = _distinct_laws(ch, family_from_scratch(ch, family, cfg, canonical=False))
    assert tr.counts["regions.laws"] == canonical < raw


def _canonical_count(name, ch, cfg):
    """Distinct loop-oracle images of the raw grid points ``name`` scans."""
    layout = icrates.regimes.OBJECTIVES[name][0]
    blocks = icrates.search.shrink_to_budget(layout.blocks(ch, cfg), cfg.max_candidates)
    seen = set()
    for _, batch in icrates.search.iter_grid_batches(blocks):
        image = label_images(batch, blocks, layout.labels)
        seen.update(zip(*([row.tobytes() for row in image[b.name]] for b in blocks)))
    return len(seen)


def test_traced_label_scans_count_canonical_points_in_one_grid_span():
    ch = random_channel(8, (2, 3, 2, 2))
    vc = random_coupling(ch, 2, 2, seed=8)
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=3, aux_card_u=2)
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        icrates.regimes.check_very_weak(ch, cfg)
        icrates.sumcap.check_genie_dominance(ch, vc, cfg)
    names = ["very_weak_1", "very_weak_2", "genie_dominance_1", "genie_dominance_2"]
    assert tr.counts["search.grid_points"] == sum(_canonical_count(n, ch, cfg) for n in names)
    span_names = {sid: name for sid, _, name, *_ in tr.spans}
    grids = [parent for _, parent, name, *_ in tr.spans if name == "search.grid"]
    assert len(grids) == tr.counts["search.maximize_calls"] == 4
    for parent in grids:  # no grid span inside another
        while parent != -1:
            assert span_names[parent] != "search.grid"
            parent = next(p for sid, p, *_ in tr.spans if sid == parent)


def test_traced_accumulator_counts_only_the_outer_adds(monkeypatch):
    # The first add into an empty accumulator enumerates a seed of its
    # polytopes before the corner skip; that pass must not go through the
    # traced add, so calls and rows count what the region passes to it.
    monkeypatch.setattr(icrates.regions, "_SEED_ROWS", 2)
    ch = random_channel(3, (2, 2, 2, 2))
    cfg = SearchConfig(grid_steps=4, cond_grid_steps=2, restarts=1, aux_card_w=2)
    batches = [counts for *_, counts in icrates.regions.scheme_family(ch, icrates.regions.FAMILIES["hk"], cfg)]
    assert len(batches[0]) > icrates.regions._SEED_ROWS
    tracing = load_tracing()
    tr = tracing.Tracer()
    with tracing.Patches(MODULES, tr):
        icrates.regions.region_scheme(ch, "hk", cfg)
    assert tr.counts["regions.accumulate_calls"] == len(batches)
    assert tr.counts["regions.accumulate_rows"] == sum(len(c) for c in batches)
