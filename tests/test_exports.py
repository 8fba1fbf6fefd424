import icrates
from icrates import regions, sumcap

#: Names the package no longer has: the one-law polytope API and its helpers
#: (every region runs through the batched constraint tables).
REMOVED = ("RatePolytope", "union_region", "polytope_hk", "polytope_hk_strong_y2",
           "polytope_one_sided", "polytope_semijoint")


def test_every_exported_name_resolves_once():
    assert len(set(icrates.__all__)) == len(icrates.__all__)
    for name in icrates.__all__:
        assert hasattr(icrates, name), name


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in icrates.__all__
        assert not hasattr(icrates, name) and not hasattr(regions, name), name
    for name in ("_polytope_from_table", "dist_batch_from_aux", "ALLOWED_DIRS"):
        assert not hasattr(regions, name), name
    assert not hasattr(sumcap, "gaussian_noisy_sumcap")
