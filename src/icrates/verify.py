"""Numerical verification suites for the equivalence results.

Each suite generates desk-scale channel instances inside a target regime,
builds the competing rate characterizations over one shared input-law
family (augmented with derived members that are provably legal points of
each union), and asserts two kinds of facts:

- *exact per-law inequalities* -- the algebraic steps the equivalence
  proofs rest on -- at zero tolerance (1e-9 bits of float slack);
- *region-level support gaps* at the shared angle grid, within a stated
  tolerance (default 5e-3 bits).

Every suite is reproducible bit-for-bit from ``(seed, cfg)``.  Failure
records embed the channel content needed to replay the single trial.

Caveat inherited by all generated-channel suites: regime membership of a
generated instance is certified by the classifier's search, i.e. at a
finite resolution, not globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channels import DiscreteIC, GaussianIC, OneSided, channel_digest, is_one_sided
from .errors import ConfigError, DimensionMismatchError, GenerationExhaustedError
from .gaussian import noisy_sum_capacity, tin_rates
from .probtensor import BatchJoint, InfoQuery, ProbTensor, entropy
from .regimes import (
    NO_VIOLATION_FOUND,
    check_noisy_gaussian,
    check_strong_at_y2,
    check_strong_both,
    check_very_weak,
    check_very_weak_gaussian,
)
# batch_joint and layered_family are unused here; icbench/tracing.py patches
# them, and the suites' scheme_family and batch_bounds, under this module's names.
from .regions import (  # noqa: F401
    FAMILIES,
    Constraint,
    Source,
    batch_bounds,
    batch_joint,
    hausdorff_support_gap,
    layered_family,
    max_sumrate,
    region_scheme,
    scheme_family,
    source,
    union_over_batches,
)
from .search import SearchConfig
from .sumcap import tin_sumrate

GENERATOR_CAVEAT = (
    "regime membership of generated channels is certified by search at the "
    "configured resolution, not globally"
)

_REGIME_TAGS = {"very_weak": 101, "strong_y2": 102, "strong_both": 103, "one_sided": 104}

#: Candidates :func:`generate_regime_channel` draws before it gives up.
MAX_REJECTS = 1000

#: Noisy-regime margin (bits) outside which closed form and search must agree.
GAUSSIAN_REGIME_GUARD = 5e-3


@dataclass(frozen=True)
class VerifyOutcome:
    """Aggregate of one suite run; ``ok`` iff no trial exceeded tolerance."""

    name: str
    trials: int
    failures: int
    worst_gap: float
    tolerance: float
    records: tuple[dict, ...] = field(repr=False)
    config: dict = field(repr=False, default_factory=dict)
    caveat: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_gap_bits": self.worst_gap,
            "tolerance_bits": self.tolerance,
            "caveat": self.caveat,
            "records": list(self.records),
            "config": self.config,
        }


def _check_tol(tol: float) -> None:
    """Refuse, before any trial, a suite tolerance no gap could exceed."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError("tol must be finite and >= 0", tol=tol)


# ---------------------------------------------------------------------------
# Entropy telescoping identity
# ---------------------------------------------------------------------------


def telescoping_gap(joint: ProbTensor, n: int) -> float:
    """Gap of the block-entropy-difference telescoping identity.

    For a joint over ``(Y1_1..Y1_n, Y2_1..Y2_n, A)`` the identity states

        H(Y1 block | A) - H(Y2 block | A)
            = sum_t [ H(Y1_t | U_t, A) - H(Y2_t | U_t, A) ]

    with ``U_t`` the past of the first block joined with the future of the
    second.  The identity is exact for any joint; the returned absolute
    gap is floating-point noise only.
    """
    if n < 1:
        raise DimensionMismatchError("n must be >= 1", n=n)
    y1 = [f"Y1_{t}" for t in range(1, n + 1)]
    y2 = [f"Y2_{t}" for t in range(1, n + 1)]
    expected = set(y1) | set(y2) | {"A"}
    if set(joint.names) != expected:
        raise DimensionMismatchError(
            "joint must cover exactly the two blocks and A",
            have=sorted(joint.names),
            expected=sorted(expected),
        )
    lhs = entropy(joint, InfoQuery.of(y1, given="A")) - entropy(
        joint, InfoQuery.of(y2, given="A")
    )
    rhs = 0.0
    for t in range(1, n + 1):
        u_t = y1[: t - 1] + y2[t:]
        rhs += entropy(joint, InfoQuery.of(y1[t - 1], given=[*u_t, "A"]))
        rhs -= entropy(joint, InfoQuery.of(y2[t - 1], given=[*u_t, "A"]))
    return abs(lhs - rhs)


def random_identity_joint(n: int, ny: int, na: int, seed: int) -> ProbTensor:
    """Seeded Dirichlet joint over two length-``n`` blocks and one extra axis."""
    names = tuple(
        [f"Y1_{t}" for t in range(1, n + 1)] + [f"Y2_{t}" for t in range(1, n + 1)] + ["A"]
    )
    shape = (ny,) * (2 * n) + (na,)
    rng = np.random.default_rng(np.random.SeedSequence([0x1DE17, seed]))
    raw = rng.gamma(1.0, size=shape)
    return ProbTensor(names, raw / raw.sum())


def verify_telescoping(
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
    n: int = 3,
    ny: int = 2,
    na: int = 2,
) -> VerifyOutcome:
    """Exactness of the telescoping identity on random joints."""
    _check_tol(tol)
    records = []
    failures = 0
    worst = 0.0
    for t in range(trials):
        joint = random_identity_joint(n, ny, na, seed=seed * 100003 + t)
        gap = telescoping_gap(joint, n)
        worst = max(worst, gap)
        rec = {"trial": t, "gap_bits": gap}
        if gap > tol:
            failures += 1
            rec["joint"] = joint.values.tolist()
        records.append(rec)
    return VerifyOutcome(
        name="lemma1",
        trials=trials,
        failures=failures,
        worst_gap=worst,
        tolerance=tol,
        records=tuple(records),
        config={"seed": seed, "n": n, "ny": ny, "na": na},
    )


# ---------------------------------------------------------------------------
# Regime-targeted channel generation
# ---------------------------------------------------------------------------


def _informative_rows(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic matrix with a dominant diagonal (flip mass <= 0.25)."""
    flip = rng.uniform(0.05, 0.25, size=n_in)
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    out = np.zeros((n_in, n_out))
    for i in range(n_in):
        out[i] = flip[i] * rows[i]
        out[i, i % n_out] += 1.0 - flip[i]
    return out


def _construct(regime: str, rng: np.random.Generator, sizes: Sequence[int]) -> DiscreteIC:
    nx1, nx2, ny1, ny2 = sizes
    if regime == "one_sided":
        m1 = rng.dirichlet(np.ones(ny1), size=(nx1, nx2))
        m2 = rng.dirichlet(np.ones(ny2), size=nx2)
        law = np.einsum("ijk,jl->ijkl", m1, m2)
        return DiscreteIC.from_array(law)
    if regime == "very_weak":
        p1 = _informative_rows(rng, nx1, ny1)
        p2 = _informative_rows(rng, nx2, ny2)
        c1 = rng.dirichlet(np.ones(ny1), size=nx2)
        c2 = rng.dirichlet(np.ones(ny2), size=nx1)
        eps1, eps2 = rng.uniform(0.02, 0.08, size=2)
        m1 = (1.0 - eps1) * p1[:, np.newaxis, :] + eps1 * c1[np.newaxis, :, :]
        m2 = (1.0 - eps2) * p2[np.newaxis, :, :] + eps2 * c2[:, np.newaxis, :]
        law = np.einsum("ijk,ijl->ijkl", m1, m2)
        return DiscreteIC.from_array(law)
    if regime == "strong_y2":
        if ny2 % nx1 != 0:
            raise DimensionMismatchError("strong_y2 needs ny2 divisible by nx1", sizes=tuple(sizes))
        nv = ny2 // nx1
        noise = _informative_rows(rng, nx2, nv)
        m1 = rng.dirichlet(np.ones(ny1), size=(nx1, nx2))
        law = np.zeros((nx1, nx2, ny1, ny2))
        for x1 in range(nx1):
            for x2 in range(nx2):
                for v in range(nv):
                    law[x1, x2, :, x1 * nv + v] = m1[x1, x2] * noise[x2, v]
        return DiscreteIC.from_array(law)
    if regime == "strong_both":
        npair = nx1 * nx2
        if ny1 != npair or ny2 != npair:
            raise DimensionMismatchError(
                "strong_both needs ny1 == ny2 == nx1*nx2", sizes=tuple(sizes)
            )
        perm1 = rng.permutation(npair)
        perm2 = rng.permutation(npair)
        law = np.zeros((nx1, nx2, ny1, ny2))
        for x1 in range(nx1):
            for x2 in range(nx2):
                pair = x1 * nx2 + x2
                law[x1, x2, perm1[pair], perm2[pair]] = 1.0
        return DiscreteIC.from_array(law)
    raise DimensionMismatchError("unknown regime", regime=regime)


def _accept(regime: str, ch: DiscreteIC, cfg: SearchConfig) -> bool:
    if regime == "one_sided":
        return is_one_sided(ch) == OneSided.SIDE_A
    if regime == "very_weak":
        r1, r2 = check_very_weak(ch, cfg)
        return r1.status == NO_VIOLATION_FOUND and r2.status == NO_VIOLATION_FOUND
    if regime == "strong_y2":
        return check_strong_at_y2(ch, cfg).status == NO_VIOLATION_FOUND
    if regime == "strong_both":
        ra, rb = check_strong_both(ch, cfg)
        return ra.status == NO_VIOLATION_FOUND and rb.status == NO_VIOLATION_FOUND
    raise DimensionMismatchError("unknown regime", regime=regime)


def default_sizes(regime: str) -> tuple[int, int, int, int]:
    if regime == "strong_y2":
        return (2, 2, 2, 4)
    if regime == "strong_both":
        return (2, 2, 4, 4)
    return (2, 2, 2, 2)


def generate_regime_channel(
    regime: str,
    seed: int,
    cfg: SearchConfig = SearchConfig(),
    sizes: Sequence[int] | None = None,
) -> DiscreteIC:
    """Seeded rejection sampler for channels inside one regime.

    Construction targets the regime structurally (cross links pass through
    an explicit bottleneck); the classifier then filters at ``cfg``
    resolution.  Deterministic per ``(regime, seed)``.
    """
    if regime not in _REGIME_TAGS:
        raise DimensionMismatchError("unknown regime", regime=regime)
    sizes = tuple(sizes) if sizes is not None else default_sizes(regime)
    for attempt in range(MAX_REJECTS):
        rng = np.random.default_rng(
            np.random.SeedSequence([_REGIME_TAGS[regime], int(seed), attempt])
        )
        ch = _construct(regime, rng, sizes)
        if _accept(regime, ch, cfg):
            return ch
    raise GenerationExhaustedError(
        "no acceptable channel found", regime=regime, seed=seed, attempts=MAX_REJECTS
    )


# ---------------------------------------------------------------------------
# Equivalence suites as data, run by one runner
# ---------------------------------------------------------------------------

#: Default configuration of the generated-channel suites (regions at |W| = 2).
SUITE_CONFIG = SearchConfig(aux_card_w=2)

#: Per-law relation ``(scheme, column, op, scheme or None for zero, column)``
#: with ``op`` ``"<="`` or ``"=="``; its excess is ``lhs - rhs`` or
#: ``|lhs - rhs|`` in bits.
Relation = tuple[str, int, str, str | None, int]


@dataclass(frozen=True)
class RegionSuite:
    """A region-equivalence claim as data.

    ``regions`` maps region names to schemes, fed by the members of the
    ``family`` sources (as in :data:`regions.FAMILIES`); ``relations`` groups
    per-law relations under the record key that reports their worst excess;
    ``probes`` are extra constraint tables that relations may name; the
    suite's gap is the largest support gap over the ``compare`` pairs.
    """

    regime: str
    regions: Mapping[str, str]
    family: tuple[Source, ...]
    relations: Mapping[str, tuple[Relation, ...]]
    compare: tuple[tuple[str, str], ...]
    probes: Mapping[str, tuple[Constraint, ...]] = field(default_factory=dict)


#: Raw laws plus the two identity lifts ``W1 = X1`` of each law and of its
#: W2 collapse.  The lifts are the laws the strong-at-Y2 equivalence proof's
#: converse maps points into; including them closes the region comparison
#: exactly.
_LIFTS = ((), ((1, True),), ((2, False), (1, True)))

_REGION_SUITES: dict[str, RegionSuite] = {
    "very_weak_regions": RegionSuite(
        regime="very_weak",
        regions={"hk": "hk", "semijoint": "semijoint"},
        family=FAMILIES["hk"],  # every member feeds both regions
        relations={"per_law_worst_excess_bits": (
            ("hk", 4, "<=", "semijoint", 2),  # cross-conditioned sum vs both
            ("hk", 4, "<=", "semijoint", 3),  # two-step sum bounds
            ("hk", 0, "==", "semijoint", 0),
            ("hk", 1, "==", "semijoint", 1),
        )},
        compare=(("hk", "semijoint"),),
    ),
    "strong_y2_regions": RegionSuite(
        regime="strong_y2",
        regions={"hk": "hk", "hk_strong_y2": "hk_strong_y2"},
        # Every law feeds both regions (the reduced table has no W1 terms, so
        # its bounds at any law equal those at the law's W1 collapse, a legal
        # reduced-family member).
        family=(source("layered", *_LIFTS, tag=31), source("reduced", *_LIFTS, tag=32),
                source("anchor", *_LIFTS)),
        relations={"per_law_worst_excess_bits": (
            ("hk", 0, "==", "hk_strong_y2", 0),  # own-rate bounds coincide
            ("hk", 1, "<=", "hk_strong_y2", 1),  # R2 bound dominance
            ("hk", 3, "<=", "hk_strong_y2", 2),  # sum bound vs joint-output bound
            ("hk", 2, "<=", "hk_strong_y2", 3),  # sum bound vs mixed bound
            ("hk", 5, "<=", "hk_strong_y2", 4),  # 2R1+R2 dominance
        )},
        compare=(("hk", "hk_strong_y2"),),
    ),
    "one_sided_regions": RegionSuite(
        regime="one_sided",
        regions={"full": "hk", "forced": "hk", "reduced": "one_sided"},
        # Full laws feed the full and reduced regions; laws without a W1
        # layer also feed the forced-degenerate one.
        family=(Source("layered", (((), ("full", "reduced")), (((1, False),), None)), tag=41),
                source("reduced", (), tag=42), source("anchor", ())),
        relations={
            "per_law_worst_excess_bits": (
                ("hk", 0, "==", "one_sided", 0),
                ("hk", 1, "==", "one_sided", 1),
                ("hk", 2, "==", "one_sided", 2),
            ),
            "w1_crossoutput_mi_worst_bits": (("w1_leak", 0, "<=", None, 0),),
        },
        compare=(("full", "forced"), ("full", "reduced"), ("forced", "reduced")),
        probes={"w1_leak": ((0, 0, ((("W1",), ("Y2",), ()),)),)},
    ),
}


def _excess(bounds: Mapping[str, np.ndarray], rel: Relation) -> np.ndarray:
    lhs, lcol, op, rhs, rcol = rel
    diff = bounds[lhs][:, lcol] if rhs is None else bounds[lhs][:, lcol] - bounds[rhs][:, rcol]
    return np.abs(diff) if op == "==" else diff


def _outcome(
    name: str,
    records: list[dict],
    tol: float,
    cfg: SearchConfig,
    extra_cfg: Mapping[str, object] = (),
) -> VerifyOutcome:
    failures = sum(1 for r in records if r.get("failed"))
    worst = max((r.get("gap_bits", 0.0) for r in records), default=0.0)
    config = {"cfg": cfg.to_json_dict()}
    config.update(dict(extra_cfg))
    return VerifyOutcome(
        name=name,
        trials=len(records),
        failures=failures,
        worst_gap=worst,
        tolerance=tol,
        records=tuple(records),
        config=config,
        caveat=GENERATOR_CAVEAT,
    )


def _run_region_suite(
    name: str, trials: int, seed: int, cfg: SearchConfig, tol: float
) -> VerifyOutcome:
    """Run one :data:`_REGION_SUITES` entry.

    Per generated channel, the suite's regions come from one engine run over
    its family; a trial fails when the support gap exceeds ``tol`` or any
    per-law relation is exceeded by more than 1e-9 bits.  The family hands
    each relabelling orbit of W of a layered grid's laws over once, as one
    canonical law with the orbit's multiplicity (every relation compares
    bounds that a relabelling of W leaves unchanged), so ``laws_checked``
    and ``per_law_violations`` count every enumerated law.
    """
    _check_tol(tol)
    suite = _REGION_SUITES[name]
    records = []
    for t in range(trials):
        ch = generate_regime_channel(suite.regime, seed * 1000 + t, cfg)
        worst = dict.fromkeys(suite.relations, -math.inf)
        tally = {"laws": 0, "violations": 0}

        def hook(bj: BatchJoint, bounds: Mapping[str, np.ndarray], counts: np.ndarray) -> None:
            values = {**bounds, **{p: batch_bounds(bj, t) for p, t in suite.probes.items()}}
            for key, relations in suite.relations.items():
                excess = np.maximum.reduce([_excess(values, rel) for rel in relations])
                worst[key] = max(worst[key], float(excess.max()))
                tally["violations"] += int(counts[excess > 1e-9].sum())
            tally["laws"] += int(counts.sum())

        regions = union_over_batches(
            ch, suite.regions, scheme_family(ch, suite.family, cfg), cfg.angles, per_batch_hook=hook
        )
        gap = max(hausdorff_support_gap(regions[a], regions[b]) for a, b in suite.compare)
        failed = gap > tol or tally["violations"] > 0
        rec = {
            "trial": t,
            "digest": channel_digest(ch),
            "gap_bits": gap,
            "laws_checked": tally["laws"],
            "per_law_violations": tally["violations"],
            **worst,
            "failed": failed,
        }
        if failed:
            rec["channel"] = ch.to_json_dict()
        records.append(rec)
    return _outcome(name, records, tol, cfg, {"trials": trials, "seed": seed})


def verify_very_weak_equivalence(
    trials: int = 10,
    seed: int = 0,
    cfg: SearchConfig = SUITE_CONFIG,
    tol: float = 5e-3,
) -> VerifyOutcome:
    """Two-step-decoder region vs compact superposition region, very weak regime.

    Per generated channel: both regions over the same law family; support
    gap must stay within ``tol``.  Per enumerated law, the two sum-rate
    reductions that prove the inclusion of the compact region in the
    two-step region must hold at 1e-9 (their left side is the compact
    region's cross-conditioned sum constraint).
    """
    return _run_region_suite("very_weak_regions", trials, seed, cfg, tol)


def verify_sumrate_collapse(
    trials: int = 10,
    seed: int = 0,
    cfg: SearchConfig = SUITE_CONFIG,
    tol: float = 5e-3,
) -> VerifyOutcome:
    """Compact-region max sum rate vs interference-as-noise sum rate.

    Uses the same generated channels as the region-equivalence suite.  One
    TIN search per channel gives both the compared sum rate and the hk
    family's anchor.
    """
    _check_tol(tol)
    records = []
    for t in range(trials):
        ch = generate_regime_channel("very_weak", seed * 1000 + t, cfg)
        opt, tin = tin_sumrate(ch, cfg)
        hk_max = max_sumrate(region_scheme(ch, "hk", cfg, anchor=opt))
        gap = abs(hk_max - tin)
        failed = gap > tol or hk_max < tin - 1e-9
        rec = {
            "trial": t,
            "digest": channel_digest(ch),
            "hk_max_sumrate_bits": hk_max,
            "tin_sumrate_bits": tin,
            "gap_bits": gap,
            "failed": failed,
        }
        if failed:
            rec["channel"] = ch.to_json_dict()
        records.append(rec)
    return _outcome("very_weak_sumrate", records, tol, cfg, {"trials": trials, "seed": seed})


def verify_strong_y2_equivalence(
    trials: int = 10,
    seed: int = 0,
    cfg: SearchConfig = SUITE_CONFIG,
    tol: float = 5e-3,
) -> VerifyOutcome:
    """Compact region vs reduced strong-at-receiver-2 region.

    Every constructed law feeds both accumulators (the reduced table has no
    W1 terms, so its bounds at any law equal those at the law's W1
    collapse, a legal reduced-family member).  Per law, the four dominance
    inequalities that prove the compact region's inclusion in the reduced
    one are checked at 1e-9.
    """
    return _run_region_suite("strong_y2_regions", trials, seed, cfg, tol)


def verify_one_sided_reduction(
    trials: int = 10,
    seed: int = 0,
    cfg: SearchConfig = SUITE_CONFIG,
    tol: float = 5e-3,
) -> VerifyOutcome:
    """Compact region with/without a W1 layer vs the three-constraint region.

    On channels whose receiver 2 is interference-free, W1 is independent of
    (X2, Y2), so the forced-degenerate pipeline and the reduced table must
    match the full pipeline.  Checked per law at 1e-9: the W1 independence
    itself and the equality of the three binding bounds.
    """
    return _run_region_suite("one_sided_regions", trials, seed, cfg, tol)


def verify_gaussian_regimes(samples: int = 1000, seed: int = 0) -> VerifyOutcome:
    """Noisy-interference regime is strictly inside the very-weak regime.

    Over log-uniform draws of ``(a, b, P1, P2)``: every noisy-regime point
    must satisfy the very-weak conditions; at least one sampled point must
    witness strictness (very weak but not noisy); the closed-form noisy
    test must agree with the independent certificate search (outside a
    :data:`GAUSSIAN_REGIME_GUARD` band around the boundary); and the
    closed-form sum capacity must equal the Gaussian TIN value on in-regime
    points.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x6A55, seed]))
    gains = 10.0 ** rng.uniform(-2.0, 0.5, size=(samples, 2))
    powers = 10.0 ** rng.uniform(-1.0, 1.5, size=(samples, 2))
    records = []
    witness = None
    n_noisy = 0

    def fail(i: int, g: GaussianIC, kind: str, **extra: float) -> None:
        records.append({"sample": i, "a": g.a, "b": g.b, "p1": g.p1, "p2": g.p2,
                        "kind": kind, **extra, "failed": True})

    for i in range(samples):
        g = GaussianIC(a=float(gains[i, 0]), b=float(gains[i, 1]),
                       p1=float(powers[i, 0]), p2=float(powers[i, 1]))
        vw = check_very_weak_gaussian(g)
        noisy = check_noisy_gaussian(g, search_points=4096)
        if noisy.in_regime:
            n_noisy += 1
            if not vw.in_regime:
                fail(i, g, "containment_violation")
            cap = noisy_sum_capacity(g)
            r1, r2 = tin_rates(g)
            if cap is None or abs(cap - (r1 + r2)) > 1e-12:
                fail(i, g, "sumcap_mismatch")
        if vw.in_regime and not noisy.in_regime and witness is None:
            witness = {"a": g.a, "b": g.b, "p1": g.p1, "p2": g.p2,
                       "noisy_margin": noisy.margin}
        if abs(noisy.margin) > GAUSSIAN_REGIME_GUARD and noisy.in_regime != noisy.search_feasible:
            fail(i, g, "search_disagreement", margin=noisy.margin)
    if witness is None:
        records.append({"kind": "no_strictness_witness", "failed": True})
    else:
        records.append({"kind": "strictness_witness", "failed": False, **witness})
    return VerifyOutcome(
        name="gaussian_regimes",
        trials=samples,
        failures=sum(r["failed"] for r in records),
        worst_gap=0.0,
        tolerance=0.0,
        records=tuple(records),
        config={"seed": seed, "samples": samples, "noisy_in_regime_count": n_noisy,
                "guard": GAUSSIAN_REGIME_GUARD},
        caveat="",
    )


# ---------------------------------------------------------------------------
# Suite registry (CLI entry point)
# ---------------------------------------------------------------------------

Suite = Callable[..., VerifyOutcome]

SUITES: dict[str, Suite] = {
    "lemma1": verify_telescoping,
    "very_weak_regions": verify_very_weak_equivalence,
    "very_weak_sumrate": verify_sumrate_collapse,
    "strong_y2_regions": verify_strong_y2_equivalence,
    "one_sided_regions": verify_one_sided_reduction,
    "gaussian_regimes": verify_gaussian_regimes,
}


#: The request fields (``tol`` and ``SearchConfig`` fields) that each suite
#: reading no ``cfg`` reads; the region suites read every field.
SUITE_READS = {"lemma1": ("seed", "tol"), "gaussian_regimes": ("seed",)}


def refuse_unread(name: str, given: Iterable[str]) -> None:
    """``INVALID_CONFIG`` for any field in ``given`` that suite ``name`` does
    not read (:data:`SUITE_READS`), so that nothing given is dropped."""
    unread = [f for f in given if name in SUITE_READS and f not in SUITE_READS[name]]
    if unread:
        raise ConfigError(f"{name} does not read {', '.join(unread)}", suite=name, fields=unread)


def run_suite(name: str, trials: int | None, seed: int, cfg: SearchConfig | None = None,
              tol: float | None = None) -> VerifyOutcome:
    """Run one :data:`SUITES` entry; ``trials``, ``cfg`` and ``tol`` left None
    keep the suite's own trial count, config and tolerance.  ``lemma1``
    reads no ``cfg``, and ``gaussian_regimes`` neither ``cfg`` nor ``tol``:
    a given one is refused (:func:`refuse_unread`), ``tol`` first."""
    if name not in SUITES:
        raise DimensionMismatchError("unknown suite", suite=name, allowed=sorted(SUITES))
    if trials is not None and trials < 1:
        raise ConfigError("trials must be >= 1", trials=trials)
    if tol is not None:
        _check_tol(tol)
        refuse_unread(name, ["tol"])
    if cfg is not None:
        refuse_unread(name, ["cfg"])
    if name == "gaussian_regimes":
        return verify_gaussian_regimes(seed=seed, **({} if trials is None else {"samples": trials}))
    given = {"trials": trials, "tol": tol, "cfg": cfg}
    return SUITES[name](seed=seed, **{k: v for k, v in given.items() if v is not None})
