"""Rate regions, regime classification, and sum-capacity certificates for
two-user interference channels (discrete memoryless and scalar Gaussian)."""

from .channels import (
    DiscreteIC,
    GaussianIC,
    GaussianVirtualParams,
    OneSided,
    VirtualCoupling,
    channel_digest,
    degenerate_coupling,
    gaussian_virtual,
    is_one_sided,
    load_channel,
    load_coupling,
    output_marginals,
    random_channel,
    random_coupling,
    revealing_coupling,
    save_channel,
    save_coupling,
)
from .errors import IcError
from .gaussian import noisy_sum_capacity as gaussian_noisy_sumcap
from .probtensor import (
    InfoQuery,
    ProbTensor,
    compose_joint,
    entropy,
    marginalize,
    mutual_information,
    require_valid,
    validate,
)
from .regimes import (
    NO_VIOLATION_FOUND,
    VIOLATED,
    RegimeReport,
    check_noisy_gaussian,
    check_strong_at_y2,
    check_strong_both,
    check_very_weak,
    check_very_weak_gaussian,
    evaluate_condition_margin,
)
from .regions import (
    AuxInputDist,
    RateRegion,
    equals,
    hausdorff_support_gap,
    includes,
    max_sumrate,
    region_gaussian,
    region_scheme,
)
from .search import SearchConfig
from .sumcap import (
    ProductInput,
    SumCapacityCertificate,
    certify_sum_capacity,
    check_genie_alignment,
    check_genie_dominance,
    maximize_genie_rate,
    outer_bound,
    tin_sumrate,
)
from .verify import (
    VerifyOutcome,
    generate_regime_channel,
    run_suite,
    telescoping_gap,
    verify_gaussian_regimes,
    verify_one_sided_reduction,
    verify_strong_y2_equivalence,
    verify_sumrate_collapse,
    verify_telescoping,
    verify_very_weak_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "AuxInputDist", "DiscreteIC", "GaussianIC", "GaussianVirtualParams",
    "IcError", "InfoQuery", "NO_VIOLATION_FOUND", "OneSided", "ProbTensor",
    "ProductInput", "RateRegion", "RegimeReport", "SearchConfig",
    "SumCapacityCertificate", "VIOLATED", "VerifyOutcome",
    "VirtualCoupling", "certify_sum_capacity", "channel_digest",
    "check_genie_alignment", "check_genie_dominance",
    "check_noisy_gaussian", "check_strong_at_y2", "check_strong_both",
    "check_very_weak", "check_very_weak_gaussian", "compose_joint",
    "degenerate_coupling", "entropy", "equals",
    "evaluate_condition_margin", "gaussian_noisy_sumcap",
    "gaussian_virtual", "generate_regime_channel", "hausdorff_support_gap",
    "includes", "is_one_sided", "load_channel", "load_coupling",
    "marginalize", "max_sumrate", "maximize_genie_rate",
    "mutual_information", "outer_bound", "output_marginals",
    "random_channel", "random_coupling", "region_gaussian",
    "region_scheme", "require_valid", "revealing_coupling", "run_suite",
    "save_channel", "save_coupling", "telescoping_gap", "tin_sumrate",
    "validate", "verify_gaussian_regimes", "verify_one_sided_reduction",
    "verify_strong_y2_equivalence", "verify_sumrate_collapse",
    "verify_telescoping", "verify_very_weak_equivalence",
]
