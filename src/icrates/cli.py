"""Command-line front end.

Subcommands: ``classify``, ``region``, ``sumrate``, ``outer``, ``certify``,
``verify``, ``gaussian``.  All outputs are JSON (plus CSV frontiers for
regions) with byte-stable formatting; every document embeds the effective
configuration with resolved defaults.

Exit codes: 0 success / clean suite, 1 suite failures, 2 usage error,
3 validation or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Sequence

from .channels import (
    DiscreteIC,
    GaussianIC,
    channel_digest,
    is_one_sided,
    load_channel,
    load_coupling,
)
from .errors import ConfigError, IcError
from .gaussian import CERTIFICATE_SEARCH_POINTS, noisy_sum_capacity
from .regimes import (
    check_noisy_gaussian,
    check_strong_both,
    check_very_weak,
    check_very_weak_gaussian,
)
from .regions import GAUSSIAN_SCHEMES, SCHEMES, RateRegion, region_gaussian, region_scheme
from .search import SearchConfig
from .serialize import frontier_csv, stable_json_dumps
from .sumcap import certify_sum_capacity, outer_bound, tin_sumrate
from .verify import SUITE_CONFIG, SUITE_READS, SUITES, refuse_unread, run_suite


#: Search flag -> (``SearchConfig`` field, type, help).  Every flag defaults
#: to ``None``, so unset flags keep the command's base configuration.
_SEARCH_FLAGS = {
    "--grid": ("grid_steps", int, "marginal simplex grid steps"),
    "--cgrid": ("cond_grid_steps", int, "conditional simplex grid steps"),
    "--aux-w": ("aux_card_w", int, "auxiliary layer cardinality"),
    "--aux-u": ("aux_card_u", int, "auxiliary U cardinality"),
    "--restarts": ("restarts", int, "seeded random restarts"),
    "--seed": ("seed", int, "search seed"),
    "--angles": ("angles", int, "support angle samples"),
    "--tol": ("violation_tol", float, "tolerance in bits for the command's main check"),
}



def _add_search_flags(p: argparse.ArgumentParser) -> None:
    for flag, (dest, kind, text) in _SEARCH_FLAGS.items():
        p.add_argument(flag, dest=dest, type=kind, help=text)


def _config(args: argparse.Namespace, base: SearchConfig = SearchConfig()) -> SearchConfig:
    """``base`` with every search flag given on the command line applied."""
    given = {dest: getattr(args, dest) for dest, _, _ in _SEARCH_FLAGS.values()}
    return dataclasses.replace(base, **{k: v for k, v in given.items() if v is not None})


def _refuse_unread(args: argparse.Namespace, reads: Sequence[str], command: str) -> None:
    """``INVALID_CONFIG`` for any search flag given that ``command`` does not read."""
    unread = [flag for flag, (dest, _, _) in _SEARCH_FLAGS.items()
              if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}", flags=unread)


def _gaussian_region(
    g: GaussianIC, scheme: str, splits: int | None, angles: int | None
) -> tuple[RateRegion, dict]:
    """``region_gaussian`` with only the given resolution flags, so its own
    defaults fill the rest, and the document config of the resolved values."""
    given = {"splits": splits, "angles": angles}
    region = region_gaussian(g, scheme, **{k: v for k, v in given.items() if v is not None})
    return region, {"splits": region.meta["splits"], "angles": region.meta["angles"]}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _channel_header(ch: DiscreteIC | GaussianIC) -> dict:
    if isinstance(ch, DiscreteIC):
        return {"type": "discrete", "digest": channel_digest(ch), "sizes": list(ch.sizes)}
    return {"type": "gaussian", "digest": channel_digest(ch),
            "a": ch.a, "b": ch.b, "p1": ch.p1, "p2": ch.p2}


def _region_doc(region: RateRegion, scheme: str, header: dict, cfg_doc: dict,
                command: str = "region") -> dict:
    return {
        "command": command,
        "scheme": scheme,
        "channel": header,
        "region": region.to_json_dict(),
        "config": cfg_doc,
    }


def _gaussian_regimes(g: GaussianIC) -> dict:
    """The closed-form regime reports of ``g`` and the config they ran."""
    return {
        "very_weak_gaussian": dataclasses.asdict(check_very_weak_gaussian(g)),
        "noisy_gaussian": dataclasses.asdict(check_noisy_gaussian(g)),
        "config": {"certificate_search_points": CERTIFICATE_SEARCH_POINTS},
    }


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    ch = load_channel(args.channel)
    if isinstance(ch, GaussianIC):
        _refuse_unread(args, (), "classify on a gaussian channel")
        side = "side_a" if ch.b == 0.0 else ("side_b" if ch.a == 0.0 else "none")
        return {
            "command": "classify",
            "channel": _channel_header(ch),
            "one_sided": side,
            **_gaussian_regimes(ch),
        }, None
    cfg = _config(args)
    vw1, vw2 = check_very_weak(ch, cfg)
    st2, st1 = check_strong_both(ch, cfg)
    return {
        "command": "classify",
        "channel": _channel_header(ch),
        "one_sided": is_one_sided(ch).value,
        "very_weak": [vw1.to_json_dict(), vw2.to_json_dict()],
        "strong_y2": st2.to_json_dict(),
        "strong_y1": st1.to_json_dict(),
        "config": cfg.to_json_dict(),
    }, None


def _cmd_region(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    ch = load_channel(args.channel)
    if isinstance(ch, GaussianIC):
        _refuse_unread(args, ("angles",), "region on a gaussian channel")
        region, cfg_doc = _gaussian_region(ch, args.scheme, args.splits, args.angles)
    elif args.splits is not None:
        raise ConfigError("--splits applies to gaussian channels only", splits=args.splits)
    else:
        cfg = _config(args)
        region, cfg_doc = region_scheme(ch, args.scheme, cfg), cfg.to_json_dict()
    return _region_doc(region, args.scheme, _channel_header(ch), cfg_doc), region


def _cmd_sumrate(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    ch = load_channel(args.channel)
    cfg = _config(args)
    if isinstance(ch, GaussianIC):
        raise IcError("use `gaussian sumcap` for gaussian channels")
    opt, value = tin_sumrate(ch, cfg)
    return {
        "command": "sumrate",
        "channel": _channel_header(ch),
        "tin_bits": value,
        "optimal_input": opt.to_json_dict(),
        "config": cfg.to_json_dict(),
    }, None


def _cmd_outer(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    ch = load_channel(args.channel)
    if not isinstance(ch, DiscreteIC):
        raise IcError("outer bound needs a discrete channel")
    vc = load_coupling(args.virtual)
    cfg = _config(args)
    return {
        "command": "outer",
        "channel": _channel_header(ch),
        "outer_bits": outer_bound(ch, vc, cfg),
        "config": cfg.to_json_dict(),
    }, None


def _cmd_certify(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    ch = load_channel(args.channel)
    if not isinstance(ch, DiscreteIC):
        raise IcError("certification needs a discrete channel")
    vc = load_coupling(args.virtual)
    cfg = _config(args)
    cert = certify_sum_capacity(ch, vc, cfg)
    return {
        "command": "certify",
        "channel": _channel_header(ch),
        **cert.to_json_dict(),
        "config": cfg.to_json_dict(),
    }, None


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    given = [dest for dest, _, _ in _SEARCH_FLAGS.values() if getattr(args, dest) is not None]
    refuse_unread(args.suite, ["tol" if dest == "violation_tol" else dest for dest in given])
    # --tol is the suite tolerance; the channel generator keeps its own.
    cfg = dataclasses.replace(_config(args, SUITE_CONFIG), violation_tol=SUITE_CONFIG.violation_tol)
    outcome = run_suite(args.suite, trials=args.trials, seed=cfg.seed,
                        cfg=None if args.suite in SUITE_READS else cfg, tol=args.violation_tol)
    return {"command": "verify", **outcome.to_json_dict()}, None


def _cmd_gaussian(args: argparse.Namespace) -> tuple[dict, RateRegion | None]:
    g = GaussianIC(a=args.a, b=args.b, p1=args.p1, p2=args.p2)
    if args.mode == "regime":
        return {"command": "gaussian regime", "channel": _channel_header(g), **_gaussian_regimes(g)}, None
    if args.mode == "sumcap":
        value = noisy_sum_capacity(g)
        return {
            "command": "gaussian sumcap",
            "channel": _channel_header(g),
            "in_regime": value is not None,
            "sum_capacity_bits": value,
            "config": {},
        }, None
    region, cfg_doc = _gaussian_region(g, args.scheme, args.splits, args.angles)
    return _region_doc(region, args.scheme, _channel_header(g), cfg_doc, "gaussian region"), region


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icrates",
        description="Rate regions, regime classification, and sum-capacity "
                    "certificates for two-user interference channels.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="regime report for a channel file")
    p.add_argument("channel")
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("region", help="rate region frontier for one scheme")
    p.add_argument("channel")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--splits", type=int, help="gaussian power-split grid")
    _add_search_flags(p)
    p.add_argument("--out", default=None, help="region JSON path (default stdout)")
    p.add_argument("--csv", default=None, help="frontier CSV path")
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("sumrate", help="interference-as-noise sum rate")
    p.add_argument("channel")
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sumrate)

    p = sub.add_parser("outer", help="genie-aided sum-rate outer bound")
    p.add_argument("channel")
    p.add_argument("--virtual", required=True, help="coupling JSON file")
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_outer)

    p = sub.add_parser("certify", help="sum-capacity certification pipeline")
    p.add_argument("channel")
    p.add_argument("--virtual", required=True, help="coupling JSON file")
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    _add_search_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gaussian", help="closed-form gaussian channel tools")
    p.add_argument("mode", choices=("regime", "region", "sumcap"))
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--scheme", default="tin", choices=GAUSSIAN_SCHEMES)
    p.add_argument("--splits", type=int, help="power-split grid points")
    p.add_argument("--angles", type=int, help="support angle samples")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_gaussian)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and write its document and region CSV, inside the
    error handler, so a value the stable format refuses also exits 3."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, region = args.fn(args)
        _emit(stable_json_dumps(doc), args.out)
        if region is not None and args.csv:
            _emit(frontier_csv(region.theta_deg, region.h_bits, region.points), args.csv)
    except IcError as e:
        sys.stderr.write(f"{e}\n")
        return 3
    return 1 if doc["command"] == "verify" and doc["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
