"""Command-line entry point.

Subcommands: run (alpha sweep from a config), attack (emit Q and the
corrupted mixture), repair (emit a witness classifier), certify (numeric
lower-bound certification), minimax (worst-group error demonstration),
report (re-render CSV/SVG from a stored report JSON).

Exit codes: 0 success, 1 contract violation or failed certification,
2 bad input, an unwritable --out among it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import attacks, families, harness
from .classifiers import BaseClassifier, PQClassifier
from .distributions import Distribution
from .errors import ContractError, FairnoiseError, InfeasibleError, InputError, number
from .repair import dp_repair, eopp_repair


#: What ``certify --help`` says of the claims.
_CERTIFY_HELP = ("Certify each notion's claimed lower bound at every --alpha. The eopp claim sqrt(alpha)/2 is the "
                 "exact floor only for alpha <= 7 - 4 sqrt(3) (about 0.0718); above it the floor is lower: exit 1.")

#: Subcommand -> the flags it reads; argparse rejects any other.
_FLAGS = {
    "run": ("config", "alpha", "notion", "grid", "seed", "jobs", "out", "format"),
    "attack": ("config", "alpha", "notion", "out"),
    "repair": ("config", "alpha", "notion", "out"),
    "certify": ("alpha", "notion"),
    "minimax": ("alpha", "config"),
    "report": ("config", "out", "format"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairnoise",
        description="Fairness-constrained learning under malicious noise: "
        "exact attacks, repairs, and regime certification on finite supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(type=Path, help="JSON config path"),
        "alpha": dict(type=float, action="append", help="corruption budget (repeatable)"),
        "notion": dict(type=str, help="fairness notion"),
        "grid": dict(type=int, help="recorded in report.json; no search reads it"),
        "seed": dict(type=int, help="RNG seed / provenance tag"),
        "jobs": dict(type=int, help="recorded in report.json; sweeps run serially"),
        "out": dict(type=Path, help="output directory (default $FNL_OUT or ./out)"),
        "format": dict(action="append", choices=("json", "csv", "svg"),
                       help="report format (repeatable; default json+csv)"),
    }
    for name, read in _FLAGS.items():
        p = sub.add_parser(name, description=_CERTIFY_HELP if name == "certify" else None)
        for flag in read:
            p.add_argument(f"--{flag}", **flags[flag])
    return parser


def _out_dir(args: argparse.Namespace, config_out: str | None = None) -> Path:
    if args.out is not None:
        return Path(args.out)
    if config_out:
        return Path(config_out)
    return Path(os.environ.get("FNL_OUT", "out"))


def _load_config(args: argparse.Namespace) -> dict:
    if args.config is None:
        raise InputError("this subcommand requires --config")
    try:
        return json.loads(args.config.read_text())
    except OSError as exc:
        raise InputError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {args.config} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"config {args.config} is nested too deeply to read") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    doc = _load_config(args)
    if args.alpha:
        doc["alphas"] = sorted(args.alpha)
    if args.notion:
        doc["notion"] = args.notion
    for flag, key in (("grid", "grid_n"), ("seed", "seed"), ("jobs", "jobs")):
        if getattr(args, flag) is not None:
            doc[key] = getattr(args, flag)
    config = harness.ExperimentConfig.from_json_dict(doc)
    report = harness.run_sweep(config)
    formats = args.format or ["json", "csv"]
    written = harness.write_report(report, _out_dir(args, config.out_dir), formats)
    print(
        f"family={config.family} notion={config.notion} slope={report.slope:.4f} "
        f"r2={report.r_squared:.4f} verdict={report.verdict}"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    doc = _load_config(args)
    kind = doc.get("kind") or (args.notion or "")
    alpha = args.alpha[0] if args.alpha else number(doc.get("alpha", 0.1), "alpha")
    target = doc.get("target_group")
    if kind == "duplicate_flip":
        dist = Distribution.from_json_dict(doc["dist"])
        q, corrupted = attacks.duplicate_flip_attack(dist, str(target), alpha)
    elif kind == "needle_eopp":
        needle = families.eopp_needle(alpha)
        q, corrupted = needle.contamination, needle.corrupted
    elif kind == "tpr_shift":
        dist = Distribution.from_json_dict(doc["dist"])
        h = BaseClassifier.from_json_dict(doc["h_star"])
        q, corrupted = attacks.tpr_shift_attack(
            dist, h, str(target), alpha, doc.get("direction", "raise")
        )
    else:
        raise InputError(f"unknown or missing attack kind {kind!r}")
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    (out / "contamination.json").write_text(q.to_json() + "\n")
    (out / "corrupted.json").write_text(corrupted.to_json() + "\n")
    print(f"wrote {out / 'contamination.json'}")
    print(f"wrote {out / 'corrupted.json'}")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    doc = _load_config(args)
    notion = (args.notion or doc.get("notion", "dp")).lower()
    dist = Distribution.from_json_dict(doc["dist"])
    corrupted = Distribution.from_json_dict(doc["corrupted"])
    h_doc = doc["h_star"]
    h_star = (
        PQClassifier.from_json_dict(h_doc) if "base" in h_doc else BaseClassifier.from_json_dict(h_doc)
    )
    alpha = args.alpha[0] if args.alpha else doc.get("alpha")
    if alpha is not None:
        alpha = number(alpha, "alpha")
        if not 0.0 <= alpha <= 1.0:
            raise InputError(f"alpha must lie in [0, 1], got {alpha!r}")
    if notion == "dp":
        witness = dp_repair(h_star, dist, corrupted, alpha=alpha)
    elif notion == "eopp":
        witness = eopp_repair(h_star, dist, corrupted, alpha=alpha)
    else:
        raise InputError(f"repair supports dp/eopp, got {notion!r}")
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "witness.json"
    path.write_text(json.dumps(witness.to_json_dict(), sort_keys=True, indent=2) + "\n")
    print(
        f"notion={notion} gap={witness.gap_on_corrupted:.3e} "
        f"excess={witness.excess_error_on_original:.6f} candidate={witness.candidate_label}"
    )
    print(f"wrote {path}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    if not args.notion or not args.alpha:
        raise InputError("certify requires --notion and --alpha")
    worst_exit = 0
    for alpha in args.alpha:
        floor, claimed, ok = harness.certify_lower_bound(args.notion, alpha)
        print(
            f"notion={args.notion} alpha={alpha} floor={floor:.6f} "
            f"claimed={claimed:.6f} pass={ok}"
        )
        if not ok:
            worst_exit = 1
    return worst_exit


def _cmd_minimax(args: argparse.Namespace) -> int:
    if not args.alpha:
        raise InputError("minimax requires --alpha")
    gamma = None
    if args.config is not None:
        gamma = _load_config(args).get("gamma")
    for alpha in args.alpha:
        report = harness.minimax_demo(alpha, gamma=gamma)
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = _load_config(args)
    report = harness.report_from_json_dict(doc)
    formats = args.format or ["csv"]
    written = harness.write_report(report, _out_dir(args, report.config.out_dir), formats)
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "attack": _cmd_attack,
    "repair": _cmd_repair,
    "certify": _cmd_certify,
    "minimax": _cmd_minimax,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, InfeasibleError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except FairnoiseError as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:  # configs are read under InputError: this is --out naming a file or a path through one
        print(f"error: cannot write output ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
