"""Command-line interface: list the suite, run campaigns, analyze logs, recommend.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import (
    DEFAULT_ALPHA,
    EmptySample,
    InsufficientRuns,
    domination_matrix,
    format_domination_summary,
    quartile_curves,
    recommend_criterion,
    write_curves_csv,
    write_domination_csv,
)
from .campaign import (
    ConfigParseError,
    load_campaign_config,
    run_campaign,
)
from .kriging import DegenerateData
from .smbo import MalformedRunLog, read_run_logs, write_text_atomic
from .testbed import OutOfBounds, UnknownFunction, suite_manifest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through our
    # config-error exit code instead.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="infillbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="print the benchmark suite")
    p_list.add_argument("--output", help="also write the suite manifest as JSON")
    p_list.set_defaults(handler=_cmd_list)

    p_run = sub.add_parser("run", help="execute a campaign from a JSON config")
    p_run.add_argument("config", help="path to the campaign JSON file")
    p_run.add_argument("--force", action="store_true", help="re-run existing logs")
    p_run.add_argument("--output-dir", help="override the config's output directory")
    p_run.add_argument("--workers", type=int, help="override the worker count")
    p_run.add_argument("--base-seed", type=int, help="override the base seed")
    p_run.set_defaults(handler=_cmd_run)

    p_analyze = sub.add_parser("analyze", help="compare criteria over a log directory")
    p_analyze.add_argument("log_dir", help="directory of run CSVs")
    p_analyze.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="significance level")
    p_analyze.add_argument("--output-dir", help="where to write the CSVs (default: log_dir)")
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_rec = sub.add_parser("recommend", help="suggest an infill criterion")
    p_rec.add_argument("-d", "--dimension", type=int, required=True)
    p_rec.add_argument("-b", "--budget", type=int, required=True)
    p_rec.add_argument(
        "--modality", choices=["unimodal", "multimodal", "unknown"], default="unknown"
    )
    p_rec.set_defaults(handler=_cmd_recommend)
    return parser


def _cmd_list(args) -> int:
    manifest = suite_manifest()
    width = max(len(entry["name"]) for entry in manifest)
    for entry in manifest:
        print(f"f{entry['function_id']:<3} {entry['name']:<{width}}  {'; '.join(entry['tags'])}")
    if args.output:
        write_text_atomic(Path(args.output), json.dumps(manifest, indent=2) + "\n")
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_campaign_config(args.config)
    # Each override flag's destination is named after the CampaignConfig field it sets.
    names = {f.name for f in dataclasses.fields(config)}
    overrides = {k: v for k, v in vars(args).items() if k in names and v is not None}
    config = dataclasses.replace(config, **overrides)
    result = run_campaign(config, force=args.force)
    print(
        f"executed {len(result.executed)} run(s), skipped {len(result.skipped)} existing; "
        f"manifest at {result.manifest_path}"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    logs = read_run_logs(args.log_dir)
    if not logs:
        raise InsufficientRuns(f"no run logs found in {args.log_dir}")
    cells = domination_matrix(logs, alpha=args.alpha)
    out_dir = Path(args.output_dir) if args.output_dir else Path(args.log_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_domination_csv(cells, out_dir / "domination.csv")
    curve_sets = {
        "best_gap": quartile_curves(logs, "best_gap"),
        "nn_distance": quartile_curves(logs, "nn_distance"),
    }
    write_curves_csv(curve_sets, out_dir / "curves.csv")
    print(format_domination_summary(cells))
    print(f"wrote {out_dir / 'domination.csv'} and {out_dir / 'curves.csv'}")
    return EXIT_OK


def _cmd_recommend(args) -> int:
    rec = recommend_criterion(args.dimension, args.budget, args.modality)
    print(f"{rec.criterion.value.upper()}: {rec.rationale}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UnknownFunction, OutOfBounds, DegenerateData, InsufficientRuns, EmptySample, MalformedRunLog) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (_UsageError, ConfigParseError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
