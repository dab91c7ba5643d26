"""Command line interface.

Stages compose through the filesystem: each subcommand reads what the
previous one wrote under --out. Exit codes: 0 success, 2 bad
configuration or degenerate data, 3 I/O failure, 4 missing or
incompatible upstream artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from profilebench.errors import IoFailure, ProfileBenchError, SchemaMismatch
from profilebench.pipeline import (
    PipelineConfig,
    run_all,
    stage_balance,
    stage_eval,
    stage_featurize,
    stage_gen,
    stage_report,
    stage_split,
    stage_train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DEPENDENCY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbench",
        description="Synthetic gameplay corpus, featurization, and the classifier ladder.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument(
        "--out",
        help="output directory (default: $PBENCH_OUT, then the config value)",
    )
    parser.add_argument("--seed", type=int, help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate the session corpus")
    p_gen.add_argument("--games-per-profile", type=int, dest="games_per_profile")

    sub.add_parser("featurize", help="windowed feature tensors + aggregates")
    sub.add_parser("balance", help="cap per-class window counts")
    sub.add_parser("split", help="game-exclusive train/val/test split")

    p_train = sub.add_parser("train", help="train ladder rows")
    p_train.add_argument("--rows", help="comma-separated row ids (default: all configured)")

    p_eval = sub.add_parser("eval", help="evaluate trained rows on the test split")
    p_eval.add_argument("--rows", help="comma-separated row ids (default: all configured)")

    sub.add_parser("report", help="merge per-row metrics into one table")

    p_all = sub.add_parser("run-all", help="gen, featurize, balance, split, train, eval")
    p_all.add_argument("--games-per-profile", type=int, dest="games_per_profile")
    return parser


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The --config file's values (or the defaults), with each given flag
    in place of its config value."""
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    given = {
        "out_dir": args.out or os.environ.get("PBENCH_OUT") or None,
        "master_seed": args.seed,
        "games_per_profile": getattr(args, "games_per_profile", None),
    }
    return replace(cfg, **{name: value for name, value in given.items() if value is not None})


def parse_rows(args: argparse.Namespace) -> list[str] | None:
    """The --rows names; the stage checks them against the ladder."""
    raw = getattr(args, "rows", None)
    return None if raw is None else [r.strip() for r in raw.split(",") if r.strip()]


def dispatch(args: argparse.Namespace, cfg: PipelineConfig) -> None:
    if args.command == "gen":
        manifest = stage_gen(cfg)
        total = sum(manifest["counts"].values())
        print(f"wrote {total} sessions to {cfg.out_dir}")
    elif args.command == "featurize":
        info = stage_featurize(cfg)
        print(f"featurized {info['games']} games into {info['windows']} windows")
    elif args.command == "balance":
        info = stage_balance(cfg)
        print(
            f"balanced to target {info['target']} windows/class "
            f"(imbalance ratio {info['imbalance_ratio']:.3f})"
        )
    elif args.command == "split":
        info = stage_split(cfg)
        counts = info["games"]
        print(
            f"split games train/val/test = "
            f"{counts['train']}/{counts['val']}/{counts['test']}"
        )
    elif args.command == "train":
        status = stage_train(cfg, parse_rows(args))
        for row_id, state in status.items():
            print(f"{row_id}: {state}")
    elif args.command == "eval":
        reports = stage_eval(cfg, parse_rows(args))
        for r in reports:
            if r.failed:
                print(f"{r.name}: FAILED ({r.error})")
            else:
                print(f"{r.name}: accuracy {r.accuracies['main']:.4f} on {r.n_samples} samples")
        print(f"reports under {cfg.out_dir}/results")
    elif args.command == "report":
        print(stage_report(cfg), end="")
    elif args.command == "run-all":
        run_all(cfg)
        print(stage_report(cfg), end="")
    else:  # pragma: no cover - argparse enforces the choices
        raise ProfileBenchError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        print(f"effective master seed: {cfg.master_seed}")
        dispatch(args, cfg)
    except SchemaMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ProfileBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
