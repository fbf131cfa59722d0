"""Operator command line.

    scenestruct <generate|train|predict|evaluate|ablate|run> --config PATH
                [--seed N] [--mask vis_r50,audio,...]
                [--net boundary|segment|tag] [--mode a|b|c|d] [--out DIR]

run is the reference experiment: generate, train the boundary, scalar
segment, per-tag segment and tag nets (each under its net_masks entry, else
mask), predict and evaluate modes a-d on the held-out split, and print the
four-mode table.

Exit codes: 0 success, 2 config error, 3 data error, 4 incompatible or
missing checkpoint. Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import load_experiment_config, mask_from_names
from .errors import CheckpointError, ConfigError, DataError
from .experiment import (NETS, run_ablate, run_evaluate, run_experiment, run_generate,
                         run_predict, run_train)
from .pipeline import MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenestruct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the training seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p_gen = sub.add_parser("generate", help="write a synthetic corpus")
    common(p_gen)

    p_train = sub.add_parser("train", help="train one submodel")
    common(p_train)
    p_train.add_argument("--net", required=True, choices=NETS)
    p_train.add_argument("--mask", default=None, help="comma-separated modalities")

    p_pred = sub.add_parser("predict", help="run a pipeline mode over the corpus")
    common(p_pred)
    p_pred.add_argument("--mode", default=None, choices=MODES)

    p_eval = sub.add_parser("evaluate", help="score a predictions file")
    common(p_eval)
    p_eval.add_argument("--predictions", default=None, help="override the predictions path")

    p_abl = sub.add_parser("ablate", help="sweep modality masks for one net")
    common(p_abl)
    p_abl.add_argument("--net", default=None, choices=NETS)

    common(sub.add_parser("run", help="the reference experiment: every net, modes a-d"))
    return parser


def _apply_overrides(cfg, args) -> None:
    if args.seed is not None:
        cfg.training = dataclasses.replace(cfg.training, seed=args.seed)  # re-runs its checks
        if cfg.generator is not None:
            cfg.generator.seed = args.seed
    if args.out is not None:
        from pathlib import Path

        cfg.paths.out = str(Path(args.out).resolve())
    if getattr(args, "mask", None):  # the trained net's mask
        base = cfg.net_masks.get(args.net, cfg.mask)
        cfg.net_masks[args.net] = mask_from_names([m for m in args.mask.split(",") if m],
                                                  base.include_length, "--mask")


def run_with_exit_codes(action) -> int:
    """Calls action(); returns EXIT_OK, or the exit code of the config, data
    or checkpoint error it raised, after printing the error to standard error."""
    try:
        action()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    return EXIT_OK


def _run_command(args) -> None:
    cfg = load_experiment_config(args.config)
    _apply_overrides(cfg, args)
    if args.command == "generate":
        run_generate(cfg)
    elif args.command == "train":
        run_train(cfg, args.net)
    elif args.command == "predict":
        run_predict(cfg, args.mode)
    elif args.command == "evaluate":
        run_evaluate(cfg, args.predictions)
    elif args.command == "ablate":
        run_ablate(cfg, args.net)
    elif args.command == "run":
        val_ids, reports = run_experiment(cfg)
        print(f"\nheld-out validation split ({len(val_ids)} videos):")
        print("mode   avg_mAP   B-f1     S-f1     final (avg_mAP x B-f1)")
        for mode, report in reports.items():
            print(f"  {mode}    {report.avg_map:.4f}   {report.b_f1:.4f}   "
                  f"{report.s_f1:.4f}   {report.final:.4f}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    args = build_parser().parse_args(argv)
    return run_with_exit_codes(lambda: _run_command(args))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
