"""Command-line front end.

    penn-mpc <collect|train|ablate-history|explore|deploy|eval>
             [--config FILE] [--seed N] [--out DIR] [key=value ...]

Exit codes: 0 success, 2 configuration error, 3 runtime failure, I/O errors
included (a FAILED flag file is left in the output directory when it can be
created; the next successful run into that directory removes it).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import commands
from .config import load_config
from .errors import ConfigError, PennMpcError
from .fileio import atomic_open


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="penn-mpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file with section.key = value lines")
        p.add_argument("--seed", type=int, help="experiment seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides io.out)")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides")

    p = sub.add_parser("collect", help="run scripted maneuvers and log episodes")
    p.add_argument("--minutes", type=float, help="total minutes of data")
    p.add_argument("--rate", type=float, help="log rate in Hz")
    common(p)

    p = sub.add_parser("train", help="train the ensemble on a dataset")
    p.add_argument("--data", help="dataset directory (overrides io.data)")
    common(p)

    p = sub.add_parser("ablate-history", help="sweep the history length H")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--h-min", type=int, default=1)
    p.add_argument("--h-max", type=int, default=10)
    common(p)

    p = sub.add_parser("explore", help="active-exploration loop on the plant")
    p.add_argument("--policy", choices=["explore", "random"],
                   help="acting policy (overrides explore.policy)")
    common(p)

    p = sub.add_parser("deploy", help="closed-loop laps with the learned model")
    p.add_argument("--checkpoint", help="model checkpoint (overrides io.checkpoint)")
    p.add_argument("--mode", choices=["direct", "safe"], default="safe")
    p.add_argument("--laps", type=int, help="laps to complete")
    p.add_argument("--data", help="training dataset, needed for the auto "
                                  "uncertainty threshold")
    common(p)

    p = sub.add_parser("eval", help="RMSE report of a checkpoint on a dataset")
    p.add_argument("--checkpoint", help="model checkpoint")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    common(p)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out:
        overrides.append(f"io.out={args.out}")
    if args.command == "collect":
        if args.minutes is not None:
            overrides.append(f"collect.minutes={args.minutes}")
        if args.rate is not None:
            overrides.append(f"collect.rate={args.rate}")
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = Path(cfg.io.out)
    try:
        if args.command == "collect":
            commands.cmd_collect(cfg, out)
        elif args.command == "train":
            commands.cmd_train(cfg, out, data_dir=args.data)
        elif args.command == "ablate-history":
            commands.cmd_ablate_history(cfg, out, data_dir=args.data,
                                        h_min=args.h_min, h_max=args.h_max)
        elif args.command == "explore":
            commands.cmd_explore(cfg, out, policy=args.policy)
        elif args.command == "deploy":
            commands.cmd_deploy(cfg, out, checkpoint_path=args.checkpoint,
                                mode=args.mode, laps=args.laps,
                                data_dir=args.data)
        elif args.command == "eval":
            commands.cmd_eval(cfg, out, checkpoint_path=args.checkpoint,
                              data_dir=args.data, split_part=args.split)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (PennMpcError, OSError) as e:
        try:
            out.mkdir(parents=True, exist_ok=True)
            with atomic_open(out / "FAILED") as f:
                f.write(f"{e}\n")
        except OSError:
            pass  # no usable output directory to flag
        print(f"error: {e}", file=sys.stderr)
        return 3
    (out / "FAILED").unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
