"""Command-line entry point: run / sweep / compare.

Override precedence for the mode, seed and output directory:
command-line flag > environment variable (seed and output directory only) >
config file > default. Overrides replace the file's values before the config
is validated, so mode normalization sees the file's other values.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import MODES, load_config
from .exceptions import ConfigError, SimulationError
from .runner import compare, run, sweep

ENV_SEED = "QFEDSIM_SEED"
ENV_OUTPUT_DIR = "QFEDSIM_OUTPUT_DIR"


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"master seed (overrides ${ENV_SEED} and the config)")
    parser.add_argument("--output-dir", default=None,
                        help=f"artifact directory (overrides ${ENV_OUTPUT_DIR} and the config)")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the config's training mode")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfedsim",
        description="Federated quantum-classifier simulator for anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="execute one experiment"))
    _add_run_flags(sub.add_parser("sweep", help="run the config's sweep axes"))
    cmp_parser = sub.add_parser("compare", help="tabulate completed runs side by side")
    cmp_parser.add_argument("run_dirs", nargs="+", help="two or more run directories")
    return parser


def _resolved_config(args):
    seed, raw = args.seed, os.environ.get(ENV_SEED)
    if seed is None and raw:
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    overrides = {
        "mode": args.mode,
        "master_seed": seed,
        "output_dir": args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or None,
    }
    return load_config(args.config, {k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run(_resolved_config(args))
            final = result.summary["final"]
            print(
                f"run complete: {result.output_dir}\n"
                f"  val_loss={final['val_loss']:.6g}  fe={final['fe_pct']:.4g}%  "
                f"me={final['me_pct']:.4g}%  auroc={final['auroc']:.6g}  "
                f"aupr={final['aupr']:.6g}"
            )
        elif args.command == "sweep":
            results = sweep(_resolved_config(args))
            root = os.path.dirname(results[0].output_dir) if results else ""
            print(f"sweep complete: {len(results)} runs under {root}")
        else:
            print(compare(args.run_dirs), end="")
    except (SimulationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
