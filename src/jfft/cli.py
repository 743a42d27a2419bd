"""Command-line harness: one subcommand per experiment.

Every subcommand takes ``--config <file.json>`` and ``--out <dir>``; sweeps
additionally honor ``--threads``.  Exit codes: 0 on success, 2 on config
errors, 3 when the solver aborts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (ConfigError, load_config, run_cosine_sweep,
                          run_laminate_sweep, run_motivate, run_smooth_vs_sharp,
                          run_solve, run_topopt)
from .solver import SolverAbortError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


#: Runner, whether it takes ``--threads`` workers, and help of each command.
_COMMANDS = {
    "solve": (run_solve, False, "solve one cell problem"),
    "laminate-sweep": (run_laminate_sweep, True,
                       "iteration counts over the laminate geometry"),
    "cosine-sweep": (run_cosine_sweep, True,
                     "iteration counts over the cosine geometry"),
    "motivate": (run_motivate, False,
                 "iteration counts along a Gaussian-filter cascade"),
    "topopt": (run_topopt, False, "phase-field topology optimization"),
    "smooth-vs-sharp": (run_smooth_vs_sharp, False,
                        "residual histories for smooth and thresholded "
                        "densities"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jfft",
        description="FFT-accelerated PCG solvers for periodic elasticity "
                    "cell problems (Green, Jacobi, and Green-Jacobi "
                    "preconditioning).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, desc) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes for independent sweep cells")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    runner, sweep, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1")
        if sweep:
            runner(cfg, Path(args.out), workers=args.threads)
        else:
            runner(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverAbortError as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
