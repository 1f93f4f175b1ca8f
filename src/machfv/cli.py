"""Command line entry point.

Two subcommands:

* ``machfv run --config run.ini [--output DIR] [--assert-inequalities]``
  advances a single case and writes diagnostics.csv (plus optional field
  snapshots and SVG charts) into the output directory.
* ``machfv convergence --config conv.ini [--output DIR] [--threads N]``
  runs a grid sequence and writes convergence.csv with EOC columns.

Exit codes: 0 success, 2 invalid config, 3 solver failure (nonlinear solve
did not converge or density positivity was lost), 4 an asserted stability
inequality failed.
"""

import argparse
import sys
from dataclasses import replace

from .driver import (ConfigError, InequalityViolation, convergence_study,
                     load_convergence_config, load_run_config, run_case)
from .eos import PositivityError
from .stepper import SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INEQUALITY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machfv",
        description="Energy-stable semi-implicit finite volume solver for "
                    "the Mach-parameterised barotropic Euler system.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="advance one case and write diagnostics")
    run_p.add_argument("--config", required=True, help="INI file with a [run] section")
    run_p.add_argument("--output", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (recorded in the output echo)")
    run_p.add_argument("--assert-inequalities", action="store_true",
                       help="fail (exit 4) if any step violates conservation, "
                            "energy/entropy decay, positivity, or the stability conditions")

    conv_p = sub.add_parser("convergence", help="run a grid sequence and tabulate EOCs")
    conv_p.add_argument("--config", required=True,
                        help="INI file with a [convergence] section")
    conv_p.add_argument("--output", default=None, help="output directory (overrides config)")
    conv_p.add_argument("--threads", type=int, default=1,
                        help="run grids in parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_run_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=args.seed)
            result = run_case(cfg, output_dir=args.output,
                              assert_inequalities=args.assert_inequalities)
            last = result.diags[-1] if result.diags else None
            steps = last.step_index if last else 0
            print(f"run complete: {steps} steps to t={result.final_state.time!r}, "
                  f"outputs in {result.output_dir}")
        else:
            cfg = load_convergence_config(args.config)
            rows = convergence_study(cfg, output_dir=args.output, threads=args.threads)
            for row in rows:
                print(f"n={row['n']:5d} h={row['h']:.5g} eps={row['eps']:.5g} "
                      + " ".join(f"{k}={v:.4e}" for k, v in row.items()
                                 if k not in ("n", "h", "eps") and v is not None
                                 and not k.startswith("eoc_")))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, PositivityError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except InequalityViolation as err:
        print(f"inequality violation: {err}", file=sys.stderr)
        return EXIT_INEQUALITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
