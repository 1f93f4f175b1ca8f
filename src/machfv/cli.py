"""Command line entry point.

Two subcommands:

* ``machfv run --config run.ini [--output DIR] [--assert-inequalities]``
  advances a single case and writes diagnostics.csv (plus optional field
  snapshots and SVG charts) into DIR.
* ``machfv convergence --config conv.ini [--output DIR]``
  runs a grid sequence and writes convergence.csv with EOC columns into DIR.

Without --output, DIR is the output_dir default of run_case or convergence_study.

Exit codes: 0 success, 2 invalid config or unwritable output path, 3 solver
failure (a step rejected at every dt halving, or a non-finite velocity
update), 4 an asserted conservation or decay inequality failed.
"""

import argparse
import sys

from .driver import (ConfigError, InequalityViolation, convergence_study,
                     load_convergence_config, load_run_config, run_case)
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
    run_p.add_argument("--output", help="output directory")
    run_p.add_argument("--assert-inequalities", action="store_true",
                       help="fail (exit 4) if a step breaks conservation or energy/entropy decay")

    conv_p = sub.add_parser("convergence", help="run a grid sequence and tabulate EOCs")
    conv_p.add_argument("--config", required=True,
                        help="INI file with a [convergence] section")
    conv_p.add_argument("--output", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = {} if args.output is None else {"output_dir": args.output}
    try:
        if args.command == "run":
            cfg = load_run_config(args.config)
            result = run_case(cfg, **out, assert_inequalities=args.assert_inequalities)
            summary = [f"run complete: {result.final_state.step_index} steps to "
                       f"t={result.final_state.time!r}, outputs in {result.output_dir}"]
        else:
            cfg = load_convergence_config(args.config)
            summary = [f"n={row['n']:5d} h={row['h']:.5g} eps={row['eps']:.5g} "
                       + " ".join(f"{k}={v:.4e}" for k, v in row.items()
                                  if k not in ("n", "h", "eps") and v is not None
                                  and not k.startswith("eoc_"))
                       for row in convergence_study(cfg, **out)]
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # open and mkdir name the path in the message
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except InequalityViolation as err:
        print(f"inequality violation: {err}", file=sys.stderr)
        return EXIT_INEQUALITY
    # Printed outside the mapping: a closed stdout is not an output path.
    print("\n".join(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
