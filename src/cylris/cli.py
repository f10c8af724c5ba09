"""Batch command-line front end.

Subcommands: synth (one method, one angle), sweep (angle list x method
list), validate (identity and boundary-condition suites), compare (merge
prior runs). Exit codes: 0 ok, 2 config error, 3 resource guard (the
exhaustive-search budget, or out of memory), 4 numerical failure. Errors are
emitted as a single JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import METHOD_NAMES, RunConfig, load_config, override, parse_config
from .errors import BudgetExceededError, ConfigError, NumericalError
from .pipeline import compare_runs, run_single, run_sweep, run_validation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3  # also out of memory
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """Bad arguments end like any other bad input: exit 2 with one JSON line."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cylris",
        description="Beam synthesis for cylindrical reconfigurable reflecting surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="Run one synthesis method at one steering angle.")
    synth.add_argument("-c", "--config", metavar="YAML", default=None)
    synth.add_argument(
        "--from-manifest", metavar="JSON", default=None,
        help="Re-run from the config embedded in a previous run's manifest.",
    )
    synth.add_argument("--method", choices=METHOD_NAMES, default=None, help="Override method.name.")
    synth.add_argument("--phi-o-deg", type=float, default=None, help="Override steering.phi_o_deg.")
    synth.add_argument("--seed", type=int, default=None, help="Override method.seed.")
    synth.add_argument("--workers", type=int, default=None, help="Override method.workers.")
    synth.add_argument("--grid-points", type=int, default=None, help="Override output.grid_points.")
    synth.add_argument("-o", "--output-dir", default=None, help="Override output.directory.")

    sweep = sub.add_parser("sweep", help="Run every configured (method, angle) combination.")
    sweep.add_argument("-c", "--config", metavar="YAML", required=True)
    sweep.add_argument("--seed", type=int, default=None, help="Override method.seed.")
    sweep.add_argument("--workers", type=int, default=None, help="Override method.workers.")
    sweep.add_argument("-o", "--output-dir", default=None, help="Override output.directory.")

    validate = sub.add_parser("validate", help="Run the identity and boundary-residual suites.")
    validate.add_argument("--radius-m", type=float, default=0.4)
    validate.add_argument("--freq-hz", type=float, default=3.6e9)

    compare = sub.add_parser("compare", help="Merge metrics of previously completed runs.")
    compare.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    compare.add_argument("-o", "--output-dir", default=".", help="Where to write the comparison.")
    return parser


# argparse destination -> the config key its flag overrides
_OVERRIDES = {
    "method": "method.name",
    "phi_o_deg": "steering.phi_o_deg",
    "seed": "method.seed",
    "workers": "method.workers",
    "grid_points": "output.grid_points",
    "output_dir": "output.directory",
}


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for dest, key in _OVERRIDES.items():
        if getattr(args, dest, None) is not None:
            cfg = override(cfg, key, getattr(args, dest))
    return cfg


def _load_synth_config(args: argparse.Namespace) -> RunConfig:
    if args.from_manifest and args.config:
        raise ConfigError("use either --config or --from-manifest, not both")
    if args.from_manifest:
        manifest_path = Path(args.from_manifest)
        if not manifest_path.exists():
            raise ConfigError(f"manifest not found: {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if "config" not in manifest:
            raise ConfigError(f"{manifest_path}: no embedded config")
        return parse_config(manifest["config"])
    if not args.config:
        raise ConfigError("a config file is required (-c/--config or --from-manifest)")
    return load_config(args.config)


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_synth_config(args), args)
    summary = run_single(cfg)
    print(f"wrote {summary['outdir']}: method={summary['method']} "
          f"phi_o={summary['phi_o_deg']:g} deg")
    for key, value in summary["metrics"].items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out = run_sweep(cfg)
    print(f"wrote {out['outdir']} ({len(out['entries'])} runs)")
    _print_comparison(out["comparison"])
    return EXIT_OK


def _print_comparison(comparison: dict) -> None:
    cols = ("method", "phi_o_deg", "sll_db", "pointing_err_deg", "target_level_norm_db")
    print("  " + "  ".join(f"{c:>20s}" for c in cols))
    for r in comparison["rows"]:
        cells = []
        for c in cols:
            v = r[c]
            cells.append(f"{v:>20.3f}" if isinstance(v, float) else f"{str(v):>20s}")
        print("  " + "  ".join(cells))


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = run_validation(radius_m=args.radius_m, freq_hz=args.freq_hz)
    failed = False
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed |= not ok
    if failed:
        raise NumericalError("validation suite failed")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    comparison = compare_runs(args.run_dirs, args.output_dir)
    print(f"wrote {Path(args.output_dir) / 'comparison.csv'}")
    _print_comparison(comparison)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
}


def _fail(exc: Exception, code: int) -> int:
    message = str(exc) or type(exc).__name__  # a bare MemoryError has no message
    sys.stderr.write(json.dumps({"error": message, "code": code}) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (BudgetExceededError, MemoryError) as exc:
        return _fail(exc, EXIT_BUDGET)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except (ConfigError, ValueError, OSError) as exc:
        # after LinAlgError (a ValueError): other bad values and paths are bad input
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
