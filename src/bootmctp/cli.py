"""Command-line front end.

Subcommands: `analyze` runs the multiple contrast test on a CSV dataset,
`simulate` runs a Monte Carlo study from a scenario grid config, and
`contrasts` prints a generated contrast matrix.  Exit codes: 0 success,
1 environment/configuration problem, 2 invalid data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import contrasts as contrasts_mod
from .bootstrap import BootstrapConfig, save_draws_csv
from .dataset import CsvSchema, _read_text, load_csv
from .exceptions import (
    ConfigError,
    ContrastError,
    DataError,
    EstimationError,
    SimulationError,
)
from .mctp import _check_alpha, format_result_table, run_mctp
from .simgen import SimScenario, run_study, write_study_csv

# Each setting of `analyze` and `simulate`, declared once: its name (the
# --flag and the config key), JSON type, default (... if required) and help.
# `scenarios` has no flag and no type here: `_cmd_simulate` checks it.
_BOOTSTRAP_SETTINGS = (
    ("B", int, 2000, "number of bootstrap replicates"),
    ("alpha", float, 0.05, "family-wise error level"),
    ("seed", int, 20250809, "random seed"),
)
ANALYZE_SETTINGS = (
    ("input", str, ..., "CSV dataset path"),
    ("group-col", str, ..., "name of the group label column"),
    ("outcomes", list, ..., "comma-separated outcome column names"),
    ("covariates", list, [], "comma-separated covariate column names"),
    ("contrast", str, "two-sample",
     "two-sample | dunnett | tukey | grand-mean | custom:<csv path>"),
    ("bootstrap", str, "wild", "wild | parametric"),
) + _BOOTSTRAP_SETTINGS + (
    ("out", str, None, "output directory for report files"),
    ("dump-draws", bool, False, "also write the replicate matrix as CSV"),
)
SIMULATE_SETTINGS = (
    ("scenarios", None, None, None),
    ("runs", int, 1000, "simulated datasets per scenario"),
) + _BOOTSTRAP_SETTINGS + (
    ("workers", int, 1, "worker processes"),
    ("out", str, None, "output directory for the results CSV"),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the package contract reserves 2 for
    # invalid data, so remap usage errors to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flags(parser, settings) -> None:
    for name, kind, _, help_text in settings:
        if kind is bool:
            parser.add_argument(f"--{name}", action="store_true", default=None,
                                help=help_text)
        elif kind is not None:
            parser.add_argument(f"--{name}", type=str if kind is list else kind,
                                help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bootmctp",
        description=(
            "Bootstrap multiple contrast tests for covariate-adjusted means "
            "in multivariate group designs"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pa = sub.add_parser("analyze", help="test contrasts on a CSV dataset")
    pa.add_argument("--config", help="JSON config file; explicit flags win")
    _add_flags(pa, ANALYZE_SETTINGS)
    pa.set_defaults(command=_cmd_analyze)

    ps = sub.add_parser("simulate", help="run a Monte Carlo study")
    ps.add_argument("--config", required=True, help="JSON scenario grid")
    _add_flags(ps, SIMULATE_SETTINGS)
    ps.set_defaults(command=_cmd_simulate)

    pc = sub.add_parser("contrasts", help="print a contrast matrix")
    pc.add_argument("--contrast", required=True,
                    help="family name or custom:<csv path>")
    pc.add_argument("--k", type=int, required=True, help="number of groups")
    pc.add_argument("--d", type=int, required=True, help="number of outcomes")
    pc.add_argument("--groups", help="comma-separated group names")
    pc.add_argument("--outcomes", help="comma-separated outcome names")
    pc.set_defaults(command=_cmd_contrasts)
    return parser


def _check(what: str, value, kind: type) -> None:
    """Raise a ConfigError naming `what` unless `value` has JSON type `kind`.

    A bool is only a bool, an int is also a float, and a list holds str; a
    str is also a list (of comma-separated names).
    """
    accepted = {float: (int, float), list: (str, list)}.get(kind, kind)
    if (isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted)
            or isinstance(value, list) and not all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")


def _settings(args: argparse.Namespace, settings) -> dict:
    """Each setting from its flag, else from the --config file, else its default."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(_read_text(args.config, ConfigError, "config"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(
                f"invalid JSON in config file {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(cfg) - {name for name, *_ in settings}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, kind, default, _ in settings:
        flag = getattr(args, name.replace("-", "_"), None)
        if flag is not None:
            cfg[name] = flag
        elif name in cfg:
            if kind is not None:
                _check(f"config value {name}", cfg[name], kind)
        elif default is ...:
            raise ConfigError(f"missing required option --{name}")
        else:
            cfg[name] = default
    return cfg


def _split_names(value) -> tuple[str, ...]:
    if isinstance(value, list):
        return tuple(value)
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _resolve_contrast(spec: str, k: int, d: int, group_names, outcome_names):
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        if not os.path.exists(path):
            raise ConfigError(f"custom contrast file not found: {path}")
        return contrasts_mod.from_csv(path, k, d)
    return contrasts_mod.build_family(spec.replace("-", "_"), k, d,
                                      group_names=group_names,
                                      outcome_names=outcome_names)


def _cmd_analyze(args) -> int:
    cfg = _settings(args, ANALYZE_SETTINGS)
    boot = BootstrapConfig(kind=cfg["bootstrap"], B=cfg["B"], seed=cfg["seed"])
    _check_alpha(cfg["alpha"])
    if not os.path.exists(cfg["input"]):
        raise ConfigError(f"input file not found: {cfg['input']}")

    schema = CsvSchema(
        group=cfg["group-col"],
        outcomes=_split_names(cfg["outcomes"]),
        covariates=_split_names(cfg["covariates"]),
    )
    ds = load_csv(cfg["input"], schema)
    contrasts = _resolve_contrast(
        cfg["contrast"], ds.k, ds.d, ds.groups, ds.outcome_names
    )
    result = run_mctp(ds, contrasts, boot, cfg["alpha"], keep_draws=cfg["dump-draws"])

    table = format_result_table(result)
    print(table)
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        doc = result.to_dict()
        doc["meta"]["input"] = os.path.abspath(cfg["input"])
        doc["meta"]["contrast"] = cfg["contrast"]
        with open(os.path.join(cfg["out"], "result.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(cfg["out"], "result.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        if cfg["dump-draws"]:
            save_draws_csv(
                result.draws,
                os.path.join(cfg["out"], "draws.csv"),
                labels=[o.label for o in result.contrasts],
            )
    return 0


def _scenario_from_dict(position: int, raw) -> SimScenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"scenarios[{position}] must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in fields(SimScenario)}
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    if "k" not in raw or "d" not in raw:
        raise ConfigError("each scenario needs at least 'k' and 'd'")
    try:
        return SimScenario(**raw)
    except SimulationError as exc:
        raise ConfigError(f"scenarios[{position}]: {exc}") from None


def _cmd_simulate(args) -> int:
    cfg = _settings(args, SIMULATE_SETTINGS)
    if not isinstance(cfg["scenarios"], list) or not cfg["scenarios"]:
        raise ConfigError("config must define a non-empty 'scenarios' list")
    scenarios = [_scenario_from_dict(i, s) for i, s in enumerate(cfg["scenarios"])]
    results = run_study(scenarios, runs=cfg["runs"], B=cfg["B"], alpha=cfg["alpha"],
                        seed=cfg["seed"], workers=cfg["workers"])
    for res in results:
        sc = res.scenario
        print(
            f"{sc.contrast_family} k={sc.k} d={sc.d} {sc.distribution} "
            f"cov={sc.covariance} n-pattern={sc.sample_pattern}x{sc.multiplier} "
            f"{sc.alternative}(delta={sc.delta:g}) {res.method}: "
            f"{res.rate:.2f}% [{res.ci_lower:.2f}, {res.ci_upper:.2f}] "
            f"({res.runs} runs, B={res.B})"
        )
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        write_study_csv(results, os.path.join(cfg["out"], "study.csv"))
    return 0


def _cmd_contrasts(args) -> int:
    contrasts = _resolve_contrast(
        args.contrast, args.k, args.d,
        _split_names(args.groups or ""),
        _split_names(args.outcomes or ""),
    )
    width = max(len(lbl) for lbl in contrasts.labels)
    for label, row in zip(contrasts.labels, contrasts.H):
        coeffs = "  ".join(f"{v:8.4f}" for v in row)
        print(f"{label:<{width}}  [{coeffs}]")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.command(args)
    except (ConfigError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ContrastError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
