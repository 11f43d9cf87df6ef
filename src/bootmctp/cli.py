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
import typing

from . import contrasts as contrasts_mod
from .bootstrap import BootstrapConfig, save_draws_csv
from .dataset import CsvSchema, load_csv, validate
from .exceptions import (
    ConfigError,
    ContrastError,
    DataError,
    EstimationError,
    SimulationError,
)
from .mctp import format_result_table, run_mctp
from .simgen import SimScenario, run_study, write_study_csv

DEFAULT_SEED = 20250809
DEFAULT_B = 2000
DEFAULT_ALPHA = 0.05

_FAMILY_FLAGS = {
    "two-sample": "two_sample",
    "dunnett": "dunnett",
    "tukey": "tukey",
    "grand-mean": "grand_mean",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the package contract reserves 2 for
    # invalid data, so remap usage errors to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    pa.add_argument("--input", help="CSV dataset path")
    pa.add_argument("--group-col", help="name of the group label column")
    pa.add_argument("--outcomes", help="comma-separated outcome column names")
    pa.add_argument("--covariates", help="comma-separated covariate column names")
    pa.add_argument(
        "--contrast",
        help="two-sample | dunnett | tukey | grand-mean | custom:<csv path>",
    )
    pa.add_argument("--bootstrap", choices=["wild", "parametric"])
    pa.add_argument("--B", type=int, dest="B")
    pa.add_argument("--alpha", type=float)
    pa.add_argument("--seed", type=int)
    pa.add_argument("--out", help="output directory for report files")
    pa.add_argument(
        "--dump-draws", action="store_true", default=None,
        help="also write the replicate matrix as CSV",
    )

    ps = sub.add_parser("simulate", help="run a Monte Carlo study")
    ps.add_argument("--config", required=True, help="JSON scenario grid")
    ps.add_argument("--runs", type=int)
    ps.add_argument("--B", type=int, dest="B")
    ps.add_argument("--alpha", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int)
    ps.add_argument("--out", help="output directory for the results CSV")

    pc = sub.add_parser("contrasts", help="print a contrast matrix")
    pc.add_argument("--contrast", required=True,
                    help="family name or custom:<csv path>")
    pc.add_argument("--k", type=int, required=True, help="number of groups")
    pc.add_argument("--d", type=int, required=True, help="number of outcomes")
    pc.add_argument("--groups", help="comma-separated group names")
    pc.add_argument("--outcomes", help="comma-separated outcome names")
    return parser


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _merge_config(args: argparse.Namespace, keys) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        file_cfg = _load_config(args.config)
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    return cfg


def _number(cfg: dict, key: str, kind: type, default):
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config value {key} must be {kind.__name__}, "
                          f"got {cfg[key]!r}") from None


def _split_names(value) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return tuple(s.strip() for s in str(value).split(",") if s.strip())


def _resolve_contrast(spec: str, k: int, d: int, group_names, outcome_names):
    if spec.startswith("custom:"):
        path = spec[len("custom:"):]
        if not os.path.exists(path):
            raise ConfigError(f"custom contrast file not found: {path}")
        return contrasts_mod.from_csv(path, k, d)
    family = _FAMILY_FLAGS.get(spec, spec)
    return contrasts_mod.build_family(
        family, k, d, group_names=group_names, outcome_names=outcome_names
    )


def _cmd_analyze(args) -> int:
    cfg = _merge_config(
        args,
        keys=(
            "input", "group-col", "outcomes", "covariates", "contrast",
            "bootstrap", "B", "alpha", "seed", "out", "dump-draws",
        ),
    )
    for required in ("input", "group-col", "outcomes"):
        if required not in cfg:
            raise ConfigError(f"missing required option --{required}")
    if not os.path.exists(cfg["input"]):
        raise ConfigError(f"input file not found: {cfg['input']}")

    schema = CsvSchema(
        group=str(cfg["group-col"]),
        outcomes=_split_names(cfg["outcomes"]),
        covariates=_split_names(cfg.get("covariates")),
    )
    ds = load_csv(cfg["input"], schema)
    report = validate(ds)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if not report.ok:
        for e in report.errors:
            print(f"error: {e}", file=sys.stderr)
        return 2

    contrast_spec = str(cfg.get("contrast", "two-sample"))
    contrasts = _resolve_contrast(
        contrast_spec, ds.k, ds.d, ds.groups, ds.outcome_names
    )
    boot = BootstrapConfig(
        kind=str(cfg.get("bootstrap", "wild")),
        B=_number(cfg, "B", int, DEFAULT_B),
        seed=_number(cfg, "seed", int, DEFAULT_SEED),
    )
    dump = bool(cfg.get("dump-draws", False))
    result = run_mctp(
        ds, contrasts, boot, _number(cfg, "alpha", float, DEFAULT_ALPHA),
        keep_draws=dump,
    )

    table = format_result_table(result)
    print(table)
    out_dir = cfg.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        doc = result.to_dict()
        doc["meta"]["input"] = os.path.abspath(cfg["input"])
        doc["meta"]["contrast"] = contrast_spec
        with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        with open(os.path.join(out_dir, "result.txt"), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        if dump:
            save_draws_csv(
                result.draws,
                os.path.join(out_dir, "draws.csv"),
                labels=[o.label for o in result.contrasts],
            )
    return 0


def _scenario_from_dict(position: int, raw) -> SimScenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"scenarios[{position}] must be a JSON object, got {raw!r}")
    types = typing.get_type_hints(SimScenario)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    if "k" not in raw or "d" not in raw:
        raise ConfigError("each scenario needs at least 'k' and 'd'")
    for key, value in raw.items():
        if not isinstance(value, (int, float) if types[key] is float else types[key]):
            raise ConfigError(f"scenarios[{position}].{key} must be "
                              f"{types[key].__name__}, got {value!r}")
    return SimScenario(**raw)


def _cmd_simulate(args) -> int:
    cfg = _merge_config(
        args, keys=("scenarios", "runs", "B", "alpha", "seed", "workers", "out")
    )
    if not isinstance(cfg.get("scenarios"), list) or not cfg["scenarios"]:
        raise ConfigError("config must define a non-empty 'scenarios' list")
    scenarios = [_scenario_from_dict(i, s) for i, s in enumerate(cfg["scenarios"])]
    try:
        results = run_study(
            scenarios,
            runs=_number(cfg, "runs", int, 1000),
            B=_number(cfg, "B", int, DEFAULT_B),
            alpha=_number(cfg, "alpha", float, DEFAULT_ALPHA),
            seed=_number(cfg, "seed", int, DEFAULT_SEED),
            workers=_number(cfg, "workers", int, 1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid study settings: {exc}") from None

    for res in results:
        sc = res.scenario
        print(
            f"{sc.contrast_family} k={sc.k} d={sc.d} {sc.distribution} "
            f"cov={sc.covariance} n-pattern={sc.sample_pattern}x{sc.multiplier} "
            f"{sc.alternative}(delta={sc.delta:g}) {res.method}: "
            f"{res.rate:.2f}% [{res.ci_lower:.2f}, {res.ci_upper:.2f}] "
            f"({res.runs} runs, B={res.B})"
        )
    out_dir = cfg.get("out")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_study_csv(results, os.path.join(out_dir, "study.csv"))
    return 0


def _cmd_contrasts(args) -> int:
    contrasts = _resolve_contrast(
        args.contrast, args.k, args.d,
        _split_names(args.groups) or None,
        _split_names(args.outcomes) or None,
    )
    width = max(len(lbl) for lbl in contrasts.labels)
    for label, row in zip(contrasts.labels, contrasts.H):
        coeffs = "  ".join(f"{v:8.4f}" for v in row)
        print(f"{label:<{width}}  [{coeffs}]")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "contrasts": _cmd_contrasts,
    }
    try:
        return handlers[args.subcommand](args)
    except (ConfigError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ContrastError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
