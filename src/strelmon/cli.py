"""Command-line front end.

Subcommands:
    monitor   load a model, a trace and a formula, write the verdict signal
              as the trace CSV of one variable (``signals.write_signal_csv``)
    simulate  generate a scenario (manet or epidemic) as model + trace files
    sweep     run the safe-radius experiment and write an r,mean,std table

Exit codes: 0 success, 1 formula parse error, 2 semantic or configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from .algebra import signal_domain_by_name
from .logic import ParseError, format_number, parse
from .monitor import MonitorContext, SemanticError, monitor, satisfied_locations
from .scenarios import (
    ConfigError,
    EpidemicConfig,
    ManetConfig,
    generate_manet,
    simulate_epidemic,
    sweep_safe_radius,
)
from .signals import SignalError, load_trace, save_trace, write_signal_csv
from .space import BUILTIN_DISTANCES, ModelError, load_model, save_model

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_IO = 3


def _build_distances(bindings: list[str]) -> dict:
    registry = {name: make() for name, make in BUILTIN_DISTANCES.items()}
    for binding in bindings or []:
        if "=" not in binding:
            raise ConfigError(f"--dist expects name=builtin, got {binding!r}")
        name, builtin = binding.split("=", 1)
        if builtin not in BUILTIN_DISTANCES:
            raise ConfigError(
                f"--dist {binding!r}: unknown builtin {builtin!r}; choose from "
                f"{sorted(BUILTIN_DISTANCES)}"
            )
        registry[name] = BUILTIN_DISTANCES[builtin]()
    return registry


def cmd_monitor(args) -> int:
    if args.formula is not None:
        text = args.formula
    else:
        with open(args.formula_file) as fh:
            text = fh.read()
    formula = parse(text)
    model = load_model(args.model)
    trace = load_trace(args.trace)
    domain = signal_domain_by_name(args.domain)
    ctx = MonitorContext(
        model=model,
        trace=trace,
        domain=domain,
        distances=_build_distances(args.dist),
    )
    result = monitor(ctx, formula)
    if args.out:
        write_signal_csv(result, args.out)
    if domain.name == "boolean":
        satisfied = set(satisfied_locations(result, ctx, t=0.0))
        print("location,verdict_at_t0")
        for loc in range(result.location_count):
            print(f"{loc},{1 if loc in satisfied else 0}")
    return EXIT_OK


def _load_config(args, cls):
    """The ``--config`` file as a ``cls``, or ``cls``'s defaults, with ``--seed`` applied."""
    cfg = cls()
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        cfg = cls.from_dict(data)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def cmd_simulate(args) -> int:
    if args.kind == "manet":
        proximity, connectivity, trace = generate_manet(_load_config(args, ManetConfig))
        save_model(proximity, f"{args.out}.proximity.json")
        save_model(connectivity, f"{args.out}.connectivity.json")
    else:
        model, trace = simulate_epidemic(_load_config(args, EpidemicConfig))
        save_model(model, f"{args.out}.model.json")
    save_trace(trace, f"{args.out}.trace.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args, EpidemicConfig)  # a bad config is reported before bad --radii
    radii = [float(r) for r in args.radii.split(",") if r.strip() != ""]
    if not radii:
        raise ConfigError("--radii must list at least one radius")
    result = sweep_safe_radius(cfg, radii, T=args.T, runs=args.runs)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "mean", "std"])
        for r, mean, std in result.rows:
            writer.writerow([format_number(r), repr(mean), repr(std)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strelmon")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mon = sub.add_parser("monitor", help="monitor a formula over a model and trace")
    p_mon.add_argument("--model", required=True)
    p_mon.add_argument("--trace", required=True)
    group = p_mon.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    p_mon.add_argument("--domain", choices=["boolean", "quantitative"], default="boolean")
    p_mon.add_argument("--dist", action="append", metavar="NAME=BUILTIN",
                       help="bind a distance-function name to hop|weight|euclid")
    p_mon.add_argument("--out")
    p_mon.set_defaults(fn=cmd_monitor)

    p_sim = sub.add_parser("simulate", help="generate a scenario")
    p_sim.add_argument("kind", choices=["manet", "epidemic"])
    p_sim.add_argument("--config", help="JSON config file mirroring the scenario fields")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="safe-radius sweep over an epidemic scenario")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--radii", required=True, help="comma-separated radii")
    p_sweep.add_argument("--T", type=float, default=7.0)
    p_sweep.add_argument("--runs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"formula error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SemanticError, ConfigError, ModelError, SignalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
