"""Command-line entry point.

Subcommands: ``round`` (simulate one round, write the transcript),
``verify`` (exhaustive correctness/security campaign over a grid),
``rates`` (measured communication rates vs. the optimum), ``leakage``
(security queries with rank quadruples).

Exit codes: 0 pass, 1 verification failure, 2 infeasible or invalid
config, 3 enumeration budget exceeded.
"""

import argparse
import sys
import time

from . import harness
from .field import FieldError
from .matrix import MatrixError
from .patterns import PatternError
from .protocol import ProtocolError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    """Every option's flag on every subcommand; one a mode does not
    read is hidden from its help, and refused by ``_build_config``."""
    parser = argparse.ArgumentParser(
        prog="hsagg",
        description="Hierarchical secure coded gradient aggregation toolkit",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in harness.MODES.items():
        p_mode = sub.add_parser(mode, help=text)
        p_mode.add_argument("--config", help="flat key=value config file")
        for name, meta in harness.OPTIONS.items():
            p_mode.add_argument(
                meta["flag"] or "--" + name.replace("_", "-"), dest=name, choices=meta["choices"],
                help=meta["help"] if mode in meta["modes"] else argparse.SUPPRESS,
            )
    return parser


def _build_config(args: argparse.Namespace) -> harness.RunConfig:
    values = harness.load_config_file(args.config) if args.config else {}
    unknown = sorted(set(values) - set(harness.OPTIONS))
    if unknown:
        raise harness.ConfigError(f"{args.config}: unknown config key {', '.join(unknown)}")
    flags = {n: v for n, v in vars(args).items() if n in harness.OPTIONS and v is not None}
    given = values | flags
    unused = [n for n, o in harness.OPTIONS.items() if n in given and args.mode not in o["modes"]]
    if unused:
        raise harness.ConfigError(f"{args.mode} does not use {' or '.join(unused)}")
    # one flag of a pair displaces the file's other key, so flag overrides
    # stay well-defined; the harness refuses two flags or two keys
    for a, b in harness.EXCLUSIVE_PAIRS:
        if (a in flags) != (b in flags):
            given.pop(b if a in flags else a, None)
    config = harness.RunConfig(mode=args.mode)
    for name, text in given.items():
        meta = harness.OPTIONS[name]
        try:  # a malformed value's message leads with its option
            setattr(config, name, meta["parse"](text))
        except ValueError as exc:
            raise harness.ConfigError(f"{name}: {exc}") from None
        if meta["choices"] and getattr(config, name) not in meta["choices"]:
            raise harness.ConfigError(f"unknown {name} {text!r}")
    # the output format is the CLI's own, so only here can round refuse csv
    if config.mode == "round" and config.format == "csv":
        raise harness.ConfigError("round does not use format csv")
    return config


def _emit(config: harness.RunConfig, doc, render_csv=None) -> None:
    """Write ``render_csv()`` if CSV is asked for, else ``doc`` as JSON;
    a mode without a CSV form refuses ``format csv`` in
    ``_build_config``."""
    payload = render_csv() if config.format == "csv" else harness.render_json(doc)
    if config.out:
        with open(config.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _run(config: harness.RunConfig) -> int:
    start = time.perf_counter()
    if config.mode == "round":
        _, doc = harness.run_single_round(config)
        _emit(config, doc)
        if not doc["result"]["match"]:
            print("decode mismatch", file=sys.stderr)
            return EXIT_FAIL
        return EXIT_PASS

    if config.mode == "verify":
        report = harness.run_verify(config)
        _emit(config, report.to_json(), lambda: harness.render_verify_csv(report))
        print(
            f"verify: {len(report.points)} grid points in "
            f"{time.perf_counter() - start:.1f}s",
            file=sys.stderr,
        )
        return EXIT_PASS if report.ok else EXIT_FAIL

    if config.mode == "rates":
        rows = harness.run_rates(config)
        _emit(config, {"rates": rows}, lambda: harness.render_rates_csv(rows))
        feasible = [r for r in rows if r["feasible"]]
        return EXIT_PASS if all(r["equal"] for r in feasible) else EXIT_FAIL

    if config.mode == "leakage":
        doc = harness.run_leakage(config)
        _emit(config, doc, lambda: harness.render_leakage_csv(doc))
        return EXIT_PASS if doc["pass"] else EXIT_FAIL

    raise harness.ConfigError(f"unknown mode {config.mode!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _run(config)
    except harness.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        harness.ConfigError,
        PatternError,
        MatrixError,
        FieldError,
        ProtocolError,
        ValueError,
        OverflowError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
