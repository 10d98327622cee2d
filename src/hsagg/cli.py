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
from dataclasses import fields

from . import harness
from .field import FieldError
from .matrix import MatrixError
from .patterns import PatternError
from .protocol import ProtocolError, SchemeParams

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--params", help="K,N,Nr,T,q,L")
    parser.add_argument("--pattern", help="literal: nu=1:1,2,3;2:1,2,4 hm=2,3,4")
    parser.add_argument("--drop-prob", type=float, dest="drop_prob",
                        help="sample the pattern with this per-link drop probability")
    parser.add_argument("--seed", help="master seed for sampled randomness")
    parser.add_argument("--dealer-seed", dest="dealer_seed",
                        help="seed for the trusted dealer's key material")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=["json", "csv"],
                        help="report format (default json)")
    parser.add_argument("--budget", type=int, help="enumeration work budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsagg",
        description="Hierarchical secure coded gradient aggregation toolkit",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_round = sub.add_parser("round", help="simulate one aggregation round")
    _add_common(p_round)
    p_round.add_argument("--gradients", dest="gradient_file",
                         help="JSON file of per-user gradient symbols")

    p_verify = sub.add_parser("verify", help="exhaustive verification campaign")
    _add_common(p_verify)
    p_verify.add_argument("--grid", help="semicolon-separated params tuples")
    p_verify.add_argument("--draws", type=int,
                          help="random gradient draws per decode case (default 20)")

    p_rates = sub.add_parser("rates", help="measured rates vs. the optimal bound")
    _add_common(p_rates)
    p_rates.add_argument("--grid", help="semicolon-separated params tuples")

    p_leak = sub.add_parser("leakage", help="security queries with rank quadruples")
    _add_common(p_leak)
    p_leak.add_argument("--uset", help="colluding users, e.g. 1,2 (default: all subsets)")
    p_leak.add_argument("--tset", help="colluding helpers, e.g. 3 (default: all within bound)")

    return parser


def _parse_int_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _build_config(args: argparse.Namespace) -> harness.RunConfig:
    values: dict[str, str] = {}
    if args.config:
        values = harness.load_config_file(args.config)
        # every RunConfig field but the mode is a key; fmt is "format"
        keys = {f.name for f in fields(harness.RunConfig)} - {"mode", "fmt"} | {"format"}
        unknown = sorted(set(values) - keys)
        if unknown:
            raise harness.ConfigError(
                f"{args.config}: unknown config key {', '.join(unknown)}"
            )

    def pick(flag, key, default=None):
        return flag if flag is not None else values.get(key, default)

    config = harness.RunConfig(mode=args.mode)
    params_text = pick(args.params, "params")
    if params_text:
        config.params = SchemeParams.from_csv(params_text)
    grid_text = pick(getattr(args, "grid", None), "grid")
    if grid_text:
        config.grid = tuple(
            SchemeParams.from_csv(part)
            for part in grid_text.split(";")
            if part.strip()
        )
    # a pattern source given on the command line displaces the file's
    # other source, so flag overrides stay well-defined
    if args.pattern is not None:
        config.pattern = args.pattern
    elif args.drop_prob is None and "pattern" in values:
        config.pattern = values["pattern"]
    if args.drop_prob is not None:
        config.drop_prob = args.drop_prob
    elif args.pattern is None and "drop_prob" in values:
        config.drop_prob = float(values["drop_prob"])
    config.seed = str(pick(args.seed, "seed", config.seed))
    config.dealer_seed = str(pick(args.dealer_seed, "dealer_seed", config.dealer_seed))
    config.gradient_file = pick(getattr(args, "gradient_file", None), "gradient_file")
    config.out = pick(args.out, "out")
    config.fmt = pick(args.fmt, "format", config.fmt)
    if config.fmt not in ("json", "csv"):
        raise harness.ConfigError(f"unknown format {config.fmt!r}")
    config.budget = int(pick(args.budget, "budget", config.budget))
    config.draws = int(pick(getattr(args, "draws", None), "draws", config.draws))
    uset = pick(getattr(args, "uset", None), "uset")
    config.uset = _parse_int_set(uset) if uset is not None else None
    tset = pick(getattr(args, "tset", None), "tset")
    config.tset = _parse_int_set(tset) if tset is not None else None

    # options the mode would ignore that the harness cannot refuse: the
    # seeds have defaults, so only here is it known whether they were
    # given, and the output format is the CLI's own
    unused = []
    if config.mode == "round" and config.fmt == "csv":
        unused.append("format csv")
    if config.mode == "leakage":
        for flag, key in ((args.seed, "seed"), (args.dealer_seed, "dealer_seed")):
            if flag is not None or key in values:
                unused.append(key)
    if unused:
        raise harness.ConfigError(f"{config.mode} does not use {' or '.join(unused)}")
    return config


def _emit(config: harness.RunConfig, doc, render_csv=None) -> None:
    """Write ``render_csv()`` if CSV is asked for, else ``doc`` as JSON;
    a mode without a CSV form refuses ``format csv`` in
    ``_build_config``."""
    payload = render_csv() if config.fmt == "csv" else harness.render_json(doc)
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
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
