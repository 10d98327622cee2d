"""The benchmark's own tests.

    python3 perfbench/selfcheck.py [--workload NAME ...]

Run from the checkout root.  Three groups, each printing one line per
check and exiting non-zero on the first failure:

* negative controls: each output checker is fed one real output made
  wrong (a decoded sum off by one symbol, a leakage query with a
  non-zero value, an oracle entropy off by one, a verify report with a
  failure entry) and must count it as failed, so that a ``pass_frac``
  of 1 means something;
* determinism: two traced passes at one seed give identical
  per-function call counts on every workload, and a second seed does
  too, because each workload's work is fixed by an enumeration (see
  ``SEED_DEPENDENT`` for the one exception);
* the layer map: on ``verify-grid`` the self time of ``leakage`` plus
  ``matrix.rowspace_insert`` is larger than any other module's.

The traced passes are the shortest a run makes (``--seconds 1``); the
whole script takes well under a minute.
"""

import argparse
import dataclasses
import pathlib
import random
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SEEDS = (1, 2)
# On oracle-xcheck the seed picks which variables a subset holds, and a
# row insert that raises the rank costs one field inversion, so this
# count depends on the sample.  Every other count depends only on the
# subset sizes, which the seed does not change.
SEED_DEPENDENT = {"oracle-xcheck": {"field.inv"}}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def failures_counted(feed) -> int:
    tally = workloads.Tally()
    feed(tally)
    return tally.failed


def negative_controls() -> None:
    from hsagg import harness, leakage, patterns, protocol

    params = harness.DEFAULT_GRID[0]
    ctx = protocol.setup(params)
    pattern = next(patterns.enumerate_patterns(params))
    full = pattern.with_survivors(next(patterns.enumerate_survivors(pattern, params)))
    rng = random.Random("selfcheck")
    users = range(1, params.num_users + 1)
    grads = [protocol.Gradient.random(u, params, rng) for u in users]
    noises = [protocol.UserRandomness.random(u, params, rng) for u in users]
    keys = protocol.dealer_generate(ctx, "selfcheck")
    decoded = protocol.run_round(ctx, full, grads, noises, keys).decoded
    expected = tuple(sum(column) % params.modulus for column in zip(*(g.symbols() for g in grads)))
    off_by_one = (decoded[0] + 1) % params.modulus, *decoded[1:]
    where = patterns.format_pattern(full)
    expect(
        failures_counted(lambda t: workloads.check_decoded(t, decoded, expected, where)) == 0,
        "a correct round passes",
    )
    expect(
        failures_counted(lambda t: workloads.check_decoded(t, off_by_one, expected, where))
        == 1,
        "a decoded sum off by one symbol is counted as failed",
    )

    record = leakage.check_security_master(ctx, pattern, (1,), (1,))
    leaky = dataclasses.replace(record, value=Fraction(1))
    expect(
        failures_counted(lambda t: workloads.check_record(t, record, where)) == 0,
        "a zero-leakage query passes",
    )
    expect(
        failures_counted(lambda t: workloads.check_record(t, leaky, where)) == 1,
        "a query that leaks one symbol is counted as failed",
    )

    ctx = protocol.setup(protocol.SchemeParams(*workloads.ORACLE_PARAMS))
    pattern = patterns.parse_pattern(workloads.ORACLE_PATTERN)
    oracle = leakage.BruteForceOracle(ctx, pattern)
    tvars = leakage.build_linear_transcript(ctx, pattern)
    subset = ["W[1]", "X[1,1]", "Y[1]"]
    got = oracle.entropy(subset)
    want = leakage.entropy_rank([tvars[n] for n in subset])
    expect(
        failures_counted(lambda t: workloads.check_entropy(t, subset, got, want)) == 0,
        "an oracle entropy equal to the rank entropy passes",
    )
    expect(
        failures_counted(lambda t: workloads.check_entropy(t, subset, got + 1, want))
        == 1,
        "an oracle entropy off by one is counted as failed",
    )

    config = harness.RunConfig(
        mode="verify", grid=(harness.DEFAULT_GRID[0],), draws=1
    )
    report = harness.run_verify(config)
    rendered = harness.render_json(report.to_json())
    expect(
        failures_counted(lambda t: workloads.check_report(t, report, rendered)) == 0,
        "a passing verify report passes",
    )
    point = dataclasses.replace(report.points[0], failures=["decode mismatch"])
    broken = harness.VerifyReport(points=[point])
    rendered = harness.render_json(broken.to_json())
    expect(
        failures_counted(lambda t: workloads.check_report(t, broken, rendered)) >= 1,
        "a verify report with a failure entry is counted as failed",
    )


def traced_calls(workload, seed: int) -> tuple[dict, dict]:
    """Call counts and metrics of one traced pass at ``--seconds 1``."""
    tally = workloads.Tally()
    with Tracer() as tracer:
        workload.run(seed, 1, tally)
    expect(tally.failed == 0, f"{workload.name} seed {seed}: every output checks")
    return tracer.calls(), tracer.metrics()


def differing(a: dict, b: dict) -> set:
    return {name for name in a if a[name] != b[name]}


def determinism_and_layers(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    first, metrics = traced_calls(workload, SEEDS[0])
    again, _ = traced_calls(workload, SEEDS[0])
    expect(not differing(first, again), f"{name}: calls repeat at one seed")
    other, _ = traced_calls(workload, SEEDS[1])
    changed = differing(first, other)
    allowed = SEED_DEPENDENT.get(name, set())
    expect(
        changed <= allowed,
        f"{name}: calls match at a second seed"
        + (f" except {sorted(changed)}" if changed else ""),
    )

    if name == "verify-grid":
        self_s = {
            module: sum(
                metrics[f"{module}.{short}.self_s"] for short, _ in entries
            )
            for module, entries in LAYERS.items()
        }
        rank_work = self_s["leakage"] + metrics["matrix.rowspace_insert.self_s"]
        self_s["matrix"] -= metrics["matrix.rowspace_insert.self_s"]
        del self_s["leakage"]
        expect(
            all(rank_work > s for s in self_s.values()),
            f"verify-grid: leakage + rowspace_insert self time {rank_work:.3f} s"
            f" exceeds every other module's ({max(self_s.values()):.3f} s)",
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    negative_controls()
    for name in args.workload or workloads.WORKLOADS:
        determinism_and_layers(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
