"""The two benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one caller and no threads.  Its
inputs come from the benchmark seed alone, and its amount of work is
fixed by the seed and ``--seconds``, never by the clock, so a traced
pass repeats the same calls as an untraced one.

A workload runs in passes (see ``run.py``).  One pass is a fixed list
of operations, the same list in the same order every pass, each timed
on its own:

* ``verify-grid``: the default ``hsagg verify`` grid.  Its smallest
  point is one whole campaign; for a fixed sample of the patterns of the
  other three, where the campaign spends nearly all its time, each
  public call ``verify_point`` makes for a pattern is an operation:
  dealer, decode rounds, linear transcript, and the exact rank
  security and sharing queries.
* ``oracle-xcheck``: the acceptance suite's brute-force cross-check
  instance: one oracle build, then seeded subsets and MI queries
  compared on both sides.  Many tiny matrices and ``numpy.unique`` calls, the opposite
  size regime from ``verify-grid``.

Each workload names the operations whose latency it reports ("ops"):
the security queries, or the subset comparisons.
"""

import dataclasses
import itertools
import json
import random
import sys
import time
import traceback

# Every timing is CPU time of this process.  The program is
# single-threaded, and on a shared host CPU time leaves out the time the
# host gives other tenants, which spread wall-clock sums and tails 2-5
# times wider.  run.py refuses a run whose work went to other threads or
# to child processes, where CPU time would misstate the time to a result.
clock = time.process_time

# A verify-grid pass samples every (PATTERN_STRIDE_SECONDS // seconds)-th
# pattern of each grid point after the first.
PATTERN_STRIDE_SECONDS = 640

ORACLE_PARAMS = (1, 3, 2, 1, 5, 1)
ORACLE_PATTERN = "nu=1:1,2 hm=1,2"
ORACLE_ASSIGNMENTS = 5**5
SUBSETS_PER_SECOND = 75  # per pass
MI_QUERIES = 200


@dataclasses.dataclass
class Timings:
    """What one pass measured, in the same order every pass.

    ``job_s`` holds the timed parts that make up the workload's job and
    ``op_s`` the ops whose latency it reports.
    """

    job_s: list[float]
    op_s: list[float]


class Tally:
    """Counts checks attempted and failed; exceptions count as failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"exception in {what}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def timed(tally: Tally, what: str, op):
    """``op()`` and its CPU time; None for the result if it raised.

    An op that raises still gets a time, so that every pass times the
    same list of ops.
    """
    began = clock()
    try:
        result = op()
    except Exception:
        tally.error(what)
        result = None
    return result, clock() - began


# -- checks ------------------------------------------------------------------


def check_report(tally: Tally, report, rendered: bytes) -> None:
    """Every check a verify report counts, plus its rendered verdict.

    Each failure entry of a point is one failed check.
    """
    for point in report.points:
        checks = point.decode_cases + point.security_queries + point.invariant_checks
        tally.attempted += max(checks, len(point.failures))
        tally.failed += len(point.failures)
        for failure in point.failures:
            print(f"check failed: {point.params.label()}: {failure}", file=sys.stderr)
    tally.check(
        report.ok and json.loads(rendered)["pass"] is True, "rendered verdict is pass"
    )


def check_record(tally: Tally, record, where: str) -> None:
    """A security or sharing query found zero leakage, and judged it."""
    if record is not None:
        tally.check(
            record.value == 0 and not record.exploratory,
            f"{record.kind} leakage {record.value} at U={record.colluding_users}"
            f" T={record.colluding_helpers} {where}",
        )


def check_decoded(tally: Tally, decoded, expected, where: str) -> None:
    """The master decoded the exact sum of the gradients."""
    tally.check(decoded == expected, f"decoded sum equals the gradient sum at {where}")


def check_entropy(tally: Tally, what, oracle_value, rank_value) -> None:
    """The brute-force oracle and the rank formula agree exactly."""
    tally.check(
        oracle_value == rank_value, f"{what}: oracle {oracle_value} != rank {rank_value}"
    )


# -- verify-grid -------------------------------------------------------------


def verify_points():
    from hsagg import harness

    return harness.DEFAULT_GRID


def _subsets(items, max_size: int):
    return [c for r in range(max_size + 1) for c in itertools.combinations(items, r)]


def run_verify_grid(seed: int, seconds: int, tally: Tally) -> Timings:
    """The smallest grid point as a whole campaign with one draw, then
    sampled patterns of the other three.

    A one-draw campaign keeps this single long op a small share of the
    job: the fastest of a few passes is less sure to find a quiet host
    for a long op than for a short one.

    For each sampled pattern the pass does what ``verify_point`` does
    for it, one public call per op: a dealer, one decode round per
    survivor set (one draw, where the campaign makes 20), the linear
    transcript, a helper and a master security query for every user
    subset and helper subset of at most T, and a sharing query for every
    such helper subset.  The security queries are the reported ops.
    """
    from hsagg import harness, leakage, patterns, protocol

    params = harness.DEFAULT_GRID[0]
    config = harness.RunConfig(
        mode="verify", grid=(params,), draws=1, seed=str(seed), dealer_seed=str(seed)
    )

    def campaign():
        report = harness.run_verify(config)
        return report, harness.render_json(report.to_json())

    result, elapsed = timed(tally, f"verify {params.label()}", campaign)
    job_s, op_s = [elapsed], []
    if result is not None:
        check_report(tally, *result)

    stride = max(1, PATTERN_STRIDE_SECONDS // seconds)
    for params in harness.DEFAULT_GRID[1:]:
        ctx = protocol.setup(params)
        q, k = params.modulus, params.num_users
        usets = _subsets(range(1, k + 1), k)
        tsets = _subsets(range(1, params.num_helpers + 1), params.collusion)
        for p_idx, pattern in enumerate(list(patterns.enumerate_patterns(params))[::stride]):
            where = f"{params.label()} {patterns.format_pattern(pattern)}"
            rng = random.Random(f"verify-grid:{seed}:{where}")

            def timed_part(what, op):
                result, elapsed = timed(tally, f"{what} at {where}", op)
                job_s.append(elapsed)
                return result, elapsed

            keys, _ = timed_part(
                "dealer", lambda: protocol.dealer_generate(ctx, f"dealer:{seed}:{p_idx}")
            )
            for survivors in patterns.enumerate_survivors(pattern, params):
                full = pattern.with_survivors(survivors)
                grads = [protocol.Gradient.random(u, params, rng) for u in range(1, k + 1)]
                noises = [protocol.UserRandomness.random(u, params, rng) for u in range(1, k + 1)]
                expected = tuple(sum(column) % q for column in zip(*(g.symbols() for g in grads)))
                transcript, _ = timed_part(
                    "round", lambda: protocol.run_round(ctx, full, grads, noises, keys)
                )
                if transcript is not None:
                    check_decoded(tally, transcript.decoded, expected, where)

            tvars, _ = timed_part(
                "transcript", lambda: leakage.build_linear_transcript(ctx, pattern)
            )
            queries = [
                (check, uset, tset)
                for uset in usets
                for tset in tsets
                for check in (leakage.check_security_helpers, leakage.check_security_master)
            ]
            for check, uset, tset in queries:
                record, elapsed = timed_part(
                    "security query",
                    lambda: check(ctx, pattern, uset, tset, tvars=tvars),
                )
                op_s.append(elapsed)
                check_record(tally, record, where)
            for tset in tsets:
                record, _ = timed_part(
                    "sharing query",
                    lambda: leakage.check_sharing_leakage(ctx, pattern, tset, tvars=tvars),
                )
                check_record(tally, record, where)
    return Timings(job_s=job_s, op_s=op_s)


# -- oracle-xcheck -----------------------------------------------------------


def oracle_points():
    from hsagg import leakage, protocol  # noqa: F401  (the workload's imports)

    return (protocol.SchemeParams(*ORACLE_PARAMS),)


def subset_size(i: int, universe: int) -> int:
    """Size of the i-th sampled subset, independent of the seed.

    Popcounts of a bijective scramble of ``i`` follow roughly the
    binomial sizes of an exhaustive subset walk, and keep the amount of
    work per run the same at every seed.
    """
    return bin((i * 0x9E3779B1) % 2**universe).count("1")


def run_oracle_xcheck(seed: int, seconds: int, tally: Tally) -> Timings:
    """One oracle build, then seeded subsets and MI queries, each
    compared on both sides.

    The job is the cross-check's queries, subsets and MI queries alike;
    the subsets are the ops.  The build is checked but not timed: one
    long call, it cannot dodge the host's slow moments the way short
    ones can (see ``run.py``), and over ten runs on a busy host its
    fastest time spread 0.26 while the subsets' spread 0.10.  The
    traced run reports its time.
    """
    from hsagg import leakage, patterns, protocol

    ctx = protocol.setup(protocol.SchemeParams(*ORACLE_PARAMS))
    pattern = patterns.parse_pattern(ORACLE_PATTERN)
    tvars = leakage.build_linear_transcript(ctx, pattern)
    names = sorted(tvars)
    rng = random.Random(f"oracle-xcheck:{seed}")

    try:
        oracle = leakage.BruteForceOracle(ctx, pattern)
    except Exception:
        tally.error("oracle build")
        return Timings(job_s=[], op_s=[])
    tally.check(
        all(len(table) == ORACLE_ASSIGNMENTS for table in oracle.tables.values()),
        "oracle tabulates every assignment for every variable",
    )
    tally.check(set(oracle.names) == set(tvars), "oracle and transcript name the same variables")

    op_s = []
    for i in range(SUBSETS_PER_SECOND * seconds):
        subset = rng.sample(names, subset_size(i, len(names)))

        def both_sides():
            return (
                oracle.entropy(subset),
                leakage.entropy_rank([tvars[n] for n in subset]),
            )

        values, elapsed = timed(tally, f"entropy of {subset}", both_sides)
        op_s.append(elapsed)
        if values is not None:
            check_entropy(tally, f"H{subset}", *values)

    job_s = list(op_s)
    for i in range(MI_QUERIES):
        a, b, c = (rng.sample(names, size) for size in (1 + i % 5, 1 + i // 5 % 5, i % 4))
        query = leakage.MiQuery(*(tuple(tvars[n] for n in part) for part in (a, b, c)))

        def both_sides():
            return oracle.cond_mutual_info(a, b, c), leakage.cond_mutual_info(query)

        values, elapsed = timed(tally, f"I({a}; {b} | {c})", both_sides)
        job_s.append(elapsed)
        if values is not None:
            check_entropy(tally, f"I({a}; {b} | {c})", *values)
    return Timings(job_s=job_s, op_s=op_s)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    points: object  # () -> the SchemeParams it sets up, after importing what it uses
    run: object  # (seed, seconds, tally) -> Timings: one pass
    passes: int  # in an end-to-end run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-grid", verify_points, run_verify_grid, passes=16),
        Workload("oracle-xcheck", oracle_points, run_oracle_xcheck, passes=16),
    )
}
