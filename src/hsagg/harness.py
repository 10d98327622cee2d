"""Campaign orchestration: configs, round execution, verification
sweeps, rate tables, leakage reports, and their serialized forms.

Reports are deterministic byte-for-byte given the same config and
seeds: entropies and rates are exact rationals rendered as strings
(with a decimal convenience column), and nothing volatile such as wall
clock time enters the serialized output.
"""

import csv
import io
import json
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from . import leakage as lk
from . import patterns as pt
from . import protocol as proto
from .matrix import FieldTooSmall
from .protocol import Gradient, SchemeParams, UserRandomness

__all__ = [
    "ConfigError",
    "BudgetExceeded",
    "RunConfig",
    "DEFAULT_GRID",
    "load_config_file",
    "pad_symbols",
    "transcript_to_json",
    "run_single_round",
    "PointReport",
    "VerifyReport",
    "estimate_work",
    "run_verify",
    "run_rates",
    "run_leakage",
    "render_json",
    "render_rates_csv",
    "render_leakage_csv",
    "render_verify_csv",
]

DEFAULT_GRID = (
    SchemeParams(2, 3, 2, 1, 5, 1),
    SchemeParams(2, 4, 3, 1, 7, 2),
    SchemeParams(3, 4, 3, 2, 11, 1),
    SchemeParams(2, 5, 4, 2, 11, 2),
)

EXHAUSTIVE_USER_LIMIT = 4  # larger user counts sample collusion subsets
USER_SUBSET_SAMPLES = 16


class ConfigError(Exception):
    """The run configuration is invalid."""


class BudgetExceeded(Exception):
    """The requested campaign exceeds the enumeration budget."""


@dataclass
class RunConfig:
    """One resolved command configuration; flags override file values."""

    mode: str
    params: SchemeParams | None = None
    grid: tuple[SchemeParams, ...] = ()
    pattern: str | None = None
    drop_prob: float | None = None
    seed: str = "0"
    dealer_seed: str = "0"
    gradient_file: str | None = None
    out: str | None = None
    fmt: str = "json"
    budget: int = 1_000_000
    draws: int = 20
    uset: tuple[int, ...] | None = None
    tset: tuple[int, ...] | None = None


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _subsets(items: Sequence[int], max_size: int | None = None) -> Iterable[tuple[int, ...]]:
    cap = len(items) if max_size is None else min(max_size, len(items))
    return chain.from_iterable(combinations(items, r) for r in range(cap + 1))


def _grid(config: RunConfig) -> tuple[SchemeParams, ...]:
    """The configured grid, else the one point ``params``, else the default."""
    return config.grid or ((config.params,) if config.params else DEFAULT_GRID)


def _check_ids(name: str, ids: tuple[int, ...] | None, count: int) -> None:
    """Reject an explicit id set that repeats an id or leaves 1..count."""
    if ids is not None and (
        len(set(ids)) < len(ids) or not set(ids) <= set(range(1, count + 1))
    ):
        raise ConfigError(f"{name} {ids} must list distinct ids in 1..{count}")


def _reject_unused(config: RunConfig, mode: str, *options: str) -> None:
    """Raise ConfigError for options ``mode`` would otherwise ignore."""
    given = [name for name in options if getattr(config, name) is not None]
    if given:
        raise ConfigError(f"{mode} does not use {' or '.join(given)}")


def _draw_inputs(
    params: SchemeParams, rng: random.Random
) -> tuple[list[Gradient], list[UserRandomness]]:
    """Every user's gradient, then every user's randomness, from ``rng``."""
    users = range(1, params.num_users + 1)
    return (
        [Gradient.random(k, params, rng) for k in users],
        [UserRandomness.random(k, params, rng) for k in users],
    )


def _frac(value: Fraction) -> dict:
    return {"value": str(value), "decimal": float(value)}


def pad_symbols(raw: Sequence[int], block_count: int) -> tuple[list[int], int]:
    """Zero-pad to the next multiple of ``block_count``.

    Returns the padded symbols and the original length, which callers
    record so decoded output can be truncated back.
    """
    symbols = list(raw)
    original = len(symbols)
    remainder = original % block_count
    if remainder:
        symbols += [0] * (block_count - remainder)
    return symbols, original


# -- round execution ---------------------------------------------------------


def _resolve_pattern(config: RunConfig, params: SchemeParams) -> pt.CommPattern:
    if config.pattern is not None and config.drop_prob is not None:
        raise ConfigError("give either an explicit pattern or drop_prob, not both")
    if config.pattern is not None:
        pattern = pt.parse_pattern(config.pattern)
    elif config.drop_prob is not None:
        pattern = pt.sample_pattern(params, config.drop_prob, f"pattern:{config.seed}")
    else:
        pattern = pt.no_straggler_pattern(params)
    pt.validate(pattern, params)
    if pattern.survivors is None:
        raise ConfigError("round execution needs a survivor set (hm=...)")
    return pattern


def _load_gradients(
    config: RunConfig, params: SchemeParams
) -> tuple[list[Gradient], dict[int, int]]:
    """Gradients from file (zero-padded to L) or seeded at random."""
    if config.gradient_file is None:
        rng = random.Random(f"gradients:{config.seed}")
        grads = [
            Gradient.random(k, params, rng) for k in range(1, params.num_users + 1)
        ]
        return grads, {g.owner: params.gradient_len for g in grads}
    with open(config.gradient_file, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    if not isinstance(table, dict):
        raise ConfigError("gradient file must map user ids to symbol lists")
    grads = []
    original: dict[int, int] = {}
    for k in range(1, params.num_users + 1):
        try:
            raw = table[str(k)]
        except KeyError:
            raise ConfigError(f"gradient file has no entry for user {k}") from None
        if not isinstance(raw, list) or any(
            type(v) is not int or not 0 <= v < params.modulus for v in raw
        ):
            raise ConfigError(
                f"user {k}: symbols must be a list of integers in [0, {params.modulus - 1}]"
            )
        padded, orig = pad_symbols(raw, params.block_count)
        if len(padded) != params.gradient_len:
            raise ConfigError(
                f"user {k}: {orig} symbols pad to {len(padded)}, params say L={params.gradient_len}"
            )
        original[k] = orig
        grads.append(Gradient.from_symbols(k, padded, params))
    return grads, original


def transcript_to_json(t: proto.RoundTranscript) -> dict:
    """Canonical transcript document: params, pattern, then message
    arrays keyed (k,n) / (n,j,k) / (i,n,k) / (n,i,k) / (n)."""
    p = t.params
    return {
        "params": {
            "K": p.num_users,
            "N": p.num_helpers,
            "Nr": p.resiliency,
            "T": p.collusion,
            "q": p.modulus,
            "L": p.gradient_len,
        },
        "pattern": {
            "nu": {
                str(k): sorted(rs)
                for k, rs in enumerate(t.pattern.receivers, start=1)
            },
            "hm": sorted(t.pattern.survivors) if t.pattern.survivors else None,
        },
        "uploads": [
            {"k": u.user, "n": u.helper, "payload": list(u.payload)}
            for u in sorted(t.uploads, key=lambda u: (u.user, u.helper))
        ],
        "dealer_noise": [
            {"n": n, "j": j, "k": k, "payload": list(t.keys.noise[(n, j, k)])}
            for (n, j, k) in sorted(t.keys.noise)
        ],
        "dealer_masks": [
            {"i": i, "n": n, "k": k, "payload": list(t.keys.masks[(i, n, k)])}
            for (i, n, k) in sorted(t.keys.masks)
        ],
        "messages": [
            {"n": m.sender, "i": m.receiver, "k": k, "payload": list(m.payloads[k])}
            for m in sorted(t.messages, key=lambda m: (m.sender, m.receiver))
            for k in sorted(m.payloads)
        ],
        "responses": [
            {"n": r.helper, "payload": list(r.payload)}
            for r in sorted(t.responses, key=lambda r: r.helper)
        ],
        "decoded": list(t.decoded) if t.decoded is not None else None,
    }


def run_single_round(config: RunConfig) -> tuple[proto.RoundTranscript, dict]:
    """Execute one full round per the config; returns the transcript
    and a report document whose ``match`` field is the correctness
    assertion decoded == sum of gradients."""
    if config.params is None:
        raise ConfigError("round mode needs --params")
    ctx = proto.setup(config.params)
    params = config.params
    pattern = _resolve_pattern(config, params)
    gradients, original = _load_gradients(config, params)
    rng = random.Random(f"noise:{config.seed}")
    noises = [
        UserRandomness.random(k, params, rng)
        for k in range(1, params.num_users + 1)
    ]
    keys = proto.dealer_generate(ctx, f"dealer:{config.dealer_seed}")
    transcript = proto.run_round(ctx, pattern, gradients, noises, keys)

    expected = proto.gradient_sum(gradients, params.modulus)
    rate_x, rate_y = proto.measure_rates(transcript)
    trimmed = max(original.values())
    doc = transcript_to_json(transcript)
    doc["result"] = {
        "expected_sum": list(expected),
        "match": transcript.decoded == expected,
        "original_lengths": {str(k): original[k] for k in sorted(original)},
        "decoded_trimmed": list(transcript.decoded[:trimmed]),
        "rate_x": _frac(rate_x),
        "rate_y": _frac(rate_y),
        "rate_bound": _frac(params.rate_bound),
    }
    return transcript, doc


# -- verification campaign ---------------------------------------------------


@dataclass
class PointReport:
    """Counts and findings for one grid point."""

    params: SchemeParams
    feasible: bool
    patterns: int = 0
    survivor_sets: int = 0
    decode_cases: int = 0
    security_queries: int = 0
    invariant_checks: int = 0
    failures: list[str] = dc_field(default_factory=list)
    rate_x: Fraction | None = None
    rate_y: Fraction | None = None
    rates_equal: bool | None = None
    witness_value: Fraction | None = None

    def to_json(self) -> dict:
        doc = {
            "params": self.params.label(),
            "feasible": self.feasible,
            "patterns": self.patterns,
            "survivor_sets": self.survivor_sets,
            "decode_cases": self.decode_cases,
            "security_queries": self.security_queries,
            "invariant_checks": self.invariant_checks,
            "failures": list(self.failures),
        }
        if self.feasible:
            doc["rate_x"] = _frac(self.rate_x)
            doc["rate_y"] = _frac(self.rate_y)
            doc["rate_bound"] = _frac(self.params.rate_bound)
            doc["rates_equal"] = self.rates_equal
        else:
            doc["witness_value"] = (
                _frac(self.witness_value) if self.witness_value is not None else None
            )
            doc["witness_required"] = _frac(Fraction(self.params.gradient_len))
        return doc


@dataclass
class VerifyReport:
    points: list[PointReport]

    @property
    def ok(self) -> bool:
        return all(not p.failures for p in self.points)

    def to_json(self) -> dict:
        return {
            "grid": [p.to_json() for p in self.points],
            "pass": self.ok,
        }


def _subset_counts(params: SchemeParams) -> tuple[int, int]:
    """(helper subsets of at least Nr members, of at most T).  The first
    are one user's receiver sets, so the patterns number it to the power
    K, and also the survivor sets of the full active set."""
    n = params.num_helpers
    return (
        sum(comb(n, s) for s in range(params.resiliency, n + 1)),
        sum(comb(n, s) for s in range(params.collusion + 1)),
    )


def estimate_work(params: SchemeParams, draws: int) -> int:
    """Upper-bound count of enumeration items for one grid point."""
    k = params.num_users
    per_user, n_tsets = _subset_counts(params)
    n_usets = 2**k if k <= EXHAUSTIVE_USER_LIMIT else USER_SUBSET_SAMPLES
    per_pattern = n_usets * n_tsets * 2 + per_user * draws + n_tsets
    return per_user**k * per_pattern


def _user_subsets(params: SchemeParams, seed: str) -> list[tuple[int, ...]]:
    users = list(range(1, params.num_users + 1))
    if params.num_users <= EXHAUSTIVE_USER_LIMIT:
        return list(_subsets(users))
    rng = random.Random(f"usets:{seed}")
    picked = {(), tuple(users)}
    while len(picked) < USER_SUBSET_SAMPLES:
        picked.add(tuple(sorted(rng.sample(users, rng.randrange(len(users) + 1)))))
    return sorted(picked)


def _security_sweep(ctx, pattern, tvars, usets, tsets) -> Iterator[lk.LeakageRecord]:
    """The helper record, then the master record, of every user subset
    and helper subset; a helper subset beyond the bound is exploratory."""
    for uset in usets:
        for tset in tsets:
            exploratory = len(set(tset)) > ctx.params.collusion
            for check in (lk.check_security_helpers, lk.check_security_master):
                yield check(ctx, pattern, uset, tset, tvars=tvars, exploratory=exploratory)


def verify_point(params: SchemeParams, config: RunConfig) -> PointReport:
    """Exhaustive correctness, security, and invariant sweep for one point."""
    try:
        ctx = proto.setup(params)
    except proto.Infeasible:
        report = PointReport(params=params, feasible=False)
        if params.resiliency >= 2:
            witness = lk.infeasibility_witness(params)
            report.witness_value = witness.value
            if not witness.ok:
                report.failures.append(
                    f"infeasibility witness {witness.value} < {witness.required}"
                )
        return report
    except (proto.BadParams, proto.BadBlockLength, FieldTooSmall) as exc:
        raise ConfigError(f"grid point {params.label()}: {exc}") from exc

    report = PointReport(params=params, feasible=True)
    usets = _user_subsets(params, config.seed)
    helpers = list(range(1, params.num_helpers + 1))
    tsets = list(_subsets(helpers, params.collusion))

    for p_idx, pattern in enumerate(pt.enumerate_patterns(params)):
        report.patterns += 1
        keys = proto.dealer_generate(ctx, f"dealer:{config.dealer_seed}:{p_idx}")
        rng = random.Random(f"verify:{config.seed}:{params.label()}:{p_idx}")
        for survivors in pt.enumerate_survivors(pattern, params):
            report.survivor_sets += 1
            full = pattern.with_survivors(survivors)
            for _ in range(config.draws):
                grads, noises = _draw_inputs(params, rng)
                transcript = proto.run_round(ctx, full, grads, noises, keys)
                report.decode_cases += 1
                if transcript.decoded != proto.gradient_sum(grads, params.modulus):
                    report.failures.append(
                        f"decode mismatch at pattern {pt.format_pattern(full)}"
                    )
                if report.rate_x is None:
                    report.rate_x, report.rate_y = proto.measure_rates(transcript)

        tvars = lk.build_linear_transcript(ctx, pattern)
        for rec in _security_sweep(ctx, pattern, tvars, usets, tsets):
            report.security_queries += 1
            if rec.value != 0:
                report.failures.append(
                    f"{rec.kind} leakage {rec.value} at U={rec.colluding_users}"
                    f" T={rec.colluding_helpers} {rec.pattern}"
                )
        for tset in tsets:
            rec = lk.check_sharing_leakage(ctx, pattern, tset, tvars=tvars)
            report.invariant_checks += 1
            if rec.value != 0:
                report.failures.append(
                    f"sharing leakage {rec.value} at T={rec.colluding_helpers} {rec.pattern}"
                )

    static = lk.build_static_vars(ctx)
    for suite in (lk.check_mask_independence, lk.check_upload_recoverability):
        outcome = suite(ctx, tvars=static)
        report.invariant_checks += outcome.checks
        report.failures.extend(outcome.violations)
    for tset in combinations(helpers, params.collusion):
        report.invariant_checks += 1
        h = lk.response_entropy_given_sum(ctx, tset, tvars=static)
        if h != 0:
            report.failures.append(
                f"responses not determined by sum and uploads of {tset}: H = {h}"
            )

    bound = params.rate_bound
    report.rates_equal = report.rate_x == bound and report.rate_y == bound
    if not report.rates_equal:
        report.failures.append(
            f"rates ({report.rate_x}, {report.rate_y}) differ from bound {bound}"
        )
    return report


def run_verify(config: RunConfig) -> VerifyReport:
    """Run the verification campaign over the configured grid."""
    _reject_unused(config, "verify", "pattern", "drop_prob", "gradient_file")
    if config.draws < 1:
        raise ConfigError(f"draws must be at least 1, got {config.draws}")
    grid = _grid(config)
    feasible_work = 0
    for params in grid:
        if params.resiliency > params.collusion:
            feasible_work += estimate_work(params, config.draws)
            if feasible_work > config.budget:
                raise BudgetExceeded(
                    f"grid point {params.label()} pushes estimated work "
                    f"{feasible_work} beyond budget {config.budget}"
                )
    return VerifyReport(points=[verify_point(p, config) for p in grid])


# -- rates table -------------------------------------------------------------


def run_rates(config: RunConfig) -> list[dict]:
    """Measured communication rates per feasible grid point, each from
    one no-straggler round."""
    _reject_unused(config, "rates", "pattern", "drop_prob", "gradient_file")
    rows = []
    for params in _grid(config):
        try:
            ctx = proto.setup(params)
        except proto.Infeasible:
            rows.append({"params": params.label(), "feasible": False})
            continue
        rng = random.Random(f"rates:{config.seed}:{params.label()}")
        grads, noises = _draw_inputs(params, rng)
        keys = proto.dealer_generate(ctx, f"dealer:{config.dealer_seed}")
        transcript = proto.run_round(
            ctx, pt.no_straggler_pattern(params), grads, noises, keys
        )
        rx, ry = proto.measure_rates(transcript)
        bound = params.rate_bound
        rows.append(
            {
                "params": params.label(),
                "feasible": True,
                "rate_x": _frac(rx),
                "rate_y": _frac(ry),
                "bound": _frac(bound),
                "equal": rx == bound and ry == bound,
            }
        )
    return rows


# -- leakage reports ---------------------------------------------------------


def _leakage_record_json(rec: lk.LeakageRecord) -> dict:
    return {
        "kind": rec.kind,
        "pattern": rec.pattern,
        "colluding_users": list(rec.colluding_users),
        "colluding_helpers": list(rec.colluding_helpers),
        "ranks": list(rec.ranks),
        "value": _frac(rec.value),
        "exploratory": rec.exploratory,
        "pass": rec.ok,
    }


def run_leakage(config: RunConfig) -> dict:
    """Evaluate security queries per the config.

    Without explicit ``uset``/``tset`` the sweep is exhaustive over all
    user subsets and all helper subsets within the collusion bound;
    explicit larger ``tset`` values are evaluated and flagged
    exploratory rather than judged.  Without an explicit pattern, all
    admissible patterns are covered.  A sweep of more queries than
    ``config.budget`` raises ``BudgetExceeded`` before any is run.
    """
    _reject_unused(config, "leakage", "drop_prob", "gradient_file")
    if config.params is None:
        raise ConfigError("leakage mode needs --params")
    params = config.params
    ctx = proto.setup(params)
    if config.pattern is not None:
        patterns = [pt.parse_pattern(config.pattern)]
        pt.validate(patterns[0], params)
    else:
        patterns = pt.enumerate_patterns(params)
    _check_ids("uset", config.uset, params.num_users)
    _check_ids("tset", config.tset, params.num_helpers)

    per_user, n_tsets = _subset_counts(params)
    queries = 2 * (
        (1 if config.pattern is not None else per_user**params.num_users)
        * (1 if config.uset is not None else 2**params.num_users)
        * (1 if config.tset is not None else n_tsets)
    )
    if queries > config.budget:
        raise BudgetExceeded(f"{queries} leakage queries exceed budget {config.budget}")
    users = range(1, params.num_users + 1)
    helpers = range(1, params.num_helpers + 1)
    usets = [config.uset] if config.uset is not None else list(_subsets(users))
    tsets = (
        [config.tset]
        if config.tset is not None
        else list(_subsets(helpers, params.collusion))
    )
    records = [
        rec
        for pattern in patterns
        for rec in _security_sweep(
            ctx, pattern, lk.build_linear_transcript(ctx, pattern), usets, tsets
        )
    ]
    return {
        "params": params.label(),
        "queries": len(records),
        "records": [_leakage_record_json(r) for r in records],
        "pass": all(r.ok for r in records),
    }


# -- rendering ---------------------------------------------------------------


def render_json(doc) -> bytes:
    return (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode()


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def render_rates_csv(rows: list[dict]) -> bytes:
    return _csv(
        ["params", "feasible", "rate_x", "rate_y", "bound", "equal"],
        (
            [
                row["params"],
                True,
                row["rate_x"]["value"],
                row["rate_y"]["value"],
                row["bound"]["value"],
                row["equal"],
            ]
            if row["feasible"]
            else [row["params"], False, "", "", "", ""]
            for row in rows
        ),
    )


def render_leakage_csv(doc: dict) -> bytes:
    return _csv(
        ["kind", "pattern", "colluding_users", "colluding_helpers",
         "rank_ac", "rank_bc", "rank_abc", "rank_c", "value", "exploratory", "pass"],
        (
            [
                rec["kind"],
                rec["pattern"],
                " ".join(str(u) for u in rec["colluding_users"]),
                " ".join(str(t) for t in rec["colluding_helpers"]),
                *rec["ranks"],
                rec["value"]["value"],
                rec["exploratory"],
                rec["pass"],
            ]
            for rec in doc["records"]
        ),
    )


def render_verify_csv(report: VerifyReport) -> bytes:
    return _csv(
        ["params", "feasible", "patterns", "survivor_sets", "decode_cases",
         "security_queries", "invariant_checks", "failures", "rate_x", "rate_y",
         "rates_equal"],
        (
            [
                p.params.label(),
                p.feasible,
                p.patterns,
                p.survivor_sets,
                p.decode_cases,
                p.security_queries,
                p.invariant_checks,
                len(p.failures),
                str(p.rate_x) if p.rate_x is not None else "",
                str(p.rate_y) if p.rate_y is not None else "",
                p.rates_equal if p.rates_equal is not None else "",
            ]
            for p in report.points
        ),
    )
