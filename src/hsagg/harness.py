"""Campaign orchestration: configs, round execution, verification
sweeps, rate tables, leakage reports, and their serialized forms.

Reports are deterministic byte-for-byte given the same config and
seeds: entropies are exact integers and rates exact rationals, rendered
as strings (with a decimal convenience column), and nothing volatile
such as wall clock time enters the serialized output.
"""

import csv
import io
import json
import random
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence

from . import leakage as lk
from . import patterns as pt
from . import protocol as proto
from .matrix import FieldTooSmall, MatrixError
from .protocol import Gradient, SchemeParams, UserRandomness

__all__ = [
    "ConfigError",
    "BudgetExceeded",
    "MODES",
    "EXCLUSIVE_PAIRS",
    "RunConfig",
    "OPTIONS",
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

# Witness entries per counted item, rounded up: a witness entry (one
# variable's coefficient on one source slot) costs 50-80 ns, a feasible
# point's item 14-25 us (2-vCPU host, CPU time: 12,16,3,5,23,1's witness
# takes 0.20 s for 2,597,700 entries, 20,30,3,5,37,1's 2.47 s for
# 45,449,460, and 3,4,3,2,11,1's verify_point 0.50 s for 35,969 items).
_WITNESS_ENTRIES_PER_ITEM = 256


class ConfigError(Exception):
    """The run configuration is invalid."""


class BudgetExceeded(Exception):
    """The requested campaign exceeds the enumeration budget."""


MODES = {  # each mode with its subcommand's help text
    "round": "simulate one aggregation round",
    "verify": "exhaustive verification campaign",
    "rates": "measured rates vs. the optimal bound",
    "leakage": "security queries with rank quadruples",
}
EXCLUSIVE_PAIRS = (("pattern", "drop_prob"), ("params", "grid"))  # at most one of each
_SEEDED = ("round", "verify")  # the modes whose reports depend on a seed


def _parse_grid(text: str) -> tuple[SchemeParams, ...]:
    """Semicolon-separated points; a grid naming none is refused, not defaulted."""
    grid = tuple(SchemeParams.from_csv(part) for part in text.split(";") if part.strip())
    if not grid:
        raise ConfigError(f"grid {text!r} names no point")
    return grid


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text.strip() else ()


def _option(default, parse, help, modes=tuple(MODES), flag=None, choices=None):
    """An option: a flag (``flag``, else ``--`` and its dashed name) and a
    config key, both read by ``parse``, that only ``modes`` read."""
    meta = dict(parse=parse, help=help, modes=modes, flag=flag, choices=choices)
    return dc_field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """One resolved command configuration, and the table of options:
    every field but ``mode`` is one.  Flags override file values."""

    mode: str
    params: SchemeParams | None = _option(None, SchemeParams.from_csv, "K,N,Nr,T,q,L")
    grid: tuple[SchemeParams, ...] = _option(
        (), _parse_grid, "semicolon-separated params tuples", ("verify", "rates"))
    pattern: str | None = _option(
        None, str, "literal: nu=1:1,2,3;2:1,2,4 hm=2,3,4", ("round", "leakage"))
    drop_prob: float | None = _option(
        None, float, "sample the pattern with this per-link drop probability", ("round",))
    seed: str = _option("0", str, "master seed for sampled randomness", _SEEDED)
    dealer_seed: str = _option("0", str, "seed for the trusted dealer's key material", _SEEDED)
    gradient_file: str | None = _option(
        None, str, "JSON file of per-user gradient symbols", ("round",), "--gradients")
    out: str | None = _option(None, str, "output file (default stdout)")
    format: str = _option("json", str, "report format (default json)", choices=("json", "csv"))
    budget: int = _option(1_000_000, int, "enumeration work budget")
    draws: int = _option(20, int, "random gradient draws per grid point (default 20)", ("verify",))
    uset: tuple[int, ...] | None = _option(
        None, _parse_ids, "colluding users, e.g. 1,2 (default: all subsets)", ("leakage",))
    tset: tuple[int, ...] | None = _option(
        None, _parse_ids, "colluding helpers, e.g. 3 (default: all within bound)", ("leakage",))


# every option's declaration, in table order
OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.name != "mode"}


def load_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; '#' starts a comment.
    A key given twice is refused."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: key {key} repeats line {first_line[key]}"
                )
            first_line[key] = lineno
            values[key] = value.strip()
    return values


def _colluding_sets(params: SchemeParams) -> tuple[Iterable, Iterable]:
    """Every user subset, and every helper subset within the collusion
    bound, each enumerated lazily."""
    users, helpers = range(1, params.num_users + 1), range(1, params.num_helpers + 1)
    return pt.subsets(users), pt.subsets(helpers, 0, params.collusion)


def _grid(config: RunConfig) -> tuple[SchemeParams, ...]:
    """The configured grid, else the one point ``params``, else the default."""
    return config.grid or ((config.params,) if config.params else DEFAULT_GRID)


def _check_ids(name: str, ids: tuple[int, ...] | None, count: int) -> None:
    """Reject an explicit id set that repeats an id or leaves 1..count."""
    if ids is not None and (
        len(set(ids)) < len(ids) or not all(1 <= i <= count for i in ids)
    ):
        raise ConfigError(f"{name} {ids} must list distinct ids in 1..{count}")


def _reject_unused(config: RunConfig, mode: str) -> None:
    """Raise ConfigError for an option ``mode`` would ignore, both of an
    exclusive pair, given as values other than their defaults, or a
    negative budget, in every mode."""
    given = [f.name for f in fields(config)[1:] if getattr(config, f.name) != f.default]
    unused = [name for name in given if mode not in OPTIONS[name]["modes"]]
    if unused:
        raise ConfigError(f"{mode} does not use {' or '.join(unused)}")
    for first, second in EXCLUSIVE_PAIRS:
        if first in given and second in given:
            raise ConfigError(f"give either {first} or {second}, not both")
    if config.budget < 0:
        raise ConfigError(f"budget must be at least 0, got {config.budget}")


def _frac(value: Fraction | int) -> dict:
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
        try:
            table = json.load(fh)
        except RecursionError:
            raise ConfigError("gradient file nests too deeply to read") from None
    if not isinstance(table, dict):
        raise ConfigError("gradient file must map user ids to symbol lists")
    unknown = sorted(set(table) - {str(k) for k in range(1, params.num_users + 1)})
    if unknown:
        raise ConfigError(
            f"gradient file keys {', '.join(unknown)} name no user in 1..{params.num_users}"
        )
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
            {"n": n, "i": i, "k": k, "payload": list(t.shares[n, i, k])}
            for (n, i, k) in sorted(t.shares)
        ],
        "responses": [
            {"n": r.helper, "payload": list(r.payload)}
            for r in sorted(t.responses, key=lambda r: r.helper)
        ],
        "decoded": list(t.decoded) if t.decoded is not None else None,
    }


def _seeded_round(config: RunConfig, params: SchemeParams) -> tuple:
    """The round that ``round`` runs at ``params``: under the config's
    pattern (else no straggler), on its gradients (``_load_gradients``),
    with user randomness seeded from ``seed`` and dealer keys from
    ``dealer_seed``; returned with the gradients and their original lengths."""
    ctx = proto.setup(params)
    pattern = _resolve_pattern(config, params)
    gradients, original = _load_gradients(config, params)
    rng = random.Random(f"noise:{config.seed}")
    noises = [UserRandomness.random(k, params, rng) for k in range(1, params.num_users + 1)]
    keys = proto.dealer_generate(ctx, f"dealer:{config.dealer_seed}")
    return proto.run_round(ctx, pattern, gradients, noises, keys), gradients, original


def run_single_round(config: RunConfig) -> tuple[proto.RoundTranscript, dict]:
    """Execute one full round per the config (``_seeded_round``); returns
    the transcript and a report document whose ``match`` field is the
    correctness assertion decoded == sum of gradients."""
    _reject_unused(config, "round")
    if config.params is None:
        raise ConfigError("round mode needs --params")
    params = config.params
    proto.check_params(params)
    if _round_work(params) > config.budget:
        raise BudgetExceeded(f"a round at {params.label()} exceeds budget {config.budget}")
    transcript, gradients, original = _seeded_round(config, params)

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
    witness_value: int | None = None

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


def _subsets(n: int, lo: int, hi: int, cap: int) -> int:
    """The subsets of an ``n``-set with ``lo`` to ``hi`` members, at most
    ``cap``.  As C(n, s) >= 2^min(s, n - s), a range with a size
    ``cap.bit_length()`` from both ends passes ``cap``; any other lies
    that near one end, so it sums fewer than twice that many sizes."""
    mid = min(max(n // 2, lo), hi)
    if min(mid, n - mid) >= cap.bit_length():
        return cap
    total = 0
    for s in range(lo, hi + 1):
        total = min(total + comb(n, s), cap)
    return total


def _power(base: int, exp: int, budget: int) -> int:
    """``base ** exp``, or ``budget + 1`` where that passes ``budget``:
    for base >= 2 from the budget's bit length on, so that a huge
    exponent is never raised to."""
    if base >= 2 and exp >= budget.bit_length():
        return budget + 1
    return base**exp


def estimate_work(params: SchemeParams, draws: int, budget: int) -> int:
    """Upper-bound count of enumeration items for one grid point: per
    pattern, the security queries (every user subset and helper subset,
    helper and master), decode cases and sharing checks; then the
    no-straggler suites, the mask suite, recoverability and the response
    checks.  A decode case counts ``block_len`` items, one per symbol of
    each payload, since its cost grows with the gradient length.

    An infeasible point counts its witness, if it has one
    (``lk.witness_sibling``): its sibling's no-straggler transcript
    (``_transcript_items``).

    A power of K or a subset count that passes ``budget`` counts as
    ``budget + 1`` (``_power``, ``_subsets``), so a huge K or N
    costs no more than a small one, and so does the count itself, so
    that it prints short: past the budget it is a lower bound."""
    (k, n, nr, t), cap = params.as_tuple()[:4], budget + 1
    if nr <= t:
        return min(_transcript_items(params), cap) if lk.witness_sibling(params) else 0
    per_user, n_tsets = _subsets(n, nr, n, cap), _subsets(n, 0, t, cap)
    queries = _subsets(k, 0, k, cap) * n_tsets * 2
    per_pattern = queries + per_user * draws * params.block_len + n_tsets
    masks = 1 + n * k * _subsets(n - 1, 1, nr - 1, cap)
    patterns = _power(per_user, k, budget)
    return min(patterns * per_pattern + masks + k * per_user + _subsets(n, t, t, cap), cap)


def _transcript_items(params: SchemeParams) -> int:
    """A no-straggler linear transcript's variables (``W[k]``, ``F[k]``,
    ``X``, ``Xhat``, ``Z``, ``M``, ``W``, ``Y``) times its source slots,
    one item per ``_WITNESS_ENTRIES_PER_ITEM`` such entries, rounded up."""
    k, n = params.num_users, params.num_helpers
    entries = (k * (2 + 2 * n * n) + n + 1) * lk.SourceLayout(params).dim
    return -(-entries // _WITNESS_ENTRIES_PER_ITEM)


def _round_work(params: SchemeParams) -> int:
    """A round's items, checked against the budget before its pattern or
    inputs are built: the ``block_len`` items that ``estimate_work``
    counts per decode case, times the K users the round encodes, plus the
    N Nr x Nr systems ``setup`` builds and the K N^2 helper-phase messages."""
    k, n, nr = params.as_tuple()[:3]
    return k * params.block_len + n * nr * nr + k * n * n


def _security_sweep(tvars, user_sets, helper_sets) -> Iterator[lk.LeakageRecord]:
    """The helper record, then the master record, of every user subset
    and helper subset under the context and pattern of the transcript
    ``tvars``; the record of a helper subset beyond the bound is flagged
    exploratory."""
    ctx, pattern = tvars.ctx, tvars.pattern
    for uset in user_sets:
        for tset in helper_sets:
            for check in (lk.check_security_helpers, lk.check_security_master):
                yield check(ctx, pattern, uset, tset, tvars=tvars)


def _decode_cases(unit: lk.UnitRound, responses, survivor_sets, draws, decodes: dict) -> list:
    """Each survivor set of a pattern's probed ``responses``, which carry
    ``draws`` stacked draws whose sum is ``unit.probed_sum`` (draw ``d``
    is columns ``[d * l, (d + 1) * l)`` of every part), with its ``draws``
    decode cases: whether each draw's decode equals its sum.  The master
    is handed the responses it reads, the Nr lowest-numbered survivors',
    and decodes them with one inverse; a decode that raises fails every
    case of its set.  Each chosen set's draw matches are found once in
    ``decodes``, keyed by the chosen helpers and the identities of their
    payloads (one object per content, which the caller keeps alive): the
    whole input of the decode."""
    ctx, expected = unit.ctx, unit.probed_sum
    l, parts, nr = ctx.params.block_len, ctx.params.block_count, ctx.params.resiliency
    width = draws * l  # part i of the sum is its columns [i * width, (i + 1) * width)
    columns = [[slice(i * width + d, i * width + d + l) for i in range(parts)]
               for d in range(0, width, l)]  # each draw's
    cases = []
    for survivors in survivor_sets:
        by_helper = {r.helper: r for r in responses if r.helper in survivors}
        chosen = [by_helper[n] for n in sorted(by_helper)[:nr]]
        key = tuple((r.helper, id(r.payload)) for r in chosen)
        found = decodes.get(key)
        if found is None:
            try:
                decoded = proto.master_decode(ctx, chosen)
            except (MatrixError, proto.ProtocolError):
                decoded = ()  # matches no draw
            found = decodes[key] = (True,) * draws if decoded == expected else tuple(
                all(decoded[c] == expected[c] for c in cols) for cols in columns)
        cases.append((survivors, found))
    return cases


def _checked_point(params: SchemeParams) -> bool:
    """Whether a grid point is feasible, with no matrix built
    (``proto.check_params``), its witness's sibling checked too if it is
    not.  Any other bad point raises ConfigError naming it."""
    try:
        try:
            proto.check_params(params)
            return True
        except proto.Infeasible:
            sibling = lk.witness_sibling(params)
            if sibling is not None:
                proto.check_params(sibling)
            return False
    except (proto.BadParams, proto.BadBlockLength, FieldTooSmall) as exc:
        raise ConfigError(f"grid point {params.label()}: {exc}") from exc


def verify_point(params: SchemeParams, config: RunConfig) -> PointReport:
    """Exhaustive correctness, security, and invariant sweep for one point,
    one round per pattern: the point's unit round (``lk.UnitRound``)
    carries ``draws`` uniform rounds side by side as probe columns, one
    probe per source slot, and the master decodes the responses' probe
    columns against the sum's (``probed_sum``).  The users' slots are
    drawn from ``seed``, the dealer noise's from ``dealer_seed``."""
    if not _checked_point(params):
        report = PointReport(params=params, feasible=False)
        if lk.witness_sibling(params) is not None:
            value = report.witness_value = lk.infeasibility_witness(params)
            if value < params.gradient_len:
                report.failures.append(f"infeasibility witness {value} < {params.gradient_len}")
        return report

    ctx, report = proto.setup(params), PointReport(params=params, feasible=True)
    user_sets, helper_sets = map(list, _colluding_sets(params))
    # what no pattern changes, once per point and only in locals
    draws, layout, q = config.draws, lk.SourceLayout(params), params.modulus
    users = random.Random(f"verify:{config.seed}:{params.label()}")
    dealer = random.Random(f"dealer:{config.dealer_seed}")
    width = draws * params.block_len  # a slot's draws, side by side
    probes = [[(users if s < layout.user_dim else dealer).randrange(q) for _ in range(width)]
              for s in range(layout.dim)]
    unit = lk.UnitRound(ctx, probes)
    payloads, decodes = {}, {}  # each probed payload once per content, and its decodes

    for pattern in pt.enumerate_patterns(params):
        report.patterns += 1
        survivor_sets = list(pt.enumerate_survivors(pattern, params))
        transcript, tvars = unit.run(pattern)
        probed = [proto.HelperResponse(r.helper, payloads.setdefault(p := r.payload[unit.dim:], p))
                  for r in transcript.responses]
        report.survivor_sets += len(survivor_sets)
        report.decode_cases += len(survivor_sets) * draws
        for survivors, found in _decode_cases(unit, probed, survivor_sets, draws, decodes):
            if not all(found):  # a line per failed case
                full = pt.format_pattern(pattern.with_survivors(survivors))
                report.failures += [f"decode mismatch at pattern {full}"] * found.count(False)

        for rec in _security_sweep(tvars, user_sets, helper_sets):
            report.security_queries += 1
            if rec.value != 0:
                report.failures.append(
                    f"{rec.kind} leakage {rec.value} at U={rec.colluding_users}"
                    f" T={rec.colluding_helpers} {rec.pattern}"
                )
        for tset in helper_sets:
            rec = lk.check_sharing_leakage(ctx, pattern, tset, tvars=tvars)
            report.invariant_checks += 1
            if rec.value != 0:
                report.failures.append(
                    f"sharing leakage {rec.value} at T={rec.colluding_helpers} {rec.pattern}"
                )

    transcript, static = unit.run(pt.no_straggler_pattern(params))
    for suite in (lk.check_mask_independence, lk.check_upload_recoverability):
        checks, violations = suite(static)
        report.invariant_checks += checks
        report.failures.extend(violations)
    for tset in pt.subsets(range(1, params.num_helpers + 1), params.collusion, params.collusion):
        report.invariant_checks += 1
        h = lk.response_entropy_given_sum(static, tset)
        if h != 0:
            report.failures.append(
                f"responses not determined by sum and uploads of {tset}: H = {h}"
            )

    report.rate_x, report.rate_y = proto.measure_rates(transcript)  # alike in every pattern
    bound = params.rate_bound
    report.rates_equal = report.rate_x == bound and report.rate_y == bound
    if not report.rates_equal:
        report.failures.append(
            f"rates ({report.rate_x}, {report.rate_y}) differ from bound {bound}"
        )
    return report


def run_verify(config: RunConfig) -> VerifyReport:
    """Run the verification campaign over the configured grid."""
    _reject_unused(config, "verify")
    if config.draws < 1:
        raise ConfigError(f"draws must be at least 1, got {config.draws}")
    grid = _grid(config)
    for params in grid:
        _checked_point(params)
    work = 0
    for params in grid:
        work += estimate_work(params, config.draws, config.budget)
        if work > config.budget:
            raise BudgetExceeded(
                f"grid point {params.label()} pushes estimated work to at least {work},"
                f" beyond budget {config.budget}"
            )
    return VerifyReport(points=[verify_point(p, config) for p in grid])


# -- rates table -------------------------------------------------------------


def run_rates(config: RunConfig) -> list[dict]:
    """Measured communication rates per feasible grid point, each from
    the round ``round`` runs there with default seeds (``_seeded_round``):
    the rates are payload lengths over L, which no input symbol changes."""
    _reject_unused(config, "rates")
    grid = _grid(config)
    feasible = [_checked_point(p) for p in grid]
    if sum(_round_work(p) for p, ok in zip(grid, feasible) if ok) > config.budget:
        raise BudgetExceeded(f"the grid's rounds exceed budget {config.budget}")
    rows = []
    for params, ok in zip(grid, feasible):
        if not ok:
            rows.append({"params": params.label(), "feasible": False})
            continue
        rx, ry = proto.measure_rates(_seeded_round(config, params)[0])
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
    admissible patterns are covered.  A sweep whose queries and unit
    round count more than ``config.budget`` items raises ``BudgetExceeded``
    before any matrix is built.
    """
    _reject_unused(config, "leakage")
    if config.params is None:
        raise ConfigError("leakage mode needs --params")
    params = config.params
    proto.check_params(params)
    if config.pattern is not None:
        patterns = [pt.parse_pattern(config.pattern)]
        pt.validate(patterns[0], params)
    else:
        patterns = pt.enumerate_patterns(params)
    _check_ids("uset", config.uset, params.num_users)
    _check_ids("tset", config.tset, params.num_helpers)

    (k, n, nr, t), budget = params.as_tuple()[:4], config.budget
    per_user = _subsets(n, nr, n, budget + 1)
    queries = 2 * (
        (1 if config.pattern is not None else _power(per_user, k, budget))
        * (1 if config.uset is not None else _subsets(k, 0, k, budget + 1))
        * (1 if config.tset is not None else _subsets(n, 0, t, budget + 1))
    )
    work = min(queries + _transcript_items(params), budget + 1)
    if work > budget:
        raise BudgetExceeded(f"the queries and their unit round push estimated work to"
                             f" at least {work}, beyond budget {budget}")
    every_user_set, every_helper_set = _colluding_sets(params)
    user_sets = [config.uset] if config.uset is not None else list(every_user_set)
    helper_sets = [config.tset] if config.tset is not None else list(every_helper_set)
    unit = lk.UnitRound(proto.setup(params))
    records = [
        rec
        for pattern in patterns
        for rec in _security_sweep(unit.run(pattern)[1], user_sets, helper_sets)
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
