"""Communication-pattern modeling for one aggregation round.

A pattern records, per user, the set of helpers that received that
user's upload, plus (optionally) the survivor set of helpers the master
hears back from.  Helpers and users are 1-based ids everywhere.

Enumeration order is deterministic: per-user receiver sets are listed
by (size, lexicographic) and users combine like digits of a number with
the last user varying fastest.
"""

import random
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterator

__all__ = [
    "PatternError",
    "TooFewReceivers",
    "BadSurvivorSet",
    "SamplingExhausted",
    "CommPattern",
    "parse_pattern",
    "format_pattern",
    "no_straggler_pattern",
    "validate",
    "enumerate_patterns",
    "enumerate_survivors",
    "sample_pattern",
]

_SAMPLE_RETRIES = 1000


class PatternError(Exception):
    """Base class for pattern errors."""


class TooFewReceivers(PatternError):
    """A user reached fewer helpers than the resiliency threshold."""

    def __init__(self, user: int, msg: str):
        super().__init__(msg)
        self.user = user


class BadSurvivorSet(PatternError):
    """The survivor set is not a large-enough subset of active helpers."""


class SamplingExhausted(PatternError):
    """Random straggling failed to produce a feasible pattern."""


@dataclass(frozen=True)
class CommPattern:
    """Receiver sets per user plus an optional helper-to-master survivor set.

    ``receivers[k - 1]`` is the set of helpers that got user k's upload.
    ``survivors`` may be None while enumerating receiver configurations;
    round execution requires it.
    """

    receivers: tuple[frozenset[int], ...]
    survivors: frozenset[int] | None = None

    @property
    def num_users(self) -> int:
        return len(self.receivers)

    def receivers_of(self, user: int) -> frozenset[int]:
        return self.receivers[user - 1]

    def users_of(self, helper: int) -> frozenset[int]:
        """The set of users whose upload reached the given helper."""
        return frozenset(
            k for k, rs in enumerate(self.receivers, start=1) if helper in rs
        )

    @property
    def active_helpers(self) -> frozenset[int]:
        """Helpers that received at least one upload (the others straggle)."""
        out: frozenset[int] = frozenset()
        for rs in self.receivers:
            out |= rs
        return out

    def with_survivors(self, survivors) -> "CommPattern":
        return replace(self, survivors=frozenset(survivors))


def _helper_set(text: str, what: str) -> frozenset[int]:
    """The comma-separated helper ids of a pattern literal; a repeated
    id raises ``ValueError`` rather than being dropped."""
    ids = [int(h) for h in text.split(",") if h]
    if len(set(ids)) < len(ids):
        raise ValueError(f"{what} repeat a helper id in pattern literal")
    return frozenset(ids)


def parse_pattern(text: str) -> CommPattern:
    """Parse the literal form ``nu=1:1,2,3;2:1,2,4 hm=2,3,4``.

    The ``hm=`` part is optional; without it the pattern carries no
    survivor set.  A user listed twice or a helper id repeated within
    one set raises ``ValueError``.
    """
    receivers: dict[int, frozenset[int]] = {}
    survivors = None
    for part in text.split():
        if part.startswith("nu="):
            for entry in part[3:].split(";"):
                if not entry:
                    continue
                user_s, _, helpers_s = entry.partition(":")
                user = int(user_s)
                if user in receivers:
                    raise ValueError(f"duplicate user {user} in pattern literal")
                receivers[user] = _helper_set(helpers_s, f"user {user}'s receivers")
        elif part.startswith("hm="):
            survivors = _helper_set(part[3:], "the survivors")
        else:
            raise ValueError(f"unrecognized pattern component {part!r}")
    if not receivers:
        raise ValueError("pattern literal has no nu= component")
    users = sorted(receivers)
    if users != list(range(1, len(users) + 1)):
        raise ValueError("pattern literal must cover users 1..K contiguously")
    return CommPattern(tuple(receivers[k] for k in users), survivors)


def format_pattern(pattern: CommPattern) -> str:
    nu = ";".join(
        f"{k}:{','.join(str(h) for h in sorted(rs))}"
        for k, rs in enumerate(pattern.receivers, start=1)
    )
    text = f"nu={nu}"
    if pattern.survivors is not None:
        text += f" hm={','.join(str(h) for h in sorted(pattern.survivors))}"
    return text


def no_straggler_pattern(params) -> CommPattern:
    """Every user reaches every helper, and every helper survives."""
    helpers = frozenset(range(1, params.num_helpers + 1))
    return CommPattern((helpers,) * params.num_users, helpers)


def validate(pattern: CommPattern, params) -> None:
    """Raise the specific pattern error if the pattern is inadmissible.

    Receiver sets must lie inside [1, N] with at least Nr helpers per
    user; a survivor set, when present, must be a subset of the active
    helpers with at least Nr members.
    """
    n, nr = params.num_helpers, params.resiliency
    if pattern.num_users != params.num_users:
        raise PatternError(
            f"pattern has {pattern.num_users} users, params say {params.num_users}"
        )
    helpers = frozenset(range(1, n + 1))
    for k, rs in enumerate(pattern.receivers, start=1):
        if not rs <= helpers:
            raise TooFewReceivers(k, f"user {k} lists helpers outside 1..{n}")
        if len(rs) < nr:
            raise TooFewReceivers(
                k, f"user {k} reached {len(rs)} helpers, needs {nr}"
            )
    if pattern.survivors is not None:
        if not pattern.survivors <= pattern.active_helpers:
            raise BadSurvivorSet("survivors must be active helpers")
        if len(pattern.survivors) < nr:
            raise BadSurvivorSet(
                f"{len(pattern.survivors)} survivors, need {nr}"
            )


def _subsets_at_least(universe: tuple[int, ...], minimum: int) -> Iterator[frozenset[int]]:
    for size in range(minimum, len(universe) + 1):
        for combo in combinations(universe, size):
            yield frozenset(combo)


def enumerate_patterns(params) -> Iterator[CommPattern]:
    """All admissible receiver configurations, survivors unset.

    Yields (sum_{s >= Nr} C(N, s)) ** K patterns.
    """
    helpers = tuple(range(1, params.num_helpers + 1))
    per_user = list(_subsets_at_least(helpers, params.resiliency))
    for combo in product(per_user, repeat=params.num_users):
        yield CommPattern(tuple(combo))


def enumerate_survivors(pattern: CommPattern, params) -> Iterator[frozenset[int]]:
    """All valid survivor sets for the pattern: subsets of the active
    helpers with at least Nr members."""
    active = tuple(sorted(pattern.active_helpers))
    yield from _subsets_at_least(active, params.resiliency)


def sample_pattern(params, drop_prob: float, rng_seed) -> CommPattern:
    """Random straggling: drop each link independently with ``drop_prob``.

    Any user falling below Nr receivers has its link row resampled, so
    the result is the per-link product distribution conditioned on all
    users surviving; the survivor set is drawn the same way over the
    active helpers.  Raises :class:`SamplingExhausted` if the retry
    budget runs out (only plausible for extreme drop probabilities).
    """
    if not 0 <= drop_prob < 1:
        raise ValueError("drop_prob must lie in [0, 1)")
    rng = random.Random(rng_seed)
    n, nr = params.num_helpers, params.resiliency

    def draw_subset(universe: tuple[int, ...], minimum: int) -> frozenset[int]:
        for _ in range(_SAMPLE_RETRIES):
            kept = frozenset(h for h in universe if rng.random() >= drop_prob)
            if len(kept) >= minimum:
                return kept
        raise SamplingExhausted(
            f"no subset of size >= {minimum} after {_SAMPLE_RETRIES} tries"
        )

    helpers = tuple(range(1, n + 1))
    receivers = tuple(draw_subset(helpers, nr) for _ in range(params.num_users))
    pattern = CommPattern(receivers)
    survivors = draw_subset(tuple(sorted(pattern.active_helpers)), nr)
    return pattern.with_survivors(survivors)
