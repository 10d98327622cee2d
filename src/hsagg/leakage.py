"""Exact information-theoretic verification of the aggregation scheme.

This module names the protocol variables and fixes their source layout
(``SourceLayout``), runs the protocol roles on a source assignment
(``concrete_transcript_values``), reads each variable's coefficient
rows off that run on the identity (``UnitRound``: the uploads once per
context, then ``protocol.run_helpers`` per pattern, with probe columns
that carry a concrete round beside the identity), and does the rank
arithmetic.  The round stops at the responses: the verifier never
decodes.  For linear variables q-ary joint entropy is ``rank * block_len``, and

    I(A; B | C) = rank(AC) + rank(BC) - rank(ABC) - rank(C)

in symbols: exact integers, never floats, so zero leakage is decided
exactly.  ``rank_quadruple`` is the incremental path, valid for any
query and the reference in tests.  The helper, master, sharing and
response checks read split reductions that the scheme context's rank
store (``_RankStore``) shares among the transcripts built from it; a
transcript answers only for the context and pattern it was built from
(``TranscriptMismatch``).  ``BruteForceOracle`` checks the
rank-to-entropy step on tiny instances by counting, with no rank
arithmetic.  The README's ``leakage`` paragraphs give the design: the
split-space kernel, per-user view blocks and the store's keys.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property

from .field import PrimeField
from .matrix import GfMatrix, RowSpace
from .patterns import CommPattern, format_pattern, no_straggler_pattern, subsets
from .protocol import (
    Gradient,
    RoundTranscript,
    SchemeContext,
    SchemeParams,
    UserRandomness,
    encode_round_uploads,
    gradient_sum,
    keys_from_noise,
    run_helpers,
    setup,
)

__all__ = [
    "LeakageError",
    "LayoutMismatch",
    "TranscriptMismatch",
    "BadSubset",
    "TooLargeToEnumerate",
    "SourceLayout",
    "LinearVar",
    "MiQuery",
    "LeakageRecord",
    "UnitRound",
    "build_static_vars",
    "build_linear_transcript",
    "joint_rank",
    "entropy_rank",
    "all_subset_entropies_rank",
    "rank_quadruple",
    "cond_mutual_info",
    "helper_observation",
    "check_security_helpers",
    "check_security_master",
    "check_mask_independence",
    "check_sharing_leakage",
    "check_upload_recoverability",
    "response_entropy_given_sum",
    "witness_sibling",
    "infeasibility_witness",
    "concrete_transcript_values",
    "BruteForceOracle",
]


class LeakageError(Exception):
    """Base class for verifier errors."""


class LayoutMismatch(LeakageError):
    """Variables over different source layouts were combined."""


class TranscriptMismatch(LeakageError):
    """A transcript was queried for a context or a pattern other than
    the ones it was built from."""


class BadSubset(LeakageError):
    """A colluding set repeats an id or names one outside its range, or an
    oracle name is unknown."""


def _check_ids(role: str, ids: Sequence[int], count: int) -> None:
    """Raise ``BadSubset`` naming the colluding ``role`` ids outside 1..count,
    or the set if an id repeats."""
    bad = [i for i in ids if not 1 <= i <= count]
    if bad:
        raise BadSubset(f"colluding {role} {bad} lie outside 1..{count}")
    if len(set(ids)) < len(ids):
        raise BadSubset(f"colluding {role} {list(ids)} repeat an id")


class TooLargeToEnumerate(LeakageError):
    """The source space exceeds the brute-force enumeration budget."""


# The most source assignments an oracle enumerates.  Every variable is at
# most ``dim * block_len`` symbols wide, so its radix ``q**width`` is at
# most the assignment count: below 2**31, so each variable's code is int32.
_ORACLE_ASSIGNMENT_LIMIT = 10**6
# The most assignments one stacked round of an oracle's build runs: a
# round holds its payloads as Python ints, and one round of 823,543
# assignments (1,5,2,1,7,1) peaked at 627 MB RSS, against 406 MB in rounds.
_ORACLE_ROUND_LIMIT = 2**14


@dataclass(frozen=True)
class SourceLayout:
    """Canonical ordering of all independent uniform source slots.

    Slots come in three blocks: gradient parts (user-major), user
    randomness parts (user-major), then dealer noise ordered
    (helper, mixing slot, user).  Each slot stands for ``block_len``
    i.i.d. symbols; coefficient matrices act blockwise, one column per
    slot.
    """

    params: SchemeParams

    @property
    def block_len(self) -> int:
        return self.params.block_len

    @property
    def dim(self) -> int:
        p = self.params
        return self.user_dim + p.num_helpers * p.num_users * (p.resiliency - 1)

    @property
    def user_dim(self) -> int:
        """Number of user-source slots (gradient and randomness parts),
        which come before the dealer noise."""
        return self.params.num_users * self.params.resiliency

    def w_slot(self, user: int, part: int) -> int:
        return (user - 1) * self.params.block_count + (part - 1)

    def f_slot(self, user: int, part: int) -> int:
        p = self.params
        return p.num_users * p.block_count + (user - 1) * p.collusion + (part - 1)

    def q_slot(self, helper: int, mix: int, user: int) -> int:
        p = self.params
        base = p.num_users * p.resiliency
        return base + ((helper - 1) * (p.resiliency - 1) + (mix - 1)) * p.num_users + (
            user - 1
        )

    def labels(self) -> tuple[str, ...]:
        p = self.params
        out = []
        for k in range(1, p.num_users + 1):
            out += [f"w{k}.{i}" for i in range(1, p.block_count + 1)]
        for k in range(1, p.num_users + 1):
            out += [f"f{k}.{j}" for j in range(1, p.collusion + 1)]
        for n in range(1, p.num_helpers + 1):
            for j in range(1, p.resiliency):
                out += [f"q{n}.{j}.{k}" for k in range(1, p.num_users + 1)]
        return tuple(out)


@dataclass(frozen=True)
class LinearVar:
    """A named protocol variable as rows of source-slot coefficients."""

    name: str
    layout: SourceLayout
    coeffs: GfMatrix

    @property
    def rows(self) -> tuple:
        return self.coeffs.data


def _rows(variables: Iterable[LinearVar]) -> tuple:
    """The coefficient rows of ``variables``, in order."""
    return tuple([r for v in variables for r in v.rows])


class _RankStore:
    """Rank work that the transcripts of one scheme context share.

    Built for the context's parameters and field, it keeps the full
    ``layout``, the user-local one (``local``: the same parameters with
    one user) and the ``field``, so no query passes them.  ``columns``
    holds per user the columns its local columns stand for, in order:
    gradient parts, randomness parts (``own``, as a set), dealer noise
    by (helper, mixing slot).  Every helper and master query's target
    and given are the users' own input symbols, unit rows of the layout
    in every scheme: ``gradients`` is the target's unit columns (every
    gradient slot) and ``given(with_sum, users)`` each given's unit
    split (those users' ``own`` columns, plus the sum's rows), derived
    once per store.
    Every other key is coefficient-row content, never a name, a
    pattern or a helper id, so that a transcript whose rows differ (a
    broken scheme run under the same context) never reads another's
    entry: its methods take rows, never a ``LinearVar`` or a name.
    ``splits`` holds each group's rows and ``by_user`` blocks,
    ``reductions`` the split reduction ``(r_noise, K)`` of each
    user-local block and set reduced whole, ``assemblies`` and ``joined``
    those of held splits or blocks joined, by identity, ``kernels`` each
    kernel assembled from per-user kernels, and ``extensions`` each
    view kernel extended by response rows, keyed by the identities of
    both (one object per content, which the store keeps alive).
    ``quadruples`` holds each split-path rank quadruple, a query's or a
    user's part of one, keyed by the identities of K, the target and
    the given, each one object per content; ``r_noise`` is added back
    outside the key.  ``split_queries`` holds each ``_split_query``,
    by the identities of its target and given and by its width.
    ``views`` counts the collusion views assembled and those reduced
    whole.  Keys share one copy of each equal part.
    """

    def __init__(self, params: SchemeParams, field: PrimeField):
        layout = self.layout = SourceLayout(params)
        self.field, self.local = field, SourceLayout(replace(params, num_users=1))
        k_all, parts = params.num_users, params.block_count
        self.columns = tuple(
            (*range(layout.w_slot(k, 1), layout.w_slot(k, 1) + parts),
             *range(layout.f_slot(k, 1), layout.f_slot(k, 1) + params.collusion),
             *range(layout.q_slot(1, 1, k), layout.dim, k_all))
            for k in range(1, k_all + 1)
        )
        # the sum W: part i's row is 1 on every user's slot of part i, a unit row at K = 1
        rows = tuple(tuple(int(j < k_all * parts and j % parts == i) for j in range(layout.dim))
                     for i in range(parts))
        self._sum = (frozenset(range(parts)), ()) if k_all == 1 else (frozenset(), rows)
        self.splits, self.reductions, self.kernels, self.extensions = {}, {}, {}, {}
        self.quadruples, self.split_queries, self.givens, self._held = {}, {}, {}, {}
        self.assemblies, self.joined = {}, {}
        self.own = tuple(frozenset(cols[:self.local.user_dim]) for cols in self.columns)
        self._user_of = {j: k for k, cols in enumerate(self.columns) for j in cols}
        self.gradients, self._own_gradients, self._nothing = self._hold(
            [frozenset(range(k_all * parts)), frozenset(range(parts)), (frozenset(), ())])
        self.views = {"assembled": 0, "whole": 0}

    def _hold(self, parts: Iterable) -> tuple:
        return tuple(self._held.setdefault(x, x) for x in parts)

    def given(self, with_sum: bool, users: tuple[int, ...]) -> tuple:
        """The unit split of the gradient sum ``W`` if ``with_sum``, and
        of each of ``users``' ``W[u]`` and ``F[u]``: their unit columns
        and the sum's rows, unless they are unit rows (K = 1)."""
        found = self.givens.get((with_sum, users))
        if found is None:
            _check_ids("users", users, len(self.columns))
            units, rest = self._sum if with_sum else self._nothing
            units = units.union(*(self.own[u - 1] for u in users))
            found = self.givens[with_sum, users] = self._hold([(units, rest)])[0]
        return found

    def reduction(self, rows: tuple) -> tuple:
        """``_split_observed`` of ``rows`` once per content, over the
        user-local layout if they are user-local wide, else the full one;
        the kernel is the store's one object of its content."""
        found = self.reductions.get(rows)
        if found is None:
            layout = self.local if rows and len(rows[0]) == self.local.dim else self.layout
            r_noise, kernel = _split_observed(rows, layout, self.field)
            kernel = self._held.setdefault(kernel, kernel)
            found = self.reductions[self._hold(rows)] = r_noise, kernel
        return found

    def by_user(self, rows: Sequence[tuple]) -> tuple | None:
        """Each user's ``rows`` in user-local coordinates, in order, each
        user's held; None if a row spans users.  A row belongs to the
        user of its first nonzero column, a zero row to user 1."""
        columns, user_of = self.columns, self._user_of
        blocks = [[] for _ in columns]
        for row in rows:
            # the first nonzero's column; a zero row's 0 sits in column 0, user 1's
            k = user_of[row.index(next(filter(None, row), 0))]
            local = tuple([row[j] for j in columns[k]])
            if len(local) - local.count(0) != len(row) - row.count(0):
                return None  # the row spans users
            blocks[k].append(local)
        return self._hold(map(tuple, blocks))

    def split(self, rows: tuple) -> tuple:
        """A group's ``rows`` and ``by_user`` blocks, one object per row content."""
        return self.splits.get(rows) or self.splits.setdefault(rows, (rows, self.by_user(rows)))

    def assembled(self, splits: Sequence[tuple]) -> tuple:
        """The split reduction of groups, each as ``split`` holds it, joined
        in order, and each user's, from its blocks of every group: the
        noise ranks add, and the kernels, embedded in user width with
        disjoint supports, are together in reduced echelon form.  Reduced
        whole, with no user's, if a row spans users.  Found by the splits'
        identities, and each user's by its blocks'."""
        found = self.assemblies.get(key := tuple(map(id, splits)))
        if found is not None:
            return found
        if any(blocks is None for _, blocks in splits):
            reduction, users = self.reduction(tuple(r for rows, _ in splits for r in rows)), None
        else:
            users = tuple(self._joined(tuple(blocks[u] for _, blocks in splits))
                          for u in range(len(self.columns)))
            kernel = self.kernels.get(kernel_key := tuple(id(kernel) for _, kernel in users))
            if kernel is None:
                kernel = tuple(sorted(
                    (tuple(dict(zip(cols, row)).get(j, 0) for j in range(self.layout.user_dim))
                     for cols, (_, rows) in zip(self.columns, users) for row in rows),
                    key=lambda row: row.index(1),  # each row's first nonzero is 1
                ))
                kernel = self.kernels[kernel_key] = self._held.setdefault(kernel, kernel)
            reduction = sum(r for r, _ in users), kernel
        found = self.assemblies[key] = reduction, users
        return found

    def _joined(self, blocks: tuple) -> tuple:
        found = self.joined.get(key := tuple(map(id, blocks)))
        return found or self.joined.setdefault(key, self.reduction(sum(blocks, ())))

    def responses(self, rows: tuple) -> tuple:
        """The response rows ``rows``, one object per content, and whether
        they all lie in the user columns: what ``extended`` needs of a
        transcript's responses, found once per transcript."""
        in_user_columns = not any(any(row[self.layout.user_dim:]) for row in rows)
        return self._held.setdefault(rows, rows), in_user_columns

    def extended(self, view: Sequence[tuple], reduction, responses: tuple) -> tuple:
        """The split reduction of the view's groups ``view`` (pairs, as in
        ``assembled``), then the response rows (``responses``, as the
        store's ``responses`` gives them): if they lie in the user
        columns, the view's ``r_noise`` and its kernel extended by them in
        user width, once per view kernel and response rows; otherwise
        reduced whole."""
        rows, in_user_columns = responses
        if not in_user_columns:
            return self.reduction((*(r for part, _ in view for r in part), *rows))
        r_noise, kernel = reduction
        key = (id(kernel), id(rows))
        found = self.extensions.get(key)
        if found is None:
            found = _extended_kernel(kernel, rows, self.layout, self.field)
            found = self.extensions[key] = self._held.setdefault(found, found)
        return r_noise, found

    def quadruple(self, kernel, target, given, users=None) -> tuple:
        """The rank quadruple of a kernel the store holds, less its
        ``r_noise``, once per kernel, target and given, keyed by their
        identities (the store keeps one object of each content).  With
        the kernel's per-user reductions ``users`` (a helper query: the
        ``gradients`` target, a given of each user's ``own`` or none of
        them), a sum over users: a colluding user adds its own column
        count to each rank, and any other the quadruple of its kernel
        against its gradient parts, given nothing (which shares the
        table).  Else ``_split_quadruple`` of their ``_split_query``."""
        key = (id(kernel), id(target), id(given))
        ranks = self.quadruples.get(key)
        if ranks is None:
            if users is None:
                # a user-local query with no kernel row inserts no row at all
                width = len(kernel[0]) if kernel else self.layout.user_dim
                prepared = (*key[1:], width)
                if prepared not in self.split_queries:
                    self.split_queries[prepared] = _split_query(target, given, width, self.field)
                ranks = _split_quadruple(self.split_queries[prepared], kernel, self.field)
            else:
                n, units = self.local.user_dim, given[0]
                parts = [(n, n, n, n) if own <= units
                         else self.quadruple(user, self._own_gradients, self._nothing)
                         for own, (_, user) in zip(self.own, users)]
                ranks = tuple(map(sum, zip(*parts)))
            ranks = self.quadruples[key] = self._held.setdefault(ranks, ranks)
        return ranks


def _rank_store(ctx: SchemeContext) -> _RankStore:
    """The context's rank store, kept in its memo, so that it dies with
    the contexts that hold the memo."""
    if _RankStore not in ctx.memo:
        ctx.memo[_RankStore] = _RankStore(ctx.params, ctx.field)
    return ctx.memo[_RankStore]


@dataclass(frozen=True, slots=True)
class _Collusion:
    """The split reductions ``(r_noise, K)`` of a colluding helper set's
    observations under one pattern: the non-share prefix (uploads and
    stored masks), the view (``helper_observation``) and the master's
    set (the view, then every active helper's response); and each
    user's reduction of the view, None if a row spans users."""

    prefix_reduction: tuple
    view_reduction: tuple
    master_reduction: tuple
    users: tuple | None


class LinearTranscript(Mapping):
    """A round's variables by name, plus the work its queries share.

    Built only by ``UnitRound.run``, from its unit round, it keeps the
    ``ctx`` and the ``pattern`` it was built from, the pattern's
    ``label`` and ``block_len`` and the context's rank store, and answers
    only for that context and pattern (``require``).  It keeps the rows
    of the responses ``Y[n]`` (``_RankStore.responses``) and, read-only,
    memoizes for its own life: each helper's ``groups`` as the store's
    splits, its received shares split here (``_RankStore.split``) and its
    uploads and masks by its unit round (``UnitRound.splits``), and every
    colluding set's split reductions (``collusion``, by helper subset),
    each once.  Reductions are found by row content in the rank store
    (``_RankStore``), never by names; the helper and master queries'
    targets and givens come from the store's layout.

    The split paths answer every check, for every context, broken ones
    included: the identity run makes each ``W[k]`` and ``F[k]`` a unit
    row, and the sum ``W`` and each upload ``X = upload_matrix @
    (w; f)`` never see dealer noise.
    """

    def __init__(self, unit: UnitRound, pattern: CommPattern, tvars: dict[str, LinearVar]):
        self.ctx, self.pattern, self._unit = unit.ctx, pattern, unit
        self.label, self.block_len = format_pattern(pattern), unit.ctx.params.block_len
        self._vars, self._store = tvars, unit._store
        responses = _rows(tvars[f"Y[{n}]"] for n in sorted(pattern.active_helpers))
        self._responses = self._store.responses(responses)
        self._splits: dict[int, tuple] = {}  # by helper
        self._collusions: dict[tuple[int, ...], _Collusion] = {}  # by helper subset

    def __getitem__(self, name: str) -> LinearVar:
        return self._vars[name]

    def __iter__(self):
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def require(self, ctx: SchemeContext, pattern: CommPattern) -> None:
        """Raise ``TranscriptMismatch`` unless ``ctx`` and ``pattern`` are
        those this transcript was built from: the same objects, as in a
        sweep, or equal ones."""
        if ctx is not self.ctx and ctx != self.ctx:
            raise TranscriptMismatch(
                f"transcript of another scheme context queried at {ctx.params.label()}"
            )
        if pattern is not self.pattern and pattern != self.pattern:
            raise TranscriptMismatch(
                f"transcript of {self.label} queried for {format_pattern(pattern)}"
            )

    def groups(self, t: int) -> tuple[tuple[LinearVar, ...], ...]:
        """Helper ``t``'s uploads ``X[k,t]`` and stored masks ``Z[t,n,k]``,
        as its unit round resolved them, and the shares ``M[i->t,k]`` it
        receives from the other active helpers, each in order."""
        users = range(1, self.ctx.params.num_users + 1)
        shares = (self._vars.get(f"M[{i}->{t},{k}]")
                  for i in sorted(self.pattern.active_helpers) if i != t for k in users)
        return (*self._unit._prefix[t], tuple(v for v in shares if v is not None))

    def collusion(self, tset: tuple[int, ...]) -> _Collusion:
        """The split reductions of the prefix, view and master's set of
        ``tset``, a sorted tuple, computed once.  The view
        (``helper_observation``) is every helper's uploads, then masks,
        then received shares, and the prefix its uploads and masks.  Each
        helper's ``groups`` are found once per transcript as the store's
        splits, and the prefix and the view are assembled from them by
        their identities (``_RankStore.assembled``), or reduced whole if
        a row spans users.  The master's set extends the view's kernel by
        the responses (``_RankStore.extended``)."""
        found = self._collusions.get(tset)
        if found is None:
            _check_ids("helpers", tset, self.ctx.params.num_helpers)
            store = self._store
            for t in set(tset) - self._splits.keys():
                self._splits[t] = (*self._unit.splits(t), store.split(_rows(self.groups(t)[2])))
            splits = [self._splits[t] for t in tset]
            prefix = [s[g] for g in (0, 1) for s in splits]
            view = prefix + [s[2] for s in splits]
            view_reduction, users = store.assembled(view)
            store.views["whole" if users is None else "assembled"] += 1
            found = self._collusions[tset] = _Collusion(
                store.assembled(prefix)[0], view_reduction,
                store.extended(view, view_reduction, self._responses), users,
            )
        return found


# -- the transcript: the roles run on a source assignment ----------------


def _round_prefix(ctx: SchemeContext, assignment: Sequence[int]) -> tuple:
    """What no pattern changes in a round on a source assignment: its
    keys, its uploads and the values of ``W[k]``, ``F[k]``, ``W``, ``X``, ``Z``."""
    params = ctx.params
    layout = SourceLayout(params)
    l = params.block_len
    users = range(1, params.num_users + 1)

    def slot(i: int) -> tuple[int, ...]:
        return tuple(assignment[i * l:(i + 1) * l])

    parts, randomness = range(1, params.block_count + 1), range(1, params.collusion + 1)
    gradients = [Gradient(k, tuple(slot(layout.w_slot(k, i)) for i in parts)) for k in users]
    noises = [UserRandomness(k, tuple(slot(layout.f_slot(k, j)) for j in randomness))
              for k in users]
    dealer_noise = {
        (n, j, k): slot(layout.q_slot(n, j, k))
        for n in range(1, params.num_helpers + 1)
        for j in range(1, params.resiliency)
        for k in users
    }
    keys = keys_from_noise(ctx, dealer_noise)
    uploads = encode_round_uploads(ctx, gradients, noises)

    vals: dict[str, tuple[int, ...]] = {}
    for g, f in zip(gradients, noises):
        vals[f"W[{g.owner}]"] = g.symbols()
        vals[f"F[{f.owner}]"] = tuple(s for part in f.parts for s in part)
    vals["W"] = gradient_sum(gradients, params.modulus)
    for u in uploads:
        vals[f"X[{u.user},{u.helper}]"] = u.payload
    for (i, n, k), vec in keys.masks.items():
        vals[f"Z[{i},{n},{k}]"] = vec
    return keys, uploads, vals


def _pattern_values(t: RoundTranscript) -> dict[str, tuple[int, ...]]:
    """The values of ``M``, ``Xhat`` and ``Y`` in a helper phase's
    transcript ``t``."""
    vals: dict[str, tuple[int, ...]] = {}
    for m in t.messages:
        for k, vec in m.payloads.items():
            vals[f"M[{m.sender}->{m.receiver},{k}]"] = vec
    for (k, n), vec in t.recovered.items():
        vals[f"Xhat[{k},{n}]"] = vec
    for r in t.responses:
        vals[f"Y[{r.helper}]"] = r.payload
    return vals


def concrete_transcript_values(
    ctx: SchemeContext, pattern: CommPattern, assignment: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Every named variable's value in one round on a full source
    assignment, ``dim * block_len`` symbols in layout order.

    The round stops at the responses, so it needs no survivor set: no
    named value depends on the master's decode, and a scheme whose
    master cannot decode still has its leakage measured.  The linear
    transcript is this run on the identity, so comparing the two on
    random assignments checks that the roles are linear.
    """
    keys, uploads, vals = _round_prefix(ctx, assignment)
    return {**vals, **_pattern_values(run_helpers(ctx, pattern, uploads, keys))}


def _stacked_tables(ctx: SchemeContext, pattern: CommPattern, assignments: np.ndarray) -> dict:
    """Each named value, an int64 table with a row per row of
    ``assignments`` (a full source assignment each), from one round: the
    roles act on each payload column alike, so slot ``i`` lays each
    assignment's ``block_len`` symbols side by side, and a value's
    ``(parts, count, block_len)`` symbols are its rows.  Past
    ``_ORACLE_ROUND_LIMIT`` assignments, rounds of at most that many
    write their rows into tables allocated once, so that only one
    round's payloads are ever held as Python ints."""
    import numpy as np
    count, l = len(assignments), ctx.params.block_len
    if count > _ORACLE_ROUND_LIMIT:
        tables = {}
        for start in range(0, count, _ORACLE_ROUND_LIMIT):
            stop = start + _ORACLE_ROUND_LIMIT
            for name, rows in _stacked_tables(ctx, pattern, assignments[start:stop]).items():
                if name not in tables:
                    tables[name] = np.empty((count, rows.shape[1]), dtype=np.int64)
                tables[name][start:stop] = rows
        return tables
    stacked = assignments.reshape(count, -1, l).transpose(1, 0, 2).ravel().tolist()
    wide = ctx.widened(ctx.params.gradient_len * count)
    vals = concrete_transcript_values(wide, pattern, stacked)
    return {
        name: np.array(vals[name], dtype=np.int64)
        .reshape(-1, count, l).transpose(1, 0, 2).reshape(count, -1)
        for name in sorted(vals)
    }


class UnitRound:
    """The round of ``concrete_transcript_values`` on the identity, run
    up to where the pattern enters and bound to the context it ran at.

    Source slot ``s`` holds the unit vector ``e_s`` followed by
    ``probes[s]`` (all as long, or none).  The roles act on each payload
    column alike and linearly, so column ``s < dim`` of a payload is its
    coefficient on slot ``s``, and its columns from ``dim`` on are a
    round on the probes.  Every variable it reads off shares one
    ``SourceLayout`` object.  A campaign keeps it in locals, never in a
    context's memo, so that a role patched between two campaigns on one
    context runs again.

    For its transcripts it holds what no pattern changes: each helper
    ``t``'s uploads ``X[k,t]`` and masks ``Z[t,n,k]`` (n ≠ t), resolved
    once, and their ``splits`` and the ``uploads_kernel``, on first need.
    """

    def __init__(self, ctx: SchemeContext, probes: Sequence[Sequence[int]] = ()):
        self.ctx, self._layout = ctx, SourceLayout(ctx.params)
        self.dim = self._layout.dim
        self._width = self.dim + (len(probes[0]) if probes else 0)
        assignment = []
        for s, probe in enumerate(probes or [()] * self.dim):
            assignment += [0] * s + [1] + [0] * (self.dim - s - 1) + list(probe)
        self._wide = ctx.widened(self._width * ctx.params.block_count)
        self._keys, self._uploads, values = _round_prefix(self._wide, assignment)
        tvars = self._tvars = self._linear_vars(values)
        self._store = _rank_store(ctx)
        users, helpers = range(1, ctx.params.num_users + 1), range(1, ctx.params.num_helpers + 1)
        self._prefix = {
            t: (tuple(tvars[f"X[{k},{t}]"] for k in users),
                tuple(tvars[f"Z[{t},{n},{k}]"] for n in helpers if n != t for k in users))
            for t in helpers
        }
        self._splits: dict[int, tuple] = {}  # by helper

    def _linear_vars(self, values: Mapping[str, tuple[int, ...]]) -> dict:
        """Each value of the run as a ``LinearVar`` over the round's layout:
        the first ``dim`` columns of each ``width``-wide chunk are one
        coefficient row, and a payload is one chunk."""
        dim, width, layout, field = self.dim, self._width, self._layout, self.ctx.field
        out = {}
        for name, v in values.items():
            rows = (v[:dim],) if len(v) == width else tuple(
                v[i:i + dim] for i in range(0, len(v), width))
            out[name] = LinearVar(name, layout, GfMatrix.of_reduced(field, rows))
        return out

    def splits(self, t: int) -> tuple:
        """The store's splits of helper ``t``'s uploads and stored masks,
        made on first need."""
        if t not in self._splits:
            self._splits[t] = tuple(self._store.split(_rows(g)) for g in self._prefix[t])
        return self._splits[t]

    @cached_property
    def uploads_kernel(self) -> tuple:
        """The kernel of the split reduction of every upload ``X[k,n]``,
        k-major, found in the rank store by content."""
        per_user = zip(*(uploads for uploads, _ in self._prefix.values()))  # X[k,1], X[k,2], ...
        return self._store.reduction(_rows(v for uploads in per_user for v in uploads))[1]

    def run(self, pattern: CommPattern) -> tuple[RoundTranscript, LinearTranscript]:
        """The helper phase under ``pattern`` and the linear transcript read
        off it, which answers only for this context and ``pattern``."""
        t = run_helpers(self._wide, pattern, self._uploads, self._keys)
        tvars = {**self._tvars, **self._linear_vars(_pattern_values(t))}
        return t, LinearTranscript(self, pattern, tvars)


def build_linear_transcript(ctx: SchemeContext, pattern: CommPattern) -> LinearTranscript:
    """Coefficient-level transcript of one round under the pattern, every
    variable's rows (``UnitRound``).  Its queries share the context's rank
    store, and it answers only for ``ctx`` and ``pattern``."""
    return UnitRound(ctx).run(pattern)[1]


def build_static_vars(ctx: SchemeContext) -> LinearTranscript:
    """The no-straggler transcript: every link up, every helper
    surviving.  Its gradients, randomness, sum, uploads and dealer masks
    are the same under every pattern."""
    return build_linear_transcript(ctx, no_straggler_pattern(ctx.params))


# -- rank arithmetic -------------------------------------------------------


def _common_layout(variables: Iterable[LinearVar]) -> SourceLayout | None:
    layout = None
    for v in variables:
        if layout is None:
            layout = v.layout
        elif v.layout is not layout and v.layout != layout:
            raise LayoutMismatch(
                f"{v.name} uses a different source layout"
            )
    return layout


def joint_rank(variables: Sequence[LinearVar]) -> int:
    """Rank of the stacked coefficient rows of the given variables, by
    forward elimination (``_forward_echelon``)."""
    if _common_layout(variables) is None:
        return 0
    rows = [r for v in variables for r in v.rows]
    return len(_forward_echelon([], rows, variables[0].coeffs.field))


def entropy_rank(variables: Sequence[LinearVar]) -> int:
    """Exact joint entropy in q-ary units: rank times block length."""
    variables = tuple(variables)
    if not variables:
        return 0
    l = variables[0].layout.block_len
    return joint_rank(variables) * l


def all_subset_entropies_rank(
    variables: Sequence[LinearVar],
) -> Iterator[tuple[tuple[str, ...], int]]:
    """Every subset of the variables, by name, with ``entropy_rank`` of
    it, in depth-first order (that of
    ``BruteForceOracle.all_subset_entropies`` over the same names): a
    subset's forward echelon is a copy of its parent's list of (pivot,
    row) pairs, extended by its last variable's rows
    (``_forward_echelon``).  The variables' names must be distinct."""
    by_name = {v.name: v for v in variables}
    if len(by_name) != len(variables):
        raise ValueError("variables must have distinct names")
    layout = _common_layout(variables)
    if layout is None:
        yield (), 0
        return

    def grow(echelon: list, name: str) -> list:
        return _forward_echelon(list(echelon), by_name[name].rows, variables[0].coeffs.field)

    for subset, echelon in _depth_first(tuple(by_name), [], grow):
        yield subset, len(echelon) * layout.block_len


@dataclass(frozen=True)
class MiQuery:
    """A conditional mutual-information query I(target; observed | given)."""

    target: tuple[LinearVar, ...]
    observed: tuple[LinearVar, ...]
    given: tuple[LinearVar, ...] = ()


def rank_quadruple(query: MiQuery) -> tuple[int, int, int, int]:
    """(rank(AC), rank(BC), rank(ABC), rank(C)) for the query, by
    inserting C, then A or B, then A, into row spaces of full width:
    valid for any query, and the reference the split reductions are
    tested against."""
    everything = list(query.target) + list(query.observed) + list(query.given)
    layout = _common_layout(everything)
    if layout is None:
        return (0, 0, 0, 0)
    base = RowSpace(everything[0].coeffs.field, layout.dim)
    for v in query.given:
        base.insert_matrix(v.coeffs)
    r_c = base.rank
    with_a = base.clone()
    for v in query.target:
        with_a.insert_matrix(v.coeffs)
    r_ac = with_a.rank
    for v in query.observed:
        base.insert_matrix(v.coeffs)
    r_bc = base.rank
    for v in query.target:
        base.insert_matrix(v.coeffs)
    r_abc = base.rank
    return (r_ac, r_bc, r_abc, r_c)


def _split_observed(
    rows: Sequence[tuple[int, ...]], layout: SourceLayout, field: PrimeField
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reduce the observed rows with the dealer-noise columns pivoted
    first, into the split: ``r_noise``, the number of basis rows with a
    noise pivot, and the kernel, the other basis rows cut to the
    user-source columns: they are zero on the noise columns, and
    span(rows) ∩ user coordinates.  The kernel is in canonical form
    (``_kernel``), so equal kernels are equal tuples.
    """
    u = layout.user_dim
    space = RowSpace(field, layout.dim)
    for row in rows:
        space.insert(row[u:] + row[:u])
    kernel = _kernel(space, layout.dim - u)
    return space.rank - len(kernel), kernel


def _kernel(space: RowSpace, cut: int) -> tuple[tuple[int, ...], ...]:
    """The basis rows of ``space`` with a pivot at or past column
    ``cut``, from that column on, in pivot order.  The basis is the
    reduced echelon form, which is unique, so these rows are too: the
    reduced echelon form of the span's intersection with those
    columns."""
    return tuple(
        tuple(b[cut:])
        for p, b in sorted(zip(space.pivots, space.basis))  # pivots are distinct
        if p >= cut
    )


def _extended_kernel(
    kernel: tuple[tuple[int, ...], ...],
    added: Iterable[Sequence[int]],
    layout: SourceLayout,
    field: PrimeField,
) -> tuple[tuple[int, ...], ...]:
    """The kernel of an observed set B extended by rows Y that all lie
    in the user columns U, reduced in user width.

    For Y ⊂ U, span(B ∪ Y) ∩ U = (span(B) ∩ U) + span(Y), and the noise
    rank of B ∪ Y is that of B.  ``kernel`` is in reduced echelon form,
    so it seeds the space as it is, with no elimination.
    """
    u = layout.user_dim
    space = RowSpace.of_echelon(field, u, kernel)
    for row in added:
        space.insert(row[:u])
    return _kernel(space, 0)


def _forward_echelon(echelon: list, rows: Sequence[Sequence[int]], field: PrimeField) -> list:
    """``echelon``, pairs of a pivot and a row that is 1 there and 0
    before it, extended in place by ``rows`` of canonical residues,
    forward only: each row is reduced against the pairs in order, with
    no back-substitution; its length is the rank.  Sorted by pivot, the
    rows are a row echelon form, so the pivots before any column count
    the rank of the projection onto the columns before it.  No row
    changes in place."""
    q = field.q
    for r in rows:
        if len(echelon) == len(r):  # full: every row lies in it
            break
        for p, base in echelon:
            c = r[p]
            if c:
                r = [(x - c * y) % q for x, y in zip(r, base)]
        for p, c in enumerate(r):
            if c:
                if c != 1:
                    c = field.inv(c)
                    r = [x * c % q for x in r]
                echelon.append((p, r))
                break
    return echelon


def _split_query(target: frozenset, given: tuple, width: int, field: PrimeField) -> tuple:
    """What every split quadruple of A, unit rows on the columns
    ``target``, and unit-split C at ``width`` shares: unit rows on columns
    E condition by deleting those columns, and the others are ordered
    outside E_AC first, then E_A - E_C, so that the pivots before ``cut``
    count the rank with E_AC deleted too.  Holds the order, ``cut``,
    |E_C|, |E_AC|, C's other rows' forward echelon, rank(AC), rank(C)."""
    e_c, rest_c = given
    e_ac = target | e_c
    order = [j for j in range(width) if j not in e_ac] + sorted(target - e_c)
    cut = width - len(e_ac)
    base = _forward_echelon([], [[row[j] for j in order] for row in rest_c], field)
    r_ac = len(e_ac) + sum(p < cut for p, _ in base)
    return order, cut, len(e_c), len(e_ac), base, r_ac, len(e_c) + len(base)


def _split_quadruple(query: tuple, kernel: Sequence[tuple], field: PrimeField) -> tuple:
    """The rank quadruple of a ``_split_query`` of A and C and the kernel
    K of B's split reduction (r_noise, K), less r_noise: rank(BC) =
    r_noise + rank(K, C), rank(ABC) = r_noise + rank(K, A, C).  A copy
    of C's echelon takes K's rows that are not zero outside E_C, and its
    pivots before ``cut`` count rank(K, A, C) less |E_AC|."""
    order, cut, n_c, n_ac, base, r_ac, r_c = query
    rows = [r for row in kernel if any(r := [row[j] for j in order])]
    echelon = _forward_echelon(list(base), rows, field)
    return (r_ac, n_c + len(echelon), n_ac + sum(p < cut for p, _ in echelon), r_c)


def _sharing_ranks(
    kernel_a: tuple[tuple[int, ...], ...],
    given: tuple[int, tuple],
    joined: tuple[int, tuple],
    user_dim: int,
    field: PrimeField,
) -> tuple[int, int, int, int]:
    """The rank quadruple of a target A in the user columns, whose span
    is ``kernel_a``, from the split reductions of the given C and of C
    then the observed B: rank(C) = r_noise(C) + |K_C| and rank(AC) =
    r_noise(C) + rank(K_C, A), and the same for BC with K_BC."""

    def rank_with_a(kernel) -> int:
        if user_dim in (len(kernel_a), len(kernel)):  # one of them spans every column
            return user_dim
        return len(_forward_echelon([], kernel_a + kernel, field))

    (noise_c, kernel_c), (noise_bc, kernel_bc) = given, joined
    return (
        noise_c + rank_with_a(kernel_c),
        noise_bc + len(kernel_bc),
        noise_bc + rank_with_a(kernel_bc),
        noise_c + len(kernel_c),
    )


def _mi_from_ranks(ranks: tuple[int, int, int, int], block_len: int) -> int:
    r_ac, r_bc, r_abc, r_c = ranks
    return (r_ac + r_bc - r_abc - r_c) * block_len


def cond_mutual_info(query: MiQuery) -> int:
    """Exact I(target; observed | given) in q-ary units."""
    block_len = next((v.layout.block_len for v in (*query.target, *query.observed)), 0)
    return _mi_from_ranks(rank_quadruple(query), block_len)


# -- the scheme's security statements --------------------------------------


@dataclass(slots=True)
class LeakageRecord:
    """One evaluated security query, ready for structured reporting: a
    mutable dataclass with slots, cheap to build, compared by field."""

    kind: str
    colluding_users: tuple[int, ...]
    colluding_helpers: tuple[int, ...]
    pattern: str
    ranks: tuple[int, int, int, int]
    value: int
    exploratory: bool

    @property
    def ok(self) -> bool:
        return self.exploratory or self.value == 0


def helper_observation(tvars: LinearTranscript, tset: Sequence[int]) -> tuple[LinearVar, ...]:
    """Everything a colluding helper set sees under the transcript's
    context and pattern, read from each helper's ``groups`` in ascending
    order: all uploads addressed to it, its stored masks (together the
    prefix, K·N variables per helper), then the shares it receives from
    the other active helpers.  A repeated or unknown helper: ``BadSubset``."""
    _check_ids("helpers", tset, tvars.ctx.params.num_helpers)
    groups = [tvars.groups(t) for t in sorted(tset)]
    return tuple(v for g in range(3) for own in groups for v in own[g])


def _resolved(ctx: SchemeContext, pattern: CommPattern, tset: Sequence[int],
              tvars: LinearTranscript | None) -> tuple:
    """A query's ``tset`` as a sorted tuple, its transcript, whether
    ``tset`` is beyond the collusion bound (its record is then exploratory:
    reported, not judged), and the transcript's collusion of it, read from
    its memo with ``tset`` as passed and sorted only on a miss: the keys
    are sorted tuples of distinct ids, so a hit proves it both, and a miss
    raises ``BadSubset`` on a repeated id.  The transcript defaults
    to the pattern's, and a given one must be that of ``ctx`` and
    ``pattern``."""
    oversized = len(tset) > ctx.params.collusion
    if tvars is None:
        tvars = build_linear_transcript(ctx, pattern)
    tvars.require(ctx, pattern)
    c = tvars._collusions.get(tset := tuple(tset)) or tvars.collusion(tset := tuple(sorted(tset)))
    return tset, tvars, oversized, c


def _security_record(ctx: SchemeContext, pattern: CommPattern, users: Sequence[int],
                     tset: Sequence[int], tvars: LinearTranscript | None,
                     with_sum: bool) -> LeakageRecord:
    """The helper record, or the master's if ``with_sum``: the view's
    reduction or the master's set's, given ``users``' own inputs, and the
    sum if ``with_sum``.  It reads the store's tables directly, the
    givens as ``_resolved`` reads the collusions."""
    tset, tv, oversized, c = _resolved(ctx, pattern, tset, tvars)
    store, (r_noise, kernel) = tv._store, c.master_reduction if with_sum else c.view_reduction
    given = store.givens.get((with_sum, users := tuple(users))) or store.given(
        with_sum, users := tuple(sorted(users)))
    ranks = store.quadruples.get((id(kernel), id(store.gradients), id(given)))
    r_ac, r_bc, r_abc, r_c = ranks or store.quadruple(
        kernel, store.gradients, given, None if with_sum else c.users)
    ranks, value = (r_ac, r_bc + r_noise, r_abc + r_noise, r_c), r_ac + r_bc - r_abc - r_c
    # in field order: keywords would cost about 0.4 us more per record
    return LeakageRecord("master" if with_sum else "helpers", users, tset, tv.label, ranks,
                         value * tv.block_len, oversized)


def check_security_helpers(
    ctx: SchemeContext,
    pattern: CommPattern,
    users: Sequence[int],
    tset: Sequence[int],
    tvars: LinearTranscript | None = None,
) -> LeakageRecord:
    """Leakage of all gradients to colluding helpers and users.

    Evaluates I(all gradients; colluding helpers' view | colluding
    users' gradients and randomness).  The scheme guarantees exactly 0
    whenever ``len(tset) <= collusion``; a larger set's record is
    flagged exploratory, its value reported rather than judged.
    ``tvars``, if given, must be the transcript of ``ctx`` and ``pattern``.
    """
    return _security_record(ctx, pattern, users, tset, tvars, False)


def check_security_master(
    ctx: SchemeContext,
    pattern: CommPattern,
    users: Sequence[int],
    tset: Sequence[int],
    tvars: LinearTranscript | None = None,
) -> LeakageRecord:
    """Leakage of all gradients to the master beyond the sum.

    The master sees every active helper's response plus whatever the
    colluding helpers and users contribute; conditioning includes the
    gradient sum itself.  ``tvars``, if given, must be the transcript
    of ``ctx`` and ``pattern``.
    """
    return _security_record(ctx, pattern, users, tset, tvars, True)


def check_mask_independence(tvars: LinearTranscript) -> tuple[int, list[str]]:
    """Verify the mask entropy structure of the transcript's context.

    (a) the per-(helper, user) mask groups are mutually independent:
    joint rank of the maximal groups equals the sum of group ranks,
    which implies factorization for every sub-family.  (b) every subset
    of 1..resiliency - 1 masks within one group has full entropy,
    exhaustively.  ``tvars`` may be any pattern's transcript: the masks
    are the same under every pattern.  Returns the number of checks run
    and one line per violated check.
    """
    params = tvars.ctx.params
    n_all = range(1, params.num_helpers + 1)
    users = range(1, params.num_users + 1)
    others = {n: [i for i in n_all if i != n] for n in n_all}
    checks, violations = 1, []  # the maximal family

    def group(subset, n, k):
        return [tvars[f"Z[{i},{n},{k}]"] for i in subset]

    maximal = [group(others[n], n, k) for n in n_all for k in users]
    if joint_rank([v for g in maximal for v in g]) != sum(map(joint_rank, maximal)):
        violations.append("maximal mask family is not independent")

    l = params.block_len
    for n in n_all:
        for k in users:
            for subset in subsets(others[n], 1, params.resiliency - 1):
                checks += 1
                h, full = entropy_rank(group(subset, n, k)), len(subset) * l
                if h != full:
                    violations.append(
                        f"H(masks {subset} of helper {n}, user {k}) = {h}, expected {full}"
                    )
    return checks, violations


def check_sharing_leakage(
    ctx: SchemeContext,
    pattern: CommPattern,
    tset: Sequence[int],
    tvars: LinearTranscript,
) -> LeakageRecord:
    """Inter-helper shares reveal nothing new about uploads:
    I(all uploads; shares seen by tset | tset's uploads and masks) = 0,
    flagged exploratory for a ``tset`` beyond the bound.  ``tvars`` must
    be the transcript of ``ctx`` and ``pattern``."""

    tset, tv, oversized, c = _resolved(ctx, pattern, tset, tvars)
    ranks = _sharing_ranks(tv._unit.uploads_kernel, c.prefix_reduction, c.view_reduction,
                           tv._store.layout.user_dim, ctx.field)
    return LeakageRecord(
        "sharing", (), tset, tv.label, ranks, _mi_from_ranks(ranks, tv.block_len), oversized
    )


def check_upload_recoverability(tvars: LinearTranscript) -> tuple[int, list[str]]:
    """I(gradient k; its uploads to any >= resiliency helpers) = L in the
    transcript's context, as the number of checks run and one line per
    violated check.  ``tvars`` may be any pattern's transcript: the
    gradients and the uploads are the same under every pattern.
    """
    params = tvars.ctx.params
    helpers = range(1, params.num_helpers + 1)
    checks, violations, expected = 0, [], params.gradient_len
    for k in range(1, params.num_users + 1):
        for subset in subsets(helpers, params.resiliency):
            checks += 1
            query = MiQuery(
                target=(tvars[f"W[{k}]"],),
                observed=tuple(tvars[f"X[{k},{n}]"] for n in subset),
            )
            got = cond_mutual_info(query)
            if got != expected:
                violations.append(f"I(W[{k}]; uploads {subset}) = {got}, expected {expected}")
    return checks, violations


def response_entropy_given_sum(tvars: LinearTranscript, tset: Sequence[int]) -> int:
    """H of all responses given the gradient sum and the view of ``tset``
    (its uploads and masks), in the no-straggler transcript ``tvars``; a
    straggling one raises ``TranscriptMismatch``.  The design makes this
    exactly 0 when ``len(tset) == collusion``; a larger ``tset`` is
    evaluated too.

    It is rank(W, view, responses) - rank(W, view), read from the split
    reductions of the view and of the master's set (the view, then every
    response) in the transcript's rank store, with W's span as the target
    (``_sharing_ranks``)."""
    tvars.require(tvars.ctx, no_straggler_pattern(tvars.ctx.params))
    c, store = tvars.collusion(tuple(sorted(tset))), tvars._store
    w = store.reduction(tvars["W"].rows)[1]
    r_ac, _, r_abc, _ = _sharing_ranks(
        w, c.view_reduction, c.master_reduction, store.layout.user_dim, tvars.ctx.field
    )
    return (r_abc - r_ac) * tvars.block_len


def witness_sibling(params: SchemeParams) -> SchemeParams | None:
    """The correct sibling scheme an infeasible point's witness runs: the
    same K, N, Nr, q and L, with collusion lowered to Nr - 1; None at
    Nr = 1, where no collusion bound is both positive and below Nr."""
    return replace(params, collusion=params.resiliency - 1) if params.resiliency >= 2 else None


def infeasibility_witness(params: SchemeParams) -> int:
    """I(W; view of helpers [1..Nr]), the contradiction that rules a
    scheme out when the resiliency threshold does not exceed the
    collusion bound.

    Any correct scheme lets ``resiliency`` helpers jointly determine
    the responses and hence the gradient sum, so a colluding set that
    large learns at least L symbols.  We instantiate the correct
    ``witness_sibling`` and evaluate that view in the linear model,
    under the no-straggler pattern.
    """
    if params.resiliency > params.collusion:
        raise ValueError("witness applies only when resiliency <= collusion")
    sibling = witness_sibling(params)
    if sibling is None:
        raise ValueError(
            "no feasible sibling exists for resiliency 1 with a positive collusion bound"
        )
    ctx = setup(sibling)
    svars = build_static_vars(ctx)
    view = helper_observation(svars, range(1, params.resiliency + 1))
    return cond_mutual_info(MiQuery(target=(svars["W"],), observed=view))


# -- brute-force oracle -----------------------------------------------------


def _depth_first(items: Sequence, root, extend) -> Iterator[tuple[tuple, object]]:
    """Every subset of ``items`` with a state, in depth-first order.

    A subset comes right before the subsets that extend it, which follow
    in the order of their next item: the subsets, as tuples of item
    positions, in lexicographic order.  The empty subset's state is
    ``root``; any other's is ``extend(state of the subset without its
    last item, last item)``.
    """
    stack = [((), root, 0)]
    while stack:
        subset, state, start = stack.pop()
        yield subset, state
        for i in range(len(items) - 1, start - 1, -1):
            item = items[i]
            stack.append((subset + (item,), extend(state, item), i + 1))


def _counted_entropy(keys: np.ndarray, q: int, names: Sequence[str]) -> int:
    """log_q of the support of the outcomes ``keys``, one per equally
    likely source assignment.

    ``keys`` holds one int32 or int64 code per assignment, equal codes
    for equal outcomes.  The outcomes must be uniform on their support
    and the support a power of q, or the entropy is not an exact q-ary
    integer: LeakageError.
    On sorted codes with support s, uniformity means ``n % s == 0`` and
    every run of ``n // s`` codes starting at a multiple of it constant.
    """
    import numpy as np
    keys = np.sort(keys)
    n = len(keys)
    support = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    m = n // support
    if n % support or (m > 1 and not (keys[::m] == keys[m - 1::m]).all()):
        raise LeakageError(
            f"joint distribution of {list(names)} is not uniform; "
            "entropy is not an exact q-ary integer"
        )
    exponent = 0
    s = support
    while s % q == 0:
        s //= q
        exponent += 1
    if s != 1:
        raise LeakageError(
            f"support size {support} of {list(names)} is not a power of {q}"
        )
    return exponent


def _variable_codes(tables: Mapping[str, np.ndarray], q: int) -> dict[str, tuple]:
    """Each table's radix ``q**width`` and its rows read as int32 base-q
    codes, the first digit worth 1 (see ``_ORACLE_ASSIGNMENT_LIMIT``)."""
    import numpy as np
    codes = {}
    for name, rows in tables.items():
        digits = q ** np.arange(rows.shape[1], dtype=np.int64)
        codes[name] = q ** rows.shape[1], (rows @ digits).astype(np.int32)
    return codes


def _packed_word(codes: Mapping[str, tuple]) -> tuple | None:
    """Every variable's code in its own bit field, ``(radix -
    1).bit_length()`` bits wide, of one int64 word per assignment, with
    each name's field mask; None where the fields need more than 63
    bits."""
    word, masks, shift = 0, {}, 0
    for name, (radix, code) in codes.items():
        bits = (radix - 1).bit_length()
        if shift + bits > 63:
            return None
        word = word + (code.astype("int64") << shift)
        masks[name] = ((1 << bits) - 1) << shift
        shift += bits
    return word, masks


class BruteForceOracle:
    """Exact entropies on a tiny instance by full source enumeration.

    Runs the protocol roles on every assignment of the source vector,
    each its own columns of one stacked round (``_stacked_tables``), and
    tabulates the resulting joint distributions.  The linear model is
    the same roles run on unit inputs, so the oracle does not check the
    protocol's maps; it checks the rank-to-entropy step by counting,
    with no rank arithmetic.  The scheme's variables are uniform over a
    subspace, so every joint entropy is an exact integer number of q-ary
    symbols; non-uniformity would indicate a broken scheme and raises.

    Each variable's table is also read once into one base-q code per
    assignment (``codes``, with its radix ``q**width``), and counting a
    subset's joint key is one sort.  Where every code fits its own bit
    field of one int64 word (``_packed_word``), ``entropy`` takes the
    key ``word & mask``, one call at any subset size.  Otherwise, and
    always in ``all_subset_entropies``, the key is the mixed-radix code
    ``key * radix + code`` of the members in turn: int32 while the span
    so far, the product of the radices, is below 2**31, which sorts
    about twice as fast as int64, and int64 beyond.  Before a member
    would take the span to 2**62, the key is relabelled densely by rank
    among its values (a bijection, so counts stay exact), and its span
    becomes their number, at most the assignment count.
    """

    def __init__(self, ctx: SchemeContext, pattern: CommPattern):
        import numpy as np
        params = ctx.params
        q = params.modulus
        width = SourceLayout(params).dim * params.block_len
        total = q**width
        if total > _ORACLE_ASSIGNMENT_LIMIT:
            raise TooLargeToEnumerate(
                f"{q}^{width} = {total} assignments exceeds the budget"
                f" {_ORACLE_ASSIGNMENT_LIMIT}"
            )
        self.ctx, self.pattern, self.q, self.count = ctx, pattern, q, total
        # every assignment, in ``itertools.product`` order
        self.tables = _stacked_tables(ctx, pattern, np.indices((q,) * width).reshape(width, -1).T)
        self.codes = _variable_codes(self.tables, q)
        self._packed = _packed_word(self.codes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.tables)

    def entropy(self, names: Sequence[str]) -> int:
        """Exact joint q-ary entropy of the named variables."""
        names = list(dict.fromkeys(names))  # a repeated code would add digits
        unknown = [n for n in names if n not in self.tables]
        if unknown:
            raise BadSubset(f"unknown variables {unknown}")
        if not names:
            return 0
        if self._packed is not None:
            word, masks = self._packed  # distinct names: their fields sum to the mask
            return _counted_entropy(word & sum(map(masks.get, names)), self.q, names)
        span, code = self.codes[names[0]]
        keys, _ = self._joined(code.copy(), span, names[1:])
        return _counted_entropy(keys, self.q, names)

    def _joined(self, keys: np.ndarray, span: int, names: Sequence[str]) -> tuple:
        """``keys``, of span ``span``, extended by each of ``names`` in
        turn, with the span they reach; the keys change in place while
        their dtype holds."""
        import numpy as np
        for n in names:
            radix, code = self.codes[n]
            if span * radix >= 2**62:
                values, keys = np.unique(keys, return_inverse=True)
                span = len(values)  # at most the assignment count, as is every radix
            span *= radix
            if span >= 2**31:
                keys = keys.astype(np.int64, copy=False)
            keys *= radix
            keys += code
        return keys, span

    def all_subset_entropies(self) -> Iterator[tuple[tuple[str, ...], int]]:
        """Every subset of ``names`` with its exact entropy, in the
        depth-first order of ``all_subset_entropies_rank``.

        A subset's key is a copy of its parent's extended by its last
        variable, as ``entropy`` builds it, and counted as ``entropy``
        counts.
        """
        import numpy as np

        def extend(state, name):
            return self._joined(state[0].copy(), state[1], (name,))

        root = (np.zeros(self.count, dtype=np.int32), 1)
        for subset, (key, _) in _depth_first(self.names, root, extend):
            yield subset, _counted_entropy(key, self.q, subset)

    def cond_mutual_info(
        self,
        target: Sequence[str],
        observed: Sequence[str],
        given: Sequence[str],
    ) -> int:
        a, b, c = list(target), list(observed), list(given)
        abc = self.entropy(a + b + c)  # first: it refuses any unknown name
        return self.entropy(a + c) + self.entropy(b + c) - abc - self.entropy(c)

