"""Exact information-theoretic verification of the aggregation scheme.

Every protocol variable is a fixed linear map of the canonical source
vector of independent uniform field symbols (gradient parts, user
randomness parts, dealer noise).  Those maps are written only in the
protocol roles: running the roles once on unit inputs, with block length
equal to the number of source slots and slot ``s`` holding the unit
vector ``e_s``, makes every payload its own coefficient rows.  This
module names the variables, fixes the source layout and does the rank
arithmetic.

For such variables, q-ary joint entropy equals
``rank(coefficient matrix) * block_len`` exactly, and conditional
mutual information reduces to the rank quadruple

    I(A; B | C) = rank(AC) + rank(BC) - rank(ABC) - rank(C)

in symbols.  Entropies and MI values are exact rationals, never floats,
so zero leakage is decided exactly.

Helper and master queries have a shape that makes most of this work
shareable: their target A and given C lie in the user-source columns
(the first ``K * Nr`` slots: gradient and user-randomness parts), and
only the observed B touches the dealer noise.  Reducing B once with the
noise columns pivoted first splits its span into ``r_noise`` rows with
noise pivots and ``K = span(B) ∩ user coordinates``, so that

    rank(BC) = r_noise + rank(K, C),   rank(ABC) = r_noise + rank(K, A, C).

Unit rows of A and C (every ``W[k]`` and ``F[k]``) condition by deleting
their columns, so each query is left with one small elimination over
the remaining user columns.  A ``LinearTranscript`` keeps the reduction
of each observed set, which every user subset shares, and builds the
master's (the helper view, then the responses) on the helper view's; a
query takes the split only when it carries one.  Queries of any other
shape (a given with masks, as in the sharing check) and queries without
a transcript take the incremental path, which is also the reference the
split is tested against.

A brute-force oracle checks the rank-to-entropy step independently on
tiny instances: it runs the same roles on every source assignment and
counts the joint distributions, with no rank arithmetic.
"""

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .field import PrimeField
from .matrix import GfMatrix, RowSpace, Singular
from .patterns import CommPattern, format_pattern, no_straggler_pattern
from .protocol import (
    Gradient,
    RoundTranscript,
    SchemeContext,
    SchemeParams,
    UserRandomness,
    gradient_sum,
    keys_from_noise,
    master_decode,
    run_round,
    setup,
)

__all__ = [
    "LeakageError",
    "LayoutMismatch",
    "BadSubset",
    "TooLargeToEnumerate",
    "SourceLayout",
    "LinearVar",
    "MiQuery",
    "LeakageRecord",
    "InvariantReport",
    "WitnessReport",
    "unit_round",
    "build_static_vars",
    "build_linear_transcript",
    "joint_rank",
    "entropy_rank",
    "all_subset_entropies_rank",
    "cond_entropy",
    "rank_quadruple",
    "cond_mutual_info",
    "helper_observation",
    "check_security_helpers",
    "check_security_master",
    "check_mask_independence",
    "check_sharing_leakage",
    "check_upload_recoverability",
    "response_entropy_given_sum",
    "infeasibility_witness",
    "concrete_transcript_values",
    "BruteForceOracle",
    "brute_force_entropy",
]


class LeakageError(Exception):
    """Base class for verifier errors."""


class LayoutMismatch(LeakageError):
    """Variables over different source layouts were combined."""


class BadSubset(LeakageError):
    """A colluding-helper set exceeds the collusion bound."""


class TooLargeToEnumerate(LeakageError):
    """The source space exceeds the brute-force enumeration budget."""


_ORACLE_ASSIGNMENT_LIMIT = 10**6  # the most source assignments an oracle enumerates


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

    @cached_property
    def user_split(self) -> tuple[frozenset[int], tuple[tuple[int, ...], ...]] | None:
        """The columns of the unit rows and the other nonzero rows, if
        every row lies in the user-source columns; None otherwise."""
        u = self.layout.user_dim
        units, rest = set(), []
        for row in self.rows:
            if any(row[u:]):
                return None
            support = [j for j in range(u) if row[j]]
            if len(support) == 1:
                units.add(support[0])
            elif support:
                rest.append(row)
        return frozenset(units), tuple(rest)


class LinearTranscript(Mapping):
    """A round's variables by name, plus the work its queries share.

    Read-only.  It memoizes each colluding set's helper view, each
    observed set's split reduction (see ``rank_quadruple``) and each
    pattern's formatted form, keyed by the set, the observed variables'
    names and the pattern; all live and die with the transcript.  The
    reduced row space behind a split reduction is kept only until a
    longer observed set has been built on it.
    """

    def __init__(self, tvars: Mapping[str, LinearVar]):
        self._vars = dict(tvars)
        self._views: dict[tuple, tuple[LinearVar, ...]] = {}
        self._reductions: dict[tuple[str, ...], tuple] = {}
        self._labels: dict[CommPattern, str] = {}

    def __getitem__(self, name: str) -> LinearVar:
        return self._vars[name]

    def __iter__(self):
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def helper_view(
        self, ctx: SchemeContext, pattern: CommPattern, tset: Sequence[int]
    ) -> tuple[LinearVar, ...]:
        """``helper_observation`` of ``tset``, computed once."""
        key = (pattern.active_helpers, tuple(sorted(tset)))
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = helper_observation(self, ctx, pattern, tset)
        return view

    def pattern_label(self, pattern: CommPattern) -> str:
        """``format_pattern(pattern)``, computed once."""
        label = self._labels.get(pattern)
        if label is None:
            label = self._labels[pattern] = format_pattern(pattern)
        return label

    def split_reduction(
        self, observed: Sequence[LinearVar], layout: SourceLayout
    ) -> tuple[int, tuple[list[int], ...]]:
        """``_split_observed`` of the observed variables, computed once.

        A miss extends the reduction of the longest reduced prefix of
        ``observed`` that still keeps its space: the master's observed
        set is a helper view, then the responses, so it costs the
        responses' rows alone.  An extended prefix keeps its reduction
        but gives up its space, which is only ever extended once.
        """
        key = tuple(v.name for v in observed)
        base, done = None, 0
        for n in range(len(key), 0, -1):
            hit = self._reductions.get(key[:n])
            if hit is None or any(a is not b for a, b in zip(hit[0], observed)):
                continue
            if n == len(key):
                return hit[2]
            if hit[1] is not None:
                base, done = hit[1], n
                self._reductions[key[:n]] = (hit[0], None, hit[2])
                break
        space, reduction = _split_observed(observed[done:], layout, base)
        self._reductions[key] = (tuple(observed), space, reduction)
        return reduction


# -- the transcript: the roles run on a source assignment ----------------


def _run_on_sources(
    ctx: SchemeContext, pattern: CommPattern, assignment: Sequence[int]
) -> tuple[RoundTranscript, dict[str, tuple[int, ...]]]:
    """One round on a full source assignment, and its named values.

    ``assignment`` lists ``dim * block_len`` symbols in layout order.  A
    pattern without a survivor set runs with every active helper
    surviving.  The round stops at the responses: no named value
    depends on the master's decode, and a scheme whose master cannot
    decode still has a transcript whose leakage can be measured.
    """
    params = ctx.params
    layout = SourceLayout(params)
    l = params.block_len
    users = range(1, params.num_users + 1)

    def slot(i: int) -> tuple[int, ...]:
        return tuple(assignment[i * l:(i + 1) * l])

    gradients = [
        Gradient(
            k,
            tuple(slot(layout.w_slot(k, i)) for i in range(1, params.block_count + 1)),
        )
        for k in users
    ]
    noises = [
        UserRandomness(
            k, tuple(slot(layout.f_slot(k, j)) for j in range(1, params.collusion + 1))
        )
        for k in users
    ]
    dealer_noise = {
        (n, j, k): slot(layout.q_slot(n, j, k))
        for n in range(1, params.num_helpers + 1)
        for j in range(1, params.resiliency)
        for k in users
    }
    if pattern.survivors is None:
        pattern = pattern.with_survivors(pattern.active_helpers)
    t = run_round(
        ctx, pattern, gradients, noises, keys_from_noise(ctx, dealer_noise), decode=False
    )

    vals: dict[str, tuple[int, ...]] = {}
    for g, f in zip(gradients, noises):
        vals[f"W[{g.owner}]"] = g.symbols()
        vals[f"F[{f.owner}]"] = tuple(s for part in f.parts for s in part)
    vals["W"] = gradient_sum(gradients, params.modulus)
    for u in t.uploads:
        vals[f"X[{u.user},{u.helper}]"] = u.payload
    for (i, n, k), vec in t.keys.masks.items():
        vals[f"Z[{i},{n},{k}]"] = vec
    for m in t.messages:
        for k, vec in m.payloads.items():
            vals[f"M[{m.sender}->{m.receiver},{k}]"] = vec
    for (k, n), vec in t.recovered.items():
        vals[f"Xhat[{k},{n}]"] = vec
    for r in t.responses:
        vals[f"Y[{r.helper}]"] = r.payload
    return t, vals


def concrete_transcript_values(
    ctx: SchemeContext, pattern: CommPattern, assignment: Sequence[int]
) -> dict[str, tuple[int, ...]]:
    """Run the protocol roles on one full source assignment.

    ``assignment`` lists ``dim * block_len`` symbols in layout order; it
    is split into gradients, user randomness and dealer noise and run
    through ``run_round`` up to the responses (every active helper
    surviving when the pattern names no survivors; the master does not
    decode).  Returns every named variable's value.
    The linear model is this same run on unit inputs, so comparing the
    two on random assignments checks that the roles are linear.
    """
    return _run_on_sources(ctx, pattern, assignment)[1]


def unit_round(
    ctx: SchemeContext, pattern: CommPattern
) -> tuple[RoundTranscript, dict[str, LinearVar]]:
    """The round run on unit inputs, and every variable's coefficients.

    Block length becomes ``dim`` and source slot ``s`` holds the unit
    vector ``e_s``.  The roles act on each payload column alike and
    linearly, so column ``s`` of a payload is its coefficient on slot
    ``s``: each ``dim``-wide chunk of a value is one coefficient row.
    The transcript's ``decoded`` holds the coefficient rows of the
    master's decoded sum, or None if the master cannot decode.
    """
    params = ctx.params
    layout = SourceLayout(params)
    dim = layout.dim
    unit_ctx = replace(ctx, params=replace(params, gradient_len=dim * params.block_count))
    identity = [int(i == s) for s in range(dim) for i in range(dim)]
    transcript, vals = _run_on_sources(unit_ctx, pattern, identity)
    responses = [r for r in transcript.responses if r.helper in transcript.pattern.survivors]
    try:
        transcript.decoded = master_decode(unit_ctx, responses)
    except Singular:
        pass
    tvars = {
        name: LinearVar(
            name,
            layout,
            GfMatrix(ctx.field, [v[i:i + dim] for i in range(0, len(v), dim)]),
        )
        for name, v in vals.items()
    }
    return transcript, tvars


def build_linear_transcript(
    ctx: SchemeContext, pattern: CommPattern
) -> LinearTranscript:
    """Coefficient-level transcript of one round under the pattern: the
    sources, uploads, masks, inter-helper shares, recovered uploads and
    responses, read off the unit-input round."""
    return LinearTranscript(unit_round(ctx, pattern)[1])


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
    """Rank of the stacked coefficient rows of the given variables."""
    layout = _common_layout(variables)
    if layout is None:
        return 0
    space = RowSpace(variables[0].coeffs.field, layout.dim)
    for v in variables:
        space.insert_matrix(v.coeffs)
    return space.rank


def entropy_rank(variables: Sequence[LinearVar]) -> Fraction:
    """Exact joint entropy in q-ary units: rank times block length."""
    variables = tuple(variables)
    if not variables:
        return Fraction(0)
    l = variables[0].layout.block_len
    return Fraction(joint_rank(variables) * l)


def all_subset_entropies_rank(
    variables: Sequence[LinearVar],
) -> Iterator[tuple[tuple[str, ...], Fraction]]:
    """Every subset of the variables, by name, with ``entropy_rank`` of
    it, in depth-first order (that of
    ``BruteForceOracle.all_subset_entropies`` over the same names): a
    subset's row space is its parent's, cloned, with its last variable
    inserted.  The variables' names must be distinct."""
    by_name = {v.name: v for v in variables}
    if len(by_name) != len(variables):
        raise ValueError("variables must have distinct names")
    layout = _common_layout(variables)
    if layout is None:
        yield (), Fraction(0)
        return

    def grow(space: RowSpace, name: str) -> RowSpace:
        child = space.clone()
        child.insert_matrix(by_name[name].coeffs)
        return child

    root = RowSpace(variables[0].coeffs.field, layout.dim)
    for subset, space in _depth_first(tuple(by_name), root, grow):
        yield subset, Fraction(space.rank * layout.block_len)


def cond_entropy(
    target: Sequence[LinearVar], given: Sequence[LinearVar]
) -> Fraction:
    """H(target | given) = rank(target, given) - rank(given), in symbols."""
    target, given = tuple(target), tuple(given)
    layout = _common_layout(list(target) + list(given))
    if layout is None:
        return Fraction(0)
    f = (target + given)[0].coeffs.field
    space = RowSpace(f, layout.dim)
    for v in given:
        space.insert_matrix(v.coeffs)
    r_c = space.rank
    for v in target:
        space.insert_matrix(v.coeffs)
    return Fraction((space.rank - r_c) * layout.block_len)


@dataclass(frozen=True)
class MiQuery:
    """A conditional mutual-information query I(target; observed | given).

    ``transcript`` names the transcript the variables come from; a
    ``LinearTranscript`` there lets a query of the split shape use the
    reduction of ``observed`` it keeps for every query that observes
    the same variables.  Without one, the query takes the incremental
    path.
    """

    target: tuple[LinearVar, ...]
    observed: tuple[LinearVar, ...]
    given: tuple[LinearVar, ...] = ()
    transcript: Mapping[str, LinearVar] | None = dc_field(
        default=None, compare=False, repr=False
    )


def rank_quadruple(query: MiQuery) -> tuple[int, int, int, int]:
    """(rank(AC), rank(BC), rank(ABC), rank(C)) for the query.

    When the query carries a ``LinearTranscript`` and every target and
    given row lies in the user-source columns, as in every helper and
    master query, the ranks come from the transcript's split reduction
    of the observed rows (see the module docstring); any other query
    takes the incremental path.
    """
    everything = list(query.target) + list(query.observed) + list(query.given)
    layout = _common_layout(everything)
    if layout is None:
        return (0, 0, 0, 0)
    field = everything[0].coeffs.field
    if not isinstance(query.transcript, LinearTranscript):
        return _incremental_quadruple(query, layout, field)
    target, given = _unit_split(query.target), _unit_split(query.given)
    if target is None or given is None:
        return _incremental_quadruple(query, layout, field)
    reduction = query.transcript.split_reduction(query.observed, layout)
    return _split_quadruple(target, given, reduction, layout.user_dim, field)


def _incremental_quadruple(
    query: MiQuery, layout: SourceLayout, field: PrimeField
) -> tuple[int, int, int, int]:
    """The four ranks by inserting C, then A or B, then A, into row
    spaces of full width: valid for any query."""
    base = RowSpace(field, layout.dim)
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
    observed: Sequence[LinearVar], layout: SourceLayout, base: RowSpace | None = None
) -> tuple[RowSpace | None, tuple[int, tuple[list[int], ...]]]:
    """Reduce the observed rows with the dealer-noise columns pivoted
    first, into a clone of ``base`` (a space of rows so reduced) if
    given.

    Returns the reduced space and the split: ``r_noise``, the number of
    basis rows with a noise pivot, and the other basis rows cut to the
    user-source columns: they are zero on the noise columns, and
    span(observed) ∩ user coordinates.
    """
    if base is None and not observed:
        return None, (0, ())
    u = layout.user_dim
    width = layout.dim - u
    if base is None:
        space = RowSpace(observed[0].coeffs.field, layout.dim)
    else:
        space = base.clone()
    for v in observed:
        for row in v.rows:
            space.insert(row[u:] + row[:u])
    user_rows = tuple(
        b[width:] for p, b in zip(space.pivots, space.basis) if p >= width
    )
    return space, (space.rank - len(user_rows), user_rows)


def _unit_split(
    variables: Sequence[LinearVar],
) -> tuple[set[int], list[tuple[int, ...]]] | None:
    """``LinearVar.user_split`` of several variables together."""
    units: set[int] = set()
    rest: list[tuple[int, ...]] = []
    for v in variables:
        split = v.user_split
        if split is None:
            return None
        units |= split[0]
        rest += split[1]
    return units, rest


def _split_quadruple(
    target: tuple[set[int], list],
    given: tuple[set[int], list],
    reduction: tuple[int, tuple[list[int], ...]],
    user_dim: int,
    field: PrimeField,
) -> tuple[int, int, int, int]:
    """The rank quadruple from unit-split A and C and the split
    reduction (r_noise, K) of B.

    rank(BC) = r_noise + rank(K, C) and rank(ABC) = r_noise + rank(K,
    A, C); unit rows on columns E condition by deleting those columns.
    The rest is one elimination over the columns outside E_C, those
    outside E_AC first, so that the pivots among them count the rank
    with E_AC deleted as well.
    """
    (e_a, rest_a), (e_c, rest_c) = target, given
    r_noise, kernel = reduction
    e_ac = e_a | e_c
    order = [j for j in range(user_dim) if j not in e_ac] + sorted(e_a - e_c)
    cut = user_dim - len(e_ac)
    space = RowSpace(field, len(order))

    def insert(into: RowSpace, rows) -> None:
        for row in rows:
            into.insert([row[j] for j in order])

    def narrow_rank(of: RowSpace) -> int:
        return sum(p < cut for p in of.pivots)

    insert(space, rest_c)
    r_c = len(e_c) + space.rank
    with_a = space.clone() if rest_a else space
    insert(with_a, rest_a)
    r_ac = len(e_ac) + narrow_rank(with_a)
    insert(space, kernel)
    r_bc = r_noise + len(e_c) + space.rank
    insert(space, rest_a)
    r_abc = r_noise + len(e_ac) + narrow_rank(space)
    return (r_ac, r_bc, r_abc, r_c)


def _mi_from_ranks(ranks: tuple[int, int, int, int], block_len: int) -> Fraction:
    r_ac, r_bc, r_abc, r_c = ranks
    return Fraction((r_ac + r_bc - r_abc - r_c) * block_len)


def cond_mutual_info(query: MiQuery) -> Fraction:
    """Exact I(target; observed | given) in q-ary units."""
    everything = list(query.target) + list(query.observed) + list(query.given)
    layout = _common_layout(everything)
    if layout is None:
        return Fraction(0)
    return _mi_from_ranks(rank_quadruple(query), layout.block_len)


# -- the scheme's security statements --------------------------------------


@dataclass(frozen=True)
class LeakageRecord:
    """One evaluated security query, ready for structured reporting."""

    kind: str
    colluding_users: tuple[int, ...]
    colluding_helpers: tuple[int, ...]
    pattern: str
    ranks: tuple[int, int, int, int]
    value: Fraction
    exploratory: bool = False

    @property
    def ok(self) -> bool:
        return self.exploratory or self.value == 0


def helper_observation(
    tvars: Mapping[str, LinearVar],
    ctx: SchemeContext,
    pattern: CommPattern,
    tset: Sequence[int],
) -> tuple[LinearVar, ...]:
    """Everything a colluding helper set sees: all uploads addressed to
    it, its stored masks, and the shares it receives."""
    params = ctx.params
    obs: list[LinearVar] = []
    for t in sorted(tset):
        for k in range(1, params.num_users + 1):
            obs.append(tvars[f"X[{k},{t}]"])
    for t in sorted(tset):
        for n in range(1, params.num_helpers + 1):
            if n == t:
                continue
            for k in range(1, params.num_users + 1):
                obs.append(tvars[f"Z[{t},{n},{k}]"])
    for t in sorted(tset):
        for i in sorted(pattern.active_helpers):
            if i == t:
                continue
            for k in range(1, params.num_users + 1):
                name = f"M[{i}->{t},{k}]"
                if name in tvars:
                    obs.append(tvars[name])
    return tuple(obs)


def _collusion_vars(tvars, users: Sequence[int]) -> tuple[LinearVar, ...]:
    out = []
    for u in sorted(users):
        out.append(tvars[f"W[{u}]"])
        out.append(tvars[f"F[{u}]"])
    return tuple(out)


def _all_gradients(tvars, params) -> tuple[LinearVar, ...]:
    return tuple(tvars[f"W[{k}]"] for k in range(1, params.num_users + 1))


def _leakage_record(
    kind: str,
    ctx: SchemeContext,
    pattern: CommPattern,
    users: Sequence[int],
    tset: Sequence[int],
    tvars: Mapping[str, LinearVar] | None,
    exploratory: bool,
    make_query,
) -> LeakageRecord:
    """Evaluate ``make_query(tvars, view of tset)`` into a record.

    A colluding set beyond the collusion bound raises unless the query
    is ``exploratory``; the transcript defaults to the pattern's.
    """
    params = ctx.params
    oversized = len(set(tset)) > params.collusion
    if oversized and not exploratory:
        raise BadSubset(
            f"{len(set(tset))} colluding helpers exceeds bound {params.collusion}"
        )
    if tvars is None:
        tvars = build_linear_transcript(ctx, pattern)
    elif not isinstance(tvars, LinearTranscript):
        tvars = LinearTranscript(tvars)
    ranks = rank_quadruple(make_query(tvars, tvars.helper_view(ctx, pattern, tset)))
    return LeakageRecord(
        kind=kind,
        colluding_users=tuple(sorted(users)),
        colluding_helpers=tuple(sorted(tset)),
        pattern=tvars.pattern_label(pattern),
        ranks=ranks,
        value=_mi_from_ranks(ranks, params.block_len),
        exploratory=oversized,
    )


def check_security_helpers(
    ctx: SchemeContext,
    pattern: CommPattern,
    users: Sequence[int],
    tset: Sequence[int],
    tvars: Mapping[str, LinearVar] | None = None,
    exploratory: bool = False,
) -> LeakageRecord:
    """Leakage of all gradients to colluding helpers and users.

    Evaluates I(all gradients; colluding helpers' view | colluding
    users' gradients and randomness).  The scheme guarantees exactly 0
    whenever ``len(tset) <= collusion``; larger sets require
    ``exploratory=True`` and the value is reported rather than judged.
    """
    return _leakage_record(
        "helpers", ctx, pattern, users, tset, tvars, exploratory,
        lambda tv, view: MiQuery(
            target=_all_gradients(tv, ctx.params),
            observed=view,
            given=_collusion_vars(tv, users),
            transcript=tv,
        ),
    )


def check_security_master(
    ctx: SchemeContext,
    pattern: CommPattern,
    users: Sequence[int],
    tset: Sequence[int],
    tvars: Mapping[str, LinearVar] | None = None,
    exploratory: bool = False,
) -> LeakageRecord:
    """Leakage of all gradients to the master beyond the sum.

    The master sees every surviving helper's response plus whatever the
    colluding helpers and users contribute; conditioning includes the
    gradient sum itself.
    """
    return _leakage_record(
        "master", ctx, pattern, users, tset, tvars, exploratory,
        lambda tv, view: MiQuery(
            target=_all_gradients(tv, ctx.params),
            observed=view + tuple(tv[f"Y[{n}]"] for n in sorted(pattern.active_helpers)),
            given=(tv["W"],) + _collusion_vars(tv, users),
            transcript=tv,
        ),
    )


@dataclass
class InvariantReport:
    """Outcome of one no-straggler invariant suite: the number of checks
    run and one line per violated check."""

    checks: int = 0
    violations: list[str] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_mask_independence(
    ctx: SchemeContext, tvars: Mapping[str, LinearVar] | None = None
) -> InvariantReport:
    """Verify the mask entropy structure.

    (a) the per-(helper, user) mask groups are mutually independent:
    joint rank of the maximal groups equals the sum of group ranks,
    which implies factorization for every sub-family.  (b) every subset
    of 1..resiliency - 1 masks within one group has full entropy,
    exhaustively.  ``tvars`` is the no-straggler transcript, built here
    if not given.
    """
    params = ctx.params
    svars = build_static_vars(ctx) if tvars is None else tvars
    n_all = range(1, params.num_helpers + 1)
    users = range(1, params.num_users + 1)
    others = {n: [i for i in n_all if i != n] for n in n_all}
    report = InvariantReport(checks=1)  # the maximal family

    def group(subset, n, k):
        return [svars[f"Z[{i},{n},{k}]"] for i in subset]

    maximal = [group(others[n], n, k) for n in n_all for k in users]
    if joint_rank([v for g in maximal for v in g]) != sum(map(joint_rank, maximal)):
        report.violations.append("maximal mask family is not independent")

    l = params.block_len
    for n in n_all:
        for k in users:
            for size in range(1, params.resiliency):
                for subset in combinations(others[n], size):
                    report.checks += 1
                    h = entropy_rank(group(subset, n, k))
                    if h != size * l:
                        report.violations.append(
                            f"H(masks {subset} of helper {n}, user {k}) = {h},"
                            f" expected {size * l}"
                        )
    return report


def check_sharing_leakage(
    ctx: SchemeContext,
    pattern: CommPattern,
    tset: Sequence[int],
    tvars: Mapping[str, LinearVar] | None = None,
) -> LeakageRecord:
    """Inter-helper shares reveal nothing new about uploads:
    I(all uploads; shares seen by tset | tset's uploads and masks) = 0."""
    params = ctx.params

    def query(tv, view):
        return MiQuery(
            target=tuple(
                tv[f"X[{k},{n}]"]
                for k in range(1, params.num_users + 1)
                for n in range(1, params.num_helpers + 1)
            ),
            observed=tuple(v for v in view if v.name.startswith("M[")),
            given=tuple(v for v in view if not v.name.startswith("M[")),
        )

    return _leakage_record("sharing", ctx, pattern, (), tset, tvars, False, query)


def check_upload_recoverability(
    ctx: SchemeContext, tvars: Mapping[str, LinearVar] | None = None
) -> InvariantReport:
    """I(gradient k; its uploads to any >= resiliency helpers) = L.

    ``tvars`` is the no-straggler transcript, built here if not given.
    """
    params = ctx.params
    svars = build_static_vars(ctx) if tvars is None else tvars
    helpers = range(1, params.num_helpers + 1)
    report = InvariantReport()
    expected = Fraction(params.gradient_len)
    for k in range(1, params.num_users + 1):
        for size in range(params.resiliency, params.num_helpers + 1):
            for subset in combinations(helpers, size):
                report.checks += 1
                query = MiQuery(
                    target=(svars[f"W[{k}]"],),
                    observed=tuple(svars[f"X[{k},{n}]"] for n in subset),
                )
                got = cond_mutual_info(query)
                if got != expected:
                    report.violations.append(
                        f"I(W[{k}]; uploads {subset}) = {got}, expected {expected}"
                    )
    return report


def response_entropy_given_sum(
    ctx: SchemeContext,
    tset: Sequence[int],
    tvars: Mapping[str, LinearVar] | None = None,
) -> Fraction:
    """H of all responses under no stragglers given the gradient sum and
    the view of ``tset`` (its uploads and masks); the design makes this
    exactly 0 when ``len(tset) == collusion``.  ``tvars`` is the
    no-straggler transcript, built here if not given."""
    pattern = no_straggler_pattern(ctx.params)
    if tvars is None:
        tvars = build_static_vars(ctx)
    responses = [tvars[f"Y[{n}]"] for n in range(1, ctx.params.num_helpers + 1)]
    return cond_entropy(
        responses, (tvars["W"],) + helper_observation(tvars, ctx, pattern, tset)
    )


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the infeasibility contradiction check."""

    params: SchemeParams
    sibling_collusion: int
    value: Fraction
    required: Fraction

    @property
    def ok(self) -> bool:
        return self.value >= self.required


def infeasibility_witness(params: SchemeParams) -> WitnessReport:
    """Reproduce the contradiction that rules a scheme out when the
    resiliency threshold does not exceed the collusion bound.

    Any correct scheme lets ``resiliency`` helpers jointly determine
    the responses and hence the gradient sum, so a colluding set that
    large learns at least L symbols.  We instantiate a correct sibling
    scheme (same K, N, Nr, q; collusion lowered to Nr - 1) and
    evaluate the view of helpers [1..Nr] in the linear model, under
    the no-straggler pattern.
    """
    if params.resiliency > params.collusion:
        raise ValueError("witness applies only when resiliency <= collusion")
    if params.resiliency < 2:
        raise ValueError(
            "no feasible sibling exists for resiliency 1 with a positive collusion bound"
        )
    sibling = replace(params, collusion=params.resiliency - 1)
    ctx = setup(sibling)
    svars = build_static_vars(ctx)
    view = helper_observation(
        svars, ctx, no_straggler_pattern(sibling), range(1, params.resiliency + 1)
    )
    query = MiQuery(target=(svars["W"],), observed=view)
    return WitnessReport(
        params=params,
        sibling_collusion=sibling.collusion,
        value=cond_mutual_info(query),
        required=Fraction(params.gradient_len),
    )


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


def _base_q(symbols: np.ndarray, q: int, offset: int = 0) -> np.ndarray:
    """Each row of ``symbols`` read as base-q digits, the first one
    worth ``q**offset``."""
    return symbols @ q ** np.arange(offset, offset + symbols.shape[1], dtype=np.int64)


def _counted_entropy(keys: np.ndarray, q: int, names: Sequence[str]) -> int:
    """log_q of the support of the outcomes ``keys``, one per equally
    likely source assignment.

    ``keys`` holds one integer code per assignment, or one row of
    symbols per assignment when the codes would not fit in int64.  The
    outcomes must be uniform on their support and the support a power
    of q, or the entropy is not an exact q-ary integer: LeakageError.
    On sorted codes with support s, uniformity means ``n % s == 0`` and
    every run of ``n // s`` codes starting at a multiple of it constant.
    """
    if keys.ndim == 2:
        keys = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
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


class BruteForceOracle:
    """Exact entropies on a tiny instance by full source enumeration.

    Enumerates every assignment of the source vector, pushes each one
    through the protocol roles, and tabulates the resulting joint
    distributions.  The linear model is the same roles run on unit
    inputs, so the oracle does not check the protocol's maps; it checks
    the rank-to-entropy step by counting, with no rank arithmetic.  The
    scheme's variables are uniform over a subspace, so every joint
    entropy is an exact integer number of q-ary symbols; non-uniformity
    would indicate a broken scheme and raises.

    Each variable's table is also packed once into one int64 code per
    assignment: its symbols are base-q digits at a fixed offset within
    the concatenation of all variables' symbols (in ``names`` order), so
    a subset's joint code is the sum of its members' codes, one gather
    and one sum, and counting it is one sort.  The codes stay below
    ``q**(total width)``, which must be under 2**62; a wider instance
    keeps no packed codes and builds each subset's key from its tables.
    """

    def __init__(self, ctx: SchemeContext, pattern: CommPattern):
        params = ctx.params
        layout = SourceLayout(params)
        q = params.modulus
        width = layout.dim * params.block_len
        total = q**width
        if total > _ORACLE_ASSIGNMENT_LIMIT:
            raise TooLargeToEnumerate(
                f"{q}^{width} = {total} assignments exceeds the budget"
                f" {_ORACLE_ASSIGNMENT_LIMIT}"
            )
        self.ctx = ctx
        self.pattern = pattern
        self.q = q
        self.count = total

        names = sorted(concrete_transcript_values(ctx, pattern, (0,) * width))
        tables = {name: [] for name in names}
        for assignment in product(range(q), repeat=width):
            vals = concrete_transcript_values(ctx, pattern, assignment)
            for name in names:
                tables[name].append(vals[name])
        self.tables = {
            name: np.array(rows, dtype=np.int64) for name, rows in tables.items()
        }

        self._rows = {name: i for i, name in enumerate(names)}
        self._packed = None
        if q ** sum(t.shape[1] for t in self.tables.values()) < 2**62:
            self._packed = np.empty((len(names), total), dtype=np.int64)
            offset = 0
            for i, table in enumerate(self.tables.values()):
                self._packed[i] = _base_q(table, q, offset)
                offset += table.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.tables)

    def entropy(self, names: Sequence[str]) -> Fraction:
        """Exact joint q-ary entropy of the named variables."""
        names = list(dict.fromkeys(names))  # a repeated code would add digits
        if not names:
            return Fraction(0)
        if self._packed is not None:
            keys = self._packed[[self._rows[n] for n in names]].sum(axis=0)
        else:
            keys = np.hstack([self.tables[n] for n in names])
            if self.q ** keys.shape[1] < 2**62:
                keys = _base_q(keys, self.q)
        return Fraction(_counted_entropy(keys, self.q, names))

    def all_subset_entropies(self) -> Iterator[tuple[tuple[str, ...], Fraction]]:
        """Every subset of ``names`` with its exact entropy, in the
        depth-first order of ``all_subset_entropies_rank``.

        A subset's joint code is its parent's times ``q**width`` of its
        last variable, plus that variable's own code, counted as
        ``entropy`` counts.  Codes stay int32 while they fit, which sorts
        about twice as fast as int64; without packed codes each subset
        is counted on its own.
        """
        if self._packed is None:
            for subset, _ in _depth_first(self.names, None, lambda _, name: None):
                yield subset, self.entropy(subset)
            return
        codes = {}
        for name, table in self.tables.items():
            radix, code = self.q ** table.shape[1], _base_q(table, self.q)
            codes[name] = radix, code.astype(np.int32) if radix < 2**31 else code

        def extend(state, name):
            key, span = state
            radix, code = codes[name]
            span *= radix
            if span >= 2**31:
                key = key.astype(np.int64, copy=False)
            return key * radix + code, span

        root = (np.zeros(self.count, dtype=np.int32), 1)
        for subset, (key, _) in _depth_first(self.names, root, extend):
            yield subset, Fraction(_counted_entropy(key, self.q, subset))

    def cond_mutual_info(
        self,
        target: Sequence[str],
        observed: Sequence[str],
        given: Sequence[str] = (),
    ) -> Fraction:
        a, b, c = list(target), list(observed), list(given)
        return (
            self.entropy(a + c)
            + self.entropy(b + c)
            - self.entropy(a + b + c)
            - self.entropy(c)
        )


def brute_force_entropy(
    ctx: SchemeContext, pattern: CommPattern, names: Sequence[str]
) -> Fraction:
    """One-shot exact entropy via full enumeration; see BruteForceOracle."""
    return BruteForceOracle(ctx, pattern).entropy(names)
