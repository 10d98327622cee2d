"""The four aggregation roles: user encoder, trusted dealer, helper, master.

One round (``run_round``) moves length-L gradients from K users through
N helpers to a master that reconstructs only the gradient sum,
tolerating straggling links as long as each user reaches at least
``resiliency`` helpers and the master hears back from at least
``resiliency`` of them.  The uploads depend on the inputs alone; the
pattern enters at the helper phase (``run_helpers``).

All payloads are vectors of ``block_len = L / (resiliency - collusion)``
field symbols.  Sums and a helper's recovery act on whole vectors, the
other maps on columns through the matrix algebra.  Ids are 1-based.

Every inverse a round needs is a row selection of a matrix fixed at
setup (the upload matrix for the master, a decode matrix for a helper's
recovery), so the inverses are memoized in the context's memo, by matrix
content and row selection, and die with the context.  The roles reduce
what they are handed; every payload they produce is a canonical residue.
"""

import random
from dataclasses import astuple, dataclass, field as dc_field, replace
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from . import patterns as patterns_mod
from .field import PrimeField, is_prime
from .matrix import (DimensionMismatch, FieldTooSmall, GfMatrix, extended_vandermonde,
                     make_points, vandermonde)
from .patterns import CommPattern

__all__ = [
    "ProtocolError",
    "BadParams",
    "Infeasible",
    "BadBlockLength",
    "ShapeMismatch",
    "StragglerHelper",
    "NotEnoughShares",
    "MissingRecovery",
    "NotEnoughResponses",
    "SchemeParams",
    "SchemeContext",
    "Gradient",
    "UserRandomness",
    "gradient_sum",
    "DealerKeys",
    "UploadMessage",
    "InterHelperMessage",
    "HelperResponse",
    "RoundTranscript",
    "check_params",
    "setup",
    "encode_uploads",
    "encode_round_uploads",
    "dealer_generate",
    "keys_from_noise",
    "helper_share",
    "helper_recover",
    "helper_respond",
    "master_decode",
    "run_helpers",
    "run_round",
    "measure_rates",
]


class ProtocolError(Exception):
    """Base class for protocol errors."""


class BadParams(ProtocolError):
    """A parameter is outside its admissible range."""


class Infeasible(ProtocolError):
    """No scheme exists: the resiliency threshold does not exceed the
    collusion bound, so correctness and security contradict."""


class BadBlockLength(ProtocolError):
    """Gradient length is not divisible by resiliency - collusion."""


class ShapeMismatch(ProtocolError):
    """A gradient or randomness vector has the wrong part structure."""


class StragglerHelper(ProtocolError):
    """A straggling helper was asked to participate."""


class NotEnoughShares(ProtocolError):
    """Fewer inter-helper shares than the resiliency threshold."""


class MissingRecovery(ProtocolError):
    """A helper response was requested before recovering every missing user."""


class NotEnoughResponses(ProtocolError):
    """The master holds fewer responses than the resiliency threshold."""


Vector = tuple[int, ...]


def _vec_add(q: int, *vectors: Sequence[int]) -> Vector:
    """The sum of ``vectors``, one whole-vector pass each, reduced once."""
    acc = vectors[0] if vectors else ()
    for v in vectors[1:]:
        acc = list(map(add, acc, v))
    return tuple([s % q for s in acc])


def _combine(q: int, coeffs: Sequence[int], vectors: Sequence[Vector], what: str) -> Vector:
    """``sum(c * v)``, one pass per nonzero ``c``, reduced once; ``what`` names ragged vectors."""
    acc = [0] * len(vectors[0])
    if any(len(v) != len(acc) for v in vectors):
        raise DimensionMismatch(f"{what} differ in length")
    for c, v in zip(coeffs, vectors):
        if c:
            acc = [a + c * s for a, s in zip(acc, v)]
    return tuple([a % q for a in acc])


@dataclass(frozen=True)
class SchemeParams:
    """The scheme tuple (K, N, Nr, T, q, L)."""

    num_users: int      # K
    num_helpers: int    # N
    resiliency: int     # Nr
    collusion: int      # T
    modulus: int        # q
    gradient_len: int   # L

    @property
    def block_count(self) -> int:
        """Number of gradient parts, resiliency - collusion."""
        return self.resiliency - self.collusion

    @property
    def block_len(self) -> int:
        """Symbols per message payload, L / (resiliency - collusion)."""
        return self.gradient_len // self.block_count

    @property
    def rate_bound(self) -> Fraction:
        return Fraction(1, self.block_count)

    @classmethod
    def from_csv(cls, text: str) -> "SchemeParams":
        """Parse the CLI form ``K,N,Nr,T,q,L``."""
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 6:
            raise ValueError("params must be 6 comma-separated integers K,N,Nr,T,q,L")
        return cls(*parts)

    def as_tuple(self) -> tuple[int, ...]:
        return astuple(self)

    def label(self) -> str:
        return ",".join(str(x) for x in self.as_tuple())


@dataclass(frozen=True)
class SchemeContext:
    """Precomputed matrices shared by every role in a round.

    upload_matrix    N x Nr Vandermonde applied by every user.
    mask_basis       the zero-first-row tail Vandermonde mixing dealer
                     noise into masks.
    decode_matrices  per helper n, upload_matrix @ B_n^-1, where B_n is
                     the square Vandermonde anchored at point alpha_n
                     and completed by the tail points; row n is
                     (1, 0, ..., 0) so a helper's own mask coordinate
                     vanishes.
    mask_maps        per helper n, decode_matrices[n] @ mask_basis: the
                     coefficients taking helper-n noise to the masks
                     held by every other helper.

    The matrices are immutable after setup.  ``memo`` is state, not a
    setting: it holds values derived from the matrices, keyed by their
    content (the decode inverses, and the verifier's rank store), and
    dies with the contexts that hold it.  A ``replace``d copy gets a
    memo of its own; only ``widened`` copies share their parent's.
    """

    params: SchemeParams
    field: PrimeField
    upload_matrix: GfMatrix
    mask_basis: GfMatrix
    decode_matrices: tuple[GfMatrix, ...]
    mask_maps: tuple[GfMatrix, ...]
    memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def widened(self, gradient_len: int) -> "SchemeContext":
        """This context with gradient length ``gradient_len``, sharing its
        memo: the matrices do not depend on the gradient length."""
        wide = replace(self, params=replace(self.params, gradient_len=gradient_len))
        object.__setattr__(wide, "memo", self.memo)
        return wide


def check_params(params: SchemeParams) -> None:
    """Raise what ``setup`` raises for ``params``, with no matrix built.

    Raises, in order of precedence: BadParams for range violations
    (including composite q), Infeasible when resiliency <= collusion,
    FieldTooSmall when q < N + Nr, BadBlockLength when the block count
    does not divide L.
    """
    k, n, nr, t, q, length = params.as_tuple()
    if k < 1:
        raise BadParams("need at least one user")
    if not 1 <= nr <= n - 1:
        raise BadParams(f"resiliency must lie in [1, {n - 1}], got {nr}")
    if not 1 <= t <= n:
        raise BadParams(f"collusion bound must lie in [1, {n}], got {t}")
    if length < 1:
        raise BadParams("gradient length must be positive")
    if not is_prime(q):
        raise BadParams(f"modulus must be prime, got {q}")
    if nr <= t:
        raise Infeasible(
            f"resiliency {nr} <= collusion {t}: correctness and security contradict"
        )
    if q < n + nr:  # as make_points, which builds the points
        raise FieldTooSmall(f"need {n + nr - 1} distinct nonzero points, GF({q}) has {q - 1}")
    if length % (nr - t) != 0:
        raise BadBlockLength(
            f"block count {nr - t} does not divide gradient length {length}"
        )


def setup(params: SchemeParams) -> SchemeContext:
    """Check ``params`` (``check_params``) and precompute the round matrices."""
    check_params(params)
    field, n, nr = PrimeField(params.modulus), params.num_helpers, params.resiliency
    points = make_points(field, n, nr)
    upload = vandermonde(field, points[:n], nr)
    tail = points[n:]
    bases = tuple(
        vandermonde(field, (points[h],) + tail, nr) for h in range(n)
    )
    mask_basis = extended_vandermonde(field, points, n, nr)
    decode = tuple(upload @ b.inv() for b in bases)
    mask_maps = tuple(s @ mask_basis for s in decode)
    return SchemeContext(
        params=params,
        field=field,
        upload_matrix=upload,
        mask_basis=mask_basis,
        decode_matrices=decode,
        mask_maps=mask_maps,
    )


@dataclass(frozen=True)
class Gradient:
    """A user's length-L gradient, split into ``block_count`` parts."""

    owner: int
    parts: tuple[Vector, ...]

    @classmethod
    def from_symbols(cls, owner: int, symbols: Sequence[int], params: SchemeParams) -> "Gradient":
        if len(symbols) != params.gradient_len:
            raise ShapeMismatch(
                f"expected {params.gradient_len} symbols, got {len(symbols)}"
            )
        l = params.block_len
        q = params.modulus
        parts = tuple(
            tuple(s % q for s in symbols[i * l:(i + 1) * l])
            for i in range(params.block_count)
        )
        return cls(owner, parts)

    @classmethod
    def random(cls, owner: int, params: SchemeParams, rng: random.Random) -> "Gradient":
        return cls.from_symbols(
            owner,
            [rng.randrange(params.modulus) for _ in range(params.gradient_len)],
            params,
        )

    def symbols(self) -> Vector:
        return tuple(s for part in self.parts for s in part)


def gradient_sum(gradients: Sequence[Gradient], modulus: int) -> Vector:
    """The symbol-wise sum of the gradients: what the master decodes."""
    return _vec_add(modulus, *(g.symbols() for g in gradients))


@dataclass(frozen=True)
class UserRandomness:
    """A user's self-generated masking vector, split into ``collusion`` parts."""

    owner: int
    parts: tuple[Vector, ...]

    @classmethod
    def random(cls, owner: int, params: SchemeParams, rng: random.Random) -> "UserRandomness":
        l = params.block_len
        parts = tuple(
            tuple(rng.randrange(params.modulus) for _ in range(l))
            for _ in range(params.collusion)
        )
        return cls(owner, parts)


@dataclass
class DealerKeys:
    """Dealer-issued key material.

    ``noise`` holds the raw i.i.d. uniform vectors, keyed (n, j, k) for
    helper n, mixing slot j and user k.  ``masks`` holds the derived
    per-pair masks, keyed (i, n, k): the mask helper i adds when
    forwarding user k's upload toward helper n.  ``masks[(n, n, k)]``
    is the zero vector by construction.
    """

    noise: dict[tuple[int, int, int], Vector]
    masks: dict[tuple[int, int, int], Vector]


def keys_from_noise(
    ctx: SchemeContext, noise: Mapping[tuple[int, int, int], Vector]
) -> DealerKeys:
    """Derive the mask table from given noise vectors: per helper n, one
    product of ``mask_maps[n]`` with every user's noise slots (n, j, k)
    side by side, cut into one block-length slice per user.

    Shared by the seeded dealer and by the leakage module, which feeds
    enumerated or unit noise through this same code path.  The products
    reduce every mask, so noise that is not reduced still gives
    canonical masks.
    """
    params = ctx.params
    l, users = params.block_len, range(1, params.num_users + 1)
    masks: dict[tuple[int, int, int], Vector] = {}
    for n in range(1, params.num_helpers + 1):
        slots = tuple(sum((noise[n, j, k] for k in users), ()) for j in range(1, params.resiliency))
        mixed = ctx.mask_maps[n - 1] @ GfMatrix.of_reduced(ctx.field, slots, len(users) * l)
        for i, row in enumerate(mixed.data, start=1):
            for k in users:
                masks[(i, n, k)] = row[(k - 1) * l:k * l]
    return DealerKeys(noise=dict(noise), masks=masks)


def dealer_generate(ctx: SchemeContext, rng_seed) -> DealerKeys:
    """Sample the dealer noise with a seeded generator and derive masks.

    Draw order is (n, j, k) with ``block_len`` symbols each, so a seed
    pins the entire key table.
    """
    params = ctx.params
    rng = random.Random(rng_seed)
    l = params.block_len
    noise = {(n, j, k): tuple(rng.randrange(params.modulus) for _ in range(l))
             for n in range(1, params.num_helpers + 1) for j in range(1, params.resiliency)
             for k in range(1, params.num_users + 1)}
    return keys_from_noise(ctx, noise)


@dataclass(frozen=True)
class UploadMessage:
    user: int
    helper: int
    payload: Vector


@dataclass(frozen=True)
class InterHelperMessage:
    """One helper-to-helper transmission: per-user masked uploads."""

    sender: int
    receiver: int
    payloads: dict[int, Vector]

    def __post_init__(self):
        object.__setattr__(self, "payloads", dict(self.payloads))


@dataclass(frozen=True)
class HelperResponse:
    helper: int
    payload: Vector


@dataclass
class RoundTranscript:
    """Every message produced in one round, the uploads each helper
    recovered (keyed (k, n): user k's upload as rebuilt by helper n),
    plus the decoded sum, None where the round stops at the responses."""

    params: SchemeParams
    pattern: CommPattern
    uploads: tuple[UploadMessage, ...]
    keys: DealerKeys
    messages: tuple[InterHelperMessage, ...]
    responses: tuple[HelperResponse, ...]
    recovered: dict[tuple[int, int], Vector]
    decoded: Vector | None = None


def encode_uploads(
    ctx: SchemeContext, gradient: Gradient, randomness: UserRandomness
) -> tuple[UploadMessage, ...]:
    """Encode one user's uploads: the Vandermonde mix of gradient and
    randomness parts, one payload per helper."""
    params = ctx.params
    if gradient.owner != randomness.owner:
        raise ShapeMismatch("gradient and randomness owners differ")
    if len(gradient.parts) != params.block_count:
        raise ShapeMismatch(
            f"expected {params.block_count} gradient parts, got {len(gradient.parts)}"
        )
    if len(randomness.parts) != params.collusion:
        raise ShapeMismatch(
            f"expected {params.collusion} randomness parts, got {len(randomness.parts)}"
        )
    l = params.block_len
    rows = gradient.parts + randomness.parts
    if any(len(r) != l for r in rows):
        raise ShapeMismatch(f"every part must have {l} symbols")
    block = GfMatrix(ctx.field, rows)
    mixed = ctx.upload_matrix @ block
    return tuple(
        UploadMessage(gradient.owner, n, mixed.row(n - 1))
        for n in range(1, params.num_helpers + 1)
    )


def encode_round_uploads(
    ctx: SchemeContext, gradients: Sequence[Gradient], noises: Sequence[UserRandomness]
) -> tuple[UploadMessage, ...]:
    """Every user's ``encode_uploads``, user by user: with the keys, all
    of a round that no pattern changes."""
    noise_by_user = {f.owner: f for f in noises}
    return tuple(msg for g in sorted(gradients, key=lambda g: g.owner)
                 for msg in encode_uploads(ctx, g, noise_by_user[g.owner]))


def helper_share(
    ctx: SchemeContext,
    keys: DealerKeys,
    pattern: CommPattern,
    helper: int,
    received_uploads: Mapping[int, Vector],
) -> tuple[InterHelperMessage, ...]:
    """The masked uploads a surviving helper forwards to its peers.

    Toward helper i the sender covers exactly the users it heard from
    that i did not; each payload is the upload plus the dealer mask for
    the (sender, i) pair.  Empty payload maps produce no message.
    """
    if helper not in pattern.active_helpers:
        raise StragglerHelper(f"helper {helper} received no uploads")
    q = ctx.params.modulus
    own_users = pattern.users_of(helper)
    out = []
    for receiver in range(1, ctx.params.num_helpers + 1):
        if receiver == helper:
            continue
        missing = own_users - pattern.users_of(receiver)
        if not missing:
            continue
        payloads = {
            k: _vec_add(q, received_uploads[k], keys.masks[(helper, receiver, k)])
            for k in sorted(missing)
        }
        out.append(InterHelperMessage(helper, receiver, payloads))
    return tuple(out)


def _inverse(ctx: SchemeContext, matrix: GfMatrix, rows: tuple[int, ...]) -> GfMatrix:
    """The inverse of the given rows of ``matrix``, one of ``ctx``'s.

    Memoized in the context's memo by the matrix's content (its field
    and entries) and the row selection, so a copy whose matrices differ
    never reads another's inverse.  A singular selection raises every
    time.
    """
    key = (matrix, rows)
    found = ctx.memo.get(key)
    if found is None:
        found = ctx.memo[key] = matrix.select_rows(rows).inv()
    return found


def helper_recover(
    ctx: SchemeContext,
    pattern: CommPattern,
    helper: int,
    user: int,
    received: Mapping[int, Vector],
) -> Vector:
    """Reconstruct the upload a helper missed from peers' masked shares.

    ``received`` maps sender id to that sender's masked share for
    ``user``, all of one length.  The first ``resiliency`` senders
    (ascending) are combined by the first row of their inverse; the masks
    cancel because this helper's decode-matrix row is the first unit
    vector, so the result equals the true upload exactly.
    """
    if user in pattern.users_of(helper):
        raise ValueError(f"helper {helper} already holds user {user}'s upload")
    receivers = pattern.receivers_of(user)
    senders = sorted(i for i in received if i in receivers and i != helper)
    nr = ctx.params.resiliency
    if len(senders) < nr:
        raise NotEnoughShares(
            f"{len(senders)} shares for user {user}, need {nr}"
        )
    chosen = senders[:nr]
    inverse = _inverse(ctx, ctx.decode_matrices[helper - 1], tuple(i - 1 for i in chosen))
    shares = [received[i] for i in chosen]
    return _combine(ctx.params.modulus, inverse.data[0], shares, f"shares for user {user}")


def helper_respond(
    ctx: SchemeContext,
    pattern: CommPattern,
    helper: int,
    own_uploads: Mapping[int, Vector],
    recovered: Mapping[int, Vector],
) -> HelperResponse:
    """Sum received and recovered uploads into the helper's response."""
    if helper not in pattern.active_helpers:
        raise StragglerHelper(f"helper {helper} received no uploads")
    own_users = pattern.users_of(helper)
    missing = frozenset(range(1, ctx.params.num_users + 1)) - own_users
    if not missing <= set(recovered):
        absent = sorted(missing - set(recovered))
        raise MissingRecovery(f"no recovered upload for users {absent}")
    vectors = [own_uploads[k] for k in sorted(own_users)]
    vectors += [recovered[k] for k in sorted(missing)]
    return HelperResponse(helper, _vec_add(ctx.params.modulus, *vectors))


def master_decode(
    ctx: SchemeContext, responses: Iterable[HelperResponse]
) -> Vector:
    """Reconstruct the gradient sum from surviving helper responses.

    Combines the ``resiliency`` lowest-numbered responders on whole vectors;
    any admissible choice yields the same output, which is tested separately.
    """
    by_helper = {r.helper: r.payload for r in responses}
    nr = ctx.params.resiliency
    if len(by_helper) < nr:
        raise NotEnoughResponses(f"{len(by_helper)} responses, need {nr}")
    chosen = sorted(by_helper)[:nr]
    inverse = _inverse(ctx, ctx.upload_matrix, tuple(n - 1 for n in chosen))
    payloads = [by_helper[n] for n in chosen]
    return sum((_combine(ctx.params.modulus, row, payloads, "responses")
                for row in inverse.data[:ctx.params.block_count]), ())


def run_helpers(
    ctx: SchemeContext,
    pattern: CommPattern,
    uploads: Sequence[UploadMessage],
    keys: DealerKeys,
) -> RoundTranscript:
    """Sharing-and-computation, where the pattern enters a round: each
    active helper's ``helper_share``, ``helper_recover`` of every user it
    missed and ``helper_respond``, on a round's uploads and dealer keys.
    The transcript stops at the responses, so it needs no survivor set,
    ``decoded`` stays None, and a scheme whose master cannot decode still
    yields every message it sends."""
    params = ctx.params
    patterns_mod.validate(pattern, params)
    payload = {(msg.user, msg.helper): msg.payload for msg in uploads}

    active = sorted(pattern.active_helpers)
    received = {
        n: {k: payload[(k, n)] for k in sorted(pattern.users_of(n))}
        for n in active
    }

    messages: list[InterHelperMessage] = []
    inbox: dict[int, dict[int, dict[int, Vector]]] = {n: {} for n in range(1, params.num_helpers + 1)}
    for n in active:
        for msg in helper_share(ctx, keys, pattern, n, received[n]):
            messages.append(msg)
            for k, vec in msg.payloads.items():
                inbox[msg.receiver].setdefault(k, {})[msg.sender] = vec

    responses: list[HelperResponse] = []
    recovered: dict[tuple[int, int], Vector] = {}
    for n in active:
        missing = sorted(
            frozenset(range(1, params.num_users + 1)) - pattern.users_of(n)
        )
        rebuilt = {
            k: helper_recover(ctx, pattern, n, k, inbox[n].get(k, {}))
            for k in missing
        }
        recovered.update(((k, n), vec) for k, vec in rebuilt.items())
        responses.append(helper_respond(ctx, pattern, n, received[n], rebuilt))

    return RoundTranscript(
        params=params,
        pattern=pattern,
        uploads=tuple(uploads),
        keys=keys,
        messages=tuple(messages),
        responses=tuple(responses),
        recovered=recovered,
    )


def run_round(
    ctx: SchemeContext,
    pattern: CommPattern,
    gradients: Sequence[Gradient],
    noises: Sequence[UserRandomness],
    keys: DealerKeys,
) -> RoundTranscript:
    """Execute uploading (``encode_round_uploads``), sharing-and-computation
    (``run_helpers``) and reconstruction: ``master_decode`` of the
    survivors' responses.  Raises, in order: the pattern's error, then
    BadSurvivorSet without a survivor set, then ShapeMismatch unless
    there is exactly one gradient per user."""
    params = ctx.params
    patterns_mod.validate(pattern, params)
    if pattern.survivors is None:
        raise patterns_mod.BadSurvivorSet("round execution needs a survivor set to decode")
    if sorted(g.owner for g in gradients) != list(range(1, params.num_users + 1)):
        raise ShapeMismatch("need exactly one gradient per user")
    transcript = run_helpers(ctx, pattern, encode_round_uploads(ctx, gradients, noises), keys)
    survivors = [r for r in transcript.responses if r.helper in pattern.survivors]
    transcript.decoded = master_decode(ctx, survivors)
    return transcript


def measure_rates(transcript: RoundTranscript) -> tuple[Fraction, Fraction]:
    """Measured (R_X, R_Y): worst-case message length over gradient length."""
    length = transcript.params.gradient_len
    lx = max(len(u.payload) for u in transcript.uploads)
    ly = max(len(r.payload) for r in transcript.responses)
    return Fraction(lx, length), Fraction(ly, length)
