"""The four aggregation roles: user encoder, trusted dealer, helper, master.

One round moves length-L gradients from K users through N helpers to a
master that reconstructs only the gradient sum, tolerating straggling
links as long as each user reaches at least ``resiliency`` helpers and
the master hears back from at least ``resiliency`` of them.

All payloads are vectors of ``block_len = L / (resiliency - collusion)``
field symbols; a vector is processed as independent columns through the
matrix algebra.  Helpers and users carry 1-based ids.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import patterns as patterns_mod
from .field import PrimeField, is_prime
from .matrix import GfMatrix, extended_vandermonde, make_points, vandermonde
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
    "DealerKeys",
    "UploadMessage",
    "InterHelperMessage",
    "HelperResponse",
    "RoundTranscript",
    "setup",
    "encode_uploads",
    "dealer_generate",
    "keys_from_noise",
    "helper_share",
    "helper_recover",
    "helper_respond",
    "master_decode",
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
    acc = [0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            acc[i] += x
    return tuple(x % q for x in acc)


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
        return (
            self.num_users,
            self.num_helpers,
            self.resiliency,
            self.collusion,
            self.modulus,
            self.gradient_len,
        )

    def label(self) -> str:
        return ",".join(str(x) for x in self.as_tuple())


@dataclass(frozen=True)
class SchemeContext:
    """Precomputed matrices shared by every role in a round.

    upload_matrix    N x Nr Vandermonde applied by every user.
    basis_matrices   per helper n, the square Vandermonde anchored at
                     point alpha_n and completed by the tail points.
    mask_basis       the zero-first-row tail Vandermonde mixing dealer
                     noise into masks.
    decode_matrices  per helper n, upload_matrix @ basis_matrices[n]^-1;
                     row n is (1, 0, ..., 0) so a helper's own mask
                     coordinate vanishes.
    mask_maps        per helper n, decode_matrices[n] @ mask_basis: the
                     coefficients taking helper-n noise to the masks
                     held by every other helper.

    Immutable after setup; safe to share across concurrent rounds.
    """

    params: SchemeParams
    field: PrimeField
    points: tuple[int, ...]
    upload_matrix: GfMatrix
    basis_matrices: tuple[GfMatrix, ...]
    mask_basis: GfMatrix
    decode_matrices: tuple[GfMatrix, ...]
    mask_maps: tuple[GfMatrix, ...]

    @property
    def block_len(self) -> int:
        return self.params.block_len


def setup(params: SchemeParams) -> SchemeContext:
    """Validate parameters and precompute the round matrices.

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
    field = PrimeField(q)
    points = make_points(field, n, nr)  # FieldTooSmall when q < N + Nr
    if length % (nr - t) != 0:
        raise BadBlockLength(
            f"block count {nr - t} does not divide gradient length {length}"
        )

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
        points=points,
        upload_matrix=upload,
        basis_matrices=bases,
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
    """Derive the mask table from given noise vectors.

    Shared by the seeded dealer and by the leakage module, which feeds
    enumerated or unit noise through this same code path.
    """
    params = ctx.params
    q = params.modulus
    l = params.block_len
    masks: dict[tuple[int, int, int], Vector] = {}
    for n in range(1, params.num_helpers + 1):
        coeffs = ctx.mask_maps[n - 1]
        for k in range(1, params.num_users + 1):
            slots = [noise[(n, j, k)] for j in range(1, params.resiliency)]
            for i in range(1, params.num_helpers + 1):
                row = coeffs.row(i - 1)
                acc = [0] * l
                for c, vec in zip(row, slots):
                    if c:
                        for pos in range(l):
                            acc[pos] += c * vec[pos]
                masks[(i, n, k)] = tuple(v % q for v in acc)
    return DealerKeys(noise=dict(noise), masks=masks)


def dealer_generate(ctx: SchemeContext, rng_seed) -> DealerKeys:
    """Sample the dealer noise with a seeded generator and derive masks.

    Draw order is (n, j, k) with ``block_len`` symbols each, so a seed
    pins the entire key table.
    """
    params = ctx.params
    rng = random.Random(rng_seed)
    l = params.block_len
    noise = {}
    for n in range(1, params.num_helpers + 1):
        for j in range(1, params.resiliency):
            for k in range(1, params.num_users + 1):
                noise[(n, j, k)] = tuple(
                    rng.randrange(params.modulus) for _ in range(l)
                )
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
    plus the decoded sum."""

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


def helper_recover(
    ctx: SchemeContext,
    pattern: CommPattern,
    helper: int,
    user: int,
    received: Mapping[int, Vector],
) -> Vector:
    """Reconstruct the upload a helper missed from peers' masked shares.

    ``received`` maps sender id to that sender's masked share for
    ``user``.  The first ``resiliency`` senders (ascending) are used;
    the masks cancel because this helper's decode-matrix row is the
    first unit vector, so the result equals the true upload exactly.
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
    sub = ctx.decode_matrices[helper - 1].select_rows([i - 1 for i in chosen])
    first_row = sub.inv().row(0)
    stacked = GfMatrix(ctx.field, [received[i] for i in chosen])
    mixed = GfMatrix(ctx.field, [first_row]) @ stacked
    return mixed.row(0)


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

    Uses the ``resiliency`` lowest-numbered responders; any admissible
    choice yields the same output, which is tested separately.
    """
    by_helper = {r.helper: r.payload for r in responses}
    nr = ctx.params.resiliency
    if len(by_helper) < nr:
        raise NotEnoughResponses(f"{len(by_helper)} responses, need {nr}")
    chosen = sorted(by_helper)[:nr]
    sub = ctx.upload_matrix.select_rows([n - 1 for n in chosen])
    stacked = GfMatrix(ctx.field, [by_helper[n] for n in chosen])
    solved = sub.inv() @ stacked
    return tuple(
        s
        for i in range(ctx.params.block_count)
        for s in solved.row(i)
    )


def run_round(
    ctx: SchemeContext,
    pattern: CommPattern,
    gradients: Sequence[Gradient],
    noises: Sequence[UserRandomness],
    keys: DealerKeys,
    decode: bool = True,
) -> RoundTranscript:
    """Execute uploading, sharing-and-computation, and reconstruction.

    The pattern must carry a survivor set.  Returns the full transcript
    with the decoded gradient sum.  With ``decode=False`` the round
    stops at the responses and ``decoded`` stays None, so a scheme whose
    master cannot decode still yields every message it sends.
    """
    params = ctx.params
    patterns_mod.validate(pattern, params)
    if pattern.survivors is None:
        raise patterns_mod.BadSurvivorSet("round execution needs a survivor set")
    if sorted(g.owner for g in gradients) != list(range(1, params.num_users + 1)):
        raise ShapeMismatch("need exactly one gradient per user")

    grad_by_user = {g.owner: g for g in gradients}
    noise_by_user = {f.owner: f for f in noises}
    uploads: list[UploadMessage] = []
    payload: dict[tuple[int, int], Vector] = {}
    for k in sorted(grad_by_user):
        for msg in encode_uploads(ctx, grad_by_user[k], noise_by_user[k]):
            uploads.append(msg)
            payload[(msg.user, msg.helper)] = msg.payload

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

    decoded = None
    if decode:
        decoded = master_decode(
            ctx, [r for r in responses if r.helper in pattern.survivors]
        )
    return RoundTranscript(
        params=params,
        pattern=pattern,
        uploads=tuple(uploads),
        keys=keys,
        messages=tuple(messages),
        responses=tuple(responses),
        recovered=recovered,
        decoded=decoded,
    )


def measure_rates(transcript: RoundTranscript) -> tuple[Fraction, Fraction]:
    """Measured (R_X, R_Y): worst-case message length over gradient length."""
    length = transcript.params.gradient_len
    lx = max(len(u.payload) for u in transcript.uploads)
    ly = max(len(r.payload) for r in transcript.responses)
    return Fraction(lx, length), Fraction(ly, length)
