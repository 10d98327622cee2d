"""Exact arithmetic in prime fields GF(q).

Only prime moduli are supported; extension fields are rejected at
construction.  Field elements are plain ints: the matrix and protocol
layers add and multiply them as integers and store every result as its
canonical residue in [0, q-1], so equal elements always compare equal
and serialized transcripts are reproducible bit for bit.  The field
supplies what ``%`` alone does not: a validated modulus, inverses and
powers.
"""

__all__ = [
    "FieldError",
    "ModulusMismatch",
    "ZeroInverse",
    "is_prime",
    "PrimeField",
]


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class ModulusMismatch(FieldError):
    """Elements of two different fields were combined."""


class ZeroInverse(FieldError):
    """A multiplicative inverse of zero was requested."""


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every n < 2^64 (Sorenson and Webster, 2015).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin, for n < 2^64.
    Larger numbers raise ValueError rather than get an unproven answer."""
    if n >= 2**64:
        raise ValueError(f"primality of {n} >= 2^64 is not decided exactly")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(q).

    Primality of ``q`` is verified at construction.  `inv` and `pow`
    take any integer and return its canonical residue result.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool) or not is_prime(q):
            raise ValueError(f"field modulus must be a prime integer, got {q!r}")
        self.q = q

    def __repr__(self):
        return f"PrimeField({self.q})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.q == other.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    # -- arithmetic on canonical residues ---------------------------------

    def inv(self, a: int) -> int:
        """Multiplicative inverse, via Fermat's little theorem."""
        if a % self.q == 0:
            raise ZeroInverse(f"0 has no inverse in GF({self.q})")
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; 0**0 is defined as 1."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        return pow(a % self.q, e, self.q)
