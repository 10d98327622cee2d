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


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; moduli here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
