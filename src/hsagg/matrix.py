"""Dense matrices over GF(q).

Provides Vandermonde-style constructors, Gauss-Jordan inversion, row
selection and an incremental row-space reducer, which gives every rank
and is used heavily by the leakage verifier.  Matrices are immutable
after construction; entries are stored as canonical residues in
[0, q-1].  ``GfMatrix(...)`` reduces every entry it is given;
``GfMatrix.of_reduced`` takes rows that are canonical residues already,
as products, row selections and inverses are, and skips that pass.
Products walk only the nonzero entries of the right operand's rows.

Row and column indices are 0-based throughout this module.  Protocol
code translates 1-based helper/user ids before calling in.
"""

from itertools import compress
from typing import Iterable, Sequence

from .field import ModulusMismatch, PrimeField

__all__ = [
    "MatrixError",
    "DimensionMismatch",
    "Singular",
    "IndexOutOfRange",
    "FieldTooSmall",
    "GfMatrix",
    "make_points",
    "vandermonde",
    "extended_vandermonde",
    "RowSpace",
]


class MatrixError(Exception):
    """Base class for matrix errors."""


class DimensionMismatch(MatrixError):
    """Operand shapes are incompatible."""


class Singular(MatrixError):
    """Inverse of a rank-deficient matrix was requested."""


class IndexOutOfRange(MatrixError):
    """A row index fell outside the matrix."""


class FieldTooSmall(MatrixError):
    """The field has too few nonzero elements for the requested points."""


class GfMatrix:
    """An immutable rows x cols matrix over GF(q); ``cols`` sizes one with no rows."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: PrimeField, rows_data: Iterable[Sequence], cols: int = 0):
        q = field.q
        data = tuple(tuple([int(e) % q for e in row]) for row in rows_data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatch("ragged rows")
        else:
            width = cols
        self.field = field
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def of_reduced(cls, field: PrimeField, data: tuple, cols: int = 0) -> "GfMatrix":
        """The matrix of ``data``, a tuple of equal-width tuples of
        canonical residues, taken as it is: no reduction, no checks;
        ``cols`` is the width if there are no rows.  For data the
        program made; input from outside goes through ``GfMatrix(...)``."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows = field, data, len(data)
        m.cols = len(data[0]) if data else cols
        return m

    def __repr__(self):
        return f"GfMatrix({self.rows}x{self.cols} mod {self.field.q})"

    def __eq__(self, other):
        return (
            isinstance(other, GfMatrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def row(self, i: int) -> tuple:
        return self.data[i]

    def __getitem__(self, idx) -> int:
        i, j = idx
        return self.data[i][j]

    def __matmul__(self, other: "GfMatrix") -> "GfMatrix":
        if not isinstance(other, GfMatrix):
            return NotImplemented
        if self.field != other.field:
            raise ModulusMismatch(
                f"GF({self.field.q}) vs GF({other.field.q})"
            )
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        q, width = self.field.q, other.cols
        support = [[j for j, b in enumerate(brow) if b] for brow in other.data]
        out = []
        for arow in self.data:
            acc = [0] * width
            for a, brow, cols in zip(arow, other.data, support):
                if a:
                    for j in cols:
                        acc[j] += a * brow[j]
            out.append(tuple([v % q for v in acc]))
        return GfMatrix.of_reduced(self.field, tuple(out), width)

    def select_rows(self, indices: Sequence[int]) -> "GfMatrix":
        """Submatrix of the given rows; indices must be strictly increasing."""
        idx = list(indices)
        if any(i < 0 or i >= self.rows for i in idx):
            raise IndexOutOfRange(f"row index outside 0..{self.rows - 1}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("row indices must be strictly increasing")
        return GfMatrix.of_reduced(self.field, tuple(self.data[i] for i in idx), self.cols)

    def inv(self) -> "GfMatrix":
        """Inverse by Gauss-Jordan elimination.

        Pivots are chosen as the first nonzero entry in each column,
        which keeps the elimination fully deterministic (there is no
        pivot magnitude over a finite field).
        """
        if self.rows != self.cols:
            raise DimensionMismatch("inverse requires a square matrix")
        n = self.rows
        q = self.field.q
        aug = [list(row) + [1 if i == j else 0 for j in range(n)]
               for i, row in enumerate(self.data)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if aug[r][col] % q != 0), None
            )
            if pivot is None:
                raise Singular(f"matrix of rank < {n}")
            if pivot != col:
                aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = self.field.inv(aug[col][col])
            aug[col] = [(v * inv_p) % q for v in aug[col]]
            prow = aug[col]
            for r in range(n):
                if r == col:
                    continue
                c = aug[r][col]
                if c:
                    aug[r] = [(v - c * p) % q for v, p in zip(aug[r], prow)]
        return GfMatrix.of_reduced(self.field, tuple(tuple(row[n:]) for row in aug))


class RowSpace:
    """Incrementally reduced row space over GF(q).

    Maintains a reduced-echelon basis, and each basis row's nonzero
    columns in ``support``, so that ``insert`` costs one elimination
    pass over those columns.  The reduced echelon form is unique, so the
    leakage verifier reads it where a span keys a memo and in its
    reference rank quadruple; a rank alone it finds by forward
    elimination.  ``clone`` lets a conditioning set be reduced once and
    extended along several branches.  Clones share basis rows: only
    ``insert`` changes one, and it copies it first.
    """

    __slots__ = ("field", "width", "pivots", "basis", "support")

    def __init__(self, field: PrimeField, width: int):
        self.field = field
        self.width = width
        self.pivots: list[int] = []
        self.basis: list[list[int]] = []
        self.support: list[list[int]] = []

    @classmethod
    def of_echelon(cls, field: PrimeField, width: int, rows: Iterable[Sequence[int]]) -> "RowSpace":
        """The space of ``rows``, canonical residues in reduced echelon
        form already, taken as its basis with no elimination."""
        space = cls(field, width)
        space.basis = [list(row) for row in rows]
        space.support = [list(compress(range(width), row)) for row in space.basis]
        space.pivots = [cols[0] for cols in space.support]  # each row's first nonzero is 1
        return space

    @property
    def rank(self) -> int:
        return len(self.basis)

    def clone(self) -> "RowSpace":
        dup = RowSpace(self.field, self.width)
        dup.pivots = list(self.pivots)
        dup.basis = list(self.basis)
        dup.support = list(self.support)
        return dup

    def insert(self, row: Sequence[int]) -> bool:
        """Reduce ``row`` against the basis; returns True if rank grew."""
        q = self.field.q
        if len(row) != self.width:
            raise DimensionMismatch("row width does not match the space")
        if len(self.basis) == self.width:  # full: every row lies in it
            return False
        r = [v % q for v in row]
        for pivot, base, cols in zip(self.pivots, self.basis, self.support):
            c = r[pivot]
            if c:
                for j in cols:
                    r[j] = (r[j] - c * base[j]) % q
        support = list(compress(range(self.width), r))
        if not support:
            return False
        p = support[0]
        if r[p] != 1:
            inv_p = self.field.inv(r[p])
            for j in support:
                r[j] = r[j] * inv_p % q
        # Keep the basis fully reduced at the new pivot column.
        basis, supports = self.basis, self.support
        for i, base in enumerate(basis):
            c = base[p]
            if c:
                base = base.copy()  # a clone may share the row
                for j in support:
                    base[j] = (base[j] - c * r[j]) % q
                basis[i] = base
                supports[i] = list(compress(range(self.width), base))
        self.pivots.append(p)
        basis.append(r)
        supports.append(support)
        return True

    def insert_matrix(self, m: GfMatrix) -> None:
        for row in m.data:
            self.insert(row)


def make_points(field: PrimeField, num_helpers: int, resiliency: int) -> tuple[int, ...]:
    """Canonical evaluation points alpha_i = i, i in [1, N + Nr - 1].

    The first ``num_helpers`` points parameterize helper rows of the
    upload matrix; the remaining ``resiliency - 1`` tail points extend
    it for the helper-side key construction.  Deterministic so that
    every matrix, transcript and golden vector is reproducible.  Raises
    :class:`FieldTooSmall` when GF(q) cannot host the required number
    of distinct nonzero points (q < N + Nr).
    """
    count = num_helpers + resiliency - 1
    if field.q < count + 1:
        raise FieldTooSmall(
            f"need {count} distinct nonzero points, GF({field.q}) has {field.q - 1}"
        )
    return tuple(range(1, count + 1))


def vandermonde(field: PrimeField, points: Sequence[int], cols: int) -> GfMatrix:
    """Vandermonde matrix with entry (i, j) = points[i] ** j, j < cols."""
    if cols < 1:
        raise ValueError("need at least one column")
    return GfMatrix(
        field, [[field.pow(p, j) for j in range(cols)] for p in points]
    )


def extended_vandermonde(
    field: PrimeField, points: Sequence[int], num_helpers: int, resiliency: int
) -> GfMatrix:
    """The Nr x (Nr - 1) key-mixing matrix.

    Its first row is all zero; row 1 + i is the Vandermonde row of tail
    point alpha_{N+i} with resiliency - 1 columns.  The zero first row
    is what makes each helper's own key coordinate vanish.
    """
    if len(points) != num_helpers + resiliency - 1:
        raise DimensionMismatch("points do not match (N, Nr)")
    width = resiliency - 1
    rows = [[0] * width]
    for i in range(1, resiliency):
        alpha = points[num_helpers + i - 1]
        rows.append([field.pow(alpha, j) for j in range(width)])
    return GfMatrix(field, rows)
