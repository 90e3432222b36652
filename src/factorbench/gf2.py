"""Dense bit-matrix Gaussian elimination over GF(2) with dependency tracking.

Rows are packed into Python ints (bit i = column i), so row updates are
single XORs regardless of width. Elimination adjoins an identity matrix of
bookkeeping masks, which lets every row that reduces to zero be reported as
a subset of the ORIGINAL rows whose XOR is the zero vector.

`eliminate` reduces a whole matrix at once and is the reference.
`XorBasis` reduces rows one at a time as they arrive, for callers whose
matrix only grows: each new row costs one pass over the pivots so far,
and the dependencies it reports over a sequence of rows span the same
null space as `eliminate` on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Dependency:
    """A nonempty set of row indices whose rows XOR to zero."""

    row_indices: frozenset[int]

    def __post_init__(self):
        if not self.row_indices:
            raise ValueError("a dependency must select at least one row")


@dataclass
class BitMatrix:
    """Row-major GF(2) matrix; row_bits[r] packs row r little-endian."""

    n_cols: int
    row_bits: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.n_cols < 0:
            raise ValueError("n_cols must be non-negative")
        limit = 1 << self.n_cols
        for r, bits in enumerate(self.row_bits):
            if bits < 0 or bits >= limit:
                raise ValueError(f"row {r} has bits outside {self.n_cols} columns")

    @property
    def n_rows(self) -> int:
        return len(self.row_bits)


def eliminate(m: BitMatrix) -> list[Dependency]:
    """Forward elimination; returns one Dependency per row that reduces to zero.

    Pivots are chosen deterministically: columns left to right, first
    not-yet-pivoted row with a set bit. The input matrix is left untouched.
    The result is empty exactly when the rows are linearly independent.
    """
    rows = list(m.row_bits)
    combos = [1 << i for i in range(len(rows))]
    pivoted = [False] * len(rows)
    for col in range(m.n_cols):
        mask = 1 << col
        pivot = None
        for r in range(len(rows)):
            if not pivoted[r] and rows[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        pivoted[pivot] = True
        for r in range(len(rows)):
            if r != pivot and rows[r] & mask:
                rows[r] ^= rows[pivot]
                combos[r] ^= combos[pivot]
    deps = []
    for r in range(len(rows)):
        if rows[r] == 0:
            members = frozenset(i for i in range(len(rows)) if (combos[r] >> i) & 1)
            deps.append(Dependency(members))
    return deps


def row_xor_check(m: BitMatrix, dep: Dependency) -> bool:
    """True iff the XOR of the selected rows is the zero vector."""
    acc = 0
    for i in dep.row_indices:
        if not 0 <= i < m.n_rows:
            raise IndexError(f"row index {i} out of range")
        acc ^= m.row_bits[i]
    return acc == 0


class XorBasis:
    """Incremental GF(2) row basis with dependency tracking.

    Rows get the ids 0, 1, 2, ... in the order they are added. Every pivot
    is keyed by its top bit and carries the mask of row ids it is the XOR
    of, so a row needs no fixed width: rows added later may be wider, as
    long as the bits they add are zero in the earlier rows.
    """

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}  # top bit -> (row, id mask)
        self.n_rows = 0

    def add(self, row: int) -> Dependency | None:
        """Reduce `row` against the pivots; it becomes a pivot, or, when it
        reduces to zero, the returned Dependency of itself and earlier rows."""
        if row < 0:
            raise ValueError("a row must be a non-negative bit mask")
        combo = 1 << self.n_rows
        self.n_rows += 1
        pivots = self._pivots
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (row, combo)
                return None
            row ^= pivot[0]
            combo ^= pivot[1]
        members = []
        while combo:
            low = combo & -combo
            members.append(low.bit_length() - 1)
            combo ^= low
        return Dependency(frozenset(members))
