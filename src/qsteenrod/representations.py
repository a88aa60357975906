"""Symmetric group actions on graded polynomial spaces.

Fillings use the French convention: rows are stored bottom-up and columns
are read bottom-to-top, so the Specht polynomial of a filling is the product
of the Vandermonde determinants of the variables listed along each column.
A graded character comes from the multiplicities of the irreducibles in
each degree (`multiplicity_character`, the sum of mult_lam chi^lam), or is
read off the echelon basis of each slice (`graded_character`): once the
slice is known to be stable under the adjacent transpositions, the trace of
a permutation is the sum of the coefficients of the permuted basis vectors
at their own leading monomials.  The character table of S_n comes from the
Murnaghan-Nakayama rule on beta sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .errors import InvalidFillingError, NotStableError
from .polynomials import Polynomial, permute_variables, transposition
from .scalars import RF_ZERO, RationalFunction
from .steenrod import Partition, is_partition, partitions_of

if TYPE_CHECKING:  # spaces imports isotypic, which imports this module
    from .spaces import GradedSubspace


@dataclass(frozen=True)
class Filling:
    """A bijective filling of a partition shape by 1..n, rows bottom-up."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_partition(self.shape) and self.shape != ():
            raise InvalidFillingError(f"{self.shape} is not a partition")
        if tuple(len(r) for r in self.rows) != self.shape:
            raise InvalidFillingError("row lengths do not match the shape")
        n = sum(self.shape)
        entries = [e for row in self.rows for e in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise InvalidFillingError("entries are not a bijection with 1..n")

    @property
    def size(self) -> int:
        return sum(self.shape)

    def columns(self) -> list[tuple[int, ...]]:
        """Entries of each column, bottom-to-top."""
        ncols = self.shape[0] if self.shape else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j)
            for j in range(ncols)
        ]

    def is_standard_tableau(self) -> bool:
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                return False
        for col in self.columns():
            if any(a >= b for a, b in zip(col, col[1:])):
                return False
        return True

    def apply(self, sigma: tuple[int, ...]) -> "Filling":
        """Relabel every entry e by sigma(e)."""
        return Filling(
            self.shape,
            tuple(tuple(sigma[e - 1] for e in row) for row in self.rows),
        )


def standard_tableaux(shape: Partition) -> Iterator[Filling]:
    """All standard tableaux of the given shape (French convention)."""
    n = sum(shape)
    grid = [[0] * width for width in shape]

    def place(value: int) -> Iterator[Filling]:
        if value > n:
            yield Filling(shape, tuple(tuple(r) for r in grid))
            return
        for i, width in enumerate(shape):
            filled = sum(1 for v in grid[i] if v)
            if filled >= width:
                continue
            if i > 0 and sum(1 for v in grid[i - 1] if v) <= filled:
                continue
            grid[i][filled] = value
            yield from place(value + 1)
            grid[i][filled] = 0

    yield from place(1)


def vandermonde(indices: Sequence[int], n: int | None = None) -> Polynomial:
    """Product of (x_j - x_i) over ordered pairs of the listed variables."""
    if len(set(indices)) != len(indices):
        raise InvalidFillingError(f"duplicate variable indices in {indices}")
    size = n or max(indices)
    out = Polynomial.one(size)
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            out = out * (
                Polynomial.variable(size, indices[b])
                - Polynomial.variable(size, indices[a])
            )
    return out


def specht_polynomial(filling: Filling, n: int | None = None) -> Polynomial:
    """Product of column Vandermondes of a filling."""
    size = n or filling.size
    out = Polynomial.one(size)
    for col in filling.columns():
        out = out * vandermonde(col, size)
    return out


# ---------------------------------------------------------------------------
# Characters of the symmetric group


def cycle_type_representative(ct: Partition, n: int) -> tuple[int, ...]:
    """The permutation with decreasing cycles on consecutive integers."""
    images = list(range(1, n + 1))
    start = 0
    for length in ct:
        for offset in range(length):
            images[start + offset] = start + 1 + (offset + 1) % length
        start += length
    return tuple(images)


def conjugacy_class_size(ct: Partition, n: int) -> int:
    z = 1
    for part in set(ct):
        m = ct.count(part)
        z *= part**m * math.factorial(m)
    return math.factorial(n) // z


def _beta_set(lam: Partition) -> tuple[int, ...]:
    k = len(lam)
    return tuple(lam[i] + (k - 1 - i) for i in range(k))


def _beta_to_partition(beta: tuple[int, ...]) -> Partition:
    dec = tuple(sorted(beta, reverse=True))
    k = len(dec)
    lam = tuple(dec[i] - (k - 1 - i) for i in range(k))
    return tuple(part for part in lam if part)


@lru_cache(maxsize=512)  # every (lam, ct) with n <= 7 is 435 keys
def sn_character(lam: Partition, ct: Partition) -> int:
    """Irreducible character value chi^lambda on the class of cycle type ct."""
    if sum(lam) != sum(ct):
        raise ValueError("partition and cycle type have different sizes")
    if not ct:
        return 1
    k = ct[0]
    rest = ct[1:]
    beta = set(_beta_set(lam))
    total = 0
    for b in sorted(beta):
        if b - k >= 0 and (b - k) not in beta:
            crossings = sum(1 for c in beta if b - k < c < b)
            sign = -1 if crossings % 2 else 1
            new_beta = (beta - {b}) | {b - k}
            total += sign * sn_character(
                _beta_to_partition(tuple(sorted(new_beta, reverse=True))), rest
            )
    return total


def character_table(n: int) -> dict[Partition, dict[Partition, int]]:
    classes = list(partitions_of(n))
    return {
        lam: {ct: sn_character(lam, ct) for ct in classes}
        for lam in partitions_of(n)
    }


@dataclass(frozen=True)
class GradedCharacter:
    """Exact per-degree traces of the symmetric group on a graded module."""

    n: int
    values: tuple[tuple[int, tuple[tuple[Partition, Fraction], ...]], ...]

    def degree(self, d: int) -> dict[Partition, Fraction]:
        for deg, row in self.values:
            if deg == d:
                return dict(row)
        return {ct: Fraction(0) for ct in partitions_of(self.n)}

    def totals(self) -> dict[Partition, Fraction]:
        out: dict[Partition, Fraction] = {
            ct: Fraction(0) for ct in partitions_of(self.n)
        }
        for _, row in self.values:
            for ct, value in row:
                out[ct] += value
        return out

    def degrees(self) -> list[int]:
        return [d for d, _ in self.values]


def _slice_trace(space: GradedSubspace, sigma: tuple[int, ...]) -> RationalFunction:
    """Trace of sigma on a stable slice, read off its echelon basis.

    Each basis vector b has leading coefficient 1 and the other basis
    vectors vanish at its leading monomial, so the coordinate of sigma(b)
    on b is the coefficient of sigma(b) there.
    """
    trace = RF_ZERO
    for b in space.basis:
        trace = trace + permute_variables(b, sigma).coefficient(b.leading_monomial())
    return trace


def _check_stable(space: GradedSubspace) -> None:
    n = space.n
    for i in range(1, n):
        sigma = transposition(n, i)
        for b in space.basis:
            if space.coordinates(permute_variables(b, sigma)) is None:
                raise NotStableError(space.degree, i)


def graded_character(
    family: Mapping[int, GradedSubspace] | Sequence[GradedSubspace],
) -> GradedCharacter:
    """Trace of one representative per cycle type on every degree slice.

    It reads the traces off bases already built (`verify`'s harm slices)
    and is the oracle the tests hold `multiplicity_character` to.  Each slice must be stable under the
    adjacent transpositions; violations raise NotStableError naming the
    degree and transposition.  Values are exact rationals (they are in fact
    integers for modules defined over Q).
    """
    slices = (
        list(family.values()) if isinstance(family, Mapping) else list(family)
    )
    if not slices:
        raise ValueError("empty family")
    n = slices[0].n
    classes = list(partitions_of(n))
    rows = []
    for space in sorted(slices, key=lambda s: s.degree):
        _check_stable(space)
        row = []
        for ct in classes:
            sigma = cycle_type_representative(ct, n)
            value = _slice_trace(space, sigma)
            row.append((ct, value.as_fraction()))
        rows.append((space.degree, tuple(row)))
    return GradedCharacter(n, tuple(rows))


def multiplicity_character(
    n: int, multiplicities: Sequence[tuple[int, Mapping[Partition, int]]]
) -> GradedCharacter:
    """The graded character of a module with mult_lam copies of S^lam in
    each listed degree: chi(ct) = sum of mult_lam chi^lam(ct)."""
    classes = list(partitions_of(n))
    rows = []
    for d, mult in multiplicities:
        row = tuple(
            (ct, Fraction(sum(m * sn_character(lam, ct) for lam, m in mult.items())))
            for ct in classes
        )
        rows.append((d, row))
    return GradedCharacter(n, tuple(rows))


@dataclass(frozen=True)
class RegularRepCertificate:
    is_regular: bool
    totals: tuple[tuple[Partition, Fraction], ...]


def is_regular_representation(chi: GradedCharacter, n: int) -> RegularRepCertificate:
    """Whether the summed character equals the regular character of S_n."""
    identity = (1,) * n
    totals = chi.totals()
    ok = all(
        value == (math.factorial(n) if ct == identity else 0)
        for ct, value in totals.items()
    )
    return RegularRepCertificate(ok, tuple(sorted(totals.items(), reverse=True)))


def decompose_character(
    totals: Mapping[Partition, Fraction], n: int
) -> dict[Partition, Fraction]:
    """Multiplicities of the irreducibles via the class-weighted inner product."""
    out: dict[Partition, Fraction] = {}
    order = math.factorial(n)
    for lam in partitions_of(n):
        acc = Fraction(0)
        for ct, value in totals.items():
            acc += conjugacy_class_size(ct, n) * sn_character(lam, ct) * value
        out[lam] = acc / order
    return out
