"""Graded hit and harmonic spaces, their truncated variants, Hilbert series.

For a fixed q, the degree-d hit space is spanned by the images P_k . m of
the generating operators on the monomials m of degree d - k: P_1 and P_2
when q is nonzero or formal, P_1..P_n at q = 0 (`generating_degrees`).
These images contain every other P_k . m.  For q != 0 the commutation rule
gives P_{k+1} = (P_1 P_k - P_k P_1) / (q(k-1)), so by induction
im P_{k+1} lies in im P_1 + im P_k, hence in im P_1 + im P_2.  At q = 0,
P_k is multiplication by the power sum p_k, which Newton's identities put
in the ideal generated by p_1..p_n.  The harmonic space is the joint
kernel of the down operators D_k on degree d for the same k.  Harmonics
are also the orthogonal complement of the hits under the factorial-weighted
scalar product <x^K, x^K> = K!, for which P_k and D_k are adjoint; the test
suite cross-checks this degree by degree.  Every slice is read through the
slice layout of `linalg`: hits are a span, harmonics and K!-complements a
kernel.  Slices and dimensions share their rows: a harm or hit slice is
solved on the integer stacks of the monomial rules (`rule_stacks`: the
D_k, or the P_k transposed, whose row at m is P_k . m), and on the blocks
route each S_n-block on its `isotypic.pivot_rows`, the rows that
`block_ranks` reads for its dimension.  No polynomial or rational function
is built on the way.  `down_constraint_rows`, `down_operator_rows` and
`hit_generator_rows` apply the operators to every monomial as polynomials;
no computation here calls them, and they stay as the reference the tests
compare the stacks with.

The D_k and the P_lambda commute with permuting the variables, so the
kernel of a slice's rows M is S_n-stable: the D_k rows of a harmonic slice,
the generator images (P_k . m, or P_lambda . h) of a hit or truncated-hit
slice read as functionals.  `isotypic`'s `stable_kernel` and `stable_span`
solve them.  Past the middle of the classical harmonic range, 4d > n(n-1),
ker M is small next to the slice and comes from the S_n-isotypic blocks:
the kernel of each M . B_lam, lifted through B_lam and spread over the
standard tableaux of shape lam.  Harmonics are the reduced echelon form of
that spread, hits its orthogonal complement under the standard dot
product.  The B_lam must cover the slice (sum of f_lam |B_lam| is
C(n+d-1, d)) and the spread must have rank sum of f_lam dim ker(M . B_lam),
which is dim ker M, or the slice function raises AssertionError.  A full
slice has full blocks, each certified by linalg's mod-p rank, and an empty
spread.  Up to the middle the blocks cost more than the whole-slice
elimination (`linalg.slice_span`, `linalg.slice_kernel`), which runs there.
The reduced echelon basis of a space is unique, so both routes give the
same bytes.

A dimension or a character needs no basis.  `block_multiplicities` counts
the copies of each irreducible S^lam in a harm or hit slice from the
integer matrices of the generating D_k, or of the P_k transposed
(`rule_stacks`, built by the monomial rules with no polynomial or rational
function in between), as the certified ranks of their S_n-isotypic blocks
(`isotypic.block_ranks`), and `block_dimension` sums f_lam times them: the
hit dimension is the rank of the stacked P_k^T, the harm dimension the
slice size less that of the stacked D_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Sequence

from .isotypic import block_ranks, blocks, pivot_rows, stable_kernel, stable_span
from .linalg import (
    SparseIntRow,
    SparseRFRow,
    rf_rows_to_int,
    slice_images,
    slice_kernel,
    slice_rows,
    slice_span,
    transpose,
)
from .polynomials import (
    Monomial,
    Polynomial,
    factorial_weight,
    monomials_of_degree,
)
from .scalars import QParam, RationalFunction, as_rf
from .steenrod import (
    Partition,
    apply_dk,
    apply_p_lambda,
    apply_pk,
    partitions_of,
    rule_stack,
)


@dataclass(frozen=True)
class GradedSubspace:
    """An echelonized basis of one homogeneous degree slice."""

    n: int
    degree: int
    basis: tuple[Polynomial, ...]

    @staticmethod
    def from_spanning(n: int, degree: int, polys) -> "GradedSubspace":
        basis = slice_span(rf_rows_to_int(slice_rows(polys, n, degree)), n, degree)
        return GradedSubspace(n, degree, tuple(basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def leading_monomials(self) -> set[Monomial]:
        return {p.leading_monomial() for p in self.basis}

    def contains(self, p: Polynomial) -> bool:
        return self.coordinates(p) is not None

    def coordinates(self, p: Polynomial) -> list[RationalFunction] | None:
        """Coordinates of p over an echelon basis with unit leading
        coefficients, or None if p is outside the span."""
        coords = []
        rem = p
        for b in self.basis:
            c = rem.coefficient(b.leading_monomial())
            coords.append(c)
            if c:
                rem = rem - b.scale(c)
        return None if rem else coords

    def __iter__(self):
        return iter(self.basis)


def full_component(n: int, d: int) -> GradedSubspace:
    """The whole degree-d slice of the polynomial ring."""
    basis = tuple(Polynomial.monomial(n, m) for m in monomials_of_degree(n, d))
    return GradedSubspace(n, d, basis)


def generating_degrees(n: int, q: QParam) -> tuple[int, ...]:
    """Degrees k of the P_k (and D_k) that generate the operator algebra.

    P_1 and P_2 generate it when q is nonzero or formal; at q = 0 one needs
    the first n power sums.  Hit slices are spanned by the images of these
    P_k, harmonic slices cut out by these D_k.
    """
    if q.is_zero:
        return tuple(range(1, n + 1))
    return (1, 2)


def hit_generator_rows(n: int, d: int, q: QParam) -> list[SparseRFRow]:
    """The images P_k . m of the generating P_k, P_1 before P_2, on degree d.

    The images of the other P_k lie in their span (see the module docstring).
    The polynomial reference for the hit `rule_stacks`; `hit_component` does
    not call it.
    """
    rows: list[SparseRFRow] = []
    for k in generating_degrees(n, q):
        if k > d:
            continue
        rows.extend(slice_images(partial(apply_pk, k=k, q=q), n, d - k, k))
    return rows


def down_constraint_rows(
    n: int, d: int, q: QParam, degrees: Sequence[int]
) -> list[SparseRFRow]:
    """Stacked matrix of the down operators D_k, k in degrees, on degree d.

    The rows of each `down_operator_rows` with k <= d, zero rows dropped.
    The joint kernel is the harmonic slice.  The polynomial reference for the
    harm `rule_stacks`; `harm_component` does not call it.
    """
    rows: list[SparseRFRow] = []
    for k in degrees:
        if k <= d:
            rows.extend(r for r in down_operator_rows(n, d, q, k) if r)
    return rows


def down_operator_rows(n: int, d: int, q: QParam, k: int) -> list[SparseRFRow]:
    """Matrix of D_k on the degree-d slice, k <= d, zero rows kept.

    Row i is the i-th monomial of degree d - k, indexed over the degree-d
    monomials.  The polynomial reference for `steenrod.rule_stack`.
    """
    images = slice_images(partial(apply_dk, k=k, q=q), n, d, -k)
    return transpose(images, len(monomials_of_degree(n, d - k)))


def rule_stacks(
    kind: str, n: int, d: int, q: QParam, degrees: Sequence[int] | None = None
) -> dict[int, list[SparseIntRow]]:
    """The integer stacks whose rank counts a harm or hit slice, by degree k.

    For harm, the matrix of each D_k on the degree-d slice (its kernel is
    the slice); for hit, each P_k transposed (its row space is the slice):
    `steenrod.rule_stack` for k in degrees (default `generating_degrees`),
    k <= d, zero rows kept, as `isotypic.pivot_rows` needs.
    """
    if degrees is None:
        degrees = generating_degrees(n, q)
    return {k: rule_stack(n, d, k, q, kind == "harm") for k in degrees if k <= d}


def block_multiplicities(kind: str, n: int, d: int, q: QParam) -> dict[Partition, int]:
    """How often each S^lam occurs in the degree-d harm or hit slice at q,
    by partition lam of n, with no basis.

    The stacked `rule_stacks` M split into the certified blocks M_lam
    (`isotypic.block_ranks`).  The hit slice is the row space of M, the
    orthogonal complement of ker M under the S_n-invariant dot product, so
    as a module it is V_d / ker M: S^lam occurs rank M_lam times.  The harm
    slice is ker M, and the B_lam cover the slice: nc_lam - rank M_lam.
    """
    ranks = block_ranks(rule_stacks(kind, n, d, q), n, d)
    if kind == "hit":
        return {lam: rank for lam, _, _, rank in ranks}
    return {lam: ncols - rank for lam, _, ncols, rank in ranks}


def block_dimension(kind: str, n: int, d: int, q: QParam) -> int:
    """Dimension of the degree-d harm or hit slice at q, with no basis:
    sum of f_lam times the `block_multiplicities`."""
    mult = block_multiplicities(kind, n, d, q)
    return sum(f * mult[lam] for lam, f in blocks(n))


def _stack_slice(solve, kind: str, n: int, d: int, q: QParam) -> GradedSubspace:
    """The harm or hit slice by `solve` (`stable_kernel` or `stable_span`) on
    the `rule_stacks`, each S_n-block on its `pivot_rows`."""
    stacks = rule_stacks(kind, n, d, q)
    rows = [row for stack in stacks.values() for row in stack]
    basis = solve(rows, n, d, partial(pivot_rows, stacks, n, d))
    return GradedSubspace(n, d, tuple(basis))


def hit_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Degree-d slice of the hit polynomials at the given q: the row space of
    the stacked P_k transposed."""
    return _stack_slice(stable_span, "hit", n, d, q)


# The harm cache is bounded above the traffic of one whole tier-1 test
# session (359 distinct keys), which also covers the benchmark commands and
# four more, each cold (152 harm slices).  The truncated-hit bound covers
# those commands (17 slices).  Hit slices are not cached: none of those
# commands asks for one twice.
@lru_cache(maxsize=512)
def harm_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Degree-d slice of the harmonic polynomials at the given q: the joint
    kernel of the stacked D_k."""
    return _stack_slice(stable_kernel, "harm", n, d, q)


def weighted_complement(v: GradedSubspace) -> GradedSubspace:
    """Orthogonal complement of v in its degree slice under the K! product.

    w is orthogonal to v exactly when it is in the kernel of the basis rows
    of v scaled column by column by the weight K! of the column's monomial.
    """
    n, d = v.n, v.degree
    weights = [as_rf(factorial_weight(m)) for m in monomials_of_degree(n, d)]
    rows = [
        {j: c * weights[j] for j, c in row.items()}
        for row in slice_rows(v.basis, n, d)
    ]
    return GradedSubspace(n, d, tuple(slice_kernel(rf_rows_to_int(rows), n, d)))


def truncated_hit_rows(n: int, d: int, q: QParam) -> list[SparseIntRow]:
    """The generators P_lambda . h of the truncated hits on degree d, as
    integer rows.

    lambda runs over the partitions of length <= n and h over the classical
    harmonics of degree d - |lambda|.
    """
    generators: list[Polynomial] = []
    for weight in range(1, d + 1):
        harmonics = harm_component(n, d - weight, QParam.rational(0))
        if harmonics.dim == 0:
            continue
        for lam in partitions_of(weight, max_length=n):
            for h in harmonics.basis:
                generators.append(apply_p_lambda(h, lam, q))
    return rf_rows_to_int(slice_rows(generators, n, d))


@lru_cache(maxsize=64)
def truncated_hit_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Span of P_lambda . h over length(lambda) <= n and classical harmonics h.

    The generators are not a stack of maps V_d -> V_{d-k}, so each S_n-block
    is solved on all of their rows.
    """
    rows = truncated_hit_rows(n, d, q)
    return GradedSubspace(n, d, tuple(stable_span(rows, n, d, lambda lam: rows)))


def truncated_harm_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Orthogonal complement of the truncated hits under the K! product."""
    return weighted_complement(truncated_hit_component(n, d, q))


# The computed graded families: kind -> builder of the degree-d slice at q.
# Each builder is looked up when called, so a wrapper later bound to its
# module name (a tracer, a test's monkeypatch) sees every call.
COMPONENTS = {
    "harm": lambda n, d, q: harm_component(n, d, q),
    "hit": lambda n, d, q: hit_component(n, d, q),
    "tqharm": lambda n, d, q: truncated_harm_component(n, d, q),
    "tqhit": lambda n, d, q: truncated_hit_component(n, d, q),
}


@dataclass(frozen=True)
class HilbertSeries:
    """Per-degree dimensions up to a cap, compared entrywise."""

    coefficients: tuple[int, ...]
    cap: int

    def __getitem__(self, d: int) -> int:
        return self.coefficients[d] if 0 <= d <= self.cap else 0


def _poly_series_product(factors: list[list[int]], cap: int) -> list[int]:
    acc = [1]
    for f in factors:
        out = [0] * min(len(acc) + len(f) - 1, cap + 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(f):
                if i + j <= cap:
                    out[i + j] += a * b
        acc = out
    acc += [0] * (cap + 1 - len(acc))
    return acc[: cap + 1]


def classical_harm_hilbert(n: int, cap: int | None = None) -> HilbertSeries:
    """Coefficients of (1+t)(1+t+t^2)...(1+...+t^(n-1))."""
    top = n * (n - 1) // 2
    cap = top if cap is None else cap
    factors = [[1] * i for i in range(2, n + 1)]
    return HilbertSeries(tuple(_poly_series_product(factors, cap)), cap)


def polynomial_ring_hilbert(n: int, cap: int) -> HilbertSeries:
    from math import comb

    return HilbertSeries(tuple(comb(n - 1 + d, n - 1) for d in range(cap + 1)), cap)


def symmetric_hilbert(n: int, cap: int) -> HilbertSeries:
    """Dimensions of symmetric polynomials: partitions with parts <= n."""
    coeffs = tuple(
        sum(1 for _ in partitions_of(d, max_part=n)) for d in range(cap + 1)
    )
    return HilbertSeries(coeffs, cap)


def partition_hilbert(cap: int) -> HilbertSeries:
    coeffs = tuple(sum(1 for _ in partitions_of(d)) for d in range(cap + 1))
    return HilbertSeries(coeffs, cap)


HILBERT_KINDS = ("polynomials", "sym", "classical-harm", "partitions", *COMPONENTS)
# The families in COMPONENTS whose dimensions `block_dimension` counts.
RANKED_KINDS = ("harm", "hit")


def hilbert_of(kind: str, n: int, cap: int) -> HilbertSeries:
    """Hilbert series of a graded family with a closed form."""
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if kind == "polynomials":
        return polynomial_ring_hilbert(n, cap)
    if kind == "sym":
        return symmetric_hilbert(n, cap)
    if kind == "classical-harm":
        return classical_harm_hilbert(n, cap)
    if kind == "partitions":
        return partition_hilbert(cap)
    raise ValueError(f"no closed-form Hilbert series for kind {kind!r}")


@dataclass(frozen=True)
class StaircaseSet:
    """Exponent vectors with k_i <= n - i; exactly n! of them."""

    n: int

    def contains(self, mono: Monomial) -> bool:
        return all(e <= self.n - i - 1 for i, e in enumerate(mono))

    def monomials(self) -> list[Monomial]:
        ranges = [range(self.n - i) for i in range(self.n)]
        return sorted(iter_product(*ranges), reverse=True)

    def of_degree(self, d: int) -> set[Monomial]:
        return {m for m in self.monomials() if sum(m) == d}


@dataclass(frozen=True)
class StaircaseDegreeReport:
    degree: int
    harm_leading: frozenset
    hit_leading: frozenset
    harm_inside_staircase: bool
    hit_inside_complement: bool
    disjoint: bool
    union_exact: bool


@dataclass(frozen=True)
class StaircaseReport:
    n: int
    cap: int
    q: QParam
    degrees: tuple[StaircaseDegreeReport, ...]


def staircase_degree(harm: GradedSubspace, hit: GradedSubspace) -> StaircaseDegreeReport:
    """Compare the leading monomials of one Harm/Hit slice pair with the staircase.

    The per-space inclusions can fail while dimensions still match (leading
    sets of complementary spaces may overlap), so exactness is judged on the
    union over the full degree, not per space.
    """
    n, d = harm.n, harm.degree
    harm_lead = frozenset(harm.leading_monomials())
    hit_lead = frozenset(hit.leading_monomials())
    all_monos = set(monomials_of_degree(n, d))
    stair_d = StaircaseSet(n).of_degree(d)
    return StaircaseDegreeReport(
        degree=d,
        harm_leading=harm_lead,
        hit_leading=hit_lead,
        harm_inside_staircase=harm_lead <= stair_d,
        hit_inside_complement=hit_lead <= (all_monos - stair_d),
        disjoint=not (harm_lead & hit_lead),
        union_exact=(harm_lead | hit_lead) == all_monos
        and not (harm_lead & hit_lead),
    )


def staircase_report(n: int, cap: int, q: QParam) -> StaircaseReport:
    """`staircase_degree` in every degree up to the cap."""
    rows = tuple(
        staircase_degree(harm_component(n, d, q), hit_component(n, d, q))
        for d in range(cap + 1)
    )
    return StaircaseReport(n, cap, q, rows)
