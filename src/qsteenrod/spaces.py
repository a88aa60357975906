"""Graded hit and harmonic spaces, their truncated variants, Hilbert series.

For a fixed q, the degree-d hit space is spanned by the images P_k . m over
1 <= k <= d and monomials m of degree d - k; the harmonic space is the joint
kernel of the down operators D_k on degree d.  Two down operators suffice
when q is nonzero or formal (P_1 and P_2 generate); at q = 0 the generators
are the first n power sums.  Harmonics are also the orthogonal complement of
the hits under the factorial-weighted scalar product, which the test suite
cross-checks degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Sequence

from .errors import InhomogeneousError
from .linalg import (
    SparseRFRow,
    echelonize,
    null_space,
    reduced_echelon,
    rf_rows_to_int,
    row_to_poly,
    slice_images,
    transpose,
    weighted_complement as _complement,
)
from .polynomials import (
    Monomial,
    Polynomial,
    factorial_weight,
    monomials_of_degree,
)
from .scalars import QParam, RationalFunction
from .steenrod import dual_pk, make_pk, make_p_lambda, partitions_of
from .weyl import weyl_apply


@dataclass(frozen=True)
class GradedSubspace:
    """An echelonized basis of one homogeneous degree slice."""

    n: int
    degree: int
    basis: tuple[Polynomial, ...]
    order: str = "lex"

    @staticmethod
    def from_spanning(n: int, degree: int, polys) -> "GradedSubspace":
        for p in polys:
            if p and (p.n != n or p.homogeneous_degree() != degree):
                raise InhomogeneousError(
                    f"spanning set does not sit in degree {degree} of {n} variables"
                )
        return GradedSubspace(n, degree, tuple(echelonize(list(polys))))

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


def harm_generator_degrees(n: int, q: QParam) -> tuple[int, ...]:
    """Degrees of the down operators that cut out the harmonic space.

    P_1 and P_2 generate the whole operator algebra when q is nonzero or
    formal; at q = 0 one needs the first n power sums.
    """
    if q.is_zero:
        return tuple(range(1, n + 1))
    return (1, 2)


@lru_cache(maxsize=None)
def hit_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Degree-d slice of the hit polynomials at the given q."""
    rows: list[SparseRFRow] = []
    for k in range(1, d + 1):
        rows.extend(slice_images(partial(weyl_apply, make_pk(n, k, q)), n, d - k, k))
    columns = monomials_of_degree(n, d)
    _, reduced = reduced_echelon(rf_rows_to_int(rows), len(columns))
    return GradedSubspace(n, d, tuple(row_to_poly(r, n, columns) for r in reduced))


def down_constraint_rows(
    n: int, d: int, q: QParam, degrees: Sequence[int]
) -> list[SparseRFRow]:
    """Stacked matrix of the down operators D_k, k in degrees, on degree d.

    One row per monomial of degree d - k, indexed over the degree-d monomials;
    zero rows are dropped.  The joint kernel is the harmonic slice.
    """
    rows: list[SparseRFRow] = []
    for k in degrees:
        if k > d:
            continue
        images = slice_images(partial(weyl_apply, dual_pk(n, k, q)), n, d, -k)
        targets = len(monomials_of_degree(n, d - k))
        rows.extend(r for r in transpose(images, targets) if r)
    return rows


@lru_cache(maxsize=None)
def harm_component(
    n: int, d: int, q: QParam, generator_degrees: tuple[int, ...] | None = None
) -> GradedSubspace:
    """Degree-d slice of the harmonic polynomials at the given q."""
    degrees = generator_degrees or harm_generator_degrees(n, q)
    columns = monomials_of_degree(n, d)
    rows = down_constraint_rows(n, d, q, degrees)
    vecs = null_space(rf_rows_to_int(rows), len(columns))
    return GradedSubspace(n, d, tuple(row_to_poly(v, n, columns) for v in vecs))


def weighted_complement(v: GradedSubspace, weights=factorial_weight) -> GradedSubspace:
    """Orthogonal complement of v in its degree slice (default weights K!)."""
    polys = _complement(list(v.basis), v.n, v.degree, weights)
    return GradedSubspace(v.n, v.degree, tuple(polys))


@lru_cache(maxsize=None)
def truncated_hit_component(n: int, d: int, q: QParam) -> GradedSubspace:
    """Span of P_lambda . h over length(lambda) <= n and classical harmonics h."""
    generators: list[Polynomial] = []
    for weight in range(1, d + 1):
        harmonics = harm_component(n, d - weight, QParam.rational(0))
        if harmonics.dim == 0:
            continue
        for lam in partitions_of(weight, max_length=n):
            op = make_p_lambda(n, lam, q)
            for h in harmonics.basis:
                generators.append(weyl_apply(op, h))
    return GradedSubspace(n, d, tuple(echelonize(generators)))


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

    def dominates(self, other: "HilbertSeries") -> bool:
        cap = min(self.cap, other.cap)
        return all(self[d] >= other[d] for d in range(cap + 1))

    def truncated(self, cap: int) -> "HilbertSeries":
        return HilbertSeries(tuple(self[d] for d in range(cap + 1)), cap)

    def __mul__(self, other: "HilbertSeries") -> "HilbertSeries":
        cap = min(self.cap, other.cap)
        coeffs = tuple(
            sum(self[i] * other[d - i] for i in range(d + 1)) for d in range(cap + 1)
        )
        return HilbertSeries(coeffs, cap)


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


HILBERT_KINDS = (
    "polynomials",
    "sym",
    "classical-harm",
    "partitions",
    "harm",
    "hit",
    "tqharm",
    "tqhit",
)


def hilbert_of(kind: str, n: int, cap: int, q: QParam | None = None) -> HilbertSeries:
    """Hilbert series of a graded family, computed or in closed form."""
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
    if q is None:
        raise ValueError(f"kind {kind!r} needs a q parameter")
    if kind not in COMPONENTS:
        raise ValueError(f"unknown Hilbert series kind {kind!r}")
    build = COMPONENTS[kind]
    return HilbertSeries(
        tuple(build(n, d, q).dim for d in range(cap + 1)), cap
    )


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
