"""Strings: encoding a harmonic in n+1 variables by its y-expansion.

A homogeneous g in n variables generates the sequence f_0 = g and
f_i = -D_i . g where D_i is the down operator of degree i.  The string is
harmonic when D_1 . f_i = -(1 + q i) f_{i+1} for all i; the relations for
every k then follow from the commutators, which the tests exercise.  The
polynomial sum f_i y^i / i! with y = x_{n+1} is harmonic in n+1 variables
exactly when the string is harmonic, so strings move harmonics one variable
up and down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ClassificationError, InhomogeneousError
from .polynomials import Polynomial
from .scalars import QParam
from .spaces import GradedSubspace, harm_component
from .steenrod import apply_dk


@dataclass(frozen=True)
class HarmonicString:
    """A candidate y-expansion (f_0, f_1, ...) of a harmonic in n+1 variables."""

    n: int
    q: QParam
    entries: tuple[Polynomial, ...]

    @property
    def length(self) -> int:
        """1 + the largest index with nonzero entry; 0 for the zero string."""
        top = -1
        for i, f in enumerate(self.entries):
            if f:
                top = i
        return top + 1

    @property
    def head(self) -> Polynomial:
        """The last nonzero entry."""
        if self.length == 0:
            return Polynomial.zero(self.n)
        return self.entries[self.length - 1]


def build_string(g: Polynomial, q: QParam) -> HarmonicString:
    """The string generated by g: f_0 = g, f_i = -D_i . g for i > 0."""
    if not g.is_homogeneous():
        raise InhomogeneousError("strings are generated by homogeneous polynomials")
    d = max(g.degree(), 0)
    entries = [g]
    for i in range(1, d + 1):
        entries.append(-apply_dk(g, i, q))
    return HarmonicString(g.n, q, tuple(entries))


def string_relation_holds(F: HarmonicString, k: int) -> bool:
    """Check D_k . f_i = -(1 + q i) f_{i+k} for all i (a single k)."""
    qs = F.q.scalar()
    entries = F.entries
    for i in range(len(entries)):
        lhs = apply_dk(entries[i], k, F.q)
        j = i + k
        target = entries[j] if j < len(entries) else Polynomial.zero(F.n)
        rhs = target.scale(-(1 + qs * i))
        if lhs != rhs:
            return False
    return True


def is_harmonic_string(F: HarmonicString) -> bool:
    """Harmonicity via the k = 1 reduction of the defining relations."""
    return string_relation_holds(F, 1)


def string_to_polynomial(F: HarmonicString) -> Polynomial:
    """The polynomial sum_i f_i(X) y^i / i! in n+1 variables, y = x_{n+1}."""
    n1 = F.n + 1
    out = Polynomial.zero(n1)
    for i, f in enumerate(F.entries):
        if not f:
            continue
        lifted = Polynomial(
            n1, {mono + (i,): c for mono, c in f.terms.items()}
        ).scale(Fraction(1, math.factorial(i)))
        out = out + lifted
    return out


def y_degree(f: Polynomial) -> int:
    """Degree in the last variable; -1 for the zero polynomial."""
    if not f:
        return -1
    return max(m[-1] for m in f.terms)


def coefficient_slice(f: Polynomial, d: int) -> Polynomial:
    """Coefficient of y^d (y the last variable), as a polynomial in n-1 variables."""
    if y_degree(f) > d:
        raise ValueError(
            f"polynomial has degree {y_degree(f)} > {d} in the last variable"
        )
    return Polynomial(
        f.n - 1,
        {mono[:-1]: c for mono, c in f.terms.items() if mono[-1] == d},
    )


def polynomial_to_string(f: Polynomial, q: QParam) -> HarmonicString:
    """Inverse of string_to_polynomial: read the y-expansion off f."""
    n = f.n - 1
    top = max(y_degree(f), 0)
    entries = []
    for i in range(top + 1):
        coeff = Polynomial(
            n, {mono[:-1]: c for mono, c in f.terms.items() if mono[-1] == i}
        )
        entries.append(coeff.scale(math.factorial(i)))
    return HarmonicString(n, q, tuple(entries))


def divided_power(n: int, i: int, d: int) -> Polynomial:
    """The divided power x_i^d / d!."""
    exps = tuple(d if j == i - 1 else 0 for j in range(n))
    return Polynomial.monomial(n, exps, Fraction(1, math.factorial(d)))


def two_variable_extra_line(d: int) -> Polynomial:
    """(x1 - x2)(x1 + x2)^(d-1), the extra harmonic at q = -2/d."""
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    return (x1 - x2) * (x1 + x2) ** (d - 1)


def two_variable_harmonics(q: QParam, cap: int) -> dict[int, GradedSubspace]:
    """Harmonics in two variables per degree, checked against the closed form.

    Generic: the constants and the line of x1 - x2.  When q = -2/d for an
    integer d >= 2, one extra line (x1 - x2)(x1 + x2)^(d-1) appears in
    degree d.  A mismatch between the computed spaces and this
    classification raises ClassificationError.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    out: dict[int, GradedSubspace] = {}
    for d in range(cap + 1):
        space = harm_component(2, d, q)
        out[d] = space
        expected_extra = (
            not q.is_formal
            and d >= 2
            and q.value == Fraction(-2, d)
        )
        if d == 0 or d == 1:
            expected_dim = 1
        else:
            expected_dim = 1 if expected_extra else 0
        if space.dim != expected_dim:
            raise ClassificationError(
                f"degree {d}: computed dim {space.dim}, classification says "
                f"{expected_dim} at q = {q}"
            )
        if expected_extra:
            extra = two_variable_extra_line(d)
            if not space.contains(extra):
                raise ClassificationError(
                    f"degree {d}: (x1-x2)(x1+x2)^{d - 1} missing at q = {q}"
                )
    return out


def string_length_survey(
    n: int, q: QParam, cap: int
) -> list[tuple[int, int, int, int]]:
    """Harmonic strings seeded from each harmonic degree slice.

    Returns one row (degree, seeds, harmonic_count, max_length) per degree;
    exploratory output, nothing here is asserted.
    """
    rows = []
    for d in range(cap + 1):
        seeds = harm_component(n, d, q).basis
        lengths = []
        for g in seeds:
            F = build_string(g, q)
            if is_harmonic_string(F):
                lengths.append(F.length)
        rows.append((d, len(seeds), len(lengths), max(lengths, default=0)))
    return rows
