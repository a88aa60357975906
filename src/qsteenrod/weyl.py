"""The Weyl algebra on n variables in standard form.

Elements are sums of standard monomials x^K d^L (all variables to the left of
all derivatives) with coefficients in Q(q).  A `WeylElement` is the sparse-term
core of `polynomials` keyed by exponent pairs (K, L); only its product, the
composition, is its own.  Composition normal-orders via
the closed one-variable rule

    d^b x^c = sum_j  C(b, j) C(c, j) j!  x^(c-j) d^(b-j),

applied independently per variable, which is exact and avoids term-by-term
bubbling.  The grading of x^K d^L is deg K - ord L; the order is ord L; an
element lies in filtration k if its maximal order is at most k.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable

from .errors import VariableCountMismatchError
from .polynomials import Monomial, Polynomial, _is_exponents, _power_factors, _SparseTerms
from .scalars import RF_ONE, RF_ZERO, RationalFunction

WeylKey = tuple[Monomial, Monomial]


@lru_cache(maxsize=1024)  # every exponent pair (b, c) below 32
def _reorder_coeffs(b: int, c: int) -> tuple[int, ...]:
    """Coefficients of d^b x^c by the number of contractions j."""
    return tuple(
        math.comb(b, j) * math.comb(c, j) * math.factorial(j)
        for j in range(min(b, c) + 1)
    )


class WeylElement(_SparseTerms):
    """A finite sum of standard monomials x^K d^L over Q(q)."""

    __slots__ = ()

    @staticmethod
    def _fits(key: WeylKey, n: int) -> bool:
        return type(key) is tuple and len(key) == 2 and all(
            _is_exponents(part, n) for part in key
        )

    @staticmethod
    def _factors(key: WeylKey) -> list[str]:
        xs, ds = key
        return _power_factors("x", xs) + _power_factors("d", ds)

    @staticmethod
    def identity(n: int) -> "WeylElement":
        z = (0,) * n
        return WeylElement(n, {(z, z): RF_ONE})

    @staticmethod
    def variable(n: int, i: int) -> "WeylElement":
        """Multiplication by x_i (1-based)."""
        z = (0,) * n
        xs = tuple(1 if j == i - 1 else 0 for j in range(n))
        return WeylElement(n, {(xs, z): RF_ONE})

    @staticmethod
    def derivative(n: int, i: int) -> "WeylElement":
        """The partial derivative with respect to x_i (1-based)."""
        z = (0,) * n
        ds = tuple(1 if j == i - 1 else 0 for j in range(n))
        return WeylElement(n, {(z, ds): RF_ONE})

    @staticmethod
    def monomial(n: int, xs: Iterable[int], ds: Iterable[int], coeff=RF_ONE) -> "WeylElement":
        return WeylElement(n, {(tuple(xs), tuple(ds)): coeff})

    @staticmethod
    def from_polynomial(p: Polynomial) -> "WeylElement":
        """The multiplication operator by p."""
        z = (0,) * p.n
        return WeylElement(p.n, {(m, z): c for m, c in p.terms.items()})

    def __mul__(self, other) -> "WeylElement":
        if isinstance(other, WeylElement):
            return weyl_compose(self, other)
        return self.scale(other)

    def order(self) -> int:
        """Maximal derivative order of a term (filtration level); -1 if zero."""
        if not self.terms:
            return -1
        return max(sum(ds) for _, ds in self.terms)

    def gradings(self) -> set[int]:
        return {sum(xs) - sum(ds) for xs, ds in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.gradings()) <= 1

    def grading(self) -> int:
        gs = self.gradings()
        if len(gs) > 1:
            raise ValueError(f"element has mixed gradings {sorted(gs)}")
        return gs.pop() if gs else 0

    def top_filtration_part(self) -> "WeylElement":
        """The terms of maximal derivative order."""
        if not self.terms:
            return self
        top = self.order()
        return WeylElement(
            self.n, {k: c for k, c in self.terms.items() if sum(k[1]) == top}
        )


def weyl_compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """Composition product, normal-ordered back to standard monomials."""
    a._check(b)
    n = a.n
    terms: dict[WeylKey, RationalFunction] = {}
    for (k1, l1), c1 in a.terms.items():
        for (k2, l2), c2 in b.terms.items():
            base = c1 * c2
            ranges = [
                _reorder_coeffs(l1[i], k2[i]) for i in range(n)
            ]
            for js in product(*(range(len(r)) for r in ranges)):
                factor = 1
                for i, j in enumerate(js):
                    factor *= ranges[i][j]
                xs = tuple(k1[i] + k2[i] - js[i] for i in range(n))
                ds = tuple(l1[i] + l2[i] - js[i] for i in range(n))
                acc = terms.get((xs, ds), RF_ZERO) + base * factor
                if acc:
                    terms[(xs, ds)] = acc
                else:
                    terms.pop((xs, ds), None)
    return WeylElement._wrap(n, terms)


def weyl_apply(f: WeylElement, p: Polynomial) -> Polynomial:
    """Act by f on the polynomial p (derivatives first, then multiplication)."""
    if f.n != p.n:
        raise VariableCountMismatchError(
            f"operator in {f.n} variables applied to polynomial in {p.n}"
        )
    n = f.n
    terms: dict[Monomial, RationalFunction] = {}
    for (xs, ds), coeff in f.terms.items():
        for mono, pc in p.terms.items():
            factor = 1
            for i in range(n):
                m, l = mono[i], ds[i]
                if m < l:
                    factor = 0
                    break
                for s in range(l):
                    factor *= m - s
            if factor == 0:
                continue
            target = tuple(mono[i] - ds[i] + xs[i] for i in range(n))
            acc = terms.get(target, RF_ZERO) + coeff * pc * factor
            if acc:
                terms[target] = acc
            else:
                terms.pop(target, None)
    return Polynomial._wrap(n, terms)


def weyl_dual(f: WeylElement) -> WeylElement:
    """The dual operator: x^K d^L maps to x^L d^K (coefficients unchanged)."""
    return WeylElement(f.n, {(ds, xs): c for (xs, ds), c in f.terms.items()})


def weyl_wedge(a: WeylElement, b: WeylElement) -> WeylElement:
    """Formal product with derivatives commuting past variables.

    x^K d^L wedge x^M d^N = x^(K+M) d^(L+N); this is the top-filtration part
    of the composition product.
    """
    a._check(b)
    n = a.n
    terms: dict[WeylKey, RationalFunction] = {}
    for (k1, l1), c1 in a.terms.items():
        for (k2, l2), c2 in b.terms.items():
            xs = tuple(k1[i] + k2[i] for i in range(n))
            ds = tuple(l1[i] + l2[i] for i in range(n))
            acc = terms.get((xs, ds), RF_ZERO) + c1 * c2
            if acc:
                terms[(xs, ds)] = acc
            else:
                terms.pop((xs, ds), None)
    return WeylElement(n, terms)


def orbit_sum(m, n: int | None = None):
    """Sum of the distinct images of a monomial under variable permutations.

    Accepts a one-term WeylElement or Polynomial; returns the same kind, in
    n variables (default m.n) with the key padded by zero exponents.  Each
    distinct orbit element appears with coefficient 1 times the input
    coefficient.
    """
    if not isinstance(m, (Polynomial, WeylElement)):
        raise TypeError(f"cannot take an orbit sum of {type(m).__name__}")
    if len(m.terms) != 1:
        raise ValueError(f"orbit sum of a {type(m).__name__} needs a single monomial")
    size = n or m.n
    (key, coeff), = m.terms.items()
    # a key as its exponent vectors: (mono,) for a polynomial, (xs, ds) else
    flat = isinstance(m, Polynomial)
    vectors = [v + (0,) * (size - len(v)) for v in ((key,) if flat else key)]
    images = {
        tuple(tuple(v[j] for j in perm) for v in vectors)
        for perm in permutations(range(size))
    }
    return type(m)(size, {image[0] if flat else image: coeff for image in images})


def steenrod_square(n: int, k: int) -> WeylElement:
    """The derivation sum x_i^(k+1) d_i on n variables."""
    terms: dict[WeylKey, RationalFunction] = {}
    for i in range(n):
        xs = tuple(k + 1 if j == i else 0 for j in range(n))
        ds = tuple(1 if j == i else 0 for j in range(n))
        terms[(xs, ds)] = RF_ONE
    return WeylElement(n, terms)
