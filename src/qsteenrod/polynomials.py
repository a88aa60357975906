"""Sparse multivariate polynomials over Q(q), on a shared sparse-term core.

`_SparseTerms` is a sparse map from exponent keys on n variables to nonzero
scalars in Q(q), with the linear structure, equality and printing written
once; `Polynomial` (keys: exponent tuples) and `weyl.WeylElement` (keys:
pairs of exponent tuples) differ only in which keys fit and how a key
prints, plus their own products.

Monomials are exponent tuples of fixed length n; the monomial order is
lexicographic with x1 > x2 > ... > xn, which for same-length tuples is plain
tuple comparison.  The scalar product used throughout weighs the monomial
x^K against itself by K! = k1! k2! ... kn!.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable

from .errors import InhomogeneousError, VariableCountMismatchError
from .scalars import RF_ONE, RF_ZERO, RationalFunction, _coerce, as_rf

Monomial = tuple[int, ...]


def monomials_of_degree(n: int, d: int) -> list[Monomial]:
    """All exponent vectors of total degree d, in descending lex order."""
    return list(_monomials(n, d))


# One entry per slice (n, d); `hilbert --kind harm -n 6 -d 15`, the widest
# command README times, reads 16 of them, and the test suite fewer than 150.
@lru_cache(maxsize=256)
def _monomials(n: int, d: int) -> tuple[Monomial, ...]:
    if d < 0:
        return ()
    if n == 0:
        return ((),) if d == 0 else ()
    out: list[Monomial] = []

    def rec(prefix: tuple[int, ...], left: int, k: int) -> None:
        if k == 1:
            out.append(prefix + (left,))
            return
        for e in range(left, -1, -1):
            rec(prefix + (e,), left - e, k - 1)

    rec((), d, n)
    return tuple(out)


def _is_exponents(key, n: int) -> bool:
    """Whether key is an exponent vector on n variables: n non-negative ints."""
    return type(key) is tuple and len(key) == n and all(
        type(e) is int and e >= 0 for e in key
    )


def _power_factors(var: str, exps: Monomial) -> list[str]:
    """Printed factors var_i^e of an exponent vector, one per nonzero e."""
    return [
        f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}"
        for i, e in enumerate(exps)
        if e
    ]


class _SparseTerms:
    """A sparse Q(q)-linear combination of exponent keys on n variables.

    `terms` maps keys to nonzero scalars.  A subclass fixes the keys by two
    hooks: `_fits(key, n)` says whether a key belongs to n variables, and
    `_factors(key)` lists the printed factors of its monomial.  The
    constructor rejects a key that does not fit and embeds int and Fraction
    coefficients; any other coefficient type raises `TypeError`.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not self._fits(key, n):
                    raise VariableCountMismatchError(
                        f"exponent key {key!r} does not fit {n} variables"
                    )
                if type(coeff) is not RationalFunction:
                    coeff = as_rf(coeff)
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    @staticmethod
    def _fits(key, n: int) -> bool:
        raise NotImplementedError

    @staticmethod
    def _factors(key) -> list[str]:
        raise NotImplementedError

    @classmethod
    def _wrap(cls, n: int, terms: dict):
        """An element over terms already known to fit n and to have no zeros."""
        out = cls.__new__(cls)
        out.n, out.terms = n, terms
        return out

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def _check(self, other: "_SparseTerms") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.n != other.n:
            raise VariableCountMismatchError(
                f"operands in {self.n} and {other.n} variables"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = terms.get(key, RF_ZERO) + coeff
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
        return self._wrap(self.n, terms)

    def __neg__(self):
        return self._wrap(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        c = _coerce(scalar)
        if c is NotImplemented:
            return NotImplemented
        if not c:
            return self.zero(self.n)
        return self._wrap(self.n, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            body = "*".join(self._factors(key))
            cs = str(coeff)
            if body:
                if cs == "1":
                    text = body
                elif cs == "-1":
                    text = f"-{body}"
                else:
                    if "+" in cs or "-" in cs[1:] or "/" in cs:
                        cs = f"({cs})"
                    text = f"{cs}*{body}"
            else:
                text = cs
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f"- {text[1:]}")
            else:
                parts.append(f"+ {text}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Polynomial(_SparseTerms):
    """A sparse polynomial; terms map exponent tuples to nonzero scalars."""

    __slots__ = ()

    @staticmethod
    def _fits(key: Monomial, n: int) -> bool:
        return _is_exponents(key, n)

    @staticmethod
    def _factors(key: Monomial) -> list[str]:
        return _power_factors("x", key)

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial(n, {(0,) * n: RF_ONE})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The variable x_i (1-based)."""
        if not 1 <= i <= n:
            raise VariableCountMismatchError(f"variable index {i} out of 1..{n}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return Polynomial(n, {exps: RF_ONE})

    @staticmethod
    def monomial(n: int, exps: Iterable[int], coeff=RF_ONE) -> "Polynomial":
        return Polynomial(n, {tuple(exps): coeff})

    def coefficient(self, mono: Monomial) -> RationalFunction:
        return self.terms.get(tuple(mono), RF_ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous polynomial; raises on mixed degrees."""
        degrees = {sum(m) for m in self.terms}
        if len(degrees) > 1:
            raise InhomogeneousError(f"mixed degrees {sorted(degrees)}")
        return degrees.pop() if degrees else -1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms: dict[Monomial, RationalFunction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = terms.get(mono, RF_ZERO) + c1 * c2
                if acc:
                    terms[mono] = acc
                else:
                    terms.pop(mono, None)
        return Polynomial._wrap(self.n, terms)

    def __pow__(self, e: int) -> "Polynomial":
        out = Polynomial.one(self.n)
        for _ in range(e):
            out = out * self
        return out

    def extended(self, n: int) -> "Polynomial":
        """The same polynomial viewed in n >= self.n variables."""
        if n < self.n:
            raise VariableCountMismatchError(f"cannot shrink {self.n} -> {n}")
        pad = (0,) * (n - self.n)
        return Polynomial(n, {m + pad: c for m, c in self.terms.items()})


def transposition(n: int, i: int) -> tuple[int, ...]:
    """The adjacent transposition s_i = (i, i+1) of S_n, in one-line notation."""
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def inversions(sigma: tuple[int, ...]) -> int:
    """The number of pairs i < j with sigma(i) > sigma(j); its parity is the sign."""
    n = len(sigma)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )


def permute_monomial(mono: Monomial, sigma: tuple[int, ...]) -> Monomial:
    """The exponents of a monomial after x_i -> x_sigma(i)."""
    new = [0] * len(mono)
    for i, e in enumerate(mono):
        new[sigma[i] - 1] = e
    return tuple(new)


def permute_variables(p: Polynomial, sigma: tuple[int, ...]) -> Polynomial:
    """Apply the substitution x_i -> x_sigma(i) (sigma in one-line notation)."""
    terms = {permute_monomial(mono, sigma): c for mono, c in p.terms.items()}
    return Polynomial._wrap(p.n, terms)


def factorial_weight(mono: Monomial) -> int:
    """The weight K! = k1! k2! ... kn! of the diagonal scalar product."""
    w = 1
    for e in mono:
        w *= math.factorial(e)
    return w


def scalar_product(
    p: Polynomial,
    r: Polynomial,
    weights: Callable[[Monomial], int] | None = None,
) -> RationalFunction:
    """Diagonal scalar product; by default <x^K, x^K> = K!."""
    if p.n != r.n:
        raise VariableCountMismatchError("scalar product across variable counts")
    weigh = weights or factorial_weight
    acc = RF_ZERO
    for mono, coeff in p.terms.items():
        other = r.terms.get(mono)
        if other is not None:
            acc = acc + coeff * other * as_rf(weigh(mono))
    return acc
