"""Exact scalars: integer polynomials in q and the fraction field Q(q).

Every coefficient in the library is a :class:`RationalFunction`, a quotient of
two integer polynomials in the deformation parameter q kept in a canonical
form, so equality is structural and all computations are exact.  The
deformation parameter itself is described by :class:`QParam`, which is either
formal (work in Q(q)) or a fixed rational number (work in Q, embedded as the
constant rational functions).

Gcds in Z[q] (:func:`qp_common_factor`, and through it :func:`qp_gcd`,
:func:`qp_lcm` and the canonical form) take the integer content from one
integer gcd of all coefficients and the rest from one integer gcd of the
values at a large point, read back as a polynomial and verified by exact
division; a primitive-PRS fold is kept for the rare candidate that keeps
failing that check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import PoleError, ZeroDenominatorError

# An integer polynomial in q: coefficients by ascending power, no trailing
# zeros.  The zero polynomial is the empty tuple.
IntPoly = tuple[int, ...]

QP_ZERO: IntPoly = ()
QP_ONE: IntPoly = (1,)
QP_Q: IntPoly = (0, 1)


def qp(*coeffs: int) -> IntPoly:
    """Build an integer polynomial from ascending coefficients."""
    return qp_trim(tuple(coeffs))


def qp_trim(coeffs: tuple[int, ...]) -> IntPoly:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def qp_const(c: int) -> IntPoly:
    return (c,) if c else ()


def qp_degree(a: IntPoly) -> int:
    """Degree in q; the zero polynomial has degree -1."""
    return len(a) - 1


def qp_add(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return qp_trim(tuple(out))


def qp_neg(a: IntPoly) -> IntPoly:
    return tuple(-c for c in a)


def qp_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    return qp_add(a, qp_neg(b))


def qp_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return QP_ZERO
    if a == QP_ONE:
        return b
    if b == QP_ONE:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return qp_trim(tuple(out))


def qp_scale(a: IntPoly, c: int) -> IntPoly:
    if c == 0 or not a:
        return QP_ZERO
    if c == 1:
        return a
    return tuple(v * c for v in a)


def qp_derivative(a: IntPoly) -> IntPoly:
    return tuple(i * c for i, c in enumerate(a))[1:]


def qp_eval(a: IntPoly, q0: Fraction) -> Fraction:
    """Evaluate at a rational point (Horner)."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * q0 + c
    return acc


def qp_content(a: IntPoly) -> int:
    """Gcd of the coefficients, nonnegative; content of 0 is 0."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def qp_primitive(a: IntPoly) -> IntPoly:
    """Divide out the content, keeping the sign of the leading coefficient."""
    g = qp_content(a)
    if g <= 1:
        return a
    return tuple(c // g for c in a)


def qp_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact division in Z[q]; raises if b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return QP_ZERO
    if b == QP_ONE:
        return a
    if len(b) == 1:
        d = b[0]
        if any(c % d for c in a):
            raise ArithmeticError("inexact polynomial division")
        return tuple(c // d for c in a)
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        if c % lb:
            raise ArithmeticError("inexact polynomial division")
        f = c // lb
        quot[i - db] = f
        for j, cb in enumerate(b):
            rem[i - db + j] -= f * cb
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return qp_trim(tuple(quot))


def qp_pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, int]:
    """Pseudo-division in Z[q]: quot, rem, scale with scale * a = quot * b + rem.

    scale = lc(b)^(deg a - deg b + 1) and deg rem < deg b; when deg a < deg b
    it is (0, a, 1).
    """
    da, db = qp_degree(a), qp_degree(b)
    lb = b[-1]
    rem = list(a)
    quot = [0] * max(da - db + 1, 0)
    scale = 1
    for i in range(da, db - 1, -1):
        c = rem[i]
        rem = [v * lb for v in rem]
        quot = [v * lb for v in quot]
        scale *= lb
        if c:
            quot[i - db] = c
            for j, cb in enumerate(b):
                rem[i - db + j] -= c * cb
    return qp_trim(tuple(quot)), qp_trim(tuple(rem)), scale


def _prs_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd of two polynomials by the primitive PRS, positive leading coefficient."""
    if not a:
        return b if not b or b[-1] > 0 else qp_neg(b)
    if not b:
        return a if a[-1] > 0 else qp_neg(a)
    ca, cb = qp_content(a), qp_content(b)
    c = math.gcd(ca, cb)
    pa = tuple(v // ca for v in a)
    pb = tuple(v // cb for v in b)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        if len(pb) == 1:
            pa = QP_ONE
            break
        _, r, _ = qp_pseudo_divmod(pa, pb)
        pa, pb = pb, qp_primitive(r)
    g = pa if pa[-1] > 0 else qp_neg(pa)
    return qp_scale(g, c)


def _prs_fold(values: Sequence[IntPoly]) -> IntPoly:
    """Gcd of many polynomials as a left fold of the pairwise PRS gcd."""
    g = QP_ZERO
    for value in values:
        g = _prs_gcd(g, value)
        if g == QP_ONE:
            break
    return g


def _symmetric_digits(gamma: int, xi: int) -> IntPoly:
    """The polynomial whose value at xi is gamma, digits in (-xi/2, xi/2].

    For gamma > 0 the leading digit is positive.
    """
    digits = []
    half = xi // 2
    while gamma:
        d = gamma % xi
        if d > half:
            d -= xi
        digits.append(d)
        gamma = (gamma - d) // xi
    return tuple(digits)


# Tries of the heuristic gcd before the PRS fold takes over, and the factor
# the evaluation point grows by between tries (an irrational-looking ratio,
# so successive points share no obvious arithmetic structure).
_HEU_TRIES = 6
_XI_GROWTH = (73794, 27011)


def _heuristic_quotients(
    prims: Sequence[IntPoly], xi: int
) -> tuple[IntPoly, list[IntPoly]] | None:
    """One try of the heuristic gcd at the point xi; None if it is rejected.

    The integer gcd of the values at xi is read back as a polynomial from its
    symmetric xi-adic digits, G; its primitive part h is the candidate.  The
    integer gcd is positive, since the entry of least norm has no root as
    large as xi, so h has a positive leading coefficient.  It stands only if
    it divides every entry exactly, and then it is their gcd whenever
    xi >= 2 * min |entry|_inf + 2 (Char, Geddes and Gonnet): were the gcd
    h * k with k not constant, k would divide the entry of least norm, so
    |k(xi)| > xi / 2 by the Cauchy bound on its roots, and k(xi) would
    divide the content of G, whose digits are at most xi / 2 in size.
    """
    values = []
    for p in prims:
        acc = 0
        for c in reversed(p):
            acc = acc * xi + c
        values.append(acc)
    h = qp_primitive(_symmetric_digits(math.gcd(*values), xi))
    try:
        return h, [qp_div_exact(p, h) for p in prims]
    except ArithmeticError:
        return None


def qp_common_factor(
    values: Sequence[IntPoly],
) -> tuple[IntPoly, list[IntPoly]]:
    """Gcd of polynomials in Z[q] and the exact quotient of each by it.

    The gcd g has positive leading coefficient and includes the integer
    content, the same polynomial as folding qp_gcd over the values, and
    quotients[i] * g == values[i].  The gcd of no nonzero value is 0; the
    quotients are then the values themselves.

    The content comes from one integer gcd of all coefficients, and a
    constant entry makes it the whole gcd.  Otherwise the gcd is one integer
    gcd of the content-free entries evaluated at a large point, verified by
    dividing every entry by it (heuristic gcd, Char, Geddes and Gonnet 1989);
    a rejected candidate is retried at a larger point, and after a few
    rejections the primitive-PRS fold decides.
    """
    # Unpack a list, not an iterator: on CPython 3.11 star-unpacking a chain
    # iterator here left about 1.4 MB of argument tuples alive.
    c = math.gcd(*[x for p in values for x in p])
    if not c:
        return QP_ZERO, list(values)
    prims = list(values) if c == 1 else [tuple(v // c for v in p) for p in values]
    if any(len(p) == 1 for p in prims):
        return (c,), prims
    xi = 2 * min(max(map(abs, p)) for p in prims if p) + 2
    for _ in range(_HEU_TRIES):
        found = _heuristic_quotients(prims, xi)
        if found is not None:
            h, quotients = found
            return qp_scale(h, c), quotients
        xi = xi * _XI_GROWTH[0] // _XI_GROWTH[1]
    g = _prs_fold(values)
    return g, [qp_div_exact(v, g) for v in values]


def qp_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[q] with positive leading coefficient (see qp_common_factor).

    The gcd with 0 is the other argument made positive; gcd(0, 0) = 0.
    """
    return qp_common_factor((a, b))[0]


def qp_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return QP_ZERO
    _, (_, b_over_gcd) = qp_common_factor((a, b))
    return qp_mul(a, b_over_gcd)


def qp_str(a: IntPoly, var: str = "q") -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@dataclass(frozen=True, slots=True, eq=False)
class RationalFunction:
    """An element of Q(q) as a canonical pair of integer polynomials.

    Canonical form: the denominator is nonzero with positive leading
    coefficient, numerator and denominator have no common polynomial factor,
    and their integer contents are coprime.  Zero is always 0/1, so equality
    is structural; integers and Fractions compare equal to the constants
    they embed to.
    """

    num: IntPoly
    den: IntPoly

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            coerced = _coerce(other)
            return self.num == coerced.num and self.den == coerced.den
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.num) <= 1 and len(self.den) == 1:
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash((self.num, self.den))

    @staticmethod
    def make(num: IntPoly, den: IntPoly = QP_ONE) -> "RationalFunction":
        if not den:
            raise ZeroDenominatorError("zero denominator in Q(q) scalar")
        if not num:
            return RF_ZERO
        if den == QP_ONE:
            return RationalFunction(num, QP_ONE)
        num, den = qp_common_factor((num, den))[1]
        if den[-1] < 0:
            num, den = qp_neg(num), qp_neg(den)
        return RationalFunction(num, den)

    @staticmethod
    def from_int(c: int) -> "RationalFunction":
        return RationalFunction.make(qp_const(c))

    @staticmethod
    def from_fraction(f: Fraction) -> "RationalFunction":
        return RationalFunction.make(qp_const(f.numerator), qp_const(f.denominator))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == QP_ONE and other.den == QP_ONE:
            return RationalFunction.make(qp_add(self.num, other.num))
        return RationalFunction.make(
            qp_add(qp_mul(self.num, other.den), qp_mul(other.num, self.den)),
            qp_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(qp_neg(self.num), self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == QP_ONE and other.den == QP_ONE:
            return RationalFunction.make(qp_mul(self.num, other.num))
        return RationalFunction.make(
            qp_mul(self.num, other.num), qp_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDenominatorError("division by zero in Q(q)")
        return RationalFunction.make(
            qp_mul(self.num, other.den), qp_mul(self.den, other.num)
        )

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce(other) / self

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RF_ONE / self ** (-e)
        out = RF_ONE
        for _ in range(e):
            out = out * self
        return out

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        """The value of a constant element; raises for genuine functions of q."""
        if len(self.num) > 1 or len(self.den) > 1:
            raise ValueError(f"{self} is not a constant")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    def evaluate(self, q0: Fraction) -> Fraction:
        den = qp_eval(self.den, q0)
        if den == 0:
            raise PoleError(f"pole of {self} at q = {q0}")
        return qp_eval(self.num, q0) / den

    def __str__(self) -> str:
        num = qp_str(self.num)
        if self.den == QP_ONE:
            return num
        den = qp_str(self.den)
        if len(self.num) > 1:
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _coerce(value) -> "RationalFunction":
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, int):
        return RationalFunction.from_int(value)
    if isinstance(value, Fraction):
        return RationalFunction.from_fraction(value)
    return NotImplemented


def as_rf(value) -> "RationalFunction":
    """value as a scalar of Q(q): an int or a Fraction is embedded."""
    if (out := _coerce(value)) is NotImplemented:
        raise TypeError(f"cannot use {value!r} as a Q(q) scalar")
    return out


RF_ZERO = RationalFunction(QP_ZERO, QP_ONE)
RF_ONE = RationalFunction(QP_ONE, QP_ONE)
RF_Q = RationalFunction(QP_Q, QP_ONE)


def rf_normalize(num, den) -> RationalFunction:
    """Canonicalize a numerator/denominator pair of integer polynomials."""
    return RationalFunction.make(qp_trim(tuple(num)), qp_trim(tuple(den)))


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


@dataclass(frozen=True, slots=True)
class QParam:
    """The deformation parameter: formal, or a fixed rational value."""

    value: Fraction | None = None

    @staticmethod
    def formal() -> "QParam":
        return QParam(None)

    @staticmethod
    def rational(num, den: int = 1) -> "QParam":
        return QParam(Fraction(num, den))

    @staticmethod
    def parse(text: str) -> "QParam":
        text = text.strip()
        if text.lower() == "formal":
            return QParam.formal()
        m = _RATIONAL_RE.match(text)
        if not m:
            raise ValueError(f"cannot parse q value {text!r}")
        den = int(m.group(2) or 1)
        if den == 0:
            raise ValueError(f"q value {text!r} has a zero denominator")
        return QParam(Fraction(int(m.group(1)), den))

    @property
    def is_formal(self) -> bool:
        return self.value is None

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def scalar(self) -> RationalFunction:
        """The parameter as an element of the coefficient field."""
        if self.value is None:
            return RF_Q
        return RationalFunction.from_fraction(self.value)

    def __str__(self) -> str:
        return "formal" if self.value is None else str(self.value)


FORMAL = QParam.formal()
