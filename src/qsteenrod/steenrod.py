"""Deformed power-sum operators and their straightening to the partition basis.

The degree-k generator on n variables is

    P_k = sum_i x_i^k (1 + q x_i d_i),

multiplication by the power sum p_k at q = 0.  Products P_mu over
compositions mu straighten to the partition-indexed basis P_lambda through
the commutator rule [P_k, P_l] = q (l - k) P_{k+l}.

On a polynomial the operators act by two monomial rules, which
`apply_pk`, `apply_dk` and `apply_p_lambda` follow without building an
element of the Weyl algebra.  The Euler operator x_i d_i scales x^a by a_i,
so the i-th term x_i^k (1 + q x_i d_i) of P_k scales x^a by 1 + q a_i and
then multiplies it by x_i^k:

    P_k . x^a = sum_i (1 + q a_i) x^(a + k e_i).

The dual D_k (x^K d^L -> x^L d^K, `weyl.weyl_dual`) is
sum_i (d_i^k + q x_i d_i^(k+1)) = sum_i (1 + q x_i d_i) d_i^k.  Here d_i^k
takes x^a to the falling factorial a_i (a_i - 1) ... (a_i - k + 1) times
x^(a - k e_i), zero when a_i < k, and the Euler factor then scales that by
1 + q (a_i - k):

    D_k . x^a = sum_i a_i (a_i - 1) ... (a_i - k + 1) (1 + q (a_i - k)) x^(a - k e_i).

Each sends a monomial to at most n monomials, and P_mu . p is
P_mu_1 (... (P_mu_l . p)), the parts applied right to left.  `rule_stack`
writes the same two rules as integer matrices on a degree slice, for ranks
that need no polynomial arithmetic.  `make_pk`,
`dual_pk` and `make_p_lambda` under `weyl.weyl_apply` give the same
polynomials; they stay for arbitrary Weyl-algebra operators and as the
reference the tests compare the rules with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

from . import modular
from .errors import NonSymmetricError
from .polynomials import Monomial, Polynomial, monomials_of_degree
from .scalars import QParam, RF_ONE, RF_ZERO, RationalFunction
from .weyl import WeylElement, orbit_sum, weyl_apply, weyl_compose
from .linalg import (
    GradedOperator,
    SparseIntRow,
    kernel_basis,
    operator_rows,
    reduced_echelon,
    rf_rows_to_int,
    slice_images,
    slice_index,
    transpose,
)

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def is_partition(parts: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(
        a > 0 for a in parts
    )


def partitions_of(
    d: int, max_part: int | None = None, max_length: int | None = None
) -> Iterator[Partition]:
    """Partitions of d in decreasing lex order, optionally bounded."""
    cap = d if max_part is None else min(max_part, d)
    length = d if max_length is None else max_length

    def rec(left: int, biggest: int, room: int, prefix: Partition) -> Iterator[Partition]:
        if left == 0:
            yield prefix
            return
        if room == 0:
            return
        for part in range(min(biggest, left), 0, -1):
            yield from rec(left - part, part, room - 1, prefix + (part,))

    if d == 0:
        yield ()
        return
    yield from rec(d, cap, length, ())


def make_pk(n: int, k: int, q: QParam) -> WeylElement:
    """The degree-k deformed power-sum operator on x_1..x_n."""
    if k < 1:
        raise ValueError("only positive-degree generators exist")
    if n < 1:
        raise ValueError("need at least one variable")
    qs = q.scalar()
    terms: dict[tuple[Monomial, Monomial], RationalFunction] = {}
    zero = (0,) * n
    for i in range(n):
        xs = tuple(k if j == i else 0 for j in range(n))
        terms[(xs, zero)] = RF_ONE
        if qs:
            xs2 = tuple(k + 1 if j == i else 0 for j in range(n))
            ds = tuple(1 if j == i else 0 for j in range(n))
            terms[(xs2, ds)] = qs
    return WeylElement(n, terms)


def make_p_lambda(n: int, mu: Sequence[int], q: QParam) -> WeylElement:
    """The product P_mu = P_{mu_1} ... P_{mu_k}; the identity when mu is empty."""
    out = WeylElement.identity(n)
    for part in mu:
        out = weyl_compose(out, make_pk(n, part, q))
    return out


def dual_pk(n: int, k: int, q: QParam) -> WeylElement:
    """The down operator D_k, dual to P_k; lowers degree by k."""
    from .weyl import weyl_dual

    return weyl_dual(make_pk(n, k, q))


class _Weights(dict):
    """Weights by exponent, each computed by rule on its first lookup."""

    def __init__(self, rule: Callable[[int], RationalFunction]):
        super().__init__()
        self.rule = rule

    def __missing__(self, a: int) -> RationalFunction:
        w = self[a] = self.rule(a)
        return w


# The weight tables are a few scalars each.  Their bounds sit above the
# traffic of the whole test suite in one session, 71 distinct q for the up
# weights and 188 (q, k) for the down weights, so no session evicts them.
@lru_cache(maxsize=256)
def _up_weights(q: QParam) -> _Weights:
    """The scalars 1 + q a by which P_k weighs x_i^(a) going to x_i^(a+k)."""
    scalar = q.scalar()
    return _Weights(lambda a: 1 + scalar * a)


@lru_cache(maxsize=512)
def _down_weights(q: QParam, k: int) -> _Weights:
    """The scalars a (a - 1) ... (a - k + 1) (1 + q (a - k)) by which D_k
    weighs x_i^(a) going to x_i^(a-k); zero when a < k."""
    up = _up_weights(q)
    return _Weights(lambda a: up[a - k] * math.perm(a, k) if a >= k else RF_ZERO)


def _apply_monomial_rule(
    p: Polynomial, shift: int, weights: dict[int, RationalFunction]
) -> Polynomial:
    """The sum over the terms c x^a of p and the variables i of
    c weights[a_i] x^(a + shift e_i).

    The weights come as one table per operator and q, so a call looks q up
    once rather than once per term and variable.
    """
    terms: dict[Monomial, RationalFunction] = {}
    for mono, pc in p.terms.items():
        for i, a in enumerate(mono):
            w = weights[a]
            if not w:
                continue
            target = mono[:i] + (a + shift,) + mono[i + 1 :]
            value = w if pc is RF_ONE else pc * w
            old = terms.get(target)
            if old is None:
                terms[target] = value
            elif acc := old + value:
                terms[target] = acc
            else:
                del terms[target]
    return Polynomial._wrap(p.n, terms)


def apply_pk(p: Polynomial, k: int, q: QParam) -> Polynomial:
    """P_k . p by the rule x^a -> sum_i (1 + q a_i) x^(a + k e_i)."""
    if k < 1:
        raise ValueError("only positive-degree generators exist")
    return _apply_monomial_rule(p, k, _up_weights(q))


def apply_dk(p: Polynomial, k: int, q: QParam) -> Polynomial:
    """D_k . p by the rule
    x^a -> sum_i a_i (a_i - 1) ... (a_i - k + 1) (1 + q (a_i - k)) x^(a - k e_i)."""
    if k < 1:
        raise ValueError("only positive-degree generators exist")
    return _apply_monomial_rule(p, -k, _down_weights(q, k))


def apply_p_lambda(p: Polynomial, mu: Sequence[int], q: QParam) -> Polynomial:
    """P_mu . p = P_mu_1 (... (P_mu_k . p)), the last part applied first."""
    for part in reversed(mu):
        p = apply_pk(p, part, q)
    return p


def rule_stack(n: int, d: int, k: int, q: QParam, down: bool) -> list[SparseIntRow]:
    """An integer matrix of D_k (down) or of P_k transposed on the degree-d slice.

    Row i is the i-th monomial b of `monomials_of_degree(n, d - k)`, indexed
    over the degree-d monomials (`linalg.slice_index`), zero rows kept.  By
    the monomial rules, its entry at b + k e_i is 1 + q b_i, the weight of
    x^b -> x^(b + k e_i) in P_k . x^b, times (b_i + k) ... (b_i + 1) for D_k,
    the weight of x^(b + k e_i) -> x^b in D_k.  At formal q the entries are
    these polynomials in Z[q]; at q = u/v each is multiplied by v, which
    leaves every rank unchanged, and a zero entry is dropped.
    """
    if q.is_formal:
        rule = lambda b: (1, b) if b else (1,)
    else:
        u, v = q.value.numerator, q.value.denominator
        rule = lambda b: (v + u * b,) if v + u * b else ()
    weights = []
    for b in range(d - k + 1):
        scale = math.perm(b + k, k) if down else 1
        weights.append(tuple(scale * c for c in rule(b)))
    index = slice_index(n, d)
    rows: list[SparseIntRow] = []
    for mono in monomials_of_degree(n, d - k):
        row: SparseIntRow = {}
        for i, b in enumerate(mono):
            if weights[b]:
                row[index[mono[:i] + (b + k,) + mono[i + 1 :]]] = weights[b]
        rows.append(row)
    return rows


def straighten(mu: Sequence[int], q: QParam) -> dict[Partition, RationalFunction]:
    """Expand P_mu over the partition basis.

    Out-of-order adjacent pairs are swapped with the commutator correction
    q (l - k) P_{k+l}; every swap either sorts the word or strictly shortens
    it, so the rewriting terminates.
    """
    qs = q.scalar()
    result: dict[Partition, RationalFunction] = {}
    stack: list[tuple[Composition, RationalFunction]] = [(tuple(mu), RF_ONE)]
    while stack:
        word, coeff = stack.pop()
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a < b:
                swapped = word[:i] + (b, a) + word[i + 2 :]
                stack.append((swapped, coeff))
                correction = coeff * qs * (b - a)
                if correction:
                    merged = word[:i] + (a + b,) + word[i + 2 :]
                    stack.append((merged, correction))
                break
        else:
            acc = result.get(word, RF_ZERO) + coeff
            if acc:
                result[word] = acc
            else:
                result.pop(word, None)
    return result


def polynomial_part(f: WeylElement) -> Polynomial:
    """f applied to 1: the terms of f without derivatives, as a polynomial."""
    return weyl_apply(f, Polynomial.one(f.n))


def monomial_symmetric(n: int, lam: Sequence[int]) -> Polynomial:
    """The monomial symmetric polynomial m_lambda on n variables (0 if too long)."""
    lam = tuple(lam)
    if len(lam) > n:
        return Polynomial.zero(n)
    exps = lam + (0,) * (n - len(lam))
    return orbit_sum(Polynomial.monomial(n, exps), n)


def monomial_expansion(p: Polynomial) -> dict[Partition, RationalFunction]:
    """Coordinates of a symmetric polynomial over the m_lambda basis."""
    coords: dict[Partition, RationalFunction] = {}
    for mono, coeff in p.terms.items():
        if all(mono[i] >= mono[i + 1] for i in range(len(mono) - 1)):
            lam = tuple(e for e in mono if e)
            coords[lam] = coeff
    recombined = Polynomial.zero(p.n)
    for lam, coeff in coords.items():
        recombined = recombined + monomial_symmetric(p.n, lam).scale(coeff)
    if recombined != p:
        raise NonSymmetricError("polynomial is not symmetric in its variables")
    return coords


@dataclass(frozen=True)
class OperatorSpanRank:
    """Rank of a family of operators probed on a finite graded block."""

    n: int
    degree: int
    partitions: tuple[Partition, ...]
    rank: int
    relations: tuple[dict[Partition, RationalFunction], ...]


def operator_span_rank(n: int, d: int, q: QParam, probe_cap: int) -> OperatorSpanRank:
    """Linear rank of {P_lambda : lambda |- d} acting on polynomials.

    The operators are probed on the monomials of each source degree
    e = 0, 1, ..., probe_cap in turn.  On degree e each becomes one row over
    the (e, source, target) cells that any of them fills
    (``linalg.operator_rows``), and the transpose gives one equation in the
    operators' coefficients per cell.  After every degree but the last, the
    cells gathered so far are ranked at one point mod a prime
    (``modular.Echelon``, which reduces each cell once, when it is added).
    That rank of some of the equations is a lower bound on the rank of all
    of them over Q(q) (over Q at a rational q), and the number of operators
    is an upper bound, so once the two meet the operators are independent,
    whatever the cells not yet built hold, and the probe stops there.
    Otherwise the relations are the kernel of all the cells.  They come in the sorted (degree, source, target) order of
    one ``operator_rows`` over the whole probe, so the reduced echelon form,
    canonical, and the relations are those of that one matrix.  Its
    ``reduced_echelon`` opens with the same certificate, a mod-P rank of all
    the cells, which is why the last degree is not ranked apart.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if probe_cap < d:
        raise ValueError("probe cap must be at least the operator degree")
    lams = tuple(partitions_of(d))
    size = len(lams)
    applies = [partial(apply_p_lambda, mu=lam, q=q) for lam in lams]
    cells: list[SparseIntRow] = []
    probe = modular.Echelon(modular.seeded_point(f"P_lambda {n} {d}"))
    for e in range(probe_cap + 1):
        # each operator on degree e alone, zero below it: its cells are (e, s, t)
        operators = [
            GradedOperator(n, d, e, ((),) * e + (tuple(slice_images(f, n, e, d)),))
            for f in applies
        ]
        rows, ncells = operator_rows(operators)
        new = rf_rows_to_int(transpose(rows, ncells))
        cells += new
        if e < probe_cap and probe.extend(new, size) == size:
            return OperatorSpanRank(n, d, lams, size, ())
    pivots, reduced = reduced_echelon(cells, size)
    vecs = kernel_basis(pivots, reduced, size)
    relations = tuple(
        {lams[j]: coeff for j, coeff in sorted(vec.items())} for vec in vecs
    )
    return OperatorSpanRank(n, d, lams, len(pivots), relations)
