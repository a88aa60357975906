"""A fixed pure-Python reference load that tracks the host's speed.

The benchmark's host is shared: for stretches of seconds to minutes it runs
the same code up to 1.8x slower, with CPU time tracking wall time (contention,
not descheduling).  `reference_seconds()` times a fixed load that uses no
`qsteenrod` code but the same kinds of work -- integer row elimination with
gcd stripping, coefficient-tuple polynomial arithmetic, dicts keyed by
exponent tuples, and sorting small tuples -- so it slows down with the host,
not with the program.  run.py scales every reported time by
REFERENCE_S / (the load's mean time over the run), which puts runs taken in
different host states on one reference speed.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations_with_replacement

# About the time of `_load()` on the reference machine in its fast state.
REFERENCE_S = 0.030


def _eliminate(rows: list[list[int]]) -> int:
    """Fraction-free elimination with row-gcd stripping; returns the rank."""
    rank = 0
    width = len(rows[0])
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f:
                row = [top[col] * a - f * b for a, b in zip(rows[r], top)]
                g = 0
                for v in row:
                    g = math.gcd(g, v)
                rows[r] = [v // g for v in row] if g > 1 else row
        rank += 1
    return rank


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _load() -> int:
    rng = random.Random(20081219)
    rows = [[rng.randint(-9, 9) for _ in range(42)] for _ in range(40)]
    acc = _eliminate(rows)
    polys = [tuple(rng.randint(-5, 5) for _ in range(6)) for _ in range(40)]
    prod = (1,)
    for p in polys:
        prod = _poly_mul(prod, p)
    acc += len(prod)
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for combo in combinations_with_replacement(range(6), 8):
        expo = [0] * 6
        for v in combo:
            expo[v] += 1
        table[tuple(expo)] = polys[len(table) % len(polys)]
    for key, value in table.items():
        shifted = (key[0] + 1,) + key[1:]
        if shifted in table:
            acc += len(_poly_mul(value, table[shifted]))
    terms = [(i % 97, (i * 7919) % 1009, (i,)) for i in range(8000)]
    terms.sort(key=lambda t: (t[1], -t[0]))
    return acc + terms[0][0]


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed reference load."""
    start = time.perf_counter()
    _load()
    return time.perf_counter() - start
