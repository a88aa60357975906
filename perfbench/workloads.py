"""The operations of each workload, generated from a seed.

An operation is one CLI command line, run as `qsteenrod <argv> --format json`.
The seed only reorders operations and draws the generic positive q values of
`rational`; the sizes are fixed so that a round costs the same on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CACHE_DIR = ".perfbench-out/cache"

# The fault of `bad_q_candidates` that `badq -n 3 -d 6` shows: with D_1 and
# D_2 only, q = 0 is reported as a root although the harmonic dimension
# there is the generic one.  The check names it and the operation counts as
# failed until the fault is mended.
SPURIOUS_ROOT = "spurious-root"


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # Name of the check failure this operation is known to produce, if any.
    known_fault: str | None = None
    # A re-run of an earlier operation against the now-warm cache directory.
    warm: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.argv) + (" [warm]" if self.warm else "")


def _op(line: str, known_fault: str | None = None, warm: bool = False) -> Op:
    return Op(tuple(line.split()), known_fault, warm)


# q formal, against a fresh cache directory; the cacheable commands then run
# again against the warm directory (identical argv, so identical report).
FORMAL_CACHED = [
    "harm -n 3 -d 8",
    "hit -n 3 -d 8",
    "harm -n 4 -d 6 --basis",
    "hit -n 4 -d 6",
    "verify -n 3 -d 7",
    "truncated -n 3 -d 6",
]
FORMAL_UNCACHED = [
    "character -n 4 -d 6",
    "hilbert --kind harm -n 5 -d 4",
    "relations -n 3 -d 5",
]

RATIONAL_FIXED = [
    "hit -n 4 -d 7 -q 1",
    "hilbert --kind harm -n 5 -d 5 -q 1",
    "character -n 5 -d 4 -q 1",
    "truncated -n 4 -d 4 -q 1",
    "truncated -n 4 -d 4 -q -1/2",
    "relations -n 3 -d 5 -q 1",
    "commutant -n 2 -d 6 -q 0",
]
# Generic positive q = a/b with a != b drawn from primes of one size, so the
# coefficient growth, and with it the cost, barely depends on the draw.
GENERIC_PRIMES = (11, 13, 17, 19, 23, 29, 31)
RATIONAL_GENERIC = [
    "hilbert --kind harm -n 5 -d 5 -q {q}",
    "hit -n 4 -d 6 -q {q}",
]

BADQ = [
    "badq -n 2 -d 22",
    "badq -n 2 -d 24",
    "badq -n 2 -d 26",
    "badq -n 3 -d 7 --all-generators",
    "badq -n 3 -d 8 --all-generators",
    "badq -n 4 -d 5 --all-generators",
]

WORKLOADS = ("formal", "rational", "badq")


def _generic_q(rng: random.Random) -> str:
    a, b = rng.sample(GENERIC_PRIMES, 2)
    return f"{a}/{b}"


def operations(workload: str, seed: int) -> list[Op]:
    """One round of the workload: the same list for the same seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "formal":
        cached = [f"{line} --cache-dir {CACHE_DIR}" for line in FORMAL_CACHED]
        cold = cached + FORMAL_UNCACHED
        rng.shuffle(cold)
        warm = [_op(line, warm=True) for line in cold if line in cached]
        return [_op(line) for line in cold] + warm
    if workload == "rational":
        lines = RATIONAL_FIXED + [
            line.format(q=_generic_q(rng)) for line in RATIONAL_GENERIC
        ]
        rng.shuffle(lines)
        return [_op(line) for line in lines]
    if workload == "badq":
        ops = [_op(line) for line in BADQ]
        ops.append(_op("badq -n 3 -d 6", known_fault=SPURIOUS_ROOT))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
