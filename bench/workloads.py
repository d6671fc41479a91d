"""The benchmark's workloads: seeded lists of cold CLI invocations.

A workload maps a seed to one pass, a list of invocations run one after
another, each in a fresh interpreter.  Every invocation names the result
records it must produce, so a missing or extra record fails the check.
The pools the seed draws from are closed and listed here, so
``reference.json`` holds a digest for every record any seed can produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checks

FIBERWISE_CAP = 10**6
BIGPRIME_POOL = 24        # largest primes below the fiberwise cap
BIGPRIME_WINDOW = 6       # consecutive primes per verify call
MAHLER_SAMPLES = 10_000_000
MAHLER_SEEDS = tuple(range(16))

# Oracle strata: (command, pool of q, draws per pass).  Members of one
# stratum cost about the same per invocation, so the cost of a pass is
# nearly the same for every seed.  The costs grow with q^3 (affine brute)
# and with extension degree; q = 121, 125 (count), q = 32 (singular) and
# affine primes outside 223..233 fall outside every cost class and are
# left out, as are fields above the measured sizes (singular at 2^7 takes
# 21 s, affine at q = 1021 takes 117 s).
ORACLE_STRATA = (
    ("count", (2, 4, 8, 16, 32), 1),                 # characteristic 2
    ("count", (9, 25, 27, 49), 1),                   # odd extension fields
    ("count", (81, 127, 128), 1),                    # largest q
    ("count", (3, 5, 7, 11, 13), 1),
    ("count", (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61), 2),
    ("count", (67, 71, 73, 79, 83, 89, 97), 1),
    ("count", (101, 103, 107, 109, 113), 1),
    ("singular", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31), 1),
    ("singular", (16, 25, 27), 1),
    ("affine", (223, 227, 229, 233), 1),
)


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    expect: tuple[str, ...]   # record keys of checks.record_digests


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n = 0
    while q > 1:
        if q % p:
            raise ValueError(f"{q} is not a prime power")
        q //= p
        n += 1
    return p, n


def bigprime_pool() -> list[int]:
    out = []
    m = FIBERWISE_CAP - 1
    while len(out) < BIGPRIME_POOL:
        if is_prime(m):
            out.append(m)
        m -= 1
    return sorted(out)


def verify_call(lo: int, hi: int) -> Invocation:
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    return Invocation(("verify", "--surface", "all", "--primes", f"{lo}..{hi}"),
                      tuple(checks.verify_keys(primes)))


def count_call(q: int, space: str = "all") -> Invocation:
    p, n = prime_power(q)
    spaces = checks.SPACES if space == "all" else (space,)
    return Invocation(("count", "--surface", "all", "--space", space, "--method", "all",
                       "--p", str(p), "--n", str(n)),
                      tuple(checks.count_keys(p, n, spaces)))


def singular_call(q: int) -> Invocation:
    p, n = prime_power(q)
    return Invocation(("singular", "--surface", "all", "--p", str(p), "--n", str(n)),
                      tuple(checks.singular_keys(p, n)))


def special_call() -> Invocation:
    return Invocation(("special", "--tol", "1e-6"), tuple(checks.special_keys()))


def mahler_call(seed: int) -> Invocation:
    return Invocation(("mahler", "--samples", str(MAHLER_SAMPLES), "--seed", str(seed)),
                      tuple(checks.mahler_keys(MAHLER_SAMPLES, seed)))


def sweep(rng: random.Random) -> list[Invocation]:
    return [verify_call(2, 199)]


def bigprime(rng: random.Random) -> list[Invocation]:
    pool = bigprime_pool()
    i = rng.randrange(len(pool) - BIGPRIME_WINDOW + 1)
    return [verify_call(pool[i], pool[i + BIGPRIME_WINDOW - 1])]


def oracle_call(command: str, q: int) -> Invocation:
    if command == "singular":
        return singular_call(q)
    return count_call(q, "affine" if command == "affine" else "all")


def oracle(rng: random.Random) -> list[Invocation]:
    return [oracle_call(command, q) for command, pool, draws in ORACLE_STRATA
            for q in rng.sample(pool, draws)]


def numerics(rng: random.Random) -> list[Invocation]:
    return [special_call(), mahler_call(rng.choice(MAHLER_SEEDS))]


WORKLOADS = {"sweep": sweep, "bigprime": bigprime, "oracle": oracle, "numerics": numerics}

# Per-invocation time limit in seconds; a hang counts as a failure.
TIME_LIMIT = {"sweep": 120.0, "bigprime": 40.0, "oracle": 30.0, "numerics": 30.0}


def make_pass(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def reference_invocations() -> list[Invocation]:
    """Invocations whose records cover every record any seed can produce."""
    pool = bigprime_pool()
    out = [verify_call(2, 199), verify_call(pool[0], pool[-1]), special_call()]
    out += [mahler_call(s) for s in MAHLER_SEEDS]
    out += [oracle_call(command, q) for command, qs, _ in ORACLE_STRATA for q in qs]
    return out
