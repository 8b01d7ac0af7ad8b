"""Shared helpers: the input error type, stable log-domain sums, binomial
statistics, seed derivation and the pinned index draw."""

from __future__ import annotations

import hashlib
import math

NEG_INF = float("-inf")


class InputError(ValueError):
    """A value from outside the program (a config, a file, an argument) that
    the library refuses; the CLI reports it as a config error."""


def logsumexp(values) -> float:
    """log(sum(exp(v))) over an iterable of natural-log values, stable against underflow."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(sum(math.exp(v - m) for v in vals))


def log2sumexp(values) -> float:
    """Same as logsumexp but in log base 2."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log2(sum(2.0 ** (v - m) for v in vals))


def log1p_from_log(log_x: float) -> float:
    """log(1 + x) given log(x), stable for tiny and huge x."""
    if log_x == NEG_INF:
        return 0.0
    if log_x > 40.0:
        return log_x + math.log1p(math.exp(-log_x))
    return math.log1p(math.exp(log_x))


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def binomial_stderr(successes: int, trials: int) -> float:
    if trials <= 0:
        return 0.0
    p = successes / trials
    return math.sqrt(p * (1.0 - p) / trials)


def _digest(parts, separator: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b" + part)
        elif isinstance(part, int):
            h.update(b"i" + part.to_bytes(32, "little", signed=True))
        else:
            h.update(b"s" + str(part).encode())
        h.update(separator)
    return h.digest()


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary labeled parts (ints, strings, bytes)."""
    return int.from_bytes(_digest(parts, b"\x00")[:8], "little")


def derive_key(*parts) -> bytes:
    """Deterministic 128-bit key from labeled parts."""
    return _digest(parts, b"\x01")[:16]


def below(getrandbits, n: int) -> int:
    """A uniform index in range(n), drawn as CPython's `randrange(n)` draws it
    today: `getrandbits(n.bit_length())`, redrawn while at least n.  Pinned
    here, since Python keeps only `random()` reproducible across versions."""
    if n < 1:
        raise ValueError(f"no index below {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
