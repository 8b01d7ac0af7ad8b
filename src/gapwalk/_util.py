"""Shared helpers: the input error type, the compact JSON encoder, stable
log-domain sums, seed derivation and the pinned index draw."""

from __future__ import annotations

import hashlib
import json
import math

NEG_INF = float("-inf")

# The one encoder of compact, key-sorted JSON: every `records.jsonl` and
# `trials.jsonl` line and the config hash.  It writes what
# `json.dumps(obj, sort_keys=True, separators=(",", ":"))` writes.
compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class InputError(ValueError):
    """A value from outside the program (a config, a file, an argument) that
    the library refuses; the CLI reports it as a config error."""


def logsumexp(values, exp=math.exp, log=math.log) -> float:
    """log(sum(exp(v))) over an iterable of log values, stable against underflow;
    natural logs by default, another base with that base's `exp` and `log`."""
    vals = [v for v in values if v != NEG_INF]
    if not vals:
        return NEG_INF
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + log(sum(exp(v - m) for v in vals))


def log2sumexp(values) -> float:
    """Same as logsumexp but in log base 2."""
    return logsumexp(values, lambda x: 2.0 ** x, math.log2)


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
