"""Hidden-label adjacency oracle: a keyed pseudorandom bijection over an m-bit
label space wraps a graph instance, exposing only neighbor queries.

Labels outside the image of the non-isolated vertex enumeration are isolated;
with the default padding almost every random label is isolated, which forces
explorers to grow connected components from their given roots.  Exploration
strategies never hold a `LabeledOracle`: they are generators that yield labels
and receive answers, and the trial that drives them
(`explorer.ExplorationSession`) makes every query here and owns the query
budget.  Vertex identities come back out only through the trusted side:
`reveal`, and `indices_of`, which localization scoring reads.

The trusted object memoizes every index <-> label pair it has mapped, both
ways, so a label runs through the Feistel map at most once per oracle, that is
once per trial: a walk queries labels that came out of earlier answers, and the
parent of a vertex appears in each of its answers.  `query` (counted) builds
the answer from the neighbour indices it is handed and memoizes it per label,
so a label asked again (walks revisit vertices) gets the same tuple with no
labeling or sort.  The memos are private to this module; strategies gain
nothing from them.  A sealed oracle refuses `reveal` and `indices_of`, and a
trial refuses to arm on it.

An `OracleWindow` holds the oracles of one window of trials, of one label
width.  At each step of the trial loop (`explorer.drive`), `resolve` maps
every live trial's pending label, from the memo, to its index and the graph's
per-index walk record (`IndexInfo`), which the trial queries and scores from,
and labels the neighbours that the memos lack in one `forward_array` call of
a `KeyedColumns` map, each element under its own trial's subkeys.  Guiding
inputs are labeled the same way: `input_draws` draws a trial's inputs as
canonical indices, and `label_inputs` labels a whole window's missing inputs
in one batch.  The labels, and the number of labels mapped, are those the
trials would map one by one.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import spectral
from ._util import InputError, below, derive_seed
from .graph_model import (
    IndexInfo,
    InvalidVertexError,
    IsolatedVertex,
    MainGraph,
    TreeGraph,
    Vertex,
)

MAX_LABEL_BITS = 62
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# numpy scalars of the round constants, made once for the array paths.
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
# Feistel rounds of every label map; even, so the half-widths come back.
ROUNDS = 8
# The byte that tags round r's subkey derivation.
_ROUND_BYTES = tuple(bytes([r]) for r in range(ROUNDS))


def label_width(n: int, padding_ratio: float) -> int:
    """Default label bits for n non-isolated vertices: ceil(log2(n / padding_ratio)),
    at least 1, taken as two logarithms since n may be past the largest float."""
    return max(1, math.ceil(math.log2(n) - math.log2(padding_ratio)))


class LabelSpaceError(ValueError):
    """The label space is too small for the non-isolated vertex set, or too large to index."""


class RevealSealedError(RuntimeError):
    """`reveal` or `indices_of` called on an oracle whose trusted side has been sealed."""


class FeistelPermutation:
    """Keyed bijection on [0, 2^bits) built from an alternating-width Feistel
    network with a splitmix-style keyed round function.

    Its ROUNDS round subkeys are derived from the 128-bit key by SHA-256.  An
    even number of rounds restores the original half-widths, so odd bit counts
    are handled without cycle walking.
    """

    def __init__(self, bits: int, key: bytes):
        if not 1 <= bits <= MAX_LABEL_BITS:
            raise LabelSpaceError(f"label bits must lie in [1, {MAX_LABEL_BITS}]")
        if len(key) != 16:
            raise ValueError("key must be 16 bytes")
        self.bits = bits
        self.key = key
        self.left_bits = bits // 2
        self.right_bits = bits - self.left_bits
        self.subkeys = tuple(
            int.from_bytes(hashlib.sha256(key + tag).digest()[:8], "little")
            for tag in _ROUND_BYTES
        )
        self.size = 1 << bits
        self._right_mask = (1 << self.right_bits) - 1
        # The round function (splitmix64 finaliser of subkey ^ half) is inlined
        # in `forward`/`inverse`; round r writes a half of left_bits width when
        # r is even and right_bits when odd, in both directions.  A half has at
        # most 31 bits, so the masked output reads only bits 0..61 of the last
        # product, and that product skips its 64-bit mask.
        masks = ((1 << self.left_bits) - 1, self._right_mask)
        self._forward_rounds = tuple((sk, masks[r % 2]) for r, sk in enumerate(self.subkeys))
        self._inverse_rounds = self._forward_rounds[::-1]

    @functools.cached_property
    def round_keys(self) -> np.ndarray:
        """The subkeys as a uint64 array, built on the first array call."""
        return np.array(self.subkeys, dtype=np.uint64)

    def forward(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise LabelSpaceError(f"label {x} outside [0, 2^{self.bits})")
        left, right = x >> self.right_bits, x & self._right_mask
        for sk, mask in self._forward_rounds:
            y = ((sk ^ right) + _GOLDEN) & _MASK64
            y ^= y >> 30
            y = (y * _MIX1) & _MASK64
            y ^= y >> 27
            y *= _MIX2
            left, right = right, (left ^ y ^ (y >> 31)) & mask
        return (left << self.right_bits) | right

    def inverse(self, y: int) -> int:
        if not 0 <= y < self.size:
            raise LabelSpaceError(f"label {y} outside [0, 2^{self.bits})")
        left, right = y >> self.right_bits, y & self._right_mask
        for sk, mask in self._inverse_rounds:
            z = ((sk ^ left) + _GOLDEN) & _MASK64
            z ^= z >> 30
            z = (z * _MIX1) & _MASK64
            z ^= z >> 27
            z *= _MIX2
            left, right = (right ^ z ^ (z >> 31)) & mask, left
        return (left << self.right_bits) | right

    # Vectorized twins (bit-identical to the scalar path; cross-checked by tests).
    # `round_keys` holds one subkey per round, or, in a `KeyedColumns` map, one
    # row of per-element subkeys per round.

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.uint64)
        wl, wr = self.left_bits, self.right_bits
        left, right = x >> np.uint64(wr), x & np.uint64((1 << wr) - 1)
        for sk in self.round_keys:
            new_right = _mix64_array(sk ^ right)
            new_right ^= left
            new_right &= np.uint64((1 << wl) - 1)
            left, right = right, new_right
            wl, wr = wr, wl
        return (left << np.uint64(wr)) | right


class KeyedColumns(FeistelPermutation):
    """Array paths only: element i of the input runs under its own key, whose
    subkeys are column i of `round_keys` (rounds x elements), so the labels of
    many oracles of one width come out of one `forward_array` call."""

    def __init__(self, bits: int, round_keys: np.ndarray):
        self.bits = bits
        self.left_bits = bits // 2
        self.right_bits = bits - self.left_bits
        self.round_keys = round_keys


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser of x + golden, in place: x must be an array the
    caller owns."""
    x += _GOLDEN_U64
    x ^= x >> _S30
    x *= _MIX1_U64
    x ^= x >> _S27
    x *= _MIX2_U64
    x ^= x >> _S31
    return x


class LabeledOracle:
    """Query-counted adjacency oracle over a pseudorandomly labeled instance."""

    def __init__(
        self,
        graph: Union[MainGraph, TreeGraph],
        key: bytes,
        padding_ratio: Optional[float] = None,
        label_bits: Optional[int] = None,
    ):
        self.graph = graph
        self.key = key
        if padding_ratio is None:
            params = getattr(graph, "params", None)
            padding_ratio = params.padding_ratio if params is not None else 2.0 ** -20
        if not 0 < padding_ratio <= 1:
            raise InputError(f"padding_ratio must lie in (0, 1]: {padding_ratio}")
        self.padding_ratio = padding_ratio
        n = graph.num_nonisolated
        if label_bits is None:
            label_bits = label_width(n, padding_ratio)
        if (1 << label_bits) < n:
            raise LabelSpaceError(
                f"2^{label_bits} labels cannot host a {n.bit_length()}-bit count of non-isolated vertices"
            )
        self.label_bits = label_bits
        self.num_labels = 1 << label_bits
        self.num_nonisolated = n
        self.padding_count = self.num_labels - n
        self.nonisolated_fraction = n / self.num_labels
        self.perm = FeistelPermutation(label_bits, key)
        # The index <-> label memo (module docstring); it grows with the labels
        # this oracle has handed out, like the transcript that holds them.
        self._label_at: dict[int, int] = {}
        self._index_at: dict[int, int] = {}
        self._answers: dict[int, tuple] = {}  # label -> its query's answer
        self.query_count = 0  # summed over the sessions that share this oracle
        self.sealed = False

    # -- trusted side --------------------------------------------------------

    def _label(self, index: int) -> int:
        label = self._label_at.get(index)
        if label is None:
            label = self._label_at[index] = self.perm.forward(index)
            self._index_at[label] = index
        return label

    def _index(self, label: int) -> int:
        index = self._index_at.get(label)
        if index is None:
            index = self._index_at[label] = self.perm.inverse(label)
            self._label_at[index] = label
        return index

    def label_of(self, v: Vertex) -> int:
        if isinstance(v, IsolatedVertex):
            if not 0 <= v.index < self.padding_count:
                raise InvalidVertexError(f"isolated index {v.index} out of range")
            return self._label(self.num_nonisolated + v.index)
        return self._label(self.graph.index_of(v))

    def indices_of(self, labels: Sequence[int]) -> list[int]:
        """Canonical indices of `labels` (the memo first); trusted post-hoc
        scoring only."""
        if self.sealed:
            raise RevealSealedError("the trusted side is sealed on this oracle")
        return [self._index(label) for label in labels]

    def reveal(self, label: int) -> Vertex:
        """Invert the labeling; trusted post-hoc scoring only."""
        idx = self.indices_of((label,))[0]
        if idx >= self.num_nonisolated:
            return IsolatedVertex(idx - self.num_nonisolated)
        return self.graph.vertex_at(idx)

    def seal(self):
        """Permanently disable the trusted side (`reveal`, `indices_of`); queries keep working."""
        self.sealed = True

    # -- query side ----------------------------------------------------------

    def query(self, label: int, neighbors: Optional[tuple] = None) -> tuple:
        """Sorted labels of the neighbors of the vertex behind `label`; empty
        for isolated labels.  Counts every call; a label asked before gets
        its memoized answer, the same tuple.  `neighbors` is the vertex's
        neighbour indices (() when isolated) when the caller has resolved
        them already, as the trial loop does; otherwise they come from the
        graph's index walk (`index_info`)."""
        self.query_count += 1
        answer = self._answers.get(label)
        if answer is None:
            if neighbors is None:
                idx = self._index(label)
                neighbors = () if idx >= self.num_nonisolated else self.graph.index_info(idx).neighbors
            have, label_of = self._label_at, self._label
            answer = tuple(sorted([have[j] if j in have else label_of(j) for j in neighbors]))
            self._answers[label] = answer
        return answer


# Below this many labels a batch maps each label with the scalar `forward`: one
# `forward_array` call costs about as much as 15 scalar labels, whatever its size
# up to a few hundred elements.
ARRAY_MIN_LABELS = 16


class OracleWindow:
    """Distinct oracles of one label width, one per trial of a window, whose
    memo misses are labeled together: one `forward_array` call per batch, each
    element under its own oracle's subkeys (a rounds x window matrix built once)."""

    def __init__(self, oracles: Sequence[LabeledOracle]):
        self.oracles = list(oracles)
        widths = {o.label_bits for o in self.oracles}
        if len(widths) != 1:
            raise LabelSpaceError(f"a window needs one label width, got {sorted(widths)}")
        self.bits = widths.pop()
        self._round_keys = np.array([o.perm.subkeys for o in self.oracles], dtype=np.uint64).T

    def resolve(self, rows: Sequence[int], labels: Sequence[int]) -> list[Optional[IndexInfo]]:
        """One step of the trial loop: each pending query `labels[i]` on oracle
        `rows[i]` resolved once, to its index (the memo) and that vertex's
        `IndexInfo` (the graph's walk cache; None when isolated).  Each
        neighbour (oracle, index) that the memos lack is labeled once, in one
        `label` call (the memo holds a miss as None until then), except for a
        label its oracle has answered before, whose query reads its answer."""
        oracles, wanted_rows, wanted, infos = self.oracles, [], [], []
        for row, label in zip(rows, labels):
            oracle = oracles[row]
            index = oracle._index(label)
            info = None
            if index < oracle.num_nonisolated:
                info = oracle.graph.index_info(index)
                if label not in oracle._answers:
                    have = oracle._label_at
                    for j in info.neighbors:
                        if j not in have:
                            have[j] = None
                            wanted_rows.append(row)
                            wanted.append(j)
            infos.append(info)
        self.label(wanted_rows, wanted)
        return infos

    def label(self, rows: Sequence[int], indices: Sequence[int]) -> None:
        """Memoize the label of `indices[i]` in oracle `rows[i]`; each pair must
        be missing from its memo, or held there as None, and appear once."""
        if len(indices) < ARRAY_MIN_LABELS:
            for row, index in zip(rows, indices):
                self.oracles[row]._label(index)
            return
        perm = KeyedColumns(self.bits, self._round_keys[:, rows])
        labels = perm.forward_array(np.array(indices, dtype=np.uint64)).tolist()
        for row, index, label in zip(rows, indices, labels):
            oracle = self.oracles[row]
            oracle._label_at[index] = label
            oracle._index_at[label] = index

    def label_inputs(self, draws: Sequence[Sequence[int]]) -> list[list[int]]:
        """Each oracle's drawn inputs (`input_draws`) as labels: the canonical
        indices that its memo lacks, across all rows, are labeled in one
        `label` call."""
        rows, wanted = [], []
        for row, (oracle, drawn) in enumerate(zip(self.oracles, draws)):
            have = oracle._label_at
            missing = dict.fromkeys(x for x in drawn if x not in have)
            rows.extend([row] * len(missing))
            wanted.extend(missing)
        self.label(rows, wanted)
        return [
            [oracle._label_at[x] for x in drawn]
            for oracle, drawn in zip(self.oracles, draws)
        ]


# ---------------------------------------------------------------------------
# guiding-state inputs
# ---------------------------------------------------------------------------

def input_draws(graph: Union[MainGraph, TreeGraph], kind: str, seed: int) -> Iterator[int]:
    """Deterministic i.i.d. stream of a guiding kind's inputs as canonical
    indices; no labeling key enters.  Kinds: "exact-ground-state" (the
    squared-amplitude distribution), "expander-uniform" and
    "single-fixed-root" (the tree's root, or core vertex 0); any other kind
    is an InputError at the first draw."""
    if kind == "single-fixed-root":
        while True:
            yield 0  # ranks are preorder, and a core vertex's index is its core index

    elif kind == "expander-uniform":
        if not isinstance(graph, MainGraph):
            raise ValueError("expander-uniform guiding needs a main-graph oracle")
        n_e, rng = graph.expander.N, random.Random(derive_seed("guiding", seed, kind))
        while True:
            yield below(rng.getrandbits, n_e)  # an expander vertex's index is its core index

    elif kind == "exact-ground-state":
        if not isinstance(graph, MainGraph):
            raise ValueError("ground-state guiding needs a main-graph oracle")
        sample, index_of = spectral.sampler_for_instance(graph).sample, graph.index_of
        rng = random.Random(derive_seed("guiding", seed, kind))
        while True:
            yield index_of(sample(rng))

    else:
        raise InputError(f"unknown guiding kind {kind!r}")
