"""Sensitivity relations between signal nets.

Two nets are *sensitive* to each other when a switching event on one can make
the other malfunction; the *sensitivity rate* of a net is the fraction of
other signal nets it is sensitive to.  The paper's experiments draw this
relation at random at a fixed rate (30 % or 50 %) because the real relation
"depends on logic and physical implementation".

Storing an explicit aggressor set per net is fine for small designs but grows
quadratically, so two implementations of the same oracle interface are
provided:

* :class:`ExplicitSensitivity` — backed by a dictionary of aggressor sets
  (used by tests, small examples and hand-built cases);
* :class:`RandomPairwiseSensitivity` — a deterministic hash of the net-id
  pair decides sensitivity, so arbitrarily large netlists cost O(1) memory
  (used by the IBM-style benchmark generator).

Both consumers of a whole group — per-panel maps and the instance token —
go through :meth:`SensitivityOracle.sensitive_pairs`.  The base class keeps
the scalar double loop as the reference; the random oracle hashes blocks of
at most :data:`PAIR_BLOCK` pairs in numpy and returns the same pairs in the
same order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

import numpy as np

#: Most net pairs :class:`RandomPairwiseSensitivity` hashes in one numpy
#: block.  Bounds the temporary arrays of a whole-netlist call to a few
#: hundred kB instead of growing with the square of the net count.
PAIR_BLOCK = 4096


# numpy scalars, not Python ints: numpy 1.x promotes uint64 mixed with a
# Python int to float64, which would silently lose the low bits.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL_1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL_2 = np.uint64(0x94D049BB133111EB)
_SHIFT_27, _SHIFT_30, _SHIFT_31, _SHIFT_32 = (np.uint64(bits) for bits in (27, 30, 31, 32))
_TWO_64 = float(1 << 64)


def _mix_block(values: np.ndarray) -> np.ndarray:
    """:meth:`RandomPairwiseSensitivity._mix` over a ``uint64`` array."""
    with np.errstate(over="ignore"):
        values = values + _GOLDEN
        values = (values ^ (values >> _SHIFT_30)) * _MUL_1
        values = (values ^ (values >> _SHIFT_27)) * _MUL_2
        return values ^ (values >> _SHIFT_31)


class SensitivityOracle(ABC):
    """Query interface for the pairwise sensitivity relation."""

    @abstractmethod
    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        """True when the two nets are sensitive to each other."""

    @abstractmethod
    def rate_of(self, net_id: int, num_nets: int) -> float:
        """Sensitivity rate of a net given the total number of signal nets."""

    def aggressors_among(self, net_id: int, candidates: Iterable[int]) -> Set[int]:
        """The subset of ``candidates`` that are sensitive to ``net_id``."""
        return {
            candidate
            for candidate in candidates
            if candidate != net_id and self.are_sensitive(net_id, candidate)
        }

    def sensitive_pairs(self, ids: Iterable[int]) -> List[Tuple[int, int]]:
        """Every sensitive pair of a group of nets, in double-loop order.

        ``ids`` is de-duplicated in first-seen order; the result holds
        ``(ids[i], ids[j])`` for each sensitive ``i < j``, ordered by ``i``
        and then ``j``.  This scalar loop is the reference every override
        must reproduce exactly, order included.
        """
        ids = list(dict.fromkeys(ids))
        return [
            (net_a, net_b)
            for index, net_a in enumerate(ids)
            for net_b in ids[index + 1 :]
            if self.are_sensitive(net_a, net_b)
        ]

    def local_sensitivity_map(self, net_ids: Iterable[int]) -> Dict[int, Set[int]]:
        """Pairwise sensitivity restricted to a group of nets.

        This is what per-region SINO needs: the relation among the nets that
        actually share the region.  Each aggressor set is filled in
        :meth:`sensitive_pairs` order, so its iteration order — which greedy
        SINO's sums follow — is fixed by the oracle, not by the caller.
        """
        ids = list(dict.fromkeys(net_ids))
        mapping: Dict[int, Set[int]] = {net_id: set() for net_id in ids}
        for net_a, net_b in self.sensitive_pairs(ids):
            mapping[net_a].add(net_b)
            mapping[net_b].add(net_a)
        return mapping


class ExplicitSensitivity(SensitivityOracle):
    """Sensitivity stored as explicit aggressor sets (symmetrised)."""

    def __init__(self, aggressors: Mapping[int, Set[int]]) -> None:
        symmetric: Dict[int, Set[int]] = {}
        for net_id, others in aggressors.items():
            for other in others:
                if other == net_id:
                    continue
                symmetric.setdefault(net_id, set()).add(other)
                symmetric.setdefault(other, set()).add(net_id)
        self._aggressors: Dict[int, FrozenSet[int]] = {
            net_id: frozenset(others) for net_id, others in symmetric.items()
        }

    @classmethod
    def empty(cls) -> "ExplicitSensitivity":
        """An oracle under which no two nets are sensitive."""
        return cls({})

    def aggressors_of(self, net_id: int) -> FrozenSet[int]:
        """The full aggressor set of a net."""
        return self._aggressors.get(net_id, frozenset())

    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        if net_a == net_b:
            return False
        return net_b in self._aggressors.get(net_a, frozenset())

    def rate_of(self, net_id: int, num_nets: int) -> float:
        if num_nets <= 1:
            return 0.0
        return len(self._aggressors.get(net_id, frozenset())) / (num_nets - 1)

    def aggressors_among(self, net_id: int, candidates: Iterable[int]) -> Set[int]:
        known = self._aggressors.get(net_id, frozenset())
        return {candidate for candidate in candidates if candidate in known}


class RandomPairwiseSensitivity(SensitivityOracle):
    """Random sensitivity at a nominal rate, decided by a deterministic hash.

    Each unordered pair of net ids maps, together with the seed, through a
    64-bit mixing function to a uniform value in [0, 1); the pair is sensitive
    when that value falls below ``rate``.  The relation is therefore symmetric,
    reproducible, and needs no storage — exactly what the paper's "a signal
    net is sensitive to random 30 % of other signal nets" assumption requires
    at benchmark scale.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sensitivity rate must lie in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def _mix(self, value: int) -> int:
        # SplitMix64 finaliser: good avalanche behaviour, cheap, deterministic.
        value = (value + 0x9E3779B97F4A7C15) & self._MASK
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & self._MASK
        return (value ^ (value >> 31)) & self._MASK

    def _pair_value(self, net_a: int, net_b: int) -> float:
        low, high = (net_a, net_b) if net_a <= net_b else (net_b, net_a)
        mixed = self._mix((low << 32) ^ high ^ self._mix(self.seed))
        return mixed / float(1 << 64)

    def are_sensitive(self, net_a: int, net_b: int) -> bool:
        if net_a == net_b:
            return False
        return self._pair_value(net_a, net_b) < self.rate

    def sensitive_pairs(self, ids: Iterable[int]) -> List[Tuple[int, int]]:
        """The scalar reference's pairs, hashed in numpy blocks of whole rows.

        ``uint64`` arithmetic wraps exactly where :meth:`_mix` masks, and the
        float conversion rounds as ``int / float`` does, so every pair gets
        the bit-identical verdict of :meth:`are_sensitive`.
        """
        ids = list(dict.fromkeys(ids))
        if ids and not 0 <= min(ids) <= max(ids) <= self._MASK:
            return super().sensitive_pairs(ids)
        values = np.array(ids, dtype=np.uint64)
        seed = np.uint64(self._mix(self.seed))
        row_lengths = np.arange(len(ids) - 1, 0, -1)
        row_ends = np.cumsum(row_lengths)
        pairs: List[Tuple[int, int]] = []
        row = 0
        while row < len(row_lengths):
            # Whole rows up to PAIR_BLOCK pairs; a longer row goes alone.
            limit = row_ends[row] - row_lengths[row] + PAIR_BLOCK
            stop = max(row + 1, int(np.searchsorted(row_ends, limit, side="right")))
            lengths = row_lengths[row:stop]
            starts = np.cumsum(lengths) - lengths
            rows = np.arange(row, stop)
            left = np.repeat(rows, lengths)
            right = np.arange(int(lengths.sum())) + np.repeat(rows + 1 - starts, lengths)
            first, second = values[left], values[right]
            low, high = np.minimum(first, second), np.maximum(first, second)
            mixed = _mix_block((low << _SHIFT_32) ^ high ^ seed)
            hits = np.flatnonzero(mixed.astype(np.float64) / _TWO_64 < self.rate)
            pairs.extend(
                (ids[a], ids[b]) for a, b in zip(left[hits].tolist(), right[hits].tolist())
            )
            row = stop
        return pairs

    def rate_of(self, net_id: int, num_nets: int) -> float:
        # The expected rate equals the nominal rate; using the expectation
        # keeps full-chip budgeting O(1) per net.
        return self.rate
