"""Pattern-history-table branch predictor (2-bit saturating counters)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class PredictorConfig:
    """PHT parameters.

    ``counter_bits`` — width of each saturating counter (2 on the A53-class
    cores this models).
    ``initial``      — initial counter value; the default (weakly not-taken)
    makes an untrained branch predict not-taken.
    """

    counter_bits: int = 2
    initial: int = 1
    entries: int = 512

    @property
    def max_counter(self) -> int:
        return (1 << self.counter_bits) - 1

    @property
    def taken_threshold(self) -> int:
        return 1 << (self.counter_bits - 1)


class BranchPredictor:
    """Per-PC table of saturating counters."""

    def __init__(self, config: Optional[PredictorConfig] = None):
        self.config = config or PredictorConfig()
        self._counters: Dict[int, int] = {}

    def reset(self) -> None:
        self._counters.clear()

    def counters(self) -> Dict[int, int]:
        """A copy of the trained entries (untrained ones are absent)."""
        return dict(self._counters)

    def load(self, counters: Dict[int, int]) -> None:
        """Replace the table with a copy of ``counters``."""
        self._counters = dict(counters)

    def _index(self, pc: int) -> int:
        return pc % self.config.entries

    def counter(self, pc: int) -> int:
        return self._counters.get(self._index(pc), self.config.initial)

    def predict(self, pc: int) -> bool:
        """Predicted outcome for the branch at ``pc`` (True = taken)."""
        return self.counter(pc) >= self.config.taken_threshold

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter with the resolved outcome."""
        index = self._index(pc)
        value = self._counters.get(index, self.config.initial)
        if taken:
            value = min(value + 1, self.config.max_counter)
        else:
            value = max(value - 1, 0)
        self._counters[index] = value
