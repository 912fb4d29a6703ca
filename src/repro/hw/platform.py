"""The experiment platform: the TrustZone module of §6.1, simulated.

For every experiment the platform

1. optionally trains the branch predictor by running the program
   ``training_runs`` times from a *training state* (§5.3), then clears the
   data cache, TLB and prefetcher stream state — only the predictor's
   counters survive into the measurement;
2. runs the program once from each of the two test states and reads the
   measured channel (for the cache, restricted to the attacker-visible
   sets);
3. repeats the measurement ``repetitions`` times (10 in the paper) and
   classifies the experiment: runs that disagree make it *inconclusive*;
   otherwise differing observations for the two states make it a
   *counterexample* (distinguishable) and equal ones a *pass*.

Measurement noise — interrupts, other masters on the SoC — is modelled as a
seeded random perturbation of an observation with probability
``noise_rate`` per measured run.  The simulator is deterministic and the
noise touches only the observation, so the platform simulates each state
once and applies the noise model per repetition, in the order the runs
would have happened (first state, then second, repetition by repetition).
Training is likewise simulated once per (program, training state): the
post-training state is kept in a small cache keyed by their contents, and
all runs share one core that is reset in between.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PlatformError
from repro.hw.cache import CacheSnapshot
from repro.hw.core import Core, CoreConfig
from repro.hw.state import MachineState, Memory
from repro.hw.tlb import TlbSnapshot
from repro.isa.program import AsmProgram
from repro.utils.rng import SplittableRandom


class Channel(enum.Enum):
    """Which side channel the platform measures (§2.3 extensibility).

    * ``DCACHE`` — the final data-cache state (the paper's experiments).
    * ``TLB``    — the final TLB state (resident pages).
    * ``TIME``   — the execution time in cycles (the PMC measurement; covers
      variable-time arithmetic and other timing channels).
    """

    DCACHE = "dcache"
    TLB = "tlb"
    TIME = "time"


@dataclass(frozen=True)
class StateInputs:
    """Concrete initial values for one test state."""

    regs: Dict[str, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)

    def to_machine_state(self) -> MachineState:
        return MachineState(regs=dict(self.regs), memory=Memory(dict(self.memory)))


class ExperimentOutcome(enum.Enum):
    PASS = "pass"  # indistinguishable: consistent with model soundness
    COUNTEREXAMPLE = "counterexample"  # distinguishable: model unsound
    INCONCLUSIVE = "inconclusive"  # runs disagreed; excluded from analysis


@dataclass
class ExperimentResult:
    """Outcome of one experiment (a pair of states on one program).

    ``snapshot1``/``snapshot2`` hold the channel observation of the first
    repetition: a :class:`CacheSnapshot`, a TLB snapshot, or a cycle count,
    depending on the platform's channel.
    """

    outcome: ExperimentOutcome
    snapshot1: object = None
    snapshot2: object = None

    @property
    def distinguishable(self) -> bool:
        return self.outcome is ExperimentOutcome.COUNTEREXAMPLE


@dataclass(frozen=True)
class PlatformConfig:
    """Platform parameters.

    ``attacker_sets`` restricts cache inspection to those set indices (the
    attacker-accessible partition for Mpart experiments); ``None`` exposes
    the whole cache (the Mct attacker who can Flush+Reload any line).
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    repetitions: int = 10
    training_runs: int = 8
    noise_rate: float = 0.0
    attacker_sets: Optional[Tuple[int, ...]] = None
    channel: Channel = Channel.DCACHE


#: Trained core states one platform keeps; the oldest is dropped first.
TRAIN_CACHE_SIZE = 64


def _train_key(program: AsmProgram, train: StateInputs) -> Tuple:
    """The contents a training outcome depends on."""
    return (
        program.instructions,
        tuple(sorted(program.labels.items())),
        tuple(sorted(train.regs.items())),
        tuple(sorted(train.memory.items())),
    )


class ExperimentPlatform:
    """Runs experiments on one simulated core, reset before every run."""

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        rng: Optional[SplittableRandom] = None,
    ):
        self.config = config or PlatformConfig()
        self.rng = rng or SplittableRandom(0)
        self.experiments_run = 0
        self._core = Core(self.config.core)
        self._trained: Dict[Tuple, Tuple] = {}

    def run_experiment(
        self,
        program: AsmProgram,
        state1: StateInputs,
        state2: StateInputs,
        train: Optional[StateInputs] = None,
    ) -> ExperimentResult:
        """Execute the full 2-state, N-repetition measurement protocol."""
        self.experiments_run += 1
        clean1 = self._measured_run(program, state1, train)
        clean2 = self._measured_run(program, state2, train)
        snaps1: List[object] = []
        snaps2: List[object] = []
        # Without measurement noise all repetitions are identical, so one
        # suffices.
        repetitions = self.config.repetitions if self.config.noise_rate else 1
        for _ in range(repetitions):
            snaps1.append(self._noisy(clean1))
            snaps2.append(self._noisy(clean2))
        if any(s != snaps1[0] for s in snaps1) or any(
            s != snaps2[0] for s in snaps2
        ):
            return ExperimentResult(
                ExperimentOutcome.INCONCLUSIVE, snaps1[0], snaps2[0]
            )
        if snaps1[0] != snaps2[0]:
            return ExperimentResult(
                ExperimentOutcome.COUNTEREXAMPLE, snaps1[0], snaps2[0]
            )
        return ExperimentResult(ExperimentOutcome.PASS, snaps1[0], snaps2[0])

    def prepared_core(
        self, program: AsmProgram, train: Optional[StateInputs]
    ) -> Core:
        """The platform's core, ready for a measured run of ``program``:
        reset, trained from ``train`` (if any) and flushed.

        The core is reused by the next call, so read what the run needs
        before preparing another.
        """
        core = self._core
        core.reset()
        if train is None:
            return core
        key = _train_key(program, train)
        retained = self._trained.get(key)
        if retained is not None:
            core.restore_retained(retained)
            return core
        for _ in range(self.config.training_runs):
            core.execute(program, train.to_machine_state())
        core.flush_all()
        if len(self._trained) >= TRAIN_CACHE_SIZE:
            del self._trained[next(iter(self._trained))]
        self._trained[key] = core.retained_state()
        return core

    def _measured_run(
        self,
        program: AsmProgram,
        inputs: StateInputs,
        train: Optional[StateInputs],
    ):
        """One noise-free measurement of the channel."""
        core = self.prepared_core(program, train)
        cycles_before = core.cycles
        core.execute(program, inputs.to_machine_state())
        return self._observe(core, core.cycles - cycles_before)

    def _noisy(self, observation):
        """One repetition's reading of a clean observation."""
        if self.config.noise_rate and self.rng.chance(self.config.noise_rate):
            return self._perturb(observation)
        return observation

    def _observe(self, core: Core, cycles: int):
        """Read the measured channel off the core (§2.3: per-channel
        executor extension)."""
        channel = self.config.channel
        if channel is Channel.DCACHE:
            snapshot = core.cache.snapshot()
            if self.config.attacker_sets is not None:
                snapshot = snapshot.restrict(self.config.attacker_sets)
            return snapshot
        if channel is Channel.TLB:
            return core.tlb.snapshot()
        if channel is Channel.TIME:
            return cycles
        raise PlatformError(f"unknown channel {channel!r}")

    def _perturb(self, observation):
        """Inject one measurement-noise event into an observation."""
        if isinstance(observation, CacheSnapshot):
            return self._perturb_cache(observation)
        if isinstance(observation, TlbSnapshot):
            return self._perturb_tlb(observation)
        if isinstance(observation, int):
            return observation + self.rng.randint(1, 5)
        raise PlatformError(f"cannot perturb {observation!r}")

    def _perturb_cache(self, snapshot: CacheSnapshot) -> CacheSnapshot:
        """Flip the presence of one random line in the visible snapshot."""
        if self.config.attacker_sets is not None:
            candidates: Sequence[int] = self.config.attacker_sets
        else:
            candidates = range(len(snapshot.tags_per_set))
        target_set = self.rng.choice(list(candidates))
        tags = set(snapshot.tags_per_set[target_set])
        if tags and self.rng.chance(0.5):
            tags.discard(self.rng.choice(sorted(tags)))
        else:
            tags.add(self.rng.randint(0, 255))
        updated = list(snapshot.tags_per_set)
        updated[target_set] = frozenset(tags)
        return CacheSnapshot(tuple(updated))

    def _perturb_tlb(self, snapshot: TlbSnapshot) -> TlbSnapshot:
        """Flip the presence of one page in the TLB snapshot."""
        pages = set(snapshot.pages)
        if pages and self.rng.chance(0.5):
            pages.discard(self.rng.choice(sorted(pages)))
        else:
            pages.add(self.rng.randint(0, 1 << 20))
        return TlbSnapshot(frozenset(pages))
