"""Root-cause signatures: *why* two states are hardware-distinguishable.

Replays both states of a counterexample on instrumented cores (keeping the
full :class:`~repro.hw.core.ExecutionTrace`, the channel snapshot, and the
PMC deltas instead of just the platform's pass/fail verdict) and distils
the divergence into a :class:`RootCauseSignature`: which channel leaked,
which microarchitectural feature was active, the first event stream where
the two executions diverged, the attacker-visible cache sets that ended up
different, and whether the attacker region was page-aligned.  Signatures
are the clustering key of :mod:`repro.triage.cluster` — counterexamples
with equal keys are duplicates of the same model violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.cache import CacheSnapshot
from repro.hw.core import ExecutionTrace
from repro.hw.platform import (
    Channel,
    ExperimentPlatform,
    PlatformConfig,
    StateInputs,
)
from repro.hw.pmc import PerformanceCounters, PmcReading
from repro.hw.tlb import TlbSnapshot
from repro.isa.program import AsmProgram


@dataclass(frozen=True)
class RootCauseSignature:
    """The clustering identity of one counterexample.

    ``feature`` names the microarchitectural mechanism that produced the
    divergence (``prefetcher``, ``speculative-load``, ``demand-access``,
    ``replacement``, ``tlb-page``, ``variable-time``); ``first_divergence``
    names the earliest event stream in which the two executions differ.
    ``divergent_sets`` (attacker-visible cache sets whose final contents
    differ) and ``detail`` describe the concrete instance and are *not*
    part of the cluster key — individual witnesses of one root cause vary
    in which exact sets they touch.
    """

    channel: str
    feature: str
    first_divergence: str
    divergent_sets: Tuple[int, ...] = ()
    page_aligned: bool = False
    detail: str = ""

    def key(self) -> str:
        """The cluster key: coarse enough to merge duplicates."""
        alignment = "aligned" if self.page_aligned else "unaligned"
        return (
            f"{self.channel}/{self.feature}/"
            f"{self.first_divergence}/{alignment}"
        )

    def describe(self) -> str:
        text = self.key()
        if self.divergent_sets:
            sets = ",".join(str(s) for s in self.divergent_sets)
            text += f" sets={{{sets}}}"
        if self.detail:
            text += f" ({self.detail})"
        return text

    def to_json(self) -> Dict:
        return {
            "channel": self.channel,
            "feature": self.feature,
            "first_divergence": self.first_divergence,
            "divergent_sets": list(self.divergent_sets),
            "page_aligned": self.page_aligned,
            "detail": self.detail,
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "RootCauseSignature":
        return cls(
            channel=doc["channel"],
            feature=doc["feature"],
            first_divergence=doc["first_divergence"],
            divergent_sets=tuple(doc.get("divergent_sets", ())),
            page_aligned=doc["page_aligned"],
            detail=doc.get("detail", ""),
        )


@dataclass
class _Measurement:
    """One instrumented run: trace, channel snapshots, and PMC deltas."""

    trace: ExecutionTrace
    cache: CacheSnapshot
    tlb: TlbSnapshot
    cycles: int
    pmc: PmcReading


def _measure(
    platform: ExperimentPlatform,
    program: AsmProgram,
    inputs: StateInputs,
    train: Optional[StateInputs],
) -> _Measurement:
    """The platform's measurement protocol, instrumented.

    Runs on :meth:`ExperimentPlatform.prepared_core` — reset, trained,
    flushed — like every platform measurement, but keeps the execution
    trace, both channel snapshots, and the PMC delta of the measured run.
    """
    core = platform.prepared_core(program, train)
    pmc = PerformanceCounters(core)
    before = pmc.read()
    cycles_before = core.cycles
    trace = core.execute(program, inputs.to_machine_state())
    cache = core.cache.snapshot()
    if platform.config.attacker_sets is not None:
        cache = cache.restrict(platform.config.attacker_sets)
    return _Measurement(
        trace=trace,
        cache=cache,
        tlb=core.tlb.snapshot(),
        cycles=core.cycles - cycles_before,
        pmc=pmc.read().delta(before),
    )


def _visible_lines(
    addresses: List[int], config: PlatformConfig
) -> List[int]:
    """An address stream as the attacker sees it: line-granular, and
    restricted to the attacker-visible cache sets when the platform
    confines the attacker to a region.

    Raw addresses of two *model-equivalent* states differ routinely (the
    pair is equivalent in observations, not in values), so comparing raw
    streams would report a divergence on nearly every counterexample.
    Only line-granular effects inside the attacker's sets are leakage.
    """
    cache = config.core.cache
    sets = config.attacker_sets
    return [
        addr // cache.line_size
        for addr in addresses
        if sets is None or cache.set_index(addr) in sets
    ]


def _first_divergence(
    m1: _Measurement, m2: _Measurement, config: PlatformConfig
) -> Tuple[str, str]:
    """The earliest diverging attacker-visible event stream."""
    line_size = config.core.cache.line_size
    streams = [
        ("demand-load", m1.trace.load_addresses, m2.trace.load_addresses),
        ("demand-store", m1.trace.store_addresses, m2.trace.store_addresses),
        ("speculative-load", m1.trace.transient_loads, m2.trace.transient_loads),
        ("prefetch", m1.trace.prefetches, m2.trace.prefetches),
    ]
    for label, raw_a, raw_b in streams:
        a = _visible_lines(raw_a, config)
        b = _visible_lines(raw_b, config)
        if a == b:
            continue
        for index, (va, vb) in enumerate(zip(a, b)):
            if va != vb:
                return label, (
                    f"{label}[{index}]: line {hex(va * line_size)}"
                    f" vs {hex(vb * line_size)}"
                )
        return label, f"{label} count: {len(a)} vs {len(b)}"
    if m1.trace.mispredictions != m2.trace.mispredictions:
        return (
            "misprediction",
            f"mispredictions: {m1.trace.mispredictions} "
            f"vs {m2.trace.mispredictions}",
        )
    if m1.cycles != m2.cycles:
        return "timing", f"cycles: {m1.cycles} vs {m2.cycles}"
    differing = sorted(
        name
        for name, value in m1.pmc.counts.items()
        if m2.pmc.counts.get(name) != value
    )
    if differing:
        return "pmc", "pmc counters differ: " + ", ".join(differing)
    return "none", ""


def _divergent_sets(m1: _Measurement, m2: _Measurement) -> Tuple[int, ...]:
    return tuple(
        index
        for index, (tags1, tags2) in enumerate(
            zip(m1.cache.tags_per_set, m2.cache.tags_per_set)
        )
        if tags1 != tags2
    )


def _classify_feature(
    channel: Channel,
    m1: _Measurement,
    m2: _Measurement,
    divergent_sets: Tuple[int, ...],
    config: PlatformConfig,
) -> str:
    if channel is Channel.TIME:
        return "variable-time"
    if channel is Channel.TLB:
        return "tlb-page"
    if m1.trace.prefetches != m2.trace.prefetches:
        # The prefetcher is the cause only if its fills reach the
        # attacker-visible divergence (or the divergence is empty and the
        # prefetch streams are all we have to go on).
        set_index = config.core.cache.set_index
        prefetch_sets = {
            set_index(addr)
            for addr in m1.trace.prefetches + m2.trace.prefetches
        }
        if not divergent_sets or prefetch_sets.intersection(divergent_sets):
            return "prefetcher"
    if m1.trace.transient_loads != m2.trace.transient_loads:
        return "speculative-load"
    if _visible_lines(
        m1.trace.load_addresses, config
    ) != _visible_lines(m2.trace.load_addresses, config) or _visible_lines(
        m1.trace.store_addresses, config
    ) != _visible_lines(m2.trace.store_addresses, config):
        return "demand-access"
    return "replacement"


def region_page_aligned(config: PlatformConfig) -> bool:
    """Whether the attacker region starts on a page boundary (§6.2).

    An unrestricted platform (``attacker_sets is None``) is trivially
    aligned: the region is the whole cache, which starts at set 0.
    """
    sets = config.attacker_sets
    if not sets:
        return True
    page = config.core.prefetcher.page_size or config.core.tlb.page_size
    if not page:
        return True
    return (min(sets) * config.core.cache.line_size) % page == 0


def compute_signature(
    program: AsmProgram,
    state1: StateInputs,
    state2: StateInputs,
    train: Optional[StateInputs],
    config: PlatformConfig,
) -> RootCauseSignature:
    """Replay both states instrumented and distil the root cause."""
    platform = ExperimentPlatform(config)
    m1 = _measure(platform, program, state1, train)
    m2 = _measure(platform, program, state2, train)
    divergent = _divergent_sets(m1, m2)
    first, detail = _first_divergence(m1, m2, config)
    if config.channel is Channel.TLB and m1.tlb != m2.tlb:
        pages1 = sorted(m1.tlb.pages - m2.tlb.pages)
        pages2 = sorted(m2.tlb.pages - m1.tlb.pages)
        detail = (
            f"tlb pages only-in-s1={pages1} only-in-s2={pages2}; " + detail
        )
    return RootCauseSignature(
        channel=config.channel.value,
        feature=_classify_feature(config.channel, m1, m2, divergent, config),
        first_divergence=first,
        divergent_sets=divergent,
        page_aligned=region_page_aligned(config),
        detail=detail,
    )
