"""Per-layer attribution, measured from outside the layers.

A traced campaign runs with the public functions of each ``src/repro``
layer replaced by timing wrappers installed from here; nothing inside
``src/`` opens a span.  Names are patched where the caller looks them up:
module-level names at the importing module (``repro.core.testgen.execute``,
``repro.pipeline.driver.record_shard``, ...), methods on the class, and
the ``generate``/``augment``/``constraints`` methods on the template,
model and coverage classes the config actually uses.

A layer's self time is its wrapped calls' duration minus the time spent in
wrapped calls they made.  Every wrapped interval nests inside the campaign,
so the layers' self times plus ``pipeline.residual_s`` (the campaign time
no wrapper covers: the shard loop, telemetry, record building) add up to
the traced ``campaign_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, in report order.
LAYERS: Tuple[str, ...] = (
    "hw.platform",
    "hw.core",
    "smt.solve",
    "smt.prepare",
    "obs",
    "symbolic",
    "core.relation",
    "gen",
    "core.coverage",
    "core.testgen",
    "pipeline.database",
    "runner.merge",
    "monitor.ledger",
)

#: Caches registered with ``repro.bir.intern`` whose hit rates are reported.
CACHES: Tuple[str, ...] = (
    "expr",
    "simplify",
    "compile",
    "rename",
    "prepare",
    "warm_start",
)

_MISSING = object()

# Called after a wrapped call returns, with (clock, args, result).
Observer = Callable[["LayerClock", tuple, object], None]


class LayerClock:
    """Calls, self time and outcome counts per layer over nested calls."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Outcome counts the observers record (``smt.solve.unsolved``, ...).
        self.counts: Dict[str, int] = defaultdict(int)
        # One accumulator per open wrapped call: time its wrapped children
        # took.
        self._children: List[float] = []

    def wrap(
        self, layer: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        calls, self_s, children = self.calls, self.self_s, self._children
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper


def _count_unsolved(clock: LayerClock, args: tuple, result) -> None:
    if result is None:
        clock.counts["smt.solve.unsolved"] += 1


def _count_delivered(clock: LayerClock, args: tuple, result) -> None:
    clock.counts["core.testgen.generate"] += 1
    if result is not None:
        clock.counts["core.testgen.delivered"] += 1


def _count_rows(clock: LayerClock, args: tuple, result) -> None:
    # record_shard(database, campaign_id, shard): one row per experiment.
    clock.counts["pipeline.database.rows"] += len(args[2].records)


def targets(config) -> List[Tuple[str, object, str, Optional[Observer]]]:
    """``(layer, owner, attribute, observer)`` for every wrapped name."""
    from repro.core import testgen
    from repro.core.relation import PairRelation, RelationSynthesizer
    from repro.hw.core import Core
    from repro.hw.platform import ExperimentPlatform
    from repro.monitor import ledger
    from repro.pipeline import driver
    from repro.pipeline.database import ExperimentDatabase
    from repro.smt.solver import ModelFinder

    template, model, coverage = (
        type(config.template),
        type(config.model),
        type(config.coverage),
    )
    return [
        ("hw.platform", ExperimentPlatform, "run_experiment", None),
        ("hw.core", Core, "execute", None),
        # ModelFinder.solve is prepare + solve_prepared, so both are seen.
        ("smt.solve", ModelFinder, "solve_prepared", _count_unsolved),
        ("smt.prepare", ModelFinder, "prepare", None),
        ("obs", testgen, "lift", None),
        ("obs", model, "augment", None),
        ("obs", testgen, "add_address_probes", None),
        ("symbolic", testgen, "execute", None),
        ("core.relation", RelationSynthesizer, "__init__", None),
        ("core.relation", RelationSynthesizer, "feasible_pairs", None),
        ("core.relation", PairRelation, "equivalence_constraints", None),
        ("core.relation", PairRelation, "refinement_constraints", None),
        ("gen", template, "generate", None),
        ("core.coverage", coverage, "constraints", None),
        ("core.coverage", coverage, "classify", None),
        ("core.testgen", testgen.TestCaseGenerator, "__init__", None),
        ("core.testgen", testgen.TestCaseGenerator, "generate",
         _count_delivered),
        ("pipeline.database", driver, "record_shard", _count_rows),
        ("pipeline.database", ExperimentDatabase, "add_campaign", None),
        ("pipeline.database", ExperimentDatabase, "record_coverage", None),
        ("runner.merge", driver, "merge_shard_results", None),
        # Late-imported by repro.runner.merge, so patched at its module.
        ("monitor.ledger", ledger, "merge_ledger_docs", None),
        ("monitor.ledger", ledger.CoverageLedger, "__init__", None),
        ("monitor.ledger", ledger.CoverageLedger, "record", None),
        ("monitor.ledger", ledger.CoverageLedger, "to_json", None),
    ]


class Installed:
    """Wrappers installed for one traced campaign; :meth:`uninstall`
    puts every original back (or removes the wrapper where the name was
    inherited)."""

    def __init__(self, config, clock: LayerClock):
        self._undo: List[Tuple[object, str, object]] = []
        try:
            for layer, owner, name, observe in targets(config):
                own = vars(owner).get(name, _MISSING)
                original = getattr(owner, name)
                if not callable(original) or isinstance(
                    own, (staticmethod, classmethod, property)
                ):
                    raise TypeError(f"cannot wrap {owner!r}.{name}")
                setattr(owner, name, clock.wrap(layer, original, observe))
                self._undo.append((owner, name, own))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


def metrics(clock: LayerClock, stats, campaign_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced campaign.

    ``stats`` is the campaign's ``CampaignStats``; ``campaign_s`` the
    traced campaign's host wall time.
    """
    from repro.bir import intern

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = clock.self_s[layer]
        out[f"{layer}.calls"] = clock.calls[layer]
    counts = clock.counts
    out["hw.sims_per_experiment"] = _ratio(
        clock.calls["hw.core"], clock.calls["hw.platform"]
    )
    out["hw.inconclusive_share"] = _ratio(
        stats.inconclusive, stats.experiments
    )
    out["smt.solve.unsolved_share"] = _ratio(
        counts["smt.solve.unsolved"], clock.calls["smt.solve"]
    )
    out["core.testgen.delivered_ratio"] = _ratio(
        counts["core.testgen.delivered"], counts["core.testgen.generate"]
    )
    out["pipeline.database.ms_per_row"] = _ratio(
        1000.0 * clock.self_s["pipeline.database"],
        counts["pipeline.database.rows"],
    )
    for cache in CACHES:
        out[f"bir.intern.{cache}.hit_rate"] = intern.hit_rate(
            cache, stats.cache_counters
        )
    out["pipeline.residual_s"] = campaign_s - sum(
        clock.self_s[layer] for layer in LAYERS
    )
    out["trace.campaign_s"] = campaign_s
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
