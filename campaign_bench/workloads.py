"""The campaign benchmark's workloads and their output checks.

Each workload is one paper column, built with
``repro.exps.registry.build_experiment`` at a fixed, checked-in scale.  The
seed comes from the command line; the program receives only the generated
:class:`~repro.pipeline.config.CampaignConfig`.

Why these three (BENCHMARK.json carries the one-line form):

* ``mct-a-refined`` — Table 1 Mct Template A under Mspec.  The simulated
  hardware does nearly all the work (180 ``Core.execute`` calls per
  experiment); it exercises the hardware hot spot and barely touches the
  solver.
* ``straightline-many`` — the Fig. 7 Mct TD / Mspec' column: many small
  programs, two tests each, recorded into a fresh on-disk database.  Work
  is spread over the per-program front end, solver, simulator,
  persistence and merge, so a change tuned to one hot spot that costs the
  rest shows here.  The paper's expected result is zero counterexamples.
* ``mpart-refined`` — Table 1 Mpart under Mpart' with Mline coverage.  The
  solver does nearly all the work, most of it on queries that exhaust
  their restarts.  Its cost per test is heavy-tailed across seeds (one
  seed's campaign can take half again as long as another's), so at a scale
  that fits one run it cannot meet the spread bounds BENCHMARK.json fixes;
  it is runnable by name and covered by the self-test, but not listed in
  BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registry experiment at a fixed scale."""

    name: str
    experiment: str
    refined: bool
    programs: int
    tests: int
    #: The ``ExperimentOutcome`` value that is this column's paper
    #: finding: ``findings_per_s`` counts experiments with this outcome.
    finding: str
    #: Record into a fresh on-disk ``ExperimentDatabase`` (as ``fig7 --db``
    #: and the service orchestrator do).
    database: bool = False

    @property
    def requested(self) -> int:
        """Tests the campaign is asked for."""
        return self.programs * self.tests


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mct-a-refined", "mct-a", True, 32, 12, "counterexample"),
        Workload(
            "straightline-many", "straightline", False, 600, 2, "pass",
            database=True,
        ),
        Workload("mpart-refined", "mpart", True, 12, 4, "counterexample"),
    )
}


def check(workload: Workload, summary: Dict) -> List[str]:
    """Paper-level checks on one campaign's summary; returns failures.

    ``summary`` is what :mod:`campaign` prints for one campaign.
    """
    counters = summary["counters"]
    experiments = counters["experiments"]
    cex = counters["counterexamples"]
    failures = []
    if counters["programs"] != workload.programs:
        failures.append(
            f"ran {counters['programs']} programs, asked for "
            f"{workload.programs}"
        )
    if workload.name == "mct-a-refined":
        # Table 1: Template A under Mspec finds a counterexample in every
        # program, in most experiments.
        if counters["programs_with_counterexamples"] != counters["programs"]:
            failures.append(
                f"{counters['programs_with_counterexamples']} of "
                f"{counters['programs']} programs have a counterexample"
            )
        if experiments == 0 or cex / experiments <= 0.5:
            failures.append(
                f"counterexample rate {cex}/{experiments} is not above 0.5"
            )
    elif workload.name == "mpart-refined":
        if cex == 0:
            failures.append("no counterexample")
    elif workload.name == "straightline-many":
        # Fig. 7: Mspec' is sound for straight-line code.
        if cex != 0:
            failures.append(f"{cex} counterexamples, expected none")
        if summary["db_experiments"] != experiments:
            failures.append(
                f"database holds {summary['db_experiments']} experiments, "
                f"campaign ran {experiments}"
            )
    return failures
