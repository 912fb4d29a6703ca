"""Differential test of the measurement protocol.

``ExperimentPlatform.run_experiment`` simulates each state once, trains
once per (program, training state) and reuses one core.  The reference
below is the protocol spelled out run by run: for every repetition and
every state a freshly built core is trained from scratch, flushed and
measured, and the noise model is drawn right after that run.  Both must
agree on the outcome, on both observations, and on the state the
platform's RNG is left in.
"""

import itertools

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.gen.templates import TemplateA, TemplateD
from repro.hw.cache import CacheConfig
from repro.hw.core import Core, CoreConfig
from repro.hw.platform import (
    Channel,
    ExperimentOutcome,
    ExperimentPlatform,
    ExperimentResult,
    PlatformConfig,
    StateInputs,
    TRAIN_CACHE_SIZE,
)
from repro.isa.assembler import assemble
from repro.utils.rng import SplittableRandom


def reference_experiment(platform, program, state1, state2, train=None):
    """The run-by-run protocol: 2 states x N repetitions x (training runs
    + 1 measured run), each on a fresh core."""
    config = platform.config

    def measured_run(inputs):
        core = Core(config.core)
        if train is not None:
            for _ in range(config.training_runs):
                core.execute(program, train.to_machine_state())
        core.flush_all()
        cycles_before = core.cycles
        core.execute(program, inputs.to_machine_state())
        observation = platform._observe(core, core.cycles - cycles_before)
        if config.noise_rate and platform.rng.chance(config.noise_rate):
            observation = platform._perturb(observation)
        return observation

    snaps1, snaps2 = [], []
    repetitions = config.repetitions if config.noise_rate else 1
    for _ in range(repetitions):
        snaps1.append(measured_run(state1))
        snaps2.append(measured_run(state2))
    if any(s != snaps1[0] for s in snaps1) or any(
        s != snaps2[0] for s in snaps2
    ):
        return ExperimentResult(ExperimentOutcome.INCONCLUSIVE, snaps1[0], snaps2[0])
    if snaps1[0] != snaps2[0]:
        return ExperimentResult(
            ExperimentOutcome.COUNTEREXAMPLE, snaps1[0], snaps2[0]
        )
    return ExperimentResult(ExperimentOutcome.PASS, snaps1[0], snaps2[0])


def assert_equivalent(config, experiments, rng_seed=11):
    """Run ``experiments`` in order on one platform and on the reference;
    every result and the RNG's next draw must agree."""
    platform = ExperimentPlatform(config, SplittableRandom(rng_seed))
    reference = ExperimentPlatform(config, SplittableRandom(rng_seed))
    outcomes = []
    for program, state1, state2, train in experiments:
        got = platform.run_experiment(program, state1, state2, train)
        want = reference_experiment(reference, program, state1, state2, train)
        assert got.outcome is want.outcome
        assert got.snapshot1 == want.snapshot1
        assert got.snapshot2 == want.snapshot2
        outcomes.append(got.outcome)
    assert platform.rng.getrandbits(64) == reference.rng.getrandbits(64)
    return outcomes


#: Template A with fixed registers: the body load runs transiently when
#: the predictor was trained towards it.
TEMPLATE_A_SRC = """
    ldr x2, [x0, x1]
    cmp x1, x4
    b.ge end
    ldr x6, [x5, x2]
end:
    ret
"""
TEMPLATE_A = assemble(TEMPLATE_A_SRC, name="templateA")

#: Five lines into one 4-way set, so the replacement policy picks victims.
CONFLICT = assemble(
    """
        ldr x1, [x0]
        ldr x2, [x0, #0x2000]
        ldr x3, [x0, #0x4000]
        ldr x4, [x0, #0x6000]
        cmp x9, x10
        b.ge end
        ldr x6, [x0, #0x8000]
        ldr x7, [x5]
    end:
        ret
    """,
    name="conflict",
)

TRAIN_BODY = StateInputs(regs={"x1": 0, "x4": 8, "x9": 0, "x10": 8})
TRAIN_SKIP = StateInputs(regs={"x1": 9, "x4": 1, "x9": 9, "x10": 1})


def skip_state(x5):
    """Body skipped architecturally; the transient load reads ``x5``."""
    return StateInputs(
        regs={"x0": 0x1000, "x1": 9, "x4": 1, "x5": x5, "x9": 9, "x10": 1},
        memory={0x1009: 0x40},
    )


def body_state(x5):
    return StateInputs(
        regs={"x0": 0x3000, "x1": 0, "x4": 8, "x5": x5, "x9": 0, "x10": 8},
        memory={0x3000: 0x80},
    )


#: Without training, with each training state, repeated calls sharing one
#: training state (served from the platform's cache), identical states,
#: and a training state switched back to after another one.
EXPERIMENTS = [
    (TEMPLATE_A, skip_state(0x2000), skip_state(0x6000), None),
    (TEMPLATE_A, skip_state(0x2000), skip_state(0x6000), TRAIN_BODY),
    (TEMPLATE_A, skip_state(0x2000), skip_state(0x6000), TRAIN_SKIP),
    (TEMPLATE_A, body_state(0x2000), body_state(0x6040), TRAIN_BODY),
    (TEMPLATE_A, skip_state(0x8000), skip_state(0x8000), TRAIN_BODY),
    (CONFLICT, skip_state(0x2000), body_state(0x6000), None),
    (CONFLICT, body_state(0x2000), body_state(0x2000), TRAIN_SKIP),
    (CONFLICT, body_state(0x2000), skip_state(0x7000), TRAIN_BODY),
    (CONFLICT, skip_state(0x2000), skip_state(0x7000), TRAIN_BODY),
    (TEMPLATE_A, skip_state(0x2000), skip_state(0x6000), TRAIN_BODY),
]

ATTACKER_SETS = tuple(range(0, 128, 2))


@pytest.mark.parametrize(
    "channel, attacker_sets, noise_rate, replacement, l2",
    list(
        itertools.product(
            [Channel.DCACHE, Channel.TLB, Channel.TIME],
            [None, ATTACKER_SETS],
            [0.0, 0.001, 0.5],
            ["lru", "plru", "random"],
            [False, True],
        )
    ),
)
def test_matches_run_by_run_protocol(
    channel, attacker_sets, noise_rate, replacement, l2
):
    core = CoreConfig(
        cache=CacheConfig(replacement=replacement, replacement_seed=3),
        l2=CacheConfig(sets=16, ways=2, replacement=replacement) if l2 else None,
    )
    config = PlatformConfig(
        core=core,
        noise_rate=noise_rate,
        attacker_sets=attacker_sets,
        channel=channel,
    )
    assert_equivalent(config, EXPERIMENTS)


def test_noise_perturbs_and_training_distinguishes():
    """The cases above exercise what they claim: training towards the
    branch suppresses the misprediction that leaks, and heavy noise makes
    experiments inconclusive."""
    quiet = assert_equivalent(PlatformConfig(), EXPERIMENTS[:3])
    assert quiet == [
        ExperimentOutcome.COUNTEREXAMPLE,
        ExperimentOutcome.COUNTEREXAMPLE,
        ExperimentOutcome.PASS,
    ]
    noisy = assert_equivalent(PlatformConfig(noise_rate=0.5), EXPERIMENTS)
    assert ExperimentOutcome.INCONCLUSIVE in noisy


def test_training_is_simulated_once_per_train_state(monkeypatch):
    calls = []
    execute = Core.execute

    def counting(self, program, state):
        calls.append(program.name)
        return execute(self, program, state)

    monkeypatch.setattr(Core, "execute", counting)
    platform = ExperimentPlatform(PlatformConfig(noise_rate=0.5))
    for _ in range(3):
        platform.run_experiment(
            TEMPLATE_A, skip_state(0x2000), skip_state(0x6000), TRAIN_BODY
        )
    # 8 training runs once, then 2 measured runs per experiment.
    assert len(calls) == 8 + 3 * 2


#: The same instructions under two label tables: ``skip`` decides whether
#: the ``mov`` clears x0 before the second branch, and with it which way
#: training pushes that branch.
TWO_BRANCHES = """
    cmp x0, x1
    b.ge skip
{before_mov}
    mov x0, #0
{after_mov}
    cmp x0, x1
    b.ge end
    ldr x6, [x5]
end:
    ret
"""
SKIP_MOV = assemble(
    TWO_BRANCHES.format(before_mov="", after_mov="skip:"), name="skip-mov"
)
RUN_MOV = assemble(
    TWO_BRANCHES.format(before_mov="skip:", after_mov=""), name="run-mov"
)

#: A branch on a loaded value: training states differing only in memory
#: train it in opposite directions.
LOADED_BRANCH = assemble(
    """
        ldr x2, [x0]
        cmp x2, x1
        b.ge end
        ldr x6, [x5]
    end:
        ret
    """,
    name="loaded-branch",
)


def test_train_cache_tells_apart_labels_and_memory():
    taken = StateInputs(regs={"x0": 0x100, "x1": 5}, memory={0x100: 9})
    not_taken = StateInputs(regs={"x0": 0x100, "x1": 5})
    assert SKIP_MOV.instructions == RUN_MOV.instructions
    assert SKIP_MOV.labels != RUN_MOV.labels

    def leaky(x5):
        return StateInputs(
            regs={"x0": 0x100, "x1": 5, "x5": x5}, memory={0x100: 9}
        )

    experiments = [
        (LOADED_BRANCH, leaky(0x2000), leaky(0x6000), not_taken),
        (LOADED_BRANCH, leaky(0x2000), leaky(0x6000), taken),
        (RUN_MOV, leaky(0x2000), leaky(0x6000), taken),
        (SKIP_MOV, leaky(0x2000), leaky(0x6000), taken),
    ]
    assert assert_equivalent(PlatformConfig(), experiments) == [
        ExperimentOutcome.COUNTEREXAMPLE,
        ExperimentOutcome.PASS,
        ExperimentOutcome.COUNTEREXAMPLE,
        ExperimentOutcome.PASS,
    ]


def test_train_cache_keys_on_content_and_stays_bounded():
    platform = ExperimentPlatform(PlatformConfig())
    # Equal contents under another name and in fresh objects share a key.
    copy = assemble(TEMPLATE_A_SRC, name="another-name")
    platform.prepared_core(TEMPLATE_A, TRAIN_BODY)
    platform.prepared_core(copy, StateInputs(regs=dict(TRAIN_BODY.regs)))
    assert len(platform._trained) == 1
    for x1 in range(TRAIN_CACHE_SIZE + 5):
        platform.prepared_core(TEMPLATE_A, StateInputs(regs={"x1": x1}))
    assert len(platform._trained) == TRAIN_CACHE_SIZE


# -- generated programs, random states ---------------------------------------

values = st.sampled_from([0, 1, 8, 0x40, 0x1000, 0x2000, 0x2040, 0x7FC0])


@st.composite
def state_inputs(draw, program):
    regs = {
        reg.name: draw(values) + draw(st.integers(0, 3)) * 0x2000
        for reg in program.registers_used()
    }
    memory = draw(st.dictionaries(values, values, max_size=3))
    return StateInputs(regs=regs, memory=memory)


@st.composite
def generated_experiment(draw):
    template = draw(st.sampled_from([TemplateA(), TemplateD()]))
    program = template.generate(SplittableRandom(draw(st.integers(0, 999)))).asm
    train = draw(st.one_of(st.none(), state_inputs(program)))
    return program, draw(state_inputs(program)), draw(state_inputs(program)), train


@seed(20211018)
@settings(max_examples=60, deadline=None, database=None)
@given(
    experiments=st.lists(generated_experiment(), min_size=1, max_size=3),
    channel=st.sampled_from(list(Channel)),
    noise_rate=st.sampled_from([0.0, 0.5]),
    straight_line=st.booleans(),
)
def test_generated_programs_match_run_by_run_protocol(
    experiments, channel, noise_rate, straight_line
):
    config = PlatformConfig(
        core=CoreConfig(straight_line_speculation=straight_line),
        noise_rate=noise_rate,
        channel=channel,
    )
    assert_equivalent(config, experiments)
