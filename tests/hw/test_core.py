"""Unit tests for the simulated core: ISA semantics and speculation."""

import pytest

from repro.errors import HardwareError
from repro.hw.cache import CacheConfig
from repro.hw.core import Core, CoreConfig
from repro.hw.pmc import PerformanceCounters
from repro.hw.state import MachineState, Memory
from repro.isa.assembler import assemble
from tests.conftest import (
    RUNNING_EXAMPLE,
    STRIDE,
    TEMPLATE_A,
    TEMPLATE_C,
    TEMPLATE_D,
)


def run(src, regs=None, memory=None, config=None):
    core = Core(config or CoreConfig())
    state = MachineState(regs=regs or {}, memory=Memory(memory or {}))
    trace = core.execute(assemble(src), state)
    return core, state, trace


class TestIsaSemantics:
    def test_mov_and_alu(self):
        _, state, _ = run(
            "mov x1, #5\nadd x2, x1, #3\nsub x3, x2, x1\n"
            "and x4, x2, #0xF\norr x5, x1, #0x10\neor x6, x1, x1\n"
            "lsl x7, x1, #2\nlsr x8, x7, #1\nret"
        )
        assert state.regs["x2"] == 8
        assert state.regs["x3"] == 3
        assert state.regs["x4"] == 8
        assert state.regs["x5"] == 0x15
        assert state.regs["x6"] == 0
        assert state.regs["x7"] == 20
        assert state.regs["x8"] == 10

    def test_load_and_store(self):
        _, state, _ = run(
            "str x1, [x2]\nldr x3, [x2]\nldr x4, [x2, #8]\nret",
            regs={"x1": 0xAB, "x2": 0x1000},
            memory={0x1008: 7},
        )
        assert state.regs["x3"] == 0xAB
        assert state.regs["x4"] == 7

    def test_wrapping_address_arithmetic(self):
        _, state, _ = run(
            "ldr x1, [x2, x3]\nret",
            regs={"x2": 2**64 - 8, "x3": 8 + 0x40},
            memory={0x40: 5},
        )
        assert state.regs["x1"] == 5

    def test_branch_taken_and_not_taken(self):
        src = "cmp x0, x1\nb.ge skip\nmov x2, #1\nskip:\nret"
        _, taken, _ = run(src, regs={"x0": 5, "x1": 3})
        assert taken.regs["x2"] == 0
        _, fall, _ = run(src, regs={"x0": 1, "x1": 3})
        assert fall.regs["x2"] == 1

    def test_signed_conditions(self):
        src = "cmp x0, x1\nb.lt neg\nmov x2, #1\nneg:\nret"
        _, state, _ = run(src, regs={"x0": 2**64 - 1, "x1": 0})  # -1 < 0
        assert state.regs["x2"] == 0

    def test_tst_and_ne(self):
        src = "tst x0, #0x80\nb.ne flagged\nmov x2, #1\nflagged:\nret"
        _, state, _ = run(src, regs={"x0": 0x80})
        assert state.regs["x2"] == 0
        _, state, _ = run(src, regs={"x0": 0x7F})
        assert state.regs["x2"] == 1

    def test_unconditional_branch(self):
        _, state, _ = run("b over\nmov x1, #1\nover:\nret")
        assert state.regs["x1"] == 0

    def test_runaway_program_guarded(self):
        core = Core(CoreConfig(max_steps=100))
        with pytest.raises(HardwareError):
            core.execute(assemble("loop:\nb loop"), MachineState())

    def test_trace_records_pcs_and_loads(self):
        _, _, trace = run("ldr x1, [x0]\nret", regs={"x0": 0x1000})
        assert trace.executed_pcs == [0, 1]
        assert trace.load_addresses == [0x1000]


class TestCacheIntegration:
    def test_loads_fill_cache(self):
        core, _, _ = run("ldr x1, [x0]\nret", regs={"x0": 0x1000})
        assert core.cache.contains(0x1000)

    def test_stride_triggers_prefetch(self):
        core, _, trace = run(
            "ldr x1, [x0]\nldr x2, [x0, #0x40]\nldr x3, [x0, #0x80]\nret",
            regs={"x0": 0x1000},
        )
        assert trace.prefetches == [0x10C0]
        assert core.cache.contains(0x10C0)

    def test_cycle_counting_hit_vs_miss(self):
        cfg = CoreConfig()
        core1, _, _ = run("ldr x1, [x0]\nret", regs={"x0": 0x1000}, config=cfg)
        core2, _, _ = run(
            "ldr x1, [x0]\nldr x2, [x0]\nret", regs={"x0": 0x1000}, config=cfg
        )
        # Second load hits: cheaper than another miss.
        assert core2.cycles < 2 * core1.cycles

    def test_timed_access_distinguishes_hit_miss(self):
        core = Core()
        miss = core.timed_access(0x3000)  # cold: TLB miss + cache miss
        hit = core.timed_access(0x3000)
        assert miss == core.config.miss_latency + core.config.tlb_miss_latency
        assert hit == core.config.hit_latency

    def test_flush_line(self):
        core = Core()
        core.timed_access(0x3000)
        core.flush_line(0x3000)
        assert core.timed_access(0x3000) == core.config.miss_latency


class TestSpeculation:
    SPEC_SRC = """
        cmp x0, x1
        b.ge end
        ldr x6, [x5, x2]
    end:
        ret
    """

    def _trained_core(self, taken: bool):
        """A core whose predictor expects the branch at pc=1."""
        core = Core()
        for _ in range(4):
            core.predictor.update(1, taken)
        return core

    def test_correct_prediction_no_transient(self):
        core = self._trained_core(taken=True)
        state = MachineState(regs={"x0": 9, "x1": 1, "x5": 0x2000, "x2": 0})
        trace = core.execute(assemble(self.SPEC_SRC), state)
        assert trace.mispredictions == 0
        assert trace.transient_loads == []

    def test_misprediction_issues_transient_load(self):
        core = self._trained_core(taken=False)
        state = MachineState(regs={"x0": 9, "x1": 1, "x5": 0x2000, "x2": 0x40})
        trace = core.execute(assemble(self.SPEC_SRC), state)
        assert trace.mispredictions == 1
        assert trace.transient_loads == [0x2040]
        assert core.cache.contains(0x2040)

    def test_transient_load_does_not_change_registers(self):
        core = self._trained_core(taken=False)
        state = MachineState(
            regs={"x0": 9, "x1": 1, "x5": 0x2000, "x2": 0x40},
            memory=Memory({0x2040: 0xDEAD}),
        )
        core.execute(assemble(self.SPEC_SRC), state)
        assert state.regs["x6"] == 0  # squashed

    def test_no_forwarding_blocks_dependent_load(self):
        src = """
            cmp x0, x1
            b.ge end
            ldr x6, [x5, x3]
            ldr x8, [x7, x6]
        end:
            ret
        """
        core = self._trained_core(taken=False)
        state = MachineState(
            regs={"x0": 9, "x1": 1, "x5": 0x2000, "x3": 0, "x7": 0x3000}
        )
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == [0x2000]  # second never issues

    def test_forwarding_ablation_enables_dependent_load(self):
        src = """
            cmp x0, x1
            b.ge end
            ldr x6, [x5, x3]
            ldr x8, [x7, x6]
        end:
            ret
        """
        core = Core(CoreConfig(forward_speculative_results=True))
        for _ in range(4):
            core.predictor.update(1, False)
        state = MachineState(
            regs={"x0": 9, "x1": 1, "x5": 0x2000, "x3": 0, "x7": 0x3000},
            memory=Memory({0x2000: 0x40}),
        )
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == [0x2000, 0x3040]

    def test_second_independent_load_requires_first_hit(self):
        src = """
            cmp x0, x1
            b.ge end
            ldr x6, [x5, x3]
            ldr x8, [x7, x4]
        end:
            ret
        """
        regs = {"x0": 9, "x1": 1, "x5": 0x2000, "x3": 0, "x7": 0x3000, "x4": 0}
        # Cold cache: first transient load misses, LSU busy, second skipped.
        core = self._trained_core(taken=False)
        trace = core.execute(assemble(src), MachineState(regs=dict(regs)))
        assert trace.transient_loads == [0x2000]
        # Warm cache: first hits, second issues.
        core = self._trained_core(taken=False)
        core.cache.access(0x2000)
        trace = core.execute(assemble(src), MachineState(regs=dict(regs)))
        assert trace.transient_loads == [0x2000, 0x3000]

    def test_transient_window_bounded(self):
        body = "\n".join("nop" for _ in range(20)) + "\nldr x6, [x5, x2]"
        src = f"cmp x0, x1\nb.ge end\n{body}\nend:\nret"
        core = self._trained_core(taken=False)
        state = MachineState(regs={"x0": 9, "x1": 1, "x5": 0x2000, "x2": 0})
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == []  # beyond the window

    def test_transient_mov_feeds_load_address(self):
        # SiSCLoak v1 shape: an immediate mov inside the transient window
        # provides the base address; the load still issues.
        src = """
            cmp x0, x1
            b.hs end
            mov x6, #0x3000
            ldr x3, [x6, x2]
        end:
            ret
        """
        core = self._trained_core(taken=False)
        state = MachineState(regs={"x0": 9, "x1": 1, "x2": 0x40})
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == [0x3040]

    def test_transient_store_has_no_effect(self):
        src = """
            cmp x0, x1
            b.ge end
            str x2, [x5]
        end:
            ret
        """
        core = self._trained_core(taken=False)
        state = MachineState(regs={"x0": 9, "x1": 1, "x5": 0x2000, "x2": 7})
        core.execute(assemble(src), state)
        assert state.memory.read(0x2000) == 0
        assert not core.cache.contains(0x2000)

    def test_no_straight_line_speculation_by_default(self):
        src = "b end\nldr x1, [x2]\nend:\nret"
        core = Core()
        state = MachineState(regs={"x2": 0x4000})
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == []
        assert not core.cache.contains(0x4000)

    def test_straight_line_speculation_ablation(self):
        src = "b end\nldr x1, [x2]\nend:\nret"
        core = Core(CoreConfig(straight_line_speculation=True))
        state = MachineState(regs={"x2": 0x4000})
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == [0x4000]

    def test_nested_branch_stops_transient_window(self):
        src = """
            cmp x0, x1
            b.ge end
            b.ge also
            ldr x6, [x5]
        also:
            nop
        end:
            ret
        """
        core = self._trained_core(taken=False)
        state = MachineState(regs={"x0": 9, "x1": 1, "x5": 0x2000})
        trace = core.execute(assemble(src), state)
        assert trace.transient_loads == []


class TestReset:
    """A reset core is indistinguishable from ``Core(config)``."""

    PROGRAMS = [RUNNING_EXAMPLE, TEMPLATE_A, TEMPLATE_C, STRIDE, TEMPLATE_D]
    #: Speculation-triggering inputs for every register the programs read.
    REGS = {
        "x0": 9, "x1": 1, "x2": 0x2000, "x3": 0x40, "x4": 0,
        "x5": 0x6000, "x6": 0x80, "x7": 0x8000,
    }
    CONFIGS = [
        CoreConfig(),
        CoreConfig(
            l2=CacheConfig(sets=16, ways=2, replacement="random"),
            straight_line_speculation=True,
        ),
    ]

    def measure(self, core, src):
        pmc = PerformanceCounters(core)
        before = pmc.read()
        trace = core.execute(
            assemble(src), MachineState(regs=dict(self.REGS))
        )
        l2 = core.hierarchy.l2_snapshot()
        return (
            trace,
            core.cycles,
            core.cache.snapshot(),
            core.cache.resident_lines(),
            l2,
            core.tlb.snapshot(),
            pmc.read(),
            pmc.read().delta(before),
        )

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("src", PROGRAMS)
    def test_reset_core_matches_fresh_core(self, config, src):
        used = Core(config)
        # Train every program's branch towards taken (a fresh predictor
        # says not-taken) and fill the L1, L2 and TLB.
        for other in self.PROGRAMS:
            for _ in range(4):
                used.execute(
                    assemble(other),
                    MachineState(regs={"x0": 9, "x1": 9, "x2": 0, "x4": 0}),
                )
        used.timed_access(0x123440)
        assert used.predictor.counters()
        assert len(used.hierarchy.l2_snapshot() or used.cache.snapshot())
        used.reset()
        assert self.measure(used, src) == self.measure(Core(config), src)

    def test_retained_state_restores_a_flushed_core(self):
        config = self.CONFIGS[1]
        trained = Core(config)
        for _ in range(8):
            trained.execute(assemble(TEMPLATE_A), MachineState(regs={"x4": 7}))
        trained.flush_all()
        restored = Core(config)
        restored.timed_access(0x4000)
        restored.reset()
        restored.restore_retained(trained.retained_state())
        assert self.measure(restored, TEMPLATE_A) == self.measure(
            trained, TEMPLATE_A
        )
