"""The simulated Cortex-A53 core: in-order execution with a data cache,
stride prefetcher, branch predictor, and bounded non-forwarding speculation.

Speculation model (§6.4-§6.5 behaviours):

* On a mispredicted conditional branch the core transiently executes up to
  ``spec_window`` wrong-path instructions before the branch resolves.
* Transient loads issue real cache fills (the side channel), but their
  results are **never forwarded** to later transient instructions — the A53
  has no register renaming — so any instruction whose inputs depend on a
  transient load result is *poisoned* and a poisoned-address load does not
  issue.
* The single load/store unit stays busy through a transient miss, so a
  second (independent) transient load issues only if the first one hit.
* Direct unconditional branches are not speculated past
  (``straight_line_speculation`` enables the contrary behaviour for
  ablation, as do ``forward_speculative_results`` and the prefetcher's
  ``page_size=0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import HardwareError
from repro.hw.cache import Cache, CacheConfig
from repro.hw.hierarchy import CacheHierarchy, HitLevel
from repro.hw.predictor import BranchPredictor, PredictorConfig
from repro.hw.prefetcher import PrefetcherConfig, StridePrefetcher
from repro.hw.state import MachineState
from repro.hw.tlb import Tlb, TlbConfig
from repro.isa.instructions import (
    AluImm,
    AluOp,
    AluReg,
    B,
    BCond,
    CmpImm,
    CmpReg,
    Cond,
    Ldr,
    MovImm,
    MovReg,
    Nop,
    Ret,
    Str,
    TstImm,
)
from repro.isa.program import AsmProgram
from repro.isa.registers import REGISTER_WIDTH
from repro.utils import bitvec


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of the simulated core."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    # Optional shared L2 behind the L1D (None = L1-only, the paper's
    # TrustZone-inspection setting).  See repro.hw.hierarchy.
    l2: Optional[CacheConfig] = None
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    spec_window: int = 8
    forward_speculative_results: bool = False
    straight_line_speculation: bool = False
    prefetch_on_transient: bool = False
    base_cycles: int = 1
    hit_latency: int = 2
    l2_hit_latency: int = 12
    miss_latency: int = 40
    tlb_miss_latency: int = 20
    mispredict_penalty: int = 7
    # Early-termination multiplier: latency grows with the significant
    # 16-bit chunks of the second operand (the §2.3 variable-time
    # arithmetic channel).  False gives a constant 4-cycle multiply.
    variable_time_multiply: bool = True
    max_steps: int = 100_000


@dataclass
class ExecutionTrace:
    """What one architectural execution did (for tests and diagnostics)."""

    cycles: int = 0
    executed_pcs: List[int] = field(default_factory=list)
    load_addresses: List[int] = field(default_factory=list)
    store_addresses: List[int] = field(default_factory=list)
    transient_loads: List[int] = field(default_factory=list)
    mispredictions: int = 0
    prefetches: List[int] = field(default_factory=list)


class Core:
    """One simulated core; owns its cache, prefetcher and predictor."""

    def __init__(self, config: Optional[CoreConfig] = None):
        self.config = config or CoreConfig()
        self.hierarchy = CacheHierarchy(self.config.cache, self.config.l2)
        self.prefetcher = StridePrefetcher(self.config.prefetcher)
        self.predictor = BranchPredictor(self.config.predictor)
        self.tlb = Tlb(self.config.tlb)
        self.cycles = 0

    @property
    def cache(self) -> Cache:
        """The L1 data cache (the level the platform inspects)."""
        return self.hierarchy.l1

    def _access_latency(self, level: HitLevel) -> int:
        if level is HitLevel.L1:
            return self.config.hit_latency
        if level is HitLevel.L2:
            return self.config.l2_hit_latency
        return self.config.miss_latency

    # -- attacker-visible primitives ----------------------------------------

    def flush_line(self, addr: int) -> None:
        """DC CIVAC-style single-line flush (whole hierarchy)."""
        self.hierarchy.flush_line(addr)

    def flush_all(self) -> None:
        self.hierarchy.flush_all()
        self.prefetcher.reset()
        self.tlb.flush_all()

    def reset(self) -> None:
        """Return the core to its freshly constructed state."""
        self.flush_all()
        self.predictor.reset()
        for unit in self._counted_units():
            unit.hits = unit.misses = 0
        self.cycles = 0

    def retained_state(self) -> Tuple:
        """What :meth:`flush_all` leaves in place: the predictor's counters,
        the cycle count and the hit/miss counters.  A reset core given this
        state by :meth:`restore_retained` equals the flushed core."""
        return (
            self.predictor.counters(),
            self.cycles,
            tuple((unit.hits, unit.misses) for unit in self._counted_units()),
        )

    def restore_retained(self, state: Tuple) -> None:
        counters, self.cycles, hits_misses = state
        self.predictor.load(counters)
        for unit, (hits, misses) in zip(self._counted_units(), hits_misses):
            unit.hits, unit.misses = hits, misses

    def _counted_units(self) -> Tuple:
        l2 = self.hierarchy.l2
        return (self.cache, self.tlb) if l2 is None else (self.cache, l2, self.tlb)

    def timed_access(self, addr: int) -> int:
        """An attacker's timed read: returns the access latency in cycles
        (the PMC cycle-counter measurement of a Flush+Reload probe)."""
        latency = 0
        if not self.tlb.access(addr):
            latency += self.config.tlb_miss_latency
        latency += self._access_latency(self.hierarchy.access(addr))
        self.cycles += latency
        return latency

    # -- execution -----------------------------------------------------------

    def execute(self, program: AsmProgram, state: MachineState) -> ExecutionTrace:
        """Run the program to completion on ``state`` (mutated in place)."""
        trace = ExecutionTrace()
        pc = 0
        steps = 0
        n = len(program)
        while 0 <= pc < n:
            steps += 1
            if steps > self.config.max_steps:
                raise HardwareError(
                    f"program {program.name!r} exceeded {self.config.max_steps} steps"
                )
            inst = program[pc]
            trace.executed_pcs.append(pc)
            self.cycles += self.config.base_cycles
            trace.cycles = self.cycles
            next_pc = pc + 1
            if isinstance(inst, Nop):
                pass
            elif isinstance(inst, MovImm):
                state.write_reg(inst.rd, inst.imm)
            elif isinstance(inst, MovReg):
                state.write_reg(inst.rd, state.read_reg(inst.rn))
            elif isinstance(inst, AluReg):
                rhs = state.read_reg(inst.rm)
                state.write_reg(
                    inst.rd, _alu(inst.op, state.read_reg(inst.rn), rhs)
                )
                if inst.op is AluOp.MUL:
                    self.cycles += self._mul_latency(rhs)
            elif isinstance(inst, AluImm):
                state.write_reg(
                    inst.rd, _alu(inst.op, state.read_reg(inst.rn), inst.imm)
                )
                if inst.op is AluOp.MUL:
                    self.cycles += self._mul_latency(
                        bitvec.truncate(inst.imm, REGISTER_WIDTH)
                    )
            elif isinstance(inst, Ldr):
                addr = self._effective_address(inst, state)
                self._demand_load(addr, trace)
                state.write_reg(inst.rt, state.memory.read(addr))
            elif isinstance(inst, Str):
                addr = self._effective_address(inst, state)
                self._demand_store(addr, trace)
                state.memory.write(addr, state.read_reg(inst.rt))
            elif isinstance(inst, CmpReg):
                state.cmp_lhs = state.read_reg(inst.rn)
                state.cmp_rhs = state.read_reg(inst.rm)
            elif isinstance(inst, CmpImm):
                state.cmp_lhs = state.read_reg(inst.rn)
                state.cmp_rhs = bitvec.truncate(inst.imm, REGISTER_WIDTH)
            elif isinstance(inst, TstImm):
                state.cmp_lhs = state.read_reg(inst.rn) & bitvec.truncate(
                    inst.imm, REGISTER_WIDTH
                )
                state.cmp_rhs = 0
            elif isinstance(inst, BCond):
                next_pc = self._conditional_branch(program, pc, inst, state, trace)
            elif isinstance(inst, B):
                target = program.target_index(inst.target)
                if self.config.straight_line_speculation:
                    self._transient_execute(program, pc + 1, state, trace)
                next_pc = target
            elif isinstance(inst, Ret):
                break
            else:
                raise HardwareError(f"cannot execute {inst!r}")
            pc = next_pc
        trace.cycles = self.cycles
        return trace

    # -- internals -----------------------------------------------------------

    def _effective_address(self, inst, state: MachineState) -> int:
        base = state.read_reg(inst.rn)
        if inst.rm is not None:
            return bitvec.bv_add(base, state.read_reg(inst.rm), REGISTER_WIDTH)
        return bitvec.bv_add(base, inst.imm, REGISTER_WIDTH)

    def _demand_load(self, addr: int, trace: ExecutionTrace) -> bool:
        trace.load_addresses.append(addr)
        self._translate(addr)
        level = self.hierarchy.access(addr)
        self.cycles += self._access_latency(level)
        # The prefetcher works on physical addresses downstream of the TLB;
        # its fills neither consult nor fill the TLB (hence the page stop).
        for target in self.prefetcher.on_load(addr):
            self.hierarchy.prefetch(target)
            trace.prefetches.append(target)
        return level is HitLevel.L1

    def _demand_store(self, addr: int, trace: ExecutionTrace) -> None:
        trace.store_addresses.append(addr)
        self._translate(addr)
        level = self.hierarchy.access(addr)  # write-allocate
        self.cycles += self._access_latency(level)

    def _translate(self, addr: int) -> bool:
        hit = self.tlb.access(addr)
        if not hit:
            self.cycles += self.config.tlb_miss_latency
        return hit

    def _mul_latency(self, multiplier: int) -> int:
        """Early-termination multiplier: one cycle per significant 16-bit
        chunk of the multiplier operand (the §3 running-example channel:
        "checking if time needed ... depends on the size of the arguments").
        """
        if not self.config.variable_time_multiply:
            return 4
        return max(1, (multiplier.bit_length() + 15) // 16)

    def _conditional_branch(
        self,
        program: AsmProgram,
        pc: int,
        inst: BCond,
        state: MachineState,
        trace: ExecutionTrace,
    ) -> int:
        actual = _condition(inst.cond, state)
        predicted = self.predictor.predict(pc)
        target = program.target_index(inst.target)
        if predicted != actual:
            trace.mispredictions += 1
            self.cycles += self.config.mispredict_penalty
            wrong_pc = target if predicted else pc + 1
            self._transient_execute(program, wrong_pc, state, trace)
        self.predictor.update(pc, actual)
        return target if actual else pc + 1

    def _transient_execute(
        self,
        program: AsmProgram,
        start_pc: int,
        state: MachineState,
        trace: ExecutionTrace,
    ) -> None:
        """Execute the wrong path transiently; only cache state persists."""
        shadow: Dict[str, int] = {}
        poisoned: Set[str] = set()
        shadow_cmp = (state.cmp_lhs, state.cmp_rhs)
        cmp_poisoned = False
        lsu_free = True
        pc = start_pc
        n = len(program)
        for _ in range(self.config.spec_window):
            if not 0 <= pc < n:
                break
            inst = program[pc]
            pc += 1
            if isinstance(inst, Nop):
                continue
            if isinstance(inst, MovImm):
                shadow[inst.rd.name] = bitvec.truncate(inst.imm, REGISTER_WIDTH)
                poisoned.discard(inst.rd.name)
                continue
            if isinstance(inst, MovReg):
                shadow[inst.rd.name] = self._shadow_read(inst.rn.name, shadow, state)
                _propagate(poisoned, inst.rd.name, (inst.rn.name,))
                continue
            if isinstance(inst, AluReg):
                value = _alu(
                    inst.op,
                    self._shadow_read(inst.rn.name, shadow, state),
                    self._shadow_read(inst.rm.name, shadow, state),
                )
                shadow[inst.rd.name] = value
                _propagate(poisoned, inst.rd.name, (inst.rn.name, inst.rm.name))
                continue
            if isinstance(inst, AluImm):
                value = _alu(
                    inst.op, self._shadow_read(inst.rn.name, shadow, state), inst.imm
                )
                shadow[inst.rd.name] = value
                _propagate(poisoned, inst.rd.name, (inst.rn.name,))
                continue
            if isinstance(inst, Ldr):
                sources = [inst.rn.name]
                if inst.rm is not None:
                    sources.append(inst.rm.name)
                if any(s in poisoned for s in sources):
                    # Address depends on a non-forwarded transient result:
                    # the load cannot issue.  Its target is unavailable.
                    poisoned.add(inst.rt.name)
                    continue
                if not lsu_free:
                    poisoned.add(inst.rt.name)
                    continue
                base = self._shadow_read(inst.rn.name, shadow, state)
                offset = (
                    self._shadow_read(inst.rm.name, shadow, state)
                    if inst.rm is not None
                    else inst.imm
                )
                addr = bitvec.bv_add(base, offset, REGISTER_WIDTH)
                # Translation happens before the access squashes: transient
                # loads fill the TLB (a TLB-based transient channel).
                self.tlb.access(addr)
                level = self.hierarchy.access(addr)
                hit = level is HitLevel.L1
                trace.transient_loads.append(addr)
                if self.config.prefetch_on_transient:
                    for target in self.prefetcher.on_load(addr):
                        self.hierarchy.prefetch(target)
                        trace.prefetches.append(target)
                if not hit and not self.config.forward_speculative_results:
                    # The single in-order LSU stays busy through the miss; no
                    # further transient load can issue before the branch
                    # resolves.  The forwarding ablation models an
                    # out-of-order core with multiple outstanding misses, so
                    # it is exempt.
                    lsu_free = False
                if self.config.forward_speculative_results:
                    shadow[inst.rt.name] = state.memory.read(addr)
                    poisoned.discard(inst.rt.name)
                else:
                    poisoned.add(inst.rt.name)
                continue
            if isinstance(inst, Str):
                # Stores are not speculatively retired and do not touch the
                # cache before the branch resolves.
                continue
            if isinstance(inst, (CmpReg, CmpImm, TstImm)):
                lhs_name = inst.rn.name
                lhs = self._shadow_read(lhs_name, shadow, state)
                if isinstance(inst, CmpReg):
                    rhs = self._shadow_read(inst.rm.name, shadow, state)
                    cmp_poisoned = lhs_name in poisoned or inst.rm.name in poisoned
                elif isinstance(inst, CmpImm):
                    rhs = bitvec.truncate(inst.imm, REGISTER_WIDTH)
                    cmp_poisoned = lhs_name in poisoned
                else:
                    lhs &= bitvec.truncate(inst.imm, REGISTER_WIDTH)
                    rhs = 0
                    cmp_poisoned = lhs_name in poisoned
                shadow_cmp = (lhs, rhs)
                continue
            if isinstance(inst, B):
                # Direct branches resolve in the frontend even transiently.
                pc = program.target_index(inst.target)
                continue
            if isinstance(inst, (BCond, Ret)):
                # A nested unresolved branch (or the program end) stops the
                # transient window.
                break
        # Squash: shadow register and comparison state are discarded.

    def _shadow_read(
        self, name: str, shadow: Dict[str, int], state: MachineState
    ) -> int:
        if name in shadow:
            return shadow[name]
        return state.regs[name]


def _propagate(poisoned: Set[str], target: str, sources: Tuple[str, ...]) -> None:
    if any(s in poisoned for s in sources):
        poisoned.add(target)
    else:
        poisoned.discard(target)


def _alu(op: AluOp, a: int, b: int) -> int:
    width = REGISTER_WIDTH
    b = bitvec.truncate(b, width)
    if op is AluOp.ADD:
        return bitvec.bv_add(a, b, width)
    if op is AluOp.SUB:
        return bitvec.bv_sub(a, b, width)
    if op is AluOp.AND:
        return bitvec.bv_and(a, b, width)
    if op is AluOp.ORR:
        return bitvec.bv_or(a, b, width)
    if op is AluOp.EOR:
        return bitvec.bv_xor(a, b, width)
    if op is AluOp.LSL:
        return bitvec.bv_shl(a, min(b, width), width)
    if op is AluOp.LSR:
        return bitvec.bv_lshr(a, min(b, width), width)
    if op is AluOp.MUL:
        return bitvec.bv_mul(a, b, width)
    raise HardwareError(f"unknown ALU op {op!r}")


def _condition(cond: Cond, state: MachineState) -> bool:
    l, r = state.cmp_lhs, state.cmp_rhs
    sl = bitvec.to_signed(l, REGISTER_WIDTH)
    sr = bitvec.to_signed(r, REGISTER_WIDTH)
    if cond is Cond.EQ:
        return l == r
    if cond is Cond.NE:
        return l != r
    if cond is Cond.LO:
        return l < r
    if cond is Cond.HS:
        return l >= r
    if cond is Cond.LS:
        return l <= r
    if cond is Cond.HI:
        return l > r
    if cond is Cond.LT:
        return sl < sr
    if cond is Cond.GE:
        return sl >= sr
    if cond is Cond.LE:
        return sl <= sr
    if cond is Cond.GT:
        return sl > sr
    raise HardwareError(f"unknown condition {cond!r}")
