//! The per-bank processing unit (paper §IV-B, Figure 4, Table VIII).
//!
//! Each unit has a 128 B control register (32 instructions), a 16 B scalar
//! register, three 32 B dense vector registers, three 192 B sparse vector
//! queues (row/col/val sub-queues of 64 B each), a 256-bit multi-precision
//! VALU with an index calculator, and 32 loop counters for ORDER'd jumps.
//!
//! Execution is *partially synchronous*: the host's all-bank column
//! commands arrive tagged with the program slot they serve; a unit executes
//! its pending control/compute instructions for free, then consumes the
//! command if (a) its program counter has reached that slot and (b) the
//! instruction's predicate holds (queue room/data available). Otherwise the
//! command passes over the unit without effect — the predicated execution
//! of §IV-E. A unit that has taken `CEXIT` ignores all further commands
//! while the host keeps driving the remaining units (§IV-D).

mod queue;

pub use queue::SpQueue;

use crate::error::CoreError;
use crate::isa::{BinaryOp, Identity, Instruction, Operand, Program, SetMode, SubQueue};
use crate::memory::{BankMemory, Binding, SENTINEL};
use crate::stats::PuStats;
use psim_sparse::Precision;
use serde::{Deserialize, Serialize};

/// DRAM command-clock cycles per PU cycle (1 GHz DRAM / 250 MHz PU).
pub const DRAM_CYCLES_PER_PU_CYCLE: u64 = 4;

/// Stack-buffer width in elements: the widest lane count (INT8's 32).
/// Every DRF write is at most one precision's `lanes()` long and every
/// queue window is capped at `lanes()`, so the interpreter's per-step
/// scratch lives on the stack and never allocates.
const BUF: usize = Precision::Int8.lanes();

/// The DRF index an operand names; non-DRF operands alias register 0.
fn drf_idx(op: Operand) -> usize {
    match op {
        Operand::Drf(i) => i as usize,
        _ => 0,
    }
}

/// How a unit disposed of one column command — the discriminator the
/// attribution layer (psim-trace) classifies stall cycles with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepOutcome {
    /// Consumed the command and moved real data.
    Executed,
    /// Consumed the command but the source stream/queue was empty (drained
    /// region, sentinel padding): a no-op burst.
    ExecutedEmpty,
    /// Passed: the unit's program counter was at a different memory slot.
    OutOfPhase,
    /// Passed: the destination queue had no room (predicate failed).
    QueueFull,
    /// The unit had exited (or exited while handling this command without
    /// consuming it).
    Exited,
}

/// Outcome of offering one column command to a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepReport {
    /// Whether the unit consumed the command (performed its bank access).
    pub executed: bool,
    /// PU cycles of work performed while handling this command (compute
    /// instructions retired plus the access itself).
    pub pu_cycles: u64,
    /// Disposition of the command.
    pub outcome: StepOutcome,
}

/// One pSyncPIM processing unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessingUnit {
    program: Option<Program>,
    /// Region binding (region, offset, stride) of each memory slot.
    bindings: Vec<Option<Binding>>,
    /// Per-slot element cursor into the bound region.
    cursors: Vec<usize>,
    pc: usize,
    loop_counters: Vec<u32>,
    srf: f64,
    drf: [Vec<f64>; 3],
    queues: [SpQueue; 3],
    exited: bool,
    exit_armed: bool,
    stats: PuStats,
}

impl Default for ProcessingUnit {
    fn default() -> Self {
        ProcessingUnit::new()
    }
}

impl ProcessingUnit {
    /// A fresh, unprogrammed unit.
    #[must_use]
    pub fn new() -> Self {
        ProcessingUnit {
            program: None,
            bindings: Vec::new(),
            cursors: Vec::new(),
            pc: 0,
            loop_counters: vec![0; 32],
            srf: 0.0,
            drf: [Vec::new(), Vec::new(), Vec::new()],
            queues: [SpQueue::new(), SpQueue::new(), SpQueue::new()],
            exited: false,
            exit_armed: false,
            stats: PuStats::new(),
        }
    }

    /// Load a kernel: program plus per-slot region bindings (every memory
    /// instruction slot must have a binding).
    ///
    /// # Errors
    ///
    /// [`CoreError::Binding`] if a memory slot is unbound.
    pub fn load_kernel<B: Into<Binding>>(
        &mut self,
        program: Program,
        bindings: Vec<Option<B>>,
    ) -> Result<(), CoreError> {
        let mut bindings: Vec<Option<Binding>> =
            bindings.into_iter().map(|o| o.map(Into::into)).collect();
        bindings.resize(program.len(), None);
        for (slot, ins) in program.instructions().iter().enumerate() {
            if ins.is_memory() && bindings.get(slot).copied().flatten().is_none() {
                return Err(CoreError::Binding(format!(
                    "memory instruction at slot {slot} has no bound region"
                )));
            }
        }
        self.cursors = (0..program.len())
            .map(|slot| bindings[slot].map_or(0, |b| b.offset))
            .collect();
        self.bindings = bindings;
        self.program = Some(program);
        self.pc = 0;
        self.loop_counters.iter_mut().for_each(|c| *c = 0);
        self.exited = false;
        self.exit_armed = false;
        self.stats = PuStats::new();
        Ok(())
    }

    /// Set the scalar register (the host may seed α for AXPY-style kernels).
    pub fn set_srf(&mut self, v: f64) {
        self.srf = v;
    }

    /// Current scalar register value (reductions land here).
    #[must_use]
    pub fn srf(&self) -> f64 {
        self.srf
    }

    /// Whether the unit has terminated (EXIT or satisfied CEXIT).
    #[must_use]
    pub fn exited(&self) -> bool {
        self.exited
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &PuStats {
        &self.stats
    }

    /// Record the round in which the unit exited (called by the engine).
    /// Also freezes the instruction count so the validation layer can
    /// verify nothing retires after exit.
    pub fn mark_exit_round(&mut self, round: u64) {
        if self.stats.exit_round == u64::MAX {
            self.stats.exit_round = round;
            self.stats.instructions_at_exit = self.stats.instructions;
        }
    }

    /// Offer one column command serving program `slot` (direction implied
    /// by the instruction). Runs pending free instructions first.
    ///
    /// # Panics
    ///
    /// Panics if no kernel is loaded.
    pub fn on_command(&mut self, slot: usize, mem: &mut BankMemory) -> StepReport {
        assert!(self.program.is_some(), "no kernel loaded");
        if self.exited {
            self.stats.predicated_off += 1;
            return StepReport {
                executed: false,
                pu_cycles: 0,
                outcome: StepOutcome::Exited,
            };
        }
        let mut cycles = 0u64;
        // Safety bound: a unit can't retire more than the control register
        // size of free instructions per command.
        for _ in 0..4 * crate::isa::Program::len_limit() {
            let prog = self.program.as_ref().expect("checked above");
            if self.pc >= prog.len() {
                self.exited = true;
                break;
            }
            let ins = *prog.get(self.pc).expect("bounds checked");
            if ins.is_memory() {
                if self.pc != slot {
                    // Out of phase: let the command pass.
                    self.stats.predicated_off += 1;
                    return StepReport {
                        executed: false,
                        pu_cycles: cycles,
                        outcome: StepOutcome::OutOfPhase,
                    };
                }
                let (c, outcome) = match self.exec_memory(&ins, slot, mem) {
                    ExecOutcome::Done(c) => (c, StepOutcome::Executed),
                    ExecOutcome::DoneEmpty(c) => (c, StepOutcome::ExecutedEmpty),
                    ExecOutcome::Stall => return self.stalled(cycles),
                };
                self.pc += 1;
                self.stats.instructions += 1;
                self.stats.mem_ops += 1;
                self.stats.busy_cycles += cycles + c;
                return StepReport {
                    executed: true,
                    pu_cycles: cycles + c,
                    outcome,
                };
            }
            // Control / compute — free of commands.
            match self.exec_free(&ins) {
                ExecOutcome::Done(c) | ExecOutcome::DoneEmpty(c) => {
                    cycles += c;
                    self.stats.instructions += 1;
                    if self.exited {
                        break;
                    }
                }
                ExecOutcome::Stall => return self.stalled(cycles),
            }
        }
        self.stats.busy_cycles += cycles;
        StepReport {
            executed: false,
            pu_cycles: cycles,
            outcome: if self.exited {
                StepOutcome::Exited
            } else {
                StepOutcome::OutOfPhase
            },
        }
    }

    /// A predicate failed (destination queue full) after `cycles` of free
    /// work: the command passes over the unit.
    fn stalled(&mut self, cycles: u64) -> StepReport {
        self.stats.predicated_off += 1;
        self.stats.busy_cycles += cycles;
        StepReport {
            executed: false,
            pu_cycles: cycles,
            outcome: StepOutcome::QueueFull,
        }
    }

    /// Run control/compute instructions until the unit reaches a memory
    /// instruction, stalls, or exits. Used by the engine before the first
    /// command and for programs with no memory instructions.
    pub fn run_free(&mut self, _mem: &mut BankMemory) -> u64 {
        let mut cycles = 0u64;
        for _ in 0..4 * crate::isa::Program::len_limit() {
            let Some(prog) = self.program.as_ref() else {
                break;
            };
            if self.exited || self.pc >= prog.len() {
                self.exited = true;
                break;
            }
            let ins = *prog.get(self.pc).expect("bounds checked");
            if ins.is_memory() {
                break;
            }
            match self.exec_free(&ins) {
                ExecOutcome::Done(c) | ExecOutcome::DoneEmpty(c) => {
                    cycles += c;
                    self.stats.instructions += 1;
                }
                ExecOutcome::Stall => break,
            }
        }
        self.stats.busy_cycles += cycles;
        cycles
    }

    /// The slot of the memory instruction the unit is parked at, if any.
    /// An exited unit is not waiting at a slot.
    ///
    /// After [`ProcessingUnit::run_free`] or any `on_command` return, a
    /// live unit's `pc` always rests on a memory instruction (free
    /// instructions run to quiescence inside those calls). Offering any
    /// *other* slot to a parked unit is a pure predication: `on_command`
    /// bumps `predicated_off` and reports `OutOfPhase` without touching
    /// any other state, which is what lets the engine synthesize that
    /// report instead of stepping the interpreter.
    #[must_use]
    pub fn pending_slot(&self) -> Option<usize> {
        if self.exited {
            return None;
        }
        let prog = self.program.as_ref()?;
        let ins = prog.get(self.pc)?;
        ins.is_memory().then_some(self.pc)
    }

    /// Account `n` offers the engine synthesized instead of stepping the
    /// interpreter (a parked unit's foreign slots, an exited unit's
    /// offers): each would only have bumped `predicated_off`.
    pub(crate) fn note_predicated_off(&mut self, n: u64) {
        self.stats.predicated_off += n;
    }

    // ---- internals -----------------------------------------------------

    fn exec_free(&mut self, ins: &Instruction) -> ExecOutcome {
        match *ins {
            Instruction::Nop => {
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::Exit => {
                self.exited = true;
                ExecOutcome::Done(1)
            }
            Instruction::CExit { queue } => {
                if self.exit_armed && self.queues[queue as usize].is_empty() {
                    self.exited = true;
                } else {
                    self.pc += 1;
                }
                ExecOutcome::Done(1)
            }
            Instruction::Jump {
                target,
                order,
                count,
            } => {
                if count == 0 {
                    self.pc = target as usize;
                } else {
                    let ctr = &mut self.loop_counters[order as usize];
                    *ctr += 1;
                    if *ctr <= u32::from(count) {
                        self.pc = target as usize;
                    } else {
                        *ctr = 0;
                        self.pc += 1;
                    }
                }
                ExecOutcome::Done(1)
            }
            Instruction::Dmov {
                dst,
                src,
                precision,
            } => self.exec_dmov_regs(dst, src, precision),
            Instruction::Sdv {
                dst,
                src,
                op,
                precision,
            } => {
                let (d, s) = (drf_idx(dst), drf_idx(src));
                let srf = self.srf;
                let k = self.drf[s].len();
                if d != s {
                    self.drf[d].resize(k, 0.0);
                }
                for i in 0..k {
                    self.drf[d][i] = precision.quantize(op.apply(self.drf[s][i], srf));
                }
                self.stats.lane_ops += k as u64;
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::SSpv {
                dst,
                src,
                op,
                precision,
            } => self.exec_sspv(dst, src, op, precision),
            Instruction::Reduce { src, op, precision } => {
                let src = &self.drf[drf_idx(src)];
                let folded = src.iter().fold(op.identity(), |acc, &v| op.apply(acc, v));
                self.srf = precision.quantize(op.apply(self.srf, folded));
                self.stats.lane_ops += src.len() as u64;
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::Dvdv {
                dst,
                src0,
                src1,
                op,
                precision,
            } => {
                let (a, b) = (&self.drf[drf_idx(src0)], &self.drf[drf_idx(src1)]);
                let k = a.len().max(b.len());
                let mut out = [0.0f64; BUF];
                for (i, o) in out[..k].iter_mut().enumerate() {
                    let (x, y) = (a.get(i).copied(), b.get(i).copied());
                    *o = precision.quantize(op.apply(x.unwrap_or(0.0), y.unwrap_or(0.0)));
                }
                let dv = &mut self.drf[drf_idx(dst)];
                dv.clear();
                dv.extend_from_slice(&out[..k]);
                self.stats.lane_ops += k as u64;
                self.pc += 1;
                ExecOutcome::Done(1)
            }
            Instruction::SpVdv {
                dst,
                src0,
                src1,
                op,
                set,
                precision,
            } if !ins.is_memory() => self.exec_spvdv_regs(dst, src0, src1, op, set, precision),
            Instruction::SpVSpv {
                dst,
                src0,
                src1,
                op,
                set,
                precision,
            } => self.exec_spvspv(dst, src0, src1, op, set, precision),
            _ => unreachable!("memory instruction routed to exec_free"),
        }
    }

    /// DMOV among registers (non-bank): DRF↔DRF copy, SRF broadcast to a
    /// DRF, or DRF lane 0 into SRF.
    fn exec_dmov_regs(&mut self, dst: Operand, src: Operand, precision: Precision) -> ExecOutcome {
        let lanes = precision.lanes();
        match (dst, src) {
            (Operand::Drf(d), Operand::Drf(s)) if d != s => {
                let [d, s] = self.drf.get_disjoint_mut([d as usize, s as usize]).unwrap();
                d.clone_from(s);
            }
            (Operand::Drf(d), Operand::Srf) => {
                let dv = &mut self.drf[d as usize];
                dv.clear();
                dv.resize(lanes, self.srf);
            }
            (Operand::Srf, Operand::Drf(s)) => {
                self.srf = self.drf[s as usize].first().copied().unwrap_or(0.0);
            }
            _ => {}
        }
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    fn exec_sspv(
        &mut self,
        dst: Operand,
        src: Operand,
        op: BinaryOp,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(s)) = (dst, src) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let avail = self.queues[s as usize].len();
        let k = avail.min(lanes);
        if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
            return ExecOutcome::Stall;
        }
        let srf = self.srf;
        for _ in 0..k {
            let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
            let nv = precision.quantize(op.apply(v, srf));
            self.queues[d as usize].push(r, c, nv);
        }
        self.stats.lane_ops += k as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    /// SpVDV between registers: pop up to `lanes` elements of `src0`, pair
    /// them positionally with the dense register `src1` (the gather buffer
    /// IndMOV filled), push results into the destination queue. The index
    /// calculator drops sentinel-padded elements (§V).
    fn exec_spvdv_regs(
        &mut self,
        dst: Operand,
        src0: Operand,
        src1: Operand,
        op: BinaryOp,
        _set: SetMode,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(s)) = (dst, src0) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let k = self.queues[s as usize].len().min(lanes);
        if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
            return ExecOutcome::Stall;
        }
        // The dense operand; lanes past a short register read as 0.0.
        let mut dense = [0.0f64; BUF];
        match src1 {
            Operand::Drf(i) => {
                let dv = &self.drf[i as usize];
                dense[..dv.len()].copy_from_slice(dv);
            }
            Operand::Srf => dense[..lanes].fill(self.srf),
            _ => {}
        }
        for &b in &dense[..k] {
            let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
            if r == SENTINEL || c == SENTINEL {
                continue; // index calculator skips padding
            }
            let nv = precision.quantize(op.apply(v, b));
            self.queues[d as usize].push(r, c, nv);
        }
        self.stats.lane_ops += k as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    /// Element-wise sparse-sparse with union/intersection index matching
    /// over the frontmost `lanes` window of each queue.
    fn exec_spvspv(
        &mut self,
        dst: Operand,
        src0: Operand,
        src1: Operand,
        op: BinaryOp,
        set: SetMode,
        precision: Precision,
    ) -> ExecOutcome {
        let (Operand::SpVq(d), Operand::SpVq(a), Operand::SpVq(b)) = (dst, src0, src1) else {
            self.pc += 1;
            return ExecOutcome::Done(1);
        };
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        let ka = self.queues[a as usize].len().min(lanes);
        let kb = self.queues[b as usize].len().min(lanes);
        if (ka + kb > 0) && !self.queues[d as usize].can_push(ka + kb, elem_bytes) {
            return ExecOutcome::Stall;
        }
        // Pop each window, dropping sentinel padding.
        let mut window = |q: u8, k: usize| {
            let mut w = [(0.0f64, 0.0f64, 0.0f64); BUF];
            let mut n = 0usize;
            for _ in 0..k {
                let (r, c, v) = self.queues[q as usize].pop().expect("len checked");
                if r != SENTINEL && c != SENTINEL {
                    w[n] = (r, c, v);
                    n += 1;
                }
            }
            (w, n)
        };
        let (wa, na) = window(a, ka);
        let (wb, nb) = window(b, kb);
        let (wa, wb) = (&wa[..na], &wb[..nb]);
        let (mut i, mut j) = (0usize, 0usize);
        let push = |q: &mut SpQueue, r: f64, c: f64, v: f64| {
            q.push(r, c, precision.quantize(v));
        };
        while i < wa.len() || j < wb.len() {
            match (wa.get(i), wb.get(j)) {
                (Some(&(ra, ca, va)), Some(&(rb, cb, vb))) => {
                    use std::cmp::Ordering;
                    let ka = (ra, ca);
                    let kb2 = (rb, cb);
                    match ka.partial_cmp(&kb2).unwrap_or(Ordering::Equal) {
                        Ordering::Equal => {
                            push(&mut self.queues[d as usize], ra, ca, op.apply(va, vb));
                            i += 1;
                            j += 1;
                        }
                        Ordering::Less => {
                            if set == SetMode::Union {
                                push(
                                    &mut self.queues[d as usize],
                                    ra,
                                    ca,
                                    op.apply(va, op.identity()),
                                );
                            }
                            i += 1;
                        }
                        Ordering::Greater => {
                            if set == SetMode::Union {
                                push(
                                    &mut self.queues[d as usize],
                                    rb,
                                    cb,
                                    op.apply(op.identity(), vb),
                                );
                            }
                            j += 1;
                        }
                    }
                }
                (Some(&(ra, ca, va)), None) => {
                    if set == SetMode::Union {
                        push(&mut self.queues[d as usize], ra, ca, va);
                    }
                    i += 1;
                }
                (None, Some(&(rb, cb, vb))) => {
                    if set == SetMode::Union {
                        push(&mut self.queues[d as usize], rb, cb, vb);
                    }
                    j += 1;
                }
                (None, None) => break,
            }
        }
        self.stats.lane_ops += (ka + kb) as u64;
        self.pc += 1;
        ExecOutcome::Done(1)
    }

    fn exec_memory(&mut self, ins: &Instruction, slot: usize, mem: &mut BankMemory) -> ExecOutcome {
        let binding = self.bindings[slot].expect("validated at load_kernel");
        let region = binding.region;
        match *ins {
            Instruction::Dmov {
                dst,
                src,
                precision,
            } => {
                let lanes = precision.lanes();
                let cur = self.cursors[slot];
                match (dst, src) {
                    (Operand::Drf(d), Operand::Bank) => {
                        let r = mem.region(region);
                        let dv = &mut self.drf[d as usize];
                        dv.clear();
                        dv.extend((0..lanes).map(|i| r.get(cur + i)));
                        self.cursors[slot] += binding.stride.unwrap_or(lanes);
                    }
                    (Operand::Srf, Operand::Bank) => {
                        self.srf = mem.region(region).get(cur);
                        self.cursors[slot] += binding.stride.unwrap_or(1);
                    }
                    (Operand::Bank, Operand::Drf(d)) => {
                        let r = mem.region_mut(region);
                        for (i, v) in self.drf[d as usize].iter().enumerate().take(lanes) {
                            r.set(cur + i, precision.quantize(*v));
                        }
                        self.cursors[slot] += binding.stride.unwrap_or(lanes);
                    }
                    (Operand::Bank, Operand::Srf) => {
                        mem.region_mut(region)
                            .set(cur, precision.quantize(self.srf));
                        self.cursors[slot] += binding.stride.unwrap_or(1);
                    }
                    _ => unreachable!("non-bank DMOV routed to exec_free"),
                }
                ExecOutcome::Done(1)
            }
            Instruction::SpMov {
                dst,
                src,
                sub,
                precision,
            } => self.exec_spmov(dst, src, sub, precision, slot, mem),
            Instruction::IndMov {
                dst,
                idx_queue,
                precision,
            } => {
                let mut cols = [0.0f64; BUF];
                let k =
                    self.queues[idx_queue as usize].peek_cols_into(precision.lanes(), &mut cols);
                let r = mem.region(region);
                let gather = |c: f64| {
                    if c == SENTINEL {
                        0.0
                    } else {
                        r.get(c as usize)
                    }
                };
                match dst {
                    Operand::Drf(d) => {
                        let dv = &mut self.drf[d as usize];
                        dv.clear();
                        dv.extend(cols[..k].iter().map(|&c| gather(c)));
                    }
                    Operand::Srf => self.srf = if k == 0 { 0.0 } else { gather(cols[0]) },
                    _ => {}
                }
                let k = k as u64;
                self.stats.lane_ops += k;
                if k == 0 {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(k)
                }
            }
            Instruction::SpFw { src, precision } => {
                let mut cur = self.cursors[slot];
                let start = cur;
                while let Some((r, c, v)) = self.queues[src as usize].pop() {
                    let reg = mem.region_mut(region);
                    reg.set(cur, r);
                    reg.set(cur + 1, c);
                    reg.set(cur + 2, precision.quantize(v));
                    cur += 3;
                }
                self.cursors[slot] = cur;
                if cur == start {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            Instruction::GthSct {
                dst,
                src,
                identity,
                precision,
            } => self.exec_gthsct(dst, src, identity, precision, slot, mem),
            Instruction::SpVdv {
                dst: Operand::Bank,
                src0: Operand::SpVq(s),
                op,
                precision,
                ..
            } => {
                // Scatter-accumulate into the open output row at each
                // element's row index (the SpMV/SpTRSV write-back).
                let lanes = precision.lanes();
                let k = self.queues[s as usize].len().min(lanes);
                let reg = mem.region_mut(region);
                let mut touched = 0u64;
                for _ in 0..k {
                    let (r, _c, v) = self.queues[s as usize].pop().expect("len checked");
                    if r == SENTINEL {
                        continue;
                    }
                    let idx = r as usize;
                    let old = reg.get(idx);
                    reg.set(idx, precision.quantize(op.apply(v, old)));
                    touched += 1;
                }
                self.stats.lane_ops += touched;
                if k == 0 {
                    ExecOutcome::DoneEmpty(2)
                } else {
                    ExecOutcome::Done(2)
                }
            }
            Instruction::SpVdv {
                dst: Operand::SpVq(d),
                src0: Operand::SpVq(s),
                src1: Operand::Bank,
                op,
                precision,
                ..
            } => {
                // Queue ⊙ dense bank stream -> queue (the literal
                // "SpVQ0 ⊕ Bank" form of Algorithm 2).
                let lanes = precision.lanes();
                let elem_bytes = precision.bytes();
                let k = self.queues[s as usize].len().min(lanes);
                if k > 0 && !self.queues[d as usize].can_push(k, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                let cur = self.cursors[slot];
                let mut dense = [0.0f64; BUF];
                let r = mem.region(region);
                for (i, dv) in dense[..k].iter_mut().enumerate() {
                    *dv = r.get(cur + i);
                }
                self.cursors[slot] += binding.stride.unwrap_or(lanes);
                for &b in &dense[..k] {
                    let (r, c, v) = self.queues[s as usize].pop().expect("len checked");
                    if r == SENTINEL || c == SENTINEL {
                        continue;
                    }
                    self.queues[d as usize].push(r, c, precision.quantize(op.apply(v, b)));
                }
                self.stats.lane_ops += k as u64;
                if k == 0 {
                    ExecOutcome::DoneEmpty(2)
                } else {
                    ExecOutcome::Done(2)
                }
            }
            _ => {
                debug_assert!(false, "unexpected memory instruction {ins:?}");
                ExecOutcome::Done(1)
            }
        }
    }

    fn exec_spmov(
        &mut self,
        dst: Operand,
        src: Operand,
        sub: SubQueue,
        precision: Precision,
        slot: usize,
        mem: &mut BankMemory,
    ) -> ExecOutcome {
        let binding = self.bindings[slot].expect("validated");
        let region = binding.region;
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        match (dst, src) {
            (Operand::SpVq(q), Operand::Bank) => {
                let cur = self.cursors[slot];
                let r = mem.region(region);
                if cur >= r.len() {
                    // Region drained: arm the conditional exit, consume the
                    // command as a no-op.
                    self.exit_armed = true;
                    return ExecOutcome::DoneEmpty(1);
                }
                if !self.queues[q as usize].sub_can_push(sub, lanes, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                let mut saw_sentinel = false;
                for i in 0..lanes {
                    let v = r.get(cur + i);
                    if (sub == SubQueue::Row || sub == SubQueue::Col) && v == SENTINEL {
                        saw_sentinel = true;
                    }
                    self.queues[q as usize].push_sub(sub, v);
                }
                self.cursors[slot] += binding.stride.unwrap_or(lanes);
                if saw_sentinel {
                    self.exit_armed = true;
                }
                ExecOutcome::Done(1)
            }
            (Operand::Bank, Operand::SpVq(q)) => {
                let mut cur = self.cursors[slot];
                let start = cur;
                for _ in 0..lanes {
                    let Some(v) = self.queues[q as usize].pop_sub(sub) else {
                        break;
                    };
                    mem.region_mut(region).set(cur, precision.quantize(v));
                    cur += 1;
                }
                self.cursors[slot] = cur;
                if cur == start {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            _ => ExecOutcome::Done(1),
        }
    }

    fn exec_gthsct(
        &mut self,
        dst: Operand,
        src: Operand,
        identity: Identity,
        precision: Precision,
        slot: usize,
        mem: &mut BankMemory,
    ) -> ExecOutcome {
        let binding = self.bindings[slot].expect("validated");
        let region = binding.region;
        let lanes = precision.lanes();
        let elem_bytes = precision.bytes();
        match (dst, src) {
            // Gather: dense region -> sparse queue.
            (Operand::SpVq(q), Operand::Bank) => {
                let cur = self.cursors[slot];
                let r = mem.region(region);
                if cur >= r.len() {
                    self.exit_armed = true;
                    return ExecOutcome::DoneEmpty(1);
                }
                if !self.queues[q as usize].can_push(lanes, elem_bytes) {
                    return ExecOutcome::Stall;
                }
                for i in 0..lanes {
                    if cur + i >= r.len() {
                        break;
                    }
                    let v = r.get(cur + i);
                    if v != identity.value() {
                        self.queues[q as usize].push(0.0, (cur + i) as f64, v);
                        self.stats.lane_ops += 1;
                    }
                }
                self.cursors[slot] += binding.stride.unwrap_or(lanes);
                ExecOutcome::Done(1)
            }
            // Scatter: sparse queue -> dense region at the col index.
            (Operand::Bank, Operand::SpVq(q)) => {
                let mut popped = 0usize;
                for _ in 0..lanes {
                    let Some((_r, c, v)) = self.queues[q as usize].pop() else {
                        break;
                    };
                    popped += 1;
                    if c == SENTINEL {
                        continue;
                    }
                    mem.region_mut(region)
                        .set(c as usize, precision.quantize(v));
                    self.stats.lane_ops += 1;
                }
                if popped == 0 {
                    ExecOutcome::DoneEmpty(1)
                } else {
                    ExecOutcome::Done(1)
                }
            }
            _ => ExecOutcome::Done(1),
        }
    }
}

enum ExecOutcome {
    /// Executed; PU-cycle cost.
    Done(u64),
    /// Executed, but the source stream/queue was empty — the command was
    /// consumed as a no-op burst (queue-empty stall for attribution).
    DoneEmpty(u64),
    /// Predicate failed; retry on a later command.
    Stall,
}

impl Program {
    /// The control-register capacity (helper for the step bound).
    #[must_use]
    pub fn len_limit() -> usize {
        crate::isa::program::MAX_PROGRAM_LEN
    }
}

#[cfg(test)]
mod tests;
