//! Pure per-channel kernel execution.
//!
//! The paper's channels execute independently — the cube's wall-clock is
//! the slowest channel — so per-channel replay is written as a pure
//! function over `(&Program, channel state)`: shared read-only inputs in
//! [`ChannelCtx`] plus this channel's disjoint `&mut` slices of processing
//! units and bank memories. [`Engine::run`](super::Engine::run) replays
//! channels serially; [`Engine::run_parallel`](super::Engine::run_parallel)
//! and the `psim-sched` executor fan the same function out across scoped
//! worker threads, merging [`ChannelOutcome`]s in channel order so the
//! result is bit-identical either way.

use super::{EngineConfig, ExecMode, TraceEvent};
use crate::error::CoreError;
use crate::isa::Program;
use crate::memory::{BankMemory, Binding};
use crate::pu::{ProcessingUnit, StepOutcome, StepReport, DRAM_CYCLES_PER_PU_CYCLE};
use crate::trace::{Category, ChannelMetrics, CycleBreakdown, StallEvent};
use psim_dram::{
    AbChannel, Channel, ChannelStats, CheckPolicy, CheckReport, CmdKind, IssueError, Issued,
    ProtocolChecker, Scope,
};

/// Read-only inputs shared by every channel of one kernel execution.
pub(super) struct ChannelCtx<'a> {
    /// Engine configuration (timing, mode, trace policy).
    pub cfg: &'a EngineConfig,
    /// The loaded kernel.
    pub program: &'a Program,
    /// Derived per-iteration command schedule.
    pub schedule: &'a [usize],
    /// Per-slot region bindings.
    pub bindings: &'a [Option<Binding>],
}

impl ChannelCtx<'_> {
    /// Each slot's starting element cursor (its binding's offset).
    fn initial_cursors(&self) -> Vec<usize> {
        (0..self.program.len())
            .map(|slot| {
                self.bindings
                    .get(slot)
                    .copied()
                    .flatten()
                    .map_or(0, |b| b.offset)
            })
            .collect()
    }

    /// The access serving `slot` at element `cursor` of `mem`'s copy of
    /// the slot's region: the row to open, the column command (RD or WR)
    /// and the cursor advance once it has issued.
    fn slot_access(
        &self,
        slot: usize,
        cursor: usize,
        mem: &BankMemory,
    ) -> Result<(u32, CmdKind, usize), CoreError> {
        let ins = &self.program[slot];
        let binding = self.bindings[slot].expect("validated at load");
        let (elem_bytes, natural) = slot_advance(ins);
        let start_row = mem.region(binding.region).start_row();
        let hbm = &self.cfg.hbm;
        let (row, col) = decode_slot_addr(
            start_row,
            cursor,
            elem_bytes,
            hbm.row_bytes(),
            hbm.col_bytes,
        )?;
        let cmd = if ins.writes_bank() {
            CmdKind::Wr { col }
        } else {
            CmdKind::Rd { col }
        };
        Ok((row, cmd, binding.stride.unwrap_or(natural)))
    }
}

/// Everything one channel's replay produces, merged by the engine in
/// channel order.
pub(super) struct ChannelOutcome {
    /// Channel-local wall-clock in DRAM command cycles.
    pub cycles: u64,
    /// Command counters.
    pub stats: ChannelStats,
    /// Kernel loop iterations.
    pub rounds: u64,
    /// Recorded commands (empty unless tracing).
    pub trace: Vec<TraceEvent>,
    /// Commands not recorded because the trace hit
    /// [`EngineConfig::trace_limit`].
    pub trace_dropped: u64,
    /// Independent protocol-checker verdict (`Some` only when
    /// [`EngineConfig::validate`] is set).
    pub check: Option<CheckReport>,
    /// psim-trace cycle attribution (`Some` only when
    /// [`EngineConfig::attribute`] is set).
    pub metrics: Option<ChannelMetrics>,
    /// Recorded stall events (empty unless attribution is on).
    pub stall_events: Vec<StallEvent>,
    /// Stalls beyond [`EngineConfig::event_limit`], counted not stored.
    pub stall_events_dropped: u64,
}

/// Per-channel cycle-attribution accumulator. The replay's timeline is
/// monotone (all-bank: `now`; per-bank: each bank's `ready` plus the bus
/// `floor`), so attribution keeps one cursor per PU and one for the bus
/// and classifies every cursor advance as it happens — the categories sum
/// to the channel wall-clock by construction.
struct Attr {
    channel: usize,
    bus: CycleBreakdown,
    pu: Vec<CycleBreakdown>,
    bus_last: u64,
    pu_last: Vec<u64>,
    events: Vec<StallEvent>,
    event_limit: usize,
    events_dropped: u64,
}

impl Attr {
    fn new(channel: usize, nbanks: usize, event_limit: usize) -> Self {
        Attr {
            channel,
            bus: CycleBreakdown::default(),
            pu: vec![CycleBreakdown::default(); nbanks],
            bus_last: 0,
            pu_last: vec![0; nbanks],
            events: Vec::new(),
            event_limit,
            events_dropped: 0,
        }
    }

    /// Advance the bus cursor to `to`, attributing the span to `cat`.
    fn bus_span(&mut self, to: u64, cat: Category) {
        self.bus.add(cat, to - self.bus_last);
        self.bus_last = to;
    }

    /// Advance one PU's cursor to `to`, attributing the span to `cat`.
    fn pu_span(&mut self, i: usize, to: u64, cat: Category) {
        self.pu[i].add(cat, to - self.pu_last[i]);
        self.pu_last[i] = to;
    }

    /// Advance every cursor to `to` (all-bank lockstep spans): the bus
    /// gets `cat`; a PU that has already exited idles post-CEXIT instead.
    ///
    /// Exit state comes from the driver's consumed-offer flags
    /// ([`PuDriver`]), the one record of which offers the timing loop has
    /// delivered.
    fn span_all(&mut self, to: u64, cat: Category, exited: &[bool]) {
        self.bus_span(to, cat);
        for (i, &ex) in exited.iter().enumerate() {
            let c = if ex { Category::PostExitIdle } else { cat };
            self.pu_span(i, to, c);
        }
    }

    /// Attribute one data command's span for one PU: up to the PU's own
    /// work is Busy; the remainder goes to the outcome's stall category.
    #[allow(clippy::too_many_arguments)]
    fn pu_data(
        &mut self,
        i: usize,
        issue: u64,
        end: u64,
        rep: &StepReport,
        round: u64,
        slot: usize,
    ) {
        let delta = end - self.pu_last[i];
        if rep.outcome == StepOutcome::Exited {
            self.pu[i].add(Category::PostExitIdle, delta);
        } else {
            let busy = delta.min(rep.pu_cycles * DRAM_CYCLES_PER_PU_CYCLE);
            self.pu[i].add(Category::Busy, busy);
            let rest = delta - busy;
            let cat = match rep.outcome {
                StepOutcome::Executed => Category::LockstepWait,
                StepOutcome::ExecutedEmpty => Category::QueueEmptyStall,
                StepOutcome::OutOfPhase => Category::PredicatedOff,
                StepOutcome::QueueFull => Category::QueueFullStall,
                StepOutcome::Exited => unreachable!("handled above"),
            };
            self.pu[i].add(cat, rest);
            if matches!(
                rep.outcome,
                StepOutcome::ExecutedEmpty | StepOutcome::QueueFull
            ) {
                let kind = if rep.outcome == StepOutcome::QueueFull {
                    Category::QueueFullStall
                } else {
                    Category::QueueEmptyStall
                };
                self.event(StallEvent {
                    channel: self.channel,
                    bank: i,
                    round,
                    slot,
                    cycle: issue,
                    kind,
                });
            }
        }
        self.pu_last[i] = end;
    }

    /// Attribute one all-bank data command: the bus is Busy up to the
    /// issue cycle; any back-pressure drag past it is LockstepWait. Each
    /// PU splits its span via [`Attr::pu_data`].
    fn data_all(&mut self, issue: u64, end: u64, steps: &[StepReport], round: u64, slot: usize) {
        self.bus.add(Category::Busy, issue - self.bus_last);
        self.bus.add(Category::LockstepWait, end - issue);
        self.bus_last = end;
        for (i, rep) in steps.iter().enumerate() {
            self.pu_data(i, issue, end, rep, round, slot);
        }
    }

    fn event(&mut self, ev: StallEvent) {
        if self.events.len() < self.event_limit {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Close the books at the channel wall-clock: residual PU time is
    /// post-CEXIT idle (per-bank lanes drain at different times), residual
    /// bus time is back-pressure drag.
    fn finish(mut self, cycles: u64) -> (ChannelMetrics, Vec<StallEvent>, u64) {
        self.bus.add(Category::LockstepWait, cycles - self.bus_last);
        for i in 0..self.pu.len() {
            self.pu[i].add(Category::PostExitIdle, cycles - self.pu_last[i]);
        }
        (
            ChannelMetrics {
                cycles,
                bus: self.bus,
                pu: self.pu,
            },
            self.events,
            self.events_dropped,
        )
    }
}

/// Build the outcome's attribution fields from a finished accumulator.
fn finish_attr(attr: Option<Attr>, cycles: u64) -> (Option<ChannelMetrics>, Vec<StallEvent>, u64) {
    match attr {
        Some(a) => {
            let (m, e, d) = a.finish(cycles);
            (Some(m), e, d)
        }
        None => (None, Vec::new(), 0),
    }
}

/// Bounded command-trace sink: records up to `limit` events and counts the
/// overflow instead of growing without bound on long kernels.
struct TraceBuf {
    events: Vec<TraceEvent>,
    limit: usize,
    dropped: u64,
    enabled: bool,
}

impl TraceBuf {
    fn new(cfg: &EngineConfig) -> Self {
        TraceBuf {
            events: Vec::new(),
            limit: cfg.trace_limit,
            dropped: 0,
            enabled: cfg.record_trace,
        }
    }

    fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.limit {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Everything a replay does with an issued command besides timing it:
/// record it into the bounded trace and feed the independent protocol
/// checker.
struct Recorder {
    trace: TraceBuf,
    checker: Option<ProtocolChecker>,
    ch: usize,
}

impl Recorder {
    fn new(cfg: &EngineConfig, ch: usize) -> Self {
        Recorder {
            trace: TraceBuf::new(cfg),
            checker: make_checker(cfg, ch),
            ch,
        }
    }

    /// Record one issue attempt; an illegal command aborts the run.
    fn note(
        &mut self,
        scope: Scope,
        cmd: CmdKind,
        issued: Result<Issued, IssueError>,
    ) -> Result<Issued, CoreError> {
        let issued = issued.map_err(|e| CoreError::Execution(e.to_string()))?;
        self.trace.record(TraceEvent {
            channel: self.ch,
            cycle: issued.issue_cycle,
            scope,
            cmd,
        });
        if let Some(c) = self.checker.as_mut() {
            c.observe(issued.issue_cycle, scope, cmd);
        }
        Ok(issued)
    }
}

/// An independent checker for this channel when self-auditing is on. The
/// lockstep invariant only applies to all-bank execution; refresh is
/// audited exactly when the engine models it.
fn make_checker(cfg: &EngineConfig, ch: usize) -> Option<ProtocolChecker> {
    cfg.validate.then(|| {
        ProtocolChecker::with_policy(
            &cfg.hbm,
            CheckPolicy {
                lockstep: matches!(cfg.mode, ExecMode::AllBank),
                expect_refresh: cfg.refresh,
                ..CheckPolicy::default()
            },
        )
        .for_channel(ch)
    })
}

/// Element width/advance for the engine's open-row cursor at a slot.
fn slot_advance(ins: &crate::isa::Instruction) -> (usize, usize) {
    use crate::isa::{Instruction as I, Operand};
    match *ins {
        I::Dmov {
            dst: Operand::Srf, ..
        }
        | I::Dmov {
            src: Operand::Srf, ..
        } => (8, 1),
        I::Dmov { precision, .. } | I::SpMov { precision, .. } => {
            (precision.bytes(), precision.lanes())
        }
        I::GthSct {
            dst: Operand::Bank, ..
        } => (8, 0), // scatter is random within the open row
        I::GthSct { precision, .. } => (precision.bytes(), precision.lanes()),
        I::SpFw { precision, .. } => (precision.bytes(), 3 * precision.lanes()),
        // Gathers/accumulates address randomly within their (single-row)
        // region; the cursor stays at the region head.
        I::IndMov { .. } | I::SpVdv { .. } => (8, 0),
        _ => (8, 0),
    }
}

/// Resolve a slot's cursor to the DRAM row to open and the column within
/// it. Shared by both replay modes so the decode sites cannot drift apart,
/// and checked:
/// a cursor that has run past the `u32` row space aborts the run instead
/// of silently truncating into a bogus row.
fn decode_slot_addr(
    start_row: u32,
    cursor: usize,
    elem_bytes: usize,
    row_bytes: usize,
    col_bytes: usize,
) -> Result<(u32, u32), CoreError> {
    let overflow = |byte_off: usize| {
        CoreError::Execution(format!(
            "slot byte offset {byte_off} (cursor {cursor} x {elem_bytes} B from row \
             {start_row}) overflows the DRAM row address space"
        ))
    };
    let byte_off = cursor
        .checked_mul(elem_bytes)
        .ok_or_else(|| overflow(usize::MAX))?;
    let want_row = u32::try_from(byte_off / row_bytes)
        .ok()
        .and_then(|r| start_row.checked_add(r))
        .ok_or_else(|| overflow(byte_off))?;
    let col = u32::try_from((byte_off % row_bytes) / col_bytes)
        .expect("column index is bounded by columns per row");
    Ok((want_row, col))
}

/// A parked-slot cache entry meaning "unknown / not parked": the next
/// offer must go through the interpreter.
const NOT_PARKED: usize = usize::MAX;

/// PU stepping front-end: parked-slot skip synthesis.
///
/// Under partially synchronous execution every offer a bank sees is
/// determined by the fixed cyclic command schedule alone — the timing loop
/// decides *when* commands issue, never *which* PU steps next. So the
/// driver skips the interpreter whenever the outcome is already known:
///
/// * a live unit parked at memory slot `m` ([`ProcessingUnit::pending_slot`])
///   offered any `slot != m` only bumps `predicated_off` and reports
///   `OutOfPhase` — synthesized here from the cached parked slot;
/// * an exited unit only bumps `predicated_off` and reports `Exited`.
///
/// Everything else (the schedule reaching the parked slot) steps the
/// interpreter ([`ProcessingUnit::on_command`]) and refreshes the cache.
/// Both synthesized reports are exactly what the interpreter would return,
/// so skipping it changes no cycle, counter or value. Most offers in a
/// partially synchronous stream are predications — the whole point of the
/// execution model — so this removes the interpreter from the common case.
///
/// `exited`/`live` track exit state *as consumed by the timing loop*, which
/// drives round bookkeeping, attribution and loop termination.
struct PuDriver<'a> {
    pus: &'a mut [ProcessingUnit],
    mems: &'a mut [BankMemory],
    exited: Vec<bool>,
    live: usize,
    /// Per-bank parked memory slot, [`NOT_PARKED`] when the unit must be
    /// stepped through the interpreter.
    parked: Vec<usize>,
}

impl<'a> PuDriver<'a> {
    fn new(pus: &'a mut [ProcessingUnit], mems: &'a mut [BankMemory]) -> Self {
        let n = pus.len();
        PuDriver {
            pus,
            mems,
            exited: vec![false; n],
            live: n,
            parked: vec![NOT_PARKED; n],
        }
    }

    /// Run every unit's free prelude (control/compute instructions before
    /// the first memory slot) and record prelude exits.
    fn prelude(&mut self) {
        for b in 0..self.pus.len() {
            self.pus[b].run_free(&mut self.mems[b]);
            if self.pus[b].exited() {
                self.exited[b] = true;
                self.live -= 1;
            } else {
                self.parked[b] = self.pus[b].pending_slot().unwrap_or(NOT_PARKED);
            }
        }
    }

    /// Offer the command at `slot` to bank `b` and return its report.
    /// Updates the consumed-offer exit flags; exit-*round* bookkeeping
    /// stays with the caller (the two exec modes time-stamp it
    /// differently).
    fn step(&mut self, b: usize, slot: usize) -> StepReport {
        let m = self.parked[b];
        if self.exited[b] || (m != NOT_PARKED && m != slot) {
            // An exited unit, or a parked unit offered a foreign slot: a
            // pure predication the interpreter would only count.
            self.pus[b].note_predicated_off(1);
            return StepReport {
                executed: false,
                pu_cycles: 0,
                outcome: if self.exited[b] {
                    StepOutcome::Exited
                } else {
                    StepOutcome::OutOfPhase
                },
            };
        }
        let rep = self.pus[b].on_command(slot, &mut self.mems[b]);
        if self.pus[b].exited() {
            self.exited[b] = true;
            self.live -= 1;
        } else {
            self.parked[b] = self.pus[b].pending_slot().unwrap_or(NOT_PARKED);
        }
        rep
    }
}

/// Replay channel `ch` of the kernel to completion over this channel's
/// banks. `pus`/`mems` are the channel's slice of the cube (bank `i` of
/// the channel at index `i`); no state outside the slices is touched, so
/// disjoint channels may run concurrently.
pub(super) fn run_channel(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    match ctx.cfg.mode {
        ExecMode::AllBank => run_channel_allbank(ctx, ch, pus, mems),
        ExecMode::PerBank => run_channel_perbank(ctx, ch, pus, mems),
    }
}

fn run_channel_allbank(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    let cfg = ctx.cfg;
    let program = ctx.program;
    let mut channel = AbChannel::new(&cfg.hbm);
    let mut rec = Recorder::new(cfg, ch);
    let mut issue =
        |cmd: CmdKind, from: u64| rec.note(Scope::AllBanks, cmd, channel.issue_earliest(cmd, from));
    let nbanks = pus.len();
    let mut driver = PuDriver::new(pus, mems);
    let mut attr = cfg
        .attribute
        .then(|| Attr::new(ch, nbanks, cfg.event_limit));
    let mut step_buf: Vec<StepReport> = Vec::with_capacity(if attr.is_some() { nbanks } else { 0 });
    let mut now: u64 = 0;

    // Mode switching (SB→AB→AB-PIM) + CRF programming as MRS commands.
    let setup_cmds = 2 * psim_dram::mode::SWITCH_SEQUENCE_LEN + program.len();
    for _ in 0..setup_cmds {
        now = issue(CmdKind::Mrs, now)?.issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        a.span_all(now, Category::Setup, &driver.exited);
    }

    driver.prelude();

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut cursors = ctx.initial_cursors();
    let mut open_row: Option<u32> = None;
    let mut rounds = 0u64;
    // Read-latency depth the command pipeline hides: PU consumption of
    // burst k overlaps issue of burst k+1.
    let pipeline = cfg.hbm.timing.rl + 1;
    let mut pu_free: u64 = 0;

    'outer: loop {
        if driver.live == 0 {
            break;
        }
        rounds += 1;
        if rounds > cfg.max_rounds {
            return Err(CoreError::Execution(format!(
                "kernel exceeded {} rounds without exiting",
                cfg.max_rounds
            )));
        }
        for &slot in ctx.schedule {
            if cfg.refresh && now >= next_refresh {
                if open_row.is_some() {
                    now = issue(CmdKind::Pre, now)?.issue_cycle;
                    open_row = None;
                }
                now = issue(CmdKind::Ref, now)?.issue_cycle;
                next_refresh = now + t_refi;
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RefreshShadow, &driver.exited);
                }
            }
            // Engine-side open-row bookkeeping uses the first bank's
            // layout; all banks allocate regions identically (equal
            // rows/bank).
            let (want_row, kind, advance) =
                ctx.slot_access(slot, cursors[slot], &driver.mems[0])?;
            if open_row != Some(want_row) {
                if open_row.is_some() {
                    now = issue(CmdKind::Pre, now)?.issue_cycle;
                }
                now = issue(CmdKind::Act { row: want_row }, now)?.issue_cycle;
                open_row = Some(want_row);
                if let Some(a) = attr.as_mut() {
                    a.span_all(now, Category::RowSwitchWait, &driver.exited);
                }
            }
            let issued = issue(kind, now)?;
            now = issued.issue_cycle;

            let mut max_busy = 0u64;
            if attr.is_some() {
                step_buf.clear();
            }
            for b in 0..nbanks {
                let was_exited = driver.exited[b];
                let rep = driver.step(b, slot);
                max_busy = max_busy.max(rep.pu_cycles);
                if !was_exited && driver.exited[b] {
                    driver.pus[b].mark_exit_round(rounds);
                }
                if attr.is_some() {
                    step_buf.push(rep);
                }
            }
            // Lockstep back-pressure with pipelining: the slowest PU
            // consumes burst k while burst k+1 is in flight; only a PU
            // that falls behind the read latency stalls the bus.
            pu_free = pu_free.max(issued.data_cycle) + max_busy * DRAM_CYCLES_PER_PU_CYCLE;
            now = now.max(pu_free.saturating_sub(pipeline));
            cursors[slot] += advance;
            if let Some(a) = attr.as_mut() {
                a.data_all(issued.issue_cycle, now, &step_buf, rounds, slot);
            }

            if driver.live == 0 {
                break 'outer;
            }
        }
        // Host completion poll once per iteration: a column read of the
        // status location while a row is open (HBM-PIM style polling), an
        // MRS register read otherwise — MRS is illegal with an open row.
        let poll = if open_row.is_some() {
            CmdKind::Rd { col: 0 }
        } else {
            CmdKind::Mrs
        };
        now = issue(poll, now)?.issue_cycle;
        if let Some(a) = attr.as_mut() {
            a.span_all(now, Category::HostSync, &driver.exited);
        }
    }
    // PUs that exited during the free prelude never went through the
    // in-round exit bookkeeping; mark_exit_round is idempotent.
    for pu in driver.pus.iter_mut() {
        if pu.exited() {
            pu.mark_exit_round(rounds);
        }
    }
    if open_row.is_some() {
        now = issue(CmdKind::Pre, now)?.issue_cycle;
    }
    // Switch back to SB mode.
    for _ in 0..2 * psim_dram::mode::SWITCH_SEQUENCE_LEN {
        now = issue(CmdKind::Mrs, now)?.issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        // Teardown precharge + SB switch: bus does setup work, every PU
        // (all exited by now) idles post-CEXIT via span_all.
        a.span_all(now, Category::Setup, &driver.exited);
    }
    let (metrics, stall_events, stall_events_dropped) = finish_attr(attr, now);
    Ok(ChannelOutcome {
        cycles: now,
        stats: *channel.stats(),
        rounds,
        trace: rec.trace.events,
        trace_dropped: rec.trace.dropped,
        check: rec.checker.map(|c| c.finish(now)),
        metrics,
        stall_events,
        stall_events_dropped,
    })
}

/// Per-bank round-robin issue state (one per bank of the channel).
struct BankCtl {
    sched_idx: usize,
    rounds: u64,
    cursors: Vec<usize>,
    open_row: Option<u32>,
    ready: u64,
    pu_free: u64,
}

fn run_channel_perbank(
    ctx: &ChannelCtx<'_>,
    ch: usize,
    pus: &mut [ProcessingUnit],
    mems: &mut [BankMemory],
) -> Result<ChannelOutcome, CoreError> {
    let cfg = ctx.cfg;
    let program = ctx.program;
    let schedule = ctx.schedule;
    let mut channel = Channel::new(&cfg.hbm);
    let mut rec = Recorder::new(cfg, ch);
    let mut issue = |scope: Scope, cmd: CmdKind, from: u64| {
        rec.note(scope, cmd, channel.issue_earliest(scope, cmd, from))
    };
    let nbanks = pus.len();
    let banks_per_group = cfg.hbm.banks_per_group;
    let mut driver = PuDriver::new(pus, mems);
    let mut attr = cfg
        .attribute
        .then(|| Attr::new(ch, nbanks, cfg.event_limit));

    // Per-bank setup: each bank's CRF is programmed individually.
    let mut now: u64 = 0;
    let setup_cmds = (2 * psim_dram::mode::SWITCH_SEQUENCE_LEN + program.len()) * nbanks;
    for i in 0..setup_cmds {
        let b = i % nbanks;
        let scope = Scope::OneBank {
            bg: b / banks_per_group,
            ba: b % banks_per_group,
        };
        now = issue(scope, CmdKind::Mrs, now)?.issue_cycle;
    }
    if let Some(a) = attr.as_mut() {
        a.span_all(now, Category::Setup, &driver.exited);
    }

    let init_cursors = ctx.initial_cursors();
    let pipeline = cfg.hbm.timing.rl + 1;
    let mut ctls: Vec<BankCtl> = (0..nbanks)
        .map(|_| BankCtl {
            sched_idx: 0,
            rounds: 0,
            cursors: init_cursors.clone(),
            open_row: None,
            ready: now,
            pu_free: 0,
        })
        .collect();
    driver.prelude();

    let t_refi = cfg.hbm.timing.t_refi;
    let mut next_refresh = now + t_refi;
    let mut floor = now;
    let mut max_rounds = 0u64;
    loop {
        // Refresh is a channel-global event even in per-bank mode: close
        // every open row, then issue one all-bank REF that stalls all
        // per-bank streams for tRFC.
        if cfg.refresh && floor >= next_refresh {
            for (i, ctl) in ctls.iter_mut().enumerate() {
                if ctl.open_row.is_some() {
                    let scope = Scope::OneBank {
                        bg: i / banks_per_group,
                        ba: i % banks_per_group,
                    };
                    let from = ctl.ready.max(floor);
                    let p = issue(scope, CmdKind::Pre, from)?.issue_cycle;
                    floor = floor.max(p);
                    ctl.open_row = None;
                    ctl.ready = ctl.ready.max(p);
                }
            }
            let r = issue(Scope::AllBanks, CmdKind::Ref, floor)?.issue_cycle;
            for ctl in &mut ctls {
                ctl.ready = ctl.ready.max(r);
            }
            floor = floor.max(r);
            next_refresh = r + t_refi;
            if let Some(a) = attr.as_mut() {
                a.bus_span(floor, Category::RefreshShadow);
                for (i, ctl) in ctls.iter().enumerate() {
                    let c = if driver.exited[i] {
                        Category::PostExitIdle
                    } else {
                        Category::RefreshShadow
                    };
                    a.pu_span(i, ctl.ready, c);
                }
            }
        }
        let mut any_active = false;
        for (i, ctl) in ctls.iter_mut().enumerate() {
            if driver.exited[i] {
                continue;
            }
            any_active = true;
            if ctl.rounds > cfg.max_rounds {
                return Err(CoreError::Execution(format!(
                    "per-bank kernel exceeded {} rounds",
                    cfg.max_rounds
                )));
            }
            let slot = schedule[ctl.sched_idx];
            let (want_row, kind, advance) =
                ctx.slot_access(slot, ctl.cursors[slot], &driver.mems[i])?;
            let scope = Scope::OneBank {
                bg: i / banks_per_group,
                ba: i % banks_per_group,
            };
            let mut t = ctl.ready.max(floor);
            if let Some(a) = attr.as_mut() {
                // The bank waited for the shared command bus to reach it.
                a.pu_span(i, t, Category::LockstepWait);
            }
            let mut switched_at: Option<u64> = None;
            if ctl.open_row != Some(want_row) {
                if ctl.open_row.is_some() {
                    t = issue(scope, CmdKind::Pre, t)?.issue_cycle;
                }
                t = issue(scope, CmdKind::Act { row: want_row }, t)?.issue_cycle;
                ctl.open_row = Some(want_row);
                switched_at = Some(t);
            }
            let issued = issue(scope, kind, t)?;
            floor = floor.max(issued.issue_cycle);

            let rep = driver.step(i, slot);
            ctl.pu_free =
                ctl.pu_free.max(issued.data_cycle) + rep.pu_cycles * DRAM_CYCLES_PER_PU_CYCLE;
            ctl.ready = issued.issue_cycle.max(ctl.pu_free.saturating_sub(pipeline));
            ctl.cursors[slot] += advance;
            if let Some(a) = attr.as_mut() {
                if let Some(ts) = switched_at {
                    a.pu_span(i, ts, Category::RowSwitchWait);
                }
                // Bus-view split of this bank's floor advance: the part up
                // to the row activation is row switching, the rest is
                // issue work.
                let bus_delta = floor - a.bus_last;
                let row_part =
                    switched_at.map_or(0, |ts| ts.saturating_sub(a.bus_last).min(bus_delta));
                a.bus.add(Category::RowSwitchWait, row_part);
                a.bus.add(Category::Busy, bus_delta - row_part);
                a.bus_last = floor;
                a.pu_data(i, issued.issue_cycle, ctl.ready, &rep, ctl.rounds, slot);
            }
            ctl.sched_idx += 1;
            if ctl.sched_idx == schedule.len() {
                ctl.sched_idx = 0;
                ctl.rounds += 1;
                max_rounds = max_rounds.max(ctl.rounds);
            }
            if driver.exited[i] {
                driver.pus[i].mark_exit_round(ctl.rounds);
            }
        }
        if !any_active {
            break;
        }
    }
    // PUs that exited during the free prelude were skipped by the issue
    // loop and never recorded an exit round; mark_exit_round is
    // idempotent.
    for (pu, ctl) in driver.pus.iter_mut().zip(ctls.iter()) {
        if pu.exited() {
            pu.mark_exit_round(ctl.rounds);
        }
    }
    let end = ctls
        .iter()
        .map(|c| c.ready)
        .max()
        .unwrap_or(floor)
        .max(floor);
    let (metrics, stall_events, stall_events_dropped) = finish_attr(attr, end);
    Ok(ChannelOutcome {
        cycles: end,
        stats: *channel.stats(),
        rounds: max_rounds,
        trace: rec.trace.events,
        trace_dropped: rec.trace.dropped,
        check: rec.checker.map(|c| c.finish(end)),
        metrics,
        stall_events,
        stall_events_dropped,
    })
}
