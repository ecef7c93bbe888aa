//! Channel-sharded job executor with SpMV→SpMM fusion and deterministic
//! work-stealing lanes.
//!
//! The device's pseudo-channels are independent (the cube's wall-clock is
//! just the slowest channel), so the executor carves one device into
//! `shards` equal channel slices via [`PimDevice::shard`] and serves
//! different jobs on different shards *concurrently in simulated time*:
//! each shard lane has its own simulated clock that advances by the
//! service time of every job it runs, and the batch's makespan is the
//! latest lane finish instead of the serial sum.
//!
//! Two service-mode optimizations live here:
//!
//! * **Fusion** — same-matrix SpMV jobs (same semiring, precision, class)
//!   arriving in one admission batch coalesce into a single
//!   [`psim_kernels::SpmmPim`] pass of up to [`ExecutorConfig::fusion`]
//!   vectors. Every SpMV group runs that way, a lone job as width 1, so
//!   all SpMV work goes through the kernels' one wave driver, whose
//!   per-vector results do not depend on the width (see `spmm.rs`):
//!   fusion changes *when* jobs finish, never *what* they compute. The
//!   first member of a group is the *leader* and carries the real
//!   [`KernelRun`]; followers carry zeroed accounting (cycle conservation
//!   holds batch-wide) but the group's service time (their latency is
//!   real).
//! * **Work stealing** — jobs are dealt to per-lane deques by projected
//!   finish time; whenever a lane's deque runs dry it steals the *back*
//!   of the most-loaded lane. All steal decisions are planned
//!   single-threaded on simulated state (lane clocks + remaining
//!   estimated cost) in lane-index order at epoch barriers and merge in
//!   lane order — so stealing is a pure function of the batch, never of
//!   thread timing. A group's kernels do not depend on its lane (every
//!   lane is the same device slice), so each admission window's groups
//!   all execute up front in one host-parallel phase and the epochs only
//!   consume their outcomes.
//!
//! Determinism contract: `shards` is a *simulated resource* parameter and
//! changes results (a shard is a smaller device), but `host_threads` is
//! pure host-side parallelism and never does. An N-thread run is
//! byte-identical to a serial one, which the determinism tests check via
//! [`SimStats`] JSON and job values.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::Instant;

use psim_conc::{AtomicU64, Mutex};
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{CostModel, KernelRun, PimDevice, SpmmPim, SptrsvPim, MAX_SPMM_WIDTH};
use psim_sparse::{Coo, Layout, MatrixFormat, Precision};
use psim_tune::Autotuner;
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::CoreError;

use crate::job::{Job, JobClass, JobId, JobKind, JobValue};
use crate::queue::JobQueue;
use crate::stats::{HostStats, ServiceStats, SimStats};

/// Executor construction error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The requested shard count does not evenly divide the device's
    /// pseudo-channels.
    BadShardSplit {
        /// Pseudo-channels on the device.
        channels: usize,
        /// Requested shard count.
        shards: usize,
    },
    /// A job's kernel failed.
    JobFailed {
        /// The failing job.
        id: JobId,
        /// The kernel error message.
        error: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::BadShardSplit { channels, shards } => write!(
                f,
                "cannot split {channels} pseudo-channels into {shards} shards"
            ),
            SchedError::JobFailed { id, error } => write!(f, "job {id} failed: {error}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// How the executor estimates a job's cost for shard placement.
///
/// Placement never affects job *results*, only which shard serves which
/// job (and therefore simulated waiting time), so both tiers are safe —
/// they trade placement quality against estimation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostTier {
    /// Operand-size proxy (`nnz + len`): free, but blind to skew, waves
    /// and level-schedule serialization.
    #[default]
    Heuristic,
    /// The O(nnz) analytical model ([`psim_kernels::CostModel`]):
    /// predicts DRAM cycles from partition shape and level structure, so
    /// a skewed SpMV or a chain-like SpTRSV weighs what it will actually
    /// cost.
    Analytical,
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// The device to carve up.
    pub device: PimDevice,
    /// Channel shards (simulated concurrency; must divide the device's
    /// pseudo-channel count).
    pub shards: usize,
    /// Host worker threads (host-side parallelism; never affects
    /// results) that execute each admission window's kernels. Clamped to
    /// `1..=shards` by [`ExecutorConfig::worker_threads`], which both
    /// execution and the [`HostStats`] reports use.
    pub host_threads: usize,
    /// Run every job with the independent protocol checker attached and
    /// fail jobs whose command streams violate the JEDEC contract. On by
    /// default in the constructors: a multi-tenant service must not
    /// silently serve results produced through an illegal stream.
    pub validate: bool,
    /// Run every job with psim-trace cycle attribution: each completed
    /// job's `run.attr` then accounts its `service_cycles` per stall
    /// category, and [`SimStats`] aggregates the batch-wide breakdown.
    /// Off by default (tracing is cheap but not free).
    pub trace: bool,
    /// Cost estimator for shard placement. Heuristic by default.
    pub cost_tier: CostTier,
    /// Fusion window width: up to this many same-matrix SpMV jobs (same
    /// semiring, precision and class) from one admission batch coalesce
    /// into a single SpMM pass. `1` (the constructors' default) disables
    /// fusion; values above [`MAX_SPMM_WIDTH`] are clamped.
    pub fusion: usize,
    /// Autotune each SpMV/SpMM matrix's execution layout (storage format,
    /// partition scheme, placement policy) with [`psim_tune::Autotuner`]
    /// at its first job, memoized by matrix identity so store-resident
    /// operands are analyzed once. Off by default: the baseline layout
    /// keeps results and schedules bit-identical to the pre-tuner
    /// executor. Every layout computes the same product — tuned results
    /// agree with the baseline to floating-point summation order (the
    /// differential oracle bounds the drift at 1e-9) — so tuning changes
    /// cycle accounting and placement, never what a job means.
    pub autotune: bool,
}

impl ExecutorConfig {
    /// Serial execution of the whole device: one shard, one thread.
    #[must_use]
    pub fn serial(device: PimDevice) -> Self {
        ExecutorConfig {
            device,
            shards: 1,
            host_threads: 1,
            validate: true,
            trace: false,
            cost_tier: CostTier::default(),
            fusion: 1,
            autotune: false,
        }
    }

    /// `shards` shards served by as many host threads.
    #[must_use]
    pub fn sharded(device: PimDevice, shards: usize) -> Self {
        ExecutorConfig {
            device,
            shards,
            host_threads: shards,
            validate: true,
            trace: false,
            cost_tier: CostTier::default(),
            fusion: 1,
            autotune: false,
        }
    }

    /// Same configuration under a different placement cost tier.
    #[must_use]
    pub fn with_cost_tier(mut self, tier: CostTier) -> Self {
        self.cost_tier = tier;
        self
    }

    /// Same configuration with an SpMV→SpMM fusion window of `width`.
    #[must_use]
    pub fn with_fusion(mut self, width: usize) -> Self {
        self.fusion = width;
        self
    }

    /// Same configuration with per-matrix layout autotuning switched on.
    #[must_use]
    pub fn with_autotune(mut self) -> Self {
        self.autotune = true;
        self
    }

    /// The host threads actually used: `host_threads` clamped to
    /// `1..=shards`.
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.host_threads.clamp(1, self.shards.max(1))
    }
}

/// One finished job with its service accounting.
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// Queue id.
    pub id: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Deadline class.
    pub class: JobClass,
    /// Kernel-family label.
    pub kind: &'static str,
    /// Shard the job ran on.
    pub shard: usize,
    /// The numeric result.
    pub value: JobValue,
    /// Kernel-level accounting (commands, energy, bytes).
    pub run: KernelRun,
    /// Simulated seconds the job waited between arrival and service start
    /// (queue time plus any time behind earlier jobs on its lane).
    pub wait_s: f64,
    /// Simulated service seconds (kernel + host interface). Fused
    /// followers share their group's service time — their end-to-end
    /// latency is the fused pass's, which is what tenants observe.
    pub service_s: f64,
    /// Service DRAM command cycles (kernel portion, exact integer).
    /// Zero for fused followers: the leader carries the whole group's
    /// cycles exactly once, so cycle conservation holds batch-wide.
    pub service_cycles: u64,
    /// Simulated arrival instant (0.0 for closed batches).
    pub arrival_s: f64,
    /// Simulated completion instant (`arrival_s + wait_s + service_s`).
    pub finish_s: f64,
    /// Width of the fused group this job ran in (1 = ran alone).
    pub fused_width: u32,
    /// Whether this job was its group's leader (always true when
    /// `fused_width == 1`). The leader carries the group's [`KernelRun`].
    pub fused_leader: bool,
}

/// Result of executing one batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Every job, sorted by id.
    pub jobs: Vec<CompletedJob>,
    /// Aggregated service statistics.
    pub stats: ServiceStats,
}

impl BatchReport {
    /// A completed job by id.
    #[must_use]
    pub fn job(&self, id: JobId) -> Option<&CompletedJob> {
        self.jobs.iter().find(|j| j.id == id)
    }
}

/// The channel-sharded executor.
#[derive(Debug, Clone)]
pub struct ShardExecutor {
    cfg: ExecutorConfig,
    shard_device: PimDevice,
    /// Tuned-layout memo, keyed by matrix identity (`Arc` pointer — the
    /// same key fusion uses): a [`MatrixStore`](crate::MatrixStore)-
    /// resident matrix is analyzed once, at its first job, and every
    /// later job against the same handle reuses the decision. Each entry
    /// holds a `Weak` to its matrix, which keeps the allocation — and so
    /// the key's address — from being reused while the entry lives;
    /// entries whose matrix is gone are pruned on insert. Shared across
    /// clones so a service front-end and its workers agree.
    tuned: Arc<Mutex<TunedMemo>>,
}

/// Matrix address → (the matrix, its tuned layout).
type TunedMemo = HashMap<usize, (Weak<Coo>, Layout)>;

impl ShardExecutor {
    /// Build an executor, validating the shard split.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadShardSplit`] when `shards` does not evenly divide
    /// the device's pseudo-channels.
    pub fn new(cfg: ExecutorConfig) -> Result<Self, SchedError> {
        let mut shard_device = cfg
            .device
            .shard(cfg.shards)
            .ok_or(SchedError::BadShardSplit {
                channels: cfg.device.hbm.num_pseudo_channels,
                shards: cfg.shards,
            })?;
        shard_device.validate = cfg.validate;
        shard_device.trace = cfg.trace;
        Ok(ShardExecutor {
            cfg,
            shard_device,
            tuned: Arc::new(Mutex::labeled("sched.tune", HashMap::new())),
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// The per-shard device slice jobs actually run on.
    #[must_use]
    pub fn shard_device(&self) -> &PimDevice {
        &self.shard_device
    }

    /// The layout this executor runs matrix `a` from.
    ///
    /// With autotuning off this is the baseline layout — identical to the
    /// kernels' own defaults, so existing configurations stay bit-exact.
    /// With it on, the first job naming `a` pays one O(nnz)
    /// [`Autotuner::decide`] pass against the shard device and the choice
    /// is memoized by `Arc` identity. Non-arithmetic semirings keep the
    /// tuned scheme and policy but fall back to the element format:
    /// blocked zero-fill is only sound under `(Mul, Add)`.
    #[must_use]
    pub fn tuned_layout(
        &self,
        a: &Arc<Coo>,
        precision: Precision,
        mul: BinaryOp,
        acc: BinaryOp,
    ) -> Layout {
        if !self.cfg.autotune {
            return Layout::baseline();
        }
        let key = Arc::as_ptr(a) as usize;
        let cached = self.tuned.lock().get(&key).map(|&(_, layout)| layout);
        let mut layout = cached.unwrap_or_else(|| {
            // Decide outside the lock (the pass walks all of `a`), then
            // keep whichever decision reached the memo first — decide()
            // is deterministic, so racers agree anyway.
            let choice = Autotuner::new(&self.shard_device)
                .decide(a, precision)
                .choice;
            let mut memo = self.tuned.lock();
            memo.retain(|_, (matrix, _)| matrix.strong_count() > 0);
            memo.entry(key).or_insert((Arc::downgrade(a), choice)).1
        });
        if !(mul == BinaryOp::Mul && acc == BinaryOp::Add) {
            layout.format = MatrixFormat::Coo;
        }
        layout
    }

    /// The placement cost of one job under the configured [`CostTier`].
    ///
    /// Heuristic: the operand-size proxy from [`Job::cost_estimate`].
    /// Analytical: predicted DRAM cycles on the *shard* device (jobs run
    /// on shard slices, so the slice geometry is what placement should
    /// weigh).
    #[must_use]
    pub fn job_cost(&self, job: &Job) -> u64 {
        match self.cfg.cost_tier {
            CostTier::Heuristic => job.cost_estimate(),
            CostTier::Analytical => {
                let model = CostModel::new(&self.shard_device);
                let p = job.spec.precision;
                let cycles = match &job.spec.kind {
                    JobKind::Spmv { a, mul, acc, .. } => {
                        let layout = self.tuned_layout(a, p, *mul, *acc);
                        model.spmv_layout(a, p, layout).cycles
                    }
                    JobKind::Sptrsv { t, .. } => model.sptrsv(t, p).cycles,
                    JobKind::Axpy { x, .. } => model.axpy(x.len(), p).cycles,
                    JobKind::Scal { x, .. } => model.scal(x.len(), p).cycles,
                    JobKind::Vv { x, .. } => model.vv(x.len(), p).cycles,
                    JobKind::Dot { x, .. } => model.dot(x.len(), p).cycles,
                    JobKind::Norm2 { x } => model.norm2(x.len(), p).cycles,
                };
                cycles.max(1)
            }
        }
    }

    /// Drain every job currently queued (in the queue's fairness order)
    /// and execute the batch.
    ///
    /// # Errors
    ///
    /// [`SchedError::JobFailed`] when a kernel fails.
    pub fn drain_and_run(&self, queue: &JobQueue) -> Result<BatchReport, SchedError> {
        self.run_jobs(queue.drain())
    }

    /// Execute a batch of jobs (already ordered by the scheduling policy).
    ///
    /// # Errors
    ///
    /// [`SchedError::JobFailed`] when a kernel fails.
    pub fn run_jobs(&self, jobs: Vec<Job>) -> Result<BatchReport, SchedError> {
        let started = Instant::now();
        let shards = self.cfg.shards;
        let mut engine = LaneEngine::new(shards);
        engine.feed(self, jobs);
        let mut completed = Vec::new();
        engine.run_until_dry(self, &mut |job| completed.push(job))?;
        completed.sort_by_key(|j| j.id);
        let sim = SimStats::from_jobs(&completed, shards, engine.steals);
        Ok(BatchReport {
            jobs: completed,
            stats: ServiceStats {
                sim,
                host: HostStats {
                    walltime_s: started.elapsed().as_secs_f64(),
                    threads: self.cfg.worker_threads(),
                },
            },
        })
    }

    /// Coalesce a batch (in scheduling order) into execution groups:
    /// same-matrix SpMV jobs with matching semiring, precision and class
    /// fuse up to the configured window width; everything else runs as a
    /// singleton. Group order follows each group's first member, so the
    /// queue's fairness order survives fusion.
    fn fuse_batch(&self, jobs: Vec<Job>) -> Vec<Group> {
        let width = self.cfg.fusion.clamp(1, MAX_SPMM_WIDTH);
        let mut groups: Vec<Group> = Vec::new();
        // Indices of still-open fusion groups; a linear scan is plenty at
        // admission-window sizes and keeps the matching deterministic.
        let mut open: Vec<usize> = Vec::new();
        for job in jobs {
            if width > 1 {
                if let Some(key) = fusion_key(&job) {
                    if let Some(pos) = open
                        .iter()
                        .position(|&gi| fusion_key(&groups[gi].jobs[0]) == Some(key))
                    {
                        let gi = open[pos];
                        groups[gi].arrival_s = groups[gi].arrival_s.max(job.spec.arrival_s);
                        groups[gi].jobs.push(job);
                        if groups[gi].jobs.len() >= width {
                            open.remove(pos);
                        }
                        continue;
                    }
                    open.push(groups.len());
                    groups.push(Group::singleton(job));
                    continue;
                }
            }
            groups.push(Group::singleton(job));
        }
        for g in &mut groups {
            g.cost = self.group_cost(g);
        }
        groups
    }

    /// Placement cost of one execution group.
    fn group_cost(&self, group: &Group) -> u64 {
        if group.jobs.len() == 1 {
            return self.job_cost(&group.jobs[0]);
        }
        match self.cfg.cost_tier {
            // The proxy just sums members: blind to traversal sharing but
            // monotone in group size, which is all placement needs.
            CostTier::Heuristic => group
                .jobs
                .iter()
                .map(Job::cost_estimate)
                .sum::<u64>()
                .max(1),
            CostTier::Analytical => {
                let JobKind::Spmv { a, mul, acc, .. } = &group.jobs[0].spec.kind else {
                    unreachable!("fused groups are SpMV by construction")
                };
                let p = group.jobs[0].spec.precision;
                let layout = self.tuned_layout(a, p, *mul, *acc);
                CostModel::new(&self.shard_device)
                    .spmm_layout(a, group.jobs.len(), p, layout)
                    .cycles
                    .max(1)
            }
        }
    }

    /// Execute one group on the shard device: every SpMV group, solo or
    /// fused, is one SpMM pass over its members' vectors; any other job
    /// runs its own kernel. Returns one value per member (member order)
    /// plus the group's [`KernelRun`].
    fn run_group(&self, group: &Group) -> GroupOutcome {
        let leader = &group.jobs[0];
        let fail = |e: String| SchedError::JobFailed {
            id: leader.id,
            error: e,
        };
        let (values, run) = if let JobKind::Spmv { a, mul, acc, .. } = &leader.spec.kind {
            let xs: Vec<&[f64]> = group
                .jobs
                .iter()
                .map(|j| {
                    let JobKind::Spmv { x, .. } = &j.spec.kind else {
                        unreachable!("SpMV groups hold only SpMV jobs")
                    };
                    x.as_slice()
                })
                .collect();
            let layout = self.tuned_layout(a, leader.spec.precision, *mul, *acc);
            let r = SpmmPim::with_semiring(
                self.shard_device.clone(),
                leader.spec.precision,
                *mul,
                *acc,
            )
            .with_layout(layout)
            .run(a, &xs)
            .map_err(|e| fail(e.to_string()))?;
            (r.ys.into_iter().map(JobValue::Vector).collect(), r.run)
        } else {
            let (value, run) = self.run_kernel(leader).map_err(|e| fail(e.to_string()))?;
            (vec![value], run)
        };
        if run.violations > 0 {
            return Err(fail(format!(
                "protocol validation failed: {} violation(s) in the command stream",
                run.violations
            )));
        }
        Ok((values, run))
    }

    /// Dispatch one non-SpMV job's kernel on the shard device (SpMV jobs
    /// run as groups, see `Self::run_group`).
    fn run_kernel(&self, job: &Job) -> Result<(JobValue, KernelRun), CoreError> {
        let precision = job.spec.precision;
        let blas = || Blas1Pim::new(self.shard_device.clone(), precision);
        match &job.spec.kind {
            JobKind::Spmv { .. } => unreachable!("SpMV jobs run through run_group"),
            JobKind::Sptrsv { t, b } => {
                let mut solver = SptrsvPim::new(self.shard_device.clone());
                solver.precision = precision;
                let r = solver.run(t, b)?;
                Ok((JobValue::Vector(r.x), r.run))
            }
            JobKind::Axpy { alpha, x, y } => {
                let r = blas().daxpy(*alpha, x, y)?;
                Ok((JobValue::Vector(r.v), r.run))
            }
            JobKind::Scal { alpha, x } => {
                let r = blas().dscal(*alpha, x)?;
                Ok((JobValue::Vector(r.v), r.run))
            }
            JobKind::Vv { x, y, op } => {
                let r = blas().dvdv(x, y, *op)?;
                Ok((JobValue::Vector(r.v), r.run))
            }
            JobKind::Dot { x, y } => {
                let r = blas().ddot(x, y)?;
                Ok((JobValue::Scalar(r.s), r.run))
            }
            JobKind::Norm2 { x } => {
                let r = blas().dnrm2(x)?;
                Ok((JobValue::Scalar(r.s), r.run))
            }
        }
    }
}

/// The fusion identity of an SpMV job: matrix identity (by `Arc` pointer
/// — same handle, not merely equal contents), semiring, precision, class.
/// `None` for every other kind.
type FusionKey = (
    *const psim_sparse::Coo,
    psyncpim_core::isa::BinaryOp,
    psyncpim_core::isa::BinaryOp,
    psim_sparse::Precision,
    JobClass,
);

fn fusion_key(job: &Job) -> Option<FusionKey> {
    match &job.spec.kind {
        JobKind::Spmv { a, mul, acc, .. } => Some((
            Arc::as_ptr(a),
            *mul,
            *acc,
            job.spec.precision,
            job.spec.class,
        )),
        _ => None,
    }
}

/// One value per group member (member order) plus the group's
/// [`KernelRun`], or the leader's failure.
type GroupOutcome = Result<(Vec<JobValue>, KernelRun), SchedError>;

/// One execution unit: a fused SpMV group or a singleton of any kind.
#[derive(Debug)]
struct Group {
    /// Members in admission order; `jobs[0]` is the leader.
    jobs: Vec<Job>,
    /// Placement cost estimate (configured [`CostTier`] units).
    cost: u64,
    /// The group becomes runnable when its latest member has arrived.
    arrival_s: f64,
    /// The kernels' result, filled in by the window's execution phase
    /// before any epoch plans the group.
    outcome: Option<GroupOutcome>,
}

impl Group {
    fn singleton(job: Job) -> Self {
        Group {
            arrival_s: job.spec.arrival_s,
            cost: 0,
            jobs: vec![job],
            outcome: None,
        }
    }
}

/// Per-lane deques with deterministic work stealing.
///
/// The engine is the executor's scheduling state machine, persistent
/// across admission batches (the service front-end keeps one alive for
/// its whole run so lane clocks carry over):
///
/// * **deal** — each fed group goes to the lane with the earliest
///   *projected finish* (`clock + remaining_cost × scale`), ties to the
///   lowest lane index. With idle lanes this degenerates to the classic
///   least-loaded greedy.
/// * **execute** — every dealt group's kernels run once, in one
///   host-parallel phase per admission window. A group's outcome is a
///   pure function of the group (every lane is the same device slice);
///   only lane choice, clocks, steals and merge order depend on the
///   schedule, so execution need not wait for planning.
/// * **epoch loop** — each epoch plans at most one group per lane,
///   single-threaded in lane-index order: a lane pops its own front, or
///   steals from the *back* of the lane with the most remaining estimated
///   cost — but only when the thief's projected finish of the stolen
///   group beats the victim's projected finish of its whole queue (a
///   steal that wouldn't help is not a steal). The planned groups then
///   merge their precomputed outcomes in lane order.
///
/// Every decision reads only simulated state, so the schedule — and
/// therefore every statistic — is a pure function of the fed batches,
/// independent of host thread count.
#[derive(Debug)]
pub(crate) struct LaneEngine {
    lanes: Vec<VecDeque<Group>>,
    /// Simulated completion time of each lane's last finished group.
    clocks: Vec<f64>,
    /// Estimated cost still queued per lane.
    remaining: Vec<u64>,
    /// Groups moved between lanes by the stealer.
    pub(crate) steals: u64,
    /// Calibration: observed service seconds per executed cost unit.
    total_service_s: f64,
    total_cost: f64,
}

impl LaneEngine {
    pub(crate) fn new(shards: usize) -> Self {
        LaneEngine {
            lanes: (0..shards).map(|_| VecDeque::new()).collect(),
            clocks: vec![0.0; shards],
            remaining: vec![0; shards],
            steals: 0,
            total_service_s: 0.0,
            total_cost: 0.0,
        }
    }

    /// Seconds one estimated cost unit is currently worth — calibrated
    /// from every group executed so far (deterministic: simulated service
    /// seconds over estimated cost). The bootstrap value only matters for
    /// the very first deal, where all clocks are 0 anyway.
    fn scale(&self) -> f64 {
        if self.total_cost > 0.0 {
            self.total_service_s / self.total_cost
        } else {
            1e-9
        }
    }

    fn projected_finish(&self, lane: usize, scale: f64) -> f64 {
        self.clocks[lane] + self.remaining[lane] as f64 * scale
    }

    /// Fuse and deal one admission batch onto the lanes.
    pub(crate) fn feed(&mut self, exec: &ShardExecutor, jobs: Vec<Job>) {
        let scale = self.scale();
        for group in exec.fuse_batch(jobs) {
            let lane = (0..self.lanes.len())
                .min_by(|&a, &b| {
                    self.projected_finish(a, scale)
                        .partial_cmp(&self.projected_finish(b, scale))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("shards >= 1");
            self.remaining[lane] += group.cost;
            self.lanes[lane].push_back(group);
        }
    }

    /// Plan one epoch: at most one group per lane, in lane-index order.
    /// Mutates deques and steal counters; pure simulated state in, so the
    /// plan is deterministic.
    fn plan_epoch(&mut self) -> Vec<(usize, Group)> {
        let scale = self.scale();
        let mut plan = Vec::new();
        for lane in 0..self.lanes.len() {
            if let Some(group) = self.lanes[lane].pop_front() {
                self.remaining[lane] -= group.cost;
                plan.push((lane, group));
                continue;
            }
            // Steal from the back of the most-loaded victim, ties to the
            // lowest index.
            let Some(victim) = (0..self.lanes.len())
                .filter(|&v| !self.lanes[v].is_empty())
                .max_by_key(|&v| (self.remaining[v], std::cmp::Reverse(v)))
            else {
                continue;
            };
            let back = self.lanes[victim].back().expect("non-empty");
            let thief_finish = self.clocks[lane].max(back.arrival_s) + back.cost as f64 * scale;
            if thief_finish < self.projected_finish(victim, scale) {
                let group = self.lanes[victim].pop_back().expect("non-empty");
                self.remaining[victim] -= group.cost;
                self.steals += 1;
                plan.push((lane, group));
            }
        }
        plan
    }

    /// Execute every queued group that has no outcome yet — one
    /// admission window's worth after [`LaneEngine::feed`] — in a single
    /// host-parallel phase. Workers pull the next group from a shared
    /// index, largest estimated cost first, so long kernels start early
    /// and short ones fill the tail. Outcomes depend only on the group, so
    /// threads never influence results.
    fn execute_pending(&mut self, exec: &ShardExecutor) {
        let pending: Vec<&Group> = self
            .lanes
            .iter()
            .flatten()
            .filter(|g| g.outcome.is_none())
            .collect();
        // Under the interleaving explorer raw scoped threads would be
        // invisible to the model scheduler, so execution degrades to
        // serial there — same results by the determinism contract, every
        // schedule decision stays explorable.
        let threads = if psim_conc::model::in_model() {
            1
        } else {
            exec.cfg.worker_threads().min(pending.len())
        };
        let outcomes: Vec<Option<GroupOutcome>> = if threads <= 1 {
            pending.iter().map(|g| Some(exec.run_group(g))).collect()
        } else {
            let mut order: Vec<usize> = (0..pending.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(pending[i].cost));
            let next = AtomicU64::new(0);
            let work = || {
                let mut done = Vec::new();
                while let Some(&i) = order.get(next.fetch_add(1) as usize) {
                    done.push((i, exec.run_group(pending[i])));
                }
                done
            };
            let done = std::thread::scope(|s| {
                let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
                let mut done = work();
                for helper in helpers {
                    done.extend(
                        helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                    );
                }
                done
            });
            let mut slots: Vec<Option<GroupOutcome>> = pending.iter().map(|_| None).collect();
            for (i, outcome) in done {
                slots[i] = Some(outcome);
            }
            slots
        };
        let pending = self
            .lanes
            .iter_mut()
            .flatten()
            .filter(|g| g.outcome.is_none());
        for (group, outcome) in pending.zip(outcomes) {
            group.outcome = outcome;
        }
    }

    /// Execute the fed groups (see [`LaneEngine::execute_pending`]), then
    /// run epochs until every lane's deque is empty, streaming each
    /// completed job (leader first within a group, groups in lane order
    /// within an epoch) into `sink`. A failed group's error surfaces at
    /// its place in that merge order.
    pub(crate) fn run_until_dry(
        &mut self,
        exec: &ShardExecutor,
        sink: &mut dyn FnMut(CompletedJob),
    ) -> Result<(), SchedError> {
        self.execute_pending(exec);
        loop {
            let plan = self.plan_epoch();
            if plan.is_empty() {
                return Ok(());
            }
            // Merge in plan (lane) order, advancing simulated clocks.
            for (lane, mut group) in plan {
                let (values, run) = group.outcome.take().expect("every queued group executed")?;
                let service_s = run.total_s();
                let start_s = self.clocks[lane].max(group.arrival_s);
                self.clocks[lane] = start_s + service_s;
                self.total_service_s += service_s;
                self.total_cost += group.cost as f64;
                let width = group.jobs.len() as u32;
                for (i, (job, value)) in group.jobs.into_iter().zip(values).enumerate() {
                    let leader = i == 0;
                    sink(CompletedJob {
                        id: job.id,
                        tenant: job.spec.tenant,
                        class: job.spec.class,
                        kind: job.spec.kind.label(),
                        shard: lane,
                        value,
                        run: if leader {
                            run.clone()
                        } else {
                            KernelRun::default()
                        },
                        wait_s: start_s - job.spec.arrival_s,
                        service_s,
                        service_cycles: if leader { run.dram_cycles } else { 0 },
                        arrival_s: job.spec.arrival_s,
                        finish_s: start_s + service_s,
                        fused_width: width,
                        fused_leader: leader,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::queue::SubmitError;
    use psim_kernels::SpmvPim;
    use serde::Serialize as _;
    use std::sync::Arc;

    fn scal_job(tenant: &str, n: usize) -> JobSpec {
        JobSpec::batch(
            tenant,
            JobKind::Scal {
                alpha: 2.0,
                x: vec![1.0; n],
            },
        )
    }

    #[test]
    fn malformed_job_is_rejected_and_its_neighbours_complete() {
        // A malformed job is refused at admission with a typed error; the
        // valid jobs submitted around it complete with exactly the values
        // (and cycles) they get in a batch that never saw it.
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + f64::from(i)).collect();
        let y: Vec<f64> = (0..32).map(|i| 0.5 * f64::from(i)).collect();
        let valid = [
            JobKind::spmv(Arc::clone(&a), x.clone()),
            JobKind::Axpy {
                alpha: 2.0,
                x: x.clone(),
                y: y.clone(),
            },
            JobKind::Dot {
                x: x.clone(),
                y: y.clone(),
            },
        ];
        let short_x = JobKind::spmv(Arc::clone(&a), x[..31].to_vec());
        let short_y = JobKind::Vv {
            x: x.clone(),
            y: y[..8].to_vec(),
            op: psyncpim_core::isa::BinaryOp::Mul,
        };
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let run = |with_bad: bool| {
            let queue = JobQueue::bounded(8);
            for (i, kind) in valid.iter().enumerate() {
                queue.submit(JobSpec::batch("t", kind.clone())).unwrap();
                if with_bad && i == 0 {
                    let err = queue
                        .submit(JobSpec::batch("t", short_x.clone()))
                        .unwrap_err();
                    assert!(
                        matches!(&err, SubmitError::Invalid(m) if m.contains("31 != 32")),
                        "{err}"
                    );
                }
                if with_bad && i == 1 {
                    let err = queue
                        .try_submit(JobSpec::batch("t", short_y.clone()))
                        .unwrap_err();
                    assert!(matches!(err, SubmitError::Invalid(_)), "{err}");
                }
            }
            exec.drain_and_run(&queue).unwrap()
        };
        let (clean, dirty) = (run(false), run(true));
        assert_eq!(dirty.jobs.len(), valid.len());
        for (c, d) in clean.jobs.iter().zip(&dirty.jobs) {
            assert_eq!((c.id, &c.value), (d.id, &d.value));
            assert_eq!(c.run.dram_cycles, d.run.dram_cycles);
        }
        // The kernel itself refuses the operand with a typed error too.
        let err = SpmvPim::new(exec.shard_device().clone(), Precision::Fp64)
            .run(&a, &x[..31])
            .unwrap_err();
        assert!(matches!(err, CoreError::Operand(_)), "{err}");
    }

    #[test]
    fn executor_validates_jobs_by_default() {
        let cfg = ExecutorConfig::serial(PimDevice::tiny(2));
        assert!(cfg.validate, "constructors must default validation on");
        let exec = ShardExecutor::new(cfg).unwrap();
        assert!(exec.shard_device().validate);
        // A validated batch runs clean: jobs complete, accounting carries
        // the checker's verdict and real service cycles.
        let queue = JobQueue::bounded(4);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch("t0", JobKind::spmv(a, x)))
            .unwrap();
        let report = exec.drain_and_run(&queue).unwrap();
        let job = &report.jobs[0];
        assert_eq!(job.run.violations, 0);
        assert!(job.service_cycles > 0, "dram_cycles must be accounted");
        assert!(job.run.mem_ops <= job.run.bank_bursts);
        // Validation can still be switched off explicitly.
        let mut cfg = ExecutorConfig::serial(PimDevice::tiny(2));
        cfg.validate = false;
        let exec = ShardExecutor::new(cfg).unwrap();
        assert!(!exec.shard_device().validate);
    }

    #[test]
    fn shard_device_refuses_unverifiable_programs() {
        // ExecutorConfig::validate flows into the shard device, whose
        // engines run psim-lint before cycle 0: a job built on a program
        // with an Error-level diagnostic (here: SpFW draining a queue
        // nothing fills — a guaranteed no-op data path) fails instead of
        // silently serving a wrong answer.
        use psyncpim_core::isa::assemble;
        let exec = ShardExecutor::new(ExecutorConfig::serial(PimDevice::tiny(2))).unwrap();
        let bad = assemble("SPFW SPVQ0, FP64\nEXIT\n").unwrap();

        let err = exec.shard_device().verify_program(&bad).unwrap_err();
        assert!(matches!(err, CoreError::Verify { .. }));
        // The wrapped form a failing job reports carries the lint code.
        let job_err = SchedError::JobFailed {
            id: 7,
            error: err.to_string(),
        };
        assert!(job_err.to_string().contains("PSL011"), "{job_err}");

        // The engine refuses the load too — the defense is layered.
        let mut engine = exec.shard_device().make_engine();
        let load = engine.load_kernel(bad.clone(), vec![None::<psyncpim_core::memory::Binding>; 2]);
        assert!(matches!(load, Err(CoreError::Verify { .. })));

        // With validation off the same program is accepted (ablation /
        // fault-injection runs need this escape hatch).
        let mut cfg = ExecutorConfig::serial(PimDevice::tiny(2));
        cfg.validate = false;
        let exec = ShardExecutor::new(cfg).unwrap();
        assert!(exec.shard_device().verify_program(&bad).is_ok());
    }

    #[test]
    fn traced_batches_attribute_every_service_cycle() {
        let mut cfg = ExecutorConfig::sharded(PimDevice::tiny(4), 2);
        cfg.trace = true;
        let exec = ShardExecutor::new(cfg).unwrap();
        assert!(exec.shard_device().trace);
        let queue = JobQueue::bounded(16);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch(
                "t0",
                JobKind::spmv(Arc::clone(&a), x.clone()),
            ))
            .unwrap();
        queue
            .submit(JobSpec::batch("t1", JobKind::Dot { x: x.clone(), y: x }))
            .unwrap();
        let report = exec.drain_and_run(&queue).unwrap();
        assert_eq!(report.jobs.len(), 2);
        let mut total_cycles = 0u64;
        for job in &report.jobs {
            // Per-job service attribution accounts every service cycle.
            assert_eq!(
                job.run.attr.total(),
                job.service_cycles,
                "job {} ({})",
                job.id,
                job.kind
            );
            let m = job.run.metrics.as_ref().expect("tracing on");
            assert!(m.conservation_failures().is_empty(), "job {}", job.id);
            total_cycles += job.service_cycles;
        }
        assert_eq!(report.stats.sim.service_attr.total(), total_cycles);
        let js = report.stats.sim.to_json();
        assert!(js.contains("\"service_attr\""), "{js}");
        assert!(js.contains("\"trace_dropped\""), "{js}");
        // Untraced batches keep the attribution all-zero with no registry.
        let exec = ShardExecutor::new(ExecutorConfig::serial(PimDevice::tiny(2))).unwrap();
        let queue = JobQueue::bounded(4);
        queue.submit(scal_job("t0", 32)).unwrap();
        let report = exec.drain_and_run(&queue).unwrap();
        assert_eq!(report.stats.sim.service_attr.total(), 0);
        assert!(report.jobs[0].run.metrics.is_none());
    }

    #[test]
    fn tiny_trace_buffers_count_drops_instead_of_truncating() {
        let mut device = PimDevice::tiny(2);
        device.trace_events = 1;
        let mut cfg = ExecutorConfig::serial(device);
        cfg.trace = true;
        let exec = ShardExecutor::new(cfg).unwrap();
        let queue = JobQueue::bounded(4);
        // An irregular SpMV: banks get unequal entry counts, so lighter
        // banks stream queue-empty rounds — far more stalls than one slot.
        let a = Arc::new(psim_sparse::gen::rmat(64, 3, 7));
        let x: Vec<f64> = (0..64).map(|i| 1.0 + i as f64).collect();
        queue
            .submit(JobSpec::batch("t0", JobKind::spmv(a, x)))
            .unwrap();
        let report = exec.drain_and_run(&queue).unwrap();
        let m = report.jobs[0].run.metrics.as_ref().unwrap();
        assert!(m.events.len() <= 1);
        assert!(m.events_dropped > 0, "overflow must be counted");
        assert_eq!(report.stats.sim.trace_dropped, m.events_dropped);
        // Dropping events never breaks cycle conservation.
        assert_eq!(
            report.jobs[0].run.attr.total(),
            report.jobs[0].service_cycles
        );
    }

    #[test]
    fn bad_shard_split_is_rejected() {
        let cfg = ExecutorConfig::sharded(PimDevice::tiny(4), 3);
        assert!(matches!(
            ShardExecutor::new(cfg),
            Err(SchedError::BadShardSplit {
                channels: 4,
                shards: 3
            })
        ));
    }

    #[test]
    fn assignment_balances_estimated_cost() {
        let jobs: Vec<Job> = [100, 100, 10, 10, 10, 10]
            .iter()
            .enumerate()
            .map(|(i, &n)| Job {
                id: i as u64,
                spec: scal_job("t", n),
            })
            .collect();
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.feed(&exec, jobs);
        // Greedy by projected finish: 100→lane0, 100→lane1, then the
        // small jobs alternate — both lanes end at 120 estimated cost.
        assert_eq!(engine.remaining, vec![120, 120]);
        assert_eq!(engine.lanes[0].len(), 3);
        assert_eq!(engine.lanes[1].len(), 3);
    }

    #[test]
    fn idle_lane_steals_from_the_most_loaded_back() {
        // Calibrate the engine's cost→seconds scale first, then load lane
        // 0 with everything (by feeding while lane 1's clock is inflated)
        // and watch lane 1 steal from lane 0's back once it is idle.
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.total_service_s = 1.0;
        engine.total_cost = 1.0; // scale = 1.0 s per cost unit
        engine.clocks[1] = 1e6; // repel the dealer from lane 1
        engine.feed(
            &exec,
            (0..4u64)
                .map(|i| Job {
                    id: i,
                    spec: scal_job("t", 64),
                })
                .collect(),
        );
        assert_eq!(engine.lanes[0].len(), 4, "deal must avoid the busy lane");
        engine.clocks[1] = 0.0; // lane 1 becomes idle before epoch 1
        let plan = engine.plan_epoch();
        // Lane 0 pops its front (job 0); lane 1 steals lane 0's back
        // (job 3) because its projected finish beats waiting behind the
        // victim's whole queue.
        let planned: Vec<(usize, u64)> =
            plan.iter().map(|(lane, g)| (*lane, g.jobs[0].id)).collect();
        assert_eq!(planned, vec![(0, 0), (1, 3)]);
        assert_eq!(engine.steals, 1);
    }

    #[test]
    fn window_executes_once_and_errors_surface_in_merge_order() {
        // Four equal jobs on two lanes: epoch 1 merges jobs 0 and 1,
        // epoch 2 merges jobs 2 (lane 0) and 3 (lane 1). Failing jobs 2
        // and 3 must stop the run at job 2 — the first failure in merge
        // order — after jobs 0 and 1 reached the sink. Outcomes already
        // present are not executed again.
        let exec = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(2), 2)).unwrap();
        let mut engine = LaneEngine::new(2);
        engine.feed(
            &exec,
            (0..4u64)
                .map(|i| Job {
                    id: i,
                    spec: scal_job("t", 32),
                })
                .collect(),
        );
        let ids = |lane: &VecDeque<Group>| lane.iter().map(|g| g.jobs[0].id).collect::<Vec<_>>();
        assert_eq!(ids(&engine.lanes[0]), vec![0, 2]);
        assert_eq!(ids(&engine.lanes[1]), vec![1, 3]);
        for lane in &mut engine.lanes {
            let group = lane.back_mut().unwrap();
            group.outcome = Some(Err(SchedError::JobFailed {
                id: group.jobs[0].id,
                error: "injected".into(),
            }));
        }
        let mut merged = Vec::new();
        let err = engine
            .run_until_dry(&exec, &mut |job| merged.push(job.id))
            .unwrap_err();
        assert_eq!(merged, vec![0, 1]);
        assert!(matches!(err, SchedError::JobFailed { id: 2, .. }), "{err}");
    }

    #[test]
    fn tuned_memo_forgets_dropped_matrices() {
        let cfg = ExecutorConfig::serial(PimDevice::tiny(2)).with_autotune();
        let exec = ShardExecutor::new(cfg).unwrap();
        let tune =
            |a: &Arc<Coo>| exec.tuned_layout(a, Precision::Fp64, BinaryOp::Mul, BinaryOp::Add);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        tune(&a);
        let dead_key = Arc::as_ptr(&a) as usize;
        drop(a);
        // The entry's Weak still holds the dropped matrix's allocation, so
        // a new matrix cannot inherit its key (and its layout)...
        let b = Arc::new(psim_sparse::gen::rmat(32, 2, 4));
        let live_key = Arc::as_ptr(&b) as usize;
        assert_ne!(live_key, dead_key);
        // ...and the next insert prunes the dead entry.
        tune(&b);
        let memo = exec.tuned.lock();
        assert_eq!(memo.keys().copied().collect::<Vec<_>>(), vec![live_key]);
    }

    #[test]
    fn analytical_tier_sees_serialization_the_heuristic_misses() {
        // Two SpTRSV jobs with identical nnz: a pure dependency chain
        // (n levels, one launch each) and a star (every row depends only
        // on x[0] — one level, one launch). The heuristic proxy
        // (nnz + len) prices them identically; the analytical tier walks
        // the level schedule and must see the chain's serialization.
        use psim_sparse::triangular::{Triangle, UnitTriangular};
        let n = 64usize;
        let mut chain = psim_sparse::Coo::new(n, n);
        let mut star = psim_sparse::Coo::new(n, n);
        for i in 1..n {
            chain.push(i as u32, i as u32 - 1, 0.5);
            star.push(i as u32, 0, 0.5);
        }
        let b = vec![1.0; n];
        let job = |s: psim_sparse::Coo| Job {
            id: 0,
            spec: JobSpec::batch(
                "t",
                JobKind::Sptrsv {
                    t: Arc::new(UnitTriangular::from_strict(Triangle::Lower, s).unwrap()),
                    b: b.clone(),
                },
            ),
        };
        let (chain, star) = (job(chain), job(star));
        // The heuristic proxy is identical by construction.
        assert_eq!(chain.cost_estimate(), star.cost_estimate());
        let cfg = ExecutorConfig::serial(PimDevice::tiny(2)).with_cost_tier(CostTier::Analytical);
        let exec = ShardExecutor::new(cfg).unwrap();
        let (c, s) = (exec.job_cost(&chain), exec.job_cost(&star));
        assert!(
            c > s * 10,
            "analytical cost must punish level serialization: chain {c} vs star {s}"
        );
    }

    #[test]
    fn analytical_placement_preserves_results() {
        // Placement tier changes *which shard* serves a job, never the
        // job's value: the same batch under both tiers returns the same
        // numbers.
        let a = Arc::new(psim_sparse::gen::rmat(48, 4, 9));
        let x: Vec<f64> = (0..48).map(|i| 0.5 + i as f64).collect();
        let run = |tier: CostTier| {
            let queue = JobQueue::bounded(8);
            let spmv = queue
                .submit(JobSpec::batch(
                    "t0",
                    JobKind::spmv(Arc::clone(&a), x.clone()),
                ))
                .unwrap();
            let dot = queue
                .submit(JobSpec::batch(
                    "t1",
                    JobKind::Dot {
                        x: x.clone(),
                        y: x.clone(),
                    },
                ))
                .unwrap();
            let exec = ShardExecutor::new(
                ExecutorConfig::sharded(PimDevice::tiny(2), 2).with_cost_tier(tier),
            )
            .unwrap();
            let report = exec.drain_and_run(&queue).unwrap();
            (
                report.job(spmv).unwrap().value.clone(),
                report.job(dot).unwrap().value.clone(),
            )
        };
        assert_eq!(run(CostTier::Heuristic), run(CostTier::Analytical));
    }

    #[test]
    fn executes_jobs_and_preserves_values() {
        let queue = JobQueue::bounded(16);
        let a = Arc::new(psim_sparse::gen::rmat(32, 2, 3));
        let x: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        let id_spmv = queue
            .submit(JobSpec::batch(
                "t0",
                JobKind::spmv(Arc::clone(&a), x.clone()),
            ))
            .unwrap();
        let id_dot = queue
            .submit(JobSpec::batch(
                "t1",
                JobKind::Dot {
                    x: x.clone(),
                    y: x.clone(),
                },
            ))
            .unwrap();
        let exec = ShardExecutor::new(ExecutorConfig::serial(PimDevice::tiny(2))).unwrap();
        let report = exec.drain_and_run(&queue).unwrap();
        assert_eq!(report.jobs.len(), 2);
        let y = report.job(id_spmv).unwrap().value.as_vector().unwrap();
        let want = a.spmv(&x);
        for (g, w) in y.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        let d = report.job(id_dot).unwrap().value.as_scalar().unwrap();
        let want_d: f64 = x.iter().map(|v| v * v).sum();
        assert!((d - want_d).abs() < 1e-6 * want_d);
        assert!(report.stats.sim.makespan_s > 0.0);
        assert!(report.stats.host.walltime_s > 0.0);
    }

    /// Tuned and untuned runs compute the same product; layouts reorder
    /// floating-point accumulation, so compare to the oracle tolerance.
    fn assert_values_close(base: &[JobValue], tuned: &[JobValue]) {
        assert_eq!(base.len(), tuned.len());
        for (b, t) in base.iter().zip(tuned) {
            match (b, t) {
                (JobValue::Vector(b), JobValue::Vector(t)) => {
                    for (bv, tv) in b.iter().zip(t) {
                        assert!((bv - tv).abs() <= 1e-9 * bv.abs().max(1.0), "{bv} vs {tv}");
                    }
                }
                (JobValue::Scalar(b), JobValue::Scalar(t)) => {
                    assert!((b - t).abs() <= 1e-9 * b.abs().max(1.0));
                }
                _ => panic!("value kinds diverged"),
            }
        }
    }

    #[test]
    fn autotuned_executor_preserves_values_and_memoizes() {
        // Adversarial shapes that exercise non-baseline tuner choices:
        // hub rows (balancing rules) and near-dense blocks (blocked
        // candidates). The tuned executor must return the same values as
        // the untuned one — layouts change the schedule, not the
        // product — and tune each Arc-identical matrix only once.
        let hubs = Arc::new(psim_sparse::adversarial::power_law_hubs(96, 800, 3, 5));
        let blocks = Arc::new(psim_sparse::adversarial::near_dense_blocks(64, 8, 4, 5));
        let run = |autotune: bool| {
            let queue = JobQueue::bounded(16);
            for a in [&hubs, &blocks] {
                let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + i as f64).collect();
                for _ in 0..2 {
                    queue
                        .submit(JobSpec::batch(
                            "t0",
                            JobKind::spmv(Arc::clone(a), x.clone()),
                        ))
                        .unwrap();
                }
            }
            let mut cfg =
                ExecutorConfig::sharded(PimDevice::tiny(2), 2).with_cost_tier(CostTier::Analytical);
            if autotune {
                cfg = cfg.with_autotune();
            }
            let exec = ShardExecutor::new(cfg).unwrap();
            let report = exec.drain_and_run(&queue).unwrap();
            let values: Vec<JobValue> = report.jobs.iter().map(|j| j.value.clone()).collect();
            (exec, values)
        };
        let (exec_off, base) = run(false);
        let (exec_on, tuned) = run(true);
        assert_values_close(&base, &tuned);
        assert_eq!(exec_off.tuned.lock().len(), 0, "off: no decisions made");
        assert_eq!(
            exec_on.tuned.lock().len(),
            2,
            "one memoized decision per distinct matrix handle"
        );
        // The tuner actually moved off the baseline for the skewed matrix.
        let l = exec_on.tuned_layout(&hubs, Precision::Fp64, BinaryOp::Mul, BinaryOp::Add);
        assert_ne!(
            l,
            Layout::baseline(),
            "hub rows must tune away from baseline"
        );
        // And with tuning off, every matrix reports the baseline layout.
        let l = exec_off.tuned_layout(&hubs, Precision::Fp64, BinaryOp::Mul, BinaryOp::Add);
        assert_eq!(l, Layout::baseline());
    }

    #[test]
    fn autotune_forces_element_format_for_exotic_semirings() {
        // Tropical (min-plus) SpMV: blocked zero-fill would corrupt the
        // result (an explicit 0 is not the semiring identity), so the
        // tuned layout must fall back to an element format while keeping
        // the tuned scheme/policy. Seed the memo with a blocked decision
        // directly — whether the tuner *would* pick blocked for this
        // matrix is a cost question; the safety demotion must hold for
        // any memoized layout.
        let a = Arc::new(psim_sparse::adversarial::near_dense_blocks(64, 8, 4, 11));
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let tropical = |a: &Arc<Coo>, x: &[f64]| JobKind::Spmv {
            a: Arc::clone(a),
            x: x.to_vec(),
            mul: BinaryOp::Add,
            acc: BinaryOp::Min,
        };
        let blocked = Layout {
            format: MatrixFormat::Bcsr { block: 4 },
            scheme: psim_sparse::PartitionScheme::Balanced2D { col_blocks: 2 },
            policy: psim_sparse::DistPolicy::LeastLoaded,
        };
        let run = |autotune: bool| {
            let queue = JobQueue::bounded(4);
            queue
                .submit(JobSpec::batch("t0", tropical(&a, &x)))
                .unwrap();
            let mut cfg = ExecutorConfig::serial(PimDevice::tiny(2));
            if autotune {
                cfg = cfg.with_autotune();
            }
            let exec = ShardExecutor::new(cfg).unwrap();
            if autotune {
                exec.tuned
                    .lock()
                    .insert(Arc::as_ptr(&a) as usize, (Arc::downgrade(&a), blocked));
            }
            let report = exec.drain_and_run(&queue).unwrap();
            (exec, report.jobs[0].value.clone())
        };
        let (_, base) = run(false);
        let (exec, tuned) = run(true);
        // min-accumulation is order-insensitive and per-entry Add is
        // exact, so the demoted layout's values match bit-for-bit.
        assert_eq!(base, tuned, "semiring values must survive tuning");
        let l = exec.tuned_layout(&a, Precision::Fp64, BinaryOp::Add, BinaryOp::Min);
        assert!(
            !l.format.is_blocked(),
            "non-arithmetic semirings must not execute from a zero-filled blocked stream: {}",
            l.label()
        );
        assert_eq!(l.scheme, blocked.scheme, "the tuned scheme survives");
        assert_eq!(l.policy, blocked.policy, "the tuned policy survives");
        // The arithmetic view of the same memo entry stays blocked.
        let arith = exec.tuned_layout(&a, Precision::Fp64, BinaryOp::Mul, BinaryOp::Add);
        assert_eq!(arith, blocked);
    }

    #[test]
    fn autotuned_fusion_stays_bit_identical_to_solo_jobs() {
        // Fusion under a tuned layout: the fused SpMM pass adopts the
        // same layout as solo SpMV jobs, so per-vector results stay
        // bit-identical whether the batch fuses or not.
        let a = Arc::new(psim_sparse::adversarial::power_law_hubs(80, 600, 2, 9));
        let xs: Vec<Vec<f64>> = (0..3)
            .map(|v| (0..80).map(|i| 1.0 + (i * (v + 1)) as f64).collect())
            .collect();
        let run = |fusion: usize| {
            let queue = JobQueue::bounded(8);
            for x in &xs {
                queue
                    .submit(JobSpec::batch(
                        "t0",
                        JobKind::spmv(Arc::clone(&a), x.clone()),
                    ))
                    .unwrap();
            }
            let cfg = ExecutorConfig::serial(PimDevice::tiny(2))
                .with_fusion(fusion)
                .with_autotune();
            let exec = ShardExecutor::new(cfg).unwrap();
            let report = exec.drain_and_run(&queue).unwrap();
            report
                .jobs
                .iter()
                .map(|j| j.value.clone())
                .collect::<Vec<_>>()
        };
        let solo = run(1);
        let fused = run(3);
        assert_eq!(solo, fused, "fused tuned results must match solo tuned");
    }

    #[test]
    fn sharded_concurrency_beats_serial_in_sim_time() {
        let mk_queue = || {
            let q = JobQueue::bounded(64);
            for i in 0..8 {
                q.submit(scal_job(&format!("t{}", i % 4), 64)).unwrap();
            }
            q
        };
        let serial = ShardExecutor::new(ExecutorConfig::serial(PimDevice::tiny(4)))
            .unwrap()
            .drain_and_run(&mk_queue())
            .unwrap();
        let sharded = ShardExecutor::new(ExecutorConfig::sharded(PimDevice::tiny(4), 4))
            .unwrap()
            .drain_and_run(&mk_queue())
            .unwrap();
        assert!(
            sharded.stats.sim.makespan_s < serial.stats.sim.makespan_s,
            "sharded {} vs serial {}",
            sharded.stats.sim.makespan_s,
            serial.stats.sim.makespan_s
        );
        assert!(sharded.stats.sim.speedup_vs_serial > 1.0);
    }
}
