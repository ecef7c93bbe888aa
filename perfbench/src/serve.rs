//! `serve_fused` and `serve_mixed`: the multi-tenant service.
//!
//! A seeded, heavy-tailed multi-tenant trace (the soak's matrix pool:
//! rmat 32–128, Zipf-like picks, 1-in-200 same-matrix bursts, a
//! byte-budgeted `MatrixStore` that churns) is generated, submitted to a
//! `JobQueue` that is then closed, and drained by one `Service::run`. The
//! queue is pre-filled so every admission window — and therefore every
//! simulated statistic — is a pure function of the seed, whatever the host
//! thread timing. Arrivals are stamped open-loop in simulated time at a
//! fixed offered load below the device's capacity, so simulated latency
//! measures scheduling rather than backlog.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psim_kernels::PimDevice;
use psim_sched::{
    CompletedJob, CostTier, ExecutorConfig, JobClass, JobKind, JobQueue, JobSpec, JobValue,
    MatrixStore, Service, ServiceConfig, ServiceStats,
};
use psim_sparse::triangular::{unit_triangular_from, Triangle, UnitTriangular};
use psim_sparse::{gen, Coo, Precision};
use psyncpim_core::take_engine_wall_s;

use crate::probe::{self, Operands, StoreCounts};
use crate::stats::{label, lower_quartile, median, p50_tail, tail_quantile, upper_quartile};
use crate::{all_close, calibrate, close, pinned, repeat_for, Metrics, Outcome, CAL_REF_S};

/// Channels of the service device (`PimDevice::tiny`), one per shard.
pub const SHARDS: usize = 8;

/// Fusion window of `serve_fused` (the SpMM width limit).
pub const FUSION_WIDTH: usize = 16;

/// Admission window of both workloads (the fused workload's default,
/// 4 x the fusion width), so the two differ only in fusion, tuning and
/// traffic mix.
const WINDOW: usize = 4 * FUSION_WIDTH;

/// Matrix-store byte budget: the heavy tail of the pool does not fit, so
/// the LRU eviction path runs.
const STORE_BUDGET: usize = 13 * 1024;

/// Seed of the pool's matrices. The pool is the service's resident
/// operand set and stays fixed; the workload seed drives the traffic
/// (picks, bursts, arrivals, classes, kinds, lengths and vectors).
/// Seeding the pool too would let six matrices' structure (and, under
/// autotuning, the layout each one gets) swing every number with the seed.
const POOL_SEED: u64 = 0x50A1;

/// The pool's shapes `(dim, avg degree)`, hottest first.
const SHAPES: [(usize, usize); 6] = [(32, 2), (32, 3), (48, 2), (64, 3), (96, 3), (128, 3)];

/// One service workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Mix SpTRSV and BLAS-1 jobs in with the SpMV jobs.
    pub mixed: bool,
    /// Jobs per trace.
    pub jobs: usize,
    /// Fusion window width (1 = off).
    pub fusion: usize,
    /// Autotune each SpMV matrix and place with the analytical cost model.
    pub autotune: bool,
    /// Host threads driving the shard lanes.
    pub host_threads: usize,
    /// Mean simulated gap between arrivals (Poisson), seconds.
    pub mean_gap_s: f64,
}

impl ServeSpec {
    /// `serve_fused`: SpMV-only traffic with fusion 16.
    #[must_use]
    pub fn fused(jobs: usize, host_threads: usize) -> Self {
        ServeSpec {
            mixed: false,
            jobs,
            fusion: FUSION_WIDTH,
            autotune: false,
            host_threads,
            mean_gap_s: 0.3e-6,
        }
    }

    /// `serve_mixed`: SpMV, SpTRSV, AXPY, DOT and NRM2 traffic, fusion
    /// off, autotuning and the analytical cost tier on.
    #[must_use]
    pub fn mixed(jobs: usize, host_threads: usize) -> Self {
        ServeSpec {
            mixed: true,
            jobs,
            fusion: 1,
            autotune: true,
            host_threads,
            mean_gap_s: 0.5e-6,
        }
    }

    /// The pinned service device.
    #[must_use]
    pub fn device(&self) -> PimDevice {
        pinned(PimDevice::tiny(SHARDS), false)
    }

    /// The executor configuration, every field set explicitly.
    #[must_use]
    pub fn executor(&self, trace: bool) -> ExecutorConfig {
        let mut cfg = ExecutorConfig::sharded(self.device(), SHARDS).with_fusion(self.fusion);
        cfg.host_threads = self.host_threads;
        cfg.validate = true;
        cfg.trace = trace;
        if self.autotune {
            cfg = cfg.with_autotune().with_cost_tier(CostTier::Analytical);
        }
        cfg
    }

    /// Header lines naming every pinned setting.
    #[must_use]
    pub fn settings(&self) -> Vec<String> {
        let cfg = self.executor(false);
        vec![format!(
            "device=tiny({SHARDS}) banks={} shards={} host_threads={} fusion={} validate={} \
             tier={:?} autotune={} cost_tier={:?} window={WINDOW} jobs_per_drain={} mean_gap_s={}",
            cfg.device.total_banks(),
            cfg.shards,
            cfg.host_threads,
            cfg.fusion,
            cfg.validate,
            cfg.device.tier,
            cfg.autotune,
            cfg.cost_tier,
            self.jobs,
            self.mean_gap_s,
        )]
    }
}

/// SplitMix64 step: the trace's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in (0, 1].
fn uniform(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// The matrix pool behind the byte-budgeted store.
struct Pool {
    store: MatrixStore,
    counts: StoreCounts,
}

impl Pool {
    fn new() -> Self {
        Pool {
            store: MatrixStore::with_budget(STORE_BUDGET),
            counts: StoreCounts::default(),
        }
    }

    /// Heavy-tailed pick: each next shape a third as hot as the previous.
    fn pick(rng: &mut u64) -> usize {
        let mut idx = 0;
        while idx + 1 < SHAPES.len() && splitmix(rng).is_multiple_of(3) {
            idx += 1;
        }
        idx
    }

    /// Generation is deterministic, so an evicted matrix comes back with
    /// identical contents — only its `Arc` identity changes.
    fn generate(idx: usize) -> Coo {
        let (n, deg) = SHAPES[idx];
        gen::rmat_seeded(n, deg, idx as u64 + 1, POOL_SEED)
    }

    fn matrix(&mut self, idx: usize) -> Arc<Coo> {
        let name = format!("m{idx}");
        if let Some(a) = self.store.get(&name) {
            self.counts.hits += 1;
            return a;
        }
        self.counts.misses += 1;
        self.store.insert(&name, Self::generate(idx))
    }

    fn triangular(&mut self, idx: usize) -> Arc<UnitTriangular> {
        let name = format!("t{idx}");
        if let Some(t) = self.store.get_triangular(&name) {
            self.counts.hits += 1;
            return t;
        }
        self.counts.misses += 1;
        let t = unit_triangular_from(&Self::generate(idx), Triangle::Lower).expect("square");
        self.store.insert_triangular(&name, t)
    }
}

/// A generated trace.
pub(crate) struct Trace {
    /// Jobs in submission order (job id = index).
    pub specs: Vec<JobSpec>,
    /// Store traffic while generating.
    pub store: StoreCounts,
}

/// Generate the seeded trace for `spec`.
#[must_use]
pub(crate) fn generate(spec: &ServeSpec, seed: u64) -> Trace {
    let mut pool = Pool::new();
    let mut rng = seed ^ 0x5EED_0001;
    let mut clock_s = 0.0f64;
    let mut specs = Vec::with_capacity(spec.jobs);
    while specs.len() < spec.jobs {
        // 1 in 200: a same-matrix burst from one tenant.
        let count = if splitmix(&mut rng).is_multiple_of(200) {
            4 + (splitmix(&mut rng) % 13) as usize
        } else {
            1
        };
        let idx = Pool::pick(&mut rng);
        let a = pool.matrix(idx);
        let n = a.ncols();
        for _ in 0..count.min(spec.jobs - specs.len()) {
            clock_s += -spec.mean_gap_s * uniform(&mut rng).ln();
            let x = gen::dense_vector(n, splitmix(&mut rng));
            let batch_tenant = |r: u64| match r % 8 {
                0 => ("maintenance", JobClass::BestEffort),
                r => (
                    ["analytics", "routing", "ranking"][r as usize % 3],
                    JobClass::Batch,
                ),
            };
            let (kind, (tenant, class)) = if spec.mixed {
                // Analytics tenants run SpMV (70%) and SpTRSV (10%); the
                // interactive front end scores feature vectors of
                // log-uniform length 512..2048 with AXPY, DOT and NRM2 (20%).
                match splitmix(&mut rng) % 10 {
                    7 => (
                        JobKind::Sptrsv {
                            t: pool.triangular(idx),
                            b: x,
                        },
                        batch_tenant(splitmix(&mut rng)),
                    ),
                    8 | 9 => {
                        let len = (512.0 * 4f64.powf(uniform(&mut rng))) as usize;
                        let x = gen::dense_vector(len, splitmix(&mut rng));
                        let y = gen::dense_vector(len, splitmix(&mut rng));
                        let kind = match splitmix(&mut rng) % 3 {
                            0 => JobKind::Axpy {
                                alpha: 0.5 + uniform(&mut rng),
                                x,
                                y,
                            },
                            1 => JobKind::Dot { x, y },
                            _ => JobKind::Norm2 { x },
                        };
                        (kind, ("frontend", JobClass::Interactive))
                    }
                    _ => (
                        JobKind::spmv(Arc::clone(&a), x),
                        batch_tenant(splitmix(&mut rng)),
                    ),
                }
            } else {
                let who = match splitmix(&mut rng) % 10 {
                    0 | 1 => ("frontend", JobClass::Interactive),
                    r => batch_tenant(r),
                };
                (JobKind::spmv(Arc::clone(&a), x), who)
            };
            let mut job = JobSpec::batch(tenant, kind).with_class(class).at(clock_s);
            job.precision = Precision::Fp64;
            specs.push(job);
        }
    }
    let mut store = pool.counts;
    store.evictions = pool.store.evictions();
    Trace { specs, store }
}

/// Whether a job's value matches its CPU reference.
fn value_ok(kind: &JobKind, value: &JobValue) -> bool {
    match (kind, value) {
        (JobKind::Spmv { a, x, .. }, JobValue::Vector(y)) => all_close(y, &a.spmv(x)),
        (JobKind::Sptrsv { t, b }, JobValue::Vector(x)) => {
            t.solve_rowwise(b).is_ok_and(|want| all_close(x, &want))
        }
        (JobKind::Axpy { alpha, x, y }, JobValue::Vector(v)) => {
            let want: Vec<f64> = x.iter().zip(y).map(|(a, b)| alpha * a + b).collect();
            all_close(v, &want)
        }
        (JobKind::Dot { x, y }, JobValue::Scalar(s)) => {
            close(*s, x.iter().zip(y).map(|(a, b)| a * b).sum())
        }
        (JobKind::Norm2 { x }, JobValue::Scalar(s)) => {
            close(*s, x.iter().map(|a| a * a).sum::<f64>().sqrt())
        }
        _ => false,
    }
}

/// One pre-filled, closed drain through `Service::run`.
pub struct Drain {
    /// Trace generation + queue fill + service construction, seconds.
    pub setup_s: f64,
    /// Queue fill alone, seconds.
    pub submit_s: f64,
    /// `Service::run`, seconds.
    pub run_s: f64,
    /// Engine host seconds inside the drain (summed over threads).
    pub engine_s: f64,
    /// Completed jobs in completion order.
    pub jobs: Vec<CompletedJob>,
    /// Host seconds from the start of `Service::run` to each completion.
    pub host_done_s: Vec<f64>,
    /// Service statistics (`None` when the run returned an error).
    pub stats: Option<ServiceStats>,
    /// Store traffic of the trace.
    pub store: StoreCounts,
    /// Autotuner decisions the executor made: one per distinct SpMV
    /// matrix handle when autotuning is on (decisions are memoized by
    /// `Arc` identity).
    pub decisions: u64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs lost, wrong, or run through a protocol-violating stream.
    pub failed: u64,
}

/// Generate, fill, construct and drain once; check every value afterwards.
#[must_use]
pub fn drain(spec: &ServeSpec, seed: u64, trace: bool) -> Drain {
    let t = Instant::now();
    let Trace { specs, store } = generate(spec, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let reference: Vec<JobKind> = specs.iter().map(|s| s.kind.clone()).collect();
    let decisions = if spec.autotune {
        let mut handles: Vec<*const Coo> = reference
            .iter()
            .filter_map(|k| match k {
                JobKind::Spmv { a, .. } => Some(Arc::as_ptr(a)),
                _ => None,
            })
            .collect();
        handles.sort_unstable();
        handles.dedup();
        handles.len() as u64
    } else {
        0
    };

    let t = Instant::now();
    let queue = JobQueue::bounded(specs.len().max(1));
    for job in specs {
        queue
            .submit(job)
            .expect("queue is open and sized for the trace");
    }
    queue.close();
    let submit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut cfg = ServiceConfig::new(spec.executor(trace));
    cfg.window = WINDOW;
    let svc = Service::new(cfg).expect("the shard count divides the device's channels");
    let setup_s = gen_s + submit_s + t.elapsed().as_secs_f64();

    let mut jobs = Vec::with_capacity(reference.len());
    let mut host_done_s = Vec::with_capacity(reference.len());
    let _ = take_engine_wall_s();
    let start = Instant::now();
    let result = svc.run(&queue, &mut |job| {
        host_done_s.push(start.elapsed().as_secs_f64());
        jobs.push(job);
    });
    let run_s = start.elapsed().as_secs_f64();
    let engine_s = take_engine_wall_s();

    let attempted = reference.len() as u64;
    let good = jobs
        .iter()
        .filter(|j| {
            let kind = &reference[j.id as usize];
            j.run.violations == 0 && value_ok(kind, &j.value)
        })
        .count() as u64;
    Drain {
        setup_s,
        submit_s,
        run_s,
        engine_s,
        jobs,
        host_done_s,
        stats: result.ok().map(|r| r.stats),
        store,
        decisions,
        attempted,
        failed: attempted - good,
    }
}

/// The simulated metrics of a drain: a pure function of the seed.
#[must_use]
pub fn sim_metrics(d: &Drain) -> Metrics {
    let mut m = Metrics::default();
    let sim_ops = d.stats.as_ref().map_or(0.0, |s| s.sim.jobs_per_sim_s);
    let interactive: Vec<f64> = d
        .jobs
        .iter()
        .filter(|j| j.class == JobClass::Interactive)
        .map(|j| (j.finish_s - j.arrival_s) * 1e6)
        .collect();
    let (p50, tail) = p50_tail(interactive);
    let cycles: u64 = d.jobs.iter().map(|j| j.service_cycles).sum();
    m.push("sim_ops_per_s", sim_ops, "1/s");
    m.push("sim_latency_p50_us", p50, "us");
    m.push("sim_latency_tail_us", tail, "us");
    m.push("sim_cycles", cycles as f64, "cycles");
    if let Some(stats) = &d.stats {
        // Host timings passed as zero: only simulated fields vary here.
        probe::sched_layers(&d.jobs, stats, 0.0, 0.0, d.store, &mut m);
    }
    probe::dram_layers(&merged_run(d), &mut m);
    m
}

/// Every group leader's kernel accounting, merged.
fn merged_run(d: &Drain) -> psim_kernels::KernelRun {
    let mut run = psim_kernels::KernelRun::default();
    for j in d.jobs.iter().filter(|j| j.fused_leader) {
        run.merge(&j.run);
    }
    run
}

/// Host-side numbers of one drain.
struct HostPass {
    setup_s: f64,
    run_s: f64,
    ops_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    cycles_per_s: f64,
}

impl HostPass {
    fn of(d: &Drain, sim_cycles: f64) -> Self {
        let (p50, tail) = p50_tail(d.host_done_s.iter().map(|s| s * 1e3).collect());
        HostPass {
            setup_s: d.setup_s,
            run_s: d.run_s,
            ops_per_s: d.attempted as f64 / d.run_s,
            p50_ms: p50,
            tail_ms: tail,
            cycles_per_s: sim_cycles / d.run_s,
        }
    }
}

/// Run the workload for `seconds`: end-to-end metrics when `traced` is
/// false, per-layer metrics when it is true.
#[must_use]
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        notes: spec.settings(),
        ..Outcome::default()
    };
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut first: Option<(Drain, Metrics)> = None;
    let mut passes: Vec<HostPass> = Vec::new();
    let mut engine = Vec::new();
    let mut submit = Vec::new();
    let mut cals = Vec::new();
    repeat_for(Duration::from_secs_f64(budget), || {
        cals.push(calibrate(spec.host_threads));
        let d = drain(spec, seed, false);
        out.count(d.attempted, d.failed);
        let sim = sim_metrics(&d);
        passes.push(HostPass::of(&d, sim.get("sim_cycles").unwrap_or(0.0)));
        engine.push(d.engine_s);
        submit.push(d.submit_s);
        match &first {
            Some((_, sim0)) => out.nondeterministic |= !sim0.same_bits(&sim),
            None => first = Some((d, sim)),
        }
    });
    let (d0, sim0) = first.expect("at least one drain");
    let per = |f: fn(&HostPass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let raw_ops = per(|p| p.ops_per_s);
    out.notes
        .push(probe::pass_spread("host_ops_per_s", &raw_ops));
    out.notes.push(probe::calibration_note(&cals, &raw_ops));
    let raw_host_ops = upper_quartile(raw_ops);
    let scale = CAL_REF_S / median(cals);
    let host_ops = raw_host_ops / scale;
    let n = d0.attempted as usize;
    let interactive = d0
        .jobs
        .iter()
        .filter(|j| j.class == JobClass::Interactive)
        .count();
    out.notes.push(format!(
        "host_op latency = host time from Service::run start to completion; tail={} of {n} jobs per drain; \
         lower quartile over {} drains",
        label(tail_quantile(n)),
        passes.len()
    ));
    let last_arrival = d0.jobs.iter().map(|j| j.arrival_s).fold(0.0, f64::max);
    // Lane busy time: a fused group occupies its lane once.
    let work_s: f64 = d0
        .jobs
        .iter()
        .filter(|j| j.fused_leader)
        .map(|j| j.service_s)
        .sum();
    out.notes.push(format!(
        "sim_latency = finish - arrival of interactive jobs; tail={} of {interactive} jobs; \
         offered load = {:.3} of {SHARDS} shards",
        label(tail_quantile(interactive)),
        work_s / (SHARDS as f64 * last_arrival),
    ));
    if !traced {
        let m = &mut out.metrics;
        m.push("setup_s", median(per(|p| p.setup_s)) * scale, "s");
        m.push("host_ops_per_s", host_ops, "1/s");
        m.push(
            "host_op_p50_ms",
            lower_quartile(per(|p| p.p50_ms)) * scale,
            "ms",
        );
        m.push(
            "host_op_tail_ms",
            lower_quartile(per(|p| p.tail_ms)) * scale,
            "ms",
        );
        m.push(
            "sim_cycles_per_host_s",
            upper_quartile(per(|p| p.cycles_per_s)) / scale,
            "cycles/s",
        );
        for name in [
            "sim_ops_per_s",
            "sim_latency_p50_us",
            "sim_latency_tail_us",
            "sim_cycles",
        ] {
            let unit = sim0
                .0
                .iter()
                .find(|x| x.name == name)
                .map_or("", |x| x.unit);
            m.push(name, sim0.get(name).unwrap_or(0.0), unit);
        }
        return out;
    }

    // Traced half: the same drains with psim-trace attribution on, which
    // must leave every simulated number unchanged.
    let mut traced_ops = Vec::new();
    let mut attr = psyncpim_core::CycleBreakdown::default();
    repeat_for(Duration::from_secs_f64(budget), || {
        let d = drain(spec, seed, true);
        out.count(d.attempted, d.failed);
        out.nondeterministic |= !sim0.same_bits(&sim_metrics(&d));
        traced_ops.push(d.attempted as f64 / d.run_s);
        if attr.total() == 0 {
            attr = merged_run(&d).attr;
        }
    });
    let mut layers = Metrics::default();
    let m = &mut layers;
    let threads = spec.host_threads as f64;
    let engine_s = median(engine);
    let run_s = median(per(|p| p.run_s));
    m.push("core.engine.host_s", engine_s / n as f64, "s");
    m.push("core.engine.share", engine_s / (run_s * threads), "ratio");
    probe::trace_layers(&attr, m);
    if let Some(stats) = &d0.stats {
        probe::sched_layers(&d0.jobs, stats, median(submit), run_s, d0.store, m);
    }
    m.push("tune.decisions", d0.decisions as f64, "count");
    probe::dram_layers(&merged_run(&d0), m);
    let ops = operands(spec, seed);
    let (a, f) = probe::kernel_layers(&ops, m);
    out.count(a, f);
    let (a, f) = probe::apps_probe(&ops, m);
    out.count(a, f);
    m.push(
        "trace_overhead_frac",
        (upper_quartile(traced_ops) - raw_host_ops) / raw_host_ops,
        "ratio",
    );
    out.metrics = layers;
    out
}

/// The pool's operands on one shard slice, for the per-layer replay.
#[must_use]
pub(crate) fn operands(spec: &ServeSpec, seed: u64) -> Operands {
    let spmv: Vec<(Arc<Coo>, Vec<f64>)> = (0..SHAPES.len())
        .map(|i| {
            let a = Pool::generate(i);
            let x = gen::dense_vector(a.ncols(), seed ^ i as u64);
            (Arc::new(a), x)
        })
        .collect();
    let trsv = spmv
        .iter()
        .take(if spec.mixed { SHAPES.len() } else { 1 })
        .map(|(a, x)| {
            let t = unit_triangular_from(a, Triangle::Lower).expect("square");
            (Arc::new(t), x.clone())
        })
        .collect();
    Operands {
        device: spec
            .device()
            .shard(SHARDS)
            .expect("the shard count divides the device's channels"),
        precision: Precision::Fp64,
        spmv,
        trsv,
        vec_len: SHAPES[SHAPES.len() - 1].0,
    }
}
