//! Per-layer numbers, measured from outside.
//!
//! The traced run replays a workload's own operands through each layer's
//! public entry points with a timer around every call:
//! `BankPartition::build`, `assemble` + `VerifiedProgram::new`, the kernel
//! runners' `run`, `CostModel`, `Autotuner::decide`, `JobQueue::submit` +
//! `Service::run` and the apps `Runtime` trait, plus the engine's
//! process-wide wall-clock accumulator. Every replayed result is checked
//! against its CPU reference too.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use psim_apps::runtime::{Breakdown, PimRuntime, Runtime};
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{programs, CostModel, KernelRun, PimDevice, SpmmPim, SpmvPim, SptrsvPim};
use psim_sched::{
    CompletedJob, ExecutorConfig, JobKind, JobQueue, JobSpec, JobValue, Service, ServiceConfig,
    ServiceStats,
};
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{BankPartition, Coo, DistPolicy, PartitionConfig, PartitionScheme, Precision};
use psim_tune::Autotuner;
use psyncpim_core::isa::{assemble, BinaryOp, VerifiedProgram};
use psyncpim_core::{take_engine_wall_s, Category, CycleBreakdown};

use crate::stats::{lower_quartile, median, p50_tail, upper_quartile};
use crate::timed::{host_s, Call, Family, Timed};
use crate::{all_close, close, median_time, Metrics};

/// A workload's operands, as the layers see them.
#[derive(Debug, Clone)]
pub struct Operands {
    /// The device the workload's kernels run on (a shard slice for the
    /// service workloads), pinned and untraced.
    pub device: PimDevice,
    /// Element precision.
    pub precision: Precision,
    /// SpMV operands.
    pub spmv: Vec<(Arc<Coo>, Vec<f64>)>,
    /// SpTRSV operands.
    pub trsv: Vec<(Arc<UnitTriangular>, Vec<f64>)>,
    /// Level-1 vector length.
    pub vec_len: usize,
}

/// The partition configuration `SpmvPim` builds with its default layout.
fn partition_config(device: &PimDevice, precision: Precision) -> PartitionConfig {
    PartitionConfig {
        num_banks: device.total_banks(),
        row_bytes: device.hbm.row_bytes(),
        precision,
        policy: DistPolicy::RoundRobin,
        compress: true,
        scheme: PartitionScheme::Row1D,
    }
}

fn mean(sum: f64, n: usize) -> f64 {
    sum / n.max(1) as f64
}

/// `sparse.*`, `core.isa.*`, `kernels.*` and `tune.*` metrics from one
/// replay of the operands. Returns `(attempted, failed)` replayed calls.
///
/// # Panics
///
/// Panics if a kernel program fails to assemble or verify — those are
/// fixed programs, so that is a bug, not a workload failure.
pub fn kernel_layers(ops: &Operands, m: &mut Metrics) -> (u64, u64) {
    let dev = &ops.device;
    let p = ops.precision;
    let model = CostModel::new(dev);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // sparse: partition build, waves and bank imbalance per matrix.
    let cfg = partition_config(dev, p);
    let (mut part_s, mut waves, mut imbalance) = (0.0, 0.0, 0.0);
    for (a, _) in &ops.spmv {
        part_s += median_time(3, || {
            black_box(BankPartition::build(a, cfg));
        });
        let part = BankPartition::build(a, cfg);
        let mut per_bank = vec![0usize; cfg.num_banks];
        for s in part.submatrices() {
            per_bank[s.bank] += 1;
        }
        waves += per_bank.iter().copied().max().unwrap_or(0) as f64;
        imbalance += part.stats().imbalance();
    }
    let nmat = ops.spmv.len();
    m.push("sparse.partition.build_us", mean(part_s, nmat) * 1e6, "us");
    m.push("sparse.partition.waves", mean(waves, nmat), "count");
    m.push("sparse.partition.imbalance", mean(imbalance, nmat), "ratio");

    // core.isa: the SpMV stream program every SpMV job assembles and
    // verifies.
    let src =
        programs::sparse_stream_batched(p, &BinaryOp::Mul.to_string(), &BinaryOp::Add.to_string());
    let asm_s = median_time(25, || {
        let program = assemble(&src).expect("the SpMV stream program assembles");
        black_box(VerifiedProgram::new(program).expect("the SpMV stream program verifies"));
    });
    m.push("core.isa.assemble_verify_us", asm_s * 1e6, "us");

    // kernels + core.engine: SpMV calls, with the engine's share of each.
    let (mut call_s, mut engine_s, mut phases, mut model_s, mut err) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut model_calls = 0usize;
    for (a, x) in &ops.spmv {
        let _ = take_engine_wall_s();
        let t = Instant::now();
        let r = SpmvPim::new(dev.clone(), p).run(a, x);
        call_s += t.elapsed().as_secs_f64();
        engine_s += take_engine_wall_s();
        let Ok(r) = r else {
            check(false);
            continue;
        };
        check(r.run.violations == 0 && all_close(&r.y, &a.spmv(x)));
        phases += r.run.phases as f64;
        let t = Instant::now();
        let est = black_box(model.spmv(a, p));
        model_s += t.elapsed().as_secs_f64();
        model_calls += 1;
        let actual = r.run.dram_cycles.max(1) as f64;
        err += (est.cycles as f64 - actual).abs() / actual * 100.0;
    }
    m.push("kernels.spmv.call_us", mean(call_s, nmat) * 1e6, "us");
    m.push("kernels.phases", mean(phases, nmat), "count");
    let covered = engine_s + part_s + asm_s * nmat as f64;
    m.push(
        "kernels.orchestration_share",
        (1.0 - covered / call_s.max(f64::MIN_POSITIVE)).max(0.0),
        "ratio",
    );

    // SpMM at the service's fusion width, on the first matrix.
    if let Some((a, x)) = ops.spmv.first() {
        let xs: Vec<Vec<f64>> = (0..crate::serve::FUSION_WIDTH)
            .map(|k| x.iter().map(|v| v * (k + 1) as f64).collect())
            .collect();
        let t = Instant::now();
        let r = SpmmPim::new(dev.clone(), p).run(a, &xs);
        m.push(
            "kernels.spmm.call_us",
            t.elapsed().as_secs_f64() * 1e6,
            "us",
        );
        check(r.is_ok_and(|r| {
            r.run.violations == 0 && r.ys.iter().zip(&xs).all(|(y, x)| all_close(y, &a.spmv(x)))
        }));
    }

    // SpTRSV calls.
    let mut trsv_s = 0.0;
    for (tri, b) in &ops.trsv {
        let mut solver = SptrsvPim::new(dev.clone());
        solver.precision = p;
        let t = Instant::now();
        let r = solver.run(tri, b);
        trsv_s += t.elapsed().as_secs_f64();
        let want = tri.solve_rowwise(b).expect("square factor");
        check(r.is_ok_and(|r| r.run.violations == 0 && all_close(&r.x, &want)));
        let t = Instant::now();
        black_box(model.sptrsv(tri, p));
        model_s += t.elapsed().as_secs_f64();
        model_calls += 1;
    }
    m.push(
        "kernels.sptrsv.call_us",
        mean(trsv_s, ops.trsv.len()) * 1e6,
        "us",
    );

    // BLAS-1: axpy, dot and nrm2 at the workload's vector length.
    let x: Vec<f64> = (0..ops.vec_len)
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    let y: Vec<f64> = (0..ops.vec_len)
        .map(|i| 0.5 - (i % 5) as f64 * 0.125)
        .collect();
    let blas = Blas1Pim::new(dev.clone(), p);
    let t = Instant::now();
    let axpy = blas.daxpy(1.5, &x, &y);
    let dot = blas.ddot(&x, &y);
    let nrm = blas.dnrm2(&x);
    m.push(
        "kernels.blas1.call_us",
        t.elapsed().as_secs_f64() / 3.0 * 1e6,
        "us",
    );
    let want: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 1.5 * a + b).collect();
    check(axpy.is_ok_and(|r| all_close(&r.v, &want)));
    check(dot.is_ok_and(|r| close(r.s, x.iter().zip(&y).map(|(a, b)| a * b).sum())));
    check(nrm.is_ok_and(|r| close(r.s, x.iter().map(|a| a * a).sum::<f64>().sqrt())));
    let t = Instant::now();
    black_box((
        model.axpy(ops.vec_len, p),
        model.dot(ops.vec_len, p),
        model.norm2(ops.vec_len, p),
    ));
    model_s += t.elapsed().as_secs_f64();
    model_calls += 3;
    m.push(
        "kernels.costmodel.call_us",
        mean(model_s, model_calls) * 1e6,
        "us",
    );
    m.push("kernels.costmodel.err_pct", mean(err, nmat), "%");

    // tune: one decision per matrix, and its predicted gain.
    let tuner = Autotuner::new(dev);
    let (mut decide_s, mut ratio) = (0.0, 0.0);
    for (a, _) in &ops.spmv {
        let t = Instant::now();
        let d = tuner.decide(a, p);
        decide_s += t.elapsed().as_secs_f64();
        ratio += d.est_cycles as f64 / model.spmv(a, p).cycles.max(1) as f64;
    }
    m.push("tune.decide_us", mean(decide_s, nmat) * 1e6, "us");
    m.push("tune.cycles_ratio", mean(ratio, nmat), "ratio");
    (attempted, failed)
}

/// `dram.*` counters of a run.
pub fn dram_layers(run: &KernelRun, m: &mut Metrics) {
    m.push("dram.commands", run.commands as f64, "count");
    m.push(
        "dram.all_bank_commands",
        run.all_bank_commands as f64,
        "count",
    );
    m.push(
        "dram.per_bank_commands",
        run.per_bank_commands as f64,
        "count",
    );
    m.push("dram.bank_bursts", run.bank_bursts as f64, "count");
    m.push(
        "dram.mem_op_ratio",
        run.mem_ops as f64 / run.bank_bursts.max(1) as f64,
        "ratio",
    );
    m.push("dram.external_bytes", run.external_bytes as f64, "bytes");
    m.push("dram.protocol_violations", run.violations as f64, "count");
}

/// `core.trace.<category>_frac` of a psim-trace attribution.
pub fn trace_layers(attr: &CycleBreakdown, m: &mut Metrics) {
    for cat in Category::ALL {
        let name = format!("core.trace.{}_frac", cat.label());
        m.push(&name, attr.fraction(cat), "ratio");
    }
}

/// Where a service run's jobs came from, for the `sched.store.*` metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounts {
    /// Matrix-store lookups that found the operand resident.
    pub hits: u64,
    /// Lookups that had to (re)generate and insert it.
    pub misses: u64,
    /// Operands evicted under the byte budget.
    pub evictions: u64,
}

/// `sched.*` metrics of one service run.
pub fn sched_layers(
    jobs: &[CompletedJob],
    stats: &ServiceStats,
    submit_s: f64,
    run_s: f64,
    store: StoreCounts,
    m: &mut Metrics,
) {
    let n = jobs.len().max(1) as f64;
    let groups = jobs.iter().filter(|j| j.fused_leader).count() as f64;
    let fused = jobs.iter().filter(|j| j.fused_width > 1).count() as f64;
    let waits: Vec<f64> = jobs.iter().map(|j| j.wait_s * 1e6).collect();
    let (wait_p50, wait_tail) = p50_tail(waits);
    let busy = &stats.sim.per_shard_busy_cycles;
    let busy_mean = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
    let busy_max = busy.iter().copied().max().unwrap_or(0) as f64;
    m.push("sched.queue.submit_us", submit_s / n * 1e6, "us");
    m.push("sched.service.run_s", run_s, "s");
    m.push("sched.groups", groups, "count");
    m.push("sched.fusion_rate", fused / n, "ratio");
    m.push("sched.mean_group_width", n / groups.max(1.0), "jobs");
    m.push("sched.steals", stats.sim.steals as f64, "count");
    let lookups = (store.hits + store.misses).max(1) as f64;
    m.push(
        "sched.store.hit_ratio",
        store.hits as f64 / lookups,
        "ratio",
    );
    m.push("sched.store.evictions", store.evictions as f64, "count");
    m.push("sched.sim_wait_p50_us", wait_p50, "us");
    m.push("sched.sim_wait_tail_us", wait_tail, "us");
    m.push(
        "sched.shard_busy_imbalance",
        if busy_mean > 0.0 {
            busy_max / busy_mean
        } else {
            1.0
        },
        "ratio",
    );
}

/// Replay the SpMV operands as one pre-filled, closed service drain on a
/// single shard of the workload's device — the scheduler's cost on a
/// workload that does not otherwise go through it. Returns
/// `(attempted, failed)` jobs.
pub fn sched_probe(ops: &Operands, m: &mut Metrics) -> (u64, u64) {
    let queue = JobQueue::bounded(ops.spmv.len().max(1));
    let t = Instant::now();
    for (a, x) in &ops.spmv {
        queue
            .submit(JobSpec::batch(
                "probe",
                JobKind::spmv(Arc::clone(a), x.clone()),
            ))
            .expect("queue is open and sized for every job");
    }
    let submit_s = t.elapsed().as_secs_f64();
    queue.close();
    let svc = Service::new(ServiceConfig::new(ExecutorConfig::serial(
        ops.device.clone(),
    )))
    .expect("one shard always divides the device");
    let mut jobs = Vec::new();
    let t = Instant::now();
    let report = svc.run(&queue, &mut |job| jobs.push(job));
    let run_s = t.elapsed().as_secs_f64();
    let attempted = ops.spmv.len() as u64;
    let Ok(report) = report else {
        return (attempted, attempted);
    };
    let failed = jobs
        .iter()
        .filter(|j| {
            let (a, x) = &ops.spmv[j.id as usize];
            !matches!(&j.value, JobValue::Vector(y) if all_close(y, &a.spmv(x)))
        })
        .count() as u64
        + attempted.saturating_sub(jobs.len() as u64);
    sched_layers(
        &jobs,
        &report.stats,
        submit_s,
        run_s,
        StoreCounts::default(),
        m,
    );
    (attempted, failed)
}

/// `apps.*` metrics from timed runtime calls and the simulated breakdown
/// they added up to; host seconds are per solve.
pub fn apps_layers(calls: &[Call], breakdown: &Breakdown, solves: usize, m: &mut Metrics) {
    let per = |f: Family| host_s(calls, f) / solves.max(1) as f64;
    m.push("apps.runtime.spmv_host_s", per(Family::Spmv), "s");
    m.push("apps.runtime.sptrsv_host_s", per(Family::Sptrsv), "s");
    m.push("apps.runtime.vector_host_s", per(Family::Vector), "s");
    let [spmv, sptrsv, vector, _] = breakdown.fractions();
    m.push("apps.breakdown.spmv_frac", spmv, "ratio");
    m.push("apps.breakdown.sptrsv_frac", sptrsv, "ratio");
    m.push("apps.breakdown.vector_frac", vector, "ratio");
}

/// Replay the operands once through the apps `Runtime` of the PIM device.
/// Returns `(attempted, failed)` calls.
pub fn apps_probe(ops: &Operands, m: &mut Metrics) -> (u64, u64) {
    let mut rt = Timed::new(PimRuntime::new(ops.device.clone(), ops.precision));
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    for (a, x) in &ops.spmv {
        let y = rt.spmv(a, x);
        check(all_close(&y, &a.spmv(x)));
    }
    for (t, b) in &ops.trsv {
        let x = rt.sptrsv(t, b);
        check(all_close(&x, &t.solve_rowwise(b).expect("square factor")));
    }
    let x: Vec<f64> = (0..ops.vec_len).map(|i| 0.75 + (i % 3) as f64).collect();
    let mut y = x.clone();
    rt.axpy(2.0, &x, &mut y);
    check(all_close(
        &y,
        &x.iter().map(|v| 3.0 * v).collect::<Vec<_>>(),
    ));
    let d = rt.dot(&x, &x);
    check(close(d, x.iter().map(|v| v * v).sum()));
    check(close(rt.norm2(&x), d.sqrt()));
    apps_layers(&rt.calls, &rt.breakdown(), 1, m);
    (attempted, failed)
}

/// Header line with the min / quartiles / max of per-pass values: the
/// pass-to-pass noise a reader should expect.
#[must_use]
pub fn pass_spread(what: &str, values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "per-pass {what}: min={min:.4} q1={:.4} median={:.4} q3={:.4} max={max:.4} over {} passes",
        lower_quartile(values.to_vec()),
        median(values.to_vec()),
        upper_quartile(values.to_vec()),
        values.len()
    )
}

/// Header line on the host-clock scaling: the calibration times of the
/// run and the raw (unscaled) throughput, so the host's own speed stays
/// visible.
#[must_use]
pub fn calibration_note(cals: &[f64], raw_ops: &[f64]) -> String {
    let min = cals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = cals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "host clock scaled to a {}s calibration: calibration min={min:.4} median={:.4} \
         max={max:.4} s over {} passes; unscaled host_ops_per_s={:.4}",
        crate::CAL_REF_S,
        median(cals.to_vec()),
        cals.len(),
        upper_quartile(raw_ops.to_vec()),
    )
}
