//! `solve_pcg`: `psim_apps::cg::pcg` on SPD banded systems through
//! `PimRuntime` on the 256-bank `psync_1x` device. It is the only workload
//! that measures the `apps` layer and SpTRSV orchestration: many small
//! level-batch launches per second of host time.

use std::sync::Arc;
use std::time::Duration;

use psim_apps::cg::pcg;
use psim_apps::runtime::{Breakdown, GpuRuntime, GpuStack, PimRuntime, Runtime};
use psim_baselines::GpuModel;
use psim_kernels::{KernelRun, PimDevice};
use psim_sparse::ildu::{make_spd, Ildu};
use psim_sparse::{gen, Coo, Precision};
use psyncpim_core::take_engine_wall_s;

use crate::probe::{self, Operands};
use crate::stats::{label, median, p50_tail, slot_minimums, tail_quantile, upper_quartile};
use crate::timed::{Call, Family, KernelRuntime, Timed};
use crate::{
    all_close, calibrate, fan_out, host_threads, pinned, push_times, repeat_for, Metrics, Outcome,
    CAL_REF_S, CLIENTS,
};

/// System dimension.
pub(crate) const N: usize = 48;

/// Systems per pass, each with its own seeded sparsity: one system's
/// level structure would swing every number with the seed.
pub(crate) const SYSTEMS: usize = 8;

/// P-CG iterations per solve. The tolerance is zero, so every solve runs
/// exactly this many iterations whatever the seed.
pub(crate) const ITERS: usize = 5;

/// Set-ups timed before every pass (the set-up is small); `setup_s` is the
/// median of them all, spread over the run.
const SETUP_REPS: usize = 11;

/// One linear system.
pub(crate) struct System {
    /// The SPD matrix.
    pub a: Arc<Coo>,
    /// Right-hand side.
    pub b: Vec<f64>,
}

/// The workload's inputs.
pub(crate) struct Inputs {
    /// The pinned device.
    pub device: PimDevice,
    /// The systems of one pass.
    pub systems: Vec<System>,
}

/// Generate the seeded SPD banded systems.
#[must_use]
pub(crate) fn inputs(seed: u64, trace: bool) -> Inputs {
    let systems = (0..SYSTEMS as u64)
        .map(|i| {
            let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
            let a = make_spd(&gen::banded_fem(N, 8, 3, salt));
            let b = a.spmv(&gen::dense_vector(N, salt ^ 0xB0B));
            System { a: Arc::new(a), b }
        })
        .collect();
    Inputs {
        device: pinned(PimDevice::psync_1x(), trace),
        systems,
    }
}

/// The CPU reference after exactly [`ITERS`] iterations: the same P-CG
/// over the host reference kernels.
fn reference(sys: &System) -> Vec<f64> {
    let mut rt = GpuRuntime::new(GpuModel::rtx3080(), GpuStack::Cuda);
    pcg(&mut rt, &sys.a, &sys.b, 0.0, ITERS).x
}

/// One pass: every system solved once through a timed `PimRuntime`.
pub(crate) struct Pass {
    /// Per-system timed runtimes, with their call records.
    pub runtimes: Vec<Timed<PimRuntime>>,
    /// Per-system solutions.
    pub xs: Vec<Vec<f64>>,
    /// Host seconds of each solve.
    pub host_s: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Engine host seconds inside the solves (summed over threads).
    pub engine_s: f64,
    /// Solves that stopped early or missed the CPU reference.
    pub failed: u64,
}

/// Solve every system once on `workers` threads; check each against
/// `refs` after the pass, outside the timed region.
#[must_use]
pub(crate) fn pass(inp: &Inputs, refs: &[Vec<f64>], workers: usize) -> Pass {
    let _ = take_engine_wall_s();
    let (done, wall_s) = fan_out(inp.systems.len(), workers, |i| {
        let sys = &inp.systems[i];
        let mut rt = Timed::new(PimRuntime::new(inp.device.clone(), Precision::Fp64));
        let res = pcg(&mut rt, &sys.a, &sys.b, 0.0, ITERS);
        (rt, res)
    });
    let mut out = Pass {
        runtimes: Vec::new(),
        xs: Vec::new(),
        host_s: Vec::new(),
        wall_s,
        engine_s: take_engine_wall_s(),
        failed: 0,
    };
    for (((rt, res), host_s), want) in done.into_iter().zip(refs) {
        out.failed += u64::from(res.run.iterations != ITERS || !all_close(&res.x, want));
        out.host_s.push(host_s);
        out.runtimes.push(rt);
        out.xs.push(res.x);
    }
    out
}

/// Host seconds of every `Runtime` call of a pass, in call order.
fn call_host_s(p: &Pass) -> Vec<f64> {
    p.runtimes
        .iter()
        .flat_map(|rt| rt.calls.iter().map(|c| c.host_s))
        .collect()
}

/// Simulated seconds of each P-CG iteration (a segment starts at each
/// SpMV call; the set-up calls before the first one are not a sample).
fn iteration_sim_s(rt: &Timed<PimRuntime>) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for c in &rt.calls {
        if c.family == Family::Spmv {
            out.push(0.0);
        }
        if let Some(last) = out.last_mut() {
            *last += c.sim_s;
        }
    }
    out
}

/// The simulated metrics of a pass (a pure function of the seed), except
/// `sim_cycles`, which comes from [`exact_runs`].
#[must_use]
pub(crate) fn sim_metrics(p: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let sim_s: f64 = p.runtimes.iter().map(|rt| rt.breakdown().total_s()).sum();
    let iters: Vec<f64> = p
        .runtimes
        .iter()
        .flat_map(iteration_sim_s)
        .map(|s| s * 1e6)
        .collect();
    let (p50, tail) = p50_tail(iters);
    m.push("sim_ops_per_s", p.runtimes.len() as f64 / sim_s, "1/s");
    m.push("sim_latency_p50_us", p50, "us");
    m.push("sim_latency_tail_us", tail, "us");
    m
}

/// Every system solved through the kernels directly: the exact DRAM
/// accounting `PimRuntime` does not expose. Returns the merged run and
/// the number of systems whose values differ from `xs` in any bit.
fn exact_runs(inp: &Inputs, xs: &[Vec<f64>], trace: bool) -> (KernelRun, u64) {
    let mut run = KernelRun::default();
    let mut mismatched = 0;
    for (sys, x) in inp.systems.iter().zip(xs) {
        let mut krt = KernelRuntime::new(pinned(PimDevice::psync_1x(), trace), Precision::Fp64);
        let kx = pcg(&mut krt, &sys.a, &sys.b, 0.0, ITERS).x;
        mismatched += u64::from(kx != *x || krt.run.violations > 0);
        run.merge(&krt.run);
    }
    (run, mismatched)
}

/// Run the workload for `seconds`.
#[must_use]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inp = inputs(seed, false);
    let mut setups = Vec::new();
    let refs: Vec<Vec<f64>> = inp.systems.iter().map(reference).collect();
    let workers = host_threads(CLIENTS);
    let mut out = Outcome::default();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut first: Option<(Pass, Metrics)> = None;
    let (mut calls_s, mut ops, mut engine, mut host, mut cals) =
        (vec![], vec![], vec![], vec![], vec![]);
    repeat_for(Duration::from_secs_f64(budget), || {
        cals.push(calibrate(workers));
        push_times(&mut setups, SETUP_REPS, || drop(inputs(seed, false)));
        let p = pass(&inp, &refs, workers);
        out.count(SYSTEMS as u64, p.failed);
        let host_s: f64 = p.host_s.iter().sum();
        ops.push(SYSTEMS as f64 / p.wall_s);
        calls_s.push(call_host_s(&p));
        engine.push(p.engine_s / SYSTEMS as f64);
        host.push(host_s / SYSTEMS as f64);
        let sim = sim_metrics(&p);
        match &first {
            Some((p0, sim0)) => out.nondeterministic |= !sim0.same_bits(&sim) || p0.xs != p.xs,
            None => first = Some((p, sim)),
        }
    });
    let (p0, sim0) = first.expect("at least one pass");
    let (exact, mismatched) = exact_runs(&inp, &p0.xs, traced);
    out.count(SYSTEMS as u64, mismatched);
    let calls: usize = p0.runtimes.iter().map(|rt| rt.calls.len()).sum();
    out.notes = vec![
        format!(
            "device=psync_1x banks={} shards=1 host_threads={workers} fusion=1 validate={} tier={:?} \
             systems={SYSTEMS}xspd_banded(n={N}) iters={ITERS}",
            inp.device.total_banks(),
            inp.device.validate,
            inp.device.tier,
        ),
        format!(
            "an op is one solve; host_op is per Runtime call (each call's fastest over passes), tail={} of {calls} calls per pass; \
             sim_latency is per P-CG iteration, tail={} of {} iterations per pass",
            label(tail_quantile(calls)),
            label(tail_quantile(SYSTEMS * ITERS)),
            SYSTEMS * ITERS,
        ),
    ];
    out.notes.push(probe::pass_spread("host_ops_per_s", &ops));
    out.notes.push(probe::calibration_note(&cals, &ops));
    let raw_host_ops = upper_quartile(ops);
    let scale = CAL_REF_S / median(cals);
    let host_ops = raw_host_ops / scale;
    let cycles = exact.dram_cycles as f64;
    if !traced {
        let slots = slot_minimums(&calls_s);
        let (p50, tail) = p50_tail(slots.iter().map(|s| s * scale * 1e3).collect());
        let m = &mut out.metrics;
        m.push("setup_s", median(setups) * scale, "s");
        m.push("host_ops_per_s", host_ops, "1/s");
        m.push("host_op_p50_ms", p50, "ms");
        m.push("host_op_tail_ms", tail, "ms");
        m.push(
            "sim_cycles_per_host_s",
            cycles / SYSTEMS as f64 * host_ops,
            "cycles/s",
        );
        for x in &sim0.0 {
            m.push(&x.name, x.value, x.unit);
        }
        m.push("sim_cycles", cycles, "cycles");
        return out;
    }

    let traced_inp = inputs(seed, true);
    let mut traced_ops = Vec::new();
    repeat_for(Duration::from_secs_f64(budget), || {
        let p = pass(&traced_inp, &refs, workers);
        out.count(SYSTEMS as u64, p.failed);
        out.nondeterministic |= !sim0.same_bits(&sim_metrics(&p)) || p0.xs != p.xs;
        traced_ops.push(SYSTEMS as f64 / p.wall_s);
    });
    let traced_ops = upper_quartile(traced_ops);
    let mut layers = Metrics::default();
    let m = &mut layers;
    m.push("core.engine.host_s", median(engine.clone()), "s");
    m.push("core.engine.share", median(engine) / median(host), "ratio");
    probe::trace_layers(&exact.attr, m);
    probe::dram_layers(&exact, m);
    let calls: Vec<Call> = p0
        .runtimes
        .iter()
        .flat_map(|rt| rt.calls.iter().copied())
        .collect();
    let mut breakdown = Breakdown::default();
    for rt in &p0.runtimes {
        let b = rt.breakdown();
        breakdown.spmv_s += b.spmv_s;
        breakdown.sptrsv_s += b.sptrsv_s;
        breakdown.vector_s += b.vector_s;
    }
    probe::apps_layers(&calls, &breakdown, SYSTEMS, m);
    m.push("tune.decisions", 0.0, "count");
    let ops = operands(&inp);
    let counts = [probe::kernel_layers(&ops, m), probe::sched_probe(&ops, m)];
    m.push(
        "trace_overhead_frac",
        (traced_ops - raw_host_ops) / raw_host_ops,
        "ratio",
    );
    for (a, f) in counts {
        out.count(a, f);
    }
    out.metrics = layers;
    out
}

/// The first system's SpMV operand and ILDU factors, for the per-layer
/// replay.
fn operands(inp: &Inputs) -> Operands {
    let sys = &inp.systems[0];
    let f = Ildu::factor(&sys.a).expect("square system");
    Operands {
        device: inp.device.clone(),
        precision: Precision::Fp64,
        spmv: vec![(Arc::clone(&sys.a), sys.b.clone())],
        trsv: vec![
            (Arc::new(f.l), sys.b.clone()),
            (Arc::new(f.u), sys.b.clone()),
        ],
        vec_len: N,
    }
}
