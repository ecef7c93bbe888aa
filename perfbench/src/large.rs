//! `spmv_large`: repeated SpMV, plus one SpMM at fusion width, on the full
//! `psync_1x` device (256 banks) over a few large generated matrices. No
//! scheduler is involved: the engine and the partition dominate host time.

use std::sync::Arc;
use std::time::Duration;

use psim_kernels::{KernelRun, PimDevice, SpmmPim, SpmvPim};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Coo, Precision};
use psyncpim_core::take_engine_wall_s;

use crate::probe::{self, Operands};
use crate::serve::FUSION_WIDTH;
use crate::stats::{label, median, p50_tail, slot_minimums, tail_quantile, upper_quartile};
use crate::{
    all_close, calibrate, fan_out, host_threads, pinned, push_times, repeat_for, Metrics, Outcome,
    CAL_REF_S, CLIENTS,
};

/// SpMV calls per matrix per pass.
pub(crate) const SPMV_PER_MATRIX: usize = 13;

/// Set-ups timed before every pass; `setup_s` is the median of them all,
/// spread over the run.
const SETUP_REPS: usize = 1;

/// A labelled matrix with its SpMV operands.
type Matrix = (&'static str, Arc<Coo>, Vec<Vec<f64>>);

/// The workload's inputs.
pub(crate) struct Inputs {
    /// The pinned device.
    pub device: PimDevice,
    /// `(label, matrix, SpMV operands)`.
    pub matrices: Vec<Matrix>,
    /// The SpMM's operands (run on the last, banded matrix).
    pub spmm_xs: Vec<Vec<f64>>,
}

/// Generate the seeded inputs: a scale-free rmat, a denser rmat and a
/// banded FEM stencil.
#[must_use]
pub(crate) fn inputs(seed: u64, trace: bool) -> Inputs {
    let mats: [(&'static str, Coo); 3] = [
        ("rmat8k_d8", gen::rmat_seeded(8192, 8, 1, seed)),
        ("rmat4k_d16", gen::rmat_seeded(4096, 16, 2, seed)),
        ("banded8k_bw64", gen::banded_fem(8192, 64, 8, seed)),
    ];
    let mut salt = seed;
    let mut vector = |n: usize| {
        salt = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
        gen::dense_vector(n, salt)
    };
    let matrices: Vec<_> = mats
        .into_iter()
        .map(|(name, a)| {
            let xs = (0..SPMV_PER_MATRIX).map(|_| vector(a.ncols())).collect();
            (name, Arc::new(a), xs)
        })
        .collect();
    let n = matrices[matrices.len() - 1].1.ncols();
    let spmm_xs = (0..FUSION_WIDTH).map(|_| vector(n)).collect();
    Inputs {
        device: pinned(PimDevice::psync_1x(), trace),
        matrices,
        spmm_xs,
    }
}

/// One pass over every call.
pub(crate) struct Pass {
    /// Host seconds per call, in call order.
    pub host_s: Vec<f64>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Simulated seconds per call.
    pub sim_s: Vec<f64>,
    /// Every call's accounting, merged in call order.
    pub run: KernelRun,
    /// Engine host seconds inside the calls (summed over threads).
    pub engine_s: f64,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that errored, broke protocol or returned a wrong value.
    pub failed: u64,
}

/// One kernel call of a pass.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The width-[`FUSION_WIDTH`] SpMM on the last matrix.
    Spmm,
    /// SpMV of matrix `m` with its operand `x`.
    Spmv { m: usize, x: usize },
}

/// Every call of a pass, the longest (the SpMM) first so that the
/// workers finish together.
fn ops(inp: &Inputs) -> Vec<Op> {
    let spmv = inp
        .matrices
        .iter()
        .enumerate()
        .flat_map(|(m, (_, _, xs))| (0..xs.len()).map(move |x| Op::Spmv { m, x }));
    std::iter::once(Op::Spmm).chain(spmv).collect()
}

/// Run every call once on `workers` threads, timing each; check each
/// value after the pass, outside the timed region.
#[must_use]
pub(crate) fn pass(inp: &Inputs, workers: usize) -> Pass {
    let p = Precision::Fp64;
    let ops = ops(inp);
    let last = &inp.matrices[inp.matrices.len() - 1].1;
    let _ = take_engine_wall_s();
    let (done, wall_s) = fan_out(ops.len(), workers, |i| match ops[i] {
        Op::Spmm => SpmmPim::new(inp.device.clone(), p)
            .run(last, &inp.spmm_xs)
            .map(|r| (r.run, r.ys))
            .ok(),
        Op::Spmv { m, x } => SpmvPim::new(inp.device.clone(), p)
            .run(&inp.matrices[m].1, &inp.matrices[m].2[x])
            .map(|r| (r.run, vec![r.y]))
            .ok(),
    });
    let mut out = Pass {
        host_s: Vec::with_capacity(ops.len()),
        wall_s,
        sim_s: Vec::new(),
        run: KernelRun::default(),
        engine_s: take_engine_wall_s(),
        attempted: ops.len() as u64,
        failed: 0,
    };
    for (op, (result, host_s)) in ops.iter().zip(done) {
        out.host_s.push(host_s);
        let Some((run, ys)) = result else {
            out.failed += 1;
            continue;
        };
        let ok = match *op {
            Op::Spmm => {
                ys.len() == inp.spmm_xs.len()
                    && ys
                        .iter()
                        .zip(&inp.spmm_xs)
                        .all(|(y, x)| all_close(y, &last.spmv(x)))
            }
            Op::Spmv { m, x } => {
                let (_, a, xs) = &inp.matrices[m];
                all_close(&ys[0], &a.spmv(&xs[x]))
            }
        };
        out.failed += u64::from(!ok || run.violations > 0);
        out.sim_s.push(run.total_s());
        out.run.merge(&run);
    }
    out
}

/// The simulated metrics of a pass: a pure function of the seed.
#[must_use]
pub(crate) fn sim_metrics(p: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let (p50, tail) = p50_tail(p.sim_s.iter().map(|s| s * 1e6).collect());
    m.push(
        "sim_ops_per_s",
        p.sim_s.len() as f64 / p.sim_s.iter().sum::<f64>(),
        "1/s",
    );
    m.push("sim_latency_p50_us", p50, "us");
    m.push("sim_latency_tail_us", tail, "us");
    m.push("sim_cycles", p.run.dram_cycles as f64, "cycles");
    probe::dram_layers(&p.run, &mut m);
    m
}

/// Run the workload for `seconds`.
#[must_use]
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inp = inputs(seed, false);
    let mut setups = Vec::new();
    let calls = inp.matrices.len() * SPMV_PER_MATRIX + 1;
    let workers = host_threads(CLIENTS);
    let mut out = Outcome {
        notes: vec![
            format!(
                "device=psync_1x banks={} shards=1 host_threads={workers} fusion={FUSION_WIDTH} \
                 (one SpMM per pass) validate={} tier={:?} matrices={}",
                inp.device.total_banks(),
                inp.device.validate,
                inp.device.tier,
                inp.matrices
                    .iter()
                    .map(|(name, a, _)| format!("{name}(nnz={})", a.nnz()))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            format!(
                "host_op and sim_latency are per kernel call (host: each call's fastest \
                 over passes); tail={} of {calls} calls per pass",
                label(tail_quantile(calls))
            ),
        ],
        ..Outcome::default()
    };
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut first: Option<(Pass, Metrics)> = None;
    let (mut calls_s, mut ops, mut cps, mut engine, mut host, mut cals) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    repeat_for(Duration::from_secs_f64(budget), || {
        cals.push(calibrate(workers));
        push_times(&mut setups, SETUP_REPS, || drop(inputs(seed, false)));
        let p = pass(&inp, workers);
        out.count(p.attempted, p.failed);
        ops.push(p.attempted as f64 / p.wall_s);
        cps.push(p.run.dram_cycles as f64 / p.wall_s);
        engine.push(p.engine_s);
        host.push(p.host_s.iter().sum::<f64>());
        let sim = sim_metrics(&p);
        calls_s.push(p.host_s.clone());
        match &first {
            Some((_, sim0)) => out.nondeterministic |= !sim0.same_bits(&sim),
            None => first = Some((p, sim)),
        }
    });
    out.notes.push(probe::pass_spread("host_ops_per_s", &ops));
    out.notes.push(probe::calibration_note(&cals, &ops));
    let raw_host_ops = upper_quartile(ops);
    let scale = CAL_REF_S / median(cals);
    let host_ops = raw_host_ops / scale;
    let (p0, sim0) = first.expect("at least one pass");
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
            upper_quartile(cps) / scale,
            "cycles/s",
        );
        for x in sim0.0.iter().filter(|x| x.name.starts_with("sim_")) {
            m.push(&x.name, x.value, x.unit);
        }
        return out;
    }

    let traced_inp = inputs(seed, true);
    let mut traced_ops = Vec::new();
    let mut attr = None;
    repeat_for(Duration::from_secs_f64(budget), || {
        let p = pass(&traced_inp, workers);
        out.count(p.attempted, p.failed);
        out.nondeterministic |= !sim0.same_bits(&sim_metrics(&p));
        attr.get_or_insert(p.run.attr);
        traced_ops.push(p.attempted as f64 / p.wall_s);
    });
    let traced_ops = upper_quartile(traced_ops);
    let mut layers = Metrics::default();
    let m = &mut layers;
    let engine_s = median(engine);
    m.push("core.engine.host_s", engine_s / calls as f64, "s");
    m.push("core.engine.share", engine_s / median(host), "ratio");
    probe::trace_layers(&attr.expect("at least one traced pass"), m);
    probe::dram_layers(&p0.run, m);
    m.push("tune.decisions", 0.0, "count");
    let ops = operands(&inp);
    for (a, f) in [
        probe::kernel_layers(&ops, m),
        probe::sched_probe(&ops, m),
        probe::apps_probe(&ops, m),
    ] {
        out.count(a, f);
    }
    m.push(
        "trace_overhead_frac",
        (traced_ops - raw_host_ops) / raw_host_ops,
        "ratio",
    );
    out.metrics = layers;
    out
}

/// One SpMV operand per matrix, and a lower factor cut from the banded
/// matrix's leading block, for the per-layer replay.
fn operands(inp: &Inputs) -> Operands {
    let spmv: Vec<(Arc<Coo>, Vec<f64>)> = inp
        .matrices
        .iter()
        .map(|(_, a, xs)| (Arc::clone(a), xs[0].clone()))
        .collect();
    let (_, banded, xs) = &inp.matrices[inp.matrices.len() - 1];
    let block = banded.submatrix(0, 512, 0, 512);
    let t = unit_triangular_from(&block, Triangle::Lower).expect("square block");
    Operands {
        device: inp.device.clone(),
        precision: Precision::Fp64,
        spmv,
        trsv: vec![(Arc::new(t), xs[0][..512].to_vec())],
        vec_len: banded.ncols(),
    }
}
