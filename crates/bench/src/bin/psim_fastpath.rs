//! psim-fastpath: the engine-fingerprint and analytical-cost-model CI gate.
//!
//! Three gates plus a machine-readable report:
//!
//! 1. **Self-test** — the kernel self-test battery (values against CPU
//!    references, protocol checker attached) passes in both execution
//!    modes.
//! 2. **Fingerprints** — the 14-kernel fingerprint battery
//!    ([`psim_kernels::fingerprint`]: every serialized `KernelRun` field
//!    plus the output bits, on a validated full-size device and a traced
//!    small one, in both modes) matches the committed
//!    `tests/goldens/engine_fingerprints.json`, which pins the original
//!    command-by-command reference engine. `PSIM_BLESS=1` re-blesses it
//!    after an intentional model change.
//! 3. **Calibration** — the O(nnz) analytical [`CostModel`] estimate vs
//!    the cycle engine across kernel × matrix-class pairs; each kernel's
//!    mean absolute percentage error must stay under [`MAPE_BOUND_PCT`].
//!
//! Writes `results/BENCH_fastpath.json`; exits non-zero on any gate
//! failure so CI catches an engine divergence or cost-model drift the
//! moment it appears. Host speed is guarded by the repo benchmark
//! (`perfbench/`), not here.

use psim_kernels::blas1::Blas1Pim;
use psim_kernels::fingerprint;
use psim_kernels::{all_pass, selftest, CostModel, KernelRun, PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Precision};
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::ExecMode;
use serde::Serialize;
use std::path::Path;

/// Per-kernel calibration bound: mean absolute percentage error of the
/// analytical estimate vs the cycle engine over that kernel's matrix
/// classes.
const MAPE_BOUND_PCT: f64 = 25.0;

/// The committed engine fingerprints.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/engine_fingerprints.json"
);

/// Self-test outcome in one execution mode.
#[derive(Serialize)]
struct SelftestRow {
    mode: &'static str,
    checks: usize,
    ok: bool,
}

/// One analytical-estimate-vs-engine comparison.
#[derive(Serialize)]
struct CalRow {
    kernel: &'static str,
    class: &'static str,
    est_cycles: u64,
    actual_cycles: u64,
    est_phases: u64,
    actual_phases: u64,
    /// Signed error of the estimate, percent of the engine's cycles.
    err_pct: f64,
}

/// Per-kernel aggregate of [`CalRow`] errors.
#[derive(Serialize)]
struct MapeRow {
    kernel: &'static str,
    mape_pct: f64,
    ok: bool,
}

/// The full machine-readable report.
#[derive(Serialize)]
struct FastpathReport {
    selftests: Vec<SelftestRow>,
    /// Fingerprints compared against the golden.
    fingerprints: usize,
    /// One message per fingerprint that differs from the golden.
    fingerprint_mismatches: Vec<String>,
    calibration: Vec<CalRow>,
    mape: Vec<MapeRow>,
    mape_bound_pct: f64,
    violations: usize,
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::AllBank => "all-bank",
        ExecMode::PerBank => "per-bank",
    }
}

/// Gate 1: the self-test battery once per execution mode.
fn run_selftests(violations: &mut usize) -> Vec<SelftestRow> {
    let mut rows = Vec::new();
    for mode in [ExecMode::AllBank, ExecMode::PerBank] {
        let mut d = PimDevice::tiny(2);
        d.mode = mode;
        let (checks, ok) = match selftest(&d) {
            Ok(results) => {
                for r in results.iter().filter(|r| !r.pass) {
                    println!(
                        "selftest\t{}\t{}\tFAIL\tmax_err={:.3e}",
                        mode_label(mode),
                        r.kernel,
                        r.max_err
                    );
                }
                (results.len(), all_pass(&results))
            }
            Err(e) => {
                println!("selftest\t{}\tERROR\t{e}", mode_label(mode));
                (0, false)
            }
        };
        if !ok {
            *violations += 1;
        }
        rows.push(SelftestRow {
            mode: mode_label(mode),
            checks,
            ok,
        });
    }
    rows
}

/// Gate 2: the fingerprint battery against the committed golden. Returns
/// the number of fingerprints and one message per mismatch.
fn run_fingerprints(violations: &mut usize) -> (usize, Vec<String>) {
    let fps = fingerprint::engine_fingerprints();
    let diffs = fingerprint::check_golden(Path::new(GOLDEN), &fps).unwrap_or_else(|e| {
        eprintln!("psim-fastpath: cannot read {GOLDEN} ({e}); run with PSIM_BLESS=1");
        std::process::exit(1);
    });
    for d in &diffs {
        println!("fingerprint\tVIOLATION\t{d}");
    }
    *violations += diffs.len();
    println!(
        "fingerprints\t{} checked, {} mismatched (tests/goldens/engine_fingerprints.json)",
        fps.len(),
        diffs.len()
    );
    (fps.len(), diffs)
}

/// One calibration comparison: run the engine, ask the model, record both.
fn cal_row(
    kernel: &'static str,
    class: &'static str,
    est: psim_kernels::CostEstimate,
    run: &KernelRun,
) -> CalRow {
    let err_pct = 100.0 * (est.cycles as f64 - run.dram_cycles as f64) / run.dram_cycles as f64;
    CalRow {
        kernel,
        class,
        est_cycles: est.cycles,
        actual_cycles: run.dram_cycles,
        est_phases: est.phases,
        actual_phases: run.phases,
        err_pct,
    }
}

/// Gate 3: analytical estimates vs the cycle engine per kernel × class.
fn run_calibration(violations: &mut usize) -> (Vec<CalRow>, Vec<MapeRow>) {
    let device = PimDevice::tiny(2);
    let model = CostModel::new(&device);
    let p = Precision::Fp64;
    let mut rows = Vec::new();

    for (class, a) in [
        ("rmat", gen::rmat(96, 5, 11)),
        ("rmat", gen::rmat(400, 8, 3)),
        ("rmat", gen::rmat(1024, 3, 9)),
        ("banded_fem", gen::banded_fem(600, 8, 4, 2)),
        ("banded_fem", gen::banded_fem(1400, 12, 6, 7)),
    ] {
        let x = gen::dense_vector(a.ncols(), 13);
        let r = SpmvPim::new(device.clone(), p).run(&a, &x).expect("spmv");
        rows.push(cal_row("SpMV", class, model.spmv(&a, p), &r.run));
    }

    for (class, a) in [
        ("rmat-lower", gen::rmat(192, 4, 5)),
        ("banded-lower", gen::banded_fem(384, 10, 5, 3)),
    ] {
        let t = unit_triangular_from(&a, Triangle::Lower).expect("square matrix");
        let b = t.matvec(&gen::dense_vector(a.ncols(), 17));
        let r = SptrsvPim::new(device.clone()).run(&t, &b).expect("sptrsv");
        rows.push(cal_row("SpTRSV", class, model.sptrsv(&t, p), &r.run));
    }

    let blas = Blas1Pim::new(device, p);
    for n in [512usize, 4096] {
        let x = gen::dense_vector(n, 1);
        let y = gen::dense_vector(n, 2);
        let class = if n < 1024 {
            "dense-small"
        } else {
            "dense-large"
        };
        let r = blas.daxpy(1.5, &x, &y).expect("daxpy");
        rows.push(cal_row("AXPY", class, model.axpy(n, p), &r.run));
        let r = blas.dscal(0.5, &x).expect("dscal");
        rows.push(cal_row("SCAL", class, model.scal(n, p), &r.run));
        let r = blas.dvdv(&x, &y, BinaryOp::Mul).expect("dvdv");
        rows.push(cal_row("VV", class, model.vv(n, p), &r.run));
        let r = blas.ddot(&x, &y).expect("ddot");
        rows.push(cal_row("DOT", class, model.dot(n, p), &r.run));
        let r = blas.dnrm2(&x).expect("dnrm2");
        rows.push(cal_row("NRM2", class, model.norm2(n, p), &r.run));
    }

    println!("# calibration (analytical estimate vs cycle engine)");
    println!("# kernel\tclass\test\tactual\terr%");
    for r in &rows {
        println!(
            "{}\t{}\t{}\t{}\t{:+.1}",
            r.kernel, r.class, r.est_cycles, r.actual_cycles, r.err_pct
        );
    }

    let mut mape = Vec::new();
    for kernel in ["SpMV", "SpTRSV", "AXPY", "SCAL", "VV", "DOT", "NRM2"] {
        let errs: Vec<f64> = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| r.err_pct.abs())
            .collect();
        let mape_pct = errs.iter().sum::<f64>() / errs.len() as f64;
        let ok = mape_pct <= MAPE_BOUND_PCT;
        println!("MAPE\t{kernel}\t{mape_pct:.1}%\t(bound {MAPE_BOUND_PCT}%)");
        if !ok {
            println!(
                "calibration\tVIOLATION\t{kernel} MAPE {mape_pct:.1}% exceeds {MAPE_BOUND_PCT}%"
            );
            *violations += 1;
        }
        mape.push(MapeRow {
            kernel,
            mape_pct,
            ok,
        });
    }
    (rows, mape)
}

fn main() {
    let mut violations = 0usize;

    let selftests = run_selftests(&mut violations);
    let (fingerprints, fingerprint_mismatches) = run_fingerprints(&mut violations);
    let (calibration, mape) = run_calibration(&mut violations);

    let report = FastpathReport {
        selftests,
        fingerprints,
        fingerprint_mismatches,
        calibration,
        mape,
        mape_bound_pct: MAPE_BOUND_PCT,
        violations,
    };
    let json = report.to_json();
    let path = "results/BENCH_fastpath.json";
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, format!("{json}\n")))
    {
        eprintln!("psim-fastpath: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("psim-fastpath: wrote {path}");

    if violations > 0 {
        eprintln!("psim-fastpath: {violations} gate violation(s)");
        std::process::exit(1);
    }
    println!("psim-fastpath: engine matches its fingerprints, estimates calibrated");
}
