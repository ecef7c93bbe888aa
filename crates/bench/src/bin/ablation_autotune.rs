//! ablation-autotune: the format/partition autotuner CI gate.
//!
//! Sweeps the benchmark suite (rmat, banded FEM, web hubs, layered DAG)
//! plus the adversarial corpus across the fixed layout grid
//! ([`psim_kernels::layout_grid`]) and the [`psim_tune::Autotuner`]'s
//! per-matrix choice, with full cycle simulation and validation on. Four
//! gates:
//!
//! 1. **Oracle** — [`run_layout_oracle`] (every layout × adversarial
//!    shape against the CPU reference) passes.
//! 2. **Correctness per execution** — every simulated run here (fixed or
//!    tuned) matches the CPU reference to 1e-9 and passes [`audit_run`].
//! 3. **Tuning wins** — the geomean of the tuned choice's simulated
//!    cycles over the whole corpus is no worse than the best *single*
//!    fixed configuration.
//! 4. **Model fidelity** — on layout pairs the simulator separates by at
//!    least [`RANK_SEPARATION`], the analytical model's ordering agrees
//!    with the simulated ordering at least [`RANK_AGREEMENT_FLOOR`] of
//!    the time (the tuner's tie-breaker has to be trustworthy).
//!
//! Writes `results/BENCH_autotune.json`; exits non-zero on any gate
//! failure.

use psim_kernels::{audit_run, layout_grid, run_layout_oracle, CostModel, PimDevice, SpmvPim};
use psim_sparse::{adversarial, gen, Coo, Layout, Precision};
use psim_tune::Autotuner;
use serde::Serialize;

use psim_bench::geomean;

/// Pairs closer than this (relative simulated-cycle gap) are ties the
/// model is free to order either way.
const RANK_SEPARATION: f64 = 0.05;

/// Minimum pairwise rank agreement between analytical and simulated
/// cycles on separated pairs.
const RANK_AGREEMENT_FLOOR: f64 = 0.90;

/// One layout's outcome on one matrix.
#[derive(Serialize)]
struct LayoutCell {
    label: String,
    sim_cycles: u64,
    model_cycles: u64,
}

/// One corpus matrix with its sweep.
#[derive(Serialize)]
struct MatrixRow {
    name: String,
    n: usize,
    nnz: usize,
    tuned_label: String,
    tuned_cycles: u64,
    best_fixed_cycles: u64,
    fixed: Vec<LayoutCell>,
}

/// Geomean of one fixed configuration over the corpus.
#[derive(Serialize)]
struct ConfigGeomean {
    label: String,
    geomean_cycles: f64,
}

#[derive(Serialize)]
struct AutotuneReport {
    corpus: Vec<MatrixRow>,
    fixed: Vec<ConfigGeomean>,
    best_fixed_label: String,
    best_fixed_geomean: f64,
    tuned_geomean: f64,
    tuned_vs_best_fixed: f64,
    rank_pairs: usize,
    rank_agreements: usize,
    rank_agreement: f64,
    /// Layout-oracle cases run (gate 1).
    oracle_cases: usize,
    violations: usize,
}

/// The corpus: the benchmark suite's four pattern families at a bench
/// scale plus every adversarial shape.
fn corpus(n: usize) -> Vec<(String, Coo)> {
    let mut out = vec![
        ("rmat".to_string(), gen::rmat(n, 4, 1)),
        ("banded_fem".to_string(), gen::banded_fem(n, 8, 5, 2)),
        ("web_hubs".to_string(), gen::web_hubs(n, n * 4, 3)),
        ("layered_dag".to_string(), gen::layered_dag(n, 4, 6, 4)),
    ];
    for (name, a) in adversarial::suite(n, 7) {
        out.push((name.to_string(), a));
    }
    out
}

/// Simulate one layout, gate correctness, return cycles.
fn simulate(
    device: &PimDevice,
    a: &Coo,
    x: &[f64],
    reference: &[f64],
    layout: Layout,
    tag: &str,
    violations: &mut usize,
) -> u64 {
    let mut dev = device.clone();
    dev.validate = true;
    let r = SpmvPim::new(dev, Precision::Fp64)
        .with_layout(layout)
        .run(a, x)
        .unwrap_or_else(|e| panic!("{tag}: simulation failed: {e}"));
    for failure in audit_run(&r.run) {
        println!("audit\tVIOLATION\t{tag}: {failure}");
        *violations += 1;
    }
    let worst =
        r.y.iter()
            .zip(reference)
            .map(|(got, want)| (got - want).abs() / want.abs().max(1.0))
            .fold(0.0f64, f64::max);
    if worst > 1e-9 {
        println!("oracle\tVIOLATION\t{tag}: diff {worst:.2e} vs CPU reference");
        *violations += 1;
    }
    r.run.dram_cycles
}

fn main() {
    let n = 96usize;
    let device = PimDevice::tiny(2);
    let mut violations = 0usize;

    // --- gate 1: the layout × adversarial-shape oracle ----------------
    let report = run_layout_oracle(&device, 48, 0xA070).expect("layout oracle must run");
    let oracle_cases = report.cases.len();
    for case in report.cases.iter().filter(|c| !c.pass) {
        println!(
            "oracle\tVIOLATION\t{} {}: err {:.2e} (tol {:.0e}), audit: {}",
            case.kernel,
            case.matrix,
            case.max_err,
            case.tolerance,
            case.audit.join("; ")
        );
        violations += 1;
    }
    println!("oracle\t{oracle_cases} layout cases");

    // --- gates 2-4: the ablation sweep ---------------------------------
    let grid = layout_grid();
    let model = CostModel::new(&device);
    let tuner = Autotuner::new(&device);
    let mut rows = Vec::new();
    let (mut rank_pairs, mut rank_agreements) = (0usize, 0usize);
    for (name, a) in corpus(n) {
        let x = gen::dense_vector(a.ncols(), 11);
        let reference = a.spmv(&x);
        let mut fixed = Vec::new();
        for &layout in &grid {
            let label = layout.label();
            let sim = simulate(
                &device,
                &a,
                &x,
                &reference,
                layout,
                &format!("{name} {label}"),
                &mut violations,
            );
            let model_cycles = model.spmv_layout(&a, Precision::Fp64, layout).cycles;
            fixed.push(LayoutCell {
                label,
                sim_cycles: sim,
                model_cycles,
            });
        }
        // Pairwise rank agreement on separated pairs.
        for i in 0..fixed.len() {
            for j in i + 1..fixed.len() {
                let (si, sj) = (fixed[i].sim_cycles as f64, fixed[j].sim_cycles as f64);
                if (si - sj).abs() / si.min(sj).max(1.0) < RANK_SEPARATION {
                    continue;
                }
                rank_pairs += 1;
                let (mi, mj) = (fixed[i].model_cycles, fixed[j].model_cycles);
                if (si < sj) == (mi < mj) {
                    rank_agreements += 1;
                }
            }
        }
        let decision = tuner.decide(&a, Precision::Fp64);
        let tuned_label = decision.label.clone();
        let tuned_cycles = simulate(
            &device,
            &a,
            &x,
            &reference,
            decision.choice,
            &format!("{name} tuned:{tuned_label}"),
            &mut violations,
        );
        let best_fixed_cycles = fixed.iter().map(|c| c.sim_cycles).min().unwrap_or(0);
        println!(
            "tune\t{name}\t{tuned_label}\t{tuned_cycles} cycles (best fixed {best_fixed_cycles})"
        );
        rows.push(MatrixRow {
            name,
            n: a.nrows(),
            nnz: a.nnz(),
            tuned_label,
            tuned_cycles,
            best_fixed_cycles,
            fixed,
        });
    }

    // Per-configuration geomeans over the corpus.
    let mut fixed_geo = Vec::new();
    for (i, layout) in grid.iter().enumerate() {
        let cycles: Vec<f64> = rows.iter().map(|r| r.fixed[i].sim_cycles as f64).collect();
        fixed_geo.push(ConfigGeomean {
            label: layout.label(),
            geomean_cycles: geomean(&cycles),
        });
    }
    let tuned_cycles: Vec<f64> = rows.iter().map(|r| r.tuned_cycles as f64).collect();
    let tuned_geomean = geomean(&tuned_cycles);
    let best = fixed_geo
        .iter()
        .min_by(|a, b| a.geomean_cycles.total_cmp(&b.geomean_cycles))
        .expect("non-empty grid");
    let (best_fixed_label, best_fixed_geomean) = (best.label.clone(), best.geomean_cycles);
    for cfg in &fixed_geo {
        println!("geomean\t{}\t{:.1}", cfg.label, cfg.geomean_cycles);
    }
    println!("geomean\ttuned\t{tuned_geomean:.1}\t(best fixed: {best_fixed_label} {best_fixed_geomean:.1})");
    // Strict inequality up to floating-point geomean noise: the tuner may
    // tie the best fixed config but must never lose to it.
    if tuned_geomean > best_fixed_geomean * (1.0 + 1e-9) {
        println!(
            "tune\tVIOLATION\ttuned geomean {tuned_geomean:.1} worse than fixed {best_fixed_label} {best_fixed_geomean:.1}"
        );
        violations += 1;
    }

    let rank_agreement = if rank_pairs == 0 {
        1.0
    } else {
        rank_agreements as f64 / rank_pairs as f64
    };
    println!(
        "rank\t{rank_agreements}/{rank_pairs} separated pairs agree ({:.1}%, floor {:.0}%)",
        rank_agreement * 100.0,
        RANK_AGREEMENT_FLOOR * 100.0
    );
    if rank_agreement < RANK_AGREEMENT_FLOOR {
        println!(
            "rank\tVIOLATION\tanalytical/simulated rank agreement {:.1}% below {:.0}%",
            rank_agreement * 100.0,
            RANK_AGREEMENT_FLOOR * 100.0
        );
        violations += 1;
    }

    let report = AutotuneReport {
        corpus: rows,
        fixed: fixed_geo,
        best_fixed_label,
        best_fixed_geomean,
        tuned_geomean,
        tuned_vs_best_fixed: tuned_geomean / best_fixed_geomean,
        rank_pairs,
        rank_agreements,
        rank_agreement,
        oracle_cases,
        violations,
    };
    let json = report.to_json();
    let path = "results/BENCH_autotune.json";
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, format!("{json}\n")))
    {
        eprintln!("ablation-autotune: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("ablation-autotune: wrote {path}");

    if violations > 0 {
        eprintln!("ablation-autotune: {violations} gate violation(s)");
        std::process::exit(1);
    }
    println!("ablation-autotune: tuned layouts win, every execution verified");
}
