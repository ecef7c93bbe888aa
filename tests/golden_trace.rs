//! Golden-trace snapshot tests for psim-trace cycle attribution.
//!
//! Three small fixed matrices (banded FEM, R-MAT, diagonal-plus-subdiag)
//! run SpMV and SpTRSV on a traced tiny device, and the resulting per-PU
//! stall-breakdown vectors are compared *exactly* — serialized JSON string
//! equality — against checked-in goldens under `tests/goldens/`. Any
//! change to the timing model, the lockstep loop, or the attribution
//! cursors shows up as a diff in these files.
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! PSIM_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! then review the golden diffs like any other code change.

use psyncpim::core::{ChannelMetrics, CycleBreakdown};
use psyncpim::kernels::fingerprint;
use psyncpim::kernels::{KernelRun, PimDevice, SpmvPim, SptrsvPim};
use psyncpim::sparse::level::reorder_to_lower;
use psyncpim::sparse::triangular::{unit_triangular_from, Triangle};
use psyncpim::sparse::{gen, Coo, Entry, Precision};
use serde::Serialize;
use std::path::PathBuf;

/// What a golden file pins down: the run's wall-clock, its bus-view
/// attribution, and the exact per-PU breakdown of every channel.
#[derive(Serialize)]
struct GoldenTrace {
    kernel: &'static str,
    matrix: &'static str,
    dram_cycles: u64,
    attr: CycleBreakdown,
    channels: Vec<ChannelMetrics>,
}

fn traced_tiny() -> PimDevice {
    let mut dev = PimDevice::tiny(2);
    dev.trace = true;
    dev
}

/// The three fixed fixtures. Small enough that goldens stay reviewable,
/// shaped differently enough to exercise different stall mixes: the band
/// is balanced, the R-MAT is skewed (queue-empty stalls on light banks),
/// the diagonal chain is SpTRSV's worst case (one level per row).
fn fixtures() -> Vec<(&'static str, Coo)> {
    let banded = gen::banded_fem(24, 2, 3, 5);
    let rmat = gen::rmat(32, 2, 3);
    let mut entries = Vec::new();
    for i in 0..24u32 {
        entries.push(Entry::new(i, i, 2.0 + f64::from(i)));
        if i > 0 {
            entries.push(Entry::new(i, i - 1, 1.0));
        }
    }
    let diag = Coo::from_entries(24, 24, entries).unwrap();
    vec![("banded", banded), ("rmat", rmat), ("diag", diag)]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(format!("{name}.json"))
}

/// Compare against (or, under `PSIM_BLESS=1`, rewrite) a golden file.
fn check_golden(kernel: &'static str, matrix: &'static str, run: &KernelRun) {
    let metrics = run.metrics.as_ref().expect("tracing enabled");
    assert!(
        metrics.conservation_failures().is_empty(),
        "{kernel}/{matrix}: {:?}",
        metrics.conservation_failures()
    );
    assert_eq!(
        run.attr.total(),
        run.dram_cycles,
        "{kernel}/{matrix}: wall attribution must cover every cycle"
    );
    let golden = GoldenTrace {
        kernel,
        matrix,
        dram_cycles: run.dram_cycles,
        attr: run.attr,
        channels: metrics.channels.clone(),
    };
    let actual = golden.to_json();
    let path = golden_path(&format!("{kernel}_{matrix}"));
    if std::env::var_os("PSIM_BLESS").is_some() {
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with PSIM_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        want.trim_end(),
        actual,
        "{kernel}/{matrix}: trace diverged from {} (rerun with PSIM_BLESS=1 if intentional)",
        path.display()
    );
}

#[test]
fn spmv_stall_breakdowns_match_goldens() {
    for (name, a) in fixtures() {
        let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let res = SpmvPim::new(traced_tiny(), Precision::Fp64)
            .run(&a, &x)
            .expect("spmv");
        // The golden is a trace snapshot, not a correctness oracle — still
        // assert the numerics so a golden can never bless a wrong result.
        let want = a.spmv(&x);
        for (i, (g, w)) in res.y.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9 * w.abs().max(1.0), "{name} row {i}");
        }
        check_golden("spmv", name, &res.run);
    }
}

#[test]
fn sptrsv_stall_breakdowns_match_goldens() {
    for (name, a) in fixtures() {
        let t = unit_triangular_from(&a, Triangle::Lower).unwrap();
        let b = gen::dense_vector(t.dim(), 11);
        let want = t.solve_colwise(&b).unwrap();
        let (reordered, perm) = reorder_to_lower(&t);
        let pb: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
        let res = SptrsvPim::new(traced_tiny())
            .run(&reordered, &pb)
            .expect("sptrsv");
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                (res.x[new] - want[old]).abs() < 1e-8 * want[old].abs().max(1.0),
                "{name} row {old}"
            );
        }
        check_golden("sptrsv", name, &res.run);
    }
}

#[test]
fn golden_runs_are_reproducible() {
    // The snapshot contract only makes sense if two runs of the same
    // fixture produce bit-identical registries.
    let (_, a) = fixtures().remove(1);
    let x: Vec<f64> = (0..a.ncols()).map(|i| 1.0 + (i % 7) as f64).collect();
    let r1 = SpmvPim::new(traced_tiny(), Precision::Fp64)
        .run(&a, &x)
        .unwrap();
    let r2 = SpmvPim::new(traced_tiny(), Precision::Fp64)
        .run(&a, &x)
        .unwrap();
    assert_eq!(r1.run.metrics, r2.run.metrics);
    assert_eq!(r1.run.attr, r2.run.attr);
}

#[test]
fn engine_fingerprints_match_golden() {
    // 14 kernels x {psync_1x+validate, tiny(2)+trace} x {AllBank, PerBank}:
    // every cycle, command count, attribution vector and output bit of the
    // engine, pinned (see `psim_kernels::fingerprint`).
    let fps = fingerprint::engine_fingerprints();
    let path = golden_path("engine_fingerprints");
    let diffs = fingerprint::check_golden(&path, &fps).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with PSIM_BLESS=1",
            path.display()
        )
    });
    assert!(
        diffs.is_empty(),
        "engine diverged from {}:\n{}",
        path.display(),
        diffs.join("\n")
    );
}
