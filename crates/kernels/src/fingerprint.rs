//! Engine fingerprints: the exact behaviour of the cycle engine, pinned.
//!
//! A fixed 14-kernel battery (SpMV, a width-3 SpMM, SpTRSV, the BLAS-1
//! family, GATHER / SCATTER, the sparse BLAS-1 pair and DGEMV) runs on two
//! device shapes in both execution modes:
//!
//! * `psync_1x+validate` — the full 256-bank device with the independent
//!   protocol checker attached;
//! * `tiny(2)+trace` — a small device with psim-trace attribution on.
//!
//! A run's fingerprint is its serialized [`KernelRun`] (cycles, commands,
//! energy, attribution, checker findings, metrics when tracing) plus the
//! raw bits of every numeric output. The committed golden
//! `tests/goldens/engine_fingerprints.json` stores, per (kernel, device,
//! mode), the DRAM cycles and a 64-bit FNV-1a hash of that fingerprint, so
//! any change to timing, command accounting, attribution or values shows
//! up as a named mismatch. The golden was blessed from the original
//! command-by-command reference engine; re-bless after an intentional
//! model change with `PSIM_BLESS=1` and review the diff.

use crate::blas1::Blas1Pim;
use crate::gemv::Gemv;
use crate::{KernelRun, PimDevice, SpmmPim, SpmvPim, SptrsvPim};
use psim_sparse::dense::SparseVec;
use psim_sparse::triangular::{unit_triangular_from, Triangle};
use psim_sparse::{gen, Precision};
use psyncpim_core::isa::BinaryOp;
use psyncpim_core::ExecMode;
use serde::Serialize;
use std::path::Path;

/// Run every battery kernel on `device` over fixed operands (a 96-row
/// R-MAT matrix of degree 4, its lower unit triangle, dense and sparse
/// vectors, a 24 × 20 dense matrix), returning each kernel's name, run
/// report and numeric outputs.
///
/// # Panics
///
/// Panics if a kernel fails to run (the battery's operands are valid).
fn battery(device: &PimDevice) -> Vec<(&'static str, KernelRun, Vec<f64>)> {
    let n = 96;
    let a = gen::rmat(n, 4, 0xA11CE);
    let x = gen::dense_vector(n, 1);
    let y = gen::dense_vector(n, 2);
    let t = unit_triangular_from(&a, Triangle::Lower).expect("square matrix");
    let src: Vec<f64> = (0..n).map(|i| if i % 7 == 0 { 0.5 } else { 0.0 }).collect();
    let sp = SparseVec::gather(&src);
    let (nr, nc) = (24, 20);
    let blas = Blas1Pim::new(device.clone(), Precision::Fp64);
    let spmv = SpmvPim::new(device.clone(), Precision::Fp64).run(&a, &x);
    let spmm = SpmmPim::new(device.clone(), Precision::Fp64)
        .run(&a, &[x.clone(), y.clone(), gen::dense_vector(n, 5)]);
    let sptrsv = SptrsvPim::new(device.clone()).run(&t, &t.matvec(&x));
    let gemv = Gemv::new(device.clone(), Precision::Fp64).dgemv(
        &gen::dense_vector(nr * nc, 3),
        nr,
        nc,
        &gen::dense_vector(nc, 4),
    );
    let vector = |r: Result<crate::blas1::VecRun, _>| r.map(|r| (r.run, r.v));
    let scalar = |r: Result<crate::blas1::ScalarRun, _>| r.map(|r| (r.run, vec![r.s]));
    let runs = [
        ("SpMV", spmv.map(|r| (r.run, r.y))),
        ("SpMM", spmm.map(|r| (r.run, r.ys.concat()))),
        ("SpTRSV", sptrsv.map(|r| (r.run, r.x))),
        ("DCOPY", vector(blas.dcopy(&x))),
        ("DSCAL", vector(blas.dscal(1.5, &x))),
        ("DAXPY", vector(blas.daxpy(-0.5, &x, &y))),
        ("DVDV", vector(blas.dvdv(&x, &y, BinaryOp::Mul))),
        ("DDOT", scalar(blas.ddot(&x, &y))),
        ("DNRM2", scalar(blas.dnrm2(&x))),
        (
            "GATHER",
            blas.gather(&src).map(|(_, run)| (run, Vec::new())),
        ),
        ("SCATTER", vector(blas.scatter(&sp, &vec![0.0; n]))),
        ("SpAXPY", vector(blas.spaxpy(2.0, &sp, &y))),
        ("SpDOT", scalar(blas.spdot(&sp, &y))),
        ("DGEMV", gemv.map(|r| (r.run, r.y))),
    ];
    runs.into_iter()
        .map(|(name, r)| {
            let (run, vals) = r.unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, run, vals)
        })
        .collect()
}

/// 64-bit FNV-1a: a stable, dependency-free digest for golden files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned battery run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Fingerprint {
    /// Battery kernel name.
    pub kernel: &'static str,
    /// Device shape label.
    pub device: &'static str,
    /// Execution mode label.
    pub mode: &'static str,
    /// The run's DRAM cycles (readable half of the pin).
    pub dram_cycles: u64,
    /// FNV-1a of the full fingerprint, as 16 hex digits.
    pub hash: String,
}

/// Fingerprint every battery kernel on every pinned (device, mode).
#[must_use]
pub fn engine_fingerprints() -> Vec<Fingerprint> {
    let mut full = PimDevice::psync_1x();
    full.validate = true;
    let mut traced = PimDevice::tiny(2);
    traced.validate = true;
    traced.trace = true;
    let mut out = Vec::new();
    for (base, device) in [(full, "psync_1x+validate"), (traced, "tiny(2)+trace")] {
        for (mode, mode_label) in [
            (ExecMode::AllBank, "all-bank"),
            (ExecMode::PerBank, "per-bank"),
        ] {
            let mut d = base.clone();
            d.mode = mode;
            for (kernel, run, vals) in battery(&d) {
                let mut fp = run.to_json();
                for v in &vals {
                    fp.push_str(&format!(",{:x}", v.to_bits()));
                }
                out.push(Fingerprint {
                    kernel,
                    device,
                    mode: mode_label,
                    dram_cycles: run.dram_cycles,
                    hash: format!("{:016x}", fnv1a64(fp.as_bytes())),
                });
            }
        }
    }
    out
}

/// The golden file's text: a JSON array, one fingerprint per line.
fn render(fps: &[Fingerprint]) -> String {
    let rows: Vec<String> = fps.iter().map(Serialize::to_json).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Compare `fps` against the golden at `path` — or, with `PSIM_BLESS`
/// set, rewrite the golden. Returns one message per mismatch (empty when
/// every fingerprint matches), naming the kernel, device, mode and both
/// cycle counts.
///
/// # Errors
///
/// An I/O error reading (or, when blessing, writing) the golden.
pub fn check_golden(path: &Path, fps: &[Fingerprint]) -> std::io::Result<Vec<String>> {
    let got = render(fps);
    if std::env::var_os("PSIM_BLESS").is_some() {
        std::fs::write(path, got)?;
        return Ok(Vec::new());
    }
    let want = std::fs::read_to_string(path)?;
    let want_rows: Vec<&str> = want
        .lines()
        .map(|l| l.trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .collect();
    let mut diffs = Vec::new();
    if want_rows.len() != fps.len() {
        diffs.push(format!(
            "golden has {} fingerprints, the battery produced {}",
            want_rows.len(),
            fps.len()
        ));
    }
    for (fp, want_row) in fps.iter().zip(&want_rows) {
        if fp.to_json() != *want_row {
            diffs.push(format!(
                "{} on {} {}: got {} cycles, hash {}; golden {want_row}",
                fp.kernel, fp.device, fp.mode, fp.dram_cycles, fp.hash
            ));
        }
    }
    Ok(diffs)
}
