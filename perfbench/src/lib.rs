//! perfbench: the repository benchmark.
//!
//! Four workloads drive the simulator's public API from outside and report
//! two clocks: *host* time (how fast the simulator and its service run)
//! and *simulated* time (what the modelled pSyncPIM device would take).
//! Every output is checked against a CPU reference outside the timed
//! region. See `README.md` for the workloads, the metric definitions and
//! which end-to-end metric each per-layer metric should move.

pub mod large;
pub mod pcg;
mod probe;
pub mod serve;
mod stats;
mod timed;

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use psim_kernels::PimDevice;
use psyncpim_core::EngineTier;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether both lists hold the same names, units and bit-identical
    /// values, in the same order.
    #[must_use]
    pub fn same_bits(&self, other: &Metrics) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| {
                a.name == b.name && a.unit == b.unit && a.value.to_bits() == b.value.to_bits()
            })
    }

    /// Look a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Settings and sample-size lines for the output header.
    pub notes: Vec<String>,
    /// Operations attempted (jobs, kernel calls or solves).
    pub attempted: u64,
    /// Operations that errored, broke protocol or returned a wrong value.
    pub failed: u64,
    /// Set when a simulated statistic differed between repetitions of the
    /// same input — the simulator must be a pure function of its input.
    pub nondeterministic: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
}

impl Outcome {
    /// Record `attempted` operations of which `failed` went wrong.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// A device with every environment-dependent setting pinned: the event
/// engine tier (so `PSIM_ENGINE` cannot change what is measured),
/// protocol validation on and psim-trace attribution as requested.
#[must_use]
pub fn pinned(mut device: PimDevice, trace: bool) -> PimDevice {
    device.tier = EngineTier::Event;
    device.validate = true;
    device.trace = trace;
    device
}

/// Threads issuing the calls of `spmv_large` and the solves of
/// `solve_pcg`, each taking the next operation as it frees up (capped at
/// the machine's core count).
pub const CLIENTS: usize = 2;

/// Host threads a workload may use: never more than the machine has.
#[must_use]
pub fn host_threads(limit: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(limit)
        .max(1)
}

/// Run `pass` repeatedly until `budget` has elapsed (at least once).
pub fn repeat_for(budget: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Run operations `0..n` on `workers` threads (the calling thread is one
/// of them), each thread taking the next untaken index, and time each
/// operation on the thread that runs it. Returns every output with its
/// host seconds, in index order, and the wall time of the whole batch.
///
/// Taking work as it frees up spreads it over the host's cores by their
/// current speed: on a shared host one core can run far slower than the
/// other for seconds at a time, and a single thread would sit on it.
///
/// # Panics
///
/// Panics when an operation panics.
pub fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    op: impl Fn(usize) -> T + Sync,
) -> (Vec<(T, f64)>, f64) {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break done;
            }
            let t = Instant::now();
            let out = op(i);
            done.push((i, out, t.elapsed().as_secs_f64()));
        }
    };
    let start = Instant::now();
    let mut done = std::thread::scope(|s| {
        let others: Vec<_> = (1..workers.max(1)).map(|_| s.spawn(worker)).collect();
        let mut all = worker();
        for h in others {
            all.extend(h.join().expect("an operation panicked"));
        }
        all
    });
    let wall_s = start.elapsed().as_secs_f64();
    done.sort_by_key(|d| d.0);
    (
        done.into_iter().map(|(_, out, s)| (out, s)).collect(),
        wall_s,
    )
}

/// Calibration time of the reference host, seconds. Host-clock metrics
/// are reported in seconds of a host on which [`calibrate`] takes this
/// long: a run's host times are scaled by `CAL_REF_S / c`, where `c` is
/// the median of the calibrations timed before each of its passes.
///
/// On a shared host the machine's speed drifts by a third over minutes,
/// as other tenants' work comes and goes, and every raw host time drifts
/// with it. The calibration kernel drifts the same way, so the scaled
/// times follow the program and not the host's load. A change that makes
/// the program slower still shows in full: the kernel does not move.
pub const CAL_REF_S: f64 = 0.1;

/// Words per thread in the calibration buffer (64 MiB): more than a
/// server's last-level cache, so the kernel waits on shared caches and
/// memory the way the large workloads do.
const CAL_WORDS: usize = 1 << 23;

/// Random read-modify-write steps per thread of the calibration kernel.
const CAL_STEPS: usize = 1 << 21;

/// The calibration kernel: fill a [`CAL_WORDS`] buffer and make
/// [`CAL_STEPS`] dependent random read-modify-writes in it, on each of
/// `workers` threads at once. Returns its wall seconds.
#[must_use]
pub fn calibration_kernel(workers: usize) -> f64 {
    let (_, wall_s) = fan_out(workers, workers, |w| {
        let mut buf: Vec<u64> = (0..CAL_WORDS as u64).collect();
        let mut x = 0x2545_F491_4F6C_DD1D_u64 ^ w as u64;
        let mut acc = 0u64;
        for _ in 0..CAL_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (CAL_WORDS - 1);
            let v = buf[i];
            acc = if v & 1 == 0 {
                acc.wrapping_add(v)
            } else {
                acc ^ v.rotate_left(7)
            };
            buf[i] = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ acc;
        }
        std::hint::black_box(acc)
    });
    wall_s
}

/// How fast the host runs right now: the wall seconds of
/// [`calibration_kernel`] on `workers` threads. It runs in a child process
/// (this executable with `--calibrate <workers>`), so that its buffers
/// stay out of this process's peak resident set; the child has ended when
/// this returns.
///
/// # Panics
///
/// Panics when the child cannot be started or fails.
#[must_use]
pub fn calibrate(workers: usize) -> f64 {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let out = Command::new(exe)
        .args(["--calibrate", &workers.to_string()])
        .output()
        .expect("the calibration child starts");
    assert!(out.status.success(), "the calibration child failed");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the calibration child prints its seconds")
}

/// Time `reps` calls of `f`, appending each wall time in seconds to
/// `times`.
pub fn push_times(times: &mut Vec<f64>, reps: usize, mut f: impl FnMut()) {
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_time(reps: usize, f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    push_times(&mut times, reps.max(1), f);
    stats::median(times)
}

/// Relative-error check used for every value comparison against a CPU
/// reference (PIM and host sum in different orders).
#[must_use]
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Element-wise [`close`] over two vectors of equal length.
#[must_use]
pub fn all_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| close(*g, *w))
}

#[cfg(test)]
mod tests {
    use super::fan_out;

    #[test]
    fn calibration_kernel_takes_time() {
        assert!(super::calibration_kernel(1) > 0.0);
    }

    #[test]
    fn fan_out_returns_outputs_in_index_order() {
        for workers in [1, 2, 3] {
            let (done, wall_s) = fan_out(10, workers, |i| i * i);
            let outputs: Vec<usize> = done.iter().map(|(out, _)| *out).collect();
            assert_eq!(outputs, (0..10).map(|i| i * i).collect::<Vec<_>>());
            assert!(done.iter().all(|(_, s)| *s >= 0.0 && *s <= wall_s));
        }
    }
}
