//! The simulated half of the service workloads is a pure function of the
//! seed: repeated drains and drains at different host-thread counts give
//! bit-identical `sim_*`, `sched.*` (simulated) and `dram.*` values.

use perfbench::host_threads;
use perfbench::serve::{drain, sim_metrics, ServeSpec, SHARDS};

fn check(make: fn(usize, usize) -> ServeSpec) {
    let jobs = 600;
    let serial = drain(&make(jobs, 1), 7, false);
    assert_eq!(serial.failed, 0, "every job must match its CPU reference");
    assert_eq!(serial.attempted, jobs as u64);
    let first = sim_metrics(&serial);
    let again = sim_metrics(&drain(&make(jobs, 1), 7, false));
    assert!(first.same_bits(&again), "repeated drains differ");
    // At least two threads, even on a one-core machine, so the parallel
    // lane path runs.
    let threads = host_threads(SHARDS).max(2);
    let parallel = drain(&make(jobs, threads), 7, false);
    assert_eq!(parallel.failed, 0);
    assert!(
        first.same_bits(&sim_metrics(&parallel)),
        "1 vs {threads} host threads differ"
    );
    let other_seed = sim_metrics(&drain(&make(jobs, 1), 8, false));
    assert!(
        !first.same_bits(&other_seed),
        "the seed must change the trace"
    );
}

#[test]
fn serve_fused_is_reproducible_across_runs_and_threads() {
    check(ServeSpec::fused);
}

#[test]
fn serve_mixed_is_reproducible_across_runs_and_threads() {
    check(ServeSpec::mixed);
}
