//! Runtimes for the `apps` layer, instrumented from outside.
//!
//! [`Timed`] wraps any [`Runtime`] and times each trait call on the host
//! clock, reading the call's simulated seconds from the wrapped runtime's
//! [`Breakdown`]. Wrapped around [`psim_apps::runtime::PimRuntime`] it gives
//! the apps layer's per-kernel host split without touching `crates/apps`.
//!
//! [`KernelRuntime`] executes the same kernels as `PimRuntime` (same
//! constructors, same device) but keeps every call's [`KernelRun`], which
//! the `Runtime` trait does not expose: the exact DRAM cycle count, the
//! command counters and the psim-trace attribution of a whole solve.

use std::time::Instant;

use psim_apps::runtime::{Breakdown, Runtime};
use psim_kernels::blas1::Blas1Pim;
use psim_kernels::{KernelRun, PimDevice, SpmvPim, SptrsvPim};
use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{Coo, Precision};
use psyncpim_core::isa::BinaryOp;

/// Kernel family of a runtime call, matching [`Breakdown`]'s buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `spmv` / `spmv_semiring`.
    Spmv,
    /// `sptrsv`.
    Sptrsv,
    /// Level-1 vector kernels.
    Vector,
}

/// One timed runtime call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Kernel family.
    pub family: Family,
    /// Host seconds the call took.
    pub host_s: f64,
    /// Simulated seconds the call added to the runtime's breakdown.
    pub sim_s: f64,
}

/// A [`Runtime`] that records a [`Call`] per trait call.
#[derive(Debug)]
pub struct Timed<R> {
    /// The runtime doing the work.
    pub inner: R,
    /// Every call so far, in call order.
    pub calls: Vec<Call>,
}

impl<R: Runtime> Timed<R> {
    /// Wrap `inner`.
    pub fn new(inner: R) -> Self {
        Timed {
            inner,
            calls: Vec::new(),
        }
    }

    fn time<T>(&mut self, family: Family, f: impl FnOnce(&mut R) -> T) -> T {
        let before = self.inner.breakdown();
        let start = Instant::now();
        let out = f(&mut self.inner);
        let host_s = start.elapsed().as_secs_f64();
        let sim_s = before.delta(&self.inner.breakdown()).total_s();
        self.calls.push(Call {
            family,
            host_s,
            sim_s,
        });
        out
    }
}

/// Host seconds spent in `calls` of `family`.
#[must_use]
pub fn host_s(calls: &[Call], family: Family) -> f64 {
    calls
        .iter()
        .filter(|c| c.family == family)
        .map(|c| c.host_s)
        .sum()
}

impl<R: Runtime> Runtime for Timed<R> {
    fn spmv(&mut self, a: &Coo, x: &[f64]) -> Vec<f64> {
        self.time(Family::Spmv, |rt| rt.spmv(a, x))
    }

    fn spmv_semiring(&mut self, a: &Coo, x: &[f64], mul: BinaryOp, acc: BinaryOp) -> Vec<f64> {
        self.time(Family::Spmv, |rt| rt.spmv_semiring(a, x, mul, acc))
    }

    fn sptrsv(&mut self, t: &UnitTriangular, b: &[f64]) -> Vec<f64> {
        self.time(Family::Sptrsv, |rt| rt.sptrsv(t, b))
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut Vec<f64>) {
        self.time(Family::Vector, |rt| rt.axpy(a, x, y));
    }

    fn scal(&mut self, a: f64, x: &mut Vec<f64>) {
        self.time(Family::Vector, |rt| rt.scal(a, x));
    }

    fn vv(&mut self, x: &[f64], y: &[f64], op: BinaryOp) -> Vec<f64> {
        self.time(Family::Vector, |rt| rt.vv(x, y, op))
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.time(Family::Vector, |rt| rt.dot(x, y))
    }

    fn norm2(&mut self, x: &[f64]) -> f64 {
        self.time(Family::Vector, |rt| rt.norm2(x))
    }

    fn breakdown(&self) -> Breakdown {
        self.inner.breakdown()
    }
}

/// A [`Runtime`] over the kernels that keeps their merged [`KernelRun`].
#[derive(Debug, Clone)]
pub struct KernelRuntime {
    device: PimDevice,
    precision: Precision,
    times: Breakdown,
    /// Every call's kernel accounting, merged in call order.
    pub run: KernelRun,
}

impl KernelRuntime {
    /// Runtime on `device` at `precision`.
    #[must_use]
    pub fn new(device: PimDevice, precision: Precision) -> Self {
        KernelRuntime {
            device,
            precision,
            times: Breakdown::default(),
            run: KernelRun::default(),
        }
    }

    fn blas(&self) -> Blas1Pim {
        Blas1Pim::new(self.device.clone(), self.precision)
    }

    fn charge(&mut self, family: Family, run: &KernelRun) {
        let slot = match family {
            Family::Spmv => &mut self.times.spmv_s,
            Family::Sptrsv => &mut self.times.sptrsv_s,
            Family::Vector => &mut self.times.vector_s,
        };
        *slot += run.total_s();
        self.run.merge(run);
    }
}

impl Runtime for KernelRuntime {
    fn spmv(&mut self, a: &Coo, x: &[f64]) -> Vec<f64> {
        self.spmv_semiring(a, x, BinaryOp::Mul, BinaryOp::Add)
    }

    fn spmv_semiring(&mut self, a: &Coo, x: &[f64], mul: BinaryOp, acc: BinaryOp) -> Vec<f64> {
        let r = SpmvPim::with_semiring(self.device.clone(), self.precision, mul, acc)
            .run(a, x)
            .expect("pim spmv");
        self.charge(Family::Spmv, &r.run);
        r.y
    }

    fn sptrsv(&mut self, t: &UnitTriangular, b: &[f64]) -> Vec<f64> {
        let mut solver = SptrsvPim::new(self.device.clone());
        solver.precision = self.precision;
        let r = solver.run(t, b).expect("pim sptrsv");
        self.charge(Family::Sptrsv, &r.run);
        r.x
    }

    fn axpy(&mut self, a: f64, x: &[f64], y: &mut Vec<f64>) {
        let r = self.blas().daxpy(a, x, y).expect("pim daxpy");
        self.charge(Family::Vector, &r.run);
        *y = r.v;
    }

    fn scal(&mut self, a: f64, x: &mut Vec<f64>) {
        let r = self.blas().dscal(a, x).expect("pim dscal");
        self.charge(Family::Vector, &r.run);
        *x = r.v;
    }

    fn vv(&mut self, x: &[f64], y: &[f64], op: BinaryOp) -> Vec<f64> {
        let r = self.blas().dvdv(x, y, op).expect("pim dvdv");
        self.charge(Family::Vector, &r.run);
        r.v
    }

    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        let r = self.blas().ddot(x, y).expect("pim ddot");
        self.charge(Family::Vector, &r.run);
        r.s
    }

    fn norm2(&mut self, x: &[f64]) -> f64 {
        let r = self.blas().dnrm2(x).expect("pim dnrm2");
        self.charge(Family::Vector, &r.run);
        r.s
    }

    fn breakdown(&self) -> Breakdown {
        self.times
    }
}
