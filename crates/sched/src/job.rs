//! Job descriptions: what a tenant asks the device to do.
//!
//! A [`JobSpec`] names the tenant, a deadline [`JobClass`], the element
//! [`Precision`] and the requested operation ([`JobKind`]). Matrices are
//! held behind [`std::sync::Arc`] (see [`MatrixStore`]) so many queued jobs
//! can reference the same operand without cloning megabytes per job.

use std::collections::HashMap;
use std::sync::Arc;

use psim_conc::Mutex;

use psim_sparse::triangular::UnitTriangular;
use psim_sparse::{Coo, Precision};
use psyncpim_core::isa::BinaryOp;
use serde::{Deserialize, Serialize};

/// Monotonically increasing job identifier (assigned at submission).
pub type JobId = u64;

/// Deadline class, in strictly decreasing scheduling priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Latency-sensitive: always served before lower classes.
    Interactive,
    /// Default throughput class.
    Batch,
    /// Served only when nothing else is waiting.
    BestEffort,
}

impl JobClass {
    /// All classes in scheduling-priority order.
    pub const ALL: [JobClass; 3] = [JobClass::Interactive, JobClass::Batch, JobClass::BestEffort];

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Batch => "batch",
            JobClass::BestEffort => "best-effort",
        }
    }
}

/// The requested operation.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// `y = A x` over an arbitrary `(mul, acc)` semiring; arithmetic SpMV
    /// uses `(Mul, Add)`.
    Spmv {
        /// The matrix.
        a: Arc<Coo>,
        /// The dense operand.
        x: Vec<f64>,
        /// Semiring multiply.
        mul: BinaryOp,
        /// Semiring accumulate.
        acc: BinaryOp,
    },
    /// Solve `T x = b` for unit triangular `T`.
    Sptrsv {
        /// The triangular factor.
        t: Arc<UnitTriangular>,
        /// Right-hand side.
        b: Vec<f64>,
    },
    /// `y <- alpha x + y`.
    Axpy {
        /// Scale factor.
        alpha: f64,
        /// Scaled operand.
        x: Vec<f64>,
        /// Accumulated operand.
        y: Vec<f64>,
    },
    /// `x <- alpha x`.
    Scal {
        /// Scale factor.
        alpha: f64,
        /// The vector.
        x: Vec<f64>,
    },
    /// Element-wise `z = x (op) y`.
    Vv {
        /// Left operand.
        x: Vec<f64>,
        /// Right operand.
        y: Vec<f64>,
        /// The element-wise operator.
        op: BinaryOp,
    },
    /// Dot product.
    Dot {
        /// Left operand.
        x: Vec<f64>,
        /// Right operand.
        y: Vec<f64>,
    },
    /// Euclidean norm.
    Norm2 {
        /// The vector.
        x: Vec<f64>,
    },
}

impl JobKind {
    /// Arithmetic SpMV (`mul = Mul`, `acc = Add`).
    #[must_use]
    pub fn spmv(a: Arc<Coo>, x: Vec<f64>) -> Self {
        JobKind::Spmv {
            a,
            x,
            mul: BinaryOp::Mul,
            acc: BinaryOp::Add,
        }
    }

    /// Short kernel-family label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Spmv { .. } => "spmv",
            JobKind::Sptrsv { .. } => "sptrsv",
            JobKind::Axpy { .. } => "axpy",
            JobKind::Scal { .. } => "scal",
            JobKind::Vv { .. } => "vv",
            JobKind::Dot { .. } => "dot",
            JobKind::Norm2 { .. } => "norm2",
        }
    }

    /// A priori work estimate in abstract units (nonzeros for sparse
    /// kernels, elements for dense ones). The scheduler uses this for
    /// fairness accounting and shard placement *before* a job runs; it
    /// never affects results, only ordering.
    #[must_use]
    pub fn cost_estimate(&self) -> u64 {
        let est = match self {
            JobKind::Spmv { a, x, .. } => a.nnz() + x.len(),
            JobKind::Sptrsv { t, b } => t.nnz() + b.len(),
            JobKind::Axpy { x, y, .. } => x.len() + y.len(),
            JobKind::Scal { x, .. } => x.len(),
            JobKind::Vv { x, y, .. } => x.len() + y.len(),
            JobKind::Dot { x, y } => x.len() + y.len(),
            JobKind::Norm2 { x } => x.len(),
        };
        est.max(1) as u64
    }

    /// Check that every operand fits its matrix or partner vector, so a
    /// malformed job is refused at admission instead of failing inside a
    /// worker with its whole batch.
    ///
    /// # Errors
    ///
    /// A message naming the kernel and the mismatched lengths.
    pub fn validate(&self) -> Result<(), String> {
        let (what, got, want) = match self {
            JobKind::Spmv { a, x, .. } => ("x length vs matrix columns", x.len(), a.ncols()),
            JobKind::Sptrsv { t, b } => ("b length vs matrix dimension", b.len(), t.dim()),
            JobKind::Axpy { x, y, .. } | JobKind::Vv { x, y, .. } | JobKind::Dot { x, y } => {
                ("x length vs y length", x.len(), y.len())
            }
            JobKind::Scal { .. } | JobKind::Norm2 { .. } => return Ok(()),
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("{}: {what}: {got} != {want}", self.label()))
        }
    }
}

/// A tenant's request, ready for submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Submitting tenant (fairness accounting key).
    pub tenant: String,
    /// Deadline class.
    pub class: JobClass,
    /// Element precision for the kernels.
    pub precision: Precision,
    /// The operation.
    pub kind: JobKind,
    /// Simulated arrival time (seconds on the service clock). Closed
    /// batches leave it at 0.0; open-arrival traces stamp each job so the
    /// executor charges queue wait from arrival, not from batch start.
    pub arrival_s: f64,
}

impl JobSpec {
    /// A batch-class FP64 job — the common case.
    #[must_use]
    pub fn batch(tenant: &str, kind: JobKind) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            class: JobClass::Batch,
            precision: Precision::Fp64,
            kind,
            arrival_s: 0.0,
        }
    }

    /// Same job in a different class.
    #[must_use]
    pub fn with_class(mut self, class: JobClass) -> Self {
        self.class = class;
        self
    }

    /// Same job arriving at a simulated instant (open-arrival traces).
    #[must_use]
    pub fn at(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s;
        self
    }
}

/// A submitted job: spec plus its queue identity.
#[derive(Debug, Clone)]
pub struct Job {
    /// Queue-assigned identifier (submission order).
    pub id: JobId,
    /// What to run.
    pub spec: JobSpec,
}

impl Job {
    /// The job's a priori cost estimate.
    #[must_use]
    pub fn cost_estimate(&self) -> u64 {
        self.spec.kind.cost_estimate()
    }
}

/// The numeric result a job produces.
#[derive(Debug, Clone, PartialEq)]
pub enum JobValue {
    /// Vector-valued kernels (SpMV, SpTRSV, AXPY, SCAL, VV).
    Vector(Vec<f64>),
    /// Scalar-valued kernels (DOT, NRM2).
    Scalar(f64),
}

impl JobValue {
    /// The vector, if this is a vector result.
    #[must_use]
    pub fn as_vector(&self) -> Option<&[f64]> {
        match self {
            JobValue::Vector(v) => Some(v),
            JobValue::Scalar(_) => None,
        }
    }

    /// The scalar, if this is a scalar result.
    #[must_use]
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            JobValue::Scalar(s) => Some(*s),
            JobValue::Vector(_) => None,
        }
    }
}

/// One resident operand with its LRU bookkeeping.
#[derive(Debug)]
struct StoreEntry<T> {
    value: Arc<T>,
    bytes: usize,
    /// Last-touch tick (monotone per store); smallest = least recent.
    touched: u64,
}

#[derive(Debug, Default)]
struct StoreInner {
    matrices: HashMap<String, StoreEntry<Coo>>,
    triangulars: HashMap<String, StoreEntry<UnitTriangular>>,
    resident_bytes: usize,
    tick: u64,
    evictions: u64,
}

impl StoreInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evict least-recently-used operands (across both maps) until the
    /// resident set fits the budget. Entries still referenced elsewhere
    /// stay alive through their `Arc`s — eviction only drops the *cache's*
    /// reference, so in-flight jobs are never invalidated.
    fn evict_to(&mut self, budget: usize) {
        while self.resident_bytes > budget {
            let lru_m = self
                .matrices
                .iter()
                .min_by_key(|(n, e)| (e.touched, n.as_str()));
            let lru_t = self
                .triangulars
                .iter()
                .min_by_key(|(n, e)| (e.touched, n.as_str()));
            match (lru_m, lru_t) {
                (Some((nm, em)), Some((nt, et))) => {
                    if em.touched <= et.touched {
                        let name = nm.clone();
                        let e = self.matrices.remove(&name).expect("present");
                        self.resident_bytes -= e.bytes;
                    } else {
                        let name = nt.clone();
                        let e = self.triangulars.remove(&name).expect("present");
                        self.resident_bytes -= e.bytes;
                    }
                }
                (Some((nm, _)), None) => {
                    let name = nm.clone();
                    let e = self.matrices.remove(&name).expect("present");
                    self.resident_bytes -= e.bytes;
                }
                (None, Some((nt, _))) => {
                    let name = nt.clone();
                    let e = self.triangulars.remove(&name).expect("present");
                    self.resident_bytes -= e.bytes;
                }
                (None, None) => break,
            }
            self.evictions += 1;
        }
    }
}

/// Shared concurrent matrix registry: tenants register operands once and
/// submit many jobs against the returned handles. Interior mutability
/// (`&self` everywhere) lets producer threads register and look up
/// operands concurrently with the admission loop; a byte budget with LRU
/// eviction bounds the resident set for long-running services. Evicted
/// operands stay alive for jobs already holding their `Arc` — eviction
/// only governs what *future* lookups can find.
///
/// Synchronization goes through the [`psim_conc`] shim (label
/// `"sched.store"`), so the insert/evict paths are interleaving-explored
/// and lock-order checked by the `psim_model` gate.
#[derive(Debug)]
pub struct MatrixStore {
    inner: Mutex<StoreInner>,
    /// Resident-set budget in bytes (`usize::MAX` = unbounded).
    budget: usize,
}

/// Same as [`MatrixStore::new`]: unbounded. (A derived `Default` would
/// zero the byte budget and evict every operand on the next insert.)
impl Default for MatrixStore {
    fn default() -> Self {
        MatrixStore::new()
    }
}

impl MatrixStore {
    /// An unbounded store.
    #[must_use]
    pub fn new() -> Self {
        MatrixStore {
            inner: Mutex::labeled("sched.store", StoreInner::default()),
            budget: usize::MAX,
        }
    }

    /// A store that evicts least-recently-used operands once the resident
    /// set exceeds `budget` bytes. A single operand larger than the budget
    /// is admitted (and evicted on the next insert) — refusing it would
    /// deadlock the tenant, and the service still holds it only as long as
    /// jobs do.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        MatrixStore {
            inner: Mutex::labeled("sched.store", StoreInner::default()),
            budget: budget.max(1),
        }
    }

    /// Register a matrix under a name, returning its shared handle.
    pub fn insert(&self, name: &str, a: Coo) -> Arc<Coo> {
        let bytes = a.storage_bytes(Precision::Fp64);
        let arc = Arc::new(a);
        let mut inner = self.inner.lock();
        let touched = inner.touch();
        if let Some(old) = inner.matrices.insert(
            name.to_string(),
            StoreEntry {
                value: Arc::clone(&arc),
                bytes,
                touched,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        inner.evict_to(self.budget);
        arc
    }

    /// Register a triangular factor under a name.
    pub fn insert_triangular(&self, name: &str, t: UnitTriangular) -> Arc<UnitTriangular> {
        // Strict part in COO-equivalent storage plus the unit diagonal.
        let bytes = t.nnz() * 16 + t.dim() * 8;
        let arc = Arc::new(t);
        let mut inner = self.inner.lock();
        let touched = inner.touch();
        if let Some(old) = inner.triangulars.insert(
            name.to_string(),
            StoreEntry {
                value: Arc::clone(&arc),
                bytes,
                touched,
            },
        ) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        inner.evict_to(self.budget);
        arc
    }

    /// Look up a registered matrix (refreshes its LRU position).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Coo>> {
        let mut inner = self.inner.lock();
        let touched = inner.touch();
        let entry = inner.matrices.get_mut(name)?;
        entry.touched = touched;
        Some(Arc::clone(&entry.value))
    }

    /// Look up a registered triangular factor (refreshes its LRU
    /// position).
    #[must_use]
    pub fn get_triangular(&self, name: &str) -> Option<Arc<UnitTriangular>> {
        let mut inner = self.inner.lock();
        let touched = inner.touch();
        let entry = inner.triangulars.get_mut(name)?;
        entry.touched = touched;
        Some(Arc::clone(&entry.value))
    }

    /// Number of resident operands.
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.matrices.len() + inner.triangulars.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident_bytes
    }

    /// Operands evicted under the byte budget so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Check the store's accounting invariants in one atomic snapshot:
    /// `resident_bytes` equals the sum of resident entry sizes, the
    /// resident set fits the budget whenever eviction could have run,
    /// and no entry's LRU stamp is ahead of the clock. The model-check
    /// scenarios call this after every explored interleaving — a lost
    /// update under concurrent insert/evict shows up here as a byte
    /// mismatch rather than as a silent leak.
    ///
    /// # Panics
    ///
    /// Panics (with the broken invariant) when the accounting is
    /// inconsistent.
    pub fn audit(&self) {
        let inner = self.inner.lock();
        let sum: usize = inner.matrices.values().map(|e| e.bytes).sum::<usize>()
            + inner.triangulars.values().map(|e| e.bytes).sum::<usize>();
        assert_eq!(
            inner.resident_bytes, sum,
            "resident_bytes out of sync with entry sizes"
        );
        let max_one = inner
            .matrices
            .values()
            .map(|e| e.bytes)
            .chain(inner.triangulars.values().map(|e| e.bytes))
            .max()
            .unwrap_or(0);
        assert!(
            inner.resident_bytes <= self.budget.max(max_one),
            "resident set exceeds budget beyond the single-oversized-operand allowance"
        );
        let ahead = inner
            .matrices
            .values()
            .map(|e| e.touched)
            .chain(inner.triangulars.values().map(|e| e.touched))
            .all(|t| t <= inner.tick);
        assert!(ahead, "an LRU stamp is ahead of the store clock");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psim_sparse::gen;

    #[test]
    fn cost_estimates_scale_with_work() {
        let small = Arc::new(gen::rmat(16, 2, 1));
        let large = Arc::new(gen::rmat(256, 8, 1));
        let x_small = vec![1.0; 16];
        let x_large = vec![1.0; 256];
        let c_small = JobKind::spmv(Arc::clone(&small), x_small).cost_estimate();
        let c_large = JobKind::spmv(Arc::clone(&large), x_large).cost_estimate();
        assert!(c_large > c_small);
        assert!(JobKind::Norm2 { x: vec![] }.cost_estimate() >= 1);
    }

    #[test]
    fn default_store_is_unbounded_like_new() {
        // Regression: the derived Default used to leave budget = 0, so a
        // default-constructed store evicted everything on every insert.
        let store = MatrixStore::default();
        store.insert("a", gen::rmat(32, 2, 7));
        store.insert("b", gen::rmat(32, 2, 8));
        assert!(store.get("a").is_some());
        assert!(store.get("b").is_some());
        assert_eq!(store.evictions(), 0);
        store.audit();
    }

    #[test]
    fn store_shares_matrices() {
        let store = MatrixStore::new();
        let a = store.insert("web", gen::rmat(32, 2, 7));
        let b = store.get("web").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(store.get("absent").is_none());
        assert_eq!(store.len(), 1);
        assert!(store.resident_bytes() > 0);
        assert_eq!(store.evictions(), 0);
    }

    #[test]
    fn store_evicts_lru_under_byte_budget() {
        let small = gen::rmat(32, 2, 7);
        let per = small.storage_bytes(psim_sparse::Precision::Fp64);
        // Room for roughly two matrices of this size.
        let store = MatrixStore::with_budget(per * 2 + per / 2);
        let a = store.insert("a", small.clone());
        store.insert("b", gen::rmat(32, 2, 8));
        // Touch "a" so "b" becomes the LRU victim when "c" arrives.
        assert!(store.get("a").is_some());
        store.insert("c", gen::rmat(32, 2, 9));
        assert!(store.get("b").is_none(), "LRU entry must be evicted");
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        assert_eq!(store.evictions(), 1);
        assert!(store.resident_bytes() <= per * 2 + per / 2);
        // The evicted-era handle we still hold remains fully usable.
        assert_eq!(a.nnz(), small.nnz());
    }

    #[test]
    fn store_is_usable_from_concurrent_producers() {
        let store = MatrixStore::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..8 {
                        store.insert(&format!("m{t}-{i}"), gen::rmat(16, 2, t * 100 + i));
                        assert!(store.get(&format!("m{t}-{i}")).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 32);
    }

    #[test]
    fn arrival_stamp_travels_with_the_spec() {
        let spec = JobSpec::batch("t", JobKind::Norm2 { x: vec![1.0] }).at(2.5e-3);
        assert_eq!(spec.arrival_s, 2.5e-3);
        assert_eq!(
            JobSpec::batch("t", JobKind::Norm2 { x: vec![] }).arrival_s,
            0.0
        );
    }

    #[test]
    fn class_priority_order() {
        assert!(JobClass::Interactive < JobClass::Batch);
        assert!(JobClass::Batch < JobClass::BestEffort);
        assert_eq!(JobClass::ALL[0], JobClass::Interactive);
    }
}
