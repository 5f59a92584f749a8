//! Persistent deterministic compute pool — the threading engine behind
//! the parallel GEMM kernels.
//!
//! The original parallel kernels spawned and joined fresh scoped OS
//! threads on *every* call (`thread::scope` inside the row-block
//! splitters). That is correct and simple, but the spawn+join cost
//! (~tens of microseconds per call) dominates exactly where training
//! spends its time: the GRU's many small packed-gate GEMMs per
//! timestep, each barely above the parallelism threshold. This module
//! replaces spawn-per-call with a pool of long-lived workers parked on
//! a condvar behind a bounded spin, woken by an atomic epoch bump —
//! a dispatch costs a few microseconds instead of a few dozen.
//!
//! # Architecture
//!
//! * **One pool per [`Scratch`](crate::kernels::Scratch)**, lazily
//!   created on the first parallel dispatch and sized to
//!   `Parallelism::Threads(n) ⇒ min(n, cores) − 1` workers (the caller
//!   is the last thread). The clamp to the probed machine core count
//!   (`machine_cores`) is what a persistent pool buys over
//!   spawn-per-call: it never oversubscribes, because spinning workers
//!   on a smaller machine would time-slice against the caller. On a
//!   single core the pooled policy degrades to the inline kernel.
//!   Changing the policy drops the pool (workers join) and the next
//!   dispatch respawns it — nothing is global, nothing leaks past the
//!   owning scratch.
//! * **Copy-in / copy-back.** `unsafe` is banned workspace-wide, so the
//!   pool cannot hand caller-borrowed slices to `'static` worker
//!   threads. Instead the caller copies the packed panels and the right
//!   operand into pool-owned input buffers, workers compute their row
//!   blocks into per-worker staging buffers, and the caller copies the
//!   staging back into its output. The copies are pure `f64` moves —
//!   `memcpy` preserves every bit — and cost `O(kn + mn)` against the
//!   `O(mkn / threads)` compute the dispatch threshold guarantees.
//! * **Wakeup protocol.** The caller publishes a `JobDesc` under the
//!   control mutex, bumps the job epoch (mirrored in an atomic), and
//!   notifies. Workers spin briefly on the atomic epoch, then park on
//!   the condvar; on wakeup each computes row block `index + 1`
//!   (block 0 runs inline on the caller, straight into the caller's
//!   output buffer) and decrements the remaining-counter; the last one
//!   takes the control mutex (so the caller is either not yet waiting
//!   or already parked — no lost wakeups) and signals completion.
//! * **Determinism.** Row blocks are `n_rows.div_ceil(threads)` rounded
//!   up to the packing panel height `IT`, aligned to the panel
//!   boundaries of `pack_panels` so every block starts on a whole
//!   packed panel. Each block runs the same `rank1_tiles` walk on
//!   bit-identical inputs, so pooled and inline outputs are **bitwise
//!   identical** for every thread count; [`Parallelism::Single`] is the
//!   determinism oracle the property tests compare against.
//! * **Never a liveness dependency.** A pool the OS refuses threads
//!   for is not built, and the dispatch runs the inline kernel — the
//!   same branch, and the same bits, as `threads ≤ 1`.

use crate::kernels::{fused_act_rows, gemm_rows, Epilogue, Parallelism, IT};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread;

/// Iterations a worker spins on the epoch atomic before parking on the
/// condvar, and the caller spins on the remaining-counter before doing
/// the same. Long enough to catch the common back-to-back-GEMM cadence
/// of a training step, short enough not to burn a core while idle.
const SPIN_LIMIT: u32 = 1 << 14;

/// Machine core count, probed once per process. The pooled policy
/// clamps its thread budget to this (see
/// [`Scratch`](crate::kernels::Scratch)): spinning workers on an
/// oversubscribed machine time-slice against the caller, turning every
/// dispatch into lost scheduler quanta. The probe steers scheduling
/// only: the kernels are bitwise identical for every thread count, so
/// no score ever depends on the value read here.
pub(crate) fn machine_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        // lint:allow(determinism, reason = "core-count probe steers pool scheduling only; kernel results are bitwise identical for every thread count (see the pool proptests)")
        thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Stable worker count for the pooled policy on this machine: the
/// policy budget clamped to `cores`, minus the caller (who computes
/// block 0 inline). Deliberately independent of any per-call row
/// count, so the pool never churns (shutdown + respawn) between
/// differently-shaped dispatches.
fn pool_size(parallelism: Parallelism, cores: usize) -> usize {
    parallelism.threads().min(cores.max(1)).saturating_sub(1)
}

/// What one dispatch computes.
#[derive(Clone, Copy)]
enum JobKind {
    /// `out = packed · rhs` — the shared shape of `gemm`, `gemm_nt`
    /// (rhs pre-transposed by the caller) and `gemm_tn` (lhs packed
    /// column-major by the caller).
    Gemm,
    /// The fused dense forward: `z = packed · rhs + bias` row-broadcast
    /// and `a = act(z)`, both written per row block.
    Fused {
        /// The activation applied element-wise to `z`.
        act: Epilogue,
    },
}

/// One round of work, published under the control mutex.
#[derive(Clone, Copy)]
struct JobDesc {
    kind: JobKind,
    /// Shared (accumulation) dimension.
    steps: usize,
    /// Total output rows.
    n_rows: usize,
    /// Output row length (= rhs row stride).
    row_len: usize,
    /// Rows per block ([`partition_rows`]), aligned to [`IT`].
    rows_per: usize,
    /// Number of non-empty row blocks (`≤ workers + 1`).
    n_blocks: usize,
}

impl JobDesc {
    /// Rows of block `block` (the final block may be short).
    fn block_rows(&self, block: usize) -> usize {
        self.rows_per.min(self.n_rows - block * self.rows_per)
    }
}

/// Pool-owned copies of the caller's operands for the current round.
#[derive(Default)]
struct Inputs {
    /// The packed left operand (`n_rows × steps`, panel layout).
    packed: Vec<f64>,
    /// The right operand (`steps × row_len`, row-major).
    rhs: Vec<f64>,
    /// The bias row for fused jobs (`row_len`), empty otherwise.
    bias: Vec<f64>,
}

/// Per-worker output staging for the current round.
#[derive(Default)]
struct Staging {
    z: Vec<f64>,
    a: Vec<f64>,
}

/// Dispatch/completion state, guarded by [`PoolShared::ctrl`].
struct Ctrl {
    epoch: u64,
    job: Option<JobDesc>,
    shutdown: bool,
}

/// State shared between the owning scratch and the workers.
struct PoolShared {
    ctrl: Mutex<Ctrl>,
    work_ready: Condvar,
    work_done: Condvar,
    /// Mirror of `ctrl.epoch` for the workers' lock-free spin phase.
    epoch: AtomicU64,
    /// Workers yet to acknowledge the current round.
    remaining: AtomicUsize,
    inputs: RwLock<Inputs>,
    staging: Vec<Mutex<Staging>>,
}

/// Recovers the guard from a poisoned lock. Workers hold these locks
/// only around plain `f64` arithmetic and copies, which cannot panic
/// mid-update in a way that leaves torn state a retry could observe —
/// and propagating the poison would turn one contained panic into a
/// poisoned-forever pool.
fn claim<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl PoolShared {
    fn lock_ctrl(&self) -> MutexGuard<'_, Ctrl> {
        claim(self.ctrl.lock())
    }
}

/// A persistent pool of GEMM workers (see the module docs). Owned by a
/// [`Scratch`](crate::kernels::Scratch); dropping it shuts the workers
/// down and joins them.
pub struct ComputePool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl ComputePool {
    /// Spawns a pool of `workers` parked worker threads. Returns `None`
    /// if the OS refuses a thread (the caller runs the inline kernel).
    fn with_workers(workers: usize) -> Option<Self> {
        let shared = Arc::new(PoolShared {
            ctrl: Mutex::new(Ctrl {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            epoch: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            inputs: RwLock::new(Inputs::default()),
            staging: (0..workers)
                .map(|_| Mutex::new(Staging::default()))
                .collect(),
        });
        let mut pool = Self {
            shared,
            handles: Vec::with_capacity(workers),
            workers,
        };
        for index in 0..workers {
            let shared = Arc::clone(&pool.shared);
            let spawned = thread::Builder::new()
                .name(format!("occusense-pool-{index}"))
                .spawn(move || worker_loop(&shared, index));
            match spawned {
                Ok(handle) => pool.handles.push(handle),
                Err(_) => {
                    // Partial spawn: shut down what exists and report
                    // failure — the dispatcher falls back to the inline
                    // kernel, never to a half-sized pool.
                    pool.shutdown();
                    return None;
                }
            }
        }
        Some(pool)
    }

    /// Number of worker threads (the caller is one more).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lazily (re)builds the pool in `slot` for `workers` workers.
    fn ensure(slot: &mut Option<ComputePool>, workers: usize) -> Option<&ComputePool> {
        let stale = slot.as_ref().is_none_or(|p| p.workers != workers);
        if stale {
            // Drop (join) any old pool before spawning the new one.
            *slot = None;
            *slot = ComputePool::with_workers(workers);
        }
        slot.as_ref()
    }

    fn shutdown(&mut self) {
        {
            let mut ctrl = self.shared.lock_ctrl();
            ctrl.shutdown = true;
            ctrl.epoch += 1;
            self.shared.epoch.store(ctrl.epoch, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Runs one job: copies the operands in, publishes the round,
    /// computes block 0 inline into the caller's output, waits for the
    /// workers, and copies their staging blocks back. Returns the
    /// number of pool-buffer growth events (for the scratch's
    /// steady-state accounting).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        job: JobDesc,
        packed: &[f64],
        rhs: &[f64],
        bias: &[f64],
        out_z: &mut [f64],
        mut out_a: Option<&mut [f64]>,
    ) -> u64 {
        let fused = matches!(job.kind, JobKind::Fused { .. });
        let mut grows = 0u64;
        {
            let mut inputs = claim(self.shared.inputs.write());
            grows += fill_from(&mut inputs.packed, packed);
            grows += fill_from(&mut inputs.rhs, rhs);
            grows += fill_from(&mut inputs.bias, bias);
        }
        // Size every worker's staging while the pool is quiescent, so
        // all growth happens here, on the caller, where it is counted.
        for (index, slot) in self.shared.staging.iter().enumerate() {
            let block = index + 1;
            if block >= job.n_blocks {
                break;
            }
            let len = job.block_rows(block) * job.row_len;
            let mut staging = claim(slot.lock());
            grows += ensure_len(&mut staging.z, len);
            if fused {
                grows += ensure_len(&mut staging.a, len);
            }
        }
        {
            let mut ctrl = self.shared.lock_ctrl();
            ctrl.job = Some(job);
            ctrl.epoch += 1;
            self.shared.remaining.store(self.workers, Ordering::Release);
            self.shared.epoch.store(ctrl.epoch, Ordering::Release);
        }
        self.shared.work_ready.notify_all();

        // Block 0 inline — written straight into the caller's buffers,
        // no staging round-trip.
        compute_block(&job, 0, packed, rhs, bias, out_z, &mut out_a);

        // Completion wait: spin (the workers' blocks take about as long
        // as our own block 0 just did), then park on the condvar.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins >= SPIN_LIMIT {
                let mut ctrl = self.shared.lock_ctrl();
                while self.shared.remaining.load(Ordering::Acquire) != 0 {
                    ctrl = claim(self.shared.work_done.wait(ctrl));
                }
                break;
            }
            std::hint::spin_loop();
        }

        // Copy the workers' blocks back into the caller's output.
        copy_back(&self.shared.staging, &job, out_z, out_a);
        grows
    }
}

impl Drop for ComputePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Grows-and-fills `dst` from `src`, returning 1 if capacity grew.
fn fill_from(dst: &mut Vec<f64>, src: &[f64]) -> u64 {
    let grew = u64::from(src.len() > dst.capacity());
    dst.clear();
    dst.extend_from_slice(src);
    grew
}

/// Resizes `v` to exactly `len`, returning 1 if capacity grew.
fn ensure_len(v: &mut Vec<f64>, len: usize) -> u64 {
    let grew = u64::from(len > v.capacity());
    v.resize(len, 0.0);
    grew
}

// The block kernels and the copy-back below are the pool's hot path:
// bounds are governed by the JobDesc invariants (every block slice is
// `block_rows · row_len` long inside buffers sized from the same
// JobDesc), and the dispatcher must stay allocation-free outside the
// counted growth helpers above.
// lint:allow-region(index, reason = "block offsets are products of JobDesc fields validated at dispatch; checked forms defeat the copy/kernel vectorisation")
// lint:no_alloc

/// Computes row block `block` of `job` into `z` (and `a` for fused
/// jobs). `z`/`a` hold exactly the block (staging) or the whole output
/// with the block at its offset (the caller's inline block 0).
fn compute_block(
    job: &JobDesc,
    block: usize,
    packed: &[f64],
    rhs: &[f64],
    bias: &[f64],
    z: &mut [f64],
    a: &mut Option<&mut [f64]>,
) {
    let first_row = block * job.rows_per;
    let rows = job.block_rows(block);
    match job.kind {
        JobKind::Gemm => {
            let chunk = &mut z[..rows * job.row_len];
            gemm_rows(job.steps, job.row_len, first_row, rows, packed, rhs, chunk);
        }
        JobKind::Fused { act } => {
            if let Some(a) = a.as_deref_mut() {
                let zc = &mut z[..rows * job.row_len];
                let ac = &mut a[..rows * job.row_len];
                fused_act_rows(
                    job.steps,
                    job.row_len,
                    first_row,
                    rows,
                    packed,
                    rhs,
                    bias,
                    act,
                    zc,
                    ac,
                );
            }
        }
    }
}

/// Copies every worker-computed block from staging into the caller's
/// output buffers.
fn copy_back(
    staging: &[Mutex<Staging>],
    job: &JobDesc,
    out_z: &mut [f64],
    mut out_a: Option<&mut [f64]>,
) {
    for (index, slot) in staging.iter().enumerate() {
        let block = index + 1;
        if block >= job.n_blocks {
            break;
        }
        let offset = block * job.rows_per * job.row_len;
        let len = job.block_rows(block) * job.row_len;
        let st = claim(slot.lock());
        out_z[offset..offset + len].copy_from_slice(&st.z[..len]);
        if let Some(a) = out_a.as_deref_mut() {
            a[offset..offset + len].copy_from_slice(&st.a[..len]);
        }
    }
}

/// The worker body: spin on the epoch atomic, park on the condvar,
/// compute block `index + 1` of the published job into this worker's
/// staging, acknowledge.
fn worker_loop(shared: &PoolShared, index: usize) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        while shared.epoch.load(Ordering::Acquire) == seen && spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        }
        let (epoch, job, shutdown) = {
            let mut ctrl = shared.lock_ctrl();
            while ctrl.epoch == seen && !ctrl.shutdown {
                ctrl = claim(shared.work_ready.wait(ctrl));
            }
            (ctrl.epoch, ctrl.job, ctrl.shutdown)
        };
        if shutdown {
            return;
        }
        seen = epoch;
        if let Some(job) = job {
            run_worker_block(shared, index, &job);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last acknowledgement: take the control mutex so the
            // caller is either not yet waiting (and will observe the
            // zero) or already parked (and will be notified) — never
            // in between. This is the lost-wakeup guard.
            drop(shared.lock_ctrl());
            shared.work_done.notify_all();
        }
    }
}

/// Computes this worker's block (if the job has one for it) into its
/// staging buffers.
fn run_worker_block(shared: &PoolShared, index: usize, job: &JobDesc) {
    let block = index + 1;
    if block >= job.n_blocks {
        return;
    }
    let inputs = claim(shared.inputs.read());
    if let Some(slot) = shared.staging.get(index) {
        let mut staging = claim(slot.lock());
        let Staging { z, a } = &mut *staging;
        let mut a_opt = match job.kind {
            JobKind::Fused { .. } => Some(a.as_mut_slice()),
            JobKind::Gemm => None,
        };
        compute_block(
            job,
            block,
            &inputs.packed,
            &inputs.rhs,
            &inputs.bias,
            z,
            &mut a_opt,
        );
    }
}

/// The row partition: rows per block for `threads` blocks, rounded up
/// to the packing panel height so block boundaries coincide with
/// packed-panel boundaries — the heart of the bitwise-identity
/// argument.
fn partition_rows(n_rows: usize, threads: usize) -> usize {
    n_rows.div_ceil(threads).next_multiple_of(IT)
}

/// Runs a single-output row-block job (`out = packed · rhs`): on the
/// persistent pool, sized by the policy budget clamped to `cores`,
/// when `threads > 1` and the pool exists; inline otherwise (a pool
/// that failed to spawn included). Both are bitwise identical.
/// Returns the pool-buffer growth events to be added to the scratch
/// counter.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_gemm(
    pool: &mut Option<ComputePool>,
    parallelism: Parallelism,
    threads: usize,
    cores: usize,
    steps: usize,
    n_rows: usize,
    row_len: usize,
    packed: &[f64],
    rhs: &[f64],
    out: &mut [f64],
) -> u64 {
    if n_rows == 0 || row_len == 0 {
        return 0;
    }
    let threads = threads.min(n_rows);
    if threads > 1 {
        if let Some(p) = ComputePool::ensure(pool, pool_size(parallelism, cores)) {
            let rows_per = partition_rows(n_rows, threads);
            let job = JobDesc {
                kind: JobKind::Gemm,
                steps,
                n_rows,
                row_len,
                rows_per,
                n_blocks: n_rows.div_ceil(rows_per),
            };
            return p.run(job, packed, rhs, &[], out, None);
        }
    }
    gemm_rows(steps, row_len, 0, n_rows, packed, rhs, out);
    0
}

/// Two-output (fused forward) variant of [`run_gemm`]: `z = packed ·
/// rhs + bias`, `a = act(z)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fused(
    pool: &mut Option<ComputePool>,
    parallelism: Parallelism,
    threads: usize,
    cores: usize,
    steps: usize,
    n_rows: usize,
    row_len: usize,
    packed: &[f64],
    rhs: &[f64],
    bias: &[f64],
    act: Epilogue,
    z: &mut [f64],
    a: &mut [f64],
) -> u64 {
    if n_rows == 0 || row_len == 0 {
        return 0;
    }
    let threads = threads.min(n_rows);
    if threads > 1 {
        if let Some(p) = ComputePool::ensure(pool, pool_size(parallelism, cores)) {
            let rows_per = partition_rows(n_rows, threads);
            let job = JobDesc {
                kind: JobKind::Fused { act },
                steps,
                n_rows,
                row_len,
                rows_per,
                n_blocks: n_rows.div_ceil(rows_per),
            };
            return p.run(job, packed, rhs, bias, z, Some(a));
        }
    }
    fused_act_rows(steps, row_len, 0, n_rows, packed, rhs, bias, act, z, a);
    0
}

// lint:end_no_alloc
// lint:end-region(index)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{gemm, gemm_bias_act, Epilogue, Scratch};
    use crate::Matrix;

    fn mat(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::from_fn(r, c, |i, j| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((i * 131 + j * 7) as u64);
            ((h % 2000) as f64 - 1000.0) / 250.0
        })
    }

    /// A scratch that believes the machine has plenty of cores, so the
    /// pool protocol is exercised even on small CI runners (the clamp
    /// itself is tested separately).
    fn unclamped(par: Parallelism) -> Scratch {
        let mut scratch = Scratch::with_parallelism(par);
        scratch.set_machine_cores(16);
        scratch
    }

    fn run_gemm_with(par: Parallelism, m: usize, k: usize, n: usize) -> Matrix {
        let a = mat(m, k, 21);
        let b = mat(k, n, 22);
        let mut out = Matrix::zeros(m, n);
        let mut scratch = unclamped(par);
        gemm(
            m,
            k,
            n,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &mut scratch,
        );
        out
    }

    #[test]
    fn pooled_gemm_is_bitwise_identical_to_inline() {
        // Shapes straddling the parallelism threshold and the IT/JT
        // tile edges.
        for (m, k, n) in [(64, 32, 32), (65, 33, 47), (128, 66, 128), (40, 40, 41)] {
            let inline = run_gemm_with(Parallelism::Single, m, k, n);
            for t in 1..=8 {
                let pooled = run_gemm_with(Parallelism::Threads(t), m, k, n);
                assert_eq!(inline, pooled, "pool {t} threads ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn pooled_fused_forward_is_bitwise_identical_to_inline() {
        let (m, k, n) = (72, 40, 48);
        let x = mat(m, k, 31);
        let w = mat(k, n, 32);
        let bias: Vec<f64> = (0..n).map(|j| (j as f64 * 0.3).sin()).collect();
        let run = |par: Parallelism| {
            let mut z = Matrix::zeros(m, n);
            let mut a = Matrix::zeros(m, n);
            let mut scratch = unclamped(par);
            gemm_bias_act(
                m,
                k,
                n,
                x.as_slice(),
                w.as_slice(),
                &bias,
                z.as_mut_slice(),
                a.as_mut_slice(),
                Epilogue::Relu,
                &mut scratch,
            );
            (z, a)
        };
        let inline = run(Parallelism::Single);
        for t in [2, 3, 5, 8] {
            assert_eq!(inline, run(Parallelism::Threads(t)), "pool {t}");
        }
    }

    #[test]
    fn pool_is_lazy_and_sized_to_the_policy() {
        let mut scratch = unclamped(Parallelism::Threads(4));
        assert_eq!(scratch.pool_workers(), None, "pool must be lazy");
        // Below the flops threshold: still no pool.
        let a = mat(4, 4, 1);
        let b = mat(4, 4, 2);
        let mut out = Matrix::zeros(4, 4);
        gemm(
            4,
            4,
            4,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            &mut scratch,
        );
        assert_eq!(scratch.pool_workers(), None, "tiny GEMM spawned a pool");
        // Above it: 3 workers for Threads(4).
        let _ = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(3));
    }

    fn run_in(scratch: &mut Scratch) -> Matrix {
        let (m, k, n) = (96, 48, 48);
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let mut out = Matrix::zeros(m, n);
        gemm(
            m,
            k,
            n,
            a.as_slice(),
            b.as_slice(),
            out.as_mut_slice(),
            scratch,
        );
        out
    }

    #[test]
    fn pooled_budget_clamps_to_machine_cores() {
        // On a one-core machine the pooled policy must not spawn
        // workers at all — every dispatch runs inline.
        let mut scratch = Scratch::with_parallelism(Parallelism::Threads(4));
        scratch.set_machine_cores(1);
        let one_core = run_in(&mut scratch);
        assert_eq!(
            scratch.pool_workers(),
            None,
            "an oversubscribed pool must not spawn"
        );
        // Two cores: caller plus exactly one worker, whatever the
        // policy asks for.
        scratch.set_machine_cores(2);
        let two_cores = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(1));
        // A roomy machine grants the full budget (ensure() resizes the
        // undersized pool in place).
        scratch.set_machine_cores(16);
        let full = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(3));
        // The clamp steers scheduling only — never the bits.
        assert_eq!(one_core, two_cores);
        assert_eq!(one_core, full);
    }

    #[test]
    fn pool_shuts_down_and_reinitialises_across_policy_changes() {
        let mut scratch = unclamped(Parallelism::Threads(4));
        let with4 = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(3));
        // Shrinking the policy drops the old pool (workers join) and
        // lazily respawns a smaller one.
        scratch.set_parallelism(Parallelism::Threads(2));
        assert_eq!(
            scratch.pool_workers(),
            None,
            "policy change must drop the pool"
        );
        let with2 = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(1));
        assert_eq!(with4, with2, "thread count changed the bits");
        // Going single-threaded parks nothing: the pool is gone.
        scratch.set_parallelism(Parallelism::Single);
        assert_eq!(scratch.pool_workers(), None);
        let single = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), None);
        assert_eq!(with4, single);
        // And back up again.
        scratch.set_parallelism(Parallelism::Threads(3));
        scratch.set_machine_cores(16);
        let with3 = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(2));
        assert_eq!(with4, with3);
    }

    #[test]
    fn cloned_scratch_does_not_share_or_steal_the_pool() {
        let mut scratch = unclamped(Parallelism::Threads(4));
        let base = run_in(&mut scratch);
        assert_eq!(scratch.pool_workers(), Some(3));
        let mut cloned = scratch.clone();
        assert_eq!(cloned.pool_workers(), None, "clones start pool-less");
        let from_clone = run_in(&mut cloned);
        assert_eq!(base, from_clone);
        // The original still owns its original pool.
        assert_eq!(scratch.pool_workers(), Some(3));
    }

    #[test]
    fn pooled_steady_state_is_allocation_free() {
        let mut scratch = unclamped(Parallelism::Threads(4));
        let _ = run_in(&mut scratch);
        let warm = scratch.reallocs();
        assert!(warm > 0, "warm-up should have grown pool buffers");
        for _ in 0..10 {
            let _ = run_in(&mut scratch);
        }
        assert_eq!(
            scratch.reallocs(),
            warm,
            "pooled steady state grew a buffer"
        );
    }

    #[test]
    fn many_rounds_through_one_pool_stay_correct() {
        // Alternating shapes and job kinds through the same pool: the
        // epoch protocol must never cross wires between rounds.
        let mut scratch = unclamped(Parallelism::Threads(3));
        let mut single = Scratch::new();
        for round in 0..25 {
            let (m, k, n) = if round % 2 == 0 {
                (64, 32, 40)
            } else {
                (96, 48, 24)
            };
            let a = mat(m, k, round);
            let b = mat(k, n, round + 100);
            let mut out = Matrix::zeros(m, n);
            let mut want = Matrix::zeros(m, n);
            gemm(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                out.as_mut_slice(),
                &mut scratch,
            );
            gemm(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                want.as_mut_slice(),
                &mut single,
            );
            assert_eq!(out, want, "round {round}");
        }
    }
}
