//! Gated recurrent unit with hand-derived BPTT gradients.
//!
//! The cell follows Cho et al.'s original formulation with the reset
//! gate applied *before* the recurrent matmul of the candidate:
//!
//! ```text
//! z_t = σ(x_t W_z + h_{t-1} U_z + b_z)          (update gate)
//! r_t = σ(x_t W_r + h_{t-1} U_r + b_r)          (reset gate)
//! n_t = tanh(x_t W_n + (r_t ⊙ h_{t-1}) U_n + b_n)  (candidate)
//! h_t = (1 − z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//! ```
//!
//! Every matrix product runs on the packed GEMM kernels
//! ([`kernels::gemm`] forward, [`kernels::gemm_tn`]/[`kernels::gemm_nt`]
//! backward), and every gate combination is a fixed-order elementwise
//! pass, so a step is **bitwise identical across thread counts** and —
//! because the kernels compute each output row independently — across
//! batch compositions: scoring a sensor inside a 64-row batched step
//! equals scoring it alone, bit for bit. That row independence is what
//! the stateful serve path relies on.
//!
//! [`GruWorkspace`] mirrors [`crate::MlpWorkspace`]: it owns every
//! intermediate (gate caches per timestep, BPTT temporaries, parameter
//! gradient accumulators) plus the GEMM pack [`Scratch`], so the
//! steady-state [`Gru::step`]/[`Gru::forward_seq`]/[`Gru::backward_seq`]
//! loop performs no heap allocations once warm — asserted via
//! [`GruWorkspace::reallocs`] exactly like the MLP path.

use occusense_tensor::kernels::{self, Scratch};
use occusense_tensor::vecops::sigmoid;
use occusense_tensor::{init, Matrix};
use rand::Rng;

/// A single GRU layer. Input-side weights are `in_dim × hidden`,
/// recurrent weights `hidden × hidden`, biases length `hidden` — the
/// same storage orientation as [`crate::layer::Dense`], so a batch of
/// streams is a `n × in_dim` matrix and every product is row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Gru {
    /// Update-gate input weights, `in_dim × hidden`.
    pub w_z: Matrix,
    /// Reset-gate input weights, `in_dim × hidden`.
    pub w_r: Matrix,
    /// Candidate input weights, `in_dim × hidden`.
    pub w_n: Matrix,
    /// Update-gate recurrent weights, `hidden × hidden`.
    pub u_z: Matrix,
    /// Reset-gate recurrent weights, `hidden × hidden`.
    pub u_r: Matrix,
    /// Candidate recurrent weights, `hidden × hidden`.
    pub u_n: Matrix,
    /// Update-gate bias, length `hidden`.
    pub b_z: Vec<f64>,
    /// Reset-gate bias, length `hidden`.
    pub b_r: Vec<f64>,
    /// Candidate bias, length `hidden`.
    pub b_n: Vec<f64>,
}

impl Gru {
    /// Creates a GRU with Xavier-initialised weights (sigmoid/tanh
    /// gates saturate; Kaiming would push them there) and zero biases.
    pub fn new(in_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        assert!(in_dim > 0 && hidden > 0, "gru: dimensions must be positive");
        Self {
            w_z: init::xavier_uniform(in_dim, hidden, rng),
            w_r: init::xavier_uniform(in_dim, hidden, rng),
            w_n: init::xavier_uniform(in_dim, hidden, rng),
            u_z: init::xavier_uniform(hidden, hidden, rng),
            u_r: init::xavier_uniform(hidden, hidden, rng),
            u_n: init::xavier_uniform(hidden, hidden, rng),
            b_z: vec![0.0; hidden],
            b_r: vec![0.0; hidden],
            b_n: vec![0.0; hidden],
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.w_z.rows()
    }

    /// Hidden-state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.w_z.cols()
    }

    /// Number of trainable parameters: `3·(in·h + h² + h)`.
    pub fn n_parameters(&self) -> usize {
        3 * (self.w_z.len() + self.u_z.len() + self.b_z.len())
    }

    /// True when every weight and bias is finite — the same guard the
    /// persistence layer applies before writing a checkpoint.
    pub fn is_finite(&self) -> bool {
        [
            &self.w_z, &self.w_r, &self.w_n, &self.u_z, &self.u_r, &self.u_n,
        ]
        .iter()
        .all(|m| m.as_slice().iter().all(|v| v.is_finite()))
            && [&self.b_z, &self.b_r, &self.b_n]
                .iter()
                .all(|b| b.iter().all(|v| v.is_finite()))
    }

    // The steady-state sequence loop: no allocation once the workspace
    // has capacity (spine growth happens in `GruWorkspace::prepare` and
    // `prepare_grads`, below, where the realloc counter records it).
    // lint:no_alloc

    /// One timestep for a batch of independent streams: `x` is
    /// `n × in_dim`, `h_prev` is `n × hidden`, and the new hidden state
    /// lands in `h_out` (`n × hidden`). Each row advances its own
    /// stream — this is the serve-side primitive that steps many
    /// sensors' states in a single batched call. Gate caches are kept
    /// in `ws` but only until the next step.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `h_prev` have mismatched shapes.
    pub fn step(&self, x: &Matrix, h_prev: &Matrix, h_out: &mut Matrix, ws: &mut GruWorkspace) {
        let GruWorkspace {
            scratch,
            gx_z,
            gx_r,
            gx_n,
            gh,
            step_z,
            step_r,
            step_n,
            step_rh,
            ..
        } = ws;
        step_core(
            self, x, h_prev, step_z, step_r, step_n, step_rh, h_out, gx_z, gx_r, gx_n, gh, scratch,
        );
    }

    /// Forward pass over a whole sequence: `xs[t]` is the `n × in_dim`
    /// batch at timestep `t`, `h0` the initial hidden state
    /// (`n × hidden`). All hidden states and gate values are cached in
    /// `ws` for a following [`Gru::backward_seq`]; the final state is
    /// [`GruWorkspace::h_last`].
    ///
    /// Feeding a sequence in chunks with the carried state (or stepping
    /// it one timestep at a time via [`Gru::step`]) produces bitwise
    /// identical hidden states — the chunking only changes which buffer
    /// holds the intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any batch shape is inconsistent.
    pub fn forward_seq(&self, xs: &[Matrix], h0: &Matrix, ws: &mut GruWorkspace) {
        assert!(!xs.is_empty(), "forward_seq: empty sequence");
        ws.prepare(xs.len());
        let GruWorkspace {
            scratch,
            gx_z,
            gx_r,
            gx_n,
            gh,
            hs,
            zs,
            rs,
            ns,
            rhs,
            ..
        } = ws;
        if hs[0].ensure_shape(h0.rows(), h0.cols()) {
            scratch.note_grow();
        }
        hs[0].as_mut_slice().copy_from_slice(h0.as_slice());
        for (t, x) in xs.iter().enumerate() {
            let (before, after) = hs.split_at_mut(t + 1);
            step_core(
                self,
                x,
                &before[t],
                &mut zs[t],
                &mut rs[t],
                &mut ns[t],
                &mut rhs[t],
                &mut after[0],
                gx_z,
                gx_r,
                gx_n,
                gh,
                scratch,
            );
        }
    }

    /// Backward pass through time. Requires a preceding
    /// [`Gru::forward_seq`] over the same `xs` on the same workspace;
    /// `grad_h_last` is `∂L/∂h_T` (`n × hidden`) — for a classifier
    /// reading only the final hidden state this is the head's input
    /// gradient, and the per-timestep loss terms are zero.
    ///
    /// Parameter gradients accumulate over timesteps in fixed reverse
    /// order (`t = T−1 … 0`) into the workspace accumulators
    /// ([`GruWorkspace::grad_w_z`] …), so the result is exactly
    /// reproducible for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if the workspace was not filled by a matching forward
    /// pass or `grad_h_last` has the wrong shape.
    pub fn backward_seq(&self, xs: &[Matrix], grad_h_last: &Matrix, ws: &mut GruWorkspace) {
        let t_len = xs.len();
        assert_eq!(
            ws.zs.len(),
            t_len,
            "backward_seq: workspace not filled by forward_seq"
        );
        let (in_dim, hd) = (self.in_dim(), self.hidden_dim());
        ws.prepare_grads(in_dim, hd);
        let GruWorkspace {
            scratch,
            hs,
            zs,
            rs,
            ns,
            rhs,
            dh,
            dh_prev,
            daz,
            dar,
            dan,
            drh,
            tmp_h,
            tmp_w,
            tmp_b,
            gw_z,
            gw_r,
            gw_n,
            gu_z,
            gu_r,
            gu_n,
            gb_z,
            gb_r,
            gb_n,
            ..
        } = ws;
        let last = hs.last().expect("forward_seq has run");
        assert_eq!(
            grad_h_last.shape(),
            last.shape(),
            "backward_seq: grad shape"
        );
        if dh.ensure_shape(grad_h_last.rows(), grad_h_last.cols()) {
            scratch.note_grow();
        }
        dh.as_mut_slice().copy_from_slice(grad_h_last.as_slice());

        for t in (0..t_len).rev() {
            let (x, h_prev) = (&xs[t], &hs[t]);
            let (z, r, n, rh) = (&zs[t], &rs[t], &ns[t], &rhs[t]);
            let m = x.rows();
            for buf in [
                &mut *daz,
                &mut *dar,
                &mut *dan,
                &mut *drh,
                &mut *dh_prev,
                &mut *tmp_h,
            ] {
                if buf.ensure_shape(m, hd) {
                    scratch.note_grow();
                }
            }

            // ∂L/∂n = dh ⊙ (1−z); through tanh: dan = ∂L/∂n ⊙ (1−n²).
            for (((d, &g), &zv), &nv) in dan
                .as_mut_slice()
                .iter_mut()
                .zip(dh.as_slice())
                .zip(z.as_slice())
                .zip(n.as_slice())
            {
                *d = g * (1.0 - zv) * (1.0 - nv * nv);
            }
            // ∂L/∂z = dh ⊙ (h_prev − n); through σ: daz = ∂L/∂z ⊙ z(1−z).
            for ((((d, &g), &zv), &nv), &hp) in daz
                .as_mut_slice()
                .iter_mut()
                .zip(dh.as_slice())
                .zip(z.as_slice())
                .zip(n.as_slice())
                .zip(h_prev.as_slice())
            {
                *d = g * (hp - nv) * zv * (1.0 - zv);
            }
            // ∂L/∂(r⊙h_prev) = dan · U_nᵀ.
            kernels::gemm_nt(
                m,
                hd,
                hd,
                dan.as_slice(),
                self.u_n.as_slice(),
                drh.as_mut_slice(),
                scratch,
            );
            // ∂L/∂r = drh ⊙ h_prev; through σ: dar = ∂L/∂r ⊙ r(1−r).
            for (((d, &dr), &hp), &rv) in dar
                .as_mut_slice()
                .iter_mut()
                .zip(drh.as_slice())
                .zip(h_prev.as_slice())
                .zip(r.as_slice())
            {
                *d = dr * hp * rv * (1.0 - rv);
            }

            // Parameter gradients, accumulated in fixed timestep order.
            accumulate_tn(x, daz, gw_z, tmp_w, scratch);
            accumulate_tn(x, dar, gw_r, tmp_w, scratch);
            accumulate_tn(x, dan, gw_n, tmp_w, scratch);
            accumulate_tn(h_prev, daz, gu_z, tmp_w, scratch);
            accumulate_tn(h_prev, dar, gu_r, tmp_w, scratch);
            accumulate_tn(rh, dan, gu_n, tmp_w, scratch);
            if tmp_b.capacity() < hd {
                scratch.note_grow();
            }
            daz.col_sums_into(tmp_b);
            for (g, &v) in gb_z.iter_mut().zip(tmp_b.iter()) {
                *g += v;
            }
            dar.col_sums_into(tmp_b);
            for (g, &v) in gb_r.iter_mut().zip(tmp_b.iter()) {
                *g += v;
            }
            dan.col_sums_into(tmp_b);
            for (g, &v) in gb_n.iter_mut().zip(tmp_b.iter()) {
                *g += v;
            }

            // ∂L/∂h_prev = dh⊙z + drh⊙r + daz·U_zᵀ + dar·U_rᵀ.
            for ((((d, &g), &zv), &dr), &rv) in dh_prev
                .as_mut_slice()
                .iter_mut()
                .zip(dh.as_slice())
                .zip(z.as_slice())
                .zip(drh.as_slice())
                .zip(r.as_slice())
            {
                *d = g * zv + dr * rv;
            }
            kernels::gemm_nt(
                m,
                hd,
                hd,
                daz.as_slice(),
                self.u_z.as_slice(),
                tmp_h.as_mut_slice(),
                scratch,
            );
            for (d, &v) in dh_prev.as_mut_slice().iter_mut().zip(tmp_h.as_slice()) {
                *d += v;
            }
            kernels::gemm_nt(
                m,
                hd,
                hd,
                dar.as_slice(),
                self.u_r.as_slice(),
                tmp_h.as_mut_slice(),
                scratch,
            );
            for (d, &v) in dh_prev.as_mut_slice().iter_mut().zip(tmp_h.as_slice()) {
                *d += v;
            }
            std::mem::swap(dh, dh_prev);
        }
    }
    // lint:end_no_alloc
}

/// The shared step computation behind [`Gru::step`] and
/// [`Gru::forward_seq`] — one code path, so chunked and one-shot
/// scoring cannot diverge.
// lint:no_alloc
#[allow(clippy::too_many_arguments)]
fn step_core(
    gru: &Gru,
    x: &Matrix,
    h_prev: &Matrix,
    z: &mut Matrix,
    r: &mut Matrix,
    n: &mut Matrix,
    rh: &mut Matrix,
    h_out: &mut Matrix,
    gx_z: &mut Matrix,
    gx_r: &mut Matrix,
    gx_n: &mut Matrix,
    gh: &mut Matrix,
    scratch: &mut Scratch,
) {
    let (m, in_dim, hd) = (x.rows(), gru.in_dim(), gru.hidden_dim());
    assert_eq!(x.cols(), in_dim, "gru step: input width");
    assert_eq!(h_prev.shape(), (m, hd), "gru step: hidden shape");
    for buf in [
        &mut *z,
        &mut *r,
        &mut *n,
        &mut *rh,
        &mut *h_out,
        &mut *gx_z,
        &mut *gx_r,
        &mut *gx_n,
        &mut *gh,
    ] {
        if buf.ensure_shape(m, hd) {
            scratch.note_grow();
        }
    }

    // Input-side products for all three gates.
    kernels::gemm(
        m,
        in_dim,
        hd,
        x.as_slice(),
        gru.w_z.as_slice(),
        gx_z.as_mut_slice(),
        scratch,
    );
    kernels::gemm(
        m,
        in_dim,
        hd,
        x.as_slice(),
        gru.w_r.as_slice(),
        gx_r.as_mut_slice(),
        scratch,
    );
    kernels::gemm(
        m,
        in_dim,
        hd,
        x.as_slice(),
        gru.w_n.as_slice(),
        gx_n.as_mut_slice(),
        scratch,
    );

    // Update gate: z = σ(x W_z + h_prev U_z + b_z).
    kernels::gemm(
        m,
        hd,
        hd,
        h_prev.as_slice(),
        gru.u_z.as_slice(),
        gh.as_mut_slice(),
        scratch,
    );
    gate_combine(z, gx_z, gh, &gru.b_z, sigmoid);
    // Reset gate: r = σ(x W_r + h_prev U_r + b_r).
    kernels::gemm(
        m,
        hd,
        hd,
        h_prev.as_slice(),
        gru.u_r.as_slice(),
        gh.as_mut_slice(),
        scratch,
    );
    gate_combine(r, gx_r, gh, &gru.b_r, sigmoid);
    // rh = r ⊙ h_prev (cached: the candidate's recurrent input and
    // the `gU_n` accumulation operand in BPTT).
    for ((d, &rv), &hv) in rh
        .as_mut_slice()
        .iter_mut()
        .zip(r.as_slice())
        .zip(h_prev.as_slice())
    {
        *d = rv * hv;
    }
    // Candidate: n = tanh(x W_n + rh U_n + b_n).
    kernels::gemm(
        m,
        hd,
        hd,
        rh.as_slice(),
        gru.u_n.as_slice(),
        gh.as_mut_slice(),
        scratch,
    );
    gate_combine(n, gx_n, gh, &gru.b_n, f64::tanh);
    // h = (1 − z) ⊙ n + z ⊙ h_prev.
    for (((d, &zv), &nv), &hp) in h_out
        .as_mut_slice()
        .iter_mut()
        .zip(z.as_slice())
        .zip(n.as_slice())
        .zip(h_prev.as_slice())
    {
        *d = (1.0 - zv) * nv + zv * hp;
    }
}

/// `out[i,j] = f(gx[i,j] + gh[i,j] + bias[j])` — a single fixed-order
/// elementwise pass, so the gate is deterministic by construction.
fn gate_combine(out: &mut Matrix, gx: &Matrix, gh: &Matrix, bias: &[f64], f: fn(f64) -> f64) {
    let hd = bias.len();
    for ((orow, gxrow), ghrow) in out
        .as_mut_slice()
        .chunks_exact_mut(hd)
        .zip(gx.as_slice().chunks_exact(hd))
        .zip(gh.as_slice().chunks_exact(hd))
    {
        for (j, o) in orow.iter_mut().enumerate() {
            *o = f(gxrow[j] + ghrow[j] + bias[j]);
        }
    }
}

/// `acc += aᵀ · b` via [`kernels::gemm_tn`] into a reusable temporary
/// (the kernel overwrites its output, so accumulation is an explicit
/// fixed-order elementwise add).
fn accumulate_tn(
    a: &Matrix,
    b: &Matrix,
    acc: &mut Matrix,
    tmp: &mut Matrix,
    scratch: &mut Scratch,
) {
    let (m, ca, cb) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(acc.shape(), (ca, cb), "accumulate_tn: accumulator shape");
    if tmp.ensure_shape(ca, cb) {
        scratch.note_grow();
    }
    kernels::gemm_tn(
        m,
        ca,
        cb,
        a.as_slice(),
        b.as_slice(),
        tmp.as_mut_slice(),
        scratch,
    );
    for (d, &v) in acc.as_mut_slice().iter_mut().zip(tmp.as_slice()) {
        *d += v;
    }
}
// lint:end_no_alloc

/// Caller-owned buffers for repeated GRU steps and BPTT passes — the
/// recurrent analogue of [`crate::MlpWorkspace`].
#[derive(Debug, Clone, Default)]
pub struct GruWorkspace {
    pub(crate) scratch: Scratch,
    // Per-step GEMM outputs (overwritten every step).
    gx_z: Matrix,
    gx_r: Matrix,
    gx_n: Matrix,
    gh: Matrix,
    // Gate caches for the stateful single-step path.
    step_z: Matrix,
    step_r: Matrix,
    step_n: Matrix,
    step_rh: Matrix,
    /// `hs[0]` is the initial state copy; `hs[t+1]` the state after
    /// consuming `xs[t]`.
    hs: Vec<Matrix>,
    zs: Vec<Matrix>,
    rs: Vec<Matrix>,
    ns: Vec<Matrix>,
    rhs: Vec<Matrix>,
    // BPTT temporaries.
    dh: Matrix,
    dh_prev: Matrix,
    daz: Matrix,
    dar: Matrix,
    dan: Matrix,
    drh: Matrix,
    tmp_h: Matrix,
    tmp_w: Matrix,
    tmp_b: Vec<f64>,
    // Parameter gradient accumulators.
    gw_z: Matrix,
    gw_r: Matrix,
    gw_n: Matrix,
    gu_z: Matrix,
    gu_r: Matrix,
    gu_n: Matrix,
    gb_z: Vec<f64>,
    gb_r: Vec<f64>,
    gb_n: Vec<f64>,
}

impl GruWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-growth events since creation. Flat across
    /// iterations ⇒ the steady state is allocation-free.
    pub fn reallocs(&self) -> u64 {
        self.scratch.reallocs()
    }

    /// The GEMM scratch, for callers composing their own kernel calls
    /// with this workspace's buffers.
    pub fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    /// The final hidden state of the last [`Gru::forward_seq`] call.
    ///
    /// # Panics
    ///
    /// Panics if no sequence forward pass has run yet.
    pub fn h_last(&self) -> &Matrix {
        self.hs.last().expect("forward_seq has run")
    }

    /// The cached hidden state after `t` timesteps (`t = 0` is the
    /// initial state copy).
    pub fn hidden(&self, t: usize) -> &Matrix {
        &self.hs[t]
    }

    /// `∂L/∂W_z` from the last [`Gru::backward_seq`].
    pub fn grad_w_z(&self) -> &Matrix {
        &self.gw_z
    }

    /// `∂L/∂W_r` from the last [`Gru::backward_seq`].
    pub fn grad_w_r(&self) -> &Matrix {
        &self.gw_r
    }

    /// `∂L/∂W_n` from the last [`Gru::backward_seq`].
    pub fn grad_w_n(&self) -> &Matrix {
        &self.gw_n
    }

    /// `∂L/∂U_z` from the last [`Gru::backward_seq`].
    pub fn grad_u_z(&self) -> &Matrix {
        &self.gu_z
    }

    /// `∂L/∂U_r` from the last [`Gru::backward_seq`].
    pub fn grad_u_r(&self) -> &Matrix {
        &self.gu_r
    }

    /// `∂L/∂U_n` from the last [`Gru::backward_seq`].
    pub fn grad_u_n(&self) -> &Matrix {
        &self.gu_n
    }

    /// `∂L/∂b_z` from the last [`Gru::backward_seq`].
    pub fn grad_b_z(&self) -> &[f64] {
        &self.gb_z
    }

    /// `∂L/∂b_r` from the last [`Gru::backward_seq`].
    pub fn grad_b_r(&self) -> &[f64] {
        &self.gb_r
    }

    /// `∂L/∂b_n` from the last [`Gru::backward_seq`].
    pub fn grad_b_n(&self) -> &[f64] {
        &self.gb_n
    }

    /// Sizes the per-timestep cache vectors (spine growth only happens
    /// on first use or when the sequence gets longer).
    fn prepare(&mut self, t_len: usize) {
        if self.hs.capacity() < t_len + 1 {
            self.scratch.note_grow();
        }
        self.hs.resize_with(t_len + 1, Matrix::default);
        self.zs.resize_with(t_len, Matrix::default);
        self.rs.resize_with(t_len, Matrix::default);
        self.ns.resize_with(t_len, Matrix::default);
        self.rhs.resize_with(t_len, Matrix::default);
    }

    /// Shapes and zeroes the parameter-gradient accumulators.
    fn prepare_grads(&mut self, in_dim: usize, hd: usize) {
        for m in [&mut self.gw_z, &mut self.gw_r, &mut self.gw_n] {
            if m.ensure_shape(in_dim, hd) {
                self.scratch.note_grow();
            }
            m.as_mut_slice().fill(0.0);
        }
        for m in [&mut self.gu_z, &mut self.gu_r, &mut self.gu_n] {
            if m.ensure_shape(hd, hd) {
                self.scratch.note_grow();
            }
            m.as_mut_slice().fill(0.0);
        }
        for b in [&mut self.gb_z, &mut self.gb_r, &mut self.gb_n] {
            if b.capacity() < hd {
                self.scratch.note_grow();
            }
            b.clear();
            b.resize(hd, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_seq(t_len: usize, rows: usize, cols: usize) -> Vec<Matrix> {
        (0..t_len)
            .map(|t| {
                Matrix::from_fn(rows, cols, |r, c| {
                    (((t * rows + r) * cols + c) as f64 * 0.41).sin()
                })
            })
            .collect()
    }

    fn sum_h_last(gru: &Gru, xs: &[Matrix], h0: &Matrix) -> f64 {
        let mut ws = GruWorkspace::new();
        gru.forward_seq(xs, h0, &mut ws);
        ws.h_last().sum()
    }

    #[test]
    fn shapes_and_parameter_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let gru = Gru::new(5, 7, &mut rng);
        assert_eq!(gru.in_dim(), 5);
        assert_eq!(gru.hidden_dim(), 7);
        assert_eq!(gru.n_parameters(), 3 * (35 + 49 + 7));
        assert!(gru.is_finite());
        let xs = toy_seq(4, 3, 5);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &Matrix::zeros(3, 7), &mut ws);
        assert_eq!(ws.h_last().shape(), (3, 7));
    }

    #[test]
    fn zero_update_gate_bias_keeps_state_bounded() {
        // tanh candidate ⇒ |h| stays within [-1, 1] from h0 = 0.
        let mut rng = StdRng::seed_from_u64(2);
        let gru = Gru::new(4, 6, &mut rng);
        let xs = toy_seq(50, 2, 4);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &Matrix::zeros(2, 6), &mut ws);
        assert!(ws.h_last().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn backward_matches_finite_differences_on_every_parameter() {
        // Scalar loss L = sum(h_T); central differences on all nine
        // parameter tensors, BPTT through 3 timesteps.
        let mut rng = StdRng::seed_from_u64(3);
        let gru = Gru::new(3, 4, &mut rng);
        let xs = toy_seq(3, 2, 3);
        let h0 = Matrix::zeros(2, 4);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        gru.backward_seq(&xs, &Matrix::ones(2, 4), &mut ws);
        let eps = 1e-6;

        #[allow(clippy::type_complexity)]
        let mats: [(&str, fn(&mut Gru) -> &mut Matrix, &Matrix); 6] = [
            ("w_z", |g| &mut g.w_z, ws.grad_w_z()),
            ("w_r", |g| &mut g.w_r, ws.grad_w_r()),
            ("w_n", |g| &mut g.w_n, ws.grad_w_n()),
            ("u_z", |g| &mut g.u_z, ws.grad_u_z()),
            ("u_r", |g| &mut g.u_r, ws.grad_u_r()),
            ("u_n", |g| &mut g.u_n, ws.grad_u_n()),
        ];
        for (name, field, grad) in mats {
            let (rows, cols) = grad.shape();
            for rr in 0..rows {
                for cc in 0..cols {
                    let mut gp = gru.clone();
                    field(&mut gp)[(rr, cc)] += eps;
                    let mut gm = gru.clone();
                    field(&mut gm)[(rr, cc)] -= eps;
                    let numeric =
                        (sum_h_last(&gp, &xs, &h0) - sum_h_last(&gm, &xs, &h0)) / (2.0 * eps);
                    let analytic = grad[(rr, cc)];
                    assert!(
                        (numeric - analytic).abs() < 1e-5,
                        "d{name}[{rr},{cc}]: {numeric} vs {analytic}"
                    );
                }
            }
        }
        #[allow(clippy::type_complexity)]
        let biases: [(&str, fn(&mut Gru) -> &mut Vec<f64>, &[f64]); 3] = [
            ("b_z", |g| &mut g.b_z, ws.grad_b_z()),
            ("b_r", |g| &mut g.b_r, ws.grad_b_r()),
            ("b_n", |g| &mut g.b_n, ws.grad_b_n()),
        ];
        for (name, field, grad) in biases {
            for (i, &analytic) in grad.iter().enumerate() {
                let mut gp = gru.clone();
                field(&mut gp)[i] += eps;
                let mut gm = gru.clone();
                field(&mut gm)[i] -= eps;
                let numeric = (sum_h_last(&gp, &xs, &h0) - sum_h_last(&gm, &xs, &h0)) / (2.0 * eps);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "d{name}[{i}]: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn stepped_scoring_is_bitwise_equal_to_forward_seq() {
        let mut rng = StdRng::seed_from_u64(4);
        let gru = Gru::new(6, 5, &mut rng);
        let xs = toy_seq(9, 4, 6);
        let h0 = Matrix::zeros(4, 5);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        let expected: Vec<Matrix> = (1..=xs.len()).map(|t| ws.hidden(t).clone()).collect();

        let mut step_ws = GruWorkspace::new();
        let mut h = h0.clone();
        let mut h_next = Matrix::default();
        for (t, x) in xs.iter().enumerate() {
            gru.step(x, &h, &mut h_next, &mut step_ws);
            assert_eq!(h_next, expected[t], "timestep {t}");
            std::mem::swap(&mut h, &mut h_next);
        }
    }

    #[test]
    fn chunked_forward_equals_one_shot() {
        let mut rng = StdRng::seed_from_u64(5);
        let gru = Gru::new(4, 8, &mut rng);
        let xs = toy_seq(10, 3, 4);
        let h0 = Matrix::zeros(3, 8);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        let one_shot = ws.h_last().clone();

        for split in [1, 4, 7, 9] {
            let mut ws2 = GruWorkspace::new();
            gru.forward_seq(&xs[..split], &h0, &mut ws2);
            let carried = ws2.h_last().clone();
            gru.forward_seq(&xs[split..], &carried, &mut ws2);
            assert_eq!(ws2.h_last(), &one_shot, "split at {split}");
        }
    }

    #[test]
    fn batched_step_rows_equal_solo_steps() {
        // The serve contract: a sensor scored inside a batched step
        // gets the bit-identical hidden state it would get alone.
        let mut rng = StdRng::seed_from_u64(6);
        let gru = Gru::new(5, 6, &mut rng);
        let x = Matrix::from_fn(7, 5, |r, c| ((r * 5 + c) as f64 * 0.29).cos());
        let h_prev = Matrix::from_fn(7, 6, |r, c| ((r * 6 + c) as f64 * 0.17).sin());
        let mut ws = GruWorkspace::new();
        let mut h_batch = Matrix::default();
        gru.step(&x, &h_prev, &mut h_batch, &mut ws);
        for row in 0..7 {
            let xr = Matrix::from_fn(1, 5, |_, c| x[(row, c)]);
            let hr = Matrix::from_fn(1, 6, |_, c| h_prev[(row, c)]);
            let mut h_solo = Matrix::default();
            gru.step(&xr, &hr, &mut h_solo, &mut ws);
            assert_eq!(h_solo.row(0), h_batch.row(row), "row {row}");
        }
    }

    #[test]
    fn steady_state_passes_do_not_reallocate() {
        let mut rng = StdRng::seed_from_u64(8);
        let gru = Gru::new(6, 10, &mut rng);
        let xs = toy_seq(5, 8, 6);
        let h0 = Matrix::zeros(8, 10);
        let mut ws = GruWorkspace::new();
        gru.forward_seq(&xs, &h0, &mut ws);
        gru.backward_seq(&xs, &Matrix::ones(8, 10), &mut ws);
        let warm = ws.reallocs();
        for _ in 0..20 {
            gru.forward_seq(&xs, &h0, &mut ws);
            gru.backward_seq(&xs, &Matrix::ones(8, 10), &mut ws);
        }
        assert_eq!(ws.reallocs(), warm, "steady-state pass reallocated");

        // The stateful single-step path must be allocation-free too.
        let mut h = h0.clone();
        let mut h_next = Matrix::default();
        gru.step(&xs[0], &h, &mut h_next, &mut ws);
        std::mem::swap(&mut h, &mut h_next);
        let warm_step = ws.reallocs();
        for x in xs.iter().cycle().take(40) {
            gru.step(x, &h, &mut h_next, &mut ws);
            std::mem::swap(&mut h, &mut h_next);
        }
        assert_eq!(ws.reallocs(), warm_step, "steady-state step reallocated");
    }
}
