//! The tape: nodes, forward ops, and the backward pass.

use std::rc::Rc;

use rgae_linalg::{sigmoid, softplus, Csr, DecoderNumerics, Mat};

use crate::{Error, Result};

/// Handle to a node on the tape. Cheap to copy; only valid for the
/// [`Graph`] that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Everything backward needs to know about how a node was produced.
enum Op {
    /// Leaf that accumulates gradient (parameters).
    Leaf,
    /// Leaf that does not track gradient (data).
    Constant,
    /// `C = A · B`.
    MatMul(Var, Var),
    /// `S = Z · Zᵀ` (inner-product decoder logits).
    Gram(Var),
    /// `Y = S · X` with a constant sparse left factor.
    Spmm(Rc<Csr>, Var),
    /// `Y = A + B`.
    Add(Var, Var),
    /// `Y = A ∘ B`.
    Hadamard(Var, Var),
    /// `Y = c · A`.
    Scale(Var, f64),
    /// `Y = A + 1·b` (row-broadcast bias, `b` is `1×c`).
    AddBias(Var, Var),
    /// `Y = relu(A)`.
    Relu(Var),
    /// `Y = exp(A)`.
    Exp(Var),
    /// `Y = 1 / (1 + A)` — the Student-t kernel numerator.
    RecipOnePlus(Var),
    /// Rows rescaled to sum to one.
    RowNormalize(Var),
    /// `Y = X[idx, :]`.
    GatherRows(Var, Rc<Vec<usize>>),
    /// `D_ik = ‖z_i − μ_k‖²`.
    PairwiseSqDists(Var, Var),
    /// `L_ik = log N(z_i; μ_k, diag(exp(lv_k)))`.
    GaussLogPdf(Var, Var, Var),
    /// Scalar `Σ A`.
    Sum(Var),
    /// Weighted binary cross-entropy with logits against a constant sparse
    /// binary target; scalar `norm · mean(...)`.
    BceLogitsSparse {
        logits: Var,
        target: Rc<Csr>,
        pos_weight: f64,
        norm: f64,
    },
    /// Fused `bce_logits_sparse(gram(z), …)`: the scalar loss node, with
    /// the latent gradient `dZ` (at unit upstream gradient) precomputed by
    /// the tiled forward pass — no N×N logits on the tape.
    GramBceFused {
        z: Var,
        /// `Σ_j (c_ij + c_ji) z_j` with the `norm/N²` scale folded in;
        /// `None` when `z` does not track gradient.
        dz_unit: Option<Rc<Mat>>,
    },
    /// Mean BCE with logits against a constant dense target in `[0,1]`.
    BceLogitsDense(Var, Rc<Mat>),
    /// Scalar `Σ q log(q / p)` with constant `q`.
    KlDivConstQ(Var, Rc<Mat>),
    /// Scalar `-½ Σ (1 + lv − μ² − e^{lv})` (KL to a standard normal).
    GaussianKl(Var, Var),
}

struct Node {
    /// Node values are write-once, so they live behind an `Rc`: constants
    /// built from shared data ([`Graph::constant_shared`]) alias the
    /// caller's allocation instead of deep-copying it every step.
    value: Rc<Mat>,
    op: Op,
    /// Whether any ancestor is a gradient-tracking leaf.
    needs_grad: bool,
}

/// A write-once computation tape.
///
/// See the crate docs for the usage pattern. All binary ops validate shapes
/// and return [`Error::Shape`] on mismatch.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Mat>>,
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, value: impl Into<Rc<Mat>>, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value: value.into(),
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Mat {
        &self.nodes[v.0].value
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Scalar value of a `1×1` node.
    pub fn scalar(&self, v: Var) -> f64 {
        debug_assert_eq!(self.shape(v), (1, 1));
        self.nodes[v.0].value.as_slice()[0]
    }

    /// Gradient of a node after [`Graph::backward`].
    pub fn grad(&self, v: Var) -> Result<&Mat> {
        self.grads
            .get(v.0)
            .and_then(|g| g.as_ref())
            .ok_or(Error::NoGradient)
    }

    /// A gradient-tracking leaf (a parameter).
    pub fn leaf(&mut self, value: Mat) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// A non-tracking constant (data).
    pub fn constant(&mut self, value: Mat) -> Var {
        self.push(value, Op::Constant, false)
    }

    /// A non-tracking constant that aliases an existing shared matrix —
    /// no deep copy. Use for per-step tapes over static data (features,
    /// targets) that would otherwise be cloned every epoch.
    pub fn constant_shared(&mut self, value: &Rc<Mat>) -> Var {
        self.push(Rc::clone(value), Op::Constant, false)
    }

    /// `A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value)?;
        let ng = self.needs(a) || self.needs(b);
        Ok(self.push(v, Op::MatMul(a, b), ng))
    }

    /// `Z · Zᵀ`, the inner-product decoder logits.
    pub fn gram(&mut self, z: Var) -> Var {
        let v = self.nodes[z.0].value.gram();
        let ng = self.needs(z);
        self.push(v, Op::Gram(z), ng)
    }

    /// `S · X` with a constant sparse `S` (the graph filter Ã).
    pub fn spmm(&mut self, s: &Rc<Csr>, x: Var) -> Result<Var> {
        let v = s.spmm(&self.nodes[x.0].value)?;
        let ng = self.needs(x);
        Ok(self.push(v, Op::Spmm(Rc::clone(s), x), ng))
    }

    /// `A + B`.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.nodes[a.0].value.add(&self.nodes[b.0].value)?;
        let ng = self.needs(a) || self.needs(b);
        Ok(self.push(v, Op::Add(a, b), ng))
    }

    /// `A ∘ B` (elementwise).
    pub fn hadamard(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value)?;
        let ng = self.needs(a) || self.needs(b);
        Ok(self.push(v, Op::Hadamard(a, b), ng))
    }

    /// `c · A`.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        let v = self.nodes[a.0].value.scale(c);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, c), ng)
    }

    /// Row-broadcast bias add: `X + 1·b` where `b` is a `1×c` node.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Result<Var> {
        let bias = &self.nodes[b.0].value;
        if bias.rows() != 1 {
            return Err(Error::Invalid("add_bias: bias must be 1xC"));
        }
        let v = self.nodes[x.0].value.add_row_broadcast(bias.row(0))?;
        let ng = self.needs(x) || self.needs(b);
        Ok(self.push(v, Op::AddBias(x, b), ng))
    }

    /// `relu(A)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// `exp(A)` elementwise.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(f64::exp);
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng)
    }

    /// `1 / (1 + A)` elementwise (Student-t kernel numerator).
    pub fn recip_one_plus(&mut self, a: Var) -> Var {
        let v = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + x));
        let ng = self.needs(a);
        self.push(v, Op::RecipOnePlus(a), ng)
    }

    /// Rescale each row to sum to one.
    pub fn row_normalize(&mut self, a: Var) -> Var {
        let x = &self.nodes[a.0].value;
        let mut v = Mat::clone(x);
        for i in 0..v.rows() {
            let s: f64 = v.row(i).iter().sum();
            if s.abs() > f64::EPSILON {
                for e in v.row_mut(i) {
                    *e /= s;
                }
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::RowNormalize(a), ng)
    }

    /// Select rows (for Ω-restricted losses). Gradient scatters back.
    pub fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Result<Var> {
        let src = &self.nodes[x.0].value;
        if idx.iter().any(|&i| i >= src.rows()) {
            return Err(Error::Invalid("gather_rows: index out of bounds"));
        }
        let v = src.select_rows(idx);
        let ng = self.needs(x);
        Ok(self.push(v, Op::GatherRows(x, Rc::new(idx.to_vec())), ng))
    }

    /// `D_ik = ‖z_i − μ_k‖²` → `(n, k)` matrix.
    pub fn pairwise_sq_dists(&mut self, z: Var, mu: Var) -> Result<Var> {
        let v = self.nodes[z.0]
            .value
            .pairwise_sq_dists(&self.nodes[mu.0].value)?;
        let ng = self.needs(z) || self.needs(mu);
        Ok(self.push(v, Op::PairwiseSqDists(z, mu), ng))
    }

    /// Per-component diagonal-Gaussian log-density:
    /// `L_ik = −½ Σ_d [log 2π + lv_kd + (z_id − μ_kd)² e^{−lv_kd}]`.
    pub fn gauss_log_pdf(&mut self, z: Var, mu: Var, log_var: Var) -> Result<Var> {
        let zv = &self.nodes[z.0].value;
        let mv = &self.nodes[mu.0].value;
        let lv = &self.nodes[log_var.0].value;
        if zv.cols() != mv.cols() || mv.shape() != lv.shape() {
            return Err(Error::Invalid("gauss_log_pdf: shape mismatch"));
        }
        let (n, k) = (zv.rows(), mv.rows());
        let d = zv.cols();
        let ln2pi = (2.0 * std::f64::consts::PI).ln();
        let mut out = Mat::zeros(n, k);
        for i in 0..n {
            let zi = zv.row(i);
            for kk in 0..k {
                let mk = mv.row(kk);
                let lvk = lv.row(kk);
                let mut acc = 0.0;
                for di in 0..d {
                    let diff = zi[di] - mk[di];
                    acc += ln2pi + lvk[di] + diff * diff * (-lvk[di]).exp();
                }
                out[(i, kk)] = -0.5 * acc;
            }
        }
        let ng = self.needs(z) || self.needs(mu) || self.needs(log_var);
        Ok(self.push(out, Op::GaussLogPdf(z, mu, log_var), ng))
    }

    /// Scalar sum of all entries.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Mat::full(1, 1, self.nodes[a.0].value.sum());
        let ng = self.needs(a);
        self.push(v, Op::Sum(a), ng)
    }

    /// The GAE reconstruction loss: weighted binary cross-entropy with
    /// logits against a constant **sparse binary** target,
    /// `norm · mean[ pos_weight · t · softplus(−x) + (1 − t) · softplus(x) ]`.
    ///
    /// `pos_weight` re-balances the (rare) positive entries exactly like
    /// TensorFlow's `weighted_cross_entropy_with_logits`, and `norm` is the
    /// global rescaling the GAE reference implementation applies.
    pub fn bce_logits_sparse(
        &mut self,
        logits: Var,
        target: &Rc<Csr>,
        pos_weight: f64,
        norm: f64,
    ) -> Result<Var> {
        let x: &Mat = &self.nodes[logits.0].value;
        if x.shape() != (target.rows(), target.cols()) {
            return Err(Error::Invalid("bce_logits_sparse: shape mismatch"));
        }
        let (r, c) = x.shape();
        // Σ over all entries of softplus(x) (the t=0 branch), then correct
        // the positive entries. Row-parallel with an ordered reduction:
        // fixed-width row-chunk partials are folded in chunk order, so the
        // loss bits are independent of the thread count.
        let tgt: &Csr = target;
        let total = rgae_par::timed("bce_sparse_fwd", || {
            rgae_par::par_sum_by(r, |range| {
                let mut acc = 0.0;
                for i in range {
                    let row = x.row(i);
                    for &v in row {
                        acc += softplus(v);
                    }
                    for (j, t) in tgt.row_iter(i) {
                        let v = row[j];
                        // Replace softplus(v) with pos_weight·t·softplus(−v)
                        // plus (1−t)·softplus(v).
                        acc += pos_weight * t * softplus(-v) - t * softplus(v);
                    }
                }
                acc
            })
        });
        let denom = (r * c) as f64;
        let v = Mat::full(1, 1, norm * total / denom);
        let ng = self.needs(logits);
        Ok(self.push(
            v,
            Op::BceLogitsSparse {
                logits,
                target: Rc::clone(target),
                pos_weight,
                norm,
            },
            ng,
        ))
    }

    /// Fused [`Graph::gram`] + [`Graph::bce_logits_sparse`]: the GAE
    /// reconstruction loss computed directly from the embedding `z` by the
    /// tiled kernel in `rgae-linalg`, without materialising the N×N
    /// logits. The latent gradient is accumulated in the same pass (at
    /// unit upstream gradient) and rescaled at backward time if the
    /// upstream gradient differs from 1.
    ///
    /// `numerics` picks the kernel's softplus/σ evaluation. Under
    /// [`DecoderNumerics::Exact`] the loss bits match the legacy two-node
    /// path exactly, and so does the gradient at unit upstream gradient;
    /// [`DecoderNumerics::Fast`] stays within the bound documented on
    /// [`rgae_linalg::gram_bce_fused`].
    ///
    /// Peak decoder memory is O(B·N) for tile width B
    /// ([`rgae_linalg::set_decoder_tile`]); the
    /// legacy path stays available as the differential-test reference.
    pub fn gram_bce_logits_sparse(
        &mut self,
        z: Var,
        target: &Rc<Csr>,
        pos_weight: f64,
        norm: f64,
        numerics: DecoderNumerics,
    ) -> Result<Var> {
        let zv = &self.nodes[z.0].value;
        let n = zv.rows();
        if (target.rows(), target.cols()) != (n, n) {
            return Err(Error::Invalid("gram_bce_logits_sparse: shape mismatch"));
        }
        let ng = self.needs(z);
        // The legacy backward scales by `g·norm/N²` with `g = 1` at the
        // loss root; `1.0·norm` is exactly `norm`, so folding `norm/N²` in
        // here keeps the gradient bits identical.
        let grad_scale = ng.then(|| norm / ((n * n) as f64));
        let out = rgae_linalg::gram_bce_fused(zv, target, pos_weight, norm, grad_scale, numerics)
            .map_err(|_| Error::Invalid("gram_bce_logits_sparse: kernel shape mismatch"))?;
        let v = Mat::full(1, 1, out.loss);
        Ok(self.push(
            v,
            Op::GramBceFused {
                z,
                dz_unit: out.dz.map(Rc::new),
            },
            ng,
        ))
    }

    /// Mean BCE with logits against a constant dense target in `[0, 1]`
    /// (used for discriminator losses).
    pub fn bce_logits_dense(&mut self, logits: Var, target: &Rc<Mat>) -> Result<Var> {
        let x = &self.nodes[logits.0].value;
        if x.shape() != target.shape() {
            return Err(Error::Invalid("bce_logits_dense: shape mismatch"));
        }
        // Ordered fixed-width reduction: bit-identical at any thread count.
        let (xs, ts) = (x.as_slice(), target.as_slice());
        let total = rgae_par::timed("bce_dense_fwd", || {
            rgae_par::par_sum_by(xs.len(), |range| {
                let mut acc = 0.0;
                for idx in range {
                    let (v, t) = (xs[idx], ts[idx]);
                    acc += t * softplus(-v) + (1.0 - t) * softplus(v);
                }
                acc
            })
        });
        let denom = (x.rows() * x.cols()) as f64;
        let v = Mat::full(1, 1, total / denom);
        let ng = self.needs(logits);
        Ok(self.push(v, Op::BceLogitsDense(logits, Rc::clone(target)), ng))
    }

    /// `Σ q log(q/p)` with a constant target distribution `q` (the DEC
    /// clustering loss). Entries with `q = 0` contribute zero.
    pub fn kl_div_const_q(&mut self, p: Var, q: &Rc<Mat>) -> Result<Var> {
        let pv = &self.nodes[p.0].value;
        if pv.shape() != q.shape() {
            return Err(Error::Invalid("kl_div_const_q: shape mismatch"));
        }
        let (ps, qs) = (pv.as_slice(), q.as_slice());
        let total = rgae_par::timed("kl_div_fwd", || {
            rgae_par::par_sum_by(ps.len(), |range| {
                let mut acc = 0.0;
                for idx in range {
                    let (pe, qe) = (ps[idx], qs[idx]);
                    if qe > 0.0 {
                        acc += qe * (qe / pe.max(1e-12)).ln();
                    }
                }
                acc
            })
        });
        let v = Mat::full(1, 1, total);
        let ng = self.needs(p);
        Ok(self.push(v, Op::KlDivConstQ(p, Rc::clone(q)), ng))
    }

    /// `KL(N(μ, diag(e^{lv})) ‖ N(0, I)) = −½ Σ (1 + lv − μ² − e^{lv})`,
    /// summed over all entries (the VGAE latent regulariser).
    pub fn gaussian_kl(&mut self, mu: Var, log_var: Var) -> Result<Var> {
        let m = &self.nodes[mu.0].value;
        let lv = &self.nodes[log_var.0].value;
        if m.shape() != lv.shape() {
            return Err(Error::Invalid("gaussian_kl: shape mismatch"));
        }
        let (ms, ls) = (m.as_slice(), lv.as_slice());
        let total = rgae_par::timed("gaussian_kl_fwd", || {
            rgae_par::par_sum_by(ms.len(), |range| {
                let mut acc = 0.0;
                for idx in range {
                    let (mu_e, lv_e) = (ms[idx], ls[idx]);
                    acc += 1.0 + lv_e - mu_e * mu_e - lv_e.exp();
                }
                acc
            })
        });
        let v = Mat::full(1, 1, -0.5 * total);
        let ng = self.needs(mu) || self.needs(log_var);
        Ok(self.push(v, Op::GaussianKl(mu, log_var), ng))
    }

    /// Run reverse-mode accumulation from a scalar root.
    pub fn backward(&mut self, root: Var) -> Result<()> {
        let shape = self.shape(root);
        if shape != (1, 1) {
            return Err(Error::NonScalarRoot { shape });
        }
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[root.0] = Some(Mat::full(1, 1, 1.0));
        for id in (0..=root.0).rev() {
            if !self.nodes[id].needs_grad {
                continue;
            }
            let Some(g) = self.grads[id].take() else {
                continue;
            };
            self.backprop_node(id, &g)?;
            self.grads[id] = Some(g);
        }
        Ok(())
    }

    fn accum(&mut self, v: Var, delta: Mat) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        match &mut self.grads[v.0] {
            Some(g) => g.axpy(1.0, &delta).expect("gradient shapes agree"),
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&mut self, id: usize, g: &Mat) -> Result<()> {
        // Clones of small values are fine; large values (N×N decoder grids)
        // are only read through references before the accumulate calls.
        match &self.nodes[id].op {
            Op::Leaf | Op::Constant => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) && self.needs(b) {
                    // The two input gradients are independent; fork-join them.
                    // Captures are narrowed to `&Mat` (Sync) so the closures
                    // are Send despite the tape's Rc-holding nodes.
                    let av: &Mat = &self.nodes[a.0].value;
                    let bv: &Mat = &self.nodes[b.0].value;
                    let (da, db) = rgae_par::par_join(|| g.matmul_t(bv), || av.t_matmul(g));
                    self.accum(a, da?);
                    self.accum(b, db?);
                } else if self.needs(a) {
                    let da = g.matmul_t(&self.nodes[b.0].value)?;
                    self.accum(a, da);
                } else if self.needs(b) {
                    let db = self.nodes[a.0].value.t_matmul(g)?;
                    self.accum(b, db);
                }
            }
            Op::Gram(z) => {
                let z = *z;
                if self.needs(z) {
                    // dZ = (G + Gᵀ) Z.
                    let gt = g.transpose();
                    let sym = g.add(&gt)?;
                    let dz = sym.matmul(&self.nodes[z.0].value)?;
                    self.accum(z, dz);
                }
            }
            Op::Spmm(s, x) => {
                let x = *x;
                if self.needs(x) {
                    let dx = s.t_spmm(g)?;
                    self.accum(x, dx);
                }
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accum(a, g.clone());
                self.accum(b, g.clone());
            }
            Op::Hadamard(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let da = g.hadamard(&self.nodes[b.0].value)?;
                    self.accum(a, da);
                }
                if self.needs(b) {
                    let db = g.hadamard(&self.nodes[a.0].value)?;
                    self.accum(b, db);
                }
            }
            Op::Scale(a, c) => {
                let (a, c) = (*a, *c);
                self.accum(a, g.scale(c));
            }
            Op::AddBias(x, b) => {
                let (x, b) = (*x, *b);
                self.accum(x, g.clone());
                if self.needs(b) {
                    let sums = g.col_sums();
                    let db = Mat::from_vec(1, sums.len(), sums).expect("sized");
                    self.accum(b, db);
                }
            }
            Op::Relu(a) => {
                let a = *a;
                let mask = self.nodes[a.0]
                    .value
                    .map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                self.accum(a, g.hadamard(&mask)?);
            }
            Op::Exp(a) => {
                let a = *a;
                let y = self.nodes[id].value.clone();
                self.accum(a, g.hadamard(&y)?);
            }
            Op::RecipOnePlus(a) => {
                let a = *a;
                let y = &self.nodes[id].value;
                let dy = y.map(|v| -v * v);
                self.accum(a, g.hadamard(&dy)?);
            }
            Op::RowNormalize(a) => {
                let a = *a;
                if self.needs(a) {
                    let x = &self.nodes[a.0].value;
                    let y = &self.nodes[id].value;
                    let mut dx = Mat::zeros(x.rows(), x.cols());
                    for i in 0..x.rows() {
                        let s: f64 = x.row(i).iter().sum();
                        if s.abs() <= f64::EPSILON {
                            continue;
                        }
                        let gy: f64 = g
                            .row(i)
                            .iter()
                            .zip(y.row(i).iter())
                            .map(|(&gg, &yy)| gg * yy)
                            .sum();
                        for (d, &gg) in dx.row_mut(i).iter_mut().zip(g.row(i).iter()) {
                            *d = (gg - gy) / s;
                        }
                    }
                    self.accum(a, dx);
                }
            }
            Op::GatherRows(x, idx) => {
                let x = *x;
                if self.needs(x) {
                    let src = self.shape(x);
                    let mut dx = Mat::zeros(src.0, src.1);
                    for (k, &i) in idx.iter().enumerate() {
                        for (d, &gg) in dx.row_mut(i).iter_mut().zip(g.row(k).iter()) {
                            *d += gg;
                        }
                    }
                    self.accum(x, dx);
                }
            }
            Op::PairwiseSqDists(z, mu) => {
                let (z, mu) = (*z, *mu);
                let zv = &self.nodes[z.0].value;
                let mv = &self.nodes[mu.0].value;
                let (n, k) = g.shape();
                let d = zv.cols();
                let mut dz = Mat::zeros(n, d);
                let mut dm = Mat::zeros(k, d);
                for i in 0..n {
                    for kk in 0..k {
                        let gg = g[(i, kk)];
                        if gg == 0.0 {
                            continue;
                        }
                        for di in 0..d {
                            let delta = gg * 2.0 * (zv[(i, di)] - mv[(kk, di)]);
                            dz[(i, di)] += delta;
                            dm[(kk, di)] -= delta;
                        }
                    }
                }
                if self.needs(z) {
                    self.accum(z, dz);
                }
                if self.needs(mu) {
                    self.accum(mu, dm);
                }
            }
            Op::GaussLogPdf(z, mu, lv) => {
                let (z, mu, lv) = (*z, *mu, *lv);
                let zv = &self.nodes[z.0].value;
                let mv = &self.nodes[mu.0].value;
                let lvv = &self.nodes[lv.0].value;
                let (n, k) = g.shape();
                let d = zv.cols();
                let mut dz = Mat::zeros(n, d);
                let mut dm = Mat::zeros(k, d);
                let mut dl = Mat::zeros(k, d);
                for i in 0..n {
                    for kk in 0..k {
                        let gg = g[(i, kk)];
                        if gg == 0.0 {
                            continue;
                        }
                        for di in 0..d {
                            let inv_var = (-lvv[(kk, di)]).exp();
                            let diff = zv[(i, di)] - mv[(kk, di)];
                            dz[(i, di)] += gg * (-diff * inv_var);
                            dm[(kk, di)] += gg * (diff * inv_var);
                            dl[(kk, di)] += gg * (-0.5) * (1.0 - diff * diff * inv_var);
                        }
                    }
                }
                if self.needs(z) {
                    self.accum(z, dz);
                }
                if self.needs(mu) {
                    self.accum(mu, dm);
                }
                if self.needs(lv) {
                    self.accum(lv, dl);
                }
            }
            Op::Sum(a) => {
                let a = *a;
                let (r, c) = self.shape(a);
                let gs = g.as_slice()[0];
                self.accum(a, Mat::full(r, c, gs));
            }
            Op::BceLogitsSparse {
                logits,
                target,
                pos_weight,
                norm,
            } => {
                let logits = *logits;
                let (pos_weight, norm) = (*pos_weight, *norm);
                let target = Rc::clone(target);
                if self.needs(logits) {
                    let x = &self.nodes[logits.0].value;
                    let (r, c) = x.shape();
                    let gs = g.as_slice()[0] * norm / ((r * c) as f64);
                    let dx = rgae_par::timed("bce_sparse_bwd", || {
                        // t = 0 branch everywhere: d softplus(x) = σ(x);
                        // the dense map runs on the pool.
                        let mut dx = x.map(|v| gs * sigmoid(v));
                        // Correct the positive entries:
                        // d[pw·t·softplus(−x) + (1−t)·softplus(x)]
                        //   = pw·t·(σ(x) − 1) + (1 − t)·σ(x).
                        for i in 0..r {
                            for (j, t) in target.row_iter(i) {
                                let v = x[(i, j)];
                                let s = sigmoid(v);
                                dx[(i, j)] = gs * (pos_weight * t * (s - 1.0) + (1.0 - t) * s);
                            }
                        }
                        dx
                    });
                    self.accum(logits, dx);
                }
            }
            Op::GramBceFused { z, dz_unit } => {
                let (z, dz_unit) = (*z, dz_unit.clone());
                if self.needs(z) {
                    let du = dz_unit.ok_or(Error::NoGradient)?;
                    let gs = g.as_slice()[0];
                    // The forward pass baked in the unit upstream gradient;
                    // gs == 1.0 keeps those exact bits (the training loss
                    // roots and `recon_grad` land here).
                    let dz = if gs == 1.0 {
                        Mat::clone(&du)
                    } else {
                        du.scale(gs)
                    };
                    self.accum(z, dz);
                }
            }
            Op::BceLogitsDense(logits, target) => {
                let logits = *logits;
                let target = Rc::clone(target);
                if self.needs(logits) {
                    let x = &self.nodes[logits.0].value;
                    let (r, c) = x.shape();
                    let gs = g.as_slice()[0] / ((r * c) as f64);
                    let dx = x.zip_map(&target, |v, t| gs * (sigmoid(v) - t))?;
                    self.accum(logits, dx);
                }
            }
            Op::KlDivConstQ(p, q) => {
                let p = *p;
                let q = Rc::clone(q);
                if self.needs(p) {
                    let pv = &self.nodes[p.0].value;
                    let gs = g.as_slice()[0];
                    let dp = pv.zip_map(&q, |pe, qe| {
                        if qe > 0.0 {
                            -gs * qe / pe.max(1e-12)
                        } else {
                            0.0
                        }
                    })?;
                    self.accum(p, dp);
                }
            }
            Op::GaussianKl(mu, lv) => {
                let (mu, lv) = (*mu, *lv);
                let gs = g.as_slice()[0];
                if self.needs(mu) {
                    let dm = self.nodes[mu.0].value.map(|m| gs * m);
                    self.accum(mu, dm);
                }
                if self.needs(lv) {
                    let dl = self.nodes[lv.0].value.map(|l| gs * 0.5 * (l.exp() - 1.0));
                    self.accum(lv, dl);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(r: usize, c: usize, v: &[f64]) -> Mat {
        Mat::from_vec(r, c, v.to_vec()).unwrap()
    }

    #[test]
    fn leaf_and_constant_values() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1.0, 2.0]));
        let b = g.constant(m(1, 2, &[3.0, 4.0]));
        assert_eq!(g.value(a).as_slice(), &[1.0, 2.0]);
        assert_eq!(g.value(b).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let a = g.leaf(m(1, 2, &[1.0, 2.0]));
        assert!(matches!(
            g.backward(a),
            Err(Error::NonScalarRoot { shape: (1, 2) })
        ));
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let mut g = Graph::new();
        let a = g.leaf(m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let s = g.sum(a);
        g.backward(s).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[1.0; 4]);
    }

    #[test]
    fn grad_of_mean_is_inverse_count() {
        // The tape has no mean op: a mean is `scale(sum, 1/n)`.
        let mut g = Graph::new();
        let a = g.leaf(m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let total = g.sum(a);
        let s = g.scale(total, 0.25);
        g.backward(s).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.25; 4]);
    }

    #[test]
    fn constant_gets_no_grad() {
        let mut g = Graph::new();
        let a = g.constant(m(1, 1, &[5.0]));
        let b = g.leaf(m(1, 1, &[2.0]));
        let p = g.hadamard(a, b).unwrap();
        let s = g.sum(p);
        g.backward(s).unwrap();
        assert!(g.grad(a).is_err());
        assert_eq!(g.grad(b).unwrap().as_slice(), &[5.0]);
    }

    #[test]
    fn matmul_grads_match_known() {
        // f = sum(A·B); dA = 1·Bᵀ rows, dB = Aᵀ·1.
        let mut g = Graph::new();
        let a = g.leaf(m(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let b = g.leaf(m(2, 2, &[5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b).unwrap();
        let s = g.sum(c);
        g.backward(s).unwrap();
        assert_eq!(g.grad(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = g.gather_rows(x, &[2, 2, 0]).unwrap();
        let s = g.sum(y);
        g.backward(s).unwrap();
        assert_eq!(
            g.grad(x).unwrap().as_slice(),
            &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]
        );
    }

    #[test]
    fn gather_rows_rejects_oob() {
        let mut g = Graph::new();
        let x = g.leaf(m(2, 1, &[1.0, 2.0]));
        assert!(g.gather_rows(x, &[2]).is_err());
    }

    #[test]
    fn relu_kills_negative_grad() {
        let mut g = Graph::new();
        let x = g.leaf(m(1, 3, &[-1.0, 0.0, 2.0]));
        let y = g.relu(x);
        let s = g.sum(y);
        g.backward(s).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // f = sum(x + x) → grad 2.
        let mut g = Graph::new();
        let x = g.leaf(m(1, 1, &[3.0]));
        let y = g.add(x, x).unwrap();
        let s = g.sum(y);
        g.backward(s).unwrap();
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn row_normalize_forward_is_distribution() {
        let mut g = Graph::new();
        let x = g.leaf(m(2, 2, &[1.0, 3.0, 2.0, 2.0]));
        let y = g.row_normalize(x);
        assert_eq!(g.value(y).as_slice(), &[0.25, 0.75, 0.5, 0.5]);
    }

    #[test]
    fn bce_sparse_value_matches_naive() {
        let mut g = Graph::new();
        let x = g.leaf(m(2, 2, &[0.5, -1.0, 2.0, 0.0]));
        let t = Rc::new(Csr::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap());
        let loss = g.bce_logits_sparse(x, &t, 3.0, 0.7).unwrap();
        // Naive: mean over 4 entries of pw·t·sp(−x) + (1−t)·sp(x), × norm.
        let sp = softplus;
        let expect = 0.7 * (3.0 * sp(-0.5) + sp(-1.0) + sp(2.0) + 3.0 * sp(0.0)) / 4.0;
        assert!((g.scalar(loss) - expect).abs() < 1e-12);
    }

    #[test]
    fn gaussian_kl_zero_at_standard_normal() {
        let mut g = Graph::new();
        let mu = g.leaf(Mat::zeros(3, 2));
        let lv = g.leaf(Mat::zeros(3, 2));
        let kl = g.gaussian_kl(mu, lv).unwrap();
        assert!(g.scalar(kl).abs() < 1e-12);
        g.backward(kl).unwrap();
        assert!(g.grad(mu).unwrap().frob_norm() < 1e-12);
        assert!(g.grad(lv).unwrap().frob_norm() < 1e-12);
    }

    #[test]
    fn kl_div_zero_when_p_equals_q() {
        let mut g = Graph::new();
        let q = Rc::new(m(1, 2, &[0.3, 0.7]));
        let p = g.leaf(m(1, 2, &[0.3, 0.7]));
        let kl = g.kl_div_const_q(p, &q).unwrap();
        assert!(g.scalar(kl).abs() < 1e-12);
    }

    #[test]
    fn gram_matches_matmul_transpose_path() {
        let mut g = Graph::new();
        let z = g.leaf(m(3, 2, &[1.0, 0.5, -1.0, 2.0, 0.0, 1.0]));
        let s = g.gram(z);
        let expect = g.value(z).matmul(&g.value(z).transpose()).unwrap();
        assert!(g.value(s).max_abs_diff(&expect) < 1e-12);
    }
}
