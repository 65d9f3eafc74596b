//! Row-streaming, fused Gram + BCE decoder kernels.
//!
//! Every GAE variant in this workspace reconstructs the adjacency through
//! `σ(Z·Zᵀ)`, and the legacy pipeline materialises the full N×N logits
//! three times per step: once for the Gram forward, once for the BCE
//! forward scan, and once more for the backward coefficient matrix (plus a
//! transpose, an add, and an N×N·d matmul for the Gram backward). The
//! kernels here stream the same computation one row at a time: a task fills
//! row `i`'s N logits into a row buffer, evaluates their transcendentals in
//! one batch, and folds them into the loss and `dz_i` before it moves on to
//! row `i + 1`. Decoder scratch is a few row buffers per running task plus
//! one copy of `Zᵀ` — O(threads·N + N·d) — while the arithmetic stays bit
//! for bit identical to the legacy chain.
//!
//! # Determinism contract
//!
//! The loss reduction reuses the [`rgae_par::REDUCE_CHUNK`]-row partial
//! structure of `par_sum_by`: each 256-row chunk is one task that
//! accumulates serially (per row: every column's softplus in ascending
//! order, then the sparse-target corrections in CSR order — exactly the
//! legacy `bce_sparse_fwd` order), and the partials are folded in chunk
//! order. Which thread runs a chunk never changes what it computes, so the
//! bits are invariant to the thread count in either numerics mode (the fast
//! mode's batched transcendentals are pure per-element functions).
//!
//! The gradient rows replicate the legacy `(C + Cᵀ)·Z` element order: for
//! each row `i` the columns are scanned ascending, the symmetric
//! coefficient is formed as `c_ij + c_ji` (the same operand order as
//! `Mat::add` in the legacy Gram backward), exact zeros are skipped like
//! `Mat::matmul`'s zero fast path, and each `dz_ik` accumulates over
//! ascending `j`. `c_ji` needs the transposed target row, which is read
//! from a `target.transpose()` built once per call (O(nnz)).
//!
//! # Column lanes keep `Mat::gram`'s bits
//!
//! `Mat::gram` forms `s_ij` with one accumulator that starts at `0.0` and
//! adds `z_ik·z_jk` for ascending `k`. Vectorising that dot across `k`
//! (partial sums per lane, folded at the end) would reassociate it and
//! change the bits. The row fill vectorises across `j` instead: each SIMD
//! lane owns one column `j` of a [`LANES`]-column block and runs the very
//! same ascending-`k` chain, reading `Zᵀ` (built once per call, blocked so a
//! block's `d × LANES` values are contiguous). Every operation is a plain
//! multiply followed by a plain add — Rust never contracts them into a
//! fused multiply-add — so each lane rounds exactly like `Mat::gram`'s
//! scalar loop. The gradient does the same with the roles swapped: each
//! lane owns one latent dimension `k` and accumulates `c·z_jk` over
//! ascending `j`, in registers.
//!
//! # SIMD entries
//!
//! The per-chunk body is written once, portably, and compiled again under
//! `#[target_feature(enable = "avx2")]` and `"avx512f"`, like the batches
//! in [`crate::numerics`]; [`gram_bce_fused_with`] picks the entry through
//! a [`SimdLevel`]. The body uses only IEEE add, sub, mul, div, compares
//! and the libm calls of exact mode, so every entry produces the same bits.
//! [`gram_bce_fused`] takes the widest entry the CPU has: on a 2-vCPU
//! AVX-512 box, one serial fast-mode call with gradient at N = 1800,
//! d = 16 took about 33 ms through AVX-512, 44–48 ms through AVX2 and
//! 73–86 ms through the portable entry.

use rgae_par::REDUCE_CHUNK;

use crate::numerics::{
    batch_body, softplus_fast, DecoderNumerics, SimdLevel, FAST_SIGMOID_REL, FAST_SOFTPLUS_REL,
};
use crate::{sigmoid, softplus, Csr, Error, Mat, Result};

/// The former tile height of the panel-based decoder. The row-streaming
/// kernels hold no B×N panel, so this value has no effect; it stays public
/// only because existing configurations pin it.
pub const DEFAULT_DECODER_TILE: usize = 1024;

/// No-op, kept for configurations that still pin a tile height: the
/// row-streaming decoder has no tile, and its memory and results do not
/// depend on this setting.
pub fn set_decoder_tile(_rows: Option<usize>) {}

/// Columns per block of the row fill: each block runs `LANES` independent
/// accumulators, enough to cover the FP-add latency at AVX-512 width.
const LANES: usize = 32;

/// Row buffers each running decoder task allocates (logits, softplus, σ and
/// gradient coefficients).
const ROW_BUFFERS: usize = 4;

/// Peak scratch bytes of one [`gram_bce_fused`] call on an `n × d` latent
/// matrix: four row buffers (logits, softplus, σ, coefficients) for each
/// concurrently running task (at most one task per thread) plus the
/// blocked copy of `Zᵀ`: O(threads·N + N·d), where the legacy path peaks
/// at several dense N×N matrices. The `n × d` gradient is output, not
/// scratch.
pub fn fused_scratch_bytes(n: usize, d: usize) -> usize {
    let stride = padded(n);
    let tasks = rgae_par::threads().min(n.div_ceil(REDUCE_CHUNK));
    (tasks * ROW_BUFFERS * stride + stride * d) * std::mem::size_of::<f64>()
}

/// `n` rounded up to a whole number of [`LANES`]-column blocks.
fn padded(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// Result of [`gram_bce_fused`].
pub struct FusedGramBce {
    /// The scalar loss `norm · Σ/(N²)` — under exact numerics
    /// bit-identical to the legacy `Mat::gram` + `bce_logits_sparse`
    /// forward.
    pub loss: f64,
    /// `Σ_j (c_ij + c_ji) z_j` per row, with the coefficient scale folded
    /// in — under exact numerics bit-identical to the legacy backward at
    /// unit upstream gradient. `None` when `grad_scale` was `None`.
    pub dz: Option<Mat>,
}

/// The rows of the virtual Gram matrix `S = Z·Zᵀ`, filled one at a time
/// from a blocked `Zᵀ`: block `b` holds columns `b·LANES .. (b+1)·LANES`
/// as `d` consecutive runs of `LANES` values (zero past column `n`).
struct GramRows<'a> {
    z: &'a Mat,
    zt: Vec<f64>,
    level: SimdLevel,
}

impl<'a> GramRows<'a> {
    fn new(z: &'a Mat, level: SimdLevel) -> Self {
        let (n, d) = z.shape();
        let mut zt = vec![0.0f64; padded(n) * d];
        for j in 0..n {
            let block = &mut zt[(j / LANES) * d * LANES..][..d * LANES];
            for (k, &v) in z.row(j).iter().enumerate() {
                block[k * LANES + j % LANES] = v;
            }
        }
        GramRows { z, zt, level }
    }

    /// A zeroed row buffer of the padded width.
    fn buffer(&self) -> Vec<f64> {
        vec![0.0; padded(self.z.rows())]
    }

    /// Fill `buf` with row `i`'s logits and return the `n` real ones.
    fn fill<'b>(&self, i: usize, buf: &'b mut [f64]) -> &'b [f64] {
        let zi = self.z.row(i);
        match self.level {
            SimdLevel::Portable => fill_row_portable(zi, &self.zt, buf),
            // SAFETY: `level` passed `is_available` when it was chosen.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { fill_row_avx2(zi, &self.zt, buf) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { fill_row_avx512(zi, &self.zt, buf) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
        &buf[..self.z.rows()]
    }
}

/// `s[j] = z_i · z_j` for every column of the blocked `zt`, one column per
/// lane, each lane accumulating over ascending `k` from `0.0` — exactly
/// `Mat::gram`'s element order (see the module docs).
#[inline(always)]
fn fill_row_body(zi: &[f64], zt: &[f64], s: &mut [f64]) {
    let d = zi.len();
    if d == 0 {
        s.fill(0.0);
        return;
    }
    for (out, block) in s.chunks_exact_mut(LANES).zip(zt.chunks_exact(d * LANES)) {
        let mut acc = [0.0f64; LANES];
        for (&x, col) in zi.iter().zip(block.chunks_exact(LANES)) {
            for l in 0..LANES {
                acc[l] += x * col[l];
            }
        }
        out.copy_from_slice(&acc);
    }
}

fn fill_row_portable(zi: &[f64], zt: &[f64], s: &mut [f64]) {
    fill_row_body(zi, zt, s);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_row_avx2(zi: &[f64], zt: &[f64], s: &mut [f64]) {
    fill_row_body(zi, zt, s);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_row_avx512(zi: &[f64], zt: &[f64], s: &mut [f64]) {
    fill_row_body(zi, zt, s);
}

/// `softplus(x)` and `σ(x)` together, sharing the `exp` where the two
/// reference implementations in `crate::lib` evaluate the same one
/// (`x < 0`: both use `e = eˣ`). Bit-identical to calling each separately.
#[inline]
fn softplus_sigmoid(x: f64) -> (f64, f64) {
    if x < 0.0 {
        let e = x.exp();
        let sp = if x < -30.0 { e } else { e.ln_1p() };
        (sp, e / (1.0 + e))
    } else {
        let sp = if x > 30.0 { x } else { x.exp().ln_1p() };
        (sp, 1.0 / (1.0 + (-x).exp()))
    }
}

/// The read-only inputs of one [`gram_bce_fused`] call.
struct Fused<'a> {
    rows: GramRows<'a>,
    target: &'a Csr,
    /// The transposed target (row `i` holds the `t_ji`), present with a
    /// gradient.
    tt: Option<Csr>,
    pos_weight: f64,
    grad_scale: Option<f64>,
    numerics: DecoderNumerics,
}

/// One task's row buffers: logits, softplus, σ, and gradient coefficients.
struct RowScratch {
    s: Vec<f64>,
    sp: Vec<f64>,
    sig: Vec<f64>,
    coeff: Vec<f64>,
}

impl RowScratch {
    fn new(n: usize, grad: bool) -> Self {
        RowScratch {
            s: vec![0.0; padded(n)],
            sp: vec![0.0; n],
            sig: vec![0.0; n],
            coeff: vec![0.0; if grad { n } else { 0 }],
        }
    }
}

/// `gs·(pos_weight·t·(σ − 1) + (1 − t)·σ)` for a target entry `t`, `gs·σ`
/// without one — the legacy `bce_sparse_bwd` coefficient.
#[inline(always)]
fn coeff_at(t: Option<f64>, sig: f64, gs: f64, pos_weight: f64) -> f64 {
    match t {
        Some(t) => gs * (pos_weight * t * (sig - 1.0) + (1.0 - t) * sig),
        None => gs * sig,
    }
}

/// Accumulate `dz[k0..k0 + W] = Σ_j coeff[j]·z_j[k0..k0 + W]` over
/// ascending `j` in `W` register lanes, skipping exact-zero coefficients
/// like `Mat::matmul`, and return `W`. The same walk adds every `sp[j]` to
/// `loss` (in ascending `j`, before the skip), so the loss chain overlaps
/// the gradient chains.
#[inline(always)]
fn grad_lanes<const W: usize>(
    coeff: &[f64],
    sp: &[f64],
    z: &[f64],
    k0: usize,
    loss: &mut f64,
    dz: &mut [f64],
) -> usize {
    let d = dz.len();
    let mut acc = [0.0f64; W];
    let mut l_acc = *loss;
    for (j, (&c, zj)) in coeff.iter().zip(z.chunks_exact(d)).enumerate() {
        l_acc += sp[j];
        if c == 0.0 {
            continue;
        }
        let zj = &zj[k0..k0 + W];
        for l in 0..W {
            acc[l] += c * zj[l];
        }
    }
    *loss = l_acc;
    dz[k0..k0 + W].copy_from_slice(&acc);
    W
}

/// One reduce chunk: rows `row0 .. row0 + nrows`, each filled, evaluated
/// and folded in turn. Returns the chunk's loss partial, one running sum
/// over all its rows (regrouping it per row would change the addition
/// tree); writes `dz` (the chunk's `nrows × d` gradient rows) when the call
/// has a gradient.
#[inline(always)]
fn chunk_body(
    k: &Fused,
    row0: usize,
    nrows: usize,
    mut dz: Option<&mut [f64]>,
    buf: &mut RowScratch,
) -> f64 {
    let z = k.rows.z;
    let (n, d) = z.shape();
    let zs = z.as_slice();
    let fast = k.numerics == DecoderNumerics::Fast;
    let mut acc = 0.0;
    for r in 0..nrows {
        let i = row0 + r;
        fill_row_body(z.row(i), &k.rows.zt, &mut buf.s);
        let s = &buf.s[..n];
        let (sp, sig) = (&mut buf.sp[..], &mut buf.sig[..]);
        let dz_row = dz.as_deref_mut().map(|m| &mut m[r * d..(r + 1) * d]);
        match (fast, dz_row.is_some()) {
            (true, _) => batch_body(s, sp, sig),
            (false, true) => {
                for j in 0..n {
                    (sp[j], sig[j]) = softplus_sigmoid(s[j]);
                }
            }
            (false, false) => {
                for j in 0..n {
                    sp[j] = softplus(s[j]);
                }
            }
        }
        let (t_cols, t_vals) = (k.target.row_indices(i), k.target.row_values(i));
        match (dz_row, k.grad_scale, k.tt.as_ref()) {
            (Some(dz_row), Some(gs), Some(tt)) => {
                // Coefficients `c_ij + c_ji`: `gs·σ + gs·σ` off the target,
                // then the columns of the row's target and transposed-target
                // entries, merged in ascending order.
                let (sig, coeff) = (&buf.sig[..], &mut buf.coeff[..]);
                for j in 0..n {
                    coeff[j] = gs * sig[j] + gs * sig[j];
                }
                let (u_cols, u_vals) = (tt.row_indices(i), tt.row_values(i));
                let (mut a, mut b) = (0usize, 0usize);
                while a < t_cols.len() || b < u_cols.len() {
                    let ja = t_cols.get(a).copied().unwrap_or(usize::MAX);
                    let jb = u_cols.get(b).copied().unwrap_or(usize::MAX);
                    let j = ja.min(jb);
                    let t_ij = (ja == j).then(|| {
                        a += 1;
                        t_vals[a - 1]
                    });
                    let t_ji = (jb == j).then(|| {
                        b += 1;
                        u_vals[b - 1]
                    });
                    coeff[j] = coeff_at(t_ij, sig[j], gs, k.pos_weight)
                        + coeff_at(t_ji, sig[j], gs, k.pos_weight);
                }
                // One j-walk per group of latent lanes (16, then 8, then
                // one at a time); only the first feeds the loss chain.
                let sp = &buf.sp[..];
                let mut k0 = 0;
                while k0 < d {
                    let mut spare = 0.0;
                    let loss = if k0 == 0 { &mut acc } else { &mut spare };
                    k0 += match d - k0 {
                        16.. => grad_lanes::<16>(coeff, sp, zs, k0, loss, dz_row),
                        8.. => grad_lanes::<8>(coeff, sp, zs, k0, loss, dz_row),
                        _ => grad_lanes::<1>(coeff, sp, zs, k0, loss, dz_row),
                    };
                }
            }
            _ => {
                for &v in &buf.sp[..] {
                    acc += v;
                }
            }
        }
        // Positive-entry corrections, in CSR order — the legacy forward's
        // second per-row loop.
        for (&j, &t) in t_cols.iter().zip(t_vals) {
            let v = s[j];
            acc += if fast {
                k.pos_weight * t * softplus_fast(-v) - t * softplus_fast(v)
            } else {
                k.pos_weight * t * softplus(-v) - t * softplus(v)
            };
        }
    }
    acc
}

fn chunk_portable(
    k: &Fused,
    row0: usize,
    nrows: usize,
    dz: Option<&mut [f64]>,
    buf: &mut RowScratch,
) -> f64 {
    chunk_body(k, row0, nrows, dz, buf)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn chunk_avx2(
    k: &Fused,
    row0: usize,
    nrows: usize,
    dz: Option<&mut [f64]>,
    buf: &mut RowScratch,
) -> f64 {
    chunk_body(k, row0, nrows, dz, buf)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn chunk_avx512(
    k: &Fused,
    row0: usize,
    nrows: usize,
    dz: Option<&mut [f64]>,
    buf: &mut RowScratch,
) -> f64 {
    chunk_body(k, row0, nrows, dz, buf)
}

impl Fused<'_> {
    /// Run one reduce chunk through the call's SIMD entry.
    fn chunk(&self, ci: usize, dz: Option<&mut [f64]>) -> f64 {
        let n = self.rows.z.rows();
        let row0 = ci * REDUCE_CHUNK;
        let nrows = REDUCE_CHUNK.min(n - row0);
        let mut buf = RowScratch::new(n, dz.is_some());
        match self.rows.level {
            SimdLevel::Portable => chunk_portable(self, row0, nrows, dz, &mut buf),
            // SAFETY: `level` passed `is_available` in `gram_bce_fused_with`.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { chunk_avx2(self, row0, nrows, dz, &mut buf) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { chunk_avx512(self, row0, nrows, dz, &mut buf) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
    }
}

/// Fused, row-streaming weighted-BCE-over-Gram forward (+ optional
/// backward): computes `norm · mean[pos_weight · t · softplus(−z_iᵀz_j) +
/// (1 − t) · softplus(z_iᵀz_j)]` and, when `grad_scale = Some(gs)`, the
/// latent gradient rows `dZ_i = Σ_j (c_ij + c_ji) z_j` with
/// `c_ij = gs · (pos_weight · t_ij · (σ_ij − 1) + (1 − t_ij) · σ_ij)`,
/// without materialising the N×N logits. For the legacy-equivalent
/// gradient pass `gs = norm / N²` (the unit upstream gradient folded in).
///
/// `numerics` picks how softplus and σ are evaluated (see
/// [`crate::numerics`]). Under [`DecoderNumerics::Exact`] the loss and dZ
/// are bit-identical to the legacy chain. Under [`DecoderNumerics::Fast`]
/// each row's transcendentals are one batch; the logits, the reduction
/// order and the gradient order are the same in both modes, so both are
/// invariant to the thread count and the SIMD entry. Runs through the
/// widest entry this CPU has ([`SimdLevel::detected`]);
/// [`gram_bce_fused_with`] picks one.
///
/// # Fast-vs-exact bound
///
/// With `εf = FAST_SOFTPLUS_REL·u`, `εe(x) = 4u` (+ `e⁻ˣ/x` for `x > 30`,
/// `eˣ` for `x < −30`, where libm truncates) for softplus and `Δσ = (6 +
/// 5)u·σ` (libm `exp`/`log1p` taken as ≤ 1 ulp), each softplus term
/// differs between the modes by at most `(εf + εe)·softplus`, and each
/// positive correction by that of its two softplus values plus `2γ₃` of
/// its magnitude (its own roundings, in each mode). The two ordered
/// summations of the same `M = N² + nnz + chunks` terms each round by at
/// most `γ_M·Σ|term|` (`γ_m = m·u/(1 − m·u)`), so
/// `|ℓ_fast − ℓ_exact| ≤ norm/N² · (ΣΔterm + 2γ_M·Σ|term|)·(1 + γ₂) +
/// 2γ₂·|ℓ|`. Each coefficient `c = gs·(pos_weight·t·(σ − 1) + (1 − t)·σ)`
/// (`gs·σ` off target) differs by at most
/// `|gs|·(pos_weight·t + |1 − t|)·Δσ + 2γ₆·|c|` (`2γ₁` off target), their
/// sum `c_ij + c_ji` by those two gaps plus `2γ₁·(|c_ij| + |c_ji|)`, and
/// the ordered row accumulation adds `2γ_{N+1}·Σ_j (|c_ij| + |c_ji|)·|z_jk|`
/// to the bound on `dZ_ik`.
/// [`fast_exact_bound`] evaluates exactly these sums.
///
/// Reported under the `fused_gram_bce_fwd_bwd` kernel stat.
pub fn gram_bce_fused(
    z: &Mat,
    target: &Csr,
    pos_weight: f64,
    norm: f64,
    grad_scale: Option<f64>,
    numerics: DecoderNumerics,
) -> Result<FusedGramBce> {
    gram_bce_fused_with(
        SimdLevel::detected(),
        z,
        target,
        pos_weight,
        norm,
        grad_scale,
        numerics,
    )
}

/// [`gram_bce_fused`] through a chosen SIMD entry. Every entry gives the
/// same bits.
///
/// # Panics
/// If the CPU cannot run `level`.
pub fn gram_bce_fused_with(
    level: SimdLevel,
    z: &Mat,
    target: &Csr,
    pos_weight: f64,
    norm: f64,
    grad_scale: Option<f64>,
    numerics: DecoderNumerics,
) -> Result<FusedGramBce> {
    let (n, d) = z.shape();
    if target.rows() != n || target.cols() != n {
        return Err(Error::ShapeMismatch {
            op: "gram_bce_fused",
            lhs: (n, n),
            rhs: (target.rows(), target.cols()),
        });
    }
    assert!(
        level.is_available(),
        "{level:?} is not available on this CPU"
    );
    let denom = (n * n) as f64;
    rgae_par::timed("fused_gram_bce_fwd_bwd", || {
        let kernel = Fused {
            rows: GramRows::new(z, level),
            target,
            tt: grad_scale.map(|_| target.transpose()),
            pos_weight,
            grad_scale,
            numerics,
        };
        let mut partials = vec![0.0f64; n.div_ceil(REDUCE_CHUNK)];
        let mut dz = grad_scale.map(|_| Mat::zeros(n, d));
        match dz.as_mut() {
            // d == 0 leaves nothing to accumulate (and would give the zip
            // a zero-width chunk); fall through to the loss sweep.
            Some(dz) if d > 0 => rgae_par::par_zip_chunks_mut(
                dz.as_mut_slice(),
                REDUCE_CHUNK * d,
                &mut partials,
                1,
                |ci, dz_stripe, part| part[0] = kernel.chunk(ci, Some(dz_stripe)),
            ),
            _ => rgae_par::par_chunks_mut(&mut partials, 1, |ci, part| {
                part[0] = kernel.chunk(ci, None);
            }),
        }
        // Fold the chunk partials in order — the par_sum_by tail.
        let total: f64 = partials.iter().sum();
        Ok(FusedGramBce {
            loss: norm * total / denom,
            dz,
        })
    })
}

/// The fast-vs-exact bound of [`gram_bce_fused`] (see its docs), evaluated
/// term by term from the exact values. Used by the differential test and
/// the decoder bench; it forms the dense Gram matrix, so it is meant for
/// moderate `n` only.
pub struct FastExactBound {
    /// Bound on `|ℓ_fast − ℓ_exact|`.
    pub loss: f64,
    /// Entrywise bound on `|dZ_fast − dZ_exact|` for the unit-upstream
    /// gradient pass (`grad_scale = norm / N²`).
    pub dz: Mat,
}

/// Evaluate [`FastExactBound`] for one decoder call; `exact_loss` is the
/// exact-mode loss (it enters the final scaling's rounding term).
pub fn fast_exact_bound(
    z: &Mat,
    target: &Csr,
    pos_weight: f64,
    norm: f64,
    exact_loss: f64,
) -> FastExactBound {
    const U: f64 = f64::EPSILON / 2.0;
    // `γ_m = m·u / (1 − m·u)`: the bound on `m` chained roundings.
    let gamma = |m: usize| {
        let mu = m as f64 * U;
        mu / (1.0 - mu)
    };
    // libm `exp`/`log1p` taken as ≤ 1 ulp; beyond ±30 the reference
    // truncates softplus to `x` or `eˣ`.
    let exact_softplus_rel = |x: f64| {
        let trunc = if x > 30.0 {
            (-x).exp() / x
        } else if x < -30.0 {
            x.exp()
        } else {
            0.0
        };
        4.0 * U + trunc
    };
    let sp_gap =
        |x: f64| (FAST_SOFTPLUS_REL * U + exact_softplus_rel(x)) * softplus(x) + 2f64.powi(-1074);
    let sig_gap = |x: f64| (FAST_SIGMOID_REL + 5.0) * U * sigmoid(x) + 2f64.powi(-1073);
    let (n, d) = (z.rows(), z.cols());
    let s = z.gram();
    let gs = norm / (n * n) as f64;

    // Loss: every softplus term, then the weighted positive corrections
    // (two products and a difference, rounded in each mode).
    let (mut gap, mut mass) = (0.0, 0.0);
    for i in 0..n {
        for &v in s.row(i) {
            gap += sp_gap(v);
            mass += softplus(v);
        }
        for (j, t) in target.row_iter(i) {
            let v = s[(i, j)];
            let parts = pos_weight * t * softplus(-v) + t * softplus(v);
            gap += pos_weight * t * sp_gap(-v) + t * sp_gap(v) + 2.0 * gamma(3) * parts;
            mass += parts;
        }
    }
    let m = n * n + target.nnz() + n.div_ceil(REDUCE_CHUNK);
    let loss =
        gs * (gap + 2.0 * gamma(m) * mass) * (1.0 + gamma(2)) + 2.0 * gamma(2) * exact_loss.abs();

    // Gradient: (gap, magnitude) of one coefficient c(t, σ), six roundings
    // with a target entry and one without; then the coefficient sum and
    // the ordered row accumulation of `coeff · z_j`.
    let coeff = |t: Option<f64>, x: f64| {
        let (sig, dsig) = (sigmoid(x), sig_gap(x));
        match t {
            Some(t) => {
                let mag = gs * (pos_weight * t * (1.0 - sig) + (1.0 - t).abs() * sig);
                let w = pos_weight * t + (1.0 - t).abs();
                (gs * w * dsig + 2.0 * gamma(6) * mag, mag)
            }
            None => (gs * dsig + 2.0 * gamma(1) * gs * sig, gs * sig),
        }
    };
    let tt = target.transpose();
    let entry = |t: &Csr, i: usize, j: usize| t.contains(i, j).then(|| t.get(i, j));
    let mut dz = Mat::zeros(n, d);
    for i in 0..n {
        for j in 0..n {
            let x = s[(i, j)];
            let (g1, m1) = coeff(entry(target, i, j), x);
            let (g2, m2) = coeff(entry(&tt, i, j), x);
            let cgap = g1 + g2 + 2.0 * gamma(1) * (m1 + m2);
            let cmag = 2.0 * gamma(n + 1) * (m1 + m2);
            for k in 0..d {
                dz[(i, k)] += (cgap + cmag) * z[(j, k)].abs();
            }
        }
    }
    FastExactBound { loss, dz }
}

/// Row-streaming fold over the rows of the virtual Gram matrix `S = Z·Zᵀ`:
/// calls `f(i, s_row)` for every row `i` with the materialised row `s_iⱼ =
/// z_iᵀz_j` (the bits of `Mat::gram`) and returns the ordered sum of the
/// per-row results (256-row chunk partials folded in chunk order — thread-
/// count invariant). Scratch is one row buffer per task plus `Zᵀ`; no
/// dense N×N allocation.
pub fn gram_row_fold(z: &Mat, f: impl Fn(usize, &[f64]) -> f64 + Sync) -> f64 {
    let n = z.rows();
    let rows = GramRows::new(z, SimdLevel::detected());
    let mut partials = vec![0.0f64; n.div_ceil(REDUCE_CHUNK)];
    rgae_par::par_chunks_mut(&mut partials, 1, |ci, part| {
        let mut buf = rows.buffer();
        let row0 = ci * REDUCE_CHUNK;
        let mut acc = 0.0;
        for i in row0..(row0 + REDUCE_CHUNK).min(n) {
            acc += f(i, rows.fill(i, &mut buf));
        }
        part[0] = acc;
    });
    partials.iter().sum()
}

/// Row-streaming map over the rows of the virtual Gram matrix: calls
/// `f(i, s_row, out_row)` for every row with `out_row` the `i`-th row of a
/// fresh `n×out_cols` matrix. Rows are written disjointly, each by exactly
/// one task, so the output bits are thread-count invariant as long as `f`
/// itself is deterministic per row.
pub fn gram_row_map(z: &Mat, out_cols: usize, f: impl Fn(usize, &[f64], &mut [f64]) + Sync) -> Mat {
    let mut out = Mat::zeros(z.rows(), out_cols);
    if out_cols == 0 {
        gram_row_fold(z, |i, s_row| {
            f(i, s_row, &mut []);
            0.0
        });
        return out;
    }
    let rows = GramRows::new(z, SimdLevel::detected());
    rgae_par::par_chunks_mut(out.as_mut_slice(), REDUCE_CHUNK * out_cols, |ci, stripe| {
        let mut buf = rows.buffer();
        for (r, out_row) in stripe.chunks_mut(out_cols).enumerate() {
            let i = ci * REDUCE_CHUNK + r;
            f(i, rows.fill(i, &mut buf), out_row);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sigmoid, standard_normal, Rng64};

    fn instance(seed: u64, n: usize, d: usize) -> (Mat, Csr) {
        let mut rng = Rng64::seed_from_u64(seed);
        let z = standard_normal(n, d, &mut rng);
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if rng.bernoulli(0.2) {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let t = Csr::from_triplets(n, n, &triplets).unwrap();
        (z, t)
    }

    /// Reference: the legacy dense three-pass computation, including the
    /// row-chunked `par_sum_by` reduction structure of `bce_logits_sparse`.
    fn legacy(z: &Mat, t: &Csr, pw: f64, norm: f64) -> (f64, Mat) {
        let n = z.rows();
        let gram = z.gram();
        let total = rgae_par::par_sum_by(n, |range| {
            let mut acc = 0.0;
            for i in range {
                let row = gram.row(i);
                for &v in row {
                    acc += softplus(v);
                }
                for (j, tv) in t.row_iter(i) {
                    let v = row[j];
                    acc += pw * tv * softplus(-v) - tv * softplus(v);
                }
            }
            acc
        });
        let denom = (n * n) as f64;
        let loss = norm * total / denom;
        let gs = 1.0 * norm / denom;
        let mut c = gram.map(|v| gs * sigmoid(v));
        for i in 0..n {
            for (j, tv) in t.row_iter(i) {
                let s = sigmoid(gram[(i, j)]);
                c[(i, j)] = gs * (pw * tv * (s - 1.0) + (1.0 - tv) * s);
            }
        }
        let sym = c.add(&c.transpose()).unwrap();
        let dz = sym.matmul(z).unwrap();
        (loss, dz)
    }

    #[test]
    fn fused_matches_legacy_bitwise() {
        for &(n, d) in &[(1usize, 1usize), (3, 2), (17, 4), (64, 8), (300, 5)] {
            let (z, t) = instance(7 + n as u64, n, d);
            let (pw, norm) = (3.5, 0.62);
            let denom = (n * n) as f64;
            let out = gram_bce_fused(&z, &t, pw, norm, Some(norm / denom), DecoderNumerics::Exact)
                .unwrap();
            let (loss, dz) = legacy(&z, &t, pw, norm);
            assert_eq!(out.loss.to_bits(), loss.to_bits(), "loss bits n={n}");
            let got = out.dz.unwrap();
            let want_bits: Vec<u64> = dz.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "dz bits n={n}");
        }
    }

    #[test]
    fn fused_bits_invariant_to_tile_size() {
        let (z, t) = instance(42, 70, 3);
        let denom = (70.0f64) * 70.0;
        let reference =
            gram_bce_fused(&z, &t, 2.0, 0.9, Some(0.9 / denom), DecoderNumerics::Exact).unwrap();
        let ref_dz: Vec<u64> = reference
            .dz
            .as_ref()
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for tile in [1, 256, 300, 512, 100_000] {
            set_decoder_tile(Some(tile));
            let got = gram_bce_fused(&z, &t, 2.0, 0.9, Some(0.9 / denom), DecoderNumerics::Exact)
                .unwrap();
            assert_eq!(got.loss.to_bits(), reference.loss.to_bits(), "tile={tile}");
            let got_dz: Vec<u64> = got
                .dz
                .as_ref()
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got_dz, ref_dz, "tile={tile}");
        }
        set_decoder_tile(None);
    }

    #[test]
    fn loss_only_skips_gradient() {
        let (z, t) = instance(3, 20, 4);
        let out = gram_bce_fused(&z, &t, 1.0, 1.0, None, DecoderNumerics::Exact).unwrap();
        assert!(out.dz.is_none());
        let (loss, _) = legacy(&z, &t, 1.0, 1.0);
        assert_eq!(out.loss.to_bits(), loss.to_bits());
    }

    #[test]
    fn row_fold_matches_dense_softplus_sum() {
        let (z, _) = instance(11, 37, 3);
        let gram = z.gram();
        let fold = gram_row_fold(&z, |i, s_row| {
            let mut acc = 0.0;
            for &v in s_row {
                acc += softplus(v);
            }
            assert_eq!(s_row.len(), gram.cols());
            for (j, &v) in s_row.iter().enumerate() {
                assert_eq!(v.to_bits(), gram[(i, j)].to_bits());
            }
            acc
        });
        // Chunk partials fold per-row subtotals (f's return values), so the
        // reference groups each row's sum before adding it to the chunk.
        let want = rgae_par::par_sum_by(z.rows(), |range| {
            let mut acc = 0.0;
            for i in range {
                let mut row_acc = 0.0;
                for j in 0..z.rows() {
                    row_acc += softplus(gram[(i, j)]);
                }
                acc += row_acc;
            }
            acc
        });
        assert_eq!(fold.to_bits(), want.to_bits());
    }

    #[test]
    fn row_map_writes_disjoint_rows() {
        let (z, _) = instance(13, 41, 2);
        let out = gram_row_map(&z, 2, |i, s_row, out_row| {
            out_row[0] = i as f64;
            out_row[1] = s_row.iter().sum();
        });
        assert_eq!(out.shape(), (41, 2));
        for i in 0..41 {
            assert_eq!(out[(i, 0)], i as f64);
        }
    }

    #[test]
    fn softplus_sigmoid_bit_matches_references() {
        for x in [
            -1e9, -31.0, -30.0, -5.0, -0.5, -1e-17, 0.0, 0.5, 29.9, 30.0, 31.0, 1e9,
        ] {
            let (sp, sig) = softplus_sigmoid(x);
            assert_eq!(sp.to_bits(), softplus(x).to_bits(), "softplus({x})");
            assert_eq!(sig.to_bits(), sigmoid(x).to_bits(), "sigmoid({x})");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (z, _) = instance(5, 4, 2);
        let t = Csr::zeros(3, 3);
        for numerics in [DecoderNumerics::Fast, DecoderNumerics::Exact] {
            assert!(gram_bce_fused(&z, &t, 1.0, 1.0, None, numerics).is_err());
        }
    }

    #[test]
    fn scratch_bytes_are_linear_in_n() {
        // Four padded row buffers per running task plus the blocked Zᵀ.
        let one = rgae_par::with_threads(1, || fused_scratch_bytes(10_000, 16));
        assert_eq!(one, (4 * 10_016 + 10_016 * 16) * 8);
        let two = rgae_par::with_threads(2, || fused_scratch_bytes(10_000, 16));
        assert_eq!(two, (2 * 4 * 10_016 + 10_016 * 16) * 8);
        // One reduce chunk runs one task, whatever the thread count.
        let small = rgae_par::with_threads(8, || fused_scratch_bytes(100, 3));
        assert_eq!(small, (4 * 128 + 128 * 3) * 8);
    }
}
