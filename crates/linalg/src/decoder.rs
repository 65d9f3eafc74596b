//! Tiled, fused Gram + BCE decoder kernels.
//!
//! Every GAE variant in this workspace reconstructs the adjacency through
//! `σ(Z·Zᵀ)`, and the legacy pipeline materialises the full N×N logits
//! three times per step: once for the Gram forward, once for the BCE
//! forward scan, and once more for the backward coefficient matrix (plus a
//! transpose, an add, and an N×N·d matmul for the Gram backward). The
//! kernels here stream the same computation through row *tiles* of at most
//! B rows — one B×N panel is the only N-proportional scratch — so peak
//! decoder memory drops from O(N²) to O(B·N) while the arithmetic stays
//! bit-for-bit identical to the legacy chain.
//!
//! # Determinism contract
//!
//! The loss reduction reuses the [`rgae_par::REDUCE_CHUNK`]-row partial
//! structure of `par_sum_by`: each 256-row chunk accumulates serially (per
//! row: every column's softplus in ascending order, then the sparse-target
//! corrections in CSR order — exactly the legacy `bce_sparse_fwd` order)
//! and the partials are folded in chunk order. The tile width is forced to
//! a multiple of `REDUCE_CHUNK`, so the bits are invariant to the tile
//! size *and* the thread count, in either numerics mode (the fast mode's
//! batched transcendentals are pure per-element functions).
//!
//! The gradient rows replicate the legacy `(C + Cᵀ)·Z` element order: for
//! each row `i` the columns are scanned ascending, the symmetric
//! coefficient is formed as `c_ij + c_ji` (the same operand order as
//! `Mat::add` in the legacy Gram backward), exact zeros are skipped like
//! `Mat::matmul`'s zero fast path, and the inner product over the latent
//! dimension accumulates ascending. `c_ji` needs the transposed target
//! row, which is read from a `target.transpose()` built once per call
//! (O(nnz), negligible next to the N²·d panel work).
//!
//! # Symmetry sharing
//!
//! `S = Z·Zᵀ` is symmetric, and `s_ij` bit-equals `s_ji` (each product
//! commutes individually and the ascending-`k` accumulation order is the
//! same), so `softplus(s)` and `σ(s)` are also bitwise shared across a
//! symmetric pair. Within each tile's diagonal block the fused kernel
//! therefore runs two phases: a *fill* phase that evaluates every
//! unordered pair once (dot + transcendental pair, cached in a `B×B`
//! side buffer) and a *sweep* phase that reads the panel and the cache
//! immutably while accumulating the loss and gradient in the legacy
//! element order. Reusing a bit-identical value cannot change the sums,
//! so under exact numerics the output is still bit-for-bit the legacy
//! chain's.

use std::sync::atomic::{AtomicUsize, Ordering};

use rgae_par::REDUCE_CHUNK;

use crate::numerics::{
    softplus_fast, softplus_sigmoid_batch, DecoderNumerics, FAST_SIGMOID_REL, FAST_SOFTPLUS_REL,
};
use crate::{sigmoid, softplus, Csr, Error, Mat, Result};

/// Baseline tile rows when no [`set_decoder_tile`] override is set. The
/// effective default grows with the worker count (see [`decoder_tile`]) so
/// every pool worker owns at least one reduce chunk per tile.
pub const DEFAULT_DECODER_TILE: usize = 1024;

/// Programmatic override for the tile rows; 0 means "unset".
static TILE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the decoder tile rows (`None` restores the default). Values are rounded up to a multiple of
/// [`rgae_par::REDUCE_CHUNK`]; the setting trades memory against
/// parallelism only — results are bit-identical at any tile size.
pub fn set_decoder_tile(rows: Option<usize>) {
    TILE_OVERRIDE.store(rows.unwrap_or(0), Ordering::Relaxed);
}

/// The configured decoder tile rows: the [`set_decoder_tile`] override if
/// set, else `max(DEFAULT_DECODER_TILE, REDUCE_CHUNK · threads)` — always
/// rounded up to a `REDUCE_CHUNK` multiple so tile boundaries coincide with
/// reduction-chunk boundaries.
pub fn decoder_tile() -> usize {
    let configured = match TILE_OVERRIDE.load(Ordering::Relaxed) {
        0 => DEFAULT_DECODER_TILE.max(REDUCE_CHUNK * rgae_par::threads()),
        v => v,
    };
    configured.div_ceil(REDUCE_CHUNK) * REDUCE_CHUNK
}

/// Tile rows actually used for an `n`-row decoder (the configured tile,
/// clamped to the row count rounded up to a chunk boundary).
fn effective_tile(n: usize) -> usize {
    decoder_tile().min(n.div_ceil(REDUCE_CHUNK).max(1) * REDUCE_CHUNK)
}

/// Peak scratch bytes the fused decoder allocates for an `n`-row graph:
/// one `B×N` `f64` panel plus the `2·B²` diagonal-block transcendental
/// cache (`B ≤ N`, so the total stays `O(B·N)`). Fast numerics add a `2N`
/// row scratch per running sweep task, not counted here. The legacy path
/// peaks at several dense `N×N` matrices. Used by the benchmark reports.
pub fn fused_panel_bytes(n: usize) -> usize {
    let b = effective_tile(n);
    (b * n + 2 * b * b) * std::mem::size_of::<f64>()
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

/// One dot product in the exact element order of `Mat::gram`'s inner loop.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Fill columns `j0..j1` of `stripe` (consecutive panel rows for z-rows
/// starting at `row0`) with `z_i · z_j`. Rows are processed in blocks of
/// four with independent accumulators: four parallel dependency chains
/// hide the FP-add latency of the strictly ordered dot, and each `z_j`
/// row load serves four dots. Every individual accumulator still adds in
/// `Mat::gram`'s exact element order, so the produced bits are identical
/// to the one-row [`dot`] loop.
fn fill_panel_cols(z: &Mat, row0: usize, stripe: &mut [f64], j0: usize, j1: usize) {
    if j0 >= j1 {
        return;
    }
    let n = z.rows();
    let nrows = stripe.len() / n;
    let mut r = 0;
    while r + 4 <= nrows {
        let (z0, z1, z2, z3) = (
            z.row(row0 + r),
            z.row(row0 + r + 1),
            z.row(row0 + r + 2),
            z.row(row0 + r + 3),
        );
        let block = &mut stripe[r * n..(r + 4) * n];
        let (s0, block) = block.split_at_mut(n);
        let (s1, block) = block.split_at_mut(n);
        let (s2, s3) = block.split_at_mut(n);
        for j in j0..j1 {
            let zj = z.row(j);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (k, &y) in zj.iter().enumerate() {
                a0 += z0[k] * y;
                a1 += z1[k] * y;
                a2 += z2[k] * y;
                a3 += z3[k] * y;
            }
            s0[j] = a0;
            s1[j] = a1;
            s2[j] = a2;
            s3[j] = a3;
        }
        r += 4;
    }
    for r in r..nrows {
        let zi = z.row(row0 + r);
        let row = &mut stripe[r * n..(r + 1) * n];
        for j in j0..j1 {
            row[j] = dot(zi, z.row(j));
        }
    }
}

/// Full-width panel fill (every column), used by the row-streaming helpers.
fn fill_panel(z: &Mat, row0: usize, stripe: &mut [f64]) {
    fill_panel_cols(z, row0, stripe, 0, z.rows());
}

/// Fill the upper part of row `i`'s tile-diagonal block: dots `z_i · z_j`
/// for `j ∈ [i, t1)` into `s_row`, and the matching transcendental pair
/// into the row's slice of the diagonal cache: `drow` holds the row's
/// softplus slots followed by its σ slots, both indexed by `j − t0`.
/// Because `s_ij` bit-equals `s_ji` (each product commutes, the ascending
/// `k` order is shared), these cached values serve *both* rows of every
/// symmetric pair: the lower half is read from the mirrored slot instead
/// of being recomputed, halving the diagonal block's dot + exp work.
///
/// Columns are processed four at a time with independent accumulators
/// (same ILP rationale as [`fill_panel_cols`]); each accumulator keeps the
/// exact `Mat::gram` element order, so the bits are unchanged.
fn fill_diag_row(
    z: &Mat,
    i: usize,
    t0: usize,
    t1: usize,
    s_row: &mut [f64],
    drow: &mut [f64],
    numerics: DecoderNumerics,
) {
    let zi = z.row(i);
    let mut j = i;
    while j + 4 <= t1 {
        let (b0, b1, b2, b3) = (z.row(j), z.row(j + 1), z.row(j + 2), z.row(j + 3));
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (k, &x) in zi.iter().enumerate() {
            a0 += x * b0[k];
            a1 += x * b1[k];
            a2 += x * b2[k];
            a3 += x * b3[k];
        }
        s_row[j] = a0;
        s_row[j + 1] = a1;
        s_row[j + 2] = a2;
        s_row[j + 3] = a3;
        j += 4;
    }
    while j < t1 {
        s_row[j] = dot(zi, z.row(j));
        j += 1;
    }
    let (dsp, dsig) = drow.split_at_mut(t1 - t0);
    let (dsp, dsig) = (&mut dsp[i - t0..], &mut dsig[i - t0..]);
    let s = &s_row[i..t1];
    match numerics {
        DecoderNumerics::Fast => softplus_sigmoid_batch(s, dsp, dsig),
        DecoderNumerics::Exact => {
            for ((&s, sp), sig) in s.iter().zip(dsp.iter_mut()).zip(dsig.iter_mut()) {
                (*sp, *sig) = softplus_sigmoid(s);
            }
        }
    }
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

/// Fused, tiled weighted-BCE-over-Gram forward (+ optional backward):
/// computes `norm · mean[pos_weight · t · softplus(−z_iᵀz_j) + (1 − t) ·
/// softplus(z_iᵀz_j)]` and, when `grad_scale = Some(gs)`, the latent
/// gradient rows `dZ_i = Σ_j (c_ij + c_ji) z_j` with
/// `c_ij = gs · (pos_weight · t_ij · (σ_ij − 1) + (1 − t_ij) · σ_ij)`,
/// without materialising the N×N logits. For the legacy-equivalent
/// gradient pass `gs = norm / N²` (the unit upstream gradient folded in).
///
/// `numerics` picks how softplus and σ are evaluated (see
/// [`crate::numerics`]). Under [`DecoderNumerics::Exact`] the loss and dZ
/// are bit-identical to the legacy chain. Under [`DecoderNumerics::Fast`]
/// each sweep task evaluates a row's off-block transcendentals in one
/// batch into a `2N` scratch; the dot order, tiling, symmetry sharing and
/// reduction order are the same in both modes, so both are invariant to
/// the tile size and the thread count.
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
    let n = z.rows();
    let d = z.cols();
    if target.rows() != n || target.cols() != n {
        return Err(Error::ShapeMismatch {
            op: "gram_bce_fused",
            lhs: (n, n),
            rhs: (target.rows(), target.cols()),
        });
    }
    let denom = (n * n) as f64;
    let fast = numerics == DecoderNumerics::Fast;
    let softplus_of: fn(f64) -> f64 = if fast { softplus_fast } else { softplus };
    rgae_par::timed("fused_gram_bce_fwd_bwd", || {
        // Transposed target: row i holds the t_ji needed for c_ji.
        let tt = grad_scale.map(|_| target.transpose());
        let tile = effective_tile(n);
        let n_chunks = n.div_ceil(REDUCE_CHUNK);
        let mut partials = vec![0.0f64; n_chunks];
        let mut dz = grad_scale.map(|_| Mat::zeros(n, d));
        let mut panel = vec![0.0f64; tile * n];
        // (softplus, σ) pairs for the tile's diagonal block. `s_ij` bit-
        // equals `s_ji`, so each unordered pair {i, j} inside the block is
        // evaluated exactly once (by the row with the smaller index) and
        // both rows read the shared slot — the diagonal block costs half
        // its dots and half its exp calls.
        let mut diag = vec![0.0f64; tile * tile * 2];

        for tile_start in (0..n).step_by(tile) {
            let t0 = tile_start;
            let tw = tile.min(n - t0);
            let t1 = t0 + tw;
            let panel_slice = &mut panel[..tw * n];
            let diag_slice = &mut diag[..tw * tw * 2];

            // Phase 1 — fill. Each chunk owns its panel rows and the
            // matching diagonal-cache rows: off-block columns get plain
            // dots, in-block columns j ≥ i get the dot plus its cached
            // transcendental pair. Nothing is read across chunks.
            rgae_par::par_zip_chunks_mut(
                panel_slice,
                REDUCE_CHUNK * n,
                diag_slice,
                REDUCE_CHUNK * tw * 2,
                |ci, stripe, dstripe| {
                    let row0 = t0 + ci * REDUCE_CHUNK;
                    fill_panel_cols(z, row0, stripe, 0, t0);
                    fill_panel_cols(z, row0, stripe, t1, n);
                    for r in 0..stripe.len() / n {
                        let i = row0 + r;
                        let s_row = &mut stripe[r * n..(r + 1) * n];
                        let drow = &mut dstripe[r * tw * 2..(r + 1) * tw * 2];
                        fill_diag_row(z, i, t0, t1, s_row, drow, numerics);
                    }
                },
            );

            // Phase 2 — sweep. The panel and the diagonal cache are now
            // read-only (shared borrows, no unsafe): each row reads its own
            // panel row for off-block logits, the mirrored slot
            // `(min, max)` of the cache for in-block transcendentals, and
            // the mirrored panel entry `panel[j − t0][i]` for in-block
            // logits below the diagonal (its own slots there were never
            // filled). Writes go only to the row's dz slice, the chunk's
            // loss partial and the task's row scratch.
            let panel_ref: &[f64] = panel_slice;
            let diag_ref: &[f64] = diag_slice;
            // Softplus slot of the unordered pair; its σ sits `tw` later.
            let pair = move |r2: usize, c2: usize| {
                let (a, b) = if c2 >= r2 { (r2, c2) } else { (c2, r2) };
                a * tw * 2 + b
            };
            // Fast mode's per-task row scratch: a row's off-block softplus
            // and σ values, evaluated in two batches before the sweep.
            let scratch = || vec![0.0f64; if fast { 2 * n } else { 0 }];
            // `acc` threads through every row of the chunk (not a per-row
            // subtotal): the legacy chunk partial is one running sum, and
            // regrouping it per row would change the addition tree.
            let sweep_row = |i, dz_row: Option<&mut [f64]>, acc: &mut f64, buf: &mut [f64]| {
                let r2 = i - t0;
                let s_row = &panel_ref[r2 * n..(r2 + 1) * n];
                let (sp_row, sig_row) = buf.split_at_mut(buf.len() / 2);
                if fast {
                    softplus_sigmoid_batch(&s_row[..t0], &mut sp_row[..t0], &mut sig_row[..t0]);
                    softplus_sigmoid_batch(&s_row[t1..], &mut sp_row[t1..], &mut sig_row[t1..]);
                }
                let (t_cols, t_vals) = (target.row_indices(i), target.row_values(i));
                if let (Some(dz_row), Some(gs), Some(tt)) = (dz_row, grad_scale, tt.as_ref()) {
                    // Fused sweep + gradient walk: ascending j, softplus
                    // into the loss accumulator, then the legacy
                    // (C + Cᵀ)·Z element order — coefficient c_ij + c_ji,
                    // zero-skip, ascending latent dim. Interleaving the
                    // walk with the sweep leaves both addition orders
                    // untouched.
                    let (tt_cols, tt_vals) = (tt.row_indices(i), tt.row_values(i));
                    let coeff_at = |t: Option<f64>, sig: f64| match t {
                        Some(t) => gs * (pos_weight * t * (sig - 1.0) + (1.0 - t) * sig),
                        None => gs * sig,
                    };
                    let (mut pa, mut pb) = (0usize, 0usize);
                    for j in 0..n {
                        let (sp, sig) = if j >= t0 && j < t1 {
                            let p = pair(r2, j - t0);
                            (diag_ref[p], diag_ref[p + tw])
                        } else if fast {
                            (sp_row[j], sig_row[j])
                        } else {
                            softplus_sigmoid(s_row[j])
                        };
                        *acc += sp;
                        let t_ij = (pa < t_cols.len() && t_cols[pa] == j).then(|| {
                            pa += 1;
                            t_vals[pa - 1]
                        });
                        let t_ji = (pb < tt_cols.len() && tt_cols[pb] == j).then(|| {
                            pb += 1;
                            tt_vals[pb - 1]
                        });
                        let coeff = coeff_at(t_ij, sig) + coeff_at(t_ji, sig);
                        if coeff == 0.0 {
                            continue;
                        }
                        let zj = z.row(j);
                        for (o, &b) in dz_row.iter_mut().zip(zj.iter()) {
                            *o += coeff * b;
                        }
                    }
                } else {
                    let off_block = |j: usize| if fast { sp_row[j] } else { softplus(s_row[j]) };
                    for j in 0..t0 {
                        *acc += off_block(j);
                    }
                    for c2 in 0..tw {
                        *acc += diag_ref[pair(r2, c2)];
                    }
                    for j in t1..n {
                        *acc += off_block(j);
                    }
                }
                // Positive-entry corrections, in CSR order — the legacy
                // forward's second per-row loop. In-block logits below the
                // diagonal come from the mirrored panel entry.
                for (&j, &t) in t_cols.iter().zip(t_vals) {
                    let v = if j >= t0 && j < i {
                        panel_ref[(j - t0) * n + i]
                    } else {
                        s_row[j]
                    };
                    *acc += pos_weight * t * softplus_of(-v) - t * softplus_of(v);
                }
            };

            let chunk_lo = t0 / REDUCE_CHUNK;
            let chunk_hi = chunk_lo + tw.div_ceil(REDUCE_CHUNK);
            let parts_tile = &mut partials[chunk_lo..chunk_hi];
            let dz_tile = dz.as_mut().map(|m| &mut m.as_mut_slice()[t0 * d..t1 * d]);
            match dz_tile {
                // d == 0 leaves nothing to accumulate (and would give the
                // zip a zero-width chunk); fall through to the loss sweep.
                Some(dz_tile) if d > 0 => rgae_par::par_zip_chunks_mut(
                    dz_tile,
                    REDUCE_CHUNK * d,
                    parts_tile,
                    1,
                    |ci, dz_stripe, part| {
                        let row0 = t0 + ci * REDUCE_CHUNK;
                        let mut acc = 0.0;
                        let mut buf = scratch();
                        for r in 0..dz_stripe.len() / d {
                            let dz_row = Some(&mut dz_stripe[r * d..(r + 1) * d]);
                            sweep_row(row0 + r, dz_row, &mut acc, &mut buf);
                        }
                        part[0] = acc;
                    },
                ),
                _ => rgae_par::par_chunks_mut(parts_tile, 1, |ci, part| {
                    let row0 = t0 + ci * REDUCE_CHUNK;
                    let mut acc = 0.0;
                    let mut buf = scratch();
                    for r in 0..REDUCE_CHUNK.min(t1 - row0) {
                        sweep_row(row0 + r, None, &mut acc, &mut buf);
                    }
                    part[0] = acc;
                }),
            }
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

/// Tiled fold over the rows of the virtual Gram matrix `S = Z·Zᵀ`: calls
/// `f(i, s_row)` for every row `i` with the materialised row `s_iⱼ =
/// z_iᵀz_j` and returns the ordered sum of the per-row results (256-row
/// chunk partials folded in chunk order — thread-count invariant). Peak
/// scratch is one B×N panel; no dense N×N allocation.
pub fn gram_row_fold(z: &Mat, f: impl Fn(usize, &[f64]) -> f64 + Sync) -> f64 {
    let n = z.rows();
    if n == 0 {
        return 0.0;
    }
    let tile = effective_tile(n);
    let n_chunks = n.div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f64; n_chunks];
    let mut panel = vec![0.0f64; tile * n];
    for tile_start in (0..n).step_by(tile) {
        let tile_rows = tile.min(n - tile_start);
        let part_view = rgae_par::RawMut::new(&mut partials);
        rgae_par::par_chunks_mut(
            &mut panel[..tile_rows * n],
            REDUCE_CHUNK * n,
            |ci, stripe| {
                let row0 = tile_start + ci * REDUCE_CHUNK;
                fill_panel(z, row0, stripe);
                let mut acc = 0.0;
                for (r, s_row) in stripe.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    acc += f(i, s_row);
                }
                // SAFETY: one task per reduce chunk.
                unsafe { part_view.write(row0 / REDUCE_CHUNK, acc) };
            },
        );
    }
    partials.iter().sum()
}

/// Tiled map over the rows of the virtual Gram matrix: calls
/// `f(i, s_row, out_row)` for every row with `out_row` the `i`-th row of a
/// fresh `n×out_cols` matrix. Rows are written disjointly, each by exactly
/// one task, so the output bits are thread-count invariant as long as `f`
/// itself is deterministic per row.
pub fn gram_row_map(z: &Mat, out_cols: usize, f: impl Fn(usize, &[f64], &mut [f64]) + Sync) -> Mat {
    let n = z.rows();
    let mut out = Mat::zeros(n, out_cols);
    if n == 0 {
        return out;
    }
    let tile = effective_tile(n);
    let mut panel = vec![0.0f64; tile * n];
    for tile_start in (0..n).step_by(tile) {
        let tile_rows = tile.min(n - tile_start);
        let out_tile = &mut out.as_mut_slice()[tile_start * out_cols..];
        let out_tile = &mut out_tile[..tile_rows * out_cols];
        rgae_par::par_zip_chunks_mut(
            &mut panel[..tile_rows * n],
            REDUCE_CHUNK * n,
            out_tile,
            REDUCE_CHUNK * out_cols.max(1),
            |ci, stripe, out_stripe| {
                let row0 = tile_start + ci * REDUCE_CHUNK;
                fill_panel(z, row0, stripe);
                for (r, s_row) in stripe.chunks_mut(n).enumerate() {
                    let i = row0 + r;
                    let out_row = if out_cols == 0 {
                        &mut [] as &mut [f64]
                    } else {
                        &mut out_stripe[r * out_cols..(r + 1) * out_cols]
                    };
                    f(i, s_row, out_row);
                }
            },
        );
    }
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
    fn panel_bytes_reports_tile_width() {
        set_decoder_tile(Some(512));
        // B×N panel plus the 2·B² diagonal-block transcendental cache.
        assert_eq!(
            fused_panel_bytes(10_000),
            (512 * 10_000 + 2 * 512 * 512) * 8
        );
        // Small n clamps to its own rounded row count.
        assert_eq!(fused_panel_bytes(100), (256 * 100 + 2 * 256 * 256) * 8);
        set_decoder_tile(None);
    }
}
