//! The unfused decoder chain, kept as a reference.
//!
//! [`gram`] materialises the dense N×N logits `Z·Zᵀ` on the tape and
//! [`bce_logits_sparse`] scans them for the weighted BCE loss, each with its
//! own backward. Models train through the fused
//! [`Graph::gram_bce_logits_sparse`], which never holds the N×N logits;
//! under exact numerics it is bit-identical to `bce_logits_sparse(gram(z))`,
//! and the gradient checks and differential tests compare the two.

use std::rc::Rc;

use rgae_linalg::{sigmoid, softplus, Csr, Mat};

use crate::graph::Op;
use crate::{Error, Graph, Result, Var};

/// `Z · Zᵀ`, the inner-product decoder logits, as a dense node.
pub fn gram(g: &mut Graph, z: Var) -> Var {
    let v = g.value(z).gram();
    let ng = g.needs(z);
    g.push(v, Op::Gram(z), ng)
}

/// The GAE reconstruction loss over a dense logits node: weighted binary
/// cross-entropy with logits against a constant **sparse binary** target,
/// `norm · mean[pos_weight · t · softplus(−x) + (1 − t) · softplus(x)]`.
///
/// `pos_weight` re-balances the (rare) positive entries exactly like
/// TensorFlow's `weighted_cross_entropy_with_logits`, and `norm` is the
/// global rescaling the GAE reference implementation applies.
pub fn bce_logits_sparse(
    g: &mut Graph,
    logits: Var,
    target: &Rc<Csr>,
    pos_weight: f64,
    norm: f64,
) -> Result<Var> {
    let x: &Mat = g.value(logits);
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
    let ng = g.needs(logits);
    Ok(g.push(
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

/// Backward of [`gram`]: `dZ = (G + Gᵀ)·Z` for the upstream gradient `up`.
pub(crate) fn gram_backward(up: &Mat, z: &Mat) -> Result<Mat> {
    let sym = up.add(&up.transpose())?;
    Ok(sym.matmul(z)?)
}

/// Backward of [`bce_logits_sparse`] at logits `x` for the scalar upstream
/// gradient `upstream`.
pub(crate) fn bce_sparse_backward(
    x: &Mat,
    target: &Csr,
    pos_weight: f64,
    norm: f64,
    upstream: f64,
) -> Mat {
    let (r, c) = x.shape();
    let gs = upstream * norm / ((r * c) as f64);
    rgae_par::timed("bce_sparse_bwd", || {
        // t = 0 branch everywhere: d softplus(x) = σ(x); the dense map runs
        // on the pool.
        let mut dx = x.map(|v| gs * sigmoid(v));
        // Correct the positive entries:
        // d[pw·t·softplus(−x) + (1−t)·softplus(x)] = pw·t·(σ(x) − 1) + (1 − t)·σ(x).
        for i in 0..r {
            for (j, t) in target.row_iter(i) {
                let s = sigmoid(x[(i, j)]);
                dx[(i, j)] = gs * (pos_weight * t * (s - 1.0) + (1.0 - t) * s);
            }
        }
        dx
    })
}
