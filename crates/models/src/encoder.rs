//! Encoders and small dense networks: the GCN encoder shared by all models,
//! its variational variant, and a plain MLP (discriminators).

use std::rc::Rc;

use rgae_autodiff::{Graph, Var};
use rgae_linalg::{glorot_uniform, Csr, Mat, Rng64};

use crate::Result;

/// A stack of graph-convolution layers `H^{l+1} = φ(Ã H^l W_l)` with ReLU on
/// every layer except the last (linear output, as in the GAE reference).
#[derive(Clone)]
pub struct GcnEncoder {
    weights: Vec<Mat>,
}

impl GcnEncoder {
    /// Glorot-initialised encoder with the given layer dimensions
    /// (`dims[0]` = input features, `dims.last()` = latent d).
    pub fn new(dims: &[usize], rng: &mut Rng64) -> Self {
        assert!(dims.len() >= 2, "encoder needs at least one layer");
        let weights = dims
            .windows(2)
            .map(|w| glorot_uniform(w[0], w[1], rng))
            .collect();
        GcnEncoder { weights }
    }

    /// Immutable parameter views, in canonical order.
    pub fn params(&self) -> Vec<&Mat> {
        self.weights.iter().collect()
    }

    /// Mutable parameter views, in canonical order.
    pub fn params_mut(&mut self) -> Vec<&mut Mat> {
        self.weights.iter_mut().collect()
    }

    /// Differentiable forward pass. Returns the latent node and the leaf
    /// handles of each weight (same order as [`GcnEncoder::params`]).
    pub fn forward(&self, g: &mut Graph, filter: &Rc<Csr>, x: Var) -> Result<(Var, Vec<Var>)> {
        let mut leaves = Vec::with_capacity(self.weights.len());
        let mut h = x;
        let last = self.weights.len() - 1;
        for (l, w) in self.weights.iter().enumerate() {
            let wv = g.leaf(w.clone());
            leaves.push(wv);
            h = g.spmm(filter, h)?;
            h = g.matmul(h, wv)?;
            if l != last {
                h = g.relu(h);
            }
        }
        Ok((h, leaves))
    }

    /// Non-differentiable forward pass (plain matrices).
    pub fn embed(&self, filter: &Csr, x: &Mat) -> Mat {
        let mut h = x.clone();
        let last = self.weights.len() - 1;
        for (l, w) in self.weights.iter().enumerate() {
            h = filter.spmm(&h).expect("filter/features shapes agree");
            h = h.matmul(w).expect("layer shapes agree");
            if l != last {
                h = h.map(|v| v.max(0.0));
            }
        }
        h
    }
}

/// Variational GCN encoder: shared trunk, then two linear graph-conv heads
/// producing `μ` and `log σ²` (the VGAE parameterisation).
#[derive(Clone)]
pub struct VarGcnEncoder {
    trunk: GcnEncoder,
    w_mu: Mat,
    w_logvar: Mat,
}

impl VarGcnEncoder {
    /// `dims` covers input → trunk output; `latent` is d.
    pub fn new(dims: &[usize], latent: usize, rng: &mut Rng64) -> Self {
        assert!(dims.len() >= 2, "trunk needs at least one layer");
        let hidden = *dims.last().expect("non-empty dims");
        VarGcnEncoder {
            trunk: GcnEncoder::new(dims, rng),
            w_mu: glorot_uniform(hidden, latent, rng),
            w_logvar: glorot_uniform(hidden, latent, rng),
        }
    }

    /// Immutable parameters: trunk layers, then `w_mu`, then `w_logvar`.
    pub fn params(&self) -> Vec<&Mat> {
        let mut p = self.trunk.params();
        p.push(&self.w_mu);
        p.push(&self.w_logvar);
        p
    }

    /// Mutable parameters in the same canonical order.
    pub fn params_mut(&mut self) -> Vec<&mut Mat> {
        let mut p: Vec<&mut Mat> = self.trunk.weights.iter_mut().collect();
        p.push(&mut self.w_mu);
        p.push(&mut self.w_logvar);
        p
    }

    /// Differentiable forward: `(μ, log σ², leaves)`. The trunk output gets
    /// a ReLU before the heads (it is an intermediate layer here).
    pub fn forward(&self, g: &mut Graph, filter: &Rc<Csr>, x: Var) -> Result<(Var, Var, Vec<Var>)> {
        let (h, mut leaves) = self.trunk.forward(g, filter, x)?;
        let h = g.relu(h);
        let wm = g.leaf(self.w_mu.clone());
        let wl = g.leaf(self.w_logvar.clone());
        let hm = g.spmm(filter, h)?;
        let mu = g.matmul(hm, wm)?;
        let logvar = g.matmul(hm, wl)?;
        leaves.push(wm);
        leaves.push(wl);
        Ok((mu, logvar, leaves))
    }

    /// Reparameterised sample `z = μ + ε ⊙ exp(½ log σ²)`.
    pub fn sample(g: &mut Graph, mu: Var, logvar: Var, rng: &mut Rng64) -> Result<Var> {
        let (r, c) = g.shape(mu);
        let eps = g.constant(rgae_linalg::standard_normal(r, c, rng));
        let half = g.scale(logvar, 0.5);
        let std = g.exp(half);
        let noise = g.hadamard(eps, std)?;
        Ok(g.add(mu, noise)?)
    }

    /// Deterministic embedding: the mean `μ`.
    pub fn embed(&self, filter: &Csr, x: &Mat) -> Mat {
        let h = self.trunk.embed(filter, x).map(|v| v.max(0.0));
        let h = filter.spmm(&h).expect("shapes agree");
        h.matmul(&self.w_mu).expect("shapes agree")
    }
}

/// A plain fully-connected network with ReLU hidden layers and a linear
/// output (ARGAE's discriminator).
#[derive(Clone)]
pub struct Mlp {
    weights: Vec<Mat>,
    biases: Vec<Mat>,
}

impl Mlp {
    /// Glorot-initialised MLP with the given layer dimensions.
    pub fn new(dims: &[usize], rng: &mut Rng64) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least one layer");
        let weights: Vec<Mat> = dims
            .windows(2)
            .map(|w| glorot_uniform(w[0], w[1], rng))
            .collect();
        let biases = dims[1..].iter().map(|&d| Mat::zeros(1, d)).collect();
        Mlp { weights, biases }
    }

    /// Immutable parameters: `w_0, b_0, w_1, b_1, …`.
    pub fn params(&self) -> Vec<&Mat> {
        self.weights
            .iter()
            .zip(self.biases.iter())
            .flat_map(|(w, b)| [w, b])
            .collect()
    }

    /// Mutable parameters in the same order.
    pub fn params_mut(&mut self) -> Vec<&mut Mat> {
        self.weights
            .iter_mut()
            .zip(self.biases.iter_mut())
            .flat_map(|(w, b)| [w as &mut Mat, b as &mut Mat])
            .collect()
    }

    /// Differentiable forward (logits out). Returns output and leaf handles
    /// in the parameter order.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Result<(Var, Vec<Var>)> {
        self.forward_impl(g, x, false)
    }

    /// Forward pass with the MLP's own weights frozen (inserted as
    /// constants). Used when training a generator against a fixed
    /// discriminator.
    pub fn forward_frozen(&self, g: &mut Graph, x: Var) -> Result<Var> {
        Ok(self.forward_impl(g, x, true)?.0)
    }

    fn forward_impl(&self, g: &mut Graph, x: Var, frozen: bool) -> Result<(Var, Vec<Var>)> {
        let mut leaves = Vec::new();
        let mut h = x;
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(self.biases.iter()).enumerate() {
            let (wv, bv) = if frozen {
                (g.constant(w.clone()), g.constant(b.clone()))
            } else {
                (g.leaf(w.clone()), g.leaf(b.clone()))
            };
            if !frozen {
                leaves.push(wv);
                leaves.push(bv);
            }
            h = g.matmul(h, wv)?;
            h = g.add_bias(h, bv)?;
            if l != last {
                h = g.relu(h);
            }
        }
        Ok((h, leaves))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter3() -> Rc<Csr> {
        Rc::new(
            Csr::adjacency_from_edges(3, &[(0, 1), (1, 2)])
                .unwrap()
                .gcn_normalized()
                .unwrap(),
        )
    }

    #[test]
    fn gcn_forward_matches_embed() {
        let mut rng = Rng64::seed_from_u64(1);
        let enc = GcnEncoder::new(&[4, 3, 2], &mut rng);
        let f = filter3();
        let x = rgae_linalg::standard_normal(3, 4, &mut rng);
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let (z, leaves) = enc.forward(&mut g, &f, xv).unwrap();
        assert_eq!(leaves.len(), 2);
        let z_plain = enc.embed(&f, &x);
        assert!(g.value(z).max_abs_diff(&z_plain) < 1e-12);
        assert_eq!(z_plain.shape(), (3, 2));
    }

    #[test]
    fn var_encoder_shapes_and_determinism() {
        let mut rng = Rng64::seed_from_u64(2);
        let enc = VarGcnEncoder::new(&[4, 3], 2, &mut rng);
        let f = filter3();
        let x = rgae_linalg::standard_normal(3, 4, &mut rng);
        let mu = enc.embed(&f, &x);
        assert_eq!(mu.shape(), (3, 2));
        assert_eq!(enc.params().len(), 3);
        // Differentiable mean equals plain mean.
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let (mv, _, leaves) = enc.forward(&mut g, &f, xv).unwrap();
        assert_eq!(leaves.len(), 3);
        assert!(g.value(mv).max_abs_diff(&mu) < 1e-12);
    }

    #[test]
    fn sample_differs_from_mean_but_tracks_it() {
        let mut rng = Rng64::seed_from_u64(3);
        let enc = VarGcnEncoder::new(&[4, 3], 2, &mut rng);
        let f = filter3();
        let x = rgae_linalg::standard_normal(3, 4, &mut rng);
        let mut g = Graph::new();
        let xv = g.constant(x);
        let (mu, lv, _) = enc.forward(&mut g, &f, xv).unwrap();
        let z = VarGcnEncoder::sample(&mut g, mu, lv, &mut rng).unwrap();
        let diff = g.value(z).sub(g.value(mu)).unwrap().frob_norm();
        assert!(diff > 0.0);
    }

    #[test]
    fn mlp_forward_shapes_and_param_order() {
        let mut rng = Rng64::seed_from_u64(4);
        let mlp = Mlp::new(&[2, 8, 1], &mut rng);
        assert_eq!(mlp.params().len(), 4);
        let mut g = Graph::new();
        let x = g.constant(rgae_linalg::standard_normal(5, 2, &mut rng));
        let (out, leaves) = mlp.forward(&mut g, x).unwrap();
        assert_eq!(g.shape(out), (5, 1));
        assert_eq!(leaves.len(), 4);
    }

    #[test]
    fn mlp_trains_xor() {
        // The classic sanity check that forward + backward + Adam compose.
        use rgae_autodiff::Adam;
        let mut rng = Rng64::seed_from_u64(5);
        let mut mlp = Mlp::new(&[2, 8, 1], &mut rng);
        let x = Mat::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let t = Rc::new(Mat::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]).unwrap());
        let mut adam = Adam::new(0.05);
        for p in mlp.params() {
            adam.register(p.shape());
        }
        let mut last = f64::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let (out, leaves) = mlp.forward(&mut g, xv).unwrap();
            let loss = g.bce_logits_dense(out, &t).unwrap();
            last = g.scalar(loss);
            g.backward(loss).unwrap();
            let grads: Vec<Mat> = leaves.iter().map(|&l| g.grad(l).unwrap().clone()).collect();
            adam.begin_step();
            for (slot, (p, gr)) in mlp.params_mut().into_iter().zip(&grads).enumerate() {
                adam.update(slot, p, gr);
            }
        }
        assert!(last < 0.05, "xor loss {last}");
    }
}
