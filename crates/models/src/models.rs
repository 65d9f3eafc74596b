//! [`ComposedModel`] and its parts; the crate docs list the six models.
//!
//! Shared conventions:
//!
//! * the encoder and head parameters share one Adam whose slots are the
//!   encoder's parameters, then the head's; the adversary's discriminator
//!   has its own;
//! * the reconstruction loss is the weighted BCE of the inner-product
//!   decoder (`Graph::gram_bce_logits_sparse`) with the class-balance
//!   constants taken from the **original** adjacency — the paper keeps each
//!   model's original settings when the Υ operator swaps the target graph;
//! * every loss comes from one tape builder. Training steps use the
//!   variational encoder's sample and its KL term, the adversary's generator
//!   term and trainable head parameters. The gradient probes
//!   ([`crate::GaeModel::clustering_grad`], [`crate::GaeModel::recon_grad`])
//!   use the mean embedding, constant head parameters and the one term they
//!   measure, so the Λ diagnostics are noise-free.

use std::rc::Rc;

use rgae_autodiff::{Adam, Graph, Var};
use rgae_cluster::{dec_target_distribution, kmeans, student_t_assignments, GaussianMixture};
use rgae_linalg::{standard_normal, Csr, Mat, Rng64};
use rgae_obs::NOOP;

use crate::encoder::{GcnEncoder, Mlp, VarGcnEncoder};
use crate::{Error, GaeModel, ModelState, Result, StepSpec, TrainData};

/// Default hidden sizes used by every model (Appendix B / GAE reference).
pub const HIDDEN: usize = 32;
/// Default latent dimensionality.
pub const LATENT: usize = 16;
/// Default learning rate (Appendix B).
pub const LR: f64 = 0.01;
/// Learning rate of the adversary's discriminator.
const DISC_LR: f64 = 0.001;
/// Weight of the adversarial generator term.
const ADV_WEIGHT: f64 = 1.0;
/// Weight of the GMM head's clustering (mixture log-likelihood) term.
const CLUSTER_WEIGHT: f64 = 0.1;

fn flatten(grads: &[Mat]) -> Vec<f64> {
    let mut out = Vec::with_capacity(grads.iter().map(|g| g.as_slice().len()).sum());
    for g in grads {
        out.extend_from_slice(g.as_slice());
    }
    out
}

/// Collect gradients for `leaves`, substituting zeros when a leaf is not
/// reached by the loss (e.g. the log-variance head under a clustering-only
/// loss).
fn grads_or_zero(g: &Graph, leaves: &[Var]) -> Vec<Mat> {
    leaves
        .iter()
        .map(|&l| match g.grad(l) {
            Ok(m) => m.clone(),
            Err(_) => {
                let (r, c) = g.shape(l);
                Mat::zeros(r, c)
            }
        })
        .collect()
}

/// One Adam step over `params`, in slot order.
fn adam_step(opt: &mut Adam, params: Vec<&mut Mat>, grads: &[Mat]) {
    opt.begin_step();
    for (slot, (p, gr)) in params.into_iter().zip(grads).enumerate() {
        opt.update(slot, p, gr);
    }
}

// --- checkpoint helpers ----------------------------------------------------

/// Export a parameter list under `{prefix}0`, `{prefix}1`, ….
fn export_mats(st: &mut ModelState, prefix: &str, params: &[&Mat]) {
    for (i, p) in params.iter().enumerate() {
        st.push_mat(&format!("{prefix}{i}"), (*p).clone());
    }
}

/// Import a parameter list written by [`export_mats`], shape-checked.
fn import_mats(st: &ModelState, prefix: &str, params: Vec<&mut Mat>) -> Result<()> {
    for (i, p) in params.into_iter().enumerate() {
        import_mat(st, &format!("{prefix}{i}"), p)?;
    }
    Ok(())
}

/// Import a single named matrix, shape-checked.
fn import_mat(st: &ModelState, key: &str, dst: &mut Mat) -> Result<()> {
    let m = st
        .mat(key)
        .ok_or(Error::Invalid("model state is missing a matrix"))?;
    if m.shape() != dst.shape() {
        return Err(Error::Invalid("model state matrix shape mismatch"));
    }
    *dst = m.clone();
    Ok(())
}

/// Import a named optimiser state (slot count/shapes checked by Adam).
fn import_adam(st: &ModelState, key: &str, opt: &mut Adam) -> Result<()> {
    let a = st
        .adam(key)
        .ok_or(Error::Invalid("model state is missing optimiser state"))?;
    opt.import_state(a).map_err(Error::Invalid)
}

/// Import a named flag.
fn import_flag(st: &ModelState, key: &str) -> Result<bool> {
    st.flag(key)
        .ok_or(Error::Invalid("model state is missing a flag"))
}

/// Reject a state that lacks a named constant (a loss weight the format
/// records but the model fixes).
fn require_num(st: &ModelState, key: &str) -> Result<()> {
    st.num(key)
        .map(|_| ())
        .ok_or(Error::Invalid("model state is missing a loss weight"))
}

// --- parts -----------------------------------------------------------------

/// The encoder part.
#[derive(Clone)]
enum Encoder {
    /// Two GCN layers (32 → 16); the output is the latent code.
    Gcn(GcnEncoder),
    /// The VGAE encoder: training steps decode a reparameterised sample and
    /// add the Gaussian KL/N² term.
    Var(VarGcnEncoder),
}

impl Encoder {
    fn gcn(num_features: usize, rng: &mut Rng64) -> Self {
        Encoder::Gcn(GcnEncoder::new(&[num_features, HIDDEN, LATENT], rng))
    }

    fn var(num_features: usize, rng: &mut Rng64) -> Self {
        Encoder::Var(VarGcnEncoder::new(&[num_features, HIDDEN], LATENT, rng))
    }

    fn params(&self) -> Vec<&Mat> {
        match self {
            Encoder::Gcn(e) => e.params(),
            Encoder::Var(e) => e.params(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Mat> {
        match self {
            Encoder::Gcn(e) => e.params_mut(),
            Encoder::Var(e) => e.params_mut(),
        }
    }

    /// Deterministic embedding (the mean for the variational encoder).
    fn embed(&self, data: &TrainData) -> Mat {
        match self {
            Encoder::Gcn(e) => e.embed(&data.filter, &data.features),
            Encoder::Var(e) => e.embed(&data.filter, &data.features),
        }
    }

    /// Differentiable forward: the latent code, the Gaussian posterior
    /// `(μ, log σ²)` when the code is a sample, and the weight leaves. With
    /// `rng` the variational encoder samples; without it, it returns `μ`.
    #[allow(clippy::type_complexity)]
    fn forward(
        &self,
        g: &mut Graph,
        data: &TrainData,
        rng: Option<&mut Rng64>,
    ) -> Result<(Var, Option<(Var, Var)>, Vec<Var>)> {
        let x = g.constant_shared(&data.features);
        match self {
            Encoder::Gcn(e) => {
                let (z, leaves) = e.forward(g, &data.filter, x)?;
                Ok((z, None, leaves))
            }
            Encoder::Var(e) => {
                let (mu, logvar, leaves) = e.forward(g, &data.filter, x)?;
                match rng {
                    Some(rng) => {
                        let z = VarGcnEncoder::sample(g, mu, logvar, rng)?;
                        Ok((z, Some((mu, logvar)), leaves))
                    }
                    None => Ok((mu, None, leaves)),
                }
            }
        }
    }
}

/// The adversarial regulariser (Pan et al. 2018): a 16→64→1 MLP
/// discriminator, trained by its own Adam, that pushes the latent codes
/// towards a standard-normal prior.
#[derive(Clone)]
struct Adversary {
    disc: Mlp,
    opt: Adam,
}

impl Adversary {
    fn new(rng: &mut Rng64) -> Self {
        let disc = Mlp::new(&[LATENT, 64, 1], rng);
        let mut opt = Adam::new(DISC_LR);
        for p in disc.params() {
            opt.register(p.shape());
        }
        Adversary { disc, opt }
    }

    /// One discriminator update: real ~ N(0, I) vs fake = current embeddings.
    fn step(&mut self, z: &Mat, rng: &mut Rng64) -> Result<()> {
        let (n, d) = z.shape();
        // A single leaf pass over the stacked batch [real; fake] trains on
        // both halves without double-registering the discriminator weights.
        let mut both = standard_normal(n, d, rng).into_vec();
        both.extend_from_slice(z.as_slice());
        let mut target = vec![0.0; 2 * n];
        target[..n].fill(1.0);
        let target = Rc::new(Mat::from_vec(2 * n, 1, target).expect("one label per row"));
        let mut g = Graph::new();
        let bv = g.constant(Mat::from_vec(2 * n, d, both).expect("two n×d halves"));
        let (logits, leaves) = self.disc.forward(&mut g, bv)?;
        let loss = g.bce_logits_dense(logits, &target)?;
        g.backward(loss)?;
        let grads = grads_or_zero(&g, &leaves);
        adam_step(&mut self.opt, self.disc.params_mut(), &grads);
        Ok(())
    }

    /// The generator term: make the frozen discriminator call `z` real.
    fn generator_loss(&self, g: &mut Graph, z: Var) -> Result<Var> {
        let d_fake = self.disc.forward_frozen(g, z)?;
        let ones = Rc::new(Mat::full(g.shape(z).0, 1, 1.0));
        let gen = g.bce_logits_dense(d_fake, &ones)?;
        Ok(g.scale(gen, ADV_WEIGHT))
    }
}

/// The clustering head part. `ready` turns true once
/// [`GaeModel::init_clustering`] has fitted the head to the embeddings.
#[derive(Clone)]
enum Head {
    /// First-group models: clusters are read out post hoc.
    None,
    /// DEC (Appendix B): Student-t soft assignments around learnable
    /// centroids and the `KL(Q ‖ P)` clustering loss.
    Dec { centroids: Mat, ready: bool },
    /// A Gaussian mixture in the latent space (Hui et al. 2020, VaDE-style
    /// simplification documented in DESIGN.md): means and log-variances are
    /// trainable, mixing weights are refreshed in closed form from the
    /// clustering target.
    Gmm {
        weights: Vec<f64>,
        means: Mat,
        logvars: Mat,
        ready: bool,
    },
}

impl Head {
    fn dec(k: usize) -> Self {
        Head::Dec {
            centroids: Mat::zeros(k, LATENT),
            ready: false,
        }
    }

    fn gmm(k: usize) -> Self {
        Head::Gmm {
            weights: vec![1.0 / k as f64; k],
            means: Mat::zeros(k, LATENT),
            logvars: Mat::zeros(k, LATENT),
            ready: false,
        }
    }

    fn ready(&self) -> bool {
        match self {
            Head::None => false,
            Head::Dec { ready, .. } | Head::Gmm { ready, .. } => *ready,
        }
    }

    /// Trainable parameters, in Adam slot order.
    fn params(&self) -> Vec<&Mat> {
        match self {
            Head::None => vec![],
            Head::Dec { centroids, .. } => vec![centroids],
            Head::Gmm { means, logvars, .. } => vec![means, logvars],
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Mat> {
        match self {
            Head::None => vec![],
            Head::Dec { centroids, .. } => vec![centroids],
            Head::Gmm { means, logvars, .. } => vec![means, logvars],
        }
    }

    /// Fit the head to the embeddings `z` (k-means centroids or a GMM).
    fn init(&mut self, z: &Mat, k: usize, rng: &mut Rng64) -> Result<()> {
        match self {
            Head::None => {}
            Head::Dec { centroids, ready } => {
                *centroids = kmeans(z, k, 100, rng, &NOOP)?.centroids;
                *ready = true;
            }
            Head::Gmm {
                weights,
                means,
                logvars,
                ready,
            } => {
                let gmm = GaussianMixture::fit(z, k, 100, rng, &NOOP)?;
                *weights = gmm.weights;
                *means = gmm.means;
                *logvars = gmm.variances.map(f64::ln);
                *ready = true;
            }
        }
        Ok(())
    }

    /// Soft assignments of `z`. With `xi`, the GMM head tempers its
    /// likelihood by the latent dimension: exact responsibilities saturate
    /// when the mixture components are well separated, which would hand Ξ a
    /// degenerate (all-ones) confidence landscape.
    fn assignments(&self, z: &Mat, xi: bool) -> Result<Mat> {
        match self {
            Head::None => Err(Error::Invalid("model has no clustering head")),
            Head::Dec { centroids, .. } => Ok(student_t_assignments(z, centroids)?),
            Head::Gmm {
                weights,
                means,
                logvars,
                ..
            } => {
                let temperature = if xi { z.cols() as f64 } else { 1.0 };
                Ok(responsibilities(weights, means, logvars, z, temperature))
            }
        }
    }

    /// Differentiable clustering loss of `z` against `target`, restricted to
    /// the Ω rows, as a mean over the participating rows (so γ stays
    /// comparable across Ω sizes). Head parameters enter as leaves when
    /// `train` (returned, in slot order), as constants otherwise.
    fn loss(
        &self,
        g: &mut Graph,
        z: Var,
        target: &Mat,
        omega: Option<&[usize]>,
        train: bool,
    ) -> Result<(Var, Vec<Var>)> {
        let params: Vec<Var> = self
            .params()
            .into_iter()
            .map(|p| {
                if train {
                    g.leaf(p.clone())
                } else {
                    g.constant(p.clone())
                }
            })
            .collect();
        let (z, q) = match omega {
            Some(idx) => (g.gather_rows(z, idx)?, target.select_rows(idx)),
            None => (z, target.clone()),
        };
        let rows = q.rows().max(1) as f64;
        let loss = match self {
            Head::None => return Err(Error::Invalid("model has no clustering head")),
            Head::Dec { .. } => {
                let d = g.pairwise_sq_dists(z, params[0])?;
                let num = g.recip_one_plus(d);
                let p = g.row_normalize(num);
                let kl = g.kl_div_const_q(p, &Rc::new(q))?;
                g.scale(kl, 1.0 / rows)
            }
            // Negative responsibility-weighted mixture log-density.
            Head::Gmm { .. } => {
                let lp = g.gauss_log_pdf(z, params[0], params[1])?;
                let rv = g.constant(q);
                let weighted = g.hadamard(lp, rv)?;
                let s = g.sum(weighted);
                g.scale(s, -CLUSTER_WEIGHT / rows)
            }
        };
        Ok((loss, if train { params } else { Vec::new() }))
    }

    /// Closed-form updates after a step that trained the head.
    fn after_step(&mut self, target: &Mat) {
        if let Head::Gmm {
            weights, logvars, ..
        } = self
        {
            // Mixing weights from the target responsibilities.
            let sums = target.col_sums();
            let total: f64 = sums.iter().sum();
            if total > 0.0 {
                for (w, s) in weights.iter_mut().zip(&sums) {
                    *w = (s / total).max(1e-6);
                }
            }
            // Variance floor/ceiling (sklearn's `reg_covar` idea): without
            // it the mixture log-likelihood is unbounded above — components
            // collapse onto single points and take the embedding with them.
            for lv in logvars.as_mut_slice() {
                *lv = lv.clamp(-6.0, 3.0);
            }
        }
    }

    fn export(&self, st: &mut ModelState) {
        match self {
            Head::None => {}
            Head::Dec { centroids, ready } => {
                st.push_mat("centroids", centroids.clone());
                st.push_flag("centroids_ready", *ready);
            }
            Head::Gmm {
                weights,
                means,
                logvars,
                ready,
            } => {
                st.push_mat("mix_means", means.clone());
                st.push_mat("mix_logvars", logvars.clone());
                st.push_vec("mix_weights", weights.clone());
                st.push_flag("heads_ready", *ready);
                st.push_num("cluster_weight", CLUSTER_WEIGHT);
            }
        }
    }

    fn import(&mut self, st: &ModelState) -> Result<()> {
        match self {
            Head::None => {}
            Head::Dec { centroids, ready } => {
                import_mat(st, "centroids", centroids)?;
                *ready = import_flag(st, "centroids_ready")?;
            }
            Head::Gmm {
                weights,
                means,
                logvars,
                ready,
            } => {
                import_mat(st, "mix_means", means)?;
                import_mat(st, "mix_logvars", logvars)?;
                let w = st
                    .vec("mix_weights")
                    .ok_or(Error::Invalid("model state is missing mix_weights"))?;
                if w.len() != weights.len() {
                    return Err(Error::Invalid("model state mixture size mismatch"));
                }
                weights.clone_from(w);
                *ready = import_flag(st, "heads_ready")?;
                require_num(st, "cluster_weight")?;
            }
        }
        Ok(())
    }
}

/// Plain-matrix GMM responsibilities of `z`, with a likelihood temperature
/// (1.0 = exact posterior).
fn responsibilities(weights: &[f64], means: &Mat, logvars: &Mat, z: &Mat, temperature: f64) -> Mat {
    let (n, k) = (z.rows(), weights.len());
    let d = z.cols();
    let ln2pi = (2.0 * std::f64::consts::PI).ln();
    let mut out = Mat::zeros(n, k);
    for i in 0..n {
        let mut logp = vec![0.0; k];
        for c in 0..k {
            let mut acc = weights[c].max(1e-300).ln();
            for di in 0..d {
                let lv = logvars[(c, di)];
                let diff = z[(i, di)] - means[(c, di)];
                acc += -0.5 * (ln2pi + lv + diff * diff * (-lv).exp());
            }
            logp[c] = acc / temperature.max(1e-9);
        }
        let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for lp in &mut logp {
            *lp = (*lp - mx).exp();
            sum += *lp;
        }
        for c in 0..k {
            out[(i, c)] = logp[c] / sum;
        }
    }
    out
}

// --- the composed model ----------------------------------------------------

/// A GAE clustering model composed from an encoder, an optional adversary
/// and a clustering head. The constructors build the paper's six models.
#[derive(Clone)]
pub struct ComposedModel {
    name: &'static str,
    encoder: Encoder,
    adversary: Option<Adversary>,
    head: Head,
    /// Adam over the encoder's parameters, then the head's.
    opt: Adam,
}

impl ComposedModel {
    fn new(name: &'static str, encoder: Encoder, adversary: Option<Adversary>, head: Head) -> Self {
        let mut opt = Adam::new(LR);
        for p in encoder.params().into_iter().chain(head.params()) {
            opt.register(p.shape());
        }
        ComposedModel {
            name,
            encoder,
            adversary,
            head,
            opt,
        }
    }

    /// The plain Graph Auto-Encoder (Kipf & Welling 2016): a two-layer GCN
    /// encoder and an inner-product decoder, trained on reconstruction only.
    /// First-group model: clustering is read out post hoc.
    pub fn gae(num_features: usize, rng: &mut Rng64) -> Self {
        Self::new("GAE", Encoder::gcn(num_features, rng), None, Head::None)
    }

    /// The Variational Graph Auto-Encoder: Gaussian posterior heads, the
    /// VGAE KL regulariser (scaled by 1/N²), and reconstruction from a
    /// sampled latent.
    pub fn vgae(num_features: usize, rng: &mut Rng64) -> Self {
        Self::new("VGAE", Encoder::var(num_features, rng), None, Head::None)
    }

    /// Adversarially Regularised GAE (Pan et al. 2018): the GAE encoder
    /// doubles as a generator whose latent codes are pushed towards a
    /// standard-normal prior by a small MLP discriminator.
    pub fn argae(num_features: usize, rng: &mut Rng64) -> Self {
        let encoder = Encoder::gcn(num_features, rng);
        Self::new("ARGAE", encoder, Some(Adversary::new(rng)), Head::None)
    }

    /// Adversarially Regularised *Variational* GAE.
    pub fn arvgae(num_features: usize, rng: &mut Rng64) -> Self {
        let encoder = Encoder::var(num_features, rng);
        Self::new("ARVGAE", encoder, Some(Adversary::new(rng)), Head::None)
    }

    /// The paper's Discriminative GAE (Appendix B) for `k` clusters: two GCN
    /// layers (32 → 16), Student-t soft assignments around learnable
    /// centroids, the DEC `KL(Q ‖ P)` clustering loss, and reconstruction
    /// with γ = 0.001.
    pub fn dgae(num_features: usize, k: usize, rng: &mut Rng64) -> Self {
        Self::new("DGAE", Encoder::gcn(num_features, rng), None, Head::dec(k))
    }

    /// A VGAE whose latent space carries a Gaussian-mixture clustering head
    /// for `k` clusters.
    pub fn gmm_vgae(num_features: usize, k: usize, rng: &mut Rng64) -> Self {
        Self::new(
            "GMM-VGAE",
            Encoder::var(num_features, rng),
            None,
            Head::gmm(k),
        )
    }

    fn assignments(&self, data: &TrainData, xi: bool) -> Result<Option<Mat>> {
        if !self.head.ready() {
            return Ok(None);
        }
        self.head.assignments(&self.embed(data), xi).map(Some)
    }

    /// The one tape builder behind every step and gradient probe. In order:
    /// encoder forward, sample, reconstruction (weighted γ), KL, generator
    /// term, clustering term; the loss is `(recon + KL) + third term`. With
    /// `rng` (a training step) the variational encoder samples and adds its
    /// KL, the adversary adds its generator term and the head's parameters
    /// are leaves after the encoder's. Without it (a probe) the encoder
    /// returns its mean and the head's parameters are constants.
    fn tape(
        &self,
        data: &TrainData,
        recon: Option<(&Rc<Csr>, f64)>,
        cluster: Option<(&Mat, Option<&[usize]>)>,
        rng: Option<&mut Rng64>,
    ) -> Result<(Graph, Var, Vec<Var>)> {
        let train = rng.is_some();
        let mut g = Graph::new();
        let (z, posterior, mut leaves) = self.encoder.forward(&mut g, data, rng)?;
        let mut terms = Vec::with_capacity(3);
        if let Some((target, gamma)) = recon {
            let r =
                g.gram_bce_logits_sparse(z, target, data.pos_weight, data.norm, data.decoder)?;
            terms.push(g.scale(r, gamma));
        }
        if let Some((mu, logvar)) = posterior {
            let kl = g.gaussian_kl(mu, logvar)?;
            terms.push(g.scale(kl, 1.0 / (data.num_nodes as f64).powi(2)));
        }
        if let (true, Some(adv)) = (train, &self.adversary) {
            terms.push(adv.generator_loss(&mut g, z)?);
        }
        if let Some((target, omega)) = cluster {
            let (cl, head_leaves) = self.head.loss(&mut g, z, target, omega, train)?;
            leaves.extend(head_leaves);
            terms.push(cl);
        }
        let mut terms = terms.into_iter();
        let first = terms
            .next()
            .ok_or(Error::Invalid("step has no loss term"))?;
        let loss = terms.try_fold(first, |acc, t| g.add(acc, t))?;
        Ok((g, loss, leaves))
    }

    /// Flattened encoder gradient of a probe tape.
    fn probe(
        &self,
        data: &TrainData,
        recon: Option<(&Rc<Csr>, f64)>,
        cluster: Option<(&Mat, Option<&[usize]>)>,
    ) -> Result<Vec<f64>> {
        let (mut g, loss, leaves) = self.tape(data, recon, cluster, None)?;
        g.backward(loss)?;
        Ok(flatten(&grads_or_zero(&g, &leaves)))
    }

    /// Checkpoint key of the encoder's Adam.
    fn opt_key(&self) -> &'static str {
        if self.adversary.is_some() {
            "opt_enc"
        } else {
            "opt"
        }
    }
}

impl GaeModel for ComposedModel {
    fn clone_box(&self) -> Box<dyn GaeModel> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn embed(&self, data: &TrainData) -> Mat {
        self.encoder.embed(data)
    }

    fn soft_assignments(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.assignments(data, false)
    }

    fn xi_assignments(&self, data: &TrainData) -> Result<Option<Mat>> {
        self.assignments(data, true)
    }

    fn init_clustering(&mut self, data: &TrainData, rng: &mut Rng64) -> Result<()> {
        if matches!(self.head, Head::None) {
            return Ok(());
        }
        let z = self.embed(data);
        self.head.init(&z, data.num_classes, rng)
    }

    fn cluster_target(&self, data: &TrainData) -> Result<Option<Mat>> {
        let p = self.soft_assignments(data)?;
        Ok(match self.head {
            Head::Dec { .. } => p.map(|p| dec_target_distribution(&p)),
            _ => p,
        })
    }

    fn train_step(&mut self, data: &TrainData, spec: &StepSpec, rng: &mut Rng64) -> Result<f64> {
        if spec.cluster.is_some() && !self.head.ready() {
            return Err(Error::Invalid(match self.head {
                Head::None => "model has no clustering head",
                _ => "clustering head not initialised",
            }));
        }
        if spec.recon_target.is_none() && spec.cluster.is_none() {
            return Ok(0.0);
        }
        if let Some(adv) = &mut self.adversary {
            adv.step(&self.encoder.embed(data), rng)?;
        }
        let recon = spec.recon_target.as_ref().map(|t| (t, spec.gamma));
        let cluster = spec
            .cluster
            .as_ref()
            .map(|c| (&c.target, c.omega.as_deref()));
        let (mut g, loss, leaves) = self.tape(data, recon, cluster, Some(rng))?;
        let value = g.scalar(loss);
        g.backward(loss)?;
        let grads = grads_or_zero(&g, &leaves);
        // A step without a clustering term leaves the head's slots alone.
        let mut params = self.encoder.params_mut();
        if spec.cluster.is_some() {
            params.extend(self.head.params_mut());
        }
        adam_step(&mut self.opt, params, &grads);
        if let Some(c) = &spec.cluster {
            self.head.after_step(&c.target);
        }
        Ok(value)
    }

    fn clustering_grad(
        &self,
        data: &TrainData,
        target: &Mat,
        omega: Option<&[usize]>,
    ) -> Result<Option<Vec<f64>>> {
        if !self.head.ready() {
            return Ok(None);
        }
        self.probe(data, None, Some((target, omega))).map(Some)
    }

    fn recon_grad(&self, data: &TrainData, target: &Rc<Csr>) -> Result<Vec<f64>> {
        self.probe(data, Some((target, 1.0)), None)
    }

    fn export_params(&self) -> ModelState {
        let mut st = ModelState::new(self.name);
        export_mats(&mut st, "enc", &self.encoder.params());
        if let Some(adv) = &self.adversary {
            export_mats(&mut st, "disc", &adv.disc.params());
        }
        self.head.export(&mut st);
        st.push_adam(self.opt_key(), self.opt.export_state());
        if let Some(adv) = &self.adversary {
            st.push_adam("opt_disc", adv.opt.export_state());
            st.push_num("adv_weight", ADV_WEIGHT);
        }
        st
    }

    fn import_params(&mut self, state: &ModelState) -> Result<()> {
        if state.name != self.name {
            return Err(Error::Invalid("model state belongs to a different model"));
        }
        import_mats(state, "enc", self.encoder.params_mut())?;
        if let Some(adv) = &mut self.adversary {
            import_mats(state, "disc", adv.disc.params_mut())?;
        }
        self.head.import(state)?;
        import_adam(state, self.opt_key(), &mut self.opt)?;
        if let Some(adv) = &mut self.adversary {
            import_adam(state, "opt_disc", &mut adv.opt)?;
            require_num(state, "adv_weight")?;
        }
        Ok(())
    }

    fn scale_lr(&mut self, factor: f64) {
        let opts =
            std::iter::once(&mut self.opt).chain(self.adversary.as_mut().map(|a| &mut a.opt));
        for opt in opts {
            let lr = opt.lr();
            opt.set_lr(lr * factor);
        }
    }

    fn nonfinite_grad_steps(&self) -> u64 {
        self.opt.nonfinite_grad_steps()
            + self
                .adversary
                .as_ref()
                .map_or(0, |a| a.opt.nonfinite_grad_steps())
    }
}
