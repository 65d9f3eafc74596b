//! The Adam optimiser.

use rgae_linalg::Mat;
use std::cell::Cell;

thread_local! {
    /// Deterministic fault-injection hook: while armed, every
    /// [`Adam::update`] treats its gradient as non-finite.
    static GRAD_POISON: Cell<bool> = const { Cell::new(false) };
}

/// Arm the gradient-poison fault hook for the current thread: until
/// [`disarm_grad_poison`], every [`Adam::update`] skips its parameter update
/// and counts it as a non-finite-gradient step — exactly the code path a real
/// NaN gradient would take, without having to manufacture one numerically.
pub fn arm_grad_poison() {
    GRAD_POISON.with(|c| c.set(true));
}

/// Disarm the hook armed by [`arm_grad_poison`].
pub fn disarm_grad_poison() {
    GRAD_POISON.with(|c| c.set(false));
}

fn grad_poison_armed() -> bool {
    GRAD_POISON.with(|c| c.get())
}

/// The persistable part of an [`Adam`] optimiser: the shared timestep and
/// the first/second moment buffer per registered slot. Hyper-parameters
/// (lr, betas, …) are reconstructed from config, not checkpointed.
#[derive(Clone, Debug, PartialEq)]
pub struct AdamState {
    /// Shared timestep `t` (number of `begin_step` calls so far).
    pub t: u64,
    /// First-moment estimate per slot, in registration order.
    pub m: Vec<Mat>,
    /// Second-moment estimate per slot, in registration order.
    pub v: Vec<Mat>,
}

/// Adam (Kingma & Ba, 2015).
///
/// State is indexed by parameter slot: callers register each parameter once
/// (in a fixed order) and then pass `(slot, param, grad)` on every step. The
/// GAE reference implementations all train with Adam at `lr = 0.01`, which is
/// the default here.
#[derive(Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Mat>,
    v: Vec<Mat>,
    /// Updates skipped because the gradient contained a non-finite value.
    /// Observability-only: deliberately not part of [`AdamState`], so
    /// checkpoint formats are unchanged and restored runs restart the count.
    nonfinite_skips: u64,
}

impl Adam {
    /// Adam with the paper's default learning rate (0.01) and standard betas.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            nonfinite_skips: 0,
        }
    }

    /// Number of [`Adam::update`] calls skipped because their gradient was
    /// non-finite (or the fault-injection hook was armed). Monotone over the
    /// optimiser's lifetime; not persisted in [`AdamState`].
    pub fn nonfinite_grad_steps(&self) -> u64 {
        self.nonfinite_skips
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Override the learning rate (e.g. between pretraining and clustering).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Register a parameter slot; returns its index. Must be called once per
    /// parameter before the first [`Adam::begin_step`].
    pub fn register(&mut self, shape: (usize, usize)) -> usize {
        self.m.push(Mat::zeros(shape.0, shape.1));
        self.v.push(Mat::zeros(shape.0, shape.1));
        self.m.len() - 1
    }

    /// Advance the shared timestep. Call once per optimisation step, before
    /// the per-parameter [`Adam::update`] calls of that step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Snapshot the mutable optimiser state (timestep + moment buffers).
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a snapshot taken by [`Adam::export_state`]. The receiving
    /// optimiser must already have the same slots registered (same count and
    /// shapes) — state files from a different architecture are rejected.
    pub fn import_state(&mut self, st: &AdamState) -> std::result::Result<(), &'static str> {
        if st.m.len() != self.m.len() || st.v.len() != self.v.len() {
            return Err("adam state slot count mismatch");
        }
        for (cur, new) in self.m.iter().zip(&st.m) {
            if cur.shape() != new.shape() {
                return Err("adam state slot shape mismatch");
            }
        }
        for (cur, new) in self.v.iter().zip(&st.v) {
            if cur.shape() != new.shape() {
                return Err("adam state slot shape mismatch");
            }
        }
        self.t = st.t;
        self.m = st.m.clone();
        self.v = st.v.clone();
        Ok(())
    }

    /// Apply one Adam update to `param` for registered `slot` given `grad`.
    ///
    /// A gradient containing any non-finite value skips the update entirely
    /// — the parameter and both moment buffers are left untouched, so one
    /// poisoned backward pass can never write NaN into the optimiser state —
    /// and increments [`Adam::nonfinite_grad_steps`].
    pub fn update(&mut self, slot: usize, param: &mut Mat, grad: &Mat) {
        assert!(self.t > 0, "call begin_step() before update()");
        assert_eq!(param.shape(), grad.shape(), "param/grad shape mismatch");
        assert_eq!(param.shape(), self.m[slot].shape(), "slot shape mismatch");
        if grad_poison_armed() || grad.as_slice().iter().any(|g| !g.is_finite()) {
            self.nonfinite_skips += 1;
            return;
        }
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let m = self.m[slot].as_mut_slice();
        let v = self.v[slot].as_mut_slice();
        let p = param.as_mut_slice();
        for ((pi, mi), (vi, &gi)) in p
            .iter_mut()
            .zip(m.iter_mut())
            .zip(v.iter_mut().zip(grad.as_slice()))
        {
            *mi = b1 * *mi + (1.0 - b1) * gi;
            *vi = b2 * *vi + (1.0 - b2) * gi * gi;
            let mhat = *mi / bc1;
            let vhat = *vi / bc2;
            *pi -= self.lr * (mhat / (vhat.sqrt() + self.eps));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam should drive a convex quadratic to its minimum.
    #[test]
    fn minimises_quadratic() {
        let mut adam = Adam::new(0.1);
        let slot = adam.register((1, 2));
        let mut p = Mat::from_vec(1, 2, vec![5.0, -3.0]).unwrap();
        for _ in 0..500 {
            // f(p) = ||p - (1, 2)||²; grad = 2(p - target).
            let grad = Mat::from_vec(1, 2, vec![2.0 * (p[(0, 0)] - 1.0), 2.0 * (p[(0, 1)] - 2.0)])
                .unwrap();
            adam.begin_step();
            adam.update(slot, &mut p, &grad);
        }
        assert!((p[(0, 0)] - 1.0).abs() < 1e-3, "{p:?}");
        assert!((p[(0, 1)] - 2.0).abs() < 1e-3, "{p:?}");
    }

    /// First step size is bounded by lr regardless of gradient magnitude.
    #[test]
    fn first_step_is_lr_sized() {
        let mut adam = Adam::new(0.01);
        let slot = adam.register((1, 1));
        let mut p = Mat::full(1, 1, 0.0);
        let grad = Mat::full(1, 1, 1e6);
        adam.begin_step();
        adam.update(slot, &mut p, &grad);
        assert!((p[(0, 0)].abs() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn nonfinite_grad_skips_update_and_counts() {
        let mut adam = Adam::new(0.1);
        let slot = adam.register((1, 2));
        let mut p = Mat::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        adam.begin_step();
        adam.update(
            slot,
            &mut p,
            &Mat::from_vec(1, 2, vec![f64::NAN, 1.0]).unwrap(),
        );
        assert_eq!(p.as_slice(), &[1.0, 2.0], "param untouched");
        assert_eq!(adam.nonfinite_grad_steps(), 1);
        let st = adam.export_state();
        assert!(
            st.m[0].as_slice().iter().all(|&x| x == 0.0),
            "moments untouched"
        );
        assert!(st.v[0].as_slice().iter().all(|&x| x == 0.0));

        // A later finite gradient updates normally, from clean moments.
        adam.begin_step();
        adam.update(slot, &mut p, &Mat::from_vec(1, 2, vec![1.0, -1.0]).unwrap());
        assert!(p[(0, 0)] < 1.0 && p[(0, 1)] > 2.0);
        assert!(p.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(adam.nonfinite_grad_steps(), 1, "finite steps don't count");

        adam.begin_step();
        adam.update(slot, &mut p, &Mat::full(1, 2, f64::INFINITY));
        assert_eq!(adam.nonfinite_grad_steps(), 2);
    }

    #[test]
    fn grad_poison_hook_forces_the_skip_path() {
        let mut adam = Adam::new(0.1);
        let slot = adam.register((1, 1));
        let mut p = Mat::full(1, 1, 3.0);
        let finite_grad = Mat::full(1, 1, 1.0);
        arm_grad_poison();
        adam.begin_step();
        adam.update(slot, &mut p, &finite_grad);
        disarm_grad_poison();
        assert_eq!(p[(0, 0)], 3.0, "poisoned step must not move params");
        assert_eq!(adam.nonfinite_grad_steps(), 1);

        adam.begin_step();
        adam.update(slot, &mut p, &finite_grad);
        assert!(p[(0, 0)] < 3.0, "disarmed optimiser works again");
    }

    #[test]
    fn slots_are_independent() {
        let mut adam = Adam::new(0.1);
        let s0 = adam.register((1, 1));
        let s1 = adam.register((1, 1));
        let mut p0 = Mat::full(1, 1, 0.0);
        let mut p1 = Mat::full(1, 1, 0.0);
        adam.begin_step();
        adam.update(s0, &mut p0, &Mat::full(1, 1, 1.0));
        adam.update(s1, &mut p1, &Mat::full(1, 1, -1.0));
        assert!(p0[(0, 0)] < 0.0);
        assert!(p1[(0, 0)] > 0.0);
    }
}
