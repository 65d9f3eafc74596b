//! Decoder numerics: the libm reference and the fast one-exp path.
//!
//! The fused decoder needs `softplus(x) = log(1 + eˣ)` and `σ(x)` for every
//! one of the N² logits. [`DecoderNumerics::Exact`] evaluates them with the
//! libm calls of [`crate::softplus`] / [`crate::sigmoid`] (two or three per
//! pair), bit-identical to the legacy `gram` + `bce_logits_sparse` chain.
//! [`DecoderNumerics::Fast`] computes one `e = exp(−|x|)` per logit and
//! derives both values from it:
//!
//! ```text
//! softplus(x) = max(x, 0) + log1p(e)        σ(x) = (x ≥ 0 ? 1 : e) / (1 + e)
//! ```
//!
//! `exp` and `log1p` are the branch-free polynomials below, written once
//! and evaluated in batches ([`softplus_sigmoid_batch`]) so the compiler
//! vectorises them. The AVX2 and AVX-512 entries compile the very same loop
//! body under `#[target_feature]`; it uses only IEEE add, sub, mul, div,
//! compare/select and integer bit operations — no libm call and no
//! `mul_add` — so every entry rounds every operation identically and their
//! results are bitwise equal by construction. Results therefore never
//! depend on the host CPU.
//!
//! # Error analysis (fast path)
//!
//! `u = 2⁻⁵³` is the unit roundoff; bounds are first order in `u`.
//!
//! **`exp(t)`, `t = −|x| ≤ 0`.** `k = round(t/ln 2)` via the 1.5·2⁵² shift
//! trick, `r = (t − k·LN2_HI) − k·LN2_LO` (Cody–Waite: `k·LN2_HI` and the
//! first subtraction are exact, the split `LN2_HI + LN2_LO` is within 2⁻⁸⁵
//! of ln 2, `|k| ≤ 1076`), so `|r| ≤ 0.3466` and `r` carries at most
//! `0.35u` relative error into `eʳ`. `eʳ` is the degree-13 Taylor
//! polynomial in Horner form: truncation `≤ |r|¹⁴/14!·e^|r| / e^−|r|
//! < 0.08u`; coefficient rounding `< 0.02u`; the Horner recurrence
//! `εⱼ ≤ u + ρⱼ(u + εⱼ₊₁)` with `ρ₂ ≤ 0.13`, `ρ₁ ≤ 0.23`, `ρ₀ ≤ 0.414`
//! gives `≤ 2.05u`. The scale `2ᵏ = 2^k₁·2^k₂` (`k₁, k₂ ≥ −538`) is applied
//! in two exact multiplications, the second of which may round once into
//! the subnormal range. Hence `|ê − e| ≤ 2.5u·e + 2⁻¹⁰⁷⁵`. `t < −746` is
//! clamped to −746, whose result rounds to 0 like libm's.
//!
//! **`log1p(e)`, `e ∈ [0, 1]`.** For `e ≤ ½`, `f = e`; otherwise
//! `f = (e − 1)/2` (exact by Sterbenz) and `ln 2` is added back.
//! `s = f/(2 + f)` (`|s| ≤ 0.2`, `≤ 2u`), `R = Σᵢ₌₁¹⁰ 2s²ⁱ/(2i + 1)`
//! (`≤ 8u`, truncation `≤ s²²/23/(1 − s²) < 0.17u` of the result), and
//! `log(1 + f) = f − s·(f − R)`. The correction `s·(f − R)` is at most
//! 0.233 of the result (`e = ½`) and carries `≤ 4.8u`, so the small branch
//! is within `2.3u`; the large branch adds `ln 2` (`u/2` absolute for the
//! constant, `u/2` for the sum) to a value `|log(1 + f)| ≤ 0.288` known to
//! `1.63u`, over a result `≥ 0.405`: `≤ 3.7u`. Hence `≤ 4u` on `[0, 1]`.
//!
//! **Composed.** `log1p` has condition number `e/((1 + e)·log1p(e)) ≤ 1`,
//! so `L̂ = log1p(ê)` is within `2.5u + 4u`; `max(x, 0) + L̂` adds one
//! rounding: **softplus ≤ 8u relative** (plus `2⁻¹⁰⁷⁵` absolute). For σ,
//! `1 + ê` is within `1.25u + u` (`e/(1 + e) ≤ ½`) and the division adds
//! `u`; the numerator `ê` adds `2.5u` when `x < 0`: **σ ≤ 6u relative**
//! (plus `2⁻¹⁰⁷⁴` absolute). [`crate::fast_exact_bound`] composes these
//! two bounds into loss and gradient bounds against exact mode.
//!
//! Against the libm reference, the only differences beyond these few ulp
//! are where the reference itself truncates: for `x > 30` it returns `x`
//! (off by `≤ e⁻ˣ`) and for `x < −30` it returns `eˣ` (off by `≤ e²ˣ/2`),
//! while the fast path evaluates `log1p` everywhere.

/// How the fused decoder evaluates its transcendental pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecoderNumerics {
    /// One `exp(−|x|)` per logit through the in-repo batched polynomials
    /// (see the module docs for the error analysis). The default.
    #[default]
    Fast,
    /// The libm path: bit-identical to the legacy `gram` +
    /// `bce_logits_sparse` chain.
    Exact,
}

/// Relative error bound of the fast softplus, in units of `u = 2⁻⁵³`
/// (plus `2⁻¹⁰⁷⁵` absolute); derived in the module docs.
pub(crate) const FAST_SOFTPLUS_REL: f64 = 8.0;

/// Relative error bound of the fast σ, in units of `u = 2⁻⁵³` (plus
/// `2⁻¹⁰⁷⁴` absolute); derived in the module docs.
pub(crate) const FAST_SIGMOID_REL: f64 = 6.0;

const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 21 trailing zero bits, so
/// `k·LN2_HI` is exact for `|k| < 2²¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `1.5·2⁵²`: adding it rounds a value of magnitude `< 2⁵¹` to an integer
/// held in the low mantissa bits.
const SHIFT: f64 = 6_755_399_441_055_744.0;
/// Below this, `exp` underflows to 0 in round-to-nearest.
const EXP_CLAMP: f64 = -746.0;

/// `exp(t)` for `t ≤ 0` (or NaN). Branch-free.
#[inline(always)]
fn exp_nonpos(t: f64) -> f64 {
    // A NaN fails the comparison and passes through.
    let t = if t < EXP_CLAMP { EXP_CLAMP } else { t };
    let y = t * INV_LN2 + SHIFT;
    let kf = y - SHIFT;
    // `−k ∈ [0, 1076]` straight from the mantissa bits.
    let nk = SHIFT.to_bits().wrapping_sub(y.to_bits());
    let r = (t - kf * LN2_HI) - kf * LN2_LO;
    let mut p = 1.0 / 6_227_020_800.0;
    p = p * r + 1.0 / 479_001_600.0;
    p = p * r + 1.0 / 39_916_800.0;
    p = p * r + 1.0 / 3_628_800.0;
    p = p * r + 1.0 / 362_880.0;
    p = p * r + 1.0 / 40_320.0;
    p = p * r + 1.0 / 5_040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2ᵏ = 2^−h · 2^−(nk−h): both factors stay normal, so only the last
    // product can round (into the subnormal range).
    let h = nk >> 1;
    let s1 = f64::from_bits(1023u64.wrapping_sub(h) << 52);
    let s2 = f64::from_bits(1023u64.wrapping_sub(nk - h) << 52);
    p * s1 * s2
}

/// `log(1 + e)` for `e ∈ [0, 1]` (or NaN). Branch-free.
#[inline(always)]
fn log1p_unit(e: f64) -> f64 {
    let big = e > 0.5;
    let f = if big { (e - 1.0) * 0.5 } else { e };
    let s = f / (2.0 + f);
    let z = s * s;
    let mut q = 2.0 / 21.0;
    q = q * z + 2.0 / 19.0;
    q = q * z + 2.0 / 17.0;
    q = q * z + 2.0 / 15.0;
    q = q * z + 2.0 / 13.0;
    q = q * z + 2.0 / 11.0;
    q = q * z + 2.0 / 9.0;
    q = q * z + 2.0 / 7.0;
    q = q * z + 2.0 / 5.0;
    q = q * z + 2.0 / 3.0;
    let r = z * q;
    let l = f - s * (f - r);
    if big {
        std::f64::consts::LN_2 + l
    } else {
        l
    }
}

/// Fast `softplus(x)` — the same bits as the softplus half of
/// [`softplus_sigmoid_fast`].
#[inline(always)]
pub(crate) fn softplus_fast(x: f64) -> f64 {
    softplus_from(x, exp_nonpos(-x.abs()))
}

#[inline(always)]
fn softplus_from(x: f64, e: f64) -> f64 {
    let m = if x > 0.0 { x } else { 0.0 };
    m + log1p_unit(e)
}

/// Fast `(softplus(x), σ(x))` from one `exp(−|x|)`.
#[inline(always)]
pub fn softplus_sigmoid_fast(x: f64) -> (f64, f64) {
    let e = exp_nonpos(-x.abs());
    let num = if x >= 0.0 { 1.0 } else { e };
    (softplus_from(x, e), num / (1.0 + e))
}

/// The batch loop every entry compiles: slicing to one length lets the
/// compiler drop the bounds checks and vectorise.
#[inline(always)]
fn batch_body(x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    let n = x.len();
    let (sp, sig) = (&mut sp[..n], &mut sig[..n]);
    for i in 0..n {
        let (a, b) = softplus_sigmoid_fast(x[i]);
        sp[i] = a;
        sig[i] = b;
    }
}

fn batch_portable(x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    batch_body(x, sp, sig);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn batch_avx2(x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    batch_body(x, sp, sig);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn batch_avx512(x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    batch_body(x, sp, sig);
}

/// A compiled entry of the fast batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Baseline target features only.
    Portable,
    /// x86-64 AVX2 (4 lanes).
    Avx2,
    /// x86-64 AVX-512F (8 lanes).
    Avx512,
}

impl SimdLevel {
    /// Whether this CPU can run the entry.
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every entry this CPU can run, portable first.
    pub fn available() -> Vec<SimdLevel> {
        [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|l| l.is_available())
            .collect()
    }

    /// The widest entry this CPU can run.
    pub fn detected() -> SimdLevel {
        if SimdLevel::Avx512.is_available() {
            SimdLevel::Avx512
        } else if SimdLevel::Avx2.is_available() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Portable
        }
    }
}

/// Fast `(softplus, σ)` of every `x[i]` into `sp[i]`, `sig[i]` through the
/// widest entry this CPU runs. Bitwise equal to
/// [`softplus_sigmoid_fast`] per element.
pub fn softplus_sigmoid_batch(x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    softplus_sigmoid_batch_with(SimdLevel::detected(), x, sp, sig);
}

/// [`softplus_sigmoid_batch`] through a chosen entry.
///
/// # Panics
/// If `sp` or `sig` is shorter than `x`, or the CPU cannot run `level`.
pub fn softplus_sigmoid_batch_with(level: SimdLevel, x: &[f64], sp: &mut [f64], sig: &mut [f64]) {
    assert!(
        sp.len() >= x.len() && sig.len() >= x.len(),
        "softplus_sigmoid_batch: output shorter than input"
    );
    assert!(
        level.is_available(),
        "{level:?} is not available on this CPU"
    );
    match level {
        SimdLevel::Portable => batch_portable(x, sp, sig),
        // SAFETY: the assert above checked that this CPU runs AVX2.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { batch_avx2(x, sp, sig) },
        // SAFETY: the assert above checked that this CPU runs AVX-512F.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { batch_avx512(x, sp, sig) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sigmoid, softplus};

    const U: f64 = f64::EPSILON / 2.0;

    #[test]
    fn cody_waite_split_is_exact_enough() {
        assert_eq!(LN2_HI.to_bits() & 0x1f_ffff, 0);
        // The split refines the correctly rounded `LN_2` (within 2⁻⁵⁴ of
        // ln 2) and rounds back to it.
        assert_eq!(LN2_HI + LN2_LO, std::f64::consts::LN_2);
        let gap = (LN2_HI - std::f64::consts::LN_2) + LN2_LO;
        assert!(gap.abs() <= 2f64.powi(-54), "split gap {gap:e}");
    }

    #[test]
    fn special_values() {
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert_eq!(exp_nonpos(-0.0), 1.0);
        assert_eq!(exp_nonpos(-800.0), 0.0);
        assert_eq!(exp_nonpos(f64::NEG_INFINITY), 0.0);
        assert!(exp_nonpos(f64::NAN).is_nan());
        assert_eq!(log1p_unit(0.0), 0.0);
        assert_eq!(log1p_unit(1.0), std::f64::consts::LN_2);
        assert_eq!(softplus_sigmoid_fast(0.0), (std::f64::consts::LN_2, 0.5));
        assert_eq!(softplus_sigmoid_fast(f64::INFINITY), (f64::INFINITY, 1.0));
        assert_eq!(softplus_sigmoid_fast(f64::NEG_INFINITY), (0.0, 0.0));
        let (sp, sig) = softplus_sigmoid_fast(f64::NAN);
        assert!(sp.is_nan() && sig.is_nan());
    }

    #[test]
    fn exp_within_bound_of_libm() {
        // libm exp is within 1 ulp (≤ 2u relative); the fast one within
        // 2.5u plus the subnormal absolute term.
        let mut t = 0.0f64;
        while t > -745.0 {
            let want = t.exp();
            let got = exp_nonpos(t);
            let tol = (2.5 + 2.0) * U * want + 2f64.powi(-1074);
            assert!((got - want).abs() <= tol, "exp({t}): {got} vs {want}");
            t -= 0.0173;
        }
    }

    #[test]
    fn log1p_within_bound_of_libm() {
        for i in 0..=20_000 {
            let e = i as f64 / 20_000.0;
            let want = e.ln_1p();
            let got = log1p_unit(e);
            assert!((got - want).abs() <= (4.0 + 2.0) * U * want, "log1p({e})");
        }
    }

    #[test]
    fn pair_within_bound_of_references() {
        let mut x = -30.0f64;
        while x <= 30.0 {
            let (sp, sig) = softplus_sigmoid_fast(x);
            // libm reference: softplus ≤ 4u, σ ≤ 5u (see the decoder test).
            let (rs, rg) = (softplus(x), sigmoid(x));
            assert!(
                (sp - rs).abs() <= (FAST_SOFTPLUS_REL + 4.0) * U * rs,
                "sp({x})"
            );
            assert!(
                (sig - rg).abs() <= (FAST_SIGMOID_REL + 5.0) * U * rg,
                "σ({x})"
            );
            assert_eq!(sp.to_bits(), softplus_fast(x).to_bits());
            x += 0.00731;
        }
    }
}
