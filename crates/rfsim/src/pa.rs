//! Power-amplifier behavioral models.
//!
//! Memoryless AM/AM–AM/PM nonlinearities, the standard system-level PA
//! abstraction: [`RappPa`] (solid-state), [`SalehPa`] (TWT) and
//! [`SoftClipPa`] (ideal limiter). These drive the E6 impairment experiment:
//! OFDM's high PAPR makes EVM/ACPR collapse as back-off shrinks.
//!
//! All three run the batched split-layout kernels from
//! [`ofdm_dsp::kernels`]: one pass over the signal's `re`/`im` component
//! slices with the magnitude computed once per sample from `|z|²` — no
//! `hypot`, no `atan2`, no `from_polar`. Each model also exposes a
//! `distort_reference` method, the classic per-sample polar decomposition,
//! retained as the equivalence oracle and the baseline the `simd_speedup`
//! benchmark measures against.

use crate::block::{Block, SimError};
use crate::signal::Signal;
use ofdm_dsp::{kernels, Complex64};

/// Rapp (solid-state) PA model.
///
/// AM/AM: `g(r) = r / (1 + (r/A)^{2p})^{1/(2p)}` with saturation amplitude
/// `A` and knee sharpness `p`; no AM/PM (the classic Rapp model). A linear
/// pre-gain positions the operating point; use
/// [`RappPa::with_input_backoff_db`] to set drive level relative to
/// saturation.
///
/// # Example
///
/// ```
/// use rfsim::prelude::*;
/// use ofdm_dsp::Complex64;
///
/// let mut pa = RappPa::new(1.0, 3.0);
/// let s = Signal::new(vec![Complex64::new(10.0, 0.0)], 1.0);
/// let out = pa.process(&[s]).unwrap();
/// assert!(out.samples()[0].abs() <= 1.0 + 1e-9); // saturates at A = 1
/// ```
#[derive(Debug, Clone)]
pub struct RappPa {
    saturation: f64,
    smoothness: f64,
    gain: f64,
}

impl RappPa {
    /// Creates a Rapp PA with saturation amplitude and smoothness factor.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive.
    pub fn new(saturation: f64, smoothness: f64) -> Self {
        assert!(saturation > 0.0, "saturation must be positive");
        assert!(smoothness > 0.0, "smoothness must be positive");
        RappPa {
            saturation,
            smoothness,
            gain: 1.0,
        }
    }

    /// Builder: linear pre-gain in dB (amplitude gain `10^{dB/20}`).
    pub fn with_gain_db(mut self, db: f64) -> Self {
        self.gain = 10f64.powf(db / 20.0);
        self
    }

    /// Builder: sets the drive so a unit-RMS input sits `backoff_db` below
    /// the saturation *power* (input back-off convention).
    pub fn with_input_backoff_db(mut self, backoff_db: f64) -> Self {
        self.gain = self.saturation * 10f64.powf(-backoff_db / 20.0);
        self
    }

    /// Saturation output amplitude.
    pub fn saturation(&self) -> f64 {
        self.saturation
    }

    /// Applies the nonlinearity to split component slices in place — the
    /// batched hot path (a single magnitude computation per sample,
    /// sqrt-free for the Rapp curve).
    pub fn apply_split(&self, re: &mut [f64], im: &mut [f64]) {
        kernels::rapp_apply_split(re, im, self.gain, self.saturation, self.smoothness);
    }

    /// Reference per-sample implementation via the classic polar
    /// decomposition (`hypot` + `atan2` + `from_polar`) — the retained
    /// scalar path equivalence tests and the `simd_speedup` benchmark
    /// compare against. Not used by [`Block::process`].
    pub fn distort_reference(&self, z: Complex64) -> Complex64 {
        let (a, p) = (self.saturation, self.smoothness);
        kernels::distort_polar(
            z,
            self.gain,
            |r| r / (1.0 + (r / a).powf(2.0 * p)).powf(1.0 / (2.0 * p)),
            |_| 0.0,
        )
    }
}

impl Block for RappPa {
    fn name(&self) -> &str {
        "rapp-pa"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let (re, im) = out.parts_mut();
        kernels::rapp_apply_split(re, im, self.gain, self.saturation, self.smoothness);
        Ok(())
    }
}

/// Saleh (traveling-wave-tube) PA model with both AM/AM and AM/PM.
///
/// AM/AM: `α_a r / (1 + β_a r²)`; AM/PM: `α_φ r² / (1 + β_φ r²)` radians.
/// The classic parameter set (`α_a=2.1587, β_a=1.1517, α_φ=4.033,
/// β_φ=9.104`) is available as [`SalehPa::classic`].
#[derive(Debug, Clone)]
pub struct SalehPa {
    alpha_a: f64,
    beta_a: f64,
    alpha_phi: f64,
    beta_phi: f64,
    gain: f64,
}

impl SalehPa {
    /// Creates a Saleh PA from its four coefficients.
    pub fn new(alpha_a: f64, beta_a: f64, alpha_phi: f64, beta_phi: f64) -> Self {
        SalehPa {
            alpha_a,
            beta_a,
            alpha_phi,
            beta_phi,
            gain: 1.0,
        }
    }

    /// The widely used parameter set from Saleh's 1981 paper.
    pub fn classic() -> Self {
        SalehPa::new(2.1587, 1.1517, 4.033, 9.104)
    }

    /// Builder: linear pre-gain in dB.
    pub fn with_gain_db(mut self, db: f64) -> Self {
        self.gain = 10f64.powf(db / 20.0);
        self
    }

    /// Input amplitude at which the AM/AM curve peaks (`1/√β_a`).
    pub fn peak_input(&self) -> f64 {
        1.0 / self.beta_a.sqrt()
    }

    /// Applies the nonlinearity to split component slices in place — the
    /// batched hot path (both curves evaluated from `|z|²`, one `sin_cos`
    /// per sample).
    pub fn apply_split(&self, re: &mut [f64], im: &mut [f64]) {
        kernels::saleh_apply_split(
            re,
            im,
            self.gain,
            self.alpha_a,
            self.beta_a,
            self.alpha_phi,
            self.beta_phi,
        );
    }

    /// Reference per-sample polar implementation — the retained scalar
    /// path equivalence tests and the `simd_speedup` benchmark compare
    /// against. Not used by [`Block::process`].
    pub fn distort_reference(&self, z: Complex64) -> Complex64 {
        let (aa, ba, ap, bp) = (self.alpha_a, self.beta_a, self.alpha_phi, self.beta_phi);
        kernels::distort_polar(
            z,
            self.gain,
            |r| aa * r / (1.0 + ba * r * r),
            |r| ap * r * r / (1.0 + bp * r * r),
        )
    }
}

impl Block for SalehPa {
    fn name(&self) -> &str {
        "saleh-pa"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let (re, im) = out.parts_mut();
        kernels::saleh_apply_split(
            re,
            im,
            self.gain,
            self.alpha_a,
            self.beta_a,
            self.alpha_phi,
            self.beta_phi,
        );
        Ok(())
    }
}

/// An ideal soft limiter: linear below the clip level, hard-limited above.
#[derive(Debug, Clone)]
pub struct SoftClipPa {
    clip: f64,
    gain: f64,
}

impl SoftClipPa {
    /// Creates a limiter clipping at amplitude `clip`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive.
    pub fn new(clip: f64) -> Self {
        assert!(clip > 0.0, "clip level must be positive");
        SoftClipPa { clip, gain: 1.0 }
    }

    /// Builder: linear pre-gain in dB.
    pub fn with_gain_db(mut self, db: f64) -> Self {
        self.gain = 10f64.powf(db / 20.0);
        self
    }

    /// Applies the limiter to split component slices in place.
    pub fn apply_split(&self, re: &mut [f64], im: &mut [f64]) {
        kernels::softclip_apply_split(re, im, self.gain, self.clip);
    }

    /// Reference per-sample polar implementation — the retained scalar
    /// path equivalence tests and the `simd_speedup` benchmark compare
    /// against. Not used by [`Block::process`].
    pub fn distort_reference(&self, z: Complex64) -> Complex64 {
        let c = self.clip;
        kernels::distort_polar(z, self.gain, |r| r.min(c), |_| 0.0)
    }
}

impl Block for SoftClipPa {
    fn name(&self) -> &str {
        "softclip-pa"
    }

    fn process_chunk(&mut self, inputs: &[&Signal], out: &mut Signal) -> Result<(), SimError> {
        out.copy_from(inputs[0]);
        let (re, im) = out.parts_mut();
        kernels::softclip_apply_split(re, im, self.gain, self.clip);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(vals: &[f64]) -> Signal {
        Signal::new(vals.iter().map(|&v| Complex64::new(v, 0.0)).collect(), 1.0)
    }

    #[test]
    fn pa_chunked_matches_batch() {
        let s = Signal::new(
            (0..101)
                .map(|i| Complex64::cis(0.13 * i as f64).scale(0.02 * i as f64))
                .collect::<Vec<_>>(),
            1.0,
        );
        let models: Vec<Box<dyn Fn() -> Box<dyn Block>>> = vec![
            Box::new(|| Box::new(RappPa::new(1.0, 3.0).with_gain_db(3.0))),
            Box::new(|| Box::new(SalehPa::classic())),
            Box::new(|| Box::new(SoftClipPa::new(0.8))),
        ];
        for make in &models {
            let want = make().process(std::slice::from_ref(&s)).unwrap();
            for chunk_len in [1usize, 7, 50, 1000] {
                let mut pa = make();
                pa.begin_stream();
                let mut got = Signal::empty(s.sample_rate());
                let mut chunk_out = Signal::default();
                let mut pos = 0;
                while pos < s.len() {
                    let take = chunk_len.min(s.len() - pos);
                    let mut chunk = Signal::default();
                    chunk.assign_range(&s, pos, take);
                    pa.process_chunk(&[&chunk], &mut chunk_out).unwrap();
                    got.extend_from(&chunk_out);
                    pos += take;
                }
                pa.end_stream().unwrap();
                assert_eq!(got, want, "chunk_len {chunk_len}");
            }
        }
    }

    #[test]
    fn batched_path_matches_polar_reference() {
        // The kernel path reformulates the polar math; outputs must agree
        // with the retained scalar reference to FP-reassociation level.
        let s = Signal::new(
            (0..257)
                .map(|i| Complex64::cis(0.31 * i as f64).scale(0.015 * i as f64))
                .collect::<Vec<_>>(),
            1.0,
        );
        let rapp = RappPa::new(1.0, 3.0).with_input_backoff_db(8.0);
        let saleh = SalehPa::classic();
        let clip = SoftClipPa::new(0.8);
        let outs = [
            rapp.clone().process(std::slice::from_ref(&s)).unwrap(),
            saleh.clone().process(std::slice::from_ref(&s)).unwrap(),
            clip.clone().process(std::slice::from_ref(&s)).unwrap(),
        ];
        let refs: [Vec<Complex64>; 3] = [
            s.iter().map(|z| rapp.distort_reference(z)).collect(),
            s.iter().map(|z| saleh.distort_reference(z)).collect(),
            s.iter().map(|z| clip.distort_reference(z)).collect(),
        ];
        for (out, wanted) in outs.iter().zip(&refs) {
            for (got, want) in out.iter().zip(wanted.iter()) {
                assert!((got - *want).abs() < 1e-12, "got {got}, want {want}");
            }
        }
    }

    #[test]
    fn rapp_linear_in_small_signal() {
        let mut pa = RappPa::new(1.0, 3.0);
        let out = pa.process(&[sig(&[0.01])]).unwrap();
        assert!((out.samples()[0].re - 0.01).abs() < 1e-6);
    }

    #[test]
    fn rapp_saturates() {
        let mut pa = RappPa::new(0.5, 2.0);
        let out = pa.process(&[sig(&[100.0])]).unwrap();
        let a = out.samples()[0].re;
        assert!(a <= 0.5 + 1e-9 && a > 0.49);
        assert_eq!(pa.saturation(), 0.5);
    }

    #[test]
    fn rapp_higher_smoothness_is_closer_to_ideal_limiter() {
        let r = 1.0; // right at saturation
        let mut soft = RappPa::new(1.0, 1.0);
        let mut sharp = RappPa::new(1.0, 100.0);
        let ys = soft.process(&[sig(&[r])]).unwrap().samples()[0].re;
        let yh = sharp.process(&[sig(&[r])]).unwrap().samples()[0].re;
        // Ideal limiter would give 1.0 at r = 1; p = 1 gives 1/√2.
        assert!((ys - 1.0 / 2f64.sqrt()).abs() < 1e-9);
        assert!(yh > 0.99 * (1.0 / 2f64.powf(1.0 / 200.0)));
        assert!(yh > ys);
    }

    #[test]
    fn rapp_preserves_phase() {
        let mut pa = RappPa::new(1.0, 2.0);
        let s = Signal::new(vec![Complex64::from_polar(3.0, 1.2)], 1.0);
        let out = pa.process(&[s]).unwrap();
        assert!((out.samples()[0].arg() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn rapp_gain_and_backoff_builders() {
        let mut pa = RappPa::new(1.0, 3.0).with_gain_db(20.0);
        let out = pa.process(&[sig(&[0.001])]).unwrap();
        assert!((out.samples()[0].re - 0.01).abs() < 1e-6);

        // 10 dB input back-off: unit input drives at 0.316 × saturation.
        let mut pa = RappPa::new(1.0, 6.0).with_input_backoff_db(10.0);
        let out = pa.process(&[sig(&[1.0])]).unwrap();
        assert!((out.samples()[0].re - 0.3162).abs() < 0.01);
    }

    #[test]
    fn saleh_peak_and_rollover() {
        let mut pa = SalehPa::classic();
        let peak_in = pa.peak_input();
        let below = pa.process(&[sig(&[peak_in * 0.5])]).unwrap().samples()[0].abs();
        let at = pa.process(&[sig(&[peak_in])]).unwrap().samples()[0].abs();
        let above = pa.process(&[sig(&[peak_in * 2.0])]).unwrap().samples()[0].abs();
        assert!(at > below && at > above, "AM/AM must peak at 1/√βa");
    }

    #[test]
    fn saleh_am_pm_rotates_phase() {
        let mut pa = SalehPa::classic();
        let out = pa.process(&[sig(&[0.8])]).unwrap();
        let phase = out.samples()[0].arg();
        // αφ·r²/(1+βφ·r²) at r = 0.8: 4.033·0.64 / (1 + 9.104·0.64) ≈ 0.3788 rad.
        assert!((phase - 0.3788).abs() < 1e-3, "phase {phase}");
    }

    #[test]
    fn saleh_zero_input_zero_output() {
        let mut pa = SalehPa::classic();
        let out = pa.process(&[sig(&[0.0])]).unwrap();
        assert_eq!(out.samples()[0], Complex64::ZERO);
    }

    #[test]
    fn softclip_passes_below_and_clips_above() {
        let mut pa = SoftClipPa::new(1.0);
        let out = pa.process(&[sig(&[0.5, 2.0])]).unwrap();
        assert!((out.samples()[0].re - 0.5).abs() < 1e-12);
        assert!((out.samples()[1].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn softclip_gain_builder() {
        let mut pa = SoftClipPa::new(10.0).with_gain_db(6.0206);
        let out = pa.process(&[sig(&[1.0])]).unwrap();
        assert!((out.samples()[0].re - 2.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_rapp_params_panic() {
        let _ = RappPa::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "clip")]
    fn bad_clip_panics() {
        let _ = SoftClipPa::new(-1.0);
    }
}
