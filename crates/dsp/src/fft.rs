//! Fast Fourier transforms.
//!
//! One engine serves every transform in the family, behind one planner
//! type, [`Fft`]: an iterative radix-2 decimation-in-time FFT with
//! precomputed twiddle factors. Power-of-two lengths (802.11a/g, DAB,
//! DVB-T, HomePlug, ADSL, VDSL) run it directly; any other length (DRM's
//! useful symbol lengths — 288, 176, 112 samples at 12 kHz) runs
//! Bluestein's chirp-z algorithm, a circular convolution evaluated with the
//! same radix-2 engine. The transmitter's IFFT, every receiver's FFT and
//! the spectrum analyzer all go through the same in-place complex API.
//!
//! Plans are immutable after construction and `Send + Sync`, so one plan can
//! serve many worker threads.
//!
//! # Example
//!
//! ```
//! use ofdm_dsp::{Complex64, fft::Fft};
//!
//! // A non-power-of-two length exercises the Bluestein path.
//! let fft = Fft::new(288);
//! let mut v: Vec<Complex64> = (0..288)
//!     .map(|n| Complex64::cis(2.0 * std::f64::consts::PI * 7.0 * n as f64 / 288.0))
//!     .collect();
//! fft.forward(&mut v);
//! // All energy lands in bin 7.
//! assert!((v[7].abs() - 288.0).abs() < 1e-6);
//! ```

use crate::complex::Complex64;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// An FFT plan for a fixed transform length.
///
/// Construction precomputes twiddle factors (and, for non-power-of-two
/// lengths, the Bluestein chirp and its transform). [`Fft::forward`] computes
/// the unnormalized DFT; [`Fft::inverse`] includes the `1/N` factor so that
/// `inverse(forward(x)) == x`.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    engine: Engine,
}

#[derive(Debug, Clone)]
enum Engine {
    Radix2(Radix2),
    Bluestein(Box<Bluestein>),
}

impl Fft {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be nonzero");
        let engine = if n.is_power_of_two() {
            Engine::Radix2(Radix2::new(n))
        } else {
            Engine::Bluestein(Box::new(Bluestein::new(n)))
        };
        Fft { n, engine }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` when the plan length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Returns `true` if this plan uses the radix-2 engine (as opposed to
    /// Bluestein's algorithm). Exposed for the ablation bench.
    #[inline]
    pub fn is_radix2(&self) -> bool {
        matches!(self.engine, Engine::Radix2(_))
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-i 2π k n / N}` (no scaling).
    ///
    /// [`Fft::forward_in`] with a fresh scratch, so a non-power-of-two plan
    /// allocates its Bluestein work buffer on every call; hot loops hold an
    /// [`FftScratch`] and call [`Fft::forward_in`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.forward_in(buf, &mut FftScratch::new());
    }

    /// In-place inverse DFT with `1/N` normalization:
    /// `x[n] = (1/N) Σ_k X[k] e^{+i 2π k n / N}`.
    ///
    /// [`Fft::inverse_in`] with a fresh scratch; see [`Fft::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.inverse_in(buf, &mut FftScratch::new());
    }

    /// In-place forward DFT reusing caller-provided scratch.
    ///
    /// The Bluestein convolution buffer comes from `scratch`, so a
    /// long-lived scratch makes repeated transforms allocation-free after
    /// warm-up. The radix-2 engine needs no scratch and ignores it.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn forward_in(&self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan length");
        match &self.engine {
            Engine::Radix2(r) => r.transform(buf, Direction::Forward),
            Engine::Bluestein(b) => b.transform_with(buf, Direction::Forward, &mut scratch.work),
        }
    }

    /// In-place inverse DFT (with `1/N` scaling) reusing caller-provided
    /// scratch. See [`Fft::forward_in`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan length.
    pub fn inverse_in(&self, buf: &mut [Complex64], scratch: &mut FftScratch) {
        assert_eq!(buf.len(), self.n, "buffer length must match plan length");
        match &self.engine {
            Engine::Radix2(r) => r.transform(buf, Direction::Inverse),
            Engine::Bluestein(b) => b.transform_with(buf, Direction::Inverse, &mut scratch.work),
        }
        let scale = 1.0 / self.n as f64;
        for z in buf.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// Convenience: forward transform of a borrowed slice into a new vector.
    pub fn forward_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut v = input.to_vec();
        self.forward(&mut v);
        v
    }

    /// Convenience: inverse transform of a borrowed slice into a new vector.
    pub fn inverse_to_vec(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut v = input.to_vec();
        self.inverse(&mut v);
        v
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

/// Iterative radix-2 DIT engine.
#[derive(Debug, Clone)]
struct Radix2 {
    n: usize,
    /// Bit-reversal permutation indices.
    rev: Vec<u32>,
    /// Forward twiddles, e^{-i 2π k / N} for k in 0..N/2.
    twiddles: Vec<Complex64>,
}

impl Radix2 {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        let twiddles = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Radix2 { n, rev, twiddles }
    }

    fn transform(&self, buf: &mut [Complex64], dir: Direction) {
        let n = self.n;
        if n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        // Butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = self.twiddles[k * stride];
                    let tw = match dir {
                        Direction::Forward => tw,
                        Direction::Inverse => tw.conj(),
                    };
                    let a = buf[start + k];
                    let b = buf[start + k + half] * tw;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }
}

/// Bluestein chirp-z engine for arbitrary lengths.
///
/// Expresses a length-`n` DFT as a circular convolution of length `m` (the
/// next power of two ≥ `2n - 1`), evaluated with the radix-2 engine.
#[derive(Debug, Clone)]
struct Bluestein {
    n: usize,
    m: usize,
    inner: Radix2,
    /// chirp[k] = e^{-iπ k² / n} (forward direction).
    chirp: Vec<Complex64>,
    /// FFT of the zero-padded, wrapped conjugate chirp (forward direction).
    kernel_fft: Vec<Complex64>,
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2::new(m);
        // k² mod 2n keeps the argument small and exact for large k.
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let sq = (k * k) % (2 * n);
                Complex64::cis(-PI * sq as f64 / n as f64)
            })
            .collect();
        let mut kernel = vec![Complex64::ZERO; m];
        kernel[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            kernel[k] = c;
            kernel[m - k] = c;
        }
        inner.transform(&mut kernel, Direction::Forward);
        Bluestein {
            n,
            m,
            inner,
            chirp,
            kernel_fft: kernel,
        }
    }

    fn transform_with(&self, buf: &mut [Complex64], dir: Direction, work: &mut Vec<Complex64>) {
        let n = self.n;
        let m = self.m;
        // An inverse DFT is the conjugate of the forward DFT of the
        // conjugated input (scaling is applied by the caller).
        if dir == Direction::Inverse {
            for z in buf.iter_mut() {
                *z = z.conj();
            }
        }
        // Reset the scratch to `m` zeros; positions `n..m` must be zero for
        // the circular convolution to match the freshly-allocated path
        // bit for bit.
        work.clear();
        work.resize(m, Complex64::ZERO);
        for k in 0..n {
            work[k] = buf[k] * self.chirp[k];
        }
        self.inner.transform(work, Direction::Forward);
        for (w, k) in work.iter_mut().zip(self.kernel_fft.iter()) {
            *w *= *k;
        }
        self.inner.transform(work, Direction::Inverse);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            buf[k] = work[k].scale(scale) * self.chirp[k];
        }
        if dir == Direction::Inverse {
            for z in buf.iter_mut() {
                *z = z.conj();
            }
        }
    }
}

/// Reusable scratch memory for [`Fft::forward_in`] / [`Fft::inverse_in`]:
/// the Bluestein convolution buffer, the only memory a transform needs
/// beyond its in-place data.
///
/// One scratch may serve plans of any length (it grows to the largest
/// Bluestein convolution size it has seen and is reused thereafter). It is
/// intentionally opaque: the contents carry no state between calls.
#[derive(Debug, Clone, Default)]
pub struct FftScratch {
    work: Vec<Complex64>,
}

impl FftScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        FftScratch::default()
    }

    /// Current scratch capacity in complex samples (diagnostic; lets tests
    /// assert that repeated transforms stop allocating after warm-up).
    pub fn capacity(&self) -> usize {
        self.work.capacity()
    }
}

/// A size-keyed cache of FFT plans.
///
/// Twiddle factors (and the Bluestein chirp/kernel for non-power-of-two
/// lengths) are computed once per distinct transform length and shared via
/// [`Arc`], so symbol loops, reconfigurations between standards, and
/// parallel scenario workers all reuse the same plan instead of re-planning.
///
/// Most callers want the process-wide cache behind [`plan`]; a local
/// `PlanCache` is useful when plan lifetime must be bounded (e.g. tests).
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<usize, Arc<Fft>>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Locks the plan map, recovering from poisoning.
    ///
    /// A thread panicking mid-access must not take the process-wide FFT
    /// cache down with it: the map only ever holds complete `Arc<Fft>`
    /// entries (insertion is a single `entry().or_insert_with()`), so a
    /// poisoned guard's data is still valid and the lock is safe to
    /// recover.
    fn lock_plans(&self) -> MutexGuard<'_, HashMap<usize, Arc<Fft>>> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan for length `n`, building it on first request.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plan(&self, n: usize) -> Arc<Fft> {
        let mut plans = self.lock_plans();
        Arc::clone(plans.entry(n).or_insert_with(|| Arc::new(Fft::new(n))))
    }

    /// Number of distinct lengths currently cached.
    pub fn len(&self) -> usize {
        self.lock_plans().len()
    }

    /// Returns `true` if no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached plans (outstanding `Arc`s keep their plans alive).
    pub fn clear(&self) {
        self.lock_plans().clear();
    }
}

/// The process-wide FFT plan for length `n`, from a global [`PlanCache`].
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn plan(n: usize) -> Arc<Fft> {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new).plan(n)
}

/// Computes the DFT by direct summation — O(N²), used as a test oracle.
///
/// Each term's twiddle is read from a table of the `n` roots of unity at
/// index `(k·t) mod n`, so every angle is exact to one rounding of
/// `2πj/n` with `j < n` instead of growing with the unreduced product.
pub fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let roots: Vec<Complex64> = (0..n)
        .map(|j| Complex64::cis(-2.0 * PI * j as f64 / n as f64))
        .collect();
    (0..n)
        .map(|k| (0..n).map(|t| input[t] * roots[(k * t) % n]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn impulse_response_is_flat(n: usize) {
        let fft = Fft::new(n);
        let mut v = vec![Complex64::ZERO; n];
        v[0] = Complex64::ONE;
        fft.forward(&mut v);
        for z in &v {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn impulse_pow2() {
        for n in [1, 2, 4, 8, 64, 256, 2048] {
            impulse_response_is_flat(n);
        }
    }

    #[test]
    fn impulse_arbitrary() {
        for n in [3, 5, 7, 12, 112, 176, 288, 1536] {
            impulse_response_is_flat(n);
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        let n = 32;
        let fft = Fft::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let expect = dft_naive(&input);
        let got = fft.forward_to_vec(&input);
        assert!(max_err(&got, &expect) < 1e-9);
    }

    #[test]
    fn matches_naive_dft_bluestein() {
        for n in [11, 36, 112, 176, 288] {
            let fft = Fft::new(n);
            assert!(!fft.is_radix2());
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.11).cos(), (i as f64 * 1.3).sin()))
                .collect();
            let expect = dft_naive(&input);
            let got = fft.forward_to_vec(&input);
            assert!(max_err(&got, &expect) < 1e-8, "n={n}");
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [8, 63, 100, 256, 288] {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 2.0).cos()))
                .collect();
            let mut v = input.clone();
            fft.forward(&mut v);
            fft.inverse(&mut v);
            assert!(max_err(&v, &input) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let fft = Fft::new(n);
        for bin in [1usize, 7, 31, 63] {
            let mut v: Vec<Complex64> = (0..n)
                .map(|t| Complex64::cis(2.0 * PI * (bin * t) as f64 / n as f64))
                .collect();
            fft.forward(&mut v);
            for (k, z) in v.iter().enumerate() {
                let expect = if k == bin { n as f64 } else { 0.0 };
                assert!((z.abs() - expect).abs() < 1e-8, "bin={bin} k={k}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let n = 128;
        let fft = Fft::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 0.2).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let freq = fft.forward_to_vec(&input);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn linearity() {
        let n = 48; // Bluestein path
        let fft = Fft::new(n);
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(0.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft.forward_to_vec(&a);
        let fb = fft.forward_to_vec(&b);
        let fsum = fft.forward_to_vec(&sum);
        let combined: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&fsum, &combined) < 1e-8);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_length_panics() {
        let fft = Fft::new(8);
        let mut v = vec![Complex64::ZERO; 4];
        fft.forward(&mut v);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_length_panics() {
        let _ = Fft::new(0);
    }

    #[test]
    fn plan_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Fft>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn scratch_path_is_bit_identical() {
        // One scratch reused across both engines and both directions must
        // reproduce the allocating path exactly (not just approximately).
        let mut scratch = FftScratch::new();
        for n in [8usize, 64, 36, 112, 288] {
            let fft = Fft::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
                .collect();
            let mut alloc = input.clone();
            let mut reuse = input.clone();
            fft.forward(&mut alloc);
            fft.forward_in(&mut reuse, &mut scratch);
            assert_eq!(alloc, reuse, "forward n={n}");
            fft.inverse(&mut alloc);
            fft.inverse_in(&mut reuse, &mut scratch);
            assert_eq!(alloc, reuse, "inverse n={n}");
        }
    }

    #[test]
    fn scratch_stops_allocating_after_warmup() {
        let fft = Fft::new(288); // Bluestein: needs scratch
        let mut scratch = FftScratch::new();
        let mut v = vec![Complex64::ONE; 288];
        fft.forward_in(&mut v, &mut scratch);
        let warm = scratch.capacity();
        assert!(warm >= (2usize * 288 - 1).next_power_of_two());
        for _ in 0..8 {
            fft.forward_in(&mut v, &mut scratch);
            fft.inverse_in(&mut v, &mut scratch);
        }
        assert_eq!(scratch.capacity(), warm);
    }

    #[test]
    fn cache_shares_plans_per_size() {
        let cache = PlanCache::new();
        let a = cache.plan(64);
        let b = cache.plan(64);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.plan(96);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        // Plans held by callers survive a cache clear.
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn cache_survives_a_poisoned_lock() {
        let cache = PlanCache::new();
        let first = cache.plan(16);
        // Poison the mutex: panic on another thread while holding the
        // guard. The cache must keep serving plans afterwards instead of
        // cascading the panic into every later FFT in the process.
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = cache.plans.lock().unwrap();
                panic!("poison the plan cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(cache.plans.is_poisoned());
        let again = cache.plan(16);
        assert!(Arc::ptr_eq(&first, &again));
        let other = cache.plan(48);
        assert_eq!(other.len(), 48);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn global_plan_is_shared() {
        let a = plan(40);
        let b = plan(40);
        assert!(Arc::ptr_eq(&a, &b));
        let mut v = vec![Complex64::ZERO; 40];
        v[0] = Complex64::ONE;
        a.forward(&mut v);
        for z in &v {
            assert!((z.re - 1.0).abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }
}
