//! The seeded workload generator.
//!
//! Every input a run feeds the program comes from here and from the
//! `--seed` alone: source payload seeds, the C3 payload, the waterfall
//! grids' base seeds and the service job stream. Grid shapes, frame sizes
//! and the job rate are fixed constants, so a seed changes what is
//! simulated but not how much.

use crate::report::fnv1a;
use ofdm_bench::waterfall::{ChannelProfile, WaterfallSpec};
use ofdm_core::ber::BitSource;
use ofdm_core::params::OfdmParams;
use ofdm_core::MotherModel;
use ofdm_standards::ieee80211a::WlanRate;
use ofdm_standards::StandardId;

/// SplitMix64: a tiny, well-mixed generator for input derivation.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream named `label` under `seed`.
    pub fn new(seed: u64, label: &str) -> Self {
        SplitMix(seed ^ fnv1a(label.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Samples of the frame `params` transmits for a payload of `bits` bits.
///
/// # Errors
///
/// A message if the parameter set cannot build a transmitter.
pub fn frame_len(params: &OfdmParams, bits: usize) -> Result<usize, String> {
    let mut tx = MotherModel::new(params.clone()).map_err(|e| e.to_string())?;
    let frame = tx.transmit(&vec![0u8; bits]).map_err(|e| e.to_string())?;
    Ok(frame.signal().len())
}

/// The 802.11a rate of the C3 behavioral-vs-RTL pair.
pub const C3_RATE: WlanRate = WlanRate::Mbps12;
/// OFDM data symbols in the C3 frame.
pub const C3_SYMBOLS: usize = 64;

/// Inputs of the `tx_chain` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TxChainInputs {
    /// Payload seed of each standard's `OfdmSource`, in
    /// [`StandardId::ALL`] order.
    pub source_seeds: Vec<u64>,
    /// Which standard each round starts with.
    pub rotation: usize,
    /// The payload both C3 transmitters send.
    pub c3_payload: Vec<u8>,
}

/// Generates the `tx_chain` inputs for `seed`.
pub fn tx_chain(seed: u64) -> TxChainInputs {
    let mut g = SplitMix::new(seed, "tx_chain");
    let source_seeds = StandardId::ALL.iter().map(|_| g.next_u64()).collect();
    let rotation = g.below(StandardId::ALL.len());
    let c3_bits = C3_SYMBOLS * C3_RATE.n_cbps() / 2 - 6;
    TxChainInputs {
        source_seeds,
        rotation,
        c3_payload: BitSource::new(g.next_u64()).take(c3_bits),
    }
}

/// Payload bits per `ber_waterfall` grid point.
pub const WATERFALL_PAYLOAD_BITS: usize = 4000;

/// Inputs of the `ber_waterfall` workload: the two grids.
#[derive(Debug, Clone)]
pub struct WaterfallInputs {
    /// All ten standards over AWGN.
    pub awgn: WaterfallSpec,
    /// A smaller quasi-static Rayleigh grid.
    pub rayleigh: WaterfallSpec,
}

/// Generates the `ber_waterfall` grids for `seed`.
pub fn ber_waterfall(seed: u64) -> WaterfallInputs {
    let mut g = SplitMix::new(seed, "ber_waterfall");
    WaterfallInputs {
        awgn: WaterfallSpec {
            standards: StandardId::ALL.to_vec(),
            snr_db: vec![0.0, 6.0, 12.0, 18.0],
            realizations: 2,
            payload_bits: WATERFALL_PAYLOAD_BITS,
            base_seed: g.next_u64(),
            profile: ChannelProfile::Awgn,
            threads: 2,
        },
        rayleigh: WaterfallSpec {
            standards: vec![
                StandardId::Ieee80211a,
                StandardId::Dab,
                StandardId::Ieee80216a,
            ],
            snr_db: vec![10.0, 20.0],
            realizations: 2,
            payload_bits: WATERFALL_PAYLOAD_BITS,
            base_seed: g.next_u64(),
            profile: ChannelProfile::Rayleigh {
                paths: vec![(0, 0.6), (3, 0.3), (7, 0.1)],
            },
            threads: 2,
        },
    }
}

/// Offered job rate of `service_jobs`, fixed: at this rate the two
/// server workers stay well below saturation, and jobs are due further
/// apart than the 40 ms delayed-ACK timer that sets today's latency
/// floor (see the README).
pub const SERVICE_JOBS_PER_S: f64 = 20.0;
/// Payload bits per service grid point. Heavy (DAB / 802.16a) jobs are
/// heavy because their points cost ten times a light job's.
pub const SERVICE_PAYLOAD_BITS: usize = 2000;

/// One job of the `service_jobs` stream.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// When the job is due, in seconds after the stream starts.
    pub due_s: f64,
    /// Heavy (DAB / 802.16a) or light (ADSL / ADSL2+).
    pub heavy: bool,
    /// The grid the job runs.
    pub spec: WaterfallSpec,
}

/// Jobs per block of the stream: two heavy (one DAB, one 802.16a) and
/// three each of ADSL and ADSL2+, in a seeded order. Whole blocks keep
/// the mix, and so the offered work, the same for every seed.
const BLOCK: [(StandardId, bool); 8] = [
    (StandardId::Dab, true),
    (StandardId::Ieee80216a, true),
    (StandardId::Adsl, false),
    (StandardId::Adsl, false),
    (StandardId::Adsl, false),
    (StandardId::Adsl2Plus, false),
    (StandardId::Adsl2Plus, false),
    (StandardId::Adsl2Plus, false),
];

/// Generates the `service_jobs` stream for `seed`: whole blocks of
/// [`BLOCK`] totalling about `seconds` × [`SERVICE_JOBS_PER_S`] jobs, due
/// one every `1 / SERVICE_JOBS_PER_S` seconds. Every job has its own
/// `base_seed`.
pub fn service_jobs(seed: u64, seconds: f64) -> Vec<JobPlan> {
    const SNRS: [f64; 4] = [4.0, 8.0, 12.0, 16.0];
    let mut g = SplitMix::new(seed, "service_jobs");
    let blocks = ((seconds * SERVICE_JOBS_PER_S) / BLOCK.len() as f64)
        .round()
        .max(1.0) as usize;
    let mut kinds = Vec::with_capacity(blocks * BLOCK.len());
    for _ in 0..blocks {
        let mut block = BLOCK;
        for i in (1..block.len()).rev() {
            block.swap(i, g.below(i + 1));
        }
        kinds.extend(block);
    }
    let due = (0..kinds.len()).map(|i| i as f64 / SERVICE_JOBS_PER_S);
    let mut seeds = std::collections::HashSet::new();
    kinds
        .into_iter()
        .zip(due)
        .map(|((standard, heavy), due_s)| {
            let first = g.below(SNRS.len() - 1);
            let snr_db = vec![
                SNRS[first],
                SNRS[first + 1 + g.below(SNRS.len() - 1 - first)],
            ];
            let base_seed = loop {
                let s = g.next_u64();
                if seeds.insert(s) {
                    break s;
                }
            };
            JobPlan {
                due_s,
                heavy,
                spec: WaterfallSpec {
                    standards: vec![standard],
                    snr_db,
                    realizations: 2,
                    payload_bits: SERVICE_PAYLOAD_BITS,
                    base_seed,
                    profile: ChannelProfile::Awgn,
                    threads: 1,
                },
            }
        })
        .collect()
}

/// Digest of the inputs of `workload` under `seed`.
pub fn inputs_digest(workload: &str, seed: u64) -> u64 {
    let text = match workload {
        "tx_chain" => format!("{:?}", tx_chain(seed)),
        "ber_waterfall" => format!("{:?}", ber_waterfall(seed)),
        _ => format!("{:?}", service_jobs(seed, 4.0)),
    };
    fnv1a(text.as_bytes())
}

/// Checks that the generator is deterministic: the same seed gives the
/// same inputs and the next seed different ones.
///
/// # Errors
///
/// A message naming the workload whose inputs misbehave.
pub fn check_determinism(workload: &str, seed: u64) -> Result<u64, String> {
    let a = inputs_digest(workload, seed);
    if a != inputs_digest(workload, seed) {
        return Err(format!("{workload}: seed {seed} gave two different inputs"));
    }
    if a == inputs_digest(workload, seed.wrapping_add(1)) {
        return Err(format!(
            "{workload}: seeds {seed} and {} gave the same inputs",
            seed.wrapping_add(1)
        ));
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        for w in ["tx_chain", "ber_waterfall", "service_jobs"] {
            check_determinism(w, 7).expect("deterministic");
        }
    }

    #[test]
    fn job_seeds_are_distinct() {
        let jobs = service_jobs(3, 20.0);
        assert_eq!(jobs.iter().filter(|j| j.heavy).count() * 4, jobs.len());
        assert!(jobs.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let seeds: std::collections::HashSet<u64> = jobs.iter().map(|j| j.spec.base_seed).collect();
        assert_eq!(seeds.len(), jobs.len());
    }
}
