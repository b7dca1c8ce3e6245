//! Analog–digital co-simulation (the paper's core use case): the 802.11a
//! Mother Model as a signal source inside a full RF transmit lineup —
//! DAC → IQ imbalance → local oscillator with phase noise → power
//! amplifier → spectrum/ACPR/mask instruments.
//!
//! This is what the paper's RF designer does in APLAC: judge whether the
//! RF chain meets the standard's spectral mask while driven by *real*
//! modulated baseband, not a sine tone.
//!
//! Run with: `cargo run --release --example wlan_rf_lineup`

use ofdm_core::source::OfdmSource;
use ofdm_standards::ieee80211a::{self, WlanRate};
use rfsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ieee80211a::params(WlanRate::Mbps54);
    println!("driving RF lineup with: {}\n", params.name);

    // Build the RF schematic.
    let mut g = Graph::new();
    let src = g.add(OfdmSource::new(params, 24_000, 42)?);
    let dac = g.add(Dac::new(10, 4.0));
    let iq = g.add(IqImbalance::new(0.2, 1.0)); // 0.2 dB / 1° imbalance
    let lo = g.add(LocalOscillator::new(0.0, 50.0, 7)); // 50 Hz linewidth
    let pa = g.add(RappPa::new(1.0, 3.0).with_input_backoff_db(8.0));
    let sa = g.add(SpectrumAnalyzer::new(256));
    let acpr = g.add(AcprMeter::new(16.6e6, 20.0e6, 256));
    // The 802.11a transmit mask, simplified to its corner points
    // (offsets in Hz, limits in dBr).
    let mask = g.add(MaskChecker::new(
        vec![
            MaskPoint {
                offset_hz: 11e6,
                limit_dbr: -20.0,
            },
            MaskPoint {
                offset_hz: 20e6,
                limit_dbr: -28.0,
            },
            MaskPoint {
                offset_hz: 30e6,
                limit_dbr: -40.0,
            },
        ],
        16.6e6,
        256,
    ));
    let meter = g.add(PowerMeter::new());
    g.chain(&[src, dac, iq, lo, pa, sa, acpr, mask, meter])?;
    g.execute(&ExecPlan::batch())?;

    // Read the instruments back, like probing the schematic.
    let sa_ref = g.block::<SpectrumAnalyzer>(sa).expect("analyzer present");
    let obw = sa_ref.occupied_bandwidth(0.99).expect("ran");
    println!("occupied bandwidth (99%) : {:.2} MHz", obw / 1e6);

    let acpr_ref = g.block::<AcprMeter>(acpr).expect("meter present");
    let (lo_acpr, hi_acpr) = acpr_ref.acpr_db().expect("ran");
    println!("ACPR lower/upper         : {lo_acpr:.1} / {hi_acpr:.1} dB");

    let mask_ref = g.block::<MaskChecker>(mask).expect("checker present");
    println!(
        "spectral mask            : {} (margin {:+.1} dB)",
        if mask_ref.passed().expect("ran") {
            "PASS"
        } else {
            "FAIL"
        },
        mask_ref.margin_db().expect("ran")
    );

    let p = g.block::<PowerMeter>(meter).expect("meter present");
    println!(
        "PA output power          : {:.2} dB",
        p.power_db().expect("ran")
    );

    // A coarse spectrum plot on the terminal.
    println!("\nPSD at the PA output (dB, 2 MHz bins):");
    let psd = sa_ref.psd_shifted_db().expect("ran");
    let bins = 20usize;
    let chunk = psd.len() / bins;
    for b in 0..bins {
        let slice = &psd[b * chunk..(b + 1) * chunk];
        let f = slice[slice.len() / 2].0;
        let avg: f64 = slice.iter().map(|(_, p)| *p).sum::<f64>() / slice.len() as f64;
        let bar = "#".repeat(((avg + 80.0).max(0.0) / 2.0) as usize);
        println!("{:>7.1} MHz {avg:>7.1}  {bar}", f / 1e6);
    }
    Ok(())
}
