//! The complete 802.11a physical layer, both directions — the paper's
//! "functionality of the whole physical layer of the transmitter and the
//! receiver" co-modeled in one program.
//!
//! TX: preamble + SIGNAL field + DATA field (three Mother Model products).
//! Channel: delay, multipath, CFO, phase noise, AWGN.
//! RX: blind acquisition — coarse/fine CFO, LTF timing, channel
//! estimation, SIGNAL parsing, rate-adaptive DATA decode.
//!
//! Run with: `cargo run --release --example wlan_packet_link`

use ofdm_dsp::Complex64;
use ofdm_rx::wlan::WlanPacketReceiver;
use ofdm_standards::ieee80211a::WlanRate;
use ofdm_standards::wlan_packet::build_ppdu;
use rfsim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let psdu: Vec<u8> = (0..256).map(|i| (i * 31 + 7) as u8).collect();

    println!(
        "{:<8} {:>9} {:>10} {:>12} {:>10} {:>8}",
        "rate", "snr (dB)", "cfo (kHz)", "est cfo", "ltf found", "psdu ok"
    );
    for (rate, snr_db, cfo_hz) in [
        (WlanRate::Mbps6, 8.0, 120e3),
        (WlanRate::Mbps12, 12.0, -60e3),
        (WlanRate::Mbps24, 18.0, 30e3),
        (WlanRate::Mbps54, 28.0, -10e3),
    ] {
        let ppdu = build_ppdu(rate, &psdu);
        let fs = ppdu.waveform.sample_rate();

        // Impair: 200 samples of dead air, CFO, two-ray channel, noise.
        let mut padded = vec![Complex64::ZERO; 200];
        padded.extend(ppdu.waveform.samples().iter().enumerate().map(|(n, &z)| {
            z * Complex64::cis(std::f64::consts::TAU * cfo_hz * (n + 200) as f64 / fs)
        }));
        let mut g = Graph::new();
        let src = g.add(SamplePlayback::from_samples(padded, fs));
        let ch = g.add(MultipathChannel::two_ray(2, 0.25));
        let lo = g.add(LocalOscillator::new(0.0, 20.0, 5));
        let noise = g.add(AwgnChannel::from_snr_db(snr_db, 99));
        g.chain(&[src, ch, lo, noise])?;
        g.execute(&ExecPlan::batch())?;
        let received = g.output(noise).expect("channel ran").clone();

        // Blind acquisition + decode.
        let packet = WlanPacketReceiver::new().receive(&received)?;
        let ok = packet.psdu == psdu;
        println!(
            "{:<8} {:>9.1} {:>10.1} {:>9.1} kHz {:>10} {:>8}",
            format!("{:?}", rate),
            snr_db,
            cfo_hz / 1e3,
            packet.cfo_hz / 1e3,
            packet.ltf_start,
            if ok { "yes" } else { "NO" },
        );
        assert!(ok, "PSDU must decode bit-exactly");
        assert_eq!(
            packet.rate, rate,
            "SIGNAL field must announce the right rate"
        );
    }
    println!("\nOK — full PHY link (blind sync + rate-adaptive decode) verified");
    Ok(())
}
