//! Full 802.11a physical-layer link tests: packet TX (preamble + SIGNAL +
//! DATA) through impaired channels into the blind-synchronizing receiver.

use ofdm_dsp::Complex64;
use ofdm_rx::wlan::{WlanPacketReceiver, WlanRxError};
use ofdm_standards::ieee80211a::WlanRate;
use ofdm_standards::wlan_packet::build_ppdu;
use rfsim::prelude::*;
use std::f64::consts::TAU;

fn psdu(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 97 + 13) as u8).collect()
}

#[test]
fn link_survives_combined_impairments() {
    // Delay + CFO + multipath + phase noise + AWGN, all at once.
    let data = psdu(200);
    let ppdu = build_ppdu(WlanRate::Mbps24, &data);
    let fs = ppdu.waveform.sample_rate();
    let cfo = 45e3;

    let mut padded = vec![Complex64::ZERO; 77];
    padded.extend(
        ppdu.waveform
            .samples()
            .iter()
            .enumerate()
            .map(|(n, &z)| z * Complex64::cis(TAU * cfo * n as f64 / fs)),
    );
    let mut g = Graph::new();
    let src = g.add(SamplePlayback::from_samples(padded, fs));
    let ch = g.add(MultipathChannel::new(vec![
        Complex64::ONE,
        Complex64::new(0.2, 0.1),
        Complex64::new(-0.1, 0.05),
    ]));
    let lo = g.add(LocalOscillator::new(0.0, 30.0, 6));
    let noise = g.add(AwgnChannel::from_snr_db(22.0, 44));
    g.chain(&[src, ch, lo, noise]).expect("wiring");
    g.execute(&ExecPlan::batch()).expect("runs");
    let received = g.output(noise).expect("ran").clone();

    let packet = WlanPacketReceiver::new()
        .receive(&received)
        .expect("packet decodes under combined impairments");
    assert_eq!(packet.psdu, data);
    assert_eq!(packet.rate, WlanRate::Mbps24);
    assert!(
        (packet.cfo_hz - cfo).abs() < 3e3,
        "cfo estimate {}",
        packet.cfo_hz
    );
}

#[test]
fn signal_field_protects_against_wrong_rate_decode() {
    // The receiver must learn the rate from the SIGNAL field alone.
    for rate in WlanRate::ALL {
        let data = psdu(40);
        let ppdu = build_ppdu(rate, &data);
        let packet = WlanPacketReceiver::new()
            .receive(&ppdu.waveform)
            .unwrap_or_else(|e| panic!("{rate:?}: {e}"));
        assert_eq!(packet.rate, rate, "announced rate must round-trip");
        assert_eq!(packet.psdu, data, "{rate:?}");
    }
}

#[test]
fn search_window_limits_acquisition() {
    let ppdu = build_ppdu(WlanRate::Mbps6, &psdu(30));
    let fs = ppdu.waveform.sample_rate();
    // Packet delayed beyond a short search window → not found.
    let mut padded = vec![Complex64::ZERO; 1000];
    padded.extend_from_slice(&ppdu.waveform.samples());
    let rx = WlanPacketReceiver::new().with_search_window(400);
    let err = rx.receive(&Signal::new(padded.clone(), fs)).unwrap_err();
    assert!(matches!(
        err,
        WlanRxError::NoPreamble | WlanRxError::InvalidSignalField
    ));
    // Wider window → found.
    let rx = WlanPacketReceiver::new().with_search_window(2000);
    let packet = rx.receive(&Signal::new(padded, fs)).expect("decodes");
    assert_eq!(packet.psdu, psdu(30));
}

#[test]
fn deep_fade_on_signal_field_fails_loud_not_wrong() {
    // Obliterate the SIGNAL symbol: the receiver must error out (parity/
    // rate-code), never silently return garbage of the wrong length.
    let data = psdu(64);
    let ppdu = build_ppdu(WlanRate::Mbps12, &data);
    let mut corrupted = ppdu.waveform.samples().to_vec();
    for z in corrupted.iter_mut().skip(ppdu.data_offset - 80).take(80) {
        *z = Complex64::ZERO;
    }
    let result = WlanPacketReceiver::new().receive(&Signal::new(corrupted, 20e6));
    match result {
        Err(_) => {}
        Ok(packet) => assert_eq!(packet.psdu, data, "if it decodes, it must be right"),
    }
}

#[test]
fn back_to_back_packets_first_one_wins() {
    // Two packets in one capture: the receiver locks the earlier one.
    let first = build_ppdu(WlanRate::Mbps12, &psdu(50));
    let second = build_ppdu(WlanRate::Mbps24, &psdu(60));
    let fs = first.waveform.sample_rate();
    let mut wave = first.waveform.samples().to_vec();
    wave.extend(std::iter::repeat_n(Complex64::ZERO, 160));
    wave.extend_from_slice(&second.waveform.samples());
    let packet = WlanPacketReceiver::new()
        .with_search_window(first.waveform.len())
        .receive(&Signal::new(wave, fs))
        .expect("first packet decodes");
    assert_eq!(packet.rate, WlanRate::Mbps12);
    assert_eq!(packet.psdu, psdu(50));
}
