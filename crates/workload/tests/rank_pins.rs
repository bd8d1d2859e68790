//! Pinned gossip-sorted hub sets at the scale presets' sizes.
//!
//! The scale presets rank with `RankSource::GossipSorted`; every run's
//! hub set — and so every downstream event count — is a function of that
//! ranking. These digests were recorded from the per-node hash-map
//! monitors the ranker used before its flat observation log, so any
//! change to the view bootstrap, the shuffle exchange, the RTT feed, the
//! EWMA or the score that moves a single hub shows up here.

use egm_simnet::NodeId;
use egm_workload::experiments::scale::ScalePreset;
use egm_workload::runner::prepare;

/// FNV-1a over the ascending hub ids: a stable, order-sensitive digest.
fn digest(ids: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        for byte in (id.index() as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Hub count and digest of the preset's ranked best set, computed by the
/// runner's own set-up path (its rank seed is the scenario seed salted).
fn pinned(preset: ScalePreset, seed: u64) -> (usize, u64) {
    let setup = prepare(&preset.scenario(1, seed), None);
    let ids = setup.best().expect("ranked presets have hubs").best_ids();
    (ids.len(), digest(&ids))
}

#[test]
fn one_k_gossip_hubs_are_pinned() {
    assert_eq!(pinned(ScalePreset::N1k, 42), (200, 0xa8f7_a288_837c_0a56));
    assert_eq!(pinned(ScalePreset::N1k, 1009), (200, 0x6c4f_2e22_8bd0_d004));
}

#[test]
fn ten_k_gossip_hubs_are_pinned() {
    assert_eq!(
        pinned(ScalePreset::N10k, 42),
        (2_000, 0xebd1_96a9_982c_7955)
    );
    assert_eq!(
        pinned(ScalePreset::N10k, 1009),
        (2_000, 0x4273_4e8a_f891_3268)
    );
}

/// The churn re-rank path: every tenth node down, so live nodes skip
/// down peers' measurements and shuffles.
#[test]
fn one_k_gossip_hubs_with_a_tenth_down_are_pinned() {
    let preset = ScalePreset::N1k;
    let scenario = preset.scenario(1, 42);
    let model = scenario.build_model();
    let down: Vec<bool> = (0..preset.nodes()).map(|i| i % 10 == 3).collect();
    let set = preset.rank_source().best_set_excluding(
        &model,
        0.2,
        &scenario.protocol.view,
        0x5EED,
        &down,
    );
    let ids = set.best_ids();
    assert!(ids.iter().all(|id| !down[id.index()]));
    assert_eq!((ids.len(), digest(&ids)), (180, 0x56ba_099d_3d1f_ffbc));
}
