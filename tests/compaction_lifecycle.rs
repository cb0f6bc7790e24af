//! Integration test: a profile's life under the full §III-D regime —
//! months of simulated writes with compaction, truncation and shrink
//! running through the instance's own scheduler, checking the paper's
//! size-stability claims and that queries stay correct throughout.

use std::sync::Arc;

use ips::prelude::*;
use ips::types::config::{ShrinkConfig, TruncateConfig};

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const CTX: RequestContext = RequestContext::new(CALLER);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn build() -> (Arc<IpsInstance>, SimClock) {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
    let mut cfg = TableConfig::new("lifecycle");
    cfg.isolation.enabled = false;
    // Production-shaped management (Listing 3 time dimension).
    cfg.compaction.min_interval = DurationMs::from_mins(5);
    cfg.compaction.full_compact_slice_threshold = 64;
    cfg.compaction.truncate = TruncateConfig {
        max_age: Some(DurationMs::from_days(30)),
        max_slices: None,
    };
    cfg.compaction.shrink = ShrinkConfig {
        default_retain: 64,
        fresh_horizon: DurationMs::from_hours(1),
        long_term_fraction: 0.1,
        ..Default::default()
    };
    instance.create_table(TABLE, cfg).unwrap();
    (instance, ctl)
}

fn slice_count(instance: &Arc<IpsInstance>, pid: u64) -> usize {
    instance
        .table(TABLE)
        .unwrap()
        .cache
        .read(ProfileId::new(pid), |p| p.slice_count())
        .unwrap()
        .map(|(n, _)| n)
        .unwrap_or(0)
}

fn profile_bytes(instance: &Arc<IpsInstance>, pid: u64) -> usize {
    instance
        .table(TABLE)
        .unwrap()
        .cache
        .read(ProfileId::new(pid), |p| p.approx_bytes())
        .unwrap()
        .map(|(n, _)| n)
        .unwrap_or(0)
}

#[test]
fn three_simulated_months_stay_bounded() {
    let (instance, ctl) = build();
    let pid = 1u64;
    let mut bytes_checkpoints = Vec::new();

    // ~8 writes per hour for 90 days, maintenance every simulated hour.
    for day in 0..90u64 {
        for hour in 0..24u64 {
            for i in 0..8u64 {
                instance
                    .add_profiles_ctx(
                        &CTX,
                        TABLE,
                        ProfileId::new(pid),
                        ctl.now(),
                        SLOT,
                        LIKE,
                        &[(
                            FeatureId::new((day * 24 + hour + i * 31) % 500),
                            CountVector::single(1),
                        )],
                    )
                    .unwrap();
                ctl.advance(DurationMs::from_mins(7));
            }
            ctl.advance(DurationMs::from_mins(4));
            instance.tick().unwrap();
        }
        if day % 30 == 29 {
            bytes_checkpoints.push(profile_bytes(&instance, pid));
        }
    }

    // The paper's claim: the profile size "remains fairly stable". With a
    // 30-day truncation horizon, month 2 and month 3 footprints must not
    // keep growing.
    assert_eq!(bytes_checkpoints.len(), 3);
    let (m1, m2, m3) = (
        bytes_checkpoints[0] as f64,
        bytes_checkpoints[1] as f64,
        bytes_checkpoints[2] as f64,
    );
    assert!(
        m3 < m2 * 1.25 && m2 < m1 * 2.0,
        "profile must plateau: months = {m1} {m2} {m3}"
    );

    // Slice list stays near the managed regime, not the raw write count
    // (17_280 writes happened).
    let slices = slice_count(&instance, pid);
    assert!(slices < 200, "slice list bounded, got {slices}");

    // The profile still answers correctly for fresh data.
    let q = ProfileQuery::top_k(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(1),
        10,
    );
    let r = instance.query_ctx(&CTX, &q).unwrap();
    assert!(!r.is_empty());
}

#[test]
fn compaction_preserves_aggregate_totals() {
    let (instance, ctl) = build();
    let pid = 2u64;
    // 100 likes of feature 9 spread over 2 hours.
    for _i in 0..100u64 {
        instance
            .add_profiles_ctx(
                &CTX,
                TABLE,
                ProfileId::new(pid),
                ctl.now(),
                SLOT,
                LIKE,
                &[(FeatureId::new(9), CountVector::single(1))],
            )
            .unwrap();
        ctl.advance(DurationMs::from_secs(72));
    }
    let before = slice_count(&instance, pid);
    ctl.advance(DurationMs::from_days(2));
    // Trigger scheduling, then run the pipeline.
    instance
        .add_profiles_ctx(
            &CTX,
            TABLE,
            ProfileId::new(pid),
            ctl.now(),
            SLOT,
            LIKE,
            &[(FeatureId::new(10), CountVector::single(1))],
        )
        .unwrap();
    instance.tick().unwrap();
    instance.tick().unwrap();
    let after = slice_count(&instance, pid);
    assert!(after < before, "compaction ran: {before} -> {after}");

    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(7),
        FilterPredicate::FeatureIn(vec![FeatureId::new(9)]),
    );
    let r = instance.query_ctx(&CTX, &q).unwrap();
    assert_eq!(
        r.entries[0].counts.get_or_zero(0),
        100,
        "total likes unchanged by compaction"
    );
}

#[test]
fn truncation_forgets_data_past_horizon() {
    let (instance, ctl) = build();
    let pid = 3u64;
    instance
        .add_profiles_ctx(
            &CTX,
            TABLE,
            ProfileId::new(pid),
            ctl.now(),
            SLOT,
            LIKE,
            &[(FeatureId::new(1), CountVector::single(1))],
        )
        .unwrap();
    // 45 days later (past the 30-day truncate horizon), write again and
    // run maintenance repeatedly (min-interval throttling applies).
    ctl.advance(DurationMs::from_days(45));
    for _ in 0..3 {
        instance
            .add_profiles_ctx(
                &CTX,
                TABLE,
                ProfileId::new(pid),
                ctl.now(),
                SLOT,
                LIKE,
                &[(FeatureId::new(2), CountVector::single(1))],
            )
            .unwrap();
        ctl.advance(DurationMs::from_mins(10));
        instance.tick().unwrap();
    }
    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(365),
        FilterPredicate::All,
    );
    let r = instance.query_ctx(&CTX, &q).unwrap();
    assert!(
        !r.feature_ids().contains(&FeatureId::new(1)),
        "45-day-old data truncated"
    );
    assert!(r.feature_ids().contains(&FeatureId::new(2)));
}

#[test]
fn shrink_keeps_head_features_drops_long_tail() {
    let (instance, ctl) = build();
    let pid = 4u64;
    // 500 features: a few heavy hitters and a long tail of singletons.
    for fid in 0..500u64 {
        let count = if fid < 5 { 100 } else { 1 };
        instance
            .add_profiles_ctx(
                &CTX,
                TABLE,
                ProfileId::new(pid),
                ctl.now(),
                SLOT,
                LIKE,
                &[(FeatureId::new(fid), CountVector::single(count))],
            )
            .unwrap();
    }
    // Age the data beyond the fresh horizon, then trigger maintenance.
    ctl.advance(DurationMs::from_days(2));
    instance
        .add_profiles_ctx(
            &CTX,
            TABLE,
            ProfileId::new(pid),
            ctl.now(),
            SLOT,
            LIKE,
            &[(FeatureId::new(999), CountVector::single(1))],
        )
        .unwrap();
    instance.tick().unwrap();
    instance.tick().unwrap();

    let q = ProfileQuery::filter(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(30),
        FilterPredicate::All,
    );
    let r = instance.query_ctx(&CTX, &q).unwrap();
    assert!(
        r.len() <= 64 + 1,
        "long tail shrunk to the 64-feature budget (+fresh), got {}",
        r.len()
    );
    for heavy in 0..5u64 {
        assert!(
            r.feature_ids().contains(&FeatureId::new(heavy)),
            "heavy hitter {heavy} survived shrink"
        );
    }
}

#[test]
fn hot_reconfiguration_of_compaction_applies_next_cycle() {
    let (instance, ctl) = build();
    let pid = 5u64;
    for i in 0..50u64 {
        instance
            .add_profiles_ctx(
                &CTX,
                TABLE,
                ProfileId::new(pid),
                ctl.now(),
                SLOT,
                LIKE,
                &[(FeatureId::new(i), CountVector::single(1))],
            )
            .unwrap();
        ctl.advance(DurationMs::from_secs(60));
    }
    // Tighten truncation to 5 slices, live.
    instance
        .update_table_config(TABLE, |c| {
            let mut c = c.clone();
            c.compaction.truncate.max_slices = Some(5);
            c.compaction.min_interval = DurationMs::ZERO;
            c
        })
        .unwrap();
    ctl.advance(DurationMs::from_mins(10));
    instance
        .add_profiles_ctx(
            &CTX,
            TABLE,
            ProfileId::new(pid),
            ctl.now(),
            SLOT,
            LIKE,
            &[(FeatureId::new(999), CountVector::single(1))],
        )
        .unwrap();
    instance.tick().unwrap();
    instance.tick().unwrap();
    assert!(
        slice_count(&instance, pid) <= 5,
        "new truncate-by-count applied without restart"
    );
}
