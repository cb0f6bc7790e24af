//! Integration test: the full ingestion pipeline of Fig 5 — raw event
//! streams → windowed join → topic → ingestion job → IPS → feature query —
//! including the §III-A freshness bound (event to queryable within a
//! minute).

use std::sync::Arc;

use ips::ingest::events::InstanceRecord;
use ips::ingest::job::IngestionJob;
use ips::ingest::{
    ConsumerGroup, InstanceJoiner, JoinConfig, Topic, WorkloadConfig, WorkloadGenerator,
};
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const CTX: RequestContext = RequestContext::new(CALLER);

fn build_instance(clock: ips::types::SharedClock) -> Arc<IpsInstance> {
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
    let mut cfg = TableConfig::new("pipeline");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();
    instance
}

#[test]
fn events_flow_to_queryable_features_within_a_minute() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let instance = build_instance(Arc::clone(&clock));
    let topic: Arc<Topic<InstanceRecord>> = Topic::new(4);
    let mut joiner = InstanceJoiner::new(JoinConfig::default());
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());

    // Produce 2_000 interactions through the join.
    let mut out = Vec::new();
    for i in 0..2_000u64 {
        let at = ctl.now().saturating_add(DurationMs::from_millis(i));
        let (imp, action, feature) = generator.interaction(at);
        joiner.push_feature(feature, &mut out);
        joiner.push_impression(imp, &mut out);
        if let Some(a) = action {
            joiner.push_action(a, &mut out);
        }
    }
    assert!(out.len() > 300, "joins emitted: {}", out.len());
    let emitted = out.len();
    let sample = out[0].clone();
    for rec in out.drain(..) {
        topic.append(rec.user.raw(), rec);
    }

    // Ingestion job consumes with a realistic pipeline delay (~20s).
    ctl.advance(DurationMs::from_secs(20));
    let job = IngestionJob::new(
        ConsumerGroup::new(Arc::clone(&topic)),
        Arc::clone(&instance),
        CALLER,
        TABLE,
        Arc::clone(&clock),
    );
    assert_eq!(job.run_to_completion(), emitted);
    assert_eq!(job.failed.get(), 0);

    // Freshness: p99 event-to-ingest under 60 seconds (§III-A).
    let p99_ms = job.freshness_ms.percentile(99.0);
    assert!(
        p99_ms < 60_000,
        "p99 freshness {p99_ms}ms exceeds one minute"
    );

    // The sample user's feature is queryable.
    let q = ProfileQuery::top_k(TABLE, sample.user, sample.slot, TimeRange::last_days(1), 50);
    let r = instance.query_ctx(&CTX, &q).unwrap();
    assert!(
        r.entries.iter().any(|e| e.feature == sample.feature),
        "ingested feature must be servable"
    );
}

#[test]
fn join_state_is_bounded_by_watermarks() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let _ = clock;
    let mut joiner = InstanceJoiner::new(JoinConfig {
        window: DurationMs::from_mins(5),
        attributes: 3,
    });
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
    let mut out = Vec::new();

    for minute in 0..60u64 {
        let at = ctl.now().saturating_add(DurationMs::from_mins(minute));
        for _ in 0..100 {
            let (imp, action, feature) = generator.interaction(at);
            joiner.push_feature(feature, &mut out);
            joiner.push_impression(imp, &mut out);
            if let Some(a) = action {
                joiner.push_action(a, &mut out);
            }
        }
        joiner.advance_watermark(at);
        out.clear();
    }
    let (pairs, _) = joiner.state_size();
    assert!(
        pairs < 100 * 7,
        "state must stay near one window's worth, got {pairs}"
    );
    assert!(joiner.evicted_pairs.get() > 0);
}

#[test]
fn duplicate_ingestion_is_visible_as_double_counts() {
    // The pipeline is at-least-once at the topic boundary if a consumer
    // group re-reads; this test documents the (accepted) behaviour.
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let instance = build_instance(Arc::clone(&clock));
    let topic: Arc<Topic<InstanceRecord>> = Topic::new(1);
    let mut generator = WorkloadGenerator::new(WorkloadConfig::default());

    let rec = generator.instance(ctl.now());
    let (user, slot, feature) = (rec.user, rec.slot, rec.feature);
    topic.append(rec.user.raw(), rec);

    let group = ConsumerGroup::new(Arc::clone(&topic));
    let job = IngestionJob::new(
        group,
        Arc::clone(&instance),
        CALLER,
        TABLE,
        Arc::clone(&clock),
    );
    job.run_to_completion();
    // A crash-restart without committed offsets replays the topic.
    job_replay(&topic, &instance, &clock);

    let q = ProfileQuery::filter(
        TABLE,
        user,
        slot,
        TimeRange::last_days(1),
        FilterPredicate::FeatureIn(vec![feature]),
    );
    let r = instance.query_ctx(&CTX, &q).unwrap();
    let total: i64 = r.entries[0].counts.as_slice().iter().sum();
    assert_eq!(total, 2, "replayed record double-counts (weak consistency)");
}

fn job_replay(
    topic: &Arc<Topic<InstanceRecord>>,
    instance: &Arc<IpsInstance>,
    clock: &ips::types::SharedClock,
) {
    let group = ConsumerGroup::new(Arc::clone(topic));
    let job = IngestionJob::new(
        group,
        Arc::clone(instance),
        CALLER,
        TABLE,
        Arc::clone(clock),
    );
    job.run_to_completion();
}
