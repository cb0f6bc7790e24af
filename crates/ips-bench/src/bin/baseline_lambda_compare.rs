//! Baseline (§I, Fig 2): IPS vs the legacy Lambda-architecture split.
//!
//! Three axes from the paper's motivation:
//!
//! 1. **Freshness** — the lambda long-term view updates once a day; IPS
//!    serves an event within the ingestion pipeline's seconds-to-a-minute.
//! 2. **Window flexibility** — the motivating "aggregated statistics over
//!    last week or last 30 days" query is unservable by the lambda split
//!    and a one-liner for IPS.
//! 3. **Request amplification** — assembling short-term features costs the
//!    lambda design one content-store lookup per recent click; IPS computes
//!    the same feature inline from its own store.

use std::sync::Arc;

use ips_baseline::lambda::{LambdaProfileService, LoggedEvent};
use ips_bench::{banner, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_types::clock::sim_clock;
use ips_types::{
    CallerId, Clock, CountVector, DurationMs, ProfileId, TableConfig, TimeRange, Timestamp,
};

fn main() {
    banner(
        "E-LAMBDA (§I)",
        "IPS vs the legacy long/short-term profile split",
    );
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(100).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let mut cfg = TableConfig::new("ips");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();
    let ctx = RequestContext::new(CallerId::new(1));

    let lambda = LambdaProfileService::new(100);
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 1_000,
        items: 20_000,
        ..Default::default()
    });

    // Identical event stream into both systems over 40 simulated days.
    println!("feeding 40 days of identical events into both systems ...");
    let user = ProfileId::new(77);
    for day in 0..40u64 {
        for _ in 0..50 {
            let rec = generator.instance(ctl.now());
            // Register item info in the lambda content store.
            lambda
                .content_store()
                .put(rec.item, rec.slot, rec.action_type, rec.feature);
            // Tracked user gets a share of the traffic.
            let target = if rec.user.raw().is_multiple_of(10) {
                user
            } else {
                rec.user
            };
            instance
                .add_profiles_ctx(
                    &ctx,
                    TABLE,
                    target,
                    rec.at,
                    rec.slot,
                    rec.action_type,
                    &[(rec.feature, rec.counts.clone())],
                )
                .unwrap();
            lambda.record(LoggedEvent {
                user: target,
                item: rec.item,
                at: rec.at,
                attribute: 0,
            });
            ctl.advance(DurationMs::from_mins(25));
        }
        // The lambda batch job runs nightly.
        lambda.run_batch_job(ctl.now());
        instance.tick().unwrap();
        let _ = day;
    }

    // ---- 1. freshness -------------------------------------------------------
    println!();
    println!("1) freshness of a brand-new event");
    let fresh_feature = ips_types::FeatureId::new(999_999);
    let slot = ips_types::SlotId::new(1);
    instance
        .add_profiles_ctx(
            &ctx,
            TABLE,
            user,
            ctl.now(),
            slot,
            ips_types::ActionTypeId::new(1),
            &[(fresh_feature, CountVector::single(1))],
        )
        .unwrap();
    lambda.content_store().put(
        999_999,
        slot,
        ips_types::ActionTypeId::new(1),
        fresh_feature,
    );
    lambda.record(LoggedEvent {
        user,
        item: 999_999,
        at: ctl.now(),
        attribute: 0,
    });
    let q = ProfileQuery::filter(
        TABLE,
        user,
        slot,
        TimeRange::last(DurationMs::from_mins(5)),
        ips_core::query::FilterPredicate::FeatureIn(vec![fresh_feature]),
    );
    let ips_sees = !instance.query_ctx(&ctx, &q).unwrap().is_empty();
    let lambda_lt_sees = lambda
        .query_long_term_top_k(user, slot, 0, 1_000)
        .iter()
        .any(|(f, _)| *f == fresh_feature);
    println!("   IPS sees it immediately:        {ips_sees}");
    println!("   lambda long-term sees it:       {lambda_lt_sees} (waits for tonight's batch)");
    assert!(ips_sees && !lambda_lt_sees);

    // ---- 2. window flexibility ----------------------------------------------
    println!();
    println!("2) the motivating 30-day window query");
    let servable = lambda.can_serve_window(DurationMs::from_days(30), ctl.now());
    let q30 = ProfileQuery::top_k(TABLE, user, slot, TimeRange::last_days(30), 10);
    let ips_30d = instance.query_ctx(&ctx, &q30).unwrap();
    println!("   lambda split can serve it:      {servable}");
    println!(
        "   IPS serves it:                  true ({} features)",
        ips_30d.len()
    );
    assert!(
        !servable,
        "the lambda split cannot do ad-hoc 30-day windows"
    );
    assert!(!ips_30d.is_empty());

    // ---- 3. request amplification ---------------------------------------------
    println!();
    println!("3) cost of assembling one short-term feature vector");
    let lookups_before = lambda.content_store().lookups.get();
    let lambda_features = lambda.assemble_short_term_features(user, slot, 100);
    let lambda_lookups = lambda.content_store().lookups.get() - lookups_before;
    let q_recent = ProfileQuery::top_k(TABLE, user, slot, TimeRange::last_days(3), 20);
    let ips_result = instance.query_ctx(&ctx, &q_recent).unwrap();
    println!(
        "   lambda: {} content-store lookups for {} features + per-product assembly code",
        lambda_lookups,
        lambda_features.len()
    );
    println!(
        "   IPS:    1 request, {} features, assembly inside the service",
        ips_result.len()
    );
    assert!(lambda_lookups as usize >= lambda_features.len().max(1));

    // ---- 4. operational surface ----------------------------------------------
    println!();
    println!("4) operational surface");
    println!("   lambda: long-term KV + short-term store + content store + nightly batch ({} runs so far)", lambda.batch_runs.get());
    println!("   IPS:    one service (cache + KV substrate), zero batch jobs");

    println!();
    println!("baseline_lambda_compare: OK");
}
