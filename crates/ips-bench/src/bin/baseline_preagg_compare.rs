//! Baseline (§VI): IPS vs the pre-aggregated sliding-window KV store.
//!
//! The related-work trade-off: the streaming+KV design materializes a fixed
//! window set, so (a) every write is amplified by the number of configured
//! windows, (b) storage grows with the window count, and (c) a window that
//! was not configured in advance cannot be served at all. IPS stores raw
//! slices once and aggregates any window at query time.

use std::sync::Arc;

use ips_baseline::PreAggStore;
use ips_bench::{banner, bar_table, human_bytes, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_types::clock::sim_clock;
use ips_types::{CallerId, Clock, DurationMs, TableConfig, TimeRange, Timestamp};

fn main() {
    banner(
        "E-PREAGG (§VI)",
        "IPS vs pre-aggregated fixed-window KV store",
    );
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(100).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let mut cfg = TableConfig::new("ips");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();
    let ctx = RequestContext::new(CallerId::new(1));

    let windows = vec![
        DurationMs::from_mins(5),
        DurationMs::from_hours(1),
        DurationMs::from_days(1),
        DurationMs::from_days(7),
        DurationMs::from_days(30),
    ];
    let preagg = PreAggStore::new(windows.clone());
    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 2_000,
        ..Default::default()
    });

    // Identical event stream.
    println!("feeding 30_000 identical events into both systems ...");
    let events = 30_000u64;
    for i in 0..events {
        let rec = generator.instance(ctl.now());
        instance
            .add_profiles_ctx(
                &ctx,
                TABLE,
                rec.user,
                rec.at,
                rec.slot,
                rec.action_type,
                &[(rec.feature, rec.counts.clone())],
            )
            .unwrap();
        preagg.record(rec.user, rec.slot, rec.feature, &rec.counts, rec.at);
        if i % 2_000 == 0 {
            ctl.advance(DurationMs::from_mins(30));
            instance.tick().unwrap();
        }
    }

    // ---- write amplification -------------------------------------------------
    println!();
    bar_table(
        "storage writes per ingested event",
        "writes",
        &[
            ("IPS (raw slices)".into(), 1.0),
            (
                format!("pre-agg ({} windows)", windows.len()),
                preagg.writes.get() as f64 / events as f64,
            ),
        ],
    );
    assert_eq!(preagg.writes.get(), events * windows.len() as u64);

    // ---- storage cost -----------------------------------------------------------
    let rt = instance.table(TABLE).unwrap();
    let ips_bytes = rt.cache.stats().memory_bytes as f64;
    let preagg_bytes = preagg.approx_bytes() as f64;
    println!();
    bar_table(
        "resident footprint for the same events",
        "bytes",
        &[
            (format!("IPS ({})", human_bytes(ips_bytes)), ips_bytes),
            (
                format!("pre-agg ({})", human_bytes(preagg_bytes)),
                preagg_bytes,
            ),
        ],
    );

    // ---- window flexibility ---------------------------------------------------
    println!();
    println!("ad-hoc window test: 'last 3 days' (never configured)");
    let user = generator.sample_user();
    let slot = ips_types::SlotId::new(user.raw() as u32 % 8);
    let adhoc = preagg.top_k(user, slot, DurationMs::from_days(3), 0, 10, ctl.now());
    let q = ProfileQuery::top_k(TABLE, user, slot, TimeRange::last_days(3), 10);
    let ips_adhoc = instance.query_ctx(&ctx, &q).unwrap();
    println!(
        "   pre-agg: {} (unservable_queries counter = {})",
        if adhoc.is_none() { "REFUSED" } else { "served" },
        preagg.unservable_queries.get()
    );
    println!("   IPS:     served, {} features", ips_adhoc.len());
    assert!(adhoc.is_none());

    // ---- agreement on configured windows -----------------------------------------
    // Where both CAN answer, they should agree (same events in, same sums
    // out). Compare the 7-day top-1 for a busy user.
    println!();
    println!("cross-check on a configured window (7 days):");
    let mut agreements = 0;
    let mut comparisons = 0;
    for _ in 0..50 {
        let user = generator.sample_user();
        let slot = ips_types::SlotId::new(user.raw() as u32 % 8);
        let pre = preagg
            .top_k(user, slot, DurationMs::from_days(7), 0, 1, ctl.now())
            .unwrap();
        let q = ProfileQuery::top_k(TABLE, user, slot, TimeRange::last_days(7), 1);
        let ips_r = instance.query_ctx(&ctx, &q).unwrap();
        if let (Some((pre_fid, pre_count)), Some(entry)) = (pre.first(), ips_r.entries.first()) {
            comparisons += 1;
            if *pre_fid == entry.feature && *pre_count == entry.counts.get_or_zero(0) {
                agreements += 1;
            }
        }
    }
    println!("   top-1 agreement: {agreements}/{comparisons}");
    assert!(comparisons > 10, "need busy users to compare");
    assert!(
        agreements as f64 >= comparisons as f64 * 0.9,
        "both systems must agree on configured windows"
    );

    println!();
    println!("baseline_preagg_compare: OK");
}
