//! Ablation (§III-D): compaction policies.
//!
//! Three claims are exercised:
//!
//! 1. **Inline vs async** — running compaction on the serving path
//!    (triggered by the incoming request) hurts query tail latency; moving
//!    it to the dedicated pool keeps the serving path clean.
//! 2. **Partial vs full** — a partial pass (bounded merges) costs a
//!    fraction of a full pass, at the price of converging over several
//!    cycles; the full pass is reserved for long slice lists.
//! 3. **Compaction effect on queries** — a compacted profile answers large
//!    -window queries faster because the merge visits far fewer slices.

use std::sync::Arc;

use ips_bench::{banner, bar_table};
use ips_core::compact::compactor::compact_profile;
use ips_core::model::ProfileData;
use ips_core::query::{engine, ProfileQuery};
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_metrics::Histogram;
use ips_types::clock::sim_clock;
use ips_types::{
    ActionTypeId, AggregateFunction, CallerId, Clock, CompactionConfig, CountVector, DurationMs,
    FeatureId, ProfileId, ShrinkConfig, SlotId, TableConfig, TableId, TimeRange, Timestamp,
};

const TABLE: TableId = TableId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

fn deep_profile(slices: u64, features_per_slice: u64) -> ProfileData {
    let mut p = ProfileData::new();
    for s in 0..slices {
        for f in 0..features_per_slice {
            p.add(
                Timestamp::from_millis(1_000 + s * 1_000),
                SLOT,
                LIKE,
                FeatureId::new(f * 13 % 200),
                &CountVector::single(1),
                AggregateFunction::Sum,
                DurationMs::from_secs(1),
            );
        }
    }
    p
}

fn main() {
    banner("E-COMPACT (§III-D)", "compaction policy ablations");

    // ---- 1. query cost: compacted vs uncompacted profile -------------------
    let now = Timestamp::from_millis(DurationMs::from_days(2).as_millis());
    let config = CompactionConfig::default();
    let raw = deep_profile(3_600, 10); // an hour of 1s slices, 10 features each
    let mut compacted = raw.clone();
    let stats = compact_profile(&mut compacted, &config, AggregateFunction::Sum, now, false);
    println!(
        "profile: {} slices -> {} after full compaction ({} merges, {} -> {} bytes)",
        stats.slices_before,
        stats.slices_after,
        stats.merges,
        stats.bytes_before,
        stats.bytes_after
    );

    let query = ProfileQuery::top_k(TABLE, ProfileId::new(1), SLOT, TimeRange::last_days(2), 20);
    let time_query = |p: &ProfileData| -> (f64, usize) {
        let shrink = ShrinkConfig::default();
        let t0 = std::time::Instant::now();
        let mut visited = 0;
        for _ in 0..200 {
            let r = engine::execute(p, &query, AggregateFunction::Sum, &shrink, now);
            visited = r.slices_visited;
        }
        (t0.elapsed().as_secs_f64() / 200.0 * 1e6, visited)
    };
    let (raw_us, raw_slices) = time_query(&raw);
    let (compact_us, compact_slices) = time_query(&compacted);
    bar_table(
        "large-window query cost",
        "us/query",
        &[
            (format!("uncompacted ({raw_slices} slices)"), raw_us),
            (format!("compacted ({compact_slices} slices)"), compact_us),
        ],
    );
    assert!(compact_us < raw_us, "compaction must speed up wide queries");

    // ---- 2. partial vs full pass cost --------------------------------------
    let mut partial_cfg = config.clone();
    partial_cfg.partial_max_merges = 8;
    let cost = |partial: bool| -> (f64, usize) {
        let mut total_us = 0.0;
        let mut cycles = 0;
        let mut p = deep_profile(1_800, 5);
        loop {
            let t0 = std::time::Instant::now();
            let s = compact_profile(&mut p, &partial_cfg, AggregateFunction::Sum, now, partial);
            total_us += t0.elapsed().as_secs_f64() * 1e6;
            cycles += 1;
            if s.merges == 0 || !partial {
                break;
            }
        }
        (total_us / cycles as f64, cycles)
    };
    let (full_us, _) = cost(false);
    let (partial_us, partial_cycles) = cost(true);
    bar_table(
        "compaction pass cost",
        "us/pass",
        &[
            ("full pass".into(), full_us),
            (
                format!("partial pass (x{partial_cycles} to converge)"),
                partial_us,
            ),
        ],
    );
    assert!(
        partial_us < full_us,
        "a partial pass must cost less than a full pass"
    );

    // ---- 3. inline vs async compaction under serving load ------------------
    let run_serving = |inline_compaction: bool| -> ips_metrics::HistogramSnapshot {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let instance =
            IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
        let mut cfg = TableConfig::new("serve");
        cfg.isolation.enabled = false;
        cfg.compaction.min_interval = DurationMs::ZERO;
        instance.create_table(TABLE, cfg).unwrap();
        let ctx = RequestContext::new(CallerId::new(1));

        // Populate 200 users with long histories needing compaction.
        for pid in 0..200u64 {
            for i in 0..200u64 {
                instance
                    .add_profiles_ctx(
                        &ctx,
                        TABLE,
                        ProfileId::new(pid),
                        ctl.now()
                            .saturating_sub(DurationMs::from_secs(7_200 - i * 30)),
                        SLOT,
                        LIKE,
                        &[(FeatureId::new(i % 40), CountVector::single(1))],
                    )
                    .unwrap();
            }
        }

        let hist = Histogram::new();
        let rt = instance.table(TABLE).unwrap();
        for round in 0..4_000u64 {
            let pid = ProfileId::new(round % 200);
            let q = ProfileQuery::top_k(TABLE, pid, SLOT, TimeRange::last_days(1), 10);
            let t0 = std::time::Instant::now();
            instance.query_ctx(&ctx, &q).unwrap();
            if inline_compaction {
                // The pre-optimization behaviour: the request that notices
                // a long slice list compacts it right there.
                rt.scheduler.run_pending(1);
            }
            hist.record(t0.elapsed().as_micros() as u64);
            if !inline_compaction && round % 500 == 0 {
                // Async pool: compaction runs between requests.
                rt.scheduler.run_pending(64);
            }
        }
        hist.snapshot()
    };
    let inline = run_serving(true);
    let async_pool = run_serving(false);
    bar_table(
        "query p99 under compaction",
        "us",
        &[
            ("inline compaction".into(), inline.percentile(99.0) as f64),
            ("async pool".into(), async_pool.percentile(99.0) as f64),
        ],
    );
    println!("-- shape summary ------------------------------------------");
    println!(
        "inline p99 {} us vs async p99 {} us",
        inline.percentile(99.0),
        async_pool.percentile(99.0)
    );
    println!("ablation_compaction: OK");
}
