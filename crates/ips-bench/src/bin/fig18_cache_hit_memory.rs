//! Fig 18: memory usage ratio and cache hit ratio over time.
//!
//! The paper: "the typical cache hit ratio of an IPS cluster is above 90%
//! and the memory usage ratio of the cluster remains stable at around 85%,
//! thanks to the profile split optimization and the corresponding cache
//! management strategy." The harness runs a Zipf workload against a cache
//! sized below the working set, with swap threads holding the 85% watermark,
//! and plots both ratios across the run.

use std::sync::Arc;

use ips_bench::{banner, human_bytes, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::TimeSeries;
use ips_types::clock::sim_clock;
use ips_types::{CallerId, Clock, DurationMs, SlotId, TableConfig, TimeRange, Timestamp};

fn main() {
    banner("Fig 18", "memory usage ratio + cache hit ratio over time");
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(400).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let budget: usize = 24 << 20;
    let mut cfg = TableConfig::new("fig18");
    cfg.isolation.enabled = false;
    cfg.cache.memory_budget_bytes = budget;
    cfg.cache.swap_high_watermark = 0.85;
    cfg.cache.swap_low_watermark = 0.80;
    instance.create_table(TABLE, cfg).unwrap();
    let ctx = RequestContext::new(CallerId::new(1));

    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 60_000,
        user_zipf: 1.3,
        ..Default::default()
    });

    // Warm phase: populate well past the memory budget.
    println!(
        "populating past the cache budget ({}) ...",
        human_bytes(budget as f64)
    );
    for i in 0..400_000u64 {
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
        if i % 20_000 == 0 {
            instance.tick().unwrap();
            ctl.advance(DurationMs::from_mins(5));
        }
    }
    instance.tick().unwrap();

    // Steady state: mixed traffic, sample both ratios every interval.
    let memory_series = TimeSeries::new("memory usage (% of budget)");
    let hit_series = TimeSeries::new("cache hit ratio (%)");
    let rt = instance.table(TABLE).unwrap();
    println!("running steady-state mixed traffic ...");
    for interval in 0..48u64 {
        let s0 = rt.cache.stats();
        for _ in 0..4_000 {
            if generator.next_is_read() {
                let user = generator.sample_user();
                let q = ProfileQuery::top_k(
                    TABLE,
                    user,
                    SlotId::new(user.raw() as u32 % 8),
                    TimeRange::last_days(7),
                    20,
                );
                instance.query_ctx(&ctx, &q).unwrap();
            } else {
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
            }
        }
        instance.tick().unwrap();
        let s1 = rt.cache.stats();
        let hits = s1.hits - s0.hits;
        let misses = s1.misses - s0.misses;
        let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        let mem_ratio = s1.memory_bytes as f64 / budget as f64;
        memory_series.push(ctl.now(), mem_ratio * 100.0);
        hit_series.push(ctl.now(), hit_ratio * 100.0);
        ctl.advance(DurationMs::from_mins(30));
        let _ = interval;
    }

    println!();
    println!(
        "{}",
        memory_series.render_table(DurationMs::from_hours(2), "%")
    );
    println!(
        "{}",
        hit_series.render_table(DurationMs::from_hours(2), "%")
    );

    let stats = rt.cache.stats();
    println!("-- shape summary ------------------------------------------");
    println!(
        "final memory: {} of {} budget ({:.1}%)",
        human_bytes(stats.memory_bytes as f64),
        human_bytes(budget as f64),
        stats.memory_bytes as f64 / budget as f64 * 100.0
    );
    println!(
        "steady-state hit ratio: {:.1}% (paper: > 90%)",
        hit_series.mean()
    );
    println!(
        "memory usage mean: {:.1}% (paper: ~85%)",
        memory_series.mean()
    );
    println!(
        "evictions: {}, swap try_lock skips: {}",
        stats.evictions, stats.swap_skips
    );
    assert!(
        hit_series.mean() > 90.0,
        "hit ratio {:.1}% below 90%",
        hit_series.mean()
    );
    assert!(
        (60.0..=90.0).contains(&memory_series.mean()),
        "memory should hold near the watermark, got {:.1}%",
        memory_series.mean()
    );
    println!("fig18_cache_hit_memory: OK");
}
