//! §IV / §V-b: per-caller quota enforcement in a shared cluster.
//!
//! "A QPS quota is enforced for each caller on the server side to ensure
//! the serving capacity required by customers of different SLAs. If an
//! upstream client's usage exceeds its quota, IPS server will reject the
//! requests from the same client until its usage falls below the limit."
//!
//! The harness runs two tenants against one instance: a well-behaved
//! serving caller within quota and an aggressive batch caller far above
//! its own. It reports per-tenant admission rates and shows the victim's
//! latency/success rate unaffected by the offender.

use std::sync::Arc;

use ips_bench::{banner, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_metrics::Histogram;
use ips_types::clock::sim_clock;
use ips_types::{
    CallerId, Clock, DurationMs, IpsError, QuotaConfig, SlotId, TableConfig, TimeRange, Timestamp,
};

fn main() {
    banner("E-QUOTA (§V-b)", "per-caller QPS quota in a shared cluster");
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(30).as_millis(),
    ));
    let instance = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
    let mut cfg = TableConfig::new("shared");
    cfg.isolation.enabled = false;
    instance.create_table(TABLE, cfg).unwrap();

    let serving = CallerId::new(1);
    let batch = CallerId::new(2);
    instance.quota.set_quota(
        serving,
        QuotaConfig {
            qps_limit: 2_000,
            burst_factor: 1.5,
        },
    );
    instance.quota.set_quota(
        batch,
        QuotaConfig {
            qps_limit: 200,
            burst_factor: 1.0,
        },
    );

    let mut generator = WorkloadGenerator::new(WorkloadConfig {
        users: 2_000,
        ..Default::default()
    });
    // Preload through a separate loader identity so the serving tenant's
    // bucket starts the measured phase full.
    let loader = CallerId::new(99);
    for i in 0..10_000u64 {
        let rec = generator.instance(ctl.now());
        instance
            .add_profiles_ctx(
                &RequestContext::new(loader),
                TABLE,
                rec.user,
                rec.at,
                rec.slot,
                rec.action_type,
                &[(rec.feature, rec.counts.clone())],
            )
            .unwrap();
        if i % 2_000 == 0 {
            ctl.advance(DurationMs::from_secs(1));
        }
    }

    // Ten simulated seconds; each second the serving tenant issues 1_500
    // queries (within quota) and the batch tenant tries 2_000 (10x over).
    println!();
    println!("sec | serving ok/attempted | batch ok/attempted | batch rejected");
    let serving_hist = Histogram::new();
    let mut serving_ok = 0u64;
    let mut serving_attempts = 0u64;
    let mut batch_ok = 0u64;
    let mut batch_attempts = 0u64;
    for second in 0..10u64 {
        let mut s_ok = 0;
        let mut b_ok = 0;
        let mut b_rej = 0;
        for i in 0..3_500u64 {
            // Interleave the two tenants as concurrent load.
            let user = generator.sample_user();
            let q = ProfileQuery::top_k(
                TABLE,
                user,
                SlotId::new(user.raw() as u32 % 8),
                TimeRange::last_days(7),
                10,
            );
            if i % 7 < 3 {
                serving_attempts += 1;
                let t0 = std::time::Instant::now();
                match instance.query_ctx(&RequestContext::new(serving), &q) {
                    Ok(_) => {
                        serving_hist.record(t0.elapsed().as_micros() as u64);
                        s_ok += 1;
                        serving_ok += 1;
                    }
                    Err(IpsError::QuotaExceeded(_)) => {}
                    Err(e) => panic!("unexpected: {e}"),
                }
            } else {
                batch_attempts += 1;
                match instance.query_ctx(&RequestContext::new(batch), &q) {
                    Ok(_) => {
                        b_ok += 1;
                        batch_ok += 1;
                    }
                    Err(IpsError::QuotaExceeded(_)) => b_rej += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
        println!("{second:>3} | {s_ok:>10}/1500       | {b_ok:>8}/2000     | {b_rej:>8}");
        ctl.advance(DurationMs::from_secs(1));
    }

    let serving_rate = serving_ok as f64 / serving_attempts as f64;
    let batch_rate = batch_ok as f64 / batch_attempts as f64;
    println!("-- shape summary ------------------------------------------");
    println!(
        "serving tenant admission: {:.1}% (quota 2000/s, offered 1500/s)",
        serving_rate * 100.0
    );
    println!(
        "batch tenant admission:   {:.1}% (quota 200/s, offered 2000/s)",
        batch_rate * 100.0
    );
    println!(
        "serving latency p99 under contention: {} us",
        serving_hist.percentile(99.0)
    );
    assert!(serving_rate > 0.99, "victim tenant must be unaffected");
    assert!(
        (0.05..0.25).contains(&batch_rate),
        "offender throttled to ~its quota share, got {:.2}",
        batch_rate
    );
    println!("quota_enforcement: OK");
}
