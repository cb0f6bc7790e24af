//! Integration test: request-path fan-out runs on a fixed set of threads.
//!
//! Sixty-four recommender threads hammer a 2-region × 2-instance cluster
//! with the three fanning-out calls — `add_profiles` (one write per
//! region), `add_batch` (per-region, per-owner frames) and `query_batch`
//! (per-owner frames, each a server-side sub-query batch). A sampler reads
//! the process thread count from `/proc/self/status` the whole time. The
//! count must stay within the callers plus the executor's persistent
//! helpers plus a small constant: no request may start an OS thread.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use ips::cluster::ProfileWrite;
use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);
const CALLERS: usize = 64;
const ROUNDS: u64 = 6;
const PROFILES: u64 = 32;
/// Threads the test itself may add beyond the callers and the sampler.
const SLACK: usize = 4;

/// The process's current OS thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn concurrent_fan_outs_keep_the_thread_count_bounded() {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("t");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["region-0".into(), "region-1".into()],
            instances_per_region: 2,
            network: NetworkModel::zero(),
            tables: vec![(TABLE, table_cfg)],
            ..Default::default()
        },
        clock,
    )
    .unwrap();
    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "region-0",
        KvLatencyModel::zero(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();
    let now = ctl.now();
    let write = |pid: u64| ProfileWrite {
        table: TABLE,
        profile: ProfileId::new(pid),
        at: now,
        slot: SLOT,
        action: LIKE,
        features: vec![(FeatureId::new(1_000 + pid), CountVector::single(1))],
    };
    // Warm-up: every call shape once, so start-up threads (the executor's
    // helpers among them) exist before the baseline is taken.
    client
        .add_batch(CALLER, &(0..PROFILES).map(write).collect::<Vec<_>>())
        .unwrap();
    let queries: Vec<ProfileQuery> = (0..PROFILES)
        .map(|pid| {
            ProfileQuery::top_k(TABLE, ProfileId::new(pid), SLOT, TimeRange::last_days(1), 3)
        })
        .collect();
    client.query_batch(CALLER, &queries).unwrap();

    let baseline = threads();
    let peak = AtomicUsize::new(baseline);
    let done = AtomicBool::new(false);
    let start = Barrier::new(CALLERS + 1);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            while !done.load(Ordering::SeqCst) {
                peak.fetch_max(threads(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        let callers: Vec<_> = (0..CALLERS as u64)
            .map(|c| {
                let (client, queries, start) = (&client, &queries, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let pid = (c * ROUNDS + round) % PROFILES;
                        client
                            .add_profiles(
                                CALLER,
                                TABLE,
                                ProfileId::new(pid),
                                now,
                                SLOT,
                                LIKE,
                                &[(FeatureId::new(1_000 + pid), CountVector::single(1))],
                            )
                            .unwrap();
                        let batch: Vec<_> = (0..4).map(|k| write((pid + k) % PROFILES)).collect();
                        client.add_batch(CALLER, &batch).unwrap();
                        let out = client.query_batch(CALLER, queries).unwrap();
                        assert!(out.results.iter().all(Result::is_ok));
                    }
                })
            })
            .collect();
        for h in callers {
            h.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
    });

    let peak = peak.into_inner();
    let bound = baseline + CALLERS + 1 + SLACK;
    assert!(
        peak <= bound,
        "{peak} threads at peak; bound {bound} = baseline {baseline} + {CALLERS} callers + \
         sampler + {SLACK}"
    );
}
