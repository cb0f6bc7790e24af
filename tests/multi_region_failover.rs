//! Integration test: the §III-G multi-region story — write-all/read-local,
//! single persisting region, replication lag and stale reads, region
//! failover and recovery.

use std::sync::Arc;

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);

struct World {
    deployment: MultiRegionDeployment,
    client: IpsClusterClient,
    ctl: SimClock,
}

fn build(regions: usize) -> World {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("t");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: (0..regions).map(|i| format!("region-{i}")).collect(),
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
    World {
        deployment,
        client,
        ctl,
    }
}

fn write(w: &World, pid: u64, fid: u64) {
    w.client
        .add_profiles(
            CALLER,
            TABLE,
            ProfileId::new(pid),
            w.ctl.now(),
            SLOT,
            LIKE,
            &[(FeatureId::new(fid), CountVector::single(1))],
        )
        .unwrap();
}

fn query(w: &World, pid: u64) -> QueryResult {
    let q = ProfileQuery::top_k(
        TABLE,
        ProfileId::new(pid),
        SLOT,
        TimeRange::last_days(1),
        10,
    );
    w.client.query(CALLER, &q).unwrap().0
}

#[test]
fn only_the_persisting_region_writes_storage() {
    let w = build(3);
    for pid in 0..50u64 {
        write(&w, pid, 1);
    }
    for region in &w.deployment.regions {
        for ep in &region.endpoints {
            ep.instance().flush_all().unwrap();
        }
    }
    // All storage keys came through the master; replicas are empty until
    // the pump runs.
    assert!(!w.deployment.kv.master().store().is_empty());
    for region in &w.deployment.regions[1..] {
        assert_eq!(
            region.replica.as_ref().unwrap().store().len(),
            0,
            "replica written only by replication"
        );
    }
    w.deployment.pump_replication(1 << 20);
    for region in &w.deployment.regions[1..] {
        assert!(!region.replica.as_ref().unwrap().store().is_empty());
    }
}

#[test]
fn stale_replica_read_after_failover_is_tolerated() {
    let w = build(2);
    write(&w, 7, 1);
    // Flush region-0 so the master KV holds v1; replicate to region-1.
    for ep in &w.deployment.regions[0].endpoints {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);

    // More writes land (v2) but do NOT replicate (lag) and region-1's
    // instances evict their caches (simulating a cold node).
    write(&w, 7, 2);
    for ep in &w.deployment.regions[0].endpoints {
        ep.instance().flush_all().unwrap();
    }
    // NOTE: no pump — replica still has v1.
    for ep in &w.deployment.regions[1].endpoints {
        ep.instance()
            .table(TABLE)
            .unwrap()
            .cache
            .evict(ProfileId::new(7))
            .unwrap();
    }

    // Region-0 fails; queries land on region-1, which loads the STALE
    // profile from its replica. The paper accepts exactly this.
    w.deployment.regions[0].set_down(true);
    w.ctl.advance(DurationMs::from_secs(20));
    w.deployment.heartbeat_all(); // live endpoints (region-1) keep registering
    w.ctl.advance(DurationMs::from_secs(20));
    w.client.refresh();
    let r = query(&w, 7);
    // The write-fanout already put fresh writes into region-1's cache...
    // except we evicted them. What remains is the replica's v1 view.
    assert_eq!(r.len(), 1, "stale but served");
    assert_eq!(
        r.entries[0].feature,
        FeatureId::new(1),
        "the lagging replica serves the old feature set"
    );
}

#[test]
fn error_rate_stays_low_through_rolling_crashes() {
    let w = build(2);
    for pid in 0..100u64 {
        write(&w, pid, pid % 10);
    }
    for ep in w.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);

    // Roll through instances: crash one at a time, run traffic, restore.
    let endpoints = w.deployment.all_endpoints();
    for victim in &endpoints {
        victim.set_down(true);
        for pid in 0..100u64 {
            let _ = query(&w, pid);
        }
        victim.set_down(false);
    }
    let stats = w.client.stats();
    assert_eq!(
        stats.failures, 0,
        "single-instance crashes must be fully masked: {stats:?}"
    );
    assert!(stats.retries > 0, "failover actually happened");
    assert!(w.client.error_rate() < 0.0001);
}

#[test]
fn three_region_failover_chain() {
    let w = build(3);
    write(&w, 42, 1);
    for ep in w.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);

    // Kill regions 0 and 1; region 2 must still serve.
    w.deployment.regions[0].set_down(true);
    w.deployment.regions[1].set_down(true);
    let r = query(&w, 42);
    assert_eq!(r.len(), 1);
    assert_eq!(w.client.stats().failures, 0);
}

#[test]
fn discovery_expiry_reroutes_without_touching_dead_nodes() {
    let w = build(2);
    write(&w, 7, 1);
    for ep in w.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);

    // Region-0 dies silently. Its registrations expire after the TTL.
    w.deployment.regions[0].set_down(true);
    w.ctl.advance(DurationMs::from_secs(20));
    w.deployment.heartbeat_all(); // only live endpoints heartbeat
    w.ctl.advance(DurationMs::from_secs(20));
    w.client.refresh();

    let retries_before = w.client.stats().retries;
    let r = query(&w, 7);
    assert_eq!(r.len(), 1);
    assert_eq!(
        w.client.stats().retries,
        retries_before,
        "after refresh the dead region is not even attempted"
    );
}
