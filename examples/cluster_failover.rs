//! Multi-region deployment and failover (§III-G, Fig 15).
//!
//! Builds a two-region deployment (region-a persists to the KV master,
//! region-b reads its local replica), runs traffic through the unified
//! client, then takes the whole home region down and shows queries failing
//! over to the other region "within minutes" — here, within one discovery
//! refresh — while the client-observed error rate stays near zero.
//!
//! Run with: `cargo run --example cluster_failover`

use std::sync::Arc;

use ips::cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel};
use ips::kv::KvLatencyModel;
use ips::prelude::*;

fn main() -> Result<()> {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));

    let mut table_cfg = TableConfig::new("profiles");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["region-a".into(), "region-b".into()],
            instances_per_region: 3,
            network: NetworkModel::production_default(),
            tables: vec![(TableId::new(1), table_cfg)],
            ..Default::default()
        },
        clock.clone(),
    )?;

    let client = IpsClusterClient::new(
        Arc::clone(&deployment.discovery),
        "region-a",
        KvLatencyModel::production_default(),
    );
    client.add_endpoints(deployment.all_endpoints());
    client.refresh();

    let caller = CallerId::new(1);
    let table = TableId::new(1);
    let slot = SlotId::new(1);
    let like = ActionTypeId::new(1);

    // Normal operation: writes fan out to both regions, queries stay local.
    println!("phase 1: normal operation");
    for user in 0..200u64 {
        client.add_profiles(
            caller,
            table,
            ProfileId::new(user),
            ctl.now(),
            slot,
            like,
            &[(FeatureId::new(user % 20), CountVector::single(1))],
        )?;
    }
    let mut hits = 0;
    for user in 0..200u64 {
        let q = ProfileQuery::top_k(
            table,
            ProfileId::new(user),
            slot,
            TimeRange::last_days(1),
            5,
        );
        let (result, breakdown) = client.query(caller, &q)?;
        if !result.is_empty() {
            hits += 1;
        }
        if user == 0 {
            println!(
                "  first query: {:.2} ms total ({:.2} ms network)",
                breakdown.total_us() as f64 / 1_000.0,
                breakdown.network_us as f64 / 1_000.0
            );
        }
    }
    println!("  {hits}/200 profiles served from the home region");
    assert_eq!(hits, 200);

    // Flush so the other region can load from storage if needed, and let
    // replication carry the data to region-b's replica.
    for ep in deployment.all_endpoints() {
        ep.instance().flush_all()?;
    }
    deployment.pump_replication(1 << 20);

    // Region-a goes dark.
    println!("phase 2: region-a outage");
    deployment.region("region-a").unwrap().set_down(true);
    // Discovery notices once registrations expire (no heartbeats from the
    // dead region). Everyone else keeps heartbeating.
    ctl.advance(DurationMs::from_secs(20));
    deployment.heartbeat_all();
    ctl.advance(DurationMs::from_secs(20));
    client.refresh();
    println!("  healthy regions after refresh: {:?}", client.regions());

    let mut served = 0;
    for user in 0..200u64 {
        let q = ProfileQuery::top_k(
            table,
            ProfileId::new(user),
            slot,
            TimeRange::last_days(1),
            5,
        );
        let (result, _) = client.query(caller, &q)?;
        if !result.is_empty() {
            served += 1;
        }
    }
    println!("  {served}/200 queries served by region-b during the outage");
    assert_eq!(served, 200, "failover must be transparent");
    println!(
        "  client error rate: {:.4}% (retries: {})",
        client.error_rate() * 100.0,
        client.stats().retries
    );
    assert_eq!(client.stats().failures, 0);

    // Region-a recovers and re-registers.
    println!("phase 3: recovery");
    deployment.region("region-a").unwrap().set_down(false);
    for ep in &deployment.region("region-a").unwrap().endpoints {
        deployment.discovery.register(ep.name(), ep.region());
    }
    client.refresh();
    let q = ProfileQuery::top_k(table, ProfileId::new(0), slot, TimeRange::last_days(1), 5);
    let (result, _) = client.query(caller, &q)?;
    assert!(!result.is_empty());
    println!("  region-a is serving again");

    println!("cluster_failover: OK");
    Ok(())
}
