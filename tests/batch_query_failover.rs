//! Integration test: batched query fan-out under node failure.
//!
//! A candidate-ranking batch is grouped into per-owner frames. When an
//! owner endpoint dies mid-workload, only that owner's subset should be
//! re-dispatched to failover candidates — and the client must still hand
//! back every sub-result, in input order, with no silent drops.

use std::sync::Arc;

use ips::cluster::{
    IpsClusterClient, MultiRegionDeployment, MultiRegionOptions, NetworkModel, RpcEndpoint,
};
use ips::kv::KvLatencyModel;
use ips::prelude::*;

const TABLE: TableId = TableId(1);
const CALLER: CallerId = CallerId(1);
const SLOT: SlotId = SlotId(1);
const LIKE: ActionTypeId = ActionTypeId(1);
const BATCH: u64 = 64;

struct World {
    deployment: MultiRegionDeployment,
    client: IpsClusterClient,
    ctl: SimClock,
}

fn build() -> World {
    let (clock, ctl) = sim_clock(Timestamp::from_millis(
        DurationMs::from_days(10).as_millis(),
    ));
    let mut table_cfg = TableConfig::new("t");
    table_cfg.isolation.enabled = false;
    let deployment = MultiRegionDeployment::build(
        MultiRegionOptions {
            regions: vec!["region-0".into(), "region-1".into()],
            instances_per_region: 3,
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

/// Write one distinct feature per profile (feature id = 1000 + pid) so a
/// query result identifies which profile it belongs to.
fn seed_profiles(w: &World) {
    for pid in 0..BATCH {
        w.client
            .add_profiles(
                CALLER,
                TABLE,
                ProfileId::new(pid),
                w.ctl.now(),
                SLOT,
                LIKE,
                &[(FeatureId::new(1_000 + pid), CountVector::single(1))],
            )
            .unwrap();
    }
    // Persist + replicate so any failover target can serve from storage.
    for ep in w.deployment.all_endpoints() {
        ep.instance().flush_all().unwrap();
    }
    w.deployment.pump_replication(1 << 20);
}

fn queries() -> Vec<ProfileQuery> {
    (0..BATCH)
        .map(|pid| {
            ProfileQuery::top_k(
                TABLE,
                ProfileId::new(pid),
                SLOT,
                TimeRange::last_days(1),
                10,
            )
        })
        .collect()
}

/// The home-region endpoint owning the largest share of the batch.
fn busiest_owner(w: &World) -> Arc<RpcEndpoint> {
    let region = &w.deployment.regions[0];
    let mut best: Option<(u64, Arc<RpcEndpoint>)> = None;
    for ep in &region.endpoints {
        let served = ep.instance().table(TABLE).unwrap().metrics.queries.get();
        if best.as_ref().is_none_or(|(s, _)| served > *s) {
            best = Some((served, Arc::clone(ep)));
        }
    }
    best.expect("home region has endpoints").1
}

#[test]
fn owner_failure_redispatches_only_its_subset() {
    let w = build();
    seed_profiles(&w);

    // Warm pass: find the owner that serves the most sub-queries.
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert!(outcome.all_ok());
    let victim = busiest_owner(&w);
    let served_before = victim
        .instance()
        .table(TABLE)
        .unwrap()
        .metrics
        .queries
        .get();
    assert!(served_before > 0, "victim must own part of the batch");

    // Kill the busiest owner and run the batch again.
    victim.set_down(true);
    let retries_before = w.client.stats().retries;
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();

    // No silent drops: every sub-query answered, in input order.
    assert_eq!(outcome.results.len(), BATCH as usize);
    for (pid, sub) in outcome.results.iter().enumerate() {
        let r = sub
            .as_ref()
            .unwrap_or_else(|e| panic!("sub-query {pid} failed: {e}"));
        assert_eq!(r.len(), 1, "sub-query {pid} lost its feature");
        assert_eq!(
            r.entries[0].feature,
            FeatureId::new(1_000 + pid as u64),
            "sub-query {pid} out of order"
        );
    }

    // The failed subset was re-dispatched (frame retries happened), and the
    // dead owner served nothing new.
    assert!(
        w.client.stats().retries > retries_before,
        "failover rounds must re-dispatch the failed subset"
    );
    assert_eq!(
        victim
            .instance()
            .table(TABLE)
            .unwrap()
            .metrics
            .queries
            .get(),
        served_before,
        "a down endpoint must not serve sub-queries"
    );
    assert_eq!(w.client.stats().failures, 0, "outage fully masked");
}

#[test]
fn whole_home_region_outage_falls_over_to_remote_region() {
    let w = build();
    seed_profiles(&w);
    w.deployment.regions[0].set_down(true);

    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert_eq!(outcome.results.len(), BATCH as usize);
    assert!(outcome.all_ok(), "remote region takes the whole batch");
    for (pid, sub) in outcome.results.iter().enumerate() {
        assert_eq!(
            sub.as_ref().unwrap().entries[0].feature,
            FeatureId::new(1_000 + pid as u64),
            "sub-query {pid} out of order after region failover"
        );
    }
    assert_eq!(w.client.stats().failures, 0);
}

#[test]
fn total_outage_fails_every_sub_query_without_dropping_any() {
    let w = build();
    seed_profiles(&w);
    for region in &w.deployment.regions {
        region.set_down(true);
    }
    let outcome = w.client.query_batch(CALLER, &queries()).unwrap();
    assert_eq!(outcome.results.len(), BATCH as usize, "no silent drops");
    assert!(outcome.results.iter().all(Result::is_err));
}

#[test]
fn batch_matches_per_profile_results_exactly() {
    let w = build();
    seed_profiles(&w);
    let qs = queries();
    let batch = w.client.query_batch(CALLER, &qs).unwrap();
    for (i, q) in qs.iter().enumerate() {
        let (single, _) = w.client.query(CALLER, q).unwrap();
        let from_batch = batch.results[i].as_ref().unwrap();
        assert_eq!(single.entries, from_batch.entries, "sub-query {i} differs");
    }
}
