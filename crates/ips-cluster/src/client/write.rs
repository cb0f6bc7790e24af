//! Write orchestration: the all-region fan-outs (Fig 15: "upstream
//! applications write data to all IPS instances regardless of region"),
//! single-profile and batched. Writes carry the deadline and priority but
//! never the degraded opt-in, and never hedge.

use std::collections::HashMap;
use std::sync::Arc;

use ips_core::exec;
use ips_types::clock::monotonic_micros;
use ips_types::{
    ActionTypeId, CallerId, CountVector, Deadline, FeatureId, IpsError, ProfileId, Result, SlotId,
    TableId, Timestamp,
};

use super::{IpsClusterClient, LatencyBreakdown};
use crate::rpc::{CallOptions, ProfileWrite, RpcEndpoint, RpcRequest};

impl IpsClusterClient {
    /// Write one batch of features to **every region** (the ingestion-side
    /// fan-out). Succeeds if at least one region accepted; per-region
    /// failures are retried within the region and then counted.
    #[allow(clippy::too_many_arguments)]
    pub fn add_profiles(
        &self,
        caller: CallerId,
        table: TableId,
        pid: ProfileId,
        at: Timestamp,
        slot: SlotId,
        action: ActionTypeId,
        features: &[(FeatureId, CountVector)],
    ) -> Result<LatencyBreakdown> {
        let request = RpcRequest::Add {
            caller,
            table,
            profile: pid,
            at,
            slot,
            action,
            features: features.to_vec(),
        };
        let regions = self.regions();
        if regions.is_empty() {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        root.set_attr("regions", regions.len().to_string());
        // Region writes fan out on the executor: they overlap as far as idle
        // helpers allow, and with none free this thread writes them in turn.
        // The breakdown returned is the slowest region's.
        let outcomes = exec::fan_out(regions.len(), |r| {
            let started_us = monotonic_micros();
            self.call_with_failover(pid, &request, std::slice::from_ref(&regions[r]))
                .map(|(_, network_us)| {
                    LatencyBreakdown::from_call(
                        monotonic_micros().saturating_sub(started_us),
                        network_us,
                        0,
                    )
                })
        });
        slowest_region(outcomes, &mut root)
    }

    /// Write many profiles in one shot: writes are grouped by owning
    /// instance (per region, via the consistent-hash ring) into
    /// [`RpcRequest::AddBatch`] frames and dispatched concurrently, so a
    /// multi-profile ingest pays one frame per owner instead of one call
    /// per profile. A frame that fails falls back to per-profile writes
    /// with the usual in-region failover. Succeeds if every region
    /// accepted every write through one path or the other.
    pub fn add_batch(&self, caller: CallerId, writes: &[ProfileWrite]) -> Result<LatencyBreakdown> {
        if writes.is_empty() {
            return Ok(LatencyBreakdown::default());
        }
        let regions = self.regions();
        if regions.is_empty() {
            self.attempts.inc();
            self.failures.inc();
            return Err(IpsError::Unavailable("no regions discovered".into()));
        }
        let mut root = self.root_span("add_profiles", caller);
        root.set_attr("writes", writes.len().to_string());
        let region_outcomes = exec::fan_out(regions.len(), |r| {
            self.add_batch_in_region(caller, writes, &regions[r])
        });
        slowest_region(region_outcomes, &mut root)
    }

    fn add_batch_in_region(
        &self,
        caller: CallerId,
        writes: &[ProfileWrite],
        region: &str,
    ) -> Result<LatencyBreakdown> {
        let started_us = monotonic_micros();
        // Group writes by the profile's owner in this region.
        let mut dispatch = ips_trace::child("client_dispatch");
        dispatch.set_attr("region", region);
        let mut groups: HashMap<String, (Arc<RpcEndpoint>, Vec<ProfileWrite>)> = HashMap::new();
        let mut unroutable = false;
        for w in writes {
            match self
                .candidates_in_region(region, w.profile)
                .into_iter()
                .next()
            {
                Some(ep) => groups
                    .entry(ep.name().to_string())
                    .or_insert_with(|| (ep, Vec::new()))
                    .1
                    .push(w.clone()),
                None => unroutable = true,
            }
        }
        drop(dispatch);
        if unroutable || groups.is_empty() {
            return Err(IpsError::Unavailable(format!(
                "no healthy instance in {region}"
            )));
        }
        // Writes carry the deadline and priority too (an expired write is
        // not applied), but never the degraded opt-in and never hedges.
        let opts = CallOptions {
            deadline: self.request_deadline.read().map(Deadline::from_budget),
            degraded: None,
            priority: self.request_priority(),
        };
        let groups: Vec<(Arc<RpcEndpoint>, Vec<ProfileWrite>)> = groups.into_values().collect();
        let outcomes = exec::fan_out(groups.len(), |g| {
            let (ep, group) = &groups[g];
            self.attempts.inc();
            let request = RpcRequest::AddBatch {
                caller,
                writes: group.clone(),
            };
            let (result, cost) = self.attempt_once(ep, &request, &opts);
            let out = result.map(|_| cost.total_us());
            if out.is_ok() {
                self.successes.inc();
            }
            out
        });
        let mut network_us = 0u64;
        for ((_, group), out) in groups.iter().zip(outcomes) {
            match out {
                Ok(net) => network_us = network_us.max(net),
                Err(e) if e.is_retryable() => {
                    // Frame failed in transit or the owner is down: fall back
                    // to per-profile writes with the normal failover walk.
                    for w in group {
                        let request = RpcRequest::Add {
                            caller,
                            table: w.table,
                            profile: w.profile,
                            at: w.at,
                            slot: w.slot,
                            action: w.action,
                            features: w.features.clone(),
                        };
                        let (_, net) = self.call_with_failover(
                            w.profile,
                            &request,
                            std::slice::from_ref(&region.to_string()),
                        )?;
                        network_us = network_us.max(net);
                    }
                }
                Err(e) => {
                    self.failures.inc();
                    return Err(e);
                }
            }
        }
        Ok(LatencyBreakdown::from_call(
            monotonic_micros().saturating_sub(started_us),
            network_us,
            0,
        ))
    }
}

/// Fold the per-region outcomes of an all-region write: it succeeds if any
/// region accepted, reporting the slowest region's breakdown; otherwise it
/// fails with the last region's error, recorded on `root`.
fn slowest_region(
    outcomes: Vec<Result<LatencyBreakdown>>,
    root: &mut ips_trace::Span,
) -> Result<LatencyBreakdown> {
    let mut worst: Option<LatencyBreakdown> = None;
    let mut last_err = IpsError::Unavailable("no healthy instance".into());
    for outcome in outcomes {
        match outcome {
            Ok(b) => {
                let w = worst.get_or_insert(b);
                if b.total_us() > w.total_us() {
                    *w = b;
                }
            }
            Err(e) => last_err = e,
        }
    }
    worst.ok_or_else(|| {
        root.set_error(last_err.to_string());
        last_err
    })
}
