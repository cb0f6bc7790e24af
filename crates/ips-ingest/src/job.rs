//! The IPS ingestion job (the last Flink stage in Fig 5).
//!
//! Consumes instance records from the topic and writes them into IPS with
//! the configured extraction logic (here: the item's feature keyed under its
//! slot/action type). Tracks end-to-end freshness — event time to
//! IPS-visible time — which §III-A bounds at "usually within a minute".

use std::sync::Arc;

use ips_cluster::IpsClusterClient;
use ips_core::server::{IpsInstance, RequestContext};
use ips_metrics::{Counter, Histogram};
use ips_types::{CallerId, Result, SharedClock, TableId};

use crate::events::InstanceRecord;
use crate::log::ConsumerGroup;

/// Anything instance records can be written into.
pub trait IngestSink: Send + Sync {
    fn ingest(&self, caller: CallerId, table: TableId, record: &InstanceRecord) -> Result<()>;
}

impl IngestSink for Arc<IpsInstance> {
    fn ingest(&self, caller: CallerId, table: TableId, record: &InstanceRecord) -> Result<()> {
        self.add_profiles_ctx(
            &RequestContext::new(caller),
            table,
            record.user,
            record.at,
            record.slot,
            record.action_type,
            &[(record.feature, record.counts.clone())],
        )
    }
}

impl IngestSink for IpsClusterClient {
    fn ingest(&self, caller: CallerId, table: TableId, record: &InstanceRecord) -> Result<()> {
        self.add_profiles(
            caller,
            table,
            record.user,
            record.at,
            record.slot,
            record.action_type,
            &[(record.feature, record.counts.clone())],
        )
        .map(|_| ())
    }
}

/// The ingestion job: topic consumer → IPS writes, with freshness metrics.
pub struct IngestionJob<S> {
    group: ConsumerGroup<InstanceRecord>,
    sink: S,
    caller: CallerId,
    table: TableId,
    clock: SharedClock,
    pub ingested: Counter,
    pub failed: Counter,
    /// Event-time-to-ingest latency in milliseconds.
    pub freshness_ms: Histogram,
}

impl<S: IngestSink> IngestionJob<S> {
    #[must_use]
    pub fn new(
        group: ConsumerGroup<InstanceRecord>,
        sink: S,
        caller: CallerId,
        table: TableId,
        clock: SharedClock,
    ) -> Self {
        Self {
            group,
            sink,
            caller,
            table,
            clock,
            ingested: Counter::new(),
            failed: Counter::new(),
            freshness_ms: Histogram::new(),
        }
    }

    /// Consume and ingest up to `batch` records. Returns records processed.
    /// Failed writes are counted and dropped (the pipeline's at-most-once
    /// stance; the multi-region fan-out provides the redundancy).
    pub fn run_once(&self, batch: usize) -> usize {
        let records = self.group.poll(batch);
        let n = records.len();
        for record in records {
            match self.sink.ingest(self.caller, self.table, &record) {
                Ok(()) => {
                    self.ingested.inc();
                    let now = self.clock.now();
                    self.freshness_ms
                        .record(now.as_millis().saturating_sub(record.at.as_millis()));
                }
                Err(_) => self.failed.inc(),
            }
        }
        n
    }

    /// Drain the topic completely.
    pub fn run_to_completion(&self) -> usize {
        let mut total = 0;
        loop {
            let n = self.run_once(1024);
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }

    /// Consumer lag (records waiting in the topic).
    #[must_use]
    pub fn lag(&self) -> u64 {
        self.group.lag()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Topic;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};
    use ips_core::query::ProfileQuery;
    use ips_core::server::IpsInstanceOptions;
    use ips_types::clock::sim_clock;
    use ips_types::{DurationMs, SlotId, TableConfig, TimeRange, Timestamp};

    const TABLE: TableId = TableId(1);

    fn instance(clock: SharedClock) -> Arc<IpsInstance> {
        let i = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
        let mut cfg = TableConfig::new("t");
        cfg.isolation.enabled = false;
        i.create_table(TABLE, cfg).unwrap();
        i
    }

    #[test]
    fn records_flow_from_topic_to_queryable_profile() {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let inst = instance(Arc::clone(&clock));
        let topic = Topic::new(4);
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());

        // Produce 500 records at "now".
        let mut users = Vec::new();
        for _ in 0..500 {
            let rec = generator.instance(ctl_now(&ctl));
            users.push((rec.user, rec.slot));
            topic.append(rec.user.raw(), rec);
        }

        let job = IngestionJob::new(
            ConsumerGroup::new(Arc::clone(&topic)),
            Arc::clone(&inst),
            CallerId::new(1),
            TABLE,
            Arc::clone(&clock),
        );
        assert_eq!(job.lag(), 500);
        ctl.advance(DurationMs::from_secs(5)); // pipeline delay
        assert_eq!(job.run_to_completion(), 500);
        assert_eq!(job.lag(), 0);
        assert_eq!(job.ingested.get(), 500);

        // Freshness: all records ingested 5s after event time.
        let p50 = job.freshness_ms.percentile(50.0);
        assert!((4_000..7_000).contains(&p50), "freshness p50 {p50}");

        // Spot-check visibility.
        let (user, slot) = users[0];
        let q = ProfileQuery::top_k(TABLE, user, slot, TimeRange::last_days(1), 10);
        let r = inst
            .query_ctx(&RequestContext::new(CallerId::new(1)), &q)
            .unwrap();
        assert!(!r.is_empty());
    }

    fn ctl_now(ctl: &ips_types::SimClock) -> Timestamp {
        use ips_types::Clock as _;
        ctl.now()
    }

    #[test]
    fn failed_writes_are_counted_not_retried() {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        let inst = instance(Arc::clone(&clock));
        // Zero quota: every ingest fails terminally.
        inst.quota.set_quota(
            CallerId::new(9),
            ips_types::QuotaConfig {
                qps_limit: 0,
                burst_factor: 1.0,
            },
        );
        let topic = Topic::new(1);
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        for _ in 0..10 {
            let rec = generator.instance(ctl_now(&ctl));
            topic.append(rec.user.raw(), rec);
        }
        let job = IngestionJob::new(
            ConsumerGroup::new(Arc::clone(&topic)),
            Arc::clone(&inst),
            CallerId::new(9),
            TABLE,
            clock,
        );
        job.run_to_completion();
        assert_eq!(job.failed.get(), 10);
        assert_eq!(job.ingested.get(), 0);
    }

    #[test]
    fn run_once_respects_batch_size() {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(1_000_000));
        let inst = instance(Arc::clone(&clock));
        let topic = Topic::new(1);
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        for _ in 0..100 {
            let rec = generator.instance(ctl_now(&ctl));
            topic.append(rec.user.raw(), rec);
        }
        let job = IngestionJob::new(
            ConsumerGroup::new(Arc::clone(&topic)),
            Arc::clone(&inst),
            CallerId::new(1),
            TABLE,
            clock,
        );
        assert_eq!(job.run_once(30), 30);
        assert_eq!(job.lag(), 70);
    }

    #[test]
    fn unknown_slot_queries_stay_empty() {
        // Sanity: ingestion writes only into the record's slot.
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        let inst = instance(Arc::clone(&clock));
        let topic = Topic::new(1);
        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        let rec = generator.instance(ctl_now(&ctl));
        let user = rec.user;
        let slot = rec.slot;
        topic.append(rec.user.raw(), rec);
        let job = IngestionJob::new(
            ConsumerGroup::new(Arc::clone(&topic)),
            Arc::clone(&inst),
            CallerId::new(1),
            TABLE,
            clock,
        );
        job.run_to_completion();
        let empty_slot = SlotId::new(slot.raw() + 1_000);
        let q = ProfileQuery::top_k(TABLE, user, empty_slot, TimeRange::last_days(1), 10);
        assert!(inst
            .query_ctx(&RequestContext::new(CallerId::new(1)), &q)
            .unwrap()
            .is_empty());
    }
}
