//! Bulk back-fill loader (Spark substitute).
//!
//! §III-F's motivating scenario for read-write isolation: "an offline
//! Map-Reduce job to ingest large amount of historical data into an IPS
//! cluster". The loader writes a record set at unconstrained rate, grouping
//! consecutive records that share a `(user, timestamp, slot, action)`
//! coordinate into one `add_profiles` batch.

use ips_metrics::Counter;
use ips_types::{CallerId, CountVector, FeatureId, TableId};

use crate::events::InstanceRecord;
use crate::job::IngestSink;

/// Outcome of a bulk load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchLoadStats {
    pub records: usize,
    pub batches: usize,
    pub failed: usize,
}

/// The loader.
pub struct BatchLoader<S> {
    sink: S,
    caller: CallerId,
    table: TableId,
    pub written: Counter,
}

impl<S: IngestSink> BatchLoader<S> {
    #[must_use]
    pub fn new(sink: S, caller: CallerId, table: TableId) -> Self {
        Self {
            sink,
            caller,
            table,
            written: Counter::new(),
        }
    }

    /// Load all records. Consecutive records for the same write coordinate
    /// are batched. Returns per-load stats; failures are counted and
    /// skipped (back-fills are re-runnable).
    pub fn load(&self, records: &[InstanceRecord]) -> BatchLoadStats {
        let mut stats = BatchLoadStats::default();
        let mut idx = 0;
        while idx < records.len() {
            let head = &records[idx];
            // Gather the run of records sharing the coordinate.
            let mut features: Vec<(FeatureId, CountVector)> =
                vec![(head.feature, head.counts.clone())];
            let mut end = idx + 1;
            while end < records.len() {
                let r = &records[end];
                if r.user == head.user
                    && r.at == head.at
                    && r.slot == head.slot
                    && r.action_type == head.action_type
                {
                    features.push((r.feature, r.counts.clone()));
                    end += 1;
                } else {
                    break;
                }
            }
            // Reuse the sink interface record-by-record for singletons and a
            // synthetic head record otherwise; IngestSink intentionally has
            // a one-record surface, so multi-feature runs loop.
            let mut ok = true;
            for (feature, counts) in &features {
                let rec = InstanceRecord {
                    feature: *feature,
                    counts: counts.clone(),
                    ..head.clone()
                };
                if self.sink.ingest(self.caller, self.table, &rec).is_err() {
                    ok = false;
                }
            }
            stats.records += features.len();
            stats.batches += 1;
            if ok {
                self.written.add(features.len() as u64);
            } else {
                stats.failed += features.len();
            }
            idx = end;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadConfig, WorkloadGenerator};
    use ips_core::query::{FilterPredicate, ProfileQuery};
    use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
    use ips_types::clock::sim_clock;
    use ips_types::{DurationMs, TableConfig, TimeRange, Timestamp};
    use std::sync::Arc;

    const TABLE: TableId = TableId(1);

    #[test]
    fn bulk_load_lands_and_batches() {
        let (clock, ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(400).as_millis(),
        ));
        use ips_types::Clock as _;
        let inst = IpsInstance::new_in_memory(IpsInstanceOptions::default(), Arc::clone(&clock));
        let mut cfg = TableConfig::new("t");
        cfg.isolation.enabled = false;
        inst.create_table(TABLE, cfg).unwrap();

        let mut generator = WorkloadGenerator::new(WorkloadConfig::default());
        let base = generator.instance(ctl.now());
        // Three features sharing one coordinate + one unrelated record.
        let records = vec![
            InstanceRecord {
                feature: FeatureId::new(1),
                ..base.clone()
            },
            InstanceRecord {
                feature: FeatureId::new(2),
                ..base.clone()
            },
            InstanceRecord {
                feature: FeatureId::new(3),
                ..base.clone()
            },
            generator.instance(ctl.now()),
        ];
        let loader = BatchLoader::new(Arc::clone(&inst), CallerId::new(1), TABLE);
        let stats = loader.load(&records);
        assert_eq!(stats.records, 4);
        assert_eq!(stats.batches, 2, "first three grouped, last separate");
        assert_eq!(stats.failed, 0);
        assert_eq!(loader.written.get(), 4);

        let q = ProfileQuery::filter(
            TABLE,
            base.user,
            base.slot,
            TimeRange::last_days(1),
            FilterPredicate::All,
        );
        let r = inst
            .query_ctx(&RequestContext::new(CallerId::new(1)), &q)
            .unwrap();
        assert!(r.len() >= 3);
    }

    #[test]
    fn empty_load_is_noop() {
        let (clock, _ctl) = sim_clock(Timestamp::from_millis(1_000));
        let inst = IpsInstance::new_in_memory(IpsInstanceOptions::default(), clock);
        inst.create_table(TABLE, TableConfig::new("t")).unwrap();
        let loader = BatchLoader::new(inst, CallerId::new(1), TABLE);
        assert_eq!(loader.load(&[]), BatchLoadStats::default());
    }
}
