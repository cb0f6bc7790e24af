//! # ips — one import surface over the `ips-rs` workspace
//!
//! A from-scratch Rust reproduction of *IPS: Unified Profile Management for
//! Ubiquitous Online Recommendations* (ICDE 2021): a unified profile store
//! that ingests user-behaviour counts at high rate and serves inline feature
//! computations (top-K / filter / decay over flexible time windows) at low
//! latency, bounded in memory by automatic compaction, truncation and
//! long-tail shrink, persisted through a versioned key-value substrate and
//! deployed multi-region behind consistent-hash routing.
//!
//! The workspace crates, re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `ips-types` | ids, timestamps, time ranges, configs, errors |
//! | [`metrics`] | `ips-metrics` | histograms, counters, rates, time series |
//! | [`codec`] | `ips-codec` | wire format, compressor, storage frames |
//! | [`kv`] | `ips-kv` | versioned KV store, WAL, replication |
//! | [`core`] | `ips-core` | the profile engine itself |
//! | [`cluster`] | `ips-cluster` | hashing, discovery, RPC, regions, client |
//! | [`ingest`] | `ips-ingest` | stream join, topic log, ingestion, workloads |
//! | [`baseline`] | `ips-baseline` | lambda / pre-agg / naive baselines |
//! | [`trace`] | `ips-trace` | request-scoped spans, sampling, exporters |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the paper's Alice example end-to-end,
//! `examples/content_feeds.rs` and `examples/advertising.rs` for the two
//! §I use cases, and `examples/cluster_failover.rs` for the multi-region
//! deployment.

pub use ips_baseline as baseline;
pub use ips_cluster as cluster;
pub use ips_codec as codec;
pub use ips_core as core;
pub use ips_ingest as ingest;
pub use ips_kv as kv;
pub use ips_metrics as metrics;
pub use ips_trace as trace;
pub use ips_types as types;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ips_cluster::{IpsClusterClient, MultiRegionDeployment, MultiRegionOptions};
    pub use ips_core::query::{FilterPredicate, ProfileQuery, QueryKind, QueryResult};
    pub use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
    pub use ips_types::clock::{sim_clock, system_clock, SimClock};
    pub use ips_types::config::DecayFunction;
    pub use ips_types::{
        ActionTypeId, AggregateFunction, CallerId, Clock, CountVector, DurationMs, FeatureId,
        IpsError, ProfileId, QuotaConfig, Result, SlotId, SortKey, SortOrder, TableConfig, TableId,
        TimeRange, Timestamp,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let clock = system_clock();
        let _ = clock.now();
        let _ = TableConfig::new("smoke");
    }
}
