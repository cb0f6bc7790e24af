//! Server-side batch fan-out over a blocking store.
//!
//! One instance reads through a store whose read verbs sleep a fixed 2 ms
//! round-trip, standing in for a remote KV service. Every query targets a
//! profile id nobody has touched, so each sub-query of a batch is a cache
//! miss that parks its worker in the store for the whole round-trip. The
//! batch's wall time therefore shows how many sub-queries were in flight
//! at once: with `w` workers a batch of `n` cold queries costs about
//! `ceil(n / w)` round-trips.
//!
//! Three phases:
//!
//! * **serial** — single-query batches, which run inline on the caller:
//!   the per-query cold cost `s`;
//! * **single caller** — `BATCH`-query batches from one thread; overlap =
//!   `BATCH × s / batch wall time` (median over rounds);
//! * **concurrent callers** — `CALLERS` threads issuing the same batches at
//!   once; overlap = `queries × s / elapsed`, the number of store loads in
//!   flight across the process. Reported, not gated.
//!
//! Gate: a single caller's batch overlaps at least `MIN_OVERLAP` store
//! loads (the server fans a batch out up to 8 wide).
//!
//! Writes `BENCH_blocking_fanout.json`. `--smoke` shrinks the rounds.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use ips_bench::{banner, TABLE};
use ips_core::query::ProfileQuery;
use ips_core::server::{IpsInstance, IpsInstanceOptions, RequestContext};
use ips_core::ProfileStore;
use ips_kv::{Generation, KvNode, KvNodeConfig};
use ips_types::clock::sim_clock;
use ips_types::{
    AdmissionConfig, CallerId, DurationMs, ProfileId, QuotaConfig, SlotId, TimeRange, Timestamp,
};

/// Simulated store round-trip for every read.
const STORE_DELAY_MS: u64 = 2;
/// Sub-queries per batch: a candidate-ranking batch.
const BATCH: usize = 64;
/// Threads issuing batches at once in the concurrent phase.
const CALLERS: usize = 4;
/// Single-caller overlap gate.
const MIN_OVERLAP: f64 = 6.0;
const CALLER: CallerId = CallerId(1);

/// A `ProfileStore` whose read verbs cost a fixed round-trip.
struct DelayedStore {
    inner: KvNode,
    delay: Duration,
}

impl ProfileStore for DelayedStore {
    fn set(&self, key: Bytes, value: Bytes) -> ips_types::Result<Generation> {
        self.inner.set(key, value)
    }
    fn get(&self, key: &[u8]) -> ips_types::Result<Option<Bytes>> {
        std::thread::sleep(self.delay);
        self.inner.get(key)
    }
    fn get_many(&self, keys: &[Bytes]) -> ips_types::Result<Vec<Option<Bytes>>> {
        std::thread::sleep(self.delay);
        self.inner.get_many(keys)
    }
    fn xget(&self, key: &[u8]) -> ips_types::Result<(Option<Bytes>, Generation)> {
        std::thread::sleep(self.delay);
        self.inner.xget(key)
    }
    fn xset(&self, key: Bytes, value: Bytes, held: Generation) -> ips_types::Result<Generation> {
        self.inner.xset(key, value, held)
    }
    fn delete(&self, key: &[u8]) -> ips_types::Result<bool> {
        self.inner.delete(key)
    }
}

struct Bench {
    instance: Arc<IpsInstance>,
    /// Next never-queried profile id.
    cursor: AtomicU64,
}

impl Bench {
    fn new() -> Self {
        let (clock, _ctl) = sim_clock(Timestamp::from_millis(
            DurationMs::from_days(30).as_millis(),
        ));
        let store = Arc::new(DelayedStore {
            inner: KvNode::new("blocking-kv".to_string(), KvNodeConfig::default())
                .expect("in-memory node"),
            delay: Duration::from_millis(STORE_DELAY_MS),
        });
        let instance = IpsInstance::new(
            store,
            IpsInstanceOptions {
                admission: AdmissionConfig {
                    max_inflight_subqueries: BATCH * CALLERS,
                },
                name: "blocking-fanout".into(),
                ..Default::default()
            },
            clock,
        );
        let mut cfg = ips_types::TableConfig::new("cold");
        cfg.isolation.enabled = false;
        instance.create_table(TABLE, cfg).expect("create table");
        instance.quota.set_quota(
            CALLER,
            QuotaConfig {
                qps_limit: 10_000_000,
                burst_factor: 1.5,
            },
        );
        Self {
            instance,
            cursor: AtomicU64::new(0),
        }
    }

    /// Run one batch of `n` cold queries; returns its wall time in µs.
    fn cold_batch(&self, n: usize) -> f64 {
        let first = self.cursor.fetch_add(n as u64, Ordering::Relaxed);
        let queries: Vec<ProfileQuery> = (first..first + n as u64)
            .map(|pid| {
                ProfileQuery::top_k(
                    TABLE,
                    ProfileId::new(pid),
                    SlotId::new((pid % 8) as u32),
                    TimeRange::last_days(7),
                    10,
                )
            })
            .collect();
        let t0 = Instant::now();
        let results = self
            .instance
            .query_batch_ctx(&RequestContext::new(CALLER), &queries)
            .expect("batch admitted");
        let us = t0.elapsed().as_secs_f64() * 1e6;
        assert!(results.iter().all(Result::is_ok), "cold read failed");
        us
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E-BLOCKING-FANOUT",
        "server batch fan-out over a 2 ms blocking store",
    );
    let rounds = if smoke { 6 } else { 24 };
    let bench = Bench::new();

    let serial_us = median((0..4 * rounds).map(|_| bench.cold_batch(1)).collect());
    let single_us = median((0..rounds).map(|_| bench.cold_batch(BATCH)).collect());
    let single_overlap = BATCH as f64 * serial_us / single_us;

    let start = Barrier::new(CALLERS);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            s.spawn(|| {
                start.wait();
                for _ in 0..rounds {
                    bench.cold_batch(BATCH);
                }
            });
        }
    });
    let concurrent_s = t0.elapsed().as_secs_f64();
    let concurrent_queries = (CALLERS * rounds * BATCH) as f64;
    let concurrent_overlap = concurrent_queries * serial_us / (concurrent_s * 1e6);

    println!();
    println!("-- shape summary ------------------------------------------");
    println!("serial cold query:           {serial_us:.0} us");
    println!(
        "single caller, {BATCH}-query batch: {single_us:.0} us ({single_overlap:.1} loads in flight)"
    );
    println!(
        "{CALLERS} concurrent callers:        {:.0} queries/s ({concurrent_overlap:.1} loads in flight)",
        concurrent_queries / concurrent_s
    );

    assert!(
        single_overlap >= MIN_OVERLAP,
        "a single caller's cold batch must overlap >= {MIN_OVERLAP} store loads, got {single_overlap:.1}"
    );

    let mut json = String::from("{\n  \"bench\": \"blocking_fanout\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"store_delay_ms\": {STORE_DELAY_MS},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"serial_query_us\": {serial_us:.0},");
    let _ = writeln!(json, "  \"single_batch_us\": {single_us:.0},");
    let _ = writeln!(json, "  \"single_overlap\": {single_overlap:.2},");
    let _ = writeln!(json, "  \"concurrent_callers\": {CALLERS},");
    let _ = writeln!(json, "  \"concurrent_overlap\": {concurrent_overlap:.2},");
    let _ = writeln!(
        json,
        "  \"gates\": {{ \"single_overlap_min\": {MIN_OVERLAP} }}"
    );
    json.push_str("}\n");
    std::fs::write("BENCH_blocking_fanout.json", &json).expect("write BENCH_blocking_fanout.json");
    println!("wrote BENCH_blocking_fanout.json");
    println!("blocking_fanout: OK");
}
