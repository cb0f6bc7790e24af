//! The system under test: the standard `ips_bench::testbed` with both
//! latency models zeroed, preloaded from the seed, plus the benchmark-side
//! bookkeeping the correctness checks need (the write tally and a digest of
//! every read result).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ips_bench::{testbed, Testbed, TestbedOptions};
use ips_cluster::ring::DEFAULT_VNODES;
use ips_cluster::{HashRing, LatencyBreakdown, NetworkModel, ProfileWrite, RpcEndpoint};
use ips_core::query::QueryResult;
use ips_core::server::IpsInstance;
use ips_ingest::WorkloadGenerator;
use ips_kv::KvLatencyModel;
use ips_types::{CallerId, Clock, DurationMs, ProfileId, SlotId};

use crate::stream::{self, Op, Shape, Stream};

/// The one closed-loop caller.
pub const CALLER: CallerId = CallerId::new(1);
/// Preload: `PRELOAD_CHUNKS` `add_batch` calls of `PRELOAD_CHUNK` writes,
/// spread over `PRELOAD_SPAN` of simulated history.
pub const PRELOAD_CHUNKS: usize = 200;
pub const PRELOAD_CHUNK: usize = 512;
pub const PRELOAD_SPAN: DurationMs = DurationMs::from_days(30);
/// Preload chunks between maintenance rounds (the last chunk is followed
/// by one, the set-up's first tick).
pub const PRELOAD_TICK_CHUNKS: usize = 20;
/// Inline maintenance cadence: every `TICK_OPS` profile ops the benchmark
/// advances the simulated clock by `TICK_ADVANCE`, ticks every instance and
/// pumps KV replication.
pub const TICK_OPS: usize = 2_000;
pub const TICK_ADVANCE: DurationMs = DurationMs::from_secs(60);
/// Profile ops run untimed at the end of set-up.
pub const WARMUP_OPS: usize = 2 * TICK_OPS;
/// Per-instance cache budgets: the default 256 MiB keeps the working set
/// (5.8–7.3 MB per instance after set-up) resident; 768 KiB is about 1/8
/// of it.
pub const HOT_CACHE_BYTES: usize = 256 << 20;
pub const COLD_CACHE_BYTES: usize = 768 << 10;

/// What the benchmark wrote to one (profile, slot), summed over all writes.
#[derive(Default)]
pub struct SlotTally {
    pub counts: Vec<i64>,
    pub features: HashSet<u64>,
}

/// Failures and contract violations seen by the benchmark.
#[derive(Default)]
pub struct Problems {
    /// Profile ops that failed or were refused.
    pub failed: u64,
    /// Requests whose breakdown carried modeled network or storage time.
    pub modeled: u64,
    /// Reads whose result contradicts another read or the write tally.
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Problems {
    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 8 {
            self.notes.push(msg);
        }
    }
}

/// One timed client call.
pub struct Exec {
    pub us: f64,
    /// Read results served from a resident cache entry, out of `reads`.
    pub hits: u64,
    pub reads: u64,
}

pub struct Bed {
    pub tb: Testbed,
    /// Every instance, region by region.
    pub instances: Vec<Arc<IpsInstance>>,
    /// Per region: the ring the client routes by, for owner lookups.
    rings: Vec<(HashRing, HashMap<String, Arc<RpcEndpoint>>)>,
    pub tally: HashMap<(ProfileId, SlotId), SlotTally>,
    pub acked_writes: u64,
    pub problems: Problems,
    ops_since_tick: usize,
}

/// Build the testbed for `budget`, preload it, tick it, and run the warm-up
/// prefix of the stream. Everything here counts as set-up.
pub fn setup(budget: usize, shape: Shape, seed: u64) -> (Bed, Stream) {
    let mut options = TestbedOptions {
        network: NetworkModel::zero(),
        storage: KvLatencyModel::zero(),
        ..TestbedOptions::default()
    };
    options.table.cache.memory_budget_bytes = budget;
    let tb = testbed(options);
    let rings = tb
        .deployment
        .regions
        .iter()
        .map(|region| {
            let mut ring = HashRing::new(DEFAULT_VNODES);
            let mut by_name = HashMap::new();
            for ep in &region.endpoints {
                ring.add(ep.name());
                by_name.insert(ep.name().to_string(), Arc::clone(ep));
            }
            (ring, by_name)
        })
        .collect();
    let instances = tb
        .deployment
        .all_endpoints()
        .iter()
        .map(|ep| Arc::clone(ep.instance()))
        .collect();
    let mut bed = Bed {
        tb,
        instances,
        rings,
        tally: HashMap::new(),
        acked_writes: 0,
        problems: Problems::default(),
        ops_since_tick: 0,
    };
    bed.preload(seed);
    let mut stream = Stream::new(shape, seed);
    let mut done = 0;
    while done < WARMUP_OPS {
        let op = stream.next_op(bed.tb.ctl.now());
        bed.execute(&op, None);
        done += op.profile_ops();
        if bed.count_ops(op.profile_ops()) {
            bed.maintain();
        }
    }
    (bed, stream)
}

impl Bed {
    fn preload(&mut self, seed: u64) {
        let mut gen = WorkloadGenerator::new(stream::config(seed));
        let step = DurationMs::from_millis(PRELOAD_SPAN.as_millis() / PRELOAD_CHUNKS as u64);
        for chunk in 1..=PRELOAD_CHUNKS {
            let now = self.tb.ctl.now();
            let writes: Vec<ProfileWrite> = (0..PRELOAD_CHUNK)
                .map(|_| stream::draw_write(&mut gen, now))
                .collect();
            self.execute(&Op::WriteBatch(writes), None);
            self.tb.ctl.advance(step);
            if chunk % PRELOAD_TICK_CHUNKS == 0 {
                self.tick_all();
            }
        }
    }

    /// The owner of `pid` in region `region`, as the client routes.
    pub fn owner(&self, region: usize, pid: ProfileId) -> Arc<RpcEndpoint> {
        let (ring, by_name) = &self.rings[region];
        let name = ring.node_for(pid).expect("every region has instances");
        Arc::clone(&by_name[name])
    }

    pub fn regions(&self) -> usize {
        self.rings.len()
    }

    /// Count `n` profile ops toward the maintenance cadence; true when a
    /// maintenance round is due.
    pub fn count_ops(&mut self, n: usize) -> bool {
        self.ops_since_tick += n;
        if self.ops_since_tick >= TICK_OPS {
            self.ops_since_tick = 0;
            true
        } else {
            false
        }
    }

    /// One inline maintenance round.
    pub fn maintain(&mut self) {
        self.tb.ctl.advance(TICK_ADVANCE);
        self.tick_all();
    }

    fn tick_all(&mut self) {
        for inst in &self.instances {
            if let Err(e) = inst.tick() {
                self.problems.note(format!("tick on {}: {e}", inst.name()));
                self.problems.failed += 1;
            }
        }
        self.tb.deployment.pump_replication(usize::MAX);
    }

    fn check_breakdown(&mut self, b: &LatencyBreakdown) {
        if b.network_us != 0 || b.storage_us != 0 {
            self.problems.modeled += 1;
            self.problems
                .note(format!("modeled latency in a breakdown: {b:?}"));
        }
    }

    fn fail(&mut self, ops: usize, what: &str, e: &ips_types::IpsError) {
        self.problems.failed += ops as u64;
        self.problems.note(format!("{what} failed: {e}"));
    }

    fn acknowledge(&mut self, w: &ProfileWrite) {
        self.acked_writes += 1;
        let t = self.tally.entry((w.profile, w.slot)).or_default();
        for (fid, counts) in &w.features {
            t.features.insert(fid.raw());
            if t.counts.len() < counts.len() {
                t.counts.resize(counts.len(), 0);
            }
            for (acc, v) in t.counts.iter_mut().zip(counts.as_slice()) {
                *acc += v;
            }
        }
    }

    /// Issue `op` through the client and time it. Read results are hashed
    /// into `digests` (one per single read or sub-query) when given.
    pub fn execute(&mut self, op: &Op, mut digests: Option<&mut Vec<u64>>) -> Exec {
        let client = &self.tb.client;
        let mut exec = Exec {
            us: 0.0,
            hits: 0,
            reads: 0,
        };
        let started = Instant::now();
        match op {
            Op::Read(q) => {
                let out = client.query(CALLER, q);
                exec.us = micros(started);
                match out {
                    Ok((r, b)) => {
                        self.check_breakdown(&b);
                        exec.reads = 1;
                        exec.hits = u64::from(r.cache_hit);
                        if let Some(d) = digests.as_deref_mut() {
                            d.push(digest(&r));
                        }
                    }
                    Err(e) => self.fail(1, "query", &e),
                }
            }
            Op::Write(w) => {
                let out = client.add_profiles(
                    CALLER,
                    w.table,
                    w.profile,
                    w.at,
                    w.slot,
                    w.action,
                    &w.features,
                );
                exec.us = micros(started);
                match out {
                    Ok(b) => {
                        self.check_breakdown(&b);
                        self.acknowledge(w);
                    }
                    Err(e) => self.fail(1, "add_profiles", &e),
                }
            }
            Op::ReadBatch(qs) => {
                let out = client.query_batch(CALLER, qs);
                exec.us = micros(started);
                match out {
                    Ok(outcome) => {
                        self.check_breakdown(&outcome.latency);
                        for sub in &outcome.results {
                            match sub {
                                Ok(r) => {
                                    exec.reads += 1;
                                    exec.hits += u64::from(r.cache_hit);
                                    if let Some(d) = digests.as_deref_mut() {
                                        d.push(digest(r));
                                    }
                                }
                                Err(e) => self.fail(1, "query_batch sub-query", e),
                            }
                        }
                    }
                    Err(e) => self.fail(qs.len(), "query_batch", &e),
                }
            }
            Op::WriteBatch(ws) => {
                let out = client.add_batch(CALLER, ws);
                exec.us = micros(started);
                match out {
                    Ok(b) => {
                        self.check_breakdown(&b);
                        for w in ws {
                            self.acknowledge(w);
                        }
                    }
                    Err(e) => self.fail(ws.len(), "add_batch", &e),
                }
            }
        }
        exec
    }
}

/// Microseconds since `t`, with sub-microsecond digits.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1_000.0
}

/// FNV-1a over a query result's entries: feature, counts and freshness.
pub fn digest(r: &QueryResult) -> u64 {
    let mut h = Fnv::default();
    h.put(r.entries.len() as u64);
    for e in &r.entries {
        h.put(e.feature.raw());
        for c in e.counts.as_slice() {
            h.put(*c as u64);
        }
        h.put(e.last_seen.as_millis());
    }
    h.0
}

/// A 64-bit FNV-1a accumulator over `u64` words.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
