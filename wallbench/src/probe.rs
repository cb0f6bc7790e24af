//! The traced run: per-layer numbers for the same seeded stream.
//!
//! Nothing here adds tracing inside the program. After a fixed sample of
//! requests the benchmark replays the same input one layer down, through
//! that layer's public function, and times each call from its own code; a
//! layer's self time is its probe time minus the probe time of the layer
//! below. Replayed writes carry zeroed counts, so they add nothing to any
//! sum. Maintenance runs the steps of `IpsInstance::tick` one by one, timed
//! apart. On alternate blocks the program's existing `Tracer` is attached
//! at 100% sampling, which gives the span self times and the cost of
//! tracing itself.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ips_bench::TABLE;
use ips_cluster::{CallOptions, ProfileWrite, RpcEndpoint, RpcRequest, RpcResponse};
use ips_core::persist::{decode_profile, encode_profile};
use ips_core::query::{engine, ProfileQuery};
use ips_core::{RequestContext, SliceProjection};
use ips_trace::{SamplerConfig, SpanRecord, Tracer};
use ips_types::{Clock, CountVector, ProfileId};

use crate::bed::{micros, setup, Bed, CALLER, COLD_CACHE_BYTES, HOT_CACHE_BYTES, TICK_ADVANCE};
use crate::report::{mean, median, percentile, Metrics};
use crate::stream::{Op, Shape, Stream};
use crate::Run;

/// Probe every n-th request of each kind (reads, writes) in probed blocks.
const PROBE_EVERY: usize = 4;
/// Profiles of a batch that get the profile-level probes (query, cache,
/// persist, codec, kv).
const PROBE_PROFILES: usize = 8;
/// Profile ops per block. Blocks cycle plain → probed → traced: probes
/// only run in probed blocks, the tracer is attached only in traced ones,
/// and plain blocks are the baseline for the tracer's cost.
const TRACE_BLOCK_OPS: usize = 1_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Block {
    Plain,
    Probed,
    Traced,
}

impl Block {
    fn of(ops: usize) -> Self {
        match (ops / TRACE_BLOCK_OPS) % 3 {
            0 => Block::Plain,
            1 => Block::Probed,
            _ => Block::Traced,
        }
    }
}
/// Stream prefix replayed on a resident and on a small cache to count
/// reads whose results differ.
const MISMATCH_OPS: usize = 10_000;
/// The existing program spans whose self time is reported.
const SPANS: [&str; 6] = [
    "serialize",
    "server_queue",
    "pipeline",
    "cache",
    "compute",
    "store_load",
];

/// Named samples, byte/time totals for throughput rates, and the probe
/// calls that failed.
#[derive(Default)]
struct Samples {
    values: BTreeMap<String, Vec<f64>>,
    rates: BTreeMap<&'static str, (f64, f64)>,
    failures: Vec<String>,
}

impl Samples {
    /// Keep a probe call's value, noting its failure.
    fn check<T>(&mut self, what: &str, r: ips_types::Result<T>) -> Option<T> {
        r.map_err(|e| self.failures.push(format!("{what} probe failed: {e}")))
            .ok()
    }

    fn add(&mut self, name: impl Into<String>, v: f64) {
        self.values.entry(name.into()).or_default().push(v);
    }

    fn rate(&mut self, name: &'static str, bytes: usize, us: f64) {
        let r = self.rates.entry(name).or_default();
        r.0 += bytes as f64;
        r.1 += us;
    }

    fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// MiB/s over everything recorded for `name`.
    fn mib_s(&self, name: &str) -> f64 {
        self.rates.get(name).map_or(0.0, |(bytes, us)| {
            if *us > 0.0 {
                bytes / (1024.0 * 1024.0) / (us / 1e6)
            } else {
                0.0
            }
        })
    }
}

/// Counter totals over every instance, read before and after the run.
#[derive(Clone, Copy, Default)]
struct Counters {
    store_loads: u64,
    coalesced_loads: u64,
    evictions: u64,
    flushes: u64,
    swap_skips: u64,
    persist_loads: u64,
    persist_saves: u64,
    bytes_read: u64,
    bytes_written: u64,
    sheds: u64,
    compactions: u64,
    replicated_ops: u64,
    retries: u64,
    failures: u64,
}

impl Counters {
    fn take(bed: &Bed) -> Self {
        let mut c = Counters::default();
        for inst in &bed.instances {
            let rt = inst.table(TABLE).expect("bench table exists");
            let cs = rt.cache.stats();
            let pm = &rt.cache.persister().metrics;
            c.store_loads += cs.store_loads;
            c.coalesced_loads += cs.coalesced_loads;
            c.evictions += cs.evictions;
            c.flushes += cs.flushes;
            c.swap_skips += cs.swap_skips;
            c.persist_loads += pm.loads.get();
            c.persist_saves += pm.saves.get();
            c.bytes_read += pm.bytes_read.get();
            c.bytes_written += pm.bytes_written.get();
            c.sheds += inst.admission.shed.get() + inst.shed_deadline.get();
            c.compactions += rt.scheduler.executed.get();
        }
        c.replicated_ops = bed.tb.deployment.kv.replicated_ops.get();
        let stats = bed.tb.client.stats();
        c.retries = stats.retries;
        c.failures = stats.failures;
        c
    }
}

fn nanos(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn zeroed(w: &ProfileWrite) -> ProfileWrite {
    ProfileWrite {
        features: w
            .features
            .iter()
            .map(|(fid, counts)| (*fid, CountVector::zeros(counts.len())))
            .collect(),
        ..w.clone()
    }
}

fn attach(bed: &Bed, tracer: Option<&Arc<Tracer>>) {
    bed.tb.client.set_tracer(tracer.cloned());
    for inst in &bed.instances {
        inst.set_tracer(tracer.cloned());
    }
    bed.tb.deployment.kv.set_tracer(tracer.cloned());
}

/// Encode, decode and dispatch `req` to `ep`, timing each step under
/// `rpc.<role>.*`. Returns the `RpcEndpoint::call` time in µs.
fn probe_rpc(ep: &RpcEndpoint, req: &RpcRequest, role: &str, s: &mut Samples) -> f64 {
    let t = Instant::now();
    let bytes = req.encode_with(None, &CallOptions::default());
    s.add(format!("rpc.{role}.req_encode_ns"), nanos(t));
    s.add(format!("rpc.{role}.req_bytes"), bytes.len() as f64);
    let t = Instant::now();
    let decoded = RpcRequest::decode_envelope(&bytes);
    s.add(format!("rpc.{role}.req_decode_ns"), nanos(t));
    debug_assert!(decoded.is_ok());
    let t = Instant::now();
    let response = ep.call(req);
    let call_us = micros(t);
    s.add(format!("rpc.{role}.call_us"), call_us);
    if let Some((response, _)) = s.check("RpcEndpoint::call", response) {
        let t = Instant::now();
        let bytes = response.encode();
        s.add(format!("rpc.{role}.resp_encode_ns"), nanos(t));
        s.add(format!("rpc.{role}.resp_bytes"), bytes.len() as f64);
        let t = Instant::now();
        let decoded = RpcResponse::decode(&bytes);
        s.add(format!("rpc.{role}.resp_decode_ns"), nanos(t));
        debug_assert!(decoded.is_ok());
    }
    call_us
}

/// The profile-level probes on `pid` at its owner `ep`: the query engine
/// (when `query` is given), a no-op cache read, the profile codec, the
/// block compressor on the same body, and a KV get of the profile key.
/// Cache reads use the request's own projection, so a probe never loads
/// slices the request did not.
fn probe_profile(
    bed: &Bed,
    ep: &RpcEndpoint,
    pid: ProfileId,
    query: Option<&ProfileQuery>,
    s: &mut Samples,
) {
    let rt = ep.instance().table(TABLE).expect("bench table exists");
    let now = bed.tb.ctl.now();
    let projection = query.map_or(SliceProjection::Full, |q| q.projection(now));
    if let Some(q) = query {
        let cfg = rt.config.load();
        let run = rt.cache.read_projected(pid, &projection, |p| {
            let t = Instant::now();
            let r = engine::execute(p, q, cfg.aggregate, &cfg.compaction.shrink, now);
            (r, micros(t))
        });
        if let Some(Some(((r, us), _, _))) = s.check("GCache::read_projected", run) {
            s.add("query.exec_us", us);
            s.add("query.slices_visited", r.slices_visited as f64);
            s.add("query.entries", r.entries.len() as f64);
        }
    }
    let t = Instant::now();
    let resident = rt.cache.read_projected(pid, &projection, |_| ());
    let us = micros(t);
    if let Some(Some(_)) = s.check("GCache::read_projected", resident) {
        s.add("cache.hit_read_us", us);
    }
    let encoded = rt.cache.read_projected(pid, &projection, |p| {
        let t = Instant::now();
        let bytes = encode_profile(p);
        (bytes, micros(t))
    });
    if let Some(Some(((frame, enc_us), _, _))) = s.check("GCache::read_projected", encoded) {
        s.add("persist.encode_us", enc_us);
        s.add("persist.profile_bytes", frame.len() as f64);
        s.rate("persist.encode", frame.len(), enc_us);
        let t = Instant::now();
        let decoded = decode_profile(&frame);
        let dec_us = micros(t);
        if s.check("decode_profile", decoded).is_some() {
            s.add("persist.decode_us", dec_us);
            s.rate("persist.decode", frame.len(), dec_us);
        }
        if let Ok(body) = ips_codec::decode_frame(&frame) {
            let t = Instant::now();
            let packed = ips_codec::compress(&body);
            s.rate("codec.compress", body.len(), micros(t));
            let t = Instant::now();
            if ips_codec::decompress(&packed, body.len()).is_ok() {
                s.rate("codec.decompress", body.len(), micros(t));
            }
        }
    }
    let key = |tag: u8| {
        let mut k = vec![tag];
        k.extend_from_slice(&TABLE.raw().to_be_bytes());
        k.extend_from_slice(&pid.raw().to_be_bytes());
        k
    };
    let kv = &bed.tb.deployment.kv;
    let t = Instant::now();
    // Bulk profiles live under `b`; split ones keep their meta under `m`.
    let found = match kv.get_master(&key(b'b')) {
        Ok(None) => kv.get_master(&key(b'm')),
        other => other,
    };
    let us = micros(t);
    if let Some(Some(_)) = s.check("get_master", found) {
        s.add("kv.get_us", us);
    }
}

fn probe_read(bed: &Bed, q: &ProfileQuery, s: &mut Samples) {
    let t = Instant::now();
    let r = bed.tb.client.query(CALLER, q);
    s.check("client.query", r);
    let client_us = micros(t);
    let owner = bed.owner(0, q.profile);
    let request = RpcRequest::Query {
        caller: CALLER,
        query: q.clone(),
    };
    let call_us = probe_rpc(&owner, &request, "read", s);
    s.add("client.read_self_us", client_us - call_us);
    s.add("client.frames_per_read", 1.0);
    let t = Instant::now();
    let r = owner.instance().query_ctx(&RequestContext::new(CALLER), q);
    s.add("server.read_us", micros(t));
    s.check("query_ctx", r);
    probe_profile(bed, &owner, q.profile, Some(q), s);
}

fn probe_write(bed: &Bed, w: &ProfileWrite, s: &mut Samples) {
    let w = zeroed(w);
    let t = Instant::now();
    let r = bed.tb.client.add_profiles(
        CALLER,
        w.table,
        w.profile,
        w.at,
        w.slot,
        w.action,
        &w.features,
    );
    let client_us = micros(t);
    s.check("client.add_profiles", r);
    let request = RpcRequest::Add {
        caller: CALLER,
        table: w.table,
        profile: w.profile,
        at: w.at,
        slot: w.slot,
        action: w.action,
        features: w.features.clone(),
    };
    // The client writes every region concurrently: it waits for the
    // slowest region's call.
    let slowest = (0..bed.regions())
        .map(|region| probe_rpc(&bed.owner(region, w.profile), &request, "write", s))
        .fold(0.0, f64::max);
    s.add("client.write_self_us", client_us - slowest);
    s.add("client.frames_per_write", bed.regions() as f64);
    let owner = bed.owner(0, w.profile);
    let t = Instant::now();
    let r = owner.instance().add_profiles_ctx(
        &RequestContext::new(CALLER),
        w.table,
        w.profile,
        w.at,
        w.slot,
        w.action,
        &w.features,
    );
    s.add("server.write_us", micros(t));
    s.check("add_profiles_ctx", r);
    probe_profile(bed, &owner, w.profile, None, s);
}

/// Group `pids` (by index) under their owner in `region`.
fn frames(
    bed: &Bed,
    region: usize,
    pids: impl Iterator<Item = ProfileId>,
) -> Vec<(Arc<RpcEndpoint>, Vec<usize>)> {
    let mut groups: BTreeMap<String, (Arc<RpcEndpoint>, Vec<usize>)> = BTreeMap::new();
    for (i, pid) in pids.enumerate() {
        let ep = bed.owner(region, pid);
        groups
            .entry(ep.name().to_string())
            .or_insert_with(|| (ep, Vec::new()))
            .1
            .push(i);
    }
    groups.into_values().collect()
}

fn probe_read_batch(bed: &Bed, qs: &[ProfileQuery], s: &mut Samples) {
    let t = Instant::now();
    let r = bed.tb.client.query_batch(CALLER, qs);
    let client_us = micros(t);
    s.check("client.query_batch", r);
    let groups = frames(bed, 0, qs.iter().map(|q| q.profile));
    s.add("client.frames_per_read", groups.len() as f64);
    let mut slowest = 0.0f64;
    for (ep, idxs) in &groups {
        let queries: Vec<ProfileQuery> = idxs.iter().map(|&i| qs[i].clone()).collect();
        let request = RpcRequest::QueryBatch {
            caller: CALLER,
            queries: queries.clone(),
        };
        slowest = slowest.max(probe_rpc(ep, &request, "read", s));
        let t = Instant::now();
        let r = ep
            .instance()
            .query_batch_ctx(&RequestContext::new(CALLER), &queries);
        s.add("server.read_us", micros(t));
        s.check("query_batch_ctx", r);
    }
    s.add("client.read_self_us", client_us - slowest);
    for q in qs.iter().take(PROBE_PROFILES) {
        probe_profile(bed, &bed.owner(0, q.profile), q.profile, Some(q), s);
    }
}

fn probe_write_batch(bed: &Bed, ws: &[ProfileWrite], s: &mut Samples) {
    let ws: Vec<ProfileWrite> = ws.iter().map(zeroed).collect();
    let t = Instant::now();
    let r = bed.tb.client.add_batch(CALLER, &ws);
    let client_us = micros(t);
    s.check("client.add_batch", r);
    let mut slowest = 0.0f64;
    let mut frame_count = 0;
    for region in 0..bed.regions() {
        let groups = frames(bed, region, ws.iter().map(|w| w.profile));
        frame_count += groups.len();
        for (ep, idxs) in &groups {
            let writes: Vec<ProfileWrite> = idxs.iter().map(|&i| ws[i].clone()).collect();
            let request = RpcRequest::AddBatch {
                caller: CALLER,
                writes: writes.clone(),
            };
            slowest = slowest.max(probe_rpc(ep, &request, "write", s));
            if region == 0 {
                // The endpoint applies an AddBatch frame one write at a time.
                let ctx = RequestContext::new(CALLER);
                let t = Instant::now();
                let r: ips_types::Result<()> = writes.iter().try_for_each(|w| {
                    ep.instance().add_profiles_ctx(
                        &ctx,
                        w.table,
                        w.profile,
                        w.at,
                        w.slot,
                        w.action,
                        &w.features,
                    )
                });
                s.add("server.write_us", micros(t));
                s.check("add_profiles_ctx", r);
            }
        }
    }
    s.add("client.write_self_us", client_us - slowest);
    s.add("client.frames_per_write", frame_count as f64);
    for w in ws.iter().take(PROBE_PROFILES) {
        probe_profile(bed, &bed.owner(0, w.profile), w.profile, None, s);
    }
}

/// One maintenance round with each step of `IpsInstance::tick` timed
/// apart, in its order, then the replication pump. Returns its wall time.
fn maintain_probed(bed: &mut Bed, s: &mut Samples) -> f64 {
    let started = Instant::now();
    bed.tb.ctl.advance(TICK_ADVANCE);
    let (mut merge, mut compact, mut flush, mut swap) = (0.0, 0.0, 0.0, 0.0);
    let mut errors = Vec::new();
    for inst in &bed.instances {
        let rt = inst.table(TABLE).expect("bench table exists");
        let t = Instant::now();
        if let Err(e) = rt.merge_write_table() {
            errors.push(format!("merge on {}: {e}", inst.name()));
        }
        merge += micros(t);
        let t = Instant::now();
        rt.scheduler.run_pending(64);
        compact += micros(t);
        let t = Instant::now();
        for shard in 0..rt.config.load().cache.dirty_shards {
            if let Err(e) = rt.cache.flush_shard(shard, 256) {
                errors.push(format!("flush on {}: {e}", inst.name()));
            }
        }
        flush += micros(t);
        let t = Instant::now();
        if let Err(e) = rt.cache.swap_cycle() {
            errors.push(format!("swap on {}: {e}", inst.name()));
        }
        swap += micros(t);
    }
    let t = Instant::now();
    bed.tb.deployment.pump_replication(usize::MAX);
    s.add("maint.pump_us", micros(t));
    s.add("maint.merge_us", merge);
    s.add("maint.compact_us", compact);
    s.add("maint.flush_us", flush);
    s.add("maint.swap_us", swap);
    s.add("maint.tick_us", merge + compact + flush + swap);
    for e in errors {
        bed.problems.failed += 1;
        bed.problems.note(e);
    }
    started.elapsed().as_secs_f64()
}

/// Mean self time (µs) per span name: duration minus the part its
/// children cover.
fn span_self_us(records: &[SpanRecord]) -> HashMap<&'static str, f64> {
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for r in records {
        if let Some(parent) = r.parent {
            *child_us.entry(parent.0).or_default() += r.duration_us();
        }
    }
    let mut per_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for r in records {
        let own = r
            .duration_us()
            .saturating_sub(child_us.get(&r.span.0).copied().unwrap_or(0));
        per_name.entry(r.name).or_default().push(own as f64);
    }
    per_name
        .into_iter()
        .map(|(name, v)| (name, mean(&v)))
        .collect()
}

/// The traced run. Fills `m` with every per-layer metric except
/// `cache.result_mismatch` (see [`cache_mismatches`]).
pub fn run_traced(bed: &mut Bed, stream: &mut Stream, seconds: Duration, m: &mut Metrics) -> Run {
    let before = Counters::take(bed);
    let tracer = Tracer::new(
        Arc::clone(bed.tb.deployment.clock()),
        SamplerConfig::always(),
    );
    let mut s = Samples::default();
    // Per-layer numbers need no latency windows: the traced run is bound
    // by time and the digest prefix only.
    let mut run = Run::start(0);
    let mut digests = Vec::new();
    // Per request kind (read, write): latencies in plain and traced blocks.
    let mut plain: [Vec<f64>; 2] = Default::default();
    let mut traced: [Vec<f64>; 2] = Default::default();
    let mut seen = [0usize; 2];
    let mut records: Vec<SpanRecord> = Vec::new();
    let mut attached = false;
    let mut probe_s = 0.0;
    let started = Instant::now();
    while run.wants_more(started, seconds) {
        let block = Block::of(run.ops);
        let tracing = block == Block::Traced;
        if tracing != attached {
            attach(bed, tracing.then_some(&tracer));
            records.extend(tracer.drain());
            attached = tracing;
        }
        let op = stream.next_op(bed.tb.ctl.now());
        let sink = (run.ops < crate::DIGEST_OPS).then_some(&mut digests);
        let exec = bed.execute(&op, sink);
        run.record(&op, &exec);
        let kind = usize::from(matches!(op, Op::Write(_) | Op::WriteBatch(_)));
        match block {
            Block::Plain => plain[kind].push(exec.us),
            Block::Traced => {
                traced[kind].push(exec.us);
                if traced[kind].len().is_multiple_of(64) {
                    records.extend(tracer.drain());
                }
            }
            Block::Probed => {
                seen[kind] += 1;
                if seen[kind].is_multiple_of(PROBE_EVERY) {
                    let t = Instant::now();
                    match &op {
                        Op::Read(q) => probe_read(bed, q, &mut s),
                        Op::Write(w) => probe_write(bed, w, &mut s),
                        Op::ReadBatch(qs) => probe_read_batch(bed, qs, &mut s),
                        Op::WriteBatch(ws) => probe_write_batch(bed, ws, &mut s),
                    }
                    probe_s += t.elapsed().as_secs_f64();
                }
            }
        }
        if bed.count_ops(op.profile_ops()) {
            run.maint_s += maintain_probed(bed, &mut s);
        }
        run.close_segment();
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run.digest = crate::report::fold(&digests);
    attach(bed, None);
    records.extend(tracer.drain());
    let after = Counters::take(bed);
    for failure in s.failures.drain(..) {
        bed.problems.failed += 1;
        bed.problems.note(failure);
    }

    for role in ["read", "write"] {
        for (step, unit) in [
            ("req_encode_ns", "ns"),
            ("req_decode_ns", "ns"),
            ("resp_encode_ns", "ns"),
            ("resp_decode_ns", "ns"),
            ("req_bytes", "B"),
            ("resp_bytes", "B"),
            ("call_us", "us"),
        ] {
            let name = format!("rpc.{role}.{step}");
            m.put(&name, median(s.get(&name)), unit);
        }
        for name in [
            format!("client.{role}_self_us"),
            format!("server.{role}_us"),
        ] {
            m.put(&name, median(s.get(&name)), "us");
        }
        let name = format!("client.frames_per_{role}");
        m.put(&name, mean(s.get(&name)), "count");
    }
    for name in [
        "query.exec_us",
        "cache.hit_read_us",
        "persist.encode_us",
        "persist.decode_us",
        "kv.get_us",
    ] {
        m.put(name, median(s.get(name)), "us");
    }
    for (sample, unit) in [
        ("query.slices_visited", "count"),
        ("persist.profile_bytes", "B"),
    ] {
        m.put(
            &format!("{sample}_p50"),
            percentile(s.get(sample), 50.0),
            unit,
        );
        m.put(
            &format!("{sample}_p99"),
            percentile(s.get(sample), 99.0),
            unit,
        );
    }
    m.put("query.entries", mean(s.get("query.entries")), "count");
    for name in [
        "persist.encode",
        "persist.decode",
        "codec.compress",
        "codec.decompress",
    ] {
        m.put(&format!("{name}_mib_s"), s.mib_s(name), "MiB/s");
    }
    for step in ["tick", "merge", "compact", "flush", "swap", "pump"] {
        let name = format!("maint.{step}_us");
        m.put(&name, mean(s.get(&name)), "us");
    }
    for (name, delta, unit) in [
        ("client.retries", after.retries - before.retries, "count"),
        ("client.failures", after.failures - before.failures, "count"),
        ("server.sheds", after.sheds - before.sheds, "count"),
        (
            "cache.store_loads",
            after.store_loads - before.store_loads,
            "count",
        ),
        (
            "cache.coalesced_loads",
            after.coalesced_loads - before.coalesced_loads,
            "count",
        ),
        (
            "cache.evictions",
            after.evictions - before.evictions,
            "count",
        ),
        ("cache.flushes", after.flushes - before.flushes, "count"),
        (
            "cache.swap_skips",
            after.swap_skips - before.swap_skips,
            "count",
        ),
        (
            "persist.loads",
            after.persist_loads - before.persist_loads,
            "count",
        ),
        (
            "persist.saves",
            after.persist_saves - before.persist_saves,
            "count",
        ),
        (
            "persist.bytes_read",
            after.bytes_read - before.bytes_read,
            "B",
        ),
        (
            "persist.bytes_written",
            after.bytes_written - before.bytes_written,
            "B",
        ),
        (
            "kv.replicated_ops",
            after.replicated_ops - before.replicated_ops,
            "count",
        ),
        (
            "compact.tasks",
            after.compactions - before.compactions,
            "count",
        ),
    ] {
        m.put(name, delta as f64, unit);
    }
    m.put(
        "client.error_rate",
        bed.problems.failed as f64 / run.ops.max(1) as f64,
        "ratio",
    );
    m.put(
        "cache.hit_ratio",
        run.hits as f64 / run.reads.max(1) as f64,
        "ratio",
    );
    let memory: u64 = bed
        .instances
        .iter()
        .map(|i| i.table(TABLE).map_or(0, |rt| rt.cache.memory_bytes()))
        .sum();
    m.put("cache.memory_bytes", memory as f64, "B");
    let kv = bed.tb.deployment.kv.master().stats();
    m.put("kv.keys", kv.keys as f64, "count");
    m.put("kv.approx_bytes", kv.approx_bytes as f64, "B");
    m.put("maint.share", run.maint_s / (run.wall_s - probe_s), "ratio");
    // Tracing cost: request time in traced blocks over plain blocks, each
    // request kind's median weighted by its count.
    let weighted = |lat: &[Vec<f64>; 2]| -> f64 {
        (0..2)
            .map(|k| median(&lat[k]) * (plain[k].len() + traced[k].len()) as f64)
            .sum()
    };
    m.put(
        "trace.overhead_pct",
        (weighted(&traced) / weighted(&plain) - 1.0) * 100.0,
        "%",
    );
    let self_us = span_self_us(&records);
    for name in SPANS {
        let v = self_us.get(name).copied().unwrap_or(0.0);
        m.put(&format!("span.{name}_us"), v, "us");
    }
    println!(
        "traced: probes read={} write={} spans={} dropped_spans={}",
        s.get("client.read_self_us").len(),
        s.get("client.write_self_us").len(),
        records.len(),
        tracer.dropped_records()
    );
    run
}

/// Replay the stream prefix on a resident cache and on a 1/8 cache and
/// count the reads (single or sub-query) whose results differ. Reported,
/// not gated: cache residency must not change answers, and this counts
/// where it does.
pub fn cache_mismatches(shape: Shape, seed: u64) -> (usize, usize) {
    let replay = |budget: usize| {
        let (mut bed, mut stream) = setup(budget, shape, seed);
        let mut digests = Vec::new();
        let mut ops = 0;
        while ops < MISMATCH_OPS {
            let op = stream.next_op(bed.tb.ctl.now());
            bed.execute(&op, Some(&mut digests));
            ops += op.profile_ops();
            if bed.count_ops(op.profile_ops()) {
                bed.maintain();
            }
        }
        digests
    };
    let hot = replay(HOT_CACHE_BYTES);
    let cold = replay(COLD_CACHE_BYTES);
    let differ =
        hot.iter().zip(&cold).filter(|(a, b)| a != b).count() + hot.len().abs_diff(cold.len());
    (differ, hot.len())
}
