//! Wall-clock serving benchmark for the whole ips-rs stack.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload feed_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One closed-loop caller drives the standard two-region, two-instance
//! testbed with `NetworkModel::zero()` and `KvLatencyModel::zero()`, so every
//! microsecond reported is code running on this machine. Maintenance runs
//! inline at a fixed op cadence, which makes flush and compaction timing,
//! and so every count, repeat from run to run.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! seed with per-layer replay probes and prints the per-layer metrics. The
//! last stdout line is one JSON object; the exit code is non-zero when any
//! correctness check fails. See `README.md` for the workloads, the metric
//! definitions and which layer metric should move which end-to-end metric.

mod bed;
mod check;
mod probe;
mod report;
mod stream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ips_types::Clock;

use bed::{setup, Bed, COLD_CACHE_BYTES, HOT_CACHE_BYTES};
use report::{median, windowed, Metrics};
use stream::{Op, Shape, Stream};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Profile ops every run completes, whatever `--seconds` says: the result
/// digest covers exactly this prefix, so it repeats across runs of a seed.
pub const DIGEST_OPS: usize = 20_000;
/// Latency percentiles are taken over windows of this many consecutive
/// requests of one kind (so p99 has twenty samples beyond it) and reported
/// as the median over windows; every run fills at least one window per kind.
pub const WINDOW: usize = 2_000;
/// Throughput is taken over segments of this many profile ops (a whole
/// number of maintenance rounds) and reported as the median over segments.
pub const SEGMENT_OPS: usize = bed::TICK_OPS;

/// One workload: its op shape and per-instance cache budget.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub cache_bytes: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "feed_hot",
        shape: Shape::Feed,
        cache_bytes: HOT_CACHE_BYTES,
    },
    Workload {
        name: "feed_cold",
        shape: Shape::Feed,
        cache_bytes: COLD_CACHE_BYTES,
    },
    Workload {
        name: "rank_batch",
        shape: Shape::Rank,
        cache_bytes: HOT_CACHE_BYTES,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one timed run observed.
pub struct Run {
    pub reads_us: Vec<f64>,
    pub writes_us: Vec<f64>,
    pub ops: usize,
    pub wall_s: f64,
    pub maint_s: f64,
    pub hits: u64,
    pub reads: u64,
    pub digest: u64,
    /// Profile ops per second of each closed segment.
    pub segment_rates: Vec<f64>,
    segment_start: (usize, Instant),
    /// Requests of each kind the run must complete.
    min_requests: usize,
}

impl Run {
    pub fn start(min_requests: usize) -> Self {
        Self {
            reads_us: Vec::new(),
            writes_us: Vec::new(),
            ops: 0,
            wall_s: 0.0,
            maint_s: 0.0,
            hits: 0,
            reads: 0,
            digest: 0,
            segment_rates: Vec::new(),
            segment_start: (0, Instant::now()),
            min_requests,
        }
    }

    /// Keep going until the time is up and every minimum is met.
    pub fn wants_more(&self, started: Instant, seconds: Duration) -> bool {
        started.elapsed() < seconds
            || self.ops < DIGEST_OPS
            || self.reads_us.len() < self.min_requests
            || self.writes_us.len() < self.min_requests
            || self.segment_rates.is_empty()
    }

    /// Close the throughput segment once it holds `SEGMENT_OPS` profile
    /// ops; call after any maintenance the last op triggered.
    pub fn close_segment(&mut self) {
        let (ops, at) = self.segment_start;
        if self.ops - ops >= SEGMENT_OPS {
            self.segment_rates
                .push((self.ops - ops) as f64 / at.elapsed().as_secs_f64());
            self.segment_start = (self.ops, Instant::now());
        }
    }

    /// Record one executed request.
    pub fn record(&mut self, op: &Op, exec: &bed::Exec) {
        match op {
            Op::Read(_) | Op::ReadBatch(_) => self.reads_us.push(exec.us),
            Op::Write(_) | Op::WriteBatch(_) => self.writes_us.push(exec.us),
        }
        self.hits += exec.hits;
        self.reads += exec.reads;
        self.ops += op.profile_ops();
    }
}

/// The untraced timed run: requests back to back, inline maintenance.
fn run_plain(bed: &mut Bed, stream: &mut Stream, seconds: Duration) -> Run {
    let mut run = Run::start(WINDOW);
    let mut digests = Vec::new();
    let started = Instant::now();
    while run.wants_more(started, seconds) {
        let op = stream.next_op(bed.tb.ctl.now());
        let sink = (run.ops < DIGEST_OPS).then_some(&mut digests);
        let exec = bed.execute(&op, sink);
        run.record(&op, &exec);
        if bed.count_ops(op.profile_ops()) {
            let t = Instant::now();
            bed.maintain();
            run.maint_s += t.elapsed().as_secs_f64();
        }
        run.close_segment();
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run.digest = report::fold(&digests);
    run
}

/// Pin the calling thread, and so every thread the run spawns, to the first
/// CPU this process may use. On a small shared VM, request-path threads
/// woken on another vCPU made latencies drift by several times between
/// runs; on one CPU they repeat. Returns the CPU, or `None` if the kernel
/// refused.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // glibc's `cpu_set_t` is 1024 bits.
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 8).find(|&i| mask[i / 8] & (1 << (i % 8)) != 0)?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a live, readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Reset the kernel's peak-RSS mark, so `VmHWM` covers only what follows.
/// True if the kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the output checks and print what they found. True when correct.
fn check_outputs(bed: &mut Bed, seed: u64) -> bool {
    let compared = check::batch_matches_single(bed, seed);
    let (checked, mismatched) = check::writes_conserved(bed);
    let p = &bed.problems;
    println!(
        "checks: batch-vs-single candidates={compared}; conservation (profile, slot) pairs={checked} mismatched={mismatched}; failed ops={}; modeled breakdowns={}; wrong results={}",
        p.failed, p.modeled, p.wrong
    );
    for note in &p.notes {
        eprintln!("wallbench: {note}");
    }
    p.failed == 0 && p.modeled == 0 && p.wrong == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!("usage: wallbench --workload <feed_hot|feed_cold|rank_batch> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cpu = pin_to_one_cpu().map_or("unpinned".to_string(), |c| c.to_string());
    println!(
        "wallbench workload={} seed={} seconds={} trace={} cpu={cpu} users={} cache_bytes_per_instance={} regions=2x2 network=zero storage=zero tick_every={}ops",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stream::USERS,
        w.cache_bytes,
        bed::TICK_OPS
    );

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(w.cache_bytes, w.shape, args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut bed, mut stream) = built.expect("at least one set-up");
    let seconds = Duration::from_secs(args.seconds);
    if !reset_peak_rss() {
        println!("peak RSS mark not reset: peak_rss_mb includes set-up");
    }

    let mut metrics = Metrics::default();
    let run = if args.trace {
        probe::run_traced(&mut bed, &mut stream, seconds, &mut metrics)
    } else {
        run_plain(&mut bed, &mut stream, seconds)
    };
    println!(
        "run: profile_ops={} reads={} writes={} read_windows={} write_windows={} segments={} wall_s={:.3} maintenance_s={:.3} read_hit_ratio={:.4} digest(first {DIGEST_OPS} ops)={:016x}",
        run.ops,
        run.reads_us.len(),
        run.writes_us.len(),
        run.reads_us.len() / WINDOW,
        run.writes_us.len() / WINDOW,
        run.segment_rates.len(),
        run.wall_s,
        run.maint_s,
        run.hits as f64 / run.reads.max(1) as f64,
        run.digest
    );
    if !args.trace {
        let rss = peak_rss_mb();
        let kv_bytes = bed.tb.deployment.kv.master().stats().approx_bytes;
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("read_p50_us", windowed(&run.reads_us, 50.0), "us");
        metrics.put("read_p99_us", windowed(&run.reads_us, 99.0), "us");
        metrics.put("write_p50_us", windowed(&run.writes_us, 50.0), "us");
        metrics.put("write_p99_us", windowed(&run.writes_us, 99.0), "us");
        metrics.put("throughput_ops_s", median(&run.segment_rates), "ops/s");
        metrics.put(
            "kv_bytes_per_write",
            kv_bytes as f64 / bed.acked_writes.max(1) as f64,
            "B",
        );
        metrics.put("peak_rss_mb", rss, "MiB");
    }

    let correct = check_outputs(&mut bed, args.seed);
    let failed = bed.problems.failed;
    drop(bed);
    if args.trace {
        let (differ, reads) = probe::cache_mismatches(w.shape, args.seed);
        println!(
            "cache transparency: {differ} of {reads} reads differ between the resident and the 1/8 cache"
        );
        metrics.put("cache.result_mismatch", differ as f64, "count");
    }
    println!("{}", metrics.to_json(correct, run.ops as u64, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
