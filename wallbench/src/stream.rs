//! The seeded op streams the workloads replay.
//!
//! Every input comes from `ips_ingest::WorkloadGenerator`: Zipf 1.05 users,
//! the 60/25/15 top-k / filter / decay mix over 5 min – 30 day windows, and
//! a 10:1 read:write ratio. The same seed always yields the same stream, so
//! `feed_hot` and `feed_cold` see identical inputs.

use ips_bench::TABLE;
use ips_cluster::ProfileWrite;
use ips_core::query::ProfileQuery;
use ips_ingest::{WorkloadConfig, WorkloadGenerator};
use ips_types::Timestamp;

/// Users (profiles) in every workload.
pub const USERS: u64 = 10_000;
/// Candidates per ranking request.
pub const BATCH_QUERIES: usize = 128;
/// Impressions written back per ranking request: the generator's 10:1
/// read:write ratio, counted in profile ops.
pub const BATCH_WRITES: usize = 13;

/// Which request shapes the stream produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Single-profile `query` / `add_profiles`, mixed by the generator.
    Feed,
    /// Alternating `query_batch` of 128 and `add_batch` of 13.
    Rank,
}

/// One client request.
pub enum Op {
    Read(ProfileQuery),
    Write(ProfileWrite),
    ReadBatch(Vec<ProfileQuery>),
    WriteBatch(Vec<ProfileWrite>),
}

impl Op {
    /// Profile ops in this request (a batch of 128 counts 128).
    pub fn profile_ops(&self) -> usize {
        match self {
            Op::Read(_) | Op::Write(_) => 1,
            Op::ReadBatch(qs) => qs.len(),
            Op::WriteBatch(ws) => ws.len(),
        }
    }
}

/// The generator configuration for `seed`.
pub fn config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        table: TABLE,
        users: USERS,
        seed,
        ..WorkloadConfig::default()
    }
}

/// One single-feature profile write drawn from the generator.
pub fn draw_write(gen: &mut WorkloadGenerator, at: Timestamp) -> ProfileWrite {
    let rec = gen.instance(at);
    ProfileWrite {
        table: TABLE,
        profile: rec.user,
        at: rec.at,
        slot: rec.slot,
        action: rec.action_type,
        features: vec![(rec.feature, rec.counts)],
    }
}

/// An endless op stream.
pub struct Stream {
    gen: WorkloadGenerator,
    shape: Shape,
    next_is_batch_read: bool,
}

impl Stream {
    /// The run stream for `seed`. Its generator is seeded apart from the
    /// preload's, so the stream does not depend on the preload size.
    pub fn new(shape: Shape, seed: u64) -> Self {
        Self {
            gen: WorkloadGenerator::new(config(seed ^ 0x0005_EED0_F0B5)),
            shape,
            next_is_batch_read: true,
        }
    }

    pub fn next_op(&mut self, now: Timestamp) -> Op {
        match self.shape {
            Shape::Feed => {
                if self.gen.next_is_read() {
                    Op::Read(self.gen.query(now))
                } else {
                    Op::Write(draw_write(&mut self.gen, now))
                }
            }
            Shape::Rank => {
                let read = self.next_is_batch_read;
                self.next_is_batch_read = !read;
                if read {
                    Op::ReadBatch((0..BATCH_QUERIES).map(|_| self.gen.query(now)).collect())
                } else {
                    Op::WriteBatch(
                        (0..BATCH_WRITES)
                            .map(|_| draw_write(&mut self.gen, now))
                            .collect(),
                    )
                }
            }
        }
    }
}
