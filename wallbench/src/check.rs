//! Output checks run outside the timed region: batched reads agree with
//! single reads, and every written count is readable back.

use ips_bench::TABLE;
use ips_core::query::{FilterPredicate, ProfileQuery};
use ips_ingest::WorkloadGenerator;
use ips_types::{Clock, ProfileId, SlotId, TimeRange};

use crate::bed::{digest, Bed, CALLER};
use crate::stream::{self, BATCH_QUERIES};

/// Batches compared sub-query by sub-query against single queries.
const CROSS_CHECK_BATCHES: usize = 4;

/// `query_batch` must return, for every candidate, exactly what
/// `client.query` returns for it. Returns the candidates compared.
pub fn batch_matches_single(bed: &mut Bed, seed: u64) -> usize {
    let mut gen = WorkloadGenerator::new(stream::config(seed ^ 0x00C0_FFEE));
    let mut compared = 0;
    for _ in 0..CROSS_CHECK_BATCHES {
        let now = bed.tb.ctl.now();
        let queries: Vec<ProfileQuery> = (0..BATCH_QUERIES).map(|_| gen.query(now)).collect();
        let batch = match bed.tb.client.query_batch(CALLER, &queries) {
            Ok(outcome) => outcome.results,
            Err(e) => {
                bed.problems.failed += queries.len() as u64;
                bed.problems
                    .note(format!("cross-check query_batch failed: {e}"));
                continue;
            }
        };
        for (q, sub) in queries.iter().zip(batch) {
            let single = bed.tb.client.query(CALLER, q);
            compared += 1;
            match (sub, single) {
                (Ok(b), Ok((s, _))) if digest(&b) == digest(&s) => {}
                (Ok(_), Ok(_)) => {
                    bed.problems.wrong += 1;
                    bed.problems.note(format!(
                        "query_batch result differs from query for profile {}",
                        q.profile.raw()
                    ));
                }
                (Err(e), _) | (_, Err(e)) => {
                    bed.problems.failed += 1;
                    bed.problems.note(format!("cross-check read failed: {e}"));
                }
            }
        }
    }
    compared
}

/// Write conservation: for every (profile, slot) whose distinct features
/// stay within the shrink budget, the all-time query sums equal the counts
/// the benchmark wrote. Returns (checked, mismatched).
pub fn writes_conserved(bed: &mut Bed) -> (usize, usize) {
    let retain = bed.instances[0]
        .table(TABLE)
        .expect("bench table exists")
        .config
        .load()
        .compaction
        .shrink
        .default_retain;
    let mut keys: Vec<(ProfileId, SlotId)> = bed
        .tally
        .iter()
        .filter(|(_, t)| t.features.len() <= retain)
        .map(|(k, _)| *k)
        .collect();
    keys.sort_unstable();
    let (mut checked, mut mismatched) = (0, 0);
    for (pid, slot) in keys {
        let q = ProfileQuery::filter(
            TABLE,
            pid,
            slot,
            TimeRange::last_days(365),
            FilterPredicate::All,
        );
        let result = bed.tb.client.query(CALLER, &q);
        checked += 1;
        let want = &bed.tally[&(pid, slot)].counts;
        match result {
            Ok((r, _)) => {
                let mut got = vec![0i64; want.len()];
                for e in &r.entries {
                    for (acc, v) in got.iter_mut().zip(e.counts.as_slice()) {
                        *acc += v;
                    }
                }
                if &got != want {
                    mismatched += 1;
                    bed.problems.wrong += 1;
                    bed.problems.note(format!(
                        "profile {} slot {}: wrote {want:?}, read back {got:?}",
                        pid.raw(),
                        slot.raw()
                    ));
                }
            }
            Err(e) => {
                bed.problems.failed += 1;
                bed.problems.note(format!("conservation read failed: {e}"));
            }
        }
    }
    (checked, mismatched)
}
