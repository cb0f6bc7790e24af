//! Shard-handoff snapshot export/import (scale events).

use ips_types::{ProfileId, Result, TableId};

use crate::cache::{ExportBatch, ExportedEntry, ImportReport};

use super::pipeline::{PipelineRequest, RequestContext, RequestKind};
use super::IpsInstance;

/// Import progress for one handoff stream.
#[derive(Clone, Copy, Default)]
pub(crate) struct SnapshotProgress {
    /// The next chunk sequence number this instance will apply. Chunks
    /// below it are duplicates (already applied, ACKed idempotently);
    /// chunks above it are gaps (refused — the source resumes from here).
    pub(crate) next_seq: u64,
    pub(crate) report: ImportReport,
}

/// The ACK an instance returns for one applied (or replayed) snapshot
/// chunk; mirrors [`SnapshotProgress`] so the source can resume mid-stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotImportAck {
    /// Resume cursor: the first chunk seq the instance has not applied.
    pub next_seq: u64,
    /// Cumulative accounting across the whole handoff stream so far.
    pub report: ImportReport,
}

impl IpsInstance {
    /// Export this instance's hottest resident entries for the moving
    /// keyspace `filter` (shard handoff source side). Staged isolated
    /// writes are merged first so the snapshot carries them, and dirty
    /// entries are flushed by the cache walk — the exported generations are
    /// the store's head at export time.
    pub fn export_hot(
        &self,
        table: TableId,
        filter: impl Fn(ProfileId) -> bool,
        max_entries: usize,
        max_bytes: u64,
    ) -> Result<ExportBatch> {
        self.check_alive()?;
        let rt = self.table(table)?;
        rt.merge_write_table()?;
        rt.cache.export_hot(filter, max_entries, max_bytes)
    }

    /// Apply one snapshot chunk streamed from a handoff source (target
    /// side). Chunks must arrive in sequence per handoff id: a replayed
    /// chunk is ACKed without re-applying, a gapped chunk is refused by
    /// returning the resume cursor unchanged — either way the source learns
    /// `next_seq` and resumes from the right offset. `last` tears down the
    /// progress slot once the stream is fully applied.
    ///
    /// The pipeline sheds a chunk whose deadline in `ctx` already expired
    /// (internal traffic carries no quota, so only the deadline stage
    /// applies).
    pub fn import_snapshot_chunk_ctx(
        &self,
        ctx: &RequestContext,
        table: TableId,
        handoff: u64,
        seq: u64,
        last: bool,
        entries: Vec<ExportedEntry>,
    ) -> Result<SnapshotImportAck> {
        let inst = self;
        inst.check_alive()?;
        let _guards = inst.pipeline().admit(
            inst,
            &PipelineRequest {
                ctx,
                kind: RequestKind::Snapshot,
                units: entries.len().max(1),
            },
        )?;
        let rt = inst.table(table)?;
        let expected = {
            let mut snaps = inst.snapshots.lock();
            snaps.entry(handoff).or_default().next_seq
        };
        if seq != expected {
            let snaps = inst.snapshots.lock();
            let prog = snaps.get(&handoff).copied().unwrap_or_default();
            return Ok(SnapshotImportAck {
                next_seq: prog.next_seq,
                report: prog.report,
            });
        }
        // The generation probes inside import run store round trips; do the
        // work outside the progress lock (the source streams sequentially,
        // so per-handoff chunk application does not race itself).
        let report = rt.cache.import_entries(entries)?;
        let mut snaps = inst.snapshots.lock();
        let prog = snaps.entry(handoff).or_default();
        prog.next_seq = prog.next_seq.max(seq + 1);
        prog.report.absorb(report);
        let ack = SnapshotImportAck {
            next_seq: prog.next_seq,
            report: prog.report,
        };
        if last && ack.next_seq == seq + 1 {
            snaps.remove(&handoff);
        }
        Ok(ack)
    }
}
