//! Per-table runtime state and the instance's background machinery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ips_metrics::{Counter, Histogram};
use ips_types::{ProfileId, Result, SharedClock, TableConfig};

use crate::cache::gcache::BackgroundThreads;
use crate::cache::GCache;
use crate::compact::compactor::needs_compaction;
use crate::compact::scheduler::{CompactionScheduler, CompactionTask, WorkerPool};
use crate::hotconfig::HotConfig;
use crate::isolation::{apply_buffered, WriteTable};

use super::{DynStore, IpsInstance};

/// Per-table metrics surfaced to harnesses.
#[derive(Default)]
pub struct TableMetrics {
    pub queries: Counter,
    pub writes: Counter,
    pub query_latency_us: Histogram,
    pub write_latency_us: Histogram,
    /// Batched query calls served (one per `query_batch` touching the table).
    pub batch_queries: Counter,
    /// Sub-queries per batch call, per table.
    pub batch_size: Histogram,
}

/// Everything one table needs at runtime.
pub struct TableRuntime {
    pub config: HotConfig<TableConfig>,
    pub cache: Arc<GCache<DynStore>>,
    pub write_table: WriteTable,
    pub scheduler: Arc<CompactionScheduler>,
    pub metrics: TableMetrics,
    pub(crate) clock: SharedClock,
}

impl TableRuntime {
    /// Fold the staging write table into the main table (the periodic merge
    /// from §III-F). Returns writes merged.
    pub fn merge_write_table(&self) -> Result<usize> {
        let cfg = self.config.load();
        let head_granularity = cfg
            .compaction
            .time_dimension
            .bands
            .first()
            .map(|b| b.granularity)
            .unwrap_or(ips_types::DurationMs::from_secs(1));
        let drained = self.write_table.drain();
        let mut merged = 0;
        for (pid, writes) in drained {
            merged += writes.len();
            self.cache.write(pid, |profile| {
                apply_buffered(profile, &writes, cfg.aggregate, head_granularity);
            })?;
            self.maybe_schedule_compaction(pid)?;
        }
        Ok(merged)
    }

    pub(crate) fn maybe_schedule_compaction(&self, pid: ProfileId) -> Result<()> {
        let cfg = self.config.load();
        let now = self.clock.now();
        let decision = self.cache.read(pid, |profile| {
            needs_compaction(profile, &cfg.compaction, now)
        })?;
        if let Some((Some(full), _)) = decision {
            self.scheduler
                .schedule(CompactionTask { profile: pid, full });
        }
        Ok(())
    }
}

impl IpsInstance {
    /// One deterministic maintenance tick (simulated-time experiments):
    /// merge write tables, run pending compactions, flush dirty shards, run
    /// a swap cycle. Live deployments use [`IpsInstance::spawn_background`]
    /// instead.
    pub fn tick(&self) -> Result<()> {
        for rt in self.table_runtimes() {
            rt.merge_write_table()?;
            rt.scheduler.run_pending(64);
            let cfg = rt.config.load();
            for shard in 0..cfg.cache.dirty_shards {
                rt.cache.flush_shard(shard, 256)?;
            }
            rt.cache.swap_cycle()?;
        }
        Ok(())
    }

    /// Spawn all background machinery: cache swap/flush threads, compaction
    /// workers and the periodic write-table merge. Dropping the returned
    /// guard stops everything.
    pub fn spawn_background(self: &Arc<Self>) -> InstanceBackground {
        let tables = self.table_runtimes();
        let mut cache_threads = Vec::new();
        let mut worker_pools = Vec::new();
        for rt in &tables {
            cache_threads.push(rt.cache.spawn_background());
            let cfg = rt.config.load();
            worker_pools.push(
                rt.scheduler
                    .spawn_workers(cfg.compaction.async_pool_threads),
            );
        }
        // Write-table merge thread.
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        // lint: allow(request-path-spawn, reason = "the runtime loop starts once with the instance, not per request")
        let merge_handle = std::thread::Builder::new()
            .name("ips-wt-merge".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    let mut min_interval = std::time::Duration::from_millis(200);
                    for rt in &tables {
                        let _ = rt.merge_write_table();
                        let iv = std::time::Duration::from_millis(
                            rt.write_table.merge_interval().as_millis().max(10),
                        );
                        min_interval = min_interval.min(iv);
                    }
                    std::thread::sleep(min_interval);
                }
            })
            // lint: allow(unwrap, reason = "thread spawn fails only on OS exhaustion at instance startup, before serving")
            .expect("spawn merge thread");
        InstanceBackground {
            _cache_threads: cache_threads,
            _worker_pools: worker_pools,
            stop,
            merge_handle: Some(merge_handle),
        }
    }

    /// Flush every table's dirty data to the store (graceful shutdown).
    pub fn flush_all(&self) -> Result<usize> {
        let mut total = 0;
        for rt in self.table_runtimes() {
            rt.merge_write_table()?;
            total += rt.cache.flush_all()?;
        }
        Ok(total)
    }

    /// Begin refusing requests, then flush.
    pub fn shutdown(&self) -> Result<usize> {
        self.begin_shutdown();
        self.flush_all()
    }
}

/// Background machinery guard; stops everything on drop.
pub struct InstanceBackground {
    _cache_threads: Vec<BackgroundThreads>,
    _worker_pools: Vec<WorkerPool>,
    stop: Arc<AtomicBool>,
    merge_handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for InstanceBackground {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.merge_handle.take() {
            let _ = h.join();
        }
    }
}
