//! GCache: the write-back compute cache (§III-C).
//!
//! All profile data served online lives here, in two sharded structures
//! per the paper:
//!
//! * **LRU shards** (Fig 7) — each is one lock over a keyed LRU map of the
//!   resident entries plus the shard's in-flight loads. Swap threads evict
//!   cold entries from the largest shard when memory exceeds the high
//!   watermark, skipping entries they cannot `try_lock` (Fig 8). Eviction
//!   writes a dirty entry back and removes it from its shard under the
//!   entry's lock (lock order entry → shard), flagging it `evicted` so a
//!   racing writer retries on the live entry;
//! * a **sharded dirty list** (Fig 9) — flush threads persist updated
//!   profiles to the key-value store; the flush-thread count is a multiple
//!   of the dirty-shard count so every shard has dedicated threads.

pub mod gcache;
pub mod lru;

pub use gcache::{CacheStats, ExportBatch, ExportedEntry, GCache, ImportReport, ReadCost};
pub use lru::LruList;
