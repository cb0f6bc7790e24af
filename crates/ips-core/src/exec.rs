//! The process-wide fan-out executor: one fixed set of persistent helper
//! threads shared by every request-path fan-out (the client's all-region
//! writes and per-owner frames, the server's batch sub-queries).
//!
//! [`fan_out`] is *help-first*: the calling thread publishes the job, then
//! claims items itself through an atomic index, and idle helpers join the
//! same job and claim from the same index. A caller on a busy or pinned CPU
//! therefore never waits for a thread to start — it simply does its own
//! items — while blocking items (a store load, a wire call) still overlap
//! with whatever helpers are free. Results come back in input order.
//!
//! Guarantees:
//!
//! * `n ≤ 1` runs inline and never touches the pool;
//! * `fan_out` returns only after every helper that joined the job has left
//!   it, also when unwinding, so items may borrow the caller's stack;
//! * a panic in an item is re-raised in the caller (after those helpers
//!   left);
//! * the caller's ambient trace context is attached on the helpers, so
//!   spans opened inside items stay inside the request's trace.
//!
//! Nested fan-outs cannot deadlock: a caller only ever waits for helpers
//! that are *running* its items, never for an item to be picked up, so
//! every job completes on its own caller even when all helpers are busy.
//!
//! Items overlap only as far as idle helpers allow: with every helper
//! busy the caller runs its items one after another.
//!
//! The pool starts `MAX_BATCH_WORKERS − 1` = 7 helpers at its first use,
//! whatever the CPU count: blocking items (a store load, a wire call) need
//! threads to overlap, not CPUs, so one batch of blocking items runs 8
//! wide (the caller plus 7 helpers) on any machine. This is the one module
//! of the serving crates allowed to start threads on the request path
//! (`xtask` lint `request-path-spawn`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use ips_trace::{SpanContext, Tracer};
use parking_lot::{Condvar, Mutex};

/// Upper bound on the threads working one fan-out: the caller plus the
/// pool's helpers.
const MAX_BATCH_WORKERS: usize = 8;

/// Run `f(0..n)` across the caller and the pool's idle helpers; results in
/// input order.
pub fn fan_out<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run(None, n, f)
}

/// [`fan_out`] that also records, for every helper that joins, a
/// `queue_span` span (child of the caller's ambient span) covering the wait
/// from the job's publication to that helper's first claimed item. Items
/// the caller runs itself record no queue span.
pub fn fan_out_queued<T, F>(queue_span: &'static str, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run(Some(queue_span), n, f)
}

/// The pool's helper count (starts the pool if it is not running yet).
fn helpers() -> usize {
    *HELPERS.get_or_init(start_helpers)
}

fn run<T, F>(queue_span: Option<&'static str>, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    helpers();
    let body = Body {
        f,
        done: Mutex::new(Vec::with_capacity(n)),
    };
    let ambient = ips_trace::current();
    let queue = queue_span.and_then(|name| {
        ambient.as_ref().map(|(tracer, _)| QueueWait {
            name,
            published_us: tracer.clock().monotonic_micros(),
        })
    });
    let job = Arc::new(Job {
        task: Task {
            data: std::ptr::addr_of!(body).cast(),
            drain: drain::<T, F>,
        },
        n,
        next: AtomicUsize::new(0),
        state: Mutex::new(JobState::default()),
        left: Condvar::new(),
        ambient,
        queue,
    });
    POOL.publish(&job);
    #[cfg(test)]
    tests::PUBLISHED.with(|p| p.set(p.get() + 1));
    // From here until `membership` drops, helpers may hold `job.task`,
    // which points at `body`: the guard's drop (also on unwind) retracts
    // the job and waits them out before `body` can go away.
    let membership = Membership { job: &job };
    job.work(false);
    drop(membership);
    if let Some(payload) = job.state.lock().panic.take() {
        panic::resume_unwind(payload);
    }
    let mut done = body.done.into_inner();
    assert_eq!(done.len(), n, "every fan-out item ran exactly once");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, v)| v).collect()
}

/// The typed half of a job, on the caller's stack.
struct Body<T, F> {
    f: F,
    /// `(index, result)` pairs, appended once per worker.
    done: Mutex<Vec<(usize, T)>>,
}

/// Claim-and-run loop for one worker: the monomorphic entry point a
/// [`Task`] erases.
///
/// # Safety
///
/// `data` must point to a live `Body<T, F>`.
unsafe fn drain<T, F>(data: *const (), job: &Job, wait: &mut Option<&QueueWait>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // SAFETY: the caller of `drain` guarantees `data` is a live `Body<T, F>`.
    let body = unsafe { &*data.cast::<Body<T, F>>() };
    let mut local = Vec::new();
    while let Some(i) = job.claim(wait) {
        local.push((i, (body.f)(i)));
    }
    if !local.is_empty() {
        body.done.lock().append(&mut local);
    }
}

/// A type- and lifetime-erased borrow of the caller's [`Body`].
struct Task {
    data: *const (),
    drain: unsafe fn(*const (), &Job, &mut Option<&QueueWait>),
}

// SAFETY: `data` is a `&Body<T, F>` with `F: Sync` (shared calls of `f`
// from several threads are allowed) and `T: Send` (results move to the
// caller through `done`, a mutex); `drain` is a plain fn pointer. The
// borrow is only dereferenced by a worker between joining the job and
// leaving it, and `run` keeps the `Body` alive until the job is retracted
// (no new joins) and every joined helper has left.
unsafe impl Send for Task {}
// SAFETY: as for `Send`: workers only ever share `&Body<T, F>`.
unsafe impl Sync for Task {}

/// A published fan-out.
struct Job {
    task: Task,
    n: usize,
    /// Next unclaimed item; `≥ n` once all are claimed (or after a panic).
    next: AtomicUsize,
    state: Mutex<JobState>,
    /// Signalled when the last joined helper leaves.
    left: Condvar,
    ambient: Option<(Arc<Tracer>, SpanContext)>,
    queue: Option<QueueWait>,
}

#[derive(Default)]
struct JobState {
    /// Helpers that joined and have not left. Grows only while the job is
    /// queued, under the pool lock.
    joined: usize,
    /// The first panic payload raised by an item.
    panic: Option<Box<dyn Any + Send>>,
}

struct QueueWait {
    name: &'static str,
    published_us: u64,
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Claim the next item. A helper's first claim closes its queue wait.
    fn claim(&self, wait: &mut Option<&QueueWait>) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            return None;
        }
        if let (Some(w), Some((tracer, ctx))) = (wait.take(), &self.ambient) {
            tracer.record_since(w.name, *ctx, w.published_us);
        }
        Some(i)
    }

    /// Claim and run items until none are left. A panicking item stops
    /// further claims; its payload is kept for the caller.
    fn work(&self, helper: bool) {
        let _trace = self
            .ambient
            .as_ref()
            .filter(|_| helper)
            .map(|(tracer, ctx)| tracer.attach(*ctx));
        let mut wait = self.queue.as_ref().filter(|_| helper);
        // SAFETY: `data` points to the caller's `Body`, alive while this
        // worker is in the job (see `Task`).
        let ran = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            (self.task.drain)(self.task.data, self, &mut wait)
        }));
        if let Err(payload) = ran {
            self.next.fetch_max(self.n, Ordering::Relaxed);
            self.state.lock().panic.get_or_insert(payload);
        }
    }

    fn leave(&self) {
        let mut state = self.state.lock();
        state.joined -= 1;
        if state.joined == 0 {
            self.left.notify_all();
        }
    }
}

/// The caller's side of a published job: dropping it retracts the job and
/// blocks until every helper that joined has left.
struct Membership<'a> {
    job: &'a Arc<Job>,
}

impl Drop for Membership<'_> {
    fn drop(&mut self) {
        POOL.retract(self.job);
        let mut state = self.job.state.lock();
        while state.joined > 0 {
            self.job.left.wait(&mut state);
        }
    }
}

struct Pool {
    queue: Mutex<Queue>,
    work: Condvar,
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    /// Helpers parked on `work` and not yet signalled.
    idle: usize,
    /// Signals sent to parked helpers and not yet consumed.
    signals: usize,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        idle: 0,
        signals: 0,
    }),
    work: Condvar::new(),
};

static HELPERS: OnceLock<usize> = OnceLock::new();

/// Start the helpers; returns how many the OS granted.
fn start_helpers() -> usize {
    // Helpers live as long as the process; their handles are not joined.
    (0..MAX_BATCH_WORKERS - 1)
        .filter(|k| {
            std::thread::Builder::new()
                .name(format!("ips-exec-{k}"))
                .spawn(|| POOL.serve())
                .is_ok()
        })
        .count()
}

impl Pool {
    fn publish(&self, job: &Arc<Job>) {
        let wake = {
            let mut q = self.queue.lock();
            q.jobs.push_back(Arc::clone(job));
            let wake = q.idle.min(job.n - 1);
            q.idle -= wake;
            q.signals += wake;
            wake
        };
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    /// Take `job` off the queue: no helper can join it afterwards.
    fn retract(&self, job: &Arc<Job>) {
        self.queue.lock().jobs.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// A helper's life: join the oldest job with unclaimed items, work it,
    /// leave, repeat; park while there is none.
    fn serve(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    q.jobs.retain(|j| j.has_unclaimed());
                    if let Some(job) = q.jobs.front() {
                        job.state.lock().joined += 1;
                        break Arc::clone(job);
                    }
                    q.idle += 1;
                    self.work.wait(&mut q);
                    // A signalled helper was already taken off `idle` by
                    // the publisher; a spurious wake-up takes itself off.
                    if q.signals > 0 {
                        q.signals -= 1;
                    } else {
                        q.idle -= 1;
                    }
                }
            };
            job.work(true);
            job.leave();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    use ips_trace::SamplerConfig;
    use ips_types::clock::system_clock;
    use proptest::prelude::*;

    thread_local! {
        /// Jobs this thread published to the pool.
        pub(super) static PUBLISHED: Cell<u64> = const { Cell::new(0) };
    }

    /// Spin (yielding) until `flag` is set; fails the test after 30 s.
    fn await_flag(flag: &AtomicBool, what: &str) {
        let started = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            thread::yield_now();
        }
    }

    /// Run `n` items where the caller's items wait until an item started
    /// on a helper, so a helper is known to have joined.
    fn with_helper_item<T: Send + Default>(
        n: usize,
        on_helper: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let caller = thread::current().id();
        let helper_ran = AtomicBool::new(false);
        fan_out(n, |i| {
            if thread::current().id() == caller {
                await_flag(&helper_ran, "a helper to join");
                T::default()
            } else {
                helper_ran.store(true, Ordering::SeqCst);
                on_helper(i)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn results_come_back_in_input_order(salt in any::<u64>()) {
            for n in 0..=64usize {
                let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left(i as u32 % 64);
                prop_assert_eq!(fan_out(n, f), (0..n).map(f).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn at_most_one_item_runs_inline_without_the_pool() {
        let me = thread::current().id();
        let before = PUBLISHED.with(Cell::get);
        assert!(fan_out(0, |_| thread::current().id()).is_empty());
        assert_eq!(fan_out(1, |_| thread::current().id()), vec![me]);
        assert_eq!(PUBLISHED.with(Cell::get), before);
        fan_out(2, |_| ());
        assert_eq!(PUBLISHED.with(Cell::get), before + 1);
    }

    #[test]
    fn pool_runs_a_fixed_seven_helpers() {
        assert_eq!(helpers(), MAX_BATCH_WORKERS - 1);
    }

    #[test]
    fn panic_is_reraised_only_after_helpers_left() {
        let caller = thread::current().id();
        let helper_in = AtomicBool::new(false);
        let caller_panicking = AtomicBool::new(false);
        let helper_out = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, |_| {
                if thread::current().id() == caller {
                    await_flag(&helper_in, "a helper to join");
                    caller_panicking.store(true, Ordering::SeqCst);
                    panic!("boom");
                }
                helper_in.store(true, Ordering::SeqCst);
                await_flag(&caller_panicking, "the caller's panic");
                // Stay in the job well past the caller's panic: a caller
                // that did not wait would observe `helper_out` unset.
                let until = Instant::now() + Duration::from_millis(50);
                while Instant::now() < until {
                    thread::yield_now();
                }
                helper_out.store(true, Ordering::SeqCst);
            })
        }));
        let payload = outcome.expect_err("the item's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert!(helper_out.load(Ordering::SeqCst), "helper still in the job");
    }

    #[test]
    fn panic_on_a_helper_reaches_the_caller() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            with_helper_item(2, |_| -> u8 { panic!("helper boom") })
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper boom"));
        // The pool survives a panicking item.
        assert_eq!(fan_out(3, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn nesting_deeper_than_the_helper_count_completes() {
        fn nest(depth: usize) -> usize {
            if depth == 0 {
                return 1;
            }
            fan_out(3, |_| nest(depth - 1)).into_iter().sum()
        }
        let depth = helpers() + 3;
        assert_eq!(nest(depth), 3usize.pow(depth as u32));
    }

    #[test]
    fn helper_items_see_the_callers_trace_context() {
        let tracer = Tracer::new(system_clock(), SamplerConfig::always());
        let root = tracer.root_span("root", 0);
        let root_ctx = root.context();
        let seen: Vec<Option<(Option<SpanContext>, ThreadId)>> = with_helper_item(2, |_| {
            Some((
                ips_trace::current().map(|(_, ctx)| ctx),
                thread::current().id(),
            ))
        });
        let (ctx, thread) = seen.into_iter().flatten().next().expect("a helper item");
        assert_ne!(thread, thread::current().id());
        assert_eq!(ctx, root_ctx);
        drop(root);
    }

    #[test]
    fn queue_span_covers_helper_claims_only() {
        let tracer = Tracer::new(system_clock(), SamplerConfig::always());
        let root = tracer.root_span("root", 0);
        let root_ctx = root.context().expect("sampled root");
        // Caller-only: one item never publishes, so no queue span.
        fan_out_queued("exec_queue", 1, |_| ());
        let caller = thread::current().id();
        let helper_ran = AtomicBool::new(false);
        fan_out_queued("exec_queue", 2, |_| {
            if thread::current().id() == caller {
                await_flag(&helper_ran, "a helper to join");
            } else {
                helper_ran.store(true, Ordering::SeqCst);
            }
        });
        drop(root);
        let queue: Vec<_> = tracer
            .drain()
            .into_iter()
            .filter(|r| r.name == "exec_queue")
            .collect();
        assert_eq!(queue.len(), 1, "one helper joined, one queue span");
        assert_eq!(queue[0].parent, Some(root_ctx.span));
        assert!(queue[0].end_us >= queue[0].start_us);
    }
}
