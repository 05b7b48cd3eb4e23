//! The **shared morsel scheduler** — one process-wide worker pool that
//! every in-flight query submits its chunk tasks to.
//!
//! Before this module, each parallel section (`vm` pipeline segments,
//! partitioned aggregation morsels, radix join build, chunked probe)
//! spawned its own scoped OS threads: N concurrent queries at
//! `workers = W` oversubscribed the host with up to `N × W` threads. Now
//! a fixed pool of [`pool_threads`] workers serves *all* queries:
//!
//! * **Submission**: a parallel section enqueues one `Section` holding
//!   its task closure and task count; idle pool workers pick sections up
//!   and claim task indices from an atomic cursor.
//! * **Admission cap**: a section admits at most `workers − 1` pool
//!   helpers (its own caller is the `+ 1`), so a query configured with
//!   `workers = W` never runs wider than `W` even when the pool is idle —
//!   and N concurrent queries *share* the pool instead of multiplying it.
//! * **Caller participation**: the submitting thread always executes
//!   tasks from its own section. This guarantees progress with zero free
//!   pool workers (and makes nested sections deadlock-free: a worker
//!   running a task that opens an inner section drives that inner section
//!   itself).
//!
//! **Determinism is untouched.** The scheduler only decides *which thread*
//! runs task `i`; the task set, per-task inputs, and result order are
//! fixed by the caller (results land in per-index slots). Every
//! determinism contract from the per-query era — fixed morsel geometry,
//! partial merges in morsel order, stable sort merges — holds verbatim at
//! any pool width, which `tests/serve_concurrency.rs` asserts under
//! genuinely concurrent load.
//!
//! Pool size defaults to [`crate::default_workers`] and can be pinned
//! with `TQP_POOL_THREADS` (read once per process).
//!
//! ## Cancellation
//!
//! A [`CancelToken`] carries an optional deadline and a manual cancel
//! flag (plus an optional parent token — a per-query token chained to a
//! per-connection one cancels when *either* trips). The token active on
//! the submitting thread (installed by [`with_token`]) is captured into
//! every section it opens, and pool helpers re-install it while running
//! that section's tasks, so nested sections and explicit
//! [`check_cancelled`] calls deep inside task bodies all observe it.
//! Cancellation aborts by unwinding with a [`Cancelled`] payload: the
//! scheduler stops dispatching the section's remaining task bodies, the
//! payload propagates to the submitting thread via the same
//! `resume_unwind` path real task panics take, and the top of the stack
//! (`tqp-core`) converts it into a retryable `TqpError::Execution`. Pool
//! worker threads are never poisoned — every task body already runs
//! under `catch_unwind`.
//!
//! ## PREDICT attribution
//!
//! A [`PredictTally`] rides the same way: the VM installs one per program
//! op ([`with_predict_tally`]) while tracing, sections capture it beside
//! the token, and every model invocation inside — on whichever thread —
//! charges its time and rows to it ([`charge_predict`]), so `EXPLAIN
//! ANALYZE` can put PREDICT time on the operator that ran the model.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of shared pool worker threads (`TQP_POOL_THREADS` override,
/// read once; defaults to [`crate::default_workers`]).
pub fn pool_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("TQP_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(crate::default_workers)
            .max(1)
    })
}

/// Why a query stopped early (the [`Cancelled`] unwind payload's reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (client disconnect, explicit
    /// CANCEL frame, server shutdown).
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded,
}

/// The unwind payload carried when execution aborts at a cancellation
/// check. It is **not** a real panic: the default panic hook suppresses
/// its message, and `tqp-core` converts it into a retryable
/// `TqpError::Execution` at the top of the execution stack.
#[derive(Debug, Clone, Copy)]
pub struct Cancelled(pub CancelReason);

impl Cancelled {
    /// Human-readable abort message (what the `TqpError` carries).
    pub fn message(&self) -> &'static str {
        match self.0 {
            CancelReason::Cancelled => "query cancelled",
            CancelReason::DeadlineExceeded => "query deadline exceeded",
        }
    }
}

/// The unwind payload carried when execution meets data it cannot read —
/// a stored chunk that fails to decode, on whichever worker decodes it.
/// Like [`Cancelled`] it is not a programming error: the quiet panic hook
/// prints nothing for it, and [`crate::Executor::run`] returns its message
/// as the run's error.
#[derive(Debug, Clone)]
pub struct Failed(pub String);

/// Abort the running query with a [`Failed`] payload.
pub fn fail(message: String) -> ! {
    install_quiet_hook();
    std::panic::panic_any(Failed(message))
}

/// Run `f`, turning a [`Failed`] unwind into `Err` with its message. Any
/// other unwind — a [`Cancelled`] abort or a real panic — passes on.
pub fn failures_as_errors<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).or_else(|payload| match payload.downcast::<Failed>() {
        Ok(failed) => Err(failed.0),
        Err(payload) => resume_unwind(payload),
    })
}

struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<CancelInner>>,
}

impl CancelInner {
    fn state(&self) -> Option<CancelReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(CancelReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(CancelReason::DeadlineExceeded);
            }
        }
        self.parent.as_ref().and_then(|p| p.state())
    }
}

/// A cancellation handle for one query (or one connection). Clones share
/// state; [`CancelToken::child`] derives a token that additionally trips
/// when the parent does — the serving layer's per-query tokens are
/// children of a per-connection token, so a disconnect aborts whatever
/// query is in flight.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A manual-only token (never expires on its own).
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that trips once `deadline` elapses (measured from now).
    pub fn with_deadline(deadline: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
                parent: None,
            }),
        }
    }

    /// Derive a child token: cancelled when this token is, with its own
    /// optional deadline on top.
    pub fn child(&self, deadline: Option<Duration>) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: deadline.map(|d| Instant::now() + d),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Trip the token. Execution riding it aborts at the next
    /// morsel/section boundary check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Why the token is tripped, if it is.
    pub fn state(&self) -> Option<CancelReason> {
        self.inner.state()
    }

    /// True once the token (or an ancestor) tripped or a deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.state().is_some()
    }
}

/// PREDICT work charged to one program op: model time and rows scored,
/// summed over every thread that ran part of the op.
#[derive(Debug, Default)]
pub struct PredictTally {
    ns: AtomicU64,
    rows: AtomicU64,
}

impl PredictTally {
    /// `(µs, rows)` charged so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed) / 1000,
            self.rows.load(Ordering::Relaxed),
        )
    }
}

/// What execution on a thread rides: the query's cancellation token and
/// the tally PREDICT work is charged to. Sections capture the submitter's
/// and pool helpers install it while running their tasks.
#[derive(Clone, Default)]
struct TaskContext {
    token: Option<CancelToken>,
    predict: Option<Arc<PredictTally>>,
}

thread_local! {
    /// The context execution on this thread currently rides (installed by
    /// [`with_token`]/[`with_predict_tally`] on submitting threads and by
    /// the pool's task loop on helpers).
    static CURRENT: std::cell::RefCell<TaskContext> = const {
        std::cell::RefCell::new(TaskContext {
            token: None,
            predict: None,
        })
    };
}

/// Run `f` with `edit` applied to this thread's context, restoring the
/// previous context afterwards (also when `f` unwinds).
fn with_context<T>(edit: impl FnOnce(&mut TaskContext), f: impl FnOnce() -> T) -> T {
    let prev = CURRENT.with(|c| {
        let prev = c.borrow().clone();
        edit(&mut c.borrow_mut());
        prev
    });
    struct Restore(Option<TaskContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.0.take() {
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let _restore = Restore(Some(prev));
    f()
}

/// Install a quiet panic hook for [`Cancelled`] and [`Failed`] unwinds:
/// cancellation and unreadable data abort execution by unwinding, and a
/// morsel-parallel query can trip dozens of checks at once — none of
/// which is a programming error worth a stderr backtrace. All other
/// panics print as before.
fn install_quiet_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if !payload.is::<Cancelled>() && !payload.is::<Failed>() {
                previous(info);
            }
        }));
    });
}

/// Run `f` with `token` installed as the current thread's cancellation
/// token (restoring the previous one afterwards). Every section `f`
/// submits — and every [`check_cancelled`] call it makes, however deep —
/// observes the token.
pub fn with_token<T>(token: &CancelToken, f: impl FnOnce() -> T) -> T {
    install_quiet_hook();
    with_context(|cx| cx.token = Some(token.clone()), f)
}

/// The token installed on this thread, if any.
pub fn current_token() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().token.clone())
}

/// Run `f` charging the PREDICT work inside it — on this thread and in
/// every section it opens — to `tally` (an inner tally takes over for
/// its own extent).
pub fn with_predict_tally<T>(tally: &Arc<PredictTally>, f: impl FnOnce() -> T) -> T {
    with_context(|cx| cx.predict = Some(Arc::clone(tally)), f)
}

/// Charge one model invocation to the tally installed on this thread, if
/// any.
pub fn charge_predict(elapsed: Duration, rows: u64) {
    CURRENT.with(|c| {
        if let Some(t) = &c.borrow().predict {
            t.ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            t.rows.fetch_add(rows, Ordering::Relaxed);
        }
    });
}

/// Morsel/section-boundary cancellation check: unwinds with a
/// [`Cancelled`] payload when the current thread's token has tripped.
/// Free when no token is installed (one thread-local read).
#[inline]
pub fn check_cancelled() {
    let state = CURRENT.with(|c| c.borrow().token.as_ref().and_then(|t| t.state()));
    if let Some(reason) = state {
        std::panic::panic_any(Cancelled(reason));
    }
}

/// Downcast an unwind payload into its [`Cancelled`] value, if that is
/// what it carries (the serving layers' catch-site helper).
pub fn cancelled_payload(payload: &(dyn std::any::Any + Send)) -> Option<Cancelled> {
    payload.downcast_ref::<Cancelled>().copied()
}

type TaskFn = dyn Fn(usize) + Sync;

/// One submitted parallel section: a task closure plus claim/completion
/// state. The closure pointer is lifetime-erased; it stays valid because
/// [`run_scope`] does not return until every task completed, and no task
/// index is claimed after the cursor passes `total`.
struct Section {
    task: *const TaskFn,
    total: usize,
    /// Next unclaimed task index (may overshoot `total`).
    next: AtomicUsize,
    /// Pool helpers currently inside this section.
    helpers: AtomicUsize,
    /// Admission cap on pool helpers (`workers − 1`; the caller is the
    /// remaining executor).
    helpers_cap: usize,
    panicked: AtomicBool,
    /// The first panic's payload, carried back to the submitting thread
    /// verbatim (`resume_unwind`) so server logs name the real failure —
    /// and so [`Cancelled`] unwinds survive the pool boundary intact.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// The submitting thread's context (cancellation token, PREDICT
    /// tally) at submit time; pool helpers install it while running this
    /// section's tasks.
    cx: TaskContext,
    /// Completed task count, guarded for the completion wait.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl Section {
    /// Record the first panic payload (later ones are dropped — one
    /// unwind reaches the caller, and the first is the root cause).
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.payload.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.panicked.store(true, Ordering::Relaxed);
    }
}

// SAFETY: the erased closure is `Sync` (bound enforced by `run_scope`'s
// signature) and outlives the section (see `Section` docs); the remaining
// fields are ordinary sync primitives, and `cx` holds only `Arc`s of
// `Send + Sync` data.
unsafe impl Send for Section {}
unsafe impl Sync for Section {}

struct Pool {
    /// Sections with potentially unclaimed tasks.
    queue: Mutex<Vec<Arc<Section>>>,
    work_cv: Condvar,
    /// Tasks executed by pool helpers (not section callers) — observability
    /// for benches/tests that the pool is actually shared.
    helper_tasks: AtomicU64,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static START: std::sync::Once = std::sync::Once::new();
    let p = POOL.get_or_init(|| Pool {
        queue: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        helper_tasks: AtomicU64::new(0),
    });
    START.call_once(|| {
        sched_metrics().pool_threads.set(pool_threads() as i64);
        for i in 0..pool_threads() {
            std::thread::Builder::new()
                .name(format!("tqp-pool-{i}"))
                .spawn(move || worker_loop(p))
                .expect("spawn pool worker");
        }
    });
    p
}

/// Cached `sched.*` registry handles: queue depth and busy-helper gauges
/// (the pool's utilization signal) plus section/helper-task counters.
struct SchedMetrics {
    pool_threads: tqp_obs::Gauge,
    queue_depth: tqp_obs::Gauge,
    active_helpers: tqp_obs::Gauge,
    sections: tqp_obs::Counter,
    helper_tasks: tqp_obs::Counter,
}

fn sched_metrics() -> &'static SchedMetrics {
    static METRICS: OnceLock<SchedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tqp_obs::registry();
        SchedMetrics {
            pool_threads: r.gauge("sched.pool_threads"),
            queue_depth: r.gauge("sched.queue_depth"),
            active_helpers: r.gauge("sched.active_helpers"),
            sections: r.counter("sched.sections"),
            helper_tasks: r.counter("sched.helper_tasks"),
        }
    })
}

/// Total tasks executed by pool helpers since process start.
pub fn helper_task_count() -> u64 {
    pool().helper_tasks.load(Ordering::Relaxed)
}

fn worker_loop(p: &'static Pool) {
    loop {
        let section: Arc<Section> = {
            let mut q = p.queue.lock().unwrap();
            loop {
                if let Some(s) = q.iter().find(|s| {
                    s.helpers.load(Ordering::Relaxed) < s.helpers_cap
                        && s.next.load(Ordering::Relaxed) < s.total
                }) {
                    // Claimed under the queue lock so the admission cap
                    // cannot be overshot by racing workers.
                    s.helpers.fetch_add(1, Ordering::Relaxed);
                    break s.clone();
                }
                q = p.work_cv.wait(q).unwrap();
            }
        };
        let m = sched_metrics();
        m.active_helpers.add(1);
        let ran = run_tasks(&section);
        p.helper_tasks.fetch_add(ran, Ordering::Relaxed);
        m.helper_tasks.add(ran);
        m.active_helpers.sub(1);
        section.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Claim-and-run loop shared by pool helpers and section callers. Returns
/// the number of tasks this thread executed.
///
/// Once any task panicked (or the section's token tripped), remaining
/// claimed tasks are *counted as done without running their bodies*: the
/// caller is going to re-raise the recorded payload before anyone reads
/// the result slots, so executing the rest would only burn pool time a
/// cancelled query was trying to free.
fn run_tasks(s: &Section) -> u64 {
    // Helpers ride the submitting thread's context while inside this
    // section (nested sections inherit it transitively).
    with_context(|cx| *cx = s.cx.clone(), || claim_and_run(s))
}

fn claim_and_run(s: &Section) -> u64 {
    let mut ran = 0;
    loop {
        let i = s.next.fetch_add(1, Ordering::Relaxed);
        if i >= s.total {
            break;
        }
        if !s.panicked.load(Ordering::Relaxed) {
            if let Some(reason) = s.cx.token.as_ref().and_then(|t| t.state()) {
                s.record_panic(Box::new(Cancelled(reason)));
            } else {
                // SAFETY: the closure pointer is dereferenced only under a
                // claimed index `i < total`. A claimed-but-unfinished task
                // keeps `done < total`, which keeps `run_scope` (and
                // therefore the caller's closure borrow) alive until this
                // task completes — a helper that arrives after all tasks
                // were claimed breaks out above without ever touching the
                // pointer.
                let f = unsafe { &*s.task };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                    s.record_panic(payload);
                }
            }
        }
        ran += 1;
        let mut done = s.done.lock().unwrap();
        *done += 1;
        if *done == s.total {
            s.done_cv.notify_all();
        }
    }
    ran
}

/// Run `f(0..n_tasks)` on the shared pool with at most `workers`
/// concurrent executors (the calling thread included), returning when all
/// tasks completed. `workers <= 1` (or a single task) runs inline.
pub fn run_scope(n_tasks: usize, workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    let helpers_cap = workers.max(1).min(n_tasks).saturating_sub(1);
    if helpers_cap == 0 {
        for i in 0..n_tasks {
            check_cancelled();
            f(i);
        }
        return;
    }
    let p = pool();
    // SAFETY: erase the borrow's lifetime; `run_scope` does not return
    // until every task completed, so the closure outlives all uses.
    let task: *const TaskFn = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const TaskFn>(
            f as *const (dyn Fn(usize) + Sync),
        )
    };
    let section = Arc::new(Section {
        task,
        total: n_tasks,
        next: AtomicUsize::new(0),
        helpers: AtomicUsize::new(0),
        helpers_cap,
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
        cx: CURRENT.with(|c| c.borrow().clone()),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
    });
    {
        let mut q = p.queue.lock().unwrap();
        q.push(section.clone());
    }
    let m = sched_metrics();
    m.sections.inc();
    m.queue_depth.add(1);
    p.work_cv.notify_all();

    // The caller drives its own section: claim tasks until none are left,
    // then wait for helpers to finish their in-flight ones.
    run_tasks(&section);
    let mut done = section.done.lock().unwrap();
    while *done < section.total {
        done = section.done_cv.wait(done).unwrap();
    }
    drop(done);
    {
        let mut q = p.queue.lock().unwrap();
        q.retain(|s| !Arc::ptr_eq(s, &section));
    }
    m.queue_depth.sub(1);
    // A freed admission slot may unblock workers parked on other sections.
    p.work_cv.notify_all();
    // Re-raise the first task panic on the submitting thread with its
    // original payload (message, site, or `Cancelled` marker) intact —
    // a generic "a task panicked" here would hide the real failure from
    // server logs.
    let payload = section.payload.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Run `f` for every index in `0..n`, collecting results **in index
/// order** (the scheduling-only contract: which thread runs an index never
/// affects the output). At most `workers` threads execute concurrently.
pub fn map_tasks<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    if workers.max(1).min(n) <= 1 {
        return (0..n)
            .map(|i| {
                check_cancelled();
                f(i)
            })
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_scope(n, workers, &|i| {
        *slots[i].lock().unwrap() = Some(f(i));
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_tasks_preserves_index_order() {
        let out = map_tasks(100, 4, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_when_one_worker() {
        // workers = 1 must not touch the pool at all (inline execution).
        let out = map_tasks(10, 1, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_sections_share_the_pool() {
        // Many sections submitted from many threads at once: all complete,
        // all results ordered.
        let threads: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let out = map_tasks(16, 4, |i| t * 1000 + round * 16 + i);
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(*v, t * 1000 + round * 16 + i);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn admission_cap_bounds_section_width() {
        // With workers = 2, at most 2 threads (caller + 1 helper) may be
        // inside the section at any instant.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_scope(32, 2, &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "{:?}", peak);
    }

    #[test]
    fn nested_sections_make_progress() {
        // A task that opens an inner section must not deadlock even when
        // every pool worker is busy.
        let out = map_tasks(4, 4, |i| {
            let inner = map_tasks(4, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    #[should_panic(expected = "boom at task 5")]
    fn task_panics_propagate_with_their_original_payload() {
        // The caller must observe the task's own message, not a generic
        // "task panicked in shared-pool section".
        run_scope(8, 4, &|i| {
            if i == 5 {
                panic!("boom at task {i}");
            }
        });
    }

    #[test]
    fn nested_section_panic_payload_survives_both_hops() {
        let err = std::panic::catch_unwind(|| {
            map_tasks(4, 4, |i| {
                map_tasks(4, 4, move |j| {
                    if i == 2 && j == 3 {
                        panic!("inner boom {i}-{j}");
                    }
                    0usize
                })
            })
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(msg.contains("inner boom 2-3"), "{msg}");
    }

    #[test]
    fn cancel_token_deadline_and_parent_chain() {
        let parent = CancelToken::new();
        let child = parent.child(None);
        assert!(!child.is_cancelled());
        parent.cancel();
        assert_eq!(child.state(), Some(CancelReason::Cancelled));

        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.state(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn cancelled_token_aborts_a_section_with_a_cancelled_payload() {
        let token = CancelToken::new();
        token.cancel();
        let err = std::panic::catch_unwind(|| with_token(&token, || map_tasks(64, 4, |i| i * 2)))
            .unwrap_err();
        let c = cancelled_payload(err.as_ref()).expect("Cancelled payload");
        assert_eq!(c.0, CancelReason::Cancelled);
    }

    #[test]
    fn mid_flight_cancellation_frees_the_section() {
        // Trip the token from a task body: every later-claimed task body
        // is skipped, and the caller unwinds with the Cancelled payload.
        let token = CancelToken::new();
        let executed = AtomicUsize::new(0);
        let tok = token.clone();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_token(&token, || {
                run_scope(256, 4, &|i| {
                    executed.fetch_add(1, Ordering::SeqCst);
                    if i == 3 {
                        tok.cancel();
                    }
                    check_cancelled();
                })
            })
        }))
        .unwrap_err();
        assert!(cancelled_payload(err.as_ref()).is_some());
        // Not every task body ran (the skip fast-path kicked in) — and
        // the pool is still serviceable afterwards.
        assert!(executed.load(Ordering::SeqCst) < 256);
        let out = map_tasks(16, 4, |i| i + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn tokens_propagate_to_sequential_fallbacks() {
        // workers = 1 never touches the pool; the inline path must still
        // honour the token.
        let token = CancelToken::new();
        token.cancel();
        let err =
            std::panic::catch_unwind(|| with_token(&token, || map_tasks(4, 1, |i| i))).unwrap_err();
        assert!(cancelled_payload(err.as_ref()).is_some());
    }
}
