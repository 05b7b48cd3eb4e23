//! # tqp-serve — the compile-once / run-many serving layer
//!
//! The paper's deployment story (§3.2) separates *compilation* from
//! *serving*: a query is lowered to a portable tensor program once, then
//! executed many times. [`Server`] is that split made concrete:
//!
//! * a shared [`Session`] behind a `RwLock` — executions take the read
//!   lock and run concurrently; `register_table`/`register_model` take
//!   the write lock;
//! * a **prepared-statement cache**: an LRU keyed by *normalized SQL
//!   text* + the [`QueryConfig`] (backend, device, workers, pruning).
//!   A hit returns the same `Arc`-shared [`PreparedQuery`] — pointer
//!   equality is the test-visible proof that no parse/bind/lower work
//!   happened. `$1..$n` placeholder values are bound per execution by
//!   patching the compiled programs' constant slots;
//! * **invalidation**: `register_table` evicts **only the statements that
//!   scan the replaced table** (a replaced table may change schemas,
//!   statistics, and plans — but statements over other tables compiled
//!   against unchanged state and stay hot); `register_model` still
//!   flushes the whole cache: every statement binds its `PREDICT` models
//!   when it is compiled, so the flush is what makes served statements
//!   recompile against the replacement (model references aren't tracked
//!   per entry);
//! * execution itself rides the process-wide shared worker pool
//!   (`tqp_exec::sched`), so N concurrent clients share `workers`
//!   threads instead of oversubscribing N×workers.
//!
//! Key normalization collapses insignificant whitespace and lowercases
//! everything *outside string literals*, so `SELECT  A FROM T` and
//! `select a from t` share a cache entry while `'ABC'` ≠ `'abc'` stays
//! intact.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

use tqp_core::{PreparedQuery, QueryConfig, RunOptions, Session, TqpError};
use tqp_data::DataFrame;
use tqp_exec::ExecStats;
use tqp_ml::Model;
use tqp_obs::QueryTrace;
use tqp_tensor::Scalar;

/// Default prepared-statement cache capacity.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Registry handles for the `cache.*` namespace, mirroring the server's
/// local atomics into the process-wide metrics registry (one process may
/// host several `Server`s; the registry view is the aggregate).
struct CacheMetrics {
    hits: tqp_obs::Counter,
    misses: tqp_obs::Counter,
    evictions: tqp_obs::Counter,
    invalidations: tqp_obs::Counter,
    partial_invalidations: tqp_obs::Counter,
    entries: tqp_obs::Gauge,
}

fn cache_metrics() -> &'static CacheMetrics {
    use std::sync::OnceLock;
    static M: OnceLock<CacheMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = tqp_obs::registry();
        CacheMetrics {
            hits: r.counter("cache.hits"),
            misses: r.counter("cache.misses"),
            evictions: r.counter("cache.evictions"),
            invalidations: r.counter("cache.invalidations"),
            partial_invalidations: r.counter("cache.partial_invalidations"),
            entries: r.gauge("cache.entries"),
        }
    })
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Whole-cache invalidations (model registrations).
    pub invalidations: u64,
    /// Per-table invalidations (table registrations evicting only the
    /// statements that scan the replaced table). Counted only when at
    /// least one statement was actually evicted — a registration nothing
    /// cached ever scanned is not an invalidation event.
    pub partial_invalidations: u64,
    pub entries: usize,
    pub capacity: usize,
}

/// Normalize SQL text for cache keying: trim, collapse whitespace runs to
/// one space, strip `-- ...` line comments, and lowercase — except inside
/// single-quoted string literals, which are preserved byte-for-byte
/// (including `''` escapes).
///
/// Comment stripping mirrors the lexer's skip rule (`crates/sql/src/
/// lexer.rs`): `--` outside a string literal discards everything to the
/// end of the line, and the comment itself acts as whitespace. Keeping
/// comment text in the key was a real cache-collision bug: the keys of
/// `select a -- x\nfrom t` and `select a -- x from t` used to collapse
/// the newline and collide — one key for two different token streams, so
/// the cache could serve the wrong prepared statement. The invariant now:
/// **equal keys ⇒ equal token streams** (property-tested).
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_str = false;
    let mut pending_space = false;
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            if c == '\'' {
                // `''` inside a literal re-enters string mode on the next
                // quote; treating each quote as a toggle handles that.
                in_str = false;
            }
            continue;
        }
        if c == '-' && chars.peek() == Some(&'-') {
            // `--` line comment: discard to end of line (the lexer never
            // sees it, so the key must not either); it separates tokens
            // exactly like whitespace does.
            for c in chars.by_ref() {
                if c == '\n' {
                    break;
                }
            }
            pending_space = true;
        } else if c == '\'' {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(c);
            in_str = true;
        } else if c.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            for lc in c.to_lowercase() {
                out.push(lc);
            }
        }
    }
    out
}

/// One cache entry with its LRU stamp and the tables its compiled
/// program scans (lowercased; drives per-table invalidation).
struct Entry {
    prepared: PreparedQuery,
    tables: Vec<String>,
    last_used: u64,
}

/// The LRU prepared-statement cache (guarded by `Server`'s lock).
struct Lru {
    map: HashMap<String, Entry>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &str) -> Option<PreparedQuery> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.last_used = tick;
            e.prepared.clone()
        })
    }

    fn insert(&mut self, key: String, prepared: PreparedQuery) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least-recently-used entry.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
                cache_metrics().evictions.inc();
            }
        }
        let tables = prepared
            .program()
            .tables()
            .into_iter()
            .map(|t| t.to_ascii_lowercase())
            .collect();
        self.map.insert(
            key,
            Entry {
                prepared,
                tables,
                last_used: self.tick,
            },
        );
        cache_metrics().entries.set(self.map.len() as i64);
    }

    fn clear(&mut self) {
        self.map.clear();
        cache_metrics().entries.set(0);
    }

    /// Drop only the entries whose programs scan `table` (lowercased),
    /// returning how many entries were actually removed — the caller's
    /// `partial_invalidations` counter must reflect real evictions, not
    /// no-op registrations of tables nothing cached ever scanned.
    fn remove_table(&mut self, table: &str) -> usize {
        let before = self.map.len();
        self.map.retain(|_, e| !e.tables.iter().any(|t| t == table));
        cache_metrics().entries.set(self.map.len() as i64);
        before - self.map.len()
    }
}

/// A serving endpoint over one shared session. Wrap it in an [`Arc`] and
/// hand clones to client threads; every method takes `&self`.
pub struct Server {
    session: RwLock<Session>,
    cache: RwLock<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    partial_invalidations: AtomicU64,
}

impl Server {
    /// Serve an existing session with the default cache capacity.
    pub fn new(session: Session) -> Server {
        Server::with_cache_capacity(session, DEFAULT_CACHE_CAPACITY)
    }

    /// Serve with an explicit prepared-statement cache capacity.
    pub fn with_cache_capacity(session: Session, capacity: usize) -> Server {
        Server {
            session: RwLock::new(session),
            cache: RwLock::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            partial_invalidations: AtomicU64::new(0),
        }
    }

    /// Read access to the underlying session (concurrent with other
    /// readers; blocks only registrations).
    pub fn session(&self) -> RwLockReadGuard<'_, Session> {
        self.session.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Prepare a statement through the cache. A hit returns the *same*
    /// `Arc`-shared compiled statement (verify with
    /// [`PreparedQuery::ptr_eq`]); a miss compiles once and caches.
    ///
    /// Lock order is always session → cache (registrations take the same
    /// order), so prepare cannot deadlock against invalidation.
    pub fn prepare(&self, sql: &str, cfg: QueryConfig) -> Result<PreparedQuery, TqpError> {
        // Deadline, trace capture, and the slow-query threshold are
        // per-request execution properties: strip them from the compiled
        // entry (and the key — see [`cache_key`]) so clients running the
        // same statement under different execution knobs share one
        // compiled copy. `query*` re-applies the request's values at
        // execute time (deadline via a cancellation token, trace/slow via
        // [`RunOptions`]).
        let mut cfg = cfg;
        cfg.deadline = None;
        cfg.trace = false;
        cfg.slow_query_ms = None;
        let key = cache_key(sql, &cfg);
        let session = self.session();
        if let Some(hit) = {
            let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
            cache.get(&key)
        } {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cache_metrics().hits.inc();
            return Ok(hit);
        }
        // Compile outside the cache lock: a slow compile must not stall
        // concurrent hits on other statements. A racing prepare of the
        // same SQL may compile twice; last insert wins and both results
        // are valid (they were compiled against the same locked session).
        let prepared = session.prepare(sql, cfg)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        cache_metrics().misses.inc();
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        if let Some(racing) = cache.get(&key) {
            // Another client finished first — serve its statement so every
            // caller shares one compiled copy.
            return Ok(racing);
        }
        cache.insert(key, prepared.clone());
        Ok(prepared)
    }

    /// Execute a prepared statement with parameter values (empty for
    /// parameter-free statements). Concurrent-safe: takes the session
    /// read lock for the duration of the run.
    pub fn execute(
        &self,
        prepared: &PreparedQuery,
        params: &[Scalar],
    ) -> Result<(DataFrame, ExecStats), TqpError> {
        let session = self.session();
        prepared.execute(&session, params)
    }

    /// Execute under an external cancellation token (the network
    /// front-end's per-request token, chained to its per-connection one):
    /// tripping the token — or exceeding the statement's configured
    /// deadline — aborts at the next morsel/section boundary with a
    /// retryable [`TqpError::Execution`], freeing the shared pool's slots.
    pub fn execute_cancellable(
        &self,
        prepared: &PreparedQuery,
        params: &[Scalar],
        token: &tqp_core::CancelToken,
    ) -> Result<(DataFrame, ExecStats), TqpError> {
        let session = self.session();
        prepared.execute_cancellable(&session, params, token)
    }

    /// Execute a prepared statement with full per-execution options
    /// (cancellation token, trace capture, slow-query threshold) —
    /// the socket front-end's EXECUTE path.
    pub fn execute_with(
        &self,
        prepared: &PreparedQuery,
        params: &[Scalar],
        opts: &RunOptions,
    ) -> Result<(DataFrame, ExecStats, Option<QueryTrace>), TqpError> {
        let session = self.session();
        prepared.execute_with(&session, params, opts)
    }

    /// Prepare (through the cache) and execute in one call. A
    /// `cfg.deadline` is honored per request (via a deadline token), even
    /// when the prepared statement itself came out of the shared cache.
    pub fn query(
        &self,
        sql: &str,
        cfg: QueryConfig,
        params: &[Scalar],
    ) -> Result<(DataFrame, ExecStats), TqpError> {
        self.query_traced(sql, cfg, params).map(|(f, s, _)| (f, s))
    }

    /// [`Server::query`], additionally returning the captured
    /// [`QueryTrace`] when the request's `cfg.trace` was on. Trace
    /// capture and the slow-query threshold are applied per request even
    /// though the cached compiled entry has them stripped — the socket
    /// front-end relies on this to serve `PROFILE` frames from cache-hot
    /// statements.
    pub fn query_traced(
        &self,
        sql: &str,
        cfg: QueryConfig,
        params: &[Scalar],
    ) -> Result<(DataFrame, ExecStats, Option<QueryTrace>), TqpError> {
        let prepared = self.prepare(sql, cfg)?;
        let session = self.session();
        let deadline_token = cfg.deadline.map(tqp_core::CancelToken::with_deadline);
        prepared.execute_with(
            &session,
            params,
            &RunOptions {
                token: deadline_token.as_ref(),
                trace: cfg.trace,
                slow_query_ms: cfg.slow_query_ms,
            },
        )
    }

    /// Prepare (through the cache) and execute under an external
    /// cancellation token; a `cfg.deadline` stacks on top of it (the run
    /// aborts on whichever trips first).
    pub fn query_cancellable(
        &self,
        sql: &str,
        cfg: QueryConfig,
        params: &[Scalar],
        token: &tqp_core::CancelToken,
    ) -> Result<(DataFrame, ExecStats), TqpError> {
        self.query_cancellable_traced(sql, cfg, params, token)
            .map(|(f, s, _)| (f, s))
    }

    /// [`Server::query_cancellable`] with per-request trace capture and
    /// slow-query threshold (see [`Server::query_traced`]).
    pub fn query_cancellable_traced(
        &self,
        sql: &str,
        cfg: QueryConfig,
        params: &[Scalar],
        token: &tqp_core::CancelToken,
    ) -> Result<(DataFrame, ExecStats, Option<QueryTrace>), TqpError> {
        let prepared = self.prepare(sql, cfg)?;
        let session = self.session();
        let token = token.child(cfg.deadline);
        prepared.execute_with(
            &session,
            params,
            &RunOptions {
                token: Some(&token),
                trace: cfg.trace,
                slow_query_ms: cfg.slow_query_ms,
            },
        )
    }

    /// Register (or replace) a table. Takes the session write lock and
    /// invalidates **only the cached statements that scan this table** —
    /// plans compiled against the previous schema/statistics must never
    /// serve again, but statements over other tables stay hot.
    pub fn register_table(&self, name: &str, frame: DataFrame) {
        let mut session = self.session.write().unwrap_or_else(|e| e.into_inner());
        session.register_table(name, frame);
        self.invalidate_table(name);
    }

    /// Register (or replace) a table backed by a persistent `tqp-store`
    /// file (chunk-at-a-time scans, footer statistics). Same per-table
    /// invalidation as [`Server::register_table`].
    pub fn register_stored_table(&self, name: &str, table: Arc<tqp_store::StoredTable>) {
        let mut session = self.session.write().unwrap_or_else(|e| e.into_inner());
        session.register_stored_table(name, table);
        self.invalidate_table(name);
    }

    /// Register a `PREDICT` model; invalidates the cache (statements bind
    /// their models when compiled, so only a recompile sees the swap).
    pub fn register_model(&self, name: &str, model: Arc<dyn Model>) {
        let mut session = self.session.write().unwrap_or_else(|e| e.into_inner());
        session.register_model(name, model);
        self.invalidate();
    }

    fn invalidate(&self) {
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        cache.clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        cache_metrics().invalidations.inc();
    }

    fn invalidate_table(&self, name: &str) {
        let key = name.to_ascii_lowercase();
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        // Count only invalidations that evicted something: registering a
        // table no cached statement scans is not an invalidation event,
        // and operators watching this counter for churn must not see one.
        if cache.remove_table(&key) > 0 {
            self.partial_invalidations.fetch_add(1, Ordering::Relaxed);
            cache_metrics().partial_invalidations.inc();
        }
    }

    /// Cache counters (hits/misses/evictions/invalidations, current size).
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.read().unwrap_or_else(|e| e.into_inner());
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: cache.evictions,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            partial_invalidations: self.partial_invalidations.load(Ordering::Relaxed),
            entries: cache.map.len(),
            capacity: cache.capacity,
        }
    }
}

/// Cache key: normalized SQL + the per-query configuration (a query
/// prepared for `Backend::Wasm` must not serve a `Backend::Eager` client)
/// — **except** the deadline, trace flag, and slow-query threshold, which
/// are pure execution properties: clients running the same statement
/// under different execution knobs must share one compiled entry instead
/// of fragmenting the cache.
fn cache_key(sql: &str, cfg: &QueryConfig) -> String {
    let mut keyed = *cfg;
    keyed.deadline = None;
    keyed.trace = false;
    keyed.slow_query_ms = None;
    format!("{}\u{1}{:?}", normalize_sql(sql), keyed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqp_data::frame::df;
    use tqp_data::Column;

    fn server() -> Server {
        let mut s = Session::new();
        s.register_table(
            "t",
            df(vec![
                ("id", Column::from_i64(vec![1, 2, 3, 4])),
                ("v", Column::from_f64(vec![1.5, 2.5, 3.5, 4.5])),
            ]),
        );
        Server::new(s)
    }

    #[test]
    fn normalization_collapses_whitespace_and_case_outside_strings() {
        assert_eq!(
            normalize_sql("SELECT  a\n FROM t WHERE s = 'It''s  BIG'"),
            "select a from t where s = 'It''s  BIG'"
        );
        assert_eq!(normalize_sql("  select 1  "), "select 1");
    }

    #[test]
    fn line_comments_are_stripped_from_cache_keys() {
        // The collision pair: with comment text kept in the key, the
        // whitespace collapse folded the newline and these two — which
        // lex to DIFFERENT token streams (`from t` is commented out in
        // the second) — shared one key, so the cache could serve the
        // wrong prepared statement.
        let with_newline = "select a -- x\nfrom t";
        let without_newline = "select a -- x from t";
        let cfg = QueryConfig::default();
        assert_ne!(
            cache_key(with_newline, &cfg),
            cache_key(without_newline, &cfg),
            "comment-hidden newline must keep these statements distinct"
        );
        assert_eq!(normalize_sql(with_newline), "select a from t");
        assert_eq!(normalize_sql(without_newline), "select a");
        // `--` inside a string literal is data, not a comment.
        assert_eq!(
            normalize_sql("select '--keep' -- drop\nfrom t"),
            "select '--keep' from t"
        );
        // Even `5--3` opens a comment — mirroring the lexer's skip rule.
        assert_eq!(normalize_sql("select 5--3\n+ 1"), "select 5 + 1");
    }

    #[test]
    fn deadline_does_not_fragment_the_cache() {
        let srv = server();
        let a = srv
            .prepare("select id from t", QueryConfig::default())
            .unwrap();
        let b = srv
            .prepare(
                "select id from t",
                QueryConfig::default().deadline(std::time::Duration::from_secs(30)),
            )
            .unwrap();
        assert!(a.ptr_eq(&b), "deadline is an execution property, not a key");
        // …and the request's deadline still applies: an already-expired
        // deadline on a cached statement aborts with a retryable error.
        match srv.query(
            "select id from t",
            QueryConfig::default().deadline(std::time::Duration::ZERO),
            &[],
        ) {
            Err(tqp_core::TqpError::Execution(msg)) => {
                assert!(msg.contains("deadline"), "{msg}")
            }
            other => panic!("expected deadline abort, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn registering_an_uncached_table_is_not_an_invalidation_event() {
        let srv = server();
        let cfg = QueryConfig::default();
        let _cached = srv.prepare("select id from t", cfg).unwrap();
        // `u` has no cached statements: replacing it removes nothing and
        // must not count as a partial invalidation.
        srv.register_table("u", df(vec![("b", Column::from_i64(vec![1]))]));
        assert_eq!(srv.cache_stats().partial_invalidations, 0);
        // Replacing `t` evicts its one statement — that IS one event.
        srv.register_table("t", df(vec![("id", Column::from_i64(vec![2]))]));
        assert_eq!(srv.cache_stats().partial_invalidations, 1);
        // Replacing `t` again, now with an empty cache: still one.
        srv.register_table("t", df(vec![("id", Column::from_i64(vec![3]))]));
        assert_eq!(srv.cache_stats().partial_invalidations, 1);
    }

    #[test]
    fn cache_hits_share_one_compiled_statement() {
        let srv = server();
        let cfg = QueryConfig::default();
        let a = srv.prepare("select id from t where v > 2.0", cfg).unwrap();
        // Different spelling, same normalized key → pointer-equal hit.
        let b = srv
            .prepare("SELECT id\nFROM t  WHERE v > 2.0", cfg)
            .unwrap();
        assert!(a.ptr_eq(&b), "cache hit must not recompile");
        let stats = srv.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn different_configs_do_not_share_entries() {
        let srv = server();
        let a = srv
            .prepare("select id from t", QueryConfig::default())
            .unwrap();
        let b = srv
            .prepare(
                "select id from t",
                QueryConfig::default().backend(tqp_exec::Backend::Wasm),
            )
            .unwrap();
        assert!(!a.ptr_eq(&b));
    }

    #[test]
    fn registration_invalidates_the_cache() {
        let srv = server();
        let cfg = QueryConfig::default();
        let before = srv.prepare("select id from t", cfg).unwrap();
        let (out, _) = srv.execute(&before, &[]).unwrap();
        assert_eq!(out.nrows(), 4);
        srv.register_table(
            "t",
            df(vec![
                ("id", Column::from_i64(vec![7])),
                ("v", Column::from_f64(vec![9.0])),
            ]),
        );
        let after = srv.prepare("select id from t", cfg).unwrap();
        assert!(!before.ptr_eq(&after), "stale entry served after replace");
        let (out, _) = srv.execute(&after, &[]).unwrap();
        assert_eq!(out.nrows(), 1);
        assert_eq!(out.column(0).get(0).as_i64(), 7);
        assert!(srv.cache_stats().partial_invalidations >= 1);
    }

    #[test]
    fn held_handles_refuse_to_run_after_incompatible_replacement() {
        // A client that kept a PreparedQuery across a register_table that
        // CHANGED the schema must get a clean execution error — the old
        // compiled program carries positional column indices that would
        // read the wrong columns from the reshaped table.
        let srv = server();
        let held = srv
            .prepare("select v from t where id > 1", QueryConfig::default())
            .unwrap();
        assert!(srv.execute(&held, &[]).is_ok());
        srv.register_table(
            "t",
            df(vec![
                // Columns reordered and retyped relative to compile time.
                ("v", Column::from_str(vec!["x".into(), "y".into()])),
                ("id", Column::from_i64(vec![1, 2])),
            ]),
        );
        match srv.execute(&held, &[]) {
            Err(tqp_core::TqpError::Execution(msg)) => {
                assert!(msg.contains("different schema"), "{msg}")
            }
            other => panic!("expected execution error, got {:?}", other.map(|_| ())),
        }
        // Same-schema replacement keeps held handles valid (they read the
        // new data by table name — the intended serving semantics).
        let srv = server();
        let held = srv
            .prepare("select v from t where id > 1", QueryConfig::default())
            .unwrap();
        srv.register_table(
            "t",
            df(vec![
                ("id", Column::from_i64(vec![5, 6])),
                ("v", Column::from_f64(vec![1.0, 2.0])),
            ]),
        );
        let (out, _) = srv.execute(&held, &[]).unwrap();
        assert_eq!(out.nrows(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = Session::new();
        s.register_table("t", df(vec![("a", Column::from_i64(vec![1]))]));
        let srv = Server::with_cache_capacity(s, 2);
        let cfg = QueryConfig::default();
        let q1 = srv.prepare("select a from t", cfg).unwrap();
        let _q2 = srv.prepare("select a + 1 from t", cfg).unwrap();
        // Touch q1 so q2 is the LRU victim when q3 arrives.
        let q1b = srv.prepare("select a from t", cfg).unwrap();
        assert!(q1.ptr_eq(&q1b));
        let _q3 = srv.prepare("select a + 2 from t", cfg).unwrap();
        let stats = srv.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // q1 survived the eviction.
        let q1c = srv.prepare("select a from t", cfg).unwrap();
        assert!(q1.ptr_eq(&q1c));
    }

    #[test]
    fn table_registration_only_evicts_statements_over_that_table() {
        let mut s = Session::new();
        s.register_table("t", df(vec![("a", Column::from_i64(vec![1, 2]))]));
        s.register_table("u", df(vec![("b", Column::from_i64(vec![3]))]));
        let srv = Server::new(s);
        let cfg = QueryConfig::default();
        let over_t = srv.prepare("select a from t", cfg).unwrap();
        let over_u = srv.prepare("select b from u", cfg).unwrap();
        let over_both = srv.prepare("select a, b from t, u", cfg).unwrap();
        assert_eq!(srv.cache_stats().entries, 3);

        srv.register_table("t", df(vec![("a", Column::from_i64(vec![9]))]));

        // Statements scanning `t` (directly or via the join) are evicted…
        let over_t2 = srv.prepare("select a from t", cfg).unwrap();
        assert!(!over_t.ptr_eq(&over_t2), "stale t statement survived");
        let over_both2 = srv.prepare("select a, b from t, u", cfg).unwrap();
        assert!(
            !over_both.ptr_eq(&over_both2),
            "stale join statement survived"
        );
        // …while statements over other tables stay hot.
        let over_u2 = srv.prepare("select b from u", cfg).unwrap();
        assert!(over_u.ptr_eq(&over_u2), "unrelated statement was flushed");

        let stats = srv.cache_stats();
        assert_eq!(stats.partial_invalidations, 1);
        assert_eq!(stats.invalidations, 0, "no whole-cache flush happened");
    }

    /// `PREDICT('m', x)` = `k · x`.
    struct Scale(f64);

    impl Model for Scale {
        fn family(&self) -> &'static str {
            "scale"
        }
        fn n_inputs(&self) -> usize {
            1
        }
        fn predict(&self, inputs: &[tqp_tensor::Tensor]) -> tqp_tensor::Tensor {
            tqp_tensor::Tensor::from_f64(
                inputs[0].to_f64_vec().iter().map(|x| x * self.0).collect(),
            )
        }
    }

    #[test]
    fn model_registration_still_flushes_everything() {
        let mut s = Session::new();
        s.register_table("t", df(vec![("a", Column::from_f64(vec![1.0]))]));
        s.register_model("m", Arc::new(Scale(2.0)));
        let srv = Server::new(s);
        let cfg = QueryConfig::default();
        let predict = "select predict('m', a) as p from t";
        let p = |(frame, _): (DataFrame, ExecStats)| frame.column(0).get(0).as_f64();
        let q = srv.prepare("select a from t", cfg).unwrap();
        let held = srv.prepare(predict, cfg).unwrap();
        assert_eq!(p(srv.query(predict, cfg, &[]).unwrap()), 2.0);
        srv.register_model("m", Arc::new(Scale(3.0)));
        let q2 = srv.prepare("select a from t", cfg).unwrap();
        assert!(!q.ptr_eq(&q2), "model swap must flush the whole cache");
        let stats = srv.cache_stats();
        assert!(stats.invalidations >= 1);
        // The flush is what gives served statements the replacement: a
        // statement compiles its model in, so a handle held across the
        // swap still runs the model it was compiled with.
        assert_eq!(p(srv.query(predict, cfg, &[]).unwrap()), 3.0);
        assert_eq!(p(srv.execute(&held, &[]).unwrap()), 2.0);
    }

    #[test]
    fn trace_knobs_do_not_fragment_the_cache_but_still_apply() {
        let srv = server();
        let a = srv
            .prepare("select id from t order by id", QueryConfig::default())
            .unwrap();
        let b = srv
            .prepare(
                "select id from t order by id",
                QueryConfig::default().trace(true).slow_query_ms(5000),
            )
            .unwrap();
        assert!(
            a.ptr_eq(&b),
            "trace knobs are execution properties, not keys"
        );
        // A traced request against the cache-hot statement still captures.
        let (out, _, trace) = srv
            .query_traced(
                "select id from t order by id",
                QueryConfig::default().trace(true),
                &[],
            )
            .unwrap();
        assert_eq!(out.nrows(), 4);
        let trace = trace.expect("per-request trace on a cached statement");
        assert!(!trace.spans.is_empty());
        // An untraced request allocates none.
        let (_, _, none) = srv
            .query_traced("select id from t order by id", QueryConfig::default(), &[])
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn parameterized_statements_execute_through_the_server() {
        let srv = server();
        let cfg = QueryConfig::default();
        let q = srv
            .prepare("select id from t where v > $1 order by id", cfg)
            .unwrap();
        assert_eq!(q.n_params(), 1);
        let (out, _) = srv.execute(&q, &[Scalar::F64(2.0)]).unwrap();
        assert_eq!(out.nrows(), 3);
        let (out, _) = srv.execute(&q, &[Scalar::F64(4.0)]).unwrap();
        assert_eq!(out.nrows(), 1);
    }
}
