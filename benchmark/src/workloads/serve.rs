//! `serve_point` and `serve_mixed`: a loopback `NetServer` over `Server`
//! inside the bench process, driven by two `NetClient` connections, each in
//! a closed loop.
//!
//! Closed loop with as many connections as cores, because the protocol is
//! synchronous per connection and an under-driven server measures thread
//! wake-up latency: one connection gets 1.7-2.4 k q/s at p50 365-445 us on
//! this host, two get 26 k q/s at p50 63 us.
//!
//! `serve_point` — the prepared point lookup on `customer` with seeded-random
//! keys. Executor work per request is near zero, so frame codec,
//! reader→worker hand-off, syscalls, cache hit and parameter patching own
//! the time (`net`, `serve`, `core`); `exec` is nearly idle.
//!
//! `serve_mixed` — the same server under a seeded mix of four classes:
//! `point` (the same lookup sent as a QUERY frame with its parameter, so
//! every request is a statement-cache hit and an LRU touch, where
//! `serve_point` executes a prepared handle and never looks the cache up),
//! `adhoc` (a QUERY frame with a never-repeated SQL text: cache miss,
//! parse/bind/optimize/lower, LRU insert and evict against the 128-entry
//! cache), `wide` (prepared range over `customer`, 500 rows x 4 columns, two
//! of them strings: result encode/write/decode; the issue's range over
//! `orders` spent two thirds of its time scanning 300 k rows) and `q6param`
//! (a 1.2 M-row scan/aggregate at `workers = 2`: shared morsel pool,
//! head-of-line effects). The same layers used differently — miss beside
//! hit, large result beside small, heavy beside light — so a gain for
//! `point` that costs `adhoc` or `q6param` shows.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tqp_core::{QueryConfig, Session};
use tqp_data::tpch::TpchData;
use tqp_data::{Column, DataFrame};
use tqp_net::{NetClient, NetConfig, NetServer, RemoteResult, RemoteStatement};
use tqp_serve::Server;
use tqp_tensor::Scalar;

use super::{
    engine_config, f64_column, generate_tpch, i64_column, repeat_setup, OpTotals, PhaseCounters,
};
use crate::estimators::{geomean, median, quantile_sorted, Sample, Windows};
use crate::metrics::{Report, CLASSES};
use crate::rng::{fnv_mix, SplitMix64, FNV_OFFSET};
use crate::trace::Tracer;
use crate::verify::{floats_agree, Digest};
use crate::{data_seed, Options, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Point,
    Mixed,
}

const POINT: usize = 0;
const ADHOC: usize = 1;
const WIDE: usize = 2;
const Q6PARAM: usize = 3;

const POINT_SQL: &str = "select c_custkey, c_acctbal from customer where c_custkey = $1";
const WIDE_SQL: &str = "select c_custkey, c_name, c_acctbal, c_phone from customer \
     where c_custkey between $1 and $2";
const Q6_SQL: &str = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
     where l_quantity < $1 and l_discount between $2 and $3";

/// The prepared text of each class; `adhoc` has none, its text is new every
/// time.
const CLASS_SQL: [Option<&str>; 4] = [Some(POINT_SQL), None, Some(WIDE_SQL), Some(Q6_SQL)];

/// Rows a `wide` request returns.
const WIDE_ROWS: usize = 500;
/// Distinct `q6param` parameter vectors; each has a precomputed answer.
const Q6_VECTORS: usize = 16;
/// Every `VERIFY_EVERY`-th reply of a connection is compared in full with
/// the oracle; every reply is checked for its row count.
const VERIFY_EVERY: u64 = 64;

impl Mix {
    /// Class weights in requests per 10 000, tuned at seed so that each
    /// class owns 15-35 % of the busy time of `serve_mixed` (see README).
    fn weights(self) -> [u64; 4] {
        match self {
            Mix::Point => [10_000, 0, 0, 0],
            Mix::Mixed => [6_600, 1_700, 1_650, 50],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Point => "serve_point",
            Mix::Mixed => "serve_mixed",
        }
    }

    fn classes(self) -> Vec<usize> {
        (0..4).filter(|c| self.weights()[*c] > 0).collect()
    }

    /// Window length: long enough that the rarest class fills a window.
    fn window(self) -> Duration {
        match self {
            Mix::Point => Duration::from_millis(250),
            Mix::Mixed => Duration::from_millis(500),
        }
    }
}

/// What the op stream needs to know of the data: nothing but sizes, so the
/// stream is a pure function of the seed.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub customers: u64,
}

/// One request as drawn from the seeded stream, before it is turned into
/// parameters or SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    pub class: usize,
    /// point: customer ordinal. adhoc: three customer ordinals. wide: first
    /// customer ordinal in key order. q6param: parameter-vector index.
    pub x: [u64; 3],
}

impl Draw {
    pub fn next(rng: &mut SplitMix64, mix: Mix, sizes: Sizes) -> Draw {
        let mut ticket = rng.below(10_000);
        let mut class = POINT;
        for (c, w) in mix.weights().into_iter().enumerate() {
            if ticket < w {
                class = c;
                break;
            }
            ticket -= w;
        }
        let x = match class {
            POINT => [rng.below(sizes.customers), 0, 0],
            ADHOC => [
                rng.below(sizes.customers),
                rng.below(sizes.customers),
                rng.below(sizes.customers),
            ],
            WIDE => [rng.below(sizes.customers - WIDE_ROWS as u64 + 1), 0, 0],
            _ => [rng.below(Q6_VECTORS as u64), 0, 0],
        };
        Draw { class, x }
    }
}

/// Hash of the first `n` draws of connection `lane`: equal seeds give equal
/// streams, different seeds different ones.
pub fn op_stream_hash(seed: u64, lane: u64, mix: Mix, sizes: Sizes, n: usize) -> u64 {
    let mut rng = SplitMix64::stream(seed, lane);
    (0..n).fold(FNV_OFFSET, |h, _| {
        let d = Draw::next(&mut rng, mix, sizes);
        d.x.iter()
            .fold(fnv_mix(h, d.class as u64), |h, v| fnv_mix(h, *v))
    })
}

/// The answers, computed by the harness from the generated frames without
/// going through the engine.
struct Oracle {
    sizes: Sizes,
    cust_key: Arc<Vec<i64>>,
    cust_nation: Arc<Vec<i64>>,
    cust_acctbal: Arc<Vec<f64>>,
    /// The four columns `wide` selects, in table order.
    customer4: DataFrame,
    /// Customer ordinals sorted by key: a key range is a slice of this.
    customers_by_key: Vec<usize>,
    q6_params: Vec<[f64; 3]>,
    q6_revenue: Vec<f64>,
}

impl Oracle {
    fn new(data: &TpchData) -> Oracle {
        let cust_key = i64_column(&data.customer, "c_custkey");
        let mut customers_by_key: Vec<usize> = (0..cust_key.len()).collect();
        customers_by_key.sort_by_key(|&i| cust_key[i]);
        let cols = ["c_custkey", "c_name", "c_acctbal", "c_phone"];
        let customer4 = tqp_data::frame::df(
            cols.iter()
                .map(|c| {
                    let col = data.customer.column_by_name(c).expect("customer column");
                    (*c, col.clone())
                })
                .collect(),
        );
        let q6_params: Vec<[f64; 3]> = (0..Q6_VECTORS)
            .map(|i| {
                let lo = 0.02 + (i % 4) as f64 * 0.01;
                [20.0 + (i / 4) as f64 * 2.0, lo, lo + 0.02]
            })
            .collect();
        let (qty, price, disc) = (
            f64_column(&data.lineitem, "l_quantity"),
            f64_column(&data.lineitem, "l_extendedprice"),
            f64_column(&data.lineitem, "l_discount"),
        );
        let q6_revenue = q6_params
            .iter()
            .map(|&[q, lo, hi]| {
                (0..qty.len())
                    .filter(|&i| qty[i] < q && disc[i] >= lo && disc[i] <= hi)
                    .map(|i| price[i] * disc[i])
                    .sum()
            })
            .collect();
        Oracle {
            sizes: Sizes {
                customers: cust_key.len() as u64,
            },
            cust_key,
            cust_nation: i64_column(&data.customer, "c_nationkey"),
            cust_acctbal: f64_column(&data.customer, "c_acctbal"),
            customer4,
            customers_by_key,
            q6_params,
            q6_revenue,
        }
    }

    /// Ordinals of the customers a `wide` draw selects, in table order.
    fn wide_rows(&self, draw: &Draw) -> Vec<usize> {
        let first = draw.x[0] as usize;
        let mut rows = self.customers_by_key[first..first + WIDE_ROWS].to_vec();
        rows.sort_unstable();
        rows
    }

    /// Distinct customer ordinals of an `adhoc` draw, in table order.
    fn adhoc_rows(&self, draw: &Draw) -> Vec<usize> {
        let mut rows: Vec<usize> = draw.x.iter().map(|&o| o as usize).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    fn params(&self, draw: &Draw) -> Vec<Scalar> {
        match draw.class {
            POINT => vec![Scalar::I64(self.cust_key[draw.x[0] as usize])],
            WIDE => {
                let first = draw.x[0] as usize;
                let key = |i: usize| Scalar::I64(self.cust_key[self.customers_by_key[i]]);
                vec![key(first), key(first + WIDE_ROWS - 1)]
            }
            Q6PARAM => self.q6_params[draw.x[0] as usize]
                .iter()
                .map(|v| Scalar::F64(*v))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The literal text of an `adhoc` draw; `salt` makes it unique within a
    /// connection without changing its answer.
    fn adhoc_sql(&self, draw: &Draw, salt: u64) -> String {
        let key = |o: u64| self.cust_key[o as usize];
        format!(
            "select c_custkey, c_nationkey, c_acctbal from customer \
             where c_custkey in ({}, {}, {}) and c_custkey > -{salt}",
            key(draw.x[0]),
            key(draw.x[1]),
            key(draw.x[2])
        )
    }

    fn expected_rows(&self, draw: &Draw) -> u64 {
        match draw.class {
            ADHOC => self.adhoc_rows(draw).len() as u64,
            WIDE => WIDE_ROWS as u64,
            _ => 1,
        }
    }

    /// Full comparison of a reply with the answer.
    fn verify(&self, draw: &Draw, frame: &DataFrame) -> bool {
        let ints = |c: usize| match frame.column(c) {
            Column::Int64(v) | Column::Date(v) => Some(Arc::clone(v)),
            _ => None,
        };
        let floats = |c: usize| match frame.column(c) {
            Column::Float64(v) => Some(Arc::clone(v)),
            _ => None,
        };
        match draw.class {
            POINT => {
                let row = draw.x[0] as usize;
                frame.ncols() == 2
                    && ints(0).is_some_and(|k| *k == [self.cust_key[row]])
                    && floats(1).is_some_and(|b| *b == [self.cust_acctbal[row]])
            }
            ADHOC => {
                let rows = self.adhoc_rows(draw);
                let want = |col: &Arc<Vec<i64>>| rows.iter().map(|&r| col[r]).collect::<Vec<_>>();
                frame.ncols() == 3
                    && ints(0).is_some_and(|k| *k == want(&self.cust_key))
                    && ints(1).is_some_and(|n| *n == want(&self.cust_nation))
                    && floats(2).is_some_and(|b| {
                        *b == rows
                            .iter()
                            .map(|&r| self.cust_acctbal[r])
                            .collect::<Vec<_>>()
                    })
            }
            WIDE => {
                Digest::of(frame).matches(&Digest::of(&self.customer4.take(&self.wide_rows(draw))))
            }
            _ => {
                frame.ncols() == 1
                    && floats(0).is_some_and(|v| {
                        v.len() == 1 && floats_agree(v[0], self.q6_revenue[draw.x[0] as usize])
                    })
            }
        }
    }
}

/// One closed-loop connection with its prepared handles.
struct Connection {
    client: NetClient,
    /// Handle per class; `adhoc` has none, and neither has `point` in the
    /// mix, where it goes through the statement cache on every request.
    stmts: [Option<RemoteStatement>; 4],
    cfg: QueryConfig,
    rng: SplitMix64,
    lane: u64,
    sent: u64,
    attempted: u64,
    failed: u64,
}

impl Connection {
    fn open(addr: std::net::SocketAddr, mix: Mix, seed: u64, lane: u64) -> Connection {
        let mut client = NetClient::connect(addr).expect("connect to the loopback server");
        let cfg = engine_config();
        let mut stmts = [None; 4];
        for (class, sql) in CLASS_SQL.iter().enumerate() {
            let Some(sql) = sql else { continue };
            if mix.weights()[class] > 0 && (class, mix) != (POINT, Mix::Mixed) {
                stmts[class] = Some(
                    client
                        .prepare(sql, &cfg)
                        .unwrap_or_else(|e| panic!("prepare {}: {e}", CLASSES[class])),
                );
            }
        }
        Connection {
            client,
            stmts,
            cfg,
            rng: SplitMix64::stream(seed, lane),
            lane,
            sent: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Send one request and wait for its reply: the timed part.
    fn send(&mut self, oracle: &Oracle, draw: &Draw) -> (Result<RemoteResult, String>, Duration) {
        self.sent += 1;
        if draw.class == ADHOC {
            // Unique per (connection, request): never a cache hit.
            let sql = oracle.adhoc_sql(draw, self.sent * 2 + self.lane);
            let t0 = Instant::now();
            let reply = self.client.query(&sql, &self.cfg, &[]);
            (reply.map_err(|e| e.to_string()), t0.elapsed())
        } else {
            let params = oracle.params(draw);
            let t0 = Instant::now();
            let reply = match self.stmts[draw.class] {
                Some(stmt) => self.client.execute(&stmt, &params, None),
                None => self.client.query(POINT_SQL, &self.cfg, &params),
            };
            (reply.map_err(|e| e.to_string()), t0.elapsed())
        }
    }

    /// One operation: send, then check. A refused, errored or wrong reply is
    /// a failure and has no latency.
    fn operation(&mut self, oracle: &Oracle, draw: &Draw, full_check: bool) -> Option<Duration> {
        let (reply, latency) = self.send(oracle, draw);
        self.attempted += 1;
        let ok = match reply {
            Ok(r) => {
                r.rows == oracle.expected_rows(draw)
                    && (!full_check || oracle.verify(draw, &r.frame))
            }
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("{} request failed: {e}", CLASSES[draw.class]);
                }
                false
            }
        };
        if !ok {
            self.failed += 1;
            return None;
        }
        Some(latency)
    }

    /// Closed loop until `deadline`; samples are stamped relative to `origin`.
    fn run_until(
        &mut self,
        oracle: &Oracle,
        mix: Mix,
        origin: Instant,
        deadline: Instant,
    ) -> Vec<Sample> {
        let mut samples = Vec::with_capacity(1 << 16);
        while Instant::now() < deadline {
            let draw = Draw::next(&mut self.rng, mix, oracle.sizes);
            let full_check = self.sent.is_multiple_of(VERIFY_EVERY);
            if let Some(latency) = self.operation(oracle, &draw, full_check) {
                samples.push(Sample {
                    done_ns: origin.elapsed().as_nanos() as u64,
                    lat_ns: latency.as_nanos() as u64,
                    class: draw.class as u8,
                });
            }
        }
        samples
    }
}

struct State {
    oracle: Arc<Oracle>,
    server: Arc<Server>,
    net: NetServer,
    connections: Vec<Connection>,
    gen_s: f64,
}

impl State {
    fn build(opts: &Options, scale: &Scale, mix: Mix) -> State {
        let t0 = Instant::now();
        let data = generate_tpch(scale.sf, data_seed(opts.seed));
        let gen_s = t0.elapsed().as_secs_f64();
        let oracle = Arc::new(Oracle::new(&data));
        let mut session = Session::new();
        session.register_tpch(&data);
        drop(data);
        let server = Arc::new(Server::new(session));
        let net = NetServer::bind(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
            .expect("bind the loopback front-end");
        let connections = (0..2)
            .map(|lane| Connection::open(net.local_addr(), mix, opts.seed, lane))
            .collect();
        State {
            oracle,
            server,
            net,
            connections,
            gen_s,
        }
    }

    /// Both connections in a closed loop for `duration`.
    fn phase(&mut self, mix: Mix, duration: Duration) -> Vec<Sample> {
        let barrier = Barrier::new(self.connections.len());
        let oracle = &self.oracle;
        let origin = Instant::now();
        let mut samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .connections
                .iter_mut()
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        conn.run_until(oracle, mix, origin, origin + duration)
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        samples.sort_by_key(|s| s.done_ns);
        samples
    }

    /// A fixed 16-vector sample per class, fully checked, before any timing.
    fn verify_sample(&mut self, mix: Mix) {
        let mut rng = SplitMix64::new(0x5eed_5a3f);
        let oracle = Arc::clone(&self.oracle);
        for class in mix.classes() {
            let mut checked = 0;
            while checked < 16 {
                let draw = Draw::next(&mut rng, mix, oracle.sizes);
                if draw.class == class {
                    self.connections[checked % 2].operation(&oracle, &draw, true);
                    checked += 1;
                }
            }
        }
    }

    /// Move the connections' operation counts into the report.
    fn drain_counts(&mut self, report: &mut Report) {
        for c in &mut self.connections {
            report.attempted += std::mem::take(&mut c.attempted);
            report.failed += std::mem::take(&mut c.failed);
        }
    }
}

impl Drop for State {
    /// Clients first, then the server: `shutdown` joins every thread.
    fn drop(&mut self) {
        self.connections.clear();
        self.net.shutdown();
    }
}

/// Windows of a measured phase of `seconds`, whole windows only.
fn windows_of(samples: &[Sample], mix: Mix, seconds: f64) -> Windows {
    let window = mix.window();
    let n = (seconds / window.as_secs_f64()).floor().max(1.0) as usize;
    Windows::new(samples, window.as_nanos() as u64, n, CLASSES.len())
}

/// Fewest samples a window needs for its in-window percentile to count:
/// ten beyond a p95, and a median of the rarest class.
const MIN_P95_SAMPLES: usize = 200;
const MIN_P50_SAMPLES: usize = 8;

fn class_p50(windows: &Windows, class: usize) -> (f64, usize) {
    let (value, dropped) = windows.quiet_percentile(&[class], 0.5, MIN_P50_SAMPLES);
    let value =
        value.unwrap_or_else(|| panic!("no window holds enough {} samples", CLASSES[class]));
    (value, dropped)
}

fn end_to_end(windows: &Windows, mix: Mix, report: &mut Report) {
    report.set("ops_per_s", windows.quiet_rate());
    let p50s: Vec<f64> = mix
        .classes()
        .into_iter()
        .map(|c| class_p50(windows, c).0)
        .collect();
    report.set("lat_geomean_us", geomean(&p50s));
    let p95 = windows
        .quiet_percentile(&mix.classes(), 0.95, MIN_P95_SAMPLES)
        .0
        .expect("no window holds enough samples for a p95");
    report.set("lat_p95_us", p95);
}

pub fn run(opts: &Options, mix: Mix) -> Report {
    let scale = Scale::of(opts);
    let mut report = Report::default();
    let (mut state, setups) = repeat_setup(scale.setup_budget_s, || {
        let mut state = State::build(opts, &scale, mix);
        state.verify_sample(mix);
        state.phase(mix, Duration::from_secs_f64(scale.warmup_s));
        state.drain_counts(&mut report);
        state
    });
    if opts.trace {
        traced_run(opts, mix, &mut state, &mut report);
    } else {
        let samples = state.phase(mix, Duration::from_secs_f64(opts.seconds));
        end_to_end(&windows_of(&samples, mix, opts.seconds), mix, &mut report);
        report.set("setup_s", median(&setups));
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
    }
    state.drain_counts(&mut report);
    report
}

/// In-process calls per layer function and class: at most this many ...
const CALLS: usize = 2000;
/// ... or this long, whichever ends first (but three calls at least).
const CALL_BUDGET: Duration = Duration::from_millis(400);

/// Mean microseconds per call of `f`, which gets the call's number. The
/// first calls are recorded as spans.
fn timed_calls(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &str,
    mut f: impl FnMut(usize),
) -> f64 {
    const SPANS: usize = 8;
    let started = Instant::now();
    let (mut total_us, mut calls) = (0.0, 0);
    while calls < CALLS && (calls < 3 || started.elapsed() < CALL_BUDGET) {
        if calls < SPANS {
            tracer.next_request();
            total_us += tracer.span(layer, name, |_| f(calls)).1;
        } else {
            let t0 = Instant::now();
            f(calls);
            total_us += t0.elapsed().as_nanos() as f64 / 1e3;
        }
        calls += 1;
    }
    total_us / calls as f64
}

/// The per-layer run of a serving workload: a short closed-loop phase for
/// the loaded numbers and the registry deltas, a single-connection probe,
/// then every layer function called in-process on each class's requests,
/// and one traced request per class fetched with `NetClient::profile`.
fn traced_run(opts: &Options, mix: Mix, state: &mut State, report: &mut Report) {
    let mut tracer = Tracer::new();
    let cfg = engine_config();
    let oracle = Arc::clone(&state.oracle);
    let server = Arc::clone(&state.server);

    // Loaded phase.
    let seconds = opts.seconds.min(6.0);
    let cache_before = server.cache_stats();
    let counters = PhaseCounters::start();
    let samples = state.phase(mix, Duration::from_secs_f64(seconds));
    let ops: u64 = state.connections.iter().map(|c| c.attempted).sum();
    counters.finish(ops, report);
    let cache = server.cache_stats();
    let windows = windows_of(&samples, mix, seconds);
    let classes = mix.classes();
    let pooled = windows.pooled(&classes);
    report.set("raw.qps_all", samples.len() as f64 / seconds);
    report.set("raw.lat_p50_us", quantile_sorted(&pooled, 0.5));
    report.set("net.lat_p99_us", quantile_sorted(&pooled, 0.99));
    report.set("net.lat_p999_us", quantile_sorted(&pooled, 0.999));
    let mut dropped = windows.quiet_percentile(&classes, 0.95, MIN_P95_SAMPLES).1;
    let mut rtt = [0.0; 4];
    for &c in &classes {
        let (p50, d) = class_p50(&windows, c);
        rtt[c] = p50;
        dropped += d;
        report.set(format!("net.rtt_us.{}", CLASSES[c]), p50);
    }
    report.set("raw.windows_dropped", dropped as f64);
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    report.set("cache.hits", hits as f64);
    report.set("cache.misses", misses as f64);
    report.set(
        "cache.evictions",
        (cache.evictions - cache_before.evictions) as f64,
    );
    report.set(
        "cache.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    match state.connections[0].client.stats_full() {
        Ok((stats, snapshot)) => {
            report.set("net.overloaded", stats.overload_rejected as f64);
            if let Some(h) = snapshot.histogram("net.query_us") {
                report.set("net.server_p50_us", h.p50() as f64);
            }
        }
        Err(e) => eprintln!("STATS failed: {e}"),
    }
    report.set("data.gen_s", state.gen_s);

    // One connection alone: the cores idle between requests, so this is
    // the host's wake-up latency more than the program (ungated).
    {
        let conn = &mut state.connections[0];
        let mut rng = SplitMix64::new(opts.seed ^ 0x1c0);
        let deadline = Instant::now() + Duration::from_millis(1500);
        let mut lat = Vec::new();
        while Instant::now() < deadline {
            let draw = Draw::next(&mut rng, Mix::Point, oracle.sizes);
            if let Some(l) = conn.operation(&oracle, &draw, false) {
                lat.push(l.as_nanos() as f64 / 1e3);
            }
        }
        crate::estimators::sort(&mut lat);
        report.set("net.rtt_1conn_p50_us", quantile_sorted(&lat, 0.5));
    }

    // Every layer function in-process, on requests of each class.
    let session = server.session();
    // Drawn from the full mix whatever the workload's own: a class's draws
    // are the same in both, and the miss path needs ad-hoc texts.
    let draws_of = |class: usize| -> Vec<Draw> {
        let mut rng = SplitMix64::new(opts.seed ^ 0x7ace);
        std::iter::repeat_with(|| Draw::next(&mut rng, Mix::Mixed, oracle.sizes))
            .filter(|d| d.class == class)
            .take(CALLS)
            .collect()
    };
    let mut salt = 1u64 << 40;
    let mut fresh_adhoc = |draw: &Draw| {
        salt += 1;
        oracle.adhoc_sql(draw, salt)
    };
    // Compile pipeline on the text the workload compiles most: a fresh
    // ad-hoc statement where the mix has them, else the point statement.
    let compile_draws = draws_of(if classes.contains(&ADHOC) {
        ADHOC
    } else {
        POINT
    });
    let mut compile_text = |i: usize| match compile_draws[i].class {
        ADHOC => fresh_adhoc(&compile_draws[i]),
        _ => POINT_SQL.to_string(),
    };
    let texts: Vec<String> = (0..CALLS).map(&mut compile_text).collect();
    let parse = timed_calls(&mut tracer, "sql", "parse_statement", |i| {
        std::hint::black_box(tqp_sql::parse_statement(&texts[i]).is_ok());
    });
    let plan = timed_calls(&mut tracer, "ir", "compile_sql", |i| {
        std::hint::black_box(
            tqp_ir::compile_sql(&texts[i], session.catalog(), &cfg.physical).is_ok(),
        );
    });
    let compile = timed_calls(&mut tracer, "core", "Session::compile", |i| {
        std::hint::black_box(session.compile(&texts[i], cfg).is_ok());
    });
    let prepare = timed_calls(&mut tracer, "core", "Session::prepare", |i| {
        std::hint::black_box(session.prepare(&texts[i], cfg).is_ok());
    });
    report.set("sql.parse_us", parse);
    report.set("ir.plan_us", (plan - parse).max(0.0));
    report.set("exec.lower_us", (compile - plan).max(0.0));
    report.set("core.compile_us", compile);
    report.set("core.prepare_us", prepare);
    let hit = timed_calls(&mut tracer, "serve", "Server::prepare hit", |_| {
        std::hint::black_box(server.prepare(POINT_SQL, cfg).is_ok());
    });
    let miss_texts: Vec<String> = draws_of(ADHOC).iter().map(&mut fresh_adhoc).collect();
    let miss = timed_calls(&mut tracer, "serve", "Server::prepare miss", |i| {
        std::hint::black_box(server.prepare(&miss_texts[i], cfg).is_ok());
    });
    report.set("serve.hit_us", hit);
    report.set("serve.miss_us", miss);

    let mut op_totals = OpTotals::default();
    for &c in &classes {
        let name = CLASSES[c];
        let draws = draws_of(c);
        let sql = CLASS_SQL[c].map_or_else(|| fresh_adhoc(&draws[0]), String::from);
        let prepared = session
            .prepare(&sql, cfg)
            .unwrap_or_else(|e| panic!("{name} does not prepare: {e}"));
        let mut failures = 0u64;
        let mut last_frame = None;
        let core_us = timed_calls(
            &mut tracer,
            "core",
            &format!("PreparedQuery::execute {name}"),
            |i| {
                // The ad-hoc statement is one text: its own draw every time.
                let draw = if c == ADHOC { &draws[0] } else { &draws[i] };
                match prepared.execute(&session, &oracle.params(draw)) {
                    Ok((frame, _)) => last_frame = Some(frame),
                    Err(_) => failures += 1,
                }
            },
        );
        report.set(format!("core.execute_us.{name}"), core_us);
        let adhoc_texts: Vec<String> = if c == ADHOC {
            draws.iter().map(&mut fresh_adhoc).collect()
        } else {
            Vec::new()
        };
        let serve_us = timed_calls(
            &mut tracer,
            "serve",
            &format!("Server::execute {name}"),
            |i| {
                let ran = if c == ADHOC {
                    server.query(&adhoc_texts[i], cfg, &[])
                } else {
                    server.execute(&prepared, &oracle.params(&draws[i]))
                };
                failures += u64::from(ran.is_err());
            },
        );
        report.set(format!("serve.execute_us.{name}"), serve_us);
        report.set(format!("net.overhead_us.{name}"), rtt[c] - serve_us);
        if let Some(frame) = last_frame {
            let mut bytes = 0;
            let codec_us = timed_calls(&mut tracer, "net", &format!("wire codec {name}"), |_| {
                let mut w = tqp_net::wire::PayloadWriter::new(tqp_net::Op::Result);
                tqp_net::wire::write_dataframe(&mut w, &frame);
                let wire = w.frame();
                bytes = wire.len();
                // Skip the length prefix and the opcode byte.
                let mut r = tqp_net::wire::PayloadReader::new(&wire[5..]);
                failures += u64::from(tqp_net::wire::read_dataframe(&mut r).is_err());
            });
            report.set(format!("net.codec_us.{name}"), codec_us);
            report.set(format!("net.result_bytes.{name}"), bytes as f64);
        }
        report.attempted += 1;
        report.failed += u64::from(failures > 0);
    }
    drop(session);

    // One traced request per class over the socket; its operator spans come
    // back through PROFILE and hang under the client's round trip.
    let traced_cfg = cfg.trace(true);
    for &c in &classes {
        let name = CLASSES[c];
        let draw = draws_of(c)[0];
        let client = &mut state.connections[1].client;
        tracer.next_request();
        let (reply, _) = tracer.span(
            "net",
            &format!("traced request {name}"),
            |_| match CLASS_SQL[c] {
                None => client.query(&oracle.adhoc_sql(&draw, 1 << 50), &traced_cfg, &[]),
                Some(sql) => {
                    let stmt = client.prepare(sql, &traced_cfg)?;
                    client.execute(&stmt, &oracle.params(&draw), None)
                }
            },
        );
        report.attempted += 1;
        match (reply, client.profile()) {
            (Ok(r), Ok(Some(trace))) if oracle.verify(&draw, &r.frame) => {
                tracer.attach_query_trace(&trace);
                op_totals.add(&trace);
            }
            (reply, profile) => {
                eprintln!(
                    "traced {name} request failed: reply ok={}, profile ok={}",
                    reply.is_ok(),
                    profile.is_ok()
                );
                report.failed += 1;
            }
        }
    }
    op_totals.report(report);

    tracer.write(mix.name());
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: Sizes = Sizes { customers: 30_000 };

    #[test]
    fn same_seed_same_op_stream_different_seed_different() {
        for mix in [Mix::Point, Mix::Mixed] {
            let h = |seed, lane| op_stream_hash(seed, lane, mix, SIZES, 10_000);
            assert_eq!(h(42, 0), h(42, 0));
            assert_ne!(h(42, 0), h(43, 0));
            assert_ne!(h(42, 0), h(42, 1));
        }
    }

    #[test]
    fn the_mix_draws_every_class_at_its_weight() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [0u64; 4];
        let n = 200_000;
        for _ in 0..n {
            let d = Draw::next(&mut rng, Mix::Mixed, SIZES);
            seen[d.class] += 1;
            assert!(d.x[0] < SIZES.customers);
        }
        assert_eq!(Mix::Mixed.weights().iter().sum::<u64>(), 10_000);
        for (count, weight) in seen.iter().zip(Mix::Mixed.weights()) {
            let expected = n as f64 * weight as f64 / 10_000.0;
            assert!(
                (*count as f64 - expected).abs() < 0.05 * expected + 30.0,
                "{seen:?}"
            );
        }
        assert_eq!(Mix::Point.classes(), vec![POINT]);
    }
}
