//! Observability over the wire: the socket front-end must expose the same
//! telemetry as in-process execution —
//!
//! 1. a slow query is logged **exactly once** (the core choke point fires
//!    regardless of which surface issued the query) with a live trace id;
//! 2. `PROFILE` returns the previous traced query's [`QueryTrace`], with
//!    per-op row attribution identical to an in-process traced run;
//! 3. untraced queries never allocate a trace — `PROFILE` stays empty;
//! 4. `STATS` carries a metrics-registry snapshot that decodes and parses
//!    as Prometheus exposition text.

use std::sync::{Arc, Mutex, OnceLock};

use tqp_repro::core::{QueryConfig, Session};
use tqp_repro::data::frame::df;
use tqp_repro::data::Column;
use tqp_repro::net::{NetClient, NetConfig, NetServer};
use tqp_repro::obs;
use tqp_repro::serve::Server;

/// Tests here mutate process-global observability state (the slow-query
/// ring, the metrics registry). Serialize them.
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn session() -> Session {
    let mut s = Session::new();
    s.register_table(
        "t",
        df(vec![
            ("id", Column::from_i64((0..4000).collect())),
            ("grp", Column::from_i64((0..4000).map(|i| i % 11).collect())),
            (
                "v",
                Column::from_f64((0..4000).map(|i| i as f64 * 0.5).collect()),
            ),
        ]),
    );
    s
}

fn serving() -> (Arc<Server>, NetServer) {
    let server = Arc::new(Server::new(session()));
    let net = NetServer::bind(server.clone(), "127.0.0.1:0", NetConfig::default()).unwrap();
    (server, net)
}

#[test]
fn slow_query_logged_exactly_once_over_socket() {
    let _g = obs_lock().lock().unwrap();
    obs::clear_slow_queries();
    let (_server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    // Unique marker so concurrent logging from other tests (which hold the
    // lock, but belt and braces) can't be confused with ours.
    let sql = "select grp, sum(v) as s_slowmark_1 from t group by grp order by grp";
    let cfg = QueryConfig::default().trace(true).slow_query_ms(0);
    let result = c.query(sql, &cfg, &[]).unwrap();
    assert_eq!(result.frame.nrows(), 11);

    let hits: Vec<_> = obs::slow_queries()
        .into_iter()
        .filter(|q| q.sql.contains("s_slowmark_1"))
        .collect();
    assert_eq!(hits.len(), 1, "slow query must be logged exactly once");
    assert_eq!(hits[0].threshold_ms, 0);
    assert!(hits[0].trace_id > 0);
    assert_eq!(hits[0].rows, 11);

    // The PROFILE frame hands back the same trace the slow log recorded.
    let trace = c.profile().unwrap().expect("traced query should profile");
    assert_eq!(trace.trace_id, hits[0].trace_id);
    assert_eq!(trace.sql, sql);

    net.shutdown();
}

#[test]
fn profile_over_socket_matches_in_process_trace() {
    let _g = obs_lock().lock().unwrap();
    let (server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    let sql = "select grp, count(*) as c, sum(v) as s from t where id % 2 = 0 \
               group by grp order by grp";
    let cfg = QueryConfig::default().workers(4).trace(true);

    let result = c.query(sql, &cfg, &[]).unwrap();
    let wire = c.profile().unwrap().expect("trace over the wire");

    let (frame, _stats, local) = server.query_traced(sql, cfg, &[]).unwrap();
    let local = local.expect("in-process trace");

    // Same query, same config: identical shape and per-op attribution.
    assert_eq!(result.frame.nrows(), frame.nrows());
    assert_eq!(wire.backend, local.backend);
    assert_eq!(wire.workers, local.workers);
    assert_eq!(wire.rows, local.rows);
    assert_eq!(wire.chunks_scanned, local.chunks_scanned);
    assert_eq!(wire.simd_dispatch, local.simd_dispatch);
    assert!(!wire.ops.is_empty());
    let key = |t: &obs::QueryTrace| -> Vec<(u64, String, u64, u64)> {
        t.ops
            .iter()
            .map(|o| (o.op_index, o.name.clone(), o.calls, o.rows))
            .collect()
    };
    assert_eq!(key(&wire), key(&local), "per-op span totals must match");

    net.shutdown();
}

#[test]
fn untraced_queries_never_allocate_a_trace() {
    let _g = obs_lock().lock().unwrap();
    let (server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    let sql = "select count(*) as c from t";
    c.query(sql, &QueryConfig::default(), &[]).unwrap();
    assert!(
        c.profile().unwrap().is_none(),
        "untraced query must not produce a PROFILE trace"
    );
    let (_, _, trace) = server
        .query_traced(sql, QueryConfig::default(), &[])
        .unwrap();
    assert!(trace.is_none(), "in-process untraced run allocated a trace");

    // A traced query then sets the connection's last trace; a following
    // untraced query leaves it in place rather than clearing it.
    c.query(sql, &QueryConfig::default().trace(true), &[])
        .unwrap();
    c.query(sql, &QueryConfig::default(), &[]).unwrap();
    let t = c.profile().unwrap().expect("last traced query retained");
    assert_eq!(t.sql, sql);

    net.shutdown();
}

#[test]
fn prepared_statements_carry_trace_knobs_over_socket() {
    let _g = obs_lock().lock().unwrap();
    obs::clear_slow_queries();
    let (_server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    let sql = "select count(*) as c_slowmark_2 from t where id < $1";
    let cfg = QueryConfig::default().trace(true).slow_query_ms(0);
    let stmt = c.prepare(sql, &cfg).unwrap();
    let r = c
        .execute(&stmt, &[tqp_tensor::Scalar::I64(100)], None)
        .unwrap();
    assert_eq!(r.frame.nrows(), 1);

    let trace = c
        .profile()
        .unwrap()
        .expect("EXECUTE honors prepare-time trace");
    assert_eq!(trace.sql, sql);
    let hits: Vec<_> = obs::slow_queries()
        .into_iter()
        .filter(|q| q.sql.contains("c_slowmark_2"))
        .collect();
    assert_eq!(hits.len(), 1, "prepared slow query logged exactly once");
    assert_eq!(hits[0].trace_id, trace.trace_id);

    net.shutdown();
}

#[test]
fn stats_reply_carries_decodable_registry_snapshot() {
    let _g = obs_lock().lock().unwrap();
    let (_server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    for _ in 0..3 {
        c.query("select count(*) as c from t", &QueryConfig::default(), &[])
            .unwrap();
    }
    let (stats, snapshot) = c.stats_full().unwrap();
    assert!(stats.queries_ok >= 3);
    assert!(
        snapshot.counter("net.queries_ok") >= 3,
        "registry snapshot should mirror the front-end counters"
    );
    // The snapshot renders as Prometheus exposition text.
    let text = snapshot.prometheus_text();
    assert!(text.contains("net_queries_ok"));

    net.shutdown();
}

#[test]
fn explain_analyze_works_over_the_socket() {
    let _g = obs_lock().lock().unwrap();
    let (_server, mut net) = serving();
    let mut c = NetClient::connect(net.local_addr()).unwrap();

    let r = c
        .query(
            "explain analyze select grp, sum(v) as s from t group by grp",
            &QueryConfig::default(),
            &[],
        )
        .unwrap();
    assert_eq!(r.frame.schema().fields[0].name, "plan");
    let lines: Vec<String> = (0..r.frame.nrows())
        .map(|i| format!("{}", r.frame.row(i)[0]))
        .collect();
    assert!(lines.iter().any(|l| l.contains("Scan(t)")));
    assert!(
        lines.iter().any(|l| l.contains("actual=4000 rows")),
        "scan actuals must ride the wire: {lines:?}"
    );

    net.shutdown();
}
