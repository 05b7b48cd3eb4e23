//! `scan_predict`: scans, PREDICT-in-SQL and one ingest over a
//! `tqp-store`-backed lineitem, in-process, in interleaved passes.
//!
//! Why it exists: chunk decode, zone maps, expression kernels and `ml` own
//! the time and the hash engine does nothing (a stored Q1-shape scan is
//! decode-bound). The ingest beside the scans makes an encoding change that
//! helps reads and hurts writes visible, and PREDICT-in-SQL is the paper's
//! third claim. `sql`, `ir`, `serve` and `net` are idle.
//!
//! Sizes at SF 0.2: lineitem 1.2 M rows clustered on `l_shipdate` in
//! 4096-row chunks, `reviews` 50 k rows in memory, models trained on a
//! fixed 2 k-row sample, ingest of a 100 k-row CSV slice. They are set so
//! that every read statement costs 10-500 ms and the three PREDICT
//! statements own 30-50 % of a pass (the issue's 200 k reviews and a
//! one-year GBT slice made them 1.5 s and 0.75 s, 70 % of the pass).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tqp_core::{CompiledQuery, Session};
use tqp_data::{csv, datasets, Column, DataFrame};
use tqp_exec::TableSource;
use tqp_ml::compile::{CompiledTrees, TreeStrategy};
use tqp_ml::linear::LinearRegression;
use tqp_ml::text::TextClassifier;
use tqp_ml::tree::{GradientBoostedTrees, TreeParams};
use tqp_ml::Model;
use tqp_store::{store_csv, store_frame, StoredTable};
use tqp_tensor::Tensor;

use super::{
    engine_config, f64_column, generate_tpch, i64_column, reference_passes, run_analytic,
    timed_query, traced_pass, Statements,
};
use crate::metrics::{Report, SCAN_STATEMENTS};
use crate::rng::fnv_mix;
use crate::trace::Tracer;
use crate::verify::{frame_fingerprint, load_or_compute_golden, out_dir, Digest, Golden};
use crate::{data_seed, Options, Scale};

/// Rows per store chunk: small enough that a one-year slice prunes most of
/// the 290 chunks at SF 0.2.
const CHUNK_ROWS: usize = 4096;
/// Rows the three models are trained on.
const TRAIN_ROWS: usize = 2000;

/// The lineitem columns the statements read; the other six are left out of
/// the store file because writing them is set-up time no statement uses.
const LINEITEM_COLUMNS: [&str; 10] = [
    "l_orderkey",
    "l_linenumber",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
    "l_comment",
];

const YEAR: &str = "l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'";
const QUARTER: &str = "l_shipdate >= date '1994-01-01' and l_shipdate < date '1994-04-01'";

/// The eight read statements, in [`SCAN_STATEMENTS`] order.
fn read_statements() -> Vec<String> {
    vec![
        // scan_slice: Q6 on one year; zone maps prune the other six.
        format!(
            "select sum(l_extendedprice * l_discount) as revenue from lineitem \
             where {YEAR} and l_discount between 0.05 and 0.07 and l_quantity < 24"
        ),
        // scan_full: the same without the date predicate; nothing prunes.
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_discount between 0.05 and 0.07 and l_quantity < 24"
            .into(),
        // scan_q1wide: Q1's shape, seven columns decoded.
        "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
         sum(l_extendedprice) as sum_base, \
         sum(l_extendedprice * (1 - l_discount)) as sum_disc, \
         sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
         avg(l_discount) as avg_disc, count(*) as n from lineitem \
         where l_shipdate <= date '1998-09-02' \
         group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus"
            .into(),
        // scan_like: a string column and LIKE.
        "select count(*) as n from lineitem where l_comment like '%special%requests%'".into(),
        // scan_topk: order by ... limit over the whole table; ties broken by key.
        "select l_orderkey, l_linenumber, l_extendedprice from lineitem \
         order by l_extendedprice desc, l_orderkey, l_linenumber limit 100"
            .into(),
        // predict_gbt: tree ensemble as GEMM, aggregated per flag on a quarter.
        format!(
            "select l_returnflag, avg(predict('gbt', l_quantity, l_extendedprice, \
             l_discount, l_tax)) as p, count(*) as n from lineitem where {QUARTER} \
             group by l_returnflag order by l_returnflag"
        ),
        // predict_linear: PREDICT inside a filter, whole table.
        "select count(*) as n, sum(l_quantity) as q from lineitem \
         where predict('lin', l_quantity, l_discount, l_tax) > 40000"
            .into(),
        // predict_text: Scenario 3, per-brand agreement of the sentiment model.
        "select brand, sum(case when rating >= 3 then 1 else 0 end) as actual_positive, \
         sum(predict('sentiment', text)) as predicted_positive, count(*) as n \
         from reviews group by brand order by brand"
            .into(),
    ]
}

/// Every `n / TRAIN_ROWS`-th row of `frame`: the fixed training sample.
fn training_sample(frame: &DataFrame) -> DataFrame {
    let step = (frame.nrows() / TRAIN_ROWS).max(1);
    let idx: Vec<usize> = (0..frame.nrows()).step_by(step).take(TRAIN_ROWS).collect();
    frame.take(&idx)
}

fn design(frame: &DataFrame, columns: &[&str]) -> Tensor {
    let cols: Vec<Tensor> = columns
        .iter()
        .map(|c| Tensor::from_f64_shared(f64_column(frame, c)))
        .collect();
    tqp_ml::design_matrix(&cols)
}

struct Models {
    gbt: Arc<dyn Model>,
    lin: Arc<dyn Model>,
    sentiment: Arc<dyn Model>,
}

fn train_models(lineitem: &DataFrame) -> Models {
    let sample = training_sample(lineitem);
    // Charge = price x (1 - discount) x (1 + tax): non-linear in the inputs,
    // so the trees have something to split on.
    let charge: Vec<f64> = {
        let (p, d, t) = (
            f64_column(&sample, "l_extendedprice"),
            f64_column(&sample, "l_discount"),
            f64_column(&sample, "l_tax"),
        );
        (0..p.len())
            .map(|i| p[i] * (1.0 - d[i]) * (1.0 + t[i]))
            .collect()
    };
    let gbt = GradientBoostedTrees::fit(
        &design(
            &sample,
            &["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        ),
        &Tensor::from_f64(charge),
        40,
        0.1,
        TreeParams {
            max_depth: 3,
            min_samples_split: 2,
        },
    );
    let lin = LinearRegression::fit(
        &design(&sample, &["l_quantity", "l_discount", "l_tax"]),
        &Tensor::from_f64_shared(f64_column(&sample, "l_extendedprice")),
        200,
        0.1,
    );
    let reviews = datasets::amazon_reviews(TRAIN_ROWS, 7);
    let texts: Vec<String> = match reviews.column_by_name("text") {
        Some(Column::Str(v)) => v.to_vec(),
        _ => unreachable!("reviews.text is a string column"),
    };
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let labels: Vec<f64> = i64_column(&reviews, "rating")
        .iter()
        .map(|r| f64::from(*r >= 3))
        .collect();
    let sentiment = TextClassifier::fit(
        &Tensor::from_strings(&refs, 1),
        &Tensor::from_f64(labels),
        14,
        3,
        0.5,
    );
    Models {
        gbt: Arc::new(CompiledTrees::from_gbt(&gbt, TreeStrategy::Gemm)),
        lin: Arc::new(lin),
        sentiment: Arc::new(sentiment),
    }
}

/// Scratch files of one run, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = out_dir().join(format!("scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn decode(table: Arc<StoredTable>) -> DataFrame {
    tqp_data::ingest::tensors_to_frame(&TableSource::Stored(table).to_tensor_table())
}

struct State {
    session: Session,
    queries: Vec<CompiledQuery>,
    sqls: Vec<String>,
    golden: Golden,
    scratch: Scratch,
    lineitem_schema: tqp_data::Schema,
    csv_path: PathBuf,
    csv_bytes: u64,
    /// Fingerprint of the CSV slice as the CSV reader sees it: what the
    /// store file written by `ingest_100k` must decode to.
    csv_fingerprint: u64,
    ingest_rows: usize,
    /// The first ingest of a set-up is decoded and compared cell by cell;
    /// later ones must produce a file of the same size.
    ingest_bytes: Option<u64>,
    stored: Arc<StoredTable>,
    models: Models,
    reviews_rows: usize,
    /// The rows `predict_gbt` feeds the model: the table is clustered on
    /// the date, so the quarter is one range.
    quarter: std::ops::Range<usize>,
    gen_s: f64,
    csv_write_s: f64,
    store_frame_s: f64,
}

impl State {
    fn build(opts: &Options, scale: &Scale) -> State {
        let seed = data_seed(opts.seed);
        let t0 = Instant::now();
        let data = generate_tpch(scale.sf, seed);
        let gen_s = t0.elapsed().as_secs_f64();

        // Cluster on l_shipdate: the warehouse layout zone maps need.
        let dates = i64_column(&data.lineitem, "l_shipdate");
        let mut order: Vec<usize> = (0..data.lineitem.nrows()).collect();
        order.sort_by_key(|&i| dates[i]);
        let lineitem = tqp_data::frame::df(
            LINEITEM_COLUMNS
                .iter()
                .map(|c| {
                    let col = data.lineitem.column_by_name(c).expect("lineitem column");
                    (*c, col.take(&order))
                })
                .collect(),
        );
        drop(data);
        let day = |m| tqp_data::dates::Date::new(1994, m, 1).to_epoch_ns();
        let quarter = {
            let sorted: Vec<i64> = order.iter().map(|&i| dates[i]).collect();
            sorted.partition_point(|d| *d < day(1))..sorted.partition_point(|d| *d < day(4))
        };

        let scratch = Scratch::new();
        let t0 = Instant::now();
        let stored = Arc::new(
            store_frame(&lineitem, &scratch.path("lineitem.tqps"), CHUNK_ROWS)
                .expect("store lineitem"),
        );
        let store_frame_s = t0.elapsed().as_secs_f64();

        let csv_path = scratch.path("slice.csv");
        let t0 = Instant::now();
        csv::write_csv(&lineitem.head(scale.ingest_rows), &csv_path).expect("write CSV slice");
        let csv_write_s = t0.elapsed().as_secs_f64();
        let csv_bytes = std::fs::metadata(&csv_path).expect("CSV slice").len();
        let csv_fingerprint = frame_fingerprint(
            &csv::read_csv(lineitem.schema(), &csv_path).expect("read CSV slice back"),
        );

        let reviews = datasets::amazon_reviews(scale.reviews, seed);
        let models = train_models(&lineitem);
        let mut session = Session::new();
        session.register_stored_table("lineitem", Arc::clone(&stored));
        let reviews_rows = reviews.nrows();
        let fingerprint = fnv_mix(frame_fingerprint(&lineitem), frame_fingerprint(&reviews));
        session.register_table("reviews", reviews);
        session.register_model("gbt", Arc::clone(&models.gbt));
        session.register_model("lin", Arc::clone(&models.lin));
        session.register_model("sentiment", Arc::clone(&models.sentiment));

        let sqls = read_statements();
        let golden = load_or_compute_golden(
            "scan_predict",
            scale.sf,
            seed,
            // The models are inputs too: their predictions on the training
            // sample move when training does.
            fnv_mix(fingerprint, model_fingerprint(&models, &lineitem)),
            opts.regen_golden,
            || {
                sqls.iter()
                    .zip(SCAN_STATEMENTS)
                    .map(|(sql, name)| {
                        let frame = session
                            .sql_baseline(sql)
                            .unwrap_or_else(|e| panic!("row engine failed on {name}: {e}"));
                        (name.to_string(), Digest::of(&frame))
                    })
                    .collect()
            },
        );
        let queries = sqls
            .iter()
            .zip(SCAN_STATEMENTS)
            .map(|(sql, name)| {
                session
                    .compile(sql, engine_config())
                    .unwrap_or_else(|e| panic!("{name} does not compile: {e}"))
            })
            .collect();
        State {
            session,
            queries,
            sqls,
            golden,
            lineitem_schema: lineitem.schema().clone(),
            csv_path,
            csv_bytes,
            csv_fingerprint,
            ingest_rows: scale.ingest_rows.min(lineitem.nrows()),
            ingest_bytes: None,
            stored,
            models,
            reviews_rows,
            quarter,
            gen_s,
            csv_write_s,
            store_frame_s,
            scratch,
        }
    }

    /// The write statement: stream the CSV slice into a fresh store file.
    fn ingest(&mut self) -> (f64, bool) {
        let target = self.scratch.path("ingest.tqps");
        let t0 = Instant::now();
        let written = store_csv(&self.csv_path, &self.lineitem_schema, &target, CHUNK_ROWS);
        let secs = t0.elapsed().as_secs_f64();
        let ok = match written {
            Ok(table) => match self.ingest_bytes {
                Some(bytes) => table.nrows() == self.ingest_rows && table.file_bytes() == bytes,
                None => {
                    self.ingest_bytes = Some(table.file_bytes());
                    table.nrows() == self.ingest_rows
                        && frame_fingerprint(&decode(Arc::new(table))) == self.csv_fingerprint
                }
            },
            Err(e) => {
                eprintln!("ingest_100k failed: {e}");
                false
            }
        };
        (secs, ok)
    }
}

/// Hash of each model's predictions on the training sample.
fn model_fingerprint(models: &Models, lineitem: &DataFrame) -> u64 {
    let sample = training_sample(lineitem);
    let col = |c| Tensor::from_f64_shared(f64_column(&sample, c));
    let gbt = models.gbt.predict(&[
        col("l_quantity"),
        col("l_extendedprice"),
        col("l_discount"),
        col("l_tax"),
    ]);
    let lin = models
        .lin
        .predict(&[col("l_quantity"), col("l_discount"), col("l_tax")]);
    let text = models.sentiment.predict(&[Tensor::from_strings(
        &["great product", "terrible waste"],
        1,
    )]);
    [gbt, lin, text]
        .iter()
        .flat_map(|t| t.to_f64_vec())
        .fold(crate::rng::FNV_OFFSET, |h, v| fnv_mix(h, v.to_bits()))
}

impl Statements for State {
    fn count(&self) -> usize {
        SCAN_STATEMENTS.len()
    }

    fn execute(&mut self, i: usize) -> (f64, bool) {
        if i == self.queries.len() {
            return self.ingest();
        }
        let name = SCAN_STATEMENTS[i];
        timed_query(
            &self.queries[i],
            &self.session,
            name,
            self.golden.digest(name),
        )
    }
}

pub fn run(opts: &Options) -> Report {
    run_analytic(opts, State::build, traced_run)
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn traced_run(opts: &Options, state: &mut State, report: &mut Report) {
    let reads = state.queries.len();
    let best = reference_passes(state, &SCAN_STATEMENTS, reads, opts, report);
    let stmt = |name: &str| best[SCAN_STATEMENTS.iter().position(|s| *s == name).unwrap()];
    let predict_total = stmt("predict_gbt") + stmt("predict_linear") + stmt("predict_text");
    report.set("e2e.predict_total_s", predict_total);
    report.set(
        "e2e.ingest_mb_s",
        state.csv_bytes as f64 / 1e6 / stmt("ingest_100k"),
    );
    report.set("data.gen_s", state.gen_s);
    report.set("data.csv_write_s", state.csv_write_s);

    // One traced pass over the read statements.
    let mut tracer = Tracer::new();
    let statements = SCAN_STATEMENTS
        .iter()
        .zip(&state.sqls)
        .map(|(name, sql)| (*name, sql.as_str(), state.golden.digest(name)));
    let traced = traced_pass(&mut tracer, &state.session, statements, report);
    for (t, name) in traced.iter().zip(SCAN_STATEMENTS).take(3) {
        let chunks = (t.stats.chunks_pruned + t.stats.chunks_scanned).max(1);
        report.set(
            format!("store.chunks_pruned_share.{name}"),
            t.stats.chunks_pruned as f64 / chunks as f64,
        );
    }

    // Store layer by itself: open, full decode, full-table write.
    let path = state.stored.path().to_path_buf();
    let (_, open_us) = tracer.span("store", "StoredTable::open", |_| {
        StoredTable::open(&path).is_ok()
    });
    report.set("store.open_us", open_us);
    let table = TableSource::Stored(Arc::clone(&state.stored));
    let (decoded, _) = tracer.span("store", "to_tensor_table", |_| table.to_tensor_table());
    let decoded_bytes: usize = decoded.tensors.iter().map(Tensor::nbytes).sum();
    let decode_s = best_of(3, || table.to_tensor_table());
    report.set("store.decode_mb_s", decoded_bytes as f64 / 1e6 / decode_s);
    report.set(
        "store.ingest_mb_s",
        decoded_bytes as f64 / 1e6 / state.store_frame_s,
    );
    report.set(
        "store.bytes_per_csv_byte",
        state.ingest_bytes.unwrap_or(0) as f64 / state.csv_bytes as f64,
    );

    // Roofline: the bytes scan_full must touch over its time, against what
    // both cores can stream.
    let (stream, _) = tracer.span("harness", "stream_triad", |_| {
        crate::host::stream_triad_gb_s(2, 12)
    });
    let scan_full_gb_s = (3 * 8 * state.stored.nrows()) as f64 / 1e9 / stmt("scan_full");
    report.set("host.stream_gb_s", stream);
    report.set("exec.scan_full_gb_s", scan_full_gb_s);
    report.set("exec.scan_full_roofline_share", scan_full_gb_s / stream);

    // The models by themselves, on the tensors the statements feed them.
    let column = |name: &str| {
        decoded
            .tensor(name)
            .unwrap_or_else(|| panic!("lineitem has {name}"))
            .clone()
    };
    let rows = state.stored.nrows() as f64;
    let quarter_of =
        |name: &str| Tensor::from_f64(column(name).as_f64()[state.quarter.clone()].to_vec());
    let gbt_in = [
        quarter_of("l_quantity"),
        quarter_of("l_extendedprice"),
        quarter_of("l_discount"),
        quarter_of("l_tax"),
    ];
    let (_, gbt_us) = tracer.span("ml", "gbt.predict", |_| state.models.gbt.predict(&gbt_in));
    let lin_in = [column("l_quantity"), column("l_discount"), column("l_tax")];
    let (_, lin_us) = tracer.span("ml", "lin.predict", |_| state.models.lin.predict(&lin_in));
    let text_in = match state.session.storage().get("reviews") {
        Some(TableSource::Mem(t)) => [t.tensor("text").expect("reviews.text").clone()],
        _ => unreachable!("reviews is registered in memory"),
    };
    let (_, text_us) = tracer.span("ml", "sentiment.predict", |_| {
        state.models.sentiment.predict(&text_in)
    });
    let gbt_ns = gbt_us * 1e3 / state.quarter.len().max(1) as f64;
    let lin_ns = lin_us * 1e3 / rows;
    let text_ns = text_us * 1e3 / state.reviews_rows as f64;
    report.set("ml.gbt_ns_per_row", gbt_ns);
    report.set("ml.linear_ns_per_row", lin_ns);
    report.set("ml.text_ns_per_row", text_ns);
    let model_s =
        (gbt_ns * state.quarter.len() as f64 + lin_ns * rows + text_ns * state.reviews_rows as f64)
            / 1e9;
    report.set("ml.share_of_predict", model_s / predict_total);

    tracer.write("scan_predict");
}
