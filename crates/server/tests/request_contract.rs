//! The `/score` request contract as a matrix: every behaviour a scoring
//! request is promised, checked through `http::handle` for a binary
//! model and a 3-class one alike. A class width that skips a row of the
//! contract (no deadline, no breaker, no shadow) fails here by name.

use httpd::{Request, Response};
use parking_lot::{Condvar, Mutex};
use spe_data::{Dataset, MatrixView};
use spe_datasets::credit_fraud_sim;
use spe_learners::{DecisionTreeConfig, Learner, Model, OneVsRestModel};
use spe_serve::{save_model, EngineConfig};
use spe_server::{http, BreakerConfig, ModelRegistry, RegistryConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BREAKER_THRESHOLD: u32 = 2;
/// Rows per request on the happy paths: the admission watermark (6 of
/// a queue of 8), which admits; one row more sheds.
const ROWS: usize = 6;
/// Rows per request in the bulk rows, as in the `score-bulk` workload.
const BULK_ROWS: usize = 256;

/// A model wedged hard enough that a 5 ms deadline always misses.
struct Wedged;
impl Model for Wedged {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        std::thread::sleep(Duration::from_millis(30));
        vec![0.5; x.rows()]
    }
}

/// Closed until the test opens it; counts the scoring calls waiting.
#[derive(Default)]
struct Latch {
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Latch {
    fn wait_until_entered(&self) {
        let mut state = self.state.lock();
        while state.1 == 0 {
            self.changed.wait(&mut state);
        }
    }

    fn open(&self) {
        self.state.lock().0 = true;
        self.changed.notify_all();
    }
}

/// A model whose every scoring call holds its thread until the latch
/// opens.
struct Stuck(Arc<Latch>);
impl Model for Stuck {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        let mut state = self.0.state.lock();
        state.1 += 1;
        self.0.changed.notify_all();
        while !state.0 {
            self.0.changed.wait(&mut state);
        }
        vec![0.5; x.rows()]
    }
}

fn binary(data: &Dataset) -> Box<dyn Model> {
    DecisionTreeConfig::with_depth(4).fit(data.x(), data.y(), 1)
}

/// Three one-vs-rest trees over the tertiles of the first feature.
fn three_class(data: &Dataset) -> Box<dyn Model> {
    let mut first = data.x().column(0);
    first.sort_by(f64::total_cmp);
    let cuts = [first[first.len() / 3], first[2 * first.len() / 3]];
    let class = |v: f64| cuts.iter().filter(|&&c| v > c).count();
    let per_class = (0..3)
        .map(|c| {
            let y: Vec<u8> = data
                .x()
                .iter_rows()
                .map(|r| u8::from(class(r[0]) == c))
                .collect();
            DecisionTreeConfig::with_depth(4).fit(data.x(), &y, c as u64)
        })
        .collect();
    Box::new(OneVsRestModel::new(per_class))
}

fn three_wedged() -> Box<dyn Model> {
    Box::new(OneVsRestModel::new(vec![
        Box::new(Wedged),
        Box::new(Wedged),
        Box::new(Wedged),
    ]))
}

/// One class width under test: its served artifact on disk, the
/// in-process model it was saved from, and a wedged twin.
struct Width {
    name: &'static str,
    path: PathBuf,
    model: Box<dyn Model>,
    wedged: fn() -> Box<dyn Model>,
}

struct Fixture<'a> {
    data: &'a Dataset,
    width: &'a Width,
}

impl Fixture<'_> {
    /// A fresh registry serving this width's artifact as `m` from an
    /// 8-row queue.
    fn registry(&self) -> ModelRegistry {
        self.registry_with(
            EngineConfig::builder()
                .max_batch(4)
                .queue_capacity(8)
                .build()
                .unwrap_or_else(|e| panic!("{e}")),
        )
    }

    fn registry_with(&self, engine: EngineConfig) -> ModelRegistry {
        let mut config = RegistryConfig::new(self.data.x().cols());
        config.engine = engine;
        config.breaker = BreakerConfig {
            threshold: BREAKER_THRESHOLD,
            cooldown: Duration::from_secs(60),
        };
        config.watermark_fraction = 0.75;
        let registry = ModelRegistry::new(config);
        registry
            .register_file("m", &self.width.path)
            .unwrap_or_else(|e| panic!("{e}"));
        registry
    }

    fn csv(&self, rows: usize) -> String {
        let mut out = String::new();
        for row in self.data.x().iter_rows().take(rows) {
            let fields: Vec<String> = row.iter().map(f64::to_string).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

fn call(
    registry: &ModelRegistry,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    let req = Request {
        method: method.into(),
        path: path.into(),
        headers: headers
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: body.as_bytes().to_vec(),
    };
    http::handle(registry, &AtomicBool::new(false), &req)
}

/// `Ok` when `resp` has status `want`, else the status and body.
fn expect(resp: &Response, want: u16) -> Result<(), String> {
    if resp.status == want {
        Ok(())
    } else {
        Err(format!(
            "want {want}, got {}: {}",
            resp.status,
            resp.body_str()
        ))
    }
}

/// Every 200 answer is the in-process model's scores, bit for bit, in
/// the response shape of its class width.
fn answers_in_process_scores(f: &Fixture) -> Result<(), String> {
    let registry = f.registry();
    let resp = call(&registry, "POST", "/score/m", &[], &f.csv(ROWS));
    expect(&resp, 200)?;
    let x = f.data.x().row_range(0..ROWS);
    let k = f.width.model.n_classes();
    let want = if k == 2 {
        let scores: Vec<String> = f
            .width
            .model
            .predict_proba(&x)
            .iter()
            .map(f64::to_string)
            .collect();
        format!("{{\"scores\":[{}]}}", scores.join(","))
    } else {
        let rows: Vec<String> = f
            .width
            .model
            .predict_proba_k(&x)
            .chunks(k)
            .map(|row| {
                let p: Vec<String> = row.iter().map(f64::to_string).collect();
                format!("[{}]", p.join(","))
            })
            .collect();
        format!("{{\"n_classes\":{k},\"classes\":[{}]}}", rows.join(","))
    };
    if resp.body_str() != want {
        return Err(format!("served {} != in-process {want}", resp.body_str()));
    }
    Ok(())
}

/// `X-Timeout-Ms: 0` answers 504 and counts one deadline miss.
fn zero_timeout_is_a_counted_504(f: &Fixture) -> Result<(), String> {
    let registry = f.registry();
    let resp = call(
        &registry,
        "POST",
        "/score/m",
        &[("x-timeout-ms", "0")],
        &f.csv(1),
    );
    expect(&resp, 504)?;
    let metrics = call(&registry, "GET", "/metrics", &[], "").body_str();
    if !metrics.contains("\"deadline_misses\":1,") {
        return Err(format!("deadline miss not counted: {metrics}"));
    }
    Ok(())
}

/// Consecutive deadline misses on a wedged model trip its breaker to
/// fast 503s carrying `Retry-After`.
fn wedged_misses_trip_the_breaker(f: &Fixture) -> Result<(), String> {
    let registry = f.registry();
    registry
        .register_model("m", (f.width.wedged)())
        .unwrap_or_else(|e| panic!("{e}"));
    for _ in 0..BREAKER_THRESHOLD {
        let resp = call(
            &registry,
            "POST",
            "/score/m",
            &[("x-timeout-ms", "5")],
            &f.csv(1),
        );
        expect(&resp, 504)?;
    }
    let resp = call(&registry, "POST", "/score/m", &[], &f.csv(1));
    expect(&resp, 503)?;
    if resp.header("retry-after").is_none() {
        return Err("open circuit answered without Retry-After".into());
    }
    Ok(())
}

/// A request above the admission watermark sheds with 429 and both
/// retry hints.
fn above_the_watermark_sheds(f: &Fixture) -> Result<(), String> {
    let registry = f.registry();
    let resp = call(&registry, "POST", "/score/m", &[], &f.csv(ROWS + 1));
    expect(&resp, 429)?;
    if resp.header("retry-after").is_none() || resp.header("x-retry-after-ms").is_none() {
        return Err("shed response is missing its retry hints".into());
    }
    Ok(())
}

/// The same artifact attached as a shadow sees every scored row and
/// never diverges.
fn same_artifact_shadow_agrees(f: &Fixture) -> Result<(), String> {
    let registry = f.registry();
    let path = f.width.path.to_string_lossy();
    expect(
        &call(&registry, "POST", "/models/m/shadow", &[], &path),
        200,
    )?;
    expect(&call(&registry, "POST", "/score/m", &[], &f.csv(ROWS)), 200)?;
    let want = format!("\"compared\":{ROWS},");
    let give_up = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = call(&registry, "GET", "/models/m/shadow", &[], "").body_str();
        if stats.contains(&want) {
            if !stats.contains("\"max_abs_diff\":0,") {
                return Err(format!("identical candidate diverged: {stats}"));
            }
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err(format!("shadow never compared {ROWS} rows: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A sibling wedged inside a 256-row request blocks only its own
/// scheduler: this width's model keeps answering 256-row requests.
fn wedged_sibling_leaves_bulk_requests_served(f: &Fixture) -> Result<(), String> {
    let registry = f.registry_with(EngineConfig::default());
    let latch = Arc::new(Latch::default());
    registry
        .register_model("stuck", Box::new(Stuck(Arc::clone(&latch))))
        .unwrap_or_else(|e| panic!("{e}"));
    let bulk = f.csv(BULK_ROWS);
    std::thread::scope(|s| {
        let stuck = s.spawn(|| {
            let resp = call(
                &registry,
                "POST",
                "/score/stuck",
                &[("x-timeout-ms", "60000")],
                &bulk,
            );
            expect(&resp, 200)
        });
        latch.wait_until_entered();
        let healthy = (0..3).try_for_each(|_| {
            let resp = call(
                &registry,
                "POST",
                "/score/m",
                &[("x-timeout-ms", "2000")],
                &bulk,
            );
            expect(&resp, 200)
        });
        latch.open();
        let stuck = stuck
            .join()
            .unwrap_or_else(|_| panic!("stuck client panicked"));
        healthy.and(stuck.map_err(|e| format!("released sibling: {e}")))
    })
}

fn save(name: &str, model: &dyn Model) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "spe-server-contract-{}-{name}.spe",
        std::process::id()
    ));
    save_model(&path, model, Vec::new()).unwrap_or_else(|e| panic!("{e}"));
    path
}

fn width(name: &'static str, model: Box<dyn Model>, wedged: fn() -> Box<dyn Model>) -> Width {
    Width {
        name,
        path: save(name, model.as_ref()),
        model,
        wedged,
    }
}

#[test]
fn every_class_width_keeps_the_request_contract() {
    type Check = fn(&Fixture) -> Result<(), String>;
    let behaviours: [(&str, Check); 6] = [
        ("200 is in-process bits", answers_in_process_scores),
        ("deadline", zero_timeout_is_a_counted_504),
        ("breaker", wedged_misses_trip_the_breaker),
        ("watermark", above_the_watermark_sheds),
        ("shadow", same_artifact_shadow_agrees),
        ("wedged sibling", wedged_sibling_leaves_bulk_requests_served),
    ];
    let data = credit_fraud_sim(600, 3);
    let widths = [
        width("binary", binary(&data), || Box::new(Wedged)),
        width("3-class", three_class(&data), three_wedged),
    ];
    let mut failures = Vec::new();
    for w in &widths {
        let fixture = Fixture {
            data: &data,
            width: w,
        };
        for (behaviour, check) in behaviours {
            if let Err(msg) = check(&fixture) {
                failures.push(format!("{} / {behaviour}: {msg}", w.name));
            }
        }
    }
    for w in &widths {
        remove(&w.path);
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

fn remove(path: &Path) {
    std::fs::remove_file(path).unwrap_or_else(|e| panic!("{e}"));
}
