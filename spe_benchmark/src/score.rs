//! The two scoring workloads, run inside the measured child process.
//!
//! The server runs in this process on loopback, as a deployment would
//! run it, and is driven by one load generator with one keep-alive
//! connection per hardware thread. Every 200 answer is checked bit for
//! bit against in-process scoring of the same rows.

use crate::json::Json;
use crate::loadgen::{closed_loop, open_loop, Sample, Wall};
use crate::metrics::Outcome;
use crate::stats::{median, repeat_setup, tail};
use crate::trace::Tracer;
use crate::workloads::{nproc, peak_rss_bytes, Sizes, HELDOUT_CSV, MODEL};
use httpd::{one_shot, ClientConn, Request};
use spe_data::csv::read_dataset;
use spe_data::{Dataset, MatrixView};
use spe_metrics::{aucprc, MultiConfusion};
use spe_server::{RegistryConfig, SpeServer};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name the model is served under.
const NAME: &str = "m";
/// Deadline every scoring request carries.
const DEADLINE_MS: &str = "1000";
/// Client-side give-up time for one request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Rows per request when scoring the whole held-out set for quality.
const COVER_ROWS: usize = 256;
/// Single-caller replays per traced run.
const REPLAYS: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop of 16-row requests at a fixed offered rate: requests
    /// smaller than a batch, so each waits out the batching delay.
    Small,
    /// Closed loop of 256-row requests: full batches, bound by parsing,
    /// scoring and rendering.
    Bulk,
}

impl Kind {
    pub fn parse(workload: &str) -> Option<Self> {
        match workload {
            "score-small" => Some(Self::Small),
            "score-bulk" => Some(Self::Bulk),
            _ => None,
        }
    }

    fn rows_per_request(self) -> usize {
        match self {
            Self::Small => 16,
            Self::Bulk => 256,
        }
    }
}

/// One request body and the held-out rows it carries.
struct Body {
    first_row: usize,
    rows: usize,
    csv: String,
}

fn bodies(data: &Dataset, rows_per_request: usize) -> Vec<Body> {
    let x = data.x();
    (0..x.rows() / rows_per_request)
        .map(|b| {
            let first_row = b * rows_per_request;
            let mut csv = String::new();
            for r in first_row..first_row + rows_per_request {
                let fields: Vec<String> = x.row(r).iter().map(f64::to_string).collect();
                csv.push_str(&fields.join(","));
                csv.push('\n');
            }
            Body {
                first_row,
                rows: rows_per_request,
                csv,
            }
        })
        .collect()
}

/// Sends `body`; true when the answer is a 200 whose scores carry the
/// exact bits of `expected` for the body's rows. Served scores land in
/// `served` when given.
fn score(conn: &mut ClientConn, body: &Body, expected: &[f64], served: Option<&mut [f64]>) -> bool {
    let path = format!("/score/{NAME}");
    let resp = match conn.request(
        "POST",
        &path,
        &[("x-timeout-ms", DEADLINE_MS)],
        body.csv.as_bytes(),
        CLIENT_TIMEOUT,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return false;
        }
    };
    if resp.status != 200 {
        return false;
    }
    let want = &expected[body.first_row..body.first_row + body.rows];
    let Some(scores) = Json::parse(&resp.body_str())
        .ok()
        .and_then(|doc| {
            doc.get("scores")
                .and_then(Json::as_array)
                .map(|a| a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
        })
        .flatten()
    else {
        return false;
    };
    let exact = scores.len() == want.len()
        && scores
            .iter()
            .zip(want)
            .all(|(s, w)| s.to_bits() == w.to_bits());
    if let (true, Some(served)) = (exact, served) {
        served[body.first_row..body.first_row + body.rows].copy_from_slice(&scores);
    }
    exact
}

fn wait_ready(addr: &str) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(10);
    while Instant::now() < give_up {
        if let Ok(r) = one_shot(addr, "GET", "/ready", &[], b"", Duration::from_secs(1)) {
            if r.status == 200 {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Err(format!("server at {addr} never became ready"))
}

/// Program-side start: bind the server, register the SPEM file, and
/// wait for the first 200 from `/ready`.
fn start(model: &Path, n_features: usize) -> Result<SpeServer, Box<dyn std::error::Error>> {
    let server = SpeServer::start("127.0.0.1:0", nproc(), RegistryConfig::new(n_features))?;
    server.registry().register_file(NAME, model)?;
    wait_ready(&server.addr().to_string())?;
    Ok(server)
}

pub fn run(
    kind: Kind,
    sizes: &Sizes,
    dir: &Path,
    seconds: f64,
    tracer: Option<Arc<Tracer>>,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let heldout = read_dataset(&dir.join(HELDOUT_CSV))?;
    let model_path = dir.join(MODEL);
    let expected = spe_serve::load_model(&model_path)?.predict_proba(heldout.x());
    let load_bodies = bodies(&heldout, kind.rows_per_request());

    let (server, setup_s) =
        repeat_setup(|| start(&model_path, heldout.n_features()), SpeServer::stop)?;
    out.set("setup_s", setup_s);
    let addr = server.addr().to_string();

    // The load: one connection per hardware thread, each on its own
    // thread, every request due on a shared schedule (open loop) or
    // sent back to back (closed loop). The first `warmup_s` seconds
    // are not counted.
    let conns = nproc();
    let clock = Wall(Instant::now());
    let warm_ns = (sizes.warmup_s * 1e9) as u64;
    let end_ns = warm_ns + (seconds * 1e9) as u64;
    let interval_ns = (conns as f64 * 1e9 / sizes.small_rate) as u64;
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (addr, bodies, expected, clock) = (&addr, &load_bodies, &expected, &clock);
                s.spawn(move || {
                    let mut conn = ClientConn::connect(addr).expect("connect to the local server");
                    let send = |k: u64| {
                        let body = &bodies[(c + conns * k as usize) % bodies.len()];
                        score(&mut conn, body, expected, None)
                    };
                    match kind {
                        Kind::Small => {
                            let first = c as u64 * interval_ns / conns as u64;
                            open_loop(clock, first, interval_ns, end_ns, send)
                        }
                        Kind::Bulk => closed_loop(clock, end_ns, send),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let counted: Vec<&Sample> = samples.iter().filter(|s| s.due_ns >= warm_ns).collect();
    // From the end of warm-up to the last answer: the last requests
    // finish after `end_ns`, and a server that falls behind the open
    // loop's schedule finishes later still.
    let last_done_ns = counted.iter().map(|s| s.done_ns).max().unwrap_or(end_ns);
    let measured_s = (last_done_ns - warm_ns) as f64 * 1e-9;
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    out.check(
        "every load request answered 200 with the in-process scores",
        samples.iter().all(|s| s.ok),
    );
    out.check("the measured window holds requests", !counted.is_empty());
    out.set("peak_rss_mb", peak_rss_bytes() as f64 / (1024.0 * 1024.0));
    if counted.is_empty() {
        return Ok(out);
    }
    let latency: Vec<f64> = counted.iter().map(|s| s.latency_ms()).collect();
    let t = tail(&latency);
    out.set("p50_ms", median(&latency));
    out.set("tail_ms", t.value);
    let ok_rows = counted.iter().filter(|s| s.ok).count() * kind.rows_per_request();
    out.set("rows_per_s", ok_rows as f64 / measured_s);
    eprintln!(
        "{} requests measured over {measured_s:.1} s: p50 {:.3} ms, p{} {:.3} ms",
        counted.len(),
        median(&latency),
        t.percentile,
        t.value
    );

    if tracer.is_some() {
        out.set("loadgen.achieved_rps", counted.len() as f64 / measured_s);
        out.set(
            "loadgen.max_late_ms",
            counted.iter().map(|s| s.late_ms()).fold(0.0, f64::max),
        );
        counters(&mut out, &addr, &server)?;
    }

    // Quality of what the server answers: the whole held-out set, once,
    // in bulk requests.
    let mut served = vec![f64::NAN; heldout.len()];
    let mut conn = ClientConn::connect(&addr)?;
    let mut covered = true;
    for body in bodies(&heldout, COVER_ROWS) {
        out.attempted += 1;
        if !score(&mut conn, &body, &expected, Some(&mut served)) {
            out.failed += 1;
            covered = false;
        }
    }
    drop(conn);
    let scored = heldout.len() - heldout.len() % COVER_ROWS;
    out.check("the whole held-out set scored exactly", covered);
    let y = &heldout.y()[..scored];
    let served = &served[..scored];
    let pred: Vec<u8> = served.iter().map(|&p| u8::from(p >= 0.5)).collect();
    out.set("aucprc", aucprc(y, served));
    out.set(
        "macro_f1",
        MultiConfusion::from_labels(y, &pred, 2).macro_f1(),
    );

    if let Some(tracer) = &tracer {
        let client_service_us = median(
            &counted
                .iter()
                .map(|s| s.service_ms() * 1e3)
                .collect::<Vec<_>>(),
        );
        replays(&mut out, &server, &load_bodies, tracer, client_service_us)?;
    }
    server.stop();
    Ok(out)
}

/// The server's own counters from `/metrics`, plus the queue's high
/// water mark, which only the registry API exposes.
fn counters(
    out: &mut Outcome,
    addr: &str,
    server: &SpeServer,
) -> Result<(), Box<dyn std::error::Error>> {
    let resp = one_shot(addr, "GET", "/metrics", &[], b"", Duration::from_secs(5))?;
    let doc = Json::parse(&resp.body_str())?;
    let m = doc
        .get("models")
        .and_then(|ms| ms.get(NAME))
        .ok_or("/metrics lacks the served model")?;
    let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let engine = server.registry().get(NAME)?;
    let rows_per_batch = num("requests") / num("batches").max(1.0);
    out.set("spe_serve.rows_per_batch", rows_per_batch);
    out.set(
        "spe_serve.batch_fill",
        rows_per_batch / engine.engine().max_batch() as f64,
    );
    out.set("spe_serve.p50_batch_us", num("p50_batch_latency_us"));
    out.set("spe_serve.p99_batch_us", num("p99_batch_latency_us"));
    out.set("spe_server.shed", num("shed"));
    out.set("spe_server.deadline_misses", num("deadline_misses"));
    out.set(
        "spe_serve.queue_high_water",
        engine.engine().stats().queue_high_water as f64,
    );
    Ok(())
}

/// Single-caller replays of the three nested calls a scoring request
/// makes, on the load's own bodies with the server otherwise idle:
/// `http::handle` (parse, gauntlet, render), `ModelEntry::score`
/// (admission, queue, batch, deadline wait) and
/// `ScoringEngine::score_into` (the kernel alone). Differences between
/// nested medians give each layer's own time.
fn replays(
    out: &mut Outcome,
    server: &SpeServer,
    bodies: &[Body],
    tracer: &Tracer,
    client_service_us: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let registry = server.registry();
    let entry = registry.get(NAME)?;
    let no_shutdown = AtomicBool::new(false);
    let timeout = Duration::from_millis(DEADLINE_MS.parse()?);
    let (mut handle_us, mut score_us, mut kernel_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    for i in 0..REPLAYS {
        let body = &bodies[i % bodies.len()];
        let req = Request {
            method: "POST".into(),
            path: format!("/score/{NAME}"),
            headers: vec![("x-timeout-ms".into(), DEADLINE_MS.into())],
            body: body.csv.as_bytes().to_vec(),
        };
        let rows: Vec<Vec<f64>> = body
            .csv
            .lines()
            .map(|l| {
                l.split(',')
                    .map(|f| f.parse::<f64>().expect("benchmark-made CSV"))
                    .collect()
            })
            .collect();
        let flat: Vec<f64> = rows.concat();
        let width = rows[0].len();
        let mut kernel_out = vec![0.0; rows.len()];

        let t0 = Instant::now();
        let resp = spe_server::http::handle(registry, &no_shutdown, &req);
        let t1 = Instant::now();
        let scored = entry.score(&rows, timeout);
        let t2 = Instant::now();
        let kernel = entry.engine().score_into(
            MatrixView::from_slice(&flat, rows.len(), width),
            &mut kernel_out,
        );
        let t3 = Instant::now();

        ok &= resp.status == 200 && scored.is_ok() && kernel.is_ok();
        tracer.record("spe_server.handle", i as u64, t0, t1, body.rows as u64);
        tracer.record("spe_server.score", i as u64, t1, t2, body.rows as u64);
        tracer.record("spe_serve.score_into", i as u64, t2, t3, body.rows as u64);
        handle_us.push((t1 - t0).as_secs_f64() * 1e6);
        score_us.push((t2 - t1).as_secs_f64() * 1e6);
        kernel_us.push((t3 - t2).as_secs_f64() * 1e6);
    }
    out.check("every replayed call succeeded", ok);
    let (handle, score, kernel) = (median(&handle_us), median(&score_us), median(&kernel_us));
    out.set("spe_server.handle_us", handle);
    out.set("spe_server.parse_render_us", handle - score);
    out.set("spe_serve.queue_us", score - kernel);
    out.set("spe_serve.score_into_us", kernel);
    out.set("httpd.transport_us", client_service_us - handle);
    Ok(())
}
