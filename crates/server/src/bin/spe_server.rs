//! `spe_server` — serve SPEM model files over HTTP, and a self-driving
//! acceptance gate for CI.
//!
//! ```sh
//! spe_server serve --features 30 --model fraud=fraud.spe
//!                  [--addr 127.0.0.1:8080] [--workers 4]
//!                  [--queue-capacity 1024] [--max-batch 64]
//!                  [--watermark 0.9] [--breaker-threshold 5]
//!                  [--breaker-cooldown-ms 1000] [--port-file addr.txt]
//! spe_server gate  --model model.spe --data data.csv
//! spe_server online-gate
//! ```
//!
//! `serve` runs until a client POSTs `/admin/shutdown`. `gate` is the
//! ci.sh acceptance sequence: it starts a tightly-provisioned server
//! in-process, drives it over real TCP through the bundled client, and
//! asserts the full failure-mode contract — score round-trip against
//! local predictions, 429 shedding under a 2x-capacity burst (then
//! immediate recovery), deadline misses as 504, a wedged model
//! tripping its breaker (503 + isolation of the healthy model +
//! self-heal + half-open recovery), shadow attach/compare/promote, and
//! a clean shutdown.
//!
//! `online-gate` is the self-contained drift-recovery smoke: it trains
//! an SPE on a checkerboard concept, serves it, enables the online
//! retrain policy, streams parity-flipped labeled feedback through the
//! `/models/<name>/feedback` endpoint, and asserts that `/metrics`
//! reports a promoted retrain while `/score` answers 200 throughout.

use httpd::ClientConn;
use spe_core::SelfPacedEnsembleConfig;
use spe_data::csv::read_dataset;
use spe_datasets::{concept_dataset, DriftStreamConfig, DriftingStream};
use spe_serve::{load_model, save_model, EngineConfig, ScoreBackend};
use spe_server::{BreakerConfig, RegistryConfig, SpeServer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage:
  spe_server serve --features N --model <name>=<model.spe> [--model ...]
                   [--addr HOST:PORT] [--workers N] [--queue-capacity N]
                   [--max-batch N] [--watermark F]
                   [--breaker-threshold N] [--breaker-cooldown-ms N]
                   [--shadow-capacity N] [--port-file PATH]
  spe_server gate  --model <model.spe> --data <data.csv>
  spe_server online-gate";

/// Flags `serve` reads; any other name is rejected, so a misspelt or
/// removed flag fails loudly instead of being ignored.
const SERVE_FLAGS: &[&str] = &[
    "features",
    "model",
    "addr",
    "workers",
    "queue-capacity",
    "max-batch",
    "watermark",
    "breaker-threshold",
    "breaker-cooldown-ms",
    "shadow-capacity",
    "port-file",
];
const GATE_FLAGS: &[&str] = &["model", "data"];

/// `--flag value` parser that keeps repeats (for `--model`).
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `argv`, accepting only the flag names in `known`.
    fn parse(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            if !known.contains(&name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} cannot parse {v:?}")),
        }
    }
}

fn config_from_flags(flags: &Flags, n_features: usize) -> Result<RegistryConfig, String> {
    let engine = EngineConfig::builder()
        .max_batch(flags.parse_or("max-batch", 64)?)
        .queue_capacity(flags.parse_or("queue-capacity", 1024)?)
        .backend(ScoreBackend::Auto)
        .build()
        .map_err(|e| e.to_string())?;
    let mut config = RegistryConfig::new(n_features);
    config.engine = engine;
    config.breaker = BreakerConfig {
        threshold: flags.parse_or("breaker-threshold", 5)?,
        cooldown: Duration::from_millis(flags.parse_or("breaker-cooldown-ms", 1_000)?),
    };
    config.watermark_fraction = flags.parse_or("watermark", 0.9)?;
    config.shadow_capacity = flags.parse_or("shadow-capacity", 256)?;
    Ok(config)
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let n_features: usize = flags
        .require("features")?
        .parse()
        .map_err(|_| "--features wants the row width every served model must admit".to_string())?;
    let models = flags.all("model");
    if models.is_empty() {
        return Err("at least one --model name=path is required".into());
    }
    let config = config_from_flags(flags, n_features)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:8080");
    let workers = flags.parse_or("workers", 4)?;
    let server = SpeServer::start(addr, workers, config).map_err(|e| e.to_string())?;
    for spec in models {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--model wants name=path, got {spec:?}"))?;
        server
            .registry()
            .register_file(name, Path::new(path))
            .map_err(|e| format!("registering {name} from {path}: {e}"))?;
        eprintln!("spe_server: registered {name} from {path}");
    }
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, server.addr().to_string()).map_err(|e| e.to_string())?;
    }
    eprintln!("spe_server: serving on {}", server.addr());
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("spe_server: shutdown requested, draining");
    server.stop();
    eprintln!("spe_server: clean shutdown");
    Ok(())
}

// ---------------------------------------------------------------- gate

/// Tight provisioning so every failure mode is reachable in
/// milliseconds: a 64-row queue shedding at 75%, a threshold-3 breaker
/// with a 300ms cooldown.
const GATE_QUEUE: usize = 64;
const GATE_BREAKER_THRESHOLD: u32 = 3;
const GATE_COOLDOWN_MS: u64 = 300;

struct Gate {
    client: ClientConn,
    checks: u32,
}

impl Gate {
    fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> Result<httpd::Response, String> {
        self.client
            .request(
                method,
                path,
                headers,
                body.as_bytes(),
                Duration::from_secs(10),
            )
            .map_err(|e| format!("{method} {path}: transport error: {e}"))
    }

    fn expect(
        &mut self,
        label: &str,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        want_status: u16,
    ) -> Result<httpd::Response, String> {
        let resp = self.call(method, path, headers, body)?;
        if resp.status != want_status {
            return Err(format!(
                "{label}: {method} {path} answered {} (want {want_status}): {}",
                resp.status,
                resp.body_str()
            ));
        }
        self.checks += 1;
        println!("gate: ok [{label}] {method} {path} -> {want_status}");
        Ok(resp)
    }
}

fn parse_scores(body: &str) -> Result<Vec<f64>, String> {
    let inner = body
        .strip_prefix("{\"scores\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .ok_or_else(|| format!("unexpected score body: {body}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|s| {
            s.parse::<f64>()
                .map_err(|e| format!("bad score {s:?}: {e}"))
        })
        .collect()
}

fn csv_rows(x: &spe_data::Matrix, range: std::ops::Range<usize>) -> String {
    let mut out = String::new();
    for i in range {
        let row: Vec<String> = x.row(i % x.rows()).iter().map(f64::to_string).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

fn cmd_gate(flags: &Flags) -> Result<(), String> {
    let model_path = PathBuf::from(flags.require("model")?);
    let data_path = PathBuf::from(flags.require("data")?);
    let data = read_dataset(&data_path).map_err(|e| e.to_string())?;
    let x = data.x();
    let model_file = model_path.to_string_lossy().to_string();

    // Local reference scores for the round-trip check.
    let local_model = load_model(&model_path).map_err(|e| e.to_string())?;
    let reference = local_model.predict_proba(x);

    let mut config = RegistryConfig::new(x.cols());
    config.engine = EngineConfig::builder()
        .max_batch(16)
        .queue_capacity(GATE_QUEUE)
        .build()
        .map_err(|e| e.to_string())?;
    config.breaker = BreakerConfig {
        threshold: GATE_BREAKER_THRESHOLD,
        cooldown: Duration::from_millis(GATE_COOLDOWN_MS),
    };
    config.watermark_fraction = 0.75;
    let server = SpeServer::start("127.0.0.1:0", 4, config).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let mut gate = Gate {
        client: ClientConn::connect(&addr).map_err(|e| e.to_string())?,
        checks: 0,
    };

    // Liveness precedes readiness: health is up before any model is.
    gate.expect("health", "GET", "/health", &[], "", 200)?;
    gate.expect("not-ready", "GET", "/ready", &[], "", 503)?;
    gate.expect("load", "POST", "/models/live/load", &[], &model_file, 200)?;
    gate.expect("ready", "GET", "/ready", &[], "", 200)?;

    // Round trip: served scores must match local predictions exactly
    // (the quantized backend is bit-identical to the f64 path).
    let resp = gate.expect(
        "score",
        "POST",
        "/score/live",
        &[("x-timeout-ms", "5000")],
        &csv_rows(x, 0..8),
        200,
    )?;
    let scores = parse_scores(&resp.body_str())?;
    for (i, (got, want)) in scores.iter().zip(reference.iter()).enumerate() {
        if (got - want).abs() > 1e-9 {
            return Err(format!("row {i}: served {got} != local {want}"));
        }
    }

    // Overload: a burst of 2x the queue capacity sheds with 429 and
    // retry hints...
    let burst = csv_rows(x, 0..GATE_QUEUE * 2);
    let resp = gate.expect("shed", "POST", "/score/live", &[], &burst, 429)?;
    if resp.header("retry-after").is_none() || resp.header("x-retry-after-ms").is_none() {
        return Err("shed response is missing its Retry-After hints".into());
    }
    // ...and the very next normal request succeeds: shedding kept the
    // server live instead of queueing into collapse.
    gate.expect(
        "post-shed",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..4),
        200,
    )?;

    // Deadline propagation: an impossible deadline answers 504, and a
    // healthy request afterwards clears the breaker streak.
    gate.expect(
        "deadline",
        "POST",
        "/score/live",
        &[("x-timeout-ms", "0")],
        &csv_rows(x, 0..1),
        504,
    )?;
    gate.expect(
        "post-deadline",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..1),
        200,
    )?;

    // A second model shares nothing with the first.
    gate.expect(
        "canary-load",
        "POST",
        "/models/canary/load",
        &[],
        &model_file,
        200,
    )?;

    // Trip the live model's breaker with consecutive deadline misses
    // (how a wedged model manifests to the serving layer).
    for i in 0..GATE_BREAKER_THRESHOLD {
        gate.expect(
            &format!("trip-{i}"),
            "POST",
            "/score/live",
            &[("x-timeout-ms", "0")],
            &csv_rows(x, 0..1),
            504,
        )?;
    }
    let resp = gate.expect(
        "circuit-open",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..1),
        503,
    )?;
    if resp.header("retry-after").is_none() {
        return Err("open-circuit response is missing Retry-After".into());
    }
    // Isolation: the canary keeps serving while live is open.
    gate.expect(
        "canary-serves",
        "POST",
        "/score/canary",
        &[],
        &csv_rows(x, 0..4),
        200,
    )?;
    // Self-heal: the trip reloaded the source SPEM in the background.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let metrics = gate.call("GET", "/metrics", &[], "")?.body_str();
        if metrics.contains("\"heals\":1") {
            println!("gate: ok [self-heal] breaker trip reloaded the source model");
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("self-heal never completed; metrics: {metrics}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Recovery: after the cooldown, the half-open probe closes the
    // circuit and service resumes.
    std::thread::sleep(Duration::from_millis(GATE_COOLDOWN_MS + 50));
    gate.expect(
        "recovered",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..4),
        200,
    )?;
    let metrics = gate.call("GET", "/metrics", &[], "")?.body_str();
    if !metrics.contains("\"breaker_trips\":1") {
        return Err(format!(
            "expected exactly one breaker trip; metrics: {metrics}"
        ));
    }

    // Shadow: mirror live traffic to a candidate (the same file, so
    // divergence must be zero), then promote it.
    gate.expect(
        "shadow-attach",
        "POST",
        "/models/live/shadow",
        &[],
        &model_file,
        200,
    )?;
    gate.expect(
        "shadow-traffic",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..8),
        200,
    )?;
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let body = gate.call("GET", "/models/live/shadow", &[], "")?.body_str();
        if body.contains("\"compared\":8") {
            if !body.contains("\"max_abs_diff\":0") {
                return Err(format!("identical candidate diverged: {body}"));
            }
            println!("gate: ok [shadow-compare] 8 rows mirrored, zero divergence");
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("shadow never compared the mirrored rows: {body}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    gate.expect("promote", "POST", "/models/live/promote", &[], "", 200)?;
    gate.expect(
        "post-promote",
        "POST",
        "/score/live",
        &[],
        &csv_rows(x, 0..4),
        200,
    )?;

    // Teardown: removal is observable, shutdown is clean.
    gate.expect("remove", "DELETE", "/models/canary", &[], "", 200)?;
    gate.expect(
        "removed-404",
        "POST",
        "/score/canary",
        &[],
        &csv_rows(x, 0..1),
        404,
    )?;
    gate.expect("shutdown", "POST", "/admin/shutdown", &[], "", 200)?;
    if !server.shutdown_requested() {
        return Err("shutdown endpoint did not set the flag".into());
    }
    let checks = gate.checks;
    drop(gate);
    server.stop();
    println!("gate: PASS ({checks} checks)");
    Ok(())
}

// --------------------------------------------------------- online-gate

/// Pulls the integer value of `"key":N` out of a flat JSON body.
fn json_u64_field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle)? + needle.len();
    let digits: String = body[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Renders a labeled batch as the feedback-endpoint CSV: one line per
/// row, features first, the 0/1 label last.
fn csv_feedback(x: &spe_data::Matrix, y: &[u8]) -> String {
    let mut out = String::new();
    for (i, &label) in y.iter().enumerate() {
        for v in x.row(i) {
            out.push_str(&v.to_string());
            out.push(',');
        }
        out.push_str(&label.to_string());
        out.push('\n');
    }
    out
}

/// Drift-recovery smoke over real TCP: drifted feedback must produce a
/// promoted retrain in `/metrics` while `/score` never stops answering.
fn cmd_online_gate() -> Result<(), String> {
    let stream_cfg = DriftStreamConfig {
        rows: 500_000,
        features: 4,
        minority_fraction: 0.15,
        batch_rows: 250,
        grid: 4,
        cov: 0.01,
        drift_at: 1_000,
    };

    // Train the incumbent on the pre-drift concept and persist it, so
    // the served entry has a real self-heal source to re-point.
    let train_a = concept_dataset(&stream_cfg, 11, 4_000, false);
    let incumbent = SelfPacedEnsembleConfig::new(8).fit_dataset(&train_a, 12);
    let model_path =
        std::env::temp_dir().join(format!("spe-server-online-gate-{}.spe", std::process::id()));
    save_model(&model_path, &incumbent, Vec::new()).map_err(|e| e.to_string())?;
    let model_file = model_path.to_string_lossy().to_string();

    let server = SpeServer::start("127.0.0.1:0", 4, RegistryConfig::new(stream_cfg.features))
        .map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    let mut gate = Gate {
        client: ClientConn::connect(&addr).map_err(|e| e.to_string())?,
        checks: 0,
    };

    gate.expect("load", "POST", "/models/live/load", &[], &model_file, 200)?;
    gate.expect("no-loop-404", "GET", "/models/live/online", &[], "", 404)?;
    // Small windows and a patience-1 detector so drift is observable
    // within seconds; the 300ms interval is a safety net — promotion
    // still requires beating the incumbent on the holdout.
    let online_cfg = "window_majority=1200\nwindow_minority=300\n\
                      holdout_majority=400\nholdout_minority=80\nholdout_every=4\n\
                      min_rows=300\ninterval_ms=300\nmin_improvement=0.01\n\
                      members=5\nbudget_ms=20000\nseed=99\n\
                      drift_metric=aucprc\ndrift_batch=100\n\
                      drift_reference_batches=2\ndrift_threshold=0.15\ndrift_patience=1\n";
    gate.expect(
        "enable",
        "POST",
        "/models/live/online",
        &[],
        online_cfg,
        200,
    )?;
    gate.expect("double-enable", "POST", "/models/live/online", &[], "", 400)?;

    // Stream labeled feedback through the drift point while proving
    // zero scoring downtime: every iteration scores over TCP and any
    // non-200 fails the gate, retrain in flight or not.
    let score_rows = csv_rows(train_a.x(), 0..4);
    let mut stream = DriftingStream::new(stream_cfg, 23);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut scores_during = 0u32;
    loop {
        if Instant::now() > deadline {
            let metrics = gate.call("GET", "/metrics", &[], "")?.body_str();
            return Err(format!("no promoted retrain before deadline: {metrics}"));
        }
        if let Some((x, y)) = stream.next_batch() {
            let resp = gate.call("POST", "/models/live/feedback", &[], &csv_feedback(&x, &y))?;
            if resp.status != 200 {
                return Err(format!("feedback rejected: {}", resp.body_str()));
            }
        }
        let resp = gate.call("POST", "/score/live", &[], &score_rows)?;
        if resp.status != 200 {
            return Err(format!(
                "scoring downtime during online retraining: {} {}",
                resp.status,
                resp.body_str()
            ));
        }
        scores_during += 1;
        let metrics = gate.call("GET", "/metrics", &[], "")?.body_str();
        let promoted = json_u64_field(&metrics, "retrains_promoted").unwrap_or(0);
        if promoted >= 1 {
            let events = json_u64_field(&metrics, "drift_events").unwrap_or(0);
            if events == 0 {
                return Err(format!("promotion without a drift event: {metrics}"));
            }
            gate.checks += 1;
            println!(
                "gate: ok [promoted] {promoted} promoted retrain(s), {events} drift event(s), \
                 {scores_during} uninterrupted score calls"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // The status endpoint mirrors the counters, then the policy tears
    // down cleanly and scoring continues on the promoted model.
    let status = gate.expect("status", "GET", "/models/live/online", &[], "", 200)?;
    if json_u64_field(&status.body_str(), "retrains_promoted").unwrap_or(0) == 0 {
        return Err(format!(
            "status endpoint lost the promotion: {}",
            status.body_str()
        ));
    }
    gate.expect("disable", "DELETE", "/models/live/online", &[], "", 200)?;
    gate.expect(
        "post-disable-404",
        "GET",
        "/models/live/online",
        &[],
        "",
        404,
    )?;
    gate.expect(
        "post-disable-score",
        "POST",
        "/score/live",
        &[],
        &score_rows,
        200,
    )?;
    gate.expect("shutdown", "POST", "/admin/shutdown", &[], "", 200)?;

    let checks = gate.checks;
    drop(gate);
    server.stop();
    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_file(model_path.with_extension("online.spe"));
    println!("online-gate: PASS ({checks} checks)");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&Flags) -> Result<(), String>;
    let (known, command): (&[&str], Command) = match cmd.as_str() {
        "serve" => (SERVE_FLAGS, cmd_serve),
        "gate" => (GATE_FLAGS, cmd_gate),
        "online-gate" => (&[], |_| cmd_online_gate()),
        other => {
            eprintln!("spe_server: unknown subcommand {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let flags = match Flags::parse(&argv[1..], known) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("spe_server: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match command(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spe_server: {e}");
            ExitCode::FAILURE
        }
    }
}
