//! Network serving benchmark: multi-connection load against a live
//! `spe-server`, measuring the failure-mode contract under fire. The
//! results merge into `BENCH_serve.json` as a `server` section (run
//! `bench_serve` first in the same directory to get both halves in one
//! file).
//!
//! Claims under test:
//!
//! - **Steady state** — a modest client fleet scores through the full
//!   TCP + admission + deadline path without shedding a single request.
//! - **Overload** — with in-flight demand at 2x the queue capacity, the
//!   server sheds with fast 429s instead of queueing into collapse, and
//!   the post-overload p99 drops back below the overload p99.
//! - **Isolation** — a wedged model trips its circuit breaker (deadline
//!   misses, then fast 503 rejects) while a healthy model on the same
//!   server answers every request.
//!
//! ```sh
//! cargo run --release -p spe-bench --bin bench_server             # full
//! cargo run --release -p spe-bench --bin bench_server -- --quick  # small
//! cargo run --release -p spe-bench --bin bench_server -- --smoke  # CI gate
//! ```

use httpd::ClientConn;
use spe_bench::harness::Args;
use spe_core::SelfPacedEnsembleConfig;
use spe_data::MatrixView;
use spe_learners::Model;
use spe_serve::EngineConfig;
use spe_server::{BreakerConfig, RegistryConfig, SpeServer};
use std::time::{Duration, Instant};

const QUEUE_CAPACITY: usize = 256;
const WATERMARK_FRACTION: f64 = 0.9;
const THROTTLE: Duration = Duration::from_millis(20);

/// A model with a fixed per-batch service delay — stands in for an
/// expensive model so the overload phase can outrun the queue without
/// needing a huge client fleet.
struct Throttled(f64);
impl Model for Throttled {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        std::thread::sleep(THROTTLE);
        vec![self.0; x.rows()]
    }
}

/// A model wedged hard enough that every sane deadline misses.
struct Wedged;
impl Model for Wedged {
    fn predict_proba_view(&self, x: MatrixView<'_>) -> Vec<f64> {
        std::thread::sleep(Duration::from_millis(50));
        vec![0.5; x.rows()]
    }
}

#[derive(Clone, Debug, Default)]
struct PhaseStats {
    ok: u64,
    shed: u64,
    deadline_misses: u64,
    circuit_open: u64,
    other: u64,
    /// Client-observed latency of each 200, microseconds.
    latencies_us: Vec<u64>,
}

impl PhaseStats {
    fn requests(&self) -> u64 {
        self.ok + self.shed + self.deadline_misses + self.circuit_open + self.other
    }

    fn shed_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }

    fn percentile(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut lat = self.latencies_us.clone();
        lat.sort_unstable();
        lat[((lat.len() - 1) as f64 * q).round() as usize]
    }

    fn merge(&mut self, other: PhaseStats) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline_misses += other.deadline_misses;
        self.circuit_open += other.circuit_open;
        self.other += other.other;
        self.latencies_us.extend(other.latencies_us);
    }

    fn json(&self, clients: usize, rows_per_request: usize) -> String {
        format!(
            "{{\n      \"clients\": {clients},\n      \"rows_per_request\": {rows_per_request},\n      \"requests\": {},\n      \"ok\": {},\n      \"shed\": {},\n      \"deadline_misses\": {},\n      \"circuit_open\": {},\n      \"shed_rate\": {:.4},\n      \"p50_request_us\": {},\n      \"p99_request_us\": {}\n    }}",
            self.requests(),
            self.ok,
            self.shed,
            self.deadline_misses,
            self.circuit_open,
            self.shed_rate(),
            self.percentile(0.50),
            self.percentile(0.99)
        )
    }
}

/// `clients` threads, each sending `requests` scoring posts of `body`
/// to `model` with the given deadline, classifying every response.
fn run_phase(
    addr: &str,
    model: &str,
    clients: usize,
    requests: usize,
    body: &str,
    timeout_ms: u64,
) -> PhaseStats {
    let path = format!("/score/{model}");
    let timeout = timeout_ms.to_string();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.to_string();
            let path = path.clone();
            let timeout = timeout.clone();
            let body = body.to_string();
            std::thread::spawn(move || {
                let mut conn = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));
                let mut stats = PhaseStats::default();
                for _ in 0..requests {
                    let t0 = Instant::now();
                    let resp = conn
                        .request(
                            "POST",
                            &path,
                            &[("x-timeout-ms", &timeout)],
                            body.as_bytes(),
                            Duration::from_secs(30),
                        )
                        .unwrap_or_else(|e| panic!("{e}"));
                    let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    match resp.status {
                        200 => {
                            stats.ok += 1;
                            stats.latencies_us.push(us);
                        }
                        429 => stats.shed += 1,
                        504 => stats.deadline_misses += 1,
                        503 => stats.circuit_open += 1,
                        _ => stats.other += 1,
                    }
                }
                stats
            })
        })
        .collect();
    let mut total = PhaseStats::default();
    for h in handles {
        total.merge(
            h.join()
                .unwrap_or_else(|_| panic!("client thread panicked")),
        );
    }
    total
}

fn csv_body(x: &spe_data::Matrix, rows: usize) -> String {
    let mut out = String::new();
    for i in 0..rows {
        let fields: Vec<String> = x.row(i % x.rows()).iter().map(f64::to_string).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    argv.retain(|a| a != "--smoke");
    let mut args = Args::try_parse_from(1, &argv)?;
    args.quick |= smoke;
    let (train_rows, members, requests) = if args.quick {
        (4_000, 5, 30)
    } else {
        (args.sized(20_000), 10, 150)
    };

    let train = spe_datasets::credit_fraud_sim(train_rows, 7);
    let score = spe_datasets::credit_fraud_sim(1_000, 8);
    let n_features = score.x().cols();
    let model = SelfPacedEnsembleConfig::builder()
        .n_estimators(members)
        .build()?
        .try_fit_dataset(&train, 42)?;

    let mut config = RegistryConfig::new(n_features);
    config.engine = EngineConfig::builder()
        .max_batch(64)
        .queue_capacity(QUEUE_CAPACITY)
        .build()?;
    config.watermark_fraction = WATERMARK_FRACTION;
    config.breaker = BreakerConfig {
        threshold: 5,
        cooldown: Duration::from_millis(400),
    };
    let watermark = (QUEUE_CAPACITY as f64 * WATERMARK_FRACTION) as usize;

    let server = SpeServer::start("127.0.0.1:0", 12, config)?;
    let registry = server.registry();
    registry.register_model("live", Box::new(model))?;
    registry.register_model("throttled", Box::new(Throttled(0.5)))?;
    registry.register_model("wedged", Box::new(Wedged))?;
    let addr = server.addr().to_string();
    eprintln!(
        "bench_server: {} on {} ({} features, queue {QUEUE_CAPACITY}, watermark {watermark})",
        if args.quick { "quick" } else { "full" },
        addr,
        n_features
    );

    let body16 = csv_body(score.x(), 16);
    let body64 = csv_body(score.x(), 64);
    let body1 = csv_body(score.x(), 1);

    // Steady state: 4 clients x 16 rows keeps at most 64 rows in
    // flight, far under the watermark — nothing may shed.
    eprintln!("steady phase: 4 clients x {requests} requests x 16 rows ...");
    let steady = run_phase(&addr, "live", 4, requests, &body16, 2_000);
    eprintln!(
        "  ok {} shed {} p50 {}us p99 {}us",
        steady.ok,
        steady.shed,
        steady.percentile(0.5),
        steady.percentile(0.99)
    );
    assert_eq!(steady.shed, 0, "steady load must never shed");
    assert_eq!(steady.ok, steady.requests(), "steady load must all score");

    // Overload: 8 clients x 64 rows = 512 rows of in-flight demand
    // against a 256-row queue (2x capacity) on a deliberately slow
    // model. The watermark sheds the excess with fast 429s.
    eprintln!("overload phase: 8 clients x {requests} requests x 64 rows (2x queue capacity) ...");
    let overload = run_phase(&addr, "throttled", 8, requests, &body64, 10_000);
    eprintln!(
        "  ok {} shed {} ({:.0}%) p50 {}us p99 {}us",
        overload.ok,
        overload.shed,
        overload.shed_rate() * 100.0,
        overload.percentile(0.5),
        overload.percentile(0.99)
    );
    assert!(
        overload.shed > 0,
        "2x-capacity demand must shed at the watermark"
    );
    assert!(
        overload.ok > 0,
        "shedding must protect some throughput, not replace it"
    );

    // Recovery: the same steady fleet right after the burst. The p99
    // must fall back below the overload p99 — the queue drained instead
    // of staying saturated.
    eprintln!("recovery phase: 4 clients x {requests} requests x 16 rows ...");
    let recovery = run_phase(&addr, "live", 4, requests, &body16, 2_000);
    eprintln!(
        "  ok {} shed {} p50 {}us p99 {}us",
        recovery.ok,
        recovery.shed,
        recovery.percentile(0.5),
        recovery.percentile(0.99)
    );
    assert!(
        recovery.percentile(0.99) < overload.percentile(0.99),
        "post-overload p99 ({}us) must recover below the overload p99 ({}us)",
        recovery.percentile(0.99),
        overload.percentile(0.99)
    );

    // Breaker: tight deadlines against the wedged model turn into 504s
    // until the circuit opens, then fast 503s — while the live model
    // answers every concurrent request.
    eprintln!("breaker phase: wedged model under 10ms deadlines + healthy traffic ...");
    let wedged_reqs = requests.min(40);
    let healthy_handle = {
        let addr = addr.clone();
        let body = body16.clone();
        std::thread::spawn(move || run_phase(&addr, "live", 2, wedged_reqs, &body, 2_000))
    };
    let wedged = run_phase(&addr, "wedged", 2, wedged_reqs, &body1, 10);
    let healthy = healthy_handle
        .join()
        .unwrap_or_else(|_| panic!("healthy traffic thread panicked"));
    eprintln!(
        "  wedged: {} deadline misses, {} fast rejects; healthy: {}/{} ok",
        wedged.deadline_misses,
        wedged.circuit_open,
        healthy.ok,
        healthy.requests()
    );
    assert!(
        wedged.circuit_open > 0,
        "the wedged model's breaker must trip to fast rejects"
    );
    assert_eq!(
        healthy.ok,
        healthy.requests(),
        "the healthy model must be untouched by the wedged one"
    );

    let section = format!
        (
        "{{\n    \"queue_capacity\": {QUEUE_CAPACITY},\n    \"watermark\": {watermark},\n    \"throttle_ms\": {},\n    \"steady\": {},\n    \"overload\": {},\n    \"recovery\": {},\n    \"wedged\": {},\n    \"healthy_during_wedge\": {}\n  }}",
        THROTTLE.as_millis(),
        steady.json(4, 16),
        overload.json(8, 64),
        recovery.json(4, 16),
        wedged.json(2, 1),
        healthy.json(2, 16)
    );
    spe_bench::harness::merge_bench_section(
        std::path::Path::new("BENCH_serve.json"),
        "server",
        &section,
    )?;
    eprintln!(
        "overload shed rate {:.0}%, recovery p99 {}us (overload {}us) -> BENCH_serve.json (server section)",
        overload.shed_rate() * 100.0,
        recovery.percentile(0.99),
        overload.percentile(0.99)
    );

    server.stop();
    Ok(())
}
