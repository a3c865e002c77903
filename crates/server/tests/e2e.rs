//! End-to-end serving tests: real sockets, real model files.
//!
//! The unit tests in `src/` cover each subsystem against in-process
//! models; this suite exercises the full path a production client
//! takes — TCP connect, HTTP framing, registry management routes,
//! scoring with deadlines — against a genuinely trained and persisted
//! SPE model.

use httpd::ClientConn;
use spe_core::SelfPacedEnsembleConfig;
use spe_datasets::credit_fraud_sim;
use spe_learners::traits::ConstantModel;
use spe_learners::Model;
use spe_serve::{save_model, EngineConfig};
use spe_server::{BreakerConfig, RegistryConfig, SpeServer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spe-server-e2e-{}-{name}", std::process::id()));
    p
}

fn csv_row(row: &[f64]) -> String {
    let fields: Vec<String> = row.iter().map(f64::to_string).collect();
    fields.join(",")
}

fn tight_config(n_features: usize) -> RegistryConfig {
    let mut config = RegistryConfig::new(n_features);
    config.engine = EngineConfig::builder()
        .max_batch(16)
        .queue_capacity(64)
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    config.breaker = BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_millis(200),
    };
    config.watermark_fraction = 0.75;
    config
}

#[test]
fn trained_model_round_trips_over_tcp() {
    let data = credit_fraud_sim(2000, 11);
    let model = SelfPacedEnsembleConfig::default().fit_dataset(&data, 5);
    let want = model.predict_proba(data.x());
    let path = tmp_path("roundtrip.spe");
    save_model(&path, &model, Vec::new()).unwrap_or_else(|e| panic!("{e}"));

    let server = SpeServer::start("127.0.0.1:0", 2, tight_config(data.x().cols()))
        .unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr().to_string();
    let mut client = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));

    // Register over the wire, then score a handful of rows and compare
    // with the in-process predictions.
    let resp = client
        .request(
            "POST",
            "/models/fraud/load",
            &[],
            path.to_string_lossy().as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    let mut body = String::new();
    for i in 0..8 {
        body.push_str(&csv_row(data.x().row(i)));
        body.push('\n');
    }
    let resp = client
        .request(
            "POST",
            "/score/fraud",
            &[("x-timeout-ms", "5000")],
            body.as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let scores: Vec<f64> = resp
        .body_str()
        .trim_start_matches("{\"scores\":[")
        .trim_end_matches("]}")
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|e| panic!("{e}: {s}")))
        .collect();
    assert_eq!(scores.len(), 8);
    for (got, want) in scores.iter().zip(want.iter()) {
        assert!(
            (got - want).abs() < 1e-9,
            "served {got} disagrees with local {want}"
        );
    }

    // The metrics endpoint reflects the traffic.
    let resp = client
        .request("GET", "/metrics", &[], b"", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200);
    let metrics = resp.body_str();
    assert!(metrics.contains("\"fraud\":{"), "{metrics}");
    assert!(metrics.contains("\"scored\":8"), "{metrics}");

    server.stop();
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn overload_sheds_and_recovers_while_deadlines_propagate() {
    let server =
        SpeServer::start("127.0.0.1:0", 2, tight_config(2)).unwrap_or_else(|e| panic!("{e}"));
    server
        .registry()
        .register_model("m", Box::new(ConstantModel(0.5)))
        .unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr().to_string();
    let mut client = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));

    // A burst of twice the queue capacity sheds at the watermark...
    let burst = "0,0\n".repeat(128);
    let resp = client
        .request(
            "POST",
            "/score/m",
            &[],
            burst.as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 429, "{}", resp.body_str());
    assert!(resp.header("retry-after").is_some());
    assert!(resp.header("x-retry-after-ms").is_some());

    // ...and the next request immediately succeeds.
    let resp = client
        .request("POST", "/score/m", &[], b"0,0\n", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200);

    // An impossible client deadline surfaces as 504, not a hang.
    let resp = client
        .request(
            "POST",
            "/score/m",
            &[("x-timeout-ms", "0")],
            b"0,0\n",
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 504, "{}", resp.body_str());

    server.stop();
}

#[test]
fn breaker_isolates_one_model_and_recovers() {
    let server =
        SpeServer::start("127.0.0.1:0", 2, tight_config(2)).unwrap_or_else(|e| panic!("{e}"));
    server
        .registry()
        .register_model("flaky", Box::new(ConstantModel(0.5)))
        .unwrap_or_else(|e| panic!("{e}"));
    server
        .registry()
        .register_model("steady", Box::new(ConstantModel(0.7)))
        .unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr().to_string();
    let mut client = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));

    // Three zero-deadline requests trip flaky's breaker.
    for _ in 0..3 {
        let resp = client
            .request(
                "POST",
                "/score/flaky",
                &[("x-timeout-ms", "0")],
                b"0,0\n",
                Duration::from_secs(10),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(resp.status, 504);
    }
    let resp = client
        .request(
            "POST",
            "/score/flaky",
            &[],
            b"0,0\n",
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 503, "open circuit rejects fast");
    assert!(resp.header("retry-after").is_some());

    // The other model is untouched.
    let resp = client
        .request(
            "POST",
            "/score/steady",
            &[],
            b"0,0\n",
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_str(), "{\"scores\":[0.7]}");

    // After the cooldown the half-open probe restores service.
    std::thread::sleep(Duration::from_millis(250));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client
            .request(
                "POST",
                "/score/flaky",
                &[],
                b"0,0\n",
                Duration::from_secs(10),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        if resp.status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "breaker never recovered: {} {}",
            resp.status,
            resp.body_str()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    server.stop();
}

#[test]
fn shadow_deploy_and_promotion_over_the_wire() {
    let path = tmp_path("candidate.spe");
    save_model(&path, &ConstantModel(0.9), Vec::new()).unwrap_or_else(|e| panic!("{e}"));

    let server =
        SpeServer::start("127.0.0.1:0", 2, tight_config(2)).unwrap_or_else(|e| panic!("{e}"));
    server
        .registry()
        .register_model("m", Box::new(ConstantModel(0.2)))
        .unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr().to_string();
    let mut client = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));

    let resp = client
        .request(
            "POST",
            "/models/m/shadow",
            &[],
            path.to_string_lossy().as_bytes(),
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200, "{}", resp.body_str());

    // Live traffic mirrors to the candidate (0.2 vs 0.9: every row
    // diverges and flips the decision).
    let resp = client
        .request(
            "POST",
            "/score/m",
            &[],
            b"0,0\n1,1\n",
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200);

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let resp = client
            .request("GET", "/models/m/shadow", &[], b"", Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(resp.status, 200);
        let body = resp.body_str();
        if body.contains("\"compared\":2") {
            assert!(body.contains("\"disagreements\":2"), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "shadow never compared: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Promote: the candidate's scores go live, the shadow detaches.
    let resp = client
        .request(
            "POST",
            "/models/m/promote",
            &[],
            b"",
            Duration::from_secs(10),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let resp = client
        .request("POST", "/score/m", &[], b"0,0\n", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.body_str(), "{\"scores\":[0.9]}");
    let resp = client
        .request("GET", "/models/m/shadow", &[], b"", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(resp.status, 404, "promotion detaches the shadow");

    server.stop();
    std::fs::remove_file(&path).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn concurrent_clients_score_consistently() {
    let server =
        SpeServer::start("127.0.0.1:0", 4, tight_config(2)).unwrap_or_else(|e| panic!("{e}"));
    server
        .registry()
        .register_model("m", Box::new(ConstantModel(0.5)))
        .unwrap_or_else(|e| panic!("{e}"));
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ClientConn::connect(&addr).unwrap_or_else(|e| panic!("{e}"));
                let mut ok = 0u32;
                for _ in 0..20 {
                    let resp = client
                        .request("POST", "/score/m", &[], b"0,0\n", Duration::from_secs(10))
                        .unwrap_or_else(|e| panic!("{e}"));
                    // Under concurrency a request may shed; anything
                    // else must be a correct score.
                    match resp.status {
                        200 => {
                            assert_eq!(resp.body_str(), "{\"scores\":[0.5]}");
                            ok += 1;
                        }
                        429 => {}
                        other => panic!("unexpected status {other}: {}", resp.body_str()),
                    }
                }
                ok
            })
        })
        .collect();
    let served: u32 = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|_| panic!("client panicked")))
        .sum();
    assert!(served > 0, "at least some requests must be served");
    server.stop();
}
