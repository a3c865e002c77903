//! Model serving: train once, persist, and score online with the
//! batched engine — including a zero-downtime model swap.
//!
//! The flow mirrors a production fraud pipeline: fit SPE on yesterday's
//! transactions, save the model to disk, load it in a serving process,
//! score traffic through the request-batching [`ScoringEngine`], then
//! retrain on fresh data and hot-swap the new model under live load.
//!
//! ```sh
//! cargo run --release --example model_serving
//! ```

use spe::prelude::*;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let day1 = credit_fraud_sim(20_000, 7);
    let day2 = credit_fraud_sim(20_000, 8);
    println!(
        "training on {} transactions ({} frauds, IR = {:.0}:1)",
        day1.len(),
        day1.n_positive(),
        day1.imbalance_ratio()
    );

    // Fit and persist. The envelope records free-form metadata and a
    // checksum; the save is atomic (temp file + rename).
    let cfg = SelfPacedEnsembleConfig::builder()
        .n_estimators(10)
        .build()?;
    let model = cfg.try_fit_dataset(&day1, 42)?;
    let path = std::env::temp_dir().join("model_serving_example.spe");
    save_model(
        &path,
        &model,
        vec![
            ("dataset".into(), "credit_fraud_sim".into()),
            ("trained_rows".into(), day1.len().to_string()),
        ],
    )?;
    println!(
        "saved {} members to {} ({} bytes)",
        model.len(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // A serving process would start here: load the typed ensemble back
    // (alphas and all) and put it behind the batching engine. `Auto`
    // compiles tree-shaped models down to the u8-quantized kernel.
    let loaded = load_spe(&path)?;
    assert_eq!(loaded.alphas(), model.alphas());
    let serve_cfg = EngineConfig::builder()
        .max_batch(256)
        .backend(ScoreBackend::Auto)
        .build()?;
    let engine = ScoringEngine::start(Box::new(loaded), day2.x().cols(), serve_cfg)?;
    println!("engine backend: {:?}", engine.backend());

    // Online traffic: each request is one job of whole rows, answered
    // by its deadline. The kernel takes a job at once when idle; jobs
    // that queue behind a busy kernel are packed into one block.
    let deadline = Instant::now() + Duration::from_millis(500);
    let pending: Vec<_> = (0..16)
        .map(|i| engine.submit(day2.x().row_range(i * 16..(i + 1) * 16), deadline))
        .collect::<Result<_, _>>()?;
    let frauds_flagged = pending
        .into_iter()
        .map(PendingJob::wait)
        .collect::<Result<Vec<_>, _>>()?
        .concat()
        .iter()
        .filter(|&&p| p >= 0.5)
        .count();
    println!("online path: scored 256 rows in 16 jobs, {frauds_flagged} flagged");

    // Bulk traffic: whole matrices bypass the queue and fan out across
    // the shared thread pool directly.
    let probs = engine.score_matrix(day2.x())?;
    println!(
        "bulk path:   scored {} rows, max probability {:.3}",
        probs.len(),
        probs.iter().cloned().fold(0.0f64, f64::max)
    );

    // Day-2 retrain rolls out with zero downtime: in-flight batches
    // finish on the old model, later batches see the new one.
    let retrained = cfg.try_fit_dataset(&day2, 43)?;
    engine.swap_model(Box::new(retrained))?;
    let deadline = Instant::now() + Duration::from_millis(500);
    let p = engine.submit(day2.x().row_range(0..1), deadline)?.wait()?;
    println!("after hot swap: first row scores {:.3}", p[0]);

    let stats = engine.stats();
    println!(
        "stats: {} queued rows in {} blocks (+{} direct rows), \
         queue high-water {}, batch latency p50 {}us p99 {}us, {} swap(s)",
        stats.requests,
        stats.batches,
        stats.direct_rows,
        stats.queue_high_water,
        stats.p50_batch_latency_us,
        stats.p99_batch_latency_us,
        stats.model_swaps
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
