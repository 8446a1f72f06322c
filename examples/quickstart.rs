//! Quickstart: **train → freeze → serve**. Train a small Sato model on a
//! synthetic WebTables-style corpus, freeze it into an immutable
//! `SatoPredictor` artifact, save it to a file and load it back, and
//! annotate a new, unseen table with semantic types.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use sato::{SatoConfig, SatoModel, SatoPredictor, SatoVariant};
use sato_tabular::corpus::default_corpus;
use sato_tabular::split::train_test_split;
use sato_tabular::table::{Column, Table};

fn main() {
    // 1. Build a labelled training corpus. In the paper this is the VizNet /
    //    WebTables corpus; here it is the synthetic substitute described in
    //    DESIGN.md, which preserves the long-tail and co-occurrence structure.
    println!("generating corpus ...");
    let corpus = default_corpus(300, 42);
    let split = train_test_split(&corpus, 0.2, 7);
    println!(
        "corpus: {} tables ({} labelled columns), training on {} tables",
        corpus.len(),
        corpus.num_columns(),
        split.train.len()
    );

    // 2. TRAIN (mutable phase): fit the full Sato model (topic-aware
    //    column-wise network + CRF).
    println!("training Sato (this takes a minute in release mode) ...");
    let config = SatoConfig::fast().with_epochs(25);
    let model = SatoModel::train(&split.train, config, SatoVariant::Full);
    println!(
        "trained in {:.1}s (column-wise) + {:.1}s (CRF layer)",
        model.timings().columnwise_secs,
        model.timings().crf_secs
    );

    // 3. FREEZE: turn the trained model into an immutable, Send + Sync
    //    serving artifact. Training-time state (optimiser, activation
    //    caches, RNG) is gone; the artifact only holds weights, running
    //    statistics, scalers, topic model and CRF, saved as a SATOART1
    //    file.
    let artifact = std::env::temp_dir().join("sato_quickstart.satoart");
    model
        .into_predictor()
        .save(&artifact)
        .expect("write predictor artifact");
    let kib = std::fs::metadata(&artifact).map_or(0, |m| m.len() / 1024);
    println!("froze model into {} ({kib} KiB)", artifact.display());

    // 4. SERVE: load the artifact (e.g. in a separate serving process) and
    //    annotate a brand-new table. Every predictor method takes `&self`.
    let predictor = SatoPredictor::load(&artifact).expect("load predictor artifact");
    let table = Table::unlabelled(
        999_999,
        vec![
            Column::new(["Ada Lovelace", "Grace Hopper", "Alan Turing"]),
            Column::new(["1815-12-10", "1906-12-09", "1912-06-23"]),
            Column::new(["London", "Manhattan", "London"]),
        ],
    );
    let types = predictor.predict(&table);
    println!("\npredicted column types for the new table:");
    for (i, (ty, col)) in types.iter().zip(&table.columns).enumerate() {
        println!(
            "  column {i}: {ty:<12} (sample values: {})",
            col.values
                .iter()
                .take(2)
                .map(String::as_str)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // 5. Ranked predictions with confidences for the first column.
    let proba = predictor.predict_proba(&table);
    let mut ranked: Vec<(usize, f32)> = proba[0].iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop-3 candidate types for the first column:");
    for (idx, p) in ranked.into_iter().take(3) {
        let ty = sato_tabular::types::SemanticType::from_index(idx).unwrap();
        println!("  {ty:<12} {p:.3}");
    }

    // 6. Quick accuracy check on the held-out tables — served in column
    //    micro-batches from four threads at once; the frozen predictor
    //    guarantees the output is identical to a sequential pass.
    let predictions = predictor.predict_corpus_parallel_batched(&split.test, 256, 4);
    let (mut correct, mut total) = (0usize, 0usize);
    for p in &predictions {
        correct += p
            .gold
            .iter()
            .zip(&p.predicted)
            .filter(|(g, q)| g == q)
            .count();
        total += p.gold.len();
    }
    println!(
        "\nheld-out column accuracy: {:.1}% ({} columns, served on 4 threads)",
        100.0 * correct as f64 / total as f64,
        total
    );
}
