//! The committed `BENCH_*.json` files parse into their one schema in
//! `sato_bench::schema` and pass its sanity checks; broken copies of them
//! are rejected, so the checks cannot pass vacuously.

use sato_bench::schema::{parse, BenchFile, IndexBench, ServingBench};

/// The committed text of `T`'s bench file at the repository root.
fn committed<T: BenchFile>() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(T::PATH);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `T`'s committed file with `key` renamed away must fail to parse.
fn rejects_missing<T: BenchFile>(key: &str) {
    let text = committed::<T>().replace(&format!("\"{key}\":"), "\"renamed\":");
    let err = parse::<T>(&text).err().expect("a missing key is rejected");
    assert!(err.contains(key), "{err}");
}

/// `bench` must fail its check, naming `key`.
fn rejects<T: BenchFile>(bench: T, key: &str) {
    let err = bench
        .check()
        .expect_err("an out-of-range figure is rejected");
    assert!(err.contains(key), "{err}");
}

#[test]
fn committed_serving_bench_matches_its_schema_and_broken_copies_do_not() {
    let bench: ServingBench = parse(&committed::<ServingBench>()).unwrap();
    rejects_missing::<ServingBench>("infer_iterations");
    rejects_missing::<ServingBench>("binary_bytes");

    // The configuration records the topic estimator's round count.
    let mut rounds = bench.clone();
    rounds.corpus.infer_iterations = 0;
    rejects(rounds, "infer_iterations");

    // The fold-in is the only topic estimator.
    let mut sampler = bench.clone();
    sampler.table2.sampler = "sparse-alias".to_string();
    rejects(sampler, "table2.sampler");

    let mut load = bench.clone();
    load.artifact.binary_load_us = 0.0;
    rejects(load, "binary_load_us");

    let mut base_crf = bench.clone();
    base_crf.table2.base.train_crf_secs = Some(1.0);
    rejects(base_crf, "base.train_crf_secs");

    let mut timing = bench;
    timing.table2.full.predict_secs = f64::NAN;
    rejects(timing, "full.predict_secs");
}

#[test]
fn committed_index_bench_matches_its_schema_and_broken_copies_do_not() {
    let bench: IndexBench = parse(&committed::<IndexBench>()).unwrap();
    rejects_missing::<IndexBench>("recall_at_10");

    let mut recall = bench.clone();
    recall.recall_at_10 = 1.5;
    rejects(recall, "recall_at_10");

    let mut speedup = bench.clone();
    speedup.speedup_vs_bruteforce *= 1.01;
    rejects(speedup, "speedup_vs_bruteforce");

    // The query throughputs are the medians of the recorded passes, one
    // pass per `query_passes`.
    let mut median = bench.clone();
    median.ann_queries_per_s *= 1.01;
    rejects(median, "ann_queries_per_s");
    let mut passes = bench.clone();
    passes.bruteforce_queries_per_s_passes.pop();
    rejects(passes, "bruteforce_queries_per_s_passes");

    let mut timing = bench;
    timing.sidecar_load_s = 0.0;
    rejects(timing, "sidecar_load_s");
}
