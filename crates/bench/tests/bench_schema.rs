//! The committed `BENCH_*.json` files parse into their one schema in
//! `sato_bench::schema` and pass its sanity checks; broken copies of them
//! are rejected, so the checks cannot pass vacuously.

use sato_bench::schema::{self, parse, BenchFile, IndexBench, ServingBench};

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

/// Both files name the commit and the toolchain that produced them, and
/// a bench without either, or with a malformed one, is refused.
#[test]
fn bench_files_record_their_commit_and_toolchain() {
    let serving: ServingBench = parse(&committed::<ServingBench>()).unwrap();
    let index: IndexBench = parse(&committed::<IndexBench>()).unwrap();
    for key in ["commit", "rustc"] {
        rejects_missing::<ServingBench>(key);
        rejects_missing::<IndexBench>(key);
    }

    let hash = "0123456789abcdef0123456789abcdef01234567";
    for (commit, ok) in [
        (hash.to_string(), true),
        (format!("{hash}-dirty"), true),
        ("unknown".to_string(), false),
        (String::new(), false),
        (hash[..39].to_string(), false),
        (hash.to_uppercase(), false),
        (format!("{hash}-modified"), false),
        (format!("v1.0-3-g{}", &hash[..12]), false),
    ] {
        let mut bench = serving.clone();
        bench.commit = commit.clone();
        assert_eq!(bench.check().is_ok(), ok, "commit {commit:?}");
        if !ok {
            rejects(bench, "commit");
        }
        let mut bench = index.clone();
        bench.commit = commit.clone();
        assert_eq!(bench.check().is_ok(), ok, "commit {commit:?}");
    }
    for rustc in ["unknown", "", "rustc "] {
        let mut bench = serving.clone();
        bench.rustc = rustc.to_string();
        rejects(bench, "rustc");
        let mut bench = index.clone();
        bench.rustc = rustc.to_string();
        rejects(bench, "rustc");
    }

    // What a producer records here passes the check, unless this source
    // tree is not a git checkout.
    let mut fresh = serving;
    fresh.commit = schema::commit();
    fresh.rustc = schema::rustc();
    if fresh.commit != "unknown" {
        fresh.check().unwrap();
    }
}
