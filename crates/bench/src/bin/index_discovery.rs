//! **Index discovery** — data-lake discovery at scale over the HNSW column
//! index (`sato-index`): annotate-and-embed a ≥100k-column synthetic lake,
//! build the index incrementally as the corpus streams through the batched
//! embedding path, and answer joinable/similar-column queries in sublinear
//! time.
//!
//! The run reports the three numbers that matter for the index:
//!
//! - **build rate** — columns/s through embed + incremental `insert`
//!   (embedding time and graph time are also broken out separately),
//!   timed over the one build pass,
//! - **query throughput** — `search_knn_with` queries/s (one reused
//!   `HnswScratch`) against an exact brute-force scan (`search_exact`,
//!   the recall oracle) over the same vectors, and the resulting
//!   `speedup_vs_bruteforce`. The two loops alternate over
//!   [`QUERY_PASSES`] passes of the held-out queries, so a slow spell of
//!   the machine slows both; the throughputs are per-pass medians and the
//!   speedup is the median of the per-pass ratios,
//! - **recall@10** — fraction of the exact top-10 the ANN search returns,
//!   averaged over held-out query columns that are *not* in the index.
//!
//! It also round-trips the index through its `SATOIDX1` sidecar file to
//! time save/load, then writes everything to `BENCH_index.json`, with the
//! machine's `available_parallelism` next to the one thread (`threads`)
//! every figure is measured on.
//!
//! Options: `--lake-cols N` (target lake size in columns, default 100000)
//! and `--smoke` (tiny lake, recall and speedup floors off — CI uses it to
//! validate the harness and the schema, not the numbers), plus the standard
//! experiment flags (`--tables`, `--seed`, `--fast`, ...), parsed strictly:
//! `--help` prints usage and an unknown option panics. The standard run
//! asserts recall@10 ≥ 0.9 at ≥ 10x query speedup over brute force.

use sato::{SatoModel, SatoVariant, ServingScratch};
use sato_bench::schema::{self, HnswParams, IndexBench, INDEX_SCHEMA};
use sato_bench::{banner, default_threads, ExperimentOptions};
use sato_index::{ColumnRef, HnswConfig, HnswIndex, HnswScratch};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Corpus;
use std::time::{Duration, Instant};

/// Columns per micro-batch of the streaming embedding pass.
const BATCH_COLS: usize = 256;

/// Neighbours per query (the paper-style joinability question is "which
/// columns embed closest to this one?").
const K: usize = 10;

/// Interleaved ANN / exact-search passes over the held-out queries.
const QUERY_PASSES: usize = 5;

fn main() {
    // Take this binary's own options out, then parse the rest strictly.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("index_discovery options: --smoke --lake-cols N, plus the standard");
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let mut lake_cols_target: usize = 100_000;
    if let Some(pos) = args.iter().position(|a| a == "--lake-cols") {
        lake_cols_target = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--lake-cols expects an integer value");
        args.drain(pos..pos + 2);
    }
    let opts = ExperimentOptions::parse(args);
    if smoke {
        lake_cols_target = lake_cols_target.min(1_500);
    }
    banner(
        "Index discovery: HNSW ANN search over column embeddings",
        "data-lake discovery extension of Section 5.4 (column embeddings / col2vec)",
        &opts,
    );

    // Train the embedding model once; the lake is only ever *served*.
    let train = opts.corpus();
    println!("training Full model on {} tables", train.len());
    let predictor =
        SatoModel::train(&train, opts.sato_config(), SatoVariant::Full).into_predictor();
    let dim = predictor.embedding_dim();

    // The lake: fresh synthetic tables (disjoint seed), trimmed at table
    // granularity to the first prefix reaching the target column count.
    let lake = generate_lake(lake_cols_target, opts.seed ^ 0x1a4e);
    let lake_cols: usize = lake.iter().map(|t| t.num_columns()).sum();
    println!(
        "lake: {} tables / {lake_cols} columns (target {lake_cols_target}), embedding dim {dim}",
        lake.len()
    );

    // Incremental build: stream the lake through the batched embedding
    // path, inserting each column as it is embedded — exactly what the
    // serve-side index-on-annotate hook does, minus the service.
    let config = HnswConfig::default();
    let mut index = HnswIndex::new(dim, predictor.content_hash(), config);
    let mut scratch = ServingScratch::new();
    let mut insert_time = Duration::ZERO;
    let build_start = Instant::now();
    predictor.embed_corpus_batched_with(
        &lake,
        BATCH_COLS,
        &mut scratch,
        |table_id, col_idx, embedding| {
            let t = Instant::now();
            index.insert(ColumnRef { table_id, col_idx }, embedding);
            insert_time += t.elapsed();
        },
    );
    let build_time = build_start.elapsed();
    let embed_time = build_time.saturating_sub(insert_time);
    assert_eq!(index.len(), lake_cols, "every lake column must be indexed");
    let build_cols_per_s = lake_cols as f64 / build_time.as_secs_f64().max(1e-9);
    println!(
        "build: {lake_cols} columns in {:.2}s ({build_cols_per_s:.0} cols/s; embed {:.2}s, graph {:.2}s, top level {})",
        build_time.as_secs_f64(),
        embed_time.as_secs_f64(),
        insert_time.as_secs_f64(),
        index.top_level(),
    );

    // Queries: embeddings of held-out tables *not* in the index — the
    // discovery scenario where a newly arrived table asks which lake
    // columns it could join against.
    let query_tables = default_corpus(if smoke { 20 } else { 120 }, opts.seed ^ 0x9e37);
    let mut queries: Vec<Vec<f32>> = Vec::new();
    for table in query_tables.iter() {
        let rows = predictor.column_embeddings_into(table, &mut scratch);
        for r in 0..rows.rows() {
            queries.push(rows.row(r).to_vec());
        }
    }
    println!("queries: {} held-out columns, k = {K}", queries.len());

    // ANN search against the exact oracle (a brute-force scan over the
    // same vectors), alternating pass by pass. Recall is scored on the
    // first pass (both searches are deterministic, so every pass returns
    // the same neighbours). One warm scratch serves every ANN query, so
    // that loop allocates nothing.
    let per_s = |t: Duration| queries.len() as f64 / t.as_secs_f64().max(1e-9);
    let mut exact: Vec<Vec<ColumnRef>> = Vec::new();
    let mut hits = 0usize;
    let mut possible = 0usize;
    let mut search = HnswScratch::new();
    let mut ann_passes = Vec::with_capacity(QUERY_PASSES);
    let mut bf_passes = Vec::with_capacity(QUERY_PASSES);
    for pass in 0..QUERY_PASSES {
        let bf_start = Instant::now();
        let found: Vec<Vec<ColumnRef>> = queries
            .iter()
            .map(|q| {
                index
                    .search_exact(q, K)
                    .into_iter()
                    .map(|n| n.key)
                    .collect()
            })
            .collect();
        bf_passes.push(per_s(bf_start.elapsed()));
        if pass == 0 {
            exact = found;
        }

        let ann_start = Instant::now();
        for (q, want) in queries.iter().zip(&exact) {
            let got = index.search_knn_with(q, K, config.ef_search, &mut search);
            if pass == 0 {
                possible += want.len();
                hits += got.iter().filter(|n| want.contains(&n.key)).count();
            }
        }
        ann_passes.push(per_s(ann_start.elapsed()));
    }
    let ann_qps = schema::median(&ann_passes);
    let bf_qps = schema::median(&bf_passes);
    let ratios: Vec<f64> = ann_passes
        .iter()
        .zip(&bf_passes)
        .map(|(a, b)| a / b)
        .collect();
    let speedup = schema::median(&ratios);
    let recall = hits as f64 / possible.max(1) as f64;
    println!(
        "search: recall@{K} {recall:.4} | ANN {ann_qps:.0} q/s vs brute force {bf_qps:.0} q/s ({speedup:.1}x; medians of {QUERY_PASSES} passes)"
    );

    // SATOIDX1 sidecar round-trip: the persisted index must load next to
    // its artifact and answer queries identically.
    let sidecar = std::env::temp_dir().join(format!(
        "sato_index_discovery_{}.satoidx",
        std::process::id()
    ));
    let save_start = Instant::now();
    index.save(&sidecar).expect("save SATOIDX1 sidecar");
    let save_s = save_start.elapsed().as_secs_f64();
    let sidecar_bytes = std::fs::metadata(&sidecar).map(|m| m.len()).unwrap_or(0);
    let load_start = Instant::now();
    let reloaded =
        HnswIndex::load_sidecar(&sidecar, predictor.content_hash()).expect("load SATOIDX1 sidecar");
    let load_s = load_start.elapsed().as_secs_f64();
    assert_eq!(reloaded.len(), index.len());
    for q in queries.iter().take(16) {
        assert_eq!(reloaded.search_knn(q, K), index.search_knn(q, K));
    }
    let _ = std::fs::remove_file(&sidecar);

    if !smoke {
        assert!(
            lake_cols >= 100_000,
            "standard run must index a >= 100k-column lake (got {lake_cols})"
        );
        assert!(recall >= 0.9, "recall@{K} {recall:.4} below the 0.9 floor");
        assert!(
            speedup >= 10.0,
            "ANN speedup {speedup:.1}x below the 10x floor"
        );
    }

    schema::write(&IndexBench {
        schema: INDEX_SCHEMA.to_string(),
        available_parallelism: default_threads(),
        threads: 1,
        model: "Sato (Full)".to_string(),
        smoke,
        lake_tables: lake.len(),
        lake_columns: lake_cols,
        embedding_dim: dim,
        hnsw: HnswParams {
            m: config.m,
            ef_construction: config.ef_construction,
            ef_search: config.ef_search,
            seed: config.seed,
            top_level: index.top_level(),
        },
        build_s: build_time.as_secs_f64(),
        embed_s: embed_time.as_secs_f64(),
        graph_insert_s: insert_time.as_secs_f64(),
        build_cols_per_s,
        queries: queries.len(),
        k: K,
        recall_at_10: recall,
        query_passes: QUERY_PASSES,
        ann_queries_per_s_passes: ann_passes,
        bruteforce_queries_per_s_passes: bf_passes,
        ann_queries_per_s: ann_qps,
        bruteforce_queries_per_s: bf_qps,
        speedup_vs_bruteforce: speedup,
        sidecar_bytes,
        sidecar_save_s: save_s,
        sidecar_load_s: load_s,
    });
}

/// Generate the synthetic lake: enough default-shaped tables to reach
/// `target_cols` columns, trimmed at table granularity (ids stay the
/// generator's 0..n, unique within the lake).
fn generate_lake(target_cols: usize, seed: u64) -> Corpus {
    // Default shapes average ~2.8 columns/table (40% singletons, 2..=6
    // otherwise); 10% headroom, then trim.
    let estimated_tables = (target_cols as f64 / 2.8 * 1.1).ceil() as usize;
    let mut corpus = default_corpus(estimated_tables.max(8), seed);
    let mut cols = 0usize;
    let mut keep = corpus.tables.len();
    for (i, table) in corpus.iter().enumerate() {
        cols += table.num_columns();
        if cols >= target_cols {
            keep = i + 1;
            break;
        }
    }
    assert!(
        cols >= target_cols,
        "lake generation undershot: {cols} < {target_cols} columns from {estimated_tables} tables"
    );
    corpus.tables.truncate(keep);
    corpus
}
