//! `lake_discover`: writes beside reads on one index. The lake streams
//! through `embed_corpus_batched_with` into incremental `HnswIndex::insert`;
//! held-out columns query the index with `search_knn`, scored against
//! `search_exact`. A run makes a few rounds of one build and some query
//! passes. A build inserts the lake chunk by chunk; every chunk and query
//! pass is scaled by the host speed measured around it. A chunk's time is
//! its median over the builds and each query's time its median over the
//! passes.

use crate::inputs::LakeInputs;
use crate::stats::{host_speed, median, median_per_item, quantile, Checks};
use crate::trace::{count_tokens, replay_rounds, Pipeline};
use crate::{Named, Outcome, BATCH_COLS};
use sato::{SatoPredictor, ServingScratch};
use sato_index::{ColumnRef, HnswConfig, HnswIndex, Neighbor};
use sato_tabular::table::Corpus;
use std::time::Instant;

/// Lake tables embedded and inserted per timed chunk of a build.
const CHUNK_TABLES: usize = 150;

/// Neighbours per query.
const K: usize = 10;

/// Index builds (and rounds) per run; every build must answer identically.
const BUILDS: usize = 3;

/// Share of the run spent querying.
const QUERY_SHARE: f64 = 0.4;

/// Query latency tail percentile: a run has about a thousand query
/// columns, so p99 has about ten beyond it.
const TAIL_Q: f64 = 0.99;

/// Lake tables the traced replay covers.
const REPLAY_TABLES: usize = 1024;

/// One index build.
struct Build {
    index: HnswIndex,
    /// Seconds per chunk, scaled by the host speed.
    chunk_s: Vec<f64>,
    /// Seconds per chunk as measured.
    raw_chunk_s: Vec<f64>,
    /// Inserts that found their key taken.
    duplicates: u64,
}

/// Build an index over the lake `chunks`, in order, through the batched
/// embedding path, timing each insert into `insert_us` when given.
fn build(
    predictor: &SatoPredictor,
    chunks: &[Corpus],
    config: HnswConfig,
    mut insert_us: Option<&mut Vec<f64>>,
) -> Build {
    let mut index = HnswIndex::new(predictor.embedding_dim(), predictor.content_hash(), config);
    let mut scratch = ServingScratch::new();
    let (mut chunk_s, mut raw_chunk_s) = (Vec::new(), Vec::new());
    let mut duplicates = 0u64;
    for chunk in chunks {
        let speed_before = host_speed();
        let start = Instant::now();
        predictor.embed_corpus_batched_with(
            chunk,
            BATCH_COLS,
            &mut scratch,
            |table_id, col_idx, v| {
                let timed = insert_us.is_some().then(Instant::now);
                duplicates += u64::from(!index.insert(ColumnRef { table_id, col_idx }, v));
                if let (Some(times), Some(t)) = (insert_us.as_deref_mut(), timed) {
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                }
            },
        );
        let secs = start.elapsed().as_secs_f64();
        raw_chunk_s.push(secs);
        chunk_s.push(secs * (speed_before + host_speed()) / 2.0);
    }
    Build {
        index,
        chunk_s,
        raw_chunk_s,
        duplicates,
    }
}

fn keys(hits: &[Neighbor]) -> Vec<ColumnRef> {
    hits.iter().map(|n| n.key).collect()
}

pub fn run(
    predictor: &SatoPredictor,
    inputs: &LakeInputs,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> Outcome {
    let lake = &inputs.lake;
    let lake_cols = lake.num_columns();
    let config = HnswConfig::default();
    let chunks: Vec<Corpus> = lake
        .tables
        .chunks(CHUNK_TABLES)
        .map(|c| Corpus::new(c.to_vec()))
        .collect();

    // Queries: the columns of held-out tables that are not in the lake.
    let mut scratch = ServingScratch::new();
    let mut queries: Vec<Vec<f32>> = Vec::new();
    for table in &inputs.queries.tables {
        let rows = predictor.column_embeddings_into(table, &mut scratch);
        queries.extend((0..rows.rows()).map(|r| rows.row(r).to_vec()));
    }

    // Rounds of one build followed by query passes over the first build's
    // index, so that builds and passes are drawn from the whole run.
    // Inserts are timed one by one only in the first build of a traced run.
    let mut outcome = Outcome::default();
    let mut insert_us = Vec::new();
    let mut build_rounds: Vec<Vec<f64>> = Vec::with_capacity(BUILDS);
    let mut raw_build_rounds: Vec<Vec<f64>> = Vec::with_capacity(BUILDS);
    let mut speeds = Vec::new();
    let mut kept: Option<(HnswIndex, Vec<Vec<ColumnRef>>)> = None;
    let mut exact_us = Vec::with_capacity(queries.len());
    let mut first: Vec<Vec<ColumnRef>> = Vec::with_capacity(queries.len());
    let mut passes: Vec<Vec<f64>> = Vec::new();
    for b in 0..BUILDS {
        let timing = (trace && b == 0).then_some(&mut insert_us);
        let Build {
            index: built,
            chunk_s,
            raw_chunk_s,
            duplicates,
        } = build(predictor, &chunks, config, timing);
        speeds.extend(chunk_s.iter().zip(&raw_chunk_s).map(|(s, r)| s / r));
        build_rounds.push(chunk_s);
        raw_build_rounds.push(raw_chunk_s);
        outcome.attempted += lake_cols as u64;
        outcome.failed += duplicates;
        checks.check(built.len() == lake_cols && duplicates == 0, || {
            format!(
                "index holds {} of {lake_cols} lake columns ({duplicates} duplicate inserts)",
                built.len()
            )
        });
        let (index, _) = match &kept {
            Some((first_build, _)) => {
                let same = queries
                    .iter()
                    .step_by(37)
                    .all(|q| first_build.search_knn(q, K) == built.search_knn(q, K));
                checks.check(same, || "a rebuilt index answers differently".into());
                kept.as_ref().expect("matched Some")
            }
            None => {
                // The index must hold exactly the per-table embeddings.
                for table in lake.tables.iter().step_by((lake.len() / 16).max(1)) {
                    for (c, row) in predictor.column_embeddings(table).iter().enumerate() {
                        let key = ColumnRef {
                            table_id: table.id,
                            col_idx: c as u32,
                        };
                        checks.check(built.vector_of(key) == Some(row.as_slice()), || {
                            format!("indexed vector of {key:?} differs from its column embedding")
                        });
                    }
                }
                // Exact answers, the recall oracle.
                let exact = queries
                    .iter()
                    .map(|q| {
                        let t = Instant::now();
                        let hits = built.search_exact(q, K);
                        exact_us.push(t.elapsed().as_secs_f64() * 1e6);
                        keys(&hits)
                    })
                    .collect();
                kept.insert((built, exact))
            }
        };

        let want_len = K.min(index.len());
        let round_start = Instant::now();
        loop {
            let mut pass_us = Vec::with_capacity(queries.len());
            let speed_before = host_speed();
            for (i, q) in queries.iter().enumerate() {
                let t = Instant::now();
                let hits = index.search_knn(q, K);
                pass_us.push(t.elapsed().as_secs_f64() * 1e6);
                outcome.attempted += 1;
                outcome.failed += u64::from(hits.len() < want_len);
                let well_formed = hits.len() == want_len
                    && hits.windows(2).all(|w| w[0].distance <= w[1].distance);
                checks.check(well_formed, || format!("query {i}: malformed answer"));
                if passes.is_empty() {
                    first.push(keys(&hits));
                } else {
                    checks.check(keys(&hits) == first[i], || {
                        format!("query {i}: answer changed between passes")
                    });
                }
            }
            let speed = (speed_before + host_speed()) / 2.0;
            speeds.push(speed);
            passes.push(pass_us.iter().map(|us| us * speed).collect());
            if round_start.elapsed().as_secs_f64() >= seconds * QUERY_SHARE / BUILDS as f64 {
                break;
            }
        }
    }
    let (_, exact) = kept.as_ref().expect("at least one build");
    let (mut hits, mut possible) = (0usize, 0usize);
    for (got, want) in first.iter().zip(exact) {
        possible += want.len();
        hits += got.iter().filter(|k| want.contains(k)).count();
    }
    let recall = hits as f64 / possible.max(1) as f64;

    let query_us = median_per_item(&passes);
    let build_s: f64 = median_per_item(&build_rounds).iter().sum();
    let build_cols_per_s = lake_cols as f64 / build_s;
    let p50_us = median(&query_us);
    let tail_us = quantile(&query_us, TAIL_Q);
    outcome.throughput_per_s = build_cols_per_s;
    outcome.latency_p50_ms = p50_us / 1e3;
    outcome.quality = recall;
    outcome.named = vec![
        Named::new("index_build_cols_per_s", build_cols_per_s, "1/s").samples(BUILDS, None),
        Named::new(
            "raw_index_build_cols_per_s",
            lake_cols as f64 / median_per_item(&raw_build_rounds).iter().sum::<f64>(),
            "1/s",
        ),
        Named::new("host_speed", median(&speeds), "ratio").samples(speeds.len(), None),
        Named::new("index_query_p50_us", p50_us, "us").samples(query_us.len(), None),
        Named::new("index_query_p99_us", tail_us, "us").tail(&query_us, TAIL_Q),
        Named::new("recall_at_10", recall, "ratio").samples(queries.len(), None),
    ];
    outcome.fingerprint = vec![
        ("lake_tables", lake.len().to_string()),
        ("lake_cols", lake_cols.to_string()),
        ("lake_seed", inputs.lake_seed.to_string()),
        ("builds", BUILDS.to_string()),
        ("build_chunks", chunks.len().to_string()),
        ("query_cols", queries.len().to_string()),
        ("query_passes", passes.len().to_string()),
        ("query_seed", inputs.query_seed.to_string()),
        ("hnsw_m", config.m.to_string()),
        ("hnsw_ef_construction", config.ef_construction.to_string()),
        ("hnsw_ef_search", config.ef_search.to_string()),
    ];

    if trace {
        // Taken during the first build, so scaled by its mean speed.
        let raw_first_s: f64 = raw_build_rounds[0].iter().sum();
        let speed = build_rounds[0].iter().sum::<f64>() / raw_first_s;
        let insert_s = insert_us.iter().sum::<f64>() / 1e6;
        let embed_s = (raw_first_s - insert_s) * speed;
        outcome.set_layer("embed.us_per_col", embed_s * 1e6 / lake_cols as f64);
        outcome.set_layer("index.insert_us_p50", median(&insert_us) * speed);
        outcome.set_layer("index.insert_us_p99", quantile(&insert_us, 0.99) * speed);
        outcome.set_layer("index.search_us_p50", p50_us);
        outcome.set_layer("index.exact_search_us_p50", median(&exact_us) * speed);

        // The embedding path has no CRF, so the replay stops after the
        // column-wise network and is checked against its probabilities.
        // `predict_proba_from_inputs` is the only public network call on
        // extracted inputs, so here `nn.us_per_col` also counts the
        // classification head and softmax, which the embedding path skips,
        // and the unattributed remainder can be negative.
        let tables = &lake.tables[..REPLAY_TABLES.min(lake.len())];
        let pipeline = Pipeline::new(predictor, BATCH_COLS, false);
        let expected: Vec<Vec<Vec<f32>>> =
            tables.iter().map(|t| predictor.predict_proba(t)).collect();
        let traced = replay_rounds(
            |tracer| pipeline.replay_tables(tables, tracer),
            |replay| replay.probs == expected,
            checks,
        );
        let tokens = count_tokens(predictor, tables);
        traced.report(tokens, embed_s * 1e6 / lake.len() as f64, &mut outcome);
    }
    outcome
}
