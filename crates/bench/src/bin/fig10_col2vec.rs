//! **Figure 10** — two-dimensional projections (t-SNE) of the column
//! embeddings produced by Sato_noStruct (topic-aware) and by the Sherlock
//! baseline, restricted to the organisation-like semantic types
//! (affiliate, teamName, family, manufacturer), together with a scalar
//! separation score per model (Section 5.6, Col2Vec).

use sato::{SatoModel, SatoVariant};
use sato_bench::{banner, ExperimentOptions};
use sato_eval::projection::{separation_ratio, tsne_2d, Point2, TsneConfig};
use sato_eval::report::TextTable;
use sato_tabular::split::train_test_split;
use sato_tabular::table::Corpus;
use sato_tabular::types::SemanticType;

/// The organisation-like types visualised in Figure 10.
const FIG10_TYPES: [SemanticType; 4] = [
    SemanticType::Affiliate,
    SemanticType::TeamName,
    SemanticType::Family,
    SemanticType::Manufacturer,
];

/// Collect (embedding, type) pairs of test columns with the Figure-10 types.
fn collect_embeddings(model: &SatoModel, test: &Corpus) -> (Vec<Vec<f32>>, Vec<SemanticType>) {
    let mut embeddings = Vec::new();
    let mut labels = Vec::new();
    for table in test.iter() {
        let embs = model.column_embeddings(table);
        for (emb, label) in embs.into_iter().zip(&table.labels) {
            if FIG10_TYPES.contains(label) {
                embeddings.push(emb);
                labels.push(*label);
            }
        }
    }
    (embeddings, labels)
}

/// Mean pairwise separation across all type pairs in a 2-D layout.
fn mean_separation(points: &[Point2], labels: &[SemanticType]) -> f64 {
    let mut ratios = Vec::new();
    for (i, a) in FIG10_TYPES.iter().enumerate() {
        for b in FIG10_TYPES.iter().skip(i + 1) {
            let pa: Vec<Point2> = points
                .iter()
                .zip(labels)
                .filter(|(_, l)| *l == a)
                .map(|(p, _)| *p)
                .collect();
            let pb: Vec<Point2> = points
                .iter()
                .zip(labels)
                .filter(|(_, l)| *l == b)
                .map(|(p, _)| *p)
                .collect();
            if pa.len() >= 2 && pb.len() >= 2 {
                ratios.push(separation_ratio(&pa, &pb));
            }
        }
    }
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

fn main() {
    let opts = ExperimentOptions::from_env();
    banner(
        "Figure 10: 2-D column embeddings (Col2Vec) of organisation-like types",
        "Figure 10 of the Sato paper (Section 5.6)",
        &opts,
    );

    let corpus = opts.corpus();
    let config = opts.sato_config();
    let split = train_test_split(&corpus, 0.25, opts.seed);

    let mut summary = TextTable::new(&[
        "model",
        "columns projected",
        "mean between/within separation",
    ]);
    for variant in [SatoVariant::SatoNoStruct, SatoVariant::Base] {
        eprintln!(
            "[fig10] training {} and projecting embeddings ...",
            variant.name()
        );
        let model = SatoModel::train(&split.train, config.clone(), variant);
        let (embeddings, labels) = collect_embeddings(&model, &split.test);
        if embeddings.len() < 8 {
            println!(
                "{}: only {} organisation-like columns in the held-out set — rerun with more tables",
                variant.name(),
                embeddings.len()
            );
            continue;
        }
        let points = tsne_2d(
            &embeddings,
            &TsneConfig {
                iterations: 250,
                perplexity: 10.0,
                ..TsneConfig::default()
            },
        );
        let sep = mean_separation(&points, &labels);
        summary.add_row(vec![
            variant.name().to_string(),
            embeddings.len().to_string(),
            format!("{sep:.2}"),
        ]);

        // Per-type centroid coordinates (a textual stand-in for the scatter plot).
        let mut centroids = TextTable::new(&["type", "n", "centroid x", "centroid y"]);
        for ty in FIG10_TYPES {
            let pts: Vec<&Point2> = points
                .iter()
                .zip(&labels)
                .filter(|(_, l)| **l == ty)
                .map(|(p, _)| p)
                .collect();
            if pts.is_empty() {
                continue;
            }
            let cx = pts.iter().map(|p| p[0]).sum::<f64>() / pts.len() as f64;
            let cy = pts.iter().map(|p| p[1]).sum::<f64>() / pts.len() as f64;
            centroids.add_row(vec![
                ty.canonical_name().to_string(),
                pts.len().to_string(),
                format!("{cx:.2}"),
                format!("{cy:.2}"),
            ]);
        }
        println!("\n{} t-SNE centroids:", variant.name());
        println!("{}", centroids.render());
    }
    println!("{}", summary.render());
    println!("paper reference: the Sato (topic-aware) embeddings separate the organisation-related types");
    println!("more cleanly than Sherlock's, whose clusters overlap (Figure 10a vs 10b).");
    println!("Expected shape: the Sato_noStruct separation score exceeds the Base score.");
}
