//! # sato-bench
//!
//! The benchmark harness of the Sato reproduction: one binary per table and
//! figure of the paper's evaluation (`src/bin/` is the index), plus
//! Criterion micro-benchmarks of the hot paths. The [`schema`] module
//! defines the committed `BENCH_*.json` files. End-to-end throughput and
//! latency are measured by `satobench` (see `BENCHMARK.json`), not here.
//!
//! Every binary accepts the same command-line options:
//!
//! ```text
//! --tables N    number of synthetic tables in the corpus   (default 400)
//! --seed S      corpus / model seed                        (default 42)
//! --folds F     cross-validation folds                     (default 3)
//! --topics K    LDA topic count                            (default 64)
//! --epochs E    column-wise network training epochs        (default 40)
//! --trials T    repetitions for timing / permutation runs  (default 3)
//! --threads N   serving threads for parallel prediction    (default: CPU count)
//! --fast        shrink everything for a quick smoke run
//! ```

#![warn(missing_docs)]

pub mod schema;

use sato::{SatoConfig, SatoVariant};
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::Corpus;

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Number of synthetic tables to generate.
    pub tables: usize,
    /// Corpus and model seed.
    pub seed: u64,
    /// Number of cross-validation folds.
    pub folds: usize,
    /// LDA topic count.
    pub topics: usize,
    /// Column-wise network epochs.
    pub epochs: usize,
    /// Trials for repeated measurements.
    pub trials: usize,
    /// Number of serving threads for parallel prediction benchmarks.
    pub threads: usize,
    /// Whether `--fast` was passed.
    pub fast: bool,
}

/// The machine's logical CPU count (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            tables: 400,
            seed: 42,
            folds: 3,
            topics: 64,
            epochs: 40,
            trials: 3,
            threads: default_threads(),
            fast: false,
        }
    }
}

impl ExperimentOptions {
    /// Parse options from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::parse_impl(args, false)
    }

    /// Like [`Self::parse`], but unknown options are skipped instead of
    /// panicking. Criterion benches run under `cargo bench`, which forwards
    /// harness flags (`--bench`, filter strings, …) that the experiment
    /// options must tolerate.
    pub fn parse_lenient<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::parse_impl(args, true)
    }

    fn parse_impl<I: IntoIterator<Item = String>>(args: I, lenient: bool) -> Self {
        let mut opts = ExperimentOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut take_usize = |name: &str| -> usize {
                iter.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} expects an integer value"))
            };
            match arg.as_str() {
                "--tables" => opts.tables = take_usize("--tables"),
                "--seed" => opts.seed = take_usize("--seed") as u64,
                "--folds" => opts.folds = take_usize("--folds"),
                "--topics" => opts.topics = take_usize("--topics"),
                "--epochs" => opts.epochs = take_usize("--epochs"),
                "--trials" => opts.trials = take_usize("--trials"),
                "--threads" => opts.threads = take_usize("--threads").max(1),
                "--fast" => opts.fast = true,
                "--help" | "-h" if !lenient => {
                    println!(
                        "options: --tables N --seed S --folds F --topics K --epochs E --trials T --threads N --fast"
                    );
                    std::process::exit(0);
                }
                other if !lenient => panic!("unknown option {other:?}"),
                _ => {}
            }
        }
        if opts.fast {
            opts.tables = opts.tables.min(120);
            opts.folds = opts.folds.min(2);
            opts.topics = opts.topics.min(16);
            opts.epochs = opts.epochs.min(15);
            opts.trials = opts.trials.min(2);
        }
        opts
    }

    /// Parse from the real process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from the real process arguments, tolerating harness flags
    /// (for Criterion benches).
    pub fn from_env_lenient() -> Self {
        Self::parse_lenient(std::env::args().skip(1))
    }

    /// Build the synthetic evaluation corpus `D` for these options.
    pub fn corpus(&self) -> Corpus {
        default_corpus(self.tables, self.seed)
    }

    /// Build the Sato configuration for these options.
    pub fn sato_config(&self) -> SatoConfig {
        let mut config = if self.fast {
            SatoConfig::fast()
        } else {
            SatoConfig::default()
        };
        config.seed = self.seed;
        config.lda.num_topics = self.topics;
        config.network.epochs = self.epochs;
        config
    }

    /// Short human-readable description printed at the top of every report.
    pub fn describe(&self) -> String {
        format!(
            "synthetic corpus: {} tables (seed {}), {} folds, {} topics, {} epochs",
            self.tables, self.seed, self.folds, self.topics, self.epochs
        )
    }
}

/// Print the standard experiment banner.
pub fn banner(title: &str, paper_ref: &str, opts: &ExperimentOptions) {
    println!("================================================================");
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", opts.describe());
    println!("================================================================");
}

/// The Table-1 row order of the paper.
pub fn table1_variants() -> [SatoVariant; 4] {
    [
        SatoVariant::Base,
        SatoVariant::Full,
        SatoVariant::SatoNoStruct,
        SatoVariant::SatoNoTopic,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_sensible() {
        let opts = ExperimentOptions::default();
        assert!(opts.tables >= 100);
        assert!(opts.folds >= 2);
        assert!(!opts.fast);
    }

    #[test]
    fn parsing_overrides_fields() {
        let opts = ExperimentOptions::parse(args(&[
            "--tables",
            "50",
            "--seed",
            "7",
            "--folds",
            "4",
            "--topics",
            "8",
            "--epochs",
            "3",
            "--trials",
            "2",
            "--threads",
            "6",
        ]));
        assert_eq!(opts.tables, 50);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.folds, 4);
        assert_eq!(opts.topics, 8);
        assert_eq!(opts.epochs, 3);
        assert_eq!(opts.trials, 2);
        assert_eq!(opts.threads, 6);
    }

    #[test]
    fn threads_default_to_cpu_count_and_clamp_to_one() {
        assert_eq!(ExperimentOptions::default().threads, default_threads());
        assert!(default_threads() >= 1);
        let opts = ExperimentOptions::parse(args(&["--threads", "0"]));
        assert_eq!(opts.threads, 1, "--threads 0 clamps to 1");
    }

    #[test]
    fn lenient_parse_skips_harness_flags() {
        // `cargo bench` forwards flags like `--bench` and filter strings.
        let opts = ExperimentOptions::parse_lenient(args(&[
            "--bench",
            "prediction_latency",
            "--threads",
            "3",
        ]));
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.tables, ExperimentOptions::default().tables);
    }

    #[test]
    fn fast_flag_shrinks_the_run() {
        let opts = ExperimentOptions::parse(args(&["--fast"]));
        assert!(opts.fast);
        assert!(opts.tables <= 120);
        assert!(opts.topics <= 16);
    }

    #[test]
    #[should_panic(expected = "unknown option")]
    fn unknown_option_panics() {
        ExperimentOptions::parse(args(&["--bogus"]));
    }

    #[test]
    fn corpus_and_config_follow_options() {
        let opts = ExperimentOptions::parse(args(&["--tables", "30", "--topics", "9"]));
        assert_eq!(opts.corpus().len(), 30);
        assert_eq!(opts.sato_config().lda.num_topics, 9);
        assert!(opts.describe().contains("30 tables"));
    }

    #[test]
    fn variants_cover_table1_rows() {
        let v = table1_variants();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], SatoVariant::Base);
        assert_eq!(v[1], SatoVariant::Full);
    }
}
