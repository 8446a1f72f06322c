//! Seeded workload inputs. Every input is derived from `--seed` (and, for
//! the open-loop schedule, the phase length); the library under test only
//! ever receives the generated tables.

use sato_tabular::colstore::corpus_to_bytes;
use sato_tabular::corpus::default_corpus;
use sato_tabular::table::{Corpus, Table};

/// Held-out tables annotated by `batch_annotate`.
pub const BATCH_TABLES: usize = 3072;
/// Tables per SATOCOL1 shard in `batch_annotate` (one shard is one
/// `predict_colstore_bytes` call, and one latency sample).
pub const SHARD_TABLES: usize = 128;
/// Distinct tables requests of `serve` draw from (fewer than requests,
/// so content repeats).
pub const POOL_TABLES: usize = 1024;
/// Offered rate of the open-loop phase of `serve`, requests per second.
/// Fixed, not derived from measured speed, so every commit gets the same
/// schedule.
pub const OPEN_RPS: f64 = 200.0;
/// One request in this many carries many tables: at random in the open
/// loop, at seeded positions of the closed-loop list, so that every seed
/// gives that list the same number of them.
pub const MULTI_ONE_IN: u64 = 20;
/// Table count range (inclusive) of a many-table request.
pub const MULTI_TABLES: (usize, usize) = (8, 32);
/// Requests in the list the closed-loop phase replays: about 2,000 tables,
/// so that the pool's content evens out between seeds.
pub const CLOSED_REQUESTS: usize = 1024;
/// Lake tables indexed by `lake_discover`.
pub const LAKE_TABLES: usize = 1800;
/// Held-out tables whose columns query the lake.
pub const QUERY_TABLES: usize = 360;

/// SplitMix64: a tiny, fully specified generator, so the schedule bytes
/// do not depend on any library's RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform float in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The seed of one input stream of a run: distinct salts give
/// independent streams, and no stream reuses the training seed verbatim.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Inputs of `batch_annotate`: one held-out corpus, split into shards and
/// encoded as SATOCOL1 byte buffers.
pub struct BatchInputs {
    pub corpus_seed: u64,
    pub corpus: Corpus,
    pub shards: Vec<Vec<u8>>,
}

impl BatchInputs {
    pub fn generate(seed: u64) -> Self {
        let corpus_seed = derive(seed, 1);
        let corpus = default_corpus(BATCH_TABLES, corpus_seed);
        let shards = shard_corpora(&corpus).iter().map(corpus_to_bytes).collect();
        BatchInputs {
            corpus_seed,
            corpus,
            shards,
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        self.shards.concat()
    }
}

/// The shards of `corpus`, in order, as in-memory corpora.
pub fn shard_corpora(corpus: &Corpus) -> Vec<Corpus> {
    corpus
        .tables
        .chunks(SHARD_TABLES)
        .map(|chunk| Corpus::new(chunk.to_vec()))
        .collect()
}

/// One request: the pool positions of its tables and, in the open loop,
/// when it is due (seconds from the phase start).
pub struct Request {
    pub due_s: f64,
    pub tables: Vec<usize>,
}

/// Inputs of `serve`: the table pool, the seeded Poisson schedule of the
/// open-loop phase and the request list of the closed-loop phase.
pub struct ServeInputs {
    pub pool_seed: u64,
    pub pool: Corpus,
    pub open: Vec<Request>,
    pub closed: Vec<Request>,
}

impl ServeInputs {
    /// Inputs with an open-loop schedule `open_secs` long.
    pub fn generate(seed: u64, open_secs: f64) -> Self {
        let pool_seed = derive(seed, 2);
        let pool = default_corpus(POOL_TABLES, pool_seed);
        let mut rng = SplitMix64::new(derive(seed, 3));
        let mut open = Vec::new();
        let mut t = 0.0;
        loop {
            t += -rng.unit().ln() / OPEN_RPS;
            if t >= open_secs {
                break;
            }
            let multi = rng.below(MULTI_ONE_IN) == 0;
            let tables = draw_request(&mut rng, pool.len(), multi);
            open.push(Request { due_s: t, tables });
        }
        let mut multi = vec![false; CLOSED_REQUESTS];
        multi[..CLOSED_REQUESTS / MULTI_ONE_IN as usize].fill(true);
        for i in (1..multi.len()).rev() {
            multi.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let closed = multi
            .into_iter()
            .map(|multi| Request {
                due_s: 0.0,
                tables: draw_request(&mut rng, pool.len(), multi),
            })
            .collect();
        ServeInputs {
            pool_seed,
            pool,
            open,
            closed,
        }
    }

    /// The tables of `request`, cloned out of the pool.
    pub fn payload(&self, request: &Request) -> Vec<Table> {
        request
            .tables
            .iter()
            .map(|&i| self.pool.tables[i].clone())
            .collect()
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = corpus_to_bytes(&self.pool);
        for request in self.open.iter().chain(&self.closed) {
            out.extend_from_slice(&request.due_s.to_bits().to_le_bytes());
            out.extend_from_slice(&(request.tables.len() as u64).to_le_bytes());
            for &i in &request.tables {
                out.extend_from_slice(&(i as u64).to_le_bytes());
            }
        }
        out
    }
}

/// A request for one random pool table or, when `multi`, for a run of
/// [`MULTI_TABLES`] consecutive pool tables.
fn draw_request(rng: &mut SplitMix64, pool_len: usize, multi: bool) -> Vec<usize> {
    let pool_len = pool_len as u64;
    if multi {
        let (lo, hi) = MULTI_TABLES;
        let n = lo + rng.below((hi - lo + 1) as u64) as usize;
        let start = rng.below(pool_len) as usize;
        (0..n).map(|i| (start + i) % pool_len as usize).collect()
    } else {
        vec![rng.below(pool_len) as usize]
    }
}

/// Inputs of `lake_discover`: the lake to index and the held-out query
/// tables.
pub struct LakeInputs {
    pub lake_seed: u64,
    pub query_seed: u64,
    pub lake: Corpus,
    pub queries: Corpus,
}

impl LakeInputs {
    pub fn generate(seed: u64) -> Self {
        let lake_seed = derive(seed, 4);
        let query_seed = derive(seed, 5);
        LakeInputs {
            lake_seed,
            query_seed,
            lake: default_corpus(LAKE_TABLES, lake_seed),
            queries: default_corpus(QUERY_TABLES, query_seed),
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = corpus_to_bytes(&self.lake);
        out.extend(corpus_to_bytes(&self.queries));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            BatchInputs::generate(7).to_bytes(),
            BatchInputs::generate(7).to_bytes()
        );
        assert_eq!(
            ServeInputs::generate(7, 2.0).to_bytes(),
            ServeInputs::generate(7, 2.0).to_bytes()
        );
        assert_eq!(
            LakeInputs::generate(7).to_bytes(),
            LakeInputs::generate(7).to_bytes()
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(
            BatchInputs::generate(1).to_bytes(),
            BatchInputs::generate(2).to_bytes()
        );
        assert_ne!(
            ServeInputs::generate(1, 2.0).to_bytes(),
            ServeInputs::generate(2, 2.0).to_bytes()
        );
        assert_ne!(
            LakeInputs::generate(1).to_bytes(),
            LakeInputs::generate(2).to_bytes()
        );
    }

    #[test]
    fn open_schedule_is_poisson_at_the_fixed_rate() {
        let inputs = ServeInputs::generate(3, 20.0);
        let n = inputs.open.len() as f64;
        // 4000 expected arrivals; a Poisson count is within 5% of that
        // far beyond any plausible seed.
        assert!((n / (20.0 * OPEN_RPS) - 1.0).abs() < 0.05, "{n} arrivals");
        assert!(inputs.open.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let multi = inputs.open.iter().filter(|r| r.tables.len() > 1).count();
        assert!(multi > 0 && multi < inputs.open.len() / 10);
        let multi = inputs.closed.iter().filter(|r| r.tables.len() > 1).count();
        assert_eq!(multi, CLOSED_REQUESTS / MULTI_ONE_IN as usize);
    }
}
