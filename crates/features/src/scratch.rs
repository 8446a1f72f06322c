//! Reusable extraction workspace: one pass over a column's cells fills
//! everything the Char and Stat feature groups need (per-cell character
//! histograms, length/token/numeric statistics, character-class flags), so
//! the extractor never re-reads a cell once per alphabet character and never
//! allocates per-cell intermediates. One tokenizer pass over the same cells
//! fills the [`TokenTable`] that the Word and Para groups read.
//!
//! A [`FeatureScratch`] owns every buffer the extractors touch. Thread one
//! through [`FeatureExtractor::extract_table_with`] (or the column-level
//! `*_into` functions) and, after the first column has warmed the buffers
//! up, feature extraction performs no heap allocation beyond the output
//! vectors themselves. The batched engine keeps the token table across the
//! columns of a micro-batch ([`FeatureExtractor::begin_batch`]), so each
//! distinct token is hashed once per batch rather than once per occurrence.
//!
//! [`FeatureExtractor::extract_table_with`]: crate::extractor::FeatureExtractor::extract_table_with
//! [`FeatureExtractor::begin_batch`]: crate::extractor::FeatureExtractor::begin_batch

use crate::char_dist::CHARSET;
use crate::tokens::TokenTable;
use sato_tabular::table::CellSource;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Number of characters in the Char-group alphabet.
pub(crate) const CHARSET_LEN: usize = CHARSET.len();

/// ASCII code point → index into [`CHARSET`], 255 when absent.
const CHAR_LUT: [u8; 128] = build_char_lut();

const fn build_char_lut() -> [u8; 128] {
    let mut lut = [255u8; 128];
    let mut i = 0;
    while i < CHARSET.len() {
        lut[CHARSET[i] as usize] = i as u8;
        i += 1;
    }
    lut
}

/// Byte → [`CHARSET`] index after ASCII lower-casing, [`HIST_SKIP`] when the
/// (folded) byte is outside the alphabet. Drives the
/// [`sato_kernels::lut_histogram`] pass for all-ASCII cells; `CHAR_LUT`'s
/// absent marker (255) is the same value as the kernel's skip sentinel.
const ASCII_HIST_LUT: [u8; 256] = build_ascii_hist_lut();

use sato_kernels::HIST_SKIP;

const fn build_ascii_hist_lut() -> [u8; 256] {
    let mut lut = [HIST_SKIP; 256];
    let mut b = 0usize;
    while b < 128 {
        let folded = if b >= b'A' as usize && b <= b'Z' as usize {
            b + 32
        } else {
            b
        };
        lut[b] = CHAR_LUT[folded];
        b += 1;
    }
    lut
}

/// Index of `c` in the Char alphabet (`c` must already be lower-cased).
#[inline]
pub(crate) fn charset_index(c: char) -> Option<usize> {
    let code = c as usize;
    if code < 128 {
        let idx = CHAR_LUT[code];
        (idx != 255).then_some(idx as usize)
    } else {
        None
    }
}

// Per-cell character-class flags gathered during the scan.
pub(crate) const FLAG_ALL_NUMISH: u8 = 1 << 0; // digits and . , - only
pub(crate) const FLAG_ANY_DIGIT: u8 = 1 << 1;
pub(crate) const FLAG_ALL_ALPHA_WS: u8 = 1 << 2; // alphabetic / whitespace only
pub(crate) const FLAG_ANY_UPPER: u8 = 1 << 3;
pub(crate) const FLAG_HAS_SPACE: u8 = 1 << 4; // literal ' '
pub(crate) const FLAG_ANY_SPECIAL: u8 = 1 << 5; // non-alphanumeric, non-whitespace

/// Reusable workspace for single-pass column feature extraction.
///
/// All buffers keep their capacity between columns; `Default::default()`
/// starts empty and grows on first use.
#[derive(Debug, Clone, Default)]
pub struct FeatureScratch {
    /// Total cell count of the scanned column (including blank cells).
    pub(crate) total_cells: usize,
    /// Number of non-blank cells (the cells the statistics run over).
    pub(crate) n_cells: usize,
    /// `n_cells * CHARSET_LEN` per-cell character counts, cell-major.
    pub(crate) char_counts: Vec<u32>,
    /// Per non-blank cell: length in characters.
    pub(crate) lengths: Vec<f32>,
    /// Per non-blank cell: whitespace-separated token count.
    pub(crate) token_counts: Vec<f32>,
    /// Per non-blank cell: character-class flag bits.
    pub(crate) flags: Vec<u8>,
    /// Per non-blank cell: digit fraction (digits / chars).
    pub(crate) digit_fracs: Vec<f32>,
    /// Numeric values of the parseable cells, in cell order.
    pub(crate) numeric: Vec<f32>,
    /// Indices (into `column.values`) of the non-blank cells, for the
    /// distinct count.
    pub(crate) nonblank_idx: Vec<u32>,
    /// The set the Stat group's distinct count probes.
    pub(crate) distinct: DistinctCells,
    /// Reusable buffer for the cleaned numeric form of one cell.
    pub(crate) parse_buf: String,
    /// The token table the Word and Para groups read (and, in the batched
    /// engine, the topic encoder).
    pub(crate) tokens: TokenTable,
}

impl FeatureScratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The token table, holding the tokens of the current batch and the
    /// occurrences of the column extracted last.
    pub fn tokens(&self) -> &TokenTable {
        &self.tokens
    }

    /// Scan every cell of `column` once, filling the per-cell histograms and
    /// statistics the Char and Stat groups aggregate.
    ///
    /// Blank cells (empty or whitespace-only) are recorded in `total_cells`
    /// but excluded from every per-cell buffer, mirroring how the feature
    /// definitions treat missing data. Generic over [`CellSource`], so the
    /// same pass runs over in-memory columns and decoded colstore pages.
    pub(crate) fn scan<C: CellSource + ?Sized>(&mut self, column: &C) {
        self.total_cells = column.num_cells();
        self.n_cells = 0;
        self.char_counts.clear();
        self.lengths.clear();
        self.token_counts.clear();
        self.flags.clear();
        self.digit_fracs.clear();
        self.numeric.clear();
        self.nonblank_idx.clear();

        for cell_idx in 0..self.total_cells {
            let cell = column.cell(cell_idx);
            if cell.trim().is_empty() {
                continue;
            }
            self.nonblank_idx.push(cell_idx as u32);
            let base = self.n_cells * CHARSET_LEN;
            self.n_cells += 1;
            self.char_counts.resize(base + CHARSET_LEN, 0);
            let counts = &mut self.char_counts[base..base + CHARSET_LEN];

            self.parse_buf.clear();
            let scan = if cell.is_ascii() {
                scan_cell_ascii(cell.as_bytes(), counts, &mut self.parse_buf)
            } else {
                scan_cell_unicode(cell, counts, &mut self.parse_buf)
            };
            self.lengths.push(scan.chars as f32);
            self.token_counts.push(scan.tokens as f32);
            self.flags.push(scan.flags);
            self.digit_fracs
                .push(scan.digits as f32 / scan.chars.max(1) as f32);

            // Numeric parse, tolerating separators and unit suffixes: the
            // cell counts as numeric when it has digits, they make up a
            // substantial part of it, and the cleaned form parses.
            if !self.parse_buf.is_empty()
                && scan.digits > 0
                && scan.digits as f32 >= 0.4 * scan.non_ws as f32
            {
                if let Ok(v) = self.parse_buf.parse::<f32>() {
                    self.numeric.push(v);
                }
            }
        }
    }
}

/// An open-addressed set of cell indices for the Stat group's distinct
/// count: linear probing over a power-of-two table at most half full, each
/// slot holding the high half of its cell's hash and the cell index.
///
/// The hash is SipHash under keys drawn per set (`RandomState`), so cells
/// crafted to collide cannot force quadratic probing; the count itself
/// does not depend on the keys.
#[derive(Debug, Clone, Default)]
pub(crate) struct DistinctCells<S = RandomState> {
    hasher: S,
    /// `(hash tag, cell index + 1)`; a zero index marks an empty slot.
    slots: Vec<(u32, u32)>,
}

impl<S: BuildHasher> DistinctCells<S> {
    /// Count the distinct values of `column` at the cell indices `cells`,
    /// exactly: equal hashes are confirmed by comparing bytes.
    pub(crate) fn count<C: CellSource + ?Sized>(&mut self, column: &C, cells: &[u32]) -> usize {
        let len = (2 * cells.len()).next_power_of_two().max(8);
        self.slots.clear();
        self.slots.resize(len, (0, 0));
        let mask = len - 1;
        let mut distinct = 0usize;
        for &idx in cells {
            let value = column.cell(idx as usize);
            let hash = self.hasher.hash_one(value);
            let tag = (hash >> 32) as u32;
            let mut slot = hash as usize & mask;
            loop {
                let (slot_tag, slot_cell) = self.slots[slot];
                if slot_cell == 0 {
                    self.slots[slot] = (tag, idx + 1);
                    distinct += 1;
                    break;
                }
                if slot_tag == tag && column.cell(slot_cell as usize - 1) == value {
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        distinct
    }
}

/// Counters gathered from one cell scan.
struct CellScan {
    chars: usize,
    digits: usize,
    non_ws: usize,
    tokens: usize,
    flags: u8,
}

/// Byte-level scan of an all-ASCII cell: a [`sato_kernels::lut_histogram`]
/// pass over the fold-to-charset LUT, then one branch-light byte pass for
/// the Stat counters.
///
/// The whitespace predicate must match `char::is_whitespace`, which for
/// ASCII covers `' '` and `0x09..=0x0D` — one character more (`\x0B`,
/// vertical tab) than `u8::is_ascii_whitespace`.
fn scan_cell_ascii(bytes: &[u8], counts: &mut [u32], parse_buf: &mut String) -> CellScan {
    sato_kernels::lut_histogram(bytes, &ASCII_HIST_LUT, counts);

    let mut digits = 0usize;
    let mut non_ws = 0usize;
    let mut tokens = 0usize;
    let mut prev_ws = true;
    let mut flags = FLAG_ALL_NUMISH | FLAG_ALL_ALPHA_WS;
    for &b in bytes {
        let ws = matches!(b, b' ' | 0x09..=0x0D);
        if !ws {
            non_ws += 1;
            if prev_ws {
                tokens += 1;
            }
        }
        prev_ws = ws;
        if b.is_ascii_digit() {
            digits += 1;
            flags |= FLAG_ANY_DIGIT;
        }
        if !(b.is_ascii_digit() || b == b'.' || b == b',' || b == b'-') {
            flags &= !FLAG_ALL_NUMISH;
        }
        if !(b.is_ascii_alphabetic() || ws) {
            flags &= !FLAG_ALL_ALPHA_WS;
        }
        if b.is_ascii_uppercase() {
            flags |= FLAG_ANY_UPPER;
        }
        if b == b' ' {
            flags |= FLAG_HAS_SPACE;
        }
        if !b.is_ascii_alphanumeric() && !ws {
            flags |= FLAG_ANY_SPECIAL;
        }
        if b.is_ascii_digit() || b == b'.' || b == b'-' {
            parse_buf.push(b as char);
        }
    }
    CellScan {
        chars: bytes.len(),
        digits,
        non_ws,
        tokens,
        flags,
    }
}

/// The general char-level scan (the historical loop), used for cells with
/// any non-ASCII character.
fn scan_cell_unicode(cell: &str, counts: &mut [u32], parse_buf: &mut String) -> CellScan {
    let mut chars = 0usize;
    let mut digits = 0usize;
    let mut non_ws = 0usize;
    let mut tokens = 0usize;
    let mut prev_ws = true;
    let mut flags = FLAG_ALL_NUMISH | FLAG_ALL_ALPHA_WS;
    for c in cell.chars() {
        chars += 1;
        // Char histogram over the lower-cased cell. Non-ASCII characters may
        // lower-case into the ASCII alphabet (e.g. the Kelvin sign), so
        // expand the full case mapping for them.
        if c.is_ascii() {
            if let Some(idx) = charset_index(c.to_ascii_lowercase()) {
                counts[idx] += 1;
            }
        } else {
            for lc in c.to_lowercase() {
                if let Some(idx) = charset_index(lc) {
                    counts[idx] += 1;
                }
            }
        }
        // Stat flags and counters, same predicates as the Stat group used to
        // apply in separate passes.
        let ws = c.is_whitespace();
        if !ws {
            non_ws += 1;
            if prev_ws {
                tokens += 1;
            }
        }
        prev_ws = ws;
        if c.is_ascii_digit() {
            digits += 1;
            flags |= FLAG_ANY_DIGIT;
        }
        if !(c.is_ascii_digit() || c == '.' || c == ',' || c == '-') {
            flags &= !FLAG_ALL_NUMISH;
        }
        if !(c.is_alphabetic() || ws) {
            flags &= !FLAG_ALL_ALPHA_WS;
        }
        if c.is_uppercase() {
            flags |= FLAG_ANY_UPPER;
        }
        if c == ' ' {
            flags |= FLAG_HAS_SPACE;
        }
        if !c.is_alphanumeric() && !ws {
            flags |= FLAG_ANY_SPECIAL;
        }
        if c.is_ascii_digit() || c == '.' || c == '-' {
            parse_buf.push(c);
        }
    }
    CellScan {
        chars,
        digits,
        non_ws,
        tokens,
        flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato_tabular::table::Column;

    #[test]
    fn scan_skips_blank_cells_but_counts_them() {
        let mut s = FeatureScratch::new();
        s.scan(&Column::new(["ab", "  ", "", "c d"]));
        assert_eq!(s.total_cells, 4);
        assert_eq!(s.n_cells, 2);
        assert_eq!(s.lengths, vec![2.0, 3.0]);
        assert_eq!(s.token_counts, vec![1.0, 2.0]);
        assert_eq!(s.nonblank_idx, vec![0, 3]);
    }

    #[test]
    fn char_counts_are_case_folded() {
        let mut s = FeatureScratch::new();
        s.scan(&Column::new(["AbA"]));
        let a = CHARSET.iter().position(|&c| c == 'a').unwrap();
        let b = CHARSET.iter().position(|&c| c == 'b').unwrap();
        assert_eq!(s.char_counts[a], 2);
        assert_eq!(s.char_counts[b], 1);
    }

    #[test]
    fn kelvin_sign_folds_into_ascii_k() {
        // U+212A KELVIN SIGN lower-cases to 'k'; the single-pass scan must
        // agree with `str::to_lowercase` here.
        let mut s = FeatureScratch::new();
        s.scan(&Column::new(["\u{212A}"]));
        let k = CHARSET.iter().position(|&c| c == 'k').unwrap();
        assert_eq!(s.char_counts[k], 1);
    }

    #[test]
    fn numeric_parse_matches_cleaned_form() {
        let mut s = FeatureScratch::new();
        s.scan(&Column::new(["1,777,972", "75 kg", "Warsaw", "-1.5"]));
        assert_eq!(s.numeric, vec![1_777_972.0, 75.0, -1.5]);
    }

    /// The byte-level ASCII fast path must agree with the char-level scan on
    /// every ASCII cell — including `\x0B` (vertical tab), which
    /// `char::is_whitespace` treats as whitespace but
    /// `u8::is_ascii_whitespace` does not.
    #[test]
    fn ascii_fast_path_matches_unicode_scan() {
        let cells = [
            "ab cd",
            "1,777.5 kg",
            "UPPER lower",
            "a\x0Bb",
            "\ttab\tsep\t",
            "x\x0C\x0Dy",
            "-1.5e3",
            "!@# $%^",
            "",
            "solo",
        ];
        for cell in cells {
            assert!(cell.is_ascii());
            let mut counts_a = vec![0u32; CHARSET_LEN];
            let mut counts_b = vec![0u32; CHARSET_LEN];
            let mut parse_a = String::new();
            let mut parse_b = String::new();
            let a = scan_cell_ascii(cell.as_bytes(), &mut counts_a, &mut parse_a);
            let b = scan_cell_unicode(cell, &mut counts_b, &mut parse_b);
            assert_eq!(counts_a, counts_b, "histogram diverged on {cell:?}");
            assert_eq!(parse_a, parse_b, "parse buffer diverged on {cell:?}");
            assert_eq!(a.chars, b.chars, "chars diverged on {cell:?}");
            assert_eq!(a.digits, b.digits, "digits diverged on {cell:?}");
            assert_eq!(a.non_ws, b.non_ws, "non_ws diverged on {cell:?}");
            assert_eq!(a.tokens, b.tokens, "tokens diverged on {cell:?}");
            assert_eq!(a.flags, b.flags, "flags diverged on {cell:?}");
        }
    }

    /// With every cell hashing alike, each lookup walks the whole probe
    /// run and only the byte comparison tells values apart.
    #[test]
    fn distinct_count_confirms_colliding_hashes_by_bytes() {
        #[derive(Default)]
        struct Constant;
        impl std::hash::Hasher for Constant {
            fn finish(&self) -> u64 {
                7
            }
            fn write(&mut self, _: &[u8]) {}
        }
        let mut set = DistinctCells::<std::hash::BuildHasherDefault<Constant>>::default();
        let column = Column::new(["a", "b", "a", "", "A", "b", "c"]);
        assert_eq!(set.count(&column, &[0, 1, 2, 4, 5, 6]), 4);
        assert_eq!(set.count(&column, &[0, 2]), 1);
    }

    #[test]
    fn scratch_is_reusable_across_columns() {
        let mut s = FeatureScratch::new();
        s.scan(&Column::new(["abcdef", "ghij"]));
        s.scan(&Column::new(["x"]));
        assert_eq!(s.n_cells, 1);
        assert_eq!(s.lengths, vec![1.0]);
        assert_eq!(s.char_counts.len(), CHARSET_LEN);
    }
}
