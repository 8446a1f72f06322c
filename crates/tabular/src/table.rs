//! Core table data model: columns of string cell values plus optional
//! semantic-type labels, mirroring how the paper consumes WebTables.
//!
//! Headers are *not* part of the model used for prediction (the paper
//! explicitly predicts from values only); labelled tables carry the
//! ground-truth [`SemanticType`] per column, obtained in the real corpus by
//! canonicalizing the original header.

use crate::types::SemanticType;
use serde::{Deserialize, Serialize};

/// A single table column: an ordered list of cell values.
///
/// Cells are kept as strings (numeric cells are stored in their textual
/// form), which is how the WebTables corpus and the Sherlock feature
/// extractors treat them.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Column {
    /// Cell values from top to bottom. Missing cells are empty strings.
    pub values: Vec<String>,
}

impl Column {
    /// Create a column from anything that yields string-like cells.
    pub fn new<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Column {
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of cells (including empty ones).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no cells at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of non-empty cells.
    pub fn non_empty_count(&self) -> usize {
        self.values.iter().filter(|v| !v.trim().is_empty()).count()
    }

    /// Iterate over the cell values.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(String::as_str)
    }
}

/// A relational table: an ordered sequence of columns, optionally labelled
/// with ground-truth semantic types and carrying provenance metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Stable identifier (unique within a corpus).
    pub id: u64,
    /// The columns, left to right. The CRF treats this order as the chain.
    pub columns: Vec<Column>,
    /// Ground-truth semantic types, parallel to `columns`.
    ///
    /// Empty for unlabelled tables (e.g. tables loaded from CSV purely for
    /// prediction).
    pub labels: Vec<SemanticType>,
    /// The latent intent the synthetic generator used (None for real tables).
    ///
    /// Models never look at this; it exists so experiments can verify that
    /// the topic model recovers intent-like structure.
    pub intent: Option<String>,
}

impl Table {
    /// Build an unlabelled table (for prediction).
    pub fn unlabelled(id: u64, columns: Vec<Column>) -> Self {
        Table {
            id,
            columns,
            labels: Vec::new(),
            intent: None,
        }
    }

    /// Build a labelled table. Panics if `labels.len() != columns.len()`.
    pub fn labelled(id: u64, columns: Vec<Column>, labels: Vec<SemanticType>) -> Self {
        assert_eq!(
            columns.len(),
            labels.len(),
            "labels must be parallel to columns"
        );
        Table {
            id,
            columns,
            labels,
            intent: None,
        }
    }

    /// Number of columns (`m` in the paper's notation).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows (the length of the longest column).
    pub fn num_rows(&self) -> usize {
        self.columns.iter().map(Column::len).max().unwrap_or(0)
    }

    /// Whether ground-truth labels are available.
    pub fn is_labelled(&self) -> bool {
        !self.labels.is_empty() && self.labels.len() == self.columns.len()
    }

    /// A table is *multi-column* when it has at least two columns; singleton
    /// tables are excluded from the paper's `D_mult` dataset because they
    /// carry no table context.
    pub fn is_multi_column(&self) -> bool {
        self.columns.len() > 1
    }

    /// All cell values of the table flattened in column order.
    ///
    /// This is the paper's *global context* ("table values"): the document
    /// handed to the LDA table-intent estimator.
    pub fn all_values(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().flat_map(|c| c.iter())
    }

    /// Visit every cell value in column order — the same order as
    /// [`Self::all_values`] — without materializing anything.
    ///
    /// This is the visitor the streaming topic encoder walks instead of
    /// building the [`Self::as_document`] mega-string: cell boundaries act as
    /// token separators (exactly like the space `as_document` inserts), so
    /// the per-value tokenizer ([`crate::text`]) sees the identical token
    /// stream.
    pub fn for_each_value(&self, mut f: impl FnMut(&str)) {
        for column in &self.columns {
            for value in column.iter() {
                f(value);
            }
        }
    }

    /// Concatenate every cell into a single whitespace-separated "document"
    /// string, the exact representation used to train/query the LDA model.
    pub fn as_document(&self) -> String {
        let mut doc = String::new();
        for v in self.all_values() {
            if !v.is_empty() {
                if !doc.is_empty() {
                    doc.push(' ');
                }
                doc.push_str(v);
            }
        }
        doc
    }
}

/// Random-access view of one column's cell values: the abstraction the
/// feature extractors consume, so the same single-pass kernels run over an
/// in-memory [`Column`] or a decoded colstore page without copying cells
/// into per-cell `String`s.
///
/// `cell(i)` must be cheap (a borrow, no decoding work) and the order
/// `0..num_cells()` must be the top-to-bottom order of [`Column::iter`];
/// that ordering contract is what keeps streaming and in-memory serving
/// paths bit-identical.
pub trait CellSource {
    /// Number of cells, including empty ones (like [`Column::len`]).
    fn num_cells(&self) -> usize;

    /// The `i`-th cell value. Panics when `i >= num_cells()`.
    fn cell(&self, i: usize) -> &str;

    /// Whether the column has no cells at all.
    fn no_cells(&self) -> bool {
        self.num_cells() == 0
    }
}

impl CellSource for Column {
    fn num_cells(&self) -> usize {
        self.values.len()
    }

    fn cell(&self, i: usize) -> &str {
        &self.values[i]
    }
}

impl<C: CellSource + ?Sized> CellSource for &C {
    fn num_cells(&self) -> usize {
        (**self).num_cells()
    }

    fn cell(&self, i: usize) -> &str {
        (**self).cell(i)
    }
}

/// A table-shaped source of cell values: everything the serving stack needs
/// from a table (identity, per-column cells, gold labels when present)
/// without requiring the materialized [`Table`] struct.
///
/// [`Table`] implements this trivially; the colstore reader's
/// [`crate::colstore::TableBuf`] implements it over dictionary-encoded
/// pages, which is how the serving path annotates a corpus straight off
/// disk.
pub trait TableCells {
    /// The per-column cell view.
    type Cells<'a>: CellSource
    where
        Self: 'a;

    /// Stable table identifier (unique within a corpus).
    fn table_id(&self) -> u64;

    /// Number of columns.
    fn cell_columns(&self) -> usize;

    /// The cells of column `c` (columns are numbered left to right;
    /// `c < cell_columns()`).
    fn cells(&self, c: usize) -> Self::Cells<'_>;

    /// Ground-truth semantic types parallel to the columns, or an empty
    /// slice when the table is unlabelled.
    fn gold_labels(&self) -> &[SemanticType];

    /// Visit every cell value in column order — the trait counterpart of
    /// [`Table::for_each_value`], with the identical visit order.
    fn for_each_cell(&self, mut f: impl FnMut(&str)) {
        for c in 0..self.cell_columns() {
            let cells = self.cells(c);
            for i in 0..cells.num_cells() {
                f(cells.cell(i));
            }
        }
    }
}

impl<T: TableCells + ?Sized> TableCells for &T {
    type Cells<'a>
        = T::Cells<'a>
    where
        Self: 'a;

    fn table_id(&self) -> u64 {
        (**self).table_id()
    }

    fn cell_columns(&self) -> usize {
        (**self).cell_columns()
    }

    fn cells(&self, c: usize) -> Self::Cells<'_> {
        (**self).cells(c)
    }

    fn gold_labels(&self) -> &[SemanticType] {
        (**self).gold_labels()
    }
}

impl TableCells for Table {
    type Cells<'a> = &'a Column;

    fn table_id(&self) -> u64 {
        self.id
    }

    fn cell_columns(&self) -> usize {
        self.columns.len()
    }

    fn cells(&self, c: usize) -> &Column {
        &self.columns[c]
    }

    fn gold_labels(&self) -> &[SemanticType] {
        if self.is_labelled() {
            &self.labels
        } else {
            &[]
        }
    }
}

/// A collection of tables: the dataset `D` of the paper (or a fold of it).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    /// The member tables.
    pub tables: Vec<Table>,
}

impl Corpus {
    /// Create a corpus from tables.
    pub fn new(tables: Vec<Table>) -> Self {
        Corpus { tables }
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the corpus has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of labelled columns across all tables.
    pub fn num_columns(&self) -> usize {
        self.tables.iter().map(Table::num_columns).sum()
    }

    /// Restrict to multi-column tables: the paper's filtered dataset `D_mult`.
    pub fn multi_column_only(&self) -> Corpus {
        Corpus {
            tables: self
                .tables
                .iter()
                .filter(|t| t.is_multi_column())
                .cloned()
                .collect(),
        }
    }

    /// Per-type column counts (the data behind Figure 5).
    pub fn type_counts(&self) -> Vec<(SemanticType, usize)> {
        let mut counts = vec![0usize; crate::types::NUM_TYPES];
        for table in &self.tables {
            for label in &table.labels {
                counts[label.index()] += 1;
            }
        }
        let mut out: Vec<(SemanticType, usize)> = SemanticType::ALL
            .iter()
            .map(|t| (*t, counts[t.index()]))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        out
    }

    /// Iterate over the tables.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        Table::labelled(
            7,
            vec![
                Column::new(["Florence", "Warsaw", "London"]),
                Column::new(["Italy", "Poland", "UK"]),
            ],
            vec![SemanticType::City, SemanticType::Country],
        )
    }

    #[test]
    fn column_counts_cells() {
        let c = Column::new(["a", "", "  ", "b"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.non_empty_count(), 2);
        assert!(!c.is_empty());
        assert!(Column::default().is_empty());
    }

    #[test]
    fn table_dimensions() {
        let t = sample_table();
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.num_rows(), 3);
        assert!(t.is_labelled());
        assert!(t.is_multi_column());
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn labelled_requires_parallel_labels() {
        Table::labelled(0, vec![Column::new(["x"])], vec![]);
    }

    #[test]
    fn document_flattens_in_column_order() {
        let t = sample_table();
        assert_eq!(t.as_document(), "Florence Warsaw London Italy Poland UK");
        assert_eq!(t.all_values().count(), 6);
    }

    #[test]
    fn for_each_value_visits_all_values_in_document_order() {
        let t = sample_table();
        let mut seen = Vec::new();
        t.for_each_value(|v| seen.push(v.to_string()));
        let expected: Vec<String> = t.all_values().map(str::to_string).collect();
        assert_eq!(seen, expected);
        assert_eq!(seen.join(" "), t.as_document());
    }

    #[test]
    fn unlabelled_table_is_not_labelled() {
        let t = Table::unlabelled(1, vec![Column::new(["a"])]);
        assert!(!t.is_labelled());
        assert!(!t.is_multi_column());
    }

    #[test]
    fn corpus_multi_column_filter() {
        let corpus = Corpus::new(vec![
            sample_table(),
            Table::labelled(8, vec![Column::new(["42"])], vec![SemanticType::Age]),
        ]);
        assert_eq!(corpus.len(), 2);
        assert_eq!(corpus.num_columns(), 3);
        let mult = corpus.multi_column_only();
        assert_eq!(mult.len(), 1);
        assert!(mult.tables[0].is_multi_column());
    }

    #[test]
    fn type_counts_are_sorted_descending() {
        let corpus = Corpus::new(vec![sample_table(), sample_table()]);
        let counts = corpus.type_counts();
        assert_eq!(counts.len(), crate::types::NUM_TYPES);
        assert_eq!(counts[0].1, 2); // city and country both occur twice
        assert!(counts.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn cell_source_matches_column_iter() {
        let c = Column::new(["a", "", "b"]);
        assert_eq!(c.num_cells(), c.len());
        assert!(!c.no_cells());
        let via_trait: Vec<&str> = (0..c.num_cells()).map(|i| c.cell(i)).collect();
        let via_iter: Vec<&str> = c.iter().collect();
        assert_eq!(via_trait, via_iter);
        // The blanket reference impl forwards.
        let r = &c;
        assert_eq!(r.num_cells(), 3);
        assert_eq!(r.cell(2), "b");
    }

    #[test]
    fn table_cells_matches_table_accessors() {
        let t = sample_table();
        assert_eq!(t.table_id(), t.id);
        assert_eq!(t.cell_columns(), t.num_columns());
        assert_eq!(t.cells(1).cell(0), "Italy");
        assert_eq!(t.gold_labels(), &t.labels[..]);
        let mut via_trait = Vec::new();
        t.for_each_cell(|v| via_trait.push(v.to_string()));
        let mut via_table = Vec::new();
        t.for_each_value(|v| via_table.push(v.to_string()));
        assert_eq!(via_trait, via_table);
        let unlabelled = Table::unlabelled(1, vec![Column::new(["x"])]);
        assert!(unlabelled.gold_labels().is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let t = sample_table();
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
