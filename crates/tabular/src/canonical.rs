//! Canonicalization of raw column headers into the paper's canonical form.
//!
//! Section 4.1 of the paper: *"The canonicalization process starts with
//! trimming content in parentheses. We then convert strings to lower case,
//! capitalize words except for the first (if there are more than one word)
//! and concatenate the results into a single string."*
//!
//! Examples from the paper:
//! * `"YEAR"`, `"Year"`, `"year (first occurrence)"` → `"year"`
//! * `"birth place (country)"` → `"birthPlace"`

use crate::types::SemanticType;

/// Convert a raw column header into its canonical camel-case form.
///
/// The transformation is:
/// 1. drop any content inside parentheses (including nested/unbalanced ones),
/// 2. split into lower-cased words on whitespace, underscores, hyphens and
///    other non-alphanumeric separators ([`crate::text::tokenize`]),
/// 3. capitalize the first letter of every word except the first,
/// 4. concatenate.
///
/// ```
/// use sato_tabular::canonical::canonicalize_header;
/// assert_eq!(canonicalize_header("YEAR"), "year");
/// assert_eq!(canonicalize_header("year (first occurrence)"), "year");
/// assert_eq!(canonicalize_header("birth place (country)"), "birthPlace");
/// assert_eq!(canonicalize_header("File_Size"), "fileSize");
/// ```
pub fn canonicalize_header(raw: &str) -> String {
    let trimmed = strip_parentheses(raw);
    // Insert word boundaries at lower-case → upper-case transitions so that
    // headers that are already camel-cased ("birthPlace", "fileSize") are
    // preserved by the round trip rather than collapsed to a single word.
    let mut spaced = String::with_capacity(trimmed.len() + 8);
    let mut prev_lower_or_digit = false;
    for c in trimmed.chars() {
        if c.is_uppercase() && prev_lower_or_digit {
            spaced.push(' ');
        }
        prev_lower_or_digit = c.is_lowercase() || c.is_ascii_digit();
        spaced.push(c);
    }
    let words = crate::text::tokenize(&spaced);

    let mut out = String::with_capacity(trimmed.len());
    for (i, word) in words.iter().enumerate() {
        if i == 0 {
            out.push_str(word);
        } else {
            let mut chars = word.chars();
            if let Some(first) = chars.next() {
                out.extend(first.to_uppercase());
                out.push_str(chars.as_str());
            }
        }
    }
    out
}

/// Remove all parenthesised content from a header string.
///
/// Unbalanced opening parentheses drop everything that follows them, which
/// matches the "trim content in parentheses" description conservatively.
fn strip_parentheses(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Canonicalize a header and look it up in the 78-type registry.
///
/// Returns `None` when the canonical form is not one of the semantic types
/// considered by the paper; such columns are excluded from the dataset
/// exactly as the paper excludes headers outside the 78 types.
pub fn header_to_type(raw: &str) -> Option<SemanticType> {
    SemanticType::from_canonical_name(&canonicalize_header(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        assert_eq!(canonicalize_header("YEAR"), "year");
        assert_eq!(canonicalize_header("Year"), "year");
        assert_eq!(canonicalize_header("year (first occurrence)"), "year");
        assert_eq!(canonicalize_header("birth place (country)"), "birthPlace");
    }

    #[test]
    fn separators_become_camel_case() {
        assert_eq!(canonicalize_header("file_size"), "fileSize");
        assert_eq!(canonicalize_header("file-size"), "fileSize");
        assert_eq!(canonicalize_header("TEAM NAME"), "teamName");
        assert_eq!(canonicalize_header("Birth Date"), "birthDate");
    }

    #[test]
    fn camel_case_headers_are_preserved() {
        assert_eq!(canonicalize_header("birthPlace"), "birthPlace");
        assert_eq!(canonicalize_header("fileSize"), "fileSize");
        assert_eq!(canonicalize_header("teamName"), "teamName");
        // Fully upper-case single words still collapse to lower case.
        assert_eq!(canonicalize_header("ISBN"), "isbn");
    }

    #[test]
    fn nested_and_unbalanced_parentheses() {
        assert_eq!(canonicalize_header("rank (overall (2019))"), "rank");
        assert_eq!(canonicalize_header("rank (overall"), "rank");
        assert_eq!(canonicalize_header("sales [millions]"), "sales");
    }

    #[test]
    fn empty_and_symbol_only_headers() {
        assert_eq!(canonicalize_header(""), "");
        assert_eq!(canonicalize_header("___"), "");
        assert_eq!(canonicalize_header("(hidden)"), "");
    }

    #[test]
    fn header_lookup_matches_registry() {
        assert_eq!(
            header_to_type("Birth Place"),
            Some(SemanticType::BirthPlace)
        );
        assert_eq!(header_to_type("CITY"), Some(SemanticType::City));
        assert_eq!(header_to_type("population"), None);
    }

    #[test]
    fn unicode_headers_do_not_panic() {
        assert_eq!(canonicalize_header("Größe"), "größe");
        assert_eq!(canonicalize_header("année (fr)"), "année");
    }
}
