//! A request's answer: every row rendered back to back into one buffer,
//! ordered by a packed key per row, then cut into the rows the output
//! returns — each allocated once, at its exact length.

use oodb_core::plancache::CachedPlan;
use oodb_exec::RootRow;

/// One rendered row: its byte range in the buffer and its first eight
/// bytes, zero-padded, read as a big-endian `u64`. Where two keys differ
/// they order as the rows' bytes do; where they tie, the rows' bytes
/// decide.
struct Span {
    key: u64,
    start: usize,
    end: usize,
}

/// The rows of one request's answer, rendered back to back into `text`.
pub(crate) struct Answer {
    text: String,
    spans: Vec<Span>,
}

impl Answer {
    /// An empty answer with room for `rows` rows' spans.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Answer {
            text: String::new(),
            spans: Vec::with_capacity(rows),
        }
    }

    /// Drops every row, keeping the buffers: a retried attempt starts an
    /// empty answer.
    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends one row, which `render` writes at the end of the buffer.
    fn push_row(&mut self, render: impl FnOnce(&mut String)) {
        let start = self.text.len();
        render(&mut self.text);
        let row = &self.text.as_bytes()[start..];
        let mut key = [0; 8];
        let n = row.len().min(8);
        key[..n].copy_from_slice(&row[..n]);
        self.spans.push(Span {
            key: u64::from_be_bytes(key),
            start,
            end: self.text.len(),
        });
        // Rows of one query share a shape: after the first, room for as
        // many more of its length as there is room for spans, up to
        // 64 KiB — an estimate is not a bound; past it the buffer doubles.
        if self.spans.len() == 1 {
            let rest = self.spans.capacity() - 1;
            self.text
                .reserve(rest.saturating_mul(self.text.len()).min(1 << 16));
        }
    }

    /// The rows in `Ord for str` order — the order `sort_unstable` gives
    /// the same rows as `String`s — each its own exact-length `String`.
    pub(crate) fn into_sorted_rows(mut self) -> Vec<String> {
        // Bytes order as `str`s do, without a char-boundary check per
        // comparison.
        let bytes = self.text.as_bytes();
        let row = |s: &Span| &bytes[s.start..s.end];
        self.spans
            .sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| row(a).cmp(row(b))));
        let text = self.text.as_str();
        self.spans
            .iter()
            .map(|s| text[s.start..s.end].to_owned())
            .collect()
    }
}

/// The root's row consumer: each result row is written once, into the
/// request's [`Answer`], from values still borrowed from the store.
/// Tuple results project only the query's *result* variables: different
/// plans bind different auxiliary variables (a materialized path object,
/// say), and those must not leak into the observable answer.
pub(crate) fn row_renderer(entry: &CachedPlan) -> impl FnMut(&mut Answer, RootRow<'_>) + '_ {
    let (scopes, result_vars) = (&entry.env.scopes, entry.result_vars);
    // The result variables' (name, column) in scope order: the root's
    // layout is the same for every row, so it is resolved once.
    let mut named = None;
    move |answer, row| match row {
        RootRow::Cells(cells) => answer.push_row(|line| {
            for (i, v) in cells.iter().enumerate() {
                line.push_str(if i > 0 { " | " } else { "" });
                v.write_to(line);
            }
        }),
        RootRow::Bound(cols, oids) => {
            let named = named.get_or_insert_with(|| {
                let result = scopes.iter().filter(|(v, _)| result_vars.contains(*v));
                let col = |v| cols.iter().position(|&c| c == v);
                let bound = result.filter_map(|(v, var)| Some((&*var.name, col(v)?)));
                bound.collect::<Vec<_>>()
            });
            answer.push_row(|line| {
                for (i, &(name, col)) in named.iter().enumerate() {
                    line.push_str(if i > 0 { "  " } else { "" });
                    line.push_str(name);
                    line.push('=');
                    oids[col].write_to(line);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `rows` as a request's answer returns them.
    fn keyed(rows: &[String]) -> Vec<String> {
        let mut answer = Answer::with_capacity(rows.len());
        for row in rows {
            answer.push_row(|line| line.push_str(row));
        }
        let out = answer.into_sorted_rows();
        assert!(
            out.iter().all(|r| r.capacity() == r.len()),
            "exact-length rows"
        );
        out
    }

    fn plain(rows: &[String]) -> Vec<String> {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        rows
    }

    /// Every row twice, then every prefix of it that ends on a char
    /// boundary (the empty row among them), then its first char ending
    /// at or past byte 8 — the one straddling byte 8, where one does —
    /// and everything before it, with a tail of `tails` after.
    fn with_ties(base: &[String], tails: &[String]) -> Vec<String> {
        let mut rows = Vec::new();
        for (i, row) in base.iter().enumerate() {
            rows.extend([row.clone(), row.clone()]);
            rows.extend(row.char_indices().map(|(at, _)| row[..at].to_string()));
            let mut ends = row.char_indices().map(|(at, c)| at + c.len_utf8());
            if let Some(end) = ends.find(|&end| end >= 8) {
                rows.push(format!("{}{}", &row[..end], tails[i % tails.len()]));
            }
        }
        rows
    }

    #[test]
    fn keyed_order_breaks_ties_on_the_bytes() {
        let rows = [
            "abcdefgh",
            "",
            "abcdefg",
            "a\0",
            "abcdefgh\0",
            "a",
            "abcdefg\u{20ac}x",
            "abcdefghi",
            "",
            "abcdefg\u{e9}",
            "abcdefg\u{20ac}",
            "abcdefgh",
            "abcdefgz",
        ];
        let rows = rows.map(String::from);
        assert_eq!(keyed(&rows), plain(&rows));
        assert!(keyed(&[]).is_empty());
    }

    #[test]
    fn a_long_first_row_does_not_reserve_the_estimate_times_over() {
        let mut answer = Answer::with_capacity(4096);
        let row = "x".repeat(1 << 20);
        answer.push_row(|line| line.push_str(&row));
        assert!(
            answer.text.capacity() <= 4 << 20,
            "{}",
            answer.text.capacity()
        );
        assert_eq!(answer.into_sorted_rows(), [row]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary UTF-8 rows, one- to four-byte chars and NUL among
        /// them, with exact duplicates, prefixes, rows shorter than eight
        /// bytes and rows equal in their first eight: the keyed order is
        /// `sort_unstable`'s, byte for byte.
        #[test]
        fn keyed_order_is_the_plain_sort_order(
            base in proptest::collection::vec("[ab~\u{0}\u{e9}\u{20ac}\u{1d11e}]{0,12}", 0..12),
            tails in proptest::collection::vec("[a\u{0}\u{e9}]{0,3}", 1..4),
            turn in 0usize..64,
        ) {
            let mut rows = with_ties(&base, &tails);
            let n = rows.len().max(1);
            rows.rotate_left(turn % n);
            prop_assert_eq!(keyed(&rows), plain(&rows));
        }
    }
}
