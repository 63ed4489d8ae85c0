//! Ordered secondary indexes.
//!
//! A B+tree-style multi-map from a tuple of column values to the row ids
//! holding that tuple, ordered by [`cmp_rows`]. Because `cmp_rows`
//! compares element-wise and then by length, a key *prefix* sorts
//! immediately before every key extending it — which is what makes
//! multi-column prefix seeks (`eq` on the first k columns, optionally a
//! range on column k+1) a single ordered-range walk.
//!
//! Indexes are structural only: even a `unique` index stores duplicate
//! keys faithfully, because with native uniqueness enforcement off (the
//! CDW default the paper is built around) duplicate keys legitimately
//! land in the table. Enforcement lives in the executor.

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

use etlv_protocol::data::Value;

use crate::key::cmp_rows;

/// A tuple of values ordered by [`cmp_rows`] (NULL first, numerics
/// cross-type, then by tuple length — so prefixes sort before their
/// extensions). A one-value key is stored inline; a one-text key also
/// carries its leading bytes, so most comparisons never read the heap.
#[derive(Debug, Clone)]
pub enum IndexKey {
    /// A single-column, non-text key.
    One(Value),
    /// A single text value and its [`text_head`].
    Text(u128, Value),
    /// A multi-column key (or a seek prefix of any width).
    Many(Vec<Value>),
}

/// The first 16 bytes of `s`, zero-padded, as a big-endian integer. When
/// two heads differ they order exactly as the strings do (a string that
/// runs out first is a prefix of the other, and pads with zeros).
fn text_head(s: &str) -> u128 {
    let mut head = [0u8; 16];
    let n = s.len().min(16);
    head[..n].copy_from_slice(&s.as_bytes()[..n]);
    u128::from_be_bytes(head)
}

impl IndexKey {
    /// The key's values, in column order.
    pub fn as_slice(&self) -> &[Value] {
        match self {
            IndexKey::One(v) | IndexKey::Text(_, v) => std::slice::from_ref(v),
            IndexKey::Many(vs) => vs,
        }
    }
}

impl From<Value> for IndexKey {
    fn from(value: Value) -> IndexKey {
        match &value {
            Value::Str(s) => IndexKey::Text(text_head(s), value),
            _ => IndexKey::One(value),
        }
    }
}

impl From<Vec<Value>> for IndexKey {
    fn from(mut values: Vec<Value>) -> IndexKey {
        match values.len() {
            1 => values.pop().expect("one value").into(),
            _ => IndexKey::Many(values),
        }
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &IndexKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &IndexKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &IndexKey) -> Ordering {
        // Same order as `cmp_rows`, with shortcuts for the common
        // one-column shapes (the hot path of index maintenance and seeks).
        match (self, other) {
            (IndexKey::One(Value::Int(a)), IndexKey::One(Value::Int(b))) => a.cmp(b),
            (IndexKey::Text(a, _), IndexKey::Text(b, _)) if a != b => a.cmp(b),
            _ => cmp_rows(self.as_slice(), other.as_slice()),
        }
    }
}

/// The row ids under one key; a unique key's single row id is stored
/// inline.
#[derive(Debug, Clone)]
enum Rowids {
    One(usize),
    Many(Vec<usize>),
}

impl Rowids {
    fn as_slice(&self) -> &[usize] {
        match self {
            Rowids::One(r) => std::slice::from_ref(r),
            Rowids::Many(rs) => rs,
        }
    }

    fn push(&mut self, rowid: usize) {
        match self {
            Rowids::One(r) => *self = Rowids::Many(vec![*r, rowid]),
            Rowids::Many(rs) => rs.push(rowid),
        }
    }
}

/// An inclusive/exclusive bound on the range column of a seek.
#[derive(Debug, Clone)]
pub struct SeekBound {
    /// Bound value.
    pub value: Value,
    /// Whether rows equal to `value` are included.
    pub inclusive: bool,
}

/// An ordered (B+tree-style) index over a table's columns.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    /// Index name (unique within its table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub columns: Vec<usize>,
    /// Declared unique (planner metadata; not structurally enforced).
    pub unique: bool,
    map: BTreeMap<IndexKey, Rowids>,
    entries: usize,
}

impl OrderedIndex {
    /// New empty index over `columns`.
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> OrderedIndex {
        OrderedIndex {
            name: name.into(),
            columns,
            unique,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// Number of (key, rowid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert `rowid` under `key` (the row's values of [`columns`], in
    /// order). Returns the number of index maintenance operations
    /// performed (always 1).
    ///
    /// [`columns`]: OrderedIndex::columns
    pub fn insert(&mut self, key: IndexKey, rowid: usize) -> usize {
        match self.map.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().push(rowid),
            Entry::Vacant(e) => {
                e.insert(Rowids::One(rowid));
            }
        }
        self.entries += 1;
        1
    }

    /// Insert every `(key, rowid)` entry; equal keys keep their rowids in
    /// entry order, exactly as one [`insert`](Self::insert) per entry
    /// would. An empty index is bulk-built from the sorted entries instead
    /// of descending the tree once per entry. Returns the number of index
    /// maintenance operations (one per entry).
    pub fn extend(&mut self, mut entries: Vec<(IndexKey, usize)>) -> usize {
        let n = entries.len();
        if !self.map.is_empty() {
            for (key, rowid) in entries {
                self.insert(key, rowid);
            }
            return n;
        }
        // Stable: equal keys keep entry order.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut grouped: Vec<(IndexKey, Rowids)> = Vec::with_capacity(n);
        for (key, rowid) in entries {
            match grouped.last_mut() {
                Some((last, rowids)) if *last == key => rowids.push(rowid),
                _ => grouped.push((key, Rowids::One(rowid))),
            }
        }
        self.map = grouped.into_iter().collect();
        self.entries = n;
        n
    }

    /// Drop every entry (before a re-key).
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }

    /// Whether any row carries exactly `key` (full-width key).
    pub fn contains_key(&self, key: &IndexKey) -> bool {
        self.map.contains_key(key)
    }

    /// Row ids carrying exactly `key` (full-width key), in insertion
    /// order — the same rows [`seek_eq`](Self::seek_eq) finds, through
    /// one lookup.
    pub fn get(&self, key: &IndexKey) -> &[usize] {
        self.map.get(key).map_or(&[], Rowids::as_slice)
    }

    /// Row ids whose first `prefix.len()` key columns equal `prefix`,
    /// in key order (callers sort by rowid when scan order matters).
    pub fn seek_eq(&self, prefix: &[Value]) -> Vec<usize> {
        self.seek(prefix, None, None)
    }

    /// Prefix-equality seek plus an optional range on the next key column:
    /// rows where `key[..p] == prefix` and `lo <= key[p] <= hi` (with
    /// bound inclusivity per [`SeekBound`]). NULLs in the range column
    /// never match (SQL comparison semantics).
    pub fn seek(
        &self,
        prefix: &[Value],
        lo: Option<&SeekBound>,
        hi: Option<&SeekBound>,
    ) -> Vec<usize> {
        let p = prefix.len();
        let ranged = p < self.columns.len() && (lo.is_some() || hi.is_some());
        // Start at the tightest expressible lower bound: the prefix alone,
        // or the prefix extended with the lower range value. A prefix sorts
        // before all its extensions, so Included() never skips a match.
        let start: Vec<Value> = match (ranged, lo) {
            (true, Some(b)) => {
                let mut k = prefix.to_vec();
                k.push(b.value.clone());
                k
            }
            _ => prefix.to_vec(),
        };
        let mut out = Vec::new();
        for (key, rowids) in self
            .map
            .range((Bound::Included(IndexKey::Many(start)), Bound::Unbounded))
        {
            let key = key.as_slice();
            // Stop as soon as the equality prefix diverges (keys are sorted).
            if key.len() < p || cmp_rows(&key[..p], prefix) != Ordering::Equal {
                break;
            }
            if ranged {
                let Some(v) = key.get(p) else { continue };
                if v.is_null() {
                    // NULL sorts first within the prefix group; skip, a
                    // later key may still be in range.
                    continue;
                }
                if let Some(b) = lo {
                    match crate::key::cmp_values(v, &b.value) {
                        Ordering::Less => continue,
                        Ordering::Equal if !b.inclusive => continue,
                        _ => {}
                    }
                }
                if let Some(b) = hi {
                    match crate::key::cmp_values(v, &b.value) {
                        Ordering::Greater => break,
                        Ordering::Equal if !b.inclusive => break,
                        _ => {}
                    }
                }
            }
            out.extend_from_slice(rowids.as_slice());
        }
        out
    }

    /// Every (key, rowids) entry in key order — consistency checks only.
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], &[usize])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Value>> {
        // (A, B): A groups, B ranges within a group.
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::Int(7)],
            vec![Value::Int(1), Value::Int(20)], // duplicate key
        ]
    }

    fn build(ix: &mut OrderedIndex, rows: &[Vec<Value>]) {
        for (i, r) in rows.iter().enumerate() {
            let key: Vec<Value> = ix.columns.iter().map(|&c| r[c].clone()).collect();
            ix.insert(key.into(), i);
        }
    }

    fn built() -> OrderedIndex {
        let mut ix = OrderedIndex::new("IX", vec![0, 1], false);
        build(&mut ix, &rows());
        ix
    }

    #[test]
    fn eq_prefix_seek_returns_all_extensions() {
        let ix = built();
        let mut hit = ix.seek_eq(&[Value::Int(1)]);
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1, 5]);
        assert!(ix.seek_eq(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn full_key_seek_and_duplicates() {
        let ix = built();
        let mut hit = ix.seek_eq(&[Value::Int(1), Value::Int(20)]);
        hit.sort_unstable();
        assert_eq!(hit, vec![1, 5], "duplicate keys both stored");
        assert!(ix.contains_key(&vec![Value::Int(2), Value::Null].into()));
        let mut hit = ix.get(&vec![Value::Int(1), Value::Int(20)].into()).to_vec();
        hit.sort_unstable();
        assert_eq!(hit, vec![1, 5], "full-key lookup matches the seek");
        assert_eq!(ix.len(), 6);
    }

    #[test]
    fn range_seek_respects_bounds_and_skips_nulls() {
        let ix = built();
        let lo = SeekBound {
            value: Value::Int(5),
            inclusive: true,
        };
        let hi = SeekBound {
            value: Value::Int(5),
            inclusive: true,
        };
        assert_eq!(ix.seek(&[Value::Int(2)], Some(&lo), Some(&hi)), vec![2]);
        // Exclusive bound drops the equal row; the NULL row never matches.
        let lo_x = SeekBound {
            value: Value::Int(5),
            inclusive: false,
        };
        assert!(ix.seek(&[Value::Int(2)], Some(&lo_x), None).is_empty());
        // Unbounded-low range still skips the NULL.
        let hi9 = SeekBound {
            value: Value::Int(9),
            inclusive: true,
        };
        assert_eq!(ix.seek(&[Value::Int(2)], None, Some(&hi9)), vec![2]);
    }

    #[test]
    fn range_on_first_column_with_empty_prefix() {
        let mut ix = OrderedIndex::new("PK", vec![1], true);
        build(&mut ix, &rows());
        let lo = SeekBound {
            value: Value::Int(7),
            inclusive: true,
        };
        let hi = SeekBound {
            value: Value::Int(20),
            inclusive: false,
        };
        let mut hit = ix.seek(&[], Some(&lo), Some(&hi));
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 4], "10 and 7 in [7,20); 20s and NULL out");
    }

    #[test]
    fn text_heads_order_like_the_strings() {
        let words = [
            "",
            "a",
            "a\0",
            "a\0b",
            "ab",
            "abcdefghijklmnop",
            "abcdefghijklmnopq",
            "abcdefghijklmnopr",
            "abcdefghijklmnoq",
            "b",
            "\u{e9}",
        ];
        for x in words {
            for y in words {
                let (kx, ky) = (
                    IndexKey::from(Value::from(x)),
                    IndexKey::from(Value::from(y)),
                );
                assert_eq!(kx.cmp(&ky), x.cmp(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn bulk_extend_matches_one_insert_per_entry() {
        let entries = || -> Vec<(IndexKey, usize)> {
            rows()
                .iter()
                .enumerate()
                .map(|(i, r)| (vec![r[0].clone(), r[1].clone()].into(), i))
                .collect()
        };
        let mut bulk = OrderedIndex::new("IX", vec![0, 1], false);
        assert_eq!(bulk.extend(entries()), 6);
        let one = built();
        let dump = |ix: &OrderedIndex| -> Vec<(Vec<Value>, Vec<usize>)> {
            ix.entries()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        };
        assert_eq!(dump(&bulk), dump(&one));
        assert_eq!(bulk.len(), one.len());
        // Extending a non-empty index inserts entry by entry.
        bulk.extend(vec![(vec![Value::Int(1), Value::Int(20)].into(), 6)]);
        assert_eq!(
            bulk.seek_eq(&[Value::Int(1), Value::Int(20)]),
            vec![1, 5, 6]
        );
    }

    #[test]
    fn clear_then_reinsert_matches_fresh_build() {
        let mut a = built();
        a.clear();
        assert!(a.is_empty());
        build(&mut a, &rows());
        let b = built();
        let av: Vec<_> = a.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        let bv: Vec<_> = b.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(av, bv);
        assert_eq!(a.len(), 6);
    }
}
