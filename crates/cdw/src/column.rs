//! Typed column storage.
//!
//! A table stores each column as one [`ColumnData`]: a validity bitmap
//! plus a vector of the column's family — `i64` for the integer types,
//! `f64`, [`Decimal`], [`Date`], [`Timestamp`], a `String` arena with
//! per-row spans for CHAR/VARCHAR (so a cell reads back as a `&str`
//! slice, no `unsafe`), and a byte arena for VARBYTE. A NULL slot keeps a
//! placeholder in the vector so row ids index every column directly.
//!
//! Values enter already coerced to the column's declared type (the
//! executor coerces before it appends or assigns), so every non-NULL cell
//! has exactly the column family's variant. Owned [`Value`]s are built
//! only when a cell is read out with [`ColumnData::get`].

use std::ops::Range;

use etlv_protocol::data::{Date, Decimal, Timestamp, Value};
use etlv_sql::SqlType;

use crate::key::{FastSet, RowKey};

/// A growable bit vector: bit `i` is set when row `i` is non-NULL.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Bit `i`.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Append every bit of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        if self.len.is_multiple_of(64) {
            // Word-aligned: copy whole words.
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Overwrite bit `i`.
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// Placeholder stored under a NULL date slot.
fn null_date() -> Date {
    Date::new(1970, 1, 1).expect("valid date")
}

/// Backing buffer of a variable-width arena: `String` for text, `Vec<u8>`
/// for bytes.
trait ArenaBuf: Default {
    type Item: ?Sized;
    fn push_item(&mut self, item: &Self::Item);
    fn item(&self, span: Range<usize>) -> &Self::Item;
    fn byte_len(&self) -> usize;
}

impl ArenaBuf for String {
    type Item = str;
    fn push_item(&mut self, item: &str) {
        self.push_str(item);
    }
    fn item(&self, span: Range<usize>) -> &str {
        &self[span]
    }
    fn byte_len(&self) -> usize {
        self.len()
    }
}

impl ArenaBuf for Vec<u8> {
    type Item = [u8];
    fn push_item(&mut self, item: &[u8]) {
        self.extend_from_slice(item);
    }
    fn item(&self, span: Range<usize>) -> &[u8] {
        &self[span]
    }
    fn byte_len(&self) -> usize {
        self.len()
    }
}

/// Variable-width cells: one shared buffer plus a `(start, end)` span per
/// row. Overwriting a cell appends the new contents and leaves the old
/// bytes as garbage until the arena is compacted.
#[derive(Debug, Clone, Default)]
struct Arena<B> {
    buf: B,
    spans: Vec<(usize, usize)>,
    garbage: usize,
}

impl<B: ArenaBuf> Arena<B> {
    fn get(&self, i: usize) -> &B::Item {
        let (s, e) = self.spans[i];
        self.buf.item(s..e)
    }

    fn push(&mut self, item: &B::Item) {
        let start = self.buf.byte_len();
        self.buf.push_item(item);
        self.spans.push((start, self.buf.byte_len()));
    }

    /// Append one cell written by `fill` (text plus CHAR padding).
    fn push_with(&mut self, fill: impl FnOnce(&mut B)) {
        let start = self.buf.byte_len();
        fill(&mut self.buf);
        self.spans.push((start, self.buf.byte_len()));
    }

    fn set(&mut self, i: usize, item: &B::Item) {
        let (s, e) = self.spans[i];
        self.garbage += e - s;
        let start = self.buf.byte_len();
        self.buf.push_item(item);
        self.spans[i] = (start, self.buf.byte_len());
        if self.garbage > 4096 && self.garbage * 2 > self.buf.byte_len() {
            self.retain(&mut |_| true);
        }
    }

    fn append(&mut self, other: Arena<B>) {
        if other.garbage == 0 {
            // Garbage-free spans tile the buffer in row order: copy it in
            // one piece and shift the spans.
            let base = self.buf.byte_len();
            self.buf.push_item(other.buf.item(0..other.buf.byte_len()));
            self.spans
                .extend(other.spans.iter().map(|&(s, e)| (base + s, base + e)));
        } else {
            for &(s, e) in &other.spans {
                self.push(other.buf.item(s..e));
            }
        }
    }

    /// Keep the cells whose row passes `keep`, rewriting the buffer
    /// compactly (garbage included).
    fn retain(&mut self, keep: &mut dyn FnMut(usize) -> bool) {
        let mut buf = B::default();
        let mut spans = Vec::with_capacity(self.spans.len());
        for (i, &(s, e)) in self.spans.iter().enumerate() {
            if keep(i) {
                let start = buf.byte_len();
                buf.push_item(self.buf.item(s..e));
                spans.push((start, buf.byte_len()));
            }
        }
        *self = Arena {
            buf,
            spans,
            garbage: 0,
        };
    }
}

/// A non-NULL text or integer cell, borrowed for hashing and equality in
/// place (GROUP BY over a stored column). Equal exactly when the cells'
/// values are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKey<'a> {
    /// An integer cell.
    Int(i64),
    /// A CHAR/VARCHAR cell.
    Text(&'a str),
}

/// The per-family value vector of a column.
#[derive(Debug, Clone)]
enum Values {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Decimal(Vec<Decimal>),
    Date(Vec<Date>),
    Timestamp(Vec<Timestamp>),
    Text(Arena<String>),
    Bytes(Arena<Vec<u8>>),
}

/// One stored column: validity bitmap plus typed values.
#[derive(Debug, Clone)]
pub struct ColumnData {
    valid: Bitmap,
    values: Values,
}

impl ColumnData {
    /// An empty column for declared type `ty`.
    pub fn new(ty: SqlType) -> ColumnData {
        let values = match ty {
            SqlType::ByteInt | SqlType::SmallInt | SqlType::Integer | SqlType::BigInt => {
                Values::Int(Vec::new())
            }
            SqlType::Float => Values::Float(Vec::new()),
            SqlType::Decimal(..) => Values::Decimal(Vec::new()),
            SqlType::Date => Values::Date(Vec::new()),
            SqlType::Timestamp => Values::Timestamp(Vec::new()),
            SqlType::Char(..) | SqlType::VarChar(..) | SqlType::NVarChar(_) => {
                Values::Text(Arena::default())
            }
            SqlType::VarByte(_) => Values::Bytes(Arena::default()),
        };
        ColumnData {
            valid: Bitmap::default(),
            values,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Whether row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        !self.valid.get(i)
    }

    /// Row `i` of a CHAR/VARCHAR column as a borrowed slice (`None` for
    /// NULL or a non-text column).
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match &self.values {
            Values::Text(a) if self.valid.get(i) => Some(a.get(i)),
            _ => None,
        }
    }

    /// Row `i` as an owned value.
    pub fn get(&self, i: usize) -> Value {
        if !self.valid.get(i) {
            return Value::Null;
        }
        match &self.values {
            Values::Int(v) => Value::Int(v[i]),
            Values::Float(v) => Value::Float(v[i]),
            Values::Decimal(v) => Value::Decimal(v[i]),
            Values::Date(v) => Value::Date(v[i]),
            Values::Timestamp(v) => Value::Timestamp(v[i]),
            Values::Text(a) => Value::Str(a.get(i).to_owned()),
            Values::Bytes(a) => Value::Bytes(a.get(i).to_vec()),
        }
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        self.valid.push(false);
        match &mut self.values {
            Values::Int(v) => v.push(0),
            Values::Float(v) => v.push(0.0),
            Values::Decimal(v) => v.push(Decimal::zero(0)),
            Values::Date(v) => v.push(null_date()),
            Values::Timestamp(v) => v.push(Timestamp::from_micros(0)),
            Values::Text(a) => a.push(""),
            Values::Bytes(a) => a.push(&[]),
        }
    }

    /// Append a coerced value. A non-NULL value must carry the column
    /// family's variant.
    pub fn push(&mut self, value: &Value) {
        if value.is_null() {
            return self.push_null();
        }
        match (&mut self.values, value) {
            (Values::Int(v), Value::Int(x)) => v.push(*x),
            (Values::Float(v), Value::Float(x)) => v.push(*x),
            (Values::Decimal(v), Value::Decimal(x)) => v.push(*x),
            (Values::Date(v), Value::Date(x)) => v.push(*x),
            (Values::Timestamp(v), Value::Timestamp(x)) => v.push(*x),
            (Values::Text(a), Value::Str(s)) => a.push(s),
            (Values::Bytes(a), Value::Bytes(b)) => a.push(b),
            (_, other) => panic!("{} value in a {} column", other.type_name(), self.family()),
        }
        self.valid.push(true);
    }

    /// Append a text cell straight from a borrowed slice, space-padded to
    /// `pad_to` bytes (CHAR). Text columns only.
    pub fn push_str_padded(&mut self, s: &str, pad_to: usize) {
        let Values::Text(a) = &mut self.values else {
            panic!("text value in a {} column", self.family());
        };
        a.push_with(|buf| {
            buf.push_str(s);
            for _ in s.len()..pad_to {
                buf.push(' ');
            }
        });
        self.valid.push(true);
    }

    /// Overwrite row `i` with a coerced value.
    pub fn set(&mut self, i: usize, value: &Value) {
        self.valid.set(i, !value.is_null());
        match (&mut self.values, value) {
            (Values::Text(a), Value::Null) => a.set(i, ""),
            (Values::Bytes(a), Value::Null) => a.set(i, &[]),
            (_, Value::Null) => {}
            (Values::Int(v), Value::Int(x)) => v[i] = *x,
            (Values::Float(v), Value::Float(x)) => v[i] = *x,
            (Values::Decimal(v), Value::Decimal(x)) => v[i] = *x,
            (Values::Date(v), Value::Date(x)) => v[i] = *x,
            (Values::Timestamp(v), Value::Timestamp(x)) => v[i] = *x,
            (Values::Text(a), Value::Str(s)) => a.set(i, s),
            (Values::Bytes(a), Value::Bytes(b)) => a.set(i, b),
            (_, other) => panic!("{} value in a {} column", other.type_name(), self.family()),
        }
    }

    /// Move every row of `other` (a column of the same family) to the end
    /// of this one.
    pub fn append(&mut self, other: ColumnData) {
        if self.is_empty() {
            debug_assert_eq!(self.family(), other.family());
            *self = other;
            return;
        }
        self.valid.extend(&other.valid);
        match (&mut self.values, other.values) {
            (Values::Int(a), Values::Int(b)) => a.extend(b),
            (Values::Float(a), Values::Float(b)) => a.extend(b),
            (Values::Decimal(a), Values::Decimal(b)) => a.extend(b),
            (Values::Date(a), Values::Date(b)) => a.extend(b),
            (Values::Timestamp(a), Values::Timestamp(b)) => a.extend(b),
            (Values::Text(a), Values::Text(b)) => a.append(b),
            (Values::Bytes(a), Values::Bytes(b)) => a.append(b),
            _ => panic!("appending columns of different families"),
        }
    }

    /// Keep only the rows whose `keep` flag is set (DELETE compaction).
    pub fn retain(&mut self, keep: &[bool]) {
        let mut valid = Bitmap::default();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                valid.push(self.valid.get(i));
            }
        }
        self.valid = valid;
        fn keep_vec<T>(v: &mut Vec<T>, keep: &[bool]) {
            let mut i = 0;
            v.retain(|_| {
                i += 1;
                keep[i - 1]
            });
        }
        match &mut self.values {
            Values::Int(v) => keep_vec(v, keep),
            Values::Float(v) => keep_vec(v, keep),
            Values::Decimal(v) => keep_vec(v, keep),
            Values::Date(v) => keep_vec(v, keep),
            Values::Timestamp(v) => keep_vec(v, keep),
            Values::Text(a) => a.retain(&mut |i| keep[i]),
            Values::Bytes(a) => a.retain(&mut |i| keep[i]),
        }
    }

    /// Whether [`cell_key`](Self::cell_key) covers this column's family
    /// (integer or text).
    pub fn has_cell_keys(&self) -> bool {
        matches!(self.values, Values::Int(_) | Values::Text(_))
    }

    /// Row `i` as a borrowed key (`None` for NULL or a family without
    /// cell keys).
    pub fn cell_key(&self, i: usize) -> Option<CellKey<'_>> {
        if !self.valid.get(i) {
            return None;
        }
        match &self.values {
            Values::Int(v) => Some(CellKey::Int(v[i])),
            Values::Text(a) => Some(CellKey::Text(a.get(i))),
            _ => None,
        }
    }

    /// Number of distinct values (NULL counting as one) among `rows`, with
    /// [`RowKey`] equality. Text and integer cells are compared in place.
    pub fn distinct_count(&self, rows: &[usize]) -> usize {
        if self.has_cell_keys() {
            let set: FastSet<Option<CellKey<'_>>> =
                rows.iter().map(|&r| self.cell_key(r)).collect();
            return set.len();
        }
        let set: FastSet<RowKey> = rows.iter().map(|&r| RowKey(vec![self.get(r)])).collect();
        set.len()
    }

    fn family(&self) -> &'static str {
        match self.values {
            Values::Int(_) => "INTEGER",
            Values::Float(_) => "FLOAT",
            Values::Decimal(_) => "DECIMAL",
            Values::Date(_) => "DATE",
            Values::Timestamp(_) => "TIMESTAMP",
            Values::Text(_) => "VARCHAR",
            Values::Bytes(_) => "VARBYTE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_sql::types::Charset;

    fn text_bytes(c: &ColumnData) -> usize {
        match &c.values {
            Values::Text(a) => a.buf.len(),
            _ => unreachable!("text column"),
        }
    }

    #[test]
    fn text_cells_survive_overwrites_compaction_append_and_retain() {
        let mut col = ColumnData::new(SqlType::VarChar(100, Charset::Latin));
        let mut model: Vec<Value> = Vec::new();
        for i in 0..200 {
            let v = match i % 7 {
                0 => Value::Null,
                1 => Value::Str(String::new()),
                _ => Value::Str(format!("v{i}")),
            };
            col.push(&v);
            model.push(v);
        }
        // Rewrite a third of the cells many times: the arena compacts
        // instead of growing with every overwrite.
        for round in 0..40 {
            for i in (0..200).step_by(3) {
                let v = match (i + round) % 5 {
                    0 => Value::Null,
                    _ => Value::Str(format!("{round}-{i}-{}", "x".repeat(40))),
                };
                col.set(i, &v);
                model[i] = v;
            }
        }
        assert!(text_bytes(&col) < 200 * 50 * 3, "garbage is reclaimed");
        // Appending a column with garbage, then a fresh one.
        let mut dirty = col.clone();
        dirty.set(1, &Value::Str("dirty".into()));
        let mut tail = model.clone();
        tail[1] = Value::Str("dirty".into());
        col.append(dirty);
        model.extend(tail);
        let mut fresh = ColumnData::new(SqlType::VarChar(100, Charset::Latin));
        fresh.push(&Value::Str("fresh".into()));
        col.append(fresh);
        model.push(Value::Str("fresh".into()));
        // DELETE compaction.
        let keep: Vec<bool> = (0..model.len()).map(|i| i % 4 != 1).collect();
        col.retain(&keep);
        let mut flags = keep.iter();
        model.retain(|_| *flags.next().unwrap());
        assert_eq!(col.len(), model.len());
        for (i, v) in model.iter().enumerate() {
            assert_eq!(&col.get(i), v, "row {i}");
            assert_eq!(col.is_null(i), v.is_null(), "row {i}");
        }
    }

    #[test]
    fn bitmap_extend_matches_bit_pushes() {
        for (a, b) in [(0, 70), (64, 5), (3, 130), (100, 0)] {
            let bits =
                |n: usize, seed: usize| (0..n).map(move |i| (i * 7 + seed).is_multiple_of(3));
            let mut x = Bitmap::default();
            bits(a, 1).for_each(|v| x.push(v));
            let mut y = Bitmap::default();
            bits(b, 2).for_each(|v| y.push(v));
            x.extend(&y);
            let want: Vec<bool> = bits(a, 1).chain(bits(b, 2)).collect();
            let got: Vec<bool> = (0..x.len()).map(|i| x.get(i)).collect();
            assert_eq!(got, want, "{a} + {b}");
            // Bits pushed after an extend land in place too.
            x.push(true);
            assert!(x.get(a + b));
        }
    }
}
