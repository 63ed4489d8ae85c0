//! The CDW catalog: schemas, column storage, ordered indexes, statistics,
//! and per-table locking.
//!
//! The catalog maps canonical table names to `Arc<RwLock<Table>>` handles
//! so statements lock exactly the tables they touch — readers of
//! different tables (and readers of the same table) no longer serialize
//! behind one global lock. Lock acquisition order is by canonical name
//! (sorted in the engine) to stay deadlock-free.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

use etlv_protocol::data::Value;
use etlv_sql::ast::{ColumnDef, TableConstraint};
use etlv_sql::SqlType;
use parking_lot::RwLock;

use crate::column::ColumnData;
use crate::error::CdwError;
use crate::index::{IndexKey, OrderedIndex};
use crate::key::RowKey;
use crate::plan::TableStats;

/// A column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (stored upper-cased; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// NOT NULL?
    pub not_null: bool,
}

/// A stored table: schema, typed column storage, ordered indexes, and
/// statistics. Row `i` is position `i` of every column.
#[derive(Debug, Clone)]
pub struct Table {
    /// Canonical (upper-cased, dotted) name.
    pub name: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Indexes of the unique-constrained columns, if any.
    pub unique_columns: Option<Vec<usize>>,
    /// Column storage, parallel to `columns`.
    data: Vec<ColumnData>,
    /// Row count (every column holds exactly this many cells).
    len: usize,
    /// Ordered secondary indexes, maintained through every mutation.
    pub indexes: Vec<OrderedIndex>,
    /// Position in `indexes` of the primary-key index, when a unique
    /// constraint is declared.
    pub pk_index: Option<usize>,
    /// Planner statistics (refreshed lazily on drift).
    pub stats: TableStats,
}

impl Table {
    /// Build a table from a parsed CREATE TABLE.
    pub fn from_create(
        name: String,
        columns: &[ColumnDef],
        constraints: &[TableConstraint],
    ) -> Result<Table, CdwError> {
        let cols: Vec<Column> = columns
            .iter()
            .map(|c| Column {
                name: c.name.to_ascii_uppercase(),
                ty: c.ty,
                not_null: c.not_null,
            })
            .collect();
        let mut unique_columns = None;
        for c in constraints {
            let TableConstraint::Unique { columns: ucols, .. } = c;
            let mut idxs = Vec::with_capacity(ucols.len());
            for uc in ucols {
                let uc_up = uc.to_ascii_uppercase();
                let idx = cols
                    .iter()
                    .position(|c| c.name == uc_up)
                    .ok_or_else(|| CdwError::ColumnNotFound(uc.clone()))?;
                idxs.push(idx);
            }
            // Multiple unique constraints collapse to the first (the
            // legacy scripts in scope declare at most one).
            if unique_columns.is_none() {
                unique_columns = Some(idxs);
            }
        }
        let mut indexes = Vec::new();
        let mut pk_index = None;
        if let Some(idxs) = &unique_columns {
            // The PK index is always maintained, even with native
            // uniqueness enforcement off: the executor's emulation probe
            // and the planner both seek it.
            indexes.push(OrderedIndex::new("PK", idxs.clone(), true));
            pk_index = Some(0);
        }
        let data = cols.iter().map(|c| ColumnData::new(c.ty)).collect();
        Ok(Table {
            name,
            columns: cols,
            unique_columns,
            data,
            len: 0,
            indexes,
            pk_index,
            stats: TableStats::default(),
        })
    }

    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let up = name.to_ascii_uppercase();
        self.columns.iter().position(|c| c.name == up)
    }

    /// Cell (`row`, `col`) as an owned value.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.data[col].get(row)
    }

    /// Stored column `col`.
    pub fn column_data(&self, col: usize) -> &ColumnData {
        &self.data[col]
    }

    /// Row `row` as owned values (result sets and joins).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.data.iter().map(|c| c.get(row)).collect()
    }

    /// The key of stored row `row` under the unique constraint, if one is
    /// declared.
    pub fn unique_key(&self, row: usize) -> Option<RowKey> {
        self.unique_columns
            .as_ref()
            .map(|idxs| RowKey(key_at(&self.data, idxs, row)))
    }

    /// The primary-key ordered index, if a unique constraint is declared.
    pub fn pk(&self) -> Option<&OrderedIndex> {
        self.pk_index.map(|i| &self.indexes[i])
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Create a named ordered index over `columns`.
    pub fn create_index(
        &mut self,
        name: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<(), CdwError> {
        let name = name.to_ascii_uppercase();
        if self.indexes.iter().any(|ix| ix.name == name) {
            return Err(CdwError::Unsupported(format!(
                "index {name} already exists on {}",
                self.name
            )));
        }
        let mut cols = Vec::with_capacity(columns.len());
        for c in columns {
            cols.push(
                self.column_index(c)
                    .ok_or_else(|| CdwError::ColumnNotFound(c.clone()))?,
            );
        }
        let mut ix = OrderedIndex::new(name, cols, unique);
        rebuild(&mut ix, &self.data, self.len);
        self.indexes.push(ix);
        Ok(())
    }

    /// Append a validated batch in one shot, maintaining every index
    /// incrementally — the storage half of the CDW's batched ingest. The
    /// batch's columns are moved onto the table's; callers must have
    /// validated types and (if enforced) uniqueness already. Returns the
    /// number of index maintenance operations performed.
    pub fn append(&mut self, batch: ColumnBatch) -> usize {
        let start = self.len;
        for (col, add) in self.data.iter_mut().zip(batch.columns) {
            col.append(add);
        }
        self.len += batch.len;
        let (data, end) = (&self.data, self.len);
        self.indexes
            .iter_mut()
            .map(|ix| ix.extend(index_entries(data, &ix.columns, start..end)))
            .sum()
    }

    /// Overwrite cell (`row`, `col`) with a value already coerced to the
    /// column's type. Indexes are not touched: callers re-key them.
    pub fn set_value(&mut self, row: usize, col: usize, value: &Value) {
        self.data[col].set(row, value);
    }

    /// Keep the rows whose `keep` flag is set, shifting survivors down
    /// (DELETE compaction). Indexes are not touched: callers re-key them.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        for col in &mut self.data {
            col.retain(keep);
        }
        self.len = keep.iter().filter(|&&k| k).count();
    }

    /// Re-key every index from current rows (after DELETE compaction).
    /// Returns index maintenance operations.
    pub fn rebuild_all_indexes(&mut self) -> usize {
        let (data, len) = (&self.data, self.len);
        self.indexes
            .iter_mut()
            .map(|ix| rebuild(ix, data, len))
            .sum()
    }

    /// Re-key only the indexes covering any of `cols` (after UPDATE, where
    /// rowids are stable but assigned columns changed). Returns index
    /// maintenance operations.
    pub fn rebuild_indexes_touching(&mut self, cols: &[usize]) -> usize {
        let (data, len) = (&self.data, self.len);
        self.indexes
            .iter_mut()
            .filter(|ix| ix.columns.iter().any(|c| cols.contains(c)))
            .map(|ix| rebuild(ix, data, len))
            .sum()
    }

    /// Refresh planner statistics if they have drifted.
    pub fn maybe_refresh_stats(&mut self) {
        if self.stats.stale(self.len) {
            self.stats.refresh(&self.data, self.len);
        }
    }

    /// Exhaustive index/table consistency check (test harness hook):
    /// every index holds exactly one entry per row, rowids cover the
    /// table, and every stored key matches the row it points at.
    pub fn validate_indexes(&self) -> Result<(), String> {
        for ix in &self.indexes {
            if ix.len() != self.len {
                return Err(format!(
                    "{}.{}: {} entries for {} rows",
                    self.name,
                    ix.name,
                    ix.len(),
                    self.len
                ));
            }
            let mut seen = vec![false; self.len];
            for (key, rowids) in ix.entries() {
                for &rid in rowids {
                    if rid >= self.len || seen[rid] {
                        return Err(format!(
                            "{}.{}: rowid {rid} out of range or duplicated",
                            self.name, ix.name
                        ));
                    }
                    seen[rid] = true;
                    let expect = key_at(&self.data, &ix.columns, rid);
                    if key != expect.as_slice() {
                        return Err(format!(
                            "{}.{}: stale key for rowid {rid}",
                            self.name, ix.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The values of columns `cols` at stored row `row`, in `cols` order.
fn key_at(data: &[ColumnData], cols: &[usize], row: usize) -> Vec<Value> {
    cols.iter().map(|&c| data[c].get(row)).collect()
}

/// The index key of stored row `row` over columns `cols`.
fn index_key(data: &[ColumnData], cols: &[usize], row: usize) -> IndexKey {
    match cols {
        [c] => data[*c].get(row).into(),
        _ => IndexKey::Many(key_at(data, cols, row)),
    }
}

/// Drop everything in `ix` and re-key rows `0..len`. Returns maintenance
/// ops (one per row).
fn rebuild(ix: &mut OrderedIndex, data: &[ColumnData], len: usize) -> usize {
    ix.clear();
    ix.extend(index_entries(data, &ix.columns, 0..len))
}

/// `(key, rowid)` index entries of stored rows `rows`.
fn index_entries(
    data: &[ColumnData],
    cols: &[usize],
    rows: std::ops::Range<usize>,
) -> Vec<(IndexKey, usize)> {
    rows.map(|rowid| (index_key(data, cols, rowid), rowid))
        .collect()
}

/// Rows validated for one append, stored column by column in the target
/// table's layout — built by INSERT, COPY and batched ingest, then moved
/// onto the table by [`Table::append`] only once the whole statement has
/// validated.
pub struct ColumnBatch {
    /// One builder per table column.
    pub columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnBatch {
    /// An empty batch in `table`'s layout.
    pub fn for_table(table: &Table) -> ColumnBatch {
        ColumnBatch {
            columns: table
                .columns
                .iter()
                .map(|c| ColumnData::new(c.ty))
                .collect(),
            len: 0,
        }
    }

    /// Number of complete rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one full-width row of coerced values.
    pub fn push_row(&mut self, row: &[Value]) {
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
    }

    /// Count `n` rows whose cells were pushed column by column.
    pub fn add_rows(&mut self, n: usize) {
        self.len += n;
    }

    /// The index key over columns `cols` at batch row `row`.
    pub fn key(&self, cols: &[usize], row: usize) -> IndexKey {
        index_key(&self.columns, cols, row)
    }
}

/// The catalog of all tables, each behind its own reader/writer lock.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<RwLock<Table>>>,
}

/// Canonicalize a dotted object name for catalog lookup.
pub fn canonical_name(name: &str) -> String {
    name.to_ascii_uppercase()
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a new table.
    pub fn create(&mut self, table: Table, if_not_exists: bool) -> Result<(), CdwError> {
        let key = canonical_name(&table.name);
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(CdwError::TableExists(table.name));
        }
        self.tables.insert(key, Arc::new(RwLock::new(table)));
        Ok(())
    }

    /// Drop a table. (Named `drop_table` so calls through lock guards
    /// don't resolve to `Drop::drop`.)
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), CdwError> {
        let key = canonical_name(name);
        if self.tables.remove(&key).is_none() && !if_exists {
            return Err(CdwError::TableNotFound(name.to_string()));
        }
        Ok(())
    }

    /// Lock handle for table `name`.
    pub fn handle(&self, name: &str) -> Result<Arc<RwLock<Table>>, CdwError> {
        self.handle_opt(name)
            .ok_or_else(|| CdwError::TableNotFound(name.to_string()))
    }

    /// Lock handle for table `name`, if it exists.
    pub fn handle_opt(&self, name: &str) -> Option<Arc<RwLock<Table>>> {
        self.tables.get(&canonical_name(name)).cloned()
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.tables.contains_key(&canonical_name(name))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

/// A held per-table lock: shared for reads, exclusive for writes.
pub enum TableGuard<'a> {
    /// Shared read lock.
    Read(RwLockReadGuard<'a, Table>),
    /// Exclusive write lock.
    Write(RwLockWriteGuard<'a, Table>),
}

impl TableGuard<'_> {
    fn table(&self) -> &Table {
        match self {
            TableGuard::Read(g) => g,
            TableGuard::Write(g) => g,
        }
    }
}

/// The set of tables a statement locked up front, looked up by canonical
/// name during execution. A name missing from the set reports
/// `TableNotFound` exactly where the old global-catalog lookup would
/// have.
#[derive(Default)]
pub struct TableSet<'a> {
    entries: Vec<(String, TableGuard<'a>)>,
}

impl<'a> TableSet<'a> {
    /// Empty set (constant statements).
    pub fn new() -> TableSet<'a> {
        TableSet::default()
    }

    /// Add a held guard under its canonical name.
    pub fn insert(&mut self, name: String, guard: TableGuard<'a>) {
        self.entries.push((name, guard));
    }

    /// Immutable table lookup.
    pub fn get(&self, name: &str) -> Result<&Table, CdwError> {
        let key = canonical_name(name);
        self.entries
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, g)| g.table())
            .ok_or_else(|| CdwError::TableNotFound(name.to_string()))
    }

    /// Mutable table lookup (requires a write guard).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table, CdwError> {
        let key = canonical_name(name);
        match self.entries.iter_mut().find(|(n, _)| *n == key) {
            Some((_, TableGuard::Write(g))) => Ok(g),
            Some((_, TableGuard::Read(_))) => Err(CdwError::Unsupported(format!(
                "internal: table {name} locked for read but written"
            ))),
            None => Err(CdwError::TableNotFound(name.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_sql::ast::ColumnDef;

    fn make_table(name: &str) -> Table {
        Table::from_create(
            name.to_string(),
            &[
                ColumnDef {
                    name: "ID".into(),
                    ty: SqlType::Integer,
                    not_null: true,
                },
                ColumnDef {
                    name: "NAME".into(),
                    ty: SqlType::VarChar(10, etlv_sql::types::Charset::Latin),
                    not_null: false,
                },
            ],
            &[TableConstraint::Unique {
                columns: vec!["id".into()],
                primary: true,
            }],
        )
        .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut cat = Catalog::new();
        cat.create(make_table("PROD.T"), false).unwrap();
        assert!(cat.exists("prod.t"));
        assert!(cat.handle("PROD.T").is_ok());
        assert!(matches!(
            cat.create(make_table("prod.t"), false),
            Err(CdwError::TableExists(_))
        ));
        cat.create(make_table("prod.t"), true).unwrap(); // if not exists
        cat.drop_table("PROD.T", false).unwrap();
        assert!(matches!(
            cat.drop_table("PROD.T", false),
            Err(CdwError::TableNotFound(_))
        ));
        cat.drop_table("PROD.T", true).unwrap();
    }

    #[test]
    fn unique_constraint_resolution() {
        let t = make_table("T");
        assert_eq!(t.unique_columns, Some(vec![0]));
        let mut t = t;
        t.append(batch(&t, vec![vec![Value::Int(5), Value::Str("x".into())]]));
        assert_eq!(t.unique_key(0), Some(RowKey(vec![Value::Int(5)])));
        // The declared constraint materializes as an always-on PK index.
        let pk = t.pk().expect("pk index");
        assert!(pk.unique);
        assert_eq!(pk.columns, vec![0]);
    }

    #[test]
    fn bad_constraint_column_rejected() {
        let r = Table::from_create(
            "T".into(),
            &[ColumnDef {
                name: "A".into(),
                ty: SqlType::Integer,
                not_null: false,
            }],
            &[TableConstraint::Unique {
                columns: vec!["NOPE".into()],
                primary: false,
            }],
        );
        assert!(matches!(r, Err(CdwError::ColumnNotFound(_))));
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = make_table("T");
        assert_eq!(t.column_index("id"), Some(0));
        assert_eq!(t.column_index("Name"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    fn batch(t: &Table, rows: Vec<Vec<Value>>) -> ColumnBatch {
        let mut b = ColumnBatch::for_table(t);
        for r in rows {
            b.push_row(&r);
        }
        b
    }

    #[test]
    fn append_maintains_every_index() {
        let mut t = make_table("T");
        let ops = t.append(batch(
            &t,
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null],
            ],
        ));
        assert_eq!(t.len(), 2);
        assert_eq!(ops, 2, "one maintenance op per row per index");
        assert_eq!(t.pk().unwrap().seek_eq(&[Value::Int(2)]), vec![1]);
        t.validate_indexes().unwrap();
    }

    #[test]
    fn secondary_index_creation_and_rebuild() {
        let mut t = make_table("T");
        t.append(batch(
            &t,
            vec![
                vec![Value::Int(1), Value::Str("b".into())],
                vec![Value::Int(2), Value::Str("a".into())],
            ],
        ));
        t.create_index("ix_name", &["name".into()], false).unwrap();
        assert!(t.create_index("IX_NAME", &["name".into()], false).is_err());
        assert!(t.create_index("ix2", &["nope".into()], false).is_err());
        let ix = t.indexes.iter().find(|ix| ix.name == "IX_NAME").unwrap();
        assert_eq!(ix.seek_eq(&[Value::Str("a".into())]), vec![1]);
        t.validate_indexes().unwrap();

        // Mutate a row in place, then re-key.
        t.set_value(1, 1, &Value::Str("z".into()));
        assert!(t.validate_indexes().is_err(), "stale key detected");
        t.rebuild_indexes_touching(&[1]);
        t.validate_indexes().unwrap();
    }

    #[test]
    fn table_set_lookup_and_write_discipline() {
        let mut cat = Catalog::new();
        cat.create(make_table("T"), false).unwrap();
        let handle = cat.handle("t").unwrap();
        let mut set = TableSet::new();
        set.insert(canonical_name("T"), TableGuard::Read(handle.read()));
        assert!(set.get("t").is_ok());
        assert!(set.get_mut("t").is_err(), "read guard refuses mutation");
        assert!(matches!(set.get("other"), Err(CdwError::TableNotFound(_))));
    }
}
