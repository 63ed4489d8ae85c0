//! The statement executor.
//!
//! Every mutating statement is **set-oriented**: all input rows are
//! validated and materialized before any table state changes, so a single
//! bad tuple aborts the whole statement with no partial effects — the CDW
//! behaviour the virtualizer's adaptive error handler (§7) is built
//! around.
//!
//! Reads never clone a stored table. A single-table source is the
//! borrowed table plus a selection vector of row ids ([`Rows::Stored`]);
//! expressions read a column at a row id, and owned rows are built only
//! for result sets, join and subquery relations, and batched-ingest input.

use std::collections::HashMap;
use std::sync::Arc;

use etlv_cloudstore::compress;
use etlv_cloudstore::store::{parse_url, ObjectStore};
use etlv_protocol::data::{Date, Decimal, LegacyType, Timestamp, Value};
use etlv_sql::ast::*;
use etlv_sql::types::Charset;
use etlv_sql::SqlType;

use crate::batch::{self, RowSource};
use crate::catalog::{ColumnBatch, Table, TableSet};
use crate::column::{CellKey, ColumnData};
use crate::error::{BulkAbortKind, CdwError};
use crate::eval::{apply_binary, conv_err, eval, truthy, Env};
use crate::key::{cmp_values, FastMap, FastSet, RowKey};
use crate::plan::{
    choose_access, family_of, normalize_probe, plan_equi_join, Access, Family, PlanStats,
};
use crate::staged::StagedFormat;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Result-set columns (empty for DML/DDL).
    pub columns: Vec<(String, SqlType)>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Vec<Value>>,
    /// Rows affected (DML) or returned (queries).
    pub affected: u64,
}

impl QueryResult {
    pub(crate) fn dml(affected: u64) -> QueryResult {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            affected,
        }
    }
}

/// Execution context: the tables a statement locked, plus engine knobs.
pub struct ExecCtx<'a> {
    /// Per-table locks acquired up front for this statement.
    pub tables: TableSet<'a>,
    /// Object store for COPY (absent = COPY unsupported).
    pub store: Option<&'a Arc<dyn ObjectStore>>,
    /// Whether UNIQUE constraints are enforced natively.
    pub native_unique: bool,
    /// Whether the access-path planner is enabled (off = scan-only
    /// reference semantics for differential testing).
    pub planner: bool,
    /// Planner decision counters accumulated over this statement.
    pub stats: PlanStats,
}

/// The read side of a statement: the locked tables and the planner
/// switch. Relations borrow from it while the plan counters, kept apart,
/// stay mutable.
#[derive(Clone, Copy)]
struct Reader<'r, 'a> {
    tables: &'r TableSet<'a>,
    planner: bool,
}

/// Split a context into its read side and its plan counters.
fn reader<'r, 'a>(ctx: &'r mut ExecCtx<'a>) -> (Reader<'r, 'a>, &'r mut PlanStats) {
    let rd = Reader {
        tables: &ctx.tables,
        planner: ctx.planner,
    };
    (rd, &mut ctx.stats)
}

/// One column visible during evaluation: optional qualifier + name + type.
#[derive(Debug, Clone)]
struct Binding {
    qualifier: Option<String>,
    name: String,
    ty: SqlType,
}

/// One row being evaluated: owned values, or a row id of a stored table.
#[derive(Clone, Copy)]
enum RowRef<'a> {
    Owned(&'a [Value]),
    Stored(&'a Table, usize),
}

impl RowRef<'_> {
    fn get(&self, col: usize) -> Value {
        match self {
            RowRef::Owned(row) => row[col].clone(),
            RowRef::Stored(table, row) => table.value(*row, col),
        }
    }
}

/// The rows of a relation.
enum Rows<'t> {
    /// Materialized rows (joins, subqueries, the constant row).
    Owned(Vec<Vec<Value>>),
    /// A borrowed table read through a selection vector of row ids, in
    /// output order.
    Stored { table: &'t Table, sel: Vec<usize> },
}

impl<'t> Rows<'t> {
    /// Every row of `table`, in storage order.
    fn all(table: &'t Table) -> Rows<'t> {
        Rows::Stored {
            table,
            sel: (0..table.len()).collect(),
        }
    }

    fn at(&self, i: usize) -> RowRef<'_> {
        match self {
            Rows::Owned(rows) => RowRef::Owned(&rows[i]),
            Rows::Stored { table, sel } => RowRef::Stored(table, sel[i]),
        }
    }

    /// Row `i` as owned values.
    fn row(&self, i: usize) -> Vec<Value> {
        match self {
            Rows::Owned(rows) => rows[i].clone(),
            Rows::Stored { table, sel } => table.row(sel[i]),
        }
    }

    fn into_owned(self) -> Vec<Vec<Value>> {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Stored { table, sel } => sel.into_iter().map(|i| table.row(i)).collect(),
        }
    }

    /// Keep the rows whose `keep` flag is set (one flag per row, in
    /// order).
    fn retain(&mut self, keep: &[bool]) {
        let mut flags = keep.iter().copied();
        match self {
            Rows::Owned(rows) => rows.retain(|_| flags.next() == Some(true)),
            Rows::Stored { sel, .. } => sel.retain(|_| flags.next() == Some(true)),
        }
    }
}

impl RowSource for Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Owned(rows) => rows.len(),
            Rows::Stored { sel, .. } => sel.len(),
        }
    }

    fn cell(&self, row: usize, col: usize) -> Value {
        self.at(row).get(col)
    }

    fn stored(&self, col: usize) -> Option<(&ColumnData, &[usize])> {
        match self {
            Rows::Owned(_) => None,
            Rows::Stored { table, sel } => Some((table.column_data(col), sel)),
        }
    }
}

/// A resolved FROM clause: visible columns plus the joined row set.
struct Relation<'t> {
    bindings: Vec<Binding>,
    rows: Rows<'t>,
}

struct RowEnv<'a> {
    bindings: &'a [Binding],
    row: RowRef<'a>,
}

impl Env for RowEnv<'_> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
        let idx = resolve_column(self.bindings, name)?;
        Ok(self.row.get(idx))
    }
}

fn resolve_column(bindings: &[Binding], name: &ObjectName) -> Result<usize, CdwError> {
    let (qual, col) = match name.0.len() {
        1 => (None, name.0[0].to_ascii_uppercase()),
        2 => (
            Some(name.0[0].to_ascii_uppercase()),
            name.0[1].to_ascii_uppercase(),
        ),
        _ => return Err(CdwError::ColumnNotFound(name.dotted())),
    };
    let mut found = None;
    for (i, b) in bindings.iter().enumerate() {
        if b.name != col {
            continue;
        }
        if let Some(q) = &qual {
            if b.qualifier.as_deref() != Some(q.as_str()) {
                continue;
            }
        }
        if found.is_some() {
            return Err(CdwError::AmbiguousColumn(name.dotted()));
        }
        found = Some(i);
    }
    found.ok_or_else(|| CdwError::ColumnNotFound(name.dotted()))
}

/// Execute one parsed DML/query statement. DDL never reaches here — the
/// engine applies it directly against the catalog (it needs the catalog
/// map itself, not per-table locks).
pub fn execute(ctx: &mut ExecCtx<'_>, stmt: &Stmt) -> Result<QueryResult, CdwError> {
    match stmt {
        Stmt::CreateTable(_) | Stmt::DropTable { .. } => Err(CdwError::Unsupported(
            "internal: DDL is handled by the engine".into(),
        )),
        Stmt::Insert(ins) => exec_insert(ctx, ins),
        Stmt::Update(u) => exec_update(ctx, u),
        Stmt::Delete(d) => exec_delete(ctx, d),
        Stmt::Select(sel) => {
            let (rd, stats) = reader(ctx);
            exec_select(rd, stats, sel)
        }
        Stmt::Copy(c) => exec_copy(ctx, c),
    }
}

// ------------------------------------------------------------------ INSERT

fn exec_insert(ctx: &mut ExecCtx<'_>, ins: &Insert) -> Result<QueryResult, CdwError> {
    let name = ins.table.dotted();
    // Compute the source first (SELECT may read the target's old state)
    // and validate it into a column batch: the target is untouched until
    // the whole statement has validated (set-oriented).
    let batch = match &ins.source {
        InsertSource::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &crate::eval::EmptyEnv)?);
                }
                out.push(vals);
            }
            let table = ctx.tables.get(&name)?;
            batch_from_rows(table, &insert_columns(table, ins)?, out)?
        }
        InsertSource::Select(sel) => {
            let (rd, stats) = reader(ctx);
            let Relation { bindings, rows } = select_source(rd, stats, sel)?;
            match project_vectors(sel, &bindings, &rows) {
                Some(vectors) => {
                    let table = rd.tables.get(&name)?;
                    let col_map = insert_columns(table, ins)?;
                    batch_from_vectors(table, &col_map, &vectors, rows.len())?
                }
                None => {
                    let out = finish_select(sel, &bindings, &rows)?.rows;
                    let table = rd.tables.get(&name)?;
                    batch_from_rows(table, &insert_columns(table, ins)?, out)?
                }
            }
        }
    };

    // Uniqueness (native mode) + append via the shared batch path.
    let native_unique = ctx.native_unique;
    let stats = &mut ctx.stats;
    let table = ctx.tables.get_mut(&name)?;
    let n = append_unique_checked(table, batch, native_unique, "duplicate key", stats)?;
    Ok(QueryResult::dml(n))
}

/// The table column each provided INSERT value lands in.
fn insert_columns(table: &Table, ins: &Insert) -> Result<Vec<usize>, CdwError> {
    match &ins.columns {
        None => Ok((0..table.columns.len()).collect()),
        Some(cols) => cols
            .iter()
            .map(|c| {
                table
                    .column_index(c)
                    .ok_or_else(|| CdwError::ColumnNotFound(c.clone()))
            })
            .collect(),
    }
}

/// Validate source rows (each `col_map.len()` wide) into a batch in
/// `table`'s layout; unmapped columns get NULL.
fn batch_from_rows(
    table: &Table,
    col_map: &[usize],
    rows: Vec<Vec<Value>>,
) -> Result<ColumnBatch, CdwError> {
    let mut batch = ColumnBatch::for_table(table);
    let mut full = vec![Value::Null; table.columns.len()];
    for row in rows {
        if row.len() != col_map.len() {
            return Err(CdwError::ColumnCount {
                expected: col_map.len(),
                actual: row.len(),
            });
        }
        full.fill(Value::Null);
        for (v, &ci) in row.into_iter().zip(col_map) {
            full[ci] = v;
        }
        push_row(table, &mut batch, &full)?;
    }
    Ok(batch)
}

/// The projected columns of a plain SELECT (no aggregation, ordering,
/// DISTINCT or LIMIT) over non-empty `rows`, evaluated column-at-a-time.
/// A bare stored column comes back as a borrowed view. `None` whenever
/// that shape or a clean batch evaluation does not hold: the caller then
/// finishes the SELECT the row-major way, which reports errors in order.
fn project_vectors<'a>(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &'a Rows<'_>,
) -> Option<Vec<batch::Vector<'a>>> {
    let plain = !projection_has_aggregates(sel)
        && sel.group_by.is_empty()
        && sel.order_by.is_empty()
        && !sel.distinct
        && sel.limit.is_none();
    if !plain || rows.is_empty() {
        return None;
    }
    let mut resolve = |n: &ObjectName| resolve_column(bindings, n).ok();
    expand_projection(sel, bindings)
        .iter()
        .map(|(e, _)| {
            let node = batch::compile(e, &mut resolve)?;
            batch::eval_vector(&node, rows).ok()
        })
        .collect()
}

/// Validate `n` projected rows, given column by column, into a batch in
/// `table`'s layout. Coercion runs a column at a time; if anything fails,
/// the rows are re-coerced in row-major order so the reported error is
/// the one a row-by-row insert hits first.
fn batch_from_vectors(
    table: &Table,
    col_map: &[usize],
    vectors: &[batch::Vector<'_>],
    n: usize,
) -> Result<ColumnBatch, CdwError> {
    if n > 0 && vectors.len() != col_map.len() {
        return Err(CdwError::ColumnCount {
            expected: col_map.len(),
            actual: vectors.len(),
        });
    }
    // The last value mapped to a column wins, as in a row's assembly.
    let source: Vec<Option<&batch::Vector<'_>>> = (0..table.columns.len())
        .map(|ci| col_map.iter().rposition(|&c| c == ci).map(|p| &vectors[p]))
        .collect();
    let mut batch = ColumnBatch::for_table(table);
    let mut fill = || -> Result<(), CdwError> {
        for (ci, (src, out)) in source.iter().zip(&mut batch.columns).enumerate() {
            match src {
                None => (0..n).try_for_each(|_| push_text(table, ci, None, out))?,
                Some(batch::Vector::Values(vals)) => vals
                    .iter()
                    .try_for_each(|v| push_value(table, ci, v, out))?,
                Some(batch::Vector::Stored { data, sel }) => {
                    sel.iter().try_for_each(|&r| match data.str_at(r) {
                        Some(s) => push_text(table, ci, Some(s), out),
                        None => push_value(table, ci, &data.get(r), out),
                    })?
                }
            }
        }
        Ok(())
    };
    if let Err(e) = fill() {
        for r in 0..n {
            for (ci, src) in source.iter().enumerate() {
                coerce_col(table, ci, src.map_or(Value::Null, |v| v.get(r)))?;
            }
        }
        return Err(e);
    }
    batch.add_rows(n);
    Ok(batch)
}

/// Coerce one value to its column's type, enforcing NOT NULL.
fn coerce_col(table: &Table, ci: usize, v: Value) -> Result<Value, CdwError> {
    let col = &table.columns[ci];
    if v.is_null() {
        if col.not_null {
            return Err(CdwError::BulkAbort {
                kind: BulkAbortKind::NullViolation,
                message: format!("NULL in NOT NULL column {}.{}", table.name, col.name),
            });
        }
        return Ok(Value::Null);
    }
    v.coerce_to(col.ty.to_legacy())
        .map_err(|e| conv_err(format!("column {}.{}: {}", table.name, col.name, e.reason)))
}

/// Coerce a full-width row to the table's column types (in column order,
/// so the first failing column is the one reported) and push it onto
/// `batch`.
fn push_row(table: &Table, batch: &mut ColumnBatch, row: &[Value]) -> Result<(), CdwError> {
    for (ci, (v, out)) in row.iter().zip(&mut batch.columns).enumerate() {
        push_value(table, ci, v, out)?;
    }
    batch.add_rows(1);
    Ok(())
}

/// Coerce one value to column `ci` and push it onto `out`. Text goes
/// through [`push_text`] (no copy beyond the column's own).
fn push_value(table: &Table, ci: usize, v: &Value, out: &mut ColumnData) -> Result<(), CdwError> {
    match v {
        Value::Null => push_text(table, ci, None, out),
        Value::Str(s) => push_text(table, ci, Some(s), out),
        other => {
            out.push(&coerce_col(table, ci, other.clone())?);
            Ok(())
        }
    }
}

/// Coerce one text value (`None` = NULL) to column `ci` and push it onto
/// `out`, without an owned value on the common paths. Anything
/// the fast paths do not accept — every failure included — goes through
/// [`coerce_col`], so results and abort messages are exactly those of
/// coercing `Value::Str(text)`.
fn push_text(
    table: &Table,
    ci: usize,
    text: Option<&str>,
    out: &mut ColumnData,
) -> Result<(), CdwError> {
    let Some(s) = text else {
        coerce_col(table, ci, Value::Null)?;
        out.push_null();
        return Ok(());
    };
    let ty = table.columns[ci].ty.to_legacy();
    if let LegacyType::Char(n) | LegacyType::VarChar(n) | LegacyType::VarCharUnicode(n) = ty {
        if s.len() <= n as usize {
            // CHAR is space padded to its declared width.
            let pad = if matches!(ty, LegacyType::Char(_)) {
                n
            } else {
                0
            };
            out.push_str_padded(s, pad as usize);
            return Ok(());
        }
    }
    let int = |min: i64, max: i64| {
        s.trim()
            .parse::<i64>()
            .ok()
            .filter(|v| (min..=max).contains(v))
            .map(Value::Int)
    };
    let fast = match ty {
        LegacyType::ByteInt => int(i8::MIN.into(), i8::MAX.into()),
        LegacyType::SmallInt => int(i16::MIN.into(), i16::MAX.into()),
        LegacyType::Integer => int(i32::MIN.into(), i32::MAX.into()),
        LegacyType::BigInt => int(i64::MIN, i64::MAX),
        LegacyType::Float => s.trim().parse::<f64>().ok().map(Value::Float),
        LegacyType::Decimal(p, sc) => Decimal::parse(s)
            .ok()
            .and_then(|d| d.rescale(sc).ok())
            .filter(|d| d.fits(p, sc))
            .map(Value::Decimal),
        LegacyType::Date => Date::parse_iso(s).ok().map(Value::Date),
        LegacyType::Timestamp => Timestamp::parse(s).ok().map(Value::Timestamp),
        _ => None,
    };
    let v = match fast {
        Some(v) => v,
        None => coerce_col(table, ci, Value::Str(s.to_owned()))?,
    };
    out.push(&v);
    Ok(())
}

/// Validate batch uniqueness (native mode) against existing rows and within
/// the batch itself, then append every row — the single append path shared
/// by INSERT, COPY, and the batched-ingest fast path. `conflict` names the
/// operation in the abort message ("duplicate key", "COPY", ...).
fn append_unique_checked(
    table: &mut Table,
    batch: ColumnBatch,
    native_unique: bool,
    conflict: &str,
    stats: &mut PlanStats,
) -> Result<u64, CdwError> {
    if let (true, Some(ucols)) = (native_unique, &table.unique_columns) {
        // O(log n) probes against the always-maintained PK ordered index
        // (plus an O(1) intra-batch hash probe) — the statement path is no
        // longer a scan per row.
        let pk = table.pk().expect("unique constraint has a PK index");
        stats.index_seeks += 1;
        let mut batch_keys: FastSet<RowKey> = FastSet::default();
        for i in 0..batch.len() {
            let key = batch.key(ucols, i);
            if pk.contains_key(&key) || !batch_keys.insert(RowKey(key.as_slice().to_vec())) {
                return Err(CdwError::BulkAbort {
                    kind: BulkAbortKind::Uniqueness,
                    message: format!("{conflict} violates unique constraint on {}", table.name),
                });
            }
        }
    }
    let n = batch.len() as u64;
    stats.index_maintains += table.append(batch) as u64;
    table.maybe_refresh_stats();
    Ok(n)
}

/// Batched ingest fast path: validate and append pre-materialized rows to
/// `table_name` in one shot — no SQL, no AST, and the caller (the engine)
/// holds the catalog lock exactly once for the whole batch. Semantics
/// match `INSERT INTO t VALUES ...` over full-width rows: set-oriented
/// validation (column count, NOT NULL, type coercion, uniqueness under
/// native enforcement) before any table state changes.
pub fn copy_batch(
    ctx: &mut ExecCtx<'_>,
    table_name: &str,
    rows: Vec<Vec<Value>>,
) -> Result<u64, CdwError> {
    let table = ctx.tables.get(table_name)?;
    let ncols = table.columns.len();
    let mut batch = ColumnBatch::for_table(table);
    for row in rows {
        if row.len() != ncols {
            return Err(CdwError::ColumnCount {
                expected: ncols,
                actual: row.len(),
            });
        }
        push_row(table, &mut batch, &row)?;
    }
    let native_unique = ctx.native_unique;
    let stats = &mut ctx.stats;
    let table = ctx.tables.get_mut(table_name)?;
    append_unique_checked(table, batch, native_unique, "batched ingest", stats)
}

// ------------------------------------------------------------------ UPDATE

/// Candidate row ids of a single-table UPDATE/DELETE filter, plus whether
/// the WHERE clause must still be evaluated on each. Counts the access in
/// `stats`.
fn candidates(
    table: &Table,
    access: &Access,
    selection: Option<&Expr>,
    stats: &mut PlanStats,
) -> (Vec<usize>, bool) {
    match access {
        Access::Empty => (Vec::new(), false),
        Access::Scan => {
            stats.full_scans += 1;
            ((0..table.len()).collect(), selection.is_some())
        }
        Access::Seek(p) => {
            stats.index_seeks += 1;
            let ix = &table.indexes[p.index];
            let mut rowids = ix.seek(&p.prefix, p.lo.as_ref(), p.hi.as_ref());
            rowids.sort_unstable();
            (rowids, !p.consumed)
        }
    }
}

fn exec_update(ctx: &mut ExecCtx<'_>, u: &Update) -> Result<QueryResult, CdwError> {
    let planner = ctx.planner;
    let table = ctx.tables.get(&u.table.dotted())?;
    let bindings = table_bindings(table, None);
    let mut assignment_idx = Vec::with_capacity(u.assignments.len());
    for (col, _) in &u.assignments {
        assignment_idx.push(
            table
                .column_index(col)
                .ok_or_else(|| CdwError::ColumnNotFound(col.clone()))?,
        );
    }

    // Positions whose assignment survives (the last write to its column),
    // visited in column order so coercion errors surface in the same order
    // the old whole-row coercion reported them.
    let mut final_positions: Vec<usize> = (0..assignment_idx.len())
        .filter(|&p| !assignment_idx[p + 1..].contains(&assignment_idx[p]))
        .collect();
    final_positions.sort_by_key(|&p| assignment_idx[p]);

    // Phase 1 (read-only): compute the assigned values of every affected
    // row. Only assigned columns are materialized — the rest of the row is
    // updated in place during phase 3, never cloned. The candidate set
    // comes from the planner: an index seek visits only the rows that can
    // match instead of scanning the table.
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let access = if planner {
        choose_access(table, u.selection.as_ref(), &mut resolve)
    } else {
        Access::Scan
    };
    let (rowids, residual) = candidates(table, &access, u.selection.as_ref(), &mut ctx.stats);
    let mut updates: Vec<(usize, Vec<Value>)> = Vec::new();
    for i in rowids {
        let env = RowEnv {
            bindings: &bindings,
            row: RowRef::Stored(table, i),
        };
        let hit = match (&u.selection, residual) {
            (Some(w), true) => truthy(&eval(w, &env)?),
            _ => true,
        };
        if !hit {
            continue;
        }
        let mut vals: Vec<Value> = Vec::with_capacity(assignment_idx.len());
        for (_, expr) in &u.assignments {
            vals.push(eval(expr, &env)?);
        }
        // Coerce only values that actually land (duplicate assignments to
        // one column are overwritten uncoerced, as before).
        for &p in &final_positions {
            let v = std::mem::replace(&mut vals[p], Value::Null);
            vals[p] = coerce_col(table, assignment_idx[p], v)?;
        }
        updates.push((i, vals));
    }

    // Phase 2: uniqueness re-validation under native enforcement, using
    // each row's *effective* key (assigned values where present, stored
    // values elsewhere).
    if ctx.native_unique {
        if let Some(unique_cols) = &table.unique_columns {
            let updated: HashMap<usize, &Vec<Value>> =
                updates.iter().map(|(i, vals)| (*i, vals)).collect();
            let mut keys: FastSet<RowKey> = FastSet::default();
            for i in 0..table.len() {
                let key = match updated.get(&i) {
                    Some(vals) => RowKey(
                        unique_cols
                            .iter()
                            .map(
                                |&uc| match assignment_idx.iter().rposition(|&ci| ci == uc) {
                                    Some(p) => vals[p].clone(),
                                    None => table.value(i, uc),
                                },
                            )
                            .collect(),
                    ),
                    None => table.unique_key(i).expect("unique declared"),
                };
                if !keys.insert(key) {
                    return Err(CdwError::BulkAbort {
                        kind: BulkAbortKind::Uniqueness,
                        message: format!(
                            "UPDATE would violate unique constraint on {}",
                            table.name
                        ),
                    });
                }
            }
        }
    }

    // Phase 3: apply in place — only the assigned cells change, each
    // column once with its last (coerced) assignment. Indexes covering an
    // assigned column are re-keyed (rowids are stable).
    let n = updates.len() as u64;
    let changed = !updates.is_empty();
    let stats = &mut ctx.stats;
    let table = ctx.tables.get_mut(&u.table.dotted())?;
    for (i, vals) in updates {
        for &p in &final_positions {
            table.set_value(i, assignment_idx[p], &vals[p]);
        }
    }
    if changed {
        stats.index_maintains += table.rebuild_indexes_touching(&assignment_idx) as u64;
        table.maybe_refresh_stats();
    }
    Ok(QueryResult::dml(n))
}

// ------------------------------------------------------------------ DELETE

fn exec_delete(ctx: &mut ExecCtx<'_>, d: &Delete) -> Result<QueryResult, CdwError> {
    let planner = ctx.planner;
    let table = ctx.tables.get(&d.table.dotted())?;
    let bindings = table_bindings(table, None);
    // Phase 1 (read-only): mark victims, so a WHERE evaluation error leaves
    // the table untouched (set-oriented, like every other mutation). The
    // planner narrows the candidate set to an index seek where possible.
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let access = if planner {
        choose_access(table, d.selection.as_ref(), &mut resolve)
    } else {
        Access::Scan
    };
    let (rowids, residual) = candidates(table, &access, d.selection.as_ref(), &mut ctx.stats);
    let mut keep: Vec<bool> = vec![true; table.len()];
    let mut removed = 0u64;
    for i in rowids {
        let env = RowEnv {
            bindings: &bindings,
            row: RowRef::Stored(table, i),
        };
        let hit = match (&d.selection, residual) {
            (Some(w), true) => truthy(&eval(w, &env)?),
            _ => true,
        };
        if hit && keep[i] {
            removed += 1;
            keep[i] = false;
        }
    }
    // Phase 2: compact in place — survivors shift down, nothing is cloned.
    // Deletion shifts rowids, so every index is re-keyed.
    let stats = &mut ctx.stats;
    let table = ctx.tables.get_mut(&d.table.dotted())?;
    if removed > 0 {
        table.retain_rows(&keep);
        stats.index_maintains += table.rebuild_all_indexes() as u64;
        table.maybe_refresh_stats();
    }
    Ok(QueryResult::dml(removed))
}

// ------------------------------------------------------------------ COPY

fn exec_copy(ctx: &mut ExecCtx<'_>, c: &CopyStmt) -> Result<QueryResult, CdwError> {
    let store = ctx
        .store
        .ok_or_else(|| CdwError::Unsupported("COPY requires an attached object store".into()))?
        .clone();
    let url = parse_url(&c.from_url).map_err(|e| CdwError::Store(e.to_string()))?;
    let keys = store
        .list(&url.bucket, &url.key)
        .map_err(|e| CdwError::Store(e.to_string()))?;
    let format = StagedFormat::new(c.delimiter);

    let table = ctx.tables.get(&c.table.dotted())?;
    let arity = table.columns.len();

    // Parse and coerce everything into column builders first
    // (set-oriented COPY: the table is untouched until every part has
    // validated). Each part is decoded whole before its first conversion
    // error is reported, so a malformed line anywhere in a part outranks
    // a conversion error earlier in it.
    let mut batch = ColumnBatch::for_table(table);
    let mut scratch = Vec::new();
    for key in &keys {
        let raw = store
            .get(&url.bucket, key)
            .map_err(|e| CdwError::Store(e.to_string()))?;
        let data = if compress::is_compressed(&raw) {
            compress::decompress(&raw).map_err(|e| CdwError::BulkAbort {
                kind: BulkAbortKind::BadFile,
                message: format!("corrupt compressed part {key}: {e}"),
            })?
        } else {
            raw
        };
        let mut failed: Option<CdwError> = None;
        let rows = format.decode_rows(&data, arity, &mut scratch, |ci, text| {
            if failed.is_none() && ci < arity {
                if let Err(e) = push_text(table, ci, text, &mut batch.columns[ci]) {
                    failed = Some(e);
                }
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        batch.add_rows(rows);
    }

    let native_unique = ctx.native_unique;
    let stats = &mut ctx.stats;
    let table = ctx.tables.get_mut(&c.table.dotted())?;
    let n = append_unique_checked(table, batch, native_unique, "COPY", stats)?;
    Ok(QueryResult::dml(n))
}

// ------------------------------------------------------------------ SELECT

fn table_bindings(table: &Table, alias: Option<&str>) -> Vec<Binding> {
    let qualifier = alias
        .map(str::to_ascii_uppercase)
        .unwrap_or_else(|| base_name(&table.name));
    table
        .columns
        .iter()
        .map(|c| Binding {
            qualifier: Some(qualifier.clone()),
            name: c.name.clone(),
            ty: c.ty,
        })
        .collect()
}

fn base_name(dotted: &str) -> String {
    dotted
        .rsplit('.')
        .next()
        .unwrap_or(dotted)
        .to_ascii_uppercase()
}

fn exec_select(
    rd: Reader<'_, '_>,
    stats: &mut PlanStats,
    sel: &SelectStmt,
) -> Result<QueryResult, CdwError> {
    let Relation { bindings, rows } = select_source(rd, stats, sel)?;
    finish_select(sel, &bindings, &rows)
}

/// Everything a SELECT does after FROM and WHERE: projection or
/// aggregation, DISTINCT, LIMIT.
fn finish_select(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &Rows<'_>,
) -> Result<QueryResult, CdwError> {
    let has_aggregates = projection_has_aggregates(sel);
    let (mut out_rows, columns) = if has_aggregates || !sel.group_by.is_empty() {
        exec_aggregate(sel, bindings, rows)?
    } else {
        exec_plain(sel, bindings, rows)?
    };

    if sel.distinct {
        let mut seen = FastSet::default();
        out_rows.retain(|row| seen.insert(RowKey(row.clone())));
    }

    if let Some(n) = sel.limit {
        out_rows.truncate(n as usize);
    }

    let affected = out_rows.len() as u64;
    Ok(QueryResult {
        columns,
        rows: out_rows,
        affected,
    })
}

/// Produce the filtered source relation of a SELECT: FROM resolution plus
/// WHERE, with predicate pushdown into a single named table (index seek or
/// batch-evaluated scan) where the planner proves it safe.
fn select_source<'r>(
    rd: Reader<'r, '_>,
    stats: &mut PlanStats,
    sel: &SelectStmt,
) -> Result<Relation<'r>, CdwError> {
    match &sel.from {
        None => {
            let mut rows = Rows::Owned(vec![Vec::new()]);
            if let Some(w) = &sel.selection {
                filter(&[], w, &mut rows)?;
            }
            Ok(Relation {
                bindings: Vec::new(),
                rows,
            })
        }
        Some(TableRef::Named { name, alias }) => {
            single_table_select(rd, stats, name, alias.as_deref(), sel.selection.as_ref())
        }
        Some(from) => {
            let mut rel = resolve_from(rd, stats, from)?;
            if let Some(w) = &sel.selection {
                filter(&rel.bindings, w, &mut rel.rows)?;
            }
            Ok(rel)
        }
    }
}

/// Single-table FROM with the WHERE clause pushed into the access path.
/// The result borrows the table: a selection vector of the matching row
/// ids, in storage order.
fn single_table_select<'r>(
    rd: Reader<'r, '_>,
    stats: &mut PlanStats,
    name: &ObjectName,
    alias: Option<&str>,
    selection: Option<&Expr>,
) -> Result<Relation<'r>, CdwError> {
    let table = rd.tables.get(&name.dotted())?;
    let bindings = table_bindings(table, alias);
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let access = if rd.planner {
        choose_access(table, selection, &mut resolve)
    } else {
        Access::Scan
    };
    let (sel, residual) = candidates(table, &access, selection, stats);
    let mut rows = Rows::Stored { table, sel };
    if let (true, Some(w)) = (residual, selection) {
        filter(&bindings, w, &mut rows)?;
    }
    Ok(Relation { bindings, rows })
}

/// Keep the rows where `w` holds. Tries the columnar batch evaluator
/// first; any batch error falls back to row-major evaluation, which
/// reproduces first-error ordering exactly.
fn filter(bindings: &[Binding], w: &Expr, rows: &mut Rows<'_>) -> Result<(), CdwError> {
    let mut resolve = |n: &ObjectName| resolve_column(bindings, n).ok();
    let batched =
        batch::compile(w, &mut resolve).and_then(|node| batch::eval_column(&node, rows).ok());
    let keep: Vec<bool> = match batched {
        Some(mask) => mask.iter().map(truthy).collect(),
        None => {
            let mut keep = Vec::with_capacity(rows.len());
            for i in 0..rows.len() {
                let env = RowEnv {
                    bindings,
                    row: rows.at(i),
                };
                keep.push(truthy(&eval(w, &env)?));
            }
            keep
        }
    };
    rows.retain(&keep);
    Ok(())
}

fn resolve_from<'r>(
    rd: Reader<'r, '_>,
    stats: &mut PlanStats,
    from: &TableRef,
) -> Result<Relation<'r>, CdwError> {
    match from {
        TableRef::Named { name, alias } => {
            let table = rd.tables.get(&name.dotted())?;
            stats.full_scans += 1;
            Ok(Relation {
                bindings: table_bindings(table, alias.as_deref()),
                rows: Rows::all(table),
            })
        }
        TableRef::Subquery { query, alias } => {
            let result = exec_select(rd, stats, query)?;
            let qualifier = alias.to_ascii_uppercase();
            Ok(Relation {
                bindings: result
                    .columns
                    .iter()
                    .map(|(n, ty)| Binding {
                        qualifier: Some(qualifier.clone()),
                        name: n.to_ascii_uppercase(),
                        ty: *ty,
                    })
                    .collect(),
                rows: Rows::Owned(result.rows),
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = resolve_from(rd, stats, left)?;
            if rd.planner {
                if let TableRef::Named { name, alias } = &**right {
                    if let Some(rel) =
                        try_index_join(rd, stats, &l, name, alias.as_deref(), kind, on)?
                    {
                        return Ok(rel);
                    }
                }
            }
            let r = resolve_from(rd, stats, right)?;
            let mut bindings = l.bindings.clone();
            bindings.extend(r.bindings.iter().cloned());
            let (lrows, rrows) = (l.rows.into_owned(), r.rows.into_owned());
            let mut rows = Vec::new();
            for lrow in &lrows {
                let mut matched = false;
                for rrow in &rrows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    let env = RowEnv {
                        bindings: &bindings,
                        row: RowRef::Owned(&combined),
                    };
                    if truthy(&eval(on, &env)?) {
                        matched = true;
                        rows.push(combined);
                    }
                }
                if !matched && *kind == JoinKind::Left {
                    let mut combined = lrow.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, r.bindings.len()));
                    rows.push(combined);
                }
            }
            Ok(Relation {
                bindings,
                rows: Rows::Owned(rows),
            })
        }
    }
}

/// Evaluation environment for index-join probe keys: resolves against the
/// combined (left + right) bindings — so name resolution, including
/// ambiguity, matches the nested loop exactly — but only left-side
/// positions are readable.
struct LeftEnv<'a> {
    bindings: &'a [Binding],
    left_len: usize,
    row: RowRef<'a>,
}

impl Env for LeftEnv<'_> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
        let idx = resolve_column(self.bindings, name)?;
        if idx < self.left_len {
            Ok(self.row.get(idx))
        } else {
            Err(CdwError::Unsupported(
                "internal: right-side reference in a probe key".into(),
            ))
        }
    }
}

/// Attempt an index-lookup join against a named right table: probe its
/// ordered index with per-left-row key values instead of nested-looping
/// over every pair. Left rows are read in place; only matched (or
/// LEFT-padded) rows are materialized. Returns `Ok(None)` whenever exact
/// equivalence with the nested loop cannot be proven — unplannable ON
/// shape, a key evaluation error, or an un-normalizable probe (the
/// fallback then reproduces the error, in order). Evaluation is pure, so
/// re-running it in the fallback is free of side effects.
fn try_index_join<'r>(
    rd: Reader<'r, '_>,
    stats: &mut PlanStats,
    l: &Relation<'_>,
    name: &ObjectName,
    alias: Option<&str>,
    kind: &JoinKind,
    on: &Expr,
) -> Result<Option<Relation<'r>>, CdwError> {
    let Ok(rtable) = rd.tables.get(&name.dotted()) else {
        // Missing table: the fallback raises TableNotFound at the same
        // point the nested loop would have.
        return Ok(None);
    };
    let mut bindings = l.bindings.clone();
    bindings.extend(table_bindings(rtable, alias));
    let left_len = l.bindings.len();
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let Some(plan) = plan_equi_join(rtable, on, left_len, &mut resolve) else {
        return Ok(None);
    };
    let fams: Vec<Family> = plan
        .keys
        .iter()
        .map(|(_, rc)| family_of(rtable.columns[*rc].ty))
        .collect();
    let rwidth = rtable.columns.len();
    let padded = |li: usize| {
        let mut combined = l.rows.row(li);
        combined.extend(std::iter::repeat_n(Value::Null, rwidth));
        combined
    };
    let mut rows = Vec::new();
    if rtable.is_empty() {
        // The nested loop never evaluates ON against an empty right side —
        // short-circuit before touching the key expressions.
        if *kind == JoinKind::Left {
            rows.extend((0..l.rows.len()).map(padded));
        }
        stats.index_seeks += 1;
        return Ok(Some(Relation {
            bindings,
            rows: Rows::Owned(rows),
        }));
    }
    // Key columns for every left row at once, when every key compiles and
    // evaluates cleanly; otherwise each row evaluates its keys in turn.
    let mut left_only = |n: &ObjectName| resolve(n).filter(|&i| i < left_len);
    let mut key_cols: Option<Vec<Vec<Value>>> = plan
        .keys
        .iter()
        .map(|(expr, _)| {
            batch::compile(expr, &mut left_only)
                .and_then(|node| batch::eval_column(&node, &l.rows).ok())
        })
        .collect();
    let ix = &rtable.indexes[plan.index];
    for li in 0..l.rows.len() {
        let mut probes = Vec::with_capacity(plan.keys.len());
        let mut null_probe = false;
        for (k, ((expr, _), fam)) in plan.keys.iter().zip(&fams).enumerate() {
            let v = match &mut key_cols {
                Some(cols) => std::mem::replace(&mut cols[k][li], Value::Null),
                None => {
                    let env = LeftEnv {
                        bindings: &bindings,
                        left_len,
                        row: l.rows.at(li),
                    };
                    match eval(expr, &env) {
                        Ok(v) => v,
                        Err(_) => return Ok(None),
                    }
                }
            };
            if v.is_null() {
                // NULL never equals anything: this left row matches no
                // right row (and comparison with NULL cannot error).
                null_probe = true;
                break;
            }
            match normalize_probe(v, *fam) {
                Some(nv) => probes.push(nv),
                None => return Ok(None),
            }
        }
        let mut matched = false;
        if !null_probe {
            let mut rowids = if probes.len() == ix.columns.len() {
                ix.get(&probes.into()).to_vec()
            } else {
                ix.seek_eq(&probes)
            };
            rowids.sort_unstable();
            for rid in rowids {
                matched = true;
                let mut combined = l.rows.row(li);
                combined.extend(rtable.row(rid));
                rows.push(combined);
            }
        }
        if !matched && *kind == JoinKind::Left {
            rows.push(padded(li));
        }
    }
    stats.index_seeks += 1;
    Ok(Some(Relation {
        bindings,
        rows: Rows::Owned(rows),
    }))
}

// ------------------------------------------------------------------ EXPLAIN

/// Render an EXPLAIN-style plan for `stmt` without executing it. Access
/// decisions are computed by the same planner entry points execution uses,
/// so the rendered plan is the plan that runs.
pub fn explain(ctx: &ExecCtx<'_>, stmt: &Stmt) -> Result<Vec<String>, CdwError> {
    let mut lines = Vec::new();
    match stmt {
        Stmt::Select(sel) => explain_select(ctx, sel, 0, &mut lines)?,
        Stmt::Insert(ins) => {
            lines.push(format!("insert table={}", ins.table.dotted()));
            if let InsertSource::Select(sel) = &ins.source {
                explain_select(ctx, sel, 1, &mut lines)?;
            }
        }
        Stmt::Update(u) => {
            lines.push(format!("update table={}", u.table.dotted()));
            explain_filter(ctx, &u.table, u.selection.as_ref(), 1, &mut lines)?;
        }
        Stmt::Delete(d) => {
            lines.push(format!("delete table={}", d.table.dotted()));
            explain_filter(ctx, &d.table, d.selection.as_ref(), 1, &mut lines)?;
        }
        Stmt::Copy(c) => lines.push(format!("copy table={}", c.table.dotted())),
        Stmt::CreateTable(_) | Stmt::DropTable { .. } => lines.push("ddl".into()),
    }
    Ok(lines)
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn explain_filter(
    ctx: &ExecCtx<'_>,
    name: &ObjectName,
    selection: Option<&Expr>,
    depth: usize,
    lines: &mut Vec<String>,
) -> Result<(), CdwError> {
    let table = ctx.tables.get(&name.dotted())?;
    let bindings = table_bindings(table, None);
    let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
    let access = if ctx.planner {
        choose_access(table, selection, &mut resolve)
    } else {
        Access::Scan
    };
    lines.push(format!("{}{}", indent(depth), access.describe(table)));
    Ok(())
}

fn explain_select(
    ctx: &ExecCtx<'_>,
    sel: &SelectStmt,
    depth: usize,
    lines: &mut Vec<String>,
) -> Result<(), CdwError> {
    lines.push(format!("{}select", indent(depth)));
    match &sel.from {
        None => lines.push(format!("{}const_row", indent(depth + 1))),
        Some(TableRef::Named { name, alias }) => {
            let table = ctx.tables.get(&name.dotted())?;
            let bindings = table_bindings(table, alias.as_deref());
            let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
            let access = if ctx.planner {
                choose_access(table, sel.selection.as_ref(), &mut resolve)
            } else {
                Access::Scan
            };
            lines.push(format!("{}{}", indent(depth + 1), access.describe(table)));
        }
        Some(from) => explain_from(ctx, from, depth + 1, lines)?,
    }
    Ok(())
}

fn explain_from(
    ctx: &ExecCtx<'_>,
    from: &TableRef,
    depth: usize,
    lines: &mut Vec<String>,
) -> Result<(), CdwError> {
    match from {
        TableRef::Named { name, .. } => {
            let table = ctx.tables.get(&name.dotted())?;
            lines.push(format!("{}{}", indent(depth), Access::Scan.describe(table)));
        }
        TableRef::Subquery { query, .. } => explain_select(ctx, query, depth, lines)?,
        TableRef::Join {
            left, right, on, ..
        } => {
            let lb = bindings_of(ctx, left)?;
            if ctx.planner {
                if let TableRef::Named { name, alias } = &**right {
                    if let Ok(rtable) = ctx.tables.get(&name.dotted()) {
                        let mut bindings = lb.clone();
                        bindings.extend(table_bindings(rtable, alias.as_deref()));
                        let mut resolve = |n: &ObjectName| resolve_column(&bindings, n).ok();
                        if let Some(plan) = plan_equi_join(rtable, on, lb.len(), &mut resolve) {
                            let ix = &rtable.indexes[plan.index];
                            lines.push(format!(
                                "{}index_lookup_join table={} index={} keys={}",
                                indent(depth),
                                rtable.name,
                                ix.name,
                                plan.keys.len()
                            ));
                            explain_from(ctx, left, depth + 1, lines)?;
                            return Ok(());
                        }
                    }
                }
            }
            lines.push(format!("{}nested_loop_join", indent(depth)));
            explain_from(ctx, left, depth + 1, lines)?;
            explain_from(ctx, right, depth + 1, lines)?;
        }
    }
    Ok(())
}

/// Visible bindings of a FROM tree, computed without executing anything
/// (EXPLAIN only).
fn bindings_of(ctx: &ExecCtx<'_>, from: &TableRef) -> Result<Vec<Binding>, CdwError> {
    match from {
        TableRef::Named { name, alias } => Ok(table_bindings(
            ctx.tables.get(&name.dotted())?,
            alias.as_deref(),
        )),
        TableRef::Subquery { query, alias } => {
            let inner = match &query.from {
                Some(f) => bindings_of(ctx, f)?,
                None => Vec::new(),
            };
            let items = expand_projection(query, &inner);
            let cols = projection_columns(&items, &inner)?;
            let q = alias.to_ascii_uppercase();
            Ok(cols
                .into_iter()
                .map(|(n, ty)| Binding {
                    qualifier: Some(q.clone()),
                    name: n.to_ascii_uppercase(),
                    ty,
                })
                .collect())
        }
        TableRef::Join { left, right, .. } => {
            let mut b = bindings_of(ctx, left)?;
            b.extend(bindings_of(ctx, right)?);
            Ok(b)
        }
    }
}

/// Projected result rows plus their output column names and types.
type ProjectedRows = (Vec<Vec<Value>>, Vec<(String, SqlType)>);

fn exec_plain(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &Rows<'_>,
) -> Result<ProjectedRows, CdwError> {
    let items = expand_projection(sel, bindings);
    let columns = projection_columns(&items, bindings)?;

    // Unordered projections go through the columnar batch evaluator when
    // every item compiles — the bulk merge path projects whole candidate
    // sets without per-row expression dispatch, reading stored columns in
    // place. Any batch error falls back to the row-major loop below for
    // exact first-error ordering.
    if sel.order_by.is_empty() && !rows.is_empty() {
        let mut resolve = |n: &ObjectName| resolve_column(bindings, n).ok();
        let nodes: Option<Vec<batch::BatchNode>> = items
            .iter()
            .map(|(e, _)| batch::compile(e, &mut resolve))
            .collect();
        if let Some(nodes) = nodes {
            if let Ok(out) = batch::eval_rows(&nodes, rows) {
                return Ok((out, columns));
            }
        }
    }

    // ORDER BY keys are computed against the *input* rows (so sorting by
    // non-projected columns works), carried alongside.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
    for i in 0..rows.len() {
        let env = RowEnv {
            bindings,
            row: rows.at(i),
        };
        let mut out = Vec::with_capacity(items.len());
        for (expr, _) in &items {
            out.push(eval(expr, &env)?);
        }
        let mut sort_key = Vec::with_capacity(sel.order_by.len());
        for o in &sel.order_by {
            sort_key.push(eval_order_expr(&o.expr, &items, &out, &env)?);
        }
        keyed.push((sort_key, out));
    }
    sort_by_order(&mut keyed, &sel.order_by);
    Ok((keyed.into_iter().map(|(_, r)| r).collect(), columns))
}

/// Evaluate an ORDER BY expression: a bare name matching a projection alias
/// refers to the projected value; anything else evaluates against the row.
fn eval_order_expr(
    expr: &Expr,
    items: &[(Expr, String)],
    projected: &[Value],
    env: &dyn Env,
) -> Result<Value, CdwError> {
    if let Expr::Column(name) = expr {
        if name.0.len() == 1 {
            let target = name.0[0].to_ascii_uppercase();
            if let Some(pos) = items.iter().position(|(_, alias)| *alias == target) {
                return Ok(projected[pos].clone());
            }
        }
    }
    eval(expr, env)
}

fn sort_by_order(keyed: &mut [(Vec<Value>, Vec<Value>)], order_by: &[OrderItem]) {
    if order_by.is_empty() {
        return;
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, o) in order_by.iter().enumerate() {
            let ord = cmp_values(&ka[i], &kb[i]);
            let ord = if o.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Expand `*` and attach output names.
fn expand_projection(sel: &SelectStmt, bindings: &[Binding]) -> Vec<(Expr, String)> {
    let mut items = Vec::new();
    let mut anon = 0usize;
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => {
                for b in bindings {
                    let mut name = ObjectName::simple(b.name.clone());
                    if let Some(q) = &b.qualifier {
                        name = ObjectName(vec![q.clone(), b.name.clone()]);
                    }
                    items.push((Expr::Column(name), b.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.to_ascii_uppercase(),
                    None => match expr {
                        Expr::Column(n) => n.base().to_ascii_uppercase(),
                        _ => {
                            anon += 1;
                            format!("EXPR_{anon}")
                        }
                    },
                };
                items.push((expr.clone(), name));
            }
        }
    }
    items
}

fn projection_columns(
    items: &[(Expr, String)],
    bindings: &[Binding],
) -> Result<Vec<(String, SqlType)>, CdwError> {
    items
        .iter()
        .map(|(expr, name)| Ok((name.clone(), infer_type(expr, bindings))))
        .collect()
}

/// Best-effort output type inference (used to derive export layouts).
fn infer_type(expr: &Expr, bindings: &[Binding]) -> SqlType {
    match expr {
        Expr::Literal(Literal::Integer(_)) => SqlType::BigInt,
        Expr::Literal(Literal::Decimal(d)) => SqlType::Decimal(18, d.scale()),
        Expr::Literal(Literal::Float(_)) => SqlType::Float,
        Expr::Literal(Literal::Str(_)) | Expr::Literal(Literal::Null) => {
            SqlType::VarChar(4096, Charset::Latin)
        }
        Expr::Literal(Literal::Date(_)) => SqlType::Date,
        Expr::Column(name) => resolve_column(bindings, name)
            .map(|i| bindings[i].ty)
            .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
        Expr::Cast { ty, .. } => *ty,
        Expr::Function { name, args, .. } => match name.as_str() {
            "COUNT" => SqlType::BigInt,
            "SUM" | "AVG" | "ABS" => args
                .first()
                .map(|a| infer_type(a, bindings))
                .filter(|t| t.is_numeric())
                .unwrap_or(SqlType::Float),
            "MIN" | "MAX" | "COALESCE" | "NULLIF" => args
                .first()
                .map(|a| infer_type(a, bindings))
                .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
            "LENGTH" | "CHAR_LENGTH" | "CHARACTER_LENGTH" => SqlType::BigInt,
            "TO_DATE" => SqlType::Date,
            _ => SqlType::VarChar(4096, Charset::Latin),
        },
        Expr::Binary { left, op, right } => match op {
            BinaryOp::Concat => SqlType::VarChar(4096, Charset::Latin),
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
                let lt = infer_type(left, bindings);
                let rt = infer_type(right, bindings);
                if lt == SqlType::Float || rt == SqlType::Float {
                    SqlType::Float
                } else if matches!(lt, SqlType::Decimal(_, _)) {
                    lt
                } else if matches!(rt, SqlType::Decimal(_, _)) {
                    rt
                } else if lt == SqlType::Date {
                    lt
                } else {
                    SqlType::BigInt
                }
            }
            _ => SqlType::SmallInt, // boolean-ish
        },
        Expr::Case {
            branches,
            else_expr,
            ..
        } => branches
            .first()
            .map(|(_, t)| infer_type(t, bindings))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, bindings)))
            .unwrap_or(SqlType::VarChar(4096, Charset::Latin)),
        _ => SqlType::VarChar(4096, Charset::Latin),
    }
}

// --------------------------------------------------------------- aggregates

const AGG_FUNCS: [&str; 5] = ["COUNT", "SUM", "MIN", "MAX", "AVG"];

fn is_aggregate_fn(name: &str) -> bool {
    AGG_FUNCS.contains(&name)
}

fn expr_has_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| {
        if let Expr::Function { name, .. } = n {
            if is_aggregate_fn(name) {
                found = true;
            }
        }
    });
    found
}

fn projection_has_aggregates(sel: &SelectStmt) -> bool {
    sel.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
        SelectItem::Wildcard => false,
    }) || sel.having.as_ref().is_some_and(expr_has_aggregate)
        || sel.order_by.iter().any(|o| expr_has_aggregate(&o.expr))
}

/// Aggregate executor: hash grouping + aggregate computation, then
/// post-aggregation projection/HAVING/ORDER BY evaluation where aggregate
/// sub-expressions and GROUP BY expressions resolve to computed values.
fn exec_aggregate(
    sel: &SelectStmt,
    bindings: &[Binding],
    rows: &Rows<'_>,
) -> Result<ProjectedRows, CdwError> {
    // Collect the distinct aggregate calls appearing anywhere.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| {
        e.walk(&mut |n| {
            if let Expr::Function { name, .. } = n {
                if is_aggregate_fn(name) && !agg_calls.contains(n) {
                    agg_calls.push(n.clone());
                }
            }
        });
    };
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &sel.having {
        collect(h);
    }
    for o in &sel.order_by {
        collect(&o.expr);
    }
    let agg_args: Vec<Option<&Expr>> = agg_calls.iter().map(agg_arg).collect();

    // Group rows: groups are numbered in first-appearance order;
    // group `g`'s states are `states[g * calls..(g + 1) * calls]`.
    let calls = agg_calls.len();
    let mut states: Vec<AggState> = Vec::new();
    let open_group = |states: &mut Vec<AggState>| {
        states.extend(agg_calls.iter().map(AggState::new));
    };
    let update = |states: &mut [AggState],
                  g: usize,
                  args: &mut dyn FnMut(usize) -> Result<Value, CdwError>| {
        for (k, state) in states[g * calls..(g + 1) * calls].iter_mut().enumerate() {
            state.update(args(k)?)?;
        }
        Ok::<(), CdwError>(())
    };
    // GROUP BY keys and aggregate arguments are evaluated column-at-a-time
    // (reading only the columns they use) when every one compiles and
    // evaluates cleanly; otherwise rows evaluate in turn, which reproduces
    // first-error ordering exactly.
    let mut resolve = |n: &ObjectName| resolve_column(bindings, n).ok();
    let mut vector_of = |e: &Expr| {
        batch::compile(e, &mut resolve).and_then(|node| batch::eval_vector(&node, rows).ok())
    };
    let args: Option<Vec<Option<Vec<Value>>>> = agg_args
        .iter()
        .map(|a| match a {
            None => Some(None),
            Some(e) => vector_of(e).map(|v| Some(v.into_values())),
        })
        .collect();
    let keys: Option<Vec<batch::Vector<'_>>> = args
        .as_ref()
        .and_then(|_| sel.group_by.iter().map(&mut vector_of).collect());
    let take = |c: &mut Vec<Value>, r: usize| std::mem::replace(&mut c[r], Value::Null);
    let group_keys = match (keys, args) {
        // One GROUP BY column read in place: group on its cells, with no
        // value built per row.
        (Some(keys), Some(mut args)) if matches!(keys.as_slice(), [batch::Vector::Stored { data, .. }] if data.has_cell_keys()) =>
        {
            let [batch::Vector::Stored { data, sel: ids }] = keys.as_slice() else {
                unreachable!("matched above")
            };
            let mut index: FastMap<Option<CellKey<'_>>, usize> =
                FastMap::with_capacity_and_hasher(ids.len().min(1 << 16), Default::default());
            let mut first = Vec::new();
            for (r, &id) in ids.iter().enumerate() {
                let g = *index.entry(data.cell_key(id)).or_insert_with(|| {
                    first.push(id);
                    open_group(&mut states);
                    first.len() - 1
                });
                update(&mut states, g, &mut |k| {
                    Ok(args[k].as_mut().map_or(Value::Null, |c| take(c, r)))
                })?;
            }
            GroupKeys::Cells { data, first }
        }
        (keys, args) => {
            let mut index: FastMap<RowKey, usize> = FastMap::default();
            let mut add =
                |key_vals: Vec<Value>, args: &mut dyn FnMut(usize) -> Result<Value, CdwError>| {
                    let next = index.len();
                    let g = *index.entry(RowKey(key_vals)).or_insert_with(|| {
                        open_group(&mut states);
                        next
                    });
                    update(&mut states, g, args)
                };
            match (keys, args) {
                (Some(keys), Some(mut args)) => {
                    let mut keys: Vec<Vec<Value>> =
                        keys.into_iter().map(batch::Vector::into_values).collect();
                    for r in 0..rows.len() {
                        let key_vals = keys.iter_mut().map(|c| take(c, r)).collect();
                        add(key_vals, &mut |k| {
                            Ok(args[k].as_mut().map_or(Value::Null, |c| take(c, r)))
                        })?;
                    }
                }
                _ => {
                    for i in 0..rows.len() {
                        let env = RowEnv {
                            bindings,
                            row: rows.at(i),
                        };
                        let mut key_vals = Vec::with_capacity(sel.group_by.len());
                        for g in &sel.group_by {
                            key_vals.push(eval(g, &env)?);
                        }
                        add(key_vals, &mut |k| match agg_args[k] {
                            Some(e) => eval(e, &env),
                            None => Ok(Value::Null),
                        })?;
                    }
                }
            }
            // Each group's key values, moved out of the index.
            let mut group_keys = vec![Vec::new(); index.len()];
            for (key, g) in index {
                group_keys[g] = key.0;
            }
            GroupKeys::Values(group_keys)
        }
    };
    // Global aggregate over zero rows still yields one group.
    let group_keys = match group_keys {
        GroupKeys::Values(v) if v.is_empty() && sel.group_by.is_empty() => {
            open_group(&mut states);
            GroupKeys::Values(vec![Vec::new()])
        }
        other => other,
    };

    let items = expand_projection(sel, bindings);
    let columns = projection_columns(&items, bindings)?;

    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let mut agg_values: Vec<Value> = Vec::with_capacity(calls);
    for g in 0..group_keys.len() {
        agg_values.clear();
        for s in &states[g * calls..(g + 1) * calls] {
            agg_values.push(s.finalize()?);
        }
        let agg_env = AggEnv {
            sel,
            agg_calls: &agg_calls,
            agg_values: &agg_values,
            key: group_keys.key(g),
        };
        if let Some(h) = &sel.having {
            if !truthy(&agg_env.eval(h)?) {
                continue;
            }
        }
        let mut out = Vec::with_capacity(items.len());
        for (expr, _) in &items {
            out.push(agg_env.eval(expr)?);
        }
        let mut sort_key = Vec::with_capacity(sel.order_by.len());
        for o in &sel.order_by {
            // Aliases refer to projected values; otherwise aggregate-eval.
            let v = if let Expr::Column(name) = &o.expr {
                if name.0.len() == 1 {
                    let target = name.0[0].to_ascii_uppercase();
                    match items.iter().position(|(_, alias)| *alias == target) {
                        Some(pos) => out[pos].clone(),
                        None => agg_env.eval(&o.expr)?,
                    }
                } else {
                    agg_env.eval(&o.expr)?
                }
            } else {
                agg_env.eval(&o.expr)?
            };
            sort_key.push(v);
        }
        keyed.push((sort_key, out));
    }
    sort_by_order(&mut keyed, &sel.order_by);
    Ok((keyed.into_iter().map(|(_, r)| r).collect(), columns))
}

/// The GROUP BY key of every group: values, or — for one stored
/// column grouped in place — the row id where each group first appeared,
/// read only if an expression asks for it.
enum GroupKeys<'a> {
    Values(Vec<Vec<Value>>),
    Cells {
        data: &'a ColumnData,
        first: Vec<usize>,
    },
}

/// One group's key.
#[derive(Clone, Copy)]
enum GroupKey<'a> {
    Values(&'a [Value]),
    Cell(&'a ColumnData, usize),
}

impl GroupKeys<'_> {
    /// Number of groups.
    fn len(&self) -> usize {
        match self {
            GroupKeys::Values(v) => v.len(),
            GroupKeys::Cells { first, .. } => first.len(),
        }
    }

    fn key(&self, g: usize) -> GroupKey<'_> {
        match self {
            GroupKeys::Values(v) => GroupKey::Values(&v[g]),
            GroupKeys::Cells { data, first } => GroupKey::Cell(data, first[g]),
        }
    }
}

impl GroupKey<'_> {
    /// Key value `pos` (the `pos`-th GROUP BY expression).
    fn get(&self, pos: usize) -> Value {
        match self {
            GroupKey::Values(v) => v[pos].clone(),
            GroupKey::Cell(data, row) => data.get(*row),
        }
    }
}

/// Post-aggregation evaluation environment.
struct AggEnv<'a> {
    sel: &'a SelectStmt,
    agg_calls: &'a [Expr],
    agg_values: &'a [Value],
    key: GroupKey<'a>,
}

impl AggEnv<'_> {
    fn eval(&self, expr: &Expr) -> Result<Value, CdwError> {
        // An aggregate call resolves to its computed value.
        if let Some(pos) = self.agg_calls.iter().position(|c| c == expr) {
            return Ok(self.agg_values[pos].clone());
        }
        // A GROUP BY expression resolves to the group key.
        if let Some(pos) = self.sel.group_by.iter().position(|g| g == expr) {
            return Ok(self.key.get(pos));
        }
        // Otherwise recurse structurally over non-leaf nodes.
        match expr {
            Expr::Literal(lit) => Ok(crate::eval::literal_value(lit)),
            Expr::Binary { left, op, right } => {
                // Apply the operator to the resolved children, as if they
                // were written as literals.
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                apply_binary(through_literal(l), *op, through_literal(r))
            }
            Expr::Column(name) => Err(CdwError::Eval(format!(
                "column {} must appear in GROUP BY or inside an aggregate",
                name.dotted()
            ))),
            other => {
                // Generic fallback: evaluate with an env that reports the
                // GROUP BY restriction violation for any column reference.
                struct NoColumns;
                impl Env for NoColumns {
                    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
                        Err(CdwError::Eval(format!(
                            "column {} must appear in GROUP BY or inside an aggregate",
                            name.dotted()
                        )))
                    }
                }
                eval(other, &NoColumns)
            }
        }
    }
}

/// A value as it reads back after being written as a SQL literal — how
/// [`AggEnv`] and SUM combine already-computed values. Literals have no
/// VARBYTE or TIMESTAMP form: those become their text rendering.
fn through_literal(v: Value) -> Value {
    match v {
        Value::Bytes(_) | Value::Timestamp(_) => Value::Str(v.display_text()),
        other => other,
    }
}

/// The argument an aggregate call evaluates per row (`None` for
/// `COUNT(*)`).
fn agg_arg(call: &Expr) -> Option<&Expr> {
    match call {
        Expr::Function { args, .. } if !matches!(args.first(), Some(Expr::Wildcard)) => {
            args.first()
        }
        _ => None,
    }
}

/// Running state of one aggregate call within one group.
enum AggState {
    CountStar(u64),
    Count {
        distinct: bool,
        seen: HashMap<RowKey, ()>,
        n: u64,
    },
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        n: u64,
    },
}

impl AggState {
    fn new(call: &Expr) -> AggState {
        let Expr::Function {
            name,
            args,
            distinct,
        } = call
        else {
            unreachable!("aggregate call is a function")
        };
        match name.as_str() {
            "COUNT" if matches!(args.first(), Some(Expr::Wildcard)) => AggState::CountStar(0),
            "COUNT" => AggState::Count {
                distinct: *distinct,
                seen: HashMap::new(),
                n: 0,
            },
            "SUM" => AggState::Sum(None),
            "MIN" => AggState::Min(None),
            "MAX" => AggState::Max(None),
            "AVG" => AggState::Avg { sum: 0.0, n: 0 },
            other => unreachable!("unknown aggregate {other}"),
        }
    }

    /// Fold one row's argument value (`NULL` for `COUNT(*)`, which has
    /// none) into the state.
    fn update(&mut self, v: Value) -> Result<(), CdwError> {
        match self {
            AggState::CountStar(n) => {
                *n += 1;
                Ok(())
            }
            AggState::Count { distinct, seen, n } => {
                if v.is_null() {
                    return Ok(());
                }
                if *distinct {
                    if seen.insert(RowKey(vec![v]), ()).is_none() {
                        *n += 1;
                    }
                } else {
                    *n += 1;
                }
                Ok(())
            }
            AggState::Sum(acc) => {
                if v.is_null() {
                    return Ok(());
                }
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => {
                        apply_binary(through_literal(prev), BinaryOp::Add, through_literal(v))?
                    }
                });
                Ok(())
            }
            AggState::Min(_) | AggState::Max(_) if v.is_null() => Ok(()),
            AggState::Min(_) | AggState::Max(_) => {
                let is_min = matches!(self, AggState::Min(_));
                // Re-borrow after the matches! check.
                let acc = match self {
                    AggState::Min(a) | AggState::Max(a) => a,
                    _ => unreachable!(),
                };
                *acc = Some(match acc.take() {
                    None => v,
                    Some(prev) => {
                        let keep_new = if is_min {
                            cmp_values(&v, &prev) == std::cmp::Ordering::Less
                        } else {
                            cmp_values(&v, &prev) == std::cmp::Ordering::Greater
                        };
                        if keep_new {
                            v
                        } else {
                            prev
                        }
                    }
                });
                Ok(())
            }
            AggState::Avg { sum, n } => {
                if v.is_null() {
                    return Ok(());
                }
                let f = v.to_f64().map_err(|e| conv_err(e.reason))?;
                *sum += f;
                *n += 1;
                Ok(())
            }
        }
    }

    fn finalize(&self) -> Result<Value, CdwError> {
        Ok(match self {
            AggState::CountStar(n) => Value::Int(*n as i64),
            AggState::Count { n, .. } => Value::Int(*n as i64),
            AggState::Sum(acc) => acc.clone().unwrap_or(Value::Null),
            AggState::Min(acc) | AggState::Max(acc) => acc.clone().unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        })
    }
}
