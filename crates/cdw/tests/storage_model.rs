//! Storage model oracle: a seeded statement stream over every column
//! family, checked against a plain row-major model kept in this file.
//!
//! `differential.rs` compares two engines that share one table store, so
//! a storage bug (a lost NULL, a stale text span after UPDATE, a
//! misaligned column after DELETE compaction) would look identical on
//! both sides. Here the reference is a `Vec<Vec<Value>>` per table that
//! the test maintains itself: every INSERT, COPY, batched ingest, UPDATE
//! (including UPDATEs of indexed columns), DELETE and DROP is applied to
//! the model with the same coercion rules (`Value::coerce_to`), and after
//! every statement each table's full contents (`SELECT *`, storage order)
//! must equal the model, every index must validate, and the statement's
//! outcome (rows affected, or an abort with no effect) must match.

use std::sync::Arc;

use etlv_cdw::{Cdw, CdwConfig, CdwError};
use etlv_cloudstore::compress;
use etlv_cloudstore::store::{MemStore, ObjectStore};
use etlv_protocol::data::{Date, Decimal, LegacyType, Timestamp, Value};

/// splitmix64: tiny, seedable, good enough for statement fuzzing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

/// Column families of the model schema.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fam {
    Int,
    Big,
    Float,
    Dec,
    Date,
    Ts,
    Char,
    VarChar,
    VarByte,
}

struct ModelCol {
    name: &'static str,
    fam: Fam,
    ty: LegacyType,
    not_null: bool,
}

struct ModelTable {
    name: &'static str,
    ddl: &'static str,
    cols: Vec<ModelCol>,
    /// Position of the primary-key column, if declared.
    pk: Option<usize>,
    rows: Vec<Vec<Value>>,
    exists: bool,
}

fn col(name: &'static str, fam: Fam, ty: LegacyType, not_null: bool) -> ModelCol {
    ModelCol {
        name,
        fam,
        ty,
        not_null,
    }
}

fn table_t() -> ModelTable {
    ModelTable {
        name: "T",
        ddl: "CREATE TABLE T (ID INTEGER NOT NULL, BIG BIGINT, F FLOAT, D DECIMAL(10,2), \
              DT DATE, TS TIMESTAMP, C CHAR(4), V VARCHAR(8), B VARBYTE(6), PRIMARY KEY (ID))",
        cols: vec![
            col("ID", Fam::Int, LegacyType::Integer, true),
            col("BIG", Fam::Big, LegacyType::BigInt, false),
            col("F", Fam::Float, LegacyType::Float, false),
            col("D", Fam::Dec, LegacyType::Decimal(10, 2), false),
            col("DT", Fam::Date, LegacyType::Date, false),
            col("TS", Fam::Ts, LegacyType::Timestamp, false),
            col("C", Fam::Char, LegacyType::Char(4), false),
            col("V", Fam::VarChar, LegacyType::VarChar(8), false),
            col("B", Fam::VarByte, LegacyType::VarByte(6), false),
        ],
        pk: Some(0),
        rows: Vec::new(),
        exists: true,
    }
}

fn table_u() -> ModelTable {
    ModelTable {
        name: "U",
        ddl: "CREATE TABLE U (K BIGINT, D DECIMAL(6,3), V VARCHAR(8) NOT NULL)",
        cols: vec![
            col("K", Fam::Big, LegacyType::BigInt, false),
            col("D", Fam::Dec, LegacyType::Decimal(6, 3), false),
            col("V", Fam::VarChar, LegacyType::VarChar(8), true),
        ],
        pk: None,
        rows: Vec::new(),
        exists: true,
    }
}

/// One generated source value: its SQL literal, its staged-file text,
/// and the value the engine sees before coercion.
#[derive(Clone)]
struct Src {
    sql: String,
    staged: Option<String>,
    raw: Value,
}

fn null_src() -> Src {
    Src {
        sql: "NULL".into(),
        staged: None,
        raw: Value::Null,
    }
}

fn text_src(s: &str) -> Src {
    Src {
        sql: format!("'{s}'"),
        staged: Some(s.to_string()),
        raw: Value::Str(s.to_string()),
    }
}

/// Generate a source value for a column. `staged` selects the pool of
/// strings (COPY text may carry delimiters, escapes and newlines; SQL
/// literals stay plain). Invalid values appear at a low rate so aborts
/// are exercised.
fn gen_src(rng: &mut Rng, c: &ModelCol, staged: bool) -> Src {
    let null_rate = if c.not_null { 40 } else { 6 };
    if rng.chance(null_rate) {
        return null_src();
    }
    match c.fam {
        Fam::Int | Fam::Big => {
            let v = if c.fam == Fam::Int && rng.chance(60) {
                3_000_000_000i64 // out of INTEGER range
            } else {
                rng.below(60) as i64 - 5
            };
            if staged {
                return text_src(&v.to_string());
            }
            Src {
                sql: v.to_string(),
                staged: Some(v.to_string()),
                // `-5` parses as a negated literal; it evaluates to an Int.
                raw: Value::Int(v),
            }
        }
        Fam::Float | Fam::Dec => {
            // Mixed scales: 0 to 4 fraction digits.
            let scale = rng.below(5) as u32;
            let unscaled = rng.below(9_000) as i128 + 1;
            let d = Decimal::new(unscaled, scale as u8);
            let text = d.to_string();
            if staged {
                return text_src(&text);
            }
            Src {
                sql: text.clone(),
                staged: Some(text.clone()),
                raw: if scale == 0 {
                    Value::Int(unscaled as i64)
                } else {
                    Value::Decimal(Decimal::parse(&text).unwrap())
                },
            }
        }
        Fam::Date => {
            let s = if rng.chance(30) {
                "2020-02-30".to_string()
            } else {
                format!("2020-01-{:02}", 1 + rng.below(28))
            };
            text_src(&s)
        }
        Fam::Ts => {
            let s = match rng.below(4) {
                0 => format!("2021-03-{:02} 04:05:06", 1 + rng.below(28)),
                1 => format!("2021-03-{:02} 23:59:59.5", 1 + rng.below(28)),
                2 => format!("2021-04-{:02}", 1 + rng.below(28)),
                _ => format!("2021-03-01 {:02}:00:00.000123", rng.below(24)),
            };
            text_src(&s)
        }
        Fam::Char => {
            let s = if rng.chance(40) {
                "abcde"
            } else {
                rng.pick(&["", "a", "ab", "abc", "abcd", "zz"])
            };
            text_src(s)
        }
        Fam::VarChar => {
            let s = if rng.chance(40) {
                "toolong-by-far"
            } else if staged {
                rng.pick(&["", "x", "a|b", "q\\z", "l1\nl2", "\"q\"", "k1", "k2", "k3"])
            } else {
                rng.pick(&["", "x", "k1", "k2", "k3", "mid val", "zzzzzzzz"])
            };
            text_src(s)
        }
        Fam::VarByte => {
            // SQL and staged text cannot carry bytes: a non-NULL text
            // value is a conversion error, exercised at a low rate.
            if rng.chance(25) {
                text_src("ab")
            } else {
                null_src()
            }
        }
    }
}

/// A typed value for the batched-ingest API, VARBYTE included.
fn gen_typed(rng: &mut Rng, c: &ModelCol) -> Value {
    if !c.not_null && rng.chance(6) {
        return Value::Null;
    }
    match c.fam {
        Fam::Int | Fam::Big => Value::Int(rng.below(60) as i64 + 100),
        Fam::Float => Value::Float(rng.below(100) as f64 / 4.0),
        Fam::Dec => Value::Decimal(Decimal::new(rng.below(9_000) as i128, rng.below(4) as u8)),
        Fam::Date => Value::Date(Date::new(2019, 12, 1 + rng.below(31) as u8).unwrap()),
        Fam::Ts => Value::Timestamp(Timestamp::from_micros(rng.below(1 << 40) as i64)),
        Fam::Char => Value::Str(rng.pick(&["", "b", "bcd"]).into()),
        Fam::VarChar => Value::Str(rng.pick(&["", "bx", "k2", "batch"]).into()),
        Fam::VarByte => {
            let n = if rng.chance(20) { 7 } else { rng.below(7) };
            Value::Bytes((0..n).map(|i| (i * 37 + 1) as u8).collect())
        }
    }
}

/// Coerce one value the way the engine does, NOT NULL included.
fn coerce(c: &ModelCol, v: &Value) -> Result<Value, ()> {
    if v.is_null() {
        return if c.not_null { Err(()) } else { Ok(Value::Null) };
    }
    v.coerce_to(c.ty).map_err(|_| ())
}

fn coerce_row(t: &ModelTable, row: &[Value]) -> Result<Vec<Value>, ()> {
    t.cols.iter().zip(row).map(|(c, v)| coerce(c, v)).collect()
}

/// A model predicate over table T or U.
#[derive(Clone)]
enum Pred {
    Eq(usize, i64),
    Lt(usize, i64),
    Range(usize, i64, i64),
    StrEq(usize, String),
    IsNull(usize),
}

impl Pred {
    fn sql(&self, t: &ModelTable) -> String {
        match self {
            Pred::Eq(c, k) => format!("{} = {k}", t.cols[*c].name),
            Pred::Lt(c, k) => format!("{} < {k}", t.cols[*c].name),
            Pred::Range(c, lo, hi) => {
                let n = t.cols[*c].name;
                format!("{n} >= {lo} AND {n} < {hi}")
            }
            Pred::StrEq(c, s) => format!("{} = '{s}'", t.cols[*c].name),
            Pred::IsNull(c) => format!("{} IS NULL", t.cols[*c].name),
        }
    }

    fn hit(&self, row: &[Value]) -> bool {
        let int = |c: usize| match &row[c] {
            Value::Int(x) => Some(*x),
            _ => None,
        };
        match self {
            Pred::Eq(c, k) => int(*c) == Some(*k),
            Pred::Lt(c, k) => int(*c).is_some_and(|x| x < *k),
            Pred::Range(c, lo, hi) => int(*c).is_some_and(|x| x >= *lo && x < *hi),
            Pred::StrEq(c, s) => matches!(&row[*c], Value::Str(v) if v == s),
            Pred::IsNull(c) => row[*c].is_null(),
        }
    }
}

fn gen_pred(rng: &mut Rng, t: &ModelTable) -> Pred {
    let int_col = 0; // T.ID or U.K
    let str_col = t.cols.iter().position(|c| c.fam == Fam::VarChar).unwrap();
    match rng.below(5) {
        0 => Pred::Eq(int_col, rng.below(60) as i64 - 5),
        1 => Pred::Lt(int_col, rng.below(30) as i64),
        2 => {
            let lo = rng.below(60) as i64 - 5;
            Pred::Range(int_col, lo, lo + 1 + rng.below(10) as i64)
        }
        3 => Pred::StrEq(str_col, rng.pick(&["", "x", "k1", "k2", "bx"]).into()),
        _ => Pred::IsNull(if t.name == "T" { 7 } else { 0 }),
    }
}

/// Whether the rows' primary keys are pairwise distinct.
fn keys_unique(t: &ModelTable, rows: &[Vec<Value>]) -> bool {
    let Some(pk) = t.pk else { return true };
    let mut keys: Vec<&Value> = rows.iter().map(|r| &r[pk]).collect();
    keys.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    keys.windows(2).all(|w| w[0] != w[1])
}

/// An UPDATE assignment's value, computed from the row's old values.
type Assign = Box<dyn Fn(&[Value]) -> Value>;

/// The model's prediction for one statement: `Some(affected)` or `None`
/// for an abort that changes nothing.
type Outcome = Option<u64>;

struct Harness {
    cdw: Cdw,
    store: Arc<MemStore>,
    native_unique: bool,
    tables: Vec<ModelTable>,
    copies: u64,
    /// Statements (and batches) the model predicted to abort / apply.
    aborts: u64,
    applied: u64,
}

impl Harness {
    fn new(planner: bool, native_unique: bool) -> Harness {
        let store = Arc::new(MemStore::new());
        let cdw = Cdw::with_config(
            CdwConfig {
                planner,
                native_unique,
                ..Default::default()
            },
            Some(store.clone() as Arc<dyn ObjectStore>),
        );
        let h = Harness {
            cdw,
            store,
            native_unique,
            tables: vec![table_t(), table_u()],
            copies: 0,
            aborts: 0,
            applied: 0,
        };
        for t in &h.tables {
            h.create(t);
        }
        h
    }

    fn create(&self, t: &ModelTable) {
        self.cdw.execute(t.ddl).unwrap();
        if t.name == "T" {
            self.cdw
                .create_index("T", "IX_V", &["V".into()], false)
                .unwrap();
            self.cdw
                .create_index("T", "IX_DT_C", &["DT".into(), "C".into()], false)
                .unwrap();
        }
    }

    /// Apply `rows` (already coerced) to table `ti` as an append, honouring
    /// native uniqueness.
    fn tally(&mut self, outcome: Outcome) {
        match outcome {
            Some(_) => self.applied += 1,
            None => self.aborts += 1,
        }
    }

    fn model_append(&mut self, ti: usize, rows: Vec<Vec<Value>>) -> Outcome {
        let t = &self.tables[ti];
        if self.native_unique {
            let mut all = t.rows.clone();
            all.extend(rows.iter().cloned());
            if !keys_unique(t, &all) {
                return None;
            }
        }
        let n = rows.len() as u64;
        self.tables[ti].rows.extend(rows);
        Some(n)
    }

    fn insert_values(&mut self, rng: &mut Rng, ti: usize) -> (String, Outcome) {
        let t = &self.tables[ti];
        let n = 1 + rng.below(3);
        let mut lits = Vec::new();
        let mut coerced = Some(Vec::new());
        for _ in 0..n {
            let srcs: Vec<Src> = t.cols.iter().map(|c| gen_src(rng, c, false)).collect();
            let raw: Vec<Value> = srcs.iter().map(|s| s.raw.clone()).collect();
            lits.push(format!(
                "({})",
                srcs.iter()
                    .map(|s| s.sql.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            coerced = match (coerced, coerce_row(t, &raw)) {
                (Some(mut acc), Ok(row)) => {
                    acc.push(row);
                    Some(acc)
                }
                _ => None,
            };
        }
        let sql = format!("INSERT INTO {} VALUES {}", t.name, lits.join(", "));
        let outcome = coerced.and_then(|rows| self.model_append(ti, rows));
        (sql, outcome)
    }

    fn copy(&mut self, rng: &mut Rng, ti: usize) -> (String, Outcome) {
        self.copies += 1;
        let prefix = format!("copy{}/", self.copies);
        let t = &self.tables[ti];
        let fmt = etlv_cdw::staged::StagedFormat::new(b'|');
        let parts = 1 + rng.below(2);
        let mut coerced = Some(Vec::new());
        for p in 0..parts {
            let mut buf = Vec::new();
            for _ in 0..1 + rng.below(12) {
                let srcs: Vec<Src> = t.cols.iter().map(|c| gen_src(rng, c, true)).collect();
                fmt.write_text_row(srcs.iter().map(|s| s.staged.as_deref()), &mut buf);
                let raw: Vec<Value> = srcs
                    .iter()
                    .map(|s| s.staged.clone().map_or(Value::Null, Value::Str))
                    .collect();
                coerced = match (coerced, coerce_row(t, &raw)) {
                    (Some(mut acc), Ok(row)) => {
                        acc.push(row);
                        Some(acc)
                    }
                    _ => None,
                };
            }
            if rng.chance(2) {
                buf = compress::compress(&buf);
            }
            self.store
                .put("stage", &format!("{prefix}part{p}"), buf)
                .unwrap();
        }
        let sql = format!(
            "COPY INTO {} FROM 'store://stage/{prefix}' DELIMITER '|'",
            t.name
        );
        let outcome = coerced.and_then(|rows| self.model_append(ti, rows));
        (sql, outcome)
    }

    fn update(&mut self, rng: &mut Rng, ti: usize) -> (String, Outcome) {
        let t = &self.tables[ti];
        let pred = gen_pred(rng, t);
        // (column, SQL expression, model value computed from the row)
        let mut sets: Vec<(usize, String, Assign)> = Vec::new();
        let ncols = t.cols.len();
        for _ in 0..1 + rng.below(2) {
            let c = rng.below(ncols as u64) as usize;
            if t.cols[c].fam == Fam::Int && rng.chance(2) {
                // Re-key the indexed primary key column from its own value.
                let k = rng.below(7) as i64 + 1;
                sets.push((
                    c,
                    format!("{} + {k}", t.cols[c].name),
                    Box::new(move |row: &[Value]| match &row[c] {
                        Value::Int(x) => Value::Int(x + k),
                        _ => Value::Null,
                    }),
                ));
            } else {
                let s = gen_src(rng, &t.cols[c], false);
                let raw = s.raw.clone();
                sets.push((c, s.sql, Box::new(move |_: &[Value]| raw.clone())));
            }
        }
        let sql = format!(
            "UPDATE {} SET {} WHERE {}",
            t.name,
            sets.iter()
                .map(|(c, e, _)| format!("{} = {e}", t.cols[*c].name))
                .collect::<Vec<_>>()
                .join(", "),
            pred.sql(t)
        );
        let mut next = t.rows.clone();
        let mut n = 0u64;
        for row in next.iter_mut() {
            if !pred.hit(row) {
                continue;
            }
            n += 1;
            let old = row.clone();
            // Evaluate every assignment against the old row; the last
            // write to a column wins.
            let vals: Vec<(usize, Value)> = sets.iter().map(|(c, _, f)| (*c, f(&old))).collect();
            for (i, (c, v)) in vals.iter().enumerate() {
                let last = !vals[i + 1..].iter().any(|(c2, _)| c2 == c);
                if last {
                    match coerce(&t.cols[*c], v) {
                        Ok(v) => row[*c] = v,
                        Err(()) => return (sql, None),
                    }
                }
            }
        }
        if self.native_unique && n > 0 && !keys_unique(t, &next) {
            return (sql, None);
        }
        self.tables[ti].rows = next;
        (sql, Some(n))
    }

    fn delete(&mut self, rng: &mut Rng, ti: usize) -> (String, Outcome) {
        let t = &mut self.tables[ti];
        let pred = gen_pred(rng, t);
        let sql = format!("DELETE FROM {} WHERE {}", t.name, pred.sql(t));
        let before = t.rows.len();
        t.rows.retain(|r| !pred.hit(r));
        (sql, Some((before - t.rows.len()) as u64))
    }

    fn insert_select(&mut self, rng: &mut Rng) -> (String, Outcome) {
        let pred = gen_pred(rng, &self.tables[0]);
        let sql = format!(
            "INSERT INTO U (K, D, V) SELECT ID, D, V FROM T WHERE {}",
            pred.sql(&self.tables[0])
        );
        let u = &self.tables[1];
        let mut rows = Vec::new();
        for r in self.tables[0].rows.iter().filter(|r| pred.hit(r)) {
            match coerce_row(u, &[r[0].clone(), r[3].clone(), r[7].clone()]) {
                Ok(row) => rows.push(row),
                Err(()) => return (sql, None),
            }
        }
        (sql, self.model_append(1, rows))
    }

    fn batch(&mut self, rng: &mut Rng, ti: usize) -> Outcome {
        let t = &self.tables[ti];
        let rows: Vec<Vec<Value>> = (0..1 + rng.below(4))
            .map(|_| t.cols.iter().map(|c| gen_typed(rng, c)).collect())
            .collect();
        let coerced: Result<Vec<_>, ()> = rows.iter().map(|r| coerce_row(t, r)).collect();
        let got = self.cdw.copy_batch(t.name, rows);
        let want = coerced.ok().and_then(|rows| self.model_append(ti, rows));
        assert_eq!(
            got.as_ref().ok().copied(),
            want,
            "copy_batch into {}: engine {got:?}",
            self.tables[ti].name
        );
        want
    }

    fn check(&self, step: usize, what: &str) {
        for t in &self.tables {
            let got = self.cdw.execute(&format!("SELECT * FROM {}", t.name));
            if !t.exists {
                assert!(
                    matches!(got, Err(CdwError::TableNotFound(_))),
                    "step {step} ({what}): dropped table {} still answers",
                    t.name
                );
                continue;
            }
            let got = got.unwrap_or_else(|e| panic!("step {step} ({what}): {e}"));
            assert_eq!(
                got.rows.len(),
                t.rows.len(),
                "step {step} ({what}): {} row count",
                t.name
            );
            for (i, (g, m)) in got.rows.iter().zip(&t.rows).enumerate() {
                assert_eq!(g, m, "step {step} ({what}): {} row {i}", t.name);
            }
            assert_eq!(self.cdw.table_len(t.name).unwrap(), t.rows.len());
        }
        self.cdw
            .validate_indexes()
            .unwrap_or_else(|e| panic!("step {step} ({what}): {e}"));
    }

    fn step(&mut self, rng: &mut Rng, step: usize) {
        let ti = rng.below(2) as usize;
        if !self.tables[ti].exists {
            let t = &mut self.tables[ti];
            t.exists = true;
            t.rows.clear();
            self.create(&self.tables[ti]);
            self.check(step, "re-create");
            return;
        }
        let (sql, want) = match rng.below(20) {
            0..=4 => self.insert_values(rng, ti),
            5..=8 => self.copy(rng, ti),
            9..=11 => self.update(rng, ti),
            12..=13 => self.delete(rng, ti),
            14..=15 if self.tables.iter().all(|t| t.exists) => self.insert_select(rng),
            14..=15 => self.insert_values(rng, ti),
            16..=18 => {
                let outcome = self.batch(rng, ti);
                self.tally(outcome);
                self.check(step, "copy_batch");
                return;
            }
            _ => {
                let t = &mut self.tables[ti];
                t.exists = false;
                t.rows.clear();
                (format!("DROP TABLE {}", t.name), Some(0))
            }
        };
        self.tally(want);
        let got = self.cdw.execute(&sql);
        match (&got, want) {
            (Ok(r), Some(n)) => assert_eq!(r.affected, n, "step {step}: {sql}"),
            (Err(e), None) => assert!(
                e.is_bulk_abort(),
                "step {step}: {sql}: expected a bulk abort, got {e}"
            ),
            _ => panic!("step {step}: {sql}: engine {got:?}, model {want:?}"),
        }
        self.check(step, &sql);
    }
}

fn run(seed: u64, planner: bool, native_unique: bool, steps: usize) {
    let mut rng = Rng(seed);
    let mut h = Harness::new(planner, native_unique);
    for step in 0..steps {
        h.step(&mut rng, step);
    }
}

#[test]
fn storage_matches_row_model_planner_on() {
    for seed in 0..4 {
        run(0x5EED_0000 + seed, true, false, 300);
    }
}

#[test]
fn storage_matches_row_model_native_unique() {
    for seed in 0..4 {
        run(0xC0DE_0000 + seed, true, true, 300);
    }
}

#[test]
fn storage_matches_row_model_scan_reference() {
    for seed in 0..2 {
        run(0xF00D_0000 + seed, false, false, 300);
    }
}

#[test]
fn stream_reaches_every_outcome() {
    // The generator must actually exercise aborts, NULLs, both string
    // renderings and every family: record what one seed stores at any
    // point of its run.
    let mut rng = Rng(0x5EED_0000);
    let mut h = Harness::new(true, false);
    let mut seen = [false; 8];
    for step in 0..300 {
        h.step(&mut rng, step);
        for v in h.tables.iter().flat_map(|t| t.rows.iter().flatten()) {
            let slot = match v {
                Value::Null => 0,
                Value::Str(s) if s.is_empty() => 1,
                Value::Str(_) => 2,
                Value::Bytes(_) => 3,
                Value::Decimal(_) => 4,
                Value::Timestamp(_) => 5,
                Value::Float(_) => 6,
                Value::Date(_) => 7,
                Value::Int(_) => continue,
            };
            seen[slot] = true;
        }
    }
    assert_eq!(
        seen, [true; 8],
        "NULL, '', text, bytes, decimal, ts, float, date"
    );
    assert!(
        h.aborts > 10 && h.applied > 100,
        "{} aborts, {} applied",
        h.aborts,
        h.applied
    );
}
