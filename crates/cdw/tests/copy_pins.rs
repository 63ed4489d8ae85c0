//! COPY equivalence and error pins.
//!
//! A staged file and `INSERT … VALUES` of the same rows must leave
//! identical table contents. Every malformed COPY must abort with a fixed
//! `BulkAbort` kind and message — the adaptive error handler and the
//! error tables depend on both — and must leave the table exactly as it
//! was (set-oriented abort-before-mutate).

use std::sync::Arc;

use etlv_cdw::error::BulkAbortKind;
use etlv_cdw::staged::StagedFormat;
use etlv_cdw::{Cdw, CdwConfig, CdwError};
use etlv_cloudstore::compress;
use etlv_cloudstore::store::{MemStore, ObjectStore};

const DDL: &str = "CREATE TABLE STG (__SEQ BIGINT NOT NULL, ID INTEGER, F FLOAT, \
                   D DECIMAL(8,2), DT DATE, TS TIMESTAMP, C CHAR(3), V VARCHAR(8), \
                   B VARBYTE(4), PRIMARY KEY (__SEQ))";

fn setup() -> (Cdw, Arc<MemStore>) {
    let store = Arc::new(MemStore::new());
    let cdw = Cdw::with_config(
        CdwConfig::default(),
        Some(store.clone() as Arc<dyn ObjectStore>),
    );
    cdw.execute(DDL).unwrap();
    (cdw, store)
}

fn contents(cdw: &Cdw) -> Vec<Vec<etlv_protocol::data::Value>> {
    cdw.execute("SELECT * FROM STG").unwrap().rows
}

/// Staged text of one row (None = NULL), in STG column order.
type Row<'a> = [Option<&'a str>; 9];

fn staged(rows: &[Row<'_>]) -> Vec<u8> {
    let f = StagedFormat::new(b'|');
    let mut buf = Vec::new();
    for r in rows {
        f.write_text_row(r.iter().copied(), &mut buf);
    }
    buf
}

fn copy(cdw: &Cdw, prefix: &str) -> Result<u64, CdwError> {
    cdw.execute(&format!(
        "COPY INTO STG FROM 'store://b/{prefix}/' DELIMITER '|'"
    ))
    .map(|r| r.affected)
}

const GOOD: [Row<'static>; 4] = [
    [
        Some("1"),
        Some("10"),
        Some("1.5"),
        Some("3.14"),
        Some("2020-01-02"),
        Some("2020-01-02 03:04:05"),
        Some("ab"),
        Some("x|y"),
        None,
    ],
    [
        Some("2"),
        None,
        Some("2"),
        Some("7"),
        Some("2021-12-31"),
        Some("2021-12-31 23:59:59.25"),
        Some(""),
        Some(""),
        None,
    ],
    [
        Some("3"),
        Some("-4"),
        None,
        Some("0.125"),
        None,
        None,
        None,
        None,
        None,
    ],
    [
        Some("4"),
        Some("2147483647"),
        Some("0.25"),
        Some("-12.5"),
        Some("1999-02-28"),
        Some("1999-02-28"),
        Some("abc"),
        Some("q\\z\"w"),
        None,
    ],
];

/// The same rows as `GOOD`, as SQL literals.
const GOOD_SQL: &str = "INSERT INTO STG VALUES \
    (1, '10', '1.5', '3.14', '2020-01-02', '2020-01-02 03:04:05', 'ab', 'x|y', NULL), \
    (2, NULL, '2', '7', '2021-12-31', '2021-12-31 23:59:59.25', '', '', NULL), \
    (3, '-4', NULL, '0.125', NULL, NULL, NULL, NULL, NULL), \
    (4, '2147483647', '0.25', '-12.5', '1999-02-28', '1999-02-28', 'abc', 'q\\z\"w', NULL)";

#[test]
fn staged_file_and_insert_values_store_identical_rows() {
    let (a, store) = setup();
    store.put("b", "eq/part0", staged(&GOOD[..2])).unwrap();
    store
        .put("b", "eq/part1", compress::compress(&staged(&GOOD[2..])))
        .unwrap();
    assert_eq!(copy(&a, "eq").unwrap(), 4);

    let (b, _) = setup();
    assert_eq!(b.execute(GOOD_SQL).unwrap().affected, 4);

    let (ra, rb) = (contents(&a), contents(&b));
    assert_eq!(ra.len(), 4);
    assert_eq!(ra, rb);
    // The CHAR column is space padded and '' stays distinct from NULL on
    // both paths.
    assert_eq!(ra[1][6].display_text(), "   ");
    assert_eq!(ra[1][7], etlv_protocol::data::Value::Str(String::new()));
    assert!(ra[2][7].is_null());
    a.validate_indexes().unwrap();
}

/// Load `GOOD` first so "untouched" means "still exactly these rows".
fn seeded() -> (Cdw, Arc<MemStore>) {
    let (cdw, store) = setup();
    store.put("b", "seed/part0", staged(&GOOD)).unwrap();
    copy(&cdw, "seed").unwrap();
    (cdw, store)
}

/// Run a COPY over `parts` and pin its abort kind and message, plus the
/// untouched table.
fn assert_abort(prefix: &str, parts: Vec<Vec<u8>>, kind: BulkAbortKind, message: &str) {
    let (cdw, store) = seeded();
    let before = contents(&cdw);
    for (i, p) in parts.into_iter().enumerate() {
        store.put("b", &format!("{prefix}/part{i}"), p).unwrap();
    }
    match copy(&cdw, prefix) {
        Err(CdwError::BulkAbort {
            kind: k,
            message: m,
        }) => {
            assert_eq!((k, m.as_str()), (kind, message), "{prefix}");
        }
        other => panic!("{prefix}: expected a bulk abort, got {other:?}"),
    }
    assert_eq!(contents(&cdw), before, "{prefix}: table changed");
    assert_eq!(cdw.table_len("STG").unwrap(), GOOD.len());
    cdw.validate_indexes().unwrap();
}

fn row_with(seq: &'static str, col: usize, text: Option<&'static str>) -> Row<'static> {
    let mut r: Row<'static> = [Some(seq), None, None, None, None, None, None, None, None];
    r[col] = text;
    r
}

#[test]
fn arity_mismatch() {
    assert_abort(
        "arity",
        vec![b"10|1|2\n".to_vec()],
        BulkAbortKind::BadFile,
        "malformed staged file: expected 9 fields, found 3",
    );
}

#[test]
fn dangling_escape() {
    assert_abort(
        "escape",
        vec![b"10||||||||abc\\\n".to_vec()],
        BulkAbortKind::BadFile,
        "malformed staged file: dangling escape at end of record",
    );
}

#[test]
fn bad_utf8() {
    assert_abort(
        "utf8",
        vec![b"10||||||||\xff\xfe\n".to_vec()],
        BulkAbortKind::BadFile,
        "malformed staged file: field contains invalid UTF-8",
    );
}

#[test]
fn varchar_overflow() {
    assert_abort(
        "varchar",
        vec![staged(&[row_with("10", 7, Some("ninechars"))])],
        BulkAbortKind::Conversion,
        "column STG.V: string length 9 exceeds VARCHAR(8)",
    );
}

#[test]
fn non_integer_seq() {
    assert_abort(
        "seq",
        vec![staged(&[row_with("x1", 7, Some("ok"))])],
        BulkAbortKind::Conversion,
        "column STG.__SEQ: 'x1' is not a valid BIGINT",
    );
}

#[test]
fn bad_date() {
    assert_abort(
        "date",
        vec![staged(&[row_with("10", 4, Some("2020-02-30"))])],
        BulkAbortKind::Conversion,
        "column STG.DT: invalid date: day 30 out of range 1..=29 for 2020-02",
    );
}

#[test]
fn null_in_not_null_column() {
    let mut r = row_with("10", 7, Some("ok"));
    r[0] = None;
    assert_abort(
        "notnull",
        vec![staged(&[r])],
        BulkAbortKind::NullViolation,
        "NULL in NOT NULL column STG.__SEQ",
    );
}

#[test]
fn corrupt_compressed_part() {
    let mut part = compress::compress(&staged(&[row_with("10", 7, Some("ok"))]));
    let n = part.len();
    part.truncate(n - 3);
    part.push(0xff);
    assert_abort(
        "corrupt",
        vec![part],
        BulkAbortKind::BadFile,
        "corrupt compressed part corrupt/part0: decompressed 11 bytes, header declared 13",
    );
}

#[test]
fn second_part_bad_leaves_first_part_unapplied() {
    assert_abort(
        "two",
        vec![
            staged(&[row_with("10", 7, Some("fine")), row_with("11", 7, None)]),
            staged(&[row_with("12", 7, Some("ninechars"))]),
        ],
        BulkAbortKind::Conversion,
        "column STG.V: string length 9 exceeds VARCHAR(8)",
    );
}

#[test]
fn format_error_in_a_part_outranks_an_earlier_conversion_error_in_it() {
    // A part is parsed whole before its rows are coerced: a malformed
    // line anywhere in the part is the reported failure, even when an
    // earlier row of the same part would fail conversion.
    let mut part = staged(&[row_with("10", 7, Some("ninechars"))]);
    part.extend_from_slice(b"11|x\n");
    assert_abort(
        "precedence",
        vec![part],
        BulkAbortKind::BadFile,
        "malformed staged file: expected 9 fields, found 2",
    );
}

#[test]
fn conversion_error_in_an_earlier_part_outranks_a_later_bad_part() {
    assert_abort(
        "order",
        vec![
            staged(&[row_with("10", 4, Some("2020-13-01"))]),
            b"11|x\n".to_vec(),
        ],
        BulkAbortKind::Conversion,
        "column STG.DT: invalid date: month 13 out of range 1..=12",
    );
}
