//! Columnar batch evaluation for the bulk apply path.
//!
//! Compiles a scalar expression once against a row layout, then evaluates
//! it over a whole candidate set column-at-a-time: per-row expression-tree
//! walking and column re-resolution disappear from the merge hot loop.
//! Candidates come from a [`RowSource`]: owned rows, or a stored table
//! read through a selection vector of row ids, where a [`BatchNode::Col`]
//! reads the stored column in place at each selected row.
//! Semantics are exactly the scalar evaluator's — Binary/Unary nodes call
//! [`crate::eval::apply_binary`]/[`apply_unary`] (legal because AND/OR
//! evaluate both sides eagerly under Kleene tables), and any construct
//! without a vectorized form runs through a [`Shim`] that re-enters
//! `eval` per row with pre-resolved columns. Any evaluation error makes
//! the caller fall back to the row-major path, which reproduces
//! first-error ordering exactly (evaluation is pure, so re-running it is
//! free of side effects).
//!
//! [`Shim`]: BatchNode::Shim
//! [`apply_unary`]: crate::eval::apply_unary

use etlv_protocol::data::{DateFormat, Value};
use etlv_sql::ast::{BinaryOp, Expr, Literal, ObjectName, UnaryOp};
use etlv_sql::SqlType;

use crate::column::ColumnData;
use crate::error::CdwError;
use crate::eval::{apply_binary, apply_unary, conv_err, eval, literal_value, Env};

/// Rows a batch expression evaluates over.
pub trait RowSource {
    /// Number of rows.
    fn len(&self) -> usize;
    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Cell of row `row` at position `col`, as an owned value.
    fn cell(&self, row: usize, col: usize) -> Value;
    /// When position `col` is a stored table column: that column and the
    /// row ids this source selects from it, in row order.
    fn stored(&self, _col: usize) -> Option<(&ColumnData, &[usize])> {
        None
    }
}

/// One evaluated batch column: computed values, or a stored column read
/// in place through its source's selection vector.
pub enum Vector<'a> {
    /// Values computed per row.
    Values(Vec<Value>),
    /// A stored column and the selected row ids.
    Stored {
        /// The column.
        data: &'a ColumnData,
        /// Selected row ids, in row order.
        sel: &'a [usize],
    },
}

impl Vector<'_> {
    /// Row `i` as an owned value.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Vector::Values(v) => v[i].clone(),
            Vector::Stored { data, sel } => data.get(sel[i]),
        }
    }

    /// Every row as an owned value.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            Vector::Values(v) => v,
            Vector::Stored { data, sel } => sel.iter().map(|&r| data.get(r)).collect(),
        }
    }
}

/// Evaluate a compiled node over `rows`. A bare column of a stored source
/// comes back as a borrowed view of that column — no value is built —
/// and anything else as computed values. Errors as [`eval_column`].
pub fn eval_vector<'a, S: RowSource + ?Sized>(
    node: &BatchNode,
    rows: &'a S,
) -> Result<Vector<'a>, CdwError> {
    if let BatchNode::Col(i) = node {
        if let Some((data, sel)) = rows.stored(*i) {
            return Ok(Vector::Stored { data, sel });
        }
    }
    eval_column(node, rows).map(Vector::Values)
}

impl RowSource for [Vec<Value>] {
    fn len(&self) -> usize {
        <[Vec<Value>]>::len(self)
    }
    fn cell(&self, row: usize, col: usize) -> Value {
        self[row][col].clone()
    }
}

/// A compiled batch expression.
#[derive(Debug, Clone)]
pub enum BatchNode {
    /// Read position `i` of each row.
    Col(usize),
    /// A constant.
    Const(Value),
    /// Vectorized binary operator over two child columns.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left child.
        left: Box<BatchNode>,
        /// Right child.
        right: Box<BatchNode>,
    },
    /// Vectorized unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Child.
        inner: Box<BatchNode>,
    },
    /// `TO_DATE(arg, 'format')` or `CAST(arg AS DATE FORMAT 'format')`:
    /// text parsed to a DATE with the format compiled once.
    ParseDate {
        /// The date text.
        arg: Box<BatchNode>,
        /// The compiled format.
        format: DateFormat,
    },
    /// Fallback node: per-row scalar evaluation of `expr` with column
    /// references pre-resolved to row positions.
    Shim {
        /// The original expression.
        expr: Expr,
        /// `(reference, row position)` for every column in `expr`.
        cols: Vec<(ObjectName, usize)>,
    },
}

/// Compile `expr` for batch evaluation. `resolve` maps a column reference
/// to its row position and must return `None` for anything it cannot
/// resolve unambiguously — compilation then fails and the caller keeps
/// the row-major path (which raises the proper resolution error).
pub fn compile(
    expr: &Expr,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> Option<BatchNode> {
    match expr {
        Expr::Literal(lit) => Some(BatchNode::Const(literal_value(lit))),
        Expr::Column(name) => resolve(name).map(BatchNode::Col),
        Expr::Binary { left, op, right } => Some(BatchNode::Binary {
            op: *op,
            left: Box::new(compile(left, resolve)?),
            right: Box::new(compile(right, resolve)?),
        }),
        Expr::Unary { op, expr } => Some(BatchNode::Unary {
            op: *op,
            inner: Box::new(compile(expr, resolve)?),
        }),
        Expr::Placeholder(_) | Expr::Wildcard => None,
        Expr::Function { name, args, .. } if name == "TO_DATE" && args.len() == 2 => {
            match &args[1] {
                Expr::Literal(Literal::Str(f)) => parse_date(expr, &args[0], f, resolve),
                _ => shim(expr, resolve),
            }
        }
        Expr::Cast {
            expr: arg,
            ty: SqlType::Date,
            format: Some(f),
        } => parse_date(expr, arg, f, resolve),
        other => shim(other, resolve),
    }
}

/// Compile `expr`, a date parse of `arg` with literal format `format`, as
/// a [`BatchNode::ParseDate`]. A format that does not compile keeps the
/// scalar path (and its per-row errors).
fn parse_date(
    expr: &Expr,
    arg: &Expr,
    format: &str,
    resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>,
) -> Option<BatchNode> {
    match DateFormat::parse_pattern(format) {
        Ok(format) => Some(BatchNode::ParseDate {
            arg: Box::new(compile(arg, resolve)?),
            format,
        }),
        Err(_) => shim(expr, resolve),
    }
}

/// Compile `expr` as a [`BatchNode::Shim`]: anything without a
/// vectorized form (CASE, CAST, functions, BETWEEN, IN, LIKE, IS NULL,
/// ...) keeps scalar evaluation, but with column resolution done once
/// here instead of once per row.
fn shim(expr: &Expr, resolve: &mut dyn FnMut(&ObjectName) -> Option<usize>) -> Option<BatchNode> {
    let mut cols = Vec::new();
    let mut ok = true;
    expr.walk(&mut |n| match n {
        Expr::Column(name) if !cols.iter().any(|(c, _)| c == name) => match resolve(name) {
            Some(i) => cols.push((name.clone(), i)),
            None => ok = false,
        },
        Expr::Placeholder(_) | Expr::Wildcard => ok = false,
        _ => {}
    });
    ok.then(|| BatchNode::Shim {
        expr: expr.clone(),
        cols,
    })
}

struct ShimEnv<'a, S: ?Sized> {
    cols: &'a [(ObjectName, usize)],
    rows: &'a S,
    row: usize,
}

impl<S: RowSource + ?Sized> Env for ShimEnv<'_, S> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, CdwError> {
        match self.cols.iter().find(|(c, _)| c == name) {
            Some((_, i)) => Ok(self.rows.cell(self.row, *i)),
            None => Err(CdwError::Unsupported(format!(
                "internal: unresolved batch column {name:?}"
            ))),
        }
    }
}

/// Evaluate a compiled node over `rows`, producing one output value per
/// row. On the first evaluation error, returns it — callers fall back to
/// row-major evaluation for exact error ordering.
pub fn eval_column<S: RowSource + ?Sized>(
    node: &BatchNode,
    rows: &S,
) -> Result<Vec<Value>, CdwError> {
    match node {
        BatchNode::Col(i) => Ok((0..rows.len()).map(|r| rows.cell(r, *i)).collect()),
        BatchNode::Const(v) => Ok(vec![v.clone(); rows.len()]),
        BatchNode::Binary { op, left, right } => {
            let l = eval_column(left, rows)?;
            let r = eval_column(right, rows)?;
            l.into_iter()
                .zip(r)
                .map(|(a, b)| apply_binary(a, *op, b))
                .collect()
        }
        BatchNode::Unary { op, inner } => eval_column(inner, rows)?
            .into_iter()
            .map(|v| apply_unary(*op, v))
            .collect(),
        BatchNode::ParseDate { arg, format } => {
            // Same steps as the scalar TO_DATE and FORMAT cast: NULL stays
            // NULL, anything else parses from its text rendering.
            let parse = |text: &str| {
                format
                    .parse(text)
                    .map(Value::Date)
                    .map_err(|e| conv_err(e.to_string()))
            };
            match eval_vector(arg, rows)? {
                Vector::Stored { data, sel } => sel
                    .iter()
                    .map(|&r| match data.str_at(r) {
                        Some(s) => parse(s),
                        None if data.is_null(r) => Ok(Value::Null),
                        None => parse(&data.get(r).display_text()),
                    })
                    .collect(),
                Vector::Values(vals) => vals
                    .into_iter()
                    .map(|v| match v {
                        Value::Null => Ok(Value::Null),
                        Value::Str(s) => parse(&s),
                        other => parse(&other.display_text()),
                    })
                    .collect(),
            }
        }
        BatchNode::Shim { expr, cols } => (0..rows.len())
            .map(|row| eval(expr, &ShimEnv { cols, rows, row }))
            .collect(),
    }
}

/// Evaluate several compiled projection nodes over `rows` and transpose
/// the resulting columns back into rows.
pub fn eval_rows<S: RowSource + ?Sized>(
    nodes: &[BatchNode],
    rows: &S,
) -> Result<Vec<Vec<Value>>, CdwError> {
    let mut columns = Vec::with_capacity(nodes.len());
    for n in nodes {
        columns.push(eval_column(n, rows)?);
    }
    let mut out: Vec<Vec<Value>> = (0..rows.len())
        .map(|_| Vec::with_capacity(nodes.len()))
        .collect();
    for col in columns {
        for (r, v) in col.into_iter().enumerate() {
            out[r].push(v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str) -> Expr {
        Expr::col(name)
    }

    fn lit(i: i64) -> Expr {
        Expr::int(i)
    }

    fn resolver(names: &[&str]) -> impl FnMut(&ObjectName) -> Option<usize> {
        let names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        move |n: &ObjectName| {
            let last = n.0.last()?;
            names.iter().position(|c| c == last)
        }
    }

    #[test]
    fn vectorized_matches_scalar_on_arith_and_logic() {
        // (A + 1 > B) AND (B <> 5)
        let expr = Expr::binary(
            Expr::binary(
                Expr::binary(col("A"), BinaryOp::Add, lit(1)),
                BinaryOp::Gt,
                col("B"),
            ),
            BinaryOp::And,
            Expr::binary(col("B"), BinaryOp::NotEq, lit(5)),
        );
        let mut resolve = resolver(&["A", "B"]);
        let node = compile(&expr, &mut resolve).expect("compiles");
        let rows = vec![
            vec![Value::Int(1), Value::Int(1)], // 2>1 && 1<>5 -> true
            vec![Value::Int(1), Value::Int(5)], // 2>5 -> false
            vec![Value::Null, Value::Int(1)],   // NULL AND true -> NULL
        ];
        let out = eval_column(&node, rows.as_slice()).unwrap();
        assert_eq!(out, vec![Value::Int(1), Value::Int(0), Value::Null]);
    }

    #[test]
    fn shim_handles_functions_with_preresolved_columns() {
        // UPPER(S) — no vectorized form, runs through the shim.
        let expr = Expr::Function {
            name: "UPPER".into(),
            args: vec![col("S")],
            distinct: false,
        };
        let mut resolve = resolver(&["S"]);
        let node = compile(&expr, &mut resolve).expect("compiles via shim");
        assert!(matches!(node, BatchNode::Shim { .. }));
        let rows = vec![vec![Value::Str("ab".into())], vec![Value::Str("Cd".into())]];
        let out = eval_column(&node, rows.as_slice()).unwrap();
        assert_eq!(out, vec![Value::Str("AB".into()), Value::Str("CD".into())]);
    }

    #[test]
    fn date_parses_match_scalar_to_date_and_format_cast() {
        let to_date = Expr::Function {
            name: "TO_DATE".into(),
            args: vec![col("S"), Expr::str("YYYY-MM-DD")],
            distinct: false,
        };
        let cast = Expr::Cast {
            expr: Box::new(col("S")),
            ty: SqlType::Date,
            format: Some("DD/MM/YYYY".into()),
        };
        let rows = vec![
            vec![Value::Str("2020-02-29".into())],
            vec![Value::Null],
            vec![Value::Str("29/02/2020".into())],
        ];
        for expr in [to_date, cast] {
            let mut resolve = resolver(&["S"]);
            let node = compile(&expr, &mut resolve).unwrap();
            assert!(matches!(node, BatchNode::ParseDate { .. }));
            // Per row, the batch value or error equals the scalar one.
            for row in &rows {
                let one = std::slice::from_ref(row);
                let batch = eval_column(&node, one).map(|mut v| v.remove(0));
                let env = ShimEnv {
                    cols: &[(ObjectName::simple("S"), 0)],
                    rows: one,
                    row: 0,
                };
                assert_eq!(batch, eval(&expr, &env), "{expr:?} on {row:?}");
            }
        }
        // A format that does not compile keeps the scalar path.
        let bad = Expr::Cast {
            expr: Box::new(col("S")),
            ty: SqlType::Date,
            format: Some("QQ".into()),
        };
        let node = compile(&bad, &mut resolver(&["S"])).unwrap();
        assert!(matches!(node, BatchNode::Shim { .. }));
    }

    #[test]
    fn unresolvable_column_fails_compilation() {
        let expr = Expr::Binary {
            left: Box::new(col("NOPE")),
            op: BinaryOp::Eq,
            right: Box::new(lit(1)),
        };
        let mut resolve = resolver(&["A"]);
        assert!(compile(&expr, &mut resolve).is_none());
    }

    #[test]
    fn errors_surface_for_row_major_fallback() {
        // 'x' + 1 errors in scalar eval; batch must surface it too.
        let expr = Expr::binary(Expr::str("x"), BinaryOp::Add, lit(1));
        let mut resolve = resolver(&[]);
        let node = compile(&expr, &mut resolve).unwrap();
        let rows = vec![vec![]];
        assert!(eval_column(&node, rows.as_slice()).is_err());
    }

    #[test]
    fn eval_rows_transposes_projection_columns() {
        let mut resolve = resolver(&["A", "B"]);
        let nodes = vec![
            compile(&col("B"), &mut resolve).unwrap(),
            compile(&col("A"), &mut resolve).unwrap(),
        ];
        let rows = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
        ];
        let out = eval_rows(&nodes, rows.as_slice()).unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(4), Value::Int(3)],
            ]
        );
    }
}
