//! The DataConverter: legacy wire chunks → CDW staged text (paper §4).
//!
//! Conversion covers the discrepancies the paper lists: binary format
//! decoding (endianness, null-indicator bits, packed dates, scaled
//! decimals), null detection, empty-string handling, and escaping for the
//! staged text format. Each converted row is prefixed with its `__SEQ`
//! input row number.
//!
//! Per-record *data errors* (wrong field count, invalid UTF-8, malformed
//! values) do not fail the chunk: the offending record is skipped and
//! recorded as an acquisition error, which the job later lands in the ET
//! table — mirroring the legacy per-tuple acquisition semantics.

use etlv_cdw::staged::StagedFormat;
use etlv_protocol::data::Value;
use etlv_protocol::errcode::ErrCode;
use etlv_protocol::layout::Layout;
use etlv_protocol::message::RecordFormat;
use etlv_protocol::record::{FieldRef, RecordDecoder, RecordError};
use etlv_protocol::vartext::{VartextError, VartextFormat};

/// An error attached to one input record during acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct AcqError {
    /// 1-based input row number.
    pub seq: u64,
    /// Legacy error code.
    pub code: ErrCode,
    /// Description.
    pub message: String,
}

/// A fatal conversion failure (the chunk framing itself is broken).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertFatal {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ConvertFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conversion failed: {}", self.message)
    }
}

impl std::error::Error for ConvertFatal {}

/// Output of converting one chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertedChunk {
    /// 1-based row number of the first input record.
    pub base_seq: u64,
    /// Rows successfully converted.
    pub rows: u32,
    /// Staged bytes (delimited text, `__SEQ` first).
    pub bytes: Vec<u8>,
    /// Records skipped with data errors.
    pub errors: Vec<AcqError>,
}

/// Reusable scratch state for the zero-allocation conversion kernel.
///
/// One instance lives with each converter worker for the life of the
/// pipeline; the buffers grow to the high-water mark of the workload and
/// are then reused, so the steady-state convert loop performs no heap
/// allocation (see `tests/alloc_convert.rs`).
#[derive(Debug, Default)]
pub struct ConvertScratch {
    /// Render buffer for numeric/temporal field text and the `__SEQ`
    /// prefix.
    field: Vec<u8>,
    /// Unescape buffer loaned to the vartext streaming decoder, and hex
    /// render buffer for VARBYTE fields.
    unescape: Vec<u8>,
    /// Acquisition errors collected by the last [`DataConverter::convert_into`]
    /// call. Allocates only when a record actually fails.
    errors: Vec<AcqError>,
}

impl ConvertScratch {
    /// Fresh scratch state.
    pub fn new() -> ConvertScratch {
        ConvertScratch::default()
    }

    /// Whether the last conversion recorded acquisition errors.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Move collected acquisition errors into `dst`, keeping this
    /// scratch's capacity for reuse.
    pub fn drain_errors_into(&mut self, dst: &mut Vec<AcqError>) {
        dst.append(&mut self.errors);
    }

    /// Take collected acquisition errors as an owned vector.
    pub fn take_errors(&mut self) -> Vec<AcqError> {
        std::mem::take(&mut self.errors)
    }
}

/// `write!` into a byte buffer; infallible for `Vec<u8>`.
fn render_into(buf: &mut Vec<u8>, args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    buf.write_fmt(args).expect("write to Vec<u8> cannot fail");
}

const HEX: &[u8; 16] = b"0123456789ABCDEF";

/// Byte classes for the fused vartext scan (`stage_vartext_line`): a byte
/// with class 0 is plain ASCII content that needs neither wire unescaping,
/// staged escaping, nor UTF-8 scrutiny — whole runs of it copy with one
/// `extend_from_slice`.
const CL_WIRE_DELIM: u8 = 1;
const CL_WIRE_ESCAPE: u8 = 2;
const CL_STAGED: u8 = 4;
const CL_HIGH: u8 = 8;

/// Converts chunks of one job's wire format into the staged format.
#[derive(Debug, Clone)]
pub struct DataConverter {
    layout: Layout,
    wire: RecordFormat,
    staged: StagedFormat,
    decoder: RecordDecoder,
    vt_class: [u8; 256],
}

impl DataConverter {
    /// Converter for a job.
    pub fn new(layout: Layout, wire: RecordFormat, staging_delimiter: u8) -> DataConverter {
        let staged = StagedFormat::new(staging_delimiter);
        let mut vt_class = [0u8; 256];
        if let RecordFormat::Vartext { delimiter, .. } = wire {
            vt_class[delimiter as usize] |= CL_WIRE_DELIM;
        }
        vt_class[b'\\' as usize] |= CL_WIRE_ESCAPE;
        for b in [staged.delimiter(), staged.quote(), b'\\', b'\n', b'\r'] {
            vt_class[b as usize] |= CL_STAGED;
        }
        for c in vt_class.iter_mut().skip(0x80) {
            *c |= CL_HIGH;
        }
        DataConverter {
            decoder: RecordDecoder::new(layout.clone()),
            layout,
            wire,
            staged,
            vt_class,
        }
    }

    /// Fused vartext row scanner: splits `line` on the wire delimiter,
    /// undoes wire escapes, and appends the staged-escaped rendering of
    /// every field to `out` — one pass over the input, no intermediate
    /// buffer. Runs of class-0 bytes copy with a single
    /// `extend_from_slice`, and UTF-8 validation only runs for fields
    /// that contained a non-ASCII byte (staged escaping inserts ASCII
    /// only between scalar boundaries, so validating the escaped bytes is
    /// equivalent to validating the raw content).
    ///
    /// Each field is preceded by a staged delimiter (the `__SEQ` column is
    /// already in `out`). Semantics mirror [`VartextFormat::decode_line`]
    /// exactly, including error precedence — proven byte-for-byte by
    /// `tests/convert_differential.rs`.
    fn stage_vartext_line(
        &self,
        delimiter: u8,
        quote: u8,
        line: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<usize, VartextError> {
        let class = &self.vt_class;
        // The reference decoder checks backslash, then delimiter, then
        // quote — so a quote that collides with either never starts a
        // quoted-empty field.
        let probe_quote = quote != delimiter && quote != b'\\';
        let mut nfields = 0usize;
        let mut i = 0usize;
        loop {
            self.staged.push_delimiter(out);
            if probe_quote
                && i + 1 < line.len()
                && line[i] == quote
                && line[i + 1] == quote
                && (i + 2 == line.len() || line[i + 2] == delimiter)
            {
                self.staged.push_empty(out);
                i += 2;
            } else {
                let field_start = i;
                let check_start = out.len();
                let mut run_start = i;
                let mut saw_high = false;
                loop {
                    while i < line.len() && class[line[i] as usize] == 0 {
                        i += 1;
                    }
                    if i >= line.len() {
                        out.extend_from_slice(&line[run_start..i]);
                        break;
                    }
                    let b = line[i];
                    let c = class[b as usize];
                    if c & CL_WIRE_ESCAPE != 0 {
                        if i + 1 >= line.len() {
                            return Err(VartextError::DanglingEscape);
                        }
                        out.extend_from_slice(&line[run_start..i]);
                        let u = match line[i + 1] {
                            b'n' => b'\n',
                            b'r' => b'\r',
                            other => other,
                        };
                        if class[u as usize] & CL_STAGED != 0 {
                            out.push(b'\\');
                            out.push(match u {
                                b'\n' => b'n',
                                b'\r' => b'r',
                                other => other,
                            });
                        } else {
                            saw_high |= class[u as usize] & CL_HIGH != 0;
                            out.push(u);
                        }
                        i += 2;
                        run_start = i;
                        continue;
                    }
                    if c & CL_WIRE_DELIM != 0 {
                        out.extend_from_slice(&line[run_start..i]);
                        break;
                    }
                    if c & CL_STAGED != 0 {
                        out.extend_from_slice(&line[run_start..i]);
                        out.push(b'\\');
                        out.push(match b {
                            b'\n' => b'n',
                            b'\r' => b'r',
                            other => other,
                        });
                        i += 1;
                        run_start = i;
                        continue;
                    }
                    // Non-ASCII content byte: stays in the run, but the
                    // field needs UTF-8 validation when it closes.
                    saw_high = true;
                    i += 1;
                }
                // A zero-length field is NULL (nothing emitted at all);
                // anything else must be valid UTF-8.
                if i != field_start && saw_high && std::str::from_utf8(&out[check_start..]).is_err()
                {
                    return Err(VartextError::BadUtf8);
                }
            }
            nfields += 1;
            if i >= line.len() {
                return Ok(nfields);
            }
            i += 1; // consume the wire delimiter
        }
    }

    /// Convert one raw chunk into a fresh buffer.
    pub fn convert(&self, base_seq: u64, data: &[u8]) -> Result<ConvertedChunk, ConvertFatal> {
        let mut out = Vec::new();
        let mut scratch = ConvertScratch::new();
        let rows = self.convert_into(base_seq, data, &mut out, &mut scratch)?;
        Ok(ConvertedChunk {
            base_seq,
            rows,
            bytes: out,
            errors: scratch.take_errors(),
        })
    }

    /// Convert one raw chunk, appending staged text to `out` and reusing
    /// `scratch` across calls — the zero-allocation streaming kernel.
    ///
    /// Wire records are decoded directly from `data` (borrowed fields, no
    /// intermediate `Vec<Value>` row) and field text is rendered straight
    /// into `out`; the only heap traffic in the steady state is amortized
    /// buffer growth. Output bytes, row counts, acquisition errors and
    /// fatal errors are byte-for-byte identical to
    /// [`convert_reference`](Self::convert_reference) (proven by
    /// `tests/convert_differential.rs`).
    ///
    /// On `Err`, the contents of `out` are unspecified; callers recycle
    /// the buffer. Acquisition errors land in `scratch` (cleared on
    /// entry); drain them with [`ConvertScratch::drain_errors_into`].
    pub fn convert_into(
        &self,
        base_seq: u64,
        data: &[u8],
        out: &mut Vec<u8>,
        scratch: &mut ConvertScratch,
    ) -> Result<u32, ConvertFatal> {
        let ConvertScratch {
            field,
            unescape,
            errors,
        } = scratch;
        errors.clear();
        out.reserve(data.len() + data.len() / 8 + 64);
        let mut rows = 0u32;
        match self.wire {
            RecordFormat::Vartext { delimiter, quote } => {
                let arity = self.layout.arity();
                let mut seq = base_seq;
                for line in data.split(|&b| b == b'\n') {
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    if line.is_empty() {
                        continue;
                    }
                    let row_start = out.len();
                    field.clear();
                    render_into(field, format_args!("{}", seq as i64));
                    self.staged.push_escaped(field, out);
                    let res = self
                        .stage_vartext_line(delimiter, quote, line, out)
                        .and_then(|actual| {
                            if actual != arity {
                                Err(VartextError::FieldCount {
                                    expected: arity,
                                    actual,
                                })
                            } else {
                                Ok(())
                            }
                        });
                    match res {
                        Ok(()) => {
                            self.staged.end_row(out);
                            rows += 1;
                        }
                        Err(e) => {
                            out.truncate(row_start);
                            let code = match e {
                                VartextError::FieldCount { .. } => ErrCode::FIELD_COUNT,
                                _ => ErrCode::BAD_VALUE,
                            };
                            errors.push(AcqError {
                                seq,
                                code,
                                message: e.to_string(),
                            });
                        }
                    }
                    seq += 1;
                }
            }
            RecordFormat::Binary => {
                let mut buf: &[u8] = data;
                let mut seq = base_seq;
                while !buf.is_empty() {
                    let row_start = out.len();
                    field.clear();
                    render_into(field, format_args!("{}", seq as i64));
                    self.staged.push_escaped(field, out);
                    let res = self.decoder.decode_record_with(&mut buf, |f| {
                        self.staged.push_delimiter(out);
                        match f {
                            FieldRef::Null => {}
                            FieldRef::Str("") => self.staged.push_empty(out),
                            FieldRef::Str(s) => self.staged.push_escaped(s.as_bytes(), out),
                            FieldRef::Bytes([]) => self.staged.push_empty(out),
                            FieldRef::Bytes(b) => {
                                unescape.clear();
                                for &x in b {
                                    unescape.push(HEX[(x >> 4) as usize]);
                                    unescape.push(HEX[(x & 0x0F) as usize]);
                                }
                                self.staged.push_escaped(unescape, out);
                            }
                            FieldRef::Int(v) => {
                                field.clear();
                                render_into(field, format_args!("{v}"));
                                self.staged.push_escaped(field, out);
                            }
                            FieldRef::Float(v) => {
                                field.clear();
                                if v.fract() == 0.0 && v.abs() < 1e15 {
                                    render_into(field, format_args!("{v:.1}"));
                                } else {
                                    render_into(field, format_args!("{v}"));
                                }
                                self.staged.push_escaped(field, out);
                            }
                            FieldRef::Decimal(d) => {
                                field.clear();
                                render_into(field, format_args!("{d}"));
                                self.staged.push_escaped(field, out);
                            }
                            FieldRef::Date(d) => {
                                field.clear();
                                render_into(field, format_args!("{d}"));
                                self.staged.push_escaped(field, out);
                            }
                            FieldRef::Timestamp(ts) => {
                                field.clear();
                                render_into(field, format_args!("{ts}"));
                                self.staged.push_escaped(field, out);
                            }
                        }
                    });
                    match res {
                        Ok(()) => {
                            self.staged.end_row(out);
                            rows += 1;
                        }
                        Err(RecordError::BadValue(msg)) => {
                            // Same rationale as the reference path: BadValue
                            // can leave `buf` unadvanced mid-record, so
                            // resynchronization is unsafe — fatal.
                            out.truncate(row_start);
                            return Err(ConvertFatal {
                                message: format!("bad value in binary record {seq}: {msg}"),
                            });
                        }
                        Err(e) => {
                            out.truncate(row_start);
                            return Err(ConvertFatal {
                                message: format!(
                                    "binary chunk framing broken at record {seq}: {e}"
                                ),
                            });
                        }
                    }
                    seq += 1;
                }
            }
        }
        Ok(rows)
    }

    /// The original materializing conversion path, retained as the
    /// reference implementation for differential tests: every record is
    /// decoded into an owned `Vec<Value>` row and rendered through
    /// [`StagedFormat::write_row`]. Must stay semantically frozen so
    /// `convert_into` can be proven byte-identical against it.
    pub fn convert_reference(
        &self,
        base_seq: u64,
        data: &[u8],
    ) -> Result<ConvertedChunk, ConvertFatal> {
        let mut out = Vec::with_capacity(data.len() + data.len() / 8 + 64);
        let mut errors = Vec::new();
        let mut rows = 0u32;
        match self.wire {
            RecordFormat::Vartext { delimiter, quote } => {
                let vt = VartextFormat { delimiter, quote };
                let arity = self.layout.arity();
                let mut seq = base_seq;
                for line in data.split(|&b| b == b'\n') {
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    if line.is_empty() {
                        continue;
                    }
                    match vt.decode_line(line, Some(arity)) {
                        Ok(fields) => {
                            self.write_staged_row(seq, &fields, &mut out);
                            rows += 1;
                        }
                        Err(e) => {
                            let code = match e {
                                etlv_protocol::vartext::VartextError::FieldCount { .. } => {
                                    ErrCode::FIELD_COUNT
                                }
                                _ => ErrCode::BAD_VALUE,
                            };
                            errors.push(AcqError {
                                seq,
                                code,
                                message: e.to_string(),
                            });
                        }
                    }
                    seq += 1;
                }
            }
            RecordFormat::Binary => {
                let decoder = RecordDecoder::new(self.layout.clone());
                let mut buf: &[u8] = data;
                let mut seq = base_seq;
                while !buf.is_empty() {
                    match decoder.decode_record(&mut buf) {
                        Ok(values) => {
                            self.write_staged_row(seq, &values, &mut out);
                            rows += 1;
                        }
                        Err(etlv_protocol::record::RecordError::BadValue(msg)) => {
                            // The framing advanced past the record; the
                            // value inside was bad. Record and continue...
                            // except BadValue can also leave `buf`
                            // unadvanced mid-record, so resynchronization
                            // is unsafe: treat as fatal.
                            return Err(ConvertFatal {
                                message: format!("bad value in binary record {seq}: {msg}"),
                            });
                        }
                        Err(e) => {
                            return Err(ConvertFatal {
                                message: format!(
                                    "binary chunk framing broken at record {seq}: {e}"
                                ),
                            })
                        }
                    }
                    seq += 1;
                }
            }
        }
        Ok(ConvertedChunk {
            base_seq,
            rows,
            bytes: out,
            errors,
        })
    }

    /// Serialize one converted row: `__SEQ` plus the CDW text rendering of
    /// each field (nulls as empty fields, empty strings quoted, special
    /// characters escaped — the staged format handles all three).
    ///
    /// Deliberately frozen as the pre-kernel implementation, including an
    /// inlined copy of the original per-byte escape loop: the reference
    /// path must not share optimized primitives with the streaming kernel,
    /// both so differential tests compare independently-written code and
    /// so benchmarks measure the kernel against the true pre-change hot
    /// path.
    fn write_staged_row(&self, seq: u64, values: &[Value], out: &mut Vec<u8>) {
        let mut row: Vec<Value> = Vec::with_capacity(values.len() + 1);
        row.push(Value::Int(seq as i64));
        for v in values {
            // The staged format stores text renderings; conversion to the
            // CDW value model happens at COPY against the staging schema.
            row.push(match v {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Str(s.clone()),
                other => Value::Str(other.display_text()),
            });
        }
        let (delimiter, quote) = (self.staged.delimiter(), self.staged.quote());
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(delimiter);
            }
            match v {
                Value::Null => {}
                Value::Str(s) if s.is_empty() => {
                    out.push(quote);
                    out.push(quote);
                }
                other => {
                    for &b in other.display_text().as_bytes() {
                        if b == delimiter || b == quote || b == b'\\' || b == b'\n' || b == b'\r' {
                            out.push(b'\\');
                            if b == b'\n' {
                                out.push(b'n');
                                continue;
                            }
                            if b == b'\r' {
                                out.push(b'r');
                                continue;
                            }
                        }
                        out.push(b);
                    }
                }
            }
        }
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_protocol::data::{Date, Decimal, LegacyType as T};
    use etlv_protocol::record::RecordEncoder;

    const WIRE_VT: RecordFormat = RecordFormat::Vartext {
        delimiter: b'|',
        quote: b'"',
    };

    fn vt_layout() -> Layout {
        Layout::new("L")
            .field("A", T::VarChar(5))
            .field("B", T::VarChar(50))
            .field("C", T::VarChar(10))
    }

    #[test]
    fn vartext_conversion_prefixes_seq() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let out = conv.convert(11, b"x|y|z\na||c\n").unwrap();
        assert_eq!(out.rows, 2);
        assert!(out.errors.is_empty());
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text, "11|x|y|z\n12|a||c\n");
    }

    #[test]
    fn field_count_errors_skipped_not_fatal() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let out = conv.convert(1, b"a|b|c\nwrong|count\nd|e|f\n").unwrap();
        assert_eq!(out.rows, 2);
        assert_eq!(out.errors.len(), 1);
        assert_eq!(out.errors[0].seq, 2);
        assert_eq!(out.errors[0].code, ErrCode::FIELD_COUNT);
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text, "1|a|b|c\n3|d|e|f\n");
    }

    #[test]
    fn binary_conversion_renders_cdw_text() {
        let layout = Layout::new("L")
            .field("I", T::Integer)
            .field("D", T::Date)
            .field("DEC", T::Decimal(10, 2))
            .field("S", T::VarChar(10));
        let enc = RecordEncoder::new(layout.clone());
        let rows = vec![
            vec![
                Value::Int(42),
                Value::Date(Date::new(2012, 1, 5).unwrap()),
                Value::Decimal(Decimal::parse("3.50").unwrap()),
                Value::Str("hi|there".into()),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Str(String::new()),
            ],
        ];
        let data = enc.encode_batch(&rows).unwrap();
        let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
        let out = conv.convert(7, &data).unwrap();
        assert_eq!(out.rows, 2);
        let text = String::from_utf8(out.bytes).unwrap();
        // Dates become ISO, decimals keep scale, delimiter escaped, nulls
        // empty, empty string quoted.
        assert_eq!(text, "7|42|2012-01-05|3.50|hi\\|there\n8||||\"\"\n");
    }

    #[test]
    fn binary_framing_error_is_fatal() {
        let layout = Layout::new("L").field("I", T::Integer);
        let enc = RecordEncoder::new(layout.clone());
        let mut data = enc.encode_batch(&[vec![Value::Int(1)]]).unwrap();
        data.pop();
        let conv = DataConverter::new(layout, RecordFormat::Binary, b'|');
        assert!(conv.convert(1, &data).is_err());
    }

    #[test]
    fn staged_output_parses_back() {
        let conv = DataConverter::new(vt_layout(), WIRE_VT, b'|');
        let out = conv.convert(1, b"a|b|c\n\"\"||z\n").unwrap();
        let staged = StagedFormat::new(b'|');
        let mut cells: Vec<Option<String>> = Vec::new();
        let rows = staged
            .decode_rows(&out.bytes, 4, &mut Vec::new(), |_, f| {
                cells.push(f.map(str::to_string))
            })
            .unwrap();
        assert_eq!(rows, 2);
        assert_eq!(cells[0].as_deref(), Some("1"));
        assert_eq!(cells[4 + 1].as_deref(), Some("")); // empty string preserved
        assert_eq!(cells[4 + 2], None); // null preserved
    }
}
