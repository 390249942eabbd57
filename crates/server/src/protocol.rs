//! The wire protocol spoken between `tsql --serve` and its clients.
//!
//! The protocol is a deliberately simple, line-oriented exchange — the
//! serving layer is infrastructure for the paper's algebra, not a study
//! of wire formats — chosen so that `nc`/`socat` work as ad-hoc clients:
//!
//! * **Request**: one SQL statement per line (a trailing `;` is
//!   accepted and stripped). Blank lines are ignored; `\q` closes the
//!   connection.
//! * **Response**: exactly one of
//!   * `OK` — statement succeeded with no result (SET, CREATE TABLE, …),
//!   * `AFFECTED <n>` — statement appended/changed `n` rows (INSERT, COPY),
//!   * `ERR <message>` — failure; `<message>` is escaped onto one line,
//!   * `ROWS <ncols>` — followed by one header line of tab-separated
//!     column names, the tab-separated data lines, the end-of-rows line
//!     `\.`, and a trailer: `END <nrows>` (the count of data lines, which
//!     the client checks) or `ERR <message>` when the statement failed
//!     after rows went out (the client drops them and reports the error).
//!
//! The server writes a SELECT's rows as the executor yields them, so the
//! row count can only follow them. `\.` (PostgreSQL `COPY`'s end marker)
//! is never a data line: every `\` of a field is escaped. A statement
//! that fails before its first row answers a plain `ERR` line.
//!
//! Fields escape `\` as `\\`, tab as `\t`, newline as `\n`, and carriage
//! return as `\r`; SQL `NULL` is the bare field `\N` (as in PostgreSQL's
//! `COPY` text format). EXPLAIN output is returned as a one-row, one-column
//! (`plan`) result set with the newlines of the rendered plan escaped.

use std::io::{self, BufRead, Write};

use temporal_engine::batch::{ColumnData, ColumnVec};
use temporal_engine::prelude::{Relation, RowBatch, Schema, Value};
use temporal_sql::{ResultSink, SqlError, SqlOutput, SqlResult};

/// The line that ends a `ROWS` block's data lines.
const END_OF_ROWS: &str = "\\.";

/// Write `s` escaped for the wire (`\\`, `\t`, `\n`, `\r`) straight into
/// `w`: the runs between escapes go out as slices of `s`, so encoding a
/// result allocates nothing per field.
fn write_escaped<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        w.write_all(&bytes[start..i])?;
        w.write_all(esc)?;
        start = i + 1;
    }
    w.write_all(&bytes[start..])
}

/// Write one value as a wire field (`\N` for NULL).
fn write_value<W: Write>(w: &mut W, v: &Value) -> io::Result<()> {
    match v {
        Value::Null => w.write_all(b"\\N"),
        Value::Str(s) => write_escaped(w, s),
        // Bool, Int and Double render without a character the wire escapes.
        other => write!(w, "{other}"),
    }
}

/// The bytes an in-memory `write` produced, as the `String` they are:
/// escaping only inserts ASCII, so UTF-8 in stays UTF-8 out.
fn into_field(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("wire fields are UTF-8")
}

/// Escape one field for the wire: `\\`, `\t`, `\n`, `\r`.
pub fn escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a Vec cannot fail");
    into_field(out)
}

/// Invert [`escape`]. Unknown escapes keep the escaped character; a
/// trailing lone backslash is kept literally. The result is allocated
/// once, at `s`'s length.
pub fn unescape(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    // `run..` is the part of `s` not yet copied; escapes are ASCII, so
    // every cut falls on a character boundary.
    let (mut run, mut from) = (0, 0);
    while let Some(at) = bytes[from..].iter().position(|&b| b == b'\\') {
        let at = from + at;
        out.push_str(&s[run..at]);
        let decoded = match bytes.get(at + 1) {
            Some(b't') => Some('\t'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            // Any other escaped character is itself: it opens the next
            // run. A lone trailing backslash is the run.
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                run = at + 2;
            }
            None if at + 1 == bytes.len() => run = at,
            None => run = at + 1,
        }
        from = (at + 2).min(bytes.len());
    }
    out.push_str(&s[run..]);
    out
}

/// Serialize one value as a wire field (`\N` for NULL).
pub fn encode_value(v: &Value) -> String {
    let mut out = Vec::new();
    write_value(&mut out, v).expect("writing to a Vec cannot fail");
    into_field(out)
}

/// Decode one wire field (`\N` → `None`).
pub fn decode_field(field: &str) -> Option<String> {
    if field == "\\N" {
        None
    } else {
        Some(unescape(field))
    }
}

/// Write `fields` as one tab-separated line.
fn write_line<W: Write, T>(
    w: &mut W,
    fields: impl IntoIterator<Item = T>,
    mut field: impl FnMut(&mut W, T) -> io::Result<()>,
) -> io::Result<()> {
    for (i, f) in fields.into_iter().enumerate() {
        if i > 0 {
            w.write_all(b"\t")?;
        }
        field(w, f)?;
    }
    w.write_all(b"\n")
}

/// Write a decimal integer without going through `fmt`.
fn write_int<W: Write>(w: &mut W, x: i64) -> io::Result<()> {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut n = x.unsigned_abs();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if x < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    w.write_all(&buf[pos..])
}

/// Write row `i` of column `c` as a wire field, read from the column's
/// typed storage (no `Value` is built for a typed column).
fn write_field<W: Write>(w: &mut W, c: &ColumnVec, i: usize) -> io::Result<()> {
    if c.is_null(i) {
        return w.write_all(b"\\N");
    }
    match c.data() {
        ColumnData::Int(v) => write_int(w, v[i]),
        ColumnData::Str(v) => write_escaped(w, &v[i]),
        ColumnData::Double(v) => write!(w, "{}", v[i]),
        ColumnData::Bool(v) => w.write_all(if v[i] { b"true" } else { b"false" }),
        ColumnData::Mixed(v) => write_value(w, &v[i]),
    }
}

/// The head of a `ROWS` block: the column count and the names line.
fn write_rows_header<W: Write>(w: &mut W, schema: &Schema) -> io::Result<()> {
    writeln!(w, "ROWS {}", schema.len())?;
    write_line(w, schema.names(), |w, name| write_escaped(w, name))
}

/// The data lines of one batch, straight from its columns: each field is
/// read from its typed column, so encoding a query result builds no row.
fn write_batch<W: Write>(w: &mut W, batch: &RowBatch) -> io::Result<()> {
    for i in 0..batch.len() {
        write_line(w, batch.columns(), |w, c| write_field(w, c, i))?;
    }
    Ok(())
}

/// The end of a `ROWS` block whose `nrows` data lines all went out.
fn write_rows_end<W: Write>(w: &mut W, nrows: usize) -> io::Result<()> {
    writeln!(w, "{END_OF_ROWS}\nEND {nrows}")
}

/// The `ROWS` framing of a whole result relation.
fn write_relation<W: Write>(w: &mut W, rel: &Relation) -> io::Result<()> {
    write_rows_header(w, rel.schema())?;
    for batch in rel.batches() {
        write_batch(w, batch)?;
    }
    write_rows_end(w, rel.len())
}

/// Serialize one statement outcome. Every field goes straight into `w`
/// (the server hands in the connection's response buffer), so pass
/// something buffered: a bare socket would see one `write` per field.
pub fn write_output<W: Write>(w: &mut W, out: &SqlOutput) -> io::Result<()> {
    match out {
        SqlOutput::Ok => w.write_all(b"OK\n"),
        SqlOutput::Affected(n) => writeln!(w, "AFFECTED {n}"),
        SqlOutput::Rows(rel) => write_relation(w, rel),
        SqlOutput::Explain(plan) => {
            w.write_all(b"ROWS 1\nplan\n")?;
            write_escaped(w, plan)?;
            w.write_all(b"\n")?;
            write_rows_end(w, 1)
        }
    }
}

/// Serialize a failure.
pub fn write_error<W: Write>(w: &mut W, msg: &str) -> io::Result<()> {
    w.write_all(b"ERR ")?;
    write_escaped(w, msg)?;
    w.write_all(b"\n")
}

/// One statement's reply, written while the statement runs: the
/// [`ResultSink`] the server executes each statement into, over the
/// connection's response buffer. A SELECT's `ROWS` head goes out with
/// its first batch (or at the end, for an empty result), each batch as
/// it arrives; nothing is written before, so a statement that fails
/// before its first row answers a plain `ERR` line. [`ReplyWriter::finish`]
/// writes the trailer. A failed write stops the statement, and `finish`
/// returns that I/O error.
pub struct ReplyWriter<'a, W: Write> {
    w: &'a mut W,
    /// A SELECT's schema, until its head is written.
    pending: Option<Schema>,
    /// Data lines written, once the head is out.
    rows: Option<usize>,
    io: Option<io::Error>,
}

impl<'a, W: Write> ReplyWriter<'a, W> {
    pub fn new(w: &'a mut W) -> Self {
        ReplyWriter {
            w,
            pending: None,
            rows: None,
            io: None,
        }
    }

    /// Keep a failed write's error for [`ReplyWriter::finish`] and stop
    /// the statement.
    fn sent(&mut self, res: io::Result<()>) -> SqlResult<()> {
        res.map_err(|e| {
            let stop = SqlError::Engine(format!("sending the reply: {e}"));
            self.io = Some(e);
            stop
        })
    }

    /// Write the head of the pending `ROWS` block, if any.
    fn head(&mut self) -> io::Result<()> {
        if let Some(schema) = self.pending.take() {
            write_rows_header(self.w, &schema)?;
            self.rows = Some(0);
        }
        Ok(())
    }

    /// End the reply of a statement whose execution returned `result`:
    /// `END <nrows>` after rows, `ERR` (after `\.` once rows went out) for
    /// a failure. Returns the I/O error that stopped the statement, if
    /// one did. Nothing is flushed.
    pub fn finish(mut self, result: SqlResult<()>) -> io::Result<()> {
        if let Some(e) = self.io.take() {
            return Err(e);
        }
        match (result, self.rows) {
            (Ok(()), _) => {
                self.head()?;
                match self.rows {
                    Some(n) => write_rows_end(self.w, n),
                    None => Ok(()),
                }
            }
            (Err(e), None) => write_error(self.w, &e.to_string()),
            (Err(e), Some(_)) => {
                writeln!(self.w, "{END_OF_ROWS}")?;
                write_error(self.w, &e.to_string())
            }
        }
    }
}

impl<W: Write> ResultSink for ReplyWriter<'_, W> {
    fn schema(&mut self, schema: &Schema) -> SqlResult<()> {
        self.pending = Some(schema.clone());
        Ok(())
    }

    fn batch(&mut self, batch: RowBatch) -> SqlResult<()> {
        let res = self.head().and_then(|()| write_batch(self.w, &batch));
        if let Some(n) = &mut self.rows {
            *n += batch.len();
        }
        self.sent(res)
    }

    fn output(&mut self, out: SqlOutput) -> SqlResult<()> {
        let res = write_output(self.w, &out);
        self.sent(res)
    }
}

/// A parsed server response (the client side of [`write_output`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK`
    Ok,
    /// `AFFECTED <n>`
    Affected(u64),
    /// `ERR <message>` (unescaped)
    Error(String),
    /// `ROWS …` block; `None` cells are SQL NULLs.
    Rows {
        columns: Vec<String>,
        rows: Vec<Vec<Option<String>>>,
    },
}

impl Response {
    /// Render for an interactive client: a plain aligned table for rows,
    /// the bare status otherwise.
    pub fn render(&self) -> String {
        match self {
            Response::Ok => "OK".to_string(),
            Response::Affected(n) => format!("AFFECTED {n}"),
            Response::Error(msg) => format!("error: {msg}"),
            Response::Rows { columns, rows } => {
                let mut out = String::new();
                out.push_str(&columns.join("\t"));
                for row in rows {
                    out.push('\n');
                    let line: Vec<&str> =
                        row.iter().map(|c| c.as_deref().unwrap_or("NULL")).collect();
                    out.push_str(&line.join("\t"));
                }
                out.push_str(&format!("\n({} rows)", rows.len()));
                out
            }
        }
    }
}

/// Read the next line into `buf` (reused from line to line) and return it
/// without its line break (`\n`, and any `\r` before it), checked as
/// UTF-8 once.
fn read_line<'a, R: BufRead>(r: &mut R, buf: &'a mut Vec<u8>) -> io::Result<&'a str> {
    buf.clear();
    if r.read_until(b'\n', buf)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    let end = buf
        .iter()
        .rposition(|&b| b != b'\n' && b != b'\r')
        .map_or(0, |i| i + 1);
    std::str::from_utf8(&buf[..end]).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read one full response from the server.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let mut buf = Vec::new();
    let status = read_line(r, &mut buf)?;
    if status == "OK" {
        return Ok(Response::Ok);
    }
    if let Some(rest) = status.strip_prefix("AFFECTED ") {
        let n = rest
            .trim()
            .parse::<u64>()
            .map_err(|_| invalid(format!("bad count: {status}")))?;
        return Ok(Response::Affected(n));
    }
    if let Some(msg) = error_message(status) {
        return Ok(Response::Error(msg));
    }
    let Some(rest) = status.strip_prefix("ROWS ") else {
        return Err(invalid(format!("unexpected response line: {status}")));
    };
    let ncols = rest
        .trim()
        .parse::<usize>()
        .map_err(|_| invalid(format!("bad ROWS header: {status}")))?;
    let mut columns = Vec::with_capacity(ncols);
    decode_line(read_line(r, &mut buf)?, ncols, &mut columns, unescape);
    if columns.len() != ncols {
        return Err(invalid(format!(
            "header has {} columns, expected {ncols}",
            columns.len()
        )));
    }
    let mut rows = Vec::new();
    loop {
        let line = read_line(r, &mut buf)?;
        if line == END_OF_ROWS {
            break;
        }
        let mut row = Vec::with_capacity(ncols);
        decode_line(line, ncols, &mut row, decode_field);
        if row.len() != ncols {
            return Err(invalid(format!(
                "row has {} fields, expected {ncols}",
                row.len()
            )));
        }
        rows.push(row);
    }
    let trailer = read_line(r, &mut buf)?;
    if let Some(n) = trailer.strip_prefix("END ") {
        if n.trim().parse::<usize>().ok() != Some(rows.len()) {
            return Err(invalid(format!("{trailer} after {} rows", rows.len())));
        }
        return Ok(Response::Rows { columns, rows });
    }
    // The statement failed after its first rows went out: they are not
    // its result.
    match error_message(trailer) {
        Some(msg) => Ok(Response::Error(msg)),
        None => Err(invalid(format!("missing END trailer, got: {trailer}"))),
    }
}

/// Decode the tab-separated fields of a line of an `ncols`-column block
/// into `out` (the lines of a 0-column block are empty): one pass over
/// the bytes finds each field's end, and `decode` builds its value.
fn decode_line<T>(line: &str, ncols: usize, out: &mut Vec<T>, decode: impl Fn(&str) -> T) {
    if ncols == 0 {
        return;
    }
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b'\t' {
            out.push(decode(&line[start..i]));
            start = i + 1;
        }
    }
    out.push(decode(&line[start..]));
}

/// The unescaped message of an `ERR` line, if `line` is one.
fn error_message(line: &str) -> Option<String> {
    match line.strip_prefix("ERR ") {
        Some(msg) => Some(unescape(msg)),
        None => (line == "ERR").then(String::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_engine::prelude::*;

    #[test]
    fn escape_roundtrips() {
        for s in ["", "plain", "a\tb", "line\nbreak", "back\\slash", "\\N"] {
            assert_eq!(unescape(&escape(s)), s, "roundtrip of {s:?}");
        }
        // The escaped form of the literal string "\N" is not the NULL
        // sentinel: the backslash doubles.
        assert_eq!(escape("\\N"), "\\\\N");
        assert_eq!(decode_field("\\N"), None);
        assert_eq!(decode_field("\\\\N"), Some("\\N".to_string()));
    }

    #[test]
    fn rows_roundtrip_through_the_wire() {
        let rel = Relation::new(
            Schema::new(vec![
                Column::new("name", DataType::Str),
                Column::new("n", DataType::Int),
            ]),
            vec![
                Row::new(vec![Value::str("ann\tor\nnot"), Value::Int(-3)]),
                Row::new(vec![Value::Null, Value::Int(7)]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_output(&mut buf, &SqlOutput::Rows(rel)).unwrap();
        let resp = read_response(&mut buf.as_slice()).unwrap();
        match resp {
            Response::Rows { columns, rows } => {
                assert_eq!(columns, vec!["name", "n"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0].as_deref(), Some("ann\tor\nnot"));
                assert_eq!(rows[0][1].as_deref(), Some("-3"));
                assert_eq!(rows[1][0], None);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    /// The row-wise encoder the column-wise one replaced: every row's
    /// values, rendered through `Value`.
    fn write_relation_by_rows(w: &mut Vec<u8>, rel: &Relation) {
        writeln!(w, "ROWS {}", rel.schema().len()).unwrap();
        write_line(w, rel.schema().names(), write_escaped).unwrap();
        for row in rel.iter() {
            write_line(w, row.values(), write_value).unwrap();
        }
        writeln!(w, "\\.\nEND {}", rel.len()).unwrap();
    }

    #[test]
    fn column_encoder_is_byte_identical_to_the_row_encoder() {
        // A fixed xorshift stream: `pick(n)` is in `0..n`.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut pick = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let mut value = |kind: usize| -> Value {
            if pick(6) == 0 {
                return Value::Null;
            }
            match kind {
                0 => Value::Int([0, -1, 7, i64::MIN, i64::MAX][pick(5)]),
                1 => Value::Double([-0.0, 0.5, 1e300, f64::NAN, -3.0][pick(5)]),
                2 => Value::Bool(pick(2) == 0),
                3 => Value::str(["", "a\tb", "x\\N", "é\n"][pick(4)]),
                _ => [Value::Int(2), Value::Double(2.0), Value::str("2")][pick(3)].clone(),
            }
        };
        let schema = Schema::new(
            (0..5)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect(),
        );
        for n in [0, 1, 5, 2000] {
            let rows: Vec<Row> = (0..n).map(|_| (0..5).map(&mut value).collect()).collect();
            // As an executor hands it over (batches) and as the API builds
            // it (rows): both encode exactly as the row encoder does.
            let batches = rows
                .chunks(700)
                .map(|c| RowBatch::from_rows(schema.clone(), c))
                .collect();
            for rel in [
                Relation::from_batches(schema.clone(), batches).unwrap(),
                Relation::new(schema.clone(), rows.clone()).unwrap(),
            ] {
                let (mut want, mut got) = (Vec::new(), Vec::new());
                write_relation_by_rows(&mut want, &rel);
                write_relation(&mut got, &rel).unwrap();
                assert_eq!(
                    String::from_utf8(got).unwrap(),
                    String::from_utf8(want).unwrap()
                );
            }
        }
    }

    /// The decoder [`read_response`] replaced: a `String` per line, then
    /// `split` and `unescape` per field. Kept as the reference.
    mod reference {
        use super::super::{error_message, Response, END_OF_ROWS};
        use std::io::{self, BufRead};

        fn unescape(s: &str) -> String {
            let Some(first) = s.find('\\') else {
                return s.to_string();
            };
            let mut out = String::with_capacity(s.len());
            out.push_str(&s[..first]);
            let mut chars = s[first..].chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('t') => out.push('\t'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some(other) => out.push(other),
                    None => out.push('\\'),
                }
            }
            out
        }

        fn read_line<'a, R: BufRead>(r: &mut R, line: &'a mut String) -> io::Result<&'a str> {
            line.clear();
            if r.read_line(line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(line.trim_end_matches(['\n', '\r']))
        }

        fn fields(line: &str, ncols: usize) -> impl Iterator<Item = &str> {
            line.split('\t')
                .take(if ncols == 0 { 0 } else { usize::MAX })
        }

        pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
            let bad = || io::Error::from(io::ErrorKind::InvalidData);
            let mut buf = String::new();
            let status = read_line(r, &mut buf)?.to_string();
            if status == "OK" {
                return Ok(Response::Ok);
            }
            if let Some(rest) = status.strip_prefix("AFFECTED ") {
                return Ok(Response::Affected(rest.trim().parse().map_err(|_| bad())?));
            }
            if let Some(msg) = error_message(&status) {
                return Ok(Response::Error(msg));
            }
            let rest = status.strip_prefix("ROWS ").ok_or_else(bad)?;
            let ncols = rest.trim().parse::<usize>().map_err(|_| bad())?;
            let columns: Vec<String> = fields(read_line(r, &mut buf)?, ncols)
                .map(unescape)
                .collect();
            if columns.len() != ncols {
                return Err(bad());
            }
            let mut rows = Vec::new();
            loop {
                let line = read_line(r, &mut buf)?;
                if line == END_OF_ROWS {
                    break;
                }
                let row: Vec<Option<String>> = fields(line, ncols)
                    .map(|f| (f != "\\N").then(|| unescape(f)))
                    .collect();
                if row.len() != ncols {
                    return Err(bad());
                }
                rows.push(row);
            }
            let trailer = read_line(r, &mut buf)?;
            if let Some(n) = trailer.strip_prefix("END ") {
                if n.trim().parse::<usize>().ok() != Some(rows.len()) {
                    return Err(bad());
                }
                return Ok(Response::Rows { columns, rows });
            }
            error_message(trailer).map(Response::Error).ok_or_else(bad)
        }
    }

    #[test]
    fn the_decoder_agrees_with_the_line_per_string_decoder() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut pick = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let pieces = [
            "", "a", "\t", "\n", "\r", "\\", "\\N", "N", "é", " ", "\\t", "x\\",
        ];
        let text = |pick: &mut dyn FnMut(u64) -> usize| -> String {
            (0..pick(4))
                .map(|_| pieces[pick(pieces.len() as u64)])
                .collect()
        };
        for case in 0..300 {
            let width = pick(5);
            let names: Vec<String> = (0..width)
                .map(|i| format!("c{i}{}", text(&mut pick)))
                .collect();
            let schema = Schema::new(
                names
                    .iter()
                    .map(|n| Column::new(n.as_str(), DataType::Str))
                    .collect(),
            );
            let rows: Vec<Row> = (0..pick(6))
                .map(|_| {
                    (0..width)
                        .map(|_| match pick(5) {
                            0 => Value::Null,
                            _ => Value::str(text(&mut pick)),
                        })
                        .collect()
                })
                .collect();
            let rel = Relation::new(schema, rows).unwrap();
            let mut wire = Vec::new();
            write_output(&mut wire, &SqlOutput::Rows(rel)).unwrap();
            // A failure after the rows, and CR LF line ends, now and then.
            if pick(4) == 0 {
                let end =
                    wire.len() - wire.iter().rev().skip(1).position(|&b| b == b'\n').unwrap() - 1;
                wire.truncate(end);
                write_error(&mut wire, "failed\tlate").unwrap();
            }
            if pick(3) == 0 {
                wire = String::from_utf8(wire)
                    .unwrap()
                    .replace('\n', "\r\n")
                    .into_bytes();
            }
            let got = read_response(&mut wire.as_slice()).unwrap();
            let want = reference::read_response(&mut wire.as_slice()).unwrap();
            assert_eq!(got, want, "case {case}: {}", String::from_utf8_lossy(&wire));
        }
    }

    #[test]
    fn malformed_blocks_are_refused() {
        for wire in [
            "ROWS 2\na\tb\n1\n\\.\nEND 1\n",
            "ROWS 1\na\n1\n\\.\nEND 2\n",
            "ROWS 1\na\tb\n\\.\nEND 0\n",
            "ROWS 1\na\n1\n\\.\nnope\n",
            "ROWS 1\na\n1\n",
            "ROWS x\n",
        ] {
            let err = read_response(&mut wire.as_bytes()).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{wire:?}: {err}"
            );
            assert!(reference::read_response(&mut wire.as_bytes()).is_err());
        }
        let not_utf8: &[u8] = b"ROWS 1\na\n\xff\n\\.\nEND 1\n";
        let err = read_response(&mut &not_utf8[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn statuses_roundtrip() {
        let mut buf = Vec::new();
        write_output(&mut buf, &SqlOutput::Ok).unwrap();
        write_output(&mut buf, &SqlOutput::Affected(42)).unwrap();
        write_error(&mut buf, "boom:\nmulti line").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_response(&mut r).unwrap(), Response::Ok);
        assert_eq!(read_response(&mut r).unwrap(), Response::Affected(42));
        assert_eq!(
            read_response(&mut r).unwrap(),
            Response::Error("boom:\nmulti line".to_string())
        );
    }

    #[test]
    fn explain_is_a_one_row_result() {
        let mut buf = Vec::new();
        write_output(&mut buf, &SqlOutput::Explain("Scan r\n  Filter".into())).unwrap();
        match read_response(&mut buf.as_slice()).unwrap() {
            Response::Rows { columns, rows } => {
                assert_eq!(columns, vec!["plan"]);
                assert_eq!(rows[0][0].as_deref(), Some("Scan r\n  Filter"));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
}
