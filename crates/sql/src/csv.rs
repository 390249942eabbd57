//! A small, dependency-free CSV codec for `COPY <table> FROM/TO`.
//!
//! Format: RFC-4180-style quoting (`"` wraps fields containing commas,
//! quotes or newlines; embedded quotes double). `COPY TO` writes a header
//! line with the column names; `COPY FROM` skips the first line iff it
//! matches the target schema's column names, so both exported files and
//! hand-written headerless files load. NULL is an empty **unquoted**
//! field; the empty string is the quoted `""`.

use temporal_engine::batch::{BatchBuilder, ColumnBuilder, RowBatch};
use temporal_engine::prelude::*;

use crate::error::{SqlError, SqlResult};

/// What [`split_fields`] reports, in document order.
enum Piece<'a> {
    /// A field's text, and whether it was quoted (which distinguishes
    /// NULL from the empty string).
    Field(&'a str, bool),
    /// The end of a record.
    EndOfRecord,
}

/// Split one CSV document into fields and record ends, handing each to
/// `sink`. Quoted fields may span newlines; `\r` outside quotes is
/// dropped. An unterminated quote is an error once the document is split,
/// so it wins over anything `sink` found.
fn split_fields(text: &str, mut sink: impl FnMut(Piece<'_>)) -> SqlResult<()> {
    let bytes = text.as_bytes();
    let special = |b: &u8| matches!(b, b'"' | b',' | b'\r' | b'\n');
    // The current field, reused across fields.
    let mut buf = String::new();
    let mut quoted = false;
    let mut in_record = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if buf.is_empty() && !quoted => {
                quoted = true;
                i += 1;
                // Up to the closing quote; a doubled quote is a literal one.
                loop {
                    let Some(len) = bytes[i..].iter().position(|&b| b == b'"') else {
                        return Err(SqlError::Parse("unterminated quote in CSV input".into()));
                    };
                    buf.push_str(&text[i..i + len]);
                    i += len + 1;
                    if bytes.get(i) != Some(&b'"') {
                        break;
                    }
                    buf.push('"');
                    i += 1;
                }
            }
            b',' | b'\n' => {
                sink(Piece::Field(&buf, quoted));
                buf.clear();
                quoted = false;
                in_record = bytes[i] == b',';
                if !in_record {
                    sink(Piece::EndOfRecord);
                }
                i += 1;
            }
            b'\r' => i += 1,
            _ => {
                // A run of plain text (a quote inside an unquoted field is
                // plain text too). Special bytes are ASCII, so the run ends
                // on a character boundary.
                let len = bytes[i + 1..].iter().position(special);
                let stop = len.map_or(bytes.len(), |len| i + 1 + len);
                buf.push_str(&text[i..stop]);
                i = stop;
            }
        }
    }
    if !buf.is_empty() || quoted || in_record {
        sink(Piece::Field(&buf, quoted));
        sink(Piece::EndOfRecord);
    }
    Ok(())
}

/// Parse one field into `out`, a column of `dtype`: NULL when empty and
/// unquoted, else the (trimmed, for numbers and booleans) text.
fn push_field(
    out: &mut ColumnBuilder,
    text: &str,
    quoted: bool,
    dtype: DataType,
    line: usize,
    col: &str,
) -> SqlResult<()> {
    if !quoted && text.is_empty() {
        out.push(Value::Null);
        return Ok(());
    }
    let bad = |what: &str| {
        SqlError::Parse(format!(
            "CSV line {line}, column {col}: cannot parse {text:?} as {what}"
        ))
    };
    let is = |words: [&str; 3]| words.iter().any(|w| text.trim().eq_ignore_ascii_case(w));
    match dtype {
        DataType::Int => out.push_int(text.trim().parse::<i64>().map_err(|_| bad("int"))?),
        DataType::Double => out.push(Value::Double(
            text.trim().parse::<f64>().map_err(|_| bad("double"))?,
        )),
        DataType::Bool if is(["true", "t", "1"]) => out.push(Value::Bool(true)),
        DataType::Bool if is(["false", "f", "0"]) => out.push(Value::Bool(false)),
        DataType::Bool => return Err(bad("bool")),
        DataType::Str => out.push(Value::str(text)),
    }
    Ok(())
}

/// Parse CSV text straight into one batch of typed columns, one per
/// column of `schema`. A leading header line matching the schema's column
/// names (case-insensitive) is skipped. The whole text is read before an
/// error is returned: an unterminated quote anywhere, else the first
/// error in line order (a line's field count before its values).
pub fn batch_from_csv(text: &str, schema: &Schema) -> SqlResult<RowBatch> {
    let mut loader = Loader {
        cols: schema.cols(),
        out: BatchBuilder::new(schema.len()),
        line: 1,
        fields: 0,
        value_error: None,
        error: None,
        first: Some(Vec::new()),
    };
    split_fields(text, |piece| match piece {
        Piece::Field(text, quoted) => loader.field(text, quoted),
        Piece::EndOfRecord => loader.end_line(),
    })?;
    match loader.error {
        Some(e) => Err(e),
        None => Ok(loader.out.finish(schema.clone())),
    }
}

/// The state of [`batch_from_csv`] between pieces.
struct Loader<'s> {
    cols: &'s [Column],
    out: BatchBuilder,
    /// The (1-based) record being read.
    line: usize,
    /// Fields seen on the current line.
    fields: usize,
    /// The line's first bad value: it waits for the line's end, where a
    /// wrong field count takes precedence over it.
    value_error: Option<SqlError>,
    /// The first error; once set, nothing more is parsed.
    error: Option<SqlError>,
    /// The first line's fields, held until it is known not to be a header.
    first: Option<Vec<(String, bool)>>,
}

impl Loader<'_> {
    fn field(&mut self, text: &str, quoted: bool) {
        if self.error.is_some() {
            return;
        }
        if let Some(held) = &mut self.first {
            held.push((text.to_string(), quoted));
            return;
        }
        if let (Some(col), None) = (self.cols.get(self.fields), &self.value_error) {
            let out = &mut self.out.columns_mut()[self.fields];
            self.value_error = push_field(out, text, quoted, col.dtype, self.line, &col.name).err();
        }
        self.fields += 1;
    }

    fn end_line(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Some(held) = self.first.take() {
            let header = held.len() == self.cols.len()
                && held
                    .iter()
                    .zip(self.cols)
                    .all(|((text, _), c)| text.trim().eq_ignore_ascii_case(&c.name));
            if header {
                self.line += 1;
                return;
            }
            for (text, quoted) in &held {
                self.field(text, *quoted);
            }
        }
        self.error = if self.fields != self.cols.len() {
            Some(SqlError::Parse(format!(
                "CSV line {}: expected {} fields, got {}",
                self.line,
                self.cols.len(),
                self.fields
            )))
        } else {
            self.value_error.take()
        };
        self.fields = 0;
        self.value_error = None;
        self.line += 1;
    }
}

fn format_field(v: &Value) -> String {
    match v {
        Value::Null => String::new(),
        Value::Str(s) => {
            if s.is_empty()
                || s.contains(',')
                || s.contains('"')
                || s.contains('\n')
                || s.contains('\r')
            {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => {
            // `{}` prints the shortest string that round-trips in Rust.
            format!("{d}")
        }
    }
}

/// Render a relation as CSV text with a header line.
pub fn relation_to_csv(rel: &Relation) -> String {
    let mut out = String::new();
    let header: Vec<String> = rel.schema().cols().iter().map(|c| c.name.clone()).collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rel.rows() {
        let fields: Vec<String> = row.values().iter().map(format_field).collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_from_csv(text: &str, schema: &Schema) -> SqlResult<Vec<Row>> {
        Ok(batch_from_csv(text, schema)?.to_rows())
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("n", DataType::Str),
            Column::new("x", DataType::Double),
            Column::new("ok", DataType::Bool),
            Column::new("ts", DataType::Int),
        ])
    }

    #[test]
    fn round_trip_with_quoting_and_nulls() {
        let rel = Relation::from_values(
            schema(),
            vec![
                vec![
                    Value::str("plain"),
                    Value::Double(1.5),
                    Value::Bool(true),
                    Value::Int(3),
                ],
                vec![
                    Value::str("a,b \"quoted\"\nline"),
                    Value::Null,
                    Value::Bool(false),
                    Value::Int(-1),
                ],
                vec![Value::str(""), Value::Double(0.1), Value::Null, Value::Null],
            ],
        )
        .unwrap();
        let text = relation_to_csv(&rel);
        let rows = rows_from_csv(&text, &schema()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows, rel.rows().to_vec());
    }

    #[test]
    fn headerless_input_loads() {
        let rows = rows_from_csv("joe,2.5,t,7\n", &schema()).unwrap();
        assert_eq!(rows[0][0], Value::str("joe"));
        assert_eq!(rows[0][1], Value::Double(2.5));
        assert_eq!(rows[0][2], Value::Bool(true));
        assert_eq!(rows[0][3], Value::Int(7));
    }

    #[test]
    fn arity_and_type_errors_are_reported_with_position() {
        let err = rows_from_csv("a,b\n", &schema()).unwrap_err().to_string();
        assert!(err.contains("expected 4 fields"), "{err}");
        let err = rows_from_csv("x,notanumber,t,1\n", &schema())
            .unwrap_err()
            .to_string();
        assert!(err.contains("column x") && err.contains("double"), "{err}");
        assert!(rows_from_csv("\"unterminated", &schema()).is_err());
    }

    #[test]
    fn empty_text_is_no_rows() {
        assert!(rows_from_csv("", &schema()).unwrap().is_empty());
    }

    /// The record-at-a-time parser the typed one replaced, kept as the
    /// oracle of its semantics: a `String` per field, a `Row` per record.
    mod reference {
        use super::*;

        struct Field {
            text: String,
            quoted: bool,
        }

        fn parse_records(text: &str) -> SqlResult<Vec<Vec<Field>>> {
            let mut records = Vec::new();
            let mut record: Vec<Field> = Vec::new();
            let mut field = String::new();
            let mut quoted = false;
            let mut in_quotes = false;
            let mut chars = text.chars().peekable();
            while let Some(c) = chars.next() {
                if in_quotes {
                    match c {
                        '"' if chars.peek() == Some(&'"') => {
                            chars.next();
                            field.push('"');
                        }
                        '"' => in_quotes = false,
                        c => field.push(c),
                    }
                    continue;
                }
                match c {
                    '"' if field.is_empty() && !quoted => {
                        in_quotes = true;
                        quoted = true;
                    }
                    ',' | '\n' => {
                        record.push(Field {
                            text: std::mem::take(&mut field),
                            quoted: std::mem::take(&mut quoted),
                        });
                        if c == '\n' {
                            records.push(std::mem::take(&mut record));
                        }
                    }
                    '\r' => {}
                    c => field.push(c),
                }
            }
            if in_quotes {
                return Err(SqlError::Parse("unterminated quote in CSV input".into()));
            }
            if !field.is_empty() || quoted || !record.is_empty() {
                record.push(Field {
                    text: field,
                    quoted,
                });
                records.push(record);
            }
            Ok(records)
        }

        fn parse_value(f: &Field, dtype: DataType, line: usize, col: &str) -> SqlResult<Value> {
            if !f.quoted && f.text.is_empty() {
                return Ok(Value::Null);
            }
            let bad = |what: &str| {
                SqlError::Parse(format!(
                    "CSV line {line}, column {col}: cannot parse {:?} as {what}",
                    f.text
                ))
            };
            Ok(match dtype {
                DataType::Int => Value::Int(f.text.trim().parse::<i64>().map_err(|_| bad("int"))?),
                DataType::Double => {
                    Value::Double(f.text.trim().parse::<f64>().map_err(|_| bad("double"))?)
                }
                DataType::Bool => match f.text.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Value::Bool(true),
                    "false" | "f" | "0" => Value::Bool(false),
                    _ => return Err(bad("bool")),
                },
                DataType::Str => Value::str(&f.text),
            })
        }

        pub fn rows_from_csv(text: &str, schema: &Schema) -> SqlResult<Vec<Row>> {
            let records = parse_records(text)?;
            let names: Vec<String> = schema
                .cols()
                .iter()
                .map(|c| c.name.to_ascii_lowercase())
                .collect();
            let header = records.first().is_some_and(|first| {
                let first: Vec<String> = first
                    .iter()
                    .map(|f| f.text.trim().to_ascii_lowercase())
                    .collect();
                first == names
            });
            let mut rows = Vec::new();
            for (i, record) in records.iter().enumerate().skip(usize::from(header)) {
                if record.len() != schema.len() {
                    return Err(SqlError::Parse(format!(
                        "CSV line {}: expected {} fields, got {}",
                        i + 1,
                        schema.len(),
                        record.len()
                    )));
                }
                let values = record
                    .iter()
                    .zip(schema.cols())
                    .map(|(f, c)| parse_value(f, c.dtype, i + 1, &c.name))
                    .collect::<SqlResult<Vec<Value>>>()?;
                rows.push(Row::new(values));
            }
            Ok(rows)
        }
    }

    /// Both parsers' answer as one comparable string: the rows (NaN-safe
    /// through `Debug`) or the error text.
    fn outcome(parse: fn(&str, &Schema) -> SqlResult<Vec<Row>>, text: &str) -> String {
        match parse(text, &schema()) {
            Ok(rows) => format!("{rows:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn the_typed_parser_agrees_with_the_record_parser() {
        let crafted = [
            "n,x,ok,ts\nann,1.5,t,3\n",
            "N , X,OK, ts\r\nann,1.5,t,3",
            "n,x,ok\nann,1.5,t,3\n",
            "ann,1.5,t,3\n\njoe,2,f,4\n",
            "\"a,b\"\"c\"\"\",,, 7 \n\"\",\" 2.5\",\"TRUE\",\"-1\"\n",
            "ab\"c\"d,1,1,1\n\"q\"tail,1,0,2\n",
            "\"multi\nline\r\nfield\",1,F,1\r\n",
            "x,1,t,notanint\ny,1,t,oops,extra\n",
            "x,1,t\ny,bad,t,1\n",
            "x,1,t,1\n\"open,1,t,1\n",
            "x,nope,t,1\n\"open",
            "ünï,1e3,0,9223372036854775807\nω,-0.0,1,-9223372036854775808\n",
            "x,1,t,9223372036854775808\n",
            "x,1,yes,1\n",
            ",,,\n,,,",
            "\r\n",
            ",",
            "\"\"",
        ];
        for text in crafted {
            assert_eq!(
                outcome(rows_from_csv, text),
                outcome(reference::rows_from_csv, text),
                "{text:?}"
            );
        }
        // Random documents over the bytes the grammar cares about.
        let pieces = [
            "a", "ü", "1", "-2", " 3 ", "1.5", "t", "F", ",", ",", "\n", "\r\n", "\"", "\"\"", "n",
            "x", "ok", "ts", "",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..3_000 {
            let mut text = String::new();
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let len = (state >> 59) as usize * 3;
            for _ in 0..len {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                text.push_str(pieces[(state >> 33) as usize % pieces.len()]);
            }
            assert_eq!(
                outcome(rows_from_csv, &text),
                outcome(reference::rows_from_csv, &text),
                "{text:?}"
            );
        }
    }
}
