//! Binary (de)serialisation for the storage model.
//!
//! The durability subsystem (`sedex-durable`) persists schemas, relations,
//! tuples and values into write-ahead-log records and snapshot files. This
//! module is the shared wire format: a tiny little-endian, length-prefixed
//! encoding with no self-description — framing, versioning and checksums are
//! the caller's job (the WAL wraps every payload in a CRC32 frame).
//!
//! Encoding invariants:
//!
//! * all integers are little-endian,
//! * strings and byte blobs are `u32` length + bytes (UTF-8 for strings),
//! * sequences are `u32` count + elements,
//! * floats are encoded by bit pattern (`f64::to_bits`), so values round-trip
//!   bit-for-bit — including the byte-identical `SQL` rendering the service's
//!   recovery test relies on.

use std::fmt;

use crate::instance::Instance;
use crate::schema::{Column, ForeignKey, RelationSchema, Schema};
use crate::tuple::Tuple;
use crate::types::DataType;
use crate::value::{OrderedF64, Value};

/// Decoding failure: truncated input, a bad tag, or an invalid structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to decode.
    pub message: String,
}

impl CodecError {
    /// Build an error from anything displayable.
    pub fn new(message: impl Into<String>) -> Self {
        CodecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decode operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` (little-endian).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte blob.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over an encoded byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::new(format!(
                "truncated input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32` (little-endian).
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64` (little-endian).
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `i64` (little-endian).
    pub fn get_i64(&mut self) -> CodecResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> CodecResult<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Read a length-prefixed UTF-8 string in place: the bytes are
    /// validated, not copied, so a caller building its own owned form
    /// (a decoded text value's `Arc<str>`) allocates once.
    pub fn get_str_ref(&mut self) -> CodecResult<&'a str> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| CodecError::new("invalid UTF-8 in string"))
    }

    /// Error unless every input byte was consumed — catches frames that are
    /// longer than their payload (a symptom of corruption the CRC missed).
    pub fn expect_end(&self) -> CodecResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::new(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

// --- value / tuple -------------------------------------------------------

const VAL_NULL: u8 = 0;
const VAL_LABELED: u8 = 1;
const VAL_BOOL: u8 = 2;
const VAL_INT: u8 = 3;
const VAL_REAL: u8 = 4;
const VAL_TEXT: u8 = 5;

/// Encode one [`Value`].
pub fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(VAL_NULL),
        Value::Labeled(l) => {
            w.put_u8(VAL_LABELED);
            w.put_u64(*l);
        }
        Value::Bool(b) => {
            w.put_u8(VAL_BOOL);
            w.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            w.put_u8(VAL_INT);
            w.put_i64(*i);
        }
        Value::Real(f) => {
            w.put_u8(VAL_REAL);
            w.put_f64(f.0);
        }
        Value::Text(s) => {
            w.put_u8(VAL_TEXT);
            w.put_str(s);
        }
    }
}

/// Decode one [`Value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> CodecResult<Value> {
    match r.get_u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_LABELED => Ok(Value::Labeled(r.get_u64()?)),
        VAL_BOOL => Ok(Value::Bool(r.get_u8()? != 0)),
        VAL_INT => Ok(Value::Int(r.get_i64()?)),
        VAL_REAL => Ok(Value::Real(OrderedF64(r.get_f64()?))),
        VAL_TEXT => Ok(Value::Text(r.get_str_ref()?.into())),
        t => Err(CodecError::new(format!("unknown value tag {t}"))),
    }
}

/// Encode one [`Tuple`] (arity + values).
pub fn encode_tuple(w: &mut ByteWriter, t: &Tuple) {
    w.put_u32(t.values().len() as u32);
    for v in t.values() {
        encode_value(w, v);
    }
}

/// Decode one [`Tuple`].
pub fn decode_tuple(r: &mut ByteReader<'_>) -> CodecResult<Tuple> {
    let n = r.get_u32()? as usize;
    let mut vals = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        vals.push(decode_value(r)?);
    }
    Ok(Tuple::new(vals))
}

/// Encode a batch of `(relation, tuple)` rows — the payload of the service's
/// binary `PUSH_BATCH` frame.
pub fn encode_rows(w: &mut ByteWriter, rows: &[(String, Tuple)]) {
    w.put_u32(rows.len() as u32);
    for (relation, tuple) in rows {
        w.put_str(relation);
        encode_tuple(w, tuple);
    }
}

/// Decode a batch of `(relation, tuple)` rows, rejecting batches larger
/// than `max_rows` before any per-row allocation happens.
pub fn decode_rows(r: &mut ByteReader<'_>, max_rows: usize) -> CodecResult<Vec<(String, Tuple)>> {
    let n = r.get_u32()? as usize;
    if n > max_rows {
        return Err(CodecError::new(format!(
            "batch of {n} rows exceeds cap of {max_rows}"
        )));
    }
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let relation = r.get_str()?;
        let tuple = decode_tuple(r)?;
        rows.push((relation, tuple));
    }
    Ok(rows)
}

// --- schema --------------------------------------------------------------

fn dtype_tag(d: DataType) -> u8 {
    match d {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Text => 3,
        DataType::Any => 4,
    }
}

fn dtype_from_tag(t: u8) -> CodecResult<DataType> {
    Ok(match t {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Text,
        4 => DataType::Any,
        _ => return Err(CodecError::new(format!("unknown dtype tag {t}"))),
    })
}

fn encode_indexes(w: &mut ByteWriter, idxs: &[usize]) {
    w.put_u32(idxs.len() as u32);
    for &i in idxs {
        w.put_u32(i as u32);
    }
}

fn decode_indexes(r: &mut ByteReader<'_>) -> CodecResult<Vec<usize>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.get_u32()? as usize);
    }
    Ok(out)
}

/// Encode one [`RelationSchema`].
pub fn encode_relation_schema(w: &mut ByteWriter, rel: &RelationSchema) {
    w.put_str(&rel.name);
    w.put_u32(rel.columns.len() as u32);
    for c in &rel.columns {
        w.put_str(&c.name);
        w.put_u8(dtype_tag(c.dtype));
        w.put_u8(u8::from(c.nullable));
    }
    encode_indexes(w, &rel.primary_key);
    w.put_u32(rel.unique.len() as u32);
    for u in &rel.unique {
        encode_indexes(w, u);
    }
    w.put_u32(rel.foreign_keys.len() as u32);
    for fk in &rel.foreign_keys {
        encode_indexes(w, &fk.columns);
        w.put_str(&fk.ref_relation);
        encode_indexes(w, &fk.ref_columns);
    }
}

/// Decode one [`RelationSchema`].
pub fn decode_relation_schema(r: &mut ByteReader<'_>) -> CodecResult<RelationSchema> {
    let name = r.get_str()?;
    let ncols = r.get_u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(4096));
    for _ in 0..ncols {
        let cname = r.get_str()?;
        let dtype = dtype_from_tag(r.get_u8()?)?;
        let nullable = r.get_u8()? != 0;
        let mut col = Column::new(cname, dtype);
        col.nullable = nullable;
        columns.push(col);
    }
    let mut rel = RelationSchema::new(name, columns);
    rel.primary_key = decode_indexes(r)?;
    let nuniq = r.get_u32()? as usize;
    for _ in 0..nuniq {
        rel.unique.push(decode_indexes(r)?);
    }
    let nfks = r.get_u32()? as usize;
    for _ in 0..nfks {
        let columns = decode_indexes(r)?;
        let ref_relation = r.get_str()?;
        let ref_columns = decode_indexes(r)?;
        rel.foreign_keys.push(ForeignKey {
            columns,
            ref_relation,
            ref_columns,
        });
    }
    Ok(rel)
}

/// Encode a whole [`Schema`] (relations in catalog order).
pub fn encode_schema(w: &mut ByteWriter, schema: &Schema) {
    w.put_u32(schema.relations().len() as u32);
    for rel in schema.relations() {
        encode_relation_schema(w, rel);
    }
}

/// Decode a [`Schema`], re-validating foreign keys.
pub fn decode_schema(r: &mut ByteReader<'_>) -> CodecResult<Schema> {
    let n = r.get_u32()? as usize;
    let mut rels = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rels.push(decode_relation_schema(r)?);
    }
    Schema::from_relations(rels).map_err(|e| CodecError::new(format!("invalid schema: {e}")))
}

// --- instance ------------------------------------------------------------

/// Encode an [`Instance`]: its schema followed by every relation's rows in
/// catalog order.
pub fn encode_instance(w: &mut ByteWriter, inst: &Instance) {
    encode_schema(w, inst.schema());
    for (_, rel) in inst.relations() {
        w.put_u32(rel.len() as u32);
        for t in rel.iter() {
            encode_tuple(w, t);
        }
    }
}

/// Decode an [`Instance`]. Rows are installed without re-running constraint
/// checks — they were checked when first inserted; the decoder's job is a
/// faithful restore, including rows only reachable through egd merges.
pub fn decode_instance(r: &mut ByteReader<'_>) -> CodecResult<Instance> {
    let schema = decode_schema(r)?;
    let names: Vec<String> = schema.relation_names().map(str::to_owned).collect();
    let mut inst = Instance::new(schema);
    for name in names {
        let nrows = r.get_u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(65536));
        for _ in 0..nrows {
            rows.push(decode_tuple(r)?);
        }
        inst.relation_mut(&name)
            .map_err(|e| CodecError::new(format!("restore {name}: {e}")))?
            .set_rows(rows);
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ConflictPolicy;

    fn roundtrip_value(v: Value) {
        let mut w = ByteWriter::new();
        encode_value(&mut w, &v);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_value(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Labeled(42));
        roundtrip_value(Value::bool(true));
        roundtrip_value(Value::int(-7));
        roundtrip_value(Value::real(2.5));
        roundtrip_value(Value::real(-0.0));
        roundtrip_value(Value::text("héllo"));
        roundtrip_value(Value::text(""));
    }

    #[test]
    fn text_value_with_invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u8(VAL_TEXT);
        w.put_bytes(&[b'a', 0xff, b'b']);
        let bytes = w.into_bytes();
        let err = decode_value(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn tuples_roundtrip() {
        let t = Tuple::new(vec![
            Value::text("a"),
            Value::Null,
            Value::Labeled(3),
            Value::int(9),
        ]);
        let mut w = ByteWriter::new();
        encode_tuple(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_tuple(&mut r).unwrap(), t);
    }

    fn sample_schema() -> Schema {
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let student = RelationSchema::with_any_columns("Student", &["sname", "program", "dep"])
            .primary_key(&["sname"])
            .unwrap()
            .unique_on(&["program", "dep"])
            .unwrap()
            .foreign_key(&["dep"], "Dep")
            .unwrap();
        Schema::from_relations(vec![dep, student]).unwrap()
    }

    #[test]
    fn schema_roundtrips_with_keys_and_fks() {
        let s = sample_schema();
        let mut w = ByteWriter::new();
        encode_schema(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_schema(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn instance_roundtrips_rows_in_order() {
        let mut inst = Instance::new(sample_schema());
        inst.insert("Dep", crate::tuple!["d1", "b1"], ConflictPolicy::Reject)
            .unwrap();
        inst.insert(
            "Student",
            Tuple::new(vec![Value::text("s1"), Value::Null, Value::text("d1")]),
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst.insert(
            "Student",
            Tuple::new(vec![
                Value::text("s2"),
                Value::Labeled(7),
                Value::text("d1"),
            ]),
            ConflictPolicy::Reject,
        )
        .unwrap();
        let mut w = ByteWriter::new();
        encode_instance(&mut w, &inst);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_instance(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.schema(), inst.schema());
        for (name, rel) in inst.relations() {
            assert_eq!(back.relation(name).unwrap().rows(), rel.rows(), "{name}");
        }
        assert_eq!(back.stats(), inst.stats());
    }

    #[test]
    fn row_batches_roundtrip_and_cap_is_enforced() {
        let rows: Vec<(String, Tuple)> = (0..10)
            .map(|i| {
                (
                    format!("Rel{}", i % 3),
                    Tuple::new(vec![Value::int(i), Value::text("x"), Value::Null]),
                )
            })
            .collect();
        let mut w = ByteWriter::new();
        encode_rows(&mut w, &rows);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_rows(&mut r, 10).unwrap(), rows);
        r.expect_end().unwrap();

        // One over the cap fails before decoding any row.
        let mut r = ByteReader::new(&bytes);
        let err = decode_rows(&mut r, 9).unwrap_err();
        assert!(err.message.contains("exceeds cap"), "{err}");

        // An absurd declared count against a truncated body errors cleanly.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(decode_rows(&mut r, 1 << 16).is_err());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        encode_value(&mut w, &Value::text("a long enough string"));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_value(&mut r).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tags_error() {
        let mut r = ByteReader::new(&[99]);
        assert!(decode_value(&mut r).is_err());
        let mut r = ByteReader::new(&[7]);
        assert!(dtype_from_tag(r.get_u8().unwrap()).is_err());
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut w = ByteWriter::new();
        encode_value(&mut w, &Value::int(1));
        w.put_u8(0xAA);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        decode_value(&mut r).unwrap();
        assert!(r.expect_end().is_err());
    }
}
