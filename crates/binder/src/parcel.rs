//! Parcels: the typed payload container of Binder transactions.
//!
//! Android marshals RPC arguments into `Parcel` objects. The Flux record log
//! stores whole parcels, and the `@if` decorator compares individual parcel
//! values across calls, so values here are cheap to clone and compare.
//! Parcels also encode to a compact wire form; the byte length feeds the
//! transaction-cost and checkpoint-size models, and the codec is exercised
//! by round-trip property tests.

use std::fmt;

/// A reference to a Binder object written into a parcel.
///
/// When a parcel crosses processes the driver translates these: a node the
/// sender *owns* arrives at the receiver as a fresh handle; a handle the
/// sender *holds* arrives as a handle to the same underlying node. This is
/// how Binder references propagate (see §2 of the paper: "Communication to
/// another Binder node cannot occur without first being given a reference to
/// it").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjRef {
    /// A node owned by the sending process, identified by its node id.
    Own(u64),
    /// A handle held by the sending process.
    Handle(u32),
}

/// One typed value inside a [`Parcel`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A 32-bit integer.
    I32(i32),
    /// A 64-bit integer (times, durations, cookies).
    I64(i64),
    /// A double-precision float.
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A UTF-8 string.
    Str(String),
    /// An opaque byte blob (bitmaps, serialized Intents, …).
    Blob(Vec<u8>),
    /// A Binder object reference; translated by the driver in flight.
    Object(ObjRef),
    /// A file descriptor, dup'd into the receiver on delivery.
    Fd(i32),
    /// An explicit null (absent optional argument).
    Null,
}

impl Value {
    /// A short type tag, used in error messages and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::I32(_) => "i32",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Blob(_) => "blob",
            Value::Object(_) => "object",
            Value::Fd(_) => "fd",
            Value::Null => "null",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}L"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Blob(b) => write!(f, "blob[{}]", b.len()),
            Value::Object(ObjRef::Own(n)) => write!(f, "node#{n}"),
            Value::Object(ObjRef::Handle(h)) => write!(f, "handle#{h}"),
            Value::Fd(fd) => write!(f, "fd:{fd}"),
            Value::Null => write!(f, "null"),
        }
    }
}

/// Errors raised while reading or decoding a parcel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParcelError {
    /// A read past the end of the parcel.
    OutOfBounds {
        /// Index that was requested.
        index: usize,
        /// Number of values actually present.
        len: usize,
    },
    /// A value of the wrong type at the given position.
    TypeMismatch {
        /// Index that was read.
        index: usize,
        /// Type the caller expected.
        expected: &'static str,
        /// Type actually present.
        found: &'static str,
    },
    /// The wire bytes could not be decoded.
    Malformed(String),
}

impl fmt::Display for ParcelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParcelError::OutOfBounds { index, len } => {
                write!(f, "parcel read at {index} beyond length {len}")
            }
            ParcelError::TypeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parcel value {index}: expected {expected}, found {found}"
            ),
            ParcelError::Malformed(m) => write!(f, "malformed parcel bytes: {m}"),
        }
    }
}

impl std::error::Error for ParcelError {}

/// An ordered sequence of typed [`Value`]s.
///
/// # Examples
///
/// ```
/// use flux_binder::Parcel;
///
/// let p = Parcel::new().with_i32(7).with_str("alarm");
/// assert_eq!(p.i32(0).unwrap(), 7);
/// assert_eq!(p.str(1).unwrap(), "alarm");
/// let bytes = p.encode();
/// assert_eq!(Parcel::decode(&bytes).unwrap(), p);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Parcel {
    values: Vec<Value>,
}

impl Parcel {
    /// Creates an empty parcel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a parcel from a list of values.
    pub fn from_values(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Appends a value.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Builder-style append of an `i32`.
    pub fn with_i32(mut self, v: i32) -> Self {
        self.push(Value::I32(v));
        self
    }

    /// Builder-style append of an `i64`.
    pub fn with_i64(mut self, v: i64) -> Self {
        self.push(Value::I64(v));
        self
    }

    /// Builder-style append of an `f64`.
    pub fn with_f64(mut self, v: f64) -> Self {
        self.push(Value::F64(v));
        self
    }

    /// Builder-style append of a `bool`.
    pub fn with_bool(mut self, v: bool) -> Self {
        self.push(Value::Bool(v));
        self
    }

    /// Builder-style append of a string.
    pub fn with_str(mut self, v: impl Into<String>) -> Self {
        self.push(Value::Str(v.into()));
        self
    }

    /// Builder-style append of a blob.
    pub fn with_blob(mut self, v: Vec<u8>) -> Self {
        self.push(Value::Blob(v));
        self
    }

    /// Builder-style append of a Binder object reference.
    pub fn with_object(mut self, v: ObjRef) -> Self {
        self.push(Value::Object(v));
        self
    }

    /// Builder-style append of a file descriptor.
    pub fn with_fd(mut self, fd: i32) -> Self {
        self.push(Value::Fd(fd));
        self
    }

    /// Builder-style append of a null.
    pub fn with_null(mut self) -> Self {
        self.push(Value::Null);
        self
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the parcel holds no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the values (used by the driver to translate
    /// object references in flight).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// The value at `index`.
    pub fn get(&self, index: usize) -> Result<&Value, ParcelError> {
        self.values.get(index).ok_or(ParcelError::OutOfBounds {
            index,
            len: self.values.len(),
        })
    }

    fn typed<'a, T>(
        &'a self,
        index: usize,
        expected: &'static str,
        extract: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, ParcelError> {
        let v = self.get(index)?;
        extract(v).ok_or(ParcelError::TypeMismatch {
            index,
            expected,
            found: v.kind(),
        })
    }

    /// Reads an `i32` at `index`.
    pub fn i32(&self, index: usize) -> Result<i32, ParcelError> {
        self.typed(index, "i32", |v| match v {
            Value::I32(x) => Some(*x),
            _ => None,
        })
    }

    /// Reads an `i64` at `index`.
    pub fn i64(&self, index: usize) -> Result<i64, ParcelError> {
        self.typed(index, "i64", |v| match v {
            Value::I64(x) => Some(*x),
            _ => None,
        })
    }

    /// Reads an `f64` at `index`.
    pub fn f64(&self, index: usize) -> Result<f64, ParcelError> {
        self.typed(index, "f64", |v| match v {
            Value::F64(x) => Some(*x),
            _ => None,
        })
    }

    /// Reads a `bool` at `index`.
    pub fn bool(&self, index: usize) -> Result<bool, ParcelError> {
        self.typed(index, "bool", |v| match v {
            Value::Bool(x) => Some(*x),
            _ => None,
        })
    }

    /// Reads a string at `index`.
    pub fn str(&self, index: usize) -> Result<&str, ParcelError> {
        self.typed(index, "str", |v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Reads a blob at `index`.
    pub fn blob(&self, index: usize) -> Result<&[u8], ParcelError> {
        self.typed(index, "blob", |v| match v {
            Value::Blob(b) => Some(b.as_slice()),
            _ => None,
        })
    }

    /// Reads a Binder object reference at `index`.
    pub fn object(&self, index: usize) -> Result<ObjRef, ParcelError> {
        self.typed(index, "object", |v| match v {
            Value::Object(o) => Some(*o),
            _ => None,
        })
    }

    /// Reads a file descriptor at `index`.
    pub fn fd(&self, index: usize) -> Result<i32, ParcelError> {
        self.typed(index, "fd", |v| match v {
            Value::Fd(fd) => Some(*fd),
            _ => None,
        })
    }

    /// The encoded wire size in bytes, without materialising the encoding.
    pub fn wire_size(&self) -> usize {
        self.values
            .iter()
            .map(|v| {
                1 + match v {
                    Value::I32(_) => 4,
                    Value::I64(_) => 8,
                    Value::F64(_) => 8,
                    Value::Bool(_) => 1,
                    Value::Str(s) => 4 + s.len(),
                    Value::Blob(b) => 4 + b.len(),
                    Value::Object(_) => 9,
                    Value::Fd(_) => 4,
                    Value::Null => 0,
                }
            })
            .sum::<usize>()
            + 4
    }

    /// Encodes the parcel to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            match v {
                Value::I32(x) => {
                    out.push(1);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::I64(x) => {
                    out.push(2);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::F64(x) => {
                    out.push(3);
                    out.extend_from_slice(&x.to_le_bytes());
                }
                Value::Bool(x) => {
                    out.push(4);
                    out.push(u8::from(*x));
                }
                Value::Str(s) => {
                    out.push(5);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Value::Blob(b) => {
                    out.push(6);
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
                Value::Object(ObjRef::Own(n)) => {
                    out.push(7);
                    out.push(0);
                    out.extend_from_slice(&n.to_le_bytes());
                }
                Value::Object(ObjRef::Handle(h)) => {
                    out.push(7);
                    out.push(1);
                    out.extend_from_slice(&u64::from(*h).to_le_bytes());
                }
                Value::Fd(fd) => {
                    out.push(8);
                    out.extend_from_slice(&fd.to_le_bytes());
                }
                Value::Null => out.push(9),
            }
        }
        out
    }

    /// Decodes a parcel from its wire form.
    pub fn decode(bytes: &[u8]) -> Result<Self, ParcelError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let count = cur.u32()? as usize;
        let mut values = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let tag = cur.u8()?;
            let v = match tag {
                1 => Value::I32(i32::from_le_bytes(cur.array()?)),
                2 => Value::I64(i64::from_le_bytes(cur.array()?)),
                3 => Value::F64(f64::from_le_bytes(cur.array()?)),
                4 => Value::Bool(cur.u8()? != 0),
                5 => {
                    let len = cur.u32()? as usize;
                    let raw = cur.take(len)?;
                    Value::Str(
                        String::from_utf8(raw.to_vec())
                            .map_err(|e| ParcelError::Malformed(e.to_string()))?,
                    )
                }
                6 => {
                    let len = cur.u32()? as usize;
                    Value::Blob(cur.take(len)?.to_vec())
                }
                7 => {
                    let form = cur.u8()?;
                    let raw = u64::from_le_bytes(cur.array()?);
                    match form {
                        0 => Value::Object(ObjRef::Own(raw)),
                        1 => Value::Object(ObjRef::Handle(raw as u32)),
                        other => {
                            return Err(ParcelError::Malformed(format!("bad object form {other}")))
                        }
                    }
                }
                8 => Value::Fd(i32::from_le_bytes(cur.array()?)),
                9 => Value::Null,
                other => return Err(ParcelError::Malformed(format!("bad tag {other}"))),
            };
            values.push(v);
        }
        Ok(Parcel { values })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParcelError> {
        if self.pos + n > self.bytes.len() {
            return Err(ParcelError::Malformed(format!(
                "truncated at {} (+{n} of {})",
                self.pos,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ParcelError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ParcelError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ParcelError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Parcel {
        Parcel::new()
            .with_i32(-5)
            .with_i64(1 << 40)
            .with_f64(2.5)
            .with_bool(true)
            .with_str("notification")
            .with_blob(vec![1, 2, 3])
            .with_object(ObjRef::Handle(7))
            .with_object(ObjRef::Own(99))
            .with_fd(12)
            .with_null()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = sample();
        assert_eq!(Parcel::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let p = sample();
        assert_eq!(p.wire_size(), p.encode().len());
        assert_eq!(Parcel::new().wire_size(), Parcel::new().encode().len());
    }

    #[test]
    fn typed_reads_check_types() {
        let p = Parcel::new().with_i32(1).with_str("x");
        assert_eq!(p.i32(0).unwrap(), 1);
        assert!(matches!(
            p.i32(1),
            Err(ParcelError::TypeMismatch {
                expected: "i32",
                ..
            })
        ));
        assert!(matches!(p.str(5), Err(ParcelError::OutOfBounds { .. })));
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 2);
        assert!(Parcel::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes = Parcel::new().with_i32(1).encode();
        bytes[4] = 200;
        assert!(matches!(
            Parcel::decode(&bytes),
            Err(ParcelError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        // Tag 5 (str), length 1, byte 0xFF.
        let mut bytes = vec![];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(5);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xFF);
        assert!(Parcel::decode(&bytes).is_err());
    }
}
