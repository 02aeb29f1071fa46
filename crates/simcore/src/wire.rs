//! A minimal length-prefixed binary codec.
//!
//! CRIU-style checkpoint images and rsync manifests need a compact,
//! versionable byte representation whose size can be measured exactly (it
//! feeds the transfer model). This module provides little-endian primitives
//! with checked reads; higher-level types compose them.

use std::fmt;

/// Error produced when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Offset at which decoding failed.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for WireError {}

/// An append-only byte writer.
///
/// A writer made by [`WireWriter::counter`] runs the same write sequence
/// but only counts the bytes: an encoder written once against
/// `WireWriter` can then measure its output without building it, and the
/// measured length cannot disagree with the encoding.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
    len: usize,
    counting: bool,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that counts the bytes written and stores none.
    pub fn counter() -> Self {
        Self {
            counting: true,
            ..Self::default()
        }
    }

    /// Consumes the writer, returning the bytes (none for a counter).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn put(&mut self, b: &[u8]) {
        self.len += b.len();
        if !self.counting {
            self.buf.extend_from_slice(b);
        }
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes an `f64`, little-endian IEEE-754.
    pub fn f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.put(b);
    }

    /// Writes a sequence header (`count` items follow).
    pub fn seq(&mut self, count: usize) {
        self.u32(count as u32);
    }
}

/// A checked byte reader over a wire buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn err(&self, reason: impl Into<String>) -> WireError {
        WireError {
            at: self.pos,
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(self.err(format!(
                "need {n} bytes, only {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a `bool`.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| self.err(e.to_string()))
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence header, with a sanity cap to bound allocations on
    /// corrupt input.
    pub fn seq(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > 16 * 1024 * 1024 {
            return Err(self.err(format!("sequence length {n} exceeds sanity cap")));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(2.5);
        w.bool(true);
        w.str("flux");
        w.bytes(&[1, 2, 3]);
        w.seq(5);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "flux");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.seq().unwrap(), 5);
        assert!(r.is_exhausted());
    }

    #[test]
    fn counting_measures_exactly_what_the_buffer_holds() {
        let write = |w: &mut WireWriter| {
            w.str("");
            w.str("flux");
            w.str("été 📱");
            w.seq(0);
            w.seq(3);
            w.u8(0xFF);
            w.u32(7);
            w.u64(u64::MAX);
            w.i64(-1);
            w.f64(0.47);
            w.bool(false);
            w.bytes(&[]);
            w.bytes(&[1, 2, 3]);
        };
        let mut buffer = WireWriter::new();
        write(&mut buffer);
        let mut counter = WireWriter::counter();
        write(&mut counter);
        assert_eq!(counter.len(), buffer.len());
        assert_eq!(counter.len(), buffer.into_bytes().len());
        assert!(counter.into_bytes().is_empty());
        assert!(WireWriter::counter().is_empty());
    }

    #[test]
    fn short_reads_error_with_offset() {
        let mut r = WireReader::new(&[1, 2]);
        let e = r.u32().unwrap_err();
        assert_eq!(e.at, 0);
    }

    #[test]
    fn sequence_cap_rejects_absurd_lengths() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(WireReader::new(&bytes).seq().is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert!(WireReader::new(&bytes).str().is_err());
    }
}
