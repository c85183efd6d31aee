//! Bounds-checked little-endian binary codec for checkpoint state.
//!
//! Sketch crates hand-roll their serialization on top of these two types:
//! the formats are explicit, checksummable byte layouts rather than a
//! derive's. The design contract is
//! the one the fault-tolerance layer depends on:
//!
//! * **Writing is infallible** — [`ByteWriter`] appends fixed-width
//!   little-endian fields to a growable buffer.
//! * **Reading never panics** — every [`ByteReader`] accessor checks the
//!   remaining length first and returns [`SketchError::Corrupted`] on a
//!   short buffer, so arbitrary (truncated, bit-flipped, adversarial)
//!   bytes decode to a typed error, not an abort.
//! * **Length prefixes are validated before allocation** — declared
//!   element counts are checked against the bytes actually remaining
//!   ([`ByteReader::array_len`]), so a corrupted count cannot trigger a
//!   multi-gigabyte `Vec::with_capacity`.

use crate::error::{SketchError, SketchResult};

/// Appends fixed-width little-endian fields to an owned buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Read-only view of the bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern (`NaN`s and signed zeros survive
    /// the round trip exactly).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit on every host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes with **no** length prefix (the layout must make
    /// the length recoverable, e.g. from an earlier field).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_len_prefixed(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }
}

/// Reads fixed-width little-endian fields from a byte slice, returning
/// [`SketchError::Corrupted`] instead of panicking on any short read.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the buffer.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> SketchResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(SketchError::corrupted(format!(
                "truncated: {what} needs {n} bytes, {} remain at offset {}",
                self.remaining(),
                self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] if the buffer is exhausted.
    pub fn u8(&mut self) -> SketchResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer.
    pub fn u16(&mut self) -> SketchResult<u16> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer.
    pub fn u32(&mut self) -> SketchResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer.
    pub fn u64(&mut self) -> SketchResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer.
    pub fn f64(&mut self) -> SketchResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer or a value
    /// that does not fit in `usize`.
    pub fn usize(&mut self) -> SketchResult<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| SketchError::corrupted(format!("count {v} exceeds usize on this host")))
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer.
    pub fn bytes(&mut self, n: usize) -> SketchResult<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Reads a `u64`-prefixed byte run (prefix validated against the
    /// remaining length before any slice is taken).
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer or a prefix
    /// longer than what remains.
    pub fn len_prefixed(&mut self) -> SketchResult<&'a [u8]> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SketchError::corrupted(format!(
                "length prefix {n} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        self.take(n, "length-prefixed run")
    }

    /// Reads an element count for an array whose elements occupy at least
    /// `min_elem_bytes` each, rejecting counts the remaining buffer cannot
    /// possibly hold. This is the guard that keeps corrupted counts from
    /// driving huge allocations.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] on a short buffer or an
    /// impossible count.
    pub fn array_len(&mut self, min_elem_bytes: usize, what: &str) -> SketchResult<usize> {
        let n = self.usize()?;
        let cap = self
            .remaining()
            .checked_div(min_elem_bytes)
            .unwrap_or_else(|| self.remaining());
        if n > cap {
            return Err(SketchError::corrupted(format!(
                "{what}: declared count {n} cannot fit in the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Consumes and returns every byte not yet read. Useful for framed
    /// formats (like the durable WAL) whose record body runs to the end of
    /// an already-length-delimited slice.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Asserts every byte has been consumed — decoding must account for
    /// the whole buffer, so appended garbage is detected.
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupted`] if bytes remain.
    pub fn expect_end(&self, what: &str) -> SketchResult<()> {
        if !self.is_empty() {
            return Err(SketchError::corrupted(format!(
                "{what}: {} trailing bytes after a complete decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_width() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_usize(42);
        w.put_len_prefixed(b"hello");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.len_prefixed().unwrap(), b"hello");
        assert!(r.is_empty());
        r.expect_end("test").unwrap();
    }

    #[test]
    fn short_reads_are_typed_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(r.u64(), Err(SketchError::Corrupted { .. })));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // declares ~2^64 bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.len_prefixed(),
            Err(SketchError::Corrupted { .. })
        ));
    }

    #[test]
    fn array_len_guards_impossible_counts() {
        let mut w = ByteWriter::new();
        w.put_u64(1_000_000);
        w.put_u64(7); // only 8 bytes of payload actually present
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.array_len(8, "slots"),
            Err(SketchError::Corrupted { .. })
        ));
        // A plausible count passes and leaves the payload readable.
        let mut w = ByteWriter::new();
        w.put_u64(1);
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.array_len(8, "slots").unwrap(), 1);
        assert_eq!(r.u64().unwrap(), 7);
    }

    #[test]
    fn rest_consumes_remainder() {
        let mut r = ByteReader::new(&[1, 2, 3, 4]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.rest(), &[2, 3, 4]);
        assert!(r.is_empty());
        assert_eq!(r.rest(), &[] as &[u8]);
        r.expect_end("rest").unwrap();
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = ByteReader::new(&[0u8; 4]);
        assert!(matches!(
            r.expect_end("unit"),
            Err(SketchError::Corrupted { .. })
        ));
    }
}
