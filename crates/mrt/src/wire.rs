//! Byte-level cursor helpers shared by all decoders.
//!
//! A thin, panic-free big-endian reader over a byte slice. All `get_*`
//! methods return [`MrtError::Truncated`] instead of panicking on short
//! input, which is the backbone of the codec's failure-injection guarantees.

use crate::error::{MrtError, Result};

/// Panic-free big-endian cursor over borrowed bytes.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all bytes are consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Current absolute position.
    pub fn position(&self) -> usize {
        self.pos
    }

    // `#[inline]` here and on the readers built from it: they sit on
    // `TupleStream`'s per-entry path, where called out of line their
    // `Result`s cost more than the reads (150 -> 60 ns an entry walked).
    #[inline]
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MrtError::Truncated {
                context,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a big-endian u16.
    #[inline]
    pub fn get_u16(&mut self, context: &'static str) -> Result<u16> {
        let b = self.take(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    #[inline]
    pub fn get_u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.take(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn get_u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.take(8, context)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Read `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        self.take(n, context)
    }

    /// Split off a sub-cursor over the next `n` bytes (for length-delimited
    /// structures).
    #[inline]
    pub fn sub(&mut self, n: usize, context: &'static str) -> Result<Cursor<'a>> {
        Ok(Cursor::new(self.take(n, context)?))
    }
}

/// Big-endian writer helpers over a `Vec<u8>`.
pub trait PutExt {
    /// Append a u8.
    fn put_u8(&mut self, v: u8);
    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16);
    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32);
    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64);
}

impl PutExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_all_widths() {
        let mut v = Vec::new();
        v.put_u8(0xAB);
        v.put_u16(0x1234);
        v.put_u32(0xDEADBEEF);
        v.put_u64(0x0102030405060708);
        let mut c = Cursor::new(&v);
        assert_eq!(c.get_u8("t").unwrap(), 0xAB);
        assert_eq!(c.get_u16("t").unwrap(), 0x1234);
        assert_eq!(c.get_u32("t").unwrap(), 0xDEADBEEF);
        assert_eq!(c.get_u64("t").unwrap(), 0x0102030405060708);
        assert!(c.is_exhausted());
    }

    #[test]
    fn truncation_reports_needed() {
        let mut c = Cursor::new(&[1, 2]);
        let err = c.get_u32("field").unwrap_err();
        assert_eq!(
            err,
            MrtError::Truncated {
                context: "field",
                needed: 2
            }
        );
        // Position unchanged after failed read of multi-byte field?
        // take() only advances on success.
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn sub_cursor_bounds() {
        let data = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&data);
        let mut s = c.sub(3, "sub").unwrap();
        assert_eq!(s.get_bytes(3, "x").unwrap(), &[1, 2, 3]);
        assert!(s.is_exhausted());
        assert_eq!(c.remaining(), 2);
        assert!(c.sub(3, "sub").is_err());
    }

    #[test]
    fn position_tracks() {
        let data = [0u8; 10];
        let mut c = Cursor::new(&data);
        c.get_bytes(4, "x").unwrap();
        assert_eq!(c.position(), 4);
        assert_eq!(c.remaining(), 6);
    }
}
