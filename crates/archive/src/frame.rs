//! Byte-level primitives of the archive format: little-endian encoding
//! helpers, the FNV-1a-64 segment checksum, and the length-prefixed
//! frame walker every segment reader shares.
//!
//! The workspace is offline (no serde backend, no compression crates),
//! so the wire format is hand-rolled in the style of the serve layer's
//! `json` module: explicit, versioned, and simple enough to audit byte
//! by byte. Everything is little-endian.

use std::fmt;

/// Errors surfaced while encoding, decoding, or recovering an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The bytes violate the format (bad magic, torn frame, checksum
    /// mismatch, …). The string says where and why.
    Corrupt(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "io: {e}"),
            ArchiveError::Corrupt(why) => write!(f, "corrupt archive: {why}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

/// Shorthand used throughout the crate.
pub type Result<T> = std::result::Result<T, ArchiveError>;

/// Build a [`ArchiveError::Corrupt`] with context.
pub fn corrupt(why: impl Into<String>) -> ArchiveError {
    ArchiveError::Corrupt(why.into())
}

/// FNV-1a 64-bit running checksum (the same family the workspace uses
/// for tuple sharding — dependency-free and byte-order stable).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Fresh checksum at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }

    /// One-shot digest of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fnv64::new();
        f.update(bytes);
        f.digest()
    }
}

/// Append little-endian integers to a byte buffer.
pub trait PutBytes {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a `u32`, little-endian.
    fn put_u32(&mut self, v: u32);
    /// Append a `u64`, little-endian.
    fn put_u64(&mut self, v: u64);
    /// Append an `f64` as its IEEE-754 bit pattern.
    fn put_f64(&mut self, v: f64);
}

impl PutBytes for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A bounds-checked little-endian reader over a byte slice. Every read
/// returns [`ArchiveError::Corrupt`] instead of panicking, so torn or
/// garbage input degrades into a recoverable error.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `bytes`, starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the reader consumed everything.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an IEEE-754 `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32` row count whose rows take at least `row_bytes` each,
    /// and check that that many rows fit in what is left — so a count
    /// sizes an allocation only as far as the payload backs it.
    pub fn count(&mut self, row_bytes: usize) -> Result<usize> {
        let at = self.pos;
        let n = self.u32()? as usize;
        if n > self.remaining() / row_bytes {
            return Err(corrupt(format!(
                "count {n} at offset {at} overruns the payload ({} bytes left, {row_bytes} a row)",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Frame kind tags. A segment is `magic ++ version ++ frame*` where each
/// frame is `[u8 kind][u32 payload_len][payload]`; the final frame is
/// always [`Kind::End`], whose payload is the FNV-1a-64 digest of every
/// byte before the End frame's header — the per-segment checksum torn
/// tails are detected by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Epoch header: ids, timestamps, thresholds. Opens an epoch; the
    /// frames that follow (until the next meta or End) belong to it.
    EpochMeta = 1,
    /// Interner delta: the ids this epoch added to the shared table.
    Interner = 2,
    /// Per-id counter column, as the rows that differ from the previous
    /// epoch's in the same segment (see [`crate::segment`]).
    Counters = 3,
    /// `(asn, class)` table, as the rows upserted into and the ASNs
    /// removed from the previous epoch's in the same segment.
    Classes = 4,
    /// Class flips sealed by this epoch.
    Flips = 5,
    /// Ingest statistics frozen at publish time.
    Stats = 6,
    /// Per-epoch provenance timeline (stage, offset, duration,
    /// counters). Optional: epochs archived by daemons without tracing
    /// simply omit it.
    Trace = 7,
    /// Segment trailer carrying the checksum.
    End = 0xEE,
}

impl Kind {
    /// Parse a frame tag.
    pub fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::EpochMeta),
            2 => Some(Kind::Interner),
            3 => Some(Kind::Counters),
            4 => Some(Kind::Classes),
            5 => Some(Kind::Flips),
            6 => Some(Kind::Stats),
            7 => Some(Kind::Trace),
            0xEE => Some(Kind::End),
            _ => None,
        }
    }
}

/// Append one frame (`kind`, length prefix, payload) to `out`.
pub fn put_frame(out: &mut Vec<u8>, kind: Kind, payload: &[u8]) {
    out.put_u8(kind as u8);
    out.put_u32(u32::try_from(payload.len()).expect("frame payload fits u32"));
    out.extend_from_slice(payload);
}

/// One decoded frame header + payload slice.
#[derive(Debug)]
pub struct Frame<'a> {
    /// What the payload holds.
    pub kind: Kind,
    /// Offset of the frame's kind byte within the segment (for the End
    /// frame this is where the checksummed region stops).
    pub start: usize,
    /// The payload bytes.
    pub payload: &'a [u8],
}

/// Walk the frames of a segment body (after magic + version), yielding
/// each until [`Kind::End`] (inclusive). Any structural violation —
/// unknown tag, length overrunning the buffer, missing End — is
/// `Corrupt`.
#[derive(Debug)]
pub struct FrameWalker<'a> {
    bytes: &'a [u8],
    pos: usize,
    done: bool,
}

impl<'a> FrameWalker<'a> {
    /// Walker over `bytes` starting at `pos` (the first frame's offset).
    pub fn new(bytes: &'a [u8], pos: usize) -> Self {
        FrameWalker {
            bytes,
            pos,
            done: false,
        }
    }

    /// The next frame, `None` after End was yielded.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'a>>> {
        if self.done {
            return Ok(None);
        }
        let start = self.pos;
        if self.bytes.len() - self.pos < 5 {
            return Err(corrupt(format!("torn frame header at offset {start}")));
        }
        let kind = Kind::from_u8(self.bytes[self.pos])
            .ok_or_else(|| corrupt(format!("unknown frame tag at offset {start}")))?;
        let len = u32::from_le_bytes(
            self.bytes[self.pos + 1..self.pos + 5]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        self.pos += 5;
        if self.bytes.len() - self.pos < len {
            return Err(corrupt(format!(
                "frame at offset {start} claims {len} bytes, {} left",
                self.bytes.len() - self.pos
            )));
        }
        let payload = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        if kind == Kind::End {
            self.done = true;
        }
        Ok(Some(Frame {
            kind,
            start,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut out = Vec::new();
        out.put_u8(7);
        out.put_u32(0xdead_beef);
        out.put_u64(u64::MAX - 1);
        out.put_f64(0.99);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.99);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_bounds_are_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.u32().is_err());
        assert_eq!(r.u8().unwrap(), 1);
    }

    #[test]
    fn a_count_is_bounded_by_the_payload() {
        let mut out = Vec::new();
        out.put_u32(2);
        out.extend_from_slice(&[0; 12]);
        assert_eq!(ByteReader::new(&out).count(6).unwrap(), 2);
        assert!(ByteReader::new(&out).count(7).is_err());
        out[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ByteReader::new(&out).count(1).is_err());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned digest: the on-disk format depends on this value never
        // changing.
        assert_eq!(Fnv64::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::of(b"a"), Fnv64::of(b"a"));
        assert_ne!(Fnv64::of(b"a"), Fnv64::of(b"b"));
        let mut inc = Fnv64::new();
        inc.update(b"ab");
        inc.update(b"cd");
        assert_eq!(inc.digest(), Fnv64::of(b"abcd"));
    }

    #[test]
    fn frame_walker_stops_at_end() {
        let mut seg = Vec::new();
        put_frame(&mut seg, Kind::EpochMeta, &[1, 2, 3]);
        put_frame(&mut seg, Kind::End, &[0; 8]);
        let mut w = FrameWalker::new(&seg, 0);
        let f = w.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, Kind::EpochMeta);
        assert_eq!(f.payload, &[1, 2, 3]);
        let e = w.next_frame().unwrap().unwrap();
        assert_eq!(e.kind, Kind::End);
        assert!(w.next_frame().unwrap().is_none());
    }

    #[test]
    fn torn_frames_are_corrupt() {
        let mut seg = Vec::new();
        put_frame(&mut seg, Kind::Counters, &[9; 100]);
        for cut in 0..seg.len() {
            let mut w = FrameWalker::new(&seg[..cut], 0);
            assert!(w.next_frame().is_err(), "cut at {cut} must not parse");
        }
    }
}
