//! The little-endian byte codec behind every binary format the pipeline
//! reads from outside: the `TOF1` container, the `.teapot.meta` note,
//! `.tcs` campaign snapshots, epoch deltas and fabric wire frames.
//!
//! It owns three decisions, so a format module owns only its layout and
//! its own validation (magic, version, CRC, count limits):
//!
//! * **Layout.** Integers are little-endian; `bytes` is a `u32` length
//!   followed by that many raw bytes; a list is a `u32` count followed
//!   by its items.
//! * **Truncation.** Running out of bytes is [`Error::Truncated`],
//!   naming the section the reader was in ([`Reader::section`]) and the
//!   byte offset of the read that failed.
//! * **Hostile counts.** [`Reader::list`] reserves no more items than
//!   the remaining bytes can encode, so a count read from outside bytes
//!   fails `Truncated` before it allocates for items that are not there.

use std::fmt;

/// Why bytes failed to decode at the codec level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The bytes ended inside `section`.
    Truncated {
        /// The section being read when the bytes ran out.
        section: &'static str,
        /// Byte offset of the read that ran out.
        offset: usize,
    },
    /// A field held a value the codec does not allow (a `bool` byte
    /// other than 0 or 1).
    Corrupt(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { section, offset } => write!(
                f,
                "truncated inside the {section} section at byte offset {offset}"
            ),
            Error::Corrupt(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Little-endian record writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }
    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// Appends raw bytes with no length prefix (magic numbers, payloads
    /// whose length was written separately).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }
    /// Appends a `u32` count followed by every item, as [`Reader::list`]
    /// reads it back.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Writer, &T)) {
        self.u32(items.len() as u32);
        for it in items {
            item(self, it);
        }
    }
}

/// Bounds-checked little-endian reader.
///
/// Tracks which logical section is being read, so running out of bytes
/// reports "inside the corpus section at byte offset N" rather than a
/// bare "truncated".
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// Starts reading at offset 0 in the `header` section.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            section: "header",
        }
    }
    /// Names the section subsequent reads belong to (for errors).
    pub fn section(&mut self, name: &'static str) {
        self.section = name;
    }
    /// Byte offset of the next read.
    pub fn offset(&self) -> usize {
        self.pos
    }
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(Error::Truncated {
                section: self.section,
                offset: self.pos,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    /// A bool byte: 0 or 1, anything else is [`Error::Corrupt`].
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Error::Corrupt("bool")),
        }
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }
    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }
    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }
    /// A `u32` length prefix and that many raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], Error> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    /// A `u32` count and that many items, each read by `item` and at
    /// least `min_item` bytes long (see [`Reader::items`]).
    pub fn list<T, E: From<Error>>(
        &mut self,
        min_item: usize,
        item: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()? as usize;
        self.items(n, min_item, item)
    }
    /// `n` items whose count was read (and checked) separately, each at
    /// least `min_item` bytes long. Reserves room for no more items than
    /// the remaining bytes can encode: a hostile `n` fails `Truncated`
    /// at the first missing item, having allocated at most what the
    /// input's own size allows.
    pub fn items<T, E: From<Error>>(
        &mut self,
        n: usize,
        min_item: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(n.min(self.remaining() / min_item.max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_reads_back() {
        let mut w = Writer::new();
        w.raw(b"MAG");
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.bytes(b"abc");
        w.list(&[1u64, 2], |w, v| w.u64(*v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(3), Ok(&b"MAG"[..]));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.bytes(), Ok(&b"abc"[..]));
        assert_eq!(r.list(8, |r| r.u64()), Ok(vec![1, 2]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(Reader::new(&[2]).bool(), Err(Error::Corrupt("bool")));
    }

    #[test]
    fn a_hostile_count_fails_where_the_bytes_run_out() {
        // 2^32-1 items of at least 8 bytes claimed, two present.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let mut r = Reader::new(&bytes);
        r.section("items");
        let truncated = Error::Truncated {
            section: "items",
            offset: 20,
        };
        assert_eq!(r.list(8, |r| r.u64()), Err(truncated));
        assert!(Reader::new(&[]).take(usize::MAX).is_err());
    }
}
