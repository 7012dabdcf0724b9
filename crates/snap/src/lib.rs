//! The efex snapshot wire format: versioned, checksummed, hand-rolled.
//!
//! Every checkpoint artifact in the workspace — machine state, kernel
//! state, whole-system and host-process snapshots, fleet tenant
//! checkpoints, record-replay digest recordings — is framed by this crate:
//!
//! ```text
//! +----------+---------+--------+-------------+----------+
//! | EFEXSNAP | version | flavor | payload     | fnv1a-64 |
//! |  8 bytes |   u32   |   u8   |             |  8 bytes |
//! +----------+---------+--------+-------------+----------+
//! ```
//!
//! The trailing checksum is FNV-1a 64 over everything before it (magic,
//! version, flavor, payload), so truncation and bit corruption are both
//! caught before any field is interpreted. Like `efex-report`'s hand-rolled
//! JSON value parser, the format takes no external dependencies: the build
//! environment is offline, and the paper's reproduction only needs a few
//! fixed-width primitives.
//!
//! Decoding never panics: every failure mode — bad magic, unknown version,
//! wrong flavor, truncation, checksum mismatch, impossible field values —
//! is a typed [`SnapError`]. A proptest in `tests/` mutates valid snapshots
//! byte-by-byte and asserts exactly that.

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

/// File magic: the first eight bytes of every snapshot artifact.
pub const MAGIC: [u8; 8] = *b"EFEXSNAP";

/// Current wire-format version. Bump on any layout change; readers reject
/// versions they do not know with [`SnapError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 4;

/// What a snapshot artifact contains. Stored in the header so a restore
/// entry point can reject a structurally valid snapshot of the wrong kind
/// ([`SnapError::FlavorMismatch`]) instead of misinterpreting its payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavor {
    /// Bare `efex-mips` machine state (CPU + CP0 + TLB + memory).
    Machine,
    /// Full simulated-kernel state (machine + process + frame allocator).
    Kernel,
    /// An `efex-core` `System` (kernel + delivery-path identity).
    System,
    /// An `efex-core` `HostProcess` (kernel + host-side delivery state).
    Host,
    /// An `efex-fleet` tenant checkpoint (spec + completed leg results).
    Tenant,
    /// A record-replay digest recording (per-step digests at a stride).
    Recording,
}

impl Flavor {
    /// The header tag byte for this flavor.
    pub fn tag(self) -> u8 {
        match self {
            Flavor::Machine => 1,
            Flavor::Kernel => 2,
            Flavor::System => 3,
            Flavor::Host => 4,
            Flavor::Tenant => 5,
            Flavor::Recording => 6,
        }
    }

    /// Stable lower-case name (shown in errors and tooling).
    pub fn as_str(self) -> &'static str {
        match self {
            Flavor::Machine => "machine",
            Flavor::Kernel => "kernel",
            Flavor::System => "system",
            Flavor::Host => "host",
            Flavor::Tenant => "tenant",
            Flavor::Recording => "recording",
        }
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a snapshot could not be decoded (or, for
/// [`SnapError::Invalid`], could not be applied). Never a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SnapError {
    /// The artifact does not start with [`MAGIC`].
    BadMagic,
    /// The artifact's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The artifact is a valid snapshot of the wrong kind.
    FlavorMismatch {
        /// What the restore entry point required.
        expected: Flavor,
        /// The tag byte found in the header.
        found: u8,
    },
    /// The artifact ends before the field being read.
    Truncated,
    /// The trailing FNV-1a 64 checksum does not match the content.
    ChecksumMismatch {
        /// Checksum recorded in the artifact.
        stored: u64,
        /// Checksum recomputed over the artifact's content.
        computed: u64,
    },
    /// A field decoded to a value the format forbids (impossible tag,
    /// oversized count, trailing bytes).
    Corrupt(String),
    /// The snapshot decoded cleanly but cannot be applied to the receiver
    /// (wrong memory size, mismatched delivery path, handler in flight).
    Invalid(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not an efex snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapError::FlavorMismatch { expected, found } => {
                write!(
                    f,
                    "expected a {expected} snapshot, found flavor tag {found}"
                )
            }
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapError::Invalid(why) => write!(f, "snapshot not applicable: {why}"),
        }
    }
}

impl Error for SnapError {}

/// Streaming FNV-1a 64 digest.
///
/// Used both for the artifact trailing checksum and as the per-step state
/// digest in record-replay (`efex-core`'s divergence bisector): it is
/// deterministic across platforms, cheap enough to run every step, and
/// needs no dependencies.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u32` (little-endian) into the digest.
    pub fn write_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut d = Fnv64::new();
    d.update(bytes);
    d.finish()
}

/// Serializes one snapshot artifact: header, then fixed-width fields in
/// call order, then the trailing checksum on [`Writer::finish`].
///
/// ```
/// use efex_snap::{Flavor, Reader, Writer};
/// let mut w = Writer::new(Flavor::Machine);
/// w.u32(0xdead_beef);
/// w.str("hello");
/// let bytes = w.finish();
/// let mut r = Reader::open(&bytes, Flavor::Machine).unwrap();
/// assert_eq!(r.u32().unwrap(), 0xdead_beef);
/// assert_eq!(r.str().unwrap(), "hello");
/// r.done().unwrap();
/// ```
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts an artifact of the given flavor (writes the header).
    pub fn new(flavor: Flavor) -> Writer {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.push(flavor.tag());
        Writer { buf }
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`, little-endian two's complement.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string (`u32` length + raw bytes).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends the trailing checksum and returns the finished artifact.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Deserializes one snapshot artifact. [`Reader::open`] validates the
/// header and the trailing checksum up front; the field readers then only
/// fail on truncation or forbidden values.
#[derive(Debug)]
pub struct Reader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic, version, checksum, and flavor, and positions the
    /// reader at the start of the payload.
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`SnapError`]; this never panics.
    pub fn open(bytes: &'a [u8], expected: Flavor) -> Result<Reader<'a>, SnapError> {
        let tag = Self::open_any(bytes)?;
        if tag != expected.tag() {
            return Err(SnapError::FlavorMismatch {
                expected,
                found: tag,
            });
        }
        Ok(Reader {
            payload: &bytes[..bytes.len() - 8],
            pos: MAGIC.len() + 4 + 1,
        })
    }

    /// Validates everything but the flavor and returns the artifact's
    /// flavor tag byte (tooling that inspects arbitrary snapshots).
    pub fn open_any(bytes: &[u8]) -> Result<u8, SnapError> {
        let header = MAGIC.len() + 4 + 1;
        if bytes.len() < MAGIC.len() {
            return Err(if bytes.starts_with(&MAGIC[..bytes.len()]) {
                SnapError::Truncated
            } else {
                SnapError::BadMagic
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        if bytes.len() < header + 8 {
            return Err(SnapError::Truncated);
        }
        let content = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let computed = fnv64(content);
        if stored != computed {
            return Err(SnapError::ChecksumMismatch { stored, computed });
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(bytes[header - 1])
    }

    /// Bytes of payload not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is [`SnapError::Corrupt`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b:#04x}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, SnapError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| SnapError::Corrupt(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a collection count and bounds it against the bytes actually
    /// present (each element needs at least `elem_min_bytes`), so a
    /// corrupted count can never trigger a huge allocation.
    pub fn count(&mut self, elem_min_bytes: usize) -> Result<usize, SnapError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_min_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Corrupt(format!(
                "count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    /// Asserts the payload is fully consumed (catches writer/reader drift
    /// and snapshots with appended garbage that happens to re-checksum).
    pub fn done(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Corrupt(format!(
                "{} trailing payload bytes",
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
    fn round_trip_all_primitives() {
        let mut w = Writer::new(Flavor::Kernel);
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.u32(0x1234_5678);
        w.u64(0xdead_beef_cafe_f00d);
        w.i32(-42);
        w.f64(1.5e-3);
        w.bytes(b"\x00\x01\x02");
        w.str("exception");
        let bytes = w.finish();

        let mut r = Reader::open(&bytes, Flavor::Kernel).unwrap();
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0x1234_5678);
        assert_eq!(r.u64().unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 1.5e-3);
        assert_eq!(r.bytes().unwrap(), b"\x00\x01\x02");
        assert_eq!(r.str().unwrap(), "exception");
        r.done().unwrap();
    }

    #[test]
    fn flavor_mismatch_is_typed() {
        let bytes = Writer::new(Flavor::Machine).finish();
        match Reader::open(&bytes, Flavor::Tenant) {
            Err(SnapError::FlavorMismatch { expected, found }) => {
                assert_eq!(expected, Flavor::Tenant);
                assert_eq!(found, Flavor::Machine.tag());
            }
            other => panic!("expected flavor mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corruption_and_truncation_are_typed() {
        let mut w = Writer::new(Flavor::Machine);
        w.u64(7);
        let good = w.finish();

        // Flip one payload bit: checksum mismatch.
        let mut bad = good.clone();
        bad[14] ^= 1;
        assert!(matches!(
            Reader::open(&bad, Flavor::Machine),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Cut below the minimum frame: truncated. A longer cut still holding
        // a full header re-checksums over the shifted tail and surfaces as a
        // checksum mismatch — either way, a typed error.
        assert!(matches!(
            Reader::open(&good[..12], Flavor::Machine),
            Err(SnapError::Truncated)
        ));
        assert!(matches!(
            Reader::open(&good[..good.len() - 3], Flavor::Machine),
            Err(SnapError::ChecksumMismatch { .. })
        ));

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Reader::open(&bad, Flavor::Machine),
            Err(SnapError::BadMagic)
        ));

        // Future version (checksum fixed up so the version check is what
        // fires).
        let mut bad = good.clone();
        bad[8] = 99;
        let sum = fnv64(&bad[..bad.len() - 8]);
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Reader::open(&bad, Flavor::Machine),
            Err(SnapError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn oversized_count_is_rejected_without_allocating() {
        let mut w = Writer::new(Flavor::Recording);
        w.u32(u32::MAX); // claims 4 billion elements
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, Flavor::Recording).unwrap();
        assert!(matches!(r.count(8), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn digest_matches_reference_vectors() {
        // Classic FNV-1a 64 vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
