//! Compact binary trace serialization — the record/replay format and the
//! only trace file format: it feeds million-instruction recorded
//! workloads back into the simulators cheaply. The artifact discipline
//! mirrors the experiments grid cache: leading magic, an explicit
//! version, a mandatory instruction count, fixed-width records, and a
//! trailing FNV-1a checksum over everything before it. A flipped byte or
//! a truncated file is always a detected error, never a silently shorter
//! trace.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [8]  magic  b"NTCTRAC1"
//! [8]  format version (currently 1)
//! [8]  instruction count N
//! [17] × N records: opcode encoding (u8), operand a (u64), operand b (u64)
//! [8]  FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Operands are 32-bit words, so the high four bytes of each operand
//! field are zero; the field width is kept so recorded files, their
//! checksums and every cache key built on them stay as they are.
//!
//! One decoder reads both byte slices and files. It checks the header
//! against the known length first, then decodes the records in chunks of
//! 4,096 straight into the trace, folding each chunk into the running
//! checksum. A file is therefore never held in memory beside the
//! 12-byte-per-instruction trace it decodes to; the decoder's only
//! buffer is one chunk (about 70 KB).
//!
//! Files are written atomically (process-unique temp name + `rename`),
//! so a crashed recorder can never leave a half-written trace under the
//! final name.

use ntc_isa::{Instruction, Opcode};
use std::fmt;
use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading magic of every binary trace file.
pub const MAGIC: &[u8; 8] = b"NTCTRAC1";

/// Current format version, stored after the magic.
pub const VERSION: u64 = 1;

/// Bytes per fixed-width instruction record.
pub const RECORD_BYTES: usize = 1 + 8 + 8;

/// Bytes before the first record: magic, version and count.
const HEADER_BYTES: usize = 8 + 8 + 8;

/// Records the decoder reads, checksums and decodes at a time.
const CHUNK_RECORDS: usize = 4_096;

/// FNV-1a 64-bit offset basis: the seed of the standard hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 over `bytes` from an explicit `seed` (the grid cache's
/// second key lane starts from a perturbed basis).
pub fn fnv1a64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Standard FNV-1a 64-bit hash: the trailing checksum of traces and of
/// grid-cache artifacts.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(bytes, FNV_OFFSET)
}

/// Errors raised while decoding a binary trace.
#[derive(Debug)]
pub enum TraceBinError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version field names a format this build cannot read.
    BadVersion(u64),
    /// The bytes end before the declared record payload + checksum.
    Truncated {
        /// Bytes the header declared the file should hold.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The trailing checksum does not match the preceding bytes.
    ChecksumMismatch,
    /// A record names an opcode encoding outside the ISA.
    BadOpcode {
        /// 0-based record index.
        record: usize,
        /// The offending encoding byte.
        code: u8,
    },
    /// Bytes remain after the declared records + checksum.
    TrailingBytes,
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for TraceBinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceBinError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            TraceBinError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceBinError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace: expected {expected} bytes, found {actual}"
                )
            }
            TraceBinError::ChecksumMismatch => write!(f, "trace checksum mismatch"),
            TraceBinError::BadOpcode { record, code } => {
                write!(f, "record {record}: unknown opcode encoding {code:#04x}")
            }
            TraceBinError::TrailingBytes => write!(f, "trailing bytes after the checksum"),
            TraceBinError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceBinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceBinError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceBinError {
    fn from(e: io::Error) -> Self {
        TraceBinError::Io(e)
    }
}

/// Append one fixed-width record to `out`.
fn push_record(out: &mut Vec<u8>, i: &Instruction) {
    out.push(i.opcode.encoding());
    out.extend_from_slice(&u64::from(i.a).to_le_bytes());
    out.extend_from_slice(&u64::from(i.b).to_le_bytes());
}

/// Decode one fixed-width record from `bytes` (must be exactly
/// [`RECORD_BYTES`] long); `record` is the 0-based index for error
/// reporting.
fn read_record(bytes: &[u8], record: usize) -> Result<Instruction, TraceBinError> {
    debug_assert_eq!(bytes.len(), RECORD_BYTES);
    let opcode = Opcode::from_encoding(bytes[0]).ok_or(TraceBinError::BadOpcode {
        record,
        code: bytes[0],
    })?;
    let a = u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes"));
    let b = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
    Ok(Instruction::new(opcode, a, b))
}

/// Encode a trace into the binary format.
pub fn encode_trace(trace: &[Instruction]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + trace.len() * RECORD_BYTES + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for i in trace {
        push_record(&mut out, i);
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode a binary trace, verifying magic, version, the declared count
/// and the trailing checksum — truncation and corruption are always
/// errors, never a silently shorter trace.
///
/// # Errors
///
/// Any structural violation yields the corresponding [`TraceBinError`].
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<Instruction>, TraceBinError> {
    decode_from(bytes, bytes.len())
}

/// The one decoder behind [`decode_trace`] and [`read_trace_file`]: read
/// a trace of `len` bytes from `r`. The checks run in a fixed order, so
/// the same bytes give the same error from a slice or a file: the length
/// against the header (`Truncated`), magic, version, the count, the
/// length against the count (`Truncated`, then `TrailingBytes`), then,
/// once every byte is read, the checksum before any bad opcode.
fn decode_from(mut r: impl Read, len: usize) -> Result<Vec<Instruction>, TraceBinError> {
    if len < HEADER_BYTES {
        return Err(TraceBinError::Truncated {
            expected: HEADER_BYTES + 8,
            actual: len,
        });
    }
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    if &header[0..8] != MAGIC {
        return Err(TraceBinError::BadMagic);
    }
    let version = word(8);
    if version != VERSION {
        return Err(TraceBinError::BadVersion(version));
    }
    let count = usize::try_from(word(16)).map_err(|_| TraceBinError::Truncated {
        expected: usize::MAX,
        actual: len,
    })?;
    let expected = HEADER_BYTES
        .saturating_add(count.saturating_mul(RECORD_BYTES))
        .saturating_add(8);
    if len < expected {
        return Err(TraceBinError::Truncated {
            expected,
            actual: len,
        });
    }
    if len > expected {
        return Err(TraceBinError::TrailingBytes);
    }
    // The length check bounds `count` by the bytes really present, so
    // the reservation is never larger than the file warrants.
    let mut out = Vec::with_capacity(count);
    let mut sum = fnv1a64(&header);
    // A bad opcode is reported only once the checksum has passed: the
    // first one is kept while the rest of the body is still summed.
    let mut bad_opcode = None;
    let mut chunk = vec![0u8; count.min(CHUNK_RECORDS) * RECORD_BYTES];
    let mut first = 0;
    while first < count {
        let n = (count - first).min(CHUNK_RECORDS);
        let bytes = &mut chunk[..n * RECORD_BYTES];
        r.read_exact(bytes)?;
        sum = fnv1a64_seeded(bytes, sum);
        if bad_opcode.is_none() {
            for (k, record) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
                match read_record(record, first + k) {
                    Ok(i) => out.push(i),
                    Err(e) => {
                        bad_opcode = Some(e);
                        break;
                    }
                }
            }
        }
        first += n;
    }
    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer)?;
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(TraceBinError::TrailingBytes);
    }
    if u64::from_le_bytes(trailer) != sum {
        return Err(TraceBinError::ChecksumMismatch);
    }
    match bad_opcode {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Write a binary trace file atomically: the bytes land under a
/// process-unique temp name first and are `rename`d into place, so
/// readers only ever observe complete files.
///
/// # Errors
///
/// Propagates I/O failures (the temp file is cleaned up on error).
pub fn write_trace_file(path: &Path, trace: &[Instruction]) -> io::Result<()> {
    write_atomic(path, &encode_trace(trace))
}

/// Write `bytes` to `path` (creating its directory) under a temp name
/// unique to this process and call, then `rename` into place, so a
/// reader never sees, and a killed writer never leaves, a partial file
/// at `path`. Trace files, grid-cache artifacts and run manifests all
/// go through here.
///
/// # Errors
///
/// Propagates I/O failures (the temp file is cleaned up on error).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp-{}-{n}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Read and decode a binary trace file, chunk by chunk from the open
/// file: the same checks and errors as [`decode_trace`] on its bytes,
/// without ever holding those bytes whole.
///
/// # Errors
///
/// Propagates I/O failures and every decode error of [`decode_trace`].
pub fn read_trace_file(path: &Path) -> Result<Vec<Instruction>, TraceBinError> {
    let file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
    decode_from(file, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceGenerator};

    type Decoded = Result<Vec<Instruction>, TraceBinError>;

    /// A decode result with its error as text, which names the variant
    /// and its fields.
    fn outcome(r: &Decoded) -> Result<&[Instruction], String> {
        r.as_ref().map(Vec::as_slice).map_err(ToString::to_string)
    }

    /// Decode `bytes` from the slice and, through [`read_trace_file`],
    /// from a temp file named by `tag`; both must give the same result,
    /// which is returned.
    fn decode_both(bytes: &[u8], tag: &str) -> Decoded {
        let path = std::env::temp_dir().join(format!("ntc-trace-{tag}-{}.ntt", std::process::id()));
        std::fs::write(&path, bytes).expect("write temp trace");
        let from_file = read_trace_file(&path);
        std::fs::remove_file(&path).ok();
        let from_slice = decode_trace(bytes);
        assert_eq!(
            outcome(&from_file),
            outcome(&from_slice),
            "file and slice decode alike"
        );
        from_slice
    }

    /// Recompute the trailing checksum after a deliberate body edit, so
    /// a later check is the one under test.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn roundtrip_is_exact() {
        let trace = TraceGenerator::new(Benchmark::Mcf, 9).trace(1_000);
        let bytes = encode_trace(&trace);
        assert_eq!(bytes.len(), HEADER_BYTES + 1_000 * RECORD_BYTES + 8);
        assert_eq!(decode_both(&bytes, "roundtrip").expect("decode"), trace);
        // The empty trace is a valid (if useless) artifact too.
        let empty = encode_trace(&[]);
        assert_eq!(
            decode_both(&empty, "roundtrip").expect("decode empty"),
            Vec::new()
        );
    }

    #[test]
    fn chunk_edges_decode_exactly() {
        // One record short of, exactly at and one past a chunk, and
        // several chunks with a partial one at the end.
        for n in [
            CHUNK_RECORDS - 1,
            CHUNK_RECORDS,
            CHUNK_RECORDS + 1,
            3 * CHUNK_RECORDS + 7,
        ] {
            let trace = TraceGenerator::new(Benchmark::Parser, 6).trace(n);
            assert_eq!(
                decode_both(&encode_trace(&trace), "chunks").expect("decode"),
                trace
            );
        }
    }

    #[test]
    fn truncation_is_always_detected() {
        let trace = TraceGenerator::new(Benchmark::Gzip, 4).trace(64);
        let bytes = encode_trace(&trace);
        // Every proper prefix must fail — never parse as a shorter trace.
        for len in 0..bytes.len() {
            let e = decode_both(&bytes[..len], "truncated").expect_err("prefix rejected");
            assert!(
                matches!(e, TraceBinError::Truncated { .. }),
                "prefix of {len} bytes: {e}"
            );
        }
    }

    #[test]
    fn corruption_is_always_detected() {
        let trace = TraceGenerator::new(Benchmark::Gap, 2).trace(32);
        let mut bytes = encode_trace(&trace);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(
            matches!(
                decode_both(&bytes, "flipped"),
                Err(TraceBinError::ChecksumMismatch)
            ),
            "flipped byte caught"
        );
        // Appending a byte is trailing garbage.
        let mut extended = encode_trace(&trace);
        extended.push(0);
        assert!(matches!(
            decode_both(&extended, "trailing"),
            Err(TraceBinError::TrailingBytes)
        ));
        // So is a reader that runs on past the length it was given.
        assert!(matches!(
            decode_from(&extended[..], extended.len() - 1),
            Err(TraceBinError::TrailingBytes)
        ));
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(4);
        let mut bytes = encode_trace(&trace);
        bytes[0] = b'X';
        assert!(matches!(
            decode_both(&bytes, "magic"),
            Err(TraceBinError::BadMagic)
        ));
        let mut bytes = encode_trace(&trace);
        bytes[8] = 99;
        // The checksum is over the (now mutated) body, so recompute it to
        // isolate the version check.
        reseal(&mut bytes);
        assert!(matches!(
            decode_both(&bytes, "version"),
            Err(TraceBinError::BadVersion(99))
        ));
    }

    #[test]
    fn bad_opcode_encoding_is_rejected() {
        let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(4);
        let mut bytes = encode_trace(&trace);
        bytes[HEADER_BYTES] = 0xFF; // first record's opcode byte
        reseal(&mut bytes);
        assert!(matches!(
            decode_both(&bytes, "opcode"),
            Err(TraceBinError::BadOpcode {
                record: 0,
                code: 0xFF
            })
        ));
    }

    #[test]
    fn a_checksum_mismatch_outranks_a_bad_opcode() {
        // A corrupted opcode byte under the old checksum is corruption
        // first: the opcode is never trusted before the sum is.
        let trace = TraceGenerator::new(Benchmark::Bzip2, 8).trace(3 * CHUNK_RECORDS);
        for record in [0, CHUNK_RECORDS + 5] {
            let mut bytes = encode_trace(&trace);
            bytes[HEADER_BYTES + record * RECORD_BYTES] = 0xFF;
            assert!(
                matches!(
                    decode_both(&bytes, "unsealed"),
                    Err(TraceBinError::ChecksumMismatch)
                ),
                "record {record}"
            );
        }
    }

    #[test]
    fn file_roundtrip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join(format!("ntc-trace-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.ntt");
        let trace = TraceGenerator::new(Benchmark::Vortex, 3).trace(256);
        write_trace_file(&path, &trace).expect("write");
        assert_eq!(read_trace_file(&path).expect("read"), trace);
        // No temp litter left behind.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
