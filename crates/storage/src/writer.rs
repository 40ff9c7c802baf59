//! Join-output writers in the paper's text format.
//!
//! §VI: "Output size is measured by the size in bytes of the resulting
//! output text file. Each data point is zero-padded to ensure it is
//! represented by the same fixed number of bits. A link is written as a
//! single line in the output file containing the two data points, e.g.
//! `0001 0002`, while a cluster is written as the line
//! `0001 0002 0003...`."
//!
//! [`OutputWriter`] reproduces exactly that: fixed-width zero-padded
//! record ids, space-separated, newline-terminated lines. The sink is
//! pluggable so experiments can count bytes without materializing output
//! ([`CountingSink`]), keep it for inspection ([`VecSink`]) or write a
//! real file ([`FileSink`]). All writes are fallible: a full disk or an
//! injected fault surfaces as a [`StorageError`] instead of a panic, so
//! a join can stop cleanly at a row boundary.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::error::{IoOp, StorageError};
use crate::fault::{FaultInjector, FaultPolicy};

/// Where formatted output bytes go.
pub trait OutputSink {
    /// Consumes a chunk of formatted output.
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError>;
    /// Total bytes consumed so far.
    fn bytes_written(&self) -> u64;
    /// Flushes buffered state (no-op for in-memory sinks).
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Discards output, keeping only the byte count. The default for
/// experiments: output size is measured without disk traffic.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    bytes: u64,
}

impl CountingSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OutputSink for CountingSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Buffers output in memory (tests, small runs).
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    buf: Vec<u8>,
}

impl VecSink {
    /// A fresh in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated output bytes.
    pub fn contents(&self) -> &[u8] {
        &self.buf
    }

    /// The accumulated output as UTF-8 (the format is pure ASCII).
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf).unwrap_or("<non-ascii output>")
    }
}

impl OutputSink for VecSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.buf.len() as u64
    }
}

/// Bytes a [`FileSink`] gathers before each `write(2)`. Eight times
/// `BufWriter`'s default: a 105 MB output file took about half the time
/// to write in 64 KiB calls as in 8 KiB ones, and a 1 MiB buffer was no
/// faster but lengthened the stall at each flush, the longest gap a
/// streaming reader sees between rows.
const FILE_BUFFER_BYTES: usize = 64 * 1024;

/// Writes output to a real file through a 64 KiB buffer
/// (`FILE_BUFFER_BYTES`).
#[derive(Debug)]
pub struct FileSink {
    writer: BufWriter<File>,
    bytes: u64,
}

impl FileSink {
    /// Creates (truncates) `path` for writing.
    ///
    /// # Errors
    /// Returns [`StorageError::Io`] when the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let file = File::create(path).map_err(|e| StorageError::io_at(IoOp::Write, path, &e))?;
        Ok(FileSink { writer: BufWriter::with_capacity(FILE_BUFFER_BYTES, file), bytes: 0 })
    }
}

impl OutputSink for FileSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.writer.write_all(bytes).map_err(|e| StorageError::io(IoOp::Write, &e))?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.writer.flush().map_err(|e| StorageError::io(IoOp::Flush, &e))
    }
}

/// A sink decorator that injects faults per a [`FaultPolicy`] before
/// delegating — lets tests drive the engine's error path on output
/// writes without a real failing device.
#[derive(Debug)]
pub struct FaultySink<S> {
    inner: S,
    faults: FaultInjector,
}

impl<S: OutputSink> FaultySink<S> {
    /// Wraps `inner`, failing writes per `policy`.
    pub fn new(inner: S, policy: FaultPolicy) -> Self {
        FaultySink { inner, faults: FaultInjector::new(policy) }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.faults_injected()
    }
}

impl<S: OutputSink> OutputSink for FaultySink<S> {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.faults.before_write()?;
        self.inner.write_bytes(bytes)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }
}

/// The two ASCII digits of every value below 100, `"00"` to `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// The widest id field: [`OutputWriter::new`] accepts widths up to 20,
/// and a `u32` has at most 10 digits.
const MAX_ID_WIDTH: usize = 20;

/// Writes `id` in decimal filling all of `out`, from the right, two
/// digits per step; places left of the number's own digits get zeros.
/// `out` must be at least as long as the number (see [`id_len`]).
#[inline]
fn encode_id(out: &mut [u8], mut id: u32) {
    let mut pairs = out.rchunks_exact_mut(2);
    for pair in &mut pairs {
        let at = (id % 100) as usize * 2;
        pair.copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
        id /= 100;
    }
    if let [digit] = pairs.into_remainder() {
        *digit = b'0' + (id % 10) as u8;
    }
}

/// Decimal digits of `id`.
fn digits(id: u32) -> usize {
    id.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes `id` takes at `width`: `width`, or all of its digits when it
/// has more — an id too wide for the field is written unpadded, never
/// truncated. `limit` is `10^width`, saturated at `u64::MAX`.
#[inline]
fn id_len(id: u32, width: usize, limit: u64) -> usize {
    if u64::from(id) < limit {
        width
    } else {
        digits(id)
    }
}

/// Appends `id` to `line` as [`OutputWriter`] writes it, and as
/// `format!("{id:0width$}")` does: zero-padded to `width` digits, or
/// unpadded when it has more.
pub fn push_padded_id(line: &mut Vec<u8>, id: u32, width: usize) {
    let start = line.len();
    line.resize(start + width.max(digits(id)), 0);
    encode_id(&mut line[start..], id);
}

/// Formats links and groups in the paper's fixed-width text format.
///
/// Each row reaches the sink in exactly one
/// [`OutputSink::write_bytes`] call, so a sink sees rows as the join
/// emits them — nothing is batched between the join and its reader.
#[derive(Debug)]
pub struct OutputWriter<S> {
    sink: S,
    width: usize,
    /// `10^width`: ids below it take the fixed-width path.
    limit: u64,
    links: u64,
    groups: u64,
    scratch: Vec<u8>,
}

impl<S: OutputSink> OutputWriter<S> {
    /// Creates a writer whose ids are zero-padded to `width` digits.
    ///
    /// Use [`OutputWriter::id_width_for`] to derive the width from the
    /// dataset size, as the paper does ("the same fixed number of bits").
    pub fn new(sink: S, width: usize) -> Self {
        assert!((1..=MAX_ID_WIDTH).contains(&width), "id width out of range");
        OutputWriter {
            sink,
            width,
            limit: 10u64.checked_pow(width as u32).unwrap_or(u64::MAX),
            links: 0,
            groups: 0,
            scratch: Vec::with_capacity(256),
        }
    }

    /// The minimal width that fits every id of a dataset with `n` records.
    pub fn id_width_for(n: usize) -> usize {
        let mut width = 1;
        let mut bound = 10usize;
        while n > bound {
            width += 1;
            bound = bound.saturating_mul(10);
        }
        width
    }

    /// Writes one link line: two padded ids separated by a space.
    ///
    /// # Errors
    /// Returns [`StorageError`] when the sink rejects the write.
    pub fn write_link(&mut self, a: u32, b: u32) -> Result<(), StorageError> {
        let la = id_len(a, self.width, self.limit);
        let lb = id_len(b, self.width, self.limit);
        let mut line = [0u8; 2 * MAX_ID_WIDTH + 2];
        let (first, rest) = line.split_at_mut(la);
        encode_id(first, a);
        rest[0] = b' ';
        encode_id(&mut rest[1..=lb], b);
        rest[lb + 1] = b'\n';
        self.sink.write_bytes(&line[..la + lb + 2])?;
        self.links += 1;
        Ok(())
    }

    /// Writes one group line: every member id, space separated.
    ///
    /// An empty group is reported as [`StorageError::EmptyGroupRow`] —
    /// the join algorithms never emit one.
    ///
    /// # Errors
    /// Returns [`StorageError::EmptyGroupRow`] for an empty group and
    /// any sink error otherwise.
    pub fn write_group(&mut self, ids: &[u32]) -> Result<(), StorageError> {
        if ids.is_empty() {
            return Err(StorageError::EmptyGroupRow);
        }
        let (width, limit) = (self.width, self.limit);
        // `k·(width+1)` bytes when every id fits its field; each space
        // between ids, and the final newline, is already in place.
        let len = ids.iter().map(|&id| id_len(id, width, limit) + 1).sum();
        self.scratch.clear();
        self.scratch.resize(len, b' ');
        let mut at = 0;
        for &id in ids {
            let n = id_len(id, width, limit);
            encode_id(&mut self.scratch[at..at + n], id);
            at += n + 1;
        }
        self.scratch[len - 1] = b'\n';
        self.sink.write_bytes(&self.scratch)?;
        self.groups += 1;
        Ok(())
    }

    /// Number of link lines written.
    pub fn links_written(&self) -> u64 {
        self.links
    }

    /// Number of group lines written.
    pub fn groups_written(&self) -> u64 {
        self.groups
    }

    /// Total output bytes so far.
    pub fn bytes_written(&self) -> u64 {
        self.sink.bytes_written()
    }

    /// Flushes and returns the sink.
    ///
    /// # Errors
    /// Returns [`StorageError`] when the final flush fails.
    pub fn finish(mut self) -> Result<S, StorageError> {
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Borrow the sink (e.g. to inspect a [`VecSink`]).
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_format_matches_paper_example() {
        let mut w = OutputWriter::new(VecSink::new(), 4);
        w.write_link(1, 2).unwrap();
        assert_eq!(w.sink().as_str(), "0001 0002\n");
        assert_eq!(w.links_written(), 1);
        assert_eq!(w.bytes_written(), 10);
    }

    #[test]
    fn group_format_matches_paper_example() {
        let mut w = OutputWriter::new(VecSink::new(), 4);
        w.write_group(&[1, 2, 3]).unwrap();
        assert_eq!(w.sink().as_str(), "0001 0002 0003\n");
        assert_eq!(w.groups_written(), 1);
        assert_eq!(w.bytes_written(), 15);
    }

    #[test]
    fn fixed_width_padding() {
        let mut w = OutputWriter::new(VecSink::new(), 6);
        w.write_link(0, 123456).unwrap();
        assert_eq!(w.sink().as_str(), "000000 123456\n");
        // Wider-than-width ids are not truncated.
        let mut w = OutputWriter::new(VecSink::new(), 2);
        w.write_link(12345, 7).unwrap();
        assert_eq!(w.sink().as_str(), "12345 07\n");
    }

    #[test]
    fn ids_match_format_at_every_width() {
        let ids = [0, 1, 9, 10, 99, 100, 12_345, 999_999, 1_000_000, 4_000_000_000, u32::MAX];
        for width in 1..=20 {
            for &a in &ids {
                for &b in &ids {
                    let mut w = OutputWriter::new(VecSink::new(), width);
                    w.write_link(a, b).unwrap();
                    w.write_group(&[b, a, b]).unwrap();
                    let want =
                        format!("{a:0width$} {b:0width$}\n{b:0width$} {a:0width$} {b:0width$}\n");
                    assert_eq!(w.sink().as_str(), want, "width {width}");
                }
                let mut line = b"x".to_vec();
                push_padded_id(&mut line, a, width);
                assert_eq!(line, format!("x{a:0width$}").into_bytes(), "width {width}");
            }
        }
        let mut line = Vec::new();
        push_padded_id(&mut line, 0, 0);
        assert_eq!(line, b"0", "width 0 writes the digits, as format! does");
    }

    #[test]
    fn byte_counts_are_deterministic() {
        // A link line is 2*width + 2 bytes; a k-group is k*width + k.
        let width = 5;
        let mut w = OutputWriter::new(CountingSink::new(), width);
        w.write_link(1, 2).unwrap();
        assert_eq!(w.bytes_written(), (2 * width + 2) as u64);
        let before = w.bytes_written();
        w.write_group(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(w.bytes_written() - before, (7 * width + 7) as u64);
    }

    #[test]
    fn id_width_for_sizes() {
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(0), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(9), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(10), 1);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(11), 2);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(27_000), 5);
        assert_eq!(OutputWriter::<CountingSink>::id_width_for(1_500_000), 7);
    }

    #[test]
    fn empty_group_is_a_typed_error() {
        let mut w = OutputWriter::new(CountingSink::new(), 4);
        assert_eq!(w.write_group(&[]).unwrap_err(), StorageError::EmptyGroupRow);
        assert_eq!(w.groups_written(), 0, "nothing was written");
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("csj_writer_test.txt");
        {
            let mut w = OutputWriter::new(FileSink::create(&path).unwrap(), 3);
            w.write_link(7, 42).unwrap();
            w.write_group(&[1, 2, 3]).unwrap();
            let sink = w.finish().unwrap();
            assert_eq!(sink.bytes_written(), 8 + 12);
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "007 042\n001 002 003\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_matches_vec_sink() {
        let mut count = OutputWriter::new(CountingSink::new(), 4);
        let mut vec = OutputWriter::new(VecSink::new(), 4);
        for i in 0..50u32 {
            count.write_link(i, i * 7 % 97).unwrap();
            vec.write_link(i, i * 7 % 97).unwrap();
            if i % 5 == 0 {
                let g = [i, i + 1, i + 2];
                count.write_group(&g).unwrap();
                vec.write_group(&g).unwrap();
            }
        }
        assert_eq!(count.bytes_written(), vec.bytes_written());
    }

    #[test]
    fn faulty_sink_surfaces_write_errors() {
        let mut w =
            OutputWriter::new(FaultySink::new(VecSink::new(), FaultPolicy::fail_every(2)), 3);
        w.write_link(1, 2).unwrap();
        let err = w.write_link(3, 4).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected { op: IoOp::Write, .. }));
        assert_eq!(w.links_written(), 1, "failed row not counted");
        assert_eq!(w.sink().inner().as_str(), "001 002\n", "failed row not written");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every emitted line parses back to the written ids (round-trip).
        #[test]
        fn lines_roundtrip(
            links in prop::collection::vec((0u32..100_000, 0u32..100_000), 0..50),
            groups in prop::collection::vec(prop::collection::vec(0u32..100_000, 1..20), 0..20),
            width in 1usize..8,
        ) {
            let mut w = OutputWriter::new(VecSink::new(), width);
            for &(a, b) in &links {
                w.write_link(a, b).unwrap();
            }
            for g in &groups {
                w.write_group(g).unwrap();
            }
            let text = w.sink().as_str().to_string();
            let lines: Vec<&str> = text.lines().collect();
            prop_assert_eq!(lines.len(), links.len() + groups.len());
            for (line, &(a, b)) in lines.iter().zip(&links) {
                let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
                prop_assert_eq!(ids, vec![a, b]);
            }
            for (line, g) in lines[links.len()..].iter().zip(&groups) {
                let ids: Vec<u32> = line.split(' ').map(|t| t.parse().unwrap()).collect();
                prop_assert_eq!(&ids, g);
            }
        }
    }
}
