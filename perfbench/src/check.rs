//! The correctness gate: a proven reference per algorithm, and the
//! comparison every timed pass must pass.
//!
//! Once per run, outside the timed passes, each algorithm's reference
//! output is proven lossless: the set of links it implies must equal
//! the ε-join computed by the sequential SSJ ([`LinkSet`]). Where the
//! input is small enough, `csj_core::verify::verify_lossless` checks it
//! a second time against brute force. Every pass is then compared with
//! the reference on encoded links, rows, bytes and a content hash.

use std::io::Read;
use std::path::Path;

use csj_core::engine::{DirectEmit, Engine, RowSink};
use csj_core::{CsjError, JoinConfig, JoinOutput, OutputItem};
use csj_geom::RecordId;
use csj_index::JoinIndex;
use csj_storage::{OutputSink, OutputWriter, StorageError};

/// FNV-1a over a byte stream; the result does not depend on how the
/// stream was split into chunks.
#[derive(Clone, Copy, Debug)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    /// Feeds `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// What a pass's output must match exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Links written plus links implied by groups, as the join counts
    /// them (a link implied twice counts twice).
    pub encoded_links: u64,
    /// Output rows (link rows + group rows).
    pub rows: u64,
    /// Output bytes.
    pub bytes: u64,
    /// [`StreamHash`] of the output bytes.
    pub hash: u64,
}

impl Fingerprint {
    /// Names the fields on which `self` differs from `reference`.
    pub fn diff(&self, reference: &Fingerprint) -> Option<String> {
        let mut d = Vec::new();
        if self.encoded_links != reference.encoded_links {
            d.push(format!("encoded links {} != {}", self.encoded_links, reference.encoded_links));
        }
        if self.rows != reference.rows {
            d.push(format!("rows {} != {}", self.rows, reference.rows));
        }
        if self.bytes != reference.bytes {
            d.push(format!("bytes {} != {}", self.bytes, reference.bytes));
        }
        if self.hash != reference.hash {
            d.push(format!("content hash {:016x} != {:016x}", self.hash, reference.hash));
        }
        (!d.is_empty()).then(|| d.join(", "))
    }
}

/// An [`OutputSink`] that hashes what it is given.
#[derive(Debug, Default)]
pub struct HashSink {
    hash: StreamHash,
    bytes: u64,
}

impl OutputSink for HashSink {
    fn write_bytes(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.hash.update(bytes);
        self.bytes += bytes.len() as u64;
        Ok(())
    }
    fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

/// Byte count and [`StreamHash`] of a file.
///
/// # Errors
/// Returns the I/O error that stopped the read.
pub fn hash_file(path: &Path) -> std::io::Result<(u64, u64)> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let (mut hash, mut bytes) = (StreamHash::default(), 0u64);
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok((bytes, hash.value()));
        }
        hash.update(&buf[..n]);
        bytes += n as u64;
    }
}

/// The fingerprint of a collected output written with id width `width`.
pub fn fingerprint(out: &JoinOutput, width: usize) -> Fingerprint {
    let mut writer = OutputWriter::new(HashSink::default(), width);
    out.write_to(&mut writer).expect("hashing sink cannot fail");
    let rows = writer.links_written() + writer.groups_written();
    let sink = writer.finish().expect("hashing sink cannot fail");
    Fingerprint {
        encoded_links: out.stats.links_emitted + out.stats.links_in_groups,
        rows,
        bytes: sink.bytes,
        hash: sink.hash.value(),
    }
}

/// A proven reference output of one algorithm.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// What every pass must reproduce.
    pub fingerprint: Fingerprint,
    /// Distinct links the output implies (equal to the ε-join's size).
    pub distinct_links: u64,
    /// The output was proven lossless. A pass that reproduces an
    /// unproven reference reproduces wrong output, so it fails.
    pub proven: bool,
}

impl Reference {
    /// Output bytes per distinct link: the paper's compactness measure.
    pub fn bytes_per_link(&self) -> f64 {
        self.fingerprint.bytes as f64 / self.distinct_links.max(1) as f64
    }
}

/// Collects SSJ's link rows packed as `lo << 32 | hi`.
#[derive(Default)]
struct PairSink(Vec<u64>);

impl RowSink for PairSink {
    fn link_row(&mut self, a: RecordId, b: RecordId) -> Result<(), CsjError> {
        self.0.push(pack(a, b));
        Ok(())
    }
    fn group_row(&mut self, ids: &[RecordId]) -> Result<(), CsjError> {
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                self.0.push(pack(a, b));
            }
        }
        Ok(())
    }
}

fn pack(a: RecordId, b: RecordId) -> u64 {
    (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
}

/// The ε-join as ground truth: every qualifying link `(lo, hi)`, stored
/// as sorted partner lists per `lo` (compressed sparse rows).
#[derive(Debug)]
pub struct LinkSet {
    offsets: Vec<usize>,
    partners: Vec<u32>,
}

impl LinkSet {
    /// Runs the sequential SSJ over `tree` and keeps its links.
    pub fn from_ssj<T: JoinIndex<D>, const D: usize>(tree: &T, cfg: JoinConfig) -> LinkSet {
        let mut engine = Engine::new(tree, cfg, false, DirectEmit, PairSink::default());
        engine.run().expect("collecting SSJ cannot fail");
        let mut pairs = std::mem::take(&mut engine.sink.0);
        pairs.sort_unstable();
        pairs.dedup();
        let n = tree.num_records();
        let mut offsets = vec![0usize; n + 1];
        for &p in &pairs {
            offsets[(p >> 32) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let partners = pairs.iter().map(|&p| p as u32).collect();
        LinkSet { offsets, partners }
    }

    /// Number of links.
    pub fn len(&self) -> u64 {
        self.partners.len() as u64
    }

    /// `true` when no pair qualifies.
    pub fn is_empty(&self) -> bool {
        self.partners.is_empty()
    }

    fn slot(&self, a: RecordId, b: RecordId) -> Option<usize> {
        let (lo, hi) = (a.min(b) as usize, a.max(b));
        if a == b || lo + 1 >= self.offsets.len() {
            return None;
        }
        let (from, to) = (self.offsets[lo], self.offsets[lo + 1]);
        self.partners[from..to].binary_search(&hi).ok().map(|i| from + i)
    }

    /// Proves that the links `out` implies are exactly this set: every
    /// implied link qualifies (correctness), and every qualifying link
    /// is implied (completeness).
    ///
    /// # Errors
    /// Names the first link that is implied but does not qualify, or
    /// qualifies but is not implied.
    pub fn prove(&self, out: &JoinOutput) -> Result<(), String> {
        let mut covered = vec![0u64; self.partners.len().div_ceil(64)];
        let mut mark = |a: RecordId, b: RecordId| -> Result<(), String> {
            let i = self
                .slot(a, b)
                .ok_or_else(|| format!("output implies ({a}, {b}), which is not an ε-link"))?;
            covered[i / 64] |= 1 << (i % 64);
            Ok(())
        };
        for item in &out.items {
            match item {
                OutputItem::Link(a, b) => mark(*a, *b)?,
                OutputItem::Group(ids) => {
                    for (i, &a) in ids.iter().enumerate() {
                        for &b in &ids[i + 1..] {
                            mark(a, b)?;
                        }
                    }
                }
            }
        }
        let missing = (0..self.partners.len()).find(|&i| covered[i / 64] & (1 << (i % 64)) == 0);
        match missing {
            None => Ok(()),
            Some(i) => {
                let lo = self.offsets.partition_point(|&o| o <= i) - 1;
                Err(format!("ε-link ({lo}, {}) is missing from the output", self.partners[i]))
            }
        }
    }
}
