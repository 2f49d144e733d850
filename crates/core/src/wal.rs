//! The per-tenant delta write-ahead log: binary framing, scanning, and the
//! torn-tail policy.
//!
//! A durable [`SessionHub`](crate::SessionHub) appends every validated
//! [`Delta`] to its tenant's WAL **before** acknowledging the apply, so a
//! crash between the ack and the next checkpoint loses nothing: recovery
//! ([`crate::recover`]) replays the log tail on top of the last checkpoint.
//!
//! # File format
//!
//! ```text
//! ┌──────────────────────┬──────────────────────────────┐
//! │ header (16 bytes)    │ records …                    │
//! ├──────────────────────┼──────────────────────────────┤
//! │ "BGKWAL1\n" magic    │ len: u32 LE  (payload bytes) │
//! │ base_version: u64 LE │ payload                      │
//! │                      │ checksum: u64 LE (FNV-1a 64) │
//! └──────────────────────┴──────────────────────────────┘
//! ```
//!
//! `base_version` is the session version the log starts from: record `i`
//! carries the delta that produced version `base + i + 1` — except after a
//! crash between a checkpoint and its log rotation, which is why every
//! record payload also carries its own sequence number and replay skips
//! records at or below the checkpoint version. A record payload is the
//! sequence number followed by the delta in canonical (sorted-delete) form:
//!
//! ```text
//! seq: u64 | n_deletes: u64 | deletes: u64 × n  |
//! n_inserts: u64 | per insert: qi codes (u32 × d) then sensitive (u32)
//! ```
//!
//! All integers are little-endian; `d` comes from the tenant's schema.
//!
//! # Torn-tail policy
//!
//! [`scan`] verifies every record's checksum. A damaged record that is the
//! **last** thing in the file (its frame runs past end-of-file, or its
//! checksum fails and nothing follows it) is a *torn write* — the crash hit
//! mid-append — so the scan stops there, reports
//! [`truncated`](WalScan::truncated), and recovery truncates the file back
//! to [`good_len`](WalScan::good_len) and serves the record prefix. A
//! damaged record with **more bytes after it** cannot be a torn append;
//! that is corruption, surfaced as [`WalError::Corrupt`] so the tenant is
//! reported unrecoverable instead of silently serving a wrong prefix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use bgkanon_data::{Delta, DeltaBuilder, Schema};

/// Magic first 8 bytes of a WAL file (version 1 of the format).
pub const WAL_MAGIC: &[u8; 8] = b"BGKWAL1\n";

/// Header length: magic plus the base version.
const HEADER_LEN: u64 = 16;

/// When a durable hub syncs the log to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record, before the apply is
    /// acknowledged — a crash never loses an acked delta. The default.
    Always,
    /// Never sync explicitly; the OS flushes when it pleases. A crash can
    /// lose a suffix of acked deltas (recovery still comes back to a
    /// *consistent* earlier version). For bulk loads and benchmarks.
    Never,
}

/// Durability knobs for [`SessionHub::open_with`](crate::SessionHub::open_with).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When to `fsync` the WAL (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Write a checkpoint (and rotate the WAL) every this many applied
    /// deltas; `0` disables checkpointing, leaving recovery to replay the
    /// whole log from the genesis table.
    pub checkpoint_every: u64,
    /// After recovering a tenant, re-publish its table from scratch and
    /// verify the recovered partition is bit-identical, reporting the
    /// tenant unrecoverable on any mismatch. Costs a full publish per
    /// tenant at open, so it is opt-in (the crash-injection suite runs
    /// with it on).
    pub verify_on_open: bool,
    /// Soft ceiling on the hub's accounted resident bytes. When the
    /// rolled-up gauge crosses it, the hub demotes the coldest tenants to
    /// their durable form until the gauge is back under the low watermark
    /// (⅞ of the ceiling). `None` (the default) never evicts.
    pub max_resident_bytes: Option<usize>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            sync: SyncPolicy::Always,
            checkpoint_every: 32,
            verify_on_open: false,
            max_resident_bytes: None,
        }
    }
}

/// Errors from reading a WAL.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally damaged log: bad header, or a damaged record that is
    /// *not* the file's torn tail (see the module docs for the policy).
    Corrupt {
        /// Byte offset of the damaged frame.
        offset: u64,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the record checksum. Not cryptographic; it detects
/// the torn and bit-rotted writes the durability layer defends against.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encode one record payload: the sequence number (the session version this
/// delta produces) followed by the delta in canonical form.
pub fn encode_record(seq: u64, delta: &Delta) -> Vec<u8> {
    let d = delta.schema().qi_count();
    let mut payload = Vec::with_capacity(
        8 + 8 + delta.delete_count() * 8 + 8 + delta.insert_count() * (d + 1) * 4,
    );
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&(delta.delete_count() as u64).to_le_bytes());
    for &row in delta.deletes() {
        payload.extend_from_slice(&(row as u64).to_le_bytes());
    }
    payload.extend_from_slice(&(delta.insert_count() as u64).to_le_bytes());
    for i in 0..delta.insert_count() {
        for &code in delta.insert_qi(i) {
            payload.extend_from_slice(&code.to_le_bytes());
        }
        payload.extend_from_slice(&delta.insert_sensitive(i).to_le_bytes());
    }
    payload
}

/// Decode a record payload back into `(seq, Delta)`, validating every
/// inserted row against `schema`. `offset` is the payload's file offset,
/// used only for error context.
pub fn decode_record(
    payload: &[u8],
    schema: &Arc<Schema>,
    offset: u64,
) -> Result<(u64, Delta), WalError> {
    fn corrupt(offset: u64, reason: &str) -> WalError {
        WalError::Corrupt {
            offset,
            reason: reason.to_owned(),
        }
    }
    fn take_u64(payload: &[u8], pos: &mut usize, offset: u64) -> Result<u64, WalError> {
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| corrupt(offset, "payload shorter than its own counts"))?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&payload[*pos..end]);
        *pos = end;
        Ok(u64::from_le_bytes(buf))
    }
    fn take_u32(payload: &[u8], pos: &mut usize, offset: u64) -> Result<u32, WalError> {
        let end = pos
            .checked_add(4)
            .filter(|&e| e <= payload.len())
            .ok_or_else(|| corrupt(offset, "payload shorter than its own counts"))?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&payload[*pos..end]);
        *pos = end;
        Ok(u32::from_le_bytes(buf))
    }
    let mut pos = 0usize;
    let seq = take_u64(payload, &mut pos, offset)?;
    let n_deletes = take_u64(payload, &mut pos, offset)?;
    let mut builder = DeltaBuilder::new(Arc::clone(schema));
    for _ in 0..n_deletes {
        let row = take_u64(payload, &mut pos, offset)?;
        builder.delete(
            usize::try_from(row).map_err(|_| corrupt(offset, "delete row overflows usize"))?,
        );
    }
    let n_inserts = take_u64(payload, &mut pos, offset)?;
    let d = schema.qi_count();
    let mut qi = vec![0u32; d];
    for _ in 0..n_inserts {
        for slot in qi.iter_mut() {
            *slot = take_u32(payload, &mut pos, offset)?;
        }
        let sensitive = take_u32(payload, &mut pos, offset)?;
        builder
            .insert_codes(&qi, sensitive)
            .map_err(|e| WalError::Corrupt {
                offset,
                reason: format!("invalid inserted row: {e}"),
            })?;
    }
    if pos != payload.len() {
        return Err(corrupt(offset, "trailing bytes after the last insert"));
    }
    Ok((seq, builder.build()))
}

/// The result of [`scan`]ning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// The header's base version.
    pub base: u64,
    /// Every intact record's `(payload offset, payload)` in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// File length up to and including the last intact record — the length
    /// recovery truncates to when the tail was torn.
    pub good_len: u64,
    /// True when a torn tail was detected (and excluded from `records`).
    pub truncated: bool,
}

/// Read and verify a whole WAL file, applying the torn-tail policy from the
/// module docs: a damaged *final* frame is reported via
/// [`truncated`](WalScan::truncated); a damaged frame with bytes after it
/// is a [`WalError::Corrupt`].
pub fn scan(path: &Path) -> Result<WalScan, WalError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    scan_bytes(&data)
}

/// [`scan`] over an in-memory image of the file.
fn scan_bytes(data: &[u8]) -> Result<WalScan, WalError> {
    if data.len() < HEADER_LEN as usize || &data[..8] != WAL_MAGIC {
        return Err(WalError::Corrupt {
            offset: 0,
            reason: format!(
                "missing `{}` header",
                String::from_utf8_lossy(WAL_MAGIC).trim_end()
            ),
        });
    }
    let mut base_bytes = [0u8; 8];
    base_bytes.copy_from_slice(&data[8..16]);
    let base = u64::from_le_bytes(base_bytes);
    let size = data.len() as u64;
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    while offset < size {
        // Frame = len (4) | payload (len) | checksum (8). Any frame that
        // runs past end-of-file is a torn append: stop before it.
        let torn = |records, good_len| {
            Ok(WalScan {
                base,
                records,
                good_len,
                truncated: true,
            })
        };
        if size - offset < 4 {
            return torn(records, offset);
        }
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&data[offset as usize..offset as usize + 4]);
        let len = u32::from_le_bytes(len_bytes) as u64;
        let Some(frame_end) = offset.checked_add(4 + len + 8) else {
            return torn(records, offset);
        };
        if frame_end > size {
            return torn(records, offset);
        }
        let payload_at = (offset + 4) as usize;
        let payload = &data[payload_at..payload_at + len as usize];
        let mut sum_bytes = [0u8; 8];
        sum_bytes.copy_from_slice(&data[payload_at + len as usize..frame_end as usize]);
        let stored = u64::from_le_bytes(sum_bytes);
        if fnv1a64(payload) != stored {
            if frame_end == size {
                // Damaged final record: torn write, drop it.
                return torn(records, offset);
            }
            return Err(WalError::Corrupt {
                offset,
                reason: "record checksum mismatch before end of log".into(),
            });
        }
        records.push((offset + 4, payload.to_vec()));
        offset = frame_end;
    }
    Ok(WalScan {
        base,
        records,
        good_len: offset,
        truncated: false,
    })
}

/// Truncate a WAL (or any file) to `len` bytes and sync the result — how
/// recovery discards a torn tail before reopening the log for appends.
pub fn truncate_to(path: &Path, len: u64) -> std::io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// An open, append-only WAL handle. One lives inside each durable tenant,
/// behind the tenant's `wal` lock.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    sync: SyncPolicy,
}

impl WalWriter {
    /// Create (or overwrite) a WAL at `path` with the given base version,
    /// write its header, and sync it.
    pub fn create(path: &Path, base: u64, sync: SyncPolicy) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&base.to_le_bytes())?;
        file.sync_all()?;
        Ok(WalWriter { file, sync })
    }

    /// Reopen an existing, already-validated WAL for appending. Callers
    /// [`scan`] first (and [`truncate_to`] any torn tail) so the append
    /// point is the end of the last intact record.
    pub fn open_end(path: &Path, sync: SyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter { file, sync })
    }

    /// Append one framed record and, under [`SyncPolicy::Always`], sync it
    /// to stable storage before returning — the "append before ack" step
    /// of a durable apply.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let mut frame = Vec::with_capacity(4 + payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        self.file.write_all(&frame)?;
        if self.sync == SyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgkanon_data::adult;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TMP_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn tmp_path(tag: &str) -> PathBuf {
        let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bgkwal-{}-{n}-{tag}.log", std::process::id()))
    }

    fn sample_delta() -> Delta {
        let t = adult::generate(30, 5);
        let mut b = DeltaBuilder::new(Arc::clone(t.schema()));
        b.delete(3).delete(11);
        b.insert_codes(&t.qi(0), t.sensitive_value(0)).unwrap();
        b.insert_codes(&t.qi(7), t.sensitive_value(7)).unwrap();
        b.build()
    }

    #[test]
    fn record_roundtrip_preserves_delta() {
        let delta = sample_delta();
        let payload = encode_record(42, &delta);
        let (seq, decoded) = decode_record(&payload, delta.schema(), 0).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded.deletes(), delta.deletes());
        assert_eq!(decoded.insert_count(), delta.insert_count());
        for i in 0..delta.insert_count() {
            assert_eq!(decoded.insert_qi(i), delta.insert_qi(i));
            assert_eq!(decoded.insert_sensitive(i), delta.insert_sensitive(i));
        }
        // Re-encoding the decoded delta is byte-identical (canonical form).
        assert_eq!(encode_record(42, &decoded), payload);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let delta = sample_delta();
        let schema = Arc::clone(delta.schema());
        let payload = encode_record(1, &delta);
        // Truncated payload.
        assert!(decode_record(&payload[..payload.len() - 2], &schema, 0).is_err());
        // Trailing garbage.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_record(&long, &schema, 0).is_err());
        // Out-of-domain insert code.
        let mut bad = payload.clone();
        let qi_start = payload.len() - (schema.qi_count() + 1) * 4;
        bad[qi_start..qi_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_record(&bad, &schema, 7),
            Err(WalError::Corrupt { offset: 7, .. })
        ));
    }

    /// Valid record payloads the fuzz property mutates: a mixed delta,
    /// deletes only, inserts only, and the empty delta.
    fn record_seeds() -> Vec<Vec<u8>> {
        let mixed = sample_delta();
        let schema = Arc::clone(mixed.schema());
        let t = adult::generate(30, 5);
        let mut deletes = DeltaBuilder::new(Arc::clone(&schema));
        deletes.delete(0).delete(29);
        let mut inserts = DeltaBuilder::new(Arc::clone(&schema));
        inserts
            .insert_codes(&t.qi(4), t.sensitive_value(4))
            .unwrap();
        let empty = DeltaBuilder::new(schema);
        [mixed, deletes.build(), inserts.build(), empty.build()]
            .iter()
            .enumerate()
            .map(|(seq, delta)| encode_record(seq as u64 + 1, delta))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Mutated valid records — a count field set near `u64::MAX`, bit
        /// flips, truncation — decode to a `WalError` or to a delta whose
        /// canonical re-encoding decodes back to itself; never a panic.
        #[test]
        fn mutated_records_decode_or_fail_cleanly(
            pick in 0usize..64,
            count_field in 0u8..3,
            below_max in 0u64..4,
            flips in proptest::collection::vec((0usize..1 << 16, 0u8..8), 0..4),
            cut in 0usize..1 << 16,
            truncate in 0u8..2,
        ) {
            let seeds = record_seeds();
            let schema = Arc::clone(sample_delta().schema());
            let mut bytes = seeds[pick % seeds.len()].clone();
            let n_deletes = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
            let count_at = [None, Some(8), Some(16 + 8 * n_deletes)][usize::from(count_field)];
            if let Some(at) = count_at {
                bytes[at..at + 8].copy_from_slice(&(u64::MAX - below_max).to_le_bytes());
            }
            for (at, bit) in flips {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            if truncate == 1 {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            if let Ok((seq, delta)) = decode_record(&bytes, &schema, 0) {
                let canonical = encode_record(seq, &delta);
                let (again_seq, again) = decode_record(&canonical, &schema, 0).unwrap();
                proptest::prop_assert_eq!(again_seq, seq);
                proptest::prop_assert_eq!(encode_record(again_seq, &again), canonical);
            }
        }
    }

    #[test]
    fn writer_scan_roundtrip() {
        let path = tmp_path("roundtrip");
        let delta = sample_delta();
        {
            let mut w = WalWriter::create(&path, 5, SyncPolicy::Always).unwrap();
            for seq in 6..9u64 {
                w.append(&encode_record(seq, &delta)).unwrap();
            }
        }
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.base, 5);
        assert_eq!(scanned.records.len(), 3);
        assert!(!scanned.truncated);
        for (i, (_, payload)) in scanned.records.iter().enumerate() {
            let (seq, _) = decode_record(payload, delta.schema(), 0).unwrap();
            assert_eq!(seq, 6 + i as u64);
        }
        // Appending after reopen lands after the existing records.
        {
            let mut w = WalWriter::open_end(&path, SyncPolicy::Never).unwrap();
            w.append(&encode_record(9, &delta)).unwrap();
        }
        assert_eq!(scan(&path).unwrap().records.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncation_recovers() {
        let path = tmp_path("torn");
        let delta = sample_delta();
        {
            let mut w = WalWriter::create(&path, 0, SyncPolicy::Always).unwrap();
            for seq in 1..4u64 {
                w.append(&encode_record(seq, &delta)).unwrap();
            }
        }
        let full = scan(&path).unwrap();
        let whole = std::fs::read(&path).unwrap();
        // A file ending exactly at a record boundary is clean.
        let last_start = full.records[2].0 - 4;
        let clean = scan_bytes(&whole[..last_start as usize]).unwrap();
        assert!(!clean.truncated);
        assert_eq!(clean.records.len(), 2);
        // Cut at every byte inside the final frame: always a torn tail
        // preserving exactly the first two records.
        for cut in (last_start + 1)..whole.len() as u64 {
            let scanned = scan_bytes(&whole[..cut as usize]).unwrap();
            assert!(scanned.truncated, "cut at {cut}");
            assert_eq!(scanned.records.len(), 2, "cut at {cut}");
            assert_eq!(scanned.good_len, last_start, "cut at {cut}");
        }
        // Truncating the file to good_len yields a clean log.
        std::fs::write(&path, &whole[..(last_start as usize + 3)]).unwrap();
        let scanned = scan(&path).unwrap();
        assert!(scanned.truncated);
        truncate_to(&path, scanned.good_len).unwrap();
        let clean = scan(&path).unwrap();
        assert!(!clean.truncated);
        assert_eq!(clean.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_final_record_is_torn_mid_log_is_corrupt() {
        let path = tmp_path("flip");
        let delta = sample_delta();
        {
            let mut w = WalWriter::create(&path, 0, SyncPolicy::Always).unwrap();
            for seq in 1..4u64 {
                w.append(&encode_record(seq, &delta)).unwrap();
            }
        }
        let whole = std::fs::read(&path).unwrap();
        let full = scan_bytes(&whole).unwrap();
        // Flip a payload byte of the final record: damaged tail → truncate.
        let mut flipped = whole.clone();
        let last_payload = full.records[2].0 as usize;
        flipped[last_payload] ^= 0x40;
        let scanned = scan_bytes(&flipped).unwrap();
        assert!(scanned.truncated);
        assert_eq!(scanned.records.len(), 2);
        // Flip a payload byte of the first record: corruption before the
        // end of the log → hard error, never a silent prefix.
        let mut flipped = whole.clone();
        let first_payload = full.records[0].0 as usize;
        flipped[first_payload] ^= 0x40;
        assert!(matches!(
            scan_bytes(&flipped),
            Err(WalError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_is_corrupt() {
        assert!(matches!(
            scan_bytes(b"NOTAWAL!\0\0\0\0\0\0\0\0"),
            Err(WalError::Corrupt { offset: 0, .. })
        ));
        assert!(matches!(
            scan_bytes(b"BGKWAL1\n"),
            Err(WalError::Corrupt { offset: 0, .. })
        ));
        let err = WalError::Corrupt {
            offset: 3,
            reason: "x".into(),
        };
        assert!(err.to_string().contains("byte 3"));
        assert!(std::error::Error::source(&WalError::Io(std::io::Error::other("x"))).is_some());
    }
}
