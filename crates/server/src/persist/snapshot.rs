//! Checksummed snapshot of the live subscription set in the colstore v2
//! format (`APCM2COL` magic, see `apcm-colstore`): block-columnar,
//! dictionary-encoded, LZSS-compressed, CRC-framed per block with a
//! footer index. Subscriptions are routed to partitions with the same
//! Fibonacci hash the shards use, columnarized per partition in
//! parallel, and decoded the same way on recovery. *Delta* snapshot
//! files (re-serializing only dirtied partitions) chain onto the last
//! full snapshot through a manifest; a corrupt delta drops the chain
//! back to its last consistent prefix — the churn log (which only full
//! snapshots rotate) covers the rest.
//!
//! A legacy text v1 file (`# apcm-snapshot v1`) is refused with an
//! `InvalidData` I/O error, so the server does not start on it. Treating
//! it as corrupt instead would recover from the log alone and silently
//! drop every subscription older than the last log rotation.
//!
//! Snapshots are written to a temp file, fsynced, then renamed over the
//! live name, so a crash mid-write never damages the previous snapshot.
//! The `persist.snapshot.write` / `persist.snapshot.rename` failpoints
//! guard that path; `colstore.block.write` and `colstore.manifest.rename`
//! fire inside it.

use apcm_bexpr::{parser, Schema, SubId, Subscription};
use apcm_colstore::file as colfile;
use apcm_colstore::manifest as colmanifest;
use apcm_colstore::{ColError, Row, SnapshotKind};
use std::io;
use std::path::Path;

use super::failpoint::{self, FailAction};
use crate::shard::route_partition;

/// File name of the live snapshot inside the persist directory.
pub const SNAPSHOT_FILE: &str = "snapshot.apcm";
const TMP_FILE: &str = "snapshot.apcm.tmp";
/// First line of a text v1 snapshot — a format this version refuses.
const TEXT_V1_HEADER: &[u8] = b"# apcm-snapshot v1";

/// Delta snapshot files live next to the full one; only the manifest
/// gives them meaning (an orphaned delta is ignored).
pub fn delta_file(idx: u32) -> String {
    format!("snapshot-delta-{idx}.col")
}

/// A successfully loaded snapshot (possibly a full+delta chain).
#[derive(Debug)]
pub struct SnapshotData {
    /// Subscriptions live at snapshot time, ascending id order.
    pub subs: Vec<Subscription>,
    /// Highest churn-log sequence the snapshot covers; replay skips
    /// records at or below it.
    pub seq: u64,
    /// Delta files applied on top of the full snapshot (colstore chains).
    pub deltas_applied: u64,
    /// Delta files dropped because they (or a predecessor) failed
    /// validation — the chain fell back to its last consistent prefix.
    pub deltas_dropped: u64,
    /// Human-readable description of anything unusual.
    pub notes: Vec<String>,
}

impl SnapshotData {
    fn bare(subs: Vec<Subscription>, seq: u64) -> Self {
        Self {
            subs,
            seq,
            deltas_applied: 0,
            deltas_dropped: 0,
            notes: Vec::new(),
        }
    }
}

/// Why a snapshot could not be used.
#[derive(Debug)]
pub enum SnapshotError {
    Io(io::Error),
    /// Checksum/format damage — recovery continues from the log alone.
    Corrupt(String),
    /// The snapshot was taken under a different schema. Starting anyway
    /// would silently mis-evaluate every expression, so this is fatal.
    SchemaMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            SnapshotError::SchemaMismatch(msg) => write!(f, "snapshot schema mismatch: {msg}"),
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The `attr <name> <min> <max>` lines every snapshot file embeds and
/// recovery validates against the serving schema.
fn schema_lines(schema: &Schema) -> Vec<String> {
    schema
        .iter()
        .map(|(_, info)| {
            format!(
                "attr {} {} {}",
                info.name(),
                info.domain().min(),
                info.domain().max()
            )
        })
        .collect()
}

fn check_schema_lines(lines: &[String], schema: &Schema) -> Result<(), SnapshotError> {
    let expected = schema_lines(schema);
    if lines != expected.as_slice() {
        return Err(SnapshotError::SchemaMismatch(format!(
            "snapshot schema section ({} attrs) disagrees with serving schema ({} attrs)",
            lines.len(),
            expected.len()
        )));
    }
    Ok(())
}

/// Renders one subscription's predicate atoms (the colstore row form —
/// re-joined with ` AND ` and re-parsed on the way back in).
fn sub_to_row(sub: &Subscription, schema: &Schema) -> Row {
    Row {
        id: u64::from(sub.id().0),
        atoms: sub
            .predicates()
            .iter()
            .map(|p| p.display(schema).to_string())
            .collect(),
    }
}

pub(crate) fn row_to_sub(row: &Row, schema: &Schema) -> Result<Subscription, SnapshotError> {
    let id = u32::try_from(row.id)
        .map_err(|_| SnapshotError::Corrupt(format!("subscription id {} exceeds u32", row.id)))?;
    parser::parse_subscription_with_id(schema, SubId(id), &row.atoms.join(" AND ")).map_err(|e| {
        SnapshotError::SchemaMismatch(format!("subscription {id} no longer parses: {e}"))
    })
}

/// Groups subscriptions by partition (same routing hash as the shards)
/// and columnarizes each partition on its own scoped thread — the
/// *prepare* half of a snapshot write (also the replication bootstrap's
/// block source). Input must be sorted by id.
pub(crate) fn prepare_blocks(
    subs: &[Subscription],
    schema: &Schema,
    partitions: u32,
    only: Option<&[u32]>,
) -> io::Result<Vec<colfile::CompressedBlock>> {
    let mut groups: Vec<Vec<Row>> = vec![Vec::new(); partitions as usize];
    for sub in subs {
        let p = route_partition(sub.id(), partitions as usize);
        if only.is_none_or(|set| set.contains(&(p as u32))) {
            groups[p].push(sub_to_row(sub, schema));
        }
    }
    let mut results: Vec<io::Result<Vec<colfile::CompressedBlock>>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(p, rows)| {
                scope.spawn(move || -> io::Result<Vec<colfile::CompressedBlock>> {
                    let prepared =
                        colfile::prepare_partition(p as u32, rows, colfile::DEFAULT_BLOCK_ROWS)
                            .map_err(|e| io::Error::other(e.to_string()))?;
                    Ok(prepared.into_iter().map(colfile::compress_block).collect())
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("prepare thread panicked"));
        }
    });
    let mut blocks = Vec::new();
    for result in results {
        blocks.extend(result?);
    }
    blocks.sort_by_key(|b| b.partition);
    Ok(blocks)
}

/// Writes a full snapshot atomically and resets the manifest chain to
/// just this full (stale delta files are unlinked best-effort — nothing
/// references them anymore). Returns the byte size written and the new
/// chain.
pub fn write(
    dir: &Path,
    schema: &Schema,
    subs: &[Subscription],
    seq: u64,
    partitions: u32,
) -> io::Result<(u64, colmanifest::Manifest)> {
    if let Some(FailAction::Error | FailAction::TornWrite(_)) =
        failpoint::fire("persist.snapshot.write")
    {
        return Err(failpoint::injected_error("persist.snapshot.write"));
    }

    let tmp = dir.join(TMP_FILE);
    let blocks = prepare_blocks(subs, schema, partitions, None)?;
    let meta = colfile::FileMeta {
        kind: SnapshotKind::Full,
        seq,
        partitions,
        included: (0..partitions).collect(),
        schema_lines: schema_lines(schema),
        total_subs: subs.len() as u64,
    };
    let bytes = match colfile::write_file(&tmp, &meta, &blocks) {
        Ok(bytes) => bytes,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };

    if let Some(FailAction::Error | FailAction::TornWrite(_)) =
        failpoint::fire("persist.snapshot.rename")
    {
        let _ = std::fs::remove_file(&tmp);
        return Err(failpoint::injected_error("persist.snapshot.rename"));
    }
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    // Best-effort directory sync so the rename itself is durable.
    if let Ok(dirf) = std::fs::File::open(dir) {
        let _ = dirf.sync_all();
    }

    // Chain bookkeeping: a new full supersedes every delta. If the
    // manifest write fails (crash window or the `colstore.manifest.rename`
    // failpoint) the stale manifest's full-seq no longer matches the file
    // and recovery ignores it — the full + the unrotated log still cover
    // everything acknowledged.
    let stale: Vec<String> = match colmanifest::read(dir) {
        Ok(Some(m)) => m.deltas.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    };
    let chain = colmanifest::Manifest {
        partitions,
        full: (SNAPSHOT_FILE.to_string(), seq),
        deltas: Vec::new(),
    };
    colmanifest::write(dir, &chain)?;
    for name in stale {
        let _ = std::fs::remove_file(dir.join(name));
    }
    Ok((bytes, chain))
}

/// Writes one delta snapshot file: full images of the `included`
/// partitions drawn from `subs` at `seq`, appended to the manifest
/// chain. The churn log is *not* rotated by deltas — dropping a corrupt
/// delta on recovery can always be healed from the log.
pub fn write_delta(
    dir: &Path,
    schema: &Schema,
    subs: &[Subscription],
    seq: u64,
    partitions: u32,
    included: &[u32],
    chain: &colmanifest::Manifest,
) -> io::Result<(u64, colmanifest::Manifest)> {
    if let Some(FailAction::Error | FailAction::TornWrite(_)) =
        failpoint::fire("persist.snapshot.write")
    {
        return Err(failpoint::injected_error("persist.snapshot.write"));
    }
    let blocks = prepare_blocks(subs, schema, partitions, Some(included))?;
    let total: u64 = blocks.iter().map(|b| u64::from(b.rows)).sum();
    let meta = colfile::FileMeta {
        kind: SnapshotKind::Delta,
        seq,
        partitions,
        included: included.to_vec(),
        schema_lines: schema_lines(schema),
        total_subs: total,
    };
    let name = delta_file(chain.deltas.len() as u32 + 1);
    let tmp = dir.join(format!("{name}.tmp"));
    let bytes = match colfile::write_file(&tmp, &meta, &blocks) {
        Ok(bytes) => bytes,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    std::fs::rename(&tmp, dir.join(&name))?;
    if let Ok(dirf) = std::fs::File::open(dir) {
        let _ = dirf.sync_all();
    }
    let mut next = chain.clone();
    next.deltas.push((name, seq));
    colmanifest::write(dir, &next)?;
    Ok((bytes, next))
}

/// Loads the snapshot state at `dir`, if any: the manifest chain when one
/// is valid, else the bare snapshot file. `Ok(None)` when nothing exists;
/// `Err(Corrupt)` when the full snapshot exists but fails validation (the
/// caller reports it and recovers from the log alone); `Err(Io)` with
/// `InvalidData` for a text v1 file. A corrupt *delta* is never an error:
/// the chain falls back to its last consistent prefix, with the drop
/// counted in the returned data.
pub fn load(dir: &Path, schema: &Schema) -> Result<Option<SnapshotData>, SnapshotError> {
    let manifest = match colmanifest::read(dir) {
        Ok(m) => m,
        Err(ColError::Corrupt(why)) => {
            // A bad manifest orphans the chain, not the full snapshot.
            let mut data = match load_bare(dir, schema)? {
                Some(data) => data,
                None => return Ok(None),
            };
            data.notes
                .push(format!("manifest unreadable ({why}); chain ignored"));
            return Ok(Some(data));
        }
        Err(ColError::Io(e)) => return Err(e.into()),
    };
    let Some(manifest) = manifest else {
        return load_bare(dir, schema);
    };

    let mut data = match load_bare(dir, schema)? {
        Some(data) => data,
        None => return Ok(None),
    };
    if data.seq != manifest.full.1 {
        data.notes.push(format!(
            "manifest names full at seq {} but file is at seq {}; chain ignored",
            manifest.full.1, data.seq
        ));
        return Ok(Some(data));
    }

    // Apply deltas in order; the first invalid one ends the chain.
    let mut by_id: std::collections::HashMap<SubId, Subscription> =
        data.subs.into_iter().map(|s| (s.id(), s)).collect();
    let mut covered = data.seq;
    let mut applied = 0u64;
    for (i, (name, want_seq)) in manifest.deltas.iter().enumerate() {
        match load_delta(dir, name, *want_seq, covered, &manifest, schema) {
            Ok((rows_by_partition, included)) => {
                let partitions = manifest.partitions as usize;
                by_id
                    .retain(|id, _| !included.contains(&(route_partition(*id, partitions) as u32)));
                for sub in rows_by_partition {
                    by_id.insert(sub.id(), sub);
                }
                covered = *want_seq;
                applied += 1;
            }
            Err(why) => {
                let dropped = (manifest.deltas.len() - i) as u64;
                data.notes.push(format!(
                    "delta {name} invalid ({why}); dropped it and {} later delta(s), \
                     falling back to chain prefix at seq {covered}",
                    dropped - 1
                ));
                data.deltas_dropped = dropped;
                break;
            }
        }
    }
    let mut subs: Vec<Subscription> = by_id.into_values().collect();
    subs.sort_by_key(|s| s.id());
    data.subs = subs;
    data.seq = covered;
    data.deltas_applied = applied;
    Ok(Some(data))
}

/// Loads and validates one delta file. Any failure is a `String` reason —
/// the caller treats every failure mode identically (prefix fallback).
fn load_delta(
    dir: &Path,
    name: &str,
    want_seq: u64,
    covered: u64,
    manifest: &colmanifest::Manifest,
    schema: &Schema,
) -> Result<(Vec<Subscription>, Vec<u32>), String> {
    let loaded = colfile::read_file(&dir.join(name))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "file missing".to_string())?;
    if loaded.meta.kind != SnapshotKind::Delta {
        return Err("not a delta file".into());
    }
    if loaded.meta.seq != want_seq {
        return Err(format!(
            "file seq {} disagrees with manifest seq {want_seq}",
            loaded.meta.seq
        ));
    }
    if want_seq < covered {
        return Err(format!("chain seq regresses ({want_seq} < {covered})"));
    }
    if loaded.meta.partitions != manifest.partitions {
        return Err(format!(
            "delta routed over {} partitions, chain over {}",
            loaded.meta.partitions, manifest.partitions
        ));
    }
    check_schema_lines(&loaded.meta.schema_lines, schema).map_err(|e| e.to_string())?;
    let mut subs = Vec::new();
    for block in &loaded.blocks {
        for row in block.decode().map_err(|e| e.to_string())? {
            subs.push(row_to_sub(&row, schema).map_err(|e| e.to_string())?);
        }
    }
    Ok((subs, loaded.meta.included.clone()))
}

/// Loads `snapshot.apcm` alone.
fn load_bare(dir: &Path, schema: &Schema) -> Result<Option<SnapshotData>, SnapshotError> {
    let path = dir.join(SNAPSHOT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if colfile::is_colstore(&bytes) {
        load_colstore(&bytes, schema).map(Some)
    } else if bytes.starts_with(TEXT_V1_HEADER) {
        Err(SnapshotError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} is a text v1 snapshot, which this version no longer reads",
                path.display()
            ),
        )))
    } else {
        Err(SnapshotError::Corrupt(
            "snapshot is not a colstore file".into(),
        ))
    }
}

/// Parses a colstore full snapshot: footer-validated, schema-checked,
/// then all blocks CRC-checked, decompressed, and parsed back into
/// subscriptions — block decode fans out partition-parallel on scoped
/// threads, feeding `ShardedEngine::bulk_restore` a ready sorted set.
fn load_colstore(bytes: &[u8], schema: &Schema) -> Result<SnapshotData, SnapshotError> {
    let loaded = colfile::parse_file(bytes).map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    if loaded.meta.kind != SnapshotKind::Full {
        return Err(SnapshotError::Corrupt(
            "snapshot.apcm holds a delta file, not a full snapshot".into(),
        ));
    }
    check_schema_lines(&loaded.meta.schema_lines, schema)?;

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(loaded.blocks.len().max(1));
    let chunk = loaded.blocks.len().div_ceil(threads.max(1)).max(1);
    let mut results: Vec<Result<Vec<Subscription>, SnapshotError>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = loaded
            .blocks
            .chunks(chunk)
            .map(|blocks| {
                scope.spawn(move || {
                    let mut subs = Vec::new();
                    for block in blocks {
                        let rows = block
                            .decode()
                            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
                        for row in rows {
                            subs.push(row_to_sub(&row, schema)?);
                        }
                    }
                    Ok(subs)
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("decode thread panicked"));
        }
    });
    let mut subs = Vec::with_capacity(loaded.meta.total_subs as usize);
    for result in results {
        subs.extend(result?);
    }
    subs.sort_by_key(|s| s.id());
    if subs.len() as u64 != loaded.meta.total_subs {
        return Err(SnapshotError::Corrupt(format!(
            "footer says {} subs, blocks decode to {}",
            loaded.meta.total_subs,
            subs.len()
        )));
    }
    Ok(SnapshotData::bare(subs, loaded.meta.seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apcm_snap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn corpus(schema: &Schema, n: u32) -> Vec<Subscription> {
        (0..n)
            .map(|id| {
                parser::parse_subscription_with_id(schema, SubId(id), &format!("a0 <= {}", id % 8))
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let schema = Schema::uniform(3, 16);
        let dir = tmpdir("roundtrip");
        let subs = corpus(&schema, 40);
        write(&dir, &schema, &subs, 123, 3).unwrap();
        let loaded = load(&dir, &schema).unwrap().unwrap();
        assert_eq!(loaded.seq, 123);
        assert_eq!(loaded.subs, subs);
        assert_eq!(loaded.deltas_applied, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_is_none() {
        let dir = tmpdir("missing");
        assert!(load(&dir, &Schema::uniform(2, 8)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("corrupt");
        write(&dir, &schema, &corpus(&schema, 10), 7, 3).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        match load(&dir, &schema) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_colstore_file_is_corrupt() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("not_colstore");
        std::fs::write(dir.join(SNAPSHOT_FILE), "not a snapshot\n").unwrap();
        match load(&dir, &schema) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_fatal() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("mismatch");
        write(&dir, &schema, &corpus(&schema, 5), 1, 3).unwrap();
        match load(&dir, &Schema::uniform(3, 8)) {
            Err(SnapshotError::SchemaMismatch(_)) => {}
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        match load(&dir, &Schema::uniform(2, 4)) {
            Err(SnapshotError::SchemaMismatch(_)) => {}
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failpoint_preserves_previous_snapshot() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("fp_write");
        write(&dir, &schema, &corpus(&schema, 5), 1, 3).unwrap();
        failpoint::arm("persist.snapshot.write", FailAction::Error, Some(1));
        assert!(write(&dir, &schema, &corpus(&schema, 9), 2, 3).is_err());
        let loaded = load(&dir, &schema).unwrap().unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.subs.len(), 5);
        failpoint::reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_chain_round_trips_and_drops_corrupt_suffix() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("chain");
        let partitions = 3u32;
        let all = corpus(&schema, 30);
        // Full at seq 10 with the first 20 subs.
        write(&dir, &schema, &all[..20], 10, partitions).unwrap();
        let chain = colmanifest::read(&dir).unwrap().unwrap();
        // Delta 1 at seq 15: subs 20..25 arrive — their partitions get
        // re-serialized from the full state plus the new subs.
        let state1: Vec<Subscription> = all[..25].to_vec();
        let touched1: Vec<u32> = (20..25)
            .map(|i| route_partition(all[i].id(), partitions as usize) as u32)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let (_, chain) =
            write_delta(&dir, &schema, &state1, 15, partitions, &touched1, &chain).unwrap();
        // Delta 2 at seq 18: subs 25..30.
        let state2: Vec<Subscription> = all.clone();
        let touched2: Vec<u32> = (25..30)
            .map(|i| route_partition(all[i].id(), partitions as usize) as u32)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let (_, _chain) =
            write_delta(&dir, &schema, &state2, 18, partitions, &touched2, &chain).unwrap();

        let loaded = load(&dir, &schema).unwrap().unwrap();
        assert_eq!(loaded.seq, 18);
        assert_eq!(loaded.subs, all);
        assert_eq!(loaded.deltas_applied, 2);
        assert_eq!(loaded.deltas_dropped, 0);

        // Corrupt delta 2: the chain falls back to full + delta 1.
        let d2 = dir.join(delta_file(2));
        let mut bytes = std::fs::read(&d2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&d2, &bytes).unwrap();
        let loaded = load(&dir, &schema).unwrap().unwrap();
        assert_eq!(loaded.seq, 15);
        assert_eq!(loaded.subs, state1);
        assert_eq!(loaded.deltas_applied, 1);
        assert_eq!(loaded.deltas_dropped, 1);
        assert!(!loaded.notes.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_manifest_is_ignored_after_seq_mismatch() {
        let schema = Schema::uniform(2, 8);
        let dir = tmpdir("stale_manifest");
        let subs = corpus(&schema, 12);
        write(&dir, &schema, &subs, 5, 2).unwrap();
        // Simulate the crash window: a newer full landed but the manifest
        // still names the old seq.
        colmanifest::write(
            &dir,
            &colmanifest::Manifest {
                partitions: 2,
                full: (SNAPSHOT_FILE.to_string(), 3),
                deltas: vec![("snapshot-delta-1.col".into(), 4)],
            },
        )
        .unwrap();
        let loaded = load(&dir, &schema).unwrap().unwrap();
        assert_eq!(loaded.seq, 5);
        assert_eq!(loaded.subs, subs);
        assert_eq!(loaded.deltas_applied, 0);
        assert!(loaded.notes.iter().any(|n| n.contains("chain ignored")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
