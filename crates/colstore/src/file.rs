//! Snapshot container (format v2): magic, CRC-framed compressed blocks,
//! and a footer index so readers can project by partition or id range
//! without decoding the whole file.
//!
//! ```text
//! "APCM2COL"                                  8-byte magic
//! block*:  header(20B LE: partition, rows,    frame per block; payload is
//!          raw_len, comp_len, crc32(comp))    the LZSS-compressed column
//!          + comp_len payload bytes           bytes of `block::encode_block`
//! footer:  kind, seq, partitions, included[], varint-encoded; one index
//!          index[{offset, comp_len, raw_len,  entry per block, plus the
//!          partition, rows, min_id, max_id,   schema lines the broker
//!          crc}], total_subs, schema_lines[]  validates on recovery
//! trailer: footer_len u32 LE, crc32(footer)   fixed 16 bytes — readers
//!          u32 LE, "APCMEND2"                 find the footer from EOF
//! ```
//!
//! Writing splits *prepare* ([`prepare_partition`] — columnarize and
//! build dictionaries, safe to run per-partition in parallel) from
//! *compress + write + fsync* ([`compress_block`] / [`write_file`]), so
//! the broker can capture its catalog under lock, release it, and do all
//! the heavy work while churn acks keep flowing.

use crate::block::{decode_block, encode_block, Row};
use crate::failpoint::{self, FailAction};
use crate::{corrupt, crc::crc32, lz, varint, ColError};
use std::fs::File;
use std::io::Write;
use std::path::Path;

pub const MAGIC: &[u8; 8] = b"APCM2COL";
pub const END_MAGIC: &[u8; 8] = b"APCMEND2";
const BLOCK_HEADER_BYTES: usize = 20;
const TRAILER_BYTES: usize = 16;

/// Rows per block. Large enough that per-block dictionaries amortize
/// across repeated predicates, small enough that one block base64s to a
/// bootstrap wire line below the broker's 1 MiB line cap even if the
/// payload doesn't compress at all (~450 KiB raw → ~600 KiB base64).
pub const DEFAULT_BLOCK_ROWS: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// Complete catalog image; every partition present.
    Full,
    /// Re-serialized images of only the partitions dirtied since the
    /// previous chain element (`included` lists them — possibly with
    /// zero blocks, when a partition churned down to empty).
    Delta,
}

/// Output of the prepare phase: one uncompressed columnar payload.
#[derive(Debug)]
pub struct PreparedBlock {
    pub partition: u32,
    pub rows: u32,
    pub min_id: u64,
    pub max_id: u64,
    pub raw: Vec<u8>,
}

/// A prepared block after compression — ready to frame into a file or
/// base64 onto the bootstrap wire.
#[derive(Debug, Clone)]
pub struct CompressedBlock {
    pub partition: u32,
    pub rows: u32,
    pub min_id: u64,
    pub max_id: u64,
    pub raw_len: u32,
    /// CRC-32 of the compressed payload (what's on disk / on the wire).
    pub crc: u32,
    pub data: Vec<u8>,
}

/// Columnarizes one partition's sorted rows into `block_rows`-sized
/// prepared blocks. Pure CPU on immutable input — the broker fans this
/// out per partition on scoped threads.
pub fn prepare_partition(
    partition: u32,
    rows: &[Row],
    block_rows: usize,
) -> Result<Vec<PreparedBlock>, ColError> {
    let block_rows = block_rows.max(1);
    let mut out = Vec::with_capacity(rows.len().div_ceil(block_rows));
    for chunk in rows.chunks(block_rows) {
        out.push(PreparedBlock {
            partition,
            rows: chunk.len() as u32,
            min_id: chunk.first().map(|r| r.id).unwrap_or(0),
            max_id: chunk.last().map(|r| r.id).unwrap_or(0),
            raw: encode_block(chunk)?,
        });
    }
    Ok(out)
}

/// The compress half of the write path (also pure CPU).
pub fn compress_block(block: PreparedBlock) -> CompressedBlock {
    let data = lz::compress(&block.raw);
    CompressedBlock {
        partition: block.partition,
        rows: block.rows,
        min_id: block.min_id,
        max_id: block.max_id,
        raw_len: block.raw.len() as u32,
        crc: crc32(&data),
        data,
    }
}

impl CompressedBlock {
    /// CRC check + decompress + columnar decode.
    pub fn decode(&self) -> Result<Vec<Row>, ColError> {
        if crc32(&self.data) != self.crc {
            return Err(corrupt(format!(
                "block crc mismatch (partition {}, rows {})",
                self.partition, self.rows
            )));
        }
        let raw = lz::decompress(&self.data, self.raw_len as usize)?;
        let rows = decode_block(&raw)?;
        if rows.len() != self.rows as usize {
            return Err(corrupt(format!(
                "block row count lied: header {} decoded {}",
                self.rows,
                rows.len()
            )));
        }
        Ok(rows)
    }

    fn frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK_HEADER_BYTES + self.data.len());
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }
}

/// Everything about a snapshot file except the blocks themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    pub kind: SnapshotKind,
    /// Churn sequence this snapshot is consistent at.
    pub seq: u64,
    /// Partition count the writer routed with — readers regroup when it
    /// differs from the serving shard count.
    pub partitions: u32,
    /// Partitions this file covers. For a full: `0..partitions`. For a
    /// delta: the dirtied set, including partitions now empty.
    pub included: Vec<u32>,
    /// Opaque schema description lines, validated by the broker against
    /// the serving schema on recovery (colstore itself doesn't parse them).
    pub schema_lines: Vec<String>,
    pub total_subs: u64,
}

/// One block as read back from a file: the index entry plus the
/// compressed payload, decodable independently (and in parallel).
pub type LoadedBlock = CompressedBlock;

#[derive(Debug)]
pub struct LoadedFile {
    pub meta: FileMeta,
    pub blocks: Vec<LoadedBlock>,
}

/// Whether `bytes` start a colstore snapshot (the format sniff recovery
/// uses to tell a v2 file from a legacy text v1 one, which it refuses).
pub fn is_colstore(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

/// Writes a complete snapshot file to `path` (the caller's tmp path —
/// atomic publication via rename stays the caller's job) and fsyncs it.
/// Returns bytes written.
///
/// The `colstore.block.write` failpoint guards every block frame:
/// `Error` fails before the frame, `TornWrite(n)` writes `n` real bytes
/// of it then fails (a torn tmp file the rename never publishes), and
/// `Stall(ms)` sleeps then proceeds — used to stretch the compress+fsync
/// phase and prove churn acks keep flowing through it.
pub fn write_file(
    path: &Path,
    meta: &FileMeta,
    blocks: &[CompressedBlock],
) -> std::io::Result<u64> {
    let mut file = File::create(path)?;
    let mut written = 0u64;
    file.write_all(MAGIC)?;
    written += MAGIC.len() as u64;

    let mut index: Vec<(u64, &CompressedBlock)> = Vec::with_capacity(blocks.len());
    for block in blocks {
        let frame = block.frame();
        match failpoint::fire("colstore.block.write") {
            Some(FailAction::Error) => {
                return Err(failpoint::injected_error("colstore.block.write"))
            }
            Some(FailAction::TornWrite(n)) => {
                file.write_all(&frame[..n.min(frame.len())])?;
                let _ = file.sync_data();
                return Err(failpoint::injected_error("colstore.block.write"));
            }
            Some(FailAction::Stall(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            None => {}
        }
        index.push((written, block));
        file.write_all(&frame)?;
        written += frame.len() as u64;
    }

    let mut footer = Vec::with_capacity(64 + index.len() * 16);
    varint::put(
        &mut footer,
        match meta.kind {
            SnapshotKind::Full => 0,
            SnapshotKind::Delta => 1,
        },
    );
    varint::put(&mut footer, meta.seq);
    varint::put(&mut footer, u64::from(meta.partitions));
    varint::put(&mut footer, meta.included.len() as u64);
    for &p in &meta.included {
        varint::put(&mut footer, u64::from(p));
    }
    varint::put(&mut footer, index.len() as u64);
    for (offset, block) in &index {
        varint::put(&mut footer, *offset);
        varint::put(&mut footer, block.data.len() as u64);
        varint::put(&mut footer, u64::from(block.raw_len));
        varint::put(&mut footer, u64::from(block.partition));
        varint::put(&mut footer, u64::from(block.rows));
        varint::put(&mut footer, block.min_id);
        varint::put(&mut footer, block.max_id);
        varint::put(&mut footer, u64::from(block.crc));
    }
    varint::put(&mut footer, meta.total_subs);
    varint::put(&mut footer, meta.schema_lines.len() as u64);
    for line in &meta.schema_lines {
        varint::put(&mut footer, line.len() as u64);
        footer.extend_from_slice(line.as_bytes());
    }

    file.write_all(&footer)?;
    written += footer.len() as u64;
    file.write_all(&(footer.len() as u32).to_le_bytes())?;
    file.write_all(&crc32(&footer).to_le_bytes())?;
    file.write_all(END_MAGIC)?;
    written += TRAILER_BYTES as u64;
    file.sync_data()?;
    Ok(written)
}

/// Parses an in-memory snapshot image. Block payloads are sliced out by
/// the footer index; nothing is decompressed here — callers decode the
/// blocks they want (typically all, in parallel, at recovery).
pub fn parse_file(bytes: &[u8]) -> Result<LoadedFile, ColError> {
    if !is_colstore(bytes) {
        return Err(corrupt("missing APCM2COL magic"));
    }
    if bytes.len() < MAGIC.len() + TRAILER_BYTES {
        return Err(corrupt("file shorter than magic + trailer"));
    }
    let trailer = &bytes[bytes.len() - TRAILER_BYTES..];
    if &trailer[8..] != END_MAGIC {
        return Err(corrupt("missing APCMEND2 end magic (torn file)"));
    }
    let footer_len = u32::from_le_bytes(trailer[..4].try_into().unwrap()) as usize;
    let footer_crc = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
    let footer_end = bytes.len() - TRAILER_BYTES;
    let footer_start = footer_end
        .checked_sub(footer_len)
        .filter(|&s| s >= MAGIC.len())
        .ok_or_else(|| corrupt("footer length overruns file"))?;
    let footer = &bytes[footer_start..footer_end];
    if crc32(footer) != footer_crc {
        return Err(corrupt("footer crc mismatch"));
    }

    let mut pos = 0usize;
    let kind = match varint::take(footer, &mut pos)? {
        0 => SnapshotKind::Full,
        1 => SnapshotKind::Delta,
        other => return Err(corrupt(format!("unknown snapshot kind {other}"))),
    };
    let seq = varint::take(footer, &mut pos)?;
    let partitions = varint::take(footer, &mut pos)? as u32;
    let included_len = varint::take_len(footer, &mut pos, 1 << 20)?;
    let mut included = Vec::with_capacity(included_len);
    for _ in 0..included_len {
        included.push(varint::take(footer, &mut pos)? as u32);
    }
    let n_blocks = varint::take_len(footer, &mut pos, 1 << 24)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let offset = varint::take(footer, &mut pos)? as usize;
        let comp_len = varint::take_len(footer, &mut pos, bytes.len())?;
        let raw_len = varint::take(footer, &mut pos)? as u32;
        let partition = varint::take(footer, &mut pos)? as u32;
        let rows = varint::take(footer, &mut pos)? as u32;
        let min_id = varint::take(footer, &mut pos)?;
        let max_id = varint::take(footer, &mut pos)?;
        let crc = varint::take(footer, &mut pos)? as u32;
        let data_start = offset
            .checked_add(BLOCK_HEADER_BYTES)
            .filter(|&s| s + comp_len <= footer_start)
            .ok_or_else(|| corrupt("block index entry overruns data section"))?;
        // Cross-check the on-disk block header against the index entry:
        // the header isn't needed to slice the payload, but a mismatch
        // means the data section was damaged under a still-valid footer.
        let header = &bytes[offset..data_start];
        let field = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().unwrap());
        if field(0) != partition
            || field(4) != rows
            || field(8) != raw_len
            || field(12) as usize != comp_len
            || field(16) != crc
        {
            return Err(corrupt("block header disagrees with footer index"));
        }
        blocks.push(CompressedBlock {
            partition,
            rows,
            min_id,
            max_id,
            raw_len,
            crc,
            data: bytes[data_start..data_start + comp_len].to_vec(),
        });
    }
    let total_subs = varint::take(footer, &mut pos)?;
    let n_lines = varint::take_len(footer, &mut pos, 1 << 16)?;
    let mut schema_lines = Vec::with_capacity(n_lines);
    for _ in 0..n_lines {
        let len = varint::take_len(footer, &mut pos, footer.len())?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= footer.len())
            .ok_or_else(|| corrupt("schema line overruns footer"))?;
        let line = std::str::from_utf8(&footer[pos..end])
            .map_err(|_| corrupt("schema line is not utf-8"))?;
        schema_lines.push(line.to_string());
        pos = end;
    }
    if pos != footer.len() {
        return Err(corrupt("trailing garbage in footer"));
    }
    Ok(LoadedFile {
        meta: FileMeta {
            kind,
            seq,
            partitions,
            included,
            schema_lines,
            total_subs,
        },
        blocks,
    })
}

/// Reads and parses a snapshot file; `Ok(None)` when it doesn't exist.
pub fn read_file(path: &Path) -> Result<Option<LoadedFile>, ColError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ColError::Io(e)),
    };
    parse_file(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows(partition: u32, n: u64) -> Vec<Row> {
        (0..n)
            .map(|i| Row {
                id: u64::from(partition) + i * 4 + 1,
                atoms: vec![
                    format!("a{} >= {}", i % 7, i % 13),
                    format!("a{} < {}", (i + 3) % 7, 50 + i % 31),
                ],
            })
            .collect()
    }

    fn build(partitions: u32, per_part: u64) -> (FileMeta, Vec<CompressedBlock>, Vec<Vec<Row>>) {
        let mut blocks = Vec::new();
        let mut all = Vec::new();
        for p in 0..partitions {
            let rows = sample_rows(p, per_part);
            for pb in prepare_partition(p, &rows, 64).unwrap() {
                blocks.push(compress_block(pb));
            }
            all.push(rows);
        }
        let meta = FileMeta {
            kind: SnapshotKind::Full,
            seq: 99,
            partitions,
            included: (0..partitions).collect(),
            schema_lines: vec!["attr a0 0 100".into(), "attr a1 0 100".into()],
            total_subs: partitions as u64 * per_part,
        };
        (meta, blocks, all)
    }

    #[test]
    fn file_round_trips_with_footer_index() {
        let dir = std::env::temp_dir().join(format!("colstore-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.col");
        let (meta, blocks, all) = build(3, 200);
        let bytes = write_file(&path, &meta, &blocks).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());

        let loaded = read_file(&path).unwrap().unwrap();
        assert_eq!(loaded.meta, meta);
        assert_eq!(loaded.blocks.len(), blocks.len());
        for p in 0..3u32 {
            let decoded: Vec<Row> = loaded
                .blocks
                .iter()
                .filter(|b| b.partition == p)
                .flat_map(|b| b.decode().unwrap())
                .collect();
            assert_eq!(decoded, all[p as usize]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("colstore-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.col");
        let meta = FileMeta {
            kind: SnapshotKind::Delta,
            seq: 7,
            partitions: 4,
            included: vec![2],
            schema_lines: vec![],
            total_subs: 0,
        };
        write_file(&path, &meta, &[]).unwrap();
        let loaded = read_file(&path).unwrap().unwrap();
        assert_eq!(loaded.meta, meta);
        assert!(loaded.blocks.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let dir = std::env::temp_dir().join(format!("colstore-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.col");
        let (meta, blocks, _) = build(2, 100);
        write_file(&path, &meta, &blocks).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation (torn write) fails the trailer check.
        assert!(parse_file(&good[..good.len() - 3]).is_err());
        // A flip in any block payload fails that block's CRC; a flip in
        // the footer fails the footer CRC; either way: error, no panic.
        for i in (8..good.len()).step_by(17) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            match parse_file(&bad) {
                Err(_) => {}
                Ok(loaded) => {
                    assert!(
                        loaded.blocks.iter().any(|b| b.decode().is_err()),
                        "flip at byte {i} undetected"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_write_failpoint_leaves_torn_tmp() {
        let dir = std::env::temp_dir().join(format!("colstore-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.col");
        let (meta, blocks, _) = build(1, 50);
        failpoint::arm("colstore.block.write", FailAction::TornWrite(9), Some(1));
        assert!(write_file(&path, &meta, &blocks).is_err());
        failpoint::reset();
        // The torn file parses as corrupt, never as a valid snapshot.
        assert!(parse_file(&std::fs::read(&path).unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
