//! apcm-colstore — block-columnar compressed snapshot store.
//!
//! The durability tier's binary snapshot format (v2): subscriptions are
//! laid out struct-of-arrays in fixed-size blocks — a dictionary-encoded
//! expression-atom column (each predicate string interned once per block,
//! referenced by varint id), a delta+varint-encoded subscription-id
//! column, and a bit-packed presence mask for the variable-arity "rest
//! atoms" column — then each block is independently LZSS-compressed and
//! CRC-framed. A footer index (block offsets, id ranges, partition map)
//! lets recovery and replication read by partition or id range without
//! decoding the whole file, and lets a replication bootstrap ship blocks
//! verbatim (the follower CRC-checks and decodes per block).
//!
//! The crate is deliberately schema-agnostic: a subscription is a sorted
//! `(id, [atom strings])` [`Row`]; the broker renders predicates to atom
//! text on the way in and re-parses on the way out, so one codec serves
//! the snapshot file, delta files, and the bootstrap wire.
//!
//! Modules: [`varint`] (LEB128), [`lz`] (LZSS), [`b64`] (base64 for the
//! newline wire), [`crc`] (CRC-32), [`block`] (columnar codec), [`mod@file`]
//! (snapshot container), [`manifest`] (full+delta chain), [`failpoint`]
//! (fault injection shared with the broker's persistence tier).

pub mod b64;
pub mod block;
pub mod crc;
pub mod failpoint;
pub mod file;
pub mod lz;
pub mod manifest;
pub mod varint;

pub use block::{decode_block, encode_block, Row};
pub use file::{
    compress_block, is_colstore, prepare_partition, read_file, write_file, CompressedBlock,
    FileMeta, LoadedBlock, LoadedFile, PreparedBlock, SnapshotKind, DEFAULT_BLOCK_ROWS,
};
pub use manifest::Manifest;

/// Unified error for the colstore codecs: either real I/O, or bytes that
/// fail structural/CRC validation (always recoverable by falling back to
/// an earlier chain element or the churn log — never a panic).
#[derive(Debug)]
pub enum ColError {
    Io(std::io::Error),
    Corrupt(String),
}

impl std::fmt::Display for ColError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColError::Io(e) => write!(f, "colstore io error: {e}"),
            ColError::Corrupt(why) => write!(f, "colstore corrupt: {why}"),
        }
    }
}

impl std::error::Error for ColError {}

impl From<std::io::Error> for ColError {
    fn from(e: std::io::Error) -> Self {
        ColError::Io(e)
    }
}

/// Shorthand used by every decoder in the crate.
pub(crate) fn corrupt(why: impl Into<String>) -> ColError {
    ColError::Corrupt(why.into())
}
