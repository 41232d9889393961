//! A-PCM: adaptive parallel compressed event matching.
//!
//! This crate is the reproduction's core contribution (Sadoghi & Jacobsen,
//! ICDE 2014). It matches events against millions of Boolean expressions by
//! composing four mechanisms on top of the bitmap encoding from
//! `apcm-encoding`:
//!
//! 1. **Compression** ([`cluster`], [`clustering`]) — similar subscription
//!    bitmaps are clustered; each cluster stores the members' *intersection*
//!    once (the shared mask) plus tiny per-member sparse residuals. One
//!    subset test on the shared mask prunes the entire cluster.
//! 2. **Parallelism** ([`parallel`]) — clusters are embarrassingly parallel;
//!    matching fans out over one scoped-thread pool sized by
//!    [`ApcmConfig::threads`] (one thread runs on the caller).
//! 3. **Online stream re-ordering** ([`osr`]) — events are buffered into
//!    windows and reordered by bitmap similarity so consecutive events hit
//!    the same clusters; each batch is probed cluster-major, so a cluster
//!    stays hot in cache across the batch's events.
//! 4. **Adaptivity** ([`adaptive`]) — per-cluster counters drive epoch-based
//!    maintenance: clusters whose compression stopped paying are rebuilt or
//!    demoted to a direct representation, and newly subscribed expressions
//!    are folded from the pending buffer into proper clusters.
//!
//! [`PcmMatcher`] exposes mechanisms 1–2 in a static engine (the paper's
//! PCM); [`ApcmMatcher`] adds 3–4 plus dynamic subscribe/unsubscribe (the
//! paper's A-PCM).
//!
//! ```
//! use apcm_core::{ApcmConfig, ApcmMatcher};
//! use apcm_bexpr::{parser, Matcher, Schema, SubId};
//!
//! let schema = Schema::uniform(4, 100);
//! let subs = vec![
//!     parser::parse_subscription_with_id(&schema, SubId(0), "a0 = 5 AND a1 < 50").unwrap(),
//!     parser::parse_subscription_with_id(&schema, SubId(1), "a0 = 5 AND a1 >= 50").unwrap(),
//! ];
//! let matcher = ApcmMatcher::build(&schema, &subs, &ApcmConfig::default()).unwrap();
//! let ev = parser::parse_event(&schema, "a0 = 5, a1 = 10").unwrap();
//! assert_eq!(matcher.match_event(&ev), vec![SubId(0)]);
//! ```

pub mod adaptive;
pub mod cluster;
pub mod clustering;
pub mod config;
pub mod counters;
pub mod dnf;
pub mod index;
pub mod matcher;
pub mod osr;
pub mod parallel;
pub mod pcm;
pub mod scratch;
pub mod stats;
pub mod topk;

pub use adaptive::{AdaptiveConfig, MaintenanceReport};
pub use cluster::{Cluster, ClusterRepr, Probe};
pub use clustering::ClusteringPolicy;
pub use config::ApcmConfig;
pub use counters::{CounterCell, CounterShards};
pub use dnf::DnfEngine;
pub use index::ClusterIndex;
pub use matcher::ApcmMatcher;
pub use osr::OsrBuffer;
pub use pcm::PcmMatcher;
pub use scratch::{EncTable, MatchScratch};
pub use stats::MatcherStats;
pub use topk::ScoredMatcher;
