//! Starts the real servers in-process on loopback, as a user would deploy
//! them: `ServerConfig::default()` with two shards (this machine has two
//! cores), default router settings.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use apcm_bexpr::Schema;
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_server::{PersistConfig, Server, ServerConfig};

use crate::workloads::Topology;

pub const SHARDS: usize = 2;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    }
}

pub enum Stack {
    Direct(Server),
    Cluster(ClusterHandle),
}

impl Stack {
    /// `dir` holds the persistence directories of a chained topology.
    pub fn start(schema: &Schema, topology: Topology, dir: &Path) -> io::Result<Stack> {
        match topology {
            Topology::Direct => {
                Server::start(schema.clone(), server_config(), "127.0.0.1:0").map(Stack::Direct)
            }
            Topology::Routed { backends } => ClusterHandle::start(
                schema.clone(),
                vec![server_config(); backends],
                RouterConfig::default(),
            )
            .map(Stack::Cluster),
            Topology::Chained { followers } => {
                let chain = (0..=followers)
                    .map(|node| ServerConfig {
                        persist: Some(PersistConfig::new(dir.join(format!("node{node}")))),
                        ..server_config()
                    })
                    .collect();
                ClusterHandle::start_chained(schema.clone(), vec![chain], RouterConfig::default())
                    .map(Stack::Cluster)
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> String {
        match self {
            Stack::Direct(server) => server.local_addr().to_string(),
            Stack::Cluster(cluster) => cluster.router_addr(),
        }
    }

    pub fn shutdown(self) {
        match self {
            Stack::Direct(server) => drop(server.shutdown()),
            Stack::Cluster(cluster) => drop(cluster.shutdown()),
        }
    }
}

/// A scratch directory inside the working directory (the benchmark writes
/// nowhere else), removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> io::Result<Self> {
        let root = std::env::current_dir()?
            .join(".stackbench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, not yet created, sub-directory path.
    pub fn fresh(&self) -> PathBuf {
        self.root
            .join(self.next.fetch_add(1, Ordering::Relaxed).to_string())
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind when this was the only run.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
