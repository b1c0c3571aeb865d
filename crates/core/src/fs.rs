//! The DPFS client: file-system operations over a metadata store and
//! the I/O servers.
//!
//! The metadata side is a [`MetaStore`]: [`Dpfs::mount`] backs it with the
//! in-process SQL catalog (embedded, the original mode), while
//! [`Dpfs::mount_remote`] speaks metadata RPCs to a `dpfs-metad` daemon
//! (paper §5's networked database server), optionally through the
//! generation-validated client cache ([`crate::meta_cache`]). Everything
//! above the store — create/open/rename/readdir and the I/O path — is
//! identical in both modes.

use std::sync::Arc;

use dpfs_meta::catalog::{base_name, normalize_path};
use dpfs_meta::{
    Catalog, Database, Distribution, EmbeddedMetaStore, FileAttrRow, MetaStore, ServerInfo,
};
use dpfs_proto::Request;

use crate::conn::{ConnPool, Resolver};
use crate::error::{DpfsError, Result};
use crate::file::{mirror_subfile, parity_subfile, ClientOptions, FileHandle};
use crate::geometry::Shape;
use crate::hints::{FileLevel, Hint, HpfPattern, Placement, RedundancyPolicy, Striping};
use crate::layout::Layout;
use crate::meta_cache::CachingMetaStore;
use crate::placement::{greedy, round_robin, BrickMap};
use crate::remote_meta::RemoteMetaStore;

/// A DPFS client instance. Cheap to create; each compute node (thread)
/// makes its own, sharing the metadata database or daemon.
pub struct Dpfs {
    meta: Arc<dyn MetaStore>,
    /// Set on remote mounts: the RPC layer under `meta` (trace IDs,
    /// observed generation).
    remote_meta: Option<Arc<RemoteMetaStore>>,
    /// Set on remote mounts with caching enabled: the cache layer
    /// (hit/miss counters, explicit invalidation).
    meta_cache: Option<Arc<CachingMetaStore>>,
    pool: Arc<ConnPool>,
    opts: ClientOptions,
}

fn new_pool(resolver: Resolver, opts: &ClientOptions) -> Arc<ConnPool> {
    let pool = Arc::new(ConnPool::new(Arc::new(resolver)));
    pool.set_rpc_timeout(opts.rpc_timeout);
    // Per-mount jitter seed: an unseeded (default) policy is derived
    // fresh here, so fleets of default-configured clients never retry in
    // lockstep; explicitly seeded policies stay deterministic.
    pool.set_retry_policy(opts.retry.seeded_for_mount());
    pool
}

impl Dpfs {
    /// Mount DPFS embedded: wrap the metadata database in-process and set
    /// up connections.
    pub fn mount(db: Arc<Database>, resolver: Resolver, opts: ClientOptions) -> Result<Dpfs> {
        let pool = new_pool(resolver, &opts);
        Ok(Dpfs {
            meta: Arc::new(EmbeddedMetaStore::new(db)?),
            remote_meta: None,
            meta_cache: None,
            pool,
            opts,
        })
    }

    /// Mount with default options and direct name resolution.
    pub fn mount_simple(db: Arc<Database>) -> Result<Dpfs> {
        Self::mount(db, Resolver::direct(), ClientOptions::default())
    }

    /// Mount DPFS against a `dpfs-metad` daemon: every metadata operation
    /// becomes an RPC to `metad_server` (a name the resolver can dial),
    /// riding the same transport as I/O. With `opts.meta_cache` set (the
    /// default), attrs and layouts are cached client-side under generation
    /// validation; `opts.meta_cache_ttl` bounds how stale `stat` may be.
    pub fn mount_remote(
        metad_server: &str,
        resolver: Resolver,
        opts: ClientOptions,
    ) -> Result<Dpfs> {
        Self::mount_sharded(vec![metad_server.to_string()], resolver, opts)
    }

    /// Mount DPFS against a *sharded* metadata plane: `metad_servers[i]`
    /// is the daemon serving shard `i` of an `N`-wide partition (the
    /// order must match the daemons' `--shard` ids). Each op routes to
    /// the shard owning its path; the client cache validates each shard's
    /// generation independently. With one server this is exactly
    /// [`Dpfs::mount_remote`].
    ///
    /// When more than one shard is mounted, shard 0's advertised map is
    /// cross-checked at mount time so a daemon launched with the wrong
    /// `--shards` width fails the mount instead of corrupting routing.
    pub fn mount_sharded(
        metad_servers: Vec<String>,
        resolver: Resolver,
        opts: ClientOptions,
    ) -> Result<Dpfs> {
        let pool = new_pool(resolver, &opts);
        let remote = Arc::new(RemoteMetaStore::new_sharded(pool.clone(), metad_servers));
        if remote.shard_count() > 1 {
            let (_, width) = remote.fetch_shard_map(0).map_err(DpfsError::Meta)?;
            if width as usize != remote.shard_count() {
                return Err(DpfsError::Meta(dpfs_meta::MetaError::Remote(format!(
                    "metadata shard 0 ({}) serves a {width}-shard plane, \
                     but {} --metad servers were mounted",
                    remote.server(),
                    remote.shard_count()
                ))));
            }
        }
        let (meta, cache): (Arc<dyn MetaStore>, Option<Arc<CachingMetaStore>>) = if opts.meta_cache
        {
            let c = Arc::new(CachingMetaStore::new(remote.clone(), opts.meta_cache_ttl));
            (c.clone(), Some(c))
        } else {
            (remote.clone(), None)
        };
        Ok(Dpfs {
            meta,
            remote_meta: Some(remote),
            meta_cache: cache,
            pool,
            opts,
        })
    }

    /// The metadata store this client operates through.
    pub fn meta(&self) -> &Arc<dyn MetaStore> {
        &self.meta
    }

    /// The embedded metadata catalog, if this mount is embedded. Remote
    /// mounts return `None` — the database lives in the daemon.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.meta.as_catalog()
    }

    /// On remote mounts, the RPC-level metadata store (trace IDs, last
    /// observed generation).
    pub fn remote_meta(&self) -> Option<&Arc<RemoteMetaStore>> {
        self.remote_meta.as_ref()
    }

    /// On cached remote mounts, `(hits, misses)` of the metadata cache.
    pub fn meta_cache_stats(&self) -> Option<(u64, u64)> {
        self.meta_cache.as_ref().map(|c| c.cache_stats())
    }

    /// This client's default options.
    pub fn options(&self) -> ClientOptions {
        self.opts
    }

    /// Register an I/O server in the metadata store.
    pub fn register_server(&self, info: &ServerInfo) -> Result<()> {
        Ok(self.meta.register_server(info)?)
    }

    // ------------------------------------------------------------ create

    /// Create a DPFS file per the hint (paper: `DPFS-Open` for writing with
    /// a hint structure). Returns an open handle.
    pub fn create(&self, path: &str, hint: &Hint) -> Result<FileHandle> {
        let path = normalize_path(path)?;
        let all = self.meta.list_servers()?;
        if all.is_empty() {
            return Err(DpfsError::InvalidArgument(
                "no I/O servers registered".into(),
            ));
        }
        let n = hint.io_nodes.unwrap_or(all.len()).clamp(1, all.len());
        // Deterministic choice: first n servers in name order.
        let chosen: Vec<ServerInfo> = all.into_iter().take(n).collect();
        let names: Vec<String> = chosen.iter().map(|s| s.name.clone()).collect();
        let perf: Vec<i64> = chosen.iter().map(|s| s.performance.max(1)).collect();

        let layout = Layout::from_striping(&hint.striping)?;
        // Under XOR parity the last-named server is dedicated to parity:
        // data stripes over the remaining n - 1.
        let data_servers = match hint.redundancy {
            RedundancyPolicy::None => n,
            RedundancyPolicy::Replica(k) => {
                if k < 2 || k > n {
                    return Err(DpfsError::InvalidArgument(format!(
                        "replica policy needs 2 <= k <= {n} servers, got k = {k}"
                    )));
                }
                n
            }
            RedundancyPolicy::XorParity => {
                if n < 2 {
                    return Err(DpfsError::InvalidArgument(
                        "xor parity needs at least 2 servers (1 data + 1 parity)".into(),
                    ));
                }
                // Byte-offset parity requires every data subfile to lay its
                // bricks out uniformly; array-level chunks are variable.
                if layout.level() == FileLevel::Array {
                    return Err(DpfsError::InvalidArgument(
                        "xor parity requires uniform bricks (linear or multidim level)".into(),
                    ));
                }
                n - 1
            }
        };
        let num_bricks = layout.num_bricks();
        let assignment = match hint.placement {
            Placement::RoundRobin => round_robin(num_bricks, data_servers),
            Placement::Greedy => greedy(num_bricks, &perf[..data_servers]),
        };
        let map = BrickMap::from_assignment(assignment, data_servers);

        let attr = attr_for(&path, hint, &layout);
        let mut dist: Vec<Distribution> = names
            .iter()
            .zip(map.bricklists())
            .map(|(server, bricks)| Distribution {
                server: server.clone(),
                filename: path.clone(),
                bricklist: bricks.iter().map(|&b| b as i64).collect(),
            })
            .collect();
        if hint.redundancy == RedundancyPolicy::XorParity {
            // The parity server holds no bricks but must appear in the
            // distribution so opens see the full server list.
            dist.push(Distribution {
                server: names[n - 1].clone(),
                filename: path.clone(),
                bricklist: Vec::new(),
            });
        }
        self.meta.create_file(&attr, &dist).map_err(|e| match e {
            dpfs_meta::MetaError::DuplicateKey(_) => DpfsError::FileExists(path.clone()),
            other => other.into(),
        })?;

        Ok(FileHandle::new(
            path,
            self.meta.clone(),
            self.pool.clone(),
            names,
            perf,
            layout,
            map,
            hint.placement,
            hint.redundancy,
            self.opts,
            attr.size as u64,
        ))
    }

    // -------------------------------------------------------------- open

    /// Open an existing DPFS file (paper: `DPFS-Open` for reading).
    pub fn open(&self, path: &str) -> Result<FileHandle> {
        self.open_with(path, self.opts)
    }

    /// Open with explicit client options (rank, combination, granularity).
    pub fn open_with(&self, path: &str, opts: ClientOptions) -> Result<FileHandle> {
        let path = normalize_path(path)?;
        let attr = self
            .meta
            .get_file_attr(&path)?
            .ok_or_else(|| DpfsError::NoSuchFile(path.clone()))?;
        let striping = striping_from_attr(&attr)?;
        let layout = Layout::from_striping(&striping)?;
        let dist = self.meta.get_distribution(&path)?;
        if dist.is_empty() {
            return Err(DpfsError::InvalidArgument(format!(
                "file {path} has no distribution rows"
            )));
        }
        let redundancy = RedundancyPolicy::parse(&attr.redundancy)?;
        let names: Vec<String> = dist.iter().map(|d| d.server.clone()).collect();
        let mut lists: Vec<Vec<i64>> = dist.iter().map(|d| d.bricklist.clone()).collect();
        if redundancy == RedundancyPolicy::XorParity {
            // The last (name-ordered) row is the brickless parity server;
            // the brick map covers only the data servers.
            if lists.len() < 2 {
                return Err(DpfsError::InvalidArgument(format!(
                    "xor-parity file {path} has {} distribution rows, needs >= 2",
                    lists.len()
                )));
            }
            lists.pop();
        }
        let map = BrickMap::from_bricklists(&lists)?;
        let mut perf = Vec::with_capacity(names.len());
        for name in &names {
            perf.push(
                self.meta
                    .get_server(name)?
                    .map(|s| s.performance.max(1))
                    .unwrap_or(1),
            );
        }
        let placement = match attr.placement.as_str() {
            "greedy" => Placement::Greedy,
            _ => Placement::RoundRobin,
        };
        Ok(FileHandle::new(
            path,
            self.meta.clone(),
            self.pool.clone(),
            names,
            perf,
            layout,
            map,
            placement,
            redundancy,
            opts,
            attr.size as u64,
        ))
    }

    // --------------------------------------------------- namespace ops

    /// Delete a file: metadata first (transactional), then each server's
    /// subfile.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let path = normalize_path(path)?;
        // Redundant files carry derived subfiles under other names; note
        // the policy before the attribute row disappears.
        let redundancy = self
            .meta
            .get_file_attr(&path)?
            .map(|a| RedundancyPolicy::parse(&a.redundancy))
            .transpose()?
            .unwrap_or_default();
        let dist = self.meta.delete_file(&path).map_err(|e| match e {
            dpfs_meta::MetaError::NoSuchTable(_) => DpfsError::NoSuchFile(path.clone()),
            other => other.into(),
        })?;
        for d in dist {
            // best effort: a dead server must not strand the namespace
            for subfile in subfile_names(&path, redundancy) {
                let _ = self.pool.rpc(&d.server, &Request::Delete { subfile });
            }
        }
        Ok(())
    }

    /// Create a directory.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        self.meta.mkdir(path).map_err(|e| match e {
            dpfs_meta::MetaError::NoSuchTable(m) => DpfsError::NoSuchDirectory(m),
            other => other.into(),
        })
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        Ok(self.meta.rmdir(path)?)
    }

    /// List a directory: `(sub-directory names, file names)`, base names
    /// only, sorted.
    pub fn readdir(&self, path: &str) -> Result<(Vec<String>, Vec<String>)> {
        let entry = self
            .meta
            .get_dir(path)?
            .ok_or_else(|| DpfsError::NoSuchDirectory(path.to_string()))?;
        let mut dirs: Vec<String> = entry
            .sub_dirs
            .iter()
            .map(|d| base_name(d).to_string())
            .collect();
        let mut files: Vec<String> = entry
            .files
            .iter()
            .map(|f| base_name(f).to_string())
            .collect();
        dirs.sort();
        files.sort();
        Ok((dirs, files))
    }

    /// Stat a file. On cached remote mounts this takes the stat path —
    /// the answer may be served from cache within the configured TTL.
    pub fn stat(&self, path: &str) -> Result<FileAttrRow> {
        let path = normalize_path(path)?;
        self.meta
            .stat_file_attr(&path)?
            .ok_or(DpfsError::NoSuchFile(path))
    }

    /// True if the path names an existing file.
    pub fn exists(&self, path: &str) -> Result<bool> {
        Ok(self.meta.stat_file_attr(&normalize_path(path)?)?.is_some())
    }

    /// True if the path names an existing directory.
    pub fn dir_exists(&self, path: &str) -> Result<bool> {
        Ok(self.meta.get_dir(path)?.is_some())
    }

    /// Rename a file. Metadata moves atomically in the catalog; since
    /// subfiles are keyed by DPFS path, each server then copies its subfile
    /// to the new name and deletes the old one.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from_n = normalize_path(from)?;
        let to_n = normalize_path(to)?;
        // Move the bytes: read whole subfiles server-side is overkill at
        // this layer; instead we re-point metadata and copy per server.
        let redundancy = self
            .meta
            .get_file_attr(&from_n)?
            .map(|a| RedundancyPolicy::parse(&a.redundancy))
            .transpose()?
            .unwrap_or_default();
        let dist = self.meta.get_distribution(&from_n)?;
        self.meta.rename_file(&from_n, &to_n)?;
        let from_subs = subfile_names(&from_n, redundancy);
        let to_subs = subfile_names(&to_n, redundancy);
        for d in &dist {
            // copy subfile content (and any derived redundant subfiles)
            // under the new name on the same server
            for (from_sub, to_sub) in from_subs.iter().zip(&to_subs) {
                let stat = self.pool.rpc_ok(
                    &d.server,
                    &Request::Stat {
                        subfile: from_sub.clone(),
                    },
                );
                let size = match stat {
                    Ok(dpfs_proto::Response::Stat { exists: true, size }) => size,
                    _ => continue, // nothing written yet on this server
                };
                let data = self.pool.rpc_ok(
                    &d.server,
                    &Request::Read {
                        subfile: from_sub.clone(),
                        ranges: vec![(0, size)],
                    },
                )?;
                if let dpfs_proto::Response::Data { chunks } = data {
                    self.pool.rpc_ok(
                        &d.server,
                        &Request::Write {
                            subfile: to_sub.clone(),
                            ranges: vec![(0, chunks[0].clone())],
                        },
                    )?;
                }
                let _ = self.pool.rpc(
                    &d.server,
                    &Request::Delete {
                        subfile: from_sub.clone(),
                    },
                );
            }
        }
        Ok(())
    }

    /// Connection pool (the shell and tests reach through for pings).
    pub fn pool(&self) -> &Arc<ConnPool> {
        &self.pool
    }
}

/// Build the catalog attribute row for a new file.
fn attr_for(path: &str, hint: &Hint, layout: &Layout) -> FileAttrRow {
    let (dims, dimsize, stripe_dims, stripe_size, pattern) = match &hint.striping {
        Striping::Linear {
            brick_bytes,
            file_bytes: _,
        } => (
            0i64,
            Vec::new(),
            Vec::new(),
            *brick_bytes as i64,
            String::new(),
        ),
        Striping::Multidim {
            array,
            brick,
            elem_bytes,
        } => (
            array.ndims() as i64,
            array.0.iter().map(|&x| x as i64).collect(),
            brick.0.iter().map(|&x| x as i64).collect(),
            *elem_bytes as i64,
            String::new(),
        ),
        Striping::Array {
            array,
            pattern,
            elem_bytes,
        } => (
            array.ndims() as i64,
            array.0.iter().map(|&x| x as i64).collect(),
            pattern.grid().0.iter().map(|&x| x as i64).collect(),
            *elem_bytes as i64,
            pattern.to_pattern_string(),
        ),
    };
    FileAttrRow {
        filename: path.to_string(),
        owner: hint.owner.clone(),
        permission: hint.permission,
        size: match &hint.striping {
            Striping::Linear { file_bytes, .. } => *file_bytes as i64,
            _ => layout.file_bytes() as i64,
        },
        filelevel: layout.level().as_str().to_string(),
        dims,
        dimsize,
        stripe_dims,
        stripe_size,
        pattern,
        placement: match hint.placement {
            Placement::RoundRobin => "round_robin".to_string(),
            Placement::Greedy => "greedy".to_string(),
        },
        redundancy: hint.redundancy.as_str(),
    }
}

/// Every subfile name a server may hold for `path` under `policy`: the
/// primary plus any replica mirrors or the parity sibling. Namespace ops
/// (unlink, rename) sweep all of them per server.
fn subfile_names(path: &str, policy: RedundancyPolicy) -> Vec<String> {
    let mut names = vec![path.to_string()];
    match policy {
        RedundancyPolicy::None => {}
        RedundancyPolicy::Replica(k) => {
            for copy in 1..k {
                names.push(mirror_subfile(path, copy));
            }
        }
        RedundancyPolicy::XorParity => names.push(parity_subfile(path)),
    }
    names
}

/// Reconstruct striping geometry from a catalog attribute row.
pub fn striping_from_attr(attr: &FileAttrRow) -> Result<Striping> {
    match FileLevel::parse(&attr.filelevel)? {
        FileLevel::Linear => Ok(Striping::Linear {
            brick_bytes: attr.stripe_size as u64,
            file_bytes: attr.size as u64,
        }),
        FileLevel::Multidim => Ok(Striping::Multidim {
            array: Shape::new(attr.dimsize.iter().map(|&x| x as u64).collect())?,
            brick: Shape::new(attr.stripe_dims.iter().map(|&x| x as u64).collect())?,
            elem_bytes: attr.stripe_size as u64,
        }),
        FileLevel::Array => Ok(Striping::Array {
            array: Shape::new(attr.dimsize.iter().map(|&x| x as u64).collect())?,
            pattern: HpfPattern::from_catalog(&attr.pattern, &attr.stripe_dims)?,
            elem_bytes: attr.stripe_size as u64,
        }),
    }
}
