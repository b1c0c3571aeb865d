//! Open-file handles: the read/write engine.
//!
//! A [`FileHandle`] owns everything needed to turn a user access into server
//! requests: the file's layout, its brick map, the server name list, and the
//! client's options (request combination on/off, stagger rank, read
//! granularity). Per-server requests are *submitted* through the pool's
//! multiplexed transport in the planner's staggered order — every frame
//! goes on the wire before any response is awaited — then completions are
//! collected in plan order. One client thereby overlaps the service time of
//! every server it stripes over, and two handles striped over the same
//! servers overlap on the shared per-server connections.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dpfs_meta::{Distribution, MetaStore};
use dpfs_proto::{AccessPattern, Request, Response, MAX_PATTERN_RANGES};

use crate::cache::BrickCache;
use crate::conn::{expect_chunks, expect_list_data, expect_written, ConnPool};
use crate::datatype::Datatype;
use crate::error::{DpfsError, Result, SubfileOutcome};
use crate::geometry::Region;
use crate::hints::{FileLevel, Placement, RedundancyPolicy};
use crate::layout::{bricks_for, BrickRun, Layout};
use crate::placement::BrickMap;
use crate::plan::{plan_list, plan_reads, plan_writes, Granularity, ListRequest};
use crate::retry::RetryPolicy;
use crate::trace;
use crate::transport::DEFAULT_RPC_TIMEOUT;

/// Per-client I/O options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Apply the paper's request-combination optimization (§4.2).
    pub combine: bool,
    /// Read transfer granularity (whole bricks by default, as in the paper).
    pub granularity: Granularity,
    /// Ship combined I/O as compact [`AccessPattern`] descriptors
    /// (`ReadList`/`WriteList`): the server expands the pattern against
    /// its own subfile geometry and one coalesced payload travels per
    /// request, instead of an enumerated range list with per-range
    /// framing. Engages only under `combine` (and, for reads, with the
    /// brick cache off — cache fills need per-brick chunks); a per-request
    /// cost model transparently falls back to the legacy shape when the
    /// descriptor would encode no smaller than the enumerated list.
    pub list_io: bool,
    /// This client's rank; sets the staggered schedule's starting server.
    pub rank: usize,
    /// Per-request deadline. An RPC that exceeds it poisons its connection
    /// and surfaces [`DpfsError::Timeout`].
    pub rpc_timeout: Duration,
    /// Fault-tolerance policy: transient transport failures (connect,
    /// timeout, disconnect) are retried with backoff; application errors
    /// are not. [`RetryPolicy::disabled()`] restores fail-fast behaviour.
    pub retry: RetryPolicy,
    /// Accept partial reads: when a per-server read request fails
    /// terminally (after retries), zero-fill its byte ranges and surface
    /// [`DpfsError::Degraded`] — carrying the holed buffer and per-subfile
    /// outcomes — instead of failing the whole read. Off by default.
    pub degraded_reads: bool,
    /// On remote (metad-backed) mounts, cache file attrs and layouts
    /// client-side, generation-validated against the daemon. Embedded
    /// mounts ignore this (the catalog is already in-process).
    pub meta_cache: bool,
    /// How long stat-path attr reads may be served from the metadata
    /// cache without revalidation. Layout reads always revalidate, so
    /// this staleness window never reaches I/O. Zero = revalidate every
    /// lookup.
    pub meta_cache_ttl: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            combine: true,
            granularity: Granularity::Brick,
            list_io: true,
            rank: 0,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::default(),
            degraded_reads: false,
            meta_cache: true,
            meta_cache_ttl: Duration::from_millis(500),
        }
    }
}

/// Client-side I/O statistics for one file handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Framed requests issued.
    pub requests: u64,
    /// Bytes received over the wire (including discarded brick padding).
    pub wire_read: u64,
    /// Bytes of received data actually used.
    pub useful_read: u64,
    /// Bytes sent over the wire.
    pub wire_written: u64,
}

/// Subfile name of replica copy `copy` (1-based) of `path`: copy `i` of
/// server `s`'s subfile lives on server `(s + i) % n` under this name.
/// The scheme is purely name-derived so every client (and fsck) can find
/// the mirrors without extra metadata rows.
pub fn mirror_subfile(path: &str, copy: usize) -> String {
    format!("{path}#r{copy}")
}

/// Subfile name of the XOR parity sibling of `path`, held by the last
/// server in the file's distribution: `parity[off]` is the XOR of every
/// data subfile's byte at `off` (absent bytes count as zero).
pub fn parity_subfile(path: &str) -> String {
    format!("{path}#p")
}

/// An open DPFS file.
pub struct FileHandle {
    path: String,
    meta: Arc<dyn MetaStore>,
    pool: Arc<ConnPool>,
    /// Server names in catalog order; request `server` indices point here.
    servers: Vec<String>,
    /// Performance numbers of `servers` (greedy extension needs them).
    perf: Vec<i64>,
    layout: Layout,
    map: BrickMap,
    placement: Placement,
    /// Per-file redundancy: mirrors / parity written alongside the data,
    /// read back around a dead server.
    redundancy: RedundancyPolicy,
    opts: ClientOptions,
    /// Current logical size in bytes.
    size: u64,
    stats: ClientStats,
    /// Optional client-side brick cache (extension; see [`crate::cache`]).
    cache: Option<BrickCache>,
    /// Bricks of sequential read-ahead (0 = off). Requires the cache.
    prefetch_bricks: u64,
    /// End offset of the last byte-API read (sequential-pattern detector).
    last_read_end: u64,
    /// Trace ID of the most recent traced operation on this handle.
    last_trace_id: u64,
}

impl FileHandle {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        path: String,
        meta: Arc<dyn MetaStore>,
        pool: Arc<ConnPool>,
        servers: Vec<String>,
        perf: Vec<i64>,
        layout: Layout,
        map: BrickMap,
        placement: Placement,
        redundancy: RedundancyPolicy,
        opts: ClientOptions,
        size: u64,
    ) -> FileHandle {
        FileHandle {
            path,
            meta,
            pool,
            servers,
            perf,
            layout,
            map,
            placement,
            redundancy,
            opts,
            size,
            stats: ClientStats::default(),
            cache: None,
            prefetch_bricks: 0,
            last_read_end: u64::MAX,
            last_trace_id: 0,
        }
    }

    /// The trace ID of the most recent read/write/sync on this handle
    /// (0 before the first operation). Filter [`trace::ring()`] events on it
    /// to see the operation's full client+server timeline.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// The file's DPFS path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The file's level.
    pub fn level(&self) -> FileLevel {
        self.layout.level()
    }

    /// Current logical size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The brick-to-server map.
    pub fn brick_map(&self) -> &BrickMap {
        &self.map
    }

    /// The server names this file is striped over.
    pub fn servers(&self) -> &[String] {
        &self.servers
    }

    /// The file's redundancy policy.
    pub fn redundancy(&self) -> RedundancyPolicy {
        self.redundancy
    }

    /// I/O statistics accumulated on this handle.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Override client options (rank, combination) after open.
    pub fn set_options(&mut self, opts: ClientOptions) {
        self.opts = opts;
    }

    /// Enable a client-side brick cache of `capacity` bytes (0 disables).
    /// Only effective with [`Granularity::Brick`] reads, where whole bricks
    /// travel the wire anyway.
    pub fn enable_cache(&mut self, capacity: u64) {
        self.cache = if capacity == 0 {
            None
        } else {
            Some(BrickCache::new(capacity))
        };
    }

    /// `(hits, misses)` of the brick cache, if enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Enable sequential read-ahead: when a byte-API read continues where
    /// the previous one ended, the next `bricks` bricks are fetched into
    /// the cache alongside it (extension; the paper relies on the server's
    /// local-FS prefetching only). Implies enabling the cache if it is off.
    pub fn enable_prefetch(&mut self, bricks: u64, cache_capacity: u64) {
        self.prefetch_bricks = bricks;
        if bricks > 0 && self.cache.is_none() {
            self.enable_cache(cache_capacity.max(1));
        }
    }

    // ---------------------------------------------------------- byte API

    /// Write `data` at byte `offset` (linear files only). Grows the file —
    /// and its brick distribution — as needed.
    pub fn write_bytes(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let Layout::Linear(lin) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "linear",
                actual: self.level().as_str().into(),
            });
        };
        if data.is_empty() {
            return Ok(());
        }
        let end = offset + data.len() as u64;
        let needed = bricks_for(end, lin.brick_bytes);
        if needed > self.map.num_bricks() {
            self.grow_to(needed)?;
        }
        let Layout::Linear(lin) = &self.layout else {
            unreachable!()
        };
        let runs = lin.map_bytes(offset, data.len() as u64, 0);
        self.execute_writes(&runs, data)?;
        if end > self.size {
            self.size = end;
            self.meta.set_file_size(&self.path, end as i64)?;
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` (linear files only). Bytes past the
    /// written extent come back zero-filled.
    pub fn read_bytes(&mut self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let Layout::Linear(lin) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "linear",
                actual: self.level().as_str().into(),
            });
        };
        let mut buf = vec![0u8; len as usize];
        if len == 0 {
            return Ok(buf);
        }
        let end = offset + len;
        if bricks_for(end, lin.brick_bytes) > self.map.num_bricks() {
            return Err(DpfsError::InvalidArgument(format!(
                "read [{offset}, {end}) beyond file's {} bricks",
                self.map.num_bricks()
            )));
        }
        let runs = lin.map_bytes(offset, len, 0);
        let sequential = offset == self.last_read_end;
        self.last_read_end = end;
        if let Err(e) = self.execute_reads(&runs, &mut buf) {
            return Err(attach_degraded_data(e, buf));
        }
        if sequential && self.prefetch_bricks > 0 {
            self.prefetch_after(end)?;
        }
        Ok(buf)
    }

    /// Fetch the next `prefetch_bricks` bricks after byte `end` into the
    /// cache (best effort: stops at end of file; skips cached bricks).
    fn prefetch_after(&mut self, end: u64) -> Result<()> {
        let Layout::Linear(lin) = &self.layout else {
            return Ok(());
        };
        let brick_bytes = lin.brick_bytes;
        let first = end.div_ceil(brick_bytes);
        let last = (first + self.prefetch_bricks).min(self.map.num_bricks());
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        // Refill only when the window is exhausted (the very next brick is
        // uncached); a sliding one-brick-at-a-time refill would defeat
        // batching.
        if first >= last || cache.contains(first) {
            return Ok(());
        }
        let runs: Vec<BrickRun> = (first..last)
            .filter(|b| !cache.contains(*b))
            .map(|b| BrickRun {
                brick: b,
                brick_off: 0,
                buf_off: (b - first) * brick_bytes,
                len: brick_bytes,
            })
            .collect();
        if runs.is_empty() {
            return Ok(());
        }
        let total: u64 = runs.iter().map(|r| r.len).sum();
        let mut scratch = vec![0u8; ((last - first) * brick_bytes) as usize];
        let _ = total;
        match self.execute_reads(&runs, &mut scratch) {
            // Prefetch is best-effort: a degraded fetch cached whatever
            // arrived; don't fail the (already successful) foreground read.
            Err(DpfsError::Degraded { .. }) => Ok(()),
            other => other,
        }
    }

    // -------------------------------------------------------- region API

    /// Write a rectangular region of a multidim/array file. `data` holds
    /// the region packed row-major (`region.volume() * elem_bytes` bytes).
    pub fn write_region(&mut self, region: &Region, data: &[u8]) -> Result<()> {
        let runs = self.region_runs(region)?;
        let expect: u64 = runs.iter().map(|r| r.len).sum();
        if data.len() as u64 != expect {
            return Err(DpfsError::InvalidArgument(format!(
                "buffer of {} bytes for region of {} bytes",
                data.len(),
                expect
            )));
        }
        self.execute_writes(&runs, data)
    }

    /// Read a rectangular region of a multidim/array file, packed
    /// row-major.
    pub fn read_region(&mut self, region: &Region) -> Result<Vec<u8>> {
        let runs = self.region_runs(region)?;
        let len: u64 = runs.iter().map(|r| r.len).sum();
        let mut buf = vec![0u8; len as usize];
        if let Err(e) = self.execute_reads(&runs, &mut buf) {
            return Err(attach_degraded_data(e, buf));
        }
        Ok(buf)
    }

    fn region_runs(&self, region: &Region) -> Result<Vec<BrickRun>> {
        match &self.layout {
            Layout::Multidim(md) => md.map_region(region),
            Layout::Array(ar) => ar.map_region(region),
            Layout::Linear(_) => Err(DpfsError::WrongLevel {
                expected: "multidim or array",
                actual: "linear".into(),
            }),
        }
    }

    // ------------------------------------------------------ datatype API

    /// Write through a derived datatype anchored at byte `base` of a linear
    /// file. `data` packs the datatype's runs contiguously.
    pub fn write_datatype(&mut self, base: u64, dtype: &Datatype, data: &[u8]) -> Result<()> {
        if data.len() as u64 != dtype.size() {
            return Err(DpfsError::InvalidArgument(format!(
                "buffer of {} bytes for datatype of {} bytes",
                data.len(),
                dtype.size()
            )));
        }
        let mut buf_off = 0u64;
        // materialize runs then write as one planned batch
        let Layout::Linear(lin) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "linear",
                actual: self.level().as_str().into(),
            });
        };
        let end = base + dtype.extent();
        let needed = bricks_for(end.max(1), lin.brick_bytes);
        if needed > self.map.num_bricks() {
            self.grow_to(needed)?;
        }
        let Layout::Linear(lin) = &self.layout else {
            unreachable!()
        };
        let mut runs = Vec::new();
        for (off, len) in dtype.flatten() {
            runs.extend(lin.map_bytes(base + off, len, buf_off));
            buf_off += len;
        }
        self.execute_writes(&runs, data)?;
        if end > self.size {
            self.size = end;
            self.meta.set_file_size(&self.path, end as i64)?;
        }
        Ok(())
    }

    /// Read through a derived datatype anchored at byte `base` of a linear
    /// file; returns the packed bytes.
    pub fn read_datatype(&mut self, base: u64, dtype: &Datatype) -> Result<Vec<u8>> {
        let Layout::Linear(lin) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "linear",
                actual: self.level().as_str().into(),
            });
        };
        let end = base + dtype.extent();
        if bricks_for(end.max(1), lin.brick_bytes) > self.map.num_bricks() {
            return Err(DpfsError::InvalidArgument(
                "datatype extends beyond file".into(),
            ));
        }
        let mut buf = vec![0u8; dtype.size() as usize];
        let mut runs = Vec::new();
        let mut buf_off = 0u64;
        for (off, len) in dtype.flatten() {
            runs.extend(lin.map_bytes(base + off, len, buf_off));
            buf_off += len;
        }
        if let Err(e) = self.execute_reads(&runs, &mut buf) {
            return Err(attach_degraded_data(e, buf));
        }
        Ok(buf)
    }

    // --------------------------------------------------------- chunk API

    /// The rectangular region of HPF chunk `rank` (array files with pure
    /// BLOCK/`*` patterns; cyclic chunks have no bounding rectangle).
    pub fn chunk_region(&self, rank: u64) -> Result<Region> {
        match &self.layout {
            Layout::Array(ar) => {
                if rank >= ar.num_bricks() {
                    return Err(DpfsError::InvalidArgument(format!(
                        "chunk {rank} of {}",
                        ar.num_bricks()
                    )));
                }
                ar.chunk_region(rank).ok_or_else(|| {
                    DpfsError::InvalidArgument(
                        "cyclic chunks are not rectangular; use write_chunk/read_chunk".into(),
                    )
                })
            }
            other => Err(DpfsError::WrongLevel {
                expected: "array",
                actual: other.level().as_str().into(),
            }),
        }
    }

    /// Write processor `rank`'s whole chunk (array files): the checkpoint
    /// pattern of paper §3.3 — one brick, one request. `data` is the
    /// processor's HPF *local array*, packed row-major (for pure-BLOCK
    /// patterns that equals the chunk's rectangular region).
    pub fn write_chunk(&mut self, rank: u64, data: &[u8]) -> Result<()> {
        let len = self.chunk_check(rank, data.len() as u64)?;
        let runs = [BrickRun {
            brick: rank,
            brick_off: 0,
            buf_off: 0,
            len,
        }];
        self.execute_writes(&runs, data)
    }

    /// Read processor `rank`'s whole chunk back (the local array bytes).
    pub fn read_chunk(&mut self, rank: u64) -> Result<Vec<u8>> {
        let len = match &self.layout {
            Layout::Array(ar) if rank < ar.num_bricks() => ar.chunk_len(rank),
            Layout::Array(ar) => {
                return Err(DpfsError::InvalidArgument(format!(
                    "chunk {rank} of {}",
                    ar.num_bricks()
                )))
            }
            other => {
                return Err(DpfsError::WrongLevel {
                    expected: "array",
                    actual: other.level().as_str().into(),
                })
            }
        };
        let mut buf = vec![0u8; len as usize];
        let runs = [BrickRun {
            brick: rank,
            brick_off: 0,
            buf_off: 0,
            len,
        }];
        if let Err(e) = self.execute_reads(&runs, &mut buf) {
            return Err(attach_degraded_data(e, buf));
        }
        Ok(buf)
    }

    fn chunk_check(&self, rank: u64, data_len: u64) -> Result<u64> {
        let Layout::Array(ar) = &self.layout else {
            return Err(DpfsError::WrongLevel {
                expected: "array",
                actual: self.level().as_str().into(),
            });
        };
        if rank >= ar.num_bricks() {
            return Err(DpfsError::InvalidArgument(format!(
                "chunk {rank} of {}",
                ar.num_bricks()
            )));
        }
        let len = ar.chunk_len(rank);
        if data_len != len {
            return Err(DpfsError::InvalidArgument(format!(
                "chunk {rank} is {len} bytes, buffer has {data_len}"
            )));
        }
        Ok(len)
    }

    // -------------------------------------------------------- execution

    fn execute_writes(&mut self, runs: &[BrickRun], data: &[u8]) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        let op_start = trace::now_ns();
        if let Some(cache) = &mut self.cache {
            for r in runs {
                cache.invalidate(r.brick);
            }
        }
        // List I/O: coalesce in subfile space and ship a pattern descriptor
        // (or the legacy shape, per request, when the descriptor would be
        // larger). `plan_list` declines self-overlapping runs — those keep
        // the legacy planner's in-order overlap semantics.
        if self.opts.combine && self.opts.list_io {
            // Writes always use exact ranges: whole-brick granularity
            // would clobber bytes the caller never supplied.
            if let Some(reqs) = plan_list(
                runs,
                &self.map,
                &self.layout,
                Granularity::Exact,
                self.opts.rank,
            ) {
                return self.execute_writes_list(&reqs, data, trace_id, op_start);
            }
        }
        let reqs = plan_writes(
            runs,
            &self.map,
            &self.layout,
            self.opts.combine,
            self.opts.rank,
        );
        // Slice each request's payload out of `data` up front, so issuing
        // only touches owned message buffers. `Bytes` payloads are
        // refcounted, so replica fan-out below reuses them without copying.
        let payloads: Vec<Vec<(u64, Bytes)>> = reqs
            .iter()
            .map(|req| {
                req.ranges
                    .iter()
                    .map(|&(sub_off, buf_off, len)| {
                        (
                            sub_off,
                            Bytes::copy_from_slice(
                                &data[buf_off as usize..(buf_off + len) as usize],
                            ),
                        )
                    })
                    .collect()
            })
            .collect();
        let mut work: Vec<(&str, Request)> = Vec::with_capacity(reqs.len());
        // `(server index, expected Written bytes)` parallel to `work`.
        let mut expect: Vec<(usize, u64)> = Vec::with_capacity(reqs.len());
        for (req, ranges) in reqs.iter().zip(&payloads) {
            work.push((
                self.servers[req.server].as_str(),
                Request::Write {
                    subfile: self.path.clone(),
                    ranges: ranges.clone(),
                },
            ));
            expect.push((req.server, req.wire_bytes()));
        }
        if let RedundancyPolicy::Replica(k) = self.redundancy {
            // Copy `i` of server `s`'s subfile rides on server
            // `(s + i) % n` under the mirror name, same byte offsets —
            // one extra Write per copy in the same pipelined dispatch.
            let n = self.servers.len();
            for copy in 1..k {
                for (req, ranges) in reqs.iter().zip(&payloads) {
                    let mirror = (req.server + copy) % n;
                    work.push((
                        self.servers[mirror].as_str(),
                        Request::Write {
                            subfile: mirror_subfile(&self.path, copy),
                            ranges: ranges.clone(),
                        },
                    ));
                    expect.push((mirror, req.wire_bytes()));
                }
            }
        }
        trace::client_event(
            trace_id,
            "plan",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        let results = issue(&self.pool, &self.opts, work, trace_id);
        for (&(server, expected), res) in expect.iter().zip(results) {
            self.stats.requests += 1;
            let written = expect_written(res?)?;
            if written != expected {
                return Err(DpfsError::ShortWrite {
                    server: self.servers[server].clone(),
                    expected,
                    written,
                });
            }
            self.stats.wire_written += expected;
        }
        if self.redundancy == RedundancyPolicy::XorParity {
            let touched: Vec<(u64, u64)> = reqs
                .iter()
                .flat_map(|r| r.ranges.iter().map(|&(sub_off, _, len)| (sub_off, len)))
                .collect();
            self.write_parity(&touched, trace_id)?;
        }
        trace::client_event(
            trace_id,
            "op",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        Ok(())
    }

    /// List-I/O write path: one request per server carrying one coalesced
    /// payload. The per-request cost model picks the wire shape —
    /// `WriteList` with a pattern descriptor, or legacy `Write` over the
    /// same coalesced ranges when the descriptor would be larger.
    /// Redundancy fans the same refcounted payloads out to mirrors and
    /// keeps parity byte-exact.
    fn execute_writes_list(
        &mut self,
        reqs: &[ListRequest],
        data: &[u8],
        trace_id: u64,
        op_start: u64,
    ) -> Result<()> {
        // Gather each request's payload out of `data` up front (the pieces
        // map buffer bytes to payload offsets). `Bytes` payloads are
        // refcounted: replica fan-out and legacy-shape slicing below reuse
        // them without copying.
        let payloads: Vec<Bytes> = reqs
            .iter()
            .map(|req| {
                let mut payload = vec![0u8; req.wire_bytes() as usize];
                for p in &req.pieces {
                    payload[p.payload_off as usize..(p.payload_off + p.len) as usize]
                        .copy_from_slice(&data[p.buf_off as usize..(p.buf_off + p.len) as usize]);
                }
                Bytes::from(payload)
            })
            .collect();
        let shaped: Vec<ListShape> = reqs.iter().map(list_shape).collect();
        let request_for =
            |req: &ListRequest, shape: &ListShape, payload: &Bytes, subfile: String| match shape {
                ListShape::Pattern(pattern) => Request::WriteList {
                    subfile,
                    pattern: pattern.clone(),
                    payload: payload.clone(),
                },
                ListShape::Legacy => {
                    let mut at = 0usize;
                    let ranges = req
                        .ranges
                        .iter()
                        .map(|&(off, len)| {
                            let slice = payload.slice(at..at + len as usize);
                            at += len as usize;
                            (off, slice)
                        })
                        .collect();
                    Request::Write { subfile, ranges }
                }
            };
        let mut work: Vec<(&str, Request)> = Vec::with_capacity(reqs.len());
        let mut expect: Vec<(usize, u64)> = Vec::with_capacity(reqs.len());
        for ((req, shape), payload) in reqs.iter().zip(&shaped).zip(&payloads) {
            work.push((
                self.servers[req.server].as_str(),
                request_for(req, shape, payload, self.path.clone()),
            ));
            expect.push((req.server, req.wire_bytes()));
        }
        if let RedundancyPolicy::Replica(k) = self.redundancy {
            let n = self.servers.len();
            for copy in 1..k {
                for ((req, shape), payload) in reqs.iter().zip(&shaped).zip(&payloads) {
                    let mirror = (req.server + copy) % n;
                    work.push((
                        self.servers[mirror].as_str(),
                        request_for(req, shape, payload, mirror_subfile(&self.path, copy)),
                    ));
                    expect.push((mirror, req.wire_bytes()));
                }
            }
        }
        trace::client_event(
            trace_id,
            "plan",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        let results = issue(&self.pool, &self.opts, work, trace_id);
        for (&(server, expected), res) in expect.iter().zip(results) {
            self.stats.requests += 1;
            let written = expect_written(res?)?;
            if written != expected {
                return Err(DpfsError::ShortWrite {
                    server: self.servers[server].clone(),
                    expected,
                    written,
                });
            }
            self.stats.wire_written += expected;
        }
        if self.redundancy == RedundancyPolicy::XorParity {
            let touched: Vec<(u64, u64)> =
                reqs.iter().flat_map(|r| r.ranges.iter().copied()).collect();
            self.write_parity(&touched, trace_id)?;
        }
        trace::client_event(
            trace_id,
            "op",
            "write",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            data.len() as u64,
        );
        Ok(())
    }

    /// Bring the parity subfile up to date after a data write: re-read the
    /// freshly-written subfile-offset ranges from *every* data server
    /// (reads past a subfile's extent come back zero-filled, so short and
    /// absent subfiles contribute zeros), XOR them together, and write the
    /// result to the parity server. Recomputing from the data — instead of
    /// delta-XORing old vs new bytes — needs no read-before-write ordering
    /// and self-heals any previously stale parity range it touches.
    /// `touched` is the `(subfile_offset, len)` ranges the write dirtied,
    /// in any order, overlap allowed.
    fn write_parity(&mut self, touched: &[(u64, u64)], trace_id: u64) -> Result<()> {
        // Union of touched subfile-offset ranges across all data servers:
        // parity[off] covers byte `off` of every data subfile, so exactly
        // these ranges went stale.
        let mut spans: Vec<(u64, u64)> = touched
            .iter()
            .map(|&(sub_off, len)| (sub_off, sub_off + len))
            .collect();
        spans.sort_unstable();
        let mut union: Vec<(u64, u64)> = Vec::new(); // (offset, len)
        for (start, end) in spans {
            match union.last_mut() {
                Some((off, len)) if start <= *off + *len => {
                    *len = (*off + *len).max(end) - *off;
                }
                _ => union.push((start, end - start)),
            }
        }
        if union.is_empty() {
            return Ok(());
        }
        let data_servers = self.servers.len() - 1;
        let work: Vec<(&str, Request)> = self.servers[..data_servers]
            .iter()
            .map(|server| {
                (
                    server.as_str(),
                    Request::Read {
                        subfile: self.path.clone(),
                        ranges: union.clone(),
                    },
                )
            })
            .collect();
        let results = issue(&self.pool, &self.opts, work, trace_id);
        let mut acc: Vec<Vec<u8>> = union
            .iter()
            .map(|&(_, len)| vec![0u8; len as usize])
            .collect();
        for (i, res) in results.into_iter().enumerate() {
            let chunks = expect_chunks(res?, &union, &self.servers[i])?;
            self.stats.requests += 1;
            for (a, chunk) in acc.iter_mut().zip(&chunks) {
                self.stats.wire_read += chunk.len() as u64;
                for (ab, cb) in a.iter_mut().zip(chunk.iter()) {
                    *ab ^= cb;
                }
            }
        }
        let parity_server = self.servers[data_servers].clone();
        let expected: u64 = union.iter().map(|&(_, len)| len).sum();
        let ranges: Vec<(u64, Bytes)> = union
            .iter()
            .zip(acc)
            .map(|(&(off, _), bytes)| (off, Bytes::from(bytes)))
            .collect();
        let resp = self.pool.rpc(
            &parity_server,
            &Request::Write {
                subfile: parity_subfile(&self.path),
                ranges,
            },
        )?;
        self.stats.requests += 1;
        let written = expect_written(resp)?;
        if written != expected {
            return Err(DpfsError::ShortWrite {
                server: parity_server,
                expected,
                written,
            });
        }
        self.stats.wire_written += expected;
        Ok(())
    }

    /// Re-materialize the exact bytes lost `server` owed for `ranges`,
    /// using the file's redundancy: the first answering mirror copy under
    /// `Replica(k)`, or the XOR of every surviving data subfile plus the
    /// parity subfile under `XorParity`. Always speaks legacy `Read` —
    /// reconstruction wants one chunk per range back, byte-exact, and the
    /// degraded path is not the one to optimize wire bytes on.
    fn reconstruct_ranges(
        &self,
        server: usize,
        ranges: &[(u64, u64)],
        trace_id: u64,
    ) -> Result<Vec<Bytes>> {
        let n = self.servers.len();
        match self.redundancy {
            RedundancyPolicy::None => Err(DpfsError::InvalidArgument(
                "reconstruct on an unprotected file".into(),
            )),
            RedundancyPolicy::Replica(k) => {
                let mut last_err = None;
                for copy in 1..k {
                    let mirror = &self.servers[(server + copy) % n];
                    let resp = self.pool.rpc(
                        mirror,
                        &Request::Read {
                            subfile: mirror_subfile(&self.path, copy),
                            ranges: ranges.to_vec(),
                        },
                    );
                    match resp.and_then(|r| expect_chunks(r, ranges, mirror)) {
                        Ok(chunks) => return Ok(chunks),
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.expect("replica policy has k >= 2"))
            }
            RedundancyPolicy::XorParity => {
                let data_servers = n - 1;
                // Same byte ranges from every surviving data subfile and
                // the parity subfile, XORed together: parity's definition
                // solved for the missing term.
                let peers: Vec<(&str, Request)> = (0..data_servers)
                    .filter(|&d| d != server)
                    .map(|d| {
                        (
                            self.servers[d].as_str(),
                            Request::Read {
                                subfile: self.path.clone(),
                                ranges: ranges.to_vec(),
                            },
                        )
                    })
                    .chain(std::iter::once((
                        self.servers[data_servers].as_str(),
                        Request::Read {
                            subfile: parity_subfile(&self.path),
                            ranges: ranges.to_vec(),
                        },
                    )))
                    .collect();
                let names: Vec<usize> = (0..data_servers)
                    .filter(|&d| d != server)
                    .chain(std::iter::once(data_servers))
                    .collect();
                let results = issue(&self.pool, &self.opts, peers, trace_id);
                let mut acc: Vec<Vec<u8>> = ranges
                    .iter()
                    .map(|&(_, len)| vec![0u8; len as usize])
                    .collect();
                for (&peer, res) in names.iter().zip(results) {
                    let chunks = expect_chunks(res?, ranges, &self.servers[peer])?;
                    for (a, chunk) in acc.iter_mut().zip(&chunks) {
                        for (ab, cb) in a.iter_mut().zip(chunk.iter()) {
                            *ab ^= cb;
                        }
                    }
                }
                Ok(acc.into_iter().map(Bytes::from).collect())
            }
        }
    }

    fn execute_reads(&mut self, runs: &[BrickRun], buf: &mut [u8]) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        let op_start = trace::now_ns();
        // Serve runs whose bricks are cached locally; fetch the rest.
        let mut remaining: Vec<BrickRun> = Vec::with_capacity(runs.len());
        if let (Some(cache), Granularity::Brick) = (&mut self.cache, self.opts.granularity) {
            for r in runs {
                match cache.get(r.brick) {
                    Some(data) => {
                        let src = &data[r.brick_off as usize..(r.brick_off + r.len) as usize];
                        buf[r.buf_off as usize..(r.buf_off + r.len) as usize].copy_from_slice(src);
                        self.stats.useful_read += r.len;
                    }
                    None => remaining.push(*r),
                }
            }
            if remaining.is_empty() {
                trace::client_event(
                    trace_id,
                    "op",
                    "read",
                    "",
                    op_start,
                    trace::now_ns().saturating_sub(op_start),
                    buf.len() as u64,
                );
                return Ok(());
            }
        } else {
            remaining.extend_from_slice(runs);
        }
        let runs = remaining.as_slice();
        // List I/O: ship the access pattern, not the brick list. Gated on
        // the cache being off — cache fills need the per-brick chunks only
        // the legacy shape returns — and declined by `plan_list` for
        // self-overlapping runs.
        if self.opts.combine && self.opts.list_io && self.cache.is_none() {
            if let Some(reqs) = plan_list(
                runs,
                &self.map,
                &self.layout,
                self.opts.granularity,
                self.opts.rank,
            ) {
                return self.execute_reads_list(&reqs, buf, trace_id, op_start);
            }
        }
        let reqs = plan_reads(
            runs,
            &self.map,
            &self.layout,
            self.opts.combine,
            self.opts.granularity,
            self.opts.rank,
        );
        // Put every request on the wire, then scatter each server's chunks
        // into `buf` as completions arrive (collect-then-scatter keeps the
        // hot buffer single-writer).
        let work: Vec<(&str, Request)> = reqs
            .iter()
            .map(|req| {
                (
                    self.servers[req.server].as_str(),
                    Request::Read {
                        subfile: self.path.clone(),
                        ranges: req.ranges.clone(),
                    },
                )
            })
            .collect();
        trace::client_event(
            trace_id,
            "plan",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            buf.len() as u64,
        );
        let results = issue(&self.pool, &self.opts, work, trace_id);
        let mut outcomes: Vec<SubfileOutcome> = Vec::new();
        for (req, res) in reqs.iter().zip(results) {
            match res {
                Ok(resp) => {
                    let chunks = expect_chunks(resp, &req.ranges, &self.servers[req.server])?;
                    self.stats.requests += 1;
                    self.stats.wire_read += req.wire_bytes();
                    for piece in &req.scatter {
                        let chunk = &chunks[piece.chunk];
                        let src = &chunk
                            [piece.chunk_off as usize..(piece.chunk_off + piece.len) as usize];
                        buf[piece.buf_off as usize..(piece.buf_off + piece.len) as usize]
                            .copy_from_slice(src);
                        self.stats.useful_read += piece.len;
                    }
                    if let Some(cache) = &mut self.cache {
                        for (i, &brick) in req.bricks.iter().enumerate() {
                            cache.insert(brick, chunks[i].clone());
                        }
                    }
                }
                // Transport-class failure on a redundant file: read
                // *around* the lost server first — the surviving mirror or
                // the XOR of peers + parity rebuilds the exact bytes, so
                // the caller sees neither holes nor a `Degraded` outcome.
                Err(err)
                    if self.redundancy != RedundancyPolicy::None
                        && RetryPolicy::retryable(&err) =>
                {
                    let t0 = trace::now_ns();
                    match self.reconstruct_ranges(req.server, &req.ranges, trace_id) {
                        Ok(chunks) => {
                            let server = &self.servers[req.server];
                            self.stats.requests += 1;
                            self.stats.wire_read += req.wire_bytes();
                            let mut bytes = 0u64;
                            for piece in &req.scatter {
                                let chunk = &chunks[piece.chunk];
                                let src = &chunk[piece.chunk_off as usize
                                    ..(piece.chunk_off + piece.len) as usize];
                                buf[piece.buf_off as usize..(piece.buf_off + piece.len) as usize]
                                    .copy_from_slice(src);
                                self.stats.useful_read += piece.len;
                                bytes += piece.len;
                            }
                            self.pool.note_reconstruct(server);
                            trace::client_event(
                                trace_id,
                                "reconstruct",
                                "read",
                                server,
                                t0,
                                trace::now_ns().saturating_sub(t0),
                                bytes,
                            );
                            if let Some(cache) = &mut self.cache {
                                for (i, &brick) in req.bricks.iter().enumerate() {
                                    cache.insert(brick, chunks[i].clone());
                                }
                            }
                        }
                        // Reconstruction itself failed (a second server
                        // down): fall back to the zero-fill contract if the
                        // caller opted in, else surface the original error.
                        Err(rec_err) if self.opts.degraded_reads => {
                            let server = &self.servers[req.server];
                            let mut bytes = 0u64;
                            for piece in &req.scatter {
                                buf[piece.buf_off as usize..(piece.buf_off + piece.len) as usize]
                                    .fill(0);
                                bytes += piece.len;
                            }
                            self.stats.requests += 1;
                            self.pool.note_degraded(server);
                            trace::client_event(
                                trace_id,
                                "degraded",
                                "read",
                                server,
                                trace::now_ns(),
                                0,
                                bytes,
                            );
                            outcomes.push(SubfileOutcome {
                                server: server.clone(),
                                bytes,
                                error: rec_err.to_string(),
                            });
                        }
                        Err(_) => return Err(err),
                    }
                }
                // Transport-class failure after retries on an unprotected
                // file: zero-fill the ranges this server owed us and carry
                // on. Application errors still fail the read — the server
                // processed the request and said no.
                Err(err) if self.opts.degraded_reads && RetryPolicy::retryable(&err) => {
                    let server = &self.servers[req.server];
                    let mut bytes = 0u64;
                    for piece in &req.scatter {
                        buf[piece.buf_off as usize..(piece.buf_off + piece.len) as usize].fill(0);
                        bytes += piece.len;
                    }
                    self.stats.requests += 1;
                    self.pool.note_degraded(server);
                    trace::client_event(
                        trace_id,
                        "degraded",
                        "read",
                        server,
                        trace::now_ns(),
                        0,
                        bytes,
                    );
                    outcomes.push(SubfileOutcome {
                        server: server.clone(),
                        bytes,
                        error: err.to_string(),
                    });
                }
                Err(err) => return Err(err),
            }
        }
        trace::client_event(
            trace_id,
            "op",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            buf.len() as u64,
        );
        if outcomes.is_empty() {
            Ok(())
        } else {
            // The byte-returning wrappers attach the holed buffer.
            Err(DpfsError::Degraded {
                op: "read",
                data: Vec::new(),
                outcomes,
            })
        }
    }

    /// List-I/O read path: one request per server, answered with one
    /// coalesced payload that the pieces scatter into `buf`. Wire shape
    /// per the cost model; reconstruction and degraded holes match the
    /// legacy path byte-for-byte.
    fn execute_reads_list(
        &mut self,
        reqs: &[ListRequest],
        buf: &mut [u8],
        trace_id: u64,
        op_start: u64,
    ) -> Result<()> {
        let shaped: Vec<ListShape> = reqs.iter().map(list_shape).collect();
        let work: Vec<(&str, Request)> = reqs
            .iter()
            .zip(&shaped)
            .map(|(req, shape)| {
                let r = match shape {
                    ListShape::Pattern(pattern) => Request::ReadList {
                        subfile: self.path.clone(),
                        pattern: pattern.clone(),
                    },
                    ListShape::Legacy => Request::Read {
                        subfile: self.path.clone(),
                        ranges: req.ranges.clone(),
                    },
                };
                (self.servers[req.server].as_str(), r)
            })
            .collect();
        trace::client_event(
            trace_id,
            "plan",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            buf.len() as u64,
        );
        let results = issue(&self.pool, &self.opts, work, trace_id);
        let mut outcomes: Vec<SubfileOutcome> = Vec::new();
        for ((req, shape), res) in reqs.iter().zip(&shaped).zip(results) {
            match res {
                Ok(resp) => {
                    let server = &self.servers[req.server];
                    match shape {
                        ListShape::Pattern(_) => {
                            let data = expect_list_data(resp, req.wire_bytes(), server)?;
                            for p in &req.pieces {
                                let src =
                                    &data[p.payload_off as usize..(p.payload_off + p.len) as usize];
                                buf[p.buf_off as usize..(p.buf_off + p.len) as usize]
                                    .copy_from_slice(src);
                            }
                        }
                        ListShape::Legacy => {
                            let chunks = expect_chunks(resp, &req.ranges, server)?;
                            scatter_list_pieces(req, &chunks, buf);
                        }
                    }
                    self.stats.requests += 1;
                    self.stats.wire_read += req.wire_bytes();
                    self.stats.useful_read += req.useful_bytes();
                }
                // Transport-class failure on a redundant file: rebuild the
                // lost server's ranges from mirrors / XOR peers + parity
                // (over legacy `Read`) and scatter as if it had answered.
                Err(err)
                    if self.redundancy != RedundancyPolicy::None
                        && RetryPolicy::retryable(&err) =>
                {
                    let t0 = trace::now_ns();
                    match self.reconstruct_ranges(req.server, &req.ranges, trace_id) {
                        Ok(chunks) => {
                            let server = &self.servers[req.server];
                            scatter_list_pieces(req, &chunks, buf);
                            self.stats.requests += 1;
                            self.stats.wire_read += req.wire_bytes();
                            self.stats.useful_read += req.useful_bytes();
                            self.pool.note_reconstruct(server);
                            trace::client_event(
                                trace_id,
                                "reconstruct",
                                "read",
                                server,
                                t0,
                                trace::now_ns().saturating_sub(t0),
                                req.useful_bytes(),
                            );
                        }
                        Err(rec_err) if self.opts.degraded_reads => {
                            let server = &self.servers[req.server];
                            let bytes = zero_fill_list_pieces(req, buf);
                            self.stats.requests += 1;
                            self.pool.note_degraded(server);
                            trace::client_event(
                                trace_id,
                                "degraded",
                                "read",
                                server,
                                trace::now_ns(),
                                0,
                                bytes,
                            );
                            outcomes.push(SubfileOutcome {
                                server: server.clone(),
                                bytes,
                                error: rec_err.to_string(),
                            });
                        }
                        Err(_) => return Err(err),
                    }
                }
                Err(err) if self.opts.degraded_reads && RetryPolicy::retryable(&err) => {
                    let server = &self.servers[req.server];
                    let bytes = zero_fill_list_pieces(req, buf);
                    self.stats.requests += 1;
                    self.pool.note_degraded(server);
                    trace::client_event(
                        trace_id,
                        "degraded",
                        "read",
                        server,
                        trace::now_ns(),
                        0,
                        bytes,
                    );
                    outcomes.push(SubfileOutcome {
                        server: server.clone(),
                        bytes,
                        error: err.to_string(),
                    });
                }
                Err(err) => return Err(err),
            }
        }
        trace::client_event(
            trace_id,
            "op",
            "read",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            buf.len() as u64,
        );
        if outcomes.is_empty() {
            Ok(())
        } else {
            Err(DpfsError::Degraded {
                op: "read",
                data: Vec::new(),
                outcomes,
            })
        }
    }

    /// Grow a linear file's brick map to `needed` bricks, persisting the new
    /// brick lists to the catalog.
    fn grow_to(&mut self, needed: u64) -> Result<()> {
        let extra = needed - self.map.num_bricks();
        match self.placement {
            Placement::RoundRobin => self.map.extend(extra, None),
            Placement::Greedy => self.map.extend(extra, Some(&self.perf)),
        }
        if let Layout::Linear(lin) = &mut self.layout {
            lin.file_bytes = lin.file_bytes.max(needed * lin.brick_bytes);
        }
        let mut dist: Vec<Distribution> = self
            .servers
            .iter()
            .zip(self.map.bricklists())
            .map(|(server, bricks)| Distribution {
                server: server.clone(),
                filename: self.path.clone(),
                bricklist: bricks.iter().map(|&b| b as i64).collect(),
            })
            .collect();
        if self.redundancy == RedundancyPolicy::XorParity {
            // The brick map covers only the data servers; re-append the
            // brickless parity row the zip above dropped.
            dist.push(Distribution {
                server: self.servers.last().expect("xor parity has servers").clone(),
                filename: self.path.clone(),
                bricklist: Vec::new(),
            });
        }
        self.meta.update_distribution(&self.path, &dist)?;
        Ok(())
    }

    /// Ask every server holding this file to flush its subfile. Every
    /// server is attempted even when some fail — one dead server must not
    /// leave the others' subfiles unflushed — and the failures come back
    /// aggregated in a single [`DpfsError::Aggregate`].
    pub fn sync(&mut self) -> Result<()> {
        let trace_id = trace::sampled_trace_id();
        self.last_trace_id = trace_id;
        let op_start = trace::now_ns();
        // Every subfile this file materialises, per server: primaries,
        // each server's mirror copies, and the parity sibling. (A server
        // answers Pong for a subfile it never created.)
        let n = self.servers.len();
        let mut targets: Vec<(usize, String)> = Vec::new();
        match self.redundancy {
            RedundancyPolicy::None => {
                targets.extend((0..n).map(|s| (s, self.path.clone())));
            }
            RedundancyPolicy::Replica(k) => {
                for s in 0..n {
                    targets.push((s, self.path.clone()));
                    for copy in 1..k {
                        targets.push(((s + copy) % n, mirror_subfile(&self.path, copy)));
                    }
                }
            }
            RedundancyPolicy::XorParity => {
                targets.extend((0..n - 1).map(|s| (s, self.path.clone())));
                targets.push((n - 1, parity_subfile(&self.path)));
            }
        }
        let work: Vec<(&str, Request)> = targets
            .iter()
            .map(|(server, subfile)| {
                (
                    self.servers[*server].as_str(),
                    Request::Sync {
                        subfile: subfile.clone(),
                    },
                )
            })
            .collect();
        trace::client_event(
            trace_id,
            "plan",
            "sync",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            0,
        );
        let results = issue(&self.pool, &self.opts, work, trace_id);
        let failures: Vec<(String, DpfsError)> = targets
            .iter()
            .zip(results)
            .filter_map(|((server, _), res)| {
                let err = match res {
                    Ok(Response::Error { code, message }) => {
                        Some(DpfsError::Server { code, message })
                    }
                    Ok(_) => None,
                    Err(e) => Some(e),
                };
                err.map(|e| (self.servers[*server].clone(), e))
            })
            .collect();
        trace::client_event(
            trace_id,
            "op",
            "sync",
            "",
            op_start,
            trace::now_ns().saturating_sub(op_start),
            0,
        );
        if failures.is_empty() {
            Ok(())
        } else {
            Err(DpfsError::Aggregate {
                op: "sync",
                failures,
            })
        }
    }

    /// Close the handle, persisting the final size. (Dropping the handle
    /// also works; `close` surfaces errors.)
    pub fn close(self) -> Result<()> {
        self.meta.set_file_size(&self.path, self.size as i64)?;
        Ok(())
    }
}

/// Issue one request per planned item, returning raw responses in plan
/// order. Every frame goes on the wire first — the transport assigns
/// correlation IDs and the per-server demux thread completes them out of
/// order — then completions are collected in plan order. One slow server
/// does not stall requests to the others, and multiple requests to *one*
/// server overlap inside its connection.
fn issue(
    pool: &ConnPool,
    opts: &ClientOptions,
    work: Vec<(&str, Request)>,
    trace_id: u64,
) -> Vec<Result<Response>> {
    let kind = work
        .first()
        .map(|(_, req)| req.kind_str())
        .unwrap_or("other");
    let t0 = trace::now_ns();
    let timeout = opts.rpc_timeout;
    // Keep each request alongside its pending completion: a waiter that
    // fails with a transient error reissues the request itself (the other
    // servers' responses keep arriving meanwhile).
    let submitted: Vec<_> = work
        .into_iter()
        .map(|(server, req)| {
            let pending = pool.submit_traced(server, &req, trace_id);
            (server, req, pending)
        })
        .collect();
    let t1 = trace::now_ns();
    trace::client_event(trace_id, "submit", kind, "", t0, t1.saturating_sub(t0), 0);
    let out = submitted
        .into_iter()
        .map(|(server, req, pending)| {
            let first = pending.and_then(|pending| pending.wait(timeout));
            retry_if_transient(pool, opts, server, &req, trace_id, first)
        })
        .collect();
    trace::client_event(
        trace_id,
        "await",
        kind,
        "",
        t1,
        trace::now_ns().saturating_sub(t1),
        0,
    );
    out
}

/// The wire shape the cost model picked for one list request.
enum ListShape {
    /// Compact descriptor: `ReadList` / `WriteList`.
    Pattern(AccessPattern),
    /// Irregular access — the descriptor would encode no smaller than the
    /// enumerated range list; ship legacy `Read` / `Write` over the same
    /// coalesced ranges.
    Legacy,
}

/// The cost model: a pattern descriptor pays off iff it encodes smaller
/// than the legacy enumerated range list (`u32` count + 16 bytes per
/// range).
fn list_shape(req: &ListRequest) -> ListShape {
    if req.ranges.len() > MAX_PATTERN_RANGES {
        return ListShape::Legacy;
    }
    let pattern = AccessPattern::from_runs(&req.ranges);
    if pattern.encoded_len() < 4 + 16 * req.ranges.len() {
        ListShape::Pattern(pattern)
    } else {
        ListShape::Legacy
    }
}

/// Scatter legacy per-range chunks through a list request's pieces. Each
/// piece lies within exactly one coalesced range (payload offsets never
/// cross range boundaries by construction), so the owning chunk is found
/// by payload-offset prefix sums.
fn scatter_list_pieces(req: &ListRequest, chunks: &[Bytes], buf: &mut [u8]) {
    let mut prefix = Vec::with_capacity(req.ranges.len());
    let mut at = 0u64;
    for &(_, len) in &req.ranges {
        prefix.push(at);
        at += len;
    }
    for p in &req.pieces {
        let idx = prefix.partition_point(|&q| q <= p.payload_off) - 1;
        let off = (p.payload_off - prefix[idx]) as usize;
        let src = &chunks[idx][off..off + p.len as usize];
        buf[p.buf_off as usize..(p.buf_off + p.len) as usize].copy_from_slice(src);
    }
}

/// Zero-fill a list request's useful bytes in `buf` (degraded hole);
/// returns the byte count holed.
fn zero_fill_list_pieces(req: &ListRequest, buf: &mut [u8]) -> u64 {
    let mut bytes = 0u64;
    for p in &req.pieces {
        buf[p.buf_off as usize..(p.buf_off + p.len) as usize].fill(0);
        bytes += p.len;
    }
    bytes
}

/// Attach the (zero-holed) buffer to a [`DpfsError::Degraded`] bubbling
/// out of `execute_reads`, so callers that opted in can keep the bytes
/// that did arrive. Other errors pass through untouched.
fn attach_degraded_data(err: DpfsError, buf: Vec<u8>) -> DpfsError {
    match err {
        DpfsError::Degraded { op, outcomes, .. } => DpfsError::Degraded {
            op,
            data: buf,
            outcomes,
        },
        other => other,
    }
}

/// Apply the client's retry policy to one completed RPC: transient
/// failures are reissued through [`ConnPool::retry_after`] (which counts
/// and traces each attempt); everything else passes through.
fn retry_if_transient(
    pool: &ConnPool,
    opts: &ClientOptions,
    server: &str,
    req: &Request,
    trace_id: u64,
    first: Result<Response>,
) -> Result<Response> {
    match first {
        Err(err) if opts.retry.enabled() && RetryPolicy::retryable(&err) => {
            pool.retry_after(server, req, trace_id, err, opts.retry)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(ranges: Vec<(u64, u64)>) -> ListRequest {
        ListRequest {
            server: 0,
            ranges,
            pieces: vec![],
        }
    }

    /// The cost-model crossover: a pattern ships iff its descriptor
    /// encodes strictly smaller than the enumerated range list
    /// (`u32` count + 16 bytes per range).
    #[test]
    fn cost_model_crossover() {
        // A single range never pays: one Run segment (21 bytes) beats a
        // one-range enumeration (20 bytes) nowhere.
        assert!(matches!(
            list_shape(&req(vec![(0, 4096)])),
            ListShape::Legacy
        ));

        // Regular strides compress to one Vector segment (29 bytes
        // total), so the descriptor wins from two ranges up...
        for count in 2u64..32 {
            let ranges: Vec<(u64, u64)> = (0..count).map(|i| (i * 64, 16)).collect();
            let shape = list_shape(&req(ranges.clone()));
            let ListShape::Pattern(p) = shape else {
                panic!("strided {count}-range access should ship as a pattern");
            };
            assert!(p.encoded_len() < 4 + 16 * ranges.len());
            assert_eq!(p.expand(), ranges);
        }

        // ...while fully irregular runs (distinct lengths — no arithmetic
        // structure to exploit) cost 17 bytes per Run segment against 16
        // enumerated, so they always fall back.
        for count in 1u64..16 {
            let ranges: Vec<(u64, u64)> = (0..count).map(|i| (i * i * 97 + i, i + 1)).collect();
            assert!(
                matches!(list_shape(&req(ranges)), ListShape::Legacy),
                "irregular {count}-range access should ship legacy"
            );
        }

        // Over the per-pattern range cap, always legacy (the descriptor
        // would be rejected server-side).
        let huge: Vec<(u64, u64)> = (0..=MAX_PATTERN_RANGES as u64)
            .map(|i| (i * 64, 16))
            .collect();
        assert!(matches!(list_shape(&req(huge)), ListShape::Legacy));
    }
}
