//! Measurement taken from outside the program: per-op samples, spans
//! around calls into the client's public functions, deltas of the calling
//! mount's own transport counters, cluster scrapes and procfs thread CPU.

use std::time::Instant;

use dpfs_cluster::scrape_cluster;
use dpfs_core::trace::{HistSnapshot, NodeRole};
use dpfs_core::Dpfs;

/// Client-visible operation classes; each keeps its own latency samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write,
    Stat,
    Create,
    Rename,
    Unlink,
}

/// Number of [`Class`] variants.
pub const CLASSES: usize = 6;

/// Public client calls that get a span in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Open = 0,
    Create,
    Stat,
    Rename,
    Unlink,
    Read,
    Write,
    Sync,
}

/// Number of [`Call`] variants.
pub const CALLS: usize = 8;

/// The peers one mount talks to, by role.
#[derive(Clone, Debug)]
pub struct Peers {
    /// Every I/O server, dead ones included (their transports carry the
    /// retry and reconstruction counters).
    pub ionds: Vec<String>,
    /// Every metadata shard.
    pub metads: Vec<String>,
    /// I/O servers that answer: with the shards, the Ping targets.
    pub live_ionds: Vec<String>,
}

/// One mount's transport counters, summed per role.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub meta_rpcs: u64,
    pub io_rpcs: u64,
    pub io_req_bytes: u64,
    pub list_io: u64,
    pub reconstructs: u64,
    pub degraded: u64,
    pub retries: u64,
    pub timed_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Client-observed round trips to metad peers: (sum ns, count).
    pub meta_rtt: (u64, u64),
    /// Client-observed round trips to iond peers: (sum ns, count).
    pub io_rtt: (u64, u64),
}

fn rtt(h: [&HistSnapshot; 3]) -> (u64, u64) {
    h.iter().fold((0, 0), |(s, c), h| (s + h.sum, c + h.count))
}

impl Counts {
    /// Read `fs`'s own transport counters for every peer.
    pub fn of(fs: &Dpfs, peers: &Peers) -> Counts {
        let mut c = Counts::default();
        for (names, meta) in [(&peers.metads, true), (&peers.ionds, false)] {
            for name in names {
                let Some(t) = fs.pool().transport_stats(name) else {
                    continue;
                };
                let (sum, count) = rtt([&t.read_latency, &t.write_latency, &t.other_latency]);
                if meta {
                    c.meta_rpcs += t.submitted;
                    c.meta_rtt.0 += sum;
                    c.meta_rtt.1 += count;
                } else {
                    c.io_rpcs += t.submitted;
                    c.io_req_bytes += t.req_bytes;
                    c.list_io += t.list_io;
                    c.io_rtt.0 += sum;
                    c.io_rtt.1 += count;
                }
                c.reconstructs += t.reconstructs;
                c.degraded += t.degraded;
                c.retries += t.retries;
                c.timed_out += t.timed_out;
                c.cache_hits += t.meta_cache_hits;
                c.cache_misses += t.meta_cache_misses;
            }
        }
        c
    }

    /// Field-wise `self - earlier` (counters only grow).
    pub fn since(self, e: Counts) -> Counts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counts {
            meta_rpcs: d(self.meta_rpcs, e.meta_rpcs),
            io_rpcs: d(self.io_rpcs, e.io_rpcs),
            io_req_bytes: d(self.io_req_bytes, e.io_req_bytes),
            list_io: d(self.list_io, e.list_io),
            reconstructs: d(self.reconstructs, e.reconstructs),
            degraded: d(self.degraded, e.degraded),
            retries: d(self.retries, e.retries),
            timed_out: d(self.timed_out, e.timed_out),
            cache_hits: d(self.cache_hits, e.cache_hits),
            cache_misses: d(self.cache_misses, e.cache_misses),
            meta_rtt: (
                d(self.meta_rtt.0, e.meta_rtt.0),
                d(self.meta_rtt.1, e.meta_rtt.1),
            ),
            io_rtt: (d(self.io_rtt.0, e.io_rtt.0), d(self.io_rtt.1, e.io_rtt.1)),
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.meta_rpcs += o.meta_rpcs;
        self.io_rpcs += o.io_rpcs;
        self.io_req_bytes += o.io_req_bytes;
        self.list_io += o.list_io;
        self.reconstructs += o.reconstructs;
        self.degraded += o.degraded;
        self.retries += o.retries;
        self.timed_out += o.timed_out;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.meta_rtt.0 += o.meta_rtt.0;
        self.meta_rtt.1 += o.meta_rtt.1;
        self.io_rtt.0 += o.io_rtt.0;
        self.io_rtt.1 += o.io_rtt.1;
    }
}

/// Spans of one [`Call`] kind: durations plus the summed counter deltas.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub us: Vec<f64>,
    pub counts: Counts,
}

/// What the traced run records beside the op samples.
#[derive(Debug, Default)]
pub struct Layers {
    pub calls: [CallStats; CALLS],
    /// Replayed client planning (map + plan) per read / write call.
    pub plan_read_us: Vec<f64>,
    pub plan_write_us: Vec<f64>,
    /// Requests the replayed read plans produced, summed.
    pub plan_read_requests: u64,
    /// Pattern build + encode + decode per planned call.
    pub pattern_us: Vec<f64>,
    /// Ping round trips issued between ops, by role (µs).
    pub ping_meta_us: Vec<f64>,
    pub ping_io_us: Vec<f64>,
}

/// One closed-loop client's record of one window.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency samples in µs, per [`Class`].
    pub lat: [Vec<f64>; CLASSES],
    pub attempted: u64,
    pub failed: u64,
    /// Ops whose output was wrong.
    pub wrong: u64,
    pub user_read: u64,
    pub user_written: u64,
    /// Set only in the traced run.
    pub layers: Option<Layers>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            layers: traced.then(Layers::default),
            ..Recorder::default()
        }
    }

    /// Time one op of `class`. An `Err` counts as a failure and records
    /// no latency; `Ok(false)` (output checked and wrong) counts as wrong.
    pub fn op<E: std::fmt::Display>(
        &mut self,
        class: Class,
        f: impl FnOnce(&mut Self) -> Result<bool, E>,
    ) {
        self.attempted += 1;
        let t0 = Instant::now();
        match f(self) {
            Ok(correct) => {
                self.lat[class as usize].push(t0.elapsed().as_secs_f64() * 1e6);
                if !correct {
                    self.wrong += 1;
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("perfbench: {class:?} op failed: {e}");
                }
            }
        }
    }

    /// Call into a client layer. In the traced run the call gets a span
    /// and the mount's counter delta across it.
    pub fn call<T>(&mut self, fs: &Dpfs, peers: &Peers, call: Call, f: impl FnOnce() -> T) -> T {
        let Some(layers) = &mut self.layers else {
            return f();
        };
        let before = Counts::of(fs, peers);
        let t0 = Instant::now();
        let out = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let delta = Counts::of(fs, peers).since(before);
        let stats = &mut layers.calls[call as usize];
        stats.us.push(us);
        stats.counts.add(&delta);
        out
    }

    /// Fold another client's record of the same window (and the same
    /// traced or untraced kind) into this one.
    pub fn merge(&mut self, o: Recorder) {
        for (a, b) in self.lat.iter_mut().zip(o.lat) {
            a.extend(b);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.user_read += o.user_read;
        self.user_written += o.user_written;
        if let (Some(a), Some(b)) = (&mut self.layers, o.layers) {
            for (x, y) in a.calls.iter_mut().zip(b.calls) {
                x.us.extend(y.us);
                x.counts.add(&y.counts);
            }
            a.plan_read_us.extend(b.plan_read_us);
            a.plan_write_us.extend(b.plan_write_us);
            a.plan_read_requests += b.plan_read_requests;
            a.pattern_us.extend(b.pattern_us);
            a.ping_meta_us.extend(b.ping_meta_us);
            a.ping_io_us.extend(b.ping_io_us);
        }
    }

    /// Ops that completed without error.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Percentile `p` (0..=100) of `v`, linear between the closest ranks; 0
/// for no samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// The median of `v` (0 for no samples).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Server-side totals from one cluster scrape.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerTotals {
    pub io_requests: u64,
    pub io_bytes_read: u64,
    pub io_bytes_written: u64,
    /// iond `lat.read`, `lat.write`, `lat.other`: (sum ns, count).
    pub io_lat: [(u64, u64); 3],
    /// All metad `meta.*` histograms pooled: (sum ns, count).
    pub meta_lat: (u64, u64),
}

impl ServerTotals {
    /// Scrape every node through `observer`, a mount the load never uses,
    /// so the scrape's own RPCs stay out of the load mounts' counters.
    pub fn scrape(observer: &Dpfs) -> ServerTotals {
        let snap = scrape_cluster(observer);
        let mut t = ServerTotals {
            io_requests: snap.counter_sum(NodeRole::Iond, "io.requests"),
            io_bytes_read: snap.counter_sum(NodeRole::Iond, "io.bytes_read"),
            io_bytes_written: snap.counter_sum(NodeRole::Iond, "io.bytes_written"),
            ..ServerTotals::default()
        };
        for (i, name) in ["lat.read", "lat.write", "lat.other"].iter().enumerate() {
            let h = snap.merged_hist(NodeRole::Iond, |n| n == *name);
            t.io_lat[i] = (h.sum, h.count);
        }
        let h = snap.merged_hist(NodeRole::Metad, |n| n.starts_with("meta."));
        t.meta_lat = (h.sum, h.count);
        t
    }

    /// Field-wise `self - earlier`.
    pub fn since(self, e: ServerTotals) -> ServerTotals {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let dp = |a: (u64, u64), b: (u64, u64)| (d(a.0, b.0), d(a.1, b.1));
        ServerTotals {
            io_requests: d(self.io_requests, e.io_requests),
            io_bytes_read: d(self.io_bytes_read, e.io_bytes_read),
            io_bytes_written: d(self.io_bytes_written, e.io_bytes_written),
            io_lat: [
                dp(self.io_lat[0], e.io_lat[0]),
                dp(self.io_lat[1], e.io_lat[1]),
                dp(self.io_lat[2], e.io_lat[2]),
            ],
            meta_lat: dp(self.meta_lat, e.meta_lat),
        }
    }
}

/// Thread groups for CPU accounting: the metric each feeds, and the
/// thread-name prefix the program (or this benchmark, for its load
/// threads) sets.
pub const CPU_GROUPS: [(&str, &str); 5] = [
    ("cpu.accept_ms_per_op", "dpfs-accept"),
    ("cpu.shard_ms_per_op", "dpfs-shard"),
    ("cpu.worker_ms_per_op", "dpfs-worker"),
    ("cpu.demux_ms_per_op", "dpfs-demux"),
    ("cpu.load_ms_per_op", "bench-load"),
];

/// Busy CPU (user + system) in clock ticks per [`CPU_GROUPS`] entry,
/// summed over this process's live threads. A thread that exits takes
/// its time with it, so read this while the threads of interest run.
pub fn cpu_ticks() -> [u64; 5] {
    let mut out = [0u64; 5];
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`: comm may hold spaces, so split at
        // the last ')'. utime and stime are fields 14 and 15.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let comm = &stat[open + 1..close];
        let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        // fields[0] is field 3 (state), so utime (14) is fields[11].
        let busy = tick(11) + tick(12);
        if let Some(g) = CPU_GROUPS.iter().position(|(_, p)| comm.starts_with(p)) {
            out[g] += busy;
        }
    }
    out
}

/// Clock ticks per second of procfs CPU times (USER_HZ, 100 on Linux).
pub const TICKS_PER_S: f64 = 100.0;

/// The whole machine's CPU ticks from `/proc/stat`: `(stolen, total)`.
/// Stolen ticks are those the hypervisor gave to other guests while
/// this one had work to run.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let stolen = ticks.get(7).copied().unwrap_or(0);
    (stolen, ticks.iter().take(8).sum())
}

/// Share of the machine's CPU time the hypervisor stole since the
/// `host_ticks` reading `host0`.
pub fn stolen_since(host0: (u64, u64)) -> f64 {
    let host1 = host_ticks();
    ratio(
        host1.0.saturating_sub(host0.0) as f64,
        host1.1.saturating_sub(host0.1) as f64,
    )
}
