//! The four closed-loop workloads: their inputs (made from the seed
//! alone), their cluster set-up, and one op of each.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use dpfs_cluster::{metad_name, Testbed};
use dpfs_core::plan::{plan_list, plan_reads, plan_writes};
use dpfs_core::{
    ClientOptions, Dpfs, FileHandle, Granularity, Hint, Layout, RedundancyPolicy, Region,
    RetryPolicy, Shape,
};
use dpfs_load::Zipf;
use dpfs_proto::{AccessPattern, Request};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::probe::{Call, Class, Peers, Recorder};

/// I/O servers in the cluster.
const IONDS: usize = 4;
/// Metadata shards in the cluster.
const METAD_SHARDS: usize = 2;
/// Closed-loop client threads, each with its own mount.
const CLIENTS: usize = 2;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "small_file_mix",
    "array_region_io",
    "redundant_rw",
    "degraded_read",
];

// small_file_mix: 256 files of 8 KiB in 8 directories.
const SMALL_DIRS: usize = 8;
const SMALL_FILES: usize = 256;
const SMALL_BYTES: u64 = 8 * 1024;
const SMALL_BRICK: u64 = 4 * 1024;

// array_region_io: a 2048x2048 B array in 128x128 bricks, accessed in
// 8 column blocks (reads) and 8 row blocks (writes).
const ARRAY_SIDE: u64 = 2048;
const ARRAY_BRICK: u64 = 128;
const ARRAY_BLOCK: u64 = 256;
const ARRAY_BLOCKS: u64 = ARRAY_SIDE / ARRAY_BLOCK;

// redundant_rw / degraded_read: 16 files of 512 KiB in 16 KiB bricks,
// accessed 64 KiB at a time at brick-aligned offsets.
const RED_FILES: usize = 16;
const RED_BYTES: u64 = 512 * 1024;
const RED_BRICK: u64 = 16 * 1024;
const RED_IO: u64 = 64 * 1024;
/// The I/O server `degraded_read` kills after seeding.
const DEAD_IOND: usize = 1;

/// Issue one Ping probe every this many ops in the traced run.
pub const PING_EVERY: u64 = 16;

/// A distinct stream per `(seed, salt)`: splitmix64 of the pair.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_bytes(rng: &mut StdRng, len: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    for chunk in v.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    v
}

/// One workload's generated inputs.
pub enum Inputs {
    SmallFileMix {
        paths: Vec<String>,
        content: Vec<Vec<u8>>,
        /// Popularity rank -> file index. Rank `r` is a file of
        /// directory `r % SMALL_DIRS`, so every seed loads the directories
        /// (and the metadata shards they route to) alike; which file of
        /// the directory holds the rank is a seeded permutation.
        by_rank: Vec<usize>,
        zipf: Zipf,
        ingest: Vec<u8>,
    },
    ArrayRegionIo {
        /// The whole array, row-major.
        array: Vec<u8>,
        /// Column block `c` packed row-major, as a read returns it.
        columns: Vec<Vec<u8>>,
    },
    Redundant {
        degraded: bool,
        paths: Vec<String>,
        content: Vec<Vec<u8>>,
    },
}

impl Inputs {
    /// Make the inputs of workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64) -> Option<Inputs> {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0xD9F5));
        Some(match name {
            "small_file_mix" => {
                let paths = (0..SMALL_FILES)
                    .map(|i| format!("/d{}/f{}", i % SMALL_DIRS, i / SMALL_DIRS))
                    .collect();
                let content = (0..SMALL_FILES)
                    .map(|_| random_bytes(&mut rng, SMALL_BYTES))
                    .collect();
                let per_dir = SMALL_FILES / SMALL_DIRS;
                let mut by_rank = vec![0; SMALL_FILES];
                for d in 0..SMALL_DIRS {
                    let mut files: Vec<usize> = (0..per_dir).collect();
                    for i in (1..per_dir).rev() {
                        files.swap(i, rng.gen_range(0..=i));
                    }
                    for (j, f) in files.into_iter().enumerate() {
                        // File index `i` is `/d{i % SMALL_DIRS}/f{i / SMALL_DIRS}`.
                        by_rank[d + j * SMALL_DIRS] = d + f * SMALL_DIRS;
                    }
                }
                Inputs::SmallFileMix {
                    paths,
                    content,
                    by_rank,
                    zipf: Zipf::new(SMALL_FILES, 0.9),
                    ingest: random_bytes(&mut rng, SMALL_BYTES),
                }
            }
            "array_region_io" => {
                let array = random_bytes(&mut rng, ARRAY_SIDE * ARRAY_SIDE);
                let columns = (0..ARRAY_BLOCKS)
                    .map(|c| {
                        array
                            .chunks(ARRAY_SIDE as usize)
                            .flat_map(|row| {
                                let at = (c * ARRAY_BLOCK) as usize;
                                &row[at..at + ARRAY_BLOCK as usize]
                            })
                            .copied()
                            .collect()
                    })
                    .collect();
                Inputs::ArrayRegionIo { array, columns }
            }
            "redundant_rw" | "degraded_read" => Inputs::Redundant {
                degraded: name == "degraded_read",
                paths: (0..RED_FILES).map(|i| format!("/r{i}")).collect(),
                content: (0..RED_FILES)
                    .map(|_| random_bytes(&mut rng, RED_BYTES))
                    .collect(),
            },
            _ => return None,
        })
    }

    /// Client options of every mount: the defaults, except the tight
    /// retry policy of the degraded workload (a dead server refuses
    /// connections at once).
    fn client_opts(&self) -> ClientOptions {
        match self {
            Inputs::Redundant { degraded: true, .. } => ClientOptions {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(4),
                    ..RetryPolicy::default()
                },
                ..ClientOptions::default()
            },
            _ => ClientOptions::default(),
        }
    }
}

/// One closed-loop client: its own mount, seeded RNG and state. It
/// lives across the windows of a run.
pub struct Lane {
    pub rank: usize,
    pub fs: Dpfs,
    pub opts: ClientOptions,
    pub rng: StdRng,
    /// `array_region_io` keeps its handle open.
    pub array: Option<FileHandle>,
    /// Ingest sequence number, for unique paths.
    pub seq: u64,
    /// Ops this lane has run in the current window.
    pub ops: u64,
}

/// A set-up cluster ready for load. Fields drop in order, so the mounts
/// close before the servers stop.
pub struct Env {
    pub lanes: Vec<Lane>,
    /// A mount the load never uses: seeds the files and scrapes the cluster.
    pub observer: Dpfs,
    pub peers: Peers,
    /// Held so the servers outlive the mounts.
    pub _tb: Testbed,
}

type SetupResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Start the cluster, seed the workload's files, mount the clients and
/// (for `degraded_read`) kill an I/O server.
pub fn setup(inputs: &Inputs, seed: u64) -> SetupResult<Env> {
    let mut tb = Testbed::unthrottled_with_metad_shards(IONDS, METAD_SHARDS)?;
    let opts = inputs.client_opts();
    let observer = tb.remote_client_opts(opts);
    match inputs {
        Inputs::SmallFileMix { paths, content, .. } => {
            for d in 0..SMALL_DIRS {
                observer.mkdir(&format!("/d{d}"))?;
            }
            for (path, data) in paths.iter().zip(content) {
                let mut f = observer.create(path, &Hint::linear(SMALL_BRICK, SMALL_BYTES))?;
                f.write_bytes(0, data)?;
                f.sync()?;
                f.close()?;
            }
        }
        Inputs::ArrayRegionIo { array, .. } => {
            let mut f = observer.create("/array", &array_hint()?)?;
            f.write_region(
                &Region::new(vec![0, 0], vec![ARRAY_SIDE, ARRAY_SIDE])?,
                array,
            )?;
            f.sync()?;
            f.close()?;
        }
        Inputs::Redundant { paths, content, .. } => {
            for (i, (path, data)) in paths.iter().zip(content).enumerate() {
                let policy = if i % 2 == 0 {
                    RedundancyPolicy::Replica(2)
                } else {
                    RedundancyPolicy::XorParity
                };
                let hint = Hint::linear(RED_BRICK, RED_BYTES).with_redundancy(policy);
                let mut f = observer.create(path, &hint)?;
                f.write_bytes(0, data)?;
                f.sync()?;
                f.close()?;
            }
        }
    }
    let mut lanes = Vec::with_capacity(CLIENTS);
    for rank in 0..CLIENTS {
        let opts = ClientOptions { rank, ..opts };
        let fs = tb.remote_client_opts(opts);
        let array = match inputs {
            Inputs::ArrayRegionIo { .. } => Some(fs.open("/array")?),
            _ => None,
        };
        lanes.push(Lane {
            rank,
            fs,
            opts,
            rng: StdRng::seed_from_u64(mix(seed, 1 + rank as u64)),
            array,
            seq: 0,
            ops: 0,
        });
    }
    let ionds: Vec<String> = tb.specs().iter().map(|s| s.name.clone()).collect();
    let metads: Vec<String> = (0..METAD_SHARDS).map(metad_name).collect();
    let mut live_ionds = ionds.clone();
    if let Inputs::Redundant { degraded: true, .. } = inputs {
        tb.kill_server(DEAD_IOND);
        live_ionds.remove(DEAD_IOND);
    }
    Ok(Env {
        lanes,
        observer,
        peers: Peers {
            ionds,
            metads,
            live_ionds,
        },
        _tb: tb,
    })
}

fn array_hint() -> dpfs_core::Result<Hint> {
    Ok(Hint::multidim(
        Shape::new(vec![ARRAY_SIDE, ARRAY_SIDE])?,
        Shape::new(vec![ARRAY_BRICK, ARRAY_BRICK])?,
        1,
    ))
}

/// The byte range or region one read or write call touched.
enum Access<'a> {
    Bytes(u64, u64),
    Region(&'a Region),
}

/// Traced run only: replay the client's planning of one call on its own
/// access against the handle's layout and brick map (the path the
/// default options take), then build, encode and decode each planned
/// server's access pattern.
fn replay_plan(
    rec: &mut Recorder,
    f: &FileHandle,
    opts: &ClientOptions,
    access: Access,
    write: bool,
) {
    let Some(layers) = &mut rec.layers else {
        return;
    };
    let t0 = Instant::now();
    let runs = match (f.layout(), access) {
        (Layout::Linear(lin), Access::Bytes(off, len)) => lin.map_bytes(off, len, 0),
        (Layout::Multidim(md), Access::Region(r)) => md.map_region(r).unwrap_or_default(),
        (Layout::Array(ar), Access::Region(r)) => ar.map_region(r).unwrap_or_default(),
        _ => return,
    };
    let (map, layout) = (f.brick_map(), f.layout());
    let granularity = if write {
        Granularity::Exact
    } else {
        opts.granularity
    };
    let listed = (opts.combine && opts.list_io)
        .then(|| plan_list(&runs, map, layout, granularity, opts.rank))
        .flatten();
    let ranges: Vec<Vec<(u64, u64)>> = match listed {
        Some(reqs) => reqs.into_iter().map(|r| r.ranges).collect(),
        None if write => plan_writes(&runs, map, layout, opts.combine, opts.rank)
            .into_iter()
            .map(|r| r.ranges.iter().map(|&(off, _, len)| (off, len)).collect())
            .collect(),
        None => plan_reads(&runs, map, layout, opts.combine, granularity, opts.rank)
            .into_iter()
            .map(|r| r.ranges)
            .collect(),
    };
    let plan_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    for r in &ranges {
        let mut buf = BytesMut::new();
        AccessPattern::from_runs(r).encode_into(&mut buf);
        black_box(AccessPattern::decode_from(&mut buf.freeze()).ok());
    }
    layers.pattern_us.push(t1.elapsed().as_secs_f64() * 1e6);
    if write {
        layers.plan_write_us.push(plan_us);
    } else {
        layers.plan_read_us.push(plan_us);
        layers.plan_read_requests += ranges.len() as u64;
    }
}

/// Traced run only: one Ping round trip through the lane's own pool,
/// rotating over the metadata shards and the live I/O servers.
pub fn ping_probe(lane: &Lane, peers: &Peers, rec: &mut Recorder) {
    let Some(layers) = &mut rec.layers else {
        return;
    };
    let n = (lane.ops / PING_EVERY) as usize % (peers.metads.len() + peers.live_ionds.len());
    let (peer, samples) = match peers.metads.get(n) {
        Some(metad) => (metad, &mut layers.ping_meta_us),
        None => (
            &peers.live_ionds[n - peers.metads.len()],
            &mut layers.ping_io_us,
        ),
    };
    let t0 = Instant::now();
    if lane.fs.pool().rpc_ok(peer, &Request::Ping).is_ok() {
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
}

/// Run one op of the workload on `lane`, recording into `rec`.
pub fn op(inputs: &Inputs, lane: &mut Lane, peers: &Peers, rec: &mut Recorder) {
    let Lane {
        rank,
        fs,
        opts,
        rng,
        array,
        seq,
        ..
    } = lane;
    let fs = &*fs;
    match inputs {
        Inputs::SmallFileMix {
            paths,
            content,
            by_rank,
            zipf,
            ingest,
        } => {
            let u: f64 = rng.gen();
            if u < 0.70 {
                let i = by_rank[zipf.sample(rng)];
                rec.op(Class::Read, |rec| {
                    let mut f = rec.call(fs, peers, Call::Open, || fs.open(&paths[i]))?;
                    let got = rec.call(fs, peers, Call::Read, || f.read_bytes(0, SMALL_BYTES))?;
                    replay_plan(rec, &f, opts, Access::Bytes(0, SMALL_BYTES), false);
                    rec.user_read += got.len() as u64;
                    Ok::<_, dpfs_core::DpfsError>(got == content[i])
                });
            } else if u < 0.85 {
                let i = by_rank[zipf.sample(rng)];
                rec.op(Class::Stat, |rec| {
                    let attr = rec.call(fs, peers, Call::Stat, || fs.stat(&paths[i]))?;
                    Ok::<_, dpfs_core::DpfsError>(attr.size == SMALL_BYTES as i64)
                });
            } else {
                // Ingest: create + write + sync + close, a cross-directory
                // rename, an unlink; three timed ops.
                let from_dir = rng.gen_range(0..SMALL_DIRS);
                let to_dir = (from_dir + rng.gen_range(1..SMALL_DIRS)) % SMALL_DIRS;
                let from = format!("/d{from_dir}/in-{rank}-{seq}");
                let to = format!("/d{to_dir}/mv-{rank}-{seq}");
                *seq += 1;
                let mut created = false;
                rec.op(Class::Create, |rec| {
                    let hint = Hint::linear(SMALL_BRICK, SMALL_BYTES);
                    let mut f = rec.call(fs, peers, Call::Create, || fs.create(&from, &hint))?;
                    rec.call(fs, peers, Call::Write, || f.write_bytes(0, ingest))?;
                    replay_plan(rec, &f, opts, Access::Bytes(0, SMALL_BYTES), true);
                    rec.call(fs, peers, Call::Sync, || f.sync())?;
                    let size = f.size();
                    f.close()?;
                    created = true;
                    rec.user_written += SMALL_BYTES;
                    Ok::<_, dpfs_core::DpfsError>(size == SMALL_BYTES)
                });
                if !created {
                    return;
                }
                let mut renamed = false;
                rec.op(Class::Rename, |rec| {
                    rec.call(fs, peers, Call::Rename, || fs.rename(&from, &to))?;
                    renamed = true;
                    Ok::<_, dpfs_core::DpfsError>(true)
                });
                let victim = if renamed { &to } else { &from };
                rec.op(Class::Unlink, |rec| {
                    rec.call(fs, peers, Call::Unlink, || fs.unlink(victim))?;
                    Ok::<_, dpfs_core::DpfsError>(true)
                });
            }
        }
        Inputs::ArrayRegionIo {
            array: data,
            columns,
        } => {
            let f = array.as_mut().expect("array handle opened at set-up");
            if rng.gen_bool(0.75) {
                let c = rng.gen_range(0..ARRAY_BLOCKS);
                rec.op(Class::Read, |rec| {
                    let region =
                        Region::new(vec![0, c * ARRAY_BLOCK], vec![ARRAY_SIDE, ARRAY_BLOCK])?;
                    let got = rec.call(fs, peers, Call::Read, || f.read_region(&region))?;
                    replay_plan(rec, f, opts, Access::Region(&region), false);
                    rec.user_read += got.len() as u64;
                    Ok::<_, dpfs_core::DpfsError>(got == columns[c as usize])
                });
            } else {
                let r = rng.gen_range(0..ARRAY_BLOCKS);
                let bytes = (ARRAY_BLOCK * ARRAY_SIDE) as usize;
                let rows = &data[r as usize * bytes..(r as usize + 1) * bytes];
                rec.op(Class::Write, |rec| {
                    let region =
                        Region::new(vec![r * ARRAY_BLOCK, 0], vec![ARRAY_BLOCK, ARRAY_SIDE])?;
                    rec.call(fs, peers, Call::Write, || f.write_region(&region, rows))?;
                    replay_plan(rec, f, opts, Access::Region(&region), true);
                    rec.call(fs, peers, Call::Sync, || f.sync())?;
                    rec.user_written += bytes as u64;
                    Ok::<_, dpfs_core::DpfsError>(true)
                });
            }
        }
        Inputs::Redundant {
            degraded,
            paths,
            content,
        } => {
            let i = rng.gen_range(0..RED_FILES);
            let off = rng.gen_range(0..=(RED_BYTES - RED_IO) / RED_BRICK) * RED_BRICK;
            let want = &content[i][off as usize..(off + RED_IO) as usize];
            if *degraded || rng.gen_bool(0.5) {
                rec.op(Class::Read, |rec| {
                    let mut f = rec.call(fs, peers, Call::Open, || fs.open(&paths[i]))?;
                    let got = rec.call(fs, peers, Call::Read, || f.read_bytes(off, RED_IO))?;
                    replay_plan(rec, &f, opts, Access::Bytes(off, RED_IO), false);
                    rec.user_read += got.len() as u64;
                    Ok::<_, dpfs_core::DpfsError>(got == want)
                });
            } else {
                rec.op(Class::Write, |rec| {
                    let mut f = rec.call(fs, peers, Call::Open, || fs.open(&paths[i]))?;
                    rec.call(fs, peers, Call::Write, || f.write_bytes(off, want))?;
                    replay_plan(rec, &f, opts, Access::Bytes(off, RED_IO), true);
                    rec.call(fs, peers, Call::Sync, || f.sync())?;
                    rec.user_written += RED_IO;
                    Ok::<_, dpfs_core::DpfsError>(true)
                });
            }
        }
    }
}
