//! Closed-loop benchmark of DPFS on the in-process cluster (4 ionds,
//! 2 metad shards, 2 client threads with a mount each).
//!
//! ```text
//! dpfs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run makes its inputs from the seed, sets the cluster up several
//! times (timing each), warms up, then measures. With `--trace 0` it
//! measures untraced sub-windows of about a second each (at least ten)
//! and prints the end-to-end metrics, each the median over the
//! sub-windows in which the hypervisor stole little CPU time. With
//! `--trace 1` it measures an untraced half window, then a traced half
//! window with the program's tracing on, benchmark-side spans around
//! client calls and Ping probes between ops, and prints the per-layer
//! metrics. The last line of stdout is one JSON object; a wrong byte or
//! a degraded read makes the exit code 1.

mod probe;
mod workload;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dpfs_core::trace::{ring, set_trace_sample_every};
use dpfs_proto::Request;
use probe::{
    cpu_ticks, host_ticks, median, percentile, ratio, stolen_since, Call, Class, Counts, Recorder,
    ServerTotals, CPU_GROUPS, TICKS_PER_S,
};
use workload::{op, ping_probe, setup, Env, Inputs, NAMES, PING_EVERY};

/// Cluster set-ups per run; `setup_s` is their median, the last one is
/// measured.
const SETUPS: usize = 5;
/// A sub-window in which the hypervisor stole more than this share of the
/// machine's CPU time measures the busy host rather than the program.
const MAX_STOLEN: f64 = 0.05;
/// Idle Ping probes per role before the windows of a traced run.
const IDLE_PINGS: usize = 64;
/// The measured window of an untraced run is cut into equal sub-windows
/// of about this many seconds, and into no fewer than `MIN_SUBWINDOWS`.
const SUBWINDOW_S: f64 = 1.0;
const MIN_SUBWINDOWS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {NAMES:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.filter(|s| *s > 0.0).unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one window of closed-loop load produced.
struct Window {
    rec: Recorder,
    secs: f64,
    /// Load mounts' transport counter deltas, summed over the clients.
    counts: Counts,
    /// Traced windows only: server-side deltas and CPU ticks per group.
    server: ServerTotals,
    cpu: [u64; 5],
    /// Share of the machine's CPU time the hypervisor stole.
    stolen: f64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        ratio(self.rec.completed() as f64, self.secs)
    }

    fn lat(&self, class: Class) -> &[f64] {
        &self.rec.lat[class as usize]
    }
}

/// Run every client in a closed loop for `secs`.
fn run_window(env: &mut Env, inputs: &Inputs, secs: f64, traced: bool) -> Window {
    let n = env.lanes.len();
    let Env {
        lanes,
        observer,
        peers,
        ..
    } = env;
    let peers = &*peers;
    let counts0: Vec<Counts> = lanes.iter().map(|l| Counts::of(&l.fs, peers)).collect();
    let server0 = traced.then(|| ServerTotals::scrape(observer));
    let stop = AtomicBool::new(false);
    let (start, done, release) = (
        Barrier::new(n + 1),
        Barrier::new(n + 1),
        Barrier::new(n + 1),
    );
    let mut rec = Recorder::new(traced);
    let (mut elapsed, mut cpu, mut stolen) = (0.0, [0u64; 5], 0.0);
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let (stop, start, done, release) = (&stop, &start, &done, &release);
                std::thread::Builder::new()
                    .name(format!("bench-load-{}", lane.rank))
                    .spawn_scoped(s, move || {
                        let mut rec = Recorder::new(traced);
                        lane.ops = 0;
                        start.wait();
                        while !stop.load(Ordering::Relaxed) {
                            op(inputs, lane, peers, &mut rec);
                            lane.ops += 1;
                            if traced && lane.ops % PING_EVERY == 0 {
                                ping_probe(lane, peers, &mut rec);
                            }
                        }
                        // Stay alive until the main thread has read
                        // procfs CPU, which forgets exited threads.
                        done.wait();
                        release.wait();
                        rec
                    })
                    .expect("spawn load thread")
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let cpu0 = cpu_ticks();
        let host0 = host_ticks();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        done.wait();
        elapsed = t0.elapsed().as_secs_f64();
        let cpu1 = cpu_ticks();
        stolen = stolen_since(host0);
        for g in 0..cpu.len() {
            cpu[g] = cpu1[g].saturating_sub(cpu0[g]);
        }
        release.wait();
        for h in handles {
            rec.merge(h.join().expect("load thread panicked"));
        }
    });
    let mut counts = Counts::default();
    for (lane, c0) in lanes.iter().zip(counts0) {
        counts.add(&Counts::of(&lane.fs, peers).since(c0));
    }
    let server = server0
        .map(|s0| ServerTotals::scrape(observer).since(s0))
        .unwrap_or_default();
    Window {
        rec,
        secs: elapsed,
        counts,
        server,
        cpu,
        stolen,
    }
}

/// Median Ping round trip (µs) from lane 0 to `peers`, on the idle cluster.
fn idle_ping_us(env: &Env, peers: &[String]) -> f64 {
    let fs = &env.lanes[0].fs;
    let mut us = Vec::with_capacity(IDLE_PINGS);
    for i in 0..IDLE_PINGS {
        let peer = &peers[i % peers.len()];
        let t0 = Instant::now();
        if fs.pool().rpc_ok(peer, &Request::Ping).is_ok() {
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&us)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The measurements the end-to-end metrics are taken over: those during
/// which the hypervisor stole at most `MAX_STOLEN` of the CPU time, as
/// long as they are at least a quarter of all; otherwise all of them.
fn unstolen<T>(items: &[T], stolen: impl Fn(&T) -> f64) -> Vec<&T> {
    let clean: Vec<&T> = items.iter().filter(|t| stolen(t) <= MAX_STOLEN).collect();
    if clean.len() * 4 >= items.len() {
        clean
    } else {
        items.iter().collect()
    }
}

/// Medians over the measured sub-windows, so that a burst of
/// interference from outside the benchmark moves one sub-window only.
fn end_to_end(setup_s: f64, windows: &[&Window]) -> Metrics {
    let over =
        |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", over(&|w| w.ops_per_s()), "1/s"),
        (
            "read_p50_ms",
            over(&|w| percentile(w.lat(Class::Read), 50.0)) / 1e3,
            "ms",
        ),
    ]
}

/// Mean in µs of a `(sum ns, count)` pair.
fn mean_us(p: (u64, u64)) -> f64 {
    ratio(p.0 as f64, p.1 as f64) / 1e3
}

/// The per-layer metrics of a traced run: `m` is its untraced half,
/// `t` its traced half.
fn per_layer(m: &Window, t: &Window, idle: (f64, f64), dropped: u64) -> Metrics {
    let layers = t.rec.layers.as_ref().expect("traced window records layers");
    let call = |c: Call| &layers.calls[c as usize];
    let per_call = |c: Call, f: fn(&Counts) -> u64| {
        let s = call(c);
        ratio(f(&s.counts) as f64, s.us.len() as f64)
    };
    let ops = t.rec.attempted as f64;
    let ms = |class: Class, p: f64| percentile(m.lat(class), p) / 1e3;
    let meta_lat: Vec<f64> = [Class::Stat, Class::Create, Class::Rename, Class::Unlink]
        .iter()
        .flat_map(|&c| m.lat(c).iter().copied())
        .collect();
    let errors = (m.rec.failed + m.rec.wrong + t.rec.failed + t.rec.wrong) as f64;
    let attempted = (m.rec.attempted + t.rec.attempted) as f64;
    // Client-observed RPC means exclude the Ping probes, whose round
    // trips the load mounts' histograms also hold. Both sides must have
    // seen RPCs for the difference to be a wait.
    let wait_us = |rtt: (u64, u64), pings: &[f64], handler: (u64, u64)| {
        let ping_ns = (pings.iter().sum::<f64>() * 1e3) as u64;
        let client = (
            rtt.0.saturating_sub(ping_ns),
            rtt.1.saturating_sub(pings.len() as u64),
        );
        if client.1 == 0 || handler.1 == 0 {
            return 0.0;
        }
        mean_us(client) - mean_us(handler)
    };
    let io_handler = t
        .server
        .io_lat
        .iter()
        .fold((0, 0), |a, l| (a.0 + l.0, a.1 + l.1));
    let data_calls = [Call::Read, Call::Write, Call::Sync];
    let list_io: u64 = data_calls.iter().map(|&c| call(c).counts.list_io).sum();
    let io_rpcs: u64 = data_calls.iter().map(|&c| call(c).counts.io_rpcs).sum();
    let loaded: Vec<f64> = layers
        .ping_meta_us
        .iter()
        .chain(&layers.ping_io_us)
        .copied()
        .collect();
    let cpu_ms = |g: usize| ratio(t.cpu[g] as f64 / TICKS_PER_S * 1e3, ops);
    let mut out: Metrics = vec![
        ("read_p99_ms", ms(Class::Read, 99.0), "ms"),
        ("write_p50_ms", ms(Class::Write, 50.0), "ms"),
        ("write_p99_ms", ms(Class::Write, 99.0), "ms"),
        ("stat_p50_ms", ms(Class::Stat, 50.0), "ms"),
        ("create_p50_ms", ms(Class::Create, 50.0), "ms"),
        ("rename_p50_ms", ms(Class::Rename, 50.0), "ms"),
        ("unlink_p50_ms", ms(Class::Unlink, 50.0), "ms"),
        ("meta_p99_ms", percentile(&meta_lat, 99.0) / 1e3, "ms"),
        ("error_rate", ratio(errors, attempted), "ratio"),
        ("fs.open_us", median(&call(Call::Open).us), "us"),
        ("fs.create_us", median(&call(Call::Create).us), "us"),
        (
            "meta.rpcs_per_open",
            per_call(Call::Open, |c| c.meta_rpcs),
            "rpc/op",
        ),
        (
            "meta.rpcs_per_stat",
            per_call(Call::Stat, |c| c.meta_rpcs),
            "rpc/op",
        ),
        (
            "meta.rpcs_per_create",
            per_call(Call::Create, |c| c.meta_rpcs),
            "rpc/op",
        ),
        (
            "meta.rpcs_per_rename",
            per_call(Call::Rename, |c| c.meta_rpcs),
            "rpc/op",
        ),
        (
            "meta.rpcs_per_unlink",
            per_call(Call::Unlink, |c| c.meta_rpcs),
            "rpc/op",
        ),
        (
            "meta_cache.hit_ratio",
            ratio(
                t.counts.cache_hits as f64,
                (t.counts.cache_hits + t.counts.cache_misses) as f64,
            ),
            "ratio",
        ),
        (
            "metad.busy_us_per_op",
            ratio(t.server.meta_lat.0 as f64 / 1e3, ops),
            "us/op",
        ),
        (
            "metad.wait_us_per_rpc",
            wait_us(t.counts.meta_rtt, &layers.ping_meta_us, t.server.meta_lat),
            "us",
        ),
        ("rpc.ping_idle_iond_us", idle.0, "us"),
        ("rpc.ping_idle_metad_us", idle.1, "us"),
        ("rpc.ping_loaded_us", median(&loaded), "us"),
        ("rpc.retries", t.counts.retries as f64, "count"),
        ("rpc.timed_out", t.counts.timed_out as f64, "count"),
        ("file.read_us", median(&call(Call::Read).us), "us"),
        ("file.write_us", median(&call(Call::Write).us), "us"),
        ("file.sync_us", median(&call(Call::Sync).us), "us"),
        (
            "io.rpcs_per_read",
            per_call(Call::Read, |c| c.io_rpcs),
            "rpc/op",
        ),
        (
            "io.rpcs_per_write",
            per_call(Call::Write, |c| c.io_rpcs),
            "rpc/op",
        ),
        (
            "io.rpcs_per_sync",
            per_call(Call::Sync, |c| c.io_rpcs),
            "rpc/op",
        ),
        (
            "io.req_bytes_per_read",
            per_call(Call::Read, |c| c.io_req_bytes),
            "B/op",
        ),
        (
            "io.list_frac",
            ratio(list_io as f64, io_rpcs as f64),
            "ratio",
        ),
        (
            "io.wait_us_per_rpc",
            wait_us(t.counts.io_rtt, &layers.ping_io_us, io_handler),
            "us",
        ),
        ("plan.read_us", median(&layers.plan_read_us), "us"),
        ("plan.write_us", median(&layers.plan_write_us), "us"),
        (
            "plan.requests_per_read",
            ratio(
                layers.plan_read_requests as f64,
                layers.plan_read_us.len() as f64,
            ),
            "req/op",
        ),
        ("proto.pattern_us", median(&layers.pattern_us), "us"),
        ("iond.read_mean_us", mean_us(t.server.io_lat[0]), "us"),
        ("iond.write_mean_us", mean_us(t.server.io_lat[1]), "us"),
        ("iond.other_mean_us", mean_us(t.server.io_lat[2]), "us"),
        (
            "iond.requests_per_op",
            ratio(t.server.io_requests as f64, ops),
            "req/op",
        ),
        (
            "iond.write_amp",
            ratio(t.server.io_bytes_written as f64, t.rec.user_written as f64),
            "ratio",
        ),
        (
            "iond.read_amp",
            ratio(t.server.io_bytes_read as f64, t.rec.user_read as f64),
            "ratio",
        ),
        (
            "rpc.reconstructs_per_read",
            per_call(Call::Read, |c| c.reconstructs),
            "1/op",
        ),
        (
            "rpc.degraded",
            (m.counts.degraded + t.counts.degraded) as f64,
            "count",
        ),
    ];
    for (g, (metric, _)) in CPU_GROUPS.iter().enumerate() {
        out.push((metric, cpu_ms(g), "ms/op"));
    }
    out.push((
        "trace.overhead_frac",
        1.0 - ratio(t.ops_per_s(), m.ops_per_s()),
        "ratio",
    ));
    out.push(("trace.dropped", dropped as f64, "count"));
    out
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(&args.workload, args.seed).expect("workload name checked");
    // The program has no tracing off switch: sampling one op in u64::MAX
    // traces only the first.
    set_trace_sample_every(u64::MAX);

    // (seconds, stolen share) of each set-up.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let t0 = Instant::now();
        let host0 = host_ticks();
        match setup(&inputs, args.seed) {
            Ok(e) => env = Some(e),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::from(2);
            }
        }
        setups.push((t0.elapsed().as_secs_f64(), stolen_since(host0)));
    }
    let mut env = env.expect("at least one set-up");
    let setup_s: Vec<f64> = unstolen(&setups, |s| s.1).iter().map(|s| s.0).collect();
    let setup_s = median(&setup_s);

    // Fill caches and finish lazy set-up (dials, demux threads).
    let warm = run_window(&mut env, &inputs, (args.seconds / 10.0).min(1.0), false);
    let mut correct = warm.rec.wrong == 0 && warm.counts.degraded == 0;

    let (metrics, windows) = if args.trace {
        let idle = (
            idle_ping_us(&env, &env.peers.live_ionds),
            idle_ping_us(&env, &env.peers.metads),
        );
        let m = run_window(&mut env, &inputs, args.seconds / 2.0, false);
        set_trace_sample_every(1);
        let dropped0 = ring().dropped();
        let t = run_window(&mut env, &inputs, args.seconds / 2.0, true);
        set_trace_sample_every(u64::MAX);
        let dropped = ring().dropped().saturating_sub(dropped0);
        (per_layer(&m, &t, idle, dropped), vec![m, t])
    } else {
        let n = ((args.seconds / SUBWINDOW_S).round() as usize).max(MIN_SUBWINDOWS);
        let windows: Vec<Window> = (0..n)
            .map(|_| run_window(&mut env, &inputs, args.seconds / n as f64, false))
            .collect();
        let rates: Vec<String> = windows
            .iter()
            .map(|w| format!("{:.1}/{:.0}%", w.ops_per_s(), w.stolen * 100.0))
            .collect();
        eprintln!("perfbench: sub-window ops/s/stolen% {}", rates.join(" "));
        let used = unstolen(&windows, |w| w.stolen);
        eprintln!(
            "perfbench: metrics over {} of {} sub-windows",
            used.len(),
            windows.len()
        );
        let metrics = end_to_end(setup_s, &used);
        (metrics, windows)
    };
    let (mut attempted, mut failed) = (0, 0);
    for w in &windows {
        attempted += w.rec.attempted;
        failed += w.rec.failed + w.rec.wrong;
        correct &= w.rec.wrong == 0 && w.counts.degraded == 0;
    }
    drop(env);
    print_result(correct, attempted, failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: wrong bytes or degraded reads");
        ExitCode::from(1)
    }
}
