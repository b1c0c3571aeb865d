//! C10K: one server process holds 1k+ concurrent connections on a fixed
//! thread budget and serves every one of them byte-exactly.
//!
//! The readiness runtime multiplexes all connections over a handful of
//! shard threads plus a shared worker pool, so the process thread count
//! is a function of configuration, not load.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dpfs::proto::{frame, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig};

/// Serializes the tests in this binary: both measure process-wide state
/// (`/proc/self/status` threads, wall-clock time on one core).
static SEQUENTIAL: Mutex<()> = Mutex::new(());

/// Current thread count of this process, from `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

fn start_server(tag: &str) -> IoServer {
    let root = std::env::temp_dir().join(format!("dpfs-c10k-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    IoServer::start(ServerConfig::new("c10k00", root, PerfModel::unthrottled())).unwrap()
}

/// The 64-byte pattern connection `i` writes and expects back.
fn pattern(i: usize) -> Vec<u8> {
    (0..64u64)
        .map(|b| (b.wrapping_mul(131).wrapping_add(i as u64 * 17) % 251) as u8)
        .collect()
}

#[test]
fn c10k_byte_exact_service_on_a_flat_thread_budget() {
    let _guard = SEQUENTIAL.lock().unwrap();
    const N: usize = 1024;

    let server = start_server("flat");
    let addr = server.addr();
    let fixed = server.runtime_threads();

    // Open every connection up front; they all stay live for the whole
    // test, so the server really holds N concurrent sockets.
    let mut conns: Vec<TcpStream> = (0..N)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();

    // Thread-count baseline once a *few* connections are being served;
    // the budget must not move as the other thousand arrive and talk.
    let baseline = process_threads();

    // Phase 1: every connection writes its own 64-byte pattern to a
    // distinct range of one shared subfile... (requests pipelined: all
    // hit the wire before any response is read).
    for (i, c) in conns.iter_mut().enumerate() {
        let req = Request::Write {
            subfile: "/c10k.dat".into(),
            ranges: vec![(i as u64 * 64, Bytes::from(pattern(i)))],
        };
        frame::write_frame(c, i as u64, 0, &[&req.encode()]).unwrap();
    }
    for (i, c) in conns.iter_mut().enumerate() {
        let f = frame::read_frame(c).unwrap();
        assert_eq!(f.corr_id, i as u64, "corr-ID echo broke under load");
        match Response::decode(f.payload).unwrap() {
            Response::Written { bytes } => assert_eq!(bytes, 64),
            other => panic!("conn {i}: expected Written, got {other:?}"),
        }
    }

    assert_eq!(
        server.open_connections(),
        N,
        "server lost track of its connections"
    );
    let under_load = process_threads();
    assert!(
        under_load <= baseline,
        "thread count grew with connections: {baseline} -> {under_load} \
         (readiness runtime must stay at its fixed budget of {fixed})"
    );
    assert_eq!(server.runtime_threads(), fixed);

    // Phase 2: every connection reads its own range back — byte-exact,
    // correctly correlated, no cross-connection bleed.
    for (i, c) in conns.iter_mut().enumerate() {
        let req = Request::Read {
            subfile: "/c10k.dat".into(),
            ranges: vec![(i as u64 * 64, 64)],
        };
        frame::write_frame(c, (N + i) as u64, 0, &[&req.encode()]).unwrap();
    }
    for (i, c) in conns.iter_mut().enumerate() {
        let f = frame::read_frame(c).unwrap();
        assert_eq!(f.corr_id, (N + i) as u64);
        match Response::decode(f.payload).unwrap() {
            Response::Data { chunks } => {
                assert_eq!(chunks.len(), 1);
                assert_eq!(
                    &chunks[0][..],
                    &pattern(i)[..],
                    "conn {i} read someone else's bytes"
                );
            }
            other => panic!("conn {i}: expected Data, got {other:?}"),
        }
    }

    let after = process_threads();
    assert!(
        after <= baseline,
        "thread count grew across the workload: {baseline} -> {after}"
    );
    drop(conns);
}

#[test]
fn c10k_connections_settle_before_a_deadline() {
    let _guard = SEQUENTIAL.lock().unwrap();
    // Liveness companion to the flat-budget test: the whole 1k-connection
    // write+read cycle completes promptly — no connection starves behind
    // the others on the shared shards.
    let server = start_server("deadline");
    let addr = server.addr();
    let start = Instant::now();
    let mut conns: Vec<TcpStream> = (0..256)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    for (i, c) in conns.iter_mut().enumerate() {
        let req = Request::Ping;
        frame::write_frame(c, i as u64, 0, &[&req.encode()]).unwrap();
        c.flush().unwrap();
    }
    for (i, c) in conns.iter_mut().enumerate() {
        let f = frame::read_frame(c).unwrap();
        assert_eq!(f.corr_id, i as u64);
    }
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "256-connection ping cycle took {:?}",
        start.elapsed()
    );
}
