//! An idle readiness server sleeps in the kernel: with a client connected
//! and nothing arriving, its acceptor and shards make no wake-ups at all.
//!
//! Kept in its own test binary so the process holds only this server's
//! threads. Context switches are counted rather than CPU time because the
//! count is exact: a thread blocked in `epoll_wait` adds none, while a
//! 1 ms poller adds hundreds in the same window.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dpfs::proto::{frame, Request, Response};
use dpfs::server::{ServeConfig, ServeCore, Service};

struct PingService;

impl Service for PingService {
    fn name(&self) -> &str {
        "idle"
    }

    fn handle_traced(&self, _req: Request, _trace_id: u64) -> Response {
        Response::Pong
    }
}

/// `voluntary_ctxt_switches` of every thread of this process whose name
/// starts with one of `prefixes`, keyed by thread ID.
fn voluntary_switches(prefixes: &[&str]) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let task = task.unwrap();
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between listing and reading
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(str::trim)
        };
        let name = field("Name:").unwrap_or_default();
        if !prefixes.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let n = field("voluntary_ctxt_switches:")
            .and_then(|v| v.parse().ok())
            .unwrap();
        out.insert(task.file_name().to_string_lossy().into_owned(), n);
    }
    out
}

#[test]
fn idle_server_makes_no_wakeups() {
    let server = ServeCore::start("127.0.0.1:0", Arc::new(PingService)).unwrap();
    let mut client = TcpStream::connect(server.addr()).unwrap();
    // One round trip first, so the connection is accepted, handed to its
    // shard and served before counting starts.
    frame::write_frame_v2(&mut client, 1, &Request::Ping.encode()).unwrap();
    let reply = frame::read_frame_any(&mut client).unwrap();
    assert_eq!(Response::decode(reply.payload).unwrap(), Response::Pong);

    let pollers = ["dpfs-accept-", "dpfs-shard-"];
    let before = voluntary_switches(&pollers);
    assert_eq!(
        before.len(),
        1 + ServeConfig::default().shards,
        "expected the acceptor and every shard: {before:?}"
    );
    std::thread::sleep(Duration::from_millis(300));
    let after = voluntary_switches(&pollers);
    for (tid, n) in &after {
        let delta = n - before[tid];
        assert!(
            delta <= 5,
            "thread {tid} woke {delta} times in 300 ms while idle"
        );
    }
    drop(client);
}
