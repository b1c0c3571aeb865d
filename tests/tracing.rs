//! End-to-end tracing proofs:
//!
//! - one traced `DPFS_Read` spanning several servers produces a single
//!   trace: the client's plan/submit/await phases and every involved
//!   server's queue/device/delay/handle events share one trace ID;
//! - the `Stats` RPC returns a decodable snapshot with populated latency
//!   histograms.

use std::collections::HashSet;
use std::time::Duration;

use dpfs::cluster::{NodeSpec, Testbed};
use dpfs::core::trace::{ring, Side};
use dpfs::core::{ClientOptions, Hint};
use dpfs::proto::{Request, Response};
use dpfs::server::{PerfModel, StatsSnapshot};

/// Servers with enough injected latency that queue/device/delay spans have
/// visible (nonzero) durations.
fn traced_testbed(n: usize) -> Testbed {
    let model = PerfModel {
        request_latency: Duration::from_millis(2),
        bandwidth: u64::MAX,
        seek_latency: Duration::from_millis(1),
    };
    let specs: Vec<NodeSpec> = (0..n).map(|i| NodeSpec::with_model(i, model)).collect();
    Testbed::start(&specs).unwrap()
}

#[test]
fn one_read_one_trace_across_servers() {
    let tb = traced_testbed(4);
    let client = tb.client_opts(ClientOptions::default());
    // 16 bricks round-robin over 4 servers: every server holds data.
    let file_bytes = 16 * 4096u64;
    client
        .create("/traced", &Hint::linear(4096, file_bytes))
        .unwrap();
    {
        let mut f = client.open("/traced").unwrap();
        f.write_bytes(0, &vec![0xA5; file_bytes as usize]).unwrap();
    }

    let cursor = ring().cursor();
    let mut f = client.open("/traced").unwrap();
    let data = f.read_bytes(0, file_bytes).unwrap();
    assert_eq!(data.len(), file_bytes as usize);
    let trace = f.last_trace_id();
    assert_ne!(trace, 0, "every read must be assigned a trace ID");

    let events: Vec<_> = ring()
        .events_since(cursor)
        .into_iter()
        .filter(|e| e.trace_id == trace)
        .collect();

    // Client phases of the operation, all under the same trace ID.
    let client_phases: HashSet<&str> = events
        .iter()
        .filter(|e| e.side == Side::Client)
        .map(|e| e.phase)
        .collect();
    for phase in ["plan", "submit", "await", "rpc", "op"] {
        assert!(
            client_phases.contains(phase),
            "missing client phase {phase:?}; got {client_phases:?}"
        );
    }

    // The read fanned out: per-server rpc spans name >= 2 distinct servers.
    let rpc_servers: HashSet<&str> = events
        .iter()
        .filter(|e| e.side == Side::Client && e.phase == "rpc")
        .map(|e| e.server.as_str())
        .collect();
    assert!(
        rpc_servers.len() >= 2,
        "read must span multiple servers, got {rpc_servers:?}"
    );

    // Every server the client talked to joined the trace with its own
    // events: queue wait, device time, injected delay, and the handle span.
    for server in &rpc_servers {
        for phase in ["queue", "device", "delay", "handle"] {
            let ev = events
                .iter()
                .find(|e| e.side == Side::Server && e.phase == phase && e.server == *server);
            assert!(
                ev.is_some(),
                "server {server} recorded no {phase:?} event for trace {trace}"
            );
        }
        // The injected request latency (2ms) is visible in the delay span.
        let delay = events
            .iter()
            .find(|e| e.side == Side::Server && e.phase == "delay" && e.server == *server)
            .unwrap();
        assert!(
            delay.dur_ns >= 2_000_000,
            "delay span {}ns below the injected 2ms",
            delay.dur_ns
        );
    }

    // Distinct operations get distinct trace IDs.
    let mut f2 = client.open("/traced").unwrap();
    f2.read_bytes(0, 4096).unwrap();
    assert_ne!(f2.last_trace_id(), trace);
    assert_ne!(f2.last_trace_id(), 0);
}

#[test]
fn stats_rpc_returns_live_histograms() {
    let tb = traced_testbed(2);
    let client = tb.client_opts(ClientOptions::default());
    client.create("/s", &Hint::linear(1024, 8 * 1024)).unwrap();
    {
        let mut f = client.open("/s").unwrap();
        f.write_bytes(0, &vec![1u8; 8 * 1024]).unwrap();
    }
    let mut f = client.open("/s").unwrap();
    f.read_bytes(0, 8 * 1024).unwrap();

    for name in ["ion00", "ion01"] {
        let resp = client.pool().rpc_ok(name, &Request::Stats).unwrap();
        let Response::Stats { payload } = resp else {
            panic!("expected Stats response, got {resp:?}");
        };
        let snap = StatsSnapshot::decode(&payload).expect("decodable snapshot");
        assert!(snap.requests > 0, "{name}: {snap:?}");
        assert!(snap.reads > 0, "{name}: {snap:?}");
        assert!(snap.writes > 0, "{name}: {snap:?}");
        assert!(snap.read_latency.count > 0, "{name}: {snap:?}");
        assert!(snap.write_latency.count > 0, "{name}: {snap:?}");
        // Service time includes the injected 2ms request latency.
        assert!(
            snap.read_latency.p50() >= 2_000_000,
            "{name}: read p50 {}ns below injected delay",
            snap.read_latency.p50()
        );
    }
}
