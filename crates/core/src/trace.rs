//! Client-side request tracing.
//!
//! Every client operation (`read`/`write`/`sync`/...) gets a fresh
//! *trace ID* from [`next_trace_id`]. The operation records its phases —
//! `plan` (brick planning / request combination), `submit` (frames onto
//! the wire), `await` (all responses back), one `rpc` span per server RPC,
//! and an enclosing `op` span — into the process-global [`ring()`]. Every
//! frame carries the trace ID, so the server's events (`decode`,
//! `queue`, `device`, `delay`, `respond`) carry the same trace ID; with an
//! in-process testbed both sides land in the same ring and a single JSONL
//! export ([`export_jsonl_to`]) shows the whole operation end to end.
//!
//! Recording is cheap (a `fetch_add` plus one short slot lock per event),
//! so tracing stays on in benchmarks; the ablation harness exports it via
//! `DPFS_TRACE_OUT`.
//!
//! The primitives live in `dpfs-obs` (shared with `dpfs-server`); this
//! module re-exports them and adds the client-side helpers.

pub use dpfs_obs::{
    export_jsonl, export_jsonl_to, next_trace_id, now_ns, ring, sampled_trace_id,
    set_trace_sample_every, slowlog, ClusterSnapshot, Counter, Gauge, HistSnapshot, Histogram,
    MetricsRegistry, NodeRole, NodeSnapshot, Side, SlowLog, TraceEvent, TraceRing, HIST_BUCKETS,
};

/// Record one client-side span into the global ring. No-op when
/// `trace_id` is 0 (untraced operation), so call sites need no branches.
pub fn client_event(
    trace_id: u64,
    phase: &'static str,
    kind: &'static str,
    server: &str,
    start_ns: u64,
    dur_ns: u64,
    bytes: u64,
) {
    if trace_id == 0 {
        return;
    }
    ring().record(TraceEvent {
        seq: 0,
        trace_id,
        side: Side::Client,
        phase,
        kind,
        server: server.to_string(),
        start_ns,
        dur_ns,
        bytes,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_trace_id_records_nothing() {
        let cursor = ring().cursor();
        client_event(0, "plan", "read", "", 0, 1, 0);
        assert_eq!(ring().cursor(), cursor);
    }

    #[test]
    fn client_event_lands_in_global_ring() {
        let id = next_trace_id();
        let cursor = ring().cursor();
        client_event(id, "plan", "read", "ion0", now_ns(), 5, 64);
        let events: Vec<_> = ring()
            .events_since(cursor)
            .into_iter()
            .filter(|e| e.trace_id == id)
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, "plan");
        assert_eq!(events[0].side, Side::Client);
        assert_eq!(events[0].server, "ion0");
    }
}
