//! Ablation studies: brick size, read granularity, staggered schedule,
//! I/O-node scaling, client cache, metadata placement, list I/O. Not
//! paper figures — these probe the design choices DESIGN.md calls out.
//!
//! `--quick` forces the small workload scale and turns the run into a smoke
//! test: the directional regression checks (brick cache wins, metadata
//! client cache wins, list I/O wins) are asserted and a violation exits
//! nonzero, so CI can run the real binary end to end.

use dpfs_bench::ablation::*;
use dpfs_bench::{FigScale, TraceSummary};
use dpfs_core::trace::{export_jsonl_to, ring};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        FigScale::Quick
    } else {
        FigScale::from_env()
    };
    // Scope trace export and the phase table to this run's events.
    let trace_cursor = ring().cursor();

    print_points(
        "Ablation 1: linear brick-size sweep (8 clients, 4 class-3 servers, combined)",
        &brick_size_sweep(scale),
    );
    print_points(
        "Ablation 2: read granularity on (*, BLOCK) over a linear file",
        &granularity_ablation(scale),
    );
    print_points(
        "Ablation 3: staggered schedule vs convoy (8 clients, 8 servers)",
        &stagger_ablation(scale),
    );
    print_points(
        "Ablation 4: I/O-node scaling (8 clients, multidim (*, BLOCK) read)",
        &io_node_scaling(scale),
    );
    let cache = cache_ablation(scale);
    print_points(
        "Ablation 5: client-side brick cache (hot-region re-reads)",
        &cache,
    );
    let metadata = metadata_ablation(scale);
    print_ops_points(
        "Ablation 6: metadata placement on an open/stat-heavy workload",
        &metadata,
    );
    let list_io = list_io_ablation(scale);
    print_points(
        "Ablation 7: server-side list I/O vs enumerated ranges (exact-granularity read)",
        &list_io,
    );

    // Per-phase latency table from the spans the run just recorded. The
    // global ring keeps the last 65536 events, so at full scale this is
    // the tail of the run, not the whole of it.
    let events = ring().events_since(trace_cursor);
    let mut summary = TraceSummary::new();
    summary.add_events(&events);
    println!(
        "Phase latency summary ({} traced spans retained):",
        events.len()
    );
    print!("{}", summary.render());
    println!();

    if let Some(path) = std::env::var_os("DPFS_TRACE_OUT") {
        let path = std::path::PathBuf::from(path);
        match export_jsonl_to(&path, trace_cursor) {
            Ok(n) => println!("exported {n} trace events to {}", path.display()),
            Err(e) => {
                eprintln!("ablation: trace export to {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if quick {
        let mut failures = Vec::new();
        let mut check = |what: &str, ok: bool| {
            if !ok {
                failures.push(what.to_string());
            }
        };
        check(
            "client-side brick cache must beat no-cache on hot re-reads",
            cache[1].1 > cache[0].1,
        );
        check(
            "metadata client cache must beat the uncached remote mount",
            metadata[2].1 > metadata[1].1,
        );
        check(
            "server-side list I/O must beat client-side enumeration",
            list_io[0].1 > list_io[1].1,
        );
        if failures.is_empty() {
            println!("quick smoke checks: all passed");
        } else {
            for f in &failures {
                eprintln!("ablation regression: {f}");
            }
            std::process::exit(1);
        }
    }
}
