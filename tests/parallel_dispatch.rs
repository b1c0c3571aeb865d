//! Timing proof of parallel per-server dispatch: with four servers each
//! injecting a 20 ms per-request delay, a combined access touching all four
//! must cost about one server's delay, not the sum.

use std::time::{Duration, Instant};

use dpfs::cluster::{NodeSpec, Testbed};
use dpfs::core::{ClientOptions, Hint};
use dpfs::server::PerfModel;

const DELAY: Duration = Duration::from_millis(20);
const SERVERS: usize = 4;

fn delayed_testbed() -> Testbed {
    let model = PerfModel {
        request_latency: DELAY,
        bandwidth: u64::MAX,
        seek_latency: Duration::ZERO,
    };
    let specs: Vec<NodeSpec> = (0..SERVERS)
        .map(|i| NodeSpec::with_model(i, model))
        .collect();
    Testbed::start(&specs).unwrap()
}

#[test]
fn combined_access_overlaps_server_delays() {
    let tb = delayed_testbed();
    let client = tb.client_opts(ClientOptions::default());
    // 64-byte bricks, one brick per server: each combined access becomes
    // exactly one 20 ms request to each of the four servers. Scheduler
    // noise on a loaded box can stretch any single measurement, so take
    // the best of three — a regression to serial dispatch costs the full
    // 80 ms on *every* attempt and still fails the 2x bound.
    let mut f = client.create("/par", &Hint::linear(64, 0)).unwrap();
    let data: Vec<u8> = (0..64 * SERVERS).map(|x| x as u8).collect();

    let mut write_elapsed = Duration::MAX;
    let mut read_elapsed = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        f.write_bytes(0, &data).unwrap();
        write_elapsed = write_elapsed.min(start.elapsed());

        let start = Instant::now();
        let back = f.read_bytes(0, data.len() as u64).unwrap();
        read_elapsed = read_elapsed.min(start.elapsed());
        assert_eq!(back, data);

        if write_elapsed < DELAY * 2 && read_elapsed < DELAY * 2 {
            break;
        }
    }
    assert!(
        write_elapsed < DELAY * 2,
        "combined write took {write_elapsed:?}; overlapped dispatch across \
         {SERVERS} servers must stay under {:?}",
        DELAY * 2
    );
    assert!(
        read_elapsed < DELAY * 2,
        "combined read took {read_elapsed:?}; overlapped dispatch across \
         {SERVERS} servers must stay under {:?}",
        DELAY * 2
    );
}
