//! The readiness runtime's less-travelled reply paths, each of which ends
//! with a worker waking the connection's shard:
//!
//! - replies larger than the socket buffers, so the worker's direct write
//!   leaves bytes over and the shard finishes them once the socket turns
//!   writable;
//! - a peer that half-closes with requests still in flight, which must
//!   get every owed reply before the server closes.

use std::collections::HashMap;
use std::io::Read as _;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use dpfs::proto::{frame, Request, Response};
use dpfs::server::{IoServer, PerfModel, ServerConfig};

fn start_server(tag: &str) -> IoServer {
    let root = std::env::temp_dir().join(format!("dpfs-egress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    IoServer::start(ServerConfig::new(
        "egress00",
        root,
        PerfModel::unthrottled(),
    ))
    .unwrap()
}

/// Deterministic bytes with no short period, so a misplaced range shows.
fn content(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(131) ^ (i >> 12)) as u8)
        .collect()
}

/// Connect and store `data` as `subfile` on the server.
fn connect_with_file(server: &IoServer, subfile: &str, data: &[u8]) -> TcpStream {
    let mut c = TcpStream::connect(server.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = Request::Write {
        subfile: subfile.into(),
        ranges: vec![(0, Bytes::from(data.to_vec()))],
    };
    frame::write_frame(&mut c, u64::MAX, 0, &[&req.encode()]).unwrap();
    let f = frame::read_frame(&mut c).unwrap();
    assert_eq!(
        Response::decode(f.payload).unwrap(),
        Response::Written {
            bytes: data.len() as u64
        }
    );
    c
}

fn read_req(subfile: &str, offset: usize, len: usize) -> Bytes {
    Request::Read {
        subfile: subfile.into(),
        ranges: vec![(offset as u64, len as u64)],
    }
    .encode()
}

/// The one chunk a single-range read returns.
fn data_of(f: frame::Frame) -> Bytes {
    match Response::decode(f.payload).unwrap() {
        Response::Data { mut chunks } => {
            assert_eq!(chunks.len(), 1);
            chunks.pop().unwrap()
        }
        other => panic!("expected Data, got {other:?}"),
    }
}

#[test]
fn replies_larger_than_the_socket_buffer_finish_byte_exact() {
    const N: usize = 8;
    const LEN: usize = 4 << 20;
    const STEP: usize = 4096;
    let server = start_server("large");
    let data = content(LEN + N * STEP);
    let mut c = connect_with_file(&server, "/large.dat", &data);

    // Pipeline every read, then stay away long enough for the first reply
    // to fill both socket buffers and the rest to queue behind it.
    for i in 0..N {
        let req = read_req("/large.dat", i * STEP, LEN);
        frame::write_frame(&mut c, i as u64, 0, &[&req]).unwrap();
    }
    std::thread::sleep(Duration::from_millis(200));

    let mut seen = [false; N];
    for _ in 0..N {
        let f = frame::read_frame(&mut c).unwrap();
        let i = f.corr_id as usize;
        assert!(i < N && !seen[i], "unexpected or repeated reply {i}");
        seen[i] = true;
        let got = data_of(f);
        assert!(
            got[..] == data[i * STEP..i * STEP + LEN],
            "reply {i} is not the range it asked for"
        );
    }
}

#[test]
fn half_closed_peer_still_gets_every_owed_reply() {
    const N: usize = 16;
    const LEN: usize = 512 << 10;
    let server = start_server("halfclose");
    let data = content(LEN + N * 512);
    let mut c = connect_with_file(&server, "/half.dat", &data);

    for i in 0..N {
        let req = read_req("/half.dat", i * 512, LEN);
        frame::write_frame(&mut c, i as u64, 0, &[&req]).unwrap();
    }
    // FIN right behind the requests: the server sees EOF while most of
    // the replies are still being produced or flushed.
    c.shutdown(Shutdown::Write).unwrap();

    let mut got: HashMap<u64, Bytes> = HashMap::new();
    for _ in 0..N {
        let f = frame::read_frame(&mut c).unwrap();
        let id = f.corr_id;
        assert!(got.insert(id, data_of(f)).is_none(), "reply {id} twice");
    }
    for i in 0..N {
        assert!(
            got[&(i as u64)][..] == data[i * 512..i * 512 + LEN],
            "reply {i} is not the range it asked for"
        );
    }
    // Everything owed was sent, so the server closes its side.
    assert_eq!(c.read(&mut [0u8; 1]).unwrap(), 0, "expected EOF");
}
