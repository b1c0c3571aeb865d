//! Microbenchmarks: wire-protocol encode/decode and framing.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpfs_proto::{frame, Request};

fn bench_codec(c: &mut Criterion) {
    let write_req = Request::Write {
        subfile: "/home/xhshen/dpfs.test".into(),
        ranges: (0..64)
            .map(|i| (i * 4096, Bytes::from(vec![0xABu8; 4096])))
            .collect(),
    };
    c.bench_function("encode_combined_write_64x4k", |b| {
        b.iter(|| black_box(&write_req).encode().len())
    });
    let encoded = write_req.encode();
    c.bench_function("decode_combined_write_64x4k", |b| {
        b.iter(|| Request::decode(black_box(encoded.clone())).unwrap())
    });
    let payload = vec![0x5Au8; 256 * 1024];
    c.bench_function("frame_roundtrip_256k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(payload.len() + frame::HEADER_LEN);
            frame::write_frame(&mut buf, 1, 0, &[black_box(&payload)]).unwrap();
            frame::read_frame(&mut std::io::Cursor::new(&buf))
                .unwrap()
                .payload
                .len()
        })
    });
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
