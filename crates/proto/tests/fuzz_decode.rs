//! Adversarial decode tests: arbitrary bytes must never panic the codec or
//! the framing layer — they either parse or error.

use bytes::Bytes;
use dpfs_proto::{frame, AccessPattern, Request, Response};
use proptest::prelude::*;

/// Sorted, disjoint, non-empty `(offset, len)` ranges — the planner's
/// contract for [`AccessPattern::from_runs`].
fn sorted_ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4096, 1u64..512), 1..32).prop_map(|gaps| {
        let mut at = 0u64;
        gaps.into_iter()
            .map(|(gap, len)| {
                let off = at + gap;
                at = off + len;
                (off, len)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Request::decode(Bytes::from(data));
    }

    #[test]
    fn response_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Response::decode(Bytes::from(data));
    }

    /// Garbage bytes — raw, or behind a valid magic so the header parser
    /// is reached — never panic either reader: frames are read until an
    /// error or EOF, and the loops must terminate.
    #[test]
    fn frame_reader_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = if with_magic { frame::MAGIC.to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&data);
        let mut cursor = std::io::Cursor::new(&bytes);
        for _ in 0..8 {
            if frame::read_frame(&mut cursor).is_err() {
                break;
            }
        }
        let mut rest = &bytes[..];
        for _ in 0..8 {
            match frame::decode_slice(rest) {
                Ok(Some((_, used))) => rest = &rest[used..],
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Mutating a valid encoded request must never panic the decoder.
    #[test]
    fn mutated_valid_request_never_panics(
        flips in proptest::collection::vec((0usize..256, any::<u8>()), 1..8),
        subfile in "[a-z/]{1,20}",
        off in any::<u64>(),
        len in 0u64..1024,
    ) {
        let req = Request::Read { subfile, ranges: vec![(off, len)] };
        let mut enc = req.encode().to_vec();
        for (pos, x) in flips {
            if !enc.is_empty() {
                let i = pos % enc.len();
                enc[i] ^= x;
            }
        }
        let _ = Request::decode(Bytes::from(enc));
    }

    /// Valid encodings always round-trip (encode is injective over decode).
    #[test]
    fn arbitrary_write_requests_round_trip(
        subfile in "[a-zA-Z0-9/_.%-]{0,64}",
        ranges in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..8,
        ),
    ) {
        let req = Request::Write {
            subfile,
            ranges: ranges
                .into_iter()
                .map(|(off, data)| (off as u64, Bytes::from(data)))
                .collect(),
        };
        let back = Request::decode(req.encode()).unwrap();
        prop_assert_eq!(back, req);
    }

    /// List-I/O requests round-trip for any planner-shaped range list, and
    /// the decoded pattern expands to exactly the input ranges.
    #[test]
    fn list_requests_round_trip(
        subfile in "[a-zA-Z0-9/_.%-]{1,64}",
        ranges in sorted_ranges(),
    ) {
        let pattern = AccessPattern::from_runs(&ranges);
        prop_assert_eq!(&pattern.expand(), &ranges);

        let read = Request::ReadList { subfile: subfile.clone(), pattern: pattern.clone() };
        let back = Request::decode(read.encode()).unwrap();
        prop_assert_eq!(&back, &read);

        let payload = Bytes::from(vec![0xabu8; pattern.total_bytes() as usize]);
        let write = Request::WriteList { subfile, pattern, payload };
        let back = Request::decode(write.encode()).unwrap();
        prop_assert_eq!(&back, &write);

        // encode_parts concatenates to the contiguous encoding (the
        // vectored framing invariant).
        let parts = write.encode_parts();
        let mut glued = Vec::new();
        for p in &parts {
            glued.extend_from_slice(p);
        }
        prop_assert_eq!(Bytes::from(glued), write.encode());
    }

    /// Truncating or bit-flipping a valid list request must never panic
    /// the decoder — it parses or errors.
    #[test]
    fn mutated_list_requests_never_panic(
        ranges in sorted_ranges(),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8),
    ) {
        let pattern = AccessPattern::from_runs(&ranges);
        let payload = Bytes::from(vec![7u8; pattern.total_bytes() as usize]);
        let req = Request::WriteList { subfile: "/f".into(), pattern, payload };
        let enc = req.encode().to_vec();

        let truncated = &enc[..cut % enc.len()];
        let _ = Request::decode(Bytes::copy_from_slice(truncated));

        let mut flipped = enc.clone();
        for (pos, x) in flips {
            let i = pos % flipped.len();
            flipped[i] ^= x;
        }
        let _ = Request::decode(Bytes::from(flipped));
    }

    /// `DataList` responses survive the same treatment.
    #[test]
    fn mutated_list_responses_never_panic(
        len in 0usize..2048,
        cut in any::<usize>(),
        pos in any::<usize>(),
        x in any::<u8>(),
    ) {
        let resp = Response::DataList { data: Bytes::from(vec![1u8; len]) };
        let enc = resp.encode().to_vec();
        let back = Response::decode(resp.encode()).unwrap();
        prop_assert_eq!(back, resp);

        let truncated = &enc[..cut % enc.len()];
        let _ = Response::decode(Bytes::copy_from_slice(truncated));

        let mut flipped = enc;
        let i = pos % flipped.len();
        flipped[i] ^= x;
        let _ = Response::decode(Bytes::from(flipped));
    }
}
