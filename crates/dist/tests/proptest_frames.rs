//! Property-based tests for the wire frame codec: arbitrary payloads
//! round-trip, and no truncation, length corruption or bit flip is ever
//! accepted. The one message whose payload is a tree of counted lists —
//! `ObsReport`, a worker's snapshot of itself — is held to the same, and so
//! is a frame that is written and read in pieces.

use bpart_dist::error::ClusterError;
use bpart_dist::frame::{self, PayloadReader, HEADER_LEN, MAX_PAYLOAD};
use bpart_dist::proto::WorkerMsg;
use bpart_dist::wire::Sink;
use bpart_obs::snapshot::{HistogramValue, Snapshot, Span};
use proptest::prelude::*;

/// A snapshot built from `seeds`, one entry of some kind per seed, so
/// every list of the encoding takes every small length. Values are the
/// seed's bits: NaNs, infinities and negative zeros included.
fn snapshot_from(seeds: &[u64]) -> Snapshot {
    let mut snapshot = Snapshot::default();
    for (i, &seed) in seeds.iter().enumerate() {
        let name = format!("m{}.é{seed:x}", seed % 7);
        let float = f64::from_bits(seed);
        match seed % 5 {
            0 => {
                snapshot.metrics.counters.insert(name, seed);
            }
            1 => {
                snapshot.metrics.gauges.insert(name, float);
            }
            2 => {
                let bounds: Vec<f64> = (0..seed % 4).map(|b| b as f64).collect();
                let h = HistogramValue {
                    buckets: vec![seed; bounds.len() + 1],
                    bounds,
                    count: seed,
                    sum: float,
                };
                snapshot.metrics.histograms.insert(name, h);
            }
            3 => snapshot.spans.push(Span {
                id: seed,
                parent: (seed % 4 == 3).then_some(seed / 2),
                name,
                thread: i as u64,
                start_ns: seed,
                dur_ns: seed / 3,
                attrs: (0..seed % 3)
                    .map(|a| (format!("k{a}"), format!("{seed}\"\n")))
                    .collect(),
            }),
            _ => snapshot.profile.push((name, seed)),
        }
    }
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_round_trip(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let bytes = frame::encode(kind, &payload).unwrap();
        prop_assert_eq!(bytes.len(), HEADER_LEN + payload.len());

        // Buffer decode consumes exactly one frame.
        let (decoded, used) = frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded.kind, kind);
        prop_assert_eq!(&decoded.payload, &payload);

        // Stream decode agrees byte for byte.
        let mut cursor = &bytes[..];
        let streamed = frame::read_frame(&mut cursor).unwrap();
        prop_assert_eq!(streamed.kind, kind);
        prop_assert_eq!(streamed.payload, payload);
        prop_assert!(cursor.is_empty());
    }

    #[test]
    fn truncated_frames_are_rejected(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..256),
        cut in 0usize..1 << 16,
    ) {
        let bytes = frame::encode(kind, &payload).unwrap();
        // Cut strictly before the end: every proper prefix must be
        // rejected, never silently decoded.
        let keep = cut % bytes.len();
        let err = frame::decode(&bytes[..keep]).unwrap_err();
        prop_assert!(
            matches!(err, ClusterError::FrameCorrupt { .. }),
            "prefix of {} bytes decoded or failed oddly: {}", keep, err
        );
        // The stream reader maps the same cut to corrupt-or-hangup.
        let mut cursor = &bytes[..keep];
        let err = frame::read_frame(&mut cursor).unwrap_err();
        prop_assert!(
            matches!(
                err,
                ClusterError::FrameCorrupt { .. } | ClusterError::ConnReset { .. }
            ),
            "stream prefix of {} bytes: {}", keep, err
        );
    }

    #[test]
    fn corrupt_lengths_are_rejected(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..64),
        stated in 0u32..=u32::MAX,
    ) {
        let true_len = payload.len() as u32;
        prop_assume!(stated != true_len);
        let mut bytes = frame::encode(kind, &payload).unwrap();
        bytes[4..8].copy_from_slice(&stated.to_le_bytes());
        let err = frame::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{}", err);
        if stated > MAX_PAYLOAD {
            // Impossible lengths must die on header validation — before
            // any payload-sized allocation.
            prop_assert!(err.to_string().contains("MAX_PAYLOAD"), "{}", err);
        }
    }

    #[test]
    fn corrupt_payload_bytes_are_rejected(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 1..256),
        at in 0usize..1 << 16,
        xor in 1u8..=255,
    ) {
        let mut bytes = frame::encode(kind, &payload).unwrap();
        let at = HEADER_LEN + at % payload.len();
        bytes[at] ^= xor;
        let err = frame::decode(&bytes).unwrap_err();
        prop_assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{}", err);
    }

    /// The checksum reads the payload as 8-byte words and its last
    /// `len % 8` bytes one at a time, so every tail length is its own code
    /// path: the same bytes are framed at eight consecutive lengths, and
    /// at each one a flipped bit anywhere in the frame — header fields
    /// included — and a cut anywhere before its end are both refused.
    #[test]
    fn bit_flips_and_truncations_are_rejected_at_every_tail_length(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..4100),
        at in 0usize..1 << 24,
        cut in 0usize..1 << 24,
    ) {
        for tail in 0..8 {
            let payload = &payload[..payload.len().saturating_sub(tail)];
            let bytes = frame::encode(kind, payload).unwrap();
            let (frame, _) = frame::decode(&bytes).unwrap();
            prop_assert_eq!(&frame.payload[..], payload);

            let bit = at % (bytes.len() * 8);
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let err = frame::decode(&flipped).unwrap_err();
            prop_assert!(
                matches!(err, ClusterError::FrameCorrupt { .. }),
                "bit {} of a {}-byte payload: {}", bit, payload.len(), err
            );
            // The stream reader sees a grown length as a hang-up.
            let err = frame::read_frame(&mut &flipped[..]).unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    ClusterError::FrameCorrupt { .. } | ClusterError::ConnReset { .. }
                ),
                "bit {} of a {}-byte payload, streamed: {}", bit, payload.len(), err
            );

            let keep = cut % bytes.len();
            prop_assert!(frame::decode(&bytes[..keep]).is_err(), "kept {} bytes", keep);
            prop_assert!(frame::read_frame(&mut &bytes[..keep]).is_err(), "kept {} bytes", keep);
        }
    }

    /// A payload handed to a `PayloadWriter` in arbitrary pieces leaves as
    /// the frame `encode` builds around it whole; a `PayloadReader` takes
    /// it back in pieces of other sizes; and with any one byte changed the
    /// frame is refused — at the header, or by `finish`, which is before
    /// anything the pieces were decoded into may be read.
    #[test]
    fn a_streamed_frame_is_the_encoded_frame_and_no_flip_is_accepted(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..200_000),
        cuts in prop::collection::vec(1usize..70_000, 1..8),
        at in 0usize..1 << 24,
        xor in 1u8..=255,
    ) {
        let mut streamed = Vec::new();
        frame::write_streamed(&mut streamed, kind, |out| {
            let (mut rest, mut cuts) = (&payload[..], cuts.iter().cycle());
            while !rest.is_empty() {
                let (piece, later) = rest.split_at(rest.len().min(*cuts.next().unwrap()));
                out.bytes(piece);
                rest = later;
            }
        }).unwrap();
        prop_assert!(streamed == frame::encode(kind, &payload).unwrap());

        // What a sink would be filled with, and whether it may be read.
        let read = |bytes: &[u8]| -> Result<Vec<u8>, ClusterError> {
            let mut r = PayloadReader::open(bytes)?;
            let (mut sink, mut wants) = (Vec::new(), cuts.iter().rev().cycle());
            while sink.len() < payload.len() {
                let want = (payload.len() - sink.len()).min(*wants.next().unwrap());
                sink.extend_from_slice(r.piece(want)?);
            }
            r.finish()?;
            Ok(sink)
        };
        prop_assert!(read(&streamed).unwrap() == payload);

        let mut flipped = streamed.clone();
        flipped[at % streamed.len()] ^= xor;
        match read(&flipped) {
            Err(ClusterError::FrameCorrupt { .. } | ClusterError::ConnReset { .. }) => {}
            other => prop_assert!(false, "byte {} flipped: {:?}", at % streamed.len(), other.map(|s| s.len())),
        }
    }

    #[test]
    fn obs_reports_round_trip_and_no_cut_or_flip_is_accepted(
        seeds in prop::collection::vec(0u64..u64::MAX, 0..24),
        head in (0u32..4, 0u64..1 << 40),
        at in 0usize..1 << 24,
        cut in 0usize..1 << 24,
    ) {
        let msg = WorkerMsg::ObsReport {
            epoch: head.0,
            seq: head.1,
            echo_ns: 1,
            recv_ns: 2,
            send_ns: 3,
            snapshot: snapshot_from(&seeds),
        };
        let bytes = msg.to_frame().unwrap();
        let (frame, used) = frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        // Compared as encoded: a NaN gauge is not equal to itself, its
        // bits are.
        let back = WorkerMsg::from_frame(&frame).unwrap();
        prop_assert_eq!(back.to_frame().unwrap(), bytes.clone());

        // The frame refuses any cut and any flipped bit ...
        let keep = cut % bytes.len();
        prop_assert!(frame::decode(&bytes[..keep]).is_err(), "kept {} bytes", keep);
        let bit = at % (bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(frame::decode(&flipped).is_err(), "bit {}", bit);

        // ... and the message refuses a payload cut anywhere, even one
        // that arrives under a good checksum.
        let payload = &bytes[HEADER_LEN..];
        let short = frame::encode(frame.kind, &payload[..cut % payload.len()]).unwrap();
        let (short, _) = frame::decode(&short).unwrap();
        let err = WorkerMsg::from_frame(&short).unwrap_err();
        prop_assert!(matches!(err, ClusterError::FrameCorrupt { .. }), "{}", err);
    }
}
