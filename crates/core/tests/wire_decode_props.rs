//! Wire-decoder hardening properties: [`StreamDecoder`] must never
//! panic, must round-trip clean frames exactly, and must resynchronize
//! past corruption without ever producing a frame that was not sent
//! (CRC-32 protects every body).

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use sp_core::wire::{Control, Message, StreamDecoder, WireFrame};
use sp_core::{
    RoleId, RoleSet, SecurityPunctuation, StreamElement, StreamId, Timestamp, Tuple, TupleId, Value,
};

fn arb_element() -> impl Strategy<Value = StreamElement> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), prop::collection::vec(any::<i64>(), 0..4)).prop_map(
            |(tid, ts, vals)| {
                StreamElement::tuple(Tuple::new(
                    StreamId(1),
                    TupleId(tid),
                    Timestamp(ts),
                    vals.into_iter().map(Value::Int).collect::<Vec<_>>(),
                ))
            }
        ),
        (prop::collection::vec(0u32..64, 0..6), any::<u64>()).prop_map(|(roles, ts)| {
            StreamElement::punctuation(SecurityPunctuation::grant_all(
                roles.into_iter().map(RoleId).collect::<RoleSet>(),
                Timestamp(ts),
            ))
        }),
    ]
}

/// A few frames, each tagged with a distinct stream id so decoded frames
/// can be matched back to what was sent.
fn arb_frames() -> impl Strategy<Value = Vec<Message>> {
    prop::collection::vec(prop::collection::vec(arb_element(), 0..6), 1..6).prop_map(|batches| {
        batches
            .into_iter()
            .enumerate()
            .map(|(i, elems)| Message::new(StreamId(i as u32), elems))
            .collect()
    })
}

fn encode_all(frames: &[Message]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        f.encode(&mut bytes);
    }
    bytes
}

// ------------------------------------------------------------------------
// The incremental [`StreamDecoder`] under adversarial socket delivery:
// frames arrive torn into arbitrary 1..N-byte chunks, interleaved with
// line noise. Resynchronization must never emit a frame that was not
// sent, and must recover every intact frame when the noise cannot be
// mistaken for a frame header.

/// Splits `bytes` into chunks whose sizes cycle through `sizes`
/// (each clamped to 1..), mimicking arbitrary TCP segmentation.
fn feed_in_chunks(dec: &mut StreamDecoder, bytes: &[u8], sizes: &[usize]) -> Vec<WireFrame> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < bytes.len() {
        let n = sizes.get(i % sizes.len()).copied().unwrap_or(1).max(1).min(bytes.len() - pos);
        out.extend(dec.feed(&bytes[pos..pos + n]));
        pos += n;
        i += 1;
    }
    out
}

/// Every [`Control`] variant, including the quarantine notice, the
/// four replication frames (`ReplHello`, `CheckpointSegment`,
/// `CheckpointCommit`, `Fence`), and the sp-trace context frame.
fn arb_control() -> impl Strategy<Value = Control> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(tenant, acked)| Control::Hello { tenant, acked }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(trace_id, parent_span)| Control::Trace { trace_id, parent_span }),
        any::<u64>().prop_map(|resume_from| Control::HelloAck { resume_from }),
        any::<u64>().prop_map(|pos| Control::Ack { pos }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(retry_after_ms, pos)| Control::Overloaded { retry_after_ms, pos }),
        (0u8..3).prop_map(|c| Control::Quarantined {
            code: sp_core::QuarantineCode::from_u8(c).expect("assigned code"),
        }),
        any::<u64>().prop_map(|pos| Control::Draining { pos }),
        any::<u64>().prop_map(|fencing_epoch| Control::ReplHello { fencing_epoch }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(tenant, epoch, fencing_epoch, seq, total, bytes)| {
                Control::CheckpointSegment { tenant, epoch, fencing_epoch, seq, total, bytes }
            }),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(tenant, epoch, fencing_epoch, len, crc)| Control::CheckpointCommit {
                tenant,
                epoch,
                fencing_epoch,
                len,
                crc,
            }
        ),
        any::<u64>().prop_map(|fencing_epoch| Control::Fence { fencing_epoch }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Clean frames (data and control interleaved) torn into arbitrary
    /// 1..N-byte chunks reassemble exactly, in order, with no losses.
    #[test]
    fn stream_decoder_reassembles_arbitrary_chunking(
        frames in arb_frames(),
        ctrls in prop::collection::vec(arb_control(), 0..4),
        sizes in prop::collection::vec(1usize..40, 1..8),
    ) {
        let mut bytes = Vec::new();
        let mut want = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            f.encode(&mut bytes);
            want.push(WireFrame::Message(f.clone()));
            if let Some(c) = ctrls.get(i) {
                c.encode(&mut bytes);
                want.push(WireFrame::Control(c.clone()));
            }
        }
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), 0, "nothing may linger after clean delivery");
    }

    /// Chunked delivery with magic-free garbage between frames: every
    /// frame is recovered exactly (the noise can never look like a frame
    /// start, so resync always finds the next real frame).
    #[test]
    fn stream_decoder_recovers_every_frame_past_plain_garbage(
        frames in arb_frames(),
        garbage in prop::collection::vec(any::<u8>(), 1..48),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let garbage: Vec<u8> =
            garbage.into_iter().filter(|&b| b != 0xA5 && b != 0x5A).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&garbage);
            f.encode(&mut bytes);
        }
        let want: Vec<WireFrame> = frames.iter().cloned().map(WireFrame::Message).collect();
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
    }

    /// Chunked delivery with *arbitrary* garbage (which may contain fake
    /// magics and lying length fields): the decoder must never emit a
    /// frame that was not sent, and decoded frames keep their relative
    /// order. CRC-32 is the last line of defense.
    #[test]
    fn stream_decoder_never_fabricates_under_arbitrary_garbage(
        frames in arb_frames(),
        garbage in prop::collection::vec(any::<u8>(), 1..48),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&garbage);
            f.encode(&mut bytes);
        }
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        // Every decoded frame was sent…
        let mut cursor = 0;
        for frame in &got {
            prop_assert!(
                matches!(frame, WireFrame::Message(_)),
                "fabricated a control frame"
            );
            let WireFrame::Message(m) = frame else { continue };
            // …and appears at or after the previous match (order kept).
            let found = frames[cursor..].iter().position(|f| f == m);
            prop_assert!(found.is_some(), "decoder fabricated or reordered a frame");
            cursor += found.unwrap_or(0);
        }
    }

    /// A corrupted frame mid-stream under chunked delivery: the decoder
    /// resynchronizes and still recovers the subsequent intact frames.
    #[test]
    fn stream_decoder_resyncs_after_mid_stream_corruption(
        frames in arb_frames(),
        flip in any::<u8>(),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        if frames.len() < 2 {
            return; // need an intact tail to assert about
        }
        let mut first = Vec::new();
        frames[0].encode(&mut first);
        // Corrupt one byte of the first frame's body region.
        let pos = 9 + (usize::from(flip) % frames[0].encode_to_vec().len().saturating_sub(9).max(1));
        if pos < first.len() {
            first[pos] ^= 0x40;
        }
        let mut bytes = first;
        for f in &frames[1..] {
            f.encode(&mut bytes);
        }
        // Corrupted bytes can contain a fake magic whose length field
        // promises data still "in flight" — a stall the server resolves
        // with its idle deadline. Here, magic-free padding forces every
        // such fake frame to complete, fail its CRC, and resync.
        let max_frame = 4096;
        bytes.extend(std::iter::repeat_n(0u8, max_frame + 16));
        let mut dec = StreamDecoder::new(max_frame);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        let want_tail: Vec<WireFrame> =
            frames[1..].iter().cloned().map(WireFrame::Message).collect();
        prop_assert!(got.len() >= want_tail.len(), "resync lost intact frames");
        prop_assert_eq!(
            &got[got.len() - want_tail.len()..],
            &want_tail[..],
            "intact tail must survive resync"
        );
    }

    /// Any single bit flip anywhere in the stream — headers included —
    /// under chunked delivery: every decoded frame is one that was
    /// actually sent, and one flipped bit costs at most one frame.
    #[test]
    fn stream_decoder_single_bit_flip_costs_at_most_one_frame(
        frames in arb_frames(),
        pos_ratio in 0.0f64..1.0,
        bit in 0u8..8,
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = encode_all(&frames);
        let pos = ((bytes.len() as f64 - 1.0) * pos_ratio) as usize;
        bytes[pos] ^= 1 << bit;
        // A flipped length bit can promise data still "in flight";
        // magic-free padding lets every such frame complete, fail its
        // CRC, and resync (see the mid-stream corruption case above).
        let max_frame = 4096;
        bytes.extend(std::iter::repeat_n(0u8, max_frame + 16));
        let mut dec = StreamDecoder::new(max_frame);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert!(got.len() <= frames.len());
        for frame in &got {
            let sent = matches!(frame, WireFrame::Message(m) if frames.contains(m));
            prop_assert!(sent, "decoder fabricated a frame");
        }
        prop_assert!(got.len() + 1 >= frames.len(), "one flipped bit cost more than one frame");
    }

    /// A stream cut at any point yields a clean prefix of the frames and
    /// retains exactly the torn tail, waiting for the rest.
    #[test]
    fn stream_decoder_truncation_yields_prefix_and_retains_the_tail(
        frames in arb_frames(),
        cut_ratio in 0.0f64..1.0,
    ) {
        let bytes = encode_all(&frames);
        let cut = ((bytes.len() as f64) * cut_ratio) as usize;
        let mut dec = StreamDecoder::new(1 << 20);
        let got = dec.feed(&bytes[..cut]);
        let want: Vec<WireFrame> =
            frames[..got.len()].iter().cloned().map(WireFrame::Message).collect();
        prop_assert_eq!(&got, &want, "prefix property");
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), cut - encode_all(&frames[..got.len()]).len());
    }

    /// Arbitrary byte soup never panics the decoder, and every byte is
    /// accounted for: skipped, or held back as a possible frame start.
    #[test]
    fn stream_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut dec = StreamDecoder::new(1 << 20);
        let got = dec.feed(&bytes);
        // Random bytes essentially never satisfy a CRC-32 check.
        prop_assert!(got.is_empty());
        prop_assert_eq!(dec.skipped_bytes as usize + dec.buffered(), bytes.len());
    }

    /// Every control variant — session protocol and replication frames
    /// alike — round-trips through the incremental decoder under
    /// adversarial 1..N-byte chunking.
    #[test]
    fn every_control_variant_round_trips_chunked(
        ctrls in prop::collection::vec(arb_control(), 1..12),
        sizes in prop::collection::vec(1usize..16, 1..8),
    ) {
        let mut bytes = Vec::new();
        for c in &ctrls {
            c.encode(&mut bytes);
        }
        let want: Vec<WireFrame> = ctrls.iter().cloned().map(WireFrame::Control).collect();
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Sp-trace contexts ride the wire immediately ahead of their data
    /// frames: under arbitrary 1..N-byte chunking every `Trace` frame
    /// decodes exactly and stays directly before its `Message` — the
    /// pairing the server's `pending_trace` handoff relies on.
    #[test]
    fn trace_contexts_stay_paired_with_their_frames_chunked(
        frames in arb_frames(),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = Vec::new();
        let mut want = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let ctx = sp_core::TraceContext::derive(7, i as u32, i as u64);
            let t = Control::Trace { trace_id: ctx.trace_id, parent_span: ctx.parent_span };
            t.encode(&mut bytes);
            want.push(WireFrame::Control(t));
            f.encode(&mut bytes);
            want.push(WireFrame::Message(f.clone()));
        }
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Magic-free garbage between trace+frame pairs under chunked
    /// delivery: resync recovers every pair intact and in order — noise
    /// may delay a pair but can never split or reorder one.
    #[test]
    fn trace_pairing_survives_resync_past_garbage(
        frames in arb_frames(),
        garbage in prop::collection::vec(any::<u8>(), 1..48),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let garbage: Vec<u8> = garbage
            .into_iter()
            .filter(|&b| b != 0xA5 && b != 0x5A && b != MAGIC_CIPHER)
            .collect();
        let mut bytes = Vec::new();
        let mut want = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            bytes.extend_from_slice(&garbage);
            let ctx = sp_core::TraceContext::derive(3, 1, i as u64);
            let t = Control::Trace { trace_id: ctx.trace_id, parent_span: ctx.parent_span };
            t.encode(&mut bytes);
            want.push(WireFrame::Control(t));
            bytes.extend_from_slice(&garbage);
            f.encode(&mut bytes);
            want.push(WireFrame::Message(f.clone()));
        }
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
    }

    /// A control frame with an *unassigned* variant tag but a valid CRC
    /// envelope: the decoder must refuse it as corruption (never panic,
    /// never emit a frame), and still recover the intact frame behind it.
    #[test]
    fn unknown_control_variant_fails_decode_not_panic(
        tag in 11u8..=255,
        payload in prop::collection::vec(any::<u8>(), 0..48),
        good in arb_control(),
        sizes in prop::collection::vec(1usize..16, 1..8),
    ) {
        let mut body = vec![tag];
        body.extend_from_slice(&payload);
        let mut bytes = Vec::new();
        bytes.push(sp_core::wire::MAGIC_CTRL);
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&sp_core::wire::crc32(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
        good.encode(&mut bytes);
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert!(dec.corrupted_frames >= 1, "unknown tag must count as corruption");
        // Resync past an unknown-variant frame can nibble into the next
        // frame's bytes, so recovering `good` is best-effort — but the
        // decoder must never emit the unknown frame or fabricate one.
        for frame in &got {
            prop_assert_eq!(frame, &WireFrame::Control(good.clone()), "fabricated a frame");
        }
    }
}

// ------------------------------------------------------------------------
// Cipher frames (MAGIC_CIPHER) under the same adversarial delivery: the
// crypto-enforced path's framing must reassemble under arbitrary
// chunking, refuse unknown tags as counted corruption, and never panic
// or fabricate — the decoder is the first fail-closed line of the
// outsourced-enforcement client.

use sp_core::crypto::{frame::MAGIC_CIPHER, CipherFrame, KeyCapsule};

fn arb_cipher_frame() -> impl Strategy<Value = CipherFrame> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec((any::<u32>(), prop::collection::vec(any::<u8>(), 0..64)), 0..4),
        )
            .prop_map(|(stream, seg, key_epoch, sp_ts, caps)| CipherFrame::Header {
                stream,
                seg,
                key_epoch,
                sp_ts,
                capsules: caps
                    .into_iter()
                    .map(|(role, wrapped)| KeyCapsule { role, wrapped })
                    .collect(),
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), prop::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(stream, seg, idx, sealed)| CipherFrame::Data { stream, seg, idx, sealed }),
        (any::<u32>(), any::<u64>(), any::<u32>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(stream, seg, count, sealed_digest)| CipherFrame::Digest {
                stream,
                seg,
                count,
                sealed_digest,
            }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(stream, seg)| CipherFrame::Terminator { stream, seg }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(stream, epoch)| CipherFrame::KeyEpoch { stream, epoch }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Cipher frames interleaved with data and control frames reassemble
    /// exactly under arbitrary 1..N-byte chunking.
    #[test]
    fn cipher_frames_round_trip_chunked(
        cipher in prop::collection::vec(arb_cipher_frame(), 1..8),
        frames in arb_frames(),
        ctrls in prop::collection::vec(arb_control(), 0..3),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = Vec::new();
        let mut want = Vec::new();
        for (i, c) in cipher.iter().enumerate() {
            c.encode(&mut bytes);
            want.push(WireFrame::Cipher(c.clone()));
            if let Some(m) = frames.get(i) {
                m.encode(&mut bytes);
                want.push(WireFrame::Message(m.clone()));
            }
            if let Some(ct) = ctrls.get(i) {
                ct.encode(&mut bytes);
                want.push(WireFrame::Control(ct.clone()));
            }
        }
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert_eq!(got, want);
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// A cipher envelope with an *unassigned* frame tag but a valid CRC:
    /// counted corruption, never a panic, never an emitted frame — and
    /// the decoder keeps working afterwards.
    #[test]
    fn unknown_cipher_tag_is_counted_corruption(
        tag in 5u8..=255,
        payload in prop::collection::vec(any::<u8>(), 0..48),
        good in arb_cipher_frame(),
        sizes in prop::collection::vec(1usize..16, 1..8),
    ) {
        let mut body = vec![tag];
        body.extend_from_slice(&payload);
        let mut bytes = Vec::new();
        bytes.push(MAGIC_CIPHER);
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&sp_core::wire::crc32(&body).to_be_bytes());
        bytes.extend_from_slice(&body);
        good.encode(&mut bytes);
        let mut dec = StreamDecoder::new(1 << 20);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        prop_assert!(dec.corrupted_frames >= 1, "unknown tag must count as corruption");
        for frame in &got {
            prop_assert_eq!(frame, &WireFrame::Cipher(good.clone()), "fabricated a frame");
        }
    }

    /// Any single-bit flip in a chunked cipher stream: no panic, and no
    /// frame is emitted that was not sent.
    #[test]
    fn cipher_bit_flip_never_fabricates_chunked(
        cipher in prop::collection::vec(arb_cipher_frame(), 1..6),
        pos_ratio in 0.0f64..1.0,
        bit in 0u8..8,
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = Vec::new();
        for c in &cipher {
            c.encode(&mut bytes);
        }
        let pos = ((bytes.len() as f64 - 1.0) * pos_ratio) as usize;
        bytes[pos] ^= 1 << bit;
        // Magic-free padding flushes any fake in-flight frame the flip
        // manufactured (same trick as the mid-stream corruption test).
        bytes.extend(std::iter::repeat_n(0u8, (1 << 16) + 16));
        let mut dec = StreamDecoder::new(1 << 16);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        let want: Vec<WireFrame> = cipher.iter().cloned().map(WireFrame::Cipher).collect();
        prop_assert!(got.len() <= want.len());
        for g in &got {
            prop_assert!(want.contains(g), "decoder fabricated a cipher frame");
        }
    }
}
