//! Wire-decoder hardening properties: [`StreamDecoder`] must never
//! panic, must round-trip clean frames exactly, and must resynchronize
//! past corruption without ever producing a frame that was not sent
//! (CRC-32 protects every body).

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use sp_core::wire::{Control, Message, StreamDecoder, WireFrame};
use sp_core::{
    PatternTable, RoleId, RoleSet, SecurityPunctuation, StreamElement, StreamId, Timestamp, Tuple,
    TupleId, Value, MAX_WIRE_ROLE_ID,
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
        cut_back in any::<usize>(),
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
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(dec.corrupted_frames, 0);
        prop_assert_eq!(dec.buffered(), 0, "nothing may linger after clean delivery");

        // Several whole frames plus a partial one in a single `feed`:
        // the whole ones are parsed where they lie, only the cut frame's
        // bytes are held back, and the rest completes it.
        let last_len = match want.last() {
            Some(WireFrame::Message(m)) => m.encode_to_vec().len(),
            Some(WireFrame::Control(c)) => c.encode_to_vec().len(),
            _ => 0,
        };
        let cut = bytes.len() - 1 - cut_back % last_len;
        let mut dec = StreamDecoder::new(1 << 20);
        let mut got = dec.feed(&bytes[..cut]);
        prop_assert_eq!(&got[..], &want[..want.len() - 1]);
        prop_assert_eq!(dec.buffered(), cut - (bytes.len() - last_len));
        got.extend(dec.feed(&bytes[cut..]));
        prop_assert_eq!(got, want);
        prop_assert_eq!((dec.buffered(), dec.skipped_bytes, dec.corrupted_frames), (0, 0, 0));
    }

    /// Garbage before, between and inside frames: what the decoder
    /// emits, holds back, skips and counts depends on the byte stream
    /// alone, never on how the socket happened to chunk it — whether a
    /// frame was parsed in the caller's slice or in the buffer.
    #[test]
    fn stream_decoder_counters_do_not_depend_on_chunking(
        frames in arb_frames(),
        garbage in prop::collection::vec(any::<u8>(), 0..24),
        flip in any::<usize>(),
        cut_back in 0usize..12,
        sizes in prop::collection::vec(1usize..600, 1..8),
    ) {
        let mut bytes = garbage.clone();
        for f in &frames {
            f.encode(&mut bytes);
            bytes.extend_from_slice(&garbage);
        }
        let at = flip % bytes.len();
        bytes[at] ^= 0x10;
        bytes.truncate(bytes.len() - cut_back.min(bytes.len()));
        let run = |sizes: &[usize]| {
            let mut dec = StreamDecoder::new(4096);
            let got = feed_in_chunks(&mut dec, &bytes, sizes);
            (got, dec.buffered(), dec.skipped_bytes, dec.corrupted_frames)
        };
        let one_feed = run(&[bytes.len()]);
        prop_assert_eq!(&run(&sizes), &one_feed);
        prop_assert_eq!(&run(&[1]), &one_feed);
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

// ------------------------------------------------------------------------
// Sp decode through the decoder's pattern table, and the bounds on what
// an sp may make the decoder allocate.

/// The wire form of an sp, written by hand so a test can put bytes on
/// the wire that [`SecurityPunctuation::encode`] never would.
fn raw_sp(ts: u64, ddp: [&str; 3], roles: &[u32]) -> Vec<u8> {
    let mut b = ts.to_be_bytes().to_vec();
    b.extend_from_slice(&[0, 0]); // positive + mutable, RBAC
    for src in ddp {
        b.extend_from_slice(&(src.len() as u16).to_be_bytes());
        b.extend_from_slice(src.as_bytes());
    }
    b.push(0); // explicit roles
    b.extend_from_slice(&(roles.len() as u16).to_be_bytes());
    for r in roles {
        b.extend_from_slice(&r.to_be_bytes());
    }
    b
}

/// A checksummed data frame for stream `stream` holding one sp.
fn frame_of_raw_sp(stream: u32, sp: &[u8]) -> Vec<u8> {
    let mut body = stream.to_be_bytes().to_vec();
    body.extend_from_slice(&1u32.to_be_bytes());
    body.push(1); // sp tag
    body.extend_from_slice(sp);
    let mut bytes = vec![sp_core::wire::MAGIC];
    bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&sp_core::wire::crc32(&body).to_be_bytes());
    bytes.extend_from_slice(&body);
    bytes
}

/// Pattern sources over a space far wider than the table: numeric
/// ranges, literals, alternations and VM shapes.
fn arb_pattern_source() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("*".to_owned()),
        (0u64..300, 0u64..40).prop_map(|(lo, w)| format!("<{lo}-{}>", lo + w)),
        (0u32..200).prop_map(|n| format!("{n}")),
        (0u32..50, 0u32..50).prop_map(|(a, b)| format!("s{a}|s{b}")),
        (0u32..50).prop_map(|n| format!("{n}[0-9]+")),
    ]
}

/// Sources the pattern compiler refuses.
const INVALID_PATTERNS: [&str; 3] = ["<5-", "(ab", "a{3,1}"];

/// One sp on the wire: three pattern sources, or `None` for an sp whose
/// tuple pattern is the given invalid source.
fn arb_wire_sp() -> impl Strategy<Value = ([String; 3], Option<usize>)> {
    (
        arb_pattern_source(),
        arb_pattern_source(),
        arb_pattern_source(),
        prop_oneof![Just(None), Just(None), Just(None), (0usize..3).prop_map(Some)],
    )
        .prop_map(|(s, t, a, invalid)| ([s, t, a], invalid))
}

const PROBE_IDS: [u64; 8] = [0, 1, 7, 42, 120, 133, 299, 10_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A long sequence of sps with more distinct patterns than the
    /// table holds (so it is cleared mid-stream) decodes through one
    /// long-lived decoder to exactly what a fresh decoder makes of each
    /// frame alone; an sp with an invalid pattern is refused on every
    /// occurrence, never remembered as valid or poisoning a neighbour.
    #[test]
    fn pattern_table_never_changes_what_an_sp_decodes_to(
        sps in prop::collection::vec(arb_wire_sp(), 100..160),
        sizes in prop::collection::vec(1usize..300, 1..6),
    ) {
        let frames: Vec<(Vec<u8>, bool)> = sps
            .iter()
            .enumerate()
            .map(|(i, (srcs, invalid))| {
                let tuple = invalid.map_or(srcs[1].as_str(), |k| INVALID_PATTERNS[k]);
                let sp = raw_sp(i as u64, [&srcs[0], tuple, &srcs[2]], &[1, 2]);
                (frame_of_raw_sp(i as u32, &sp), invalid.is_none())
            })
            .collect();
        let distinct: std::collections::BTreeSet<&String> =
            sps.iter().flat_map(|(srcs, _)| srcs).collect();
        prop_assert!(distinct.len() > PatternTable::CAPACITY, "the table must overflow");

        // Each frame alone, through a decoder that has seen nothing.
        let mut want = Vec::new();
        for (bytes, valid) in &frames {
            let alone = StreamDecoder::new(4096).feed(bytes);
            prop_assert_eq!(alone.len(), usize::from(*valid));
            want.extend(alone);
        }
        // All of them through one decoder. Padding completes any fake
        // frame a refused one's bytes may start (see the resync cases).
        let mut stream: Vec<u8> = frames.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        stream.extend(std::iter::repeat_n(0u8, 4096 + 16));
        let mut dec = StreamDecoder::new(4096);
        let got = feed_in_chunks(&mut dec, &stream, &sizes);
        let refused = frames.iter().filter(|(_, valid)| !valid).count() as u64;
        prop_assert!(dec.corrupted_frames >= refused);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w);
            let (WireFrame::Message(g), WireFrame::Message(w)) = (g, w) else {
                prop_assert!(false, "only data frames were sent");
                continue;
            };
            let (StreamElement::Punctuation(g), StreamElement::Punctuation(w)) =
                (&g.elements[0], &w.elements[0])
            else {
                prop_assert!(false, "every frame holds one sp");
                continue;
            };
            // `==` compares pattern sources; the compiled matchers must
            // agree too.
            prop_assert_eq!(g.to_string(), w.to_string());
            for id in PROBE_IDS {
                prop_assert_eq!(g.ddp.tuple.matches_u64(id), w.ddp.tuple.matches_u64(id));
                prop_assert_eq!(g.ddp.stream.matches_u64(id), w.ddp.stream.matches_u64(id));
                prop_assert_eq!(g.ddp.attrs.matches_u64(id), w.ddp.attrs.matches_u64(id));
            }
        }
    }

    /// An sp naming a role id above the ceiling is a malformed body: the
    /// decoder drops that frame, counts it, and recovers the next one.
    #[test]
    fn oversized_role_id_costs_its_frame_only(
        id in MAX_WIRE_ROLE_ID + 1..=u32::MAX,
        good in arb_frames(),
        sizes in prop::collection::vec(1usize..24, 1..8),
    ) {
        let mut bytes = frame_of_raw_sp(9, &raw_sp(1, ["*", "*", "*"], &[3, id]));
        bytes.extend(encode_all(&good));
        bytes.extend(std::iter::repeat_n(0u8, 4096 + 16));
        let mut dec = StreamDecoder::new(4096);
        let got = feed_in_chunks(&mut dec, &bytes, &sizes);
        let want: Vec<WireFrame> = good.iter().cloned().map(WireFrame::Message).collect();
        prop_assert_eq!(got, want);
        prop_assert!(dec.corrupted_frames >= 1);
    }
}

/// A fixed hostile byte stream: garbage (with fake magics and lying
/// lengths) before, between and inside frames, one frame corrupted in
/// its body, and a final frame cut short.
fn hostile_stream() -> Vec<u8> {
    let tuple = |tid: u64| {
        StreamElement::tuple(Tuple::new(
            StreamId(1),
            TupleId(tid),
            Timestamp(tid * 10),
            vec![Value::Int(tid as i64), Value::Float(0.5)],
        ))
    };
    let sp = |ts: u64| {
        StreamElement::punctuation(SecurityPunctuation::grant_all(
            [1u32, 5, 9].into_iter().map(RoleId).collect::<RoleSet>(),
            Timestamp(ts),
        ))
    };
    let frame = |id: u32| Message::new(StreamId(id), vec![sp(u64::from(id)), tuple(1), tuple(2)]);
    // Before: plain noise, then a data magic claiming a 4 GiB body.
    let mut bytes = vec![0xDE, 0xAD, 0x00, 0xA5, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02];
    frame(1).encode(&mut bytes);
    // Between: a control magic with a plausible length and a body that
    // fails its checksum, then a cipher magic torn after two bytes.
    bytes.extend_from_slice(&[0x5A, 0, 0, 0, 4, 9, 9, 9, 9, 1, 2, 3, 4, 0xC3, 0x00]);
    // Inside: the second frame has one body byte flipped.
    let at = bytes.len() + 9 + 11;
    frame(2).encode(&mut bytes);
    bytes[at] ^= 0x20;
    Control::Ack { pos: 77 }.encode(&mut bytes);
    frame(3).encode(&mut bytes);
    frame(4).encode(&mut bytes);
    // The fourth frame is cut five bytes short of its end.
    bytes.truncate(bytes.len() - 5);
    bytes
}

/// The counters of the decoder before it parsed frames in place, recorded
/// on [`hostile_stream`] — identical under every chunking there too.
#[test]
fn hostile_stream_counters_match_the_recorded_values() {
    let bytes = hostile_stream();
    for size in [bytes.len(), 1, 7, 64, 200] {
        let mut dec = StreamDecoder::new(1 << 16);
        let got: Vec<WireFrame> = bytes.chunks(size).flat_map(|c| dec.feed(c)).collect();
        let ids: Vec<Option<u32>> = got
            .iter()
            .map(|f| match f {
                WireFrame::Message(m) => Some(m.stream.raw()),
                WireFrame::Control(_) | WireFrame::Cipher(_) => None,
            })
            .collect();
        assert_eq!(ids, [Some(1), None, Some(3)], "chunks of {size}");
        assert_eq!(got[1], WireFrame::Control(Control::Ack { pos: 77 }));
        assert_eq!(
            (dec.buffered(), dec.skipped_bytes, dec.corrupted_frames),
            (129, 159, 4),
            "chunks of {size}"
        );
    }
}
