//! E2AP-style binary codec: tagged, length-delimited frames.
//!
//! E2 carries the near-RT RIC ⇄ O-eNB traffic: subscriptions, KPI
//! indications and control requests. Real E2AP is ASN.1; we keep the
//! protocol shape (message classes, RAN-function ids, subscription →
//! indication flow) over a compact hand-rolled binary encoding built on
//! [`bytes`], with incremental length-delimited framing — the canonical
//! pattern for stream transports.
//!
//! Frame layout: `u32 big-endian payload length | u8 tag | payload`.

use crate::OranError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// RAN function id for the KPI-monitoring service model.
pub const RAN_FUNC_KPI: u16 = 2;
/// RAN function id for the radio-control service model.
pub const RAN_FUNC_CONTROL: u16 = 3;

/// A vBS KPI sample carried in an E2 indication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KpiReport {
    /// Milliseconds since experiment start.
    pub t_ms: u64,
    /// BS (BBU) power in milliwatts.
    pub bs_power_mw: u64,
    /// Realized slice duty cycle in 1/1000 units.
    pub duty_milli: u16,
    /// Mean MCS in use, times 100.
    pub mean_mcs_centi: u16,
}

/// E2 messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum E2Message {
    /// RIC → node: subscribe to periodic KPI indications.
    SubscriptionRequest { ran_function: u16, report_period_ms: u32 },
    /// Node → RIC: subscription accepted.
    SubscriptionResponse { ran_function: u16 },
    /// Node → RIC: periodic KPI indication.
    Indication(KpiReport),
    /// RIC → node: enforce radio policies (airtime in 1/1000, MCS cap).
    ControlRequest { airtime_milli: u16, max_mcs: u8 },
    /// Node → RIC: control acknowledged.
    ControlAck,
}

/// Message tags on the wire (crate-visible so the chaos layer can
/// classify frames it is about to fault without consuming them).
pub(crate) mod tag {
    pub const SUB_REQ: u8 = 1;
    pub const SUB_RESP: u8 = 2;
    pub const INDICATION: u8 = 3;
    pub const CONTROL_REQ: u8 = 4;
    pub const CONTROL_ACK: u8 = 5;
}

/// Stateless encoder/decoder with incremental framing.
#[derive(Debug, Default, Clone)]
pub struct E2Codec;

impl E2Codec {
    /// Encodes one message, appending a complete frame to `dst`.
    pub fn encode(msg: &E2Message, dst: &mut BytesMut) {
        let mut body = BytesMut::with_capacity(32);
        match msg {
            E2Message::SubscriptionRequest { ran_function, report_period_ms } => {
                body.put_u8(tag::SUB_REQ);
                body.put_u16(*ran_function);
                body.put_u32(*report_period_ms);
            }
            E2Message::SubscriptionResponse { ran_function } => {
                body.put_u8(tag::SUB_RESP);
                body.put_u16(*ran_function);
            }
            E2Message::Indication(k) => {
                body.put_u8(tag::INDICATION);
                body.put_u64(k.t_ms);
                body.put_u64(k.bs_power_mw);
                body.put_u16(k.duty_milli);
                body.put_u16(k.mean_mcs_centi);
            }
            E2Message::ControlRequest { airtime_milli, max_mcs } => {
                body.put_u8(tag::CONTROL_REQ);
                body.put_u16(*airtime_milli);
                body.put_u8(*max_mcs);
            }
            E2Message::ControlAck => {
                body.put_u8(tag::CONTROL_ACK);
            }
        }
        dst.put_u32(body.len() as u32);
        dst.extend_from_slice(&body);
    }

    /// Encodes to a standalone buffer.
    pub fn encode_to_bytes(msg: &E2Message) -> Bytes {
        let mut b = BytesMut::new();
        Self::encode(msg, &mut b);
        b.freeze()
    }

    /// Peeks the message tag of a standalone frame (as produced by
    /// [`E2Codec::encode_to_bytes`]) without consuming it. `None` when
    /// the buffer is too short to carry a tag. Used by the chaos layer to
    /// classify frames it is about to drop, delay or corrupt.
    pub fn peek_tag(frame: &[u8]) -> Option<u8> {
        frame.get(4).copied()
    }

    /// Attempts to decode one complete frame from `src`.
    ///
    /// Returns `Ok(None)` when more bytes are needed (the incremental
    /// contract: partial frames stay buffered).
    ///
    /// # Errors
    /// [`OranError::Framing`] when the declared length exceeds
    /// [`crate::transport::MAX_FRAME_LEN`] (such a frame could never
    /// complete — no real E2 message comes close); [`OranError::Codec`]
    /// on unknown tags or truncated payloads whose declared length is
    /// complete (a corrupt peer).
    pub fn decode(src: &mut BytesMut) -> Result<Option<E2Message>, OranError> {
        if src.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([src[0], src[1], src[2], src[3]]) as usize;
        if len > crate::transport::MAX_FRAME_LEN {
            return Err(OranError::Framing(format!(
                "declared E2 frame length {len} exceeds the {}-byte cap",
                crate::transport::MAX_FRAME_LEN
            )));
        }
        if src.len() < 4 + len {
            return Ok(None);
        }
        src.advance(4);
        let mut body = src.split_to(len);
        let need = |body: &BytesMut, n: usize| -> Result<(), OranError> {
            if body.len() < n {
                Err(OranError::Codec(format!("truncated body: need {n}, have {}", body.len())))
            } else {
                Ok(())
            }
        };
        need(&body, 1)?;
        let t = body.get_u8();
        let msg = match t {
            tag::SUB_REQ => {
                need(&body, 6)?;
                E2Message::SubscriptionRequest {
                    ran_function: body.get_u16(),
                    report_period_ms: body.get_u32(),
                }
            }
            tag::SUB_RESP => {
                need(&body, 2)?;
                E2Message::SubscriptionResponse { ran_function: body.get_u16() }
            }
            tag::INDICATION => {
                need(&body, 20)?;
                E2Message::Indication(KpiReport {
                    t_ms: body.get_u64(),
                    bs_power_mw: body.get_u64(),
                    duty_milli: body.get_u16(),
                    mean_mcs_centi: body.get_u16(),
                })
            }
            tag::CONTROL_REQ => {
                need(&body, 3)?;
                E2Message::ControlRequest { airtime_milli: body.get_u16(), max_mcs: body.get_u8() }
            }
            tag::CONTROL_ACK => E2Message::ControlAck,
            other => return Err(OranError::Codec(format!("unknown tag {other}"))),
        };
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<E2Message> {
        vec![
            E2Message::SubscriptionRequest { ran_function: RAN_FUNC_KPI, report_period_ms: 1000 },
            E2Message::SubscriptionResponse { ran_function: RAN_FUNC_KPI },
            E2Message::Indication(KpiReport {
                t_ms: 123_456,
                bs_power_mw: 5_250,
                duty_milli: 350,
                mean_mcs_centi: 2_150,
            }),
            E2Message::ControlRequest { airtime_milli: 500, max_mcs: 17 },
            E2Message::ControlAck,
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for m in all_messages() {
            let mut buf = BytesMut::new();
            E2Codec::encode(&m, &mut buf);
            let got = E2Codec::decode(&mut buf).unwrap().unwrap();
            assert_eq!(got, m);
            assert!(buf.is_empty(), "no residue after full decode");
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut buf = BytesMut::new();
        for m in all_messages() {
            E2Codec::encode(&m, &mut buf);
        }
        let mut out = Vec::new();
        while let Some(m) = E2Codec::decode(&mut buf).unwrap() {
            out.push(m);
        }
        assert_eq!(out, all_messages());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut full = BytesMut::new();
        E2Codec::encode(&E2Message::ControlAck, &mut full);
        // Feed byte by byte; only the last byte yields the message.
        let mut buf = BytesMut::new();
        for (i, b) in full.iter().enumerate() {
            buf.put_u8(*b);
            let r = E2Codec::decode(&mut buf).unwrap();
            if i + 1 < full.len() {
                assert!(r.is_none(), "premature decode at byte {i}");
            } else {
                assert_eq!(r, Some(E2Message::ControlAck));
            }
        }
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u8(0xFF);
        assert!(matches!(E2Codec::decode(&mut buf), Err(OranError::Codec(_))));
    }

    #[test]
    fn truncated_body_is_an_error() {
        // Declared length 2 but an indication needs 21 bytes of body.
        let mut buf = BytesMut::new();
        buf.put_u32(2);
        buf.put_u8(super::tag::INDICATION);
        buf.put_u8(0);
        assert!(matches!(E2Codec::decode(&mut buf), Err(OranError::Codec(_))));
    }

    #[test]
    fn oversized_declared_length_is_a_framing_error() {
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_u8(super::tag::SUB_REQ);
        assert!(matches!(E2Codec::decode(&mut buf), Err(OranError::Framing(_))));
    }

    #[test]
    fn decoder_resyncs_after_complete_frames() {
        // A good frame followed by a partial one: first decode succeeds,
        // second waits.
        let mut buf = BytesMut::new();
        E2Codec::encode(&E2Message::ControlAck, &mut buf);
        buf.put_u32(10); // declared length of an incomplete next frame
        buf.put_u8(super::tag::SUB_REQ);
        assert_eq!(E2Codec::decode(&mut buf).unwrap(), Some(E2Message::ControlAck));
        assert_eq!(E2Codec::decode(&mut buf).unwrap(), None);
    }

    /// No-panic, typed-error properties of the E2 decoder over untrusted
    /// bytes, fed whole and split at every point: each decode yields a
    /// message, `Ok(None)` for an incomplete frame, or a typed
    /// [`OranError::Codec`] / [`OranError::Framing`], and the outcome
    /// does not depend on how the bytes arrived.
    mod e2_decode_fuzz {
        use super::*;
        use proptest::prelude::*;

        /// What one decode call produced; errors by kind.
        #[derive(Debug, PartialEq)]
        enum Outcome {
            Message(E2Message),
            Codec,
            Framing,
        }

        /// Decodes until the buffer runs dry or an error stops the
        /// stream, checking that `Ok(None)` only ever means "incomplete".
        fn drain(buf: &mut BytesMut, out: &mut Vec<Outcome>) -> Result<bool, String> {
            loop {
                match E2Codec::decode(buf) {
                    Ok(Some(msg)) => out.push(Outcome::Message(msg)),
                    Ok(None) => {
                        let declared = buf
                            .get(..4)
                            .map(|h| u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize);
                        prop_assert!(
                            declared.is_none_or(|len| buf.len() < 4 + len),
                            "Ok(None) with a complete frame buffered: {:?}",
                            &buf[..]
                        );
                        return Ok(false);
                    }
                    Err(OranError::Codec(_)) => {
                        out.push(Outcome::Codec);
                        return Ok(true);
                    }
                    Err(OranError::Framing(_)) => {
                        out.push(Outcome::Framing);
                        return Ok(true);
                    }
                    Err(other) => return Err(format!("untyped {other:?} on {:?}", &buf[..])),
                }
            }
        }

        fn buffer(bytes: &[u8]) -> BytesMut {
            let mut buf = BytesMut::new();
            buf.extend_from_slice(bytes);
            buf
        }

        /// Feeds `bytes` whole, then split at every point, and requires
        /// the same outcomes every time.
        fn check(bytes: &[u8]) -> Result<(), String> {
            let mut whole = Vec::new();
            drain(&mut buffer(bytes), &mut whole)?;
            for cut in 0..=bytes.len() {
                let mut split = Vec::new();
                let mut buf = buffer(&bytes[..cut]);
                if !drain(&mut buf, &mut split)? {
                    buf.extend_from_slice(&bytes[cut..]);
                    drain(&mut buf, &mut split)?;
                }
                prop_assert_eq!(&split, &whole, "split at {} of {:?}", cut, bytes);
            }
            Ok(())
        }

        /// Frames with a plausible header: a length within a few bytes of
        /// the body's, a tag near the known range, an arbitrary body.
        fn framed() -> impl Strategy<Value = Vec<u8>> {
            let frame = (0u8..8, proptest::collection::vec(any::<u8>(), 0..24), 0usize..5)
                .prop_map(|(tag, body, skew)| {
                    let len = (body.len() + 1 + skew).saturating_sub(2) as u32;
                    let mut bytes = len.to_be_bytes().to_vec();
                    bytes.push(tag);
                    bytes.extend_from_slice(&body);
                    bytes
                });
            proptest::collection::vec(frame, 1..4).prop_map(|frames| frames.concat())
        }

        fn valid_stream() -> Vec<u8> {
            let mut buf = BytesMut::new();
            for m in all_messages() {
                E2Codec::encode(&m, &mut buf);
            }
            buf.to_vec()
        }

        #[test]
        fn the_valid_stream_decodes_at_every_split() {
            let want: Vec<Outcome> = all_messages().into_iter().map(Outcome::Message).collect();
            let mut got = Vec::new();
            drain(&mut buffer(&valid_stream()), &mut got).unwrap();
            assert_eq!(got, want);
            check(&valid_stream()).unwrap();
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                check(&bytes)?;
            }

            #[test]
            fn plausible_frames_never_panic(bytes in framed()) {
                check(&bytes)?;
            }

            #[test]
            fn mutated_streams_never_panic(
                edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..6),
            ) {
                let mut bytes = valid_stream();
                for (at, byte) in edits {
                    let i = ((bytes.len() - 1) as f64 * at) as usize;
                    bytes[i] = byte;
                }
                check(&bytes)?;
            }
        }
    }
}
