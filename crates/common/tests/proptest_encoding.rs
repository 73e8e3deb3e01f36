//! Property tests: the memcomparable encoding is order-preserving and
//! round-trips, including in composite keys, and the run-at-a-time codec
//! agrees with a byte-at-a-time reference on valid and damaged input.

use lsm_common::value::{decode_composite, encode_composite};
use lsm_common::{Record, Value};
use proptest::prelude::*;

/// The byte-at-a-time codec the run-at-a-time one must match exactly.
mod oracle {
    use lsm_common::Value;

    pub fn encode_into(v: &Value, out: &mut Vec<u8>) {
        match v {
            Value::Null => out.push(0x00),
            Value::Int(i) => {
                out.push(0x01);
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(0x02);
                for &b in s.as_bytes() {
                    if b == 0x00 {
                        out.extend_from_slice(&[0x00, 0xFF]);
                    } else {
                        out.push(b);
                    }
                }
                out.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }

    pub fn decode_from(buf: &[u8]) -> Option<(Value, usize)> {
        match *buf.first()? {
            0x00 => Some((Value::Null, 1)),
            0x01 => {
                let raw: [u8; 8] = buf.get(1..9)?.try_into().ok()?;
                Some((Value::Int((u64::from_be_bytes(raw) ^ (1 << 63)) as i64), 9))
            }
            0x02 => {
                let mut bytes = Vec::new();
                let mut i = 1;
                loop {
                    match *buf.get(i)? {
                        0x00 => match *buf.get(i + 1)? {
                            0x00 => {
                                return Some((Value::Str(String::from_utf8(bytes).ok()?), i + 2))
                            }
                            0xFF => {
                                bytes.push(0x00);
                                i += 2;
                            }
                            _ => return None,
                        },
                        b => {
                            bytes.push(b);
                            i += 1;
                        }
                    }
                }
            }
            _ => None,
        }
    }

    pub fn decode_composite(mut buf: &[u8]) -> Option<Vec<Value>> {
        let mut parts = Vec::new();
        while !buf.is_empty() {
            let (v, n) = decode_from(buf)?;
            parts.push(v);
            buf = &buf[n..];
        }
        Some(parts)
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        ".{0,24}".prop_map(Value::Str),
        // Strings with embedded NULs exercise the escaping.
        proptest::collection::vec(prop_oneof![Just(0u8), 1..=255u8], 0..16)
            .prop_map(|b| Value::Str(String::from_utf8_lossy(&b).into_owned())),
        arb_long_str().prop_map(Value::Str),
    ]
}

/// Strings of 0–600 bytes, mostly ASCII with some multi-byte chars, with
/// `0x00` inserted at random byte offsets. Half the offsets sit on or next
/// to an 8-byte word edge, where the word-at-a-time scan changes step.
fn arb_long_str() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        8 => (0x20u8..0x7F).prop_map(char::from),
        1 => (0x80u8..=0xFF).prop_map(char::from),
        1 => Just('€'),
        1 => Just('😀'),
    ];
    let offset = prop_oneof![
        3 => 0usize..=600,
        1 => (0usize..=75).prop_map(|w| w * 8),
        1 => (1usize..=75).prop_map(|w| w * 8 - 1),
        1 => (0usize..=75).prop_map(|w| w * 8 + 1),
    ];
    (
        proptest::collection::vec(ch, 0..601),
        proptest::collection::vec(offset, 0..8),
    )
        .prop_map(|(chars, nuls)| {
            let mut s: String = chars.into_iter().collect();
            let mut cut = s.len().min(600 - nuls.len());
            while !s.is_char_boundary(cut) {
                cut -= 1;
            }
            s.truncate(cut);
            for off in nuls {
                let mut at = off.min(s.len());
                while !s.is_char_boundary(at) {
                    at -= 1;
                }
                s.insert(at, '\0');
            }
            s
        })
}

/// The codec and the oracle accept and reject the same buffers, and
/// decode the same values from the ones they accept.
fn agrees_with_oracle(buf: &[u8]) -> Result<(), String> {
    let want = oracle::decode_from(buf);
    prop_assert_eq!(Value::decode_from(buf).ok(), want.clone(), "{:?}", buf);
    prop_assert_eq!(Value::skip(buf).ok(), want.as_ref().map(|&(_, n)| n));
    let exact = want.filter(|&(_, n)| n == buf.len()).map(|(v, _)| v);
    prop_assert_eq!(Value::decode_exact(buf).ok(), exact);
    prop_assert_eq!(decode_composite(buf).ok(), oracle::decode_composite(buf));
    Ok(())
}

proptest! {
    #[test]
    fn roundtrip(v in arb_value()) {
        let enc = v.encode();
        prop_assert_eq!(enc.len(), v.encoded_len());
        prop_assert_eq!(Value::decode_exact(&enc).unwrap(), v);
    }

    #[test]
    fn order_preserved(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.encode().cmp(&b.encode()), a.cmp(&b));
    }

    #[test]
    fn composite_roundtrip(parts in proptest::collection::vec(arb_value(), 0..12)) {
        let enc = encode_composite(&parts);
        prop_assert_eq!(decode_composite(&enc).unwrap(), parts);
    }

    #[test]
    fn composite_order_preserved(
        a in proptest::collection::vec(arb_value(), 1..3),
        b in proptest::collection::vec(arb_value(), 1..3),
    ) {
        // Lexicographic on parts ⇔ bytewise on encodings, when no vector is
        // a strict prefix of the other (prefix pairs compare by length).
        if a.len() == b.len() {
            prop_assert_eq!(encode_composite(&a).cmp(&encode_composite(&b)), a.cmp(&b));
        }
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Value::decode_exact(&bytes); // must return Err, not panic
        let _ = decode_composite(&bytes);
    }

    #[test]
    fn encoder_matches_oracle(parts in proptest::collection::vec(arb_value(), 0..4)) {
        let mut want = Vec::new();
        for p in &parts {
            let mut one = Vec::new();
            oracle::encode_into(p, &mut one);
            prop_assert_eq!(p.encode(), one.clone());
            prop_assert_eq!(p.encoded_len(), one.len());
            want.extend_from_slice(&one);
        }
        let record = Record::new(parts).encode();
        prop_assert_eq!(record.capacity(), record.len());
        prop_assert_eq!(record, want);
    }

    #[test]
    fn decoder_matches_oracle(parts in proptest::collection::vec(arb_value(), 1..12)) {
        let enc = encode_composite(&parts);
        agrees_with_oracle(&enc)?;
        prop_assert_eq!(Record::decode(&enc).unwrap().values, parts);
    }
}

proptest! {
    // Each case decodes every damaged copy of its encoding, so it runs
    // fewer cases than the tests above.
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every truncation and every single-byte change of a valid encoding is
    // either rejected or decodes to what the oracle decodes.
    #[test]
    fn damaged_input_matches_oracle(
        parts in proptest::collection::vec(arb_value(), 1..12),
        noise in any::<u8>(),
    ) {
        let enc = encode_composite(&parts);
        for cut in 0..enc.len() {
            agrees_with_oracle(&enc[..cut])?;
        }
        let mut damaged = enc.clone();
        for at in 0..enc.len() {
            for byte in [0x00, 0xFF, noise, enc[at] ^ 0x80] {
                damaged[at] = byte;
                agrees_with_oracle(&damaged)?;
            }
            damaged[at] = enc[at];
        }
    }
}
