//! Typed values and their order-preserving byte encoding.
//!
//! Index keys in the engine are raw byte strings compared with `memcmp`
//! (that is what the B+-tree and LSM layers sort by). To support typed keys —
//! and in particular the paper's composite secondary-index keys
//! `(secondary key, primary key)` — every [`Value`] has a *memcomparable*
//! encoding: for any two values `a`, `b` of the same type,
//! `a < b  ⇔  encode(a) < encode(b)` bytewise, and no encoding is a strict
//! prefix of another encoding of the same type, so concatenated (composite)
//! encodings also compare correctly.
//!
//! Encodings:
//! * `Int(i64)`   → tag `0x01` + 8 bytes big-endian with the sign bit flipped;
//! * `Str(String)`→ tag `0x02` + bytes with `0x00` escaped as `0x00 0xFF`,
//!   terminated by `0x00 0x00` (the standard escape/terminator scheme);
//! * `Null`       → tag `0x00` (sorts before everything).
//!
//! The string codec works one run at a time: it finds the next `0x00` with
//! a word-at-a-time scan (eight bytes per step, in safe Rust) and copies the
//! whole run before it with `extend_from_slice`, so a string with no `0x00`
//! is a single copy. Every buffer is sized once: encoders reserve
//! [`Value::encoded_len`], a decoded string is allocated at its final
//! length, and [`decode_composite`] allocates its `Vec` at its exact size.

use crate::error::{Error, Result};
use std::fmt;

/// A typed value stored in a record or used as an index key part.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent value; sorts before all other values.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

const TAG_NULL: u8 = 0x00;
const TAG_INT: u8 = 0x01;
const TAG_STR: u8 = 0x02;

impl Value {
    /// Appends the memcomparable encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Int(i) => {
                out.push(TAG_INT);
                // Flip the sign bit so that negative numbers sort first.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                let mut rest = s.as_bytes();
                while let Some(nul) = find_nul(rest) {
                    out.extend_from_slice(&rest[..nul]);
                    out.extend_from_slice(&[0x00, 0xFF]);
                    rest = &rest[nul + 1..];
                }
                out.extend_from_slice(rest);
                out.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }

    /// Returns the memcomparable encoding of `self`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Exact length of the encoding produced by [`Value::encode_into`].
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Str(s) => {
                let mut escapes = 0;
                let mut rest = s.as_bytes();
                while let Some(nul) = find_nul(rest) {
                    escapes += 1;
                    rest = &rest[nul + 1..];
                }
                1 + s.len() + escapes + 2
            }
        }
    }

    /// Decodes one value from the front of `buf`, returning it and the number
    /// of bytes consumed.
    pub fn decode_from(buf: &[u8]) -> Result<(Value, usize)> {
        let Extent { len, escapes } = extent(buf)?;
        let value = match buf[0] {
            TAG_NULL => Value::Null,
            TAG_INT => {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&buf[1..9]);
                Value::Int((u64::from_be_bytes(raw) ^ (1 << 63)) as i64)
            }
            // `extent` rejected every other tag, so this is a string.
            _ => {
                let escaped = &buf[1..len - 2];
                let bytes = if escapes == 0 {
                    escaped.to_vec()
                } else {
                    unescape(escaped, escapes)
                };
                Value::Str(String::from_utf8(bytes).map_err(|_| invalid_utf8())?)
            }
        };
        Ok((value, len))
    }

    /// Length of the value encoded at the front of `buf`, which is checked
    /// exactly as [`Value::decode_from`] checks it; a string without
    /// escapes is checked in place rather than copied.
    pub fn skip(buf: &[u8]) -> Result<usize> {
        let Extent { len, escapes } = extent(buf)?;
        if buf[0] == TAG_STR {
            if escapes == 0 {
                std::str::from_utf8(&buf[1..len - 2]).map_err(|_| invalid_utf8())?;
            } else {
                Value::decode_from(buf)?;
            }
        }
        Ok(len)
    }

    /// Decodes a value that must occupy the whole buffer.
    pub fn decode_exact(buf: &[u8]) -> Result<Value> {
        let (v, n) = Value::decode_from(buf)?;
        if n != buf.len() {
            return Err(Error::corruption("trailing bytes after value"));
        }
        Ok(v)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Where the value encoded at the front of a buffer ends, and for a
/// string how many `0x00` bytes it escapes.
struct Extent {
    len: usize,
    escapes: usize,
}

/// Finds the end of the value at the front of `buf` without decoding it,
/// rejecting an empty buffer, an unknown tag, a short int, an unterminated
/// string and a bad escape. UTF-8 is left to the caller.
fn extent(buf: &[u8]) -> Result<Extent> {
    let tag = *buf
        .first()
        .ok_or_else(|| Error::corruption("empty value"))?;
    match tag {
        TAG_NULL => Ok(Extent { len: 1, escapes: 0 }),
        TAG_INT if buf.len() < 9 => Err(Error::corruption("short int encoding")),
        TAG_INT => Ok(Extent { len: 9, escapes: 0 }),
        TAG_STR => {
            let mut escapes = 0;
            let mut pos = 1;
            loop {
                let nul = find_nul(&buf[pos..])
                    .ok_or_else(|| Error::corruption("unterminated string"))?;
                match buf.get(pos + nul + 1) {
                    Some(0x00) => {
                        return Ok(Extent {
                            len: pos + nul + 2,
                            escapes,
                        })
                    }
                    Some(0xFF) => {
                        escapes += 1;
                        pos += nul + 2;
                    }
                    _ => return Err(Error::corruption("bad string escape")),
                }
            }
        }
        t => Err(Error::corruption(format!("unknown value tag {t:#x}"))),
    }
}

/// Undoes the `0x00 0xFF` escapes of a string body that [`extent`] has
/// checked, copying each run between escapes whole into one buffer of the
/// final size.
fn unescape(mut escaped: &[u8], escapes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(escaped.len() - escapes);
    while let Some(nul) = find_nul(escaped) {
        out.extend_from_slice(&escaped[..=nul]);
        escaped = &escaped[nul + 2..];
    }
    out.extend_from_slice(escaped);
    out
}

fn invalid_utf8() -> Error {
    Error::corruption("invalid utf8")
}

/// Position of the first `0x00` in `bytes`, testing eight bytes per step.
///
/// For a little-endian word `w`, `(w - 0x0101..01) & !w & 0x8080..80` sets
/// the top bit of every zero byte. A borrow can also set it in a byte
/// above a zero byte, but never below the first one, so the lowest set bit
/// marks the first zero.
fn find_nul(bytes: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(word);
        let w = u64::from_le_bytes(raw);
        let zeros = w.wrapping_sub(LOW) & !w & HIGH;
        if zeros != 0 {
            return Some(i * 8 + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let tail = bytes.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == 0x00)
        .map(|i| tail + i)
}

/// Encodes a composite key from value parts (e.g. `(secondary, primary)`).
pub fn encode_composite(parts: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(Value::encoded_len).sum());
    for p in parts {
        p.encode_into(&mut out);
    }
    out
}

/// Decodes all value parts of a composite key.
pub fn decode_composite(buf: &[u8]) -> Result<Vec<Value>> {
    // Keys and records have a few parts: decode up to `HEAD` of them onto
    // the stack in one pass. Only a wider composite is scanned for its part
    // count. Either way the `Vec` is allocated once, at its exact size.
    const HEAD: usize = 8;
    let mut head = [const { Value::Null }; HEAD];
    let mut n = 0;
    let mut rest = buf;
    while n < HEAD && !rest.is_empty() {
        let used;
        (head[n], used) = Value::decode_from(rest)?;
        n += 1;
        rest = &rest[used..];
    }
    let mut more = 0;
    let mut pos = 0;
    while pos < rest.len() {
        pos += extent(&rest[pos..])?.len;
        more += 1;
    }
    let mut parts = Vec::with_capacity(n + more);
    for v in &mut head[..n] {
        parts.push(std::mem::replace(v, Value::Null));
    }
    while !rest.is_empty() {
        let (v, used) = Value::decode_from(rest)?;
        parts.push(v);
        rest = &rest[used..];
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let enc = v.encode();
        assert_eq!(enc.len(), v.encoded_len());
        assert_eq!(Value::decode_exact(&enc).unwrap(), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Int(-1));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::Str("hello".into()));
        roundtrip(Value::Str("with\0nul\0bytes".into()));
    }

    #[test]
    fn int_encoding_preserves_order() {
        let vals = [i64::MIN, -1_000_000, -1, 0, 1, 42, 1_000_000, i64::MAX];
        for w in vals.windows(2) {
            assert!(Value::Int(w[0]).encode() < Value::Int(w[1]).encode());
        }
    }

    #[test]
    fn str_encoding_preserves_order() {
        let vals = ["", "a", "a\0", "a\0b", "aa", "ab", "b"];
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                let (a, b) = (Value::Str(vals[i].into()), Value::Str(vals[j].into()));
                assert_eq!(a.encode().cmp(&b.encode()), vals[i].cmp(vals[j]), "{i} {j}");
            }
        }
    }

    #[test]
    fn composite_keys_compare_lexicographically() {
        // (a, 2) < (b, 1) even though 2 > 1.
        let k1 = encode_composite(&[Value::Str("a".into()), Value::Int(2)]);
        let k2 = encode_composite(&[Value::Str("b".into()), Value::Int(1)]);
        assert!(k1 < k2);
        // Same first part: falls through to the second part.
        let k3 = encode_composite(&[Value::Str("a".into()), Value::Int(3)]);
        assert!(k1 < k3);
    }

    #[test]
    fn composite_roundtrip() {
        let parts = vec![Value::Int(7), Value::Str("x\0y".into()), Value::Null];
        let enc = encode_composite(&parts);
        assert_eq!(decode_composite(&enc).unwrap(), parts);
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null.encode() < Value::Int(i64::MIN).encode());
        assert!(Value::Int(i64::MAX).encode() < Value::Str(String::new()).encode());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Value::decode_exact(&[]).is_err());
        assert!(Value::decode_exact(&[0xEE]).is_err());
        assert!(Value::decode_exact(&[TAG_INT, 1, 2]).is_err());
        assert!(Value::decode_exact(&[TAG_STR, b'a']).is_err());
        // Trailing bytes.
        let mut enc = Value::Int(1).encode();
        enc.push(0);
        assert!(Value::decode_exact(&enc).is_err());
    }
}
