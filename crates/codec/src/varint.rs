//! LEB128 variable-length integers with zigzag encoding for signed values.

use crate::error::{Error, Result};

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    // Assemble on the stack and append once, not one push per byte.
    let mut buf = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        buf[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    buf[n] = v as u8;
    out.extend_from_slice(&buf[..=n]);
}

/// Appends `v` zigzag-encoded so small-magnitude negatives stay short.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Encoded length of `v` as an LEB128 varint, without writing anything
/// (the size-hint half of [`write_u64`]).
pub fn len_u64(v: u64) -> usize {
    // 7 significant bits per byte; zero still takes one byte.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Encoded length of `v` as a zigzag varint.
pub fn len_i64(v: i64) -> usize {
    len_u64(zigzag(v))
}

/// Maps signed to unsigned preserving small magnitudes: 0,-1,1,-2 → 0,1,2,3.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads an LEB128 varint from the front of `input`, advancing it.
///
/// # Errors
///
/// [`Error::UnexpectedEof`] if input ends mid-varint;
/// [`Error::VarintOverflow`] if more than 64 bits are encoded.
pub fn read_u64(input: &mut &[u8]) -> Result<u64> {
    if let [b, rest @ ..] = *input {
        if *b < 0x80 {
            *input = rest;
            return Ok(u64::from(*b));
        }
    }
    if let Some(head) = input.first_chunk::<10>() {
        return read_u64_unrolled(input, head);
    }
    read_u64_slow(input)
}

/// [`read_u64`] when at least 10 bytes remain, so no byte needs an
/// end-of-input check: a fixed-trip loop the compiler unrolls. Advances
/// `input` and reports errors exactly as [`read_u64_slow`] would.
fn read_u64_unrolled(input: &mut &[u8], head: &[u8; 10]) -> Result<u64> {
    let mut result = 0u64;
    for (i, &byte) in head[..9].iter().enumerate() {
        result |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            *input = &input[i + 1..];
            return Ok(result);
        }
    }
    *input = &input[10..];
    match head[9] {
        last @ 0..=1 => Ok(result | u64::from(last) << 63),
        _ => Err(Error::VarintOverflow),
    }
}

/// The byte-at-a-time reader, for varints that may run into the end of
/// the input.
fn read_u64_slow(input: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(Error::UnexpectedEof)?;
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err(Error::VarintOverflow);
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::VarintOverflow);
        }
    }
}

/// Reads a zigzag-encoded signed varint.
///
/// # Errors
///
/// Same as [`read_u64`].
pub fn read_i64(input: &mut &[u8]) -> Result<i64> {
    read_u64(input).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut s = buf.as_slice();
        let got = read_u64(&mut s).expect("roundtrip");
        assert!(s.is_empty(), "leftover bytes");
        got
    }

    #[test]
    fn u64_roundtrip_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip_u(v), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn len_matches_write_exactly() {
        let edges = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in edges {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), buf.len(), "len_u64({v})");
        }
        for v in [0i64, -1, 1, 63, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(len_i64(v), buf.len(), "len_i64({v})");
        }
    }

    #[test]
    fn zigzag_pairs() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for v in [-5i64, 0, 5, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_i64(&mut s).expect("roundtrip"), v);
        }
    }

    #[test]
    fn write_matches_a_byte_at_a_time_reference() {
        fn reference(out: &mut Vec<u8>, mut v: u64) {
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    out.push(byte);
                    return;
                }
                out.push(byte | 0x80);
            }
        }
        for bit in 0..64 {
            for v in [
                1u64 << bit,
                (1u64 << bit) - 1,
                (1u64 << bit) | 0x55,
                u64::MAX >> bit,
            ] {
                let (mut got, mut want) = (vec![9], vec![9]);
                write_u64(&mut got, v);
                reference(&mut want, v);
                assert_eq!(got, want, "write_u64({v:#x})");
            }
        }
    }

    #[test]
    fn unrolled_and_slow_readers_agree() {
        // Every prefix of varints padded past ten bytes, including the
        // ten-byte maximum and an overflowing tenth byte.
        let cases: [&[u8]; 5] = [
            &[0x80, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            &[0xff; 11],
        ];
        for case in cases {
            let mut padded = case.to_vec();
            padded.extend_from_slice(&[0x33; 10]);
            let (mut fast, mut slow) = (padded.as_slice(), padded.as_slice());
            assert_eq!(read_u64(&mut fast), read_u64_slow(&mut slow), "{case:?}");
            assert_eq!(fast, slow, "remaining after {case:?}");
        }
    }

    #[test]
    fn eof_mid_varint_errors() {
        let mut s: &[u8] = &[0x80];
        assert_eq!(read_u64(&mut s), Err(Error::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_errors() {
        // 11 continuation bytes cannot fit in 64 bits.
        let bytes = [0xffu8; 11];
        let mut s = bytes.as_slice();
        assert_eq!(read_u64(&mut s), Err(Error::VarintOverflow));
    }
}
