//! Differential properties for the bulk byte-array kernels: `Vec<u8>`
//! (and `[u8]`) must encode, size and decode exactly like the generic
//! one-element-at-a-time path, on valid input and on every malformed
//! input the per-element decoder distinguishes.
//!
//! The reference is `Vec<PerByte>`: a newtype over `u8` that delegates
//! each element to `u8`'s scalar `encode`/`encoded_len`/`decode` and
//! overrides none of the slice hooks, so it runs the default per-element
//! loops around the same length prefix.

use splitserve_codec::{Decode, Encode, Result};
use splitserve_rt::check::{self, Gen};

#[derive(Debug, Clone, Copy, PartialEq)]
struct PerByte(u8);

impl Encode for PerByte {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for PerByte {
    fn decode(input: &mut &[u8]) -> Result<PerByte> {
        u8::decode(input).map(PerByte)
    }
}

fn per_byte(v: &[u8]) -> Vec<PerByte> {
    v.iter().copied().map(PerByte).collect()
}

fn unwrap_per_byte(v: Vec<PerByte>) -> Vec<u8> {
    v.into_iter().map(|p| p.0).collect()
}

/// Bulk and per-element encoders agree on the bytes and on
/// `encoded_len`, for the owned vector, the borrowed slice and when
/// appending after existing output.
fn assert_same_encode(v: &[u8]) {
    let reference = per_byte(v);
    let mut want = Vec::new();
    reference.encode(&mut want);
    let mut got = Vec::new();
    v.to_vec().encode(&mut got);
    assert_eq!(got, want, "encode({v:?})");
    assert_eq!(v.encoded_len(), want.len(), "[u8]::encoded_len({v:?})");
    assert_eq!(v.to_vec().encoded_len(), reference.encoded_len());

    let mut appended = vec![0xaa, 0xbb];
    v.encode(&mut appended);
    assert_eq!(&appended[..2], &[0xaa, 0xbb]);
    assert_eq!(&appended[2..], &want[..], "appending encode({v:?})");
}

/// Bulk and per-element decoders return the same `Result` (values or the
/// exact error) and leave the same remaining input.
fn assert_same_decode(bytes: &[u8]) {
    let mut bulk_rest = bytes;
    let bulk: Result<Vec<u8>> = Decode::decode(&mut bulk_rest);
    let mut ref_rest = bytes;
    let reference: Result<Vec<PerByte>> = Decode::decode(&mut ref_rest);
    assert_eq!(bulk, reference.map(unwrap_per_byte), "decode({bytes:?})");
    assert_eq!(
        bulk_rest, ref_rest,
        "remaining input after decode({bytes:?})"
    );
}

fn write_varint(out: &mut Vec<u8>, v: u64) {
    v.encode(out);
}

/// One element's bytes in a randomly chosen form: canonical, the
/// non-canonical `0x80|b, 0x00`, a second byte above 1, an overlong
/// varint (which may still decode to a byte), or a varint too long for
/// 64 bits.
fn arb_element(g: &mut Gen, out: &mut Vec<u8>) {
    let b: u8 = g.rng().gen();
    match g.usize_in(0, 8) {
        0..=2 => b.encode(out),
        3 => out.extend_from_slice(&[b | 0x80, 0x00]),
        4 => out.extend_from_slice(&[b | 0x80, g.u64_in(2, 0x80) as u8]),
        5 => {
            // `extra` continuation bytes carrying zero bits: the value is
            // unchanged, the form is overlong.
            let extra = g.usize_in(1, 9);
            out.push(b | 0x80);
            out.extend(std::iter::repeat_n(0x80, extra));
            out.push(if g.bool() {
                0
            } else {
                g.rng().gen::<u8>() & 0x7f
            });
        }
        6 => out.extend_from_slice(&[0xff; 11]),
        _ => write_varint(out, g.u64()),
    }
}

#[test]
fn every_byte_value_matches_the_per_element_path() {
    let all: Vec<u8> = (0..=255).collect();
    assert_same_encode(&all);
    let mut bytes = Vec::new();
    all.encode(&mut bytes);
    assert_same_decode(&bytes);
    for b in 0..=255u8 {
        assert_same_encode(&[b]);
        let one = splitserve_codec::to_bytes(&vec![b]).expect("encode");
        assert_same_decode(&one);
        assert_eq!(splitserve_codec::from_bytes::<Vec<u8>>(&one), Ok(vec![b]));
    }
}

#[test]
fn empty_and_tiny_vectors_match() {
    for v in [
        &[][..],
        &[0],
        &[0x7f],
        &[0x80],
        &[0xff, 0x00],
        &[0x00, 0xff],
    ] {
        assert_same_encode(v);
        assert_same_decode(&splitserve_codec::to_bytes(v).expect("encode"));
    }
}

#[test]
fn random_bytes_encode_and_roundtrip_identically() {
    check::run("random_bytes_encode_and_roundtrip_identically", 512, |g| {
        let v = g.bytes(0, 300);
        assert_same_encode(&v);
        let bytes = splitserve_codec::to_bytes(&v).expect("encode");
        assert_same_decode(&bytes);
        assert_eq!(splitserve_codec::from_bytes::<Vec<u8>>(&bytes), Ok(v));
    });
}

#[test]
fn non_canonical_high_byte_form_is_accepted_alike() {
    // `0x80|b, 0x00` decodes to `b & 0x7f` on both paths.
    let bytes = [3, 0x85, 0x00, 0x01, 0xff, 0x01];
    assert_same_decode(&bytes);
    assert_eq!(
        splitserve_codec::from_bytes::<Vec<u8>>(&bytes),
        Ok(vec![5, 1, 0xff])
    );
}

#[test]
fn second_byte_above_one_errors_alike() {
    for hi in 2..0x80u8 {
        assert_same_decode(&[2, 0x10, 0x81, hi, 0x20]);
    }
}

#[test]
fn overlong_and_oversized_varints_match() {
    // Overlong but in range, overlong out of range, and past 64 bits.
    assert_same_decode(&[1, 0x81, 0x80, 0x00]);
    assert_same_decode(&[1, 0x81, 0x80, 0x01]);
    let mut too_long = vec![1];
    too_long.extend_from_slice(&[0xff; 11]);
    assert_same_decode(&too_long);
}

#[test]
fn length_prefix_beyond_input_matches() {
    // Plausible-but-short prefixes reach the element loop and run out of
    // input; absurd ones are rejected before it.
    for extra in [1u64, 2, 7, 64, 1_000, u64::MAX / 2] {
        let payload = [0x01u8, 0x90, 0x01, 0x7f];
        let mut bytes = Vec::new();
        write_varint(&mut bytes, payload.len() as u64 + extra);
        bytes.extend_from_slice(&payload);
        assert_same_decode(&bytes);
    }
}

#[test]
fn adversarial_element_streams_match_at_every_truncation() {
    check::run(
        "adversarial_element_streams_match_at_every_truncation",
        256,
        |g| {
            let n = g.usize_in(0, 24);
            let mut elems = Vec::new();
            for _ in 0..n {
                arb_element(g, &mut elems);
            }
            // The declared length: exact, short (leaves trailing input)
            // or long (runs out of input).
            let declared = match g.usize_in(0, 3) {
                0 => n,
                1 => g.usize_in(0, n + 1),
                _ => n + g.usize_in(1, 16),
            };
            let mut bytes = Vec::new();
            write_varint(&mut bytes, declared as u64);
            bytes.extend_from_slice(&elems);
            for cut in 0..=bytes.len() {
                assert_same_decode(&bytes[..cut]);
            }
        },
    );
}

#[test]
fn records_with_byte_payloads_stream_identically() {
    // CloudSort's record shape, streamed back to back as in a shuffle
    // block: both paths consume the same bytes per record.
    check::run("records_with_byte_payloads_stream_identically", 128, |g| {
        let records: Vec<(u64, Vec<u8>)> = g.vec(0, 16, |g| (g.u64(), g.bytes(0, 120)));
        let mut block = Vec::new();
        let mut reference = Vec::new();
        for (k, v) in &records {
            (k, v).encode(&mut block);
            (k, per_byte(v)).encode(&mut reference);
        }
        assert_eq!(block, reference);
        let total: usize = records.iter().map(Encode::encoded_len).sum();
        assert_eq!(total, block.len());

        let mut rest = block.as_slice();
        for want in &records {
            let got: (u64, Vec<u8>) = splitserve_codec::from_bytes_seq(&mut rest).expect("decode");
            assert_eq!(&got, want);
        }
        assert!(rest.is_empty());
    });
}

/// A from-first-principles LEB128 reader: 7 bits per byte, at most ten
/// bytes, the tenth holding only bit 63. Errors after consuming the
/// offending byte, like the codec's reader.
fn reference_read_u64(input: &mut &[u8]) -> std::result::Result<u64, splitserve_codec::Error> {
    let mut value = 0u64;
    for i in 0..10 {
        let (&byte, rest) = input
            .split_first()
            .ok_or(splitserve_codec::Error::UnexpectedEof)?;
        *input = rest;
        if i == 9 && byte > 1 {
            return Err(splitserve_codec::Error::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            return Ok(value);
        }
    }
    unreachable!("the tenth byte either ends the varint or errors")
}

#[test]
fn varint_reads_match_a_reference_reader() {
    check::run("varint_reads_match_a_reference_reader", 512, |g| {
        // Long continuation runs and short tails exercise both the
        // unrolled (>= 10 bytes left) and byte-at-a-time readers.
        let mut bytes = Vec::new();
        for _ in 0..g.usize_in(0, 6) {
            match g.usize_in(0, 3) {
                0 => write_varint(&mut bytes, g.u64() >> g.usize_in(0, 64)),
                1 => bytes.extend(std::iter::repeat_n(
                    0x80 | g.rng().gen::<u8>(),
                    g.usize_in(1, 12),
                )),
                _ => bytes.push(g.rng().gen()),
            }
        }
        for cut in 0..=bytes.len() {
            let mut got_rest = &bytes[..cut];
            let mut want_rest = &bytes[..cut];
            let got = u64::decode(&mut got_rest);
            let want = reference_read_u64(&mut want_rest);
            assert_eq!(got, want, "read_u64({:?})", &bytes[..cut]);
            assert_eq!(
                got_rest,
                want_rest,
                "remaining after read_u64({:?})",
                &bytes[..cut]
            );
        }
    });
}
