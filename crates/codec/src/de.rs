//! The decoding half of the format: the [`Decode`] trait and its impls.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

use crate::error::{Error, Result};
use crate::varint;

/// A value that can be read back from the SplitServe wire format.
///
/// `decode` consumes from the front of the slice, advancing it past the
/// value — so records can be streamed out of a shuffle block back to back.
pub trait Decode: Sized {
    /// Decodes one value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or malformed input. Implementations
    /// must never panic on arbitrary bytes.
    fn decode(input: &mut &[u8]) -> Result<Self>;

    /// Decodes `len` values back to back — the element loop of
    /// `Vec<T>`, a hook so an element type can supply a bulk kernel. Must
    /// return exactly what decoding one value at a time would (values or
    /// error) and leave `input` at the same position.
    #[doc(hidden)]
    fn decode_vec(input: &mut &[u8], len: usize) -> Result<Vec<Self>> {
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(Self::decode(input)?);
        }
        Ok(out)
    }
}

/// Deserializes a value of type `T` from `bytes`, requiring the whole input
/// to be consumed.
///
/// # Errors
///
/// Returns an error on malformed input or if trailing bytes remain.
///
/// # Examples
///
/// ```
/// let bytes = splitserve_codec::to_bytes(&vec![1u8, 2, 3]).expect("encode");
/// let v: Vec<u8> = splitserve_codec::from_bytes(&bytes).expect("decode");
/// assert_eq!(v, vec![1, 2, 3]);
/// ```
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut input = bytes;
    let value = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(Error::TrailingBytes(input.len()))
    }
}

/// Deserializes a value from the front of `*bytes`, advancing the slice.
/// Used to stream records out of a shuffle block.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn from_bytes_seq<T: Decode>(bytes: &mut &[u8]) -> Result<T> {
    T::decode(bytes)
}

/// Reads a length prefix, rejecting values implausibly large for the
/// remaining input (each element occupies at least one byte except
/// zero-sized ones, which are bounded elsewhere); this guards against
/// absurd allocations from corrupt input.
pub(crate) fn read_len(input: &mut &[u8]) -> Result<usize> {
    let n = varint::read_u64(input)?;
    if n > (input.len() as u64).saturating_mul(8).saturating_add(64) {
        return Err(Error::LengthOverflow(n));
    }
    Ok(n as usize)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::UnexpectedEof);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

// ----- primitives ------------------------------------------------------

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<bool> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidBool(b)),
        }
    }
}

macro_rules! decode_unsigned {
    ($($ty:ty),*) => {$(
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<$ty> {
                let v = varint::read_u64(input)?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Message(format!("integer {v} out of range")))
            }
        }
    )*};
}
decode_unsigned!(u16, u32, u64, usize);

impl Decode for u8 {
    fn decode(input: &mut &[u8]) -> Result<u8> {
        let v = varint::read_u64(input)?;
        u8::try_from(v).map_err(|_| Error::Message(format!("integer {v} out of range")))
    }

    /// Bulk byte-array decode. The per-element decoder accepts a byte
    /// below `0x80` as itself and `b, hi` with `b >= 0x80, hi <= 1` as
    /// `(b & 0x7f) | hi << 7` (`hi == 0` is the non-canonical form). The
    /// fast loop decodes every element as if it had one of those forms,
    /// without branching on the bytes, and records whether any did not.
    /// If one did — an overlong form, a value above 255 — the whole
    /// vector is decoded again per element from the start; the last byte
    /// and any truncation always go per element. Values, errors and the
    /// remaining input therefore match the per-element path exactly.
    fn decode_vec(input: &mut &[u8], len: usize) -> Result<Vec<u8>> {
        let src = *input;
        // Every element takes at least one byte, so valid input never
        // needs more capacity than this.
        let mut out = vec![0u8; len.min(src.len())];
        let (mut i, mut n) = (0, 0);
        let mut bad = 0u8;
        // With two bytes left, either form of the next element is in
        // bounds.
        for slot in out.iter_mut() {
            let (Some(&b), Some(&hi)) = (src.get(i), src.get(i + 1)) else {
                break;
            };
            let high = b >> 7;
            bad |= high & u8::from(hi > 1);
            *slot = b & 0x7f | (hi & high.wrapping_neg()) << 7;
            i += 1 + usize::from(high);
            n += 1;
        }
        out.truncate(n);
        if bad == 0 {
            *input = &src[i..];
        } else {
            out.clear();
        }
        while out.len() < len {
            out.push(u8::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! decode_signed {
    ($($ty:ty),*) => {$(
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<$ty> {
                let v = varint::read_i64(input)?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Message(format!("integer {v} out of range")))
            }
        }
    )*};
}
decode_signed!(i8, i16, i32, i64, isize);

impl Decode for f32 {
    fn decode(input: &mut &[u8]) -> Result<f32> {
        let b = take(input, 4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Decode for f64 {
    fn decode(input: &mut &[u8]) -> Result<f64> {
        let b = take(input, 8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Decode for char {
    fn decode(input: &mut &[u8]) -> Result<char> {
        let scalar = varint::read_u64(input)?;
        let scalar = u32::try_from(scalar).map_err(|_| Error::InvalidChar(u32::MAX))?;
        char::from_u32(scalar).ok_or(Error::InvalidChar(scalar))
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<String> {
        let len = read_len(input)?;
        let bytes = take(input, len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Error::InvalidUtf8)
    }
}

// ----- compound types --------------------------------------------------

impl<T: Decode> Decode for Box<T> {
    fn decode(input: &mut &[u8]) -> Result<Box<T>> {
        T::decode(input).map(Box::new)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Option<T>> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(Error::InvalidOptionTag(b)),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Vec<T>> {
        let len = read_len(input)?;
        T::decode_vec(input, len)
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(input: &mut &[u8]) -> Result<BTreeMap<K, V>> {
        let len = read_len(input)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Decode + Hash + Eq, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    fn decode(input: &mut &[u8]) -> Result<HashMap<K, V, S>> {
        let len = read_len(input)?;
        let mut out = HashMap::with_hasher(S::default());
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl Decode for () {
    fn decode(_input: &mut &[u8]) -> Result<()> {
        Ok(())
    }
}

macro_rules! decode_tuple {
    ($($name:ident),+) => {
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}
decode_tuple!(A);
decode_tuple!(A, B);
decode_tuple!(A, B, C);
decode_tuple!(A, B, C, D);
decode_tuple!(A, B, C, D, E);
decode_tuple!(A, B, C, D, E, F);
decode_tuple!(A, B, C, D, E, F, G);
decode_tuple!(A, B, C, D, E, F, G, H);
