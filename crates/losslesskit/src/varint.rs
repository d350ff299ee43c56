//! LEB128 varints and ZigZag signed mapping.
//!
//! Container headers store grid dimensions, symbol counts and table sizes as
//! varints; quantizer residuals and predictor deltas use ZigZag so small
//! magnitudes of either sign stay small.

use crate::CodecError;

/// Append `v` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
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

/// Number of bytes [`write_u64`] appends for `v`.
pub fn len_u64(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Decode an unsigned LEB128 varint from `src[*pos..]`, advancing `*pos`.
///
/// # Errors
/// [`CodecError::UnexpectedEof`] when the buffer ends mid-varint;
/// [`CodecError::Corrupt`] when the encoding exceeds 10 bytes (u64 overflow).
pub fn read_u64(src: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *src.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Corrupt("varint overflows u64"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

/// ZigZag-map a signed value so small magnitudes get small codes
/// (`0 → 0, −1 → 1, 1 → 2, −2 → 3, …`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed value as ZigZag+LEB128.
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Decode a signed ZigZag+LEB128 value.
///
/// # Errors
/// Same failure modes as [`read_u64`].
pub fn read_i64(src: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    Ok(unzigzag(read_u64(src, pos)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_boundaries_roundtrip() {
        let vals = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &vals {
            write_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            let start = pos;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos - start, len_u64(v), "len_u64({v})");
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf, vec![127]);
    }

    #[test]
    fn eof_mid_varint() {
        let mut pos = 0;
        assert_eq!(read_u64(&[0x80], &mut pos), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn overlong_rejected() {
        let buf = [0xff; 11];
        let mut pos = 0;
        assert!(matches!(
            read_u64(&buf, &mut pos),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn zigzag_small_magnitudes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(2), 4);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn signed_varint_roundtrip() {
        let vals = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for &v in &vals {
            write_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }
}
