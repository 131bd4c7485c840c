//! Byte views of the CSR word arrays.
//!
//! The index stream *is* the column indices as little-endian `u32` words and
//! the value stream the values as little-endian `f64` words, so on a
//! little-endian host the byte image of a `[u32]` or `[f64]` is the stream
//! itself. [`bytes_mut`] lets a decoder fill the final arrays through that
//! image — byte addressing is what lets a word straddle two blocks with no
//! carry logic — and [`from_le_in_place`] is the one pass a big-endian host
//! adds afterwards.

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for f64 {}
}

/// The element types of the two CSR streams. Sealed: the byte views below
/// are sound only for types with no padding and no invalid bit pattern, and
/// `u32` and `f64` are the two the streams hold.
pub trait Word: sealed::Sealed + Copy {}
impl Word for u32 {}
impl Word for f64 {}

/// The bytes of `words`, in memory order.
pub fn bytes<T: Word>(words: &[T]) -> &[u8] {
    // SAFETY: `T` is `u32` or `f64` (sealed): no padding, so every byte of
    // the slice is initialised; `u8` has alignment 1; the length is the
    // slice's own size in bytes, and the borrow carries over unchanged.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// The bytes of `words`, in memory order, writable.
pub fn bytes_mut<T: Word>(words: &mut [T]) -> &mut [u8] {
    // SAFETY: as for [`bytes`]; in addition every bit pattern is a valid
    // `u32` and a valid `f64`, so no write through the view can leave an
    // invalid word behind, and the view holds the only borrow of `words`.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

/// Turns words whose bytes were filled from a little-endian stream into
/// native words (and back: the swap is its own inverse). Compiled to nothing
/// on little-endian targets.
pub fn from_le_in_place<T: Word>(words: &mut [T]) {
    #[cfg(target_endian = "big")]
    for word in bytes_mut(words).chunks_exact_mut(std::mem::size_of::<T>()) {
        word.reverse();
    }
    #[cfg(target_endian = "little")]
    let _ = words;
}

/// The little-endian stream image of `words`, in one allocation at final
/// capacity.
pub fn to_le_bytes<T: Word>(words: &[T]) -> Vec<u8> {
    #[cfg(target_endian = "big")]
    {
        let mut swapped = words.to_vec();
        from_le_in_place(&mut swapped);
        bytes(&swapped).to_vec()
    }
    #[cfg(target_endian = "little")]
    bytes(words).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_round_trip_both_word_types_at_any_alignment() {
        let cols: Vec<u32> = (0..37u32).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A).collect();
        let vals: Vec<f64> = [1.5, -0.0, f64::NAN, f64::INFINITY, 4.9e-324, -2.25e300].repeat(5);
        // Every sub-slice start: the view is taken at each word alignment.
        for start in 0..4 {
            let want: Vec<u8> = cols[start..].iter().flat_map(|c| c.to_le_bytes()).collect();
            assert_eq!(to_le_bytes(&cols[start..]), want);
            let mut back = vec![0u32; cols.len() - start];
            bytes_mut(&mut back).copy_from_slice(&want);
            from_le_in_place(&mut back);
            assert_eq!(back, cols[start..]);

            let want: Vec<u8> = vals[start..].iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(to_le_bytes(&vals[start..]), want);
            let mut back = vec![0f64; vals.len() - start];
            bytes_mut(&mut back).copy_from_slice(&want);
            from_le_in_place(&mut back);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&vals[start..]), "NaN payloads and -0.0 survive");
        }
    }

    #[test]
    fn a_word_written_in_two_pieces_needs_no_carry() {
        // The case `bytes_mut` exists for: a block boundary inside a word.
        let want = [0x0403_0201u32, 0x0807_0605, 0x0C0B_0A09];
        let stream = to_le_bytes(&want);
        for cut in 0..=stream.len() {
            let mut got = [0u32; 3];
            let (head, tail) = bytes_mut(&mut got).split_at_mut(cut);
            head.copy_from_slice(&stream[..cut]);
            tail.copy_from_slice(&stream[cut..]);
            from_le_in_place(&mut got);
            assert_eq!(got, want, "cut at byte {cut}");
        }
    }

    #[test]
    fn empty_slices_have_empty_views() {
        assert!(bytes::<u32>(&[]).is_empty());
        assert!(bytes_mut::<f64>(&mut []).is_empty());
        assert!(to_le_bytes::<f64>(&[]).is_empty());
        from_le_in_place::<u32>(&mut []);
        assert_eq!(bytes(&[1u32, 2]).len(), 8);
        assert_eq!(bytes_mut(&mut [0f64; 3]).len(), 24);
    }
}
