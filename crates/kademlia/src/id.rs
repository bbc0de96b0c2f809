//! Kademlia identifiers and the XOR metric.
//!
//! Every node and data object carries a `b`-bit identifier; the distance
//! between two identifiers is their bitwise XOR interpreted as an integer
//! (paper, Section 4.1). The paper evaluates `b = 160` (the Kademlia
//! default) and `b = 80`; identifiers are stored in a fixed 160-bit buffer
//! with the upper bits zeroed for smaller `b`.

use rand::Rng;
use std::fmt;

/// Number of bytes backing an identifier (160 bits).
pub const ID_BYTES: usize = 20;

/// Maximum supported identifier bit-length.
pub const MAX_BITS: u16 = (ID_BYTES * 8) as u16;

/// A `b`-bit Kademlia identifier.
///
/// Stored big-endian in a 160-bit buffer; only the low `b` bits are ever
/// non-zero. The bit-length is a property of the *network* (all ids in one
/// network share it), so it is carried by [`crate::config::KademliaConfig`]
/// rather than by every id.
///
/// # Example
///
/// ```
/// use kademlia::id::NodeId;
///
/// let a = NodeId::from_u64(0b1010, 8);
/// let b = NodeId::from_u64(0b0110, 8);
/// let d = a.distance(&b);
/// assert_eq!(d.to_u64(), 0b1100);
/// assert_eq!(d.bucket_index(), Some(3)); // floor(log2(12))
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId([u8; ID_BYTES]);

/// XOR distance between two identifiers. Ordered as a big-endian integer.
///
/// Stored as three big-endian-decoded machine words (`hi` = bits 159..=96,
/// `mid` = bits 95..=32, `lo` = bits 31..=0) rather than raw bytes:
/// distance comparisons are the simulator's hottest instruction stream
/// (every shortlist merge and closest-contact sort), and the word form
/// makes each one plain integer compares with no byte-swapping loads. The
/// derived field-order comparison is exactly big-endian integer order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Distance {
    hi: u64,
    mid: u64,
    lo: u32,
}

/// The 160-bit buffer as three big-endian machine words. Comparing words
/// beats the derived byte-array comparison (a `memcmp` call per compare) on
/// the simulator's hottest paths — shortlist merges and closest-contact
/// sorts are all `Distance` comparisons.
#[inline]
fn words(bytes: &[u8; ID_BYTES]) -> (u64, u64, u32) {
    (
        u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes")),
        u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes")),
        u32::from_be_bytes(bytes[16..20].try_into().expect("4 bytes")),
    )
}

impl Ord for NodeId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        words(&self.0).cmp(&words(&other.0))
    }
}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// The all-zero identifier.
    pub const ZERO: NodeId = NodeId([0; ID_BYTES]);

    /// Creates an id from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if a bit above `bits` is set — ids must live inside their
    /// network's id space.
    pub fn from_bytes(bytes: [u8; ID_BYTES], bits: u16) -> Self {
        let id = NodeId(bytes);
        assert!(id.fits(bits), "id has bits above position {bits}");
        id
    }

    /// Creates an id from a `u64`, for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit into `bits` (or `bits > 160`).
    pub fn from_u64(value: u64, bits: u16) -> Self {
        assert!(bits <= MAX_BITS, "bits out of range");
        assert!(
            bits >= 64 || value < (1u64 << bits),
            "value does not fit into {bits} bits"
        );
        let mut bytes = [0u8; ID_BYTES];
        bytes[ID_BYTES - 8..].copy_from_slice(&value.to_be_bytes());
        NodeId(bytes)
    }

    /// Draws a uniformly random `bits`-bit identifier.
    ///
    /// The paper derives ids from a cryptographic hash "with the goal of
    /// equal distribution of identifiers in the identifier space"; sampling
    /// uniformly at random achieves exactly that distribution directly.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds [`MAX_BITS`].
    pub fn random<R: Rng + ?Sized>(rng: &mut R, bits: u16) -> Self {
        assert!(bits > 0 && bits <= MAX_BITS, "bits out of range");
        let mut bytes = [0u8; ID_BYTES];
        rng.fill(&mut bytes[..]);
        mask_to_bits(&mut bytes, bits);
        NodeId(bytes)
    }

    /// XOR distance to another identifier.
    pub fn distance(&self, other: &NodeId) -> Distance {
        let (ah, am, al) = words(&self.0);
        let (bh, bm, bl) = words(&other.0);
        Distance {
            hi: ah ^ bh,
            mid: am ^ bm,
            lo: al ^ bl,
        }
    }

    /// Index of the k-bucket that `other` falls into relative to `self`:
    /// the bucket `i` with `2^i <= dist < 2^(i+1)`. `None` when the ids are
    /// equal (a node never stores itself).
    pub fn bucket_index_of(&self, other: &NodeId) -> Option<usize> {
        self.distance(other).bucket_index()
    }

    /// Draws a random id inside bucket `index` relative to `self`, i.e. an
    /// id whose distance to `self` lies in `[2^index, 2^(index+1))`. Used by
    /// the 60-minute bucket refresh.
    ///
    /// # Panics
    ///
    /// Panics if `index >= bits`.
    pub fn random_in_bucket<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        index: usize,
        bits: u16,
    ) -> NodeId {
        assert!((index as u16) < bits, "bucket index out of range");
        // Distance must have bit `index` set and bits above `index` clear:
        // copy own prefix above `index`, flip bit `index`, randomize below.
        let mut bytes = self.0;
        flip_bit(&mut bytes, index);
        for bit in 0..index {
            if rng.random_bool(0.5) {
                flip_bit(&mut bytes, bit);
            } else {
                // Keep draw count independent of current contents.
            }
        }
        NodeId(bytes)
    }

    /// The unique identifier at XOR distance `d` from `self` — XOR is its
    /// own inverse, so `a.at_distance(&a.distance(&b)) == b`. Lets a lookup
    /// shortlist keep only the distance and rebuild the id on demand.
    pub fn at_distance(&self, d: &Distance) -> NodeId {
        let (h, m, l) = words(&self.0);
        let mut bytes = [0u8; ID_BYTES];
        bytes[0..8].copy_from_slice(&(h ^ d.hi).to_be_bytes());
        bytes[8..16].copy_from_slice(&(m ^ d.mid).to_be_bytes());
        bytes[16..20].copy_from_slice(&(l ^ d.lo).to_be_bytes());
        NodeId(bytes)
    }

    /// The low 32 bits: the routing table's membership fingerprint. A match
    /// is only a hint — callers confirm with the full id.
    pub(crate) fn fingerprint(&self) -> u32 {
        words(&self.0).2
    }

    /// Raw big-endian bytes.
    pub fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// Whether all set bits are below position `bits`.
    pub fn fits(&self, bits: u16) -> bool {
        let mut probe = self.0;
        mask_to_bits(&mut probe, bits);
        probe == self.0
    }
}

impl Distance {
    /// The zero distance.
    pub const ZERO: Distance = Distance {
        hi: 0,
        mid: 0,
        lo: 0,
    };

    /// Assembles a distance from its three big-endian words (see the type
    /// docs) — the inverse of [`Distance::words`].
    pub(crate) fn from_words(hi: u64, mid: u64, lo: u32) -> Distance {
        Distance { hi, mid, lo }
    }

    /// The three big-endian words `(hi, mid, lo)`.
    pub(crate) fn words(&self) -> (u64, u64, u32) {
        (self.hi, self.mid, self.lo)
    }

    /// Bits `[below - 48, below)` of the distance (bits `[0, 48)` when
    /// `below < 48`) as an integer: a compact sort key for distances that
    /// agree on every bit at or above `below`. Among such distances, equal
    /// keys are only possible when `below > 48`; the caller breaks those
    /// ties with the full distance.
    pub(crate) fn sort_key(&self, below: usize) -> u64 {
        const MASK: u64 = (1 << 48) - 1;
        let shift = below.saturating_sub(48);
        if shift >= 96 {
            return (self.hi >> (shift - 96)) & MASK;
        }
        let low = (u128::from(self.mid) << 32) | u128::from(self.lo);
        // Bits of `hi` shifted past bit 127 are above the 48-bit window.
        ((low >> shift) | (u128::from(self.hi) << (96 - shift))) as u64 & MASK
    }

    /// Position of the most significant set bit (`floor(log2(d))`), which
    /// is exactly the k-bucket index. `None` for the zero distance.
    pub fn bucket_index(&self) -> Option<usize> {
        // Word-wise msb scan: three `leading_zeros` (single instructions)
        // instead of a 20-byte loop.
        if self.hi != 0 {
            Some(159 - self.hi.leading_zeros() as usize)
        } else if self.mid != 0 {
            Some(95 - self.mid.leading_zeros() as usize)
        } else if self.lo != 0 {
            Some(31 - self.lo.leading_zeros() as usize)
        } else {
            None
        }
    }

    /// The distance as `u64`, saturating if it does not fit. Convenient in
    /// tests with small id spaces.
    pub fn to_u64(&self) -> u64 {
        if self.hi != 0 || self.mid > u64::from(u32::MAX) {
            return u64::MAX;
        }
        (self.mid << 32) | u64::from(self.lo)
    }

    /// Whether this is the zero distance (identical ids).
    pub fn is_zero(&self) -> bool {
        self.hi == 0 && self.mid == 0 && self.lo == 0
    }

    /// The bit at position `pos`, counting from the least significant bit
    /// (`pos = 0`). Positions at or above the id width are zero. Diversity
    /// policies read the refinement bits just below a bucket's leading bit
    /// through this accessor.
    pub fn bit(&self, pos: usize) -> bool {
        if pos < 32 {
            (self.lo >> pos) & 1 == 1
        } else if pos < 96 {
            (self.mid >> (pos - 32)) & 1 == 1
        } else if pos < 160 {
            (self.hi >> (pos - 96)) & 1 == 1
        } else {
            false
        }
    }
}

fn mask_to_bits(bytes: &mut [u8; ID_BYTES], bits: u16) {
    let bits = bits as usize;
    for (i, byte) in bytes.iter_mut().enumerate() {
        let byte_pos = ID_BYTES - 1 - i; // significance of this byte
        let low_bit = byte_pos * 8;
        if low_bit + 8 <= bits {
            continue; // fully inside the id space
        }
        if low_bit >= bits {
            *byte = 0;
        } else {
            let keep = bits - low_bit;
            *byte &= (1u16 << keep).wrapping_sub(1) as u8;
        }
    }
}

fn flip_bit(bytes: &mut [u8; ID_BYTES], bit: usize) {
    let byte = ID_BYTES - 1 - bit / 8;
    bytes[byte] ^= 1 << (bit % 8);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({self})")
    }
}

impl fmt::Display for NodeId {
    /// Short hex form: leading zero bytes elided, at least one byte shown.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.0.iter().position(|&b| b != 0).unwrap_or(ID_BYTES - 1);
        for b in &self.0[first..] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Distance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same short hex form as before the word-packed representation:
        // leading zero bytes elided, at least one byte shown.
        let mut bytes = [0u8; ID_BYTES];
        bytes[0..8].copy_from_slice(&self.hi.to_be_bytes());
        bytes[8..16].copy_from_slice(&self.mid.to_be_bytes());
        bytes[16..20].copy_from_slice(&self.lo.to_be_bytes());
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(ID_BYTES - 1);
        write!(f, "Distance(")?;
        for b in &bytes[first..] {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn distance_bits_match_the_u64_value() {
        let d = NodeId::from_u64(0b1011_0100, 16).distance(&NodeId::ZERO);
        for pos in 0..16 {
            assert_eq!(d.bit(pos), (0b1011_0100 >> pos) & 1 == 1, "bit {pos}");
        }
        assert!(!d.bit(ID_BYTES * 8), "out-of-range bits read as zero");
        assert!(!d.bit(ID_BYTES * 8 + 40));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = NodeId::from_u64(0xdead, 16);
        let b = NodeId::from_u64(0xbeef, 16);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert!(a.distance(&a).is_zero());
    }

    #[test]
    fn xor_triangle_inequality_holds() {
        // d(x,z) <= d(x,y) + d(y,z) — XOR is a metric.
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..500 {
            let x = NodeId::random(&mut rng, 32);
            let y = NodeId::random(&mut rng, 32);
            let z = NodeId::random(&mut rng, 32);
            let dxz = x.distance(&z).to_u64();
            let dxy = x.distance(&y).to_u64();
            let dyz = y.distance(&z).to_u64();
            assert!(dxz <= dxy + dyz);
        }
    }

    #[test]
    fn bucket_index_is_log2_of_distance() {
        let base = NodeId::from_u64(0, 16);
        assert_eq!(base.bucket_index_of(&NodeId::from_u64(1, 16)), Some(0));
        assert_eq!(base.bucket_index_of(&NodeId::from_u64(2, 16)), Some(1));
        assert_eq!(base.bucket_index_of(&NodeId::from_u64(3, 16)), Some(1));
        assert_eq!(base.bucket_index_of(&NodeId::from_u64(4, 16)), Some(2));
        assert_eq!(
            base.bucket_index_of(&NodeId::from_u64(0x8000, 16)),
            Some(15)
        );
        assert_eq!(base.bucket_index_of(&base), None);
    }

    #[test]
    fn bucket_index_covers_id_space_halves() {
        // Highest bucket covers half the id space, next a quarter, etc.
        let mut rng = SmallRng::seed_from_u64(9);
        let own = NodeId::random(&mut rng, 32);
        let mut top = 0usize;
        let samples = 4000;
        for _ in 0..samples {
            let other = NodeId::random(&mut rng, 32);
            if let Some(31) = own.bucket_index_of(&other) {
                top += 1;
            }
        }
        let frac = top as f64 / samples as f64;
        assert!((frac - 0.5).abs() < 0.05, "top bucket fraction {frac}");
    }

    #[test]
    fn random_respects_bit_length() {
        let mut rng = SmallRng::seed_from_u64(11);
        for bits in [1u16, 7, 8, 9, 80, 159, 160] {
            for _ in 0..50 {
                let id = NodeId::random(&mut rng, bits);
                assert!(id.fits(bits), "id {id} exceeds {bits} bits");
            }
        }
    }

    #[test]
    fn random_uses_full_space() {
        let mut rng = SmallRng::seed_from_u64(12);
        // With 8-bit ids and 200 draws we should see high and low values.
        let draws: Vec<u64> = (0..200)
            .map(|_| NodeId::random(&mut rng, 8).distance(&NodeId::ZERO).to_u64())
            .collect();
        assert!(draws.iter().any(|&v| v > 200));
        assert!(draws.iter().any(|&v| v < 56));
    }

    #[test]
    fn random_in_bucket_lands_in_bucket() {
        let mut rng = SmallRng::seed_from_u64(13);
        let own = NodeId::random(&mut rng, 80);
        for index in [0usize, 1, 5, 40, 79] {
            for _ in 0..50 {
                let target = own.random_in_bucket(&mut rng, index, 80);
                assert_eq!(
                    own.bucket_index_of(&target),
                    Some(index),
                    "target {target} missed bucket {index}"
                );
                assert!(target.fits(80));
            }
        }
    }

    #[test]
    fn at_distance_inverts_distance() {
        let mut rng = SmallRng::seed_from_u64(21);
        for bits in [8u16, 32, 80, 160] {
            for _ in 0..50 {
                let a = NodeId::random(&mut rng, bits);
                let b = NodeId::random(&mut rng, bits);
                assert_eq!(a.at_distance(&a.distance(&b)), b);
                let (hi, mid, lo) = a.distance(&b).words();
                assert_eq!(Distance::from_words(hi, mid, lo), a.distance(&b));
            }
        }
        assert_eq!(NodeId::from_u64(0xdead_beef, 32).fingerprint(), 0xdead_beef);
    }

    #[test]
    fn sort_key_is_the_48_bit_window_below_the_band_top() {
        // Small distances: the key is the whole value.
        let d = NodeId::from_u64(0x1234_5678_9abc, 64).distance(&NodeId::ZERO);
        assert_eq!(d.sort_key(48), 0x1234_5678_9abc);
        assert_eq!(d.sort_key(20), 0x1234_5678_9abc, "never shifts left");
        // Against a bit-by-bit reading of the window, at every offset
        // (word seams at 32 and 96 included).
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..20 {
            let d = NodeId::random(&mut rng, 160).distance(&NodeId::ZERO);
            for below in 0..=160usize {
                let shift = below.saturating_sub(48);
                let expect = (0..48).fold(0u64, |acc, j| acc | (u64::from(d.bit(shift + j)) << j));
                assert_eq!(d.sort_key(below), expect, "below {below}");
            }
        }
    }

    #[test]
    fn from_u64_roundtrip() {
        let id = NodeId::from_u64(123_456, 32);
        assert_eq!(id.distance(&NodeId::ZERO).to_u64(), 123_456);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_u64_rejects_oversized_values() {
        NodeId::from_u64(256, 8);
    }

    #[test]
    fn distance_ordering_is_big_endian() {
        let a = NodeId::from_u64(0x0100, 16).distance(&NodeId::ZERO);
        let b = NodeId::from_u64(0x00ff, 16).distance(&NodeId::ZERO);
        assert!(a > b);
    }

    #[test]
    fn display_is_compact_hex() {
        let id = NodeId::from_u64(0xabc, 16);
        assert_eq!(id.to_string(), "0abc");
        assert_eq!(NodeId::ZERO.to_string(), "00");
    }

    #[test]
    fn to_u64_saturates() {
        let big = NodeId::random(&mut SmallRng::seed_from_u64(3), 160);
        // Overwhelmingly likely to have a high bit set.
        if !big.fits(64) {
            assert_eq!(big.distance(&NodeId::ZERO).to_u64(), u64::MAX);
        }
    }
}
