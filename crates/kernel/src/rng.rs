//! The one vendored PRNG of the workspace: SplitMix64.
//!
//! Every crate that needs deterministic randomness (the random simulator,
//! the bitstate hash family, the vendored proptest shim) uses this single
//! implementation instead of carrying its own copy. The generator is tiny,
//! splittable-quality, and has no external dependency; its output quality
//! is far beyond what scheduler picks or hash seeding need.

/// A small deterministic PRNG (SplitMix64).
///
/// The same seed always reproduces the same stream, which is what makes
/// simulation runs replayable and bitstate hash families stable across
/// checkpoint/resume.
///
/// ```
/// use pnp_kernel::SplitMix64;
/// let mut a = SplitMix64::seed_from_u64(7);
/// let mut b = SplitMix64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// A uniform index in `0..bound` (`bound` must be nonzero). Uses
    /// rejection sampling to avoid modulo bias.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        let bound = bound as u64;
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % bound) as usize;
            }
        }
    }
}

/// FNV-1a over `bytes`, finished with the SplitMix64 mixer: a short-key
/// hash. It keys worker placement, chaos fingerprints, the program
/// fingerprint and the persisted service queue's seal. It reads one byte
/// at a time, so bulk file contents use [`checksum64`] instead.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    mix64(h)
}

/// The integrity checksum of the kernel's on-disk formats: run files,
/// snapshots and generation envelopes seal their bytes with it.
///
/// It reads 8-byte little-endian words into four independent lanes, so
/// the multiplies of neighbouring words overlap. Each lane step
/// `lane = rotl((lane ^ word) * K, 31)` is a bijection in the word and in
/// the lane, and the finish folds the length, every lane and the tail
/// bytes in through [`mix64`], itself a bijection. So any change confined
/// to one word (a bit flip, a torn byte) always changes the checksum;
/// wider damage is caught with the odds of any 64-bit checksum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    fn step(lane: u64, word: &[u8]) -> u64 {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        ((lane ^ w).wrapping_mul(K)).rotate_left(31)
    }
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, word);
    }
    let tail = words
        .remainder()
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
    let h = lanes
        .iter()
        .fold(mix64(bytes.len() as u64), |h, &lane| mix64(h ^ lane));
    mix64(h ^ tail)
}

/// SplitMix64's output mixer as a standalone finalizer: a fast, high-quality
/// 64-bit bijection, used to finish content hashes (state fingerprints,
/// [`fnv64`], [`checksum64`]) so that nearby inputs land far apart.
pub fn mix64(v: u64) -> u64 {
    let mut z = v;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        let mut c = SplitMix64::seed_from_u64(43);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn gen_index_stays_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(0);
        for bound in [1usize, 2, 3, 7, 100] {
            for _ in 0..50 {
                assert!(rng.gen_index(bound) < bound);
            }
        }
    }

    #[test]
    fn mix64_is_not_identity_and_spreads_neighbors() {
        assert_ne!(mix64(1), 1);
        // Neighboring inputs should differ in many bits.
        let d = (mix64(5) ^ mix64(6)).count_ones();
        assert!(d > 10, "poor diffusion: {d} differing bits");
    }

    /// A ~1 KiB pseudo-random buffer; the checks below compare checksums
    /// of edited copies only, never the function's internals.
    fn sample_buffer() -> Vec<u8> {
        let mut rng = SplitMix64::seed_from_u64(0x5eed);
        (0..1029).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn checksum64_catches_every_bit_flip_truncation_and_extension() {
        let bytes = sample_buffer();
        let sum = checksum64(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(checksum64(&bad), sum, "flip of bit {bit} in byte {i}");
            }
        }
        for len in 0..bytes.len() {
            assert_ne!(checksum64(&bytes[..len]), sum, "truncation to {len}");
        }
        for extra in 0..=u8::MAX {
            let mut longer = bytes.clone();
            longer.push(extra);
            assert_ne!(checksum64(&longer), sum, "extension by {extra:#04x}");
        }
        // Appending zeros must not look like the shorter buffer either.
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 16]));
    }
}
