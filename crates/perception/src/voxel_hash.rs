//! The hasher of the perception kernels' integer-keyed maps: the OctoMap's
//! block hash and the downsampling cell map.

/// A cheap multiply-xor hasher for integer voxel, block and cell keys.
///
/// Every update that leaves the previous update's block hashes its block
/// key, and downsampling hashes one cell key per point; the standard
/// SipHash would cost more than either. Keys are adversary-free integers
/// the program computes from its own geometry, so one SplitMix-style mix per
/// integer is plenty.
#[derive(Clone, Copy, Default)]
pub(crate) struct VoxelHasher(u64);

impl std::hash::Hasher for VoxelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = self.0 ^ value;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

/// `HashMap` hasher builder for [`VoxelHasher`].
pub(crate) type VoxelHashBuilder = std::hash::BuildHasherDefault<VoxelHasher>;
