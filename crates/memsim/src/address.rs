//! Physical-address → DRAM-coordinate mapping.
//!
//! Table IV: "XOR-based mapping function similar to Intel Skylake" —
//! bank bits are XOR-folded with higher-order row bits so strided
//! streams spread across banks, plus channel interleaving at block
//! granularity.

/// Coordinates of a 64-byte block in the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel (across all modules).
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column (block) within the row.
    pub column: u64,
}

/// Blocks per row: a DDR4 row is typically 8 KB = 128 blocks.
const BLOCKS_PER_ROW: u64 = 128;
const COLUMN_BITS: u32 = BLOCKS_PER_ROW.trailing_zeros();

/// The address mapper: block-interleaved channels, XOR-folded banks.
/// Every dimension is a power of two, so each coordinate is one bit
/// field of the block address, which `map` extracts with a shift and a
/// mask.
#[derive(Debug, Clone, Copy)]
pub struct AddressMapping {
    /// log2 of channels, banks per rank and ranks per channel: the
    /// widths of their fields in the block address (layout at
    /// [`map`](Self::map)).
    channel_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
}

impl AddressMapping {
    /// Creates a mapping.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `channels`,
    /// `ranks_per_channel`, `banks_per_rank`, or `blocks_per_row` is
    /// not a power of two.
    pub fn new(channels: usize, ranks_per_channel: usize, banks_per_rank: usize) -> AddressMapping {
        for (name, v) in [
            ("channels", channels),
            ("ranks_per_channel", ranks_per_channel),
            ("banks_per_rank", banks_per_rank),
        ] {
            assert!(
                v > 0 && v.is_power_of_two(),
                "{name} must be a power of two"
            );
        }
        AddressMapping {
            channel_bits: channels.trailing_zeros(),
            bank_bits: banks_per_rank.trailing_zeros(),
            rank_bits: ranks_per_channel.trailing_zeros(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        1 << self.channel_bits
    }

    /// Ranks per channel.
    pub fn ranks_per_channel(&self) -> usize {
        1 << self.rank_bits
    }

    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        1 << self.bank_bits
    }

    /// Maps a byte address to its DRAM coordinates.
    ///
    /// Bit layout (block address, low→high): channel | column | bank |
    /// rank | row, with the bank bits XORed against the low row bits
    /// (Skylake-style) to spread row-strided streams across banks.
    pub fn map(&self, addr: u64) -> DramCoord {
        let field = |block: u64, bits: u32| block & ((1u64 << bits) - 1);
        let mut block = addr >> 6;
        let channel = field(block, self.channel_bits) as usize;
        block >>= self.channel_bits;
        let column = field(block, COLUMN_BITS);
        block >>= COLUMN_BITS;
        let bank_raw = field(block, self.bank_bits);
        block >>= self.bank_bits;
        let rank = field(block, self.rank_bits) as usize;
        let row = block >> self.rank_bits;
        // XOR-fold: permute the bank with the row's low bits.
        let bank = field(bank_raw ^ row, self.bank_bits) as usize;
        DramCoord {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(4, 4, 16)
    }

    #[test]
    fn coordinates_in_range() {
        let m = mapping();
        for i in 0..10_000u64 {
            let c = m.map(i * 64 * 7 + 13);
            assert!(c.channel < 4);
            assert!(c.rank < 4);
            assert!(c.bank < 16);
            assert!(c.column < 128);
        }
    }

    #[test]
    fn sequential_blocks_interleave_channels() {
        let m = mapping();
        let channels: Vec<usize> = (0..8u64).map(|i| m.map(i * 64).channel).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn same_row_shares_bank_and_row() {
        let m = mapping();
        // Two consecutive blocks in the same channel are same row/bank
        // until the row boundary.
        let a = m.map(0);
        let b = m.map(4 * 64); // next block in channel 0
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn xor_fold_spreads_row_strides() {
        // A stream striding by exactly one row (same raw bank bits)
        // must hit different banks thanks to the XOR fold.
        let m = mapping();
        let row_stride = 64 * 4 * 128 * 16 * 4; // channel*col*bank*rank span
        let banks: std::collections::HashSet<usize> =
            (0..8u64).map(|i| m.map(i * row_stride).bank).collect();
        assert!(
            banks.len() > 4,
            "XOR fold should spread banks, got {banks:?}"
        );
    }

    #[test]
    fn distinct_addresses_distinct_coords() {
        let m = mapping();
        let a = m.map(0);
        let b = m.map(64 * 4 * 128); // one full row further in channel 0
        assert_eq!(a.channel, b.channel);
        assert!(a.bank != b.bank || a.row != b.row);
    }

    /// The division-and-remainder form of [`AddressMapping::map`].
    fn naive_map(channels: u64, ranks: u64, banks: u64, addr: u64) -> DramCoord {
        let mut block = addr >> 6;
        let channel = (block % channels) as usize;
        block /= channels;
        let column = block % BLOCKS_PER_ROW;
        block /= BLOCKS_PER_ROW;
        let bank_raw = block % banks;
        block /= banks;
        let rank = (block % ranks) as usize;
        let row = block / ranks;
        DramCoord {
            channel,
            rank,
            bank: ((bank_raw ^ row) % banks) as usize,
            row,
            column,
        }
    }

    #[test]
    fn shifts_match_division_on_every_shape() {
        // splitmix64 over the full address range, plus the edges.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for channels in [1, 2, 4, 8] {
            for ranks in [1, 2, 4, 8] {
                for banks in [16, 32] {
                    let m = AddressMapping::new(channels, ranks, banks);
                    let (c, r, b) = (channels as u64, ranks as u64, banks as u64);
                    for addr in (0..2_000).map(|_| next()).chain([0, 63, 64, u64::MAX]) {
                        assert_eq!(
                            m.map(addr),
                            naive_map(c, r, b, addr),
                            "{channels}x{ranks}x{banks} at {addr:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = AddressMapping::new(3, 4, 16);
    }
}
