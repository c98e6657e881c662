//! Bucket geometry of the v2 state commitment.
//!
//! Accounts always hash into [`STATE_BUCKETS`] = 64 logical buckets
//! keyed by the top six bits of the first address byte. Because
//! [`crate::transaction::Address`] orders lexicographically, bucket
//! index is monotone in address order: concatenating buckets 0..64
//! visits accounts in exactly the global sorted order.
//!
//! The buckets are a commitment geometry only. The world state and the
//! mempool each keep a single physical map.

use crate::transaction::Address;

/// Number of logical commitment buckets. Fixed: the v2 state root is
/// defined over this many buckets.
pub const STATE_BUCKETS: usize = 64;

/// Number of physical state shards. Always 1: the world state and the
/// mempool each keep one map; only the commitment is bucketed.
pub fn state_shards() -> usize {
    1
}

/// Logical commitment bucket of `address`: the top six bits of its
/// first byte, so buckets partition the address space into 64
/// contiguous, lexicographically ordered ranges.
pub fn bucket_of(address: &Address) -> usize {
    usize::from(address.as_bytes()[0] >> 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_in_address_order() {
        let mut addrs: Vec<Address> = (0..512).map(Address::from_seed).collect();
        addrs.sort();
        let buckets: Vec<usize> = addrs.iter().map(bucket_of).collect();
        let mut sorted = buckets.clone();
        sorted.sort_unstable();
        assert_eq!(buckets, sorted, "bucket index must be monotone");
        assert!(buckets.iter().all(|&b| b < STATE_BUCKETS));
    }
}
