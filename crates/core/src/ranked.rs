//! [`RankedSet`]: the sorted, rank-addressable buckets of the permissible-pair index.
//!
//! The pair index keeps its singleton, free-port and intra-pair registrations in
//! ascending order so that a uniform draw can resolve "the `k`-th member" in canonical
//! rank order, independently of how the members are stored. A plain sorted `Vec` pays
//! an `O(len)` memmove for every registration change, which dominates the hot path once
//! a bucket holds most of a 2¹⁷-node population. Here the sorted sequence is cut into
//! blocks of bounded length instead: an insert or remove binary-searches the block list,
//! then shifts entries inside one block only, and `get(k)` walks the block lengths.
//! The rank order is exactly the sorted order, so every rank query answers the same as
//! it would on one sorted `Vec`.

/// Half the block capacity: a block that reaches `2 * B` entries splits into two
/// blocks of `B`.
const B: usize = 512;

/// A strictly increasing sequence of `T` stored in blocks of fewer than `2 * B`
/// entries. Invariants (checked by [`RankedSet::check`]): no block is empty, no block
/// holds `2 * B` entries or more, entries increase strictly across the concatenated
/// blocks, and `len` is the sum of the block lengths.
pub(crate) struct RankedSet<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
    /// The allocation of the last dropped block, reused when an empty set gets its
    /// first entry again: a bucket that keeps emptying and refilling (a state class
    /// with one member) then does not allocate on every registration change.
    spare: Vec<T>,
}

impl<T> RankedSet<T> {
    pub(crate) const fn new() -> RankedSet<T> {
        RankedSet {
            blocks: Vec::new(),
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl<T> Default for RankedSet<T> {
    fn default() -> RankedSet<T> {
        RankedSet::new()
    }
}

impl<T: Ord + Copy> RankedSet<T> {
    /// The first block whose last entry is `>= value` (`blocks.len()` if none).
    fn block_for(&self, value: &T) -> usize {
        self.blocks
            .partition_point(|block| block[block.len() - 1] < *value)
    }

    /// Inserts `value` (no-op when present); returns whether it was new.
    pub(crate) fn insert(&mut self, value: T) -> bool {
        let Some(last) = self.blocks.last_mut() else {
            let mut block = std::mem::take(&mut self.spare);
            block.push(value);
            self.blocks.push(block);
            self.len = 1;
            return true;
        };
        // Past every entry (the common case of an ascending build): append.
        let b = if last[last.len() - 1] < value {
            last.push(value);
            self.blocks.len() - 1
        } else {
            let b = self.block_for(&value);
            let block = &mut self.blocks[b];
            let Err(at) = block.binary_search(&value) else {
                return false;
            };
            block.insert(at, value);
            b
        };
        self.len += 1;
        let block = &mut self.blocks[b];
        if block.len() == 2 * B {
            let tail = block.split_off(B);
            self.blocks.insert(b + 1, tail);
        }
        true
    }

    /// Removes `value`; returns whether it was present.
    pub(crate) fn remove(&mut self, value: T) -> bool {
        let b = self.block_for(&value);
        let Some(block) = self.blocks.get_mut(b) else {
            return false;
        };
        let Ok(at) = block.binary_search(&value) else {
            return false;
        };
        block.remove(at);
        self.len -= 1;
        if block.is_empty() {
            self.spare = self.blocks.remove(b);
        }
        true
    }

    /// The entry of rank `k` (0-based, ascending), or `None` when `k >= len`.
    pub(crate) fn get(&self, mut k: usize) -> Option<T> {
        for block in &self.blocks {
            if k < block.len() {
                return Some(block[k]);
            }
            k -= block.len();
        }
        None
    }

    /// The entries in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.blocks.iter().flat_map(|block| block.iter().copied())
    }

    /// The structural invariants listed on the type.
    pub(crate) fn check(&self) -> Result<(), String> {
        if let Some(b) = self.blocks.iter().position(Vec::is_empty) {
            return Err(format!("block {b} is empty"));
        }
        if let Some(b) = self.blocks.iter().position(|block| block.len() >= 2 * B) {
            return Err(format!(
                "block {b} holds {} entries (limit {})",
                self.blocks[b].len(),
                2 * B - 1
            ));
        }
        let sum: usize = self.blocks.iter().map(Vec::len).sum();
        if sum != self.len {
            return Err(format!("len {} but blocks hold {sum} entries", self.len));
        }
        let mut prev = None;
        for value in self.iter() {
            if prev.is_some_and(|p| p >= value) {
                return Err("entries not strictly increasing".to_string());
            }
            prev = Some(value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::BTreeSet;

    fn assert_mirrors(set: &RankedSet<u32>, mirror: &BTreeSet<u32>) {
        set.check().expect("block invariants");
        assert_eq!(set.len(), mirror.len());
        assert!(set.iter().eq(mirror.iter().copied()));
        assert_eq!(set.get(mirror.len()), None);
    }

    /// A seeded random walk of inserts and removes against a `BTreeSet` mirror. The
    /// set grows past `8 * B` entries (many block splits), then drains to empty (every
    /// block emptied and dropped), twice. A rank query is checked every 7 operations
    /// and the full contents every 97.
    #[test]
    fn matches_a_btreeset_across_splits_and_drops() {
        let mut rng = crate::rng::seeded(0x5EED);
        let mut set = RankedSet::new();
        let mut mirror = BTreeSet::new();
        let keys = 20 * B as u32;
        let mut ops = 0usize;
        let mut max_blocks = 0;
        for _round in 0..2 {
            for (target, insert_tenths) in [(8 * B, 8), (0, 2)] {
                while (target > 0 && mirror.len() < target) || (target == 0 && !mirror.is_empty()) {
                    let value = rng.gen_range(0..keys);
                    if rng.gen_range(0..10u32) < insert_tenths {
                        assert_eq!(set.insert(value), mirror.insert(value), "insert {value}");
                    } else {
                        // Half the removes target a present entry, so the drain finishes.
                        let value = match mirror.range(value..).next() {
                            Some(&present) if rng.gen_range(0..2u32) == 0 => present,
                            _ => value,
                        };
                        assert_eq!(set.remove(value), mirror.remove(&value), "remove {value}");
                    }
                    if ops.is_multiple_of(7) && !mirror.is_empty() {
                        let k = rng.gen_range(0..mirror.len());
                        assert_eq!(set.get(k), mirror.iter().nth(k).copied(), "get({k})");
                    }
                    max_blocks = max_blocks.max(set.blocks.len());
                    ops += 1;
                    if ops.is_multiple_of(97) {
                        assert_mirrors(&set, &mirror);
                    }
                }
                assert_mirrors(&set, &mirror);
            }
            assert!(set.blocks.is_empty(), "a drained set keeps no blocks");
        }
        assert!(
            max_blocks >= 5,
            "the walk must cross many splits ({max_blocks})"
        );
    }

    #[test]
    fn ascending_and_descending_fills_keep_rank_order() {
        for descending in [false, true] {
            let mut set = RankedSet::new();
            let n = 5 * B as u64;
            for i in 0..n {
                let value = if descending { n - 1 - i } else { i };
                assert!(set.insert(value));
                assert!(!set.insert(value));
            }
            set.check().expect("block invariants");
            assert!(set.iter().eq(0..n));
            for k in 0..n {
                assert_eq!(set.get(k as usize), Some(k));
            }
            for i in (0..n).step_by(2) {
                assert!(set.remove(i));
                assert!(!set.remove(i));
            }
            set.check().expect("block invariants");
            assert!(set.iter().eq((1..n).step_by(2)));
        }
    }

    #[test]
    fn absent_values_are_reported() {
        let mut set = RankedSet::new();
        assert!(!set.remove(3u8));
        assert_eq!(set.get(0), None);
        assert!(set.insert(3));
        assert!(!set.remove(4));
        assert!(!set.remove(2));
        assert!(set.remove(3));
        assert_eq!(set.len(), 0);
        set.check().expect("block invariants");
    }
}
