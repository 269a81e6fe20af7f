//! An indexed binary min-heap of `(key, id)` pairs with at most one entry
//! per id, plus the integer time keys it is usually keyed by.
//!
//! Every id's heap position is tracked, so an entry can be re-keyed or
//! removed in `O(log n)` without lazy deletion: the heap never holds
//! more entries than live ids. Ties on the key break on the id, so the
//! minimum is a pure function of the set of entries, whatever order
//! they arrived or left in. The fleet's capacity sweep keys its
//! residents by last touch, and the serve engine keys its timers by
//! deadline.

/// Heap position of an id that has no entry.
const ABSENT: u32 = u32::MAX;

/// Integer image of `t` whose unsigned order is [`f64::total_cmp`]'s.
pub fn time_key(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Inverse of [`time_key`].
pub fn key_time(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// A min-heap of `(key, id)` with each id's position; see the module
/// docs. Warm reuse at a stable id range allocates nothing.
#[derive(Debug, Default)]
pub struct KeyedHeap {
    heap: Vec<(u64, u32)>,
    pos: Vec<u32>,
}

impl KeyedHeap {
    /// Empties the heap and sizes the position array for ids `0..ids`
    /// (a larger id grows it on insertion).
    pub fn reset(&mut self, ids: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(ids, ABSENT);
    }

    /// Entries in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: u32) -> bool {
        self.pos.get(id as usize).is_some_and(|&i| i != ABSENT)
    }

    /// The least `(key, id)`, if any.
    pub fn peek(&self) -> Option<(u64, u32)> {
        self.heap.first().copied()
    }

    /// Gives `id` the key `key`: inserts its entry, or moves the one it
    /// has.
    pub fn set(&mut self, key: u64, id: u32) {
        self.grow_to(id);
        match self.pos[id as usize] {
            ABSENT => {
                self.heap.push((key, id));
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let i = i as usize;
                self.heap[i] = (key, id);
                self.restore(i);
            }
        }
    }

    /// Removes `id`'s entry if it has one.
    pub fn remove(&mut self, id: u32) {
        let Some(&i) = self.pos.get(id as usize) else {
            return;
        };
        if i == ABSENT {
            return;
        }
        self.pos[id as usize] = ABSENT;
        let Some(last) = self.heap.pop() else {
            return;
        };
        // Unless `id` was the last entry, the last entry fills its hole
        // and may belong above or below it.
        let i = i as usize;
        if i < self.heap.len() {
            self.heap[i] = last;
            self.restore(i);
        }
    }

    /// Removes the least entry in favour of `(key, id)` and returns the
    /// removed id; `None` (and no insertion) when empty. `id` must have
    /// no entry.
    pub fn replace_min(&mut self, key: u64, id: u32) -> Option<u32> {
        let victim = self.heap.first()?.1;
        self.grow_to(id);
        self.pos[victim as usize] = ABSENT;
        self.heap[0] = (key, id);
        self.sift_down(0);
        Some(victim)
    }

    /// Empties the heap, resetting only its members' positions.
    pub fn clear(&mut self) {
        for &(_, id) in &self.heap {
            self.pos[id as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Sizes the position array to cover `id`.
    fn grow_to(&mut self, id: u32) {
        if id as usize >= self.pos.len() {
            self.pos.resize(id as usize + 1, ABSENT);
        }
    }

    /// Moves the entry at `i` up or down to where it belongs.
    fn restore(&mut self, i: usize) {
        if i > 0 && self.heap[i] < self.heap[(i - 1) / 2] {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] < e {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if e < self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_keys_follow_total_order() {
        let ts = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in ts {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits());
            for b in ts {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn keyed_heap_tracks_a_sorted_set_model(
            ops in proptest::collection::vec((0u8..8, 0u32..24, 0u64..6), 200),
        ) {
            let mut heap = KeyedHeap::default();
            heap.reset(16);
            let mut model = std::collections::BTreeSet::new();
            let mut key_of = [None; 24];
            for (op, id, key) in ops {
                match (op, key_of[id as usize]) {
                    (0 | 3 | 4, old) => {
                        heap.set(key, id);
                        if let Some(k) = old {
                            model.remove(&(k, id));
                        }
                        model.insert((key, id));
                        key_of[id as usize] = Some(key);
                    }
                    (1 | 5, old) => {
                        heap.remove(id);
                        if let Some(k) = old {
                            model.remove(&(k, id));
                        }
                        key_of[id as usize] = None;
                    }
                    (2, None) => {
                        let victim = model.pop_first().map(|(_, v)| v);
                        prop_assert_eq!(heap.replace_min(key, id), victim);
                        if let Some(v) = victim {
                            key_of[v as usize] = None;
                            model.insert((key, id));
                            key_of[id as usize] = Some(key);
                        }
                    }
                    (7, _) => {
                        heap.clear();
                        model.clear();
                        key_of = [None; 24];
                    }
                    _ => {}
                }
                prop_assert_eq!(heap.len(), model.len());
                prop_assert_eq!(heap.peek(), model.first().copied());
                for (i, &(_, member)) in heap.heap.iter().enumerate() {
                    prop_assert_eq!(heap.pos[member as usize] as usize, i);
                    prop_assert!(heap.contains(member));
                }
            }
        }
    }
}
