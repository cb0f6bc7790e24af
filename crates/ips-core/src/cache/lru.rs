//! An indexed doubly-linked LRU map.
//!
//! Each GCache shard owns one of these (Fig 7), and its index is the shard's
//! only map of resident entries. Operations are O(1): `get` moves a profile
//! to the front on access, `coldest_n` walks from the tail handing eviction
//! candidates to the swap thread, which may *skip* entries it cannot lock
//! (Fig 8) — so removal by key from the middle must also be O(1).

use std::collections::HashMap;

use ips_types::ProfileId;

const NIL: u32 = u32::MAX;

struct Node<V> {
    pid: ProfileId,
    /// `None` while the node is on the free list.
    value: Option<V>,
    prev: u32,
    next: u32,
}

/// A map from profile id to `V`, ordered by recency. Most-recent at the
/// front.
pub struct LruList<V> {
    nodes: Vec<Node<V>>,
    index: HashMap<ProfileId, u32>,
    head: u32,
    tail: u32,
    free_head: u32,
}

impl<V> Default for LruList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LruList<V> {
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free_head: NIL,
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn alloc(&mut self, pid: ProfileId, value: V) -> u32 {
        let node = Node {
            pid,
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// The value for `pid`, marked most recently used.
    pub fn get(&mut self, pid: ProfileId) -> Option<&V> {
        let idx = *self.index.get(&pid)?;
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.nodes[idx as usize].value.as_ref()
    }

    /// The value for `pid`, leaving its recency alone.
    #[must_use]
    pub fn peek(&self, pid: ProfileId) -> Option<&V> {
        let idx = *self.index.get(&pid)?;
        self.nodes[idx as usize].value.as_ref()
    }

    /// Insert `value` for `pid` as the most recently used entry. Returns
    /// the value it replaced, if any.
    pub fn insert(&mut self, pid: ProfileId, value: V) -> Option<V> {
        let old = self.remove(pid);
        let idx = self.alloc(pid, value);
        self.push_front(idx);
        self.index.insert(pid, idx);
        old
    }

    /// Remove `pid`, returning its value if it was present.
    pub fn remove(&mut self, pid: ProfileId) -> Option<V> {
        let idx = self.index.remove(&pid)?;
        self.unlink(idx);
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
        node.value.take()
    }

    /// Iterate `(pid, value)` from most to least recent.
    pub fn iter_mru(&self) -> impl Iterator<Item = (ProfileId, &V)> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let node = &self.nodes[idx as usize];
            idx = node.next;
            Some((node.pid, node.value.as_ref()?))
        })
    }
}

impl<V: Clone> LruList<V> {
    /// Up to `n` eviction candidates, coldest first. The swap thread
    /// try-locks each and skips the contended ones (Fig 8), so candidates
    /// beyond the first are needed.
    #[must_use]
    pub fn coldest_n(&self, n: usize) -> Vec<(ProfileId, V)> {
        let mut out = Vec::with_capacity(n.min(self.len()));
        let mut idx = self.tail;
        while idx != NIL && out.len() < n {
            let node = &self.nodes[idx as usize];
            if let Some(value) = &node.value {
                out.push((node.pid, value.clone()));
            }
            idx = node.prev;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProfileId {
        ProfileId::new(n)
    }

    fn keys(l: &LruList<u64>) -> Vec<u64> {
        l.iter_mru().map(|(p, _)| p.raw()).collect()
    }

    fn coldest(l: &LruList<u64>) -> Option<u64> {
        l.coldest_n(1).first().map(|(p, _)| p.raw())
    }

    #[test]
    fn touch_inserts_and_promotes() {
        let mut l = LruList::new();
        for n in 1..=3 {
            assert_eq!(l.insert(pid(n), n * 10), None);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(coldest(&l), Some(1));
        assert_eq!(l.get(pid(1)), Some(&10));
        assert_eq!(coldest(&l), Some(2));
        assert_eq!(keys(&l), vec![1, 3, 2]);
        // peek reads without promoting.
        assert_eq!(l.peek(pid(2)), Some(&20));
        assert_eq!(coldest(&l), Some(2));
        // insert over a present key replaces and promotes.
        assert_eq!(l.insert(pid(2), 21), Some(20));
        assert_eq!(keys(&l), vec![2, 1, 3]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn remove_middle_front_back() {
        let mut l = LruList::new();
        for n in 1..=5 {
            l.insert(pid(n), n);
        }
        assert_eq!(l.remove(pid(3)), Some(3)); // middle
        assert_eq!(l.remove(pid(5)), Some(5)); // front (most recent)
        assert_eq!(l.remove(pid(1)), Some(1)); // back (coldest)
        assert_eq!(l.remove(pid(3)), None);
        assert_eq!(keys(&l), vec![4, 2]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn coldest_n_walks_from_tail() {
        let mut l = LruList::new();
        for n in 1..=5 {
            l.insert(pid(n), n * 10);
        }
        assert_eq!(
            l.coldest_n(3),
            vec![(pid(1), 10), (pid(2), 20), (pid(3), 30)]
        );
        assert_eq!(l.coldest_n(10).len(), 5);
        assert!(l.coldest_n(0).is_empty());
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut l = LruList::new();
        for n in 0..100 {
            l.insert(pid(n), n);
        }
        for n in 0..100 {
            assert_eq!(l.remove(pid(n)), Some(n));
        }
        assert!(l.is_empty());
        let nodes_before = l.nodes.len();
        for n in 100..200 {
            l.insert(pid(n), n);
        }
        assert_eq!(l.nodes.len(), nodes_before, "freed slots must be reused");
        assert_eq!(l.len(), 100);
    }

    #[test]
    fn empty_list_edge_cases() {
        let mut l: LruList<u64> = LruList::new();
        assert_eq!(coldest(&l), None);
        assert_eq!(l.remove(pid(1)), None);
        assert_eq!(l.get(pid(1)), None);
        assert_eq!(l.peek(pid(1)), None);
        assert!(l.coldest_n(5).is_empty());
        assert_eq!(l.iter_mru().count(), 0);
        // insert after emptiness works
        l.insert(pid(1), 1);
        l.remove(pid(1));
        l.insert(pid(2), 2);
        assert_eq!(coldest(&l), Some(2));
    }

    #[test]
    fn touch_same_repeatedly_is_stable() {
        let mut l = LruList::new();
        l.insert(pid(1), 1);
        l.insert(pid(2), 2);
        for _ in 0..10 {
            assert_eq!(l.get(pid(2)), Some(&2));
        }
        assert_eq!(l.len(), 2);
        assert_eq!(coldest(&l), Some(1));
    }

    #[test]
    fn random_ops_match_reference_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut l = LruList::new();
        // (key, value), most recent first.
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let position = |r: &[(u64, u64)], n: u64| r.iter().position(|&(k, _)| k == n);
        for step in 0..10_000u64 {
            let n = rng.gen_range(0..50u64);
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    let replaced = position(&reference, n).map(|i| reference.remove(i).1);
                    reference.insert(0, (n, step));
                    assert_eq!(l.insert(pid(n), step), replaced);
                }
                4..=6 => {
                    let found = position(&reference, n).map(|i| reference.remove(i));
                    if let Some(entry) = found {
                        reference.insert(0, entry);
                    }
                    assert_eq!(l.get(pid(n)).copied(), found.map(|(_, v)| v));
                }
                7 => {
                    let found = position(&reference, n).map(|i| reference[i].1);
                    assert_eq!(l.peek(pid(n)).copied(), found);
                }
                _ => {
                    let removed = position(&reference, n).map(|i| reference.remove(i).1);
                    assert_eq!(l.remove(pid(n)), removed);
                }
            }
            assert_eq!(l.len(), reference.len());
            let k = rng.gen_range(0..8usize);
            let expected: Vec<(ProfileId, u64)> = reference
                .iter()
                .rev()
                .take(k)
                .map(|&(key, v)| (pid(key), v))
                .collect();
            assert_eq!(l.coldest_n(k), expected);
        }
        let order: Vec<(u64, u64)> = l.iter_mru().map(|(p, &v)| (p.raw(), v)).collect();
        assert_eq!(order, reference);
    }
}
