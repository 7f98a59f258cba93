//! A hash table with per-bucket locks — the directory representation §1 and
//! §6.3 use to make creation of differently-named files conflict-free.
//!
//! Each bucket is a separate traced cell holding a small association list,
//! guarded by its own [`TracedLock`]. Operations on names that hash to
//! different buckets touch disjoint cache lines; operations on the same name
//! (or colliding names) share a bucket and conflict, which mirrors the
//! "barring hash collisions" caveat in the paper.

use crate::spinlock::TracedLock;
use scr_mtrace::{fnv1a, SimMachine, TracedCell};

/// A string-keyed hash map with one lock and one storage line per bucket.
#[derive(Clone, Debug)]
pub struct HashDir<V: Clone + 'static> {
    buckets: Vec<Bucket<V>>,
}

#[derive(Clone, Debug)]
struct Bucket<V: Clone + 'static> {
    lock: TracedLock,
    entries: TracedCell<Vec<(String, V)>>,
}

impl<V: Clone + 'static> HashDir<V> {
    /// Allocates a directory with `buckets` buckets.
    pub fn new(machine: &SimMachine, label: &str, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let buckets = (0..buckets)
            .map(|b| Bucket {
                lock: TracedLock::new(machine, format!("{label}.bucket[{b}].lock")),
                entries: machine.cell(format!("{label}.bucket[{b}].entries"), Vec::new()),
            })
            .collect();
        HashDir { buckets }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket index a key maps to.
    pub fn bucket_of(&self, key: &str) -> usize {
        (fnv1a(key.as_bytes()) % self.buckets.len() as u64) as usize
    }

    /// Looks up a key (read-only; touches only the key's bucket).
    pub fn get(&self, key: &str) -> Option<V> {
        let bucket = &self.buckets[self.bucket_of(key)];
        bucket.entries.with(|entries| {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        })
    }

    /// Does the key exist? (Read-only, like ScaleFS's existence-only lookup
    /// used by `access(F_OK)`.)
    pub fn contains(&self, key: &str) -> bool {
        let bucket = &self.buckets[self.bucket_of(key)];
        bucket
            .entries
            .with(|entries| entries.iter().any(|(k, _)| k == key))
    }

    /// Inserts a key if absent. Returns `true` if inserted, `false` if the
    /// key already existed (in which case nothing is written).
    pub fn insert_if_absent(&self, key: &str, value: V) -> bool {
        let bucket = &self.buckets[self.bucket_of(key)];
        // Optimistic existence check before taking the lock ("precede
        // pessimism with optimism").
        let exists = bucket
            .entries
            .with(|entries| entries.iter().any(|(k, _)| k == key));
        if exists {
            return false;
        }
        bucket.lock.with(|| {
            let exists = bucket
                .entries
                .with(|entries| entries.iter().any(|(k, _)| k == key));
            if exists {
                false
            } else {
                bucket.entries.update(|entries| {
                    entries.push((key.to_string(), value.clone()));
                });
                true
            }
        })
    }

    /// Unconditionally inserts or replaces a key's value.
    pub fn upsert(&self, key: &str, value: V) {
        let bucket = &self.buckets[self.bucket_of(key)];
        bucket.lock.with(|| {
            bucket.entries.update(|entries| {
                if let Some(entry) = entries.iter_mut().find(|(k, _)| k == key) {
                    entry.1 = value.clone();
                } else {
                    entries.push((key.to_string(), value.clone()));
                }
            });
        });
    }

    /// Removes a key, returning its value if it was present. When the key is
    /// absent nothing is written (optimistic check first).
    pub fn remove(&self, key: &str) -> Option<V> {
        let bucket = &self.buckets[self.bucket_of(key)];
        let exists = bucket
            .entries
            .with(|entries| entries.iter().any(|(k, _)| k == key));
        if !exists {
            return None;
        }
        bucket.lock.with(|| {
            bucket.entries.update(|entries| {
                let pos = entries.iter().position(|(k, _)| k == key)?;
                Some(entries.remove(pos).1)
            })
        })
    }

    /// Every (key, value) pair, in unspecified order (untraced; for tests
    /// and for directory listing in examples).
    pub fn entries_untraced(&self) -> Vec<(String, V)> {
        let mut out = Vec::new();
        for bucket in &self.buckets {
            bucket.entries.peek(|entries| out.extend(entries.clone()));
        }
        out
    }

    /// Number of entries (untraced).
    pub fn len_untraced(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.entries.peek(|e| e.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "root", 16);
        assert!(dir.insert_if_absent("a", 1));
        assert!(!dir.insert_if_absent("a", 2));
        assert_eq!(dir.get("a"), Some(1));
        assert!(dir.contains("a"));
        assert_eq!(dir.remove("a"), Some(1));
        assert_eq!(dir.remove("a"), None);
        assert_eq!(dir.len_untraced(), 0);
    }

    #[test]
    fn upsert_replaces_existing_value() {
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "root", 16);
        dir.upsert("f", 1);
        dir.upsert("f", 2);
        assert_eq!(dir.get("f"), Some(2));
        assert_eq!(dir.len_untraced(), 1);
    }

    #[test]
    fn creates_of_different_names_are_conflict_free() {
        // The motivating example of §1: creating differently-named files in
        // the same directory commutes and has a conflict-free implementation.
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "shared_dir", 64);
        // Pick two names in different buckets.
        let (a, b) = two_names_in_distinct_buckets(&dir);
        m.start_tracing();
        m.on_core(0, || {
            dir.insert_if_absent(&a, 1);
        });
        m.on_core(1, || {
            dir.insert_if_absent(&b, 2);
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn creates_of_same_name_conflict() {
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "shared_dir", 64);
        m.start_tracing();
        m.on_core(0, || {
            dir.insert_if_absent("same", 1);
        });
        m.on_core(1, || {
            dir.insert_if_absent("same", 2);
        });
        assert!(!m.conflict_report().is_conflict_free());
    }

    #[test]
    fn lookups_of_existing_names_do_not_conflict_with_each_other() {
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "d", 64);
        dir.insert_if_absent("x", 1);
        dir.insert_if_absent("y", 2);
        m.start_tracing();
        m.on_core(0, || {
            let _ = dir.get("x");
        });
        m.on_core(1, || {
            let _ = dir.get("x");
        });
        assert!(m.conflict_report().is_conflict_free());
    }

    #[test]
    fn failed_insert_of_existing_name_is_read_only() {
        let m = SimMachine::new();
        let dir: HashDir<u64> = HashDir::new(&m, "d", 64);
        dir.insert_if_absent("exists", 1);
        m.start_tracing();
        m.on_core(0, || {
            assert!(!dir.insert_if_absent("exists", 9));
        });
        m.on_core(1, || {
            assert!(!dir.insert_if_absent("exists", 9));
        });
        // Both creations fail with EEXIST — they commute, and the optimistic
        // existence check keeps them conflict-free.
        assert!(m.conflict_report().is_conflict_free());
    }

    fn two_names_in_distinct_buckets(dir: &HashDir<u64>) -> (String, String) {
        let a = "file-a".to_string();
        for i in 0..10_000 {
            let candidate = format!("file-{i}");
            if dir.bucket_of(&candidate) != dir.bucket_of(&a) {
                return (a, candidate);
            }
        }
        panic!("could not find names in distinct buckets");
    }
}
