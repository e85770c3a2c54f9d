//! One bounded, concurrent memo for every cache in the estimator stack.
//!
//! The estimator is called again and again inside a floorplanner's loop,
//! so maestro memoizes at several layers: netlist resolution
//! ([`crate::StatsCache`]), whole estimate records, serve-side module
//! parses and warm annealing seeds. Each of them is a [`Memo`], so every
//! cache evicts and reports the same way:
//!
//! * **compute once per key** ([`Memo::get_or_insert_with`]): racing
//!   callers of one key share an [`OnceLock`] slot, so the loser blocks
//!   until the winner's value lands instead of duplicating the work, and
//!   the compute runs outside the map lock, so distinct keys never
//!   serialize against each other;
//! * **plain [`Memo::get`] / [`Memo::insert`]** for callers that decide
//!   after the lookup whether (and what) to store;
//! * **LRU batch eviction**: an insertion that would exceed the cap drops
//!   the least-recently-used eighth of the entries (at least one), never
//!   an in-flight slot another thread may be blocked on;
//! * **uniform counters**: [`MemoStats`] snapshots, plus
//!   `<name>.hits` / `<name>.misses` / `<name>.evictions` trace counters.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use maestro_trace as trace;

/// Counter snapshot of a [`Memo`] (or of any cache reporting the same
/// way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that found no value (and, for
    /// [`Memo::get_or_insert_with`], computed one).
    pub misses: u64,
    /// Entries dropped by the capacity bound since construction.
    pub evictions: u64,
    /// Entries currently held (including in-flight slots).
    pub entries: usize,
}

impl MemoStats {
    /// Hit/miss/eviction growth since an `earlier` snapshot of the same
    /// memo. `entries` carries the current level (it is not a monotonic
    /// counter). Saturates if the snapshots are swapped.
    #[must_use]
    pub fn delta_since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// One memo slot plus the logical clock of its most recent use. An empty
/// slot is in flight: its compute is running (or panicked and left the
/// key to the next caller).
#[derive(Debug)]
struct Entry<V> {
    slot: Arc<OnceLock<V>>,
    last_used: AtomicU64,
}

/// A bounded concurrent memo from `K` to `V`, named after the trace
/// counters it emits.
///
/// # Examples
///
/// ```
/// use maestro_netlist::Memo;
///
/// let memo: Memo<u32, String> = Memo::new("example", 64);
/// assert_eq!(memo.get_or_insert_with(7, || "seven".to_owned()), "seven");
/// // The second lookup is served without running the closure.
/// assert_eq!(memo.get_or_insert_with(7, || unreachable!()), "seven");
/// assert_eq!(memo.get(&8), None);
/// let stats = memo.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
/// ```
#[derive(Debug)]
pub struct Memo<K, V> {
    map: RwLock<HashMap<K, Entry<V>>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// `<name>.hits`, `<name>.misses`, `<name>.evictions`.
    counters: [String; 3],
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `capacity` completed entries
    /// (clamped to at least 1), reporting under the trace counter prefix
    /// `name`.
    pub fn new(name: &str, capacity: usize) -> Self {
        Memo {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            counters: [
                format!("{name}.hits"),
                format!("{name}.misses"),
                format!("{name}.evictions"),
            ],
        }
    }

    /// The value for `key`, running `compute` only if no caller has
    /// stored one. Concurrent callers of one key run `compute` exactly
    /// once between them; a `compute` that panics leaves the key to the
    /// next caller and counts neither a hit nor a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let found = {
            let map = self.map.read().expect("memo poisoned");
            map.get(&key).map(|entry| {
                entry.last_used.store(now, Ordering::Relaxed);
                Arc::clone(&entry.slot)
            })
        };
        let slot = match found {
            Some(slot) => slot,
            None => {
                let mut map = self.map.write().expect("memo poisoned");
                self.make_room(&mut map, &key);
                let entry = map.entry(key).or_insert_with(|| Entry {
                    slot: Arc::default(),
                    last_used: AtomicU64::new(now),
                });
                entry.last_used.store(now, Ordering::Relaxed);
                Arc::clone(&entry.slot)
            }
        };
        // Outside the map lock: same-key callers block here until the one
        // winning closure finishes.
        let mut computed = false;
        let value = slot
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        self.count(!computed);
        value
    }

    /// The stored value for `key`, if any, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let found = {
            let map = self.map.read().expect("memo poisoned");
            map.get(key).and_then(|entry| {
                entry.last_used.store(now, Ordering::Relaxed);
                entry.slot.get().cloned()
            })
        };
        self.count(found.is_some());
        found
    }

    /// Stores (or replaces) the value for `key`, evicting first if the
    /// memo is at capacity.
    pub fn insert(&self, key: K, value: V) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.write().expect("memo poisoned");
        self.make_room(&mut map, &key);
        map.insert(
            key,
            Entry {
                slot: Arc::new(OnceLock::from(value)),
                last_used: AtomicU64::new(now),
            },
        );
    }

    /// Counter snapshot (the monotonic counters are read `Relaxed`; exact
    /// only in quiescence, indicative under concurrency).
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.map.read().expect("memo poisoned").len(),
        }
    }

    fn count(&self, hit: bool) {
        let (counter, name) = if hit {
            (&self.hits, &self.counters[0])
        } else {
            (&self.misses, &self.counters[1])
        };
        counter.fetch_add(1, Ordering::Relaxed);
        trace::counter(name, 1);
    }

    /// Before inserting a new `key` into a full map, drops the
    /// least-recently-used batch of completed entries. Runs under the
    /// write lock, so no stamp moves during victim selection; ticks are
    /// unique, so the cutoff stamp selects exactly the batch.
    fn make_room(&self, map: &mut HashMap<K, Entry<V>>, key: &K) {
        if map.len() < self.capacity || map.contains_key(key) {
            return;
        }
        let mut stamps: Vec<u64> = map
            .values()
            .filter(|entry| entry.slot.get().is_some())
            .map(|entry| entry.last_used.load(Ordering::Relaxed))
            .collect();
        let batch = (self.capacity / 8).max(1).min(stamps.len());
        if batch == 0 {
            return;
        }
        let cutoff = *stamps.select_nth_unstable(batch - 1).1;
        let before = map.len();
        map.retain(|_, entry| {
            entry.slot.get().is_none() || entry.last_used.load(Ordering::Relaxed) > cutoff
        });
        let evicted = (before - map.len()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        trace::counter(&self.counters[2], evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    #[test]
    fn lru_batch_eviction_drops_the_least_recently_used() {
        // Capacity 2: batches of one, the oldest untouched entry goes.
        let memo = Memo::new("test", 2);
        memo.insert(1, 'a');
        memo.get_or_insert_with(2, || 'b');
        // Touch 1 so 2 is the LRU victim.
        assert_eq!(memo.get(&1), Some('a'));
        memo.insert(3, 'c');
        let stats = memo.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        assert_eq!(memo.get(&1), Some('a'));
        assert_eq!(memo.get(&2), None, "LRU entry evicted");
        assert_eq!(memo.get(&3), Some('c'));

        // Capacity 16: one insertion past the cap drops an eighth (two
        // entries), the two least recently used.
        let memo = Memo::new("test", 16);
        for k in 0..16 {
            memo.insert(k, k);
        }
        memo.get(&0);
        memo.get_or_insert_with(1, || unreachable!());
        memo.insert(16, 16);
        let stats = memo.stats();
        assert_eq!((stats.evictions, stats.entries), (2, 15));
        for k in [2, 3] {
            assert_eq!(memo.get(&k), None, "key {k} was least recently used");
        }
        for k in [0, 1, 4, 15, 16] {
            assert_eq!(memo.get(&k), Some(k));
        }
    }

    #[test]
    fn an_in_flight_slot_is_never_evicted() {
        let memo: Memo<u32, u32> = Memo::new("test", 2);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let memo = &memo;
            let pending = scope.spawn(move || {
                memo.get_or_insert_with(1, || {
                    started_tx.send(()).expect("main thread listens");
                    release_rx.recv().expect("main thread releases");
                    10
                })
            });
            started_rx.recv().expect("compute started");
            // Key 1 is in flight, the oldest entry and the only one not
            // yet computed; filling past the cap must evict 2 instead.
            memo.insert(2, 20);
            memo.insert(3, 30);
            assert_eq!(memo.stats().evictions, 1);
            assert_eq!(memo.get(&2), None);
            release_tx.send(()).expect("compute waits");
            assert_eq!(pending.join().expect("compute finishes"), 10);
        });
        assert_eq!(memo.get(&1), Some(10));
        assert_eq!(memo.get(&3), Some(30));
    }

    #[test]
    fn a_panicking_compute_leaves_the_key_to_the_next_caller() {
        let memo: Memo<u32, u32> = Memo::new("test", 8);
        memo.insert(2, 20);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_insert_with(1, || panic!("compute failed"))
        }));
        assert!(outcome.is_err());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // The memo still answers other keys, and the next caller of the
        // failed key computes it.
        assert_eq!(memo.get(&2), Some(20));
        assert_eq!(memo.get_or_insert_with(1, || 10), 10);
        assert_eq!(memo.get_or_insert_with(1, || unreachable!()), 10);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn delta_since_subtracts_and_saturates() {
        let a = MemoStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            entries: 3,
        };
        let b = MemoStats {
            hits: 12,
            misses: 4,
            evictions: 3,
            entries: 5,
        };
        assert_eq!(
            b.delta_since(&a),
            MemoStats {
                hits: 2,
                misses: 0,
                evictions: 2,
                entries: 5
            }
        );
        assert_eq!(a.delta_since(&b).hits, 0, "swapped snapshots saturate");
    }
}
