//! The sharded, fingerprint-keyed solve cache.
//!
//! Entries map a *canonical cache key* (the budget-free wire rendering
//! of a problem, [`rotsched_core::wire::cache_key_text`]) to the
//! byte-exact response the solver produced for it. Each shard is keyed
//! by the key's 64-bit [`fingerprint_text`], which the caller has
//! already computed: the low bits select the shard and the shard's map
//! uses the value itself as its hash (it is already
//! splitmix-finalized), so a probe hashes nothing. The key text is
//! stored once, in the entry, and compared exactly on every hit, so a
//! hit can never serve another key's response. The fingerprint is
//! unkeyed, so a client could craft keys whose fingerprints share
//! bucket bits and lengthen probes; a probe still visits at most the
//! shard's entries, which the byte budget bounds, and every planted
//! entry costs its sender a solve.
//!
//! **Collision rule.** A shard holds at most one entry per fingerprint.
//! An insert whose fingerprint matches a resident entry with a
//! *different* key replaces that entry and counts it as an eviction;
//! the displaced key then misses and is re-solved on its next request,
//! which costs time but never changes bytes. The corpora's keys have
//! distinct fingerprints (`wire_roundtrip` pins this).
//!
//! Each shard is an LRU under its own byte budget (the configured total
//! split evenly). Recency is a monotone per-shard tick, stamped lazily:
//! a hit only stores the new tick in its entry. A `BTreeMap<tick,
//! fingerprint>` holds one *order record* per entry, filed under the
//! tick it carried when last filed. Eviction pops the oldest record; a
//! stale one (its entry was hit since) is filed again under the entry's
//! current tick, and the first fresh one is the victim. Every record
//! is filed at or before its entry's tick, so that victim is exactly
//! the least-recently-used entry — no linked lists, no unsafe. A hit
//! makes no tree edit, hashes no bytes and copies nothing: responses
//! are shared [`Arc<str>`] bytes.
//!
//! All costs are accounted in bytes, `2·key + response + 96` per entry,
//! so the budget bounds real memory, not entry counts. The charge is
//! conservative: it still counts the key twice, although the key is
//! now stored once and the order record holds only two integers, so
//! every eviction decision under every budget matches the earlier
//! layout that stored the key in both maps.
//!
//! [`fingerprint_text`]: rotsched_core::wire::fingerprint_text

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed per-entry bookkeeping charge (map slot, order record, ticks,
/// lengths).
const ENTRY_OVERHEAD: usize = 96;

/// Hashes a fingerprint to itself, halves swapped: the low half chose
/// the shard and is constant within it, and the map picks buckets from
/// the low bits of its hash.
#[derive(Default)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("shard maps hash only u64 fingerprints");
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint.rotate_left(32);
    }
}

/// A point-in-time summary of cache contents and churn.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Live entries across all shards.
    pub entries: u64,
    /// Accounted bytes across all shards.
    pub bytes: u64,
    /// Total insertions accepted.
    pub insertions: u64,
    /// Entries evicted to stay under the byte budget, or displaced by
    /// a different key with the same fingerprint.
    pub evictions: u64,
    /// Insertions rejected because a single entry exceeded a whole
    /// shard's budget.
    pub rejected: u64,
}

#[derive(Debug)]
struct Entry {
    key: String,
    response: Arc<str>,
    /// The tick of the entry's last insert or hit.
    tick: u64,
    /// The tick its order record is filed under (at most `tick`).
    filed: u64,
    cost: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u64, Entry, BuildHasherDefault<FingerprintHasher>>,
    /// One order record per entry: filed tick → fingerprint.
    order: BTreeMap<u64, u64>,
    tick: u64,
    bytes: usize,
}

impl Shard {
    fn touch(&mut self, fingerprint: u64, key: &str) -> Option<Arc<str>> {
        let entry = self.map.get_mut(&fingerprint)?;
        if entry.key != key {
            return None;
        }
        self.tick += 1;
        entry.tick = self.tick;
        Some(Arc::clone(&entry.response))
    }

    fn insert(
        &mut self,
        fingerprint: u64,
        key: String,
        response: Arc<str>,
        budget: usize,
    ) -> Option<u64> {
        let cost = 2 * key.len() + response.len() + ENTRY_OVERHEAD;
        if cost > budget {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        let mut evicted = 0_u64;
        let entry = Entry {
            key,
            response,
            tick,
            filed: tick,
            cost,
        };
        if let Some(old) = self.map.get(&fingerprint) {
            // A re-insert of the same key replaces it silently; a
            // different key under the same fingerprint displaces it.
            evicted += u64::from(old.key != entry.key);
            self.bytes -= old.cost;
            self.order.remove(&old.filed);
        }
        self.map.insert(fingerprint, entry);
        self.order.insert(tick, fingerprint);
        self.bytes += cost;
        while self.bytes > budget {
            let (filed, victim) = self
                .order
                .pop_first()
                .expect("a shard over budget holds at least one entry");
            let entry = self.map.get_mut(&victim).expect("order mirrors the map");
            if entry.tick != filed {
                // Hit since it was filed: file it again where it stands.
                entry.filed = entry.tick;
                self.order.insert(entry.tick, victim);
                continue;
            }
            self.bytes -= entry.cost;
            self.map.remove(&victim);
            evicted += 1;
        }
        Some(evicted)
    }
}

/// A sharded LRU response cache under a global byte budget.
#[derive(Debug)]
pub struct SolveCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    insertions: AtomicU64,
    evictions: AtomicU64,
    rejected: AtomicU64,
}

impl SolveCache {
    /// Creates a cache of `shards` shards (rounded up to a power of
    /// two, minimum 1) splitting `byte_budget` evenly.
    #[must_use]
    pub fn new(shards: usize, byte_budget: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        SolveCache {
            shard_budget: byte_budget / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        &self.shards[(fingerprint as usize) & (self.shards.len() - 1)]
    }

    /// Looks up the response cached for `key`, refreshing its recency.
    /// `fingerprint` must be the key's [`fingerprint_text`]: it selects
    /// the shard and the entry, and the key is then compared exactly.
    ///
    /// [`fingerprint_text`]: rotsched_core::wire::fingerprint_text
    #[must_use]
    pub fn get(&self, fingerprint: u64, key: &str) -> Option<Arc<str>> {
        self.shard(fingerprint)
            .lock()
            .expect("cache shard poisoned")
            .touch(fingerprint, key)
    }

    /// Caches `response` under `key` (whose [`fingerprint_text`] is
    /// `fingerprint`), evicting least-recently-used entries as needed
    /// to stay within the shard's byte budget. An entry larger than a
    /// whole shard's budget is rejected rather than wiping the shard
    /// for a value that still cannot fit. A resident entry with the
    /// same fingerprint but another key is displaced and counted as an
    /// eviction (see the module docs).
    ///
    /// [`fingerprint_text`]: rotsched_core::wire::fingerprint_text
    pub fn insert(&self, fingerprint: u64, key: String, response: Arc<str>) {
        let evicted = self
            .shard(fingerprint)
            .lock()
            .expect("cache shard poisoned")
            .insert(fingerprint, key, response, self.shard_budget);
        if let Some(evicted) = evicted {
            self.insertions.fetch_add(1, Ordering::Relaxed);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Summarizes contents and churn across all shards.
    #[must_use]
    pub fn report(&self) -> CacheReport {
        let mut entries = 0_u64;
        let mut bytes = 0_u64;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheReport {
            entries,
            bytes,
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotsched_core::wire::fingerprint_text;

    /// Inserts `key → response` under the key's own fingerprint.
    fn put(cache: &SolveCache, key: &str, response: &str) {
        cache.insert(fingerprint_text(key), key.into(), response.into());
    }

    fn get(cache: &SolveCache, key: &str) -> Option<Arc<str>> {
        cache.get(fingerprint_text(key), key)
    }

    #[test]
    fn hit_returns_exact_response_and_miss_returns_none() {
        let cache = SolveCache::new(4, 1 << 16);
        put(&cache, "k1", "r1");
        put(&cache, "k3", "r3");
        assert_eq!(get(&cache, "k1").as_deref(), Some("r1"));
        assert_eq!(get(&cache, "k3").as_deref(), Some("r3"));
        assert_eq!(get(&cache, "k2"), None);
        // The fingerprint selects the entry, the key text decides the
        // hit: a foreign key under a resident's fingerprint misses.
        assert_eq!(cache.get(fingerprint_text("k1"), "k3"), None);
        // Two hits share one allocation: no copy per hit.
        let (a, b) = (get(&cache, "k1").unwrap(), get(&cache, "k1").unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        // One shard, budget for exactly two entries.
        let cache = SolveCache::new(1, 2 * (2 * 2 + 4 + ENTRY_OVERHEAD));
        put(&cache, "aa", "1111");
        put(&cache, "bb", "2222");
        let _ = get(&cache, "aa"); // refresh aa; bb is now oldest
        put(&cache, "cc", "3333");
        assert_eq!(get(&cache, "bb"), None);
        assert_eq!(get(&cache, "aa").as_deref(), Some("1111"));
        assert_eq!(get(&cache, "cc").as_deref(), Some("3333"));
        assert_eq!(cache.report().evictions, 1);
    }

    #[test]
    fn oversized_entry_is_rejected_not_cached() {
        let cache = SolveCache::new(1, 64);
        put(&cache, "k", &"x".repeat(1024));
        assert_eq!(get(&cache, "k"), None);
        let report = cache.report();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.entries, 0);
    }

    #[test]
    fn reinsert_replaces_without_double_accounting() {
        let cache = SolveCache::new(1, 1 << 16);
        put(&cache, "k", "first");
        put(&cache, "k", "second");
        let report = cache.report();
        assert_eq!(report.entries, 1);
        assert_eq!(report.evictions, 0);
        assert_eq!(get(&cache, "k").as_deref(), Some("second"));
        assert_eq!(
            report.bytes as usize,
            2 * "k".len() + "second".len() + ENTRY_OVERHEAD
        );
    }
}
