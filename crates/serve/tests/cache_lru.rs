//! `SolveCache` against a reference exact-LRU model.
//!
//! The cache stamps recency lazily (a hit only stores a tick; eviction
//! re-files stale order records), and the claim is that it still
//! evicts exactly the least-recently-used entry. The model here is the
//! plainest exact LRU there is — per shard, a `Vec` ordered
//! oldest-first — under the same `2·key + response + 96` charge. A
//! seeded stream of gets, inserts, re-inserts and oversized inserts
//! under tight budgets drives both; after every step each `get` answer
//! and every `CacheReport` counter must agree.

use rotsched_core::wire::fingerprint_text;
use rotsched_serve::{CacheReport, SolveCache};

/// The per-entry charge the cache documents.
fn cost(key: &str, response: &str) -> usize {
    2 * key.len() + response.len() + 96
}

/// Exact LRU: per shard, entries oldest-first.
struct Model {
    shards: Vec<Vec<(String, String)>>,
    shard_budget: usize,
    report: CacheReport,
}

impl Model {
    fn new(shards: usize, byte_budget: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        Model {
            shards: vec![Vec::new(); shards],
            shard_budget: byte_budget / shards,
            report: CacheReport::default(),
        }
    }

    fn shard(&mut self, key: &str) -> &mut Vec<(String, String)> {
        let mask = self.shards.len() - 1;
        &mut self.shards[(fingerprint_text(key) as usize) & mask]
    }

    fn get(&mut self, key: &str) -> Option<String> {
        let shard = self.shard(key);
        let at = shard.iter().position(|(k, _)| k == key)?;
        let entry = shard.remove(at);
        shard.push(entry.clone());
        Some(entry.1)
    }

    fn insert(&mut self, key: &str, response: &str) {
        let budget = self.shard_budget;
        if cost(key, response) > budget {
            self.report.rejected += 1;
            return;
        }
        let shard = self.shard(key);
        shard.retain(|(k, _)| k != key);
        shard.push((key.to_owned(), response.to_owned()));
        let mut evicted = 0;
        while shard.iter().map(|(k, r)| cost(k, r)).sum::<usize>() > budget {
            shard.remove(0);
            evicted += 1;
        }
        self.report.insertions += 1;
        self.report.evictions += evicted;
        self.report.entries = self.shards.iter().map(|s| s.len() as u64).sum();
        self.report.bytes = (self.shards.iter().flatten())
            .map(|(k, r)| cost(k, r) as u64)
            .sum();
    }
}

/// SplitMix64: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

#[test]
fn lazily_stamped_lru_matches_an_exact_lru_model() {
    let keys: Vec<String> = (0..24)
        .map(|i| format!("dfg k{i}\n{}", "node v add 1\n".repeat(i % 5)))
        .collect();
    for seed in 1..=6_u64 {
        for shards in [1, 2, 4] {
            // Room for roughly two to five entries per shard, so the
            // stream evicts on most inserts.
            // An entry costs 120 to 300 bytes: room for one to four.
            let per_shard = 300 + (seed as usize % 3) * 120;
            let budget = per_shard * shards;
            let cache = SolveCache::new(shards, budget);
            let mut model = Model::new(shards, budget);
            let mut rng = Rng(seed * 1000 + shards as u64);
            for step in 0..3000 {
                // Skewed toward the first keys, so hits are common.
                let span = rng.below(keys.len()) + 1;
                let key = &keys[rng.below(span)];
                let fingerprint = fingerprint_text(key);
                match rng.below(10) {
                    0..=5 => {
                        let got = cache.get(fingerprint, key);
                        assert_eq!(
                            got.as_deref(),
                            model.get(key).as_deref(),
                            "seed {seed} shards {shards} step {step}: get {key:?}"
                        );
                    }
                    6..=8 => {
                        let response = format!("r{step}-{}", "x".repeat(rng.below(40)));
                        cache.insert(fingerprint, key.clone(), response.as_str().into());
                        model.insert(key, &response);
                    }
                    _ => {
                        // Larger than a whole shard: rejected outright.
                        let response = "y".repeat(per_shard);
                        cache.insert(fingerprint, key.clone(), response.as_str().into());
                        model.insert(key, &response);
                    }
                }
                assert_eq!(
                    cache.report(),
                    model.report,
                    "seed {seed} shards {shards} step {step}: counters diverged"
                );
            }
            assert!(model.report.evictions > 100, "the budget must bite");
        }
    }
}

#[test]
fn a_forced_fingerprint_collision_displaces_the_resident_entry() {
    let (old, new) = ("dfg old\n", "dfg new\n");
    let fingerprint = fingerprint_text(old);
    let cache = SolveCache::new(4, 1 << 16);
    cache.insert(fingerprint, old.into(), "r-old".into());
    // Another key filed under the same fingerprint.
    cache.insert(fingerprint, new.into(), "r-new".into());
    assert_eq!(
        cache.get(fingerprint, old),
        None,
        "the displaced key misses"
    );
    assert_eq!(cache.get(fingerprint, new).as_deref(), Some("r-new"));
    assert_eq!(
        cache.report(),
        CacheReport {
            entries: 1,
            bytes: cost(new, "r-new") as u64,
            insertions: 2,
            evictions: 1,
            rejected: 0,
        }
    );
}
