//! A warm hit allocates nothing, enforced by a counting global
//! allocator.
//!
//! After one pass over the corpus fills the cache, every canonical
//! payload (one already in cache-key form) is answered from the cache:
//! one payload hash, one shard probe confirmed by an exact key compare,
//! one recency stamp and one shared-bytes clone. None of that touches
//! the heap, so the count is an exact gate where wall time is noisy.
//!
//! Everything is measured inside ONE `#[test]`: the counter is global,
//! and the harness runs separate tests on separate threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rotsched_core::wire::{cache_key_text, parse_problem};
use rotsched_serve::{seeded_corpus, Handled, ServeConfig, SolveService};

/// Counts every allocation and reallocation on top of the system
/// allocator (frees are irrelevant to the zero-alloc claim).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_hits_allocate_nothing_and_share_the_cached_bytes() {
    let docs = seeded_corpus(1, 256);
    let payloads: Vec<String> = docs.iter().map(|doc| format!("solve\n{doc}")).collect();
    let canonical: Vec<&str> = docs
        .iter()
        .zip(&payloads)
        .filter(|(doc, _)| cache_key_text(&parse_problem(doc).expect("corpus parses")) == **doc)
        .map(|(_, payload)| payload.as_str())
        .collect();
    // Every unlimited problem (all but each eighth) is canonical.
    assert_eq!(canonical.len(), 224);

    let service = SolveService::new(ServeConfig::default());
    for payload in &payloads {
        let _ = service.handle(payload);
    }

    let hits = service.counters().cache_hits;
    let before = ALLOCS.load(Ordering::Relaxed);
    for payload in &canonical {
        black_box(service.handle(payload));
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(service.counters().cache_hits - hits, 224);
    assert_eq!(allocated, 0, "224 warm hits allocated {allocated} times");

    let (Handled::Reply(a), Handled::Reply(b)) =
        (service.handle(canonical[0]), service.handle(canonical[0]))
    else {
        panic!("a solve is answered with a reply");
    };
    assert!(Arc::ptr_eq(&a, &b), "two hits on one key share one buffer");
}
