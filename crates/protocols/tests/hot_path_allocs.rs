//! Dynamic counterpart of the lexical hot-path lint: the primitives a
//! served session calls on every operation must not touch the heap.
//!
//! A counting global allocator bumps a `const`-initialised thread-local
//! counter, so each test counts only its own thread's allocations and
//! the bounds stay exact while the harness runs tests in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use medsec_lwc::{hmac_sha256, sha256, sha256_hw_profile, Aes128, BlockCipher};
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::EnergyLedger;

/// System allocator wrapper that counts allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// Test-binary-only instrumentation.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counter_sees_this_threads_allocations() {
    let before = allocs();
    let v = std::hint::black_box(vec![1u8; 64]);
    assert_eq!(allocs() - before, 1);
    drop(v);
}

#[test]
fn sha256_and_hmac_do_not_allocate() {
    let message = [0x5au8; 300];
    let long_key = [0xa5u8; 100];
    let before = allocs();
    for len in [0, 1, 55, 56, 64, 119, 300] {
        std::hint::black_box(sha256(&message[..len]));
        std::hint::black_box(hmac_sha256(b"key", &message[..len]));
        std::hint::black_box(hmac_sha256(&long_key, &message[..len]));
    }
    assert_eq!(allocs() - before, 0, "sha256/hmac_sha256 allocated");
}

#[test]
fn ledger_booking_does_not_allocate() {
    let ecpm = EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0);
    let mut l = EnergyLedger::new(ecpm, RadioModel::first_order_default(), 10.0);
    let (aes, sha) = (Aes128::hw_profile(), sha256_hw_profile());
    let before = allocs();
    for i in 0..1_000usize {
        l.point_mul();
        l.symmetric("AES-128", &aes, 3);
        l.symmetric("SHA-256", &sha, 2);
        l.tx(i % 64);
        l.rx(i % 32);
        std::hint::black_box(l.total());
    }
    assert_eq!(allocs() - before, 0, "EnergyLedger booking allocated");
}
