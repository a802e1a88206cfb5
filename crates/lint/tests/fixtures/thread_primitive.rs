// Fixture: concurrency primitives outside ph-core::parallel. Linted as if
// at crates/core/src/fixture.rs (NOT the parallel.rs carve-out).

use std::sync::Mutex;

pub fn racy() {
    let flag = std::sync::atomic::AtomicBool::new(false);
    let handle = std::thread::spawn(move || {});
    let _ = (flag, handle);
}

pub struct Shared {
    inner: Mutex<Vec<u64>>,
}

pub struct Counted {
    // Arc trips the rule: single-threaded sim code shares with Rc.
    wide: std::sync::Arc<[u8]>,
    // Rc is the sanctioned sharing primitive and stays clean.
    narrow: std::rc::Rc<str>,
}

// A thread-local outlives the world that wrote it.
thread_local! {
    static CARRIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}
