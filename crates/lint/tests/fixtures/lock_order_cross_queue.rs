//! Cross-file lock-order fixture, queue half: `refill` takes this
//! file's `state` and then the reactor file's `ctrl` — the opposite
//! order from `drain` in the reactor half.

use std::sync::Mutex;

pub struct QueueShared {
    state: Mutex<Inner>,
}

pub fn refill(q: &QueueShared, s: &ReactorShared) {
    let mut state = q.state.lock().unwrap();
    let ctrl = s.ctrl.lock().unwrap();
    state.pending = *ctrl as usize;
}
