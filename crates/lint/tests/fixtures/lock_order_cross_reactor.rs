//! Cross-file lock-order fixture, reactor half: `drain` takes this
//! file's `ctrl` and then the queue file's `state`. Neither file is a
//! violation alone; together they invert.

use std::sync::Mutex;

pub struct ReactorShared {
    ctrl: Mutex<u64>,
}

pub fn drain(s: &ReactorShared, q: &QueueShared) {
    let mut ctrl = s.ctrl.lock().unwrap();
    let state = q.state.lock().unwrap();
    *ctrl += state.pending as u64;
}
