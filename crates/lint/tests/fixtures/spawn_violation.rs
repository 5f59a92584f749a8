//! Fixture: every raw thread-creation path the `spawn` rule must
//! catch inside the single-threaded tensor kernels.

use std::thread;

pub fn scoped_spawn_site(work: &[f64]) -> f64 {
    let mut total = 0.0;
    thread::scope(|s| {
        for chunk in work.chunks(4) {
            s.spawn(move || chunk.iter().sum::<f64>());
        }
    });
    total += 1.0;
    total
}

pub fn detached_spawn_site() {
    thread::spawn(|| 1 + 1);
}

pub fn builder_site() {
    let _ = thread::Builder::new().name("rogue-worker".into());
}
