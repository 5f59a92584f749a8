//! Fixture twin: kernel-style code with no raw thread creation — the
//! row walk runs on the calling thread — plus the decoys the
//! tokenizer must see through: `thread::spawn` inside strings and
//! comments, and idents that merely *contain* the banned names.

pub fn row_blocks(rows: usize, threads: usize) -> usize {
    // The real kernels walk every row block inline; modelling that
    // shape here: plain arithmetic, no thread::spawn in sight (and
    // this comment must not count as one).
    let per = rows.div_ceil(threads.max(1));
    per * threads
}

pub fn decoys() -> String {
    let s = "calling thread::spawn or thread::scope in a string";
    let raw = r#"thread::Builder::new() inside a raw string"#;
    /* block comment: thread::spawn(|| {}) */
    format!("{s}{raw}")
}

pub fn lookalike_idents() {
    fn thread_count() -> usize {
        1
    }
    fn spawn_rate() -> usize {
        2
    }
    let threads = thread_count();
    let spawned = spawn_rate();
    assert!(threads < spawned);
}
