//! A bounded in-process byte pipe: the substrate under the loopback
//! transport.
//!
//! The previous loopback moved whole encoded frames as `Vec<u8>`
//! messages over an unbounded `mpsc` channel — one heap allocation per
//! frame and no backpressure. This pipe is a fixed-capacity ring of raw
//! bytes instead, which buys three things at once:
//!
//! * **zero per-frame allocation** — senders copy into the ring,
//!   receivers copy out of it; the ring itself is allocated once;
//! * **real backpressure** — a full ring reports would-block, so
//!   loopback soaks exercise the same flow-control paths as TCP;
//! * **a non-blocking edge** — [`PipeReader::try_read`] /
//!   [`PipeWriter::try_write_vectored`] never park, which is the shape
//!   the poll face of both the gateway's reactor and the client needs.
//!
//! Close semantics mirror sockets: dropping the writer yields EOF at
//! the reader once the ring drains; dropping the reader makes writes
//! fail like `BrokenPipe`.

use std::io::IoSlice;
use std::sync::{Arc, Mutex, PoisonError};

/// Default ring capacity: comfortably above the largest legal frame
/// (a full 512-record batch is ~276 KiB) so no single frame can
/// deadlock a pipe whose reader is keeping up.
pub const DEFAULT_PIPE_CAPACITY: usize = 512 * 1024;

struct State {
    buf: Vec<u8>,
    /// Index of the first unread byte.
    head: usize,
    /// Unread byte count (`<= buf.len()`).
    len: usize,
    writer_gone: bool,
    reader_gone: bool,
}

/// What a non-blocking read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRead {
    /// `n > 0` bytes were copied out.
    Read(usize),
    /// The ring is empty but the writer is still alive.
    Empty,
    /// The ring is empty and the writer is gone: end of stream.
    Eof,
}

/// What a non-blocking write observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryWrite {
    /// `n > 0` bytes were copied in (possibly fewer than offered).
    Wrote(usize),
    /// The ring is full; try again after the reader drains.
    Full,
    /// The reader is gone; every byte written now would be lost.
    Closed,
}

/// Creates a bounded byte pipe. `capacity` is clamped to at least one
/// byte.
pub fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    let shared = Arc::new(Mutex::new(State {
        buf: vec![0u8; capacity.max(1)],
        head: 0,
        len: 0,
        writer_gone: false,
        reader_gone: false,
    }));
    (
        PipeWriter {
            shared: Arc::clone(&shared),
        },
        PipeReader { shared },
    )
}

// The pipe is an internal transport substrate with no user code inside
// its critical sections; a poisoned mutex here only means a peer thread
// died mid-copy, and the byte ring is still structurally valid (head /
// len are updated before unlocking), so both ends recover the guard and
// keep going rather than amplifying the crash.
fn lock(shared: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Copies as much of `bufs` as fits into the ring. Returns bytes
/// copied.
fn ring_write(state: &mut State, bufs: &[IoSlice<'_>]) -> usize {
    let capacity = state.buf.len();
    let mut wrote = 0usize;
    for slice in bufs {
        let mut src: &[u8] = slice;
        while !src.is_empty() && state.len < capacity {
            let tail = (state.head + state.len) % capacity;
            // Contiguous writable run starting at `tail`: to the end of
            // the ring, capped by the free space (which ends at `head`
            // when the data has wrapped).
            let free = capacity - state.len;
            let contiguous = (capacity - tail).min(free);
            let n = src.len().min(contiguous);
            if n == 0 {
                break;
            }
            // `n ≤ src.len()` by the `min` above, so the split cannot
            // fall out of bounds.
            let (chunk, rest) = src.split_at(n);
            if let Some(dst) = state.buf.get_mut(tail..tail + n) {
                dst.copy_from_slice(chunk);
            }
            state.len += n;
            wrote += n;
            src = rest;
        }
        if state.len == capacity {
            break;
        }
    }
    wrote
}

/// Copies up to `out.len()` bytes out of the ring. Returns bytes
/// copied.
fn ring_read(state: &mut State, out: &mut [u8]) -> usize {
    let capacity = state.buf.len();
    let mut read = 0usize;
    while read < out.len() && state.len > 0 {
        let contiguous = (capacity - state.head).min(state.len);
        let n = contiguous.min(out.len() - read);
        if n == 0 {
            break;
        }
        if let (Some(dst), Some(src)) = (
            out.get_mut(read..read + n),
            state.buf.get(state.head..state.head + n),
        ) {
            dst.copy_from_slice(src);
        }
        state.head = (state.head + n) % capacity;
        state.len -= n;
        read += n;
    }
    read
}

/// The writing end of a [`pipe`].
pub struct PipeWriter {
    shared: Arc<Mutex<State>>,
}

impl PipeWriter {
    /// Non-blocking vectored write: copies as much of `bufs` as fits,
    /// never parks.
    pub fn try_write_vectored(&self, bufs: &[IoSlice<'_>]) -> TryWrite {
        let mut state = lock(&self.shared);
        if state.reader_gone {
            return TryWrite::Closed;
        }
        match ring_write(&mut state, bufs) {
            0 => TryWrite::Full,
            wrote => TryWrite::Wrote(wrote),
        }
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        lock(&self.shared).writer_gone = true;
    }
}

/// The reading end of a [`pipe`].
pub struct PipeReader {
    shared: Arc<Mutex<State>>,
}

impl PipeReader {
    /// Non-blocking read: copies whatever is buffered, never parks.
    pub fn try_read(&self, out: &mut [u8]) -> TryRead {
        let mut state = lock(&self.shared);
        let read = ring_read(&mut state, out);
        if read > 0 {
            TryRead::Read(read)
        } else if state.writer_gone && state.len == 0 {
            TryRead::Eof
        } else {
            TryRead::Empty
        }
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        lock(&self.shared).reader_gone = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_all(w: &PipeWriter, bytes: &[u8]) {
        assert_eq!(
            w.try_write_vectored(&[IoSlice::new(bytes)]),
            TryWrite::Wrote(bytes.len())
        );
    }

    #[test]
    fn bytes_round_trip_across_the_ring_seam() {
        let (w, r) = pipe(8);
        // Fill, drain partially, refill: forces head to wrap.
        write_all(&w, &[1, 2, 3, 4, 5, 6]);
        let mut out = [0u8; 4];
        assert_eq!(r.try_read(&mut out), TryRead::Read(4));
        assert_eq!(out, [1, 2, 3, 4]);
        write_all(&w, &[7, 8, 9, 10, 11, 12]);
        let mut rest = [0u8; 8];
        assert_eq!(r.try_read(&mut rest), TryRead::Read(8));
        assert_eq!(rest, [5, 6, 7, 8, 9, 10, 11, 12]);
    }

    #[test]
    fn nonblocking_calls_never_park_and_report_peer_loss() {
        let (w, r) = pipe(4);
        let mut out = [0u8; 4];
        assert_eq!(r.try_read(&mut out), TryRead::Empty);
        assert_eq!(
            w.try_write_vectored(&[IoSlice::new(&[1, 2])]),
            TryWrite::Wrote(2)
        );
        assert_eq!(
            w.try_write_vectored(&[IoSlice::new(&[3, 4]), IoSlice::new(&[5])]),
            TryWrite::Wrote(2)
        );
        assert_eq!(w.try_write_vectored(&[IoSlice::new(&[6])]), TryWrite::Full);
        assert_eq!(r.try_read(&mut out), TryRead::Read(4));
        drop(w);
        assert_eq!(r.try_read(&mut out), TryRead::Eof);
    }

    #[test]
    fn dropping_the_reader_breaks_the_writer() {
        let (w, r) = pipe(4);
        drop(r);
        assert_eq!(
            w.try_write_vectored(&[IoSlice::new(&[1])]),
            TryWrite::Closed
        );
    }

    #[test]
    fn eof_only_after_the_ring_drains() {
        let (w, r) = pipe(8);
        write_all(&w, &[9, 9]);
        drop(w);
        assert_eq!(r.try_read(&mut []), TryRead::Empty, "bytes still buffered");
        let mut out = [0u8; 8];
        assert_eq!(r.try_read(&mut out), TryRead::Read(2));
        assert_eq!(r.try_read(&mut out), TryRead::Eof);
    }
}
