//! One supervised worker *process*: spawn, stdout protocol decoding,
//! heartbeat tracking, command delivery, stop/kill.
//!
//! The supervisor owns the only pipes to the child: commands go down
//! stdin ([`CMD_DRAIN`](crate::protocol::CMD_DRAIN)/[`CMD_STOP`]),
//! status comes up stdout as JSON lines decoded by
//! [`WorkerEvent::parse`] on a dedicated reader thread, stderr is
//! inherited (worker diagnostics and refused stdout lines land on the
//! fleet's own stderr). Death is observable three ways — `try_wait`
//! (the OS reaped it), stdout EOF (the pipe collapsed), or a stale
//! heartbeat — and the controller treats any of them as fatal for
//! routing purposes; there is no in-place restart, a dead worker's
//! keys re-route to survivors.
//!
//! The reader thread is deliberately the *only* writer of the shared
//! `WorkerState`, and the state mutex is held only for field
//! updates — never across a pipe read — so a wedged child can stall
//! its reader thread but never a supervisor querying liveness.

use crate::protocol::{EventError, WorkerEvent, CMD_STOP};
use occusense_serve::ServeReport;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the reader thread has learned from the worker's stdout.
#[derive(Debug, Default)]
struct WorkerState {
    ready: Option<BTreeMap<String, String>>,
    heartbeats: u64,
    last_heartbeat: Option<Instant>,
    reports: Vec<ServeReport>,
    truncated_reports: u64,
    draining: Vec<(String, u64)>,
    bye: bool,
    eof: bool,
}

/// Why a worker interaction failed.
#[derive(Debug)]
pub enum WorkerError {
    /// Spawning or talking to the child failed at the OS level.
    Io(io::Error),
    /// The worker exited or closed stdout before the awaited event.
    Died,
    /// The awaited event did not arrive within the deadline.
    TimedOut,
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "worker i/o: {e}"),
            WorkerError::Died => write!(f, "worker died before becoming ready"),
            WorkerError::TimedOut => write!(f, "worker deadline expired"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<io::Error> for WorkerError {
    fn from(e: io::Error) -> Self {
        WorkerError::Io(e)
    }
}

/// Everything a stopped (or killed) worker left behind.
#[derive(Debug)]
pub struct StoppedWorker {
    /// The worker's fleet name.
    pub name: String,
    /// Parsed per-tenant reports (empty for a killed worker).
    pub reports: Vec<ServeReport>,
    /// Lines cut off without their newline and `report` events that
    /// failed to decode — a kill mid-write counts here, never as a
    /// half-summed report.
    pub truncated_reports: u64,
    /// Whether the worker said `bye` and exited zero.
    pub clean: bool,
    /// Heartbeats observed over the worker's life.
    pub heartbeats: u64,
}

/// A live supervised worker process.
pub struct WorkerHandle {
    name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    state: Arc<Mutex<WorkerState>>,
    reader: Option<JoinHandle<()>>,
}

/// Locks the shared state, recovering from a poisoned mutex: the state
/// is plain data updated field-at-a-time, so the worst a panicked
/// reader can leave behind is a stale snapshot — same failure mode as
/// a wedged child, which every caller already tolerates.
fn lock_state(state: &Mutex<WorkerState>) -> std::sync::MutexGuard<'_, WorkerState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl WorkerHandle {
    /// Spawns `bin args…` with piped stdin/stdout and starts the
    /// stdout reader thread.
    ///
    /// # Errors
    ///
    /// Any OS-level spawn failure.
    pub fn spawn(name: &str, bin: &Path, args: &[String]) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child stdout was not piped"))?;
        let state = Arc::new(Mutex::new(WorkerState::default()));
        let reader = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("fleet-reader-{name}"))
                .spawn(move || read_stdout(BufReader::new(stdout), &state))?
        };
        Ok(Self {
            name: name.to_string(),
            child,
            stdin,
            state,
            reader: Some(reader),
        })
    }

    /// The worker's fleet name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Blocks until the worker prints its `ready` event, returning its
    /// per-tenant listen addresses.
    ///
    /// # Errors
    ///
    /// [`WorkerError::Died`] if stdout closes first,
    /// [`WorkerError::TimedOut`] past the deadline.
    pub fn await_ready(&self, timeout: Duration) -> Result<BTreeMap<String, String>, WorkerError> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let state = lock_state(&self.state);
                if let Some(ports) = &state.ready {
                    return Ok(ports.clone());
                }
                if state.eof {
                    return Err(WorkerError::Died);
                }
            }
            if Instant::now() >= deadline {
                return Err(WorkerError::TimedOut);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sends one command line down the worker's stdin.
    ///
    /// # Errors
    ///
    /// Pipe write failures (a dead worker's pipe is an error, which is
    /// the signal the caller wants).
    pub fn send(&mut self, command: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::other("worker stdin already closed"))?;
        writeln!(stdin, "{command}")?;
        stdin.flush()
    }

    /// Time since the last heartbeat (or spawn, before the first).
    pub fn heartbeat_age(&self) -> Option<Duration> {
        lock_state(&self.state).last_heartbeat.map(|t| t.elapsed())
    }

    /// Whether the process is still running and its stdout is open.
    pub fn is_alive(&mut self) -> bool {
        if lock_state(&self.state).eof {
            return false;
        }
        match self.child.try_wait() {
            Ok(None) => true,
            Ok(Some(_)) | Err(_) => false,
        }
    }

    /// Tenants the worker has reported as draining so far.
    pub fn draining(&self) -> Vec<(String, u64)> {
        lock_state(&self.state).draining.clone()
    }

    /// Asks the worker to stop, waits for exit, and collects its
    /// reports. A worker that ignores the deadline is killed; whatever
    /// its stdout carried by then is still returned.
    pub fn stop(mut self, timeout: Duration) -> StoppedWorker {
        // A dead pipe just means the worker is already gone; the wait
        // loop below settles it either way.
        let _ = self.send(CMD_STOP);
        // Closing stdin is the belt-and-braces stop: the worker treats
        // EOF as `stop`, so a worker that missed the line still exits.
        drop(self.stdin.take());
        let deadline = Instant::now() + timeout;
        let mut exited = false;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => {
                    exited = true;
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        if !exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.collect(exited)
    }

    /// Kills the process immediately (the chaos path — no stop, no
    /// drain, a torn report if the kill lands mid-write).
    pub fn kill(mut self) -> StoppedWorker {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.collect(false)
    }

    fn collect(&mut self, exited_in_time: bool) -> StoppedWorker {
        if let Some(reader) = self.reader.take() {
            // The child is reaped, so its stdout pipe hits EOF and the
            // reader finishes; a join failure means the reader
            // panicked, which `lock_state` already tolerates.
            let _ = reader.join();
        }
        let mut state = lock_state(&self.state);
        StoppedWorker {
            name: self.name.clone(),
            reports: std::mem::take(&mut state.reports),
            truncated_reports: state.truncated_reports,
            clean: exited_in_time && state.bye,
            heartbeats: state.heartbeats,
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        // A handle dropped without stop()/kill() must not leak the
        // process; reaping here keeps chaos tests from orphaning
        // children on assertion failures.
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The reader thread: decodes stdout lines into [`WorkerState`] until
/// EOF. `read_until`, not `lines()`, so a last line cut off before its
/// newline is seen as such (and a torn UTF-8 sequence is no I/O error).
fn read_stdout(mut stdout: impl BufRead, state: &Mutex<WorkerState>) {
    let mut buf = Vec::new();
    while let Ok(1..) = stdout.read_until(b'\n', &mut buf) {
        let complete = buf.pop_if(|b| *b == b'\n').is_some();
        let line = String::from_utf8_lossy(&buf);
        apply(state, WorkerEvent::parse(&line, complete));
        buf.clear();
    }
    lock_state(state).eof = true;
}

fn apply(state: &Mutex<WorkerState>, event: WorkerEvent) {
    let mut s = lock_state(state);
    match event {
        WorkerEvent::Ready(ports) => s.ready = Some(ports),
        WorkerEvent::Heartbeat(_) => {
            s.heartbeats += 1;
            s.last_heartbeat = Some(Instant::now());
        }
        WorkerEvent::Draining { tenant, live } => s.draining.push((tenant, live)),
        WorkerEvent::Report(report) => s.reports.push(*report),
        WorkerEvent::Bye => s.bye = true,
        WorkerEvent::Refused {
            error: EventError::Truncated | EventError::Report(_),
            ..
        } => s.truncated_reports += 1,
        WorkerEvent::Refused { line, error } => {
            eprintln!("fleet: refused worker line ({error}): {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(stream: &str) -> WorkerState {
        let state = Mutex::new(WorkerState::default());
        read_stdout(stream.as_bytes(), &state);
        state.into_inner().unwrap()
    }

    #[test]
    fn a_report_cut_before_its_newline_is_truncated_never_absorbed() {
        let report = ServeReport {
            tenant: "acme".into(),
            ..ServeReport::default()
        };
        let stream = format!(
            "{}\n{}",
            WorkerEvent::Heartbeat(0).to_line(),
            WorkerEvent::Report(Box::new(report)).to_line()
        );
        // The worker died after the report's last byte, before its
        // newline.
        let torn = read(&stream);
        assert_eq!(torn.heartbeats, 1);
        assert_eq!(torn.truncated_reports, 1);
        assert!(torn.reports.is_empty());
        assert!(torn.eof);
        // With the newline it is one clean report.
        let whole = read(&format!("{stream}\n"));
        assert_eq!(whole.truncated_reports, 0);
        assert_eq!(whole.reports.len(), 1);
    }
}
