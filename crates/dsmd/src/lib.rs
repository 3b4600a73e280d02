//! # dsm-daemon
//!
//! `dsmd` — a long-running, multi-tenant *simulation-as-a-service*
//! daemon for the PLDI'97 data-distribution reproduction. Clients
//! (`dsmfc --remote=SOCK`, tests, benches, or anything that can write a
//! line of JSON to a Unix socket) submit compile/run/advise requests;
//! the daemon amortizes the two big per-request costs across tenants:
//!
//! * **compilation and lowering** — a content-addressed, byte-bounded
//!   LRU [`cache::ProgramCache`] keyed on a source hash plus optimization
//!   flags, checked against the stored sources on every hit; a cached
//!   program keeps the bytecode its first run lowered;
//! * **machine construction** — a [`pool::MachinePool`] of simulated
//!   machines, each restored bit-identically to its pristine
//!   `MachineSnapshot` between runs (page table, directory, word
//!   store, counters), so a pooled run is indistinguishable from a
//!   fresh-machine run.
//!
//! Requests flow through a bounded priority [`sched::Scheduler`]
//! drained by a small worker pool — plain threads, `Mutex` and
//! `Condvar`, no async runtime, matching the threading style of
//! `advisor::search`. A full queue answers `daemon.overloaded`
//! immediately (explicit backpressure beats an unbounded backlog), and
//! a request whose wall budget expires while queued answers
//! `daemon.deadline` without running.
//!
//! The wire protocol lives in `dsm-proto` (newline-delimited JSON; see
//! `docs/DAEMON.md`), shared with every client so the two sides cannot
//! drift — which is what makes `dsmfc --remote` reports bit-identical
//! to local ones.

pub mod cache;
pub mod pool;
pub mod sched;
pub mod server;

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub use cache::ProgramCache;
pub use pool::MachinePool;
pub use sched::Scheduler;

/// How a daemon instance is set up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Queue bound; admissions beyond it answer `daemon.overloaded`.
    pub queue: usize,
}

impl DaemonConfig {
    /// Defaults: 4 workers, 64 queued requests.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket: socket.into(),
            workers: 4,
            queue: 64,
        }
    }
}

/// Shared daemon state: cache, pool, scheduler, and counters.
pub struct State {
    /// Compiled-program cache.
    pub cache: ProgramCache,
    /// Pooled simulated machines.
    pub pool: MachinePool,
    /// The request queue.
    pub sched: Scheduler,
    pub(crate) start: Instant,
    pub(crate) served: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) bad_requests: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    socket: PathBuf,
    shutting_down: AtomicBool,
}

impl State {
    fn new(cfg: &DaemonConfig) -> Self {
        State {
            cache: ProgramCache::new(),
            pool: MachinePool::new(),
            sched: Scheduler::new(cfg.queue),
            start: Instant::now(),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            socket: cfg.socket.clone(),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// Begin an orderly shutdown (idempotent): stop admitting, wake the
    /// workers to drain, and poke the accept loop so it notices.
    pub fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.sched.close();
        // The accept loop blocks in `accept`; a throwaway connection
        // unblocks it, and it then sees the flag and exits.
        let _ = UnixStream::connect(&self.socket);
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// A running daemon: join it, or shut it down from the hosting process.
pub struct DaemonHandle {
    state: Arc<State>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    socket: PathBuf,
}

impl DaemonHandle {
    /// The socket the daemon is serving on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Shared state (stats inspection from tests and benches).
    pub fn state(&self) -> &Arc<State> {
        &self.state
    }

    /// Ask the daemon to stop — equivalent to a `shutdown` request.
    pub fn shutdown(&self) {
        self.state.initiate_shutdown();
    }

    /// Block until every thread has exited, then remove the socket
    /// file. In-flight and already-queued requests are answered first.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Bind the socket and start the daemon threads (accept loop plus
/// `cfg.workers` executors). Returns as soon as the daemon is
/// accepting — callers own the returned handle.
///
/// # Errors
///
/// I/O errors binding the socket (bad path, permissions).
pub fn serve(cfg: &DaemonConfig) -> io::Result<DaemonHandle> {
    // A stale socket file from a crashed daemon would make bind fail.
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let state = Arc::new(State::new(cfg));

    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || server::worker_loop(&state))
        })
        .collect();

    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_state.is_shutting_down() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_state = Arc::clone(&accept_state);
            std::thread::spawn(move || server::handle_connection(&conn_state, stream));
        }
    });

    Ok(DaemonHandle {
        state,
        accept,
        workers,
        socket: cfg.socket.clone(),
    })
}
