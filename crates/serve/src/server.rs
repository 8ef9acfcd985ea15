//! The daemon: socket loop, request dispatch, and the compute path
//! behind the memos and admission control.
//!
//! One thread per connection, at most 64 of them (clients are few and
//! long computes dominate; one more gets `busy`); within a compute, the
//! shared parallel runner spreads the grid's cells over the worker pool,
//! so the daemon's own threading stays trivial. Each job runs inside its
//! own telemetry scope, so the counters in the request's receipt (sweep
//! busy/wall, oracle, disk cache) are exactly that job's work at any
//! compute budget (see [`crate::protocol::JobCounters`]). A job that
//! waits on another request's build of the same grid or experiment does
//! no work, so its receipt counts none.

use crate::admission::{Admission, Busy};
use crate::protocol::{
    grid_table, parse_request, render_error, render_list, render_ok, render_ok_csv, render_stats,
    table_csv, ErrorCode, JobCounters, Receipt, Request,
};
use ntc_core::scenario::SchemeSpec;
use ntc_core::OracleStats;
use ntc_experiments::scenario::GridResult;
use ntc_experiments::{
    all_experiments, cache, config, memo_occupancy, runner, scenario, CacheStats, Scale, SweepStats,
};
use ntc_varmodel::{telemetry, Memo, OperatingPoint};
use ntc_workload::{TraceSource, ALL_BENCHMARKS};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration. `Default` gives a single-slot compute budget
/// (exact per-request telemetry) and a 32-deep admission queue on a
/// Unix socket at `ntc-serve.sock`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The Unix-domain socket path the daemon listens on (removed on
    /// clean shutdown).
    pub socket: PathBuf,
    /// Worker threads for the parallel runner (`None`: the runner's own
    /// default, the available parallelism).
    pub jobs: Option<usize>,
    /// On-disk grid-cache directory shared with batch `repro` runs
    /// (`None`: memory tiers only).
    pub cache_dir: Option<PathBuf>,
    /// Concurrent compute slots (clamped to ≥ 1).
    pub budget: usize,
    /// Requests allowed to queue for a slot before `busy` is returned.
    pub queue_cap: usize,
    /// Artificial delay between taking a compute slot and computing —
    /// keeps the slot busy for a fixed time, so tests and CI can overlap
    /// requests deterministically. Zero in production.
    pub hold_before_compute: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("ntc-serve.sock"),
            jobs: None,
            cache_dir: None,
            budget: 1,
            queue_cap: 32,
            hold_before_compute: Duration::ZERO,
        }
    }
}

/// Process-wide shutdown latch, set only by the signal handler (the
/// `shutdown` op sets its server's own latch). Static because a signal
/// handler cannot carry state.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed-ordering store into a static.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that trip the shutdown latch, so
/// `kill -TERM` drains the daemon cleanly (connections finish, the
/// socket file is unlinked, no `.corrupt` quarantine files are left
/// half-written — the cache's atomic rename discipline still holds
/// because nothing is interrupted mid-write).
pub fn install_signal_handlers() {
    // `signal` is provided by libc, which std already links on unix; no
    // new dependency. SIG_ERR (usize::MAX) is ignored deliberately —
    // a hardened environment refusing handlers still leaves Ctrl-C
    // (default disposition) working.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler: extern "C" fn(i32) = on_signal;
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

/// Monotonic counters for the `stats` op.
#[derive(Debug, Default)]
struct ServerStats {
    requests: AtomicU64,
    computed: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    busy_rejections: AtomicU64,
    errors: AtomicU64,
}

/// What an experiment's CSV depends on: its id and scale, and the two
/// process globals its runner reads, the voltage roster and the trace
/// source.
type TableKey = (String, Scale, Vec<OperatingPoint>, TraceSource);

/// Experiment CSVs a server holds: room for the suite's 27 ids at both
/// scales.
const TABLE_MEMO_CAP: usize = 64;

/// How long a connection's read blocks before it checks for shutdown, so
/// an idle client cannot hold up the drain.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Longest request line the daemon buffers, newline excluded. A longer
/// line gets one `bad-request` and its connection closes.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most connections served at once. A connection accepted past the cap
/// gets one `busy` line naming the cap and is closed.
const MAX_CONNECTIONS: usize = 64;

/// One live connection's claim on [`MAX_CONNECTIONS`]. Dropping it frees
/// the slot, also while a panicking handler unwinds.
struct ConnectionSlot<'a>(&'a AtomicUsize);

impl<'a> ConnectionSlot<'a> {
    fn take(live: &'a AtomicUsize) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(live)
    }
}

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Write one response line.
fn write_line(stream: &mut UnixStream, response: &str) -> std::io::Result<()> {
    debug_assert!(!response.contains('\n'), "single-line framing");
    stream.write_all(response.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// The daemon. [`bind`](Server::bind) then [`run`](Server::run); `run`
/// returns after a clean drain once shutdown is requested (by the
/// `shutdown` op or an installed signal handler).
pub struct Server {
    cfg: ServeConfig,
    listener: UnixListener,
    admission: Admission,
    /// Experiment CSVs by [`TableKey`].
    tables: Memo<TableKey, Arc<str>>,
    stats: ServerStats,
    /// Per-instance drain latch (the `shutdown` op). The process-wide
    /// [`SHUTDOWN`] latch (signals) also drains every instance.
    shutdown: AtomicBool,
    /// Connection threads alive now, capped at [`MAX_CONNECTIONS`].
    live_connections: AtomicUsize,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("cfg", &self.cfg).finish()
    }
}

impl Server {
    /// Bind the listen socket and configure the shared runner/cache
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures (address in use, bad path).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        if let Some(jobs) = cfg.jobs {
            runner::set_jobs(jobs);
        }
        cache::set_disk_dir(cfg.cache_dir.clone());
        // A fresh daemon owns its socket path: a stale file from a
        // crashed predecessor would otherwise block the bind.
        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            admission: Admission::new(cfg.budget, cfg.queue_cap),
            tables: Memo::new(TABLE_MEMO_CAP),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            cfg,
            listener,
        })
    }

    /// Serve until shutdown is requested, then drain open connections
    /// and unlink the socket path.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O errors other than the expected
    /// nonblocking `WouldBlock`.
    pub fn run(&self) -> std::io::Result<()> {
        let poll = Duration::from_millis(25);
        std::thread::scope(|scope| -> std::io::Result<()> {
            while !self.draining() {
                let conn = match self.listener.accept() {
                    Ok((s, _)) => Some(s),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                };
                match conn {
                    // Only this thread takes slots, so the check cannot
                    // race past the cap.
                    Some(mut stream)
                        if self.live_connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS =>
                    {
                        self.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        let msg = format!("connection limit reached ({MAX_CONNECTIONS} open)");
                        let _ = write_line(&mut stream, &render_error(ErrorCode::Busy, &msg));
                    }
                    Some(stream) => {
                        let slot = ConnectionSlot::take(&self.live_connections);
                        scope.spawn(move || {
                            let _slot = slot;
                            self.handle_connection(stream);
                        });
                    }
                    None => std::thread::sleep(poll),
                }
            }
            Ok(())
            // Scope exit joins every connection thread: in-flight
            // requests finish their responses before run() returns.
        })?;
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(())
    }

    /// Whether this instance should stop accepting work (its own
    /// `shutdown` op, or the process-wide signal latch).
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Serve one connection: JSON-line requests in, JSON-line responses
    /// out, until EOF, an oversized line, or shutdown. Reads wake every
    /// [`IDLE_POLL`] to check for shutdown; a line split across such a
    /// wake-up keeps its bytes and still parses.
    fn handle_connection(&self, mut stream: UnixStream) {
        let mut reader = match stream.try_clone() {
            Ok(r) => BufReader::new(r),
            Err(_) => return,
        };
        if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
            return;
        }
        let mut buf = Vec::new();
        loop {
            // One byte past the cap tells an oversized line from a full one.
            let room = (MAX_REQUEST_BYTES + 1 - buf.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut buf) {
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.draining() {
                        return;
                    }
                    continue;
                }
                Err(_) => return, // client went away mid-line
            }
            // read_until stops at the newline, at EOF, or at the cap.
            let complete = buf.last() == Some(&b'\n');
            if !complete && buf.len() > MAX_REQUEST_BYTES {
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                let _ = write_line(&mut stream, &render_error(ErrorCode::BadRequest, &msg));
                return;
            }
            let text = std::str::from_utf8(&buf).map(|line| line.trim_end_matches(['\n', '\r']));
            let blank = matches!(text, Ok(line) if line.trim().is_empty());
            if !blank {
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                let response = match text {
                    _ if self.draining() => {
                        render_error(ErrorCode::ShuttingDown, "daemon is draining")
                    }
                    Ok(line) => self.dispatch(line),
                    Err(_) => {
                        self.stats.errors.fetch_add(1, Ordering::Relaxed);
                        render_error(ErrorCode::BadRequest, "request line is not UTF-8")
                    }
                };
                // After the shutdown ack, the last response of this
                // connection, close so the drain can finish.
                if write_line(&mut stream, &response).is_err() || self.draining() {
                    return;
                }
            }
            if !complete {
                return; // EOF
            }
            buf.clear();
        }
    }

    fn dispatch(&self, line: &str) -> String {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return render_error(ErrorCode::BadRequest, &msg);
            }
        };
        match request {
            Request::Ping => render_ok("ping"),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                render_ok("shutdown")
            }
            Request::List => {
                let experiments: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
                let benchmarks: Vec<&str> = ALL_BENCHMARKS.iter().map(|b| b.name()).collect();
                let schemes: Vec<String> =
                    SchemeSpec::roster().iter().map(SchemeSpec::name).collect();
                let vdd: Vec<&str> = OperatingPoint::roster().iter().map(|p| p.name()).collect();
                render_list(&experiments, &benchmarks, &schemes, &vdd)
            }
            Request::Stats => render_stats(
                [
                    ("requests", self.stats.requests.load(Ordering::Relaxed)),
                    ("computed", self.stats.computed.load(Ordering::Relaxed)),
                    ("memo_hits", self.stats.memo_hits.load(Ordering::Relaxed)),
                    ("disk_hits", self.stats.disk_hits.load(Ordering::Relaxed)),
                    (
                        "busy_rejections",
                        self.stats.busy_rejections.load(Ordering::Relaxed),
                    ),
                    ("errors", self.stats.errors.load(Ordering::Relaxed)),
                ]
                .into_iter()
                .chain(memo_occupancy().map(|(name, (entries, _))| (name, entries as u64)))
                .chain([("memo_tables", self.tables.occupancy().0 as u64)]),
            ),
            Request::Experiment { id, scale } => {
                let Some((_, run)) = all_experiments().into_iter().find(|(eid, _)| *eid == id)
                else {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    return render_error(
                        ErrorCode::UnknownId,
                        &format!("no experiment {id:?} in the suite"),
                    );
                };
                let key = (id, scale, config::voltages(), config::workload_source());
                self.serve_job(
                    "experiment",
                    &key.0,
                    || self.tables.wait_built(&key),
                    || {
                        // Another request may have built the table while
                        // this one waited for its slot.
                        let mut built = false;
                        let csv = self.tables.get_or_init(&key, || {
                            built = true;
                            table_csv(&run(scale)).into()
                        });
                        (csv, built)
                    },
                )
            }
            Request::Grid { spec } => {
                let csv = |result: &GridResult| table_csv(&grid_table(&spec, result));
                self.serve_job(
                    "grid",
                    "grid",
                    || scenario::cached_grid(&spec).map(|result| csv(&result)),
                    // A grid build sweeps, which its counters show.
                    || (csv(&scenario::compute_grid(&spec)), false),
                )
            }
        }
    }

    /// Run one job through its memo and admission, and render its
    /// response. `cached` first returns the CSV payload of an answer a
    /// memo or the disk tier holds, waiting for a build of it another
    /// request has in progress, which takes no admission slot; on a miss
    /// the job takes a slot and runs `job` for the payload and whether
    /// it built an experiment table.
    ///
    /// The receipt's tier comes from the job's own counters, for grid and
    /// experiment requests alike: a sweep or an exact sim means
    /// `computed`, else a disk hit means `disk`, else a table this
    /// request built means `computed` (an analytic table sweeps nothing),
    /// else `memo` (a memo hit, or a wait on another request's build).
    fn serve_job<C: AsRef<str>>(
        &self,
        op: &str,
        id: &str,
        cached: impl FnOnce() -> Option<C>,
        job: impl FnOnce() -> (C, bool),
    ) -> String {
        // One telemetry scope per job, the same attribution `repro` uses
        // per experiment: every counter lands in it (the sweep engine
        // hands it to its workers), so each concurrent job bills exactly
        // its own work at any budget. The process totals keep ticking
        // undisturbed.
        let (outcome, counts) = telemetry::scoped(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(csv) = cached() {
                    return Ok::<_, Busy>((csv, false, Duration::ZERO));
                }
                let permit = self.admission.acquire()?;
                if !self.cfg.hold_before_compute.is_zero() {
                    std::thread::sleep(self.cfg.hold_before_compute);
                }
                let (csv, built) = job();
                Ok((csv, built, permit.queue_wait))
            }))
        });
        let counters = JobCounters {
            sweep: SweepStats::from(&counts),
            oracle: OracleStats::from(&counts),
            cache: CacheStats::from(&counts),
        };
        match outcome {
            Ok(Err(busy)) => {
                self.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                render_error(
                    ErrorCode::Busy,
                    &format!(
                        "admission queue full ({} already waiting)",
                        busy.queue_depth
                    ),
                )
            }
            Ok(Ok((csv, built, queue_wait))) => {
                let (tier, tally) =
                    if counters.sweep.wall > Duration::ZERO || counters.oracle.gate_sims > 0 {
                        ("computed", &self.stats.computed)
                    } else if counters.cache.disk_hits > 0 {
                        ("disk", &self.stats.disk_hits)
                    } else if built {
                        ("computed", &self.stats.computed)
                    } else {
                        ("memo", &self.stats.memo_hits)
                    };
                tally.fetch_add(1, Ordering::Relaxed);
                let receipt = Receipt {
                    tier: tier.into(),
                    queue_wait_us: queue_wait.as_micros() as u64,
                    counters,
                };
                render_ok_csv(op, id, csv.as_ref(), &receipt)
            }
            Err(panic) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                render_error(ErrorCode::Internal, runner::panic_message(&*panic))
            }
        }
    }
}
