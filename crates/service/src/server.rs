//! The TCP server: one readiness-reactor thread for all connection I/O,
//! a fixed worker pool fed by a bounded job channel, TTL sweeper,
//! graceful shutdown.
//!
//! Concurrency shape:
//!
//! * one **reactor** thread ([`sedex_net`], see [`crate::reactor`]) owns
//!   the listener and every connection: it accepts, reads and parses both
//!   protocols (text lines and binary frames), frames responses, and
//!   tracks per-request deadlines — all through epoll/poll readiness, so
//!   an idle server (or ten thousand idle connections) does **zero**
//!   periodic wakeups and spawns zero per-connection threads;
//! * every request is executed by one of `workers` **pool threads**, fed
//!   through a *bounded* `sync_channel`: when all workers are busy and the
//!   queue is full, the reactor parks the connection's next request and
//!   stops reading its socket — backpressure propagates to the client's
//!   TCP window instead of growing an unbounded queue;
//! * a **sweeper** thread evicts sessions idle past `idle_ttl`; it blocks
//!   on a condvar while the server has no sessions at all;
//! * `SHUTDOWN` (or [`ServerHandle::shutdown`]) raises a flag and wakes
//!   the reactor: it stops accepting, serves what each connection already
//!   sent, flushes, and exits; the job channel disconnects, workers drain
//!   what was queued and exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sedex_cluster::{Applied, ClusterConfig, ClusterState, HashRing, ReplFrame, Route};
use sedex_core::render::write_sql_literal;
use sedex_core::{Observer, SedexConfig};
use sedex_durable::recover::list_segments;
use sedex_durable::{
    decode_session_state, encode_session_state, read_segment, recover_data_dir, DurableMetrics,
    DurableShard, FaultKind, FaultPlan, FaultPoint, FsyncPolicy, SessionSnapshot, WalRecord,
};
use sedex_net::{Poller, Waker};
use sedex_observe::{
    render_prometheus, Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry,
    RegistryObserver, ReqSpan,
};
use sedex_scenarios::textfmt;
use sedex_storage::codec::{ByteReader, ByteWriter};
use sedex_storage::{Instance, InstanceSnapshot, RelationSchema, Rows, StorageError, Tuple};

use crate::client::{Client, ClientConfig};
use crate::manager::{SessionManager, Tenant};
use crate::protocol::{Proto, Request, Response};
use crate::reactor::reactor_loop;

/// Server tunables. `Default` gives an ephemeral port on localhost, a
/// worker per core (capped at 8), 16 shards and a 15-minute idle TTL.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 picks an ephemeral
    /// port; read it back with [`ServerHandle::local_addr`].
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Session-map shards.
    pub shards: usize,
    /// Bounded job-queue depth (the backpressure knob).
    pub queue_depth: usize,
    /// Evict sessions idle longer than this; `None` disables eviction.
    pub idle_ttl: Option<Duration>,
    /// How often the sweeper wakes up.
    pub sweep_interval: Duration,
    /// Attach a [`RegistryObserver`] to every session, so pipeline phase
    /// timings, repository hit/miss counts and egd outcomes land in the
    /// server's metrics registry (the `METRICS` command). Off by default:
    /// the engine hot path then performs no tracing work at all. The
    /// service-level series (requests, latency, queue depth, …) are always
    /// maintained — they are off the per-tuple hot path.
    pub metrics: bool,
    /// Per-tuple slow-exchange threshold passed to every session: pushes
    /// slower than this log a one-line phase breakdown to stderr.
    pub slow_exchange_threshold: Option<Duration>,
    /// Durability root. `Some(dir)` turns on write-ahead logging and
    /// snapshots under `dir/shard-<i>/`; at startup the server recovers
    /// every session persisted there. `None` (the default) keeps the server
    /// fully in-memory.
    pub data_dir: Option<PathBuf>,
    /// When durability is on: fsync the WAL after every append (`Always`),
    /// after every Nth (`EveryN`), or never (`Off` — data still reaches the
    /// OS on every append, so it survives process death but not power loss).
    pub fsync: FsyncPolicy,
    /// When durability is on: checkpoint a shard (snapshot + WAL rotation)
    /// after this many appended records. `0` checkpoints only on `FLUSH`
    /// and at clean shutdown.
    pub snapshot_every: u64,
    /// Per-request budget covering queue wait **and** execution. A request
    /// that cannot be answered within it gets `ERR DEADLINE` — the worker
    /// skips jobs that expired while queued, and the connection thread
    /// stops waiting and answers the client even if a worker is stuck on
    /// the job. `None` (the default) never times requests out.
    pub request_timeout: Option<Duration>,
    /// Maximum simultaneous connections; one over the cap is answered
    /// `ERR BUSY retry-after=<ms>` and closed instead of being served.
    /// `0` (the default) is unlimited.
    pub max_conns: usize,
    /// Load shedding: when at least this many jobs are queued or blocked
    /// on the bounded job channel, new requests (except `SHUTDOWN`) are
    /// answered `ERR BUSY retry-after=<ms>` immediately instead of joining
    /// the queue. `0` (the default) disables shedding — connections then
    /// block on the channel (pure backpressure).
    pub shed_queue_depth: usize,
    /// Fault-injection schedule for chaos testing; `None` in production.
    /// The plan is threaded into the WAL appender, fsyncs, snapshot writes,
    /// and the accept/read/write/session-work paths — see
    /// [`sedex_durable::fault`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Pipelining window: how many parsed-but-unanswered requests one
    /// connection may have queued in the reactor before it stops reading
    /// that socket. Responses are always delivered in request order and
    /// requests of one connection never execute concurrently — the window
    /// only saves round-trips.
    pub pipeline_window: usize,
    /// Request-lifecycle tracing: keep the last N completed request spans
    /// (`read→parse→queue_wait→exec→flush`) in an in-memory flight
    /// recorder, served by the `TRACE` verb, and feed per-verb × per-proto
    /// stage-latency histograms into the registry. `0` (the default)
    /// disables tracing entirely — the request hot path then performs no
    /// additional clock reads or atomics, per the observability
    /// convention.
    pub trace_buffer: usize,
    /// Cluster membership: `Some` makes this node part of a multi-node
    /// ring — session-addressed requests for sessions another node owns
    /// are answered `ERR MOVED <node> <addr>`, WAL records ship to the
    /// ring successor as a warm standby, and a planned `LEAVE` migrates
    /// every owned session out before departing. `None` (the default) is
    /// plain single-node operation with zero cluster overhead.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            shards: 16,
            queue_depth: 64,
            idle_ttl: Some(Duration::from_secs(900)),
            sweep_interval: Duration::from_millis(500),
            metrics: false,
            slow_exchange_threshold: None,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 1024,
            request_timeout: None,
            max_conns: 0,
            shed_queue_depth: 0,
            fault_plan: None,
            pipeline_window: 128,
            trace_buffer: 0,
            cluster: None,
        }
    }
}

/// The `retry-after` hint (milliseconds) carried by `ERR BUSY` replies.
pub const SHED_RETRY_AFTER_MS: u64 = 100;

pub(crate) fn busy_response() -> Response {
    Response::err(format!("BUSY retry-after={SHED_RETRY_AFTER_MS}"))
}

/// Server-wide metric handles. Every series lives in the server's
/// [`MetricsRegistry`], so `STATS` and `METRICS` render the same numbers
/// — `STATS` as a human summary, `METRICS` as Prometheus exposition.
/// Handles are lock-free atomics (see [`sedex_observe`]).
pub struct ServerStats {
    /// Connections accepted (`sedex_service_connections_total`).
    pub connections: Arc<Counter>,
    /// Requests executed, including failed ones
    /// (`sedex_service_requests_total`).
    pub requests: Arc<Counter>,
    /// `PUSH`/`FEED` tuples taken in (`sedex_service_tuples_in_total`).
    pub tuples_in: Arc<Counter>,
    /// Requests answered with `ERR` (`sedex_service_errors_total`).
    pub errors: Arc<Counter>,
    /// Sessions opened (`sedex_service_sessions_opened_total`).
    pub opened: Arc<Counter>,
    /// Sessions closed by `CLOSE` (`sedex_service_sessions_closed_total`).
    pub closed: Arc<Counter>,
    /// Sessions evicted by the idle sweeper
    /// (`sedex_service_sessions_evicted_total`).
    pub evicted: Arc<Counter>,
    /// Requests shed under overload with `ERR BUSY` — queue-depth
    /// shedding plus connections refused over the cap
    /// (`sedex_service_shed_total`).
    pub shed: Arc<Counter>,
    /// Requests answered `ERR DEADLINE` because the request budget ran
    /// out, queued or executing (`sedex_service_deadline_total`).
    pub deadlines: Arc<Counter>,
    /// Request executions that panicked; the session involved is
    /// quarantined (`sedex_service_panics_total`).
    pub panics: Arc<Counter>,
    /// Wall-clock latency of request execution, queue wait excluded
    /// (`sedex_request_seconds`).
    pub request_seconds: Arc<Histogram>,
    /// Jobs waiting in (or blocked on) the bounded job queue
    /// (`sedex_queue_depth`).
    pub queue_depth: Arc<Gauge>,
    /// Workers currently executing a request (`sedex_workers_busy`).
    pub workers_busy: Arc<Gauge>,
    /// Connections currently open (`sedex_service_open_connections`).
    pub open_conns: Arc<Gauge>,
    /// Requests answered on text-protocol connections
    /// (`sedex_service_proto_requests_total{proto="text"}`).
    pub proto_text: Arc<Counter>,
    /// Requests answered on binary-protocol connections
    /// (`sedex_service_proto_requests_total{proto="binary"}`).
    pub proto_binary: Arc<Counter>,
    /// Reactor `Poller::wait` returns (`sedex_reactor_polls_total`).
    pub reactor_polls: Arc<Counter>,
    /// Waits interrupted by the cross-thread waker
    /// (`sedex_reactor_wakeups_total`).
    pub reactor_wakeups: Arc<Counter>,
    /// Readiness events delivered across all waits
    /// (`sedex_reactor_events_total`); divided by polls this is the
    /// events-per-wake average.
    pub reactor_events: Arc<Counter>,
    /// Jobs parked because the bounded worker queue was full — the
    /// connection's reads pause until a completion drains
    /// (`sedex_reactor_backpressure_parks_total`).
    pub reactor_parks: Arc<Counter>,
    /// Largest per-connection read buffer observed, bytes
    /// (`sedex_reactor_rbuf_highwater_bytes`).
    pub reactor_rbuf_hw: Arc<Gauge>,
    /// Largest per-connection write buffer observed, bytes
    /// (`sedex_reactor_wbuf_highwater_bytes`).
    pub reactor_wbuf_hw: Arc<Gauge>,
    /// Deepest parsed-but-unanswered pipeline observed on one connection
    /// (`sedex_reactor_pipeline_depth_highwater`).
    pub reactor_pipeline_hw: Arc<Gauge>,
    /// Reactor loop-iteration latency — wait return to next wait entry
    /// (`sedex_reactor_loop_seconds`). Only fed when tracing is enabled:
    /// timing every iteration needs two clock reads per loop.
    pub reactor_loop_seconds: Arc<Histogram>,
    /// Poisoned sessions left out of durability snapshots
    /// (`sedex_snapshot_skipped_sessions_total`) — non-zero means some
    /// checkpoint was partial, and `STATS` flags durability DEGRADED.
    pub snapshot_skips: Arc<Counter>,
    /// TTL-sweep passes that found a tenant mutex held
    /// (`sedex_sweep_retries_total`) — the aging signal for wedged
    /// writers (snapshot readers never hold the tenant mutex).
    pub sweep_retries: Arc<Counter>,
}

impl ServerStats {
    /// Register every server-wide series in `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        ServerStats {
            connections: registry
                .counter("sedex_service_connections_total", "Connections accepted"),
            requests: registry.counter(
                "sedex_service_requests_total",
                "Requests executed (including failed ones)",
            ),
            tuples_in: registry
                .counter("sedex_service_tuples_in_total", "PUSH/FEED tuples taken in"),
            errors: registry.counter("sedex_service_errors_total", "Requests answered with ERR"),
            opened: registry.counter("sedex_service_sessions_opened_total", "Sessions opened"),
            closed: registry.counter(
                "sedex_service_sessions_closed_total",
                "Sessions closed by CLOSE",
            ),
            evicted: registry.counter(
                "sedex_service_sessions_evicted_total",
                "Sessions evicted by the idle sweeper",
            ),
            shed: registry.counter(
                "sedex_service_shed_total",
                "Requests shed under overload with ERR BUSY",
            ),
            deadlines: registry.counter(
                "sedex_service_deadline_total",
                "Requests answered ERR DEADLINE (request budget exceeded)",
            ),
            panics: registry.counter(
                "sedex_service_panics_total",
                "Request executions that panicked (session quarantined)",
            ),
            request_seconds: registry.histogram(
                "sedex_request_seconds",
                "Request execution latency (queue wait excluded)",
            ),
            queue_depth: registry.gauge(
                "sedex_queue_depth",
                "Jobs waiting in (or blocked on) the bounded job queue",
            ),
            workers_busy: registry.gauge(
                "sedex_workers_busy",
                "Workers currently executing a request",
            ),
            open_conns: registry.gauge(
                "sedex_service_open_connections",
                "Connections currently open",
            ),
            proto_text: registry.counter_with(
                "sedex_service_proto_requests_total",
                "Requests answered, by negotiated protocol",
                &[("proto", "text")],
            ),
            proto_binary: registry.counter_with(
                "sedex_service_proto_requests_total",
                "Requests answered, by negotiated protocol",
                &[("proto", "binary")],
            ),
            reactor_polls: registry.counter(
                "sedex_reactor_polls_total",
                "Reactor poll returns (epoll/poll wait calls completed)",
            ),
            reactor_wakeups: registry.counter(
                "sedex_reactor_wakeups_total",
                "Reactor waits interrupted by the cross-thread waker",
            ),
            reactor_events: registry.counter(
                "sedex_reactor_events_total",
                "Readiness events delivered to the reactor",
            ),
            reactor_parks: registry.counter(
                "sedex_reactor_backpressure_parks_total",
                "Jobs parked because the bounded worker queue was full",
            ),
            reactor_rbuf_hw: registry.gauge(
                "sedex_reactor_rbuf_highwater_bytes",
                "Largest per-connection read buffer observed",
            ),
            reactor_wbuf_hw: registry.gauge(
                "sedex_reactor_wbuf_highwater_bytes",
                "Largest per-connection write buffer observed",
            ),
            reactor_pipeline_hw: registry.gauge(
                "sedex_reactor_pipeline_depth_highwater",
                "Deepest parsed-but-unanswered pipeline on one connection",
            ),
            reactor_loop_seconds: registry.histogram(
                "sedex_reactor_loop_seconds",
                "Reactor loop-iteration latency (fed only with tracing on)",
            ),
            snapshot_skips: registry.counter(
                "sedex_snapshot_skipped_sessions_total",
                "Poisoned sessions left out of durability snapshots",
            ),
            sweep_retries: registry.counter(
                "sedex_sweep_retries_total",
                "TTL-sweep passes that found a tenant mutex held",
            ),
        }
    }

    /// Bump the per-protocol request counter.
    pub(crate) fn count_proto(&self, proto: Proto) {
        match proto {
            Proto::Text => self.proto_text.inc(),
            Proto::Binary => self.proto_binary.inc(),
        }
    }
}

/// Durability state: one [`DurableShard`] per manager shard (same
/// name→shard mapping), plus recovery totals frozen at startup for `STATS`.
///
/// Lock ordering: the durable-shard mutex is the **innermost** lock. A WAL
/// append happens while still holding the lock that serialized the
/// operation — the tenant mutex for `PUSH`/`FEED`/`FLUSH`/script installs,
/// the shard-map write lock for `OPEN`/`CLOSE`/TTL eviction — so the log
/// order of one session's records always matches their application order
/// (an `Open` can never be outrun by the first `Push`, a `Close` never by
/// a re-`Open` of the same name). `checkpoint_shard` never holds the
/// durable mutex while taking tenant or map locks: it captures the
/// snapshot watermark (brief durable lock), exports tenant state (map read
/// lock + tenant locks, no durable lock), then writes the snapshot
/// (durable lock only) — no cycle with the append path. Capturing the
/// watermark *before* the export is load-bearing: a record appended while
/// the export runs gets `lsn > watermark`, so recovery re-replays it onto
/// a snapshot that may already contain its effect — idempotent redo,
/// at-least-once. The reverse order would stamp such a record `≤`
/// watermark and recovery would silently drop the acknowledged write.
struct Durability {
    shards: Vec<Mutex<DurableShard>>,
    metrics: Arc<DurableMetrics>,
    snapshot_every: u64,
    recovered_sessions: u64,
    replayed_records: u64,
    torn_tails: u64,
    finalized: AtomicBool,
    skip_final_checkpoint: AtomicBool,
}

/// Cluster runtime: the shared [`ClusterState`] plus the metric handles
/// the cluster paths feed.
pub(crate) struct ClusterRt {
    /// Ring, migration bookkeeping, failure evidence, standby, repl queue.
    pub(crate) state: Arc<ClusterState>,
    /// `sedex_redirects_total` — `MOVED` replies served.
    pub(crate) redirects: Arc<Counter>,
    /// `sedex_replication_lag_records` — shipped-unacked plus queued.
    pub(crate) repl_lag: Arc<Gauge>,
    /// `sedex_cluster_ring_version` — this node's view of the map version.
    pub(crate) ring_version: Arc<Gauge>,
}

impl ClusterRt {
    /// Count one `MOVED` redirect (registry counter + cluster state).
    pub(crate) fn count_redirect(&self) {
        self.redirects.inc();
        self.state
            .redirects
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) manager: SessionManager,
    pub(crate) registry: MetricsRegistry,
    pub(crate) stats: ServerStats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) started: Instant,
    pub(crate) workers: usize,
    durability: Option<Durability>,
    /// Cluster runtime; `None` in single-node operation.
    pub(crate) cluster: Option<ClusterRt>,
    /// Session config and observer, kept for paths that build sessions
    /// outside the manager (standby replay of replicated records).
    pub(crate) session_config: SedexConfig,
    pub(crate) observer: Option<Arc<dyn Observer>>,
    /// Durability root, if any — the replication catch-up reads WAL
    /// segments straight from disk.
    pub(crate) data_dir: Option<PathBuf>,
    pub(crate) request_timeout: Option<Duration>,
    pub(crate) max_conns: usize,
    pub(crate) shed_queue_depth: usize,
    pub(crate) faults: Option<Arc<FaultPlan>>,
    /// Wakes the reactor out of `epoll_wait` — used by workers when a
    /// `Done` is queued and by [`ServerHandle::shutdown`].
    pub(crate) waker: Waker,
    /// Sweeper parking spot: the sweeper blocks here while the server has
    /// no sessions at all (an idle server does zero periodic wakeups) and
    /// is notified on the first `OPEN` and at shutdown.
    pub(crate) sweep_signal: (Mutex<bool>, Condvar),
    /// Request-lifecycle flight recorder; `Some` only when the server was
    /// started with `trace_buffer > 0`. Everything span-related — request
    /// ids, stage clocks, ring writes, stage histograms — is gated on
    /// this being `Some`, keeping the default hot path free of extra
    /// clock reads and atomics.
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
}

impl Shared {
    /// Wake the sweeper (first session opened, or shutting down).
    pub(crate) fn notify_sweeper(&self) {
        let (lock, cvar) = &self.sweep_signal;
        *lock.lock().unwrap_or_else(|p| p.into_inner()) = true;
        cvar.notify_all();
    }
}

/// One parsed request on its way to the worker pool. The reactor tags it
/// with the originating connection token and a per-connection sequence
/// number so the worker's [`Done`] finds its way back.
pub(crate) struct Job {
    pub(crate) request: Request,
    /// Protocol the response must be rendered in.
    pub(crate) proto: Proto,
    /// Reactor token of the originating connection.
    pub(crate) conn: u64,
    /// Per-connection sequence number (guards against answering a
    /// different request after reconnect-reuse of a token).
    pub(crate) seq: u64,
    /// Instant by which the client must have an answer (`None` when the
    /// server runs without `request_timeout`). Shutdown jobs carry none.
    pub(crate) deadline: Option<Instant>,
    /// Span-in-progress carried from the reactor; `None` whenever tracing
    /// is disabled.
    pub(crate) trace: Option<JobTrace>,
}

/// The reactor-side half of a request span: stamped at frame decode,
/// completed by the worker and the reply flush.
pub(crate) struct JobTrace {
    /// Monotonically-assigned request id.
    pub(crate) id: u64,
    /// Socket-read nanoseconds attributed to this request.
    pub(crate) read_nanos: u64,
    /// Frame/line decode nanoseconds.
    pub(crate) parse_nanos: u64,
    /// When parsing finished (queue_wait starts here and covers both the
    /// connection's pipeline queue and the bounded worker queue).
    pub(crate) queued: Instant,
}

/// A finished job, flowing back from a worker to the reactor.
pub(crate) struct Done {
    pub(crate) conn: u64,
    pub(crate) seq: u64,
    pub(crate) response: Response,
    /// Worker-completed span, for the reactor to finish (flush stage) and
    /// commit to the flight recorder. `None` whenever tracing is disabled.
    pub(crate) trace: Option<DoneTrace>,
}

/// The worker-side half of a request span.
pub(crate) struct DoneTrace {
    pub(crate) id: u64,
    pub(crate) verb: &'static str,
    pub(crate) session: String,
    pub(crate) read_nanos: u64,
    pub(crate) parse_nanos: u64,
    pub(crate) queue_nanos: u64,
    pub(crate) exec_nanos: u64,
}

impl DoneTrace {
    /// Attach the reactor-measured flush stage, yielding the finished
    /// span for the flight recorder.
    pub(crate) fn into_span(self, proto: Proto, flush_nanos: u64) -> ReqSpan {
        ReqSpan {
            id: self.id,
            proto: proto.name(),
            verb: self.verb.to_owned(),
            session: self.session,
            read_nanos: self.read_nanos,
            parse_nanos: self.parse_nanos,
            queue_nanos: self.queue_nanos,
            exec_nanos: self.exec_nanos,
            flush_nanos,
            node: String::new(),
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server —
/// call [`ServerHandle::shutdown`] (or send `SHUTDOWN` over the wire, then
/// [`ServerHandle::join`]).
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind and start serving; returns once the listener is live.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = std::net::TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = poller.waker();
        let registry = MetricsRegistry::new();
        let stats = ServerStats::new(&registry);
        let session_config = SedexConfig {
            slow_exchange_threshold: cfg.slow_exchange_threshold,
            ..SedexConfig::default()
        };
        let observer: Option<Arc<dyn Observer>> = if cfg.metrics {
            Some(Arc::new(RegistryObserver::new(&registry)))
        } else {
            None
        };
        let mut manager = SessionManager::new(cfg.shards)
            .with_session_config(session_config.clone())
            .with_eviction_counter(Arc::clone(&stats.evicted))
            .with_sweep_retry_counter(Arc::clone(&stats.sweep_retries));
        if let Some(obs) = &observer {
            manager = manager.with_observer(Arc::clone(obs));
        }
        let durability = match &cfg.data_dir {
            Some(dir) => Some(init_durability(
                dir,
                &cfg,
                &session_config,
                observer.as_ref(),
                &registry,
                &manager,
            )?),
            None => None,
        };
        let cluster = cfg.cluster.clone().map(|mut c| {
            // A node must be reachable at the address it publishes in the
            // ring; default to the actually-bound address (resolves port 0).
            if c.advertise.is_empty() {
                c.advertise = addr.to_string();
            }
            ClusterRt {
                state: Arc::new(ClusterState::new(c)),
                redirects: registry.counter(
                    "sedex_redirects_total",
                    "Session-addressed requests answered ERR MOVED",
                ),
                repl_lag: registry.gauge(
                    "sedex_replication_lag_records",
                    "WAL records shipped but unacknowledged, plus queued",
                ),
                ring_version: registry.gauge(
                    "sedex_cluster_ring_version",
                    "This node's view of the cluster map version",
                ),
            }
        });
        let shared = Arc::new(Shared {
            manager,
            registry,
            stats,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            workers: cfg.workers.max(1),
            durability,
            cluster,
            session_config: session_config.clone(),
            observer: observer.clone(),
            data_dir: cfg.data_dir.clone(),
            request_timeout: cfg.request_timeout,
            max_conns: cfg.max_conns,
            shed_queue_depth: cfg.shed_queue_depth,
            faults: cfg.fault_plan.clone(),
            waker,
            sweep_signal: (Mutex::new(false), Condvar::new()),
            recorder: (cfg.trace_buffer > 0)
                .then(|| Arc::new(FlightRecorder::new(cfg.trace_buffer))),
        });
        if shared.durability.is_some() {
            // Re-persist recovered state under the current shard mapping
            // right away: the new generation's snapshots then cover
            // everything, so stale shard directories (a smaller `shards`
            // than last run) can be dropped.
            for idx in 0..shared.manager.shard_count() {
                checkpoint_shard(&shared, idx);
            }
            if let Some(dir) = &cfg.data_dir {
                remove_stale_shard_dirs(dir, shared.manager.shard_count());
            }
        }

        let (tx, rx) = sync_channel::<Job>(cfg.queue_depth.max(1));
        let (done_tx, done_rx) = channel::<Done>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let done_tx = done_tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sedex-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &done_tx, &shared))
                    .expect("spawn worker")
            })
            .collect();
        drop(done_tx); // the reactor's done_rx disconnects when workers exit

        let sweeper = cfg.idle_ttl.map(|ttl| {
            let shared = Arc::clone(&shared);
            let interval = cfg.sweep_interval;
            std::thread::Builder::new()
                .name("sedex-sweeper".to_owned())
                .spawn(move || sweeper_loop(&shared, ttl, interval))
                .expect("spawn sweeper")
        });

        let reactor = {
            let shared = Arc::clone(&shared);
            let window = cfg.pipeline_window.max(1);
            std::thread::Builder::new()
                .name("sedex-reactor".to_owned())
                .spawn(move || reactor_loop(listener, poller, tx, done_rx, shared, window))
                .expect("spawn reactor")
        };

        cluster_startup_join(&shared);

        Ok(ServerHandle {
            shared,
            addr,
            reactor: Some(reactor),
            workers,
            sweeper,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested (by flag or by wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown and wait for every thread to drain and exit.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    /// Wait for the server to exit (e.g. after a wire `SHUTDOWN`).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Stop the server *without* the final durability checkpoint — the
    /// in-process equivalent of `kill -9` for recovery testing. Worker
    /// threads still drain queued jobs (their WAL appends land), but no
    /// snapshot is taken, so a restart must replay the log tail.
    pub fn abort(mut self) {
        if let Some(d) = &self.shared.durability {
            d.skip_final_checkpoint.store(true, Ordering::SeqCst);
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }

    fn join_threads(&mut self) {
        // Make sure a flag set outside the wire protocol is noticed
        // promptly: the reactor blocks in epoll, the sweeper on a condvar.
        self.shared.waker.wake();
        self.shared.notify_sweeper();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        // Workers are gone, so nothing mutates sessions anymore: persist the
        // final state. A clean shutdown thus leaves each shard with a full
        // snapshot and an empty live segment — no replayable tail.
        finalize_durability(&self.shared);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle must not leave threads spinning forever.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_threads();
    }
}

fn sweeper_loop(shared: &Arc<Shared>, ttl: Duration, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Park without any timeout while there is nothing to sweep: an idle
        // server must not tick. The reactor notifies on the first OPEN (and
        // shutdown notifies unconditionally).
        {
            let (lock, cvar) = &shared.sweep_signal;
            let mut signal = lock.lock().unwrap_or_else(|p| p.into_inner());
            if shared.manager.is_empty() {
                while !*signal {
                    signal = cvar.wait(signal).unwrap_or_else(|p| p.into_inner());
                }
            } else if !*signal {
                // Sessions exist: sweep on the configured cadence, but let a
                // notification (shutdown) cut the sleep short.
                signal = cvar
                    .wait_timeout(signal, interval)
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0);
            }
            *signal = false;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // An eviction is a close the client never sent: log it like one
        // (under the shard-map lock, so a racing re-OPEN of the same name
        // is ordered after it), or crash recovery would resurrect sessions
        // the TTL policy already dropped.
        let evicted = shared.manager.evict_idle_with(ttl, |name| {
            wal_append(
                shared,
                name,
                WalRecord::Close {
                    session: name.to_owned(),
                },
            );
        });
        // The manager bumps `sedex_service_sessions_evicted_total` itself
        // (and logs each eviction); only the checkpoints remain to do here.
        for name in &evicted {
            maybe_checkpoint(shared, name);
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, done_tx: &Sender<Done>, shared: &Arc<Shared>) {
    loop {
        // Hold the receiver lock only while dequeuing, not while executing.
        let job = match rx.lock().expect("job queue lock poisoned").recv() {
            Ok(j) => j,
            Err(_) => return, // all senders gone: server is draining
        };
        shared.stats.queue_depth.dec();
        // A job whose budget expired while it sat in the queue is answered
        // without being executed — the client has (or is about to) put the
        // request down as timed out; doing the work anyway doubles the
        // damage under overload. SHUTDOWN carries no deadline.
        if job.deadline.is_some_and(|d| Instant::now() > d) {
            shared.stats.deadlines.inc();
            shared.stats.requests.inc();
            shared.stats.errors.inc();
            shared.stats.count_proto(job.proto);
            // An expired job still yields a span (exec stays 0) — the
            // flight recorder should show *where* the budget went.
            let trace = job.trace.map(|t| DoneTrace {
                id: t.id,
                verb: job.request.verb(),
                session: job.request.session().unwrap_or("-").to_owned(),
                read_nanos: t.read_nanos,
                parse_nanos: t.parse_nanos,
                queue_nanos: t.queued.elapsed().as_nanos() as u64,
                exec_nanos: 0,
            });
            let _ = done_tx.send(Done {
                conn: job.conn,
                seq: job.seq,
                response: deadline_response(shared),
                trace,
            });
            shared.waker.wake();
            continue;
        }
        // Queue wait ends here; the clock was only read at enqueue when
        // tracing is on, so this costs nothing by default.
        let queue_nanos = job
            .trace
            .as_ref()
            .map(|t| t.queued.elapsed().as_nanos() as u64);
        shared.stats.workers_busy.inc();
        let t0 = Instant::now();
        // Panic isolation: a panicking execution unwinds through the
        // tenant's mutex guard and poisons it — subsequent requests on that
        // session get `ERR POISONED` from the manager while every other
        // session keeps serving. The worker itself survives to take the
        // next job.
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, &job.request, job.proto)
        })) {
            Ok(r) => r,
            Err(_) => {
                shared.stats.panics.inc();
                let name = job.request.session().unwrap_or("?");
                // The quarantined session will never serve again; log a
                // durable Close so crash recovery does not resurrect it
                // (replaying a Close for an unknown session is a no-op).
                if let Some(s) = job.request.session() {
                    wal_append(
                        shared,
                        s,
                        WalRecord::Close {
                            session: s.to_owned(),
                        },
                    );
                }
                Response::err(format!(
                    "POISONED session `{name}` is quarantined after a panic"
                ))
            }
        };
        let elapsed = t0.elapsed();
        shared.stats.request_seconds.observe(elapsed);
        shared.stats.workers_busy.dec();
        shared.stats.requests.inc();
        if !response.ok {
            shared.stats.errors.inc();
        }
        shared.stats.count_proto(job.proto);
        // The exec stage reuses the same measurement the worker histogram
        // records, so span exec sums and `sedex_request_seconds` agree by
        // construction.
        let trace = job.trace.map(|t| DoneTrace {
            id: t.id,
            verb: job.request.verb(),
            session: job.request.session().unwrap_or("-").to_owned(),
            read_nanos: t.read_nanos,
            parse_nanos: t.parse_nanos,
            queue_nanos: queue_nanos.unwrap_or(0),
            exec_nanos: elapsed.as_nanos() as u64,
        });
        // The reactor may have dropped the connection while the job was
        // queued; it matches `conn`/`seq` and discards stale answers.
        let _ = done_tx.send(Done {
            conn: job.conn,
            seq: job.seq,
            response,
            trace,
        });
        shared.waker.wake();
    }
}

pub(crate) fn deadline_response(shared: &Shared) -> Response {
    let ms = shared
        .request_timeout
        .map(|t| t.as_millis() as u64)
        .unwrap_or(0);
    Response::err(format!("DEADLINE request exceeded the {ms}ms budget"))
}

/// How long past its deadline the reactor keeps waiting for the worker's
/// own `ERR DEADLINE` before answering the client itself and closing the
/// connection (the worker answers expired-while-queued jobs directly,
/// which is cheaper and counted once; this grace only fires when a worker
/// is genuinely stuck executing the job).
pub(crate) const DEADLINE_REPLY_GRACE: Duration = Duration::from_millis(50);

/// Execute one request against the shared state. Pure request → response;
/// all I/O happens in the reactor thread (the cluster paths are the one
/// exception: `JOIN`/`LEAVE` fan announcements out to peers from the
/// worker). `proto` is the protocol the request arrived on — it only
/// affects the `STATS` rendering.
fn execute(shared: &Shared, request: &Request, proto: Proto) -> Response {
    if let Some(resp) = cluster_gate(shared, request) {
        return resp;
    }
    match request {
        Request::Open { session, body } => {
            // The Open record is appended while the map write lock is still
            // held, so no racing PUSH/FEED on the new session can log ahead
            // of it (their appends need the tenant, which needs the map).
            let committed = shared.manager.open_with(session, body, || {
                wal_append(
                    shared,
                    session,
                    WalRecord::Open {
                        session: session.clone(),
                        scenario: body.clone(),
                    },
                );
            });
            match committed {
                Ok(seeded) => {
                    shared.stats.opened.inc();
                    shared.notify_sweeper();
                    maybe_checkpoint(shared, session);
                    Response::ok(format!("opened {session}, seeded {seeded} tuples"))
                }
                Err(e) => Response::err(e),
            }
        }
        Request::Push { session, line } => {
            shared.stats.tuples_in.inc();
            match textfmt::parse_data_line(line, 1) {
                Err(e) => Response::err(format!("data: {}", e.message)),
                Ok((rel, tuple)) => push_parsed(shared, session, &rel, tuple),
            }
        }
        Request::PushTuple {
            session,
            relation,
            tuple,
        } => {
            shared.stats.tuples_in.inc();
            push_parsed(shared, session, relation, tuple.clone())
        }
        Request::Feed { session, line } => {
            shared.stats.tuples_in.inc();
            match textfmt::parse_data_line(line, 1) {
                Err(e) => Response::err(format!("data: {}", e.message)),
                Ok((rel, tuple)) => feed_parsed(shared, session, &rel, tuple),
            }
        }
        Request::FeedTuple {
            session,
            relation,
            tuple,
        } => {
            shared.stats.tuples_in.inc();
            feed_parsed(shared, session, relation, tuple.clone())
        }
        Request::PushBatch { session, rows } => {
            // One tenant-lock acquisition (and one SessionWork fault
            // window) for the whole batch. Rows apply in order; the first
            // failing row aborts the rest — rows before it stay applied
            // and logged, exactly as if pushed one by one.
            let total = rows.len();
            let resp = run_on_session(shared, session, "PUSH_BATCH", |t| {
                for (i, (rel, tuple)) in rows.iter().enumerate() {
                    shared.stats.tuples_in.inc();
                    push_row(shared, session, t, rel, tuple.clone())
                        .map_err(|e| format!("batch row {} of {total}: {e}", i + 1))?;
                }
                Ok(Response::ok(format!(
                    "pushed batch of {total} | {}",
                    push_summary(&t.session)
                )))
            });
            if resp.ok {
                maybe_checkpoint(shared, session);
            }
            resp
        }
        Request::Flush { session } => {
            let durable = shared.durability.is_some();
            let resp = run_on_session(shared, session, "FLUSH", |t| {
                t.session.exchange_pending().map_err(|e| e.to_string())?;
                log_new_scripts(shared, session, t);
                wal_append(
                    shared,
                    session,
                    WalRecord::Flush {
                        session: session.clone(),
                    },
                );
                let r = t.session.report_snapshot();
                Ok(Response::ok_with(format!("flushed {session}"), r))
            });
            // FLUSH is the durability boundary: checkpoint the shard
            // unconditionally (snapshot + rotation + compaction). This runs
            // after the tenant lock is released — the checkpoint's export
            // locks every tenant on the shard, this one included.
            if resp.ok && durable {
                checkpoint_shard(shared, shared.manager.shard_index(session));
            }
            resp
        }
        Request::Stats { session: None } => server_stats(shared, proto),
        Request::Stats {
            session: Some(name),
        } => read_on_session(shared, name, |view| {
            // Target stats are recomputed here, on the reader — the
            // capturing writer never pays the O(n) atom walk.
            let r = view.state.snapshot.report_with_stats();
            let mut resp = Response::ok_with(format!("stats {name}"), r.verbose());
            resp.lines.push(format!(
                "service: {} requests ({} reads), {} tuples in, {} scripts cached",
                view.state.requests + view.reads,
                view.reads,
                view.state.tuples_in,
                view.state.snapshot.scripts_cached,
            ));
            resp
        }),
        Request::Sql { session } => read_on_session(shared, session, |view| {
            let sql = sql_dump_snapshot(&view.state.snapshot.target);
            Response::ok_with(format!("sql {session}"), sql.trim_end())
        }),
        Request::Metrics => {
            refresh_session_gauges(shared);
            Response::ok_with("metrics", render_prometheus(&shared.registry).trim_end())
        }
        Request::Trace { slow, k } => match &shared.recorder {
            None => Response::err(
                "tracing disabled (start the server with --trace-buffer N to record request spans)",
            ),
            Some(rec) => {
                let spans = if *slow {
                    rec.slowest(*k as usize)
                } else {
                    rec.recent(*k as usize)
                };
                let mut resp = Response::ok(format!(
                    "trace {} {} spans of {} recorded (capacity {})",
                    if *slow { "slow" } else { "recent" },
                    spans.len(),
                    rec.recorded(),
                    rec.capacity(),
                ));
                resp.lines = spans.iter().map(ReqSpan::render).collect();
                resp
            }
        },
        Request::Close { session } => {
            // The Close record is appended while the map write lock is still
            // held: a re-OPEN of the same name must take that lock first, so
            // its Open record can only land after this Close.
            let closed = shared.manager.close_with(session, || {
                wal_append(
                    shared,
                    session,
                    WalRecord::Close {
                        session: session.clone(),
                    },
                );
            });
            match closed {
                Ok((_target, report)) => {
                    shared.stats.closed.inc();
                    maybe_checkpoint(shared, session);
                    Response::ok(format!("closed {session} | {report}"))
                }
                Err(e) => Response::err(e),
            }
        }
        Request::Cluster => cluster_status(shared),
        Request::Join { node, addr } => cluster_join(shared, node, addr),
        Request::Leave { node: Some(node) } => cluster_leave_announced(shared, node),
        Request::Leave { node: None } => cluster_leave_self(shared),
        Request::Ping { node } => pong_response(shared, node),
        Request::Migrate {
            session,
            scenario,
            requests,
            tuples_in,
            state,
        } => cluster_migrate_in(shared, session, scenario, *requests, *tuples_in, state),
        Request::Repl {
            origin,
            shard,
            payload,
        } => cluster_repl_in(shared, origin, *shard, payload),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::ok("shutting down")
        }
    }
}

// --- cluster ----------------------------------------------------------

/// Ownership gate for session-addressed verbs in cluster mode. A session
/// live on this node is always served here (local wins — the ring may lag
/// a migration or failover, but the bytes are *here*); otherwise migration
/// bookkeeping and the ring decide: mid-handoff sessions answer `BUSY`
/// (clients retry transparently), sessions owned elsewhere answer
/// `ERR MOVED <node> <addr>`.
fn cluster_gate(shared: &Shared, request: &Request) -> Option<Response> {
    let cl = shared.cluster.as_ref()?;
    if !request.is_routed() {
        return None;
    }
    let name = request.session()?;
    if shared.manager.get(name).is_some() {
        return None;
    }
    match cl.state.route(name) {
        Route::Local => None,
        Route::Migrating => Some(busy_response()),
        Route::Moved(node, addr) => {
            cl.count_redirect();
            Some(Response::err(format!("MOVED {node} {addr}")))
        }
    }
}

/// Re-route a `no such session` failure that slipped past the gate (the
/// session was taken by a migration or close between the gate's check and
/// the tenant lookup). Returns the cluster answer, or `None` when the
/// miss is genuine.
fn cluster_recheck(shared: &Shared, name: &str) -> Option<Response> {
    let cl = shared.cluster.as_ref()?;
    match cl.state.route(name) {
        Route::Migrating => Some(busy_response()),
        Route::Moved(node, addr) => {
            cl.count_redirect();
            Some(Response::err(format!("MOVED {node} {addr}")))
        }
        Route::Local => None,
    }
}

/// The `CLUSTER` verb: this node's view of the ring (parseable by
/// [`HashRing::parse`] — unknown lines are ignored), standby holdings, and
/// replication progress.
fn cluster_status(shared: &Shared) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    let st = &cl.state;
    let ring = st.ring.read().unwrap_or_else(|e| e.into_inner());
    let head = format!(
        "cluster node {} ring-version {} ({} nodes, {} alive)",
        st.node_id(),
        ring.version(),
        ring.len(),
        ring.alive(),
    );
    let mut lines: Vec<String> = ring.render().lines().map(str::to_owned).collect();
    drop(ring);
    {
        let standby = st.standby.lock().unwrap_or_else(|e| e.into_inner());
        let mut origins: Vec<&String> = standby.keys().collect();
        origins.sort();
        for origin in origins {
            let set = &standby[origin];
            let mut marks: Vec<(u32, u64)> = set.watermarks.iter().map(|(&s, &l)| (s, l)).collect();
            marks.sort_unstable();
            let wm = marks
                .iter()
                .map(|(s, l)| format!("{s}:{l}"))
                .collect::<Vec<_>>()
                .join(",");
            lines.push(format!(
                "standby {origin} sessions={} records={} errors={} wm={wm}",
                set.sessions.len(),
                set.records,
                set.errors,
            ));
        }
    }
    lines.push(format!(
        "repl queued={} sent={} acked={} lag={}",
        st.repl_queued(),
        st.repl_sent_total(),
        st.repl_acked_total(),
        st.repl_lag(),
    ));
    for (node, peer) in st.repl_peers_snapshot() {
        lines.push(format!(
            "repl-peer {node} shipping={} queued={} sent={} acked={} lag={}",
            peer.is_shipping(),
            peer.queued(),
            peer.sent.load(Ordering::Relaxed),
            peer.acked.load(Ordering::Relaxed),
            peer.lag(),
        ));
    }
    let heads = shard_last_lsns(shared);
    if !heads.is_empty() {
        let heads = heads
            .iter()
            .enumerate()
            .map(|(i, l)| format!("{i}:{l}"))
            .collect::<Vec<_>>()
            .join(",");
        lines.push(format!("wal-lsn {heads}"));
    }
    lines.push(format!(
        "redirects {}",
        st.redirects.load(Ordering::Relaxed)
    ));
    Response {
        ok: true,
        head,
        lines,
    }
}

/// The `PING <node>` verb. Cheap and lock-bounded by design: the reactor
/// answers pings inline (never through the worker pool), so heartbeat
/// liveness cannot be starved by a saturated or wedged pool — with one
/// worker, a single slow exchange (or two nodes' `JOIN` announcements
/// waiting on each other) would otherwise silence pongs past the failover
/// window and wedge the mesh into mutual false death declarations.
///
/// The ping itself is proof of life: a pinger this ring had declared dead
/// is revived, so a transient stall or healed partition converges back to
/// full membership instead of splitting permanently (links only connect
/// to alive peers, so without revival neither side would ever ping the
/// other again).
///
/// The pong reports this node's per-shard standby watermarks *for the
/// pinger*: the origin compares them against its own WAL heads and
/// re-ships anything missing (anti-entropy). No lines means we hold
/// nothing of its.
pub(crate) fn pong_response(shared: &Shared, node: &str) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    cl.state.note_peer(node);
    let known_dead = {
        let ring = cl.state.ring.read().unwrap_or_else(|e| e.into_inner());
        ring.addr_of(node).is_some() && !ring.is_alive(node)
    };
    if known_dead {
        let revived = {
            let mut ring = cl.state.ring.write().unwrap_or_else(|e| e.into_inner());
            ring.mark_alive(node)
        };
        if revived {
            eprintln!(
                "sedex-service: node {} revived {node} (pinged after being declared dead)",
                cl.state.node_id(),
            );
        }
    }
    let mut resp = Response::ok(format!("pong {}", cl.state.node_id()));
    let standby = cl.state.standby.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(set) = standby.get(node) {
        let mut marks: Vec<(u32, u64)> = set.watermarks.iter().map(|(&s, &l)| (s, l)).collect();
        marks.sort_unstable();
        resp.lines
            .extend(marks.iter().map(|(s, l)| format!("wm {s} {l}")));
    }
    resp
}

/// A short-timeout, no-retry client for node-to-node announcements.
fn peer_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_secs(2)),
        write_timeout: Some(Duration::from_secs(2)),
        max_attempts: 1,
        binary: false,
        ..ClientConfig::default()
    }
}

/// Best-effort fire of one command at a list of peer addresses; failures
/// are logged and skipped (announcements are convergence hints, not
/// transactions — a peer that missed one learns from the next `CLUSTER`
/// fetch or redirect).
fn announce_to_peers(peers: &[(String, String)], command: &str) {
    for (node, addr) in peers {
        let sent = Client::connect_with(addr.as_str(), peer_client_config())
            .and_then(|mut c| c.request(command));
        if let Err(e) = sent {
            eprintln!("sedex-service: announce `{command}` to {node} ({addr}) failed: {e}");
        }
    }
}

/// Alive peers other than this node (and `except`), as `(node, addr)`.
fn alive_peers(state: &ClusterState, except: &str) -> Vec<(String, String)> {
    let ring = state.ring.read().unwrap_or_else(|e| e.into_inner());
    ring.nodes()
        .filter(|(id, e)| *id != state.node_id() && *id != except && e.alive)
        .map(|(id, e)| (id.to_owned(), e.addr.clone()))
        .collect()
}

/// The `JOIN <node> <addr>` verb: add the node to the ring and reply with
/// the full topology (the joiner adopts it). A *fresh* join is announced
/// to the other alive members, so a join through any one node reaches all
/// of them; repeats are idempotent and do not re-propagate. After a fresh
/// join this node also rebalances: every live local session the new ring
/// places on the joiner is handed off over the `MIGRATE` path right away,
/// so the joiner serves its share immediately instead of waiting for
/// clients to churn — and since every member runs this on its own fresh
/// observation, the whole cluster converges without a coordinator. A
/// failed handoff is logged and the session stays local (local wins:
/// the gate serves live sessions here regardless of the ring).
fn cluster_join(shared: &Shared, node: &str, addr: &str) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    cl.state.note_peer(node);
    let (fresh, rendered) = {
        let mut ring = cl.state.ring.write().unwrap_or_else(|e| e.into_inner());
        let was_known = ring.addr_of(node).is_some();
        let changed = ring.join(node, addr);
        (changed && !was_known, ring.render())
    };
    if fresh {
        for (peer, peer_addr) in alive_peers(&cl.state, node) {
            announce_to_peers(&[(peer, peer_addr)], &format!("JOIN {node} {addr}"));
        }
        if node != cl.state.node_id() {
            let mut clients = std::collections::HashMap::new();
            let mut moved = 0usize;
            for name in shared.manager.names() {
                let owned_by_joiner = {
                    let ring = cl.state.ring.read().unwrap_or_else(|e| e.into_inner());
                    ring.owner(&name) == Some(node)
                };
                if !owned_by_joiner {
                    continue;
                }
                match handoff_session(shared, &cl.state, &mut clients, &name, node, addr) {
                    Ok(true) => moved += 1,
                    Ok(false) => {}
                    Err(e) => eprintln!("sedex-service: join rebalance kept `{name}`: {e}"),
                }
            }
            if moved > 0 {
                eprintln!(
                    "sedex-service: node {} rebalanced {moved} sessions to joiner {node}",
                    cl.state.node_id(),
                );
            }
        }
    }
    let mut resp = Response::ok(format!("joined {node}"));
    resp.lines = rendered.lines().map(str::to_owned).collect();
    resp
}

/// The `LEAVE <node>` announcement: a peer completed a planned leave.
/// Its points come off the ring (planned removal redistributes keys
/// per-point) and any standby state replicated from it is dropped — the
/// sessions were migrated live, the shadow copies are obsolete.
fn cluster_leave_announced(shared: &Shared, node: &str) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    if node == cl.state.node_id() {
        return Response::err("use LEAVE without a node id to leave yourself");
    }
    let removed = cl
        .state
        .ring
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .remove(node);
    cl.state
        .standby
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(node);
    cl.state
        .forwarded
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|_, target| target != node);
    if removed {
        Response::ok(format!("removed {node}"))
    } else {
        Response::ok(format!("{node} was not a member"))
    }
}

/// The bare `LEAVE` verb: migrate every owned session to its new ring
/// owner, then remove this node from the ring and announce the departure.
/// The node stays up afterwards, answering `MOVED` for everything — a
/// concurrently pushing client sees `BUSY` during each session's handoff
/// window and redirects after it, never an error.
fn cluster_leave_self(shared: &Shared) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    let st = &cl.state;
    let self_id = st.node_id().to_owned();
    {
        let ring = st.ring.read().unwrap_or_else(|e| e.into_inner());
        if ring
            .nodes()
            .filter(|(id, e)| **id != *self_id && e.alive)
            .count()
            == 0
        {
            return Response::err("cannot leave: no other alive node to migrate to");
        }
    }
    let mut moved = 0usize;
    let mut clients: std::collections::HashMap<String, Client> = std::collections::HashMap::new();
    for name in shared.manager.names() {
        // Resolve the post-leave owner first; abort before touching the
        // session if the ring cannot place it.
        let target = {
            let ring = st.ring.read().unwrap_or_else(|e| e.into_inner());
            match ring.owner_excluding(&name, &self_id) {
                Some(owner) => {
                    let addr = ring.addr_of(&owner).unwrap_or_default().to_owned();
                    (owner, addr)
                }
                None => return Response::err("cannot leave: ring has no successor"),
            }
        };
        let (target_node, target_addr) = &target;
        match handoff_session(shared, st, &mut clients, &name, target_node, target_addr) {
            Ok(true) => moved += 1,
            Ok(false) => continue,
            Err(e) => return Response::err(format!("leave aborted: {e}")),
        }
    }
    let peers = alive_peers(st, "");
    st.ring
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&self_id);
    st.left.store(true, Ordering::SeqCst);
    for (peer, addr) in &peers {
        announce_to_peers(&[(peer.clone(), addr.clone())], &format!("LEAVE {self_id}"));
    }
    Response::ok(format!("left, migrated {moved} sessions"))
}

/// Hand one live session to another node over the binary `MIGRATE` path:
/// mark it migrating (requests answer `BUSY` meanwhile), take it out of
/// the manager (WAL-logging the local `Close`), export its state and ship
/// it. On success the session is forwarded; on failure it is reinstalled
/// and the error describes why. `Ok(false)` means a racing close or
/// eviction got there first — nothing to move. Clients are cached per
/// target address so a multi-session handoff dials each receiver once.
fn handoff_session(
    shared: &Shared,
    st: &ClusterState,
    clients: &mut std::collections::HashMap<String, Client>,
    name: &str,
    target_node: &str,
    target_addr: &str,
) -> Result<bool, String> {
    st.migrating
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name.to_owned());
    let taken = shared.manager.take(name, || {
        wal_append(
            shared,
            name,
            WalRecord::Close {
                session: name.to_owned(),
            },
        );
    });
    let (scenario, requests, tuples_in, session) = match taken {
        Ok(parts) => parts,
        Err(e) => {
            // Raced a CLOSE/eviction: nothing to migrate.
            st.migrating
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .remove(name);
            eprintln!("sedex-service: handoff skipped `{name}`: {e}");
            return Ok(false);
        }
    };
    let mut state_writer = ByteWriter::new();
    encode_session_state(&mut state_writer, &session.export_state());
    let state_bytes = state_writer.into_bytes();
    let shipped = match clients.entry(target_addr.to_owned()) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            match Client::connect_with(
                target_addr,
                ClientConfig {
                    binary: true,
                    ..peer_client_config()
                },
            ) {
                Ok(c) => v.insert(c),
                Err(e) => {
                    reinstall_after_failed_handoff(
                        shared, name, scenario, session, requests, tuples_in,
                    );
                    return Err(format!("cannot reach {target_node} ({target_addr}): {e}"));
                }
            }
        }
    };
    match shipped.migrate(name, &scenario, requests, tuples_in, &state_bytes) {
        Ok(reply) if reply.ok => {
            st.forwarded
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(name.to_owned(), target_node.to_owned());
            st.migrating
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(name);
            Ok(true)
        }
        Ok(reply) => {
            reinstall_after_failed_handoff(shared, name, scenario, session, requests, tuples_in);
            Err(format!("{target_node} refused `{name}`: {}", reply.head))
        }
        Err(e) => {
            reinstall_after_failed_handoff(shared, name, scenario, session, requests, tuples_in);
            Err(format!("handoff of `{name}` to {target_node} failed: {e}"))
        }
    }
}

/// Undo a half-done handoff: put the taken session back and clear the
/// migrating mark, so the leave aborts cleanly with the session serving.
fn reinstall_after_failed_handoff(
    shared: &Shared,
    name: &str,
    scenario: String,
    session: sedex_core::SedexSession,
    requests: u64,
    tuples_in: u64,
) {
    if let Err(e) = shared
        .manager
        .install(name, scenario, session, requests, tuples_in)
    {
        eprintln!("sedex-service: failed to reinstall `{name}` after aborted leave: {e}");
    }
    if let Some(cl) = &shared.cluster {
        cl.state
            .migrating
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
    }
}

/// The binary-only `MIGRATE` frame: install a session another node
/// exported. The state is decoded and restored wholesale, then the shard
/// is checkpointed *before* the OK goes out — the origin forgets the
/// session on our acknowledgement, so it must be durable here first
/// (when durability is on at all).
fn cluster_migrate_in(
    shared: &Shared,
    session: &str,
    scenario: &str,
    requests: u64,
    tuples_in: u64,
    state: &[u8],
) -> Response {
    if shared.cluster.is_none() {
        return Response::err("not in cluster mode");
    }
    let mut r = ByteReader::new(state);
    let decoded = match decode_session_state(&mut r) {
        Ok(s) => s,
        Err(e) => return Response::err(format!("migrate: bad state payload: {e:?}")),
    };
    if let Err(e) =
        shared
            .manager
            .install_restored(session, scenario, decoded, requests, tuples_in, || ())
    {
        return Response::err(format!("migrate: {e}"));
    }
    // Log the inheritance as a WAL record of its own: crash recovery *and*
    // this node's replication followers must see the session arrive, not
    // just the next snapshot.
    wal_append(
        shared,
        session,
        WalRecord::Install {
            session: session.to_owned(),
            scenario: scenario.to_owned(),
            requests,
            tuples_in,
            state: state.to_vec(),
        },
    );
    shared.stats.opened.inc();
    shared.notify_sweeper();
    checkpoint_shard(shared, shared.manager.shard_index(session));
    Response::ok(format!("migrated in {session}"))
}

/// The binary-only `REPL` frame: apply one replicated WAL record to the
/// origin's standby set. Replication traffic doubles as a life sign.
///
/// A gapped frame (an earlier one was lost in flight) answers `OK` too:
/// tearing the link down would only re-ship the same stream, while the
/// `OK` keeps the origin's ack bookkeeping consistent so its anti-entropy
/// pass — which compares our pong-reported watermarks against its WAL
/// heads — can heal the hole without a reconnect.
fn cluster_repl_in(shared: &Shared, origin: &str, shard: u32, payload: &[u8]) -> Response {
    let Some(cl) = &shared.cluster else {
        return Response::err("not in cluster mode");
    };
    cl.state.note_peer(origin);
    let mut standby = cl.state.standby.lock().unwrap_or_else(|e| e.into_inner());
    let set = standby.entry(origin.to_owned()).or_default();
    match set.apply(
        &shared.session_config,
        shared.observer.as_ref(),
        shard,
        payload,
    ) {
        Ok(Applied::Applied) => Response::ok("ack"),
        Ok(Applied::Duplicate) => Response::ok("ack duplicate"),
        Ok(Applied::Gap { expected, got }) => {
            Response::ok(format!("ack gap expected={expected} got={got}"))
        }
        Err(e) => Response::err(format!("repl: {e}")),
    }
}

/// Read every retained WAL segment of every shard into replication
/// frames, oldest generation first — the catch-up stream a (re)connected
/// replication link starts with. The standby's per-shard watermarks
/// deduplicate whatever it already has.
pub(crate) fn repl_catchup_frames(shared: &Shared) -> Vec<ReplFrame> {
    let Some(dir) = &shared.data_dir else {
        return Vec::new();
    };
    let mut frames = Vec::new();
    for idx in 0..shared.manager.shard_count() {
        let shard_dir = dir.join(format!("shard-{idx}"));
        let Ok(segments) = list_segments(&shard_dir) else {
            continue;
        };
        for (_generation, path) in segments {
            let Ok(seg) = read_segment(&path) else {
                continue;
            };
            frames.extend(seg.payloads.into_iter().map(|payload| ReplFrame {
                shard: idx as u32,
                payload,
            }));
        }
    }
    frames
}

/// Handle a peer the failure detector declared dead: mark it dead on the
/// ring (its points stay — every key it owned now routes to its designated
/// successor) and retire its replication queue. With full-mesh heartbeats
/// *every* node observes the silence and runs this, so origins shipping to
/// the dead node re-target their followers on the next tick; only the dead
/// node's designated successor additionally promotes its standby —
/// installing the shadow sessions, WAL-logging each as an `Install` so the
/// inheritance reaches crash recovery and this node's own followers, and
/// checkpointing so the state is durable under this node's shards. Runs on
/// the reactor thread, from the failure detector.
pub(crate) fn promote_dead_peer(shared: &Shared, dead: &str) {
    let Some(cl) = &shared.cluster else {
        return;
    };
    let heir = {
        let mut ring = cl.state.ring.write().unwrap_or_else(|e| e.into_inner());
        ring.mark_dead(dead);
        ring.successor(dead) == Some(cl.state.node_id())
    };
    cl.state.retire_repl_peer(dead);
    if !heir {
        eprintln!(
            "sedex-service: node {} declared {dead} dead after {:?} silence (successor promotes)",
            cl.state.node_id(),
            cl.state.config.failover,
        );
        return;
    }
    let set = cl
        .state
        .standby
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(dead);
    let mut installed = 0usize;
    if let Some(set) = set {
        for (_, rs) in set.sessions {
            let mut state_writer = ByteWriter::new();
            encode_session_state(&mut state_writer, &rs.session.export_state());
            let state_bytes = state_writer.into_bytes();
            match shared.manager.install(
                &rs.name,
                rs.scenario.clone(),
                rs.session,
                rs.requests,
                rs.tuples_in,
            ) {
                Ok(()) => {
                    wal_append(
                        shared,
                        &rs.name,
                        WalRecord::Install {
                            session: rs.name.clone(),
                            scenario: rs.scenario,
                            requests: rs.requests,
                            tuples_in: rs.tuples_in,
                            state: state_bytes,
                        },
                    );
                    shared.stats.opened.inc();
                    installed += 1;
                }
                Err(e) => eprintln!("sedex-service: promotion skipped `{}`: {e}", rs.name),
            }
        }
    }
    if installed > 0 {
        shared.notify_sweeper();
        for idx in 0..shared.manager.shard_count() {
            checkpoint_shard(shared, idx);
        }
    }
    eprintln!(
        "sedex-service: node {} declared {dead} dead after {:?} silence; promoted {installed} standby sessions",
        cl.state.node_id(),
        cl.state.config.failover,
    );
}

/// Announce this node to its configured seed peers and adopt the topology
/// they reply with. Runs at startup, blocking briefly; a peer that is not
/// up yet is retried a few times and then skipped (it can still join *us*
/// later — joins are symmetric in effect).
fn cluster_startup_join(shared: &Arc<Shared>) {
    let Some(cl) = &shared.cluster else {
        return;
    };
    let peers = cl.state.config.peers.clone();
    if peers.is_empty() {
        return;
    }
    let self_id = cl.state.node_id().to_owned();
    let advertise = cl.state.config.advertise.clone();
    for peer in &peers {
        let mut joined = false;
        for _ in 0..5 {
            let reply = Client::connect_with(peer.as_str(), peer_client_config())
                .and_then(|mut c| c.request(&format!("JOIN {self_id} {advertise}")));
            match reply {
                Ok(reply) if reply.ok => {
                    match HashRing::parse(&reply.body()) {
                        Ok(theirs) => {
                            cl.state
                                .ring
                                .write()
                                .unwrap_or_else(|e| e.into_inner())
                                .adopt_if_newer(theirs);
                        }
                        Err(e) => {
                            eprintln!("sedex-service: join reply from {peer} did not parse: {e}")
                        }
                    }
                    joined = true;
                    break;
                }
                Ok(reply) => {
                    eprintln!("sedex-service: join via {peer} refused: {}", reply.head);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(200)),
            }
        }
        if !joined {
            eprintln!("sedex-service: could not join via {peer} (it can still join us later)");
        }
    }
}

/// The shared tail of `PUSH` (text) and the binary tuple push.
fn push_parsed(shared: &Shared, session: &str, rel: &str, tuple: Tuple) -> Response {
    let resp = run_on_session(shared, session, "PUSH", |t| {
        push_row(shared, session, t, rel, tuple).map_err(|e| e.to_string())?;
        Ok(Response::ok(format!(
            "pushed {rel} | {}",
            push_summary(&t.session)
        )))
    });
    if resp.ok {
        maybe_checkpoint(shared, session);
    }
    resp
}

/// Exchange one already-parsed tuple on a locked tenant, WAL-logging the
/// push and any new scripts while the tenant lock is still held (durable
/// mutex innermost): this session's records land in application order.
fn push_row(
    shared: &Shared,
    session: &str,
    t: &mut Tenant,
    rel: &str,
    tuple: Tuple,
) -> Result<(), StorageError> {
    t.session.exchange_tuple(rel, tuple.clone())?;
    t.tuples_in += 1;
    wal_append(
        shared,
        session,
        WalRecord::Push {
            session: session.to_owned(),
            relation: rel.to_owned(),
            tuple,
        },
    );
    log_new_scripts(shared, session, t);
    Ok(())
}

/// One `ScriptAdd` WAL record per script the session generated since the
/// last drain. Without durability nothing is logged or drained.
fn log_new_scripts(shared: &Shared, session: &str, t: &mut Tenant) {
    if shared.durability.is_none() {
        return;
    }
    for (key, script) in t.session.take_new_scripts() {
        wal_append(
            shared,
            session,
            WalRecord::ScriptAdd {
                session: session.to_owned(),
                key,
                script: script.script().clone(),
            },
        );
    }
}

/// The `scripts … | target N tuples` part of a push reply, read from the
/// session's counters and relation lengths: O(relations), so a push never
/// walks the target it just grew.
pub fn push_summary(session: &sedex_core::SedexSession) -> String {
    let (generated, reused) = session.script_counts();
    format!(
        "scripts {generated} generated / {reused} reused | target {} tuples",
        session.target().total_tuples()
    )
}

/// The shared tail of `FEED` (text) and the binary tuple feed.
fn feed_parsed(shared: &Shared, session: &str, rel: &str, tuple: Tuple) -> Response {
    let resp = run_on_session(shared, session, "FEED", |t| {
        t.session
            .feed(rel, tuple.clone())
            .map_err(|e| e.to_string())?;
        t.tuples_in += 1;
        wal_append(
            shared,
            session,
            WalRecord::Feed {
                session: session.to_owned(),
                relation: rel.to_owned(),
                tuple,
            },
        );
        Ok(Response::ok(format!("fed {rel}")))
    });
    if resp.ok {
        maybe_checkpoint(shared, session);
    }
    resp
}

fn run_on_session(
    shared: &Shared,
    name: &str,
    verb: &'static str,
    f: impl FnOnce(&mut Tenant) -> Result<Response, String>,
) -> Response {
    let faults = shared.faults.clone();
    match shared.manager.with_tenant(name, move |t| {
        // Stamp the driving verb so a slow-exchange record fired inside
        // this request names it (`slow_exchange … session=… verb=…`).
        t.session.set_verb(Some(verb));
        // The session-work fault point fires while the tenant mutex is
        // held: an injected Panic unwinds through the guard and poisons
        // exactly this session; injected Latency makes this a slow request
        // (deadline/shedding tests); injected errors fail the request.
        match faults
            .as_ref()
            .and_then(|p| p.fire(FaultPoint::SessionWork))
        {
            Some(FaultKind::Error(kind)) => {
                return Err(format!("injected fault at session_work: {kind}"))
            }
            Some(FaultKind::ShortWrite) => {
                return Err("injected short write at session_work".to_owned())
            }
            _ => {}
        }
        f(t)
    }) {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) | Err(e) => {
            // In cluster mode a lookup miss may mean "taken by a migration
            // or failover between the ownership gate and here" — re-check
            // so the race window answers BUSY/MOVED, never a spurious
            // `no such session`.
            if e.contains("no such session") {
                if let Some(resp) = cluster_recheck(shared, name) {
                    return resp;
                }
            }
            Response::err(e)
        }
    }
}

/// The MVCC read path: resolve the session, clone its published
/// batch-boundary snapshot, and render with `f` — the tenant mutex is
/// never taken, so a reader neither queues behind a slow exchange nor
/// delays one. The same cluster re-check as [`run_on_session`] keeps a
/// mid-migration lookup miss answering `BUSY`/`MOVED` instead of a
/// spurious `no such session`.
fn read_on_session(
    shared: &Shared,
    name: &str,
    f: impl FnOnce(&crate::manager::ReadView) -> Response,
) -> Response {
    match shared.manager.read_view(name) {
        Ok(view) => f(&view),
        Err(e) => {
            if e.contains("no such session") {
                if let Some(resp) = cluster_recheck(shared, name) {
                    return resp;
                }
            }
            Response::err(e)
        }
    }
}

/// Recover whatever `data_dir` holds, install the sessions into the
/// manager, and open one [`DurableShard`] per manager shard, continuing
/// each directory's generation/LSN sequence.
fn init_durability(
    data_dir: &std::path::Path,
    cfg: &ServerConfig,
    session_config: &SedexConfig,
    observer: Option<&Arc<dyn Observer>>,
    registry: &MetricsRegistry,
    manager: &SessionManager,
) -> std::io::Result<Durability> {
    std::fs::create_dir_all(data_dir)?;
    let metrics = Arc::new(DurableMetrics::new(registry));
    let mut recovered_sessions = 0u64;
    let mut replayed_records = 0u64;
    let mut torn_tails = 0u64;
    let mut reports: std::collections::HashMap<u64, sedex_durable::RecoveryReport> =
        std::collections::HashMap::new();
    for (idx, sessions, report) in recover_data_dir(data_dir, session_config, observer)? {
        metrics.record_recovery(sessions.len(), &report);
        recovered_sessions += sessions.len() as u64;
        replayed_records += report.records_replayed;
        torn_tails += report.torn_tails as u64;
        for rs in sessions {
            // A duplicate across shard directories can only arise from a
            // shard-count change combined with a corrupt newest snapshot;
            // keep the first copy and say so rather than failing startup.
            if let Err(e) =
                manager.install(&rs.name, rs.scenario, rs.session, rs.requests, rs.tuples_in)
            {
                eprintln!("sedex-service: recovery skipped a duplicate: {e}");
            }
        }
        reports.insert(idx, report);
    }
    let shards = (0..manager.shard_count())
        .map(|i| {
            let report = reports.remove(&(i as u64)).unwrap_or_default();
            DurableShard::open(
                data_dir.join(format!("shard-{i}")),
                cfg.fsync,
                &report,
                Some(Arc::clone(&metrics)),
            )
            .map(|s| Mutex::new(s.with_fault_plan(cfg.fault_plan.clone())))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Durability {
        shards,
        metrics,
        snapshot_every: cfg.snapshot_every,
        recovered_sessions,
        replayed_records,
        torn_tails,
        finalized: AtomicBool::new(false),
        skip_final_checkpoint: AtomicBool::new(false),
    })
}

/// Drop `shard-<i>` directories with `i >= live` — leftovers from a run
/// with more shards. Safe only after the startup checkpoint re-persisted
/// every recovered session under the current mapping.
fn remove_stale_shard_dirs(data_dir: &std::path::Path, live: usize) {
    let Ok(entries) = std::fs::read_dir(data_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(idx) = name
            .to_string_lossy()
            .strip_prefix("shard-")
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        if idx >= live && entry.path().is_dir() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Append one record to the session's durable shard (no-op without a data
/// dir). Called while holding the lock that serialized the operation (the
/// tenant mutex, or the shard-map write lock for open/close/evict), with
/// the durable-shard mutex as the innermost lock — see `Durability`. An
/// append failure is non-fatal: the in-memory state is already applied and
/// the client is served — availability over strict durability — but it is
/// counted (`sedex_wal_append_errors_total`) and flags the `STATS`
/// durability line as DEGRADED, since a crash would lose the operation.
fn wal_append(shared: &Shared, session: &str, record: WalRecord) {
    let Some(d) = &shared.durability else {
        return;
    };
    let idx = shared.manager.shard_index(session);
    let mut shard = lock_durable(&d.shards[idx]);
    match shard.append(&record) {
        Err(e) => eprintln!("sedex-service: WAL append failed on shard {idx}: {e}"),
        Ok(lsn) => {
            // Replication rides the WAL: every appended record fans out to
            // each follower whose link is up — still under the
            // durable-shard lock, so every queue preserves this shard's
            // LSN order. A follower whose link is down gets *nothing*
            // queued; its next (re)connect catches up from disk, which
            // this append just reached.
            if let Some(cl) = &shared.cluster {
                cl.state.repl_fanout(idx as u32, || record.encode(lsn));
            }
        }
    }
}

/// The highest LSN appended to each durable shard — the heads the
/// anti-entropy pass compares follower watermarks against. Empty without
/// durability (nothing to replicate then either).
pub(crate) fn shard_last_lsns(shared: &Shared) -> Vec<u64> {
    let Some(d) = &shared.durability else {
        return Vec::new();
    };
    d.shards
        .iter()
        .map(|s| lock_durable(s).last_lsn())
        .collect()
}

/// Lock a durable shard, tolerating poisoning: an injected (or real) panic
/// mid-append leaves at worst a torn frame, which the WAL format already
/// treats as a crash artifact — refusing all further durability because of
/// it would turn one bad record into a durability outage.
fn lock_durable(shard: &Mutex<DurableShard>) -> MutexGuard<'_, DurableShard> {
    shard.lock().unwrap_or_else(|p| p.into_inner())
}

/// Checkpoint the session's shard if it has accumulated `--snapshot-every`
/// records since the last one (`0` disables the size trigger).
fn maybe_checkpoint(shared: &Shared, session: &str) {
    let Some(d) = &shared.durability else {
        return;
    };
    if d.snapshot_every == 0 {
        return;
    }
    let idx = shared.manager.shard_index(session);
    let due = lock_durable(&d.shards[idx]).records_since_checkpoint() >= d.snapshot_every;
    if due {
        checkpoint_shard(shared, idx);
    }
}

/// Snapshot every session on manager shard `idx` and rotate its WAL.
///
/// Watermark first, export second: every record with `lsn ≤ watermark`
/// was appended — and, since appends happen under the lock that applied
/// the operation, *applied* — before the capture, so the export below is
/// guaranteed to contain its effect. A record landing between capture and
/// export carries `lsn > watermark` and is re-replayed idempotently at
/// recovery: the conservatively early watermark costs redo, never data.
/// No lock is held across phases — see `Durability` for the lock order.
pub(crate) fn checkpoint_shard(shared: &Shared, idx: usize) {
    let Some(d) = &shared.durability else {
        return;
    };
    let watermark = lock_durable(&d.shards[idx]).last_lsn();
    let export = shared.manager.export_shard(idx);
    if export.skipped_poisoned > 0 {
        // A poisoned tenant cannot be exported, so this checkpoint omits
        // it: count every omission so STATS can flag durability DEGRADED
        // (recovery will fall back to WAL replay for those sessions).
        shared
            .stats
            .snapshot_skips
            .add(export.skipped_poisoned as u64);
    }
    let sessions: Vec<SessionSnapshot> = export
        .sessions
        .into_iter()
        .map(
            |(name, scenario, requests, tuples_in, state)| SessionSnapshot {
                name,
                scenario,
                requests,
                tuples_in,
                state,
            },
        )
        .collect();
    let mut shard = lock_durable(&d.shards[idx]);
    if let Err(e) = shard.checkpoint(watermark, sessions) {
        eprintln!("sedex-service: checkpoint failed on shard {idx}: {e}");
    }
}

/// Final flush at clean shutdown: checkpoint every shard and fsync, once.
/// Skipped after [`ServerHandle::abort`] (the simulated crash).
fn finalize_durability(shared: &Shared) {
    let Some(d) = &shared.durability else {
        return;
    };
    if d.skip_final_checkpoint.load(Ordering::SeqCst) || d.finalized.swap(true, Ordering::SeqCst) {
        return;
    }
    for idx in 0..d.shards.len() {
        checkpoint_shard(shared, idx);
        let mut shard = lock_durable(&d.shards[idx]);
        if let Err(e) = shard.sync() {
            eprintln!("sedex-service: final fsync failed on shard {idx}: {e}");
        }
    }
}

/// Refresh the point-in-time session gauges (`sedex_sessions_live` per
/// shard) from the manager — done at render time, since live-session
/// counts are derived state, not event streams.
fn refresh_session_gauges(shared: &Shared) {
    for (i, n) in shared.manager.shard_sizes().into_iter().enumerate() {
        let shard = i.to_string();
        shared
            .registry
            .gauge_with(
                "sedex_sessions_live",
                "Live sessions per shard",
                &[("shard", &shard)],
            )
            .set(n as i64);
    }
    if let Some(plan) = &shared.faults {
        for point in FaultPoint::ALL {
            shared
                .registry
                .gauge_with(
                    "sedex_faults_injected",
                    "Injected faults per fault point (chaos testing)",
                    &[("point", point.name())],
                )
                .set(plan.injected(point) as i64);
        }
    }
    if let Some(cl) = &shared.cluster {
        cl.repl_lag.set(cl.state.repl_lag() as i64);
        cl.ring_version.set(
            cl.state
                .ring
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .version() as i64,
        );
    }
}

fn server_stats(shared: &Shared, proto: Proto) -> Response {
    let s = &shared.stats;
    let shard_sizes = shared.manager.shard_sizes();
    let head = format!(
        "server up {:?} | {} sessions | {} requests, {} tuples in, {} errors",
        shared.started.elapsed(),
        shared.manager.len(),
        s.requests.get(),
        s.tuples_in.get(),
        s.errors.get(),
    );
    let mut lines = vec![format!(
        "sessions: {} opened, {} closed, {} evicted | connections: {}",
        s.opened.get(),
        s.closed.get(),
        s.evicted.get(),
        s.connections.get(),
    )];
    lines.push(format!(
        "protocols: text {} requests, binary {} requests | open connections: {} | this connection: {}",
        s.proto_text.get(),
        s.proto_binary.get(),
        s.open_conns.get().max(0),
        proto.name(),
    ));
    lines.push(format!(
        "load: queue depth {}, busy workers {}/{} | sessions/shard: [{}]",
        s.queue_depth.get().max(0),
        s.workers_busy.get().max(0),
        shared.workers,
        shard_sizes
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" "),
    ));
    lines.push(format!(
        "latency: p50 {:?}, p90 {:?}, p99 {:?} over {} requests",
        s.request_seconds.quantile(0.5),
        s.request_seconds.quantile(0.9),
        s.request_seconds.quantile(0.99),
        s.request_seconds.count(),
    ));
    let tracing = match &shared.recorder {
        Some(rec) => format!(
            "tracing on (buffer {}, {} spans recorded)",
            rec.capacity(),
            rec.recorded()
        ),
        None => "tracing off".to_owned(),
    };
    lines.push(format!(
        "reactor: {} polls ({} wakeups, {} events), {} backpressure parks | highwater: rbuf {}B, wbuf {}B, pipeline {} | {}",
        s.reactor_polls.get(),
        s.reactor_wakeups.get(),
        s.reactor_events.get(),
        s.reactor_parks.get(),
        s.reactor_rbuf_hw.get().max(0),
        s.reactor_wbuf_hw.get().max(0),
        s.reactor_pipeline_hw.get().max(0),
        tracing,
    ));
    let mut robustness = format!(
        "robustness: {} deadline timeouts, {} shed, {} panics",
        s.deadlines.get(),
        s.shed.get(),
        s.panics.get(),
    );
    if let Some(plan) = &shared.faults {
        robustness.push_str(&format!(" | faults injected: {}", plan.injected_total()));
    }
    lines.push(robustness);
    if let Some(d) = &shared.durability {
        let mut line = format!(
            "durability: {} wal appends ({} bytes), {} checkpoints | recovered: {} sessions, {} records replayed, {} torn tails",
            d.metrics.wal_appends.get(),
            d.metrics.wal_bytes.get(),
            d.metrics.checkpoints.get(),
            d.recovered_sessions,
            d.replayed_records,
            d.torn_tails,
        );
        let append_errors = d.metrics.wal_append_errors.get();
        if append_errors > 0 {
            // Acked operations exist whose records never reached the log —
            // a crash from here would lose them.
            line.push_str(&format!(" | DEGRADED: {append_errors} wal append errors"));
        }
        let snapshot_skips = s.snapshot_skips.get();
        if snapshot_skips > 0 {
            // Checkpoints omitted poisoned sessions: recovery of those
            // sessions depends entirely on WAL replay from the last good
            // snapshot, so flag the gap rather than hide it.
            line.push_str(&format!(
                " | DEGRADED: {snapshot_skips} sessions skipped by checkpoints"
            ));
        }
        lines.push(line);
    }
    if let Some(cl) = &shared.cluster {
        let ring = cl.state.ring.read().unwrap_or_else(|e| e.into_inner());
        lines.push(format!(
            "cluster: node {} | ring version {}, {} nodes ({} alive) | {} redirects | repl lag {}",
            cl.state.node_id(),
            ring.version(),
            ring.len(),
            ring.alive(),
            cl.redirects.get(),
            cl.state.repl_lag(),
        ));
    }
    // Published snapshots, not the tenant mutex: a slow exchange on one
    // session must not stall the whole server-stats render.
    for name in shared.manager.names() {
        if let Ok(view) = shared.manager.read_view(&name) {
            lines.push(format!(
                "{name}: {}",
                view.state.snapshot.report_with_stats()
            ));
        }
    }
    Response {
        ok: true,
        head,
        lines,
    }
}

/// Render a target instance as SQL `INSERT` statements (sorted by relation
/// name for stable output).
pub fn sql_dump(instance: &Instance) -> String {
    render_inserts(
        instance
            .relations()
            .map(|(_, rel)| (rel.schema(), rel.rows())),
    )
}

/// [`sql_dump`] over a captured [`InstanceSnapshot`] — byte-identical
/// output for identical contents, so a snapshot read renders exactly what
/// a locked read of the same batch boundary would have.
pub fn sql_dump_snapshot(snap: &InstanceSnapshot) -> String {
    let rows = snap.relations().map(|(_, rows)| rows);
    render_inserts(snap.schema().relations().iter().zip(rows))
}

/// The one SQL renderer behind [`sql_dump`] and [`sql_dump_snapshot`]: an
/// `INSERT` per row, relations sorted by name. Each relation's
/// `INSERT INTO name (cols) VALUES (` prefix is built once and every
/// literal is written straight into the output.
fn render_inserts<'a>(rels: impl Iterator<Item = (&'a RelationSchema, &'a Rows)>) -> String {
    let mut rels: Vec<_> = rels.collect();
    rels.sort_by(|(a, _), (b, _)| a.name.cmp(&b.name));
    let mut out = String::new();
    let mut prefix = String::new();
    for (schema, rows) in rels {
        prefix.clear();
        prefix.push_str("INSERT INTO ");
        prefix.push_str(&schema.name);
        prefix.push_str(" (");
        for (i, c) in schema.columns.iter().enumerate() {
            if i > 0 {
                prefix.push_str(", ");
            }
            prefix.push_str(&c.name);
        }
        prefix.push_str(") VALUES (");
        for tuple in rows.iter() {
            out.push_str(&prefix);
            for (i, v) in tuple.values().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_sql_literal(&mut out, v);
            }
            out.push_str(");\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, Schema, Value};

    #[test]
    fn sql_dump_renders_sorted_inserts() {
        let b = RelationSchema::with_any_columns("B", &["x"]);
        let a = RelationSchema::with_any_columns("A", &["y", "z"]);
        let schema = Schema::from_relations(vec![b, a]).unwrap();
        let mut inst = Instance::new(schema);
        inst.insert("B", sedex_storage::tuple!["v"], ConflictPolicy::Reject)
            .unwrap();
        inst.insert("A", sedex_storage::tuple!["p", "q"], ConflictPolicy::Reject)
            .unwrap();
        let sql = sql_dump(&inst);
        assert_eq!(
            sql,
            "INSERT INTO A (y, z) VALUES ('p', 'q');\nINSERT INTO B (x) VALUES ('v');\n"
        );
    }

    #[test]
    fn sql_dump_of_instance_and_snapshot_agree() {
        let c = RelationSchema::with_any_columns("C", &["k", "t", "r", "b"])
            .primary_key(&["k"])
            .unwrap();
        let a = RelationSchema::with_any_columns("A", &["y"]);
        let schema = Schema::from_relations(vec![c, a]).unwrap();
        let mut inst = Instance::new(schema);
        let rows = [
            sedex_storage::tuple!["k1", "it's", 2.5, true],
            sedex_storage::tuple!["k2", "''", -0.125, false],
            sedex_storage::tuple!["k3", Value::Labeled(7), Value::Null, Value::Labeled(8)],
        ];
        for t in rows {
            inst.insert("C", t, ConflictPolicy::Reject).unwrap();
        }
        // Enough rows that some live in sealed chunks, some in the tail.
        for i in 0..300i64 {
            inst.insert("A", sedex_storage::tuple![i], ConflictPolicy::Reject)
                .unwrap();
        }
        let sql = sql_dump(&inst);
        assert_eq!(sql, sql_dump_snapshot(&inst.snapshot()));
        assert!(sql.starts_with("INSERT INTO A (y) VALUES (0);\n"));
        assert!(sql.ends_with(
            "INSERT INTO C (k, t, r, b) VALUES ('k1', 'it''s', 2.5, TRUE);\n\
             INSERT INTO C (k, t, r, b) VALUES ('k2', '''''', -0.125, FALSE);\n\
             INSERT INTO C (k, t, r, b) VALUES ('k3', NULL /* N7 */, NULL, NULL /* N8 */);\n"
        ));
    }
}
