//! The `serve_*` workloads: an in-process server on a loopback socket,
//! driven by at most two client connections.
//!
//! * `serve_ingest` — a durable server (2 workers, WAL on, fsync off,
//!   checkpoint every 1 024 records). One closed-loop text writer streams
//!   serial `PUSH`es of distinct students into a session until it holds
//!   10 000 tuples, then replaces it with a fresh one; every 250 pushes it
//!   also opens and closes a scratch session. One open-loop reader
//!   connection reads the current session at a fixed rate — `STATS`, then
//!   `SQL` — timed from when each read was due.
//! * `serve_tenants` — an in-memory server; one closed-loop binary
//!   connection churns tenants: `OPEN` of iBench STB, one `PUSH_BATCH` of
//!   210 tuples, `SQL`, `CLOSE`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sedex_core::{SedexConfig, SedexSession};
use sedex_durable::FsyncPolicy;
use sedex_scenarios::ibench::{stb, IbenchConfig};
use sedex_scenarios::rng::SmallRng;
use sedex_scenarios::scenario::GenRule;
use sedex_scenarios::textfmt::{parse_data_line, parse_scenario, render_data, render_scenario};
use sedex_service::{sql_dump, Client, ClientConfig, Reply, Server, ServerConfig, ServerHandle};

use crate::common::{
    cpu_time, mean_us, median, percentile_us, scale_from, setups, Args, EndToEnd, HostRef, Report,
    Size, Units,
};
use crate::layers::{self, Layers, STAGES, VERBS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Period of the open-loop reader on `serve_ingest`. One read (`STATS`
/// then `SQL`) costs ~17 ms of server and client time at the session's
/// median size, so 10 reads a second leave the writer more than 80 % of the
/// CPU and give a 25 s window ~250 reads.
const READ_PERIOD: Duration = Duration::from_millis(100);
/// Distinct tenant data sets cycled through by `serve_tenants`.
const TENANT_POOL: usize = 16;
/// Flight-recorder capacity of the traced server.
const TRACE_BUFFER: usize = 16_384;

const INGEST_SCENARIO: &str = "\
[source]
Dep(dname*, building)
Student(sname*, program, dep->Dep)

[target]
Stu(student*, prog, dpt)

[correspondences]
sname <-> student
program <-> prog
dep <-> dpt
";
/// Dep context rows fed during set-up.
const INGEST_DEPS: usize = 100;

/// Where the durable server keeps its files: inside the working directory
/// (the checkout), one directory per set-up, removed when the run ends.
fn data_root() -> PathBuf {
    PathBuf::from(".perfbench-data")
}

fn client(addr: std::net::SocketAddr, binary: bool) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            binary,
            // A retried request would hide a failure from the accounting.
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .expect("connect to the in-process server")
}

/// Attempt/failure accounting of one connection's requests.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    /// Count one request; `Some(reply)` when it came back `OK`.
    fn ok(&mut self, reply: std::io::Result<Reply>) -> Option<Reply> {
        self.attempted += 1;
        match reply {
            Ok(r) if r.ok => Some(r),
            Ok(r) => self.err(format!("ERR {}", r.head)),
            Err(e) => self.err(format!("i/o: {e}")),
        }
    }

    fn err(&mut self, why: String) -> Option<Reply> {
        self.failed += 1;
        self.first_error.get_or_insert(why);
        None
    }

    /// Add another connection's accounting to this one.
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(e) = other.first_error {
            self.first_error.get_or_insert(e);
        }
    }

    fn into_report(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        if let Some(e) = self.first_error {
            report.correct = false;
            report.note(format!("first failed request: {e}"));
        }
    }
}

/// Prometheus samples from one `METRICS` scrape, keyed by `name{labels}`.
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn take(c: &mut Client, tally: &mut Tally) -> Scrape {
        let mut map = HashMap::new();
        if let Some(reply) = tally.ok(c.metrics()) {
            for line in reply.lines.iter().filter(|l| !l.starts_with('#')) {
                if let Some((key, value)) = line.rsplit_once(' ') {
                    if let Ok(v) = value.parse::<f64>() {
                        map.insert(key.to_owned(), v);
                    }
                }
            }
        }
        Scrape(map)
    }

    /// Sum of every series of `name` whose labels include all of `labels`.
    fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| {
                let (n, rest) = key.split_once('{').unwrap_or((key.as_str(), ""));
                n == name
                    && labels
                        .iter()
                        .all(|(k, v)| rest.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// `after − before` of [`Scrape::sum`].
    fn delta(before: &Scrape, after: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
        after.sum(name, labels) - before.sum(name, labels)
    }
}

/// Per-layer metrics the server's own `METRICS` surface carries, as deltas
/// over the traced unit of work. `tuples` is the denominator of the
/// per-tuple figures; `rtts` the client-measured round trips per verb.
fn server_layers(
    before: &Scrape,
    after: &Scrape,
    tuples: f64,
    rtts: &HashMap<&str, Vec<Duration>>,
) -> Layers {
    let d = |name: &str, labels: &[(&str, &str)]| Scrape::delta(before, after, name, labels);
    let phase = |p: &str| d("sedex_phase_seconds_sum", &[("phase", p)]) * 1e9;
    let mut l = Layers::default();
    let misses = d("sedex_repo_lookup_total", &[("result", "miss")]);
    let exchange_ns = d("sedex_exchange_seconds_sum", &[]) * 1e9;
    let phases: f64 = [
        "tree_build",
        "match",
        "translate",
        "scriptgen",
        "script_run",
    ]
    .iter()
    .map(|p| phase(p))
    .sum();
    l.wall_ns_per_tuple = exchange_ns / tuples;
    l.tree_build_ns_per_tuple = phase("tree_build") / tuples;
    l.hits = d("sedex_repo_lookup_total", &[("result", "hit")]);
    l.misses = misses;
    l.matcher_us_per_miss = phase("match") / 1e3 / misses.max(1.0);
    l.translate_us_per_miss = phase("translate") / 1e3 / misses.max(1.0);
    l.scriptgen_us_per_miss = phase("scriptgen") / 1e3 / misses.max(1.0);
    l.script_run_ns_per_tuple = phase("script_run") / tuples;
    l.unattributed_ns_per_tuple = (exchange_ns - phases) / tuples;
    l.egd_merges = d("sedex_egd_merge_total", &[]);
    l.rows_inserted = d("sedex_rows_inserted_total", &[]);
    l.wal_appends = d("sedex_wal_appends_total", &[]);
    l.wal_bytes_per_tuple = d("sedex_wal_bytes_total", &[]) / tuples;
    l.checkpoints = d("sedex_checkpoints_total", &[]);
    let requests = d("sedex_service_requests_total", &[]).max(1.0);
    l.polls_per_request = d("sedex_reactor_polls_total", &[]) / requests;
    l.wakeups_per_request = d("sedex_reactor_wakeups_total", &[]) / requests;
    for (i, verb) in VERBS.iter().enumerate() {
        let Some(samples) = rtts.get(verb).filter(|s| !s.is_empty()) else {
            continue;
        };
        let cost = &mut l.verbs[i];
        cost.rtt_us = mean_us(samples);
        for (j, stage) in STAGES.iter().enumerate() {
            let labels = [("verb", *verb), ("stage", *stage)];
            let count = d("sedex_stage_seconds_count", &labels);
            if count > 0.0 {
                cost.stages_us[j] = d("sedex_stage_seconds_sum", &labels) * 1e6 / count;
            }
        }
    }
    l
}

// ---------------------------------------------------------------------
// serve_ingest

/// Data line `j` of the ingest stream: a distinct student, its program,
/// and a department (one in eight left null, a second tuple-tree shape).
fn ingest_line(seed: u64, j: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ j);
    let program = rng.gen_index(40);
    let dep = if rng.gen_index(8) == 0 {
        "_".to_owned()
    } else {
        format!("d{}", rng.gen_index(INGEST_DEPS))
    };
    format!("Student: s{j}, p{program}, {dep}")
}

fn dep_line(i: usize) -> String {
    format!("Dep: d{i}, b{}", i % 7)
}

/// Pushes per session. A session that reaches this size is replaced by a
/// fresh one, so every session grows through the same sizes however fast
/// the server runs, and a run's latency mix does not depend on its speed.
fn cycle_len(size: Size) -> usize {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 400,
    }
}

/// Scratch-session `OPEN`s per cycle, spread evenly through the pushes:
/// every end-to-end metric, `open_p50_us` too, is reported on every
/// workload. 40 give a 25 s window ~300 samples for ~10 ms (under 0.5 %)
/// of a cycle's time.
const OPENS_PER_CYCLE: usize = 40;

fn cycle_session(cycle: usize) -> String {
    format!("ingest{cycle}")
}

struct IngestRig {
    server: ServerHandle,
    writer: Client,
    reader: Client,
    dir: PathBuf,
}

/// `OPEN` an ingest session and `FEED` its Dep context.
fn open_ingest_session(writer: &mut Client, name: &str, tally: &mut Tally) {
    tally.ok(writer.open(name, INGEST_SCENARIO));
    for i in 0..INGEST_DEPS {
        tally.ok(writer.feed(name, &dep_line(i)));
    }
}

impl IngestRig {
    fn start(traced: bool, k: usize, tally: &mut Tally) -> IngestRig {
        let dir = data_root().join(format!("ingest-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig {
            workers: 2,
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Off,
            snapshot_every: 1024,
            metrics: traced,
            trace_buffer: if traced { TRACE_BUFFER } else { 0 },
            ..ServerConfig::default()
        })
        .expect("durable server starts");
        let mut writer = client(server.local_addr(), false);
        let reader = client(server.local_addr(), false);
        open_ingest_session(&mut writer, &cycle_session(0), tally);
        IngestRig {
            server,
            writer,
            reader,
            dir,
        }
    }

    fn stop(self) {
        drop(self.writer);
        drop(self.reader);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        // Succeeds only once no run's directory is left.
        let _ = std::fs::remove_dir(data_root());
    }
}

/// What one drive of the ingest workload observed.
#[derive(Default)]
struct IngestRun {
    pushes: Vec<Duration>,
    /// Reader latency from when each read was due.
    reads_due: Vec<Duration>,
    /// Round trips from send, per verb: the reader's, and for `SQL` also
    /// the writer's read-back at the end of each cycle.
    stats_rtt: Vec<Duration>,
    sql_rtt: Vec<Duration>,
    opens: Vec<Duration>,
    cycles: usize,
    /// Throughput and CPU per session cycle.
    units: Units,
    /// `PUSH` p90 of each session cycle, in microseconds.
    cycle_p90_us: Vec<f64>,
    wall: Duration,
    /// The served target of the first full session.
    served: Vec<String>,
    /// `PUSH` exec times (µs) of the first and last tenth of the last
    /// cycle, traced only.
    exec_first: Vec<f64>,
    exec_last: Vec<f64>,
}

fn push_exec_times(writer: &mut Client, tally: &mut Tally, pushes: usize) -> Vec<f64> {
    let k = (pushes + 512).min(10_000) as u32;
    let Some(reply) = tally.ok(writer.trace(false, k)) else {
        return Vec::new();
    };
    reply
        .lines
        .iter()
        .filter(|l| l.contains(" verb=PUSH "))
        .take(pushes)
        .filter_map(|l| {
            l.split_whitespace()
                .find_map(|f| f.strip_prefix("exec_us="))
                .and_then(|v| v.parse().ok())
        })
        .collect()
}

/// Drive the rig: the writer pushes `cycle_len` lines into the current
/// session, opening and closing a scratch session every so often, then
/// reads the session back, replaces it with a fresh one and starts the
/// next cycle — until `window` has passed (or, with `cycles`, exactly that
/// many cycles). The reader reads the current session at its fixed rate
/// beside it. With a `host` (the timed run), the reference is read after
/// each cycle, and the cycle's times are divided by the slowdown of the
/// readings at its start and end; the reader's, by the latest reading's.
fn drive_ingest(
    rig: &mut IngestRig,
    args: &Args,
    cycles: Option<usize>,
    traced: bool,
    mut host: Option<&mut HostRef>,
    tally: &mut Tally,
    report: &mut Report,
) -> IngestRun {
    let n = cycle_len(args.size);
    let open_every = (n / OPENS_PER_CYCLE).max(1);
    let mut run = IngestRun::default();
    let stop = AtomicBool::new(false);
    // The reader holds this lock across each read, so a session is never
    // closed under a read addressed to it.
    let current = Mutex::new(cycle_session(0));
    let reader = &mut rig.reader;
    let writer = &mut rig.writer;
    let mut readbacks = Vec::new();
    // The latest reading's slowdown, for the reader thread's times.
    let slowdown = AtomicU64::new(host.as_deref().map_or(1.0, HostRef::slowdown).to_bits());
    let t0 = Instant::now();
    let reader_out = std::thread::scope(|s| {
        let reading = s.spawn(|| {
            let scale = |d: Duration| d.div_f64(f64::from_bits(slowdown.load(Ordering::Relaxed)));
            let mut t = Tally::default();
            let (mut due_lat, mut stats, mut sql) = (Vec::new(), Vec::new(), Vec::new());
            let start = Instant::now();
            let mut tick = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let due = start + READ_PERIOD * tick;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let session = current.lock().expect("reader lock");
                let sent = Instant::now();
                let stats_ok = t.ok(reader.stats(Some(&session))).is_some();
                let sql_sent = Instant::now();
                let sql_ok = t.ok(reader.sql(&session)).is_some();
                let done = Instant::now();
                drop(session);
                if stats_ok {
                    stats.push(scale(sql_sent - sent));
                }
                if sql_ok {
                    sql.push(scale(done - sql_sent));
                }
                if stats_ok && sql_ok {
                    due_lat.push(scale(done - due));
                }
                tick += 1;
            }
            (t, due_lat, stats, sql)
        });
        loop {
            let mark = host.as_deref().map(HostRef::mark);
            let session = cycle_session(run.cycles);
            run.units.begin();
            let (c1, t1) = (cpu_time(), Instant::now());
            let (first_push, first_open, first_readback) =
                (run.pushes.len(), run.opens.len(), readbacks.len());
            for j in 0..n {
                let line = ingest_line(args.seed, j as u64);
                let t = Instant::now();
                let reply = writer.push(&session, &line);
                let dt = t.elapsed();
                if tally.ok(reply).is_some() {
                    run.pushes.push(dt);
                }
                if (j + 1) % open_every == 0 {
                    let scratch = format!("scratch{j}");
                    let t = Instant::now();
                    let reply = writer.open(&scratch, INGEST_SCENARIO);
                    let dt = t.elapsed();
                    if tally.ok(reply).is_some() {
                        run.opens.push(dt);
                    }
                    tally.ok(writer.close(&scratch));
                }
                if traced && (j + 1) * 10 == n {
                    run.exec_first = push_exec_times(writer, tally, n / 10);
                }
            }
            if traced {
                run.exec_last = push_exec_times(writer, tally, n / 10);
            }
            let t = Instant::now();
            let reply = tally.ok(writer.sql(&session));
            if let Some(reply) = reply {
                readbacks.push(t.elapsed());
                if run.cycles == 0 {
                    run.served = reply.lines;
                } else if reply.lines != run.served {
                    report.fail(format!(
                        "session {session}: target differs from the first session's"
                    ));
                }
            }
            run.cycles += 1;
            let done = match cycles {
                Some(c) => run.cycles >= c,
                None => t0.elapsed() >= args.window(),
            };
            if !done {
                let next = cycle_session(run.cycles);
                open_ingest_session(writer, &next, tally);
                let old = std::mem::replace(&mut *current.lock().expect("writer lock"), next);
                tally.ok(writer.close(&old));
            }
            let (wall, cpu) = (t1.elapsed(), cpu_time() - c1);
            run.units.end();
            let slow = match (host.as_deref_mut(), mark) {
                (Some(h), Some(mark)) => {
                    h.measure();
                    slowdown.store(h.slowdown().to_bits(), Ordering::Relaxed);
                    h.slowdown_since(mark)
                }
                _ => 1.0,
            };
            scale_from(&mut run.pushes, first_push, slow);
            scale_from(&mut run.opens, first_open, slow);
            scale_from(&mut readbacks, first_readback, slow);
            let cycle_pushes = &run.pushes[first_push..];
            run.units
                .record(cycle_pushes.len(), wall.div_f64(slow), cpu.div_f64(slow));
            run.cycle_p90_us.push(percentile_us(cycle_pushes, 90.0));
            if done {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reading.join().expect("reader thread")
    });
    run.wall = t0.elapsed();
    let (reader_tally, due_lat, stats, sql) = reader_out;
    tally.absorb(reader_tally);
    (run.reads_due, run.stats_rtt, run.sql_rtt) = (due_lat, stats, sql);
    run.sql_rtt.extend(readbacks);
    run
}

/// Every served session must equal the same lines pushed through an
/// embedded session (the first is compared here, the others were compared
/// with the first as they completed).
fn check_ingest(args: &Args, run: &IngestRun, report: &mut Report) {
    let file = parse_scenario(INGEST_SCENARIO).expect("ingest scenario parses");
    let sc = file.scenario;
    let mut embedded = SedexSession::new(SedexConfig::default(), sc.source, sc.target, sc.sigma)
        .expect("embedded session opens");
    for i in 0..INGEST_DEPS {
        let (rel, t) = parse_data_line(&dep_line(i), 1).expect("dep line parses");
        embedded.feed(&rel, t).expect("embedded feed");
    }
    for j in 0..cycle_len(args.size) {
        let (rel, t) = parse_data_line(&ingest_line(args.seed, j as u64), 1).expect("line parses");
        embedded.exchange_tuple(&rel, t).expect("embedded exchange");
    }
    let expected = sql_dump(embedded.target());
    if !expected.lines().eq(run.served.iter().map(String::as_str)) {
        report.fail(format!(
            "served target ({} lines) differs from the embedded session's ({} lines)",
            run.served.len(),
            expected.lines().count()
        ));
    }
}

pub fn ingest(args: &Args, trace: bool) -> Report {
    let mut report = Report::new();
    let mut tally = Tally::default();
    if !trace {
        let mut host = HostRef::new();
        let (mut rig, times) = setups(
            SETUPS,
            &mut host,
            |k| IngestRig::start(false, k, &mut tally),
            IngestRig::stop,
        );
        let run = drive_ingest(
            &mut rig,
            args,
            None,
            false,
            Some(&mut host),
            &mut tally,
            &mut report,
        );
        rig.stop();
        check_ingest(args, &run, &mut report);
        EndToEnd {
            host: &host,
            setups: &times,
            units: &run.units,
            pushes: &run.pushes,
            push_p90_us: median(&run.cycle_p90_us),
            reads: &run.reads_due,
            opens: &run.opens,
        }
        .emit(&mut report);
        report.note(format!(
            "{} PUSHes in {} sessions of {} in {:.2} s, {} reads, {} OPENs",
            run.pushes.len(),
            run.cycles,
            cycle_len(args.size),
            run.wall.as_secs_f64(),
            run.reads_due.len(),
            run.opens.len()
        ));
    } else {
        let units = layers::repeat(args.window(), || {
            let mut plain = IngestRig::start(false, 0, &mut tally);
            let base = drive_ingest(
                &mut plain,
                args,
                Some(1),
                false,
                None,
                &mut tally,
                &mut report,
            );
            plain.stop();
            let mut rig = IngestRig::start(true, 1, &mut tally);
            let before = Scrape::take(&mut rig.writer, &mut tally);
            let run = drive_ingest(&mut rig, args, Some(1), true, None, &mut tally, &mut report);
            let after = Scrape::take(&mut rig.writer, &mut tally);
            rig.stop();
            check_ingest(args, &run, &mut report);
            let rtts = HashMap::from([
                ("PUSH", run.pushes.clone()),
                ("STATS", run.stats_rtt.clone()),
                ("SQL", run.sql_rtt.clone()),
                ("OPEN", run.opens.clone()),
            ]);
            let mut l = server_layers(&before, &after, run.pushes.len() as f64, &rtts);
            l.traced_wall_s = run.wall.as_secs_f64();
            l.trace_overhead_pct = (run.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0) * 100.0;
            let (first, last) = (median(&run.exec_first), median(&run.exec_last));
            if first > 0.0 {
                l.push_exec_growth = last / first;
            }
            report.note(format!(
                "traced: {} PUSHes in {:.2} s (untraced {:.2} s); PUSH exec p50 {first:.1} us first tenth, {last:.1} us last tenth",
                run.pushes.len(),
                run.wall.as_secs_f64(),
                base.wall.as_secs_f64(),
            ));
            l
        });
        layers::emit(&units, &mut report);
    }
    tally.into_report(&mut report);
    report
}

// ---------------------------------------------------------------------
// serve_tenants

/// iBench STB with every nullable non-key source column null half the time.
fn tenant_scenario() -> sedex_scenarios::Scenario {
    let mut sc = stb(&IbenchConfig {
        pk_fraction: 1.0,
        ..IbenchConfig::default()
    });
    for rel in sc.source.relations() {
        for (j, col) in rel.columns.iter().enumerate() {
            if col.nullable && !rel.primary_key.contains(&j) {
                sc.rules.push(GenRule::NullRate {
                    relation: rel.name.clone(),
                    column: col.name.clone(),
                    rate: 0.5,
                });
            }
        }
    }
    sc
}

struct TenantRig {
    server: ServerHandle,
    conn: Client,
    scenario_text: String,
    /// `PUSH_BATCH` bodies, one per pooled tenant data set.
    pool: Vec<Vec<String>>,
}

impl TenantRig {
    fn start(seed: u64, traced: bool) -> TenantRig {
        let sc = tenant_scenario();
        let scenario_text = render_scenario(&sc);
        let pool = (0..TENANT_POOL as u64)
            .map(|i| {
                let inst = sc
                    .populate(3, seed.wrapping_mul(1_000_003).wrapping_add(i))
                    .expect("tenant data generates");
                render_data(&inst).lines().map(str::to_owned).collect()
            })
            .collect();
        let server = Server::start(ServerConfig {
            workers: 2,
            metrics: traced,
            trace_buffer: if traced { TRACE_BUFFER } else { 0 },
            ..ServerConfig::default()
        })
        .expect("in-memory server starts");
        let conn = client(server.local_addr(), true);
        TenantRig {
            server,
            conn,
            scenario_text,
            pool,
        }
    }

    fn stop(self) {
        drop(self.conn);
        self.server.shutdown();
    }
}

#[derive(Default)]
struct TenantRun {
    opens: Vec<Duration>,
    batches: Vec<Duration>,
    sqls: Vec<Duration>,
    tuples: usize,
    /// Throughput and CPU per block of tenants.
    units: Units,
    /// `PUSH_BATCH` p90 of each block, in microseconds.
    block_p90_us: Vec<f64>,
    wall: Duration,
    /// The first served target of each pooled data set.
    served: HashMap<usize, Vec<String>>,
}

/// Churn tenants until `window` has passed (or exactly `count` of them).
/// With a `host` (the timed run), the reference is read after each block,
/// and the block's times are divided by the slowdown of the readings at
/// its start and end.
fn drive_tenants(
    rig: &mut TenantRig,
    size: Size,
    window: Duration,
    count: Option<usize>,
    mut host: Option<&mut HostRef>,
    tally: &mut Tally,
    report: &mut Report,
) -> TenantRun {
    /// Where a block of tenants started: host reading, clocks and the
    /// lengths of the sample lists.
    struct BlockStart {
        mark: usize,
        cpu: Duration,
        at: Instant,
        tuples: usize,
        samples: [usize; 3],
    }
    let mut run = TenantRun::default();
    let block = tenant_block(size);
    let t0 = Instant::now();
    let limit = count.unwrap_or(usize::MAX);
    let mut start: Option<BlockStart> = None;
    let mut k = 0usize;
    // The window closes only at a block boundary.
    while k < limit
        && (count.is_some() || !k.is_multiple_of(block) || t0.elapsed() < window || k == 0)
    {
        if k.is_multiple_of(block) {
            run.units.begin();
            start = Some(BlockStart {
                mark: host.as_deref().map_or(0, HostRef::mark),
                cpu: cpu_time(),
                at: Instant::now(),
                tuples: run.tuples,
                samples: [run.opens.len(), run.batches.len(), run.sqls.len()],
            });
        }
        let name = format!("t{k}");
        let slot = k % TENANT_POOL;
        let t = Instant::now();
        let reply = rig.conn.open(&name, &rig.scenario_text);
        let dt = t.elapsed();
        if tally.ok(reply).is_some() {
            run.opens.push(dt);
        }
        let lines: Vec<&str> = rig.pool[slot].iter().map(String::as_str).collect();
        let t = Instant::now();
        let reply = rig.conn.push_batch(&name, &lines);
        let dt = t.elapsed();
        if tally.ok(reply).is_some() {
            run.batches.push(dt);
            run.tuples += lines.len();
        }
        let t = Instant::now();
        let reply = rig.conn.sql(&name);
        let dt = t.elapsed();
        if let Some(r) = tally.ok(reply) {
            run.sqls.push(dt);
            match run.served.get(&slot) {
                None => {
                    run.served.insert(slot, r.lines);
                }
                Some(first) if *first != r.lines => report.fail(format!(
                    "tenant {name}: target differs from its data set's first"
                )),
                Some(_) => {}
            }
        }
        tally.ok(rig.conn.close(&name));
        k += 1;
        if let Some(b) = start.as_ref().filter(|_| k.is_multiple_of(block)) {
            let (wall, cpu) = (b.at.elapsed(), cpu_time() - b.cpu);
            run.units.end();
            let slow = match host.as_deref_mut() {
                Some(h) => {
                    h.measure();
                    h.slowdown_since(b.mark)
                }
                None => 1.0,
            };
            scale_from(&mut run.opens, b.samples[0], slow);
            scale_from(&mut run.batches, b.samples[1], slow);
            scale_from(&mut run.sqls, b.samples[2], slow);
            run.units
                .record(run.tuples - b.tuples, wall.div_f64(slow), cpu.div_f64(slow));
            run.block_p90_us
                .push(percentile_us(&run.batches[b.samples[1]..], 90.0));
        }
    }
    run.wall = t0.elapsed();
    run
}

/// Each pooled data set's served target must equal the same batch pushed
/// through an embedded session.
fn check_tenants(rig: &TenantRig, run: &TenantRun, report: &mut Report) {
    let file = parse_scenario(&rig.scenario_text).expect("rendered STB parses");
    for (slot, served) in &run.served {
        let sc = file.scenario.clone();
        let mut embedded =
            SedexSession::new(SedexConfig::default(), sc.source, sc.target, sc.sigma)
                .expect("embedded session opens");
        for line in &rig.pool[*slot] {
            let (rel, t) = parse_data_line(line, 1).expect("data line parses");
            embedded.exchange_tuple(&rel, t).expect("embedded exchange");
        }
        let expected = sql_dump(embedded.target());
        if !expected.lines().eq(served.iter().map(String::as_str)) {
            report.fail(format!(
                "data set {slot}: served target differs from the embedded session's"
            ));
        }
    }
}

/// Tenants per unit of the timed run.
fn tenant_block(size: Size) -> usize {
    match size {
        Size::Full => 16,
        Size::Tiny => 2,
    }
}

fn tenant_trace_count(size: Size) -> usize {
    match size {
        Size::Full => 64,
        Size::Tiny => 4,
    }
}

pub fn tenants(args: &Args, trace: bool) -> Report {
    let mut report = Report::new();
    let mut tally = Tally::default();
    if !trace {
        let mut host = HostRef::new();
        let (mut rig, times) = setups(
            SETUPS,
            &mut host,
            |_| TenantRig::start(args.seed, false),
            TenantRig::stop,
        );
        let run = drive_tenants(
            &mut rig,
            args.size,
            args.window(),
            None,
            Some(&mut host),
            &mut tally,
            &mut report,
        );
        check_tenants(&rig, &run, &mut report);
        rig.stop();
        EndToEnd {
            host: &host,
            setups: &times,
            units: &run.units,
            pushes: &run.batches,
            push_p90_us: median(&run.block_p90_us),
            reads: &run.sqls,
            opens: &run.opens,
        }
        .emit(&mut report);
        report.note(format!(
            "{} tenants, {} tuples in {:.2} s",
            run.opens.len(),
            run.tuples,
            run.wall.as_secs_f64()
        ));
    } else {
        let n = tenant_trace_count(args.size);
        let units = layers::repeat(args.window(), || {
            let mut plain = TenantRig::start(args.seed, false);
            let base = drive_tenants(
                &mut plain,
                args.size,
                Duration::ZERO,
                Some(n),
                None,
                &mut tally,
                &mut report,
            );
            plain.stop();
            let mut rig = TenantRig::start(args.seed, true);
            let before = Scrape::take(&mut rig.conn, &mut tally);
            let run = drive_tenants(
                &mut rig,
                args.size,
                Duration::ZERO,
                Some(n),
                None,
                &mut tally,
                &mut report,
            );
            let after = Scrape::take(&mut rig.conn, &mut tally);
            check_tenants(&rig, &run, &mut report);
            rig.stop();
            let rtts = HashMap::from([
                ("PUSH_BATCH", run.batches.clone()),
                ("SQL", run.sqls.clone()),
                ("OPEN", run.opens.clone()),
            ]);
            let mut l = server_layers(&before, &after, run.tuples as f64, &rtts);
            l.traced_wall_s = run.wall.as_secs_f64();
            l.trace_overhead_pct = (run.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0) * 100.0;
            report.note(format!(
                "traced: {n} tenants in {:.2} s (untraced {:.2} s); {} misses / {} lookups",
                run.wall.as_secs_f64(),
                base.wall.as_secs_f64(),
                l.misses,
                l.hits + l.misses
            ));
            l
        });
        layers::emit(&units, &mut report);
    }
    tally.into_report(&mut report);
    report
}
