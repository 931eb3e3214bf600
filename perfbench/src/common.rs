//! Shared measurement plumbing: command-line arguments, process counters
//! read from `/proc`, percentiles, the host reference loop, and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How big the generated inputs are. `Tiny` exists for the smoke tests:
/// the same code paths at a size that runs in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    /// `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("a number in (0, 600]"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--size" => {
                    args.size = match value.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(bad("full or tiny")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".to_owned());
        }
        Ok(args)
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One run's result: the output check, the operation accounting and the
/// metrics, printed as the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable notes echoed to standard error (digests, sample
    /// counts, the host reference time).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record a failed output check: the run is reported incorrect and the
    /// failure counts against the operations attempted.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", why.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from an empty
            // denominator, which the output checks already flag.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t` (1 024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards, to
/// the allowed CPU that was idlest over the last 200 ms. Returns that CPU,
/// or `None` when the affinity calls or `/proc/stat` fail (the run then
/// goes on unpinned).
///
/// Serial request/response traffic (`serve_*`) wakes a thread on the other
/// CPU for every hop (client → reactor → worker → reactor → client). On a
/// small VM each such cross-CPU wake-up costs a hypervisor exit whose
/// latency follows the host's load; on one CPU the hops are plain context
/// switches. The idlest CPU is taken, not the first, so that a run does
/// not share its one CPU with whatever else keeps that CPU busy.
pub fn pin_to_idlest_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and the call writes nothing else.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let before = idle_ticks()?;
    std::thread::sleep(Duration::from_millis(200));
    let after = idle_ticks()?;
    let cpu = after
        .iter()
        .filter(|(c, _)| *c < allowed.len() * 64 && allowed[c / 64] & (1 << (c % 64)) != 0)
        .map(|&(c, idle)| {
            let was = before.iter().find(|(b, _)| *b == c).map_or(idle, |b| b.1);
            (c, idle.saturating_sub(was))
        })
        .max_by_key(|&(c, idle)| (idle, std::cmp::Reverse(c)))?
        .0;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Idle plus iowait ticks of every CPU, from `/proc/stat`.
fn idle_ticks() -> Option<Vec<(usize, u64)>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpus = stat
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let cpu = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            let ticks: Vec<u64> = f.map(|v| v.parse().unwrap_or(0)).collect();
            Some((cpu, ticks.get(3)? + ticks.get(4).unwrap_or(&0)))
        })
        .collect();
    Some(cpus)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Process user+system CPU time, all threads, at nanosecond resolution.
pub fn cpu_time() -> Duration {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread.
fn thread_cpu_time() -> Duration {
    clock(CLOCK_THREAD_CPUTIME_ID)
}

fn clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

/// Peak resident set size of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak resident size (`VmHWM`) from the current one. If the
/// kernel refuses, `VmHWM` stays the peak since the process started.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Nearest-rank percentile over unsorted samples, in microseconds.
pub fn percentile_us(samples: &[Duration], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e6
}

pub fn mean_us(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6 / samples.len() as f64
}

pub fn median_secs(samples: &[Duration]) -> f64 {
    percentile_us(samples, 50.0) / 1e6
}

/// The median of a few values, the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Set up `count` times, timing each at the reference speed (the host
/// reference is read before the first and after each); every set-up but
/// the last is torn down again. Returns the last one and all the times.
pub fn setups<R>(
    count: usize,
    host: &mut HostRef,
    mut start: impl FnMut(usize) -> R,
    stop: impl Fn(R),
) -> (R, Vec<Duration>) {
    let mut times = Vec::with_capacity(count);
    host.measure();
    for k in 0..count {
        let mark = host.mark();
        let t = Instant::now();
        let rig = start(k);
        let took = t.elapsed();
        host.measure();
        times.push(took.div_f64(host.slowdown_since(mark)));
        if k + 1 == count {
            return (rig, times);
        }
        stop(rig);
    }
    unreachable!("at least one set-up")
}

/// Divide the times from `from` on by `slowdown`.
pub fn scale_from(times: &mut [Duration], from: usize, slowdown: f64) {
    for d in &mut times[from..] {
        *d = d.div_f64(slowdown);
    }
}

/// What a timed run measured, reported as the end-to-end metrics. Every
/// time in it is already at the reference speed (see [`HostRef`]).
pub struct EndToEnd<'a> {
    pub host: &'a HostRef,
    pub setups: &'a [Duration],
    pub units: &'a Units,
    pub pushes: &'a [Duration],
    pub push_p90_us: f64,
    pub reads: &'a [Duration],
    pub opens: &'a [Duration],
}

impl EndToEnd<'_> {
    pub fn emit(&self, r: &mut Report) {
        let ms: Vec<String> = self
            .setups
            .iter()
            .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
            .collect();
        r.note(format!(
            "set-ups at the reference speed (ms): {}",
            ms.join(" ")
        ));
        r.note(self.host.summary());
        r.metric("setup_s", median_secs(self.setups), "s");
        r.metric("tuples_per_s", self.units.tuples_per_s(), "tuples/s");
        r.metric("cpu_us_per_tuple", self.units.cpu_us_per_tuple(), "us");
        r.metric(
            "peak_rss_mb",
            self.units.peak_rss_mb() - self.host.table_mb(),
            "MB",
        );
        r.metric("push_p50_us", percentile_us(self.pushes, 50.0), "us");
        r.metric("push_p90_us", self.push_p90_us, "us");
        r.metric("read_p50_us", percentile_us(self.reads, 50.0), "us");
        r.metric("open_p50_us", percentile_us(self.opens, 50.0), "us");
    }
}

/// Throughput, CPU cost and peak memory of a run's units of equal work —
/// an exchange call, an ingest session, a block of tenants. Throughput and
/// CPU cost are totals over the units (tuples per second of the units'
/// summed time): a run holds as few as four `exchange_merge` calls, and
/// their times cluster, so a median would jump between clusters from run
/// to run where the total moves smoothly.
#[derive(Debug, Default)]
pub struct Units {
    tuples: usize,
    wall: Duration,
    cpu: Duration,
    peaks_mb: Vec<f64>,
}

impl Units {
    /// Start a unit: its peak memory counts from here.
    pub fn begin(&mut self) {
        reset_peak_rss();
    }

    /// End a unit's memory: the peak resident size since [`Units::begin`].
    /// The peak of each unit, not of the whole run, so that one unlucky
    /// coincidence of buffers does not decide the figure.
    pub fn end(&mut self) {
        self.peaks_mb.push(peak_rss_mb());
    }

    /// One unit's tuples, wall time and CPU time, the times at the
    /// reference speed.
    pub fn record(&mut self, tuples: usize, wall: Duration, cpu: Duration) {
        self.tuples += tuples;
        self.wall += wall;
        self.cpu += cpu;
    }

    pub fn tuples_per_s(&self) -> f64 {
        self.tuples as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_tuple(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.tuples as f64
    }

    /// The median of the units' peaks.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.peaks_mb)
    }
}

/// What [`HostRef::measure`] takes on the box the benchmark was defined on
/// (a 2-vCPU VM on a shared Xeon host), in the middle of its range.
const REFERENCE_MS: f64 = 40.0;

/// Slots of the reference loop's random-access table (64 MB).
const REF_TABLE_SLOTS: usize = 1 << 23;
/// Slots of the reference loop's hash set of key hashes (4 MB).
const REF_KEY_SLOTS: usize = 1 << 19;

/// How fast the host runs code like the program's right now. The host is
/// a small VM whose speed follows its neighbours: within minutes it runs
/// the same build up to 1.8× faster or slower, CPU time included, so the
/// raw times of two runs differ by more than any useful regression
/// bound. Timed runs therefore read this fixed reference workload between
/// stretches of work (a set-up, an exchange call, the call's reads and
/// opens, an ingest session, a block of tenants) and divide each time
/// recorded in a stretch by its slowdown: the geometric mean of the two
/// readings around it, each over [`REFERENCE_MS`]. That is the time the
/// work would have taken with the host at the reference speed. A change to
/// the program moves these figures as it moves the raw ones; a change of
/// the host's speed moves both the work and the readings, and cancels.
///
/// The reference is the geometric mean of two loops' CPU time (of the
/// calling thread, so other threads of the run do not count): random
/// read-modify-writes over a 64 MB table (memory latency, TLB reach), and
/// formatting 300 000 keys, hashing them and inserting the hashes into an
/// open-addressed 4 MB set (string formatting, hashing, probing). The
/// program's own work mixes the two; a loop in the CPU's private caches
/// alone followed the host's second-to-second jitter but not its slow
/// swings. Neither loop allocates: a reference that did read slower after
/// every exchange call, because it measured the state the program had
/// left the heap in rather than the host. One reading is short and
/// varies by ~8 % from the next, so a stretch takes the readings on both
/// of its sides.
pub struct HostRef {
    table: Vec<u64>,
    keys: Vec<u64>,
    samples_ms: Vec<f64>,
}

impl HostRef {
    /// Allocate and touch the table (it stays resident for the run).
    pub fn new() -> HostRef {
        HostRef {
            table: vec![1; REF_TABLE_SLOTS],
            keys: vec![1; REF_KEY_SLOTS],
            samples_ms: Vec::new(),
        }
    }

    /// Time the reference once (~70 ms of wall time).
    pub fn measure(&mut self) {
        let t = thread_cpu_time();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..2_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (REF_TABLE_SLOTS - 1);
            self.table[slot] = self.table[slot].wrapping_add(i ^ x);
        }
        black_box(&self.table);
        let memory = thread_cpu_time() - t;
        let t = thread_cpu_time();
        self.keys.fill(0);
        let mut key = String::with_capacity(32);
        for i in 0..300_000u64 {
            key.clear();
            let _ = write!(key, "k{}", i.wrapping_mul(2_654_435_761));
            let mut h = Digest::default();
            h.write(key.as_bytes());
            let mut slot = (h.0 as usize) & (REF_KEY_SLOTS - 1);
            while self.keys[slot] != 0 && self.keys[slot] != h.0 {
                slot = (slot + 1) & (REF_KEY_SLOTS - 1);
            }
            self.keys[slot] = h.0;
        }
        black_box(&self.keys);
        let strings = thread_cpu_time() - t;
        let ms = (memory.as_secs_f64() * strings.as_secs_f64()).sqrt() * 1e3;
        self.samples_ms.push(ms);
    }

    /// Index of the latest reading: a stretch of work that starts now
    /// counts its readings from this one on.
    pub fn mark(&self) -> usize {
        self.samples_ms.len().saturating_sub(1)
    }

    /// How much slower than the reference speed the host ran at the latest
    /// reading (1 before the first).
    pub fn slowdown(&self) -> f64 {
        self.samples_ms.last().map_or(1.0, |ms| ms / REFERENCE_MS)
    }

    /// The slowdown of a stretch of work that started at `mark`: the
    /// geometric mean of the readings from `mark` to the latest, each over
    /// the reference.
    pub fn slowdown_since(&self, mark: usize) -> f64 {
        let readings = &self.samples_ms[mark.min(self.samples_ms.len())..];
        if readings.is_empty() {
            return 1.0;
        }
        let log_sum: f64 = readings.iter().map(|ms| (ms / REFERENCE_MS).ln()).sum();
        (log_sum / readings.len() as f64).exp()
    }

    /// The median reading, in ms.
    pub fn ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// The readings of the run, for the notes.
    pub fn summary(&self) -> String {
        let all: Vec<String> = self
            .samples_ms
            .iter()
            .map(|ms| format!("{ms:.1}"))
            .collect();
        format!(
            "host reference {:.2} ms median ({REFERENCE_MS} ms is speed 1); readings (ms): {}",
            self.ms(),
            all.join(" ")
        )
    }

    /// The resident size of the two tables, taken off the process's peak.
    pub fn table_mb(&self) -> f64 {
        ((self.table.len() + self.keys.len()) * std::mem::size_of::<u64>()) as f64
            / (1024.0 * 1024.0)
    }
}

/// FNV-1a over a byte stream: the target digest compared across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
