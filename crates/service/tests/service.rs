//! End-to-end tests: a real server on an ephemeral port, real TCP clients.

use std::time::Duration;

use sedex_core::{SedexConfig, SedexSession};
use sedex_scenarios::textfmt;
use sedex_service::server::sql_dump;
use sedex_service::{Client, ClientConfig, Server, ServerConfig};

const SCENARIO: &str = "\
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

fn start_server() -> sedex_service::ServerHandle {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// The in-process reference: same scenario, same arrival order, one
/// thread — what each tenant's target must be byte-identical to.
fn reference_sql(dim: &str, pushes: &[String]) -> String {
    let file = textfmt::parse_scenario(SCENARIO).unwrap();
    let s = file.scenario;
    let mut session =
        SedexSession::new(SedexConfig::default(), s.source, s.target, s.sigma).unwrap();
    let (rel, tuple) = textfmt::parse_data_line(dim, 1).unwrap();
    session.feed(&rel, tuple).unwrap();
    for line in pushes {
        let (rel, tuple) = textfmt::parse_data_line(line, 1).unwrap();
        session.exchange_tuple(&rel, tuple).unwrap();
    }
    sql_dump(session.target())
}

#[test]
fn open_push_sql_close_over_the_wire() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    let r = c.open("t1", SCENARIO).unwrap().into_ok().unwrap();
    assert!(r.head.contains("opened t1"), "{}", r.head);

    c.feed("t1", "Dep: d1, b1").unwrap().into_ok().unwrap();
    let r = c
        .push("t1", "Student: s1, p1, d1")
        .unwrap()
        .into_ok()
        .unwrap();
    assert!(
        r.head.contains("scripts 1 generated / 0 reused"),
        "{}",
        r.head
    );

    let sql = c.sql("t1").unwrap().into_ok().unwrap().body();
    assert!(sql.contains("INSERT INTO Stu"), "{sql}");
    assert!(sql.contains("'s1', 'p1', 'd1'"), "{sql}");

    let r = c.close("t1").unwrap().into_ok().unwrap();
    assert!(r.head.contains("closed t1"), "{}", r.head);
    // Closed means gone.
    assert!(!c.sql("t1").unwrap().ok);

    handle.shutdown();
}

#[test]
fn script_reuse_is_observable_over_the_wire() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("reuse", SCENARIO).unwrap().into_ok().unwrap();
    c.feed("reuse", "Dep: d1, b1").unwrap().into_ok().unwrap();

    let mut last_reused = None;
    for i in 0..10 {
        let r = c
            .push("reuse", &format!("Student: s{i}, p{i}, d1"))
            .unwrap()
            .into_ok()
            .unwrap();
        // Head looks like: pushed Student | scripts 1 generated / N reused | …
        let reused: u64 = r
            .head
            .split("generated / ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable push reply: {}", r.head));
        if let Some(prev) = last_reused {
            assert!(
                reused > prev,
                "reuse counter must grow: {} -> {reused}",
                prev
            );
        }
        last_reused = Some(reused);
    }
    // 1 script generated for the shape, 9 reuses after the first push.
    assert_eq!(last_reused, Some(9));
    handle.shutdown();
}

#[test]
fn four_concurrent_clients_match_in_process_sessions() {
    let handle = start_server();
    let addr = handle.local_addr();
    const CLIENTS: usize = 5;
    const PUSHES: usize = 40;

    let wire_sql: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                s.spawn(move || {
                    let name = format!("tenant-{i}");
                    let mut c = Client::connect(addr).unwrap();
                    c.open(&name, SCENARIO).unwrap().into_ok().unwrap();
                    c.feed(&name, &format!("Dep: d{i}, b{i}"))
                        .unwrap()
                        .into_ok()
                        .unwrap();
                    for j in 0..PUSHES {
                        // Every second push has a null dep: two tuple-tree
                        // shapes per tenant, so reuse and generation
                        // interleave under concurrency.
                        let dep = if j % 2 == 0 {
                            format!("d{i}")
                        } else {
                            "_".into()
                        };
                        c.push(&name, &format!("Student: s{i}-{j}, p{j}, {dep}"))
                            .unwrap()
                            .into_ok()
                            .unwrap();
                    }
                    let sql = c.sql(&name).unwrap().into_ok().unwrap().body();
                    c.close(&name).unwrap().into_ok().unwrap();
                    sql
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, got) in wire_sql.iter().enumerate() {
        let dim = format!("Dep: d{i}, b{i}");
        let pushes: Vec<String> = (0..PUSHES)
            .map(|j| {
                let dep = if j % 2 == 0 {
                    format!("d{i}")
                } else {
                    "_".into()
                };
                format!("Student: s{i}-{j}, p{j}, {dep}")
            })
            .collect();
        let want = reference_sql(&dim, &pushes);
        assert_eq!(
            got.trim_end(),
            want.trim_end(),
            "tenant-{i}: server target diverges from in-process session"
        );
    }
    handle.shutdown();
}

/// Push replies are read from counters, not from a walk over the target:
/// after every text `PUSH` and every binary `PUSH_BATCH` on a keyed target
/// where some pushes merge, the reply's `scripts … | target N tuples` must
/// equal what the session's `STATS` computes from its snapshot.
#[test]
fn push_replies_match_stats_on_merging_pushes() {
    const KEYED: &str = "\
[source]
Emp(eid*, name)
Pay(pid*, salary)

[target]
Person(id*, name, salary)

[correspondences]
eid <-> id
pid <-> id
name <-> name
salary <-> salary
";
    let handle = start_server();
    let connect = |binary| {
        let cfg = ClientConfig {
            binary,
            ..ClientConfig::default()
        };
        Client::connect_with(handle.local_addr(), cfg).unwrap()
    };
    let (mut text, mut bin) = (connect(false), connect(true));
    text.open("m", KEYED).unwrap().into_ok().unwrap();
    // `scripts G generated / R reused | target N tuples`, from `STATS`.
    let from_stats = |c: &mut Client| {
        let body = c.stats(Some("m")).unwrap().into_ok().unwrap().body();
        let field = |prefix: &str| -> Vec<String> {
            let line = body.lines().find_map(|l| l.strip_prefix(prefix)).unwrap();
            line.split(' ').map(str::to_owned).collect()
        };
        let scripts = field("scripts: ");
        let target = field("target: ");
        let merged = field("rows: ")[2].parse::<usize>().unwrap();
        let summary = format!(
            "scripts {} generated / {} reused | target {} tuples",
            scripts[0], scripts[2], target[0]
        );
        (summary, merged)
    };
    let mut merged = 0;
    for i in 0..24 {
        let r = text.push("m", &format!("Emp: e{i}, n{i}")).unwrap();
        let (want, _) = from_stats(&mut text);
        assert_eq!(r.into_ok().unwrap().head, format!("pushed Emp | {want}"));
        if i % 3 == 2 {
            // One row merges into an existing `Person`, one adds a new one.
            let rows = [format!("Pay: e{i}, {i}"), format!("Pay: p{i}, {i}")];
            let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
            let r = bin.push_batch("m", &rows).unwrap();
            let (want, m) = from_stats(&mut bin);
            assert_eq!(
                r.into_ok().unwrap().head,
                format!("pushed batch of 2 | {want}")
            );
            merged = m;
        }
    }
    assert_eq!(merged, 8, "every batch merged one row");
    handle.shutdown();
}

#[test]
fn stats_cover_server_and_sessions() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("alpha", SCENARIO).unwrap().into_ok().unwrap();
    c.feed("alpha", "Dep: d1, b1").unwrap().into_ok().unwrap();
    c.push("alpha", "Student: s1, p1, d1")
        .unwrap()
        .into_ok()
        .unwrap();

    let server = c.stats(None).unwrap().into_ok().unwrap();
    assert!(server.head.contains("1 sessions"), "{}", server.head);
    assert!(
        server.lines.iter().any(|l| l.starts_with("alpha:")),
        "per-session line missing: {:?}",
        server.lines
    );

    let sess = c.stats(Some("alpha")).unwrap().into_ok().unwrap();
    let body = sess.body();
    assert!(body.contains("scripts: 1 generated"), "{body}");
    assert!(body.contains("scripts cached"), "{body}");
    handle.shutdown();
}

/// Tentpole acceptance: after one exchange, `METRICS` returns valid
/// Prometheus exposition with a non-zero `sedex_exchange_total` and a
/// populated latency histogram.
#[test]
fn metrics_exposition_after_one_exchange() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        metrics: true,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("m1", SCENARIO).unwrap().into_ok().unwrap();
    c.feed("m1", "Dep: d1, b1").unwrap().into_ok().unwrap();
    c.push("m1", "Student: s1, p1, d1")
        .unwrap()
        .into_ok()
        .unwrap();

    let body = c.metrics().unwrap().into_ok().unwrap().body();
    // Structurally valid exposition: HELP/TYPE pairs, counter lines.
    assert!(
        body.contains("# TYPE sedex_exchange_total counter"),
        "{body}"
    );
    assert!(body.contains("sedex_exchange_total 1"), "{body}");
    // The engine-side latency histogram is populated.
    assert!(
        body.contains("# TYPE sedex_exchange_seconds histogram"),
        "{body}"
    );
    assert!(
        body.contains("sedex_exchange_seconds_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(body.contains("sedex_exchange_seconds_count 1"), "{body}");
    // Phase timings, repository lookups and the service-side series exist.
    assert!(
        body.contains("sedex_phase_seconds_bucket{phase=\"match\""),
        "{body}"
    );
    assert!(
        body.contains("sedex_repo_lookup_total{result=\"miss\"} 1"),
        "{body}"
    );
    assert!(body.contains("sedex_service_tuples_in_total 2"), "{body}");
    assert!(
        body.contains("# TYPE sedex_request_seconds histogram"),
        "{body}"
    );
    assert!(body.contains("sedex_sessions_live"), "{body}");
    // Every non-comment line is `name{labels} value` with a numeric value.
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in `{line}`"
        );
    }
    handle.shutdown();
}

/// Without `metrics`, the engine series are absent but the service-level
/// series (and `STATS`) still render from the registry.
#[test]
fn metrics_without_session_tracing_still_serves_service_series() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("m2", SCENARIO).unwrap().into_ok().unwrap();
    c.push("m2", "Student: s1, p1, _")
        .unwrap()
        .into_ok()
        .unwrap();
    let body = c.metrics().unwrap().into_ok().unwrap().body();
    assert!(!body.contains("sedex_exchange_total"), "{body}");
    assert!(body.contains("sedex_service_requests_total"), "{body}");
    let stats = c.stats(None).unwrap().into_ok().unwrap();
    assert!(
        stats
            .lines
            .iter()
            .any(|l| l.starts_with("load: queue depth")),
        "load line missing: {:?}",
        stats.lines
    );
    assert!(
        stats.lines.iter().any(|l| l.starts_with("latency: p50")),
        "latency line missing: {:?}",
        stats.lines
    );
    handle.shutdown();
}

#[test]
fn flush_exchanges_fed_tuples() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("f", SCENARIO).unwrap().into_ok().unwrap();
    c.feed("f", "Dep: d1, b1").unwrap().into_ok().unwrap();
    c.feed("f", "Student: s1, p1, d1")
        .unwrap()
        .into_ok()
        .unwrap();
    // Nothing exchanged yet.
    assert!(!c
        .sql("f")
        .unwrap()
        .into_ok()
        .unwrap()
        .body()
        .contains("Stu"));
    c.flush_session("f").unwrap().into_ok().unwrap();
    let sql = c.sql("f").unwrap().into_ok().unwrap().body();
    assert!(sql.contains("INSERT INTO Stu"), "{sql}");
    handle.shutdown();
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let handle = start_server();
    let mut c = Client::connect(handle.local_addr()).unwrap();

    assert!(!c.request("FROBNICATE").unwrap().ok);
    assert!(!c.push("ghost", "Student: s1, p1, _").unwrap().ok);
    assert!(!c.request("PUSH bad-no-data").unwrap().ok);
    let r = c.open("dup", SCENARIO).unwrap();
    assert!(r.ok);
    assert!(!c.open("dup", SCENARIO).unwrap().ok);
    // Bad scenario body: parse error comes back, session not created.
    assert!(!c.open("broken", "Student(sname*)\n").unwrap().ok);
    assert!(!c.sql("broken").unwrap().ok);
    // The connection is still healthy after all those errors.
    assert!(c.stats(None).unwrap().ok);
    handle.shutdown();
}

#[test]
fn idle_sessions_are_evicted() {
    let handle = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        idle_ttl: Some(Duration::from_millis(150)),
        sweep_interval: Duration::from_millis(30),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.open("ephemeral", SCENARIO).unwrap().into_ok().unwrap();
    assert!(c.sql("ephemeral").unwrap().ok);
    std::thread::sleep(Duration::from_millis(600));
    assert!(!c.sql("ephemeral").unwrap().ok, "session should be evicted");
    let stats = c.stats(None).unwrap().into_ok().unwrap();
    assert!(
        stats.lines[0].contains("1 evicted"),
        "eviction counter missing: {:?}",
        stats.lines
    );
    handle.shutdown();
}

#[test]
fn wire_shutdown_drains_and_exits() {
    let handle = start_server();
    let addr = handle.local_addr();
    let mut c = Client::connect(addr).unwrap();
    c.open("last", SCENARIO).unwrap().into_ok().unwrap();
    let r = c.shutdown().unwrap().into_ok().unwrap();
    assert!(r.head.contains("shutting down"), "{}", r.head);
    // join() must return: accept loop stops, workers drain.
    handle.join();
    // New connections are refused once the server is gone.
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may accept briefly on some platforms; a request must fail.
            let mut c2 = Client::connect(addr).unwrap();
            c2.stats(None).is_err()
        }
    );
}
