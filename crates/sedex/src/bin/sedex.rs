//! The `sedex` command-line tool: run a data exchange described by a
//! scenario file (see [`sedex::textfmt`] for the format).
//!
//! ```text
//! sedex run <file.sdx> [--engine sedex|edex|clio|mapmerge|spicy]
//!                      [--batch-size N] [--metrics-out <path>] [--slow-ms N]
//!                      [--sql] [--xml-sample] [--quiet] [--verbose]
//! sedex check <file.sdx>        # parse + validate only
//! sedex trees <file.sdx>        # print source/target relation trees
//! sedex gen <kind> [--tuples N] # emit a ready-to-run scenario file
//! sedex serve [--addr A] [--workers N] [--shards N] [--queue-depth N]
//!             [--idle-ttl SECS] [--metrics] [--slow-ms N]
//!             [--data-dir DIR] [--fsync always|every-N|off]
//!             [--snapshot-every N] [--request-timeout MS]
//!             [--max-conns N] [--shed-queue-depth N]
//!             [--pipeline-window N] [--trace-buffer N]
//!             [--cluster] [--node-id ID] [--advertise A]
//!             [--peers A,B,...] [--heartbeat-ms N] [--failover-ms N]
//!             [--replication-factor R]
//! sedex cluster status [--addr A]  # one node's ring + replication view
//! sedex recover <dir>           # inspect a --data-dir: what would recover?
//! ```
//!
//! `--metrics-out` writes the exchange's metrics registry as Prometheus
//! text exposition after the run; `--slow-ms` logs a one-line phase
//! breakdown to stderr for every exchange slower than the threshold.
//!
//! `--data-dir` turns on durability: every acknowledged operation is
//! written ahead to a per-shard CRC-checked log, snapshots bound replay
//! time, and a restart on the same directory recovers all sessions —
//! warm script repositories included.
//!
//! `--trace-buffer N` turns on request-lifecycle tracing: every request
//! gets a stage-decomposed span (read/parse/queue_wait/exec/flush) kept
//! in an N-slot in-memory flight recorder, dumped over the wire with the
//! `TRACE` command. Off by default — the untraced hot path performs no
//! extra clock reads.
//!
//! `--cluster` (or any of the cluster flags) starts the node in cluster
//! mode: session names are consistent-hashed to owner nodes, non-owners
//! answer `ERR MOVED <node> <addr>`, the WAL is shipped live to the node's
//! ring successors as warm standbys, and a planned `LEAVE` migrates every
//! owned session out before the node departs. `--peers` lists seed
//! addresses to `JOIN` through at startup; `--replication-factor R`
//! (default 2) keeps every acknowledged record on R nodes — the origin
//! plus its R−1 distinct alive successors — so the cluster survives R−1
//! simultaneous node failures.
//!
//! `gen` kinds: `university`, `stb`, `amb`, and the ten STBenchmark basics
//! (`cp`, `cv`, `hp`, `sk`, `vp`, `un`, `ne`, `de`, `ko`, `av`).

use std::process::ExitCode;

use sedex::core::{sql_statements, EdexEngine, SedexConfig, SedexEngine};
use sedex::mapping::{ClioEngine, MapMergeEngine, SpicyEngine};
use sedex::textfmt::{parse_scenario, ScenarioFile};
use sedex::treerep::{relation_tree, TreeConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage:\n  sedex run <file.sdx> [--engine sedex|edex|clio|mapmerge|spicy] [--batch-size N] [--metrics-out <path>] [--slow-ms N] [--sql] [--quiet] [--verbose]\n  sedex check <file.sdx>\n  sedex trees <file.sdx>\n  sedex gen <university|stb|amb|cp|cv|hp|sk|vp|un|ne|de|ko|av> [--tuples N]\n  sedex serve [--addr host:port] [--workers N] [--shards N] [--queue-depth N] [--idle-ttl SECS] [--metrics] [--slow-ms N] [--data-dir DIR] [--fsync always|every-N|off] [--snapshot-every N] [--request-timeout MS] [--max-conns N] [--shed-queue-depth N] [--pipeline-window N] [--trace-buffer N] [--cluster] [--node-id ID] [--advertise host:port] [--peers host:port,...] [--heartbeat-ms N] [--failover-ms N] [--replication-factor R]\n  sedex cluster status [--addr host:port]\n  sedex recover <data-dir>"
        .to_owned()
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or_else(usage)?;
    if cmd == "gen" {
        return generate(&args[1..]);
    }
    if cmd == "serve" {
        return serve(&args[1..]);
    }
    if cmd == "cluster" {
        return cluster_command(&args[1..]);
    }
    if cmd == "recover" {
        let dir = args.get(1).ok_or_else(usage)?;
        let report = sedex::durable::inspect(std::path::Path::new(dir))
            .map_err(|e| format!("inspecting {dir}: {e}"))?;
        print!("{report}");
        return Ok(());
    }
    let path = args.get(1).ok_or_else(usage)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = parse_scenario(&text).map_err(|e| format!("{path}:{e}"))?;

    match cmd.as_str() {
        "check" => {
            println!(
                "{path}: OK — {} source relations, {} target relations, {} correspondences, {} tuples, {} CFDs",
                file.scenario.source.len(),
                file.scenario.target.len(),
                file.scenario.sigma.len(),
                file.instance.total_tuples(),
                file.cfds.len(),
            );
            Ok(())
        }
        "trees" => {
            let cfg = TreeConfig::default();
            println!("== source relation trees ==");
            for r in file.scenario.source.relations() {
                let rt = relation_tree(&file.scenario.source, &r.name, &cfg)
                    .map_err(|e| e.to_string())?;
                println!(
                    "-- {} (height {}) --\n{}",
                    r.name,
                    rt.height(),
                    rt.tree.render()
                );
            }
            println!("== target relation trees ==");
            for r in file.scenario.target.relations() {
                let rt = relation_tree(&file.scenario.target, &r.name, &cfg)
                    .map_err(|e| e.to_string())?;
                println!(
                    "-- {} (height {}) --\n{}",
                    r.name,
                    rt.height(),
                    rt.tree.render()
                );
            }
            Ok(())
        }
        "run" => run_exchange(&file, &args[2..]),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// `sedex gen <kind> [--tuples N]`: print a complete scenario file built
/// from the built-in generators, ready for `sedex run`.
fn generate(args: &[String]) -> Result<(), String> {
    use sedex::scenarios::ambiguity::amb;
    use sedex::scenarios::ibench::{stb, IbenchConfig};
    use sedex::scenarios::stbench::{basic, BasicKind};
    use sedex::scenarios::university;
    use sedex::textfmt::{render_data, render_scenario};

    let kind = args.first().ok_or_else(usage)?.as_str();
    let mut tuples = 10usize;
    let mut it = args[1..].iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--tuples" => {
                tuples = it
                    .next()
                    .ok_or_else(|| "--tuples needs a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("--tuples: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }

    let small = IbenchConfig {
        instances_per_primitive: 2,
        ..IbenchConfig::default()
    };
    let (scenario, instance) = match kind {
        "university" => {
            let s = university::scenario();
            let i = university::fig3_instance().map_err(|e| e.to_string())?;
            (s, i)
        }
        "stb" => {
            let s = stb(&small);
            let i = s.populate(tuples, 1).map_err(|e| e.to_string())?;
            (s, i)
        }
        "amb" => {
            let s = amb(&small, 2);
            let i = s.populate(tuples, 1).map_err(|e| e.to_string())?;
            (s, i)
        }
        basic_kind => {
            let kind = BasicKind::all()
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(basic_kind))
                .ok_or_else(|| format!("unknown scenario kind `{basic_kind}`\n{}", usage()))?;
            let s = basic(kind);
            let i = s.populate(tuples, 1).map_err(|e| e.to_string())?;
            (s, i)
        }
    };
    println!("# generated by `sedex gen {kind}`");
    print!("{}", render_scenario(&scenario));
    println!("\n[data]");
    print!("{}", render_data(&instance));
    Ok(())
}

/// `sedex serve [--addr host:port] [--workers N] [--shards N]
/// [--queue-depth N] [--idle-ttl SECS] [--metrics] [--slow-ms N]
/// [--data-dir DIR] [--fsync always|every-N|off] [--snapshot-every N]
/// [--request-timeout MS] [--max-conns N] [--shed-queue-depth N]
/// [--pipeline-window N] [--trace-buffer N]`:
/// run the multi-tenant exchange server until a wire `SHUTDOWN` arrives.
fn serve(flags: &[String]) -> Result<(), String> {
    use sedex::service::{ClusterConfig, Server, ServerConfig};

    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7878".to_owned(),
        ..ServerConfig::default()
    };
    let mut cluster: Option<ClusterConfig> = None;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match f.as_str() {
            "--addr" => cfg.addr = value("--addr")?.clone(),
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--shards" => {
                cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--queue-depth" => {
                cfg.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--idle-ttl" => {
                let secs: u64 = value("--idle-ttl")?
                    .parse()
                    .map_err(|e| format!("--idle-ttl: {e}"))?;
                cfg.idle_ttl = (secs > 0).then(|| std::time::Duration::from_secs(secs));
            }
            "--metrics" => cfg.metrics = true,
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-ms: {e}"))?;
                cfg.slow_exchange_threshold = Some(std::time::Duration::from_millis(ms));
            }
            "--data-dir" => {
                cfg.data_dir = Some(std::path::PathBuf::from(value("--data-dir")?));
            }
            "--fsync" => {
                cfg.fsync = value("--fsync")?
                    .parse()
                    .map_err(|e| format!("--fsync: {e}"))?;
            }
            "--snapshot-every" => {
                cfg.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
            }
            "--request-timeout" => {
                let ms: u64 = value("--request-timeout")?
                    .parse()
                    .map_err(|e| format!("--request-timeout: {e}"))?;
                cfg.request_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--max-conns" => {
                cfg.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|e| format!("--max-conns: {e}"))?;
            }
            "--shed-queue-depth" => {
                cfg.shed_queue_depth = value("--shed-queue-depth")?
                    .parse()
                    .map_err(|e| format!("--shed-queue-depth: {e}"))?;
            }
            "--pipeline-window" => {
                cfg.pipeline_window = value("--pipeline-window")?
                    .parse()
                    .map_err(|e| format!("--pipeline-window: {e}"))?;
            }
            "--trace-buffer" => {
                cfg.trace_buffer = value("--trace-buffer")?
                    .parse()
                    .map_err(|e| format!("--trace-buffer: {e}"))?;
            }
            "--cluster" => {
                cluster.get_or_insert_with(ClusterConfig::default);
            }
            "--node-id" => {
                cluster.get_or_insert_with(ClusterConfig::default).node_id =
                    value("--node-id")?.clone();
            }
            "--advertise" => {
                cluster.get_or_insert_with(ClusterConfig::default).advertise =
                    value("--advertise")?.clone();
            }
            "--peers" => {
                cluster.get_or_insert_with(ClusterConfig::default).peers = value("--peers")?
                    .split(',')
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--heartbeat-ms" => {
                let ms: u64 = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
                cluster.get_or_insert_with(ClusterConfig::default).heartbeat =
                    std::time::Duration::from_millis(ms.max(1));
            }
            "--failover-ms" => {
                let ms: u64 = value("--failover-ms")?
                    .parse()
                    .map_err(|e| format!("--failover-ms: {e}"))?;
                cluster.get_or_insert_with(ClusterConfig::default).failover =
                    std::time::Duration::from_millis(ms.max(1));
            }
            "--replication-factor" => {
                let r: usize = value("--replication-factor")?
                    .parse()
                    .map_err(|e| format!("--replication-factor: {e}"))?;
                cluster
                    .get_or_insert_with(ClusterConfig::default)
                    .replication = r.max(1);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    let node_id = cluster.as_ref().map(|c| c.node_id.clone());
    cfg.cluster = cluster;
    let workers = cfg.workers;
    let metrics = cfg.metrics;
    let trace_buffer = cfg.trace_buffer;
    let durable = cfg.data_dir.clone();
    let handle = Server::start(cfg).map_err(|e| e.to_string())?;
    println!(
        "sedex-service listening on {} ({} workers{}{}{}); stop with the SHUTDOWN command",
        handle.local_addr(),
        workers,
        if metrics {
            ", session tracing on — scrape with METRICS"
        } else {
            ""
        },
        if trace_buffer > 0 {
            format!(
                ", request tracing on (flight recorder of {trace_buffer} spans — dump with TRACE)"
            )
        } else {
            String::new()
        },
        match &durable {
            Some(dir) => format!(", durable in {}", dir.display()),
            None => String::new(),
        }
    );
    if let Some(id) = node_id {
        println!("cluster mode on: node {id} (inspect with `sedex cluster status`)");
    }
    handle.join();
    println!("sedex-service stopped");
    Ok(())
}

/// `sedex cluster status [--addr host:port]`: print one node's view of
/// the ring, its standby holdings, and replication progress (the same
/// block `CLUSTER` returns over plain `nc`).
fn cluster_command(args: &[String]) -> Result<(), String> {
    use sedex::service::Client;

    let sub = args.first().ok_or_else(usage)?;
    if sub != "status" {
        return Err(format!("unknown cluster subcommand `{sub}`\n{}", usage()));
    }
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut it = args[1..].iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .ok_or_else(|| "--addr needs a value".to_owned())?
                    .clone();
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting {addr}: {e}"))?;
    let reply = client.cluster().map_err(|e| e.to_string())?;
    if !reply.ok {
        return Err(reply.head);
    }
    println!("{}", reply.head);
    let body = reply.body();
    if !body.is_empty() {
        println!("{body}");
    }
    Ok(())
}

fn run_exchange(file: &ScenarioFile, flags: &[String]) -> Result<(), String> {
    use sedex::core::observe::{render_prometheus, MetricsRegistry, RegistryObserver};

    let mut engine_name = "sedex".to_owned();
    let mut show_sql = false;
    let mut quiet = false;
    let mut verbose = false;
    let mut metrics_out: Option<String> = None;
    let mut config = SedexConfig::default();
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--engine" => {
                engine_name = it
                    .next()
                    .ok_or_else(|| "--engine needs a value".to_owned())?
                    .clone();
            }
            "--batch-size" => {
                config.batch_size = it
                    .next()
                    .ok_or_else(|| "--batch-size needs a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("--batch-size: {e}"))?;
            }
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .ok_or_else(|| "--metrics-out needs a path".to_owned())?
                        .clone(),
                );
            }
            "--slow-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or_else(|| "--slow-ms needs a value".to_owned())?
                    .parse()
                    .map_err(|e| format!("--slow-ms: {e}"))?;
                config.slow_exchange_threshold = Some(std::time::Duration::from_millis(ms));
            }
            "--sql" => show_sql = true,
            "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if metrics_out.is_some() && engine_name != "sedex" {
        return Err("--metrics-out requires --engine sedex".to_owned());
    }
    let registry = metrics_out.as_ref().map(|_| MetricsRegistry::new());

    let s = &file.scenario;
    let (out, summary) = match engine_name.as_str() {
        "sedex" => {
            let mut engine = SedexEngine::with_config(config).with_cfds(file.cfds.clone());
            if let Some(reg) = &registry {
                engine = engine.with_observer(std::sync::Arc::new(RegistryObserver::new(reg)));
            }
            let (out, r) = engine
                .exchange(&file.instance, &s.target, &s.sigma)
                .map_err(|e| e.to_string())?;
            let summary = if verbose {
                format!("sedex:\n{}", r.verbose())
            } else {
                format!("sedex: {r}")
            };
            (out, summary)
        }
        "edex" => {
            let (out, r) = EdexEngine::new()
                .exchange(&file.instance, &s.target, &s.sigma)
                .map_err(|e| e.to_string())?;
            (
                out,
                format!("edex: {} | Tg {:?} Te {:?}", r.stats, r.tg, r.te),
            )
        }
        "clio" => {
            let engine = ClioEngine::new(&s.source, &s.target, &s.sigma);
            let (out, r) = engine
                .run(&file.instance, &s.target)
                .map_err(|e| e.to_string())?;
            (out, format!("clio: {} | {} mappings", r.stats, r.tgd_count))
        }
        "mapmerge" => {
            let engine = MapMergeEngine::new(&s.source, &s.target, &s.sigma);
            let (out, r) = engine
                .run(&file.instance, &s.target)
                .map_err(|e| e.to_string())?;
            (
                out,
                format!(
                    "mapmerge: {} | {} correlated mappings",
                    r.stats, r.tgd_count
                ),
            )
        }
        "spicy" => {
            let engine = SpicyEngine::new(&s.source, &s.target, &s.sigma);
            let (out, r) = engine
                .run(&file.instance, &s.target)
                .map_err(|e| e.to_string())?;
            (
                out,
                format!(
                    "spicy: {} | {} mappings, {} egd merges, {} core removals",
                    r.stats, r.tgd_count, r.egd_merged, r.core_removed
                ),
            )
        }
        other => {
            return Err(format!(
                "unknown engine `{other}` (sedex|edex|clio|mapmerge|spicy)"
            ))
        }
    };

    if !quiet {
        print!("{out}");
    }
    println!("{summary}");

    if let (Some(path), Some(reg)) = (&metrics_out, &registry) {
        std::fs::write(path, render_prometheus(reg)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics: Prometheus exposition written to {path}");
    }

    if show_sql {
        // Render the SEDEX transformation scripts for each source tuple
        // shape (one sample per shape).
        use sedex::core::scriptgen::generate_script;
        use sedex::core::translate::{slot_values, translate};
        use sedex::core::Matcher;
        use sedex::treerep::{repository_key, SchemaForest, ShapeCatalog};
        let cfg = TreeConfig::default();
        let forest = SchemaForest::new(&s.target, &cfg).map_err(|e| e.to_string())?;
        let matcher = Matcher::new(&forest, 2, 1);
        let catalog = ShapeCatalog::new(file.instance.schema());
        let mut seen_shapes = std::collections::HashSet::new();
        println!("\n-- transformation scripts (one sample per tuple shape) --");
        for (pos, (_, inst)) in file.instance.relations().enumerate() {
            for row in 0..inst.len() as u32 {
                let tx = catalog
                    .tuple_tree(&file.instance, pos, row, &cfg)
                    .map_err(|e| e.to_string())?;
                let key = repository_key(&tx);
                if !seen_shapes.insert(key.clone()) {
                    continue;
                }
                let Some(m) = matcher.best_match(&tx, &s.sigma) else {
                    continue;
                };
                let Some(tr) = forest.tree(&m.relation) else {
                    continue;
                };
                let ty = translate(&tx, tr, &s.sigma);
                let script = generate_script(&ty, &s.target);
                if script.is_empty() {
                    continue;
                }
                println!("-- shape {key}");
                print!("{}", sql_statements(&script, &s.target, &slot_values(&tx)));
            }
        }
    }
    Ok(())
}
