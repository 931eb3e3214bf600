//! Integration tests driving the `sedex` CLI binary on the shipped scenario
//! files.

use std::process::Command;

fn sedex_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sedex")
}

fn repo_file(name: &str) -> String {
    format!(
        "{}/../../scenarios_examples/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn check_validates_university_file() {
    let out = Command::new(sedex_bin())
        .args(["check", &repo_file("university.sdx")])
        .output()
        .expect("run sedex");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 source relations"));
    assert!(stdout.contains("3 target relations"));
    assert!(stdout.contains("8 tuples"));
}

#[test]
fn run_sedex_resolves_ambiguity_file() {
    let out = Command::new(sedex_bin())
        .args(["run", &repo_file("ambiguity.sdx")])
        .output()
        .expect("run sedex");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Grad (1 tuples)"), "{stdout}");
    assert!(stdout.contains("Prof (1 tuples)"), "{stdout}");
    assert!(stdout.contains("0 nulls"), "{stdout}");
}

#[test]
fn run_spicy_shows_redundancy_on_same_file() {
    let out = Command::new(sedex_bin())
        .args(["run", &repo_file("ambiguity.sdx"), "--engine", "spicy"])
        .output()
        .expect("run sedex");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Grad (2 tuples)"), "{stdout}");
    assert!(stdout.contains("Prof (2 tuples)"), "{stdout}");
}

#[test]
fn sql_flag_prints_insert_statements() {
    let out = Command::new(sedex_bin())
        .args(["run", &repo_file("ambiguity.sdx"), "--sql", "--quiet"])
        .output()
        .expect("run sedex");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INSERT INTO Grad"), "{stdout}");
    assert!(stdout.contains("INSERT INTO Prof"), "{stdout}");
}

#[test]
fn trees_prints_relation_trees() {
    let out = Command::new(sedex_bin())
        .args(["trees", &repo_file("university.sdx")])
        .output()
        .expect("run sedex");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("-- Registration (height 5) --"), "{stdout}");
    assert!(stdout.contains("supervisor"), "{stdout}");
}

#[test]
fn bad_file_fails_with_line_number() {
    let dir = std::env::temp_dir().join("sedex_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.sdx");
    std::fs::write(&path, "[source]\nR(a\n").unwrap();
    let out = Command::new(sedex_bin())
        .args(["check", path.to_str().unwrap()])
        .output()
        .expect("run sedex");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn gen_produces_runnable_files() {
    let dir = std::env::temp_dir().join("sedex_cli_gen");
    std::fs::create_dir_all(&dir).unwrap();
    for kind in ["university", "vp", "ne", "amb"] {
        let out = Command::new(sedex_bin())
            .args(["gen", kind, "--tuples", "4"])
            .output()
            .expect("run sedex gen");
        assert!(
            out.status.success(),
            "gen {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = dir.join(format!("{kind}.sdx"));
        std::fs::write(&path, &out.stdout).unwrap();
        let run = Command::new(sedex_bin())
            .args(["run", path.to_str().unwrap(), "--quiet"])
            .output()
            .expect("run generated file");
        assert!(
            run.status.success(),
            "run {kind}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(stdout.contains("sedex:"), "{stdout}");
    }
}

#[test]
fn run_with_batch_size_matches_default() {
    let default = Command::new(sedex_bin())
        .args(["run", &repo_file("university.sdx"), "--quiet"])
        .output()
        .expect("run sedex");
    assert!(default.status.success());
    let batched = Command::new(sedex_bin())
        .args([
            "run",
            &repo_file("university.sdx"),
            "--quiet",
            "--batch-size",
            "4",
        ])
        .output()
        .expect("run sedex");
    assert!(
        batched.status.success(),
        "{}",
        String::from_utf8_lossy(&batched.stderr)
    );
    // Same counters either way: the summary line is identical up to times.
    let strip = |s: &[u8]| {
        String::from_utf8_lossy(s)
            .lines()
            .filter(|l| l.starts_with("sedex:"))
            .map(|l| {
                l.split(" | ")
                    .filter(|part| !part.starts_with("Tg "))
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&default.stdout), strip(&batched.stdout));
}

/// The engine is single-threaded: the removed thread-count flags are
/// rejected, so a script still passing them fails instead of running
/// something other than what it asked for.
#[test]
fn removed_thread_flags_are_unknown() {
    let run_flags = ["run", &repo_file("university.sdx"), "--threads", "2"];
    let serve_flags = ["serve", "--addr", "127.0.0.1:0", "--engine-threads", "2"];
    for args in [&run_flags[..], &serve_flags[..]] {
        let out = Command::new(sedex_bin())
            .args(args)
            .output()
            .expect("run sedex");
        assert!(!out.status.success(), "{args:?} succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn verbose_flag_prints_multiline_report() {
    let out = Command::new(sedex_bin())
        .args(["run", &repo_file("university.sdx"), "--quiet", "--verbose"])
        .output()
        .expect("run sedex");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scripts:"), "{stdout}");
    assert!(stdout.contains("% reuse"), "{stdout}");
    assert!(stdout.contains("rows:"), "{stdout}");
}

#[test]
fn serve_smoke_open_push_shutdown() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let mut child = Command::new(sedex_bin())
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn sedex serve");
    // The first stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_owned();

    let stream = TcpStream::connect(&addr).expect("connect to sedex serve");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let send = |w: &mut TcpStream, text: &str| {
        w.write_all(text.as_bytes()).unwrap();
        w.flush().unwrap();
    };
    let read_block = |r: &mut BufReader<TcpStream>| {
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            assert!(r.read_line(&mut l).unwrap() > 0, "server hung up");
            let l = l.trim_end().to_owned();
            if l == "." {
                break;
            }
            lines.push(l);
        }
        lines
    };

    send(
        &mut writer,
        "OPEN t1\n[source]\nS(a*, b)\n[target]\nT(x*, y)\n[correspondences]\na <-> x\nb <-> y\nEND\n",
    );
    let open = read_block(&mut reader);
    assert!(open[0].starts_with("OK opened t1"), "{open:?}");

    send(&mut writer, "PUSH t1 S: k1, v1\n");
    let push = read_block(&mut reader);
    assert!(push[0].contains("scripts 1 generated"), "{push:?}");

    send(&mut writer, "SQL t1\n");
    let sql = read_block(&mut reader);
    assert!(sql.iter().any(|l| l.contains("INSERT INTO T")), "{sql:?}");

    send(&mut writer, "SHUTDOWN\n");
    let bye = read_block(&mut reader);
    assert!(bye[0].starts_with("OK shutting down"), "{bye:?}");

    let status = child.wait().expect("serve exit");
    assert!(status.success());
}

#[test]
fn unknown_engine_is_an_error() {
    let out = Command::new(sedex_bin())
        .args(["run", &repo_file("university.sdx"), "--engine", "nope"])
        .output()
        .expect("run sedex");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
}
