//! Process-level tests of the `cod` CLI binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cod_bin() -> PathBuf {
    // Integration tests live next to the binary under target/<profile>/.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("cod{}", std::env::consts::EXE_SUFFIX));
    p
}

fn run(args: &[&str]) -> Output {
    Command::new(cod_bin())
        .args(args)
        .output()
        .expect("spawn cod binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let o = run(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("USAGE"));
    assert!(stdout(&o).contains("characteristic community"));
}

#[test]
fn missing_graph_source_fails_cleanly() {
    let o = run(&["stats"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--edges") || stderr(&o).contains("--preset"));
}

#[test]
fn unknown_command_fails() {
    let o = run(&["frobnicate", "--preset", "cora"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn stats_on_preset() {
    let o = run(&["stats", "--preset", "citeseer"]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("nodes:       2110"));
    assert!(out.contains("clustering:"));
}

#[test]
fn generate_then_query_round_trip() {
    let dir = std::env::temp_dir();
    let edges = dir.join("cod_cli_test_edges.txt");
    let attrs = dir.join("cod_cli_test_attrs.txt");
    let o = run(&[
        "generate",
        "--preset",
        "citeseer",
        "--out-edges",
        edges.to_str().unwrap(),
        "--out-attrs",
        attrs.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));

    let o = run(&[
        "query",
        "--edges",
        edges.to_str().unwrap(),
        "--attrs",
        attrs.to_str().unwrap(),
        "--node",
        "17",
        "--k",
        "5",
        "--theta",
        "5",
        "--method",
        "codl",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(
        out.contains("characteristic community of node 17")
            || out.contains("no community where node 17"),
        "unexpected output: {out}"
    );
    std::fs::remove_file(&edges).ok();
    std::fs::remove_file(&attrs).ok();
}

#[test]
fn hierarchy_command_prints_levels() {
    let o = run(&[
        "hierarchy",
        "--preset",
        "cora",
        "--node",
        "3",
        "--levels",
        "4",
        "--theta",
        "5",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("|H(q)|"));
    assert!(out.contains("level | size"));
}

#[test]
fn out_of_range_node_is_an_error() {
    let o = run(&["query", "--preset", "cora", "--node", "999999"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("out of range"));
}

#[test]
fn baseline_command_runs() {
    let o = run(&[
        "baseline", "--preset", "cora", "--node", "10", "--method", "acq",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
}

// ---------------------------------------------------------------------------
// Failure modes: every error path below must exit non-zero with a one-line
// diagnostic on stderr — never a panic backtrace.
// ---------------------------------------------------------------------------

/// Asserts a clean failure: non-zero exit, a diagnostic that starts with
/// `error:`, and no panic backtrace.
fn assert_clean_failure(o: &Output) -> String {
    let err = stderr(o);
    assert!(
        !o.status.success(),
        "expected failure, stdout: {}",
        stdout(o)
    );
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "panic leaked to the user: {err}"
    );
    assert!(err.starts_with("error:"), "no diagnostic prefix: {err}");
    err
}

/// Temp file that cleans up after itself; names are unique per process.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str, contents: &[u8]) -> Self {
        let path =
            std::env::temp_dir().join(format!("cod_cli_{tag}_{}_{tag}.txt", std::process::id()));
        std::fs::write(&path, contents).expect("write temp fixture");
        TempFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A 30-node path graph where every node carries attribute `A`.
fn tiny_graph_files() -> (TempFile, TempFile) {
    path_graph_files("", 30)
}

/// An `n`-node path graph where every node carries attribute `A`; `tag`
/// keeps the temp file names apart from other fixtures.
fn path_graph_files(tag: &str, n: usize) -> (TempFile, TempFile) {
    let edges: String = (0..n - 1).map(|v| format!("{v} {}\n", v + 1)).collect();
    let attrs: String = (0..n).map(|v| format!("{v} A\n")).collect();
    (
        TempFile::new(&format!("edges{tag}"), edges.as_bytes()),
        TempFile::new(&format!("attrs{tag}"), attrs.as_bytes()),
    )
}

#[test]
fn missing_edge_file_is_a_one_line_error() {
    let o = run(&[
        "query",
        "--edges",
        "/nonexistent/no_such_graph.txt",
        "--node",
        "0",
    ]);
    let err = assert_clean_failure(&o);
    assert!(err.contains("loading graph"), "unexpected: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "not one line: {err}");
}

#[test]
fn malformed_edge_list_reports_the_line_number() {
    let bad = TempFile::new("badedges", b"0 1\n1 2\nthis is not an edge\n");
    let o = run(&["stats", "--edges", bad.path()]);
    let err = assert_clean_failure(&o);
    assert!(err.contains("line 3"), "line number missing: {err}");
    assert_eq!(err.trim_end().lines().count(), 1, "not one line: {err}");
}

#[test]
fn zero_k_is_rejected_without_panic() {
    let (edges, attrs) = tiny_graph_files();
    let o = run(&[
        "query",
        "--edges",
        edges.path(),
        "--attrs",
        attrs.path(),
        "--node",
        "3",
        "--k",
        "0",
    ]);
    let err = assert_clean_failure(&o);
    assert!(err.contains("k must be at least 1"), "unexpected: {err}");
}

#[test]
fn corrupt_index_is_fatal_under_strict() {
    let (edges, attrs) = tiny_graph_files();
    let idx = TempFile::new("strictidx", b"this is not a CODX file at all");
    let o = run(&[
        "query",
        "--edges",
        edges.path(),
        "--attrs",
        attrs.path(),
        "--node",
        "3",
        "--index",
        idx.path(),
        "--strict-index",
    ]);
    let err = assert_clean_failure(&o);
    assert!(err.contains("corrupt index"), "unexpected: {err}");
}

#[test]
fn corrupt_index_triggers_rebuild_and_resave_by_default() {
    let (edges, attrs) = tiny_graph_files();
    let idx = TempFile::new("rebuildidx", b"garbage garbage garbage");
    let common = [
        "query",
        "--edges",
        edges.path(),
        "--attrs",
        attrs.path(),
        "--node",
        "3",
        "--theta",
        "5",
        "--index",
        idx.path(),
    ];
    let o = run(&common);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let err = stderr(&o);
    assert!(
        err.contains("warning") && err.contains("rebuilding"),
        "no warning: {err}"
    );
    assert!(err.contains("saved rebuilt index"), "no resave: {err}");

    // The resaved file must now load cleanly, even under --strict-index.
    let mut strict: Vec<&str> = common.to_vec();
    strict.push("--strict-index");
    let o = run(&strict);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    assert!(
        stderr(&o).contains("loaded HIMOR index"),
        "stderr: {}",
        stderr(&o)
    );
}

#[test]
fn index_with_wrong_graph_is_rejected_under_strict() {
    let (edges, attrs) = tiny_graph_files();
    let idx = TempFile::new("wrongidx", b"");
    // Build a valid index for the tiny graph...
    let o = run(&[
        "query",
        "--edges",
        edges.path(),
        "--attrs",
        attrs.path(),
        "--node",
        "3",
        "--theta",
        "5",
        "--index",
        idx.path(),
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    // ...then present it for a different graph.
    let o = run(&[
        "query",
        "--preset",
        "cora",
        "--node",
        "3",
        "--index",
        idx.path(),
        "--strict-index",
    ]);
    let err = assert_clean_failure(&o);
    assert!(err.contains("nodes"), "unexpected: {err}");
}

#[test]
fn serve_fails_fast_on_an_unusable_index() {
    // `cod serve --index FILE` must open FILE: a corrupt or missing file
    // ends startup with a one-line error instead of serving without it.
    let idx = TempFile::new("serveidx", b"not an artifact file");
    let missing = std::env::temp_dir().join(format!("cod_cli_absent_{}.codx", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    for path in [idx.path(), missing] {
        let mut child = Command::new(cod_bin())
            .args(["serve", "--preset", "cora", "--index", path])
            .args(["--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cod binary");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while child.try_wait().expect("poll cod serve").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("cod serve kept running with unusable index {path}");
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let o = child.wait_with_output().expect("collect cod serve output");
        assert_eq!(o.status.code(), Some(1), "stderr: {}", stderr(&o));
        let err = assert_clean_failure(&o);
        assert_eq!(err.trim_end().lines().count(), 1, "not one line: {err}");
        assert!(err.contains(path), "error must name the file: {err}");
    }
}

#[test]
fn zero_budget_fails_cleanly_and_tight_budget_flags_the_answer() {
    let (edges, attrs) = tiny_graph_files();
    let common = [
        "query",
        "--edges",
        edges.path(),
        "--attrs",
        attrs.path(),
        "--node",
        "3",
        "--method",
        "codl-",
        "--k",
        "1",
        "--theta",
        "50",
    ];
    let mut zero: Vec<&str> = common.to_vec();
    zero.extend(["--budget", "0"]);
    let err = assert_clean_failure(&run(&zero));
    assert!(err.contains("budget"), "unexpected: {err}");

    let mut tight: Vec<&str> = common.to_vec();
    tight.extend(["--budget", "4"]);
    let o = run(&tight);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    // A 4-sample evaluation either finds nothing or must flag best-effort.
    assert!(
        out.contains("no community") || out.contains("best-effort"),
        "unexpected output: {out}"
    );
}

#[test]
fn mutate_replays_a_log_with_per_event_outcomes() {
    let dir = std::env::temp_dir().join(format!("cod-mutate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("events.txt");
    std::fs::write(
        &log,
        "# churn burst\nadd 0 1500\ndel 0 1500\nadd 3 900\nadd 3 900\nattrs 7 0,2\n",
    )
    .unwrap();
    let o = run(&[
        "mutate",
        "--preset",
        "citeseer",
        "--log",
        log.to_str().unwrap(),
        "--theta",
        "2",
        "--k",
        "2",
        "--seed",
        "9",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("add 0 1500"), "{out}");
    assert!(out.contains("repaired"), "{out}");
    assert!(out.contains("no-op"), "{out}"); // the duplicate insert
    assert!(out.contains("refreshed"), "{out}"); // the attrs event
    assert!(out.contains("repairs"), "{out}");
    assert!(out.contains("full rebuilds"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutate_without_log_fails_cleanly() {
    let o = run(&["mutate", "--preset", "citeseer"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--log"));
}

#[test]
fn mutate_rejects_a_malformed_log_with_a_line_number() {
    let dir = std::env::temp_dir().join(format!("cod-mutate-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("bad.txt");
    std::fs::write(&log, "add 0 1\nfrobnicate 2 3\n").unwrap();
    let o = run(&[
        "mutate",
        "--preset",
        "citeseer",
        "--log",
        log.to_str().unwrap(),
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("line 2"), "{}", stderr(&o));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn theta_whose_total_overflows_is_a_one_line_error() {
    // θ·|V| over the 31-node path: 595056260442243601·31 wraps to 15, and
    // u64::MAX·31 to a count no run finishes. Both must be rejected before
    // the index is built.
    let (edges, attrs) = path_graph_files("31", 31);
    for theta in ["595056260442243601", "18446744073709551615"] {
        let o = run(&[
            "query",
            "--edges",
            edges.path(),
            "--attrs",
            attrs.path(),
            "--node",
            "3",
            "--theta",
            theta,
        ]);
        let err = assert_clean_failure(&o);
        assert!(err.contains("overflows"), "θ = {theta}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "not one line: {err}");
    }
}

#[test]
fn threads_takes_only_auto_or_a_number() {
    let o = run(&[
        "query",
        "--preset",
        "cora",
        "--node",
        "17",
        "--threads",
        "serial",
    ]);
    let err = assert_clean_failure(&o);
    let first = err.lines().next().unwrap_or_default();
    assert_eq!(first, "error: --threads wants auto or a number", "{err}");
}

#[test]
fn thread_count_never_changes_query_output() {
    // The default is one seeded thread, so all three spellings print the
    // same bytes, for every method.
    for method in ["codu", "codr", "codl-", "codl"] {
        let base = [
            "query", "--preset", "cora", "--node", "17", "--seed", "7", "--method", method,
        ];
        let outputs: Vec<Output> = [&[][..], &["--threads", "1"], &["--threads", "4"]]
            .iter()
            .map(|extra| {
                let mut args = base.to_vec();
                args.extend_from_slice(extra);
                run(&args)
            })
            .collect();
        for (o, label) in outputs
            .iter()
            .zip(["default", "--threads 1", "--threads 4"])
        {
            assert!(o.status.success(), "{method} {label}: {}", stderr(o));
            assert_eq!(
                stdout(o),
                stdout(&outputs[0]),
                "{method}: {label} differs from the default"
            );
        }
    }
}

#[test]
fn best_effort_note_names_both_causes_without_a_budget() {
    // No --budget: the answer is uncertain because its top-k verdict is
    // within sampling noise, and the note must say so.
    let o = run(&[
        "query", "--preset", "cora", "--node", "17", "--method", "codl", "--seed", "7",
    ]);
    assert!(o.status.success(), "stderr: {}", stderr(&o));
    let out = stdout(&o);
    let note = out
        .lines()
        .find(|l| l.starts_with("note: best-effort"))
        .unwrap_or_else(|| panic!("no best-effort note: {out}"));
    assert!(
        note.contains("sampling noise") && note.contains("--theta"),
        "{note}"
    );
    assert!(note.contains("--budget"), "{note}");
}
