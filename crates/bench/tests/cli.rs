//! The `experiments` command line: `--trace[=<kinds>]` picks the trace
//! projections a run writes, and a malformed kind list is an error (exit 1)
//! before anything runs.

use std::process::{Command, Output};

/// Run a short fig3 sweep with `extra` flags into a fresh directory; return
/// the process output and the sorted names of the files it wrote.
fn run(name: &str, extra: &[&str]) -> (Output, Vec<String>) {
    let dir = std::env::temp_dir()
        .join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--figure",
            "fig3",
            "--seeds",
            "1",
            "--secs",
            "60",
            "--threads",
            "1",
        ])
        .arg("--out")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("experiments starts");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("out dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    files.sort();
    std::fs::remove_dir_all(&dir).expect("clean up");
    (out, files)
}

fn has(files: &[String], prefix: &str) -> bool {
    files.iter().any(|f| f.starts_with(prefix))
}

#[test]
fn trace_flag_selects_the_projections() {
    // Bare `--trace` is `--trace=all --metrics`.
    let (out, files) = run("bare", &["--trace"]);
    assert!(out.status.success(), "{out:?}");
    assert!(has(&files, "TRACE_obs_fig3_cell0.txt"), "{files:?}");
    assert!(has(&files, "CHROME_fig3_cell0.json"), "{files:?}");
    assert!(has(&files, "BENCH_fig3_metrics.json"), "{files:?}");

    // `--trace=all` records the same trace without the metrics registry.
    let (out, files) = run("all", &["--trace=all"]);
    assert!(out.status.success(), "{out:?}");
    assert!(has(&files, "TRACE_obs_fig3_cell0.txt"), "{files:?}");
    assert!(!has(&files, "BENCH_fig3_metrics.json"), "{files:?}");

    // A kind list records only those kinds: gap streams, no full trace.
    let (out, files) = run("list", &["--trace=arrivals,pmm"]);
    assert!(out.status.success(), "{out:?}");
    assert!(has(&files, "TRACE_fig3_cell0_class0.txt"), "{files:?}");
    assert!(!has(&files, "TRACE_obs_"), "{files:?}");
    assert!(!has(&files, "CHROME_"), "{files:?}");
    assert!(!has(&files, "BENCH_fig3_metrics.json"), "{files:?}");
}

#[test]
fn trace_flag_rejects_empty_and_unknown_kinds() {
    for (i, bad) in ["--trace=", "--trace=bogus", "--trace=all,bogus"]
        .into_iter()
        .enumerate()
    {
        let (out, files) = run(&format!("bad{i}"), &[bad]);
        assert_eq!(out.status.code(), Some(1), "{bad}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("invalid trace kind"),
            "{bad}: {out:?}"
        );
        assert!(files.is_empty(), "{bad}: nothing runs, but wrote {files:?}");
    }
}
