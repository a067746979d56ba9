//! Integration tests for the `xqr` command-line runner (process level).

use std::process::Command;

fn xqr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xqr"))
}

fn run(args: &[&str]) -> (String, String, i32) {
    let out = xqr().args(args).output().expect("spawn xqr");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn inline_query() {
    let (stdout, _, code) = run(&["-q", "sum(1 to 10)"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "55");
}

#[test]
fn document_binding_and_query_file() {
    let dir = std::env::temp_dir().join(format!("xqr-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("d.xml");
    std::fs::write(&doc, "<r><v>1</v><v>2</v></r>").unwrap();
    let qf = dir.join("q.xq");
    std::fs::write(&qf, "for $v in doc('d.xml')//v return $v/text()").unwrap();
    let (stdout, _, code) = run(&[
        "-d",
        &format!("d.xml={}", doc.display()),
        qf.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "12");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_prints_plan() {
    let (stdout, _, code) = run(&[
        "--explain",
        "-q",
        "for $x in (1,2) let $m := for $y in (1,2) where $y = $x return $y return count($m)",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("GroupBy"), "{stdout}");
    assert!(stdout.contains("LOuterJoin"), "{stdout}");
}

#[test]
fn stats_go_to_stderr() {
    let (stdout, stderr, code) = run(&[
        "--stats",
        "-q",
        "for $x in (1,2) let $m := for $y in (1,2) where $y = $x return $y return count($m)",
    ]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "1 1");
    assert!(stderr.contains("insert group-by"), "{stderr}");
}

#[test]
fn modes_selectable() {
    for mode in ["no-algebra", "no-optim", "nl", "hash", "sort"] {
        let (stdout, _, code) = run(&["--mode", mode, "-q", "1 + 1"]);
        assert_eq!(code, 0, "{mode}");
        assert_eq!(stdout.trim(), "2", "{mode}");
    }
}

#[test]
fn error_exit_codes() {
    let (_, stderr, code) = run(&[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage:"));
    let (_, stderr, code) = run(&["--mode", "warp", "-q", "1"]);
    assert_eq!(code, 2, "{stderr}");
    let (_, stderr, code) = run(&["-q", "1 +"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("syntax error"), "{stderr}");
    let (_, stderr, code) = run(&["-q", "doc('missing.xml')"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("FODC0002"), "{stderr}");
}

#[test]
fn external_variables() {
    let (stdout, _, code) = run(&[
        "--var",
        "who=world",
        "-q",
        "declare variable $who external; concat('hello ', $who)",
    ]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), "hello world");
}

#[test]
fn pretty_output() {
    let (stdout, _, code) = run(&["--pretty", "-q", "<a><b/><c/></a>"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, "<a>\n  <b/>\n  <c/>\n</a>\n");
}

/// `--serve` runs no query of its own, so every query-time flag is a
/// usage error rather than silently ignored.
#[test]
fn serve_rejects_query_time_flags() {
    let cases: [&[&str]; 13] = [
        &["-q", "1"],
        &["q.xq"],
        &["--var", "x=1"],
        &["--param", "x=1"],
        &["--repeat", "5"],
        &["--mode", "nl"],
        &["--explain"],
        &["--stats"],
        &["--pretty"],
        &["--time"],
        &["--metrics"],
        &["--slow-query-ms", "5"],
        &["--query", "1"],
    ];
    for flags in cases {
        let mut args = vec!["--serve", "127.0.0.1:0"];
        args.extend_from_slice(flags);
        let (stdout, stderr, code) = run(&args);
        let name = if flags[0].starts_with('-') {
            flags[0]
        } else {
            "QUERY_FILE"
        };
        assert_eq!(code, 2, "{args:?} must be refused: {stdout}{stderr}");
        assert!(
            stderr.contains(&format!("{name} has no effect with --serve")),
            "{args:?}: {stderr}"
        );
        assert!(!stdout.contains("listening on"), "{args:?} started serving");
    }
}
