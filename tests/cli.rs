//! The front door, through the real binary: every command answers
//! `--help`, and a malformed command line exits 2 before any work starts.

use platoon_security::COMMANDS;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_platoon-security"))
        .args(args)
        .output()
        .expect("run platoon-security")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn top_level_help_lists_exactly_the_command_table() {
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let listed: Vec<String> = stderr(&help)
        .lines()
        .filter_map(|line| line.strip_prefix("  ")?.split_whitespace().next())
        .map(str::to_string)
        .collect();
    let table: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(listed, table);
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["no-such-command"]).status.code(), Some(2));
}

#[test]
fn every_command_takes_help_and_rejects_malformed_flags() {
    for command in COMMANDS {
        let name = command.name;
        let help = run(&[name, "--help"]);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        assert!(stderr(&help).starts_with(&format!("usage: {name}")));

        let unknown = run(&[name, "--no-such-flag"]);
        assert_eq!(unknown.status.code(), Some(2), "{name} --no-such-flag");

        for flag in command.flags.iter().filter(|f| f.value.is_some()) {
            let missing = run(&[name, flag.name]);
            assert_eq!(
                missing.status.code(),
                Some(2),
                "{name} {} without a value: {}",
                flag.name,
                stderr(&missing)
            );
        }
    }
}

#[test]
fn a_failed_job_exits_one() {
    let out = std::env::temp_dir().join(format!("platoon-cli-failed-job-{}", std::process::id()));
    let out_arg = out.to_str().expect("utf-8 temp dir");
    let trace = run(&["trace", "--quick", "--attack", "bogus", "--out", out_arg]);
    assert_eq!(trace.status.code(), Some(1), "{}", stderr(&trace));
    assert!(stderr(&trace).contains("failed job \"trace/bogus\""));
    std::fs::remove_dir_all(&out).ok();
}
