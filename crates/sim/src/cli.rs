//! The command-line layer behind every subcommand of the
//! `platoon-security` binary.
//!
//! A subcommand is a [`Command`]: its name, a one-line summary, the
//! [`Flag`]s it accepts and its entry function. The flag list drives both
//! parsing and `--help`, and [`Command::main`] applies one exit-code rule:
//!
//! * `0` — success, or `--help`;
//! * `1` — a failed job, differing traces (`trace-diff`) or an I/O error;
//! * `2` — a usage error.
//!
//! The three flags the experiment commands share ([`QUICK`], [`WORKERS`],
//! [`OUT`]) are declared here once, and [`Args`] carries the helper that
//! writes output files. The golden gates live in `cargo test`.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// One flag a command accepts.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The spelling, e.g. `--workers`.
    pub name: &'static str,
    /// The placeholder of the flag's value in the help, or `None` for a
    /// switch.
    pub value: Option<&'static str>,
    /// The help line.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by a value, shown as `placeholder` in the help.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(placeholder),
            help,
        }
    }
}

/// `--quick`: quick effort; output files carry the label `quick`, not
/// `full`.
pub const QUICK: Flag = Flag::switch(
    "--quick",
    "quick effort: shorter runs and smaller grids (the shape the goldens pin)",
);
/// `--workers N`: worker threads.
pub const WORKERS: Flag = Flag::value(
    "--workers",
    "N",
    "worker threads (default: available parallelism)",
);
/// `--out DIR`: where output files are written.
pub const OUT: Flag = Flag::value(
    "--out",
    "DIR",
    "where output files are written (default: .)",
);

/// A subcommand: one row of the binary's command table.
pub struct Command {
    /// The word that selects the command.
    pub name: &'static str,
    /// One line for the top-level help and the head of `--help`.
    pub summary: &'static str,
    /// Placeholders of the positional operands, all required.
    pub operands: &'static [&'static str],
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
    /// The entry function. It reports failures the run survives through
    /// [`Args::fail`] and stops with an [`Exit`] otherwise.
    pub run: fn(&mut Args) -> Result<(), Exit>,
}

/// Why a command stopped early.
#[derive(Debug, PartialEq)]
pub enum Exit {
    /// `--help` was asked for (exit 0).
    Help,
    /// A usage error (exit 2).
    Usage(String),
    /// A failed job, differing traces or an I/O error (exit 1).
    Failed(String),
}

impl Command {
    /// Parses `argv` (the words after the command name) and runs the
    /// command. Returns the process exit code.
    pub fn main(&self, argv: &[String]) -> i32 {
        let outcome = self.parse(argv).and_then(|mut args| {
            (self.run)(&mut args)?;
            Ok(args.failed)
        });
        match outcome {
            Ok(failed) => i32::from(failed),
            Err(Exit::Help) => {
                eprint!("{}", self.help());
                0
            }
            Err(Exit::Usage(message)) => {
                eprintln!("error: {message} (try --help)");
                2
            }
            Err(Exit::Failed(message)) => {
                eprintln!("error: {message}");
                1
            }
        }
    }

    /// Parses `argv` against the command's flags and operands. A repeated
    /// flag keeps its last value.
    pub fn parse(&self, argv: &[String]) -> Result<Args, Exit> {
        let mut values = BTreeMap::new();
        let mut operands = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if word == "--help" || word == "-h" {
                return Err(Exit::Help);
            }
            if !word.starts_with('-') {
                operands.push(word.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == word)
                .ok_or_else(|| Exit::Usage(format!("unknown argument `{word}`")))?;
            let value = match flag.value {
                None => String::new(),
                Some(_) => words
                    .next()
                    .cloned()
                    .ok_or_else(|| Exit::Usage(format!("{word} needs a value")))?,
            };
            values.insert(flag.name, value);
        }
        if operands.len() != self.operands.len() {
            return Err(Exit::Usage(match self.operands {
                [] => format!("unknown argument `{}`", operands[0]),
                expected => format!("{} takes {}", self.name, expected.join(" ")),
            }));
        }
        Ok(Args {
            flags: self.flags,
            values,
            operands,
            failed: false,
        })
    }

    /// The `--help` text, generated from the flag list.
    pub fn help(&self) -> String {
        let mut text = format!("usage: {}", self.name);
        if !self.flags.is_empty() {
            text.push_str(" [options]");
        }
        for operand in self.operands {
            text.push(' ');
            text.push_str(operand);
        }
        text.push('\n');
        text.push_str(self.summary);
        text.push('\n');
        for flag in self.flags {
            let spelled = match flag.value {
                Some(placeholder) => format!("{} {placeholder}", flag.name),
                None => flag.name.to_string(),
            };
            text.push_str(&format!("  {spelled:<22} {}\n", flag.help));
        }
        text
    }
}

/// A parsed command line plus the run's failure state.
#[derive(Debug)]
pub struct Args {
    flags: &'static [Flag],
    values: BTreeMap<&'static str, String>,
    operands: Vec<String>,
    failed: bool,
}

impl Args {
    /// The value of flag `name`, if given (`""` for a switch).
    ///
    /// # Panics
    ///
    /// If the command did not declare `name`: that is a bug in the command.
    pub fn value(&self, name: &str) -> Option<&str> {
        assert!(
            self.flags.iter().any(|f| f.name == name),
            "flag {name} is not declared by this command"
        );
        self.values.get(name).map(String::as_str)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of flag `name`, which the command cannot run without: a
    /// missing flag is a usage error.
    pub fn required(&self, name: &str) -> Result<&str, Exit> {
        self.value(name)
            .ok_or_else(|| Exit::Usage(format!("{name} is required")))
    }

    /// The value of flag `name` parsed as `T`, if given; a malformed value
    /// is a usage error.
    pub fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, Exit>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| Exit::Usage(format!("{name}: {e}"))))
            .transpose()
    }

    /// The positional operands, as many as the command declares.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Whether `--quick` was given.
    pub fn quick(&self) -> bool {
        self.switch(QUICK.name)
    }

    /// The effort label output files carry: `quick` or `full`.
    pub fn label(&self) -> &'static str {
        if self.quick() {
            "quick"
        } else {
            "full"
        }
    }

    /// `--workers`, defaulting to the machine's available parallelism.
    pub fn workers(&self) -> Result<usize, Exit> {
        Ok(self
            .parse(WORKERS.name)?
            .unwrap_or_else(crate::harness::default_workers))
    }

    /// Writes `contents` to the file `name` inside `--out`, creating the
    /// directory if needed.
    pub fn write(&self, name: &str, contents: impl AsRef<[u8]>) -> Result<(), Exit> {
        let dir = PathBuf::from(self.value(OUT.name).unwrap_or("."));
        let path = dir.join(name);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, contents))
            .map_err(|e| Exit::Failed(format!("writing {}: {e}", path.display())))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }

    /// Reports every failed job as `(label, reason)` and records a failure.
    pub fn job_failures<'a>(&mut self, failures: impl IntoIterator<Item = (&'a str, &'a str)>) {
        for (job, reason) in failures {
            self.fail(format_args!("failed job {job:?}: {reason}"));
        }
    }

    /// Prints `message` to stderr and records a failure: the command goes
    /// on, then exits 1.
    pub fn fail(&mut self, message: impl Display) {
        eprintln!("{message}");
        self.failed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUBMIT_LIKE: Command = Command {
        name: "submit",
        summary: "a command with a required flag",
        operands: &[],
        flags: &[WORKERS, Flag::value("--experiment", "NAME", "grid to run")],
        run: |args| {
            args.workers()?;
            args.required("--experiment")?;
            Ok(())
        },
    };

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn non_numeric_workers_is_a_usage_error() {
        let args = SUBMIT_LIKE.parse(&argv(&["--workers", "many"])).unwrap();
        assert!(matches!(args.workers(), Err(Exit::Usage(m)) if m.starts_with("--workers: ")));
        let line = argv(&["--experiment", "smoke", "--workers", "many"]);
        assert_eq!(SUBMIT_LIKE.main(&line), 2);
        let line = argv(&["--experiment", "smoke", "--workers", "3"]);
        assert_eq!(SUBMIT_LIKE.main(&line), 0);
    }

    #[test]
    fn missing_required_experiment_is_a_usage_error() {
        let args = SUBMIT_LIKE.parse(&argv(&["--workers", "3"])).unwrap();
        assert_eq!(
            args.required("--experiment"),
            Err(Exit::Usage("--experiment is required".into()))
        );
        assert_eq!(SUBMIT_LIKE.main(&argv(&["--workers", "3"])), 2);
    }

    #[test]
    fn operands_are_counted_and_stray_ones_rejected() {
        let pair = Command {
            name: "pair",
            summary: "a command with two operands",
            operands: &["LEFT", "RIGHT"],
            flags: &[],
            run: |_| Ok(()),
        };
        assert_eq!(
            pair.parse(&argv(&["a", "b"])).unwrap().operands(),
            ["a", "b"]
        );
        assert!(matches!(pair.parse(&argv(&["a"])), Err(Exit::Usage(_))));
        assert_eq!(SUBMIT_LIKE.main(&argv(&["stray"])), 2);
    }
}
