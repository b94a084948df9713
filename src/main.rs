//! The workspace's one binary: the report, every experiment and the job
//! service, dispatched through [`platoon_security::COMMANDS`].
//!
//! ```text
//! cargo run --release -- --help            # every command, one line each
//! cargo run --release -- report --quick    # every table and figure (fast pass)
//! cargo run --release -- perf --help       # one command's options
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(platoon_security::dispatch(&args));
}
