//! End-to-end determinism and persistence of the job service, through the
//! real binary: `submit --in-process` fills a fresh cache directory, a
//! `serve` process started over the same directory answers a remote
//! `submit` entirely from the persisted cache, and a remote
//! `submit --shutdown` stops it. Every batch document must equal
//! `tests/golden/service_quick.json` byte for byte.

use platoon_sim::harness::golden;
use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_platoon-security");

/// How long `serve` may take to exit once asked to shut down.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(30);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "platoon-service-determinism-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running `serve` process, killed on drop so a failed assertion leaves
/// nothing running.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Submits the quick smoke grid (`route` picks in-process or remote) and
/// returns its stats document, after checking that the run succeeded and
/// that the batch document equals the golden byte for byte.
fn submit(out: &Path, route: &[&OsStr]) -> String {
    let output = Command::new(BIN)
        .args(["submit", "--experiment", "smoke", "--quick", "--out"])
        .arg(out)
        .args(route)
        .output()
        .expect("run platoon-security submit");
    assert!(
        output.status.success(),
        "submit failed (status {:?}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let document =
        std::fs::read_to_string(out.join("SERVICE_smoke_quick.json")).expect("batch document");
    golden::assert_matches(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/service_quick.json"),
        &document,
    );
    std::fs::read_to_string(out.join("SERVICE_STATS_smoke_quick.json")).expect("stats document")
}

#[test]
fn resubmitting_the_smoke_grid_is_all_hits_and_byte_identical() {
    let root = scratch("smoke");
    let cache = root.join("cache");

    // A fresh cache executes every job.
    let stats = submit(
        &root.join("fresh"),
        &[
            "--in-process".as_ref(),
            "--cache-dir".as_ref(),
            cache.as_ref(),
        ],
    );
    assert!(stats.contains("\"hits\": 0"), "{stats}");

    // A server process over the same cache directory...
    let mut server = Server(
        Command::new(BIN)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(&cache)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("start platoon-security serve"),
    );
    let mut line = String::new();
    BufReader::new(server.0.stdout.take().expect("serve stdout"))
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .strip_prefix("listening on ")
        .map(str::trim)
        .unwrap_or_else(|| panic!("serve printed {line:?} instead of its address"))
        .to_string();

    // ...serves the whole grid from the persisted store, byte-identically,
    // and stops when the last batch asks it to.
    for (out, extra) in [("remote", None), ("shutdown", Some("--shutdown"))] {
        let mut route: Vec<&OsStr> = vec!["--addr".as_ref(), addr.as_ref()];
        route.extend(extra.map(OsStr::new));
        let stats = submit(&root.join(out), &route);
        assert!(stats.contains("\"all_hits\": true"), "{out}: {stats}");
    }
    let deadline = Instant::now() + SHUTDOWN_WAIT;
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll serve") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve still running {SHUTDOWN_WAIT:?} after --shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "serve exited with {status}");

    std::fs::remove_dir_all(&root).ok();
}
