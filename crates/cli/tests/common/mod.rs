//! Helpers shared by the CLI integration tests: temp dirs, dataset
//! generation through the real binary, and a leak-proof guard around a
//! spawned `parma serve` daemon.
//!
//! Ephemeral-port discipline: every daemon binds `--addr 127.0.0.1:0` and
//! publishes the bound address through `--addr-file` (written atomically,
//! only after the listener is live). [`wait_for_addr`] polls that file.
//! Nothing here ever picks a port number — that pattern is what made the
//! old metrics tests flaky.

#![allow(dead_code)] // each test binary uses a different subset

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `Command` for the binary under test.
pub fn parma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_parma"))
}

/// A fresh per-process temp directory (removed and recreated).
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parma-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Synthesizes a wet-lab session file via `parma generate`.
pub fn generate(dir: &Path, name: &str, n: usize, seed: u64) {
    let status = parma()
        .args([
            "generate",
            "--n",
            &n.to_string(),
            "--seed",
            &seed.to_string(),
            "--out",
            dir.join(name).to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .status()
        .expect("spawn parma generate");
    assert!(status.success(), "generate {name} failed");
}

/// Polls an `--addr-file` until the child publishes its bound address.
/// The file is written atomically (tmp + rename), so any readable content
/// is a complete address — a parse failure means "not yet", never "torn".
pub fn wait_for_addr(file: &Path, deadline: Duration) -> SocketAddr {
    let t0 = Instant::now();
    loop {
        if let Ok(text) = std::fs::read_to_string(file) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        assert!(
            t0.elapsed() < deadline,
            "address file never appeared at {file:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A running `parma serve` child. Kills and reaps the process on drop so
/// a panicking test can never leak a daemon (the CI smoke job fails on
/// leaked children).
pub struct ServeDaemon {
    child: Option<Child>,
    /// The bound address, discovered through the addr file.
    pub addr: SocketAddr,
    /// The daemon's working directory (addr file, journal, …).
    pub dir: PathBuf,
}

impl ServeDaemon {
    /// Spawns `parma serve --addr 127.0.0.1:0 --addr-file … <extra_args>`
    /// in a fresh dir and waits until the address is published.
    pub fn spawn(tag: &str, extra_args: &[&str]) -> ServeDaemon {
        Self::spawn_with(tag, extra_args, |_| Vec::new())
    }

    /// Like [`Self::spawn`], but `dir_args` can mint extra flags that
    /// point into the daemon's fresh directory (e.g. `--journal`).
    pub fn spawn_with(
        tag: &str,
        extra_args: &[&str],
        dir_args: impl FnOnce(&Path) -> Vec<String>,
    ) -> ServeDaemon {
        let dir = fresh_dir(tag);
        let extra_dir_args = dir_args(&dir);
        let addr_file = dir.join("addr.txt");
        let mut cmd = parma();
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            // Belt-and-braces: if a test panics between kill-on-drop and a
            // wedged child, the daemon still exits on its own.
            "--for",
            "120",
        ])
        .args(extra_args)
        .args(&extra_dir_args)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
        let child = cmd.spawn().expect("spawn parma serve");
        let addr = wait_for_addr(&addr_file, Duration::from_secs(60));
        ServeDaemon {
            child: Some(child),
            addr,
            dir,
        }
    }

    /// Hands the raw child handle to the caller (e.g. to `wait` on a
    /// drain the test triggered itself). The drop guard then only cleans
    /// the directory.
    pub fn take_child(&mut self) -> Child {
        self.child.take().expect("child already taken")
    }

    /// Asks the daemon to drain via `POST /shutdown`, waits for a clean
    /// exit, and asserts status 0. Returns the daemon's directory (addr
    /// file, journal, …) for post-mortem assertions — ownership of the
    /// cleanup passes to the caller.
    pub fn shutdown_gracefully(mut self) -> PathBuf {
        let reply = post(self.addr, "/shutdown", b"");
        assert_eq!(reply.status, 200, "shutdown: {}", reply.body);
        let mut child = self.child.take().expect("child already reaped");
        let t0 = Instant::now();
        loop {
            match child.try_wait().expect("wait on serve") {
                Some(status) => {
                    assert!(status.success(), "serve exited {status:?}");
                    break;
                }
                None => {
                    assert!(
                        t0.elapsed() < Duration::from_secs(60),
                        "serve never exited after /shutdown"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        let dir = std::mem::take(&mut self.dir);
        std::mem::forget(self); // the drop would delete `dir`
        dir
    }
}

impl Drop for ServeDaemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Blocking GET; panics on transport errors.
pub fn get(addr: SocketAddr, path: &str) -> mea_obs::serve::HttpReply {
    mea_obs::serve::http_request(addr, "GET", path, b"")
        .unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// Blocking POST; panics on transport errors.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> mea_obs::serve::HttpReply {
    mea_obs::serve::http_request(addr, "POST", path, body)
        .unwrap_or_else(|e| panic!("POST {path}: {e}"))
}

/// Submits a dataset body to `/jobs` and returns the admitted job id.
pub fn submit_job(addr: SocketAddr, path_query: &str, body: &[u8]) -> u64 {
    let reply = post(addr, path_query, body);
    assert_eq!(reply.status, 202, "submit: {}", reply.body);
    extract_u64(&reply.body, "\"job\":").expect("job id in 202 body")
}

/// Polls `GET /jobs/<id>` until the job leaves `queued`/`running`, then
/// returns the terminal status string (`done` or `failed`).
pub fn wait_for_job(addr: SocketAddr, id: u64, deadline: Duration) -> String {
    let t0 = Instant::now();
    loop {
        let reply = get(addr, &format!("/jobs/{id}"));
        assert_eq!(reply.status, 200, "status: {}", reply.body);
        let status = extract_str(&reply.body, "\"status\":\"").expect("status field");
        if status == "done" || status == "failed" {
            return status.to_string();
        }
        assert!(
            t0.elapsed() < deadline,
            "job {id} stuck in {status:?}: {}",
            reply.body
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// First integer following `key` in a JSON body (shim-free extraction).
pub fn extract_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// String value following `key` (which must end with `":"`).
pub fn extract_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(key)? + key.len()..];
    rest.split('"').next()
}

/// Sums an integer field over every occurrence in a JSON body (e.g. the
/// per-time-point `"iterations":` in a result document).
pub fn sum_u64(body: &str, key: &str) -> u64 {
    let mut total = 0;
    let mut rest = body;
    while let Some(pos) = rest.find(key) {
        rest = &rest[pos + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().unwrap_or(0);
    }
    total
}

/// Scrapes `/metrics` and returns the value of a counter line
/// (`name value`), or 0 when absent.
pub fn scrape_counter(addr: SocketAddr, name: &str) -> u64 {
    let reply = get(addr, "/metrics");
    assert_eq!(reply.status, 200);
    reply
        .body
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0)
}

/// Journal entry lines with worker provenance stripped, sorted. Sorting
/// (rather than keeping file order) is deliberate: completion *order*
/// varies with the shard layout; completion *content* may not.
pub fn canonical_lines(journal: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(journal).expect("read journal");
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"schema\":\"parma-journal/v1\""))
        .map(|line| {
            let Some(i) = line.find(",\"worker\":") else {
                return line.to_string();
            };
            let tail = &line[i + ",\"worker\":".len()..];
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            assert!(digits > 0, "malformed worker field in {line:?}");
            format!("{}{}", &line[..i], &tail[digits..])
        })
        .collect();
    lines.sort();
    lines
}
