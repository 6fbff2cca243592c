//! Product processes: spawning, peak memory read from outside, and a
//! guard that never leaves one running.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running product process; dropping it kills and reaps it.
pub struct Product {
    child: Child,
    started: Instant,
}

impl Product {
    /// Spawns `cmd` with stdout piped and stderr to `stderr_file`.
    pub fn spawn(mut cmd: Command, stderr_file: &std::path::Path) -> Result<Product, String> {
        let err = std::fs::File::create(stderr_file)
            .map_err(|e| format!("cannot create {stderr_file:?}: {e}"))?;
        let started = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
        Ok(Product { child, started })
    }

    /// When the process was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (KiB) of the process and its live children.
    pub fn tree_hwm_kb(&self) -> u64 {
        let pid = self.pid();
        vm_hwm_kb(pid) + children(pid).into_iter().map(vm_hwm_kb).sum::<u64>()
    }

    /// Waits for exit, sampling peak memory every few ms; kills the
    /// process past `timeout`. Returns (exit code, wall seconds since
    /// spawn, peak KiB, stdout).
    ///
    /// The exit time is when the process's stdout closes, which the kernel
    /// does as the process exits (its workers get no stdout). A reader
    /// thread blocks on it, so the wall time carries no polling delay.
    pub fn finish(mut self, timeout: Duration) -> Result<Finished, String> {
        use std::io::Read;
        use std::sync::mpsc::{self, RecvTimeoutError};
        let mut out = self.child.stdout.take().ok_or("product stdout not piped")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = String::new();
            let read = out.read_to_string(&mut stdout).map(|_| stdout);
            let _ = tx.send(Instant::now());
            read
        });
        let mut peak = 0u64;
        let closed = loop {
            peak = peak.max(self.tree_hwm_kb());
            match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(at) => break Ok(at),
                Err(RecvTimeoutError::Timeout) if self.started.elapsed() <= timeout => {}
                Err(_) => break Err(format!("product still running after {timeout:?}; killed")),
            }
        };
        if closed.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait();
        let stdout = reader.join().map_err(|_| "stdout reader panicked")?;
        let wall_s = closed?.duration_since(self.started).as_secs_f64();
        let status = status.map_err(|e| format!("cannot wait for product: {e}"))?;
        Ok(Finished {
            code: status.code(),
            wall_s,
            peak_rss_kb: peak,
            stdout: stdout.map_err(|e| format!("cannot read product stdout: {e}"))?,
        })
    }
}

impl Drop for Product {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A product process that has exited.
#[derive(Debug)]
pub struct Finished {
    pub code: Option<i32>,
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub stdout: String,
}

/// `VmHWM` of one process in KiB (0 once it is gone).
pub fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Live child processes of `pid` that have exec'd (sharded batches spawn
/// their workers). A child caught between fork and exec still maps its
/// parent's pages, so counting it would add the parent twice.
fn children(pid: u32) -> Vec<u32> {
    let cmdline = |p: u32| std::fs::read(format!("/proc/{p}/cmdline")).ok();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let parent = cmdline(pid);
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|s| {
            s.split_whitespace()
                .filter_map(|p| p.parse().ok())
                .collect::<Vec<u32>>()
        })
        .filter(|&c| cmdline(c).is_some_and(|line| Some(&line) != parent.as_ref()))
        .collect()
}
