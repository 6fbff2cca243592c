//! `serve-mix`: seeded device sessions, posted as text bodies to
//! `parma serve --threads 2 --journal`, first open loop at a light and a
//! heavy rate, then closed loop over two connections.
//!
//! The client is one process with two threads. In the open-loop phases
//! the sender posts each job at its scheduled time (lateness is recorded,
//! and latency counts from the due time), and the collector tails the
//! serve journal — every line is fsync'd before its job turns done —
//! fetching each result document once (a racing `409` is retried). In
//! the closed-loop phase each thread posts a job, tails the journal for
//! it, fetches its result and posts the next. Nobody polls job status,
//! so the one-thread-per-connection listener sees two requests per job.

use crate::inputs::{self, Reference};
use crate::parse::{self, Accounting, TimePoint};
use crate::proc::{self, Product};
use crate::report::Metrics;
use crate::stats::{self, Rng, Summary};
use crate::{Ctx, Outcome};
use mea_model::WetLabDataset;
use mea_obs::serve::http_request;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered open-loop rates, jobs/s, fixed so every commit is offered the
/// same load. On the shared 2-core reference box at the seed commit the
/// closed-loop phase completes 143–166 jobs/s on this mix while the host
/// is busy and about 355 jobs/s while it is quiet, but open-loop arrivals
/// already overflow the queue at 105 jobs/s, and at 70 jobs/s the heavy
/// p99 swung 74–180 ms across seeds. The light rate is about
/// 15% of that open-loop capacity; the heavy rate stays below the knee,
/// where latency would swing with the host's own load.
pub const LIGHT_RATE: f64 = 15.0;
pub const HEAVY_RATE: f64 = 45.0;
/// Results later than this after they were due (open loop) or sent
/// (closed loop) do not count as goodput.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Jobs in the closed-loop phase, whose completion rate is the workload's
/// goodput: it moves with every per-request cost, where the open-loop
/// phases complete whatever they are offered until the queue overflows.
/// 3.4–8 s of work on the reference box.
const CLOSED_JOBS: usize = 1200;
/// The heavy phase holds at least this many jobs, so its p99 has ten
/// samples beyond it, and the light phase enough for a steady median.
const HEAVY_MIN_JOBS: usize = 1100;
const LIGHT_MIN_JOBS: usize = 100;
/// Share of `--seconds` spent in the light phase.
const LIGHT_SHARE: f64 = 0.25;
/// Idle time between the phases, so light stragglers never overlap the
/// heavy phase.
const PHASE_GAP_S: f64 = 0.3;
/// Distinct sessions per size that jobs draw from. The service caches
/// plans by geometry only, so repeating a body changes nothing it does;
/// the pool keeps input generation and reference solves short.
const POOL_SMALL: usize = 192;
const POOL_LARGE: usize = 64;
/// Devices that post `?session=` jobs: dev-0..3 are 8×8, dev-4..5 16×16.
const SMALL_DEVICES: usize = 4;
const LARGE_DEVICES: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// How often the harness looks for the address file and journal lines.
const POLL: Duration = Duration::from_micros(200);
/// How often the traced pass samples `/metrics` for queue depth.
const SCRAPE_EVERY: Duration = Duration::from_millis(50);

/// One generated session and its text body.
struct Input {
    n: usize,
    body: Vec<u8>,
    dataset: WetLabDataset,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Light,
    Heavy,
    Closed,
}

struct Job {
    /// Seconds after the load origin (open-loop phases only).
    due: f64,
    phase: Phase,
    /// Index into the input pool.
    input: usize,
    session: Option<String>,
}

fn text_body(ds: &WetLabDataset) -> Vec<u8> {
    let mut body = Vec::new();
    ds.write_text(&mut body)
        .expect("writing a generated dataset to memory cannot fail");
    body
}

/// The pool: [`POOL_SMALL`] 8×8 sessions, then [`POOL_LARGE`] 16×16.
fn input_pool(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, 3001);
    let sizes = std::iter::repeat_n(8, POOL_SMALL).chain(std::iter::repeat_n(16, POOL_LARGE));
    sizes
        .map(|n| {
            let dataset = inputs::session(n, rng.next_u64());
            Input {
                n,
                body: text_body(&dataset),
                dataset,
            }
        })
        .collect()
}

/// Draws jobs in the mix's fixed proportions: every block of four holds
/// three 8×8 jobs and one 16×16 job in seeded order, and every other job
/// of each size is a `?session=` job, its device taken round robin among
/// the devices of that size. Fixed proportions keep seeds from changing
/// the offered work, only which inputs carry it.
struct Mix {
    rng: Rng,
    block: Vec<bool>,
    per_size: [usize; 2],
}

impl Mix {
    fn new(seed: u64, stream: u64) -> Mix {
        Mix {
            rng: Rng::new(seed, stream),
            block: Vec::new(),
            per_size: [0; 2],
        }
    }

    fn job(&mut self, due: f64, phase: Phase) -> Job {
        if self.block.is_empty() {
            self.block = vec![true, true, true, false];
            self.rng.shuffle(&mut self.block);
        }
        let small = self.block.pop().expect("refilled above");
        let slot = usize::from(!small);
        let k = self.per_size[slot];
        self.per_size[slot] += 1;
        let (offset, pool, first, devices) = if small {
            (0, POOL_SMALL, 0, SMALL_DEVICES)
        } else {
            (POOL_SMALL, POOL_LARGE, SMALL_DEVICES, LARGE_DEVICES)
        };
        let input = offset + (self.rng.next_u64() % pool as u64) as usize;
        let session = (k % 2 == 1).then(|| format!("dev-{}", first + (k / 2) % devices));
        Job {
            due,
            phase,
            input,
            session,
        }
    }

    /// Seconds to the next arrival at `rate`: the mean gap jittered
    /// uniformly by ±50%. Open loop — sends never wait for results — but
    /// without Poisson bursts, whose seed-to-seed swing would swamp the
    /// tail latency a change moves.
    fn gap(&mut self, rate: f64) -> f64 {
        (0.5 + self.rng.unit()) / rate
    }
}

fn schedule(ctx: &Ctx) -> Vec<Job> {
    let mut mix = Mix::new(ctx.seed, 3000);
    let mut jobs = Vec::new();
    let light_jobs = LIGHT_MIN_JOBS.max((LIGHT_RATE * ctx.seconds * LIGHT_SHARE) as usize);
    let mut t = 0.0;
    for _ in 0..light_jobs {
        t += mix.gap(LIGHT_RATE);
        jobs.push(mix.job(t, Phase::Light));
    }
    let heavy_jobs = HEAVY_MIN_JOBS.max((HEAVY_RATE * ctx.seconds * (1.0 - LIGHT_SHARE)) as usize);
    t += PHASE_GAP_S;
    for _ in 0..heavy_jobs {
        t += mix.gap(HEAVY_RATE);
        jobs.push(mix.job(t, Phase::Heavy));
    }
    for _ in 0..CLOSED_JOBS {
        jobs.push(mix.job(0.0, Phase::Closed));
    }
    jobs
}

/// A running `parma serve` with its journal.
struct Server {
    product: Product,
    addr: SocketAddr,
    journal: PathBuf,
    setup_s: f64,
    /// Warm-up jobs' result time points.
    warmups: Vec<Vec<TimePoint>>,
}

fn post(addr: SocketAddr, job_path: &str, body: &[u8]) -> Result<(u16, Option<u64>), String> {
    let reply = http_request(addr, "POST", job_path, body)?;
    let id = (reply.status == 202)
        .then(|| {
            mea_obs::json::parse(&reply.body)
                .ok()?
                .get("job")?
                .as_f64()
                .map(|x| x as u64)
        })
        .flatten();
    if reply.status == 202 && id.is_none() {
        return Err(format!("202 without a job id: {:?}", reply.body));
    }
    Ok((reply.status, id))
}

/// A fetched result document.
struct Fetched {
    /// When it arrived.
    at: Instant,
    /// Round trip of the request that got it.
    rtt_ms: f64,
    /// Requests made, counting `409` retries.
    gets: usize,
    /// `done` or `failed`.
    status: String,
    /// Time points of a `done` job.
    time_points: Option<Vec<TimePoint>>,
}

/// Fetches a decided job's result document, retrying the `409` a fetch
/// racing the done transition gets.
fn fetch_result(addr: SocketAddr, id: u64) -> Result<Fetched, String> {
    let path = format!("/jobs/{id}/result");
    for k in 1..=2000 {
        let t = Instant::now();
        let reply = http_request(addr, "GET", &path, b"")?;
        let rtt = t.elapsed().as_secs_f64() * 1e3;
        match reply.status {
            200 => {
                let v = mea_obs::json::parse(&reply.body).map_err(|e| format!("{path}: {e}"))?;
                let status = v
                    .get("status")
                    .and_then(|s| s.as_str())
                    .unwrap_or("")
                    .to_string();
                let time_points = if status == "done" {
                    Some(parse::time_points(&v).map_err(|e| format!("{path}: {e}"))?)
                } else {
                    None
                };
                return Ok(Fetched {
                    at: Instant::now(),
                    rtt_ms: rtt,
                    gets: k,
                    status,
                    time_points,
                });
            }
            409 => std::thread::sleep(Duration::from_micros(200)),
            s => return Err(format!("{path}: HTTP {s}: {}", reply.body)),
        }
    }
    Err(format!("{path}: still not done after 2000 fetches"))
}

/// Waits until `journal` holds an entry for each id in `ids`.
fn wait_journaled(journal: &Path, ids: &[u64]) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(journal).unwrap_or_default();
        if ids
            .iter()
            .all(|id| text.contains(&format!("\"path\":\"job-{id}\"")))
        {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("warm-up jobs {ids:?} never journaled"));
        }
        std::thread::sleep(POLL);
    }
}

fn start_server(ctx: &Ctx, tag: &str, pool: &[Input], warm: &[Job]) -> Result<Server, String> {
    let addr_file = ctx.work.join(format!("{tag}.addr"));
    let journal = ctx.work.join(format!("{tag}.journal"));
    let mut cmd = Command::new(&ctx.parma);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    cmd.arg("--addr-file").arg(&addr_file);
    cmd.arg("--journal").arg(&journal);
    let product = Product::spawn(cmd, &ctx.work.join(format!("{tag}.stderr")))?;
    let deadline = product.started() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(a) = std::fs::read_to_string(&addr_file) {
            if let Ok(a) = a.trim().parse::<SocketAddr>() {
                break a;
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{tag}: parma serve never published its address"));
        }
        std::thread::sleep(POLL);
    };
    // One warm-up job per geometry: the plan cache and lazy state fill
    // here, as a deployment's first requests would fill them.
    let mut ids = Vec::new();
    for job in warm {
        match post(addr, "/jobs", &pool[job.input].body)? {
            (202, Some(id)) => ids.push(id),
            (s, _) => return Err(format!("{tag}: warm-up job answered HTTP {s}")),
        }
    }
    wait_journaled(&journal, &ids)?;
    let mut warmups = Vec::new();
    for &id in &ids {
        match fetch_result(addr, id)? {
            Fetched {
                time_points: Some(tps),
                ..
            } => warmups.push(tps),
            f => return Err(format!("{tag}: warm-up job {id} ended {}", f.status)),
        }
    }
    let setup_s = product.started().elapsed().as_secs_f64();
    Ok(Server {
        product,
        addr,
        journal,
        setup_s,
        warmups,
    })
}

fn stop_server(server: Server) -> Result<(), String> {
    // The listener may close before the drain answer is flushed; a clean
    // exit below is what proves the drain.
    if let Ok(reply) = http_request(server.addr, "POST", "/shutdown", b"") {
        if reply.status != 200 {
            return Err(format!("POST /shutdown answered {}", reply.status));
        }
    }
    let done = server.product.finish(Duration::from_secs(60))?;
    if done.code != Some(0) {
        return Err(format!(
            "parma serve exited {:?}: {}",
            done.code, done.stdout
        ));
    }
    Ok(())
}

/// What happened to one scheduled job.
#[derive(Clone, Debug, Default)]
struct Record {
    late_ms: f64,
    post_ms: f64,
    post_status: u16,
    id: Option<u64>,
    /// Milliseconds from due time to receipt of the result document.
    latency_ms: Option<f64>,
    get_ms: f64,
    gets: usize,
    status: String,
    time_points: Option<Vec<TimePoint>>,
}

/// One load pass against a fresh server.
struct Pass {
    records: Vec<Record>,
    setups: Vec<f64>,
    peak_rss_kb: u64,
    warmups: Vec<Vec<TimePoint>>,
    heavy_wall_s: f64,
    /// From the start of the closed-loop phase to its last result.
    closed_wall_s: f64,
    /// `/metrics` scrapes (traced passes only).
    scrapes: Option<Scrapes>,
    queue_depth_max: f64,
    queue_samples: usize,
    /// The measured server's journal entry lines.
    journal_lines: Vec<String>,
}

type Metricsmap = BTreeMap<String, f64>;

/// `/metrics` just before the heavy phase, once its last result arrived,
/// and at the end of the pass.
struct Scrapes {
    heavy_start: Metricsmap,
    heavy_end: Metricsmap,
    end: Metricsmap,
}

fn scrape(addr: SocketAddr) -> Result<Metricsmap, String> {
    let reply = http_request(addr, "GET", "/metrics", b"")?;
    if reply.status != 200 {
        return Err(format!("GET /metrics answered {}", reply.status));
    }
    Ok(parse::prometheus(&reply.body))
}

fn job_path(job: &Job) -> String {
    match &job.session {
        Some(s) => format!("/jobs?session={s}"),
        None => "/jobs".to_string(),
    }
}

fn run_pass(
    ctx: &Ctx,
    pass: &str,
    pool: &[Input],
    jobs: &[Job],
    warm: &[Job],
    traced: bool,
) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let s = start_server(ctx, &format!("{pass}-serve-{k}"), pool, warm)?;
        setups.push(s.setup_s);
        if k + 1 < SETUPS {
            stop_server(s)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;
    let journal_start = std::fs::metadata(&server.journal).map_or(0, |m| m.len());
    let records: Mutex<Vec<Record>> = Mutex::new(vec![Record::default(); jobs.len()]);
    let received: Mutex<BTreeMap<u64, Fetched>> = Mutex::new(BTreeMap::new());
    let sender_done = AtomicBool::new(false);
    let depth: Mutex<(f64, usize)> = Mutex::new((0.0, 0));
    let origin = Instant::now() + Duration::from_millis(20);
    let heavy_start = jobs
        .iter()
        .find(|j| j.phase == Phase::Heavy)
        .map_or(0.0, |j| j.due);
    let at = |s: f64| origin + Duration::from_secs_f64(s);

    let outcome: Result<(Option<Metricsmap>, Instant), String> = std::thread::scope(|s| {
        let collector = s.spawn(|| -> Result<Instant, String> {
            collect(
                &server.journal,
                journal_start,
                addr,
                &received,
                &records,
                &sender_done,
                traced,
                &depth,
                at(heavy_start),
            )
        });
        let sent = send(pool, jobs, addr, &records, at, traced);
        sender_done.store(true, Ordering::SeqCst);
        let last = collector
            .join()
            .map_err(|_| "collector thread panicked".to_string())?;
        Ok((sent?, last?))
    });
    let (mid, last_receipt) = outcome?;
    let heavy_end = if traced { Some(scrape(addr)?) } else { None };
    let closed_start = Instant::now();
    let closed_end = closed_loop(&server.journal, addr, pool, jobs, &records)?;
    let scrapes = match (mid, heavy_end) {
        (Some(heavy_start), Some(heavy_end)) => Some(Scrapes {
            heavy_start,
            heavy_end,
            end: scrape(addr)?,
        }),
        _ => None,
    };
    let peak_rss_kb = proc::vm_hwm_kb(server.product.pid());
    let warmups = server.warmups.clone();
    let journal = server.journal.clone();
    stop_server(server)?;
    let journal_lines = std::fs::read_to_string(&journal)
        .map_err(|e| format!("cannot read serve journal: {e}"))?
        .lines()
        .filter(|l| l.starts_with("{\"schema\":\"parma-journal/v1\""))
        .map(String::from)
        .collect();

    let mut records = records.into_inner().expect("records lock");
    let received = received.into_inner().expect("received lock");
    for (r, job) in records.iter_mut().zip(jobs) {
        let Some(f) = r.id.and_then(|id| received.get(&id)) else {
            continue;
        };
        if job.phase != Phase::Closed {
            r.latency_ms = Some(f.at.duration_since(at(job.due)).as_secs_f64() * 1e3);
            r.get_ms = f.rtt_ms;
            r.gets = f.gets;
            r.status = f.status.clone();
            r.time_points = f.time_points.clone();
        }
    }
    let (queue_depth_max, queue_samples) = depth.into_inner().expect("depth lock");
    Ok(Pass {
        records,
        setups,
        peak_rss_kb,
        warmups,
        heavy_wall_s: last_receipt.duration_since(at(heavy_start)).as_secs_f64(),
        closed_wall_s: closed_end.duration_since(closed_start).as_secs_f64(),
        scrapes,
        queue_depth_max,
        queue_samples,
        journal_lines,
    })
}

/// The open-loop sender: posts each light and heavy job at its due time.
/// Returns the `/metrics` scrape taken between the phases (traced passes
/// only).
fn send(
    pool: &[Input],
    jobs: &[Job],
    addr: SocketAddr,
    records: &Mutex<Vec<Record>>,
    at: impl Fn(f64) -> Instant,
    traced: bool,
) -> Result<Option<Metricsmap>, String> {
    let mut mid = None;
    for (k, job) in jobs.iter().enumerate() {
        if job.phase == Phase::Closed {
            continue;
        }
        if traced && job.phase == Phase::Heavy && mid.is_none() {
            mid = Some(scrape(addr)?);
        }
        let due = at(job.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let path = job_path(job);
        let (status, id) = post(addr, &path, &pool[job.input].body)?;
        let post_ms = sent.elapsed().as_secs_f64() * 1e3;
        if !matches!(status, 202 | 429 | 503) {
            return Err(format!("POST {path} answered HTTP {status}"));
        }
        let mut rec = records.lock().expect("records lock");
        rec[k].late_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
        rec[k].post_ms = post_ms;
        rec[k].post_status = status;
        rec[k].id = id;
    }
    Ok(mid)
}

/// The closed-loop phase: two connections, each posting its next job as
/// soon as the result of its previous one arrived, which it learns by
/// tailing the journal. Latency counts from the send. Returns when the
/// last result arrived.
///
/// A `?session=` job is posted only once its device's previous job is
/// done, so warm starts, and with them the iteration counts, repeat
/// exactly. A device's jobs are at least eight apart in the mix, so the
/// wait rarely holds a connection.
fn closed_loop(
    journal: &Path,
    addr: SocketAddr,
    pool: &[Input],
    jobs: &[Job],
    records: &Mutex<Vec<Record>>,
) -> Result<Instant, String> {
    use std::io::{Read, Seek, SeekFrom};
    let start = std::fs::metadata(journal).map_or(0, |m| m.len());
    let closed: Vec<usize> = (0..jobs.len())
        .filter(|&k| jobs[k].phase == Phase::Closed)
        .collect();
    let mut last_on: BTreeMap<&str, usize> = BTreeMap::new();
    let prev: Vec<Option<usize>> = closed
        .iter()
        .enumerate()
        .map(|(i, &k)| last_on.insert(jobs[k].session.as_deref()?, i))
        .collect();
    let done: Vec<AtomicBool> = closed.iter().map(|_| AtomicBool::new(false)).collect();
    let next = AtomicUsize::new(0);
    let connection = || -> Result<Instant, String> {
        let mut tail =
            std::fs::File::open(journal).map_err(|e| format!("cannot open serve journal: {e}"))?;
        tail.seek(SeekFrom::Start(start))
            .map_err(|e| e.to_string())?;
        let mut seen = String::new();
        let mut last = Instant::now();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(&k) = closed.get(i) else { break };
            if let Some(p) = prev[i] {
                let deadline = Instant::now() + Duration::from_secs(30);
                while !done[p].load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "closed-loop job {i} waited 30 s for its device's previous job"
                        ));
                    }
                    std::thread::sleep(POLL);
                }
            }
            let job = &jobs[k];
            let sent = Instant::now();
            let path = job_path(job);
            let (status, id) = post(addr, &path, &pool[job.input].body)?;
            let mut rec = Record {
                post_ms: sent.elapsed().as_secs_f64() * 1e3,
                post_status: status,
                id,
                ..Default::default()
            };
            match id {
                Some(id) => {
                    let marker = format!("\"path\":\"job-{id}\"");
                    let deadline = Instant::now() + Duration::from_secs(30);
                    let found = loop {
                        if let Some(found) = seen.find(&marker) {
                            break found;
                        }
                        let read = tail
                            .read_to_string(&mut seen)
                            .map_err(|e| format!("cannot read serve journal: {e}"))?;
                        if read == 0 {
                            if Instant::now() > deadline {
                                return Err(format!("job {id} never reached the journal"));
                            }
                            std::thread::sleep(POLL);
                        }
                    };
                    seen.drain(..found + marker.len());
                    let f = fetch_result(addr, id)?;
                    rec.latency_ms = Some(f.at.duration_since(sent).as_secs_f64() * 1e3);
                    rec.get_ms = f.rtt_ms;
                    rec.gets = f.gets;
                    rec.status = f.status;
                    rec.time_points = f.time_points;
                    last = f.at;
                }
                None if matches!(status, 429 | 503) => {}
                None => return Err(format!("POST {path} answered HTTP {status}")),
            }
            records.lock().expect("records lock")[k] = rec;
            done[i].store(true, Ordering::SeqCst);
        }
        Ok(last)
    };
    std::thread::scope(|s| {
        let other = s.spawn(connection);
        let mine = connection();
        let theirs = other
            .join()
            .map_err(|_| "closed-loop thread panicked".to_string())?;
        Ok(mine?.max(theirs?))
    })
}

/// The collector: tails the serve journal and fetches each decided job's
/// result; in traced passes it also samples the queue-depth gauge.
/// Returns the time the last result arrived.
#[allow(clippy::too_many_arguments)]
fn collect(
    journal: &Path,
    start: u64,
    addr: SocketAddr,
    received: &Mutex<BTreeMap<u64, Fetched>>,
    records: &Mutex<Vec<Record>>,
    sender_done: &AtomicBool,
    traced: bool,
    depth: &Mutex<(f64, usize)>,
    heavy_start: Instant,
) -> Result<Instant, String> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file =
        std::fs::File::open(journal).map_err(|e| format!("cannot open serve journal: {e}"))?;
    file.seek(SeekFrom::Start(start))
        .map_err(|e| e.to_string())?;
    let mut pending = String::new();
    let mut last = Instant::now();
    let mut next_scrape = Instant::now();
    let mut deadline: Option<Instant> = None;
    loop {
        let mut chunk = String::new();
        file.read_to_string(&mut chunk)
            .map_err(|e| format!("cannot read serve journal: {e}"))?;
        pending.push_str(&chunk);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let v = mea_obs::json::parse(line.trim()).map_err(|e| format!("serve journal: {e}"))?;
            let entry = parse::entry(&v).map_err(|e| format!("serve journal: {e}"))?;
            let id: u64 = entry
                .path
                .strip_prefix("job-")
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("serve journal names {:?}", entry.path))?;
            let fetched = fetch_result(addr, id)?;
            last = fetched.at;
            received.lock().expect("received lock").insert(id, fetched);
        }
        if traced && Instant::now() >= next_scrape {
            next_scrape = Instant::now() + SCRAPE_EVERY;
            if Instant::now() >= heavy_start {
                let m = scrape(addr)?;
                let mut d = depth.lock().expect("depth lock");
                d.0 =
                    d.0.max(m.get("parma_serve_queue_depth").copied().unwrap_or(0.0));
                d.1 += 1;
            }
        }
        if sender_done.load(Ordering::SeqCst) {
            let admitted = records
                .lock()
                .expect("records lock")
                .iter()
                .filter(|r| r.id.is_some())
                .count();
            if received.lock().expect("received lock").len() >= admitted {
                return Ok(last);
            }
            let d = *deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(30));
            if Instant::now() > d {
                return Err(format!(
                    "{} admitted job(s) never reached the journal",
                    admitted - received.lock().expect("received lock").len()
                ));
            }
        }
        if chunk.is_empty() {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
}

fn latencies(records: &[Record], jobs: &[Job], phase: Phase) -> Vec<f64> {
    records
        .iter()
        .zip(jobs)
        .filter(|(_, j)| j.phase == phase)
        .filter_map(|(r, _)| r.latency_ms)
        .collect()
}

fn hist_sum(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.get(&format!("{name}_sum")).copied().unwrap_or(0.0)
}

/// The `serve-mix` workload.
pub fn serve_mix(ctx: &Ctx) -> Result<Outcome, String> {
    let pool = input_pool(ctx.seed);
    let jobs = schedule(ctx);
    let warm: Vec<Job> = [0, POOL_SMALL]
        .into_iter()
        .map(|input| Job {
            due: 0.0,
            phase: Phase::Light,
            input,
            session: None,
        })
        .collect();
    let plan: String = jobs
        .iter()
        .map(|j| format!("{:.9} {:?} {} {:?}\n", j.due, j.phase, j.input, j.session))
        .collect();
    let mut fingerprints: Vec<u64> = pool.iter().map(|i| inputs::fingerprint(&i.body)).collect();
    fingerprints.push(inputs::fingerprint(plan.as_bytes()));
    let mut o = Outcome {
        fingerprints,
        params: vec![
            ("light_rate_per_s", LIGHT_RATE.to_string()),
            ("heavy_rate_per_s", HEAVY_RATE.to_string()),
            ("latency_limit_ms", LATENCY_LIMIT_MS.to_string()),
            ("closed_loop_jobs", CLOSED_JOBS.to_string()),
            ("jobs", jobs.len().to_string()),
        ],
        ..Default::default()
    };
    let plain = run_pass(ctx, "plain", &pool, &jobs, &warm, false)?;
    let traced = if ctx.traced {
        Some(run_pass(ctx, "traced", &pool, &jobs, &warm, true)?)
    } else {
        None
    };

    // Output check: cold (session-less) results bitwise against the
    // reference, warm ones to the tolerance.
    let passes: Vec<&Pass> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let datasets: Vec<&WetLabDataset> = pool.iter().map(|i| &i.dataset).collect();
    let refs: Vec<Result<Reference, String>> = inputs::references(&datasets);
    for p in &passes {
        let results = p.warmups.iter().map(|tps| (Some(tps), "done")).chain(
            p.records
                .iter()
                .map(|r| (r.time_points.as_ref(), r.status.as_str())),
        );
        for (k, (tps, status)) in results.enumerate() {
            let job = if k < warm.len() {
                &warm[k]
            } else {
                &jobs[k - warm.len()]
            };
            let (Some(tps), "done") = (tps, status) else {
                continue;
            };
            let input = &pool[job.input];
            let name = format!("job {k} ({}x{})", input.n, input.n);
            let check = match (&job.session, &refs[job.input]) {
                (None, Ok(r)) => inputs::check(&name, tps, r),
                (None, Err(e)) => Err(format!(
                    "{name}: product converged but the reference did not: {e}"
                )),
                (Some(_), _) => inputs::check_warm(&name, tps, input.dataset.measurements.len()),
            };
            if let Err(e) = check {
                o.mismatches.push(e);
            }
        }
    }

    let shown = traced.as_ref().unwrap_or(&plain);
    let mut acc = Accounting {
        attempted: jobs.len(),
        ..Default::default()
    };
    for r in &shown.records {
        match (r.post_status, r.status.as_str()) {
            (429 | 503, _) => acc.rejected += 1,
            (_, "done") => acc.ok += 1,
            (_, "failed") => acc.quarantined += 1,
            _ => acc.lost += 1,
        }
    }
    o.accounting = acc;
    let m = &mut o.metrics;
    m.set("failed_frac", acc.failed_frac(), acc.attempted);
    end_to_end(m, &plain, &jobs);
    if ctx.traced {
        per_layer(ctx, m, &plain, shown, &pool, &jobs, &warm)?;
    }
    Ok(o)
}

fn end_to_end(m: &mut Metrics, p: &Pass, jobs: &[Job]) {
    let good = p
        .records
        .iter()
        .zip(jobs)
        .filter(|(r, j)| {
            j.phase == Phase::Closed
                && r.status == "done"
                && r.latency_ms.is_some_and(|l| l <= LATENCY_LIMIT_MS)
        })
        .count();
    m.note(
        "goodput_per_s",
        good as f64 / p.closed_wall_s,
        good,
        "closed loop over 2 connections, within the latency limit",
    );
    let light = latencies(&p.records, jobs, Phase::Light);
    let heavy = latencies(&p.records, jobs, Phase::Heavy);
    m.set("latency_light_p50_ms", stats::median(&light), light.len());
    m.set("latency_heavy_p50_ms", stats::median(&heavy), heavy.len());
    m.tail("latency_heavy_p99_ms", &heavy);
    m.set("setup_s", stats::median(&p.setups), p.setups.len());
    m.set("peak_rss_mb", p.peak_rss_kb as f64 / 1024.0, 1);
}

fn per_layer(
    ctx: &Ctx,
    m: &mut Metrics,
    plain: &Pass,
    p: &Pass,
    pool: &[Input],
    jobs: &[Job],
    warm: &[Job],
) -> Result<(), String> {
    let parse_ms: Vec<f64> = jobs
        .iter()
        .map(|j| inputs::parse_ms(&pool[j.input].body))
        .collect::<Result<_, _>>()?;
    m.set(
        "ingest.parse_ms.p50",
        stats::median(&parse_ms),
        parse_ms.len(),
    );

    let Scrapes {
        heavy_start: mid,
        heavy_end,
        end: after,
    } = p
        .scrapes
        .as_ref()
        .ok_or("the traced pass took no /metrics scrapes")?;
    let get = |s: &Metricsmap, k: &str| s.get(k).copied().unwrap_or(0.0);
    let heavy = |j: &Job| j.phase == Phase::Heavy;

    // Requests: one POST per job plus every GET of its result.
    let posts: Vec<f64> = p.records.iter().map(|r| r.post_ms).collect();
    let gets: Vec<f64> = p
        .records
        .iter()
        .filter(|r| r.gets > 0)
        .map(|r| r.get_ms)
        .collect();
    let requests: usize = p.records.iter().map(|r| 1 + r.gets).sum();
    m.summary("http.rtt_ms.post.p50", "http.rtt_ms.post.p99", &posts);
    m.summary("http.rtt_ms.get.p50", "http.rtt_ms.get.p99", &gets);
    m.set(
        "http.requests_per_job",
        requests as f64 / jobs.len() as f64,
        jobs.len(),
    );
    let late = p.records.iter().map(|r| r.late_ms).fold(0.0, f64::max);
    let open = jobs.iter().filter(|j| j.phase != Phase::Closed).count();
    m.set("gen.late_ms_max", late, open);

    // Service time in the heavy phase, from the exported histogram.
    let (jb, ja) = (
        parse::buckets(mid, "parma_serve_job_ms"),
        parse::buckets(heavy_end, "parma_serve_job_ms"),
    );
    let heavy_jobs = jobs.iter().filter(|j| heavy(j)).count();
    let job_p50 = parse::bucket_percentile(&jb, &ja, 50.0).unwrap_or(0.0);
    let job_p99 = parse::bucket_percentile(&jb, &ja, 99.0).unwrap_or(0.0);
    m.note(
        "service.job_ms.p50",
        job_p50,
        heavy_jobs,
        "heavy phase, histogram bucket bound",
    );
    m.note(
        "service.job_ms.p99",
        job_p99,
        heavy_jobs,
        "heavy phase, histogram bucket bound",
    );
    let job_ms_sum =
        hist_sum(heavy_end, "parma_serve_job_ms") - hist_sum(mid, "parma_serve_job_ms");
    m.note(
        "batch.busy_frac",
        job_ms_sum / (2.0 * p.heavy_wall_s * 1e3),
        heavy_jobs,
        "serve workers, heavy phase",
    );

    // Queue wait is not exported: estimate it as what is left of the
    // client latency after the generator's lateness, both HTTP round trips
    // and the service time.
    let residual: Vec<f64> = p
        .records
        .iter()
        .zip(jobs)
        .filter(|(_, j)| heavy(j))
        .filter_map(|(r, _)| Some(r.latency_ms? - r.late_ms - r.post_ms - r.get_ms))
        .collect();
    if let Some(s) = Summary::of(&residual) {
        let (_, r99) = Summary::at_most(&residual, 99.0).expect("non-empty");
        m.note(
            "queue.wait_ms.p50",
            (s.p50 - job_p50).max(0.0),
            s.count,
            "estimated, heavy phase",
        );
        m.note(
            "queue.wait_ms.p99",
            (r99 - job_p99).max(0.0),
            s.count,
            "estimated, heavy phase",
        );
    }
    m.note(
        "queue.depth_max",
        p.queue_depth_max,
        p.queue_samples,
        "sampled every 50 ms, heavy phase",
    );
    let lat_sum: f64 = p
        .records
        .iter()
        .zip(jobs)
        .filter(|(_, j)| heavy(j))
        .filter_map(|(r, _)| r.latency_ms)
        .sum();
    let http_sum: f64 = p
        .records
        .iter()
        .zip(jobs)
        .filter(|(_, j)| heavy(j))
        .map(|(r, _)| r.post_ms + r.get_ms)
        .sum();
    m.note(
        "unattributed_frac",
        1.0 - (http_sum + job_ms_sum) / lat_sum,
        heavy_jobs,
        "heavy latency outside HTTP round trips and service time",
    );

    let hits = get(after, "parma_plan_cache_hits_total");
    let misses = get(after, "parma_plan_cache_misses_total");
    m.set(
        "plan.hit_frac",
        hits / (hits + misses),
        (hits + misses) as usize,
    );
    m.set("plan.misses", misses, (hits + misses) as usize);
    let iters = get(after, "parma_solver_iterations_total");
    m.set(
        "solve.iters_total",
        iters,
        get(after, "parma_solver_solves_total") as usize,
    );
    m.set(
        "solve.recoveries",
        get(after, "parma_solver_recoveries_total"),
        1,
    );
    let solves = get(after, "parma_solver_solves_total") as usize;
    m.set(
        "refactor.ms_per_iter",
        hist_sum(after, "model_forward_refactor_ms") / iters,
        solves,
    );
    m.set(
        "sweep.ms_per_iter",
        hist_sum(after, "parma_sweep_ms") / iters,
        solves,
    );
    let attempts = hist_sum(after, "parma_item_attempts");
    let items = get(after, "parma_item_attempts_count");
    m.set("supervise.attempts_total", attempts, items as usize);
    m.set(
        "supervise.attempts_per_session",
        attempts / items,
        items as usize,
    );

    // Iterations of converged time points: useful work, per size, and warm
    // (`?session=`) against cold jobs of the same size.
    let mut useful = 0u64;
    let mut by: BTreeMap<(usize, bool), (u64, usize)> = BTreeMap::new();
    let results = p.warmups.iter().map(Some).zip(warm);
    for (tps, job) in results.chain(p.records.iter().map(|r| r.time_points.as_ref()).zip(jobs)) {
        let Some(tps) = tps else { continue };
        let slot = by
            .entry((pool[job.input].n, job.session.is_some()))
            .or_default();
        for tp in tps {
            useful += tp.iterations;
            slot.0 += tp.iterations;
            slot.1 += 1;
        }
    }
    m.set("solve.useful_iter_frac", useful as f64 / iters, solves);
    let mean = |k: (usize, bool)| by.get(&k).map(|&(i, n)| (i as f64 / n as f64, n));
    for (n, name) in [(8, "solve.iters_per_tp.n8"), (16, "solve.iters_per_tp.n16")] {
        let (i, c) = by
            .iter()
            .filter(|((size, _), _)| *size == n)
            .fold((0u64, 0usize), |(a, b), (_, &(i, c))| (a + i, b + c));
        if c > 0 {
            m.set(name, i as f64 / c as f64, c);
        }
    }
    let (mut ratio_sum, mut weight) = (0.0, 0usize);
    for n in [8, 16] {
        if let (Some((warm_mean, w)), Some((cold_mean, _))) = (mean((n, true)), mean((n, false))) {
            ratio_sum += warm_mean / cold_mean * w as f64;
            weight += w;
        }
    }
    if weight > 0 {
        m.note(
            "service.warm_iter_ratio",
            ratio_sum / weight as f64,
            weight,
            "warm over cold iterations per time point, by size",
        );
    }

    let rec = crate::batch::journal_record_ms(&ctx.work, &p.journal_lines)?;
    m.summary("journal.record_ms.p50", "journal.record_ms.p99", &rec);

    let mean_lat = |pass: &Pass| {
        let l = latencies(&pass.records, jobs, Phase::Heavy);
        l.iter().sum::<f64>() / l.len().max(1) as f64
    };
    m.note(
        "trace_overhead_frac",
        mean_lat(p) / mean_lat(plain) - 1.0,
        heavy_jobs,
        "traced over untraced mean heavy-phase latency",
    );
    Ok(())
}
