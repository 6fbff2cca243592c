//! Fault-tolerant multi-process sharding: the coordinator side.
//!
//! A [`Coordinator`] listens for `parma worker` processes, shards work
//! over them with the **same deterministic block partition `mpi_sim`
//! uses** ([`mea_parallel::dist::shard_ranges`]), and survives worker
//! death: heartbeats with deadline-based death detection, automatic
//! reassignment of in-flight tasks to surviving workers, and graceful
//! degradation to in-process solving when the last worker dies.
//!
//! # Exactly-once effects, at-least-once dispatch
//!
//! A task may be *dispatched* more than once — its worker died, or
//! stalled past the heartbeat deadline and was declared dead — but it is
//! *decided* exactly once: every terminal transition goes through one
//! `decide` call under the state mutex, and a late result for an
//! already-decided task is counted (`parma.dist.duplicates`) and
//! discarded, never double-applied. Callers consume each decision once
//! via [`Coordinator::take_decided`], which is where journaling happens —
//! so the fsync'd journal inherits the exactly-once property.
//!
//! # Why redispatch preserves bitwise determinism
//!
//! Tasks are whole datasets (or pure functions of the task blob), solved
//! by the same supervised pipeline whichever process runs them, and
//! warm-starting never crosses a dataset boundary. Re-running a task on a
//! different worker — or in-process after total worker loss — therefore
//! produces bit-identical output, which is what lets the chaos tests
//! demand byte-identical journals under SIGKILL.

pub mod codec;
pub mod telemetry;
pub mod worker;

use mea_obs::events::{emit_for, now_us, EventKind};
use mea_obs::fleet::FleetStore;
use mea_obs::timeline::DispatchTrace;
use mea_parallel::dist::{
    read_frame, write_frame, FrameError, HeartbeatPolicy, MsgKind, PayloadReader, PayloadWriter,
};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Coordinator-side robustness policy.
#[derive(Clone, Copy, Debug)]
pub struct DistPolicy {
    /// Heartbeat cadence pushed to workers and the death deadline.
    pub heartbeat: HeartbeatPolicy,
    /// How many times a task may be dispatched before a worker death
    /// quarantines it as lost instead of requeueing it.
    pub max_dispatches: usize,
}

impl Default for DistPolicy {
    fn default() -> Self {
        DistPolicy {
            heartbeat: HeartbeatPolicy::default(),
            max_dispatches: 3,
        }
    }
}

/// Terminal state of one submitted task.
#[derive(Debug)]
pub enum TaskOutcome {
    /// A worker returned a success blob.
    Ok {
        /// The worker that produced it (journaled as the `worker` field).
        worker: u64,
        /// Caller-defined result payload.
        blob: Vec<u8>,
    },
    /// A worker returned a failure blob (a quarantine it decided).
    Failed {
        /// The worker that produced it.
        worker: u64,
        /// Caller-defined failure payload.
        blob: Vec<u8>,
    },
    /// Never ran remotely: the last worker died (or none ever connected)
    /// while this task was pending. The caller runs it in-process — the
    /// graceful-degradation path.
    NoWorkers,
    /// Dispatched [`DistPolicy::max_dispatches`] times, every worker died
    /// mid-task. The caller decides whether to run it in-process or
    /// quarantine it as a worker-death failure.
    WorkerLost {
        /// Total dispatch attempts consumed.
        dispatches: usize,
    },
}

struct TaskMeta {
    blob: Arc<Vec<u8>>,
    /// (index, total) for the deterministic block-partition affinity.
    affinity: (usize, usize),
    dispatches: usize,
}

#[derive(Default)]
struct State {
    /// Undecided tasks, keyed by ticket.
    tasks: HashMap<u64, TaskMeta>,
    /// Tickets ready to claim, ascending (deterministic steal order).
    pending: BTreeSet<u64>,
    /// Ticket → worker currently solving it.
    in_flight: HashMap<u64, u64>,
    /// Decided tasks awaiting [`Coordinator::take_decided`].
    decided: HashMap<u64, TaskOutcome>,
    /// Live worker ids, ascending (rank = position).
    live: BTreeSet<u64>,
    /// Late results for already-decided tasks, discarded not applied.
    duplicates: u64,
    next_ticket: u64,
    next_worker: u64,
    ever_joined: bool,
    shutting_down: bool,
}

/// Per-ticket dispatch history: the raw material of `parma obs timeline`.
/// Its own mutex, never held together with the scheduling state — trace
/// recording must not add contention to the decide path.
#[derive(Default)]
struct TraceLog {
    jobs: HashMap<u64, Vec<DispatchTrace>>,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    policy: DistPolicy,
    /// The batch-wide trace id, minted at bind.
    trace_id: u64,
    /// Everything workers have shipped back on heartbeats.
    fleet: Arc<FleetStore>,
    /// Dispatch/ack records per ticket.
    trace: Mutex<TraceLog>,
    /// Clock-probe sequence numbers (0 is the handshake probe).
    probe_seq: AtomicU64,
}

impl Shared {
    fn new(policy: DistPolicy) -> Shared {
        Shared {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            policy,
            trace_id: mea_obs::context::mint_id(),
            fleet: Arc::new(FleetStore::new()),
            trace: Mutex::new(TraceLog::default()),
            probe_seq: AtomicU64::new(1),
        }
    }
}

/// The worker-facing coordinator: a TCP listener plus the shared task
/// queue. See the module docs for the fault model.
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the worker listener (use port 0 for an ephemeral port) and
    /// starts accepting workers.
    pub fn bind(addr: &str, policy: DistPolicy) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(policy));
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("parma-dist-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Coordinator {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The batch-wide trace id every dispatch of this coordinator runs
    /// under (minted at bind, nonzero, 48-bit).
    pub fn trace_id(&self) -> u64 {
        self.shared.trace_id
    }

    /// The fleet telemetry store: per-worker counters, histograms,
    /// retained flight-recorder tails and clock offsets, merged from
    /// heartbeat telemetry. Share it with a metrics exporter.
    pub fn fleet(&self) -> Arc<FleetStore> {
        Arc::clone(&self.shared.fleet)
    }

    /// The dispatch history of one ticket, with each record's clock
    /// offset filled from the freshest per-worker estimate. Empty if the
    /// ticket was never dispatched (e.g. decided `NoWorkers`).
    pub fn job_trace(&self, ticket: u64) -> Vec<DispatchTrace> {
        let mut records = self
            .shared
            .trace
            .lock()
            .expect("dist trace log")
            .jobs
            .get(&ticket)
            .cloned()
            .unwrap_or_default();
        for d in &mut records {
            if let Some(w) = self.shared.fleet.worker(d.worker) {
                d.offset_us = w.offset_us;
            }
        }
        records
    }

    /// Currently connected (live) workers.
    pub fn worker_count(&self) -> usize {
        self.shared.state.lock().expect("dist state").live.len()
    }

    /// Blocks until at least `n` workers are connected, or the timeout
    /// elapses. Returns whether the quorum arrived.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("dist state");
        while state.live.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(state, left)
                .expect("dist state poisoned");
            state = guard;
        }
        true
    }

    /// Submits one task. `affinity` is the task's (index, total) within
    /// its batch: workers prefer tasks whose index falls in their
    /// deterministic block of `0..total` and steal ascending otherwise.
    /// Returns the ticket to pass to [`Self::take_decided`].
    pub fn submit(&self, blob: Vec<u8>, affinity: (usize, usize)) -> u64 {
        let mut state = self.shared.state.lock().expect("dist state");
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.tasks.insert(
            ticket,
            TaskMeta {
                blob: Arc::new(blob),
                affinity,
                dispatches: 0,
            },
        );
        state.pending.insert(ticket);
        // Nobody to run it and nobody coming: degrade immediately rather
        // than hanging the caller. (Before the first worker ever joins,
        // tasks wait — the children are still connecting.)
        if state.ever_joined && state.live.is_empty() {
            decide(&mut state, ticket, TaskOutcome::NoWorkers);
        }
        self.shared.cv.notify_all();
        ticket
    }

    /// Blocks until one of `tickets` is decided, removes it from the set,
    /// and returns it with its outcome. Each decision is consumed exactly
    /// once — this is the serialization point callers journal behind.
    ///
    /// # Panics
    /// Panics if `tickets` is empty.
    pub fn take_decided(&self, tickets: &mut BTreeSet<u64>) -> (u64, TaskOutcome) {
        assert!(!tickets.is_empty(), "take_decided on an empty ticket set");
        let mut state = self.shared.state.lock().expect("dist state");
        loop {
            if let Some(&t) = tickets.iter().find(|t| state.decided.contains_key(t)) {
                tickets.remove(&t);
                let outcome = state.decided.remove(&t).expect("checked above");
                return (t, outcome);
            }
            state = self.shared.cv.wait(state).expect("dist state poisoned");
        }
    }

    /// Signals shutdown without joining: dispatchers send `Shutdown` to
    /// their workers and exit, the accept loop stops. For callers that
    /// hold the coordinator in an `Arc` (the serve daemon); the `Drop`
    /// impl joins the accept thread when the last reference goes.
    pub fn begin_shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("dist state");
            state.shutting_down = true;
            self.shared.cv.notify_all();
        }
        // Wake the blocking accept() so the thread can observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Sends `Shutdown` to connected workers, stops accepting, and joins
    /// the accept thread. In-flight state is dropped; call only after the
    /// submitted work is fully consumed.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        if let Some(h) = self.accept.take() {
            self.begin_shutdown();
            h.join().ok();
        }
    }
}

/// The single terminal transition: first decision wins, later ones are
/// duplicates. Only call with the state lock held.
fn decide(state: &mut State, ticket: u64, outcome: TaskOutcome) -> bool {
    if state.tasks.remove(&ticket).is_none() {
        state.duplicates += 1;
        mea_obs::counter_add("parma.dist.duplicates", 1);
        emit_for(EventKind::DistDuplicate, ticket, 0, 0.0);
        return false;
    }
    state.pending.remove(&ticket);
    state.in_flight.remove(&ticket);
    state.decided.insert(ticket, outcome);
    true
}

/// Removes a dead worker and reassigns (or quarantines) its in-flight
/// task. Idempotent — the reader and dispatcher may both report the same
/// death.
fn worker_dead(shared: &Shared, id: u64) {
    {
        let mut state = shared.state.lock().expect("dist state");
        if !state.live.remove(&id) {
            return;
        }
        mea_obs::counter_add("parma.dist.worker_deaths", 1);
        mea_obs::gauge_set("parma.dist.workers", state.live.len() as f64);
        emit_for(EventKind::DistWorkerDead, id, 0, 0.0);
        let lost: Vec<u64> = state
            .in_flight
            .iter()
            .filter(|&(_, w)| *w == id)
            .map(|(&t, _)| t)
            .collect();
        for t in lost {
            state.in_flight.remove(&t);
            let dispatches = state.tasks.get(&t).map_or(0, |m| m.dispatches);
            if dispatches >= shared.policy.max_dispatches {
                decide(&mut state, t, TaskOutcome::WorkerLost { dispatches });
            } else {
                state.pending.insert(t);
                mea_obs::counter_add("parma.dist.reassigned", 1);
                emit_for(EventKind::DistReassign, t, id, dispatches as f64);
            }
        }
        // Last worker gone: everything still pending degrades to in-process.
        if state.live.is_empty() {
            let pending: Vec<u64> = state.pending.iter().copied().collect();
            for t in pending {
                decide(&mut state, t, TaskOutcome::NoWorkers);
            }
        }
        shared.cv.notify_all();
    }
    // Outside the scheduling lock: the worker's labels drop from the
    // exposition (its retained flight-recorder tail stays readable), and
    // every dispatch it never acked becomes a "lost" timeline edge.
    shared.fleet.mark_dead(id);
    let mut trace = shared.trace.lock().expect("dist trace log");
    for records in trace.jobs.values_mut() {
        for d in records.iter_mut() {
            if d.worker == id && d.ack_us == 0 && d.outcome.is_empty() {
                d.outcome = "lost".into();
            }
        }
    }
}

/// Picks the next task for `worker`: its own deterministic block first
/// (the `mpi_sim` partition over the task's batch), then the lowest
/// pending ticket (steal). Lock held by the caller.
fn claim(state: &State, worker: u64) -> Option<u64> {
    let first = *state.pending.iter().next()?;
    let rank = state.live.iter().position(|&w| w == worker)?;
    let live = state.live.len();
    for &t in &state.pending {
        let Some(meta) = state.tasks.get(&t) else {
            continue;
        };
        let (index, total) = meta.affinity;
        if total == 0 {
            continue;
        }
        let block = mea_parallel::mpi_sim::block_range(total, live.min(total).max(1), {
            let p = live.min(total).max(1);
            rank.min(p - 1)
        });
        if block.contains(&index) {
            return Some(t);
        }
    }
    Some(first)
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if shared.state.lock().expect("dist state").shutting_down {
            return;
        }
        let shared = Arc::clone(&shared);
        // A failed spawn drops the connection (the worker sees EOF) and
        // keeps the listener serving later workers.
        let _ = std::thread::Builder::new()
            .name("parma-dist-worker-io".into())
            .spawn(move || {
                let _ = serve_worker(stream, &shared);
            });
    }
}

/// Handshakes one worker connection, then splits into the reader (this
/// thread: heartbeats, results, death detection) and a dispatcher thread
/// (assignments, idle keepalives) over a cloned stream.
fn serve_worker(mut stream: TcpStream, shared: &Shared) -> Result<(), FrameError> {
    let policy = shared.policy;
    stream.set_read_timeout(Some(policy.heartbeat.deadline))?;
    stream.set_nodelay(true).ok();
    let hello = read_frame(&mut stream)?;
    if hello.kind != MsgKind::Hello {
        return Err(FrameError::BadKind(hello.kind as u8));
    }
    let mut r = PayloadReader::new(&hello.payload);
    let name = r
        .take_str()
        .map_err(|_| FrameError::BadChecksum)?
        .to_string();

    let id = {
        let mut state = shared.state.lock().expect("dist state");
        let id = state.next_worker;
        state.next_worker += 1;
        state.live.insert(id);
        state.ever_joined = true;
        mea_obs::counter_add("parma.dist.worker_joins", 1);
        mea_obs::gauge_set("parma.dist.workers", state.live.len() as f64);
        emit_for(EventKind::DistWorkerJoin, id, 0, 0.0);
        shared.cv.notify_all();
        id
    };
    shared.fleet.join(id, &name);
    let mut ack = PayloadWriter::new();
    ack.put_u64(id);
    ack.put_u64(policy.heartbeat.interval.as_millis() as u64);
    // Telemetry flags and the handshake clock probe, echoed on the
    // worker's first beat.
    ack.put_u8(if mea_obs::is_live() { 1 } else { 0 });
    ack.put_u64(0); // probe seq 0 = the handshake probe
    ack.put_u64(now_us());
    if write_frame(&mut stream, MsgKind::HelloAck, &ack.into_bytes()).is_err() {
        worker_dead(shared, id);
        return Ok(());
    }

    // Dispatcher: waits for claimable work, writes Assign frames, sends
    // idle keepalives so the worker can detect a dead coordinator.
    let dispatch_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            worker_dead(shared, id);
            return Ok(());
        }
    };
    std::thread::scope(|scope| {
        let dispatcher = std::thread::Builder::new()
            .spawn_scoped(scope, || dispatch_loop(dispatch_stream, shared, id));
        if dispatcher.is_err() {
            // No thread to feed it: retire the worker, or its id stays live
            // and pending shards never fall back. Returning drops the
            // stream, so the worker sees EOF.
            worker_dead(shared, id);
            return;
        }
        reader_loop(&mut stream, shared, id);
    });
    Ok(())
}

/// Claims tasks for `id` and writes `Assign` frames. Exits when the
/// worker dies (observed via the live set) or the coordinator drains.
fn dispatch_loop(mut stream: TcpStream, shared: &Shared, id: u64) {
    loop {
        let assignment = {
            let mut state = shared.state.lock().expect("dist state");
            loop {
                if !state.live.contains(&id) {
                    return;
                }
                if state.shutting_down {
                    let _ = write_frame(&mut stream, MsgKind::Shutdown, &[]);
                    return;
                }
                let busy = state.in_flight.values().any(|&w| w == id);
                if !busy {
                    if let Some(t) = claim(&state, id) {
                        state.pending.remove(&t);
                        state.in_flight.insert(t, id);
                        let meta = state.tasks.get_mut(&t).expect("claimed tasks exist");
                        meta.dispatches += 1;
                        let blob = Arc::clone(&meta.blob);
                        break Some((t, blob, meta.dispatches));
                    }
                }
                let (guard, timeout) = shared
                    .cv
                    .wait_timeout(state, shared.policy.heartbeat.interval)
                    .expect("dist state poisoned");
                state = guard;
                if timeout.timed_out() {
                    // Idle keepalive: lets the worker's read deadline see a
                    // live coordinator, and lets us notice a dead worker
                    // even with no work to hand it. Keepalives double as
                    // clock probes — the worker echoes them on its next
                    // beat, re-estimating its offset each round trip.
                    drop(state);
                    let probe = telemetry::encode_probe(telemetry::Probe {
                        seq: shared.probe_seq.fetch_add(1, Ordering::Relaxed),
                        t_c_send_us: now_us(),
                    });
                    if write_frame(&mut stream, MsgKind::Heartbeat, &probe).is_err() {
                        worker_dead(shared, id);
                        return;
                    }
                    state = shared.state.lock().expect("dist state");
                }
            }
        };
        let Some((ticket, blob, _)) = assignment else {
            return;
        };
        // Mint this attempt's span; a redispatch chains to the previous
        // attempt's span so `parma obs timeline` can follow the lineage.
        let span_id = mea_obs::context::mint_id();
        let worker_name = shared
            .fleet
            .worker(id)
            .map(|w| w.name)
            .unwrap_or_else(|| format!("w?{id}"));
        let parent_span = {
            let mut trace = shared.trace.lock().expect("dist trace log");
            let records = trace.jobs.entry(ticket).or_default();
            let parent = records.last().map_or(0, |d| d.span_id);
            records.push(DispatchTrace {
                span_id,
                parent_span: parent,
                worker: id,
                worker_name,
                dispatch_us: now_us(),
                ..Default::default()
            });
            parent
        };
        let mut payload = PayloadWriter::new();
        payload.put_u64(ticket);
        payload.put_bytes(&blob);
        // The trace context this dispatch runs under.
        payload.put_u64(shared.trace_id);
        payload.put_u64(span_id);
        payload.put_u64(parent_span);
        mea_obs::counter_add("parma.dist.dispatched", 1);
        emit_for(EventKind::DistDispatch, ticket, id, 0.0);
        if write_frame(&mut stream, MsgKind::Assign, &payload.into_bytes()).is_err() {
            worker_dead(shared, id);
            return;
        }
    }
}

/// Reads frames from one worker until it dies: heartbeats refresh the
/// deadline (each successful read restarts the socket timeout), results
/// decide tasks, anything else — timeout, EOF, a torn or corrupt frame —
/// is a death.
fn reader_loop(stream: &mut TcpStream, shared: &Shared, id: u64) {
    loop {
        match read_frame(stream) {
            Ok(frame) => match frame.kind {
                MsgKind::Heartbeat => {
                    mea_obs::counter_add("parma.dist.heartbeats", 1);
                    // Beats ship telemetry; an empty beat (the worker
                    // dropped its telemetry) is a plain keepalive. A beat
                    // that fails to decode is dropped — telemetry is
                    // best-effort, liveness is what the frame itself
                    // proved.
                    if !frame.payload.is_empty() {
                        if let Ok(beat) = telemetry::TelemetryBeat::decode(&frame.payload) {
                            if let Some(echo) = beat.echo {
                                let t_c_recv = now_us();
                                let rtt = t_c_recv.saturating_sub(echo.t_c_send_us);
                                let mid = echo.t_c_send_us + rtt / 2;
                                let offset = echo.t_w_recv_us as i64 - mid as i64;
                                shared.fleet.update_clock(id, offset, rtt);
                            }
                            let drops = beat.drops;
                            let mut update = beat.into_update();
                            if drops > 0 {
                                update
                                    .counters
                                    .push(("parma.dist.worker.telemetry_drops".into(), drops));
                            }
                            shared.fleet.merge(id, update);
                        }
                    }
                }
                MsgKind::Result => {
                    let t_c_recv = now_us();
                    let mut r = PayloadReader::new(&frame.payload);
                    let parsed = (|| {
                        let ticket = r.take_u64()?;
                        let status = r.take_u8()?;
                        let blob = r.take_bytes()?.to_vec();
                        // The worker's own solve timestamps.
                        let stamps = (r.take_u64()?, r.take_u64()?);
                        Ok::<_, mea_parallel::dist::DecodeError>((ticket, status, blob, stamps))
                    })();
                    let Ok((ticket, status, blob, stamps)) = parsed else {
                        worker_dead(shared, id);
                        return;
                    };
                    {
                        let mut trace = shared.trace.lock().expect("dist trace log");
                        if let Some(d) = trace
                            .jobs
                            .get_mut(&ticket)
                            .and_then(|r| r.iter_mut().rev().find(|d| d.worker == id))
                        {
                            d.ack_us = t_c_recv;
                            (d.solve_start_us, d.solve_end_us) = stamps;
                            d.outcome = if status == 0 { "ok" } else { "failed" }.into();
                        }
                    }
                    let outcome = if status == 0 {
                        TaskOutcome::Ok { worker: id, blob }
                    } else {
                        TaskOutcome::Failed { worker: id, blob }
                    };
                    let mut state = shared.state.lock().expect("dist state");
                    // Only a result for a task this worker holds counts;
                    // anything else is late (already decided or reassigned)
                    // and is discarded as a duplicate.
                    if state.in_flight.get(&ticket) == Some(&id) {
                        decide(&mut state, ticket, outcome);
                    } else {
                        state.duplicates += 1;
                        mea_obs::counter_add("parma.dist.duplicates", 1);
                        emit_for(EventKind::DistDuplicate, ticket, id, 0.0);
                    }
                    shared.cv.notify_all();
                }
                MsgKind::Shutdown => {
                    worker_dead(shared, id);
                    return;
                }
                _ => {
                    worker_dead(shared, id);
                    return;
                }
            },
            Err(_) => {
                worker_dead(shared, id);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_ok(worker: u64) -> TaskOutcome {
        TaskOutcome::Ok {
            worker,
            blob: vec![1],
        }
    }

    #[test]
    fn decide_is_exactly_once_and_counts_duplicates() {
        let mut state = State::default();
        state.tasks.insert(
            7,
            TaskMeta {
                blob: Arc::new(vec![0]),
                affinity: (0, 1),
                dispatches: 1,
            },
        );
        state.in_flight.insert(7, 0);
        assert!(decide(&mut state, 7, outcome_ok(0)));
        assert!(!decide(&mut state, 7, outcome_ok(1)), "second decide loses");
        assert_eq!(state.duplicates, 1);
        assert!(
            matches!(
                state.decided.get(&7),
                Some(TaskOutcome::Ok { worker: 0, .. })
            ),
            "the first decision's payload survives"
        );
    }

    #[test]
    fn claim_prefers_the_deterministic_block_then_steals() {
        let mut state = State::default();
        for t in 0..10u64 {
            state.tasks.insert(
                t,
                TaskMeta {
                    blob: Arc::new(vec![]),
                    affinity: (t as usize, 10),
                    dispatches: 0,
                },
            );
            state.pending.insert(t);
        }
        state.live.insert(3);
        state.live.insert(8);
        // Worker 3 has rank 0 → block [0,5); worker 8 rank 1 → block [5,10).
        assert_eq!(claim(&state, 3), Some(0));
        assert_eq!(claim(&state, 8), Some(5));
        // Rank-1's block exhausted → steals the global minimum.
        for t in 5..10u64 {
            state.pending.remove(&t);
        }
        assert_eq!(claim(&state, 8), Some(0));
        // An unknown worker (already removed from live) claims nothing.
        assert_eq!(claim(&state, 99), None);
    }

    #[test]
    fn worker_death_requeues_then_quarantines_at_the_cap() {
        let shared = Shared::new(DistPolicy {
            max_dispatches: 2,
            ..Default::default()
        });
        {
            let mut state = shared.state.lock().unwrap();
            state.ever_joined = true;
            state.live.insert(0);
            state.live.insert(1);
            state.tasks.insert(
                4,
                TaskMeta {
                    blob: Arc::new(vec![]),
                    affinity: (0, 1),
                    dispatches: 1,
                },
            );
            state.in_flight.insert(4, 0);
        }
        // First death: below the cap → requeued for worker 1.
        worker_dead(&shared, 0);
        {
            let mut state = shared.state.lock().unwrap();
            assert!(state.pending.contains(&4));
            assert!(state.decided.is_empty());
            // Redispatch to worker 1.
            state.pending.remove(&4);
            state.in_flight.insert(4, 1);
            state.tasks.get_mut(&4).unwrap().dispatches = 2;
        }
        // Second death: at the cap → quarantined as lost, and since no
        // workers remain, nothing else would have run anyway.
        worker_dead(&shared, 1);
        let state = shared.state.lock().unwrap();
        assert!(matches!(
            state.decided.get(&4),
            Some(TaskOutcome::WorkerLost { dispatches: 2 })
        ));
    }

    #[test]
    fn last_death_degrades_pending_tasks_to_no_workers() {
        let shared = Shared::new(DistPolicy::default());
        {
            let mut state = shared.state.lock().unwrap();
            state.ever_joined = true;
            state.live.insert(0);
            for t in 0..3u64 {
                state.tasks.insert(
                    t,
                    TaskMeta {
                        blob: Arc::new(vec![]),
                        affinity: (t as usize, 3),
                        dispatches: 0,
                    },
                );
                state.pending.insert(t);
            }
        }
        worker_dead(&shared, 0);
        let state = shared.state.lock().unwrap();
        assert_eq!(state.decided.len(), 3);
        assert!(state
            .decided
            .values()
            .all(|o| matches!(o, TaskOutcome::NoWorkers)));
    }

    #[test]
    fn submit_after_total_worker_loss_degrades_immediately() {
        let coord = Coordinator::bind("127.0.0.1:0", DistPolicy::default()).unwrap();
        {
            let mut state = coord.shared.state.lock().unwrap();
            state.ever_joined = true; // a worker joined and died earlier
        }
        let t = coord.submit(vec![1, 2], (0, 1));
        let mut tickets: BTreeSet<u64> = [t].into_iter().collect();
        let (ticket, outcome) = coord.take_decided(&mut tickets);
        assert_eq!(ticket, t);
        assert!(matches!(outcome, TaskOutcome::NoWorkers));
        assert!(tickets.is_empty());
        coord.shutdown();
    }
}
