//! Worker side of the `parma-wire/v2` protocol.
//!
//! [`run_worker`] connects to a coordinator, handshakes, then loops:
//! solve `Assign` frames through a caller-supplied handler and stream
//! `Heartbeat` frames from a side thread at the coordinator-negotiated
//! cadence. The only state a worker keeps between tasks is its plan
//! cache, and plans depend only on geometry — so any task can run on any
//! worker with the same bits, which is what makes reassignment after a
//! death bitwise-safe.
//!
//! # Tracing and telemetry (v2)
//!
//! Each `Assign` carries the coordinator's trace context; the worker
//! adopts it (thread-local) for the handler's duration and stamps solve
//! start/end on its own monotonic clock into the `Result` tail. Clock
//! probes arriving on coordinator keepalives are echoed immediately from
//! the read loop, so the round trip stays tight. When the coordinator
//! asked for live telemetry (HelloAck flag), the cadence beats carry a
//! bounded snapshot of this process's counters, histograms and newest
//! flight-recorder events; if the writer is busy the payload is
//! **dropped, never waited for** — the beat degrades to an empty
//! keepalive and `parma.dist.worker.telemetry_drops` counts the loss.
//!
//! # Chaos injection
//!
//! `PARMA_DIST_CHAOS="<phase>:<ticket>:<name>"` makes the worker named
//! `<name>` die abruptly around ticket `<ticket>` (`*` strikes on the
//! worker's first assignment, whatever its ticket — useful when task
//! routing is racy):
//!
//! * `dispatch` — dies the instant the `Assign` frame is decoded,
//! * `mid-solve` — a killer thread fires while the handler runs,
//! * `pre-ack` — computes the result, writes *half* the `Result` frame,
//!   then dies (the torn frame must read as an I/O error upstream).
//!
//! Death is `std::process::abort()`: no unwinding, no flushes — the
//! closest in-process stand-in for SIGKILL, and the CI chaos matrix
//! additionally kills real worker processes with signals.

use super::telemetry::{self, ProbeEcho, TelemetryBeat};
use mea_obs::context::TraceContext;
use mea_obs::events::{emit_for, job_key, now_us, EventKind};
use mea_parallel::dist::{
    encode_frame, read_frame, write_frame, FrameError, MsgKind, PayloadReader, PayloadWriter,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Maps an `Assign` payload blob to a result blob: `Ok` for a solved
/// task, `Err` for a task the worker decided to fail (both are shipped
/// back; transport errors are signalled by dying instead).
pub type TaskHandler = dyn Fn(u64, &[u8]) -> Result<Vec<u8>, Vec<u8>> + Sync;

/// What a worker did before the coordinator released it.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSummary {
    /// Tasks solved and acknowledged.
    pub processed: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ChaosPhase {
    Dispatch,
    MidSolve,
    PreAck,
}

struct Chaos {
    phase: ChaosPhase,
    /// `None` strikes on any assignment (the `*` spec).
    ticket: Option<u64>,
}

/// Parses `PARMA_DIST_CHAOS` for this worker's name; `None` means the
/// plan targets another worker (or is absent/malformed).
fn chaos_plan(name: &str) -> Option<Chaos> {
    let spec = std::env::var("PARMA_DIST_CHAOS").ok()?;
    let mut parts = spec.splitn(3, ':');
    let phase = match parts.next()? {
        "dispatch" => ChaosPhase::Dispatch,
        "mid-solve" => ChaosPhase::MidSolve,
        "pre-ack" => ChaosPhase::PreAck,
        _ => return None,
    };
    let ticket: Option<u64> = match parts.next()? {
        "*" => None,
        t => Some(t.parse().ok()?),
    };
    if parts.next()? != name {
        return None;
    }
    Some(Chaos { phase, ticket })
}

/// Connects to `addr`, registers as `name`, and processes assignments
/// until the coordinator says `Shutdown` (clean exit) or disappears
/// (EOF / read deadline — also a clean worker exit: the coordinator owns
/// the work, the worker just stops).
pub fn run_worker(addr: &str, name: &str, handler: &TaskHandler) -> Result<WorkerSummary, String> {
    run_worker_with(addr, name, handler, &mut |_| {})
}

/// [`run_worker`] with a post-handshake hook: `on_registered` runs once
/// with the coordinator-assigned worker id, before the first assignment.
/// The CLI uses it to start this process's metrics listener with the id
/// stamped into `/snapshot` meta, so scraped fleet JSON is attributable.
pub fn run_worker_with(
    addr: &str,
    name: &str,
    handler: &TaskHandler,
    on_registered: &mut dyn FnMut(u64),
) -> Result<WorkerSummary, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("worker: connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();

    let mut hello = PayloadWriter::new();
    hello.put_str(name);
    write_frame(&mut stream, MsgKind::Hello, &hello.into_bytes())
        .map_err(|e| format!("worker: hello: {e}"))?;
    let ack = read_frame(&mut stream).map_err(|e| format!("worker: handshake: {e}"))?;
    if ack.kind != MsgKind::HelloAck {
        return Err(format!("worker: expected HelloAck, got {:?}", ack.kind));
    }
    let mut r = PayloadReader::new(&ack.payload);
    // Worker id, heartbeat cadence, telemetry flags and the handshake
    // clock probe.
    let (worker_id, interval_ms, flags, seq, t_c_send_us) = (|| {
        Ok::<_, mea_parallel::dist::DecodeError>((
            r.take_u64()?,
            r.take_u64()?,
            r.take_u8()?,
            r.take_u64()?,
            r.take_u64()?,
        ))
    })()
    .map_err(|e| format!("worker: ack: {e:?}"))?;
    let live_telemetry = flags & 1 != 0;
    let handshake_echo = ProbeEcho {
        seq,
        t_c_send_us,
        t_w_recv_us: now_us(),
    };
    if live_telemetry {
        // The coordinator wants telemetry beats: turn the local live
        // instruments on so there is something to ship.
        mea_obs::set_live(true);
    }
    on_registered(worker_id);
    let interval = Duration::from_millis(interval_ms.max(10));
    // Tolerate a coordinator busy under load: our read deadline is far
    // looser than the coordinator's death deadline for us.
    stream
        .set_read_timeout(Some(interval * 50))
        .map_err(|e| format!("worker: deadline: {e}"))?;

    let writer = Arc::new(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("worker: clone stream: {e}"))?,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let drops = Arc::new(AtomicU64::new(0));
    // Answer the handshake probe at once: this is the offset estimate
    // every dispatch before the first keepalive round trip relies on.
    {
        let beat = TelemetryBeat {
            echo: Some(handshake_echo),
            ..Default::default()
        };
        let mut w = writer.lock().expect("worker writer");
        let _ = write_frame(&mut *w, MsgKind::Heartbeat, &beat.encode());
    }
    let beat_writer = Arc::clone(&writer);
    let beat_stop = Arc::clone(&stop);
    let beat_drops = Arc::clone(&drops);
    let heartbeat = std::thread::Builder::new()
        .name(format!("parma-worker-hb-{worker_id}"))
        .spawn(move || {
            while !beat_stop.load(Ordering::Relaxed) {
                std::thread::sleep(interval);
                if live_telemetry {
                    // Build the payload before touching the writer, then
                    // only *try* the lock: a beat never waits on telemetry.
                    let beat = TelemetryBeat::from_local(None, beat_drops.load(Ordering::Relaxed));
                    if let Ok(mut w) = beat_writer.try_lock() {
                        if write_frame(&mut *w, MsgKind::Heartbeat, &beat.encode()).is_err() {
                            return; // coordinator gone; main loop sees EOF too
                        }
                        continue;
                    }
                    // Writer busy (a Result or probe echo in flight): drop
                    // the payload and degrade to an empty keepalive.
                    let n = beat_drops.fetch_add(1, Ordering::Relaxed) + 1;
                    emit_for(
                        EventKind::DistTelemetryDrop,
                        mea_obs::events::worker_key(worker_id),
                        n,
                        0.0,
                    );
                }
                let mut w = beat_writer.lock().expect("worker writer");
                if write_frame(&mut *w, MsgKind::Heartbeat, &[]).is_err() {
                    return; // coordinator gone; main loop will see EOF too
                }
            }
        })
        .map_err(|e| format!("worker: spawn heartbeat: {e}"))?;

    let chaos = chaos_plan(name);
    let mut summary = WorkerSummary::default();
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            // Coordinator gone (EOF, deadline, or a torn frame): stop.
            Err(FrameError::Io(_)) => break,
            Err(e) => {
                stop.store(true, Ordering::Relaxed);
                heartbeat.join().ok();
                return Err(format!("worker: protocol error: {e}"));
            }
        };
        match frame.kind {
            MsgKind::Heartbeat => {
                // Coordinator keepalive; it may carry a clock probe,
                // echoed immediately so the round trip stays tight. (An
                // echo during a solve waits for the read loop anyway — the
                // coordinator filters those by their inflated RTT.)
                if let Some(p) = telemetry::decode_probe(&frame.payload) {
                    let beat = TelemetryBeat {
                        echo: Some(ProbeEcho {
                            seq: p.seq,
                            t_c_send_us: p.t_c_send_us,
                            t_w_recv_us: now_us(),
                        }),
                        drops: drops.load(Ordering::Relaxed),
                        ..Default::default()
                    };
                    let mut w = writer.lock().expect("worker writer");
                    if write_frame(&mut *w, MsgKind::Heartbeat, &beat.encode()).is_err() {
                        break; // coordinator gone mid-echo
                    }
                }
            }
            MsgKind::Shutdown => break,
            MsgKind::Assign => {
                // Ticket, task blob, and the trace context this dispatch
                // runs under.
                let mut r = PayloadReader::new(&frame.payload);
                let parsed = (|| {
                    let ticket = r.take_u64()?;
                    let blob = r.take_bytes()?.to_vec();
                    let ctx = TraceContext {
                        trace_id: r.take_u64()?,
                        span_id: r.take_u64()?,
                        parent_span: r.take_u64()?,
                    };
                    Ok::<_, mea_parallel::dist::DecodeError>((ticket, blob, ctx))
                })();
                let Ok((ticket, blob, ctx)) = parsed else {
                    stop.store(true, Ordering::Relaxed);
                    heartbeat.join().ok();
                    return Err("worker: malformed Assign payload".into());
                };
                let struck = chaos
                    .as_ref()
                    .is_some_and(|c| c.ticket.is_none_or(|t| t == ticket));
                if struck && chaos.as_ref().unwrap().phase == ChaosPhase::Dispatch {
                    std::process::abort();
                }
                if struck && chaos.as_ref().unwrap().phase == ChaosPhase::MidSolve {
                    std::thread::spawn(|| {
                        std::thread::sleep(Duration::from_millis(8));
                        std::process::abort();
                    });
                }
                let (status, body, t_start, t_end) = {
                    // Adopt the dispatch's trace context and the job's
                    // namespaced item scope for the handler's duration, so
                    // every event the solve emits is attributable to this
                    // exact dispatch attempt.
                    let _ctx = mea_obs::context::context_scope(ctx);
                    let _item = mea_obs::events::item_scope(job_key(ticket));
                    if ctx.is_set() {
                        emit_for(
                            EventKind::DistTraceAdopt,
                            job_key(ticket),
                            ctx.span_id,
                            ctx.trace_id as f64,
                        );
                    }
                    mea_obs::counter_add("parma.dist.worker.assignments", 1);
                    // Ship the adoption before solving: a worker killed
                    // mid-solve must already have delivered the events
                    // naming the dispatch it died holding, or the
                    // coordinator's retained forensics start empty. Same
                    // dropped-not-blocking rule as the cadence beats.
                    if live_telemetry {
                        let beat = TelemetryBeat::from_local(None, drops.load(Ordering::Relaxed));
                        if let Ok(mut w) = writer.try_lock() {
                            let _ = write_frame(&mut *w, MsgKind::Heartbeat, &beat.encode());
                        } else {
                            drops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let t_start = now_us();
                    let (status, body) = match handler(ticket, &blob) {
                        Ok(b) => (0u8, b),
                        Err(b) => (1u8, b),
                    };
                    let t_end = now_us();
                    mea_obs::hist::record(
                        "parma.dist.worker.solve_ms",
                        (t_end.saturating_sub(t_start)) as f64 / 1e3,
                    );
                    (status, body, t_start, t_end)
                };
                let mut payload = PayloadWriter::new();
                payload.put_u64(ticket);
                payload.put_u8(status);
                payload.put_bytes(&body);
                // Solve start/end on this worker's clock.
                payload.put_u64(t_start);
                payload.put_u64(t_end);
                let result = encode_frame(MsgKind::Result, &payload.into_bytes());
                if struck && chaos.as_ref().unwrap().phase == ChaosPhase::PreAck {
                    let mut w = writer.lock().expect("worker writer");
                    let _ = w.write_all(&result[..result.len() / 2]);
                    let _ = w.flush();
                    std::process::abort();
                }
                let sent = {
                    let mut w = writer.lock().expect("worker writer");
                    w.write_all(&result).and_then(|_| w.flush())
                };
                if sent.is_err() {
                    break; // coordinator gone mid-ack
                }
                summary.processed += 1;
            }
            other => {
                stop.store(true, Ordering::Relaxed);
                heartbeat.join().ok();
                return Err(format!("worker: unexpected frame {other:?}"));
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    heartbeat.join().ok();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_plan_parses_and_filters_by_name() {
        // Set/unset is process-global; run the sub-cases in one test to
        // avoid racing parallel tests over the env var.
        std::env::set_var("PARMA_DIST_CHAOS", "mid-solve:3:w1");
        let hit = chaos_plan("w1").expect("matching name parses");
        assert!(hit.phase == ChaosPhase::MidSolve && hit.ticket == Some(3));
        assert!(chaos_plan("w2").is_none(), "other workers are untouched");
        std::env::set_var("PARMA_DIST_CHAOS", "pre-ack:*:w1");
        let any = chaos_plan("w1").expect("wildcard ticket parses");
        assert!(any.phase == ChaosPhase::PreAck && any.ticket.is_none());
        std::env::set_var("PARMA_DIST_CHAOS", "sideways:3:w1");
        assert!(chaos_plan("w1").is_none(), "unknown phases are ignored");
        std::env::remove_var("PARMA_DIST_CHAOS");
        assert!(chaos_plan("w1").is_none());
    }

    /// Accepts one worker, answers its Hello with `ack`, then sends
    /// `assign` (if any) and holds the connection until the worker leaves.
    fn fake_coordinator(
        ack: Vec<u8>,
        assign: Option<Vec<u8>>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coordinator = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert_eq!(read_frame(&mut s).unwrap().kind, MsgKind::Hello);
            write_frame(&mut s, MsgKind::HelloAck, &ack).unwrap();
            if let Some(payload) = assign {
                write_frame(&mut s, MsgKind::Assign, &payload).unwrap();
            }
            while read_frame(&mut s).is_ok() {}
        });
        (addr, coordinator)
    }

    #[test]
    fn payloads_missing_their_v2_fields_are_malformed() {
        let handler: &TaskHandler = &|_, _| panic!("no task may reach the handler");
        // A HelloAck that ends after the worker id and cadence.
        let mut ack = PayloadWriter::new();
        ack.put_u64(7);
        ack.put_u64(10);
        let (addr, coordinator) = fake_coordinator(ack.into_bytes(), None);
        let err = run_worker(&addr, "w-ack", handler).unwrap_err();
        assert!(err.contains("worker: ack: Truncated"), "{err}");
        coordinator.join().expect("fake coordinator");
        // A full HelloAck, then an Assign without its trace context.
        let mut ack = PayloadWriter::new();
        ack.put_u64(7);
        ack.put_u64(10);
        ack.put_u8(0);
        ack.put_u64(0);
        ack.put_u64(0);
        let mut assign = PayloadWriter::new();
        assign.put_u64(1);
        assign.put_bytes(b"task");
        let (addr, coordinator) = fake_coordinator(ack.into_bytes(), Some(assign.into_bytes()));
        let err = run_worker(&addr, "w-assign", handler).unwrap_err();
        assert_eq!(err, "worker: malformed Assign payload");
        coordinator.join().expect("fake coordinator");
    }
}
