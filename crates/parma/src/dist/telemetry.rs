//! Telemetry and clock-probe payloads carried on `parma-wire/v2`
//! `Heartbeat` frames.
//!
//! An empty heartbeat payload means only "still alive" (a worker sends
//! one when it drops telemetry under backpressure). Two payload shapes
//! add to that, distinguished by a leading tag byte:
//!
//! * [`TAG_PROBE`] (coordinator → worker): a clock probe — a sequence
//!   number and the coordinator's monotonic clock at send time. The
//!   worker echoes it back immediately, stamped with its own clock, so
//!   the coordinator can estimate `worker_clock − coordinator_clock` by
//!   the midpoint method (see `mea_obs::timeline`).
//! * [`TAG_BEAT`] (worker → coordinator): a bounded telemetry beat —
//!   optionally a probe echo, then cumulative counters, mergeable
//!   histogram snapshots and a flight-recorder tail. Everything is
//!   cumulative, so a beat dropped under backpressure costs freshness,
//!   never correctness, and the caps below bound the payload regardless
//!   of how chatty the worker's instruments are.

use mea_obs::events::{Event, EventKind};
use mea_obs::fleet::TelemetryUpdate;
use mea_obs::hist::HistSnapshot;
use mea_parallel::dist::{DecodeError, PayloadReader, PayloadWriter};

/// Heartbeat payload tag: a coordinator→worker clock probe.
pub const TAG_PROBE: u8 = 1;
/// Heartbeat payload tag: a worker→coordinator telemetry beat.
pub const TAG_BEAT: u8 = 2;

/// Most counters one beat ships (the encoder truncates, the decoder
/// rejects anything claiming more).
pub const MAX_COUNTERS: usize = 64;
/// Most histogram snapshots one beat ships.
pub const MAX_HISTS: usize = 16;
/// Most flight-recorder events one beat ships.
pub const MAX_EVENTS: usize = 32;
/// Longest instrument name shipped; longer names are dropped.
pub const MAX_NAME: usize = 120;

/// A coordinator→worker clock probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Monotonically increasing probe number.
    pub seq: u64,
    /// Coordinator clock at send, µs.
    pub t_c_send_us: u64,
}

/// Serializes a probe payload.
pub fn encode_probe(probe: Probe) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(TAG_PROBE);
    w.put_u64(probe.seq);
    w.put_u64(probe.t_c_send_us);
    w.into_bytes()
}

/// Parses a heartbeat payload as a probe. `None` for empty payloads
/// (plain keepalives) and payloads of any other shape — probes are
/// best-effort, so malformed ones are simply not probes.
pub fn decode_probe(payload: &[u8]) -> Option<Probe> {
    let mut r = PayloadReader::new(payload);
    if r.take_u8().ok()? != TAG_PROBE {
        return None;
    }
    Some(Probe {
        seq: r.take_u64().ok()?,
        t_c_send_us: r.take_u64().ok()?,
    })
}

/// A probe echo riding inside a telemetry beat.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeEcho {
    /// The probe's sequence number, copied back.
    pub seq: u64,
    /// The coordinator send stamp, copied back so the coordinator needs
    /// no per-probe bookkeeping.
    pub t_c_send_us: u64,
    /// Worker clock when the probe was *received*, µs — the instant that
    /// provably lies between the coordinator's send and receive times.
    pub t_w_recv_us: u64,
}

/// One worker→coordinator telemetry beat.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryBeat {
    /// Echo of the most recent unanswered clock probe, if any.
    pub echo: Option<ProbeEcho>,
    /// Cumulative counter values, capped at [`MAX_COUNTERS`].
    pub counters: Vec<(String, u64)>,
    /// Cumulative histogram snapshots, capped at [`MAX_HISTS`].
    pub hists: Vec<(String, HistSnapshot)>,
    /// The newest flight-recorder events, capped at [`MAX_EVENTS`].
    pub events: Vec<Event>,
    /// Telemetry beats this worker has dropped so far (writer busy).
    pub drops: u64,
}

impl TelemetryBeat {
    /// Builds a beat from this process's live instruments: every
    /// `parma.*` counter, every histogram, and the newest ring events —
    /// each truncated to its cap, newest-first priority for events.
    pub fn from_local(echo: Option<ProbeEcho>, drops: u64) -> TelemetryBeat {
        let snap = mea_obs::snapshot();
        let counters = snap
            .counters
            .into_iter()
            .filter(|(name, _)| name.len() <= MAX_NAME)
            .take(MAX_COUNTERS)
            .collect();
        let hists = snap
            .hists
            .into_iter()
            .filter(|(name, _)| name.len() <= MAX_NAME)
            .take(MAX_HISTS)
            .collect();
        let events = mea_obs::events::recent_events(MAX_EVENTS);
        TelemetryBeat {
            echo,
            counters,
            hists,
            events,
            drops,
        }
    }

    /// Serializes the beat, enforcing every cap.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.put_u8(TAG_BEAT);
        match self.echo {
            Some(e) => {
                w.put_u8(1);
                w.put_u64(e.seq);
                w.put_u64(e.t_c_send_us);
                w.put_u64(e.t_w_recv_us);
            }
            None => w.put_u8(0),
        }
        let counters: Vec<_> = self.counters.iter().take(MAX_COUNTERS).collect();
        w.put_u32(counters.len() as u32);
        for (name, v) in counters {
            w.put_str(name);
            w.put_u64(*v);
        }
        let hists: Vec<_> = self.hists.iter().take(MAX_HISTS).collect();
        w.put_u32(hists.len() as u32);
        for (name, h) in hists {
            w.put_str(name);
            w.put_u64(h.count);
            w.put_f64(h.sum);
            w.put_f64(h.min);
            w.put_f64(h.max);
            w.put_u32(h.buckets.len() as u32);
            for &(idx, count) in &h.buckets {
                w.put_u32(idx as u32);
                w.put_u64(count);
            }
        }
        let events: Vec<_> = self.events.iter().take(MAX_EVENTS).collect();
        w.put_u32(events.len() as u32);
        for e in events {
            w.put_u64(e.seq);
            w.put_u64(e.t_us);
            w.put_u8(e.kind.code());
            w.put_u64(e.item);
            w.put_u64(e.info);
            w.put_f64(e.value);
        }
        w.put_u64(self.drops);
        w.into_bytes()
    }

    /// Deserializes a beat, rejecting payloads that claim more entries
    /// than the caps allow (so a corrupt length can't balloon memory).
    pub fn decode(payload: &[u8]) -> Result<TelemetryBeat, DecodeError> {
        let mut r = PayloadReader::new(payload);
        let tag = r.take_u8()?;
        if tag != TAG_BEAT {
            return Err(DecodeError::BadTag(tag));
        }
        let echo = match r.take_u8()? {
            0 => None,
            _ => Some(ProbeEcho {
                seq: r.take_u64()?,
                t_c_send_us: r.take_u64()?,
                t_w_recv_us: r.take_u64()?,
            }),
        };
        let nc = r.take_u32()? as usize;
        if nc > MAX_COUNTERS {
            return Err(DecodeError::Truncated);
        }
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            counters.push((r.take_str()?.to_string(), r.take_u64()?));
        }
        let nh = r.take_u32()? as usize;
        if nh > MAX_HISTS {
            return Err(DecodeError::Truncated);
        }
        let mut hists = Vec::with_capacity(nh);
        for _ in 0..nh {
            let name = r.take_str()?.to_string();
            let count = r.take_u64()?;
            let sum = r.take_f64()?;
            let min = r.take_f64()?;
            let max = r.take_f64()?;
            let nb = r.take_u32()? as usize;
            if nb > 4096 {
                return Err(DecodeError::Truncated);
            }
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                buckets.push((r.take_u32()? as usize, r.take_u64()?));
            }
            hists.push((
                name,
                HistSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            ));
        }
        let ne = r.take_u32()? as usize;
        if ne > MAX_EVENTS {
            return Err(DecodeError::Truncated);
        }
        let mut events = Vec::with_capacity(ne);
        for _ in 0..ne {
            let seq = r.take_u64()?;
            let t_us = r.take_u64()?;
            let code = r.take_u8()?;
            let kind = EventKind::from_code(code).ok_or(DecodeError::BadTag(code))?;
            events.push(Event {
                seq,
                t_us,
                kind,
                item: r.take_u64()?,
                info: r.take_u64()?,
                value: r.take_f64()?,
            });
        }
        let drops = r.take_u64()?;
        Ok(TelemetryBeat {
            echo,
            counters,
            hists,
            events,
            drops,
        })
    }

    /// Converts the beat into the fleet store's merge input.
    pub fn into_update(self) -> TelemetryUpdate {
        TelemetryUpdate {
            counters: self.counters,
            hists: self.hists,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_beat() -> TelemetryBeat {
        TelemetryBeat {
            echo: Some(ProbeEcho {
                seq: 7,
                t_c_send_us: 1_000,
                t_w_recv_us: 5_500,
            }),
            counters: vec![("parma.dist.worker.assignments".into(), 3)],
            hists: vec![(
                "parma.dist.worker.solve_ms".into(),
                HistSnapshot::from_values(&[1.5, 2.5, 40.0]),
            )],
            events: vec![Event {
                seq: 9,
                t_us: 1234,
                kind: EventKind::DistTraceAdopt,
                item: mea_obs::events::job_key(2),
                info: 0xabc,
                value: 0xdef as f64,
            }],
            drops: 1,
        }
    }

    #[test]
    fn beats_round_trip() {
        let beat = sample_beat();
        let back = TelemetryBeat::decode(&beat.encode()).unwrap();
        assert_eq!(back, beat);
        let empty = TelemetryBeat::default();
        assert_eq!(TelemetryBeat::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn probes_round_trip_and_keepalives_are_not_probes() {
        let p = Probe {
            seq: 4,
            t_c_send_us: 99,
        };
        assert_eq!(decode_probe(&encode_probe(p)), Some(p));
        assert_eq!(decode_probe(&[]), None, "v1 empty keepalive");
        assert_eq!(decode_probe(&sample_beat().encode()), None);
    }

    #[test]
    fn truncated_beats_never_panic() {
        let bytes = sample_beat().encode();
        for len in 0..bytes.len() {
            assert!(TelemetryBeat::decode(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn oversized_counts_are_rejected_not_allocated() {
        // Forge a beat claiming u32::MAX counters right after the header.
        let mut w = PayloadWriter::new();
        w.put_u8(TAG_BEAT);
        w.put_u8(0);
        w.put_u32(u32::MAX);
        assert!(TelemetryBeat::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn encode_truncates_to_caps() {
        let mut beat = TelemetryBeat::default();
        for i in 0..(MAX_COUNTERS + 10) {
            beat.counters.push((format!("c{i}"), i as u64));
        }
        let back = TelemetryBeat::decode(&beat.encode()).unwrap();
        assert_eq!(back.counters.len(), MAX_COUNTERS);
    }
}
