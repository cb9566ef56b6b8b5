//! The byte stream of a workload's serving calls, and its replay
//! through the `ingest` layer alone: per-connection deframing,
//! token-bucket admission plus the hub's profile check, and the bounded
//! lane queues.
//!
//! `run_streaming` documents its byte stream as a pure function of the
//! schedule and `FleetConfig::seed`: arrivals in tick order, each with a
//! hostile draw at `hostile_per_mille` (garbage, a truncated hello or
//! session traffic before any Negotiate), then one to three chunks cut
//! at random points. [`call_stream`] rebuilds that stream for one call
//! whose arrivals are all due at tick 0, so the benchmark knows the true
//! kind of every arrival independently of the verdicts the program
//! reports, and the replay runs on the workload's own bytes.

use std::hint::black_box;

use medsec_fleet::{admit_negotiate, CurveChoice, StreamingConfig};
use medsec_ingest::{AdmissionControl, BoundedLaneQueue, ConnState, Connection, Ingress};
use medsec_protocols::wire::{self, MsgType};
use medsec_protocols::{CurveId, ProtocolId, SecurityProfile};
use medsec_rng::SplitMix64;

use crate::stats::time_median;
use crate::Metrics;

/// What one arrival carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Genuine,
    /// Unknown tag: the deframer must fail closed.
    Garbage,
    /// A Negotiate header whose body never comes: stays pending.
    Truncated,
    /// Session traffic before any Negotiate: a state violation.
    OutOfState,
}

/// One arrival of a serving call: who sent it, what it is, and the
/// reads it is delivered in.
pub struct Item {
    profile: SecurityProfile,
    class: usize,
    lane: usize,
    pub kind: Kind,
    chunks: Vec<Vec<u8>>,
}

/// One arrival of the workload: its device's profile, admission class
/// and hub lane.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    pub profile: SecurityProfile,
    pub class: usize,
    pub lane: usize,
}

const REPS: usize = 5;

/// The arrivals of one `run_streaming` call with `seed` as
/// `FleetConfig::seed`, every arrival at tick 0, in schedule order.
pub fn call_stream(sources: &[Source], seed: u64, hostile_per_mille: u32) -> Vec<Item> {
    let mut rng = SplitMix64::new(seed ^ 0xC4_0C4_0C4_0C4_0C4);
    sources
        .iter()
        .map(|s| {
            let hostile =
                hostile_per_mille > 0 && rng.next_u64() % 1000 < u64::from(hostile_per_mille);
            let (kind, bytes) = if !hostile {
                (Kind::Genuine, s.profile.negotiate_frame().to_vec())
            } else {
                match rng.next_u64() % 3 {
                    0 => {
                        let mut b = vec![0xEE, 0x05];
                        b.extend((0..5).map(|_| rng.next_u64() as u8));
                        (Kind::Garbage, b)
                    }
                    1 => (
                        Kind::Truncated,
                        wire::encode_negotiate(0x7F, CurveId::K163, ProtocolId::Mutual)[..3]
                            .to_vec(),
                    ),
                    _ => (
                        Kind::OutOfState,
                        wire::frame(MsgType::Telemetry, b"stolen=vitals").to_vec(),
                    ),
                }
            };
            let reads = 1 + (rng.next_u64() % 3) as usize;
            let mut cuts: Vec<usize> = (1..reads)
                .map(|_| (rng.next_u64() as usize) % (bytes.len() + 1))
                .chain([0, bytes.len()])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            Item {
                profile: s.profile,
                class: s.class,
                lane: s.lane,
                kind,
                chunks: cuts.windows(2).map(|w| bytes[w[0]..w[1]].to_vec()).collect(),
            }
        })
        .collect()
}

/// Replay `groups` (one stream per serving call, as [`call_stream`]
/// rebuilt them) through the ingest layer and book its per-layer costs.
pub fn ingest(
    groups: &[Vec<Item>],
    scfg: &StreamingConfig,
    lanes: usize,
    m: &mut Metrics,
) -> Result<(), String> {
    let arrivals: usize = groups.iter().map(Vec::len).sum();

    // Deframe + classify, checking every arrival's verdict.
    let mut wrong = 0usize;
    let deframe = time_median(REPS, || {
        for item in groups.iter().flatten() {
            let mut conn = Connection::new();
            let (mut verdict, mut odd) = (None, false);
            for c in &item.chunks {
                conn.push(c);
                while let Some(ingress) = conn.next_ingress() {
                    match ingress {
                        Ingress::Negotiate(_) => verdict = Some(Kind::Genuine),
                        Ingress::Garbage(_) => verdict = Some(Kind::Garbage),
                        Ingress::Violation(_) => verdict = Some(Kind::OutOfState),
                        Ingress::Session(..) => odd = true,
                    }
                }
            }
            let pending = verdict.is_none()
                && conn.state() == ConnState::AwaitNegotiate
                && conn.pending() > 0;
            let ok = !odd
                && match item.kind {
                    Kind::Truncated => pending,
                    k => verdict == Some(k),
                };
            wrong += usize::from(!ok);
            black_box(&conn);
        }
        arrivals
    });
    if wrong > 0 {
        return Err(format!(
            "ingest replay: {wrong} arrivals got the wrong verdict"
        ));
    }

    // Admission: token buckets per call, then the profile check.
    let genuine: Vec<Vec<&Item>> = groups
        .iter()
        .map(|g| g.iter().filter(|i| i.kind == Kind::Genuine).collect())
        .collect();
    let frames: Vec<Vec<Vec<u8>>> = genuine
        .iter()
        .map(|g| g.iter().map(|i| i.chunks.concat()).collect())
        .collect();
    let hellos: usize = genuine.iter().map(Vec::len).sum();
    let mut denied = 0usize;
    let mut admitted: Vec<Vec<usize>> = Vec::new();
    let admit = time_median(REPS, || {
        admitted.clear();
        for (g, fs) in genuine.iter().zip(&frames) {
            let mut control = AdmissionControl::new(&scfg.class_policies);
            control.tick();
            let mut lanes_of = Vec::with_capacity(g.len());
            for (item, frame) in g.iter().zip(fs) {
                if !control.try_admit(item.class) {
                    continue;
                }
                let curve = CurveChoice::from_id(item.profile.curve);
                match admit_negotiate(frame, &item.profile, curve) {
                    Ok(p) if p == item.profile.protocol => lanes_of.push(item.lane),
                    _ => denied += 1,
                }
            }
            admitted.push(lanes_of);
        }
        hellos
    });
    if denied > 0 {
        return Err(format!("ingest replay: {denied} genuine hellos denied"));
    }

    // Bounded lane queues: enqueue every admitted job, drain per tick.
    let jobs: usize = admitted.iter().map(Vec::len).sum();
    let queue = time_median(REPS, || {
        for lanes_of in &admitted {
            let mut queues: Vec<BoundedLaneQueue<usize>> = (0..lanes)
                .map(|_| BoundedLaneQueue::new(scfg.queue_high_water))
                .collect();
            for (slot, &lane) in lanes_of.iter().enumerate() {
                black_box(queues[lane].push(slot));
            }
            for q in &mut queues {
                while !q.is_empty() {
                    black_box(q.drain_batch(scfg.drain_per_tick));
                }
            }
        }
        jobs
    });

    m.put("ingest.deframe_ns_per_frame", deframe, "ns");
    m.put("ingest.admit_ns", admit, "ns");
    m.put("ingest.queue_ns", queue, "ns");
    Ok(())
}
