//! The three workloads, the loops that run them, and the correctness gate.
//!
//! * `pyramid_batch` — closed batch: every device of a ~13k-device
//!   mixed fleet runs one session per `GatewayHub::run` call.
//! * `ward_stream` — open loop: Poisson arrivals at a fixed absolute
//!   rate over a ~3k-device mixed fleet, served by `run_streaming`.
//! * `sensor_storm` — open loop with synchronized reconnect bursts of
//!   symmetric sensors over a trickle, plus hostile frames.
//!
//! Each open loop runs its schedule in two halves (see [`run_open`]).
//! In the paced half an event-driven generator hands every arrival
//! already due to one `run_streaming` call (as tick-0 arrivals) and
//! busy-waits while idle; a session is timed from its due time to the
//! return of the call that served it. In the back-to-back half the
//! schedule's arrivals are served as fast as the program can, which is
//! what `sessions_per_s` measures.

use std::collections::BTreeMap;
use std::time::Instant;

use medsec_ec::CurveSpec;
use medsec_fleet::{
    device_class, mixed_hospital_wards, Arrival, CurveLane, DeviceKind, FleetConfig, FleetReport,
    GatewayHub, Lane, StreamingConfig, WardSpec,
};
use medsec_protocols::{CurveId, ProtocolId, SecurityProfile};
use medsec_rng::SplitMix64;

use crate::replay::{self, Kind, Source};
use crate::stats::{median, pctl, tail};
use crate::{alloc, Metrics, SpanLog};

/// Open-loop traffic shape.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    /// Poisson arrivals per second over the whole fleet.
    pub rate_per_s: f64,
    /// Synchronized reconnects: every `period_s`, `size` distinct
    /// devices of ward 0 all fall due at once.
    pub burst: Option<(f64, usize)>,
    /// Schedule time one call of the back-to-back half takes arrivals
    /// from [ns]; see [`run_open`].
    pub slice_ns: u64,
    /// Queues, drain rate, token buckets, hostile per-mille and the
    /// latency SLO.
    pub scfg: StreamingConfig,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub wards: Vec<WardSpec>,
    pub forged_per_mille: u32,
    /// `None`: closed batch through `GatewayHub::run`.
    pub open: Option<OpenLoop>,
}

pub fn spec(name: &str) -> Option<Spec> {
    let sensor = SecurityProfile::new(CurveId::Toy17, ProtocolId::Symmetric);
    let pacemaker = SecurityProfile::new(CurveId::K163, ProtocolId::Mutual);
    Some(match name {
        "pyramid_batch" => Spec {
            name: "pyramid_batch",
            wards: mixed_hospital_wards(256),
            forged_per_mille: 10,
            open: None,
        },
        "ward_stream" => Spec {
            name: "ward_stream",
            wards: mixed_hospital_wards(60),
            forged_per_mille: 0,
            open: Some(OpenLoop {
                // About half of the ~3.7k sessions/s this path sustained
                // (without a growing backlog) on a 2-core AVX-512 host.
                rate_per_s: 1800.0,
                burst: None,
                slice_ns: 100_000_000,
                scfg: StreamingConfig::default(),
            }),
        },
        "sensor_storm" => {
            // The gateway's own front-end policy, plus hostile frames.
            let scfg = StreamingConfig {
                hostile_per_mille: 50,
                ..StreamingConfig::default()
            };
            Spec {
                name: "sensor_storm",
                wards: vec![WardSpec::new(sensor, 2880), WardSpec::new(pacemaker, 240)],
                forged_per_mille: 0,
                open: Some(OpenLoop {
                    // Every sensor reports about once every 10 s.
                    rate_per_s: 2880.0 / 10.0,
                    // A storm is twice what one call admits per class.
                    burst: Some((
                        1.0,
                        2 * call_admit_ceiling(&scfg, device_class(DeviceKind::WardSensor)),
                    )),
                    // One call per burst period.
                    slice_ns: 1_000_000_000,
                    scfg,
                }),
            }
        }
        _ => return None,
    })
}

/// Most Negotiates of one class a single `run_streaming` call can admit
/// when all its arrivals are due at tick 0: a full bucket at tick 0,
/// then one refill for each further tick an arrival's reads span (at
/// most three reads, so two more ticks).
fn call_admit_ceiling(scfg: &StreamingConfig, class: usize) -> usize {
    let p = scfg.class_policies[class];
    p.burst as usize + 2 * (p.refill_milli_per_tick as usize / 1000)
}

impl Spec {
    pub fn devices(&self) -> usize {
        self.wards.iter().map(|w| w.devices).sum()
    }

    pub fn fleet_cfg(&self, threads: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            threads,
            shards: 16,
            batch_size: 64,
            seed,
            forged_per_mille: self.forged_per_mille,
            wards: self.wards.clone(),
            ..FleetConfig::default()
        }
    }

    /// Per-device facts, in the hub's global id order (ward order):
    /// profile, admission class and lane (lanes follow the order in
    /// which curves first appear).
    pub fn sources(&self) -> Vec<Source> {
        let mut curves: Vec<CurveId> = Vec::new();
        let mut out = Vec::with_capacity(self.devices());
        for w in &self.wards {
            if !curves.contains(&w.profile.curve) {
                curves.push(w.profile.curve);
            }
            let lane = curves
                .iter()
                .position(|&c| c == w.profile.curve)
                .unwrap_or(0);
            let class = device_class(DeviceKind::for_protocol(w.profile.protocol));
            out.extend((0..w.devices).map(|_| Source {
                profile: w.profile,
                class,
                lane,
            }));
        }
        out
    }

    pub fn params(&self) -> String {
        let wards: Vec<String> = self
            .wards
            .iter()
            .map(|w| format!("{}x{}", w.profile.name(), w.devices))
            .collect();
        let shape = match &self.open {
            None => "closed batch, every device once per GatewayHub::run".to_string(),
            Some(o) => format!(
                "open loop, Poisson {}/s{}, hostile {} per mille, queue_high_water {}, drain_per_tick {}, class burst {} refill {}/tick, SLO {} ms, paced first half then back-to-back calls of {} ms of schedule",
                o.rate_per_s,
                o.burst
                    .map(|(p, n)| format!(", bursts of {n} every {p} s"))
                    .unwrap_or_default(),
                o.scfg.hostile_per_mille,
                o.scfg.queue_high_water,
                o.scfg.drain_per_tick,
                o.scfg.class_policies[0].burst,
                o.scfg.class_policies[0].refill_milli_per_tick / 1000,
                o.scfg.slo_p99_ms,
                o.slice_ns / 1_000_000,
            ),
        };
        format!(
            "{} devices [{}], batch_size 64, forged_per_mille {}, {shape}",
            self.devices(),
            wards.join(", "),
            self.forged_per_mille
        )
    }
}

/// One serving call as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub dur_ns: u64,
    pub sessions: u64,
    /// Open loop: served in the paced half, whose sessions are timed.
    pub paced: bool,
    /// Open loop: due time of the call's first arrival [ns].
    pub due_ns: u64,
    pub traced: bool,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Everything the measured run produced.
#[derive(Debug, Default)]
pub struct Tally {
    pub calls: Vec<Call>,
    /// Per timed session, due time → completion [ms]: every session of
    /// a closed batch, the paced half's of an open loop.
    pub latencies_ms: Vec<f64>,
    pub completions: u64,
    /// Arrivals handed to the program, hostile ones included.
    pub offered: u64,
    pub genuine: u64,
    pub hostile: u64,
    /// Hostile arrivals that were truncated hellos (left pending).
    pub truncated: u64,
    /// Genuine sessions turned away by rate limits or shedding.
    pub refused: u64,
    /// Paced sessions completed within the SLO, and the genuine
    /// arrivals of the paced half.
    pub slo_ok: u64,
    pub paced_genuine: u64,
    /// Sessions that ended in an error outcome.
    pub failed: u64,
    /// Why the correctness gate failed, if it did.
    pub errors: Vec<String>,
    pub per_profile_ok: BTreeMap<String, u64>,
    pub forged_rejected: u64,
    pub wake_late_ms: Vec<f64>,
    pub wall_s: f64,
    // Summed `StreamingStats` counters.
    pub arrivals: u64,
    pub admitted: u64,
    pub rate_limited: u64,
    pub shed: u64,
    pub garbage: u64,
    pub violations: u64,
    /// The `FleetConfig::seed` and arrivals of each call, for the
    /// ingest replay.
    pub groups: Vec<(u64, Vec<usize>)>,
}

impl Tally {
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 16 {
            self.errors.push(msg);
        } else if self.errors.len() == 16 {
            self.errors.push("…further errors suppressed".into());
        }
    }

    /// Fold one call's report: completions from deltas of the hub's
    /// gateway counters (mutual + PH) plus the call's own
    /// symmetric/Schnorr tally, never from the report's totals, which
    /// mix cumulative gateway counters into every call on a reused hub.
    fn fold_report(
        &mut self,
        before: &medsec_fleet::gateway::GatewayCounters,
        after: &medsec_fleet::gateway::GatewayCounters,
        report: &FleetReport,
    ) -> u64 {
        let established = after.established - before.established;
        let identified = after.ph_identified - before.ph_identified;
        // `sessions_ok` = cumulative `established` + this call's
        // suite-authenticated sessions.
        let suite_ok = report.sessions_ok - after.established;
        let completions = established + identified + suite_ok;
        // `sessions_failed` = this call's serving-loop failures (forged
        // hellos accepted, mismatches, rejected negotiations, device
        // rejections, suite auth failures) + cumulative gateway
        // auth/decode failures.
        let call_failed = report.sessions_failed - after.auth_failures - after.decode_failures;
        let gateway_failed = (after.auth_failures - before.auth_failures)
            + (after.decode_failures - before.decode_failures)
            + (after.ph_failures - before.ph_failures);
        if call_failed + gateway_failed > 0 {
            self.failed += call_failed + gateway_failed;
            self.error(format!(
                "{call_failed} failed sessions (forged accepted, mismatch, negotiation rejected, device or suite rejection) and {gateway_failed} gateway failures in one call"
            ));
        }
        let by_profile: u64 = report.profiles.iter().map(|p| p.sessions_ok).sum();
        if by_profile != completions {
            self.error(format!(
                "per-profile completions {by_profile} disagree with counter deltas {completions}"
            ));
        }
        for p in &report.profiles {
            *self.per_profile_ok.entry(p.profile.clone()).or_default() += p.sessions_ok;
        }
        self.completions += completions;
        self.forged_rejected += report.forged_rejected;
        completions
    }
}

/// Device ledger energy per profile name [J], summed over the hub.
pub fn device_energy(hub: &GatewayHub) -> BTreeMap<String, (SecurityProfile, f64)> {
    fn lane<C: CurveSpec>(l: &CurveLane<C>, out: &mut BTreeMap<String, (SecurityProfile, f64)>) {
        for cell in &l.devices {
            let d = cell
                .lock()
                .expect("device lock poisoned by a serving panic");
            let e = out
                .entry(d.profile.suite.name())
                .or_insert((d.profile.suite, 0.0));
            e.1 += d.ledger.total();
        }
    }
    let mut out = BTreeMap::new();
    for l in hub.lanes() {
        match l {
            Lane::Toy17(l) => lane(l, &mut out),
            Lane::B163(l) => lane(l, &mut out),
            Lane::K163(l) => lane(l, &mut out),
            Lane::K233(l) => lane(l, &mut out),
            Lane::K283(l) => lane(l, &mut out),
        }
    }
    out
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Closed batch: repeat `GatewayHub::run` over the whole fleet until
/// `seconds` have passed. Every session of a call is due when the call
/// starts and completes when it returns. In a traced run every other
/// call is counted by the allocator.
pub fn run_batch(
    hub: &GatewayHub,
    cfg: &FleetConfig,
    seconds: f64,
    trace: bool,
    spans: &mut SpanLog,
) -> Tally {
    let mut t = Tally::default();
    let t0 = Instant::now();
    let devices = hub.device_count() as u64;
    loop {
        let traced = trace && t.calls.len() % 2 == 1;
        let before = hub.counters();
        let start = since(t0);
        let (report, allocs, alloc_bytes) = if traced {
            alloc::counted(|| hub.run(cfg))
        } else {
            (hub.run(cfg), 0, 0)
        };
        let end = since(t0);
        spans.push("fleet.run", start, end);
        let after = hub.counters();
        let done = t.fold_report(&before, &after, &report);
        t.offered += devices;
        t.genuine += devices;
        if done != devices {
            t.error(format!(
                "{done} of {devices} sessions completed in one batch"
            ));
        }
        if cfg.forged_per_mille > 0 && report.forged_rejected == 0 {
            t.error("no forged ServerHello was probed and rejected".into());
        }
        let dur_ms = (end - start) as f64 / 1e6;
        t.latencies_ms
            .extend(std::iter::repeat_n(dur_ms, done as usize));
        t.calls.push(Call {
            dur_ns: end - start,
            sessions: done,
            paced: false,
            due_ns: 0,
            traced,
            allocs,
            alloc_bytes,
        });
        if end as f64 / 1e9 >= seconds {
            t.wall_s = end as f64 / 1e9;
            break;
        }
    }
    t
}

/// An open-loop arrival: due time after the loop starts, and device.
#[derive(Debug, Clone, Copy)]
struct Due {
    ns: u64,
    device: usize,
}

/// The arrival schedule for `seconds`, a pure function of `seed`.
fn schedule(spec: &Spec, open: &OpenLoop, seed: u64, seconds: f64) -> Vec<Due> {
    let mut rng = SplitMix64::new(seed);
    let n = spec.devices();
    let unit = |rng: &mut SplitMix64| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - unit(&mut rng)).ln() / open.rate_per_s;
        if t >= seconds {
            break;
        }
        out.push(Due {
            ns: (t * 1e9) as u64,
            device: (rng.next_u64() % n as u64) as usize,
        });
    }
    if let Some((period, size)) = open.burst {
        let pool = spec.wards[0].devices;
        let mut ids: Vec<usize> = (0..pool).collect();
        let mut at = unit(&mut rng) * period;
        while at < seconds {
            // Partial Fisher–Yates: `size` distinct ward-0 devices.
            for i in 0..size.min(pool) {
                let j = i + (rng.next_u64() % (pool - i) as u64) as usize;
                ids.swap(i, j);
                out.push(Due {
                    ns: (at * 1e9) as u64,
                    device: ids[i],
                });
            }
            at += period;
        }
    }
    out.sort_by_key(|d| d.ns);
    out
}

/// An open-loop workload for `seconds`, in two halves of one schedule.
/// First half, paced: every arrival is handed over when it falls due,
/// and its session is timed from then. Second half, back to back: the
/// schedule's next arrivals are cut into slices of `slice_ns` schedule
/// time, each slice one call, each call made as soon as the previous
/// one returned, until `seconds` have passed and at least two
/// `WINDOW_NS` of schedule were served. The paced half measures
/// latency at the workload's rate; the back-to-back half measures how
/// fast the program serves that traffic, which the paced half cannot:
/// its throughput is the schedule's rate for as long as it keeps up.
/// Slices are long enough that a call's fixed cost (worker threads
/// spawned per tick, a per-device snapshot) does not swamp its sessions:
/// with 10 ms slices the figure ranged over a factor of three between
/// the runs of one set on a shared 2-vCPU host.
pub fn run_open(
    hub: &GatewayHub,
    spec: &Spec,
    cfg: &FleetConfig,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &mut SpanLog,
) -> Tally {
    let open = spec.open.as_ref().expect("open-loop workload");
    let paced_ns = (seconds / 2.0 * 1e9) as u64;
    let end_ns = (seconds * 1e9) as u64;
    // Back to back, the program gets through schedule faster than real
    // time; four times the run's length is more than it can reach.
    let dues = schedule(spec, open, seed, seconds * 4.0);
    let sources = spec.sources();
    let mut t = Tally::default();
    let mut cfg = cfg.clone();
    let mut seen = vec![u32::MAX; spec.devices()];
    let mut batch: Vec<Arrival> = Vec::new();
    let mut next = 0usize;
    let t0 = Instant::now();
    while next < dues.len() {
        let due = dues[next].ns;
        let paced = due < paced_ns;
        let now = since(t0);
        if !paced && now >= end_ns && due >= paced_ns + 2 * WINDOW_NS {
            break;
        }
        // The latest due time this call takes arrivals up to.
        let upto = if paced {
            now
        } else {
            (due / open.slice_ns + 1) * open.slice_ns - 1
        };
        if paced && due > now {
            // Spin rather than sleep: a sleeping vCPU wakes up to
            // milliseconds late on a virtual machine, and that delay
            // would be charged to the program's latency.
            let mut woke = now;
            while woke < due {
                std::hint::spin_loop();
                woke = since(t0);
            }
            spans.push("loadgen.wait", now, woke);
            t.wake_late_ms.push((woke - due) as f64 / 1e6);
            continue;
        }
        // Every arrival already due, each device at most once per call
        // (a device's second arrival waits for the next call).
        let call = t.calls.len() as u32;
        let first = next;
        batch.clear();
        while next < dues.len()
            && dues[next].ns <= upto
            && (dues[next].ns < paced_ns) == paced
            && seen[dues[next].device] != call
        {
            seen[dues[next].device] = call;
            batch.push(Arrival::new(dues[next].device, 0));
            next += 1;
        }
        // Hostile picks and chunk cuts inside the call follow its seed.
        cfg.seed = seed ^ u64::from(call).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let traced = trace && call % 2 == 1;
        let before = hub.counters();
        let start = since(t0);
        let (out, allocs, alloc_bytes) = if traced {
            alloc::counted(|| hub.run_streaming(&cfg, &open.scfg, &batch))
        } else {
            (hub.run_streaming(&cfg, &open.scfg, &batch), 0, 0)
        };
        let end = since(t0);
        spans.push("fleet.run_streaming", start, end);
        let after = hub.counters();
        let done = t.fold_report(&before, &after, &out.report);
        let s = &out.stats;
        let n = batch.len() as u64;
        // The true kind of every arrival, rebuilt from the call's seed.
        let srcs: Vec<Source> = dues[first..next].iter().map(|d| sources[d.device]).collect();
        let stream = replay::call_stream(&srcs, cfg.seed, open.scfg.hostile_per_mille);
        let count = |k: Kind| stream.iter().filter(|i| i.kind == k).count() as u64;
        let (genuine, truncated) = (count(Kind::Genuine), count(Kind::Truncated));
        let hostile = n - genuine;
        // Genuine arrivals end admitted, rate-limited or shed; garbage
        // and out-of-state frames are refused; truncated hellos stay
        // pending. No hostile arrival is admitted.
        let genuine_outcomes = s.admitted + s.rate_limited + s.shed + s.admission_denied;
        if genuine_outcomes != genuine || s.garbage + s.violations != hostile - truncated {
            t.error(format!(
                "{genuine_outcomes} genuine outcomes for {genuine} genuine arrivals, {} refusals for {} garbage and out-of-state arrivals",
                s.garbage + s.violations,
                hostile - truncated
            ));
        }
        if s.arrivals != n {
            t.error(format!("{} of {n} arrivals delivered", s.arrivals));
        }
        if s.admission_denied > 0 {
            t.error(format!(
                "{} genuine hellos denied admission",
                s.admission_denied
            ));
        }
        if done != s.admitted {
            t.error(format!("{done} completions but {} admitted", s.admitted));
        }
        // Only the remaining reads of an arrival whose connection was
        // just closed may land on a dead connection (at most 2 more).
        if s.stray_sessions > 0 || s.dead_deliveries > 2 * (s.garbage + s.violations) {
            t.error(format!(
                "{} stray session frames, {} dead deliveries",
                s.stray_sessions, s.dead_deliveries
            ));
        }
        // Which of a call's genuine arrivals were refused is not
        // observable, so completions are charged to the earliest-due
        // arrivals: latencies are an upper bound.
        if paced {
            for d in &dues[first..first + done.min(n) as usize] {
                let ms = end.saturating_sub(d.ns) as f64 / 1e6;
                t.latencies_ms.push(ms);
                t.slo_ok += u64::from(ms <= open.scfg.slo_p99_ms);
            }
            t.paced_genuine += genuine;
        }
        t.offered += n;
        t.hostile += hostile;
        t.truncated += truncated;
        t.genuine += genuine;
        t.refused += s.rate_limited + s.shed;
        t.arrivals += s.arrivals;
        t.admitted += s.admitted;
        t.rate_limited += s.rate_limited;
        t.shed += s.shed;
        t.garbage += s.garbage;
        t.violations += s.violations;
        t.groups
            .push((cfg.seed, dues[first..next].iter().map(|d| d.device).collect()));
        t.calls.push(Call {
            dur_ns: end - start,
            sessions: done,
            paced,
            due_ns: dues[first].ns,
            traced,
            allocs,
            alloc_bytes,
        });
        t.wall_s = end as f64 / 1e9;
    }
    if open.scfg.hostile_per_mille > 0 && t.garbage + t.violations == 0 {
        t.error("hostile traffic never tripped the garbage or violation paths".into());
    }
    t
}

/// Schedule time a throughput window of an open loop's back-to-back
/// half covers [ns]: one burst of `sensor_storm` each.
const WINDOW_NS: u64 = 1_000_000_000;

/// The throughput windows of the measured run, as (sessions completed,
/// seconds spent in serving calls): one per call of a closed batch; for
/// an open loop, the back-to-back calls whose arrivals fell due in each
/// `WINDOW_NS` of schedule time from the half's first arrival (the last
/// window, cut short when the run ended, is left out).
fn throughput_windows(t: &Tally, open: bool) -> Vec<(u64, f64)> {
    let calls: Vec<&Call> = t.calls.iter().filter(|c| !c.paced).collect();
    if !open {
        return calls
            .iter()
            .map(|c| (c.sessions, c.dur_ns as f64 / 1e9))
            .collect();
    }
    let origin = calls.first().map_or(0, |c| c.due_ns);
    let mut by_window: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    for c in calls {
        let w = by_window.entry((c.due_ns - origin) / WINDOW_NS).or_default();
        w.0 += c.sessions;
        w.1 += c.dur_ns as f64 / 1e9;
    }
    by_window.pop_last();
    by_window.into_values().collect()
}

/// The end-to-end metrics of the measured run, and the session latency
/// figures (`latency.*`, reported with the per-layer metrics).
/// `sessions_per_s` is the median over throughput windows of sessions
/// completed per second spent in serving calls, so that a stall of the
/// shared host moves one window rather than the whole figure. `slo_ms`
/// is an open loop's latency SLO.
pub fn end_to_end(
    t: &mut Tally,
    energy_uj: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    slo_ms: Option<f64>,
    m: &mut Metrics,
) -> Vec<String> {
    let wins = throughput_windows(t, slo_ms.is_some());
    let rates: Vec<f64> = wins.iter().map(|&(n, secs)| n as f64 / secs).collect();
    if rates.is_empty() {
        t.error("no complete throughput window".into());
    }
    let failed = t.genuine - t.completions.min(t.genuine);
    m.put("setup_s", setup_s, "s");
    m.put("sessions_per_s", median(&rates), "1/s");
    m.put("device_uj_per_session", energy_uj, "uJ");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put(
        "latency.session_p50_ms",
        pctl(&t.latencies_ms, 0.5),
        "ms",
    );
    m.put(
        "latency.session_p99_ms",
        pctl(&t.latencies_ms, 0.99),
        "ms",
    );
    m.put(
        "latency.slo_ok_ratio",
        t.slo_ok as f64 / t.paced_genuine.max(1) as f64,
        "ratio",
    );
    m.put(
        "latency.failed_ratio",
        failed as f64 / t.genuine.max(1) as f64,
        "ratio",
    );
    let (tail_label, tail_ms) = tail(&t.latencies_ms);
    let paced_s: f64 = t.calls.iter().filter(|c| c.paced).map(|c| c.dur_ns as f64 / 1e9).sum();
    let paced_sessions: u64 = t.calls.iter().filter(|c| c.paced).map(|c| c.sessions).sum();
    let mut notes = vec![format!(
        "whole run: {} sessions in {} calls over {:.3} s; sessions_per_s is the median over {} windows of {:?} (sessions, seconds in serving calls)",
        t.completions,
        t.calls.len(),
        t.wall_s,
        wins.len(),
        wins
    )];
    if let Some(slo) = slo_ms {
        let b2b: Vec<&Call> = t.calls.iter().filter(|c| !c.paced).collect();
        notes.push(format!(
            "back-to-back half: {} calls of {:.1} sessions on average, {:.3} ms per call",
            b2b.len(),
            b2b.iter().map(|c| c.sessions).sum::<u64>() as f64 / b2b.len().max(1) as f64,
            b2b.iter().map(|c| c.dur_ns as f64 / 1e6).sum::<f64>() / b2b.len().max(1) as f64,
        ));
        notes.push(format!(
            "paced half: {paced_sessions} sessions, {paced_s:.3} s in serving calls; latency from due time p50 {:.3} ms, {tail_label} {tail_ms:.3} ms (the highest percentile with >=10 samples beyond it), {} samples; slo_ok_ratio: {} of {} genuine arrivals completed within {slo} ms (refused ones count as misses); failed_ratio over the whole run: {failed} of {} genuine sessions not completed ({} refused by rate limits or shedding, {} ended in an error)",
            pctl(&t.latencies_ms, 0.5),
            t.latencies_ms.len(),
            t.slo_ok,
            t.paced_genuine,
            t.genuine,
            t.refused,
            t.failed
        ));
    }
    if t.forged_rejected > 0 {
        notes.push(format!(
            "{} forged ServerHellos probed and rejected, none accepted",
            t.forged_rejected
        ));
    }
    notes
}

/// Per-call and serving-path layer figures of a traced run.
pub fn fleet_layer(
    t: &Tally,
    threads: usize,
    costs: &[(SecurityProfile, crate::layers::SuiteCost)],
    rss_growth_kb: f64,
    m: &mut Metrics,
) {
    // The calls that set session latency: an open loop's paced ones.
    let any_paced = t.calls.iter().any(|c| c.paced);
    let timed: Vec<&Call> = t.calls.iter().filter(|c| c.paced == any_paced).collect();
    let dur_ms: Vec<f64> = timed.iter().map(|c| c.dur_ns as f64 / 1e6).collect();
    m.put("fleet.call_ms.p50", pctl(&dur_ms, 0.5), "ms");
    m.put("fleet.call_ms.p99", pctl(&dur_ms, 0.99), "ms");
    m.put(
        "fleet.sessions_per_call",
        timed.iter().map(|c| c.sessions).sum::<u64>() as f64 / timed.len().max(1) as f64,
        "count",
    );
    // Suite-level cost model: Σ sessions × (server + device) per
    // profile, against what the workers had (threads × call time).
    let model_us: f64 = costs
        .iter()
        .map(|(p, c)| {
            t.per_profile_ok.get(&p.name()).copied().unwrap_or(0) as f64
                * (c.server_us + c.device_us)
        })
        .sum();
    let busy_us: f64 = t.calls.iter().map(|c| c.dur_ns as f64 / 1e3).sum::<f64>() * threads as f64;
    m.put("fleet.suite_model_ms", model_us / 1e3, "ms");
    m.put("fleet.worker_ms", busy_us / 1e3, "ms");
    m.put(
        "fleet.overhead_ratio",
        1.0 - model_us / busy_us.max(1e-9),
        "ratio",
    );
    let traced: Vec<&Call> = t.calls.iter().filter(|c| c.traced).collect();
    let sessions: u64 = traced.iter().map(|c| c.sessions).sum();
    let allocs: u64 = traced.iter().map(|c| c.allocs).sum();
    let bytes: u64 = traced.iter().map(|c| c.alloc_bytes).sum();
    m.put(
        "fleet.allocs_per_session",
        allocs as f64 / sessions.max(1) as f64,
        "count",
    );
    m.put(
        "fleet.alloc_bytes_per_session",
        bytes as f64 / sessions.max(1) as f64,
        "B",
    );
    m.put(
        "fleet.rss_kb_per_ksession",
        rss_growth_kb / (t.completions.max(1) as f64 / 1000.0),
        "kB",
    );
    // Tracing overhead: allocator-counted calls against plain ones, in
    // per-session call time.
    let per_session = |traced: bool| {
        let v: Vec<f64> = t
            .calls
            .iter()
            .filter(|c| c.traced == traced && c.sessions > 0)
            .map(|c| c.dur_ns as f64 / c.sessions as f64)
            .collect();
        median(&v)
    };
    let (on, off) = (per_session(true), per_session(false));
    m.put(
        "trace.overhead_pct",
        if off > 0.0 {
            (on / off - 1.0) * 100.0
        } else {
            0.0
        },
        "%",
    );
}

/// Ingest ratios from the summed `StreamingStats`, with their bases.
pub fn ingest_ratios(t: &Tally, m: &mut Metrics) {
    let base = t.arrivals.max(1) as f64;
    m.put("ingest.arrivals", t.arrivals as f64, "count");
    m.put("ingest.hostile_arrivals", t.hostile as f64, "count");
    m.put("ingest.admitted_ratio", t.admitted as f64 / base, "ratio");
    m.put(
        "ingest.rate_limited_ratio",
        t.rate_limited as f64 / base,
        "ratio",
    );
    m.put("ingest.shed_ratio", t.shed as f64 / base, "ratio");
    m.put(
        "ingest.hostile_rejected_ratio",
        (t.garbage + t.violations) as f64 / t.hostile.max(1) as f64,
        "ratio",
    );
}

/// One-arrival `run_streaming` calls on the workload's hub: the fixed
/// cost every call pays. The probes' own stream counters and errors go
/// to `probes`.
pub fn call_fixed(
    hub: &GatewayHub,
    cfg: &FleetConfig,
    scfg: &StreamingConfig,
    probes: &mut Tally,
) -> f64 {
    const DEVICE: usize = 0;
    let mut samples = Vec::new();
    let mut cfg = cfg.clone();
    let scfg = StreamingConfig {
        hostile_per_mille: 0,
        ..scfg.clone()
    };
    for i in 0..21u64 {
        cfg.seed ^= i << 32;
        let before = hub.counters();
        let start = Instant::now();
        let out = hub.run_streaming(&cfg, &scfg, &[Arrival::new(DEVICE, 0)]);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
        let after = hub.counters();
        let done = probes.fold_report(&before, &after, &out.report);
        if done != 1 || out.stats.admitted != 1 {
            probes.error(format!(
                "one-arrival probe: {done} completed, {} admitted",
                out.stats.admitted
            ));
        }
        probes.arrivals += out.stats.arrivals;
        probes.admitted += out.stats.admitted;
        probes.rate_limited += out.stats.rate_limited;
        probes.shed += out.stats.shed;
    }
    median(&samples)
}

/// Check the device energy of every profile against its budget, over
/// the measured run; returns modeled µJ per completed session.
pub fn energy_gate(
    before: &BTreeMap<String, (SecurityProfile, f64)>,
    after: &BTreeMap<String, (SecurityProfile, f64)>,
    t: &mut Tally,
    per_profile_uj: &mut BTreeMap<String, f64>,
) -> f64 {
    let mut total = 0.0;
    let mut errors = Vec::new();
    for (id, (profile, e)) in after {
        let spent = e - before.get(id).map_or(0.0, |b| b.1);
        total += spent;
        let ok = t.per_profile_ok.get(id).copied().unwrap_or(0);
        if ok == 0 {
            continue;
        }
        let per = spent / ok as f64;
        per_profile_uj.insert(id.clone(), per * 1e6);
        if per > profile.energy_budget_j {
            errors.push(format!(
                "{} spends {:.2} uJ/session, over its {:.2} uJ budget",
                profile.name(),
                per * 1e6,
                profile.energy_budget_j * 1e6
            ));
        }
    }
    for e in errors {
        t.error(e);
    }
    total * 1e6 / t.completions.max(1) as f64
}
