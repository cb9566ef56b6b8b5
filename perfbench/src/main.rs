//! The gateway benchmark binary. Run it through `perfbench/run.py`,
//! which builds it and checks its output against `BENCHMARK.json`:
//!
//! ```text
//! perfbench --workload <pyramid_batch|ward_stream|sensor_storm>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--source <id>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same workload with allocation counting on every other serving call,
//! then measures every layer on its own and prints the per-layer
//! metrics. The last line of standard output is the result object.

mod alloc;
mod layers;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use medsec_fleet::{FleetConfig, GatewayHub};
use medsec_rng::SplitMix64;

use crate::stats::{median, pctl, rss_kb};
use crate::workload::Tally;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Spans recorded around the benchmark's calls into each layer, kept
/// in memory and written out when a traced run ends. Every span is a
/// direct child of the run.
#[derive(Debug, Default)]
pub struct SpanLog(Vec<(&'static str, u64, u64)>);

impl SpanLog {
    /// Record `[start, end)`, in ns since the run's clock started.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64) {
        self.0.push((name, start, end));
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .0
            .iter()
            .map(|(n, s, e)| format!("{{\"name\": \"{n}\", \"start_ns\": {s}, \"end_ns\": {e}}}"))
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// `setup_s` is this percentile of every provisioning time in the run.
/// On a shared virtual machine the host runs at one of several speeds
/// for seconds at a time; a low percentile of samples taken before and
/// after the measured run reads the program's cost at the host's fast
/// speed, where a median reads which speed the host happened to be in.
const SETUP_PCTL: f64 = 0.1;

/// Provision back to back for at least `secs` and five hubs, recording
/// each time [s]; returns the last hub.
fn provision_for(
    cfg: &FleetConfig,
    secs: f64,
    clock: &Instant,
    setup: &mut Vec<f64>,
    spans: &mut SpanLog,
) -> GatewayHub {
    let begin = clock.elapsed().as_secs_f64();
    let mut hub = None;
    let mut n = 0;
    while n < 5 || (clock.elapsed().as_secs_f64() - begin < secs && n < 2000) {
        drop(hub.take());
        let s = clock.elapsed().as_nanos() as u64;
        hub = Some(GatewayHub::provision(cfg));
        let e = clock.elapsed().as_nanos() as u64;
        spans.push("fleet.provision", s, e);
        setup.push((e - s) as f64 / 1e9);
        n += 1;
    }
    hub.expect("at least one provision")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), v);
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        out: map.get("out").cloned(),
        source: map
            .get("source")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let threads = stats::cores().clamp(1, 2);
    let cfg = spec.fleet_cfg(threads, args.seed);
    let clock = Instant::now();
    let at = |c: &Instant| c.elapsed().as_nanos() as u64;
    let mut spans = SpanLog::default();

    // Set-up: provision for half a second before the measured run,
    // keeping the last hub, and for longer after it, once the peak RSS
    // was read, so that the second hub alive then does not count
    // towards it; see `SETUP_PCTL`.
    let mut setup = Vec::new();
    let hub = provision_for(&cfg, 0.5, &clock, &mut setup, &mut spans);
    let backend = medsec_gf2m::backend::active_backend_name();

    // Warm-up (not measured, still checked).
    let warm = match &spec.open {
        None => workload::run_batch(&hub, &cfg, 0.0, false, &mut spans),
        Some(_) => workload::run_open(
            &hub,
            &spec,
            &cfg,
            args.seed ^ 0x3A3A,
            1.0,
            false,
            &mut spans,
        ),
    };

    let energy_before = workload::device_energy(&hub);
    let rss_before = rss_kb().0 as f64;
    let mut t: Tally = match &spec.open {
        None => workload::run_batch(&hub, &cfg, args.seconds, args.trace, &mut spans),
        Some(_) => workload::run_open(
            &hub,
            &spec,
            &cfg,
            args.seed,
            args.seconds,
            args.trace,
            &mut spans,
        ),
    };
    let (rss_after, hwm) = rss_kb();
    let rss_growth_kb = rss_after as f64 - rss_before;
    let energy_after = workload::device_energy(&hub);
    let mut per_profile_uj = BTreeMap::new();
    let energy_uj =
        workload::energy_gate(&energy_before, &energy_after, &mut t, &mut per_profile_uj);
    for e in &warm.errors {
        t.error(format!("warm-up: {e}"));
    }
    drop(provision_for(&cfg, 3.0, &clock, &mut setup, &mut spans));

    // Untraced runs report the bounded end-to-end metrics, traced runs
    // the latency figures among the per-layer ones; the rest goes to the
    // notes.
    let mut e2e = Metrics::default();
    let mut notes = workload::end_to_end(
        &mut t,
        energy_uj,
        pctl(&setup, SETUP_PCTL),
        hwm as f64 / 1024.0,
        spec.open.as_ref().map(|o| o.scfg.slo_p99_ms),
        &mut e2e,
    );
    let mut m = Metrics::default();
    for (name, value, unit) in e2e.0 {
        if name.starts_with("latency.") == args.trace {
            m.put(&name, value, unit);
        } else {
            notes.push(format!("{name} = {value} {unit}"));
        }
    }
    if args.trace {
        let mut rng = SplitMix64::new(args.seed ^ 0x001A_7E25);
        let s = at(&clock);
        let costs = match layers::protocols(&mut rng, &mut m) {
            Ok(c) => c,
            Err(e) => {
                t.error(format!("protocols layer: {e}"));
                Vec::new()
            }
        };
        spans.push("layers.protocols", s, at(&clock));
        let s = at(&clock);
        layers::gf2m(&mut rng, &mut m);
        spans.push("layers.gf2m", s, at(&clock));
        let s = at(&clock);
        layers::ec(&mut rng, &mut m);
        spans.push("layers.ec", s, at(&clock));

        // Ingest: replay this run's own byte stream (a closed batch's
        // is every device's hello, in waves of 64).
        let sources = spec.sources();
        let scfg = spec
            .open
            .as_ref()
            .map_or_else(Default::default, |o| o.scfg.clone());
        let groups: Vec<Vec<replay::Item>> = if t.groups.is_empty() {
            sources
                .chunks(layers::WAVE)
                .zip(0u64..)
                .map(|(g, i)| replay::call_stream(g, args.seed ^ i, 0))
                .collect()
        } else {
            t.groups
                .iter()
                .map(|(seed, g)| {
                    let srcs: Vec<replay::Source> = g.iter().map(|&d| sources[d]).collect();
                    replay::call_stream(&srcs, *seed, scfg.hostile_per_mille)
                })
                .collect()
        };
        let s = at(&clock);
        if let Err(e) = replay::ingest(&groups, &scfg, hub.lanes().len(), &mut m) {
            t.error(e);
        }
        spans.push("layers.ingest_replay", s, at(&clock));

        let mut probes = Tally::default();
        let s = at(&clock);
        let fixed = workload::call_fixed(&hub, &cfg, &scfg, &mut probes);
        spans.push("fleet.call_fixed", s, at(&clock));
        for e in std::mem::take(&mut probes.errors) {
            t.error(e);
        }
        m.put("fleet.call_fixed_ms", fixed, "ms");
        workload::fleet_layer(&t, threads, &costs, rss_growth_kb, &mut m);
        workload::ingest_ratios(if spec.open.is_some() { &t } else { &probes }, &mut m);

        for (p, c) in &costs {
            let (uj, from) = match per_profile_uj.get(&p.name()) {
                Some(&uj) => (uj, "fleet device ledgers"),
                None => (
                    c.device_uj,
                    "suite lifecycle ledger (profile not in this fleet)",
                ),
            };
            m.put(&format!("power.device_uj.{}", layers::slug(p)), uj, "uJ");
            notes.push(format!(
                "power.device_uj.{}: {uj:.3} uJ from {from}",
                layers::slug(p)
            ));
        }
        m.put(
            "loadgen.wake_late_ms_p99",
            pctl(&t.wake_late_ms, 0.99),
            "ms",
        );
        m.put("loadgen.offered", t.offered as f64, "count");
        notes.push(format!(
            "fleet.overhead_ratio base: {} sessions over {} calls, {threads} workers",
            t.completions,
            t.calls.len()
        ));
        notes.push(format!(
            "ingest.hostile_rejected_ratio base: {} hostile arrivals, {} of them truncated hellos left pending",
            t.hostile, t.truncated
        ));
    }

    notes.push(format!(
        "setup_s: p{:.0} of {} provisions before and after the measured run (min {:.6} s, median {:.6} s, max {:.6} s)",
        SETUP_PCTL * 100.0,
        setup.len(),
        pctl(&setup, 0.0),
        median(&setup),
        pctl(&setup, 1.0),
    ));
    let correct = t.errors.is_empty();
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"params\": {}, \"host_cores\": {}, \"cpu_flags\": {}, \"backend\": {}, \"threads\": {threads}, \"source\": {}}}",
        quote(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        quote(&spec.params()),
        stats::cores(),
        quote(&stats::cpu_flags().join(" ")),
        quote(backend),
        quote(&args.source),
    );
    println!("# meta {meta}");
    for n in &notes {
        println!("# {n}");
    }
    for e in &t.errors {
        println!("# GATE FAILED: {e}");
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.offered.max(1),
        t.failed,
        m.json()
    );
    if let Some(dir) = &args.out {
        let tag = format!(
            "{}-seed{}-trace{}",
            spec.name,
            args.seed,
            u8::from(args.trace)
        );
        let notes_json: Vec<String> = notes.iter().chain(&t.errors).map(|n| quote(n)).collect();
        let full = format!(
            "{{\"meta\": {meta}, \"notes\": [{}], \"result\": {result}}}\n",
            notes_json.join(", ")
        );
        let write = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(format!("{dir}/{tag}.json"), full))
            .and_then(|_| match args.trace {
                true => std::fs::write(format!("{dir}/{tag}.spans.json"), spans.json()),
                false => Ok(()),
            });
        if let Err(e) = write {
            eprintln!("perfbench: writing results to {dir}: {e}");
            std::process::exit(1);
        }
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
