//! Per-layer costs, measured by calling each layer's public functions
//! directly: `gf2m` field ops, `ec` scalar multiplications, and the
//! `protocols` suite lifecycle per profile. Every timing is the median
//! of several repetitions.

use std::hint::black_box;
use std::time::Instant;

use medsec_ec::ladder::ladder_mul;
use medsec_ec::{
    generator_mul, varbase_mul_add_gen, CoordinateBlinding, CurveSpec, Scalar, Toy17, B163, K163,
    K233, K283,
};
use medsec_fleet::{admit_negotiate, CurveChoice, DeviceKind};
use medsec_gf2m::{mul_planes, Element, FieldSpec, Planes, F163, F17, F233, F283};
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::mutual::{self, Ordering, Pairing};
use medsec_protocols::{
    CurveId, EnergyLedger, MutualServer, MutualSuite, PhReader, PhServer, PhSuite, ProtocolId,
    SchnorrSuite, SchnorrTag, SchnorrVerifier, SecurityProfile, SecuritySuite, SuiteOutcome,
    SymmetricGate, SymmetricServer, SymmetricSuite,
};
use medsec_rng::SplitMix64;

use crate::stats::{median, time_median};
use crate::Metrics;

const REPS: usize = 7;
/// Sessions per suite wave, matching the hub's `batch_size`.
pub const WAVE: usize = 64;

/// The seven profiles of the mixed hospital fleet, in ward order.
pub fn mixed_profiles() -> [SecurityProfile; 7] {
    use CurveId::*;
    use ProtocolId::*;
    [
        (Toy17, Mutual),
        (Toy17, Symmetric),
        (K163, Mutual),
        (K163, Ph),
        (B163, Schnorr),
        (K233, Mutual),
        (K283, Mutual),
    ]
    .map(|(c, p)| SecurityProfile::new(c, p))
}

/// Metric-name slug of a profile: `mutual@K163` → `mutual-k163`.
pub fn slug(p: &SecurityProfile) -> String {
    p.name().replace('@', "-").to_lowercase()
}

fn field<F: FieldSpec>(tag: &str, rng: &mut SplitMix64, m: &mut Metrics, batch: bool) {
    let xs: Vec<Element<F>> = (0..64).map(|_| Element::random(rng.as_fn())).collect();
    const N: usize = 1024;
    // Four independent chains, so the figure is throughput-like
    // rather than the latency of one dependent chain.
    let mul = time_median(REPS, || {
        let mut acc = [xs[0], xs[1], xs[2], xs[3]];
        for i in 0..N {
            for (j, a) in acc.iter_mut().enumerate() {
                *a *= xs[(i + j) & 63];
            }
        }
        black_box(acc);
        4 * N
    });
    let sqr = time_median(REPS, || {
        let mut acc = [xs[4], xs[5], xs[6], xs[7]];
        for _ in 0..N {
            for a in acc.iter_mut() {
                *a = a.square();
            }
        }
        black_box(acc);
        4 * N
    });
    let inv = time_median(REPS, || {
        let mut a = xs[8];
        for x in xs.iter().cycle().take(256) {
            a = a.inverse().unwrap_or_else(Element::one) + *x;
        }
        black_box(a);
        256
    });
    m.put(&format!("gf2m.mul_ns.{tag}"), mul, "ns");
    m.put(&format!("gf2m.sqr_ns.{tag}"), sqr, "ns");
    m.put(&format!("gf2m.inv_ns.{tag}"), inv, "ns");
    if batch {
        let (mut a, mut b, mut out) = (Planes::new(), Planes::new(), Planes::new());
        a.reset(64);
        b.reset(64);
        for i in 0..64 {
            a.set(i, &xs[i]);
            b.set(i, &xs[63 - i]);
        }
        let per_elem = time_median(REPS, || {
            for _ in 0..64 {
                mul_planes::<F>(&mut out, black_box(&a), &b);
            }
            black_box(&out);
            64 * 64
        });
        m.put(&format!("gf2m.mul_batch_ns_per_elem.{tag}"), per_elem, "ns");
    }
}

/// Field ops under the active backend.
pub fn gf2m(rng: &mut SplitMix64, m: &mut Metrics) {
    field::<F17>("f17", rng, m, false);
    field::<F163>("f163", rng, m, true);
    field::<F233>("f233", rng, m, true);
    field::<F283>("f283", rng, m, true);
}

fn curve<C: CurveSpec>(tag: &str, rng: &mut SplitMix64, m: &mut Metrics) {
    let ks: Vec<Scalar<C>> = (0..8)
        .map(|_| Scalar::random_nonzero(rng.as_fn()))
        .collect();
    let q = generator_mul::<C>(&ks[7]);
    // At least ~2 ms of work per repetition, so the cheap Toy17 ops
    // are not dominated by the clock read.
    let rounds = |one_op_ns: f64| ((2e6 / one_op_ns.max(1.0)) as usize).clamp(1, 512);
    let probe = time_median(1, || {
        black_box(generator_mul::<C>(&ks[0]));
        1
    });
    let r = rounds(probe);
    let comb = time_median(REPS, || {
        for i in 0..r {
            black_box(generator_mul::<C>(&ks[i & 7]));
        }
        r
    });
    let mul_add = time_median(REPS, || {
        for i in 0..r {
            black_box(varbase_mul_add_gen::<C>(
                &ks[i & 7],
                &ks[(i + 3) & 7],
                &q,
                rng.as_fn(),
            ));
        }
        r
    });
    let ladder = time_median(REPS, || {
        for i in 0..r {
            black_box(ladder_mul::<C>(
                &ks[i & 7],
                &q,
                CoordinateBlinding::RandomZ,
                rng.as_fn(),
            ));
        }
        r
    });
    m.put(&format!("ec.comb_ns.{tag}"), comb, "ns");
    m.put(&format!("ec.mul_add_ns.{tag}"), mul_add, "ns");
    m.put(&format!("ec.ladder_ns.{tag}"), ladder, "ns");
}

/// Fixed-base comb (server hello), `a·G + b·Q` (server verify) and the
/// protected ladder (device turn) on every curve of the mixed fleet.
pub fn ec(rng: &mut SplitMix64, m: &mut Metrics) {
    curve::<Toy17>("toy17", rng, m);
    curve::<B163>("b163", rng, m);
    curve::<K163>("k163", rng, m);
    curve::<K233>("k233", rng, m);
    curve::<K283>("k283", rng, m);
}

/// Per-session cost of one profile through the suite lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct SuiteCost {
    /// `hello_batch` + `server_verify_batch`, per session [µs].
    pub server_us: f64,
    /// `device_open` + `device_turn`, per session [µs].
    pub device_us: f64,
    /// Modeled device energy per session [µJ].
    pub device_uj: f64,
}

fn ledger() -> EnergyLedger {
    EnergyLedger::new(
        EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0),
        RadioModel::first_order_default(),
        2.0,
    )
}

/// Drive waves of `WAVE` sessions through `S` until about 150 ms of
/// work (at least three waves) and check every outcome.
fn waves<S: SecuritySuite>(
    server: &S::Server,
    devices: &mut [S::Device],
    telemetry: &[u8],
    expect: impl Fn(u32, &SuiteOutcome) -> bool,
    rng: &mut SplitMix64,
) -> Result<SuiteCost, String> {
    let n = devices.len() as f64;
    let (mut server_s, mut device_s, mut energy) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while server_s.len() < 3 || (started.elapsed().as_millis() < 150 && server_s.len() < 64) {
        let (mut dl, mut sl) = (ledger(), ledger());
        let t = Instant::now();
        let opens: Vec<_> = devices
            .iter_mut()
            .map(|d| S::device_open(d, rng.as_fn(), &mut dl))
            .collect();
        let mut dev = t.elapsed().as_secs_f64();
        let open_refs: Vec<(u32, Option<&[u8]>)> = opens
            .iter()
            .enumerate()
            .map(|(i, o)| (i as u32, o.as_deref()))
            .collect();
        let t = Instant::now();
        let hellos = S::hello_batch(server, &open_refs, rng.as_fn(), &mut sl);
        let mut srv = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut closings = Vec::with_capacity(devices.len());
        for (d, (_, hello)) in devices.iter_mut().zip(&hellos) {
            let hello = hello.as_ref().map_err(|e| format!("hello: {e:?}"))?;
            closings.push(
                S::device_turn(d, hello, telemetry, rng.as_fn(), &mut dl)
                    .map_err(|e| format!("device turn: {e:?}"))?,
            );
        }
        dev += t.elapsed().as_secs_f64();
        let frames: Vec<(u32, &[u8])> = closings
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, &c[..]))
            .collect();
        let t = Instant::now();
        let verdicts = S::server_verify_batch(server, &frames, rng.as_fn(), &mut sl);
        srv += t.elapsed().as_secs_f64();
        for (id, v) in &verdicts {
            match v {
                Ok(out) if expect(*id, out) => {}
                other => return Err(format!("device {id}: {other:?}")),
            }
        }
        server_s.push(srv * 1e6 / n);
        device_s.push(dev * 1e6 / n);
        energy.push(dl.total() * 1e6 / n);
    }
    Ok(SuiteCost {
        server_us: median(&server_s),
        device_us: median(&device_s),
        device_uj: median(&energy),
    })
}

fn mutual<C: CurveSpec>(rng: &mut SplitMix64) -> Result<SuiteCost, String> {
    let pairings: Vec<(u32, Pairing)> = (0..WAVE as u32)
        .map(|i| {
            let mut auth_key = [0u8; 16];
            for chunk in auth_key.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
            }
            (i, Pairing { auth_key })
        })
        .collect();
    let server = MutualServer::<C>::new(pairings.clone());
    let mut devices: Vec<mutual::Device<C>> = pairings
        .into_iter()
        .map(|(_, p)| mutual::Device::new(p, Ordering::ServerFirst))
        .collect();
    let telemetry = DeviceKind::for_protocol(ProtocolId::Mutual).telemetry();
    waves::<MutualSuite<C>>(
        &server,
        &mut devices,
        telemetry,
        |_, o| matches!(o, SuiteOutcome::Established { telemetry: t } if t == telemetry),
        rng,
    )
}

fn ph<C: CurveSpec>(rng: &mut SplitMix64) -> Result<SuiteCost, String> {
    let mut reader = PhReader::<C>::new(rng.as_fn());
    let mut devices: Vec<_> = (0..WAVE as u32)
        .map(|i| reader.register_tag(i, rng.as_fn()))
        .collect();
    let server = PhServer::new(reader);
    waves::<PhSuite<C>>(
        &server,
        &mut devices,
        b"",
        |id, o| *o == SuiteOutcome::Identified(id),
        rng,
    )
}

fn schnorr<C: CurveSpec>(rng: &mut SplitMix64) -> Result<SuiteCost, String> {
    let mut server = SchnorrVerifier::<C>::new();
    let mut devices: Vec<SchnorrTag<C>> = (0..WAVE as u32)
        .map(|i| {
            let tag = SchnorrTag::<C>::new(rng.as_fn());
            server.register(i, *tag.public());
            tag
        })
        .collect();
    waves::<SchnorrSuite<C>>(
        &server,
        &mut devices,
        b"",
        |_, o| *o == SuiteOutcome::Authenticated,
        rng,
    )
}

fn symmetric(rng: &mut SplitMix64) -> Result<SuiteCost, String> {
    let mut table = SymmetricServer::new();
    let mut devices: Vec<_> = (0..WAVE as u32)
        .map(|i| table.register_device(i, rng.as_fn()))
        .collect();
    let server = SymmetricGate::new(table);
    waves::<SymmetricSuite>(
        &server,
        &mut devices,
        b"",
        |_, o| *o == SuiteOutcome::Authenticated,
        rng,
    )
}

fn profile_cost(p: &SecurityProfile, rng: &mut SplitMix64) -> Result<SuiteCost, String> {
    macro_rules! on_curve {
        ($f:ident) => {
            match p.curve {
                CurveId::Toy17 => $f::<Toy17>(rng),
                CurveId::B163 => $f::<B163>(rng),
                CurveId::K163 => $f::<K163>(rng),
                CurveId::K233 => $f::<K233>(rng),
                CurveId::K283 => $f::<K283>(rng),
            }
        };
    }
    match p.protocol {
        ProtocolId::Symmetric => symmetric(rng),
        ProtocolId::Mutual => on_curve!(mutual),
        ProtocolId::Ph => on_curve!(ph),
        ProtocolId::Schnorr => on_curve!(schnorr),
    }
}

/// Server and device cost of every mixed profile at batch `WAVE`, plus
/// the Negotiate encode + admit cost.
pub fn protocols(
    rng: &mut SplitMix64,
    m: &mut Metrics,
) -> Result<Vec<(SecurityProfile, SuiteCost)>, String> {
    let mut costs = Vec::new();
    for p in mixed_profiles() {
        let c = profile_cost(&p, rng).map_err(|e| format!("{}: {e}", p.name()))?;
        m.put(
            &format!("protocols.server_us.{}", slug(&p)),
            c.server_us,
            "us",
        );
        m.put(
            &format!("protocols.device_us.{}", slug(&p)),
            c.device_us,
            "us",
        );
        costs.push((p, c));
    }
    let profiles = mixed_profiles();
    let mut bad = 0usize;
    let negotiate = time_median(REPS, || {
        for i in 0..1024 {
            let p = &profiles[i % profiles.len()];
            let frame = black_box(p).negotiate_frame();
            let lane = CurveChoice::from_id(p.curve);
            if admit_negotiate(&frame, p, lane) != Ok(p.protocol) {
                bad += 1;
            }
        }
        1024
    });
    if bad > 0 {
        return Err(format!("{bad} genuine Negotiate frames were not admitted"));
    }
    m.put("protocols.negotiate_ns", negotiate, "ns");
    Ok(costs)
}
