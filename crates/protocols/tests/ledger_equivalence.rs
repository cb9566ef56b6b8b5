//! Equivalence oracle for the running-sum energy ledger.
//!
//! The ledger keeps only running sums, yet promises the exact figures a
//! per-operation event list would give: `total`, `compute`,
//! `communication` and `bytes_on_air` must equal — bit for bit — the
//! left-to-right `Iterator::sum` over the per-operation joules that this
//! test prices independently from the same models.

use medsec_lwc::{sha256_hw_profile, Aes128, BlockCipher, HwProfile, Present80};
use medsec_power::{EnergyReport, RadioModel};
use medsec_protocols::EnergyLedger;
use medsec_rng::SplitMix64;

/// The symmetric calibration the ledger documents (`Technology::
/// block_energy` at 1 V).
const SYMMETRIC_SCALE: f64 = 4.7e-15;

/// One booked operation as the reference sees it.
struct Op {
    joules: f64,
    compute: bool,
    bytes: usize,
}

impl Op {
    fn compute(joules: f64) -> Self {
        Op {
            joules,
            compute: true,
            bytes: 0,
        }
    }

    fn radio(joules: f64, bytes: usize) -> Self {
        Op {
            joules,
            compute: false,
            bytes,
        }
    }
}

fn assert_matches(l: &EnergyLedger, ops: &[Op], at: &str) {
    let total: f64 = ops.iter().map(|o| o.joules).sum();
    let compute: f64 = ops.iter().filter(|o| o.compute).map(|o| o.joules).sum();
    let bytes: usize = ops.iter().map(|o| o.bytes).sum();
    assert_eq!(l.total().to_bits(), total.to_bits(), "total {at}");
    assert_eq!(l.compute().to_bits(), compute.to_bits(), "compute {at}");
    assert_eq!(
        l.communication().to_bits(),
        (total - compute).to_bits(),
        "communication {at}"
    );
    assert_eq!(l.bytes_on_air(), bytes, "bytes_on_air {at}");
}

#[test]
fn running_sums_match_left_to_right_reference() {
    let ecpm = EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0);
    let radio = RadioModel::first_order_default();
    let profiles: [(&str, HwProfile); 3] = [
        ("AES-128", Aes128::hw_profile()),
        ("SHA-256", sha256_hw_profile()),
        ("PRESENT-80", Present80::hw_profile()),
    ];
    let mut rng = SplitMix64::new(0x5eed_1ed9);
    for distance in [0.3, 1.0, 2.5, 10.0, 30.0] {
        let mut l = EnergyLedger::new(ecpm, radio, distance);
        let mut ops: Vec<Op> = Vec::new();
        assert_matches(&l, &ops, "empty");
        for step in 0..400 {
            if step == 250 {
                l.reset();
                ops.clear();
                assert_matches(&l, &ops, "after reset");
            }
            let bytes = (rng.next_u64() % 200) as usize;
            match rng.next_u64() % 4 {
                0 => {
                    l.point_mul();
                    ops.push(Op::compute(ecpm.energy_j));
                }
                1 => {
                    let (name, p) = &profiles[(rng.next_u64() % 3) as usize];
                    let blocks = rng.next_u64() % 9;
                    l.symmetric(name, p, blocks);
                    let joules = p.gate_equivalents as f64
                        * p.cycles_per_block as f64
                        * blocks as f64
                        * SYMMETRIC_SCALE;
                    ops.push(Op::compute(joules));
                }
                2 => {
                    l.tx(bytes);
                    ops.push(Op::radio(radio.tx_energy(bytes, distance), bytes));
                }
                _ => {
                    l.rx(bytes);
                    ops.push(Op::radio(radio.rx_energy(bytes), bytes));
                }
            }
            assert_matches(&l, &ops, &format!("step {step} at {distance} m"));
        }
    }
}
