//! Per-party energy ledgers — the bookkeeping behind the paper's
//! protocol-level rules: minimize device computation, minimize
//! communication, and avoid useless computation (§4).
//!
//! A ledger prices each booked operation (point multiplication,
//! symmetric blocks, radio tx/rx) as it arrives and keeps only running
//! sums: total joules, compute joules and bytes on air. Each sum is
//! added in booking order starting from `-0.0`, the same left-to-right
//! fold `Iterator::sum` performs, so the totals are bit-identical to
//! summing a per-operation event list, at a constant size per ledger.

use medsec_lwc::HwProfile;
use medsec_power::{EnergyReport, RadioModel};
use serde::{Deserialize, Serialize};

/// Energy account of one protocol party.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Cost of one ECC point multiplication on this party's hardware.
    ecpm: EnergyReport,
    /// Per-gate-cycle block-energy scale (from the technology).
    symmetric_scale: f64,
    /// Radio model.
    radio: RadioModel,
    /// Link distance in meters.
    distance_m: f64,
    /// Joules of every booked operation, in booking order.
    total_j: f64,
    /// Joules of the computation (point-mul and symmetric) operations.
    compute_j: f64,
    /// Bytes sent + received.
    bytes_on_air: usize,
}

impl EnergyLedger {
    /// Create a ledger for a device whose point multiplication costs
    /// `ecpm`, communicating over `distance_m` meters.
    pub fn new(ecpm: EnergyReport, radio: RadioModel, distance_m: f64) -> Self {
        Self {
            ecpm,
            // Same calibration as Technology::block_energy at 1 V.
            symmetric_scale: 4.7e-15,
            radio,
            distance_m,
            total_j: -0.0,
            compute_j: -0.0,
            bytes_on_air: 0,
        }
    }

    // lint: hot-path — booking runs for every operation of every
    // session; it only adds to the running sums.

    /// Record one ECC point multiplication.
    pub fn point_mul(&mut self) {
        self.book_compute(self.ecpm.energy_j);
    }

    /// Record `blocks` invocations of a symmetric primitive with the
    /// given hardware profile. The name labels the call site; the
    /// ledger keeps no per-operation record.
    pub fn symmetric(&mut self, _name: &str, profile: &HwProfile, blocks: u64) {
        self.book_compute(
            profile.gate_equivalents as f64
                * profile.cycles_per_block as f64
                * blocks as f64
                * self.symmetric_scale,
        );
    }

    /// Record a transmission of `bytes`.
    pub fn tx(&mut self, bytes: usize) {
        self.book_radio(bytes, self.radio.tx_energy(bytes, self.distance_m));
    }

    /// Record a reception of `bytes`.
    pub fn rx(&mut self, bytes: usize) {
        self.book_radio(bytes, self.radio.rx_energy(bytes));
    }

    fn book_compute(&mut self, joules: f64) {
        self.total_j += joules;
        self.compute_j += joules;
    }

    fn book_radio(&mut self, bytes: usize, joules: f64) {
        self.total_j += joules;
        self.bytes_on_air += bytes;
    }

    /// Total energy spent, joules.
    pub fn total(&self) -> f64 {
        self.total_j
    }

    // lint: hot-path-end

    /// Computation-only energy, joules.
    pub fn compute(&self) -> f64 {
        self.compute_j
    }

    /// Communication-only energy, joules.
    pub fn communication(&self) -> f64 {
        self.total() - self.compute()
    }

    /// Bytes sent + received.
    pub fn bytes_on_air(&self) -> usize {
        self.bytes_on_air
    }

    /// Clear the account (start of a new session).
    pub fn reset(&mut self) {
        self.total_j = -0.0;
        self.compute_j = -0.0;
        self.bytes_on_air = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsec_lwc::{Aes128, BlockCipher};

    fn ledger(distance: f64) -> EnergyLedger {
        let ecpm = EnergyReport::from_totals(86_000, 5.1e-6, 847_500.0);
        EnergyLedger::new(ecpm, RadioModel::first_order_default(), distance)
    }

    #[test]
    fn point_mul_accounts_5_microjoules() {
        let mut l = ledger(10.0);
        l.point_mul();
        assert!((l.total() - 5.1e-6).abs() < 1e-12);
        assert_eq!(l.communication(), 0.0);
    }

    #[test]
    fn radio_dominates_at_distance() {
        let mut l = ledger(30.0);
        l.point_mul();
        l.tx(22);
        // At 30 m the 22-byte transmission (~25 µJ) exceeds the 5.1 µJ
        // point multiplication — the paper's "communication is
        // power-hungry".
        assert!(l.communication() > l.compute());
    }

    #[test]
    fn symmetric_blocks_are_cheap() {
        let mut l = ledger(10.0);
        l.symmetric("AES-128", &Aes128::hw_profile(), 2);
        assert!(l.compute() < 1.0e-6, "AES energy {}", l.compute());
    }

    #[test]
    fn ledger_bookkeeping() {
        let mut l = ledger(1.0);
        l.tx(10);
        l.rx(20);
        l.point_mul();
        assert_eq!(l.bytes_on_air(), 30);
        // Exactly these three operations, each at its own price.
        let radio = RadioModel::first_order_default();
        let (tx, rx, pm) = (radio.tx_energy(10, 1.0), radio.rx_energy(20), 5.1e-6);
        assert_eq!(l.total().to_bits(), (-0.0 + tx + rx + pm).to_bits());
        assert_eq!(l.compute().to_bits(), (-0.0 + pm).to_bits());
        l.reset();
        assert_eq!(l.total().to_bits(), (-0.0f64).to_bits());
        assert_eq!(l.compute().to_bits(), (-0.0f64).to_bits());
        assert_eq!(l.bytes_on_air(), 0);
    }
}
