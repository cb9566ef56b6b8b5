//! Named curve parameter sets.
//!
//! * [`K163`] — the paper's curve: "Our ECC chip uses a Koblitz curve
//!   defined over F(2^163), which provides 80-bit security, equivalent to
//!   1024-bit RSA" (§4). Parameters per FIPS 186-3 / SEC 2 (sect163k1).
//! * [`B163`] — the pseudo-random NIST curve over the same field
//!   (sect163r2), used to exercise the `b`-multiplication path that the
//!   Koblitz curve (b = 1) optimizes away.
//! * [`K233`], [`K283`] — the next two NIST Koblitz curves (sect233k1,
//!   sect283k1), the design-space sweep's higher security levels and the
//!   other two curves the τNAF variable-base engine serves.
//! * [`Toy17`] — a cofactor-2 curve over F(2^17) whose group order
//!   (2 × 65587) was obtained by exhaustive point counting, so every
//!   scalar-multiplication algorithm can be validated against brute
//!   force without trusting transcribed standard constants.
//!
//! The integration tests check, for each curve, that the generator lies
//! on the curve and that `n·G = O`; the Koblitz orders are additionally
//! recomputed from scratch via the Lucas sequence of the Frobenius trace
//! (`#E = 2^m + 1 − V_m`, see `tnaf::tests`), so a transcription error
//! in any `ORDER` constant cannot survive the suite.

use medsec_gf2m::{Element, F163, F17, F233, F283};

use crate::curve::{CurveSpec, Point};
use crate::scalar::parse_hex_limbs;

/// NIST K-163 / SEC 2 sect163k1: `y² + xy = x³ + x² + 1` over F(2^163).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct K163;

impl K163 {
    const GX: Element<F163> =
        Element::from_canonical_limbs(parse_hex_limbs("2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8"));
    const GY: Element<F163> =
        Element::from_canonical_limbs(parse_hex_limbs("289070fb05d38ff58321f2e800536d538ccdaa3d9"));
}

impl CurveSpec for K163 {
    type Field = F163;
    const NAME: &'static str = "K-163";
    const ORDER: [u64; 5] = parse_hex_limbs("4000000000000000000020108a2e0cc0d99f8a5ef");
    const COFACTOR: u64 = 2;
    const LADDER_BITS: usize = 164;

    fn a() -> Element<F163> {
        Element::one()
    }

    fn b() -> Element<F163> {
        Element::one()
    }

    fn generator() -> Point<Self> {
        Point::from_xy_unchecked(Self::GX, Self::GY)
    }
}

/// NIST B-163 / SEC 2 sect163r2: `y² + xy = x³ + x² + b` over F(2^163).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct B163;

impl B163 {
    const B: Element<F163> =
        Element::from_canonical_limbs(parse_hex_limbs("20a601907b8c953ca1481eb10512f78744a3205fd"));
    const GX: Element<F163> =
        Element::from_canonical_limbs(parse_hex_limbs("3f0eba16286a2d57ea0991168d4994637e8343e36"));
    const GY: Element<F163> =
        Element::from_canonical_limbs(parse_hex_limbs("0d51fbc6c71a0094fa2cdd545b11c5c0c797324f1"));
}

impl CurveSpec for B163 {
    type Field = F163;
    const NAME: &'static str = "B-163";
    const ORDER: [u64; 5] = parse_hex_limbs("40000000000000000000292fe77e70c12a4234c33");
    const COFACTOR: u64 = 2;
    const LADDER_BITS: usize = 164;

    fn a() -> Element<F163> {
        Element::one()
    }

    fn b() -> Element<F163> {
        Self::B
    }

    fn generator() -> Point<Self> {
        Point::from_xy_unchecked(Self::GX, Self::GY)
    }
}

/// NIST K-233 / SEC 2 sect233k1: `y² + xy = x³ + 1` over F(2^233)
/// (a = 0, so the Frobenius trace sign is μ = −1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct K233;

impl K233 {
    const GX: Element<F233> = Element::from_canonical_limbs(parse_hex_limbs(
        "17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126",
    ));
    const GY: Element<F233> = Element::from_canonical_limbs(parse_hex_limbs(
        "1db537dece819b7f70f555a67c427a8cd9bf18aeb9b56e0c11056fae6a3",
    ));
}

impl CurveSpec for K233 {
    type Field = F233;
    const NAME: &'static str = "K-233";
    const ORDER: [u64; 5] =
        parse_hex_limbs("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abdf");
    const COFACTOR: u64 = 4;
    const LADDER_BITS: usize = 233;

    fn a() -> Element<F233> {
        Element::zero()
    }

    fn b() -> Element<F233> {
        Element::one()
    }

    fn generator() -> Point<Self> {
        Point::from_xy_unchecked(Self::GX, Self::GY)
    }
}

/// NIST K-283 / SEC 2 sect283k1: `y² + xy = x³ + 1` over F(2^283)
/// (a = 0, μ = −1). Its 281-bit order sits just *below* 2^281, so the
/// constant-length ladder processes `k + 3n` (see
/// [`CurveSpec::LADDER_MULTIPLE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct K283;

impl K283 {
    const GX: Element<F283> = Element::from_canonical_limbs(parse_hex_limbs(
        "503213f78ca44883f1a3b8162f188e553cd265f23c1567a16876913b0c2ac2458492836",
    ));
    const GY: Element<F283> = Element::from_canonical_limbs(parse_hex_limbs(
        "1ccda380f1c9e318d90f95d07e5426fe87e45c0e8184698e45962364e34116177dd2259",
    ));
}

impl CurveSpec for K283 {
    type Field = F283;
    const NAME: &'static str = "K-283";
    const ORDER: [u64; 5] =
        parse_hex_limbs("1ffffffffffffffffffffffffffffffffffe9ae2ed07577265dff7f94451e061e163c61");
    const COFACTOR: u64 = 4;
    const LADDER_MULTIPLE: u64 = 3;
    const LADDER_BITS: usize = 283;

    fn a() -> Element<F283> {
        Element::zero()
    }

    fn b() -> Element<F283> {
        Element::one()
    }

    fn generator() -> Point<Self> {
        Point::from_xy_unchecked(Self::GX, Self::GY)
    }
}

/// Brute-force-verified toy curve: `y² + xy = x³ + x² + 1` over F(2^17),
/// `#E = 2 × 65587`, generator of the prime-order subgroup
/// G = (0xaaad, 0x5b2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Toy17;

impl Toy17 {
    const GX: Element<F17> = Element::from_canonical_limbs(parse_hex_limbs("aaad"));
    const GY: Element<F17> = Element::from_canonical_limbs(parse_hex_limbs("5b2b"));
}

impl CurveSpec for Toy17 {
    type Field = F17;
    const NAME: &'static str = "Toy-17";
    const ORDER: [u64; 5] = [65587, 0, 0, 0, 0]; // prime, counted exhaustively
    const COFACTOR: u64 = 2;
    const LADDER_BITS: usize = 18; // bitlen(k + 2·65587) for all k < n

    fn a() -> Element<F17> {
        Element::one()
    }

    fn b() -> Element<F17> {
        Element::one()
    }

    fn generator() -> Point<Self> {
        Point::from_xy_unchecked(Self::GX, Self::GY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn order_constants_have_plausible_bit_lengths() {
        fn msb(l: &[u64; 5]) -> usize {
            for (i, &w) in l.iter().enumerate().rev() {
                if w != 0 {
                    return 64 * i + 64 - w.leading_zeros() as usize;
                }
            }
            0
        }
        // Cofactor-2 curves: n ≈ 2^(m−1); cofactor-4: n ≈ 2^(m−2).
        assert_eq!(msb(&K163::ORDER), 163);
        assert_eq!(msb(&B163::ORDER), 163);
        assert_eq!(msb(&K233::ORDER), 232);
        assert_eq!(msb(&K283::ORDER), 281);
        assert_eq!(msb(&Toy17::ORDER), 17);
    }

    /// Every compile-time parameter equals its published hex string
    /// (SEC 2 for the NIST curves), parsed at run time.
    #[test]
    fn constants_match_their_hex_strings() {
        fn pin<C: CurveSpec>(a: &str, b: &str, gx: &str, gy: &str) {
            let hex = |s: &str| Element::<C::Field>::from_hex(s).expect("valid hex");
            assert_eq!(C::a(), hex(a), "{} a", C::NAME);
            assert_eq!(C::b(), hex(b), "{} b", C::NAME);
            assert_eq!(C::generator().x(), Some(hex(gx)), "{} Gx", C::NAME);
            assert_eq!(C::generator().y(), Some(hex(gy)), "{} Gy", C::NAME);
        }
        pin::<K163>(
            "1",
            "1",
            "2fe13c0537bbc11acaa07d793de4e6d5e5c94eee8",
            "289070fb05d38ff58321f2e800536d538ccdaa3d9",
        );
        pin::<B163>(
            "1",
            "20a601907b8c953ca1481eb10512f78744a3205fd",
            "3f0eba16286a2d57ea0991168d4994637e8343e36",
            "0d51fbc6c71a0094fa2cdd545b11c5c0c797324f1",
        );
        pin::<K233>(
            "0",
            "1",
            "17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126",
            "1db537dece819b7f70f555a67c427a8cd9bf18aeb9b56e0c11056fae6a3",
        );
        pin::<K283>(
            "0",
            "1",
            "503213f78ca44883f1a3b8162f188e553cd265f23c1567a16876913b0c2ac2458492836",
            "1ccda380f1c9e318d90f95d07e5426fe87e45c0e8184698e45962364e34116177dd2259",
        );
        pin::<Toy17>("1", "1", "aaad", "5b2b");
    }

    #[test]
    fn generators_lie_on_their_curves() {
        assert!(K163::generator().is_on_curve());
        assert!(B163::generator().is_on_curve());
        assert!(K233::generator().is_on_curve());
        assert!(K283::generator().is_on_curve());
        assert!(Toy17::generator().is_on_curve());
    }

    #[test]
    fn ladder_multiple_gives_constant_bitlength() {
        // For every curve, [c·n, (c+1)·n) must not straddle a power of
        // two, and its bit-length must equal LADDER_BITS.
        fn check<C: CurveSpec>() {
            // c·n via Scalar-free limb arithmetic: repeated addition.
            let mut acc = [0u64; 5];
            let add = |a: &[u64; 5], b: &[u64; 5]| {
                let mut out = [0u64; 5];
                let mut carry = 0u64;
                for i in 0..5 {
                    let (s, c1) = a[i].overflowing_add(b[i]);
                    let (s, c2) = s.overflowing_add(carry);
                    out[i] = s;
                    carry = (c1 | c2) as u64;
                }
                assert_eq!(carry, 0);
                out
            };
            for _ in 0..C::LADDER_MULTIPLE {
                acc = add(&acc, &C::ORDER);
            }
            let bits = |l: &[u64; 5]| {
                for (i, &w) in l.iter().enumerate().rev() {
                    if w != 0 {
                        return 64 * i + 64 - w.leading_zeros() as usize;
                    }
                }
                0
            };
            // Smallest representative: c·n (k = 0).
            assert_eq!(bits(&acc), C::LADDER_BITS, "{} low end", C::NAME);
            // Largest: c·n + (n − 1).
            let mut top = add(&acc, &C::ORDER);
            // Subtract one.
            let mut i = 0;
            loop {
                let (d, borrow) = top[i].overflowing_sub(1);
                top[i] = d;
                if !borrow {
                    break;
                }
                i += 1;
            }
            assert_eq!(bits(&top), C::LADDER_BITS, "{} high end", C::NAME);
        }
        check::<K163>();
        check::<B163>();
        check::<K233>();
        check::<K283>();
        check::<Toy17>();
    }

    #[test]
    fn toy_order_is_prime() {
        let n = Toy17::ORDER[0];
        let mut d = 2;
        while d * d <= n {
            assert_ne!(n % d, 0, "toy order not prime");
            d += 1;
        }
    }

    #[test]
    fn toy_ladder_bits_bound_holds_for_every_scalar() {
        // k + 2n must have exactly LADDER_BITS bits for all k < n.
        let n = Toy17::ORDER[0];
        for k in [0, 1, n / 2, n - 2, n - 1] {
            let kpp = k + 2 * n;
            assert_eq!(64 - kpp.leading_zeros() as usize, Toy17::LADDER_BITS);
        }
    }

    #[test]
    fn cofactor_clears_to_subgroup() {
        // 2·P lands in the prime-order subgroup for a random curve point.
        let g = Toy17::generator();
        let p = g.mul_double_and_add(&Scalar::from_u64(12345));
        assert!(p.is_on_curve());
        let order = Scalar::<Toy17>::from_limbs_mod_order(Toy17::ORDER);
        // order ≡ 0 mod n, so order·anything in subgroup is O.
        assert!(order.is_zero());
    }
}
