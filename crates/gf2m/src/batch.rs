//! Structure-of-arrays operand layout for batched field arithmetic.
//!
//! The serving path is batch-shaped (comb batches, one inversion per
//! batch, τNAF `mul_add` over whole lanes), but an
//! array-of-`Element`s keeps each element's limbs contiguous — exactly
//! the wrong layout for data-level parallelism, where a vector lane
//! wants limb *j* of many *independent* elements side by side. This
//! module defines the transposed layout the batch entry points on
//! [`FieldBackend`](crate::backend::FieldBackend) operate on:
//!
//! * **Plane-major slices.** A batch of `n` elements is a flat
//!   `[u64]` of `LIMBS * n` words; limb `j` of element `i` lives at
//!   `data[j * n + i]`. Plane `j` (all elements' limb `j`) is
//!   contiguous, so a 512-bit load grabs limb `j` of eight neighbours
//!   and a `VPCLMULQDQ` multiplies four of them at once. Unreduced
//!   products use the same layout with `PROD_LIMBS` planes.
//! * [`Planes`] — an owned, reusable buffer of that shape with
//!   gather/scatter accessors to and from [`Element`]s. Callers hold
//!   one per worker and `reset` it per batch, so steady-state serving
//!   does no per-call allocation.
//! * [`reduce_planes`] — the batched sparse-polynomial reduction:
//!   the plane-wise transpose of `limbs::reduce_fast`, folding whole
//!   planes (one XOR chain per reduction-polynomial term, across all
//!   elements) instead of whole words.
//!
//! Elements are always stored at the full `LIMBS` width regardless of
//! the field's degree — planes above `ceil(m/64)` are zero — which
//! keeps the layout field-agnostic: non-generic scratch structs built
//! from [`Planes`] can be threaded through curve-erased code (the
//! hub's workers serve several curve lanes with one scratch).

use crate::backend::{ActiveBackend, FieldBackend};
use crate::field::{Element, FieldSpec};
use crate::limbs;
use crate::{LIMBS, PROD_LIMBS};

/// Number of elements in a plane-major element batch of `planes.len()`
/// words.
#[inline]
pub(crate) fn width(planes: &[u64]) -> usize {
    debug_assert_eq!(planes.len() % LIMBS, 0);
    planes.len() / LIMBS
}

/// Copies element `i` out of a plane-major batch.
#[inline]
pub(crate) fn gather<F: FieldSpec>(planes: &[u64], n: usize, i: usize) -> Element<F> {
    let mut limbs = [0u64; LIMBS];
    for (j, l) in limbs.iter_mut().enumerate() {
        *l = planes[j * n + i];
    }
    Element::from_raw_limbs(limbs)
}

/// Writes element `e` into slot `i` of a plane-major batch.
#[inline]
pub(crate) fn scatter<F: FieldSpec>(planes: &mut [u64], n: usize, i: usize, e: &Element<F>) {
    for (j, l) in e.limbs().iter().enumerate() {
        planes[j * n + i] = *l;
    }
}

/// An owned plane-major batch of field elements (see the module doc
/// for the layout). Grows on demand and is meant to be reused across
/// batches: `reset` keeps the allocation.
///
/// The buffer is field-agnostic — only the generic accessors interpret
/// slots as elements of a particular field — so scratch structs built
/// from `Planes` stay non-generic and can live in curve-erased worker
/// state.
#[derive(Debug, Clone, Default)]
pub struct Planes {
    data: Vec<u64>,
    n: usize,
}

impl Planes {
    /// An empty buffer (no allocation until first `reset`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of element slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the buffer holds zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resizes to `n` zeroed slots, keeping the allocation when it
    /// already fits.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.data.clear();
        self.data.resize(LIMBS * n, 0);
    }

    /// Writes element `e` into slot `i`.
    #[inline]
    pub fn set<F: FieldSpec>(&mut self, i: usize, e: &Element<F>) {
        scatter(&mut self.data, self.n, i, e);
    }

    /// Copies slot `i` out as an element.
    #[inline]
    pub fn get<F: FieldSpec>(&self, i: usize) -> Element<F> {
        gather(&self.data, self.n, i)
    }

    /// Whether slot `i` is the zero element.
    #[inline]
    pub fn is_zero_at(&self, i: usize) -> bool {
        (0..LIMBS).all(|j| self.data[j * self.n + i] == 0)
    }

    /// Fills every slot with `e`.
    pub fn broadcast<F: FieldSpec>(&mut self, e: &Element<F>) {
        for (j, l) in e.limbs().iter().enumerate() {
            self.data[j * self.n..(j + 1) * self.n].fill(*l);
        }
    }

    /// The raw plane-major words (`LIMBS * len()` of them).
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable raw planes, crate-internal: external writers could break
    /// the canonical-element invariant the accessors rely on.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }
}

/// Batched multiplication over [`Planes`]: `out[i] = a[i] * b[i]` via
/// the process-wide selected backend's `mul_batch`. All three buffers
/// must have the same length.
pub fn mul_planes<F: FieldSpec>(out: &mut Planes, a: &Planes, b: &Planes) {
    // lint: hot-path — SoA kernels run once per wave per field op;
    // `Planes::reset` reuses the output allocation.
    assert_eq!(a.len(), b.len());
    out.reset(a.len());
    ActiveBackend::mul_batch::<F>(out.data_mut(), a.data(), b.data());
    // lint: hot-path-end
}

/// Batched squaring over [`Planes`]: `out[i] = a[i]^2` via the selected
/// backend's `sqr_batch`.
pub fn sqr_planes<F: FieldSpec>(out: &mut Planes, a: &Planes) {
    // lint: hot-path
    out.reset(a.len());
    ActiveBackend::sqr_batch::<F>(out.data_mut(), a.data());
    // lint: hot-path-end
}

/// Batched addition (XOR in characteristic 2): `dst[i] += src[i]`.
/// Field-agnostic — addition never mixes planes.
pub fn add_planes(dst: &mut Planes, src: &Planes) {
    // lint: hot-path
    assert_eq!(dst.len(), src.len());
    for (d, s) in dst.data.iter_mut().zip(&src.data) {
        *d ^= *s;
    }
    // lint: hot-path-end
}

/// Batched sparse-polynomial reduction, plane-major: `prod` holds
/// `PROD_LIMBS` planes of `n` unreduced products, `out` receives the
/// `LIMBS` canonical planes. The plane-wise transpose of
/// `limbs::reduce_fast`: each fold XORs a whole plane (one term of the
/// reduction polynomial, across all `n` elements) instead of one word.
///
/// The single-pass plane schedule requires every folded bit to land
/// strictly below the source plane, which holds whenever
/// `m − e ≥ 64` for the largest sub-degree term `e` (true for all the
/// NIST fields here). Fields denser than that (the toy `F17`) take a
/// per-element scalar pass instead — correctness everywhere, vector
/// speed where the field shape allows.
pub fn reduce_planes<F: FieldSpec>(prod: &mut [u64], out: &mut [u64]) {
    // lint: hot-path — plane folds work in caller-owned buffers; the
    // refolding fallback uses a fixed stack array per element.
    let n = out.len() / LIMBS;
    debug_assert_eq!(out.len(), LIMBS * n);
    debug_assert_eq!(prod.len(), PROD_LIMBS * n);
    let reduction = F::REDUCTION;
    let m = F::M;
    if m < 64 + reduction[1] {
        // Refolding field: bits can fold back into their own plane, so
        // run the word-level scalar reduction per element.
        for i in 0..n {
            let mut p = [0u64; PROD_LIMBS];
            for (j, w) in p.iter_mut().enumerate() {
                *w = prod[j * n + i];
            }
            let r = limbs::reduce_fast::<F>(p);
            for (j, w) in r.iter().enumerate() {
                out[j * n + i] = *w;
            }
        }
        return;
    }
    let mw = m / 64;
    let mb = m % 64;
    // Whole planes above the boundary word, highest first. Because
    // m − e ≥ 64, every fold writes strictly below its source plane,
    // so one descending pass settles everything down to plane `mw`.
    // When m is a limb multiple, plane `mw` itself is entirely above
    // the field and folds as a whole plane too.
    let top = if mb == 0 { mw } else { mw + 1 };
    for i in (top..PROD_LIMBS).rev() {
        for &e in &reduction[1..] {
            let base = 64 * i + e - m;
            let (wi, sh) = (base / 64, base % 64);
            let (lo, hi) = prod.split_at_mut(i * n);
            let src = &hi[..n];
            if sh == 0 {
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s;
                }
            } else {
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s << sh;
                }
                let dst = &mut lo[(wi + 1) * n..(wi + 2) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= *s >> (64 - sh);
                }
            }
        }
        prod[i * n..(i + 1) * n].fill(0);
    }
    // Bits m..64·(mw+1) inside the boundary plane. With m − e ≥ 64 the
    // folds never write at or above bit m, so the high part of the
    // boundary plane stays valid across all terms and is masked last.
    if mb != 0 {
        for &e in &reduction[1..] {
            let (wi, sh) = (e / 64, e % 64);
            if wi == mw {
                // Folding within the boundary plane itself: the write
                // stays strictly below bit `mb` (poly degree < m), so
                // the high source bits survive, and sh ≤ mb excludes
                // any spill into plane mw + 1.
                for s in prod[mw * n..(mw + 1) * n].iter_mut() {
                    *s ^= (*s >> mb) << sh;
                }
            } else {
                let (lo, hi) = prod.split_at_mut(mw * n);
                let src = &hi[..n];
                let dst = &mut lo[wi * n..(wi + 1) * n];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= (*s >> mb) << sh;
                }
                if sh + (63 - mb) > 63 {
                    let dst = &mut lo[(wi + 1) * n..(wi + 2) * n];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d ^= (*s >> mb) >> (64 - sh);
                    }
                }
            }
        }
        let mask = (1u64 << mb) - 1;
        for s in prod[mw * n..(mw + 1) * n].iter_mut() {
            *s &= mask;
        }
    }
    out.copy_from_slice(&prod[..LIMBS * n]);
    // lint: hot-path-end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{F163, F17, F233, F283};

    fn rng_from(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn reduce_planes_matches_scalar<F: FieldSpec>(seed: u64) {
        let mut r = rng_from(seed);
        for n in [1usize, 2, 3, 7, 8] {
            // Random unreduced products: clmul of random canonical pairs.
            let mut prods = Vec::new();
            for _ in 0..n {
                let a = Element::<F>::random(&mut r);
                let b = Element::<F>::random(&mut r);
                prods.push(limbs::clmul(a.limbs(), b.limbs()));
            }
            let mut planes = vec![0u64; PROD_LIMBS * n];
            for (i, p) in prods.iter().enumerate() {
                for (j, w) in p.iter().enumerate() {
                    planes[j * n + i] = *w;
                }
            }
            let mut out = vec![0u64; LIMBS * n];
            reduce_planes::<F>(&mut planes, &mut out);
            for (i, p) in prods.iter().enumerate() {
                let expect = limbs::reduce_fast::<F>(*p);
                let got = gather::<F>(&out, n, i);
                assert_eq!(got.limbs(), &expect, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn reduce_planes_matches_scalar_all_fields() {
        reduce_planes_matches_scalar::<F163>(11);
        reduce_planes_matches_scalar::<F233>(12);
        reduce_planes_matches_scalar::<F283>(13);
        reduce_planes_matches_scalar::<F17>(14);
    }

    #[test]
    fn planes_roundtrip_and_broadcast() {
        let mut r = rng_from(21);
        let elems: Vec<Element<F233>> = (0..5).map(|_| Element::random(&mut r)).collect();
        let mut p = Planes::new();
        p.reset(elems.len());
        for (i, e) in elems.iter().enumerate() {
            p.set(i, e);
        }
        for (i, e) in elems.iter().enumerate() {
            assert_eq!(p.get::<F233>(i), *e);
            assert_eq!(p.is_zero_at(i), e.is_zero());
        }
        p.broadcast(&elems[2]);
        for i in 0..elems.len() {
            assert_eq!(p.get::<F233>(i), elems[2]);
        }
    }
}
