//! Batch lane kernels over raw `Q1.7.8` bit patterns — the arithmetic
//! core of the PE's struct-of-arrays MAC path.
//!
//! A Neurocube PE fires all of its MAC lanes in lockstep, and the per-lane
//! state is 16-bit fixed point, so one firing is a short vector of
//! independent 16-bit multiply-accumulates — exactly the shape
//! autovectorizers reward. These kernels operate on flat `i16`/`i32`
//! slices (the SoA layout the PE keeps) and are branch-free per lane, so a
//! 16-lane fire compiles to a handful of SIMD instructions.
//!
//! # Bit-exactness with [`MacUnit`](crate::MacUnit)
//!
//! The kernels are *derived* from, and pinned bit-for-bit against, the
//! scalar [`MacUnit::accumulate`](crate::MacUnit::accumulate) semantics,
//! which stay the reference:
//!
//! * **Wide32.** The scalar unit adds the `Q16.16` product into an `i64`
//!   and clamps to the `i32` register range *after every step*, so the
//!   accumulator always fits in `i32` when a step begins. An `i16 × i16`
//!   product always fits in `i32` (`|p| ≤ 2^30`), therefore
//!   `clamp_i32(acc + p)` computed in `i64` is exactly
//!   `i32::saturating_add(acc, p)` — one widening multiply and one
//!   saturating add per lane, no `i64` anywhere.
//! * **Narrow16.** The scalar unit renormalizes each product to `Q1.7.8`
//!   (arithmetic shift right by 8, saturate to `i16`) and then does a
//!   16-bit saturating add; the lane kernel performs the identical two
//!   operations on raw bits.
//!
//! The equivalence is enforced at every saturation and rounding boundary
//! by the `lane_kernels_match_mac_unit` proptests (fixed crate), and end
//! to end by the bit-exactness suite, which runs whole networks on the
//! cube against the `MacUnit`-based functional executor at both widths
//! (integration tests).

use crate::q88::{saturate, FRAC_BITS};

/// Accumulates one `weight × state` product into every lane of a `Wide32`
/// accumulator bank: `acc[m] = sat32(acc[m] + w[m] * x[m])`.
///
/// Slices must have equal lengths (the PE passes `..active` sub-slices of
/// its fixed-size lane arrays).
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// # Examples
///
/// ```
/// use neurocube_fixed::{accumulate_wide_lanes, wide_result_bits, Q88};
/// let w = Q88::from_f64(0.5).to_bits();
/// let x = Q88::from_f64(3.0).to_bits();
/// let mut acc = [0i32; 4];
/// accumulate_wide_lanes(&mut acc, &[w; 4], &[x; 4]);
/// assert_eq!(Q88::from_bits(wide_result_bits(acc[0])).to_f64(), 1.5);
/// ```
#[inline]
pub fn accumulate_wide_lanes(acc: &mut [i32], weights: &[i16], states: &[i16]) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    for m in 0..acc.len() {
        acc[m] = acc[m].saturating_add(i32::from(weights[m]) * i32::from(states[m]));
    }
}

/// Accumulates one `weight × state` product into every lane of a
/// `Narrow16` accumulator bank: each product is renormalized to `Q1.7.8`
/// (arithmetic `>> 8`, saturate) before a 16-bit saturating add — the
/// per-step-saturating hardware variant.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_narrow_lanes(acc: &mut [i16], weights: &[i16], states: &[i16]) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    for m in 0..acc.len() {
        let product = saturate((i32::from(weights[m]) * i32::from(states[m])) >> FRAC_BITS);
        acc[m] = acc[m].saturating_add(product);
    }
}

/// Renormalizes one `Wide32` lane accumulator back to `Q1.7.8` raw bits —
/// the MAC's output stage (`Q88::from_wide` restricted to the `i32` range
/// the per-step clamp guarantees).
#[inline]
pub fn wide_result_bits(acc: i32) -> i16 {
    saturate(acc >> FRAC_BITS)
}

/// One operand side of a masked lane fire: either a per-lane slice (the
/// PE's slot array) or a single value broadcast to every lane (a `Local`
/// weight or `Shared` state).
#[derive(Clone, Copy, Debug)]
pub enum LaneSrc<'a> {
    /// Per-lane operands; indexed by lane number.
    Lanes(&'a [i16]),
    /// One operand value for every lane.
    Splat(i16),
}

impl LaneSrc<'_> {
    #[inline]
    fn get(&self, m: usize) -> i16 {
        match *self {
            LaneSrc::Lanes(s) => s[m],
            LaneSrc::Splat(v) => v,
        }
    }
}

/// [`accumulate_wide_lanes`] with the weight operand broadcast to every
/// lane — the `WeightMode::Local` fire shape, fired directly on the PE's
/// state slot array with no scratch-row copy.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_wide_broadcast_weight(acc: &mut [i32], weight: i16, states: &[i16]) {
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    let w = i32::from(weight);
    for m in 0..acc.len() {
        acc[m] = acc[m].saturating_add(w * i32::from(states[m]));
    }
}

/// [`accumulate_narrow_lanes`] with the weight operand broadcast to every
/// lane.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_narrow_broadcast_weight(acc: &mut [i16], weight: i16, states: &[i16]) {
    assert_eq!(acc.len(), states.len(), "lane count mismatch");
    let w = i32::from(weight);
    for m in 0..acc.len() {
        let product = saturate((w * i32::from(states[m])) >> FRAC_BITS);
        acc[m] = acc[m].saturating_add(product);
    }
}

/// [`accumulate_wide_lanes`] with the state operand broadcast to every
/// lane — the `StateMode::Shared` fire shape (fully connected layers),
/// fired directly on the PE's weight slot array with no scratch-row copy.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_wide_broadcast_state(acc: &mut [i32], weights: &[i16], state: i16) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    let x = i32::from(state);
    for m in 0..acc.len() {
        acc[m] = acc[m].saturating_add(i32::from(weights[m]) * x);
    }
}

/// [`accumulate_narrow_lanes`] with the state operand broadcast to every
/// lane.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn accumulate_narrow_broadcast_state(acc: &mut [i16], weights: &[i16], state: i16) {
    assert_eq!(acc.len(), weights.len(), "lane count mismatch");
    let x = i32::from(state);
    for m in 0..acc.len() {
        let product = saturate((i32::from(weights[m]) * x) >> FRAC_BITS);
        acc[m] = acc[m].saturating_add(product);
    }
}

/// Masked `Wide32` fire: accumulates only the lanes whose bit is set in
/// `live`, iterating set bits instead of scanning the whole row. The
/// gated (cleared) lanes' accumulators are untouched — which is bitwise
/// identical to a dense fire *when every gated lane holds a zero operand*
/// (`0·x = 0`, and `saturating_add(0)` is the identity), the only way the
/// PE ever calls this.
///
/// # Panics
///
/// Panics if `live` names a lane at or beyond `acc.len()`, or if a
/// [`LaneSrc::Lanes`] operand is shorter than a live lane index.
///
/// # Examples
///
/// ```
/// use neurocube_fixed::{accumulate_wide_lanes, accumulate_wide_masked, LaneSrc};
/// let w = [256i16, 0, -256, 0];
/// let x = [100i16, 999, 50, 999];
/// let mut dense = [0i32; 4];
/// accumulate_wide_lanes(&mut dense, &w, &[100, 0, 50, 0]);
/// let mut masked = [0i32; 4];
/// // Lanes 1 and 3 hold zero operands: skipping them is invisible.
/// accumulate_wide_masked(&mut masked, LaneSrc::Lanes(&w), LaneSrc::Lanes(&x), 0b0101);
/// assert_eq!(dense, masked);
/// ```
#[inline]
pub fn accumulate_wide_masked(
    acc: &mut [i32],
    weights: LaneSrc<'_>,
    states: LaneSrc<'_>,
    live: u64,
) {
    debug_assert!(
        acc.len() >= 64 || live < 1u64 << acc.len(),
        "live lane out of range"
    );
    let mut bits = live;
    while bits != 0 {
        let m = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        acc[m] = acc[m].saturating_add(i32::from(weights.get(m)) * i32::from(states.get(m)));
    }
}

/// Masked `Narrow16` fire — see [`accumulate_wide_masked`] for the
/// masking contract.
///
/// # Panics
///
/// Panics if `live` names a lane at or beyond `acc.len()`, or if a
/// [`LaneSrc::Lanes`] operand is shorter than a live lane index.
#[inline]
pub fn accumulate_narrow_masked(
    acc: &mut [i16],
    weights: LaneSrc<'_>,
    states: LaneSrc<'_>,
    live: u64,
) {
    debug_assert!(
        acc.len() >= 64 || live < 1u64 << acc.len(),
        "live lane out of range"
    );
    let mut bits = live;
    while bits != 0 {
        let m = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let product = saturate((i32::from(weights.get(m)) * i32::from(states.get(m))) >> FRAC_BITS);
        acc[m] = acc[m].saturating_add(product);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{AccumulatorWidth, MacUnit};
    use crate::q88::Q88;

    /// Drives the scalar unit and the lane kernel through the same operand
    /// sequence and demands identical results after every step.
    fn check_sequence_wide(pairs: &[(i16, i16)]) {
        let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
        let mut acc = [0i32; 1];
        for &(w, x) in pairs {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_wide_lanes(&mut acc, &[w], &[x]);
            assert_eq!(
                mac.result().to_bits(),
                wide_result_bits(acc[0]),
                "wide lane diverged after ({w}, {x})"
            );
        }
    }

    fn check_sequence_narrow(pairs: &[(i16, i16)]) {
        let mut mac = MacUnit::new(AccumulatorWidth::Narrow16);
        let mut acc = [0i16; 1];
        for &(w, x) in pairs {
            mac.accumulate(Q88::from_bits(w), Q88::from_bits(x));
            accumulate_narrow_lanes(&mut acc, &[w], &[x]);
            assert_eq!(
                mac.result().to_bits(),
                acc[0],
                "narrow lane diverged after ({w}, {x})"
            );
        }
    }

    #[test]
    fn wide_lane_matches_unit_at_register_saturation() {
        // MAX*MAX repeated drives the wide accumulator into its i32 clamp;
        // the saturating_add lane must pin at exactly the same value.
        let pairs: Vec<(i16, i16)> = (0..4096).map(|_| (i16::MAX, i16::MAX)).collect();
        check_sequence_wide(&pairs);
        let pairs: Vec<(i16, i16)> = (0..4096).map(|_| (i16::MIN, i16::MAX)).collect();
        check_sequence_wide(&pairs);
    }

    #[test]
    fn narrow_lane_matches_unit_at_early_saturation() {
        let pairs: Vec<(i16, i16)> = (0..600)
            .map(|i| {
                if i % 2 == 0 {
                    (i16::MAX, i16::MAX)
                } else {
                    (i16::MIN, 257)
                }
            })
            .collect();
        check_sequence_narrow(&pairs);
    }

    #[test]
    fn narrow_truncation_direction_matches() {
        // (-1/256) * (1/2): product -128 >> 8 == -1 (toward -inf), not 0.
        check_sequence_narrow(&[(-1, 128), (1, 128), (-1, -128)]);
    }

    #[test]
    fn multi_lane_independence() {
        let w = [256i16, -256, i16::MAX, 0];
        let x = [512i16, 512, i16::MAX, 123];
        let mut acc = [0i32; 4];
        accumulate_wide_lanes(&mut acc, &w, &x);
        for m in 0..4 {
            let mut mac = MacUnit::new(AccumulatorWidth::Wide32);
            mac.accumulate(Q88::from_bits(w[m]), Q88::from_bits(x[m]));
            assert_eq!(wide_result_bits(acc[m]), mac.result().to_bits(), "lane {m}");
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_rejected() {
        accumulate_wide_lanes(&mut [0i32; 2], &[0; 2], &[0; 3]);
    }

    /// Boundary-heavy operand row reused by the variant-equivalence tests.
    fn spiky_row() -> [i16; 8] {
        [i16::MAX, i16::MIN, 256, -256, 0, 1, -1, 12345]
    }

    #[test]
    fn broadcast_weight_matches_dense() {
        for w in [0i16, 256, -1, i16::MAX, i16::MIN] {
            let xs = spiky_row();
            let mut dense_w32 = [123i32; 8];
            let mut bw32 = [123i32; 8];
            accumulate_wide_lanes(&mut dense_w32, &[w; 8], &xs);
            accumulate_wide_broadcast_weight(&mut bw32, w, &xs);
            assert_eq!(dense_w32, bw32, "wide, w={w}");
            let mut dense_n16 = [-7i16; 8];
            let mut bn16 = [-7i16; 8];
            accumulate_narrow_lanes(&mut dense_n16, &[w; 8], &xs);
            accumulate_narrow_broadcast_weight(&mut bn16, w, &xs);
            assert_eq!(dense_n16, bn16, "narrow, w={w}");
        }
    }

    #[test]
    fn broadcast_state_matches_dense() {
        for x in [0i16, 512, -3, i16::MAX, i16::MIN] {
            let ws = spiky_row();
            let mut dense_w32 = [-9i32; 8];
            let mut bw32 = [-9i32; 8];
            accumulate_wide_lanes(&mut dense_w32, &ws, &[x; 8]);
            accumulate_wide_broadcast_state(&mut bw32, &ws, x);
            assert_eq!(dense_w32, bw32, "wide, x={x}");
            let mut dense_n16 = [11i16; 8];
            let mut bn16 = [11i16; 8];
            accumulate_narrow_lanes(&mut dense_n16, &ws, &[x; 8]);
            accumulate_narrow_broadcast_state(&mut bn16, &ws, x);
            assert_eq!(dense_n16, bn16, "narrow, x={x}");
        }
    }

    /// Zero-lane masking is lossless: a dense fire over a row whose gated
    /// lanes hold zero operands equals a masked fire that never visits
    /// them — whatever garbage those lanes carry on the *other* side.
    #[test]
    fn masked_fire_matches_dense_when_gated_lanes_are_zero() {
        let ws = [256i16, 0, i16::MAX, 0, -256, 0, 77, 0];
        let xs_garbage = [100i16, 999, i16::MIN, -1, 50, i16::MAX, -3, 42];
        let xs_zeroed = [100i16, 0, i16::MIN, 0, 50, 0, -3, 0];
        let live = 0b0101_0101u64;
        let mut dense = [5i32; 8];
        accumulate_wide_lanes(&mut dense, &ws, &xs_zeroed);
        let mut masked = [5i32; 8];
        accumulate_wide_masked(
            &mut masked,
            LaneSrc::Lanes(&ws),
            LaneSrc::Lanes(&xs_garbage),
            live,
        );
        assert_eq!(dense, masked);
        let mut dense_n = [-2i16; 8];
        accumulate_narrow_lanes(&mut dense_n, &ws, &xs_zeroed);
        let mut masked_n = [-2i16; 8];
        accumulate_narrow_masked(
            &mut masked_n,
            LaneSrc::Lanes(&ws),
            LaneSrc::Lanes(&xs_garbage),
            live,
        );
        assert_eq!(dense_n, masked_n);
    }

    #[test]
    fn masked_fire_with_full_mask_and_splats_matches_dense() {
        let ws = spiky_row();
        let mut dense = [0i32; 8];
        accumulate_wide_lanes(&mut dense, &ws, &[300; 8]);
        let mut masked = [0i32; 8];
        accumulate_wide_masked(&mut masked, LaneSrc::Lanes(&ws), LaneSrc::Splat(300), 0xFF);
        assert_eq!(dense, masked);
        let mut both = [0i32; 8];
        accumulate_wide_masked(&mut both, LaneSrc::Splat(256), LaneSrc::Splat(256), 0xFF);
        assert_eq!(both, [256i32 * 256; 8]);
    }

    #[test]
    fn masked_fire_with_empty_mask_is_a_no_op() {
        let mut acc = [17i32; 4];
        accumulate_wide_masked(&mut acc, LaneSrc::Splat(999), LaneSrc::Splat(999), 0);
        assert_eq!(acc, [17i32; 4]);
    }
}
