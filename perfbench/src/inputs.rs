//! Inputs generated from the workload seed: the same seed gives the same
//! values.

use neurocube_fixed::Q88;
use neurocube_nn::{Shape, Tensor};

/// SplitMix64: a small, well-mixed generator for input values.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A tensor of `shape` with values spread over `[-1, 1)` in steps of
/// 1/256, drawn from `seed`.
pub fn tensor(shape: Shape, seed: u64) -> Tensor {
    let data = (0..shape.len() as u64)
        .map(|i| {
            let bits = splitmix(seed ^ splitmix(i)) >> 55; // 9 bits
            Q88::from_bits(bits as i16 - 256)
        })
        .collect();
    Tensor::from_vec(shape.channels, shape.height, shape.width, data)
}

/// A seed derived from the workload seed for one named use, so separate
/// uses draw separate streams.
pub fn derive(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ splitmix(salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_other_seed_other_values() {
        let shape = Shape::new(1, 8, 8);
        assert_eq!(tensor(shape, 1).as_slice(), tensor(shape, 1).as_slice());
        assert_ne!(tensor(shape, 1).as_slice(), tensor(shape, 2).as_slice());
        assert!(tensor(shape, 3)
            .as_slice()
            .iter()
            .all(|q| (-1.0..1.0).contains(&q.to_f64())));
    }
}
