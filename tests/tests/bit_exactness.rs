//! The reproduction's central invariant, exercised with randomized network
//! geometries: the cycle-level Neurocube simulator computes **bit-for-bit**
//! the same values as the functional fixed-point reference, under every
//! mapping and memory configuration and at both MAC accumulator widths.
//! The reference ([`Executor`]) accumulates with the per-lane scalar
//! `MacUnit`, so these runs are also the end-to-end check of the PE's
//! lane kernels.

use neurocube::{Neurocube, SystemConfig};
use neurocube_fixed::AccumulatorWidth::{self, Narrow16, Wide32};
use neurocube_fixed::{Activation, Q88};
use neurocube_nn::{ConvConnectivity, Executor, LayerSpec, NetworkSpec, Shape, Tensor};
use proptest::prelude::*;

fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Identity),
        Just(Activation::ReLU),
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
    ]
}

/// Random small-but-nontrivial network: conv (maybe strided) → optional
/// pool → fc, over a random input volume.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    (
        1usize..3,                                   // input channels
        10usize..18,                                 // height
        10usize..18,                                 // width
        2usize..6,                                   // conv out channels
        prop_oneof![Just(2usize), Just(3), Just(5)], // kernel
        1usize..3,                                   // stride
        any::<bool>(),                               // all-maps connectivity
        any::<bool>(),                               // pooling present
        2usize..12,                                  // fc outputs
        activation_strategy(),
        activation_strategy(),
    )
        .prop_filter_map(
            "geometry must be valid",
            |(c, h, w, oc, k, s, all_maps, pool, fc, a1, a2)| {
                let mut layers = vec![LayerSpec::Conv2d {
                    out_channels: oc,
                    kernel: k,
                    stride: s,
                    connectivity: if all_maps {
                        ConvConnectivity::AllMaps
                    } else {
                        ConvConnectivity::SingleMap
                    },
                    activation: a1,
                }];
                if pool {
                    layers.push(LayerSpec::AvgPool { size: 2 });
                }
                layers.push(LayerSpec::fc(fc, a2));
                NetworkSpec::new(Shape::new(c, h, w), layers).ok()
            },
        )
}

fn input_for(spec: &NetworkSpec, seed: i32) -> Tensor {
    let s = spec.input_shape();
    Tensor::from_vec(
        s.channels,
        s.height,
        s.width,
        (0..s.len())
            .map(|i| {
                Q88::from_bits(
                    (((i as i32).wrapping_mul(2654435761_u32 as i32) ^ seed) % 700) as i16,
                )
            })
            .collect(),
    )
}

/// Runs `spec` on a cube built from `cfg` with `width` accumulators and
/// asserts every layer's volume equals the reference executor's at the
/// same width. Returns the final output.
fn check(mut cfg: SystemConfig, width: AccumulatorWidth, spec: &NetworkSpec, seed: u64) -> Tensor {
    cfg.accumulator = width;
    let params = spec.init_params(seed, 0.3);
    let reference = Executor::with_accumulator(spec.clone(), params.clone(), width);
    let input = input_for(spec, seed as i32);
    let expected = reference.forward(&input);

    let mut cube = Neurocube::new(cfg);
    let loaded = cube.load(spec.clone(), params);
    let (output, report) = cube.run_inference(&loaded, &input);
    assert_eq!(output, *expected.last().unwrap(), "final output differs");
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(
            &cube.read_volume(&loaded, i + 1),
            want,
            "intermediate volume {i} differs"
        );
    }
    let want: u64 = spec.macs_per_layer().iter().sum();
    let got: u64 = report.layers.iter().map(|l| l.macs).sum();
    assert_eq!(got, want, "MAC count mismatch");
    output
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_networks_bit_exact_with_duplication(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::paper(true), Wide32, &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_without_duplication(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::paper(false), Wide32, &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_on_ddr3(spec in network_strategy(), seed in 0u64..1000) {
        check(SystemConfig::ddr3(), Wide32, &spec, seed);
    }

    #[test]
    fn random_networks_bit_exact_on_fully_connected_noc(
        spec in network_strategy(),
        seed in 0u64..1000,
    ) {
        check(SystemConfig::fully_connected_noc(true), Wide32, &spec, seed);
    }
}

#[test]
fn deep_mlp_bit_exact() {
    let spec = NetworkSpec::new(
        Shape::flat(64),
        vec![
            LayerSpec::fc(48, Activation::Tanh),
            LayerSpec::fc(32, Activation::Sigmoid),
            LayerSpec::fc(24, Activation::ReLU),
            LayerSpec::fc(9, Activation::Identity),
        ],
    )
    .unwrap();
    check(SystemConfig::paper(true), Wide32, &spec, 77);
    check(SystemConfig::paper(false), Wide32, &spec, 78);
}

#[test]
fn deep_conv_stack_bit_exact() {
    let spec = NetworkSpec::new(
        Shape::new(2, 20, 20),
        vec![
            LayerSpec::conv(4, 3, Activation::Tanh),
            LayerSpec::conv(8, 3, Activation::ReLU),
            LayerSpec::AvgPool { size: 2 },
            LayerSpec::conv(8, 3, Activation::Tanh),
            LayerSpec::fc(5, Activation::Sigmoid),
        ],
    )
    .unwrap();
    check(SystemConfig::paper(true), Wide32, &spec, 79);
}

/// The 16-bit accumulator datapath end to end: renormalizing and
/// saturating after every MAC makes results depend on accumulation
/// order, so these pin that the cube feeds each neuron's MACs in the
/// reference's order. Both nets produce different outputs at the two
/// widths, so the cases exercise the narrow arithmetic, not a path
/// where the widths agree.
#[test]
fn narrow16_mnist_mlp_bit_exact_with_duplication() {
    let spec = neurocube_nn::workloads::mnist_mlp(64);
    for seed in 1..=3 {
        let narrow = check(SystemConfig::paper(true), Narrow16, &spec, seed);
        let wide = check(SystemConfig::paper(true), Wide32, &spec, seed);
        assert_ne!(
            narrow, wide,
            "seed {seed}: widths agree, the case is vacuous"
        );
    }
}

#[test]
fn narrow16_conv_fc_bit_exact_without_duplication() {
    let spec = NetworkSpec::new(
        Shape::new(2, 14, 14),
        vec![
            LayerSpec::conv(4, 3, Activation::Tanh),
            LayerSpec::fc(10, Activation::Sigmoid),
        ],
    )
    .unwrap();
    for seed in 1..=3 {
        let narrow = check(SystemConfig::paper(false), Narrow16, &spec, seed);
        let wide = check(SystemConfig::paper(false), Wide32, &spec, seed);
        assert_ne!(
            narrow, wide,
            "seed {seed}: widths agree, the case is vacuous"
        );
    }
}
