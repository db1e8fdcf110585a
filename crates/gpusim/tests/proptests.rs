//! Property tests: the simulated GPU kernels must match the CPU
//! decoders bit-for-bit on arbitrary inputs, and the cost accounting
//! must obey basic physical laws.

use proptest::prelude::*;
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoParams, CosmoSample};
use sciml_data::deepcam::DeepCamSample;
use sciml_gpusim::warp::coalesce;
use sciml_gpusim::{decode_cosmo, decode_deepcam, Gpu, GpuSpec};

fn cosmo_sample() -> impl Strategy<Value = CosmoSample> {
    (2usize..5).prop_flat_map(|grid| {
        let n = grid * grid * grid * 4;
        prop::collection::vec(0u16..300, n..=n).prop_map(move |counts| CosmoSample {
            grid,
            counts,
            label: CosmoParams::MEANS,
        })
    })
}

fn deepcam_sample() -> impl Strategy<Value = DeepCamSample> {
    (4usize..32, 1usize..3).prop_flat_map(|(w, h)| {
        let n = w * h;
        prop::collection::vec(-500f32..500f32, n..=n).prop_map(move |data| DeepCamSample {
            width: w,
            height: h,
            channels: 1,
            data,
            mask: vec![0; w * h],
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bit-exact equivalence of device and host decoders, any input,
    /// both device generations, both ops.
    #[test]
    fn device_equals_host_for_all_inputs(s in cosmo_sample(), d in deepcam_sample()) {
        let cenc = cf::encode(&s);
        let (denc, _) = dc::encode(&d, &dc::EncoderConfig::default());
        for spec in [GpuSpec::V100, GpuSpec::A100] {
            let gpu = Gpu::new(spec);
            let (cosmo_dev, _, _) = decode_cosmo(&gpu, &cenc.view(), Op::Log1p).unwrap();
            prop_assert_eq!(cosmo_dev, cf::decode(&cenc, Op::Log1p).unwrap());
            let (cam_dev, _, _) = decode_deepcam(&gpu, &denc.view(), Op::Identity).unwrap();
            prop_assert_eq!(cam_dev, dc::decode(&denc, Op::Identity).unwrap());
        }
    }

    /// Simulated time is positive, finite, and weakly decreasing in
    /// machine capability (A100 never slower than V100 on equal work).
    #[test]
    fn sim_time_is_physical(s in cosmo_sample()) {
        let enc = cf::encode(&s);
        let (_, sv, tv) = decode_cosmo(&Gpu::new(GpuSpec::V100), &enc.view(), Op::Log1p).unwrap();
        let (_, sa, ta) = decode_cosmo(&Gpu::new(GpuSpec::A100), &enc.view(), Op::Log1p).unwrap();
        prop_assert!(tv.is_finite() && tv > 0.0);
        prop_assert!(ta <= tv * 1.0001);
        // Same kernel, same work: identical functional counters.
        prop_assert_eq!(sv.tasks, sa.tasks);
    }

    /// Coalescing bounds: between ceil(span/32) and lane count.
    #[test]
    fn coalesce_bounds(addrs in prop::collection::vec(0u64..1_000_000, 1..32)) {
        let tx = coalesce(&addrs);
        prop_assert!(tx >= 1);
        prop_assert!(tx <= addrs.len() as u64);
        let lo = *addrs.iter().min().unwrap() / 32;
        let hi = *addrs.iter().max().unwrap() / 32;
        prop_assert!(tx <= hi - lo + 1);
    }

    /// Coalescing is permutation-invariant.
    #[test]
    fn coalesce_is_order_independent(mut addrs in prop::collection::vec(0u64..10_000, 1..32)) {
        let a = coalesce(&addrs);
        addrs.reverse();
        prop_assert_eq!(a, coalesce(&addrs));
    }

    /// More scattered access never costs fewer transactions: scaling all
    /// addresses apart cannot reduce the sector count.
    #[test]
    fn spreading_addresses_never_coalesces_better(base in prop::collection::vec(0u64..1000, 2..32)) {
        let tight = coalesce(&base);
        let spread: Vec<u64> = base.iter().map(|&a| a * 64).collect();
        prop_assert!(coalesce(&spread) >= tight);
    }
}
