//! Property tests: the simulated GPU kernels must match the CPU
//! decoders bit-for-bit on arbitrary inputs, and the cost accounting
//! must obey basic physical laws.

use proptest::prelude::*;
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoParams, CosmoSample};
use sciml_data::deepcam::DeepCamSample;
use sciml_platform::gpusim::{decode_cosmo, decode_deepcam, GpuSpec};

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
    /// both device generations; DeepCAM under the identity and under
    /// an arbitrary normalisation.
    #[test]
    fn device_equals_host_for_all_inputs(
        s in cosmo_sample(),
        d in deepcam_sample(),
        scale in 0.01f32..4.0,
        offset in -10f32..300.0,
    ) {
        let cenc = cf::encode(&s);
        let (denc, _) = dc::encode(&d, &dc::EncoderConfig::default());
        for gpu in [GpuSpec::V100, GpuSpec::A100] {
            let (cosmo_dev, _, _) = decode_cosmo(&gpu, &cenc.view(), Op::Log1p).unwrap();
            prop_assert_eq!(cosmo_dev, cf::decode(&cenc, Op::Log1p).unwrap());
            for op in [Op::Identity, Op::Normalize { scale, offset }] {
                let (cam_dev, _, _) = decode_deepcam(&gpu, &denc.view(), op).unwrap();
                prop_assert_eq!(cam_dev, dc::decode(&denc, op).unwrap());
            }
        }
    }

    /// Simulated time is positive, finite, and weakly decreasing in
    /// machine capability (A100 never slower than V100 on equal work).
    #[test]
    fn sim_time_is_physical(s in cosmo_sample()) {
        let enc = cf::encode(&s);
        let (_, sv, tv) = decode_cosmo(&GpuSpec::V100, &enc.view(), Op::Log1p).unwrap();
        let (_, sa, ta) = decode_cosmo(&GpuSpec::A100, &enc.view(), Op::Log1p).unwrap();
        prop_assert!(tv.is_finite() && tv > 0.0);
        prop_assert!(ta <= tv * 1.0001);
        // Same kernel, same work: identical functional counters.
        prop_assert_eq!(sv.tasks, sa.tasks);
    }
}
