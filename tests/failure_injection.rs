//! Failure injection across every wire format: systematic corruption
//! must surface as errors (or, for the payload regions of the lossy
//! codec, at worst as decoded garbage) — never as panics, hangs, or
//! out-of-bounds access.

use sciml_bench::dataset::{DatasetBuilder, EncodedFormat};
use sciml_codec::cosmoflow as cf;
use sciml_codec::deepcam as dc;
use sciml_codec::Op;
use sciml_data::cosmoflow::{CosmoFlowConfig, UniverseGenerator};
use sciml_data::deepcam::{ClimateGenerator, DeepCamConfig};
use sciml_data::serialize;
use sciml_pipeline::source::VecSource;
use sciml_pipeline::{Pipeline, PipelineConfig};
use std::sync::Arc;

fn cosmo_bytes() -> Vec<u8> {
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 12;
    cf::encode(&UniverseGenerator::new(cfg).generate(0)).to_bytes()
}

fn deepcam_bytes() -> Vec<u8> {
    dc::encode(
        &ClimateGenerator::new(DeepCamConfig::test_small()).generate(0),
        &dc::EncoderConfig::default(),
    )
    .0
    .to_bytes()
}

/// Flip one bit at every sampled position; parsing and decoding must not
/// panic, and any successfully parsed container must decode or error
/// cleanly.
#[test]
fn cosmo_codec_survives_bit_flips() {
    let bytes = cosmo_bytes();
    for pos in (0..bytes.len()).step_by(13) {
        for bit in [0u8, 4, 7] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            if let Ok(enc) = cf::EncodedCosmo::from_bytes(&corrupted) {
                let _ = cf::decode(&enc, Op::Log1p);
                let _ = cf::decode_counts(&enc);
            }
        }
    }
}

#[test]
fn deepcam_codec_survives_bit_flips() {
    let bytes = deepcam_bytes();
    for pos in (0..bytes.len()).step_by(29) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x81;
        if let Ok(enc) = dc::EncodedDeepCam::from_bytes(&corrupted) {
            let _ = dc::decode(&enc, Op::Identity);
        }
    }
}

/// Every truncation point of every format errors cleanly.
#[test]
fn all_formats_reject_every_truncation() {
    let cosmo = cosmo_bytes();
    for cut in (0..cosmo.len()).step_by(7) {
        assert!(
            cf::EncodedCosmo::from_bytes(&cosmo[..cut]).is_err(),
            "cosmo cut {cut}"
        );
    }
    let cam = deepcam_bytes();
    for cut in (0..cam.len()).step_by(37) {
        assert!(
            dc::EncodedDeepCam::from_bytes(&cam[..cut]).is_err(),
            "deepcam cut {cut}"
        );
    }
    let s = ClimateGenerator::new(DeepCamConfig::test_small()).generate(1);
    let h5 = serialize::deepcam_to_h5(&s).unwrap();
    for cut in (0..h5.len()).step_by(101) {
        assert!(
            serialize::deepcam_from_h5(&h5[..cut]).is_err(),
            "h5 cut {cut}"
        );
    }
}

/// A pipeline fed one corrupt sample among good ones reports the error
/// instead of hanging or delivering bad data silently.
#[test]
fn pipeline_surfaces_midstream_corruption() {
    let mut cfg = CosmoFlowConfig::test_small();
    cfg.grid = 12;
    let b = DatasetBuilder::cosmoflow(cfg);
    let mut blobs = b.build(6, EncodedFormat::Custom);
    // Corrupt the grid field of sample 3 so decode sees an inconsistent
    // container.
    blobs[3][9] ^= 0xFF;
    let plugin = b.plugin(EncodedFormat::Custom, Op::Log1p);
    let mut p = Pipeline::launch(
        Arc::new(VecSource::new(blobs)),
        plugin,
        PipelineConfig {
            batch_size: 2,
            epochs: 1,
            reader_threads: 2,
            decode_threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // Some batches may arrive before the corrupt sample is hit, but the
    // run must terminate with an error, not deliver all 6 samples.
    let mut delivered = 0;
    let mut saw_error = false;
    loop {
        match p.next_batch() {
            Ok(Some(batch)) => delivered += batch.len(),
            Ok(None) => break,
            Err(_) => {
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error, "corruption was swallowed; delivered {delivered}");
    assert!(delivered < 6);
}

/// Zeroing whole regions (directory, payload, table) of the containers
/// must never panic.
#[test]
fn zeroed_regions_never_panic() {
    for bytes in [cosmo_bytes(), deepcam_bytes()] {
        let n = bytes.len();
        for (start, end) in [(0, n / 4), (n / 4, n / 2), (n / 2, n)] {
            let mut z = bytes.clone();
            z[start..end].fill(0);
            if let Ok(enc) = cf::EncodedCosmo::from_bytes(&z) {
                let _ = cf::decode(&enc, Op::Identity);
            }
            if let Ok(enc) = dc::EncodedDeepCam::from_bytes(&z) {
                let _ = dc::decode(&enc, Op::Identity);
            }
        }
    }
}

// ------------------------------------------------------------------
// Wire protocol (serving layer): every corruption class must surface
// as a typed `ProtocolError` — never a panic, hang, or allocation
// proportional to an attacker-controlled length.

mod wire {
    use sciml_compress::crc32::crc32;
    use sciml_serve::protocol::{
        decode_frame, encode_frame, read_message, ErrorCode, Message, ProtocolError,
        MAX_FRAME_BYTES,
    };
    use sciml_serve::PROTOCOL_VERSION;

    fn sample_frame() -> Vec<u8> {
        encode_frame(&Message::FetchSamples {
            name: "cosmo".into(),
            indices: vec![0, 7, 3, 7],
        })
    }

    /// Every strict prefix of a valid frame is `Truncated` (or an Io
    /// error on the streaming path) — never a partial decode.
    #[test]
    fn truncated_frames_rejected() {
        let frame = sample_frame();
        for cut in 0..frame.len() {
            assert!(
                matches!(decode_frame(&frame[..cut]), Err(ProtocolError::Truncated)),
                "prefix of {cut} bytes must be Truncated"
            );
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(
                read_message(&mut cursor).is_err(),
                "streaming prefix of {cut} bytes must error"
            );
        }
    }

    /// Corrupting any payload byte flips the CRC check.
    #[test]
    fn bad_crc_detected_for_every_payload_byte() {
        let frame = sample_frame();
        let payload_len = frame.len() - 8;
        for i in 0..payload_len {
            let mut corrupt = frame.clone();
            corrupt[4 + i] ^= 0xA5;
            match decode_frame(&corrupt) {
                Err(ProtocolError::BadCrc { computed, stored }) => {
                    assert_ne!(computed, stored)
                }
                other => panic!("payload byte {i}: expected BadCrc, got {other:?}"),
            }
        }
    }

    /// A frame whose payload carries an unknown tag (with a valid CRC,
    /// so it reaches the parser) is `UnknownTag`.
    #[test]
    fn unknown_tags_rejected() {
        // 0x15 is the first tag past any ever assigned (0x13/0x14 were
        // the retired cluster-manifest pair).
        for tag in [0x00u8, 0x15, 0x42, 0xEE, 0xFF] {
            let payload = vec![tag];
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            assert!(
                matches!(decode_frame(&frame), Err(ProtocolError::UnknownTag(t)) if t == tag),
                "tag {tag:#04x} must be rejected"
            );
        }
    }

    /// Oversized length prefixes are rejected before any allocation,
    /// on both the slice and streaming paths.
    #[test]
    fn oversized_length_prefix_rejected() {
        for len in [MAX_FRAME_BYTES + 1, u32::MAX / 2, u32::MAX] {
            let mut frame = vec![0u8; 64];
            frame[..4].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(
                decode_frame(&frame),
                Err(ProtocolError::Oversized(l)) if l == len
            ));
            let mut cursor = std::io::Cursor::new(frame);
            assert!(matches!(
                read_message(&mut cursor),
                Err(ProtocolError::Oversized(l)) if l == len
            ));
        }
    }

    /// A shard entry damaged on disk is caught where the server reads it
    /// — against the index CRC — and reaches the client as a typed
    /// `SourceError`, not retried and never delivered; the entries
    /// around it are served as before, through the cache and past it.
    #[test]
    fn corrupted_shard_entry_is_a_server_source_error() {
        use sciml_pipeline::source::VecSource;
        use sciml_pipeline::{PipelineError, SampleSource};
        use sciml_serve::{ClientConfig, RemoteSource, ServeBuilder, ServerConfig, ServerError};
        use sciml_store::{pack_store, EncodingChoice, PackConfig, ShardSource};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("sciml_corrupt_entry_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let samples: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA0 + i; 1000]).collect();
        let pack = PackConfig {
            encoding: EncodingChoice::Raw,
            ..PackConfig::default()
        };
        let manifest = pack_store(&VecSource::new(samples.clone()), &dir, pack).unwrap();
        // Flip one byte in the middle of sample 2's run of 0xA2.
        let path = dir.join(&manifest.shards[0].file);
        let mut shard = std::fs::read(&path).unwrap();
        let at = shard
            .windows(1000)
            .position(|w| w == &samples[2][..])
            .unwrap()
            + 500;
        shard[at] ^= 0x01;
        std::fs::write(&path, shard).unwrap();

        for cache_bytes in [0, u64::MAX] {
            let server = ServeBuilder::new()
                .config(ServerConfig {
                    cache_bytes,
                    ..ServerConfig::default()
                })
                .dataset_store("ds", Arc::new(ShardSource::open(&dir).unwrap()))
                .bind("127.0.0.1:0")
                .expect("bind");
            let cfg = ClientConfig {
                initial_backoff: std::time::Duration::from_millis(1),
                ..ClientConfig::default()
            };
            let remote = RemoteSource::connect_with(server.local_addr().to_string(), "ds", cfg)
                .expect("connect");
            for _ in 0..2 {
                let mut buf = vec![0xEE; 16];
                let err = remote.fetch_into(2, &mut buf).expect_err("damaged entry");
                let PipelineError::Remote(inner) = &err else {
                    panic!("{err:?}");
                };
                let code = inner.downcast_ref::<ServerError>().map(|e| e.code);
                assert_eq!(code, Some(ErrorCode::SourceError), "{err}");
                assert!(buf.is_empty());
                for i in [0, 1, 3] {
                    assert_eq!(remote.fetch(i).unwrap(), samples[i], "sample {i}");
                }
            }
            assert_eq!(
                remote.retries(),
                0,
                "a server-reported error is not retried"
            );
            server.shutdown();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A live server answers a corrupt frame with a typed error frame
    /// (when framing allows) and never crashes; the next, clean
    /// connection must work.
    #[test]
    fn server_survives_corrupt_frames() {
        use sciml_pipeline::source::VecSource;
        use sciml_pipeline::SampleSource;
        use sciml_serve::protocol::write_message;
        use sciml_serve::ServeBuilder;
        use std::io::Write as _;
        use std::sync::Arc;

        let server = ServeBuilder::new()
            .dataset(
                "ds",
                Arc::new(VecSource::new(vec![vec![1u8; 8]; 4])) as Arc<dyn SampleSource>,
            )
            .bind("127.0.0.1:0")
            .expect("bind");

        // Connection 1: greet, then send garbage with a bad CRC.
        let mut c = std::net::TcpStream::connect(server.local_addr()).unwrap();
        c.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        write_message(
            &mut c,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        let _ = read_message(&mut c).unwrap();
        let payload = Message::Manifest { name: "ds".into() }.to_payload();
        c.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        c.write_all(&payload).unwrap();
        c.write_all(&0xDEADBEEFu32.to_le_bytes()).unwrap(); // wrong CRC
        c.flush().unwrap();
        // The server answers with a typed error frame, then closes.
        match read_message(&mut c) {
            Ok(Message::Error { .. }) => {}
            other => panic!("expected error frame, got {other:?}"),
        }

        // Connection 2 (clean) must be unaffected.
        let mut c2 = std::net::TcpStream::connect(server.local_addr()).unwrap();
        c2.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        write_message(
            &mut c2,
            &Message::Hello {
                version: PROTOCOL_VERSION,
            },
        )
        .unwrap();
        assert!(matches!(
            read_message(&mut c2).unwrap(),
            Message::HelloAck { .. }
        ));
        write_message(&mut c2, &Message::Manifest { name: "ds".into() }).unwrap();
        assert!(matches!(
            read_message(&mut c2).unwrap(),
            Message::ManifestReply(_)
        ));
        server.shutdown();
    }
}
