//! `FF8P` loader robustness: the same bar the `FF8S` and `FF8C` fuzz
//! suites set, run through the shared [`ff_codec::fuzz`] harness over
//! every frame kind at every protocol version — truncation at every byte
//! offset, single-byte flips and stream cuts yield typed errors (or a
//! different but valid frame), never a panic.

use ff_codec::fuzz::{Fault, Harness};
use ff_net::protocol::{
    decode_frame_meta, encode_frame_meta, read_frame_meta, sample_frames, write_frame_at,
    write_frame_meta,
};
use ff_net::{
    Frame, FrameMeta, NetError, NetServer, DEFAULT_MAX_FRAME_BYTES, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};

/// The v3 header meta every metadata-fuzz case uses: a non-default model
/// id (both bytes of the flags word populated) and a real token, so the
/// sweeps below actually traverse model-id and auth bytes.
fn fuzz_meta() -> FrameMeta {
    FrameMeta {
        model_id: 0x0201,
        token: Some("tenant-a-secret".to_string()),
    }
}

/// The shared codec harness over `artifacts`, reading with the default
/// frame limit.
fn harness(artifacts: Vec<Vec<u8>>) -> Harness<(Frame, u16, FrameMeta), NetError> {
    Harness {
        artifacts,
        decode: decode_frame_meta,
        encode: |(frame, version, meta)| encode_frame_meta(frame, *version, meta),
        read: |stream| read_frame_meta(stream, DEFAULT_MAX_FRAME_BYTES),
        fault: |e| match e {
            NetError::Codec(_) | NetError::Frame { .. } => Some(Fault::Malformed),
            NetError::Closed => Some(Fault::Eof),
            NetError::FrameTooLarge { .. } => Some(Fault::Oversize),
            _ => None,
        },
    }
}

/// Every sample frame encoded at `version` with `meta`.
fn encoded(version: u16, meta: &FrameMeta) -> Vec<Vec<u8>> {
    let frames = sample_frames();
    frames
        .iter()
        .map(|f| encode_frame_meta(f, version, meta))
        .collect()
}

/// Every sample frame at every protocol version, with default meta.
fn every_version() -> Vec<Vec<u8>> {
    let versions = MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION;
    versions
        .flat_map(|v| encoded(v, &FrameMeta::default()))
        .collect()
}

/// Every sample frame at the newest version with [`fuzz_meta`] in the
/// header, which shifts every later offset.
fn with_meta() -> Vec<Vec<u8>> {
    encoded(PROTOCOL_VERSION, &fuzz_meta())
}

#[test]
fn every_truncation_at_every_protocol_version_is_a_typed_error() {
    // The version-2 fields (deadline, retry hint, health state, shed
    // counters) and version-3 auth record shift every later byte offset,
    // so the sweep covers every encoding, not just the current one.
    harness(every_version()).check_truncations();
}

#[test]
fn every_truncation_of_v3_metadata_frames_is_a_typed_error() {
    harness(with_meta()).check_truncations();
}

#[test]
fn every_stream_truncation_is_a_typed_error() {
    // The outer length-prefixed framing layer: cutting the stream anywhere
    // (inside the length prefix or the frame) is Closed or a decode error.
    harness([every_version(), with_meta()].concat()).check_stream();
}

#[test]
fn single_byte_flips_never_panic() {
    harness([every_version(), with_meta()].concat()).check_flips();
}

#[test]
fn random_bytes_never_panic_the_stream_reader() {
    harness([every_version(), with_meta()].concat()).check_garbage();
}

#[test]
fn every_byte_flip_over_model_id_and_auth_fields_is_safe() {
    // Single-byte flips across the v3 header: magic, version, the model-id
    // flags word, the auth record length and every token byte. A flip that
    // still decodes (typed errors are `single_byte_flips_never_panic`'s
    // business) must be internally consistent: the flip landed in the meta
    // (a different model id or token is a different credential) or the
    // payload, and re-encoding reproduces the corrupted bytes — never the
    // original token with a mutated byte accepted silently.
    let header_span = 8 + 4 + 4 + fuzz_meta().token.map_or(0, |t| t.len()) + 4;
    for bytes in with_meta() {
        for offset in 0..header_span {
            for flip in [0x01u8, 0x80, 0xA5, 0xFF] {
                let mut corrupted = bytes.clone();
                corrupted[offset] ^= flip;
                if let Ok((frame, version, meta)) = decode_frame_meta(&corrupted) {
                    let reencoded = encode_frame_meta(&frame, version, &meta);
                    assert_eq!(reencoded, corrupted, "flip {flip:#x} at {offset}");
                }
            }
        }
    }
}

/// The interop matrix: one version-3 server, clients speaking every
/// supported protocol version. Each client must get its reply at **its
/// own** version with the correct payload — v1/v2 clients keep working
/// unchanged against a v3 server, and the v3 client's reply echoes its
/// model id without leaking the token.
#[test]
fn protocol_version_interop_matrix() {
    use ff_serve::FrozenModel;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let model = FrozenModel::freeze(&ff_models::small_mlp(8, &[6], 3, &mut rng), 3).unwrap();
    let expected = model
        .predict_logits(&ff_tensor::Tensor::from_vec(&[1, 8], vec![0.25; 8]).unwrap())
        .unwrap()[0] as u32;
    let server = NetServer::bind(model, "127.0.0.1:0", ff_net::NetConfig::default()).unwrap();
    let addr = server.local_addr();

    for version in MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();

        // Predict at this version; reply must arrive at the same version.
        let request = Frame::Predict {
            id: 1,
            deadline_micros: 0,
            features: vec![0.25; 8],
        };
        if version >= 3 {
            write_frame_meta(
                &mut stream,
                &request,
                version,
                &FrameMeta::for_model(0),
                DEFAULT_MAX_FRAME_BYTES,
            )
            .unwrap();
        } else {
            write_frame_at(&mut stream, &request, version, DEFAULT_MAX_FRAME_BYTES).unwrap();
        }
        let (reply, reply_version, reply_meta) =
            read_frame_meta(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(
            reply_version, version,
            "reply must speak the client's dialect"
        );
        assert_eq!(reply_meta.token, None, "replies never carry a token");
        assert_eq!(
            reply,
            Frame::Labels {
                id: 1,
                labels: vec![expected]
            },
            "v{version} client got a wrong prediction"
        );

        // Health at this version: pre-v3 clients see no model version (the
        // field defaults to 0 at decode), the v3 client sees the real one.
        write_frame_at(
            &mut stream,
            &Frame::Health { id: 2 },
            version,
            DEFAULT_MAX_FRAME_BYTES,
        )
        .unwrap();
        let (health, health_version, _) =
            read_frame_meta(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(health_version, version);
        match health {
            Frame::HealthReply {
                input_features,
                num_classes,
                model_version,
                ..
            } => {
                assert_eq!((input_features, num_classes), (8, 3));
                assert_eq!(model_version, if version >= 3 { 1 } else { 0 });
            }
            other => panic!("v{version}: expected a health reply, got {other:?}"),
        }

        // Stats at this version: the per-model list is v3-only payload.
        write_frame_at(
            &mut stream,
            &Frame::Stats { id: 3 },
            version,
            DEFAULT_MAX_FRAME_BYTES,
        )
        .unwrap();
        let (stats, stats_version, _) =
            read_frame_meta(&mut stream, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(stats_version, version);
        match stats {
            Frame::StatsReply { stats, .. } => {
                assert!(stats.requests >= 1);
                if version >= 3 {
                    assert_eq!(stats.models.len(), 1, "v3 stats carry the registry");
                    assert_eq!(stats.models[0].requests, stats.requests);
                } else {
                    assert!(stats.models.is_empty(), "per-model stats are v3-only");
                }
            }
            other => panic!("v{version}: expected a stats reply, got {other:?}"),
        }
    }
    server.shutdown();
}
