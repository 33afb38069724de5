//! The wire speaks exactly one version. Frames in the retired v1 and v2
//! layouts — pinned here byte by byte — are refused by the codec and by a
//! live server, which names the supported version and closes the
//! connection.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvmatch_proto::{code, decode_request, decode_response, read_frame, ProtoError, Response};
use kvmatch_server::demo::DemoSpec;
use kvmatch_server::{Server, ServerOptions};

/// The payload of `Query { rsm_ed([2.0, -1.0], 0.5), deadline: None }`
/// with request id 7, as a v1 or v2 peer would have assembled it.
fn old_query_payload(version: u8) -> Vec<u8> {
    let mut payload = vec![version, 0x01]; // version, REQ_QUERY
    payload.extend_from_slice(&7u64.to_le_bytes()); // request id
    payload.extend_from_slice(&0u64.to_le_bytes()); // series
    payload.extend_from_slice(&2u32.to_le_bytes()); // |Q|
    payload.extend_from_slice(&2.0f64.to_bits().to_le_bytes());
    payload.extend_from_slice(&(-1.0f64).to_bits().to_le_bytes());
    payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes()); // epsilon
    payload.extend_from_slice(&[0, 0, 0]); // measure ED, no constraint, no limit
    if version >= 2 {
        payload.push(0); // explain flag (v2 added it)
    }
    payload.push(0); // deadline: none
    payload
}

#[test]
fn v1_and_v2_frames_are_refused_by_codec_and_live_server() {
    let spec =
        DemoSpec { n: 4_000, w: 50, series: 1, seed: 7, threads: 0, submitters: 2, shards: 1 };
    let service = Arc::new(spec.spawn_service(1));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerOptions::default())
        .expect("bind loopback");

    for version in [1u8, 2] {
        let payload = old_query_payload(version);

        let err = decode_request(&payload).expect_err("old layout must not decode");
        assert!(matches!(err, ProtoError::UnknownVersion(v) if v == version), "{err:?}");
        assert_eq!(err.wire_code(), code::UNSUPPORTED_VERSION);
        assert!(err.to_string().contains("supported: 3"), "{err}");

        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        raw.write_all(&(payload.len() as u32).to_le_bytes()).expect("write prefix");
        raw.write_all(&payload).expect("write payload");
        let reply = read_frame(&mut raw).expect("error frame arrives").expect("not EOF");
        let frame = decode_response(&reply).expect("the reply is a current-version frame");
        assert_eq!(frame.request_id, 0, "connection-scoped error");
        match frame.message {
            Response::Error(e) => {
                assert_eq!(e.code, code::UNSUPPORTED_VERSION);
                assert!(e.detail.contains("supported: 3"), "{}", e.detail);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        let mut rest = Vec::new();
        raw.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "the server closes after the error frame");
    }

    // Both connection threads have ended, not merely gone quiet.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.net_metrics().connections_active != 0 {
        assert!(Instant::now() < deadline, "a refused connection's thread is still alive");
        std::thread::sleep(Duration::from_millis(5));
    }
    let net = server.net_metrics();
    assert_eq!((net.connections_accepted, net.protocol_errors, net.frames_in), (2, 2, 0));
    server.shutdown();
    Arc::try_unwrap(service).ok().expect("all server references released").shutdown();
}
