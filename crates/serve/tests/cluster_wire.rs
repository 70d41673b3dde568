//! Regression test for binary cluster bodies over the *real* HTTP
//! layer: `/cluster/poll` answers a finished job with an
//! `encode_completion` payload (LE u64 fields, FNV checksum) that must
//! cross the socket byte-for-byte. An earlier bug routed every cluster
//! response through a lossy UTF-8 conversion, which corrupted exactly
//! this path — SimNet passes bytes verbatim, so only a real-TCP test
//! can catch it.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnp_kernel::watch_termination;
use pnp_net::{RealTcp, Transport, WireRequest};
use pnp_serve::cluster::WorkerGateway;
use pnp_serve::job::{JobConfig, JobRequest};
use pnp_serve::supervisor::{ServeConfig, Supervisor};
use pnp_serve::transport::{decode_completion, encode_dispatch, Dispatch};
use pnp_serve::Node;

mod common;
use common::TempDir;

const SPEC: &str = r#"
system {
    global total = 0;

    component a {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }
    component b {
        var count = 0;
        state work, done;
        end done;
        from work if count < 8 do count = count + 1 goto work;
        from work if count >= 8 do total = total + 1 goto done;
    }

    property totals: invariant total <= 2;
}
"#;

#[test]
fn poll_completion_survives_real_tcp_byte_for_byte() {
    let dir = TempDir::new("cluster-wire-test");
    let supervisor = Arc::new(
        Supervisor::start(ServeConfig {
            workers: 1,
            state_dir: dir.path().to_path_buf(),
            ..ServeConfig::default()
        })
        .expect("supervisor starts"),
    );
    let gateway = Arc::new(WorkerGateway::new("w1", Arc::clone(&supervisor)));
    let node = Arc::new(Node {
        supervisor,
        coordinator: None,
        gateway: Some(Arc::clone(&gateway)),
    });

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let term = watch_termination();
    std::thread::spawn(move || {
        let _ = pnp_serve::serve_node(listener, node, term);
    });

    let tcp = RealTcp::default();
    let dispatch = Dispatch {
        job: 1,
        epoch: 0,
        attempts: 0,
        deadline_at_ms: None,
        request: JobRequest::new(SPEC.to_string(), JobConfig::default()),
    };
    let response = tcp
        .request(
            &addr,
            &WireRequest::post("/cluster/execute", encode_dispatch(&dispatch)),
        )
        .expect("execute reaches the worker");
    assert_eq!(response.status, 202, "dispatch accepted");

    // Poll until the job finishes; the 200 body is the binary
    // completion and must decode, checksum and all.
    let deadline = Instant::now() + Duration::from_secs(30);
    let completion = loop {
        let response = tcp
            .request(&addr, &WireRequest::get("/cluster/poll?job=1&epoch=0"))
            .expect("poll reaches the worker");
        if response.status == 200 {
            break decode_completion(&response.body)
                .expect("completion body crossed the wire intact");
        }
        assert_eq!(response.status, 202, "job still running");
        assert!(Instant::now() < deadline, "job did not finish in time");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(completion.job, 1);
    assert_eq!(completion.epoch, 0);
    assert_eq!(completion.worker, "w1");
    let results = completion.results.expect("verdict carries results");
    assert!(!results.is_empty());
}
