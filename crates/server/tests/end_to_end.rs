//! Full-stack integration: real TCP, concurrent tenants of every
//! personality, adaptive retuning under load, telemetry export, graceful
//! shutdown.

use std::thread;
use std::time::{Duration, Instant};

use relaxed2d_server::{
    Client, ErrorCode, Personality, Request, Response, Server, ServerConfig, TenantConfig,
};

fn fast_config() -> ServerConfig {
    ServerConfig {
        tenants: TenantConfig { cadence: Duration::from_millis(1), ..TenantConfig::default() },
        ..ServerConfig::default()
    }
}

#[test]
fn two_tenants_per_personality_served_concurrently() {
    let handle = Server::spawn(fast_config()).expect("bind");
    let addr = handle.local_addr();

    let mut setup = Client::connect(addr).expect("connect");
    for p in Personality::ALL {
        for tenant in ["alpha", "beta"] {
            assert_eq!(
                setup.create(p, tenant, 1_000_000).expect("create"),
                Response::Created { fresh: true }
            );
        }
    }

    // One client thread per (personality, tenant): queues and pools do
    // produce/consume round trips, limiters acquire.
    let workers: Vec<_> = Personality::ALL
        .into_iter()
        .flat_map(|p| ["alpha", "beta"].map(|t| (p, t)))
        .map(|(p, tenant)| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("worker connect");
                let mut consumed = 0u64;
                for i in 0..200u64 {
                    match p {
                        Personality::RateLimiter => match c.acquire(tenant, 1).expect("acquire") {
                            Response::Decision { .. } => {}
                            other => panic!("unexpected acquire reply: {other:?}"),
                        },
                        _ => {
                            assert_eq!(c.produce(p, tenant, i).expect("produce"), Response::Done);
                            match c.consume(p, tenant).expect("consume") {
                                Response::Item { .. } => consumed += 1,
                                Response::Empty => {}
                                other => panic!("unexpected consume reply: {other:?}"),
                            }
                        }
                    }
                }
                consumed
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    // Every tenant exists exactly once and saw traffic.
    for p in Personality::ALL {
        for tenant in ["alpha", "beta"] {
            assert_eq!(
                setup.create(p, tenant, 0).expect("re-create"),
                Response::Created { fresh: false }
            );
            match setup.stats(p, tenant).expect("stats") {
                Response::Stats { ops, .. } => {
                    assert!(ops > 0, "{p}/{tenant} saw no ops")
                }
                other => panic!("unexpected stats reply: {other:?}"),
            }
        }
    }
    drop(setup);

    let report = handle.shutdown().expect("graceful shutdown");
    assert_eq!(report.tenants.len(), 6, "expected 6 tenants, got {:?}", report.tenants);
}

#[test]
fn pipelined_contention_retunes_the_tenant() {
    let handle = Server::spawn(fast_config()).expect("bind");
    let addr = handle.local_addr();
    Client::connect(addr)
        .expect("connect")
        .create(Personality::TaskQueue, "hot", 0)
        .expect("create");

    // Hammer one queue tenant from four pipelined connections until its
    // controller has observably retuned (or a generous deadline passes).
    let deadline = Instant::now() + Duration::from_secs(20);
    let batch: Vec<Request> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                Request::Produce {
                    personality: Personality::TaskQueue,
                    tenant: "hot".into(),
                    value: i,
                }
            } else {
                Request::Consume { personality: Personality::TaskQueue, tenant: "hot".into() }
            }
        })
        .collect();
    let retunes = 'outer: loop {
        let rounds: Vec<_> = (0..4)
            .map(|_| {
                let batch = batch.clone();
                thread::spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for _ in 0..50 {
                        let resps = c.call(&batch).expect("batch");
                        assert_eq!(resps.len(), batch.len());
                    }
                })
            })
            .collect();
        for r in rounds {
            r.join().expect("hammer thread");
        }
        let mut c = Client::connect(addr).expect("connect");
        match c.stats(Personality::TaskQueue, "hot").expect("stats") {
            Response::Stats { retunes, .. } if retunes > 0 => break 'outer retunes,
            Response::Stats { retunes, .. } if Instant::now() > deadline => break 'outer retunes,
            Response::Stats { .. } => continue,
            other => panic!("unexpected stats reply: {other:?}"),
        }
    };
    assert!(retunes > 0, "controller never retuned under pipelined contention");
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn limiter_allows_then_throttles_then_resets() {
    let handle = Server::spawn(fast_config()).expect("bind");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.create(Personality::RateLimiter, "api", 10).expect("create");

    match c.acquire("api", 5).expect("acquire") {
        Response::Decision { allowed, .. } => assert!(allowed),
        other => panic!("unexpected: {other:?}"),
    }
    match c.acquire("api", 4000).expect("acquire") {
        Response::Decision { allowed, observed, limit } => {
            assert!(!allowed);
            assert!(observed > limit);
        }
        other => panic!("unexpected: {other:?}"),
    }
    assert_eq!(c.reset("api").expect("reset"), Response::Done);
    match c.acquire("api", 1).expect("acquire") {
        Response::Decision { allowed, .. } => assert!(allowed),
        other => panic!("unexpected: {other:?}"),
    }
    drop(c);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn telemetry_export_lands_on_disk_with_retune_events() {
    let dir = std::env::temp_dir().join(format!("r2d-e2e-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig { telemetry_dir: Some(dir.clone()), ..fast_config() };
    let handle = Server::spawn(config).expect("bind");
    let addr = handle.local_addr();

    let mut c = Client::connect(addr).expect("connect");
    c.create(Personality::ObjectPool, "conns", 0).expect("create");
    let batch: Vec<Request> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                Request::Produce {
                    personality: Personality::ObjectPool,
                    tenant: "conns".into(),
                    value: i,
                }
            } else {
                Request::Consume { personality: Personality::ObjectPool, tenant: "conns".into() }
            }
        })
        .collect();
    for _ in 0..100 {
        c.call(&batch).expect("batch");
    }
    drop(c);

    let report = handle.shutdown().expect("graceful shutdown");
    assert_eq!(report.telemetry.len(), 2, "expected jsonl + prom, got {:?}", report.telemetry);
    let jsonl = std::fs::read_to_string(&report.telemetry[0]).expect("read jsonl");
    assert!(jsonl.contains("\"scope\":\"object-pool/conns\""), "tenant scope missing from export");
    let prom = std::fs::read_to_string(&report.telemetry[1]).expect("read prom");
    assert!(prom.contains("stack2d_"), "prometheus export empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_request_drains_the_whole_server() {
    let handle = Server::spawn(fast_config()).expect("bind");
    let addr = handle.local_addr();
    let mut idle = Client::connect(addr).expect("idle connect");
    assert_eq!(idle.ping().expect("ping"), Response::Pong);

    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(c.shutdown_server().expect("shutdown"), Response::ShuttingDown);
    // The flag propagates to the handle without any local call.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !handle.shutdown_requested() {
        assert!(Instant::now() < deadline, "shutdown flag never propagated");
        thread::sleep(Duration::from_millis(5));
    }
    let report = handle.shutdown().expect("graceful shutdown");
    assert!(report.tenants.is_empty());
    // The idle connection was torn down by the drain.
    match idle.ping() {
        Err(_) => {}
        Ok(resp) => panic!("idle connection survived shutdown: {resp:?}"),
    }
}

#[test]
fn unknown_tenant_and_capacity_errors_are_typed() {
    let config = ServerConfig {
        tenants: TenantConfig { max_tenants: 2, ..TenantConfig::default() },
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config).expect("bind");
    let mut c = Client::connect(handle.local_addr()).expect("connect");

    match c.consume(Personality::TaskQueue, "nope").expect("consume") {
        Response::Error { code: ErrorCode::UnknownTenant, .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    c.create(Personality::TaskQueue, "a", 0).expect("create");
    c.create(Personality::TaskQueue, "b", 0).expect("create");
    match c.create(Personality::TaskQueue, "c", 0).expect("create") {
        Response::Error { code: ErrorCode::TenantCapacity, .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
    drop(c);
    handle.shutdown().expect("graceful shutdown");
}

#[test]
fn buffered_client_keeps_pipelined_and_single_calls_aligned() {
    let handle = Server::spawn(fast_config()).expect("bind");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    let q = Personality::TaskQueue;
    c.create(q, "jobs", 0).expect("create");
    for round in 0..3u64 {
        let base = round * 100;
        let mut batch: Vec<Request> = (base..base + 16)
            .map(|value| Request::Produce { personality: q, tenant: "jobs".into(), value })
            .collect();
        batch.extend((0..16).map(|_| Request::Consume { personality: q, tenant: "jobs".into() }));
        let resps = c.call(&batch).expect("pipelined call");
        assert_eq!(resps.len(), 32);
        assert!(resps[..16].iter().all(|r| *r == Response::Done), "round {round}: {resps:?}");
        let mut got: Vec<u64> = resps[16..]
            .iter()
            .map(|r| match r {
                Response::Item { value } => *value,
                other => panic!("round {round}: expected Item, got {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (base..base + 16).collect::<Vec<_>>());
        // The next frame on the same connection must start exactly where
        // the batch's response ended.
        assert_eq!(c.consume(q, "jobs").expect("single call"), Response::Empty);
        assert_eq!(c.ping().expect("ping"), Response::Pong);
    }
    drop(c);
    handle.shutdown().expect("graceful shutdown");
}
