//! End-to-end daemon tests: concurrent clients over a real Unix socket
//! against a live [`Server`], pinning the acceptance contract —
//! byte-identical payloads to batch runs at any jobs count, exactly one
//! compute across coalesced clients, busy backpressure, and memos that
//! stay within their caps.
//!
//! One `#[test]` body: the runner's jobs count, the grid memo, and the
//! telemetry counters are process-global, so scenarios must run
//! sequentially in a controlled order (the same pattern as
//! `tests/parallel_determinism.rs` at the workspace root).

use ntc_choke_serve_tests::*;

// The crate under test is `ntc_serve`; this shim keeps the single-test
// structure readable by giving the helper fns a flat namespace.
mod ntc_choke_serve_tests {
    pub use ntc_experiments::report::{parse_json, Json};
    pub use ntc_serve::{client, Addr, ServeConfig, Server};
    pub use std::time::Duration;

    /// Grid request line used throughout: small enough to compute in
    /// seconds, big enough to exercise the sweep. Carries no "vdd", so
    /// it also pins the pre-axis wire default (single NTC point).
    pub const GRID_LINE: &str = r#"{"op":"grid","spec":{"benchmarks":["mcf"],"chips":2,"schemes":["razor","dcs-icslt:32"],"regime":"ch3","chip_seed_base":940,"trace_seed":11,"cycles":2000}}"#;

    /// [`GRID_LINE`] widened to a two-point supply-voltage axis.
    pub const VDD_GRID_LINE: &str = r#"{"op":"grid","spec":{"benchmarks":["mcf"],"chips":2,"schemes":["razor","dcs-icslt:32"],"regime":"ch3","vdd":["ntc","0.60"],"chip_seed_base":940,"trace_seed":11,"cycles":2000}}"#;

    /// The same spec as [`GRID_LINE`], decoded for direct batch runs.
    pub fn grid_spec() -> ntc_experiments::GridSpec {
        use ntc_core::scenario::SchemeSpec;
        use ntc_experiments::{GridSpec, Regime};
        use ntc_varmodel::OperatingPoint;
        use ntc_workload::Benchmark;
        GridSpec {
            benchmarks: vec![Benchmark::Mcf],
            chips: 2,
            schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
            voltages: vec![OperatingPoint::NTC],
            regime: Regime::Ch3,
            chip_seed_base: 940,
            trace_seed: 11,
            cycles: 2_000,
            source: ntc_workload::TraceSource::Generator,
        }
    }

    /// The same spec as [`VDD_GRID_LINE`], decoded for direct batch runs.
    pub fn vdd_grid_spec() -> ntc_experiments::GridSpec {
        use ntc_varmodel::OperatingPoint;
        let mut spec = grid_spec();
        spec.voltages = vec![
            OperatingPoint::NTC,
            OperatingPoint::parse("v0.60").expect("roster point"),
        ];
        spec
    }

    /// Spawn a daemon on a fresh Unix socket under `dir`; returns the
    /// address and the join handle (send `shutdown` to stop it).
    pub fn start_server(
        dir: &std::path::Path,
        name: &str,
        cfg_mut: impl FnOnce(&mut ServeConfig),
    ) -> (Addr, std::thread::JoinHandle<std::io::Result<()>>) {
        let sock = dir.join(format!("{name}.sock"));
        let mut cfg = ServeConfig {
            addr: Addr::Unix(sock.clone()),
            ..ServeConfig::default()
        };
        cfg_mut(&mut cfg);
        let server = Server::bind(cfg).expect("bind test daemon");
        let handle = std::thread::spawn(move || server.run());
        // The listener exists as soon as bind returns; connects succeed
        // even before run() starts accepting (the socket queues them).
        (Addr::Unix(sock), handle)
    }

    pub fn shutdown(addr: &Addr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
        let ack = client::roundtrip(addr, r#"{"op":"shutdown"}"#).expect("shutdown roundtrip");
        assert!(ack.contains("\"ok\":true"), "clean ack: {ack}");
        handle.join().expect("server thread").expect("clean drain");
        if let Addr::Unix(p) = addr {
            assert!(!p.exists(), "socket unlinked on clean shutdown");
        }
    }

    pub fn response_csv(v: &Json) -> String {
        v.get("csv")
            .and_then(Json::as_str)
            .expect("compute response carries csv")
            .to_string()
    }

    pub fn receipt_tier(v: &Json) -> String {
        v.get("receipt")
            .and_then(|r| r.get("tier"))
            .and_then(Json::as_str)
            .expect("receipt carries tier")
            .to_string()
    }

    pub fn receipt_coalesced_with(v: &Json) -> u64 {
        v.get("receipt")
            .and_then(|r| r.get("coalesced_with"))
            .and_then(Json::as_u64)
            .expect("receipt carries coalesced_with")
    }

    pub fn receipt_oracle(v: &Json, key: &str) -> u64 {
        v.get("receipt")
            .and_then(|r| r.get("oracle"))
            .and_then(|o| o.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("receipt carries oracle counter {key:?}"))
    }
}

#[test]
fn daemon_serves_coalesced_concurrent_clients_byte_identically() {
    let dir = std::env::temp_dir().join(format!("ntc-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let cache_dir = dir.join("cache");

    // ---- Scenario 1: N concurrent clients, same cold grid ------------
    // hold_before_compute widens the coalescing window so the late
    // clients reliably join the leader's flight; correctness does not
    // depend on it (any straggler would land a memo hit instead, which
    // the assertions below also accept as "not a second compute").
    let (addr, handle) = start_server(&dir, "coalesce", |cfg| {
        cfg.cache_dir = Some(cache_dir.clone());
        cfg.jobs = Some(2);
        cfg.hold_before_compute = Duration::from_millis(400);
    });

    const CLIENTS: usize = 3;
    let responses: Vec<Json> = std::thread::scope(|s| {
        let addr = &addr;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(move || client::roundtrip(addr, GRID_LINE).expect("grid roundtrip")))
            .collect();
        handles
            .into_iter()
            .map(|h| parse_json(&h.join().expect("client thread")).expect("valid response JSON"))
            .collect()
    });

    // All payloads byte-identical.
    let csv0 = response_csv(&responses[0]);
    for r in &responses {
        assert!(r.get("ok") == Some(&Json::Bool(true)), "ok response");
        assert_eq!(response_csv(r), csv0, "identical payload bytes");
    }
    // Exactly one compute; everyone else coalesced onto it (or, for a
    // straggler, hit the memo the compute filled).
    let tiers: Vec<String> = responses.iter().map(receipt_tier).collect();
    assert_eq!(
        tiers.iter().filter(|t| *t == "computed").count(),
        1,
        "exactly one compute recorded: {tiers:?}"
    );
    assert!(
        tiers.iter().all(|t| t == "computed" || t == "coalesced" || t == "memo"),
        "no second compute or disk round-trip: {tiers:?}"
    );
    let coalesced = tiers.iter().filter(|t| *t == "coalesced").count();
    assert!(coalesced >= 1, "clients coalesced within the hold window");
    for r in &responses {
        let tier = receipt_tier(r);
        if tier == "coalesced" {
            assert!(receipt_coalesced_with(r) > 0, "joiners report the group");
        }
        if tier == "computed" {
            assert_eq!(
                receipt_coalesced_with(r) as usize,
                coalesced,
                "the leader counted its joiners"
            );
        }
    }

    // A follow-up request is a pure memo hit with zeroed compute
    // counters.
    let again =
        parse_json(&client::roundtrip(&addr, GRID_LINE).expect("memo roundtrip")).expect("json");
    assert_eq!(receipt_tier(&again), "memo");
    assert_eq!(response_csv(&again), csv0);

    // The voltage-axis variant of the same grid is a distinct key: the
    // daemon computes it fresh and its rows carry the `@ vX.XX` labels.
    let vdd_resp = parse_json(
        &client::roundtrip(&addr, VDD_GRID_LINE).expect("vdd grid roundtrip"),
    )
    .expect("json");
    assert!(vdd_resp.get("ok") == Some(&Json::Bool(true)), "ok response");
    let vdd_csv = response_csv(&vdd_resp);
    assert_ne!(vdd_csv, csv0, "widening the axis changes the payload");
    assert!(
        vdd_csv.contains("mcf @ v0.45") && vdd_csv.contains("mcf @ v0.60"),
        "multi-voltage rows are labelled per operating point:\n{vdd_csv}"
    );
    shutdown(&addr, handle);

    // ---- Scenario 2: byte-identity vs the batch path at other jobs ---
    // The daemon above computed at jobs=2 and wrote the artifact; the
    // batch reference below recomputes from scratch (no cache) at
    // jobs=1. Identical bytes pin the determinism contract end to end.
    ntc_experiments::set_jobs(1);
    let spec = grid_spec();
    let batch = ntc_experiments::run_grid_uncached(&spec);
    let batch_csv = ntc_serve::protocol::table_csv(&ntc_serve::protocol::grid_table(&spec, &batch));
    assert_eq!(csv0, batch_csv, "daemon payload == batch payload bytes");
    // Same contract for the voltage-axis grid the daemon just computed
    // at jobs=2: a cold jobs=1 batch run reproduces it byte for byte.
    let spec = vdd_grid_spec();
    let batch = ntc_experiments::run_grid_uncached(&spec);
    let batch_vdd_csv =
        ntc_serve::protocol::table_csv(&ntc_serve::protocol::grid_table(&spec, &batch));
    assert_eq!(vdd_csv, batch_vdd_csv, "vdd daemon payload == batch bytes");

    // ---- Scenario 3: a fresh daemon on the same cache dir serves the
    // grid from disk (cross-process warm start) ------------------------
    // The in-process memo is process-global and already warm, so point
    // the fresh daemon at the same disk dir but a *disabled* memo path
    // is not available — instead verify via the artifact's existence
    // and the disk-tier receipt of a spec variant that the memo never
    // saw. (The memo holds at most GRID_MEMO_CAP entries; a distinct
    // trace_seed is a distinct key.)
    assert!(
        ntc_experiments::cache::artifact_path(&cache_dir, &spec).is_file(),
        "compute wrote the shared disk artifact"
    );

    // ---- Scenario 4: busy backpressure; cache hits take no slot ------
    // Budget 1, queue 0: while a slow compute holds the slot, a request
    // for a *different* cold grid is refused with `busy` instead of
    // queuing, but the grid scenario 1 left in the memo answers at once.
    let (addr, handle) = start_server(&dir, "busy", |cfg| {
        cfg.cache_dir = None;
        cfg.jobs = Some(2);
        cfg.budget = 1;
        cfg.queue_cap = 0;
        cfg.hold_before_compute = Duration::from_millis(1500);
    });
    let slow_grid = GRID_LINE.replace("\"trace_seed\":11", "\"trace_seed\":12");
    let other_grid = GRID_LINE.replace("\"trace_seed\":11", "\"trace_seed\":15");
    let (busy_outcome, memo_outcome) = std::thread::scope(|s| {
        let addr = &addr;
        let slow_grid = &slow_grid;
        let slow = s.spawn(move || client::roundtrip(addr, slow_grid).expect("slow roundtrip"));
        // Give the slow request time to take the slot, then collide.
        std::thread::sleep(Duration::from_millis(400));
        let fast = client::roundtrip(addr, &other_grid).expect("busy roundtrip");
        let memo = client::roundtrip(addr, GRID_LINE).expect("memo roundtrip");
        assert!(!slow.is_finished(), "the slow compute still holds the slot");
        let slow = parse_json(&slow.join().expect("slow client")).expect("slow JSON");
        assert_eq!(receipt_tier(&slow), "computed");
        (fast, memo)
    });
    let v = parse_json(&busy_outcome).expect("busy response JSON");
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("busy"),
        "backpressure is an immediate machine-readable refusal: {busy_outcome}"
    );
    let v = parse_json(&memo_outcome).expect("memo response JSON");
    assert_eq!(
        v.get("ok"),
        Some(&Json::Bool(true)),
        "a memo hit needs no compute slot: {memo_outcome}"
    );
    assert_eq!(receipt_tier(&v), "memo");
    assert_eq!(response_csv(&v), csv0);
    assert_eq!(
        v.get("receipt")
            .and_then(|r| r.get("queue_wait_us"))
            .and_then(Json::as_u64),
        Some(0),
        "a memo hit never queues"
    );
    shutdown(&addr, handle);

    // ---- Scenario 5: protocol errors don't kill the connection -------
    let (addr, handle) = start_server(&dir, "errors", |cfg| {
        cfg.cache_dir = None;
    });
    let bad_vdd = GRID_LINE.replace("\"regime\":\"ch3\"", "\"regime\":\"ch3\",\"vdd\":[\"0.99\"]");
    let lines = [
        r#"{"op":"warp"}"#,
        r#"{"op":"experiment","id":"fig9.99"}"#,
        bad_vdd.as_str(),
        r#"{"op":"ping"}"#,
    ];
    let responses = client::roundtrip_many(&addr, &lines).expect("four roundtrips on one conn");
    assert!(responses[0].contains("\"code\":\"bad-request\""));
    assert!(responses[1].contains("\"code\":\"unknown-id\""));
    assert!(
        responses[2].contains("\"code\":\"bad-request\"")
            && responses[2].contains("bad operating point"),
        "off-roster vdd is refused, not computed: {}",
        responses[2]
    );
    assert!(responses[3].contains("\"ok\":true"), "connection survived");
    shutdown(&addr, handle);

    // ---- Scenario 6: per-request counters are disjoint at budget 2 ---
    // Two clients compute *different* cold grids concurrently. Scoped
    // attribution must split the oracle work exactly: each receipt
    // bills only its own compute (nonzero), and the two receipts
    // together account for every global increment — no double counting,
    // no leakage between concurrent jobs.
    let (addr, handle) = start_server(&dir, "scoped", |cfg| {
        cfg.cache_dir = None;
        cfg.jobs = Some(2);
        cfg.budget = 2;
    });
    let grid_a = GRID_LINE.replace("\"trace_seed\":11", "\"trace_seed\":13");
    let grid_b = GRID_LINE.replace("\"trace_seed\":11", "\"trace_seed\":14");
    let _ = ntc_core::tag_delay::take_oracle_stats();
    let (resp_a, resp_b) = std::thread::scope(|s| {
        let addr = &addr;
        let (ga, gb) = (&grid_a, &grid_b);
        let a = s.spawn(move || client::roundtrip(addr, ga).expect("grid a roundtrip"));
        let b = s.spawn(move || client::roundtrip(addr, gb).expect("grid b roundtrip"));
        (
            parse_json(&a.join().expect("client a")).expect("json a"),
            parse_json(&b.join().expect("client b")).expect("json b"),
        )
    });
    let global = ntc_core::tag_delay::take_oracle_stats();
    for (resp, label) in [(&resp_a, "a"), (&resp_b, "b")] {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "grid {label} ok");
        assert_eq!(receipt_tier(resp), "computed", "grid {label} computed");
        assert!(
            receipt_oracle(resp, "gate_sims") > 0,
            "grid {label} billed its own compute"
        );
    }
    for (key, total) in global.fields() {
        assert_eq!(
            receipt_oracle(&resp_a, key) + receipt_oracle(&resp_b, key),
            total,
            "scoped {key} counters sum to the global delta"
        );
    }
    shutdown(&addr, handle);

    // ---- Scenario 7: bounded request lines; idle clients do not block
    // shutdown -----------------------------------------------------------
    // The test's own sockets time out their reads, so a daemon that
    // never answers or never closes fails the test instead of hanging it.
    use std::io::{BufRead, Write};
    let (addr, handle) = start_server(&dir, "bounded", |cfg| {
        cfg.cache_dir = None;
    });
    let Addr::Unix(sock) = &addr else {
        unreachable!("test daemons listen on unix sockets")
    };
    let connect = || {
        let s = std::os::unix::net::UnixStream::connect(sock).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        s
    };
    let mut oversized = connect();
    let mut line = vec![b'x'; (1 << 20) + 10];
    line.push(b'\n');
    // The daemon closes once it has read past its cap, so the tail of
    // this write may find the socket closed.
    let _ = oversized.write_all(&line);
    let mut reader = std::io::BufReader::new(oversized);
    let mut response = String::new();
    reader.read_line(&mut response).expect("a response before the close");
    assert!(
        response.contains("\"code\":\"bad-request\"") && response.contains("1048576"),
        "an oversized line is refused by name of the cap: {response}"
    );
    // Closing with the line's unread tail queued resets instead of EOF.
    match reader.read_line(&mut response) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the daemon must close the connection, got {other:?}"),
    }
    // The daemon keeps serving, and a line split across its idle poll
    // still parses.
    let mut split = connect();
    split.write_all(br#"{"op":"pi"#).expect("first half");
    std::thread::sleep(Duration::from_millis(350));
    split.write_all(b"ng\"}\n").expect("second half");
    let mut ping = String::new();
    std::io::BufReader::new(split).read_line(&mut ping).expect("ping answered");
    assert!(ping.contains("\"ok\":true"), "a fresh, paused ping: {ping}");
    let idle = connect();
    let ack = client::roundtrip(&addr, r#"{"op":"shutdown"}"#).expect("shutdown roundtrip");
    assert!(ack.contains("\"ok\":true"), "clean ack: {ack}");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.is_finished() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(handle.is_finished(), "an idle client must not block shutdown");
    handle.join().expect("server thread").expect("clean drain");
    drop(idle);

    // ---- Scenario 8: connections past the cap get busy, then EOF -------
    let (addr, handle) = start_server(&dir, "capped", |cfg| {
        cfg.cache_dir = None;
    });
    let Addr::Unix(sock) = &addr else {
        unreachable!("test daemons listen on unix sockets")
    };
    type Client = std::io::BufReader<std::os::unix::net::UnixStream>;
    let ping = || -> std::io::Result<(String, Client)> {
        let s = std::os::unix::net::UnixStream::connect(sock)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut reader = std::io::BufReader::new(s);
        // A refused connection may close before the write lands.
        let _ = reader.get_mut().write_all(b"{\"op\":\"ping\"}\n");
        let mut line = String::new();
        reader.read_line(&mut line)?;
        Ok((line, reader))
    };
    // Each idle client is answered once, so its handler is running.
    let mut idle: Vec<_> = (0..64)
        .map(|k| {
            let (line, reader) = ping().expect("idle client ping");
            assert!(line.contains("\"ok\":true"), "idle client {k}: {line}");
            reader
        })
        .collect();
    let over = std::os::unix::net::UnixStream::connect(sock).expect("connect");
    over.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut over = std::io::BufReader::new(over);
    let mut line = String::new();
    over.read_line(&mut line)
        .expect("a busy line before the close");
    assert!(
        line.contains("\"code\":\"busy\"") && line.contains("64"),
        "the 65th connection is refused by name of the cap: {line}"
    );
    line.clear();
    assert_eq!(
        over.read_line(&mut line).expect("EOF after busy"),
        0,
        "{line}"
    );
    // Closing one idle client frees its slot for a fresh ping.
    drop(idle.pop());
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let mut fresh = loop {
        match ping() {
            Ok((line, reader)) if line.contains("\"ok\":true") => break reader,
            Ok((line, _)) => assert!(line.contains("\"code\":\"busy\""), "{line}"),
            // A refused connection may also reset before its read.
            Err(_) => {}
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a freed slot serves a fresh ping within 1 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    // The fresh client holds the last slot; ask it for the counters and
    // the shutdown, with 63 idle clients still connected.
    let mut request = |line: &str| {
        fresh.get_mut().write_all(line.as_bytes()).expect("request");
        let mut response = String::new();
        fresh.read_line(&mut response).expect("response");
        response
    };
    let stats = request("{\"op\":\"stats\"}\n");
    let busy = parse_json(&stats)
        .expect("stats json")
        .get("busy_rejections")
        .and_then(Json::as_u64)
        .expect("busy_rejections");
    assert!(busy >= 1, "the refused connection is counted: {stats}");
    let ack = request("{\"op\":\"shutdown\"}\n");
    assert!(ack.contains("\"ok\":true"), "clean ack: {ack}");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !handle.is_finished() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        handle.is_finished(),
        "idle clients at the cap must not block shutdown"
    );
    handle.join().expect("server thread").expect("clean drain");
    drop(idle);

    // ---- Scenario 9: a soak of distinct specs keeps every memo under
    // its cap and stays byte-identical to batch ---------------------------
    // Each one-chip spec fabricates its own chip, so more specs than the
    // chip-blank memo holds must evict. The memos are process-wide, so the
    // caps read here are the daemon's.
    let (addr, handle) = start_server(&dir, "soak", |cfg| {
        cfg.cache_dir = None;
        cfg.jobs = Some(2);
    });
    let (_, (_, blank_cap)) = ntc_experiments::memo_occupancy()
        .into_iter()
        .find(|(name, _)| *name == "memo_chip_blanks")
        .expect("a chip-blank memo");
    let soak_seed = |i: usize| 50_000 + i as u64;
    let lines: Vec<String> = (0..blank_cap + 8)
        .map(|i| {
            GRID_LINE
                .replace("\"chips\":2", "\"chips\":1")
                .replace("\"razor\",\"dcs-icslt:32\"", "\"razor\"")
                .replace(
                    "\"chip_seed_base\":940",
                    &format!("\"chip_seed_base\":{}", soak_seed(i)),
                )
                .replace("\"cycles\":2000", "\"cycles\":64")
        })
        .collect();
    let answers = client::roundtrip_many(&addr, &lines).expect("soak roundtrips");
    let stats = parse_json(&client::roundtrip(&addr, r#"{"op":"stats"}"#).expect("stats"))
        .expect("stats json");
    for (name, (_, cap)) in ntc_experiments::memo_occupancy() {
        let held = stats
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats reports {name}: {stats:?}"));
        assert!(
            held as usize <= cap,
            "{name} holds {held} entries, cap {cap}"
        );
        if name == "memo_chip_blanks" {
            assert_eq!(held as usize, cap, "the soak filled the chip-blank memo");
        }
    }
    // The first specs' chips were evicted long ago; their answers, and a
    // sample of the rest, match a batch run that fabricates them again.
    for i in (0..lines.len()).step_by(25).chain([lines.len() - 1]) {
        let mut spec = grid_spec();
        spec.chips = 1;
        spec.schemes.truncate(1);
        spec.chip_seed_base = soak_seed(i);
        spec.cycles = 64;
        let batch = ntc_experiments::run_grid_uncached(&spec);
        let answer = parse_json(&answers[i]).expect("soak answer json");
        assert_eq!(
            response_csv(&answer),
            ntc_serve::protocol::table_csv(&ntc_serve::protocol::grid_table(&spec, &batch)),
            "soak spec {i} == batch bytes"
        );
    }
    shutdown(&addr, handle);

    let _ = std::fs::remove_dir_all(&dir);
}
