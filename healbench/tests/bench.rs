//! The benchmark's own checks: every workload runs end to end at tiny
//! size through the same code path as the measured runs, the serve
//! stream's liveness model agrees with the engine, and the printed
//! metric set is exactly the one `BENCHMARK.json` declares, and the
//! host-speed reference never allocates while it is timed.

use healbench::calib::Reference;
use healbench::serve::{shape, tenant_specs, Stream};
use healbench::{per_layer_metrics, run, Outcome, Size, Workload, END_TO_END};
use selfheal_bench::alloc::CountingAlloc;
use selfheal_serve::Shard;
use std::path::Path;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The text of a file of the package, or of the repo above it.
fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The array under `"key":` in `json`, brackets included.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no key {key}"));
    let open = at + json[at..].find('[').expect("an array");
    let (mut depth, mut quoted) = (0, false);
    for (i, c) in json[open..].char_indices() {
        match c {
            '"' => quoted = !quoted,
            '[' if !quoted => depth += 1,
            ']' if !quoted => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("unclosed array {key}")
}

/// Every string value of `"key": "…"` in `json`, in order.
fn strings(json: &str, key: &str) -> Vec<String> {
    let tag = format!("\"{key}\": \"");
    json.match_indices(&tag)
        .map(|(at, _)| {
            let rest = &json[at + tag.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
        .collect()
}

/// `(name, unit)` pairs of a `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    strings(list, "name")
        .into_iter()
        .zip(strings(list, "unit"))
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(workload, 7, Duration::from_millis(300), trace, Size::Tiny)
}

#[test]
fn every_workload_runs_at_tiny_size_and_prints_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, trace);
            let label = format!("{} trace {trace}", workload.name());
            assert!(out.correct(), "{label}: {:?}", out.failures);
            assert!(out.attempted > 0, "{label}: nothing attempted");
            let line = out.json(trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{label}"
            );
            assert!(line.ends_with("}}"), "{label}");
            let expected = Outcome::declared(trace);
            assert_eq!(
                line.matches("\"value\": ").count(),
                expected.len(),
                "{label}: metric count"
            );
            for (name, unit) in expected {
                // A layer the workload never calls reads 0.
                let value = out.metrics.get(&name).unwrap_or(0.0);
                assert!(value.is_finite(), "{label}: {name} reads {value}");
                let entry = format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
                assert!(line.contains(&entry), "{label}: no {entry}");
                if !trace {
                    assert!(value > 0.0, "{label}: end-to-end {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn the_reference_kernel_does_not_allocate_while_timed() {
    let reference = Reference::default();
    for _ in 0..3 {
        assert_eq!(reference.run().1, 0);
    }
}

#[test]
fn the_stream_liveness_model_agrees_with_the_engine() {
    let sh = shape(Workload::ServeIngest, Size::Tiny);
    let specs = tenant_specs(&sh, 3);
    let mut shards: Vec<Shard> = specs
        .iter()
        .map(|(tenant, spec)| Shard::from_spec(tenant, spec).expect("servable"))
        .collect();
    let mut stream = Stream::new(&specs, &sh, 11);
    let mut events = Vec::new();
    for window in 0..200 {
        stream.window(&mut events);
        for (i, event) in events.drain(..) {
            shards[i]
                .submit(event)
                .unwrap_or_else(|e| panic!("window {window}: rejected: {e}"));
        }
        for (shard, model) in shards.iter_mut().zip(stream.models()) {
            let (applied, skipped) = shard.tick();
            assert_eq!(skipped, 0, "window {window}: skipped events");
            assert!(applied > 0);
            let live = shard.reader().get().1.state.live_count();
            assert_eq!(live, model.live(), "window {window}: live count");
        }
    }
}

#[test]
fn the_printed_metric_set_is_the_declared_one() {
    let bench = repo_file("../BENCHMARK.json");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(array(&bench, "end_to_end")), e2e);
    let layers: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(array(&bench, "per_layer")), layers);
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(strings(array(&bench, "workloads"), "name"), ours);
    let meta = repo_file("meta.json");
    assert_eq!(strings(array(&meta, "workloads"), "name"), ours);
    assert!(meta.contains("\"held_out_seed\": "));
}
