//! `BENCHMARK.json` at the repository root names exactly the metrics this
//! benchmark prints, with the same units.

use pnp_perfbench::report::{END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> String {
        let start = json.find(&format!("\"{key}\"")).expect(key);
        let rest = &json[start..];
        rest[..rest.find(']').expect("section ends")].to_string()
    };
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let section = section(key);
        assert_eq!(
            section.matches("\"name\"").count(),
            catalogue.len(),
            "{key}"
        );
        for (name, unit) in catalogue {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{key} lacks {entry}");
        }
    }
}
