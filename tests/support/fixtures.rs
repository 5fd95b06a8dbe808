//! The committed fuzz fixture corpus (`tests/fixtures/*.frdtrace`), shared
//! by the facade test targets.

use futurerd::Trace;
use std::path::Path;

/// Every committed fixture trace, by name, in name order.
pub fn fixture_traces() -> Vec<(String, Trace)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut traces: Vec<(String, Trace)> = std::fs::read_dir(&dir)
        .expect("tests/fixtures is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "frdtrace"))
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let trace = Trace::load(&path).expect("fixture loads");
            (name, trace)
        })
        .collect();
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(traces.len() >= 10, "the committed corpus went missing");
    traces
}
