//! The streaming pipeline's determinism contract, pinned from outside
//! the crate: a batch of file jobs solved through the executor — mixed
//! text and `parma-bin/v1` files, prefetched and help-loaded in whatever
//! order the pool dictates — is bitwise identical to preloading every
//! dataset and solving in memory, run after run.

use parma::prelude::*;
use parma::{execute, Job, StreamingLoader};
use std::path::PathBuf;

fn write_mixed_sessions(dir: &std::path::Path, count: u64) -> (Vec<PathBuf>, Vec<WetLabDataset>) {
    std::fs::create_dir_all(dir).unwrap();
    let mut paths = Vec::new();
    let mut datasets = Vec::new();
    for k in 0..count {
        let ds = WetLabDataset::generate(MeaGrid::square(5), &AnomalyConfig::default(), 900 + k)
            .unwrap();
        let path = if k % 2 == 0 {
            let p = dir.join(format!("s{k}.pbin"));
            ds.save_binary(&p).unwrap();
            p
        } else {
            let p = dir.join(format!("s{k}.txt"));
            ds.save(&p).unwrap();
            p
        };
        paths.push(path);
        datasets.push(ds);
    }
    (paths, datasets)
}

fn result_bits(out: &[Result<Vec<TimePointResult>, FailureReport>]) -> Vec<u64> {
    out.iter()
        .flat_map(|r| r.as_ref().unwrap())
        .flat_map(|tp| tp.solution.resistors.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn streamed_solves_are_bitwise_identical_to_preloaded_solves() {
    let dir = std::env::temp_dir().join("parma-stream-equivalence");
    let (paths, datasets) = write_mixed_sessions(&dir, 8);
    let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
    let sup = SupervisorConfig {
        max_retries: 0,
        ..Default::default()
    };
    let plans = PlanCache::new();
    let loaded: Vec<Job> = datasets
        .iter()
        .enumerate()
        .map(|(i, ds)| Job::loaded(i, ds))
        .collect();
    let files: Vec<Job> = paths
        .iter()
        .enumerate()
        .map(|(i, p)| Job::file(i, p.clone()))
        .collect();

    let preloaded = execute(&pipeline, &loaded, 3, &sup, &plans, &|_, _| {});
    let reference = result_bits(&preloaded);
    assert!(!reference.is_empty());

    // Two streamed runs: scheduling and prefetch order are free to vary
    // between them, the bits are not.
    for round in 0..2 {
        let streamed = execute(&pipeline, &files, 3, &sup, &plans, &|_, r| {
            assert!(r.is_ok())
        });
        assert_eq!(
            result_bits(&streamed),
            reference,
            "streamed round {round} diverged from the preloaded batch"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loader_hands_out_the_same_bytes_as_direct_loads_under_contention() {
    let dir = std::env::temp_dir().join("parma-stream-equivalence-contend");
    let (paths, _) = write_mixed_sessions(&dir, 6);
    // The reference is a direct load of the same file (the text format
    // does not carry ground truth, so the on-disk session is the fixture,
    // not the generated one).
    let direct: Vec<WetLabDataset> = paths
        .iter()
        .map(|p| WetLabDataset::load(p).unwrap())
        .collect();
    // Four consumers race over disjoint index sets while one I/O slot
    // prefetches sequentially: every take must match the direct load.
    let loader = StreamingLoader::start(paths.clone(), 1, 2);
    let token = CancelToken::unbounded();
    std::thread::scope(|scope| {
        for start in 0..4usize {
            let (loader, token, direct) = (&loader, &token, &direct);
            scope.spawn(move || {
                for i in (start..direct.len()).step_by(4) {
                    let streamed = loader.take(i, token).unwrap();
                    assert_eq!(*streamed, direct[i], "item {i}");
                }
            });
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
