//! Benchmarks of the Algorithm-1 layer search (quick budget) and the
//! memoized replay path the paper suggests in §3.

use criterion::{criterion_group, criterion_main, Criterion};
use flexer_arch::{ArchConfig, ArchPreset};
use flexer_model::ConvLayer;
use flexer_sched::{search, search_layer, MemoCache, SchedulerKind, SearchOptions, SearchRequest};
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let arch = ArchConfig::preset(ArchPreset::Arch5);
    let layer = ConvLayer::new("q", 96, 28, 28, 96).unwrap();
    let mut opts = SearchOptions::quick();
    opts.threads = 1;

    c.bench_function("search_layer_quick", |b| {
        b.iter(|| search_layer(black_box(&layer), &arch, &opts).unwrap())
    });

    // Memoized replay: a cache warmed once turns the search into a
    // single GetSchedule run.
    let cache = MemoCache::new();
    let cached = SearchRequest {
        cache: Some(&cache),
        ..SearchRequest::new(SchedulerKind::Ooo)
    };
    let layers = std::slice::from_ref(&layer);
    search(layers, &arch, &opts, cached).0.remove(0).unwrap();
    c.bench_function("search_layer_memo_replay", |b| {
        b.iter(|| {
            search(black_box(layers), &arch, &opts, cached)
                .0
                .remove(0)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets =  bench_search
}
criterion_main!(benches);
