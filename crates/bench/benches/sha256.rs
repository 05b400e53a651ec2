//! Microbenchmark for the SHA-256 substrate (the envelopes' keystream and tag).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcn_crypto::Sha256;
use std::hint::black_box;

fn bench_sha(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("digest_{size}B"), |b| {
            b.iter(|| black_box(Sha256::digest(&data)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sha);
criterion_main!(benches);
