//! Throughput of the CRIA image codec (encode/decode) and of a full
//! kernel-level checkpoint walk.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use flux_kernel::{criu, FdKind, Kernel, ProcessImage, Prot, VmaKind};
use flux_simcore::{ByteSize, SimTime, Uid};

fn build_kernel() -> (Kernel, flux_simcore::Pid) {
    let mut k = Kernel::new("3.4");
    let sys = k.spawn(Uid::SYSTEM, "system_server");
    for name in ["notification", "alarm", "audio", "wifi"] {
        let node = k
            .binder
            .create_node(
                sys,
                flux_binder::NodeKind::Service {
                    descriptor: format!("I{name}").into(),
                },
            )
            .unwrap();
        k.binder.add_service(name, node).unwrap();
    }
    let app = k.spawn(Uid(10_001), "com.example.bench");
    {
        let p = k.process_mut(app).unwrap();
        for i in 0..6 {
            p.spawn_thread(&format!("Binder_{i}"));
        }
        for _ in 0..24 {
            p.mem
                .map(VmaKind::Anon, ByteSize::from_mib(1), Prot::RW, 0.5);
        }
        for i in 0..48 {
            p.fds.open(FdKind::File {
                path: format!("/data/data/com.example.bench/files/f{i}"),
                offset: 0,
                writable: false,
            });
        }
    }
    for name in ["notification", "alarm", "audio", "wifi"] {
        k.binder.get_service(app, name).unwrap();
    }
    k.freeze(app).unwrap();
    (k, app)
}

fn bench_checkpoint(c: &mut Criterion) {
    let (kernel, app) = build_kernel();
    let image = criu::checkpoint(&kernel, app, SimTime::ZERO).unwrap();
    let encoded = image.encode();

    c.bench_function("criu/checkpoint_walk", |b| {
        b.iter(|| criu::checkpoint(black_box(&kernel), app, SimTime::ZERO).unwrap())
    });

    let mut g = c.benchmark_group("criu/image_codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(&image).encode()));
    g.bench_function("decode", |b| {
        b.iter(|| ProcessImage::decode(black_box(&encoded)).unwrap())
    });
    g.finish();

    c.bench_function("criu/materialize_1mib_pages", |b| {
        b.iter(|| image.materialize_pages(1024 * 1024))
    });
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
