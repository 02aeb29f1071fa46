//! Throughput of the rsync decision procedure over a full system image.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flux_device::DeviceProfile;
use flux_fs::{sync, SimFs, SyncOptions};
use flux_simcore::CostModel;

/// A never-mounted copy of `profile`'s `/system`. Mounted images would
/// let every sync after the first mount a stored mirror; flat copies keep
/// each iteration on the per-file decision procedure.
fn flat_system(profile: &DeviceProfile) -> SimFs {
    let mut fs = SimFs::new();
    flux_device::populate_system(&mut fs, profile);
    fs.list("")
        .map(|(p, e)| (p.into_owned(), e.clone()))
        .collect()
}

fn bench_rsync(c: &mut Criterion) {
    let home = flat_system(&DeviceProfile::nexus7_2012());
    let guest_base = flat_system(&DeviceProfile::nexus7_2013());
    let bytes = home.total_size("/system").as_u64();
    let cost = CostModel::reference();
    let opts = SyncOptions {
        link_dest: Some("/system".into()),
        ..SyncOptions::default()
    };

    let mut g = c.benchmark_group("rsync/system_partition");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("link_dest_sync", |b| {
        b.iter_batched(
            || guest_base.clone(),
            |mut guest| {
                sync(
                    &home,
                    "/system",
                    &mut guest,
                    "/data/flux/h/system",
                    &opts,
                    &cost,
                )
                .unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_rsync);
criterion_main!(benches);
