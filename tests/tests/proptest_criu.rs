//! Property tests on the CRIU checkpoint/restore engine and image codec.

mod common;

use common::SERVICE_NAMES;
use flux_kernel::{criu, FdKind, Kernel, ProcessImage, Prot, RestoreOptions, VmaKind};
use flux_simcore::{ByteSize, Pid, SimTime, Uid};
use proptest::prelude::*;

/// A randomly shaped app process.
#[derive(Debug, Clone)]
struct ProcShape {
    anon_mibs: Vec<(u16, u8)>, // (MiB, dirty %)
    files: u8,
    sockets: u8,
    threads: u8,
    services: Vec<u8>, // indices into SERVICE_NAMES
}

fn shape_strategy() -> impl Strategy<Value = ProcShape> {
    (
        prop::collection::vec((1u16..32, 0u8..=100), 1..6),
        0u8..8,
        0u8..4,
        1u8..6,
        prop::collection::vec(0u8..5, 0..5),
    )
        .prop_map(|(anon_mibs, files, sockets, threads, services)| ProcShape {
            anon_mibs,
            files,
            sockets,
            threads,
            services,
        })
}

fn build(shape: &ProcShape) -> (Kernel, Pid) {
    let mut k = common::kernel_with_services("3.1");
    let app = k.spawn(Uid(10_042), "com.example.prop");
    {
        let p = k.process_mut(app).unwrap();
        for i in 1..shape.threads {
            p.spawn_thread(&format!("worker_{i}"));
        }
        for (mib, dirty) in &shape.anon_mibs {
            p.mem.map(
                VmaKind::Anon,
                ByteSize::from_mib(u64::from(*mib)),
                Prot::RW,
                f64::from(*dirty) / 100.0,
            );
        }
        for i in 0..shape.files {
            p.fds.open(FdKind::File {
                path: format!("/data/data/com.example.prop/files/f{i}"),
                offset: u64::from(i) * 100,
                writable: i % 2 == 0,
            });
        }
        for i in 0..shape.sockets {
            p.fds.open(FdKind::InetSocket {
                remote: format!("host{i}.example:443"),
            });
        }
    }
    for idx in &shape.services {
        k.binder
            .get_service(app, SERVICE_NAMES[*idx as usize])
            .unwrap();
    }
    k.freeze(app).unwrap();
    (k, app)
}

fn guest() -> Kernel {
    common::kernel_with_services("3.4")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Image encode/decode round-trips for arbitrary process shapes.
    #[test]
    fn image_codec_roundtrips(shape in shape_strategy()) {
        let (k, app) = build(&shape);
        let img = criu::checkpoint(&k, app, SimTime::from_secs(1)).unwrap();
        let decoded = ProcessImage::decode(&img.encode()).unwrap();
        prop_assert_eq!(&decoded, &img);
        // Size accounting is consistent, and the length `metadata_bytes`
        // counts is the length `encode` writes, for the frozen image and
        // for the residue pre-copy ships against a pre-dump.
        prop_assert_eq!(
            img.total_bytes(),
            img.metadata_bytes() + img.payload_bytes()
        );
        let pre = criu::predump(&k, app, SimTime::ZERO).unwrap();
        for image in [&img, &img.dirty_delta(&pre)] {
            prop_assert_eq!(image.metadata_bytes().as_u64(), image.encode().len() as u64);
        }
    }

    /// Checkpoint → restore onto a guest kernel preserves the app-visible
    /// state: virtual PID, thread count, VMA byte total, non-INET fds, and
    /// every Binder handle id.
    #[test]
    fn checkpoint_restore_roundtrip(shape in shape_strategy()) {
        let (k, app) = build(&shape);
        let before = k.process(app).unwrap().clone();
        let img = criu::checkpoint(&k, app, SimTime::ZERO).unwrap();

        let mut g = guest();
        let ns = g.namespaces.create();
        let restored = criu::restore(
            &mut g,
            &img,
            &RestoreOptions {
                namespace: ns,
                uid: Uid(10_077),
                jail_root: "/data/flux/home".into(),
            },
        )
        .unwrap();

        let after = g.process(restored.real_pid).unwrap();
        prop_assert_eq!(after.virt_pid, before.virt_pid);
        prop_assert_eq!(after.threads.len(), before.threads.len());
        prop_assert_eq!(after.mem.mapped_bytes(), before.mem.mapped_bytes());
        // INET sockets dropped, everything else at the same numbers.
        prop_assert_eq!(
            restored.dropped_connections.len(),
            usize::from(shape.sockets)
        );
        prop_assert_eq!(
            after.fds.len() + restored.dropped_connections.len(),
            before.fds.len()
        );
        for (handle, entry) in before.mem.vmas().iter().zip(after.mem.vmas()) {
            prop_assert_eq!(&handle.kind, &entry.kind);
        }
        for (h, _) in k.binder.handle_table(app).unwrap().iter() {
            prop_assert!(g.binder.resolve_handle(restored.real_pid, h).is_ok());
        }
    }

    /// Corrupting any single byte of an encoded image never panics the
    /// decoder: it either errors or yields a (different) valid image.
    #[test]
    fn decoder_survives_corruption(shape in shape_strategy(), flip in any::<(u16, u8)>()) {
        let (k, app) = build(&shape);
        let img = criu::checkpoint(&k, app, SimTime::ZERO).unwrap();
        let mut bytes = img.encode();
        let idx = usize::from(flip.0) % bytes.len();
        bytes[idx] ^= flip.1 | 1;
        let _ = ProcessImage::decode(&bytes);
    }
}
