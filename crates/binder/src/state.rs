//! Checkpointable Binder state, used by CRIA.
//!
//! §3.3 of the paper: "CRIA checkpoints the Binder state of each app
//! process, including Binder handles, references and buffers, and notes
//! which references are internal versus external to system services,
//! including recording the association between references to system services
//! and those service names." This module implements exactly that capture,
//! plus the restore path that re-injects references at the previously issued
//! handle identifiers on the guest device.

use crate::driver::{BinderDriver, NodeId, NodeKind};
use crate::error::BinderError;
use flux_simcore::{Pid, Uid};

/// Classification of one held reference, per §3.3's three connection types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SavedTarget {
    /// A connection internal to the app: the node is owned by the app
    /// itself. Both ends are restored.
    Internal {
        /// Label of the app-local node.
        label: String,
        /// Sequence number linking this handle to the saved node list.
        node_index: usize,
    },
    /// A connection to an external *system* service: reconnected by asking
    /// the guest ServiceManager for the equivalent service.
    SystemService {
        /// Registered service name (e.g. `"notification"`).
        name: String,
    },
    /// An anonymous connection *object* owned by a system service (e.g. a
    /// `SensorEventConnection`, §3.2). Restore leaves the handle vacant;
    /// an Adaptive Replay proxy recreates the connection on the guest and
    /// injects it at this handle id.
    SystemConnection {
        /// The node's descriptor, e.g. `"ISensorEventConnection#3"`.
        descriptor: String,
    },
    /// A connection to an external *non-system* service (another app).
    /// Flux refuses to migrate in this case (§3.3).
    NonSystem {
        /// Best-effort description for the error message.
        description: String,
    },
}

/// A handle table entry as captured at checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedHandle {
    /// The handle id visible to the app. Preserved exactly across restore.
    pub handle: u32,
    /// Strong reference count held through this handle.
    pub strong: u32,
    /// What the handle referred to.
    pub target: SavedTarget,
}

/// A node the app itself owned at checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedNode {
    /// The node's label (service descriptor or app-local label).
    pub label: String,
    /// Whether the node was registered with the ServiceManager (never true
    /// for migratable apps; kept for invariant checking).
    pub registered_name: Option<String>,
}

/// The complete per-process Binder state captured by CRIA.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SavedBinderState {
    /// Handles held by the process, ordered by handle id.
    pub handles: Vec<SavedHandle>,
    /// Nodes owned by the process.
    pub owned_nodes: Vec<SavedNode>,
    /// Bytes of in-flight transaction buffers at checkpoint time (always
    /// drained before checkpoint in practice; captured for completeness).
    pub buffer_bytes: u64,
}

impl SavedBinderState {
    /// Names of the external system services the process was connected to.
    pub fn system_service_names(&self) -> Vec<&str> {
        self.handles
            .iter()
            .filter_map(|h| match &h.target {
                SavedTarget::SystemService { name } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Returns the first non-system external connection, if any. Migration
    /// must be refused while one exists.
    pub fn first_non_system(&self) -> Option<&SavedHandle> {
        self.handles
            .iter()
            .find(|h| matches!(h.target, SavedTarget::NonSystem { .. }))
    }
}

/// Captures the Binder state of `pid` from `driver`.
///
/// References are classified by walking each handle to its node: nodes owned
/// by `pid` are internal; nodes registered with the ServiceManager *and*
/// owned by a system-UID process are system services; everything else is a
/// non-system external connection.
pub fn capture(driver: &BinderDriver, pid: Pid) -> Result<SavedBinderState, BinderError> {
    let table = driver.handle_table(pid)?;
    let owned: Vec<&crate::driver::Node> = driver.nodes_owned_by(pid).collect();
    let owned_ids: Vec<NodeId> = owned.iter().map(|n| n.id).collect();

    let owned_nodes: Vec<SavedNode> = owned
        .iter()
        .map(|n| SavedNode {
            label: match &n.kind {
                NodeKind::Service { descriptor } => descriptor.to_string(),
                NodeKind::AppLocal { label } => label.clone(),
            },
            registered_name: driver.service_name_of(n.id).map(str::to_owned),
        })
        .collect();

    let mut handles = Vec::new();
    for (handle, entry) in table.iter() {
        let node = driver
            .node(entry.node)
            .ok_or(BinderError::DeadNode { node: entry.node })?;
        let target = if node.owner == pid {
            let node_index = owned_ids
                .iter()
                .position(|id| *id == node.id)
                .expect("owned node is in owned list");
            SavedTarget::Internal {
                label: owned_nodes[node_index].label.clone(),
                node_index,
            }
        } else if let Some(name) = driver.service_name_of(node.id) {
            if node.owner_uid == Uid::SYSTEM {
                SavedTarget::SystemService {
                    name: name.to_owned(),
                }
            } else {
                SavedTarget::NonSystem {
                    description: format!("registered non-system service {name:?}"),
                }
            }
        } else if node.owner_uid == Uid::SYSTEM {
            // Anonymous but owned by a system service: a connection object
            // handed out by a service (SensorEventConnection and friends).
            SavedTarget::SystemConnection {
                descriptor: match &node.kind {
                    NodeKind::Service { descriptor } => descriptor.to_string(),
                    NodeKind::AppLocal { label } => label.clone(),
                },
            }
        } else {
            SavedTarget::NonSystem {
                description: format!(
                    "anonymous node owned by {} ({})",
                    node.owner,
                    match &node.kind {
                        NodeKind::Service { descriptor } => descriptor.to_string(),
                        NodeKind::AppLocal { label } => label.clone(),
                    }
                ),
            }
        };
        handles.push(SavedHandle {
            handle,
            strong: entry.strong,
            target,
        });
    }

    Ok(SavedBinderState {
        handles,
        owned_nodes,
        buffer_bytes: 0,
    })
}

/// A handle left vacant by restore, to be filled by an Adaptive Replay
/// proxy (connection objects like SensorEventConnections, §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingConnection {
    /// The handle id the app expects the connection at.
    pub handle: u32,
    /// Strong count the app held.
    pub strong: u32,
    /// The connection's descriptor on the home device.
    pub descriptor: String,
}

/// Restores `state` for `pid` into `driver` (the guest kernel's driver).
///
/// Internal nodes are recreated and re-bound at the original handle ids;
/// system-service references are resolved through the guest ServiceManager
/// and injected at the original handle ids, so the app "sees the same Binder
/// handles" (§3.1). Connection objects are *not* restored here — they are
/// returned as [`PendingConnection`]s for the replay proxies to recreate.
/// Non-system references make the restore fail, mirroring the
/// migration-out check.
pub fn restore(
    driver: &mut BinderDriver,
    pid: Pid,
    state: &SavedBinderState,
) -> Result<Vec<PendingConnection>, BinderError> {
    if let Some(h) = state.first_non_system() {
        let description = match &h.target {
            SavedTarget::NonSystem { description } => description.clone(),
            _ => unreachable!("first_non_system returned a non-NonSystem handle"),
        };
        return Err(BinderError::PermissionDenied {
            reason: format!("cannot restore non-system binder connection: {description}"),
        });
    }

    // Recreate owned nodes first so internal handles can bind to them.
    let mut new_ids: Vec<NodeId> = Vec::with_capacity(state.owned_nodes.len());
    for n in &state.owned_nodes {
        let id = driver.recreate_node(
            pid,
            NodeKind::AppLocal {
                label: n.label.clone(),
            },
        )?;
        new_ids.push(id);
    }

    let mut pending = Vec::new();
    for h in &state.handles {
        match &h.target {
            SavedTarget::Internal { node_index, .. } => {
                let node =
                    *new_ids
                        .get(*node_index)
                        .ok_or_else(|| BinderError::TransactionFailed {
                            interface: "CRIA".into(),
                            method: "restore".into(),
                            reason: format!("dangling internal node index {node_index}"),
                        })?;
                driver.inject_ref_at(pid, h.handle, node, h.strong)?;
            }
            SavedTarget::SystemService { name } => {
                // Ask the guest ServiceManager for the equivalent service and
                // inject it at the previously issued handle id.
                let tmp = driver.get_service(pid, name)?;
                let node = driver.resolve_handle(pid, tmp)?;
                driver.release_ref(pid, tmp)?;
                driver.inject_ref_at(pid, h.handle, node, h.strong)?;
            }
            SavedTarget::SystemConnection { descriptor } => {
                pending.push(PendingConnection {
                    handle: h.handle,
                    strong: h.strong,
                    descriptor: descriptor.clone(),
                });
            }
            SavedTarget::NonSystem { .. } => unreachable!("checked above"),
        }
    }
    Ok(pending)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::NodeKind;
    use crate::Parcel;

    /// Builds a driver with a system service process (pid 2) exposing two
    /// services, and an app (pid 1) connected to both plus one internal node.
    fn scenario() -> (BinderDriver, Pid) {
        let mut d = BinderDriver::new();
        let app = Pid(1);
        let system = Pid(2);
        d.attach_process(app, Uid(10_001));
        d.attach_process(system, Uid::SYSTEM);
        for name in ["notification", "alarm"] {
            let node = d
                .create_node(
                    system,
                    NodeKind::Service {
                        descriptor: format!("I{name}").into(),
                    },
                )
                .unwrap();
            d.add_service(name, node).unwrap();
            d.get_service(app, name).unwrap();
        }
        let internal = d
            .create_node(
                app,
                NodeKind::AppLocal {
                    label: "ViewRootHandler".into(),
                },
            )
            .unwrap();
        d.acquire_ref(app, internal).unwrap();
        (d, app)
    }

    #[test]
    fn capture_classifies_connection_types() {
        let (d, app) = scenario();
        let saved = capture(&d, app).unwrap();
        assert_eq!(saved.handles.len(), 3);
        let mut names = saved.system_service_names();
        names.sort_unstable();
        assert_eq!(names, vec!["alarm", "notification"]);
        assert!(saved.first_non_system().is_none());
        assert_eq!(saved.owned_nodes.len(), 1);
        assert_eq!(saved.owned_nodes[0].label, "ViewRootHandler");
    }

    #[test]
    fn capture_flags_non_system_connections() {
        let (mut d, app) = scenario();
        // Another *app* exposes a node that our app references.
        let peer = Pid(3);
        d.attach_process(peer, Uid(10_003));
        let peer_node = d
            .create_node(
                peer,
                NodeKind::AppLocal {
                    label: "peer-channel".into(),
                },
            )
            .unwrap();
        d.acquire_ref(app, peer_node).unwrap();
        let saved = capture(&d, app).unwrap();
        assert!(saved.first_non_system().is_some());
    }

    #[test]
    fn restore_preserves_handle_ids_on_guest() {
        let (home, app) = scenario();
        let saved = capture(&home, app).unwrap();

        // Build a guest with its own (different) service processes.
        let mut guest = BinderDriver::new();
        let gsys = Pid(77);
        guest.attach_process(gsys, Uid::SYSTEM);
        // Register in opposite order so node ids differ from the home device.
        for name in ["alarm", "notification"] {
            let node = guest
                .create_node(
                    gsys,
                    NodeKind::Service {
                        descriptor: format!("I{name}").into(),
                    },
                )
                .unwrap();
            guest.add_service(name, node).unwrap();
        }
        let restored_pid = Pid(1); // Same PID via the private namespace.
        guest.attach_process(restored_pid, Uid(10_050));
        restore(&mut guest, restored_pid, &saved).unwrap();

        // Every saved handle id resolves on the guest.
        for h in &saved.handles {
            let node = guest.resolve_handle(restored_pid, h.handle).unwrap();
            match &h.target {
                SavedTarget::SystemService { name } => {
                    assert_eq!(guest.service_name_of(node), Some(name.as_str()));
                }
                SavedTarget::Internal { .. } => {
                    assert_eq!(guest.node(node).unwrap().owner, restored_pid);
                }
                SavedTarget::SystemConnection { .. } => {
                    panic!("no connection objects in this scenario")
                }
                SavedTarget::NonSystem { .. } => panic!("unexpected non-system handle"),
            }
        }
        // The app can transact through a restored handle immediately.
        let h = saved
            .handles
            .iter()
            .find(|h| matches!(&h.target, SavedTarget::SystemService { name } if name == "notification"))
            .unwrap()
            .handle;
        assert!(guest
            .route(restored_pid, h, "enqueueNotification", Parcel::new())
            .is_ok());
    }

    #[test]
    fn restore_refuses_non_system_connections() {
        let saved = SavedBinderState {
            handles: vec![SavedHandle {
                handle: 1,
                strong: 1,
                target: SavedTarget::NonSystem {
                    description: "peer app".into(),
                },
            }],
            owned_nodes: vec![],
            buffer_bytes: 0,
        };
        let mut guest = BinderDriver::new();
        guest.attach_process(Pid(1), Uid(10_001));
        assert!(matches!(
            restore(&mut guest, Pid(1), &saved),
            Err(BinderError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn restore_fails_when_guest_lacks_a_service() {
        let (home, app) = scenario();
        let saved = capture(&home, app).unwrap();
        let mut guest = BinderDriver::new();
        guest.attach_process(Pid(1), Uid(10_001));
        // Guest has no services registered at all.
        assert!(matches!(
            restore(&mut guest, Pid(1), &saved),
            Err(BinderError::NoSuchService { .. })
        ));
    }
}
