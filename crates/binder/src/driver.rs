//! The simulated Binder driver: nodes, handles, references and routing.
//!
//! This models the kernel side of Binder at the granularity CRIA needs
//! (§3.3 of the paper): which process owns which node, which handles each
//! process holds, how references propagate through parcels, and which
//! handles refer to named system services. The driver is *pure state* — it
//! routes transactions but does not own service objects; dispatch lives in
//! `flux-services` so the driver itself can be checkpointed and restored.

use crate::error::BinderError;
use crate::parcel::{ObjRef, Parcel, Value};
use flux_simcore::{IdAlloc, Pid, Uid};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Identifier of a Binder node (the service side of a connection).
pub type NodeId = u64;

/// The well-known handle through which every process reaches the
/// ServiceManager (handle 0 in real Binder).
pub const SERVICE_MANAGER_HANDLE: u32 = 0;

/// What a node is, from the driver's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A node backing a long-running service object (dispatched by a
    /// service host). `descriptor` is the AIDL interface name.
    Service {
        /// AIDL interface descriptor. A service borrows its `&'static`
        /// name; a connection object such as `ISensorEventConnection#3`
        /// owns its own.
        descriptor: Cow<'static, str>,
    },
    /// A node private to an app (callbacks, listeners, internal Binders).
    AppLocal {
        /// Free-form label, e.g. `"BroadcastReceiver:wifi"`.
        label: String,
    },
}

/// A Binder node: an object that can receive transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Unique node id.
    pub id: NodeId,
    /// Process that owns (implements) the node.
    pub owner: Pid,
    /// UID of the owner at creation time.
    pub owner_uid: Uid,
    /// What the node is.
    pub kind: NodeKind,
    /// Strong references currently held across all processes.
    pub strong_refs: u32,
}

/// One entry in a process's handle table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandleEntry {
    /// The node the handle refers to.
    pub node: NodeId,
    /// Strong reference count held by this process through this handle.
    pub strong: u32,
}

/// Per-process table mapping handle ids to nodes.
///
/// Handle 0 is reserved for the ServiceManager and is present implicitly,
/// so fresh tables start allocating at handle 1 (`Default` included —
/// a table whose `next` were 0 would hand out the ServiceManager handle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleTable {
    entries: BTreeMap<u32, HandleEntry>,
    next: u32,
}

impl Default for HandleTable {
    fn default() -> Self {
        Self {
            entries: BTreeMap::new(),
            next: 1,
        }
    }
}

impl HandleTable {
    /// Looks up the node behind `handle`.
    pub fn get(&self, handle: u32) -> Option<HandleEntry> {
        self.entries.get(&handle).copied()
    }

    /// Iterates over `(handle, entry)` pairs in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, HandleEntry)> + '_ {
        self.entries.iter().map(|(h, e)| (*h, *e))
    }

    /// Number of handles held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds an existing handle for `node`, if the process already holds one.
    pub fn find_node(&self, node: NodeId) -> Option<u32> {
        self.entries
            .iter()
            .find(|(_, e)| e.node == node)
            .map(|(h, _)| *h)
    }

    fn insert_new(&mut self, node: NodeId) -> u32 {
        if let Some(h) = self.find_node(node) {
            self.entries.get_mut(&h).expect("handle exists").strong += 1;
            return h;
        }
        let h = self.next;
        self.next += 1;
        self.entries.insert(h, HandleEntry { node, strong: 1 });
        h
    }

    fn insert_at(&mut self, handle: u32, node: NodeId, strong: u32) -> Result<(), u32> {
        if self.entries.contains_key(&handle) || handle == SERVICE_MANAGER_HANDLE {
            return Err(handle);
        }
        self.entries.insert(handle, HandleEntry { node, strong });
        if handle >= self.next {
            self.next = handle + 1;
        }
        Ok(())
    }

    fn remove(&mut self, handle: u32) -> Option<HandleEntry> {
        self.entries.remove(&handle)
    }
}

/// A transaction routed by the driver, ready for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedTransaction {
    /// The target node.
    pub node: NodeId,
    /// The process that owns the target node.
    pub target: Pid,
    /// Interface descriptor if the node is a service.
    pub descriptor: Option<Cow<'static, str>>,
    /// Sender PID.
    pub from: Pid,
    /// Sender UID.
    pub from_uid: Uid,
    /// Method name (AIDL-level; see `flux-aidl`).
    pub method: String,
    /// Arguments, with object references translated to the *sender's* node
    /// ids (the dispatcher translates further on reply).
    pub args: Parcel,
}

/// The Binder driver state for one kernel.
#[derive(Debug, Clone, Default)]
pub struct BinderDriver {
    nodes: BTreeMap<NodeId, Node>,
    tables: BTreeMap<Pid, HandleTable>,
    uids: BTreeMap<Pid, Uid>,
    registry: BTreeMap<Cow<'static, str>, NodeId>,
    node_ids: IdAlloc,
    /// Total transactions routed, for overhead accounting.
    pub transactions: u64,
}

impl BinderDriver {
    /// Creates an empty driver.
    pub fn new() -> Self {
        Self {
            node_ids: IdAlloc::starting_at(1),
            ..Self::default()
        }
    }

    /// Registers a process with the driver (done on `open("/dev/binder")`).
    pub fn attach_process(&mut self, pid: Pid, uid: Uid) {
        self.tables.entry(pid).or_default();
        self.uids.insert(pid, uid);
    }

    /// Removes a process: its handle table is dropped and the nodes it owns
    /// die. Returns the ids of nodes that died.
    pub fn detach_process(&mut self, pid: Pid) -> Vec<NodeId> {
        self.tables.remove(&pid);
        self.uids.remove(&pid);
        let dead: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| n.owner == pid)
            .map(|n| n.id)
            .collect();
        for id in &dead {
            self.nodes.remove(id);
        }
        self.registry.retain(|_, node| !dead.contains(node));
        dead
    }

    /// Whether the driver knows `pid`.
    pub fn knows_process(&self, pid: Pid) -> bool {
        self.tables.contains_key(&pid)
    }

    /// The UID recorded for `pid`, if attached.
    pub fn uid_of(&self, pid: Pid) -> Option<Uid> {
        self.uids.get(&pid).copied()
    }

    /// Creates a node owned by `owner`. The owner implicitly holds it; other
    /// processes must receive a reference through a parcel or the
    /// ServiceManager before they can transact on it.
    pub fn create_node(&mut self, owner: Pid, kind: NodeKind) -> Result<NodeId, BinderError> {
        let owner_uid = *self
            .uids
            .get(&owner)
            .ok_or(BinderError::NoSuchProcess { pid: owner })?;
        let id = self.node_ids.next();
        self.nodes.insert(
            id,
            Node {
                id,
                owner,
                owner_uid,
                kind,
                strong_refs: 0,
            },
        );
        Ok(id)
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// All nodes owned by `pid`.
    pub fn nodes_owned_by(&self, pid: Pid) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.values().filter(move |n| n.owner == pid)
    }

    /// The handle table of `pid`.
    pub fn handle_table(&self, pid: Pid) -> Result<&HandleTable, BinderError> {
        self.tables
            .get(&pid)
            .ok_or(BinderError::NoSuchProcess { pid })
    }

    /// Gives `pid` a reference to `node`, returning the handle (existing or
    /// fresh). This is the primitive behind both ServiceManager lookups and
    /// object translation in parcels.
    pub fn acquire_ref(&mut self, pid: Pid, node: NodeId) -> Result<u32, BinderError> {
        if !self.nodes.contains_key(&node) {
            return Err(BinderError::DeadNode { node });
        }
        let table = self
            .tables
            .get_mut(&pid)
            .ok_or(BinderError::NoSuchProcess { pid })?;
        let h = table.insert_new(node);
        self.nodes
            .get_mut(&node)
            .expect("checked above")
            .strong_refs += 1;
        Ok(h)
    }

    /// Releases one strong reference held by `pid` through `handle`.
    pub fn release_ref(&mut self, pid: Pid, handle: u32) -> Result<(), BinderError> {
        let table = self
            .tables
            .get_mut(&pid)
            .ok_or(BinderError::NoSuchProcess { pid })?;
        let entry = table
            .get(handle)
            .ok_or(BinderError::BadHandle { pid, handle })?;
        if entry.strong <= 1 {
            table.remove(handle);
        } else {
            // Decrement in place.
            let e = table.entries.get_mut(&handle).expect("entry exists");
            e.strong -= 1;
        }
        if let Some(n) = self.nodes.get_mut(&entry.node) {
            n.strong_refs = n.strong_refs.saturating_sub(1);
        }
        Ok(())
    }

    /// Resolves the node behind a handle held by `pid`.
    pub fn resolve_handle(&self, pid: Pid, handle: u32) -> Result<NodeId, BinderError> {
        self.handle_table(pid)?
            .get(handle)
            .map(|e| e.node)
            .ok_or(BinderError::BadHandle { pid, handle })
    }

    // --- ServiceManager (the userspace registry, reachable as handle 0) ---

    /// Registers `node` under `name` with the ServiceManager.
    ///
    /// Real Android leaves permission checks to the service itself; the
    /// registry only refuses duplicate names.
    pub fn add_service(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        node: NodeId,
    ) -> Result<(), BinderError> {
        let name = name.into();
        if !self.nodes.contains_key(&node) {
            return Err(BinderError::DeadNode { node });
        }
        if self.registry.contains_key(&name) {
            return Err(BinderError::ServiceExists { name: name.into() });
        }
        self.registry.insert(name, node);
        Ok(())
    }

    /// Looks up `name` and gives `for_pid` a reference, returning the handle.
    pub fn get_service(&mut self, for_pid: Pid, name: &str) -> Result<u32, BinderError> {
        let node = *self
            .registry
            .get(name)
            .ok_or_else(|| BinderError::NoSuchService { name: name.into() })?;
        self.acquire_ref(for_pid, node)
    }

    /// Like [`BinderDriver::get_service`] but returns `None` instead of an
    /// error when the name is unknown (Android's `checkService`).
    pub fn check_service(&mut self, for_pid: Pid, name: &str) -> Option<u32> {
        self.get_service(for_pid, name).ok()
    }

    /// The registered name of `node`, if any.
    pub fn service_name_of(&self, node: NodeId) -> Option<&str> {
        self.registry
            .iter()
            .find(|(_, n)| **n == node)
            .map(|(name, _)| name.as_ref())
    }

    /// All registered service names, sorted.
    pub fn list_services(&self) -> Vec<&str> {
        self.registry.keys().map(AsRef::as_ref).collect()
    }

    /// Routes a transaction from `from` through `handle`, translating any
    /// object references in `args` from the sender's namespace into node
    /// ids. The returned [`RoutedTransaction`] is handed to a dispatcher.
    pub fn route(
        &mut self,
        from: Pid,
        handle: u32,
        method: &str,
        mut args: Parcel,
    ) -> Result<RoutedTransaction, BinderError> {
        let from_uid = *self
            .uids
            .get(&from)
            .ok_or(BinderError::NoSuchProcess { pid: from })?;
        let node_id = self.resolve_handle(from, handle)?;
        let node = self
            .nodes
            .get(&node_id)
            .ok_or(BinderError::DeadNode { node: node_id })?;
        let target = node.owner;
        let descriptor = match &node.kind {
            NodeKind::Service { descriptor } => Some(descriptor.clone()),
            NodeKind::AppLocal { .. } => None,
        };
        // Translate sender handles to node ids so the receiver side can
        // re-translate into its own handle table.
        self.translate_outgoing(from, &mut args)?;
        self.transactions += 1;
        Ok(RoutedTransaction {
            node: node_id,
            target,
            descriptor,
            from,
            from_uid,
            method: method.to_owned(),
            args,
        })
    }

    /// Rewrites `ObjRef::Handle` values (sender handles) into
    /// `ObjRef::Own` values carrying the underlying node id.
    fn translate_outgoing(&self, from: Pid, parcel: &mut Parcel) -> Result<(), BinderError> {
        let table = self.handle_table(from)?;
        for v in parcel.values_mut() {
            if let Value::Object(obj) = v {
                if let ObjRef::Handle(h) = obj {
                    let node = table
                        .get(*h)
                        .ok_or(BinderError::BadHandle {
                            pid: from,
                            handle: *h,
                        })?
                        .node;
                    *obj = ObjRef::Own(node);
                }
            }
        }
        Ok(())
    }

    /// Rewrites `ObjRef::Own` node ids in a delivered parcel into handles in
    /// `to`'s table, acquiring references as Binder does on delivery.
    pub fn translate_incoming(&mut self, to: Pid, parcel: &mut Parcel) -> Result<(), BinderError> {
        // Collect first to appease the borrow checker: acquire_ref needs
        // &mut self while we iterate parcel values.
        let mut translations = Vec::new();
        for (i, v) in parcel.values().iter().enumerate() {
            if let Value::Object(ObjRef::Own(node)) = v {
                translations.push((i, *node));
            }
        }
        for (i, node) in translations {
            let h = self.acquire_ref(to, node)?;
            parcel.values_mut()[i] = Value::Object(ObjRef::Handle(h));
        }
        Ok(())
    }

    /// Injects a handle at a *specific* id into `pid`'s table (CRIA restore:
    /// "injects those references in Binder with the previously issued handle
    /// identifier", §3.3).
    pub fn inject_ref_at(
        &mut self,
        pid: Pid,
        handle: u32,
        node: NodeId,
        strong: u32,
    ) -> Result<(), BinderError> {
        if !self.nodes.contains_key(&node) {
            return Err(BinderError::DeadNode { node });
        }
        let table = self
            .tables
            .get_mut(&pid)
            .ok_or(BinderError::NoSuchProcess { pid })?;
        table
            .insert_at(handle, node, strong)
            .map_err(|handle| BinderError::HandleCollision { pid, handle })?;
        self.nodes
            .get_mut(&node)
            .expect("checked above")
            .strong_refs += strong;
        Ok(())
    }

    /// Recreates a node with a caller-chosen owner during restore and
    /// returns its fresh id. The node id itself is not preserved (ids are
    /// kernel-local); only handle ids visible to the app are.
    pub fn recreate_node(&mut self, owner: Pid, kind: NodeKind) -> Result<NodeId, BinderError> {
        self.create_node(owner, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver_with(pids: &[(u32, u32)]) -> BinderDriver {
        let mut d = BinderDriver::new();
        for (p, u) in pids {
            d.attach_process(Pid(*p), Uid(*u));
        }
        d
    }

    #[test]
    fn reference_required_before_transact() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let node = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "INotificationManager".into(),
                },
            )
            .unwrap();
        // PID 1 holds no reference: routing through an arbitrary handle fails.
        assert!(matches!(
            d.route(Pid(1), 7, "enqueueNotification", Parcel::new()),
            Err(BinderError::BadHandle { .. })
        ));
        // After acquiring a reference, routing succeeds.
        let h = d.acquire_ref(Pid(1), node).unwrap();
        let routed = d
            .route(Pid(1), h, "enqueueNotification", Parcel::new())
            .unwrap();
        assert_eq!(routed.target, Pid(2));
        assert_eq!(routed.descriptor.as_deref(), Some("INotificationManager"));
    }

    #[test]
    fn service_manager_registry_roundtrip() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let node = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "IAlarmManager".into(),
                },
            )
            .unwrap();
        d.add_service("alarm", node).unwrap();
        assert!(matches!(
            d.add_service("alarm", node),
            Err(BinderError::ServiceExists { .. })
        ));
        let h = d.get_service(Pid(1), "alarm").unwrap();
        assert_eq!(d.resolve_handle(Pid(1), h).unwrap(), node);
        assert_eq!(d.service_name_of(node), Some("alarm"));
        assert!(matches!(
            d.get_service(Pid(1), "nope"),
            Err(BinderError::NoSuchService { .. })
        ));
        assert!(d.check_service(Pid(1), "nope").is_none());
    }

    #[test]
    fn same_node_reuses_handle_and_counts_refs() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let node = d
            .create_node(Pid(2), NodeKind::AppLocal { label: "cb".into() })
            .unwrap();
        let h1 = d.acquire_ref(Pid(1), node).unwrap();
        let h2 = d.acquire_ref(Pid(1), node).unwrap();
        assert_eq!(h1, h2);
        assert_eq!(d.handle_table(Pid(1)).unwrap().get(h1).unwrap().strong, 2);
        assert_eq!(d.node(node).unwrap().strong_refs, 2);
        d.release_ref(Pid(1), h1).unwrap();
        assert_eq!(d.handle_table(Pid(1)).unwrap().get(h1).unwrap().strong, 1);
        d.release_ref(Pid(1), h1).unwrap();
        assert!(d.handle_table(Pid(1)).unwrap().get(h1).is_none());
    }

    #[test]
    fn parcel_object_translation_propagates_references() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000), (3, 10_002)]);
        // PID 1 owns a callback node and sends it to PID 2's service.
        let cb = d
            .create_node(Pid(1), NodeKind::AppLocal { label: "cb".into() })
            .unwrap();
        let svc = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "ISensorService".into(),
                },
            )
            .unwrap();
        let h = d.acquire_ref(Pid(1), svc).unwrap();
        let args = Parcel::new().with_object(ObjRef::Own(cb));
        let routed = d.route(Pid(1), h, "registerListener", args).unwrap();
        // Delivery into PID 2 translates the node into a handle there.
        let mut delivered = routed.args.clone();
        d.translate_incoming(Pid(2), &mut delivered).unwrap();
        let obj = delivered.object(0).unwrap();
        let ObjRef::Handle(h2) = obj else {
            panic!("expected handle, got {obj:?}");
        };
        assert_eq!(d.resolve_handle(Pid(2), h2).unwrap(), cb);
    }

    #[test]
    fn sending_a_held_handle_translates_to_same_node() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let svc = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "IActivityManager".into(),
                },
            )
            .unwrap();
        let other = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "IWindowSession".into(),
                },
            )
            .unwrap();
        let h_svc = d.acquire_ref(Pid(1), svc).unwrap();
        let h_other = d.acquire_ref(Pid(1), other).unwrap();
        let args = Parcel::new().with_object(ObjRef::Handle(h_other));
        let routed = d.route(Pid(1), h_svc, "attach", args).unwrap();
        assert_eq!(routed.args.object(0).unwrap(), ObjRef::Own(other));
    }

    #[test]
    fn detach_kills_owned_nodes_and_registry_entries() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let node = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "IClipboard".into(),
                },
            )
            .unwrap();
        d.add_service("clipboard", node).unwrap();
        let h = d.acquire_ref(Pid(1), node).unwrap();
        let dead = d.detach_process(Pid(2));
        assert_eq!(dead, vec![node]);
        assert!(d.get_service(Pid(1), "clipboard").is_err());
        // Stale handles surface as dead nodes when routed through.
        assert!(matches!(
            d.route(Pid(1), h, "getPrimaryClip", Parcel::new()),
            Err(BinderError::DeadNode { .. })
        ));
    }

    #[test]
    fn inject_ref_at_restores_exact_handle_ids() {
        let mut d = driver_with(&[(9, 10_009), (2, 1000)]);
        let node = d
            .create_node(
                Pid(2),
                NodeKind::Service {
                    descriptor: "INotificationManager".into(),
                },
            )
            .unwrap();
        d.inject_ref_at(Pid(9), 42, node, 1).unwrap();
        assert_eq!(d.resolve_handle(Pid(9), 42).unwrap(), node);
        // Colliding injection is refused.
        assert!(matches!(
            d.inject_ref_at(Pid(9), 42, node, 1),
            Err(BinderError::HandleCollision { .. })
        ));
        // Fresh handles after injection do not collide with 42.
        let other = d
            .create_node(Pid(2), NodeKind::AppLocal { label: "x".into() })
            .unwrap();
        let h = d.acquire_ref(Pid(9), other).unwrap();
        assert!(h > 42);
    }

    #[test]
    fn handle_zero_is_reserved_for_service_manager() {
        let mut d = driver_with(&[(1, 10_001), (2, 1000)]);
        let node = d
            .create_node(Pid(2), NodeKind::AppLocal { label: "x".into() })
            .unwrap();
        assert!(matches!(
            d.inject_ref_at(Pid(1), SERVICE_MANAGER_HANDLE, node, 1),
            Err(BinderError::HandleCollision { .. })
        ));
    }
}
