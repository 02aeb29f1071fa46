//! The service host: owns service objects and dispatches transactions.
//!
//! The Binder driver (in `flux-kernel`/`flux-binder`) is pure state so CRIA
//! can snapshot it; the host holds the actual service objects of one
//! device's `system_server` process and routes transactions to them. Flux's
//! Selective Record runtime (in `flux-core`) interposes *in front of* this
//! dispatch, exactly where the framework-supplied proxy libraries sit in
//! Android.

use crate::service::{ServiceCtx, SystemService};
use flux_aidl::CompiledInterface;
use flux_binder::{BinderError, NodeId, NodeKind, Parcel};
use flux_kernel::Kernel;
use flux_simcore::{Pid, SimTime, Uid};
use std::collections::BTreeMap;

/// The outcome of one dispatched transaction.
#[derive(Debug)]
pub struct DispatchResult {
    /// Reply parcel, already translated into the caller's handle space.
    pub reply: Parcel,
    /// Events produced by the service during the call.
    pub deliveries: Vec<crate::intent::Delivery>,
}

/// Hosts the system services of one device.
#[derive(Debug, Clone)]
pub struct ServiceHost {
    services: Vec<Box<dyn SystemService>>,
    by_node: BTreeMap<NodeId, usize>,
    /// Keyed by each service's `registry_name`.
    by_name: BTreeMap<&'static str, usize>,
    interfaces: &'static BTreeMap<String, CompiledInterface>,
    /// PID of the `system_server` process hosting every service.
    pub system_pid: Pid,
}

impl ServiceHost {
    /// Creates a host around an already spawned system-server process,
    /// validating methods against `interfaces` (normally
    /// [`crate::registry::framework`]).
    pub fn new(system_pid: Pid, interfaces: &'static BTreeMap<String, CompiledInterface>) -> Self {
        Self {
            services: Vec::new(),
            by_node: BTreeMap::new(),
            by_name: BTreeMap::new(),
            interfaces,
            system_pid,
        }
    }

    /// Registers a service: creates its Binder node (owned by the system
    /// server) and adds it to the ServiceManager under its registry name.
    pub fn add_service(
        &mut self,
        kernel: &mut Kernel,
        service: Box<dyn SystemService>,
    ) -> Result<NodeId, BinderError> {
        let node = kernel.binder.create_node(
            self.system_pid,
            NodeKind::Service {
                descriptor: service.descriptor().into(),
            },
        )?;
        kernel.binder.add_service(service.registry_name(), node)?;
        let idx = self.services.len();
        self.by_node.insert(node, idx);
        self.by_name.insert(service.registry_name(), idx);
        self.services.push(service);
        Ok(node)
    }

    /// The interface table this host validates against.
    pub fn interfaces(&self) -> &'static BTreeMap<String, CompiledInterface> {
        self.interfaces
    }

    /// The compiled interface for `descriptor`, if registered.
    pub fn interface(&self, descriptor: &str) -> Option<&'static CompiledInterface> {
        self.interfaces.get(descriptor)
    }

    /// The compiled interface of the service registered as `name`.
    pub fn interface_of_service(&self, name: &str) -> Option<&'static CompiledInterface> {
        let idx = *self.by_name.get(name)?;
        self.interfaces.get(self.services[idx].descriptor())
    }

    /// Immutable typed access to a service by registry name.
    pub fn service<T: 'static>(&self, name: &str) -> Option<&T> {
        let idx = *self.by_name.get(name)?;
        self.services[idx].as_any().downcast_ref::<T>()
    }

    /// Mutable typed access to a service by registry name.
    pub fn service_mut<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        let idx = *self.by_name.get(name)?;
        self.services[idx].as_any_mut().downcast_mut::<T>()
    }

    /// Runs `f` against a service with full context, outside a transaction
    /// (used by the environment for clock ticks, e.g. firing alarms).
    pub fn with_service_ctx<R>(
        &mut self,
        kernel: &mut Kernel,
        now: SimTime,
        name: &str,
        f: impl FnOnce(&mut dyn SystemService, &mut ServiceCtx<'_>) -> R,
    ) -> Option<(R, Vec<crate::intent::Delivery>)> {
        let idx = *self.by_name.get(name)?;
        let system_pid = self.system_pid;
        let mut ctx = ServiceCtx {
            caller_pid: system_pid,
            caller_uid: Uid::SYSTEM,
            now,
            service_pid: system_pid,
            target_node: 0,
            kernel,
            deliveries: Vec::new(),
            new_service_nodes: Vec::new(),
        };
        let r = f(self.services[idx].as_mut(), &mut ctx);
        let deliveries = std::mem::take(&mut ctx.deliveries);
        let new_nodes = std::mem::take(&mut ctx.new_service_nodes);
        for n in new_nodes {
            self.by_node.insert(n, idx);
        }
        Some((r, deliveries))
    }

    /// Dispatches one transaction from `from` through `handle`.
    ///
    /// Routing, reference translation and method validation happen here;
    /// the Selective Record runtime wraps this call to interpose on the
    /// proxy side.
    pub fn dispatch(
        &mut self,
        kernel: &mut Kernel,
        now: SimTime,
        from: Pid,
        handle: u32,
        method: &str,
        args: Parcel,
    ) -> Result<DispatchResult, BinderError> {
        let routed = kernel.binder.route(from, handle, method, args)?;
        let idx =
            *self
                .by_node
                .get(&routed.node)
                .ok_or_else(|| BinderError::TransactionFailed {
                    interface: routed.descriptor.as_deref().unwrap_or_default().to_owned(),
                    method: method.to_owned(),
                    reason: "node is not hosted by the service host".into(),
                })?;
        // Validate the method against the registered interface when the
        // target is a primary service node (connection sub-objects have
        // dynamic descriptors and validate inside the service).
        if let Some(desc) = &routed.descriptor {
            if let Some(iface) = self.interfaces.get(desc.as_ref()) {
                if !iface.has_method(method) {
                    return Err(BinderError::TransactionFailed {
                        interface: desc.to_string(),
                        method: method.to_owned(),
                        reason: "unknown method".into(),
                    });
                }
            }
        }

        let system_pid = self.system_pid;
        let mut ctx = ServiceCtx {
            caller_pid: routed.from,
            caller_uid: routed.from_uid,
            now,
            service_pid: system_pid,
            target_node: routed.node,
            kernel,
            deliveries: Vec::new(),
            new_service_nodes: Vec::new(),
        };
        let result = self.services[idx].on_call(&mut ctx, &routed.method, &routed.args);
        let deliveries = std::mem::take(&mut ctx.deliveries);
        let new_nodes = std::mem::take(&mut ctx.new_service_nodes);
        drop(ctx);
        for n in new_nodes {
            self.by_node.insert(n, idx);
        }
        let mut reply = result?;
        kernel.binder.translate_incoming(from, &mut reply)?;
        Ok(DispatchResult { reply, deliveries })
    }

    /// Notifies every service that all processes of `uid` died (Binder
    /// death notification equivalent). Returns deliveries produced, if any.
    pub fn notify_uid_death(
        &mut self,
        kernel: &mut Kernel,
        now: SimTime,
        uid: Uid,
    ) -> Vec<crate::intent::Delivery> {
        let system_pid = self.system_pid;
        let mut all = Vec::new();
        for idx in 0..self.services.len() {
            let mut ctx = ServiceCtx {
                caller_pid: system_pid,
                caller_uid: Uid::SYSTEM,
                now,
                service_pid: system_pid,
                target_node: 0,
                kernel,
                deliveries: Vec::new(),
                new_service_nodes: Vec::new(),
            };
            self.services[idx].on_uid_death(&mut ctx, uid);
            all.extend(ctx.deliveries);
        }
        all
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Registry names of all hosted services, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.by_name.keys().copied().collect()
    }
}
