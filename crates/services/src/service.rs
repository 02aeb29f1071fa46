//! The system-service trait and per-call context.

use crate::intent::Delivery;
use flux_binder::{BinderError, NodeId, Parcel};
use flux_kernel::Kernel;
use flux_simcore::{Pid, SimTime, Uid};
use std::any::Any;
use std::borrow::Cow;

/// Context handed to a service for one transaction.
///
/// Carries the caller's identity, the target node (so one service object
/// can back several nodes, e.g. the SensorService and its per-app
/// SensorEventConnections), mutable kernel access, and output channels for
/// deliveries and freshly created service nodes.
pub struct ServiceCtx<'a> {
    /// PID of the calling process.
    pub caller_pid: Pid,
    /// UID of the calling process.
    pub caller_uid: Uid,
    /// Current virtual time.
    pub now: SimTime,
    /// PID of the system-service process hosting the service.
    pub service_pid: Pid,
    /// The node the transaction was addressed to.
    pub target_node: NodeId,
    /// The kernel of the device the service runs on.
    pub kernel: &'a mut Kernel,
    /// Events produced during the call, routed to apps by the environment.
    pub deliveries: Vec<Delivery>,
    /// Nodes the service created during the call (connection objects);
    /// the host binds them back to this service after dispatch.
    pub new_service_nodes: Vec<NodeId>,
}

impl ServiceCtx<'_> {
    /// Queues an event for delivery to the app with `uid`.
    pub fn deliver(&mut self, to_uid: Uid, event: crate::intent::Event) {
        self.deliveries.push(Delivery {
            to_uid,
            event,
            at: self.now,
        });
    }

    /// Creates a connection node owned by the service process and records
    /// it for binding to this service.
    pub fn create_connection_node(
        &mut self,
        descriptor: impl Into<Cow<'static, str>>,
    ) -> Result<NodeId, BinderError> {
        let node = self.kernel.binder.create_node(
            self.service_pid,
            flux_binder::NodeKind::Service {
                descriptor: descriptor.into(),
            },
        )?;
        self.new_service_nodes.push(node);
        Ok(node)
    }

    /// Builds the standard "transaction failed" error for this service.
    pub fn fail(&self, interface: &str, method: &str, reason: impl Into<String>) -> BinderError {
        BinderError::TransactionFailed {
            interface: interface.to_owned(),
            method: method.to_owned(),
            reason: reason.into(),
        }
    }
}

/// A long-running Android system service.
///
/// Services are dispatched *by method name* at the AIDL level — the same
/// level Selective Record interposes on — rather than by raw transaction
/// code; the compiled interface provides the name↔code mapping. Every
/// service is `Clone`, so a booted host can be copied
/// ([`CloneService`]).
pub trait SystemService: std::fmt::Debug + Send + CloneService {
    /// AIDL interface descriptor, e.g. `"INotificationManager"`.
    fn descriptor(&self) -> &'static str;

    /// ServiceManager registration name, e.g. `"notification"`.
    fn registry_name(&self) -> &'static str;

    /// Handles one transaction.
    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError>;

    /// Invoked when every process of an app (by UID) has died — the moral
    /// equivalent of a Binder death notification. Services drop the app's
    /// state: wakelocks are released, alarms cancelled, notifications
    /// removed, sensor connections torn down.
    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, _uid: Uid) {}

    /// Downcast support for tests and environment-side inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Clones a service behind its trait object; implemented for every
/// `Clone` service.
pub trait CloneService {
    /// A boxed copy of the service.
    fn clone_box(&self) -> Box<dyn SystemService>;
}

impl<T: SystemService + Clone + 'static> CloneService for T {
    fn clone_box(&self) -> Box<dyn SystemService> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn SystemService> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
