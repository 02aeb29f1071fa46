//! The SensorService.
//!
//! The paper's example of replay with returned handles (§3.2): apps obtain
//! a `SensorEventConnection` Binder object and a Unix-domain event socket;
//! both must reappear at the *same* handle / descriptor after migration.
//! The connection is a second Binder node backed by this same service
//! object; the event socket is a descriptor opened in the caller's table.

use crate::intent::Event;
use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, NodeId, ObjRef, Parcel};
use flux_kernel::FdKind;
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// One live sensor event connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// The Binder node backing the connection object.
    pub node: NodeId,
    /// Owning app.
    pub uid: Uid,
    /// Requesting package.
    pub package: String,
    /// Enabled sensor handles with their sampling periods (µs).
    pub enabled: BTreeMap<i32, i32>,
    /// The app-side descriptor of the event channel, once requested.
    pub channel_fd: Option<i32>,
}

/// The sensor service state.
#[derive(Debug, Clone)]
pub struct SensorService {
    sensors: Vec<String>,
    connections: BTreeMap<NodeId, Connection>,
    next_conn: u32,
}

impl SensorService {
    /// Creates the service with the device's sensor inventory.
    pub fn new(sensors: &[String]) -> Self {
        Self {
            sensors: sensors.to_vec(),
            connections: BTreeMap::new(),
            next_conn: 1,
        }
    }

    /// The sensor name for a handle, if valid.
    pub fn sensor_name(&self, handle: i32) -> Option<&str> {
        self.sensors.get(handle as usize).map(String::as_str)
    }

    /// Connections owned by `uid`.
    pub fn connections_of(&self, uid: Uid) -> Vec<&Connection> {
        self.connections.values().filter(|c| c.uid == uid).collect()
    }

    /// Emits one synthetic sensor event per enabled sensor of `uid`
    /// (driven by workloads to model a live sensor stream).
    pub fn pump_events(&self, uid: Uid, ctx: &mut ServiceCtx<'_>) {
        for conn in self.connections.values().filter(|c| c.uid == uid) {
            if let Some(fd) = conn.channel_fd {
                for handle in conn.enabled.keys() {
                    if let Some(name) = self.sensor_name(*handle) {
                        ctx.deliver(
                            uid,
                            Event::SensorEvent {
                                sensor: name.to_owned(),
                                channel_fd: fd,
                            },
                        );
                    }
                }
            }
        }
    }

    fn connection_mut(
        &mut self,
        node: NodeId,
        method: &str,
    ) -> Result<&mut Connection, BinderError> {
        self.connections
            .get_mut(&node)
            .ok_or_else(|| BinderError::TransactionFailed {
                interface: "ISensorServer".into(),
                method: method.to_owned(),
                reason: format!("no SensorEventConnection for node {node}"),
            })
    }
}

impl SystemService for SensorService {
    fn descriptor(&self) -> &'static str {
        "ISensorServer"
    }

    fn registry_name(&self) -> &'static str {
        "sensorservice"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "getSensorList" => {
                let mut p = Parcel::new().with_i32(self.sensors.len() as i32);
                for s in &self.sensors {
                    p.push(flux_binder::Value::Str(s.clone()));
                }
                Ok(p)
            }
            "createSensorEventConnection" => {
                let package = args.str(0)?.to_owned();
                let conn_id = self.next_conn;
                self.next_conn += 1;
                let node =
                    ctx.create_connection_node(format!("ISensorEventConnection#{conn_id}"))?;
                self.connections.insert(
                    node,
                    Connection {
                        node,
                        uid: ctx.caller_uid,
                        package,
                        enabled: BTreeMap::new(),
                        channel_fd: None,
                    },
                );
                Ok(Parcel::new().with_object(ObjRef::Own(node)))
            }
            // These take the connection object as their first argument, as
            // in the ISensorServer definition; the record log preserves the
            // object reference so replay re-resolves it on the guest.
            "enableSensor" => {
                let node = self.target_connection(ctx, args)?;
                let handle = args.i32(1)?;
                let period = args.i32(2).unwrap_or(66_000);
                if self.sensor_name(handle).is_none() {
                    return Err(ctx.fail(
                        self.descriptor(),
                        method,
                        format!("bad sensor {handle}"),
                    ));
                }
                self.connection_mut(node, method)?
                    .enabled
                    .insert(handle, period);
                Ok(Parcel::new().with_bool(true))
            }
            "disableSensor" => {
                let node = self.target_connection(ctx, args)?;
                let handle = args.i32(1)?;
                self.connection_mut(node, method)?.enabled.remove(&handle);
                Ok(Parcel::new().with_bool(true))
            }
            "getSensorChannel" => {
                let node = self.target_connection(ctx, args)?;
                let conn = self.connection_mut(node, method)?;
                let peer = format!("SensorEventConnection#{node}");
                let uid = conn.uid;
                // Open the socket in the *caller's* descriptor table.
                let proc = ctx.kernel.process_mut(ctx.caller_pid).map_err(|e| {
                    BinderError::TransactionFailed {
                        interface: "ISensorServer".into(),
                        method: method.to_owned(),
                        reason: e.to_string(),
                    }
                })?;
                debug_assert_eq!(proc.uid, uid);
                let fd = proc.fds.open(FdKind::UnixSocket { peer });
                self.connection_mut(node, method)?.channel_fd = Some(fd);
                Ok(Parcel::new().with_fd(fd))
            }
            "flushSensor" => Ok(Parcel::new().with_i32(0)),
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn on_uid_death(&mut self, _ctx: &mut ServiceCtx<'_>, uid: Uid) {
        self.connections.retain(|_, c| c.uid != uid);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl SensorService {
    /// Resolves the connection a call refers to: either the node the
    /// transaction targeted, or the connection object in argument 0.
    fn target_connection(
        &self,
        ctx: &ServiceCtx<'_>,
        args: &Parcel,
    ) -> Result<NodeId, BinderError> {
        if self.connections.contains_key(&ctx.target_node) {
            return Ok(ctx.target_node);
        }
        if let Ok(ObjRef::Own(node)) = args.object(0) {
            if self.connections.contains_key(&node) {
                return Ok(node);
            }
        }
        Err(BinderError::TransactionFailed {
            interface: "ISensorServer".into(),
            method: "<connection>".into(),
            reason: "call does not identify a SensorEventConnection".into(),
        })
    }
}
