//! AST for AIDL interface definitions with Flux decorations.
//!
//! The paper extends the Android Interface Definition Language with four
//! decorator constructs (Table 1): `@record`, `@drop`, `@if`/`@elif` and
//! `@replayproxy`, plus the `this` keyword. Interface texts written in this
//! dialect (Figures 6–9) parse into the types here and compile into the
//! record rules used by the Selective Record runtime.

use std::fmt;

/// AIDL parameter direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Passed from client to service (the default).
    #[default]
    In,
    /// Written back by the service.
    Out,
    /// Both.
    InOut,
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Direction qualifier.
    pub direction: Direction,
    /// Type name as written, e.g. `int`, `long`, `PendingIntent`,
    /// `List<String>`, `byte[]`.
    pub ty: String,
    /// Parameter name; `@if` clauses refer to these names.
    pub name: String,
}

/// A target in a `@drop` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropTarget {
    /// The `this` keyword: the method being decorated.
    This,
    /// Another method of the same interface, by name.
    Method(String),
}

impl fmt::Display for DropTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropTarget::This => write!(f, "this"),
            DropTarget::Method(m) => write!(f, "{m}"),
        }
    }
}

/// A parsed `@record` decoration.
///
/// A bare `@record` records unconditionally. A block form may add drop
/// lists, match signatures and a replay proxy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecordRule {
    /// Methods whose matching previous calls are removed when this method
    /// is called.
    pub drops: Vec<DropTarget>,
    /// Alternative match signatures: each inner list names parameters that
    /// must all be equal for a previous call to match (`@if a, b;` then
    /// `@elif c;`). Empty means "always match".
    pub if_clauses: Vec<Vec<String>>,
    /// Dotted path of an alternative replay proxy method.
    pub replay_proxy: Option<String>,
}

/// One interface method, possibly decorated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    /// Return type as written (`void`, `int`, `IBinder`, …).
    pub ret: String,
    /// Whether the method is `oneway` (async, no reply).
    pub oneway: bool,
    /// Method name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// The `@record` decoration, if present.
    pub rule: Option<RecordRule>,
}

impl MethodDef {
    /// Index of the parameter named `name`, if present.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }
}

/// A parsed interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfaceDef {
    /// Interface descriptor, e.g. `INotificationManager`.
    pub descriptor: String,
    /// Methods in declaration order.
    pub methods: Vec<MethodDef>,
}

impl InterfaceDef {
    /// Looks up a method by name.
    pub fn method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Number of methods (the "Methods" column of Table 2).
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of methods carrying a `@record` decoration.
    pub fn decorated_count(&self) -> usize {
        self.methods.iter().filter(|m| m.rule.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_index_finds_by_name() {
        let m = MethodDef {
            ret: "void".into(),
            oneway: false,
            name: "set".into(),
            params: vec![
                Param {
                    direction: Direction::In,
                    ty: "int".into(),
                    name: "type".into(),
                },
                Param {
                    direction: Direction::In,
                    ty: "PendingIntent".into(),
                    name: "operation".into(),
                },
            ],
            rule: None,
        };
        assert_eq!(m.param_index("operation"), Some(1));
        assert_eq!(m.param_index("missing"), None);
    }

    #[test]
    fn drop_target_displays_like_source() {
        assert_eq!(DropTarget::This.to_string(), "this");
        assert_eq!(DropTarget::Method("set".into()).to_string(), "set");
    }
}
