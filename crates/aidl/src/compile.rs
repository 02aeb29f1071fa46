//! Compilation of parsed decorations into record-rule tables.
//!
//! The paper's AIDL extension "generates the necessary code to call our
//! record function" (§3.2). Our equivalent of that generated code is a
//! [`CompiledInterface`]: a per-method table the Selective Record runtime
//! consults on every service call. Compilation resolves `@if` parameter
//! names to argument indices and validates `@drop` targets, so any mistake
//! in a decoration text fails loudly at service-registration time rather
//! than corrupting a record log at migration time.
//!
//! # Drop semantics
//!
//! When a decorated method `M` is invoked with arguments `args`:
//!
//! 1. For every target `D` in `M`'s drop list, previous log entries for `D`
//!    whose `@if`-named arguments all equal the corresponding `args` are
//!    removed. `this` denotes `M` itself.
//! 2. The call to `M` is then recorded — *unless* `this` is in the drop
//!    list, the list names at least one other method, and step 1 actually
//!    removed a foreign entry. This reproduces the NotificationManager
//!    example (§3.2): `cancelNotification` erases the matching
//!    `enqueueNotification` *and* suppresses itself, while AlarmManager's
//!    `set` (whose drop list contains only replacements) is always
//!    re-recorded.
//!
//! # Authoring convention
//!
//! Because a foreign drop triggers suppression, **only destructor methods
//! (cancel/remove/release/unregister) may list foreign targets**; a
//! constructor's drop list names `this` alone. A constructor that listed
//! its destructor would suppress itself after e.g. a `remove → set`
//! sequence and the re-created state would never be replayed. Stale
//! destructor entries a constructor leaves behind are harmless: replaying
//! them in order is a no-op, and they are rare in live logs.

use crate::ast::{DropTarget, InterfaceDef, MethodDef, RecordRule};
use std::collections::BTreeMap;
use std::fmt;

/// A compile-time error in a decoration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Interface being compiled.
    pub interface: String,
    /// Method whose rule is invalid.
    pub method: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid decoration on {}.{}: {}",
            self.interface, self.method, self.message
        )
    }
}

impl std::error::Error for CompileError {}

/// One alternative match signature, resolved to argument indices.
///
/// `pairs[k] = (caller_idx, target_idx)`: argument `caller_idx` of the
/// current call must equal argument `target_idx` of the candidate previous
/// call for the signature to match. An empty pair list matches everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchSig {
    /// Index pairs that must be equal.
    pub pairs: Vec<(usize, usize)>,
}

/// A compiled `@drop` target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledDrop {
    /// Name of the method whose previous calls are dropped.
    pub target: String,
    /// Whether this target was written as `this`.
    pub is_this: bool,
    /// Alternative signatures; a previous call is dropped if *any* matches.
    pub sigs: Vec<MatchSig>,
}

/// The compiled rule for one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledRule {
    /// Method name.
    pub method: String,
    /// Transaction code (declaration index), mirroring AIDL's numbering.
    pub code: u32,
    /// Whether calls are recorded at all.
    pub recorded: bool,
    /// Drop targets evaluated before recording.
    pub drops: Vec<CompiledDrop>,
    /// Suppress recording the current call when a foreign drop target
    /// matched (see module docs).
    pub suppress_on_foreign_drop: bool,
    /// Replay proxy path, if any.
    pub replay_proxy: Option<String>,
}

/// A fully compiled interface: rules for every method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledInterface {
    /// Interface descriptor.
    pub descriptor: String,
    rules: BTreeMap<String, CompiledRule>,
    method_order: Vec<String>,
}

impl CompiledInterface {
    /// The rule for `method`, if the method exists.
    pub fn rule(&self, method: &str) -> Option<&CompiledRule> {
        self.rules.get(method)
    }

    /// Whether `method` exists on the interface.
    pub fn has_method(&self, method: &str) -> bool {
        self.rules.contains_key(method)
    }

    /// Method names in declaration order.
    pub fn methods(&self) -> &[String] {
        &self.method_order
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.method_order.len()
    }

    /// Number of recorded methods.
    pub fn recorded_count(&self) -> usize {
        self.rules.values().filter(|r| r.recorded).count()
    }
}

fn resolve_sigs(
    iface: &InterfaceDef,
    method: &MethodDef,
    target: &MethodDef,
    rule: &RecordRule,
) -> Result<Vec<MatchSig>, CompileError> {
    let err = |message: String| CompileError {
        interface: iface.descriptor.clone(),
        method: method.name.clone(),
        message,
    };
    if rule.if_clauses.is_empty() {
        // No @if: every previous call to the target matches.
        return Ok(vec![MatchSig { pairs: vec![] }]);
    }
    let mut sigs = Vec::new();
    for clause in &rule.if_clauses {
        let mut pairs = Vec::new();
        for arg in clause {
            let caller_idx = method.param_index(arg).ok_or_else(|| {
                err(format!(
                    "@if names unknown parameter {arg:?} of {}",
                    method.name
                ))
            })?;
            let target_idx = target.param_index(arg).ok_or_else(|| {
                err(format!(
                    "@if parameter {arg:?} does not exist on drop target {}",
                    target.name
                ))
            })?;
            pairs.push((caller_idx, target_idx));
        }
        sigs.push(MatchSig { pairs });
    }
    Ok(sigs)
}

/// Compiles a parsed interface into its rule table.
pub fn compile(iface: &InterfaceDef) -> Result<CompiledInterface, CompileError> {
    let mut rules = BTreeMap::new();
    let mut method_order = Vec::with_capacity(iface.methods.len());

    for (code, method) in iface.methods.iter().enumerate() {
        method_order.push(method.name.clone());
        let compiled = match &method.rule {
            None => CompiledRule {
                method: method.name.clone(),
                code: code as u32,
                recorded: false,
                drops: vec![],
                suppress_on_foreign_drop: false,
                replay_proxy: None,
            },
            Some(rule) => {
                let mut drops = Vec::new();
                let mut has_this = false;
                let mut has_foreign = false;
                for t in &rule.drops {
                    let (target_name, is_this) = match t {
                        DropTarget::This => {
                            has_this = true;
                            (method.name.clone(), true)
                        }
                        DropTarget::Method(name) => {
                            has_foreign = true;
                            (name.clone(), false)
                        }
                    };
                    let target = iface.method(&target_name).ok_or_else(|| CompileError {
                        interface: iface.descriptor.clone(),
                        method: method.name.clone(),
                        message: format!("@drop target {target_name:?} is not a method"),
                    })?;
                    let sigs = resolve_sigs(iface, method, target, rule)?;
                    drops.push(CompiledDrop {
                        target: target_name,
                        is_this,
                        sigs,
                    });
                }
                CompiledRule {
                    method: method.name.clone(),
                    code: code as u32,
                    recorded: true,
                    drops,
                    suppress_on_foreign_drop: has_this && has_foreign,
                    replay_proxy: rule.replay_proxy.clone(),
                }
            }
        };
        if rules.insert(method.name.clone(), compiled).is_some() {
            return Err(CompileError {
                interface: iface.descriptor.clone(),
                method: method.name.clone(),
                message: "duplicate method name".into(),
            });
        }
    }

    Ok(CompiledInterface {
        descriptor: iface.descriptor.clone(),
        rules,
        method_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_one;

    fn notification() -> CompiledInterface {
        compile(
            &parse_one(
                r#"
interface INotificationManager {
    @record
    void enqueueNotification(int id, Notification notification);
    @record {
        @drop this, enqueueNotification;
        @if id;
    }
    void cancelNotification(int id);
    void getActiveNotifications(int limit);
}
"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn undecorated_methods_are_not_recorded() {
        let c = notification();
        assert!(!c.rule("getActiveNotifications").unwrap().recorded);
        assert_eq!(c.recorded_count(), 2);
        assert_eq!(c.method_count(), 3);
    }

    #[test]
    fn cancel_suppresses_on_foreign_drop() {
        let c = notification();
        let cancel = c.rule("cancelNotification").unwrap();
        assert!(cancel.recorded);
        assert!(cancel.suppress_on_foreign_drop);
        assert_eq!(cancel.drops.len(), 2);
        // `id` is arg 0 on both cancel and enqueue.
        let enqueue_drop = cancel.drops.iter().find(|d| !d.is_this).unwrap();
        assert_eq!(enqueue_drop.sigs[0].pairs, vec![(0, 0)]);
    }

    #[test]
    fn set_with_only_this_is_not_suppressed() {
        let c = compile(
            &parse_one(
                r#"
interface IAlarmManager {
    @record {
        @drop this;
        @if operation;
    }
    void set(int type, long triggerAtTime, in PendingIntent operation);
}
"#,
            )
            .unwrap(),
        )
        .unwrap();
        let set = c.rule("set").unwrap();
        assert!(!set.suppress_on_foreign_drop);
        // `operation` is arg 2 on the caller and the (identical) target.
        assert_eq!(set.drops[0].sigs[0].pairs, vec![(2, 2)]);
    }

    #[test]
    fn transaction_codes_follow_declaration_order() {
        let c = notification();
        assert_eq!(c.rule("enqueueNotification").unwrap().code, 0);
        assert_eq!(c.rule("cancelNotification").unwrap().code, 1);
        assert_eq!(c.rule("getActiveNotifications").unwrap().code, 2);
    }

    #[test]
    fn unknown_drop_target_fails_compilation() {
        let r = compile(
            &parse_one("interface IX { @record { @drop nosuch; } void a(int i); }").unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn if_arg_missing_on_caller_fails() {
        let r = compile(
            &parse_one("interface IX { @record { @drop this; @if missing; } void a(int i); }")
                .unwrap(),
        );
        assert!(r.unwrap_err().message.contains("missing"));
    }

    #[test]
    fn if_arg_missing_on_target_fails() {
        let r = compile(
            &parse_one(
                r#"
interface IX {
    @record void b(int other);
    @record { @drop b; @if i; } void a(int i);
}
"#,
            )
            .unwrap(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn no_if_clause_matches_everything() {
        let c =
            compile(&parse_one("interface IX { @record { @drop this; } void a(int i); }").unwrap())
                .unwrap();
        assert_eq!(
            c.rule("a").unwrap().drops[0].sigs,
            vec![MatchSig { pairs: vec![] }]
        );
    }

    #[test]
    fn duplicate_methods_are_rejected() {
        let r = compile(&parse_one("interface IX { void a(); void a(); }").unwrap());
        assert!(r.unwrap_err().message.contains("duplicate"));
    }
}
