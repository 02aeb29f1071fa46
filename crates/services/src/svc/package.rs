//! The PackageManagerService.
//!
//! Pairing "pseudo-installs the APK's metadata on the guest with its
//! PackageManagerService. This allows the guest to be aware of the app's
//! permissions and components but does not actually install the app data"
//! (§3.1). The pseudo-installed entry is the wrapper app migration-in
//! restores into.

use crate::service::{ServiceCtx, SystemService};
use flux_binder::{BinderError, Parcel};
use flux_simcore::Uid;
use std::any::Any;
use std::collections::BTreeMap;

/// An installed (or pseudo-installed) package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageRecord {
    /// Package name.
    pub name: String,
    /// Path of the APK on the data partition.
    pub apk_path: String,
    /// Version code.
    pub version: i32,
    /// Minimum API level the APK requires.
    pub min_api: u32,
    /// Assigned UID.
    pub uid: Uid,
    /// Whether this is a pairing-time pseudo-install (wrapper app).
    pub pseudo: bool,
    /// Declared permissions.
    pub permissions: Vec<String>,
}

/// The package-manager state.
#[derive(Debug, Clone, Default)]
pub struct PackageManagerService {
    packages: BTreeMap<String, PackageRecord>,
    next_app_uid: u32,
}

impl PackageManagerService {
    /// Installs a package for real, assigning a fresh app UID.
    pub fn install(
        &mut self,
        name: &str,
        apk_path: &str,
        version: i32,
        min_api: u32,
        permissions: Vec<String>,
    ) -> Uid {
        let uid = Uid(Uid::FIRST_APP.0 + self.next_app_uid);
        self.next_app_uid += 1;
        self.packages.insert(
            name.to_owned(),
            PackageRecord {
                name: name.to_owned(),
                apk_path: apk_path.to_owned(),
                version,
                min_api,
                uid,
                pseudo: false,
                permissions,
            },
        );
        uid
    }

    /// Pseudo-installs package metadata at pairing time (no app data).
    pub fn pseudo_install(&mut self, record: &PackageRecord) -> Uid {
        let uid = Uid(Uid::FIRST_APP.0 + self.next_app_uid);
        self.next_app_uid += 1;
        let mut r = record.clone();
        r.uid = uid;
        r.pseudo = true;
        self.packages.insert(r.name.clone(), r);
        uid
    }

    /// Updates the recorded APK of an existing entry (pairing re-verifies
    /// the APK before each migration since apps update frequently, §3.1).
    pub fn update_apk(&mut self, name: &str, apk_path: &str, version: i32) -> bool {
        match self.packages.get_mut(name) {
            Some(r) => {
                r.apk_path = apk_path.to_owned();
                r.version = version;
                true
            }
            None => false,
        }
    }

    /// Looks up a package.
    pub fn package(&self, name: &str) -> Option<&PackageRecord> {
        self.packages.get(name)
    }

    /// Number of installed packages (pseudo or real).
    pub fn len(&self) -> usize {
        self.packages.len()
    }

    /// Whether nothing is installed.
    pub fn is_empty(&self) -> bool {
        self.packages.is_empty()
    }
}

impl SystemService for PackageManagerService {
    fn descriptor(&self) -> &'static str {
        "IPackageManager"
    }

    fn registry_name(&self) -> &'static str {
        "package"
    }

    fn on_call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        method: &str,
        args: &Parcel,
    ) -> Result<Parcel, BinderError> {
        match method {
            "getPackageInfo" => {
                let name = args.str(0)?;
                match self.packages.get(name) {
                    Some(r) => Ok(Parcel::new()
                        .with_str(r.name.clone())
                        .with_i32(r.version)
                        .with_i32(r.uid.0 as i32)
                        .with_bool(r.pseudo)),
                    None => Ok(Parcel::new().with_null()),
                }
            }
            "getPackageUid" => {
                let name = args.str(0)?;
                Ok(Parcel::new().with_i32(
                    self.packages
                        .get(name)
                        .map(|r| r.uid.0 as i32)
                        .unwrap_or(-1),
                ))
            }
            "checkPermission" => {
                let perm = args.str(0)?;
                let name = args.str(1)?;
                let granted = self
                    .packages
                    .get(name)
                    .is_some_and(|r| r.permissions.iter().any(|p| p == perm));
                Ok(Parcel::new().with_i32(if granted { 0 } else { -1 }))
            }
            other => Err(ctx.fail(self.descriptor(), other, "unhandled method")),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
